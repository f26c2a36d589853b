//! The four workloads and the batches they run.
//!
//! Every batch workload is one `Runner` batch built exactly the way the
//! table binaries build theirs: `mcml_bench::HarnessArgs` supplies the
//! counting backend (with the tables' default budget), wrapped in the same
//! `CachedCounter`, and the Runner keeps its default hyper-parameters.
//! The workload seed only picks the experiment seed(s); the program never
//! sees anything else of it.

use mcml::accmc::CountingEngine;
use mcml::backend::CounterBackend;
use mcml::counter::CachedCounter;
use mcml::framework::{ExperimentConfig, ModelFamily, Runner};
use mcml_bench::{study_scope, HarnessArgs};
use relspec::properties::Property;

/// Worker threads and client connections: the benchmark box has two cores.
pub const THREADS: usize = 2;

/// The experiment seed of the store `serve-mix` serves. The workload seed
/// drives only the request script: a store's size and its diffs' cost vary
/// by a factor of two with the models a seed trains, which would make every
/// serving metric measure the seed rather than the server.
pub const SERVED_EXPERIMENT_SEED: u64 = 0;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 3 settings (symmetry breaking on data and φ) at the study
    /// scopes, six families, three consecutive seeds sharing one counter,
    /// compiled engine: dominated by the scope-5 ¬φ compiles, and it carries
    /// the typed `VoteCircuitTooLarge` refusals. One seed's region
    /// extraction costs 0.7–4.3 s of CPU depending on the models it trains;
    /// three seeds average that out against the seed-independent compiles.
    StudySb,
    /// Table 5 settings at scope 4, six families, three consecutive seeds
    /// sharing one counter: compiles are amortised, so region extraction
    /// and circuit sweeps dominate. Three, not four: four seeds' memo holds
    /// about 1.84 M entries, right at a hash-table growth step, so whether a
    /// seed's batch doubled the table (and its peak RSS, 260 vs 470 MB)
    /// depended on the seed.
    Scope4Seeds,
    /// Table 5 settings at scope 4, decision trees, two consecutive seeds,
    /// classic engine: four conjunction CNFs per model counted by exact
    /// search.
    ClassicDt,
    /// `mcml-serve` over the artifact of one seed's scope-4 batch, driven by
    /// a seeded closed-loop request mix.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::StudySb,
        Workload::Scope4Seeds,
        Workload::ClassicDt,
        Workload::ServeMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudySb => "study-sb",
            Workload::Scope4Seeds => "scope4-seeds",
            Workload::ClassicDt => "classic-dt",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a workload runs: the study scopes, or the scope-3 smoke size the
/// benchmark's own tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Scopes 4 and 5, as the paper's tables run them.
    Study,
    /// Every property at scope 3: the same code paths in milliseconds.
    Smoke,
}

impl Size {
    /// The size's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Size::Study => "study",
            Size::Smoke => "smoke",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "study" => Some(Size::Study),
            "smoke" => Some(Size::Smoke),
            _ => None,
        }
    }

    /// The scope of a Table 5 (no symmetry breaking) row.
    fn table5_scope(self) -> usize {
        match self {
            Size::Study => 4,
            Size::Smoke => 3,
        }
    }

    /// The scope of a Table 3 row of `property`.
    fn table3_scope(self, property: Property) -> usize {
        match self {
            Size::Study => study_scope(property),
            Size::Smoke => 3,
        }
    }
}

/// One Runner batch: its cells are `configs × families` in job order.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Experiment rows, outer loop of the job order.
    pub configs: Vec<ExperimentConfig>,
    /// Model families, inner loop of the job order.
    pub families: Vec<ModelFamily>,
    /// Whole-space counting engine.
    pub engine: CountingEngine,
    /// Runner worker threads.
    pub threads: usize,
}

impl Batch {
    /// The batch `workload` runs at `size` for workload seed `seed`. For
    /// `serve-mix` this is the batch whose artifact the server loads and
    /// whose rows its `accuracy` replies must reproduce; it does not depend
    /// on the seed (see [`SERVED_EXPERIMENT_SEED`]).
    pub fn of(workload: Workload, size: Size, seed: u64) -> Batch {
        let table5 = |experiment_seed: u64| {
            Property::all().into_iter().map(move |p| ExperimentConfig {
                seed: experiment_seed,
                ..ExperimentConfig::table5(p, size.table5_scope())
            })
        };
        match workload {
            Workload::StudySb => Batch {
                configs: (0..3)
                    .flat_map(|k| {
                        Property::all().into_iter().map(move |p| ExperimentConfig {
                            seed: seed * 3 + k,
                            ..ExperimentConfig::table3(p, size.table3_scope(p))
                        })
                    })
                    .collect(),
                families: ModelFamily::all().to_vec(),
                engine: CountingEngine::Compiled,
                threads: THREADS,
            },
            Workload::Scope4Seeds => Batch {
                configs: (0..3).flat_map(|k| table5(seed * 3 + k)).collect(),
                families: ModelFamily::all().to_vec(),
                engine: CountingEngine::Compiled,
                threads: THREADS,
            },
            Workload::ClassicDt => Batch {
                configs: (0..2).flat_map(|k| table5(seed * 2 + k)).collect(),
                families: vec![ModelFamily::Dt],
                engine: CountingEngine::Classic,
                threads: THREADS,
            },
            Workload::ServeMix => Batch {
                configs: table5(SERVED_EXPERIMENT_SEED).collect(),
                families: ModelFamily::all().to_vec(),
                engine: CountingEngine::Compiled,
                threads: THREADS,
            },
        }
    }

    /// The cells in job order (configs outer, families inner) — the order
    /// `BatchOutcome` reports them in.
    pub fn jobs(&self) -> Vec<(ExperimentConfig, ModelFamily)> {
        self.configs
            .iter()
            .flat_map(|c| self.families.iter().map(move |f| (*c, *f)))
            .collect()
    }

    /// The Runner the table binaries would configure for this batch.
    pub fn runner(&self) -> Runner {
        Runner::new()
            .families(&self.families)
            .threads(self.threads)
            .engine(self.engine)
    }

    /// A fresh counting backend as the table binaries build it (default
    /// budget). Clones of a compiled backend share its circuit cache.
    pub fn inner_backend(&self) -> CounterBackend {
        HarnessArgs {
            engine: self.engine,
            ..HarnessArgs::default()
        }
        .backend()
    }

    /// A fresh memoizing backend, exactly what a table run counts through.
    pub fn backend(&self) -> CachedCounter<CounterBackend> {
        CachedCounter::new(self.inner_backend())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relspec::symmetry::SymmetryBreaking;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Size::parse("smoke"), Some(Size::Smoke));
    }

    #[test]
    fn study_batches_have_the_documented_shapes() {
        let study = Batch::of(Workload::StudySb, Size::Study, 7);
        assert_eq!(study.jobs().len(), 288);
        assert!(study.configs.iter().all(|c| {
            c.eval_symmetry == SymmetryBreaking::Transpositions && (21..24).contains(&c.seed)
        }));
        assert_eq!(study.configs.iter().filter(|c| c.scope == 5).count(), 12);
        let seeds = Batch::of(Workload::Scope4Seeds, Size::Study, 2);
        assert_eq!(seeds.jobs().len(), 288);
        let mut used: Vec<u64> = seeds.configs.iter().map(|c| c.seed).collect();
        used.dedup();
        assert_eq!(used, vec![6, 7, 8]);
        assert_eq!(
            Batch::of(Workload::ClassicDt, Size::Study, 0).jobs().len(),
            32
        );
        let serve = Batch::of(Workload::ServeMix, Size::Smoke, 5);
        assert!(serve.configs.iter().all(|c| c.scope == 3 && c.seed == 0));
    }
}
