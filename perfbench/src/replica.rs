//! The traced cell replica.
//!
//! The Runner's per-cell pipeline is private, so the traced run rebuilds it
//! from the layers' public entry points — `DatasetBuilder::build`,
//! `translate_to_cnf`, the `mlkit` trainers and quantizers,
//! `CnfEncodable::decision_regions_bounded` / `try_encode_label_bounded`,
//! the first `ModelCounter::count` of φ and ¬φ on the `CompiledCounter`,
//! and `count_cubes` / `count_transient` through the same `CachedCounter` —
//! and times each call. Its rows must equal the untraced Runner's bit for
//! bit; a mismatch fails the run, because the per-layer numbers would then
//! describe some other computation.
//!
//! Work a batch shares (datasets, translations, the φ / ¬φ compiles) runs
//! once in a shared phase with its own spans, so it is never billed to
//! whichever cell reached it first.

use crate::check::{error_kind, metric_bits, CellOutcome};
use crate::trace::Tracer;
use crate::workload::Batch;
use datagen::builder::{DatasetBuilder, DatasetConfig, PropertyDataset};
use mcml::accmc::CountingEngine;
use mcml::backend::CounterBackend;
use mcml::counter::{CacheStats, CachedCounter, ModelCounter, QueryCounter};
use mcml::encode::{CnfEncodable, MAX_VOTE_NODES};
use mcml::error::EvalError;
use mcml::framework::{evaluate_classifier, ExperimentConfig, ModelFamily};
use mcml::tree2cnf::TreeLabel;
use mlkit::adaboost::{AdaBoost, AdaBoostConfig};
use mlkit::data::Dataset;
use mlkit::forest::{ForestConfig, RandomForest};
use mlkit::gbdt::{GbdtConfig, GradientBoosting};
use mlkit::mlp::{Mlp, MlpConfig};
use mlkit::quant::{QuantizedMlp, QuantizedSvm, DEFAULT_QUANT_BITS};
use mlkit::svm::{LinearSvm, SvmConfig};
use mlkit::tree::{DecisionTree, TreeConfig};
use mlkit::Classifier;
use relspec::properties::Property;
use relspec::symmetry::SymmetryBreaking;
use relspec::translate::{translate_to_cnf, GroundTruth, TranslateOptions};
use satkit::cnf::Lit;
use std::collections::HashMap;
use std::time::Instant;

/// `Runner::new()`'s hyper-parameters, which the table binaries keep.
const RFT_TREES: usize = 15;
const ABT_ROUNDS: usize = 10;
const ABT_DEPTH: usize = 2;
const GBDT_ROUNDS: usize = 6;
const GBDT_DEPTH: usize = 2;
const MLP_HIDDEN: usize = 4;

/// A trained model of any family.
trait Trained: Classifier + CnfEncodable {}
impl<T: Classifier + CnfEncodable> Trained for T {}

type TruthKey = (Property, usize, SymmetryBreaking);

fn dataset_config(c: &ExperimentConfig) -> DatasetConfig {
    DatasetConfig {
        property: c.property,
        scope: c.scope,
        symmetry: c.data_symmetry,
        max_positive: c.max_positive,
        seed: c.seed,
    }
}

fn truth_key(c: &ExperimentConfig) -> TruthKey {
    (c.property, c.scope, c.eval_symmetry)
}

/// What the shared phase built, plus its public counts.
pub struct Shared {
    datasets: HashMap<DatasetConfig, PropertyDataset>,
    truths: HashMap<TruthKey, GroundTruth>,
    /// Clauses of every translated ground truth's defining CNF.
    pub clauses: u64,
}

/// Builds each distinct dataset and ground truth once, and on the compiled
/// engine compiles each φ and ¬φ with one `ModelCounter::count` on the
/// backend's `CompiledCounter`.
pub fn shared_phase(batch: &Batch, inner: &CounterBackend, t: &mut Tracer) -> Shared {
    let mut shared = Shared {
        datasets: HashMap::new(),
        truths: HashMap::new(),
        clauses: 0,
    };
    let mut truth_order = Vec::new();
    for c in &batch.configs {
        let dc = dataset_config(c);
        if let std::collections::hash_map::Entry::Vacant(slot) = shared.datasets.entry(dc) {
            slot.insert(t.span(
                "datagen",
                || unit_name("dataset", c),
                |_| DatasetBuilder::new().build(dc),
            ));
        }
        let key = truth_key(c);
        if !shared.truths.contains_key(&key) {
            let truth = t.span(
                "relspec",
                || unit_name("truth", c),
                |_| {
                    translate_to_cnf(
                        &c.property.spec(),
                        TranslateOptions::new(c.scope).with_symmetry(c.eval_symmetry),
                    )
                },
            );
            shared.clauses += truth.defining_cnf().num_clauses() as u64;
            shared.truths.insert(key, truth);
            truth_order.push(*c);
        }
    }
    if batch.engine == CountingEngine::Compiled {
        let compiled = inner
            .as_compiled()
            .expect("the compiled engine counts through a CompiledCounter");
        for c in &truth_order {
            let truth = &shared.truths[&truth_key(c)];
            t.span(
                "ddnnf",
                || unit_name("phi", c),
                |_| ModelCounter::count(compiled, truth.cnf_positive_ref()),
            );
            t.span(
                "ddnnf",
                || unit_name("nphi", c),
                |_| ModelCounter::count(compiled, truth.cnf_negative_ref()),
            );
        }
    }
    shared
}

fn unit_name(what: &str, c: &ExperimentConfig) -> String {
    format!(
        "{what} {}/{}/{}/{}",
        c.property.name(),
        c.scope,
        c.eval_symmetry.name(),
        c.seed
    )
}

/// One pass over every cell of the batch.
#[derive(Debug)]
pub struct CellPhase {
    /// Outcomes in job order.
    pub outcomes: Vec<Option<CellOutcome>>,
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Decision-region cubes extracted (compiled engine).
    pub cubes: u64,
    /// `count_transient` calls (classic engine).
    pub transient_counts: u64,
    /// The pass's `CachedCounter` statistics.
    pub memo: CacheStats,
    /// Entries in the pass's `CachedCounter`.
    pub memo_entries: usize,
}

/// Trains, evaluates and counts every cell in job order, through a fresh
/// `CachedCounter` around `inner` (whose compiled circuits the shared phase
/// already built).
pub fn cell_phase(
    batch: &Batch,
    shared: &Shared,
    inner: &CounterBackend,
    t: &mut Tracer,
) -> CellPhase {
    let backend = CachedCounter::new(inner.clone());
    let start = Instant::now();
    let mut phase = CellPhase {
        outcomes: Vec::new(),
        wall_s: 0.0,
        cubes: 0,
        transient_counts: 0,
        memo: CacheStats::default(),
        memo_entries: 0,
    };
    for (job, (config, family)) in batch.jobs().into_iter().enumerate() {
        let unit = || {
            format!(
                "cell {job} {}/{}/{}",
                config.property.name(),
                family,
                config.seed
            )
        };
        let outcome = t.span("cell", unit, |t| {
            let dataset = &shared.datasets[&dataset_config(&config)];
            let truth = &shared.truths[&truth_key(&config)];
            let (train, test) = t.span("datagen", unit, |_| dataset.split(config.ratio));
            let model = t.span("mlkit", unit, |_| train_model(&config, family, &train));
            let test_bits = metric_bits(&evaluate_classifier(model.as_ref(), &test));
            let counts = if model.num_features() != truth.num_primary() {
                Err(EvalError::FeatureMismatch {
                    model_features: model.num_features(),
                    expected_features: truth.num_primary(),
                    context: "ground truth",
                })
            } else {
                match batch.engine {
                    CountingEngine::Compiled => {
                        compiled_counts(model.as_ref(), truth, &backend, t, unit, &mut phase.cubes)
                    }
                    CountingEngine::Classic => classic_counts(
                        model.as_ref(),
                        truth,
                        &backend,
                        t,
                        unit,
                        &mut phase.transient_counts,
                    ),
                }
            };
            match counts {
                Err(e) => CellOutcome::Refused(error_kind(&e)),
                Ok(None) => CellOutcome::Uncounted { test: test_bits },
                Ok(Some(counts)) => CellOutcome::Landed {
                    counts,
                    test: test_bits,
                },
            }
        });
        phase.outcomes.push(Some(outcome));
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.memo = backend.stats();
    phase.memo_entries = backend.len();
    phase
}

/// The compiled engine's plan: region cubes, then one batched sweep of φ
/// and one of ¬φ.
fn compiled_counts(
    model: &dyn Trained,
    truth: &GroundTruth,
    backend: &CachedCounter<CounterBackend>,
    t: &mut Tracer,
    unit: impl Fn() -> String + Copy,
    cubes_seen: &mut u64,
) -> Result<Option<[u128; 4]>, EvalError> {
    let regions = t.span("encode", unit, |_| {
        model.decision_regions_bounded(MAX_VOTE_NODES)
    })?;
    *cubes_seen += regions.len() as u64;
    let cubes: Vec<&[Lit]> = regions.iter().map(|r| r.cube.as_slice()).collect();
    let mut sides = Vec::with_capacity(2);
    for cnf in [truth.cnf_positive_ref(), truth.cnf_negative_ref()] {
        let outcomes = t.span("counter", unit, |_| backend.count_cubes(cnf, &cubes));
        let values: Option<Vec<u128>> = outcomes.iter().map(|o| o.value()).collect();
        match values {
            Some(v) if v.len() == cubes.len() => sides.push(v),
            _ => return Ok(None),
        }
    }
    let mut counts = [0u128; 4];
    for (region, (in_phi, in_not_phi)) in regions.iter().zip(sides[0].iter().zip(&sides[1])) {
        match region.label {
            TreeLabel::True => {
                counts[0] += in_phi;
                counts[1] += in_not_phi;
            }
            TreeLabel::False => {
                counts[3] += in_phi;
                counts[2] += in_not_phi;
            }
        }
    }
    Ok(Some(counts))
}

/// The classic engine's plan: four conjunction CNFs, each counted once.
fn classic_counts(
    model: &dyn Trained,
    truth: &GroundTruth,
    backend: &CachedCounter<CounterBackend>,
    t: &mut Tracer,
    unit: impl Fn() -> String + Copy,
    calls: &mut u64,
) -> Result<Option<[u128; 4]>, EvalError> {
    let mut counts = [0u128; 4];
    let plan = [
        (true, TreeLabel::True),
        (false, TreeLabel::True),
        (false, TreeLabel::False),
        (true, TreeLabel::False),
    ];
    for (slot, (phi_positive, label)) in counts.iter_mut().zip(plan) {
        let cnf = t.span("classic", unit, |_| {
            let mut cnf = if phi_positive {
                truth.cnf_positive()
            } else {
                truth.cnf_negative()
            };
            model
                .try_encode_label_bounded(&mut cnf, label, MAX_VOTE_NODES)
                .map(|()| cnf)
        })?;
        *calls += 1;
        match t
            .span("modelcount", unit, |_| backend.count_transient(&cnf))
            .value()
        {
            Some(v) => *slot = v,
            None => return Ok(None),
        }
    }
    Ok(Some(counts))
}

/// Trains a `(config, family)` model with the Runner's hyper-parameters and
/// the config's seed, quantizing the MLP and SVM families.
fn train_model(
    config: &ExperimentConfig,
    family: ModelFamily,
    train: &Dataset,
) -> Box<dyn Trained> {
    let seed = config.seed;
    match family {
        ModelFamily::Dt => Box::new(DecisionTree::fit(train, TreeConfig::default())),
        ModelFamily::Rft => Box::new(RandomForest::fit(
            train,
            ForestConfig {
                num_trees: RFT_TREES,
                seed,
                ..ForestConfig::default()
            },
        )),
        ModelFamily::Gbdt => Box::new(GradientBoosting::fit(
            train,
            GbdtConfig {
                num_rounds: GBDT_ROUNDS,
                max_depth: GBDT_DEPTH,
                ..GbdtConfig::default()
            },
        )),
        ModelFamily::Abt => Box::new(AdaBoost::fit(
            train,
            AdaBoostConfig {
                num_rounds: ABT_ROUNDS,
                weak_depth: ABT_DEPTH,
                seed,
            },
        )),
        ModelFamily::Mlp => {
            let float = Mlp::fit(
                train,
                MlpConfig {
                    hidden_units: MLP_HIDDEN,
                    seed,
                    ..MlpConfig::default()
                },
            );
            Box::new(QuantizedMlp::from_mlp_calibrated(
                &float,
                DEFAULT_QUANT_BITS,
                train.features(),
            ))
        }
        ModelFamily::Svm => {
            let float = LinearSvm::fit(
                train,
                SvmConfig {
                    seed,
                    ..SvmConfig::default()
                },
            );
            Box::new(QuantizedSvm::from_svm(&float, DEFAULT_QUANT_BITS))
        }
    }
}
