//! Output checks shared by every batch workload.
//!
//! A cell's outcome is checked three ways: its four whole-space counts must
//! cover the evaluated space exactly, every repetition of the batch in one
//! run must reproduce the first bit for bit, and the digest of the counts
//! must equal the one pinned in `pins.txt` for the workload and seed. Cells
//! the pin records as typed `VoteCircuitTooLarge` refusals are the
//! program's documented answer for those models, not failures; a later
//! build may answer them instead, as long as the counts it lands cover the
//! space.

use crate::workload::{Batch, Size, Workload};
use mcml::error::EvalError;
use mcml::framework::RunnerRow;
use relspec::symmetry::SymmetryBreaking;

/// What one `(config, family)` cell produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// Whole-space counts `[tp, fp, tn, fn]` and the test-set metrics
    /// (accuracy, precision, recall, F1) as raw `f64` bits.
    Landed { counts: [u128; 4], test: [u64; 4] },
    /// The row landed without whole-space counts (a counting budget ran
    /// out: the paper's "-" cell).
    Uncounted { test: [u64; 4] },
    /// A typed per-cell error, by `EvalError` kind.
    Refused(&'static str),
}

/// The refusal kind every study-scope batch may legitimately report.
pub const TOO_LARGE: &str = "VoteCircuitTooLarge";

/// The `EvalError` kind name of `error`.
pub fn error_kind(error: &EvalError) -> &'static str {
    match error {
        EvalError::FeatureMismatch { .. } => "FeatureMismatch",
        EvalError::NoModelFamilies => "NoModelFamilies",
        EvalError::VoteCircuitTooLarge { .. } => TOO_LARGE,
    }
}

/// Test-set metrics as raw bits, so equality is bit-for-bit.
pub fn metric_bits(m: &mlkit::metrics::BinaryMetrics) -> [u64; 4] {
    [
        m.accuracy.to_bits(),
        m.precision.to_bits(),
        m.recall.to_bits(),
        m.f1.to_bits(),
    ]
}

impl CellOutcome {
    /// The outcome of a landed Runner row.
    pub fn of_row(row: &RunnerRow) -> CellOutcome {
        let test = metric_bits(&row.test_metrics);
        match &row.whole_space {
            Some(ws) => {
                let c = ws.counts;
                CellOutcome::Landed {
                    counts: [c.tp, c.fp, c.tn, c.fn_],
                    test,
                }
            }
            None => CellOutcome::Uncounted { test },
        }
    }

    /// One line of the worker protocol (see [`CellOutcome::decode`]).
    pub fn encode(&self) -> String {
        let bits = |t: &[u64; 4]| format!("{:x} {:x} {:x} {:x}", t[0], t[1], t[2], t[3]);
        match self {
            CellOutcome::Landed { counts, test } => format!(
                "ok {} {} {} {} {}",
                counts[0],
                counts[1],
                counts[2],
                counts[3],
                bits(test)
            ),
            CellOutcome::Uncounted { test } => format!("none {}", bits(test)),
            CellOutcome::Refused(kind) => format!("err {kind}"),
        }
    }

    /// Parses [`CellOutcome::encode`]'s output.
    pub fn decode(words: &[&str]) -> Option<CellOutcome> {
        let bits = |w: &[&str]| -> Option<[u64; 4]> {
            let mut out = [0u64; 4];
            for (slot, word) in out.iter_mut().zip(w) {
                *slot = u64::from_str_radix(word, 16).ok()?;
            }
            (w.len() == 4).then_some(out)
        };
        match words {
            ["ok", rest @ ..] if rest.len() == 8 => {
                let mut counts = [0u128; 4];
                for (slot, word) in counts.iter_mut().zip(rest) {
                    *slot = word.parse().ok()?;
                }
                Some(CellOutcome::Landed {
                    counts,
                    test: bits(&rest[4..])?,
                })
            }
            ["none", rest @ ..] => Some(CellOutcome::Uncounted { test: bits(rest)? }),
            ["err", kind] => [TOO_LARGE, "FeatureMismatch", "NoModelFamilies"]
                .into_iter()
                .find(|k| k == kind)
                .map(CellOutcome::Refused),
            _ => None,
        }
    }
}

/// Number of adjacency matrices kept by all-transpositions symmetry
/// breaking, by scope (index = scope). Verified by enumeration in the tests
/// (scope 5 behind `--ignored`: 2^25 instances).
const KEPT_TRANSPOSITIONS: [u128; 6] = [1, 2, 10, 110, 3_851, 469_359];

/// Size of the space a row's four counts must cover: every `scope²`-bit
/// adjacency matrix, or those the ground truth's symmetry breaking keeps.
pub fn space_size(scope: usize, symmetry: SymmetryBreaking) -> Option<u128> {
    match symmetry {
        SymmetryBreaking::None => 1u128.checked_shl((scope * scope) as u32),
        SymmetryBreaking::Transpositions => KEPT_TRANSPOSITIONS.get(scope).copied(),
        SymmetryBreaking::Adjacent | SymmetryBreaking::Full => None,
    }
}

/// FNV-1a over the job index and four counts of every landed cell that is
/// not in `skip`, in job order.
pub fn digest(outcomes: &[Option<CellOutcome>], skip: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (job, outcome) in outcomes.iter().enumerate() {
        if skip.contains(&job) {
            continue;
        }
        if let Some(CellOutcome::Landed { counts, .. }) = outcome {
            eat(&(job as u64).to_le_bytes());
            for c in counts {
                eat(&c.to_le_bytes());
            }
        }
    }
    h
}

/// A pinned expectation: the digest of the landed cells and the jobs that
/// were refused with `VoteCircuitTooLarge`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    /// [`digest`] of the landed cells, skipping `refused`.
    pub digest: u64,
    /// Job indices refused as too large.
    pub refused: Vec<usize>,
}

/// The pins recorded for the seed code, one line per (workload, size, seed).
const PINS: &str = include_str!("../pins.txt");

/// The pin for `(workload, size, seed)`, if one was recorded.
pub fn pin_for(workload: Workload, size: Size, seed: u64) -> Option<Pin> {
    PINS.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let words: Vec<&str> = line.split_whitespace().collect();
            let [w, s, n, d, r] = words[..] else {
                return None;
            };
            if w != workload.name() || s != size.name() || n.parse::<u64>().ok()? != seed {
                return None;
            }
            let refused = if r == "-" {
                Vec::new()
            } else {
                r.split(',')
                    .map(|j| j.parse().ok())
                    .collect::<Option<_>>()?
            };
            Some(Pin {
                digest: u64::from_str_radix(d, 16).ok()?,
                refused,
            })
        })
}

/// The pin line `(workload, size, seed)` would get from `outcomes`.
pub fn pin_line(
    workload: Workload,
    size: Size,
    seed: u64,
    outcomes: &[Option<CellOutcome>],
) -> String {
    let refused: Vec<String> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o, Some(CellOutcome::Refused(TOO_LARGE))))
        .map(|(job, _)| job.to_string())
        .collect();
    let skip: Vec<usize> = refused
        .iter()
        .map(|j| j.parse().expect("job index"))
        .collect();
    format!(
        "{} {} {} {:016x} {}",
        workload.name(),
        size.name(),
        seed,
        digest(outcomes, &skip),
        if refused.is_empty() {
            "-".to_string()
        } else {
            refused.join(",")
        }
    )
}

/// The outcome of checking one run's batch repetitions.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Cells attempted (cells per batch × repetitions).
    pub attempted: u64,
    /// Cells whose output failed a check.
    pub failed: u64,
    /// Cells refused with the typed `VoteCircuitTooLarge` error.
    pub refused: u64,
    /// Whether a pinned digest was available and matched.
    pub pinned: bool,
    /// One line per failed check.
    pub notes: Vec<String>,
}

/// Checks every repetition of `batch` (job-ordered outcomes per
/// repetition) against the space sizes, the first repetition and the pin.
pub fn check_batch(
    workload: Workload,
    size: Size,
    seed: u64,
    batch: &Batch,
    repetitions: &[Vec<Option<CellOutcome>>],
) -> Verdict {
    let jobs = batch.jobs();
    let pin = pin_for(workload, size, seed);
    let mut v = Verdict::default();
    for (rep, outcomes) in repetitions.iter().enumerate() {
        for (job, (config, family)) in jobs.iter().enumerate() {
            v.attempted += 1;
            let pinned_refused = pin.as_ref().is_some_and(|p| p.refused.contains(&job));
            let problem = match outcomes.get(job).and_then(Option::as_ref) {
                None => Some("never landed".to_string()),
                Some(CellOutcome::Landed { counts, .. }) => {
                    let total: u128 = counts.iter().sum();
                    match space_size(config.scope, config.eval_symmetry) {
                        Some(size) if size == total => None,
                        expected => Some(format!("counts total {total}, space {expected:?}")),
                    }
                }
                Some(CellOutcome::Uncounted { .. }) => Some("no whole-space counts".to_string()),
                Some(CellOutcome::Refused(kind)) if *kind == TOO_LARGE => {
                    v.refused += 1;
                    match &pin {
                        Some(_) if !pinned_refused => Some("refused, pinned as landed".to_string()),
                        _ => None,
                    }
                }
                Some(CellOutcome::Refused(kind)) => Some(format!("refused with {kind}")),
            };
            let problem = problem.or_else(|| {
                (rep > 0 && outcomes.get(job) != repetitions[0].get(job))
                    .then(|| "differs from the first repetition".to_string())
            });
            if let Some(problem) = problem {
                v.failed += 1;
                v.notes.push(format!(
                    "repetition {rep} cell {job} {}/{} scope {}: {problem}",
                    config.property.name(),
                    family,
                    config.scope
                ));
            }
        }
    }
    if let (Some(pin), Some(first)) = (&pin, repetitions.first()) {
        let got = digest(first, &pin.refused);
        if got == pin.digest {
            v.pinned = true;
        } else {
            // The digest cannot say which cell is wrong: the whole run's
            // output is.
            v.failed = v.attempted;
            v.notes.push(format!(
                "digest {got:016x} differs from the pinned {:016x}",
                pin.digest
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use relspec::instance::RelInstance;

    fn kept_by_enumeration(scope: usize) -> u128 {
        let bits = scope * scope;
        (0u64..1 << bits)
            .filter(|b| {
                let inst =
                    RelInstance::from_bits(scope, (0..bits).map(|k| b >> k & 1 == 1).collect());
                SymmetryBreaking::Transpositions.keeps(&inst)
            })
            .count() as u128
    }

    #[test]
    fn kept_counts_match_enumeration() {
        for (scope, &kept) in KEPT_TRANSPOSITIONS.iter().enumerate().take(5).skip(1) {
            assert_eq!(kept, kept_by_enumeration(scope), "scope {scope}");
        }
    }

    #[test]
    #[ignore = "enumerates 2^25 instances"]
    fn kept_count_at_scope_5_matches_enumeration() {
        assert_eq!(KEPT_TRANSPOSITIONS[5], kept_by_enumeration(5));
    }

    #[test]
    fn outcomes_round_trip_through_the_worker_protocol() {
        for outcome in [
            CellOutcome::Landed {
                counts: [1, 2, 3, u128::MAX],
                test: [0, 1, f64::to_bits(0.5), u64::MAX],
            },
            CellOutcome::Uncounted { test: [9, 8, 7, 6] },
            CellOutcome::Refused(TOO_LARGE),
        ] {
            let line = outcome.encode();
            let words: Vec<&str> = line.split(' ').collect();
            assert_eq!(CellOutcome::decode(&words), Some(outcome));
        }
        assert_eq!(CellOutcome::decode(&["err", "Bogus"]), None);
    }

    #[test]
    fn digest_skips_refused_jobs_and_sees_every_count() {
        let landed = |tp| {
            Some(CellOutcome::Landed {
                counts: [tp, 0, 0, 0],
                test: [0; 4],
            })
        };
        let a = vec![landed(1), Some(CellOutcome::Refused(TOO_LARGE)), landed(2)];
        let b = vec![landed(1), landed(5), landed(2)];
        assert_eq!(digest(&a, &[1]), digest(&b, &[1]));
        assert_ne!(digest(&a, &[]), digest(&b, &[]));
        assert_ne!(
            digest(&b, &[]),
            digest(&[landed(1), landed(5), landed(3)], &[])
        );
    }
}
