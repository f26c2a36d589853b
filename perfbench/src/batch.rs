//! The three batch workloads: a fresh worker process runs the Runner
//! batch (so its peak RSS is the batch's own), the parent checks the rows,
//! and a traced run replays the cells through the replica.

use crate::check::{check_batch, CellOutcome, Verdict};
use crate::replica;
use crate::stats::{median, quantile, ratio, Metrics};
use crate::trace::Tracer;
use crate::workload::{Batch, Size, Workload};
use crate::{out_dir, vm_hwm_kb, RunArgs, RunReport};
use mcml::backend::CounterBackend;
use mcml::counter::CachedCounter;
use mcml::framework::{CellError, RunnerRow, SinkDecision};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Worker processes started per untraced run; set-up time is their median.
const SETUP_REPEATS: usize = 11;

/// One Runner batch as the table binaries run it.
pub struct BatchRun {
    /// Outcomes in job order.
    pub outcomes: Vec<Option<CellOutcome>>,
    /// Seconds from the start of the batch until each cell's row reached
    /// the row sink — when a streamed table prints it.
    pub landed_s: Vec<f64>,
    /// Length of the `run_stream` call.
    pub wall_s: f64,
    /// The backend the batch counted through, for its public statistics.
    pub backend: CachedCounter<CounterBackend>,
}

/// Runs `batch` once through `Runner::run_stream` with a fresh backend.
pub fn run_batch(batch: &Batch) -> BatchRun {
    let jobs = batch.jobs();
    let index: HashMap<_, usize> = jobs.iter().enumerate().map(|(i, j)| (*j, i)).collect();
    let backend = batch.backend();
    let mut outcomes = vec![None; jobs.len()];
    let mut landed_s = vec![0.0; jobs.len()];
    let start = Instant::now();
    batch
        .runner()
        .run_stream(
            &batch.configs,
            &backend,
            |cell: Result<&RunnerRow, &CellError>| {
                let at = start.elapsed().as_secs_f64();
                let (job, outcome) = match cell {
                    Ok(row) => (index[&(row.config, row.family)], CellOutcome::of_row(row)),
                    Err(e) => (
                        index[&(e.config, e.family)],
                        CellOutcome::Refused(crate::check::error_kind(&e.error)),
                    ),
                };
                outcomes[job] = Some(outcome);
                landed_s[job] = at;
                SinkDecision::Continue
            },
        )
        .expect("every workload trains at least one family");
    let wall_s = start.elapsed().as_secs_f64();
    BatchRun {
        outcomes,
        landed_s,
        wall_s,
        backend,
    }
}

/// The worker process: prints `ready` once its inputs are built, waits
/// for a line on stdin, then repeats the batch until `seconds` have passed
/// (at most `reps` times) and reports every cell, every batch length, the
/// backend's public statistics and its own peak RSS.
pub fn worker(args: &RunArgs, setup_only: bool, reps: usize) -> std::io::Result<()> {
    let batch = Batch::of(args.workload, args.size, args.seed);
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()?;
    if setup_only {
        return Ok(());
    }
    let mut go = String::new();
    std::io::stdin().read_line(&mut go)?;
    let start = Instant::now();
    for rep in 0..reps.max(1) {
        let run = run_batch(&batch);
        for (job, outcome) in run.outcomes.iter().enumerate() {
            let encoded = outcome
                .as_ref()
                .map_or("missing".to_string(), CellOutcome::encode);
            writeln!(out, "cell {rep} {job} {:?} {encoded}", run.landed_s[job])?;
        }
        writeln!(out, "rep {rep} {:?}", run.wall_s)?;
        let memo = run.backend.stats();
        // Compilations include the duplicates of two workers racing to
        // compile the same formula.
        let compiles = run
            .backend
            .inner()
            .as_compiled()
            .map_or(0, |c| c.stats().misses);
        writeln!(
            out,
            "counter {} {} {} {compiles}",
            memo.hits,
            memo.misses,
            run.backend.len()
        )?;
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    writeln!(out, "rss_kb {}", vm_hwm_kb("self").unwrap_or(0))?;
    out.flush()
}

/// What a worker reported.
#[derive(Debug, Default)]
struct WorkerReport {
    reps: Vec<Vec<Option<CellOutcome>>>,
    landed_s: Vec<f64>,
    walls: Vec<f64>,
    memo_hits: u64,
    memo_misses: u64,
    memo_entries: u64,
    compiles: u64,
    rss_kb: u64,
}

/// A worker process, killed rather than orphaned if the run ends early.
struct Worker(Child);

impl Drop for Worker {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

fn spawn_worker(
    args: &RunArgs,
    extra: &[&str],
) -> std::io::Result<(Worker, BufReader<ChildStdout>)> {
    let mut child = Command::new(std::env::current_exe()?)
        .args([
            "worker",
            "--workload",
            args.workload.name(),
            "--size",
            args.size.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    Ok((Worker(child), stdout))
}

fn protocol_error(what: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

/// Starts a worker, waits for `ready` and returns the set-up time.
fn start_worker(
    args: &RunArgs,
    extra: &[&str],
) -> std::io::Result<(f64, Worker, BufReader<ChildStdout>)> {
    let start = Instant::now();
    let (child, mut stdout) = spawn_worker(args, extra)?;
    let mut line = String::new();
    stdout.read_line(&mut line)?;
    if line.trim() != "ready" {
        return Err(protocol_error(format!(
            "worker said {line:?} instead of ready"
        )));
    }
    Ok((start.elapsed().as_secs_f64(), child, stdout))
}

/// Runs the measured worker to completion and parses its report.
fn finish_worker(
    jobs: usize,
    mut worker: Worker,
    stdout: BufReader<ChildStdout>,
) -> std::io::Result<WorkerReport> {
    worker
        .0
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(b"go\n")?;
    let mut report = WorkerReport::default();
    for line in stdout.lines() {
        let line = line?;
        let words: Vec<&str> = line.split(' ').collect();
        let bad = || protocol_error(format!("unexpected worker line {line:?}"));
        let num = |i: usize| -> std::io::Result<u64> {
            words.get(i).and_then(|w| w.parse().ok()).ok_or_else(bad)
        };
        let real = |i: usize| -> std::io::Result<f64> {
            words.get(i).and_then(|w| w.parse().ok()).ok_or_else(bad)
        };
        match words[0] {
            "cell" => {
                let rep = num(1)? as usize;
                let job = num(2)? as usize;
                if rep == report.reps.len() {
                    report.reps.push(vec![None; jobs]);
                }
                let slot = report
                    .reps
                    .get_mut(rep)
                    .and_then(|r| r.get_mut(job))
                    .ok_or_else(bad)?;
                *slot = words.get(4..).and_then(CellOutcome::decode);
                report.landed_s.push(real(3)?);
            }
            "rep" => report.walls.push(real(2)?),
            "counter" => {
                report.memo_hits = num(1)?;
                report.memo_misses = num(2)?;
                report.memo_entries = num(3)?;
                report.compiles = num(4)?;
            }
            "rss_kb" => report.rss_kb = num(1)?,
            _ => return Err(bad()),
        }
    }
    let status = worker.0.wait()?;
    if !status.success() || report.walls.is_empty() || report.rss_kb == 0 {
        return Err(protocol_error(format!(
            "worker ended with {status} after {} batches",
            report.walls.len()
        )));
    }
    Ok(report)
}

/// The untraced run: set-up samples, the repeated batch, the checks and
/// the end-to-end metrics.
pub fn run_untraced(args: &RunArgs) -> std::io::Result<RunReport> {
    let batch = Batch::of(args.workload, args.size, args.seed);
    let jobs = batch.jobs().len();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let (setup, mut worker, _) = start_worker(args, &["--setup-only"])?;
        worker.0.wait()?;
        setups.push(setup);
    }
    let (setup, worker, stdout) = start_worker(args, &[])?;
    setups.push(setup);
    let report = finish_worker(jobs, worker, stdout)?;
    let verdict = check_batch(args.workload, args.size, args.seed, &batch, &report.reps);

    let mut m = Metrics::default();
    let batch_s: f64 = report.walls.iter().sum();
    m.put("wall_s", median(&report.walls), "s");
    m.put("peak_rss_mb", report.rss_kb as f64 / 1024.0, "MB");
    m.put("setup_s", median(&setups), "s");
    let landed_ms: Vec<f64> = report.landed_s.iter().map(|s| s * 1e3).collect();
    m.put("req_p50_ms", quantile(&landed_ms, 0.5), "ms");
    m.put("req_p99_ms", quantile(&landed_ms, 0.99), "ms");
    m.put("req_per_s", ratio(landed_ms.len() as f64, batch_s), "1/s");
    Ok(RunReport {
        notes: summary(&verdict, report.walls.len(), landed_ms.len()),
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: m,
    })
}

fn summary(v: &Verdict, reps: usize, cells: usize) -> Vec<String> {
    let mut notes = v.notes.clone();
    notes.push(format!(
        "{reps} batch(es), {cells} cells; refused (VoteCircuitTooLarge) {}; failed {}/{} = {:.4}; digest {}",
        v.refused,
        v.failed,
        v.attempted,
        ratio(v.failed as f64, v.attempted as f64),
        if v.pinned { "matches its pin" } else { "unpinned for this seed" }
    ));
    notes
}

/// The traced run: one untraced batch in a fresh worker, then the replica —
/// shared phase traced, cell phase once untraced and once traced — whose
/// rows must equal the worker's.
pub fn run_traced(args: &RunArgs) -> std::io::Result<RunReport> {
    let batch = Batch::of(args.workload, args.size, args.seed);
    let (_, worker, stdout) = start_worker(args, &["--reps", "1"])?;
    let report = finish_worker(batch.jobs().len(), worker, stdout)?;
    let mut verdict = check_batch(args.workload, args.size, args.seed, &batch, &report.reps);
    let untraced_wall = report.walls[0];

    let inner = batch.inner_backend();
    let mut tracer = Tracer::new(true);
    let shared = replica::shared_phase(&batch, &inner, &mut tracer);
    let plain = replica::cell_phase(&batch, &shared, &inner, &mut Tracer::new(false));
    let traced = replica::cell_phase(&batch, &shared, &inner, &mut tracer);
    for (job, want) in report.reps[0].iter().enumerate() {
        let (plain_cell, traced_cell) = (&plain.outcomes[job], &traced.outcomes[job]);
        if plain_cell != want || traced_cell != want {
            verdict.failed += 1;
            verdict.notes.push(format!(
                "replica cell {job}: {plain_cell:?} untraced, {traced_cell:?} traced, but the Runner gave {want:?}"
            ));
        }
    }
    let path = out_dir().join(format!(
        "trace-{}-{}-{}.jsonl",
        args.workload.name(),
        args.size.name(),
        args.seed
    ));
    tracer.write_jsonl(&path)?;

    let compiled = inner.as_compiled();
    let compile = compiled.map(|c| c.compile_stats()).unwrap_or_default();
    let too_large = traced
        .outcomes
        .iter()
        .filter(|o| matches!(o, Some(CellOutcome::Refused(crate::check::TOO_LARGE))))
        .count();
    let uncounted = traced
        .outcomes
        .iter()
        .filter(|o| matches!(o, Some(CellOutcome::Uncounted { .. })))
        .count();
    let busy: f64 = tracer.layer_self_times().values().sum();

    let mut m = Metrics::default();
    m.put("ddnnf.busy_s", tracer.busy("ddnnf"), "s");
    m.put("ddnnf.decisions", compile.decisions as f64, "count");
    m.put(
        "ddnnf.circuits",
        compiled.map_or(0, |c| c.len()) as f64,
        "count",
    );
    m.put("ddnnf.runner_compiles", report.compiles as f64, "count");
    m.put(
        "ddnnf.component_hit_ratio",
        ratio(compile.cache_hits as f64, compile.cache_lookups as f64),
        "ratio",
    );
    m.put(
        "ddnnf.shared_hit_ratio",
        ratio(compile.shared_hits as f64, compile.shared_lookups as f64),
        "ratio",
    );
    m.put("encode.busy_s", tracer.busy("encode"), "s");
    m.put("encode.cubes", traced.cubes as f64, "count");
    m.put("encode.too_large", too_large as f64, "count");
    m.put("counter.sweep_s", tracer.busy("counter"), "s");
    m.put(
        "counter.memo_hit_ratio",
        ratio(
            traced.memo.hits as f64,
            (traced.memo.hits + traced.memo.misses) as f64,
        ),
        "ratio",
    );
    m.put("counter.memo_entries", traced.memo_entries as f64, "count");
    m.put("datagen.busy_s", tracer.busy("datagen"), "s");
    m.put("relspec.busy_s", tracer.busy("relspec"), "s");
    m.put("relspec.clauses", shared.clauses as f64, "count");
    m.put("mlkit.busy_s", tracer.busy("mlkit"), "s");
    m.put("classic.encode_s", tracer.busy("classic"), "s");
    m.put("modelcount.busy_s", tracer.busy("modelcount"), "s");
    m.put("modelcount.counts", traced.transient_counts as f64, "count");
    m.put("framework.cells", traced.outcomes.len() as f64, "count");
    m.put("framework.uncounted", uncounted as f64, "count");
    m.put(
        "framework.parallel_eff",
        ratio(busy, batch.threads as f64 * untraced_wall),
        "ratio",
    );
    m.put("trace.spans", tracer.spans().len() as f64, "count");
    m.put(
        "trace.overhead",
        ratio(traced.wall_s, plain.wall_s) - 1.0,
        "ratio",
    );
    m.put("trace.untraced_wall_s", plain.wall_s, "s");
    m.put("trace.traced_wall_s", traced.wall_s, "s");
    let mut notes = summary(&verdict, 1, batch.jobs().len());
    notes.push(format!(
        "trace: {} spans written to {}; untraced Runner batch {:.3} s; replica cell phase {:.3} s untraced, {:.3} s traced",
        tracer.spans().len(),
        path.display(),
        untraced_wall,
        plain.wall_s,
        traced.wall_s
    ));
    notes.push(format!(
        "Runner memo (untraced worker): {} hits / {} misses, {} entries",
        report.memo_hits, report.memo_misses, report.memo_entries
    ));
    Ok(RunReport {
        notes,
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: m,
    })
}

/// The pin line of `(workload, size, seed)`: one Runner batch, digested.
pub fn pin(workload: Workload, size: Size, seed: u64) -> String {
    let run = run_batch(&Batch::of(workload, size, seed));
    crate::check::pin_line(workload, size, seed, &run.outcomes)
}
