//! The `serve-mix` workload: `mcml-serve` over one seed's scope-4 artifact,
//! driven by a seeded closed-loop request script.
//!
//! Set-up builds the artifact through `Runner::build_artifact`, saves it,
//! starts the real `mcml-serve` binary and waits for `listening on`. The
//! load generator then replays the script over [`THREADS`] persistent
//! connections from this one process. It speaks the u32-BE length-prefixed
//! framing itself and writes every request frame with a single write, so
//! any per-frame wire delay it measures is the server's. Every reply is
//! checked: `accuracy` against the batch Runner's row, `count` against the
//! same count taken in-process from the compiled circuit, `diff` against
//! the identities `tt+tf = A.tp+A.fp`, `tt+ft = B.tp+B.fp` and the space
//! size, `reload` against the number of units. `err` replies (including
//! `err server busy`) and broken connections count as failed requests.

use crate::batch::run_batch;
use crate::check::{check_batch, CellOutcome};
use crate::stats::{median, quantile, ratio, Metrics};
use crate::trace::Tracer;
use crate::workload::{Batch, Size, Workload, THREADS};
use crate::{out_dir, repo_root, vm_hwm_kb, RunArgs, RunReport};
use mcml::accmc::SpaceCounts;
use mcml::artifact::{artifact_file_name, save_artifact};
use mcml::counter::{CompiledCounter, QueryCounter};
use mcml::framework::ModelFamily;
use relspec::properties::Property;
use relspec::translate::{translate_to_cnf, GroundTruth, TranslateOptions};
use satkit::cnf::Lit;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `accuracy`, `count` and `reload` requests per script replay at the
/// study size (a tenth of each at the smoke size), and the `diff DT X`
/// requests of every replay. X is GBDT or ABT, whose covers stay at tens of
/// cubes: against the thousands of cubes of an RFT, MLP or SVM cover one
/// diff costs up to seconds and hundreds of megabytes, so which two of
/// those happened to overlap in time would set the run's latency tail and
/// peak RSS.
const ACCURACIES: usize = 800;
const COUNTS: usize = 150;
const DIFFS: usize = 40;
const RELOADS: usize = 10;

/// Set-ups per untraced run; set-up time is their median.
const SETUP_REPEATS: usize = 3;

/// A splitmix64 stream: the script generator's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One scripted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `accuracy P S F`.
    Accuracy {
        property: Property,
        family: ModelFamily,
    },
    /// `count P S phi|nphi CUBE` with DIMACS literals.
    Count {
        property: Property,
        negated: bool,
        cube: Vec<i64>,
    },
    /// `diff P S DT F`.
    Diff {
        property: Property,
        other: ModelFamily,
    },
    /// `reload`.
    Reload,
}

impl Request {
    /// The verb, which names the request's latency series.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Accuracy { .. } => "accuracy",
            Request::Count { .. } => "count",
            Request::Diff { .. } => "diff",
            Request::Reload => "reload",
        }
    }

    /// The request text at `scope`.
    pub fn text(&self, scope: usize) -> String {
        match self {
            Request::Accuracy { property, family } => {
                format!("accuracy {} {scope} {family}", property.name())
            }
            Request::Count {
                property,
                negated,
                cube,
            } => {
                let lits: Vec<String> = cube.iter().map(i64::to_string).collect();
                format!(
                    "count {} {scope} {} {}",
                    property.name(),
                    if *negated { "nphi" } else { "phi" },
                    lits.join(" ")
                )
            }
            Request::Diff { property, other } => {
                format!("diff {} {scope} DT {other}", property.name())
            }
            Request::Reload => "reload".to_string(),
        }
    }
}

/// The seeded script: a fixed multiset of requests — accuracy spread evenly
/// over the units, counts and diffs over the properties — in seeded order,
/// with seeded cubes over `scope²` feature variables.
pub fn script(seed: u64, size: Size) -> Vec<Request> {
    let mut rng = Rng(seed ^ 0x5e7e_5e7e_5e7e_5e7e);
    let scale = match size {
        Size::Study => 1,
        Size::Smoke => 10,
    };
    let features = Batch::of(Workload::ServeMix, size, seed).configs[0]
        .scope
        .pow(2);
    let properties = Property::all();
    let families = ModelFamily::all();
    let mut script: Vec<Request> = (0..ACCURACIES / scale)
        .map(|i| Request::Accuracy {
            property: properties[i % properties.len()],
            family: families[(i / properties.len()) % families.len()],
        })
        .collect();
    for i in 0..COUNTS / scale {
        let width = 1 + rng.below(3);
        let mut cube: Vec<i64> = Vec::with_capacity(width);
        while cube.len() < width {
            let v = 1 + rng.below(features) as i64;
            if !cube.contains(&v) && !cube.contains(&-v) {
                cube.push(if rng.below(2) == 0 { v } else { -v });
            }
        }
        script.push(Request::Count {
            property: properties[i % properties.len()],
            negated: i / properties.len() % 2 == 1,
            cube,
        });
    }
    for i in 0..DIFFS / 2 {
        for other in [ModelFamily::Gbdt, ModelFamily::Abt] {
            script.push(Request::Diff {
                property: properties[i % properties.len()],
                other,
            });
        }
    }
    for i in (1..script.len()).rev() {
        script.swap(i, rng.below(i + 1));
    }
    // Reloads go at fixed, evenly spaced even positions, so they all ride
    // the first connection: two concurrent reloads would hold three store
    // generations at once, and whether that happens would depend on the
    // seed's order rather than on the server.
    let reloads = RELOADS / scale;
    let stride = (script.len() + reloads) / reloads;
    for k in 0..reloads {
        script.insert(k * stride + stride / 2 / THREADS * THREADS, Request::Reload);
    }
    script
}

/// The `mcml-serve` binary, built from the checkout's own workspace.
pub fn server_binary() -> io::Result<PathBuf> {
    let root = repo_root();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "mcml-serve",
            "--bin",
            "mcml-serve",
        ])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building mcml-serve failed: {status}"
        )));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    Ok(root.join(target).join("release").join("mcml-serve"))
}

/// A running server.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(binary: &Path, dir: &Path) -> io::Result<Server> {
        let mut child = Command::new(binary)
            .args(["serve", "--artifact-dir"])
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line)?;
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => Ok(Server {
                addr: addr.to_string(),
                child,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!("server said {line:?}")))
            }
        }
    }

    fn stop(mut self) -> io::Result<()> {
        let reply = Connection::open(&self.addr).and_then(|mut c| c.request("shutdown"))?;
        self.child.wait()?;
        match reply.as_str() {
            "ok bye" => Ok(()),
            other => Err(io::Error::other(format!("shutdown answered {other:?}"))),
        }
    }
}

/// A server left behind by an early error is killed, never orphaned.
impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection speaking the framing directly.
struct Connection(TcpStream);

impl Connection {
    fn open(addr: &str) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Connection(stream))
    }

    fn request(&mut self, text: &str) -> io::Result<String> {
        let len = u32::try_from(text.len()).map_err(io::Error::other)?;
        let mut frame = Vec::with_capacity(4 + text.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(text.as_bytes());
        self.0.write_all(&frame)?;
        let mut header = [0u8; 4];
        self.0.read_exact(&mut header)?;
        let len = u32::from_be_bytes(header) as usize;
        if len > 1 << 20 {
            return Err(io::Error::other(format!("reply frame of {len} bytes")));
        }
        let mut payload = vec![0u8; len];
        self.0.read_exact(&mut payload)?;
        String::from_utf8(payload).map_err(io::Error::other)
    }
}

/// Everything set-up produced.
struct Setup {
    server: Server,
    counter: CompiledCounter,
    build_s: f64,
    load_s: f64,
    bytes: u64,
    units: usize,
}

fn set_up(batch: &Batch, binary: &Path, dir: &Path) -> io::Result<Setup> {
    let start = Instant::now();
    let counter = batch
        .inner_backend()
        .as_compiled()
        .cloned()
        .expect("serve-mix builds on the compiled engine");
    let artifact = batch
        .runner()
        .build_artifact(&batch.configs, &counter)
        .map_err(io::Error::other)?;
    let path = dir.join(artifact_file_name("compiled"));
    save_artifact(&path, &artifact)?;
    let build_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let server = Server::start(binary, dir)?;
    Ok(Setup {
        server,
        counter,
        build_s,
        load_s: start.elapsed().as_secs_f64(),
        bytes: std::fs::metadata(&path)?.len(),
        units: artifact.covers.len(),
    })
}

/// One answered (or failed) request.
struct Sample {
    index: usize,
    verb: &'static str,
    start: Instant,
    end: Instant,
    reply: io::Result<String>,
}

/// One replay of the script over [`THREADS`] closed-loop connections.
fn replay(addr: &str, script: &[Request], scope: usize) -> (f64, Vec<Sample>) {
    let start = Instant::now();
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|lane| {
                s.spawn(move || {
                    let mut conn = Connection::open(addr);
                    let mut samples = Vec::new();
                    for (index, request) in script.iter().enumerate().skip(lane).step_by(THREADS) {
                        let text = request.text(scope);
                        let begin = Instant::now();
                        let reply = match &mut conn {
                            Ok(c) => c.request(&text),
                            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
                        };
                        samples.push(Sample {
                            index,
                            verb: request.verb(),
                            start: begin,
                            end: Instant::now(),
                            reply,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread panicked"))
            .collect::<Vec<_>>()
    });
    (start.elapsed().as_secs_f64(), samples)
}

/// What a reply must say, from the batch rows and the in-process circuits.
struct Oracle<'a> {
    rows: HashMap<(Property, ModelFamily), [u128; 4]>,
    truths: HashMap<Property, GroundTruth>,
    counter: &'a CompiledCounter,
    space: u128,
    units: usize,
}

impl Oracle<'_> {
    fn check(&self, request: &Request, reply: &str) -> Result<(), String> {
        let fields: Vec<&str> = match reply.strip_prefix("ok ") {
            Some(rest) => rest.split(' ').collect(),
            None => return Err(format!("server replied {reply:?}")),
        };
        let num = |i: usize| -> Result<u128, String> {
            fields
                .get(i)
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| format!("malformed reply {reply:?}"))
        };
        let row = |p: &Property, f: &ModelFamily| {
            self.rows
                .get(&(*p, *f))
                .copied()
                .ok_or_else(|| format!("no batch row for {}/{f}", p.name()))
        };
        match request {
            Request::Accuracy { property, family } => {
                let want = row(property, family)?;
                let got = [num(0)?, num(1)?, num(2)?, num(3)?];
                let metrics = SpaceCounts {
                    tp: want[0],
                    fp: want[1],
                    tn: want[2],
                    fn_: want[3],
                }
                .metrics();
                let want_text = [
                    metrics.accuracy,
                    metrics.precision,
                    metrics.recall,
                    metrics.f1,
                ]
                .map(|x| x.to_string())
                .join(" ");
                if got != want || fields.get(4..8).map(|f| f.join(" ")) != Some(want_text) {
                    return Err(format!("accuracy {reply:?} but the batch row is {want:?}"));
                }
            }
            Request::Count {
                property,
                negated,
                cube,
            } => {
                let truth = &self.truths[property];
                let cnf = if *negated {
                    truth.cnf_negative_ref()
                } else {
                    truth.cnf_positive_ref()
                };
                let lits: Vec<Lit> = cube.iter().map(|&d| Lit::from_dimacs(d)).collect();
                let want = self.counter.count_conditioned(cnf, &lits).value();
                if Some(num(0)?) != want {
                    return Err(format!("count {reply:?} but the circuit says {want:?}"));
                }
            }
            Request::Diff { property, other } => {
                let a = row(property, &ModelFamily::Dt)?;
                let b = row(property, other)?;
                let [tt, tf, ft, ff] = [num(0)?, num(1)?, num(2)?, num(3)?];
                if tt + tf != a[0] + a[1]
                    || tt + ft != b[0] + b[1]
                    || tt + tf + ft + ff != self.space
                {
                    return Err(format!(
                        "diff {reply:?} breaks the identities for rows {a:?} / {b:?}"
                    ));
                }
            }
            Request::Reload => {
                if fields.last().and_then(|w| w.parse::<usize>().ok()) != Some(self.units) {
                    return Err(format!(
                        "reload {reply:?} but the artifact has {} units",
                        self.units
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Checks every sample, returning the number that failed.
fn check_samples(
    oracle: &Oracle,
    script: &[Request],
    samples: &[Sample],
    notes: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for s in samples {
        let verdict = match &s.reply {
            Ok(reply) => oracle.check(&script[s.index], reply),
            Err(e) => Err(format!("connection error: {e}")),
        };
        if let Err(problem) = verdict {
            failed += 1;
            if notes.len() < 20 {
                notes.push(format!("request {} ({}): {problem}", s.index, s.verb));
            }
        }
    }
    failed
}

fn latencies_ms(samples: &[Sample], verb: Option<&str>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| verb.is_none_or(|v| v == s.verb))
        .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
        .collect()
}

/// Parses `p50_ns` / `p99_ns` / `queries` out of a `stats` reply.
fn stats_field(reply: &str, key: &str) -> Option<f64> {
    let words: Vec<&str> = reply.split(' ').collect();
    words
        .iter()
        .position(|w| *w == key)
        .and_then(|i| words.get(i + 1))
        .and_then(|w| w.parse().ok())
}

/// The batch rows the `accuracy` replies must reproduce, checked against
/// their own pin.
fn oracle<'a>(
    args: &RunArgs,
    batch: &Batch,
    counter: &'a CompiledCounter,
    units: usize,
    notes: &mut Vec<String>,
) -> (Oracle<'a>, bool) {
    let run = run_batch(batch);
    let verdict = check_batch(
        Workload::ServeMix,
        args.size,
        batch.configs[0].seed,
        batch,
        std::slice::from_ref(&run.outcomes),
    );
    notes.extend(verdict.notes.iter().cloned());
    let mut rows = HashMap::new();
    for ((config, family), outcome) in batch.jobs().into_iter().zip(&run.outcomes) {
        if let Some(CellOutcome::Landed { counts, .. }) = outcome {
            rows.insert((config.property, family), *counts);
        }
    }
    let scope = batch.configs[0].scope;
    let truths = Property::all()
        .into_iter()
        .map(|p| (p, translate_to_cnf(&p.spec(), TranslateOptions::new(scope))))
        .collect();
    let oracle = Oracle {
        rows,
        truths,
        counter,
        space: 1u128 << (scope * scope),
        units,
    };
    (oracle, verdict.failed == 0)
}

/// The artifact store of a run; removed when the run ends, since every
/// seed's store is tens of megabytes.
fn artifact_dir(args: &RunArgs) -> PathBuf {
    out_dir().join(format!("serve-{}", args.size.name()))
}

/// Closes the server after reading its statistics and peak RSS.
fn finish(server: Server) -> io::Result<(String, u64)> {
    let stats = Connection::open(&server.addr)?.request("stats")?;
    let rss_kb = vm_hwm_kb(&server.child.id().to_string()).unwrap_or(0);
    server.stop()?;
    Ok((stats, rss_kb))
}

/// The untraced run.
pub fn run_untraced(args: &RunArgs) -> io::Result<RunReport> {
    let batch = Batch::of(Workload::ServeMix, args.size, args.seed);
    let scope = batch.configs[0].scope;
    let binary = server_binary()?;
    let dir = artifact_dir(args);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = setup.take() {
            previous.server.stop()?;
        }
        let fresh = set_up(&batch, &binary, &dir)?;
        setups.push(fresh.build_s + fresh.load_s);
        setup = Some(fresh);
    }
    let setup = setup.expect("at least one set-up");
    let script = script(args.seed, args.size);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut samples = Vec::new();
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (wall, mut replayed) = replay(&setup.server.addr, &script, scope);
        walls.push(wall);
        samples.append(&mut replayed);
    }
    let (stats, rss_kb) = finish(setup.server)?;
    std::fs::remove_dir_all(&dir)?;

    let mut notes = Vec::new();
    let (oracle, batch_ok) = oracle(args, &batch, &setup.counter, setup.units, &mut notes);
    let failed = check_samples(&oracle, &script, &samples, &mut notes);
    let all = latencies_ms(&samples, None);
    let mut m = Metrics::default();
    m.put("wall_s", median(&walls), "s");
    m.put("peak_rss_mb", rss_kb as f64 / 1024.0, "MB");
    m.put("setup_s", median(&setups), "s");
    m.put("req_p50_ms", quantile(&all, 0.5), "ms");
    m.put("req_p99_ms", quantile(&all, 0.99), "ms");
    m.put(
        "req_per_s",
        ratio(all.len() as f64, walls.iter().sum()),
        "1/s",
    );
    notes.push(format!(
        "{} replay(s), {} requests, failed {failed}/{} = {:.4}; server {stats:.60}",
        walls.len(),
        all.len(),
        all.len(),
        ratio(failed as f64, all.len() as f64)
    ));
    Ok(RunReport {
        notes,
        correct: failed == 0 && batch_ok && rss_kb > 0,
        attempted: all.len() as u64,
        failed,
        metrics: m,
    })
}

/// The traced run: one set-up, one untraced replay, one replay with a span
/// per request, then the per-verb and server-side latency split.
pub fn run_traced(args: &RunArgs) -> io::Result<RunReport> {
    let batch = Batch::of(Workload::ServeMix, args.size, args.seed);
    let scope = batch.configs[0].scope;
    let binary = server_binary()?;
    let mut tracer = Tracer::new(true);
    let setup_start = Instant::now();
    let dir = artifact_dir(args);
    let setup = set_up(&batch, &binary, &dir)?;
    let built = setup_start + Duration::from_secs_f64(setup.build_s);
    tracer.record("artifact.build", "setup".into(), setup_start, built);
    tracer.record(
        "store.load",
        "setup".into(),
        built,
        built + Duration::from_secs_f64(setup.load_s),
    );
    let script = script(args.seed, args.size);
    let (plain_wall, plain) = replay(&setup.server.addr, &script, scope);
    let (traced_wall, traced) = replay(&setup.server.addr, &script, scope);
    for s in &traced {
        let name = match s.verb {
            "accuracy" => "serve.accuracy",
            "count" => "serve.count",
            "diff" => "serve.diff",
            _ => "serve.reload",
        };
        tracer.record(name, format!("request {}", s.index), s.start, s.end);
    }
    let (stats, _) = finish(setup.server)?;
    std::fs::remove_dir_all(&dir)?;
    let path = out_dir().join(format!(
        "trace-serve-mix-{}-{}.jsonl",
        args.size.name(),
        args.seed
    ));
    tracer.write_jsonl(&path)?;

    let mut notes = Vec::new();
    let (oracle, batch_ok) = oracle(args, &batch, &setup.counter, setup.units, &mut notes);
    let failed = check_samples(&oracle, &script, &plain, &mut notes)
        + check_samples(&oracle, &script, &traced, &mut notes);
    let server_p50 = stats_field(&stats, "p50_ns").unwrap_or(0.0) / 1e6;
    let all = latencies_ms(&traced, None);
    let mut m = Metrics::default();
    m.put("serve.requests", all.len() as f64, "count");
    m.put(
        "serve.queries",
        stats_field(&stats, "queries").unwrap_or(0.0),
        "count",
    );
    m.put("serve.server_p50_ms", server_p50, "ms");
    m.put(
        "serve.server_p99_ms",
        stats_field(&stats, "p99_ns").unwrap_or(0.0) / 1e6,
        "ms",
    );
    m.put("serve.wire_p50_ms", quantile(&all, 0.5) - server_p50, "ms");
    for (verb, p50, p99) in [
        ("accuracy", "serve.accuracy_p50_ms", "serve.accuracy_p99_ms"),
        ("count", "serve.count_p50_ms", "serve.count_p99_ms"),
        ("diff", "serve.diff_p50_ms", "serve.diff_p99_ms"),
        ("reload", "serve.reload_p50_ms", "serve.reload_p99_ms"),
    ] {
        let xs = latencies_ms(&traced, Some(verb));
        m.put(p50, quantile(&xs, 0.5), "ms");
        m.put(p99, quantile(&xs, 0.99), "ms");
    }
    m.put("artifact.bytes", setup.bytes as f64, "B");
    m.put("artifact.build_s", setup.build_s, "s");
    m.put("store.load_s", setup.load_s, "s");
    m.put("trace.spans", tracer.spans().len() as f64, "count");
    m.put(
        "trace.overhead",
        ratio(traced_wall, plain_wall) - 1.0,
        "ratio",
    );
    m.put("trace.untraced_wall_s", plain_wall, "s");
    m.put("trace.traced_wall_s", traced_wall, "s");
    notes.push(format!(
        "trace: {} spans written to {}; replay {:.3} s untraced, {:.3} s traced; failed {failed}/{}",
        tracer.spans().len(),
        path.display(),
        plain_wall,
        traced_wall,
        plain.len() + traced.len()
    ));
    Ok(RunReport {
        notes,
        correct: failed == 0 && batch_ok,
        attempted: (plain.len() + traced.len()) as u64,
        failed,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_has_the_fixed_mix_and_is_seeded() {
        let a = script(3, Size::Study);
        let count = |verb: &str| a.iter().filter(|r| r.verb() == verb).count();
        assert_eq!(a.len(), 1000);
        assert_eq!(count("accuracy"), ACCURACIES);
        assert_eq!(count("count"), COUNTS);
        assert_eq!(count("diff"), DIFFS);
        assert_eq!(count("reload"), RELOADS);
        assert_eq!(a, script(3, Size::Study));
        for (i, r) in a.iter().enumerate() {
            assert!(r.verb() != "reload" || i % THREADS == 0, "reload at {i}");
        }
        assert_ne!(a, script(4, Size::Study));
        let mut sorted_a: Vec<String> = a
            .iter()
            .filter(|r| r.verb() != "count")
            .map(|r| r.text(4))
            .collect();
        let mut sorted_b: Vec<String> = script(4, Size::Study)
            .iter()
            .filter(|r| r.verb() != "count")
            .map(|r| r.text(4))
            .collect();
        sorted_a.sort();
        sorted_b.sort();
        assert_eq!(
            sorted_a, sorted_b,
            "only order and cubes depend on the seed"
        );
        for r in &a {
            if let Request::Count { cube, .. } = r {
                let mut vars: Vec<i64> = cube.iter().map(|l| l.abs()).collect();
                vars.sort_unstable();
                vars.dedup();
                assert_eq!(vars.len(), cube.len());
                assert!(vars.iter().all(|&v| (1..=16).contains(&v)));
            }
        }
        assert_eq!(script(3, Size::Smoke).len(), 80 + 15 + 40 + 1);
    }

    #[test]
    fn stats_fields_parse() {
        let reply =
            "ok queries 4 degraded 0 units 3 p50_ns 32768 p99_ns 268435456 Function 4 DT 2 16:1";
        assert_eq!(stats_field(reply, "queries"), Some(4.0));
        assert_eq!(stats_field(reply, "p50_ns"), Some(32768.0));
        assert_eq!(stats_field(reply, "p99_ns"), Some(268435456.0));
        assert_eq!(stats_field(reply, "missing"), None);
    }
}
