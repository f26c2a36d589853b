//! `perfbench`: see the crate documentation and `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--size study|smoke]
//! perfbench pin --workload W --size study|smoke --seeds A-B
//! perfbench worker ...   (started by the benchmark itself)
//! ```

use perfbench::workload::{Size, Workload};
use perfbench::{batch, stats, RunArgs};
use std::process::ExitCode;

const USAGE: &str = "usage:
  perfbench --workload W --seed N --seconds S --trace 0|1 [--size study|smoke]
  perfbench pin --workload W --size study|smoke --seeds A-B
workloads: study-sb scope4-seeds classic-dt serve-mix";

/// Parsed flags shared by every subcommand.
struct Flags {
    args: RunArgs,
    trace: Option<bool>,
    seeds: Option<(u64, u64)>,
    setup_only: bool,
    reps: usize,
}

fn parse(words: &[String]) -> Result<Flags, String> {
    let mut workload = None;
    let mut size = Size::Study;
    let mut seed = 0;
    let mut seconds = 1.0;
    let mut trace = None;
    let mut seeds = None;
    let mut setup_only = false;
    let mut reps = usize::MAX;
    let mut iter = words.iter();
    while let Some(flag) = iter.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = |what: &str| -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{what} must be a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--size" => {
                size = Size::parse(value).ok_or_else(|| format!("unknown size {value:?}"))?
            }
            "--seed" => seed = number("--seed")?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds must be a number, not {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = s;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                })
            }
            "--seeds" => {
                let (a, b) = value
                    .split_once('-')
                    .ok_or_else(|| "--seeds takes a range A-B".to_string())?;
                let parse = |s: &str| s.parse::<u64>().map_err(|_| format!("bad seed {s:?}"));
                seeds = Some((parse(a)?, parse(b)?));
            }
            "--reps" => reps = number("--reps")? as usize,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Flags {
        args: RunArgs {
            workload: workload.ok_or("--workload is required")?,
            size,
            seed,
            seconds,
        },
        trace,
        seeds,
        setup_only,
        reps,
    })
}

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match words.first().map(String::as_str) {
        Some(c @ ("worker" | "pin")) => (c, &words[1..]),
        _ => ("run", &words[..]),
    };
    let flags = match parse(rest) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        "worker" => batch::worker(&flags.args, flags.setup_only, flags.reps),
        "pin" => {
            let (a, b) = flags.seeds.unwrap_or((flags.args.seed, flags.args.seed));
            for seed in a..=b {
                println!("{}", batch::pin(flags.args.workload, flags.args.size, seed));
            }
            Ok(())
        }
        _ => match flags.trace {
            None => {
                eprintln!("error: --trace is required\n{USAGE}");
                return ExitCode::from(2);
            }
            Some(traced) => perfbench::run(&flags.args, traced).map(|report| {
                for note in &report.notes {
                    println!("# {note}");
                }
                for m in &report.metrics.0 {
                    println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
                }
                println!(
                    "{}",
                    stats::result_line(
                        report.correct,
                        report.attempted,
                        report.failed,
                        &report.metrics
                    )
                );
            }),
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
