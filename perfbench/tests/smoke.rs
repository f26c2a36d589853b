//! The scope-3 smoke size of every workload, untraced and traced, through
//! the benchmark's own command line: every output check must pass, the
//! result line must be the last stdout line, and it must carry exactly the
//! metrics `BENCHMARK.json` declares for the mode.

use perfbench::{END_TO_END, PER_LAYER};
use std::process::Command;

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--size", "smoke", "--seed", "1"])
        .args(["--seconds", "0.2", "--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for (trace, declared) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let line = run(workload, trace);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": ")
                && line.contains("\"failed\": 0,"),
            "{workload} --trace {trace}: {line}"
        );
        for (name, unit) in declared {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": "))
                    && line.contains(&format!("\"unit\": \"{unit}\"")),
                "{workload} --trace {trace} lacks {name}: {line}"
            );
        }
        assert_eq!(line.matches("\"value\"").count(), declared.len(), "{line}");
    }
}

#[test]
fn study_sb_smoke() {
    check("study-sb");
}

#[test]
fn scope4_seeds_smoke() {
    check("scope4-seeds");
}

#[test]
fn classic_dt_smoke() {
    check("classic-dt");
}

#[test]
fn serve_mix_smoke() {
    check("serve-mix");
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &["--workload", "nope", "--trace", "0"][..],
        &["--workload", "study-sb", "--trace", "2"],
        &["--workload", "study-sb", "--seconds", "-1", "--trace", "0"],
        &["--workload", "study-sb"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
