//! The benchmark's own smoke test, at tiny sizes: every metric named in
//! `BENCHMARK.json` prints with its unit, a deliberately corrupted reference
//! makes the command fail, and ambient `NASFLAT_*` knobs are refused.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

const WORKLOADS: &[&str] = &["fewshot_n1", "serve_mixed"];

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nasflat-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.4"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .args(extra)
        .env_remove("NASFLAT_THREADS")
        .output()
        .expect("run the benchmark")
}

/// (name, unit) pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start
        ..text[start..]
            .find(']')
            .map(|e| start + e)
            .expect("list end")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
                let rest = &entry[at..];
                let open = rest.find('"').expect("value") + 1;
                let close = open + rest[open..].find('"').expect("value end");
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_metrics(out: &Output, section: &str, printed_as: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(out.status.success(), "exit {:?}\n{stdout}", out.status);
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let line_ok = stdout.lines().any(|l| {
            l.contains(&format!(" {printed_as} {name} = ")) && l.ends_with(&format!(" {unit}"))
        });
        assert!(line_ok, "{name} not printed with unit {unit}:\n{stdout}");
        let json = format!("\"{name}\": {{\"value\": ");
        assert!(
            last.contains(&json),
            "{name} missing from the result line: {last}"
        );
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
}

#[test]
fn every_end_to_end_metric_prints_with_its_unit() {
    for w in WORKLOADS {
        check_metrics(&run(w, false, &[]), "end_to_end", "end_to_end");
    }
}

#[test]
fn every_per_layer_metric_prints_in_the_traced_run() {
    for w in WORKLOADS {
        check_metrics(&run(w, true, &[]), "per_layer", "per_layer");
    }
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    for w in WORKLOADS {
        let out = run(w, false, &["--corrupt-reference"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !out.status.success(),
            "{w} passed with a corrupted reference"
        );
        assert!(stdout.contains("FAILED"), "{stdout}");
        assert!(stdout
            .lines()
            .last()
            .unwrap_or("")
            .contains("\"correct\": false"));
    }
}

#[test]
fn ambient_knobs_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_nasflat-perfbench"))
        .args([
            "--workload",
            "fewshot_n1",
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("NASFLAT_THREADS", "2")
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
}
