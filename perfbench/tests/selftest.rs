//! Benchmark self-test: a tiny-budget pass of every workload through the
//! real binary, untraced and traced, checking that every metric
//! `BENCHMARK.json` declares is printed with its unit and that nothing
//! fails; then the same pass with one result corrupted on purpose, which
//! must be counted as a failure.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

/// Runs the benchmark binary and returns its parsed last line, with the
/// provenance line's failure list added as `failures`.
fn run(workload: &str, trace: bool, corrupt: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seconds", "0", "--budget", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--corrupt", if corrupt { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let result = serde_json::parse_str(lines.next().expect("a result line"))
        .expect("the result line is JSON");
    let provenance = serde_json::parse_str(lines.next().expect("a provenance line"))
        .expect("the provenance line is JSON");
    let failures = provenance
        .get("provenance")
        .and_then(|p| p.get("failures"))
        .cloned()
        .unwrap_or(Value::Null);
    match result {
        Value::Object(mut fields) => {
            fields.push(("failures".into(), failures));
            Value::Object(fields)
        }
        other => other,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = serde_json::parse_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON");
    spec.get(key)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_workload(workload: &str) {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace, false);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload} trace={trace}: {result:?}"
        );
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
        let metrics = result.get("metrics").expect("a metrics object");
        let names = declared(key);
        for (name, unit) in &names {
            let metric = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
            assert_eq!(
                metric.get("unit").and_then(Value::as_str),
                Some(unit.as_str())
            );
            assert!(metric.get("value").and_then(Value::as_f64).is_some());
        }
        let Value::Object(printed) = metrics else {
            panic!("metrics is not an object");
        };
        assert_eq!(printed.len(), names.len(), "{workload}: undeclared metrics");
    }
    let corrupted = run(workload, false, true);
    assert_eq!(
        corrupted.get("correct"),
        Some(&Value::Bool(false)),
        "{workload}: a corrupted result went unnoticed"
    );
    assert!(corrupted.get("failed").and_then(Value::as_u64) >= Some(1));
}

#[test]
fn accel_local() {
    check_workload("accel_local");
}

#[test]
fn accel_fleet() {
    check_workload("accel_fleet");
}

#[test]
fn gateway_mixed() {
    check_workload("gateway_mixed");
}
