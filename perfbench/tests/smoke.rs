//! A reduced smoke of every workload: each run must pass its own
//! checks and print exactly the metrics `BENCHMARK.json` declares, each
//! with its declared unit.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use charserve::json::{self, JsonValue};

/// The objects of one array section of BENCHMARK.json. The sections
/// are arrays of flat objects, which `charserve::json` (objects only)
/// parses one by one.
fn section(name: &str) -> Vec<JsonValue> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let key = format!("\"{name}\"");
    let start = text
        .find(&key)
        .unwrap_or_else(|| panic!("no `{name}` in BENCHMARK.json"));
    let open = start + text[start..].find('[').expect("an array");
    let close = open + text[open..].find(']').expect("a closed array");
    text[open + 1..close]
        .split_inclusive('}')
        .map(|item| item.trim_start_matches([',', ' ', '\n']))
        .filter(|item| !item.trim().is_empty())
        .map(|item| json::parse(item).unwrap_or_else(|e| panic!("`{name}` item {item:?}: {e}")))
        .collect()
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).expect(key)
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(name: &str) -> Vec<(String, String)> {
    section(name)
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
            )
        })
        .collect()
}

/// A fresh working directory for one test's runs.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one workload at smoke size in `dir`.
fn invoke(dir: &Path, workload: &str, trace: bool) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(dir)
        .env_remove("POWERPRUNING_CACHE")
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "micro"])
        .output()
        .expect("perfbench runs")
}

/// The JSON result line of a run.
fn result(output: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the result line is JSON")
}

/// Runs one workload at smoke size and returns its result object.
fn run(workload: &str, trace: bool) -> JsonValue {
    let output = invoke(
        &fresh_dir(&format!("smoke-{workload}-{trace}")),
        workload,
        trace,
    );
    assert!(
        output.status.success(),
        "{workload} exited {:?}\nstdout:\n{}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    result(&output)
}

fn metric(result: &JsonValue, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no value for {name}"))
}

fn check_result(result: &JsonValue, section: &str) {
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
    let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), str_field(m, "unit").to_string()))
        .collect();
    assert_eq!(printed, declared(section));
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    for workload in ["cold_mini", "mini_sweep", "warm_serve"] {
        let result = run(workload, false);
        check_result(&result, "end_to_end");
        for (name, _) in declared("end_to_end") {
            assert!(metric(&result, &name) > 0.0, "{workload}: {name} reads 0");
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_with_its_unit() {
    for workload in ["cold_mini", "mini_sweep", "warm_serve"] {
        let result = run(workload, true);
        check_result(&result, "per_layer");
        // The layers each workload bypasses read exactly zero.
        if workload != "cold_mini" {
            for name in [
                "gatesim.transitions",
                "gatesim.events_scheduled",
                "gatesim.gates_pruned",
            ] {
                assert_eq!(metric(&result, name), 0.0, "{workload}: {name}");
            }
        } else {
            assert!(metric(&result, "gatesim.transitions") > 0.0);
        }
        if workload == "warm_serve" {
            assert_eq!(metric(&result, "nn.epochs"), 0.0);
            assert!(metric(&result, "charserve.handler_s") > 0.0);
        } else {
            assert!(metric(&result, "nn.epochs") > 0.0);
        }
    }
}

#[test]
fn benchmark_json_names_are_well_formed() {
    for name in ["workloads", "end_to_end", "per_layer"] {
        for item in section(name) {
            let name = str_field(&item, "name");
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.as_bytes()[0].is_ascii_alphanumeric()
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
                "bad name {name:?}"
            );
        }
    }
}

#[test]
fn a_changed_simulated_output_fails_the_run() {
    let dir = fresh_dir("smoke-outputs");
    // The first run records its simulated outputs; a rerun of the same
    // seed reproduces them.
    assert!(invoke(&dir, "cold_mini", false).status.success());
    assert!(invoke(&dir, "cold_mini", false).status.success());
    // A different record stands in for a build whose simulation changed.
    let record = dir.join(".perfbench/outputs/cold_mini-Micro-seed3.txt");
    assert!(record.exists(), "no record at {}", record.display());
    std::fs::write(&record, "0000000000000000\n").unwrap();
    let output = invoke(&dir, "cold_mini", false);
    assert_eq!(output.status.code(), Some(1));
    let result = result(&output);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert!(result.get("failed").and_then(JsonValue::as_u64) >= Some(1));
}
