//! Quick-mode runs of both binaries: every workload end to end, and
//! the traced run, each in about a second. Checks that each prints
//! exactly the metrics `BENCHMARK.json` declares, with their units,
//! and that the seed program's outputs pass.

use std::process::Command;

use precipice_core::json::Json;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs `bin` and returns its parsed last stdout line.
fn run(bin: &str, workload: &str, seconds: &str, trace: &str) -> Json {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", "3", "--seconds", seconds])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("result line parses");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    result
}

fn assert_metrics(result: &Json, expected: &[(String, String)]) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(value.is_finite(), "{name} = {value}");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect();
    let mut want = expected.to_vec();
    want.sort();
    let mut got_sorted = got;
    got_sorted.sort();
    assert_eq!(got_sorted, want);
}

#[test]
fn every_workload_end_to_end() {
    let expected = declared("end_to_end");
    for workload in ["cliff_edge", "explore", "serve"] {
        let result = run(env!("CARGO_BIN_EXE_perfbench"), workload, "0.3", "0");
        assert_metrics(&result, &expected);
    }
}

#[test]
fn traced_run_reports_every_layer_with_exact_replays() {
    let result = run(
        env!("CARGO_BIN_EXE_perfbench-traced"),
        "cliff_edge",
        "1.5",
        "1",
    );
    assert_metrics(&result, &declared("per_layer"));
    let metric = |name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect(name)
    };
    for workload in ["cliff_edge", "explore"] {
        let share = metric(&format!("{workload}.attributed_share"));
        assert!(share >= 0.9, "{workload}: attributed share {share}");
    }
    assert!(metric("core.allocs_per_call") > 0.0, "allocator counted");
}

#[test]
fn binaries_refuse_the_other_mode() {
    for (bin, trace) in [
        (env!("CARGO_BIN_EXE_perfbench"), "1"),
        (env!("CARGO_BIN_EXE_perfbench-traced"), "0"),
    ] {
        let out = Command::new(bin)
            .args(["--workload", "serve", "--seed", "1", "--seconds", "1"])
            .args(["--trace", trace])
            .output()
            .expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty(), "no result on refusal");
    }
}
