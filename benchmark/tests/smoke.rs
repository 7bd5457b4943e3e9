//! Runs the `--quick` pass of the real binary and checks its report
//! against `BENCHMARK.json`: every declared metric present with its unit,
//! nothing undeclared, nothing failed.

use std::process::Command;

use kvbench::json::Json;
use kvbench::manifest::{Manifest, MetricDef};

/// Runs `kvbench run --quick <extra>` and returns one report per workload.
fn quick(extra: &[&str]) -> Vec<Json> {
    let out = Command::new(env!("CARGO_BIN_EXE_kvbench"))
        .args(["run", "--quick"])
        .args(extra)
        .output()
        .expect("spawn kvbench");
    assert!(
        out.status.success(),
        "kvbench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 report")
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("report line is JSON"))
        .collect()
}

fn check(report: &Json, declared: &[MetricDef]) {
    assert_eq!(report.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(report.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(report.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = report.get("metrics") else {
        panic!("no metrics object");
    };
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, want, "reported metrics differ from BENCHMARK.json");
    for ((name, m), def) in metrics.iter().zip(declared) {
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(def.unit.as_str()),
            "{name}"
        );
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
        // End-to-end metrics are chosen never to be zero.
        assert!(def.bound.is_none() || v > 0.0, "{name} is zero");
    }
}

#[test]
fn quick_pass_reports_exactly_the_declared_end_to_end_metrics() {
    let man = Manifest::load().unwrap();
    let reports = quick(&[]);
    assert_eq!(reports.len(), man.workloads.len());
    for r in &reports {
        check(r, &man.end_to_end);
    }
}

#[test]
fn quick_traced_run_fills_the_per_layer_list_and_writes_a_trace() {
    let man = Manifest::load().unwrap();
    for workload in ["embed-update", "serve-mixed"] {
        let reports = quick(&["--workload", workload, "--trace", "1"]);
        assert_eq!(reports.len(), 1);
        check(&reports[0], &man.per_layer);
        let path = format!("{}/out/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
        let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        for phase in ["setup", "measure", "recover", "first_scan"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(Json::as_str) == Some(phase)),
                "{workload}: no `{phase}` span"
            );
        }
        // A call span points at the measured phase that caused it.
        let call = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("get"))
            .expect("a sampled get span");
        let parent = call
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(Json::as_f64);
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("measure")
                && e.get("args")
                    .and_then(|a| a.get("id"))
                    .and_then(Json::as_f64)
                    == parent
        }));
    }
}
