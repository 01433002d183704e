//! The benchmark's own checks, at smoke size: every workload delivers
//! exactly what the oracle expects, a traced run reproduces the plain
//! run bit for bit, and the metric names match `BENCHMARK.json`.

use perfbench::report::Metric;
use perfbench::{run, Scale, Workload};

const SEED: u64 = 7;

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// The `"name"` values listed under `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    declared_field(section, "name")
}

/// The `"<key>"` string values listed under `section` in `BENCHMARK.json`.
fn declared_field(section: &str, key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split(&format!("\"{key}\""))
        .skip(1)
        .map(|item| {
            let item = item.trim_start().trim_start_matches(':').trim_start();
            item[1..item[1..].find('"').expect("closing quote") + 1].to_string()
        })
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.to_string()).collect()
}

fn check(workload: Workload) {
    let plain = run(workload, Scale::Smoke, SEED, 0.0, false);
    assert!(plain.correct, "{}: {}", workload.name(), plain.provenance);
    assert_eq!(plain.failed, 0);
    assert!(plain.attempted > 0);
    assert_eq!(value(&plain.metrics, "exact_share"), 1.0);
    assert_eq!(names(&plain.metrics), declared("end_to_end"));

    // The deterministic figures repeat per seed.
    let again = run(workload, Scale::Smoke, SEED, 0.0, false);
    for name in [
        "delivery_p50_ms",
        "delivery_p99_ms",
        "msgs_per_event",
        "bytes_per_event",
    ] {
        assert_eq!(
            value(&plain.metrics, name),
            value(&again.metrics, name),
            "{name}"
        );
    }

    // The traced run checks its own identity with a plain run and
    // counts exactly the messages the untraced run did.
    let traced = run(workload, Scale::Smoke, SEED, 0.0, true);
    assert!(traced.correct, "{}: {}", workload.name(), traced.provenance);
    assert!(traced.provenance.contains("\"identical_to_plain\": true"));
    assert_eq!(traced.attempted, plain.attempted);
    let per_event = value(&traced.metrics, "net.sent") / traced.attempted as f64;
    assert_eq!(per_event, value(&plain.metrics, "msgs_per_event"));
    assert_eq!(names(&traced.metrics), declared("per_layer"));
    let coverage = value(&traced.metrics, "trace.coverage");
    assert!(coverage > 0.5 && coverage <= 1.05, "coverage {coverage}");
}

#[test]
fn paper_flood_smoke() {
    check(Workload::PaperFlood);
}

#[test]
fn hardened_churn_smoke() {
    check(Workload::HardenedChurn);
}

#[test]
fn workload_names_match_benchmark_json() {
    let listed = declared("workloads");
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed, ours);
    let whys: Vec<String> = Workload::ALL.iter().map(|w| w.why().to_string()).collect();
    assert_eq!(declared_field("workloads", "why"), whys);
}
