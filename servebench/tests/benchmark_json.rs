//! `BENCHMARK.json` at the repository root is strict JSON (checked with
//! the workspace's own validator) and every workload and metric name is a
//! plain token.

use std::path::Path;

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every `"name": "<value>"` in the file.
fn names(text: &str) -> Vec<String> {
    text.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.trim_start().trim_start_matches(':').trim_start();
            let value = value.strip_prefix('"').expect("a name is a string");
            value[..value.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_is_strict_json() {
    mei_bench::json::validate(&benchmark_json()).expect("BENCHMARK.json is strict RFC 8259 JSON");
}

#[test]
fn every_name_is_a_plain_token() {
    let text = benchmark_json();
    let names = names(&text);
    // 2 gated workloads, 5 end-to-end metrics, 26 per-layer metrics.
    assert_eq!(names.len(), 2 + 5 + 26, "names: {names:?}");
    for name in &names {
        assert!(
            !name.is_empty() && name.len() <= 64,
            "name '{name}' must have 1 to 64 characters"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "name '{name}' must match [A-Za-z0-9_.-]+"
        );
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");
    for workload in ["mlp-pipelined", "mlp-roundtrip"] {
        assert!(
            names.iter().any(|n| n == workload),
            "workload {workload} is listed"
        );
    }
}
