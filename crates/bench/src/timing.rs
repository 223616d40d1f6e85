//! A dependency-free micro-benchmark runner: the in-repo replacement for
//! Criterion, built on `std::time::Instant`.
//!
//! Each benchmark is auto-calibrated (the iteration count is grown until
//! one sample takes at least [`TARGET_SAMPLE`]), then timed over
//! [`SAMPLES`] samples; the per-op statistics (min / median / mean) are
//! printed as an aligned table and emitted as a JSON array on stdout, so
//! runs can be diffed mechanically:
//!
//! ```text
//! cargo bench --offline --bench crossbar_ops
//! ```
//!
//! Environment knobs:
//!
//! * `MEI_BENCH_JSON=<path>` — also write the JSON report to a file
//!   (cargo runs benches from the package directory, so relative paths
//!   resolve against `crates/bench`);
//! * `MEI_BENCH_FAST=1` — fewer samples and a smaller calibration target,
//!   for smoke-testing the harness itself.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per benchmark (each sample runs the calibrated iteration count).
pub const SAMPLES: usize = 30;

/// Calibration target: one sample should take at least this long.
pub const TARGET_SAMPLE: Duration = Duration::from_millis(10);

/// One benchmark's timing statistics, in nanoseconds per operation.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Benchmark identifier, e.g. `differential_matvec/17x32`.
    pub name: String,
    /// Iterations per timed sample (after calibration).
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample, ns/op.
    pub min_ns: f64,
    /// Median sample, ns/op.
    pub median_ns: f64,
    /// Mean over all samples, ns/op.
    pub mean_ns: f64,
    /// Median throughput, operations per second (`1e9 / median_ns`) —
    /// the same statistic as `median_ns`, in the unit capacity planning
    /// uses.
    pub ops_per_sec: f64,
}

impl BenchReport {
    /// The report as a JSON object (hand-rolled; the workspace has no
    /// serialization dependency by policy). Strings go through
    /// [`runtime::json_escape`], floats through [`runtime::json_num`]
    /// (non-finite → `null`), so the output is always parseable.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"iters_per_sample\":{},\"samples\":{},\
             \"min_ns\":{},\"median_ns\":{},\"mean_ns\":{},\"ops_per_sec\":{}}}",
            runtime::json_escape(&self.name),
            self.iters_per_sample,
            self.samples,
            runtime::json_num(self.min_ns, 3),
            runtime::json_num(self.median_ns, 3),
            runtime::json_num(self.mean_ns, 3),
            runtime::json_num(self.ops_per_sec, 3),
        )
    }
}

/// A micro-benchmark suite: register closures with [`bench`](Self::bench),
/// then [`finish`](Self::finish) to print the table and the JSON report.
#[derive(Debug)]
pub struct Runner {
    suite: String,
    reports: Vec<BenchReport>,
    samples: usize,
    target: Duration,
}

impl Runner {
    /// A new suite named `suite` (used in the report header).
    #[must_use]
    pub fn new(suite: &str) -> Self {
        let fast = crate::fast_mode();
        Self {
            suite: suite.to_string(),
            reports: Vec::new(),
            samples: if fast { 5 } else { SAMPLES },
            target: if fast {
                Duration::from_micros(200)
            } else {
                TARGET_SAMPLE
            },
        }
    }

    /// Time `f`, auto-calibrating the per-sample iteration count.
    ///
    /// The closure's return value is passed through [`black_box`] so the
    /// optimizer cannot delete the measured work.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        // Calibrate: grow the iteration count until a sample is long
        // enough for Instant's resolution not to dominate.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.target || iters >= 1 << 30 {
                break;
            }
            // Aim past the target in one or two more doublings.
            iters = if elapsed.is_zero() {
                iters * 16
            } else {
                let scale = self.target.as_secs_f64() / elapsed.as_secs_f64();
                (iters as f64 * scale.max(2.0)).ceil() as u64
            };
        }

        let mut per_op: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() * 1e9 / iters as f64
            })
            .collect();
        per_op.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));

        let median_ns = per_op[per_op.len() / 2];
        let report = BenchReport {
            name: name.to_string(),
            iters_per_sample: iters,
            samples: self.samples,
            min_ns: per_op[0],
            median_ns,
            mean_ns: per_op.iter().sum::<f64>() / per_op.len() as f64,
            ops_per_sec: 1e9 / median_ns,
        };
        eprintln!(
            "{:<40} {:>12} {:>12} {:>12}",
            report.name,
            format_ns(report.min_ns),
            format_ns(report.median_ns),
            format_ns(report.mean_ns),
        );
        self.reports.push(report);
    }

    /// Print the JSON report to stdout (and `MEI_BENCH_JSON` if set) via
    /// [`crate::json::emit`].
    ///
    /// # Panics
    ///
    /// Panics if the report is not strict JSON or `MEI_BENCH_JSON` names
    /// an unwritable path.
    pub fn finish(self) {
        let body: Vec<String> = self.reports.iter().map(BenchReport::to_json).collect();
        let json = format!(
            "{{\"suite\":\"{}\",\"benchmarks\":[{}]}}",
            runtime::json_escape(&self.suite),
            body.join(",")
        );
        crate::json::emit(&json, "MEI_BENCH_JSON");
    }

    /// The reports accumulated so far (used by the harness tests).
    #[must_use]
    pub fn reports(&self) -> &[BenchReport] {
        &self.reports
    }
}

/// Pretty-print nanoseconds with a unit.
fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{:.2} ms", ns / 1e6)
    }
}

/// Print the table header for a suite.
pub fn print_header(suite: &str) {
    eprintln!("suite: {suite}");
    eprintln!(
        "{:<40} {:>12} {:>12} {:>12}",
        "benchmark", "min", "median", "mean"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_runner(name: &str) -> Runner {
        Runner {
            suite: name.to_string(),
            reports: Vec::new(),
            samples: 3,
            target: Duration::from_micros(50),
        }
    }

    #[test]
    fn bench_produces_positive_ordered_stats() {
        let mut r = fast_runner("t");
        r.bench("spin", || (0..100).map(|i: u64| i * i).sum::<u64>());
        let rep = &r.reports()[0];
        assert!(rep.min_ns > 0.0);
        assert!(rep.min_ns <= rep.median_ns);
        assert!(rep.median_ns <= rep.mean_ns * 1.5);
        assert!(rep.iters_per_sample >= 1);
    }

    #[test]
    fn json_shape_is_stable() {
        let rep = BenchReport {
            name: "x/1".into(),
            iters_per_sample: 10,
            samples: 3,
            min_ns: 1.0,
            median_ns: 2.0,
            mean_ns: 2.5,
            ops_per_sec: 5e8,
        };
        assert_eq!(
            rep.to_json(),
            "{\"name\":\"x/1\",\"iters_per_sample\":10,\"samples\":3,\
             \"min_ns\":1.000,\"median_ns\":2.000,\"mean_ns\":2.500,\
             \"ops_per_sec\":500000000.000}"
        );
    }

    #[test]
    fn json_escapes_quotes_in_names() {
        let rep = BenchReport {
            name: "a\"b".into(),
            iters_per_sample: 1,
            samples: 1,
            min_ns: 0.0,
            median_ns: 0.0,
            mean_ns: 0.0,
            ops_per_sec: f64::INFINITY,
        };
        assert!(rep.to_json().contains("a\\\"b"));
        // Non-finite throughput serializes as null, keeping the JSON valid.
        assert!(rep.to_json().contains("\"ops_per_sec\":null"));
    }

    #[test]
    fn format_ns_picks_units() {
        assert_eq!(format_ns(12.3), "12.3 ns");
        assert_eq!(format_ns(12_300.0), "12.30 µs");
        assert_eq!(format_ns(12_300_000.0), "12.30 ms");
    }
}
