//! Serving statistics: throughput, latency percentiles, per-chip
//! utilization, and their JSON rendering (hand-rolled — the workspace has
//! no serialization dependency by policy, same as `mei_bench::timing`).

use std::fmt;
use std::time::Duration;

use crate::accounting::{ChipCostSheet, EnergyStats};

/// Render a float as a JSON number with `decimals` fraction digits, or
/// the JSON literal `null` when the value is not finite.
///
/// `format!("{:.3}", f64::NAN)` prints `NaN`, which no JSON parser
/// accepts; every hand-rolled `to_json` in the workspace routes its
/// floats through this helper so a NaN percentile (e.g. an empty latency
/// sample) degrades to `null` instead of corrupting the whole document.
#[must_use]
pub fn json_num(value: f64, decimals: usize) -> String {
    if value.is_finite() {
        format!("{value:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// Escape a string for embedding inside JSON double quotes.
///
/// Handles the two mandatory classes — `"` / `\` and control characters
/// below U+0020 (as `\uXXXX`, with the common `\n`/`\r`/`\t` shorthands).
/// Everything else passes through as UTF-8.
#[must_use]
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// One chip worker's share of a serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipStats {
    /// Requests this chip served.
    pub served: usize,
    /// Coalesced batches the worker ran (contiguous groups of requests
    /// served back-to-back without re-checking arrivals).
    pub batches: usize,
    /// Requests whose `Chip::infer` panicked. The panic is contained at
    /// the chip boundary (the pool never deadlocks); failed requests get
    /// an empty output and are tallied here so operators can see a broken
    /// device in the stats instead of in a crash.
    pub failures: usize,
    /// Time spent inside `Chip::infer`, seconds.
    pub busy_secs: f64,
    /// `busy_secs / wall_secs` — the worker thread's utilization.
    pub utilization: f64,
    /// Energy this chip burned over the window (leakage × wall time +
    /// dynamic × served), joules. `None` when the chip has no
    /// [`ChipCostSheet`] (e.g. test doubles).
    pub joules: Option<f64>,
}

/// Aggregate statistics of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Name of the placement policy that assigned the requests.
    pub policy: String,
    /// Requests completed.
    pub requests: usize,
    /// Wall-clock duration of the whole run, seconds.
    pub wall_secs: f64,
    /// `requests / wall_secs`.
    pub requests_per_sec: f64,
    /// Median request latency (arrival → completion), microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_latency_us: f64,
    /// Worst request latency, microseconds.
    pub max_latency_us: f64,
    /// Latency samples that were NaN or infinite and therefore excluded
    /// from the percentile computation. A non-zero count flags a broken
    /// timing source without aborting the run.
    pub non_finite: usize,
    /// Per-chip breakdown, indexed by chip id.
    pub per_chip: Vec<ChipStats>,
    /// Measured-window energy rollup ([`attach_energy`](Self::attach_energy)).
    /// `None` until attached, or when no chip in the run carries a
    /// [`ChipCostSheet`] — legacy JSON shape is then unchanged.
    pub energy: Option<EnergyStats>,
}

impl ServeStats {
    /// Aggregate from raw per-request latencies and per-chip
    /// `(served, batches, failures, busy)` tallies.
    ///
    /// # Panics
    ///
    /// Panics if `latencies` is empty (a serve run always has requests).
    #[must_use]
    pub fn from_run(
        policy: &str,
        latencies: &[Duration],
        wall: Duration,
        per_chip: Vec<(usize, usize, usize, Duration)>,
    ) -> Self {
        let latencies_us: Vec<f64> = latencies.iter().map(|l| l.as_secs_f64() * 1e6).collect();
        Self::from_latencies_us(policy, &latencies_us, wall, per_chip)
    }

    /// [`from_run`](Self::from_run) over raw microsecond samples.
    ///
    /// Total over its inputs: non-finite samples (a broken clock, a
    /// subtraction of infinities upstream) are counted in
    /// [`non_finite`](Self::non_finite) and excluded from the percentile
    /// computation instead of aborting the run. If *every* sample is
    /// non-finite the percentiles are NaN (rendered as `null` by
    /// [`to_json`](Self::to_json)).
    ///
    /// # Panics
    ///
    /// Panics if `latencies_us` is empty (a serve run always has
    /// requests).
    #[must_use]
    pub fn from_latencies_us(
        policy: &str,
        latencies_us: &[f64],
        wall: Duration,
        per_chip: Vec<(usize, usize, usize, Duration)>,
    ) -> Self {
        assert!(!latencies_us.is_empty(), "a serve run needs requests");
        let mut sorted_us: Vec<f64> = latencies_us
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .collect();
        sorted_us.sort_by(f64::total_cmp);
        let non_finite = latencies_us.len() - sorted_us.len();
        let wall_secs = wall.as_secs_f64();
        Self {
            policy: policy.to_string(),
            requests: latencies_us.len(),
            wall_secs,
            requests_per_sec: latencies_us.len() as f64 / wall_secs.max(f64::MIN_POSITIVE),
            p50_latency_us: percentile(&sorted_us, 0.50),
            p99_latency_us: percentile(&sorted_us, 0.99),
            max_latency_us: sorted_us.last().copied().unwrap_or(f64::NAN),
            non_finite,
            per_chip: per_chip
                .into_iter()
                .map(|(served, batches, failures, busy)| ChipStats {
                    served,
                    batches,
                    failures,
                    busy_secs: busy.as_secs_f64(),
                    utilization: busy.as_secs_f64() / wall_secs.max(f64::MIN_POSITIVE),
                    joules: None,
                })
                .collect(),
            energy: None,
        }
    }

    /// Value the measured window in joules: chip `i` gets
    /// `sheets[i].energy_j(wall_secs, served)` and the run-level
    /// [`EnergyStats`] sums them in chip-id order (the accounting layer's
    /// determinism contract — see [`crate::accounting`]).
    ///
    /// Chips without a sheet (`None` — e.g. test doubles) contribute
    /// nothing and stay `joules: None`; if *no* chip has a sheet the
    /// run-level [`energy`](Self::energy) stays `None` and the JSON shape
    /// is unchanged. Extra or missing trailing sheets are ignored.
    pub fn attach_energy(&mut self, sheets: &[Option<ChipCostSheet>]) {
        let mut known_chips = 0usize;
        let mut joules = 0.0f64;
        let mut ops = 0.0f64;
        for (chip, sheet) in self.per_chip.iter_mut().zip(sheets) {
            if let Some(sheet) = sheet {
                let j = sheet.energy_j(self.wall_secs, chip.served);
                chip.joules = Some(j);
                known_chips += 1;
                joules += j;
                ops += sheet.ops_per_inference * chip.served as f64;
            }
        }
        if known_chips == 0 {
            self.energy = None;
            return;
        }
        self.energy = Some(EnergyStats {
            known_chips,
            joules,
            j_per_request: joules / self.requests as f64,
            ops,
            ops_per_sec: ops / self.wall_secs.max(f64::MIN_POSITIVE),
        });
    }

    /// The stats as a JSON object (machine-diffable, `MEI_BENCH_JSON`
    /// style).
    #[must_use]
    pub fn to_json(&self) -> String {
        let chips: Vec<String> = self
            .per_chip
            .iter()
            .map(|c| {
                let joules = c
                    .joules
                    .map_or(String::new(), |j| format!(",\"joules\":{}", json_num(j, 9)));
                format!(
                    "{{\"served\":{},\"batches\":{},\"failures\":{},\
                     \"busy_secs\":{},\"utilization\":{}{}}}",
                    c.served,
                    c.batches,
                    c.failures,
                    json_num(c.busy_secs, 6),
                    json_num(c.utilization, 4),
                    joules
                )
            })
            .collect();
        let energy = self
            .energy
            .as_ref()
            .map_or(String::new(), |e| format!(",\"energy\":{}", e.to_json()));
        format!(
            "{{\"policy\":\"{}\",\"requests\":{},\"wall_secs\":{},\
             \"requests_per_sec\":{},\
             \"p50_latency_us\":{},\"p99_latency_us\":{},\"max_latency_us\":{},\
             \"non_finite\":{},\"per_chip\":[{}]{}}}",
            json_escape(&self.policy),
            self.requests,
            json_num(self.wall_secs, 6),
            json_num(self.requests_per_sec, 3),
            json_num(self.p50_latency_us, 3),
            json_num(self.p99_latency_us, 3),
            json_num(self.max_latency_us, 3),
            self.non_finite,
            chips.join(","),
            energy
        )
    }
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} req in {:.3}s → {:.0} req/s (p50 {:.1} µs, p99 {:.1} µs) on {} chips [{}]",
            self.requests,
            self.wall_secs,
            self.requests_per_sec,
            self.p50_latency_us,
            self.p99_latency_us,
            self.per_chip.len(),
            self.policy
        )
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
///
/// Total over its inputs — it never panics:
///
/// * an **empty slice** yields `NaN` (there is no order statistic to
///   report; callers that require a value must check first);
/// * `q` is **clamped** to `[0, 1]`, so a caller computing `1.0 + ε` by
///   accident gets the maximum rather than an abort;
/// * a `NaN` quantile yields `NaN`;
/// * a **single element** is every percentile of itself.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() || q.is_nan() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let q = q.clamp(0.0, 1.0);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&xs, 0.5), 2.5);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    /// The hardened edge cases: empty input, exact endpoints, a single
    /// element, out-of-range and NaN quantiles — none may panic.
    #[test]
    fn percentile_edge_cases_are_total() {
        assert!(percentile(&[], 0.5).is_nan(), "empty slice → NaN");
        assert!(percentile(&[], 0.0).is_nan());
        let one = [42.0];
        assert_eq!(percentile(&one, 0.0), 42.0);
        assert_eq!(percentile(&one, 1.0), 42.0);
        let xs = [1.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0, "q=0 is the minimum");
        assert_eq!(percentile(&xs, 1.0), 3.0, "q=1 is the maximum");
        // Out-of-range quantiles clamp instead of panicking.
        assert_eq!(percentile(&xs, -0.5), 1.0);
        assert_eq!(percentile(&xs, 1.5), 3.0);
        assert!(percentile(&xs, f64::NAN).is_nan());
    }

    #[test]
    fn stats_aggregate_and_order() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let stats = ServeStats::from_run(
            "least_loaded",
            &lat,
            Duration::from_millis(10),
            vec![
                (60, 1, 0, Duration::from_millis(6)),
                (40, 2, 3, Duration::from_millis(4)),
            ],
        );
        assert_eq!(stats.requests, 100);
        assert_eq!(stats.policy, "least_loaded");
        assert!(stats.requests_per_sec > 0.0);
        assert!(stats.p50_latency_us <= stats.p99_latency_us);
        assert!(stats.p99_latency_us <= stats.max_latency_us);
        assert_eq!(stats.per_chip.len(), 2);
        assert_eq!(stats.per_chip[1].batches, 2);
        assert_eq!(stats.per_chip[0].failures, 0);
        assert_eq!(stats.per_chip[1].failures, 3);
        assert!((stats.per_chip[0].utilization - 0.6).abs() < 1e-9);
    }

    #[test]
    fn json_shape_is_stable() {
        let stats = ServeStats::from_run(
            "round_robin",
            &[Duration::from_micros(5), Duration::from_micros(15)],
            Duration::from_millis(1),
            vec![(2, 1, 0, Duration::from_micros(20))],
        );
        let json = stats.to_json();
        assert!(json.starts_with("{\"policy\":\"round_robin\",\"requests\":2,"));
        assert!(json.contains("\"per_chip\":[{\"served\":2,\"batches\":1,\"failures\":0,"));
        assert!(json.contains("\"requests_per_sec\":"));
    }

    #[test]
    fn nan_latencies_are_counted_not_fatal() {
        // Regression: `from_run` used `partial_cmp().expect("finite
        // latencies")`, so a single NaN sample aborted the whole serve
        // run. Non-finite samples are now tallied and excluded.
        let stats = ServeStats::from_latencies_us(
            "least_loaded",
            &[10.0, f64::NAN, 30.0, f64::INFINITY, 20.0],
            Duration::from_millis(1),
            vec![(5, 1, 0, Duration::from_micros(60))],
        );
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.non_finite, 2);
        assert_eq!(stats.p50_latency_us, 20.0);
        assert_eq!(stats.max_latency_us, 30.0);
        let json = stats.to_json();
        assert!(json.contains("\"non_finite\":2"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn all_nan_latencies_render_as_json_null() {
        let stats = ServeStats::from_latencies_us(
            "round_robin",
            &[f64::NAN, f64::NAN],
            Duration::from_millis(1),
            vec![],
        );
        assert_eq!(stats.non_finite, 2);
        assert!(stats.p50_latency_us.is_nan());
        let json = stats.to_json();
        assert!(json.contains("\"p50_latency_us\":null"));
        assert!(json.contains("\"max_latency_us\":null"));
    }

    #[test]
    fn json_num_renders_non_finite_as_null() {
        assert_eq!(json_num(1.5, 3), "1.500");
        assert_eq!(json_num(f64::NAN, 3), "null");
        assert_eq!(json_num(f64::INFINITY, 3), "null");
        assert_eq!(json_num(f64::NEG_INFINITY, 6), "null");
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn policy_names_are_escaped_in_json() {
        let stats = ServeStats::from_latencies_us(
            "weird\"policy\\name",
            &[1.0],
            Duration::from_millis(1),
            vec![],
        );
        assert!(stats
            .to_json()
            .starts_with("{\"policy\":\"weird\\\"policy\\\\name\""));
    }

    #[test]
    fn attach_energy_values_the_window_per_chip() {
        let mut stats = ServeStats::from_run(
            "least_loaded",
            &[Duration::from_micros(5); 10],
            Duration::from_secs(2),
            vec![
                (6, 1, 0, Duration::from_millis(6)),
                (4, 1, 0, Duration::from_millis(4)),
            ],
        );
        assert!(stats.energy.is_none(), "no energy until attached");
        // Chip 0: 1 W leakage + 0.5 J/inf; chip 1: unknown sheet.
        let sheets = vec![Some(ChipCostSheet::new(100.0, 1_000_000.0, 0.5, 8.0)), None];
        stats.attach_energy(&sheets);
        // 1 W × 2 s + 0.5 J × 6 = 5 J; only chip 0 accounted.
        let energy = stats.energy.as_ref().expect("one sheet known");
        assert_eq!(energy.known_chips, 1);
        assert!((energy.joules - 5.0).abs() < 1e-12);
        assert!((energy.j_per_request - 0.5).abs() < 1e-12);
        assert!((energy.ops - 48.0).abs() < 1e-12);
        assert_eq!(stats.per_chip[0].joules, Some(energy.joules));
        assert_eq!(stats.per_chip[1].joules, None);
        let json = stats.to_json();
        assert!(json.contains("\"joules\":5.000000000"));
        assert!(json.contains(",\"energy\":{\"known_chips\":1,"));
        // The unknown chip's object carries no joules key.
        assert!(json.contains("\"utilization\":0.0020}"));
    }

    #[test]
    fn attach_energy_with_no_sheets_keeps_legacy_shape() {
        let mut stats = ServeStats::from_run(
            "round_robin",
            &[Duration::from_micros(5)],
            Duration::from_millis(1),
            vec![(1, 1, 0, Duration::from_micros(5))],
        );
        let before = stats.to_json();
        stats.attach_energy(&[None]);
        assert!(stats.energy.is_none());
        assert_eq!(stats.to_json(), before, "all-unknown leaves JSON unchanged");
    }

    #[test]
    fn display_mentions_throughput_and_policy() {
        let stats = ServeStats::from_run(
            "size_aware",
            &[Duration::from_micros(5)],
            Duration::from_millis(1),
            vec![(1, 1, 0, Duration::from_micros(5))],
        );
        let s = stats.to_string();
        assert!(s.contains("req/s") && s.contains("1 chips") && s.contains("size_aware"));
    }
}
