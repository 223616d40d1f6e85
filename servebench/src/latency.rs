//! Latency summaries and open-loop arithmetic.
//!
//! Percentiles come from [`runtime::percentile`] (linear interpolation
//! over the ascending sort), so the benchmark and the serving stack's own
//! `ServeStats` agree on what "p99" means. Every summary carries its
//! sample count: a p99 over fewer than 1000 samples has fewer than ten
//! samples beyond it and should be read with that in mind.

use std::time::Duration;

/// A latency sample's median, 90th and 99th percentiles and size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples summarized.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Summarize `samples` (any order). Non-finite samples sort last, so a
/// request that never completed (recorded as `+∞`) pushes the upper
/// percentiles to infinity instead of disappearing. An empty sample
/// yields NaN percentiles and a zero count.
#[must_use]
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        count: sorted.len(),
        p50: runtime::percentile(&sorted, 0.50),
        p90: runtime::percentile(&sorted, 0.90),
        p99: runtime::percentile(&sorted, 0.99),
    }
}

/// The median of `values` (NaN when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// Open-loop latency of a request that was *due* at `due` and whose
/// response arrived at `done` (both measured from the same epoch), in
/// microseconds. Timing from the due time rather than the actual send
/// charges a generator stall to every request it delayed, which is what
/// an independent user would see.
#[must_use]
pub fn due_latency_us(due: Duration, done: Duration) -> f64 {
    done.saturating_sub(due).as_secs_f64() * 1e6
}

/// How late the generator sent a request that was due at `due`, in
/// microseconds (zero when it was on time).
#[must_use]
pub fn lag_us(due: Duration, sent: Duration) -> f64 {
    sent.saturating_sub(due).as_secs_f64() * 1e6
}

/// Due times of an open loop that offers `rate` requests per second in
/// frames of `frame_size` requests for `span`: evenly spaced, the first at
/// zero. Even spacing keeps a server below capacity free of queueing, so
/// the latency tail and the `slo_rps` cliff come from the server, not from
/// arrival bursts; the spacing is incommensurate with the server's 500 µs
/// loop sleep, so frames still meet every phase of it.
#[must_use]
pub fn schedule(span: Duration, frame_size: usize, rate: f64) -> Vec<Duration> {
    let gap = frame_size as f64 / rate;
    let frames = (span.as_secs_f64() / gap).ceil() as u64;
    (0..frames)
        .map(|k| Duration::from_secs_f64(k as f64 * gap))
        .collect()
}

/// Split a phase of `span_secs` seconds into `windows` equal windows and
/// summarize the samples of each: `samples` are `(time, value)` pairs,
/// the time in seconds since the phase start.
#[must_use]
pub fn windowed(samples: &[(f64, f64)], span_secs: f64, windows: usize) -> Vec<Summary> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, value) in samples {
        let w = ((t / span_secs) * windows as f64).floor().max(0.0) as usize;
        buckets[w.min(windows - 1)].push(value);
    }
    buckets.iter().map(|b| summarize(b)).collect()
}

/// The median, over windows that hold samples, of each window's
/// percentiles — one stall in one window moves none of them. `count` is
/// the total sample count.
#[must_use]
pub fn median_of_windows(summaries: &[Summary]) -> Summary {
    let over = |f: fn(&Summary) -> f64| {
        median(
            &summaries
                .iter()
                .filter(|s| s.count > 0)
                .map(f)
                .collect::<Vec<f64>>(),
        )
    };
    Summary {
        count: summaries.iter().map(|s| s.count).sum(),
        p50: over(|s| s.p50),
        p90: over(|s| s.p90),
        p99: over(|s| s.p99),
    }
}

/// The median, over `windows` equal windows of a `span_secs` phase, of
/// the rate at which `events` (`(time, count)` pairs) completed.
#[must_use]
pub fn median_rate(events: &[(f64, u64)], span_secs: f64, windows: usize) -> f64 {
    let mut counts = vec![0u64; windows];
    for &(t, n) in events {
        let w = ((t / span_secs) * windows as f64).floor().max(0.0) as usize;
        counts[w.min(windows - 1)] += n;
    }
    let width = span_secs / windows as f64;
    median(
        &counts
            .iter()
            .map(|&c| c as f64 / width)
            .collect::<Vec<f64>>(),
    )
}
