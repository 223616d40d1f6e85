//! The benchmark's measurement arithmetic: percentiles with their sample
//! count, open-loop due-time latency and generator lag, and self time
//! under overlapping children.

use std::time::Duration;

use servebench::latency::{due_latency_us, lag_us, median, schedule, summarize};
use servebench::trace::{covered_ns, self_time_ns, Span};

#[test]
fn percentile_and_count_on_tiny_samples() {
    let empty = summarize(&[]);
    assert_eq!(empty.count, 0);
    assert!(empty.p50.is_nan() && empty.p99.is_nan());

    let one = summarize(&[42.0]);
    assert_eq!((one.count, one.p50, one.p99), (1, 42.0, 42.0));

    // Order does not matter; p50 of two interpolates, p99 nears the max.
    let two = summarize(&[300.0, 100.0]);
    assert_eq!(two.count, 2);
    assert_eq!(two.p50, 200.0);
    assert!((two.p99 - 298.0).abs() < 1e-9);
}

#[test]
fn percentile_and_count_on_tied_samples() {
    let tied = summarize(&[5.0; 7]);
    assert_eq!((tied.count, tied.p50, tied.p99), (7, 5.0, 5.0));

    // 99 fast samples and one slow one: the p99 interpolates into the
    // tail, the median does not move.
    let mut samples = vec![10.0; 99];
    samples.push(1010.0);
    let s = summarize(&samples);
    assert_eq!(s.count, 100);
    assert_eq!(s.p50, 10.0);
    assert!((s.p99 - 20.0).abs() < 1e-9, "p99 {}", s.p99);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);

    // A request that never completed (+∞) sorts last and takes the top
    // percentile with it instead of vanishing.
    let mut lost = vec![1.0; 10];
    lost.push(f64::INFINITY);
    assert!(summarize(&lost).p99.is_infinite());
}

#[test]
fn latency_counts_from_the_due_time_and_lag_from_the_send() {
    // Sent 300 µs late, answered 1 ms after the due time: the latency
    // charges the generator's lateness to the request, the lag reports it.
    let due = Duration::from_millis(6);
    let sent = due + Duration::from_micros(300);
    let done = due + Duration::from_micros(1000);
    assert!((due_latency_us(due, done) - 1000.0).abs() < 1e-6);
    assert!((lag_us(due, sent) - 300.0).abs() < 1e-6);

    // An early send has no lag; time never runs backwards.
    assert_eq!(lag_us(due, due - Duration::from_micros(5)), 0.0);
    assert_eq!(due_latency_us(due, due - Duration::from_micros(5)), 0.0);
}

#[test]
fn schedule_spaces_frames_evenly_at_the_offered_rate() {
    // 16-request frames at 8000 req/s: one frame every 2 ms.
    let due = schedule(Duration::from_millis(7), 16, 8000.0);
    let ms: Vec<Duration> = (0..4).map(|k| Duration::from_millis(2 * k)).collect();
    assert_eq!(due, ms, "frames due at 0, 2, 4 and 6 ms");
    let long = schedule(Duration::from_secs(10), 16, 8000.0);
    assert_eq!(long.len() * 16, 80_000, "10 s at 8000 req/s");
}

fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        frame: 1,
        name: "test",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let parent = span(1, 0, 0, 100);
    // Two chips in parallel over [10, 50) and [30, 70), plus one after.
    let children = [span(2, 1, 10, 50), span(3, 1, 30, 70), span(4, 1, 80, 90)];
    // Union covers 60 + 10 = 70 ns; a sum would claim 90.
    assert_eq!(covered_ns((0, 100), &[(10, 50), (30, 70), (80, 90)]), 70);
    assert_eq!(self_time_ns(&parent, &children), 30);

    // Nested and identical children count once.
    let nested = [span(2, 1, 10, 60), span(3, 1, 20, 30), span(4, 1, 10, 60)];
    assert_eq!(self_time_ns(&parent, &nested), 50);

    // Children are clipped to the parent's interval.
    let spill = [span(2, 1, 0, 10), span(3, 1, 90, 150)];
    let inner = span(1, 0, 5, 95);
    assert_eq!(self_time_ns(&inner, &spill), 90 - 5 - 5);

    // No children: all of it is self time; touching intervals merge.
    assert_eq!(self_time_ns(&parent, &[]), 100);
    assert_eq!(covered_ns((0, 100), &[(0, 50), (50, 100)]), 100);
}
