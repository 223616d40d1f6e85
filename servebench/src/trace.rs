//! In-memory spans for the traced run.
//!
//! A [`Span`] carries its name, start, end, parent span and frame id.
//! Spans are recorded into per-thread buffers (each thread's buffer is
//! registered once in a global list, so buffers of short-lived threads —
//! the scoped chip workers of `Engine::serve_session_batch` — survive
//! their thread) and collected with [`drain`] when the benchmark ends.
//!
//! Recording is off by default ([`set_recording`]); the wrappers then
//! cost one relaxed load per call. The parent and frame of a span come
//! from a process-wide [`set_context`] slot rather than from thread-local
//! state, because the calls being timed hop onto threads the benchmark
//! does not own. Only the single-threaded replay sets a context; spans
//! recorded inside the live server carry parent 0 and frame 0.
//!
//! A layer's *self time* is its span minus the part of that interval its
//! children cover ([`self_time_ns`]): overlapping children — chips that
//! ran in parallel — count once, not once each.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use runtime::{Chip, ChipCostSheet, PlacementPolicy, PoolState};

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// The frame (or v1 line) the span served, 0 when unknown.
    pub frame: u64,
    /// Layer name, e.g. `chip.infer`.
    pub name: &'static str,
    /// Start, nanoseconds since the process epoch ([`now_ns`]).
    pub start_ns: u64,
    /// End, nanoseconds since the process epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static CONTEXT_FRAME: AtomicU64 = AtomicU64::new(0);
static CONTEXT_PARENT: AtomicU64 = AtomicU64::new(0);
static PLACE_CALLS: AtomicU64 = AtomicU64::new(0);

type Buffer = Arc<Mutex<Vec<Span>>>;

fn registry() -> &'static Mutex<Vec<Buffer>> {
    static REGISTRY: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Buffer = {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
        registry()
            .lock()
            .expect("span registry lock is never held across a panic")
            .push(Arc::clone(&buffer));
        buffer
    };
}

/// Nanoseconds since the process epoch (the first call).
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Switch span recording (and the policy call counter) on or off.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
#[must_use]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// A fresh span id.
#[must_use]
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Set the frame and parent span that spans recorded from now on belong
/// to (`(0, 0)` clears it).
pub fn set_context(frame: u64, parent: u64) {
    CONTEXT_FRAME.store(frame, Ordering::SeqCst);
    CONTEXT_PARENT.store(parent, Ordering::SeqCst);
}

/// Record a span with an explicit id, parent and frame. No-op while
/// recording is off.
pub fn record_with(
    id: u64,
    parent: u64,
    frame: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
) {
    if !recording() {
        return;
    }
    let span = Span {
        id,
        parent,
        frame,
        name,
        start_ns,
        end_ns,
    };
    LOCAL.with(|buffer| {
        buffer
            .lock()
            .expect("a span buffer lock is never held across a panic")
            .push(span);
    });
}

/// Record a span under the current context; returns its id.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
    let id = next_id();
    record_with(
        id,
        CONTEXT_PARENT.load(Ordering::SeqCst),
        CONTEXT_FRAME.load(Ordering::SeqCst),
        name,
        start_ns,
        end_ns,
    );
    id
}

/// Take every recorded span out of every thread's buffer, ordered by
/// start time (ties by id).
#[must_use]
pub fn drain() -> Vec<Span> {
    let buffers = registry()
        .lock()
        .expect("span registry lock is never held across a panic");
    let mut spans: Vec<Span> = Vec::new();
    for buffer in buffers.iter() {
        spans.append(
            &mut buffer
                .lock()
                .expect("a span buffer lock is never held across a panic"),
        );
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Nanoseconds of `within` covered by the union of `intervals` (each
/// clipped to `within`; overlaps count once).
#[must_use]
pub fn covered_ns(within: (u64, u64), intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part of it that its
/// children cover (union, not sum).
#[must_use]
pub fn self_time_ns(span: &Span, children: &[Span]) -> u64 {
    let intervals: Vec<(u64, u64)> = children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
    span.duration_ns() - covered_ns((span.start_ns, span.end_ns), &intervals)
}

/// Write spans as tab-separated lines (`id parent frame name start_ns
/// end_ns`) under a header line.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tframe\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.frame, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Name of the spans [`TimedChip`] records.
pub const CHIP_SPAN: &str = "chip.infer";

/// A chip wrapper that records a [`CHIP_SPAN`] around every `infer`.
/// Everything else forwards unchanged, so outputs, cost sheets and wear
/// are the inner chip's.
pub struct TimedChip<C> {
    inner: C,
}

impl<C: Chip> TimedChip<C> {
    /// Wrap `inner`.
    pub fn new(inner: C) -> Self {
        Self { inner }
    }
}

impl<C: Chip> Chip for TimedChip<C> {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        if !recording() {
            return self.inner.infer(input);
        }
        let start = now_ns();
        let out = self.inner.infer(input);
        record(CHIP_SPAN, start, now_ns());
        out
    }

    fn set_window(&self, window: u64) {
        self.inner.set_window(window);
    }

    fn cost_sheet(&self) -> Option<ChipCostSheet> {
        self.inner.cost_sheet()
    }

    fn wear(&self) -> Option<u64> {
        self.inner.wear()
    }
}

/// A placement-policy wrapper that counts `place` calls while recording
/// (a span per call would cost more than the call).
pub struct CountedPolicy<P> {
    inner: P,
}

impl<P: PlacementPolicy> CountedPolicy<P> {
    /// Wrap `inner`.
    pub fn new(inner: P) -> Self {
        Self { inner }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for CountedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&self, costs: &[f64], state: &PoolState) -> usize {
        if recording() {
            PLACE_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.place(costs, state)
    }
}

/// `place` calls counted so far (see [`CountedPolicy`]).
#[must_use]
pub fn place_calls() -> u64 {
    PLACE_CALLS.load(Ordering::SeqCst)
}
