//! Wire-level serving benchmark.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--twin-seed <n>]
//! ```
//!
//! Trains and manufactures the workload's system from `--seed`, serves it
//! from an in-process `EventServer` over a 2-pool × 2-chip `Fleet`
//! (R = 2, every engine behind an admission gate), and drives it over
//! loopback from this process. Before anything is timed, the served chip
//! ids and output bits must equal a twin fleet built from `--twin-seed`
//! (default: `--seed`); on a mismatch the command exits non-zero without
//! printing a metric. The last line of standard output is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A human-readable account goes to standard error. See
//! `README.md` for every workload and metric.

mod load;
mod oracle;
mod replay;
mod system;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use mei_bench::ramp::{sla_search, RampReport, RampStep, SlaConfig};
use runtime::net::{EventServer, NetWorkload};
use runtime::ServeStats;
use servebench::alloc::CountingAlloc;
use servebench::latency::{median, median_of_windows, median_rate, summarize, windowed, Summary};
use servebench::trace::{self, Span, CHIP_SPAN};

use load::{Open, Samples, Sequence, Tally, Wire};
use system::{Kind, Model, Protocol, Spec, System};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Every `SAMPLE_EVERY`-th frame of a timed phase is checked against the
/// oracle afterwards.
const SAMPLE_EVERY: u64 = 16;

/// Windows a timed phase is split into; latency percentiles and
/// throughput are the median over windows, so one stall of the shared
/// host moves one window, not the metric.
const WINDOWS: usize = 10;

/// Null round trips behind `server.null_rt_us`.
const NULL_ROUND_TRIPS: usize = 300;

/// Frames (v2) or lines (v1) of the traced replay.
const REPLAY_FRAMES: u64 = 400;

const USAGE: &str = "usage: servebench --workload <mlp-pipelined|cnn-pipelined|mlp-roundtrip> \
                     --seed <n> --seconds <s> --trace <0|1> [--twin-seed <n>]";

struct Args {
    spec: Spec,
    seed: u64,
    twin_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--twin-seed",
        ];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument '{flag}'"));
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |flag: &str| flags.get(flag).ok_or_else(|| format!("missing {flag}"));
    let name = get("--workload")?;
    let spec = system::spec(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer".to_string())?;
    let twin_seed = match flags.get("--twin-seed") {
        Some(v) => v
            .parse()
            .map_err(|_| "--twin-seed takes an integer".to_string())?,
        None => seed,
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds.is_finite() && (1.0..=600.0).contains(&seconds)) {
        return Err("--seconds must be within 1..=600".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    Ok(Args {
        spec,
        seed,
        twin_seed,
        seconds,
        trace,
    })
}

/// The JSON result line.
struct Report {
    correct: bool,
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result line, or the name of a metric the run could not measure
    /// (a non-finite value: a phase that served nothing).
    fn json(&self) -> Result<String, String> {
        if let Some((name, value, _)) = self.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            return Err(format!("metric {name} could not be measured ({value})"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted.max(1),
            self.tally.failures(),
            metrics.join(", ")
        ))
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn check_sheet(kind: Kind, sheet: &runtime::ChipCostSheet, what: &str) -> Result<(), String> {
    let recorded = system::recorded_sheet(kind);
    let got = (
        sheet.area_um2,
        sheet.leakage_uw,
        sheet.dynamic_j_per_inference,
    );
    if got != recorded {
        return Err(format!(
            "{what} chip cost sheet (area µm², leakage µW, J/inference) = {got:?}, recorded {recorded:?}"
        ));
    }
    Ok(())
}

/// The probe verdict as `sla_search` reads it, from the stats' p99 field:
/// this benchmark puts the probe's tail there — the p90, median over
/// [`PROBE_WINDOWS`] windows — and infinity when the probe left anything
/// unserved (served < offered).
fn probe_stats(open: &Open, probe: Duration) -> ServeStats {
    let samples: Vec<f64> = if open.latencies.is_empty() {
        vec![f64::INFINITY]
    } else {
        open.latencies.iter().map(|&(_, us)| us).collect()
    };
    let mut stats =
        ServeStats::from_latencies_us("open-loop", &samples, secs(open.secs.max(1e-9)), vec![]);
    stats.p99_latency_us = median_of_windows(&windowed(
        &open.latencies,
        probe.as_secs_f64(),
        PROBE_WINDOWS,
    ))
    .p90;
    if !open.clean() {
        stats.p99_latency_us = f64::INFINITY;
    }
    stats
}

/// Windows per `slo_rps` probe.
const PROBE_WINDOWS: usize = 4;

/// `slo_rps`: the coarse steps bracket the limit, `sla_search` bisects.
fn slo_rps(spec: &Spec, addr: std::net::SocketAddr, wire: &Wire, probe: Duration) -> f64 {
    let probe_once = |rate: f64| {
        let open = load::open_loop(addr, wire, rate, probe, u64::MAX);
        if open.abandoned {
            // Let the server finish what the abandoned connection owed.
            std::thread::sleep(Duration::from_millis(300));
        }
        let stats = probe_stats(&open, probe);
        eprintln!(
            "  slo probe {rate:>9.0} req/s: window-median p90 {:>9.1} µs over {} samples, {}",
            stats.p99_latency_us,
            open.latencies.len(),
            if open.abandoned {
                "abandoned (backlog bound)"
            } else if open.clean() {
                "clean"
            } else {
                "unserved requests"
            }
        );
        stats
    };
    // A probe misses only if it misses twice: one stall of the shared
    // host must not decide the search.
    let measure = |rate: f64| {
        let first = probe_once(rate);
        if first.p99_latency_us <= spec.slo_limit_us {
            return first;
        }
        let second = probe_once(rate);
        if second.p99_latency_us < first.p99_latency_us {
            second
        } else {
            first
        }
    };
    let steps: Vec<RampStep> = spec
        .slo_steps
        .iter()
        .map(|&rate| RampStep {
            offered_rps: rate,
            stats: measure(rate),
        })
        .collect();
    let ramp = RampReport {
        steps,
        knee: 0,
        kneed: false,
    };
    let config = SlaConfig {
        target_p99_us: spec.slo_limit_us,
        max_iters: SLO_PROBES,
        rel_tol: 0.03,
    };
    sla_search(&ramp, &config, measure).max_rps
}

/// Bisection probes after the coarse steps.
const SLO_PROBES: usize = 5;

fn post_check(
    twin: &NetWorkload,
    seq: &Sequence<'_>,
    phases: &[&Samples],
) -> Result<usize, String> {
    let last = phases
        .iter()
        .flat_map(|s| s.iter().map(|(first, items)| first + items.len() as u64))
        .max()
        .unwrap_or(0);
    let oracle = oracle::Oracle::new(twin, seq, last);
    let mut checked = 0usize;
    for samples in phases {
        for (first, items) in samples.iter() {
            oracle.check(*first, items)?;
            checked += items.len();
        }
    }
    Ok(checked)
}

fn describe(label: &str, tally: &Tally) {
    eprintln!(
        "  {label}: attempted {} served {} shed {} err {} failed {} missing {} lost {}",
        tally.attempted,
        tally.served,
        tally.shed,
        tally.err,
        tally.failed,
        tally.missing,
        tally.lost
    );
}

/// Gate checks shared by both modes: cost sheets, bits, CNN accuracy.
fn gate(
    spec: &Spec,
    addr: std::net::SocketAddr,
    live_sheet: &runtime::ChipCostSheet,
    system: &System,
    twin: &System,
    twin_workload: &NetWorkload,
) -> Result<(), String> {
    check_sheet(spec.kind, live_sheet, "served")?;
    let twin_sheet = system::chip_sheet(twin_workload.as_fleet().expect("the twin is a fleet"));
    check_sheet(spec.kind, &twin_sheet, "twin")?;
    let seq = Sequence::new(system.inputs());
    oracle::gate(addr, twin_workload, &seq)?;
    if let Some((served, digital, total)) =
        oracle::served_accuracy(addr, twin, &system.held_out, twin_workload.name())?
    {
        eprintln!("  served CNN accuracy {served}/{total} = digital twin {digital}/{total}");
    }
    eprintln!(
        "gate passed: {} v2 frames and {} v1 lines bit-identical to the twin fold; cost sheet as recorded",
        oracle::GATE_FRAMES,
        oracle::GATE_LINES
    );
    Ok(())
}

fn untraced(args: &Args) -> Result<Report, String> {
    let spec = args.spec;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live: Option<(System, EventServer, runtime::ChipCostSheet)> = None;
    for _ in 0..SETUPS {
        if let Some((_, server, _)) = live.take() {
            server.shutdown();
        }
        let (system, server, sheet, took) =
            system::setup(spec.kind, args.seed).map_err(|e| format!("set-up: {e}"))?;
        setups.push(took);
        live = Some((system, server, sheet));
    }
    let (system, server, sheet) = live.expect("at least one set-up");
    let setup_s = median(&setups);
    eprintln!(
        "== {} seed {} ==\nset-up {setups:?} s",
        spec.name, args.seed
    );
    let addr = server.addr();
    let twin = system::train(spec.kind, args.twin_seed);
    let dim = twin.held_out.input_dim();
    let twin_workload =
        system::net_workload(spec.kind, dim, system::fleet(&twin, args.twin_seed, false));
    let result = gate(&spec, addr, &sheet, &system, &twin, &twin_workload).and_then(|()| {
        let seq = Sequence::new(system.inputs());
        let t = args.seconds;
        match spec.protocol {
            Protocol::V2 => pipelined_e2e(&spec, addr, &seq, &twin_workload, t, setup_s),
            Protocol::V1 => roundtrip_e2e(&spec, addr, &seq, &twin_workload, t, args.seed, setup_s),
        }
    });
    server.shutdown();
    result
}

fn pipelined_e2e(
    spec: &Spec,
    addr: std::net::SocketAddr,
    seq: &Sequence<'_>,
    twin: &NetWorkload,
    t: f64,
    setup_s: f64,
) -> Result<Report, String> {
    let closed_wire = Wire::v2(seq, spec.closed_frame);
    let open_wire = Wire::v2(seq, spec.open_frame);
    let _ = load::closed_v2(addr, &closed_wire, spec.depth, secs(0.05 * t), u64::MAX);
    let closed = load::closed_v2(addr, &closed_wire, spec.depth, secs(0.3 * t), SAMPLE_EVERY);
    let open = load::open_loop(
        addr,
        &open_wire,
        spec.fixed_rps,
        secs(0.3 * t),
        SAMPLE_EVERY,
    );
    let slo = slo_rps(
        spec,
        addr,
        &open_wire,
        secs(0.35 * t / (spec.slo_steps.len() + SLO_PROBES) as f64),
    );
    let latency = phase_latency(&open.latencies, 0.3 * t);
    let throughput = median_rate(&closed.answers, closed.secs, WINDOWS);
    describe("closed", &closed.tally);
    describe("fixed-rate open", &open.tally);
    eprintln!(
        "  closed {:.0} req/s over the whole phase | open at {:.0} req/s, generator lag p99 {:.1} µs \
         | slo_rps limit p90 ≤ {} µs",
        closed.rps(),
        spec.fixed_rps,
        summarize(&open.lags_us).p99,
        spec.slo_limit_us,
    );
    let checked = post_check(twin, seq, &[&closed.samples, &open.samples]);
    let tally = closed.tally.plus(open.tally);
    report_e2e(tally, checked, throughput, latency, slo, setup_s)
}

fn roundtrip_e2e(
    spec: &Spec,
    addr: std::net::SocketAddr,
    seq: &Sequence<'_>,
    twin: &NetWorkload,
    t: f64,
    seed: u64,
    setup_s: f64,
) -> Result<Report, String> {
    let name = twin.name();
    let open_wire = Wire::v1(seq, name);
    let _ = load::roundtrip_v1(addr, name, seq, secs(0.05 * t), seed, u64::MAX);
    let rt = load::roundtrip_v1(addr, name, seq, secs(0.5 * t), seed, SAMPLE_EVERY);
    let slo = slo_rps(
        spec,
        addr,
        &open_wire,
        secs(0.4 * t / (spec.slo_steps.len() + SLO_PROBES) as f64),
    );
    let latency = phase_latency(&rt.latencies, rt.secs);
    let completions: Vec<(f64, u64)> = rt.latencies.iter().map(|&(t, _)| (t, 1)).collect();
    let rps = median_rate(&completions, rt.secs, WINDOWS);
    describe("round trips", &rt.tally);
    eprintln!("  slo_rps limit p90 ≤ {} µs", spec.slo_limit_us);
    let checked = post_check(twin, seq, &[&rt.samples]);
    report_e2e(rt.tally, checked, rps, latency, slo, setup_s)
}

/// Window-median percentiles of a phase's `(time, latency)` samples; the
/// per-window p90s and p99s go to standard error.
fn phase_latency(samples: &[(f64, f64)], span_secs: f64) -> Summary {
    let windows = windowed(samples, span_secs, WINDOWS);
    let list = |f: fn(&Summary) -> f64| {
        windows
            .iter()
            .map(|w| format!("{:.0}", f(w)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    eprintln!("  per-window p90 µs: [{}]", list(|w| w.p90));
    eprintln!("  per-window p99 µs: [{}]", list(|w| w.p99));
    median_of_windows(&windows)
}

/// The end-to-end result. Every metric the issue names goes to standard
/// error by name and unit; the JSON line carries the ones whose run-to-run
/// spread fits a bound on a shared host (the tail percentiles do not: see
/// `README.md`).
fn report_e2e(
    tally: Tally,
    checked: Result<usize, String>,
    throughput: f64,
    latency: Summary,
    slo: f64,
    setup_s: f64,
) -> Result<Report, String> {
    let correct = match checked {
        Ok(n) => {
            eprintln!("  post-timing check: {n} sampled responses bit-identical to the twin");
            true
        }
        Err(e) => {
            eprintln!("  post-timing check FAILED: {e}");
            false
        }
    };
    let served_frac = tally.served as f64 / tally.attempted.max(1) as f64;
    eprintln!(
        "  metrics: throughput_rps {throughput:.1} req/s | latency_p50_us {:.1} us | \
         latency_p90_us {:.1} us | latency_p99_us {:.1} us ({} samples) | slo_rps {slo:.1} req/s | \
         failed_frac {} | served_frac {served_frac} | setup_s {setup_s:.4} s",
        latency.p50,
        latency.p90,
        latency.p99,
        latency.count,
        tally.failures() as f64 / tally.attempted.max(1) as f64,
    );
    Ok(Report {
        correct,
        tally,
        metrics: vec![
            ("throughput_rps", throughput, "req/s"),
            ("latency_p50_us", latency.p50, "us"),
            ("slo_rps", slo, "req/s"),
            ("served_frac", served_frac, "frac"),
            ("setup_s", setup_s, "s"),
        ],
    })
}

fn traced(args: &Args) -> Result<Report, String> {
    let spec = args.spec;
    let kind = spec.kind;
    let t = args.seconds;
    let v1 = spec.protocol == Protocol::V1;
    eprintln!("== {} seed {} (traced) ==", spec.name, args.seed);
    let system = system::train(kind, args.seed);
    let dim = system.held_out.input_dim();
    let twin = system::train(kind, args.twin_seed);
    let twin_workload = system::net_workload(kind, dim, system::fleet(&twin, args.twin_seed, true));
    let seq = Sequence::new(system.inputs());
    let name = twin_workload.name();

    // Untraced reference: the same load on a server without wrappers.
    let plain_fleet = system::fleet(&system, args.seed, false);
    let plain_sheet = system::chip_sheet(&plain_fleet);
    let plain = system::serve(system::net_workload(kind, dim, plain_fleet))
        .map_err(|e| format!("bind: {e}"))?;
    let gated = gate(
        &spec,
        plain.addr(),
        &plain_sheet,
        &system,
        &twin,
        &twin_workload,
    );
    let reference = gated.map(|()| e2e_p50(&spec, plain.addr(), &seq, name, 0.25 * t, args.seed).0);
    plain.shutdown();
    let reference_p50 = reference?;

    // Traced: timing wrappers around every chip and placement policy.
    let server = system::serve(system::net_workload(
        kind,
        dim,
        system::fleet(&system, args.seed, true),
    ))
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let closed_wire = Wire::v2(&seq, spec.closed_frame);
    if v1 {
        let _ = load::roundtrip_v1(addr, name, &seq, secs(0.05 * t), args.seed, u64::MAX);
    } else {
        let _ = load::closed_v2(addr, &closed_wire, spec.depth, secs(0.05 * t), u64::MAX);
    }
    trace::set_recording(true);
    let place_before = trace::place_calls();
    let window_start = trace::now_ns();
    let (busy_tally, busy_samples) = if v1 {
        let rt = load::roundtrip_v1(addr, name, &seq, secs(0.2 * t), args.seed, SAMPLE_EVERY);
        (rt.tally, rt.samples)
    } else {
        let closed = load::closed_v2(addr, &closed_wire, spec.depth, secs(0.2 * t), SAMPLE_EVERY);
        (closed.tally, closed.samples)
    };
    let window_end = trace::now_ns();
    let (traced_p50, e2e_tally, e2e_samples, lags) =
        e2e_p50(&spec, addr, &seq, name, 0.25 * t, args.seed);
    let place_calls = trace::place_calls() - place_before;
    let null = summarize(&load::null_round_trips(
        addr,
        !v1,
        NULL_ROUND_TRIPS,
        args.seed,
    ));
    trace::set_recording(false);
    server.shutdown();
    let tally = busy_tally.plus(e2e_tally);
    describe("traced busy phase", &busy_tally);
    describe("traced e2e phase", &e2e_tally);

    // In-process replay and the chip stages of both chip kinds.
    let per = if v1 { 1 } else { spec.open_frame };
    trace::set_recording(true);
    let (allocs, bytes) = replay::stack(&twin_workload, &seq, v1, per, REPLAY_FRAMES);
    let other = system::train(
        if kind == Kind::Mlp {
            Kind::Cnn
        } else {
            Kind::Mlp
        },
        args.seed,
    );
    let (mlp, cnn) = match (&system.model, &other.model) {
        (Model::Mlp(m), Model::Cnn(c)) => ((m, system.inputs()), (c, other.inputs())),
        (Model::Cnn(c), Model::Mlp(m)) => ((m, other.inputs()), (c, system.inputs())),
        _ => unreachable!("one system of each kind"),
    };
    let stages = replay::chip_stages(mlp.0, mlp.1, cnn.0, cnn.1);
    trace::set_recording(false);

    let spans = trace::drain();
    let path = PathBuf::from(format!(
        ".bench_build/servebench-trace/{}-seed{}.tsv",
        spec.name, args.seed
    ));
    match trace::write_tsv(&path, &spans) {
        Ok(()) => eprintln!("  {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("  spans not written ({e})"),
    }

    let by_name = |name: &str| -> Vec<&Span> { spans.iter().filter(|s| s.name == name).collect() };
    let med_ns = |name: &str| {
        median(
            &by_name(name)
                .iter()
                .map(|s| s.duration_ns() as f64)
                .collect::<Vec<_>>(),
        )
    };
    let mut children: HashMap<u64, Vec<Span>> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == CHIP_SPAN && s.parent != 0)
    {
        children.entry(s.parent).or_default().push(*s);
    }
    let live: Vec<f64> = spans
        .iter()
        .filter(|s| {
            s.name == CHIP_SPAN
                && s.parent == 0
                && s.start_ns >= window_start
                && s.end_ns <= window_end
        })
        .map(|s| s.duration_ns() as f64)
        .collect();
    let chips = (system::POOLS * system::CHIPS_PER_POOL) as f64;
    let busy_frac = live.iter().sum::<f64>() / ((window_end - window_start) as f64 * chips);
    let engine_self: Vec<f64> = by_name("engine.batch")
        .iter()
        .map(|s| trace::self_time_ns(s, children.get(&s.id).map_or(&[][..], Vec::as_slice)) as f64)
        .collect();
    let per_f = per as f64;
    let decode = med_ns("frame.decode") / per_f;
    let unpack = med_ns("frame.unpack") / per_f;
    let encode = med_ns("frame.encode") / per_f;
    let fleet_batch_us = med_ns("fleet.batch") / 1e3;
    let stack_us = null.p50 + (decode + unpack + encode) * per_f / 1e3 + fleet_batch_us;
    let lag = summarize(&lags);
    eprintln!(
        "  e2e p50 untraced {reference_p50:.1} µs, traced {traced_p50:.1} µs; null round trip p50 {:.1} µs \
         over {} samples; generator lag p99 {:.1} µs over {} frames",
        null.p50, null.count, lag.p99, lag.count
    );

    let checked = post_check(&twin_workload, &seq, &[&busy_samples, &e2e_samples]);
    let correct = match checked {
        Ok(n) => {
            eprintln!("  post-timing check: {n} sampled responses bit-identical to the twin");
            true
        }
        Err(e) => {
            eprintln!("  post-timing check FAILED: {e}");
            false
        }
    };
    Ok(Report {
        correct,
        tally,
        metrics: vec![
            ("client.lag_p99_us", lag.p99, "us"),
            ("server.null_rt_us", null.p50, "us"),
            ("frame.decode_ns_per_req", decode, "ns"),
            ("frame.unpack_ns_per_req", unpack, "ns"),
            ("frame.encode_ns_per_req", encode, "ns"),
            ("frame.bytes_per_req", bytes.0, "bytes"),
            (
                "fleet.route_ns_per_req",
                med_ns("fleet.route") / per_f,
                "ns",
            ),
            ("fleet.batch_us", fleet_batch_us, "us"),
            ("engine.batch_us", med_ns("engine.batch") / 1e3, "us"),
            ("engine.self_us", median(&engine_self) / 1e3, "us"),
            (
                "policy.place_calls_per_req",
                place_calls as f64 / tally.attempted.max(1) as f64,
                "calls/req",
            ),
            ("chip.infer_ns", median(&live), "ns"),
            ("chip.busy_frac", busy_frac, "frac"),
            ("interface.encode_ns", stages.encode_ns, "ns"),
            ("crossbar.forward_ns", stages.forward_ns, "ns"),
            ("mei.sense_ns", stages.sense_ns, "ns"),
            ("interface.decode_ns", stages.decode_ns, "ns"),
            ("conv.tiles_ns", stages.tiles_ns, "ns"),
            ("conv.head_ns", stages.head_ns, "ns"),
            ("conv.other_ns", stages.other_ns, "ns"),
            ("alloc.decode_per_req", allocs.decode, "allocs/req"),
            ("alloc.backend_per_req", allocs.backend, "allocs/req"),
            ("alloc.chip_per_req", allocs.chip, "allocs/req"),
            ("alloc.encode_per_req", allocs.encode, "allocs/req"),
            (
                "trace.overhead_frac",
                traced_p50 / reference_p50 - 1.0,
                "frac",
            ),
            ("trace.coverage", stack_us / traced_p50, "frac"),
        ],
    })
}

/// The end-to-end latency phase of a workload: the fixed-rate open loop
/// (v2) or strict round trips (v1). Returns the p50 (µs), the tally, the
/// sampled answers and the generator lags (for v1, from a short open loop
/// of lines at the lowest `slo_rps` step).
fn e2e_p50(
    spec: &Spec,
    addr: std::net::SocketAddr,
    seq: &Sequence<'_>,
    name: &str,
    secs_total: f64,
    think_seed: u64,
) -> (f64, Tally, Samples, Vec<f64>) {
    match spec.protocol {
        Protocol::V2 => {
            let wire = Wire::v2(seq, spec.open_frame);
            let open = load::open_loop(addr, &wire, spec.fixed_rps, secs(secs_total), SAMPLE_EVERY);
            (
                phase_latency(&open.latencies, secs_total).p50,
                open.tally,
                open.samples,
                open.lags_us,
            )
        }
        Protocol::V1 => {
            let rt = load::roundtrip_v1(
                addr,
                name,
                seq,
                secs(0.8 * secs_total),
                think_seed,
                SAMPLE_EVERY,
            );
            let wire = Wire::v1(seq, name);
            let open = load::open_loop(
                addr,
                &wire,
                spec.slo_steps[0],
                secs(0.2 * secs_total),
                u64::MAX,
            );
            (
                phase_latency(&rt.latencies, rt.secs).p50,
                rt.tally.plus(open.tally),
                rt.samples,
                open.lags_us,
            )
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok(report) => {
            let line = match report.json() {
                Ok(line) => line,
                Err(e) => {
                    eprintln!("servebench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = mei_bench::json::validate(&line) {
                eprintln!("servebench: result line is not strict JSON ({e})");
                return ExitCode::FAILURE;
            }
            println!("{line}");
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
