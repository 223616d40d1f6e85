//! Serving-throughput benchmark: the policy-driven engine under closed,
//! open-loop and over-the-wire load.
//!
//! The workload is the Table 1 **inversek2j** MEI system trained with a
//! small budget. Four phases:
//!
//! 1. **closed sweep** — saturating batches at pool sizes `{1, 2, 4,
//!    auto}`, measuring the maximum sustainable requests/sec;
//! 2. **in-process knee** — a ramping open-loop controller
//!    (`mei_bench::ramp`) walks the arrival rate up on the largest pool
//!    until p99 latency knees, reporting the knee rate and p50/p99 there
//!    instead of a blind fixed-utilization point;
//! 3. **loopback-TCP knee** — the same ramp driven as v1 text lines
//!    through the event server's v1 path over 127.0.0.1, a real socket
//!    round-trip per request;
//! 4. **wire protocol v2** — one client against the event-driven server
//!    over loopback, closed loop: strict v1 text round trips versus
//!    pipelined v2 binary batches, reporting both requests/sec and the
//!    ratio (the win the framing buys a single connection);
//! 5. **policy comparison** — a *mixed-topology* pool (2 narrow + 2 wide
//!    chips of the same workload) served open-loop at a fixed rate under
//!    `RoundRobin`, `LeastLoaded` (input-length proxy) and `SizeAware`
//!    over a **calibrated** cost model; the calibrated policy should buy
//!    lower p99 at equal offered rate on multi-core hosts (reported
//!    always, never asserted here).
//!
//! The human-readable tables go to stderr; the machine-diffable JSON
//! report goes to stdout (and to `MEI_BENCH_JSON` when set).
//!
//! Environment knobs:
//!
//! * `MEI_BENCH_SECONDS=<f>` — measurement window per phase (default 2.0;
//!   malformed values warn on stderr and fall back);
//! * `MEI_BENCH_FAST=1` — smoke mode: ~0.2 s windows, tiny training
//!   budget, shorter ramps;
//! * `MEI_BENCH_JSON=<path>` — also write the JSON report to a file;
//! * `MEI_BENCH_JSON_V2=<path>` — also write the standalone protocol-v2
//!   report (the shape committed as `results/BENCH_serving_v2.json`);
//! * `MEI_THREADS` is *not* read here: the pool size under test is the
//!   experiment variable.
//!
//! Run with: `cargo run --release -p mei-bench --bin throughput`

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mei::{manufacture_chips, MeiConfig, MeiRcs};
use mei_bench::ramp::{ramp_to_knee, RampConfig, RampReport};
use mei_bench::{
    closed_rate, fast_mode, format_table, measure_window, open_phase, schedule, table1_setups,
    ExperimentConfig, EXPERIMENT_WRITE_SIGMA,
};
use neural::TrainConfig;
use runtime::net::frame::ItemResponse;
use runtime::net::{Client, ClientV2, EventServer, EventServerConfig, NetWorkload, Response};
use runtime::{
    json_num, resolve_threads, Chip, ChipPool, CostModel, Engine, LeastLoaded, RoundRobin,
    ServeStats, SizeAware,
};

/// Open phase over loopback TCP: a paced writer thread sends requests at
/// their scheduled arrival times over one connection; this thread reads
/// responses in order and measures completion − scheduled arrival (so
/// queueing in the server and the socket both count). Per-chip busy time
/// is approximated from the server-reported service latencies.
fn tcp_open_phase(
    addr: std::net::SocketAddr,
    workload: &str,
    chips: usize,
    inputs: &[Vec<f64>],
    rate: f64,
    window: Duration,
) -> ServeStats {
    let (requests, arrivals) = schedule(inputs, rate, window);
    let n = requests.len();
    let stream = TcpStream::connect(addr).expect("connect to bench server");
    stream.set_nodelay(true).expect("nodelay");
    let reader_half = stream.try_clone().expect("clone stream");

    let epoch = Instant::now();
    let arrivals = &arrivals;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut writer = BufWriter::new(stream);
            for (input, &due) in requests.iter().zip(arrivals) {
                let now = epoch.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if writeln!(writer, "{workload} {}", runtime::net::format_csv(input)).is_err()
                    || writer.flush().is_err()
                {
                    return;
                }
            }
        });

        let mut reader = BufReader::new(reader_half);
        let mut latencies: Vec<Duration> = Vec::with_capacity(n);
        let mut per_chip: Vec<(usize, usize, usize, Duration)> =
            vec![(0, 0, 0, Duration::ZERO); chips];
        let mut line = String::new();
        for &arrival in arrivals {
            line.clear();
            let bytes = reader.read_line(&mut line).expect("read response");
            assert!(bytes > 0, "server closed mid-ramp");
            latencies.push(epoch.elapsed().saturating_sub(arrival));
            match Response::parse(line.trim_end()).expect("well-formed response") {
                Response::Ok {
                    chip, latency_us, ..
                } => {
                    per_chip[chip].0 += 1;
                    per_chip[chip].1 += 1;
                    per_chip[chip].3 += Duration::from_micros(latency_us as u64);
                }
                Response::Error(e) => panic!("bench request rejected: {e}"),
            }
        }
        ServeStats::from_run("tcp/least_loaded", &latencies, epoch.elapsed(), per_chip)
    })
}

/// Build the mixed-topology pool: `narrow_n` chips of the narrow system
/// and `wide_n` of the wide one, as one type-erased pool. Chip ids
/// `0..narrow_n` are the fast chips.
fn mixed_pool(
    narrow: &MeiRcs,
    wide: &MeiRcs,
    narrow_n: usize,
    wide_n: usize,
    seed: u64,
) -> ChipPool<Box<dyn Chip>> {
    let mut chips: Vec<Box<dyn Chip>> =
        manufacture_chips(narrow, narrow_n, EXPERIMENT_WRITE_SIGMA, seed)
            .boxed()
            .into_chips();
    chips.extend(
        manufacture_chips(wide, wide_n, EXPERIMENT_WRITE_SIGMA, seed + 1)
            .boxed()
            .into_chips(),
    );
    ChipPool::from_chips(chips)
}

struct PolicyResult {
    name: &'static str,
    offered_rps: f64,
    stats: ServeStats,
}

impl PolicyResult {
    fn to_json(&self) -> String {
        format!(
            "{{\"policy\":\"{}\",\"offered_rps\":{},\"stats\":{}}}",
            runtime::json_escape(self.name),
            json_num(self.offered_rps, 3),
            self.stats.to_json()
        )
    }
}

fn knee_table(label: &str, report: &RampReport) -> String {
    let rows: Vec<Vec<String>> = report
        .steps
        .iter()
        .map(|s| {
            vec![
                format!("{:.0}", s.offered_rps),
                format!("{:.0}", s.stats.requests_per_sec),
                format!("{:.1}", s.stats.p50_latency_us),
                format!("{:.1}", s.stats.p99_latency_us),
            ]
        })
        .collect();
    let knee = report.knee_step();
    format!(
        "{}\nknee[{label}]: {:.0} req/s (p50 {:.1} µs, p99 {:.1} µs, elbow {})",
        format_table(
            &["offered req/s", "served req/s", "p50 µs", "p99 µs"],
            &rows
        ),
        knee.offered_rps,
        knee.stats.p50_latency_us,
        knee.stats.p99_latency_us,
        if report.kneed { "found" } else { "not reached" }
    )
}

/// Closed-loop v1 over one connection: strict request/response round
/// trips until the window elapses. Returns requests/sec.
fn v1_closed_loop(
    addr: std::net::SocketAddr,
    workload: &str,
    inputs: &[Vec<f64>],
    window: Duration,
) -> f64 {
    let mut client = Client::connect(addr).expect("connect v1 client");
    let start = Instant::now();
    let mut served = 0usize;
    while start.elapsed() < window {
        let input = &inputs[served % inputs.len()];
        match client.request(workload, input).expect("v1 round trip") {
            Response::Ok { .. } => served += 1,
            Response::Error(e) => panic!("bench request rejected: {e}"),
        }
    }
    served as f64 / start.elapsed().as_secs_f64()
}

/// Closed-loop v2 over one connection: `depth` request frames of `batch`
/// requests each kept in flight, receiving and refilling until the
/// window elapses (then draining). Returns requests/sec.
fn v2_pipelined_loop(
    addr: std::net::SocketAddr,
    workload: &str,
    inputs: &[Vec<f64>],
    batch: usize,
    depth: usize,
    window: Duration,
) -> f64 {
    let mut client = ClientV2::connect(addr).expect("connect v2 client");
    let frame_inputs: Vec<Vec<f64>> = (0..batch)
        .map(|i| inputs[i % inputs.len()].clone())
        .collect();
    let start = Instant::now();
    let mut served = 0usize;
    let mut in_flight = 0usize;
    loop {
        while in_flight < depth && start.elapsed() < window {
            client
                .send_batch(workload, &frame_inputs)
                .expect("send v2 batch");
            in_flight += 1;
        }
        if in_flight == 0 {
            break;
        }
        let items = client.recv_batch().expect("recv v2 batch");
        in_flight -= 1;
        for item in &items {
            match item {
                ItemResponse::Ok { .. } => served += 1,
                ItemResponse::Shed => {}
                ItemResponse::Err(e) => panic!("bench request rejected: {e}"),
            }
        }
    }
    served as f64 / start.elapsed().as_secs_f64()
}

/// Pull the v1 loopback-TCP knee rate out of the committed baseline
/// report, if it is readable from the current directory. A one-key
/// extraction, not a parser: the committed shape is under our control.
fn baseline_tcp_knee_rps(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let tcp = text.split("\"tcp\":{\"knee_rps\":").nth(1)?;
    let number: String = tcp
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    number.parse().ok()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let fast = fast_mode();
    let window = measure_window(if fast { 0.2 } else { 2.0 });
    let cfg = ExperimentConfig::from_env();

    // The Table 1 inversek2j MEI system, trained with a small budget —
    // the serving workload, not the accuracy experiment.
    let setup = table1_setups()
        .into_iter()
        .find(|s| s.workload.name() == "inversek2j")
        .expect("inversek2j is a Table 1 row");
    let train_samples = if fast { 400 } else { 1_500 };
    let train = setup
        .workload
        .dataset(train_samples, cfg.seed)
        .expect("train data");
    let test = setup.workload.dataset(64, cfg.seed + 1).expect("test data");
    let train_mei = |hidden: usize| {
        MeiRcs::train(
            &train,
            &MeiConfig {
                hidden,
                in_bits: setup.mei_in_bits,
                out_bits: setup.mei_out_bits,
                device: cfg.device(),
                train: TrainConfig {
                    epochs: if fast { 15 } else { 60 },
                    learning_rate: 0.8,
                    ..TrainConfig::default()
                },
                seed: cfg.seed,
                ..MeiConfig::default()
            },
        )
        .expect("MEI training")
    };
    let mei = train_mei(setup.mei_hidden);
    let inputs: Vec<Vec<f64>> = test.inputs().to_vec();
    let input_dim = inputs[0].len();

    let auto = resolve_threads(0);
    let mut chip_counts = vec![1usize, 2, 4, auto];
    chip_counts.sort_unstable();
    chip_counts.dedup();
    let largest = *chip_counts.last().expect("non-empty");

    eprintln!(
        "== throughput: inversek2j MEI serving, {} hardware threads, {:.2}s windows ==",
        auto,
        window.as_secs_f64()
    );

    // Phase 1: closed saturation sweep over pool sizes.
    let mut closed: Vec<(usize, f64)> = Vec::new();
    for &chips in &chip_counts {
        let engine = Engine::new(manufacture_chips(
            &mei,
            chips,
            EXPERIMENT_WRITE_SIGMA,
            cfg.seed,
        ));
        closed.push((chips, closed_rate(&engine, &inputs, window)));
    }
    let rows: Vec<Vec<String>> = closed
        .iter()
        .map(|(chips, rps)| vec![chips.to_string(), format!("{rps:.0}")])
        .collect();
    eprintln!("{}", format_table(&["chips", "closed req/s"], &rows));
    let rps_of = |chips: usize| closed.iter().find(|r| r.0 == chips).map(|r| r.1);
    let speedup_4v1 = match (rps_of(4), rps_of(1)) {
        (Some(four), Some(one)) if one > 0.0 => Some(four / one),
        _ => None,
    };
    eprintln!(
        "speedup 4 chips vs 1 (closed): {} ({} hardware threads — reported, not asserted)",
        speedup_4v1.map_or_else(|| "n/a".into(), |s| format!("{s:.2}×")),
        auto
    );

    // Phase 2: in-process knee on the largest pool.
    let closed_largest = rps_of(largest).expect("largest pool measured");
    let ramp_config = RampConfig {
        start_rps: (closed_largest * 0.15).max(10.0),
        growth: if fast { 1.6 } else { 1.35 },
        max_steps: if fast { 6 } else { 12 },
        knee_factor: 4.0,
    };
    let knee_window = if fast {
        window
    } else {
        window.min(Duration::from_secs(1))
    };
    let engine = Engine::new(manufacture_chips(
        &mei,
        largest,
        EXPERIMENT_WRITE_SIGMA,
        cfg.seed,
    ));
    let in_process = ramp_to_knee(&ramp_config, |rate| {
        open_phase(&engine, &inputs, rate, knee_window)
    });
    eprintln!(
        "\n-- in-process open-loop ramp ({largest} chips) --\n{}",
        knee_table("in_process", &in_process)
    );

    // Phase 3: the same ramp as v1 lines through the event server over
    // loopback.
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::new(
            "inversek2j",
            input_dim,
            Engine::new(manufacture_chips(&mei, largest, EXPERIMENT_WRITE_SIGMA, cfg.seed).boxed()),
        )],
        EventServerConfig::default(),
    )
    .expect("bind loopback server");
    let addr = server.addr();
    // A single connection serves inline, so the TCP ramp starts lower.
    let tcp_config = RampConfig {
        start_rps: (closed_largest * 0.05 / largest as f64).max(10.0),
        ..ramp_config
    };
    let tcp = ramp_to_knee(&tcp_config, |rate| {
        tcp_open_phase(addr, "inversek2j", largest, &inputs, rate, knee_window)
    });
    server.shutdown();
    eprintln!(
        "\n-- loopback TCP open-loop ramp ({largest} chips, 1 connection) --\n{}",
        knee_table("tcp", &tcp)
    );

    // Phase 4: wire protocol v2 vs v1, one client, closed loop over the
    // event-driven server. v1 pays a full round trip per request; v2
    // pipelines binary batch frames, so a single connection can keep the
    // pool busy.
    let v2_batch = 64usize;
    let v2_depth = 4usize;
    let event_server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::new(
            "inversek2j",
            input_dim,
            Engine::new(manufacture_chips(&mei, largest, EXPERIMENT_WRITE_SIGMA, cfg.seed).boxed()),
        )],
        EventServerConfig::default(),
    )
    .expect("bind event server");
    let event_addr = event_server.addr();
    let v1_rps = v1_closed_loop(event_addr, "inversek2j", &inputs, window);
    let v2_rps = v2_pipelined_loop(
        event_addr,
        "inversek2j",
        &inputs,
        v2_batch,
        v2_depth,
        window,
    );
    event_server.shutdown();
    let v2_over_v1 = if v1_rps > 0.0 {
        v2_rps / v1_rps
    } else {
        f64::NAN
    };
    let baseline_path = "results/BENCH_serving_baseline.json";
    let baseline_knee = baseline_tcp_knee_rps(baseline_path);
    eprintln!(
        "\n-- wire protocol v2 ({largest} chips, 1 connection, closed loop) --\n{}",
        format_table(
            &["protocol", "req/s"],
            &[
                vec!["v1 strict".into(), format!("{v1_rps:.0}")],
                vec![
                    format!("v2 pipelined ({v2_batch}×{v2_depth})"),
                    format!("{v2_rps:.0}")
                ],
            ]
        )
    );
    eprintln!("v2 pipelined / v1 strict = {v2_over_v1:.2}×");
    let v2_json = format!(
        "{{\"suite\":\"serving_v2/inversek2j\",\"hardware_threads\":{auto},\
         \"window_secs\":{},\"chips\":{largest},\"batch\":{v2_batch},\"depth\":{v2_depth},\
         \"v1_closed_loop_rps\":{},\"v2_pipelined_rps\":{},\"v2_over_v1\":{},\
         \"v1_baseline_tcp_knee_rps\":{},\"v1_baseline_source\":\"{baseline_path}\"}}",
        json_num(window.as_secs_f64(), 3),
        json_num(v1_rps, 3),
        json_num(v2_rps, 3),
        json_num(v2_over_v1, 4),
        baseline_knee.map_or_else(|| "null".into(), |k| json_num(k, 3)),
    );
    if let Ok(path) = std::env::var("MEI_BENCH_JSON_V2") {
        if let Err(err) = std::fs::write(&path, &v2_json) {
            panic!("cannot write MEI_BENCH_JSON_V2 report to '{path}': {err}");
        }
    }

    // Phase 5: mixed-topology policy comparison. Two narrow (fast) and
    // two wide (slow) chips of the same workload; the calibrated
    // size-aware policy should hold a lower p99 at equal offered rate.
    let wide = train_mei(setup.mei_hidden * 6);
    let build = || mixed_pool(&mei, &wide, 2, 2, cfg.seed);
    let calibration = CostModel::calibrate(&build(), &inputs[..8.min(inputs.len())], 3);
    eprintln!(
        "\n-- mixed-topology pool (2× hidden={}, 2× hidden={}) --\ncalibrated cost model: {}",
        setup.mei_hidden,
        setup.mei_hidden * 6,
        calibration.to_json()
    );
    let mixed_closed = closed_rate(
        &Engine::new(build()).with_policy(LeastLoaded),
        &inputs,
        window,
    );
    let offered = mixed_closed * 0.6;
    let policies: Vec<PolicyResult> = vec![
        PolicyResult {
            name: "round_robin",
            offered_rps: offered,
            stats: open_phase(
                &Engine::new(build()).with_policy(RoundRobin),
                &inputs,
                offered,
                window,
            ),
        },
        PolicyResult {
            name: "least_loaded",
            offered_rps: offered,
            stats: open_phase(
                &Engine::new(build()).with_policy(LeastLoaded),
                &inputs,
                offered,
                window,
            ),
        },
        PolicyResult {
            name: "size_aware",
            offered_rps: offered,
            stats: open_phase(
                &Engine::new(build())
                    .with_policy(SizeAware)
                    .with_cost_model(calibration.clone()),
                &inputs,
                offered,
                window,
            ),
        },
    ];
    let rows: Vec<Vec<String>> = policies
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.0}", p.offered_rps),
                format!("{:.0}", p.stats.requests_per_sec),
                format!("{:.1}", p.stats.p50_latency_us),
                format!("{:.1}", p.stats.p99_latency_us),
            ]
        })
        .collect();
    eprintln!(
        "{}",
        format_table(
            &[
                "policy",
                "offered req/s",
                "served req/s",
                "p50 µs",
                "p99 µs"
            ],
            &rows
        )
    );
    let p99_of = |name: &str| {
        policies
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.stats.p99_latency_us)
            .expect("policy measured")
    };
    eprintln!(
        "size_aware p99 / round_robin p99 = {:.3} (multi-core hosts should see < 1; \
         {} hardware threads here — reported, not asserted)",
        p99_of("size_aware") / p99_of("round_robin"),
        auto
    );

    let meta = mei_bench::json::meta("throughput", cfg.seed);
    let closed_json: Vec<String> = closed
        .iter()
        .map(|(chips, rps)| {
            format!(
                "{{\"chips\":{chips},\"closed_requests_per_sec\":{}}}",
                json_num(*rps, 3)
            )
        })
        .collect();
    let policies_json: Vec<String> = policies.iter().map(PolicyResult::to_json).collect();
    let json = format!(
        "{{\"meta\":{meta},\"suite\":\"throughput/inversek2j\",\"hardware_threads\":{},\
         \"window_secs\":{},\"speedup_4v1\":{},\"pools\":[{}],\
         \"knee\":{{\"in_process\":{},\"tcp\":{}}},\
         \"v2\":{},\
         \"mixed_topology\":{{\"narrow_hidden\":{},\"wide_hidden\":{},\
         \"cost_model\":{},\"closed_requests_per_sec\":{},\"policies\":[{}]}}}}",
        auto,
        json_num(window.as_secs_f64(), 3),
        speedup_4v1.map_or_else(|| "null".into(), |s| json_num(s, 4)),
        closed_json.join(","),
        in_process.to_json(),
        tcp.to_json(),
        v2_json,
        setup.mei_hidden,
        setup.mei_hidden * 6,
        calibration.to_json(),
        json_num(mixed_closed, 3),
        policies_json.join(",")
    );
    println!("{json}");
    if let Ok(path) = std::env::var("MEI_BENCH_JSON") {
        if let Err(err) = std::fs::write(&path, &json) {
            panic!("cannot write MEI_BENCH_JSON report to '{path}': {err}");
        }
    }
}
