//! Idle cost of the event server: the process's CPU share while parked
//! connections wait, by connection count.
//!
//! An [`EventServer`] over a trivial one-input chip parks 0, 1, 64 and
//! 512 negotiated v2 connections — sockets, not threads — and for each
//! count reads the process's CPU time from `/proc/self/stat` over one
//! window (`null` off Linux). The event loop finds requests by polling
//! its sockets (`std` has no readiness API), so an idle connection costs
//! CPU; this bench reports how much.
//!
//! One property holds on any host and **is asserted**: with one idle
//! connection the share stays below half a core. An event loop that
//! spins fails it.
//!
//! The table goes to stderr; the JSON report goes to stdout (and to
//! `MEI_BENCH_JSON` when set).
//!
//! Environment knobs:
//!
//! * `MEI_BENCH_SECONDS=<f>` — measurement window per count (default 3.0);
//! * `MEI_BENCH_FAST=1` — smoke mode: 0.5 s windows;
//! * `MEI_BENCH_JSON=<path>` — also write the JSON report to a file.
//!
//! Run with: `cargo run --release -p mei-bench --bin idle_cost`

use std::time::{Duration, Instant};

use mei_bench::{fast_mode, format_table, json, measure_window};
use runtime::net::{ClientV2, EventServer, EventServerConfig, NetWorkload};
use runtime::{json_num, Chip, ChipPool, Engine};

/// Parked connection counts, in the order they are opened.
const COUNTS: [usize; 4] = [0, 1, 64, 512];

/// The asserted ceiling on the CPU share with one idle connection.
const MAX_ONE_IDLE_SHARE: f64 = 0.5;

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, 100 per second.
const TICKS_PER_SEC: f64 = 100.0;

/// Time for freshly parked connections to settle before a window opens.
const SETTLE: Duration = Duration::from_millis(100);

/// The trivial chip: returns its input.
struct Echo;

impl Chip for Echo {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        input.to_vec()
    }
}

/// The process's CPU time so far (user plus system, every thread), or
/// `None` where `/proc/self/stat` cannot be read.
fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces, so count fields from
    // its closing parenthesis: field 3 follows it, and utime and stime
    // are fields 14 and 15.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let mut fields = rest.split(' ').skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_secs_f64(
        (utime + stime) as f64 / TICKS_PER_SEC,
    ))
}

/// The process's CPU time over `window` as a share of one core.
fn cpu_share(window: Duration) -> Option<f64> {
    let (before, start) = (cpu_time()?, Instant::now());
    std::thread::sleep(window);
    let used = cpu_time()?.saturating_sub(before);
    Some(used.as_secs_f64() / start.elapsed().as_secs_f64())
}

fn main() {
    let window = measure_window(if fast_mode() { 0.5 } else { 3.0 });
    let chips: Vec<Box<dyn Chip>> = vec![Box::new(Echo)];
    let workload = NetWorkload::new("echo", 1, Engine::new(ChipPool::from_chips(chips)));
    let server = EventServer::bind("127.0.0.1:0", vec![workload], EventServerConfig::default())
        .expect("bind server");

    let mut parked: Vec<ClientV2> = Vec::new();
    let mut shares = Vec::new();
    for count in COUNTS {
        while parked.len() < count {
            parked.push(ClientV2::connect(server.addr()).expect("negotiate v2"));
        }
        std::thread::sleep(SETTLE);
        shares.push(cpu_share(window));
    }
    drop(parked);
    server.shutdown();

    let (mut table, mut rows) = (Vec::new(), Vec::new());
    for (count, share) in COUNTS.iter().zip(&shares) {
        let text = share.map_or_else(|| "n/a".into(), |s| format!("{s:.3}"));
        table.push(vec![count.to_string(), text]);
        let json = share.map_or_else(|| "null".into(), |s| json_num(s, 4));
        rows.push(format!("{{\"connections\":{count},\"cpu_share\":{json}}}"));
    }
    eprintln!(
        "== idle_cost: EventServer, {:.2}s windows ==",
        window.as_secs_f64()
    );
    eprintln!("{}", format_table(&["connections", "cpu share"], &table));

    let report = format!(
        "{{\"meta\":{},\"window_s\":{},\
         \"max_one_idle_share\":{MAX_ONE_IDLE_SHARE},\"rows\":[{}]}}",
        json::meta("idle_cost", 0),
        json_num(window.as_secs_f64(), 3),
        rows.join(",")
    );
    json::emit(&report, "MEI_BENCH_JSON");

    let one_idle = COUNTS.iter().zip(&shares).find(|(count, _)| **count == 1);
    if let Some((_, Some(share))) = one_idle {
        assert!(
            *share < MAX_ONE_IDLE_SHARE,
            "one idle connection costs {share:.3} of a core: the event loop spins"
        );
    }
}
