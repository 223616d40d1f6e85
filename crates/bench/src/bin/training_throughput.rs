//! Training-throughput benchmark: sharded data-parallel backprop
//! (`neural::Trainer` with [`neural::TrainConfig::threads`]) on two MEI
//! topologies.
//!
//! The workloads are the §3.1 **expfit** motivation function and the
//! Table 1 **inversek2j** row, both encoded to their B-bit interface view
//! (the exact dataset `MeiRcs::train` backpropagates over) and trained
//! under the Eq (5) MSB-weighted loss. For each thread count in
//! `{1, 2, 4, auto}` the benchmark repeats full `Trainer::train` calls
//! until the measurement window elapses and reports samples/sec,
//! epochs/sec and the speedup over the serial run.
//!
//! Two invariants are *asserted* on every host:
//!
//! * the final loss is bit-identical at every thread count (the
//!   determinism contract), and
//! * when `MEI_BENCH_MIN_SPEEDUP` is set **and** the host has ≥ 2
//!   hardware threads, the 2-thread speedup must reach that floor.
//!
//! On a single-hardware-thread host speedups are reported, never
//! asserted.
//!
//! Environment knobs:
//!
//! * `MEI_BENCH_SECONDS=<f>` — measurement window per thread count
//!   (default 2.0);
//! * `MEI_BENCH_FAST=1` — smoke mode: ~0.2 s windows, small datasets and
//!   one epoch per training call;
//! * `MEI_BENCH_JSON=<path>` — also write the JSON report to a file;
//! * `MEI_BENCH_MIN_SPEEDUP=<f>` — sanity floor on the 2-thread speedup
//!   (only enforced on multi-core hosts);
//! * `MEI_THREADS` is *not* read here: the thread count under test is the
//!   experiment variable.
//!
//! Run with: `cargo run --release -p mei-bench --bin training_throughput`

use std::time::{Duration, Instant};

use interface::InterfaceSpec;
use mei::exponential_bit_weights;
use mei_bench::{fast_mode, format_table, measure_window, table1_setups};
use neural::{Dataset, MlpBuilder, TrainConfig, Trainer, WeightedMse};
use runtime::{json_num, resolve_threads};
use workloads::expfit::ExpFit;
use workloads::Workload;

/// One workload's encoded training problem.
struct Problem {
    name: &'static str,
    layout: Vec<usize>,
    encoded: Dataset,
    loss: WeightedMse,
    batch_size: usize,
}

impl Problem {
    /// Encode a workload's dataset to its B-bit interface view, exactly as
    /// `MeiRcs::train` does before backprop.
    fn new(
        name: &'static str,
        workload: &dyn Workload,
        hidden: usize,
        bits: usize,
        samples: usize,
        seed: u64,
    ) -> Self {
        let data = workload.dataset(samples, seed).expect("workload dataset");
        let input_spec = InterfaceSpec::new(data.input_dim(), bits);
        let output_spec = InterfaceSpec::new(data.output_dim(), bits);
        let encoded = data
            .map_inputs(|x| input_spec.encode(x))
            .expect("input encoding")
            .map_targets(|_, y| output_spec.encode(y))
            .expect("target encoding");
        Self {
            name,
            layout: vec![input_spec.ports(), hidden, output_spec.ports()],
            encoded,
            loss: WeightedMse::new(exponential_bit_weights(&output_spec)),
            batch_size: 16,
        }
    }
}

/// One `(problem, thread count)` measurement.
struct RunResult {
    threads: usize,
    samples_per_sec: f64,
    epochs_per_sec: f64,
    final_loss: f64,
}

impl RunResult {
    fn to_json(&self, speedup: f64) -> String {
        format!(
            "{{\"threads\":{},\"samples_per_sec\":{},\"epochs_per_sec\":{},\
             \"speedup_vs_serial\":{},\"final_loss\":{}}}",
            self.threads,
            json_num(self.samples_per_sec, 1),
            json_num(self.epochs_per_sec, 3),
            json_num(speedup, 4),
            json_num(self.final_loss, 12)
        )
    }
}

/// Repeat full training runs at one thread count until the window elapses.
fn measure(
    problem: &Problem,
    threads: usize,
    epochs_per_call: usize,
    window: Duration,
) -> RunResult {
    let config = TrainConfig {
        epochs: epochs_per_call,
        learning_rate: 0.5,
        batch_size: problem.batch_size,
        threads,
        ..TrainConfig::default()
    };
    let trainer = Trainer::with_loss(config, problem.loss.clone());
    let mut total_epochs = 0usize;
    let start = Instant::now();
    // Every call trains from the same seed, so the final loss is the same
    // number each iteration; the last one is kept for the identity check.
    let final_loss = loop {
        let mut net = MlpBuilder::new(&problem.layout).seed(7).build();
        let report = trainer.train(&mut net, &problem.encoded);
        total_epochs += report.epochs_run;
        if start.elapsed() >= window {
            break report.final_loss;
        }
    };
    let secs = start.elapsed().as_secs_f64();
    RunResult {
        threads,
        samples_per_sec: (total_epochs * problem.encoded.len()) as f64 / secs,
        epochs_per_sec: total_epochs as f64 / secs,
        final_loss,
    }
}

fn main() {
    let fast = fast_mode();
    let window = measure_window(if fast { 0.2 } else { 2.0 });
    let epochs_per_call = if fast { 1 } else { 8 };
    let samples = if fast { 256 } else { 2_000 };

    let inversek2j = table1_setups()
        .into_iter()
        .find(|s| s.workload.name() == "inversek2j")
        .expect("inversek2j is a Table 1 row");
    let problems = [
        Problem::new("expfit", &ExpFit::new(), 32, 8, samples, 11),
        Problem::new(
            "inversek2j",
            inversek2j.workload.as_ref(),
            inversek2j.mei_hidden,
            inversek2j.mei_in_bits,
            samples,
            12,
        ),
    ];

    let auto = resolve_threads(0);
    let mut thread_counts = vec![1usize, 2, 4, auto];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    eprintln!(
        "== training throughput: sharded backprop, {} hardware threads, {:.2}s windows ==",
        auto,
        window.as_secs_f64()
    );

    let min_speedup = prng::env::parse_validated::<f64>(
        "MEI_BENCH_MIN_SPEEDUP",
        "a finite speedup factor > 0",
        |s| s.is_finite() && *s > 0.0,
    );

    let mut sections: Vec<String> = Vec::new();
    for problem in &problems {
        let runs: Vec<RunResult> = thread_counts
            .iter()
            .map(|&t| measure(problem, t, epochs_per_call, window))
            .collect();

        // Determinism contract: the trained loss is a pure function of the
        // configuration — asserted on every host, unlike the speedup.
        let serial_bits = runs[0].final_loss.to_bits();
        for run in &runs[1..] {
            assert_eq!(
                run.final_loss.to_bits(),
                serial_bits,
                "{}: final loss diverged at {} threads",
                problem.name,
                run.threads
            );
        }

        let serial_rate = runs[0].samples_per_sec;
        let speedup_of = |r: &RunResult| {
            if serial_rate > 0.0 {
                r.samples_per_sec / serial_rate
            } else {
                1.0
            }
        };

        let rows: Vec<Vec<String>> = runs
            .iter()
            .map(|r| {
                vec![
                    r.threads.to_string(),
                    format!("{:.0}", r.samples_per_sec),
                    format!("{:.2}", r.epochs_per_sec),
                    format!("{:.2}×", speedup_of(r)),
                ]
            })
            .collect();
        eprintln!(
            "-- {} ({:?}, {} samples) --\n{}",
            problem.name,
            problem.layout,
            problem.encoded.len(),
            format_table(&["threads", "samples/s", "epochs/s", "speedup"], &rows)
        );

        if let Some(floor) = min_speedup {
            let two = runs.iter().find(|r| r.threads == 2).map(speedup_of);
            match two {
                Some(s) if auto >= 2 => {
                    assert!(
                        s >= floor,
                        "{}: 2-thread speedup {s:.2}× below the {floor:.2}× floor",
                        problem.name
                    );
                }
                _ => eprintln!(
                    "   ({} hardware threads — MEI_BENCH_MIN_SPEEDUP floor not enforced)",
                    auto
                ),
            }
        }

        let body: Vec<String> = runs.iter().map(|r| r.to_json(speedup_of(r))).collect();
        sections.push(format!(
            "{{\"name\":\"{}\",\"layout\":{:?},\"samples\":{},\"batch_size\":{},\"runs\":[{}]}}",
            problem.name,
            problem.layout,
            problem.encoded.len(),
            problem.batch_size,
            body.join(",")
        ));
    }

    match min_speedup {
        Some(floor) if auto >= 2 => eprintln!(
            "(2-thread speedups on a {auto}-hardware-thread host held the {floor:.2}× floor; \
             the other speedups are reported, not asserted)"
        ),
        _ => eprintln!("(speedups on a {auto}-hardware-thread host are reported, not asserted)"),
    }

    // Every net in this bench trains from the fixed seed 7 (see
    // `MlpBuilder::seed` above), so that is the run's root seed.
    let meta = mei_bench::json::meta("training_throughput", 7);
    let json = format!(
        "{{\"meta\":{meta},\"suite\":\"training_throughput\",\"hardware_threads\":{},\
         \"window_secs\":{:.3},\
         \"epochs_per_call\":{},\"workloads\":[{}]}}",
        auto,
        window.as_secs_f64(),
        epochs_per_call,
        sections.join(",")
    );
    mei_bench::json::emit(&json, "MEI_BENCH_JSON");
}
