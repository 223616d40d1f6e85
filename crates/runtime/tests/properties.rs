//! Property-based tests for the parallel runtime, on the in-repo
//! deterministic harness (`prng::prop`), plus the pool's poison/panic
//! contract.
//!
//! The load-bearing property is the determinism rule: for task closures
//! that are pure functions of `(task_index, item)`, a parallel map is
//! bit-identical to the serial one for *every* thread count — that is
//! what lets the Monte-Carlo and SAAB hot paths parallelize without
//! changing a single recorded result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use prng::{prop_check, substream};
use runtime::net::{
    format_csv, parse_csv, Client, EventServer, EventServerConfig, NetWorkload, Response,
};
use runtime::{Chip, ChipPool, Engine, LeastLoaded, RoundRobin, ThreadPool};

/// Parallel map equals the serial map, for arbitrary inputs, task counts
/// and thread counts.
#[test]
fn par_map_matches_serial_for_any_shape() {
    prop_check!(|g| {
        let n = g.usize_in(0, 40);
        let items: Vec<u64> = (0..n).map(|_| g.u64_any()).collect();
        let root = g.u64_any();
        let threads = g.usize_in(1, 9);
        let task = |i: usize, x: &u64| substream(root, i as u64).wrapping_add(*x);
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| task(i, x)).collect();
        let parallel = ThreadPool::new(threads).par_map(&items, task);
        assert_eq!(parallel, serial);
    });
}

/// A toy chip whose output is a pure function of its manufacture seed.
struct SeededChip {
    offset: f64,
}

impl Chip for SeededChip {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|x| x + self.offset).collect()
    }
}

fn seeded_pool(root: u64, n: usize) -> ChipPool<SeededChip> {
    ChipPool::manufacture(root, n, |_, seed| SeededChip {
        offset: (seed % 997) as f64,
    })
}

/// Serving a batch is deterministic: same pool, same batch, same
/// placement → bit-identical outputs, for arbitrary batches and pool
/// sizes, under both placement policies.
#[test]
fn chip_pool_outputs_are_deterministic() {
    prop_check!(|g| {
        let root = g.u64_any();
        let chips = g.usize_in(1, 6);
        let n = g.usize_in(1, 24);
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let len = g.usize_in(1, 5);
                g.vec_f64(0.0, 1.0, len)
            })
            .collect();
        for engine in [
            Engine::new(seeded_pool(root, chips)).with_policy(RoundRobin),
            Engine::new(seeded_pool(root, chips)).with_policy(LeastLoaded),
        ] {
            let a = engine.serve(&inputs);
            let b = engine.serve(&inputs);
            assert_eq!(a.outputs, b.outputs);
            // And the outputs follow the published assignment exactly.
            let costs: Vec<usize> = inputs.iter().map(Vec::len).collect();
            let assignment = engine.assignment(&costs);
            for (i, out) in a.outputs.iter().enumerate() {
                let expect: Vec<f64> = inputs[i]
                    .iter()
                    .map(|x| x + engine.pool().chips()[assignment[i]].offset)
                    .collect();
                assert_eq!(out, &expect);
            }
        }
    });
}

/// Least-loaded placement never assigns a request to a chip whose load
/// exceeds the minimum by more than the request costs seen so far allow —
/// concretely, final loads differ by at most the largest request cost.
#[test]
fn least_loaded_keeps_loads_balanced() {
    prop_check!(|g| {
        let chips = g.usize_in(1, 6);
        let n = g.usize_in(1, 30);
        let costs: Vec<usize> = (0..n).map(|_| g.usize_in(1, 20)).collect();
        let engine = Engine::new(seeded_pool(1, chips)).with_policy(LeastLoaded);
        let assignment = engine.assignment(&costs);
        let mut load = vec![0usize; chips];
        for (&chip, &cost) in assignment.iter().zip(&costs) {
            load[chip] += cost;
        }
        let max_cost = *costs.iter().max().expect("non-empty");
        let lo = *load.iter().min().expect("non-empty");
        let hi = *load.iter().max().expect("non-empty");
        assert!(
            hi - lo <= max_cost,
            "imbalance {} exceeds max request cost {max_cost}",
            hi - lo
        );
    });
}

/// Rendezvous hashing is minimally disruptive: evicting one pool moves
/// only the keys that ranked the victim first — every surviving pool
/// keeps its relative order for every key, and the moved keys land on
/// their next-ranked survivor. This is the invariant that makes fleet
/// failover reproducible: `Fleet::eject` is exactly an eviction here.
#[test]
fn rendezvous_eviction_moves_only_the_victims_keys() {
    use runtime::fleet::router::{rank, top};
    prop_check!(|g| {
        let seed = g.u64_any();
        let n_pools = g.usize_in(2, 8);
        // Arbitrary distinct pool identities, not just 0..n.
        let mut pool_ids: Vec<u64> = Vec::new();
        while pool_ids.len() < n_pools {
            let id = g.u64_any();
            if !pool_ids.contains(&id) {
                pool_ids.push(id);
            }
        }
        let victim = g.usize_in(0, n_pools - 1);
        let survivors: Vec<u64> = pool_ids
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| i != victim)
            .map(|(_, id)| id)
            .collect();
        for _ in 0..g.usize_in(1, 24) {
            let key = g.u64_any();
            let before: Vec<u64> = rank(seed, key, &pool_ids)
                .into_iter()
                .map(|i| pool_ids[i])
                .collect();
            let after: Vec<u64> = rank(seed, key, &survivors)
                .into_iter()
                .map(|i| survivors[i])
                .collect();
            // The survivors' ranking is the old ranking minus the victim.
            let expect: Vec<u64> = before
                .iter()
                .copied()
                .filter(|&id| id != pool_ids[victim])
                .collect();
            assert_eq!(after, expect, "eviction must not reorder survivors");
            // Routing moves iff the victim was this key's first choice,
            // and then lands exactly on the key's second choice.
            if before[0] == pool_ids[victim] {
                assert_eq!(after[0], before[1], "moved key must take its next rank");
            } else {
                assert_eq!(after[0], before[0], "non-victim keys must not move");
            }
            assert_eq!(
                top(seed, key, &survivors).map(|i| survivors[i]),
                Some(after[0]),
                "top must agree with rank"
            );
        }
    });
}

/// The poison/panic contract, end to end: a panicking task neither
/// deadlocks nor poisons the pool — the batch's remaining tasks all
/// complete, the panic payload reaches the caller, and the same pool
/// value serves the next batch normally.
#[test]
fn panicking_task_does_not_poison_the_pool() {
    let pool = ThreadPool::new(4);
    let items: Vec<usize> = (0..50).collect();
    let completed = AtomicUsize::new(0);

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pool.par_map(&items, |i, _| {
            if i == 17 || i == 31 {
                panic!("injected failure in task {i}");
            }
            completed.fetch_add(1, Ordering::SeqCst);
        })
    }));

    let payload = outcome.expect_err("panic must be surfaced, not swallowed");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is the format string");
    assert_eq!(
        message, "injected failure in task 17",
        "lowest task index wins deterministically"
    );
    assert_eq!(
        completed.load(Ordering::SeqCst),
        48,
        "all non-panicking tasks must have run"
    );

    // No deadlock, no poisoned state: the pool still works.
    let doubled = pool.par_map(&items, |_, &x| 2 * x);
    assert_eq!(doubled[49], 98);
}

/// The wire protocol's CSV codec is bit-exact on arbitrary finite f64s:
/// encode → parse returns the identical bit patterns, including
/// negative zero, subnormals, and extreme exponents drawn from raw bit
/// patterns (not just "nice" values).
#[test]
fn wire_csv_round_trips_arbitrary_finite_f64_bit_exactly() {
    prop_check!(|g| {
        let n = g.usize_in(1, 32);
        let values: Vec<f64> = (0..n)
            .map(|_| loop {
                let v = f64::from_bits(g.u64_any());
                if v.is_finite() {
                    break v;
                }
            })
            .collect();
        let parsed = parse_csv(&format_csv(&values)).expect("round trip parses");
        let bits: Vec<u64> = parsed.iter().map(|v| v.to_bits()).collect();
        let expect: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expect, "CSV must be a bit-exact encoding");
        // The full response line round-trips too.
        let ok = Response::Ok {
            chip: g.usize_in(0, 64),
            latency_us: u128::from(g.u64_any()),
            output: values,
        };
        assert_eq!(Response::parse(&ok.format()), Ok(ok));
    });
}

/// Malformed and oversized request lines always answer `err` in-band and
/// never corrupt the connection's session state machine: valid requests
/// interleaved with arbitrary abuse still visit exactly the chips an
/// in-process twin session predicts.
#[test]
fn wire_protocol_abuse_yields_err_without_corrupting_sessions() {
    const MAX_LINE: usize = 256;
    let make_engine = || {
        Engine::new(ChipPool::manufacture(11, 3, |_, seed| SeededChip {
            offset: (seed % 997) as f64,
        }))
    };
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::new(
            "prop",
            2,
            Engine::new(
                ChipPool::manufacture(11, 3, |_, seed| SeededChip {
                    offset: (seed % 997) as f64,
                })
                .boxed(),
            ),
        )],
        EventServerConfig {
            workers: 1,
            max_line_bytes: MAX_LINE,
            ..EventServerConfig::default()
        },
    )
    .expect("bind ephemeral");

    prop_check!(|g| {
        let twin = make_engine();
        let mut session = twin.session();
        let mut client = Client::connect(server.addr()).expect("connect");
        let rounds = g.usize_in(1, 12);
        for _ in 0..rounds {
            match g.usize_in(0, 4) {
                // Valid request: must be ok, on the twin's predicted chip,
                // with the twin's exact bits.
                0 => {
                    let input = vec![g.f64_in(-8.0, 8.0), g.f64_in(-8.0, 8.0)];
                    let expect = twin.serve_one(&mut session, &input);
                    match client.request("prop", &input).expect("round trip") {
                        Response::Ok { chip, output, .. } => {
                            assert_eq!(chip, expect.chip, "session state diverged");
                            assert_eq!(output, expect.output);
                        }
                        Response::Error(e) => panic!("valid request rejected: {e}"),
                    }
                }
                // No-space garbage.
                1 => {
                    client.send_raw("garbage-no-space").expect("send");
                    assert!(matches!(client.recv().expect("recv"), Response::Error(_)));
                }
                // Unknown workload.
                2 => {
                    client.send_raw("nosuch 1,2").expect("send");
                    assert!(matches!(client.recv().expect("recv"), Response::Error(_)));
                }
                // Malformed number.
                3 => {
                    client.send_raw("prop 1.0,not-a-number").expect("send");
                    assert!(matches!(client.recv().expect("recv"), Response::Error(_)));
                }
                // Wrong arity (1 or 3+ values against input_dim 2).
                _ => {
                    let wrong = if g.usize_in(0, 1) == 0 {
                        1
                    } else {
                        g.usize_in(3, 6)
                    };
                    let input = g.vec_f64(-1.0, 1.0, wrong);
                    match client.request("prop", &input).expect("round trip") {
                        Response::Error(message) => {
                            assert!(message.contains("wrong arity"), "{message}");
                        }
                        other => panic!("expected arity err, got {other:?}"),
                    }
                }
            }
        }
        // After all abuse, the connection still serves and the session
        // machine is exactly where the twin says it should be.
        let input = vec![0.25, -0.75];
        let expect = twin.serve_one(&mut session, &input);
        match client.request("prop", &input).expect("final round trip") {
            Response::Ok { chip, output, .. } => {
                assert_eq!(chip, expect.chip, "abuse advanced the session");
                assert_eq!(output, expect.output);
            }
            Response::Error(e) => panic!("healthy request rejected: {e}"),
        }
    });
    server.shutdown();
}

/// An oversized line gets an in-band `err`, a clean close on that
/// connection, and no interference with other connections — for any
/// over-cap length.
#[test]
fn oversized_lines_always_err_and_close_only_their_own_connection() {
    const MAX_LINE: usize = 128;
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::new(
            "prop",
            2,
            Engine::new(
                ChipPool::manufacture(11, 3, |_, seed| SeededChip {
                    offset: (seed % 997) as f64,
                })
                .boxed(),
            ),
        )],
        EventServerConfig {
            workers: 2,
            max_line_bytes: MAX_LINE,
            ..EventServerConfig::default()
        },
    )
    .expect("bind ephemeral");
    prop_check!(|g| {
        let mut survivor = Client::connect(server.addr()).expect("connect survivor");
        assert!(matches!(
            survivor.request("prop", &[1.0, 2.0]).expect("warm up"),
            Response::Ok { .. }
        ));
        let mut abuser = Client::connect(server.addr()).expect("connect abuser");
        let extra = g.usize_in(1, 512);
        let line = format!("prop {}", "7,".repeat((MAX_LINE + extra) / 2));
        abuser.send_raw(&line).expect("send oversized");
        match abuser.recv().expect("err before close") {
            Response::Error(message) => assert!(message.contains("exceeds"), "{message}"),
            other => panic!("expected err, got {other:?}"),
        }
        assert!(abuser.recv().is_err(), "oversized line must close");
        assert!(matches!(
            survivor
                .request("prop", &[3.0, 4.0])
                .expect("survivor serves"),
            Response::Ok { .. }
        ));
    });
    server.shutdown();
}

/// Open-loop serving honours arrivals and reports sane statistics.
#[test]
fn open_loop_stats_are_consistent() {
    let engine = Engine::new(seeded_pool(3, 2)).with_policy(RoundRobin);
    let inputs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
    let arrivals: Vec<Duration> = (0..8).map(|i| Duration::from_micros(200 * i)).collect();
    let outcome = engine.serve_open_loop(&inputs, &arrivals);
    let stats = &outcome.stats;
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.per_chip.iter().map(|c| c.served).sum::<usize>(), 8);
    assert!(stats.wall_secs >= 1.4e-3, "last arrival bounds the wall");
    assert!(stats.p50_latency_us <= stats.p99_latency_us);
    assert!(stats.p99_latency_us <= stats.max_latency_us);
    for chip in &stats.per_chip {
        assert!((0.0..=1.0).contains(&chip.utilization));
    }
}

/// Any f64 bit pattern — NaN payloads, infinities, subnormals, negative
/// zero — survives a v2 request-frame encode/decode round trip
/// bit-exactly. The wire carries raw little-endian bits, never a
/// decimal rendering.
#[test]
fn v2_request_frames_round_trip_any_f64_bits() {
    use runtime::net::frame::{decode, DecodeStep, Frame, RequestFrame, DEFAULT_MAX_FRAME_BYTES};
    prop_check!(|g| {
        let count = g.usize_in(1, 6);
        let dim = g.usize_in(1, 5);
        let values: Vec<f64> = (0..count * dim)
            .map(|_| f64::from_bits(g.u64_any()))
            .collect();
        let frame = RequestFrame {
            workload: g.u16_any(),
            count: count as u32,
            values: values.clone(),
        };
        let bytes = Frame::Request(frame.clone()).encode();
        match decode(&bytes, DEFAULT_MAX_FRAME_BYTES) {
            DecodeStep::Frame(Frame::Request(back), consumed) => {
                assert_eq!(consumed, bytes.len(), "whole frame consumed");
                assert_eq!(back.workload, frame.workload);
                assert_eq!(back.count, frame.count);
                let sent: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = back.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, sent, "payload bits must survive the wire");
            }
            other => panic!("round trip failed: {other:?}"),
        }
    });
}

/// Response frames round-trip every status and arbitrary output bits.
#[test]
fn v2_response_frames_round_trip_any_items() {
    use runtime::net::frame::{
        decode, DecodeStep, Frame, ItemResponse, ResponseFrame, DEFAULT_MAX_FRAME_BYTES,
    };
    prop_check!(|g| {
        let items: Vec<ItemResponse> = (0..g.usize_in(1, 8))
            .map(|_| match g.usize_in(0, 2) {
                0 => ItemResponse::Ok {
                    chip: g.u64_any() as u32,
                    latency_us: g.u64_any() as u32,
                    output: (0..g.usize_in(0, 4))
                        .map(|_| f64::from_bits(g.u64_any()))
                        .collect(),
                },
                1 => ItemResponse::Shed,
                _ => ItemResponse::Err(format!("e{}", g.u64_any())),
            })
            .collect();
        let frame = ResponseFrame {
            workload: g.u16_any(),
            items,
        };
        let bytes = Frame::Response(frame.clone()).encode();
        match decode(&bytes, DEFAULT_MAX_FRAME_BYTES) {
            DecodeStep::Frame(Frame::Response(back), consumed) => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(back.workload, frame.workload);
                assert_eq!(back.items.len(), frame.items.len());
                for (a, b) in frame.items.iter().zip(&back.items) {
                    match (a, b) {
                        (
                            ItemResponse::Ok {
                                chip,
                                latency_us,
                                output,
                            },
                            ItemResponse::Ok {
                                chip: c2,
                                latency_us: l2,
                                output: o2,
                            },
                        ) => {
                            assert_eq!(chip, c2);
                            assert_eq!(latency_us, l2);
                            let x: Vec<u64> = output.iter().map(|v| v.to_bits()).collect();
                            let y: Vec<u64> = o2.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(x, y);
                        }
                        (ItemResponse::Shed, ItemResponse::Shed) => {}
                        (ItemResponse::Err(m), ItemResponse::Err(m2)) => assert_eq!(m, m2),
                        (a, b) => panic!("status flipped: {a:?} vs {b:?}"),
                    }
                }
            }
            other => panic!("round trip failed: {other:?}"),
        }
    });
}

/// The decoder classifies arbitrary prefixes and corruptions without
/// panicking: every truncation of a valid frame is `Incomplete`, and a
/// corrupted body is either a `Corrupt` that consumes exactly the frame
/// or (if the length field got clobbered) `Incomplete`/`Fatal` —
/// never a panic, never consuming past the frame.
#[test]
fn v2_decoder_classifies_truncation_and_garbage_without_panicking() {
    use runtime::net::frame::{decode, DecodeStep, Frame, RequestFrame, DEFAULT_MAX_FRAME_BYTES};
    prop_check!(|g| {
        let count = g.usize_in(1, 4);
        let dim = g.usize_in(1, 4);
        let inputs: Vec<Vec<f64>> = (0..count).map(|_| g.vec_f64(-1.0, 1.0, dim)).collect();
        let bytes = Frame::Request(RequestFrame::from_inputs(g.u16_any(), &inputs)).encode();

        // Every strict prefix is Incomplete.
        let cut = g.usize_in(0, bytes.len() - 1);
        assert!(
            matches!(
                decode(&bytes[..cut], DEFAULT_MAX_FRAME_BYTES),
                DecodeStep::Incomplete
            ),
            "prefix of {cut} bytes must be Incomplete"
        );

        // Clobber one byte anywhere: the decoder must classify, not panic.
        let mut mangled = bytes.clone();
        let at = g.usize_in(0, mangled.len() - 1);
        mangled[at] ^= (g.u64_any() as u8) | 1;
        match decode(&mangled, DEFAULT_MAX_FRAME_BYTES) {
            DecodeStep::Frame(_, consumed) | DecodeStep::Corrupt(_, consumed) => {
                assert!(consumed <= mangled.len(), "never consume past the buffer");
            }
            DecodeStep::Incomplete | DecodeStep::Fatal(_) => {
                // A clobbered length field may demand more bytes or blow
                // the frame cap; both are in-band outcomes.
            }
        }
    });
}

/// A byte stream of several valid v2 frames or v1 lines yields the same
/// event sequence through a `ConnMachine` regardless of how the stream is
/// chopped into reads — the sans-IO layer is agnostic to TCP
/// segmentation — and after every drain `buffered()` counts exactly the
/// bytes fed but not yet decoded.
#[test]
fn conn_machine_events_are_invariant_under_read_segmentation() {
    use runtime::net::conn::{ConnEvent, ConnMachine};
    use runtime::net::format_csv;
    use runtime::net::frame::{Frame, RequestFrame, DEFAULT_MAX_FRAME_BYTES};
    prop_check!(|g| {
        // One unit per expected event: its wire bytes and the event.
        let v2 = g.bool_any();
        let mut units: Vec<(Vec<u8>, ConnEvent)> = Vec::new();
        if v2 {
            units.push((b"v2\n".to_vec(), ConnEvent::NegotiatedV2));
        }
        for _ in 0..g.usize_in(1, 65) {
            let count = g.usize_in(1, 3);
            let dim = g.usize_in(1, 3);
            let inputs: Vec<Vec<f64>> = (0..count).map(|_| g.vec_f64(-2.0, 2.0, dim)).collect();
            let workload = g.u16_any();
            units.push(if v2 {
                let request = RequestFrame::from_inputs(workload, &inputs);
                (
                    Frame::Request(request.clone()).encode(),
                    ConnEvent::Request(request),
                )
            } else {
                let line = format!("w{workload} {}", format_csv(&inputs[0]));
                let end = if g.bool_any() { "\r\n" } else { "\n" };
                (format!("{line}{end}").into_bytes(), ConnEvent::Line(line))
            });
        }
        let stream: Vec<u8> = units.iter().flat_map(|(bytes, _)| bytes.clone()).collect();
        let expected: Vec<ConnEvent> = units.iter().map(|(_, event)| event.clone()).collect();

        let drive = |chunks: &[usize]| -> Vec<ConnEvent> {
            let mut machine = ConnMachine::new(256, DEFAULT_MAX_FRAME_BYTES);
            let mut events = Vec::new();
            let mut fed = 0usize;
            // The last read delivers whatever the chunks left over.
            for chunk in chunks.iter().copied().chain([stream.len()]) {
                let end = (fed + chunk).min(stream.len());
                machine.feed(&stream[fed..end]);
                fed = end;
                while let Some(event) = machine.poll() {
                    events.push(event);
                }
                let decoded: usize = units[..events.len()].iter().map(|(b, _)| b.len()).sum();
                assert_eq!(machine.buffered(), fed - decoded, "undecoded bytes");
            }
            events
        };

        // One big read vs arbitrary segmentation.
        let whole = drive(&[]);
        let cuts: Vec<usize> = (0..g.usize_in(1, 2 * units.len() + 8))
            .map(|_| g.usize_in(0, 64))
            .collect();
        let chopped = drive(&cuts);
        assert_eq!(whole, chopped, "segmentation must not change events");
        assert_eq!(whole, expected, "every unit decodes exactly once");
    });
}

/// The accounting layer's determinism contract: fleet totals are the
/// bitwise pool-order/chip-order sum of the individual cost sheets, and
/// are invariant under serve-thread count (pool sizing) and arbitrary
/// ejection/re-admission histories — the silicon's bill never depends on
/// what the router did.
#[test]
fn fleet_accounting_is_the_bitwise_sum_and_ignores_health_history() {
    use runtime::{ChipCostSheet, EjectReason, Fleet, FleetConfig};

    /// A chip billing a sheet derived from its manufacture seed, so every
    /// chip in the property carries distinct, irregular numbers.
    struct BilledChip {
        sheet: Option<ChipCostSheet>,
    }

    impl Chip for BilledChip {
        fn infer(&self, input: &[f64]) -> Vec<f64> {
            input.to_vec()
        }

        fn cost_sheet(&self) -> Option<ChipCostSheet> {
            self.sheet
        }
    }

    prop_check!(|g| {
        let root = g.u64_any();
        let pools = g.usize_in(1, 4);
        let chips_per_pool = g.usize_in(1, 4);
        let build = |root: u64| -> Fleet<BilledChip> {
            let engines: Vec<Engine<BilledChip>> = (0..pools)
                .map(|p| {
                    let pool_seed = substream(root, p as u64);
                    Engine::new(ChipPool::manufacture(
                        pool_seed,
                        chips_per_pool,
                        |_, seed| BilledChip {
                            // Roughly one chip in five is unaccounted.
                            sheet: (seed % 5 != 0).then(|| {
                                ChipCostSheet::new(
                                    1.0 + (seed % 10_007) as f64 / 3.0,
                                    (seed % 997) as f64 / 7.0,
                                    (seed % 89) as f64 * 1e-9,
                                    (seed % 33) as f64,
                                )
                            }),
                        },
                    ))
                })
                .collect();
            Fleet::new(engines, FleetConfig::new(root))
        };

        let mut fleet = build(root);
        let baseline = fleet.accounting();

        // 1. The rollup is the bitwise naive sum over pools and chips:
        // chip-order subtotals per pool, pool-order total per fleet
        // (the documented two-level shape — a flat sum would differ by
        // float non-associativity).
        let mut area = 0.0f64;
        let mut leakage = 0.0f64;
        let mut known = 0usize;
        for p in 0..fleet.len() {
            let mut pool_area = 0.0f64;
            let mut pool_leakage = 0.0f64;
            for chip in fleet.engine(p).pool().chips() {
                if let Some(sheet) = chip.cost_sheet() {
                    pool_area += sheet.area_um2;
                    pool_leakage += sheet.leakage_uw;
                    known += 1;
                }
            }
            assert_eq!(baseline.per_pool[p].area_um2.to_bits(), pool_area.to_bits());
            area += pool_area;
            leakage += pool_leakage;
        }
        assert_eq!(baseline.area_um2.to_bits(), area.to_bits());
        assert_eq!(baseline.leakage_uw.to_bits(), leakage.to_bits());
        assert_eq!(baseline.known_chips, known);
        assert_eq!(baseline.chips, pools * chips_per_pool);
        assert_eq!(baseline.per_pool.len(), pools);

        // 2. Invariant under an arbitrary ejection/re-admission history.
        for _ in 0..g.usize_in(0, 9) {
            let pool = g.usize_in(0, pools);
            if g.usize_in(0, 2) == 0 {
                fleet.eject(pool, EjectReason::Manual);
            } else {
                fleet.readmit(pool);
            }
            assert_eq!(fleet.accounting(), baseline);
        }

        // 3. Invariant under pool sizing of the serving side: a rebuilt
        // fleet (fresh engines, same seeds) bills identically — thread
        // count per pool equals chip count, so this is the serve-thread
        // invariance at the accounting level.
        assert_eq!(build(root).accounting(), baseline);
    });
}

/// The serving fold, pinned end to end on a gated fleet: a pipelined
/// session batch is the one-at-a-time `offer_one` fold, and an
/// admission-gated open-loop run is the `offer_one` fold with
/// per-request arrivals — same chips, same sheds, same bits, same
/// session counters — for arbitrary inputs, frame splits, arrival
/// schedules and policies, on a 3-pool R = 2 fleet whose gate sheds.
#[test]
fn session_batches_and_admitted_runs_equal_the_offer_one_fold() {
    use runtime::{
        AdmissionConfig, BatchItem, Fleet, FleetConfig, Offer, PlacementPolicy, SizeAware,
    };

    let bits = |values: &[f64]| -> Vec<u64> { values.iter().map(|v| v.to_bits()).collect() };
    let (mut saw_shed, mut saw_served) = (false, false);
    prop_check!(|g| {
        let root = g.u64_any();
        let chips: Vec<usize> = (0..3).map(|_| g.usize_in(1, 4)).collect();
        let policy = g.usize_in(0, 3);
        // Costs are input lengths (1..=4) at 10 µs per unit: a frame of a
        // few requests on one chip overruns a bound of up to 100 µs.
        let admission = AdmissionConfig {
            max_delay_secs: g.f64_in(0.0, 1e-4),
            secs_per_cost: 1e-5,
        };
        let engine = |pool: usize| {
            let policy: Box<dyn PlacementPolicy> = match policy {
                0 => Box::new(RoundRobin),
                1 => Box::new(LeastLoaded),
                _ => Box::new(SizeAware),
            };
            Engine::new(seeded_pool(substream(root, pool as u64), chips[pool]))
                .with_boxed_policy(policy)
                .with_admission(admission)
        };
        let fleet = Fleet::new(
            (0..3).map(engine).collect(),
            FleetConfig::new(root).with_replication(2),
        );

        let n = g.usize_in(1, 40);
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let len = g.usize_in(1, 5);
                g.vec_f64(-1.0, 1.0, len)
            })
            .collect();
        // Random frame splits, each stamped with a nondecreasing arrival.
        let mut frames: Vec<(std::ops::Range<usize>, f64)> = Vec::new();
        let (mut start, mut arrival) = (0usize, 0.0f64);
        while start < n {
            let end = (start + g.usize_in(1, 9)).min(n);
            arrival += g.f64_in(0.0, 3e-5);
            frames.push((start..end, arrival));
            start = end;
        }

        // 1. Fleet: session batches over the splits ≡ offer_one per request.
        let mut batched = fleet.session("prop");
        let mut one = fleet.session("prop");
        for (range, arrival) in &frames {
            let items =
                fleet.serve_session_batch(&mut batched, &inputs[range.clone()], Some(*arrival));
            assert_eq!(items.len(), range.len());
            for (item, input) in items.iter().zip(&inputs[range.clone()]) {
                match (item, fleet.offer_one(&mut one, input, *arrival)) {
                    (BatchItem::Served(b), Offer::Served(o)) => {
                        assert_eq!(b.chip, o.chip, "global chip diverged");
                        assert_eq!(bits(&b.output), bits(&o.output), "output bits diverged");
                        saw_served = true;
                    }
                    (
                        BatchItem::Shed {
                            chip,
                            estimated_wait_secs,
                        },
                        Offer::Shed {
                            chip: c,
                            estimated_wait_secs: w,
                        },
                    ) => {
                        assert_eq!(*chip, c, "shed chip diverged");
                        assert_eq!(estimated_wait_secs.to_bits(), w.to_bits());
                        saw_shed = true;
                    }
                    (b, o) => panic!("batch item {b:?} but offer_one {o:?}"),
                }
            }
        }
        assert_eq!(batched.routed(), one.routed());
        assert_eq!(batched.served(), one.served());

        // 2. Engine: the admitted open-loop run ≡ offer_one with
        // per-request arrivals.
        let arrivals: Vec<f64> = frames
            .iter()
            .flat_map(|(range, arrival)| range.clone().map(move |_| *arrival))
            .collect();
        let engine = fleet.engine(g.usize_in(0, 3));
        let offsets: Vec<Duration> = arrivals
            .iter()
            .map(|&a| Duration::from_secs_f64(a))
            .collect();
        let run = engine.serve_open_loop_admitted(&inputs, &offsets);
        let mut session = engine.session();
        let (mut admitted, mut shed, mut outputs) = (Vec::new(), Vec::new(), Vec::new());
        for (i, input) in inputs.iter().enumerate() {
            match engine.offer_one(&mut session, input, offsets[i].as_secs_f64()) {
                Offer::Served(served) => {
                    admitted.push(i);
                    outputs.push(bits(&served.output));
                }
                Offer::Shed { .. } => shed.push(i),
            }
        }
        assert_eq!(run.admitted, admitted, "admitted indices diverged");
        assert_eq!(run.shed, shed, "shed indices diverged");
        assert_eq!(Some(run.gate_stats), session.gate_stats());
        let run_outputs: Vec<Vec<u64>> = run
            .outcome
            .map(|o| o.outputs.iter().map(|v| bits(v)).collect())
            .unwrap_or_default();
        assert_eq!(run_outputs, outputs, "admitted bits diverged");
    });
    assert!(
        saw_served && saw_shed,
        "the property must exercise both fates"
    );
}
