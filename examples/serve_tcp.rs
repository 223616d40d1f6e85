//! TCP serving quickstart: expose a chip pool on loopback and query it
//! over both generations of the wire protocol.
//!
//! The front-end (`runtime::net`) is hermetic `std::net` with no HTTP
//! stack. Two protocols share one port:
//!
//! * **v1 (text)** — `workload SP f64-csv LF` in, `ok SP chip SP
//!   latency-µs SP f64-csv LF` (or `err SP message LF`) out; one request
//!   per round trip.
//! * **v2 (binary)** — the client's first line `v2\n` upgrades the
//!   connection to length-prefixed frames carrying whole request batches
//!   (bit-exact little-endian f64 payloads), and the client may pipeline
//!   many frames before reading any response.
//!
//! Each connection gets its own placement session, so the chip sequence
//! (and therefore the response bits) is a pure function of that
//! connection's request order, whatever else the server serves — and
//! identical across v1 and v2.
//!
//! This example trains a small MEI system, serves it from one
//! event-driven `EventServer`, queries it with the v1 `Client` and the
//! batch `ClientV2` on the same port, shows in-band protocol errors on
//! both, and shuts the server down gracefully.
//!
//! Run with: `cargo run --release --example serve_tcp`

use mei::{manufacture_chips, MeiConfig, MeiRcs};
use neural::{Dataset, TrainConfig};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use runtime::net::frame::ItemResponse;
use runtime::net::{Client, ClientV2, EventServer, EventServerConfig, NetWorkload, Response};
use runtime::Engine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train a small MEI system on exp(−x²).
    let mut rng = StdRng::seed_from_u64(1);
    let train = Dataset::generate(1_500, &mut rng, |r| {
        let x: f64 = r.gen();
        (vec![x], vec![(-x * x).exp()])
    })?;
    let mei = MeiRcs::train(
        &train,
        &MeiConfig {
            hidden: 8,
            seed: 1,
            train: TrainConfig {
                epochs: 40,
                learning_rate: 0.8,
                ..TrainConfig::default()
            },
            ..MeiConfig::default()
        },
    )?;

    // A 4-chip pool behind the default least-loaded policy, published as
    // the workload "expfit" (1 input element per request). One readiness
    // thread holds every connection and runs inference on its crew.
    let engine = Engine::new(manufacture_chips(&mei, 4, 0.02, 42).boxed());
    let server = EventServer::bind(
        "127.0.0.1:0",
        vec![NetWorkload::new("expfit", 1, engine)],
        EventServerConfig::default(),
    )?;
    let addr = server.addr();
    println!("serving 'expfit' on {addr}");

    // A v1 client never negotiates: its first line is a request, so the
    // connection stays on text lines.
    let mut client = Client::connect(addr)?;
    for i in 0..4 {
        let x = f64::from(i) / 4.0;
        match client.request("expfit", &[x])? {
            Response::Ok {
                chip,
                latency_us,
                output,
            } => println!(
                "expfit({x:.2}) = {:.4}  (exact {:.4}, chip {chip}, {latency_us} µs)",
                output[0],
                (-x * x).exp()
            ),
            Response::Error(e) => println!("expfit({x:.2}) rejected: {e}"),
        }
    }

    // Protocol errors come back in-band; the connection stays usable.
    match client.request("expfit", &[0.1, 0.2])? {
        Response::Error(e) => println!("wrong arity     → err {e}"),
        Response::Ok { .. } => unreachable!("arity is validated server-side"),
    }
    match client.request("no_such_workload", &[0.5])? {
        Response::Error(e) => println!("unknown workload → err {e}"),
        Response::Ok { .. } => unreachable!("workload names are validated"),
    }

    // `ClientV2::connect` sends the `v2` upgrade line on a new connection
    // to the same port and parses the server's workload directory from
    // the negotiation reply.
    println!("\nprotocol v2 on the same port");
    let mut v2 = ClientV2::connect(addr)?;
    println!("negotiated workloads: {:?}", v2.workloads());

    // One frame carries a whole batch; responses come back in request
    // order with the same bits v1 would have produced.
    let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![f64::from(i) / 4.0]).collect();
    for (input, item) in inputs.iter().zip(v2.request_batch("expfit", &inputs)?) {
        match item {
            ItemResponse::Ok {
                chip,
                latency_us,
                output,
            } => println!(
                "expfit({:.2}) = {:.4}  (exact {:.4}, chip {chip}, {latency_us} µs)",
                input[0],
                output[0],
                (-input[0] * input[0]).exp()
            ),
            ItemResponse::Shed => println!("expfit({:.2}) shed", input[0]),
            ItemResponse::Err(e) => println!("expfit({:.2}) rejected: {e}", input[0]),
        }
    }

    // Per-request errors are in-band and do not poison batch siblings.
    let mixed = v2.request_batch("expfit", &[vec![0.1, 0.2], vec![0.3, 0.4]])?;
    if let ItemResponse::Err(e) = &mixed[0] {
        println!("wrong arity     → err {e}");
    }
    match v2.request_batch("expfit", &[vec![0.5]])?.first() {
        Some(ItemResponse::Ok { .. }) => println!("connection still usable after batch errors"),
        other => println!("unexpected follow-up response: {other:?}"),
    }

    drop((client, v2));
    server.shutdown();
    println!("server drained and shut down");
    Ok(())
}
