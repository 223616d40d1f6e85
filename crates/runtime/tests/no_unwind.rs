//! An all-ejected fleet on the server path is an in-band error, not a
//! panic: the planner reports "no healthy pool" as a value, so the event
//! thread answers without unwinding. Its own binary, because the counting panic
//! hook it installs is process-wide.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use runtime::net::frame::{self, DecodeStep, Frame, RequestFrame};
use runtime::net::{EventServer, EventServerConfig, NetWorkload, Response};
use runtime::{Chip, ChipPool, EjectReason, Engine, Fleet, FleetConfig};

static PANICS: AtomicUsize = AtomicUsize::new(0);

struct Echo;

impl Chip for Echo {
    fn infer(&self, input: &[f64]) -> Vec<f64> {
        input.to_vec()
    }
}

#[test]
fn an_all_ejected_fleet_answers_without_unwinding() {
    std::panic::set_hook(Box::new(|_| {
        PANICS.fetch_add(1, Ordering::SeqCst);
    }));
    let engine = || Engine::new(ChipPool::from_chips(vec![Box::new(Echo) as Box<dyn Chip>]));
    let mut fleet = Fleet::new(vec![engine(), engine()], FleetConfig::new(0));
    for pool in 0..fleet.len() {
        fleet.eject(pool, EjectReason::Manual);
    }
    let workloads = vec![NetWorkload::fleet("ejected", 1, fleet)];
    let server = EventServer::bind("127.0.0.1:0", workloads, EventServerConfig::default())
        .expect("bind event server");
    let no_pool = "no healthy pool to serve workload 'ejected'".to_string();
    let connect = || {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        (BufReader::new(stream.try_clone().expect("clone")), stream)
    };

    let (mut reader, mut writer) = connect();
    writeln!(writer, "ejected 0.5").expect("send line");
    let mut line = String::new();
    reader.read_line(&mut line).expect("an answer");
    assert_eq!(
        Response::parse(line.trim_end()),
        Ok(Response::Error(no_pool.clone()))
    );

    let (mut reader, mut writer) = connect();
    writeln!(writer, "v2").expect("send negotiation");
    line.clear();
    reader.read_line(&mut line).expect("negotiation");
    let request = Frame::Request(RequestFrame::from_inputs(0, &[vec![0.5]]));
    writer.write_all(&request.encode()).expect("send frame");
    let mut bytes = vec![0u8; 4];
    reader.read_exact(&mut bytes).expect("an answer");
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    bytes.resize(4 + len, 0);
    reader.read_exact(&mut bytes[4..]).expect("the frame body");
    match frame::decode(&bytes, bytes.len()) {
        DecodeStep::Frame(frame, _) => assert_eq!(frame, Frame::Error(no_pool)),
        other => panic!("undecodable answer: {other:?}"),
    }

    server.shutdown();
    let _ = std::panic::take_hook();
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "the server unwound");
}
