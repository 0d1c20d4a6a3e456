//! Acceptance suite for the TCP ingress: N concurrent connections over
//! mixed models and devices drain **bitwise identical** to a sequential
//! per-query loop; malformed and oversized frames are rejected safely; a
//! full queue answers busy-with-retry instead of buffering; shutdown
//! mid-stream never wedges or corrupts a reply.

use std::io::Write;
use std::net::TcpStream;

use nasflat_core::{LatencyPredictor, PredictorConfig};
use nasflat_serve::wire::{read_frame, Frame, WIRE_MAX_FRAME};
use nasflat_serve::{
    IngressClient, IngressServer, ModelBundle, PredictorRegistry, SchedPolicy, ServeConfig,
    ServeError, ServeRequest, SharedRegistry,
};
use nasflat_space::{Arch, Space};

fn tiny_cfg(seed: u64) -> PredictorConfig {
    let mut c = PredictorConfig::quick().with_seed(seed);
    c.op_dim = 8;
    c.hw_dim = 8;
    c.node_dim = 8;
    c.ophw_gnn_dims = vec![12];
    c.ophw_mlp_dims = vec![12];
    c.gnn_dims = vec![12];
    c.head_dims = vec![16];
    c
}

fn bundle(seed: u64, num_devices: usize) -> ModelBundle {
    let devices = (0..num_devices).map(|i| format!("dev_{i}")).collect();
    ModelBundle::single(LatencyPredictor::new(
        Space::Nb201,
        devices,
        0,
        tiny_cfg(seed),
    ))
    .unwrap()
}

/// Two models, three devices each — enough to exercise cross-model
/// grouping and mixed-device tape passes behind the ingress.
fn shared_registry() -> SharedRegistry {
    let mut reg = PredictorRegistry::new(0); // no result cache: every hit is a real pass
    reg.insert("alpha", bundle(7, 3)).unwrap();
    reg.insert("beta", bundle(8, 3)).unwrap();
    reg.into_shared()
}

fn mixed_requests(n: usize, salt: u64) -> Vec<ServeRequest> {
    (0..n)
        .map(|i| {
            let model = if i % 3 == 0 { "beta" } else { "alpha" };
            ServeRequest::new(
                model,
                Arch::nb201_from_index((i as u64 * 547 + salt) % 15_625),
                i % 3,
            )
        })
        .collect()
}

/// The reference: a sequential predict loop straight on the bundles.
fn reference_bits(registry: &SharedRegistry, reqs: &[ServeRequest]) -> Vec<u32> {
    let reg = registry.read().unwrap();
    reqs.iter()
        .map(|r| {
            reg.get(&r.model)
                .unwrap()
                .predict_one(&r.arch, r.device)
                .to_bits()
        })
        .collect()
}

#[test]
fn concurrent_connections_drain_bitwise_equal_to_a_sequential_loop() {
    let registry = shared_registry();
    let cfg = ServeConfig::builder().workers(2).batch(8).build();
    let server = IngressServer::bind(registry.clone(), &cfg).expect("bind");
    let addr = server.local_addr();

    const CONNS: usize = 4;
    const PER_CONN: usize = 48;
    let streams: Vec<Vec<ServeRequest>> = (0..CONNS)
        .map(|c| mixed_requests(PER_CONN, 13 + c as u64 * 101))
        .collect();
    let expected: Vec<Vec<u32>> = streams
        .iter()
        .map(|reqs| reference_bits(&registry, reqs))
        .collect();

    let got: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|reqs| {
                scope.spawn(move || {
                    let mut client = IngressClient::connect(addr).expect("connect");
                    client
                        .predict_many(reqs, 8)
                        .into_iter()
                        .map(|r| r.expect("valid query").score.to_bits())
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (conn, (got, expect)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(got, expect, "connection {conn} diverged from sequential");
    }

    let metrics = server.shutdown();
    assert_eq!(metrics.connections_accepted, CONNS as u64);
    assert_eq!(metrics.queries_served, (CONNS * PER_CONN) as u64);
    assert!(metrics.groups >= 1);
    assert!(
        metrics.max_group <= 8,
        "coalescing exceeded the batch limit"
    );
}

#[test]
fn per_request_failures_leave_the_connection_usable() {
    let registry = shared_registry();
    let cfg = ServeConfig::builder().workers(1).batch(4).build();
    let server = IngressServer::bind(registry.clone(), &cfg).expect("bind");
    let mut client = IngressClient::connect(server.local_addr()).expect("connect");

    let good = ServeRequest::new("alpha", Arch::nb201_from_index(42), 1);
    let expect = reference_bits(&registry, std::slice::from_ref(&good))[0];

    // Unknown model: that request fails, the connection survives.
    let ghost = ServeRequest::new("ghost", Arch::nb201_from_index(1), 0);
    assert!(matches!(
        client.predict(&ghost).unwrap_err(),
        ServeError::UnknownModel(name) if name == "ghost"
    ));
    // Out-of-range device: same.
    let bad_dev = ServeRequest::new("alpha", Arch::nb201_from_index(1), 99);
    assert!(matches!(
        client.predict(&bad_dev).unwrap_err(),
        ServeError::BadQuery(d) if d.contains("99")
    ));
    // And the next valid request is answered, bitwise.
    assert_eq!(
        client.predict(&good).expect("valid").score.to_bits(),
        expect
    );

    let metrics = server.shutdown();
    assert_eq!(metrics.faults, 2);
    assert_eq!(metrics.queries_served, 1);
}

#[test]
fn malformed_and_oversized_frames_are_rejected_then_hung_up() {
    let registry = shared_registry();
    let cfg = ServeConfig::builder().workers(1).build();
    let server = IngressServer::bind(registry, &cfg).expect("bind");

    // A body that is not a known frame: one byte, bogus opcode.
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.write_all(&[1u8, 0, 0, 0, 0x7F]).unwrap();
    match read_frame(&mut sock, WIRE_MAX_FRAME).expect("error frame") {
        Frame::Error(e) => {
            assert_eq!(e.id, 0, "protocol faults are connection-level");
            assert!(matches!(e.to_error(), ServeError::Wire(_)));
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The server hangs up after a protocol violation.
    assert!(read_frame(&mut sock, WIRE_MAX_FRAME).is_err());

    // A header declaring a body over the limit: rejected from the header
    // alone — no body bytes are ever sent, so the server cannot have
    // allocated for one.
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    let declared = (WIRE_MAX_FRAME as u32) + 1;
    sock.write_all(&declared.to_le_bytes()).unwrap();
    match read_frame(&mut sock, WIRE_MAX_FRAME).expect("error frame") {
        Frame::Error(e) => {
            assert_eq!(e.id, 0);
            assert!(
                e.detail.contains(&WIRE_MAX_FRAME.to_string()),
                "oversize rejection should name the limit: {}",
                e.detail
            );
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(read_frame(&mut sock, WIRE_MAX_FRAME).is_err());

    let metrics = server.shutdown();
    assert_eq!(metrics.faults, 2);
    assert_eq!(metrics.queries_served, 0);
}

#[test]
fn retired_stats_probe_gets_an_error_frame_and_one_fault() {
    let registry = shared_registry();
    let cfg = ServeConfig::builder().workers(1).build();
    let server = IngressServer::bind(registry, &cfg).expect("bind");

    // What a client of the retired STATS op still sends: opcode 0x04 and
    // a u64 request id.
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    let mut probe = 9u32.to_le_bytes().to_vec();
    probe.push(0x04);
    probe.extend_from_slice(&1u64.to_le_bytes());
    sock.write_all(&probe).unwrap();
    match read_frame(&mut sock, WIRE_MAX_FRAME).expect("error frame") {
        Frame::Error(e) => {
            assert_eq!(e.id, 0, "protocol faults are connection-level");
            assert!(e.detail.contains("unknown opcode"), "{}", e.detail);
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(read_frame(&mut sock, WIRE_MAX_FRAME).is_err());

    let metrics = server.shutdown();
    assert_eq!(metrics.faults, 1);
    assert_eq!(metrics.queries_served, 0);
}

#[test]
fn full_queue_answers_busy_with_retry_hint_and_retries_succeed() {
    let registry = shared_registry();
    // A deliberately tiny service: one worker, no coalescing, a queue of
    // one, and a generous per-connection window so the flood reaches the
    // global queue instead of blocking in the connection reader.
    let cfg = ServeConfig::builder()
        .workers(1)
        .batch(1)
        .queue_depth(1)
        .max_inflight(256)
        .retry_after_ms(7)
        .build();
    let server = IngressServer::bind(registry.clone(), &cfg).expect("bind");
    let mut client = IngressClient::connect(server.local_addr()).expect("connect");

    let reqs = mixed_requests(128, 3);
    let expected = reference_bits(&registry, &reqs);
    let flood = client.predict_many(&reqs, 128);

    let mut served = 0usize;
    let mut busy = 0usize;
    let mut retry: Vec<usize> = Vec::new();
    for (i, result) in flood.iter().enumerate() {
        match result {
            Ok(resp) => {
                assert_eq!(resp.score.to_bits(), expected[i], "query {i} diverged");
                served += 1;
            }
            Err(ServeError::Busy { retry_after_ms }) => {
                assert_eq!(*retry_after_ms, 7, "busy must carry the config's hint");
                busy += 1;
                retry.push(i);
            }
            Err(other) => panic!("query {i}: unexpected error {other}"),
        }
    }
    assert!(served > 0, "some of the flood must be admitted");
    assert!(
        busy > 0,
        "a 128-deep pipeline into a queue of one must overflow"
    );
    // Backpressure is advisory, not fatal: retrying the rejected queries
    // (strict request/response, so the queue can never be full) succeeds
    // and stays bitwise correct.
    for i in retry {
        let resp = client.predict(&reqs[i]).expect("retry after busy");
        assert_eq!(resp.score.to_bits(), expected[i], "retried query {i}");
    }

    let metrics = server.shutdown();
    assert_eq!(metrics.busy_rejections, busy as u64);
    assert_eq!(metrics.queries_served, 128);
}

#[test]
fn connections_beyond_the_cap_are_refused_busy() {
    let registry = shared_registry();
    let cfg = ServeConfig::builder().workers(1).max_connections(1).build();
    let server = IngressServer::bind(registry, &cfg).expect("bind");

    let mut first = IngressClient::connect(server.local_addr()).expect("connect");
    let probe = ServeRequest::new("alpha", Arch::nb201_from_index(5), 0);
    // A full round trip guarantees the first connection is registered
    // before the second arrives.
    first.predict(&probe).expect("first connection serves");

    // Read the refusal from a raw socket without writing anything: the
    // server answers busy and hangs up straight from the accept loop.
    let mut second = TcpStream::connect(server.local_addr()).expect("tcp accepts");
    match read_frame(&mut second, WIRE_MAX_FRAME).expect("refusal frame") {
        Frame::Error(e) => assert!(matches!(e.to_error(), ServeError::Busy { .. })),
        other => panic!("expected a busy frame, got {other:?}"),
    }

    let metrics = server.shutdown();
    assert_eq!(metrics.connections_accepted, 1);
    assert_eq!(metrics.connections_refused, 1);
}

#[test]
fn shutdown_mid_stream_answers_or_fails_clean_never_corrupts() {
    let registry = shared_registry();
    let cfg = ServeConfig::builder().workers(1).batch(4).build();
    let server = IngressServer::bind(registry.clone(), &cfg).expect("bind");
    let addr = server.local_addr();

    let reqs = mixed_requests(64, 99);
    let expected = reference_bits(&registry, &reqs);

    let client = {
        let reqs = reqs.clone();
        std::thread::spawn(move || {
            let mut client = IngressClient::connect(addr).expect("connect");
            client.predict_many(&reqs, 4)
        })
    };
    // Let some queries through, then pull the plug mid-stream.
    std::thread::sleep(std::time::Duration::from_millis(40));
    let metrics = server.shutdown();

    let results = client.join().unwrap();
    let mut ok = 0usize;
    for (i, result) in results.iter().enumerate() {
        match result {
            // Everything answered before the cut must be bitwise right.
            Ok(resp) => {
                assert_eq!(resp.score.to_bits(), expected[i], "query {i} corrupted");
                ok += 1;
            }
            // Everything after must fail *clean*: shutdown or a wire-level
            // close, never a wrong score or a hang.
            Err(ServeError::Shutdown) | Err(ServeError::Wire(_)) | Err(ServeError::Io(_)) => {}
            Err(other) => panic!("query {i}: unexpected error {other}"),
        }
    }
    // The server may finish evaluating a job at the exact moment the
    // client aborts on the shutdown frame, so served can exceed the
    // replies the client still read — never the other way around.
    assert!(
        metrics.queries_served >= ok as u64,
        "client read {ok} answers but the server only served {}",
        metrics.queries_served
    );

    // The listener is gone: fresh connections are refused outright.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener survived shutdown"
    );
}

/// The determinism matrix of the deadline-aware scheduler: a fixed arrival
/// order (one connection, strict pipelining) must drain bitwise identical
/// to the sequential reference under **every** policy × worker-count
/// combination — scheduling reorders *when* queries evaluate, never *what*
/// they answer.
#[test]
fn policy_and_worker_matrix_stays_bitwise_deterministic() {
    let registry = shared_registry();
    let reqs = mixed_requests(96, 41);
    let expected = reference_bits(&registry, &reqs);
    for policy in [SchedPolicy::Fifo, SchedPolicy::Edf] {
        for workers in [1usize, 2, 8] {
            let cfg = ServeConfig::builder()
                .workers(workers)
                .batch(8)
                .sched_policy(policy)
                .build();
            let server = IngressServer::bind(registry.clone(), &cfg).expect("bind");
            let mut client = IngressClient::connect(server.local_addr()).expect("connect");
            let got: Vec<u32> = client
                .predict_many(&reqs, 8)
                .into_iter()
                .map(|r| r.expect("valid query").score.to_bits())
                .collect();
            assert_eq!(
                got, expected,
                "{policy:?} × {workers} workers diverged from sequential"
            );
            let metrics = server.shutdown();
            assert_eq!(metrics.queries_served, reqs.len() as u64);
            // Best-effort traffic never trips the deadline machinery.
            assert_eq!(metrics.deadline_met, 0);
            assert_eq!(metrics.deadline_missed, 0);
            assert_eq!(metrics.deadline_expired, 0);
        }
    }
}
