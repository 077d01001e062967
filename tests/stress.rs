//! Connection-scale stress tests for the event-driven connection layer:
//! hundreds of mostly-idle keep-alive connections must ride on a tiny fixed
//! pool of event-loop threads, slowloris-style tricklers must be cut off by
//! the per-request read deadline with a clean close, and `/v1/stats` must
//! report the open-connection gauge truthfully.
//!
//! These tests pin `keep_alive = true` regardless of the ambient
//! `RPG_TEST_KEEP_ALIVE` mode — holding connections open is the point.

mod common;

use rpg_server::client;
use rpg_server::IoBackendChoice;
use rpg_service::CorpusRegistry;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads of this test process whose name starts with `prefix`, read from
/// `/proc` — hard evidence that connections stop costing threads.
fn threads_named(prefix: &str) -> usize {
    let mut count = 0;
    for entry in std::fs::read_dir("/proc/self/task").expect("/proc is available on linux") {
        let comm_path = entry.expect("task entry").path().join("comm");
        if let Ok(comm) = std::fs::read_to_string(comm_path) {
            if comm.trim_end().starts_with(prefix) {
                count += 1;
            }
        }
    }
    count
}

/// [`threads_named`] once it has settled on `expected`, or its last
/// reading after a bounded wait. `/proc/self/task` can still list a thread
/// that an earlier server's shutdown has already joined (the join returns
/// when the thread signals its exit, before the kernel drops its task
/// entry), and a just-spawned thread shows its name only once it runs.
/// Either transient would fail an exact count that the server itself gets
/// right, so callers assert on the settled reading.
fn settled_threads_named(prefix: &str, expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let count = threads_named(prefix);
        if count == expected || Instant::now() >= deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

const CONNECTIONS: usize = 512;
const DRIVERS: usize = 2;

/// Serialises the tests in this file: [`threads_named`] counts threads
/// process-wide, so two servers alive at once (libtest runs tests in
/// parallel on multi-core machines) would double the `rpg-loop-*` count
/// and flake the exact-count assertions.
static EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn five_hundred_idle_keep_alive_connections_ride_on_two_driver_threads() {
    let _serial = exclusive();
    // An empty registry: the endpoints under test (`/v1/healthz`,
    // `/v1/stats`) are answered inline on the event loops, so the test
    // isolates the connection layer from pipeline cost.
    let server = common::spawn_with(Arc::new(CorpusRegistry::new()), |config| {
        config.workers = 1;
        config.drivers = DRIVERS;
        config.max_connections = CONNECTIONS + 64;
        config.keep_alive = true;
        // Idle far longer than the test runs: nothing below may be closed
        // for idleness.
        config.idle_timeout = Duration::from_secs(120);
        config.read_timeout = Duration::from_secs(30);
    });
    assert_eq!(server.driver_threads(), DRIVERS);
    assert_eq!(
        settled_threads_named("rpg-loop-", DRIVERS),
        DRIVERS,
        "the event-loop pool must be exactly the configured fixed size"
    );

    // Open the full fleet first — every connection is live concurrently —
    // then serve one exchange on each while the other 511 sit idle.
    let mut conns: Vec<client::Conn> = (0..CONNECTIONS)
        .map(|i| {
            client::Conn::connect(server.addr())
                .unwrap_or_else(|e| panic!("connection {i} failed to open: {e}"))
        })
        .collect();
    for (i, conn) in conns.iter_mut().enumerate() {
        let response = conn
            .get("/v1/healthz")
            .unwrap_or_else(|e| panic!("exchange on connection {i} failed: {e}"));
        assert_eq!(response.status, 200, "connection {i}");
        assert_eq!(
            response.header("connection"),
            Some("keep-alive"),
            "connection {i} must stay open"
        );
    }

    // All connections are open at once; the server says so, in-process and
    // over the wire.
    assert_eq!(server.open_connections(), CONNECTIONS);
    let stats = conns[0].get("/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let value: Value = serde_json::from_str(&stats.body).unwrap();
    let connections = value.get("connections").expect("connections section");
    assert_eq!(
        connections.get("open").and_then(Value::as_f64),
        Some(CONNECTIONS as f64),
        "/v1/stats must report the open-connection gauge"
    );
    assert_eq!(
        connections.get("drivers").and_then(Value::as_f64),
        Some(DRIVERS as f64)
    );

    // No per-connection threads appeared anywhere: the loop pool is still
    // exactly two threads with 512 connections in flight.
    assert_eq!(
        settled_threads_named("rpg-loop-", DRIVERS),
        DRIVERS,
        "open connections must not grow the thread count"
    );
    assert_eq!(
        settled_threads_named("rpg-conn-", 0),
        0,
        "no thread-per-connection drivers may remain"
    );

    // A second pass over every connection: each one is still alive and
    // serviceable after idling while the other 511 were served.
    for (i, conn) in conns.iter_mut().enumerate() {
        let response = conn
            .get("/v1/healthz")
            .unwrap_or_else(|e| panic!("second exchange on connection {i} failed: {e}"));
        assert_eq!(response.status, 200, "connection {i}, second exchange");
    }
    assert_eq!(server.stats().ok as usize, 2 * CONNECTIONS + 1);

    // Hanging up all 512 drains the gauge: the loops notice every FIN
    // without any request in flight.
    drop(conns);
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "open-connection gauge stuck at {} after mass hangup",
            server.open_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Connections per backend for the idle-churn test: CI-sized by default,
/// scaled up via `RPG_STRESS_CONNS` on machines with the file-descriptor
/// headroom to hold thousands of sockets open (each connection costs one
/// fd on the client side and one on the server side of this process).
fn stress_connections() -> usize {
    std::env::var("RPG_STRESS_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// The same idle-at-scale contract on every backend the platform offers:
/// open `RPG_STRESS_CONNS` keep-alive connections, churn a slice of the
/// fleet through hangup/reconnect cycles, and require that exchanges stay
/// prompt, the thread pool stays fixed, and the open-connection gauge
/// tracks the churn exactly. Run against both `poll` and `epoll`, this is
/// the regression net for backend-specific readiness bugs (missed edges,
/// stale interest after fd reuse, unobserved FINs).
#[test]
fn idle_churn_holds_the_gauge_and_latency_flat_on_every_backend() {
    let _serial = exclusive();
    let connections = stress_connections();
    let churn = connections / 4;
    // A single exchange against a server whose only load is idle
    // connections; generous enough to absorb CI noise, tight enough to
    // catch a backend degrading to seconds under fleet-sized interest.
    let exchange_budget = Duration::from_secs(2);

    let mut backends = vec![IoBackendChoice::Poll];
    if cfg!(target_os = "linux") {
        backends.push(IoBackendChoice::Epoll);
    }
    for backend in backends {
        let server = common::spawn_with(Arc::new(CorpusRegistry::new()), |config| {
            config.io_backend = backend;
            config.workers = 1;
            config.drivers = DRIVERS;
            config.max_connections = connections + 64;
            config.keep_alive = true;
            config.idle_timeout = Duration::from_secs(120);
            config.read_timeout = Duration::from_secs(30);
        });
        assert_eq!(server.io_backend(), backend.resolve());

        let mut conns: Vec<client::Conn> = (0..connections)
            .map(|i| {
                client::Conn::connect(server.addr())
                    .unwrap_or_else(|e| panic!("[{backend:?}] connection {i} failed to open: {e}"))
            })
            .collect();
        let mut slowest = Duration::ZERO;
        let exchange = |conn: &mut client::Conn, label: &str| {
            let started = Instant::now();
            let response = conn
                .get("/v1/healthz")
                .unwrap_or_else(|e| panic!("[{backend:?}] {label} failed: {e}"));
            assert_eq!(response.status, 200, "[{backend:?}] {label}");
            started.elapsed()
        };
        for (i, conn) in conns.iter_mut().enumerate() {
            slowest = slowest.max(exchange(conn, &format!("exchange on connection {i}")));
        }
        assert_eq!(server.open_connections(), connections, "[{backend:?}]");

        // Churn: hang up a quarter of the fleet, wait for the gauge to
        // notice every FIN, reconnect the same count, and serve one
        // exchange on each replacement while the survivors idle.
        for round in 0..2 {
            drop(conns.split_off(connections - churn));
            let deadline = Instant::now() + Duration::from_secs(20);
            while server.open_connections() > connections - churn {
                assert!(
                    Instant::now() < deadline,
                    "[{backend:?}] round {round}: gauge stuck at {} after hangup of {churn}",
                    server.open_connections()
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            for i in 0..churn {
                let mut conn = client::Conn::connect(server.addr()).unwrap_or_else(|e| {
                    panic!("[{backend:?}] round {round}: reconnect {i} failed: {e}")
                });
                slowest = slowest.max(exchange(
                    &mut conn,
                    &format!("round {round} exchange on reconnect {i}"),
                ));
                conns.push(conn);
            }
            assert_eq!(
                server.open_connections(),
                connections,
                "[{backend:?}] round {round}"
            );
        }
        assert!(
            slowest <= exchange_budget,
            "[{backend:?}] slowest exchange took {slowest:?} with {connections} connections open"
        );

        // The churn rode entirely on the fixed loop pool.
        assert_eq!(
            settled_threads_named("rpg-loop-", DRIVERS),
            DRIVERS,
            "[{backend:?}]"
        );
        assert_eq!(settled_threads_named("rpg-conn-", 0), 0, "[{backend:?}]");

        // Mass hangup drains the gauge to zero before the next backend
        // (or the drop-guard shutdown) takes the stage.
        drop(conns);
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.open_connections() > 0 {
            assert!(
                Instant::now() < deadline,
                "[{backend:?}] gauge stuck at {} after mass hangup",
                server.open_connections()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[test]
fn trickled_requests_hit_the_read_deadline_with_a_clean_close() {
    let _serial = exclusive();
    let read_timeout = Duration::from_millis(600);
    let server = common::spawn_with(Arc::new(CorpusRegistry::new()), |config| {
        config.workers = 1;
        config.drivers = DRIVERS;
        config.keep_alive = true;
        config.idle_timeout = Duration::from_secs(120);
        config.read_timeout = read_timeout;
    });

    // A healthy fleet of idle keep-alive connections shares the loops with
    // the tricklers; they must come through unscathed.
    let mut healthy: Vec<client::Conn> = (0..32)
        .map(|_| client::Conn::connect(server.addr()).unwrap())
        .collect();
    for conn in healthy.iter_mut() {
        assert_eq!(conn.get("/v1/healthz").unwrap().status, 200);
    }

    // Slowloris connections: send the request head one byte at a time,
    // slowly but steadily. The deadline is per-request wall clock, so a
    // trickle that never pauses long enough for a per-read timeout still
    // dies at `read_timeout` after its first byte.
    let tricklers = 4;
    let head = b"GET /v1/healthz HTTP/1.1\r\nhost: slow\r\n";
    let mut streams: Vec<TcpStream> = (0..tricklers)
        .map(|_| {
            let stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            stream
        })
        .collect();
    let started = Instant::now();
    'trickle: for byte_index in 0.. {
        for stream in &mut streams {
            // Writes may start failing once the server cuts us off —
            // that's the success condition, not an error.
            let _ = stream.write_all(&head[byte_index % head.len()..][..1]);
        }
        std::thread::sleep(Duration::from_millis(50));
        if started.elapsed() > read_timeout + Duration::from_millis(400) {
            break 'trickle;
        }
    }

    for (i, mut stream) in streams.into_iter().enumerate() {
        // The deadline answer is an explicit 408 announcing the close...
        let response = client::read_response(&mut stream, &mut Vec::new())
            .unwrap_or_else(|e| panic!("trickler {i} got no response: {e}"));
        assert_eq!(response.status, 408, "trickler {i}: {}", response.body);
        assert!(response.closes_connection(), "trickler {i}");
        // ...followed by a clean FIN (end-of-stream), not an RST aborting
        // the read.
        let mut rest = [0u8; 64];
        loop {
            match stream.read(&mut rest) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => panic!("trickler {i} was closed uncleanly: {e}"),
            }
        }
    }

    // The healthy fleet never noticed.
    for (i, conn) in healthy.iter_mut().enumerate() {
        assert_eq!(
            conn.get("/v1/healthz").unwrap().status,
            200,
            "healthy connection {i} was collateral damage"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.client_errors as usize, tricklers, "one 408 each");
}
