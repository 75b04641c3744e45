//! End-to-end exercise of `diogenes serve`: the daemon must answer a
//! `POST /run` + `GET /report/<id>` with bytes identical to the offline
//! CLI export for the same config, concurrent identical submissions must
//! compute once, and `/stats`, `/telemetry`, and `/shutdown` must behave
//! as documented — including a `/shutdown` reply that always reaches the
//! client before the daemon process exits, and keep-alive exchanges that
//! never wait on the client's delayed ACK.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use diogenes::{run_diogenes, DiogenesConfig, ServeConfig, Server};
use diogenes_apps::{AlsConfig, CumfAls};
use ffm_core::{report_to_json, Json};

/// One HTTP exchange against the daemon; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let head =
        format!("{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n", body.len());
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("response has a head");
    let head = std::str::from_utf8(&raw[..split]).expect("head is UTF-8");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    (status, raw[split + 4..].to_vec())
}

/// Poll a report until the job finishes (the jobs here take well under a
/// second; the bound is generous for loaded CI machines).
fn poll_done(addr: SocketAddr, location: &str) -> (u16, Vec<u8>) {
    for _ in 0..600 {
        let (status, body) = request(addr, "GET", location, b"");
        if status != 202 {
            return (status, body);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    panic!("job at {location} never finished");
}

#[test]
fn serve_dedupes_concurrent_runs_and_matches_the_offline_cli() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        executors: 2,
        cache_dir: None, // memory-only store: the test must not touch results/
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("serve runs"));

    // Two concurrent identical submissions...
    let submit = |addr: SocketAddr| {
        std::thread::spawn(move || request(addr, "POST", "/run", br#"{"app": "als"}"#))
    };
    let (a, b) = (submit(addr), submit(addr));
    let (status_a, body_a) = a.join().unwrap();
    let (status_b, body_b) = b.join().unwrap();
    assert_eq!(status_a, 200, "{}", String::from_utf8_lossy(&body_a));
    assert_eq!(status_b, 200, "{}", String::from_utf8_lossy(&body_b));
    let doc_a = Json::parse(std::str::from_utf8(&body_a).unwrap()).unwrap();
    let doc_b = Json::parse(std::str::from_utf8(&body_b).unwrap()).unwrap();
    let id = doc_a.get("id").and_then(Json::as_str).expect("submission returns an id");
    assert_eq!(
        doc_b.get("id").and_then(Json::as_str),
        Some(id),
        "identical submissions share one job id"
    );
    let location = doc_a.get("location").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(location, format!("/report/{id}"));

    // ...produce one report whose bytes equal the offline CLI export.
    let (status, served) = poll_done(addr, &location);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served));
    let offline = {
        let result = run_diogenes(&CumfAls::new(AlsConfig::test_scale()), DiogenesConfig::new())
            .expect("offline run");
        let mut bytes = Vec::new();
        report_to_json(&result.report).write_pretty(&mut bytes).unwrap();
        bytes
    };
    assert_eq!(served, offline, "served report bytes != offline CLI bytes");

    // Fetching again returns the identical bytes (cached result path).
    let (_, again) = request(addr, "GET", &location, b"");
    assert_eq!(again, served);

    // /stats: both submissions counted, one computation, dedupe visible.
    let (status, stats) = request(addr, "GET", "/stats", b"");
    assert_eq!(status, 200);
    let stats = Json::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
    let jobs = stats.get("jobs").expect("stats carries a jobs block");
    assert_eq!(jobs.get("submitted").and_then(Json::as_i128), Some(2));
    assert_eq!(jobs.get("deduped").and_then(Json::as_i128), Some(1));
    assert_eq!(jobs.get("computed").and_then(Json::as_i128), Some(1));
    assert_eq!(jobs.get("failed").and_then(Json::as_i128), Some(0));
    assert!(stats.get("queue_depth").and_then(Json::as_i128).is_some());
    assert!(
        stats.get("cache").and_then(|c| c.get("live_claims")).and_then(Json::as_i128).is_some(),
        "stats carries claim introspection"
    );

    // /telemetry: the daemon accounts for its own request traffic.
    let (status, tel) = request(addr, "GET", "/telemetry", b"");
    assert_eq!(status, 200);
    let tel = Json::parse(std::str::from_utf8(&tel).unwrap()).unwrap();
    let routes = tel.get("requests").and_then(Json::as_arr).expect("per-route aggregates");
    let run_route = routes
        .iter()
        .find(|r| r.get("route").and_then(Json::as_str) == Some("POST /run"))
        .expect("POST /run tracked");
    assert_eq!(run_route.get("count").and_then(Json::as_i128), Some(2));

    // Error surface: bad submissions and unknown ids are client errors.
    let (status, _) = request(addr, "POST", "/run", br#"{"app": "nonesuch"}"#);
    assert_eq!(status, 400);
    let (status, _) = request(addr, "GET", "/report/ffffffffffffffffffffffffffffffff", b"");
    assert_eq!(status, 404);
    // A run id is not fetchable through the sweep endpoint.
    let (status, _) = request(addr, "GET", &format!("/sweep/{id}"), b"");
    assert_eq!(status, 404);

    // Graceful shutdown: drain and exit; late submissions are refused.
    let (status, body) = request(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    daemon.join().expect("daemon thread exits after shutdown");
}

#[test]
fn serve_runs_sweeps_and_keys_them_separately() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        executors: 1,
        cache_dir: None,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("serve runs"));

    let body = br#"{"app": "als",
                    "axes": [{"field": "cost.free_base_ns", "values": [1000, 2000]}]}"#;
    let (status, resp) = request(addr, "POST", "/sweep", body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    let doc = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    let location = doc.get("location").and_then(Json::as_str).unwrap().to_string();
    assert!(location.starts_with("/sweep/"), "{location}");

    let (status, served) = poll_done(addr, &location);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served));
    let matrix = Json::parse(std::str::from_utf8(&served).unwrap()).unwrap();
    assert_eq!(matrix.get("total_cells").and_then(Json::as_i128), Some(2));

    // An invalid grid fails at submission time, not in the job.
    let bad = br#"{"app": "als", "axes": [{"field": "no.such.field", "values": [1]}]}"#;
    let (status, _) = request(addr, "POST", "/sweep", bad);
    assert_eq!(status, 400);

    let (status, _) = request(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    daemon.join().expect("daemon exits");
}

/// A zero bandwidth fails the submission with a 400 naming the field,
/// instead of running at the cost model's 1 B/µs floor.
#[test]
fn sweep_with_zero_bandwidth_is_rejected_at_submission() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        executors: 1,
        cache_dir: None,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("serve runs"));

    let body = br#"{"app": "als",
                    "axes": [{"field": "cost.pageable_bw_bytes_per_us", "values": [4000, 0]}]}"#;
    let (status, resp) = request(addr, "POST", "/sweep", body);
    let resp = String::from_utf8_lossy(&resp);
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("cost.pageable_bw_bytes_per_us"), "{resp}");

    let (status, _) = request(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    daemon.join().expect("daemon exits");
}

/// The `POST /shutdown` reply must reach the client before the daemon
/// process exits. Losing it was a race between the reply write and the
/// accept loop's wake-up, so the check runs over several fresh daemons.
#[test]
fn shutdown_reply_arrives_before_the_daemon_exits() {
    for round in 0..10 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_diogenes"))
            .args(["serve", "--addr", "127.0.0.1:0", "--no-cache"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn diogenes serve");
        // Keep stdout open until the daemon exits, so a late write to it
        // cannot fail on a closed pipe.
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read the announced address");
        let addr: SocketAddr = line
            .split_whitespace()
            .last()
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("round {round}: no address in {line:?}"));

        let (status, body) = request(addr, "POST", "/shutdown", b"");
        assert_eq!(status, 200, "round {round}: {}", String::from_utf8_lossy(&body));
        let doc = Json::parse(std::str::from_utf8(&body).expect("UTF-8 body")).expect("JSON body");
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("draining"), "round {round}");

        let exit = child.wait().expect("wait for the daemon");
        assert!(exit.success(), "round {round}: daemon exited with {exit}");
    }
}

/// Read one `Content-Length`-framed response off a keep-alive
/// connection; returns (status, body).
fn read_response(conn: &mut BufReader<TcpStream>) -> (u16, Vec<u8>) {
    let mut line = String::new();
    conn.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut len = 0;
    loop {
        line.clear();
        conn.read_line(&mut line).expect("header line");
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().expect("numeric content-length");
            }
        }
    }
    let mut body = vec![0; len];
    conn.read_exact(&mut body).expect("body");
    (status, body)
}

/// The daemon writes a response's head and body separately. With Nagle's
/// algorithm on, the body waited for the client's delayed ACK of the
/// head, about 40 ms per exchange on Linux loopback, so 20 exchanges
/// took most of a second; without it they take a few milliseconds.
#[test]
fn keep_alive_exchanges_do_not_wait_for_delayed_acks() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        executors: 1,
        cache_dir: None,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("serve runs"));

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let t0 = Instant::now();
    for i in 0..20 {
        conn.write_all(b"GET /stats HTTP/1.1\r\nHost: test\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "exchange {i}: {}", String::from_utf8_lossy(&body));
        Json::parse(std::str::from_utf8(&body).unwrap()).expect("stats document");
    }
    let elapsed = t0.elapsed();
    drop((conn, reader));
    assert!(
        elapsed < Duration::from_millis(200),
        "20 keep-alive exchanges took {elapsed:?}; responses are stalling on delayed ACKs"
    );

    let (status, _) = request(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    daemon.join().expect("daemon exits");
}
