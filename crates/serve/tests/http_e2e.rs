//! End-to-end exercise of the hand-rolled HTTP transport with a raw
//! `TcpStream` client: submit → compile → cached resubmit → metrics →
//! liveness → unknown route, plus an over-long request head.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use na_serve::{CompileService, HttpServer, ServeConfig};

fn job_doc() -> String {
    String::from(
        "{\n  \"version\": 1,\n  \
         \"target\": {\"preset\": \"mixed\", \"lattice_side\": 5, \"num_atoms\": 12},\n  \
         \"mapping\": {\"mode\": \"hybrid\", \"alpha\": 1.0},\n  \
         \"circuits\": [{\"name\": \"bell\", \
         \"qasm\": \"OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\ncx q[0],q[1];\\n\"}]\n}\n",
    )
}

/// One request over a fresh connection; returns (status line, headers,
/// body).
fn roundtrip(addr: std::net::SocketAddr, request: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_owned(), headers.to_owned(), body.to_owned())
}

fn post_compile(addr: std::net::SocketAddr, body: &str) -> (String, String, String) {
    roundtrip(
        addr,
        &format!(
            "POST /v1/compile HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        ),
    )
}

fn get(addr: std::net::SocketAddr, path: &str) -> (String, String, String) {
    roundtrip(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

#[test]
fn http_server_end_to_end() {
    let service = CompileService::start(ServeConfig {
        workers: 1,
        queue_cap: 8,
        cache_budget_bytes: 32 << 20,
        ..ServeConfig::default()
    });
    let server = HttpServer::bind(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("bound");
    let stop = server.stop_handle();
    let accept_loop = std::thread::spawn(move || server.serve());

    // Liveness first.
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "{\"ok\":true}");

    // Cold compile.
    let (status, headers, cold_body) = post_compile(addr, &job_doc());
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("X-Cache: miss"), "headers: {headers}");
    assert!(cold_body.contains("\"ok\":true"));

    // Identical resubmission: served from the artifact cache with
    // byte-identical body.
    let (status, headers, warm_body) = post_compile(addr, &job_doc());
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("X-Cache: hit"), "headers: {headers}");
    assert_eq!(cold_body, warm_body);

    // Malformed document → 400 with a well-formed error document.
    let (status, _, error_body) = post_compile(addr, "not json at all");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(error_body.contains("\"kind\":\"request\""));

    // Metrics reflect the traffic.
    let (status, _, metrics) = get(addr, "/v1/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(metrics.contains("\"completed\":1"), "metrics: {metrics}");
    assert!(
        metrics.contains("\"artifact_cache\":{\"hits\":1,"),
        "metrics: {metrics}"
    );
    assert!(metrics.contains("\"invalid\":1"), "metrics: {metrics}");

    // Unknown route.
    let (status, _, _) = get(addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    stop.store(true, Ordering::SeqCst);
    accept_loop.join().expect("accept loop exits");
    service.shutdown();
}

#[test]
fn over_long_request_head_is_refused_with_431() {
    let service = CompileService::start(ServeConfig {
        workers: 1,
        queue_cap: 8,
        ..ServeConfig::default()
    });
    // Default options: the server's socket read timeout is 30 s.
    let server = HttpServer::bind(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("bound");
    let stop = server.stop_handle();
    let accept_loop = std::thread::spawn(move || server.serve());

    // A 70 KiB header with no newline, on a socket that stays open for
    // writing: without a head cap the server keeps waiting for the end
    // of the line.
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let mut request = b"GET /healthz HTTP/1.1\r\nX-Filler: ".to_vec();
    request.resize(request.len() + (70 << 10), b'a');
    // The server may answer and close before it has read every byte,
    // so a failed send is not the test's concern; the reply is.
    let _ = stream.write_all(&request);
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    // Read until the server closes; a reset after the reply (the
    // server drops the unread rest of the header) also ends the read.
    while let Ok(n @ 1..) = stream.read(&mut chunk) {
        raw.extend_from_slice(&chunk[..n]);
    }
    let raw = String::from_utf8(raw).expect("utf-8 reply");
    assert!(
        raw.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "reply: {raw:?}"
    );
    assert!(raw.contains("\"kind\":\"request\""), "reply: {raw:?}");
    assert!(started.elapsed() < Duration::from_secs(10));

    stop.store(true, Ordering::SeqCst);
    accept_loop.join().expect("accept loop exits");
    service.shutdown();
}
