//! A hand-rolled HTTP/1.1 transport over [`std::net::TcpListener`].
//!
//! Just enough of the protocol for a JSON job API — request line,
//! headers, `Content-Length` bodies, `Connection: close` responses —
//! framed by hand the same way `na-pipeline`'s job layer hand-rolls
//! JSON (no registry access, so no hyper/axum). Routes:
//!
//! | method/path        | behaviour                                       |
//! |--------------------|-------------------------------------------------|
//! | `POST /v1/compile` | submit a job document; `X-Cache: hit\|miss`     |
//! | `GET /v1/metrics`  | the service metrics document                    |
//! | `GET /healthz`     | liveness probe                                  |
//!
//! Status mapping: invalid document → `400` (well-formed error doc in
//! the body), body over the cap → `413`, request line and headers over
//! `MAX_HEAD_BYTES` (64 KiB) → `431`, queue full or deadline unmeetable →
//! `429`, shutting down → `503`, deadline exceeded → `504`, worker
//! panic → `500`, unknown route → `404`. Each connection
//! is served on its own thread so slow compiles don't block the accept
//! loop; concurrency control lives in the service's queue, not the
//! transport. Socket read/write timeouts and the body cap are
//! configurable per server via [`HttpOptions`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::service::{CompileService, Submission, SubmitError};
use crate::wire::{error_kind_of, service_error_doc};

/// Largest accepted request head (request line plus headers). Reading
/// stops at this many bytes, so a header without a newline cannot grow
/// memory without bound; a longer head is refused with `431`.
const MAX_HEAD_BYTES: u64 = 64 << 10;

/// Socket-level knobs for an [`HttpServer`].
#[derive(Debug, Clone)]
pub struct HttpOptions {
    /// Per-connection socket read timeout — a client that stops
    /// sending mid-request is dropped instead of pinning a handler
    /// thread.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout — a client that stops
    /// reading its response is likewise dropped.
    pub write_timeout: Duration,
    /// Largest accepted request body; larger `Content-Length`s are
    /// refused with `413` before any body byte is read.
    pub max_body_bytes: usize,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_body_bytes: 64 << 20,
        }
    }
}

/// The HTTP front-end: owns the listener, serves connections against a
/// [`CompileService`].
#[derive(Debug)]
pub struct HttpServer {
    listener: TcpListener,
    service: CompileService,
    options: HttpOptions,
    stop: Arc<AtomicBool>,
}

impl HttpServer {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an ephemeral test
    /// port) with default [`HttpOptions`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(service: CompileService, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::bind_with(service, addr, HttpOptions::default())
    }

    /// [`HttpServer::bind`] with explicit socket options.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_with(
        service: CompileService,
        addr: impl ToSocketAddrs,
        options: HttpOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(HttpServer {
            listener,
            service,
            options,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket query failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that makes [`HttpServer::serve`] return; share it with
    /// the thread that decides when to stop.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Accepts connections until the stop flag is raised, spawning one
    /// handler thread per connection. Does **not** shut the service
    /// down — callers drain it via [`CompileService::shutdown`] after
    /// this returns.
    pub fn serve(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let service = self.service.clone();
                    let options = self.options.clone();
                    let _ = std::thread::Builder::new()
                        .name("na-serve-conn".to_owned())
                        .spawn(move || handle_connection(stream, &service, &options));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

/// Why a request could not be read off the socket.
enum ReadError {
    /// Framing failure (bad request line, I/O error, invalid UTF-8).
    Malformed,
    /// `Content-Length` exceeded the configured body cap.
    TooLarge { length: usize },
    /// The request line and headers exceeded `MAX_HEAD_BYTES`.
    HeadTooLarge,
}

fn handle_connection(stream: TcpStream, service: &CompileService, options: &HttpOptions) {
    let _ = stream.set_read_timeout(Some(options.read_timeout));
    let _ = stream.set_write_timeout(Some(options.write_timeout));
    let mut reader = BufReader::new(stream);
    let (method, path, body) = match read_request(&mut reader, options.max_body_bytes) {
        Ok(request) => request,
        Err(e) => {
            let (status, reason, doc) = match e {
                ReadError::Malformed => (
                    400,
                    "Bad Request",
                    service_error_doc("request", "malformed HTTP request", None),
                ),
                ReadError::TooLarge { length } => (
                    413,
                    "Payload Too Large",
                    service_error_doc(
                        "request",
                        &format!(
                            "request body of {length} bytes exceeds the {} byte limit",
                            options.max_body_bytes
                        ),
                        None,
                    ),
                ),
                ReadError::HeadTooLarge => (
                    431,
                    "Request Header Fields Too Large",
                    service_error_doc(
                        "request",
                        &format!("request head exceeds the {MAX_HEAD_BYTES} byte limit"),
                        None,
                    ),
                ),
            };
            let mut stream = reader.into_inner();
            write_response(&mut stream, status, reason, &doc, None);
            return;
        }
    };
    let (status, reason, body, cache_state) = route(service, &method, &path, &body);
    let mut stream = reader.into_inner();
    write_response(&mut stream, status, reason, &body, cache_state);
}

/// Dispatches one parsed request to the service. Returns
/// `(status, reason, body, X-Cache value)`.
fn route(
    service: &CompileService,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, &'static str, String, Option<&'static str>) {
    match (method, path) {
        ("POST", "/v1/compile") => match service.submit(body) {
            Ok(Submission::Invalid(doc)) => (400, "Bad Request", doc, None),
            Ok(Submission::Cached(doc)) => (200, "OK", doc, Some("hit")),
            Ok(Submission::Pending(rx)) => {
                let doc = rx.recv().unwrap_or_else(|_| {
                    service_error_doc("internal", "worker dropped the job without replying", None)
                });
                // Worker-produced error documents pick their own
                // status: an exhausted deadline is the gateway-timeout
                // case, a panic-isolated compile the internal one.
                // Compile-level errors (bad QASM etc.) live inside an
                // `ok` response document and stay 200.
                let (status, reason) = match error_kind_of(&doc) {
                    Some("deadline") => (504, "Gateway Timeout"),
                    Some("internal") => (500, "Internal Server Error"),
                    _ => (200, "OK"),
                };
                (status, reason, doc, Some("miss"))
            }
            Err(e @ SubmitError::Busy { .. }) => (429, "Too Many Requests", e.to_json(None), None),
            Err(e @ SubmitError::DeadlineUnmeetable { .. }) => {
                (429, "Too Many Requests", e.to_json(None), None)
            }
            Err(e @ SubmitError::ShuttingDown) => {
                (503, "Service Unavailable", e.to_json(None), None)
            }
        },
        ("GET", "/v1/metrics") => (200, "OK", service.metrics_json(), None),
        ("GET", "/healthz") => (200, "OK", "{\"ok\":true}".to_owned(), None),
        _ => (
            404,
            "Not Found",
            service_error_doc("request", &format!("no route for {method} {path}"), None),
            None,
        ),
    }
}

/// Reads one HTTP/1.1 request: request line, headers (together at most
/// `MAX_HEAD_BYTES`), and a `Content-Length`-framed body.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body_bytes: usize,
) -> Result<(String, String, String), ReadError> {
    let mut head = reader.take(MAX_HEAD_BYTES);
    let mut line = String::new();
    read_head_line(&mut head, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(ReadError::Malformed)?.to_owned();
    let path = parts.next().ok_or(ReadError::Malformed)?.to_owned();
    let mut content_length = 0usize;
    let mut header = String::new();
    loop {
        read_head_line(&mut head, &mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| ReadError::Malformed)?;
        }
    }
    if content_length > max_body_bytes {
        return Err(ReadError::TooLarge {
            length: content_length,
        });
    }
    let mut body = vec![0u8; content_length];
    head.into_inner()
        .read_exact(&mut body)
        .map_err(|_| ReadError::Malformed)?;
    let body = String::from_utf8(body).map_err(|_| ReadError::Malformed)?;
    Ok((method, path, body))
}

/// Reads one line of the request head into `line`. A line that the
/// head cap cuts off is [`ReadError::HeadTooLarge`].
fn read_head_line(
    head: &mut std::io::Take<&mut BufReader<TcpStream>>,
    line: &mut String,
) -> Result<(), ReadError> {
    line.clear();
    let read = head.read_line(line);
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(ReadError::HeadTooLarge);
    }
    read.map(drop).map_err(|_| ReadError::Malformed)
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    cache_state: Option<&str>,
) {
    let cache_header = match cache_state {
        Some(state) => format!("X-Cache: {state}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{cache_header}Connection: close\r\n\r\n",
        body.len(),
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}
