//! The `serve_http` workload: open-loop arrivals over TCP loopback into
//! an `HttpServer` with one compile worker.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use na_arch::HardwareParams;
use na_circuit::generators::{GraphState, Qft};
use na_circuit::qasm::to_qasm;
use na_circuit::Circuit;
use na_mapper::HybridMapper;
use na_pipeline::{handle_json_document, MappingOptions};
use na_schedule::export::json_escape;
use na_schedule::Scheduler;
use na_serve::{CompileService, HttpServer, ServeConfig};

use crate::check::{number_after, without_runtime_stamps};
use crate::library::{
    build_target, pass_totals, report_layer_row, set_medians, trace_circuit, with_untraced_twin,
    Target,
};
use crate::stats::{median, percentile, summarize, SplitMix};
use crate::trace::Tracer;
use crate::{Outcome, Report};

/// Share of requests drawn from the hot set (artifact-cache reads); the
/// rest are distinct documents (compile plus cache write).
const HOT_SHARE: f64 = 0.3;
/// Documents in the hot set.
const HOT_DOCS: usize = 8;
/// The nominal arrival rate, at which latency is reported.
const NOMINAL_RATE: f64 = 100.0;
/// The rate ladder above the nominal rate; the top step saturates the
/// server.
const LADDER: [f64; 3] = [200.0, 300.0, 2000.0];
/// Latency limit on the tail percentile for a ladder step to count.
const TAIL_LIMIT_MS: f64 = 25.0;
/// Share of `--seconds` spent warming up at the nominal rate: requests
/// are checked but not timed, so first-use costs and the tail end of the
/// set-up stay out of the timings.
const WARMUP_SHARE: f64 = 0.1;
/// Share of `--seconds` spent at the nominal rate after the warm-up; the
/// ladder takes the rest.
const NOMINAL_SHARE: f64 = 0.5;
/// Index of the nominal phase in the plan, after the warm-up.
const NOMINAL: usize = 1;
/// The percentile reported as `tail_ms`. Ten samples beyond the tail, as
/// in `serve_tail_ms`, leave the count beyond it uncertain by a third,
/// and on a 2-core host the interquartile range of that tail over ten
/// seeds was 73-85% of its median; the 90th percentile keeps a tenth of
/// the samples beyond it.
const TAIL_PCT: f64 = 90.0;

/// A v1 job document on the 6×6 mixed preset (20 atoms); `mapping` is
/// the document's mapping object.
fn job_doc(name: &str, mapping: &str, qasm: &str) -> String {
    format!(
        "{{\"version\": 1, \
         \"target\": {{\"preset\": \"mixed\", \"lattice_side\": 6, \"num_atoms\": 20}}, \
         \"mapping\": {mapping}, \
         \"circuits\": [{{\"name\": \"{name}\", \"qasm\": \"{}\"}}]}}",
        json_escape(qasm),
    )
}

const HYBRID: &str = "{\"mode\": \"hybrid\", \"alpha\": 1.0}";
/// Hybrid mapping never inserts a SWAP on this small mixed machine, so
/// part of the hot set maps gate-only and the ΔCZ sum measures routing.
const GATE_ONLY: &str = "{\"mode\": \"gate_only\"}";

/// One request document with the circuit it carries.
struct Doc {
    text: String,
    circuit: Circuit,
    qasm: String,
}

fn doc(name: String, mapping: &str, circuit: Circuit) -> Doc {
    let qasm = to_qasm(&circuit);
    Doc {
        text: job_doc(&name, mapping, &qasm),
        circuit,
        qasm,
    }
}

/// The fixed hot set: small QFTs and graph states, independent of the
/// seed so its Table 1a sums repeat exactly.
fn hot_set() -> Vec<Doc> {
    (0..HOT_DOCS)
        .map(|k| {
            let circuit = if k % 2 == 0 {
                Qft::new(6 + k as u32 / 2).build()
            } else {
                GraphState::new(10 + k as u32 / 2)
                    .edges(14 + k)
                    .seed(100 + k as u64)
                    .build()
            };
            let mapping = if k >= HOT_DOCS - 2 { GATE_ONLY } else { HYBRID };
            doc(format!("hot-{k}"), mapping, circuit)
        })
        .collect()
}

/// The `i`-th distinct document of a seed: a graph state with its own
/// edge draw, or a QFT under its own name (the cache key covers names).
fn distinct(seed: u64, i: usize) -> Doc {
    let mut rng = SplitMix::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
    let circuit = if i.is_multiple_of(2) {
        Qft::new(6 + (rng.next_u64() % 5) as u32).build()
    } else {
        GraphState::new(10 + (rng.next_u64() % 3) as u32)
            .edges(14 + (rng.next_u64() % 5) as usize)
            .seed(rng.next_u64())
            .build()
    };
    doc(format!("d{seed}-{i}"), HYBRID, circuit)
}

/// Which document a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DocRef {
    Hot(usize),
    Distinct(usize),
}

/// One phase of traffic: paced arrivals at `rate` for `secs`.
struct Phase {
    rate: f64,
    secs: f64,
    /// `(due offset in seconds, document)` in due order.
    requests: Vec<(f64, DocRef)>,
}

/// The seeded traffic plan: the warm-up and the nominal phase, then the
/// ladder.
///
/// Gaps between arrivals are the mean gap times a uniform factor in
/// [0.5, 1.5), not exponential. With two connections, Poisson bursts put
/// the ten samples beyond the tail into a handful of bursts whose number
/// changes from seed to seed, and the tail moved by 19% (interquartile
/// range over median, ten seeds); paced arrivals keep queueing out of
/// the nominal rate and leave it to the ladder.
fn plan(seed: u64, seconds: f64, ladder: bool) -> Vec<Phase> {
    let mut rng = SplitMix::new(seed.wrapping_add(0x5eed));
    let mut next_distinct = 0usize;
    let mut phases = vec![
        (NOMINAL_RATE, seconds * WARMUP_SHARE),
        (NOMINAL_RATE, seconds * NOMINAL_SHARE),
    ];
    if ladder {
        let step = seconds * (1.0 - WARMUP_SHARE - NOMINAL_SHARE) / LADDER.len() as f64;
        phases.extend(LADDER.iter().map(|&r| (r, step)));
    }
    phases
        .into_iter()
        .map(|(rate, secs)| {
            let mut t = 0.0;
            let mut requests = Vec::new();
            loop {
                t += (0.5 + rng.unit()) / rate;
                if t >= secs {
                    break;
                }
                let doc = if rng.unit() < HOT_SHARE {
                    DocRef::Hot((rng.next_u64() % HOT_DOCS as u64) as usize)
                } else {
                    next_distinct += 1;
                    DocRef::Distinct(next_distinct - 1)
                };
                requests.push((t, doc));
            }
            Phase {
                rate,
                secs,
                requests,
            }
        })
        .collect()
}

/// A running HTTP front-end over a one-worker service.
struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
    service: CompileService,
}

fn one_worker_service() -> CompileService {
    CompileService::start(ServeConfig {
        workers: 1,
        queue_cap: 64,
        cache_budget_bytes: 64 << 20,
        fault: None,
    })
}

impl Server {
    fn start() -> Server {
        let service = one_worker_service();
        let http = HttpServer::bind(service.clone(), "127.0.0.1:0").expect("loopback bind");
        let addr = http.local_addr().expect("bound address");
        let stop = http.stop_handle();
        let thread = std::thread::spawn(move || http.serve());
        Server {
            addr,
            stop,
            thread,
            service,
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("the accept loop does not panic");
        self.service.shutdown();
    }
}

/// The set-up workload: documents plus a bound server.
pub struct Setup {
    hot: Vec<Doc>,
    distinct: Vec<Doc>,
    phases: Vec<Phase>,
    server: Server,
}

impl Setup {
    fn doc(&self, r: DocRef) -> &Doc {
        match r {
            DocRef::Hot(k) => &self.hot[k],
            DocRef::Distinct(i) => &self.distinct[i],
        }
    }

    /// Stops the server and drains its service.
    pub fn stop(self) {
        self.server.stop();
    }
}

/// Generates the documents of `seed` and binds the server.
pub fn setup(seed: u64, seconds: f64, traced: bool) -> Setup {
    let phases = plan(seed, seconds, !traced);
    let distinct_needed = phases
        .iter()
        .flat_map(|p| &p.requests)
        .filter(|(_, d)| matches!(d, DocRef::Distinct(_)))
        .count();
    Setup {
        hot: hot_set(),
        distinct: (0..distinct_needed).map(|i| distinct(seed, i)).collect(),
        phases,
        server: Server::start(),
    }
}

/// One HTTP exchange as the client saw it.
#[derive(Debug)]
struct Sample {
    doc: DocRef,
    due: Instant,
    /// Whether the generator slept until the due time; if it did, any
    /// lateness is its own wake-up delay, not a wait on the server.
    slept: bool,
    sent: Instant,
    connected: Instant,
    done: Instant,
    hit: bool,
    /// Why the request failed, if it did.
    error: Option<String>,
    /// FNV-1a of the response body with runtime stamps zeroed.
    body_digest: u64,
}

impl Sample {
    /// Send start minus due time: how late the generator ran.
    fn lag_s(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64()
    }

    /// The client-observed latency: response complete minus due time
    /// when the generator was behind, so waiting on earlier requests
    /// counts; minus send start when it slept until the due time, so the
    /// generator's own wake-up delay (up to several milliseconds on a
    /// busy host, see `serve.generator_lag_ms`) does not.
    fn latency_s(&self) -> f64 {
        let from = if self.slept { self.sent } else { self.due };
        self.done.saturating_duration_since(from).as_secs_f64()
    }

    /// Response complete minus send start.
    fn service_s(&self) -> f64 {
        (self.done - self.sent).as_secs_f64()
    }

    fn connect_s(&self) -> f64 {
        (self.connected - self.sent).as_secs_f64()
    }
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Sends one request on a fresh connection (the server closes each).
/// Returns the status, the header block, the body and the instant the
/// connection was established.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String, String, Instant), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("socket: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let raw = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_owned())?;
    let (headers, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header end".to_owned())?;
    let status = headers
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "response has no status".to_owned())?;
    Ok((status, headers.to_owned(), body.to_owned(), connected))
}

/// Drives one phase from `threads` generator threads, each with one
/// connection at a time. A request is timed from its due time (see
/// [`Sample::latency_s`]); a thread that falls behind sends at once, and
/// requests still unsent when the phase's time is up are dropped and
/// counted as backlog.
fn drive(setup: &Setup, phase: &Phase, threads: usize) -> (Vec<Sample>, usize) {
    let next = AtomicUsize::new(0);
    let unsent = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(2);
    let cutoff = t0 + Duration::from_secs_f64(phase.secs);
    let addr = setup.server.addr;
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(offset, doc)) = phase.requests.get(i) else {
                            break;
                        };
                        let due = t0 + Duration::from_secs_f64(offset);
                        let now = Instant::now();
                        let slept = now < due;
                        if slept {
                            std::thread::sleep(due - now);
                        } else if now > cutoff {
                            unsent.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let sent = Instant::now();
                        let result = exchange(addr, "POST", "/v1/compile", &setup.doc(doc).text);
                        let done = Instant::now();
                        let mut sample = Sample {
                            doc,
                            due,
                            slept,
                            sent,
                            connected: done,
                            done,
                            hit: false,
                            error: None,
                            body_digest: 0,
                        };
                        match result {
                            Ok((status, headers, body, connected)) => {
                                sample.connected = connected;
                                sample.hit = headers.contains("X-Cache: hit");
                                if status != 200 || !body.contains("\"ok\":true") {
                                    sample.error = Some(format!("status {status}"));
                                }
                                sample.body_digest = fnv(&without_runtime_stamps(&body));
                            }
                            Err(e) => sample.error = Some(e),
                        }
                        out.push(sample);
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator threads do not panic"))
            .collect()
    });
    samples.sort_by_key(|s| s.due);
    (samples, unsent.into_inner())
}

/// Generator threads (and so concurrent connections): the host's
/// parallelism, capped at two so the load shape is the same on larger
/// hosts.
fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Checks every response against `handle_json_document` of the same
/// document, runtime stamps aside. Returns the number of mismatches.
fn check_bodies(setup: &Setup, samples: &[Sample], report: &mut Report) -> u64 {
    let mut reference: HashMap<DocRef, u64> = HashMap::new();
    let mut failed = 0;
    for s in samples.iter().filter(|s| s.error.is_none()) {
        let want = *reference.entry(s.doc).or_insert_with(|| {
            fnv(&without_runtime_stamps(&handle_json_document(
                &setup.doc(s.doc).text,
            )))
        });
        if want != s.body_digest {
            failed += 1;
            report.line(format!(
                "FAIL {:?}: response differs from handle_json",
                s.doc
            ));
        }
    }
    failed
}

/// Sends every hot document once so later hot requests read the cache;
/// returns the Table 1a sums over the hot set, read from the responses.
fn warm_hot_set(setup: &Setup, report: &mut Report) -> (f64, f64, f64, u64) {
    let (mut f, mut cz, mut t_us, mut failed) = (0.0, 0.0, 0.0, 0);
    for (k, d) in setup.hot.iter().enumerate() {
        match exchange(setup.server.addr, "POST", "/v1/compile", &d.text) {
            Ok((200, _, body, _)) if body.contains("\"ok\":true") => {
                let num = |key| number_after(&body, "\"comparison\"", key).unwrap_or(f64::NAN);
                f += num("\"delta_f\":");
                cz += num("\"delta_cz\":");
                t_us += num("\"delta_t_us\":");
                let reference = without_runtime_stamps(&handle_json_document(&d.text));
                if without_runtime_stamps(&body) != reference {
                    failed += 1;
                    report.line(format!("FAIL hot-{k}: response differs from handle_json"));
                }
            }
            other => {
                failed += 1;
                report.line(format!("FAIL hot-{k}: {:?}", other.map(|o| o.0)));
            }
        }
    }
    (f, cz, t_us, failed)
}

/// Service counters from `GET /v1/metrics`.
fn service_counters(setup: &Setup) -> BTreeMap<&'static str, f64> {
    let doc = exchange(setup.server.addr, "GET", "/v1/metrics", "")
        .map(|r| r.2)
        .unwrap_or_default();
    let get = |scope: &str, key: &str| number_after(&doc, scope, key).unwrap_or(f64::NAN);
    let hits = get("\"artifact_cache\"", "\"hits\":");
    let misses = get("\"artifact_cache\"", "\"misses\":");
    BTreeMap::from([
        ("serve.cache_hits", hits),
        ("serve.cache_misses", misses),
        (
            "serve.cache_hit_ratio",
            crate::library::ratio(hits, hits + misses),
        ),
        (
            "serve.cache_evictions",
            get("\"artifact_cache\"", "\"evictions\":"),
        ),
        ("serve.coalesced", get("", "\"coalesced\":")),
        ("serve.rejected_busy", get("", "\"rejected_busy\":")),
    ])
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// The untraced run: warm the hot set, hold the nominal rate, then climb
/// the ladder.
pub fn run(setup: &Setup, report: &mut Report) -> Outcome {
    let threads = generator_threads();
    let (delta_f, delta_cz, delta_t_us, mut failed) = warm_hot_set(setup, report);
    let mut attempted = HOT_DOCS as u64;
    let mut max_rate = 0.0f64;
    let mut saturated_rate = f64::NAN;
    report.line(format!(
        "serve_http generator: {threads} threads, one connection each, paced arrivals"
    ));
    for (k, phase) in setup.phases.iter().enumerate() {
        let (samples, unsent) = drive(setup, phase, threads);
        attempted += samples.len() as u64;
        let errors = samples.iter().filter(|s| s.error.is_some()).count() as u64;
        for s in samples.iter().filter_map(|s| s.error.as_ref()).take(3) {
            report.line(format!("FAIL request: {s}"));
        }
        let mismatches = check_bodies(setup, &samples, report);
        failed += errors + mismatches;
        let lat: Vec<f64> = samples.iter().map(|s| ms(s.latency_s())).collect();
        if k < NOMINAL {
            report.line(format!(
                "serve_http warm-up rate={}/s sent={} p50={:.3}ms failed={} (not timed)",
                phase.rate,
                samples.len(),
                median(&lat),
                errors + mismatches
            ));
            continue;
        }
        let lag: Vec<f64> = samples.iter().map(|s| ms(s.lag_s())).collect();
        let s = summarize(&lat);
        let lag_s = summarize(&lag);
        let completed_per_s = samples.len() as f64 / phase.secs;
        let meets = s.tail <= TAIL_LIMIT_MS && errors + mismatches == 0 && unsent == 0;
        if meets {
            max_rate = max_rate.max(phase.rate);
        }
        report.line(format!(
            "serve_http step rate={}/s sent={} completed_per_s={completed_per_s:.1} \
             p50={:.3}ms tail={:.3}ms (p{:.1}) failed={} unsent={unsent} lag_p50={:.3}ms \
             lag_tail={:.3}ms {}",
            phase.rate,
            samples.len(),
            s.p50,
            s.tail,
            s.tail_pct,
            errors + mismatches,
            lag_s.p50,
            lag_s.tail,
            if meets { "meets" } else { "misses" },
        ));
        if k == NOMINAL {
            let hits: Vec<f64> = samples
                .iter()
                .filter(|s| s.hit)
                .map(|s| ms(s.latency_s()))
                .collect();
            let h = summarize(&hits);
            report.named(
                "serve_p50_ms",
                s.p50,
                "ms",
                format!("n={} at {}/s", s.n, phase.rate),
            );
            report.named(
                "serve_tail_ms",
                s.tail,
                "ms",
                format!("p{:.1}, n={}, 10 beyond", s.tail_pct, s.n),
            );
            report.named("serve_hit_p50_ms", h.p50, "ms", format!("n={} hits", h.n));
            report.named(
                "serve.generator_lag_ms",
                lag_s.tail,
                "ms",
                format!("p{:.1}", lag_s.tail_pct),
            );
            let p90 = percentile(&lat, TAIL_PCT);
            report.named(
                "serve_p90_ms",
                p90,
                "ms",
                format!("n={} at {}/s; tail_ms in the result", s.n, phase.rate),
            );
            report.set("p50_ms", s.p50);
            report.set("tail_ms", p90);
        }
        if k == setup.phases.len() - 1 {
            saturated_rate = completed_per_s;
        }
    }
    report.named(
        "serve_max_rate_per_s",
        max_rate,
        "1/s",
        format!("tail <= {TAIL_LIMIT_MS} ms, no failures, no backlog"),
    );
    report.named(
        "serve_saturated_per_s",
        saturated_rate,
        "1/s",
        format!(
            "completed at the top step, {}/s offered",
            LADDER[LADDER.len() - 1]
        ),
    );
    report.set("rate_per_s", saturated_rate);
    report.set("delta_f_sum", delta_f);
    report.set("delta_cz_sum", delta_cz);
    report.set("delta_t_ms_sum", delta_t_us / 1e3);
    for (name, value) in service_counters(setup) {
        let unit = if name.ends_with("ratio") {
            "ratio"
        } else {
            "count"
        };
        report.named(name, value, unit, "from /v1/metrics".to_owned());
    }
    Outcome { attempted, failed }
}

/// Traces the circuits of `docs` through the same layer calls as the
/// library workloads, plus `handle_json_document` on each document, and
/// sets the per-request medians. Returns the median `handle_json` time in
/// milliseconds and the number of failures.
fn trace_documents(
    setup: &Setup,
    docs: &[DocRef],
    tr: &mut Tracer,
    report: &mut Report,
) -> (f64, u64) {
    let mixed = HardwareParams::mixed();
    let mut build_us = Vec::new();
    let mut target: Option<Target> = None;
    for _ in 0..16 {
        let span = tr.begin(0, "arch.target_build", None);
        let built = build_target("mixed6", &mixed, 6, 20, MappingOptions::hybrid(1.0));
        build_us.push(tr.end(span));
        target = Some(built);
    }
    let target = target.expect("built at least once");
    let mapper = HybridMapper::new(target.params.clone(), target.compiler.config().clone())
        .expect("the session's own configuration is valid");
    let scheduler = Scheduler::for_target(&target.params);
    let (mut per_request, mut handle_ms, mut failed) = (Vec::new(), Vec::new(), 0);
    for (k, &r) in docs.iter().enumerate() {
        let d = setup.doc(r);
        let id = 1_000_000 + k as u64;
        let traced = with_untraced_twin(&target.compiler, &d.circuit, k.is_multiple_of(2), || {
            let root = tr.begin(id, "request.in_process", None);
            let out = trace_circuit(
                tr,
                id,
                Some(root),
                &target,
                &mapper,
                &scheduler,
                &d.circuit,
                &d.qasm,
            );
            tr.end(root);
            out
        });
        match traced {
            Ok((sample, _)) => {
                if k == 0 {
                    report_layer_row(report, "serve_http/mixed6/first", &sample);
                }
                per_request.push(pass_totals(std::slice::from_ref(&sample)));
            }
            Err(e) => {
                failed += 1;
                report.line(format!("FAIL {r:?}: {e}"));
            }
        }
        let (_, us) = tr.time(id, "pipeline.handle_json", None, || {
            handle_json_document(&d.text)
        });
        handle_ms.push(us / 1e3);
    }
    let handle_json_ms = median(&handle_ms);
    report.set("arch.target_build_us", median(&build_us));
    report.set("pipeline.handle_json_ms", handle_json_ms);
    set_medians(report, &per_request);
    (handle_json_ms, failed)
}

/// The traced run: the nominal phase over HTTP with spans around each
/// exchange, the same documents in process through
/// `CompileService::submit_wait`, and the library layers on the
/// documents' circuits.
pub fn run_traced(setup: &Setup, tr: &mut Tracer, report: &mut Report) -> Outcome {
    let threads = generator_threads();
    let (_, _, _, mut failed) = warm_hot_set(setup, report);
    let mut attempted = HOT_DOCS as u64;
    let (warmup, _) = drive(setup, &setup.phases[0], threads);
    attempted += warmup.len() as u64;
    failed += warmup.iter().filter(|s| s.error.is_some()).count() as u64;
    failed += check_bodies(setup, &warmup, report);
    let phase = &setup.phases[NOMINAL];

    // Over HTTP: spans come from the generator's own timestamps.
    let (samples, unsent) = drive(setup, phase, threads);
    attempted += samples.len() as u64;
    failed += samples.iter().filter(|s| s.error.is_some()).count() as u64;
    failed += check_bodies(setup, &samples, report);
    for (k, s) in samples.iter().enumerate() {
        let id = k as u64 + 1;
        let root = tr.record(id, "request.http", None, s.due, s.done);
        tr.record(id, "serve.connect", Some(root), s.sent, s.connected);
        tr.record(id, "serve.exchange", Some(root), s.connected, s.done);
    }
    let pick = |hit: bool, f: fn(&Sample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.hit == hit && s.error.is_none())
            .map(f)
            .collect()
    };
    let http_hit_us = median(&pick(true, |s| s.service_s() * 1e6));
    let http_miss_us = median(&pick(false, |s| s.service_s() * 1e6));
    let connect_us = median(
        &samples
            .iter()
            .map(|s| s.connect_s() * 1e6)
            .collect::<Vec<_>>(),
    );
    let lag = summarize(&samples.iter().map(|s| ms(s.lag_s())).collect::<Vec<_>>());

    // In process: a fresh one-worker service, hot set warmed, then the
    // same documents in the same order, closed loop.
    let service = one_worker_service();
    for d in &setup.hot {
        let _ = service.submit_wait(&d.text);
    }
    let (mut sw_hit, mut sw_miss) = (Vec::new(), Vec::new());
    for (k, &(_, r)) in phase.requests.iter().enumerate() {
        let id = 2_000_000 + k as u64;
        let (reply, us) = tr.time(id, "serve.submit_wait", None, || {
            service.submit_wait(&setup.doc(r).text)
        });
        attempted += 1;
        if !reply.is_ok_and(|body| body.contains("\"ok\":true")) {
            failed += 1;
            report.line(format!("FAIL in-process {r:?}"));
        }
        match r {
            DocRef::Hot(_) => sw_hit.push(us),
            DocRef::Distinct(_) => sw_miss.push(us),
        }
    }
    service.shutdown();

    // Library layers on the circuits of the distinct documents.
    let docs: Vec<DocRef> = phase
        .requests
        .iter()
        .map(|&(_, r)| r)
        .filter(|r| matches!(r, DocRef::Distinct(_)))
        .collect();
    let (handle_json_ms, layer_failed) = trace_documents(setup, &docs, tr, report);
    attempted += docs.len() as u64;
    failed += layer_failed;

    let submit_wait_hit = median(&sw_hit);
    let submit_wait_miss = median(&sw_miss);
    report.set(
        "serve.submit_wait_us",
        median(&[sw_hit.clone(), sw_miss.clone()].concat()),
    );
    report.set("serve.transport_hit_us", http_hit_us - submit_wait_hit);
    report.set("serve.transport_miss_us", http_miss_us - submit_wait_miss);
    report.set("serve.connect_us", connect_us);
    report.set(
        "serve.queue_wait_us",
        submit_wait_miss - handle_json_ms * 1e3,
    );
    report.set("serve.generator_lag_ms", lag.tail);
    for (name, value) in service_counters(setup) {
        report.set(name, value);
    }
    report.line(format!(
        "serve_http layer mix: hit over HTTP {http_hit_us:.1}us vs in process \
         {submit_wait_hit:.1}us ({:.0}% transport); miss over HTTP {http_miss_us:.1}us vs in \
         process {submit_wait_miss:.1}us; unsent={unsent}",
        100.0 * crate::library::ratio(http_hit_us - submit_wait_hit, http_hit_us),
    ));
    Outcome { attempted, failed }
}
