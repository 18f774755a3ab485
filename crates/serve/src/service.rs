//! The compile service core: admission control, the worker pool, and
//! the cache hierarchy.
//!
//! ```text
//!               submit(document)
//!                     │
//!        parse (shared TargetResolver) ──▶ Invalid(error doc)
//!                     │
//!        artifact cache (content key) ──▶ Cached(response bytes)
//!                     │ miss
//!        deadline-aware shedding ────────▶ Err(DeadlineUnmeetable)
//!                     │ admissible
//!        admission: BoundedQueue ───────▶ Err(Busy / ShuttingDown)
//!                     │ accepted
//!            worker pool (N threads)
//!          warm CompileScratch each,
//!        session cache (Arc<Compiler>),
//!        catch_unwind per job, deadline
//!         CancelToken into the compile,
//!          insert artifact, reply
//!                     │ (worker death)
//!            supervisor respawns slot
//! ```
//!
//! The cache is content-addressed by
//! [`request_cache_key`],
//! which excludes transport fields — so a cache hit returns bytes
//! identical to a cold compile of the same content, with the
//! submitter's `request_id` spliced per-response
//! ([`na_pipeline::with_request_id`]). Workers keep one
//! [`CompileScratch`] each across every job they serve (arena reuse:
//! capacity, never decisions), and compiler sessions are shared across
//! workers by content hash so one hot target/options combination
//! validates once.
//!
//! # Resilience
//!
//! Every job runs inside `catch_unwind`: a panic mid-compile answers
//! the submitter (and any coalesced waiters) with a typed `internal`
//! error, discards the possibly-corrupt scratch arena, and keeps the
//! worker alive. If the worker thread itself dies (scripted by a
//! [`FaultPlan`] kill, or a non-unwinding failure), a `DeathGuard`
//! notifies the supervisor thread, which reaps and respawns the slot —
//! the pool self-heals without dropping queued work. Requests carrying
//! `deadline_ms` get a [`na_mapper::CancelToken`] fixed at
//! admission time (queue wait counts against the budget); expired jobs
//! answer with a typed `deadline` error, and admission sheds requests
//! whose deadline cannot survive the estimated queue wait.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use na_mapper::CancelToken;
use na_pipeline::fingerprint::{request_cache_key, session_fingerprint};
use na_pipeline::{
    error_to_json, with_request_id, CompileError, CompileRequest, CompileScratch, Compiler,
    TargetResolver,
};
use na_schedule::export::{cache_stats_to_json, JsonObject};

use crate::cache::ArtifactCache;
use crate::fault::{FatalFault, FaultPlan};
use crate::metrics::ServiceMetrics;
use crate::queue::{BoundedQueue, PushError};
use crate::wire::{service_error_doc, service_error_doc_retry};

/// Sizing knobs for a [`CompileService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. `0` is allowed (tests use it to exercise
    /// admission control deterministically); nothing compiles until
    /// shutdown then.
    pub workers: usize,
    /// Queue-depth cap — submissions beyond it get a typed
    /// [`SubmitError::Busy`] rejection instead of unbounded growth.
    pub queue_cap: usize,
    /// Artifact-cache byte budget.
    pub cache_budget_bytes: usize,
    /// Deterministic fault script for chaos testing; `None` (the
    /// default) injects nothing and costs one branch per job.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_cap: 64,
            cache_budget_bytes: 64 << 20,
            fault: None,
        }
    }
}

/// How an accepted submission was answered.
#[derive(Debug)]
pub enum Submission {
    /// The document failed parsing/validation; the payload is the
    /// well-formed error document to send back.
    Invalid(String),
    /// Served from the artifact cache; the payload is the full
    /// response document (request id already spliced).
    Cached(String),
    /// Queued for a worker; the receiver yields the response document
    /// exactly once.
    Pending(mpsc::Receiver<String>),
}

/// Why a submission was refused outright (backpressure, not failure —
/// the document itself was never examined past admission).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The work queue sits at its depth cap; retry later.
    Busy {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The service no longer accepts work.
    ShuttingDown,
    /// The request's `deadline_ms` cannot survive the estimated queue
    /// wait — shed at admission instead of compiling work the client
    /// has already given up on (HTTP 429-style, with a retry hint).
    DeadlineUnmeetable {
        /// The deadline the client asked for.
        deadline_ms: u64,
        /// The estimated queue wait it could not survive.
        estimated_wait_ms: u64,
        /// When the queue is expected to have drained enough to admit
        /// this deadline.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { depth, cap } => {
                write!(f, "queue full: {depth}/{cap} jobs queued")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::DeadlineUnmeetable {
                deadline_ms,
                estimated_wait_ms,
                ..
            } => write!(
                f,
                "deadline {deadline_ms} ms cannot survive the estimated \
                 queue wait of {estimated_wait_ms} ms"
            ),
        }
    }
}

impl SubmitError {
    /// The rejection as a wire error document (`kind` `busy`,
    /// `shutdown` or `unmeetable`), echoing `request_id` when the
    /// client sent one. `unmeetable` documents carry a
    /// `retry_after_ms` hint inside the error object.
    pub fn to_json(&self, request_id: Option<&str>) -> String {
        match self {
            SubmitError::Busy { .. } => service_error_doc("busy", &self.to_string(), request_id),
            SubmitError::ShuttingDown => {
                service_error_doc("shutdown", &self.to_string(), request_id)
            }
            SubmitError::DeadlineUnmeetable { retry_after_ms, .. } => service_error_doc_retry(
                "unmeetable",
                &self.to_string(),
                *retry_after_ms,
                request_id,
            ),
        }
    }

    /// Whether a client should retry this rejection after a backoff
    /// (`busy` and `unmeetable` are transient; `shutdown` is not).
    pub fn is_retryable(&self) -> bool {
        !matches!(self, SubmitError::ShuttingDown)
    }
}

struct Job {
    request: CompileRequest,
    key: u64,
    accepted: Instant,
    /// Absolute deadline fixed at admission (`accepted` +
    /// `deadline_ms`), so queue wait counts against the budget.
    deadline: Option<Instant>,
    reply: mpsc::Sender<String>,
}

/// A submitter coalesced onto an in-flight compile of the same
/// content; answered with the leader's bytes (own id spliced).
struct Waiter {
    reply: mpsc::Sender<String>,
    request_id: Option<String>,
}

struct Inner {
    queue: BoundedQueue<Job>,
    cache: Mutex<ArtifactCache>,
    resolver: Mutex<TargetResolver>,
    sessions: Mutex<HashMap<u64, Arc<Compiler>>>,
    /// Single-flight table: content keys currently being compiled,
    /// each with the submitters waiting on that compile. Guarantees
    /// concurrent identical submissions share one compile — and
    /// therefore receive byte-identical responses (wall-clock stamps
    /// included), which a duplicate compile could not promise.
    inflight: Mutex<HashMap<u64, Vec<Waiter>>>,
    metrics: ServiceMetrics,
    accepting: AtomicBool,
    /// Worker slots; `None` marks a slot whose handle was taken for
    /// joining (by the supervisor reaping a dead worker, or by
    /// shutdown).
    workers: Mutex<Vec<Option<std::thread::JoinHandle<()>>>>,
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The death-notification sender respawned workers clone their
    /// guard from; dropped (set to `None`) at shutdown so the
    /// supervisor's receiver disconnects once the last worker exits.
    death_tx: Mutex<Option<mpsc::Sender<usize>>>,
    fault: Option<Arc<FaultPlan>>,
    configured_workers: usize,
}

/// A running compile service. Cloning shares the same queue, caches
/// and worker pool — hand clones to transport threads freely.
#[derive(Clone)]
pub struct CompileService {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CompileService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileService")
            .field("workers", &self.inner.configured_workers)
            .field("queue_depth", &self.inner.queue.depth())
            .field("accepting", &self.inner.accepting.load(Ordering::SeqCst))
            .finish()
    }
}

impl CompileService {
    /// Starts the service: spawns the worker pool and its supervisor
    /// and returns the handle transports submit through. Call
    /// [`CompileService::shutdown`] to drain and stop.
    pub fn start(config: ServeConfig) -> Self {
        let (death_tx, death_rx) = mpsc::channel();
        let inner = Arc::new(Inner {
            queue: BoundedQueue::new(config.queue_cap),
            cache: Mutex::new(ArtifactCache::new(config.cache_budget_bytes)),
            resolver: Mutex::new(TargetResolver::new()),
            sessions: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            metrics: ServiceMetrics::new(),
            accepting: AtomicBool::new(true),
            workers: Mutex::new(Vec::new()),
            supervisor: Mutex::new(None),
            death_tx: Mutex::new(Some(death_tx.clone())),
            fault: config.fault,
            configured_workers: config.workers,
        });
        let handles = (0..config.workers)
            .map(|i| Some(spawn_worker(&inner, i, death_tx.clone())))
            .collect();
        *inner.workers.lock().expect("workers lock") = handles;
        drop(death_tx);
        let supervisor = {
            let sup_inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("na-serve-supervisor".into())
                .spawn(move || supervisor_loop(&sup_inner, &death_rx))
                .expect("spawn supervisor")
        };
        *inner.supervisor.lock().expect("supervisor lock") = Some(supervisor);
        CompileService { inner }
    }

    /// Submits one job document.
    ///
    /// Malformed documents are *answered*, not errored: they return
    /// [`Submission::Invalid`] with a well-formed error document, so
    /// transports map them to a client-error status without formatting
    /// anything themselves.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after
    /// [`CompileService::shutdown`] began, and
    /// [`SubmitError::DeadlineUnmeetable`] when the request's
    /// `deadline_ms` cannot survive the estimated queue wait —
    /// backpressure only, never compile failures.
    pub fn submit(&self, document: &str) -> Result<Submission, SubmitError> {
        let inner = &self.inner;
        if !inner.accepting.load(Ordering::SeqCst) {
            inner
                .metrics
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown);
        }
        let parsed = {
            let mut resolver = inner.resolver.lock().expect("resolver lock");
            CompileRequest::from_json_with(document, &mut resolver)
        };
        let request = match parsed {
            Ok(request) => request,
            Err(e) => {
                inner.metrics.invalid.fetch_add(1, Ordering::Relaxed);
                return Ok(Submission::Invalid(error_to_json(&CompileError::Request(
                    e,
                ))));
            }
        };
        let key = request_cache_key(&request);
        let accepted = Instant::now();
        // Single-flight admission, serialized by the in-flight table
        // lock: join an identical compile already in progress, else
        // probe the artifact cache, else queue. A worker publishes to
        // the cache *before* retiring its in-flight entry, so under
        // this lock "not in flight and not cached" really means a cold
        // compile is needed — concurrent identical submissions can
        // never compile twice (which matters for byte-identity: a
        // duplicate compile would carry different wall-clock stamps).
        let (tx, rx) = mpsc::channel();
        let mut inflight = inner.inflight.lock().expect("inflight lock");
        if let Some(waiters) = inflight.get_mut(&key) {
            waiters.push(Waiter {
                reply: tx,
                request_id: request.request_id,
            });
            inner.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
            return Ok(Submission::Pending(rx));
        }
        if let Some(body) = inner.cache.lock().expect("cache lock").get(key) {
            inner.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            let reply = finalize(&body, request.request_id.as_deref());
            record_latency(&inner.metrics, accepted);
            return Ok(Submission::Cached(reply));
        }
        // Deadline-aware shedding: once the latency histogram has
        // warmed up, estimate the queue wait ahead of this request
        // (depth × p50 ÷ workers) and refuse deadlines that cannot
        // survive it — a typed 429-style rejection now beats a
        // guaranteed `deadline` error after the client stopped caring.
        // An empty queue never sheds: the estimate covers waiting, not
        // the compile itself.
        if let Some(deadline_ms) = request.deadline_ms {
            let p50 = inner.metrics.latency.p50_ms();
            if inner.metrics.latency.count() >= SHED_WARMUP_SAMPLES && p50.is_finite() {
                let depth = inner.queue.depth();
                let lanes = inner.configured_workers.max(1) as f64;
                let estimated_wait_ms = (depth as f64 * p50 / lanes).ceil() as u64;
                if estimated_wait_ms > deadline_ms {
                    inner
                        .metrics
                        .shed_unmeetable
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::DeadlineUnmeetable {
                        deadline_ms,
                        estimated_wait_ms,
                        retry_after_ms: (estimated_wait_ms - deadline_ms).max(1),
                    });
                }
            }
        }
        let deadline = request
            .deadline_ms
            .map(|ms| accepted + Duration::from_millis(ms));
        let job = Job {
            request,
            key,
            accepted,
            deadline,
            reply: tx,
        };
        match inner.queue.try_push(job) {
            Ok(_) => {
                inflight.insert(key, Vec::new());
                inner.metrics.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(Submission::Pending(rx))
            }
            Err(PushError::Full(_)) => {
                inner.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Busy {
                    depth: inner.queue.depth(),
                    cap: inner.queue.capacity(),
                })
            }
            Err(PushError::Closed(_)) => {
                inner
                    .metrics
                    .rejected_shutdown
                    .fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// [`CompileService::submit`] plus blocking until the response
    /// document is ready — the one-call path for synchronous
    /// transports.
    ///
    /// # Errors
    ///
    /// The backpressure cases of [`CompileService::submit`].
    pub fn submit_wait(&self, document: &str) -> Result<String, SubmitError> {
        match self.submit(document)? {
            Submission::Invalid(doc) | Submission::Cached(doc) => Ok(doc),
            Submission::Pending(rx) => Ok(rx.recv().unwrap_or_else(|_| {
                service_error_doc("internal", "worker dropped the job without replying", None)
            })),
        }
    }

    /// Stops accepting work, drains every queued job through the
    /// worker pool, joins the workers and the supervisor, and answers
    /// any jobs no worker will ever take (the `workers: 0`
    /// configuration) with a `shutdown` error document. Idempotent.
    pub fn shutdown(&self) {
        let inner = &self.inner;
        inner.accepting.store(false, Ordering::SeqCst);
        inner.queue.close();
        // First sweep: join the current pool (waits for the backlog to
        // drain). The supervisor may be respawning a slot concurrently,
        // so sweep again once it has exited.
        join_workers(inner);
        *inner.death_tx.lock().expect("death-tx lock") = None;
        if let Some(supervisor) = inner.supervisor.lock().expect("supervisor lock").take() {
            let _ = supervisor.join();
        }
        join_workers(inner);
        for job in inner.queue.drain() {
            let doc = SubmitError::ShuttingDown.to_json(job.request.request_id.as_deref());
            let _ = job.reply.send(doc);
            let waiters = inner
                .inflight
                .lock()
                .expect("inflight lock")
                .remove(&job.key)
                .unwrap_or_default();
            for waiter in waiters {
                let doc = SubmitError::ShuttingDown.to_json(waiter.request_id.as_deref());
                let _ = waiter.reply.send(doc);
            }
        }
    }

    /// Whether the service still accepts submissions.
    pub fn is_accepting(&self) -> bool {
        self.inner.accepting.load(Ordering::SeqCst)
    }

    /// Current queue depth (for tests and transports).
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// Live (spawned and not reaped) worker threads — drops below the
    /// configured count while the supervisor is respawning a dead
    /// slot, and recovers once it has.
    pub fn live_workers(&self) -> usize {
        self.inner
            .workers
            .lock()
            .expect("workers lock")
            .iter()
            .filter(|slot| slot.is_some())
            .count()
    }

    /// The service counters.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.inner.metrics
    }

    /// A point-in-time metrics document: request counters, queue
    /// state, worker utilization, resilience counters
    /// (`worker_panics`, `worker_restarts`, `deadline_exceeded`,
    /// `shed_unmeetable`), latency quantiles, and every cache layer
    /// (artifact, session, target-resolver, router distance-cache
    /// aggregate via [`cache_stats_to_json`]).
    pub fn metrics_json(&self) -> String {
        let inner = &self.inner;
        let m = &inner.metrics;
        let (artifact, artifact_entries, artifact_bytes, artifact_budget) = {
            let cache = inner.cache.lock().expect("cache lock");
            (
                cache.stats(),
                cache.len() as u64,
                cache.resident_bytes() as u64,
                cache.budget_bytes() as u64,
            )
        };
        let (resolver_hits, resolver_misses, resolver_len) = {
            let r = inner.resolver.lock().expect("resolver lock");
            (r.hits(), r.misses(), r.len() as u64)
        };
        let sessions = inner.sessions.lock().expect("sessions lock").len() as u64;

        let mut artifact_obj = JsonObject::new();
        artifact_obj
            .uint("hits", artifact.hits)
            .uint("misses", artifact.misses)
            .uint("insertions", artifact.insertions)
            .uint("evictions", artifact.evictions)
            .uint("oversized", artifact.oversized)
            .uint("entries", artifact_entries)
            .uint("resident_bytes", artifact_bytes)
            .uint("budget_bytes", artifact_budget);
        let mut latency = JsonObject::new();
        latency
            .uint("count", m.latency.count())
            .num("mean_ms", m.latency.mean_ms())
            .num("p50_ms", m.latency.p50_ms())
            .num("p99_ms", m.latency.p99_ms());
        let mut sessions_obj = JsonObject::new();
        sessions_obj
            .uint("hits", m.session_hits.load(Ordering::Relaxed))
            .uint("misses", m.session_misses.load(Ordering::Relaxed))
            .uint("entries", sessions);
        let mut resolver_obj = JsonObject::new();
        resolver_obj
            .uint("hits", resolver_hits)
            .uint("misses", resolver_misses)
            .uint("entries", resolver_len);
        let mut queue = JsonObject::new();
        queue
            .uint("depth", inner.queue.depth() as u64)
            .uint("capacity", inner.queue.capacity() as u64);
        let mut workers = JsonObject::new();
        workers
            .uint("configured", inner.configured_workers as u64)
            .uint("busy", m.busy_workers.load(Ordering::Relaxed));
        // Cumulative compile-phase attribution across completed jobs —
        // the same `map/schedule/lower/export` split each artifact's
        // own `stats` object reports per compile.
        let mut phases = JsonObject::new();
        phases
            .uint("map_us", m.map_phase_us.load(Ordering::Relaxed))
            .uint("schedule_us", m.schedule_phase_us.load(Ordering::Relaxed))
            .uint("lower_us", m.lower_phase_us.load(Ordering::Relaxed))
            .uint("export_us", m.export_us.load(Ordering::Relaxed));

        let mut doc = JsonObject::new();
        doc.uint("version", crate::wire::WIRE_VERSION)
            .uint("submitted", m.submitted.load(Ordering::Relaxed))
            .uint("completed", m.completed.load(Ordering::Relaxed))
            .uint("invalid", m.invalid.load(Ordering::Relaxed))
            .uint("coalesced", m.coalesced.load(Ordering::Relaxed))
            .uint("rejected_busy", m.rejected_busy.load(Ordering::Relaxed))
            .uint(
                "rejected_shutdown",
                m.rejected_shutdown.load(Ordering::Relaxed),
            )
            .uint("worker_panics", m.worker_panics.load(Ordering::Relaxed))
            .uint("worker_restarts", m.worker_restarts.load(Ordering::Relaxed))
            .uint(
                "deadline_exceeded",
                m.deadline_exceeded.load(Ordering::Relaxed),
            )
            .uint("shed_unmeetable", m.shed_unmeetable.load(Ordering::Relaxed))
            .raw("queue", &queue.finish())
            .raw("workers", &workers.finish())
            .raw("phases", &phases.finish())
            .raw("latency", &latency.finish())
            .raw("artifact_cache", &artifact_obj.finish())
            .raw("session_cache", &sessions_obj.finish())
            .raw("target_resolver", &resolver_obj.finish())
            .raw("route_cache", &cache_stats_to_json(&m.route_cache()));
        doc.finish()
    }
}

/// Latency samples required before deadline-aware shedding arms — a
/// cold service never sheds on one unrepresentative first compile.
const SHED_WARMUP_SAMPLES: u64 = 8;

/// Splices the submitter's `request_id` into the cached/compiled
/// canonical (id-less) body.
fn finalize(body: &str, request_id: Option<&str>) -> String {
    match request_id {
        Some(id) => with_request_id(body, id),
        None => body.to_owned(),
    }
}

fn record_latency(metrics: &ServiceMetrics, accepted: Instant) {
    let us = accepted.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    metrics.latency.record_micros(us);
}

/// Takes and joins every live worker handle (panicked threads join to
/// `Err`, which is expected and ignored).
fn join_workers(inner: &Inner) {
    let handles: Vec<_> = inner
        .workers
        .lock()
        .expect("workers lock")
        .iter_mut()
        .map(Option::take)
        .collect();
    for handle in handles.into_iter().flatten() {
        let _ = handle.join();
    }
}

fn spawn_worker(
    inner: &Arc<Inner>,
    index: usize,
    death_tx: mpsc::Sender<usize>,
) -> std::thread::JoinHandle<()> {
    let worker_inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("na-serve-worker-{index}"))
        .spawn(move || {
            // Dropped on every exit path; only notifies the supervisor
            // when the thread is dying of a panic.
            let _guard = DeathGuard { index, death_tx };
            worker_loop(&worker_inner);
        })
        .expect("spawn worker")
}

/// Notifies the supervisor when a worker thread dies unwinding. Normal
/// exits (queue closed and drained) drop the guard without signalling.
struct DeathGuard {
    index: usize,
    death_tx: mpsc::Sender<usize>,
}

impl Drop for DeathGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.death_tx.send(self.index);
        }
    }
}

/// The supervisor: reaps dead workers and respawns their slots while
/// the service is running. Exits when every death-notification sender
/// is gone — the service's own (dropped at shutdown) and one per live
/// worker guard.
fn supervisor_loop(inner: &Arc<Inner>, death_rx: &mpsc::Receiver<usize>) {
    while let Ok(index) = death_rx.recv() {
        if let Some(handle) = inner.workers.lock().expect("workers lock")[index].take() {
            let _ = handle.join();
        }
        if inner.queue.is_closed() {
            continue;
        }
        let death_tx = inner.death_tx.lock().expect("death-tx lock").clone();
        let Some(death_tx) = death_tx else { continue };
        inner
            .metrics
            .worker_restarts
            .fetch_add(1, Ordering::Relaxed);
        let replacement = spawn_worker(inner, index, death_tx);
        inner.workers.lock().expect("workers lock")[index] = Some(replacement);
    }
}

/// One worker: a warm scratch arena for life, jobs until the queue
/// closes and drains. Each job runs inside `catch_unwind`; a panic
/// answers the submitter with a typed `internal` error and rebuilds
/// the scratch arena (its contents may be mid-mutation). Scripted
/// [`FatalFault`] panics re-raise after replying so the thread dies
/// and the supervisor respawns the slot.
fn worker_loop(inner: &Inner) {
    let mut scratch = CompileScratch::new();
    while let Some(mut job) = inner.queue.pop() {
        inner.metrics.busy_workers.fetch_add(1, Ordering::Relaxed);
        // The canonical artifact is id-less; take the id out before
        // compiling and splice it back into this submitter's reply.
        let request_id = job.request.request_id.take();
        if let Some(plan) = &inner.fault {
            plan.stall();
        }
        // A deadline that already expired in the queue is answered
        // without compiling — the client has given up; don't spend a
        // worker proving it.
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            inner
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            let body = error_to_json(&CompileError::DeadlineExceeded);
            retire_and_reply(inner, &job, &body, request_id.as_deref());
            finish_job(inner, &job);
            continue;
        }
        match catch_unwind(AssertUnwindSafe(|| compile_job(inner, &job, &mut scratch))) {
            Ok(body) => {
                retire_and_reply(inner, &job, &body, request_id.as_deref());
                finish_job(inner, &job);
            }
            Err(payload) => {
                inner.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                // The arena may hold a half-built compile; discard it
                // rather than reuse corrupt capacity.
                scratch = CompileScratch::new();
                let body = service_error_doc("internal", &panic_message(payload.as_ref()), None);
                retire_and_reply(inner, &job, &body, request_id.as_deref());
                finish_job(inner, &job);
                if payload.downcast_ref::<FatalFault>().is_some() {
                    // Scripted worker death: the job is answered; now
                    // actually die so the supervisor path is exercised.
                    resume_unwind(payload);
                }
            }
        }
    }
}

/// Books one answered job: completion count, end-to-end latency, and
/// the busy-worker gauge.
fn finish_job(inner: &Inner, job: &Job) {
    inner.metrics.completed.fetch_add(1, Ordering::Relaxed);
    record_latency(&inner.metrics, job.accepted);
    inner.metrics.busy_workers.fetch_sub(1, Ordering::Relaxed);
}

/// Retires the single-flight entry *after* any cache insert but
/// *before* replying: once a submitter holds its response, an
/// immediate identical resubmission must find the artifact in the
/// cache, not coalesce onto a ghost entry. Error bodies (deadline,
/// cancelled, internal, session failures) are never cached, so their
/// resubmissions compile fresh.
fn retire_and_reply(inner: &Inner, job: &Job, body: &str, request_id: Option<&str>) {
    let waiters = inner
        .inflight
        .lock()
        .expect("inflight lock")
        .remove(&job.key)
        .unwrap_or_default();
    let _ = job.reply.send(finalize(body, request_id));
    for waiter in waiters {
        let _ = waiter
            .reply
            .send(finalize(body, waiter.request_id.as_deref()));
    }
}

/// Compiles one job and returns the reply body. Successful responses
/// are published to the artifact cache; error documents (session
/// failures, deadline, cancelled) are not. Runs inside the worker's
/// `catch_unwind` region — scripted faults inject here.
fn compile_job(inner: &Inner, job: &Job, scratch: &mut CompileScratch) -> String {
    if let Some(plan) = &inner.fault {
        plan.inject(plan.next_seq());
    }
    let session_key = session_fingerprint(
        &job.request.target,
        &job.request.mapping,
        &job.request.scheduling,
        job.request.baseline,
    );
    let session = {
        let sessions = inner.sessions.lock().expect("sessions lock");
        sessions.get(&session_key).cloned()
    };
    let session = match session {
        Some(compiler) => {
            inner.metrics.session_hits.fetch_add(1, Ordering::Relaxed);
            Ok(compiler)
        }
        None => match job.request.build_session() {
            Ok(compiler) => {
                inner.metrics.session_misses.fetch_add(1, Ordering::Relaxed);
                let compiler = Arc::new(compiler);
                inner
                    .sessions
                    .lock()
                    .expect("sessions lock")
                    .insert(session_key, Arc::clone(&compiler));
                Ok(compiler)
            }
            Err(e) => Err(e),
        },
    };
    match session {
        Ok(compiler) => {
            let cancel = job.deadline.map(CancelToken::with_deadline_at);
            match job.request.run_with(&compiler, scratch, cancel.as_ref()) {
                Ok(response) => {
                    // Fold each compiled program's phase attribution and
                    // route-cache counters into the service-wide
                    // aggregates, then time the reply serialization
                    // itself — the export phase.
                    for compiled in &response.results {
                        if let Ok(program) = &compiled.result {
                            inner.metrics.add_phases(
                                program.stats.map_phase.as_micros() as u64,
                                program.stats.schedule_phase.as_micros() as u64,
                                program.stats.lower_phase.as_micros() as u64,
                            );
                            inner.metrics.add_route_cache(&program.stats.route_cache);
                        }
                    }
                    let export_start = Instant::now();
                    let body: Arc<str> = Arc::from(response.to_json());
                    inner
                        .metrics
                        .export_us
                        .fetch_add(export_start.elapsed().as_micros() as u64, Ordering::Relaxed);
                    inner
                        .cache
                        .lock()
                        .expect("cache lock")
                        .insert(job.key, Arc::clone(&body));
                    body.to_string()
                }
                Err(e) => {
                    // Only deadline/cancellation stops escape
                    // `run_with`; either way the partial artifact
                    // never reaches the cache.
                    if matches!(e, CompileError::DeadlineExceeded) {
                        inner
                            .metrics
                            .deadline_exceeded
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    error_to_json(&e)
                }
            }
        }
        // Session-level failures (invalid target/options reaching
        // past parse validation) are answered but not cached.
        Err(e) => error_to_json(&e),
    }
}

/// A human-readable line for a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .or_else(|| {
            payload
                .downcast_ref::<FatalFault>()
                .map(|f| format!("scripted worker death at compile #{}", f.seq))
        })
        .unwrap_or_else(|| "opaque panic payload".to_owned());
    format!("compile panicked ({detail}); worker state was discarded")
}
