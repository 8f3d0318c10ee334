//! The daemon itself: accept loop, per-connection protocol handling,
//! admission, the answer path, the thread cache, and graceful drain.
//!
//! ## Architecture
//!
//! One [`Server`] owns one shared [`SolverService`] (persistent worker
//! pool + solve cache), a TCP listener and a [`ThreadCache`]. Each
//! accepted connection runs as a job on a cached thread, the
//! **connection thread**: it parses bounded request lines and answers
//! everything that needs no engine compute itself — admin verbs,
//! malformed lines, drain refusals, sheds (`overloaded`), and cache
//! hits and fail-fast errors of admitted `solve` requests. A cache miss
//! is queued on the service pool, and a `pareto` front runs as a job of
//! its own on the thread cache.
//!
//! Answers leave through the connection's [`Outbox`]: whichever thread
//! holds an answer sends it straight to the socket — the connection
//! thread for what it answers inline, a pool worker's callback for a
//! miss, the front job for a front. A `solve` answer is three parts
//! ([`OkParts`](crate::protocol::OkParts)): a head rendered for the
//! request id, the report's memoized canonical text, borrowed from the
//! shared report and never copied, and the report's memoized tail
//! (sibling fields, closing braces, `\n`). Every other answer is one
//! line and its `\n`. The send is one non-blocking `sendmsg(2)` of all
//! the parts, under the outbox lock. Only bytes that do not go out (the
//! socket buffer is full) are copied, from the exact offset where the
//! send stopped, into a queue, and a **writer** job is started on the
//! thread cache; the writer finishes the queue with blocking writes and
//! hands its thread back. Only the writer ever blocks on the peer, so
//! the connection thread keeps draining a client that pipelines a large
//! batch before it reads, and a pool worker never waits on a slow
//! client. While a writer holds the stream, every other answer is
//! queued behind it, so lines never interleave. On targets other than
//! Linux there is no direct send: every answer is queued and goes
//! through the writer.
//!
//! Answers go out in *completion* order — the echoed request `id` is
//! the client's correlation key, so one connection can pipeline many
//! solves, and a hit or a fast solve overtakes a slow sibling.
//!
//! Engine compute never runs on connection threads: `solve` compute is
//! bounded by the service pool regardless of the connection count. A
//! front's inner solves (`FrontSolver::inner_solve` calls
//! `SolverService::solve`) run on the front job's thread, not on the
//! pool: admission bounds how many fronts are in flight, but nothing
//! bounds how many compute at once.
//!
//! The thread cache parks a thread whose job is done for up to
//! [`PARK_TIME`], at most [`IDLE_CAP`] at a time. The accept loop hands
//! the next connection (and a connection hands a writer or a front job)
//! to a parked thread, and spawns a thread only when none is parked, so
//! a client that reconnects costs no thread creation.
//!
//! ## Warm hits
//!
//! The daemon-wide instance memo (`memo.rs`, held in the server's
//! shared state) recognizes a `solve` line's `instance` by its raw
//! bytes. The request scan skims the value once, digesting it as it
//! goes; on a memo hit the connection thread finishes the request
//! fingerprint from the remembered instance walk
//! ([`request_fingerprint`]) and asks the cache with
//! [`SolverService::lookup_keyed`]. A repeated hit thus costs a skim, a
//! digest, a lookup, a rendered id and one `sendmsg(2)`: no decode, no
//! fingerprint, no pool round trip, no thread handoff, and no copy of
//! the cached answer. A memo miss, or a memo hit whose
//! lookup misses, decodes the instance as before
//! ([`SolverService::solve_detached`] or
//! [`SolverService::compute_detached`]), and each successful decode
//! enters the memo. The memo holds at most the solve cache's entry
//! capacity and no raw bytes; two distinct instances within the line
//! cap collide with probability below 2^-87 under evaluation points
//! drawn per process (`memo.rs` gives the argument).
//!
//! ## Lifecycle
//!
//! Drain is requested by SIGINT/SIGTERM (when
//! [`ServerConfig::honor_process_signals`] is set), by the protocol
//! `shutdown` verb, or by [`ServerHandle::shutdown`]. The server then
//! 1. stops accepting: the request wakes the accept loop out of its
//!    blocking `accept` by connecting to the listener once, a
//!    connection accepted from then on is dropped unserved, and the
//!    listener closes — new connects are refused,
//! 2. stops reading new requests on every connection,
//! 3. answers every already-admitted request: each connection closes
//!    only when no detached callback is outstanding and its outbox is
//!    empty (or when the peer is gone),
//! 4. drains the thread cache — every parked thread is woken and every
//!    thread of the cache joined — and returns cleanly; the binary
//!    exits 0. No thread the server started outlives [`Server::run`].
//!
//! Nothing admitted is ever dropped: a ticket only dies right before
//! its answer is sent, and a connection only closes once every answer
//! has gone out.

use crate::admission::{Admission, AdmissionConfig, Ticket};
use crate::framing::{Frame, LineBuffer};
use crate::memo::InstanceMemo;
use crate::protocol::{
    err_response, front_ok_response, ok_response, parse_request_memo, report_ok_parts, ErrorCode,
    ScannedInstance, SolveBody, Verb, DEFAULT_MAX_LINE_BYTES,
};
use crate::{metrics, signal};
use repliflow_multicrit::{FrontRequest, FrontSolver};
use repliflow_solver::{
    request_fingerprint, Budget, Deadline, Lookup, SolveError, SolveReport, SolveRequest,
    SolverService,
};
use repliflow_sync::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use repliflow_sync::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use repliflow_sync::thread::JoinHandle;
use serde::Value;
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Default TCP port of the daemon.
pub const DEFAULT_PORT: u16 = 7473;

/// The read timeout of a connection waiting for its next request, and
/// so the bound on how long a parked connection takes to notice a
/// drain. The accept loop does not poll: it blocks in `accept`, and a
/// drain request wakes it (see [`ServerShared::request_drain`]). The
/// interval also paces the signal watcher thread and the back-off
/// after a failed `accept`.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long the drain wake-up connect may take before it gives up.
/// Loopback connects to a listening socket complete at once; the bound
/// only matters when the accept backlog is full.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// The write timeout of a connection's socket: a writer blocked on a
/// peer that stops reading gives the connection up after this long, so
/// a stuck peer cannot wedge drain forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a thread of the daemon's [`ThreadCache`] stays parked
/// without a job before it exits. Long enough that a client which
/// reconnects now and then finds a parked thread; a drain wakes parked
/// threads at once, so it never waits this long.
pub const PARK_TIME: Duration = Duration::from_secs(10);

/// The most threads the daemon's [`ThreadCache`] keeps parked at once.
/// A thread that finishes its job while this many are parked exits
/// instead, so a burst of connections leaves at most this many idle
/// threads behind.
pub const IDLE_CAP: usize = 32;

/// The name of every thread of the daemon's thread cache.
const JOB_THREAD_NAME: &str = "repliflow-serve-job";

/// Everything configurable about a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port —
    /// see [`Server::local_addr`]).
    pub addr: String,
    /// Admission limits (global queue depth, per-connection in-flight
    /// cap).
    pub admission: AdmissionConfig,
    /// Request line length cap in bytes (terminator excluded); longer
    /// lines are answered with `line_too_long` and skipped.
    pub max_line_bytes: usize,
    /// Worker threads for the shared solver service (`None`: available
    /// parallelism).
    pub workers: Option<usize>,
    /// Solve-cache capacity in reports (`0` disables caching).
    pub cache_capacity: usize,
    /// Lock-striped solve-cache shard count (rounded to a power of two
    /// and clamped to the capacity; see `SolveCache::with_shards`).
    pub cache_shards: usize,
    /// Whether budgeted background escalation is enabled: heuristic
    /// answers get a bounded thorough-tier re-solve whose improvement
    /// refreshes the cache (`escalated` provenance on later hits).
    pub escalation: bool,
    /// Default budget applied to every request (the wire `quality`
    /// field overrides its quality tier per request).
    pub default_budget: Budget,
    /// Whether SIGINT/SIGTERM (via [`signal::install_handlers`])
    /// request drain. The binary sets this; library users and tests
    /// drive drain via [`ServerHandle::shutdown`] instead.
    pub honor_process_signals: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: format!("127.0.0.1:{DEFAULT_PORT}"),
            admission: AdmissionConfig::default(),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            workers: None,
            cache_capacity: repliflow_solver::DEFAULT_CACHE_CAPACITY,
            cache_shards: repliflow_solver::DEFAULT_CACHE_SHARDS,
            escalation: false,
            default_budget: Budget::default(),
            honor_process_signals: false,
        }
    }
}

/// State shared between the accept loop, every connection, and
/// [`ServerHandle`]s.
pub(crate) struct ServerShared {
    pub(crate) admission: Arc<Admission>,
    draining: AtomicBool,
    /// Where the drain wake-up connects: the listener's own address,
    /// with a wildcard bind mapped to loopback.
    wake_addr: SocketAddr,
    honor_signals: bool,
    pub(crate) started: Instant,
    pub(crate) connections_total: AtomicU64,
    pub(crate) connections_open: AtomicUsize,
    /// `pareto` requests answered by their front job (a front or an
    /// error).
    pub(crate) fronts_answered: AtomicU64,
    max_line_bytes: usize,
    default_budget: Budget,
    /// The instance memo (see [`crate::memo`]), capped at the solve
    /// cache's entry capacity; `None` when the daemon runs cacheless.
    pub(crate) memo: Option<InstanceMemo>,
    /// The threads every connection, writer and front job runs on.
    pub(crate) threads: Arc<ThreadCache>,
}

impl ServerShared {
    /// Whether drain has been requested through any channel.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || (self.honor_signals && signal::drain_requested())
    }

    /// Raises the drain flag and wakes the accept loop: the first
    /// request connects once to the listener, so the blocked `accept`
    /// returns, sees the flag and drops that connection. Later requests
    /// only find the flag raised.
    pub(crate) fn request_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        }
    }
}

/// A handle for requesting drain (and observing it) from outside the
/// server thread. Cloneable; safe to keep after the server exits.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<ServerShared>,
}

impl ServerHandle {
    /// Requests a graceful drain: stop accepting, answer everything
    /// admitted, return from [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.request_drain();
    }

    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] consumes it and
/// blocks until drained.
pub struct Server {
    listener: TcpListener,
    service: Arc<SolverService>,
    front: Arc<FrontSolver>,
    shared: Arc<ServerShared>,
}

impl Server {
    /// Binds the listener and builds the shared solver service. The
    /// service's worker pool spawns lazily on the first admitted
    /// solve.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let mut builder = SolverService::builder()
            .cache_capacity(config.cache_capacity)
            .cache_shards(config.cache_shards)
            .escalation(config.escalation)
            .default_budget(config.default_budget);
        if let Some(workers) = config.workers {
            builder = builder.workers(workers);
        }
        let service = Arc::new(builder.build());
        // Front cache geometry follows the solve cache's on/off switch:
        // a daemon with solve caching disabled caches no fronts either.
        let front = if config.cache_capacity == 0 {
            FrontSolver::without_cache(Arc::clone(&service))
        } else {
            FrontSolver::new(Arc::clone(&service))
        };
        Ok(Server {
            listener,
            service,
            front: Arc::new(front),
            shared: Arc::new(ServerShared {
                admission: Admission::new(config.admission),
                draining: AtomicBool::new(false),
                wake_addr,
                honor_signals: config.honor_process_signals,
                started: Instant::now(),
                connections_total: AtomicU64::new(0),
                connections_open: AtomicUsize::new(0),
                fronts_answered: AtomicU64::new(0),
                max_line_bytes: config.max_line_bytes,
                default_budget: config.default_budget,
                memo: (config.cache_capacity > 0)
                    .then(|| InstanceMemo::new(config.cache_capacity, config.cache_shards)),
                threads: ThreadCache::new(JOB_THREAD_NAME, PARK_TIME, IDLE_CAP),
            }),
        })
    }

    /// The bound address (resolves port `0` to the ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A drain handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The shared solver service (for in-process observability).
    pub fn service(&self) -> &Arc<SolverService> {
        &self.service
    }

    /// The shared front solver behind the `pareto` verb.
    pub fn front_solver(&self) -> &Arc<FrontSolver> {
        &self.front
    }

    /// Serves until drain is requested, then drains and returns. On a
    /// clean drain every admitted request has been answered, every
    /// connection closed and every thread the server started joined by
    /// the time this returns.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            service,
            front,
            shared,
        } = self;
        // SIGINT/SIGTERM only raise a flag (and glibc's `signal()`
        // restarts an interrupted `accept`), so a watcher thread turns
        // a signal into a drain request that wakes the accept.
        let signal_watcher = if shared.honor_signals {
            let shared = Arc::clone(&shared);
            Some(
                repliflow_sync::thread::Builder::new()
                    .name("repliflow-serve-signal".into())
                    .spawn(move || {
                        while !shared.draining() {
                            repliflow_sync::thread::sleep(POLL_INTERVAL);
                        }
                        shared.request_drain();
                    })?,
            )
        } else {
            None
        };
        while !shared.draining() {
            match listener.accept() {
                // The drain wake-up, or a client that lost the race
                // with a drain: dropped unserved.
                Ok(_) if shared.draining() => break,
                Ok((stream, _peer)) => {
                    // relaxed: gauge/counter metrics only — nothing is
                    // ordered against these loads, stats() tolerates a
                    // momentarily stale value.
                    shared.connections_total.fetch_add(1, Ordering::Relaxed);
                    shared.connections_open.fetch_add(1, Ordering::Relaxed);
                    let service = Arc::clone(&service);
                    let front = Arc::clone(&front);
                    let shared_conn = Arc::clone(&shared);
                    let started = shared.threads.execute(move || {
                        handle_connection(stream, &service, &front, &shared_conn);
                        // relaxed: gauge metric only (see above).
                        shared_conn.connections_open.fetch_sub(1, Ordering::Relaxed);
                    });
                    // A spawn fails only under resource exhaustion;
                    // shedding this connection (the dropped job drops
                    // the stream, hanging up on the peer) is strictly
                    // better than panicking the accept loop and killing
                    // every live connection.
                    if started.is_err() {
                        // relaxed: gauge metric only (see above).
                        shared.connections_open.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Transient accept errors (e.g. a connection reset
                // between accept queue and accept, or running out of
                // file descriptors) must not kill the daemon; back off
                // instead of spinning on them.
                Err(_) => repliflow_sync::thread::sleep(POLL_INTERVAL),
            }
        }
        // A drain seen through the signal flag alone still raises the
        // server's own flag, so later requests need not wake anything.
        shared.draining.store(true, Ordering::SeqCst);
        // Drain: close the listener first (new connects are refused),
        // then wait for every connection to answer its admitted
        // requests and hang up, and for every cached thread to exit.
        drop(listener);
        if let Some(watcher) = signal_watcher {
            let _ = watcher.join();
        }
        shared.threads.drain();
        Ok(())
    }
}

/// Outcome of one bounded line read.
enum Line<'a> {
    /// A complete line (without the terminator), borrowed from the
    /// reader's buffer.
    Full(&'a [u8]),
    /// The line exceeded the cap; it was consumed and discarded.
    TooLong,
    /// Clean end of stream (or an unterminated trailing fragment).
    Eof,
    /// Drain was requested while waiting for bytes.
    Draining,
    /// Unrecoverable stream error.
    Failed,
}

/// A connection's request reader: [`LineBuffer`] framing over the
/// socket, with drain-aware blocking — reads time out after
/// [`POLL_INTERVAL`] so a parked connection notices a drain request.
struct LineReader<'a> {
    stream: &'a TcpStream,
    shared: &'a ServerShared,
    buffer: LineBuffer,
}

impl<'a> LineReader<'a> {
    fn new(stream: &'a TcpStream, shared: &'a ServerShared) -> LineReader<'a> {
        LineReader {
            stream,
            shared,
            buffer: LineBuffer::new(shared.max_line_bytes),
        }
    }

    fn next_line(&mut self) -> Line<'_> {
        loop {
            match self.buffer.next_frame() {
                Some(Frame::Line(range)) => return Line::Full(self.buffer.bytes(range)),
                Some(Frame::TooLong) => return Line::TooLong,
                None => {}
            }
            match self.buffer.fill(&mut self.stream) {
                Ok(0) => return Line::Eof,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if self.shared.draining() {
                        return Line::Draining;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Line::Failed,
            }
        }
    }
}

/// Renders the answer to a solve and hands it to `send`: a report's
/// three [`OkParts`](crate::protocol::OkParts), or an error line and
/// its `\n`.
fn answer_solve(
    id: &Value,
    result: Result<Arc<SolveReport>, SolveError>,
    send: impl FnOnce(&[&[u8]]),
) {
    match result {
        Ok(report) => send(&report_ok_parts(id, &report).slices()),
        Err(error) => {
            let (code, message) = ErrorCode::of_solve_error(&error);
            let mut line = err_response(id, code, &message);
            line.push('\n');
            send(&[line.as_bytes()]);
        }
    }
}

/// Serves one connection: reads requests until EOF/drain, answers
/// through its outbox, then waits for every admitted request's answer
/// to go out before hanging up.
fn handle_connection(
    stream: TcpStream,
    service: &Arc<SolverService>,
    front: &Arc<FrontSolver>,
    shared: &Arc<ServerShared>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let outbox = Arc::new(Outbox::new(stream, Arc::clone(&shared.threads)));
    let conn_inflight = Arc::new(AtomicUsize::new(0));
    let mut reader = LineReader::new(outbox.sink(), shared);
    loop {
        if shared.draining() || outbox.peer_gone() {
            break;
        }
        match reader.next_line() {
            Line::Full(bytes) => {
                // invalid UTF-8 surfaces as a parse failure
                let line = std::str::from_utf8(bytes).unwrap_or("\u{fffd}");
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(line, service, front, shared, &conn_inflight, &outbox);
            }
            Line::TooLong => {
                outbox.send(err_response(
                    &Value::Null,
                    ErrorCode::LineTooLong,
                    &format!(
                        "request line exceeds the {} byte cap; request skipped",
                        shared.max_line_bytes
                    ),
                ));
            }
            Line::Draining | Line::Eof | Line::Failed => break,
        }
    }
    // Wait until every in-flight solve callback has sent its answer and
    // the writer has emptied the queue — the "no admitted request is
    // ever dropped" half of graceful drain.
    outbox.close();
}

/// Dispatches one parsed request line. Everything answered without
/// compute — errors, sheds, admin verbs, cache hits — is answered here,
/// on the connection thread; cache misses go to the service pool and
/// fronts to a job of their own. Every answer goes through the outbox,
/// which never blocks this thread on the peer, so it keeps draining
/// pipelined requests.
fn handle_line(
    line: &str,
    service: &Arc<SolverService>,
    front: &Arc<FrontSolver>,
    shared: &Arc<ServerShared>,
    conn_inflight: &Arc<AtomicUsize>,
    outbox: &Arc<Outbox<TcpStream>>,
) {
    let request = match parse_request_memo(line, shared.memo.as_ref()) {
        Ok(request) => request,
        Err(failure) => {
            outbox.send(err_response(&failure.id, failure.code, &failure.message));
            return;
        }
    };
    let id = request.id;
    match request.verb {
        Verb::Ping => {
            outbox.send(ok_response(
                &id,
                Value::Object(vec![("pong".into(), Value::Bool(true))]),
            ));
        }
        Verb::Stats => {
            outbox.send(ok_response(&id, metrics::snapshot(service, front, shared)));
        }
        Verb::Shutdown => {
            // Answer first, then raise the flag: the connection closes
            // only once its outbox is empty, so the acknowledgement
            // always ships.
            outbox.send(ok_response(
                &id,
                Value::Object(vec![("draining".into(), Value::Bool(true))]),
            ));
            shared.request_drain();
        }
        Verb::Solve(body) => {
            handle_solve(line, id, *body, service, shared, conn_inflight, outbox);
        }
        Verb::Pareto(body) => {
            let ticket = match admit(shared, conn_inflight, &id) {
                Ok(ticket) => ticket,
                Err(refusal) => {
                    outbox.send(refusal);
                    return;
                }
            };
            let mut budget = shared.default_budget.quality(body.quality);
            if let Some(points) = body.points {
                budget = budget.max_front_points(points);
            }
            let request = FrontRequest::new(body.instance)
                .engine(body.engine)
                .budget(budget)
                .validate_witness(body.validate);
            let front = Arc::clone(front);
            let reply = outbox.reply();
            let front_id = id.clone();
            let answered = Arc::clone(shared);
            // A front solve is a *sequence* of inner solves; running it
            // on the connection thread would stall pipelined siblings
            // behind the whole sweep, so it runs as a job of its own.
            // The inner solves (`FrontSolver::inner_solve` calls
            // `SolverService::solve`) run on that job's thread, not on
            // the shared pool: admission bounds how many fronts are in
            // flight, but nothing bounds how many compute at once.
            let started = shared.threads.execute(move || {
                let response = match front.solve_front(&request) {
                    Ok(report) => front_ok_response(&front_id, &report),
                    Err(error) => {
                        let (code, message) = ErrorCode::of_solve_error(&error);
                        err_response(&front_id, code, &message)
                    }
                };
                // relaxed: a monotone counter for `stats` only.
                answered.fronts_answered.fetch_add(1, Ordering::Relaxed);
                // Same release-before-answer ordering as solve.
                drop(ticket);
                reply.send(response);
            });
            if started.is_err() {
                // Resource exhaustion: shed this request; the ticket
                // (moved into the dropped job) is already released.
                outbox.send(err_response(
                    &id,
                    ErrorCode::Overloaded,
                    "cannot spawn a front orchestration thread; retry later",
                ));
            }
        }
    }
}

/// Admits and answers one `solve`. A shed, a cache hit or a fail-fast
/// error is answered here, on the connection thread; a miss computes on
/// the service pool and its callback answers. When the instance has a
/// memo walk, the request key is finished from it and looked up before
/// anything is decoded: a warm hit costs the skim, the digest and the
/// lookup. Otherwise the request fingerprints its decoded instance, as
/// without a memo.
fn handle_solve(
    line: &str,
    id: Value,
    body: SolveBody<ScannedInstance>,
    service: &Arc<SolverService>,
    shared: &Arc<ServerShared>,
    conn_inflight: &Arc<AtomicUsize>,
    outbox: &Arc<Outbox<TcpStream>>,
) {
    let ticket = match admit(shared, conn_inflight, &id) {
        Ok(ticket) => ticket,
        Err(refusal) => {
            outbox.send(refusal);
            return;
        }
    };
    let SolveBody {
        instance,
        engine,
        quality,
        validate,
        deadline_ms,
    } = body;
    let budget = shared.default_budget.quality(quality);
    let deadline = deadline_ms.map(Deadline::in_ms);
    // Every inline answer below drops the ticket before it is sent: a
    // client that has read its answer must already see the request as
    // completed (e.g. in a follow-up `stats`).
    let miss = match instance.walk() {
        Some(walk) => {
            let key = request_fingerprint(walk, engine, &budget, validate);
            match service.lookup_keyed(key, &budget, deadline, None) {
                Lookup::Answered(result) => {
                    answer_solve(&id, result, |parts| {
                        drop(ticket);
                        outbox.send_parts(parts);
                    });
                    return;
                }
                Lookup::Miss(miss) => Some(miss),
            }
        }
        None => None,
    };
    let instance = match instance.into_instance(line) {
        Ok(instance) => instance,
        // A memoized span decodes as it did when it entered the memo;
        // only a digest collision gets here.
        Err(message) => {
            drop(ticket);
            outbox.send(err_response(&id, ErrorCode::BadRequest, &message));
            return;
        }
    };
    let request = SolveRequest {
        deadline,
        ..SolveRequest::new(instance)
            .engine(engine)
            .budget(budget)
            .validate_witness(validate)
    };
    let reply = outbox.reply();
    let pool_id = id.clone();
    let on_done = move |result| {
        answer_solve(&pool_id, result, |parts| {
            // Release the slot before sending the answer (see above).
            drop(ticket);
            reply.send_parts(parts);
        });
    };
    match miss {
        Some(miss) => service.compute_detached(request, miss, on_done),
        None => {
            // An inline answer has dropped `on_done`, and the ticket in
            // it, before it returns.
            if let Some(result) = service.solve_detached(request, on_done) {
                answer_solve(&id, result, |parts| outbox.send_parts(parts));
            }
        }
    }
}

/// The drain check and the admission gate every compute verb passes;
/// a refusal is the error line to answer request `id` with.
fn admit(
    shared: &ServerShared,
    conn_inflight: &Arc<AtomicUsize>,
    id: &Value,
) -> Result<Ticket, String> {
    if shared.draining() {
        return Err(err_response(
            id,
            ErrorCode::ShuttingDown,
            "daemon is draining; no new requests admitted",
        ));
    }
    shared.admission.try_admit(conn_inflight).map_err(|reason| {
        err_response(
            id,
            ErrorCode::Overloaded,
            &reason.message(shared.admission.config()),
        )
    })
}

/// Locks `mutex`, recovering it from poisoning: the outbox and the
/// thread cache only update flags, counts and queues under their locks,
/// so the state a panicking holder leaves is coherent.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// The answer path
// ---------------------------------------------------------------------

/// Linux's `MSG_DONTWAIT`: this one send does not block.
#[cfg(target_os = "linux")]
const MSG_DONTWAIT: i32 = 0x40;

/// Linux's `MSG_NOSIGNAL`: a send to a closed peer fails with `EPIPE`
/// instead of raising `SIGPIPE`.
#[cfg(target_os = "linux")]
const MSG_NOSIGNAL: i32 = 0x4000;

/// The most parts one [`Outbox::send_parts`] carries: an answer's head,
/// its canonical text and its tail.
pub const MAX_PARTS: usize = 3;

/// `struct iovec` as Linux lays it out: one buffer of a vectored send.
#[cfg(target_os = "linux")]
#[derive(Clone, Copy)]
#[repr(C)]
struct IoVec {
    base: *const u8,
    len: usize,
}

/// `struct msghdr` as 64-bit Linux glibc lays it out (`repr(C)` puts
/// the padding after `name_len` and `flags` where C does).
#[cfg(target_os = "linux")]
#[repr(C)]
struct MsgHdr {
    name: *mut u8,
    name_len: u32,
    iov: *const IoVec,
    iov_len: usize,
    control: *mut u8,
    control_len: usize,
    flags: i32,
}

#[cfg(target_os = "linux")]
extern "C" {
    /// POSIX `sendmsg(2)` (the workspace vendors no `libc`): sends up
    /// to the total length of the `msg.iov` buffers, in order, on socket
    /// `fd`; returns the count sent or -1 with `errno` set.
    fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
}

/// Where an [`Outbox`]'s bytes go. The daemon's sink is the
/// connection's [`TcpStream`]; the tests and the model checks
/// (`tests/modelcheck_drain.rs`) use fakes that take a few bytes at a
/// time.
pub trait Sink: Send + Sync + 'static {
    /// Sends a prefix of the concatenation of `parts` (at most
    /// [`MAX_PARTS`] of them) without blocking and returns its length;
    /// `WouldBlock` when nothing fits now. The default sends nothing,
    /// so every answer is queued for the writer.
    fn try_send_parts(&self, _parts: &[&[u8]]) -> std::io::Result<usize> {
        Err(ErrorKind::WouldBlock.into())
    }

    /// Sends all of `bytes`, blocking while the peer does not take
    /// them (up to the socket's write timeout).
    fn send_all(&self, bytes: &[u8]) -> std::io::Result<()>;
}

impl Sink for TcpStream {
    /// One `sendmsg(2)` of every part with `MSG_DONTWAIT |
    /// MSG_NOSIGNAL`. Off Linux there is no direct send: the default
    /// leaves every answer to the writer.
    #[cfg(target_os = "linux")]
    fn try_send_parts(&self, parts: &[&[u8]]) -> std::io::Result<usize> {
        use std::os::fd::AsRawFd;
        let mut iov = [IoVec {
            base: std::ptr::null(),
            len: 0,
        }; MAX_PARTS];
        for (slot, part) in iov.iter_mut().zip(parts) {
            *slot = IoVec {
                base: part.as_ptr(),
                len: part.len(),
            };
        }
        let msg = MsgHdr {
            name: std::ptr::null_mut(),
            name_len: 0,
            iov: iov.as_ptr(),
            iov_len: parts.len().min(MAX_PARTS),
            control: std::ptr::null_mut(),
            control_len: 0,
            flags: 0,
        };
        // SAFETY: `sendmsg` is the libc entry point with this C
        // signature, and `MsgHdr` and `IoVec` have the C layout (pinned
        // by a unit test). `msg` names no address and no control data;
        // its `iov_len` entries each point at a live slice of `len`
        // readable bytes that `parts` keeps borrowed for the whole
        // call, and the kernel only reads them. The descriptor is this
        // stream's own open socket, which `&self` keeps open.
        let sent = unsafe { sendmsg(self.as_raw_fd(), &msg, MSG_DONTWAIT | MSG_NOSIGNAL) };
        usize::try_from(sent).map_err(|_| std::io::Error::last_os_error())
    }

    fn send_all(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut stream = self;
        stream.write_all(bytes)
    }
}

/// One connection's answer path: every answer is sent by the thread
/// that has it, straight to the [`Sink`], unless a writer holds the
/// stream (see the module docs).
///
/// Invariants, all under the one lock:
/// * a direct send happens only while no writer holds the stream, and
///   the queue is empty whenever none does — so lines never interleave;
/// * whatever a direct send leaves over is queued, and the stream
///   handed to a writer job, in the same critical section;
/// * [`Outbox::close`] returns only when no [`Reply`] is outstanding and
///   no writer holds the stream, or when the peer is gone.
pub struct Outbox<S: Sink> {
    sink: S,
    threads: Arc<ThreadCache>,
    state: Mutex<OutboxState>,
    /// Signalled, while the connection closes, when the last reply is
    /// dropped or the writer hands the stream back.
    settled: Condvar,
}

#[derive(Default)]
struct OutboxState {
    /// Answer bytes a writer has yet to send: the rest of the answer
    /// whose direct send fell short, then whole answers in order.
    queue: Vec<u8>,
    /// Whether a writer job holds the stream.
    writer: bool,
    /// Outstanding [`Reply`] handles.
    replies: usize,
    /// The peer is gone (or no writer thread could be started): further
    /// answers are dropped.
    dead: bool,
    /// [`Outbox::close`] is waiting on `settled`.
    closing: bool,
}

impl<S: Sink> Outbox<S> {
    /// An outbox over `sink` whose writer jobs run on `threads`.
    pub fn new(sink: S, threads: Arc<ThreadCache>) -> Outbox<S> {
        Outbox {
            sink,
            threads,
            state: Mutex::new(OutboxState::default()),
            settled: Condvar::new(),
        }
    }

    /// The sink (the daemon reads requests from the same socket).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Sends one answer line; the `\n` is appended here, in the same
    /// buffer, so a direct send is one syscall.
    pub fn send(self: &Arc<Self>, mut line: String) {
        line.push('\n');
        self.send_parts(&[line.as_bytes()]);
    }

    /// Sends one answer given as up to [`MAX_PARTS`] parts that
    /// together make whole lines, with one vectored send. Never blocks
    /// on the peer: only what does not go out at once is copied, into
    /// the queue for a writer.
    pub fn send_parts(self: &Arc<Self>, parts: &[&[u8]]) {
        debug_assert!(parts.len() <= MAX_PARTS, "{} parts", parts.len());
        let mut state = lock(&self.state);
        if state.dead {
            return;
        }
        if state.writer {
            queue_from(&mut state.queue, parts, 0);
            return;
        }
        let sent = loop {
            match self.sink.try_send_parts(parts) {
                Ok(sent) => break sent,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break 0,
                Err(_) => {
                    self.give_up(state);
                    return;
                }
            }
        };
        if sent >= parts.iter().map(|part| part.len()).sum() {
            return;
        }
        queue_from(&mut state.queue, parts, sent);
        state.writer = true;
        drop(state);
        self.start_writer();
    }

    /// A handle for an answer sent later by another thread (a pool
    /// callback, a front job): the connection does not close while it
    /// is outstanding.
    pub fn reply(self: &Arc<Self>) -> Reply<S> {
        lock(&self.state).replies += 1;
        Reply {
            outbox: Arc::clone(self),
        }
    }

    /// Whether the peer is gone: answers are dropped from now on.
    pub fn peer_gone(&self) -> bool {
        lock(&self.state).dead
    }

    /// Waits until every answer is out — no reply outstanding and no
    /// writer holding the stream — or the peer is gone.
    pub fn close(&self) {
        let mut state = lock(&self.state);
        state.closing = true;
        while !state.dead && (state.replies > 0 || state.writer) {
            state = self
                .settled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Starts a writer job for the queue.
    fn start_writer(self: &Arc<Self>) {
        // relaxed: a monotone counter for `stats` only.
        self.threads.writers.fetch_add(1, Ordering::Relaxed);
        let outbox = Arc::clone(self);
        if self.threads.execute(move || outbox.write_queue()).is_err() {
            // No thread for the writer (resource exhaustion): the
            // queued answers cannot be delivered, so the connection is
            // given up and hangs up.
            self.give_up(lock(&self.state));
        }
    }

    /// The writer job: sends the queue with blocking writes until it is
    /// empty, then hands the stream back.
    fn write_queue(&self) {
        let mut state = lock(&self.state);
        while !state.dead && !state.queue.is_empty() {
            let batch = std::mem::take(&mut state.queue);
            drop(state);
            let sent = self.sink.send_all(&batch);
            state = lock(&self.state);
            if sent.is_err() {
                self.give_up(state);
                return;
            }
        }
        state.writer = false;
        self.settle(state);
    }

    /// Marks the peer gone: drops the queue and releases `close`.
    fn give_up(&self, mut state: MutexGuard<'_, OutboxState>) {
        state.dead = true;
        state.writer = false;
        state.queue = Vec::new();
        self.settle(state);
    }

    /// Wakes a waiting `close` (its condition may now hold).
    fn settle(&self, state: MutexGuard<'_, OutboxState>) {
        let closing = state.closing;
        drop(state);
        if closing {
            self.settled.notify_all();
        }
    }
}

/// Appends the concatenation of `parts` to `queue`, from byte `skip` of
/// it on: the rest of an answer whose first `skip` bytes went out.
fn queue_from(queue: &mut Vec<u8>, parts: &[&[u8]], mut skip: usize) {
    for part in parts {
        if skip >= part.len() {
            skip -= part.len();
            continue;
        }
        queue.extend_from_slice(&part[skip..]);
        skip = 0;
    }
}

/// An outstanding answer of an [`Outbox`], sent from another thread;
/// see [`Outbox::reply`]. Dropping it unsent also releases the
/// connection's close.
pub struct Reply<S: Sink> {
    outbox: Arc<Outbox<S>>,
}

impl<S: Sink> Reply<S> {
    /// Sends the answer (as [`Outbox::send`]) and retires the handle.
    pub fn send(self, line: String) {
        self.outbox.send(line);
    }

    /// Sends the answer (as [`Outbox::send_parts`]) and retires the
    /// handle.
    pub fn send_parts(self, parts: &[&[u8]]) {
        self.outbox.send_parts(parts);
    }
}

impl<S: Sink> Drop for Reply<S> {
    fn drop(&mut self) {
        let mut state = lock(&self.outbox.state);
        state.replies -= 1;
        if state.replies == 0 {
            self.outbox.settle(state);
        }
    }
}

// ---------------------------------------------------------------------
// The thread cache
// ---------------------------------------------------------------------

/// A job of the [`ThreadCache`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The threads the daemon runs its connections, writers and fronts on.
/// A thread whose job is done parks (for up to the park time, and only
/// while fewer than the idle cap are parked); [`ThreadCache::execute`]
/// hands a job to a parked thread and spawns a new one only when none
/// is parked. [`ThreadCache::drain`] wakes every parked thread and
/// joins every thread.
pub struct ThreadCache {
    name: &'static str,
    park: Duration,
    idle_cap: usize,
    state: Mutex<CacheState>,
    /// Parked threads wait here for a job or the drain.
    wake: Condvar,
    spawned: AtomicU64,
    reused: AtomicU64,
    writers: AtomicU64,
}

#[derive(Default)]
struct CacheState {
    /// Jobs handed to parked threads and not yet taken; never more than
    /// `idle`, so every queued job has a parked thread to run it.
    jobs: VecDeque<Job>,
    /// Parked threads.
    idle: usize,
    draining: bool,
    /// Every thread started and not yet joined.
    threads: Vec<JoinHandle<()>>,
}

/// The `threads` section of the daemon's `stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Threads started because no thread was parked.
    pub spawned: u64,
    /// Jobs handed to a parked thread.
    pub reused: u64,
    /// Threads parked now.
    pub parked: usize,
    /// Writer jobs started because a send would block.
    pub writers: u64,
}

impl ThreadCache {
    /// A cache whose threads are named `name`, park for up to `park`
    /// and of which at most `idle_cap` park at once.
    pub fn new(name: &'static str, park: Duration, idle_cap: usize) -> Arc<ThreadCache> {
        Arc::new(ThreadCache {
            name,
            park,
            idle_cap,
            state: Mutex::new(CacheState::default()),
            wake: Condvar::new(),
            spawned: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            writers: AtomicU64::new(0),
        })
    }

    /// Runs `job` on a parked thread, or on a new one when none is
    /// parked. Fails only when a thread cannot be spawned; the job is
    /// then dropped unrun.
    pub fn execute(self: &Arc<Self>, job: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let mut state = lock(&self.state);
        if state.idle > state.jobs.len() {
            state.jobs.push_back(Box::new(job));
            drop(state);
            self.wake.notify_one();
            // relaxed: a monotone counter for `stats` only.
            self.reused.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        // Spawned under the lock, so `drain` cannot miss the handle.
        let cache = Arc::clone(self);
        let handle = repliflow_sync::thread::Builder::new()
            .name(self.name.into())
            .spawn(move || cache.work(Box::new(job)))?;
        state.threads.retain(|thread| !thread.is_finished());
        state.threads.push(handle);
        // relaxed: a monotone counter for `stats` only.
        self.spawned.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Wakes every parked thread and joins every thread, including
    /// those started while it waits (writers of closing connections).
    /// Returns when no thread of the cache is left.
    pub fn drain(&self) {
        lock(&self.state).draining = true;
        self.wake.notify_all();
        loop {
            let threads = std::mem::take(&mut lock(&self.state).threads);
            if threads.is_empty() {
                return;
            }
            for thread in threads {
                let _ = thread.join();
            }
        }
    }

    /// The counters of the `stats` section.
    pub fn stats(&self) -> ThreadStats {
        let parked = {
            let state = lock(&self.state);
            state.idle - state.jobs.len()
        };
        // relaxed: monotone counters; a stats reader tolerates values a
        // moment stale.
        let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        ThreadStats {
            spawned: count(&self.spawned),
            reused: count(&self.reused),
            parked,
            writers: count(&self.writers),
        }
    }

    /// A cached thread's life: run the job, then park for the next.
    fn work(&self, mut job: Job) {
        loop {
            job();
            match self.park_for_job() {
                Some(next) => job = next,
                None => return,
            }
        }
    }

    /// Parks until a job is handed over. `None` when the thread should
    /// exit instead: drain, the idle cap, or a park time without a job.
    fn park_for_job(&self) -> Option<Job> {
        let mut state = lock(&self.state);
        if state.draining || state.idle >= self.idle_cap {
            return None;
        }
        state.idle += 1;
        loop {
            if let Some(job) = state.jobs.pop_front() {
                state.idle -= 1;
                return Some(job);
            }
            if state.draining {
                state.idle -= 1;
                return None;
            }
            let (guard, wait) = self
                .wake
                .wait_timeout(state, self.park)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            // The idle re-check: a job handed over while the park time
            // ran out counted on this thread, so it is taken (at the
            // top of the loop) rather than left behind.
            if wait.timed_out() && state.jobs.is_empty() {
                state.idle -= 1;
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repliflow_core::gen::Gen;
    use std::io::Read;

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn the_ffi_structs_have_the_c_layout() {
        use std::mem::{offset_of, size_of};
        assert_eq!(size_of::<IoVec>(), 16);
        assert_eq!(size_of::<MsgHdr>(), 56);
        assert_eq!(offset_of!(IoVec, len), 8);
        assert_eq!(offset_of!(MsgHdr, iov), 16);
        assert_eq!(offset_of!(MsgHdr, iov_len), 24);
        assert_eq!(offset_of!(MsgHdr, control), 32);
        assert_eq!(offset_of!(MsgHdr, control_len), 40);
        assert_eq!(offset_of!(MsgHdr, flags), 48);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_vectored_send_delivers_the_parts_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connects");
        let (server, _) = listener.accept().expect("accepts");
        let parts: [&[u8]; 3] = [b"{\"head\":", &[b'7'; 5000], b"}\n"];
        let sent = server.try_send_parts(&parts).expect("loopback takes 5 KB");
        assert_eq!(sent, 5010);
        drop(server);
        let mut got = Vec::new();
        (&client).read_to_end(&mut got).expect("reads");
        assert_eq!(got, parts.concat());
    }

    /// A socket stand-in that takes a seeded prefix of each non-blocking
    /// send: nothing (would-block), a cut inside one of the parts, or
    /// everything. Blocking sends take everything.
    struct StingySink {
        gen: Mutex<Gen>,
        taken: Mutex<Vec<u8>>,
    }

    impl Sink for StingySink {
        fn try_send_parts(&self, parts: &[&[u8]]) -> std::io::Result<usize> {
            let whole = parts.concat();
            let mut gen = lock(&self.gen);
            let pick = gen.size(0, parts.len() + 1);
            let cut = if pick == 0 {
                0
            } else if pick <= parts.len() && !parts[pick - 1].is_empty() {
                let before: usize = parts[..pick - 1].iter().map(|part| part.len()).sum();
                before + gen.size(0, parts[pick - 1].len() - 1)
            } else {
                whole.len()
            };
            if cut == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            lock(&self.taken).extend_from_slice(&whole[..cut]);
            Ok(cut)
        }

        fn send_all(&self, bytes: &[u8]) -> std::io::Result<()> {
            lock(&self.taken).extend_from_slice(bytes);
            Ok(())
        }
    }

    /// Answer `k` of `sender`: a head, a canonical text of seeded length
    /// and a tail, which make one line.
    fn answer(gen: &mut Gen, sender: usize, k: usize) -> [String; 3] {
        [
            format!("{{\"v\":1,\"id\":\"{sender}-{k}\",\"ok\":{{\"canonical\":"),
            format!("\"{}\"", "c".repeat(gen.size(0, 300))),
            "}}\n".to_string(),
        ]
    }

    #[test]
    fn a_stingy_sink_gets_every_answer_whole_and_in_order() {
        for seed in 0..40 {
            let threads = ThreadCache::new("outbox-test", Duration::from_millis(50), 4);
            let sink = StingySink {
                gen: Mutex::new(Gen::new(0x5719_0000 + seed)),
                taken: Mutex::new(Vec::new()),
            };
            let outbox = Arc::new(Outbox::new(sink, Arc::clone(&threads)));
            let mut gen = Gen::new(seed);
            // the connection thread's answers, and two callbacks'
            let senders: Vec<Vec<[String; 3]>> = (0..3)
                .map(|sender| (0..20).map(|k| answer(&mut gen, sender, k)).collect())
                .collect();
            let callbacks: Vec<_> = senders[1..]
                .iter()
                .map(|answers| {
                    let reply = outbox.reply();
                    let outbox = Arc::clone(&outbox);
                    let answers = answers.clone();
                    repliflow_sync::thread::spawn(move || {
                        let (last, rest) = answers.split_last().expect("answers");
                        for parts in rest {
                            outbox.send_parts(&parts.each_ref().map(|part| part.as_bytes()));
                        }
                        reply.send_parts(&last.each_ref().map(|part| part.as_bytes()));
                    })
                })
                .collect();
            for (k, parts) in senders[0].iter().enumerate() {
                if k % 5 == 4 {
                    // a whole line through the one-part path
                    let mut line = parts.concat();
                    line.pop();
                    outbox.send(line);
                } else {
                    outbox.send_parts(&parts.each_ref().map(|part| part.as_bytes()));
                }
            }
            outbox.close();
            for callback in callbacks {
                callback.join().expect("callback joins");
            }
            let taken = String::from_utf8(lock(&outbox.sink().taken).clone()).expect("UTF-8");
            assert!(taken.ends_with('\n'), "seed {seed}: a torn last line");
            let lines: Vec<&str> = taken.split_terminator('\n').collect();
            assert_eq!(
                lines.len(),
                60,
                "seed {seed}: a line lost, torn or repeated"
            );
            for (sender, answers) in senders.iter().enumerate() {
                let own: Vec<&str> = lines
                    .iter()
                    .copied()
                    .filter(|line| line.contains(&format!("\"id\":\"{sender}-")))
                    .collect();
                let expected: Vec<String> = answers
                    .iter()
                    .map(|parts| parts.concat().trim_end().to_string())
                    .collect();
                assert_eq!(own, expected, "seed {seed}, sender {sender}");
            }
            threads.drain();
        }
    }
}
