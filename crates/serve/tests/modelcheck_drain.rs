//! Loom-model checks for the graceful-drain state machine, the answer
//! path and the thread cache.
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p repliflow-serve
//! --test modelcheck_drain` — without `--cfg loom` this file is empty.
//!
//! The connection loop cannot be modelled directly (real sockets), so
//! the first models distil its drain essence: a connection thread that
//! checks the draining flag, admits, answers (a channel stands for its
//! outbox), and releases its ticket; a drain thread that raises the
//! flag at an arbitrary point. The contract under exploration is the
//! one `ServerHandle::shutdown` documents — **every request that is
//! read gets exactly one response** (a solve answer, a shed, or a drain
//! refusal; never silence) and every admitted request completes, in
//! every bounded-preemption interleaving.
//!
//! The outbox and the thread cache are the production types, with the
//! socket behind the `Sink` trait: a fake sink takes a few bytes per
//! non-blocking send and reports would-block for the rest. The models
//! check that a direct send racing the writer keeps every line whole
//! and sends it once, that a three-part answer whose send stops inside
//! a part is finished from exactly there, and that `close` waits for an
//! outstanding callback; that a job handed to a parked thread whose park time runs
//! out at the same moment still runs; and that drain wakes every parked
//! thread. A last model checks that a drain request always wakes the
//! accept loop blocked in `accept`.
#![cfg(loom)]

use repliflow_serve::admission::{Admission, AdmissionConfig};
use repliflow_serve::server::{Outbox, Sink, ThreadCache};
use repliflow_sync::loom;
use repliflow_sync::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use repliflow_sync::sync::{mpsc, Arc, Condvar, Mutex};
use repliflow_sync::thread;
use std::io::ErrorKind;
use std::time::Duration;

/// What the modelled connection answered for one request.
#[derive(Debug, PartialEq, Eq)]
enum Answer {
    /// Admitted, solved, ticket released.
    Served,
    /// Refused because drain was observed first.
    Draining,
    /// Refused by admission control (queue full).
    Shed,
}

/// The per-request serving path distilled from `handle_line`: drain
/// check, then admission, then the answer goes to the outbox.
/// Exactly one `Answer` is sent on every path — the invariant the
/// model exists to pin.
fn serve_request(
    draining: &AtomicBool,
    admission: &Arc<Admission>,
    conn: &Arc<AtomicUsize>,
    tx: &mpsc::Sender<Answer>,
) {
    if draining.load(Ordering::SeqCst) {
        let _ = tx.send(Answer::Draining);
        return;
    }
    match admission.try_admit(conn) {
        Ok(_ticket) => {
            // "Solve" is instantaneous here; the ticket is held across
            // the send so drain can race the release.
            let _ = tx.send(Answer::Served);
        }
        Err(_) => {
            let _ = tx.send(Answer::Shed);
        }
    }
}

#[test]
fn every_read_request_is_answered_across_drain() {
    let schedules = loom::Builder {
        max_preemptions: 2,
        max_schedules: 50_000,
    }
    .model(|| {
        let draining = Arc::new(AtomicBool::new(false));
        let admission = Admission::new(AdmissionConfig {
            queue_depth: 4,
            per_conn_inflight: 4,
        });
        let (tx, rx) = mpsc::channel();

        // One connection, two pipelined requests, racing the drain.
        let conn_thread = {
            let draining = Arc::clone(&draining);
            let admission = Arc::clone(&admission);
            thread::spawn(move || {
                let conn = Arc::new(AtomicUsize::new(0));
                serve_request(&draining, &admission, &conn, &tx);
                serve_request(&draining, &admission, &conn, &tx);
                // the reader loop exits; the outbox closes once empty.
            })
        };
        // The drain side: raise the flag at an arbitrary point.
        draining.store(true, Ordering::SeqCst);
        conn_thread.join().expect("connection thread joins");

        // Everything the connection answered, in the order sent.
        let answers: Vec<Answer> = rx.iter().collect();
        assert_eq!(answers.len(), 2, "a read request went unanswered");
        // Depth 4 never sheds a 2-request connection.
        assert!(!answers.contains(&Answer::Shed));
        let stats = admission.stats();
        let served = answers.iter().filter(|a| **a == Answer::Served).count();
        assert_eq!(stats.accepted as usize, served);
        assert_eq!(stats.completed, stats.accepted, "an admit never completed");
        assert_eq!(stats.in_flight, 0, "drain left a ticket in flight");
    })
    .schedules;
    eprintln!("drain_all_answered: {schedules} schedules");
    assert!(schedules >= 4, "explored only {schedules} schedules");
}

#[test]
fn drain_observed_before_admit_is_refused_not_dropped() {
    let schedules = loom::Builder {
        max_preemptions: 2,
        max_schedules: 50_000,
    }
    .model(|| {
        let draining = Arc::new(AtomicBool::new(false));
        let admission = Admission::new(AdmissionConfig {
            queue_depth: 1,
            per_conn_inflight: 1,
        });
        let (tx, rx) = mpsc::channel();
        let conn_thread = {
            let draining = Arc::clone(&draining);
            let admission = Arc::clone(&admission);
            thread::spawn(move || {
                let conn = Arc::new(AtomicUsize::new(0));
                serve_request(&draining, &admission, &conn, &tx);
            })
        };
        draining.store(true, Ordering::SeqCst);
        conn_thread.join().expect("connection thread joins");
        let answer = rx.recv().expect("the request must be answered");
        // Both orders are legal, but the books must match the answer:
        // a drain refusal admits nothing; a served request releases.
        match answer {
            Answer::Draining => assert_eq!(admission.stats().accepted, 0),
            Answer::Served => {
                assert_eq!(admission.stats().accepted, 1);
                assert_eq!(admission.stats().completed, 1);
            }
            Answer::Shed => panic!("an idle depth-1 queue must not shed"),
        }
        assert_eq!(admission.stats().in_flight, 0);
    })
    .schedules;
    eprintln!("drain_refusal: {schedules} schedules");
    assert!(schedules >= 2, "explored only {schedules} schedules");
}

/// A socket stand-in for the outbox models: a non-blocking send takes
/// at most `room` bytes (the rest would block), a blocking send takes
/// everything. Records every byte in the order it was taken.
struct FakeSink {
    room: usize,
    taken: Mutex<Vec<u8>>,
}

impl FakeSink {
    fn new(room: usize) -> FakeSink {
        FakeSink {
            room,
            taken: Mutex::new(Vec::new()),
        }
    }

    fn taken(&self) -> String {
        String::from_utf8(self.taken.lock().expect("sink lock").clone()).expect("UTF-8")
    }
}

impl Sink for FakeSink {
    fn try_send_parts(&self, parts: &[&[u8]]) -> std::io::Result<usize> {
        let bytes = parts.concat();
        let n = bytes.len().min(self.room);
        if n == 0 {
            return Err(ErrorKind::WouldBlock.into());
        }
        self.taken
            .lock()
            .expect("sink lock")
            .extend_from_slice(&bytes[..n]);
        Ok(n)
    }

    fn send_all(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.taken
            .lock()
            .expect("sink lock")
            .extend_from_slice(bytes);
        Ok(())
    }
}

#[test]
fn direct_sends_racing_the_writer_keep_every_line_whole() {
    let schedules = loom::Builder {
        max_preemptions: 2,
        max_schedules: 50_000,
    }
    .model(|| {
        // The connection thread sends a line that fits the socket and
        // one that does not (its rest goes to a writer job), while a
        // pool callback answers a third line at any point: before the
        // writer, while it holds the stream, or after it.
        let threads = ThreadCache::new("model-job", Duration::from_secs(1), 1);
        let outbox = Arc::new(Outbox::new(FakeSink::new(4), Arc::clone(&threads)));
        let reply = outbox.reply();
        let callback = thread::spawn(move || reply.send("cc".into()));
        outbox.send("a".into());
        outbox.send("bbbbb".into());
        outbox.close();
        // `close` returned: every answer is out, the callback's too.
        let taken = outbox.sink().taken();
        let mut lines: Vec<&str> = taken.split_terminator('\n').collect();
        assert!(taken.ends_with('\n'), "a torn last line: {taken:?}");
        let a = lines.iter().position(|l| *l == "a");
        let b = lines.iter().position(|l| *l == "bbbbb");
        assert!(
            a < b,
            "the connection's own lines left out of order: {taken:?}"
        );
        lines.sort_unstable();
        assert_eq!(lines, ["a", "bbbbb", "cc"], "a line torn, lost or repeated");
        callback.join().expect("callback joins");
        threads.drain();
    })
    .schedules;
    eprintln!("outbox_direct_vs_writer: {schedules} schedules");
    assert!(schedules >= 10, "explored only {schedules} schedules");
}

#[test]
fn a_parts_answer_racing_a_queued_answer_stays_whole() {
    let schedules = loom::Builder {
        max_preemptions: 2,
        max_schedules: 50_000,
    }
    .model(|| {
        // The connection thread sends an answer in three parts whose
        // direct send stops inside the second part (the sink takes 4 of
        // its 8 bytes), so the rest, from that exact offset, goes to a
        // writer job. A pool callback's answer races it: sent before
        // it, queued behind the writer, or sent after. `close` races
        // both.
        let threads = ThreadCache::new("model-job", Duration::from_secs(1), 1);
        let outbox = Arc::new(Outbox::new(FakeSink::new(4), Arc::clone(&threads)));
        let reply = outbox.reply();
        let callback = thread::spawn(move || reply.send("qq".into()));
        outbox.send_parts(&[b"hh", b"cccc", b"t\n"]);
        outbox.close();
        let taken = outbox.sink().taken();
        assert!(taken.ends_with('\n'), "a torn last line: {taken:?}");
        let mut lines: Vec<&str> = taken.split_terminator('\n').collect();
        lines.sort_unstable();
        assert_eq!(lines, ["hhcccct", "qq"], "a line torn, lost or repeated");
        callback.join().expect("callback joins");
        threads.drain();
    })
    .schedules;
    eprintln!("outbox_parts_vs_queued: {schedules} schedules");
    assert!(schedules >= 10, "explored only {schedules} schedules");
}

#[test]
fn a_handoff_racing_an_idle_timeout_is_never_lost() {
    let schedules = loom::Builder {
        max_preemptions: 2,
        max_schedules: 50_000,
    }
    .model(|| {
        let threads = ThreadCache::new("model-job", Duration::from_secs(1), 1);
        let (done, ran) = mpsc::channel::<u32>();
        let first = done.clone();
        threads
            .execute(move || first.send(1).expect("receiver alive"))
            .expect("spawns");
        assert_eq!(ran.recv(), Ok(1));
        // The client idles exactly as long as the parked thread: both
        // timers run out together, and the scheduler tries the handoff
        // before, during and after the thread's retirement.
        let idle = (Mutex::new(()), Condvar::new());
        let guard = idle.0.lock().expect("idle lock");
        let (guard, _) = idle
            .1
            .wait_timeout(guard, Duration::from_secs(1))
            .expect("idle wait");
        drop(guard);
        threads
            .execute(move || done.send(2).expect("receiver alive"))
            .expect("spawns");
        // A job handed to a thread that then retires would never run:
        // this receive would deadlock.
        assert_eq!(ran.recv(), Ok(2));
        let stats = threads.stats();
        assert_eq!(stats.spawned + stats.reused, 2, "{stats:?}");
        threads.drain();
        assert_eq!(threads.stats().parked, 0);
    })
    .schedules;
    eprintln!("thread_cache_handoff_vs_timeout: {schedules} schedules");
    assert!(schedules >= 4, "explored only {schedules} schedules");
}

#[test]
fn drain_wakes_every_parked_thread() {
    // One preemption: the spinner's yields are free switches, so the
    // tree grows fast, and one preemption already puts the drain
    // anywhere relative to the threads parking.
    let report = loom::Builder {
        max_preemptions: 1,
        max_schedules: 50_000,
    }
    .model(|| {
        let threads = ThreadCache::new("model-job", Duration::from_secs(1), 2);
        // Two jobs held at a gate until both have started, so each gets
        // a thread of its own; then both threads park.
        let (done, ran) = mpsc::channel::<()>();
        let mut gates = Vec::new();
        for _ in 0..2 {
            let (gate, wait) = mpsc::channel::<()>();
            let done = done.clone();
            threads
                .execute(move || {
                    wait.recv().expect("gate opens");
                    done.send(()).expect("receiver alive");
                })
                .expect("spawns");
            gates.push(gate);
        }
        for gate in gates {
            gate.send(()).expect("job waits");
        }
        assert!(ran.recv().is_ok() && ran.recv().is_ok());
        while threads.stats().parked < 2 {
            thread::yield_now();
        }
        // A spinning thread keeps the model busy, so no park time can
        // run out: a parked thread leaves only when drain wakes it, and
        // a drain that forgot one would spin here until the model's
        // livelock backstop fails it.
        let stop = Arc::new(AtomicBool::new(false));
        let spinner = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
            })
        };
        threads.drain();
        stop.store(true, Ordering::SeqCst);
        spinner.join().expect("spinner joins");
        let stats = threads.stats();
        assert_eq!((stats.spawned, stats.parked), (2, 0), "{stats:?}");
    });
    eprintln!(
        "thread_cache_drain: {} schedules (complete: {})",
        report.schedules, report.complete
    );
    assert!(report.complete, "the bounded space was not exhausted");
    assert!(
        report.schedules >= 100,
        "explored only {} schedules",
        report.schedules
    );
}

#[test]
fn a_drain_request_wakes_the_blocked_accept() {
    let schedules = loom::Builder {
        max_preemptions: 2,
        max_schedules: 50_000,
    }
    .model(|| {
        // `Server::run` blocks in `accept`; `request_drain` raises the
        // flag, then connects once so the `accept` returns. Modelled
        // with the listener's backlog as a channel: a connect is a
        // send, `accept` a blocking `recv`. The backlog stays open (the
        // listener lives until the loop exits), so a lost wake-up
        // shows up as a deadlock.
        let draining = Arc::new(AtomicBool::new(false));
        let (backlog, listener) = mpsc::channel::<&'static str>();
        let accept_loop = {
            let draining = Arc::clone(&draining);
            thread::spawn(move || {
                let mut served = Vec::new();
                while !draining.load(Ordering::SeqCst) {
                    match listener.recv() {
                        // accepted after drain was requested: dropped
                        Ok(_) if draining.load(Ordering::SeqCst) => break,
                        Ok(conn) => served.push(conn),
                        Err(_) => break,
                    }
                }
                served
            })
        };
        // A client connecting while the drain is requested.
        let client = {
            let backlog = backlog.clone();
            thread::spawn(move || {
                let _ = backlog.send("client");
            })
        };
        // `request_drain`: only the request that raises the flag wakes.
        if !draining.swap(true, Ordering::SeqCst) {
            let _ = backlog.send("wake");
        }
        assert!(
            draining.swap(true, Ordering::SeqCst),
            "a second request finds the flag raised and connects nowhere"
        );
        let served = accept_loop.join().expect("accept loop exits");
        client.join().expect("client joins");
        assert!(
            !served.contains(&"wake"),
            "the wake-up connection was served"
        );
        drop(backlog);
    })
    .schedules;
    eprintln!("drain_accept_wake: {schedules} schedules");
    assert!(schedules >= 4, "explored only {schedules} schedules");
}
