//! Loom-model checks for the graceful-drain state machine.
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p repliflow-serve
//! --test modelcheck_drain` — without `--cfg loom` this file is empty.
//!
//! `server.rs` cannot be modelled directly (real sockets), so this
//! models its drain essence: a connection thread that checks the
//! draining flag, admits, answers through the writer channel, and
//! releases its ticket; a drain thread that raises the flag at an
//! arbitrary point. The contract under exploration is the one
//! `ServerHandle::shutdown` documents — **every request that is read
//! gets exactly one response** (a solve answer, a shed, or a drain
//! refusal; never silence), every admitted request completes, and the
//! writer drains its queue after the senders hang up, in every
//! bounded-preemption interleaving. A last model checks that a drain
//! request always wakes the accept loop blocked in `accept`.
#![cfg(loom)]

use repliflow_serve::admission::{Admission, AdmissionConfig};
use repliflow_sync::loom;
use repliflow_sync::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use repliflow_sync::sync::{mpsc, Arc};
use repliflow_sync::thread;

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
/// check, then admission, then the answer goes to the writer channel.
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
                // reader loop exits; dropping tx lets the writer drain.
            })
        };
        // The drain side: raise the flag at an arbitrary point.
        draining.store(true, Ordering::SeqCst);
        conn_thread.join().expect("connection thread joins");

        // The writer side: drain the queue after the sender hung up.
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

#[test]
fn writer_drains_queued_answers_after_reader_exit() {
    let schedules = loom::Builder {
        max_preemptions: 2,
        max_schedules: 50_000,
    }
    .model(|| {
        // The writer-side half of drain in isolation: a blocked
        // `recv()` must wake both for queued answers and for the
        // sender hang-up, with no lost-wakeup interleaving between a
        // late send and the disconnect.
        let (tx, rx) = mpsc::channel();
        let writer = thread::spawn(move || {
            let mut delivered = 0usize;
            while rx.recv().is_ok() {
                delivered += 1;
            }
            delivered
        });
        tx.send(Answer::Served).expect("writer is alive");
        tx.send(Answer::Draining).expect("writer is alive");
        drop(tx);
        let delivered = writer.join().expect("writer joins");
        assert_eq!(delivered, 2, "the writer dropped a queued answer");
    })
    .schedules;
    eprintln!("drain_writer: {schedules} schedules");
    assert!(schedules >= 2, "explored only {schedules} schedules");
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
