//! No thread the daemon starts outlives `Server::run`, whichever way
//! drain is requested, even when finished connections have left parked
//! threads behind. Kept apart from `daemon.rs`: the check lists every
//! thread of the test process, so no other daemon may run beside it.
#![cfg(target_os = "linux")]

use repliflow_serve::server::{Server, ServerConfig};
use repliflow_serve::{RemoteClient, RemoteParetoOptions};
use serde::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long drain may take here. A parked thread waits up to
/// `PARK_TIME` (10 s) for a job, so a drain that did not wake it would
/// take that long.
const DRAIN_BOUND: Duration = Duration::from_secs(1);

/// The names of this process's threads that the daemon started. Linux
/// keeps the first 15 bytes of a thread's name, so every
/// `repliflow-serve-*` thread reads `repliflow-serve`.
fn daemon_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("the task list is readable")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .filter(|name| name.starts_with("repliflow-serve"))
        .collect()
}

/// The daemon's `threads.parked` gauge.
fn parked(client: &mut RemoteClient) -> i128 {
    let stats = client.stats().expect("stats verb");
    stats
        .field("threads")
        .and_then(|threads| threads.field("parked"))
        .and_then(Value::as_int)
        .expect("threads.parked")
}

#[test]
fn no_daemon_thread_outlives_run() {
    let front_instance = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/instances/multicrit_pipeline_front.json"),
    )
    .expect("golden instance is readable");
    let front_instance = serde_json::from_str(&front_instance).expect("golden instance parses");
    for by_verb in [false, true] {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: Some(1),
            ..ServerConfig::default()
        })
        .expect("server binds an ephemeral port");
        let addr = server.local_addr().expect("bound address");
        let handle = server.handle();
        let join = repliflow_sync::thread::spawn(move || server.run());

        // Three connections at once, one of them with a front job,
        // hold four threads; once they close, the threads park. One
        // connection stays open.
        let mut clients: Vec<RemoteClient> = (0..3)
            .map(|_| RemoteClient::connect(addr).expect("client connects"))
            .collect();
        for client in &mut clients {
            client.ping().expect("ping");
        }
        clients[0]
            .pareto(&front_instance, &RemoteParetoOptions::default())
            .expect("pareto");
        drop(clients);
        let mut open = RemoteClient::connect(addr).expect("client connects");
        let begin = Instant::now();
        while parked(&mut open) < 2 {
            assert!(
                begin.elapsed() < Duration::from_secs(10),
                "finished connections never parked their threads"
            );
            repliflow_sync::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            !daemon_threads().is_empty(),
            "the daemon's threads are not visible"
        );

        let begin = Instant::now();
        if by_verb {
            open.shutdown().expect("shutdown acknowledged");
        } else {
            handle.shutdown();
        }
        join.join().expect("server thread").expect("clean drain");
        let took = begin.elapsed();
        let left = daemon_threads();
        assert!(
            left.is_empty(),
            "threads left after run returned (drain by verb: {by_verb}): {left:?}"
        );
        assert!(
            took < DRAIN_BOUND,
            "drain by verb {by_verb} took {took:?}: parked threads were not woken"
        );
    }
}
