//! The accept loop blocks in `accept` and is woken by every drain
//! request, so an idle daemon exits promptly and a fresh connection is
//! served at once. Kept apart from `daemon.rs`: the SIGTERM test raises
//! a process-wide signal flag.

use repliflow_serve::server::{Server, ServerConfig, ServerHandle};
use repliflow_serve::RemoteClient;
use repliflow_sync::thread::JoinHandle;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long an idle daemon may take to return from `run` once drain is
/// requested.
const DRAIN_BOUND: Duration = Duration::from_secs(1);

fn start(config: ServerConfig) -> (SocketAddr, ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("server binds an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let join = repliflow_sync::thread::spawn(move || server.run());
    // let the server settle into its blocking accept
    repliflow_sync::thread::sleep(Duration::from_millis(100));
    (addr, handle, join)
}

/// Time from `drain` to `run` returning, on an idle daemon.
fn time_to_exit(join: JoinHandle<std::io::Result<()>>, drain: impl FnOnce()) -> Duration {
    let begin = Instant::now();
    drain();
    join.join().expect("server thread").expect("clean drain");
    begin.elapsed()
}

#[test]
fn an_idle_daemon_exits_promptly_after_handle_shutdown() {
    let (_, handle, join) = start(ServerConfig::default());
    let took = time_to_exit(join, || handle.shutdown());
    assert!(took < DRAIN_BOUND, "run returned {took:?} after shutdown()");
    assert!(handle.is_draining());
}

#[test]
fn an_idle_daemon_exits_promptly_after_the_shutdown_verb() {
    let (addr, _, join) = start(ServerConfig::default());
    let mut client = RemoteClient::connect(addr).expect("client connects");
    let took = time_to_exit(join, || {
        client.shutdown().expect("shutdown acknowledged");
        drop(client);
    });
    assert!(took < DRAIN_BOUND, "run returned {took:?} after the verb");
}

#[cfg(unix)]
#[test]
fn an_idle_daemon_exits_promptly_after_sigterm() {
    extern "C" {
        fn raise(signum: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    repliflow_serve::signal::install_handlers();
    let (_, _, join) = start(ServerConfig {
        honor_process_signals: true,
        ..ServerConfig::default()
    });
    let took = time_to_exit(join, || {
        // SAFETY: the installed handler only stores into an atomic.
        unsafe {
            raise(SIGTERM);
        }
    });
    assert!(took < DRAIN_BOUND, "run returned {took:?} after SIGTERM");
}

#[test]
fn fresh_connections_are_served_without_an_accept_delay() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut samples: Vec<Duration> = (0..20)
        .map(|id| {
            let begin = Instant::now();
            let mut stream = TcpStream::connect(addr).expect("connects");
            stream.set_nodelay(true).unwrap();
            writeln!(stream, r#"{{"v":1,"id":{id},"verb":"ping"}}"#).unwrap();
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            assert!(line.contains("\"pong\":true"), "{line}");
            begin.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median fresh-connection ping took {median:?}"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}
