//! End-to-end daemon tests: a real [`Server`] on an ephemeral port,
//! real TCP clients, and the protocol guarantees the crate advertises —
//! byte-identical remote solves, structured errors for every kind of
//! bad input, deterministic load-shedding at saturation, and a graceful
//! drain that answers every admitted request.

use repliflow_serve::server::{Server, ServerConfig, ServerHandle};
use repliflow_serve::{AdmissionConfig, ErrorCode, RemoteClient, RemoteError, RemoteSolveOptions};
use repliflow_solver::{Budget, EnginePref, Quality, SolveRequest, SolverService};
use repliflow_sync::thread::JoinHandle;
use serde::{Serialize, Value};
use serde_json::parse_value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn instances_dir() -> PathBuf {
    // crates/serve -> workspace root -> examples/instances
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/instances")
        .canonicalize()
        .expect("examples/instances exists")
}

fn golden_instances() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(instances_dir())
        .expect("instances directory is readable")
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 8, "golden instance set shrank unexpectedly");
    paths
}

fn load_instance(path: &Path) -> repliflow_core::instance::ProblemInstance {
    let json = std::fs::read_to_string(path).expect("instance file is readable");
    serde_json::from_str(&json).expect("golden instance parses")
}

/// A communication-aware fork whose forced `comm-bb` search reliably
/// outlives a few-hundred-ms time limit (10 leaves branch over set
/// partitions — seconds of search space), so a daemon given a small
/// `bb_time_limit_ms` holds a worker for predictably ~that long.
fn slow_instance_json() -> String {
    r#"{"workflow":{"Fork":{"root_weight":5,
        "leaf_weights":[7,3,9,4,6,8,2,5,7,4],
        "input_size":3,"broadcast_size":5,
        "output_sizes":[2,1,3,1,2,3,1,2,2,1]}},
      "platform":{"speeds":[3,2,2,1,1,1]},
      "allow_data_parallel":false,
      "objective":"Latency",
      "cost_model":{"WithComm":{"network":{
        "proc_bw":[[1,1,1,1,1,1],[1,1,1,1,1,1],[1,1,1,1,1,1],
                   [1,1,1,1,1,1],[1,1,1,1,1,1],[1,1,1,1,1,1]],
        "input_bw":[2,2,2,2,2,2],"output_bw":[2,2,2,2,2,2],
        "node_capacity":null,"infinite":false},
        "comm":"OnePort","overlap":false}}}"#
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// A budget whose `comm-bb` runs are cut at `ms` wall-clock.
fn slow_budget(ms: u64) -> Budget {
    Budget {
        bb_time_limit_ms: ms,
        bb_node_limit: u64::MAX,
        ..Budget::default()
    }
}

/// Binds a server with `config`, runs it on a background thread, and
/// returns everything a test needs to talk to and stop it.
fn start(config: ServerConfig) -> (SocketAddr, ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("server binds an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let join = repliflow_sync::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// Sends raw request lines over one socket and reads `expect` response
/// lines (completion order), returning them parsed.
fn raw_exchange(addr: SocketAddr, lines: &[String], expect: usize) -> Vec<Value> {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for line in lines {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.flush().unwrap();
    let mut responses = Vec::new();
    for _ in 0..expect {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("response read") > 0,
            "daemon hung up before answering everything"
        );
        responses.push(parse_value(line.trim_end()).expect("response parses"));
    }
    responses
}

fn err_code(response: &Value) -> Option<&str> {
    response.field("err")?.field("code")?.as_str()
}

fn id_int(response: &Value) -> i128 {
    match response.field("id") {
        Some(Value::Int(id)) => *id,
        other => panic!("response id is not an integer: {other:?}"),
    }
}

#[test]
fn golden_roundtrips_are_byte_identical_to_in_process_solves() {
    let (addr, handle, join) = start(ServerConfig::default());
    let service = SolverService::builder().build();
    let mut client = RemoteClient::connect(addr).expect("client connects");
    for path in golden_instances() {
        let instance = load_instance(&path);
        let local = service
            .solve(&SolveRequest::new(instance.clone()))
            .unwrap_or_else(|e| panic!("local solve of {path:?} failed: {e}"));
        let remote = client
            .solve(&instance, &RemoteSolveOptions::default())
            .unwrap_or_else(|e| panic!("remote solve of {path:?} failed: {e}"));
        assert_eq!(
            remote.canonical_json(),
            local.canonical_json(),
            "remote report for {path:?} diverges from the in-process solve"
        );
        assert!(!remote.cell.is_empty());
        assert!(remote.wall_time_ms >= 0.0);
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn pareto_roundtrips_are_byte_identical_to_in_process_fronts() {
    use repliflow_multicrit::{FrontRequest, FrontSolver};
    use repliflow_serve::RemoteParetoOptions;
    let (addr, handle, join) = start(ServerConfig::default());
    let front = FrontSolver::new(repliflow_sync::sync::Arc::new(
        SolverService::builder().build(),
    ));
    let mut client = RemoteClient::connect(addr).expect("client connects");
    // A small point cap keeps the sweep over the large golden
    // instances fast; the cut is deterministic, so byte-identity is
    // exercised exactly as hard as with the full front.
    let points = 6;
    let budget = Budget::default().max_front_points(points);
    let options = RemoteParetoOptions {
        points: Some(points),
        ..RemoteParetoOptions::default()
    };
    for path in golden_instances() {
        let instance = load_instance(&path);
        // The in-process reference front computes on its own thread
        // while the daemon answers the same request.
        let (local, remote) = repliflow_sync::thread::scope(|scope| {
            let local = scope.spawn(|| {
                front
                    .solve_front(&FrontRequest::new(instance.clone()).budget(budget))
                    .unwrap_or_else(|e| panic!("local front of {path:?} failed: {e}"))
            });
            let remote = client
                .pareto(&instance, &options)
                .unwrap_or_else(|e| panic!("remote front of {path:?} failed: {e}"));
            (local.join().expect("local front thread"), remote)
        });
        assert_eq!(
            remote.canonical_json(),
            local.canonical_json(),
            "remote front for {path:?} diverges from the in-process front"
        );
        assert_eq!(remote.n_points, local.points.len());
        assert!(remote.wall_time_ms >= 0.0);
    }
    // A repeated front is served from the daemon's front cache,
    // byte-identically.
    let instance = load_instance(&golden_instances()[0]);
    let local = front
        .solve_front(&FrontRequest::new(instance.clone()).budget(budget))
        .expect("local front");
    let again = client
        .pareto(&instance, &options)
        .expect("cached remote front");
    assert!(again.is_cached(), "second identical pareto should hit");
    assert_eq!(again.canonical_json(), local.canonical_json());

    // The points override changes the request (no false cache hit) and
    // bounds the front length.
    let capped = client
        .pareto(
            &instance,
            &RemoteParetoOptions {
                points: Some(1),
                ..RemoteParetoOptions::default()
            },
        )
        .expect("capped remote front");
    assert!(capped.n_points <= 1);

    // Every front job's answer is counted, and so is each front-cache
    // lookup: one hit, a miss per other request.
    let goldens = golden_instances().len() as i128;
    let stats = client.stats().expect("stats verb");
    assert_eq!(stat(&stats, "fronts", "requests"), Some(goldens + 2));
    assert_eq!(stat(&stats, "fronts", "hits"), Some(1));
    assert_eq!(stat(&stats, "fronts", "misses"), Some(goldens + 1));
    let entries = stat(&stats, "fronts", "entries").expect("front cache entries");
    assert!((1..=goldens + 1).contains(&entries), "{entries} entries");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn concurrent_clients_each_get_consistent_reports() {
    let (addr, handle, join) = start(ServerConfig::default());
    // Reference canonical answers, solved once in-process.
    let paths: Vec<PathBuf> = golden_instances().into_iter().take(4).collect();
    let service = SolverService::builder().build();
    let expected: Vec<String> = paths
        .iter()
        .map(|p| {
            service
                .solve(&SolveRequest::new(load_instance(p)))
                .expect("local solve")
                .canonical_json()
        })
        .collect();
    let threads: Vec<_> = (0..6)
        .map(|worker| {
            let paths = paths.clone();
            let expected = expected.clone();
            repliflow_sync::thread::spawn(move || {
                let mut client = RemoteClient::connect(addr).expect("client connects");
                // stagger which instance each worker starts with
                for i in 0..paths.len() * 2 {
                    let k = (worker + i) % paths.len();
                    let remote = client
                        .solve(&load_instance(&paths[k]), &RemoteSolveOptions::default())
                        .expect("remote solve");
                    assert_eq!(remote.canonical_json(), expected[k]);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn saturation_sheds_deterministically_with_overloaded() {
    let (addr, handle, join) = start(ServerConfig {
        workers: Some(1),
        cache_capacity: 0,
        admission: AdmissionConfig {
            queue_depth: 2,
            per_conn_inflight: 16,
        },
        default_budget: slow_budget(400),
        ..ServerConfig::default()
    });
    let instance = slow_instance_json();
    let lines: Vec<String> = (1..=6)
        .map(|id| {
            format!(
                r#"{{"v":1,"id":{id},"verb":"solve","engine":"comm-bb","instance":{instance}}}"#
            )
        })
        .collect();
    let responses = raw_exchange(addr, &lines, 6);
    // Requests 1 and 2 fill the queue (one running, one waiting);
    // 3..6 arrive microseconds later, while both are still unfinished
    // (each runs ~400ms), and must be shed.
    let mut ok = Vec::new();
    let mut shed = Vec::new();
    for response in &responses {
        match err_code(response) {
            None => ok.push(id_int(response)),
            Some("overloaded") => shed.push(id_int(response)),
            Some(other) => panic!("unexpected error code {other}"),
        }
    }
    ok.sort_unstable();
    shed.sort_unstable();
    assert_eq!(
        ok,
        vec![1, 2],
        "exactly the first two requests are admitted"
    );
    assert_eq!(shed, vec![3, 4, 5, 6], "the rest are shed immediately");

    // The shed requests are visible in the metrics.
    let mut client = RemoteClient::connect(addr).expect("stats client connects");
    let stats = client.stats().expect("stats verb");
    let admission = stats.field("admission").unwrap();
    assert_eq!(admission.field("accepted").unwrap().as_int(), Some(2));
    assert_eq!(admission.field("rejected").unwrap().as_int(), Some(4));
    assert_eq!(admission.field("high_water").unwrap().as_int(), Some(2));
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn per_connection_inflight_cap_binds_before_the_global_queue() {
    let (addr, handle, join) = start(ServerConfig {
        workers: Some(1),
        cache_capacity: 0,
        admission: AdmissionConfig {
            queue_depth: 64,
            per_conn_inflight: 1,
        },
        default_budget: slow_budget(300),
        ..ServerConfig::default()
    });
    let instance = slow_instance_json();
    let lines: Vec<String> = (1..=3)
        .map(|id| {
            format!(
                r#"{{"v":1,"id":{id},"verb":"solve","engine":"comm-bb","instance":{instance}}}"#
            )
        })
        .collect();
    let responses = raw_exchange(addr, &lines, 3);
    let shed: Vec<i128> = responses
        .iter()
        .filter(|r| err_code(r) == Some("overloaded"))
        .map(id_int)
        .collect();
    assert_eq!(shed, vec![2, 3], "one in flight per connection, rest shed");
    let busy = responses
        .iter()
        .find(|r| err_code(r) == Some("overloaded"))
        .and_then(|r| r.field("err").unwrap().field("message").unwrap().as_str())
        .unwrap();
    assert!(
        busy.contains("connection in-flight cap"),
        "reject message names the per-connection cap: {busy}"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn graceful_drain_under_load_answers_every_admitted_request() {
    let (addr, _handle, join) = start(ServerConfig {
        workers: Some(2),
        cache_capacity: 0,
        admission: AdmissionConfig::default(),
        default_budget: slow_budget(300),
        ..ServerConfig::default()
    });
    let instance = slow_instance_json();
    let mut stream = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for id in 1..=6 {
        let line = format!(
            r#"{{"v":1,"id":{id},"verb":"solve","engine":"comm-bb","instance":{instance}}}"#
        );
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.flush().unwrap();
    // Let the daemon parse and admit all six (parsing is microseconds;
    // each solve runs ~300ms), then ask for a drain mid-flight.
    repliflow_sync::thread::sleep(Duration::from_millis(150));
    let mut admin = RemoteClient::connect(addr).expect("admin connects");
    admin.shutdown().expect("shutdown verb acknowledged");

    // Every admitted request is still answered, then the daemon hangs
    // up — nothing is lost.
    let mut answered = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read") == 0 {
            break; // clean EOF after the responses
        }
        let response = parse_value(line.trim_end()).expect("response parses");
        assert_eq!(err_code(&response), None, "admitted solve failed: {line}");
        answered.push(id_int(&response));
    }
    answered.sort_unstable();
    assert_eq!(answered, vec![1, 2, 3, 4, 5, 6]);

    // The server thread exits cleanly and the port stops accepting.
    join.join().unwrap().unwrap();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener is closed after drain"
    );
}

#[test]
fn broken_input_gets_structured_errors_and_the_connection_survives() {
    let (addr, handle, join) = start(ServerConfig {
        max_line_bytes: 1024,
        ..ServerConfig::default()
    });
    let lines = vec![
        "this is not json".to_string(),
        r#"{"v":1,"id":"trunc","verb":"solve","instance":{"#.to_string(),
        r#"{"v":7,"id":"vers","verb":"ping"}"#.to_string(),
        r#"{"v":1,"id":"field","verb":"ping","bogus":1}"#.to_string(),
        r#"{"v":1,"id":"verb","verb":"dance"}"#.to_string(),
        format!(
            r#"{{"v":1,"id":"big","verb":"ping","pad":"{}"}}"#,
            "x".repeat(4000)
        ),
        r#"{"v":1,"id":"alive","verb":"ping"}"#.to_string(),
    ];
    let responses = raw_exchange(addr, &lines, 7);
    let code = |i: usize| err_code(&responses[i]);
    let id = |i: usize| responses[i].field("id").unwrap().clone();
    assert_eq!(code(0), Some("bad_request"));
    assert_eq!(id(0), Value::Null, "no id extractable from non-JSON");
    assert_eq!(code(1), Some("bad_request"), "truncated JSON");
    assert_eq!(code(2), Some("unsupported_version"));
    assert_eq!(
        id(2),
        Value::String("vers".into()),
        "id echoed despite bad version"
    );
    assert_eq!(code(3), Some("bad_request"), "unknown field");
    assert_eq!(code(4), Some("bad_request"), "unknown verb");
    assert_eq!(code(5), Some("line_too_long"), "over the 1 KiB cap");
    assert_eq!(id(5), Value::Null, "oversized lines are skipped unparsed");
    // ...and after all that abuse, the same connection still serves.
    assert_eq!(code(6), None);
    assert_eq!(
        responses[6].field("ok").unwrap().field("pong"),
        Some(&Value::Bool(true))
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn malformed_workflow_shapes_are_bad_requests_not_engine_panics() {
    let (addr, handle, join) = start(ServerConfig::default());
    let instance = |sizes: &str| {
        format!(
            r#"{{"workflow":{{"Pipeline":{{"weights":[4,3,2,1],"data_sizes":{sizes}}}}},"platform":{{"speeds":[2,1]}},"allow_data_parallel":false,"objective":"Period","cost_model":{{"WithComm":{{"network":{{"proc_bw":[[1,1],[1,1]],"input_bw":[1,1],"output_bw":[1,1],"node_capacity":null,"infinite":false}},"comm":"OnePort","overlap":true}}}}}}"#
        )
    };
    let lines = vec![
        // too short: the comm cost model used to index past its end
        format!(
            r#"{{"v":1,"id":1,"verb":"solve","instance":{}}}"#,
            instance("[3]")
        ),
        // too long: used to be accepted and hashed
        format!(
            r#"{{"v":1,"id":2,"verb":"solve","instance":{}}}"#,
            instance("[1,1,1,1,1,1]")
        ),
        format!(
            r#"{{"v":1,"id":3,"verb":"solve","instance":{}}}"#,
            instance("[1,1,1,1,1]")
        ),
    ];
    let mut responses = raw_exchange(addr, &lines, 3);
    responses.sort_by_key(id_int);
    for (response, got) in responses[..2].iter().zip([1, 6]) {
        assert_eq!(err_code(response), Some("bad_request"), "{response:?}");
        let message = response.field("err").unwrap().field("message").unwrap();
        assert_eq!(
            message.as_str(),
            Some(
                format!(
                    "invalid instance: need n+1 data sizes for an n-stage pipeline \
                     (got {got} data sizes for 4 stages)"
                )
                .as_str()
            )
        );
    }
    assert_eq!(
        err_code(&responses[2]),
        None,
        "the well-formed instance solves"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn an_over_cap_line_arriving_whole_in_one_read_is_line_too_long() {
    let (addr, handle, join) = start(ServerConfig {
        max_line_bytes: 1024,
        ..ServerConfig::default()
    });
    // One write: the over-cap line, its newline and a follow-up ping all
    // land in the daemon's first read, so the cap must hold for a line
    // that is already whole in the buffer.
    let big = format!(
        r#"{{"v":1,"id":"big","verb":"ping","pad":"{}"}}"#,
        "x".repeat(2000)
    );
    let payload = format!("{big}\n{{\"v\":1,\"id\":\"alive\",\"verb\":\"ping\"}}\n");
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.write_all(payload.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response read");
        parse_value(line.trim_end()).expect("response parses")
    };
    let first = read();
    assert_eq!(err_code(&first), Some("line_too_long"), "{first:?}");
    assert_eq!(first.field("id"), Some(&Value::Null));
    let second = read();
    assert_eq!(second.field("id"), Some(&Value::String("alive".into())));
    assert_eq!(err_code(&second), None);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn stats_snapshot_reports_counters_cache_and_percentiles() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut client = RemoteClient::connect(addr).expect("client connects");
    let instance = load_instance(&instances_dir().join("hom_pipeline_period.json"));
    for _ in 0..5 {
        client
            .solve(&instance, &RemoteSolveOptions::default())
            .expect("solve");
    }
    let stats = client.stats().expect("stats verb");

    let admission = stats.field("admission").unwrap();
    assert_eq!(admission.field("accepted").unwrap().as_int(), Some(5));
    assert_eq!(admission.field("completed").unwrap().as_int(), Some(5));
    assert_eq!(admission.field("rejected").unwrap().as_int(), Some(0));

    let service = stats.field("service").unwrap();
    assert_eq!(service.field("requests").unwrap().as_int(), Some(5));
    assert_eq!(service.field("computed").unwrap().as_int(), Some(1));
    assert_eq!(service.field("cache_hits").unwrap().as_int(), Some(4));

    let cache = stats.field("cache").unwrap();
    assert_eq!(cache.field("hits").unwrap().as_int(), Some(4));
    assert_eq!(cache.field("insertions").unwrap().as_int(), Some(1));

    let latency = stats.field("latency").unwrap();
    assert_eq!(latency.field("count").unwrap().as_int(), Some(5));
    let p50 = latency
        .field("p50_us")
        .unwrap()
        .as_int()
        .expect("p50 present");
    let p95 = latency
        .field("p95_us")
        .unwrap()
        .as_int()
        .expect("p95 present");
    let p99 = latency
        .field("p99_us")
        .unwrap()
        .as_int()
        .expect("p99 present");
    let max = latency
        .field("max_us")
        .unwrap()
        .as_int()
        .expect("max present");
    assert!(
        p50 <= p95 && p95 <= p99 && p99 <= max,
        "{p50} {p95} {p99} {max}"
    );
    // One real compute dominates four cache hits: the distribution
    // cannot be flat-zero at the top.
    assert!(max > 0, "the computed solve took measurable time");

    let server = stats.field("server").unwrap();
    assert_eq!(server.field("draining").unwrap(), &Value::Bool(false));
    assert!(server.field("connections_total").unwrap().as_int() >= Some(1));

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn expired_deadlines_map_to_a_deadline_exceeded_envelope() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut client = RemoteClient::connect(addr).expect("client connects");
    let instance = load_instance(&instances_dir().join("hom_pipeline_period.json"));
    let error = client
        .solve(
            &instance,
            &RemoteSolveOptions {
                deadline_ms: Some(0),
                ..RemoteSolveOptions::default()
            },
        )
        .expect_err("an already-expired deadline cannot succeed");
    match error {
        RemoteError::Server { code, .. } => {
            assert_eq!(code, Some(ErrorCode::DeadlineExceeded));
        }
        other => panic!("expected a server error envelope, got {other}"),
    }
    // The connection is still usable afterwards.
    client
        .solve(&instance, &RemoteSolveOptions::default())
        .expect("solve after the failed one");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn forced_engine_preference_is_honored_remotely() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut client = RemoteClient::connect(addr).expect("client connects");
    let instance = load_instance(&instances_dir().join("hom_pipeline_period.json"));
    let remote = client
        .solve(
            &instance,
            &RemoteSolveOptions {
                engine: EnginePref::Exact,
                ..RemoteSolveOptions::default()
            },
        )
        .expect("exact solve");
    assert_eq!(remote.canonical_str("engine"), Some("exact"));
    assert_eq!(remote.canonical_str("optimality"), Some("proven"));
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Cache hits are answered on the connection thread: behind a slow miss
/// that holds the only pool worker, the hits pipelined after it on the
/// same connection still arrive first, each exactly once, carrying the
/// in-process canonical report byte for byte.
#[test]
fn hits_pipelined_behind_a_slow_miss_are_answered_first() {
    let budget = slow_budget(300);
    let (addr, handle, join) = start(ServerConfig {
        workers: Some(1),
        default_budget: budget,
        ..ServerConfig::default()
    });
    let names = [
        "hom_pipeline_period.json",
        "hom_fork_latency.json",
        "het_pipeline_latency.json",
    ];
    let instances: Vec<_> = names
        .iter()
        .map(|name| load_instance(&instances_dir().join(name)))
        .collect();
    // Warm the daemon's cache with one computed solve per instance.
    let mut client = RemoteClient::connect(addr).expect("client connects");
    for instance in &instances {
        client
            .solve(instance, &RemoteSolveOptions::default())
            .expect("warming solve");
    }
    let service = SolverService::builder().build();
    let local: Vec<String> = instances
        .iter()
        .map(|instance| {
            service
                .solve(&SolveRequest::new(instance.clone()).budget(budget))
                .expect("local solve")
                .canonical_json()
        })
        .collect();

    // id 1: a forced comm-bb search that keeps the one worker busy for
    // ~300 ms and is never cached (it stops at its time limit); ids
    // 2..=4: hits.
    let slow = slow_instance_json();
    let mut lines = vec![format!(
        r#"{{"v":1,"id":1,"verb":"solve","engine":"comm-bb","instance":{slow}}}"#
    )];
    for (id, instance) in (2..).zip(&instances) {
        let text = serde_json::to_string(&serde::Serialize::serialize(instance))
            .expect("instance renders");
        lines.push(format!(
            r#"{{"v":1,"id":{id},"verb":"solve","instance":{text}}}"#
        ));
    }
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for line in &lines {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    let mut read_line = || {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("response read") > 0,
            "daemon hung up before answering everything"
        );
        line.trim_end().to_string()
    };
    let mut order = Vec::new();
    for _ in 0..lines.len() {
        let line = read_line();
        let response = parse_value(&line).expect("response parses");
        let id = id_int(&response);
        order.push(id);
        if id == 1 {
            assert_eq!(err_code(&response), None, "slow miss failed: {line}");
            continue;
        }
        let canonical = &local[(id - 2) as usize];
        let prefix = format!(r#"{{"v":1,"id":{id},"ok":{{"canonical":{canonical},"cell""#);
        assert!(
            line.starts_with(&prefix),
            "hit {id} diverges from the in-process canonical report: {line}"
        );
        assert_eq!(
            response
                .field("ok")
                .and_then(|ok| ok.field("provenance"))
                .and_then(Value::as_str),
            Some("cached")
        );
    }
    assert_eq!(order, vec![2, 3, 4, 1], "hits wait behind the slow miss");
    // A ping after the answers: anything answered twice would show up
    // before its reply.
    stream
        .write_all(b"{\"v\":1,\"id\":\"after\",\"verb\":\"ping\"}\n")
        .unwrap();
    let after = parse_value(&read_line()).expect("response parses");
    assert_eq!(after.field("id"), Some(&Value::String("after".into())));

    let stats = client.stats().expect("stats verb");
    let int = |section: &str, field: &str| {
        stats
            .field(section)
            .and_then(|s| s.field(field))
            .and_then(Value::as_int)
    };
    assert_eq!(int("admission", "accepted"), Some(7));
    assert_eq!(int("admission", "completed"), Some(7));
    assert_eq!(int("service", "requests"), Some(7));
    assert_eq!(int("service", "cache_hits"), Some(3));
    assert_eq!(int("service", "computed"), Some(4));
    assert_eq!(int("cache", "hits"), Some(3));
    assert_eq!(int("cache", "misses"), Some(4), "one lookup per request");
    assert_eq!(int("cache", "insertions"), Some(3));
    assert_eq!(
        int("service", "jobs_executed"),
        Some(4),
        "only the misses used the pool"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A long pipeline on a homogeneous platform (a polynomial period cell,
/// so its one cold solve is cheap) whose request line and hit answer are
/// each tens of kilobytes.
fn long_pipeline_json(stages: usize) -> String {
    let mut state = 0x9e37_79b9_u64;
    let mut next = |lo: u64, hi: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        lo + (state >> 33) % (hi - lo + 1)
    };
    let weights: Vec<String> = (0..stages).map(|_| next(100, 999).to_string()).collect();
    let sizes: Vec<String> = (0..=stages).map(|_| next(10, 99).to_string()).collect();
    format!(
        r#"{{"workflow":{{"Pipeline":{{"weights":[{}],"data_sizes":[{}]}}}},"platform":{{"speeds":[3,3,3,3,3,3,3,3]}},"allow_data_parallel":false,"objective":"Period"}}"#,
        weights.join(","),
        sizes.join(",")
    )
}

/// A client may pipeline a whole batch before it reads any answer. The
/// connection thread never blocks on the peer (what does not fit the
/// socket is queued for a writer job), so it keeps reading while the
/// unread answers outgrow both sockets' buffers
/// (Linux grows a send buffer to 4 MB by default), and every request
/// still gets exactly one whole answer.
#[test]
fn a_batch_pipelined_before_any_read_is_answered_in_full() {
    const BATCH: usize = 600;
    let (addr, handle, join) = start(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    });
    let instance = long_pipeline_json(5_000);
    let line = |id: usize| format!(r#"{{"v":1,"id":{id},"verb":"solve","instance":{instance}}}"#);
    // Warm the cache, so every batched request is answered inline.
    let warm = raw_exchange(addr, &[line(BATCH)], 1);
    assert_eq!(err_code(&warm[0]), None, "warming solve failed");

    let mut stream = TcpStream::connect(addr).expect("connects");
    // A daemon that stops reading while its answers are unread would
    // block this client's writes; fail instead of hanging.
    stream
        .set_write_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for id in 0..BATCH {
        let mut request = line(id);
        request.push('\n');
        stream
            .write_all(request.as_bytes())
            .unwrap_or_else(|e| panic!("request {id}: the daemon stopped reading: {e}"));
    }
    let mut answered = vec![false; BATCH];
    let mut bytes = 0;
    for _ in 0..BATCH {
        let mut text = String::new();
        let read = reader.read_line(&mut text).expect("response read");
        assert!(read > 0, "daemon hung up before answering everything");
        bytes += read;
        let response = parse_value(text.trim_end()).expect("a whole response line");
        assert_eq!(
            err_code(&response),
            None,
            "{}",
            &text[..200.min(text.len())]
        );
        let id = usize::try_from(id_int(&response)).expect("id in range");
        assert!(!answered[id], "request {id} answered twice");
        answered[id] = true;
    }
    assert!(
        bytes > 16 << 20,
        "only {bytes} response bytes: the batch no longer outgrows the socket buffers"
    );
    let stats = RemoteClient::connect(addr)
        .expect("client connects")
        .stats()
        .expect("stats verb");
    let cache_hits = stats
        .field("service")
        .and_then(|s| s.field("cache_hits"))
        .and_then(Value::as_int);
    assert_eq!(cache_hits, Some(BATCH as i128));
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Sends one request line on `stream` and reads its answer, as sent.
fn exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut answer = String::new();
    assert!(
        reader.read_line(&mut answer).expect("response read") > 0,
        "daemon hung up"
    );
    answer.trim_end().to_string()
}

/// A connection for [`exchange`].
fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// The canonical JSON of an ok solve answer, and whether it was a hit.
fn canonical_of(answer: &str) -> (String, bool) {
    let response = parse_value(answer).expect("response parses");
    let ok = response
        .field("ok")
        .unwrap_or_else(|| panic!("not an ok answer: {}", &answer[..answer.len().min(300)]));
    let canonical = serde_json::to_string(ok.field("canonical").expect("canonical")).unwrap();
    let cached = ok.field("provenance").and_then(Value::as_str) == Some("cached");
    (canonical, cached)
}

/// The in-process canonical answer for `instance` JSON under `quality`.
fn local_canonical(service: &SolverService, instance: &str, quality: Quality) -> String {
    let instance = serde_json::from_str(instance).expect("instance parses");
    let request = SolveRequest::new(instance).budget(Budget::default().quality(quality));
    service
        .solve(&request)
        .expect("in-process solve")
        .canonical_json()
}

/// A named counter of the daemon's `stats` answer.
fn stat(stats: &Value, section: &str, name: &str) -> Option<i128> {
    stats.field(section)?.field(name)?.as_int()
}

#[test]
fn repeated_large_solves_are_answered_from_the_instance_memo() {
    let (addr, handle, join) = start(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    });
    let service = SolverService::builder().workers(1).build();
    let instance = long_pipeline_json(20_000);
    let balanced = local_canonical(&service, &instance, Quality::Balanced);
    let fast = local_canonical(&service, &instance, Quality::Fast);
    let (mut stream, mut reader) = connect(addr);
    let mut solve = |id: &str, knobs: &str| {
        let line = format!(r#"{{"v":1,"id":"{id}","verb":"solve","instance":{instance}{knobs}}}"#);
        canonical_of(&exchange(&mut stream, &mut reader, &line))
    };
    // the cold solve decodes; the same bytes under another id hit
    assert_eq!(solve("one", ""), (balanced.clone(), false));
    assert_eq!(solve("two", ""), (balanced, true));
    // other knobs: the memo still knows the instance, but the knobs
    // make another cache entry
    assert_eq!(
        solve("three", r#","quality":"fast""#),
        (fast.clone(), false)
    );
    assert_eq!(solve("four", r#","quality":"fast""#), (fast, true));

    let stats = RemoteClient::connect(addr).unwrap().stats().expect("stats");
    assert_eq!(stat(&stats, "instance_memo", "hits"), Some(3));
    assert_eq!(stat(&stats, "instance_memo", "misses"), Some(1));
    assert_eq!(stat(&stats, "instance_memo", "entries"), Some(1));
    assert_eq!(
        stat(&stats, "instance_memo", "capacity"),
        Some(repliflow_solver::DEFAULT_CACHE_CAPACITY as i128)
    );
    // each request counted once by the service and once by the cache
    assert_eq!(stat(&stats, "service", "requests"), Some(4));
    assert_eq!(stat(&stats, "service", "cache_hits"), Some(2));
    assert_eq!(stat(&stats, "service", "computed"), Some(2));
    assert_eq!(stat(&stats, "cache", "hits"), Some(2));
    assert_eq!(stat(&stats, "cache", "misses"), Some(2));
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A large answer goes out in three parts with one vectored send, the
/// rest through a writer: the cold answer and the warm hit are both the
/// tree-built line, byte for byte.
#[test]
fn a_large_answer_is_the_tree_line_byte_for_byte_cold_and_warm() {
    use repliflow_serve::protocol::{ok_response, report_to_wire};
    use repliflow_solver::{Provenance, SolveReport};
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: Some(1),
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let service = repliflow_sync::sync::Arc::clone(server.service());
    let join = repliflow_sync::thread::spawn(move || server.run());

    let instance = long_pipeline_json(40_000);
    let (mut stream, mut reader) = connect(addr);
    let mut fetch = |id: &str| {
        let line = format!(r#"{{"v":1,"id":"{id}","verb":"solve","instance":{instance}}}"#);
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut answer = String::new();
        assert!(reader.read_line(&mut answer).expect("answer read") > 0);
        answer
    };
    let cold = fetch("cold");
    let warm = fetch("warm");
    assert!(cold.len() >= 256 << 10, "only {} bytes", cold.len());
    let stats = RemoteClient::connect(addr).unwrap().stats().expect("stats");
    assert_eq!(stat(&stats, "instance_memo", "misses"), Some(1));
    assert_eq!(stat(&stats, "instance_memo", "hits"), Some(1));
    assert_eq!(stat(&stats, "cache", "hits"), Some(1));

    // The oracle: the daemon's own cached report, and the computed one
    // it was copied from (the same fields but the provenance).
    let request = SolveRequest::new(serde_json::from_str(&instance).expect("instance parses"))
        .budget(Budget::default().quality(Quality::Balanced));
    let cached = service.solve(&request).expect("cached in process");
    assert_eq!(cached.provenance, Provenance::Cached);
    let computed = SolveReport {
        provenance: Provenance::Computed,
        ..(*cached).clone()
    };
    let oracle = |id: &str, report: &SolveReport| {
        ok_response(&Value::String(id.into()), report_to_wire(report)) + "\n"
    };
    assert!(cold == oracle("cold", &computed), "the cold answer differs");
    assert!(warm == oracle("warm", &cached), "the warm answer differs");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn the_instance_memo_never_changes_an_answer_or_an_error() {
    use repliflow_serve::protocol::{err_response, parse_request};
    let (addr, handle, join) = start(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    });
    let service = SolverService::builder().workers(1).build();
    let x = long_pipeline_json(3_000);
    // a one-byte edit inside a weight
    let at = x.find("[").unwrap() + 1;
    let mut edited = x.clone().into_bytes();
    edited[at] = if edited[at] == b'9' { b'8' } else { b'9' };
    let edited = String::from_utf8(edited).unwrap();
    // the same instance, reordered and re-spaced
    let reordered = serde_json::to_string(&repliflow_core::instance::ProblemInstance::serialize(
        &serde_json::from_str(&x).unwrap(),
    ))
    .unwrap()
    .replacen(':', ": ", 3);
    assert_ne!(reordered, x);
    let x_answer = local_canonical(&service, &x, Quality::Balanced);
    let edited_answer = local_canonical(&service, &edited, Quality::Balanced);
    assert_ne!(x_answer, edited_answer);
    let (mut stream, mut reader) = connect(addr);
    let mut send = |line: String| exchange(&mut stream, &mut reader, &line);
    let solve = |id: u32, instance: &str| {
        format!(r#"{{"v":1,"id":{id},"verb":"solve","instance":{instance}}}"#)
    };
    let memo_counts = || {
        let stats = RemoteClient::connect(addr).unwrap().stats().expect("stats");
        (
            stat(&stats, "instance_memo", "hits").unwrap(),
            stat(&stats, "instance_memo", "entries").unwrap(),
            stat(&stats, "service", "cache_hits").unwrap(),
        )
    };
    assert_eq!(canonical_of(&send(solve(1, &x))), (x_answer.clone(), false));
    assert_eq!(memo_counts(), (0, 1, 0));

    // a one-byte edit misses the memo and gets its own answer
    assert_eq!(
        canonical_of(&send(solve(2, &edited))),
        (edited_answer.clone(), false)
    );
    assert_eq!(memo_counts(), (0, 2, 0));

    // reordered JSON misses the memo but hits the solve cache
    assert_eq!(
        canonical_of(&send(solve(3, &reordered))),
        (x_answer.clone(), true)
    );
    assert_eq!(memo_counts(), (0, 3, 1));

    // duplicate `instance` keys: the first wins, memo hit or not
    let twice = |id: u32, first: &str, second: &str| {
        format!(r#"{{"v":1,"id":{id},"verb":"solve","instance":{first},"instance":{second}}}"#)
    };
    assert_eq!(
        canonical_of(&send(twice(4, &x, &edited))),
        (x_answer.clone(), true)
    );
    assert_eq!(
        canonical_of(&send(twice(5, &edited, &x))),
        (edited_answer, true)
    );
    assert_eq!(memo_counts(), (2, 3, 3));

    // an invalid instance never enters the memo, and every bad line
    // gets the envelope the plain parse gives, warm memo or not
    let invalid = x.replacen("\"data_sizes\":[", "\"data_sizes\":[1,", 1);
    let bad_lines = [
        solve(6, &invalid),
        solve(7, &invalid),
        format!(r#"{{"v":2,"id":8,"verb":"solve","instance":{x}}}"#),
        format!(r#"{{"v":1,"verb":"solve","instance":{x}}}"#),
        format!(r#"{{"v":1,"id":9,"verb":"solv","instance":{x}}}"#),
        format!(r#"{{"v":1,"id":10,"verb":"solve","instance":{x},"bogus":1}}"#),
        format!(r#"{{"v":1,"id":11,"verb":"solve","instance":{x},"engine":"best"}}"#),
        format!(r#"{{"v":1,"id":12,"verb":"solve","instance":{x},"quality":"max"}}"#),
        format!(r#"{{"v":1,"id":13,"verb":"solve","instance":{x},"validate":"yes"}}"#),
        format!(r#"{{"v":1,"id":14,"verb":"solve","instance":{x},"deadline_ms":-5}}"#),
        format!(r#"{{"v":1,"id":15,"verb":"solve","instance":{x},"points":2}}"#),
        format!(r#"{{"v":1,"id":16,"verb":"stats","instance":{x}}}"#),
        format!(r#"{{"v":1,"id":17,"verb":"solve","instance":{x}}}]"#),
        format!(r#"{{"v":1,"id":18,"verb":"solve","instance":{x},"engine":"#),
        format!(r#"{{"v":1,"id":19,"verb":"solve","instance":{x},"instance":{{"#),
        twice(20, &invalid, &x),
        format!(r#"{{"v":1,"id":21,"verb":"pareto","instance":{x},"points":0}}"#),
    ];
    for line in &bad_lines {
        let failure = parse_request(line).expect_err("a bad line");
        let expected = err_response(&failure.id, failure.code, &failure.message);
        assert_eq!(
            send(line.clone()),
            expected,
            "{}",
            &line[..line.len().min(120)]
        );
    }
    let (hits, entries, _) = memo_counts();
    assert_eq!(entries, 3, "an invalid instance entered the memo");
    assert!(hits > 2, "the bad lines around `x` went unmemoized");
    // an expired deadline fails fast on a memo hit as on a decode
    let expired = format!(r#"{{"v":1,"id":22,"verb":"solve","instance":{x},"deadline_ms":0}}"#);
    let answer = parse_value(&send(expired)).unwrap();
    assert_eq!(err_code(&answer), Some("deadline_exceeded"));
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A connection that has finished parks its thread, and the next
/// connection runs on it: 20 sequential one-hit connections spawn
/// almost no threads, and answers that fit the socket need no writer.
/// A client that pipelines more than the socket buffers hold before it
/// reads gets the rest of its answers through a writer job.
#[test]
fn connections_reuse_parked_threads_and_a_full_socket_starts_a_writer() {
    const BATCH: usize = 600;
    let (addr, handle, join) = start(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    });
    let golden = std::fs::read_to_string(instances_dir().join("hom_pipeline_period.json"))
        .expect("golden instance is readable");
    let instance = serde_json::to_string(&parse_value(&golden).expect("golden parses")).unwrap();
    let line = |id: usize| format!(r#"{{"v":1,"id":{id},"verb":"solve","instance":{instance}}}"#);
    // The observer's own connection holds a thread throughout.
    let mut observer = RemoteClient::connect(addr).expect("client connects");
    let mut threads_now = || observer.stats().expect("stats verb");
    let warm = raw_exchange(addr, &[line(0)], 1);
    assert_eq!(err_code(&warm[0]), None, "warming solve failed");
    for id in 1..=20 {
        // A client that reconnects once the last connection's thread
        // has parked.
        let begin = std::time::Instant::now();
        while stat(&threads_now(), "threads", "parked") < Some(1) {
            assert!(
                begin.elapsed() < Duration::from_secs(10),
                "a finished connection never parked its thread"
            );
            repliflow_sync::thread::sleep(Duration::from_millis(1));
        }
        let hit = raw_exchange(addr, &[line(id)], 1);
        let provenance = hit[0]
            .field("ok")
            .and_then(|ok| ok.field("provenance"))
            .and_then(Value::as_str);
        assert_eq!(provenance, Some("cached"), "connection {id}");
    }
    let stats = threads_now();
    let threads = |name| stat(&stats, "threads", name).expect("threads section");
    assert!(threads("spawned") <= 4, "{:?}", stats.field("threads"));
    assert!(threads("reused") >= 16, "{:?}", stats.field("threads"));
    assert_eq!(threads("writers"), 0, "{:?}", stats.field("threads"));

    let instance = long_pipeline_json(5_000);
    let line = |id: usize| format!(r#"{{"v":1,"id":{id},"verb":"solve","instance":{instance}}}"#);
    let warm = raw_exchange(addr, &[line(BATCH)], 1);
    assert_eq!(err_code(&warm[0]), None, "warming solve failed");
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_write_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for id in 0..BATCH {
        stream
            .write_all(format!("{}\n", line(id)).as_bytes())
            .unwrap();
    }
    let mut bytes = 0;
    for _ in 0..BATCH {
        let mut text = String::new();
        let read = reader.read_line(&mut text).expect("response read");
        assert!(read > 0 && text.ends_with('\n'), "daemon hung up early");
        bytes += read;
    }
    assert!(bytes > 16 << 20, "only {bytes} response bytes");
    let stats = RemoteClient::connect(addr)
        .expect("client connects")
        .stats()
        .expect("stats verb");
    let writers = stat(&stats, "threads", "writers");
    assert!(writers >= Some(1), "{:?}", stats.field("threads"));
    handle.shutdown();
    join.join().unwrap().unwrap();
}
