//! CLI round-trip snapshots: every golden instance under
//! `examples/instances/` is fed through the `solve` binary (Table 1
//! auto-dispatch) and its report is compared against the committed
//! `.expected` snapshot. Guards both the JSON wire format and the
//! registry's routing/optimality decisions.
//!
//! To regenerate after an intentional output change:
//! `for f in examples/instances/*.json; do
//!    cargo run --release -p repliflow-bench --bin solve -- "$f" \
//!      > "${f%.json}.expected"; done`

use std::path::{Path, PathBuf};
use std::process::Command;

fn instances_dir() -> PathBuf {
    // crates/bench -> workspace root -> examples/instances
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
    assert!(
        paths.len() >= 8,
        "expected a golden instance per interesting Table 1 cell, found {}",
        paths.len()
    );
    paths
}

#[test]
fn every_golden_instance_snapshot_matches() {
    for json in golden_instances() {
        let expected_path = json.with_extension("expected");
        let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!("missing snapshot {expected_path:?}; see module docs to regenerate")
        });
        let output = Command::new(env!("CARGO_BIN_EXE_solve"))
            .arg(&json)
            .output()
            .expect("solve binary runs");
        assert!(
            output.status.success(),
            "solve failed on {json:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).expect("report is UTF-8");
        assert_eq!(
            stdout, expected,
            "snapshot mismatch for {json:?} (regenerate if intentional)"
        );
    }
}

#[test]
fn batch_mode_covers_all_golden_instances() {
    let paths = golden_instances();
    let output = Command::new(env!("CARGO_BIN_EXE_solve"))
        .args(&paths)
        .output()
        .expect("solve binary runs");
    let stderr = String::from_utf8(output.stderr).unwrap();
    // no cell may fall through the registry (engine errors go to stderr)
    assert!(output.status.success(), "batch solve failed: {stderr}");
    assert!(stderr.is_empty(), "batch solve emitted errors: {stderr}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    for path in &paths {
        let header = format!("== {} ==", path.display());
        assert!(stdout.contains(&header), "batch output misses {header}");
    }
}

#[test]
fn engine_override_is_honored() {
    let instance = instances_dir().join("hom_pipeline_period.json");
    let output = Command::new(env!("CARGO_BIN_EXE_solve"))
        .args(["--engine", "exact"])
        .arg(&instance)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("engine   : exact"));
    assert!(stdout.contains("optimal  : proven"));
    // same optimum as the paper engine snapshot
    assert!(stdout.contains("period   : 8"));
}

#[test]
fn stdin_input_works() {
    use std::io::Write;
    let json = std::fs::read_to_string(instances_dir().join("hom_pipeline_period.json")).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_solve"))
        .arg("-")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(json.as_bytes())
        .unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success());
    assert!(String::from_utf8(output.stdout)
        .unwrap()
        .contains("period   : 8"));
}

/// Runs `solve` with `args`, reads the first line of its output and
/// closes the pipe, as `solve … | head -1` does; returns that line and
/// the finished process's output (stderr and status).
fn first_line_then_close(args: &[std::ffi::OsString]) -> (String, std::process::Output) {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_solve"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("solve binary runs");
    let mut first = String::new();
    {
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
        stdout.read_line(&mut first).expect("first line");
        // dropping the reader closes the pipe
    }
    (first, child.wait_with_output().expect("solve exits"))
}

/// 400 copies of one golden: about 200 KB of reports, more than a pipe
/// buffer holds, so `solve` must write after the reader has gone.
fn many_copies() -> Vec<std::ffi::OsString> {
    let golden = instances_dir().join("hom_pipeline_period.json");
    vec![golden.into_os_string(); 400]
}

/// A reader that closes stdout early ends the run quietly: no panic, no
/// backtrace, and the status of the reports printed until then.
#[test]
fn a_closed_stdout_ends_a_local_run_quietly() {
    let (first, output) = first_line_then_close(&many_copies());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(first.starts_with("== "), "first line: {first:?}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(output.status.success(), "status {:?}", output.status);
}

/// The same through `--remote`: the client stops solving and exits
/// quietly once nobody reads its reports.
#[test]
fn a_closed_stdout_ends_a_remote_run_quietly() {
    use repliflow_serve::server::{Server, ServerConfig};
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: Some(1),
        ..ServerConfig::default()
    })
    .expect("daemon binds");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let daemon = repliflow_sync::thread::spawn(move || server.run());
    let mut args = vec!["--remote".into(), addr.to_string().into()];
    args.extend(many_copies());
    let (first, output) = first_line_then_close(&args);
    handle.shutdown();
    daemon.join().expect("daemon thread").expect("clean drain");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(first.starts_with("== "), "first line: {first:?}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(output.status.success(), "status {:?}", output.status);
}
