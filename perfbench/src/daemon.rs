//! The daemon under test as a child process, and a raw line client.
//!
//! The benchmark drives the real `repliflow-serve` binary: it spawns it
//! on an ephemeral port, waits for its readiness line, talks the
//! line-delimited protocol over plain sockets, reads its `stats` verb,
//! and drains it with the `shutdown` verb (killing it only if the drain
//! does not finish in time). Every child is waited for.

use crate::config;
use repliflow_serve::RemoteClient;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon with `workers` pool threads and returns once it
    /// printed its `listening on ADDR` line.
    pub fn spawn(bin: &Path, workers: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
                "--max-line-bytes",
                &config::MAX_LINE_BYTES.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not captured".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let ready = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (ready, addr) {
            (Ok(n), Some(addr)) if n > 0 => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not become ready (printed {line:?})"))
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// The daemon's `stats` snapshot.
    pub fn stats(&self) -> Result<Value, String> {
        let mut client = RemoteClient::connect(&self.addr).map_err(|e| e.to_string())?;
        client.stats().map_err(|e| e.to_string())
    }

    /// Drains the daemon and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = RemoteClient::connect(&self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(config::DAEMON_WAIT_S);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return acked,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    repliflow_sync::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not drain in time; killed".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After a clean shutdown the child is already reaped and both
        // calls are no-ops; on an error path this stops the daemon.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB (0 when unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A pre-rendered request: everything of the line except the id, so a
/// request costs the client one buffer copy and one write.
#[derive(Clone, Debug)]
pub struct RequestLine {
    /// The line after `{"v":1,"id":<id>`, newline included.
    pub suffix: String,
}

impl RequestLine {
    /// Renders a request object's fields (without `v` and `id`).
    pub fn new(fields: Vec<(String, Value)>) -> RequestLine {
        let body = serde_json::to_string(&Value::Object(fields)).expect("a Value tree serializes");
        // `{"verb":...}` becomes `,"verb":...}` after the id.
        RequestLine {
            suffix: format!(",{}\n", &body[1..]),
        }
    }

    /// The full line for request `id` (newline included).
    pub fn render(&self, id: u64, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(b"{\"v\":1,\"id\":");
        out.extend_from_slice(id.to_string().as_bytes());
        out.extend_from_slice(self.suffix.as_bytes());
    }
}

/// The prefix a successful response to request `id` starts with.
pub fn ok_prefix(id: u64) -> String {
    format!("{{\"v\":1,\"id\":{id},\"ok\":")
}

/// One client connection speaking raw protocol lines.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    pub line: String,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            line: String::new(),
            out: Vec::new(),
        })
    }

    /// Sends request `id` of `request`.
    pub fn send(&mut self, id: u64, request: &RequestLine) -> std::io::Result<()> {
        request.render(id, &mut self.out);
        self.writer.write_all(&self.out)
    }

    /// Reads one response line into [`Conn::line`] (newline stripped).
    pub fn recv(&mut self) -> std::io::Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        if self.line.ends_with('\n') {
            self.line.pop();
        }
        Ok(())
    }
}

/// Reads an integer at a `/`-separated path of a stats snapshot.
pub fn stat_int(stats: &Value, path: &str) -> i128 {
    stat(stats, path).and_then(Value::as_int).unwrap_or(0)
}

/// Reads a number at a `/`-separated path of a stats snapshot.
pub fn stat_f64(stats: &Value, path: &str) -> f64 {
    match stat(stats, path) {
        Some(Value::Float(f)) => *f,
        Some(Value::Int(i)) => *i as f64,
        _ => 0.0,
    }
}

fn stat<'a>(stats: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('/').try_fold(stats, |v, key| v.field(key))
}

/// Per-engine `(busy ms, solves)` from a stats snapshot.
pub fn engine_busy(stats: &Value, engine: &str) -> (f64, i128) {
    stats
        .field("service")
        .and_then(|s| s.field("per_engine"))
        .and_then(Value::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.field("engine").and_then(Value::as_str) == Some(engine))
        })
        .map_or((0.0, 0), |row| {
            (stat_f64(row, "wall_ms"), stat_int(row, "solves"))
        })
}
