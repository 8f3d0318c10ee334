//! repliflow-serve — the network-facing solver daemon.
//!
//! Everything below `crates/solver` answers *"how do we solve one
//! request well?"*; this crate answers *"how do we keep answering under
//! load, forever, and stop cleanly?"*. It wraps one shared
//! [`SolverService`] (persistent worker pool + fingerprint-keyed solve
//! cache) in a TCP daemon speaking a line-delimited JSON protocol:
//!
//! * [`protocol`] — the wire grammar: versioned requests with echoed
//!   ids, five verbs (`solve`, `pareto`, `stats`, `ping`, `shutdown`),
//!   structured error envelopes. Malformed, oversized or mis-versioned
//!   lines get an error response, never a dropped connection or a
//!   panic.
//! * [`admission`] — bounded admission with immediate load-shedding
//!   (`overloaded`), a per-connection in-flight cap, and counters.
//! * [`framing`] — newline framing under the line cap, linear in the
//!   bytes read and independent of how they were chunked.
//! * [`server`] — the daemon: an accept loop that runs every
//!   connection on a thread cache (finished connections park their
//!   threads for the next); cache hits, errors and admin verbs
//!   answered on the connection thread, cache misses on the pool; an
//!   instance memo that recognizes a repeated `solve` instance by its
//!   raw bytes, so a warm hit skips the decode and the fingerprint; a
//!   per-connection outbox through which the thread holding an answer
//!   sends it in one non-blocking send, with a writer job for what does
//!   not fit the socket (responses in completion order, so clients may
//!   pipeline); graceful drain that answers everything admitted and
//!   joins every thread before exiting.
//! * [`signal`] — SIGINT/SIGTERM → drain flag, without a `libc` crate.
//! * [`client`] — a synchronous client: the CLI's `--remote` mode, the
//!   `ctl` admin subcommand, tests and benchmarks.
//!
//! The load-bearing protocol guarantee: a remote solve's canonical
//! report is **byte-identical** to an in-process solve of the same
//! instance — the daemon embeds [`SolveReport::canonical_json`]'s
//! object verbatim in the response and the client re-serializes it
//! without reordering (pinned by `tests/daemon.rs`). The `pareto` verb
//! extends the same guarantee to whole Pareto fronts
//! ([`FrontReport::canonical_json`]).
//!
//! [`SolverService`]: repliflow_solver::SolverService
//! [`SolveReport::canonical_json`]: repliflow_solver::SolveReport::canonical_json
//! [`FrontReport::canonical_json`]: repliflow_multicrit::FrontReport::canonical_json

pub mod admission;
pub mod client;
pub mod framing;
mod memo;
mod metrics;
pub mod protocol;
pub mod server;
pub mod signal;

pub use admission::{Admission, AdmissionConfig, AdmissionStats, RejectReason, Ticket};
pub use client::{
    engine_wire_name, front_engine_wire_name, quality_wire_name, RemoteClient, RemoteError,
    RemoteFrontReport, RemoteParetoOptions, RemoteReport, RemoteSolveOptions,
};
pub use protocol::{ErrorCode, DEFAULT_MAX_LINE_BYTES, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ServerHandle, DEFAULT_PORT};
