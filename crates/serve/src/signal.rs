//! Process signal handling for graceful drain, without a `libc` crate.
//!
//! The build environment vendors no `libc`, so the daemon declares the
//! one POSIX symbol it needs itself: `signal(2)`. The installed
//! handler does the only thing that is async-signal-safe here — store
//! into a process-global [`AtomicBool`].
//!
//! A flag alone does not wake a thread blocked in a system call, and
//! glibc's `signal()` installs handlers with `SA_RESTART`, so a signal
//! does not even interrupt the accept loop's blocking `accept`. When
//! [`ServerConfig::honor_process_signals`] is set, the server therefore
//! runs a small watcher thread that polls [`drain_requested`] and turns
//! a signal into the same drain request as [`ServerHandle::shutdown`],
//! which wakes the `accept`. Connection threads need no watcher: their
//! reads time out periodically and check the flag themselves.
//!
//! Only the daemon binary installs the handlers
//! ([`install_handlers`]); the library and its tests drive drain
//! through [`ServerHandle::shutdown`] instead and never touch process
//! state.
//!
//! [`ServerHandle::shutdown`]: crate::server::ServerHandle::shutdown
//! [`ServerConfig::honor_process_signals`]: crate::server::ServerConfig::honor_process_signals

use repliflow_sync::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler on SIGINT/SIGTERM; polled by the signal watcher
/// and the connection loops.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// `SIGINT` on every platform this repo targets.
const SIGINT: i32 = 2;
/// `SIGTERM` likewise.
const SIGTERM: i32 = 15;

#[cfg(unix)]
extern "C" {
    /// POSIX `signal(2)`. The handler is passed as a raw function
    /// address (`sighandler_t`).
    fn signal(signum: i32, handler: usize) -> usize;
}

/// The installed handler: flag-store only (async-signal-safe).
#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that request a graceful drain.
/// Call once from the daemon binary before serving. No-op on
/// non-unix platforms (drain remains available via the `shutdown`
/// verb and [`ServerHandle::shutdown`]).
///
/// [`ServerHandle::shutdown`]: crate::server::ServerHandle::shutdown
pub fn install_handlers() {
    #[cfg(unix)]
    // SAFETY: `signal` is the POSIX function; the handler only stores
    // into an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// Whether a SIGINT/SIGTERM arrived since [`install_handlers`].
pub fn drain_requested() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    extern "C" {
        fn raise(signum: i32) -> i32;
    }

    #[test]
    fn a_raised_sigint_sets_the_drain_flag() {
        install_handlers();
        assert!(!drain_requested());
        // SAFETY: raising a signal whose handler we just installed; the
        // handler only stores into an atomic.
        unsafe {
            raise(SIGINT);
        }
        assert!(drain_requested());
    }
}
