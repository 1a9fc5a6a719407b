//! Minimal, dependency-free SIGTERM/SIGINT handling for graceful drain.
//!
//! `lpatd` historically only exited cleanly via `--max-requests`; a
//! ctrl-c or service-manager SIGTERM tore it down mid-request. This
//! module turns both signals into a *drain request*: an async-signal-safe
//! flag the accept loop polls, after which the server stops accepting,
//! finishes what it admitted, flushes, and joins its connection threads —
//! the same clean path
//! `--max-requests` takes.
//!
//! No `libc` crate: the workspace is zero-dependency, and `std` already
//! links the platform libc, so `signal(2)` is declared directly. The
//! handler does the only async-signal-safe thing there is to do — store
//! to an atomic.

use std::sync::atomic::{AtomicBool, Ordering};

static DRAIN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    /// `SIG_IGN` as defined by POSIX.
    const SIG_IGN: usize = 1;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_sig: i32) {
        super::DRAIN.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    pub fn install_term_handlers() {
        unsafe {
            signal(SIGINT, on_term as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        }
    }

    pub fn ignore_term_signals() {
        unsafe {
            signal(SIGINT, SIG_IGN);
            signal(SIGTERM, SIG_IGN);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install_term_handlers() {}
    pub fn ignore_term_signals() {}
}

/// Install SIGTERM/SIGINT handlers that request a graceful drain. The
/// accept loop observes the request via [`drain_requested`]. (glibc's
/// `signal` gives BSD semantics, so interrupted blocking reads restart —
/// the accept loop's own 2ms poll is what bounds reaction time.)
pub fn install_term_handlers() {
    imp::install_term_handlers();
}

/// Make SIGTERM/SIGINT no-ops. Worker subprocesses use this: a ctrl-c
/// delivered to the whole process group must not make mid-drain workers
/// look like crashes — the daemon alone decides their fate (stdin
/// EOF for drain, SIGKILL for wedges).
pub fn ignore_term_signals() {
    imp::ignore_term_signals();
}

/// Whether a termination signal has requested a graceful drain.
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

/// Reset the drain flag (tests only; signals are process-global).
#[doc(hidden)]
pub fn reset_for_tests() {
    DRAIN.store(false, Ordering::SeqCst);
}
