//! What the integration suites share: the wait for a tenant to go quiet
//! and the one statement of its ledger (`serving.rs`, `failures.rs`), and
//! the 30 s bound on a scenario that could wedge (`executor.rs`,
//! `run_api.rs`). Each suite compiles this module and uses part of it.
#![allow(dead_code)]

use rustflow::{Tenant, TenantStats};
use std::time::{Duration, Instant};

/// Runs `scenario` on a helper thread and fails loudly if it has not
/// returned within 30 s. It ends the process rather than panic: a wedged
/// scenario holds taskflows whose destructors wait for the very runs that
/// wedged.
pub fn within_30s<T: Send + 'static>(
    what: &str,
    scenario: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, finished) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = done.send(scenario());
    });
    match finished.recv_timeout(Duration::from_secs(30)) {
        Ok(value) => {
            helper.join().unwrap();
            value
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            // Straight to the process's stderr: the test harness captures
            // `eprintln!`, and the exit below would discard the capture.
            let line = format!("FAILED: {what} did not finish within 30 s\n");
            let _ = std::io::Write::write_all(&mut std::io::stderr(), line.as_bytes());
            std::process::exit(101)
        }
        // The scenario panicked before reporting: surface that panic.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().unwrap_err())
        }
    }
}

/// Waits until nothing of the tenant's is queued or in flight and returns
/// that snapshot. A resolved handle proves the run's promise was set, but
/// the finalizing worker updates the tenant counters just after — a benign
/// beat the assertions must not trip on. Gives up after ten seconds and
/// returns the unsettled snapshot for [`assert_ledger_balances`] to fail on.
pub fn settled(tenant: &Tenant) -> TenantStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = tenant.stats();
        if (s.in_flight == 0 && s.queued == 0) || Instant::now() > deadline {
            return s;
        }
        std::thread::yield_now();
    }
}

/// The admission ledger at a quiescent point: every submission ended in
/// exactly one outcome, every driver claim finalized, and both gauges are
/// back at zero.
pub fn assert_ledger_balances(s: &TenantStats) {
    assert_eq!(
        s.submitted,
        s.dispatched
            + s.coalesced
            + s.shed
            + s.rejected_saturated
            + s.rejected_shutdown
            + s.rejected_infeasible
            + s.rejected_breaker,
        "submitted != sum over outcomes: {s:?}"
    );
    assert_eq!(s.completed, s.dispatched, "a claim never finalized: {s:?}");
    assert_eq!((s.queued, s.in_flight), (0, 0), "not quiescent: {s:?}");
}
