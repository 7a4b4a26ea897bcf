//! What the serving-path suites (`serving.rs`, `failures.rs`) share: the
//! wait for a tenant to go quiet and the one statement of its ledger.

use rustflow::{Tenant, TenantStats};
use std::time::{Duration, Instant};

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
