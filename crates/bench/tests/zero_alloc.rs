//! Regression gate for DESIGN.md §10: the steady-state interval loop
//! performs **zero heap allocations** once the reusable scratch storage
//! has warmed up.
//!
//! This integration test installs [`rcast_bench::AllocProbe`] as its
//! process's global allocator, warms a quiet-but-realistic simulation
//! past its high-water marks, then steps the remaining intervals and
//! asserts the process-wide allocation counter did not move. Any
//! reintroduced `Vec::new`/`clone`/`to_vec` on the hot path fails this
//! test with an exact count (the lint rule D007 catches the same class
//! statically by call-graph reachability; this is the dynamic proof).

use std::sync::{Mutex, PoisonError};

use rcast_bench::alloc_probe;
use rcast_core::{Scheme, SimConfig, Simulation};

#[global_allocator]
static PROBE: rcast_bench::AllocProbe = rcast_bench::AllocProbe::new();

/// The probe's counter is process-wide and the harness runs tests
/// concurrently, so one test's set-up would land in another's
/// measurement window. Each simulation holds this lock from
/// construction to its last interval. A failed test poisons it; the
/// others still measure, so take the guard regardless.
static MEASURING: Mutex<()> = Mutex::new(());

/// A quiet steady state: static nodes (a pause longer than the run) and
/// one almost-silent flow (traffic validation requires >= 1 flow, and a
/// 0.001 pps rate means the flow's first packet falls outside the run),
/// so intervals exercise the full PSM/beacon/energy machinery without
/// data traffic forcing route discoveries mid-measurement.
fn quiet_config() -> SimConfig {
    let mut cfg = SimConfig::smoke(Scheme::Rcast, 3);
    cfg.waypoint.pause_secs = 1e9;
    cfg.traffic.flows = 1;
    cfg.traffic.rate_pps = 0.001;
    cfg
}

/// Runs the second half of a quiet simulation under the probe and
/// returns the allocation count over those steady-state intervals.
fn steady_state_allocs(cfg: SimConfig) -> u64 {
    let _exclusive = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let mut sim = Simulation::new(cfg).expect("valid config");
    let total = 480u64; // 120 s at 250 ms beacons.

    // Warm-up: let every scratch buffer, queue and table reach its
    // high-water capacity.
    for _ in 0..total / 2 {
        assert!(sim.step_interval());
    }

    assert!(
        alloc_probe::is_installed(),
        "the probe must be this process's global allocator"
    );
    let before = alloc_probe::allocations();
    let mut stepped = 0u64;
    while sim.step_interval() {
        stepped += 1;
    }
    let after = alloc_probe::allocations();
    assert_eq!(stepped, total - total / 2, "ran to the configured end");
    after - before
}

#[test]
fn steady_state_interval_loop_does_not_allocate() {
    assert!(
        !alloc_probe::is_installed() || alloc_probe::allocations() > 0,
        "sanity: flag only flips once counting starts"
    );

    let allocs = steady_state_allocs(quiet_config());
    assert_eq!(
        allocs, 0,
        "steady-state intervals must not touch the heap \
         ({allocs} allocations)",
    );
}

/// The *loaded* steady state: the full smoke testbed — moving nodes,
/// real CBR traffic, route discoveries and repairs — may allocate only
/// where genuinely new route state is stored. This pins a hard mean
/// per-interval budget so traffic-path regressions (packet clones,
/// per-arrival route materialization, per-interval `Vec` rebuilds)
/// fail loudly instead of hiding behind the quiet-state zero gate.
/// The run is seeded and deterministic, so the measured count is exact;
/// the budget leaves headroom only for allocator-library drift.
#[test]
fn loaded_steady_state_stays_within_the_allocation_budget() {
    const BUDGET_PER_INTERVAL: f64 = 60.0;
    let allocs = steady_state_allocs(SimConfig::smoke(Scheme::Rcast, 3));
    let intervals = 240.0; // the measured second half of the run
    let per_interval = allocs as f64 / intervals;
    assert!(
        per_interval <= BUDGET_PER_INTERVAL,
        "loaded steady-state allocations {per_interval:.2}/interval \
         exceed the {BUDGET_PER_INTERVAL}/interval budget \
         ({allocs} over {intervals} intervals)",
    );
}

/// DESIGN.md §11: turning the event ledger on must not reintroduce
/// steady-state allocations — every ring buffer, span lane and series
/// row is pre-sized at construction, and overflow increments a counter
/// instead of growing.
#[test]
fn steady_state_with_ledger_enabled_does_not_allocate() {
    let mut cfg = quiet_config();
    cfg.obs = true;
    let allocs = steady_state_allocs(cfg);
    assert_eq!(
        allocs, 0,
        "ledger-on steady-state intervals must not touch the heap \
         ({allocs} allocations)",
    );
}
