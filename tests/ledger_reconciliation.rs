//! The ledger's energy-audit invariant (DESIGN.md §11): for **every**
//! scheme, with and without fault injection, replaying the ledger's
//! span events through fresh meters reproduces the report's per-node
//! energy **to the bit**.
//!
//! This is the strongest form of cross-layer reconciliation: every
//! joule the simulator accounts must appear as a `(node, power-state,
//! interval)` span in the ledger, in the same per-node accumulation
//! order — any missed, duplicated or reordered accumulation changes
//! the f64 operation sequence and fails the `to_bits` comparison.
//! The spans also close each node's wall clock: awake + sleep + off
//! adds up to the run's duration to the nanosecond.

use randomcast::obs::EventKind;
use randomcast::{run_sim, FaultsConfig, Scheme, SimConfig, SimDuration, SimTime};

fn smoke(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::smoke(scheme, 0);
    cfg.duration = SimDuration::from_secs(60);
    cfg.obs = true;
    cfg
}

fn faulted(scheme: Scheme) -> SimConfig {
    let mut cfg = smoke(scheme);
    cfg.faults = FaultsConfig {
        crash_prob: 0.3,
        downtime_s: 10.0,
        link_blackouts: 3,
        blackout_s: 8.0,
        corruption_bursts: 2,
        burst_s: 8.0,
        corruption_prob: 0.5,
        ..FaultsConfig::default()
    };
    cfg
}

fn assert_reconciles(cfg: SimConfig, label: &str) {
    let energy_model = cfg.energy;
    let duration_ns = cfg.duration.as_nanos();
    let report = run_sim(cfg).expect("valid config");
    let obs = report.obs.as_ref().expect("obs was requested");
    assert_eq!(
        obs.intervals(),
        240,
        "{label}: 60 s at 250 ms beacons closes 240 intervals"
    );
    assert!(!obs.events().is_empty(), "{label}: ledger must not be empty");

    let mut span_ns = vec![0u64; obs.nodes() as usize];
    for e in obs.events() {
        if let EventKind::Span { nanos, .. } = e.kind {
            span_ns[e.node.index()] += nanos;
        }
    }
    for (i, &ns) in span_ns.iter().enumerate() {
        assert_eq!(ns, duration_ns, "{label}: node {i} spans cover {ns} ns");
    }

    let replayed = obs.replay_energy(energy_model, SimTime::MAX);
    let reported = report.energy.per_node_joules();
    assert_eq!(replayed.len(), reported.len(), "{label}: node count");
    for (i, (r, e)) in replayed.iter().zip(reported).enumerate() {
        assert_eq!(
            r.to_bits(),
            e.to_bits(),
            "{label}: node {i} ledger replay {r} J != report {e} J"
        );
    }
    // Totals follow from the per-node identity, but assert the headline
    // number too: summing in the same order gives the same f64.
    let total: f64 = replayed.iter().sum();
    let reported_total: f64 = reported.iter().sum();
    assert_eq!(total.to_bits(), reported_total.to_bits(), "{label}: total");
}

#[test]
fn every_scheme_reconciles_joule_exact() {
    for scheme in Scheme::ALL {
        assert_reconciles(smoke(scheme), scheme.label());
    }
}

#[test]
fn every_scheme_reconciles_joule_exact_under_faults() {
    for scheme in Scheme::ALL {
        let report = run_sim(faulted(scheme)).expect("valid config");
        assert!(
            report.faults.crashes > 0 || report.faults.link_blackouts > 0,
            "{scheme}: faults must actually fire or this pins nothing"
        );
        assert_reconciles(faulted(scheme), scheme.label());
    }
}

/// Crashed nodes spend their downtime in `Off` spans, so the audit
/// stays exact through crash/rejoin cycles — and the ledger carries
/// the matching fault markers.
#[test]
fn faulted_ledger_carries_crash_markers_and_off_spans() {
    let cfg = faulted(Scheme::Rcast);
    let report = run_sim(cfg).expect("valid config");
    let obs = report.obs.as_ref().expect("obs was requested");
    let crashes = obs
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Crash))
        .count() as u64;
    assert_eq!(crashes, report.faults.crashes, "one marker per crash");
    assert!(
        obs.events().iter().any(|e| matches!(
            e.kind,
            EventKind::Span {
                state: randomcast::radio::PowerState::Off,
                ..
            }
        )),
        "downtime must appear as Off spans"
    );
}
