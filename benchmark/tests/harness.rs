//! Tests of the benchmark harness itself: span structure, the layer
//! drivers, determinism of the mobility replay, and the workload
//! definitions.

use rcast_core::{Scheme, SimConfig};
use rcast_engine::SimDuration;
use rcast_layerbench::checks::{check_figures, check_report, fingerprint};
use rcast_layerbench::measure::{median, percentile, run_stepped};
use rcast_layerbench::replay::{replay, MobilityStats};
use rcast_layerbench::spans::{validate, Span, Tracer};
use rcast_layerbench::workloads::{derived_seed, Motion, Workload};
use rcast_sweep::Pairing;

/// The medium tier's density, 150 nodes on 1800 × 360 m, which the
/// single-run workloads share.
const DENSITY_PER_M2: f64 = 150.0 / (1800.0 * 360.0);

/// A small moving network that still floods and forwards.
fn small(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::smoke(Scheme::Rcast, seed);
    cfg.duration = SimDuration::from_secs(20);
    cfg.waypoint.pause_secs = 0.0;
    cfg
}

/// Runs `f` inside a span named `name`.
fn span(t: &mut Tracer, name: &'static str, f: impl FnOnce(&mut Tracer)) {
    let id = t.enter(name);
    f(t);
    t.exit(id);
}

/// The mobility counts with the timings zeroed: what must repeat
/// exactly for a seed.
fn counts(m: &MobilityStats) -> MobilityStats {
    MobilityStats {
        snapshot_ns: 0,
        advance_ns: 0,
        churn_ns: 0,
        ..*m
    }
}

fn children_inside_parents(spans: &[Span]) {
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            assert!(
                s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns,
                "{s:?} escapes {parent:?}"
            );
            assert!(s.duration_ns() <= parent.duration_ns());
        }
    }
}

#[test]
fn spans_nest_with_one_root_per_run() {
    let mut t = Tracer::new();
    span(&mut t, "a", |t| {
        span(t, "a.1", |t| span(t, "a.1.x", |_| ()));
        span(t, "a.2", |_| ());
    });
    span(&mut t, "b", |t| span(t, "b.1", |_| ()));
    let spans = t.spans();
    validate(spans).expect("well formed");
    children_inside_parents(spans);
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 2);
    assert_ne!(roots[0].run, roots[1].run);
    for s in spans {
        let mut top = s;
        while let Some(p) = top.parent {
            top = &spans[p];
        }
        assert_eq!(top.run, s.run, "every span shares its root's run id");
    }
    let totals = t.totals();
    assert_eq!(totals["a"].count, 1);
    assert!(totals["a"].self_ns <= totals["a"].total_ns);
}

#[test]
fn validation_rejects_escaping_children_and_second_roots() {
    let mk = |id, parent, run, start_ns, end_ns| Span {
        id,
        parent,
        run,
        name: "s",
        start_ns,
        end_ns,
    };
    assert!(validate(&[mk(0, None, 1, 0, 10), mk(1, Some(0), 1, 5, 11)]).is_err());
    assert!(validate(&[mk(0, None, 1, 0, 10), mk(1, None, 1, 11, 12)]).is_err());
    assert!(validate(&[mk(0, None, 1, 0, 10), mk(1, Some(0), 2, 1, 2)]).is_err());
    assert!(validate(&[mk(0, None, 1, 0, 10), mk(1, Some(0), 1, 1, 2)]).is_ok());
}

#[test]
fn traced_sim_run_nests_and_matches_the_untraced_report() {
    let mut t = Tracer::new();
    let (traced, timing) = run_stepped(small(3), Some(&mut t), &mut Vec::new()).expect("runs");
    let mut samples = Vec::new();
    let (plain, _) = run_stepped(small(3), None, &mut samples).expect("runs");
    assert_eq!(fingerprint(&traced), fingerprint(&plain));
    assert_eq!(samples.len() as u64, small(3).beacon_intervals());
    assert_eq!(timing.intervals, small(3).beacon_intervals());
    validate(t.spans()).expect("well formed");
    children_inside_parents(t.spans());
    assert_eq!(t.spans().iter().filter(|s| s.parent.is_none()).count(), 1);
    let totals = t.totals();
    assert_eq!(totals["sim.step"].count, small(3).beacon_intervals());
    assert!(check_report(&small(3), &plain).is_empty());
}

#[test]
fn driver_spans_never_exceed_their_parent() {
    let mut t = Tracer::new();
    let rep = replay(&small(5), true, Some(&mut t)).expect("network goes quiet");
    let spans = t.spans();
    validate(spans).expect("well formed");
    children_inside_parents(spans);
    let root = &spans[0];
    assert_eq!(root.name, "replay");
    assert!(
        spans[1..].iter().all(|s| s.parent.is_some()),
        "one root for the replay"
    );
    let dsr = rep.dsr.expect("drivers ran");
    let mac = rep.mac.expect("drivers ran");
    assert!(dsr.originates > 0 && dsr.rreq_receives > 0);
    assert!(dsr.rreq_suppressed <= dsr.rreq_receives);
    assert_eq!(mac.intervals, small(5).beacon_intervals());
    let totals = t.totals();
    assert_eq!(totals["mac.interval"].count, mac.intervals);
    assert_eq!(totals["mobility.advance"].count, rep.mobility.advanced);
}

#[test]
fn mobility_replay_is_deterministic_per_seed() {
    let a = replay(&small(7), false, None).expect("replays");
    let b = replay(&small(7), false, None).expect("replays");
    assert_eq!(counts(&a.mobility), counts(&b.mobility));
    assert!(a.mobility.link_changes > 0, "pause 0 nodes move");
    let c = replay(&small(8), false, None).expect("replays");
    assert_ne!(counts(&a.mobility), counts(&c.mobility));
}

#[test]
fn stationary_replay_has_no_churn() {
    let mut cfg = small(2);
    cfg.waypoint.pause_secs = 2.0 * cfg.duration.as_secs_f64();
    let rep = replay(&cfg, false, None).expect("replays");
    assert_eq!(rep.mobility.link_changes, 0);
    assert_eq!(rep.mobility.refilled_lists, 0);
}

#[test]
fn workload_configs_validate_and_match_their_stated_shape() {
    // (workload, nodes, width, height, flows, rate, duration s)
    let stated = [
        (Workload::Mobile600, 600, 3600.0, 720.0, 30, 0.4, 30),
        (Workload::StaticLoaded150, 150, 1800.0, 360.0, 50, 2.0, 100),
        (Workload::Idle1200, 1200, 5091.0, 1018.0, 2, 0.05, 100),
    ];
    for (w, nodes, width, height, flows, rate, secs) in stated {
        let cfg = w.config(11);
        cfg.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(cfg.seed, 11);
        assert_eq!(cfg.scheme, Scheme::Rcast);
        assert_eq!(cfg.nodes, nodes, "{}", w.name());
        assert_eq!(
            (cfg.area.width(), cfg.area.height()),
            (width, height),
            "{}",
            w.name()
        );
        assert_eq!(
            (cfg.traffic.flows, cfg.traffic.rate_pps),
            (flows, rate),
            "{}",
            w.name()
        );
        assert_eq!(cfg.duration, SimDuration::from_secs(secs), "{}", w.name());
        let density = f64::from(nodes) / (width * height);
        assert!(
            (density / DENSITY_PER_M2 - 1.0).abs() < 1e-3,
            "{}: density {density}",
            w.name()
        );
        assert!(
            (width / height - 5.0).abs() < 0.01,
            "{}: the medium tier's 5:1 strip",
            w.name()
        );
        match w.motion() {
            Motion::Moving => assert_eq!(cfg.waypoint.pause_secs, 0.0),
            Motion::Stationary => assert!(cfg.waypoint.pause_secs > cfg.duration.as_secs_f64()),
            Motion::Mixed => unreachable!("single-run workloads have one motion"),
        }
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
}

#[test]
fn campaign_is_fig7_at_paper_scale_on_the_benchmark_seed() {
    let spec = Workload::campaign_spec(9).normalized().expect("valid");
    assert_eq!(spec.seeds, vec![9]);
    assert_eq!(spec.schemes, Scheme::PAPER_FIGURES.to_vec());
    assert_eq!(spec.rates, vec![0.2, 0.4, 1.0, 2.0]);
    assert_eq!(spec.pauses, vec![600.0, 1125.0]);
    assert_eq!(spec.nodes, vec![100]);
    assert_eq!(spec.base.duration, SimDuration::from_secs(1125));
    assert_eq!(spec.total_runs(), 24);
    assert_eq!(spec.pairing, Pairing::Independent);
    let seeds: std::collections::BTreeSet<u64> = spec
        .expand()
        .iter()
        .map(|c| c.run_seed(9, spec.pairing))
        .collect();
    assert_eq!(seeds.len(), 24, "every run draws its own seed");
    let base = Workload::CampaignFig7.config(9);
    assert_eq!(
        (base.scheme, base.traffic.rate_pps, base.waypoint.pause_secs),
        (Scheme::Rcast, 0.4, 600.0)
    );
    let cell = spec
        .expand()
        .into_iter()
        .find(|c| c.scheme == base.scheme && c.rate_pps == 0.4 && c.pause_s == 600.0)
        .expect("the base cell is in the grid");
    let mut run = cell.config(&spec);
    run.seed = cell.run_seed(9, spec.pairing);
    assert_eq!(base, run, "the drivers replay a run the campaign makes");
    assert_eq!(Workload::CampaignFig7.motion(), Motion::Mixed);
}

#[test]
fn round_seeds_start_at_the_benchmark_seed_and_differ() {
    assert_eq!(derived_seed(42, 0), 42);
    assert_eq!(derived_seed(42, 1), derived_seed(42, 1));
    assert_ne!(derived_seed(42, 1), derived_seed(42, 2));
    assert_ne!(derived_seed(42, 1), 42);
}

#[test]
fn checks_flag_impossible_figures() {
    assert!(check_figures(&[1.0, 0.0, 0.5, 0.1, 0.2, 0.0]).is_empty());
    assert!(!check_figures(&[1.0, 0.0, 1.5, 0.1, 0.2, 0.0]).is_empty());
    assert!(!check_figures(&[f64::NAN, 0.0, 0.5, 0.1, 0.2, 0.0]).is_empty());
}

#[test]
fn order_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 95.0), 95.0);
    assert_eq!(percentile(&[7.0], 95.0), 7.0);
}
