//! Output checks. A run that fails any of them counts as failed.

use rcast_core::{Scheme, SimConfig, SimReport, FIGURE_METRICS};

/// Radio power while awake (idle = receive = transmit), watts.
pub const AWAKE_W: f64 = 1.15;
/// Radio power while dozing, watts.
pub const DOZE_W: f64 = 0.045;

/// Slack for float rounding in the energy bounds, as a share of the
/// bound (energies are sums of per-interval products).
const ENERGY_EPS: f64 = 1e-9;

/// Checks one run's report against the physics and bookkeeping
/// invariants: per-node energy within `[doze × T, awake × T]`, 802.11
/// total energy exactly `awake × T × N`, PDR in `[0, 1]`, and no more
/// packets delivered than originated. Returns every violation.
pub fn check_report(cfg: &SimConfig, report: &SimReport) -> Vec<String> {
    let mut problems = Vec::new();
    let t = cfg.duration.as_secs_f64();
    let (lo, hi) = (DOZE_W * t, AWAKE_W * t);
    let per_node = report.energy.per_node_joules();
    if per_node.len() != cfg.nodes as usize {
        problems.push(format!(
            "energy report covers {} of {} nodes",
            per_node.len(),
            cfg.nodes
        ));
    }
    if let Some((i, e)) = per_node
        .iter()
        .enumerate()
        .find(|(_, &e)| !(e >= lo * (1.0 - ENERGY_EPS) && e <= hi * (1.0 + ENERGY_EPS)))
    {
        problems.push(format!("node {i} energy {e} J outside [{lo}, {hi}] J"));
    }
    if cfg.scheme == Scheme::Dot11 {
        let expected = AWAKE_W * t * f64::from(cfg.nodes);
        let total = report.energy.total_joules();
        if total != expected {
            problems.push(format!(
                "802.11 total energy {total} J, expected exactly {expected} J"
            ));
        }
    }
    problems.extend(check_figures(
        &report.figure_metrics(cfg.traffic.packet_bytes),
    ));
    let (orig, deliv) = (report.delivery.originated(), report.delivery.delivered());
    if deliv > orig {
        problems.push(format!("delivered {deliv} > originated {orig}"));
    }
    problems
}

/// Checks the figure metrics every artifact carries: finite, and PDR in
/// `[0, 1]`.
pub fn check_figures(figures: &[f64; FIGURE_METRICS.len()]) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, v) in FIGURE_METRICS.iter().zip(figures) {
        if !v.is_finite() {
            problems.push(format!("figure metric {name} is {v}"));
        }
    }
    let pdr = figures[pdr_column()];
    if !(0.0..=1.0).contains(&pdr) {
        problems.push(format!("PDR {pdr} outside [0, 1]"));
    }
    problems
}

fn pdr_column() -> usize {
    FIGURE_METRICS
        .iter()
        .position(|&m| m == "pdr")
        .expect("pdr is a figure metric")
}

/// `true` when two sets of figure metrics are bit-for-bit equal.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A report rendered field by field: two reports are equal exactly when
/// their renderings are (floats print in shortest round-trip form).
pub fn fingerprint(report: &SimReport) -> String {
    format!("{report:?}")
}
