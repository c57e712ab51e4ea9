//! The event ledger: pre-sized per-interval buffers feeding a run-long
//! archive, plus the end-of-run [`ObsReport`].
//!
//! # Memory discipline
//!
//! The ledger participates in the simulator's zero-steady-state-
//! allocation contract (DESIGN.md §10): every buffer is sized at
//! construction from the run geometry (`intervals × nodes`), so
//! [`Ledger::record_event`], [`Ledger::record_span`] and
//! [`Ledger::end_interval`] never touch the allocator. Each interval
//! has a bounded budget of ordinary events; overflow is *counted*
//! (never grown), while energy spans ride a reserved lane that always
//! fits — the energy audit is unconditional.

use rcast_engine::{NodeId, SimDuration, SimTime};
use rcast_metrics::IntervalSeries;
use rcast_radio::{EnergyMeter, EnergyModel, PowerState};

use crate::event::{Event, EventKind};

/// Run geometry the ledger sizes its buffers from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerParams {
    /// Number of real nodes (the pseudo-node for network-scoped events
    /// is `nodes`, one past the last real id).
    pub nodes: u32,
    /// Number of beacon intervals in the run.
    pub intervals: u64,
    /// Beacon-interval length, nanoseconds.
    pub beacon_nanos: u64,
}

/// Column order of the per-interval series carried by [`ObsReport`].
pub const SERIES_COLUMNS: [&str; 3] = ["awake_ns", "overheard", "airtime_ns"];

/// The deterministic event ledger threaded through one simulation run.
#[derive(Debug, Clone)]
pub struct Ledger {
    nodes: u32,
    beacon_nanos: u64,
    /// Ordinary-event budget per interval (spans ride a separate,
    /// guaranteed lane).
    cap_per_interval: usize,
    /// Total capacity reserved at construction; never exceeded.
    capacity: usize,
    events: Vec<Event>,
    next_seq: u32,
    /// Ordinary events recorded in the current interval.
    cur_events: usize,
    dropped: u64,
    cur_awake_ns: u64,
    cur_overheard: u64,
    cur_airtime_ns: u64,
    series: IntervalSeries,
}

impl Ledger {
    /// The per-interval ordinary-event budget for a network of `nodes`.
    fn interval_budget(nodes: u32) -> usize {
        4 * nodes as usize + 32
    }

    /// Builds a ledger with every buffer sized for the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `beacon_nanos` is zero.
    pub fn new(p: LedgerParams) -> Self {
        assert!(p.nodes > 0, "need at least one node");
        assert!(p.beacon_nanos > 0, "beacon interval must be positive");
        let cap_per_interval = Self::interval_budget(p.nodes);
        // Spans: at most two per node per interval (awake + sleep, or a
        // single off span). Everything else fits the ordinary budget.
        let per_interval = cap_per_interval + 2 * p.nodes as usize;
        let capacity = per_interval * p.intervals as usize;
        Ledger {
            nodes: p.nodes,
            beacon_nanos: p.beacon_nanos,
            cap_per_interval,
            capacity,
            events: Vec::with_capacity(capacity),
            next_seq: 0,
            cur_events: 0,
            dropped: 0,
            cur_awake_ns: 0,
            cur_overheard: 0,
            cur_airtime_ns: 0,
            series: IntervalSeries::with_capacity(SERIES_COLUMNS.len(), p.intervals as usize),
        }
    }

    /// The pseudo-node id network-scoped events are recorded against.
    pub fn network_node(&self) -> NodeId {
        NodeId::new(self.nodes)
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events that overflowed an interval budget and were counted
    /// instead of stored.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, at: SimTime, node: NodeId, kind: EventKind) {
        debug_assert!(self.events.len() < self.capacity, "ledger lane overflow");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Event {
            at,
            node,
            seq,
            kind,
        });
    }

    /// Records one ordinary event, subject to the interval budget:
    /// overflow increments [`dropped`](Self::dropped) and stores
    /// nothing, so steady-state recording never reallocates.
    pub fn record_event(&mut self, at: SimTime, node: NodeId, kind: EventKind) {
        if self.cur_events >= self.cap_per_interval || self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        match kind {
            EventKind::Overheard { .. } => self.cur_overheard += 1,
            EventKind::Airtime { nanos } => self.cur_airtime_ns += nanos,
            _ => {}
        }
        self.cur_events += 1;
        self.push(at, node, kind);
    }

    /// Records one energy span on the reserved lane. The caller invokes
    /// this adjacent to the meter's `accumulate` with the *same*
    /// `(state, duration)` arguments, in the same order — that adjacency
    /// is what makes [`ObsReport::replay_energy`] bit-exact.
    pub fn record_span(&mut self, at: SimTime, node: NodeId, state: PowerState, dur: SimDuration) {
        if self.events.len() >= self.capacity {
            // Unreachable by construction; counted defensively rather
            // than grown so the no-allocation contract survives bugs.
            self.dropped += 1;
            return;
        }
        if state == PowerState::Awake {
            self.cur_awake_ns += dur.as_nanos();
        }
        self.push(
            at,
            node,
            EventKind::Span {
                state,
                nanos: dur.as_nanos(),
            },
        );
    }

    /// Closes the current interval: pushes the per-interval series row
    /// (`awake_ns`, `overheard`, `airtime_ns`) and resets the interval
    /// budget and accumulators.
    pub fn end_interval(&mut self) {
        self.series.push_row(&[
            self.cur_awake_ns as f64,
            self.cur_overheard as f64,
            self.cur_airtime_ns as f64,
        ]);
        self.cur_awake_ns = 0;
        self.cur_overheard = 0;
        self.cur_airtime_ns = 0;
        self.cur_events = 0;
    }

    /// Finalizes the ledger: sorts events into the `(SimTime, NodeId,
    /// seq)` total order and packages the report.
    pub fn into_report(mut self) -> ObsReport {
        self.events.sort_unstable_by_key(Event::key);
        ObsReport {
            nodes: self.nodes,
            beacon_nanos: self.beacon_nanos,
            dropped: self.dropped,
            events: self.events,
            series: self.series,
        }
    }
}

/// The finalized ledger carried by a `SimReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    nodes: u32,
    beacon_nanos: u64,
    dropped: u64,
    events: Vec<Event>,
    series: IntervalSeries,
}

impl ObsReport {
    /// Number of real nodes in the run.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Beacon-interval length, nanoseconds.
    pub fn beacon_nanos(&self) -> u64 {
        self.beacon_nanos
    }

    /// Events that overflowed an interval budget and were not stored.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All events in `(at, node, seq)` order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The per-interval series; columns per [`SERIES_COLUMNS`].
    pub fn series(&self) -> &IntervalSeries {
        &self.series
    }

    /// Number of closed intervals.
    pub fn intervals(&self) -> u64 {
        self.series.rows() as u64
    }

    /// The pseudo-node id carrying network-scoped events.
    pub fn network_node(&self) -> NodeId {
        NodeId::new(self.nodes)
    }

    /// Replays every [`EventKind::Span`] that starts before `end`
    /// through fresh meters of `model`, returning per-node joules.
    /// Spans cover whole beacon intervals, so at an interval boundary
    /// `end` this is each node's energy trajectory sampled there;
    /// `SimTime::MAX` replays the whole run.
    ///
    /// **Reconciliation invariant:** because spans are recorded adjacent
    /// to the simulator's own `accumulate` calls with identical
    /// arguments — and the `(at, node, seq)` order preserves each
    /// node's accumulation order — the whole-run result equals the
    /// report's per-node energy *to the bit*, for every scheme and
    /// fault plan.
    pub fn replay_energy(&self, model: EnergyModel, end: SimTime) -> Vec<f64> {
        let mut meters: Vec<EnergyMeter> =
            (0..self.nodes).map(|_| EnergyMeter::new(model)).collect();
        for e in self.events.iter().take_while(|e| e.at < end) {
            if let EventKind::Span { state, nanos } = e.kind {
                let i = e.node.index();
                if i < meters.len() {
                    meters[i].accumulate(state, SimDuration::from_nanos(nanos));
                }
            }
        }
        meters.iter().map(EnergyMeter::total_joules).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LedgerParams {
        LedgerParams {
            nodes: 3,
            intervals: 2,
            beacon_nanos: 250_000_000,
        }
    }

    #[test]
    fn recording_within_capacity_never_reallocates() {
        let mut l = Ledger::new(params());
        let ptr = l.events.as_ptr();
        for k in 0..2u64 {
            let t = SimTime::from_millis(250 * k);
            for i in 0..3 {
                let id = NodeId::new(i);
                l.record_event(t, id, EventKind::AtimBroadcast);
                l.record_span(t, id, PowerState::Awake, SimDuration::from_millis(50));
                l.record_span(t, id, PowerState::Sleep, SimDuration::from_millis(200));
            }
            l.end_interval();
        }
        assert_eq!(l.events.as_ptr(), ptr, "pre-sized buffer must be reused");
        assert_eq!(l.dropped(), 0);
        let r = l.into_report();
        assert_eq!(r.intervals(), 2);
        assert_eq!(r.events().len(), 18);
        // awake_ns column: 3 nodes × 50 ms each interval.
        assert_eq!(r.series().column(0), vec![150e6, 150e6]);
    }

    #[test]
    fn interval_budget_overflow_is_counted_not_grown() {
        let mut l = Ledger::new(params());
        let budget = l.cap_per_interval;
        let cap_before = l.events.capacity();
        for _ in 0..budget + 5 {
            l.record_event(SimTime::ZERO, NodeId::new(0), EventKind::AtimDeferred);
        }
        assert_eq!(l.dropped(), 5);
        assert_eq!(l.len(), budget);
        assert_eq!(l.events.capacity(), cap_before);
        // Spans still land on the reserved lane after overflow.
        l.record_span(
            SimTime::ZERO,
            NodeId::new(0),
            PowerState::Off,
            SimDuration::from_millis(250),
        );
        assert_eq!(l.len(), budget + 1);
    }

    #[test]
    fn report_events_are_sorted_into_a_strict_total_order() {
        let mut l = Ledger::new(params());
        // Record deliberately out of (at, node) order within an interval:
        // spans land at the interval start after later-timestamped events.
        let t = SimTime::ZERO;
        l.record_event(
            t + SimDuration::from_millis(60),
            NodeId::new(2),
            EventKind::Airtime { nanos: 7 },
        );
        l.record_span(t, NodeId::new(1), PowerState::Awake, SimDuration::from_millis(50));
        l.record_span(t, NodeId::new(0), PowerState::Off, SimDuration::from_millis(250));
        l.end_interval();
        let r = l.into_report();
        let keys: Vec<_> = r.events().iter().map(Event::key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "events must come out ordered");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "(at, node, seq) must be strict"
        );
        assert_eq!(r.events()[0].node, NodeId::new(0), "node 0's span first");
    }

    #[test]
    fn replay_matches_a_mirror_meter_bit_for_bit() {
        let model = EnergyModel::wavelan_ii();
        let mut l = Ledger::new(params());
        let mut mirror: Vec<EnergyMeter> = (0..3).map(|_| EnergyMeter::new(model)).collect();
        // Irregular durations exercise f64 accumulation order.
        let durs = [3_333_333u64, 77_777_777, 250_000_000, 1, 199_999_999];
        // The mirror's totals at the 750 ms boundary (after k = 2).
        let mut at_750ms = Vec::new();
        for (k, &d) in durs.iter().enumerate() {
            let t = SimTime::from_millis(250 * k as u64);
            for (i, m) in mirror.iter_mut().enumerate() {
                let id = NodeId::new(i as u32);
                let dur = SimDuration::from_nanos(d + i as u64);
                let state = if k % 2 == 0 {
                    PowerState::Awake
                } else {
                    PowerState::Sleep
                };
                l.record_span(t, id, state, dur);
                m.accumulate(state, dur);
            }
            if k == 2 {
                at_750ms = mirror.iter().map(EnergyMeter::total_joules).collect();
            }
        }
        let report = l.into_report();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let whole: Vec<f64> = mirror.iter().map(EnergyMeter::total_joules).collect();
        assert_eq!(bits(&report.replay_energy(model, SimTime::MAX)), bits(&whole));
        assert_eq!(
            bits(&report.replay_energy(model, SimTime::from_millis(750))),
            bits(&at_750ms)
        );
    }

    #[test]
    fn network_node_is_one_past_the_last_real_node() {
        let l = Ledger::new(params());
        assert_eq!(l.network_node(), NodeId::new(3));
    }
}
