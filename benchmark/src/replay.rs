//! Layer drivers: harness code that calls one layer's public functions
//! on a workload's own inputs, so each layer's cost can be timed apart
//! from the rest of the simulator.
//!
//! [`replay`] rebuilds a run's mobility exactly as `Simulation` does
//! when faults are off — `MobilityField::random_waypoint` on the seed's
//! `"mobility"` stream, then per interval `snapshot_into`,
//! `NeighborIndex::advance` and `link_changes_since` over the lists that
//! were not carried forward — and optionally drives two more layers on
//! the replayed neighbor tables:
//!
//! * **MAC**: each flow enqueues frames at its own rate toward the
//!   neighbor of its source nearest its destination, and
//!   `MacLayer::run_interval_into` resolves every interval with
//!   `AllPowerSave { overhear_randomized: true }`.
//! * **DSR** (through `rcast_core::RouterNode`): on evenly spaced
//!   snapshots every router ticks, every flow originates the packets
//!   its schedule generates before the next snapshot (so the driver
//!   sees the workload's own mix of floods and data), and every broadcast is delivered to all current neighbors through
//!   `receive_ref` and every unicast to its next hop through `receive`
//!   (or reported back with `link_failure` when the hop is out of
//!   range) until the network is quiet.

use std::collections::VecDeque;
use std::time::Instant;

use rcast_bench::alloc_probe;
use rcast_core::{NetPacket, RouteAction, RouterNode, SimConfig};
use rcast_engine::rng::StreamRng;
use rcast_engine::{NodeId, SimTime};
use rcast_mac::{AllPowerSave, IntervalOutcome, MacFrame, MacLayer, OverhearingLevel};
use rcast_mobility::{MobilityField, NeighborIndex, NeighborTable, Snapshot};
use rcast_radio::Phy;
use rcast_traffic::CbrFlow;

use crate::ratio;
use crate::spans::{timed, Tracer};

/// Snapshots the DSR driver floods on, spread evenly over the run.
pub const DSR_SNAPSHOTS: u64 = 8;

/// Upper bound on actions one DSR snapshot may process before the
/// driver declares the network unable to go quiet.
const DSR_ACTION_LIMIT: u64 = 50_000_000;

/// Mobility and neighbor-upkeep work over a replayed run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MobilityStats {
    /// Nodes in the network.
    pub nodes: u64,
    /// Intervals advanced (every interval after the first).
    pub advanced: u64,
    /// Time in `snapshot_into`, ns.
    pub snapshot_ns: u64,
    /// Time in `NeighborIndex::advance`, ns.
    pub advance_ns: u64,
    /// Time in the churn scan, ns.
    pub churn_ns: u64,
    /// Neighbor lists recomputed from geometry (not carried forward).
    pub refilled_lists: u64,
    /// Link changes summed over nodes and intervals.
    pub link_changes: u64,
    /// Mean degree summed over every interval (divide by intervals).
    pub degree_sum: f64,
    /// Intervals replayed, the first included.
    pub intervals: u64,
}

impl MobilityStats {
    /// Mean time per advanced interval of `ns`, microseconds.
    pub fn per_interval_us(&self, ns: u64) -> f64 {
        ratio(ns as f64 / 1e3, self.advanced as f64)
    }

    /// Replayed mobility time per advanced interval, milliseconds.
    pub fn step_ms(&self) -> f64 {
        self.per_interval_us(self.snapshot_ns + self.advance_ns + self.churn_ns) / 1e3
    }

    /// Share of neighbor lists recomputed rather than carried forward.
    pub fn refill_share(&self) -> f64 {
        ratio(
            self.refilled_lists as f64,
            (self.nodes * self.advanced) as f64,
        )
    }

    /// Mean node degree over the run.
    pub fn mean_degree(&self) -> f64 {
        ratio(self.degree_sum, self.intervals as f64)
    }
}

/// What the DSR driver did and how long its calls took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DsrStats {
    /// `originate` calls.
    pub originates: u64,
    /// Time in `originate`, ns.
    pub originate_ns: u64,
    /// RREQ deliveries through `receive_ref`.
    pub rreq_receives: u64,
    /// Time in RREQ `receive_ref` calls, ns.
    pub rreq_ns: u64,
    /// RREQ receives that neither rebroadcast nor replied (duplicates,
    /// loops and exhausted TTLs).
    pub rreq_suppressed: u64,
    /// Other broadcast deliveries through `receive_ref`.
    pub other_broadcast_receives: u64,
    /// Unicast deliveries through `receive`.
    pub unicast_receives: u64,
    /// Time in unicast `receive` calls, ns.
    pub unicast_ns: u64,
    /// Heap allocations made inside `receive` / `receive_ref`.
    pub receive_allocs: u64,
}

impl DsrStats {
    /// All routing receives.
    pub fn receives(&self) -> u64 {
        self.rreq_receives + self.other_broadcast_receives + self.unicast_receives
    }
}

/// What the MAC driver did and how long resolution took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MacStats {
    /// Intervals resolved.
    pub intervals: u64,
    /// Time in `run_interval_into`, ns.
    pub interval_ns: u64,
}

/// The result of one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    /// Mobility and neighbor upkeep.
    pub mobility: MobilityStats,
    /// The DSR driver, when it ran.
    pub dsr: Option<DsrStats>,
    /// The MAC driver, when it ran.
    pub mac: Option<MacStats>,
}

/// Replays the mobility of `cfg` (seeded by `cfg.seed`, as
/// `Simulation::new` is); with `drivers`, also drives
/// the MAC and DSR layers on the replayed tables. With a tracer, every
/// layer call is recorded as a span under one `replay` root.
///
/// # Errors
///
/// Returns an error when the DSR network fails to go quiet.
pub fn replay(
    cfg: &SimConfig,
    drivers: bool,
    mut tracer: Option<&mut Tracer>,
) -> Result<Replay, String> {
    let root_span = tracer.as_deref_mut().map(|t| t.enter("replay"));
    let root = StreamRng::from_seed(cfg.seed);
    let n = cfg.nodes as usize;
    let bi = cfg.mac.beacon_interval;
    let mut field =
        MobilityField::random_waypoint(cfg.nodes, cfg.area, cfg.waypoint, root.child("mobility"));
    let mut snap = field.snapshot(SimTime::ZERO);
    let mut index = NeighborIndex::new(&snap, cfg.range_m);
    let flows = cfg.traffic.generate(cfg.nodes, root.child("traffic"));
    let intervals = cfg.beacon_intervals();
    let dsr_every = (intervals / DSR_SNAPSHOTS).max(1);
    let mut mac = drivers.then(|| MacDriver::new(cfg, &flows, root.child("mac")));
    let mut dsr = drivers.then(|| DsrDriver::new(cfg, &flows));
    let mut m = MobilityStats {
        nodes: n as u64,
        ..MobilityStats::default()
    };

    let mut run = || -> Result<(), String> {
        for k in 0..intervals {
            let t = SimTime::ZERO + bi * k;
            if k > 0 {
                let ((), ns) = timed(&mut tracer, "mobility.snapshot", || {
                    field.snapshot_into(t, &mut snap)
                });
                m.snapshot_ns += ns;
                let ((), ns) = timed(&mut tracer, "mobility.advance", || index.advance(&snap));
                m.advance_ns += ns;
                let ((), ns) = timed(&mut tracer, "mobility.churn", || {
                    for i in 0..n {
                        let id = NodeId::new(i as u32);
                        if !index.carried_forward(id) {
                            m.refilled_lists += 1;
                            m.link_changes +=
                                index.current().link_changes_since(index.previous(), id) as u64;
                        }
                    }
                });
                m.churn_ns += ns;
                m.advanced += 1;
            }
            let nt = index.current();
            m.degree_sum += nt.mean_degree();
            m.intervals += 1;
            if let Some(d) = mac.as_mut() {
                d.step(t, &snap, nt, &mut tracer);
            }
            if let Some(d) = dsr.as_mut().filter(|_| k % dsr_every == 0) {
                let span = tracer.as_deref_mut().map(|tr| tr.enter("dsr.snapshot"));
                let until = SimTime::ZERO + bi * (k + dsr_every).min(intervals);
                let out = d.step(t, until, nt);
                if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
                    tr.exit(id);
                }
                out?;
            }
        }
        Ok(())
    };
    let result = run();
    if let (Some(tr), Some(id)) = (tracer, root_span) {
        tr.exit(id);
    }
    result?;
    Ok(Replay {
        mobility: m,
        dsr: dsr.map(|d| d.stats),
        mac: mac.map(|d| d.stats),
    })
}

/// The neighbor of `src` nearest `dst` (or `dst` itself when in range).
fn next_hop(src: NodeId, dst: NodeId, snap: &Snapshot, nt: &NeighborTable) -> Option<NodeId> {
    let target = snap.position(dst);
    nt.neighbors(src).iter().copied().min_by(|&a, &b| {
        let da = snap.position(a).distance_squared_to(target);
        let db = snap.position(b).distance_squared_to(target);
        da.total_cmp(&db).then(a.cmp(&b))
    })
}

struct MacDriver<'f> {
    mac: MacLayer<u32>,
    out: IntervalOutcome<u32>,
    flows: &'f [CbrFlow],
    /// Frames each flow owes, carried between intervals.
    credit: Vec<f64>,
    stats: MacStats,
}

impl<'f> MacDriver<'f> {
    fn new(cfg: &SimConfig, flows: &'f [CbrFlow], rng: StreamRng) -> Self {
        MacDriver {
            mac: MacLayer::new(
                cfg.nodes as usize,
                cfg.mac,
                Phy::new(cfg.data_rate_bps),
                rng,
            ),
            out: IntervalOutcome::default(),
            flows,
            credit: vec![0.0; flows.len()],
            stats: MacStats::default(),
        }
    }

    fn step(
        &mut self,
        t: SimTime,
        snap: &Snapshot,
        nt: &NeighborTable,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let bi = self.mac.config().beacon_interval;
        for (f, credit) in self.flows.iter().zip(&mut self.credit) {
            if f.start > t {
                continue;
            }
            *credit += bi.as_secs_f64() / f.interval.as_secs_f64();
            while *credit >= 1.0 {
                *credit -= 1.0;
                if let Some(hop) = next_hop(f.src, f.dst, snap, nt) {
                    let frame =
                        MacFrame::unicast(hop, OverhearingLevel::Randomized, f.packet_bytes, f.id);
                    // A full queue is the MAC's own outcome to count.
                    let _ = self.mac.enqueue(f.src, frame, t);
                }
            }
        }
        let (mac, out) = (&mut self.mac, &mut self.out);
        let mut policy = AllPowerSave {
            overhear_randomized: true,
        };
        let ((), ns) = timed(tracer, "mac.interval", || {
            mac.run_interval_into(t, nt, &mut policy, out)
        });
        self.stats.interval_ns += ns;
        self.stats.intervals += 1;
    }
}

struct DsrDriver<'f> {
    routers: Vec<RouterNode>,
    flows: &'f [CbrFlow],
    next_seq: Vec<u64>,
    packet_bytes: usize,
    queue: VecDeque<(NodeId, RouteAction)>,
    /// Per-recipient results of one broadcast fan-out, reused.
    fanout: Vec<Vec<RouteAction>>,
    stats: DsrStats,
}

impl<'f> DsrDriver<'f> {
    fn new(cfg: &SimConfig, flows: &'f [CbrFlow]) -> Self {
        DsrDriver {
            routers: (0..cfg.nodes)
                .map(|i| RouterNode::new(cfg.routing, NodeId::new(i), cfg.dsr, cfg.aodv))
                .collect(),
            flows,
            next_seq: vec![0; flows.len()],
            packet_bytes: cfg.traffic.packet_bytes,
            queue: VecDeque::new(),
            fanout: Vec::with_capacity(cfg.nodes as usize),
            stats: DsrStats::default(),
        }
    }

    fn push_all(&mut self, from: NodeId, actions: Vec<RouteAction>) {
        self.queue.extend(actions.into_iter().map(|a| (from, a)));
    }

    /// One snapshot at `t`: ticks, then every packet generated before
    /// `until`, then delivery until the network is quiet.
    fn step(&mut self, t: SimTime, until: SimTime, nt: &NeighborTable) -> Result<(), String> {
        for i in 0..self.routers.len() {
            let actions = self.routers[i].tick(t);
            self.push_all(NodeId::new(i as u32), actions);
        }
        for (f, seq) in self.flows.iter().zip(&mut self.next_seq) {
            let router = &mut self.routers[f.src.index()];
            while *seq < f.packets_before(until) {
                let start = Instant::now();
                let actions = router.originate(f.id, *seq, f.dst, self.packet_bytes, t);
                self.stats.originate_ns += start.elapsed().as_nanos() as u64;
                self.stats.originates += 1;
                *seq += 1;
                self.queue.extend(actions.into_iter().map(|a| (f.src, a)));
            }
        }
        let mut processed = 0u64;
        while let Some((from, action)) = self.queue.pop_front() {
            processed += 1;
            if processed > DSR_ACTION_LIMIT {
                return Err(format!(
                    "DSR driver: network not quiet after {DSR_ACTION_LIMIT} actions"
                ));
            }
            match action {
                RouteAction::Broadcast { packet } => self.broadcast(from, &packet, t, nt),
                RouteAction::Unicast { next_hop, packet } => {
                    if nt.are_neighbors(from, next_hop) {
                        let router = &mut self.routers[next_hop.index()];
                        let a0 = alloc_probe::allocations();
                        let start = Instant::now();
                        let actions = router.receive(packet, from, t);
                        self.stats.unicast_ns += start.elapsed().as_nanos() as u64;
                        self.stats.receive_allocs += alloc_probe::allocations() - a0;
                        self.stats.unicast_receives += 1;
                        self.push_all(next_hop, actions);
                    } else {
                        let actions = self.routers[from.index()].link_failure(next_hop, packet, t);
                        self.push_all(from, actions);
                    }
                }
                RouteAction::Delivered(_) | RouteAction::Dropped(_) => {}
            }
        }
        Ok(())
    }

    /// Delivers one broadcast to every current neighbor of `from`; the
    /// fan-out is timed as one batch so the timer cost stays out of the
    /// per-receive figure.
    fn broadcast(&mut self, from: NodeId, packet: &NetPacket, t: SimTime, nt: &NeighborTable) {
        let recipients = nt.neighbors(from);
        let mut fanout = std::mem::take(&mut self.fanout);
        let a0 = alloc_probe::allocations();
        let start = Instant::now();
        for &r in recipients {
            fanout.push(self.routers[r.index()].receive_ref(packet, from, t));
        }
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.receive_allocs += alloc_probe::allocations() - a0;
        let is_rreq = packet.kind() == "RREQ";
        if is_rreq {
            self.stats.rreq_receives += recipients.len() as u64;
            self.stats.rreq_ns += ns;
        } else {
            self.stats.other_broadcast_receives += recipients.len() as u64;
        }
        for (&r, actions) in recipients.iter().zip(fanout.drain(..)) {
            if is_rreq && !actions.iter().any(answers_rreq) {
                self.stats.rreq_suppressed += 1;
            }
            self.push_all(r, actions);
        }
        self.fanout = fanout;
    }
}

/// `true` for the actions an RREQ receive takes when it does not
/// suppress the request: a rebroadcast or a route reply.
fn answers_rreq(a: &RouteAction) -> bool {
    match a {
        RouteAction::Broadcast { .. } => true,
        RouteAction::Unicast { packet, .. } => packet.kind() == "RREP",
        _ => false,
    }
}
