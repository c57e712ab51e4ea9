//! The benchmark's workloads: each one is a `SimConfig` (or a sweep
//! spec) generated from the benchmark seed, chosen to load a different
//! set of simulator layers. `benchmark/README.md` records why each
//! exists and which layers it loads.

use rcast_core::{Area, Scheme, SimConfig};
use rcast_engine::rng::StreamRng;
use rcast_engine::SimDuration;
use rcast_sweep::{preset, Pairing, SweepCell, SweepSpec};

/// Worker threads the campaign workload runs on.
pub const CAMPAIGN_WORKERS: usize = 2;

/// A benchmark workload. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 600 moving nodes, 30 light flows: RREQ floods and broadcast
    /// receive dominate.
    Mobile600,
    /// 150 stationary nodes, 50 flows at the paper's top rate: unicast
    /// forwarding and overhearing through loaded MAC queues.
    StaticLoaded150,
    /// 1200 moving nodes, 2 trickle flows: routing is nearly idle, so
    /// the per-node layers carry the time.
    Idle1200,
    /// The `fig7` preset at paper scale through the sweep engine.
    CampaignFig7,
}

/// What the mobility layer must show on a workload's replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Motion {
    /// Links must change during the run.
    Moving,
    /// No link may change after interval 0.
    Stationary,
    /// No requirement (the campaign mixes both).
    Mixed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Mobile600,
        Workload::StaticLoaded150,
        Workload::Idle1200,
        Workload::CampaignFig7,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mobile600 => "mobile-600",
            Workload::StaticLoaded150 => "static-loaded-150",
            Workload::Idle1200 => "idle-1200",
            Workload::CampaignFig7 => "campaign-fig7",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the sweep-engine workload.
    pub fn is_campaign(self) -> bool {
        self == Workload::CampaignFig7
    }

    /// The mobility requirement the workload's self-check enforces.
    pub fn motion(self) -> Motion {
        match self {
            Workload::Mobile600 | Workload::Idle1200 => Motion::Moving,
            Workload::StaticLoaded150 => Motion::Stationary,
            Workload::CampaignFig7 => Motion::Mixed,
        }
    }

    /// Seeds a single-run invocation runs in each pass; every one of
    /// them is replayed in every pass. The campaign runs one seed.
    pub fn seeds_per_invocation(self) -> u64 {
        match self {
            Workload::Mobile600 => 5,
            Workload::StaticLoaded150 => 16,
            Workload::Idle1200 => 4,
            Workload::CampaignFig7 => 1,
        }
    }

    /// The single-run configuration for `seed`. For the campaign this is
    /// its base cell (Rcast, 0.4 pkt/s, pause 600 s) with the seed that
    /// cell's run draws, the run the layer drivers and the ledger run
    /// replay.
    pub fn config(self, seed: u64) -> SimConfig {
        let cfg = match self {
            Workload::Mobile600 => single(600, (3600.0, 720.0), 30, 0.4, 0.0, 30),
            Workload::StaticLoaded150 => {
                // The pause outlasts the run, so no node ever leaves its
                // start point (ns-2 setdest pauses before the first trip).
                single(150, (1800.0, 360.0), 50, 2.0, 2.0 * 100.0, 100)
            }
            Workload::Idle1200 => single(1200, (5091.0, 1018.0), 2, 0.05, 0.0, 100),
            Workload::CampaignFig7 => {
                let spec = Workload::campaign_spec(seed);
                let cell = SweepCell {
                    scheme: spec.base.scheme,
                    rate_pps: spec.base.traffic.rate_pps,
                    pause_s: spec.base.waypoint.pause_secs,
                    nodes: spec.base.nodes,
                    fault_index: 0,
                };
                return SimConfig {
                    seed: cell.run_seed(seed, spec.pairing),
                    ..cell.config(&spec)
                };
            }
        };
        SimConfig { seed, ..cfg }
    }

    /// The campaign's sweep spec: the `fig7` preset with its seed axis
    /// cut to `seed`, and independent pairing, so that each of its 24
    /// runs draws its own seed from `seed`. Under the preset's common
    /// pairing all 24 runs replay one scenario, and the campaign's cost
    /// moves with that one scenario by about ±13 % from seed to seed.
    ///
    /// # Panics
    ///
    /// Panics if the `fig7` preset is missing (a build of the wrong
    /// simulator).
    pub fn campaign_spec(seed: u64) -> SweepSpec {
        let mut spec = preset("fig7").expect("the fig7 preset is built in");
        spec.seeds = vec![seed];
        spec.pairing = Pairing::Independent;
        spec
    }
}

fn single(
    nodes: u32,
    (width, height): (f64, f64),
    flows: u32,
    rate_pps: f64,
    pause_secs: f64,
    duration_secs: u64,
) -> SimConfig {
    let mut cfg = SimConfig::paper(Scheme::Rcast, 0, rate_pps, pause_secs);
    cfg.nodes = nodes;
    cfg.area = Area::new(width, height);
    cfg.traffic.flows = flows;
    cfg.duration = SimDuration::from_secs(duration_secs);
    cfg
}

/// The `i`-th seed an invocation runs: the benchmark seed itself for
/// `i = 0`, then a stream split off it per index.
pub fn derived_seed(seed: u64, i: u64) -> u64 {
    if i == 0 {
        seed
    } else {
        StreamRng::from_seed(seed)
            .child_indexed("bench-round", i)
            .next_u64()
    }
}
