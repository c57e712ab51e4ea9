//! # RandomCast (Rcast)
//!
//! A production-quality Rust reproduction of *Lim, Yu & Das, "Rcast: A
//! Randomized Communication Scheme for Improving Energy Efficiency in
//! MANETs"* (ICDCS 2005), including every substrate the paper depends
//! on: a deterministic discrete-event engine, random-waypoint mobility,
//! a two-ray-ground radio with the WaveLAN-II energy profile, an IEEE
//! 802.11 DCF + PSM MAC with the Rcast ATIM-subtype extension, a full
//! DSR implementation, CBR traffic generation, and the evaluation
//! metrics of the paper's Section 4.
//!
//! This crate is the facade: it re-exports the public API of every
//! member crate under stable module names.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`engine`] | `rcast-engine` | simulation clock, event queue, RNG streams |
//! | [`mobility`] | `rcast-mobility` | random waypoint, neighbor tables |
//! | [`radio`] | `rcast-radio` | propagation, PHY timing, energy meters |
//! | [`mac`] | `rcast-mac` | 802.11 PSM, ATIM windows, overhearing levels |
//! | [`dsr`] | `rcast-dsr` | route cache, RREQ/RREP/RERR, salvaging |
//! | [`traffic`] | `rcast-traffic` | CBR flows and schedules |
//! | [`metrics`] | `rcast-metrics` | PDR, delay, energy, role numbers |
//! | [`core`] | `rcast-core` | the Rcast scheme + the full simulation |
//!
//! The most common entry points are re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use randomcast::{run_sim, Scheme, SimConfig};
//!
//! // A scaled-down version of the paper's testbed, Rcast scheme.
//! let report = run_sim(SimConfig::smoke(Scheme::Rcast, 42))?;
//! println!("{}", report.summary());
//! assert!(report.delivery.delivery_ratio() > 0.5);
//! # Ok::<(), String>(())
//! ```
//!
//! Reproducing a paper data point (Fig. 7, R_pkt = 0.4, mobile):
//!
//! ```no_run
//! use randomcast::{run_sim, Scheme, SimConfig};
//!
//! for scheme in Scheme::PAPER_FIGURES {
//!     let report = run_sim(SimConfig::paper(scheme, 1, 0.4, 600.0))?;
//!     println!("{:>7}: {:.0} J", scheme.label(), report.energy.total_joules());
//! }
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;

/// Discrete-event core: clock, event queue, deterministic RNG streams.
pub mod engine {
    pub use rcast_engine::*;
}

/// Random-waypoint mobility, geometry and neighbor indexing.
pub mod mobility {
    pub use rcast_mobility::*;
}

/// Propagation, PHY timing, power states and energy accounting.
pub mod radio {
    pub use rcast_radio::*;
}

/// IEEE 802.11 DCF + PSM MAC with the Rcast overhearing extension.
pub mod mac {
    pub use rcast_mac::*;
}

/// Dynamic Source Routing.
pub mod dsr {
    pub use rcast_dsr::*;
}

/// Ad hoc On-demand Distance Vector routing (the paper's contrast
/// protocol).
pub mod aodv {
    pub use rcast_aodv::*;
}

/// CBR workload generation.
pub mod traffic {
    pub use rcast_traffic::*;
}

/// Evaluation metrics.
pub mod metrics {
    pub use rcast_metrics::*;
}

/// The Rcast scheme, the compared baselines, and the simulation runner.
pub mod core {
    pub use rcast_core::*;
}

/// Deterministic cross-layer observability: event ledger, energy audit,
/// `rcast-trace/v1` export.
pub mod obs {
    pub use rcast_obs::*;
}

/// Sweep campaigns: declarative run matrices over scheme × rate × pause
/// × nodes × faults, deterministic parallel execution, `rcast-sweep/v1`
/// artifacts.
pub mod sweep {
    pub use rcast_sweep::*;
}

pub use rcast_core::{
    parse_scenario, run_seeds, run_seeds_parallel, run_sim, write_scenario,
    AggregateReport,
    FaultCounters, FaultEvent, FaultPlan, FaultsConfig, OdpmConfig, OverhearFactors, PacketTrace,
    RcastDecider, RoutingKind, Scheme, SimConfig, SimReport, Simulation, TraceEvent,
};
pub use rcast_engine::{NodeId, SimDuration, SimTime};
pub use rcast_obs::{render_jsonl, ObsReport, TraceFilter};
pub use rcast_sweep::{run_spec, SweepReport, SweepSpec};
