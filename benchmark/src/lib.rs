//! Layer-separating benchmark for the RandomCast simulator.
//!
//! The harness drives the simulator only through public APIs
//! (`Simulation::new` / `step_interval` / `finish`, `rcast_sweep::run_spec`
//! and each layer's own entry points). An untraced invocation times
//! whole runs for the end-to-end metrics; a traced invocation records
//! spans around the harness's calls into each layer, runs the layer
//! drivers of [`replay`] on the workload's own inputs, and reports the
//! per-layer metrics. `benchmark/README.md` lists every workload and
//! metric with the end-to-end figure it should move.

#![forbid(unsafe_code)]

pub mod checks;
pub mod measure;
pub mod replay;
pub mod spans;
pub mod workloads;

/// `num / den`, or 0 when nothing was counted.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
