//! Measurement. An untraced invocation times whole runs and reports the
//! end-to-end metrics; a traced one records spans around every layer
//! call, runs the layer drivers and the ledger run, and reports the
//! per-layer metrics.
//!
//! An invocation runs a fixed set of seeds derived from `--seed` in
//! passes: every pass runs each seed once, and a new pass starts only
//! while the previous pass's length still fits in what is left of
//! `--seconds` (a single-run invocation always makes at least two), so
//! an invocation ends near its budget without overrunning it by a whole
//! pass. A run's
//! replays in later passes are its twins: untraced, they must give
//! bit-equal figure metrics; traced, every other pass carries spans and
//! its reports must equal the untraced ones. The campaign runs
//! `run_spec` twice on two workers, and after each campaign steps half
//! of its runs on one thread, each of which must give its cell's figure
//! metrics bit for bit; further passes over those runs follow while the
//! budget lasts.
//!
//! Timings are pooled over every untraced run, so each figure averages
//! the whole budget. On a shared host, other tenants slow whole seconds
//! of a run at a time; an average over the budget varies less from one
//! invocation to the next than the fastest replay does. The seed sets
//! are sized so that seed-to-seed cost differences average out too.

use std::time::{Duration, Instant};

use rcast_bench::alloc_probe;
use rcast_core::{Scheme, SimConfig, SimReport, Simulation, FIGURE_METRICS};
use rcast_sweep::{run_spec, SweepSpec};

use crate::checks::{check_figures, check_report, fingerprint, same_bits, AWAKE_W, DOZE_W};
use crate::ratio;
use crate::replay::{replay, DsrStats, MacStats, Replay};
use crate::spans::{timed, Tracer};
use crate::workloads::{derived_seed, Motion, Workload, CAMPAIGN_WORKERS};

/// Passes a single-run invocation makes, whatever `--seconds` says: a
/// seed's first run and at least one twin.
const MIN_PASSES: u32 = 2;
/// Simulation set-ups timed next to each stepped run. The mean of a
/// block is one set-up sample; `setup_s` is the median of the samples.
const SETUP_BLOCK: usize = 3;
/// Campaign set-ups (preset, `normalized`, `expand`) timed per block.
const CAMPAIGN_SETUP_BLOCK: usize = 50;
/// The first `1 / WARMUP_DIVISOR` of a run's intervals are warm-up and
/// excluded from `sim.allocs_per_interval`.
const WARMUP_DIVISOR: u64 = 10;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one invocation measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that errored or failed an output check.
    pub failed: u64,
    /// Why runs failed, and failed workload self-checks.
    pub problems: Vec<String>,
    /// `true` when the workload no longer exercises what it claims.
    pub self_check_failed: bool,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable context (sample counts, run counts).
    pub notes: Vec<String>,
    /// The traced invocation's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// `true` when every run passed and every self-check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.self_check_failed && self.problems.is_empty()
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn fail_run(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    fn self_check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.self_check_failed = true;
            self.problems.push(format!("self-check: {}", why()));
        }
    }
}

/// Timings of one stepped run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTiming {
    /// Whole run: set-up, every interval, finish. Nanoseconds.
    pub wall_ns: u64,
    /// `Simulation::new`, ns.
    pub new_ns: u64,
    /// Every `step_interval`, summed, ns.
    pub step_ns: u64,
    /// `finish`, ns.
    pub finish_ns: u64,
    /// Intervals stepped.
    pub intervals: u64,
    /// Heap allocations inside `step_interval` after warm-up.
    pub steady_allocs: u64,
    /// Intervals stepped after warm-up.
    pub steady_intervals: u64,
    /// Simulated seconds.
    pub sim_s: f64,
}

/// Runs `cfg` through `Simulation::new`, `step_interval` and `finish`,
/// timing each call (as spans under one `sim.run` root when traced) and
/// appending each interval's wall time in milliseconds to `interval_ms`.
///
/// # Errors
///
/// Returns the configuration error, or an early end of the run.
pub fn run_stepped(
    cfg: SimConfig,
    mut tracer: Option<&mut Tracer>,
    interval_ms: &mut Vec<f64>,
) -> Result<(SimReport, RunTiming), String> {
    let root = tracer.as_deref_mut().map(|t| t.enter("sim.run"));
    let start = Instant::now();
    let intervals = cfg.beacon_intervals();
    let warm = intervals / WARMUP_DIVISOR;
    let mut timing = RunTiming {
        sim_s: cfg.duration.as_secs_f64(),
        ..RunTiming::default()
    };
    let result = (|| {
        let (sim, ns) = timed(&mut tracer, "sim.new", || Simulation::new(cfg));
        timing.new_ns = ns;
        let mut sim = sim?;
        for k in 0..intervals {
            let a0 = alloc_probe::allocations();
            let (stepped, ns) = timed(&mut tracer, "sim.step", || sim.step_interval());
            let allocs = alloc_probe::allocations() - a0;
            if !stepped {
                return Err(format!("run ended after {k} of {intervals} intervals"));
            }
            interval_ms.push(ns as f64 / 1e6);
            timing.step_ns += ns;
            timing.intervals += 1;
            if k >= warm {
                timing.steady_allocs += allocs;
                timing.steady_intervals += 1;
            }
        }
        let (report, ns) = timed(&mut tracer, "sim.finish", || sim.finish());
        timing.finish_ns = ns;
        Ok(report)
    })();
    timing.wall_ns = start.elapsed().as_nanos() as u64;
    if let (Some(t), Some(id)) = (tracer, root) {
        t.exit(id);
    }
    result.map(|r| (r, timing))
}

/// Runs one workload for `seconds`, traced or not. See the
/// [module docs](self).
pub fn run_workload(w: Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let window = Duration::from_secs(seconds);
    let mut out = if w.is_campaign() {
        campaign(seed, window, trace)
    } else {
        single(w, seed, window, trace)
    };
    if !trace {
        out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    if let Some(t) = &out.tracer {
        if let Err(e) = crate::spans::validate(t.spans()) {
            out.problems
                .push(format!("span recording is malformed: {e}"));
        }
    }
    out
}

/// Median of `v` (the mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile of `v` by the nearest-rank method.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The mean of `reps` set-ups, seconds: one `setup_s` sample. `setup`
/// times its own set-up so it can keep input cloning and teardown out
/// of the figure.
fn setup_block(reps: usize, mut setup: impl FnMut() -> Duration) -> f64 {
    let total: f64 = (0..reps).map(|_| setup().as_secs_f64()).sum();
    total / reps as f64
}

/// Times `SETUP_BLOCK` simulation set-ups of `cfg`.
fn sim_setup_block(cfg: &SimConfig) -> f64 {
    setup_block(SETUP_BLOCK, || {
        let cfg = cfg.clone();
        let start = Instant::now();
        let sim = std::hint::black_box(Simulation::new(cfg));
        let elapsed = start.elapsed();
        drop(sim);
        elapsed
    })
}

/// Sums of the runs a metric aggregates over.
#[derive(Debug, Default)]
struct Totals {
    runs: u64,
    wall_ns: u64,
    step_ns: u64,
    sim_s: f64,
    steady_allocs: u64,
    steady_intervals: u64,
    intervals: u64,
    slowest_ns: u64,
    new_ms: Vec<f64>,
    finish_ms: Vec<f64>,
}

impl Totals {
    fn add(&mut self, t: &RunTiming) {
        self.runs += 1;
        self.wall_ns += t.wall_ns;
        self.step_ns += t.step_ns;
        self.sim_s += t.sim_s;
        self.steady_allocs += t.steady_allocs;
        self.steady_intervals += t.steady_intervals;
        self.intervals += t.intervals;
        self.slowest_ns = self.slowest_ns.max(t.wall_ns);
        self.new_ms.push(t.new_ns as f64 / 1e6);
        self.finish_ms.push(t.finish_ns as f64 / 1e6);
    }

    fn step_ms(&self) -> f64 {
        ratio(self.step_ns as f64 / 1e6, self.intervals as f64)
    }
}

/// The stepped runs of one invocation: the sums the metrics take, the
/// pooled untraced interval times, and each run's first report, which
/// its replays are checked against.
#[derive(Debug, Default)]
struct Stepper {
    /// Every untraced `step_interval`, ms.
    interval_ms: Vec<f64>,
    /// Every untraced run.
    untraced: Totals,
    /// Every traced run.
    traced: Totals,
    /// Each run's first replay.
    first_pass: Totals,
    /// Each run's first report, by run index.
    firsts: Vec<Option<SimReport>>,
    /// `setup_s` samples.
    setup_samples: Vec<f64>,
}

impl Stepper {
    fn new(runs: usize) -> Stepper {
        Stepper {
            firsts: vec![None; runs],
            ..Stepper::default()
        }
    }

    /// Steps run `i` (`cfg`), traced or not, and checks it: the output
    /// checks, `check`'s own, and agreement with the run's first report
    /// (traced: the whole report; untraced: bit-equal figure metrics).
    /// Counts the run in `out`, labelling failures with `what`. Returns
    /// its timing, and whether it was the run's first, when it completed.
    fn step(
        &mut self,
        out: &mut Outcome,
        i: usize,
        cfg: &SimConfig,
        traced: bool,
        what: &str,
        check: impl FnOnce(&SimReport) -> Vec<String>,
    ) -> Option<(RunTiming, bool)> {
        let mut interval_ms = Vec::new();
        let tracer = if traced { out.tracer.as_mut() } else { None };
        out.attempted += 1;
        let (report, timing) = match run_stepped(cfg.clone(), tracer, &mut interval_ms) {
            Ok(r) => r,
            Err(e) => {
                out.fail_run(format!("{what}: {e}"));
                return None;
            }
        };
        let mut problems = check_report(cfg, &report);
        problems.extend(check(&report));
        let bytes = cfg.traffic.packet_bytes;
        match &self.firsts[i] {
            Some(f) if traced && fingerprint(f) != fingerprint(&report) => {
                problems.push("traced and untraced reports differ".into());
            }
            Some(f)
                if !traced
                    && !same_bits(&f.figure_metrics(bytes), &report.figure_metrics(bytes)) =>
            {
                problems.push("two runs of one seed gave different figure metrics".into());
            }
            _ => {}
        }
        if !problems.is_empty() {
            out.fail_run(format!("{what}: {}", problems.join("; ")));
        }
        if traced {
            self.traced.add(&timing);
        } else {
            self.untraced.add(&timing);
            self.interval_ms.extend(interval_ms);
        }
        let first = self.firsts[i].is_none();
        if first {
            self.first_pass.add(&timing);
            self.firsts[i] = Some(report);
        }
        Some((timing, first))
    }
}

/// The end-to-end metrics every untraced invocation reports (the
/// caller adds `peak_rss_mib`).
fn end_to_end(out: &mut Outcome, sim_s_per_wall_s: f64, s: &Stepper) {
    out.metric("sim_s_per_wall_s", sim_s_per_wall_s, "s/s");
    out.metric("interval_ms_p50", percentile(&s.interval_ms, 50.0), "ms");
    out.metric("interval_ms_p95", percentile(&s.interval_ms, 95.0), "ms");
    out.metric("setup_s", median(&s.setup_samples), "s");
    out.notes.push(format!(
        "interval percentiles over {} step_interval samples; setup_s the median of {} set-up samples",
        s.interval_ms.len(),
        s.setup_samples.len(),
    ));
}

/// The core-layer metrics of a traced invocation. `steady` holds the
/// untraced round-0 run(s) whose allocations are counted: a fixed set
/// per seed, so the count repeats exactly.
fn core_metrics(out: &mut Outcome, traced: &Totals, untraced_twins: &Totals, steady: &Totals) {
    out.metric("sim.new_ms", median(&traced.new_ms), "ms");
    out.metric("sim.step_ms", traced.step_ms(), "ms");
    out.metric("sim.finish_ms", median(&traced.finish_ms), "ms");
    out.metric(
        "sim.allocs_per_interval",
        ratio(steady.steady_allocs as f64, steady.steady_intervals as f64),
        "count",
    );
    // Both cover whole passes over the same runs, so their mean
    // intervals compare like for like.
    out.metric(
        "trace.overhead_ratio",
        ratio(traced.step_ms(), untraced_twins.step_ms()),
        "ratio",
    );
}

/// Mobility, DSR and MAC metrics: timings from the replay's drivers,
/// counts from `counts` (the run's own reports).
fn layer_metrics(out: &mut Outcome, rep: &Replay, step_ms: f64, counts: &SimReport) {
    let m = &rep.mobility;
    out.metric(
        "mobility.snapshot_us",
        m.per_interval_us(m.snapshot_ns),
        "us",
    );
    out.metric("mobility.advance_us", m.per_interval_us(m.advance_ns), "us");
    out.metric("mobility.churn_us", m.per_interval_us(m.churn_ns), "us");
    out.metric("mobility.refilled_lists", m.refilled_lists as f64, "count");
    out.metric("mobility.link_changes", m.link_changes as f64, "count");
    out.metric("mobility.mean_degree", m.mean_degree(), "count");
    out.metric("mobility.refill_share", m.refill_share(), "share");
    out.metric(
        "mobility.share_of_step",
        ratio(m.step_ms(), step_ms),
        "share",
    );

    let d = rep.dsr.unwrap_or_default();
    dsr_driver_metrics(out, &d);
    let c = &counts.dsr;
    out.metric("dsr.rreq_originated", c.rreq_originated as f64, "count");
    out.metric("dsr.rreq_forwarded", c.rreq_forwarded as f64, "count");
    out.metric("dsr.rrep_from_target", c.rrep_from_target as f64, "count");
    out.metric("dsr.rrep_from_cache", c.rrep_from_cache as f64, "count");
    out.metric("dsr.rerr_originated", c.rerr_originated as f64, "count");
    out.metric("dsr.data_forwarded", c.data_forwarded as f64, "count");
    out.metric("dsr.data_salvaged", c.data_salvaged as f64, "count");
    out.metric("dsr.data_dropped", c.data_dropped as f64, "count");
    out.metric(
        "dsr.discovery_yield",
        ratio(
            (c.rrep_from_target + c.rrep_from_cache) as f64,
            c.rreq_originated as f64,
        ),
        "ratio",
    );

    let mac: MacStats = rep.mac.unwrap_or_default();
    out.metric(
        "mac.interval_us",
        ratio(mac.interval_ns as f64 / 1e3, mac.intervals as f64),
        "us",
    );
    let k = &counts.mac;
    out.metric("mac.atim_unicast", k.atim_unicast as f64, "count");
    out.metric("mac.atim_broadcast", k.atim_broadcast as f64, "count");
    out.metric("mac.atim_deferred", k.atim_deferred as f64, "count");
    out.metric("mac.atim_no_ack", k.atim_no_ack as f64, "count");
    out.metric("mac.data_delivered", k.data_delivered as f64, "count");
    out.metric(
        "mac.broadcast_delivered",
        k.broadcast_delivered as f64,
        "count",
    );
    out.metric("mac.data_deferred", k.data_deferred as f64, "count");
    out.metric("mac.link_failures", k.link_failures as f64, "count");
    out.metric("mac.queue_drops", k.queue_drops as f64, "count");
    out.metric(
        "mac.delivery_yield",
        ratio(
            (k.data_delivered + k.broadcast_delivered) as f64,
            (k.atim_unicast + k.atim_broadcast) as f64,
        ),
        "ratio",
    );
}

fn dsr_driver_metrics(out: &mut Outcome, d: &DsrStats) {
    out.metric(
        "dsr.rreq_receive_us",
        ratio(d.rreq_ns as f64 / 1e3, d.rreq_receives as f64),
        "us",
    );
    out.metric(
        "dsr.unicast_receive_us",
        ratio(d.unicast_ns as f64 / 1e3, d.unicast_receives as f64),
        "us",
    );
    out.metric(
        "dsr.originate_us",
        ratio(d.originate_ns as f64 / 1e3, d.originates as f64),
        "us",
    );
    out.metric(
        "dsr.allocs_per_receive",
        ratio(d.receive_allocs as f64, d.receives() as f64),
        "count",
    );
    out.metric(
        "dsr.duplicate_rreq_share",
        ratio(d.rreq_suppressed as f64, d.rreq_receives as f64),
        "share",
    );
    out.metric(
        "dsr.rreq_share",
        ratio(d.rreq_receives as f64, d.receives() as f64),
        "share",
    );
}

/// Runs `cfg` once more with the event ledger on and reports its size
/// and cost against `plain`, an untraced run of the same seed.
fn obs_metrics(out: &mut Outcome, cfg: &SimConfig, plain: (&SimReport, &RunTiming)) {
    let mut obs_cfg = cfg.clone();
    obs_cfg.obs = true;
    out.attempted += 1;
    match run_stepped(obs_cfg, None, &mut Vec::new()) {
        Ok((report, timing)) => {
            let mut problems = check_report(cfg, &report);
            let bytes = cfg.traffic.packet_bytes;
            if !same_bits(
                &report.figure_metrics(bytes),
                &plain.0.figure_metrics(bytes),
            ) {
                problems.push("the ledger changed the run's figure metrics".into());
            }
            if !problems.is_empty() {
                out.fail_run(format!("ledger run: {}", problems.join("; ")));
            }
            let (events, dropped) = report
                .obs
                .as_ref()
                .map_or((0, 0), |o| (o.events().len() as u64, o.dropped()));
            out.metric("obs.events", events as f64, "count");
            out.metric("obs.dropped", dropped as f64, "count");
            out.metric(
                "obs.drop_ratio",
                ratio(dropped as f64, (events + dropped) as f64),
                "share",
            );
            out.metric(
                "obs.overhead_ratio",
                ratio(timing.step_ns as f64, plain.1.step_ns as f64),
                "ratio",
            );
        }
        Err(e) => out.fail_run(format!("ledger run: {e}")),
    }
}

fn sweep_metrics(
    out: &mut Outcome,
    runs: u64,
    serial_s: f64,
    workers: f64,
    wall_s: f64,
    slowest_s: f64,
) {
    out.metric("sweep.runs", runs as f64, "count");
    out.metric("sweep.serial_s", serial_s, "s");
    out.metric(
        "sweep.parallel_efficiency",
        ratio(serial_s, workers * wall_s),
        "ratio",
    );
    out.metric("sweep.slowest_run_s", slowest_s, "s");
}

/// Checks the replay against the workload's mobility claim.
fn motion_self_check(out: &mut Outcome, w: Workload, rep: &Replay) {
    let changes = rep.mobility.link_changes;
    match w.motion() {
        Motion::Moving => out.self_check(changes > 0, || {
            format!("{} shows no link changes: its nodes do not move", w.name())
        }),
        Motion::Stationary => out.self_check(changes == 0, || {
            format!(
                "{} shows {changes} link changes after interval 0: its nodes move",
                w.name()
            )
        }),
        Motion::Mixed => {}
    }
}

fn single(w: Workload, seed: u64, window: Duration, trace: bool) -> Outcome {
    let mut out = Outcome {
        tracer: trace.then(Tracer::new),
        ..Outcome::default()
    };
    let cfgs: Vec<SimConfig> = (0..w.seeds_per_invocation())
        .map(|i| w.config(derived_seed(seed, i)))
        .collect();
    let mut s = Stepper::new(cfgs.len());
    let mut first_timing = None;
    let started = Instant::now();
    let mut pass = 0;
    let mut last_pass = Duration::ZERO;
    while pass < MIN_PASSES || started.elapsed() + last_pass <= window {
        let pass_start = Instant::now();
        // Traced, every other pass carries spans.
        let traced = trace && pass % 2 == 1;
        for (i, cfg) in cfgs.iter().enumerate() {
            s.setup_samples.push(sim_setup_block(cfg));
            let what = format!("pass {pass} seed {i}");
            if let Some((timing, true)) = s.step(&mut out, i, cfg, traced, &what, |_| Vec::new()) {
                if i == 0 {
                    first_timing = Some(timing);
                }
            }
        }
        pass += 1;
        last_pass = pass_start.elapsed();
    }
    let wall_s = started.elapsed().as_secs_f64();
    out.notes.push(format!(
        "{pass} passes over {} seeds, {} runs in {wall_s:.2} s",
        cfgs.len(),
        out.attempted
    ));

    let cfg0 = &cfgs[0];
    let rep = match replay(cfg0, trace, out.tracer.as_mut()) {
        Ok(rep) => rep,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    motion_self_check(&mut out, w, &rep);
    if w == Workload::StaticLoaded150 {
        let mac_pressure: u64 = s
            .firsts
            .iter()
            .flatten()
            .map(|r| r.mac.data_deferred + r.mac.queue_drops)
            .sum();
        out.self_check(mac_pressure > 0, || {
            "static-loaded-150 deferred and dropped nothing: its MAC queues are not loaded".into()
        });
    }
    let (Some(first_report), Some(first_timing)) = (s.firsts[0].as_ref(), first_timing) else {
        return out;
    };

    if !trace {
        let wall_s = s.untraced.wall_ns as f64 / 1e9;
        end_to_end(&mut out, ratio(s.untraced.sim_s, wall_s), &s);
        return out;
    }
    let mut steady = Totals::default();
    steady.add(&first_timing);
    core_metrics(&mut out, &s.traced, &s.untraced, &steady);
    layer_metrics(&mut out, &rep, s.traced.step_ms(), first_report);
    obs_metrics(&mut out, cfg0, (first_report, &first_timing));
    let serial_s = s.untraced.wall_ns as f64 / 1e9;
    sweep_metrics(
        &mut out,
        s.untraced.runs,
        serial_s,
        1.0,
        serial_s,
        s.untraced.slowest_ns as f64 / 1e9,
    );
    out
}

/// Energy bounds a campaign cell must meet, checked on its summary
/// (with one seed per cell, the cell mean is the run's own value).
fn check_cell(cfg: &SimConfig, figures: &[f64; FIGURE_METRICS.len()]) -> Vec<String> {
    let mut problems = check_figures(figures);
    let tn = cfg.duration.as_secs_f64() * f64::from(cfg.nodes);
    let energy = figures[0];
    if !(energy >= DOZE_W * tn * (1.0 - 1e-9) && energy <= AWAKE_W * tn * (1.0 + 1e-9)) {
        problems.push(format!(
            "total energy {energy} J outside [{}, {}] J",
            DOZE_W * tn,
            AWAKE_W * tn
        ));
    }
    if cfg.scheme == Scheme::Dot11
        && energy != AWAKE_W * cfg.duration.as_secs_f64() * f64::from(cfg.nodes)
    {
        problems.push(format!(
            "802.11 total energy {energy} J is not exactly awake power x T x N"
        ));
    }
    problems
}

fn campaign_self_check(out: &mut Outcome, spec: &SweepSpec) {
    for s in Scheme::PAPER_FIGURES {
        out.self_check(spec.schemes.contains(&s), || {
            format!("campaign lacks scheme {s}")
        });
    }
    let duration = spec.base.duration.as_secs_f64();
    let mobile = spec.pauses.iter().any(|&p| p < duration);
    let stationary = spec.pauses.iter().any(|&p| p >= duration);
    out.self_check(mobile && stationary, || {
        format!(
            "campaign pauses {:?} lack a mobile or a static value",
            spec.pauses
        )
    });
}

/// One campaign set-up sample: preset, `normalized` and `expand`.
fn campaign_setup_block(seed: u64) -> f64 {
    setup_block(CAMPAIGN_SETUP_BLOCK, || {
        let start = Instant::now();
        let cells = Workload::campaign_spec(seed)
            .normalized()
            .map(|s| s.expand());
        let elapsed = start.elapsed();
        drop(std::hint::black_box(cells));
        elapsed
    })
}

fn campaign(seed: u64, window: Duration, trace: bool) -> Outcome {
    let mut out = Outcome {
        tracer: trace.then(Tracer::new),
        ..Outcome::default()
    };
    match Workload::campaign_spec(seed).normalized() {
        Ok(spec) => campaign_self_check(&mut out, &spec),
        Err(e) => {
            out.problems.push(format!("campaign spec: {e}"));
            return out;
        }
    }
    let base = Workload::CampaignFig7.config(seed);
    let mut s = Stepper::new(0);
    let started = Instant::now();
    let mut campaign_wall_s = 0.0;
    let mut run_campaign = |out: &mut Outcome, s: &mut Stepper| {
        s.setup_samples.push(campaign_setup_block(seed));
        let start = Instant::now();
        let report = run_spec(&Workload::campaign_spec(seed), CAMPAIGN_WORKERS);
        campaign_wall_s += start.elapsed().as_secs_f64();
        report
            .map_err(|e| out.problems.push(format!("campaign: {e}")))
            .ok()
    };

    let Some(report) = run_campaign(&mut out, &mut s) else {
        return out;
    };
    let spec = &report.spec;
    // The campaign's runs, stepped on one thread, each with its cell's
    // figures.
    let stepped: Vec<(String, SimConfig, [f64; FIGURE_METRICS.len()])> = report
        .cells
        .iter()
        .map(|summary| {
            let cell = &summary.cell;
            let mut cfg = cell.config(spec);
            cfg.seed = cell.run_seed(seed, spec.pairing);
            let means = std::array::from_fn(|j| summary.metrics[j].mean);
            (cell.key(), cfg, means)
        })
        .collect();
    s.firsts = vec![None; stepped.len()];
    let mut counts: Option<SimReport> = None;
    let mut base_plain: Option<(SimReport, RunTiming)> = None;
    let mut base_traced_step_ms = 0.0;
    let mut step_cell = |out: &mut Outcome, s: &mut Stepper, i: usize, traced: bool, pass: u32| {
        let (key, cfg, means) = &stepped[i];
        s.setup_samples.push(campaign_setup_block(seed));
        let bytes = cfg.traffic.packet_bytes;
        let what = format!("{key} pass {pass}");
        let Some((timing, first)) = s.step(out, i, cfg, traced, &what, |r| {
            if same_bits(&r.figure_metrics(bytes), means) {
                Vec::new()
            } else {
                vec![
                    "campaign and one-thread runs of one seed gave different figure metrics".into(),
                ]
            }
        }) else {
            return;
        };
        if traced && *cfg == base && base_traced_step_ms == 0.0 {
            base_traced_step_ms = ratio(timing.step_ns as f64 / 1e6, timing.intervals as f64);
        }
        if let (true, Some(r)) = (first, &s.firsts[i]) {
            accumulate_counts(&mut counts, r);
            if *cfg == base {
                base_plain = Some((r.clone(), timing));
            }
        }
    };

    // Half of the stepped runs follow each campaign, so that both kinds
    // of timing sample the whole budget. `last_pass` counts only the
    // stepping.
    let half = stepped.len().div_ceil(2);
    let start = Instant::now();
    for i in 0..half {
        step_cell(&mut out, &mut s, i, false, 0);
    }
    let mut last_pass = start.elapsed();
    let Some(twin) = run_campaign(&mut out, &mut s) else {
        return out;
    };
    let start = Instant::now();
    for i in half..stepped.len() {
        step_cell(&mut out, &mut s, i, false, 0);
    }
    last_pass += start.elapsed();
    let mut pass = 1;
    while pass < 1 + u32::from(trace) || started.elapsed() + last_pass <= window {
        let pass_start = Instant::now();
        // Traced, every other pass carries spans.
        let traced = trace && pass % 2 == 1;
        for i in 0..stepped.len() {
            step_cell(&mut out, &mut s, i, traced, pass);
        }
        pass += 1;
        last_pass = pass_start.elapsed();
    }

    out.attempted += 2 * report.total_runs as u64;
    for (summary, twin_cell) in report.cells.iter().zip(&twin.cells) {
        let cell = &summary.cell;
        let mut cfg = cell.config(spec);
        cfg.seed = cell.run_seed(seed, spec.pairing);
        let means: [f64; FIGURE_METRICS.len()] = std::array::from_fn(|j| summary.metrics[j].mean);
        let twin_means: [f64; FIGURE_METRICS.len()] =
            std::array::from_fn(|j| twin_cell.metrics[j].mean);
        let mut problems = check_cell(&cfg, &means);
        if !same_bits(&means, &twin_means) {
            problems.push("two campaigns of one seed gave different figure metrics".into());
        }
        if !problems.is_empty() {
            out.failed += 2 * summary.runs as u64 - 1;
            out.fail_run(format!(
                "{} campaign runs: {}",
                cell.key(),
                problems.join("; ")
            ));
        }
    }
    out.notes.push(format!(
        "2 campaigns of {} runs on {CAMPAIGN_WORKERS} workers in {campaign_wall_s:.2} s, \
         {pass} passes over {} runs stepped on one thread, {} runs in all",
        report.total_runs,
        stepped.len(),
        out.attempted
    ));

    if !trace {
        let sim_s = report.total_sim_seconds + twin.total_sim_seconds;
        end_to_end(&mut out, ratio(sim_s, campaign_wall_s), &s);
        return out;
    }
    let rep = match replay(&base, true, out.tracer.as_mut()) {
        Ok(rep) => rep,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    let Some(counts) = counts else {
        return out;
    };
    core_metrics(&mut out, &s.traced, &s.untraced, &s.first_pass);
    layer_metrics(&mut out, &rep, base_traced_step_ms, &counts);
    match &base_plain {
        Some((r, t)) => obs_metrics(&mut out, &base, (r, t)),
        None => out.problems.push("campaign lacks its base cell".into()),
    }
    sweep_metrics(
        &mut out,
        report.total_runs as u64,
        s.first_pass.wall_ns as f64 / 1e9,
        CAMPAIGN_WORKERS as f64,
        campaign_wall_s / 2.0,
        s.first_pass.slowest_ns as f64 / 1e9,
    );
    out
}

/// Adds `r`'s MAC and DSR counters into `acc`, starting from `r` itself.
fn accumulate_counts(acc: &mut Option<SimReport>, r: &SimReport) {
    let Some(a) = acc.as_mut() else {
        *acc = Some(r.clone());
        return;
    };
    let (m, k) = (&mut a.mac, &r.mac);
    m.atim_unicast += k.atim_unicast;
    m.atim_broadcast += k.atim_broadcast;
    m.atim_deferred += k.atim_deferred;
    m.atim_no_ack += k.atim_no_ack;
    m.data_delivered += k.data_delivered;
    m.broadcast_delivered += k.broadcast_delivered;
    m.data_deferred += k.data_deferred;
    m.data_lost += k.data_lost;
    m.link_failures += k.link_failures;
    m.queue_drops += k.queue_drops;
    let (d, c) = (&mut a.dsr, &r.dsr);
    d.rreq_originated += c.rreq_originated;
    d.rreq_forwarded += c.rreq_forwarded;
    d.rrep_from_target += c.rrep_from_target;
    d.rrep_from_cache += c.rrep_from_cache;
    d.rrep_forwarded += c.rrep_forwarded;
    d.rerr_originated += c.rerr_originated;
    d.rerr_forwarded += c.rerr_forwarded;
    d.data_sent += c.data_sent;
    d.data_forwarded += c.data_forwarded;
    d.data_salvaged += c.data_salvaged;
    d.data_delivered += c.data_delivered;
    d.data_dropped += c.data_dropped;
}
