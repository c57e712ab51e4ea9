//! Command-line interface plumbing for the `rcast` binary.
//!
//! Hand-rolled parsing (no CLI dependency) kept in the library so every
//! rule is unit-testable. Two subcommands:
//!
//! * `run` — one simulation, human summary or CSV row;
//! * `compare` — a scheme × rate sweep printed as a table.

use std::fmt;

use crate::core::{OverhearFactors, RoutingKind, Scheme, SimConfig};
use crate::engine::SimDuration;
use crate::mobility::Area;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one simulation.
    Run(RunArgs),
    /// Sweep schemes × rates.
    Compare(CompareArgs),
    /// Run a scenario file (`rcast scenario <path> [--csv]`).
    Scenario {
        /// Path to the scenario file.
        path: String,
        /// Emit a CSV row instead of the human summary.
        csv: bool,
    },
    /// Print the scenario text for the given flags
    /// (`rcast export-scenario [options]`).
    ExportScenario(SimConfig),
    /// Run the determinism & hygiene static analyzer
    /// (`rcast lint [--json] [--root <dir>]`).
    Lint(LintArgs),
    /// Run the tracked simulator-throughput benchmark
    /// (`rcast bench [--smoke] [--out <file>]`).
    Bench(BenchArgs),
    /// Run one simulation with the event ledger on and export the
    /// `rcast-trace/v1` JSONL
    /// (`rcast trace [options] [--filter f] [--interval-range A..B]
    /// [--out <file>]`).
    Trace(TraceArgs),
    /// Run a declarative sweep campaign and emit `rcast-sweep/v1`
    /// artifacts
    /// (`rcast sweep --spec <file|preset> [--threads N] [--out <dir>]
    /// [--smoke]`).
    Sweep(SweepArgs),
    /// Print usage.
    Help,
}

/// Arguments of `rcast sweep`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepArgs {
    /// A preset name (`fig5`–`fig8`, `scale`) or a spec-file path;
    /// the binary resolves presets first.
    pub spec: String,
    /// Worker threads for the cell × seed fan-out (`None` = machine
    /// width). Artifacts are byte-identical at any width.
    pub threads: Option<usize>,
    /// Directory to write `<name>.json` and `<name>.csv` into; without
    /// it the JSON document goes to stdout.
    pub out: Option<String>,
    /// Scale the campaign down to the CI smoke grid
    /// (`SweepSpec::smoke`).
    pub smoke: bool,
}

/// Arguments of `rcast trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// The assembled configuration; the binary forces `obs` on.
    pub config: SimConfig,
    /// Keep only matching events (`node=N`, `flow=N`, `kind=K`).
    pub filter: Option<crate::obs::TraceFilter>,
    /// Keep only events in the half-open beacon-interval range
    /// `[start, end)`.
    pub interval_range: Option<(u64, u64)>,
    /// Write the JSONL here instead of stdout.
    pub out: Option<String>,
}

/// Arguments of `rcast bench`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchArgs {
    /// Small workload only — the CI regression gate.
    pub smoke: bool,
    /// Also run the large scaling tier (600- and 1200-node Rcast
    /// cells) and print the nodes-doubling scaling table; the
    /// near-linearity gate fails the run past a 2.5× doubling ratio.
    pub large: bool,
    /// Also write the JSON report to this path (stdout always gets it).
    pub out: Option<String>,
    /// Diff the run against this `rcast-bench/v1` baseline and fail on
    /// an `intervals_per_sec` regression beyond the tolerance
    /// (default 25%) or any `allocs_per_interval` increase.
    pub check: Option<String>,
    /// Speed tolerance for `--check` as a percentage (e.g. 10 for
    /// ±10%); `None` keeps the built-in default.
    pub tolerance: Option<f64>,
}

/// Arguments of `rcast lint`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintArgs {
    /// Emit the machine-readable JSON report instead of text lines.
    pub json: bool,
    /// Emit a SARIF 2.1.0 log instead of text lines (exclusive with
    /// `json`).
    pub sarif: bool,
    /// Workspace root to lint; `None` finds the nearest `[workspace]`
    /// manifest above the current directory.
    pub root: Option<String>,
    /// Baseline file of `RULE path` suppressions; stale entries are
    /// reported on stderr.
    pub baseline: Option<String>,
}

/// Arguments of `rcast run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The assembled configuration.
    pub config: SimConfig,
    /// Emit one CSV row instead of the human summary.
    pub csv: bool,
}

/// Arguments of `rcast compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    /// Base configuration (scheme/rate overwritten per cell).
    pub base: SimConfig,
    /// Schemes to sweep.
    pub schemes: Vec<Scheme>,
    /// Packet rates to sweep.
    pub rates: Vec<f64>,
    /// Seeds to average.
    pub seeds: Vec<u64>,
    /// Worker threads for the per-cell seed fan-out (`None` = machine
    /// width). Results are identical at any width.
    pub threads: Option<usize>,
}

/// A CLI parsing failure, with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCliError(String);

impl fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseCliError {}

fn err(msg: impl Into<String>) -> ParseCliError {
    ParseCliError(msg.into())
}

/// Parses a scheme name as printed by the paper.
pub fn parse_scheme(s: &str) -> Result<Scheme, ParseCliError> {
    match s.to_ascii_lowercase().as_str() {
        "802.11" | "80211" | "dot11" | "always-on" => Ok(Scheme::Dot11),
        "psm" => Ok(Scheme::Psm),
        "psm-none" | "no-overhear" => Ok(Scheme::PsmNoOverhear),
        "odpm" => Ok(Scheme::Odpm),
        "rcast" | "randomcast" => Ok(Scheme::Rcast),
        other => Err(err(format!(
            "unknown scheme '{other}' (expected 802.11, psm, psm-none, odpm, rcast)"
        ))),
    }
}

/// Parses a routing protocol name.
pub fn parse_routing(s: &str) -> Result<RoutingKind, ParseCliError> {
    match s.to_ascii_lowercase().as_str() {
        "dsr" => Ok(RoutingKind::Dsr),
        "aodv" => Ok(RoutingKind::Aodv),
        other => Err(err(format!(
            "unknown routing protocol '{other}' (expected dsr, aodv)"
        ))),
    }
}

fn parse_f64(flag: &str, v: &str) -> Result<f64, ParseCliError> {
    v.parse()
        .map_err(|_| err(format!("{flag} expects a number, got '{v}'")))
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, ParseCliError> {
    v.parse()
        .map_err(|_| err(format!("{flag} expects an integer, got '{v}'")))
}

/// The usage text.
pub const USAGE: &str = "\
rcast — RandomCast MANET simulator (reproduction of Lim/Yu/Das, ICDCS 2005)

USAGE:
    rcast run     [options]          run one simulation
    rcast compare [options]          sweep schemes x rates
    rcast scenario <file> [--csv]    run a saved scenario file
    rcast export-scenario [options]  print a scenario file for the flags
    rcast lint [--json | --sarif] [--root <d>] [--baseline <f>]
                                     run the determinism static analyzer
    rcast bench [--smoke] [--large] [--out <f>] [--check <baseline>]
                [--tolerance <pct>]  run the tracked perf benchmark
    rcast trace [options]            run once, export rcast-trace/v1 JSONL
    rcast sweep --spec <s> [options] run a sweep campaign (rcast-sweep/v1)
    rcast help                       show this text

COMMON OPTIONS (both subcommands):
    --scheme <s>      802.11 | psm | psm-none | odpm | rcast   [rcast]
    --routing <r>     dsr | aodv                               [dsr]
    --nodes <n>       node count                               [100]
    --area <WxH>      field size in meters                     [1500x300]
    --rate <pps>      packets/second per flow                  [0.4]
    --flows <n>       CBR flow count                           [20]
    --pause <s>       random-waypoint pause time               [600]
    --duration <s>    simulated seconds                        [1125]
    --seed <n>        run seed                                 [1]
    --battery <J>     finite battery per node (enables lifetime)
    --faults <spec>   fault injection, comma list of key=value:
                      crash=<p> downtime=<s> blackouts=<n> blackout=<s>
                      bursts=<n> burst=<s> corrupt=<p> battery=<bool>
    --broadcast-p <p> Rcast randomized-broadcast receive probability
    --factors <list>  comma list of rcast factors:
                      neighbors,sender-id,mobility,battery

run-ONLY:
    --csv             print one CSV row (with header)

compare-ONLY:
    --schemes <list>  comma list of schemes      [802.11,odpm,rcast]
    --rates <list>    comma list of rates        [0.2,0.4,1.0,2.0]
    --seeds <list>    comma list of seeds        [1,2,3]
    --threads <n>     worker threads per cell    [machine width]
                      (results are identical at any thread count)

bench-ONLY:
    --smoke           small workload only (the CI gate); also enforces
                      the ledger-overhead budget
    --large           add the 600/1200-node Rcast scaling tier; prints
                      the nodes-doubling table and fails past a 2.5x
                      per-doubling wall-time ratio or the alloc budget
    --out <f>         also write the JSON report to a file
    --check <f>       diff against an rcast-bench/v1 baseline; fail on
                      intervals_per_sec regression beyond the tolerance
                      (default 25%) or any allocs_per_interval increase
    --tolerance <pct> speed tolerance for --check, percent in [0,100)

lint-ONLY:
    --json            machine-readable JSON report
    --sarif           SARIF 2.1.0 log (exclusive with --json)
    --root <dir>      workspace root to lint       [nearest workspace]
    --baseline <f>    suppression file of 'RULE path' lines; stale
                      entries go to stderr
                      exits 0 clean, 1 findings, 2 usage or I/O error

trace-ONLY:
    --filter <f>          keep matching events: node=N | flow=N | kind=K
    --interval-range A..B keep beacon intervals [A, B) (half-open)
    --out <file>          write the JSONL to a file instead of stdout

sweep-ONLY:
    --spec <s>        preset (fig5 | fig6 | fig7 | fig8 | scale) or a
                      sweep spec file (required)
    --threads <n>     worker threads across cells x seeds [machine width]
                      (artifacts are byte-identical at any width)
    --out <dir>       write <name>.json + <name>.csv here [stdout JSON]
    --smoke           scale the campaign to the CI smoke grid
";

/// Parses a full argument vector (without the binary name).
///
/// # Errors
///
/// Returns a user-facing message for unknown flags or malformed values.
pub fn parse(args: &[String]) -> Result<Command, ParseCliError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => {
            let (config, extras) = parse_config(rest)?;
            let mut csv = false;
            for e in &extras {
                match e.as_str() {
                    "--csv" => csv = true,
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            Ok(Command::Run(RunArgs { config, csv }))
        }
        "scenario" => {
            let mut path = None;
            let mut csv = false;
            for a in rest {
                match a.as_str() {
                    "--csv" => csv = true,
                    p if !p.starts_with("--") && path.is_none() => path = Some(p.to_string()),
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            let path = path.ok_or_else(|| err("scenario needs a file path"))?;
            Ok(Command::Scenario { path, csv })
        }
        "lint" => {
            let mut lint = LintArgs::default();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--json" => lint.json = true,
                    "--sarif" => lint.sarif = true,
                    "--root" => {
                        let v = it.next().ok_or_else(|| err("--root needs a directory"))?;
                        lint.root = Some(v.clone());
                    }
                    "--baseline" => {
                        let v = it.next().ok_or_else(|| err("--baseline needs a file"))?;
                        lint.baseline = Some(v.clone());
                    }
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            if lint.json && lint.sarif {
                return Err(err("--json and --sarif are mutually exclusive"));
            }
            Ok(Command::Lint(lint))
        }
        "bench" => {
            let mut bench = BenchArgs::default();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--smoke" => bench.smoke = true,
                    "--large" => bench.large = true,
                    "--out" => {
                        let v = it.next().ok_or_else(|| err("--out needs a file path"))?;
                        bench.out = Some(v.clone());
                    }
                    "--check" => {
                        let v = it.next().ok_or_else(|| err("--check needs a baseline file"))?;
                        bench.check = Some(v.clone());
                    }
                    "--tolerance" => {
                        let v = it
                            .next()
                            .ok_or_else(|| err("--tolerance needs a percentage"))?;
                        let pct: f64 = v
                            .parse()
                            .map_err(|_| err(format!("bad --tolerance '{v}'")))?;
                        if !pct.is_finite() || !(0.0..100.0).contains(&pct) {
                            return Err(err(format!(
                                "--tolerance must be in [0, 100), got '{v}'"
                            )));
                        }
                        bench.tolerance = Some(pct);
                    }
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            if bench.tolerance.is_some() && bench.check.is_none() {
                return Err(err("--tolerance only applies with --check"));
            }
            Ok(Command::Bench(bench))
        }
        "trace" => {
            let (config, extras) = parse_config(rest)?;
            let mut filter = None;
            let mut interval_range = None;
            let mut out = None;
            let mut it = extras.iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<&String, ParseCliError> {
                    it.next().ok_or_else(|| err(format!("{name} needs a value")))
                };
                match flag.as_str() {
                    "--filter" => {
                        filter =
                            Some(crate::obs::TraceFilter::parse(value("--filter")?).map_err(err)?)
                    }
                    "--interval-range" => {
                        let v = value("--interval-range")?;
                        let (lo, hi) = v.split_once("..").ok_or_else(|| {
                            err(format!("--interval-range expects A..B, got '{v}'"))
                        })?;
                        let lo = parse_u64("--interval-range", lo)?;
                        let hi = parse_u64("--interval-range", hi)?;
                        if lo >= hi {
                            return Err(err(format!(
                                "--interval-range is half-open and needs A < B, got '{v}'"
                            )));
                        }
                        interval_range = Some((lo, hi));
                    }
                    "--out" => out = Some(value("--out")?.clone()),
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            Ok(Command::Trace(TraceArgs {
                config,
                filter,
                interval_range,
                out,
            }))
        }
        "sweep" => {
            let mut spec = None;
            let mut threads = None;
            let mut out = None;
            let mut smoke = false;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<&String, ParseCliError> {
                    it.next().ok_or_else(|| err(format!("{name} needs a value")))
                };
                match flag.as_str() {
                    "--spec" => spec = Some(value("--spec")?.clone()),
                    "--threads" => {
                        let v = value("--threads")?;
                        let n = parse_u64("--threads", v)? as usize;
                        if n == 0 {
                            return Err(err("--threads must be at least 1"));
                        }
                        threads = Some(n);
                    }
                    "--out" => out = Some(value("--out")?.clone()),
                    "--smoke" => smoke = true,
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            let spec = spec.ok_or_else(|| {
                err("sweep needs --spec <fig5|fig6|fig7|fig8|scale|file>")
            })?;
            Ok(Command::Sweep(SweepArgs {
                spec,
                threads,
                out,
                smoke,
            }))
        }
        "export-scenario" => {
            let (config, extras) = parse_config(rest)?;
            if let Some(e) = extras.first() {
                return Err(err(format!("unknown option '{e}'")));
            }
            Ok(Command::ExportScenario(config))
        }
        "compare" => {
            let mut schemes = vec![Scheme::Dot11, Scheme::Odpm, Scheme::Rcast];
            let mut rates = vec![0.2, 0.4, 1.0, 2.0];
            let mut seeds = vec![1, 2, 3];
            let mut threads = None;
            let mut passthrough = Vec::new();
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--schemes" => {
                        let v = it.next().ok_or_else(|| err("--schemes needs a value"))?;
                        schemes = v
                            .split(',')
                            .map(parse_scheme)
                            .collect::<Result<_, _>>()?;
                    }
                    "--rates" => {
                        let v = it.next().ok_or_else(|| err("--rates needs a value"))?;
                        rates = v
                            .split(',')
                            .map(|r| parse_f64("--rates", r))
                            .collect::<Result<_, _>>()?;
                    }
                    "--seeds" => {
                        let v = it.next().ok_or_else(|| err("--seeds needs a value"))?;
                        seeds = v
                            .split(',')
                            .map(|s| parse_u64("--seeds", s))
                            .collect::<Result<_, _>>()?;
                    }
                    "--threads" => {
                        let v = it.next().ok_or_else(|| err("--threads needs a value"))?;
                        let n = parse_u64("--threads", v)? as usize;
                        if n == 0 {
                            return Err(err("--threads must be at least 1"));
                        }
                        threads = Some(n);
                    }
                    other => {
                        passthrough.push(other.to_string());
                        if let Some(v) = it.next() {
                            passthrough.push(v.clone());
                        }
                    }
                }
            }
            let (base, extras) = parse_config(&passthrough)?;
            if let Some(e) = extras.first() {
                return Err(err(format!("unknown option '{e}'")));
            }
            if schemes.is_empty() || rates.is_empty() || seeds.is_empty() {
                return Err(err("schemes, rates and seeds must be non-empty"));
            }
            Ok(Command::Compare(CompareArgs {
                base,
                schemes,
                rates,
                seeds,
                threads,
            }))
        }
        other => Err(err(format!(
            "unknown subcommand '{other}' (expected run, compare, scenario, \
             export-scenario, lint, bench, trace, sweep, help)"
        ))),
    }
}

/// Parses the shared configuration flags, returning leftover flags.
fn parse_config(args: &[String]) -> Result<(SimConfig, Vec<String>), ParseCliError> {
    let mut cfg = SimConfig::paper(Scheme::Rcast, 1, 0.4, 600.0);
    let mut extras = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, ParseCliError> {
            it.next().ok_or_else(|| err(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--scheme" => cfg.scheme = parse_scheme(value("--scheme")?)?,
            "--routing" => cfg.routing = parse_routing(value("--routing")?)?,
            "--nodes" => cfg.nodes = parse_u64("--nodes", value("--nodes")?)? as u32,
            "--area" => {
                let v = value("--area")?;
                let (w, h) = v
                    .split_once(['x', 'X'])
                    .ok_or_else(|| err(format!("--area expects WxH, got '{v}'")))?;
                cfg.area = Area::new(parse_f64("--area", w)?, parse_f64("--area", h)?);
            }
            "--rate" => cfg.traffic.rate_pps = parse_f64("--rate", value("--rate")?)?,
            "--flows" => {
                cfg.traffic.flows = parse_u64("--flows", value("--flows")?)? as u32
            }
            "--pause" => {
                cfg.waypoint.pause_secs = parse_f64("--pause", value("--pause")?)?
            }
            "--duration" => {
                cfg.duration =
                    SimDuration::from_secs_f64(parse_f64("--duration", value("--duration")?)?)
            }
            "--seed" => cfg.seed = parse_u64("--seed", value("--seed")?)?,
            "--battery" => {
                cfg.battery_capacity_j =
                    Some(parse_f64("--battery", value("--battery")?)?)
            }
            "--faults" => {
                cfg.faults = crate::core::FaultsConfig::parse_spec(value("--faults")?)
                    .map_err(err)?
            }
            "--broadcast-p" => {
                cfg.factors.broadcast_probability =
                    parse_f64("--broadcast-p", value("--broadcast-p")?)?
            }
            "--factors" => {
                let v = value("--factors")?;
                let mut f = OverhearFactors {
                    neighbors: false,
                    ..OverhearFactors::default()
                };
                for part in v.split(',') {
                    match part {
                        "neighbors" => f.neighbors = true,
                        "sender-id" => f.sender_id = true,
                        "mobility" => f.mobility = true,
                        "battery" => f.battery = true,
                        other => {
                            return Err(err(format!("unknown factor '{other}'")))
                        }
                    }
                }
                cfg.factors = f;
            }
            other => extras.push(other.to_string()),
        }
    }
    cfg.validate().map_err(err)?;
    Ok((cfg, extras))
}

/// One CSV row (with header) for a finished run.
pub fn csv_row(report: &crate::SimReport, cfg: &SimConfig) -> String {
    let header = "scheme,routing,nodes,rate_pps,pause_s,duration_s,seed,\
energy_j,variance,pdr,delay_ms,overhead,epb_j_per_bit,first_depletion_s";
    let depletion = report
        .first_depletion
        .map(|t| format!("{:.3}", t.as_secs_f64()))
        .unwrap_or_default();
    format!(
        "{header}\n{},{},{},{},{},{},{},{:.3},{:.3},{:.5},{:.1},{:.4},{:.9},{}",
        report.scheme.label(),
        cfg.routing.label(),
        cfg.nodes,
        cfg.traffic.rate_pps,
        cfg.waypoint.pause_secs,
        cfg.duration.as_secs_f64(),
        report.seed,
        report.energy.total_joules(),
        report.energy.variance(),
        report.delivery.delivery_ratio(),
        report.delivery.mean_delay().as_millis_f64(),
        report.delivery.normalized_routing_overhead(),
        report.energy_per_bit(cfg.traffic.packet_bytes),
        depletion,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn run_defaults_are_paper_defaults() {
        let Command::Run(r) = parse(&args("run")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(r.config.nodes, 100);
        assert_eq!(r.config.scheme, Scheme::Rcast);
        assert_eq!(r.config.routing, RoutingKind::Dsr);
        assert!(!r.csv);
    }

    #[test]
    fn run_with_overrides() {
        let cmd = parse(&args(
            "run --scheme odpm --routing aodv --nodes 40 --rate 2.0 \
             --pause 0 --duration 100 --seed 9 --area 800x200 --csv",
        ))
        .unwrap();
        let Command::Run(r) = cmd else { panic!() };
        assert_eq!(r.config.scheme, Scheme::Odpm);
        assert_eq!(r.config.routing, RoutingKind::Aodv);
        assert_eq!(r.config.nodes, 40);
        assert_eq!(r.config.traffic.rate_pps, 2.0);
        assert_eq!(r.config.waypoint.pause_secs, 0.0);
        assert_eq!(r.config.duration, SimDuration::from_secs(100));
        assert_eq!(r.config.seed, 9);
        assert_eq!(r.config.area.width(), 800.0);
        assert!(r.csv);
    }

    #[test]
    fn scheme_names_paper_style() {
        assert_eq!(parse_scheme("802.11").unwrap(), Scheme::Dot11);
        assert_eq!(parse_scheme("PSM").unwrap(), Scheme::Psm);
        assert_eq!(parse_scheme("psm-none").unwrap(), Scheme::PsmNoOverhear);
        assert_eq!(parse_scheme("ODPM").unwrap(), Scheme::Odpm);
        assert_eq!(parse_scheme("RandomCast").unwrap(), Scheme::Rcast);
        assert!(parse_scheme("span").is_err());
    }

    #[test]
    fn factor_list_parses() {
        let cmd = parse(&args("run --factors neighbors,sender-id,battery")).unwrap();
        let Command::Run(r) = cmd else { panic!() };
        assert!(r.config.factors.neighbors);
        assert!(r.config.factors.sender_id);
        assert!(r.config.factors.battery);
        assert!(!r.config.factors.mobility);
        assert!(parse(&args("run --factors psychic")).is_err());
    }

    #[test]
    fn faults_spec_parses_and_rejects_junk() {
        let cmd = parse(&args("run --faults crash=0.3,downtime=20,blackouts=2")).unwrap();
        let Command::Run(r) = cmd else { panic!() };
        assert_eq!(r.config.faults.crash_prob, 0.3);
        assert_eq!(r.config.faults.downtime_s, 20.0);
        assert_eq!(r.config.faults.link_blackouts, 2);
        assert!(!r.config.faults.is_none());
        assert!(parse(&args("run --faults crash=2.0")).is_err(), "validation runs");
        assert!(parse(&args("run --faults wat=1")).is_err());
        assert!(parse(&args("run --faults")).is_err());
    }

    #[test]
    fn scenario_subcommands_parse() {
        assert_eq!(
            parse(&args("scenario exp.scn --csv")).unwrap(),
            Command::Scenario {
                path: "exp.scn".into(),
                csv: true
            }
        );
        assert!(parse(&args("scenario")).is_err());
        let Command::ExportScenario(cfg) =
            parse(&args("export-scenario --scheme odpm --rate 2.0")).unwrap()
        else {
            panic!("expected export");
        };
        assert_eq!(cfg.scheme, Scheme::Odpm);
        // Round trip through the scenario format.
        let text = crate::core::write_scenario(&cfg);
        assert_eq!(crate::core::parse_scenario(&text).unwrap(), cfg);
    }

    #[test]
    fn compare_lists_parse() {
        let cmd = parse(&args(
            "compare --schemes 802.11,rcast --rates 0.2,2.0 --seeds 5,6 --nodes 30",
        ))
        .unwrap();
        let Command::Compare(c) = cmd else { panic!() };
        assert_eq!(c.schemes, vec![Scheme::Dot11, Scheme::Rcast]);
        assert_eq!(c.rates, vec![0.2, 2.0]);
        assert_eq!(c.seeds, vec![5, 6]);
        assert_eq!(c.base.nodes, 30);
        assert_eq!(c.threads, None);
    }

    #[test]
    fn compare_threads_parse() {
        let cmd = parse(&args("compare --threads 4")).unwrap();
        let Command::Compare(c) = cmd else { panic!() };
        assert_eq!(c.threads, Some(4));
        assert!(parse(&args("compare --threads 0")).is_err());
        assert!(parse(&args("compare --threads many")).is_err());
        assert!(parse(&args("compare --threads")).is_err());
    }

    #[test]
    fn lint_flags_parse() {
        assert_eq!(parse(&args("lint")).unwrap(), Command::Lint(LintArgs::default()));
        assert_eq!(
            parse(&args("lint --json --root /tmp/ws")).unwrap(),
            Command::Lint(LintArgs {
                json: true,
                root: Some("/tmp/ws".into()),
                ..LintArgs::default()
            })
        );
        assert_eq!(
            parse(&args("lint --sarif --baseline lint.baseline")).unwrap(),
            Command::Lint(LintArgs {
                sarif: true,
                baseline: Some("lint.baseline".into()),
                ..LintArgs::default()
            })
        );
        assert!(parse(&args("lint --json --sarif")).is_err(), "exclusive outputs");
        assert!(parse(&args("lint --root")).is_err());
        assert!(parse(&args("lint --baseline")).is_err());
        assert!(parse(&args("lint --bogus")).is_err());
    }

    #[test]
    fn bench_flags_parse() {
        assert_eq!(
            parse(&args("bench")).unwrap(),
            Command::Bench(BenchArgs::default())
        );
        assert_eq!(
            parse(&args("bench --smoke --out BENCH_rcast.json")).unwrap(),
            Command::Bench(BenchArgs {
                smoke: true,
                out: Some("BENCH_rcast.json".into()),
                ..BenchArgs::default()
            })
        );
        assert_eq!(
            parse(&args("bench --smoke --check BENCH_rcast.json")).unwrap(),
            Command::Bench(BenchArgs {
                smoke: true,
                check: Some("BENCH_rcast.json".into()),
                ..BenchArgs::default()
            })
        );
        assert_eq!(
            parse(&args("bench --large --check BENCH_rcast.json --tolerance 10")).unwrap(),
            Command::Bench(BenchArgs {
                large: true,
                check: Some("BENCH_rcast.json".into()),
                tolerance: Some(10.0),
                ..BenchArgs::default()
            })
        );
        assert!(parse(&args("bench --out")).is_err());
        assert!(parse(&args("bench --check")).is_err());
        assert!(parse(&args("bench --bogus")).is_err());
        // --tolerance: needs --check, a numeric value, and [0, 100).
        assert!(parse(&args("bench --tolerance 10")).is_err());
        assert!(parse(&args("bench --check B.json --tolerance")).is_err());
        assert!(parse(&args("bench --check B.json --tolerance ten")).is_err());
        assert!(parse(&args("bench --check B.json --tolerance 100")).is_err());
        assert!(parse(&args("bench --check B.json --tolerance -1")).is_err());
    }

    #[test]
    fn trace_defaults_and_config_flags_parse() {
        let Command::Trace(t) = parse(&args("trace")).unwrap() else {
            panic!("expected trace");
        };
        assert_eq!(t.config.nodes, 100);
        assert_eq!(t.filter, None);
        assert_eq!(t.interval_range, None);
        assert_eq!(t.out, None);
        // Shared config flags work under trace too.
        let Command::Trace(t) =
            parse(&args("trace --scheme psm --nodes 30 --seed 7")).unwrap()
        else {
            panic!("expected trace");
        };
        assert_eq!(t.config.scheme, Scheme::Psm);
        assert_eq!(t.config.nodes, 30);
        assert_eq!(t.config.seed, 7);
    }

    #[test]
    fn trace_filter_flag_round_trips() {
        use crate::obs::TraceFilter;
        for (flag, want) in [
            ("node=3", TraceFilter::Node(3)),
            ("flow=1", TraceFilter::Flow(1)),
            ("kind=span", TraceFilter::Kind("span".into())),
        ] {
            let Command::Trace(t) =
                parse(&args(&format!("trace --filter {flag}"))).unwrap()
            else {
                panic!("expected trace");
            };
            assert_eq!(t.filter, Some(want), "{flag}");
        }
        assert!(parse(&args("trace --filter")).is_err());
        assert!(parse(&args("trace --filter node=many")).is_err());
        assert!(parse(&args("trace --filter planet=9")).is_err());
    }

    #[test]
    fn trace_interval_range_is_half_open_and_validated() {
        let Command::Trace(t) =
            parse(&args("trace --interval-range 10..20")).unwrap()
        else {
            panic!("expected trace");
        };
        assert_eq!(t.interval_range, Some((10, 20)));
        assert!(parse(&args("trace --interval-range")).is_err());
        assert!(parse(&args("trace --interval-range 10")).is_err());
        assert!(parse(&args("trace --interval-range 20..10")).is_err());
        assert!(parse(&args("trace --interval-range 5..5")).is_err());
        assert!(parse(&args("trace --interval-range a..b")).is_err());
    }

    #[test]
    fn trace_out_flag_round_trips() {
        let Command::Trace(t) =
            parse(&args("trace --out trace.jsonl --filter flow=0")).unwrap()
        else {
            panic!("expected trace");
        };
        assert_eq!(t.out, Some("trace.jsonl".into()));
        assert_eq!(t.filter, Some(crate::obs::TraceFilter::Flow(0)));
        assert!(parse(&args("trace --out")).is_err());
        assert!(parse(&args("trace --bogus 1")).is_err());
    }

    #[test]
    fn sweep_flags_parse() {
        assert_eq!(
            parse(&args("sweep --spec fig7")).unwrap(),
            Command::Sweep(SweepArgs {
                spec: "fig7".into(),
                threads: None,
                out: None,
                smoke: false,
            })
        );
        assert_eq!(
            parse(&args("sweep --spec grid.sweep --threads 8 --out results --smoke")).unwrap(),
            Command::Sweep(SweepArgs {
                spec: "grid.sweep".into(),
                threads: Some(8),
                out: Some("results".into()),
                smoke: true,
            })
        );
    }

    #[test]
    fn sweep_rejects_bad_flag_combinations() {
        assert!(parse(&args("sweep")).is_err(), "--spec is required");
        assert!(parse(&args("sweep --spec")).is_err());
        assert!(parse(&args("sweep --spec fig7 --threads 0")).is_err());
        assert!(parse(&args("sweep --spec fig7 --threads many")).is_err());
        assert!(parse(&args("sweep --spec fig7 --out")).is_err());
        assert!(parse(&args("sweep --spec fig7 --bogus")).is_err());
        // Config flags belong in the spec file, not on the sweep line.
        assert!(parse(&args("sweep --spec fig7 --nodes 50")).is_err());
    }

    #[test]
    fn help_text_matches_the_golden_snapshot() {
        // Regenerate deliberately with:
        //   cargo run -- help > tests/golden/help.txt
        let golden = include_str!("../tests/golden/help.txt");
        assert_eq!(
            USAGE, golden,
            "USAGE changed; update tests/golden/help.txt (see comment)"
        );
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(parse(&args("launch")).is_err());
        assert!(parse(&args("run --nodes")).is_err());
        assert!(parse(&args("run --nodes many")).is_err());
        assert!(parse(&args("run --area 100")).is_err());
        assert!(parse(&args("run --bogus 1")).is_err());
        // Validation runs too: one node is rejected.
        assert!(parse(&args("run --nodes 1")).is_err());
    }

    #[test]
    fn csv_row_shape() {
        let cfg = SimConfig::smoke(Scheme::Rcast, 1);
        let report = crate::run_sim(cfg.clone()).unwrap();
        let csv = csv_row(&report, &cfg);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let row = lines.next().unwrap();
        assert_eq!(header.split(',').count(), row.split(',').count());
        assert!(row.starts_with("Rcast,DSR,50,"));
    }
}
