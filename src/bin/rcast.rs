//! The `rcast` command-line simulator.
//!
//! ```sh
//! cargo run --release --bin rcast -- run --scheme rcast --rate 0.4
//! cargo run --release --bin rcast -- compare --rates 0.2,2.0
//! cargo run --release --bin rcast -- help
//! ```

use std::process::ExitCode;

use randomcast::cli::{self, Command};
use randomcast::metrics::{fmt_f64, TextTable};
use randomcast::{run_sim, AggregateReport};

/// Count every heap allocation so `rcast bench` can report steady-state
/// allocations per interval. The probe forwards to the system allocator
/// and adds one relaxed atomic increment — unmeasurable for every other
/// subcommand.
#[global_allocator]
static ALLOC_PROBE: rcast_bench::AllocProbe = rcast_bench::AllocProbe::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(Command::Help) => {
            print!("{}", cli::USAGE);
            ExitCode::SUCCESS
        }
        Ok(Command::Run(run)) => match run_sim(run.config.clone()) {
            Ok(report) => {
                if run.csv {
                    println!("{}", cli::csv_row(&report, &run.config));
                } else {
                    println!("{}", report.summary());
                    println!(
                        "  routing {} | originated {} | delivered {} | control tx {} | EPB {} J/bit",
                        run.config.routing,
                        report.delivery.originated(),
                        report.delivery.delivered(),
                        report.delivery.control_transmissions(),
                        fmt_f64(report.energy_per_bit(run.config.traffic.packet_bytes), 9),
                    );
                    if let Some(t) = report.first_depletion {
                        println!("  first battery depletion at {t}");
                    }
                    if !run.config.faults.is_none() {
                        let f = &report.faults;
                        println!(
                            "  faults: {} crashes | {} rejoins | {} battery deaths | \
{} blackouts | {} bursts | {} fault link errors | {} packets lost",
                            f.crashes,
                            f.rejoins,
                            f.battery_deaths,
                            f.link_blackouts,
                            f.corruption_bursts,
                            f.rerrs_triggered,
                            f.packets_lost_to_faults,
                        );
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(Command::Scenario { path, csv }) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let config = match randomcast::parse_scenario(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error in {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match run_sim(config.clone()) {
                Ok(report) => {
                    if csv {
                        println!("{}", cli::csv_row(&report, &config));
                    } else {
                        println!("{}", report.summary());
                        if !config.faults.is_none() {
                            let f = &report.faults;
                            println!(
                                "  faults: {} crashes | {} rejoins | {} battery deaths | \
{} blackouts | {} bursts | {} fault link errors | {} packets lost",
                                f.crashes,
                                f.rejoins,
                                f.battery_deaths,
                                f.link_blackouts,
                                f.corruption_bursts,
                                f.rerrs_triggered,
                                f.packets_lost_to_faults,
                            );
                        }
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok(Command::ExportScenario(cfg)) => {
            print!("{}", randomcast::write_scenario(&cfg));
            ExitCode::SUCCESS
        }
        Ok(Command::Lint(lint)) => {
            // Lint contract: 0 clean, 1 findings, 2 usage or I/O error.
            let io_error = ExitCode::from(2);
            let root = match lint.root {
                Some(r) => std::path::PathBuf::from(r),
                None => {
                    let cwd = match std::env::current_dir() {
                        Ok(d) => d,
                        Err(e) => {
                            eprintln!("error: cannot determine current directory: {e}");
                            return io_error;
                        }
                    };
                    match rcast_lint::find_workspace_root(&cwd) {
                        Some(r) => r,
                        None => {
                            eprintln!("error: no workspace Cargo.toml above {}", cwd.display());
                            return io_error;
                        }
                    }
                }
            };
            let baseline = match &lint.baseline {
                Some(path) => {
                    let text = match std::fs::read_to_string(path) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("error: cannot read {path}: {e}");
                            return io_error;
                        }
                    };
                    match rcast_lint::parse_baseline(&text) {
                        Ok(b) => b,
                        Err(e) => {
                            eprintln!("error in {path}: {e}");
                            return io_error;
                        }
                    }
                }
                None => Vec::new(),
            };
            match rcast_lint::lint_workspace(&root) {
                Ok(findings) => {
                    let (kept, stale) = rcast_lint::apply_baseline(findings, &baseline);
                    for s in &stale {
                        eprintln!("rcast lint: stale baseline entry '{} {}'", s.rule, s.path);
                    }
                    if lint.json {
                        print!("{}", rcast_lint::render_json(&kept));
                    } else if lint.sarif {
                        print!("{}", rcast_lint::render_sarif(&kept));
                    } else {
                        print!("{}", rcast_lint::render_text(&kept));
                        if kept.is_empty() {
                            eprintln!("rcast lint: clean ({})", root.display());
                        } else {
                            eprintln!("rcast lint: {} finding(s)", kept.len());
                        }
                    }
                    if kept.is_empty() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    io_error
                }
            }
        }
        Ok(Command::Bench(bench)) => {
            let results = rcast_bench::perf::run_suite_with(bench.smoke, bench.large);
            let json = rcast_bench::perf::to_json(&results);
            print!("{json}");
            if bench.large {
                // stderr, so `rcast bench > file` keeps the table visible.
                eprint!("{}", rcast_bench::perf::scaling_table(&results));
                let failures = rcast_bench::perf::scaling_failures(&results);
                if !failures.is_empty() {
                    for f in &failures {
                        eprintln!("error: scaling gate: {f}");
                    }
                    return ExitCode::FAILURE;
                }
            }
            if let Some(path) = bench.out {
                if let Err(e) = std::fs::write(&path, &json) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("rcast bench: wrote {path}");
            }
            if let Some(path) = bench.check {
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let baseline = match rcast_bench::perf::parse_baseline(&text) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("error in {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let tolerance = bench
                    .tolerance
                    .map(|pct| pct / 100.0)
                    .unwrap_or(rcast_bench::perf::CHECK_SPEED_TOLERANCE);
                let failures =
                    rcast_bench::perf::check_against_with_tolerance(&results, &baseline, tolerance);
                if failures.is_empty() {
                    eprintln!("rcast bench: within budget of {path}");
                } else {
                    for f in &failures {
                        eprintln!("error: bench regression vs {path}: {f}");
                    }
                    return ExitCode::FAILURE;
                }
            }
            if bench.smoke {
                // CI gate: the ledger must stay free (off) and cheap (on).
                let o = rcast_bench::perf::ledger_overhead();
                eprintln!(
                    "rcast bench: ledger overhead {:.1}% \
({} ns/interval off, {} ns/interval on; steady-state allocs {} off, {} on)",
                    o.overhead_fraction() * 100.0,
                    o.off_nanos_per_interval,
                    o.on_nanos_per_interval,
                    o.off_allocs,
                    o.on_allocs,
                );
                if o.off_allocs != 0 {
                    eprintln!("error: ledger-off steady state allocates ({})", o.off_allocs);
                    return ExitCode::FAILURE;
                }
                if o.on_allocs != 0 {
                    eprintln!("error: ledger-on steady state allocates ({})", o.on_allocs);
                    return ExitCode::FAILURE;
                }
                if o.overhead_fraction() >= 0.10 {
                    eprintln!(
                        "error: ledger-on overhead {:.1}% exceeds the 10% budget",
                        o.overhead_fraction() * 100.0
                    );
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Ok(Command::Trace(trace)) => {
            let mut cfg = trace.config.clone();
            cfg.obs = true;
            let report = match run_sim(cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let obs = report.obs.as_ref().expect("obs was requested");
            let jsonl = randomcast::render_jsonl(
                obs,
                report.scheme.label(),
                report.seed,
                trace.filter.as_ref(),
                trace.interval_range,
            );
            if let Some(path) = &trace.out {
                if let Err(e) = std::fs::write(path, &jsonl) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("rcast trace: wrote {path} ({} lines)", jsonl.lines().count());
            } else {
                print!("{jsonl}");
            }
            let control: u64 = match trace.config.routing {
                randomcast::RoutingKind::Dsr => {
                    report.dsr.control_events().iter().map(|&(_, n)| n).sum()
                }
                randomcast::RoutingKind::Aodv => {
                    report.aodv.control_events().iter().map(|&(_, n)| n).sum()
                }
            };
            eprintln!(
                "rcast trace: {} events ({} dropped) over {} intervals | \
{} routing control events | {:.0} J audited",
                obs.events().len(),
                obs.dropped(),
                obs.intervals(),
                control,
                report.energy.total_joules(),
            );
            ExitCode::SUCCESS
        }
        Ok(Command::Sweep(sweep)) => {
            // Preset names win; anything else is a spec-file path.
            let spec = match randomcast::sweep::preset(&sweep.spec) {
                Some(s) => s,
                None => {
                    let text = match std::fs::read_to_string(&sweep.spec) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!(
                                "error: '{}' is neither a preset ({}) nor a readable \
spec file: {e}",
                                sweep.spec,
                                randomcast::sweep::PRESETS.join(", "),
                            );
                            return ExitCode::FAILURE;
                        }
                    };
                    match randomcast::sweep::parse_spec(&text) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("error in {}: {e}", sweep.spec);
                            return ExitCode::FAILURE;
                        }
                    }
                }
            };
            let spec = if sweep.smoke { spec.smoke() } else { spec };
            let threads = sweep
                .threads
                .unwrap_or_else(randomcast::engine::pool::available_threads);
            let report = match randomcast::sweep::run_spec(&spec, threads) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let json = randomcast::sweep::to_json(&report);
            if let Some(dir) = &sweep.out {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("error: cannot create {dir}: {e}");
                    return ExitCode::FAILURE;
                }
                let base = format!("{dir}/{}", report.spec.name);
                let csv = randomcast::sweep::to_csv(&report);
                for (path, content) in
                    [(format!("{base}.json"), &json), (format!("{base}.csv"), &csv)]
                {
                    if let Err(e) = std::fs::write(&path, content) {
                        eprintln!("error: cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("rcast sweep: wrote {path}");
                }
            } else {
                print!("{json}");
            }
            eprint!("{}", randomcast::sweep::human_summary(&report));
            ExitCode::SUCCESS
        }
        Ok(Command::Compare(cmp)) => {
            let threads = cmp
                .threads
                .unwrap_or_else(randomcast::engine::pool::available_threads);
            let mut table = TextTable::new(vec![
                "scheme".into(),
                "rate".into(),
                "energy (J)".into(),
                "PDR (%)".into(),
                "delay (ms)".into(),
                "overhead".into(),
                "variance".into(),
            ]);
            for &scheme in &cmp.schemes {
                for &rate in &cmp.rates {
                    let mut cfg = cmp.base.clone();
                    cfg.scheme = scheme;
                    cfg.traffic.rate_pps = rate;
                    let agg = match AggregateReport::from_parallel(&cfg, &cmp.seeds, threads) {
                        Ok(a) => a,
                        Err(e) => {
                            eprintln!("error: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    table.add_row(vec![
                        scheme.label().into(),
                        format!("{rate}"),
                        fmt_f64(agg.mean_total_energy_j, 0),
                        fmt_f64(agg.mean_pdr * 100.0, 1),
                        fmt_f64(agg.mean_delay_s * 1e3, 0),
                        fmt_f64(agg.mean_overhead, 2),
                        fmt_f64(agg.mean_energy_variance, 0),
                    ]);
                }
            }
            println!("{}", table.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", cli::USAGE);
            // Usage errors exit 2; exit 1 means a failed run or lint
            // findings.
            ExitCode::from(2)
        }
    }
}
