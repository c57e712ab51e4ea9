//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, the runs attempted and
//! failed, and as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A traced run also
//! writes its spans to `.bench_trace/<workload>-<seed>.jsonl`. Exits 1
//! when a run fails a check or a workload fails its self-check, and 2
//! on a usage error.

use std::fs;
use std::io::BufWriter;
use std::process::ExitCode;

use rcast_bench::AllocProbe;
use rcast_layerbench::measure::{run_workload, Outcome};
use rcast_layerbench::workloads::Workload;

#[global_allocator]
static PROBE: AllocProbe = AllocProbe::new();

const USAGE: &str = "usage: rcast-layerbench --workload <mobile-600|static-loaded-150|idle-1200|campaign-fig7|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&value).ok_or_else(bad)?]
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn print_human(w: Workload, out: &Outcome) {
    println!("== {} ==", w.name());
    for m in &out.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("  runs attempted {}, failed {}", out.attempted, out.failed);
    for n in &out.notes {
        println!("  {n}");
    }
    if let Some(t) = &out.tracer {
        println!(
            "  spans: {} recorded; per name: count, total ms, self ms",
            t.spans().len()
        );
        for (name, s) in t.totals() {
            println!(
                "    {:<22} {:>8} {:>12.3} {:>12.3}",
                name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }
}

fn write_spans(w: Workload, seed: u64, out: &Outcome) -> Result<(), String> {
    let Some(t) = &out.tracer else {
        return Ok(());
    };
    let dir = ".bench_trace";
    let path = format!("{dir}/{}-{seed}.jsonl", w.name());
    fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let file = fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    t.write_jsonl(BufWriter::new(file))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("  spans written to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in args.workloads {
        let mut out = run_workload(w, args.seed, args.seconds, args.trace);
        if let Err(e) = write_spans(w, args.seed, &out) {
            out.problems.push(e);
        }
        print_human(w, &out);
        for p in &out.problems {
            eprintln!("{}: {p}", w.name());
        }
        ok &= out.correct();
        println!("{}", json_line(&out));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
