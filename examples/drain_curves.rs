//! Scenario: plotting energy-drain trajectories.
//!
//! ```sh
//! cargo run --release --example drain_curves
//! ```
//!
//! The paper's Figure 5 shows end-of-run energy; operators usually want
//! the trajectory — how fast each scheme drains the network and when
//! the hungriest node would cross a battery limit. This example turns
//! on the event ledger, replays its energy spans up to every ~5 s
//! interval boundary, prints an ASCII drain chart of the network
//! total, and reports the average power draw per scheme.

use randomcast::metrics::fmt_f64;
use randomcast::{run_sim, Scheme, SimConfig, SimDuration, SimTime};

fn main() -> Result<(), String> {
    println!("Energy drain trajectories: 50 nodes, 10 flows, 120 s\n");

    let mut curves = Vec::new();
    let mut times = Vec::new();
    for scheme in [Scheme::Dot11, Scheme::Odpm, Scheme::Rcast] {
        let mut cfg = SimConfig::smoke(scheme, 5);
        cfg.obs = true;
        // Sample at the first interval end, then at each interval end
        // at least 5 s after the previous sample, plus the run end.
        let bi = cfg.mac.beacon_interval;
        let intervals = cfg.beacon_intervals();
        times = vec![SimTime::ZERO + bi];
        for k in 2..=intervals {
            let t = SimTime::ZERO + bi * k;
            if t - times[times.len() - 1] >= SimDuration::from_secs(5) || k == intervals {
                times.push(t);
            }
        }
        let model = cfg.energy;
        let report = run_sim(cfg)?;
        let obs = report.obs.as_ref().expect("ledger enabled");
        let totals: Vec<f64> = times
            .iter()
            .map(|&t| obs.replay_energy(model, t).iter().sum())
            .collect();
        let span = (times[times.len() - 1] - times[0]).as_secs_f64();
        println!(
            "{:>7}: average network draw {} W ({} J total)",
            scheme.label(),
            fmt_f64((totals[totals.len() - 1] - totals[0]) / span, 1),
            fmt_f64(report.energy.total_joules(), 0),
        );
        curves.push((scheme, totals));
    }

    // ASCII chart: network total vs time, one row per scheme sample.
    println!("\nnetwork energy consumed (each █ ≈ 150 J):");
    for (i, t) in times.iter().enumerate().step_by(4) {
        print!("{:>5.0} s |", t.as_secs_f64());
        for (scheme, totals) in &curves {
            let bars = (totals[i] / 150.0).round() as usize;
            print!(
                " {:>6} {:<46}",
                scheme.label(),
                "█".repeat(bars.min(46))
            );
        }
        println!();
    }

    println!();
    println!("802.11 drains linearly at full tilt; ODPM tracks it at a");
    println!("discount; Rcast's slope is the shallowest from the start.");
    Ok(())
}
