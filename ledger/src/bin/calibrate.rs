//! Rate calibration of the simulated workloads: runs each offered rate at
//! two run lengths and prints simulated commit latency. Below capacity
//! the two lengths agree; past it the longer run's latency grows with
//! the backlog. The rates in `sim.rs` are set from this sweep (see
//! README.md).
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml --bin calibrate -- \
//!     sim-contended 1000 2000 4000 8000
//! ```
//!
//! `--no-crash` (first argument) leaves out the workload's crash, so the
//! sweep measures the fault-free capacity; `--secs a,b` sets the two run
//! lengths (default `0.5,1`).

use otp_ledger::live::LiveSpec;
use otp_ledger::sim::{self, SimSpec};
use otp_ledger::{RunArgs, Workload};
use otp_simnet::SimDuration;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let no_crash = args.first().is_some_and(|a| a == "--no-crash");
    if no_crash {
        args.remove(0);
    }
    let mut lengths = vec![0.5, 1.0];
    if args.first().is_some_and(|a| a == "--secs") && args.len() > 1 {
        lengths = args[1].split(',').filter_map(|x| x.parse().ok()).collect();
        args.drain(..2);
    }
    let Some((name, rates)) = args.split_first() else {
        eprintln!("usage: calibrate [--no-crash] [--secs a,b] <sim-order16|sim-contended|live-otp4> <rate>...");
        std::process::exit(2);
    };
    if name == "live-otp4" {
        return live(rates);
    }
    let mut base = match name.as_str() {
        "sim-order16" => SimSpec::order16(),
        "sim-contended" => SimSpec::contended(),
        other => {
            eprintln!("unknown simulated workload {other}");
            std::process::exit(2);
        }
    };
    if no_crash {
        base.crash = None;
    }
    println!("rate_tps  load_s  completed  p50_ms  p99_ms  abort_rate  frames_per_commit");
    for rate in rates {
        let Ok(rate) = rate.parse::<f64>() else {
            eprintln!("bad rate {rate}");
            std::process::exit(2);
        };
        for &secs in &lengths {
            let spec = SimSpec { rate_tps: rate, ..base.clone() };
            let load = SimDuration::from_secs_f64(secs);
            let reqs = sim::generate(&spec, 1, load);
            let (cluster, procs) = sim::build(&spec, 1, None);
            let d = sim::drive(&spec, &reqs, cluster, &procs, load, None);
            let stats = d.cluster.stats();
            let mut lat = stats.commit_latency.clone();
            println!(
                "{rate:8.0}  {secs:6.2}  {:9}  {:6.3}  {:6.3}  {:10.4}  {:17.2}",
                stats.completed,
                lat.quantile(0.5).as_secs_f64() * 1e3,
                lat.quantile(0.99).as_secs_f64() * 1e3,
                stats.abort_rate(),
                stats.network_frames as f64 / stats.completed.max(1) as f64
            );
        }
    }
}

/// The threaded workload at each rate: 5 s timed runs (the generator
/// refuses nothing below capacity; past it `try_submit` refusals and
/// latency climb).
fn live(rates: &[String]) {
    for rate in rates {
        let Ok(rate) = rate.parse::<f64>() else {
            eprintln!("bad rate {rate}");
            std::process::exit(2);
        };
        let spec = LiveSpec { rate_tps: rate, ..LiveSpec::otp4() };
        let args = RunArgs { workload: Workload::LiveOtp4, seed: 1, seconds: 10.0, trace: false };
        match otp_ledger::live::run(&spec, &args) {
            Ok(out) => {
                println!("rate {rate}: {}", out.notes.join("; "));
                for m in &out.metrics {
                    println!("  {} = {:.4} {}", m.name, m.value, m.unit);
                }
            }
            Err(e) => println!("rate {rate}: correctness violation: {e}"),
        }
    }
}
