//! The ledger's one command:
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <sim-order16|sim-contended|live-otp4> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric with its unit, then, as the last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A correctness violation prints a reproducer to stderr, no numbers, and
//! exits 1; a malformed command line exits 2.

use otp_ledger::{run, RunArgs, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: otp-ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    match run(&args) {
        Ok(out) => {
            for note in &out.notes {
                println!("# {note}");
            }
            println!("{:<40} {:>16}  unit", "metric", "value");
            for m in &out.metrics {
                println!("{:<40} {:>16.6}  {}", m.name, m.value, m.unit);
            }
            println!("attempted {}  failed {}", out.attempted, out.failed);
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(violation) => {
            eprintln!(
                "CORRECTNESS VIOLATION in {} (seed {}): {violation}",
                args.workload.name(),
                args.seed
            );
            eprintln!(
                "reproduce: cargo run --release --manifest-path ledger/Cargo.toml -- --workload {} --seed {} --seconds {} --trace {}",
                args.workload.name(),
                args.seed,
                args.seconds,
                args.trace as u8
            );
            ExitCode::from(1)
        }
    }
}
