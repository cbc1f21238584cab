//! The benchmark's own tests: small runs through the same code path as
//! the real ones.

use otp_ledger::live::{self, LiveSpec};
use otp_ledger::sim::{self, SimSpec};
use otp_ledger::{run, RunArgs, Workload, END_TO_END, PER_LAYER};
use otp_simnet::SimDuration;
use std::time::Duration;

fn small(workload: Workload, seed: u64, trace: bool) -> RunArgs {
    RunArgs { workload, seed, seconds: 1.0, trace }
}

fn names(out: &otp_ledger::Outcome) -> Vec<&'static str> {
    out.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_emits_every_metric() {
    for w in Workload::ALL {
        let timed = run(&small(w, 3, false)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&timed), want, "{} end-to-end metrics", w.name());
        assert!(timed.attempted > 0, "{}", w.name());
        assert!(
            timed.metrics.iter().all(|m| m.value > 0.0 && m.value.is_finite()),
            "{}: end-to-end metrics are never 0: {:?}",
            w.name(),
            timed.metrics
        );
        let traced = run(&small(w, 3, true)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&traced), want, "{} per-layer metrics", w.name());
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()), "{}", w.name());
    }
}

#[test]
fn same_seed_repeats_the_simulated_clock_metrics() {
    for w in [Workload::SimOrder16, Workload::SimContended] {
        let a = run(&small(w, 5, false)).expect("first run");
        let b = run(&small(w, 5, false)).expect("second run");
        for name in ["commit_p50_ms", "commit_p99_ms", "throughput_tps"] {
            assert_eq!(a.get(name), b.get(name), "{} {name}", w.name());
        }
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{}", w.name());
    }
}

#[test]
fn the_seed_is_an_argument_and_changes_the_inputs() {
    let load = SimDuration::from_millis(200);
    for spec in [SimSpec::order16(), SimSpec::contended()] {
        let at = |seed| sim::generate(&spec, seed, load).iter().map(|r| r.at).collect::<Vec<_>>();
        assert_eq!(at(7), at(7), "{}: same seed, same inputs", spec.name);
        assert_ne!(at(7), at(8), "{}: another seed, other inputs", spec.name);
    }
    let spec = LiveSpec::otp4();
    let due = |seed| {
        live::schedule(&spec, seed, Duration::from_millis(200))
            .iter()
            .map(|d| d.at_ns)
            .collect::<Vec<_>>()
    };
    assert_eq!(due(7), due(7));
    assert_ne!(due(7), due(8));

    let a = run(&small(Workload::SimContended, 7, false)).expect("seed 7");
    let b = run(&small(Workload::SimContended, 8, false)).expect("seed 8");
    assert_ne!(a.get("commit_p50_ms"), b.get("commit_p50_ms"), "the seed reaches the run");
}
