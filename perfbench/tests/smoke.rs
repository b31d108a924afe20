//! Tiny-size runs of all four workloads, untraced and traced, with every
//! output check armed: none may fail, and each must produce its metrics.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::sys::nproc;
use perfbench::workloads::{self, layers_of, Params, Size, NAMES};

fn params(seed: u64) -> Params {
    Params { seed, seconds: 0.2, size: Size::Tiny, threads: nproc() }
}

#[test]
fn every_workload_runs_clean_untraced() {
    for name in NAMES {
        let report = workloads::run(name, &params(7), false).expect(name);
        assert!(report.attempted > 0, "{name} attempted nothing");
        assert_eq!(report.failed, 0, "{name} failed checks: {:?}", report.problems);
        // `main` adds the process-level two; the workload sets the rest.
        for m in END_TO_END.iter().filter(|m| !["peak_rss_mb", "ok_frac"].contains(&m.name)) {
            let v = report.metrics.get(m.name).copied();
            assert!(v.is_some_and(|v| v.is_finite() && v > 0.0), "{name}: {} = {v:?}", m.name);
        }
    }
}

#[test]
fn every_workload_runs_clean_traced() {
    let mut covered = std::collections::BTreeSet::new();
    for name in NAMES {
        let report = workloads::run(name, &params(11), true).expect(name);
        assert_eq!(report.failed, 0, "{name} failed checks: {:?}", report.problems);
        assert!(!report.spans.is_empty(), "{name} recorded no spans");
        for layer in layers_of(name) {
            let v = report.metrics.get(layer).copied();
            assert!(v.is_some_and(f64::is_finite), "{name}: {layer} = {v:?}");
            covered.insert(*layer);
        }
    }
    // Between them, the workloads measure every per-layer metric.
    for m in PER_LAYER {
        assert!(covered.contains(m.name), "no workload measures {}", m.name);
    }
}

#[test]
fn inputs_follow_the_seed() {
    // Same seed, same simulated statistics; another seed, other inputs.
    let a = workloads::run("ber_iss", &params(3), true).expect("ber_iss");
    let b = workloads::run("ber_iss", &params(3), true).expect("ber_iss");
    let c = workloads::run("ber_iss", &params(4), true).expect("ber_iss");
    assert_eq!(a.metrics["sim.instructions"], b.metrics["sim.instructions"]);
    assert_ne!(a.metrics["sim.instructions"], c.metrics["sim.instructions"]);
}
