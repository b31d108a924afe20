//! The four workloads. Each one derives every input from the run's seed,
//! times its calls into the library, checks every output, and returns a
//! [`Report`] whose metrics are the end-to-end set (untraced) or the
//! per-layer set it reaches (traced).

pub mod ber;
pub mod cluster;
pub mod ofdm;
pub mod serve;

use std::collections::BTreeMap;
use std::time::Instant;

use terasim_phy::rng::Rng64;

use crate::stats::{self, Summary};
use crate::trace::Span;

/// Workload names, in the order probes run. `BENCHMARK.json` gates the
/// first two; `ber_iss` and `serve_mix` were too unsteady on the tuning
/// host to bound (see README.md) and run on demand and as layer probes.
pub const NAMES: [&str; 4] = ["ofdm_symbol_fast", "cluster_mmse_1024", "ber_iss", "serve_mix"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Problem sizes: the benchmark's own, or the tiny one the smoke test
/// and the traced run's layer probes use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-scale sizes that still run every output check.
    Tiny,
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Problem sizes.
    pub size: Size,
    /// Host threads (`nproc`).
    pub threads: usize,
}

impl Params {
    /// The input stream of one workload: the seed mixed with a per-workload
    /// salt, so workloads sharing a seed draw unrelated inputs.
    pub fn rng(&self, salt: u64) -> Rng64 {
        Rng64::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (set-up warm-ups included).
    pub attempted: u64,
    /// Operations that failed, came back unverified, were shed, timed out
    /// or mismatched a repetition.
    pub failed: u64,
    /// The first failed checks, for the log.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Timings for the report, each summarised with its sample count.
    pub timings: Vec<(String, Summary)>,
    /// Extra report entries: key and a JSON value.
    pub notes: Vec<(String, String)>,
    /// The traced run's spans.
    pub spans: Vec<Span>,
}

impl Report {
    /// Counts one operation; a failed one is logged under `what`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.fail_unless(ok, what);
    }

    /// Marks an already counted operation failed unless `ok`.
    pub fn fail_unless(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a timing sample set (milliseconds) for the report.
    pub fn timing(&mut self, name: impl Into<String>, samples_ms: &[f64]) {
        if !samples_ms.is_empty() {
            self.timings.push((name.into(), Summary::of(samples_ms)));
        }
    }

    /// Records a report note.
    pub fn note(&mut self, key: impl Into<String>, json_value: impl Into<String>) {
        self.notes.push((key.into(), json_value.into()));
    }

    /// Folds a probe's counts and problems into this report.
    pub fn absorb_counts(&mut self, probe: &Report, label: &str) {
        self.attempted += probe.attempted;
        self.failed += probe.failed;
        self.problems.extend(probe.problems.iter().map(|p| format!("{label}: {p}")));
    }
}

/// One timed library call of a round-based workload.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Host seconds inside the call.
    pub wall: f64,
    /// Simulated instructions the call retired.
    pub instructions: u64,
    /// Digest of the call's simulated statistics.
    pub digest: u64,
}

/// Runs whole rounds until `seconds` have passed (at least one round)
/// and returns every round's records.
pub fn run_rounds<T>(seconds: f64, mut round: impl FnMut(usize) -> Vec<T>) -> Vec<Vec<T>> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        rounds.push(round(rounds.len()));
    }
    rounds
}

/// Sets up [`SETUPS`] times and returns the last set-up with the
/// duration of each, in seconds.
///
/// # Errors
///
/// Propagates the first set-up error.
pub fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Sets the end-to-end throughput and latency metrics of a round-based
/// workload, where one operation is one round: a pass over the
/// workload's configuration grid, timed as the sum of its calls.
/// Throughputs are medians over rounds, so one disturbed round does not
/// move them. Call and round timings go to the report.
pub fn set_round_metrics(report: &mut Report, rounds: &[Vec<OpRecord>]) {
    let round_s: Vec<f64> = rounds.iter().map(|r| r.iter().map(|o| o.wall).sum()).collect();
    let round_mips: Vec<f64> = rounds
        .iter()
        .zip(&round_s)
        .map(|(r, s)| r.iter().map(|o| o.instructions).sum::<u64>() as f64 / s / 1e6)
        .collect();
    let round_ms: Vec<f64> = round_s.iter().map(|s| s * 1e3).collect();
    let sorted = stats::sorted(&round_ms);
    report.set("ops_per_s", 1e3 / stats::percentile(&sorted, 500));
    report.set("sim_mips", stats::median(&round_mips));
    report.set("op_p50_ms", stats::percentile(&sorted, 500));
    report.set("op_p90_ms", stats::percentile(&sorted, 900));
    report.timing("round_ms", &round_ms);
    report.timing("call_ms", &rounds.iter().flatten().map(|o| o.wall * 1e3).collect::<Vec<_>>());
}

/// Sets `setup_s` (median of the set-ups) and its report timing.
pub fn set_setup(report: &mut Report, setup_s: &[f64]) {
    report.set("setup_s", stats::median(setup_s));
    report.timing("setup_ms", &setup_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
}

/// Incremental FNV-1a over `u64` words: the digest of simulated
/// statistics that repetitions of the same code must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in one word.
    pub fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Runs one workload by name.
///
/// # Errors
///
/// Unknown workload names and set-up failures; output-check failures
/// are counted in the report instead.
pub fn run(name: &str, p: &Params, traced: bool) -> Result<Report, String> {
    match name {
        "ofdm_symbol_fast" => ofdm::run(p, traced),
        "cluster_mmse_1024" => cluster::run(p, traced),
        "ber_iss" => ber::run(p, traced),
        "serve_mix" => serve::run(p, traced),
        other => Err(format!("unknown workload {other:?}; expected one of {NAMES:?}")),
    }
}

/// The per-layer metrics a workload's traced run measures itself.
pub fn layers_of(name: &str) -> &'static [&'static str] {
    match name {
        "ofdm_symbol_fast" => ofdm::LAYERS,
        "cluster_mmse_1024" => cluster::LAYERS,
        "ber_iss" => ber::LAYERS,
        _ => serve::LAYERS,
    }
}
