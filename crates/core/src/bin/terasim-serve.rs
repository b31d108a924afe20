//! `terasim-serve` — the co-simulation serving daemon under synthetic load.
//!
//! Starts a [`Daemon`], drives the standard mixed request traffic
//! (symbol batches, fast and cycle cluster runs, hardware-in-the-loop
//! BER points) through the deterministic open-loop generator, drains,
//! and prints the load report.
//!
//! ```text
//! terasim-serve [--workers N] [--depth N] [--cache N] [--requests N]
//!               [--rate R] [--seed S] [--budget B] [--fusion on|off]
//!               [--epochs fixed|adaptive] [--check]
//! ```
//!
//! `--rate 0` (the default) saturates the admission queue to measure
//! sustained capacity; a positive rate paces Poisson arrivals at that
//! many requests per second, shedding on overload. `--check` makes the
//! exit status a smoke-test verdict: failure unless every admitted
//! request completed and the artifact cache was actually hit. A bad
//! flag exits 2 with one error line naming it.

use std::process::ExitCode;

use terasim::daemon::{open_loop, standard_mix, Daemon, DaemonConfig};
use terasim::experiments::EngineOptions;
use terasim::serve::RunPolicy;

const USAGE: &str = "usage: terasim-serve [--workers N] [--depth N] [--cache N] [--requests N] [--rate R] [--seed S] [--budget B] [--fusion on|off] [--epochs fixed|adaptive] [--check]";

struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The flag's value parsed as `T`, or `default` when absent. A value
    /// that is present but malformed is a hard error naming the flag —
    /// never silently replaced by the default.
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for {name}: {v:?}")),
        }
    }

    /// A count flag that must be at least 1.
    fn positive(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name, default)? {
            0 => Err(format!("invalid value for {name}: 0 (expected at least 1)")),
            v => Ok(v),
        }
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    if args.has("--help") || args.has("-h") {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    match serve(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parses the command line (a bad flag is `Err`, exit 2), then serves
/// the synthetic load and reports.
fn serve(args: &Args) -> Result<ExitCode, String> {
    let workers = args.positive("--workers", 1)?;
    let depth = args.positive("--depth", 16)?;
    let cache = args.positive("--cache", 4)?;
    let requests: usize = args.get("--requests", 40)?;
    let rate: f64 = args.get("--rate", 0.0)?;
    let seed: u64 = args.get("--seed", 1)?;
    let budget: u64 = args.get("--budget", 0)?;
    let check = args.has("--check");
    let engine = EngineOptions::parse(args.value("--fusion"), args.value("--epochs"))?;

    let mut policy = RunPolicy::new();
    if budget > 0 {
        policy = policy.with_budget(budget);
    }
    let daemon =
        Daemon::start(DaemonConfig { workers, queue_depth: depth, cache_capacity: cache, policy, engine });

    println!(
        "terasim-serve: workers={workers} depth={depth} cache={cache} requests={requests} rate={rate} seed={seed} {engine}"
    );
    let report = open_loop(&daemon, &standard_mix(), rate, requests, seed);
    let stats = daemon.shutdown();

    println!(
        "offered {} accepted {} rejected {} completed {} failed {}",
        report.offered, report.accepted, report.rejected, report.completed, report.failed
    );
    println!(
        "throughput {:.2} jobs/s  latency p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
        report.jobs_per_sec,
        report.p50_ns as f64 / 1e6,
        report.p99_ns as f64 / 1e6,
        report.max_ns as f64 / 1e6
    );
    println!(
        "cache hits {} misses {} (hit rate {:.1}%)  entries {}/{} evictions {}",
        report.cache_hits,
        report.cache_misses,
        report.hit_rate() * 100.0,
        stats.cache.entries,
        stats.cache.capacity,
        stats.cache.evictions
    );
    println!(
        "pools fresh {} recycled {} quarantined {} trimmed {}",
        stats.pools.fresh, stats.pools.recycled, stats.pools.quarantined, stats.pools.trimmed
    );

    if check {
        if report.failed > 0 {
            eprintln!("check FAILED: {} admitted requests did not complete", report.failed);
            return Ok(ExitCode::FAILURE);
        }
        if report.cache_hits == 0 {
            eprintln!("check FAILED: artifact cache was never hit across {} requests", report.completed);
            return Ok(ExitCode::FAILURE);
        }
        println!("check OK: zero failures, cross-request cache hits present");
    }
    Ok(ExitCode::SUCCESS)
}
