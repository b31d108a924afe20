//! `ofdm_symbol_fast`: full 5G NR OFDM symbols, each on one simulated
//! Snitch in fast mode, through `experiments::mc_symbols_parallel` at
//! `nproc` host threads. One call simulates `nproc` symbols of one
//! (MIMO size, precision) pair; a round calls every pair once, and the
//! round is the workload's operation.

use std::sync::Arc;
use std::time::Instant;

use terasim::experiments::{mc_symbols_parallel, BatchConfig, BatchOutcome, SymbolScenario};
use terasim::serve::BatchRunner;
use terasim_kernels::Precision;
use terasim_terapool::{FastSim, MemPool, PoolStats};

use super::{run_rounds, set_round_metrics, set_setup, timed_setups, Digest, OpRecord, Params, Report, Size};
use crate::stats;
use crate::sys::CpuMeter;
use crate::trace::{self, Tracer};

const SALT: u64 = 1;

/// The 50 MHz / 30 kHz NR carrier's subcarriers.
const NSC_FULL: u32 = 1638;

/// Per-layer metrics this workload measures itself.
pub const LAYERS: &[&str] = &[
    "fast.ns_per_inst",
    "fast.engine_frac",
    "fuse.coverage_pct",
    "sim.cycles",
    "sim.instructions",
    "sim.ipc",
    "batch.utilization",
    "process.cpu_utilization",
    "process.sys_frac",
    "pool.acquire_us",
    "setup.prepare_ms",
    "setup.first_job_extra_ms",
    "trace.overhead_pct",
];

fn pairs(size: Size) -> (&'static [(u32, Precision)], u32) {
    const FULL: [(u32, Precision); 6] = [
        (4, Precision::CDotp16),
        (4, Precision::Half16),
        (8, Precision::CDotp16),
        (8, Precision::Half16),
        (16, Precision::CDotp16),
        (16, Precision::Half16),
    ];
    match size {
        Size::Full => (&FULL, NSC_FULL),
        Size::Tiny => (&FULL[..2], 16),
    }
}

/// The calls of round `r`, drawn in order from the workload's stream.
struct Specs {
    rng: terasim_phy::rng::Rng64,
    rounds: Vec<Vec<BatchConfig>>,
    size: Size,
}

impl Specs {
    fn new(p: &Params) -> Self {
        Self { rng: p.rng(SALT), rounds: Vec::new(), size: p.size }
    }

    fn round(&mut self, r: usize) -> Vec<BatchConfig> {
        let (pairs, nsc) = pairs(self.size);
        while self.rounds.len() <= r {
            let round = pairs.iter().map(|&(n, precision)| BatchConfig {
                n,
                precision,
                nsc,
                seed: self.rng.next_u64(),
                unroll: 2,
            });
            self.rounds.push(round.collect());
        }
        self.rounds[r].clone()
    }
}

pub(crate) fn digest(outcomes: &[BatchOutcome]) -> u64 {
    let mut d = Digest::default();
    for o in outcomes {
        d.word(o.cycles).word(o.instructions).word(u64::from(o.verified));
    }
    d.value()
}

/// One untraced call. `Err` only when the library call itself errs.
fn call(cfg: &BatchConfig, p: &Params) -> Result<(OpRecord, Vec<BatchOutcome>), String> {
    let symbols = p.threads as u32;
    let start = Instant::now();
    let (_, outcomes) = mc_symbols_parallel(cfg, symbols, p.threads).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    let instructions = outcomes.iter().map(|o| o.instructions).sum();
    Ok((OpRecord { wall, instructions, digest: digest(&outcomes) }, outcomes))
}

fn checked(cfg: &BatchConfig, p: &Params, report: &mut Report) -> Option<(OpRecord, Vec<BatchOutcome>)> {
    match call(cfg, p) {
        Ok((rec, outs)) => {
            let ok = outs.len() == p.threads && outs.iter().all(|o| o.verified && o.instructions > 0);
            report.op(ok, || format!("{}x{} {}: unverified symbol", cfg.n, cfg.n, cfg.precision));
            Some((rec, outs))
        }
        Err(e) => {
            report.op(false, || format!("{}x{} {}: {e}", cfg.n, cfg.n, cfg.precision));
            None
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Scenario preparation failures of the traced run's profiled symbols.
pub fn run(p: &Params, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut specs = Specs::new(p);
    let round0 = specs.round(0);
    // Set-up: the cheapest calls of round 0, one per precision. The
    // scenario is prepared inside every call, so what set-up fills is
    // the process-wide lazy state (softfloat tables, allocator arenas).
    let warm: Vec<BatchConfig> = round0.iter().take(2).copied().collect();
    let mut warm_runs: Vec<Vec<OpRecord>> = Vec::new();
    let (_, setup_s) = timed_setups(|| {
        let recs: Vec<OpRecord> =
            warm.iter().filter_map(|c| checked(c, p, &mut report)).map(|(r, _)| r).collect();
        warm_runs.push(recs);
        Ok(())
    })?;

    let seconds = if traced { p.seconds / 2.0 } else { p.seconds };
    let cpu = CpuMeter::start();
    let mut round0_outcomes = Vec::new();
    let rounds = run_rounds(seconds, |r| {
        specs
            .round(r)
            .iter()
            .filter_map(|c| {
                let (rec, outs) = checked(c, p, &mut report)?;
                if r == 0 {
                    round0_outcomes.push(outs);
                }
                Some((*c, rec))
            })
            .collect::<Vec<_>>()
    });
    let (cpu_util, sys_frac) = cpu.read();
    let ops: Vec<OpRecord> = rounds.iter().flatten().map(|(_, r)| *r).collect();

    // Repetitions of the same call must reproduce the same statistics.
    for (i, recs) in warm_runs.iter().enumerate() {
        for (j, rec) in recs.iter().enumerate() {
            let timed = rounds[0].get(j).map(|(_, r)| r.digest);
            report.fail_unless(timed == Some(rec.digest), || {
                format!("set-up {i} call {j} digest differs from round 0")
            });
        }
    }

    if !traced {
        let by_round: Vec<Vec<OpRecord>> =
            rounds.iter().map(|r| r.iter().map(|(_, o)| *o).collect()).collect();
        set_round_metrics(&mut report, &by_round);
        set_setup(&mut report, &setup_s);
        report.note("symbols_per_call", p.threads.to_string());
        report.note(
            "symbols_per_s",
            format!("{}", ops.len() as f64 * p.threads as f64 / ops.iter().map(|o| o.wall).sum::<f64>()),
        );
        return Ok(report);
    }

    report.set("process.cpu_utilization", cpu_util);
    report.set("process.sys_frac", sys_frac);
    let first_extra = warm_runs.first().and_then(|w| w.first()).map(|w| w.wall - rounds[0][0].1.wall);
    report.set("setup.first_job_extra_ms", first_extra.unwrap_or(0.0) * 1e3);
    let outs0: Vec<&BatchOutcome> = round0_outcomes.iter().flatten().collect();
    let cycles: u64 = outs0.iter().map(|o| o.cycles).sum();
    let instructions: u64 = outs0.iter().map(|o| o.instructions).sum();
    report.set("sim.cycles", cycles as f64);
    report.set("sim.instructions", instructions as f64);
    report.set("sim.ipc", instructions as f64 / cycles as f64);

    // The traced re-composition of `mc_symbols_parallel` over the same
    // calls: prepare, a pooled BatchRunner batch, one pooled symbol job
    // per lane. It must reproduce every call's digest.
    let tracer = Tracer::new();
    let mut pools = PoolStats::default();
    let mut traced_wall = 0.0;
    let mut untraced_wall = 0.0;
    for (job, (cfg, rec)) in rounds.iter().flatten().enumerate() {
        let start = Instant::now();
        let res = traced_call(&tracer, job as u64, cfg, p);
        traced_wall += start.elapsed().as_secs_f64();
        untraced_wall += rec.wall;
        match res {
            Ok((outs, stats)) => {
                pools.merge(&stats);
                let ok = outs.len() == p.threads && digest(&outs) == rec.digest;
                report.op(ok, || format!("traced call {job} differs from its untraced run"));
            }
            Err(e) => report.op(false, || format!("traced call {job}: {e}")),
        }
    }
    let spans = tracer.finish();
    let engine = trace::total(&spans, "fast.engine");
    let jobs = trace::total(&spans, "batch.job");
    let batches = trace::total(&spans, "batch.run");
    let traced_instructions: u64 = rounds.iter().flatten().map(|(_, r)| r.instructions).sum();
    report.set("fast.ns_per_inst", engine / traced_instructions as f64);
    report.set("fast.engine_frac", engine / jobs);
    report.set("batch.utilization", jobs / (p.threads as f64 * batches));
    report.set("setup.prepare_ms", stats::median(&trace::lengths(&spans, "setup.prepare")) / 1e6);
    // One symbol per lane: the batch's pool allocates, never recycles.
    report.note("pool_fresh", pools.fresh.to_string());
    report.set("trace.overhead_pct", (traced_wall / untraced_wall - 1.0) * 100.0);
    report.spans = spans;

    // Fusion coverage: one profiled symbol per pair of round 0, checked
    // against the same symbol's untraced outcome.
    let (mut fused, mut total) = (0u64, 0u64);
    let mut last = None;
    for (cfg, outs) in round0.iter().zip(&round0_outcomes) {
        let scenario = SymbolScenario::prepare(cfg).map_err(|e| e.to_string())?;
        match scenario.run_symbol_profiled(cfg.seed) {
            Ok((o, prof)) => {
                fused += prof.fused_retired;
                total += prof.total_retired;
                let same = outs
                    .first()
                    .is_some_and(|u| digest(std::slice::from_ref(&o)) == digest(std::slice::from_ref(u)));
                report.op(same && prof.total_retired == o.instructions, || {
                    format!("profiled {}x{} {} symbol differs", cfg.n, cfg.n, cfg.precision)
                });
            }
            Err(e) => report.op(false, || format!("profiled symbol: {e}")),
        }
        last = Some(scenario);
    }
    report.set("fuse.coverage_pct", 100.0 * fused as f64 / total as f64);
    // The largest symbol scenario of the round.
    let acquire_us = pool_acquire_us(last.expect("round 0 has calls").artifacts());
    report.set("pool.acquire_us", stats::median(&acquire_us));
    report.timing("pool_acquire_us", &acquire_us);
    Ok(report)
}

/// Times `FastSim::from_pool` on recycled arenas of `arts` (µs each).
pub fn pool_acquire_us(arts: &Arc<terasim_terapool::SimArtifacts>) -> Vec<f64> {
    let pool = MemPool::new(Arc::clone(arts));
    drop(FastSim::from_pool(&pool));
    (0..32)
        .map(|_| {
            let start = Instant::now();
            let sim = FastSim::from_pool(&pool);
            let us = start.elapsed().as_secs_f64() * 1e6;
            drop(std::hint::black_box(sim));
            us
        })
        .collect()
}

fn traced_call(
    tr: &Tracer,
    job: u64,
    cfg: &BatchConfig,
    p: &Params,
) -> Result<(Vec<BatchOutcome>, PoolStats), String> {
    tr.span("ofdm.call", None, job, |call| {
        let scenario = tr
            .span("setup.prepare", Some(call), job, |_| SymbolScenario::prepare(cfg))
            .map_err(|e| e.to_string())?;
        let pool = MemPool::new(Arc::clone(scenario.artifacts()));
        let symbols: Vec<u32> = (0..p.threads as u32).collect();
        let outs = tr.span("batch.run", Some(call), job, |batch| {
            BatchRunner::with_workers(p.threads).run_pooled_in(&pool, symbols, |ctx, sym| {
                tr.span("batch.job", Some(batch), job, |j| {
                    let floor = tr.clock_ns();
                    let pool = ctx.pool().expect("a pooled batch hands every job its pool");
                    let r = scenario.run_symbol_pooled(pool, cfg.seed.wrapping_add(u64::from(sym)));
                    if let Ok(o) = &r {
                        tr.derived("fast.engine", j, job, floor, o.wall);
                    }
                    r.map_err(|e| e.to_string())
                })
            })
        });
        let outs: Result<Vec<BatchOutcome>, String> = outs.into_iter().collect();
        Ok((outs?, pool.stats()))
    })
}
