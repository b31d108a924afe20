//! `cluster_mmse_1024`: a 1024-core, 4-domain parallel MMSE (one
//! subcarrier problem per core) at 8×8 and 16×16 16bCDotp, one
//! `ParallelScenario` per size. Each round draws one operand seed and
//! runs every size once in fast mode (`run_fast_seeded`, `nproc`
//! threads) and once cycle-accurate (`run_cycle_seeded` on the sharded
//! engine at `nproc` threads). The round is the workload's operation.

use std::time::Instant;

use terasim::experiments::{CycleEngine, CycleOutcome, FastOutcome, ParallelConfig, ParallelScenario};
use terasim_kernels::Precision;
use terasim_terapool::CycleStats;

use super::{run_rounds, set_round_metrics, set_setup, timed_setups, Digest, OpRecord, Params, Report, Size};
use crate::stats;
use crate::sys::CpuMeter;
use crate::trace::{self, Tracer};

const SALT: u64 = 2;
const CORES: u32 = 1024;

/// Per-layer metrics this workload measures itself.
pub const LAYERS: &[&str] = &[
    "fast.ns_per_inst",
    "fast.engine_frac",
    "fuse.coverage_pct",
    "cycle.ns_per_inst",
    "cycle.ns_per_sim_cycle",
    "cycle.thread_speedup",
    "cycle.domain_imbalance",
    "sim.cycles",
    "sim.instructions",
    "sim.ipc",
    "sim.fast_timing_err_pct",
    "process.cpu_utilization",
    "process.sys_frac",
    "pool.acquire_us",
    "setup.prepare_ms",
    "setup.first_job_extra_ms",
    "trace.overhead_pct",
];

fn sizes(size: Size) -> &'static [u32] {
    match size {
        Size::Full => &[8, 16],
        Size::Tiny => &[4],
    }
}

pub(crate) fn fast_digest(o: &FastOutcome) -> u64 {
    let mut d = Digest::default();
    d.word(o.cluster_cycles)
        .word(o.instructions)
        .word(o.raw_stalls)
        .word(o.wfi_stalls)
        .word(u64::from(o.verified));
    d.value()
}

fn stats_words(d: &mut Digest, s: &CycleStats) {
    d.word(s.instructions).word(s.stall_raw).word(s.stall_lsu).word(s.stall_ins).word(s.stall_acc);
    d.word(s.stall_wfi).word(s.done_at);
}

pub(crate) fn cycle_digest(o: &CycleOutcome) -> u64 {
    let mut d = Digest::default();
    d.word(o.cycles).word(o.instructions).word(u64::from(o.verified));
    stats_words(&mut d, &o.breakdown);
    for g in &o.per_group {
        stats_words(&mut d, g);
    }
    d.value()
}

/// One round's results for one size.
#[derive(Debug, Clone)]
struct Pair {
    size: usize,
    seed: u64,
    fast: Option<(OpRecord, FastOutcome)>,
    cycle: Option<(OpRecord, CycleOutcome)>,
}

fn run_fast(s: &ParallelScenario, p: &Params, seed: u64) -> Result<(OpRecord, FastOutcome), String> {
    let start = Instant::now();
    let o = s.run_fast_seeded(p.threads, seed).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    Ok((OpRecord { wall, instructions: o.instructions, digest: fast_digest(&o) }, o))
}

fn run_cycle(s: &ParallelScenario, threads: usize, seed: u64) -> Result<(OpRecord, CycleOutcome), String> {
    let start = Instant::now();
    let o = s.run_cycle_seeded(CycleEngine::Parallel(threads), seed).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    Ok((OpRecord { wall, instructions: o.instructions, digest: cycle_digest(&o) }, o))
}

/// Runs one size at one seed in both modes and checks the pair.
fn pair(scenarios: &[ParallelScenario], size: usize, seed: u64, p: &Params, report: &mut Report) -> Pair {
    let s = &scenarios[size];
    let n = s.config().n;
    let fast = run_fast(s, p, seed);
    report.op(fast.as_ref().is_ok_and(|(_, o)| o.verified), || {
        format!("fast {n}x{n} seed {seed}: {:?}", fast.as_ref().err())
    });
    let cycle = run_cycle(s, p.threads, seed);
    report.op(cycle.as_ref().is_ok_and(|(_, o)| o.verified), || {
        format!("cycle {n}x{n} seed {seed}: {:?}", cycle.as_ref().err())
    });
    let fast = fast.ok();
    let cycle = cycle.ok();
    if let (Some((_, f)), Some((_, c))) = (&fast, &cycle) {
        report.fail_unless(f.instructions == c.instructions, || {
            format!(
                "{n}x{n} seed {seed}: fast retired {} instructions, cycle {}",
                f.instructions, c.instructions
            )
        });
    }
    Pair { size, seed, fast, cycle }
}

fn prepare(p: &Params) -> Result<(Vec<ParallelScenario>, Vec<f64>), String> {
    let mut prepare_ms = Vec::new();
    let scenarios = sizes(p.size)
        .iter()
        .map(|&n| {
            let config =
                ParallelConfig { cores: CORES, n, precision: Precision::CDotp16, seed: 0, unroll: 2 };
            let start = Instant::now();
            let s = ParallelScenario::prepare(&config).map_err(|e| e.to_string());
            prepare_ms.push(start.elapsed().as_secs_f64() * 1e3);
            s
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((scenarios, prepare_ms))
}

/// Runs the workload.
///
/// # Errors
///
/// Scenario preparation failures.
pub fn run(p: &Params, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = p.rng(SALT);
    let mut seeds: Vec<u64> = vec![rng.next_u64()];
    // Set-up: prepare every size, then one warm-up pair at the smallest
    // size and round 0's seed (lazy lowering of both engines' tables).
    let mut warm: Vec<Pair> = Vec::new();
    let mut prepare_ms = Vec::new();
    let (scenarios, setup_s) = timed_setups(|| {
        let (scenarios, ms) = prepare(p)?;
        prepare_ms.extend(ms);
        warm.push(pair(&scenarios, 0, seeds[0], p, &mut report));
        Ok(scenarios)
    })?;

    let seconds = if traced { p.seconds / 2.0 } else { p.seconds };
    let cpu = CpuMeter::start();
    let rounds = run_rounds(seconds, |r| {
        while seeds.len() <= r {
            seeds.push(rng.next_u64());
        }
        (0..scenarios.len()).map(|i| pair(&scenarios, i, seeds[r], p, &mut report)).collect::<Vec<_>>()
    });
    let (cpu_util, sys_frac) = cpu.read();
    let pairs: Vec<&Pair> = rounds.iter().flatten().collect();

    for (i, w) in warm.iter().enumerate() {
        let timed = &rounds[0][0];
        let same = w.fast.as_ref().map(|f| f.0.digest) == timed.fast.as_ref().map(|f| f.0.digest)
            && w.cycle.as_ref().map(|c| c.0.digest) == timed.cycle.as_ref().map(|c| c.0.digest);
        report.fail_unless(same, || format!("set-up {i} pair digest differs from round 0"));
    }

    let fast_ops: Vec<OpRecord> = pairs.iter().filter_map(|q| q.fast.as_ref().map(|f| f.0)).collect();
    let cycle_ops: Vec<OpRecord> = pairs.iter().filter_map(|q| q.cycle.as_ref().map(|c| c.0)).collect();
    if !traced {
        let by_round: Vec<Vec<OpRecord>> = rounds
            .iter()
            .map(|r| {
                r.iter()
                    .flat_map(|q| {
                        q.fast.as_ref().map(|f| f.0).into_iter().chain(q.cycle.as_ref().map(|c| c.0))
                    })
                    .collect()
            })
            .collect();
        set_round_metrics(&mut report, &by_round);
        set_setup(&mut report, &setup_s);
        let mips = |ops: &[OpRecord]| {
            ops.iter().map(|o| o.instructions).sum::<u64>() as f64
                / ops.iter().map(|o| o.wall).sum::<f64>()
                / 1e6
        };
        report.note("fast_mips", format!("{}", mips(&fast_ops)));
        report.note("cycle_mips", format!("{}", mips(&cycle_ops)));
        report.timing("fast_call_ms", &fast_ops.iter().map(|o| o.wall * 1e3).collect::<Vec<_>>());
        report.timing("cycle_call_ms", &cycle_ops.iter().map(|o| o.wall * 1e3).collect::<Vec<_>>());
        return Ok(report);
    }

    report.set("process.cpu_utilization", cpu_util);
    report.set("process.sys_frac", sys_frac);
    report.set("setup.prepare_ms", stats::median(&prepare_ms));
    let first_extra = match (warm.first().and_then(|w| w.fast.as_ref()), rounds[0][0].fast.as_ref()) {
        (Some(w), Some(t)) => w.0.wall - t.0.wall,
        _ => 0.0,
    };
    report.set("setup.first_job_extra_ms", first_extra * 1e3);

    // Modelled-design counts and fast mode's timing error over round 0.
    let (mut cycles, mut instructions, mut err_pct, mut imbalance) = (0u64, 0u64, Vec::new(), Vec::new());
    for q in &rounds[0] {
        if let (Some((_, f)), Some((_, c))) = (&q.fast, &q.cycle) {
            cycles += c.cycles;
            instructions += c.instructions;
            err_pct.push((f.cluster_cycles as f64 - c.cycles as f64).abs() / c.cycles as f64 * 100.0);
            let groups: Vec<f64> = c.per_group.iter().map(|g| g.instructions as f64).collect();
            let mean = groups.iter().sum::<f64>() / groups.len() as f64;
            imbalance.push(groups.iter().copied().fold(0.0, f64::max) / mean);
        }
    }
    report.set("sim.cycles", cycles as f64);
    report.set("sim.instructions", instructions as f64);
    report.set("sim.ipc", instructions as f64 / (cycles as f64 * f64::from(CORES)));
    report.set("sim.fast_timing_err_pct", err_pct.iter().sum::<f64>() / err_pct.len().max(1) as f64);
    report.set("cycle.domain_imbalance", imbalance.iter().sum::<f64>() / imbalance.len().max(1) as f64);

    // Traced re-run of the same calls; every digest must repeat.
    let tracer = Tracer::new();
    let (mut traced_wall, mut untraced_wall) = (0.0, 0.0);
    let (mut fast_instr, mut cycle_instr, mut cycle_cycles) = (0u64, 0u64, 0u64);
    for (job, q) in pairs.iter().enumerate() {
        let s = &scenarios[q.size];
        let job = job as u64;
        let start = Instant::now();
        let f = tracer.span("cluster.fast", None, job, |id| {
            let floor = tracer.clock_ns();
            let r = s.run_fast_seeded(p.threads, q.seed);
            if let Ok(o) = &r {
                tracer.derived("fast.engine", id, job, floor, o.wall);
            }
            r
        });
        let c = tracer.span("cluster.cycle", None, job, |id| {
            let floor = tracer.clock_ns();
            let r = s.run_cycle_seeded(CycleEngine::Parallel(p.threads), q.seed);
            if let Ok(o) = &r {
                tracer.derived("cycle.engine", id, job, floor, o.wall);
            }
            r
        });
        traced_wall += start.elapsed().as_secs_f64();
        untraced_wall +=
            q.fast.as_ref().map_or(0.0, |f| f.0.wall) + q.cycle.as_ref().map_or(0.0, |c| c.0.wall);
        let same_fast = f.as_ref().ok().map(fast_digest) == q.fast.as_ref().map(|x| x.0.digest);
        let same_cycle = c.as_ref().ok().map(cycle_digest) == q.cycle.as_ref().map(|x| x.0.digest);
        report.op(same_fast, || format!("traced fast call {job} differs from its untraced run"));
        report.op(same_cycle, || format!("traced cycle call {job} differs from its untraced run"));
        if let (Ok(f), Ok(c)) = (f, c) {
            fast_instr += f.instructions;
            cycle_instr += c.instructions;
            cycle_cycles += c.cycles;
        }
    }
    let spans = tracer.finish();
    let fast_engine = trace::total(&spans, "fast.engine");
    let cycle_engine = trace::total(&spans, "cycle.engine");
    report.set("fast.ns_per_inst", fast_engine / fast_instr as f64);
    report.set("fast.engine_frac", fast_engine / trace::total(&spans, "cluster.fast"));
    report.set("cycle.ns_per_inst", cycle_engine / cycle_instr as f64);
    report.set("cycle.ns_per_sim_cycle", cycle_engine / cycle_cycles as f64);
    report.set("trace.overhead_pct", (traced_wall / untraced_wall - 1.0) * 100.0);
    report.spans = spans;

    // Thread scaling of the sharded engine: round 0's smallest size on
    // one thread against the same call at `nproc` threads.
    let q0 = &rounds[0][0];
    let one = run_cycle(&scenarios[0], 1, q0.seed);
    let same = one.as_ref().ok().map(|(r, _)| r.digest) == q0.cycle.as_ref().map(|c| c.0.digest);
    report.op(same, || "cycle run on 1 thread differs from nproc threads".into());
    if let (Ok((_, one)), Some((_, many))) = (&one, &q0.cycle) {
        report.set("cycle.thread_speedup", one.wall.as_secs_f64() / many.wall.as_secs_f64());
    }

    // Fusion coverage over round 0, checked against the untraced runs.
    let (mut fused, mut total) = (0u64, 0u64);
    for q in &rounds[0] {
        match scenarios[q.size].run_fast_profiled(p.threads, q.seed) {
            Ok((o, prof)) => {
                fused += prof.fused_retired;
                total += prof.total_retired;
                let same = Some(fast_digest(&o)) == q.fast.as_ref().map(|f| f.0.digest);
                report.op(same, || "profiled fast run differs from its untraced run".into());
            }
            Err(e) => report.op(false, || format!("profiled fast run: {e}")),
        }
    }
    report.set("fuse.coverage_pct", 100.0 * fused as f64 / total as f64);
    let acquire_us = super::ofdm::pool_acquire_us(scenarios[0].artifacts());
    report.set("pool.acquire_us", stats::median(&acquire_us));
    report.timing("pool_acquire_us", &acquire_us);
    Ok(report)
}
