//! The paper's experiment harness: prepared scenarios and one job path
//! per backend.
//!
//! A scenario ([`ParallelScenario`], [`SymbolScenario`]) sets up the
//! kernel and its shared artifacts once, under one [`EngineOptions`]
//! value. Every job then runs through exactly one path per backend —
//! [`ParallelScenario::fast`], [`ParallelScenario::cycle`] and
//! [`SymbolScenario::symbol`] — which draws operands through the PHY,
//! runs the simulator, *verifies* the architectural results against the
//! native bit-true model, and reports timing/statistics. A [`Job`] says
//! where the job's memory comes from and how it is supervised. The figure
//! binaries in `terasim-bench` are thin wrappers over these.

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use terasim_iss::{EpochMode, FusionMode, FusionProfile, RunConfig, Trap};
use terasim_kernels::{data, native, MmseKernel, Precision, ProblemLayout, C64};
use terasim_phy::{BerPoint, ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_terapool::{
    CancelToken, ClusterMem, ClusterResult, CycleSim, CycleStats, EpochReport, FastSim, MemPool,
    SimArtifacts, Topology,
};

use crate::detectors::DetectorKind;
use crate::serve::{BatchRunner, JobCtx, JobError};

/// The engine options a scenario is prepared with: the one place the
/// settable engine values are defined. `tsim`, `terasim-serve` (through
/// [`DaemonConfig`](crate::daemon::DaemonConfig)), `mips` and the
/// scenario `prepare_with`s all read them from this value. Results are
/// bit-identical under every combination; only dispatch cost (fusion)
/// and epoch cadence (epochs) change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineOptions {
    /// Superinstruction fusion and SPMD convergence for fast-mode jobs
    /// (`--fusion on|off`, default on).
    pub fusion: FusionMode,
    /// Epoch cadence of the sharded cycle engine (`--epochs
    /// fixed|adaptive`, default adaptive).
    pub epochs: EpochMode,
}

impl EngineOptions {
    /// Parses the `--fusion` and `--epochs` flag values; an absent flag
    /// keeps its default.
    ///
    /// # Errors
    ///
    /// A one-line message naming the flag and its legal values.
    pub fn parse(fusion: Option<&str>, epochs: Option<&str>) -> Result<Self, String> {
        let fusion = match fusion {
            None | Some("on") => FusionMode::On,
            Some("off") => FusionMode::Off,
            Some(v) => return Err(format!("invalid value for --fusion: {v:?} (expected on|off)")),
        };
        let epochs = match epochs {
            None | Some("adaptive") => EpochMode::Adaptive,
            Some("fixed") => EpochMode::Fixed,
            Some(v) => return Err(format!("invalid value for --epochs: {v:?} (expected fixed|adaptive)")),
        };
        Ok(Self { fusion, epochs })
    }

    fn run_config(self) -> RunConfig {
        RunConfig { fusion: self.fusion, epochs: self.epochs, ..RunConfig::default() }
    }
}

impl fmt::Display for EngineOptions {
    /// The flag spelling: `fusion=on epochs=adaptive`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fusion = if self.fusion == FusionMode::On { "on" } else { "off" };
        let epochs = if self.epochs == EpochMode::Adaptive { "adaptive" } else { "fixed" };
        write!(f, "fusion={fusion} epochs={epochs}")
    }
}

/// One scenario job: its operand seed, where its cluster memory comes
/// from, and how it is supervised. [`Job::new`] is an unsupervised job on
/// fresh memory; [`Job::from_ctx`] takes a batch's pool, budget and
/// cancel token. Override single fields with struct-update syntax
/// (`Job { budget: None, ..Job::from_ctx(ctx, seed) }`).
#[derive(Debug, Clone, Default)]
pub struct Job {
    /// Operand seed.
    pub seed: u64,
    /// Recycling pool for the job's cluster memory. Used only when it was
    /// built over the scenario's own artifacts; otherwise the job runs on
    /// fresh memory and the pool is left untouched.
    pub pool: Option<Arc<MemPool>>,
    /// Per-core instruction budget; exhaustion is
    /// [`JobError::BudgetExhausted`].
    pub budget: Option<u64>,
    /// Cooperative cancel token, polled at engine safe points.
    pub cancel: Option<CancelToken>,
    /// Fast-mode timing configuration override (the latency-model
    /// ablation, DESIGN.md D2). One whose latency model matches the
    /// scenario's keeps the shared lowered table; otherwise the job
    /// re-lowers privately. Cycle-mode jobs time with the cycle model and
    /// ignore it.
    pub config: Option<RunConfig>,
}

impl Job {
    /// An unsupervised job on fresh memory.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// A job under a batch supervisor: the batch's pool (if any), and its
    /// [`RunPolicy`](crate::serve::RunPolicy)'s budget and cancel token.
    pub fn from_ctx(ctx: &JobCtx, seed: u64) -> Self {
        Self {
            seed,
            pool: ctx.pool().cloned(),
            budget: ctx.budget(),
            cancel: ctx.cancel().cloned(),
            config: None,
        }
    }
}

/// Configuration of the parallel-MMSE experiment (Figures 5, 7, 8): one
/// subcarrier problem per core, all cores at once.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Simulated cores (1024 in the paper; scaled configs keep the
    /// hierarchy shape).
    pub cores: u32,
    /// MIMO size.
    pub n: u32,
    /// Kernel precision.
    pub precision: Precision,
    /// Seed for operand generation.
    pub seed: u64,
    /// Dot-product unroll factor.
    pub unroll: u32,
}

/// Result of a fast-mode (Banshee-equivalent) parallel run.
#[derive(Debug, Clone)]
pub struct FastOutcome {
    /// Host wall-clock time of the emulation.
    pub wall: Duration,
    /// Estimated cluster cycles (slowest hart).
    pub cluster_cycles: u64,
    /// Total retired instructions.
    pub instructions: u64,
    /// Total RAW stall estimate.
    pub raw_stalls: u64,
    /// Total barrier idle estimate.
    pub wfi_stalls: u64,
    /// Simulation speed in MIPS (instructions / wall second).
    pub mips: f64,
    /// All results matched the bit-true native model.
    pub verified: bool,
}

/// Result of a cycle-accurate (RTL-equivalent) parallel run.
#[derive(Debug, Clone)]
pub struct CycleOutcome {
    /// Host wall-clock time of the simulation.
    pub wall: Duration,
    /// Cluster makespan in cycles.
    pub cycles: u64,
    /// Aggregated per-class breakdown (instructions and stalls).
    pub breakdown: CycleStats,
    /// Per-group breakdown (the sharded engine's arbitration domains).
    pub per_group: Vec<CycleStats>,
    /// Total retired instructions.
    pub instructions: u64,
    /// All results matched the bit-true native model.
    pub verified: bool,
    /// Scheduling and phase telemetry of the sharded engine. All zero
    /// when the run never sharded: single-group topologies (the one
    /// engine runs solo, without epochs) and the reference scan.
    pub epochs: EpochReport,
}

/// Picks a topology that fits the experiment: the TeraPool hierarchy at
/// `cores`, with banks deepened (larger tile SPM) when the operand set of
/// big MIMO sizes exceeds the 32 KiB/tile of the taped-out design — the
/// capacity substitution recorded in `DESIGN.md`.
pub fn topology_for(
    cores: u32,
    active: u32,
    n: u32,
    precision: Precision,
    problems_per_core: u32,
) -> Topology {
    let mut topo = Topology::scaled(cores);
    let kernel = kernel_for(n, precision, problems_per_core, active, 2);
    while kernel.layout(&topo).is_err() && topo.tile_spm_bytes < (1 << 19) {
        topo.tile_spm_bytes *= 2;
    }
    assert!(topo.tile_spm_bytes <= Topology::SEQ_STRIDE, "tile SPM outgrew the sequential-view stride");
    topo
}

fn kernel_for(n: u32, precision: Precision, ppc: u32, active: u32, unroll: u32) -> MmseKernel {
    MmseKernel::new(n, precision).with_problems_per_core(ppc).with_active_cores(active).with_unroll(unroll)
}

/// Generated operands for verification.
struct ProblemSet {
    problems: Vec<(Vec<C64>, Vec<C64>, f64)>,
}

fn generate_problems(mem: &ClusterMem, layout: &ProblemLayout, seed: u64) -> ProblemSet {
    let scenario = Mimo {
        n_tx: layout.n as usize,
        n_rx: layout.n as usize,
        modulation: Modulation::Qam16,
        channel: ChannelKind::Rayleigh,
    };
    let mut generator = TxGenerator::new(scenario, 12.0, seed);
    let mut problems = Vec::with_capacity(layout.problems as usize);
    for p in 0..layout.problems {
        let t = generator.next_transmission();
        let h: Vec<C64> = t.h.iter().map(|z| (*z).into()).collect();
        let y: Vec<C64> = t.y.iter().map(|z| (*z).into()).collect();
        data::write_problem(mem, layout, p, &h, &y, t.sigma);
        problems.push((h, y, t.sigma));
    }
    ProblemSet { problems }
}

fn verify(mem: &ClusterMem, layout: &ProblemLayout, set: &ProblemSet) -> bool {
    set.problems.iter().enumerate().all(|(p, (h, y, sigma))| {
        let got = data::read_xhat(mem, layout, p as u32);
        let want = native::detect(layout.precision, layout.n as usize, h, y, *sigma);
        got.iter()
            .zip(&want)
            .all(|(a, b)| a[0].to_bits() == b[0].to_bits() && a[1].to_bits() == b[1].to_bits())
    })
}

fn mips(instructions: u64, wall: Duration) -> f64 {
    instructions as f64 / wall.as_secs_f64().max(1e-9) / 1e6
}

/// What both scenario types hold: the problem layout and the immutable
/// artifact set every job shares.
#[derive(Debug)]
struct Prepared {
    layout: ProblemLayout,
    arts: Arc<SimArtifacts>,
}

/// A verified fast-mode run.
struct FastRun {
    wall: Duration,
    result: ClusterResult,
    verified: bool,
}

impl Prepared {
    fn build(topo: Topology, kernel: &MmseKernel, rc: RunConfig) -> Result<Self, Box<dyn Error>> {
        let layout = kernel.layout(&topo)?;
        let image = kernel.build(&topo)?;
        Ok(Self { layout, arts: SimArtifacts::build_with(topo, &image, rc)? })
    }

    /// The job's simulator: on the job's pool when that pool was built
    /// over these artifacts, on fresh memory otherwise.
    fn sim<S>(&self, job: &Job, fresh: fn(Arc<SimArtifacts>) -> S, pooled: fn(&Arc<MemPool>) -> S) -> S {
        match &job.pool {
            Some(pool) if Arc::ptr_eq(pool.artifacts(), &self.arts) => pooled(pool),
            _ => fresh(Arc::clone(&self.arts)),
        }
    }

    /// The one fast-mode job path of both scenario types: memory, budget,
    /// timing override and cancel token from `job`, operands from its
    /// seed, the engine driven by `run`, faults mapped to [`JobError`]s.
    fn fast<R>(
        &self,
        job: Job,
        run: impl FnOnce(&mut FastSim) -> Result<(ClusterResult, R), Trap>,
    ) -> Result<(FastRun, R), JobError> {
        let mut sim = self.sim(&job, FastSim::from_artifacts, FastSim::from_pool);
        if job.config.is_some() || job.budget.is_some() {
            let mut rc = job.config.unwrap_or_else(|| self.arts.fast_config().clone());
            if let Some(b) = job.budget {
                rc.max_instructions = b;
            }
            sim.set_config(rc);
        }
        if let Some(cancel) = job.cancel {
            sim.set_cancel(cancel);
        }
        let set = generate_problems(sim.memory(), &self.layout, job.seed);
        let start = Instant::now();
        let (result, extra) = run(&mut sim)?;
        let wall = start.elapsed();
        JobError::check_fast(&result, job.budget)?;
        Ok((FastRun { wall, result, verified: verify(sim.memory(), &self.layout, &set) }, extra))
    }
}

fn fast_outcome(run: FastRun) -> FastOutcome {
    let instructions = run.result.total_instructions();
    FastOutcome {
        wall: run.wall,
        cluster_cycles: run.result.cycles,
        instructions,
        raw_stalls: run.result.per_core.iter().map(|s| s.raw_stalls).sum(),
        wfi_stalls: run.result.per_core.iter().map(|s| s.wfi_stalls).sum(),
        mips: mips(instructions, run.wall),
        verified: run.verified,
    }
}

fn batch_outcome(run: FastRun) -> BatchOutcome {
    let instructions = run.result.total_instructions();
    BatchOutcome {
        wall: run.wall,
        cycles: run.result.cycles,
        instructions,
        mips: mips(instructions, run.wall),
        verified: run.verified,
    }
}

/// A prepared parallel-MMSE scenario: the immutable artifact set —
/// topology, generated kernel image, decoded program and lowered micro-op
/// tables — built **once** and shared (via [`SimArtifacts`]) by every job
/// run from it, on either backend, at any seed.
///
/// Batch clients ([`crate::serve::BatchRunner`] jobs, the figure
/// binaries) prepare a scenario and fan [`Job`]s out over it.
#[derive(Debug)]
pub struct ParallelScenario {
    config: ParallelConfig,
    prepared: Prepared,
}

impl ParallelScenario {
    /// [`prepare_with`](Self::prepare_with) under the default
    /// [`EngineOptions`].
    ///
    /// # Errors
    ///
    /// Propagates kernel build and translation errors.
    pub fn prepare(config: &ParallelConfig) -> Result<Self, Box<dyn Error>> {
        Self::prepare_with(config, EngineOptions::default())
    }

    /// Builds the scenario's shared artifacts: picks the topology,
    /// generates and assembles the kernel, translates it, and configures
    /// the fast mode with the paper's rule (every access charged the
    /// topology's largest non-contended latency, 9 cycles on full
    /// TeraPool). `options` sets fusion for the fast-mode jobs and the
    /// epoch cadence for the sharded cycle-mode jobs.
    ///
    /// # Errors
    ///
    /// Propagates kernel build and translation errors.
    pub fn prepare_with(config: &ParallelConfig, options: EngineOptions) -> Result<Self, Box<dyn Error>> {
        let topo = topology_for(config.cores, config.cores, config.n, config.precision, 1);
        let kernel = kernel_for(config.n, config.precision, 1, config.cores, config.unroll);
        let mut rc = options.run_config();
        rc.latency.load = topo.max_access_latency();
        Ok(Self { config: *config, prepared: Prepared::build(topo, &kernel, rc)? })
    }

    /// The scenario's shared artifact set.
    pub fn artifacts(&self) -> &Arc<SimArtifacts> {
        &self.prepared.arts
    }

    /// The configuration the scenario was prepared from.
    pub fn config(&self) -> &ParallelConfig {
        &self.config
    }

    /// One fast-mode job on `host_threads` host threads. Memory, budget,
    /// cancellation and any timing override come from `job`; results are
    /// bit-identical whichever memory the job runs on.
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault: trap, deadlock,
    /// exhausted budget or cancellation.
    pub fn fast(&self, host_threads: usize, job: Job) -> Result<FastOutcome, JobError> {
        let (run, ()) = self.prepared.fast(job, |sim| Ok((sim.run_all(host_threads)?, ())))?;
        Ok(fast_outcome(run))
    }

    /// [`fast`](Self::fast) for an unsupervised job on fresh memory.
    ///
    /// # Errors
    ///
    /// Returns the job's fault, boxed.
    pub fn run_fast_seeded(&self, host_threads: usize, seed: u64) -> Result<FastOutcome, Box<dyn Error>> {
        Ok(self.fast(host_threads, Job::new(seed))?)
    }

    /// One fast-mode job with fusion-coverage instrumentation: returns the
    /// outcome plus the dynamic uop-pair histogram and `fused_pct` merged
    /// across all harts (the `mips --fusion-report` leg). Instrumented
    /// execution order is unfused, so the outcome is bit-identical to
    /// [`fast`](Self::fast) — but slower; don't use its wall time for
    /// speed claims.
    ///
    /// # Errors
    ///
    /// Returns the job's fault, boxed.
    pub fn run_fast_profiled(
        &self,
        host_threads: usize,
        seed: u64,
    ) -> Result<(FastOutcome, FusionProfile), Box<dyn Error>> {
        let (run, profile) = self.prepared.fast(Job::new(seed), |sim| sim.run_all_profiled(host_threads))?;
        Ok((fast_outcome(run), profile))
    }

    /// One cycle-accurate job on `engine`. The job's budget feeds the
    /// engine's per-core safety net (`CycleSim::max_instructions`) and
    /// its cancel token is polled between engine windows, scan passes
    /// and epoch boundaries. In a batch, pass
    /// `CycleEngine::Parallel(ctx.claimable_threads())` so a sharded job
    /// widens into worker lanes the batch has stopped using — results are
    /// bit-identical on every engine at every thread count.
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any.
    pub fn cycle(&self, engine: CycleEngine, job: Job) -> Result<CycleOutcome, JobError> {
        let p = &self.prepared;
        let mut sim = p.sim(&job, CycleSim::from_artifacts, CycleSim::from_pool);
        if let Some(b) = job.budget {
            sim.max_instructions = b;
        }
        if let Some(cancel) = job.cancel {
            sim.set_cancel(cancel);
        }
        let topo = p.arts.topology();
        let set = generate_problems(sim.memory(), &p.layout, job.seed);
        let start = Instant::now();
        let result = match engine {
            CycleEngine::EventDriven => sim.run(topo.num_cores()),
            CycleEngine::NaiveScan => sim.run_naive(topo.num_cores()),
            CycleEngine::Parallel(threads) => sim.run_parallel(topo.num_cores(), threads),
        }?;
        let wall = start.elapsed();
        JobError::check_cycle(&result, job.budget)?;

        let breakdown = result.aggregate();
        Ok(CycleOutcome {
            wall,
            cycles: result.cycles,
            breakdown,
            per_group: result.aggregate_groups(&topo),
            instructions: breakdown.instructions,
            verified: verify(sim.memory(), &p.layout, &set),
            epochs: sim.epoch_report(),
        })
    }

    /// [`cycle`](Self::cycle) for an unsupervised job on fresh memory.
    ///
    /// # Errors
    ///
    /// Returns the job's fault, boxed.
    pub fn run_cycle_seeded(&self, engine: CycleEngine, seed: u64) -> Result<CycleOutcome, Box<dyn Error>> {
        Ok(self.cycle(engine, Job::new(seed))?)
    }
}

/// Which cycle-accurate scheduler to drive (see [`CycleSim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleEngine {
    /// The event-driven engine on the calling thread (`CycleSim::run`):
    /// the same code as `Parallel(1)`.
    EventDriven,
    /// The full-scan reference scheduler (`CycleSim::run_naive`).
    NaiveScan,
    /// The event-driven engine (`CycleSim::run_parallel`), sharded over
    /// up to this many host threads on multi-group topologies —
    /// bit-identical to the other two at any count.
    Parallel(usize),
}

/// Configuration of the batched Monte-Carlo experiment (Figure 6): all
/// `nsc` subcarrier problems of one OFDM symbol on a single Snitch.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// MIMO size.
    pub n: u32,
    /// Kernel precision.
    pub precision: Precision,
    /// Subcarriers per OFDM symbol (1638 for the paper's 50 MHz NR
    /// carrier).
    pub nsc: u32,
    /// Operand seed.
    pub seed: u64,
    /// Dot-product unroll factor.
    pub unroll: u32,
}

/// Result of one batched symbol simulation.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Host wall-clock time.
    pub wall: Duration,
    /// Estimated Snitch cycles for the whole symbol.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Simulation speed in MIPS.
    pub mips: f64,
    /// Results matched the native model.
    pub verified: bool,
}

/// A prepared OFDM-symbol scenario: the batched single-Snitch kernel and
/// its shared artifact set, built once; every simulated symbol is then a
/// cheap per-job instantiation ([`SymbolScenario::symbol`]) that only
/// pays for its memory, operand generation, the run and verification.
#[derive(Debug)]
pub struct SymbolScenario {
    config: BatchConfig,
    prepared: Prepared,
}

impl SymbolScenario {
    /// [`prepare_with`](Self::prepare_with) under the default
    /// [`EngineOptions`].
    ///
    /// # Errors
    ///
    /// Propagates kernel build and translation errors.
    pub fn prepare(config: &BatchConfig) -> Result<Self, Box<dyn Error>> {
        Self::prepare_with(config, EngineOptions::default())
    }

    /// Builds the scenario's shared artifacts: one Snitch of the full
    /// TeraPool cluster, as in the paper, with banks deepened when `nsc`
    /// outgrows the taped-out tile SPM. A single-Snitch symbol job never
    /// shards, so of `options` only fusion changes how its jobs run.
    ///
    /// # Errors
    ///
    /// Propagates kernel build and translation errors.
    pub fn prepare_with(config: &BatchConfig, options: EngineOptions) -> Result<Self, Box<dyn Error>> {
        let topo = topology_for(1024, 1, config.n, config.precision, config.nsc);
        let kernel = kernel_for(config.n, config.precision, config.nsc, 1, config.unroll);
        Ok(Self { config: *config, prepared: Prepared::build(topo, &kernel, options.run_config())? })
    }

    /// The scenario's shared artifact set.
    pub fn artifacts(&self) -> &Arc<SimArtifacts> {
        &self.prepared.arts
    }

    /// The configuration the scenario was prepared from.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Simulates one OFDM symbol (`nsc` problems batched on a single
    /// Snitch, one host thread), with memory, budget and cancellation
    /// from `job` as in [`ParallelScenario::fast`].
    ///
    /// # Errors
    ///
    /// Returns the [`JobError`] classifying the fault, if any.
    pub fn symbol(&self, job: Job) -> Result<BatchOutcome, JobError> {
        let (run, ()) = self.prepared.fast(job, |sim| Ok((sim.run_cores(0..1, 1)?, ())))?;
        Ok(batch_outcome(run))
    }

    /// [`symbol`](Self::symbol) on memory from `pool`, unsupervised.
    ///
    /// # Errors
    ///
    /// Returns the job's fault, boxed.
    ///
    /// # Panics
    ///
    /// Panics if `pool` was built over a different artifact set.
    pub fn run_symbol_pooled(&self, pool: &Arc<MemPool>, seed: u64) -> Result<BatchOutcome, Box<dyn Error>> {
        assert!(Arc::ptr_eq(pool.artifacts(), self.artifacts()), "pool built over a different scenario");
        Ok(self.symbol(Job { pool: Some(Arc::clone(pool)), ..Job::new(seed) })?)
    }

    /// One symbol job with fusion-coverage instrumentation (unfused
    /// execution order, bit-identical outcome — see
    /// [`ParallelScenario::run_fast_profiled`]).
    ///
    /// # Errors
    ///
    /// Returns the job's fault, boxed.
    pub fn run_symbol_profiled(&self, seed: u64) -> Result<(BatchOutcome, FusionProfile), Box<dyn Error>> {
        let (run, profile) = self.prepared.fast(Job::new(seed), |sim| sim.run_cores_profiled(0..1, 1))?;
        Ok((batch_outcome(run), profile))
    }
}

/// Simulates `symbols` independent OFDM symbols over `host_threads`
/// worker lanes of a [`BatchRunner`] (the paper's 128-thread scaling
/// experiment) and returns the wall time together with the per-symbol
/// outcomes in submission order.
///
/// All symbols share one artifact set and recycle cluster memories
/// through one [`MemPool`] (one arena per worker lane instead of one
/// allocation per symbol); per-symbol seeds derive from the symbol
/// index, so the outcomes are identical for any worker count and any
/// work-stealing schedule, and bit-identical to unpooled per-symbol runs.
///
/// # Errors
///
/// Propagates the build error or the first failure from any symbol.
pub fn mc_symbols_parallel(
    config: &BatchConfig,
    symbols: u32,
    host_threads: usize,
) -> Result<(Duration, Vec<BatchOutcome>), Box<dyn Error>> {
    let (start, scenario) = (Instant::now(), SymbolScenario::prepare(config)?);
    let pool = MemPool::new(Arc::clone(scenario.artifacts()));
    let seed = |sym: u32| config.seed.wrapping_add(u64::from(sym));
    let job = |ctx: &JobCtx, sym: u32| scenario.symbol(Job::from_ctx(ctx, seed(sym)));
    let outcomes = BatchRunner::with_workers(host_threads).run_pooled_in(&pool, (0..symbols).collect(), job);
    Ok((start.elapsed(), outcomes.into_iter().collect::<Result<_, _>>()?))
}

/// Runs a BER-vs-SNR sweep for one scenario and detector kind
/// (Figures 9–10): one [`BatchRunner`] job per SNR point
/// ([`terasim_phy::ber_jobs`]), bit-identical to [`terasim_phy::sweep`]
/// for every worker count because each point's seed travels with its job.
pub fn ber_curve(
    scenario: Mimo,
    snrs_db: &[f64],
    kind: DetectorKind,
    target_errors: u64,
    max_iterations: u64,
    seed: u64,
) -> Vec<BerPoint> {
    let detector = kind.instantiate(scenario.n_tx);
    BatchRunner::new().run(terasim_phy::ber_jobs(scenario, snrs_db, seed), |_ctx, job| {
        job.run(detector.as_ref(), target_errors, max_iterations)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_and_cycle_agree_architecturally() {
        let config = ParallelConfig { cores: 8, n: 4, precision: Precision::WDotp8, seed: 9, unroll: 2 };
        let scenario = ParallelScenario::prepare(&config).unwrap();
        let fast = scenario.run_fast_seeded(2, config.seed).unwrap();
        let cycle = scenario.run_cycle_seeded(CycleEngine::EventDriven, config.seed).unwrap();
        assert!(fast.verified, "fast backend diverged from native model");
        assert!(cycle.verified, "cycle backend diverged from native model");
        assert_eq!(fast.instructions, cycle.instructions, "same retired instruction count");
        assert!(cycle.wall >= fast.wall / 50, "sanity: both ran");
    }

    #[test]
    fn batch_runs_and_verifies() {
        let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 16, seed: 5, unroll: 2 };
        let out = SymbolScenario::prepare(&config).unwrap().symbol(Job::new(config.seed)).unwrap();
        assert!(out.verified);
        assert!(out.instructions > 16 * 500, "16 problems retired {}", out.instructions);
    }

    #[test]
    fn parallel_symbols_match_single() {
        let config = BatchConfig { n: 4, precision: Precision::Half16, nsc: 4, seed: 11, unroll: 2 };
        let (_, outcomes) = mc_symbols_parallel(&config, 4, 2).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| o.verified));
    }

    #[test]
    fn ber_curve_with_native_dut() {
        let scenario = Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Awgn };
        let points =
            ber_curve(scenario, &[8.0, 16.0], DetectorKind::Native(Precision::CDotp16), 100, 1_000, 3);
        assert_eq!(points.len(), 2);
        assert!(points[0].ber() > points[1].ber());
    }
}
