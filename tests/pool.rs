//! Pooled-memory determinism: a batch whose jobs recycle cluster
//! memories through a `MemPool` must be bit-identical to fresh-memory
//! serial runs that each allocate from scratch — at every worker count
//! (hence every recycling order and dirty history), on both backends and
//! for ISS-in-the-loop BER batches.

use std::sync::Arc;

use terasim::experiments::{
    self, BatchConfig, CycleEngine, Job, ParallelConfig, ParallelScenario, SymbolScenario,
};
use terasim::serve::BatchRunner;
use terasim::DetectorKind;
use terasim_kernels::Precision;
use terasim_terapool::MemPool;

/// Per-job fingerprint of a fast-mode symbol run.
fn symbol_key(o: &experiments::BatchOutcome) -> (u64, u64, bool) {
    (o.cycles, o.instructions, o.verified)
}

#[test]
fn pooled_fast_symbol_batch_matches_fresh_serial_rebuilds() {
    let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 77, unroll: 2 };
    let jobs = 6u32;

    // Fresh-memory serial reference: every run allocates its own arena
    // (and rebuilds its artifacts — the strictest baseline).
    let serial: Vec<(u64, u64, bool)> = (0..jobs)
        .map(|j| {
            let mut c = config;
            c.seed = config.seed.wrapping_add(u64::from(j));
            symbol_key(&SymbolScenario::prepare(&c).unwrap().symbol(Job::new(c.seed)).unwrap())
        })
        .collect();
    assert!(serial.iter().all(|k| k.2), "fresh reference runs must verify");

    let scenario = SymbolScenario::prepare(&config).unwrap();
    for workers in [1usize, 2, 4, 7] {
        let batch = BatchRunner::with_workers(workers).run_pooled_in(
            &MemPool::new(Arc::clone(scenario.artifacts())),
            (0..jobs).collect(),
            |ctx, j| {
                let pool = ctx.pool().expect("pooled batch");
                symbol_key(&scenario.run_symbol_pooled(pool, config.seed.wrapping_add(u64::from(j))).unwrap())
            },
        );
        assert_eq!(batch, serial, "pooled fast batch diverged at {workers} workers");
    }
}

/// Pooled cycle-accurate batch on a multi-group topology (512 cores =
/// 2 groups): jobs recycle arenas *and* widen into idle worker lanes via
/// the epoch-sharded engine; stats, makespan and verification must match
/// fresh-memory serial runs for every worker count.
#[test]
fn pooled_cycle_batch_matches_fresh_on_multi_group_topology() {
    let config = ParallelConfig { cores: 512, n: 4, precision: Precision::WDotp8, seed: 61, unroll: 2 };
    let jobs = 2u64;

    let serial: Vec<(u64, terasim_terapool::CycleStats, u64)> = (0..jobs)
        .map(|j| {
            let mut c = config;
            c.seed = config.seed.wrapping_add(j);
            let out = ParallelScenario::prepare(&c)
                .and_then(|s| s.run_cycle_seeded(CycleEngine::EventDriven, c.seed))
                .unwrap();
            assert!(out.verified);
            (out.cycles, out.breakdown, out.instructions)
        })
        .collect();

    let scenario = ParallelScenario::prepare(&config).unwrap();
    for workers in [1usize, 2, 4, 7] {
        let batch = BatchRunner::with_workers(workers).run_pooled_in(
            &MemPool::new(Arc::clone(scenario.artifacts())),
            (0..jobs).collect(),
            |ctx, j| {
                let pool = ctx.pool().expect("pooled batch");
                let job = Job { pool: Some(Arc::clone(pool)), ..Job::new(config.seed.wrapping_add(j)) };
                let out = scenario.cycle(CycleEngine::Parallel(ctx.claimable_threads()), job).unwrap();
                assert!(out.verified);
                (out.cycles, out.breakdown, out.instructions)
            },
        );
        assert_eq!(batch, serial, "pooled cycle batch diverged at {workers} workers");
    }
}

/// Pooled fast-mode batch at cluster scale: every hart active, arenas
/// recycled between whole-cluster jobs.
#[test]
fn pooled_parallel_fast_batch_matches_fresh_serial() {
    let config = ParallelConfig { cores: 16, n: 4, precision: Precision::Half16, seed: 52, unroll: 2 };
    let jobs = 4u64;
    let serial: Vec<(u64, u64)> = (0..jobs)
        .map(|j| {
            let mut c = config;
            c.seed = config.seed.wrapping_add(j);
            let out = ParallelScenario::prepare(&c).and_then(|s| s.run_fast_seeded(1, c.seed)).unwrap();
            assert!(out.verified);
            (out.cluster_cycles, out.instructions)
        })
        .collect();
    let scenario = ParallelScenario::prepare(&config).unwrap();
    for workers in [1usize, 2, 4, 7] {
        let batch = BatchRunner::with_workers(workers).run_pooled_in(
            &MemPool::new(Arc::clone(scenario.artifacts())),
            (0..jobs).collect(),
            |ctx, j| {
                let pool = ctx.pool().expect("pooled batch");
                let job = Job { pool: Some(Arc::clone(pool)), ..Job::new(config.seed.wrapping_add(j)) };
                let out = scenario.fast(1, job).unwrap();
                assert!(out.verified);
                (out.cluster_cycles, out.instructions)
            },
        );
        assert_eq!(batch, serial, "pooled parallel fast batch diverged at {workers} workers");
    }
}

/// ISS-in-the-loop BER batch with one *pooled* detector per job: shared
/// kernel artifacts, recycled cluster memory. Must reproduce the curve
/// of per-job fresh detectors exactly, at every worker count.
#[test]
fn pooled_iss_ber_batch_matches_fresh_detectors() {
    use terasim_phy::{ber_jobs, ChannelKind, Mimo, Modulation};

    let scenario = Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Awgn };
    let snrs = [8.0, 14.0];
    let kind = DetectorKind::Iss(Precision::CDotp16);
    let (errors, iters) = (6u64, 24u64);

    // Fresh reference: one brand-new detector (own artifacts, own
    // memory) per job, serially.
    let reference = BatchRunner::with_workers(1)
        .run(ber_jobs(scenario, &snrs, 19), |_ctx, job| job.run(&*kind.instantiate(4), errors, iters));

    let pool = kind.memory_pool(4).expect("ISS kinds own cluster memory");
    for workers in [1usize, 2, 4, 7] {
        let batch = BatchRunner::with_workers(workers).run(ber_jobs(scenario, &snrs, 19), |_ctx, job| {
            job.run(&*kind.instantiate_pooled(4, &pool), errors, iters)
        });
        assert_eq!(batch, reference, "pooled BER batch diverged at {workers} workers");
    }
    let stats = pool.stats();
    assert!(stats.recycled > 0, "the BER batches must actually recycle ({stats:?})");
    // Non-ISS kinds have no cluster memory to pool.
    assert!(DetectorKind::Native(Precision::CDotp16).memory_pool(4).is_none());
}

/// `mc_symbols_parallel` now recycles memory internally; its results must
/// stay invariant across worker counts and identical to the unpooled
/// per-symbol path.
#[test]
fn mc_symbols_parallel_recycles_invariantly() {
    let config = BatchConfig { n: 4, precision: Precision::Half16, nsc: 4, seed: 23, unroll: 2 };
    let scenario = SymbolScenario::prepare(&config).unwrap();
    let unpooled: Vec<_> = (0..5u32)
        .map(|s| symbol_key(&scenario.symbol(Job::new(config.seed.wrapping_add(u64::from(s)))).unwrap()))
        .collect();
    for threads in [1usize, 3] {
        let (_, outcomes) = experiments::mc_symbols_parallel(&config, 5, threads).unwrap();
        assert_eq!(
            outcomes.iter().map(symbol_key).collect::<Vec<_>>(),
            unpooled,
            "pooled mc_symbols_parallel diverged at {threads} workers"
        );
    }
}

/// The single pool rule: a job whose pool was built over a *different*
/// scenario's artifacts runs on fresh memory — verified and
/// bit-identical to an unpooled job, on both backends — and never
/// touches the foreign pool.
#[test]
fn foreign_pool_is_ignored_and_left_untouched() {
    let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 41, unroll: 2 };
    let symbol = SymbolScenario::prepare(&config).unwrap();
    let other = SymbolScenario::prepare(&BatchConfig { nsc: 8, ..config }).unwrap();
    let foreign = MemPool::new(Arc::clone(other.artifacts()));
    // Park one arena, so a stray acquire would show as a recycle.
    drop(terasim_terapool::FastSim::from_pool(&foreign));
    let before = foreign.stats();
    let with_foreign = |seed| Job { pool: Some(Arc::clone(&foreign)), ..Job::new(seed) };

    let fresh = symbol.symbol(Job::new(config.seed)).unwrap();
    let pooled = symbol.symbol(with_foreign(config.seed)).unwrap();
    assert!(pooled.verified, "symbol job on a foreign pool must verify");
    assert_eq!(symbol_key(&pooled), symbol_key(&fresh), "symbol job diverged on a foreign pool");

    let pconfig = ParallelConfig { cores: 8, n: 4, precision: Precision::Half16, seed: 42, unroll: 2 };
    let parallel = ParallelScenario::prepare(&pconfig).unwrap();
    let fresh = parallel.fast(1, Job::new(pconfig.seed)).unwrap();
    let pooled = parallel.fast(1, with_foreign(pconfig.seed)).unwrap();
    assert!(pooled.verified, "fast job on a foreign pool must verify");
    assert_eq!((pooled.cluster_cycles, pooled.instructions), (fresh.cluster_cycles, fresh.instructions));
    let fresh = parallel.cycle(CycleEngine::EventDriven, Job::new(pconfig.seed)).unwrap();
    let pooled = parallel.cycle(CycleEngine::EventDriven, with_foreign(pconfig.seed)).unwrap();
    assert!(pooled.verified, "cycle job on a foreign pool must verify");
    assert_eq!((pooled.cycles, pooled.breakdown), (fresh.cycles, fresh.breakdown));

    assert_eq!(foreign.stats(), before, "a foreign pool must stay untouched");
}
