//! Fault-containment differentials: a supervised batch with injected
//! faults must report a structured [`JobError`] at *exactly* the injected
//! indices and stay bit-identical to fresh serial runs everywhere else —
//! for every worker count (hence every work-stealing schedule), pooled
//! and unpooled, on both backends. The injected guests are real programs
//! run through the real engines (see [`terasim::faults`]).

use std::sync::Arc;
use std::time::Duration;
use terasim::experiments::{
    self, BatchConfig, CycleEngine, Job, ParallelConfig, ParallelScenario, SymbolScenario,
};
use terasim::faults::{self, Fault, FaultPlan};
use terasim::serve::{BatchRunner, JobError, RunPolicy};

use terasim::CancelToken;
use terasim_iss::Trap;
use terasim_kernels::Precision;
use terasim_riscv::{csr, Assembler, Image, Reg, Segment};
use terasim_terapool::{CycleSim, MemPool, SimArtifacts, Topology};

/// Per-job fingerprint of a fast-mode symbol run.
fn symbol_key(o: &experiments::BatchOutcome) -> (u64, u64, bool) {
    (o.cycles, o.instructions, o.verified)
}

/// Fresh serial rebuilds of every symbol job (the pre-serve-layer path):
/// the healthy reference the supervised batches are pinned against.
fn serial_symbols(config: &BatchConfig, jobs: u32) -> Vec<(u64, u64, bool)> {
    (0..jobs)
        .map(|j| {
            let mut c = *config;
            c.seed = config.seed.wrapping_add(u64::from(j));
            symbol_key(&SymbolScenario::prepare(&c).unwrap().symbol(Job::new(c.seed)).unwrap())
        })
        .collect()
}

/// The tentpole differential: panics, traps, budget exhaustion and a
/// deliberate straggler injected into one batch. Errors must land at
/// exactly the injected indices with their exact taxonomy entry, and
/// every healthy index must be bit-identical to a fresh serial rebuild —
/// at every worker count, pooled and unpooled.
#[test]
fn injected_faults_surface_at_their_indices_and_nowhere_else() {
    let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 21, unroll: 2 };
    let jobs = 10u32;
    let plan = FaultPlan::new()
        .inject(2, Fault::Panic)
        .inject(5, Fault::Trap)
        .inject(7, Fault::BudgetExhaust { budget: 50 })
        .inject(8, Fault::Slow { spins: 20_000 });

    let serial = serial_symbols(&config, jobs);
    let scenario = SymbolScenario::prepare(&config).unwrap();
    let trap_arts = faults::trap_artifacts(Topology::scaled(8));

    let job = |ctx: &terasim::JobCtx, j: u32| -> Result<(u64, u64, bool), JobError> {
        let seed = config.seed.wrapping_add(u64::from(j));
        match plan.fault(j as usize) {
            Some(Fault::Panic) => faults::inject_panic(j as usize),
            Some(Fault::Trap) => Err(faults::run_fault_guest_fast(&trap_arts, 1)),
            Some(Fault::BudgetExhaust { budget }) => scenario
                .symbol(Job { budget: Some(budget), ..Job::from_ctx(ctx, seed) })
                .map(|o| symbol_key(&o)),
            Some(Fault::Slow { spins }) => {
                faults::spin(spins);
                scenario.symbol(Job::from_ctx(ctx, seed)).map(|o| symbol_key(&o))
            }
            Some(Fault::Deadlock) | None => scenario.symbol(Job::from_ctx(ctx, seed)).map(|o| symbol_key(&o)),
        }
    };

    for workers in [1usize, 2, 4, 7] {
        for pooled in [false, true] {
            let runner = BatchRunner::with_workers(workers);
            let out = if pooled {
                let pool = MemPool::new(Arc::clone(scenario.artifacts()));
                runner.try_run(&RunPolicy::default(), Some(&pool), (0..jobs).collect(), |ctx, &j| job(ctx, j))
            } else {
                runner.try_run(&RunPolicy::default(), None, (0..jobs).collect(), |ctx, &j| job(ctx, j))
            };
            let tag = format!("{workers} workers, pooled={pooled}");

            assert_eq!(
                out[2],
                Err(JobError::Panicked { payload: faults::panic_payload(2) }),
                "panic index ({tag})"
            );
            assert_eq!(out[5], Err(JobError::Trap(Trap::IllegalFetch { pc: 0 })), "trap index ({tag})");
            assert_eq!(out[7], Err(JobError::BudgetExhausted { budget: 50 }), "budget index ({tag})");
            for (i, (got, want)) in out.iter().zip(&serial).enumerate() {
                if plan.expects_error(i) {
                    continue;
                }
                assert_eq!(got.as_ref().ok(), Some(want), "healthy index {i} diverged ({tag})");
            }
        }
    }
}

/// Satellite: a batch containing a job whose guest deadlocks (every hart
/// parked in `wfi` with no waker) reports [`JobError::Deadlocked`] at
/// that index — naming the parked harts — while its neighbours complete
/// bit-identically, pooled and unpooled, with the deadlock detected by
/// either backend.
#[test]
fn deadlocked_guest_fails_its_own_index_with_correct_neighbours() {
    let config = BatchConfig { n: 4, precision: Precision::Half16, nsc: 4, seed: 33, unroll: 2 };
    let jobs = 5u32;
    let deadlock_at = 2usize;

    let serial = serial_symbols(&config, jobs);
    let scenario = SymbolScenario::prepare(&config).unwrap();
    let deadlock_arts = faults::deadlock_artifacts(Topology::scaled(8));

    for workers in [1usize, 2, 4] {
        for pooled in [false, true] {
            // Alternate the detecting backend so both engines' deadlock
            // reporting flows through the batch at least once.
            let cycle_backend = workers % 2 == 0;
            let job = |ctx: &terasim::JobCtx, j: u32| {
                if j as usize == deadlock_at {
                    return Err(if cycle_backend {
                        faults::run_fault_guest_cycle(&deadlock_arts, 4)
                    } else {
                        faults::run_fault_guest_fast(&deadlock_arts, 4)
                    });
                }
                scenario
                    .symbol(Job::from_ctx(ctx, config.seed.wrapping_add(u64::from(j))))
                    .map(|o| symbol_key(&o))
            };
            let runner = BatchRunner::with_workers(workers);
            let out = if pooled {
                let pool = MemPool::new(Arc::clone(scenario.artifacts()));
                runner.try_run(&RunPolicy::default(), Some(&pool), (0..jobs).collect(), |ctx, &j| job(ctx, j))
            } else {
                runner.try_run(&RunPolicy::default(), None, (0..jobs).collect(), |ctx, &j| job(ctx, j))
            };
            let tag = format!("{workers} workers, pooled={pooled}");
            assert_eq!(
                out[deadlock_at],
                Err(JobError::Deadlocked { parked: vec![0, 1, 2, 3] }),
                "deadlock index ({tag})"
            );
            for (i, (got, want)) in out.iter().zip(&serial).enumerate() {
                if i != deadlock_at {
                    assert_eq!(got.as_ref().ok(), Some(want), "neighbour {i} diverged ({tag})");
                }
            }
        }
    }
}

/// The cycle backend under injected faults: errors at exactly the
/// injected indices, bit-identical cycle counts and breakdowns elsewhere,
/// against serial rebuilds.
#[test]
fn cycle_batch_with_injected_faults_is_bit_identical_elsewhere() {
    let config = ParallelConfig { cores: 16, n: 4, precision: Precision::WDotp8, seed: 44, unroll: 2 };
    let jobs = 4u64;
    let plan = FaultPlan::new().inject(1, Fault::Trap).inject(2, Fault::BudgetExhaust { budget: 100 });

    let serial: Vec<(u64, u64, bool)> = (0..jobs)
        .map(|j| {
            let mut c = config;
            c.seed = config.seed.wrapping_add(j);
            let out = ParallelScenario::prepare(&c)
                .and_then(|s| s.run_cycle_seeded(CycleEngine::EventDriven, c.seed))
                .unwrap();
            (out.cycles, out.instructions, out.verified)
        })
        .collect();

    let scenario = ParallelScenario::prepare(&config).unwrap();
    let trap_arts = faults::trap_artifacts(Topology::scaled(8));
    for workers in [1usize, 2] {
        let out = BatchRunner::with_workers(workers).try_run(
            &RunPolicy::default(),
            None,
            (0..jobs).collect(),
            |ctx, &j| {
                let seed = config.seed.wrapping_add(j);
                match plan.fault(j as usize) {
                    Some(Fault::Trap) => Err(faults::run_fault_guest_cycle(&trap_arts, 1)),
                    Some(Fault::BudgetExhaust { budget }) => scenario
                        .cycle(
                            CycleEngine::EventDriven,
                            Job { budget: Some(budget), ..Job::from_ctx(ctx, seed) },
                        )
                        .map(|o| (o.cycles, o.instructions, o.verified)),
                    _ => scenario
                        .cycle(CycleEngine::EventDriven, Job::from_ctx(ctx, seed))
                        .map(|o| (o.cycles, o.instructions, o.verified)),
                }
            },
        );
        assert_eq!(out[1], Err(JobError::Trap(Trap::IllegalFetch { pc: 0 })), "{workers} workers");
        assert_eq!(out[2], Err(JobError::BudgetExhausted { budget: 100 }), "{workers} workers");
        for i in [0usize, 3] {
            assert_eq!(out[i].as_ref().ok(), Some(&serial[i]), "healthy index {i} at {workers} workers");
        }
    }
}

/// A too-small per-job instruction budget surfaces as the same
/// [`JobError::BudgetExhausted`] on the fast backend and on all three
/// cycle-engine schedulers — the safety net is part of the architectural
/// contract, not a scheduler accident.
#[test]
fn budget_exhaustion_is_backend_and_engine_invariant() {
    let config = ParallelConfig { cores: 8, n: 4, precision: Precision::Half16, seed: 7, unroll: 2 };
    let scenario = ParallelScenario::prepare(&config).unwrap();
    let budget = 200u64;
    let policy = RunPolicy::new().with_budget(budget);

    let out = BatchRunner::with_workers(2).try_run(&policy, None, (0..4u32).collect(), |ctx, &j| {
        match j {
            // The policy's budget reaches every engine through `JobCtx`.
            0 => scenario.fast(1, Job::from_ctx(ctx, config.seed)).map(|o| o.instructions),
            1 => scenario
                .cycle(CycleEngine::EventDriven, Job::from_ctx(ctx, config.seed))
                .map(|o| o.instructions),
            2 => scenario
                .cycle(CycleEngine::NaiveScan, Job::from_ctx(ctx, config.seed))
                .map(|o| o.instructions),
            _ => scenario
                .cycle(CycleEngine::Parallel(2), Job::from_ctx(ctx, config.seed))
                .map(|o| o.instructions),
        }
    });
    for (i, r) in out.iter().enumerate() {
        assert_eq!(*r, Err(JobError::BudgetExhausted { budget }), "engine {i}");
    }

    // And with a per-job override lifting the budget, the same jobs pass.
    let ok = BatchRunner::with_workers(2).try_run(&policy, None, (0..2u32).collect(), |ctx, &j| match j {
        0 => {
            scenario.fast(1, Job { budget: None, ..Job::from_ctx(ctx, config.seed) }).map(|o| o.instructions)
        }
        _ => scenario
            .cycle(CycleEngine::EventDriven, Job { budget: None, ..Job::from_ctx(ctx, config.seed) })
            .map(|o| o.instructions),
    });
    let fast = ok[0].as_ref().expect("unbudgeted fast job completes");
    let cycle = ok[1].as_ref().expect("unbudgeted cycle job completes");
    assert_eq!(fast, cycle, "backends retire the same instruction count");
}

/// Cooperative cancellation: raising the batch token while a job is in
/// flight abandons that job at an engine safe point (reported as
/// [`JobError::Cancelled`]) and fails every not-yet-started job at the
/// dispatch boundary — on both backends, with completed jobs untouched.
#[test]
fn cancelling_mid_batch_abandons_running_and_pending_jobs() {
    let config = ParallelConfig { cores: 8, n: 4, precision: Precision::Half16, seed: 15, unroll: 2 };
    let scenario = ParallelScenario::prepare(&config).unwrap();

    for cycle_backend in [false, true] {
        let cancel = CancelToken::new();
        let policy = RunPolicy::new().with_cancel(cancel.clone());
        let trigger = cancel.clone();
        let out = BatchRunner::with_workers(1).try_run(&policy, None, (0..4u32).collect(), |ctx, &j| {
            if j == 1 {
                // Raised while job 1 is already past the dispatch check:
                // the engine itself must notice at its next safe point.
                trigger.cancel();
            }
            let seed = config.seed.wrapping_add(u64::from(j));
            if cycle_backend {
                scenario.cycle(CycleEngine::EventDriven, Job::from_ctx(ctx, seed)).map(|o| o.instructions)
            } else {
                scenario.fast(1, Job::from_ctx(ctx, seed)).map(|o| o.instructions)
            }
        });
        assert!(out[0].is_ok(), "job 0 completed before the cancel (cycle={cycle_backend})");
        for (i, r) in out.iter().enumerate().skip(1) {
            assert_eq!(*r, Err(JobError::Cancelled), "job {i} (cycle={cycle_backend})");
        }
    }
}

/// Pool hygiene under faults: the arena of a panicked job is quarantined
/// — counted in [`PoolStats::quarantined`](terasim_terapool::PoolStats)
/// and never handed to a later job — while healthy jobs keep recycling.
#[test]
fn panicked_jobs_quarantine_their_arena() {
    let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 9, unroll: 2 };
    let scenario = SymbolScenario::prepare(&config).unwrap();
    let serial = serial_symbols(&config, 3);

    // One lane: jobs run strictly in submission order, so job 2 observes
    // the pool exactly one panic and one healthy run later.
    let pool = MemPool::new(Arc::clone(scenario.artifacts()));
    let out = BatchRunner::with_workers(1).try_run(
        &RunPolicy::default(),
        Some(&pool),
        (0..3u32).collect(),
        |ctx, &j| {
            let pool = ctx.pool().expect("pooled batch");
            if j == 0 {
                // Panic while holding a pooled simulator: the unwind runs
                // its drop, which must quarantine — not recycle — the arena.
                let _sim = terasim_terapool::FastSim::from_pool(pool);
                faults::inject_panic(0);
            }
            let key = scenario
                .symbol(Job::from_ctx(ctx, config.seed.wrapping_add(u64::from(j))))
                .map(|o| symbol_key(&o))?;
            Ok((key, pool.stats().quarantined))
        },
    );

    assert_eq!(out[0], Err(JobError::Panicked { payload: faults::panic_payload(0) }));
    let (key1, quarantined1) = out[1].clone().expect("job 1 healthy");
    let (key2, quarantined2) = out[2].clone().expect("job 2 healthy");
    assert_eq!(key1, serial[1], "job 1 bit-identical on a fresh (post-quarantine) arena");
    assert_eq!(key2, serial[2], "job 2 bit-identical on the recycled arena");
    assert_eq!((quarantined1, quarantined2), (1, 1), "exactly the panicked job's arena was quarantined");
}

/// Mid-run cancellation of a single-group cycle run: another thread
/// raises the token once the guest is visibly running, and the engine
/// stops at its next safe point with `cancelled` set — well before the
/// instruction budget that would otherwise end this endless guest — and
/// a pooled run quarantines its arena instead of recycling it.
#[test]
fn cancelling_a_running_single_group_cycle_run_stops_it() {
    const CORES: u32 = 16;
    const TRIGGER: u32 = 10_000;
    // Every hart counts up forever, storing the count to its own L1 word.
    let mut a = Assembler::new(Topology::L2_BASE);
    a.csrr(Reg::T0, csr::MHARTID);
    a.slli(Reg::T1, Reg::T0, 2);
    let top = a.new_label();
    a.bind(top);
    a.addi(Reg::T2, Reg::T2, 1);
    a.sw(Reg::T2, 0x100, Reg::T1);
    a.j(top);
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
    let topo = Topology::scaled(CORES);
    assert_eq!(topo.num_domains(), 1);
    let arts = SimArtifacts::build(topo, &image).unwrap();
    let pool = MemPool::new(Arc::clone(&arts));

    for pooled in [false, true] {
        let mut sim =
            if pooled { CycleSim::from_pool(&pool) } else { CycleSim::from_artifacts(Arc::clone(&arts)) };
        // Safety net: an ignored token ends the run at this budget (and
        // fails the asserts below) instead of hanging the test.
        sim.max_instructions = 5_000_000;
        let cancel = CancelToken::new();
        sim.set_cancel(cancel.clone());
        let mem = sim.memory().clone();
        let (result, seen) = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| loop {
                let count = mem.read_u32(0x100);
                if count >= TRIGGER {
                    cancel.cancel();
                    return count;
                }
                std::thread::sleep(Duration::from_micros(100));
            });
            let result = sim.run(CORES).unwrap();
            (result, watcher.join().unwrap())
        });
        assert!(result.cancelled, "pooled={pooled}: the run must stop on the raised token");
        assert!(result.budgeted.is_empty(), "pooled={pooled}: stopped by the token, not the budget");
        assert!(result.per_core.iter().all(|s| s.instructions > 0), "pooled={pooled}: every hart ran");
        let last = sim.memory().read_u32(0x100);
        assert!(
            (seen..seen + 1_000_000).contains(&last),
            "pooled={pooled}: hart 0 counted from {seen} to {last} after the cancel"
        );
        drop(sim);
        assert_eq!(pool.stats().quarantined, u64::from(pooled), "pooled={pooled}: arena quarantined");
    }
}
