//! Superinstruction-fusion differentials: the fused fast engine
//! ([`FusionMode::On`] — macro-op pairs dispatched as one superinstruction
//! plus SPMD convergence groups across harts) must be **bit-identical** —
//! registers, memory, [`RunStats`], stop reason — to the unfused
//! per-instruction interpreter ([`FusionMode::Off`]) and to the retained
//! seed `Cpu::execute` loop ([`resume_core`]), on every workload class:
//! straight-line code, loops, budget boundaries landing mid-pair,
//! trapping and deadlocking fault guests, batches at every worker count
//! (pooled and unpooled), and SPMD groups that are forced to diverge by
//! per-hart branches on `mhartid`.

use std::sync::Arc;

use terasim::experiments::{self, BatchConfig, EngineOptions, Job, SymbolScenario};
use terasim::faults;
use terasim::serve::{BatchRunner, JobError};
use terasim_iss::{
    resume_core, resume_fused, resume_lowered, Cpu, DenseMemory, FusedProgram, FusionMode, Program,
    RunConfig, RunStats, Scoreboard, StopReason, Trap, UopProgram,
};
use terasim_kernels::Precision;
use terasim_riscv::{csr, Assembler, Image, Reg, Segment};
use terasim_terapool::{ClusterResult, FastSim, Topology};

// --- ISS level: seed interpreter vs unfused table vs fused table -------

fn program_of(build: impl FnOnce(&mut Assembler)) -> Program {
    let mut a = Assembler::new(0x8000_0000);
    build(&mut a);
    a.ecall();
    let mut image = Image::new(0x8000_0000);
    image.push_segment(Segment::from_words(0x8000_0000, &a.finish().unwrap()));
    Program::translate(&image).unwrap()
}

struct IssRun {
    stop: Result<StopReason, Trap>,
    stats: RunStats,
    pc: u32,
    regs: [u32; 32],
    mem: Vec<u8>,
}

/// One hart's full final state under the chosen engine.
fn iss_run(
    program: &Program,
    hartid: u32,
    budget: u64,
    engine: &str, // "seed" | "unfused" | "fused"
) -> IssRun {
    let config = RunConfig { max_instructions: budget, ..RunConfig::default() };
    let mut cpu = Cpu::new(hartid);
    let mut mem = DenseMemory::new(0, 0x1000);
    let mut sb = Scoreboard::new();
    let mut stats = RunStats::default();
    let stop = match engine {
        "seed" => resume_core(&mut cpu, program, &mut mem, &config, &mut sb, &mut stats),
        "unfused" => {
            let table: UopProgram<DenseMemory> = UopProgram::lower(program, &config.latency);
            resume_lowered(&mut cpu, &table, &mut mem, &config, &mut sb, &mut stats)
        }
        _ => {
            let table: UopProgram<DenseMemory> = UopProgram::lower(program, &config.latency);
            let fused = FusedProgram::build(program, &table);
            resume_fused(&mut cpu, &fused, &mut mem, &config, &mut sb, &mut stats)
        }
    };
    let mut regs = [0u32; 32];
    for (r, slot) in Reg::ALL.into_iter().zip(regs.iter_mut()) {
        *slot = cpu.reg(r);
    }
    IssRun { stop, stats, pc: cpu.pc(), regs, mem: mem.read_bytes(0, 0x1000).to_vec() }
}

/// Three-way full-state differential over a budget sweep (budgets chosen
/// to land both before and inside fused pairs) and several hart IDs.
fn differential3(build: impl Fn(&mut Assembler) + Copy) {
    let program = program_of(build);
    for hartid in [0u32, 1, 3] {
        for budget in [u64::MAX, 100, 9, 6, 5, 3, 2, 1] {
            let seed = iss_run(&program, hartid, budget, "seed");
            for engine in ["unfused", "fused"] {
                let got = iss_run(&program, hartid, budget, engine);
                let tag = format!("hart {hartid}, budget {budget}, {engine}");
                assert_eq!(seed.stop, got.stop, "stop/trap diverged ({tag})");
                assert_eq!(seed.stats, got.stats, "RunStats diverged ({tag})");
                assert_eq!(seed.pc, got.pc, "pc diverged ({tag})");
                assert_eq!(seed.regs, got.regs, "registers diverged ({tag})");
                assert_eq!(seed.mem, got.mem, "memory diverged ({tag})");
            }
        }
    }
}

/// Loops, address generation, loads/stores and compare-branches — the
/// shapes the peephole pass fuses most densely.
#[test]
fn alu_loop_guest_identical_across_all_three_engines() {
    differential3(|a| {
        a.li(Reg::A0, 0);
        a.li(Reg::T0, 12);
        let top = a.new_label();
        a.bind(top);
        a.slli(Reg::A2, Reg::T0, 2);
        a.add(Reg::A0, Reg::A0, Reg::A2);
        a.sw(Reg::A0, 0x80, Reg::A2);
        a.lw(Reg::A3, 0x80, Reg::A2);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
    });
}

/// Post-increment load + SIMD dot-product MAC chain (the PHY kernels'
/// inner loop) with a branch on `mhartid` so different harts take
/// different paths through the same fused table.
#[test]
fn mac_chain_with_hartid_divergence_identical_across_all_three_engines() {
    differential3(|a| {
        a.csrr(Reg::T2, csr::MHARTID);
        a.li(Reg::A0, 0x100);
        a.li(Reg::A1, 0x200);
        a.addi(Reg::A6, Reg::T2, 3); // per-hart trip count
        let top = a.new_label();
        a.bind(top);
        a.p_lw(Reg::A2, 4, Reg::A0);
        a.p_lw(Reg::A3, 4, Reg::A1);
        a.vfcdotpex_c_s_h(Reg::T0, Reg::A2, Reg::A3);
        a.addi(Reg::A6, Reg::A6, -1);
        a.bnez(Reg::A6, top);
        a.sw(Reg::T0, 0x300, Reg::Zero);
    });
}

/// A guest that traps mid-pair: the second load faults outside the
/// memory range. Partial state — including the committed pair head —
/// must be identical on all three engines.
#[test]
fn trapping_guest_partial_state_identical_across_all_three_engines() {
    differential3(|a| {
        a.li(Reg::A1, 0x100);
        a.lui(Reg::A2, 0x7000_0000u32 as i32);
        a.lw(Reg::A3, 0, Reg::A1); // pair head: fine
        a.lw(Reg::A4, 0, Reg::A2); // pair tail: faults
        a.addi(Reg::A5, Reg::A4, 1); // never reached
    });
}

// --- Cluster level: symbol batches at every worker count ---------------

/// Per-job fingerprint of a fast-mode symbol run.
fn symbol_key(o: &experiments::BatchOutcome) -> (u64, u64, bool) {
    (o.cycles, o.instructions, o.verified)
}

/// Fused and unfused symbol batches must be bit-identical to each other
/// and to fresh serial rebuilds, at workers 1/2/4/7, pooled and
/// unpooled — every work-stealing schedule, every arena-recycling path.
#[test]
fn symbol_batches_identical_fused_and_unfused_at_every_worker_count() {
    let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 77, unroll: 2 };
    let jobs = 8u32;
    let on =
        SymbolScenario::prepare_with(&config, EngineOptions { fusion: FusionMode::On, ..Default::default() })
            .unwrap();
    let off = SymbolScenario::prepare_with(
        &config,
        EngineOptions { fusion: FusionMode::Off, ..Default::default() },
    )
    .unwrap();

    // Serial reference: the unfused interpreter, one fresh run per job.
    let serial: Vec<(u64, u64, bool)> = (0..jobs)
        .map(|j| symbol_key(&off.symbol(Job::new(config.seed.wrapping_add(u64::from(j)))).unwrap()))
        .collect();

    for workers in [1usize, 2, 4, 7] {
        for pooled in [false, true] {
            for (label, scenario) in [("fused", &on), ("unfused", &off)] {
                let runner = BatchRunner::with_workers(workers);
                let keys: Vec<(u64, u64, bool)> = if pooled {
                    let pool = terasim_terapool::MemPool::new(Arc::clone(scenario.artifacts()));
                    runner.run_pooled_in(&pool, (0..jobs).collect(), |ctx, j| {
                        scenario
                            .run_symbol_pooled(
                                ctx.pool().expect("pooled batch"),
                                config.seed.wrapping_add(u64::from(j)),
                            )
                            .map(|o| symbol_key(&o))
                            .map_err(|e| e.to_string())
                    })
                } else {
                    runner.run((0..jobs).collect(), |_ctx, j| {
                        scenario
                            .symbol(Job::new(config.seed.wrapping_add(u64::from(j))))
                            .map(|o| symbol_key(&o))
                            .map_err(|e| e.to_string())
                    })
                }
                .into_iter()
                .collect::<Result<_, String>>()
                .unwrap();
                assert_eq!(
                    keys, serial,
                    "{label} batch diverged from serial unfused runs ({workers} workers, pooled={pooled})"
                );
            }
        }
    }
}

// --- Cluster level: fault guests, fusion on vs off ---------------------

fn fast_sim_with_fusion(arts: &Arc<terasim_terapool::SimArtifacts>, fusion: FusionMode) -> FastSim {
    let mut sim = FastSim::from_artifacts(Arc::clone(arts));
    sim.set_config(RunConfig { fusion, ..arts.fast_config().clone() });
    sim
}

/// The trap and deadlock fault guests must produce the same [`JobError`]
/// — same trap PC, same parked-hart list — with fusion on and off.
#[test]
fn fault_guests_surface_identically_fused_and_unfused() {
    let topo = Topology::scaled(8);

    let trap_arts = faults::trap_artifacts(topo);
    for fusion in [FusionMode::On, FusionMode::Off] {
        let mut sim = fast_sim_with_fusion(&trap_arts, fusion);
        let err = match sim.run_cores(0..1, 1) {
            Err(trap) => JobError::Trap(trap),
            Ok(res) => JobError::check_fast(&res, None).expect_err("trap guest must not complete"),
        };
        assert_eq!(err, JobError::Trap(Trap::IllegalFetch { pc: 0 }), "{fusion:?}");
    }

    let deadlock_arts = faults::deadlock_artifacts(topo);
    let mut results: Vec<ClusterResult> = Vec::new();
    for fusion in [FusionMode::On, FusionMode::Off] {
        let mut sim = fast_sim_with_fusion(&deadlock_arts, fusion);
        let res = sim.run_cores(0..4, 1).expect("deadlock guest does not trap");
        assert!(res.deadlocked, "{fusion:?}");
        assert_eq!(res.parked, vec![0, 1, 2, 3], "{fusion:?}");
        results.push(res);
    }
    assert_eq!(results[0].per_core, results[1].per_core, "deadlock partial stats diverged");
    assert_eq!(results[0].cycles, results[1].cycles, "deadlock makespan diverged");
}

// --- Cluster level: SPMD convergence with forced divergence ------------

/// A guest built to stress convergence-group bookkeeping: every hart
/// starts on the same PC stream, then branches on `mhartid` parity into
/// different code paths with per-hart trip counts, so the initial
/// all-lanes group splits repeatedly before re-joining at the exit.
fn divergence_image() -> Image {
    let mut a = Assembler::new(Topology::L2_BASE);
    a.csrr(Reg::T0, csr::MHARTID);
    // Shared prologue: everyone converged.
    a.slli(Reg::A0, Reg::T0, 2);
    a.addi(Reg::A1, Reg::A0, 64);
    let odd = a.new_label();
    let join = a.new_label();
    a.andi(Reg::T1, Reg::T0, 1);
    a.bnez(Reg::T1, odd);
    // Even harts: fixed-count ALU loop.
    a.li(Reg::A2, 0);
    a.li(Reg::T2, 6);
    let etop = a.new_label();
    a.bind(etop);
    a.add(Reg::A2, Reg::A2, Reg::T2);
    a.addi(Reg::T2, Reg::T2, -1);
    a.bnez(Reg::T2, etop);
    a.j(join);
    // Odd harts: per-hart trip count (hartid-dependent divergence depth).
    a.bind(odd);
    a.li(Reg::A2, 1);
    a.andi(Reg::T2, Reg::T0, 7);
    a.addi(Reg::T2, Reg::T2, 1);
    let otop = a.new_label();
    a.bind(otop);
    a.add(Reg::A2, Reg::A2, Reg::A2);
    a.addi(Reg::T2, Reg::T2, -1);
    a.bnez(Reg::T2, otop);
    a.bind(join);
    // Re-converged epilogue: per-hart result store.
    a.li(Reg::A3, 0x800);
    a.slli(Reg::A4, Reg::T0, 2);
    a.add(Reg::A3, Reg::A3, Reg::A4);
    a.sw(Reg::A2, 0, Reg::A3);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
    image
}

/// SPMD convergence mode (fusion on, many harts per host chunk) vs the
/// per-lane unfused interpreter at 16 and 512 cores: identical per-hart
/// [`RunStats`], makespan and memory — including under budgets that cut
/// lanes off mid-divergence — for every guest schedule the group
/// split/re-queue logic produces.
#[test]
fn spmd_forced_divergence_identical_at_16_and_512_cores() {
    let image = divergence_image();
    for cores in [16u32, 512] {
        let topo = Topology::scaled(cores);
        let arts = terasim_terapool::SimArtifacts::build(topo, &image).unwrap();
        for budget in [u64::MAX, 1000, 37, 5] {
            let mut outs: Vec<ClusterResult> = Vec::new();
            let mut mems: Vec<Vec<u32>> = Vec::new();
            for fusion in [FusionMode::On, FusionMode::Off] {
                let mut sim = fast_sim_with_fusion(&arts, fusion);
                let mut config = RunConfig { fusion, ..arts.fast_config().clone() };
                config.max_instructions = budget;
                sim.set_config(config);
                let res = sim.run_cores(0..cores, 1).expect("divergence guest never traps");
                mems.push((0..cores).map(|h| sim.memory().read_u32(0x800 + 4 * h)).collect());
                outs.push(res);
            }
            let tag = format!("{cores} cores, budget {budget}");
            assert_eq!(outs[0].per_core, outs[1].per_core, "per-hart stats diverged ({tag})");
            assert_eq!(outs[0].cycles, outs[1].cycles, "makespan diverged ({tag})");
            assert_eq!(outs[0].deadlocked, outs[1].deadlocked, "deadlock flag diverged ({tag})");
            assert_eq!(mems[0], mems[1], "per-hart results diverged ({tag})");
        }
    }
}

/// The profiled engine (instrumented unfused order with the fused
/// table's dispatch decisions replayed) is also bit-identical, and its
/// pair histogram covers every retirement.
#[test]
fn profiled_engine_identical_and_histogram_covers_all_retirements() {
    let config = BatchConfig { n: 4, precision: Precision::Half16, nsc: 2, seed: 5, unroll: 2 };
    let on =
        SymbolScenario::prepare_with(&config, EngineOptions { fusion: FusionMode::On, ..Default::default() })
            .unwrap();
    let base = on.symbol(Job::new(config.seed)).unwrap();
    let (out, prof) = on.run_symbol_profiled(config.seed).unwrap();
    assert_eq!(symbol_key(&out), symbol_key(&base), "profiled run diverged");
    let paired: u64 = prof.pair_counts.iter().flatten().sum();
    assert_eq!(paired + 1, prof.total_retired, "every retirement after the first forms one pair");
    assert!(prof.fused_retired > 0 && prof.fused_retired <= prof.total_retired);
    assert!(prof.fused_pct() > 0.0);
}
