//! Golden pins for the cycle-accurate engine on single-group topologies.
//!
//! The differential tests compare schedulers against each other, so a
//! drift shared by every scheduler would pass them unnoticed. These pins
//! fix the absolute results instead: for each guest, the makespan, the
//! aggregate [`CycleStats`], the parked and budget-stopped hart sets and
//! an FNV-1a digest of every L1 word, asserted for both `CycleSim::run`
//! and the `CycleSim::run_naive` reference. A change that moves any of
//! them changes the modelled timing or architecture and must say so.

use terasim_kernels::{data, MmseKernel, Precision};
use terasim_phy::{ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_riscv::{csr, Assembler, Image, Reg, Segment};
use terasim_terapool::{CycleResult, CycleSim, CycleStats, Topology};

/// Everything a golden run pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    cycles: u64,
    aggregate: CycleStats,
    parked: Vec<u32>,
    budgeted: Vec<u32>,
    l1_fnv: u64,
}

/// FNV-1a over every L1 word (little-endian), in address order.
fn l1_digest(sim: &CycleSim) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for addr in (0..sim.topology().l1_bytes()).step_by(4) {
        for b in sim.memory().read_u32(addr).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn pin_of(sim: &CycleSim, r: &CycleResult) -> Pin {
    assert!(!r.cancelled);
    Pin {
        cycles: r.cycles,
        aggregate: r.aggregate(),
        parked: r.parked.clone(),
        budgeted: r.budgeted.clone(),
        l1_fnv: l1_digest(sim),
    }
}

/// Runs `image` on `cores` harts of `topo` with both engines (each on a
/// fresh simulator prepared by `setup`) and asserts both match `want`.
fn assert_pinned(topo: Topology, image: &Image, cores: u32, setup: impl Fn(&mut CycleSim), want: &Pin) {
    assert_eq!(topo.num_domains(), 1, "golden pins cover single-group topologies");
    for naive in [false, true] {
        let mut sim = CycleSim::new(topo, image).unwrap();
        setup(&mut sim);
        let r = if naive { sim.run_naive(cores) } else { sim.run(cores) }.unwrap();
        assert_eq!(&pin_of(&sim, &r), want, "naive={naive}");
    }
}

fn stats(
    instructions: u64,
    stall_raw: u64,
    stall_lsu: u64,
    stall_ins: u64,
    stall_acc: u64,
    stall_wfi: u64,
    done_at: u64,
) -> CycleStats {
    CycleStats { instructions, stall_raw, stall_lsu, stall_ins, stall_acc, stall_wfi, done_at }
}

fn image_of(build: impl FnOnce(&mut Assembler)) -> Image {
    let mut a = Assembler::new(Topology::L2_BASE);
    build(&mut a);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
    image
}

/// The MMSE kernel (`n × n` MIMO) on every core of `Topology::scaled(cores)`,
/// with generated Rayleigh problems seeded into L1.
fn assert_mmse_pinned(cores: u32, n: u32, precision: Precision, want: &Pin) {
    let topo = Topology::scaled(cores);
    let kernel = MmseKernel::new(n, precision).with_active_cores(cores);
    let layout = kernel.layout(&topo).unwrap();
    let image = kernel.build(&topo).unwrap();
    let seed = |sim: &mut CycleSim| {
        let scenario = Mimo {
            n_tx: n as usize,
            n_rx: n as usize,
            modulation: Modulation::Qam16,
            channel: ChannelKind::Rayleigh,
        };
        let mut generator = TxGenerator::new(scenario, 11.0, 4242);
        for p in 0..layout.problems {
            let t = generator.next_transmission();
            let h: Vec<(f64, f64)> = t.h.iter().map(|z| (*z).into()).collect();
            let y: Vec<(f64, f64)> = t.y.iter().map(|z| (*z).into()).collect();
            data::write_problem(sim.memory(), &layout, p, &h, &y, t.sigma);
        }
    };
    assert_pinned(topo, &image, cores, seed, want);
}

#[test]
fn mmse_16c_half16() {
    assert_mmse_pinned(
        16,
        4,
        Precision::Half16,
        &Pin {
            cycles: 2358,
            aggregate: stats(21731, 11664, 4349, 2250, 0, 532, 2358),
            parked: vec![],
            budgeted: vec![],
            l1_fnv: 0x6c0d_e556_981c_f9f2,
        },
    );
}

#[test]
fn mmse_16c_cdotp16() {
    assert_mmse_pinned(
        16,
        4,
        Precision::CDotp16,
        &Pin {
            cycles: 1760,
            aggregate: stats(16131, 7700, 2105, 1800, 0, 659, 1760),
            parked: vec![],
            budgeted: vec![],
            l1_fnv: 0x4381_2232_c5b1_df8b,
        },
    );
}

#[test]
fn mmse_16c_wdotp8() {
    assert_mmse_pinned(
        16,
        4,
        Precision::WDotp8,
        &Pin {
            cycles: 1808,
            aggregate: stats(17699, 7573, 331, 1900, 0, 200, 1808),
            parked: vec![],
            budgeted: vec![],
            l1_fnv: 0xa079_e42e_1e20_0946,
        },
    );
}

#[test]
fn mmse_64c_4x4() {
    assert_mmse_pinned(
        64,
        4,
        Precision::CDotp16,
        &Pin {
            cycles: 2003,
            aggregate: stats(64707, 44883, 30187, 7200, 0, 5188, 2003),
            parked: vec![],
            budgeted: vec![],
            l1_fnv: 0x1df4_8e0c_fcf1_77fe,
        },
    );
}

#[test]
fn mmse_256c_8x8() {
    assert_mmse_pinned(
        256,
        8,
        Precision::CDotp16,
        &Pin {
            cycles: 9981,
            aggregate: stats(1099523, 1223608, 1080589, 29600, 0, 75152, 9981),
            parked: vec![],
            budgeted: vec![],
            l1_fnv: 0x35a3_90a9_cdd9_9060,
        },
    );
}

/// Amoadd-counting barrier: the last arrival stores the wake-all
/// register, every other hart parks in `wfi` until then.
fn emit_barrier(a: &mut Assembler, counter_addr: i32, cores: u32) {
    a.li(Reg::A1, counter_addr);
    a.li(Reg::A2, 1);
    a.amoadd_w(Reg::A3, Reg::A2, Reg::A1);
    a.li(Reg::A4, (cores - 1) as i32);
    let last = a.new_label();
    let done = a.new_label();
    a.beq(Reg::A3, Reg::A4, last);
    a.wfi();
    a.j(done);
    a.bind(last);
    a.li(Reg::A5, Topology::CTRL_WAKE_ALL as i32);
    a.sw(Reg::A2, 0, Reg::A5);
    a.bind(done);
}

/// Three barrier episodes after hart-skewed spin work, so the waker sits
/// mid-range and both wake-observation rules (harts after the waker in
/// the same cycle, harts before it one cycle later) are exercised.
#[test]
fn barrier_wake_guest() {
    let cores = 32u32;
    let topo = Topology::scaled(cores);
    let image = image_of(|a| {
        a.csrr(Reg::T0, csr::MHARTID);
        for phase in 0..3 {
            // Spin `(hart * (5 + 2·phase)) % 23 + 1` iterations.
            a.li(Reg::T1, 5 + 2 * phase);
            a.mul(Reg::T2, Reg::T0, Reg::T1);
            a.li(Reg::T1, 23);
            a.remu(Reg::T2, Reg::T2, Reg::T1);
            a.addi(Reg::T2, Reg::T2, 1);
            let top = a.new_label();
            a.bind(top);
            a.addi(Reg::T2, Reg::T2, -1);
            a.bnez(Reg::T2, top);
            // Per-hart record of the phase (checked through the L1 digest).
            a.slli(Reg::T3, Reg::T0, 2);
            a.li(Reg::T4, 0x800 + 0x100 * phase);
            a.add(Reg::T4, Reg::T4, Reg::T3);
            a.csrr(Reg::T5, csr::MCYCLE);
            a.sw(Reg::T5, 0, Reg::T4);
            emit_barrier(a, 0x40 + 4 * phase, cores);
        }
    });
    assert_pinned(
        topo,
        &image,
        cores,
        |_| {},
        &Pin {
            cycles: 437,
            aggregate: stats(4051, 2344, 209, 900, 0, 4310, 437),
            parked: vec![],
            budgeted: vec![],
            l1_fnv: 0xae5f_2164_2790_8db1,
        },
    );
}

/// Harts 0..3 sleep with no waker: a guest deadlock with partial stats.
#[test]
fn deadlock_guest() {
    let topo = Topology::scaled(8);
    let image = image_of(|a| {
        a.csrr(Reg::T0, csr::MHARTID);
        a.li(Reg::T1, 3);
        let skip = a.new_label();
        a.bge(Reg::T0, Reg::T1, skip);
        a.wfi();
        a.bind(skip);
        a.slli(Reg::T2, Reg::T0, 2);
        a.sw(Reg::T0, 0x200, Reg::T2);
    });
    assert_pinned(
        topo,
        &image,
        8,
        |_| {},
        &Pin {
            cycles: 8,
            aggregate: stats(42, 0, 0, 25, 0, 0, 8),
            parked: vec![0, 1, 2],
            budgeted: vec![],
            l1_fnv: 0xa54d_b2a5_3e58_17f6,
        },
    );
}

/// Every hart stores to its own L2 word, loads it back (plus a
/// neighbour's, which may or may not have landed yet) and records both
/// in L1: L2 traffic executes in place on single-group topologies.
#[test]
fn l2_store_load_guest() {
    let cores = 16u32;
    let topo = Topology::scaled(cores);
    let l2_data = (Topology::L2_BASE + 0x10_0000) as i32;
    let image = image_of(|a| {
        a.csrr(Reg::T0, csr::MHARTID);
        a.slli(Reg::T1, Reg::T0, 2);
        a.li(Reg::A0, l2_data);
        a.add(Reg::A0, Reg::A0, Reg::T1);
        a.addi(Reg::T2, Reg::T0, 0x55);
        a.sw(Reg::T2, 0, Reg::A0);
        a.lw(Reg::T3, 0, Reg::A0);
        a.lw(Reg::T4, 4, Reg::A0);
        a.add(Reg::T5, Reg::T3, Reg::T4);
        a.sw(Reg::T3, 0x300, Reg::T1);
        a.sw(Reg::T5, 0x400, Reg::T1);
    });
    assert_pinned(
        topo,
        &image,
        cores,
        |_| {},
        &Pin {
            cycles: 52,
            aggregate: stats(192, 210, 64, 100, 0, 0, 52),
            parked: vec![],
            budgeted: vec![],
            l1_fnv: 0xe319_02b8_d8b3_207d,
        },
    );
}

/// An endless loop with an L1 store stopped by the instruction budget.
#[test]
fn budget_hit_guest() {
    let cores = 8u32;
    let topo = Topology::scaled(cores);
    let image = image_of(|a| {
        a.csrr(Reg::T0, csr::MHARTID);
        a.slli(Reg::T1, Reg::T0, 2);
        let top = a.new_label();
        a.bind(top);
        a.addi(Reg::T2, Reg::T2, 3);
        a.sw(Reg::T2, 0x100, Reg::T1);
        a.j(top);
    });
    let budget = |sim: &mut CycleSim| sim.max_instructions = 500;
    assert_pinned(
        topo,
        &image,
        cores,
        budget,
        &Pin {
            cycles: 857,
            aggregate: stats(4000, 0, 0, 25, 0, 0, 857),
            parked: vec![],
            budgeted: vec![0, 1, 2, 3, 4, 5, 6, 7],
            l1_fnv: 0x9636_ce16_6af3_e3b5,
        },
    );
}
