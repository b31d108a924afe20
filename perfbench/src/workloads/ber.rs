//! `ber_iss`: hardware-in-the-loop BER curves through
//! `experiments::ber_curve` with `DetectorKind::Iss` — every detection
//! runs the generated kernel on a simulated Snitch. Two scenarios, 4×4
//! 16-QAM Rayleigh and 8×8 16-QAM AWGN, each swept over a seeded SNR
//! grid to fixed error and iteration targets. A round is four
//! `ber_curve` calls per scenario; the round is the workload's operation.

use std::time::Instant;

use terasim::experiments::ber_curve;
use terasim::serve::BatchRunner;
use terasim::{DetectorKind, IssDetector};
use terasim_kernels::{data, MmseKernel, Precision, C64};
use terasim_phy::{BerPoint, ChannelKind, Cplx, Detector, Mimo, Modulation, TxGenerator};
use terasim_terapool::FastSim;

use super::{run_rounds, set_round_metrics, set_setup, timed_setups, Digest, OpRecord, Params, Report, Size};
use crate::stats;
use crate::sys::CpuMeter;
use crate::trace::{self, SpanId, Tracer};

const SALT: u64 = 3;
pub(crate) const PRECISION: Precision = Precision::CDotp16;
const KIND: DetectorKind = DetectorKind::Iss(PRECISION);

/// Per-layer metrics this workload measures itself.
pub const LAYERS: &[&str] = &[
    "detect.us_p50",
    "detect.us_p99",
    "phy.point_self_frac",
    "batch.utilization",
    "sim.cycles",
    "sim.instructions",
    "sim.ipc",
    "process.cpu_utilization",
    "process.sys_frac",
    "pool.acquire_us",
    "setup.prepare_ms",
    "setup.first_job_extra_ms",
    "trace.overhead_pct",
];

/// A swept scenario: the channel and its base SNR grid (dB).
struct Sweep {
    mimo: Mimo,
    grid: &'static [f64],
}

const SWEEPS: [Sweep; 2] = [
    Sweep {
        mimo: Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh },
        grid: &[0.0, 5.0, 10.0, 15.0, 20.0],
    },
    Sweep {
        mimo: Mimo { n_tx: 8, n_rx: 8, modulation: Modulation::Qam16, channel: ChannelKind::Awgn },
        grid: &[0.0, 3.0, 6.0, 9.0, 12.0],
    },
];

/// Error and iteration targets of every point, grid points per curve,
/// and curves per scenario in a round.
fn targets(size: Size) -> (u64, u64, usize, usize) {
    match size {
        Size::Full => (100, 400, 5, 4),
        Size::Tiny => (20, 40, 2, 1),
    }
}

/// One curve: scenario index, jittered grid and Monte-Carlo seed.
#[derive(Debug, Clone)]
struct Curve {
    sweep: usize,
    grid: Vec<f64>,
    seed: u64,
}

/// Simulated cost of one detection, measured on the detector's own
/// artifacts: `(instructions, cycles)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cost(pub u64, pub u64);

/// Runs the `n`×`n` detector kernel on three problems through the
/// public simulator API, as `IssDetector::detect` does, and returns the
/// per-detection cost, which must not depend on the data.
pub(crate) fn detection_cost(n: usize) -> Result<Cost, String> {
    let pool = KIND.memory_pool(n).ok_or("an ISS detector owns a cluster memory")?;
    let arts = pool.artifacts();
    let topo = arts.topology();
    let kernel = MmseKernel::new(n as u32, PRECISION).with_active_cores(1);
    let image = kernel.build(&topo).map_err(|e| e.to_string())?;
    if image != *arts.image() {
        return Err("the ISS detector's kernel differs from the one costed here".into());
    }
    let layout = kernel.layout(&topo).map_err(|e| e.to_string())?;
    let mimo = Mimo { n_tx: n, n_rx: n, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh };
    let mut costs = Vec::new();
    for seed in 0..3 {
        let t = TxGenerator::new(mimo, 10.0, seed).next_transmission();
        let h: Vec<C64> = t.h.iter().map(|z| (*z).into()).collect();
        let y: Vec<C64> = t.y.iter().map(|z| (*z).into()).collect();
        let mut sim = FastSim::from_pool(&pool);
        data::write_problem(sim.memory(), &layout, 0, &h, &y, t.sigma);
        sim.memory().write_u32(layout.barrier_addr, 0);
        let res = sim.run_cores(0..1, 1).map_err(|e| e.to_string())?;
        costs.push(Cost(res.total_instructions(), res.cycles));
    }
    if costs.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("detection cost depends on the data: {costs:?}"));
    }
    Ok(costs[0])
}

pub(crate) fn digest(points: &[BerPoint]) -> u64 {
    let mut d = Digest::default();
    for q in points {
        d.word(q.snr_db.to_bits()).word(q.bits).word(q.errors).word(q.iterations);
    }
    d.value()
}

/// Checks a curve's shape and its agreement with the native bit-true
/// model of the same kernel, which must give identical points.
fn check(c: &Curve, points: &[BerPoint], size: Size) -> Result<(), String> {
    let (target, max, ..) = targets(size);
    let mimo = SWEEPS[c.sweep].mimo;
    if points.len() != c.grid.len() {
        return Err(format!("{} points for a {}-point grid", points.len(), c.grid.len()));
    }
    for (q, &snr) in points.iter().zip(&c.grid) {
        let done = q.errors >= target || q.iterations == max;
        let bits = q.iterations * mimo.bits_per_use() as u64;
        if q.snr_db.to_bits() != snr.to_bits() || q.iterations == 0 || !done || q.bits != bits {
            return Err(format!("malformed point {q:?}"));
        }
    }
    let native = ber_curve(mimo, &c.grid, DetectorKind::Native(PRECISION), target, max, c.seed);
    if native != points {
        return Err(format!("ISS points {points:?} differ from the bit-true model's {native:?}"));
    }
    Ok(())
}

fn call(c: &Curve, p: &Params, costs: &[Cost]) -> (OpRecord, Vec<BerPoint>) {
    let (target, max, ..) = targets(p.size);
    let mimo = SWEEPS[c.sweep].mimo;
    let start = Instant::now();
    let points = ber_curve(mimo, &c.grid, KIND, target, max, c.seed);
    let wall = start.elapsed().as_secs_f64();
    let detections: u64 = points.iter().map(|q| q.iterations).sum();
    (OpRecord { wall, instructions: detections * costs[c.sweep].0, digest: digest(&points) }, points)
}

fn checked(c: &Curve, p: &Params, costs: &[Cost], report: &mut Report) -> (OpRecord, Vec<BerPoint>) {
    let (rec, points) = call(c, p, costs);
    let verdict = check(c, &points, p.size);
    report.op(verdict.is_ok(), || format!("curve {} seed {}: {}", c.sweep, c.seed, verdict.unwrap_err()));
    (rec, points)
}

/// A detector that records a span around every detection.
struct TimedDetector<'a> {
    inner: &'a (dyn Detector + Send + Sync),
    tracer: &'a Tracer,
    parent: SpanId,
    job: u64,
}

impl Detector for TimedDetector<'_> {
    fn detect(&self, n_tx: usize, h: &[Cplx], y: &[Cplx], sigma: f64) -> Vec<Cplx> {
        self.tracer.span("detect", Some(self.parent), self.job, |_| self.inner.detect(n_tx, h, y, sigma))
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The traced re-composition of `ber_curve`: `ber_jobs` on a
/// `BatchRunner` with the instantiated detector wrapped in spans.
fn traced_curve(tr: &Tracer, job: u64, c: &Curve, size: Size) -> Vec<BerPoint> {
    let (target, max, ..) = targets(size);
    let mimo = SWEEPS[c.sweep].mimo;
    tr.span("ber.curve", None, job, |curve| {
        let detector = tr.span("setup.instantiate", Some(curve), job, |_| KIND.instantiate(mimo.n_tx));
        let jobs = terasim_phy::ber_jobs(mimo, &c.grid, c.seed);
        tr.span("batch.run", Some(curve), job, |batch| {
            BatchRunner::new().run(jobs, |_ctx, point| {
                tr.span("phy.point", Some(batch), job, |id| {
                    let timed = TimedDetector { inner: detector.as_ref(), tracer: tr, parent: id, job };
                    point.run(&timed, target, max)
                })
            })
        })
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Detector build or costing failures.
pub fn run(p: &Params, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = p.rng(SALT);
    let (_, _, grid_len, repeats) = targets(p.size);
    let mut curves: Vec<Vec<Curve>> = Vec::new();
    let mut round = |r: usize, curves: &mut Vec<Vec<Curve>>| {
        while curves.len() <= r {
            let round = (0..repeats * SWEEPS.len()).map(|i| {
                let sweep = i % SWEEPS.len();
                // Each point jitters uniformly within ±1 dB of its base.
                let grid =
                    SWEEPS[sweep].grid[..grid_len].iter().map(|g| g + 2.0 * rng.next_f64() - 1.0).collect();
                Curve { sweep, grid, seed: rng.next_u64() }
            });
            curves.push(round.collect());
        }
        curves[r].clone()
    };
    let round0 = round(0, &mut curves);

    // Set-up: build the detector artifacts (timed alone as
    // `setup.prepare_ms`), cost one detection per size, and run round
    // 0's first curve.
    let mut prepare_ms = Vec::new();
    let mut warm: Vec<OpRecord> = Vec::new();
    let (costs, setup_s) = timed_setups(|| {
        let mut costs = Vec::new();
        for s in &SWEEPS {
            let start = Instant::now();
            IssDetector::build_artifacts(PRECISION, s.mimo.n_tx as u32).map_err(|e| e.to_string())?;
            prepare_ms.push(start.elapsed().as_secs_f64() * 1e3);
            costs.push(detection_cost(s.mimo.n_tx)?);
        }
        warm.push(checked(&round0[0], p, &costs, &mut report).0);
        Ok(costs)
    })?;

    let seconds = if traced { p.seconds / 2.0 } else { p.seconds };
    let cpu = CpuMeter::start();
    let mut round0_points = Vec::new();
    let rounds = run_rounds(seconds, |r| {
        round(r, &mut curves)
            .into_iter()
            .map(|c| {
                let (rec, points) = checked(&c, p, &costs, &mut report);
                if r == 0 {
                    round0_points.push(points);
                }
                (c, rec)
            })
            .collect::<Vec<_>>()
    });
    let (cpu_util, sys_frac) = cpu.read();
    let ops: Vec<OpRecord> = rounds.iter().flatten().map(|(_, r)| *r).collect();
    for (i, w) in warm.iter().enumerate() {
        report.fail_unless(w.digest == ops[0].digest, || {
            format!("set-up {i} curve digest differs from round 0")
        });
    }

    if !traced {
        let by_round: Vec<Vec<OpRecord>> =
            rounds.iter().map(|r| r.iter().map(|(_, o)| *o).collect()).collect();
        set_round_metrics(&mut report, &by_round);
        set_setup(&mut report, &setup_s);
        let points = (ops.len() * grid_len) as f64;
        report.note("ber_points_per_s", format!("{}", points / ops.iter().map(|o| o.wall).sum::<f64>()));
        for (s, c) in SWEEPS.iter().zip(&costs) {
            report.note(format!("detection_{}x{}_instructions", s.mimo.n_tx, s.mimo.n_tx), c.0.to_string());
        }
        return Ok(report);
    }

    report.set("process.cpu_utilization", cpu_util);
    report.set("process.sys_frac", sys_frac);
    report.set("setup.prepare_ms", stats::median(&prepare_ms));
    report.set("setup.first_job_extra_ms", (warm[0].wall - ops[0].wall) * 1e3);
    let (mut instructions, mut cycles) = (0u64, 0u64);
    for (c, points) in round0.iter().zip(&round0_points) {
        let detections: u64 = points.iter().map(|q| q.iterations).sum();
        instructions += detections * costs[c.sweep].0;
        cycles += detections * costs[c.sweep].1;
    }
    report.set("sim.instructions", instructions as f64);
    report.set("sim.cycles", cycles as f64);
    report.set("sim.ipc", instructions as f64 / cycles as f64);

    let tracer = Tracer::new();
    let (mut traced_wall, mut untraced_wall) = (0.0, 0.0);
    for (job, (c, rec)) in rounds.iter().flatten().enumerate() {
        let start = Instant::now();
        let points = traced_curve(&tracer, job as u64, c, p.size);
        traced_wall += start.elapsed().as_secs_f64();
        untraced_wall += rec.wall;
        report.op(digest(&points) == rec.digest, || format!("traced curve {job} differs from ber_curve"));
    }
    let spans = tracer.finish();
    let detect_us: Vec<f64> = trace::lengths(&spans, "detect").iter().map(|ns| ns / 1e3).collect();
    let sorted = stats::sorted(&detect_us);
    report.set("detect.us_p50", stats::percentile(&sorted, 500));
    report.set("detect.us_p99", stats::percentile(&sorted, 990));
    report.timing("detect_us", &detect_us);
    let points = trace::total(&spans, "phy.point");
    report.set("phy.point_self_frac", (points - trace::total(&spans, "detect")) / points);
    report.set(
        "batch.utilization",
        points / (BatchRunner::new().workers() as f64 * trace::total(&spans, "batch.run")),
    );
    report.set("trace.overhead_pct", (traced_wall / untraced_wall - 1.0) * 100.0);
    report.spans = spans;

    let pool = KIND.memory_pool(SWEEPS[0].mimo.n_tx).ok_or("an ISS detector owns a cluster memory")?;
    let acquire_us = super::ofdm::pool_acquire_us(pool.artifacts());
    report.set("pool.acquire_us", stats::median(&acquire_us));
    report.timing("pool_acquire_us", &acquire_us);
    Ok(report)
}
