//! `serve_mix`: the serving daemon (`daemon::Daemon`, one worker) fed by
//! a single-threaded client built on `Daemon::submit`. The benchmark owns
//! the request mix: symbol, fast-mode, cycle-accurate and ISS-BER
//! requests over more distinct scenario keys than the cache holds, so
//! LRU evictions and rebuilds happen at a steady rate.
//!
//! Phase 1 is a saturating closed loop whose window equals the queue
//! depth; it gives the capacity. Phase 2 is an open loop at the fixed
//! Poisson rate [`RATE_PER_S`], a third to a half of the 420–680
//! requests/s capacity measured on the host the benchmark was tuned on;
//! each request is timed from its scheduled send time. Tickets are polled with `Ticket::try_wait`
//! against a deadline: a request past it counts as failed, and a daemon
//! that wedged is abandoned rather than joined, so the run still ends and
//! reports.

use std::time::{Duration, Instant};

use terasim::daemon::{CachedScenario, Completion, Daemon, DaemonConfig, ServeRequest, ServeResponse};
use terasim::experiments::{BatchConfig, CycleEngine, ParallelConfig};
use terasim::{DetectorKind, NativeDut};
use terasim_kernels::Precision;
use terasim_phy::rng::Rng64;
use terasim_phy::{BerJob, BerPoint, ChannelKind, Mimo, Modulation};

use super::ber::{detection_cost, Cost, PRECISION};
use super::{set_setup, timed_setups, Digest, Params, Report, Size};
use crate::stats;
use crate::sys::CpuMeter;
use crate::trace::Tracer;

const SALT: u64 = 4;

/// Phase 2's open-loop arrival rate (requests per second).
pub const RATE_PER_S: f64 = 200.0;

/// Admission-queue depth, and phase 1's window.
const QUEUE_DEPTH: usize = 128;

/// Scenarios the daemon's cache keeps warm (the mix has seven keys).
const CACHE_CAPACITY: usize = 4;

/// A request not completed this long after its scheduled send fails.
const DEADLINE: Duration = Duration::from_secs(10);

/// Share of the timed phase spent in phase 1.
const PHASE1_SHARE: f64 = 0.35;

/// Window over which phase 1's completion rate is counted; the
/// capacity is the median window.
const WINDOW: Duration = Duration::from_millis(500);

/// Phase 2 samples needed for ten beyond p99.
const PHASE2_MIN: usize = 1010;

/// Error and iteration targets of a BER request.
const BER_TARGETS: (u64, u64) = (20, 60);

/// Per-layer metrics this workload measures itself.
pub const LAYERS: &[&str] = &[
    "fast.ns_per_inst",
    "cycle.ns_per_inst",
    "sim.cycles",
    "sim.instructions",
    "sim.ipc",
    "process.cpu_utilization",
    "process.sys_frac",
    "pool.acquire_us",
    "pool.recycle_ratio",
    "setup.prepare_ms",
    "setup.first_job_extra_ms",
    "daemon.queue_wait_ms_p50",
    "daemon.queue_wait_ms_p99",
    "daemon.service_ms_hit_p50",
    "daemon.service_ms_miss_p50",
    "cache.hit_ratio",
    "cache.evictions",
    "loadgen.lag_ms_p99",
    "trace.overhead_pct",
];

fn ber_mimo() -> Mimo {
    Mimo { n_tx: 4, n_rx: 4, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh }
}

/// The mix: relative weight and template of each request family.
fn templates() -> Vec<(u64, ServeRequest)> {
    let symbol = |n, precision, nsc| ServeRequest::Symbol {
        config: BatchConfig { n, precision, nsc, seed: 0, unroll: 2 },
    };
    let parallel = |cores, n, precision| ParallelConfig { cores, n, precision, seed: 0, unroll: 2 };
    let (target_errors, max_iterations) = BER_TARGETS;
    vec![
        (4, symbol(4, Precision::CDotp16, 8)),
        (2, symbol(4, Precision::Half16, 16)),
        (2, symbol(8, Precision::CDotp16, 8)),
        (2, ServeRequest::Fast { config: parallel(16, 4, Precision::CDotp16) }),
        (1, ServeRequest::Fast { config: parallel(64, 4, Precision::CDotp16) }),
        (
            1,
            ServeRequest::Cycle {
                config: parallel(16, 4, Precision::CDotp16),
                engine: CycleEngine::EventDriven,
            },
        ),
        (
            1,
            ServeRequest::Cycle {
                config: parallel(8, 4, Precision::WDotp8),
                engine: CycleEngine::EventDriven,
            },
        ),
        (
            1,
            ServeRequest::Ber {
                scenario: ber_mimo(),
                kind: DetectorKind::Iss(PRECISION),
                snr_db: 0.0,
                seed: 0,
                target_errors,
                max_iterations,
            },
        ),
    ]
}

/// Draws a fresh request: a weighted template with new seeds (and, for
/// BER, a new SNR point in [4, 16) dB).
fn sample(rng: &mut Rng64, mix: &[(u64, ServeRequest)]) -> ServeRequest {
    let total: u64 = mix.iter().map(|(w, _)| w).sum();
    let mut pick = rng.next_u64() % total;
    let mut chosen = &mix[0].1;
    for (weight, template) in mix {
        if pick < *weight {
            chosen = template;
            break;
        }
        pick -= weight;
    }
    let mut req = chosen.clone();
    req.reseed(rng.next_u64());
    if let ServeRequest::Ber { snr_db, .. } = &mut req {
        *snr_db = 4.0 + 12.0 * rng.next_f64();
    }
    req
}

fn config() -> DaemonConfig {
    DaemonConfig {
        workers: 1,
        queue_depth: QUEUE_DEPTH,
        cache_capacity: CACHE_CAPACITY,
        ..DaemonConfig::default()
    }
}

/// A daemon that is joined on drop unless one of its requests timed out,
/// in which case it is abandoned: joining a wedged worker would hang.
struct Guard {
    daemon: Option<Daemon>,
    wedged: bool,
}

impl Guard {
    fn start() -> Self {
        Self { daemon: Some(Daemon::start(config())), wedged: false }
    }

    fn daemon(&self) -> &Daemon {
        self.daemon.as_ref().expect("present until drop")
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.wedged {
            std::mem::forget(self.daemon.take());
        }
    }
}

/// How a request ended on the client side.
#[derive(Debug)]
enum End {
    Done(Completion),
    Shed,
    TimedOut,
}

/// One request as the client saw it.
#[derive(Debug)]
struct Served {
    idx: usize,
    scheduled: Instant,
    submitted: Instant,
    end: End,
}

impl Served {
    /// Latency from the scheduled send time; a request that did not
    /// complete counts as the deadline.
    fn latency(&self) -> Duration {
        match &self.end {
            End::Done(c) => self.submitted.saturating_duration_since(self.scheduled) + c.latency,
            End::Shed | End::TimedOut => DEADLINE,
        }
    }
}

/// How requests are released.
enum Pace<'a> {
    /// Keep `window` requests in flight; stop submitting at `until`.
    Closed { window: usize, until: Option<Instant> },
    /// Submit request `i` at `start + offsets[i]`.
    Open { offsets: &'a [Duration] },
}

/// Drives `reqs` through the daemon and collects every outcome. Never
/// blocks on a ticket: completions are polled, and past the deadline a
/// request is given up and the daemon marked wedged.
fn drive(guard: &mut Guard, reqs: &[ServeRequest], pace: &Pace) -> Vec<Served> {
    struct Pending {
        idx: usize,
        scheduled: Instant,
        submitted: Instant,
        ticket: terasim::daemon::Ticket,
    }
    let start = Instant::now();
    let mut next = 0;
    let mut inflight: Vec<Pending> = Vec::new();
    let mut done = Vec::with_capacity(reqs.len());
    loop {
        let now = Instant::now();
        let submitting = match pace {
            Pace::Closed { until, .. } => until.is_none_or(|u| now < u),
            Pace::Open { .. } => true,
        };
        while submitting && next < reqs.len() {
            let scheduled = match pace {
                Pace::Closed { window, .. } if inflight.len() < *window => Instant::now(),
                Pace::Open { offsets } if start + offsets[next] <= Instant::now() => start + offsets[next],
                _ => break,
            };
            let submitted = Instant::now();
            match guard.daemon().submit(reqs[next].clone()) {
                Ok(ticket) => inflight.push(Pending { idx: next, scheduled, submitted, ticket }),
                Err(_) => done.push(Served { idx: next, scheduled, submitted, end: End::Shed }),
            }
            next += 1;
        }
        let now = Instant::now();
        inflight.retain(|p| {
            let end = match p.ticket.try_wait() {
                Some(c) => End::Done(c),
                None if now > p.scheduled + DEADLINE => End::TimedOut,
                None => return true,
            };
            if matches!(end, End::TimedOut) {
                guard.wedged = true;
            }
            done.push(Served { idx: p.idx, scheduled: p.scheduled, submitted: p.submitted, end });
            false
        });
        if inflight.is_empty() && (!submitting || next == reqs.len()) {
            break;
        }
        let nap = match pace {
            Pace::Open { offsets } if next < reqs.len() => (start + offsets[next])
                .saturating_duration_since(Instant::now())
                .min(Duration::from_micros(200)),
            _ => Duration::from_micros(50),
        };
        std::thread::sleep(nap);
    }
    done.sort_by_key(|s| s.idx);
    done
}

/// Simulated work of one response: instructions, cycles, core-cycles,
/// and the engine's own wall time with its engine (`None` for BER).
struct Work {
    instructions: u64,
    cycles: u64,
    core_cycles: u64,
    engine: Option<(bool, Duration)>,
}

/// Checks one response and returns its digest and simulated work.
fn check(req: &ServeRequest, resp: &ServeResponse, cost: Cost) -> Result<(u64, Work), String> {
    let mut d = Digest::default();
    let work = match (req, resp) {
        (ServeRequest::Symbol { .. }, ServeResponse::Symbol(o)) if o.verified => {
            d.word(super::ofdm::digest(std::slice::from_ref(o)));
            Work {
                instructions: o.instructions,
                cycles: o.cycles,
                core_cycles: o.cycles,
                engine: Some((false, o.wall)),
            }
        }
        (ServeRequest::Fast { config }, ServeResponse::Fast(o)) if o.verified => {
            d.word(super::cluster::fast_digest(o));
            let core_cycles = o.cluster_cycles * u64::from(config.cores);
            Work {
                instructions: o.instructions,
                cycles: o.cluster_cycles,
                core_cycles,
                engine: Some((false, o.wall)),
            }
        }
        (ServeRequest::Cycle { config, .. }, ServeResponse::Cycle(o)) if o.verified => {
            d.word(super::cluster::cycle_digest(o));
            let core_cycles = o.cycles * u64::from(config.cores);
            Work { instructions: o.instructions, cycles: o.cycles, core_cycles, engine: Some((true, o.wall)) }
        }
        (
            ServeRequest::Ber { scenario, snr_db, seed, target_errors, max_iterations, .. },
            ServeResponse::Ber(q),
        ) => {
            let job = BerJob { scenario: *scenario, snr_db: *snr_db, seed: *seed };
            let native: BerPoint = job.run(&NativeDut::new(PRECISION), *target_errors, *max_iterations);
            if native != *q {
                return Err(format!("ISS point {q:?} differs from the bit-true model's {native:?}"));
            }
            d.word(super::ber::digest(std::slice::from_ref(q)));
            let cycles = q.iterations * cost.1;
            Work { instructions: q.iterations * cost.0, cycles, core_cycles: cycles, engine: None }
        }
        _ => return Err(format!("{} request came back unverified or mismatched", req.label())),
    };
    Ok((d.value(), work))
}

/// A driven phase, checked.
struct Phase {
    served: Vec<Served>,
    /// Per request: digest and work, or `None` when it failed.
    checked: Vec<Option<(u64, Work)>>,
}

fn run_phase(
    guard: &mut Guard,
    reqs: &[ServeRequest],
    pace: &Pace,
    cost: Cost,
    report: &mut Report,
) -> Phase {
    let served = drive(guard, reqs, pace);
    let checked = served
        .iter()
        .map(|s| {
            let res = match &s.end {
                End::Done(c) => match &c.response {
                    Ok(resp) => check(&reqs[s.idx], resp, cost),
                    Err(e) => Err(e.to_string()),
                },
                End::Shed => Err("shed at admission".into()),
                End::TimedOut => Err(format!("no completion within {DEADLINE:?}")),
            };
            report.op(res.is_ok(), || {
                format!("request {} ({}): {}", s.idx, reqs[s.idx].label(), res.as_ref().err().unwrap())
            });
            res.ok()
        })
        .collect();
    Phase { served, checked }
}

impl Phase {
    fn completions(&self) -> impl Iterator<Item = &Completion> {
        self.served.iter().filter_map(|s| match &s.end {
            End::Done(c) => Some(c),
            _ => None,
        })
    }

    /// Successful completions and their simulated instructions, per
    /// second, in consecutive windows of [`WINDOW`] from the phase's
    /// first submission; a partial last window is dropped unless it is
    /// the only one.
    fn window_rates(&self) -> (Vec<f64>, Vec<f64>) {
        let Some(t0) = self.served.iter().map(|s| s.submitted).min() else { return (vec![0.0], vec![0.0]) };
        let mut counts: Vec<(u64, u64)> = Vec::new();
        for (s, c) in self.served.iter().zip(&self.checked) {
            if let (End::Done(done), Some((_, work))) = (&s.end, c) {
                let at = (s.submitted + done.latency).saturating_duration_since(t0);
                let w = (at.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
                if counts.len() <= w {
                    counts.resize(w + 1, (0, 0));
                }
                counts[w].0 += 1;
                counts[w].1 += work.instructions;
            }
        }
        if counts.is_empty() {
            return (vec![0.0], vec![0.0]);
        }
        let full = &counts[..(counts.len() - 1).max(1)];
        let per_s = |x: u64| x as f64 / WINDOW.as_secs_f64();
        (full.iter().map(|c| per_s(c.0)).collect(), full.iter().map(|c| per_s(c.1)).collect())
    }

    fn digests(&self) -> Vec<Option<u64>> {
        self.checked.iter().map(|c| c.as_ref().map(|(d, _)| *d)).collect()
    }
}

/// The request streams of one run.
struct Streams {
    fill: Vec<ServeRequest>,
    phase1: Vec<ServeRequest>,
    phase2: Vec<ServeRequest>,
    offsets: Vec<Duration>,
}

fn streams(p: &Params, phase1_s: f64, phase2_s: f64) -> Streams {
    let mix = templates();
    let mut rng = p.rng(SALT);
    // Cache fill: every template once, reseeded from the stream.
    let fill = mix.iter().map(|(_, t)| sample(&mut rng, &[(1, t.clone())])).collect();
    // Enough closed-loop requests for a capacity of 2500 requests/s; a
    // faster host ends phase 1 when they run out.
    let phase1 = (0..((phase1_s * 2_500.0) as usize).max(64)).map(|_| sample(&mut rng, &mix)).collect();
    let mut rng2 = p.rng(SALT + 100);
    let n2 = match p.size {
        Size::Full => ((RATE_PER_S * phase2_s) as usize).max(PHASE2_MIN),
        Size::Tiny => 40,
    };
    let rate = match p.size {
        Size::Full => RATE_PER_S,
        Size::Tiny => RATE_PER_S / 4.0,
    };
    let mut t = 0.0;
    let offsets = (0..n2)
        .map(|_| {
            t += -(1.0 - rng2.next_f64()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect();
    let phase2 = (0..n2).map(|_| sample(&mut rng2, &mix)).collect();
    Streams { fill, phase1, phase2, offsets }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile, or 0 when a failed run left no samples (the
/// failures are already counted).
fn pct(samples: &[f64], per_mille: u64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::percentile(&stats::sorted(samples), per_mille)
    }
}

/// Starts a daemon and fills its cache; returns it with the fill digests.
fn setup(s: &Streams, cost: Cost, report: &mut Report) -> (Guard, Vec<Option<u64>>) {
    let mut guard = Guard::start();
    let fill =
        run_phase(&mut guard, &s.fill, &Pace::Closed { window: QUEUE_DEPTH, until: None }, cost, report);
    (guard, fill.digests())
}

/// Runs the workload.
///
/// # Errors
///
/// Detector costing failures.
pub fn run(p: &Params, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let share = if traced { 0.5 } else { 1.0 };
    let phase1_s = p.seconds * share * PHASE1_SHARE;
    let s = streams(p, phase1_s, p.seconds * share * (1.0 - PHASE1_SHARE));
    let cost = detection_cost(ber_mimo().n_tx)?;

    let mut fills = Vec::new();
    let (mut guard, setup_s) = timed_setups(|| {
        let (guard, digests) = setup(&s, cost, &mut report);
        fills.push(digests);
        Ok(guard)
    })?;
    for (i, f) in fills.iter().enumerate() {
        report.fail_unless(f == &fills[0], || format!("set-up {i} fill digests differ from set-up 0"));
    }

    let before = guard.daemon().stats();
    let cpu = CpuMeter::start();
    let until = Some(Instant::now() + Duration::from_secs_f64(phase1_s));
    let p1 =
        run_phase(&mut guard, &s.phase1, &Pace::Closed { window: QUEUE_DEPTH, until }, cost, &mut report);
    let p2 = run_phase(&mut guard, &s.phase2, &Pace::Open { offsets: &s.offsets }, cost, &mut report);
    let (cpu_util, sys_frac) = cpu.read();
    let (window_rps, window_ips) = p1.window_rates();
    let capacity = stats::median(&window_rps);
    let latency_ms: Vec<f64> = p2.served.iter().map(|r| ms(r.latency())).collect();

    if !traced {
        let sorted = stats::sorted(&latency_ms);
        report.set("ops_per_s", capacity);
        report.set("sim_mips", stats::median(&window_ips) / 1e6);
        report.set("op_p50_ms", stats::percentile(&sorted, 500));
        report.set("op_p90_ms", stats::percentile(&sorted, 900));
        report.timing("request_ms", &latency_ms);
        report.timing("phase1_window_rps", &window_rps);
        set_setup(&mut report, &setup_s);
        report.note("phase1_requests", p1.served.len().to_string());
        report.note("phase2_rate_per_s", format!("{RATE_PER_S}"));
        report.note("phase2_requests", p2.served.len().to_string());
        let after = guard.daemon().stats();
        report.note("cache_evictions", (after.cache.evictions - before.cache.evictions).to_string());
        return Ok(report);
    }
    drop(guard);

    report.set("process.cpu_utilization", cpu_util);
    report.set("process.sys_frac", sys_frac);
    // Modelled-design counts over the cache-fill requests, which every
    // run of a seed issues identically, sent one at a time to a fresh
    // daemon. Its first request misses and pays the build; sent again
    // it hits.
    let mut fresh = Guard::start();
    let sequential = Pace::Closed { window: 1, until: None };
    let fill = run_phase(&mut fresh, &s.fill, &sequential, cost, &mut report);
    let again = run_phase(&mut fresh, &s.fill[..1], &sequential, cost, &mut report);
    drop(fresh);
    let work: Vec<&Work> = fill.checked.iter().flatten().map(|(_, w)| w).collect();
    let instructions: u64 = work.iter().map(|w| w.instructions).sum();
    report.set("sim.instructions", instructions as f64);
    report.set("sim.cycles", work.iter().map(|w| w.cycles).sum::<u64>() as f64);
    report.set("sim.ipc", instructions as f64 / work.iter().map(|w| w.core_cycles).sum::<u64>() as f64);
    let service = |s: &Served| match &s.end {
        End::Done(c) => Some(ms(c.latency.saturating_sub(c.queued))),
        _ => None,
    };
    let extra = service(&fill.served[0]).zip(again.served.first().and_then(service)).map(|(a, b)| a - b);
    report.set("setup.first_job_extra_ms", extra.unwrap_or(0.0));
    let mut prepare_ms = Vec::new();
    for req in &s.fill {
        let start = Instant::now();
        let built = CachedScenario::build(req);
        prepare_ms.push(start.elapsed().as_secs_f64() * 1e3);
        built?;
    }
    report.set("setup.prepare_ms", stats::median(&prepare_ms));
    let scenario = CachedScenario::build(&s.fill[0])?;
    let acquire_us = super::ofdm::pool_acquire_us(scenario.artifacts());
    report.set("pool.acquire_us", stats::median(&acquire_us));
    report.timing("pool_acquire_us", &acquire_us);

    // Traced replay of the same streams on a daemon set up the same way.
    let tracer = Tracer::new();
    let (mut guard, _) = setup(&s, cost, &mut report);
    let before = guard.daemon().stats();
    let n1 = p1.served.len();
    let t1 = run_phase(
        &mut guard,
        &s.phase1[..n1],
        &Pace::Closed { window: QUEUE_DEPTH, until: None },
        cost,
        &mut report,
    );
    let t2 = run_phase(&mut guard, &s.phase2, &Pace::Open { offsets: &s.offsets }, cost, &mut report);
    let after = guard.daemon().stats();
    drop(guard);
    for (untraced, traced, label) in [(&p1, &t1, "phase 1"), (&p2, &t2, "phase 2")] {
        let (a, b) = (untraced.digests(), traced.digests());
        let same = a.iter().zip(&b).all(|(x, y)| x.is_none() || y.is_none() || x == y);
        report.fail_unless(same && a.len() == b.len(), || {
            format!("traced {label} responses differ from the untraced run")
        });
    }
    for (phase, t) in [(1u64, &t1), (2, &t2)] {
        for r in &t.served {
            let job = phase << 32 | r.idx as u64;
            let id = tracer.new_id();
            let done = match &r.end {
                End::Done(c) => r.submitted + c.latency,
                _ => r.scheduled + DEADLINE,
            };
            tracer.record(id, "serve.request", None, job, r.scheduled, done);
            tracer.record(tracer.new_id(), "loadgen.lag", Some(id), job, r.scheduled, r.submitted);
            if let End::Done(c) = &r.end {
                let dequeued = r.submitted + c.queued;
                tracer.record(tracer.new_id(), "daemon.queue", Some(id), job, r.submitted, dequeued);
                let name = if c.cache_hit { "daemon.service_hit" } else { "daemon.service_miss" };
                tracer.record(tracer.new_id(), name, Some(id), job, dequeued, done);
            }
        }
    }
    let queued: Vec<f64> = t2.completions().map(|c| ms(c.queued)).collect();
    report.set("daemon.queue_wait_ms_p50", pct(&queued, 500));
    report.set("daemon.queue_wait_ms_p99", pct(&queued, 990));
    report.timing("queue_wait_ms", &queued);
    let service = |hit: bool| -> Vec<f64> {
        t1.completions()
            .chain(t2.completions())
            .filter(|c| c.cache_hit == hit)
            .map(|c| ms(c.latency - c.queued))
            .collect()
    };
    let (hit_ms, miss_ms) = (service(true), service(false));
    report.set("daemon.service_ms_hit_p50", pct(&hit_ms, 500));
    report.set("daemon.service_ms_miss_p50", pct(&miss_ms, 500));
    report.timing("service_hit_ms", &hit_ms);
    report.timing("service_miss_ms", &miss_ms);
    let (hits, misses) = (after.cache.hits - before.cache.hits, after.cache.misses - before.cache.misses);
    report.set("cache.hit_ratio", hits as f64 / (hits + misses) as f64);
    report.set("cache.evictions", (after.cache.evictions - before.cache.evictions) as f64);
    let (fresh, recycled) =
        (after.pools.fresh - before.pools.fresh, after.pools.recycled - before.pools.recycled);
    report.set("pool.recycle_ratio", recycled as f64 / (fresh + recycled) as f64);
    let lag: Vec<f64> =
        t2.served.iter().map(|r| ms(r.submitted.saturating_duration_since(r.scheduled))).collect();
    report.set("loadgen.lag_ms_p99", pct(&lag, 990));
    let engine_ns = |cycle: bool| -> (f64, u64) {
        let works = t1.checked.iter().chain(&t2.checked).flatten().map(|(_, w)| w);
        works
            .filter_map(|w| {
                w.engine
                    .filter(|(c, _)| *c == cycle)
                    .map(|(_, wall)| (wall.as_secs_f64() * 1e9, w.instructions))
            })
            .fold((0.0, 0), |(a, b), (x, y)| (a + x, b + y))
    };
    let (fast_ns, fast_instr) = engine_ns(false);
    let (cycle_ns, cycle_instr) = engine_ns(true);
    report.set("fast.ns_per_inst", fast_ns / fast_instr as f64);
    report.set("cycle.ns_per_inst", cycle_ns / cycle_instr as f64);
    let traced_capacity = stats::median(&t1.window_rates().0);
    report.set("trace.overhead_pct", (capacity / traced_capacity - 1.0) * 100.0);
    report.spans = tracer.finish();
    Ok(report)
}
