//! The epoch coordinator of the sharded cycle engine: the worker loop that
//! drives every [`DomainEngine`] through lockstep windows, the boundary
//! replay of deferred cross-domain requests (parallel fast path and serial
//! fallback), barrier-wake delivery, and the global termination /
//! fast-forward decision.
//!
//! # Ownership
//!
//! Each host worker owns its domains **by value** (domain `d` belongs to
//! worker `d % threads`; the engines are built up front and moved to
//! their owners), and only the owner ever writes a domain's state — no
//! lock, and no engine header shares a cache line with another's (the
//! engines are 128-byte aligned). Workers exchange nothing but messages:
//! per-domain [`Summary`] atomics (each on its own cache lines),
//! [`Lane`]s of deferred requests and their replies, and — on serial
//! boundaries only — the domains themselves.
//!
//! # Protocol
//!
//! Every window `[start, end)` (base length `Topology::epoch_len()`, the
//! minimum cross-group latency; adaptive runs may grant longer ones) runs:
//!
//! 1. **Run** — every worker simulates its domains with no
//!    synchronization; anything cross-domain is deferred into the
//!    domain's outbox.
//! 2. **Publish** — the owner splits each outbox into one [`Lane`] per
//!    target domain (sent to the target's owner) and writes the domain's
//!    [`Summary`]: trapped, next event, horizon, boundary reached, and
//!    a *needs serial* flag raised by any L2/control request or any
//!    request whose replay would trap (misaligned). Worker 0 also reads
//!    the cancel token, once, and publishes it.
//! 3. **Barrier A**, then every worker computes the same verdict from the
//!    summaries alone (cancel, then the globally earliest trap, then
//!    serial, then the next window).
//! 4. **Target replay** — each worker merges the lanes aimed at its own
//!    banks in global `(issue cycle, core id)` order, grants each bank and
//!    applies the memory effect through its domain's own view, and sends
//!    back a [`Reply`] per request (grant latency, contention, value).
//! 5. **Barrier B**, then **source replay** — each worker applies the
//!    replies to its own cores in `(cycle, core)` order: LSU slot,
//!    scoreboard, WAW-guarded writeback, `stall_lsu`, exactly as
//!    [`complete`] does.
//!
//! Why this equals one global replay: every bank belongs to exactly one
//! domain, so all requests that can touch a given word — and all grants of
//! a given bank — meet in a single target merge, in the same relative
//! `(cycle, core)` order as the global sort. A core's own replies meet in
//! a single source merge, in issue order. Nothing else in a fast-path
//! replay couples two requests: wake delivery, L2 and the control region
//! only change through requests that force the serial fallback.
//!
//! **Serial fallback.** A boundary flagged *needs serial* hands every
//! domain (and every lane already delivered) to worker 0, which runs the
//! single-threaded [`boundary`] — one global `(cycle, core)` sort, replay
//! traps, L2/control and DMA effects, wake delivery — computes the next
//! window, and hands the domains back with it.
//!
//! Both paths are deterministic functions of the simulation state alone,
//! so the result is bit-identical for every host thread count;
//! [`CycleSim::run_naive`]'s full-scan epoch loop keeps its own
//! independent replay and is pinned against this driver by the
//! workspace's `parallel`/`differential`/`epochs` integration tests.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use terasim_iss::{EpochMode, MemOp, Memory, Trap, NO_REG};
use terasim_riscv::Reg;

use super::domain::{DomainEngine, WindowOpts, WHEEL_SLOTS};
use super::{CoreCtx, CycleResult, CycleSim, EpochReport, RunTables};
use crate::mem::XRequest;

/// Extension cap in base epochs. Equal to one wheel revolution at the
/// standard 4-cycle epoch — the slot scan is only aliasing-free within
/// one revolution — and small enough to bound the latency of the
/// boundary-polled cancellation check.
const MAX_EXTEND_EPOCHS: u64 = 64;

/// Computes the bank grant of one replayed request against the target
/// bank's reservation book and returns
/// `(total result latency, contention cycles)`.
///
/// The request *arrives* at `depart + hop`; because the epoch is no
/// longer than the minimum cross-group hop, the arrival never lies
/// before the boundary at which it is applied, so grants stay causal.
fn grant(x: &XRequest, bank_free: &mut u64) -> (u64, u64) {
    let arrive = x.depart + u64::from(x.hop);
    let busy = if matches!(x.op, MemOp::Amo(_)) { 2 } else { 1 };
    let granted = arrive.max(*bank_free);
    *bank_free = granted + busy;
    ((granted + busy - x.cycle) + u64::from(x.hop), granted - (x.cycle + u64::from(x.hop)))
}

/// Whether replaying `x` would raise a misaligned-access trap. L1
/// requests cannot fault any other way (their bank decoded at issue), so
/// a boundary whose requests all pass this check replays trap-free.
fn would_trap(x: &XRequest) -> bool {
    let size = match x.op {
        MemOp::Load { size, .. } | MemOp::Store { size } => u32::from(size),
        _ => 4,
    };
    !x.addr.is_multiple_of(size)
}

/// What the target's replay hands back for one request of a [`Lane`]
/// (same index): the bank grant and the value for the destination.
#[derive(Debug, Clone, Copy)]
struct Reply {
    /// `(total result latency, contention cycles)` of the bank grant.
    granted: (u64, u64),
    /// See [`access`].
    value: u32,
}

/// Performs the architectural memory effect of one replayed request
/// through `mem` and returns the value its destination receives: the
/// (sign-extended) load, the `lr.w` data or the AMO's old value (0 for
/// stores, which write no register back).
///
/// # Errors
///
/// Returns the [`Trap`] the access raises (attributed to the deferred
/// instruction's PC), exactly as the kernel would have at issue.
fn access<M: Memory>(x: &XRequest, mem: &mut M) -> Result<u32, Trap> {
    let merr = |err| Trap::Mem { pc: x.pc, err };
    Ok(match x.op {
        MemOp::Load { size, signed } => {
            let raw = mem.load(x.addr, u32::from(size)).map_err(merr)?;
            match (size, signed) {
                (1, true) => raw as u8 as i8 as i32 as u32,
                (2, true) => raw as u16 as i16 as i32 as u32,
                _ => raw,
            }
        }
        // The reservation was taken at issue; only the data returns.
        MemOp::LoadReserved => mem.load(x.addr, 4).map_err(merr)?,
        MemOp::Store { size } => {
            mem.store(x.addr, u32::from(size), x.value).map_err(merr)?;
            0
        }
        MemOp::StoreConditional => {
            // Success was decided (and rd written) against the issue-time
            // reservation; a failed sc still made the bank round trip.
            if x.sc_success {
                mem.store(x.addr, 4, x.value).map_err(merr)?;
            }
            0
        }
        MemOp::Amo(op) => mem.amo(op, x.addr, x.value).map_err(merr)?,
        MemOp::None => unreachable!("only memory operations are deferred"),
    })
}

/// Applies the scoreboard correction and writeback of one replayed
/// request to its issuing core, given its grant (`None` for L2/control
/// targets: fixed 16-cycle latency, settled exactly at issue — only the
/// memory side effect was deferred) and [`access`]'s value.
fn writeback<M>(ctx: &mut CoreCtx<M>, x: &XRequest, granted: Option<(u64, u64)>, value: u32) {
    // The replay rewrites scoreboard entries behind the slim path's
    // cached bound; force the next quiescent issue to rescan.
    ctx.hazard_until = u64::MAX;
    // WAW guard: touch rd (value and scoreboard) only while this request
    // is still rd's last writer — a later same-epoch writer wins, exactly
    // as it would against the kernel's issue-time write.
    let owns_rd = x.rd != NO_REG && ctx.reg_wseq[x.rd as usize] == x.wseq;
    if let Some((result_latency, contention)) = granted {
        ctx.stats.stall_lsu += contention;
        ctx.lsu_free[x.slot as usize] = x.cycle + result_latency;
        if owns_rd {
            ctx.reg_ready[x.rd as usize] = x.cycle + result_latency;
        }
    }
    // Stores and `sc.w` (whose rd was written at issue) write nothing back.
    if owns_rd && matches!(x.op, MemOp::Load { .. } | MemOp::LoadReserved | MemOp::Amo(_)) {
        ctx.cpu.set_reg(Reg::from_num(u32::from(x.rd) & 31), value);
    }
}

/// Replays one request entirely against its issuing core's view: memory
/// effect, then scoreboard and writeback (the serial boundary's step).
///
/// # Errors
///
/// Returns the [`Trap`] the access raises; the run aborts with it, so the
/// core's timing state is not updated.
fn complete<M: Memory>(x: &XRequest, ctx: &mut CoreCtx<M>, granted: Option<(u64, u64)>) -> Result<(), Trap> {
    let value = access(x, &mut ctx.mem)?;
    writeback(ctx, x, granted, value);
    Ok(())
}

/// Runs one serial epoch boundary: merges and replays every domain's
/// outbox in global `(cycle, core)` order, then delivers barrier wakes at
/// `end`.
///
/// # Errors
///
/// Returns the first replayed trap (deterministic: replay order is a
/// pure function of the simulation).
fn boundary(
    sim: &CycleSim,
    domains: &mut [&mut DomainEngine],
    scratch: &mut Vec<XRequest>,
    end: u64,
) -> Result<(), Trap> {
    let topo = sim.topology();
    scratch.clear();
    for d in domains.iter_mut() {
        scratch.append(&mut d.outbox);
    }
    // Each domain's outbox is already (cycle, core)-ordered; the stable
    // sort is effectively a k-way merge. Keys are unique (a core issues
    // at most one memory op per cycle).
    scratch.sort_by_key(|x| (x.cycle, x.core));
    let cores_per_group = topo.cores_per_group();
    for x in scratch.iter() {
        let granted = if x.bank != u32::MAX {
            let target = topo.domain_of_bank(x.bank) as usize;
            let slot = domains[target].banks.local_bank(x.bank);
            Some(grant(x, &mut domains[target].banks.bank_free[slot]))
        } else {
            None
        };
        let source = (x.core / cores_per_group) as usize;
        let local = (x.core % cores_per_group) as usize;
        complete(x, &mut domains[source].ctxs[local], granted)?;
    }
    for d in domains.iter_mut() {
        d.deliver_wakes(sim.memory(), end, None);
    }
    Ok(())
}

/// One scheduling window: the interval every domain (or the sole active
/// one) simulates before the next boundary. Base windows are exactly one
/// epoch; adaptive runs may grant longer ones when the quiescence
/// predicate proves no cross-domain traffic can be issued inside them.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: u64,
    /// Granted boundary (grid-aligned). A sole-active domain may trim
    /// the window back at run time; the boundary actually reached is
    /// what [`DomainEngine::run_epoch`] returns.
    end: u64,
    /// `Some(d)`: only domain `d` has any event before `end`; it runs
    /// alone with trim-on-defer while the rest fast-forward.
    sole: Option<usize>,
    /// Extended grant: the quiescent-stretch slim issue path is allowed.
    extended: bool,
}

/// What follows a boundary — identical on every worker.
#[derive(Debug, Clone, Copy)]
enum Next {
    Run(Window),
    /// Every core is done or parked with no wake in flight: finished (or
    /// guest deadlock, surfaced via `CycleResult::deadlocked`).
    Done,
    /// The job's [`CancelToken`](crate::CancelToken) was raised: stop at
    /// this boundary, un-replayed, and report the partial result.
    Cancel,
    /// A domain trapped during the window, or the serial replay did: the
    /// run aborts with the globally earliest trap.
    Trap,
}

/// Picks the next window from every domain's `(next event, horizon)` at
/// the boundary `end`.
fn plan(events: impl Iterator<Item = (u64, u64)>, end: u64, epoch: u64, adaptive: bool) -> Next {
    // First and second-smallest next-event times (and who owns the
    // first), plus the global remote-issue horizon.
    let mut first = u64::MAX;
    let mut first_dom = 0usize;
    let mut second = u64::MAX;
    let mut horizon = u64::MAX;
    for (i, (ne, h)) in events.enumerate() {
        debug_assert!(ne >= end, "next event before the boundary");
        if ne < first {
            second = first;
            first = ne;
            first_dom = i;
        } else if ne < second {
            second = ne;
        }
        horizon = horizon.min(h);
    }
    if first == u64::MAX {
        return Next::Done;
    }
    // Fast-forward over empty epochs (barrier sleeps, long refills):
    // boundaries stay on the absolute epoch grid.
    let start = first / epoch * epoch;
    let base_end = start + epoch;
    if adaptive {
        let cap = start + (WHEEL_SLOTS / epoch).clamp(1, MAX_EXTEND_EPOCHS) * epoch;
        // Sole-active: every other domain's first event lies at or
        // beyond an epoch boundary the sole domain cannot outrun — it
        // trims itself back to the fixed-cadence boundary on its first
        // deferred request, so nothing it does can create an event for
        // the others before they resume.
        let end_sole = if second == u64::MAX { cap } else { (second / epoch * epoch).min(cap) };
        // Multi-active: no ready core of any domain can issue a
        // possibly-remote uop before the static horizon, so every
        // boundary up to it is replay-empty and wake-silent.
        let end_multi = if horizon == u64::MAX { cap } else { (horizon / epoch * epoch).min(cap) };
        if end_sole > base_end && end_sole >= end_multi {
            return Next::Run(Window { start, end: end_sole, sole: Some(first_dom), extended: true });
        }
        if end_multi > base_end {
            return Next::Run(Window { start, end: end_multi, sole: None, extended: true });
        }
    }
    Next::Run(Window { start, end: base_end, sole: None, extended: false })
}

/// One domain's boundary summary, written by its owner before barrier A
/// and read by every worker after it. The fields are `Relaxed`: the
/// barrier orders them (each arrival is an `AcqRel` read-modify-write of
/// the arrival count, and waiters leave on an `Acquire` load of the
/// generation the last arrival bumped with `Release`), and the next
/// write happens only after every reader has passed barrier B or the
/// serial hand-over. Aligned so no two domains' summaries share a cache
/// line. Every field is written before barrier A of each window, so the
/// initial values are never read.
#[repr(align(128))]
#[derive(Default)]
struct Summary {
    /// The domain trapped this window (which trap wins — the earliest in
    /// `(cycle, core)` order — is settled after the workers join).
    trapped: AtomicBool,
    /// Earliest queued event (`u64::MAX` when idle); unset when trapped.
    next_event: AtomicU64,
    horizon: AtomicU64,
    /// Boundary the domain reached (a trimmed sole window ends early).
    reached: AtomicU64,
    /// The outbox holds an L2/control request or one that would trap.
    serial: AtomicBool,
}

/// The requests one source domain deferred to one target domain's banks
/// in a window, in `(cycle, core)` order. Sent to the target's owner, it
/// comes back to the source's owner with one [`Reply`] per request, at
/// the request's index (and both buffers are recycled).
struct Lane {
    from: usize,
    to: usize,
    reqs: Vec<XRequest>,
    replies: Vec<Reply>,
}

/// A worker's domains (and the lanes it received) handed to worker 0 for
/// a serial boundary.
struct Gather {
    worker: usize,
    domains: Vec<DomainEngine>,
    lanes: Vec<Lane>,
}

/// Worker 0's answer to a [`Gather`]: the domains back, and the verdict.
struct Scatter {
    domains: Vec<DomainEngine>,
    next: Next,
}

/// Everything the workers share by reference.
struct Shared<'a> {
    sim: &'a CycleSim,
    tables: &'a RunTables,
    threads: usize,
    ndom: usize,
    epoch: u64,
    adaptive: bool,
    barrier: SpinBarrier,
    summaries: Vec<Summary>,
    /// Cancel token as read by worker 0 at this boundary (published
    /// through barrier A like the summaries).
    cancel: AtomicBool,
    /// Lane inbox of each worker (requests aimed at its banks).
    lanes: Vec<Sender<Lane>>,
    /// Reply inbox of each worker (lanes coming back to their sources).
    replies: Vec<Sender<Lane>>,
}

/// What a worker leaves behind when the run stops.
struct Outcome {
    domains: Vec<DomainEngine>,
    next: Next,
    /// A trap raised by worker 0's serial replay.
    serial_trap: Option<Trap>,
    /// This worker's scheduling telemetry.
    tally: EpochReport,
}

/// Per-worker message endpoints: its two inboxes, plus its end of the
/// serial-path channels.
struct Mailbox {
    lanes: Receiver<Lane>,
    replies: Receiver<Lane>,
    serial: SerialPort,
}

/// A worker's role on serial boundaries.
enum SerialPort {
    /// Worker 0: receives every other worker's domains and answers each
    /// (`scatters[k - 1]` reaches worker `k`).
    Coordinator { gathers: Receiver<Gather>, scatters: Vec<Sender<Scatter>> },
    /// Every other worker: hands its domains over and waits for them.
    Member { gather: Sender<Gather>, scatter: Receiver<Scatter> },
}

/// Drives the sharded engine to completion on `threads` workers (clamped
/// to `1..=num_domains`); worker 0 is the calling thread. Results are
/// bit-identical for every thread count. Returns the result together
/// with the workers' summed telemetry (of trapped and cancelled runs
/// too).
pub(super) fn run_sharded(
    sim: &CycleSim,
    cores: u32,
    threads: usize,
) -> (Result<CycleResult, Trap>, EpochReport) {
    let topo = sim.topology();
    let ndom = topo.num_domains() as usize;
    debug_assert!(ndom > 1, "single-domain topologies run a solo engine (`CycleSim::run`)");
    let threads = threads.clamp(1, ndom);
    let (lane_tx, lane_rx): (Vec<_>, Vec<_>) = (0..threads).map(|_| channel()).unzip();
    let (reply_tx, reply_rx): (Vec<_>, Vec<_>) = (0..threads).map(|_| channel()).unzip();
    let (gather, gathers) = channel();
    let (scatters, scatter_rx): (Vec<_>, Vec<_>) = (1..threads).map(|_| channel()).unzip();
    let mut ports = vec![SerialPort::Coordinator { gathers, scatters }];
    ports
        .extend(scatter_rx.into_iter().map(|scatter| SerialPort::Member { gather: gather.clone(), scatter }));
    drop(gather);
    let shared = Shared {
        sim,
        // The lowered tables are part of the shared artifact set: built
        // once per scenario, shared by every worker read-only.
        tables: sim.arts.cycle_tables(),
        threads,
        ndom,
        epoch: topo.epoch_len(),
        adaptive: sim.arts.fast_config().epochs == EpochMode::Adaptive,
        barrier: SpinBarrier::new(threads),
        summaries: (0..ndom).map(|_| Summary::default()).collect(),
        cancel: AtomicBool::new(false),
        lanes: lane_tx,
        replies: reply_tx,
    };
    let reach = shared.adaptive.then(|| Arc::clone(sim.arts.reach()));
    let mut owned: Vec<Vec<DomainEngine>> = (0..threads).map(|_| Vec::new()).collect();
    for d in 0..ndom {
        owned[d % threads].push(DomainEngine::new(sim, d as u32, cores, reach.clone()));
    }
    let mut mailboxes = lane_rx
        .into_iter()
        .zip(reply_rx)
        .zip(ports)
        .zip(owned)
        .map(|(((lanes, replies), serial), domains)| (Mailbox { lanes, replies, serial }, domains));

    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let shared = &shared;
        let own = mailboxes.next().expect("at least one worker");
        let handles: Vec<_> = mailboxes
            .enumerate()
            .map(|(i, (mb, d))| scope.spawn(move || work(shared, i + 1, mb, d)))
            .collect();
        let mut outcomes = vec![work(shared, 0, own.0, own.1)];
        outcomes.extend(handles.into_iter().map(|h| h.join().expect("domain worker panicked")));
        outcomes
    });

    let next = outcomes[0].next;
    let serial_trap = outcomes[0].serial_trap;
    let mut report = EpochReport::default();
    for o in &outcomes {
        report.add(&o.tally);
    }
    let mut domains: Vec<DomainEngine> = outcomes.into_iter().flat_map(|o| o.domains).collect();
    domains.sort_by_key(|d| d.domain);
    let res = match next {
        Next::Trap => {
            // The first trap in global `(issue cycle, core id)` order — the
            // one the sequential full scan would hit first, domains being
            // independent within a window — else the serial replay's.
            let phase = domains.iter().filter_map(|d| d.trap).min_by_key(|&(cycle, core, _)| (cycle, core));
            Err(phase.map(|(_, _, trap)| trap).or(serial_trap).expect("a trap stopped the run"))
        }
        _ => {
            let ctxs = domains.into_iter().flat_map(|d| d.ctxs).collect::<Vec<_>>();
            let mut res = CycleSim::result_of(&ctxs);
            res.cancelled = matches!(next, Next::Cancel);
            Ok(res)
        }
    };
    (res, report)
}

/// One worker's loop: owns domains `t, t + threads, …` and
/// drives them through every window until the shared verdict stops.
fn work(sh: &Shared, t: usize, mb: Mailbox, mut domains: Vec<DomainEngine>) -> Outcome {
    let _poison = PoisonOnPanic(&sh.barrier);
    let sim = sh.sim;
    let topo = sim.topology();
    // Lanes (and replies) between two domains of this worker stay local;
    // the rest cross a channel: each owned domain exchanges one with
    // every domain of the other workers.
    let remote_lanes = domains.len() * (sh.ndom - domains.len());
    let owner = |d: usize| d % sh.threads;
    let mut spare: Vec<(Vec<XRequest>, Vec<Reply>)> = Vec::new();
    let mut outgoing: Vec<Lane> = Vec::new();
    let mut inbox: Vec<Lane> = Vec::new();
    let mut back: Vec<Lane> = Vec::new();
    let mut scratch: Vec<XRequest> = Vec::new();
    let mut merge = Merge::default();
    let mut tally = EpochReport::default();
    let mut serial_trap = None;
    let mut win = Window { start: 0, end: sh.epoch, sole: None, extended: false };
    let mut clock = Instant::now();
    let mut lap = |acc: &mut u64| {
        let now = Instant::now();
        *acc += (now - clock).as_nanos() as u64;
        clock = now;
    };

    let next = loop {
        // 1. Run, and 2. publish.
        let opts = WindowOpts { epoch: sh.epoch, elide: win.extended, trim: win.sole.is_some() };
        for d in domains.iter_mut() {
            let id = d.domain as usize;
            let reached = match win.sole {
                Some(s) if s != id => d.now(),
                _ => d.run_epoch(sim, sh.tables, win.start, win.end, &opts),
            };
            outgoing.extend((0..sh.ndom).map(|to| {
                let (reqs, replies) = spare.pop().unwrap_or_default();
                Lane { from: id, to, reqs, replies }
            }));
            // L2/control requests stay in the outbox for the serial path.
            let mut serial = false;
            d.outbox.retain(|x| {
                if x.bank == u32::MAX {
                    serial = true;
                    return true;
                }
                serial |= would_trap(x);
                outgoing[topo.domain_of_bank(x.bank) as usize].reqs.push(*x);
                false
            });
            for lane in outgoing.drain(..) {
                if lane.to == id {
                    debug_assert!(lane.reqs.is_empty(), "a domain never defers to its own banks");
                    spare.push((lane.reqs, lane.replies));
                } else if owner(lane.to) == t {
                    inbox.push(lane);
                } else {
                    sh.lanes[owner(lane.to)].send(lane).expect("lane inbox outlives the run");
                }
            }
            let s = &sh.summaries[id];
            s.trapped.store(d.trap.is_some(), Ordering::Relaxed);
            if d.trap.is_none() {
                s.next_event.store(d.next_event(d.now()), Ordering::Relaxed);
            }
            s.horizon.store(d.horizon(), Ordering::Relaxed);
            s.reached.store(reached, Ordering::Relaxed);
            s.serial.store(serial, Ordering::Relaxed);
        }
        if t == 0 {
            sh.cancel.store(sim.cancel_requested(), Ordering::Relaxed);
        }
        lap(&mut tally.run_ns);
        sh.barrier.wait();
        lap(&mut tally.wait_ns);

        // 3. Verdict, identical on every worker.
        let end = win.sole.map_or(win.end, |s| sh.summaries[s].reached.load(Ordering::Relaxed));
        if t == 0 {
            tally.windows += 1;
            tally.extended += u64::from(win.end - win.start > sh.epoch);
            tally.trimmed += u64::from(win.sole.is_some() && end < win.end);
            tally.cycles += end - win.start;
        }
        if sh.cancel.load(Ordering::Relaxed) {
            break Next::Cancel;
        }
        if sh.summaries.iter().any(|s| s.trapped.load(Ordering::Relaxed)) {
            break Next::Trap;
        }
        if let Some(s) = win.sole {
            for d in domains.iter_mut().filter(|d| d.domain as usize != s) {
                d.skip_to(end);
            }
        }
        for _ in 0..remote_lanes {
            inbox.push(mb.lanes.try_recv().expect("every lane is sent before barrier A"));
        }

        if sh.summaries.iter().any(|s| s.serial.load(Ordering::Relaxed)) {
            // Serial fallback: worker 0 replays the whole boundary.
            let next = match &mb.serial {
                SerialPort::Coordinator { gathers, scatters } => {
                    let mut gathered: Vec<Gather> =
                        (1..sh.threads).map(|_| await_msg(gathers, &sh.barrier)).collect();
                    let lanes: Vec<Lane> =
                        inbox.drain(..).chain(gathered.iter_mut().flat_map(|g| g.lanes.drain(..))).collect();
                    let mut all: Vec<&mut DomainEngine> = domains
                        .iter_mut()
                        .chain(gathered.iter_mut().flat_map(|g| g.domains.iter_mut()))
                        .collect();
                    all.sort_by_key(|d| d.domain);
                    for mut lane in lanes {
                        all[lane.from].outbox.append(&mut lane.reqs);
                    }
                    let next = match boundary(sim, &mut all, &mut scratch, end) {
                        Err(trap) => {
                            serial_trap = Some(trap);
                            Next::Trap
                        }
                        Ok(()) => plan(
                            all.iter().map(|d| (d.next_event(end), d.horizon())),
                            end,
                            sh.epoch,
                            sh.adaptive,
                        ),
                    };
                    for g in gathered {
                        scatters[g.worker - 1]
                            .send(Scatter { domains: g.domains, next })
                            .expect("scatter inbox outlives the run");
                    }
                    tally.serial_boundaries += 1;
                    lap(&mut tally.serial_ns);
                    next
                }
                SerialPort::Member { gather, scatter } => {
                    let handover = Gather {
                        worker: t,
                        domains: std::mem::take(&mut domains),
                        lanes: std::mem::take(&mut inbox),
                    };
                    gather.send(handover).expect("worker 0 outlives the run");
                    let answer = await_msg(scatter, &sh.barrier);
                    domains = answer.domains;
                    lap(&mut tally.wait_ns);
                    answer.next
                }
            };
            match next {
                Next::Run(w) => win = w,
                stop => break stop,
            }
            continue;
        }

        // The verdict of a fast boundary: summaries alone decide it,
        // because the parallel replay moves no event, horizon or wake.
        let next = plan(
            sh.summaries
                .iter()
                .map(|s| (s.next_event.load(Ordering::Relaxed), s.horizon.load(Ordering::Relaxed))),
            end,
            sh.epoch,
            sh.adaptive,
        );

        // 4. Target replay: requests aimed at this worker's banks.
        inbox.sort_unstable_by_key(|l| (l.to, l.from));
        for group in inbox.chunk_by_mut(|a, b| a.to == b.to) {
            let d = domains.iter_mut().find(|d| d.domain as usize == group[0].to).expect("owned target");
            tally.replayed += replay_target(d, group, &mut merge);
        }
        for lane in inbox.drain(..) {
            if owner(lane.from) == t {
                back.push(lane);
            } else {
                sh.replies[owner(lane.from)].send(lane).expect("reply inbox outlives the run");
            }
        }
        lap(&mut tally.replay_ns);
        sh.barrier.wait();
        lap(&mut tally.wait_ns);

        // 5. Source replay: replies to this worker's cores.
        for _ in 0..remote_lanes {
            back.push(mb.replies.try_recv().expect("every reply is sent before barrier B"));
        }
        back.sort_unstable_by_key(|l| (l.from, l.to));
        for group in back.chunk_by_mut(|a, b| a.from == b.from) {
            let d = domains.iter_mut().find(|d| d.domain as usize == group[0].from).expect("owned source");
            replay_source(d, group, &mut merge);
        }
        for mut lane in back.drain(..) {
            lane.reqs.clear();
            lane.replies.clear();
            spare.push((lane.reqs, lane.replies));
        }
        lap(&mut tally.replay_ns);

        match next {
            Next::Run(w) => win = w,
            stop => break stop,
        }
    };
    Outcome { domains, next, serial_trap, tally }
}

/// Scratch of a k-way merge over `(cycle, core)`-sorted runs.
#[derive(Default)]
struct Merge {
    /// `(run, cursor)` of every run not yet exhausted.
    live: Vec<(usize, usize)>,
    /// The merged visiting order, as `(run, index)`.
    order: Vec<(usize, usize)>,
}

impl Merge {
    /// Merges `runs` sorted sequences (`len(run)` entries each, keyed by
    /// `key(run, index)`; keys are unique) and returns every entry's
    /// `(run, index)` in ascending key order. Exhausted runs drop out, and
    /// the last live run is copied through without comparisons.
    fn order(
        &mut self,
        runs: usize,
        len: impl Fn(usize) -> usize,
        key: impl Fn(usize, usize) -> (u64, u32),
    ) -> &[(usize, usize)] {
        self.order.clear();
        self.live.clear();
        self.live.extend((0..runs).filter(|&r| len(r) > 0).map(|r| (r, 0)));
        while self.live.len() > 1 {
            let mut best = 0;
            let mut best_key = key(self.live[0].0, self.live[0].1);
            for (j, &(r, c)) in self.live.iter().enumerate().skip(1) {
                let k = key(r, c);
                if k < best_key {
                    best = j;
                    best_key = k;
                }
            }
            let (r, c) = self.live[best];
            self.order.push((r, c));
            if c + 1 == len(r) {
                self.live.remove(best);
            } else {
                self.live[best].1 = c + 1;
            }
        }
        if let Some(&(r, c)) = self.live.first() {
            self.order.extend((c..len(r)).map(|i| (r, i)));
        }
        &self.order
    }
}

/// Target half of a fast boundary: merges the lanes aimed at `d`'s banks
/// in global `(cycle, core)` order, grants each request against the
/// bank's reservation book and applies its memory effect through `d`'s
/// own view, recording one [`Reply`] per request in its lane. Returns
/// the number of requests replayed.
fn replay_target(d: &mut DomainEngine, lanes: &mut [Lane], merge: &mut Merge) -> u64 {
    let order = merge.order(
        lanes.len(),
        |i| lanes[i].reqs.len(),
        |i, k| (lanes[i].reqs[k].cycle, lanes[i].reqs[k].core),
    );
    for &(i, k) in order {
        let x = &lanes[i].reqs[k];
        let slot = d.banks.local_bank(x.bank);
        let granted = grant(x, &mut d.banks.bank_free[slot]);
        // Only aligned L1 requests reach the fast path (`would_trap`).
        let value = access(x, &mut d.replay_mem).expect("fast-path replay cannot trap");
        lanes[i].replies.push(Reply { granted, value });
    }
    order.len() as u64
}

/// Source half of a fast boundary: applies the replies to `d`'s cores in
/// `(cycle, core)` order.
fn replay_source(d: &mut DomainEngine, lanes: &[Lane], merge: &mut Merge) {
    let order = merge.order(
        lanes.len(),
        |i| lanes[i].reqs.len(),
        |i, k| (lanes[i].reqs[k].cycle, lanes[i].reqs[k].core),
    );
    for &(i, k) in order {
        let (x, r) = (&lanes[i].reqs[k], lanes[i].replies[k]);
        writeback(&mut d.ctxs[(x.core - d.core_base) as usize], x, Some(r.granted), r.value);
    }
}

/// Blocking receive for the serial path that still escapes (by
/// panicking) when a sibling worker unwound and poisoned the barrier.
fn await_msg<T>(rx: &Receiver<T>, barrier: &SpinBarrier) -> T {
    loop {
        match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(msg) => return msg,
            Err(RecvTimeoutError::Timeout) if !barrier.is_poisoned() => {}
            Err(_) => panic!("a sibling domain worker panicked; aborting the sharded run"),
        }
    }
}

/// A sense-reversing spin barrier for the per-window phase handoff.
///
/// Windows are only a few simulated cycles, so the handoff latency sits
/// on the critical path; spinning (with a yield fallback so
/// oversubscribed hosts — e.g. single-core CI runners — still make
/// progress) beats a futex round trip by an order of magnitude.
///
/// The barrier is **poisonable**: a worker that unwinds (a panic or
/// `debug_assert` anywhere in its loop) poisons it on the way out
/// ([`PoisonOnPanic`]), and every spinner escapes by panicking instead of
/// waiting forever — the thread scope then joins all workers and
/// propagates the original panic rather than hanging the run.
struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if self.is_poisoned() {
                    panic!("a sibling domain worker panicked; aborting the sharded run");
                }
                spins = spins.wrapping_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Poisons the barrier when its worker unwinds, so no sibling waits
/// forever on a phase that will never complete.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}
