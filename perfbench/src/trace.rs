//! In-memory span recording around the benchmark's calls into the
//! library, and the self-time arithmetic over the recorded spans.
//!
//! Spans come only from this benchmark's own code: one around each call
//! it makes into a public function, plus *derived* child spans for inner
//! durations the API already returns (an outcome's engine `wall`, a
//! completion's `queued`). A derived span has a known length but no
//! known start, so it is placed at the end of its parent's interval; the
//! self-time arithmetic only needs how much of the parent it covers.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a recorded span (0 is never issued).
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span.
    pub id: SpanId,
    /// The span that caused it, if any.
    pub parent: Option<SpanId>,
    /// Layer-qualified name, e.g. `fast.engine`.
    pub name: &'static str,
    /// Job or request id shared by the spans of one unit of work.
    pub job: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder shared by the benchmark's worker threads.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self { t0: Instant::now(), next: AtomicU32::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("a span recorder never panics while holding its lock").push(span);
    }

    /// Runs `f` inside a new span and records it when `f` returns.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        self.push(Span { id, parent, name, job, start_ns, end_ns: self.now_ns() });
        out
    }

    /// Records a derived child of `parent`: an inner duration the library
    /// reported, ending now (at most `len` long, never before `floor_ns`).
    pub fn derived(&self, name: &'static str, parent: SpanId, job: u64, floor_ns: u64, len: Duration) {
        let end_ns = self.now_ns();
        let len = u64::try_from(len.as_nanos()).unwrap_or(u64::MAX);
        let start_ns = end_ns.saturating_sub(len).max(floor_ns);
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span { id, parent: Some(parent), name, job, start_ns, end_ns });
    }

    /// Reserves an id for a span recorded later with
    /// [`record`](Self::record), so its children can name it first.
    pub fn new_id(&self) -> SpanId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span whose interval the caller measured itself.
    pub fn record(
        &self,
        id: SpanId,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        start: Instant,
        end: Instant,
    ) {
        let at =
            |t: Instant| u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX);
        self.push(Span { id, parent, name, job, start_ns: at(start), end_ns: at(end) });
    }

    /// Nanoseconds since the tracer started (the `floor_ns` of
    /// [`derived`](Self::derived) is usually the parent's start).
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// The recorded spans, in id order.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("a span recorder never panics while holding its lock");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, in the order given: its length minus the
/// part of its interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            s.len_ns() - covered(s.start_ns, s.end_ns, kids)
        })
        .collect()
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed span lengths (ns).
    pub total_ns: u64,
    /// Summed self times (ns).
    pub self_ns: u64,
}

/// Aggregates a trace by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.len_ns();
        t.self_ns += own;
    }
    out
}

/// Lengths (ns) of every span called `name`.
pub fn lengths(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.len_ns() as f64).collect()
}

/// Summed length (ns) of every span called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    lengths(spans, name).iter().sum()
}

/// Writes a trace as tab-separated rows: id, parent, name, job, start,
/// end and self time (ns).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_tsv(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "id\tparent\tname\tjob\tstart_ns\tend_ns\tself_ns")?;
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or(0, |p| p);
        writeln!(out, "{}\t{parent}\t{}\t{}\t{}\t{}\t{own}", s.id, s.name, s.job, s.start_ns, s.end_ns)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "x", job: 0, start_ns, end_ns }
    }

    #[test]
    fn covered_merges_and_clips() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (15, 30), (40, 50)]), 30);
        // Clipped to the parent's interval on both sides.
        assert_eq!(covered(10, 20, &[(0, 15), (18, 40)]), 7);
        // Touching intervals merge without double counting.
        assert_eq!(covered(0, 100, &[(0, 10), (10, 20)]), 20);
        // Fully nested intervals count once.
        assert_eq!(covered(0, 100, &[(0, 100), (20, 30)]), 100);
        assert_eq!(covered(0, 100, &[(200, 300)]), 0);
    }

    #[test]
    fn self_time_subtracts_children_only() {
        // root [0,100) with children [10,40) and [30,60); grandchild
        // [15,20) under the first child only.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(2), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
        let totals = by_name(&spans);
        assert_eq!(totals["x"], LayerTotals { count: 4, total_ns: 100 + 30 + 30 + 5, self_ns: 110 });
    }

    #[test]
    fn derived_spans_nest_inside_their_parent() {
        let tracer = Tracer::new();
        tracer.span("outer", None, 7, |id| {
            let floor = tracer.clock_ns();
            std::thread::sleep(Duration::from_millis(2));
            // A reported inner duration longer than the parent is clipped.
            tracer.derived("inner", id, 7, floor, Duration::from_secs(5));
        });
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], outer.len_ns() - inner.len_ns());
        let mut tsv = Vec::new();
        write_tsv(&spans, &mut tsv).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 3);
    }
}
