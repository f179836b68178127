//! A std-only span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a workspace crate: name, start, end, parent span, and the id of the
//! operation (one compile, one sweep candidate, one served miss, one
//! simulation round) they belong to. Everything stays in memory until the
//! run ends; then [`Tracer::chrome_json`] renders the Chrome trace-event
//! format (opens in Perfetto or `chrome://tracing`) and
//! [`Tracer::layer_table`] derives per-layer self times from the same
//! records.
//!
//! Self time of a span is its duration minus the part of its interval
//! covered by its children. The root span of each operation is the
//! `roccc` orchestration layer, so the self times of one operation sum
//! to its wall time exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u32,
    /// Parent span id, 0 for none.
    pub parent: u32,
    /// `layer.call` name, e.g. `hlir.unroll`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Operation id shared by all spans of one operation.
    pub op: u64,
    /// Small per-thread id for the trace viewer.
    pub tid: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// Open spans on this thread: (span id, op id).
    static STACK: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
    static TID: RefCell<u32> = const { RefCell::new(0) };
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

fn tid() -> u32 {
    TID.with(|t| {
        let mut t = t.borrow_mut();
        if *t == 0 {
            *t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        *t
    })
}

/// The in-memory span store plus per-name counters.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// An open span; records itself when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    op: u64,
}

impl Guard<'_> {
    /// The span's id, for parenting spans opened on other threads.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(id, _)| id == self.id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            op: self.op,
            tid: tid(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: u32, op: u64) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push((id, op)));
        Guard {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
            op,
        }
    }

    /// Opens the root span of operation `op`, optionally under a span
    /// opened on another thread (`parent` 0 = none).
    pub fn op(&self, name: &'static str, op: u64, parent: u32) -> Guard<'_> {
        self.open(name, parent, op)
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let (parent, op) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
        self.open(name, parent, op)
    }

    /// Adds `v` to the counter `name` (summed over the run).
    pub fn count(&self, name: &'static str, v: f64) {
        if let Ok(mut c) = self.counters.lock() {
            *c.entry(name).or_insert(0.0) += v;
        }
    }

    /// Counter total (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .map(|c| c.get(name).copied().unwrap_or(0.0))
            .unwrap_or(0.0)
    }

    /// A copy of every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// Renders every closed span as Chrome trace-event JSON (complete
    /// `X` events, microsecond timestamps).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans();
        let mut s = String::with_capacity(64 + spans.len() * 128);
        s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, sp) in spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                sp.name,
                sp.layer(),
                sp.start_ns as f64 / 1e3,
                sp.dur_ns() as f64 / 1e3,
                sp.tid,
                sp.id,
                sp.parent,
                sp.op
            );
        }
        s.push_str("\n]}\n");
        s
    }

    /// Self time (ns) summed per span name, plus the summed wall time
    /// of root spans (`parent` 0 or a parent that belongs to another
    /// operation) and the number of distinct operations.
    pub fn self_times(&self) -> SelfTimes {
        self_times(&self.spans())
    }
}

/// Per-name self times derived from a span list.
#[derive(Debug, Default, Clone)]
pub struct SelfTimes {
    /// Sum of self time per span name, ns.
    pub by_name: BTreeMap<&'static str, u64>,
    /// Sum of operation root-span durations, ns.
    pub op_wall_ns: u64,
    /// Distinct operations seen.
    pub ops: usize,
}

impl SelfTimes {
    /// Summed self time of every span whose name is in `names`, ns.
    pub fn sum(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .map(|n| self.by_name.get(n).copied().unwrap_or(0))
            .sum()
    }

    /// Summed self time of every span in `layer`, ns.
    pub fn layer(&self, layer: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Total self time over all spans, ns.
    pub fn total(&self) -> u64 {
        self.by_name.values().sum()
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Derives self times: each span's duration minus the union of its
/// children's intervals (children of one parent may overlap when they ran
/// on several threads).
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = SelfTimes::default();
    let mut ops = std::collections::BTreeSet::new();
    for s in spans {
        let covered = children.remove(&s.id).map_or(0, union_len);
        *out.by_name.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(covered);
        let is_root = by_id.get(&s.parent).is_none_or(|p| p.op != s.op);
        if is_root && s.op != 0 && ops.insert(s.op) {
            out.op_wall_ns += s.dur_ns();
        }
    }
    out.ops = ops.len();
    out
}

/// Renders the per-layer self-time table: one row per span name, with
/// the share of total self time, grouped under its layer.
pub fn render_table(st: &SelfTimes) -> String {
    let total = st.total().max(1) as f64;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<28} {:>12} {:>12} {:>7}",
        "span (self time)", "total ms", "per op ms", "share"
    );
    let ops = st.ops.max(1) as f64;
    for (name, ns) in &st.by_name {
        let _ = writeln!(
            s,
            "{:<28} {:>12.3} {:>12.4} {:>6.1}%",
            name,
            *ns as f64 / 1e6,
            *ns as f64 / 1e6 / ops,
            100.0 * *ns as f64 / total
        );
    }
    let _ = writeln!(
        s,
        "{:<28} {:>12.3} {:>12.4} (ops {}, self-time sum / op wall = {:.4})",
        "op wall",
        st.op_wall_ns as f64 / 1e6,
        st.op_wall_ns as f64 / 1e6 / ops,
        st.ops,
        st.total() as f64 / st.op_wall_ns.max(1) as f64
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(Vec::new()), 0);
    }

    #[test]
    fn self_times_sum_to_op_wall() {
        let t = Tracer::new();
        {
            let _op = t.op("roccc.compile", 1, 0);
            {
                let _a = t.span("hlir.unroll");
                let _b = t.span("hlir.fold");
            }
            let _c = t.span("vhdl.emit");
        }
        let st = t.self_times();
        assert_eq!(st.ops, 1);
        assert_eq!(st.total(), st.op_wall_ns);
        assert!(t.chrome_json().contains("\"name\":\"hlir.fold\""));
        let spans = t.spans();
        let fold = spans.iter().find(|s| s.name == "hlir.fold").unwrap();
        let unroll = spans.iter().find(|s| s.name == "hlir.unroll").unwrap();
        assert_eq!(fold.parent, unroll.id);
        assert_eq!(fold.op, 1);
    }
}
