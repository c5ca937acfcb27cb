//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer; written out once, when the run ends.
//!
//! A span is a name, a start, an end, the span that caused it and the id
//! of the request it belongs to. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u32,
    /// Work items the span covered (integers, pages, queries…).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. All tracers of a run share `epoch`, so
/// their timestamps are comparable after [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::end`] closes it.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            count: 1,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Closes a span that covered `count` work items.
    pub fn end_counted(&mut self, id: SpanId, count: u64) {
        self.end(id);
        self.spans[id as usize].count = count;
    }

    /// Moves another thread's spans in, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub spans: u64,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Median span duration.
    pub median_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span (children may overlap each
/// other and may outlive the parent's end).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total and self time per span name, sorted by name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.count += s.count;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
        durations.entry(s.name).or_default().push(s.duration_ns());
    }
    for (name, mut d) in durations {
        d.sort_unstable();
        if let Some(t) = out.get_mut(name) {
            t.median_ns = d[(d.len() - 1) / 2];
        }
    }
    out
}

/// The span dump written as `trace.json`. At most `limit` spans are
/// written (the rest are counted in `dropped`) so a long run cannot write
/// an unbounded file; the per-layer totals always cover every span.
pub fn dump(spans: &[Span], limit: usize) -> Json {
    let rows = spans
        .iter()
        .take(limit)
        .enumerate()
        .map(|(i, s)| {
            Json::obj([
                ("id", Json::from(i as u64)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                (
                    "parent",
                    // A parent past the cut would dangle; spans are
                    // appended after their parents, so this cannot happen.
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("request", Json::from(s.request as u64)),
                ("count", Json::from(s.count)),
            ])
        })
        .collect();
    Json::obj([
        ("spans_recorded", Json::from(spans.len() as u64)),
        (
            "dropped",
            Json::from(spans.len().saturating_sub(limit) as u64),
        ),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // request 0..100 ⊃ execute 10..90 ⊃ compile 20..30
        let spans = [
            span("request", 0, 100, None),
            span("execute", 10, 90, Some(0)),
            span("compile", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 70, 10]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["execute"].total_ns, 80);
        assert_eq!(totals["execute"].self_ns, 70);
        assert_eq!(totals["execute"].median_ns, 80);
        // Self times add up to the root's duration.
        assert_eq!(totals.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children 10..50 and 30..70 overlap; 80..120 outlives the parent;
        // 60..65 lies inside an interval already covered.
        let spans = [
            span("parent", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 80, 120, Some(0)),
            span("d", 60, 65, Some(0)),
        ];
        // Union inside the parent: 10..70 and 80..100 = 80 covered.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch);
        let root = main.begin("root", None, 0);
        main.end(root);
        let mut worker = Tracer::new(epoch);
        let req = worker.begin("request", None, 7);
        let child = worker.begin("child", Some(req), 7);
        worker.end(child);
        worker.end_counted(req, 3);
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].count, 3);
        assert!(spans[2].start_ns >= spans[1].start_ns);
        assert!(spans[2].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn dump_is_bounded() {
        let spans: Vec<Span> = (0..5).map(|i| span("s", i, i + 1, None)).collect();
        let text = dump(&spans, 2).to_string();
        assert!(text.contains("\"spans_recorded\":5") && text.contains("\"dropped\":3"));
    }
}
