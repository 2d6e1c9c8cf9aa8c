//! In-memory spans recorded from outside the engine.
//!
//! The benchmark wraps each call into a layer's public functions in a span:
//! layer, name, start, end, the span that caused it and the operation it
//! belongs to. Spans stay in memory and are written out once at the end of
//! the run. With the tracer disabled `span` is one branch and the call.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer::with_origin(enabled, Instant::now())
    }

    /// A tracer sharing another thread's clock origin, so the spans of both
    /// can be merged onto one time line.
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Sets the operation id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`; spans opened by `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Adopts the finished spans of another thread's tracer as children of
    /// the span currently open here (or as roots if none is).
    pub fn adopt(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// children cover. Children may nest (handled through their own self time)
/// or overlap each other (threads), so the cover is the union of the child
/// intervals clipped to the parent.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut edge) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                if hi > edge {
                    covered += hi - lo.max(edge);
                    edge = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals of a trace.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTotal {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sums span count, total time and self time by layer.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.layer).or_default();
        t.spans += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// The trace as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.layer, s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            layer,
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..60 with its own grandchild 20..30.
        let spans = [
            span("a", 0, 100, None),
            span("b", 10, 60, Some(0)),
            span("c", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        let layers = by_layer(&spans);
        assert_eq!(
            layers["a"].self_ns + layers["b"].self_ns + layers["c"].self_ns,
            100
        );
    }

    #[test]
    fn self_time_counts_overlapping_children_as_their_union() {
        // Two threads' children overlap on 30..50; one sticks out past the parent.
        let spans = [
            span("a", 0, 100, None),
            span("b", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("b", 90, 130, Some(0)),
            span("b", 40, 45, Some(0)),
        ];
        // Union inside the parent: 10..70 and 90..100 = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_records_parents_and_adopts_other_threads() {
        let mut tr = Tracer::new(true);
        tr.set_op(7);
        let mut other = Tracer::with_origin(true, tr.origin());
        other.span("read", "load", |_| ());
        tr.span("harness", "run", |tr| {
            tr.span("exec", "execute", |_| ());
            tr.adopt(other);
        });
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!(s[1].op, 7);
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[1].start_ns);
        assert!(to_json(s).contains("\"layer\":\"exec\""));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("exec", "execute", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
