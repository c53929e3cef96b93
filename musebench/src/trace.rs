//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions in
//! spans. A span has a name, a start and an end, the span that was open
//! when it began (its parent), and the id of the operation it belongs to.
//! Spans stay in memory until the run ends; [`Tracer::breakdown`] then
//! derives each layer's self time (its duration minus what its child spans
//! cover) and checks that, per operation, the self times add up exactly to
//! the root span. The root's own self time is the part no layer span
//! covers: the unattributed remainder.
//!
//! Single-threaded by design: each traced operation runs on the thread
//! that owns its tracer, so child spans never overlap.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    op: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
    next_op: Cell<u64>,
}

/// Per-layer self time over every traced operation of one root name.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Operations (root spans) aggregated.
    pub ops: u64,
    /// Summed root-span wall time, ns.
    pub root_ns: u64,
    /// Layer name -> (spans, summed self time in ns). The root's own name
    /// maps to the unattributed remainder.
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// Largest per-operation |root - sum of self times|, ns. Zero when the
    /// spans nest properly.
    pub max_reconcile_error_ns: u64,
}

impl Breakdown {
    /// Summed self time of `layer`, ms.
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |(_, ns)| *ns as f64 / 1e6)
    }

    /// Spans recorded for `layer`.
    pub fn spans(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |(n, _)| *n)
    }

    /// Share of root wall time no layer span covers, in percent.
    pub fn unattributed_pct(&self, root: &str) -> f64 {
        100.0 * self.self_ms(root) / (self.root_ns as f64 / 1e6).max(f64::MIN_POSITIVE)
    }

    /// The per-layer table: self time per operation and share of the root.
    pub fn render(&self, title: &str, root: &str) -> String {
        let per_op = |ns: u64| ns as f64 / 1e6 / self.ops.max(1) as f64;
        let mut out = format!(
            "per-layer self time, {title}: {} operation(s), {:.3} ms per operation\n",
            self.ops,
            per_op(self.root_ns)
        );
        let mut rows: Vec<_> = self.layers.iter().collect();
        rows.sort_by_key(|(_, (_, ns))| std::cmp::Reverse(*ns));
        for (name, (spans, ns)) in rows {
            let label = if *name == root {
                "(unattributed)"
            } else {
                name
            };
            out.push_str(&format!(
                "  {label:<28} {spans:>9} spans {:>12.4} ms/op {:>7.2}%\n",
                per_op(*ns),
                100.0 * *ns as f64 / self.root_ns.max(1) as f64
            ));
        }
        out.push_str(&format!(
            "  reconciliation: layer self times + unattributed = root, max error {} ns\n",
            self.max_reconcile_error_ns
        ));
        out
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as the root span `name` of a new operation.
    pub fn op<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        debug_assert!(self.open.borrow().is_empty(), "operations do not nest");
        self.next_op.set(self.next_op.get() + 1);
        self.span(name, f)
    }

    /// Run `f` inside a span `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name,
                start: self.now(),
                end: 0,
                parent: self.open.borrow().last().copied(),
                op: self.next_op.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.now();
        out
    }

    /// Aggregate the self times of every operation rooted at `root`.
    pub fn breakdown(&self, root: &str) -> Breakdown {
        let spans = self.spans.borrow();
        let mut covered = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut b = Breakdown::default();
        let mut per_op: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // op -> (root ns, self sum)
        let mut rooted: BTreeMap<u64, bool> = BTreeMap::new();
        for s in spans.iter() {
            if s.parent.is_none() {
                rooted.insert(s.op, s.name == root);
            }
        }
        for (i, s) in spans.iter().enumerate() {
            if rooted.get(&s.op) != Some(&true) {
                continue;
            }
            let dur = s.end - s.start;
            let self_ns = dur.saturating_sub(covered[i]);
            let entry = b.layers.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += self_ns;
            let op = per_op.entry(s.op).or_default();
            op.1 += self_ns;
            if s.parent.is_none() {
                op.0 = dur;
                b.ops += 1;
                b.root_ns += dur;
            }
        }
        b.max_reconcile_error_ns = per_op
            .values()
            .map(|(root_ns, sum)| root_ns.abs_diff(*sum))
            .max()
            .unwrap_or(0);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_reconcile_to_the_root() {
        let t = Tracer::new();
        for _ in 0..3 {
            t.op("op", || {
                t.span("a", || t.span("b", || std::hint::black_box(0u64)));
                t.span("c", || ());
            });
        }
        let b = t.breakdown("op");
        assert_eq!(b.ops, 3);
        assert_eq!(b.spans("b"), 3);
        assert_eq!(b.max_reconcile_error_ns, 0);
        let total: f64 = b.layers.keys().map(|k| b.self_ms(k)).sum();
        assert!((total - b.root_ns as f64 / 1e6).abs() < 1e-9);
    }
}
