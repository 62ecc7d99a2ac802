//! Deterministic span tracing on the virtual timeline.
//!
//! A [`Tracer`] records a *nested* tree of named spans, each stamped with
//! the [`SimClock`] readings at which it opened and closed. Where a flat
//! [`Breakdown`] can only express Fig. 2-style pipelines, the span tree
//! captures the paper's real structure: the restore pipeline (§3) nests
//! separated-state recovery, overlay-memory mapping, and on-demand I/O
//! reconnection *inside* one boot, and each of those nests its own steps.
//!
//! Everything here is virtual time — spans never touch the wall clock, so
//! two runs with identical inputs serialize to byte-identical trees (the
//! property `tests/determinism.rs` locks in).
//!
//! # Example
//!
//! ```
//! use simtime::trace::Tracer;
//! use simtime::{SimClock, SimNanos};
//!
//! let clock = SimClock::new();
//! let mut tracer = Tracer::new(&clock);
//! tracer.begin("boot");
//! tracer.begin("restore:memory");
//! clock.charge(SimNanos::from_micros(250));
//! tracer.end();
//! let boot = tracer.end();
//! assert_eq!(boot.duration(), SimNanos::from_micros(250));
//! assert_eq!(boot.children[0].name, "restore:memory");
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Breakdown, SimClock, SimNanos};

/// One node of a span tree: a named interval `[start, end]` on the virtual
/// timeline, containing the spans opened while it was open.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Span name (phase-name conventions from `sandbox::boot` apply).
    pub name: String,
    /// Virtual time at which the span opened.
    pub start: SimNanos,
    /// Virtual time at which the span closed.
    pub end: SimNanos,
    /// Spans opened (and closed) while this span was open, in order.
    pub children: Vec<Span>,
}

impl Span {
    /// A leaf span covering `[start, end]` — mostly useful in tests.
    pub fn leaf(name: impl Into<String>, start: SimNanos, end: SimNanos) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            children: Vec::new(),
        }
    }

    /// Total virtual time the span was open.
    pub fn duration(&self) -> SimNanos {
        self.end.saturating_sub(self.start)
    }

    /// Sum of the direct children's durations.
    fn children_total(&self) -> SimNanos {
        self.children.iter().map(Span::duration).sum()
    }

    /// Time charged inside this span but outside any child span.
    pub fn self_time(&self) -> SimNanos {
        self.duration().saturating_sub(self.children_total())
    }

    /// First direct child with the given name.
    pub fn child(&self, name: &str) -> Option<&Span> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Sum of the durations of all direct children called `name` (phases may
    /// repeat, like the two `restore:kernel` legs).
    pub fn total_for(&self, name: &str) -> SimNanos {
        self.children
            .iter()
            .filter(|c| c.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Flattens the direct children into a [`Breakdown`], preserving order
    /// and duplicate names. This is how a boot span reports the paper's
    /// Fig. 2 pipeline while keeping deeper nesting available in the tree.
    pub fn to_breakdown(&self) -> Breakdown {
        let mut b = Breakdown::new();
        for c in &self.children {
            b.push(c.name.as_str(), c.duration());
        }
        b
    }

    /// Visits the span and every descendant, depth-first, with its depth
    /// (the receiver is depth 0).
    pub fn walk(&self, f: &mut impl FnMut(usize, &Span)) {
        self.walk_at(0, f);
    }

    fn walk_at(&self, depth: usize, f: &mut impl FnMut(usize, &Span)) {
        f(depth, self);
        for c in &self.children {
            c.walk_at(depth + 1, f);
        }
    }

    /// Number of spans in the tree, including the receiver.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(Span::node_count).sum::<usize>()
    }

    /// Checks monotone nesting: `start ≤ end`, every child interval lies
    /// within the parent's, children appear in non-overlapping timeline
    /// order, and the same recursively. This is the structural invariant
    /// the bench exporter validates on `BENCH_pr2.json`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated interval.
    pub fn validate_nesting(&self) -> Result<(), String> {
        if self.start > self.end {
            return Err(format!(
                "span `{}` ends before it starts ({} > {})",
                self.name, self.start, self.end
            ));
        }
        let mut cursor = self.start;
        for c in &self.children {
            if c.start < cursor {
                return Err(format!(
                    "child `{}` of `{}` starts at {} before the timeline cursor {}",
                    c.name, self.name, c.start, cursor
                ));
            }
            if c.end > self.end {
                return Err(format!(
                    "child `{}` outlives parent `{}` ({} > {})",
                    c.name, self.name, c.end, self.end
                ));
            }
            c.validate_nesting()?;
            cursor = c.end;
        }
        Ok(())
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Ok(());
        self.walk(&mut |depth, span| {
            if out.is_ok() {
                out = writeln!(
                    f,
                    "{:indent$}{} {} (+{})",
                    "",
                    span.name,
                    span.duration(),
                    span.start,
                    indent = depth * 2
                );
            }
        });
        out
    }
}

/// Records nested spans against a [`SimClock`].
///
/// `begin`/`end` must be balanced; [`Tracer::end`] returns the completed
/// span (also attached to its parent, or to the tracer's root list when it
/// was outermost), so callers can both build one global tree and hand
/// subtrees to their owners — a boot engine keeps its boot span while the
/// gateway keeps the whole invocation.
#[derive(Debug)]
pub struct Tracer {
    clock: SimClock,
    stack: Vec<Span>,
    roots: Vec<Span>,
}

impl Tracer {
    /// Creates a tracer stamping spans from `clock`.
    pub fn new(clock: &SimClock) -> Tracer {
        Tracer {
            clock: clock.clone(),
            stack: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// The clock spans are stamped from.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Opens a span at the current virtual time.
    pub fn begin(&mut self, name: impl Into<String>) {
        let now = self.clock.now();
        self.stack.push(Span {
            name: name.into(),
            start: now,
            end: now,
            children: Vec::new(),
        });
    }

    /// Closes the innermost open span, attaches it to its parent (or the
    /// root list), and returns it.
    ///
    /// # Panics
    ///
    /// Panics when no span is open — a begin/end imbalance is a bookkeeping
    /// bug in the caller.
    pub fn end(&mut self) -> Span {
        let mut span = self
            .stack
            .pop()
            .expect("Tracer::end without a matching begin");
        span.end = self.clock.now();
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(span.clone()),
            None => self.roots.push(span.clone()),
        }
        span
    }

    /// Runs `f` inside a span named `name`; everything `f` charges to the
    /// clock (and every span it opens) lands inside.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    /// Records a leaf span with an already-known cost, charging the clock.
    pub fn charge_span(&mut self, name: impl Into<String>, cost: SimNanos) {
        self.begin(name);
        self.clock.charge(cost);
        self.end();
    }

    /// How many spans are currently open.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Completed top-level spans, oldest first.
    pub fn roots(&self) -> &[Span] {
        &self.roots
    }

    /// Consumes the tracer, returning the completed top-level spans.
    ///
    /// # Panics
    ///
    /// Panics if spans are still open.
    pub fn finish(self) -> Vec<Span> {
        assert!(
            self.stack.is_empty(),
            "Tracer::finish with {} span(s) still open",
            self.stack.len()
        );
        self.roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_the_timeline() {
        let clock = SimClock::new();
        let mut t = Tracer::new(&clock);
        t.begin("boot");
        t.charge_span("sandbox:spawn", SimNanos::from_micros(300));
        t.begin("restore:memory");
        t.charge_span("map-base", SimNanos::from_micros(40));
        clock.charge(SimNanos::from_micros(10));
        t.end();
        let boot = t.end();

        assert_eq!(boot.name, "boot");
        assert_eq!(boot.duration(), SimNanos::from_micros(350));
        assert_eq!(boot.children.len(), 2);
        let mem = boot.child("restore:memory").unwrap();
        assert_eq!(mem.duration(), SimNanos::from_micros(50));
        assert_eq!(mem.self_time(), SimNanos::from_micros(10));
        assert_eq!(mem.children[0].name, "map-base");
        assert_eq!(boot.node_count(), 4);
        boot.validate_nesting().unwrap();
    }

    #[test]
    fn inverted_span_has_zero_duration() {
        // `Span` is `Deserialize` with public fields, so an inverted
        // interval can arrive from outside; it must read as empty, and
        // `validate_nesting` is what names it.
        let inverted = Span::leaf("bad", SimNanos::from_micros(9), SimNanos::from_micros(4));
        assert_eq!(inverted.duration(), SimNanos::ZERO);
        assert_eq!(inverted.self_time(), SimNanos::ZERO);
        assert!(inverted.validate_nesting().is_err());
    }

    #[test]
    fn end_returns_and_attaches() {
        let clock = SimClock::new();
        let mut t = Tracer::new(&clock);
        t.begin("outer");
        t.begin("inner");
        let inner = t.end();
        let outer = t.end();
        assert_eq!(outer.children, vec![inner]);
        assert_eq!(t.roots().len(), 1);
        assert_eq!(t.finish()[0], outer);
    }

    #[test]
    fn span_closure_api() {
        let clock = SimClock::new();
        let mut t = Tracer::new(&clock);
        let out = t.span("work", |t| {
            t.clock().charge(SimNanos::from_nanos(7));
            42
        });
        assert_eq!(out, 42);
        assert_eq!(t.roots()[0].duration(), SimNanos::from_nanos(7));
    }

    #[test]
    fn breakdown_keeps_order_and_duplicates() {
        let clock = SimClock::new();
        let mut t = Tracer::new(&clock);
        t.begin("boot");
        t.charge_span("restore:kernel", SimNanos::from_micros(5));
        t.charge_span("restore:memory", SimNanos::from_micros(9));
        t.charge_span("restore:kernel", SimNanos::from_micros(3));
        let boot = t.end();
        let b = boot.to_breakdown();
        let names: Vec<&str> = b.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            ["restore:kernel", "restore:memory", "restore:kernel"]
        );
        assert_eq!(b.total_for("restore:kernel"), SimNanos::from_micros(8));
        assert_eq!(boot.total_for("restore:kernel"), SimNanos::from_micros(8));
        assert_eq!(b.total(), boot.duration());
    }

    #[test]
    fn validation_rejects_bad_nesting() {
        let mut parent = Span::leaf("p", SimNanos::from_nanos(10), SimNanos::from_nanos(20));
        parent.children.push(Span::leaf(
            "c",
            SimNanos::from_nanos(5),
            SimNanos::from_nanos(15),
        ));
        let err = parent.validate_nesting().unwrap_err();
        assert!(err.contains("`c`"), "{err}");

        let mut overlap = Span::leaf("p", SimNanos::ZERO, SimNanos::from_nanos(20));
        overlap
            .children
            .push(Span::leaf("a", SimNanos::ZERO, SimNanos::from_nanos(12)));
        overlap.children.push(Span::leaf(
            "b",
            SimNanos::from_nanos(8),
            SimNanos::from_nanos(14),
        ));
        assert!(overlap.validate_nesting().is_err());

        let backwards = Span::leaf("x", SimNanos::from_nanos(9), SimNanos::from_nanos(3));
        assert!(backwards.validate_nesting().is_err());
    }

    #[test]
    #[should_panic(expected = "matching begin")]
    fn unbalanced_end_panics() {
        let clock = SimClock::new();
        Tracer::new(&clock).end();
    }

    #[test]
    fn serialization_round_trips() {
        let clock = SimClock::new();
        let mut t = Tracer::new(&clock);
        t.begin("boot");
        t.charge_span("app:init", SimNanos::from_micros(11));
        let span = t.end();
        let text = serde_json::to_string(&span).unwrap();
        let back: Span = serde_json::from_str(&text).unwrap();
        assert_eq!(back, span);
    }

    #[test]
    fn display_indents_by_depth() {
        let clock = SimClock::new();
        let mut t = Tracer::new(&clock);
        t.begin("boot");
        t.charge_span("sandbox:spawn", SimNanos::from_micros(1));
        let text = t.end().to_string();
        assert!(text.contains("boot"), "{text}");
        assert!(text.contains("  sandbox:spawn"), "{text}");
    }
}
