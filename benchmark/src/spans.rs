//! The in-memory span recorder behind the traced pass.
//!
//! Spans are recorded around calls *into* the program's public functions —
//! nothing inside the program is instrumented. A disabled recorder runs
//! the closure and records nothing, so the untraced pass shares the same
//! driver code at no cost.

use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to: spans of one op share it.
    pub op: u64,
}

impl SpanRec {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next operation: spans recorded from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations, in seconds, of every closed span named `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::seconds)
            .collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"X"`) event per span, microsecond timestamps, the op id as `tid`
    /// so each operation gets its own track.
    pub fn chrome_trace(&self) -> Value {
        let selfs = self_times(&self.spans);
        let events = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::F64(s.start as f64 / 1e3)),
                    ("dur".into(), Value::F64((s.end - s.start) as f64 / 1e3)),
                    ("pid".into(), Value::U64(1)),
                    ("tid".into(), Value::U64(s.op)),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                            ),
                            ("self_us".into(), Value::F64(self_ns as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![("traceEvents".into(), Value::Arr(events))])
    }
}

/// Self time of each span, in nanoseconds: its duration minus the part of
/// that interval its direct children cover (overlapping children are not
/// counted twice).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            rec("op", 0, 100, None),
            rec("a", 10, 40, Some(0)),
            // Overlaps `a` for 10 ns: covered once.
            rec("b", 30, 60, Some(0)),
            rec("leaf", 12, 20, Some(1)),
            // Sticks out past its parent: only the inside part counts.
            rec("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 8, 40]);
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let mut r = Recorder::new(true);
        r.next_op();
        let out = r.span("outer", |r| r.span("inner", |_| 7));
        assert_eq!(out, 7);
        r.next_op();
        r.span("second", |_| ());
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 1));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("inner", Some(0), 1));
        assert_eq!((s[2].name, s[2].parent, s[2].op), ("second", None, 2));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert_eq!(r.seconds_of("inner").len(), 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", |r| r.span("y", |_| 3)), 3);
        assert!(r.spans().is_empty());
    }
}
