use std::fmt;

use serde::{Deserialize, Serialize};

use crate::SimNanos;

/// A named-phase latency breakdown, like the pipelines in the paper's
/// Figure 2 ("Parse Configuration → Boot Sandbox process → ... → Execute
/// handler").
///
/// Phases are recorded in order; the same name may appear more than once
/// (repeat occurrences are kept separate so pipelines remain legible), and
/// [`Breakdown::total_for`] aggregates across occurrences.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Breakdown {
    phases: Vec<(String, SimNanos)>,
}

impl Breakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Breakdown::default()
    }

    /// Appends a phase measurement.
    pub fn push(&mut self, name: impl Into<String>, cost: SimNanos) {
        self.phases.push((name.into(), cost));
    }

    /// Iterates over `(name, cost)` pairs in recording order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, SimNanos)> {
        self.phases.iter().map(|(n, c)| (n.as_str(), *c))
    }

    /// Number of recorded phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// True if no phase has been recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Sum of every recorded phase.
    pub fn total(&self) -> SimNanos {
        self.phases.iter().map(|(_, c)| *c).sum()
    }

    /// Sum of all occurrences of the phase called `name`.
    pub fn total_for(&self, name: &str) -> SimNanos {
        self.phases
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .sum()
    }

    /// Sum of all phases whose name satisfies `pred`. Used to aggregate into
    /// the paper's coarse categories (e.g. Fig. 12 splits everything into
    /// "Kernel" / "Memory" / "I/O").
    pub fn total_matching(&self, pred: impl Fn(&str) -> bool) -> SimNanos {
        self.phases
            .iter()
            .filter(|(n, _)| pred(n))
            .map(|(_, c)| *c)
            .sum()
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.phases.is_empty() {
            return write!(f, "(empty breakdown)");
        }
        for (i, (name, cost)) in self.phases.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{name} {cost}")?;
        }
        write!(f, " (total {})", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_record_in_order() {
        let mut b = Breakdown::new();
        b.push("a", SimNanos::from_micros(1));
        b.push("b", SimNanos::from_micros(2));
        b.push("a", SimNanos::from_micros(3));
        let names: Vec<&str> = b.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b", "a"]);
        assert_eq!(b.total_for("a"), SimNanos::from_micros(4));
        assert_eq!(b.total(), SimNanos::from_micros(6));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn total_matching_aggregates_categories() {
        let mut b = Breakdown::new();
        b.push("io:open", SimNanos::from_micros(5));
        b.push("io:socket", SimNanos::from_micros(7));
        b.push("mem:load", SimNanos::from_micros(100));
        assert_eq!(
            b.total_matching(|n| n.starts_with("io:")),
            SimNanos::from_micros(12)
        );
    }

    #[test]
    fn display_formats_pipeline() {
        let mut b = Breakdown::new();
        b.push("parse", SimNanos::from_millis_f64(1.369));
        b.push("spawn", SimNanos::from_micros(319));
        let text = b.to_string();
        assert!(text.contains("parse 1.369ms"), "{text}");
        assert!(text.contains("total"), "{text}");
        assert_eq!(Breakdown::new().to_string(), "(empty breakdown)");
    }
}
