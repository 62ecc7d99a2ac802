use std::fmt;

use serde::{Deserialize, Serialize};

/// The five language runtimes the paper evaluates (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RuntimeKind {
    /// Natively compiled C/C++ programs.
    C,
    /// The JVM.
    Java,
    /// CPython.
    Python,
    /// CRuby (MRI).
    Ruby,
    /// Node.js (V8).
    Node,
}

impl RuntimeKind {
    /// All runtimes, in the paper's presentation order.
    pub const ALL: [RuntimeKind; 5] = [
        RuntimeKind::C,
        RuntimeKind::Java,
        RuntimeKind::Python,
        RuntimeKind::Ruby,
        RuntimeKind::Node,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::C => "C",
            RuntimeKind::Java => "Java",
            RuntimeKind::Python => "Python",
            RuntimeKind::Ruby => "Ruby",
            RuntimeKind::Node => "Node.js",
        }
    }
}

impl fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_vm_need() {
        assert_eq!(RuntimeKind::Java.label(), "Java");
        assert_eq!(RuntimeKind::Node.to_string(), "Node.js");
        assert_eq!(RuntimeKind::ALL.len(), 5);
    }
}
