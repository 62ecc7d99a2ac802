use std::fmt;

use serde::{Deserialize, Serialize};

/// The five language runtimes the paper evaluates (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

    /// True for runtimes that need a VM/interpreter before any app code runs
    /// (the paper: "high-level languages usually need to initialize a
    /// language runtime (e.g., JVM) before loading application codes").
    pub fn needs_vm(self) -> bool {
        !matches!(self, RuntimeKind::C)
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
        assert!(RuntimeKind::Python.needs_vm());
        assert!(!RuntimeKind::C.needs_vm());
        assert_eq!(RuntimeKind::ALL.len(), 5);
    }
}
