use std::fmt;

/// Errors from wrapped-program initialization or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A guest-kernel operation failed.
    Kernel(guest_kernel::KernelError),
    /// A memory operation failed.
    Mem(memsim::MemError),
    /// The program is not in the right phase for the requested step.
    Phase {
        /// What was attempted.
        detail: &'static str,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Kernel(e) => write!(f, "kernel: {e}"),
            RuntimeError::Mem(e) => write!(f, "memory: {e}"),
            RuntimeError::Phase { detail } => write!(f, "wrong phase: {detail}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    #[expect(
        clippy::disallowed_types,
        reason = "the standard error-chain signature; every cause it returns is a typed crate error"
    )]
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Kernel(e) => Some(e),
            RuntimeError::Mem(e) => Some(e),
            RuntimeError::Phase { .. } => None,
        }
    }
}

impl From<guest_kernel::KernelError> for RuntimeError {
    fn from(e: guest_kernel::KernelError) -> Self {
        RuntimeError::Kernel(e)
    }
}

impl From<memsim::MemError> for RuntimeError {
    fn from(e: memsim::MemError) -> Self {
        RuntimeError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let k: RuntimeError = guest_kernel::KernelError::BadFd { fd: 3 }.into();
        assert!(k.to_string().contains("kernel"));
        let m: RuntimeError = memsim::MemError::Unmapped { vpn: 5 }.into();
        assert!(m.to_string().contains("memory"));
        assert!(RuntimeError::Phase { detail: "x" }
            .to_string()
            .contains("phase"));
        assert!(std::error::Error::source(&k).is_some());
    }
}
