use std::fmt;

/// Errors surfaced by sandbox boot engines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SandboxError {
    /// A guest-kernel operation failed.
    Kernel(guest_kernel::KernelError),
    /// A wrapped-program step failed.
    Runtime(runtimes::RuntimeError),
    /// An image read/parse failed.
    Image(imagefmt::ImageError),
    /// A memory operation failed.
    Mem(memsim::MemError),
    /// A malformed OCI configuration bundle.
    Config {
        /// Parser diagnostic.
        detail: String,
    },
    /// A host fault injected by the faultsim schedule fired on the boot
    /// critical path. Carries the full typed fault so the resilience layer
    /// can pick retry vs. fallback vs. quarantine from `kind` and `point`.
    Fault(faultsim::InjectedFault),
}

impl SandboxError {
    /// The injected fault behind this error, when there is one.
    pub fn injected(&self) -> Option<&faultsim::InjectedFault> {
        match self {
            SandboxError::Fault(fault) => Some(fault),
            _ => None,
        }
    }
}

impl fmt::Display for SandboxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SandboxError::Kernel(e) => write!(f, "kernel: {e}"),
            SandboxError::Runtime(e) => write!(f, "runtime: {e}"),
            SandboxError::Image(e) => write!(f, "image: {e}"),
            SandboxError::Mem(e) => write!(f, "memory: {e}"),
            SandboxError::Config { detail } => write!(f, "config: {detail}"),
            SandboxError::Fault(fault) => write!(
                f,
                "injected fault: {} at {} (detected after {})",
                fault.kind, fault.point, fault.delay
            ),
        }
    }
}

impl std::error::Error for SandboxError {
    #[expect(
        clippy::disallowed_types,
        reason = "the standard error-chain signature; every cause it returns is a typed crate error"
    )]
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SandboxError::Kernel(e) => Some(e),
            SandboxError::Runtime(e) => Some(e),
            SandboxError::Image(e) => Some(e),
            SandboxError::Mem(e) => Some(e),
            SandboxError::Config { .. } | SandboxError::Fault(..) => None,
        }
    }
}

impl From<guest_kernel::KernelError> for SandboxError {
    fn from(e: guest_kernel::KernelError) -> Self {
        SandboxError::Kernel(e)
    }
}

impl From<runtimes::RuntimeError> for SandboxError {
    fn from(e: runtimes::RuntimeError) -> Self {
        SandboxError::Runtime(e)
    }
}

impl From<imagefmt::ImageError> for SandboxError {
    fn from(e: imagefmt::ImageError) -> Self {
        SandboxError::Image(e)
    }
}

impl From<memsim::MemError> for SandboxError {
    fn from(e: memsim::MemError) -> Self {
        SandboxError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_layer() {
        let e: SandboxError = guest_kernel::KernelError::BadFd { fd: 1 }.into();
        assert!(e.to_string().contains("kernel"));
        let e: SandboxError = imagefmt::ImageError::BadMagic.into();
        assert!(e.to_string().contains("image"));
        let e: SandboxError = memsim::MemError::Unmapped { vpn: 0 }.into();
        assert!(e.to_string().contains("memory"));
        let e = SandboxError::Config {
            detail: "bad json".into(),
        };
        assert!(e.to_string().contains("bad json"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
