use std::fmt;

/// Guest-kernel errors (the moral equivalent of errno values).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KernelError {
    /// Path does not exist (`ENOENT`).
    NoEntry {
        /// The path looked up.
        path: String,
    },
    /// Bad file descriptor (`EBADF`).
    BadFd {
        /// The offending descriptor.
        fd: i32,
    },
    /// Descriptor is not open for writing (`EBADF`/`EROFS`).
    ReadOnly {
        /// The offending descriptor.
        fd: i32,
    },
    /// A syscall was denied by the template-sandbox policy (paper Table 1).
    DeniedSyscall {
        /// Name of the denied syscall.
        name: &'static str,
    },
    /// Socket operation on a socket in the wrong state (`EINVAL`).
    BadSocketState {
        /// The socket id.
        sock: u64,
    },
    /// Restore found an inconsistent object graph.
    CorruptGraph {
        /// Human-readable description.
        detail: String,
    },
    /// The thread set is in the wrong mode for the requested transition.
    ThreadMode {
        /// Human-readable description.
        detail: &'static str,
    },
    /// Out of descriptors or another resource limit (`EMFILE`).
    ResourceExhausted {
        /// What ran out.
        what: &'static str,
    },
    /// The policy allows the syscall but this kernel does not implement it
    /// (`ENOSYS`).
    Unsupported {
        /// Name of the unimplemented syscall.
        name: &'static str,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::NoEntry { path } => write!(f, "no such file or directory: {path}"),
            KernelError::BadFd { fd } => write!(f, "bad file descriptor {fd}"),
            KernelError::ReadOnly { fd } => write!(f, "descriptor {fd} is read-only"),
            KernelError::DeniedSyscall { name } => {
                write!(f, "syscall '{name}' is denied in a template sandbox")
            }
            KernelError::BadSocketState { sock } => {
                write!(f, "socket {sock} is in the wrong state")
            }
            KernelError::CorruptGraph { detail } => {
                write!(f, "corrupt kernel object graph: {detail}")
            }
            KernelError::ThreadMode { detail } => write!(f, "thread-set mode error: {detail}"),
            KernelError::ResourceExhausted { what } => write!(f, "resource exhausted: {what}"),
            KernelError::Unsupported { name } => {
                write!(f, "syscall '{name}' is not implemented by the guest kernel")
            }
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(KernelError::NoEntry { path: "/x".into() }
            .to_string()
            .contains("/x"));
        assert!(KernelError::BadFd { fd: 7 }.to_string().contains('7'));
        assert!(KernelError::DeniedSyscall { name: "ptrace" }
            .to_string()
            .contains("ptrace"));
        assert!(KernelError::ThreadMode {
            detail: "not merged"
        }
        .to_string()
        .contains("merged"));
    }
}
