use std::fmt;

use simtime::SimNanos;

/// Platform-layer errors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlatformError {
    /// The requested function is not registered.
    UnknownFunction {
        /// The requested name.
        name: String,
    },
    /// A sandbox operation failed.
    Sandbox(sandbox::SandboxError),
    /// A handler execution failed.
    Runtime(runtimes::RuntimeError),
    /// Admission shed the request: the function's concurrency limit and
    /// bounded queue were both full at arrival.
    Overload {
        /// The function whose capacity was exhausted.
        function: String,
        /// Requests in flight at arrival.
        in_flight: usize,
        /// The per-function concurrency limit.
        limit: usize,
    },
    /// Admission shed the request: its queue slot would not free before the
    /// deadline, so running it could only waste capacity.
    DeadlineExceeded {
        /// The function the request targeted.
        function: String,
        /// The absolute virtual-time deadline the request carried.
        deadline: SimNanos,
        /// When the queue would first have let the request start.
        would_start: SimNanos,
    },
    /// Admission shed the request: the function's circuit breaker is open
    /// after repeated failures/poisons, fast-failing until the cooldown
    /// elapses and a half-open probe proves the path healthy again.
    CircuitOpen {
        /// The function whose breaker is open.
        function: String,
        /// Virtual time at which the breaker will admit a probe.
        until: SimNanos,
    },
    /// The request trace handed to the simulator is malformed. The
    /// simulation never panics on bad input: every malformation is typed
    /// here, down to the offending request index.
    InvalidTrace(TraceError),
    /// The cluster configuration is unusable: zero nodes, or a zero
    /// placement budget that leaves no node holding any template.
    ClusterConfig {
        /// What was wrong with the configuration.
        detail: String,
    },
    /// The routed node cannot be reached: it crashed, or sits on the far
    /// side of a network partition. Not a shed — capacity existed, the
    /// fabric failed — and not retryable on the same node before `until`.
    Unreachable {
        /// The unreachable node's index.
        node: usize,
        /// When the node might become reachable again: the partition's
        /// scheduled heal, or [`SimNanos::MAX`] for a crash (never).
        until: SimNanos,
    },
}

/// Why a request trace was rejected by the simulator, with the offending
/// position — malformed traces are typed errors, never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The trace is empty: there is nothing to simulate (and no
    /// distribution to summarize).
    Empty,
    /// A request targets a function index past the catalogue.
    UnknownFunction {
        /// Position of the offending request in the trace.
        at: usize,
        /// The out-of-range function index it carried.
        function: usize,
        /// How many functions the catalogue actually holds.
        functions: usize,
    },
    /// Arrivals go backwards: the trace is not time-sorted.
    Unsorted {
        /// Position of the first request that arrives before its
        /// predecessor.
        at: usize,
        /// Its arrival time.
        arrival: SimNanos,
        /// The predecessor's (later) arrival time.
        previous: SimNanos,
    },
    /// The last arrival lies past the chaos layer's heartbeat horizon:
    /// more than [`MAX_HEARTBEAT_ROUNDS`] rounds of [`HEARTBEAT_INTERVAL`].
    ///
    /// [`MAX_HEARTBEAT_ROUNDS`]: crate::cluster::chaos::MAX_HEARTBEAT_ROUNDS
    /// [`HEARTBEAT_INTERVAL`]: crate::cluster::chaos::HEARTBEAT_INTERVAL
    Horizon {
        /// The last arrival.
        last: SimNanos,
        /// The latest last arrival a chaos run accepts.
        limit: SimNanos,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace is empty"),
            TraceError::UnknownFunction {
                at,
                function,
                functions,
            } => write!(
                f,
                "request {at} targets function {function}, but the catalogue has {functions}"
            ),
            TraceError::Unsorted {
                at,
                arrival,
                previous,
            } => write!(
                f,
                "request {at} arrives at {arrival}, before its predecessor at {previous} — trace must be time-sorted"
            ),
            TraceError::Horizon { last, limit } => write!(
                f,
                "the last request arrives at {last}, past the chaos heartbeat horizon at {limit}"
            ),
        }
    }
}

impl From<TraceError> for PlatformError {
    fn from(e: TraceError) -> Self {
        PlatformError::InvalidTrace(e)
    }
}

impl PlatformError {
    /// True for the admission-control rejections (`Overload`,
    /// `DeadlineExceeded`, `CircuitOpen`): the request was never served,
    /// by policy — a *shed*, not a failure of the boot or the handler.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            PlatformError::Overload { .. }
                | PlatformError::DeadlineExceeded { .. }
                | PlatformError::CircuitOpen { .. }
        )
    }
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::UnknownFunction { name } => write!(f, "unknown function '{name}'"),
            PlatformError::Sandbox(e) => write!(f, "sandbox: {e}"),
            PlatformError::Runtime(e) => write!(f, "runtime: {e}"),
            PlatformError::Overload {
                function,
                in_flight,
                limit,
            } => write!(
                f,
                "overload: '{function}' at {in_flight} in flight (limit {limit}), queue full"
            ),
            PlatformError::DeadlineExceeded {
                function,
                deadline,
                would_start,
            } => write!(
                f,
                "deadline exceeded: '{function}' could not start before {deadline} (earliest {would_start})"
            ),
            PlatformError::CircuitOpen { function, until } => {
                write!(f, "circuit open: '{function}' fast-fails until {until}")
            }
            PlatformError::InvalidTrace(e) => write!(f, "invalid trace: {e}"),
            PlatformError::ClusterConfig { detail } => {
                write!(f, "cluster config: {detail}")
            }
            PlatformError::Unreachable { node, until } => {
                if *until == SimNanos::MAX {
                    write!(f, "unreachable: node {node} crashed")
                } else {
                    write!(f, "unreachable: node {node} partitioned until {until}")
                }
            }
        }
    }
}

impl std::error::Error for PlatformError {
    #[expect(
        clippy::disallowed_types,
        reason = "the standard error-chain signature; every cause it returns is a typed crate error"
    )]
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlatformError::Sandbox(e) => Some(e),
            PlatformError::Runtime(e) => Some(e),
            // `Unreachable` is a leaf: the fabric itself failed — there is
            // no inner sandbox/runtime error to chain to.
            PlatformError::Unreachable { .. } => None,
            _ => None,
        }
    }
}

impl From<sandbox::SandboxError> for PlatformError {
    fn from(e: sandbox::SandboxError) -> Self {
        PlatformError::Sandbox(e)
    }
}

impl From<runtimes::RuntimeError> for PlatformError {
    fn from(e: runtimes::RuntimeError) -> Self {
        PlatformError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = PlatformError::UnknownFunction { name: "f".into() };
        assert!(e.to_string().contains("'f'"));
        assert!(std::error::Error::source(&e).is_none());
        let e: PlatformError = sandbox::SandboxError::Config { detail: "x".into() }.into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn shed_classification() {
        assert!(PlatformError::Overload {
            function: "f".into(),
            in_flight: 4,
            limit: 4,
        }
        .is_shed());
        assert!(PlatformError::DeadlineExceeded {
            function: "f".into(),
            deadline: SimNanos::from_millis(1),
            would_start: SimNanos::from_millis(2),
        }
        .is_shed());
        assert!(PlatformError::CircuitOpen {
            function: "f".into(),
            until: SimNanos::from_millis(5),
        }
        .is_shed());
        assert!(!PlatformError::UnknownFunction { name: "f".into() }.is_shed());
        let e = PlatformError::ClusterConfig {
            detail: "zero nodes".into(),
        };
        assert!(!e.is_shed());
        assert!(e.to_string().contains("zero nodes"));
    }

    #[test]
    fn unreachable_is_a_failure_not_a_shed() {
        let crashed = PlatformError::Unreachable {
            node: 3,
            until: SimNanos::MAX,
        };
        assert!(!crashed.is_shed(), "capacity existed; the fabric failed");
        assert!(std::error::Error::source(&crashed).is_none());
        assert!(crashed.to_string().contains("node 3 crashed"));
        let partitioned = PlatformError::Unreachable {
            node: 1,
            until: SimNanos::from_millis(40),
        };
        assert!(partitioned.to_string().contains("partitioned until"));
    }
}
