//! The trace contract, checked once and carried as a type.

use simtime::SimNanos;

use super::TraceRequest;
use crate::error::TraceError;

/// Proof that a trace met the contract: at least one request, time-sorted
/// arrivals, in-range function indices. Only [`validate_trace`] can build
/// one, so code that depends on the order — the event queue reads the
/// slice as its arrival source — asks for this instead of a bare slice.
#[derive(Debug)]
pub(crate) struct ValidTrace<'t>(&'t [TraceRequest]);

impl<'t> ValidTrace<'t> {
    /// The checked requests.
    pub(crate) fn requests(self) -> &'t [TraceRequest] {
        self.0
    }
}

/// Checks the trace contract once, up front: time-sorted arrivals,
/// in-range function indices, at least one request — typed errors, never
/// panics.
pub(crate) fn validate_trace(
    trace: &[TraceRequest],
    functions: usize,
) -> Result<ValidTrace<'_>, TraceError> {
    if trace.is_empty() {
        return Err(TraceError::Empty);
    }
    let mut previous = SimNanos::ZERO;
    for (at, req) in trace.iter().enumerate() {
        if req.arrival < previous {
            return Err(TraceError::Unsorted {
                at,
                arrival: req.arrival,
                previous,
            });
        }
        previous = req.arrival;
        if req.function >= functions {
            return Err(TraceError::UnknownFunction {
                at,
                function: req.function,
                functions,
            });
        }
    }
    Ok(ValidTrace(trace))
}
