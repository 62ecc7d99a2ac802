//! **catalyzer-suite** — the façade crate of the Catalyzer reproduction.
//!
//! This workspace reproduces *"Catalyzer: Sub-millisecond Startup for
//! Serverless Computing with Initialization-less Booting"* (Du et al.,
//! ASPLOS 2020) as a pure-Rust, virtual-time simulation whose mechanisms do
//! real work. See `README.md` for the tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured numbers.
//!
//! The façade re-exports every member crate so examples and downstream
//! experiments need a single dependency:
//!
//! ```
//! use catalyzer_suite::prelude::*;
//!
//! let model = CostModel::experimental_machine();
//! let mut system = Catalyzer::new();
//! let profile = AppProfile::python_hello();
//! system.ensure_template(&profile, &model)?;
//! let mut ctx = BootCtx::fresh(&model);
//! let mut boot = system.boot(BootMode::Fork, &profile, &mut ctx)?;
//! boot.program.invoke_handler(ctx.clock(), ctx.model())?;
//! println!("fork boot + handler: {}", ctx.now());
//! println!("{}", boot.trace); // the nested span tree of the boot
//! # Ok::<(), catalyzer_suite::SuiteError>(())
//! ```

#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt;

pub use catalyzer;
pub use faultsim;
pub use guest_kernel;
pub use imagefmt;
pub use memsim;
pub use platform;
pub use runtimes;
pub use sandbox;
pub use simtime;
pub use workloads;

/// The one error type experiments and examples need: every layer's failure
/// converts into it, so `main() -> Result<(), SuiteError>` works with `?`
/// across the whole workspace.
#[derive(Debug)]
#[non_exhaustive]
pub enum SuiteError {
    /// A sandbox/boot-engine operation failed.
    Sandbox(sandbox::SandboxError),
    /// A handler execution failed.
    Runtime(runtimes::RuntimeError),
    /// A platform (gateway/pool) operation failed.
    Platform(platform::PlatformError),
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Sandbox(e) => write!(f, "sandbox: {e}"),
            SuiteError::Runtime(e) => write!(f, "runtime: {e}"),
            SuiteError::Platform(e) => write!(f, "platform: {e}"),
        }
    }
}

impl Error for SuiteError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SuiteError::Sandbox(e) => Some(e),
            SuiteError::Runtime(e) => Some(e),
            SuiteError::Platform(e) => Some(e),
        }
    }
}

impl From<sandbox::SandboxError> for SuiteError {
    fn from(e: sandbox::SandboxError) -> Self {
        SuiteError::Sandbox(e)
    }
}

impl From<runtimes::RuntimeError> for SuiteError {
    fn from(e: runtimes::RuntimeError) -> Self {
        SuiteError::Runtime(e)
    }
}

impl From<platform::PlatformError> for SuiteError {
    fn from(e: platform::PlatformError) -> Self {
        SuiteError::Platform(e)
    }
}

/// The names most experiments need.
pub mod prelude {
    pub use crate::SuiteError;
    pub use catalyzer::{BootMode, Catalyzer, CatalyzerConfig, CatalyzerEngine, Template};
    pub use platform::{Gateway, Invocation, InvocationReport, InvokeRequest};
    pub use runtimes::{AppProfile, RuntimeKind, WrappedProgram};
    pub use sandbox::{
        BootCtx, BootEngine, BootOutcome, DockerEngine, FirecrackerEngine, GvisorEngine,
        GvisorRestoreEngine, HyperContainerEngine, SPAN_BOOT, SPAN_EXEC,
    };
    pub use simtime::{
        CostModel, LatencyHistogram, MachineKind, MetricsRegistry, SimClock, SimNanos, Span, Tracer,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_error_wraps_every_layer() {
        let s: SuiteError = sandbox::SandboxError::Config { detail: "x".into() }.into();
        assert!(s.to_string().starts_with("sandbox:"));
        assert!(Error::source(&s).is_some());
        let p: SuiteError = platform::PlatformError::UnknownFunction { name: "f".into() }.into();
        assert!(p.to_string().contains("'f'"));
        assert!(Error::source(&p).is_some());
    }
}
