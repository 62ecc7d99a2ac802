//! Boot-mode policies and the sustainable-hot-boot experiment (paper §6.9).
//!
//! Existing platforms keep a bounded cache of warm instances: hits are fast,
//! but misses pay a cold boot — and the *tail* latency is dominated by those
//! misses. Catalyzer's fork boot serves every request from the template at
//! ~1 ms, so the tail collapses. This module simulates both policies over a
//! request trace and reports the latency distribution.

use std::collections::VecDeque;

use runtimes::AppProfile;
use sandbox::{BootCtx, BootEngine};
use simtime::stats::{summarize, Summary};
use simtime::CostModel;

use crate::error::TraceError;
use crate::simulate::REUSE_HANDOFF;
use crate::PlatformError;

/// How the platform picks a boot path for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootPolicy {
    /// Keep up to `capacity` idle warm instances per function (LRU); a miss
    /// pays a full boot through the engine.
    WarmCache {
        /// Cache capacity, in instances.
        capacity: usize,
    },
    /// Always boot through the engine (for fork boot, every request is a
    /// ~1 ms `sfork`; the "cache" is the template, which never misses).
    AlwaysBoot,
}

/// Latency distribution over a simulated trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOutcome {
    /// Startup-latency summary across requests.
    pub startup: Summary,
    /// Fraction of requests that hit the warm cache.
    pub hit_rate: f64,
}

/// Simulates `requests` function invocations arriving round-robin over
/// `functions`, under the given policy. Only startup latency is modeled
/// (execution is identical across policies).
///
/// # Errors
///
/// [`PlatformError::InvalidTrace`] when `functions` is empty or `requests`
/// is zero (there is no distribution to report); engine errors from boots.
pub fn simulate_trace<E: BootEngine>(
    engine: &mut E,
    functions: &[AppProfile],
    requests: usize,
    policy: BootPolicy,
    model: &CostModel,
) -> Result<TraceOutcome, PlatformError> {
    if functions.is_empty() {
        return Err(TraceError::Empty.into());
    }
    // Idle warm instances, most-recently-used at the back.
    let mut cache: VecDeque<String> = VecDeque::new();
    let mut latencies = Vec::with_capacity(requests);
    let mut hits = 0u64;

    for i in 0..requests {
        let profile = &functions[i % functions.len()];
        match policy {
            BootPolicy::WarmCache { capacity } => {
                if let Some(pos) = cache.iter().position(|f| f == &profile.name) {
                    // Hit: reuse the idle instance; scheduler hand-off only.
                    cache.remove(pos);
                    cache.push_back(profile.name.clone());
                    hits += 1;
                    latencies.push(REUSE_HANDOFF);
                } else {
                    let mut ctx = BootCtx::fresh(model);
                    engine.boot(profile, &mut ctx)?;
                    latencies.push(ctx.now());
                    cache.push_back(profile.name.clone());
                    while cache.len() > capacity {
                        cache.pop_front();
                    }
                }
            }
            BootPolicy::AlwaysBoot => {
                let mut ctx = BootCtx::fresh(model);
                engine.boot(profile, &mut ctx)?;
                latencies.push(ctx.now());
            }
        }
    }
    Ok(TraceOutcome {
        startup: summarize(&latencies).ok_or(TraceError::Empty)?,
        hit_rate: hits as f64 / requests as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyzer::{BootMode, CatalyzerEngine};
    use sandbox::GvisorRestoreEngine;
    use simtime::SimNanos;

    fn small_fleet() -> Vec<AppProfile> {
        vec![
            AppProfile::c_hello(),
            AppProfile::c_nginx(),
            AppProfile::python_hello(),
            AppProfile::ruby_hello(),
        ]
    }

    #[test]
    fn cache_miss_dominates_tail_fork_boot_does_not() {
        let model = CostModel::experimental_machine();
        let functions = small_fleet();

        // Warm cache sized below the working set: every request misses.
        let mut restore = GvisorRestoreEngine::new();
        let cached = simulate_trace(
            &mut restore,
            &functions,
            24,
            BootPolicy::WarmCache { capacity: 2 },
            &model,
        )
        .unwrap();

        let mut fork = CatalyzerEngine::standalone(BootMode::Fork);
        let forked =
            simulate_trace(&mut fork, &functions, 24, BootPolicy::AlwaysBoot, &model).unwrap();

        // §6.9: caching cannot fix the tail; fork boot can.
        assert!(
            cached.startup.p99 > SimNanos::from_millis(50),
            "{:?}",
            cached.startup
        );
        assert!(
            forked.startup.p99 < SimNanos::from_millis(5),
            "{:?}",
            forked.startup
        );
        assert_eq!(cached.hit_rate, 0.0, "working set exceeds the cache");
        assert_eq!(forked.hit_rate, 0.0, "fork boot has no cache to hit");
    }

    #[test]
    fn big_enough_cache_hits_after_warmup() {
        let model = CostModel::experimental_machine();
        let functions = small_fleet();
        let mut restore = GvisorRestoreEngine::new();
        let outcome = simulate_trace(
            &mut restore,
            &functions,
            40,
            BootPolicy::WarmCache { capacity: 8 },
            &model,
        )
        .unwrap();
        // 4 cold boots, 36 hits.
        assert!(
            (outcome.hit_rate - 0.9).abs() < 1e-9,
            "{}",
            outcome.hit_rate
        );
        // Median is a hit, p99 is still a cold boot.
        assert!(outcome.startup.p50 < SimNanos::from_millis(1));
        assert!(outcome.startup.p99 > SimNanos::from_millis(50));
    }

    fn always_boot(
        functions: &[AppProfile],
        requests: usize,
    ) -> Result<TraceOutcome, PlatformError> {
        let model = CostModel::experimental_machine();
        let mut fork = CatalyzerEngine::standalone(BootMode::Fork);
        simulate_trace(
            &mut fork,
            functions,
            requests,
            BootPolicy::AlwaysBoot,
            &model,
        )
    }

    #[test]
    fn empty_function_list_is_a_typed_error() {
        let err = always_boot(&[], 8).unwrap_err();
        assert!(
            matches!(err, PlatformError::InvalidTrace(TraceError::Empty)),
            "{err:?}"
        );
    }

    #[test]
    fn zero_requests_is_a_typed_error() {
        let err = always_boot(&small_fleet(), 0).unwrap_err();
        assert!(
            matches!(err, PlatformError::InvalidTrace(TraceError::Empty)),
            "{err:?}"
        );
    }
}
