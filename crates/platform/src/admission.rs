//! Deterministic admission control: virtual-time queueing with per-function
//! concurrency limits, deadline-aware shedding, and circuit breakers.
//!
//! Catalyzer makes the *boot* cheap; this module makes the *platform*
//! survive the load that cheap boots invite. It sits between the request
//! sources ([`Gateway`](crate::Gateway), [`simulate`](crate::simulate)) and
//! [`resilient_boot`](crate::resilience::resilient_boot), deciding — in
//! virtual time, deterministically — whether each arriving request runs at
//! all:
//!
//! 1. **Concurrency limiting.** Each function has `max_in_flight` slots; an
//!    arrival finding all slots busy queues behind the earliest completions.
//!    The queue is *bounded*: beyond `max_queue` waiters the request is shed
//!    typed as [`PlatformError::Overload`].
//! 2. **Deadline-aware shedding.** Requests carry a deadline on the virtual
//!    clock. If the queue cannot start a request before its deadline, it is
//!    shed *at admission* as [`PlatformError::DeadlineExceeded`] — running
//!    it could only waste capacity on an answer nobody is waiting for.
//! 3. **Circuit breaking.** A per-function state machine (Closed → Open →
//!    HalfOpen) driven by the boot pipeline's fault/degradation signals:
//!    repeated failures or poisoned-state recoveries trip the breaker, after
//!    which requests fast-fail typed as [`PlatformError::CircuitOpen`] until
//!    the cooldown elapses and probe successes close it again.
//!
//! Every decision is appended to a serializable log, so two runs over the
//! same seed replay byte-identical admit/shed/transition histories — the
//! same determinism discipline as `faultsim`'s fault log. Nothing here is
//! ever dropped silently: a rejected request always surfaces as one of the
//! three typed errors above.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use simtime::SimNanos;

use crate::PlatformError;

/// Span name for time a request spends queued at admission.
pub const SPAN_ADMISSION: &str = "admission";
/// Span name for background capacity-repair passes.
pub const SPAN_REPAIR: &str = "repair";

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerPolicy {
    /// Consecutive failure signals that trip Closed → Open.
    pub failure_threshold: u32,
    /// How long the breaker fast-fails before admitting a probe.
    pub cooldown: SimNanos,
    /// Probe successes required to close a half-open breaker.
    pub half_open_probes: u32,
    /// Count a poisoned-state recovery (a degraded success that marked
    /// prepared state suspect) as a failure signal. Poison persists until
    /// repaired, so probing it with more traffic only burns retry budget.
    pub trip_on_poison: bool,
}

impl BreakerPolicy {
    /// The default production posture: trip after 2 consecutive failures or
    /// poisons, cool down 20 virtual ms, close after 2 clean probes.
    pub fn standard() -> BreakerPolicy {
        BreakerPolicy {
            failure_threshold: 2,
            cooldown: SimNanos::from_millis(20),
            half_open_probes: 2,
            trip_on_poison: true,
        }
    }
}

/// The breaker's position in its state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests fast-fail until the cooldown elapses.
    Open,
    /// Probing: requests flow, watched; a failure re-opens, enough
    /// successes close.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label, used in metric keys (`breaker.open` …).
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded breaker state change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerTransition {
    /// Virtual time of the transition.
    pub at: SimNanos,
    /// State left.
    pub from: BreakerState,
    /// State entered.
    pub to: BreakerState,
}

/// What one completed request tells the breaker about the path's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthSignal {
    /// Served cleanly.
    Healthy,
    /// Served, but only after absorbing a poison fault — the prepared
    /// state is suspect until repaired.
    Poisoned,
    /// Surfaced an error.
    Failed,
}

/// A per-function circuit breaker (Closed → Open → HalfOpen).
///
/// Purely virtual-time and purely deterministic: its entire history is the
/// fold of `(admit, on_outcome)` calls, recorded in
/// [`CircuitBreaker::transitions`].
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimNanos,
    probe_successes: u32,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    pub fn new(policy: BreakerPolicy) -> CircuitBreaker {
        CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimNanos::ZERO,
            probe_successes: 0,
            transitions: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Every state change so far, in order — the determinism ground truth.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    fn transition(&mut self, at: SimNanos, to: BreakerState) {
        self.transitions.push(BreakerTransition {
            at,
            from: self.state,
            to,
        });
        self.state = to;
    }

    /// Gate one arrival at `now`: `Ok(())` admits it (possibly as a
    /// half-open probe), `Err(until)` fast-fails it with the time the
    /// cooldown ends.
    #[allow(clippy::result_large_err)]
    pub fn admit(&mut self, now: SimNanos) -> Result<(), SimNanos> {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                let until = self.opened_at.saturating_add(self.policy.cooldown);
                if now >= until {
                    self.probe_successes = 0;
                    self.transition(now, BreakerState::HalfOpen);
                    Ok(())
                } else {
                    Err(until)
                }
            }
        }
    }

    /// Feeds one completed request's health signal back at `now`.
    pub fn on_outcome(&mut self, now: SimNanos, signal: HealthSignal) {
        let failure = match signal {
            HealthSignal::Failed => true,
            HealthSignal::Poisoned => self.policy.trip_on_poison,
            HealthSignal::Healthy => false,
        };
        match (self.state, failure) {
            (BreakerState::Closed, true) => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.policy.failure_threshold {
                    self.opened_at = now;
                    self.transition(now, BreakerState::Open);
                }
            }
            (BreakerState::Closed, false) => {
                self.consecutive_failures = 0;
            }
            (BreakerState::HalfOpen, true) => {
                // The probe failed: back to Open for a fresh cooldown.
                self.opened_at = now;
                self.consecutive_failures = self.policy.failure_threshold;
                self.transition(now, BreakerState::Open);
            }
            (BreakerState::HalfOpen, false) => {
                self.probe_successes += 1;
                if self.probe_successes >= self.policy.half_open_probes {
                    self.consecutive_failures = 0;
                    self.transition(now, BreakerState::Closed);
                }
            }
            // Open admits nothing, so no outcomes arrive while Open; a
            // straggler completing after the trip is simply recorded.
            (BreakerState::Open, _) => {}
        }
    }
}

/// Admission-control tuning for one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// Per-function concurrency limit; `0` means unlimited.
    pub max_in_flight: usize,
    /// Waiting slots beyond the in-flight limit before arrivals are shed
    /// as [`PlatformError::Overload`]. Irrelevant when unlimited.
    pub max_queue: usize,
    /// Relative deadline stamped on every request at arrival;
    /// [`SimNanos::ZERO`] means requests carry no deadline.
    pub deadline: SimNanos,
    /// Shed requests whose queue slot frees only after their deadline
    /// ([`PlatformError::DeadlineExceeded`]). When `false` the deadline is
    /// still stamped (goodput is still measured against it) but never
    /// enforced — the classic no-admission baseline.
    pub shed_expired: bool,
    /// Per-function circuit breaking; `None` disables it.
    pub breaker: Option<BreakerPolicy>,
}

impl AdmissionPolicy {
    /// No admission control at all: unlimited concurrency, no deadline, no
    /// breaker. Every request is admitted instantly.
    pub fn unlimited() -> AdmissionPolicy {
        AdmissionPolicy {
            max_in_flight: 0,
            max_queue: usize::MAX,
            deadline: SimNanos::ZERO,
            shed_expired: false,
            breaker: None,
        }
    }

    /// The no-admission *baseline* at finite capacity: `limit` concurrent
    /// requests, an unbounded FIFO queue, deadlines stamped for goodput
    /// accounting but never enforced, no breaker. What a platform without
    /// overload protection actually does.
    pub fn queue_only(limit: usize, deadline: SimNanos) -> AdmissionPolicy {
        AdmissionPolicy {
            max_in_flight: limit,
            max_queue: usize::MAX,
            deadline,
            shed_expired: false,
            breaker: None,
        }
    }

    /// The full overload-protection posture: `limit` concurrent requests, a
    /// bounded queue (2× the limit), deadline-aware shedding, and the
    /// standard circuit breaker.
    pub fn standard(limit: usize, deadline: SimNanos) -> AdmissionPolicy {
        AdmissionPolicy {
            max_in_flight: limit,
            max_queue: limit.max(1) * 2,
            deadline,
            shed_expired: true,
            breaker: Some(BreakerPolicy::standard()),
        }
    }

    /// Stable label for bench exports.
    pub fn label(&self) -> &'static str {
        match (self.shed_expired, self.breaker.is_some()) {
            (false, false) => {
                if self.max_in_flight == 0 {
                    "unlimited"
                } else {
                    "baseline"
                }
            }
            (true, false) => "deadline",
            (false, true) => "breaker",
            (true, true) => "full",
        }
    }
}

/// What admission decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmitDecision {
    /// Admitted; `queued` is the virtual time spent waiting for a slot.
    Admitted {
        /// Queue wait before the request could start.
        queued: SimNanos,
    },
    /// Shed: concurrency limit and queue both full.
    ShedOverload {
        /// Requests in flight at arrival.
        in_flight: usize,
    },
    /// Shed: the queue could not start the request before its deadline.
    ShedDeadline {
        /// When the queue would first have let it start.
        would_start: SimNanos,
    },
    /// Shed: the function's circuit breaker was open.
    ShedBreaker {
        /// When the breaker's cooldown ends.
        until: SimNanos,
    },
}

// The in-tree serde derive covers unit-variant enums only; data-carrying
// variants serialize by hand as `{"kind": ..., <field>: ...}`.
impl Serialize for AdmitDecision {
    fn to_value(&self) -> serde::Value {
        let (kind, field, value) = match self {
            AdmitDecision::Admitted { queued } => ("admitted", "queued", queued.to_value()),
            AdmitDecision::ShedOverload { in_flight } => (
                "shed-overload",
                "in_flight",
                serde::Value::U64(u64::try_from(*in_flight).unwrap_or(u64::MAX)),
            ),
            AdmitDecision::ShedDeadline { would_start } => {
                ("shed-deadline", "would_start", would_start.to_value())
            }
            AdmitDecision::ShedBreaker { until } => ("shed-breaker", "until", until.to_value()),
        };
        serde::Value::Obj(vec![
            ("kind".to_owned(), serde::Value::Str(kind.to_owned())),
            (field.to_owned(), value),
        ])
    }
}

impl Deserialize for AdmitDecision {
    fn from_value(v: &serde::Value) -> Result<AdmitDecision, serde::DeError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::DeError::new(format!("AdmitDecision: missing '{name}'")))
        };
        let kind = v
            .get("kind")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| serde::DeError::new("AdmitDecision: missing 'kind'"))?;
        match kind {
            "admitted" => Ok(AdmitDecision::Admitted {
                queued: SimNanos::from_value(field("queued")?)?,
            }),
            "shed-overload" => Ok(AdmitDecision::ShedOverload {
                in_flight: field("in_flight")?
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| serde::DeError::new("AdmitDecision: bad 'in_flight'"))?,
            }),
            "shed-deadline" => Ok(AdmitDecision::ShedDeadline {
                would_start: SimNanos::from_value(field("would_start")?)?,
            }),
            "shed-breaker" => Ok(AdmitDecision::ShedBreaker {
                until: SimNanos::from_value(field("until")?)?,
            }),
            other => Err(serde::DeError::new(format!(
                "AdmitDecision: unknown kind '{other}'"
            ))),
        }
    }
}

/// One appended admission-log entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionRecord {
    /// Arrival time of the request.
    pub at: SimNanos,
    /// The function it targeted.
    pub function: String,
    /// What admission decided.
    pub decision: AdmitDecision,
}

/// A successful admission: when the request may start and what it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// When the request's slot frees (equals arrival when unqueued).
    pub start: SimNanos,
    /// `start - arrival`.
    pub queued: SimNanos,
    /// The absolute deadline stamped on the request, if the policy sets one.
    pub deadline: Option<SimNanos>,
}

#[derive(Debug)]
struct FunctionState {
    /// Completion times of admitted-but-unfinished requests, ascending.
    completions: Vec<SimNanos>,
    breaker: Option<CircuitBreaker>,
}

/// The admission controller: per-function queues and breakers plus the
/// append-only decision log.
#[derive(Debug)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    functions: BTreeMap<String, FunctionState>,
    log: Vec<AdmissionRecord>,
}

impl AdmissionController {
    /// A controller enforcing `policy`.
    pub fn new(policy: AdmissionPolicy) -> AdmissionController {
        AdmissionController {
            policy,
            functions: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// The append-only decision log — the determinism ground truth for
    /// admit/shed history.
    pub fn log(&self) -> &[AdmissionRecord] {
        &self.log
    }

    /// The breaker state for `function` (`None` when the policy has no
    /// breaker or the function has not been seen).
    pub fn breaker_state(&self, function: &str) -> Option<BreakerState> {
        self.functions
            .get(function)?
            .breaker
            .as_ref()
            .map(CircuitBreaker::state)
    }

    /// Every breaker transition recorded for `function`, in order.
    pub fn transitions(&self, function: &str) -> &[BreakerTransition] {
        self.functions
            .get(function)
            .and_then(|s| s.breaker.as_ref())
            .map(CircuitBreaker::transitions)
            .unwrap_or(&[])
    }

    /// All breaker transitions across functions, `(function, transition)`,
    /// in function-name order — serializable determinism ground truth.
    pub fn all_transitions(&self) -> Vec<(String, BreakerTransition)> {
        self.functions
            .iter()
            .flat_map(|(name, state)| {
                state
                    .breaker
                    .iter()
                    .flat_map(|b| b.transitions().iter().copied())
                    .map(move |t| (name.clone(), t))
            })
            .collect()
    }

    /// Total breaker trips (transitions into Open) across functions.
    pub fn breaker_opens(&self) -> u64 {
        self.functions
            .values()
            .filter_map(|s| s.breaker.as_ref())
            .flat_map(|b| b.transitions())
            .filter(|t| t.to == BreakerState::Open)
            .count() as u64
    }

    /// Requests currently admitted but unfinished for `function` at `now`.
    pub fn in_flight(&self, function: &str, now: SimNanos) -> usize {
        self.functions
            .get(function)
            .map(|s| s.completions.iter().filter(|&&c| c > now).count())
            .unwrap_or(0)
    }

    fn state_mut(&mut self, function: &str) -> &mut FunctionState {
        let breaker = self.policy.breaker;
        self.functions
            .entry(function.to_owned())
            .or_insert_with(|| FunctionState {
                completions: Vec::new(),
                breaker: breaker.map(CircuitBreaker::new),
            })
    }

    /// Decides one arrival for `function` at `arrival` (arrivals must be
    /// time-sorted). Admission computes the earliest virtual start time the
    /// function's capacity allows; sheds are typed, logged, and returned as
    /// errors — never panics, never silent.
    ///
    /// # Errors
    ///
    /// [`PlatformError::CircuitOpen`], [`PlatformError::Overload`], or
    /// [`PlatformError::DeadlineExceeded`], per the module-level rules.
    pub fn admit(&mut self, function: &str, arrival: SimNanos) -> Result<Admitted, PlatformError> {
        let policy = self.policy;
        let state = self.state_mut(function);
        state.completions.retain(|&c| c > arrival);

        if let Some(breaker) = &mut state.breaker {
            if let Err(until) = breaker.admit(arrival) {
                let decision = AdmitDecision::ShedBreaker { until };
                self.log.push(AdmissionRecord {
                    at: arrival,
                    function: function.to_owned(),
                    decision,
                });
                return Err(PlatformError::CircuitOpen {
                    function: function.to_owned(),
                    until,
                });
            }
        }

        let deadline =
            (!policy.deadline.is_zero()).then(|| arrival.saturating_add(policy.deadline));
        let in_flight = state.completions.len();
        let limit = policy.max_in_flight;
        let (start, queued) = if limit == 0 || in_flight < limit {
            (arrival, SimNanos::ZERO)
        } else {
            // The request must wait for `waiting` completions to free slots
            // ahead of it (earlier arrivals queue ahead, FIFO).
            let waiting = in_flight - limit + 1;
            if waiting > policy.max_queue {
                let decision = AdmitDecision::ShedOverload { in_flight };
                self.log.push(AdmissionRecord {
                    at: arrival,
                    function: function.to_owned(),
                    decision,
                });
                return Err(PlatformError::Overload {
                    function: function.to_owned(),
                    in_flight,
                    limit,
                });
            }
            let start = state.completions[waiting - 1];
            if policy.shed_expired {
                if let Some(deadline) = deadline {
                    if start > deadline {
                        let decision = AdmitDecision::ShedDeadline { would_start: start };
                        self.log.push(AdmissionRecord {
                            at: arrival,
                            function: function.to_owned(),
                            decision,
                        });
                        return Err(PlatformError::DeadlineExceeded {
                            function: function.to_owned(),
                            deadline,
                            would_start: start,
                        });
                    }
                }
            }
            (start, start.saturating_sub(arrival))
        };

        self.log.push(AdmissionRecord {
            at: arrival,
            function: function.to_owned(),
            decision: AdmitDecision::Admitted { queued },
        });
        Ok(Admitted {
            start,
            queued,
            deadline,
        })
    }

    /// Records that an admitted request for `function` finished at `finish`
    /// with the given health signal, freeing its slot and feeding the
    /// breaker.
    pub fn complete(&mut self, function: &str, finish: SimNanos, signal: HealthSignal) {
        let state = self.state_mut(function);
        let idx = state.completions.partition_point(|&c| c <= finish);
        state.completions.insert(idx, finish);
        if let Some(breaker) = &mut state.breaker {
            breaker.on_outcome(finish, signal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimNanos {
        SimNanos::from_millis(v)
    }

    #[test]
    fn unlimited_admits_everything_instantly() {
        let mut ctrl = AdmissionController::new(AdmissionPolicy::unlimited());
        for i in 0..10 {
            let a = ctrl.admit("f", ms(i)).unwrap();
            assert_eq!(a.start, ms(i));
            assert_eq!(a.queued, SimNanos::ZERO);
            assert_eq!(a.deadline, None);
            ctrl.complete("f", ms(i + 100), HealthSignal::Healthy);
        }
        assert_eq!(ctrl.log().len(), 10);
        assert_eq!(ctrl.breaker_opens(), 0);
    }

    #[test]
    fn queueing_delays_starts_fifo() {
        // limit 1, service 10 ms, arrivals every 1 ms: each request starts
        // when the previous completes.
        let mut ctrl = AdmissionController::new(AdmissionPolicy::queue_only(1, SimNanos::ZERO));
        let a0 = ctrl.admit("f", ms(0)).unwrap();
        assert_eq!(a0.start, ms(0));
        ctrl.complete("f", ms(10), HealthSignal::Healthy);

        let a1 = ctrl.admit("f", ms(1)).unwrap();
        assert_eq!(a1.start, ms(10));
        assert_eq!(a1.queued, ms(9));
        ctrl.complete("f", ms(20), HealthSignal::Healthy);

        let a2 = ctrl.admit("f", ms(2)).unwrap();
        assert_eq!(a2.start, ms(20), "behind both predecessors");
    }

    #[test]
    fn bounded_queue_sheds_overload_typed() {
        let policy = AdmissionPolicy {
            max_queue: 1,
            ..AdmissionPolicy::standard(1, SimNanos::ZERO)
        };
        let mut ctrl = AdmissionController::new(policy);
        ctrl.admit("f", ms(0)).unwrap();
        ctrl.complete("f", ms(100), HealthSignal::Healthy);
        ctrl.admit("f", ms(1)).unwrap(); // the one queue slot
        ctrl.complete("f", ms(200), HealthSignal::Healthy);
        match ctrl.admit("f", ms(2)) {
            Err(PlatformError::Overload {
                function,
                in_flight,
                limit,
            }) => {
                assert_eq!(function, "f");
                assert_eq!(in_flight, 2);
                assert_eq!(limit, 1);
            }
            other => panic!("expected Overload, got {other:?}"),
        }
        assert!(matches!(
            ctrl.log().last().unwrap().decision,
            AdmitDecision::ShedOverload { in_flight: 2 }
        ));
    }

    #[test]
    fn doomed_requests_shed_at_admission() {
        // limit 1, deadline 5 ms, first request holds the slot 100 ms.
        let mut ctrl = AdmissionController::new(AdmissionPolicy::standard(1, ms(5)));
        ctrl.admit("f", ms(0)).unwrap();
        ctrl.complete("f", ms(100), HealthSignal::Healthy);
        match ctrl.admit("f", ms(1)) {
            Err(PlatformError::DeadlineExceeded {
                deadline,
                would_start,
                ..
            }) => {
                assert_eq!(deadline, ms(6));
                assert_eq!(would_start, ms(100));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The baseline never sheds: same scenario, shed_expired off.
        let mut base = AdmissionController::new(AdmissionPolicy::queue_only(1, ms(5)));
        base.admit("f", ms(0)).unwrap();
        base.complete("f", ms(100), HealthSignal::Healthy);
        let a = base.admit("f", ms(1)).unwrap();
        assert_eq!(a.start, ms(100), "baseline queues past the deadline");
        assert_eq!(a.deadline, Some(ms(6)), "deadline still stamped");
    }

    #[test]
    fn breaker_trips_cools_probes_and_closes() {
        let mut breaker = CircuitBreaker::new(BreakerPolicy::standard());
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.admit(ms(0)).unwrap();
        breaker.on_outcome(ms(1), HealthSignal::Failed);
        breaker.admit(ms(1)).unwrap();
        breaker.on_outcome(ms(2), HealthSignal::Poisoned);
        assert_eq!(breaker.state(), BreakerState::Open);

        // Inside the cooldown: fast-fail with the end time.
        assert_eq!(breaker.admit(ms(10)), Err(ms(22)));
        // After the cooldown: a probe is admitted, half-open.
        breaker.admit(ms(30)).unwrap();
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        // A failed probe re-opens with a fresh cooldown.
        breaker.on_outcome(ms(31), HealthSignal::Failed);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.admit(ms(32)), Err(ms(51)));
        // Two clean probes close it.
        breaker.admit(ms(60)).unwrap();
        breaker.on_outcome(ms(61), HealthSignal::Healthy);
        breaker.admit(ms(62)).unwrap();
        breaker.on_outcome(ms(63), HealthSignal::Healthy);
        assert_eq!(breaker.state(), BreakerState::Closed);

        let kinds: Vec<(BreakerState, BreakerState)> = breaker
            .transitions()
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn healthy_traffic_resets_the_failure_streak() {
        let mut breaker = CircuitBreaker::new(BreakerPolicy::standard());
        for i in 0..20u64 {
            breaker.admit(ms(i)).unwrap();
            let signal = if i % 2 == 0 {
                HealthSignal::Failed
            } else {
                HealthSignal::Healthy
            };
            breaker.on_outcome(ms(i), signal);
        }
        assert_eq!(breaker.state(), BreakerState::Closed, "never consecutive");
        assert!(breaker.transitions().is_empty());
    }

    #[test]
    fn open_breaker_sheds_typed_through_the_controller() {
        let mut ctrl = AdmissionController::new(AdmissionPolicy::standard(4, ms(50)));
        for i in 0..2u64 {
            ctrl.admit("f", ms(i)).unwrap();
            ctrl.complete("f", ms(i + 1), HealthSignal::Failed);
        }
        assert_eq!(ctrl.breaker_state("f"), Some(BreakerState::Open));
        match ctrl.admit("f", ms(5)) {
            Err(PlatformError::CircuitOpen { function, until }) => {
                assert_eq!(function, "f");
                assert_eq!(
                    until,
                    ms(22),
                    "opened at the second failure (2 ms) + cooldown"
                );
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        assert_eq!(ctrl.breaker_opens(), 1);
        // Functions are independent: "g" is untouched.
        ctrl.admit("g", ms(5)).unwrap();
        assert_eq!(ctrl.breaker_state("g"), Some(BreakerState::Closed));
    }

    #[test]
    fn decision_log_serializes_deterministically() {
        let run = || {
            let mut ctrl = AdmissionController::new(AdmissionPolicy::standard(1, ms(3)));
            ctrl.admit("f", ms(0)).unwrap();
            ctrl.complete("f", ms(50), HealthSignal::Poisoned);
            let _ = ctrl.admit("f", ms(1));
            let _ = ctrl.admit("f", ms(2));
            serde_json::to_string(&ctrl.log().to_vec()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(AdmissionPolicy::unlimited().label(), "unlimited");
        assert_eq!(AdmissionPolicy::queue_only(4, ms(1)).label(), "baseline");
        assert_eq!(AdmissionPolicy::standard(4, ms(1)).label(), "full");
        let deadline_only = AdmissionPolicy {
            breaker: None,
            ..AdmissionPolicy::standard(4, ms(1))
        };
        assert_eq!(deadline_only.label(), "deadline");
        let breaker_only = AdmissionPolicy {
            shed_expired: false,
            ..AdmissionPolicy::standard(4, ms(1))
        };
        assert_eq!(breaker_only.label(), "breaker");
    }
}
