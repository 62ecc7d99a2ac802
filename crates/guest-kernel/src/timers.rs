//! Guest kernel timers — non-I/O system state that separated state recovery
//! re-establishes on the critical path (paper §3.2 counts timers among the
//! 37 838 restored objects).

use simtime::SimNanos;

/// One armed timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timer {
    /// Timer id within the table.
    pub id: u64,
    /// Absolute virtual deadline.
    pub deadline: SimNanos,
    /// Re-arm period (zero for one-shot).
    pub period: SimNanos,
    /// Owning task's pid.
    pub owner_pid: u32,
}

/// The timer table.
#[derive(Debug, Default, Clone)]
pub struct TimerTable {
    timers: Vec<Option<Timer>>,
    fired: u64,
}

impl TimerTable {
    /// Creates an empty table.
    pub fn new() -> TimerTable {
        TimerTable::default()
    }

    /// Arms a timer, returning its id.
    pub fn arm(&mut self, deadline: SimNanos, period: SimNanos, owner_pid: u32) -> u64 {
        let id = self.timers.len() as u64;
        self.timers.push(Some(Timer {
            id,
            deadline,
            period,
            owner_pid,
        }));
        id
    }

    /// Cancels a timer; returns whether it was armed.
    pub fn cancel(&mut self, id: u64) -> bool {
        self.timers
            .get_mut(id as usize)
            .map(|slot| slot.take().is_some())
            .unwrap_or(false)
    }

    /// Fires every timer due at or before `now`; periodic timers re-arm.
    /// Returns the ids fired.
    pub fn fire_due(&mut self, now: SimNanos) -> Vec<u64> {
        let mut fired = Vec::new();
        for slot in self.timers.iter_mut() {
            if let Some(t) = slot {
                if t.deadline <= now {
                    fired.push(t.id);
                    self.fired += 1;
                    if t.period.is_zero() {
                        *slot = None;
                    } else {
                        t.deadline = now.saturating_add(t.period);
                    }
                }
            }
        }
        fired
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.timers.iter().flatten().count()
    }

    /// True if no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total fire events.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Iterates armed timers.
    pub fn iter(&self) -> impl Iterator<Item = &Timer> {
        self.timers.iter().flatten()
    }

    /// Installs a restored timer verbatim.
    pub fn install_restored(
        &mut self,
        deadline: SimNanos,
        period: SimNanos,
        owner_pid: u32,
    ) -> u64 {
        self.arm(deadline, period, owner_pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oneshot_fires_once() {
        let mut t = TimerTable::new();
        let id = t.arm(SimNanos::from_millis(5), SimNanos::ZERO, 1);
        assert!(t.fire_due(SimNanos::from_millis(4)).is_empty());
        assert_eq!(t.fire_due(SimNanos::from_millis(5)), vec![id]);
        assert!(t.fire_due(SimNanos::from_millis(100)).is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn periodic_rearms() {
        let mut t = TimerTable::new();
        let id = t.arm(SimNanos::from_millis(10), SimNanos::from_millis(10), 1);
        assert_eq!(t.fire_due(SimNanos::from_millis(10)), vec![id]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.fire_due(SimNanos::from_millis(20)), vec![id]);
        assert_eq!(t.fired(), 2);
    }

    #[test]
    fn cancel_works_once() {
        let mut t = TimerTable::new();
        let id = t.arm(SimNanos::from_secs(1), SimNanos::ZERO, 7);
        assert!(t.cancel(id));
        assert!(!t.cancel(id));
        assert!(!t.cancel(99));
        assert!(t.fire_due(SimNanos::from_secs(2)).is_empty());
    }

    #[test]
    fn multiple_due_fire_together() {
        let mut t = TimerTable::new();
        let a = t.arm(SimNanos::from_millis(1), SimNanos::ZERO, 1);
        let b = t.arm(SimNanos::from_millis(2), SimNanos::ZERO, 2);
        t.arm(SimNanos::from_millis(50), SimNanos::ZERO, 3);
        assert_eq!(t.fire_due(SimNanos::from_millis(3)), vec![a, b]);
        assert_eq!(t.len(), 1);
    }
}
