//! The keep-alive rule both open-loop kernels share: one warm set per
//! function (per node and function in the cluster), reused newest first,
//! capped at `max_idle`, each parked instance reclaimed by a
//! [`Event::KeepAliveExpiry`] one window after it parked.

use simtime::SimNanos;

use super::arena::{Arena, FnId, InstanceId};
use super::events::{Event, EventQueue};

/// One instance of an open-loop kernel: busy serving a request, or parked
/// warm. `T` is what the kernel keeps beside it — the fleet the request its
/// boot serves, the cluster the node it runs on.
pub(crate) struct Instance<T> {
    pub(crate) function: FnId,
    pub(crate) tag: T,
    /// When it parked; `None` while it serves a request.
    parked: Option<SimNanos>,
}

impl<T> Instance<T> {
    /// A newly placed instance, busy with its first request.
    pub(crate) fn serving(function: FnId, tag: T) -> Instance<T> {
        Instance {
            function,
            tag,
            parked: None,
        }
    }

    /// Serving a request, not parked.
    pub(crate) fn busy(&self) -> bool {
        self.parked.is_none()
    }
}

/// The warm instances of one function: a LIFO stack pruned lazily (an id
/// whose slot was reclaimed misses the arena's generation check and is
/// skipped) and the exact count of those parked: each sits on it once.
#[derive(Default)]
pub(crate) struct WarmSet {
    idle: Vec<InstanceId>,
    live: usize,
}

impl WarmSet {
    /// Instances parked in the set.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Puts the newest parked instance back to work, popping past stale
    /// ids, and returns it; `None` when nothing is parked.
    pub(crate) fn reuse<T>(&mut self, instances: &mut Arena<Instance<T>>) -> Option<InstanceId> {
        while let Some(id) = self.idle.pop() {
            if let Some(inst) = instances.get_mut(id) {
                inst.parked = None;
                self.live -= 1;
                return Some(id);
            }
        }
        None
    }

    /// The ids on the stack that still resolve — with the count exact,
    /// the set's parked instances. For debug checks.
    pub(crate) fn parked<'a, T>(
        &'a self,
        instances: &'a Arena<Instance<T>>,
    ) -> impl Iterator<Item = InstanceId> + 'a {
        self.idle
            .iter()
            .copied()
            .filter(|&id| instances.contains(id))
    }

    /// An instance finished its request at `now`: parks it warm and
    /// schedules its expiry one `keep_alive` on, or — the set already
    /// holding `max_idle` — retires it from the arena. Returns whether it
    /// parked.
    pub(crate) fn park<T>(
        &mut self,
        instance: InstanceId,
        instances: &mut Arena<Instance<T>>,
        now: SimNanos,
        keep_alive: SimNanos,
        max_idle: usize,
        queue: &mut EventQueue<'_>,
    ) -> bool {
        let Some(inst) = instances.get_mut(instance).filter(|_| self.live < max_idle) else {
            instances.remove(instance);
            return false;
        };
        inst.parked = Some(now);
        if self.live == 0 {
            // Nothing parked: every id left on the stack is stale.
            self.idle.clear();
        }
        self.idle.push(instance);
        self.live += 1;
        let expiry = Event::KeepAliveExpiry { instance };
        queue.schedule(now.saturating_add(keep_alive), expiry);
        true
    }

    /// An expiry for `id` fired at `now`: reclaims the instance if it is
    /// still parked and has idled a full `keep_alive`. One reused since it
    /// parked is not due — busy, or re-parked later, whose own expiry
    /// supersedes this one. Returns whether it was reclaimed.
    pub(crate) fn expire<T>(
        &mut self,
        id: InstanceId,
        instances: &mut Arena<Instance<T>>,
        now: SimNanos,
        keep_alive: SimNanos,
    ) -> bool {
        let due = instances
            .get(id)
            .and_then(|inst| inst.parked)
            .is_some_and(|since| now.saturating_sub(since) >= keep_alive);
        if due {
            instances.remove(id);
            self.live -= 1;
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: SimNanos = SimNanos::from_millis(10);

    fn at(ms: u64) -> SimNanos {
        SimNanos::from_millis(ms)
    }

    #[test]
    fn the_warm_set_reuses_newest_first_skips_stale_ids_and_caps_parks() {
        let mut instances: Arena<Instance<()>> = Arena::new();
        let mut queue = EventQueue::new();
        let mut warm = WarmSet::default();
        let f = FnId::from_index(0);
        let [a, b, c] = [(); 3].map(|()| instances.insert(Instance::serving(f, ())));

        // Newest first: `b`, parked after `a`, is reused before it; past
        // `max_idle`, `c` retires instead of parking.
        assert!(warm.park(a, &mut instances, at(0), WINDOW, 2, &mut queue));
        assert!(warm.park(b, &mut instances, at(1), WINDOW, 2, &mut queue));
        assert!(!warm.park(c, &mut instances, at(2), WINDOW, 2, &mut queue));
        assert!(!instances.contains(c));
        assert_eq!(warm.reuse(&mut instances), Some(b));
        assert!(instances.get(b).unwrap().busy());

        // `a` idles its window out; `b`, still serving, is not due.
        assert!(warm.expire(a, &mut instances, at(10), WINDOW));
        assert!(!warm.expire(b, &mut instances, at(11), WINDOW));

        // Parked into the emptied set, `b` drops `a`'s stale id. Re-parked
        // at 13 ms, it is not due at the expiry its 12 ms park scheduled,
        // only at its own.
        assert!(warm.park(b, &mut instances, at(12), WINDOW, 2, &mut queue));
        assert_eq!(warm.idle, [b]);
        assert_eq!(warm.reuse(&mut instances), Some(b));
        assert!(warm.park(b, &mut instances, at(13), WINDOW, 2, &mut queue));
        assert!(!warm.expire(b, &mut instances, at(22), WINDOW));
        assert!(warm.expire(b, &mut instances, at(23), WINDOW));

        // The id left on the stack is stale: a reuse skips it to nothing.
        assert_eq!((warm.live(), warm.idle.len()), (0, 1));
        assert_eq!(warm.reuse(&mut instances), None);
        let expiries: Vec<_> = std::iter::from_fn(|| queue.pop()).map(|(t, _)| t).collect();
        assert_eq!(expiries, [at(10), at(11), at(22), at(23)]);
    }
}
