//! The central event queue of the open-loop engines.
//!
//! `run_fleet` and the cluster kernel pop every state change from here as
//! an [`Event`], in one deterministic order. The closed-loop
//! [`Cluster`](crate::cluster::Cluster) pops only its node-fault schedule
//! from one ([`EventQueue::pop_due`]), so both cluster fidelity levels order
//! same-instant crashes, heals and heartbeats by the one [`Event`] rank;
//! the closed-loop `Simulation::run` is a fold and schedules nothing. The
//! queue is a merge of three sources, each already sorted under that order:
//!
//! 1. **the trace** — validated, hence time-sorted, and read in place
//!    through a cursor. Arrivals are the last class at an instant and their
//!    key is the trace position, so slice order *is* queue order; an
//!    arrival is never pushed anywhere;
//! 2. **the expiry run** — keep-alive expiries, which both kernels schedule
//!    a constant window ahead of a monotone clock, append to a FIFO
//!    whenever they sort after its tail;
//! 3. **the heap** — a `BinaryHeap` for everything else, which is only the
//!    work in flight (plus the few expiries that did not sort after the
//!    run's tail).
//!
//! `pop` takes the least of the three heads, so the pop sequence is the
//! one a single heap holding every event would produce — a property test
//! below holds the merge to exactly that reference.
//!
//! The tie-break at equal timestamps is total and *insertion-order
//! independent*: `(time, event class, payload key, payload subkey)` — the
//! sequence number is consulted only for exact duplicates, which the
//! engine never schedules. Together the class, key and subkey are
//! injective over events, so two distinct events never compare equal: the
//! twin test below ranks every event against each event that differs from
//! it in one payload field, at the edges of every field's range. Class
//! order encodes the platform's causality at an instant: completions free
//! capacity, expiries reclaim it, background work runs, and only then does
//! a new arrival see the world.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use simtime::SimNanos;

use super::arena::{FnId, InstanceId};
use super::trace::ValidTrace;
use super::TraceRequest;

/// One scheduled state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Request `request` (its index in the trace) arrives at the platform.
    Arrival {
        /// Trace position of the arriving request.
        request: u64,
    },
    /// A cold boot finished: the instance is ready to run its request.
    BootComplete {
        /// The instance that finished booting.
        instance: InstanceId,
    },
    /// Request `request` finished executing.
    ExecComplete {
        /// Trace position of the completing request.
        request: u64,
        /// The instance it ran on.
        instance: InstanceId,
    },
    /// An idle instance's keep-alive window lapsed. The generational id
    /// makes stale expiries (instance reused or reclaimed since) miss.
    KeepAliveExpiry {
        /// The instance whose window lapsed.
        instance: InstanceId,
    },
    /// A self-healing sweep is due for `function`: repair suspect prepared
    /// state, off the request path.
    PoolTick {
        /// The function owed the sweep.
        function: FnId,
    },
    /// A cross-node template transfer landed: node `node` now holds a local
    /// replica of `function`'s template and can sfork without the network.
    /// The generation makes superseded transfers (hedge losers, aborts
    /// after a source crash) lazy-miss, exactly like stale instance ids.
    TransferComplete {
        /// The receiving node's index in the cluster.
        node: u32,
        /// The function whose template was transferred.
        function: FnId,
        /// The transfer generation this completion belongs to.
        gen: u32,
    },
    /// A failed node's background repair finished: its poisoned template
    /// replicas are rebuilt and the node rejoins the routable set.
    NodeRepair {
        /// The repaired node's index in the cluster.
        node: u32,
    },
    /// A scheduled node crash fires: the node drops its in-flight work and
    /// template replicas and leaves the cluster for the rest of the run.
    NodeCrash {
        /// The crashing node's index in the cluster.
        node: u32,
    },
    /// A scheduled partition heals: the islanded nodes rejoin the
    /// scheduler's side of the network. The epoch makes heals of
    /// superseded partitions lazy-miss.
    PartitionHeal {
        /// The partition epoch this heal belongs to.
        epoch: u32,
    },
    /// The hedge delay on an in-flight transfer elapsed: if the transfer
    /// is still pending, fire a second transfer from another holder and
    /// let the first completion win.
    HedgeFire {
        /// The transfer's destination node.
        node: u32,
        /// The function being transferred.
        function: FnId,
        /// The transfer generation the hedge belongs to.
        gen: u32,
    },
    /// A virtual-time heartbeat round: every node's health belief is
    /// refreshed from its (possibly gray-stretched) ack latency.
    HeartbeatTick {
        /// Monotone round counter, keying the tie-break.
        round: u32,
    },
}

impl Event {
    /// Dispatch rank at equal timestamps: completions before expiries
    /// before transfers/boot/background work before arrivals — the order in
    /// which a real platform's state settles within one instant. The
    /// cluster and chaos classes slot *between* the legacy ones without
    /// disturbing their relative order, so single-node and chaos-free runs
    /// are bit-for-bit unchanged: a transfer landing at `t` must be
    /// visible to a boot completing at `t` (the boot forked from it);
    /// work completing at `t` finishes before a crash at `t` drops the
    /// node; a primary transfer tying with its own hedge fire wins; and
    /// all fault/heal/health background work settles before the next
    /// arrival routes.
    fn class(&self) -> u8 {
        match self {
            Event::ExecComplete { .. } => 0,
            Event::KeepAliveExpiry { .. } => 1,
            Event::TransferComplete { .. } => 2,
            Event::BootComplete { .. } => 3,
            Event::PoolTick { .. } => 4,
            Event::NodeRepair { .. } => 5,
            Event::NodeCrash { .. } => 6,
            Event::PartitionHeal { .. } => 7,
            Event::HedgeFire { .. } => 8,
            Event::HeartbeatTick { .. } => 9,
            Event::Arrival { .. } => 10,
        }
    }

    /// Payload key making the tie-break total across distinct events of
    /// one class (trace order for arrivals/completions, slot identity for
    /// instance events, `(gen, node)` for transfer events, whose function
    /// is the subkey).
    fn key(&self) -> u64 {
        match self {
            Event::Arrival { request } | Event::ExecComplete { request, .. } => *request,
            Event::BootComplete { instance } | Event::KeepAliveExpiry { instance } => {
                instance.key()
            }
            Event::PoolTick { function } => function.index() as u64,
            Event::TransferComplete { node, gen, .. } | Event::HedgeFire { node, gen, .. } => {
                (u64::from(*gen) << 32) | u64::from(*node)
            }
            Event::NodeRepair { node } | Event::NodeCrash { node } => *node as u64,
            Event::PartitionHeal { epoch } => u64::from(*epoch),
            Event::HeartbeatTick { round } => u64::from(*round),
        }
    }

    /// Secondary payload key, covering the fields `key` leaves free so the
    /// tie-break binds the *whole* payload:
    /// - `ExecComplete`'s instance. Its `key` is the trace position, so two
    ///   completions of one request (which the engine never schedules, but
    ///   the total order must not rely on that) would otherwise fall
    ///   through to insertion order. Instance keys `(index << 32) |
    ///   generation` are injective over handles.
    /// - A transfer's or hedge's function, so the two keys order transfers
    ///   by `(gen, node, function)`. Three `u32`s do not pack into one
    ///   `u64` key: a packing drops bits, and events that differ only in
    ///   those bits tie.
    fn subkey(&self) -> u64 {
        match self {
            Event::ExecComplete { instance, .. } => instance.key(),
            Event::TransferComplete { function, .. } | Event::HedgeFire { function, .. } => {
                function.index() as u64
            }
            _ => 0,
        }
    }
}

/// Where an event falls in the total order, the sequence number aside:
/// `(time, class, key, subkey)`.
type Rank = (SimNanos, u8, u64, u64);

impl Event {
    fn rank(&self, at: SimNanos) -> Rank {
        (at, self.class(), self.key(), self.subkey())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    rank: Rank,
    seq: u64,
    event: Event,
}

impl Scheduled {
    fn fire(self) -> (SimNanos, Event) {
        (self.rank.0, self.event)
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.rank, self.seq).cmp(&(other.rank, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The engine's priority queue: min-ordered on `(time, class, key, subkey)`
/// across its three sorted sources (see the module docs).
#[derive(Debug, Default)]
pub struct EventQueue<'t> {
    /// The arrival source: `trace[cursor..]` has yet to arrive.
    trace: &'t [TraceRequest],
    cursor: usize,
    /// Keep-alive expiries in scheduling order, each sorting after the one
    /// before it.
    expiries: VecDeque<Scheduled>,
    /// Everything else, earliest on top.
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
}

impl<'t> EventQueue<'t> {
    /// An empty queue.
    pub fn new() -> EventQueue<'t> {
        EventQueue::default()
    }

    /// An empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> EventQueue<'t> {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            ..EventQueue::default()
        }
    }

    /// A queue whose arrivals are `trace`: request `i` pops as
    /// `Event::Arrival { request: i }` at its arrival time, exactly as if
    /// every one had been scheduled up front. Only a [`ValidTrace`] will
    /// do — the merge reads the slice in order and would silently
    /// mis-order an unsorted one.
    pub(crate) fn over(trace: ValidTrace<'t>) -> EventQueue<'t> {
        EventQueue {
            trace: trace.requests(),
            ..EventQueue::default()
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimNanos, event: Event) {
        let entry = Scheduled {
            rank: event.rank(at),
            seq: self.seq,
            event,
        };
        self.seq += 1;
        // The run stays sorted whatever is scheduled: an expiry that does
        // not sort after its tail (a same-instant key inversion, a
        // hand-built schedule) takes the heap like any other event. Only
        // expiries may extend it, so a far-future crash or heal can never
        // become a tail nothing sorts after.
        let extends_run = matches!(event, Event::KeepAliveExpiry { .. })
            && self.expiries.back().is_none_or(|tail| *tail < entry);
        if extends_run {
            self.expiries.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Pops the earliest event, with its fire time.
    pub fn pop(&mut self) -> Option<(SimNanos, Event)> {
        let run = self.expiries.front();
        let heap = self.heap.peek().map(|Reverse(entry)| entry);
        let from_run = match (run, heap) {
            (Some(run), Some(heap)) => run < heap,
            (run, _) => run.is_some(),
        };
        let scheduled = if from_run { run } else { heap };
        if let Some(req) = self.trace.get(self.cursor) {
            let arrival = Event::Arrival {
                request: self.cursor as u64,
            };
            // An exact tie goes to the trace, which a single heap would
            // have been handed first.
            if scheduled.is_none_or(|s| arrival.rank(req.arrival) <= s.rank) {
                self.cursor += 1;
                return Some((req.arrival, arrival));
            }
        }
        let entry = if from_run {
            self.expiries.pop_front()
        } else {
            self.heap.pop().map(|Reverse(entry)| entry)
        };
        entry.map(Scheduled::fire)
    }

    /// Pops the earliest event if it fires at or before `now`.
    pub fn pop_due(&mut self, now: SimNanos) -> Option<(SimNanos, Event)> {
        let arrival = self.trace.get(self.cursor).map(|req| req.arrival);
        let run = self.expiries.front().map(|entry| entry.rank.0);
        let heap = self.heap.peek().map(|Reverse(entry)| entry.rank.0);
        if [arrival, run, heap].into_iter().flatten().min()? > now {
            return None;
        }
        self.pop()
    }

    /// Pending events, arrivals yet to come included.
    pub fn len(&self) -> usize {
        self.trace.len() - self.cursor + self.expiries.len() + self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events ever entered (the engine's `events` accounting): every
    /// arrival of the trace plus every [`EventQueue::schedule`] call — on a
    /// drained queue, arrivals consumed plus events scheduled.
    pub fn scheduled(&self) -> u64 {
        self.trace.len() as u64 + self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::super::arena::Arena;
    use super::super::trace::validate_trace;
    use super::*;
    use proptest::prelude::*;

    fn nanos(n: u64) -> SimNanos {
        SimNanos::from_nanos(n)
    }

    /// Two live handles from one arena: distinct slots, distinct keys.
    fn two_instances() -> [InstanceId; 2] {
        let mut arena: Arena<()> = Arena::new();
        [arena.insert(()), arena.insert(())]
    }

    /// Requests of function 0 arriving at `times` (nanoseconds, sorted).
    fn trace_at(times: impl IntoIterator<Item = u64>) -> Vec<TraceRequest> {
        let arriving = |t| TraceRequest {
            arrival: nanos(t),
            function: 0,
        };
        times.into_iter().map(arriving).collect()
    }

    /// The merging queue over `trace`; validation rejects an empty trace,
    /// which is what a queue built without one already is.
    fn merging(trace: &[TraceRequest]) -> EventQueue<'_> {
        if trace.is_empty() {
            EventQueue::new()
        } else {
            EventQueue::over(validate_trace(trace, 1).unwrap())
        }
    }

    /// The queue this module was before the merge, kept as the oracle: one
    /// heap, every arrival of the trace pushed up front.
    struct ReferenceQueue {
        heap: BinaryHeap<Reverse<Scheduled>>,
        seq: u64,
    }

    impl ReferenceQueue {
        fn over(trace: &[TraceRequest]) -> ReferenceQueue {
            let mut queue = ReferenceQueue {
                heap: BinaryHeap::new(),
                seq: 0,
            };
            for (i, req) in trace.iter().enumerate() {
                queue.schedule(req.arrival, Event::Arrival { request: i as u64 });
            }
            queue
        }

        fn schedule(&mut self, at: SimNanos, event: Event) {
            let (rank, seq) = (event.rank(at), self.seq);
            self.heap.push(Reverse(Scheduled { rank, seq, event }));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimNanos, Event)> {
            self.heap.pop().map(|Reverse(entry)| entry.fire())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random programs of interleaved `schedule`/`pop` over a random
        /// sorted trace: the merge and the single heap agree on every pop
        /// and every count, at every step. Times live in a few dozen
        /// nanoseconds and keys in `0..6`, so ties at one instant across
        /// all eleven classes, expiries scheduled out of order, and
        /// hand-scheduled arrivals landing exactly on streamed ones are
        /// the common case, not the rare one.
        #[test]
        fn merge_matches_the_single_heap(
            gaps in prop::collection::vec(0u64..4, 0..40),
            ops in prop::collection::vec((0u8..4, 0u64..6, 0u8..11, 0u64..6), 0..120),
        ) {
            let mut arena: Arena<()> = Arena::new();
            let ids: Vec<InstanceId> = (0..6).map(|_| arena.insert(())).collect();
            let mut t = 0;
            let trace = trace_at(gaps.iter().map(|gap| {
                t += gap;
                t
            }));
            let mut merged = merging(&trace);
            let mut reference = ReferenceQueue::over(&trace);
            let mut now = SimNanos::ZERO;
            // Every op, then a full drain (`len() + 1` pops: the last one
            // sees both sides empty).
            let drain = (0..=trace.len() + ops.len()).map(|_| (0, 0, 0, 0));
            for (op, dt, class, key) in ops.iter().copied().chain(drain) {
                if op == 0 {
                    let popped = merged.pop();
                    prop_assert_eq!(popped, reference.pop());
                    now = popped.map_or(now, |(at, _)| at);
                } else {
                    let slot = key as usize;
                    let function = FnId::from_index(slot);
                    let (node, gen) = ((key % 4) as u32, (key % 3) as u32);
                    let event = match class {
                        0 => Event::ExecComplete { request: key, instance: ids[slot] },
                        1 => Event::KeepAliveExpiry { instance: ids[slot] },
                        2 => Event::TransferComplete { node, function, gen },
                        3 => Event::BootComplete { instance: ids[slot] },
                        4 => Event::PoolTick { function },
                        5 => Event::NodeRepair { node },
                        6 => Event::NodeCrash { node },
                        7 => Event::PartitionHeal { epoch: gen },
                        8 => Event::HedgeFire { node, function, gen },
                        9 => Event::HeartbeatTick { round: gen },
                        _ => Event::Arrival { request: key },
                    };
                    let at = match (op, trace.get(slot)) {
                        // A hand-scheduled twin of a streamed arrival.
                        (1, Some(req)) if class == 10 => req.arrival,
                        // Anywhere, the past included.
                        (2, _) => nanos(dt * 20),
                        // The engines' way: ahead of a monotone clock.
                        _ => now.saturating_add(nanos(dt)),
                    };
                    merged.schedule(at, event);
                    reference.schedule(at, event);
                }
                prop_assert_eq!(merged.len(), reference.heap.len());
                prop_assert_eq!(merged.is_empty(), reference.heap.is_empty());
                prop_assert_eq!(merged.scheduled(), reference.seq);
            }
            prop_assert!(merged.is_empty());
        }
    }

    #[test]
    fn heap_holds_only_work_in_flight() {
        // Arrivals 500 ns apart, each scheduling one completion 1 µs out:
        // two completions are pending at most, however long the trace.
        let [instance, _] = two_instances();
        let trace = trace_at((0..100_000).map(|i| i * 500));
        let mut q = merging(&trace);
        assert_eq!(q.len(), 100_000);
        let mut deepest = 0;
        while let Some((now, event)) = q.pop() {
            if let Event::Arrival { request } = event {
                let done = now.saturating_add(nanos(1_000));
                q.schedule(done, Event::ExecComplete { request, instance });
            }
            deepest = deepest.max(q.heap.len());
        }
        assert_eq!(deepest, 2);
        assert_eq!(q.scheduled(), 200_000);
    }

    #[test]
    fn only_in_order_expiries_extend_the_run() {
        let [a, b] = two_instances();
        let expiry = |instance| Event::KeepAliveExpiry { instance };
        let mut q = EventQueue::new();
        // A far-future event of another class must not become the tail.
        q.schedule(nanos(1_000_000), Event::NodeCrash { node: 0 });
        q.schedule(nanos(50), expiry(b));
        // Same instant, lower key; then an earlier instant: both sort
        // before the tail and take the heap.
        q.schedule(nanos(50), expiry(a));
        q.schedule(nanos(40), expiry(a));
        q.schedule(nanos(60), expiry(a));
        assert_eq!((q.expiries.len(), q.heap.len()), (2, 3));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (nanos(40), expiry(a)),
                (nanos(50), expiry(a)),
                (nanos(50), expiry(b)),
                (nanos(60), expiry(a)),
                (nanos(1_000_000), Event::NodeCrash { node: 0 }),
            ]
        );
    }

    #[test]
    fn pop_due_pops_what_pop_would_up_to_now_from_every_source() {
        let [a, _] = two_instances();
        let trace = trace_at([10, 30]);
        let mut q = merging(&trace);
        q.schedule(nanos(20), Event::KeepAliveExpiry { instance: a });
        q.schedule(nanos(30), Event::NodeCrash { node: 1 });
        q.schedule(nanos(40), Event::HeartbeatTick { round: 0 });
        assert_eq!(q.pop_due(nanos(9)), None);
        let due: Vec<_> = std::iter::from_fn(|| q.pop_due(nanos(30))).collect();
        assert_eq!(
            due,
            vec![
                (nanos(10), Event::Arrival { request: 0 }),
                (nanos(20), Event::KeepAliveExpiry { instance: a }),
                (nanos(30), Event::NodeCrash { node: 1 }),
                (nanos(30), Event::Arrival { request: 1 }),
            ]
        );
        assert_eq!(q.pop_due(nanos(39)), None);
        assert_eq!(q.len(), 1, "nothing past `now` was taken");
        assert_eq!(
            q.pop_due(SimNanos::MAX),
            Some((nanos(40), Event::HeartbeatTick { round: 0 }))
        );
        assert_eq!(q.pop_due(SimNanos::MAX), None);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(nanos(30), Event::Arrival { request: 2 });
        q.schedule(nanos(10), Event::Arrival { request: 0 });
        q.schedule(nanos(20), Event::Arrival { request: 1 });
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![nanos(10), nanos(20), nanos(30)]);
    }

    #[test]
    fn completion_beats_arrival_at_the_same_instant() {
        let [instance, _] = two_instances();
        let mut q = EventQueue::new();
        q.schedule(nanos(5), Event::Arrival { request: 7 });
        q.schedule(
            nanos(5),
            Event::ExecComplete {
                request: 3,
                instance,
            },
        );
        let (_, first) = q.pop().unwrap();
        assert!(matches!(first, Event::ExecComplete { request: 3, .. }));
    }

    #[test]
    fn equal_time_arrivals_pop_in_trace_order() {
        let mut q = EventQueue::new();
        for request in [4u64, 1, 3, 0, 2] {
            q.schedule(nanos(9), Event::Arrival { request });
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrival { request } => request,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn transfer_lands_before_the_boot_that_forks_from_it() {
        let [instance, _] = two_instances();
        let mut q = EventQueue::new();
        q.schedule(nanos(8), Event::BootComplete { instance });
        q.schedule(
            nanos(8),
            Event::TransferComplete {
                node: 1,
                function: FnId::from_index(0),
                gen: 0,
            },
        );
        let (_, first) = q.pop().unwrap();
        assert!(matches!(first, Event::TransferComplete { node: 1, .. }));
    }

    #[test]
    fn completions_land_before_a_crash_at_the_same_instant() {
        let [instance, _] = two_instances();
        let mut q = EventQueue::new();
        q.schedule(nanos(6), Event::NodeCrash { node: 0 });
        q.schedule(
            nanos(6),
            Event::ExecComplete {
                request: 1,
                instance,
            },
        );
        let (_, first) = q.pop().unwrap();
        assert!(
            matches!(first, Event::ExecComplete { .. }),
            "work finishing at t completes before the crash at t drops the node"
        );
    }

    #[test]
    fn primary_transfer_beats_its_own_hedge_fire() {
        let mut q = EventQueue::new();
        q.schedule(
            nanos(7),
            Event::HedgeFire {
                node: 2,
                function: FnId::from_index(0),
                gen: 0,
            },
        );
        q.schedule(
            nanos(7),
            Event::TransferComplete {
                node: 2,
                function: FnId::from_index(0),
                gen: 0,
            },
        );
        let (_, first) = q.pop().unwrap();
        assert!(
            matches!(first, Event::TransferComplete { .. }),
            "a transfer landing exactly at the hedge delay wins; the hedge lazy-misses"
        );
    }

    #[test]
    fn chaos_background_work_settles_before_the_next_arrival() {
        let mut q = EventQueue::new();
        q.schedule(nanos(4), Event::Arrival { request: 0 });
        q.schedule(nanos(4), Event::HeartbeatTick { round: 3 });
        q.schedule(nanos(4), Event::PartitionHeal { epoch: 1 });
        q.schedule(nanos(4), Event::NodeCrash { node: 1 });
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert!(matches!(order[0], Event::NodeCrash { node: 1 }));
        assert!(matches!(order[1], Event::PartitionHeal { epoch: 1 }));
        assert!(matches!(order[2], Event::HeartbeatTick { round: 3 }));
        assert!(
            matches!(order[3], Event::Arrival { request: 0 }),
            "the arrival routes against fully-settled fault state"
        );
    }

    #[test]
    fn node_repair_settles_before_the_next_arrival() {
        let mut q = EventQueue::new();
        q.schedule(nanos(3), Event::Arrival { request: 0 });
        q.schedule(nanos(3), Event::NodeRepair { node: 2 });
        let (_, first) = q.pop().unwrap();
        assert!(matches!(first, Event::NodeRepair { node: 2 }));
    }

    /// Edge values for a payload field: both ends of `u32`, 2^16 (where a
    /// `u32` packed into a key's top 16 bits starts losing bits), and, for
    /// the `u64` fields, past `u32`. `FnId` saturates at `u32::MAX`, so its
    /// indices past it are the same id.
    const EDGES: [u64; 6] = [0, 1, 1 << 16, (1 << 32) - 1, 1 << 32, u64::MAX];

    fn u32s() -> impl Iterator<Item = u32> {
        EDGES.into_iter().filter_map(|v| u32::try_from(v).ok())
    }

    fn functions() -> impl Iterator<Item = FnId> {
        EDGES
            .into_iter()
            .map(|v| FnId::from_index(usize::try_from(v).unwrap_or(usize::MAX)))
    }

    fn instances() -> impl Iterator<Item = InstanceId> {
        u32s().flat_map(|index| u32s().map(move |gen| InstanceId::from_parts(index, gen)))
    }

    /// Every event that differs from `event` in exactly one payload field,
    /// that field drawn from the edge values. The match has no `_` arm and
    /// no `..`: a new variant or field does not compile until it is here.
    fn twins(event: Event) -> Vec<Event> {
        let mut out: Vec<Event> = Vec::new();
        match event {
            Event::Arrival { request: _ } => {
                out.extend(EDGES.map(|request| Event::Arrival { request }));
            }
            Event::BootComplete { instance: _ } => {
                out.extend(instances().map(|instance| Event::BootComplete { instance }));
            }
            Event::ExecComplete { request, instance } => {
                out.extend(EDGES.map(|request| Event::ExecComplete { request, instance }));
                out.extend(instances().map(|instance| Event::ExecComplete { request, instance }));
            }
            Event::KeepAliveExpiry { instance: _ } => {
                out.extend(instances().map(|instance| Event::KeepAliveExpiry { instance }));
            }
            Event::PoolTick { function: _ } => {
                out.extend(functions().map(|function| Event::PoolTick { function }));
            }
            Event::TransferComplete {
                node,
                function,
                gen,
            } => {
                let transfer = |node, function, gen| Event::TransferComplete {
                    node,
                    function,
                    gen,
                };
                out.extend(u32s().map(|node| transfer(node, function, gen)));
                out.extend(functions().map(|function| transfer(node, function, gen)));
                out.extend(u32s().map(|gen| transfer(node, function, gen)));
            }
            Event::NodeRepair { node: _ } => {
                out.extend(u32s().map(|node| Event::NodeRepair { node }));
            }
            Event::NodeCrash { node: _ } => {
                out.extend(u32s().map(|node| Event::NodeCrash { node }));
            }
            Event::PartitionHeal { epoch: _ } => {
                out.extend(u32s().map(|epoch| Event::PartitionHeal { epoch }));
            }
            Event::HedgeFire {
                node,
                function,
                gen,
            } => {
                let hedge = |node, function, gen| Event::HedgeFire {
                    node,
                    function,
                    gen,
                };
                out.extend(u32s().map(|node| hedge(node, function, gen)));
                out.extend(functions().map(|function| hedge(node, function, gen)));
                out.extend(u32s().map(|gen| hedge(node, function, gen)));
            }
            Event::HeartbeatTick { round: _ } => {
                out.extend(u32s().map(|round| Event::HeartbeatTick { round }));
            }
        }
        out.retain(|twin| *twin != event);
        out
    }

    #[test]
    fn an_event_and_each_one_field_twin_rank_apart_and_pop_in_one_order() {
        let zero = InstanceId::from_parts(0, 0);
        let f0 = FnId::from_index(0);
        let seeds = [
            Event::Arrival { request: 0 },
            Event::BootComplete { instance: zero },
            Event::ExecComplete {
                request: 0,
                instance: zero,
            },
            Event::KeepAliveExpiry { instance: zero },
            Event::PoolTick { function: f0 },
            Event::TransferComplete {
                node: 0,
                function: f0,
                gen: 0,
            },
            Event::NodeRepair { node: 0 },
            Event::NodeCrash { node: 0 },
            Event::PartitionHeal { epoch: 0 },
            Event::HedgeFire {
                node: 0,
                function: f0,
                gen: 0,
            },
            Event::HeartbeatTick { round: 0 },
        ];
        // One seed per class, and arrivals are the last class: a variant
        // missing here leaves a class unseen.
        let mut classes: Vec<u8> = seeds.iter().map(Event::class).collect();
        classes.sort_unstable();
        let last = Event::Arrival { request: 0 }.class();
        assert_eq!(classes, (0..=last).collect::<Vec<u8>>());

        // Every combination of edge values, per variant: the closure of the
        // seeds under one-field edits.
        let mut events: Vec<Event> = seeds.to_vec();
        let mut next = 0;
        while let Some(&event) = events.get(next) {
            for twin in twins(event) {
                if !events.contains(&twin) {
                    events.push(twin);
                }
            }
            next += 1;
        }

        let at = nanos(7);
        let mut pairs = 0;
        for &event in &events {
            for twin in twins(event) {
                assert_ne!(
                    event.rank(at),
                    twin.rank(at),
                    "{event:?} and {twin:?} tie: they would pop in insertion order"
                );
                let drained = |first: Event, second: Event| {
                    let mut q = EventQueue::new();
                    q.schedule(at, first);
                    q.schedule(at, second);
                    std::iter::from_fn(|| q.pop()).collect::<Vec<_>>()
                };
                assert_eq!(
                    drained(event, twin),
                    drained(twin, event),
                    "{event:?} and {twin:?} pop in insertion order"
                );
                pairs += 1;
            }
        }
        // Every combination, per variant: 6 `u64`, 4 `u32`, 4 distinct
        // `FnId` and 16 `InstanceId` edge values.
        assert_eq!((events.len(), pairs), (282, 3_840));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let [instance, _] = two_instances();
        let events = [
            (nanos(10), Event::Arrival { request: 0 }),
            (
                nanos(10),
                Event::ExecComplete {
                    request: 9,
                    instance,
                },
            ),
            (
                nanos(10),
                Event::PoolTick {
                    function: crate::simulate::FnId::from_index(2),
                },
            ),
            (nanos(4), Event::Arrival { request: 1 }),
        ];
        let mut forward = EventQueue::new();
        let mut backward = EventQueue::new();
        for (at, e) in events {
            forward.schedule(at, e);
        }
        for (at, e) in events.iter().rev() {
            backward.schedule(*at, *e);
        }
        let a: Vec<_> = std::iter::from_fn(|| forward.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| backward.pop()).collect();
        assert_eq!(a, b);
        assert_eq!(forward.scheduled(), 4);
    }
}
