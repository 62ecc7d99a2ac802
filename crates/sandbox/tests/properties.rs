//! Property-based tests for the host model and configuration plumbing.

use proptest::prelude::*;
use sandbox::config::OciConfig;
use sandbox::host::{HostFdTable, HostTweaks, KvmDevice};
use simtime::{CostModel, SimClock, SimNanos};

proptest! {
    /// OCI configs of any size round-trip through JSON, and parse cost is
    /// monotone in bundle size.
    #[test]
    fn oci_round_trip_and_monotone_cost(pad_a in 0u32..64, pad_b in 0u32..64) {
        let model = CostModel::experimental_machine();
        let (small, large) = (pad_a.min(pad_b), pad_a.max(pad_b));

        let cfg = OciConfig::for_function("fn", large);
        let clock = SimClock::new();
        let parsed = OciConfig::parse(&cfg.to_json(), &clock, &model).unwrap();
        prop_assert_eq!(parsed, cfg);

        let c_small = SimClock::new();
        OciConfig::parse(&OciConfig::for_function("fn", small).to_json(), &c_small, &model).unwrap();
        let c_large = SimClock::new();
        OciConfig::parse(&OciConfig::for_function("fn", large).to_json(), &c_large, &model).unwrap();
        prop_assert!(c_large.now() >= c_small.now());
    }

    /// The fd table bursts exactly at capacity-doubling points, regardless
    /// of the call pattern; lazy dup never bursts on the critical path but
    /// records the same number of expansions.
    #[test]
    fn fdtable_burst_positions(calls in 1u32..600) {
        let model = CostModel::experimental_machine();
        let clock = SimClock::new();
        let mut eager = HostFdTable::new(HostTweaks::baseline(), &model);
        let mut lazy = HostFdTable::new(HostTweaks::catalyzer(), &model);
        let mut bursts_seen = 0u64;
        for _ in 0..calls {
            if eager.dup(&clock, &model) >= model.io.dup_burst {
                bursts_seen += 1;
            }
            prop_assert!(lazy.dup(&clock, &model) < SimNanos::from_millis(1));
        }
        prop_assert_eq!(bursts_seen, eager.bursts_taken());
        prop_assert_eq!(eager.bursts_taken(), lazy.bursts_deferred());
        // Expansions happen at 64, 128, 256, ... minus the 3 stdio fds.
        let expected = {
            let mut cap = model.io.fdtable_initial_capacity;
            let mut n = 0u64;
            let used = 3 + calls;
            while used > cap {
                cap *= 2;
                n += 1;
            }
            n
        };
        prop_assert_eq!(eager.bursts_taken(), expected);
    }

    /// kvcalloc latency is non-decreasing without the cache and constant
    /// with it, for any invocation count.
    #[test]
    fn kvcalloc_monotonicity(calls in 1usize..40) {
        let model = CostModel::experimental_machine();
        let clock = SimClock::new();
        let mut base = KvmDevice::create(HostTweaks::baseline(), &clock, &model);
        let mut cached = KvmDevice::create(HostTweaks::catalyzer(), &clock, &model);
        let mut last = SimNanos::ZERO;
        for _ in 0..calls {
            let l = base.kvcalloc(&clock, &model);
            prop_assert!(l >= last);
            last = l;
            prop_assert_eq!(cached.kvcalloc(&clock, &model), model.kvm.kvcalloc_cached);
        }
    }

    /// set_memory_region with PML is never cheaper than without, and the gap
    /// widens with every installed region.
    #[test]
    fn pml_gap_widens(regions in 1usize..30) {
        let model = CostModel::experimental_machine();
        let clock = SimClock::new();
        let mut pml = KvmDevice::create(HostTweaks::upstream(), &clock, &model);
        let mut nopml = KvmDevice::create(HostTweaks::baseline(), &clock, &model);
        let mut last_gap = SimNanos::ZERO;
        for i in 0..regions {
            let a = pml.set_memory_region(&clock, &model);
            let b = nopml.set_memory_region(&clock, &model);
            prop_assert!(a >= b);
            let gap = a.saturating_sub(b);
            if i > 0 {
                prop_assert!(gap >= last_gap);
            }
            last_gap = gap;
        }
    }
}
