//! The host side: KVM device model and host fd tables.
//!
//! These reproduce the §6.7 host phenomena mechanically:
//!
//! - **Fig. 16b** — `kvcalloc` latency grows with each invocation as KVM's
//!   management allocations accumulate; Catalyzer adds a dedicated cache
//!   that flattens it to <50 µs.
//! - **Fig. 16c** — `KVM_SET_USER_MEMORY_REGION` slows down per installed
//!   region when Page Modification Logging is enabled (the upstream
//!   default); disabling PML is ~10× faster.
//! - **Fig. 16d** — `dup`/`dup2` is ~1 µs until the host fd table must be
//!   doubled, which costs tens of milliseconds; the Gofer's *lazy dup*
//!   moves that burst off the critical path.

use simtime::{CostModel, SimClock, SimNanos};

/// Host-level tweaks a sandbox system may apply (paper §6.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostTweaks {
    /// Disable Page Modification Logging (both baselines and Catalyzer do
    /// this in the paper's evaluation; re-enable to reproduce Fig. 16c's
    /// "Default" series).
    pub disable_pml: bool,
    /// Use Catalyzer's dedicated KVM allocation cache (Fig. 16b).
    pub kvm_alloc_cache: bool,
    /// Use the Gofer's lazy `dup` (burst deferred off the critical path).
    pub lazy_dup: bool,
}

impl HostTweaks {
    /// Upstream defaults: PML on, no cache, no lazy dup.
    pub fn upstream() -> HostTweaks {
        HostTweaks {
            disable_pml: false,
            kvm_alloc_cache: false,
            lazy_dup: false,
        }
    }

    /// Catalyzer's tuned host (§6.7).
    pub fn catalyzer() -> HostTweaks {
        HostTweaks {
            disable_pml: true,
            kvm_alloc_cache: true,
            lazy_dup: true,
        }
    }

    /// The paper's baseline configuration: PML disabled "for both the
    /// baseline and our systems", but no Catalyzer-only optimizations.
    pub fn baseline() -> HostTweaks {
        HostTweaks {
            disable_pml: true,
            kvm_alloc_cache: false,
            lazy_dup: false,
        }
    }
}

impl Default for HostTweaks {
    fn default() -> Self {
        HostTweaks::baseline()
    }
}

/// One KVM virtual-machine device.
#[derive(Debug)]
pub struct KvmDevice {
    tweaks: HostTweaks,
    kvcalloc_count: u64,
    regions: u64,
    vcpus: u32,
}

impl KvmDevice {
    /// Creates the VM (charges `KVM_CREATE_VM`).
    pub fn create(tweaks: HostTweaks, clock: &SimClock, model: &CostModel) -> KvmDevice {
        clock.charge(model.kvm.create_vm);
        KvmDevice {
            tweaks,
            kvcalloc_count: 0,
            regions: 0,
            vcpus: 0,
        }
    }

    /// Adds a VCPU (charges `KVM_CREATE_VCPU`).
    pub fn create_vcpu(&mut self, clock: &SimClock, model: &CostModel) {
        clock.charge(model.kvm.create_vcpu);
        self.vcpus += 1;
    }

    /// Number of VCPUs created.
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// One `kvcalloc` management allocation; returns its latency (Fig. 16b).
    pub fn kvcalloc(&mut self, clock: &SimClock, model: &CostModel) -> SimNanos {
        let latency = if self.tweaks.kvm_alloc_cache {
            model.kvm.kvcalloc_cached
        } else {
            model.kvm.kvcalloc_base.saturating_add(
                model
                    .kvm
                    .kvcalloc_growth
                    .saturating_mul(self.kvcalloc_count),
            )
        };
        self.kvcalloc_count += 1;
        clock.charge(latency);
        latency
    }

    /// One `KVM_SET_USER_MEMORY_REGION` ioctl; returns its latency
    /// (Fig. 16c: grows with the number of already-installed regions, much
    /// faster without PML).
    pub fn set_memory_region(&mut self, clock: &SimClock, model: &CostModel) -> SimNanos {
        let per_region = if self.tweaks.disable_pml {
            model.kvm.set_memory_region_nopml_extra
        } else {
            model.kvm.set_memory_region_pml_extra
        };
        let latency = model
            .kvm
            .set_memory_region_base
            .saturating_add(per_region.saturating_mul(self.regions));
        self.regions += 1;
        clock.charge(latency);
        latency
    }

    /// Installed memory regions.
    pub fn regions(&self) -> u64 {
        self.regions
    }
}

/// A host process's file-descriptor table (the Gofer's, for Fig. 16d).
#[derive(Debug)]
pub struct HostFdTable {
    used: u32,
    capacity: u32,
    tweaks: HostTweaks,
    bursts_taken: u64,
    bursts_deferred: u64,
}

impl HostFdTable {
    /// A fresh table at the model's initial capacity.
    pub fn new(tweaks: HostTweaks, model: &CostModel) -> HostFdTable {
        HostFdTable {
            used: 3, // stdio
            capacity: model.io.fdtable_initial_capacity,
            tweaks,
            bursts_taken: 0,
            bursts_deferred: 0,
        }
    }

    /// One `dup`; returns its latency. Without lazy dup, crossing the table
    /// capacity pays the expansion burst inline; with it, the Gofer hands
    /// out a pre-duplicated descriptor and re-duplicates in the background.
    pub fn dup(&mut self, clock: &SimClock, model: &CostModel) -> SimNanos {
        self.used += 1;
        let expanding = self.used > self.capacity;
        if expanding {
            self.capacity = self.capacity.saturating_mul(2);
        }
        let latency = if expanding && !self.tweaks.lazy_dup {
            self.bursts_taken += 1;
            model.io.dup_burst
        } else {
            if expanding {
                self.bursts_deferred += 1;
            }
            model.io.dup_fast
        };
        clock.charge(latency);
        latency
    }

    /// Descriptors in use.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Bursts paid on the critical path.
    pub fn bursts_taken(&self) -> u64 {
        self.bursts_taken
    }

    /// Bursts deferred by lazy dup.
    pub fn bursts_deferred(&self) -> u64 {
        self.bursts_deferred
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimClock, CostModel) {
        (SimClock::new(), CostModel::experimental_machine())
    }

    #[test]
    fn kvcalloc_grows_without_cache() {
        let (clock, model) = setup();
        let mut kvm = KvmDevice::create(HostTweaks::baseline(), &clock, &model);
        let first = kvm.kvcalloc(&clock, &model);
        let sixth = {
            for _ in 0..4 {
                kvm.kvcalloc(&clock, &model);
            }
            kvm.kvcalloc(&clock, &model)
        };
        assert!(
            sixth > first.saturating_mul(3),
            "no growth: {first} → {sixth}"
        );
        // Paper: ~1.6 ms total over the boot's kvcalloc invocations.
        let total: SimNanos = (0..6)
            .map(|i| {
                model
                    .kvm
                    .kvcalloc_base
                    .saturating_add(model.kvm.kvcalloc_growth.saturating_mul(i))
            })
            .sum();
        assert!((1.0..2.2).contains(&total.as_millis_f64()), "{total}");
    }

    #[test]
    fn kvcalloc_cache_flattens_below_50us() {
        let (clock, model) = setup();
        let mut kvm = KvmDevice::create(HostTweaks::catalyzer(), &clock, &model);
        for _ in 0..6 {
            let l = kvm.kvcalloc(&clock, &model);
            assert!(l < SimNanos::from_micros(50), "{l}");
        }
    }

    #[test]
    fn pml_penalty_grows_per_region_and_is_10x() {
        let (clock, model) = setup();
        let mut with_pml = KvmDevice::create(HostTweaks::upstream(), &clock, &model);
        let mut without = KvmDevice::create(HostTweaks::baseline(), &clock, &model);
        let mut pml_last = SimNanos::ZERO;
        let mut nopml_last = SimNanos::ZERO;
        for _ in 0..11 {
            pml_last = with_pml.set_memory_region(&clock, &model);
            nopml_last = without.set_memory_region(&clock, &model);
        }
        let ratio = pml_last.as_nanos() as f64 / nopml_last.as_nanos() as f64;
        assert!((8.0..13.0).contains(&ratio), "ratio {ratio}");
        assert!(pml_last > SimNanos::from_millis(5), "paper: 5–8 ms saved");
    }

    #[test]
    fn dup_bursts_on_expansion_only() {
        let (clock, model) = setup();
        let mut table = HostFdTable::new(HostTweaks::baseline(), &model);
        let mut bursts = 0;
        for _ in 0..200 {
            if table.dup(&clock, &model) > SimNanos::from_millis(1) {
                bursts += 1;
            }
        }
        // 64 → 128 → 256: two expansions in 200 dups.
        assert_eq!(bursts, 2);
        assert_eq!(table.bursts_taken(), 2);
        assert_eq!(table.bursts_deferred(), 0);
    }

    #[test]
    fn lazy_dup_defers_bursts() {
        let (clock, model) = setup();
        let mut table = HostFdTable::new(HostTweaks::catalyzer(), &model);
        for _ in 0..200 {
            let l = table.dup(&clock, &model);
            assert!(
                l < SimNanos::from_millis(1),
                "burst leaked to critical path"
            );
        }
        assert_eq!(table.bursts_taken(), 0);
        assert_eq!(table.bursts_deferred(), 2);
    }

    #[test]
    fn vcpu_and_region_counters() {
        let (clock, model) = setup();
        let mut kvm = KvmDevice::create(HostTweaks::baseline(), &clock, &model);
        kvm.create_vcpu(&clock, &model);
        kvm.create_vcpu(&clock, &model);
        kvm.set_memory_region(&clock, &model);
        assert_eq!(kvm.vcpus(), 2);
        assert_eq!(kvm.regions(), 1);
    }
}
