//! Virtualization sandbox Zygotes (paper §3.4).
//!
//! Sandbox construction is hard to cache because it depends on
//! function-specific configuration and owns system resources. Catalyzer
//! splits a *base configuration* and *base rootfs* out of the bundle: a
//! **Zygote** is a generalized, function-independent sandbox (parsed base
//! config, allocated KVM resources, mounted base rootfs) that is
//! *specialized* at boot by importing the function's binaries and appending
//! its configuration delta.

use sandbox::config::OciConfig;
use sandbox::host::{HostTweaks, KvmDevice};
use sandbox::SandboxError;
use simtime::{CostModel, SimClock, SimNanos};

/// A pre-built, function-independent sandbox.
#[derive(Debug)]
pub struct Zygote {
    kvm: KvmDevice,
    base_mounts: u32,
}

impl Zygote {
    /// Constructs a Zygote from scratch: parse the base config, spawn the
    /// sandbox + gofer processes, allocate virtualization resources, and
    /// mount the base rootfs. Run offline when refilling the pool; runs on
    /// the boot clock only on a pool miss.
    pub fn construct(
        tweaks: HostTweaks,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Zygote, SandboxError> {
        let base = OciConfig::for_function("zygote-base", 1).to_json();
        OciConfig::parse(&base, clock, model)?;
        clock.charge(
            model
                .host
                .process_spawn
                .saturating_add(model.host.gofer_spawn),
        );
        let mut kvm = KvmDevice::create(tweaks, clock, model);
        kvm.create_vcpu(clock, model);
        kvm.kvcalloc(clock, model);
        kvm.kvcalloc(clock, model);
        kvm.set_memory_region(clock, model);
        clock.charge(model.host.mount_fs); // the base rootfs
        clock.charge(model.host.namespace_setup.saturating_mul(2));
        Ok(Zygote {
            kvm,
            base_mounts: 1,
        })
    }

    /// Specializes this Zygote for `function`: append the function-specific
    /// configuration and import its binaries/rootfs (§3.4). Cheap — the
    /// expensive construction already happened.
    pub fn specialize(
        mut self,
        function: &str,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<SpecializedSandbox, SandboxError> {
        // The function-specific config delta is small (no full re-parse).
        clock.charge(model.host.config_parse_base.scale(0.25));
        // Import function binaries: mount the app rootfs over the base.
        clock.charge(model.host.mount_fs);
        self.base_mounts += 1;
        // The app memory region is registered with KVM.
        self.kvm.set_memory_region(clock, model);
        Ok(SpecializedSandbox {
            function: function.to_string(),
            kvm: self.kvm,
        })
    }
}

/// A Zygote specialized to one function, ready for state restoration.
#[derive(Debug)]
pub struct SpecializedSandbox {
    /// The function this sandbox now belongs to.
    pub function: String,
    /// Its virtualization resources.
    pub kvm: KvmDevice,
}

/// A cache of ready Zygotes.
#[derive(Debug)]
pub struct ZygotePool {
    tweaks: HostTweaks,
    ready: Vec<Zygote>,
    offline: SimClock,
    misses: u64,
    hits: u64,
    suspect: bool,
}

impl ZygotePool {
    /// An empty pool.
    pub fn new(tweaks: HostTweaks) -> ZygotePool {
        ZygotePool {
            tweaks,
            ready: Vec::new(),
            offline: SimClock::new(),
            misses: 0,
            hits: 0,
            suspect: false,
        }
    }

    /// Refills the pool to `target` ready Zygotes, offline.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn refill(&mut self, target: usize, model: &CostModel) -> Result<(), SandboxError> {
        while self.ready.len() < target {
            let z = Zygote::construct(self.tweaks, &self.offline, model)?;
            self.ready.push(z);
        }
        Ok(())
    }

    /// Takes a Zygote: from the cache if available (hit: free), otherwise
    /// constructed on the caller's clock (miss: full construction cost).
    ///
    /// # Errors
    ///
    /// Propagates construction errors on a miss.
    pub fn take(&mut self, clock: &SimClock, model: &CostModel) -> Result<Zygote, SandboxError> {
        if let Some(z) = self.ready.pop() {
            self.hits += 1;
            return Ok(z);
        }
        self.misses += 1;
        Zygote::construct(self.tweaks, clock, model)
    }

    /// Discards every ready Zygote, returning how many were dropped. Used
    /// by quarantine when a poisoned specialization means the pooled bases
    /// can no longer be trusted; the next refill rebuilds them offline.
    pub fn drain(&mut self) -> usize {
        let dropped = self.ready.len();
        self.ready.clear();
        dropped
    }

    /// Flags the pooled bases as suspect after a poisoned specialization,
    /// *without* draining or rebuilding anything — the cheap half of
    /// deferred quarantine. A later [`ZygotePool::repair`] pays the rebuild
    /// off the request path.
    pub fn mark_suspect(&mut self) {
        self.suspect = true;
    }

    /// True when a poisoned specialization has implicated the pooled bases
    /// and [`ZygotePool::repair`] has not yet run.
    pub fn is_suspect(&self) -> bool {
        self.suspect
    }

    /// Repairs a suspect pool offline: evicts every (possibly corrupt)
    /// ready Zygote and reconstructs the same number — at least one — on
    /// the pool's offline clock. Returns `(evicted, virtual repair time)`;
    /// `(0, ZERO)` when the pool is not suspect.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the rebuild.
    pub fn repair(&mut self, model: &CostModel) -> Result<(usize, SimNanos), SandboxError> {
        if !self.suspect {
            return Ok((0, SimNanos::ZERO));
        }
        let target = self.ready.len().max(1);
        let evicted = self.drain();
        let before = self.offline.now();
        self.refill(target, model)?;
        self.suspect = false;
        Ok((evicted, self.offline.now().saturating_sub(before)))
    }

    /// Ready Zygotes available.
    pub fn available(&self) -> usize {
        self.ready.len()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Offline time spent refilling.
    pub fn offline_time(&self) -> SimNanos {
        self.offline.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::experimental_machine()
    }

    #[test]
    fn pool_hit_is_free_miss_is_not() {
        let model = model();
        let mut pool = ZygotePool::new(HostTweaks::catalyzer());
        pool.refill(2, &model).unwrap();
        assert!(pool.offline_time() > SimNanos::ZERO);

        let hit_clock = SimClock::new();
        pool.take(&hit_clock, &model).unwrap();
        assert_eq!(hit_clock.now(), SimNanos::ZERO, "hit must be free");

        pool.take(&SimClock::new(), &model).unwrap();
        let miss_clock = SimClock::new();
        pool.take(&miss_clock, &model).unwrap();
        assert!(
            miss_clock.now() > SimNanos::from_millis(2),
            "miss pays construction"
        );
        assert_eq!(pool.hits(), 2);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn repair_evicts_and_rebuilds_suspect_bases() {
        let model = model();
        let mut pool = ZygotePool::new(HostTweaks::catalyzer());
        pool.refill(3, &model).unwrap();
        // Not suspect: repair is free and touches nothing.
        assert_eq!(pool.repair(&model).unwrap(), (0, SimNanos::ZERO));
        assert_eq!(pool.available(), 3);

        pool.mark_suspect();
        assert!(pool.is_suspect());
        assert_eq!(pool.available(), 3, "marking is free — no drain yet");
        let (evicted, spent) = pool.repair(&model).unwrap();
        assert_eq!(evicted, 3);
        assert!(
            spent > SimNanos::from_millis(5),
            "3 rebuilds offline: {spent}"
        );
        assert!(!pool.is_suspect());
        assert_eq!(pool.available(), 3, "repair restores capacity");
    }

    #[test]
    fn specialization_is_cheap() {
        let model = model();
        let mut pool = ZygotePool::new(HostTweaks::catalyzer());
        pool.refill(1, &model).unwrap();
        let clock = SimClock::new();
        let z = pool.take(&clock, &model).unwrap();
        let sandbox = z.specialize("Java-hello", &clock, &model).unwrap();
        assert_eq!(sandbox.function, "Java-hello");
        // Zygote specialization ≈ 2–3 ms (the warm-boot sandbox cost).
        let ms = clock.now().as_millis_f64();
        assert!((1.0..4.0).contains(&ms), "specialize cost {ms} ms");
    }

    #[test]
    fn construction_is_several_ms() {
        let model = model();
        let clock = SimClock::new();
        Zygote::construct(HostTweaks::catalyzer(), &clock, &model).unwrap();
        let ms = clock.now().as_millis_f64();
        assert!((3.0..9.0).contains(&ms), "construct cost {ms} ms");
    }
}
