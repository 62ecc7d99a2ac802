use sandbox::host::HostTweaks;

/// Feature toggles for Catalyzer's techniques.
///
/// The full configuration is the shipped system; the partial constructors
/// reproduce the Fig. 12 ablation ladder (each step adds one technique over
/// the gVisor-restore baseline, which is `sandbox::GvisorRestoreEngine`).
/// Overlay memory (§3.1) is not a toggle: every step maps the func-image
/// into a shared Base-EPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalyzerConfig {
    /// Separated state recovery (§3.2): map partially-deserialized metadata
    /// and re-establish pointers in parallel, instead of one-by-one decode.
    pub separated_state: bool,
    /// On-demand I/O reconnection (§3.3): defer connections to first use,
    /// with the I/O cache eagerly replaying the deterministic prefix.
    pub lazy_io: bool,
    /// Virtualization sandbox Zygotes (§3.4) for warm boot.
    pub zygotes: bool,
    /// Re-randomize the address-space layout on `sfork` (§6.8).
    pub aslr_rerandomize: bool,
    /// Host-level tweaks (§6.7).
    pub tweaks: HostTweaks,
}

impl CatalyzerConfig {
    /// The full system as shipped.
    pub fn full() -> CatalyzerConfig {
        CatalyzerConfig {
            separated_state: true,
            lazy_io: true,
            zygotes: true,
            aslr_rerandomize: false,
            tweaks: HostTweaks::catalyzer(),
        }
    }

    /// Fig. 12 step 1: only overlay memory over the gVisor-restore baseline.
    pub fn overlay_only() -> CatalyzerConfig {
        CatalyzerConfig {
            separated_state: false,
            lazy_io: false,
            zygotes: false,
            aslr_rerandomize: false,
            tweaks: HostTweaks::baseline(),
        }
    }

    /// Fig. 12 step 2: overlay memory + separated state recovery.
    pub fn overlay_and_separated() -> CatalyzerConfig {
        CatalyzerConfig {
            separated_state: true,
            ..CatalyzerConfig::overlay_only()
        }
    }

    /// Fig. 12 step 3: + lazy I/O reconnection (the full cold-boot ladder).
    pub fn overlay_separated_lazy() -> CatalyzerConfig {
        CatalyzerConfig {
            lazy_io: true,
            ..CatalyzerConfig::overlay_and_separated()
        }
    }
}

impl Default for CatalyzerConfig {
    fn default() -> Self {
        CatalyzerConfig::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_ladder_is_monotone() {
        let steps = [
            CatalyzerConfig::overlay_only(),
            CatalyzerConfig::overlay_and_separated(),
            CatalyzerConfig::overlay_separated_lazy(),
            CatalyzerConfig::full(),
        ];
        let on = |c: &CatalyzerConfig| {
            [c.separated_state, c.lazy_io, c.zygotes]
                .iter()
                .filter(|&&b| b)
                .count()
        };
        for pair in steps.windows(2) {
            assert!(on(&pair[0]) < on(&pair[1]));
        }
        assert!(!steps[0].separated_state);
    }

    #[test]
    fn default_is_full() {
        assert_eq!(CatalyzerConfig::default(), CatalyzerConfig::full());
        assert!(CatalyzerConfig::full().tweaks.kvm_alloc_cache);
    }
}
