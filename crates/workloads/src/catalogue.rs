//! The 14-function set behind Figure 1's CDF: five DeathStar microservices,
//! five Pillow image functions, and four e-commerce services.

use runtimes::AppProfile;

use crate::deathstar::Service;
use crate::ecommerce::EcommerceOp;
use crate::pillow::ImageOp;

/// All 14 evaluated serverless functions (§6.4), DeathStar first.
pub fn fig1_functions() -> Vec<AppProfile> {
    let mut out: Vec<AppProfile> = Service::ALL.iter().map(|s| s.profile()).collect();
    out.extend(ImageOp::ALL.iter().map(|o| o.profile()));
    out.extend(EcommerceOp::ALL.iter().map(|o| o.profile()));
    out
}

/// A synthetic fleet catalogue of `count` functions for density experiments
/// past the 14 measured apps: each entry clones one of the Figure 1
/// profiles (cycling through all 14) and applies a deterministic per-index
/// scale — execution time, heap footprint, and load units move together to
/// one of nine levels between 60% and 140% of the base — under a unique
/// name. Same `(count, seed)`, same catalogue.
///
/// The scale is deliberately *quantized*: the catalogue spans 14 × 9
/// distinct cost shapes, so fleet-scale consumers (which calibrate boot
/// and execution cost per distinct shape) pay ~126 calibrations for a
/// 10 000-function catalogue instead of 10 000.
pub fn synthetic(count: usize, seed: u64) -> Vec<AppProfile> {
    let bases = fig1_functions();
    (0..count)
        .map(|i| {
            let mut p = bases[i % bases.len()].clone();
            // SplitMix64-style index hash: cheap, stateless, deterministic.
            let mut h = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            let pct = 60 + (h % 9) * 10; // 60, 70, ... 140
            p.exec_time =
                simtime::SimNanos::from_nanos(p.exec_time.as_nanos().saturating_mul(pct) / 100);
            p.init_heap_pages = p.init_heap_pages.saturating_mul(pct) / 100;
            p.load_units =
                u32::try_from((u64::from(p.load_units).saturating_mul(pct) / 100).max(1))
                    .unwrap_or(u32::MAX);
            p.name = format!("{}-{i:05}", p.name);
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn fourteen_distinct_functions() {
        let fns = fig1_functions();
        assert_eq!(fns.len(), 14);
        let names: BTreeSet<&str> = fns.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names.len(), 14, "names must be unique");
    }

    #[test]
    fn synthetic_scales_with_unique_names_deterministically() {
        let a = synthetic(10_000, 7);
        let b = synthetic(10_000, 7);
        assert_eq!(a.len(), 10_000);
        assert_eq!(a, b);
        let names: BTreeSet<&str> = a.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names.len(), 10_000, "names must be unique");
        // Variation spreads costs across many distinct shapes, but the
        // quantized scale keeps the shape count bounded (14 bases x 9
        // levels) so fleet calibration stays cheap.
        let base = fig1_functions();
        assert!(a[0].name.starts_with(&base[0].name));
        let execs: BTreeSet<simtime::SimNanos> = a.iter().map(|p| p.exec_time).collect();
        assert!(execs.len() > 50, "only {} exec shapes", execs.len());
        assert!(execs.len() <= 14 * 9, "{} exec shapes", execs.len());
        assert!(a.iter().all(|p| p.load_units >= 1));
    }

    #[test]
    fn spans_execution_range() {
        let fns = fig1_functions();
        let min = fns.iter().map(|p| p.exec_time).min().unwrap();
        let max = fns.iter().map(|p| p.exec_time).max().unwrap();
        // From sub-ms microservices to >1 s purchase.
        assert!(min < simtime::SimNanos::from_millis(1));
        assert!(max > simtime::SimNanos::from_secs(1));
    }
}
