//! RSS/PSS accounting across a set of sandboxes (paper §6.5, Fig. 14).
//!
//! The paper compares the *resident set size* (RSS — all pages mapped into a
//! process) and *proportional set size* (PSS — private pages plus each shared
//! page divided by its sharing degree) of gVisor and Catalyzer as the number
//! of concurrent sandboxes for one function grows. Catalyzer's overlay memory
//! keeps most pages in the shared Base-EPT, so its PSS stays nearly flat.

use std::collections::BTreeMap;

use crate::{AddressSpace, PAGE_SIZE};

/// Memory usage of one address space within a group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryUsage {
    /// Resident set size, bytes.
    pub rss_bytes: u64,
    /// Proportional set size, bytes (shared pages split by sharing degree).
    pub pss_bytes: u64,
}

impl MemoryUsage {
    /// RSS in MiB.
    pub fn rss_mib(&self) -> f64 {
        self.rss_bytes as f64 / (1 << 20) as f64
    }

    /// PSS in MiB.
    pub fn pss_mib(&self) -> f64 {
        self.pss_bytes as f64 / (1 << 20) as f64
    }
}

/// Computes per-space RSS and PSS for a group of sandboxes, using true frame
/// identity: a frame mapped by `k` of the spaces contributes `PAGE_SIZE / k`
/// to each one's PSS.
///
/// The output is index-aligned with `spaces`.
///
/// # Example
///
/// ```
/// use memsim::{accounting, AddressSpace, Perms, ShareMode, VpnRange};
/// use simtime::{CostModel, SimClock};
///
/// let (clock, model) = (SimClock::new(), CostModel::experimental_machine());
/// let mut template = AddressSpace::new("t");
/// template.map_anonymous(VpnRange::new(0, 8), Perms::RW, ShareMode::Private, "heap")?;
/// template.touch_range(VpnRange::new(0, 8), true, &clock, &model)?;
/// let child = template.sfork_clone("c")?;
///
/// let usage = accounting::usage(&[&template, &child]);
/// assert_eq!(usage[0].rss_bytes, usage[1].rss_bytes);
/// // Every page is shared two ways, so PSS is half of RSS.
/// assert_eq!(usage[0].pss_bytes * 2, usage[0].rss_bytes);
/// # Ok::<(), memsim::MemError>(())
/// ```
pub fn usage(spaces: &[&AddressSpace]) -> Vec<MemoryUsage> {
    // Pass 1: sharing degree of every frame across the group.
    let mut degree: BTreeMap<usize, u64> = BTreeMap::new();
    for space in spaces {
        space.for_each_resident_frame(|id, _| {
            *degree.entry(id).or_insert(0) += 1;
        });
    }
    // Pass 2: per-space sums.
    spaces
        .iter()
        .map(|space| {
            let mut rss = 0u64;
            let mut pss_milli = 0u64; // PSS in 1/1024ths of a page to stay integral
            space.for_each_resident_frame(|id, _| {
                rss += PAGE_SIZE as u64;
                let k = degree[&id].max(1);
                pss_milli += (PAGE_SIZE as u64 * 1024) / k;
            });
            MemoryUsage {
                rss_bytes: rss,
                pss_bytes: pss_milli / 1024,
            }
        })
        .collect()
}

/// Average usage over a group (the y-value plotted in Fig. 14).
pub fn average(usages: &[MemoryUsage]) -> MemoryUsage {
    if usages.is_empty() {
        return MemoryUsage {
            rss_bytes: 0,
            pss_bytes: 0,
        };
    }
    let n = usages.len() as u64;
    MemoryUsage {
        rss_bytes: usages.iter().map(|u| u.rss_bytes).sum::<u64>() / n,
        pss_bytes: usages.iter().map(|u| u.pss_bytes).sum::<u64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EptLayer, MappedImage, Perms, ShareMode, SharedBytes, VpnRange};
    use simtime::{CostModel, SimClock};
    use std::sync::Arc;

    fn setup() -> (SimClock, CostModel) {
        (SimClock::new(), CostModel::experimental_machine())
    }

    #[test]
    fn private_space_has_pss_equal_rss() {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("solo");
        s.map_anonymous(VpnRange::new(0, 16), Perms::RW, ShareMode::Private, "m")
            .unwrap();
        s.touch_range(VpnRange::new(0, 16), true, &clock, &model)
            .unwrap();
        let u = usage(&[&s]);
        assert_eq!(u[0].rss_bytes, 16 * PAGE_SIZE as u64);
        assert_eq!(u[0].pss_bytes, u[0].rss_bytes);
    }

    #[test]
    fn base_sharing_divides_pss() {
        let (clock, model) = setup();
        let data = SharedBytes::from(vec![1u8; 8 * PAGE_SIZE]);
        let img = MappedImage::new("f", data);
        let base = EptLayer::lazy_from_image(&img, 0, &clock, &model);

        let mut spaces = Vec::new();
        for i in 0..4 {
            let mut s = AddressSpace::new(format!("s{i}"));
            s.attach_base(Arc::clone(&base), VpnRange::new(0, 8), "f", &clock, &model)
                .unwrap();
            s.touch_range(VpnRange::new(0, 8), false, &clock, &model)
                .unwrap();
            spaces.push(s);
        }
        let refs: Vec<&AddressSpace> = spaces.iter().collect();
        let u = usage(&refs);
        for m in &u {
            assert_eq!(m.rss_bytes, 8 * PAGE_SIZE as u64);
            // Shared 4 ways: PSS = RSS / 4.
            assert_eq!(m.pss_bytes, 2 * PAGE_SIZE as u64);
        }
    }

    #[test]
    fn cow_writes_grow_pss_only_for_writer() {
        let (clock, model) = setup();
        let mut t = AddressSpace::new("t");
        t.map_anonymous(VpnRange::new(0, 4), Perms::RW, ShareMode::Private, "m")
            .unwrap();
        t.touch_range(VpnRange::new(0, 4), true, &clock, &model)
            .unwrap();
        let mut c = t.sfork_clone("c").unwrap();
        c.write(0, 0, &[9], &clock, &model).unwrap(); // CoW one page

        let u = usage(&[&t, &c]);
        // Writer: 1 private page + 3 shared/2.
        assert_eq!(u[1].pss_bytes, PAGE_SIZE as u64 + 3 * PAGE_SIZE as u64 / 2);
        // Template keeps 1 page now-private (the pre-CoW original) + 3 shared/2.
        assert_eq!(u[0].pss_bytes, PAGE_SIZE as u64 + 3 * PAGE_SIZE as u64 / 2);
        assert_eq!(u[0].rss_bytes, 4 * PAGE_SIZE as u64);
    }

    #[test]
    fn average_is_elementwise_mean() {
        let a = MemoryUsage {
            rss_bytes: 100,
            pss_bytes: 60,
        };
        let b = MemoryUsage {
            rss_bytes: 300,
            pss_bytes: 80,
        };
        let avg = average(&[a, b]);
        assert_eq!(avg.rss_bytes, 200);
        assert_eq!(avg.pss_bytes, 70);
        assert_eq!(average(&[]).rss_bytes, 0);
    }

    #[test]
    fn mib_helpers() {
        let u = MemoryUsage {
            rss_bytes: 3 << 20,
            pss_bytes: 1 << 20,
        };
        assert_eq!(u.rss_mib(), 3.0);
        assert_eq!(u.pss_mib(), 1.0);
    }
}
