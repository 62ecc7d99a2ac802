//! Property-based tests for the memory substrate invariants that Catalyzer's
//! overlay memory (paper §3.1) depends on.

// Tests may unwrap and narrow freely; the crate's lint ban is about
// library code that handles untrusted images.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::unreachable,
    clippy::cast_possible_truncation
)]

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use memsim::{
    accounting, AddressSpace, EptEntry, EptLayer, FrameRef, MappedImage, Perms, ShareMode,
    SharedBytes, SpaceStats, Vpn, VpnRange, PAGE_SIZE,
};
use proptest::prelude::*;
use simtime::{CostModel, SimClock, SimNanos};

fn setup() -> (SimClock, CostModel) {
    (SimClock::new(), CostModel::experimental_machine())
}

fn image_with_pattern(pages: u8) -> Arc<MappedImage> {
    let mut data = vec![0u8; pages as usize * PAGE_SIZE];
    for (i, chunk) in data.chunks_mut(PAGE_SIZE).enumerate() {
        chunk.fill((i as u8).wrapping_add(1));
    }
    MappedImage::new("prop.img", SharedBytes::from(data))
}

proptest! {
    /// Writes through one sandbox are never visible through another sharing
    /// the same Base-EPT (CoW isolation).
    #[test]
    fn cow_isolation_between_sandboxes(
        pages in 1u8..16,
        writes in proptest::collection::vec((0u64..16, 0usize..PAGE_SIZE, any::<u8>()), 0..32),
    ) {
        let (clock, model) = setup();
        let img = image_with_pattern(pages);
        let base = EptLayer::lazy_from_image(&img, 0, &clock, &model);
        let range = VpnRange::new(0, pages as u64);

        let mut writer = AddressSpace::new("writer");
        let mut observer = AddressSpace::new("observer");
        writer.attach_base(Arc::clone(&base), range, "f", &clock, &model).unwrap();
        observer.attach_base(base, range, "f", &clock, &model).unwrap();

        for (vpn, off, val) in writes {
            let vpn = vpn % pages as u64;
            writer.write(vpn, off, &[val], &clock, &model).unwrap();
        }

        // Observer still sees the pristine image pattern everywhere.
        for vpn in range.iter() {
            let mut b = [0u8; 1];
            observer.read(vpn, 7, &mut b, &clock, &model).unwrap();
            prop_assert_eq!(b[0], (vpn as u8).wrapping_add(1));
        }
    }

    /// Read-your-writes within a sandbox, regardless of write order, layer,
    /// or fault path taken.
    #[test]
    fn read_your_writes(
        writes in proptest::collection::vec((0u64..8, 0usize..PAGE_SIZE, any::<u8>()), 1..64),
    ) {
        let (clock, model) = setup();
        let mut s = AddressSpace::new("s");
        s.map_anonymous(VpnRange::new(0, 8), Perms::RW, ShareMode::Private, "m").unwrap();

        let mut shadow = vec![vec![0u8; PAGE_SIZE]; 8];
        for (vpn, off, val) in &writes {
            s.write(*vpn, *off, &[*val], &clock, &model).unwrap();
            shadow[*vpn as usize][*off] = *val;
        }
        for vpn in 0..8u64 {
            let mut page = vec![0u8; PAGE_SIZE];
            s.read(vpn, 0, &mut page, &clock, &model).unwrap();
            prop_assert_eq!(&page, &shadow[vpn as usize]);
        }
    }

    /// sfork children inherit the template state exactly, and divergent
    /// writes stay divergent (no aliasing between siblings).
    #[test]
    fn sfork_siblings_diverge_independently(
        template_writes in proptest::collection::vec((0u64..4, 0usize..64, any::<u8>()), 0..16),
        child_writes in proptest::collection::vec((0u64..4, 0usize..64, any::<u8>()), 1..16),
    ) {
        let (clock, model) = setup();
        let mut t = AddressSpace::new("t");
        t.map_anonymous(VpnRange::new(0, 4), Perms::RW, ShareMode::Private, "m").unwrap();
        for (vpn, off, val) in &template_writes {
            t.write(*vpn, *off, &[*val], &clock, &model).unwrap();
        }

        let mut c1 = t.sfork_clone("c1").unwrap();
        let mut c2 = t.sfork_clone("c2").unwrap();
        for (vpn, off, val) in &child_writes {
            c1.write(*vpn, *off, &[val.wrapping_add(1)], &clock, &model).unwrap();
        }

        // c2 must equal the template byte-for-byte on the touched window.
        for vpn in 0..4u64 {
            let mut a = vec![0u8; 64];
            let mut b = vec![0u8; 64];
            t.read(vpn, 0, &mut a, &clock, &model).unwrap();
            c2.read(vpn, 0, &mut b, &clock, &model).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// PSS never exceeds RSS, and total PSS across a sharing group equals
    /// the number of distinct resident frames times the page size.
    #[test]
    fn pss_conservation(n_spaces in 1usize..6, pages in 1u8..12) {
        let (clock, model) = setup();
        let img = image_with_pattern(pages);
        let base = EptLayer::lazy_from_image(&img, 0, &clock, &model);
        let range = VpnRange::new(0, pages as u64);

        let mut spaces = Vec::new();
        for i in 0..n_spaces {
            let mut s = AddressSpace::new(format!("s{i}"));
            s.attach_base(Arc::clone(&base), range, "f", &clock, &model).unwrap();
            s.touch_range(range, false, &clock, &model).unwrap();
            // The first space also dirties one page (private copy).
            if i == 0 {
                s.write(0, 0, &[0xFF], &clock, &model).unwrap();
            }
            spaces.push(s);
        }
        let refs: Vec<&AddressSpace> = spaces.iter().collect();
        let usages = accounting::usage(&refs);

        let mut total_pss = 0u64;
        for u in &usages {
            prop_assert!(u.pss_bytes <= u.rss_bytes);
            total_pss += u.pss_bytes;
        }
        // Distinct frames: `pages` shared base frames + 1 private CoW copy.
        let distinct = pages as u64 + 1;
        let expected = distinct * PAGE_SIZE as u64;
        // Integer division in per-space PSS may lose at most one page total.
        prop_assert!(total_pss <= expected && total_pss + PAGE_SIZE as u64 > expected,
            "total_pss={} expected≈{}", total_pss, expected);
    }

    /// Demand paging charges each image page's disk read at most once across
    /// any interleaving of sandboxes (page-cache property).
    #[test]
    fn disk_read_charged_once_per_page(
        accesses in proptest::collection::vec((0usize..3, 0u64..8), 1..64),
    ) {
        let model = CostModel::experimental_machine();
        let build_clock = SimClock::new();
        let img = image_with_pattern(8);
        let base = EptLayer::lazy_from_image(&img, 0, &build_clock, &model);
        let range = VpnRange::new(0, 8);

        let clock = SimClock::new();
        let mut spaces: Vec<AddressSpace> = (0..3)
            .map(|i| {
                let mut s = AddressSpace::new(format!("s{i}"));
                s.attach_base(Arc::clone(&base), range, "f", &clock, &model).unwrap();
                s
            })
            .collect();

        let mut buf = [0u8; 1];
        for (who, vpn) in accesses {
            spaces[who].read(vpn, 0, &mut buf, &clock, &model).unwrap();
        }
        let loads: u64 = spaces.iter().map(|s| s.stats().image_pages_loaded).sum();
        // Fault-around may make more pages resident than were demand-loaded,
        // but every charged load corresponds to a newly-resident cluster and
        // no page is ever charged twice.
        prop_assert!(loads <= img.resident_pages());
        prop_assert!(img.resident_pages() <= 8);
    }
}

proptest! {
    /// Every way a page enters the private layer — a write over the base
    /// (cold or merged), a write or read of anonymous memory, a bulk
    /// install, a fork — leaves it holding resident frames only: lazy image
    /// entries stay in the Base-EPT. The fault paths and
    /// `snapshot_private_pages` `debug_assert!` exactly that, so this run
    /// would panic on a private lazy entry; what is visible from outside is
    /// checked against a shadow.
    #[test]
    fn private_layer_holds_only_resident_pages(
        ops in proptest::collection::vec((0u8..5, 0u64..16, any::<u8>()), 1..64),
    ) {
        let (clock, model) = setup();
        let img = image_with_pattern(8);
        let base = EptLayer::lazy_from_image(&img, 0, &clock, &model);
        let mut space = AddressSpace::new("overlay");
        space.attach_base(base, VpnRange::new(0, 8), "f", &clock, &model).unwrap();
        space.map_anonymous(VpnRange::new(8, 16), Perms::RW, ShareMode::Private, "heap").unwrap();

        // First byte of each page, and which pages the private layer holds.
        let mut first: Vec<u8> = (1..=8).chain([0; 8]).collect();
        let mut private = [false; 16];
        for (kind, vpn, val) in ops {
            let at = vpn as usize;
            match kind {
                0 | 1 => {
                    space.write(vpn, 0, &[val], &clock, &model).unwrap();
                    (first[at], private[at]) = (val, true);
                }
                2 => {
                    let mut got = [0u8; 1];
                    space.read(vpn, 0, &mut got, &clock, &model).unwrap();
                    prop_assert_eq!(got[0], first[at]);
                    // A base page is read through; an anonymous one zero-fills.
                    private[at] |= vpn >= 8;
                }
                3 => {
                    space.install_page(vpn, &[val]).unwrap();
                    (first[at], private[at]) = (val, true);
                }
                _ => space = space.sfork_clone("child").unwrap(),
            }
            let held = private.iter().filter(|p| **p).count();
            let snapshot = space.snapshot_private_pages();
            prop_assert_eq!(snapshot.len(), held);
            prop_assert_eq!(space.private_pages(), held as u64);
            for (vpn, frame) in &snapshot {
                prop_assert!(private[*vpn as usize]);
                prop_assert!(!frame.is_image_backed(), "a private page is an owned copy");
                prop_assert_eq!(frame[0], first[*vpn as usize]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The two-level EPT table against a flat-map oracle
// ---------------------------------------------------------------------------

/// Page numbers that straddle leaf-table boundaries (512 pages each), sit
/// far apart, and reach the top of the address range.
const TABLE_VPNS: [Vpn; 18] = [
    0,
    1,
    2,
    510,
    511,
    512,
    513,
    1022,
    1023,
    1024,
    1025,
    1 << 40,
    (1 << 40) + 1,
    (1 << 40) + 511,
    (1 << 40) + 512,
    u64::MAX - 512,
    u64::MAX - 1,
    u64::MAX,
];

#[derive(Debug, Clone)]
enum TableOp {
    InsertPresent(Vpn),
    InsertLazyZero(Vpn),
    InsertLazyImage(Vpn, u64),
    Remove(Vpn),
    RemoveRange(Vpn, Vpn),
    Materialize(Vpn),
    CloneEntries,
}

/// A weighted pick of one operation (the vendored proptest has no
/// `prop_oneof!`: draw raw numbers, decode here).
fn table_op() -> impl Strategy<Value = TableOp> {
    let vpn = 0..TABLE_VPNS.len();
    (0u8..13, vpn.clone(), vpn, 0u64..4).prop_map(|(kind, a, b, page)| {
        let (a, b) = (TABLE_VPNS[a], TABLE_VPNS[b]);
        match kind {
            0..=2 => TableOp::InsertPresent(a),
            3 => TableOp::InsertLazyZero(a),
            4 | 5 => TableOp::InsertLazyImage(a, page),
            6 | 7 => TableOp::Remove(a),
            8 | 9 => TableOp::RemoveRange(a, b),
            10 | 11 => TableOp::Materialize(a),
            _ => TableOp::CloneEntries,
        }
    })
}

/// Entries are handles: equal when they name the same frame / image page.
fn same_entry(a: &EptEntry, b: &EptEntry) -> bool {
    match (a, b) {
        (EptEntry::Present { frame: x }, EptEntry::Present { frame: y }) => FrameRef::ptr_eq(x, y),
        (EptEntry::LazyZero, EptEntry::LazyZero) => true,
        (EptEntry::LazyImage { image: x, page: p }, EptEntry::LazyImage { image: y, page: q }) => {
            Arc::ptr_eq(x, y) && p == q
        }
        _ => false,
    }
}

/// The oracle: the flat ordered map the table replaced.
type FlatMap = BTreeMap<Vpn, EptEntry>;

fn assert_layer_matches(layer: &EptLayer, oracle: &FlatMap) -> Result<(), TestCaseError> {
    prop_assert_eq!(layer.len(), oracle.len());
    prop_assert_eq!(layer.is_empty(), oracle.is_empty());
    let present = oracle.values().filter(|e| e.is_present()).count() as u64;
    prop_assert_eq!(layer.present_pages(), present);

    let mut walked: Vec<(Vpn, EptEntry)> = Vec::new();
    layer.for_each(|vpn, entry| walked.push((vpn, entry.clone())));
    prop_assert_eq!(walked.len(), oracle.len());
    for ((vpn, entry), (want_vpn, want)) in walked.iter().zip(oracle) {
        prop_assert_eq!(vpn, want_vpn, "for_each must visit in ascending vpn order");
        prop_assert!(
            same_entry(entry, want),
            "for_each at {}: {:?} vs {:?}",
            vpn,
            entry,
            want
        );
    }
    for (vpn, want) in oracle {
        let got = layer.get(*vpn);
        prop_assert!(
            got.as_ref().is_some_and(|got| same_entry(got, want)),
            "get({}): {:?} vs {:?}",
            vpn,
            got,
            want
        );
        // The neighbours of a mapped page are only mapped if the oracle says so.
        for near in [vpn.wrapping_sub(1), vpn.wrapping_add(1), vpn ^ 512] {
            prop_assert_eq!(layer.get(near).is_some(), oracle.contains_key(&near));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any sequence of layer operations leaves the table — the original and
    /// every `clone_entries` copy taken along the way — observably equal to
    /// a plain `BTreeMap<Vpn, EptEntry>` that deep-copies on clone.
    #[test]
    fn ept_table_matches_a_flat_map(
        ops in proptest::collection::vec((table_op(), 0usize..4), 1..80),
    ) {
        let (clock, model) = setup();
        let image = image_with_pattern(4);
        let mut layers: Vec<(EptLayer, FlatMap)> = vec![(EptLayer::new(), FlatMap::new())];

        for (op, who) in ops {
            let who = who % layers.len();
            if matches!(op, TableOp::CloneEntries) {
                if layers.len() < 4 {
                    let copy = (layers[who].0.clone_entries(), layers[who].1.clone());
                    layers.push(copy);
                }
            } else {
                let (layer, oracle) = &mut layers[who];
                match op {
                    TableOp::InsertPresent(vpn) => {
                        let entry = EptEntry::Present { frame: FrameRef::zeroed() };
                        layer.insert(vpn, entry.clone());
                        oracle.insert(vpn, entry);
                    }
                    TableOp::InsertLazyZero(vpn) => {
                        layer.insert(vpn, EptEntry::LazyZero);
                        oracle.insert(vpn, EptEntry::LazyZero);
                    }
                    TableOp::InsertLazyImage(vpn, page) => {
                        let entry = EptEntry::LazyImage { image: Arc::clone(&image), page };
                        layer.insert(vpn, entry.clone());
                        oracle.insert(vpn, entry);
                    }
                    TableOp::Remove(vpn) => {
                        let (got, want) = (layer.remove(vpn), oracle.remove(&vpn));
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            prop_assert!(same_entry(&got, &want));
                        }
                    }
                    TableOp::RemoveRange(start, end) => {
                        layer.remove_range(start, end);
                        oracle.retain(|vpn, _| !(start..end).contains(vpn));
                    }
                    TableOp::Materialize(vpn) => {
                        let got = layer.materialize(vpn, &clock, &model).unwrap();
                        match oracle.get(&vpn).cloned() {
                            Some(EptEntry::Present { frame }) => {
                                prop_assert!(got.is_some_and(|got| FrameRef::ptr_eq(&got, &frame)));
                            }
                            Some(EptEntry::LazyImage { page, .. }) => {
                                let frame = got.expect("a lazy image page materializes");
                                prop_assert_eq!(frame.bytes()[0], page as u8 + 1);
                                oracle.insert(vpn, EptEntry::Present { frame });
                            }
                            Some(EptEntry::LazyZero) | None => prop_assert!(got.is_none()),
                        }
                    }
                    TableOp::CloneEntries => unreachable!("handled above"),
                }
            }
            for (layer, oracle) in &layers {
                assert_layer_matches(layer, oracle)?;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// An sfork family against an oracle that tracks sharing page by page
// ---------------------------------------------------------------------------

/// What the family oracle knows of one page: its bytes and which frame
/// holds them. Frames are shared page by page — the sharing degree of a
/// frame is the number of oracle spaces whose page names it, exactly what
/// `Arc::strong_count` said before leaf tables were shared.
#[derive(Debug, Clone)]
struct OraclePage {
    frame: u64,
    bytes: Vec<u8>,
}

/// One space of the oracle: a deep copy of its parent, taken at fork.
#[derive(Debug, Clone, Default)]
struct OracleSpace {
    pages: BTreeMap<Vpn, OraclePage>,
    stats: SpaceStats,
    clock: SimNanos,
}

#[derive(Debug, Default)]
struct FamilyOracle {
    next_frame: u64,
    sharers: BTreeMap<u64, u64>,
}

impl FamilyOracle {
    fn fresh_page(&mut self) -> OraclePage {
        self.next_frame += 1;
        self.sharers.insert(self.next_frame, 1);
        OraclePage {
            frame: self.next_frame,
            bytes: vec![0u8; PAGE_SIZE],
        }
    }

    fn release(&mut self, frame: u64) {
        *self.sharers.get_mut(&frame).unwrap() -= 1;
    }

    fn minor_fault(space: &mut OracleSpace, model: &CostModel) {
        space.stats.minor_faults += 1;
        space.clock = space.clock.saturating_add(model.mem.page_fault);
    }

    fn read(&mut self, space: &mut OracleSpace, vpn: Vpn, model: &CostModel) -> Vec<u8> {
        if let Entry::Vacant(slot) = space.pages.entry(vpn) {
            slot.insert(self.fresh_page());
            Self::minor_fault(space, model);
        }
        space.pages[&vpn].bytes.clone()
    }

    fn write(&mut self, space: &mut OracleSpace, vpn: Vpn, off: usize, val: u8, model: &CostModel) {
        match space.pages.get(&vpn).map(|page| page.frame) {
            None => {
                space.pages.insert(vpn, self.fresh_page());
                Self::minor_fault(space, model);
            }
            Some(frame) if self.sharers[&frame] > 1 => {
                self.release(frame);
                let mut copy = self.fresh_page();
                copy.bytes.clone_from(&space.pages[&vpn].bytes);
                space.pages.insert(vpn, copy);
                space.stats.cow_faults += 1;
                space.stats.bytes_copied += PAGE_SIZE as u64;
                space.clock = space
                    .clock
                    .saturating_add(model.cow_fault(PAGE_SIZE as u64));
            }
            Some(_) => {} // sole owner: in place, free
        }
        space.pages.get_mut(&vpn).unwrap().bytes[off] = val;
    }

    fn fork(&mut self, parent: &OracleSpace) -> OracleSpace {
        for page in parent.pages.values() {
            *self.sharers.get_mut(&page.frame).unwrap() += 1;
        }
        OracleSpace {
            pages: parent.pages.clone(),
            ..OracleSpace::default()
        }
    }

    fn drop_space(&mut self, space: OracleSpace) {
        for page in space.pages.values() {
            self.release(page.frame);
        }
    }
}

/// Pages around two leaf boundaries of a three-leaf heap.
const FAMILY_VPNS: [Vpn; 10] = [0, 1, 510, 511, 512, 513, 1023, 1024, 1025, 1535];
const FAMILY_HEAP: u64 = 1536;

#[derive(Debug, Clone)]
enum FamilyOp {
    Read {
        who: usize,
        page: usize,
    },
    Write {
        who: usize,
        page: usize,
        off: usize,
        val: u8,
    },
    Fork {
        who: usize,
    },
    Drop {
        who: usize,
    },
    /// Checkpoint a member: the snapshot holds its frames until released.
    Snapshot {
        who: usize,
    },
    Release {
        which: usize,
    },
}

/// A weighted pick of one operation, decoded from raw draws.
fn family_op() -> impl Strategy<Value = FamilyOp> {
    (
        0u8..15,
        0usize..8,
        0..FAMILY_VPNS.len(),
        0usize..PAGE_SIZE,
        any::<u8>(),
    )
        .prop_map(|(kind, who, page, off, val)| match kind {
            0..=2 => FamilyOp::Read { who, page },
            3..=8 => FamilyOp::Write {
                who,
                page,
                off,
                val,
            },
            9 | 10 => FamilyOp::Fork { who },
            11 => FamilyOp::Drop { who },
            12 | 13 => FamilyOp::Snapshot { who },
            _ => FamilyOp::Release { which: who },
        })
}

struct Member {
    space: AddressSpace,
    clock: SimClock,
    oracle: OracleSpace,
}

/// A live checkpoint snapshot and what it must keep reading: in the oracle a
/// snapshot is a fork that never writes — one more sharer of every page it
/// captured, for as long as it is held.
struct Held {
    pages: Vec<(Vpn, FrameRef)>,
    oracle: OracleSpace,
}

fn assert_snapshot_intact(held: &Held) -> Result<(), TestCaseError> {
    prop_assert_eq!(held.pages.len(), held.oracle.pages.len());
    for ((vpn, frame), (want_vpn, want)) in held.pages.iter().zip(&held.oracle.pages) {
        prop_assert_eq!(vpn, want_vpn, "snapshots ascend by vpn");
        prop_assert_eq!(&frame[..], &want.bytes[..], "snapshot page {} changed", vpn);
    }
    Ok(())
}

fn assert_member_matches(member: &Member) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        member.space.stats(),
        member.oracle.stats,
        "{}",
        member.space.name()
    );
    prop_assert_eq!(
        member.clock.now(),
        member.oracle.clock,
        "{}",
        member.space.name()
    );
    prop_assert_eq!(
        member.space.private_pages(),
        member.oracle.pages.len() as u64
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A template, its children and their children, reading and writing in
    /// any interleaving, with members dropped along the way: every space's
    /// bytes, `SpaceStats` and clock agree with an oracle in which each fork
    /// is a deep copy and sharing is counted per page. Sharing whole leaf
    /// tables must be invisible, and a checkpoint snapshot — which shares
    /// frames instead of copying them — is one more sharer per page while it
    /// lives and never sees a later write.
    #[test]
    fn sfork_family_matches_a_per_page_oracle(
        template_writes in proptest::collection::vec((0..FAMILY_VPNS.len(), any::<u8>()), 0..10),
        ops in proptest::collection::vec(family_op(), 1..120),
    ) {
        let model = CostModel::experimental_machine();
        let mut oracle = FamilyOracle::default();
        let mut template = Member {
            space: AddressSpace::new("template"),
            clock: SimClock::new(),
            oracle: OracleSpace::default(),
        };
        template.space
            .map_anonymous(VpnRange::new(0, FAMILY_HEAP), Perms::RW, ShareMode::Private, "heap")
            .unwrap();
        for (page, val) in template_writes {
            let vpn = FAMILY_VPNS[page];
            template.space.write(vpn, 0, &[val], &template.clock, &model).unwrap();
            oracle.write(&mut template.oracle, vpn, 0, val, &model);
        }
        // Member 0 is the template; it outlives everyone.
        let mut family = vec![template];
        let mut forks = 0;
        let mut snapshots: Vec<Held> = Vec::new();

        for op in ops {
            match op {
                FamilyOp::Read { who, page } => {
                    let who = who % family.len();
                    let member = &mut family[who];
                    let vpn = FAMILY_VPNS[page];
                    let mut got = vec![0u8; PAGE_SIZE];
                    member.space.read(vpn, 0, &mut got, &member.clock, &model).unwrap();
                    prop_assert_eq!(got, oracle.read(&mut member.oracle, vpn, &model));
                    assert_member_matches(member)?;
                }
                FamilyOp::Write { who, page, off, val } => {
                    let who = who % family.len();
                    let member = &mut family[who];
                    let vpn = FAMILY_VPNS[page];
                    member.space.write(vpn, off, &[val], &member.clock, &model).unwrap();
                    oracle.write(&mut member.oracle, vpn, off, val, &model);
                    assert_member_matches(member)?;
                }
                FamilyOp::Fork { who } => {
                    if family.len() < 6 {
                        forks += 1;
                        let parent = &family[who % family.len()];
                        let child = Member {
                            space: parent.space.sfork_clone(format!("fork{forks}")).unwrap(),
                            clock: SimClock::new(),
                            oracle: oracle.fork(&parent.oracle),
                        };
                        assert_member_matches(&child)?;
                        family.push(child);
                    }
                }
                FamilyOp::Drop { who } => {
                    if family.len() > 1 {
                        let gone = family.remove(1 + who % (family.len() - 1));
                        oracle.drop_space(gone.oracle);
                    }
                }
                FamilyOp::Snapshot { who } => {
                    if snapshots.len() < 3 {
                        let member = &family[who % family.len()];
                        let held = Held {
                            pages: member.space.snapshot_private_pages(),
                            oracle: oracle.fork(&member.oracle),
                        };
                        assert_snapshot_intact(&held)?;
                        assert_member_matches(member)?;
                        snapshots.push(held);
                    }
                }
                FamilyOp::Release { which } => {
                    if !snapshots.is_empty() {
                        let held = snapshots.remove(which % snapshots.len());
                        assert_snapshot_intact(&held)?;
                        oracle.drop_space(held.oracle);
                    }
                }
            }
        }
        for held in &snapshots {
            assert_snapshot_intact(held)?;
        }

        // Everyone left reads back exactly what the oracle holds.
        for member in &mut family {
            for vpn in FAMILY_VPNS {
                let mut got = vec![0u8; PAGE_SIZE];
                member.space.read(vpn, 0, &mut got, &member.clock, &model).unwrap();
                prop_assert_eq!(got, oracle.read(&mut member.oracle, vpn, &model));
            }
            assert_member_matches(member)?;
        }
    }
}
