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
    accounting, AddressSpace, EptLayer, FrameRef, MappedImage, MemError, Perms, ShareMode,
    SharedBytes, SpaceStats, Swept, Touch, Vpn, VpnRange, Walk, PAGE_SIZE,
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

/// A Base-EPT mapping every page of `img` at the same guest page number.
fn base_over(img: &Arc<MappedImage>) -> Arc<EptLayer> {
    EptLayer::map_image(img, (0..img.pages()).map(|page| (page, page)))
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
        let base = base_over(&img);
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
        let base = base_over(&img);
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
        let img = image_with_pattern(8);
        let base = base_over(&img);
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
    /// install, a fork — leaves it holding resident frames only: image
    /// entries stay in the Base-EPT. `private_pages()` counts every private
    /// entry and the snapshot only the resident ones, so a private image
    /// entry would part them; what is visible from outside is checked
    /// against a shadow.
    #[test]
    fn private_layer_holds_only_resident_pages(
        ops in proptest::collection::vec((0u8..5, 0u64..16, any::<u8>()), 1..64),
    ) {
        let (clock, model) = setup();
        let img = image_with_pattern(8);
        let base = base_over(&img);
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
    /// any interleaving, with members — the template too — dropped along
    /// the way: every space's
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
        // Member 0 is the template. Any member may be dropped, the template
        // included while its children live, as a quarantined or repaired
        // template is replaced.
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
                        let gone = family.remove(who % family.len());
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

// ---------------------------------------------------------------------------
// A sweep against the per-page read/write loop it replaces
// ---------------------------------------------------------------------------

/// The walk cases' guest layout: three leaves of anonymous heap; then,
/// inside one leaf, more anonymous memory, a read-only mapping, the
/// Base-EPT and an unmapped gap; then anonymous memory to the end.
const WALK_HEAP: VpnRange = VpnRange {
    start: 0,
    end: 1536,
};
const WALK_MID: VpnRange = VpnRange {
    start: 1536,
    end: 1600,
};
const WALK_RO: VpnRange = VpnRange {
    start: 1600,
    end: 1640,
};
const WALK_IMAGE: VpnRange = VpnRange {
    start: 1640,
    end: 1704,
};
const WALK_TAIL: VpnRange = VpnRange {
    start: 1712,
    end: 2600,
};

/// One step of a case's set-up, on the template (`who` even) or its child.
#[derive(Debug, Clone)]
enum SetupOp {
    Write {
        vpn: Vpn,
        off: usize,
        val: u8,
    },
    Read {
        vpn: Vpn,
    },
    Install {
        vpn: Vpn,
        val: u8,
    },
    /// A sandbox outside the family reads a base page: in the page cache,
    /// not merged into the family's EPT.
    Warm {
        vpn: Vpn,
    },
    /// Checkpoint: the snapshot holds its frames through the walk.
    Snapshot,
}

fn setup_op() -> impl Strategy<Value = (SetupOp, u8)> {
    (
        0u8..12,
        0u64..2600,
        0usize..PAGE_SIZE,
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(|(kind, vpn, off, val, who)| {
            let op = match kind {
                0..=4 => SetupOp::Write { vpn, off, val },
                5 | 6 => SetupOp::Read { vpn },
                7 | 8 => SetupOp::Install { vpn, val },
                9 | 10 => SetupOp::Warm {
                    vpn: WALK_IMAGE.start + vpn % WALK_IMAGE.len(),
                },
                _ => SetupOp::Snapshot,
            };
            (op, who)
        })
}

/// A template, its child and what the set-up left alive, built afresh — its
/// own image and page cache included — for each side of a comparison.
struct WalkWorld {
    family: [AddressSpace; 2],
    snapshots: Vec<Vec<(Vpn, FrameRef)>>,
    outsider: AddressSpace,
}

impl WalkWorld {
    fn build(
        filled: u64,
        before_fork: &[(SetupOp, u8)],
        after_fork: &[(SetupOp, u8)],
    ) -> WalkWorld {
        let (clock, model) = setup();
        let img = image_with_pattern(WALK_IMAGE.len() as u8);
        let base = EptLayer::map_image(&img, (0..img.pages()).map(|p| (WALK_IMAGE.start + p, p)));
        let mut outsider = AddressSpace::new("outsider");
        outsider
            .attach_base(Arc::clone(&base), WALK_IMAGE, "f", &clock, &model)
            .unwrap();
        let mut template = AddressSpace::new("template");
        template
            .attach_base(base, WALK_IMAGE, "f", &clock, &model)
            .unwrap();
        for (range, perms) in [
            (WALK_HEAP, Perms::RW),
            (WALK_MID, Perms::RW),
            (WALK_RO, Perms::RO),
            (WALK_TAIL, Perms::RW),
        ] {
            template
                .map_anonymous(range, perms, ShareMode::Private, "anon")
                .unwrap();
        }
        // A template's initialised heap: its first `filled` pages resident.
        for vpn in 0..filled {
            template
                .write(vpn, 0, &[vpn as u8], &clock, &model)
                .unwrap();
        }
        let mut world = WalkWorld {
            family: [AddressSpace::new("unborn"), template],
            snapshots: Vec::new(),
            outsider,
        };
        world.apply(before_fork, true);
        world.family[0] = world.family[1].sfork_clone("child").unwrap();
        world.apply(after_fork, false);
        world
    }

    /// Set-up errors (a write to the read-only mapping, a page in the gap)
    /// are part of the case: both sides take them alike.
    fn apply(&mut self, ops: &[(SetupOp, u8)], template_only: bool) {
        let (clock, model) = setup();
        for (op, who) in ops {
            let space = &mut self.family[usize::from(template_only || who % 2 == 1)];
            match *op {
                SetupOp::Write { vpn, off, val } => {
                    let _ = space.write(vpn, off, &[val], &clock, &model);
                }
                SetupOp::Read { vpn } => {
                    let _ = space.read(vpn, 0, &mut [0u8; 4], &clock, &model);
                }
                SetupOp::Install { vpn, val } => {
                    let _ = space.install_page(vpn, &[val]);
                }
                SetupOp::Warm { vpn } => {
                    let _ = self.outsider.read(vpn, 0, &mut [0u8; 1], &clock, &model);
                }
                SetupOp::Snapshot => {
                    if self.snapshots.len() < 2 {
                        self.snapshots.push(space.snapshot_private_pages());
                    }
                }
            }
        }
    }
}

/// What a sweep hands its visitor: the page, its head, the counts before it.
type Visits = Vec<(Vpn, [u8; 4], Swept)>;

/// The walk as `invoke_handler` and `touch_range` spelled it before
/// [`AddressSpace::sweep`]: one `read` and at most one `write` per page.
fn per_page_walk(
    space: &mut AddressSpace,
    walk: Walk,
    touch: Touch,
    clock: &SimClock,
    model: &CostModel,
    mut visit: impl FnMut(Vpn, &[u8; 4], Swept) -> bool,
) -> Result<Swept, MemError> {
    let mut done = Swept::default();
    let mut vpn = walk.start;
    while vpn < walk.bound && done.touched < walk.count {
        match touch {
            Touch::Read { write_at } => {
                let mut head = [0u8; 4];
                space.read(vpn, 0, &mut head, clock, model)?;
                if visit(vpn, &head, done) {
                    space.write(vpn, write_at, &head, clock, model)?;
                    done.written += 1;
                }
            }
            Touch::Write(byte) => {
                space.write(vpn, 0, &[byte], clock, model)?;
                done.written += 1;
            }
        }
        done.touched += 1;
        match vpn.checked_add(walk.stride) {
            Some(step) => vpn = step,
            None => break,
        }
    }
    Ok(done)
}

/// Everything observable of a space without touching it: counters, sizes
/// and the bytes of every private page.
fn observe(space: &AddressSpace) -> (SpaceStats, u64, u64, Vec<(Vpn, Vec<u8>)>) {
    let pages = space
        .snapshot_private_pages()
        .into_iter()
        .map(|(vpn, frame)| (vpn, frame.to_vec()))
        .collect();
    (
        space.stats(),
        space.rss_bytes(),
        space.private_pages(),
        pages,
    )
}

fn touch_strategy() -> impl Strategy<Value = Touch> {
    const WRITE_AT: [usize; 6] = [0, 8, 100, PAGE_SIZE - 4, PAGE_SIZE - 3, usize::MAX];
    (0u8..4, 0..WRITE_AT.len(), any::<u8>()).prop_map(|(kind, at, byte)| match kind {
        0 => Touch::Write(byte),
        _ => Touch::Read {
            write_at: WRITE_AT[at],
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `AddressSpace::sweep` is the per-page loop it replaces, observably:
    /// over resident pages, leaves shared by `sfork_clone` that parent and
    /// child have both written, frames a snapshot holds, Base-EPT pages cold
    /// and already cached, demand-zero holes, an unmapped gap and a
    /// read-only mapping, at strides that cross leaf and VMA edges, both
    /// run on a fresh copy of one world hand the visitor the same bytes and
    /// leave the same clock, counters, sizes, page bytes and result — the
    /// same typed error at the same page included.
    #[test]
    fn a_sweep_is_the_per_page_loop_it_replaces(
        before_fork in proptest::collection::vec(setup_op(), 0..40),
        after_fork in proptest::collection::vec(setup_op(), 0..40),
        filled in 0..=WALK_HEAP.end,
        child in any::<bool>(),
        start in 0u64..2600,
        (short, stride) in (any::<bool>(), 1u64..1100),
        count in 0u64..400,
        span in 0u64..2700,
        touch in touch_strategy(),
        pattern in any::<u64>(),
    ) {
        let model = CostModel::experimental_machine();
        let stride = if short { stride % 8 + 1 } else { stride };
        let walk = Walk { start, stride, count, bound: start + span };
        // A pure function of the pages visited and written so far.
        let decide = |done: Swept| pattern.rotate_right((done.touched + 3 * done.written) as u32) & 1 == 1;
        let who = usize::from(!child);

        let mut swept_world = WalkWorld::build(filled, &before_fork, &after_fork);
        let (swept_clock, mut swept_visits) = (SimClock::new(), Visits::new());
        let swept = swept_world.family[who].sweep(walk, touch, &swept_clock, &model, |vpn, head, done| {
            swept_visits.push((vpn, *head, done));
            decide(done)
        });

        let mut looped_world = WalkWorld::build(filled, &before_fork, &after_fork);
        let (looped_clock, mut looped_visits) = (SimClock::new(), Visits::new());
        let looped = per_page_walk(&mut looped_world.family[who], walk, touch, &looped_clock, &model, |vpn, head, done| {
            looped_visits.push((vpn, *head, done));
            decide(done)
        });

        prop_assert_eq!(swept, looped);
        prop_assert_eq!(swept_visits, looped_visits);
        prop_assert_eq!(swept_clock.now(), looped_clock.now());
        for (a, b) in swept_world.family.iter().zip(&looped_world.family) {
            prop_assert_eq!(observe(a), observe(b), "{}", a.name());
        }
        for (a, b) in swept_world.snapshots.iter().zip(&looped_world.snapshots) {
            let bytes = |held: &Vec<(Vpn, FrameRef)>| -> Vec<Vec<u8>> {
                held.iter().map(|(_, frame)| frame.to_vec()).collect()
            };
            prop_assert_eq!(bytes(a), bytes(b), "a snapshot changed");
        }
    }
}
