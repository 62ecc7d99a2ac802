//! Property-based tests: checkpoint/restore of the guest-kernel object graph
//! is faithful for arbitrary graph shapes, and the syscall policy is total.

use std::sync::Arc;

use guest_kernel::gofer::FsServer;
use guest_kernel::syscalls::{SyscallClass, SyscallName};
use guest_kernel::vfs::Backend;
use guest_kernel::{GraphSpec, GuestKernel};
use proptest::prelude::*;
use simtime::{CostModel, SimClock};

fn test_fs() -> Arc<FsServer> {
    Arc::new(
        FsServer::builder("prop")
            .synthetic_tree("/lib", 24, 64)
            .persistent("/var/log/x.log")
            .build(),
    )
}

fn arb_spec() -> impl Strategy<Value = GraphSpec> {
    (
        0u32..4,
        0u32..6,
        0u32..64,
        0u32..24,
        0u32..8,
        0u32..16,
        0u32..8,
        0u32..3,
        0u32..128,
        0u32..48,
    )
        .prop_map(
            |(tasks, threads, dentries, files, socks, timers, wqs, epolls, misc, payload)| {
                GraphSpec {
                    extra_tasks: tasks,
                    threads_per_task: threads,
                    dentries,
                    open_files: files,
                    sockets: socks,
                    timers,
                    waitqueues: wqs,
                    epolls,
                    misc_objects: misc,
                    misc_payload: payload,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// checkpoint → restore → checkpoint is a fixed point for any graph.
    #[test]
    fn checkpoint_restore_fixed_point(spec in arb_spec()) {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let mut kernel = GuestKernel::boot("prop", test_fs(), &clock, &model);
        spec.populate(&mut kernel, &clock, &model).unwrap();
        kernel.validate().unwrap();

        let records = kernel.checkpoint_objects();
        prop_assert_eq!(records.len() as u64, kernel.object_count());

        let restored = GuestKernel::restore_from_records(
            "copy", &records, test_fs(), false, &clock, &model,
        ).unwrap();
        restored.validate().unwrap();
        prop_assert_eq!(restored.checkpoint_objects(), records);
    }

    /// Eager and deferred restore produce the same graph; only connection
    /// status differs.
    #[test]
    fn eager_and_lazy_restore_agree(spec in arb_spec()) {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let mut kernel = GuestKernel::boot("prop", test_fs(), &clock, &model);
        spec.populate(&mut kernel, &clock, &model).unwrap();
        let records = kernel.checkpoint_objects();

        let eager = GuestKernel::restore_from_records(
            "e", &records, test_fs(), true, &clock, &model).unwrap();
        let lazy = GuestKernel::restore_from_records(
            "l", &records, test_fs(), false, &clock, &model).unwrap();
        prop_assert_eq!(eager.object_count(), lazy.object_count());
        prop_assert!(eager.vfs.iter_fds().all(|(_, d)| d.connected));
        if spec.open_files > 0 {
            prop_assert!(lazy.vfs.iter_fds().all(|(_, d)| !d.connected));
        }
        prop_assert_eq!(eager.checkpoint_objects().len(), lazy.checkpoint_objects().len());
    }

    /// The template-mode policy gate is total and only rejects Denied.
    #[test]
    fn policy_gate_matches_classification(idx in 0usize..SyscallName::ALL.len()) {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let mut kernel = GuestKernel::boot("p", test_fs(), &clock, &model);
        kernel.set_template_mode(true);
        let name = SyscallName::ALL[idx];
        let outcome = kernel.check_syscall(name);
        match name.classify() {
            SyscallClass::Denied => prop_assert!(outcome.is_err()),
            _ => prop_assert!(outcome.is_ok()),
        }
    }

    /// sfork_clone preserves observable kernel state for any graph, and the
    /// child's mutations never reach the parent.
    #[test]
    fn sfork_clone_preserves_and_isolates(spec in arb_spec()) {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let mut parent = GuestKernel::boot("parent", test_fs(), &clock, &model);
        spec.populate(&mut parent, &clock, &model).unwrap();
        let before = parent.checkpoint_objects();

        let mut child = parent.sfork_clone("child", &clock, &model);
        prop_assert_eq!(child.object_count(), parent.object_count());
        prop_assert_eq!(child.tasks.getpid(), parent.tasks.getpid(),
            "PID namespace must keep getpid() stable");

        // Child mutates: new file, new socket, fired timers.
        let fd = child.vfs.create("/tmp/child-only", &clock, &model).unwrap();
        child.vfs.write(fd, b"x", &clock, &model).unwrap();
        child.net.socket(&clock, &model);
        child.timers.fire_due(simtime::SimNanos::from_secs(60));

        prop_assert_eq!(parent.checkpoint_objects(), before, "child leaked into parent");
        prop_assert!(parent.vfs.stat("/tmp/child-only").is_err());
    }
}

// --- an sfork family against a deep-copy oracle ---------------------------
//
// `sfork_clone` shares the kernel's object tables, the overlay map and every
// file description with the child until one side writes. The oracle shares
// nothing: each member is shadowed by a kernel rebuilt from checkpoint
// records over an FS server of its own, and receives the same mutations.

const LOG: &str = "/var/log/x.log";

#[derive(Debug, Clone)]
enum FamilyOp {
    Fork,
    Drop,
    /// Opens a lower-layer file read-only, or the log for writing, and
    /// leaves the descriptor open.
    Open {
        path: usize,
        log: bool,
    },
    /// Closes the highest descriptor the sequence itself opened. (Highest,
    /// because a restore renumbers descriptors densely; the template's own
    /// stay, because its epolls watch them.)
    CloseLast,
    /// Moves an open descriptor's offset: a read, or a write to the log.
    Use {
        pick: usize,
        len: usize,
    },
    /// Creates, writes and closes an overlay file.
    OverlayWrite {
        file: usize,
        val: u8,
    },
    /// More dentries, wait queues, epolls and runtime objects.
    Populate {
        counts: [u32; 4],
    },
    ArmTimer {
        ms: u64,
    },
    Connect {
        port: u32,
    },
}

/// A family member (modulo the family's size) and a weighted pick of one
/// operation on it, decoded from raw draws.
fn family_op() -> impl Strategy<Value = (usize, FamilyOp)> {
    (0u8..20, 0usize..8, 0usize..24, any::<u8>(), 0u32..27).prop_map(
        |(kind, who, n, val, counts)| {
            let op = match kind {
                0..=2 => FamilyOp::Fork,
                3 | 4 => FamilyOp::Drop,
                5..=7 => FamilyOp::Open {
                    path: n,
                    log: val % 4 == 0,
                },
                8 | 9 => FamilyOp::CloseLast,
                10..=12 => FamilyOp::Use {
                    pick: n,
                    len: usize::from(val % 40),
                },
                13..=15 => FamilyOp::OverlayWrite { file: n % 3, val },
                16 | 17 => FamilyOp::Populate {
                    counts: [counts % 3, counts / 3 % 3, counts / 9, u32::from(val % 3)],
                },
                18 => FamilyOp::ArmTimer { ms: u64::from(val) },
                _ => FamilyOp::Connect { port: counts },
            };
            (who, op)
        },
    )
}

fn overlay_path(file: usize) -> String {
    format!("/tmp/ov-{file}")
}

/// Applies a mutating operation to one kernel — a member and its oracle
/// both go through here.
fn mutate(
    kernel: &mut GuestKernel,
    op: &FamilyOp,
    template_fds: usize,
    clock: &SimClock,
    model: &CostModel,
) {
    match *op {
        FamilyOp::Fork | FamilyOp::Drop => unreachable!("family-level operations"),
        FamilyOp::Open { path, log } => {
            let path = if log {
                LOG.to_string()
            } else {
                format!("/lib/lib{:04}.so", path % 24)
            };
            kernel.vfs.open(&path, log, clock, model).unwrap();
        }
        FamilyOp::CloseLast => {
            if kernel.vfs.open_fds() > template_fds {
                let (last, _) = kernel.vfs.iter_fds().last().unwrap();
                kernel.vfs.close(last, clock, model).unwrap();
            }
        }
        FamilyOp::Use { pick, len } => {
            let open = kernel.vfs.open_fds().max(1);
            let picked = kernel.vfs.iter_fds().nth(pick % open);
            if let Some((fd, writable)) = picked.map(|(fd, desc)| (fd, desc.writable)) {
                if writable {
                    kernel.vfs.write(fd, &vec![7; len], clock, model).unwrap();
                } else {
                    kernel.vfs.read(fd, len, clock, model).unwrap();
                }
            }
        }
        FamilyOp::OverlayWrite { file, val } => {
            let fd = kernel
                .vfs
                .create(&overlay_path(file), clock, model)
                .unwrap();
            kernel
                .vfs
                .write(fd, &[val; 3][..1 + file], clock, model)
                .unwrap();
            kernel.vfs.close(fd, clock, model).unwrap();
        }
        FamilyOp::Populate { counts } => GraphSpec {
            dentries: counts[0],
            waitqueues: counts[1],
            epolls: counts[2],
            misc_objects: counts[3],
            misc_payload: 8,
            ..GraphSpec::default()
        }
        .populate(kernel, clock, model)
        .unwrap(),
        FamilyOp::ArmTimer { ms } => {
            kernel.timers.arm(
                simtime::SimNanos::from_millis(ms),
                simtime::SimNanos::ZERO,
                1,
            );
        }
        FamilyOp::Connect { port } => {
            let sock = kernel.net.socket(clock, model);
            kernel
                .net
                .connect(sock, &format!("10.1.0.1:{port}"), clock, model)
                .unwrap();
        }
    }
}

struct Member {
    kernel: GuestKernel,
    /// The deep copy: shares nothing with any other kernel.
    oracle: GuestKernel,
    /// Overlay contents, which the record stream does not carry.
    overlay: std::collections::BTreeMap<String, Vec<u8>>,
}

/// `of`, rebuilt from its own checkpoint over a fresh FS server.
fn deep_copy(of: &GuestKernel, clock: &SimClock, model: &CostModel) -> GuestKernel {
    let records = of.checkpoint_objects();
    let mut copy =
        GuestKernel::restore_from_records("oracle", &records, test_fs(), false, clock, model)
            .unwrap();
    // A restore drops the `used` hint; an empty transfer sets it again.
    for (fd, desc) in of.vfs.iter_fds().filter(|(_, desc)| desc.used) {
        if desc.writable {
            copy.vfs.write(fd, &[], clock, model).unwrap();
        } else {
            copy.vfs.read(fd, 0, clock, model).unwrap();
        }
    }
    copy
}

fn assert_family_matches(family: &[Member]) -> Result<(), TestCaseError> {
    for member in family {
        let records = member.kernel.checkpoint_objects();
        prop_assert_eq!(
            &records,
            &member.oracle.checkpoint_objects(),
            "{} diverged from its deep copy",
            member.kernel.name
        );
        prop_assert_eq!(member.kernel.object_count(), member.oracle.object_count());
        prop_assert_eq!(member.kernel.object_count(), records.len() as u64);
        prop_assert!(member.kernel.validate().is_ok());
        prop_assert!(member
            .kernel
            .vfs
            .upper_paths()
            .eq(member.overlay.keys().map(String::as_str)));
        for (path, content) in &member.overlay {
            prop_assert_eq!(member.kernel.vfs.stat(path).unwrap(), content.len() as u64);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Template → children → grandchildren, mutated and dropped in any
    /// order: every member stays equal to a deep copy that received the same
    /// mutations (so a write shows in its own records and in nobody
    /// else's), and a fork charges what it always charged.
    #[test]
    fn sfork_family_matches_a_deep_copy_oracle(
        spec in arb_spec(),
        ops in proptest::collection::vec(family_op(), 1..80),
    ) {
        let clock = SimClock::new();
        let model = CostModel::experimental_machine();
        let mut template = GuestKernel::boot("template", test_fs(), &clock, &model);
        spec.populate(&mut template, &clock, &model).unwrap();
        let template_fds = template.vfs.open_fds();
        let oracle = deep_copy(&template, &clock, &model);
        let mut family = vec![Member { kernel: template, oracle, overlay: Default::default() }];
        assert_family_matches(&family)?;
        let mut forks = 0;

        for (who, op) in ops {
            let who = who % family.len();
            match op {
                FamilyOp::Fork => {
                    if family.len() < 6 {
                        forks += 1;
                        let parent = &family[who];
                        let persistent = parent
                            .kernel
                            .vfs
                            .iter_fds()
                            .filter(|(_, desc)| matches!(desc.backend, Backend::Persistent(_)))
                            .count() as u64;
                        let charge = simtime::SimNanos::from_nanos(8)
                            .saturating_mul(parent.kernel.object_count())
                            .saturating_add(
                                simtime::SimNanos::from_nanos(120)
                                    .saturating_mul(parent.overlay.len() as u64),
                            )
                            .saturating_add(
                                model.io.gofer_rpc
                                    .saturating_add(model.io.open_file)
                                    .saturating_mul(persistent),
                            );
                        let fork_clock = SimClock::new();
                        let kernel =
                            parent.kernel.sfork_clone(format!("fork{forks}"), &fork_clock, &model);
                        prop_assert_eq!(fork_clock.now(), charge);
                        let child = Member {
                            kernel,
                            oracle: deep_copy(&parent.kernel, &clock, &model),
                            overlay: parent.overlay.clone(),
                        };
                        family.push(child);
                    }
                }
                FamilyOp::Drop => {
                    // Anyone may go, the template and a parent of live
                    // children included.
                    if family.len() > 1 {
                        family.remove(who);
                    }
                }
                ref mutation => {
                    let member = &mut family[who];
                    mutate(&mut member.kernel, mutation, template_fds, &clock, &model);
                    mutate(&mut member.oracle, mutation, template_fds, &clock, &model);
                    if let FamilyOp::OverlayWrite { file, val } = *mutation {
                        member.overlay.insert(overlay_path(file), vec![val; 1 + file]);
                    }
                }
            }
            assert_family_matches(&family)?;
        }

        // Whoever is left reads back exactly its own overlay.
        for member in &mut family {
            for (path, content) in &member.overlay {
                let fd = member.kernel.vfs.open(path, false, &clock, &model).unwrap();
                let got = member.kernel.vfs.read(fd, 16, &clock, &model).unwrap();
                prop_assert_eq!(&got[..], &content[..]);
                member.kernel.vfs.close(fd, &clock, &model).unwrap();
            }
        }
    }
}
