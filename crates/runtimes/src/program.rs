use std::fmt;
use std::sync::Arc;

use guest_kernel::gofer::FsServer;
use guest_kernel::GuestKernel;
use memsim::{AddressSpace, Perms, ShareMode, Vpn, VpnRange, PAGE_SIZE};
use simtime::{CostModel, SimClock, SimNanos};

use crate::{AppProfile, RuntimeError};

/// Guest page number where application heaps start.
pub const HEAP_BASE: Vpn = 0x1_0000;

/// Deterministic fill byte for heap page `vpn` — lets any restore path prove
/// it reproduced the initialized memory image byte-for-byte.
pub fn heap_page_byte(vpn: Vpn) -> u8 {
    ((vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as u8 | 1
}

/// Result of running initialization to the func-entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitReport {
    /// Virtual time the initialization took.
    pub init_time: SimNanos,
    /// Kernel objects at the entry point.
    pub kernel_objects: u64,
    /// Heap pages initialized.
    pub heap_pages: u64,
}

/// Result of one handler invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecReport {
    /// Virtual time the handler took (compute + faults + syscalls).
    pub exec_time: SimNanos,
    /// Initialized heap pages the handler touched.
    pub pages_touched: u64,
    /// Pages the handler wrote (CoW work on restored sandboxes).
    pub pages_written: u64,
    /// Fresh pages allocated.
    pub pages_allocated: u64,
    /// Syscalls issued.
    pub syscalls: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Created,
    AtEntryPoint,
}

/// A *wrapped program*: the language runtime plus the user handler, bound to
/// a guest kernel and an address space (paper §2.1).
///
/// Life cycle: [`WrappedProgram::start`] (sandbox hands control to the
/// wrapper) → [`WrappedProgram::run_to_entry_point`] (runtime + app
/// initialization; where func-images are captured) →
/// [`WrappedProgram::invoke_handler`] (serve one request; repeatable).
#[derive(Debug)]
pub struct WrappedProgram {
    profile: AppProfile,
    /// The guest kernel this program runs on.
    pub kernel: GuestKernel,
    /// The sandbox's guest-physical address space.
    pub space: AddressSpace,
    phase: Phase,
    exec_base: Vpn,
    invocations: u64,
    /// The latest invocation's request scratch, still mapped: it is
    /// released when the next invocation starts, so a reused instance
    /// holds one request's scratch, never the sum of all it has served.
    scratch: Option<VpnRange>,
}

impl WrappedProgram {
    /// Starts the wrapper on a fresh kernel over the profile's own FS server.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn start(
        profile: &AppProfile,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<WrappedProgram, RuntimeError> {
        let fs = profile.build_fs_server();
        Self::start_with(profile, fs, clock, model)
    }

    /// Starts the wrapper over an existing (shared, per-function) FS server.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn start_with(
        profile: &AppProfile,
        fs: Arc<FsServer>,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<WrappedProgram, RuntimeError> {
        let kernel = GuestKernel::boot(profile.name.clone(), fs, clock, model);
        let space = AddressSpace::new(profile.name.clone());
        Ok(WrappedProgram {
            profile: profile.clone(),
            kernel,
            space,
            phase: Phase::Created,
            exec_base: HEAP_BASE + profile.init_heap_pages + 0x1000,
            invocations: 0,
            scratch: None,
        })
    }

    /// Re-assembles a program around restored kernel/memory state, already
    /// positioned at the func-entry point (used by every restore/fork boot
    /// path).
    pub fn from_restored(
        profile: &AppProfile,
        kernel: GuestKernel,
        space: AddressSpace,
    ) -> WrappedProgram {
        WrappedProgram {
            exec_base: HEAP_BASE + profile.init_heap_pages + 0x1000,
            profile: profile.clone(),
            kernel,
            space,
            phase: Phase::AtEntryPoint,
            invocations: 0,
            scratch: None,
        }
    }

    /// The profile this program runs.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Handler invocations served.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Runs runtime + application initialization up to the **func-entry
    /// point** — the moment Catalyzer's `Gen-Func-Image` syscall captures a
    /// checkpoint (§5). This is the latency C/R removes from the critical
    /// path.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Phase`] if already initialized; substrate errors.
    pub fn run_to_entry_point(
        &mut self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<InitReport, RuntimeError> {
        if self.phase != Phase::Created {
            return Err(RuntimeError::Phase {
                detail: "run_to_entry_point called twice",
            });
        }
        let start = clock.now();

        // 1. VM / interpreter start.
        clock.charge(self.profile.runtime_start);

        // 2. Load classes/modules: open a share of them as real rootfs
        //    files (fd-table state scales with the runtime, like the I/O
        //    manifests in the paper's Table 3), then charge the per-unit
        //    parse cost.
        let open_count = ((self.profile.load_units / 4).clamp(8, 120)) as usize;
        let paths: Vec<String> = self
            .kernel
            .vfs
            .server()
            .paths()
            .filter(|p| p.starts_with("/lib"))
            .take(open_count)
            .map(str::to_string)
            .collect();
        for path in &paths {
            let fd = self.kernel.vfs.open(path, false, clock, model)?;
            self.kernel.vfs.read(fd, 64, clock, model)?;
        }
        clock.charge(
            self.profile
                .unit_cost
                .saturating_mul(u64::from(self.profile.load_units)),
        );

        // 3. Allocate and fill the heap (real pages, deterministic pattern).
        let heap = self.profile.heap_range();
        self.space
            .map_anonymous(heap, Perms::RW, ShareMode::Private, "app-heap")?;
        for vpn in heap.iter() {
            let b = heap_page_byte(vpn);
            self.space.write(vpn, 0, &[b, b, b, b], clock, model)?;
        }

        // 4. Leave behind the kernel object graph the paper counts.
        self.profile
            .graph_spec()
            .populate(&mut self.kernel, clock, model)?;

        // 5. Fine-grained entry point: hoisted fraction of handler prep runs
        //    before the checkpoint (§6.7).
        clock.charge(self.profile.exec_time.scale(self.profile.entry_point_shift));

        self.phase = Phase::AtEntryPoint;
        Ok(InitReport {
            init_time: clock.since(start),
            kernel_objects: self.kernel.object_count(),
            heap_pages: heap.len(),
        })
    }

    /// Serves one request: touches the initialized state (driving demand
    /// paging / CoW on restored sandboxes), performs I/O (driving on-demand
    /// reconnection), and charges the handler's compute time.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Phase`] before initialization; substrate errors.
    pub fn invoke_handler(
        &mut self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<ExecReport, RuntimeError> {
        if self.phase != Phase::AtEntryPoint {
            return Err(RuntimeError::Phase {
                detail: "invoke_handler before run_to_entry_point",
            });
        }
        // Release the previous request's scratch. That munmap belongs after
        // its response went out, on nobody's critical path, so it charges a
        // scratch clock: this request's `exec_time` does not see it.
        if let Some(previous) = self.scratch.take() {
            self.space.unmap(previous, &SimClock::new(), model)?;
        }
        let start = clock.now();
        let syscalls_before = self.kernel.stats().syscalls;

        // Touch a deterministic, strided subset of the initialized heap.
        let heap = self.profile.heap_range();
        let touch = ((heap.len() as f64 * self.profile.exec_touch_fraction) as u64).min(heap.len());
        let stride = if touch == 0 {
            1
        } else {
            (heap.len() / touch.max(1)).max(1)
        };
        let mut touched = 0u64;
        let mut written = 0u64;
        let mut buf = [0u8; 4];
        let mut vpn = heap.start;
        while vpn < heap.end && touched < touch {
            self.space.read(vpn, 0, &mut buf, clock, model)?;
            debug_assert_eq!(
                buf[0],
                heap_page_byte(vpn),
                "restored heap corrupt at {vpn:#x}"
            );
            touched += 1;
            if (written as f64) < touched as f64 * self.profile.exec_write_fraction {
                self.space.write(vpn, 8, &buf, clock, model)?;
                written += 1;
            }
            vpn += stride;
        }

        // Allocate request-scoped pages.
        let alloc = VpnRange::with_len(
            self.exec_base + self.invocations * (self.profile.exec_alloc_pages + 1),
            self.profile.exec_alloc_pages,
        );
        if self.profile.exec_alloc_pages > 0 {
            self.space
                .map_anonymous(alloc, Perms::RW, ShareMode::Private, "req-scratch")?;
            self.scratch = Some(alloc);
            self.space.touch_range(alloc, true, clock, model)?;
        }

        // Request I/O: read the handler binary, append to the log, ping a
        // socket if the app has one (all may trigger on-demand reconnection).
        // Everything goes through the guest kernel's syscall dispatcher, so
        // the Table-1 policy gate and interposition costs apply.
        use guest_kernel::{SyscallInvocation, SyscallRet};
        if self.profile.exec_io {
            let fd = match self.kernel.syscall(
                SyscallInvocation::Openat {
                    path: "/app/handler.bin",
                    writable: false,
                },
                clock,
                model,
            )? {
                SyscallRet::Fd(fd) => fd,
                other => unreachable!("openat returned {other:?}"),
            };
            self.kernel
                .syscall(SyscallInvocation::Read { fd, len: 32 }, clock, model)?;
            self.kernel
                .syscall(SyscallInvocation::Close { fd }, clock, model)?;
            let log = match self.kernel.syscall(
                SyscallInvocation::Openat {
                    path: "/var/log/function.log",
                    writable: true,
                },
                clock,
                model,
            )? {
                SyscallRet::Fd(fd) => fd,
                other => unreachable!("openat returned {other:?}"),
            };
            self.kernel.syscall(
                SyscallInvocation::Write {
                    fd: log,
                    data: b"request served\n",
                },
                clock,
                model,
            )?;
            self.kernel
                .syscall(SyscallInvocation::Close { fd: log }, clock, model)?;
            let first_sock = self.kernel.net.iter().next().map(|s| s.id);
            if let Some(sock) = first_sock {
                self.kernel.syscall(
                    SyscallInvocation::Sendmsg { sock, bytes: 256 },
                    clock,
                    model,
                )?;
            }
        }

        // Handler compute (minus any hoisted fraction).
        clock.charge(
            self.profile
                .exec_time
                .scale(1.0 - self.profile.entry_point_shift),
        );

        self.invocations += 1;
        Ok(ExecReport {
            exec_time: clock.since(start),
            pages_touched: touched,
            pages_written: written,
            pages_allocated: self.profile.exec_alloc_pages,
            syscalls: self.kernel.stats().syscalls - syscalls_before,
        })
    }

    /// Captures the full checkpoint source at the func-entry point: kernel
    /// object records, the I/O manifest, and every initialized memory page.
    /// Offline — charges `offline_clock`, never the boot critical path.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Phase`] if not at the entry point.
    pub fn checkpoint_source(
        &self,
        offline_clock: &SimClock,
        model: &CostModel,
    ) -> Result<imagefmt::CheckpointSource, RuntimeError> {
        if self.phase != Phase::AtEntryPoint {
            return Err(RuntimeError::Phase {
                detail: "checkpoint before entry point",
            });
        }
        let pages = self.space.snapshot_private_pages();
        offline_clock.charge(model.memcpy((pages.len() * PAGE_SIZE) as u64));
        Ok(imagefmt::CheckpointSource {
            objects: self.kernel.checkpoint_objects(),
            app_pages: pages
                .into_iter()
                .map(|(vpn, data)| imagefmt::PagePayload { vpn, data })
                .collect(),
            io_conns: self.kernel.io_manifest(),
        })
    }
}

impl fmt::Display for WrappedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] phase={:?} invocations={}",
            self.profile.name, self.profile.runtime, self.phase, self.invocations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimClock, CostModel) {
        (SimClock::new(), CostModel::experimental_machine())
    }

    #[test]
    fn init_reaches_calibrated_latency() {
        let (clock, model) = setup();
        let profile = AppProfile::c_hello();
        let mut p = WrappedProgram::start(&profile, &clock, &model).unwrap();
        let report = p.run_to_entry_point(&clock, &model).unwrap();
        // C-hello app init ≈ 120 ms (gVisor total 142 ms minus ~22 ms sandbox).
        let ms = report.init_time.as_millis_f64();
        assert!((100.0..140.0).contains(&ms), "init {ms} ms");
        assert!(report.kernel_objects >= 500);
        assert_eq!(report.heap_pages, 64);
    }

    #[test]
    fn specjbb_init_near_two_seconds() {
        let (clock, model) = setup();
        let mut p = WrappedProgram::start(&AppProfile::java_specjbb(), &clock, &model).unwrap();
        let report = p.run_to_entry_point(&clock, &model).unwrap();
        let ms = report.init_time.as_millis_f64();
        assert!((1_900.0..2_100.0).contains(&ms), "init {ms} ms");
        // Object graph within 10% of the paper's 37 838.
        assert!(
            (34_000..42_000).contains(&report.kernel_objects),
            "{}",
            report.kernel_objects
        );
    }

    #[test]
    fn double_init_rejected() {
        let (clock, model) = setup();
        let mut p = WrappedProgram::start(&AppProfile::c_hello(), &clock, &model).unwrap();
        p.run_to_entry_point(&clock, &model).unwrap();
        assert!(matches!(
            p.run_to_entry_point(&clock, &model).unwrap_err(),
            RuntimeError::Phase { .. }
        ));
    }

    #[test]
    fn handler_before_init_rejected() {
        let (clock, model) = setup();
        let mut p = WrappedProgram::start(&AppProfile::c_hello(), &clock, &model).unwrap();
        assert!(matches!(
            p.invoke_handler(&clock, &model).unwrap_err(),
            RuntimeError::Phase { .. }
        ));
    }

    #[test]
    fn handler_touches_small_fraction() {
        let (clock, model) = setup();
        let profile = AppProfile::python_django();
        let mut p = WrappedProgram::start(&profile, &clock, &model).unwrap();
        p.run_to_entry_point(&clock, &model).unwrap();
        let report = p.invoke_handler(&clock, &model).unwrap();
        // Insight II: execution touches a small fraction of init state.
        assert!(report.pages_touched * 4 < profile.init_heap_pages);
        assert!(report.pages_written <= report.pages_touched);
        assert!(report.syscalls > 0);
    }

    #[test]
    fn handler_is_repeatable() {
        let (clock, model) = setup();
        let mut p = WrappedProgram::start(&AppProfile::c_hello(), &clock, &model).unwrap();
        p.run_to_entry_point(&clock, &model).unwrap();
        p.invoke_handler(&clock, &model).unwrap();
        p.invoke_handler(&clock, &model).unwrap();
        assert_eq!(p.invocations(), 2);
    }

    #[test]
    fn reused_instance_holds_one_requests_scratch() {
        let (clock, model) = setup();
        let profile = AppProfile::java_specjbb();
        assert!(profile.exec_alloc_pages > 0);
        let mut p = WrappedProgram::start(&profile, &clock, &model).unwrap();
        p.run_to_entry_point(&clock, &model).unwrap();

        let first = p.invoke_handler(&clock, &model).unwrap();
        let (vmas, pages) = (p.space.vmas().len(), p.space.private_pages());
        for _ in 1..50 {
            p.invoke_handler(&clock, &model).unwrap();
        }
        assert_eq!(p.invocations(), 50);
        assert_eq!(p.space.vmas().len(), vmas, "one scratch VMA, not fifty");
        assert!(
            p.space.private_pages().abs_diff(pages) <= first.pages_written,
            "resident pages grew from {pages} to {}",
            p.space.private_pages()
        );
    }

    #[test]
    fn releasing_the_scratch_is_invisible_to_the_request() {
        // On a program that was initialized here (nothing restored, so no
        // first-touch CoW), every invocation does the same work — except
        // that the first has no scratch to release and the later ones do.
        // The reports must not be able to tell.
        let (clock, model) = setup();
        let mut p = WrappedProgram::start(&AppProfile::python_django(), &clock, &model).unwrap();
        p.run_to_entry_point(&clock, &model).unwrap();
        let without_release = p.invoke_handler(&clock, &model).unwrap();
        let t0 = clock.now();
        let with_release = p.invoke_handler(&clock, &model).unwrap();
        assert_eq!(with_release, without_release);
        assert_eq!(
            clock.since(t0),
            with_release.exec_time,
            "the munmap charged the request's clock"
        );
        for _ in 2..20 {
            assert_eq!(p.invoke_handler(&clock, &model).unwrap(), without_release);
        }
    }

    #[test]
    fn entry_point_shift_moves_latency_from_exec_to_init() {
        let model = CostModel::experimental_machine();
        let base = AppProfile::java_specjbb();
        let shifted = base.clone().with_entry_point_shift(2.0 / 3.0);

        let run = |profile: &AppProfile| {
            let clock = SimClock::new();
            let mut p = WrappedProgram::start(profile, &clock, &model).unwrap();
            let init = p.run_to_entry_point(&clock, &model).unwrap();
            let exec = p.invoke_handler(&clock, &model).unwrap();
            (init.init_time, exec.exec_time)
        };
        let (init_a, exec_a) = run(&base);
        let (init_b, exec_b) = run(&shifted);
        assert!(init_b > init_a);
        // Fig. 16a: ~3× execution-latency reduction.
        let ratio = exec_a.as_nanos() as f64 / exec_b.as_nanos() as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn checkpoint_source_captures_everything() {
        let (clock, model) = setup();
        let mut p = WrappedProgram::start(&AppProfile::c_hello(), &clock, &model).unwrap();
        assert!(
            p.checkpoint_source(&clock, &model).is_err(),
            "must be at entry point"
        );
        p.run_to_entry_point(&clock, &model).unwrap();
        let src = p.checkpoint_source(&SimClock::new(), &model).unwrap();
        assert_eq!(src.objects.len() as u64, p.kernel.object_count());
        assert!(src.app_pages.len() as u64 >= 64, "heap captured");
        assert!(!src.io_conns.is_empty());
        // Pages carry the deterministic pattern.
        for page in src.app_pages.iter().take(8) {
            if page.vpn >= HEAP_BASE && page.vpn < HEAP_BASE + 64 {
                assert_eq!(page.data[0], heap_page_byte(page.vpn));
            }
        }
    }
}
