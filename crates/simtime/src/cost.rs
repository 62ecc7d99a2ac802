use serde::{Deserialize, Serialize};

use crate::SimNanos;

/// Which physical machine a [`CostModel`] preset is calibrated against.
///
/// The paper evaluates on two boxes (§6.1): an 8-core i7-7700 desktop with a
/// SATA SSD ("the experimental machine", used for microbenchmarks and
/// breakdowns) and a 96-core 2.5 GHz server with 256 GB RAM from Ant Financial
/// (used for end-to-end latency and scalability, labelled `Catalyzer-Indus` /
/// `C-I` in Figures 13c and 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineKind {
    /// 8-core Intel i7-7700 @ 4.2 GHz, 32 GB RAM, SATA SSD.
    Experimental,
    /// 96-core @ 2.5 GHz, 256 GB RAM, datacenter NVMe.
    Server,
}

impl MachineKind {
    /// Human-readable label used in printed tables.
    pub fn label(self) -> &'static str {
        match self {
            MachineKind::Experimental => "experimental (i7-7700)",
            MachineKind::Server => "server (96-core)",
        }
    }
}

/// Host-process and container-runtime unit costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostCosts {
    /// `fork`+`exec` of a sandbox (Sentry) process. Paper Fig. 2: 0.319 ms.
    pub process_spawn: SimNanos,
    /// Parsing the OCI configuration bundle. Paper Fig. 2: 1.369 ms.
    pub config_parse_base: SimNanos,
    /// Additional parse cost per KiB of configuration beyond the base bundle.
    pub config_parse_per_kib: SimNanos,
    /// Mounting one filesystem (rootfs layer) through the I/O (gofer) process.
    pub mount_fs: SimNanos,
    /// Spawning the I/O (gofer) companion process.
    pub gofer_spawn: SimNanos,
    /// Setting up one Linux namespace (PID, USER, NET, ...).
    pub namespace_setup: SimNanos,
    /// Fixed daemon/cgroup overhead of a classic container runtime (Docker).
    pub container_runtime_overhead: SimNanos,
    /// Fixed overhead of a VM-in-container runtime (HyperContainer).
    pub hyper_runtime_overhead: SimNanos,
    /// Spawning one OS thread.
    pub thread_spawn: SimNanos,
    /// Joining / terminating one OS thread.
    pub thread_join: SimNanos,
    /// Saving one thread context into memory (transient single-thread, §4.1).
    pub thread_ctx_save: SimNanos,
    /// Restoring one thread context after `sfork` (re-expansion, §4.1).
    pub thread_ctx_restore: SimNanos,
    /// The `sfork` system call itself: CoW-duplicating the page tables and
    /// kernel bookkeeping of the transient single-threaded template.
    pub sfork_syscall: SimNanos,
    /// Base cost of any guest syscall trapping into the Sentry.
    pub syscall_base: SimNanos,
    /// Loading the wrapped program's task image into the sandbox.
    /// Paper Fig. 2: 19.889 ms.
    pub task_image_load: SimNanos,
}

/// KVM / hardware-virtualization unit costs (paper §6.7, Fig. 16b–c).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvmCosts {
    /// `KVM_CREATE_VM` ioctl.
    pub create_vm: SimNanos,
    /// `KVM_CREATE_VCPU` ioctl, per VCPU.
    pub create_vcpu: SimNanos,
    /// First-invocation latency of `kvcalloc` inside KVM.
    pub kvcalloc_base: SimNanos,
    /// Per-subsequent-invocation latency growth of `kvcalloc` (the allocator
    /// walks a longer freelist as VM management structures accumulate).
    pub kvcalloc_growth: SimNanos,
    /// `kvcalloc` latency when served from Catalyzer's dedicated KVM cache.
    pub kvcalloc_cached: SimNanos,
    /// Base latency of `KVM_SET_USER_MEMORY_REGION`.
    pub set_memory_region_base: SimNanos,
    /// Extra latency per *already-installed* region when Page Modification
    /// Logging is enabled (the default in upstream KVM).
    pub set_memory_region_pml_extra: SimNanos,
    /// Extra latency per already-installed region with PML disabled.
    pub set_memory_region_nopml_extra: SimNanos,
    /// Handling one EPT violation (VM exit + fault handling + resume).
    pub ept_violation: SimNanos,
    /// Booting a minimized guest Linux kernel (FireCracker's microVM path).
    pub guest_linux_boot: SimNanos,
}

/// Memory, paging, and storage unit costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemCosts {
    /// Decompression throughput, in nanoseconds per *output* byte.
    pub decompress_per_byte_ns: f64,
    /// Compression throughput, in nanoseconds per input byte (offline path).
    pub compress_per_byte_ns: f64,
    /// Plain memory-copy throughput, nanoseconds per byte.
    pub memcpy_per_byte_ns: f64,
    /// Sequential storage read throughput, nanoseconds per byte.
    pub disk_read_per_byte_ns: f64,
    /// Storage access latency for a new extent (seek / NVMe queue).
    pub disk_seek: SimNanos,
    /// One `mmap` system call (region setup, no population).
    pub mmap_call: SimNanos,
    /// Incremental `mmap` cost per MiB of region size (VMA bookkeeping).
    pub mmap_per_mib: SimNanos,
    /// Minor page fault (trap + handle + resume), excluding any copying.
    pub page_fault: SimNanos,
    /// `munmap`/teardown of a region.
    pub munmap_call: SimNanos,
    /// Compression ratio assumed when *charging* storage reads of classic
    /// images (the synthetic app memory in this reproduction is low-entropy
    /// and over-compresses; real JVM heaps compress to roughly this ratio).
    pub assumed_image_compression: f64,
}

/// Checkpoint-object (de)serialization unit costs (paper §3.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectCosts {
    /// Decoding one guest-kernel metadata object on the classic restore path
    /// (one-by-one deserialization; 37 838 objects ≈ 56.7 ms in the paper).
    pub decode_per_object: SimNanos,
    /// Encoding one object at checkpoint time (offline).
    pub encode_per_object: SimNanos,
    /// Patching one placeholder pointer through the relation table (stage 2
    /// of separated state recovery; embarrassingly parallel).
    pub fixup_per_pointer: SimNanos,
    /// Re-establishing the non-I/O system state carried by one object on the
    /// critical path (thread lists, timers, sessions).
    pub recover_per_object_non_io: SimNanos,
    /// Fixed overhead of the classic C/R restore machinery (state-file
    /// scanning, serializer/GC warm-up in the Golang sentry). Catalyzer's
    /// flat images avoid this entirely.
    pub classic_restore_fixed: SimNanos,
}

/// I/O-reconnection unit costs (paper §3.3, §6.7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IoCosts {
    /// Re-opening one file (a re-do `open()` through the gofer).
    pub open_file: SimNanos,
    /// Re-establishing one network connection.
    pub reconnect_socket: SimNanos,
    /// One round trip to the FS-server (gofer) process.
    pub gofer_rpc: SimNanos,
    /// Fast-path `dup`/`dup2` latency.
    pub dup_fast: SimNanos,
    /// Burst `dup` latency when the host fdtable must be expanded.
    pub dup_burst: SimNanos,
    /// The host fdtable doubles at this initial capacity (expansion causes
    /// the burst above; subsequent doublings at each power of two).
    pub fdtable_initial_capacity: u32,
    /// Replaying one cached I/O connection from the I/O cache (§3.3).
    pub io_cache_replay: SimNanos,
    /// Closing one descriptor.
    pub close_fd: SimNanos,
}

/// Every machine-level unit cost used by the simulation, calibrated against
/// the latencies printed in the paper (see `DESIGN.md` §6 for the mapping).
///
/// The model is plain data: experiments may tweak individual fields for
/// ablations (e.g. re-enabling PML reproduces Figure 16c's "Default" series).
///
/// # Example
///
/// ```
/// use simtime::CostModel;
///
/// let model = CostModel::experimental_machine();
/// // Paper Fig. 2: parsing the OCI config costs 1.369 ms.
/// assert_eq!(model.host.config_parse_base.as_millis_f64(), 1.369);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Which machine this model is calibrated for.
    pub machine: MachineKind,
    /// Host process / container runtime costs.
    pub host: HostCosts,
    /// KVM / virtualization costs.
    pub kvm: KvmCosts,
    /// Memory, paging, and storage costs.
    pub mem: MemCosts,
    /// Checkpoint-object costs.
    pub obj: ObjectCosts,
    /// I/O reconnection costs.
    pub io: IoCosts,
    /// Number of workers available for parallel restore stages.
    pub parallel_workers: usize,
}

impl CostModel {
    /// Cost model calibrated for the paper's experimental machine
    /// (i7-7700, 32 GB, SATA SSD; §6.1).
    pub fn experimental_machine() -> Self {
        CostModel {
            machine: MachineKind::Experimental,
            host: HostCosts {
                process_spawn: SimNanos::from_micros(319),
                config_parse_base: SimNanos::from_millis_f64(1.369),
                config_parse_per_kib: SimNanos::from_micros(45),
                mount_fs: SimNanos::from_millis_f64(1.6),
                gofer_spawn: SimNanos::from_micros(450),
                namespace_setup: SimNanos::from_micros(95),
                container_runtime_overhead: SimNanos::from_millis(82),
                hyper_runtime_overhead: SimNanos::from_millis(96),
                thread_spawn: SimNanos::from_micros(16),
                thread_join: SimNanos::from_micros(11),
                thread_ctx_save: SimNanos::from_micros(7),
                thread_ctx_restore: SimNanos::from_micros(9),
                sfork_syscall: SimNanos::from_micros(210),
                syscall_base: SimNanos::from_nanos(260),
                task_image_load: SimNanos::from_micros(19_889),
            },
            kvm: KvmCosts {
                create_vm: SimNanos::from_micros(310),
                create_vcpu: SimNanos::from_micros(85),
                kvcalloc_base: SimNanos::from_micros(85),
                kvcalloc_growth: SimNanos::from_micros(58),
                kvcalloc_cached: SimNanos::from_micros(38),
                set_memory_region_base: SimNanos::from_micros(52),
                set_memory_region_pml_extra: SimNanos::from_micros(610),
                set_memory_region_nopml_extra: SimNanos::from_micros(55),
                ept_violation: SimNanos::from_nanos(1_150),
                guest_linux_boot: SimNanos::from_millis(108),
            },
            mem: MemCosts {
                decompress_per_byte_ns: 0.55,
                compress_per_byte_ns: 1.05,
                memcpy_per_byte_ns: 0.10,
                disk_read_per_byte_ns: 0.50,
                disk_seek: SimNanos::from_micros(82),
                mmap_call: SimNanos::from_micros(4),
                mmap_per_mib: SimNanos::from_micros(2),
                page_fault: SimNanos::from_nanos(1_050),
                munmap_call: SimNanos::from_micros(6),
                assumed_image_compression: 0.6,
            },
            obj: ObjectCosts {
                decode_per_object: SimNanos::from_nanos(1_150),
                encode_per_object: SimNanos::from_nanos(2_050),
                fixup_per_pointer: SimNanos::from_nanos(150),
                recover_per_object_non_io: SimNanos::from_nanos(360),
                classic_restore_fixed: SimNanos::from_millis(85),
            },
            io: IoCosts {
                open_file: SimNanos::from_micros(92),
                reconnect_socket: SimNanos::from_micros(155),
                gofer_rpc: SimNanos::from_micros(31),
                dup_fast: SimNanos::from_nanos(1_200),
                dup_burst: SimNanos::from_millis(28),
                fdtable_initial_capacity: 64,
                io_cache_replay: SimNanos::from_micros(24),
                close_fd: SimNanos::from_nanos(900),
            },
            parallel_workers: 4,
        }
    }

    /// Cost model calibrated for the paper's 96-core server machine (§6.1).
    ///
    /// Individual cores are slower (2.5 GHz vs 4.2 GHz), so CPU-bound unit
    /// costs scale up by ~1.35×; storage is datacenter NVMe (faster), and far
    /// more workers are available for parallel restore stages.
    pub fn server_machine() -> Self {
        let base = Self::experimental_machine();
        let cpu = 1.35;
        CostModel {
            machine: MachineKind::Server,
            host: HostCosts {
                process_spawn: base.host.process_spawn.scale(cpu),
                config_parse_base: base.host.config_parse_base.scale(cpu),
                config_parse_per_kib: base.host.config_parse_per_kib.scale(cpu),
                mount_fs: base.host.mount_fs.scale(cpu),
                gofer_spawn: base.host.gofer_spawn.scale(cpu),
                namespace_setup: base.host.namespace_setup.scale(cpu),
                container_runtime_overhead: base.host.container_runtime_overhead.scale(cpu),
                hyper_runtime_overhead: base.host.hyper_runtime_overhead.scale(cpu),
                thread_spawn: base.host.thread_spawn.scale(cpu),
                thread_join: base.host.thread_join.scale(cpu),
                thread_ctx_save: base.host.thread_ctx_save.scale(cpu),
                thread_ctx_restore: base.host.thread_ctx_restore.scale(cpu),
                sfork_syscall: base.host.sfork_syscall.scale(cpu),
                syscall_base: base.host.syscall_base.scale(cpu),
                task_image_load: base.host.task_image_load.scale(cpu),
            },
            kvm: KvmCosts {
                create_vm: base.kvm.create_vm.scale(cpu),
                create_vcpu: base.kvm.create_vcpu.scale(cpu),
                kvcalloc_base: base.kvm.kvcalloc_base.scale(cpu),
                kvcalloc_growth: base.kvm.kvcalloc_growth.scale(cpu),
                kvcalloc_cached: base.kvm.kvcalloc_cached.scale(cpu),
                set_memory_region_base: base.kvm.set_memory_region_base.scale(cpu),
                set_memory_region_pml_extra: base.kvm.set_memory_region_pml_extra.scale(cpu),
                set_memory_region_nopml_extra: base.kvm.set_memory_region_nopml_extra.scale(cpu),
                ept_violation: base.kvm.ept_violation.scale(cpu),
                guest_linux_boot: base.kvm.guest_linux_boot.scale(cpu),
            },
            mem: MemCosts {
                decompress_per_byte_ns: base.mem.decompress_per_byte_ns * cpu,
                compress_per_byte_ns: base.mem.compress_per_byte_ns * cpu,
                memcpy_per_byte_ns: base.mem.memcpy_per_byte_ns,
                disk_read_per_byte_ns: 0.33, // datacenter NVMe, ~3 GB/s
                disk_seek: SimNanos::from_micros(25),
                mmap_call: base.mem.mmap_call.scale(cpu),
                mmap_per_mib: base.mem.mmap_per_mib.scale(cpu),
                page_fault: base.mem.page_fault.scale(cpu),
                munmap_call: base.mem.munmap_call.scale(cpu),
                assumed_image_compression: base.mem.assumed_image_compression,
            },
            obj: ObjectCosts {
                decode_per_object: base.obj.decode_per_object.scale(cpu),
                encode_per_object: base.obj.encode_per_object.scale(cpu),
                fixup_per_pointer: base.obj.fixup_per_pointer.scale(cpu),
                recover_per_object_non_io: base.obj.recover_per_object_non_io.scale(cpu),
                classic_restore_fixed: base.obj.classic_restore_fixed.scale(cpu),
            },
            io: IoCosts {
                open_file: base.io.open_file.scale(cpu),
                reconnect_socket: base.io.reconnect_socket.scale(cpu),
                gofer_rpc: base.io.gofer_rpc.scale(cpu),
                dup_fast: base.io.dup_fast.scale(cpu),
                dup_burst: base.io.dup_burst.scale(cpu),
                fdtable_initial_capacity: 64,
                io_cache_replay: base.io.io_cache_replay.scale(cpu),
                close_fd: base.io.close_fd.scale(cpu),
            },
            parallel_workers: 16,
        }
    }

    /// Bulk-memory cost helper: `bytes` of decompression.
    pub fn decompress(&self, bytes: u64) -> SimNanos {
        SimNanos::from_nanos((bytes as f64 * self.mem.decompress_per_byte_ns).round() as u64)
    }

    /// Bulk-memory cost helper: `bytes` of compression.
    pub fn compress(&self, bytes: u64) -> SimNanos {
        SimNanos::from_nanos((bytes as f64 * self.mem.compress_per_byte_ns).round() as u64)
    }

    /// Bulk-memory cost helper: `bytes` of plain copy.
    pub fn memcpy(&self, bytes: u64) -> SimNanos {
        SimNanos::from_nanos((bytes as f64 * self.mem.memcpy_per_byte_ns).round() as u64)
    }

    /// Storage cost helper: one sequential read of `bytes` (seek + transfer).
    pub fn disk_read(&self, bytes: u64) -> SimNanos {
        self.mem.disk_seek.saturating_add(SimNanos::from_nanos(
            (bytes as f64 * self.mem.disk_read_per_byte_ns).round() as u64,
        ))
    }

    /// `mmap` cost helper for a region of `bytes`.
    pub fn mmap_region(&self, bytes: u64) -> SimNanos {
        let mib = bytes.div_ceil(1 << 20);
        self.mem
            .mmap_call
            .saturating_add(self.mem.mmap_per_mib.saturating_mul(mib))
    }

    /// Copy-on-write fault cost: trap handling plus copying one page.
    pub fn cow_fault(&self, page_size: u64) -> SimNanos {
        self.mem
            .page_fault
            .saturating_add(self.kvm.ept_violation)
            .saturating_add(self.memcpy(page_size))
    }
}

impl Default for CostModel {
    /// The experimental machine — the box all microbenchmarks in the paper
    /// are reported on.
    fn default() -> Self {
        CostModel::experimental_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_expected() {
        let exp = CostModel::experimental_machine();
        let srv = CostModel::server_machine();
        assert_eq!(exp.machine, MachineKind::Experimental);
        assert_eq!(srv.machine, MachineKind::Server);
        // Server cores are slower per-op...
        assert!(srv.obj.decode_per_object > exp.obj.decode_per_object);
        // ...but storage is faster and parallelism wider.
        assert!(srv.mem.disk_read_per_byte_ns < exp.mem.disk_read_per_byte_ns);
        assert!(srv.parallel_workers > exp.parallel_workers);
    }

    #[test]
    fn fig2_sandbox_init_sums_to_paper_value() {
        // Paper Fig. 2: parse (1.369) + spawn (0.319) + kernel init (0.757) +
        // task image load (19.889) = 22.3 ms. The first two come straight from
        // the model; the remainder is charged by the gVisor engine. Here we
        // sanity-check the two model-level constants.
        let m = CostModel::experimental_machine();
        assert_eq!(m.host.config_parse_base.as_millis_f64(), 1.369);
        assert_eq!(m.host.process_spawn.as_millis_f64(), 0.319);
    }

    #[test]
    fn classic_memory_load_near_paper() {
        // Fig. 12: overlay memory removes ~261 ms of eager memory loading
        // for SPECjbb (200 MB): disk read of the compressed image +
        // decompression + copy into guest frames + per-page PTE install.
        let m = CostModel::experimental_machine();
        let uncompressed: u64 = 200 << 20;
        let pages = uncompressed / 4096;
        let compressed = (uncompressed as f64 * m.mem.assumed_image_compression) as u64;
        let total = m
            .disk_read(compressed)
            .saturating_add(m.decompress(uncompressed))
            .saturating_add(m.memcpy(uncompressed))
            .saturating_add(m.mem.page_fault.saturating_mul(pages));
        let ms = total.as_millis_f64();
        assert!((230.0..290.0).contains(&ms), "got {ms} ms");
    }

    #[test]
    fn classic_object_decode_near_paper() {
        // Paper Fig. 2: "Recover Kernel" is 56.723 ms for 37 838 objects —
        // one-by-one decoding plus non-I/O state re-establishment.
        let m = CostModel::experimental_machine();
        let per_obj = m
            .obj
            .decode_per_object
            .saturating_add(m.obj.recover_per_object_non_io);
        let ms = per_obj.saturating_mul(37_838).as_millis_f64();
        assert!((50.0..62.0).contains(&ms), "got {ms} ms");
    }

    #[test]
    fn helpers_are_monotone_in_size() {
        let m = CostModel::experimental_machine();
        assert!(m.decompress(2_000) > m.decompress(1_000));
        assert!(m.disk_read(1 << 20) > m.disk_read(1 << 10));
        assert!(m.mmap_region(64 << 20) > m.mmap_region(1 << 20));
        assert!(m.cow_fault(4096) > m.mem.page_fault);
    }

    #[test]
    fn model_round_trips_through_serde() {
        let m = CostModel::server_machine();
        let json = serde_json::to_string(&m).expect("serialize");
        let back: CostModel = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(m, back);
    }

    #[test]
    fn default_is_experimental() {
        assert_eq!(CostModel::default().machine, MachineKind::Experimental);
    }
}
