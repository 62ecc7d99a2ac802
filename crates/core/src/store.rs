//! The func-image store: offline compilation and caching of flat images.
//!
//! "A func-image is generated offline, which saves initialized state of a
//! serverless function" (paper §2.2, Fig. 5). The store runs the wrapped
//! program to its func-entry point once per function — on an *offline*
//! clock, never a boot's critical path — writes the flat image, and keeps
//! the mapped image plus the shared Base-EPT for warm boots.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::sync::Arc;

use guest_kernel::gofer::FsServer;
use imagefmt::flat::{self, FlatImage};
use memsim::{EptLayer, MappedImage};
use runtimes::{AppProfile, WrappedProgram};
use sandbox::SandboxError;
use simtime::{CostModel, SimClock, SimNanos};

/// Everything the store keeps per function.
pub struct StoredFunction {
    /// Parsed handle over the mapped func-image.
    pub flat: FlatImage,
    /// The per-function FS server (shared by every instance).
    pub fs: Arc<FsServer>,
    /// The shared Base-EPT, built by the first cold boot (§3.1).
    pub base: Option<Arc<EptLayer>>,
    /// How many instances have booted from this image.
    pub boots: u64,
}

impl fmt::Debug for StoredFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoredFunction")
            .field("objects", &self.flat.object_count())
            .field("pages", &self.flat.app_page_count())
            .field("base_built", &self.base.is_some())
            .field("boots", &self.boots)
            .finish()
    }
}

/// Compiles and caches func-images (one per function).
#[derive(Debug, Default)]
pub struct FuncImageStore {
    functions: HashMap<String, StoredFunction>,
    offline: SimClock,
}

impl FuncImageStore {
    /// An empty store.
    pub fn new() -> FuncImageStore {
        FuncImageStore::default()
    }

    /// Virtual time spent on offline compilation so far.
    pub fn offline_time(&self) -> SimNanos {
        self.offline.now()
    }

    /// True if `function` has a compiled image.
    pub fn contains(&self, function: &str) -> bool {
        self.functions.contains_key(function)
    }

    /// Compiles the func-image for `profile` if not cached: runs the wrapped
    /// program to its entry point, captures the checkpoint, and writes the
    /// flat image (§5's "func-image compilation", fully offline).
    ///
    /// # Errors
    ///
    /// Substrate errors from the offline initialization run.
    pub fn ensure_compiled(
        &mut self,
        profile: &AppProfile,
        model: &CostModel,
    ) -> Result<&mut StoredFunction, SandboxError> {
        let slot = match self.functions.entry(profile.name.clone()) {
            Entry::Occupied(stored) => return Ok(stored.into_mut()),
            Entry::Vacant(slot) => slot,
        };
        let fs = profile.build_fs_server();
        let mut program =
            WrappedProgram::start_with(profile, Arc::clone(&fs), &self.offline, model)?;
        program.run_to_entry_point(&self.offline, model)?;
        let src = program.checkpoint_source(&self.offline, model)?;
        let bytes = flat::write(&src, &self.offline, model);
        let image = MappedImage::new(format!("{}.func", profile.name), bytes);
        let flat = FlatImage::parse(&image, &self.offline, model)?;
        Ok(slot.insert(StoredFunction {
            flat,
            fs,
            base: None,
            boots: 0,
        }))
    }

    /// Looks up a compiled function.
    pub fn get_mut(&mut self, function: &str) -> Option<&mut StoredFunction> {
        self.functions.get_mut(function)
    }

    /// Looks up a compiled function (shared).
    pub fn get(&self, function: &str) -> Option<&StoredFunction> {
        self.functions.get(function)
    }

    /// Number of compiled functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True if nothing is compiled.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_once_and_caches() {
        let model = CostModel::experimental_machine();
        let mut store = FuncImageStore::new();
        let profile = AppProfile::c_hello();
        store.ensure_compiled(&profile, &model).unwrap();
        let t1 = store.offline_time();
        assert!(t1 > SimNanos::ZERO);
        store.ensure_compiled(&profile, &model).unwrap();
        assert_eq!(store.offline_time(), t1, "second call must be cached");
        assert_eq!(store.len(), 1);
        assert!(store.contains("C-hello"));
    }

    #[test]
    fn stored_image_matches_profile_shape() {
        let model = CostModel::experimental_machine();
        let mut store = FuncImageStore::new();
        let profile = AppProfile::python_hello();
        let stored = store.ensure_compiled(&profile, &model).unwrap();
        // Object graph within 10 % of the calibrated size; every heap page
        // captured.
        let objs = stored.flat.object_count();
        assert!(
            objs.abs_diff(profile.kernel_objects) < profile.kernel_objects / 5,
            "{objs}"
        );
        assert!(stored.flat.app_page_count() >= profile.init_heap_pages);
        assert!(
            stored.base.is_none(),
            "base is built by the first cold boot"
        );
    }

    /// The write side of the copy budget (ROADMAP 2(d)). Everything a
    /// compile leaves alive hangs off the `StoredFunction`, and the one
    /// image-sized buffer there is the written image itself: exactly the
    /// image's length, and what every page the store serves is a view of.
    /// (That the writer's `Vec` becomes this buffer without a copy is
    /// asserted hop by hop in `imagefmt` and `memsim`.)
    #[test]
    fn compile_leaves_one_image_buffer_and_serves_views_of_it() {
        let model = CostModel::experimental_machine();
        let mut store = FuncImageStore::new();
        let stored = store
            .ensure_compiled(&AppProfile::c_nginx(), &model)
            .unwrap();
        let image = stored.flat.image();
        let raw = image.raw_bytes();
        assert_eq!(raw.len() as u64, image.len());
        assert!(raw.len() as u64 > stored.flat.app_page_count() * memsim::PAGE_SIZE as u64);
        let clock = SimClock::new();
        for page in 0..image.pages() {
            let frame = image.load_page(page, &clock, &model).unwrap();
            assert!(frame.is_image_backed(), "page {page} was copied");
            assert!(raw.as_ptr_range().contains(&frame.bytes().as_ptr()));
        }
    }

    #[test]
    fn offline_compilation_includes_app_init() {
        let model = CostModel::experimental_machine();
        let mut store = FuncImageStore::new();
        store
            .ensure_compiled(&AppProfile::python_hello(), &model)
            .unwrap();
        // Offline time covers interpreter start (~84 ms) + capture + write.
        assert!(store.offline_time() > SimNanos::from_millis(84));
    }
}
