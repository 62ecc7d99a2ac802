//! Index-based slab arenas with generational handles.
//!
//! The discrete-event engine holds every instance and function in flat
//! `Vec` slabs addressed by copyable newtype ids — no `Rc<RefCell<...>>`
//! webs, no per-instance allocation on the hot path. Generations defeat the
//! classic stale-event bug: a keep-alive-expiry event scheduled against an
//! instance that has since been reclaimed (and its slot reused) carries the
//! old generation and simply misses.

/// Index of a function in the simulation's catalogue.
///
/// Functions are never removed, so a plain index suffices — no generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnId(u32);

impl FnId {
    /// The id for catalogue position `index` (saturates at `u32::MAX`;
    /// catalogues are validated to fit well below that).
    pub fn from_index(index: usize) -> FnId {
        FnId(u32::try_from(index).unwrap_or(u32::MAX))
    }

    /// The catalogue position this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Generational handle to one instance slot in an [`Arena`].
///
/// The slot index and generation are private to this module: outside it a
/// handle can only be resolved through the arena, which checks the
/// generation, so a stale handle misses instead of aliasing the slot's new
/// tenant.
///
/// ```
/// use platform::simulate::Arena;
///
/// let mut arena = Arena::new();
/// let id = arena.insert("a");
/// assert_eq!(arena.get(id), Some(&"a"));
/// arena.remove(id);
/// assert_eq!(arena.get(id), None);
/// ```
///
/// Indexing a side table by the raw slot does not compile:
///
/// ```compile_fail,E0624
/// use platform::simulate::Arena;
///
/// let mut arena = Arena::new();
/// let id = arena.insert("a");
/// let _ = id.index(); // private to `simulate::arena`
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId {
    index: u32,
    generation: u32,
}

impl InstanceId {
    fn index(self) -> usize {
        self.index as usize
    }

    /// A stable 64-bit key, used by the event queue's deterministic
    /// tie-break.
    pub fn key(self) -> u64 {
        (u64::from(self.index) << 32) | u64::from(self.generation)
    }

    /// The handle to slot `index` at `generation`, for tests that need
    /// handles no arena of test size reaches.
    #[cfg(test)]
    pub(crate) fn from_parts(index: u32, generation: u32) -> InstanceId {
        InstanceId { index, generation }
    }
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A slab arena with generational ids and a LIFO free list — deterministic
/// slot reuse, O(1) insert/remove/lookup, and a high-water mark for density
/// accounting.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Arena<T> {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
        }
    }

    /// An empty arena with room for `capacity` instances before
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Arena<T> {
        Arena {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
        }
    }

    /// Inserts `value`, reusing the most recently freed slot when one
    /// exists (LIFO: deterministic and cache-friendly).
    pub fn insert(&mut self, value: T) -> InstanceId {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if let Some(index) = self.free.pop() {
            if let Some(slot) = self.slots.get_mut(index as usize) {
                slot.value = Some(value);
                return InstanceId {
                    index,
                    generation: slot.generation,
                };
            }
        }
        let index = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        InstanceId {
            index,
            generation: 0,
        }
    }

    /// Removes the instance `id` points at, if the handle is still current.
    /// The slot's generation is bumped so every outstanding handle to it
    /// (stale expiry events, in particular) stops resolving.
    pub fn remove(&mut self, id: InstanceId) -> Option<T> {
        let slot = self.slots.get_mut(id.index())?;
        if slot.generation != id.generation || slot.value.is_none() {
            return None;
        }
        let value = slot.value.take();
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        self.live = self.live.saturating_sub(1);
        value
    }

    /// The instance `id` points at, if the handle is still current.
    pub fn get(&self, id: InstanceId) -> Option<&T> {
        let slot = self.slots.get(id.index())?;
        if slot.generation != id.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable access to the instance `id` points at.
    pub fn get_mut(&mut self, id: InstanceId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.index())?;
        if slot.generation != id.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// True when `id` still resolves.
    pub fn contains(&self, id: InstanceId) -> bool {
        self.get(id).is_some()
    }

    /// Live instances right now.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Most instances ever live at once — the arena's high-water mark, and
    /// the density number the Figure 15 extension reports.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Slots ever allocated (live + free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Every live instance with its current handle, in slot order —
    /// deterministic. The chaos layer sweeps a crashed node with this.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, &T)> {
        self.slots.iter().enumerate().filter_map(|(index, slot)| {
            slot.value.as_ref().map(|value| {
                (
                    InstanceId {
                        index: u32::try_from(index).unwrap_or(u32::MAX),
                        generation: slot.generation,
                    },
                    value,
                )
            })
        })
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut arena = Arena::new();
        let a = arena.insert("a");
        let b = arena.insert("b");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), Some(&"a"));
        assert_eq!(arena.remove(a), Some("a"));
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(a), None, "removed handle no longer resolves");
        assert_eq!(arena.get(b), Some(&"b"));
    }

    #[test]
    fn stale_handles_miss_after_slot_reuse() {
        let mut arena = Arena::new();
        let a = arena.insert(1u32);
        arena.remove(a);
        let b = arena.insert(2u32);
        // LIFO free list: b reuses a's slot, but under a new generation.
        assert_eq!(a.index(), b.index());
        assert_ne!(a.generation, b.generation);
        assert!(!arena.contains(a), "stale id must miss");
        assert_eq!(arena.get(b), Some(&2));
        assert_eq!(arena.remove(a), None, "double-free through stale id");
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut arena = Arena::new();
        let ids: Vec<_> = (0..5).map(|i| arena.insert(i)).collect();
        for id in &ids {
            arena.remove(*id);
        }
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.peak_live(), 5);
        assert_eq!(arena.capacity(), 5);
        arena.insert(9);
        assert_eq!(arena.peak_live(), 5, "peak is a high-water mark");
    }

    #[test]
    fn fn_id_round_trips() {
        assert_eq!(FnId::from_index(7).index(), 7);
        let id = InstanceId {
            index: 3,
            generation: 2,
        };
        assert_eq!(id.key(), (3u64 << 32) | 2);
    }
}
