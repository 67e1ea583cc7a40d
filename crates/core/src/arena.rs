//! The engine's series store: a slot-indexed, cache-line-aligned arena.
//!
//! Every stored series occupies one **slot**: its `f64` samples at a fixed
//! stride (the series length rounded up to one cache line, [`F64_BLOCK`]
//! doubles), so every slot starts on a 64-byte boundary and a candidate
//! costs no pointer chase:
//!
//! ```text
//! block b (BLOCK_SLOTS slots)
//!   samples: [ slot 0: n doubles + pad | slot 1 | ... ]        AlignedF64
//! ```
//!
//! Storage grows one fixed-size block at a time, so no insert ever copies
//! the corpus. Slots are dense: `0..len()` are live, in insertion order
//! until the first removal. **Removal moves the last slot into the hole**
//! (and releases the last block once it is empty), so it invalidates slot
//! numbers; a slot number is therefore good only while the arena is
//! borrowed — the engine resolves ids to slots at the top of a query
//! (`&self`) and drops them before it returns; nothing outside the engine,
//! the spatial index included, ever holds one. Ids map to slots through a
//! `HashMap` with the standard library's keyed hasher: ids arrive off the
//! wire, and a fixed hash would let a client craft colliding ones.
//!
//! The arena stores what it is given; validating a series (length,
//! finiteness, duplicate id) is the engine's job, done before it calls
//! [`SeriesArena::insert`].

use std::collections::HashMap;

use hum_index::ItemId;

use crate::kernel::soa::{prefetch, AlignedF64, F64_BLOCK};

/// Slots per storage block. At the query-by-humming normal length (128
/// samples, 1 KiB a slot) a block is 64 KiB: large enough that 10⁵ series
/// need under two thousand blocks, small enough that a near-empty engine
/// (a memtable, a small segment) wastes little.
const BLOCK_SLOTS: usize = 64;

/// The block holding `slot` and the slot's position inside it.
const fn place(slot: usize) -> (usize, usize) {
    (slot / BLOCK_SLOTS, slot % BLOCK_SLOTS)
}

/// Slot-indexed storage of equal-length series. See the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct SeriesArena {
    series_len: usize,
    /// Doubles per slot in a block.
    stride: usize,
    /// One fixed-size run of [`BLOCK_SLOTS`] slots each.
    blocks: Vec<AlignedF64>,
    /// Slot → id, for the live slots `0..ids.len()`.
    ids: Vec<ItemId>,
    /// Id → slot.
    slots: HashMap<ItemId, u32>,
}

impl SeriesArena {
    /// An empty arena for series of `series_len` samples.
    pub(crate) fn new(series_len: usize) -> Self {
        SeriesArena {
            series_len,
            stride: series_len.next_multiple_of(F64_BLOCK),
            blocks: Vec::new(),
            ids: Vec::new(),
            slots: HashMap::new(),
        }
    }

    /// Number of stored series.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when nothing is stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The slot holding `id`, if it is stored.
    pub(crate) fn slot_of(&self, id: ItemId) -> Option<u32> {
        self.slots.get(&id).copied()
    }

    /// The id stored in a live slot.
    pub(crate) fn id_at(&self, slot: u32) -> ItemId {
        self.ids[slot as usize]
    }

    /// The samples stored in a live slot.
    pub(crate) fn samples(&self, slot: u32) -> &[f64] {
        debug_assert!((slot as usize) < self.ids.len(), "slot {slot} is not live");
        let (block, at) = place(slot as usize);
        let start = at * self.stride;
        &self.blocks[block].as_slice()[start..start + self.series_len]
    }

    /// Asks the CPU to start loading a live slot's samples.
    pub(crate) fn prefetch_samples(&self, slot: u32) {
        prefetch(self.samples(slot));
    }

    /// Stores `series` under `id` in the next free slot and returns the
    /// slot.
    ///
    /// # Panics
    /// Panics if the length differs from the arena's, `id` is already
    /// stored, or the arena holds `u32::MAX` series — the engine checks the
    /// first two before it calls.
    pub(crate) fn insert(&mut self, id: ItemId, series: &[f64]) -> u32 {
        assert_eq!(series.len(), self.series_len, "arena series length");
        let slot = u32::try_from(self.ids.len()).expect("arena holds at most u32::MAX series");
        let previous = self.slots.insert(id, slot);
        assert!(previous.is_none(), "id {id} is already stored");
        let (block, at) = place(slot as usize);
        if block == self.blocks.len() {
            let mut fresh = AlignedF64::new();
            fresh.reset(BLOCK_SLOTS * self.stride, 0.0);
            self.blocks.push(fresh);
        }
        let start = at * self.stride;
        self.blocks[block].as_mut_slice()[start..start + self.series_len].copy_from_slice(series);
        self.ids.push(id);
        slot
    }

    /// Removes the series stored under `id`, moving the last slot into its
    /// place. Returns `false` if `id` is not stored.
    pub(crate) fn remove(&mut self, id: ItemId) -> bool {
        let Some(hole) = self.slots.remove(&id) else { return false };
        let hole = hole as usize;
        let last = self.ids.len() - 1;
        if hole != last {
            self.move_slot(last, hole);
            let moved = self.ids[last];
            self.ids[hole] = moved;
            self.slots.insert(moved, hole as u32);
        }
        self.ids.pop();
        self.blocks.truncate(self.ids.len().div_ceil(BLOCK_SLOTS));
        true
    }

    /// Copies slot `from`'s samples over slot `to`'s (`to < from`), padding
    /// included.
    fn move_slot(&mut self, from: usize, to: usize) {
        let (from_block, from_at) = place(from);
        let (to_block, to_at) = place(to);
        let stride = self.stride;
        if from_block == to_block {
            let src = from_at * stride;
            self.blocks[from_block].as_mut_slice().copy_within(src..src + stride, to_at * stride);
        } else {
            let (head, tail) = self.blocks.split_at_mut(from_block);
            head[to_block].as_mut_slice()[to_at * stride..][..stride]
                .copy_from_slice(&tail[0].as_slice()[from_at * stride..][..stride]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEN: usize = 20; // not the stride's multiple: every slot carries padding

    fn series(tag: u64) -> Vec<f64> {
        (0..LEN).map(|i| (tag * 31 + i as u64) as f64 * 0.1 - 3.0).collect()
    }

    /// Every live slot holds its id's samples, 64-byte aligned.
    fn check(arena: &SeriesArena, model: &[(ItemId, Vec<f64>)]) {
        assert_eq!(arena.len(), model.len());
        assert_eq!(arena.is_empty(), model.is_empty());
        for (id, want) in model {
            let slot = arena.slot_of(*id).expect("stored");
            assert_eq!(arena.id_at(slot), *id);
            assert_eq!(arena.samples(slot), want.as_slice());
            assert_eq!(arena.samples(slot).as_ptr() as usize % 64, 0);
        }
        let mut ids: Vec<ItemId> = (0..arena.len() as u32).map(|slot| arena.id_at(slot)).collect();
        ids.sort_unstable();
        let mut want: Vec<ItemId> = model.iter().map(|(id, _)| *id).collect();
        want.sort_unstable();
        assert_eq!(ids, want);
    }

    #[test]
    fn removal_fills_the_hole_from_the_last_slot_across_blocks() {
        let mut arena = SeriesArena::new(LEN);
        let mut model: Vec<(ItemId, Vec<f64>)> = Vec::new();
        for id in 0..(2 * BLOCK_SLOTS as u64 + 3) {
            assert_eq!(arena.insert(id * 7, &series(id)) as u64, id);
            model.push((id * 7, series(id)));
        }
        assert_eq!(arena.blocks.len(), 3);
        check(&arena, &model);
        // A middle slot of the first block (filled from the third block),
        // the last slot, a slot of the last block, then down to empty.
        for victim in [5 * 7, (2 * BLOCK_SLOTS as u64 + 2) * 7, (2 * BLOCK_SLOTS as u64) * 7] {
            assert!(arena.remove(victim));
            assert!(!arena.remove(victim), "already removed");
            model.retain(|(id, _)| *id != victim);
            check(&arena, &model);
        }
        assert_eq!(arena.blocks.len(), 2, "the emptied third block is released");
        while let Some((id, _)) = model.pop() {
            assert!(arena.remove(id));
            check(&arena, &model);
        }
        assert!(arena.blocks.is_empty());
        // The only slot, removed and stored again.
        arena.insert(9, &series(9));
        assert!(arena.remove(9));
        arena.insert(9, &series(10));
        check(&arena, &[(9, series(10))]);
    }

    #[test]
    fn a_full_block_allocates_sample_planes_only() {
        let mut arena = SeriesArena::new(LEN);
        for id in 0..BLOCK_SLOTS as u64 {
            arena.insert(id, &series(id));
        }
        assert_eq!(arena.blocks.len(), 1);
        let bytes: usize = arena.blocks.iter().map(|b| std::mem::size_of_val(b.as_slice())).sum();
        assert_eq!(bytes, BLOCK_SLOTS * arena.stride * 8);
    }

    #[test]
    fn clones_are_independent() {
        let mut arena = SeriesArena::new(LEN);
        arena.insert(1, &series(1));
        arena.insert(2, &series(2));
        let snapshot = arena.clone();
        assert!(arena.remove(1));
        arena.insert(3, &series(3));
        check(&snapshot, &[(1, series(1)), (2, series(2))]);
        check(&arena, &[(2, series(2)), (3, series(3))]);
    }
}
