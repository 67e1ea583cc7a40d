//! The engine's series store: a slot-indexed, cache-line-aligned arena.
//!
//! Every stored series occupies one **slot**: its `f64` samples and — when
//! the engine's `f32` prefilter is on — its two directed-rounded mirror
//! planes ([`crate::kernel::prefilter`]), each at a fixed stride (the
//! series length rounded up to one cache line, [`F64_BLOCK`] doubles or
//! [`F32_BLOCK`] floats), so every slot's samples and every slot's mirror
//! start on a 64-byte boundary and a candidate costs no pointer chase:
//!
//! ```text
//! block b (BLOCK_SLOTS slots)
//!   samples: [ slot 0: n doubles + pad | slot 1 | ... ]        AlignedF64
//!   mirrors: [ slot 0: down + pad, up + pad | slot 1 | ... ]   AlignedF32
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

use crate::kernel::prefilter::mirror_into;
use crate::kernel::soa::{prefetch, AlignedF32, AlignedF64, F32_BLOCK, F64_BLOCK};

/// Slots per storage block. At the query-by-humming normal length (128
/// samples, 2 KiB a slot with mirrors) a block is 128 KiB: large enough
/// that 10⁵ series need under two thousand blocks, small enough that a
/// near-empty engine (a memtable, a small segment) wastes little.
const BLOCK_SLOTS: usize = 64;

/// One fixed-size run of slots.
#[derive(Debug, Clone)]
struct Block {
    samples: AlignedF64,
    /// Empty when the arena keeps no mirrors.
    mirrors: AlignedF32,
}

/// Slot-indexed storage of equal-length series. See the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct SeriesArena {
    series_len: usize,
    /// Doubles per slot in a block's `samples`.
    sample_stride: usize,
    /// Floats per mirror plane; a slot holds two (down, then up). Zero
    /// when the arena keeps no mirrors.
    plane_stride: usize,
    blocks: Vec<Block>,
    /// Slot → id, for the live slots `0..ids.len()`.
    ids: Vec<ItemId>,
    /// Id → slot.
    slots: HashMap<ItemId, u32>,
}

impl SeriesArena {
    /// An empty arena for series of `series_len` samples, with or without
    /// the `f32` mirror planes.
    pub(crate) fn new(series_len: usize, with_mirrors: bool) -> Self {
        SeriesArena {
            series_len,
            sample_stride: series_len.next_multiple_of(F64_BLOCK),
            plane_stride: if with_mirrors { series_len.next_multiple_of(F32_BLOCK) } else { 0 },
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

    /// The ids of the live slots, in slot order.
    pub(crate) fn ids(&self) -> &[ItemId] {
        &self.ids
    }

    /// The samples stored in a live slot.
    pub(crate) fn samples(&self, slot: u32) -> &[f64] {
        let (block, at) = self.locate(slot);
        let start = at * self.sample_stride;
        &block.samples.as_slice()[start..start + self.series_len]
    }

    /// The `(down, up)` mirror planes of a live slot, zero-padded to the
    /// plane stride; `None` when the arena keeps no mirrors.
    pub(crate) fn mirror(&self, slot: u32) -> Option<(&[f32], &[f32])> {
        if self.plane_stride == 0 {
            return None;
        }
        let (block, at) = self.locate(slot);
        let start = at * 2 * self.plane_stride;
        let planes = &block.mirrors.as_slice()[start..start + 2 * self.plane_stride];
        Some(planes.split_at(self.plane_stride))
    }

    /// Asks the CPU to start loading a live slot's mirror planes.
    pub(crate) fn prefetch_mirror(&self, slot: u32) {
        if let Some((down, up)) = self.mirror(slot) {
            prefetch(down);
            prefetch(up);
        }
    }

    /// Asks the CPU to start loading a live slot's samples.
    pub(crate) fn prefetch_samples(&self, slot: u32) {
        prefetch(self.samples(slot));
    }

    fn locate(&self, slot: u32) -> (&Block, usize) {
        debug_assert!((slot as usize) < self.ids.len(), "slot {slot} is not live");
        (&self.blocks[slot as usize / BLOCK_SLOTS], slot as usize % BLOCK_SLOTS)
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
        let (block, at) = (slot as usize / BLOCK_SLOTS, slot as usize % BLOCK_SLOTS);
        if block == self.blocks.len() {
            // Zero-filled: the cells past each series' end are the
            // padding the prefilter relies on, and nothing ever writes them.
            let mut fresh = Block { samples: AlignedF64::new(), mirrors: AlignedF32::new() };
            fresh.samples.reset(BLOCK_SLOTS * self.sample_stride, 0.0);
            fresh.mirrors.reset(BLOCK_SLOTS * 2 * self.plane_stride, 0.0);
            self.blocks.push(fresh);
        }
        let Block { samples, mirrors } = &mut self.blocks[block];
        let start = at * self.sample_stride;
        samples.as_mut_slice()[start..start + self.series_len].copy_from_slice(series);
        if self.plane_stride > 0 {
            let start = at * 2 * self.plane_stride;
            let planes = &mut mirrors.as_mut_slice()[start..start + 2 * self.plane_stride];
            let (down, up) = planes.split_at_mut(self.plane_stride);
            mirror_into(series, down, up);
        }
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

    /// Copies slot `from`'s samples and mirrors over slot `to`'s
    /// (`to < from`), padding included.
    fn move_slot(&mut self, from: usize, to: usize) {
        let (from_block, from_at) = (from / BLOCK_SLOTS, from % BLOCK_SLOTS);
        let (to_block, to_at) = (to / BLOCK_SLOTS, to % BLOCK_SLOTS);
        let (samples, planes) = (self.sample_stride, 2 * self.plane_stride);
        if from_block == to_block {
            let block = &mut self.blocks[from_block];
            let src = from_at * samples;
            block.samples.as_mut_slice().copy_within(src..src + samples, to_at * samples);
            let src = from_at * planes;
            block.mirrors.as_mut_slice().copy_within(src..src + planes, to_at * planes);
        } else {
            let (head, tail) = self.blocks.split_at_mut(from_block);
            let (dst, src) = (&mut head[to_block], &tail[0]);
            dst.samples.as_mut_slice()[to_at * samples..][..samples]
                .copy_from_slice(&src.samples.as_slice()[from_at * samples..][..samples]);
            dst.mirrors.as_mut_slice()[to_at * planes..][..planes]
                .copy_from_slice(&src.mirrors.as_slice()[from_at * planes..][..planes]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::prefilter::SeriesMirror;

    const LEN: usize = 20; // neither stride's multiple: both planes carry padding

    fn series(tag: u64) -> Vec<f64> {
        (0..LEN).map(|i| (tag * 31 + i as u64) as f64 * 0.1 - 3.0).collect()
    }

    /// Every live slot holds its id's samples and exactly the mirror
    /// `SeriesMirror::build` produces (zero padding included), 64-byte
    /// aligned.
    fn check(arena: &SeriesArena, model: &[(ItemId, Vec<f64>)]) {
        assert_eq!(arena.len(), model.len());
        assert_eq!(arena.is_empty(), model.is_empty());
        for (id, want) in model {
            let slot = arena.slot_of(*id).expect("stored");
            assert_eq!(arena.id_at(slot), *id);
            assert_eq!(arena.samples(slot), want.as_slice());
            assert_eq!(arena.samples(slot).as_ptr() as usize % 64, 0);
            let (down, up) = arena.mirror(slot).expect("mirrors on");
            let mirror = SeriesMirror::build(want);
            assert_eq!(down, mirror.down());
            assert_eq!(up, mirror.up());
            assert_eq!(down.as_ptr() as usize % 64, 0);
        }
        let mut ids: Vec<ItemId> = arena.ids().to_vec();
        ids.sort_unstable();
        let mut want: Vec<ItemId> = model.iter().map(|(id, _)| *id).collect();
        want.sort_unstable();
        assert_eq!(ids, want);
    }

    #[test]
    fn removal_fills_the_hole_from_the_last_slot_across_blocks() {
        let mut arena = SeriesArena::new(LEN, true);
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
    fn without_mirrors_no_plane_is_kept() {
        let mut arena = SeriesArena::new(LEN, false);
        let slot = arena.insert(1, &series(1));
        arena.insert(2, &series(2));
        assert!(arena.mirror(slot).is_none());
        assert!(arena.blocks[0].mirrors.is_empty());
        assert!(arena.remove(1));
        assert_eq!(arena.samples(arena.slot_of(2).unwrap()), series(2).as_slice());
    }

    #[test]
    fn clones_are_independent() {
        let mut arena = SeriesArena::new(LEN, true);
        arena.insert(1, &series(1));
        arena.insert(2, &series(2));
        let snapshot = arena.clone();
        assert!(arena.remove(1));
        arena.insert(3, &series(3));
        check(&snapshot, &[(1, series(1)), (2, series(2))]);
        check(&arena, &[(2, series(2)), (3, series(3))]);
    }
}
