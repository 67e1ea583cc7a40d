//! Per-segment pruning metadata for LSM-style stores.
//!
//! The store in `hum-qbh` keeps the corpus as a write-optimized *memtable*
//! (recent inserts) over a list of immutable *segments* (flushed batches).
//! Each segment carries a [`SegmentMeta`]: a feature-space bounding box over
//! its projected features, which lets the executor ([`crate::exec`]) skip
//! the segment's leaves for an indexed ε-range query that cannot reach it,
//! and a bloom-style [`IdFilter`], which lets point operations (duplicate
//! checks, removals, lookups) skip segments that cannot hold an id.

use hum_index::Rect;

/// The splitmix64 finalizer: decorrelates clustered id ranges before they index bloom-filter bits.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bloom-style set of melody ids: ~10 bits and 6 probes per expected id
/// (false-positive rate under 1%), no false negatives. Point operations
/// (duplicate checks, removals, lookups) use it to skip segments that
/// cannot hold an id.
#[derive(Debug, Clone)]
pub struct IdFilter {
    bits: Vec<u64>,
    probes: u32,
}

impl IdFilter {
    /// An empty filter sized for `expected` ids (clamped to at least one
    /// 64-bit word).
    pub fn new(expected: usize) -> Self {
        let bit_count = expected.saturating_mul(10).next_power_of_two().max(64);
        IdFilter { bits: vec![0u64; bit_count / 64], probes: 6 }
    }

    /// Double hashing over two independent splitmix64 streams; `h2 | 1`
    /// keeps the stride odd, so probes cycle the power-of-two bit table.
    fn bit_positions(words: usize, probes: u32, id: u64) -> impl Iterator<Item = usize> {
        let h1 = mix64(id.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let h2 = mix64(id ^ 0xD1B5_4A32_D192_ED03) | 1;
        let mask = (words as u64 * 64) - 1;
        (0..probes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) & mask) as usize)
    }

    /// Records `id` in the filter.
    pub fn insert(&mut self, id: u64) {
        for pos in Self::bit_positions(self.bits.len(), self.probes, id) {
            self.bits[pos / 64] |= 1u64 << (pos % 64);
        }
    }

    /// `false` means `id` is definitely absent; `true` means it may be
    /// present.
    pub fn may_contain(&self, id: u64) -> bool {
        Self::bit_positions(self.bits.len(), self.probes, id)
            .all(|pos| self.bits[pos / 64] & (1u64 << (pos % 64)) != 0)
    }
}

/// Per-segment pruning metadata: the bounding box of the segment's
/// projected feature vectors plus an [`IdFilter`] over its melody ids.
/// Rebuilt from the segment's contents on load (never persisted — it is
/// derived state, and recomputing it keeps the on-disk format small and
/// the metadata impossible to desynchronize).
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    mbr: Option<Rect>,
    filter: IdFilter,
    len: usize,
}

impl SegmentMeta {
    /// Empty metadata expecting `expected` entries.
    pub fn new(expected: usize) -> Self {
        SegmentMeta { mbr: None, filter: IdFilter::new(expected), len: 0 }
    }

    /// Records one entry: its id and its *projected* feature vector.
    pub fn add(&mut self, id: u64, features: &[f64]) {
        match &mut self.mbr {
            Some(rect) => rect.extend_point(features),
            None => self.mbr = Some(Rect::from_point(features)),
        }
        self.filter.insert(id);
        self.len += 1;
    }

    /// Entries recorded so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The feature-space bounding box (`None` for an empty segment).
    pub fn mbr(&self) -> Option<&Rect> {
        self.mbr.as_ref()
    }

    /// `false` means the segment definitely does not hold `id`.
    pub fn may_contain_id(&self, id: u64) -> bool {
        self.len > 0 && self.filter.may_contain(id)
    }

    /// Conservative ε-range admission test: `false` only when *no* feature
    /// vector in the segment can pass the engine's index-level lower-bound
    /// filter (`min_dist_point(f) <= radius`), because every stored feature
    /// lies inside the box and `min_dist_rect` lower-bounds
    /// `min_dist_point` over it.
    pub fn may_intersect_range(&self, feature_box: &Rect, radius: f64) -> bool {
        match &self.mbr {
            Some(rect) => feature_box.min_dist_rect(rect) <= radius,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_filter_has_no_false_negatives_and_few_false_positives() {
        let mut filter = IdFilter::new(500);
        for id in 0..500u64 {
            filter.insert(id * 7 + 3);
        }
        for id in 0..500u64 {
            assert!(filter.may_contain(id * 7 + 3), "false negative on {id}");
        }
        let false_positives = (10_000..20_000u64).filter(|&id| filter.may_contain(id)).count();
        assert!(false_positives < 300, "{false_positives} false positives in 10k probes");
    }

    #[test]
    fn segment_meta_prunes_only_unreachable_boxes() {
        let mut meta = SegmentMeta::new(4);
        meta.add(1, &[0.0, 0.0]);
        meta.add(2, &[1.0, 2.0]);
        // Query box well inside the segment's reach.
        let near = Rect::new(vec![0.5, 0.5], vec![0.6, 0.6]);
        assert!(meta.may_intersect_range(&near, 0.0));
        // Query box 10 away in x: radius 5 cannot reach, radius 20 can.
        let far = Rect::new(vec![11.0, 0.0], vec![12.0, 0.0]);
        assert!(!meta.may_intersect_range(&far, 5.0));
        assert!(meta.may_intersect_range(&far, 20.0));
        // Empty segments never match anything.
        let empty = SegmentMeta::new(0);
        assert!(!empty.may_intersect_range(&near, 1e9));
        assert!(!empty.may_contain_id(1));
    }
}
