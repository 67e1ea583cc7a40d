//! The independent brute-force oracle.
//!
//! Holds the harness's *own* copy of every normal form — `NormalForm::apply`
//! of the series the harness generated — and answers by computing
//! `hum_core::dtw::ldtw_distance` against all of them. It never touches
//! the engine's index, cascade or scan path, so agreement with it, bit for
//! bit, is evidence and not tautology.

use hum_core::dtw::{band_for_warping_width, ldtw_distance};
use hum_core::normal::NormalForm;
use hum_qbh::QbhConfig;

/// `(melody id, exact banded DTW distance)`, the form every answer takes.
pub type Match = (u64, f64);

/// Total order every answer list is in: ascending distance, ties by id.
fn by_distance_then_id(a: &Match, b: &Match) -> std::cmp::Ordering {
    a.1.partial_cmp(&b.1).expect("finite distances").then_with(|| a.0.cmp(&b.0))
}

/// One checked hum: its normal form and its distance to every melody the
/// oracle knows, base corpus first, inserted melodies after.
struct CheckedHum {
    normal: Vec<f64>,
    base: Vec<f64>,
    inserted: Vec<f64>,
}

/// Brute-force ground truth over a base corpus plus melodies inserted
/// during the run.
pub struct Oracle {
    normal: NormalForm,
    band: usize,
    base_ids: Vec<u64>,
    base_normals: Vec<Vec<f64>>,
    inserted_ids: Vec<u64>,
    hums: Vec<CheckedHum>,
}

impl Oracle {
    /// Normalises the base corpus under the system's default configuration
    /// (normal length and warping width are inputs, not engine code) and
    /// precomputes every checked hum's distance to every base melody, on
    /// `threads` threads.
    pub fn new(base: &[(u64, Vec<f64>)], checked_hums: &[&[f64]], threads: usize) -> Oracle {
        let config = QbhConfig::default();
        let normal = NormalForm::with_length(config.normal_length);
        let band = band_for_warping_width(config.warping_width, config.normal_length);
        let base_ids = base.iter().map(|(id, _)| *id).collect();
        let base_normals: Vec<Vec<f64>> = base.iter().map(|(_, s)| normal.apply(s)).collect();
        let queries: Vec<Vec<f64>> = checked_hums.iter().map(|h| normal.apply(h)).collect();
        let chunk = queries.len().div_ceil(threads.max(1)).max(1);
        let mut hums = Vec::with_capacity(queries.len());
        std::thread::scope(|scope| {
            let workers: Vec<_> = queries
                .chunks(chunk)
                .map(|part| {
                    let base_normals = &base_normals;
                    scope.spawn(move || {
                        part.iter()
                            .map(|q| CheckedHum {
                                base: base_normals
                                    .iter()
                                    .map(|nf| ldtw_distance(q, nf, band))
                                    .collect(),
                                normal: q.clone(),
                                inserted: Vec::new(),
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                hums.extend(worker.join().expect("oracle worker panicked"));
            }
        });
        Oracle { normal, band, base_ids, base_normals, inserted_ids: Vec::new(), hums }
    }

    /// The oracle's normal forms of the base corpus, in corpus order.
    pub fn base_normals(&self) -> &[Vec<f64>] {
        &self.base_normals
    }

    /// Number of checked hums.
    pub fn checked(&self) -> usize {
        self.hums.len()
    }

    /// Registers the melodies a run inserts (raw pitch series), in insert
    /// order; `visible` arguments below index into this list.
    pub fn add_inserted(&mut self, melodies: &[(u64, &[f64])]) {
        for (id, series) in melodies {
            let nf = self.normal.apply(series);
            self.inserted_ids.push(*id);
            for hum in &mut self.hums {
                hum.inserted.push(ldtw_distance(&hum.normal, &nf, self.band));
            }
        }
    }

    /// Every `(id, distance)` of checked hum `hum` over the base corpus and
    /// the inserted melodies `visible` admits, unsorted.
    fn pool(&self, hum: usize, visible: &dyn Fn(usize) -> bool) -> Vec<Match> {
        let h = &self.hums[hum];
        let base = self.base_ids.iter().copied().zip(h.base.iter().copied());
        let inserted = self
            .inserted_ids
            .iter()
            .copied()
            .zip(h.inserted.iter().copied())
            .enumerate()
            .filter(|(i, _)| visible(*i))
            .map(|(_, m)| m);
        base.chain(inserted).collect()
    }

    /// The `k` nearest melodies of a checked hum.
    pub fn knn(&self, hum: usize, k: usize, visible: &dyn Fn(usize) -> bool) -> Vec<Match> {
        let mut pool = self.pool(hum, visible);
        pool.sort_by(by_distance_then_id);
        pool.truncate(k);
        pool
    }

    /// Every melody within `radius` of a checked hum.
    pub fn range(&self, hum: usize, radius: f64, visible: &dyn Fn(usize) -> bool) -> Vec<Match> {
        let mut pool = self.pool(hum, visible);
        pool.retain(|m| m.1 <= radius);
        pool.sort_by(by_distance_then_id);
        pool
    }
}

/// Bit-for-bit equality of two answer lists (`==` on `f64` would accept
/// `0.0 == -0.0`; the claim checked is identical bits).
pub fn identical(a: &[Match], b: &[Match]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(phase: f64, len: usize) -> Vec<f64> {
        (0..len).map(|i| 60.0 + 5.0 * (i as f64 * 0.2 + phase).sin()).collect()
    }

    #[test]
    fn answers_are_sorted_exact_and_respect_visibility() {
        let base: Vec<(u64, Vec<f64>)> =
            (0..30).map(|i| (i, wave(i as f64 * 0.3, 90 + i as usize))).collect();
        let hum = wave(0.65, 100);
        let mut oracle = Oracle::new(&base, &[&hum], 2);
        let all = |_: usize| true;
        let none = |_: usize| false;
        let top = oracle.knn(0, 5, &all);
        assert_eq!(top.len(), 5);
        assert!(top.windows(2).all(|w| by_distance_then_id(&w[0], &w[1]).is_lt()));
        // The distances are the plain kernel's own.
        let normal = NormalForm::with_length(128);
        let q = normal.apply(&hum);
        for (id, d) in &top {
            let nf = normal.apply(&base[*id as usize].1);
            assert_eq!(d.to_bits(), ldtw_distance(&q, &nf, oracle.band).to_bits());
        }
        // A range at the k-th distance holds exactly the top k.
        let within = oracle.range(0, top[4].1, &all);
        assert!(identical(&within, &top));
        // An inserted copy of the hum becomes the nearest neighbour, but
        // only once visible.
        oracle.add_inserted(&[(1_000_000, &hum)]);
        assert_eq!(oracle.knn(0, 5, &all)[0], (1_000_000, 0.0));
        assert!(identical(&oracle.knn(0, 5, &none), &top));
    }
}
