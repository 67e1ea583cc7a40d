//! Seeded workload inputs: the songbook corpus, the sung hums and the
//! melodies inserted during a run. Everything is a pure function of
//! `(workload, seed)`; the program under test sees only these values.

use hum_datasets::random_walk;
use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::{generate_hums, HumQuery};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Neighbours asked of every k-NN (the paper's top-10 retrieval bins).
pub const K: usize = 10;

/// Ids of inserted melodies start here, clear of every songbook id.
pub const INSERT_ID_BASE: u64 = 1_000_000;

/// How the traffic of a workload reaches the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// In-process calls, closed loop, from `threads` threads that share the
    /// system as a server's workers do.
    InProcess { threads: usize },
    /// Loopback TCP, closed loop over `connections` connections.
    ServedClosed { connections: usize },
    /// Loopback TCP over a store-backed system, open loop: every request
    /// is an independent user with a connection of its own; k-NN and
    /// ε-range each arrive `query_rate` times a second, inserts
    /// `insert_rate` times.
    ServedOpen { query_rate: f64, insert_rate: f64 },
}

/// The shape of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub songs: usize,
    pub phrases_per_song: usize,
    /// Distinct hums; queries cycle through them.
    pub hums: usize,
    /// Hums (the first ones) whose every answer is checked bit for bit
    /// against the brute-force oracle.
    pub checked: usize,
    pub traffic: Traffic,
}

/// The shape of a named workload; `smoke` shrinks it to a corpus of a few
/// hundred melodies for the schema check and the self-tests.
pub fn shape(workload: &str, smoke: bool) -> Option<Shape> {
    let open = Traffic::ServedOpen { query_rate: 24.0, insert_rate: 16.0 };
    let full = match workload {
        "hum_10k" => Shape {
            songs: 500,
            phrases_per_song: 20,
            hums: 1600,
            checked: 60,
            traffic: Traffic::InProcess { threads: 2 },
        },
        "hum_30k" => Shape {
            songs: 1500,
            phrases_per_song: 20,
            hums: 600,
            checked: 16,
            traffic: Traffic::InProcess { threads: 2 },
        },
        "serve_knn" => Shape {
            songs: 100,
            phrases_per_song: 20,
            hums: 200,
            checked: 60,
            traffic: Traffic::ServedClosed { connections: 2 },
        },
        "serve_mixed" => {
            Shape { songs: 250, phrases_per_song: 20, hums: 600, checked: 60, traffic: open }
        }
        _ => return None,
    };
    if !smoke {
        return Some(full);
    }
    Some(Shape { songs: if workload == "hum_30k" { 30 } else { 15 }, hums: 24, checked: 8, ..full })
}

/// The songbook corpus for a seed.
pub fn corpus(shape: &Shape, seed: u64) -> MelodyDatabase {
    MelodyDatabase::from_songbook(&SongbookConfig {
        songs: shape.songs,
        phrases_per_song: shape.phrases_per_song,
        seed,
        ..SongbookConfig::default()
    })
}

/// Sung hums, each aimed at a melody of the corpus: three good singers to
/// every poor one, interleaved so any stretch of the list has that mix.
///
/// Why not half and half: a poor singer's hum costs two to three times a
/// good one's, so with equal shares the median falls in the empty valley
/// between the two groups and jumps from seed to seed. At three to one the
/// median sits among the good singers and the 95th percentile among the
/// poor ones.
pub fn hums(db: &MelodyDatabase, count: usize, seed: u64) -> Vec<HumQuery> {
    let poor_count = count / 4;
    let good = generate_hums(db, SingerProfile::good(), count - poor_count, seed ^ 0x600D);
    let poor = generate_hums(db, SingerProfile::poor(), poor_count, seed ^ 0xBAD);
    let mut poor = poor.into_iter();
    let mut out = Vec::with_capacity(count);
    for (i, hum) in good.into_iter().enumerate() {
        out.push(hum);
        if i % 3 == 2 {
            out.extend(poor.next());
        }
    }
    out.extend(poor);
    out
}

/// One melody inserted during a run: a random-walk pitch series around
/// middle C, unlike any songbook phrase.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertMelody {
    pub id: u64,
    pub series: Vec<f64>,
}

/// The first `count` melodies of the seed's insert sequence.
pub fn insert_melodies(count: usize, seed: u64) -> Vec<InsertMelody> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0125_7E27);
    (0..count)
        .map(|i| {
            let len = rng.random_range(80..160usize);
            let series = random_walk(len, 0.7, &mut rng).into_iter().map(|v| 60.0 + v).collect();
            InsertMelody { id: INSERT_ID_BASE + i as u64, series }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let shape = shape("hum_10k", true).unwrap();
        let series = |db: &MelodyDatabase| -> Vec<Vec<f64>> {
            db.entries().iter().map(|e| e.melody().to_time_series(4)).collect()
        };
        let (a, b, c) = (corpus(&shape, 7), corpus(&shape, 7), corpus(&shape, 8));
        assert_eq!(series(&a), series(&b));
        assert_ne!(series(&a), series(&c));
        let key = |h: &[HumQuery]| -> Vec<(u64, Vec<f64>)> {
            h.iter().map(|q| (q.target, q.series.clone())).collect()
        };
        assert_eq!(key(&hums(&a, 9, 7)), key(&hums(&b, 9, 7)));
        assert_ne!(key(&hums(&a, 9, 7)), key(&hums(&a, 9, 8)));
        assert_eq!(hums(&a, 9, 7).len(), 9);
        assert_eq!(insert_melodies(5, 7), insert_melodies(5, 7));
        assert_ne!(insert_melodies(5, 7), insert_melodies(5, 8));
        // A longer sequence extends a shorter one, so a run that inserts
        // more sees the same first melodies.
        assert_eq!(insert_melodies(9, 7)[..5], insert_melodies(5, 7)[..]);
    }

    #[test]
    fn every_workload_has_a_shape() {
        for name in crate::spec::WORKLOADS {
            let full = shape(name, false).unwrap();
            let smoke = shape(name, true).unwrap();
            assert!(full.checked <= full.hums && smoke.checked <= smoke.hums);
            assert!(smoke.songs < full.songs);
        }
        assert!(shape("nope", false).is_none());
    }
}
