//! Fault-injection and corruption-fuzzing suite for the store's on-disk
//! formats (`hum_qbh::store` segments and manifests, framed by
//! `hum_qbh::storage`).
//!
//! The durability contract under test: every short write, injected I/O
//! error, truncation, or bit flip surfaces as a typed [`StorageError`] —
//! never a panic, and never silently wrong data. The matrices below are
//! exhaustive over a small image of each format: every byte budget, every
//! truncation length, every single-bit corruption. (Tests named `…_v2`
//! exercise that checksummed framing; the suffix only keeps their ids
//! stable.)

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::fault::{flip_bit, FailingReader, FailingWriter, FaultMode, TempPath};
use hum_qbh::storage::StorageError;
use hum_qbh::store::{self as segstore, Manifest, SegmentEntry, SegmentRef};
use hum_qbh::system::{QbhConfig, QbhSystem, StoreOptions};
use proptest::prelude::*;

/// One image of each on-disk format. Every matrix below runs over both.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    config: QbhConfig,
    entries: Vec<SegmentEntry>,
    manifest: Manifest,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Segment,
    Manifest,
}

const FORMATS: [Format; 2] = [Format::Segment, Format::Manifest];

/// What a successful read decoded, for exact comparison.
#[derive(Debug, PartialEq)]
enum Decoded {
    Segment(QbhConfig, Vec<SegmentEntry>),
    Manifest(Manifest),
}

impl Format {
    fn write<W: Write>(self, out: &mut W, sample: &Sample) -> Result<u64, StorageError> {
        match self {
            Format::Segment => segstore::write_segment(out, &sample.config, &sample.entries),
            Format::Manifest => segstore::write_manifest(out, &sample.manifest),
        }
    }

    fn read<R: Read>(self, input: &mut R) -> Result<Decoded, StorageError> {
        match self {
            Format::Segment => {
                segstore::read_segment(input).map(|(config, entries)| Decoded::Segment(config, entries))
            }
            Format::Manifest => segstore::read_manifest(input).map(Decoded::Manifest),
        }
    }

    fn image(self, sample: &Sample) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write(&mut bytes, sample).expect("serialize");
        bytes
    }

    fn decoded(self, sample: &Sample) -> Decoded {
        match self {
            Format::Segment => Decoded::Segment(sample.config, sample.entries.clone()),
            Format::Manifest => Decoded::Manifest(sample.manifest.clone()),
        }
    }

    /// Atomically saves this format's file into the store directory `dir`.
    fn save(self, dir: &Path, sample: &Sample) -> Result<u64, StorageError> {
        match self {
            Format::Segment => segstore::save_segment(dir, 0, &sample.config, &sample.entries),
            Format::Manifest => segstore::save_manifest(dir, &sample.manifest),
        }
    }

    fn path(self, dir: &Path) -> PathBuf {
        match self {
            Format::Segment => segstore::segment_path(dir, 0),
            Format::Manifest => segstore::manifest_path(dir),
        }
    }

    fn load(self, dir: &Path) -> Result<Decoded, StorageError> {
        self.read(&mut io::BufReader::new(std::fs::File::open(self.path(dir))?))
    }
}

/// A manifest and a segment over a short normal form, so the O(bytes ×
/// bits) sweeps stay fast while every section kind (config, entries,
/// segments, tombstones, the reserved plan byte) is present.
fn sample() -> Sample {
    let config = QbhConfig { normal_length: 16, feature_dims: 4, ..QbhConfig::default() };
    sample_with(config, 3, 1)
}

/// `count` entries under `config`; `salt` varies every payload byte.
fn sample_with(config: QbhConfig, count: usize, salt: u64) -> Sample {
    let entries = (0..count)
        .map(|i| SegmentEntry {
            id: (i as u64 + 1) * (salt + 2),
            song: i,
            phrase: (salt as usize + i) % 5,
            series: (0..config.normal_length)
                .map(|t| 55.0 + ((t as u64 + salt) as f64 * 0.37 * (i + 1) as f64).sin())
                .collect(),
        })
        .collect();
    let manifest = Manifest {
        config,
        segments: vec![SegmentRef { id: 0, count: count as u64 }, SegmentRef { id: salt + 1, count: 1 }],
        tombstones: vec![salt + 2, salt + 40],
    };
    Sample { config, entries, manifest }
}

fn store_dir(tag: &str) -> TempPath {
    let dir = TempPath::unique(tag);
    std::fs::create_dir_all(dir.path()).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// Write-side fault matrix.

#[test]
fn every_write_budget_fails_typed_in_both_modes() {
    let sample = sample();
    for format in FORMATS {
        let len = format.image(&sample).len() as u64;
        for mode in [FaultMode::Error(io::ErrorKind::Other), FaultMode::Cutoff] {
            for budget in 0..len {
                let mut w = FailingWriter::new(Vec::new(), budget, mode);
                let err = format
                    .write(&mut w, &sample)
                    .expect_err("a write that cannot complete must error");
                assert!(
                    matches!(err, StorageError::Io(_)),
                    "{format:?} budget {budget} mode {mode:?}: expected Io, got {err:?}"
                );
                // Never more bytes on the device than the budget allowed.
                assert!(w.into_inner().len() as u64 <= budget);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Read-side fault matrix: injected errors, cutoffs, and plain truncation.

#[test]
fn every_read_budget_fails_typed_in_both_modes() {
    let sample = sample();
    for format in FORMATS {
        let image = format.image(&sample);
        for mode in [FaultMode::Error(io::ErrorKind::Other), FaultMode::Cutoff] {
            for budget in 0..image.len() as u64 {
                let mut r = FailingReader::new(image.as_slice(), budget, mode);
                let err = format.read(&mut r).expect_err("a read that cannot complete must error");
                assert!(
                    matches!(err, StorageError::Io(_)),
                    "{format:?} budget {budget} mode {mode:?}: got {err:?}"
                );
            }
        }
    }
}

#[test]
fn every_truncation_of_either_format_fails_typed() {
    let sample = sample();
    for format in FORMATS {
        let image = format.image(&sample);
        for cut in 0..image.len() {
            let err = format
                .read(&mut &image[..cut])
                .expect_err("a strict prefix is never a valid file");
            assert!(
                matches!(err, StorageError::Io(_)),
                "{format:?} cut {cut}/{}: got {err:?}",
                image.len()
            );
        }
    }
}

#[test]
fn appended_trailing_bytes_are_rejected_for_v2() {
    let sample = sample();
    for format in FORMATS {
        let mut image = format.image(&sample);
        image.push(0);
        let err = format.read(&mut image.as_slice()).expect_err("trailing byte");
        assert!(matches!(err, StorageError::Corrupt(_)), "{format:?}: got {err:?}");
    }
}

// ---------------------------------------------------------------------------
// Bit-flip matrix.

/// Every single-bit corruption of either image must fail typed: the
/// whole-file CRC32 guarantees no single-bit flip can round-trip, and the
/// per-section checksums plus bounded parsing guarantee it cannot panic or
/// allocate absurdly on the way to that error.
#[test]
fn every_single_bit_flip_of_a_v2_image_fails_typed() {
    let sample = sample();
    for format in FORMATS {
        let image = format.image(&sample);
        for index in 0..image.len() {
            for bit in 0..8u8 {
                let mut corrupted = image.clone();
                flip_bit(&mut corrupted, index, bit);
                let err = format.read(&mut corrupted.as_slice()).expect_err("flipped bit");
                assert!(
                    matches!(
                        err,
                        StorageError::BadMagic
                            | StorageError::Corrupt(_)
                            | StorageError::Checksum(_)
                            | StorageError::Io(_)
                    ),
                    "{format:?} byte {index} bit {bit}: got {err:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Interrupted saves and stale temp files, through `save_segment` and
// `save_manifest` — the users of the atomic temp-file-then-rename write.

#[test]
fn failed_save_leaves_the_previous_snapshot_loadable() {
    let good = sample();
    // Out-of-order ids: files neither format can represent.
    let mut bad = good.clone();
    bad.entries.reverse();
    bad.manifest.tombstones.reverse();
    for format in FORMATS {
        let dir = store_dir("faults-prev");
        format.save(dir.path(), &good).expect("first save");
        let err = format.save(dir.path(), &bad).expect_err("unsorted ids");
        assert!(matches!(err, StorageError::Unrepresentable(_)), "{format:?}: got {err:?}");
        assert_eq!(format.load(dir.path()).expect("old file intact"), format.decoded(&good));
        let files = std::fs::read_dir(dir.path()).unwrap().count();
        assert_eq!(files, 1, "{format:?}: the failed save left its temp file behind");
    }
}

#[test]
fn save_never_adopts_or_clobbers_a_foreign_temp_file() {
    let sample = sample();
    for format in FORMATS {
        let dir = store_dir("faults-stale");
        // Simulate a previous writer that died mid-save: a torn temp file is
        // sitting next to the target path. Temp names are unique per writer
        // (pid + sequence), so a new save must neither rename this garbage
        // into place nor touch it — it writes through its own temp.
        let target = format.path(dir.path());
        let tmp = target.with_file_name(format!(
            "{}.tmp.{}.0",
            target.file_name().unwrap().to_string_lossy(),
            std::process::id().wrapping_add(1)
        ));
        let garbage: &[u8] = b"HUMSEG01 torn garbage from a crashed writer";
        std::fs::write(&tmp, garbage).unwrap();

        format.save(dir.path(), &sample).expect("save next to stale temp");
        assert_eq!(format.load(dir.path()).expect("file loads"), format.decoded(&sample));
        // The foreign temp was never adopted (the file is valid, not the
        // garbage) and never deleted (it is not this writer's to clean up).
        assert_eq!(std::fs::read(&tmp).unwrap(), garbage, "foreign temp must be untouched");
    }
}

#[test]
fn concurrent_saves_to_one_path_never_tear_the_snapshot() {
    // Were temps named `{path}.tmp.{pid}`, two threads saving the same path
    // would interleave writes through one temp file and could rename a torn
    // mixture into place. Unique per-save temps make the last rename win
    // with a complete file; either writer's file always loads.
    let a = sample();
    let b = sample_with(a.config, 5, 9);
    for format in FORMATS {
        let dir = store_dir("faults-concurrent");
        for round in 0..8 {
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                let saves = [&a, &b].map(|sample| {
                    let (barrier, path) = (&barrier, dir.path());
                    scope.spawn(move || {
                        barrier.wait();
                        format.save(path, sample)
                    })
                });
                for save in saves {
                    save.join().expect("thread").expect("save");
                }
            });
            // Whichever rename landed last, the file is one complete image.
            let loaded = format
                .load(dir.path())
                .unwrap_or_else(|e| panic!("{format:?} round {round}: {e}"));
            assert!(
                loaded == format.decoded(&a) || loaded == format.decoded(&b),
                "{format:?} round {round}: loaded file is neither writer's"
            );
        }
    }
}

#[test]
fn torn_file_at_the_target_path_is_a_typed_error_not_a_panic() {
    let sample = sample();
    for format in FORMATS {
        let dir = store_dir("faults-torn");
        let image = format.image(&sample);
        // What a non-atomic writer would have left after a crash.
        std::fs::write(format.path(dir.path()), &image[..image.len() / 2]).unwrap();
        let err = format.load(dir.path()).expect_err("torn file");
        assert!(matches!(err, StorageError::Io(_)), "{format:?}: got {err:?}");
    }
}

#[test]
fn try_open_store_propagates_typed_errors_with_no_partial_state() {
    let missing = TempPath::unique("faults-missing");
    let Err(err) = QbhSystem::try_open_store(missing.path()) else {
        panic!("opening a missing store must fail");
    };
    assert!(matches!(err, StorageError::Io(_)), "got {err:?}");

    let garbage = store_dir("faults-garbage");
    std::fs::write(segstore::manifest_path(garbage.path()), b"not a manifest at all").unwrap();
    let Err(err) = QbhSystem::try_open_store(garbage.path()) else {
        panic!("opening garbage must fail");
    };
    assert!(matches!(err, StorageError::BadMagic), "got {err:?}");
}

// ---------------------------------------------------------------------------
// Segmented-store maintenance crash states.
//
// A flush or compaction runs in three phases (plan → build → commit). Its
// on-disk order is: `build` writes the new segment (temp + rename);
// `commit` swaps the manifest (temp + rename); dropping what the commit
// retired deletes the replaced segment files. A crash leaves one of four
// states; the first three must open as the *pre*-job view (the swap is the
// commit point), the last as the post-job view. For a compaction every
// state must answer queries identically, because compaction only
// rearranges bytes; for a flush the pre-job view is missing exactly the
// acknowledged inserts that were still in the memtable.

fn crash_temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qbh-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// k-NN answers over a few hums, as `(id, distance bits)` so comparison is
/// exact.
fn knn_answers(system: &QbhSystem, db: &MelodyDatabase) -> Vec<Vec<(u64, u64)>> {
    (0..3)
        .map(|i| {
            let target = (i * 5) as u64 % db.len() as u64;
            let mut singer = HummingSimulator::new(SingerProfile::good(), 900 + i as u64);
            let hum = singer.sing_series(db.entry(target).unwrap().melody(), 0.01);
            system
                .query_series(&hum, 8)
                .matches
                .iter()
                .map(|m| (m.id, m.distance.to_bits()))
                .collect()
        })
        .collect()
}

#[test]
fn every_compaction_crash_state_opens_and_answers_identically() {
    let db = MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 6,
        phrases_per_song: 3,
        ..SongbookConfig::default()
    });
    let config = QbhConfig::default();

    // Pre-compaction: three segments plus a tombstone, so compaction has
    // both merging and purging to do.
    let base = crash_temp_dir("compaction-base");
    let options = StoreOptions { memtable_capacity: 6, compact_at: usize::MAX };
    let mut system = QbhSystem::try_create_store(&base, &config, options).unwrap();
    system.try_ingest(&db).unwrap();
    let victim = db.entries()[4].id();
    assert!(system.try_remove(victim).unwrap());
    let expected_len = system.len();
    let reference = knn_answers(&system, &db);
    drop(system);

    let check = |dir: &Path, state: &str| {
        let system = QbhSystem::try_open_store(dir)
            .unwrap_or_else(|e| panic!("{state}: store must open, got {e}"));
        assert_eq!(system.len(), expected_len, "{state}: wrong melody count");
        assert_eq!(knn_answers(&system, &db), reference, "{state}: answers diverged");
    };

    // Run a real compaction in a scratch copy, phase by phase: states 2 and
    // 4 are what it leaves on disk between phases, and its bytes are what a
    // compaction torn mid-write (states 1 and 3) would have been writing.
    let done = crash_temp_dir("compaction-done");
    copy_dir(&base, &done);
    let mut compacted = QbhSystem::try_open_store(&done).unwrap();
    let built = compacted.plan_compaction().unwrap().expect("segments to merge").build().unwrap();

    // State 2: built, never committed — the merged segment landed, but it
    // is an orphan the manifest does not name.
    check(&done, "built, not committed");
    let base_files: std::collections::BTreeSet<String> = std::fs::read_dir(&base)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let new_segment_name = std::fs::read_dir(&done)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .find(|name| name.ends_with(".humseg") && !base_files.contains(name))
        .expect("the build wrote a fresh segment");
    let new_segment = std::fs::read(done.join(&new_segment_name)).unwrap();

    // State 4: committed, but the process died before the replaced segment
    // files were deleted — the post-compaction view, old segments orphaned.
    std::mem::forget(compacted.commit_maintenance(built).unwrap());
    let new_manifest = std::fs::read(done.join(segstore::MANIFEST_FILE)).unwrap();
    assert!(base_files.iter().all(|name| done.join(name).exists()), "nothing was deleted");
    check(&done, "committed, old segments undeleted");
    drop(compacted);

    // State 1: crashed mid-segment-write — a torn temp next to the store.
    // Like state 2 it precedes the manifest swap, so it must open as the
    // pre-compaction view.
    for cut in [0, new_segment.len() / 2, new_segment.len() - 1] {
        let dir = crash_temp_dir("compaction-torn-seg");
        copy_dir(&base, &dir);
        std::fs::write(
            dir.join(format!("{new_segment_name}.tmp.4242.0")),
            &new_segment[..cut],
        )
        .unwrap();
        check(&dir, &format!("torn segment temp (cut {cut})"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // State 3: crashed mid-manifest-write — merged segment plus a torn
    // manifest temp; the real manifest still names the old segments.
    for cut in [8, new_manifest.len() / 2, new_manifest.len() - 1] {
        let dir = crash_temp_dir("compaction-torn-man");
        copy_dir(&base, &dir);
        std::fs::write(dir.join(&new_segment_name), &new_segment).unwrap();
        std::fs::write(
            dir.join(format!("{}.tmp.4242.0", segstore::MANIFEST_FILE)),
            &new_manifest[..cut],
        )
        .unwrap();
        check(&dir, &format!("torn manifest temp (cut {cut})"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&done);
}

/// The ack contract at a crash: an insert is acknowledged once it is in
/// the memtable and durable once a flush that covers it has *committed*, so
/// a crash loses exactly the `store_stats().memtable_len` melodies reported
/// before it — whether no flush had started or one was built but not yet
/// committed.
#[test]
fn every_flush_crash_state_opens_as_the_committed_view() {
    let db = MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 6,
        phrases_per_song: 3,
        ..SongbookConfig::default()
    });
    let config = QbhConfig::default();
    let dir = crash_temp_dir("flush-states");
    let options = StoreOptions { memtable_capacity: 6, compact_at: usize::MAX };
    let mut system = QbhSystem::try_create_store(&dir, &config, options).unwrap();
    system.try_ingest(&db).unwrap();
    let durable = (system.len(), knn_answers(&system, &db));

    // Four acknowledged inserts that no flush has covered yet.
    for id in 500..504u64 {
        let series: Vec<f64> =
            (0..80).map(|i| 64.0 + 5.0 * ((i + id as usize) as f64 * 0.23).sin()).collect();
        system.try_insert_melody(id, 9, 0, &series).unwrap();
    }
    let acknowledged = (system.len(), knn_answers(&system, &db));
    assert_eq!(system.store_stats().unwrap().memtable_len, 4);
    assert_eq!(acknowledged.0, durable.0 + 4);

    let check = |state: &str, want: &(usize, Vec<Vec<(u64, u64)>>)| {
        let reopened = QbhSystem::try_open_store(&dir)
            .unwrap_or_else(|e| panic!("{state}: store must open, got {e}"));
        assert_eq!(reopened.len(), want.0, "{state}: wrong melody count");
        assert_eq!(knn_answers(&reopened, &db), want.1, "{state}: answers diverged");
    };
    let segment_files = || {
        std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".humseg"))
            .count()
    };

    check("acknowledged, no flush started", &durable);

    let built = system.plan_flush().unwrap().expect("a memtable to flush").build().unwrap();
    assert_eq!(segment_files(), system.segment_count() + 1, "the build wrote its segment");
    check("flush built, not committed", &durable);

    drop(system.commit_maintenance(built).unwrap());
    assert_eq!(system.store_stats().unwrap().memtable_len, 0);
    check("flush committed", &acknowledged);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The segment and manifest codecs share the storage fault contract: every
/// write budget fails typed with no bytes beyond the budget, and (sparse
/// sweep) single-bit corruption of either image never parses.
#[test]
fn segment_and_manifest_codecs_fail_typed_under_faults() {
    let config = QbhConfig::default();
    let entries: Vec<SegmentEntry> = (0..3)
        .map(|i| SegmentEntry {
            id: i,
            song: i as usize,
            phrase: 0,
            series: vec![55.0 + i as f64; config.normal_length],
        })
        .collect();
    let manifest = Manifest {
        config,
        segments: vec![SegmentRef { id: 0, count: 2 }, SegmentRef { id: 1, count: 1 }],
        tombstones: vec![7],
    };

    let mut segment_image = Vec::new();
    segstore::write_segment(&mut segment_image, &config, &entries).expect("serialize");
    let mut manifest_image = Vec::new();
    segstore::write_manifest(&mut manifest_image, &manifest).expect("serialize");

    for (name, image) in [("segment", &segment_image), ("manifest", &manifest_image)] {
        for budget in (0..image.len() as u64).step_by(5) {
            let mut w = FailingWriter::new(Vec::new(), budget, FaultMode::Cutoff);
            let err = if *name == *"segment" {
                segstore::write_segment(&mut w, &config, &entries).expect_err("short write")
            } else {
                segstore::write_manifest(&mut w, &manifest).expect_err("short write")
            };
            assert!(matches!(err, StorageError::Io(_)), "{name} budget {budget}: {err:?}");
            assert!(w.into_inner().len() as u64 <= budget, "{name}: wrote past the budget");
        }

        for index in (0..image.len()).step_by(3) {
            for bit in 0..8u8 {
                let mut corrupted = image.clone();
                flip_bit(&mut corrupted, index, bit);
                let err = if *name == *"segment" {
                    segstore::read_segment(&mut corrupted.as_slice())
                        .map(|_| ())
                        .expect_err("flipped segment bit")
                } else {
                    segstore::read_manifest(&mut corrupted.as_slice())
                        .map(|_| ())
                        .expect_err("flipped manifest bit")
                };
                assert!(
                    matches!(
                        err,
                        StorageError::BadMagic
                            | StorageError::Corrupt(_)
                            | StorageError::Checksum(_)
                            | StorageError::Io(_)
                    ),
                    "{name} byte {index} bit {bit}: got {err:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests: round-trips over arbitrary configurations and payloads,
// plus randomized corruption beyond the exhaustive single-bit matrix.

fn config_strategy() -> impl Strategy<Value = QbhConfig> {
    (
        prop_oneof![Just(64usize), Just(128usize)],
        prop_oneof![Just(4usize), Just(8usize)],
        1usize..6,
        0.0f64..0.3,
    )
        .prop_map(|(normal_length, feature_dims, samples_per_beat, warping_width)| QbhConfig {
            normal_length,
            feature_dims,
            samples_per_beat,
            warping_width,
            page_bytes: 4096,
        })
}

fn sample_strategy() -> impl Strategy<Value = Sample> {
    (config_strategy(), 0usize..6, 0u64..1_000_000)
        .prop_map(|(config, count, salt)| sample_with(config, count, salt))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_databases_round_trip_in_both_formats(sample in sample_strategy()) {
        for format in FORMATS {
            let image = format.image(&sample);
            let loaded = format.read(&mut image.as_slice()).expect("round-trip read");
            prop_assert_eq!(loaded, format.decoded(&sample));
        }
    }

    #[test]
    fn random_multi_bit_corruption_of_v2_never_round_trips(
        sample in sample_strategy(),
        flips in proptest::collection::vec((0usize..4096, 0u8..8), 1..5),
    ) {
        for format in FORMATS {
            let pristine = format.image(&sample);
            let mut image = pristine.clone();
            for &(index, bit) in &flips {
                flip_bit(&mut image, index, bit);
            }
            if image == pristine {
                // Flip pairs can cancel (same byte, same bit, twice).
                continue;
            }
            let result = format.read(&mut image.as_slice());
            prop_assert!(result.is_err(), "{:?}: corrupted image must not parse", format);
        }
    }

    #[test]
    fn random_truncation_of_v2_fails_typed(
        sample in sample_strategy(),
        fraction in 0.0f64..1.0,
    ) {
        for format in FORMATS {
            let image = format.image(&sample);
            let cut = ((image.len() as f64) * fraction) as usize;
            if cut == image.len() {
                continue;
            }
            let err = format.read(&mut &image[..cut]).expect_err("truncated image");
            prop_assert!(
                matches!(err, StorageError::Io(_)),
                "{:?} cut {}/{}: {:?}", format, cut, image.len(), err
            );
        }
    }
}
