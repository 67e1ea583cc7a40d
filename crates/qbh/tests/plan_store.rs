//! The transform plan across the persistence boundary: a store created
//! with `TransformChoice::Auto` must reopen with the identical
//! persisted plan (never silently re-planning), answer bit-identically to a
//! rebuild that pins the planned transform as `Fixed`, and turn any
//! corruption of the persisted plan into a typed [`StorageError`] — never a
//! panic, never a quietly different plan.

use std::path::{Path, PathBuf};

use hum_core::obs::{Metric, MetricsSink};
use hum_core::plan::{PlanFamily, PlannerOptions, TransformPlan};
use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::fault::flip_bit;
use hum_qbh::storage::StorageError;
use hum_qbh::store::{self, manifest_path, Manifest};
use hum_qbh::system::{QbhConfig, QbhSystem, StoreOptions, TransformChoice, TransformKind};

fn database() -> MelodyDatabase {
    MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 8,
        phrases_per_song: 5,
        ..SongbookConfig::default()
    })
}

fn hums(db: &MelodyDatabase, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let target = (i * 11) as u64 % db.len() as u64;
            let mut singer = HummingSimulator::new(SingerProfile::good(), 900 + i as u64);
            singer.sing_series(db.entry(target).unwrap().melody(), 0.01)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qbh-plan-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn auto_config() -> QbhConfig {
    QbhConfig {
        transform: TransformChoice::Auto(PlannerOptions::default()),
        ..QbhConfig::default()
    }
}

fn sample_series(db: &MelodyDatabase, config: &QbhConfig) -> Vec<Vec<f64>> {
    db.entries()
        .iter()
        .map(|e| e.melody().to_time_series(config.samples_per_beat))
        .collect()
}

fn kind_of(family: PlanFamily) -> TransformKind {
    match family {
        PlanFamily::NewPaa => TransformKind::NewPaa,
        PlanFamily::KeoghPaa => TransformKind::KeoghPaa,
        PlanFamily::Dft => TransformKind::Dft,
        PlanFamily::Dwt => TransformKind::Dwt,
    }
}

/// Ingests the whole database into a freshly planned store at `dir`.
fn build_auto_store(db: &MelodyDatabase, dir: &Path, memtable: usize) -> QbhSystem {
    let config = auto_config();
    let sample = sample_series(db, &config);
    let options = StoreOptions { memtable_capacity: memtable, ..StoreOptions::default() };
    let mut system = QbhSystem::try_create_store_planned(
        dir,
        &config,
        options,
        &sample,
        &MetricsSink::Disabled,
    )
    .unwrap();
    system.try_ingest(db).unwrap();
    system
}

#[test]
fn auto_store_reopens_with_the_identical_plan_and_never_replans() {
    let db = database();
    let dir = temp_dir("reopen");
    let system = build_auto_store(&db, &dir, 7);
    let created_plan: TransformPlan = system.plan().expect("auto store carries a plan").clone();
    let resolved = *system.config();
    assert_eq!(
        resolved.transform,
        TransformChoice::Fixed(kind_of(created_plan.family)),
        "persisted config must be the resolved Fixed choice"
    );
    assert_eq!(resolved.feature_dims, created_plan.dims);
    drop(system);

    // Plan evidence does not fork the format: a planned manifest carries
    // the one manifest magic, exactly like an unplanned one.
    let manifest = std::fs::read(manifest_path(&dir)).unwrap();
    assert_eq!(&manifest[..8], b"HUMMAN01");

    let metrics = MetricsSink::enabled();
    let reopened =
        QbhSystem::try_open_store_with(&dir, StoreOptions::default(), &metrics).unwrap();
    assert_eq!(reopened.plan(), Some(&created_plan), "reopen must surface the persisted plan");
    assert_eq!(*reopened.config(), resolved);
    let registry = metrics.registry().unwrap();
    assert_eq!(
        registry.get(Metric::PlannerRuns),
        0,
        "reopening a planned store must never re-plan"
    );

    let stats = reopened.store_stats().unwrap();
    assert_eq!(stats.plan_family, Some(created_plan.family));
    assert_eq!(stats.plan_dims, created_plan.dims);
    assert_eq!(
        stats.plan_tightness_ppm,
        (created_plan.mean_tightness.clamp(0.0, 1.0) * 1e6).round() as u64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_store_answers_bit_identically_to_a_fixed_rebuild() {
    let db = database();
    let queries = hums(&db, 4);
    let auto_dir = temp_dir("auto-vs-fixed-a");
    let auto = build_auto_store(&db, &auto_dir, 9);
    let resolved = *auto.config();
    assert!(resolved.fixed_transform().is_some());

    // Same corpus, same ingest schedule, but the planner's output pinned
    // up front as a Fixed configuration: an operator replaying the plan.
    let fixed_dir = temp_dir("auto-vs-fixed-f");
    let options = StoreOptions { memtable_capacity: 9, ..StoreOptions::default() };
    let mut fixed = QbhSystem::try_create_store(&fixed_dir, &resolved, options).unwrap();
    fixed.try_ingest(&db).unwrap();

    for (i, q) in queries.iter().enumerate() {
        let a = auto.query_series(q, 10);
        let f = fixed.query_series(q, 10);
        assert_eq!(a.stats, f.stats, "query #{i}: engine counters diverged");
        assert_eq!(a.matches.len(), f.matches.len(), "query #{i}");
        for (x, y) in a.matches.iter().zip(&f.matches) {
            assert_eq!((x.id, x.song, x.phrase), (y.id, y.song, y.phrase), "query #{i}");
            assert_eq!(x.distance.to_bits(), y.distance.to_bits(), "query #{i}");
        }
    }
    let _ = std::fs::remove_dir_all(&auto_dir);
    let _ = std::fs::remove_dir_all(&fixed_dir);
}

#[test]
fn auto_build_matches_fixed_build_at_every_shard_count() {
    let db = database();
    let queries = hums(&db, 3);
    for shards in [1usize, 2, 5] {
        let config = QbhConfig { shards, ..auto_config() };
        let auto = QbhSystem::build(&db, &config);
        let resolved = *auto.config();
        let fixed = QbhSystem::build(&db, &resolved);
        for (i, q) in queries.iter().enumerate() {
            let a = auto.query_series(q, 10);
            let f = fixed.query_series(q, 10);
            assert_eq!(a.stats, f.stats, "shards {shards} query #{i}");
            for (x, y) in a.matches.iter().zip(&f.matches) {
                assert_eq!(x.distance.to_bits(), y.distance.to_bits(), "shards {shards} #{i}");
            }
        }
    }
}

/// The resolved configuration and plan for the test corpus, as a manifest
/// of an empty store.
fn planned_manifest(db: &MelodyDatabase) -> Manifest {
    let config = auto_config();
    let sample = sample_series(db, &config);
    let (resolved, plan) =
        QbhSystem::resolve_transform(&config, &sample, &MetricsSink::Disabled).unwrap();
    assert!(plan.is_some(), "auto resolution produces a plan");
    Manifest { config: resolved, segments: Vec::new(), tombstones: Vec::new(), plan }
}

fn manifest_image(manifest: &Manifest) -> Vec<u8> {
    let mut bytes = Vec::new();
    store::write_manifest(&mut bytes, manifest).unwrap();
    bytes
}

#[test]
fn corrupting_the_plan_section_is_a_typed_error_never_a_panic() {
    let planned = planned_manifest(&database());
    let pristine = manifest_image(&planned);
    let plain = manifest_image(&Manifest { plan: None, ..planned.clone() });
    let plan_extra = pristine.len() - plain.len();
    assert!(plan_extra > 0, "the plan evidence must occupy bytes");
    assert_eq!(store::read_manifest(&mut pristine.as_slice()).unwrap(), planned);

    // Flip a bit at every byte of the file tail that the plan section (and
    // the footer guarding it) occupies: each corruption must surface as a
    // typed error from the read, never a panic and never a silent success.
    let tail = plan_extra + 9; // presence byte, section CRC, footer CRC
    for offset in pristine.len() - tail..pristine.len() {
        for bit in [0u8, 7] {
            let mut bytes = pristine.clone();
            flip_bit(&mut bytes, offset, bit);
            assert!(
                store::read_manifest(&mut bytes.as_slice()).is_err(),
                "flipping byte {offset} bit {bit} of the plan tail went unnoticed"
            );
        }
    }

    // Truncation anywhere inside the plan section is typed too.
    for keep in [pristine.len() - 1, pristine.len() - plan_extra / 2] {
        assert!(store::read_manifest(&mut &pristine[..keep]).is_err());
    }
}

#[test]
fn corrupting_the_manifest_plan_is_a_typed_error_on_open() {
    let db = database();
    let dir = temp_dir("manifest-corrupt");
    let system = build_auto_store(&db, &dir, 11);
    drop(system);

    let path = manifest_path(&dir);
    let pristine = std::fs::read(&path).unwrap();
    // The plan section sits between the tombstone section and the footer;
    // flipping bits across the back half of the manifest covers it.
    for offset in (pristine.len() / 2..pristine.len()).step_by(3) {
        let mut bytes = pristine.clone();
        flip_bit(&mut bytes, offset, (offset % 8) as u8);
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            QbhSystem::try_open_store(&dir).is_err(),
            "manifest byte {offset} flip went unnoticed"
        );
    }
    // Restore: the untouched manifest still opens with its plan.
    std::fs::write(&path, &pristine).unwrap();
    let reopened = QbhSystem::try_open_store(&dir).unwrap();
    assert!(reopened.plan().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_plan_that_contradicts_the_config_is_rejected_on_load() {
    let dir = temp_dir("mismatch");
    let mut manifest = planned_manifest(&database());

    // Tamper with the evidence so it no longer describes the config: a
    // well-formed plan for a different dimensionality.
    let plan = manifest.plan.as_mut().unwrap();
    plan.dims = if manifest.config.feature_dims == 4 { 8 } else { 4 };
    for c in &mut plan.candidates {
        c.dims = plan.dims;
    }
    store::save_manifest(&dir, &manifest).unwrap();
    match QbhSystem::try_open_store(&dir).map(|_| ()) {
        Err(StorageError::Corrupt(message)) => {
            assert!(message.contains("plan"), "unhelpful mismatch message: {message}")
        }
        other => panic!("plan/config mismatch must be Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unresolved_auto_is_a_typed_error_on_every_persistence_path() {
    let dir = temp_dir("unresolved");
    let config = auto_config();

    // The plain store constructor has no sample to plan from: typed error.
    match QbhSystem::try_create_store(&dir.join("store"), &config, StoreOptions::default())
        .map(|_| ())
    {
        Err(StorageError::Unrepresentable(message)) => {
            assert!(message.contains("Auto"), "unhelpful message: {message}")
        }
        other => panic!("expected Unrepresentable, got {other:?}"),
    }

    // Direct persistence of an unresolved config, as a manifest or as a
    // segment: typed error.
    let manifest = Manifest { config, segments: Vec::new(), tombstones: Vec::new(), plan: None };
    assert!(matches!(
        store::save_manifest(&dir, &manifest),
        Err(StorageError::Unrepresentable(_))
    ));
    assert!(matches!(
        store::save_segment(&dir, 0, &config, &[]),
        Err(StorageError::Unrepresentable(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
