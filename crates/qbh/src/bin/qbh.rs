//! `qbh` — a query-by-humming system over a directory of MIDI files.
//!
//! ```text
//! qbh generate <dir> [--songs N] [--seed S]   write a melody corpus as .mid files
//! qbh info     <dir>                          corpus statistics
//! qbh index    <dir> <store-dir> [--memtable N] [--compact-at N]
//!                                             ingest the corpus into a
//!                                             segmented store directory
//! qbh hum      <dir> <name.mid> <out.wav>     synthesize a hum of one melody
//!              [--singer good|poor] [--seed S]
//!              [--stream ADDR] [--top K] [--chunk-frames N]
//!                                             and/or query a running server
//!                                             with each growing prefix,
//!                                             printing the top-k as it goes
//! qbh query    <dir|store-dir> <hum.wav> [--top K]
//!                                             find a hummed melody in a MIDI
//!                                             directory or an indexed store
//! qbh serve    <store-dir> [--addr A] [--workers N]
//!              [--queue-depth D]
//!              [--default-deadline-ms MS]
//!              [--memtable N] [--compact-at N]
//!              [--maintenance-ms MS]
//!              [--allow-remote-shutdown]      serve a store over TCP; inserts
//!                                             become durable at each flush
//! ```
//!
//! Results go to stdout; progress and diagnostics go to stderr, so scripted
//! consumers can pipe stdout without filtering. A flag a command does not
//! read, or a stray argument, is a usage error (exit code 2) naming it.
//!
//! Stores index with the paper's New_PAA envelope transform at 8
//! dimensions; there is no transform to choose, and an opened store is one
//! engine over every segment file and the memtable — there is no partition
//! to choose either.
//!
//! Everything on disk goes through this workspace's own codecs: melodies are
//! Standard MIDI Files written/parsed by `hum-midi`, hums are PCM16 WAV
//! written/parsed by `hum-audio`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hum_core::engine::EngineError;
use hum_core::obs::{Metric, MetricsSink};
use hum_music::{HummingSimulator, Melody, SingerProfile, Songbook, SongbookConfig};
use hum_qbh::corpus::{melody_from_smf, melody_to_smf};
use hum_server::{Server, ServerConfig};
use hum_qbh::storage::StorageError;
use hum_qbh::system::{QbhConfig, QbhSystem, StoreOptions};

/// CLI failure modes, each with its own exit code so scripts can tell a
/// misused invocation (2) from a corrupt or unwritable store (3), a
/// serving failure such as an unbindable address (4) or a query the engine
/// rejected (1).
enum CliError {
    /// Bad arguments or an unreadable corpus directory.
    Usage(String),
    /// A typed storage failure: corrupt store, checksum mismatch,
    /// interrupted save, unrepresentable configuration.
    Storage(StorageError),
    /// A serving failure: the listen address cannot be bound.
    Server(String),
    /// The engine rejected the query built from the recording.
    Query(EngineError),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Storage(_) => 3,
            CliError::Server(_) => 4,
            CliError::Query(_) => 1,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Usage(message.to_string())
    }
}

impl From<StorageError> for CliError {
    fn from(e: StorageError) -> Self {
        CliError::Storage(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(message) => write!(f, "{message}"),
            CliError::Storage(e) => write!(f, "{e}"),
            CliError::Server(message) => write!(f, "{message}"),
            CliError::Query(e) => write!(f, "query failed: {e}"),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("index") => cmd_index(&args[1..]),
        Some("hum") => cmd_hum(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help") | Some("-h") | None => {
            // Requested help is a result: print it to stdout.
            println!("{}", usage_text());
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command: {other}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {error}");
            if matches!(error, CliError::Usage(_)) {
                usage();
            }
            ExitCode::from(error.exit_code())
        }
    }
}

fn usage_text() -> &'static str {
    "usage:\n  qbh generate <dir> [--songs N] [--seed S]\n  qbh info <dir>\n  \
     qbh index <dir> <store-dir> [--memtable N] [--compact-at N]\n  \
     qbh hum <dir> <name.mid> <out.wav> [--singer good|poor] [--seed S]\n          \
[--stream ADDR] [--top K] [--chunk-frames N]\n  \
     qbh query <dir|store-dir> <hum.wav> [--top K]\n  \
     qbh serve <store-dir> [--addr A] [--workers N] [--queue-depth D]\n          \
[--default-deadline-ms MS]\n          \
[--memtable N] [--compact-at N] [--maintenance-ms MS]\n          \
[--allow-remote-shutdown]"
}

fn usage() {
    eprintln!("{}", usage_text());
}

/// Checks a command's arguments against what it reads: `positional`
/// leading arguments, the flags in `values` (each followed by its value)
/// and the switches in `switches`. Anything else — an unknown or misspelt
/// flag, a stray argument — is an error naming it, so it is never silently
/// ignored.
fn check_args(
    args: &[String],
    positional: usize,
    values: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let mut seen = 0;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if values.contains(&arg.as_str()) {
            // Its value; a missing one is reported by the flag's reader.
            rest.next();
        } else if arg.starts_with("--") {
            if !switches.contains(&arg.as_str()) {
                return Err(format!("unknown flag {arg}"));
            }
        } else if seen < positional {
            seen += 1;
        } else {
            return Err(format!("unexpected argument {arg}"));
        }
    }
    Ok(())
}

fn string_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.clone()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn flag_value(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map(Some)
            .map_err(|e| format!("{flag}: {e}")),
    }
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    check_args(args, 1, &["--songs", "--seed"], &[])?;
    let dir = PathBuf::from(args.first().ok_or("generate needs a directory")?);
    let songs = flag_value(args, "--songs")?.unwrap_or(50) as usize;
    let seed = flag_value(args, "--seed")?.unwrap_or(2003);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    let book = Songbook::generate(&SongbookConfig { songs, seed, ..SongbookConfig::default() });
    let mut written = 0usize;
    for (song_idx, phrase_idx, melody) in book.phrases() {
        let smf = melody_to_smf(melody, 480);
        let name = format!("song{song_idx:03}_phrase{phrase_idx:02}.mid");
        std::fs::write(dir.join(&name), hum_midi::write_smf(&smf))
            .map_err(|e| format!("cannot write {name}: {e}"))?;
        written += 1;
    }
    println!("Wrote {written} melodies ({songs} songs) to {}.", dir.display());
    Ok(())
}

/// Loads every `.mid` in the directory, sorted by file name for stable ids.
fn load_corpus(dir: &Path) -> Result<BTreeMap<String, Melody>, String> {
    let mut corpus = BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("mid") {
            continue;
        }
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let smf = hum_midi::parse_smf(&bytes)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let melody = melody_from_smf(&smf, 0);
        if melody.is_empty() {
            continue; // no melody on channel 0; skip quietly
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or("non-UTF8 file name")?
            .to_string();
        corpus.insert(name, melody);
    }
    if corpus.is_empty() {
        return Err(format!("no .mid melodies found in {}", dir.display()));
    }
    Ok(corpus)
}

fn build_system(corpus: &BTreeMap<String, Melody>) -> (QbhSystem, Vec<String>) {
    // Ids follow the sorted file-name order; keep the names for reporting.
    let names: Vec<String> = corpus.keys().cloned().collect();
    let db = hum_qbh::corpus::MelodyDatabase::from_melodies(
        corpus.values().cloned().collect::<Vec<_>>(),
    );
    (QbhSystem::build(&db, &QbhConfig::default()), names)
}

fn cmd_info(args: &[String]) -> Result<(), CliError> {
    check_args(args, 1, &[], &[])?;
    let dir = PathBuf::from(args.first().ok_or("info needs a directory")?);
    let corpus = load_corpus(&dir)?;
    let notes: usize = corpus.values().map(Melody::len).sum();
    let beats: f64 = corpus.values().map(Melody::total_beats).sum();
    println!("{}: {} melodies, {} notes, {:.0} beats total.", dir.display(), corpus.len(), notes, beats);
    let (lo, hi) = corpus
        .values()
        .filter_map(Melody::pitch_range)
        .fold((u8::MAX, u8::MIN), |(lo, hi), (l, h)| (lo.min(l), hi.max(h)));
    println!("Pitch range: MIDI {lo}..{hi}. Example files:");
    for name in corpus.keys().take(3) {
        println!("  {name}");
    }
    Ok(())
}

fn cmd_hum(args: &[String]) -> Result<(), CliError> {
    check_args(args, 3, &["--singer", "--seed", "--stream", "--top", "--chunk-frames"], &[])?;
    let dir = PathBuf::from(args.first().ok_or("hum needs a directory")?);
    let name = args.get(1).ok_or("hum needs a melody file name")?;
    let out = PathBuf::from(args.get(2).ok_or("hum needs an output .wav path")?);
    let seed = flag_value(args, "--seed")?.unwrap_or(42);
    let profile = match args.iter().position(|a| a == "--singer") {
        None => SingerProfile::good(),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("good") => SingerProfile::good(),
            Some("poor") => SingerProfile::poor(),
            other => return Err(format!("--singer must be good|poor, got {other:?}").into()),
        },
    };

    let corpus = load_corpus(&dir)?;
    let melody = corpus.get(name).ok_or_else(|| format!("no melody named {name}"))?;
    let mut singer = HummingSimulator::new(profile, seed);
    let sung = singer.sing_notes(melody);
    let notes: Vec<hum_audio::HumNote> =
        sung.iter().map(|n| hum_audio::HumNote { midi: n.midi, seconds: n.seconds }).collect();
    let audio =
        hum_audio::HumSynthesizer::new(hum_audio::SynthConfig { seed, ..Default::default() })
            .render(&notes);
    std::fs::write(&out, hum_audio::write_wav_mono(&audio, 8_000))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "Hummed {name} ({} notes, {:.1} s) to {}.",
        melody.len(),
        audio.len() as f64 / 8_000.0,
        out.display()
    );

    if let Some(addr) = string_flag(args, "--stream")? {
        let top = flag_value(args, "--top")?.unwrap_or(5) as usize;
        let chunk = flag_value(args, "--chunk-frames")?.unwrap_or(16).max(1) as usize;
        stream_hum(&audio, 8_000, &addr, top, chunk)?;
    }
    Ok(())
}

/// Query-as-you-hum against a running `qbh serve`: pitch-track the hum
/// and ask for the top-k of every prefix that grows by one chunk, printing
/// each answer as it sharpens. A prefix is an ordinary `knn` request; the
/// server keeps nothing between them.
fn stream_hum(
    audio: &[f64],
    sample_rate: u32,
    addr: &str,
    top: usize,
    chunk: usize,
) -> Result<(), CliError> {
    let tracker = hum_audio::PitchTrackerConfig {
        sample_rate,
        ..hum_audio::PitchTrackerConfig::default()
    };
    let frames = hum_audio::track_pitch(audio, &tracker).voiced_series();
    if frames.is_empty() {
        return Err(CliError::Server("no voiced frames to stream".to_string()));
    }

    let connect = |e| CliError::Server(format!("cannot stream to {addr}: {e}"));
    let mut client = hum_server::Client::connect(addr).map_err(connect)?;
    let wire = |e| CliError::Server(format!("streaming to {addr} failed: {e}"));
    eprintln!("Streaming {} voiced frames to {addr} (chunks of {chunk})...", frames.len());
    let options = hum_server::QueryOptions::default();
    let mut end = 0;
    while end < frames.len() {
        end = (end + chunk).min(frames.len());
        let reply = client.knn(&frames[..end], top, &options).map_err(wire)?;
        let line: Vec<String> =
            reply.matches.iter().map(|m| format!("#{} ({:.3})", m.id, m.distance)).collect();
        println!("[{end:>4} frames] top-{top}: {}", line.join("  "));
    }
    Ok(())
}

/// Parses the shared store tuning flags (`--memtable`, `--compact-at`).
fn store_options(args: &[String]) -> Result<StoreOptions, CliError> {
    let defaults = StoreOptions::default();
    Ok(StoreOptions {
        memtable_capacity: flag_value(args, "--memtable")?
            .map(|n| n.max(1) as usize)
            .unwrap_or(defaults.memtable_capacity),
        compact_at: flag_value(args, "--compact-at")?
            .map(|n| n.max(2) as usize)
            .unwrap_or(defaults.compact_at),
    })
}

fn cmd_index(args: &[String]) -> Result<(), CliError> {
    check_args(args, 2, &["--memtable", "--compact-at"], &[])?;
    let dir = PathBuf::from(args.first().ok_or("index needs a directory")?);
    let out = PathBuf::from(args.get(1).ok_or("index needs a store directory")?);
    let corpus = load_corpus(&dir)?;
    let db = hum_qbh::corpus::MelodyDatabase::from_melodies(
        corpus.values().cloned().collect::<Vec<_>>(),
    );
    let mut system =
        QbhSystem::try_create_store(&out, &QbhConfig::default(), store_options(args)?)?;
    system.try_ingest(&db)?;
    let stats = system.store_stats().unwrap_or_default();
    println!(
        "Ingested {} melodies into {} ({} segments, {} flushes, {} compactions, {} bytes).",
        system.len(),
        out.display(),
        stats.segments,
        stats.flushes,
        stats.compactions,
        stats.bytes_written
    );
    println!("Note: melody names are not stored; query hits report melody ids.");
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    check_args(args, 2, &["--top"], &[])?;
    let source = PathBuf::from(args.first().ok_or("query needs a MIDI or store directory")?);
    let wav_path = PathBuf::from(args.get(1).ok_or("query needs a .wav file")?);
    let top = flag_value(args, "--top")?.unwrap_or(5) as usize;
    if top == 0 {
        return Err("--top must be at least 1".into());
    }

    // A store is told from a MIDI directory by the manifest it holds. File
    // names exist only for a MIDI directory (whose ids are positions in the
    // sorted listing); a store holds arbitrary ids, so its hits are labelled
    // by the id itself.
    let (system, names) = if hum_qbh::store::manifest_path(&source).is_file() {
        // The fallible open validates checksums and the configuration, so a
        // corrupt or truncated store is a typed error (exit code 3) rather
        // than a panic somewhere inside the build.
        let system = QbhSystem::try_open_store(&source)?;
        // Progress goes to stderr: stdout carries only the match list, so
        // scripted consumers never see it polluted — even on a run that
        // fails after this point.
        eprintln!("Opened {} melodies from {}...", system.len(), source.display());
        (system, Vec::new())
    } else {
        let corpus = load_corpus(&source)?;
        eprintln!("Indexing {} melodies from {}...", corpus.len(), source.display());
        build_system(&corpus)
    };

    let bytes = std::fs::read(&wav_path)
        .map_err(|e| format!("cannot read {}: {e}", wav_path.display()))?;
    let (samples, rate) =
        hum_audio::read_wav_mono(&bytes).map_err(|e| format!("{}: {e}", wav_path.display()))?;
    eprintln!("Query: {:.1} s of audio at {rate} Hz.", samples.len() as f64 / rate as f64);

    let Some(results) = system.try_query_audio(&samples, rate, top).map_err(CliError::Query)?
    else {
        eprintln!("No voiced frames found — is the recording silent?");
        return Ok(());
    };
    if results.matches.is_empty() {
        println!("\nNo matches: {} holds no melodies.", source.display());
    } else {
        println!("\nTop matches:");
    }
    for (rank, m) in results.matches.iter().enumerate() {
        let label = usize::try_from(m.id)
            .ok()
            .and_then(|i| names.get(i).cloned())
            .unwrap_or_else(|| format!("melody #{}", m.id));
        println!("  {}. {label}  (DTW distance {:.3})", rank + 1, m.distance);
    }
    eprintln!(
        "\n({} candidates from the index, {} exact DTW computations, {} page accesses.)",
        results.stats.index.candidates,
        results.stats.exact_computations,
        results.stats.index.node_accesses
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let values = [
        "--addr",
        "--workers",
        "--queue-depth",
        "--default-deadline-ms",
        "--memtable",
        "--compact-at",
        "--maintenance-ms",
    ];
    check_args(args, 1, &values, &["--allow-remote-shutdown"])?;
    let path = PathBuf::from(args.first().ok_or("serve needs a store directory")?);
    let addr = string_flag(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7700".to_string());
    let workers = flag_value(args, "--workers")?.unwrap_or(4).max(1) as usize;
    let queue_depth = flag_value(args, "--queue-depth")?.unwrap_or(64).max(1) as usize;
    let default_deadline =
        flag_value(args, "--default-deadline-ms")?.map(std::time::Duration::from_millis);
    let allow_remote_shutdown = args.iter().any(|a| a == "--allow-remote-shutdown");
    let maintenance_interval =
        flag_value(args, "--maintenance-ms")?.map(std::time::Duration::from_millis);

    // One shared registry records both server counters (connections, queue
    // high water, rejections) and engine counters (queries, DP cells).
    let metrics = MetricsSink::enabled();
    let system = QbhSystem::try_open_store_with(&path, store_options(args)?, &metrics)?;
    let stats = system.store_stats().unwrap_or_default();
    eprintln!(
        "Opened store {} ({} melodies, {} segments, {} tombstones).",
        path.display(),
        system.len(),
        stats.segments,
        stats.tombstones
    );

    let config = ServerConfig {
        workers,
        queue_depth,
        default_deadline,
        allow_remote_shutdown,
        maintenance_interval,
        metrics: metrics.clone(),
    };
    let server = Server::start(system, addr.as_str(), config)
        .map_err(|e| CliError::Server(format!("cannot listen on {addr}: {e}")))?;
    // The one stdout line, so scripts can read the bound address (the
    // port is ephemeral when --addr ends in :0).
    println!("listening on {}", server.local_addr());
    eprintln!(
        "{workers} workers, queue depth {queue_depth}, default deadline {}",
        match default_deadline {
            Some(d) => format!("{} ms", d.as_millis()),
            None => "none".to_string(),
        }
    );

    server.wait_shutdown_requested();
    eprintln!("shutdown requested; draining in-flight requests...");
    server.shutdown();
    if let Some(registry) = metrics.registry() {
        let snapshot = registry.snapshot();
        eprintln!(
            "served {} requests over {} connections ({} rejected overloaded, \
             {} deadline-exceeded, {} protocol errors)",
            snapshot.counter(Metric::ServerRequestsAccepted),
            snapshot.counter(Metric::ServerConnections),
            snapshot.counter(Metric::ServerRequestsRejectedOverload),
            snapshot.counter(Metric::ServerDeadlineExceeded),
            snapshot.counter(Metric::ServerProtocolErrors),
        );
    }
    Ok(())
}
