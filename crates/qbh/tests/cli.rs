//! End-to-end tests of the `qbh` command-line binary: generate a MIDI
//! corpus on disk, synthesize a hum to WAV, and query it back — all through
//! the real CLI surface.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn qbh(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qbh")).args(args).output().expect("binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qbh-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn generate_info_hum_query_pipeline() {
    let dir = temp_dir("pipeline");
    let dir_s = dir.to_str().unwrap();

    let generated = qbh(&["generate", dir_s, "--songs", "8", "--seed", "5"]);
    assert!(generated.status.success(), "{generated:?}");
    assert!(stdout(&generated).contains("Wrote 160 melodies"));
    assert_eq!(count_mid_files(&dir), 160);

    let info = qbh(&["info", dir_s]);
    assert!(info.status.success());
    assert!(stdout(&info).contains("160 melodies"));

    let wav = dir.join("hum.wav");
    let hum = qbh(&[
        "hum",
        dir_s,
        "song003_phrase04.mid",
        wav.to_str().unwrap(),
        "--singer",
        "good",
        "--seed",
        "9",
    ]);
    assert!(hum.status.success(), "{hum:?}");
    assert!(wav.exists());

    let query = qbh(&["query", dir_s, wav.to_str().unwrap(), "--top", "3"]);
    assert!(query.status.success(), "{query:?}");
    let out = stdout(&query);
    assert!(
        out.contains("1. song003_phrase04.mid"),
        "hummed melody should rank first:\n{out}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn index_file_query_matches_directory_query() {
    let dir = temp_dir("index");
    let dir_s = dir.to_str().unwrap();
    assert!(qbh(&["generate", dir_s, "--songs", "6", "--seed", "11"]).status.success());

    let wav = dir.join("hum.wav");
    assert!(qbh(&["hum", dir_s, "song002_phrase03.mid", wav.to_str().unwrap()])
        .status
        .success());

    let idx = dir.join("store");
    let indexed = qbh(&["index", dir_s, idx.to_str().unwrap(), "--memtable", "50"]);
    assert!(indexed.status.success(), "{indexed:?}");
    assert!(stdout(&indexed).contains("Ingested 120 melodies"), "{}", stdout(&indexed));

    // The directory query names the file; the store query names the id the
    // melody was ingested under (BTreeMap order), which for
    // song002_phrase03 is 2*20 + 3 = 43. Nothing but the MANIFEST inside
    // `idx` tells the two kinds of directory apart.
    let by_dir = qbh(&["query", dir_s, wav.to_str().unwrap(), "--top", "1"]);
    assert!(stdout(&by_dir).contains("1. song002_phrase03.mid"), "{}", stdout(&by_dir));
    let by_idx = qbh(&["query", idx.to_str().unwrap(), wav.to_str().unwrap(), "--top", "1"]);
    assert!(stdout(&by_idx).contains("1. melody #43"), "{}", stdout(&by_idx));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = qbh(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage"));
}

/// A flag a command does not read is a usage error naming it, before
/// anything is read or written — never silently ignored. Stores always
/// index with New_PAA, so `--transform` is such a flag.
#[test]
fn unknown_and_misspelt_flags_are_usage_errors() {
    let dir = temp_dir("unknown-flags");
    let store = dir.join("store");
    let (dir_s, store_s) = (dir.to_str().unwrap(), store.to_str().unwrap());
    for (args, flag) in [
        (vec!["index", dir_s, store_s, "--transform", "dft"], "--transform"),
        (vec!["index", dir_s, store_s, "--shard", "4"], "--shard"),
        (vec!["index", dir_s, store_s, "--shards", "2"], "--shards"),
        (vec!["serve", store_s, "--worker", "2"], "--worker"),
    ] {
        let out = qbh(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{args:?}: {err}");
        assert!(err.contains("usage"), "{err}");
        assert!(!dir.exists(), "{args:?} touched the disk");
    }
    let out = qbh(&["info", dir_s, "extra"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument extra"));
}

#[test]
fn query_on_missing_directory_fails_cleanly() {
    let out = qbh(&["query", "/definitely/not/a/dir", "/also/missing.wav"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn hum_of_unknown_melody_fails_cleanly() {
    let dir = temp_dir("unknown-melody");
    let dir_s = dir.to_str().unwrap();
    assert!(qbh(&["generate", dir_s, "--songs", "1"]).status.success());
    let out = qbh(&["hum", dir_s, "nope.mid", "/tmp/never.wav"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no melody named"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_is_a_result_and_goes_to_stdout() {
    let out = qbh(&["--help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("usage:"));
    assert!(stdout(&out).contains("qbh serve"));
    assert!(out.stderr.is_empty(), "help must not print to stderr");
}

#[test]
fn failed_query_leaves_stdout_empty_for_scripted_consumers() {
    let dir = temp_dir("stdout-clean");
    let dir_s = dir.to_str().unwrap();
    assert!(qbh(&["generate", dir_s, "--songs", "1"]).status.success());

    // The corpus loads and progress is reported (stderr) before the missing
    // WAV is discovered — stdout must still be empty on the failing run.
    let out = qbh(&["query", dir_s, "/definitely/not/a/hum.wav"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "stdout polluted: {}", stdout(&out));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("Indexing"), "progress should be on stderr: {err}");
    assert!(err.contains("cannot read"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_prints_the_bound_address_and_shuts_down_cleanly_over_the_wire() {
    use std::io::{BufRead, BufReader, Read};

    let dir = temp_dir("serve");
    let dir_s = dir.to_str().unwrap();
    assert!(qbh(&["generate", dir_s, "--songs", "2", "--seed", "7"]).status.success());
    let idx = dir.join("store");
    assert!(qbh(&["index", dir_s, idx.to_str().unwrap()]).status.success());

    let mut child = Command::new(env!("CARGO_BIN_EXE_qbh"))
        .args([
            "serve",
            idx.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--allow-remote-shutdown",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");

    // The single stdout line announces the bound (ephemeral) address.
    let mut child_stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    child_stdout.read_line(&mut line).expect("address line");
    let addr = line.strip_prefix("listening on ").expect("address line").trim().to_string();

    let mut client = hum_server::Client::connect(addr.as_str()).expect("connect");
    assert_eq!(client.ping().expect("ping"), 40, "2 songs x 20 phrases");
    let pitch: Vec<f64> = (0..32).map(|i| 60.0 + (i as f64 * 0.4).sin()).collect();
    let reply = client.knn(&pitch, 3, &Default::default()).expect("knn over the wire");
    assert_eq!(reply.matches.len(), 3);
    client.shutdown().expect("shutdown accepted");

    // Graceful exit: status 0, and nothing but the address on stdout.
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "{status:?}");
    let mut rest = String::new();
    child_stdout.read_to_string(&mut rest).expect("drain stdout");
    assert!(rest.is_empty(), "stdout must stay clean after the address: {rest}");
    let mut err = String::new();
    child.stderr.take().unwrap().read_to_string(&mut err).expect("drain stderr");
    assert!(err.contains("(40 melodies, "), "the banner describes the opened store: {err}");
    assert!(err.contains("draining in-flight requests"), "{err}");
    // Only queue-admitted work ops count; ping and shutdown are answered
    // inline on the connection thread.
    assert!(err.contains("served 1 requests"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_wire_shutdown_unless_explicitly_allowed() {
    use std::io::{BufRead, BufReader};

    let dir = temp_dir("serve-no-shutdown");
    let dir_s = dir.to_str().unwrap();
    assert!(qbh(&["generate", dir_s, "--songs", "1", "--seed", "3"]).status.success());
    let idx = dir.join("store");
    assert!(qbh(&["index", dir_s, idx.to_str().unwrap()]).status.success());

    // No --allow-remote-shutdown: the wire shutdown op must be refused and
    // the server must keep serving afterwards.
    let mut child = Command::new(env!("CARGO_BIN_EXE_qbh"))
        .args(["serve", idx.to_str().unwrap(), "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve starts");

    let mut child_stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    child_stdout.read_line(&mut line).expect("address line");
    let addr = line.strip_prefix("listening on ").expect("address line").trim().to_string();

    let mut client = hum_server::Client::connect(addr.as_str()).expect("connect");
    match client.shutdown() {
        Err(hum_server::ClientError::BadRequest(message)) => {
            assert!(message.contains("disabled"), "{message}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(client.ping().expect("still serving"), 20, "1 song x 20 phrases");

    child.kill().expect("stop server");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store holds whatever ids its writers chose — wire inserts far above
/// the ingested range, holes left by removals — so a hit must be labelled
/// from the id itself, never by indexing a dense name table with it.
#[test]
fn store_query_labels_hits_by_id_when_ids_are_sparse() {
    use hum_qbh::system::{QbhConfig, QbhSystem, StoreOptions};

    let dir = temp_dir("sparse-ids");
    let dir_s = dir.to_str().unwrap();
    assert!(qbh(&["generate", dir_s, "--songs", "1", "--seed", "13"]).status.success());
    let wav = dir.join("hum.wav");
    assert!(qbh(&["hum", dir_s, "song000_phrase05.mid", wav.to_str().unwrap()])
        .status
        .success());

    // The hummed melody lives under id 1,000,000 in a store of three.
    let bytes = std::fs::read(dir.join("song000_phrase05.mid")).unwrap();
    let melody = hum_qbh::corpus::melody_from_smf(&hum_midi::parse_smf(&bytes).unwrap(), 0);
    let config = QbhConfig::default();
    let store = dir.join("store");
    let mut system =
        QbhSystem::try_create_store(&store, &config, StoreOptions::default()).unwrap();
    let target = melody.to_time_series(config.samples_per_beat);
    let decoy: Vec<f64> = target.iter().rev().map(|p| p + 7.0).collect();
    system.try_insert_melody(7, 0, 0, &decoy).unwrap();
    system.try_insert_melody(1_000_000, 0, 5, &target).unwrap();
    system.try_insert_melody(u64::MAX, 0, 1, &decoy[1..]).unwrap();
    system.flush().unwrap();
    assert!(system.try_remove(7).unwrap());
    drop(system);

    let query = qbh(&["query", store.to_str().unwrap(), wav.to_str().unwrap(), "--top", "2"]);
    assert!(query.status.success(), "{query:?}");
    let out = stdout(&query);
    assert!(out.contains("1. melody #1000000"), "{out}");
    assert!(out.contains(&format!("2. melody #{}", u64::MAX)), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}

fn count_mid_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "mid")
        })
        .count()
}
