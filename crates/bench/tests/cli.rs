//! End-to-end tests of the `repro` command-line binary.

use std::process::Command;

#[test]
fn a_repeated_experiment_runs_once() {
    let out = std::env::temp_dir().join(format!("repro-cli-test-{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["kernels", "ingest", "kernels", "--quick", "--out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(&out);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{run:?}");
    for name in ["kernels", "ingest"] {
        let header = format!("=== {name} ===");
        assert_eq!(stdout.matches(&header).count(), 1, "{header} once:\n{stdout}");
    }
    assert!(stdout.contains("Reproducing 2 experiment(s)"), "{stdout}");
}
