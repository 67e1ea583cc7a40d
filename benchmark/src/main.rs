//! The query-by-humming benchmark. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! hum-benchmark [run] --workload <name|all> --seed <u64> --seconds <n> --trace <0|1>
//!               [--smoke] [--out <file>] [--work-dir <dir>]
//! hum-benchmark compare <a.json> <b.json> [--spec <BENCHMARK.json>]
//! hum-benchmark spread <file>... [--spec <BENCHMARK.json>]
//! ```

mod compare;
mod inputs;
mod loadgen;
mod oracle;
mod probes;
mod replay;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use workloads::{RunConfig, RunOutput};

const USAGE: &str =
    "usage: hum-benchmark [run] --workload <hum_10k|hum_30k|serve_knn|serve_mixed|all> \
--seed <u64> --seconds <n> --trace <0|1> [--smoke] [--out <file>] [--work-dir <dir>]
       hum-benchmark compare <a.json> <b.json> [--spec <BENCHMARK.json>]
       hum-benchmark spread <file>... [--spec <BENCHMARK.json>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    work_dir: PathBuf,
    spec: String,
    rest: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
        work_dir: PathBuf::from("benchmark/work"),
        spec: "BENCHMARK.json".into(),
        rest: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = || -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    parsed.trace = false;
                    i += 1;
                }
                Some("1") => {
                    parsed.trace = true;
                    i += 1;
                }
                _ => parsed.trace = true,
            },
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--work-dir" => parsed.work_dir = PathBuf::from(value()?),
            "--spec" => parsed.spec = value()?,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => parsed.rest.push(args[i].clone()),
        }
        i += 1;
    }
    Ok(parsed)
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The run as a JSON object; `result_only` keeps exactly the four keys the
/// benchmark contract asks for on the last line of standard output.
fn run_json(args: &Args, output: &RunOutput, result_only: bool) -> Value {
    let metrics = output
        .metrics
        .iter()
        .map(|(name, value)| {
            let entry = Value::Object(vec![
                ("value".into(), Value::Number(*value)),
                ("unit".into(), Value::String(unit_of(name).into())),
            ]);
            ((*name).to_string(), entry)
        })
        .collect();
    let mut fields = Vec::new();
    if !result_only {
        fields.extend([
            ("workload".to_string(), Value::String(args.workload.clone())),
            ("seed".to_string(), Value::Number(args.seed as f64)),
            ("seconds".to_string(), Value::Number(args.seconds)),
            ("trace".to_string(), Value::Bool(args.trace)),
        ]);
    }
    fields.extend([
        ("correct".to_string(), Value::Bool(output.failed == 0)),
        ("attempted".to_string(), Value::Number(output.attempted as f64)),
        ("failed".to_string(), Value::Number(output.failed as f64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    if !result_only {
        let notes = output.notes.iter().cloned().map(Value::String).collect();
        fields.push(("notes".to_string(), Value::Array(notes)));
    }
    Value::Object(fields)
}

/// The metrics a run must print, given its mode, each exactly once.
fn check_complete(output: &RunOutput, trace: bool) -> Result<(), String> {
    let expected = if trace { spec::PER_LAYER } else { spec::END_TO_END };
    let mut printed: Vec<&str> = output.metrics.iter().map(|(n, _)| *n).collect();
    let mut wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    printed.sort_unstable();
    wanted.sort_unstable();
    if printed != wanted {
        return Err(format!(
            "metrics printed {printed:?} differ from the metrics listed {wanted:?}"
        ));
    }
    if let Some((name, value)) = output.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    Ok(())
}

fn write_out(path: &PathBuf, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn run_one(args: &Args) -> Result<bool, String> {
    let output = workloads::run(&RunConfig {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        work_dir: args.work_dir.clone(),
    })?;
    check_complete(&output, args.trace)?;
    for note in &output.notes {
        eprintln!("# {}: {note}", args.workload);
    }
    for (name, value) in &output.metrics {
        println!("{} {name} {value} {}", args.workload, unit_of(name));
    }
    if let Some(path) = &args.out {
        write_out(path, &run_json(args, &output, false))?;
    }
    // The result line carries the verdict; the exit code only says that a
    // result was printed.
    println!(
        "{}",
        serde_json::to_string(&run_json(args, &output, true)).map_err(|e| e.to_string())?
    );
    Ok(true)
}

/// Runs every workload, each in a process of its own (so resident memory
/// is per workload), and gathers their run objects.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&args.work_dir).map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut correct = true;
    for workload in spec::WORKLOADS {
        let part = args.work_dir.join(format!("part_{workload}_{}.json", std::process::id()));
        let mut command = Command::new(&exe);
        command
            .args(["run", "--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--work-dir")
            .arg(&args.work_dir)
            .arg("--out")
            .arg(&part)
            .stdin(Stdio::null());
        if args.smoke {
            command.arg("--smoke");
        }
        // The child's stdout is this process's: its metric lines stream
        // through; `wait` is implied by `status`.
        let status = command.status().map_err(|e| format!("spawn {workload}: {e}"))?;
        if !status.success() {
            return Err(format!("workload {workload} exited with {status}"));
        }
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        let _ = std::fs::remove_file(&part);
        let run = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        correct &= matches!(spec::field(&run, "correct"), Some(Value::Bool(true)));
        runs.push(run);
    }
    let all = Value::Object(vec![("runs".to_string(), Value::Array(runs))]);
    if let Some(path) = &args.out {
        write_out(path, &all)?;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("compare") => ("compare", &argv[1..]),
        Some("spread") => ("spread", &argv[1..]),
        Some("run") => ("run", &argv[1..]),
        // Internal: the child process that builds `serve_mixed`'s store.
        Some("build-store") => ("build-store", &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let outcome = parse(rest).and_then(|args| match command {
        "compare" => match args.rest.as_slice() {
            [a, b] => compare::compare(a, b, &args.spec).map(|regressions| regressions == 0),
            _ => Err("compare takes two result files".into()),
        },
        "spread" if !args.rest.is_empty() => {
            compare::spread(&args.rest, &args.spec).map(|over| over == 0)
        }
        "build-store" => {
            workloads::build_store_command(&args.workload, args.seed, args.smoke, &args.work_dir)
                .map(|()| true)
        }
        "run" if args.rest.is_empty() && args.workload == "all" => run_all(&args),
        "run" if args.rest.is_empty() && !args.workload.is_empty() => run_one(&args),
        _ => Err(USAGE.into()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Wrong answers, regressions or over-wide spreads: reported above.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("hum-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
