//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [EXPERIMENT ...] [--quick] [--out DIR]
//!
//! EXPERIMENT: table2 | table3 | fig6 | fig7 | fig8 | fig9 | fig10 | extras
//!             | obs | serve | kernels | stream | ingest | scale | all
//!             (default: all; `extras` runs the DESIGN.md ablations, `obs`
//!             the traced cascade-trajectory run of the Figure-9 workload,
//!             `serve` the TCP-serving latency/throughput sweep, `kernels`
//!             the kernel-layer microbenchmarks with bit-identity checks,
//!             `stream` the hum-prefix refinement latency/churn sweep,
//!             `ingest` the segmented-store durable-ingest cost sweep,
//!             `scale` the New_PAA feature-dimension sweep over sung hums)
//! --quick     small workloads (seconds instead of minutes)
//! --out DIR   where to write .txt/.csv/.json results (default: results)
//! ```

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

use hum_bench::experiments::{
    extras, fig10, fig6, fig7, fig8, fig9, ingest, kernels, obs, scale, serve, stream, table2,
    table3,
};
use hum_bench::report::persist;

const EXPERIMENTS: [&str; 14] = [
    "table2", "table3", "fig6", "fig7", "fig8", "fig9", "fig10", "extras", "obs", "serve",
    "kernels", "stream", "ingest", "scale",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut selected: Vec<String> = Vec::new();

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match iter.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return usage("--out needs a directory"),
            },
            "all" => selected.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            name if EXPERIMENTS.contains(&name) => selected.push(name.to_string()),
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument: {other}")),
        }
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS.iter().map(|s| s.to_string()));
    }
    // Each experiment runs once, in the order first named.
    let mut seen = HashSet::new();
    selected.retain(|name| seen.insert(name.clone()));

    println!(
        "Reproducing {} experiment(s) at {} scale; results -> {}\n",
        selected.len(),
        if quick { "quick" } else { "paper" },
        out_dir.display()
    );

    let mut shape_failures: Vec<(String, Vec<String>)> = Vec::new();
    for name in &selected {
        let started = Instant::now();
        println!("=== {name} ===");
        let failures = match name.as_str() {
            "table2" => {
                let params =
                    if quick { table2::Params::quick() } else { table2::Params::paper() };
                let output = table2::run(&params);
                let (text, table) = table2::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                table2::check(&output)
            }
            "table3" => {
                let params =
                    if quick { table3::Params::quick() } else { table3::Params::paper() };
                let output = table3::run(&params);
                let (text, table) = table3::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                table3::check(&output)
            }
            "fig6" => {
                let params = if quick { fig6::Params::quick() } else { fig6::Params::paper() };
                let output = fig6::run(&params);
                let (text, table) = fig6::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                fig6::verify_shape(&output)
            }
            "fig7" => {
                let params = if quick { fig7::Params::quick() } else { fig7::Params::paper() };
                let output = fig7::run(&params);
                let (text, table) = fig7::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                fig7::verify_shape(&output)
            }
            "fig8" => {
                let params = if quick { fig8::Params::quick() } else { fig8::Params::paper() };
                let output = fig8::run(&params);
                let (text, table) = fig8::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                fig8::check(&output)
            }
            "fig9" => {
                let params = if quick { fig9::Params::quick() } else { fig9::Params::paper() };
                let output = fig9::run(&params);
                let (text, table) = fig9::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                fig9::check(&output)
            }
            "fig10" => {
                let params =
                    if quick { fig10::Params::quick() } else { fig10::Params::paper() };
                let output = fig10::run(&params);
                let (text, table) = fig10::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                fig10::check(&output)
            }
            "extras" => {
                let params =
                    if quick { extras::Params::quick() } else { extras::Params::paper() };
                let output = extras::run(&params);
                let (text, table) = extras::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                extras::check(&output)
            }
            "obs" => {
                let params = if quick { obs::Params::quick() } else { obs::Params::paper() };
                let output = obs::run(&params);
                let (text, table) = obs::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                obs::check(&output)
            }
            "kernels" => {
                let params =
                    if quick { kernels::Params::quick() } else { kernels::Params::paper() };
                let output = kernels::run(&params);
                let (text, table) = kernels::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                kernels::check(&output)
            }
            "serve" => {
                let params = if quick { serve::Params::quick() } else { serve::Params::paper() };
                let output = serve::run(&params);
                let (text, table) = serve::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                serve::check(&output)
            }
            "stream" => {
                let params =
                    if quick { stream::Params::quick() } else { stream::Params::paper() };
                let output = stream::run(&params);
                let (text, table) = stream::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                stream::check(&output)
            }
            "ingest" => {
                let params =
                    if quick { ingest::Params::quick() } else { ingest::Params::paper() };
                let output = ingest::run(&params);
                let (text, table) = ingest::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                ingest::check(&output)
            }
            "scale" => {
                let params = if quick { scale::Params::quick() } else { scale::Params::paper() };
                let output = scale::run(&params);
                let (text, table) = scale::render(&output);
                println!("{text}");
                persist(&out_dir, name, &text, &table, &serde_json::json!(output));
                scale::check(&output)
            }
            _ => unreachable!("validated above"),
        };
        println!("[{name} finished in {:.1}s]\n", started.elapsed().as_secs_f64());
        if !failures.is_empty() {
            shape_failures.push((name.clone(), failures));
        }
    }

    if shape_failures.is_empty() {
        println!("All reproduced experiments match the paper's qualitative shape.");
    } else {
        println!("Shape deviations detected:");
        for (name, failures) in &shape_failures {
            for f in failures {
                println!("  {name}: {f}");
            }
        }
        std::process::exit(1);
    }
}

fn usage(error: &str) {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: repro [EXPERIMENT ...] [--quick] [--out DIR]\n\
         experiments: {} | all",
        EXPERIMENTS.join(" | ")
    );
    if !error.is_empty() {
        std::process::exit(2);
    }
}
