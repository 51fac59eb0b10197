//! `pim-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the current directory, writing its inputs under
//! `.bench_tmp/`, and prints a summary followed by one JSON result line.

use std::path::PathBuf;
use std::process::ExitCode;

use pim_e2ebench::metrics::tail_percentile;
use pim_e2ebench::spec::{workload, WORKLOADS};
use pim_e2ebench::{run, Options};

const USAGE: &str = "usage: pim-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn parse_args() -> Result<(String, Options), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let opts = Options {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    Ok((name, opts))
}

fn main() -> ExitCode {
    let (name, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload(&name) else {
        eprintln!("unknown workload {name:?} (one of: {})", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    let scratch =
        Scratch(PathBuf::from(".bench_tmp").join(format!("{name}-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("{}: {e}", scratch.0.display());
        return ExitCode::FAILURE;
    }
    let outcome = match run(spec, &opts, &scratch.0) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{name}: could not run: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(scratch);

    let n = outcome.run_samples.len();
    let tail = match tail_percentile(&outcome.run_samples) {
        Some((p, v)) => format!("p{p} {v:.4} s"),
        None => "no percentile has 10 samples beyond it".into(),
    };
    println!(
        "{name} seed {} trace {}: ops_attempted {} ops_failed {}; untraced run_s over {n} samples: {tail}",
        opts.seed, opts.trace as u8, outcome.attempted, outcome.failed
    );
    let samples: Vec<String> = outcome.run_samples.iter().map(|s| format!("{s:.3}")).collect();
    println!("untraced run_s samples: [{}]", samples.join(", "));
    for error in &outcome.errors {
        println!("failed: {error}");
    }
    for (metric, unit) in pim_e2ebench::Outcome::table(opts.trace) {
        println!("  {metric:<32} {:>16.6} {unit}", outcome.values[*metric]);
    }
    println!("{}", outcome.json(opts.trace));
    ExitCode::SUCCESS
}
