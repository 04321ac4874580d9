//! Command line of the end-to-end benchmark:
//!
//! ```text
//! e2ebench --workload ostd_cma|osd_fra|sweep_faults --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Log lines go to standard output as JSON
//! objects; the last line is the result object.

use std::error::Error;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use e2ebench::{result_json, run, workload, Config, WORKLOADS};

const USAGE: &str =
    "usage: e2ebench --workload ostd_cma|osd_fra|sweep_faults --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    config: Config,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, Box<dyn Error>> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = value.parse()?,
            "--seconds" => {
                seconds = value.parse()?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must lie in 0..=600".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    let workload = name.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}").into());
    }
    Ok(Args {
        workload,
        config: Config {
            seed,
            seconds,
            trace,
        },
    })
}

/// First line of a command's output, or "unknown".
fn probe_command(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = workload(&args.workload, false).expect("workload names are checked by parse");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oversubscribed = w.threads() > cores;
    println!(
        "{{\"kind\":\"env\",\"workload\":\"{}\",\"seed\":{},\"nproc\":{cores},\"threads\":{},\
         \"oversubscribed\":{oversubscribed},\"git\":{:?},\"rustc\":{:?}}}",
        w.name(),
        args.config.seed,
        w.threads(),
        probe_command("git", &["rev-parse", "HEAD"]),
        probe_command("rustc", &["--version"]),
    );
    if oversubscribed {
        eprintln!(
            "{}: {} threads on {cores} cores; timings carry no scaling claim",
            w.name(),
            w.threads()
        );
    }
    let work = PathBuf::from(".e2ebench_work").join(format!("{}-{}", w.name(), std::process::id()));
    let outcome = run(w.as_ref(), &args.config, &work);
    // Best effort: a leftover directory is harmless and ignored by git.
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".e2ebench_work");
    match outcome {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", result_json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}
