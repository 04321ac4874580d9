//! End-to-end tests of the `cps` binary: every subcommand runs against
//! real files in a scratch directory.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cps_cli_e2e_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cps"))
}

#[test]
fn generate_plan_report_pipeline() {
    let dir = scratch("pipeline");
    let trace = dir.join("trace.json");
    let plan = dir.join("plan.csv");

    // generate a small trace
    let out = cps()
        .args([
            "generate",
            "--out",
            trace.to_str().unwrap(),
            "--nodes",
            "250",
            "--hours",
            "12",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    // plan a deployment
    let out = cps()
        .args([
            "plan",
            "--trace",
            trace.to_str().unwrap(),
            "--k",
            "40",
            "--out",
            plan.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FRA placed 40 nodes"));
    assert!(stdout.contains("deployment report"));
    assert!(stdout.contains("connected true"));

    // report on the saved plan reproduces the numbers
    let out = cps()
        .args([
            "report",
            "--trace",
            trace.to_str().unwrap(),
            "--plan",
            plan.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report_out = String::from_utf8_lossy(&out.stdout);
    assert!(report_out.contains("40 nodes loaded"));
    // The delta line printed by `plan` must reappear verbatim.
    let delta_line = stdout
        .lines()
        .find(|l| l.starts_with("delta "))
        .expect("plan printed a delta line");
    assert!(report_out.contains(delta_line));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_runs_and_writes_svg() {
    let dir = scratch("simulate");
    let svg = dir.join("swarm.svg");
    let out = cps()
        .args([
            "simulate",
            "--k",
            "25",
            "--minutes",
            "5",
            "--svg",
            svg.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&svg).unwrap();
    assert!(text.starts_with("<svg"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_failures() {
    // Unknown subcommand.
    let out = cps().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // Missing required flag.
    let out = cps().args(["plan"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));

    // Typo'd flag is caught, not silently ignored.
    let out = cps().args(["simulate", "--minuets", "5"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--minuets"));

    // help succeeds
    let out = cps().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: cps"));
}

#[test]
fn resume_refuses_snapshots_of_an_older_format() {
    // A checkpoint directory holding only a version 1 snapshot: the run
    // exists, so --resume must fail with the version error instead of
    // silently starting fresh.
    let dir = scratch("old_snapshot");
    let ckpt = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt).unwrap();
    std::fs::write(
        ckpt.join("snap-000000000010.cpsnap"),
        "CPSSNAP 1 0000000000000000 2\n{}",
    )
    .unwrap();
    let out = cps()
        .args([
            "simulate",
            "--minutes",
            "12",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--resume",
            "on",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("snapshot format version 1 is not supported"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plan_rejects_fewer_than_three_nodes_before_any_work() {
    // The trace does not exist: the --k check must fire before the
    // trace is read, let alone before FRA runs.
    let dir = scratch("plan_small_k");
    let trace = dir.join("missing.json");
    for k in ["0", "1", "2"] {
        let out = cps()
            .args(["plan", "--trace", trace.to_str().unwrap(), "--k", k])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--k {k} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--k must be at least 3"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn surface_rejects_resolutions_below_two_before_any_work() {
    // The trace does not exist: the --resolution check must fire before
    // the trace is read.
    let dir = scratch("surface_resolution");
    let missing = dir.join("missing.json");
    for resolution in ["0", "1"] {
        let out = cps()
            .args([
                "surface",
                "--trace",
                missing.to_str().unwrap(),
                "--resolution",
                resolution,
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--resolution {resolution} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--resolution must be at least 2"),
            "{stderr}"
        );
    }
    // The smallest accepted grid renders.
    let trace = dir.join("trace.json");
    let out = cps()
        .args([
            "generate",
            "--out",
            trace.to_str().unwrap(),
            "--nodes",
            "60",
            "--hours",
            "12",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cps()
        .args([
            "surface",
            "--trace",
            trace.to_str().unwrap(),
            "--resolution",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_with_cma_rejects_k_beyond_the_start_lattice() {
    let out = cps()
        .args(["simulate", "--k", "122", "--minutes", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--k must be in 1..=121"), "{stderr}");
    // The last value in range still fits the lattice.
    let out = cps()
        .args(["simulate", "--k", "121", "--minutes", "0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn missing_input_files_are_named_with_their_flag() {
    let dir = scratch("missing_inputs");
    let trace = dir.join("trace.json");
    let out = cps()
        .args([
            "generate",
            "--out",
            trace.to_str().unwrap(),
            "--nodes",
            "60",
            "--hours",
            "12",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let trace = trace.to_str().unwrap();
    let results = dir.join("results.json");
    let results = results.to_str().unwrap();
    let absent = dir.join("absent");
    let absent = absent.to_str().unwrap();
    let cases = [
        (vec!["plan"], "--trace"),
        (vec!["sweep", "--out", results], "--spec"),
        (vec!["report", "--trace", trace], "--plan"),
    ];
    for (args, flag) in cases {
        let out = cps().args(&args).args([flag, absent]).output().unwrap();
        assert!(!out.status.success(), "{flag} {absent} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("cannot read {flag} {absent}: ")),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn thread_counts_above_the_cap_are_rejected_before_any_work() {
    // No input file exists, so a check that fired after reading one
    // would report the missing file instead.
    let dir = scratch("thread_cap");
    let absent = dir.join("absent.json");
    let absent = absent.to_str().unwrap();
    let commands = [
        (vec!["plan", "--trace", absent], "--threads"),
        (vec!["simulate", "--minutes", "1"], "--threads"),
        (
            vec!["report", "--trace", absent, "--plan", absent],
            "--threads",
        ),
        (
            vec!["sweep", "--spec", absent, "--out", absent],
            "--workers",
        ),
    ];
    for (args, flag) in &commands {
        for n in ["65", "100000"] {
            let out = cps().args(args).args([flag, n]).output().unwrap();
            assert!(!out.status.success(), "{args:?} {flag} {n} must fail");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("{flag} must be at most 64, got {n}")),
                "{stderr}"
            );
        }
    }
    // The cap itself is accepted: these runs get as far as reading
    // their (missing) input, which starts no thread.
    for (args, flag) in commands.iter().filter(|(args, _)| args[0] != "simulate") {
        let out = cps().args(args).args([flag, "64"]).output().unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot read --"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
