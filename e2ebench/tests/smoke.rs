//! Reduced-size runs of every workload, untraced and traced, so a broken
//! harness fails `cargo test`.

use std::path::PathBuf;

use e2ebench::{result_json, run, workload, Config, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn every_workload_runs_checks_and_reports_every_metric() {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-smoke");
    // One test runs all workloads in turn: the obs counters and the
    // evaluation tallies are process-wide.
    for name in WORKLOADS {
        let w = workload(name, true).expect("known workload");
        for trace in [false, true] {
            let config = Config {
                seed: 7,
                seconds: 0.0,
                trace,
            };
            let report = run(w.as_ref(), &config, &work.join(name)).expect("run");
            assert!(report.correct, "{name} (trace {trace}) failed its checks");
            assert!(report.attempted > 0 && report.failed == 0, "{name}");
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, expected, "{name}");
            for (metric, value, _) in &report.metrics {
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                if !trace {
                    assert!(*value > 0.0, "{name}: {metric} must never read 0");
                }
            }
            let line = result_json(&report);
            assert!(line.starts_with("{\"correct\":true,"), "{line}");
            if trace {
                let get = |m: &str| report.metrics.iter().find(|x| x.0 == m).expect(m).1;
                // Process CPU time ticks at 10 ms, so a tiny run may read 0.
                assert!(get("pool.utilization") >= 0.0, "{name}");
                if name != "osd_fra" {
                    assert!(get("greenorbs.field_evals") > 0.0, "{name}");
                    assert!(get("sim.stage.optimize_ns") > 0.0, "{name}");
                    assert!(get("sim.unattributed_ns") >= 0.0, "{name}");
                } else {
                    assert!(get("field.grid_evals") > 0.0);
                    assert!(get("core.fra.run_ns") > 0.0);
                }
            }
        }
    }
}

#[test]
fn derived_seeds_are_stable_and_distinct() {
    let a: Vec<u64> = (0..4).map(|i| e2ebench::derive_seed(1, i)).collect();
    let b: Vec<u64> = (0..4).map(|i| e2ebench::derive_seed(1, i)).collect();
    assert_eq!(a, b);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 4);
    assert_ne!(e2ebench::derive_seed(2, 0), a[0]);
}
