//! The whole benchmark in `--smoke` size: every workload, untraced and
//! traced, every gate, the results files and `compare`.

use pf_trace::Json;
use std::path::PathBuf;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_pf-benchmark");

struct Run {
    last_line: Json,
    results: PathBuf,
}

fn smoke(extra: &[&str]) -> Run {
    let out = Command::new(EXE)
        .args(["run", "--seed", "3", "--smoke"])
        .args(extra)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = stdout
        .lines()
        .find_map(|l| l.strip_prefix("results: "))
        .expect("the run names its results file")
        .into();
    let last = stdout.lines().last().expect("a last line");
    Run {
        last_line: pf_trace::parse_json(last).expect("the last line is one JSON object"),
        results,
    }
}

fn metric_names(last_line: &Json) -> Vec<String> {
    let metrics = last_line.get("metrics").and_then(Json::as_obj).unwrap();
    metrics.keys().cloned().collect()
}

#[test]
fn smoke_runs_every_workload_gate_and_mode() {
    // Untraced: every workload reports the end-to-end metrics and passes.
    let untraced = smoke(&[]);
    assert_eq!(untraced.last_line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(untraced.last_line.get("failed"), Some(&Json::Num(0.0)));
    let names = metric_names(&untraced.last_line);
    for w in [
        "p1_block_native",
        "p2_block_interp",
        "p1_dist2_small",
        "p1_dist2_ckpt",
    ] {
        for m in ["setup_s", "mlups", "wall_s"] {
            assert!(names.contains(&format!("{w}/{m}")), "{w}/{m} missing");
        }
    }

    // The results file parses and holds what the last line cannot:
    // restore_ms on the checkpointing workload, every gate.
    let text = std::fs::read_to_string(&untraced.results).unwrap();
    let results = pf_trace::parse_json(&text).unwrap();
    let workloads = results.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), 4);
    let ckpt = &workloads[3];
    assert!(ckpt.get("metrics").unwrap().get("restore_ms").is_some());
    for w in workloads {
        let gates = w.get("gates").and_then(Json::as_arr).unwrap();
        assert!(gates.len() >= 3);
        assert!(gates
            .iter()
            .all(|g| g.get("pass") == Some(&Json::Bool(true))));
    }

    // A single workload keeps the driver's bare metric names.
    let one = smoke(&["--workload", "p1_dist2_small", "--trace", "0"]);
    assert_eq!(metric_names(&one.last_line), ["mlups", "setup_s", "wall_s"]);

    // Traced: the per-layer metrics, and a trace file beside the results.
    let traced = smoke(&["--traced"]);
    assert_eq!(traced.last_line.get("correct"), Some(&Json::Bool(true)));
    let names = metric_names(&traced.last_line);
    for m in [
        "symbolic.optimize_s",
        "backend.phi_kernel_ms",
        "trace.overhead_pct",
    ] {
        assert!(
            names.contains(&format!("p2_block_interp/{m}")),
            "{m} missing"
        );
    }
    let trace = traced.results.with_extension("trace.json");
    let spans = pf_trace::parse_json(&std::fs::read_to_string(trace).unwrap()).unwrap();
    let block = spans.get("p1_block_native").unwrap();
    assert!(block
        .get("by_name")
        .unwrap()
        .get("backend.phi_kernel")
        .is_some());

    // Two runs of one commit compare clean up to timing noise: the exact
    // counts repeat, and `compare` refuses files of different modes.
    let again = smoke(&["--traced"]);
    let out = Command::new(EXE)
        .arg("compare")
        .args([&traced.results, &again.results])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("p1_dist2_ckpt"), "{table}");
    assert!(
        !table.contains("differs"),
        "an exact count did not repeat:\n{table}"
    );
    let mixed = Command::new(EXE)
        .arg("compare")
        .args([&untraced.results, &traced.results])
        .output()
        .unwrap();
    assert_eq!(mixed.status.code(), Some(2));
}
