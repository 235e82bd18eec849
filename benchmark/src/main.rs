//! The repository's end-to-end benchmark: free-energy functional ->
//! generated kernels -> time steps, on one block and on two ranks, with a
//! per-layer traced run. See README.md.
//!
//! Every layer is measured from outside: by timing calls into the crates'
//! public functions and by reading the spans and counters `pf-trace`
//! already records.

mod block;
mod codegen;
mod compare;
mod dist;
mod expected;
mod host;
mod init;
mod layers;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use pf_trace::Json;
use report::{Better, Outcome, Results};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage:
  pf-benchmark run --seed <u64> [--workload <name>] [--traced | --trace <0|1>]
                   [--seconds <n>] [--smoke]
  pf-benchmark compare <A.json> <B.json>
  pf-benchmark expected --seed <u64>
workloads: p1_block_native p2_block_interp p1_dist2_small p1_dist2_ckpt";

/// End-to-end metrics every workload reports: `end_to_end` of
/// BENCHMARK.json, what `--trace 0` prints on the last line.
/// The others are in the results file only: `step_ms_p90` exists on the
/// block workloads alone and `restore_ms` on `p1_dist2_ckpt`,
/// `peak_rss_mb` of `p1_dist2_small` varies 43-57 MB between runs of one
/// commit, and `fail_share` is that line's `failed` over `attempted`.
const DRIVER_END_TO_END: [&str; 3] = ["setup_s", "mlups", "wall_s"];

/// Per-layer metrics every workload reports: `per_layer` of
/// BENCHMARK.json, what `--trace 1` prints on the last line.
const DRIVER_PER_LAYER: [&str; 20] = [
    "core.build_model_s",
    "stencil.discretize_s",
    "symbolic.optimize_s",
    "ir.lower_s",
    "analyze.verify_s",
    "analyze.diagnostics",
    "ir.tape_instrs",
    "ir.hoisted_share",
    "perfmodel.flops_percell",
    "perfmodel.loads_percell",
    "perfmodel.stores_percell",
    "perfmodel.flops_per_byte_computed",
    "backend.phi_kernel_ms",
    "backend.mu_kernel_ms",
    "backend.phi_mlups",
    "backend.mu_mlups",
    "backend.launches_per_step",
    "backend.fallbacks",
    "trace.overhead_pct",
    "host.copy_gb_s",
];

struct Args {
    seed: u64,
    workload: Option<String>,
    traced: bool,
    seconds: f64,
    smoke: bool,
    scratch: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 0,
        workload: None,
        traced: false,
        seconds: workloads::REFERENCE_SECONDS,
        smoke: false,
        scratch: None,
        out: None,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a u64"))?);
            }
            "--workload" => {
                let v = value()?;
                if !workloads::NAMES.contains(&v.as_str()) {
                    return Err(format!("--workload {v}: no such workload"));
                }
                a.workload = Some(v.clone());
            }
            "--traced" => a.traced = true,
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: 0 or 1")),
                }
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1.0..=60.0).contains(s))
                    .ok_or_else(|| format!("--seconds {v}: a number from 1 to 60"))?;
            }
            "--smoke" => a.smoke = true,
            "--scratch" => a.scratch = Some(value()?.into()),
            "--out" => a.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    a.seed = seed.ok_or("--seed is required")?;
    Ok(a)
}

/// One workload in this process (so `VmHWM` is the workload's own).
fn child(a: &Args) -> Result<(), String> {
    let name = a.workload.as_deref().ok_or("child needs --workload")?;
    let scratch = a.scratch.as_deref().ok_or("child needs --scratch")?;
    let out_path = a.out.as_deref().ok_or("child needs --out")?;
    host::scrub_env();
    let ckpt_root = host::isolate_caches(scratch).map_err(|e| e.to_string())?;
    let w = workloads::workload(name, a.seconds, a.smoke).expect("name was checked");
    if w.mode == pf_backend::ExecMode::Native && !pf_backend::native_available() {
        return Err(format!(
            "{name} measures ExecMode::Native, but no rustc that can build and load a cdylib \
             was found; refusing to measure the vectorized fall-back in its place"
        ));
    }
    let outcome = run::run_workload(&run::Ctx {
        w: &w,
        seed: a.seed,
        traced: a.traced,
        smoke: a.smoke,
        ckpt_root,
    });
    let j = report::obj([
        ("outcome", outcome.to_json()),
        ("trace", outcome.trace_json()),
    ]);
    std::fs::write(out_path, j.to_compact()).map_err(|e| e.to_string())
}

/// Run `name` in a child process and read its outcome back.
fn spawn(a: &Args, name: &str, tmp: &Path) -> (Outcome, Json) {
    let scratch = tmp.join(name);
    let out_path = tmp.join(format!("{name}.json"));
    let run = || -> Result<(Outcome, Json), String> {
        std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("child")
            .args(["--workload", name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }])
            .arg("--scratch")
            .arg(&scratch)
            .arg("--out")
            .arg(&out_path);
        if a.smoke {
            cmd.arg("--smoke");
        }
        // glibc's default mmap threshold, but pinned. Left to adapt to the
        // order in which frees happen, it makes peak RSS of p1_dist2_ckpt
        // vary 83-128 MB between runs (pinned: 64 +- 1) and restore_ms
        // bimodal (43 or 53 ms); throughput reads the same either way.
        cmd.env("MALLOC_MMAP_THRESHOLD_", "131072");
        // The child reports through its file; its stdout joins our stderr
        // so that our last stdout line stays the result.
        let status = cmd
            .stdout(std::io::stderr())
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("child process ended with {status}"));
        }
        let text = std::fs::read_to_string(&out_path).map_err(|e| e.to_string())?;
        let j = pf_trace::parse_json(&text).map_err(|e| e.to_string())?;
        let outcome = Outcome::from_json(j.get("outcome").ok_or("child wrote no outcome")?)?;
        Ok((outcome, j.get("trace").cloned().unwrap_or(Json::Null)))
    };
    let result = run();
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_file(&out_path);
    result.unwrap_or_else(|e| {
        let mut o = Outcome {
            workload: name.to_owned(),
            attempted: 1,
            ..Outcome::default()
        };
        o.gates.push(report::Gate::from("completed", Err(e)));
        o.settle();
        (o, Json::Null)
    })
}

fn print_outcome(o: &Outcome, why: &str) {
    println!("== {} ==", o.workload);
    println!("  why: {why}");
    for m in &o.metrics {
        let kind = match report::end_to_end(&m.name) {
            Some(d) => format!(
                "end-to-end, {} is better, bound {:.0} %",
                if d.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                },
                d.bound * 100.0
            ),
            None if m.exact => "per-layer, exact".to_string(),
            None => "per-layer".to_string(),
        };
        let samples = match (m.n, m.spread) {
            (Some(n), Some(s)) => format!("n={n}, quartile spread {:.2} %", s * 100.0),
            (Some(n), None) => format!("n={n}"),
            _ => String::new(),
        };
        println!(
            "  {:<38} {:>14.6} {:<7} {:<34} [{kind}]",
            m.name, m.value, m.unit, samples
        );
    }
    println!(
        "  operations: {} attempted, {} failed; verify_s {:.2} (not in wall_s)",
        o.attempted, o.failed, o.verify_s
    );
    for g in &o.gates {
        println!(
            "  gate {:<24} {}  {}",
            g.name,
            if g.pass { "pass" } else { "FAIL" },
            g.detail
        );
    }
    for n in &o.notes {
        println!("  note: {n}");
    }
}

fn run_cmd(a: &Args) -> Result<bool, String> {
    host::scrub_env();
    let host = host::probe();
    println!(
        "host: {} cores, {}; canary: copy of {} MiB (L3 {} MiB) at {:.2} GB/s; commit {}",
        host.nproc,
        host.rustc,
        host.copy_bytes >> 20,
        host.l3_bytes >> 20,
        host.copy_gb_s,
        host.git_commit
    );
    let results_dir = host::bench_dir().join("results");
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let run_id = format!(
        "{stamp}-{}-seed{}-{}{}",
        std::process::id(),
        a.seed,
        if a.traced { "traced" } else { "untraced" },
        if a.smoke { "-smoke" } else { "" }
    );
    let tmp = results_dir.join("tmp").join(&run_id);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;

    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut results = Results {
        run_id: run_id.clone(),
        seed: a.seed,
        traced: a.traced,
        smoke: a.smoke,
        seconds: a.seconds,
        // Lengths are proportional to `--seconds`.
        step_scale: a.seconds / workloads::REFERENCE_SECONDS,
        host,
        workloads: Vec::new(),
    };
    let mut traces = Vec::new();
    for name in &names {
        let (mut outcome, trace) = spawn(a, name, &tmp);
        if a.traced {
            outcome.metrics.push(report::Metric::new(
                "host.copy_gb_s",
                results.host.copy_gb_s,
                "GB/s",
            ));
            outcome.metrics.push(report::Metric::exact(
                "host.nproc",
                results.host.nproc as f64,
                "count",
            ));
        }
        let w = workloads::workload(name, a.seconds, a.smoke).expect("name was checked");
        print_outcome(&outcome, w.why);
        traces.push((name.to_string(), trace));
        results.workloads.push(outcome);
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(results_dir.join("tmp"));

    let file = results_dir.join(format!("{run_id}.json"));
    std::fs::write(&file, results.to_json().to_pretty()).map_err(|e| e.to_string())?;
    println!("results: {}", file.display());
    if a.traced {
        let file = results_dir.join(format!("{run_id}.trace.json"));
        std::fs::write(&file, Json::obj(traces).to_compact()).map_err(|e| e.to_string())?;
        println!("trace:   {}", file.display());
    }

    // The last line: one JSON object, the metrics every workload reports.
    let listed: &[&str] = if a.traced {
        &DRIVER_PER_LAYER
    } else {
        &DRIVER_END_TO_END
    };
    let mut metrics = Vec::new();
    for o in &results.workloads {
        for m in o
            .metrics
            .iter()
            .filter(|m| listed.contains(&m.name.as_str()))
        {
            let key = if names.len() == 1 {
                m.name.clone()
            } else {
                format!("{}/{}", o.workload, m.name)
            };
            let v = report::obj([("value", Json::Num(m.value)), ("unit", Json::str(&m.unit))]);
            metrics.push((key, v));
        }
    }
    let correct = results.workloads.iter().all(Outcome::correct);
    let attempted: u64 = results.workloads.iter().map(|o| o.attempted).sum();
    let failed: u64 = results.workloads.iter().map(|o| o.failed).sum();
    println!(
        "{}",
        report::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted.max(1) as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_compact()
    );
    Ok(correct)
}

fn compare_cmd(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare takes two results files".into());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Results::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    compare::compare(&load(a)?, &load(b)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse(rest).and_then(|a| run_cmd(&a)),
        Some((cmd, rest)) if cmd == "child" => parse(rest).and_then(|a| child(&a)).map(|()| true),
        Some((cmd, rest)) if cmd == "compare" => compare_cmd(rest),
        Some((cmd, rest)) if cmd == "expected" => parse(rest).and_then(|a| {
            host::scrub_env();
            expected::generate(a.seed).map(|()| true)
        }),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lists printed on the last line are the lists BENCHMARK.json
    /// promises the driver.
    #[test]
    fn driver_lists_match_benchmark_json() {
        let path = host::bench_dir().join("../BENCHMARK.json");
        let j = pf_trace::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(names("end_to_end"), DRIVER_END_TO_END);
        assert_eq!(names("per_layer"), DRIVER_PER_LAYER);
        assert_eq!(names("workloads"), workloads::NAMES);
        assert_eq!(
            j.get("run_seconds").and_then(Json::as_f64),
            Some(workloads::REFERENCE_SECONDS)
        );
        // Every bound listed there is the benchmark's own.
        for m in j.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let def = report::end_to_end(name).unwrap();
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse(&args(
            "--workload p1_dist2_small --seed 7 --seconds 8 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.traced, a.seconds), (7, true, 8.0));
        assert_eq!(a.workload.as_deref(), Some("p1_dist2_small"));
        assert!(parse(&args("--seed 1 --workload nope")).is_err());
        assert!(parse(&args("--seed -1")).is_err());
        assert!(parse(&args("--seed 1 --seconds 0")).is_err());
        assert!(parse(&args("--seed 1 --trace 2")).is_err());
        assert!(parse(&args("--workload p1_dist2_small")).is_err());
    }
}
