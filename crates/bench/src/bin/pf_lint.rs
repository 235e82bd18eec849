//! **`pf-lint`** — the static-verification CI driver.
//!
//! Runs the full pf-analyze v2 suite — SSA, halo fit, hazards, schedule
//! lints, value lints, contract-seeded interval dataflow, split-store
//! disjointness — over every generated kernel of P1 and P2, over the
//! GPU-rescheduled forms of those kernels (rematerialize → min-live
//! reschedule → fences, the §3.5 chain), and runs the symbolic
//! communication-protocol verifier over the op list the distributed driver
//! executes, blocking and overlapped: all 2³ divided-patterns (a proof for
//! *any* rank count) plus the concrete 2/4/8-rank decompositions CI
//! actually executes.
//!
//! Output: rustc-style diagnostics on stderr, a machine-readable
//! `LINT_report.json` (diagnostics + `analysis` counter block in the same
//! shape as the bench artifacts' `extra.analysis`) in `PF_BENCH_OUT_DIR`,
//! and a non-zero exit iff any error-severity finding exists. Warnings
//! are reported but do not fail the run.

use pf_analyze::{analyze, AnalyzeOptions, Diagnostic, SuiteReport};
use pf_core::{p1, p2, ModelParams, Variant};
use pf_grid::Decomposition;
use pf_trace::Json;

fn diag_json(d: &Diagnostic) -> Json {
    Json::obj([
        ("code".to_string(), Json::str(d.kind.code())),
        (
            "severity".to_string(),
            Json::str(if d.is_error() { "error" } else { "warning" }),
        ),
        ("kernel".to_string(), Json::str(d.kernel.clone())),
        (
            "instr".to_string(),
            d.instr.map_or(Json::Null, |i| Json::Num(i as f64)),
        ),
        ("message".to_string(), Json::str(d.to_string())),
    ])
}

/// Render a batch of diagnostics to stderr and fold them into the JSON
/// rows + error tally.
fn report(
    stage: &str,
    diags: Vec<Diagnostic>,
    rows: &mut Vec<Json>,
    errors: &mut usize,
    warnings: &mut usize,
) {
    if !diags.is_empty() {
        eprintln!("{}", pf_analyze::render(&diags));
    }
    for d in &diags {
        if d.is_error() {
            *errors += 1;
        } else {
            *warnings += 1;
        }
    }
    rows.extend(diags.iter().map(|d| {
        let Json::Obj(mut o) = diag_json(d) else {
            unreachable!()
        };
        o.insert("stage".into(), Json::str(stage));
        Json::Obj(o)
    }));
}

fn suite_diags(suite: &SuiteReport) -> Vec<Diagnostic> {
    suite
        .analyses
        .iter()
        .flat_map(|a| a.diagnostics.iter())
        .chain(suite.group_diagnostics.iter())
        .cloned()
        .collect()
}

fn main() {
    let models: Vec<ModelParams> = vec![p1(), p2()];
    let mut rows: Vec<Json> = Vec::new();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut kernels_checked = 0usize;

    for p in &models {
        // 1. The canonical kernel set, through the full suite (halo fit
        //    against the real allocation shapes included).
        println!("pf-lint: {} — kernel-set suite", p.name);
        let ks = pf_bench::kernels_for(p);
        let suite = pf_core::verify_kernel_set(p, &ks);
        kernels_checked += suite.kernels_verified();
        suite.record_trace();
        report(
            &format!("{}/kernels", p.name),
            suite_diags(&suite),
            &mut rows,
            &mut errors,
            &mut warnings,
        );

        // 2. GPU-rescheduled forms. The reschedule deliberately trades the
        //    LICM level structure for register pressure, so the
        //    schedule.licm-lost warning is *expected* here; what must hold
        //    is that no error-severity finding appears (the transforms
        //    preserve SSA, value and interval soundness — `field_ranges`
        //    contracts survive the rewrite).
        println!("pf-lint: {} — GPU-rescheduled tapes", p.name);
        let opts = AnalyzeOptions {
            allocs: None,
            hazards: true,
            seeded_rng: true,
            intervals: true,
        };
        let mut gpu_diags = Vec::new();
        for tape in ks.all_tapes() {
            let gpu = pf_bench::gpu_optimized(tape);
            kernels_checked += 1;
            gpu_diags.extend(analyze(&gpu, &opts).diagnostics);
        }
        report(
            &format!("{}/gpu", p.name),
            gpu_diags,
            &mut rows,
            &mut errors,
            &mut warnings,
        );

        // 3. Symbolic protocol verification of the op list the driver
        //    executes (`pf_core::step_ops`): {blocking, overlapped} × every
        //    variant combination × every divided-pattern. Rank-count
        //    independent. The spatial half of the overlap proof
        //    (`check_frontier`) is not run here: the driver runs it when it
        //    builds a run's plan.
        println!("pf-lint: {} — comm protocol (all divided-patterns)", p.name);
        for (schedule, overlap) in [("blocking", false), ("overlapped", true)] {
            for (phi_v, mu_v) in [
                (Variant::Full, Variant::Full),
                (Variant::Full, Variant::Split),
                (Variant::Split, Variant::Full),
                (Variant::Split, Variant::Split),
            ] {
                let stage = format!("{}/protocol/{schedule}/{phi_v:?}-{mu_v:?}", p.name);
                println!("pf-lint: {stage}");
                report(
                    &stage,
                    pf_core::verify_step_protocol(&ks, phi_v, mu_v, overlap),
                    &mut rows,
                    &mut errors,
                    &mut warnings,
                );
            }

            // 4. The concrete decompositions CI executes: 2, 4 and 8 ranks.
            //    Subsumed by the pattern sweep above, but checking the exact
            //    `dim_classes` the runtime derives pins the model-to-runtime
            //    mapping itself.
            let ops = pf_core::step_ops(&ks.fields, Variant::Full, Variant::Split, overlap);
            for ranks in [2usize, 4, 8] {
                let dec = Decomposition::new([16, 16, 16], ranks, [true; 3]);
                let model = pf_core::step_protocol_model(&ks, &ops, pf_core::dim_classes(&dec));
                report(
                    &format!("{}/protocol/{schedule}/{ranks}ranks", p.name),
                    pf_analyze::check_protocol(&model),
                    &mut rows,
                    &mut errors,
                    &mut warnings,
                );
            }
        }
    }

    // Machine-readable artifact. The `analysis` block mirrors the
    // `extra.analysis` object of the bench artifacts (same counter names),
    // so downstream tooling can diff verification coverage either way.
    let metrics = pf_trace::snapshot();
    let mut analysis: Vec<(String, Json)> = Vec::new();
    for (k, c) in &metrics.counters {
        if let Some(short) = k.strip_prefix("analyze.") {
            analysis.push((short.to_string(), Json::Num(c.total as f64)));
        }
    }
    for (k, g) in &metrics.gauges {
        if let Some(short) = k.strip_prefix("analyze.") {
            analysis.push((short.to_string(), Json::Num(g.value)));
        }
    }
    let artifact = Json::obj([
        ("schema".to_string(), Json::str("pf-lint/1")),
        (
            "models".to_string(),
            Json::Arr(models.iter().map(|p| Json::str(p.name.clone())).collect()),
        ),
        (
            "kernels_checked".to_string(),
            Json::Num(kernels_checked as f64),
        ),
        ("errors".to_string(), Json::Num(errors as f64)),
        ("warnings".to_string(), Json::Num(warnings as f64)),
        ("diagnostics".to_string(), Json::Arr(rows)),
        ("analysis".to_string(), Json::obj(analysis)),
    ]);
    let dir = pf_bench::bench_out_dir();
    std::fs::create_dir_all(&dir).expect("create out dir");
    let path = dir.join("LINT_report.json");
    std::fs::write(&path, artifact.to_pretty()).expect("write lint artifact");

    println!(
        "pf-lint: {kernels_checked} kernels checked, {errors} error(s), {warnings} warning(s)"
    );
    println!("lint artifact: {}", path.display());
    if errors > 0 {
        eprintln!("pf-lint: FAILED — error-severity findings above");
        std::process::exit(1);
    }
    println!("pf-lint: OK");
}
