//! The single-block workloads: `Simulation::step` in a closed loop, one
//! caller.

use crate::codegen::{self, Generated, FAMILIES};
use crate::layers::{self, Traced};
use crate::report::{Gate, Metric, Outcome};
use crate::run::{block_sim, checksum, common_metrics, final_state_gate, summarize, Ctx};
use crate::spans::SpanLog;
use crate::stats::{median, quantile, sorted, tail_percentile};
use crate::workloads::Block;
use pf_backend::ExecMode;
use pf_core::{Simulation, Variant};
use std::time::Instant;

/// Seconds of one replayed step's parts.
#[derive(Clone, Copy, Default)]
struct Parts {
    apply_bc: f64,
    phi: f64,
    project: f64,
    mu: f64,
    swap: f64,
}

/// `Simulation::step`, call by call through its public parts, a span
/// around each.
fn replay_step(sim: &mut Simulation, log: &mut SpanLog) -> Parts {
    let f = sim.kernels.fields;
    let mut parts = Parts::default();
    let step = log.enter("core.step(replayed)");
    parts.apply_bc += log.time("core.apply_bc", || sim.apply_bc(f.phi_src)).1;
    parts.apply_bc += log.time("core.apply_bc", || sim.apply_bc(f.mu_src)).1;

    // `Simulation::step` clones its tapes every step. The clones stay
    // outside the kernel spans, in the step's self time: nothing inside
    // the step attributes them either.
    let (full, split) = (sim.kernels.phi_full.clone(), sim.kernels.phi_split.clone());
    parts.phi = log
        .time("backend.phi_kernel", || match sim.cfg.phi_variant {
            Variant::Full => sim.run(&full),
            Variant::Split => sim.run_split(&split),
        })
        .1;
    parts.project = log
        .time("core.project_simplex", || sim.project_simplex(f.phi_dst))
        .1;
    parts.apply_bc += log.time("core.apply_bc", || sim.apply_bc(f.phi_dst)).1;

    let (full, split) = (sim.kernels.mu_full.clone(), sim.kernels.mu_split.clone());
    parts.mu = log
        .time("backend.mu_kernel", || match sim.cfg.mu_variant {
            Variant::Full => sim.run(&full),
            Variant::Split => sim.run_split(&split),
        })
        .1;
    parts.swap = log
        .time("fields.swap", || {
            sim.store.swap(f.phi_src, f.phi_dst);
            sim.store.swap(f.mu_src, f.mu_dst);
        })
        .1;
    sim.step_count += 1;
    log.exit(step);
    parts
}

/// Gate (b): the workload's engine against the Serial engine on a small
/// replica, bitwise.
fn engine_gate(ctx: &Ctx, gen: &Generated) -> Gate {
    let (shape, steps) = ctx.w.replica;
    let p = ctx.w.params();
    let run = |mode| {
        let mut sim = block_sim(ctx.w, &p, &gen.kernels, shape, mode, ctx.seed);
        sim.run_steps(steps);
        checksum(&sim)
    };
    let same = run(ctx.w.mode) == run(ExecMode::Serial);
    Gate::from(
        "engine_vs_serial",
        if same {
            Ok(format!(
                "{:?} == Serial on {shape:?}, {steps} steps, bitwise",
                ctx.w.mode
            ))
        } else {
            Err(format!(
                "{:?} differs from Serial on {shape:?} after {steps} steps",
                ctx.w.mode
            ))
        },
    )
}

pub fn run(ctx: &Ctx, b: &Block, out: &mut Outcome) {
    let w = ctx.w;
    let p = w.params();
    let cells = w.cells() as f64;
    let mut log = SpanLog::new(ctx.traced);
    pf_trace::set_enabled(false);

    // ---- set-up: cold every time (each generation declares new fields,
    // so its tapes hash apart and nothing is found in a cache) ------------
    let mut setup_s = Vec::new();
    let mut first_step_s = 0.0;
    let mut kept = None;
    for _ in 0..if ctx.traced { 1 } else { w.setups } {
        let open = log.enter("setup");
        let gen = if ctx.traced {
            codegen::generate_replayed(&p, &mut log)
        } else {
            codegen::generate(&p, &mut log)
        };
        let (mut sim, _) = log.time("core.simulation_new+init", || {
            block_sim(w, &p, &gen.kernels, b.shape, w.mode, ctx.seed)
        });
        // The first step compiles and loads the native kernels.
        first_step_s = log.time("core.step(first)", || sim.step()).1;
        setup_s.push(log.exit(open));
        out.attempted += FAMILIES;
        kept = Some((gen, sim));
    }
    let (gen, mut sim) = kept.expect("at least one set-up");

    let open = log.enter("warmup");
    for _ in 1..b.warmup {
        sim.step();
    }
    let warmup_s = log.exit(open);

    // ---- timed section ----------------------------------------------------
    let untraced_steps = if ctx.traced {
        b.reference_steps
    } else {
        b.steps
    };
    let timed = Instant::now();
    let mut step_s = Vec::with_capacity(untraced_steps);
    for _ in 0..untraced_steps {
        let t = Instant::now();
        sim.step();
        step_s.push(t.elapsed().as_secs_f64());
    }
    let mut parts = Vec::new();
    let mut replayed_s = Vec::new();
    let mut snapshot = None;
    if ctx.traced {
        pf_trace::set_enabled(true);
        pf_trace::reset();
        for i in untraced_steps..b.steps {
            log.rep = i as u64 + 1;
            let t = Instant::now();
            parts.push(replay_step(&mut sim, &mut log));
            replayed_s.push(t.elapsed().as_secs_f64());
        }
        log.rep = 0;
        snapshot = Some(pf_trace::snapshot());
        pf_trace::set_enabled(false);
    }
    let timed_s = timed.elapsed().as_secs_f64();
    out.attempted += b.steps as u64;

    let final_state = summarize(&sim);
    let peak_rss_mb = crate::host::peak_rss_mb();

    // ---- end-to-end metrics -----------------------------------------------
    let wall_s = median(&setup_s) + warmup_s + timed_s;
    common_metrics(out, &setup_s, wall_s, peak_rss_mb);
    let med_step = median(&step_s);
    out.metrics.push(Metric::of_samples(
        "mlups",
        cells / med_step / 1e6,
        "MLUP/s",
        &step_s,
    ));
    match tail_percentile(step_s.len()) {
        Some(pct) if pct >= 90.0 => out.metrics.push(Metric::of_samples(
            "step_ms_p90",
            quantile(&sorted(&step_s), 0.9) * 1e3,
            "ms",
            &step_s,
        )),
        _ => out.notes.push(format!(
            "{} step samples: fewer than ten beyond the 90th percentile, step_ms_p90 not reported",
            step_s.len()
        )),
    }
    out.samples.insert("step_s".into(), step_s);

    // ---- per-layer metrics (traced run) -----------------------------------
    if let (Some(report), Some(l)) = (&snapshot, gen.layers) {
        let ms = |f: fn(&Parts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>()) * 1e3;
        let (phi_ms, mu_ms) = (ms(|p| p.phi), ms(|p| p.mu));
        let (project_ms, bc_ms, swap_ms) = (ms(|p| p.project), ms(|p| p.apply_bc), ms(|p| p.swap));
        let attributed_ms = phi_ms + mu_ms + project_ms + bc_ms + swap_ms;
        let residual_pct = 100.0 * (med_step * 1e3 - attributed_ms) / (med_step * 1e3);
        if residual_pct.abs() > 5.0 {
            out.notes.push(format!(
                "FLAGGED: the replayed parts leave {residual_pct:.1} % of the step unaccounted for"
            ));
        }
        out.metrics.extend(layers::codegen_metrics(&l, gen.seconds));
        out.metrics.extend([
            Metric::new("core.project_simplex_ms", project_ms, "ms"),
            Metric::new("core.apply_bc_ms", bc_ms, "ms"),
            Metric::new("fields.swap_ms", swap_ms, "ms"),
            Metric::new("core.step_residual_pct", residual_pct, "%"),
            Metric::new(
                "trace.overhead_pct",
                100.0 * (median(&replayed_s) - med_step) / med_step,
                "%",
            ),
        ]);
        out.metrics.extend(layers::tape_metrics(w, &gen.kernels));
        let traced = Traced {
            report,
            steps: parts.len() as f64,
            ranks: 1,
        };
        // The medians of the replay, not the means `pf-trace` keeps.
        out.metrics
            .extend(traced.backend_metrics(w.cells(), Some((phi_ms, mu_ms))));
        if w.mode == ExecMode::Native {
            out.metrics.push(Metric::new(
                "backend.native_compile_s",
                first_step_s - med_step,
                "s",
            ));
            out.metrics
                .extend(layers::native_emit_metrics(w, &gen.kernels));
        }
        out.samples.insert("replayed_step_s".into(), replayed_s);
        out.pf_trace = Some(report.to_json());
    }

    // ---- the benchmark's own verification, outside wall_s -----------------
    let verify = Instant::now();
    crate::run::generation_gates(ctx, &p, &gen, out);
    out.gates.push(engine_gate(ctx, &gen));
    out.gates.push(final_state_gate(ctx, &[final_state]));
    out.verify_s = verify.elapsed().as_secs_f64();
    out.spans = log.spans().to_vec();
}
