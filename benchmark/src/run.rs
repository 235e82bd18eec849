//! One workload, measured in this process: helpers shared by the block
//! and the distributed runner, and the panic fence around both.

use crate::codegen::Generated;
use crate::init::Lamellae;
use crate::report::{Gate, Metric, Outcome};
use crate::workloads::{Kind, Model, Workload};
use pf_backend::ExecMode;
use pf_core::{BcKind, KernelSet, ModelParams, SimConfig, Simulation};
use std::path::PathBuf;

pub struct Ctx<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    /// Fresh directory the checkpoints of this run go under.
    pub ckpt_root: PathBuf,
}

/// Coordinate the lamellae grow along: z, or y for a 2-D model.
pub fn height(p: &ModelParams, y: i64, z: i64) -> i64 {
    if p.dim == 3 {
        z
    } else {
        y
    }
}

pub fn lamellae(p: &ModelParams, seed: u64, shape: [usize; 3], periodic_z: bool) -> Lamellae {
    Lamellae::new(
        seed,
        p.phases,
        p.liquid_phase,
        p.num_mu(),
        shape,
        periodic_z,
    )
}

/// A single block with the workload's variants: periodic across the
/// lamellae, zero-gradient along the growth direction.
pub fn block_sim(
    w: &Workload,
    p: &ModelParams,
    ks: &KernelSet,
    shape: [usize; 3],
    mode: ExecMode,
    seed: u64,
) -> Simulation {
    let mut cfg = SimConfig::new(shape);
    cfg.phi_variant = w.phi_variant;
    cfg.mu_variant = w.mu_variant;
    cfg.mode = mode;
    cfg.bc = [BcKind::Periodic; 3];
    cfg.bc[p.dim - 1] = BcKind::Neumann;
    cfg.seed = seed as u32;
    let ic = lamellae(p, seed, shape, false);
    let mut sim = Simulation::new(p.clone(), ks.clone(), cfg);
    sim.init_phi(|x, y, z| ic.phi(x as i64, height(p, y as i64, z as i64)));
    sim.init_mu(|_, _, _| ic.mu());
    sim
}

/// Visit the bits of every interior value: phi's components, then mu's,
/// each z -> y -> x.
pub fn fold_interior(sim: &Simulation, mut f: impl FnMut(u64)) {
    let shape = sim.cfg.shape;
    for (arr, comps) in [
        (sim.phi(), sim.params.phases),
        (sim.mu(), sim.params.num_mu()),
    ] {
        for c in 0..comps {
            for z in 0..shape[2] as isize {
                for y in 0..shape[1] as isize {
                    for x in 0..shape[0] as isize {
                        f(arr.get(c, x, y, z).to_bits());
                    }
                }
            }
        }
    }
}

/// FNV-1a over the interior values, one 64-bit word at a time: equal
/// checksums, bitwise equal fields.
pub fn checksum(sim: &Simulation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fold_interior(sim, |bits| {
        h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3)
    });
    h
}

/// What gate (d) needs of one block's final state.
#[derive(Clone, Copy, Debug)]
pub struct StateSummary {
    pub step_count: u64,
    pub checksum: u64,
    pub cells: usize,
    pub liquid_sum: f64,
    pub finite: bool,
    pub min_phi: f64,
    pub max_sum_err: f64,
}

pub fn summarize(sim: &Simulation) -> StateSummary {
    let shape = sim.cfg.shape;
    let phi = sim.phi();
    let mut finite = true;
    let mut min_phi = f64::INFINITY;
    let mut max_sum_err: f64 = 0.0;
    for z in 0..shape[2] as isize {
        for y in 0..shape[1] as isize {
            for x in 0..shape[0] as isize {
                let mut sum = 0.0;
                for a in 0..sim.params.phases {
                    let v = phi.get(a, x, y, z);
                    min_phi = min_phi.min(v);
                    sum += v;
                }
                finite &= sum.is_finite();
                max_sum_err = max_sum_err.max((sum - 1.0).abs());
            }
        }
    }
    fold_interior(sim, |bits| finite &= f64::from_bits(bits).is_finite());
    StateSummary {
        step_count: sim.step_count,
        checksum: checksum(sim),
        cells: shape[0] * shape[1] * shape[2],
        liquid_sum: phi.interior_sum(sim.params.liquid_phase),
        finite,
        min_phi,
        max_sum_err,
    }
}

/// Gate (d): the final timed state is finite and on the simplex, and its
/// liquid fraction is the one the Serial engine produced when the expected
/// value for this seed was committed.
pub fn final_state_gate(ctx: &Ctx, parts: &[StateSummary]) -> Gate {
    let cells: usize = parts.iter().map(|s| s.cells).sum();
    let liquid = parts.iter().map(|s| s.liquid_sum).sum::<f64>() / cells as f64;
    let steps = parts[0].step_count;
    let r = (|| {
        for s in parts {
            if !s.finite {
                return Err("a value is not finite".to_string());
            }
            if s.min_phi < 0.0 {
                return Err(format!("phi reaches {:e} < 0", s.min_phi));
            }
            if s.max_sum_err > 1e-12 {
                return Err(format!("|sum phi - 1| reaches {:e}", s.max_sum_err));
            }
        }
        let pinned = if ctx.smoke {
            None
        } else {
            crate::expected::lookup(ctx.w.name, ctx.seed, steps)?
        };
        match pinned {
            Some(want) if (liquid - want).abs() > 1e-6 => Err(format!(
                "liquid fraction {liquid:.9} after {steps} steps, expected {want:.9}"
            )),
            Some(want) => Ok(format!(
                "finite, on the simplex; liquid fraction {liquid:.9} (expected {want:.9})"
            )),
            None => Ok(format!(
                "finite, on the simplex; liquid fraction {liquid:.9} (no expected value for \
                 this seed and length)"
            )),
        }
    })();
    Gate::from("final_state", r)
}

/// Gate (a), and on a traced run the gates on what the trace saw: the
/// replayed generation is the pipeline's, and no engine fell back.
pub fn generation_gates(ctx: &Ctx, p: &ModelParams, gen: &Generated, out: &mut Outcome) {
    let samples = if ctx.smoke { 8 } else { 64 };
    out.gates.push(Gate::from(
        "stores_vs_unoptimised",
        crate::codegen::check_stores(ctx.w, p, gen, ctx.seed, samples)
            .map(|c| format!("{} stores, max rel. error {:.1e}", c.checked, c.max_rel_err)),
    ));
    if !ctx.traced {
        return;
    }
    // Generating once more is only cheap enough on P1 and the smoke models.
    if ctx.w.model == Model::P1 || ctx.smoke {
        let reference = pf_core::generate_kernels_from(p, &gen.model, &Default::default());
        out.gates.push(Gate::from(
            "replay_is_the_pipeline",
            crate::codegen::same_programs(&gen.kernels, &reference)
                .map(|()| "replayed tapes equal generate_kernels'".into()),
        ));
    }
    let fallbacks = out.metric("backend.fallbacks").map_or(0.0, |m| m.value);
    out.gates.push(Gate::from(
        "no_fallbacks",
        if fallbacks == 0.0 {
            Ok("0".into())
        } else {
            Err(format!("{fallbacks} engine fall-backs"))
        },
    ));
}

/// Run `w` and settle its outcome. A panic anywhere in the program fails
/// the workload instead of taking the report down with it.
pub fn run_workload(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        workload: ctx.w.name.to_owned(),
        ..Outcome::default()
    };
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &ctx.w.kind {
        Kind::Block(b) => crate::block::run(ctx, b, &mut out),
        Kind::Dist(d) => crate::dist::run(ctx, d, &mut out),
    }));
    pf_trace::set_enabled(false);
    if let Err(payload) = run {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("panic without a message");
        out.gates.push(Gate::from("completed", Err(msg.to_owned())));
        out.attempted = out.attempted.max(1);
    }
    let broken: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    if !broken.is_empty() {
        let gate = Gate::from("metrics_finite", Err(broken.join(", ")));
        out.gates.push(gate);
        out.metrics.retain(|m| m.value.is_finite());
    }
    if ctx.traced {
        // End-to-end metrics are measured with tracing off: the traced run
        // keeps only its per-layer metrics.
        out.metrics
            .retain(|m| crate::report::end_to_end(&m.name).is_none());
    }
    out.settle();
    out
}

/// Metrics every workload reports the same way.
pub fn common_metrics(out: &mut Outcome, setup_s: &[f64], wall_s: f64, peak_rss_mb: f64) {
    let setup = crate::stats::median(setup_s);
    out.metrics
        .push(Metric::of_samples("setup_s", setup, "s", setup_s));
    out.metrics.push(Metric::new("wall_s", wall_s, "s"));
    out.metrics
        .push(Metric::new("peak_rss_mb", peak_rss_mb, "MB"));
    out.samples.insert("setup_s".into(), setup_s.to_vec());
}
