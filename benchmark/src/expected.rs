//! Liquid fractions pinned under `expected/`, produced by the Serial
//! engine: gate (d) compares every run of a pinned seed against them.

use crate::host::bench_dir;
use crate::run::{block_sim, height, lamellae, summarize};
use crate::workloads::{workload, Kind, NAMES, REFERENCE_SECONDS};
use pf_backend::ExecMode;
use pf_core::dist::{run_distributed, DistConfig};
use pf_trace::Json;
use std::path::PathBuf;

fn path(workload: &str, seed: u64) -> PathBuf {
    bench_dir()
        .join("expected")
        .join(format!("{workload}.seed{seed}.json"))
}

/// The pinned liquid fraction of `workload` at `seed` after `steps` steps;
/// `None` when none is pinned for this seed and length.
pub fn lookup(workload: &str, seed: u64, steps: u64) -> Result<Option<f64>, String> {
    let Ok(text) = std::fs::read_to_string(path(workload, seed)) else {
        return Ok(None);
    };
    let j = pf_trace::parse_json(&text).map_err(|e| format!("expected file: {e}"))?;
    if j.get("steps").and_then(Json::as_u64) != Some(steps) {
        return Ok(None);
    }
    j.get("liquid_fraction")
        .and_then(Json::as_f64)
        .map(Some)
        .ok_or_else(|| "expected file lacks 'liquid_fraction'".to_string())
}

/// Produce the expected files of `seed`: every workload's problem at its
/// reference length, stepped by the Serial engine on one block.
pub fn generate(seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(bench_dir().join("expected")).map_err(|e| e.to_string())?;
    for name in NAMES {
        let w = workload(name, REFERENCE_SECONDS, false).expect("a known workload");
        let p = w.params();
        let ks = pf_core::generate_kernels(&p, &pf_ir::GenOptions::default());
        let (steps, state) = match &w.kind {
            Kind::Block(b) => {
                let mut sim = block_sim(&w, &p, &ks, b.shape, ExecMode::Serial, seed);
                sim.run_steps(b.warmup + b.steps);
                (b.warmup + b.steps, summarize(&sim))
            }
            Kind::Dist(d) => {
                let mut cfg = DistConfig::new(d.global, 1);
                cfg.phi_variant = w.phi_variant;
                cfg.mu_variant = w.mu_variant;
                cfg.seed = seed as u32;
                cfg.exec_mode = Some(ExecMode::Serial);
                cfg.tune_exec = false;
                let ic = lamellae(&p, seed, d.global, true);
                let parts = run_distributed(
                    &p,
                    &ks,
                    &cfg,
                    d.steps,
                    |x, y, z| ic.phi(x, height(&p, y, z)),
                    |_, _, _| ic.mu(),
                    summarize,
                );
                (d.steps, parts[0])
            }
        };
        if !state.finite {
            return Err(format!("{name}: the Serial reference is not finite"));
        }
        let liquid = state.liquid_sum / state.cells as f64;
        let j = crate::report::obj([
            ("workload", Json::str(name)),
            ("seed", Json::str(seed.to_string())),
            ("steps", Json::Num(steps as f64)),
            ("liquid_fraction", Json::Num(liquid)),
            ("engine", Json::str("ExecMode::Serial, 1 block")),
        ]);
        std::fs::write(path(name, seed), j.to_pretty()).map_err(|e| e.to_string())?;
        println!("{name} seed {seed}: liquid fraction {liquid:.12} after {steps} steps");
    }
    Ok(())
}
