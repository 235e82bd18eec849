//! **Table 1** — per-cell operation counts for all compute kernels.
//!
//! "Number of floating point operations (additions, multiplications,
//! divisions, square roots, and inverse square roots) for all compute
//! kernels for one lattice cell. … The last row shows normalized FLOPS."
//!
//! For split kernels the first number is the staggered (face) pass, the
//! second the cell-centred update pass, exactly as in the paper's
//! `a + b` notation. Paper values are printed alongside for shape
//! comparison (absolute counts differ: the models are re-derived from
//! scratch and our CAS simplifies differently from sympy).

use pf_bench::kernels_for;
use pf_core::{p1, p2};
use pf_perfmodel::{census, CountScope, OpCensus};

struct Row {
    name: &'static str,
    face: Option<OpCensus>,
    cell: OpCensus,
}

fn split_census(tapes: &[pf_ir::Tape]) -> OpCensus {
    tapes
        .iter()
        .map(|t| census(t, CountScope::PerCell))
        .fold(OpCensus::default(), |a, b| a.add(&b))
}

fn fmt_pair(face: &Option<OpCensus>, f: impl Fn(&OpCensus) -> usize, cell: &OpCensus) -> String {
    match face {
        Some(fc) => format!("{} + {}", f(fc), f(cell)),
        None => format!("{}", f(cell)),
    }
}

fn main() {
    println!("Table 1 — operation counts per lattice cell (this reproduction)");
    println!("================================================================");
    let mut perf = Vec::new();
    let mut extra = Vec::new();
    let mut tuned = Vec::new();
    for p in [p1(), p2()] {
        let ks = kernels_for(&p);
        perf.extend(pf_bench::standard_kernel_perf(&p, &ks));
        // Schema pf-bench/5: table1 is a tuned artifact — run the
        // enumerate→price→shortlist→measure loop for both kernel families
        // and report chosen-vs-best regret so scripts/perf_gate.sh can gate
        // tuning quality alongside raw throughput.
        let reports = pf_bench::tune_reports(&p, &ks);
        for r in &reports {
            println!(
                "  tuned {}/{}: {}@{} {:.3} MLUP/s (static {}@{} {:.3}; \
                 regret chosen {:.1}% static {:.1}%)",
                p.name,
                r.family.name(),
                pf_core::variant_name(r.entry.variant),
                r.entry.mode.name(),
                r.chosen_mlups,
                pf_core::variant_name(r.static_variant),
                r.static_mode.name(),
                r.static_mlups,
                r.regret_chosen * 100.0,
                r.regret_static * 100.0,
            );
        }
        tuned.push((p.name.clone(), reports));
        let rows = vec![
            Row {
                name: "mu full",
                face: None,
                cell: census(&ks.mu_full, CountScope::PerCell),
            },
            Row {
                name: "mu partial",
                face: Some(split_census(&ks.mu_split.flux_tapes)),
                cell: census(&ks.mu_split.update, CountScope::PerCell),
            },
            Row {
                name: "phi full",
                face: None,
                cell: census(&ks.phi_full, CountScope::PerCell),
            },
            Row {
                name: "phi partial",
                face: Some(split_census(&ks.phi_split.flux_tapes)),
                cell: census(&ks.phi_split.update, CountScope::PerCell),
            },
        ];
        println!(
            "\n--- {} ({} phases, {} components, {}) ---",
            p.name,
            p.phases,
            p.components,
            if p.anisotropy.is_some() {
                "anisotropic"
            } else {
                "isotropic"
            }
        );
        println!(
            "{:<12} {:>10} {:>10} {:>11} {:>11} {:>9} {:>9} {:>9} {:>12}",
            "kernel", "loads", "stores", "adds", "muls", "divs", "sqrts", "rsqrts", "norm.FLOPS"
        );
        for r in &rows {
            let total_norm = r.face.as_ref().map(|f| f.normalized_flops()).unwrap_or(0)
                + r.cell.normalized_flops();
            println!(
                "{:<12} {:>10} {:>10} {:>11} {:>11} {:>9} {:>9} {:>9} {:>12}",
                r.name,
                fmt_pair(&r.face, |c| c.loads, &r.cell),
                fmt_pair(&r.face, |c| c.stores, &r.cell),
                fmt_pair(&r.face, |c| c.adds, &r.cell),
                fmt_pair(&r.face, |c| c.muls, &r.cell),
                fmt_pair(&r.face, |c| c.divs, &r.cell),
                fmt_pair(&r.face, |c| c.sqrts, &r.cell),
                fmt_pair(&r.face, |c| c.rsqrts, &r.cell),
                total_norm
            );
        }
        // Headline claims to check against the paper:
        let mu_full = census(&ks.mu_full, CountScope::PerCell).normalized_flops();
        let mu_split = split_census(&ks.mu_split.flux_tapes).normalized_flops()
            + census(&ks.mu_split.update, CountScope::PerCell).normalized_flops();
        println!(
            "  -> mu split / mu full = {:.2} (paper P1: 1328/2126 = 0.62 — split avoids recomputing staggered values)",
            mu_split as f64 / mu_full as f64
        );
        extra.push((
            format!("{}.norm_flops", p.name),
            pf_trace::Json::obj([
                ("mu_full".into(), pf_trace::Json::Num(mu_full as f64)),
                ("mu_split".into(), pf_trace::Json::Num(mu_split as f64)),
            ]),
        ));
    }
    println!();
    println!("Paper reference rows (Skylake-normalized, for shape comparison):");
    println!("  P1: mu full 2126 | mu partial 1328 | phi full 1004 | phi partial 818");
    println!("  P2: mu full 1177 | mu partial  756 | phi full 3968 | phi partial 2593");
    println!("  Manual µ-kernel of Bauer et al. 2015: 1384 normalized FLOPS (the");
    println!("  pipeline's automatic simplification slightly outperformed it).");
    extra.push(("tuning".to_string(), pf_bench::tuning_extra(&tuned)));
    pf_bench::emit_bench("table1", perf, extra).expect("write BENCH_table1.json");
}
