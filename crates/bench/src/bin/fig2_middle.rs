//! **Fig. 2 (middle)** — φ-kernel variant comparison for P1 and P2.
//!
//! "To show that different high-level model configurations for the same
//! kernel produce very distinct performance behaviors, we model and
//! measure φ-split and φ-full variants for the P1 and P2 configuration.
//! As predicted by the model, for P1 the full version performs better,
//! while for P2 the φ-split kernel is the faster choice."

use pf_backend::{with_workers, ExecMode};
use pf_bench::{kernels_for, measure_mlups};
use pf_core::{p1, p2, Family, ModelParams, Variant};
use pf_ir::Tape;
use pf_machine::skylake_8174;
use pf_perfmodel::{ecm_model, simulate_sweep, DataVolumes};
use pf_trace::Json;

fn ecm_for(
    tapes: &[&Tape],
    sock: &pf_machine::CpuSocket,
    block: [usize; 3],
) -> pf_perfmodel::EcmPrediction {
    let mut vols = DataVolumes::default();
    for t in tapes {
        let v = simulate_sweep(t, sock, block);
        vols.l1_l2_bytes += v.l1_l2_bytes;
        vols.l2_l3_bytes += v.l2_l3_bytes;
        vols.l3_mem_bytes += v.l3_mem_bytes;
        vols.cells = v.cells;
    }
    let mut pred = ecm_model(tapes[0], sock, &vols);
    for t in &tapes[1..] {
        let px = ecm_model(
            t,
            sock,
            &DataVolumes {
                cells: 1,
                ..Default::default()
            },
        );
        pred.t_comp += px.t_comp;
        pred.t_nol += px.t_nol;
    }
    pred
}

fn report(p: &ModelParams) -> Json {
    let ks = kernels_for(p);
    let sock = skylake_8174();
    let block = [24usize, 24, 8];
    let full = ks.tapes(Family::Phi, Variant::Full);
    let split = ks.tapes(Family::Phi, Variant::Split);
    let e_full = ecm_for(&full, &sock, block);
    let e_split = ecm_for(&split, &sock, block);

    println!("\n=== {} ===", p.name);
    println!("# cores | ECM phi-split | ECM phi-full | Bench phi-split | Bench phi-full  (MLUP/s per core)");
    let (shape, sweeps) = if pf_bench::smoke() {
        ([8usize, 8, 8], 1)
    } else {
        ([32usize, 32, 16], 2)
    };
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let core_list: &[usize] = if pf_bench::smoke() {
        &[1]
    } else {
        &[1, 4, 8, 16, 24]
    };
    let mut series = Vec::new();
    for &cores in core_list {
        let es = e_split.mlups(sock.freq_ghz, cores) / cores as f64;
        let ef = e_full.mlups(sock.freq_ghz, cores) / cores as f64;
        let mut point = vec![
            ("cores".to_string(), Json::Num(cores as f64)),
            ("ecm_phi_split".to_string(), Json::Num(es)),
            ("ecm_phi_full".to_string(), Json::Num(ef)),
        ];
        if cores <= avail {
            // Strip-mined vectorized engine: slab-parallel over the pool,
            // matching the compiled-code scaling the ECM columns model.
            let bs = with_workers(cores, || {
                measure_mlups(p, &ks, &split, shape, sweeps, ExecMode::Vectorized)
            }) / cores as f64;
            let bf = with_workers(cores, || {
                measure_mlups(p, &ks, &full, shape, sweeps, ExecMode::Vectorized)
            }) / cores as f64;
            println!("{cores:7} | {es:13.1} | {ef:12.1} | {bs:15.3} | {bf:14.3}");
            point.push(("bench_phi_split".to_string(), Json::Num(bs)));
            point.push(("bench_phi_full".to_string(), Json::Num(bf)));
        } else {
            println!(
                "{cores:7} | {es:13.1} | {ef:12.1} | {:>15} | {:>14}",
                "n/a", "n/a"
            );
        }
        series.push(Json::obj(point));
    }
    let cores = sock.cores;
    let s = e_split.mlups(sock.freq_ghz, cores);
    let f = e_full.mlups(sock.freq_ghz, cores);
    println!(
        "model-based choice at {cores} cores: phi-{}  ({:.0} vs {:.0} MLUP/s)",
        if s >= f { "split" } else { "full" },
        s,
        f
    );
    Json::obj([
        ("scaling_per_core".into(), Json::Arr(series)),
        (
            "model_choice_full_socket".into(),
            Json::str(if s >= f { "phi-split" } else { "phi-full" }),
        ),
    ])
}

fn main() {
    println!("Fig. 2 (middle) — phi kernel variants under P1 and P2");
    let x1 = report(&p1());
    let x2 = report(&p2());
    println!("\npaper shape: P1 -> phi-full wins, P2 -> phi-split wins (the anisotropic");
    println!("P2 model makes staggered-value recomputation much more expensive).");
    println!("See EXPERIMENTS.md for the discussion of where this reproduction's");
    println!("variant choice agrees or deviates.");

    let pa = p1();
    let pb = p2();
    let mut perf = pf_bench::standard_kernel_perf(&pa, &kernels_for(&pa));
    perf.extend(pf_bench::standard_kernel_perf(&pb, &kernels_for(&pb)));
    let extra = vec![("P1".to_string(), x1), ("P2".to_string(), x2)];
    pf_bench::emit_bench("fig2_middle", perf, extra).expect("write BENCH_fig2_middle.json");
}
