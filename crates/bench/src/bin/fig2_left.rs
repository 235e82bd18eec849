//! **Fig. 2 (left)** — single-socket model and runtime comparison for the
//! µ kernels under P1: ECM prediction vs measured execution, MLUP/s per
//! core over 1..24 cores.
//!
//! The paper's findings to reproduce in shape:
//! * µ-split's per-core performance *decays* with core count (memory
//!   bound; scalability limit predicted around 32 cores),
//! * µ-full's per-core performance stays *flat* (compute bound, predicted
//!   to scale to ~83 cores),
//! * the model predicts a crossover around 16 cores after which µ-split's
//!   advantage erodes.
//!
//! The "Bench" series here runs our tape executor (an interpreter — its
//! absolute MLUP/s is far below compiled code and it is compute-dominated,
//! so its scaling is flatter than real hardware; the ECM series carries
//! the hardware shape).

use pf_backend::{with_workers, ExecMode};
use pf_bench::{kernels_for, measure_mlups};
use pf_core::{p1, Family, Variant};
use pf_ir::Tape;
use pf_machine::skylake_8174;
use pf_perfmodel::{ecm_model, max_block_size, simulate_sweep, DataVolumes};
use pf_trace::Json;

fn combined_volumes(
    tapes: &[&Tape],
    sock: &pf_machine::CpuSocket,
    block: [usize; 3],
) -> DataVolumes {
    let mut total = DataVolumes::default();
    for t in tapes {
        let v = simulate_sweep(t, sock, block);
        total.l1_l2_bytes += v.l1_l2_bytes;
        total.l2_l3_bytes += v.l2_l3_bytes;
        total.l3_mem_bytes += v.l3_mem_bytes;
        total.cells = v.cells;
    }
    total
}

fn ecm_for(
    tapes: &[&Tape],
    sock: &pf_machine::CpuSocket,
    block: [usize; 3],
) -> pf_perfmodel::EcmPrediction {
    // Sum compute and volumes over the passes of a (possibly split) kernel.
    let vols = combined_volumes(tapes, sock, block);
    let mut pred = ecm_model(tapes[0], sock, &vols);
    for t in &tapes[1..] {
        let p2 = ecm_model(
            t,
            sock,
            &DataVolumes {
                cells: 1,
                ..Default::default()
            },
        );
        pred.t_comp += p2.t_comp;
        pred.t_nol += p2.t_nol;
    }
    pred
}

fn main() {
    let p = p1();
    let ks = kernels_for(&p);
    let sock = skylake_8174();

    // Spatial blocking from the layer condition (§6.1): the paper derives
    // N < 67 from the 1 MB L2 and uses 60³ blocks.
    let lc = max_block_size(&ks.mu_full, sock.l2_kib * 1024);
    println!(
        "layer condition: coefficient {} B/N², N_max(L2) = {lc} (paper: 232 B/N², N<67, used 60³)",
        pf_perfmodel::layer_condition_coefficient(&ks.mu_full)
    );

    let block = [24usize, 24, 8]; // cache-sim tile (small, same regime)
    let mu_full = ks.tapes(Family::Mu, Variant::Full);
    let mu_split = ks.tapes(Family::Mu, Variant::Split);

    let pred_full = ecm_for(&mu_full, &sock, block);
    let pred_split = ecm_for(&mu_split, &sock, block);
    println!("\nECM decomposition (cycles per cacheline of results):");
    for (n, p_) in [("mu-full", &pred_full), ("mu-split", &pred_split)] {
        println!(
            "  {n:9} T_comp {:7.1}  T_nOL {:6.1}  T_L1L2 {:6.1}  T_L2L3 {:6.1}  T_L3Mem {:6.1}  -> saturates at {} cores",
            p_.t_comp, p_.t_nol, p_.t_l1l2, p_.t_l2l3, p_.t_l3mem,
            p_.saturation_cores()
        );
    }

    println!("\n# cores | ECM mu-split | ECM mu-full | Bench mu-split | Bench mu-full   (MLUP/s per core)");
    let (shape, sweeps) = if pf_bench::smoke() {
        ([8usize, 8, 8], 1)
    } else {
        ([32usize, 32, 16], 2)
    };
    // Measured scaling needs real cores; on smaller hosts the series is
    // truncated (the ECM columns carry the target machine's shape).
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let core_list: &[usize] = if pf_bench::smoke() {
        &[1]
    } else {
        &[1, 2, 4, 8, 12, 16, 20, 24]
    };
    let mut series = Vec::new();
    for &cores in core_list {
        let e_split = pred_split.mlups(sock.freq_ghz, cores) / cores as f64;
        let e_full = pred_full.mlups(sock.freq_ghz, cores) / cores as f64;
        if cores <= avail {
            // Vectorized is the production engine: strip-mined inner loop,
            // slab-parallel over the pool, so it scales with `cores` like
            // the compiled code the ECM columns model.
            let b_split = with_workers(cores, || {
                measure_mlups(&p, &ks, &mu_split, shape, sweeps, ExecMode::Vectorized)
            }) / cores as f64;
            let b_full = with_workers(cores, || {
                measure_mlups(&p, &ks, &mu_full, shape, sweeps, ExecMode::Vectorized)
            }) / cores as f64;
            println!("{cores:7} | {e_split:12.1} | {e_full:11.1} | {b_split:14.3} | {b_full:13.3}");
            series.push(Json::obj([
                ("cores".into(), Json::Num(cores as f64)),
                ("ecm_mu_split".into(), Json::Num(e_split)),
                ("ecm_mu_full".into(), Json::Num(e_full)),
                ("bench_mu_split".into(), Json::Num(b_split)),
                ("bench_mu_full".into(), Json::Num(b_full)),
            ]));
        } else {
            println!(
                "{cores:7} | {e_split:12.1} | {e_full:11.1} | {:>14} | {:>13}",
                "n/a", "n/a"
            );
            series.push(Json::obj([
                ("cores".into(), Json::Num(cores as f64)),
                ("ecm_mu_split".into(), Json::Num(e_split)),
                ("ecm_mu_full".into(), Json::Num(e_full)),
            ]));
        }
    }

    // Variant selection, as Kerncraft-informed selection would do it (§6.1).
    let full_socket = sock.cores;
    let s = pred_split.mlups(sock.freq_ghz, full_socket);
    let f = pred_full.mlups(sock.freq_ghz, full_socket);
    println!(
        "\nmodel-based selection at {full_socket} cores: mu-{} ({}: {:.0} vs {:.0} MLUP/s)",
        if s >= f { "split" } else { "full" },
        if s >= f { "split wins" } else { "full wins" },
        s,
        f
    );
    println!("paper: µ-split chosen for full-socket runs; model crossover at ~16 cores,");
    println!("extrapolated measurement crossover at ~26 cores.");

    let perf = pf_bench::standard_kernel_perf(&p, &ks);
    let extra = vec![
        ("scaling_per_core".to_string(), Json::Arr(series)),
        ("layer_condition_nmax_l2".to_string(), Json::Num(lc as f64)),
        (
            "model_choice_full_socket".to_string(),
            Json::str(if s >= f { "mu-split" } else { "mu-full" }),
        ),
    ];
    pf_bench::emit_bench("fig2_left", perf, extra).expect("write BENCH_fig2_left.json");
}
