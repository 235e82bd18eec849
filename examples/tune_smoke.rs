//! CI tune-smoke stage: prove the autotuning loop end to end on a tiny
//! grid — cold-miss → measure → persist → warm-hit — and that the warm
//! launch path does **zero** measurement.
//!
//! Run with `PF_TUNE_CACHE_DIR` pointed at a disposable directory:
//!
//! ```text
//! PF_TUNE_CACHE_DIR=/tmp/tune cargo run --release --example tune_smoke
//! ```

use pf_core::{select_variants_tuned, tune_kernel_set, ChoiceSource, TuneCache, TuneOptions};
use pf_ir::GenOptions;
use pf_machine::skylake_8174;

fn counter(name: &str) -> u64 {
    pf_trace::snapshot()
        .counters
        .get(name)
        .map(|c| c.total)
        .unwrap_or(0)
}

fn main() {
    let cache = TuneCache::from_env().expect("PF_TUNE=off would make this smoke vacuous");
    println!("tune-smoke: cache dir {}", cache.dir().display());

    let sock = skylake_8174();
    let p = pf_core::p1();
    let ks = pf_core::generate_kernels(&p, &GenOptions::default());
    let shape = [8usize, 8, 8];
    let block = [8usize, 8, 8];
    let counters_live = pf_trace::enabled();

    // 1. Cold consult: no entries yet — static fallback, two misses.
    let miss0 = counter("tune.cache.miss");
    let cold = select_variants_tuned(&ks, &sock, sock.cores, block, shape);
    assert_eq!(
        cold.source,
        ChoiceSource::Static,
        "cold cache must fall back to the static heuristic"
    );
    assert!(
        cold.mode.is_none(),
        "static fallback keeps the shape default"
    );
    if counters_live {
        let miss1 = counter("tune.cache.miss");
        assert!(
            miss1 >= miss0 + 2,
            "cold consult must record two family misses: {miss0} -> {miss1}"
        );
    }
    println!(
        "tune-smoke: cold consult fell back to static (phi {:?}, mu {:?})",
        cold.phi, cold.mu
    );

    // 2. Explicit tuning: enumerate, price, shortlist, measure, persist.
    let reports = tune_kernel_set(&p, &ks, &sock, shape, Some(&cache), &TuneOptions::default());
    for r in &reports {
        println!(
            "tune-smoke: {} priced {} candidates, {} measurements; \
             winner {}@{} {:.1} MLUP/s (static {}@{} {:.1}, regret_static {:.1}%)",
            r.family.name(),
            r.candidates,
            r.measured,
            pf_core::variant_name(r.entry.variant),
            r.entry.mode.name(),
            r.entry.measured_mlups,
            pf_core::variant_name(r.static_variant),
            r.static_mode.name(),
            r.static_mlups,
            r.regret_static * 100.0,
        );
        assert!(r.best_mlups > 0.0 && r.measured > 0);
        assert!(
            r.regret_chosen <= 1e-12,
            "a fresh tuning run picks the measured argmax"
        );
    }

    // 3. Warm consult: both families hit; the launch path measures nothing.
    let hits0 = counter("tune.cache.hit");
    let meas0 = counter("tune.measurements");
    let warm = select_variants_tuned(&ks, &sock, sock.cores, block, shape);
    assert_eq!(
        warm.source,
        ChoiceSource::Tuned,
        "warm cache must produce a tuned choice"
    );
    let mode = warm.mode.expect("tuned choice pins the engine");
    if counters_live {
        let hits1 = counter("tune.cache.hit");
        let meas1 = counter("tune.measurements");
        assert!(
            hits1 >= hits0 + 2,
            "warm consult must record two family hits: {hits0} -> {hits1}"
        );
        assert_eq!(
            meas0, meas1,
            "the warm-hit launch path must do zero measurement"
        );
    }
    println!(
        "tune-smoke: warm consult hit (phi {:?}, mu {:?}, mode {})",
        warm.phi,
        warm.mu,
        mode.name()
    );
    println!("tune-smoke: OK");
}
