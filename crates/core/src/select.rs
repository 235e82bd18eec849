//! Model-informed kernel-variant selection (§6.1).
//!
//! "The major challenge in code generation and performance optimizing
//! transformations is identifying and selecting the fastest variant. We use
//! Kerncraft's automated performance modeling capability to provide a
//! performance rating of the candidates." This module does exactly that:
//! rate φ-full vs φ-split and µ-full vs µ-split with the ECM model on a
//! given socket and pick the faster combination — automatically
//! reproducing the paper's observation that the right choice flips between
//! model configurations (P1 vs P2, Fig. 2 middle).

use crate::kernels::KernelSet;
use crate::sim::Variant;
use crate::tune::Family;
use pf_backend::ExecMode;
use pf_ir::Tape;
use pf_machine::CpuSocket;
use pf_perfmodel::ecm_multi;

/// Outcome of the automatic selection.
#[derive(Clone, Debug)]
pub struct VariantChoice {
    pub phi: Variant,
    pub mu: Variant,
    /// Predicted full-socket MLUP/s for (φ-split, φ-full, µ-split, µ-full).
    pub predicted_mlups: [f64; 4],
}

/// Pick the execution engine for a block shape: the strip-mined vectorized
/// engine whenever the unit-stride extent can fill at least one strip of
/// [`pf_backend::STRIP_WIDTH`] lanes, scalar-serial for thinner blocks
/// (where strips would be all remainder loop). `PF_EXEC_MODE` overrides
/// (`serial` | `vectorized` | `native`, [`ExecMode::name`]) for experiments and
/// CI; an unrecognized value warns once and falls back to the shape-based
/// default instead of silently (or fatally) derailing a long run over a
/// typo. `native` requests compiled-kernel execution; if `rustc` cannot
/// produce cdylibs the executor degrades to `vectorized` per launch.
pub fn default_exec_mode(shape: [usize; 3]) -> ExecMode {
    let shape_default = || {
        if shape[0] >= pf_backend::STRIP_WIDTH {
            ExecMode::Vectorized
        } else {
            ExecMode::Serial
        }
    };
    // Every downgrade away from a requested engine records *why* under a
    // typed reason suffix (plus the legacy aggregate), so a CI log showing
    // serial numbers where vectorized/native ones were expected is
    // diagnosable from the counter dump alone.
    let fallback = |reason: &str| {
        if pf_trace::enabled() {
            pf_trace::counter("select.exec_mode_fallback").incr(1);
            pf_trace::counter(&format!("select.exec_mode_fallback.{reason}")).incr(1);
        }
    };
    let requested = match std::env::var("PF_EXEC_MODE") {
        Ok(v) => v.parse::<ExecMode>().map_err(|()| v),
        Err(_) => return shape_default(),
    };
    match requested {
        Ok(ExecMode::Serial) => ExecMode::Serial,
        Ok(ExecMode::Vectorized) => {
            if shape[0] >= pf_backend::STRIP_WIDTH {
                ExecMode::Vectorized
            } else {
                // Thinner than one SIMD strip: the vector engine would run
                // entirely in its scalar remainder loop. Same results
                // (engines are bitwise identical), so select the engine
                // that does that work without strip bookkeeping.
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: PF_EXEC_MODE=vectorized but the block is only {} cells wide \
                         (< STRIP_WIDTH {}); running serial",
                        shape[0],
                        pf_backend::STRIP_WIDTH
                    );
                });
                fallback("thin_block");
                ExecMode::Serial
            }
        }
        Ok(ExecMode::Native) => {
            if pf_backend::native_available() {
                ExecMode::Native
            } else {
                // Downgrade at selection time instead of letting every
                // launch rediscover the missing toolchain.
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: PF_EXEC_MODE=native but rustc cannot produce loadable \
                         cdylibs here; using the default engine"
                    );
                });
                fallback("native_unavailable");
                shape_default()
            }
        }
        Err(other) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: unrecognized PF_EXEC_MODE '{other}' \
                     (expected serial|vectorized|native); using the default engine"
                );
            });
            fallback("unrecognized");
            shape_default()
        }
    }
}

/// Rate both variants of both kernels at `cores` cores and return the
/// faster combination. `block` is the cache-simulation tile (use something
/// in the regime of the production blocking, e.g. `[24, 24, 8]`).
pub fn select_variants(
    ks: &KernelSet,
    sock: &CpuSocket,
    cores: usize,
    block: [usize; 3],
) -> VariantChoice {
    let rate = |tapes: &[&Tape]| ecm_multi(tapes, sock, block).mlups(sock.freq_ghz, cores);
    let [phi_full, phi_split, mu_full, mu_split] = [
        (Family::Phi, Variant::Full),
        (Family::Phi, Variant::Split),
        (Family::Mu, Variant::Full),
        (Family::Mu, Variant::Split),
    ]
    .map(|(family, variant)| rate(&ks.tapes(family, variant)));
    VariantChoice {
        phi: if phi_split >= phi_full {
            Variant::Split
        } else {
            Variant::Full
        },
        mu: if mu_split >= mu_full {
            Variant::Split
        } else {
            Variant::Full
        },
        predicted_mlups: [phi_split, phi_full, mu_split, mu_full],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::generate_kernels;
    use pf_ir::GenOptions;
    use pf_machine::skylake_8174;

    #[test]
    #[ignore = "full P1/P2 generation + cache simulation; run with --ignored"]
    fn selection_flips_between_p1_and_p2_for_phi() {
        let sock = skylake_8174();
        let ks1 = generate_kernels(&crate::params::p1(), &GenOptions::default());
        let ks2 = generate_kernels(&crate::params::p2(), &GenOptions::default());
        let c1 = select_variants(&ks1, &sock, sock.cores, [24, 24, 8]);
        let c2 = select_variants(&ks2, &sock, sock.cores, [24, 24, 8]);
        // Fig. 2 middle: P1 → φ-full, P2 → φ-split.
        assert_eq!(c1.phi, Variant::Full, "{:?}", c1.predicted_mlups);
        assert_eq!(c2.phi, Variant::Split, "{:?}", c2.predicted_mlups);
    }

    #[test]
    fn unrecognized_exec_mode_env_warns_and_falls_back() {
        // Mutating the env here cannot disturb concurrent tests: the
        // fallback for an unrecognized value IS the unset-default path, so
        // every interleaving sees the same selection.
        let before = fallback_count("select.exec_mode_fallback.unrecognized");
        std::env::set_var("PF_EXEC_MODE", "simd4life");
        let wide = default_exec_mode([64, 8, 8]);
        let thin = default_exec_mode([4, 8, 8]);
        std::env::remove_var("PF_EXEC_MODE");
        assert_eq!(wide, ExecMode::Vectorized, "wide blocks keep the default");
        assert_eq!(thin, ExecMode::Serial, "thin blocks keep the default");
        if pf_trace::enabled() {
            let after = fallback_count("select.exec_mode_fallback.unrecognized");
            assert!(after >= before + 2, "reason counter: {before} -> {after}");
        }
    }

    fn fallback_count(name: &str) -> u64 {
        pf_trace::snapshot()
            .counters
            .get(name)
            .map(|c| c.total)
            .unwrap_or(0)
    }

    #[test]
    fn thin_block_vectorized_request_downgrades_with_typed_reason() {
        // Benign env mutation: for wide shapes "vectorized" matches the
        // unset default, and for thin shapes the downgrade lands on the
        // unset default too — concurrent selections are unaffected.
        let agg_before = fallback_count("select.exec_mode_fallback");
        let before = fallback_count("select.exec_mode_fallback.thin_block");
        std::env::set_var("PF_EXEC_MODE", "vectorized");
        let wide = default_exec_mode([64, 8, 8]);
        let thin = default_exec_mode([4, 8, 8]);
        std::env::remove_var("PF_EXEC_MODE");
        assert_eq!(wide, ExecMode::Vectorized);
        assert_eq!(thin, ExecMode::Serial, "sub-strip width must run serial");
        if pf_trace::enabled() {
            let after = fallback_count("select.exec_mode_fallback.thin_block");
            assert!(after > before, "reason counter: {before} -> {after}");
            let agg_after = fallback_count("select.exec_mode_fallback");
            assert!(agg_after > agg_before, "aggregate counter still bumps");
        }
    }

    #[test]
    fn selection_runs_on_a_small_model() {
        let sock = skylake_8174();
        let ks = generate_kernels(&crate::kernels::tests::mini_model(), &GenOptions::default());
        let c = select_variants(&ks, &sock, sock.cores, [16, 16, 4]);
        assert!(c.predicted_mlups.iter().all(|m| *m > 0.0));
    }
}
