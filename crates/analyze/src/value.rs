//! Pass 4 — value lints: constant propagation over the tape.
//!
//! A forward dataflow over the SSA tape with a two-point lattice per
//! register (known constant / unknown). Division by a denominator that
//! folds to exactly zero and any operation whose known operands fold to
//! NaN are errors — in a per-cell kernel either poisons the whole field in
//! one sweep. A determinism lint flags `Rand` ops when the kernel is
//! declared to run without a seeded Philox stream (the expression-level
//! interpreter substitutes 0.0 there, silently changing the physics).
//!
//! To keep reports at the fault origin, a register that was just reported
//! is demoted to *unknown* so downstream consumers of the poisoned value
//! do not re-fire.

use crate::diag::{DiagKind, Diagnostic};
use pf_ir::{ApproxOptions, Arith, Tape, TapeOp};

#[derive(Clone, Copy, PartialEq)]
enum Val {
    Unknown,
    Known(f64),
}

impl Val {
    fn get(self) -> Option<f64> {
        match self {
            Val::Known(v) => Some(v),
            Val::Unknown => None,
        }
    }
}

/// Run the value lints. `seeded_rng` declares whether the kernel will be
/// executed with a seeded Philox stream (the native executor always is;
/// expression-interpreter contexts typically are not).
pub fn check_values(tape: &Tape, seeded_rng: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = tape.instrs.len();
    let mut vals: Vec<Val> = Vec::with_capacity(n);

    for (i, op) in tape.instrs.iter().enumerate() {
        // Out-of-range argument registers (an SSA-pass error) read as
        // unknown so this pass stays total on malformed tapes.
        let arg =
            |r: pf_ir::VReg| -> Val { vals.get(r.0 as usize).copied().unwrap_or(Val::Unknown) };
        let neg = |a: pf_ir::VReg| arg(a).get().filter(|&x| x < 0.0);
        // What is known to go wrong at this instruction, if anything.
        let fault = match *op {
            TapeOp::Rand(lane) if !seeded_rng => Some(DiagKind::UnseededRand { lane }),
            // 0/0 folds to NaN, x/0 to ±Inf — distinct findings so the
            // fix hint differs (indeterminate form vs pole).
            TapeOp::Div(a, b) if arg(b).get() == Some(0.0) => Some(match arg(a).get() {
                Some(0.0) => DiagKind::ZeroOverZeroConst,
                _ => DiagKind::DivByZeroConst,
            }),
            TapeOp::Sqrt(a) | TapeOp::RSqrt(a) => {
                neg(a).map(|value| DiagKind::SqrtNegativeConst { value })
            }
            // ln of a *negative* constant is NaN — flagged with its own
            // code. ln(0) = -Inf stays clean here (a pole, not an
            // indeterminate form; the interval pass judges reachability).
            TapeOp::Ln(a) => neg(a).map(|value| DiagKind::LnNegativeConst { value }),
            _ => None,
        };

        // Folds go through the one op table, exact mode: what the engines
        // compute, so e.g. sign(±0) folds to 0.
        let exact = ApproxOptions::default();
        let mut v = match *op {
            TapeOp::Const(c) => Val::Known(c.0),
            TapeOp::CmpSelect { op, l, r, t, f } => match (arg(l).get(), arg(r).get()) {
                (Some(x), Some(y)) if op.eval(x, y) => arg(t),
                (Some(_), Some(_)) => arg(f),
                _ => Val::Unknown,
            },
            _ => match op.arith() {
                Some(Arith::Un(o, a)) => match arg(a).get() {
                    Some(x) => Val::Known(o.eval(x, exact)),
                    None => Val::Unknown,
                },
                Some(Arith::Bin(o, a, b)) => match (arg(a).get(), arg(b).get()) {
                    (Some(x), Some(y)) => Val::Known(o.eval(x, y, exact)),
                    _ => Val::Unknown,
                },
                // Param, Load, Coord, Time, CellIdx, Rand, Store, Fence.
                None => Val::Unknown,
            },
        };
        if let Some(kind) = fault {
            out.push(Diagnostic::new(&tape.name, Some(i), kind));
            v = Val::Unknown; // reported at the origin; do not cascade
        }

        // A known NaN born at this instruction (from non-NaN inputs, since
        // reported registers are demoted to unknown) is the fault origin.
        if let Val::Known(x) = v {
            if x.is_nan() {
                let desc = match *op {
                    TapeOp::Const(_) => "literal NaN constant".to_string(),
                    _ => format!("{op:?} over constant-folded operands"),
                };
                out.push(Diagnostic::new(
                    &tape.name,
                    Some(i),
                    DiagKind::NanConst { value_desc: desc },
                ));
                v = Val::Unknown;
            }
        }
        vals.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{load, raw_tape, store};
    use pf_ir::{TapeOp, VReg, CF};

    #[test]
    fn clean_arithmetic_has_no_findings() {
        let t = raw_tape(vec![
            load(0, 0, [0; 3]),
            TapeOp::Const(CF(2.0)),
            TapeOp::Div(VReg(0), VReg(1)),
            store(1, 0, [0; 3], 2),
        ]);
        assert!(check_values(&t, true).is_empty());
    }

    #[test]
    fn division_by_folded_zero_is_an_error() {
        // 3 - 3 folds to 0; x / 0 must be flagged at the Div.
        let t = raw_tape(vec![
            load(0, 0, [0; 3]),
            TapeOp::Const(CF(3.0)),
            TapeOp::Sub(VReg(1), VReg(1)),
            TapeOp::Div(VReg(0), VReg(2)),
            store(1, 0, [0; 3], 3),
        ]);
        let d = check_values(&t, true);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(matches!(d[0].kind, DiagKind::DivByZeroConst));
        assert_eq!(d[0].instr, Some(3));
        assert!(d[0].is_error());
    }

    #[test]
    fn nan_producing_fold_reports_origin_only_once() {
        // sqrt(-1) is NaN — flagged with its dedicated code at the origin;
        // NaN + x must not re-fire downstream.
        let t = raw_tape(vec![
            TapeOp::Const(CF(-1.0)),
            TapeOp::Sqrt(VReg(0)),
            TapeOp::Const(CF(2.0)),
            TapeOp::Add(VReg(1), VReg(2)),
            store(0, 0, [0; 3], 3),
        ]);
        let d = check_values(&t, true);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(matches!(
            d[0].kind,
            DiagKind::SqrtNegativeConst { value } if value == -1.0
        ));
        assert_eq!(d[0].instr, Some(1));
        assert!(d[0].is_error());
    }

    #[test]
    fn zero_over_zero_fold_has_its_own_code() {
        // (3-3) / (2-2): indeterminate form, distinct from the x/0 pole.
        let t = raw_tape(vec![
            TapeOp::Const(CF(3.0)),
            TapeOp::Sub(VReg(0), VReg(0)),
            TapeOp::Const(CF(2.0)),
            TapeOp::Sub(VReg(2), VReg(2)),
            TapeOp::Div(VReg(1), VReg(3)),
            store(1, 0, [0; 3], 4),
        ]);
        let d = check_values(&t, true);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(matches!(d[0].kind, DiagKind::ZeroOverZeroConst));
        assert_eq!(d[0].kind.code(), "value.zero-over-zero");
        assert_eq!(d[0].instr, Some(4));
        assert!(d[0].is_error());
    }

    #[test]
    fn rsqrt_of_negative_constant_is_flagged() {
        let t = raw_tape(vec![
            TapeOp::Const(CF(-4.0)),
            TapeOp::RSqrt(VReg(0)),
            store(0, 0, [0; 3], 1),
        ]);
        let d = check_values(&t, true);
        assert!(
            matches!(d[0].kind, DiagKind::SqrtNegativeConst { value } if value == -4.0),
            "{d:?}"
        );
    }

    #[test]
    fn ln_of_negative_constant_is_an_error_but_ln_zero_is_not() {
        let t = raw_tape(vec![
            TapeOp::Const(CF(-0.5)),
            TapeOp::Ln(VReg(0)),
            store(0, 0, [0; 3], 1),
        ]);
        let d = check_values(&t, true);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(matches!(
            d[0].kind,
            DiagKind::LnNegativeConst { value } if value == -0.5
        ));
        assert_eq!(d[0].kind.code(), "value.ln-negative");
        assert!(d[0].is_error());

        // ln(0) = -Inf: a pole, not NaN — the const pass stays silent.
        let t = raw_tape(vec![
            TapeOp::Const(CF(0.0)),
            TapeOp::Ln(VReg(0)),
            store(0, 0, [0; 3], 1),
        ]);
        assert!(check_values(&t, true).is_empty());
    }

    #[test]
    fn literal_nan_constant_is_flagged() {
        let t = raw_tape(vec![TapeOp::Const(CF(f64::NAN)), store(0, 0, [0; 3], 0)]);
        let d = check_values(&t, true);
        assert!(matches!(d[0].kind, DiagKind::NanConst { .. }), "{d:?}");
    }

    #[test]
    fn unseeded_rand_is_a_determinism_warning() {
        let t = raw_tape(vec![TapeOp::Rand(2), store(0, 0, [0; 3], 0)]);
        assert!(check_values(&t, true).is_empty());
        let d = check_values(&t, false);
        assert_eq!(d.len(), 1);
        assert!(matches!(d[0].kind, DiagKind::UnseededRand { lane: 2 }));
        assert!(!d[0].is_error());
    }

    #[test]
    fn sign_of_a_zero_constant_folds_to_zero_like_every_engine() {
        // 0 / sign(±0) is 0/0 in every engine; folding sign with
        // `f64::signum` made the divisor ±1 and hid it.
        for zero in [0.0, -0.0] {
            let t = raw_tape(vec![
                TapeOp::Const(CF(zero)),
                TapeOp::Sign(VReg(0)),
                TapeOp::Div(VReg(0), VReg(1)),
                store(0, 0, [0; 3], 2),
            ]);
            let d = check_values(&t, true);
            assert_eq!(d.len(), 1, "sign({zero:?}) must fold to 0: {d:?}");
            assert!(matches!(d[0].kind, DiagKind::ZeroOverZeroConst), "{d:?}");
        }
    }

    #[test]
    fn select_folds_through_known_comparisons() {
        // CmpSelect picking the NaN branch on known operands is caught.
        let t = raw_tape(vec![
            TapeOp::Const(CF(1.0)),
            TapeOp::Const(CF(2.0)),
            TapeOp::Const(CF(0.0)),
            TapeOp::Ln(VReg(2)), // ln(0) = -inf: fine, not NaN
            TapeOp::CmpSelect {
                op: pf_symbolic::CmpOp::Lt,
                l: VReg(0),
                r: VReg(1),
                t: VReg(3),
                f: VReg(0),
            },
            store(0, 0, [0; 3], 4),
        ]);
        assert!(check_values(&t, true).is_empty());
    }
}
