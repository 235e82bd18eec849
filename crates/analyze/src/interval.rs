//! Pass 6 — interval dataflow: forward range analysis over the SSA tape.
//!
//! Generalizes the two-point const lattice of `value.rs` to closed
//! intervals `[lo, hi]` per register, seeded by the per-field range
//! contracts the model declares on the tape (`Tape::field_ranges`, e.g.
//! φ ∈ [0, 1] after simplex projection) and by the Philox noise bounds
//! (`Rand` draws from `uniform_pm1`, so [-1, 1] exactly). The tape is
//! straight-line SSA, so one forward sweep reaches the fixpoint — no
//! widening loop is needed; "widening" here is the outward rounding that
//! keeps every computed bound sound under f64 arithmetic.
//!
//! What it proves (per instruction, on the *reachable* ranges — not just
//! folded constants):
//!
//! * division by a possibly-zero denominator — provable ({0} exactly) is
//!   an error, possible (interval contains 0) a warning;
//! * `sqrt`/`rsqrt`/`ln` of possibly-nonpositive arguments, same split;
//! * `powf` of a possibly-negative base with a non-integer exponent;
//! * overflow-to-Inf from finite, bounded inputs (e.g. `exp` of a huge
//!   but provably-finite range).
//!
//! The possible/provable split is the false-positive control: intervals
//! ignore operand correlations (`x - x` has interval `[lo-hi, hi-lo]`, not
//! {0}), so containment can only ever justify a warning. One deliberate
//! correlation *is* tracked because the generated kernels lean on it:
//! `Mul(r, r)` — a square — is nonnegative, which proves gradient-norm
//! denominators like `|∇φ|² + η` strictly positive. Squares are detected
//! through local value numbering rather than raw register equality, so
//! the refinement survives rematerialization (which clones one operand
//! into a fresh register).
//!
//! A register that was just reported is demoted to ⊤ so downstream
//! consumers of the poisoned value do not re-fire (same discipline as
//! `value.rs`).

use crate::diag::{DiagKind, Diagnostic};
use pf_ir::{Tape, TapeOp, VReg};

/// A closed, possibly half-open interval over the extended reals.
/// Invariant: `lo <= hi` and neither endpoint is NaN. `TOP` is
/// `[-inf, +inf]` — no information.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    pub const TOP: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    pub fn new(lo: f64, hi: f64) -> Interval {
        debug_assert!(!lo.is_nan() && !hi.is_nan() && lo <= hi);
        Interval { lo, hi }
    }

    pub fn point(v: f64) -> Interval {
        if v.is_nan() {
            // NaN constants are the value pass's finding; carry no range.
            Interval::TOP
        } else {
            Interval { lo: v, hi: v }
        }
    }

    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Both endpoints finite: every value in the range is a normal f64.
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Convex hull (join).
    pub fn hull(a: Interval, b: Interval) -> Interval {
        Interval::new(a.lo.min(b.lo), a.hi.max(b.hi))
    }

    /// Outward-rounded: the true real-arithmetic bound lies within one ulp
    /// of the f64-computed one, so stepping each endpoint outward keeps
    /// the interval a sound over-approximation.
    fn widen(lo: f64, hi: f64) -> Interval {
        let lo = if lo.is_finite() { lo.next_down() } else { lo };
        let hi = if hi.is_finite() { hi.next_up() } else { hi };
        Interval::new(lo, hi)
    }
}

/// f64 multiplication for interval endpoints: IEEE `0 * inf = NaN`, but in
/// interval arithmetic that corner contributes 0 (the limit from the
/// finite side).
fn emul(a: f64, b: f64) -> f64 {
    let p = a * b;
    if p.is_nan() {
        0.0
    } else {
        p
    }
}

fn add(a: Interval, b: Interval) -> Interval {
    // -inf + inf corners: resolve toward the conservative side.
    let lo = if a.lo == f64::NEG_INFINITY || b.lo == f64::NEG_INFINITY {
        f64::NEG_INFINITY
    } else {
        a.lo + b.lo
    };
    let hi = if a.hi == f64::INFINITY || b.hi == f64::INFINITY {
        f64::INFINITY
    } else {
        a.hi + b.hi
    };
    Interval::widen(lo, hi)
}

fn neg(a: Interval) -> Interval {
    Interval::new(-a.hi, -a.lo)
}

fn sub(a: Interval, b: Interval) -> Interval {
    add(a, neg(b))
}

fn mul(a: Interval, b: Interval) -> Interval {
    // 0 · x = 0 for every real x: keep the point exact instead of letting
    // outward rounding smear it to ±5e-324 (a provably-zero denominator
    // must stay provable).
    if (a.lo == 0.0 && a.hi == 0.0) || (b.lo == 0.0 && b.hi == 0.0) {
        return Interval::point(0.0);
    }
    let c = [
        emul(a.lo, b.lo),
        emul(a.lo, b.hi),
        emul(a.hi, b.lo),
        emul(a.hi, b.hi),
    ];
    let lo = c.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Interval::widen(lo, hi)
}

/// x·x with the correlation honoured: never negative.
fn square(a: Interval) -> Interval {
    let m = a.lo.abs().max(a.hi.abs());
    let lo = if a.contains(0.0) {
        0.0
    } else {
        let n = a.lo.abs().min(a.hi.abs());
        emul(n, n)
    };
    Interval::widen(lo.max(0.0), emul(m, m)).intersect_lo(0.0)
}

impl Interval {
    /// Clamp the lower endpoint up to `floor` (used after outward rounding
    /// steps below a bound that is exact, e.g. squares below 0).
    fn intersect_lo(self, floor: f64) -> Interval {
        Interval::new(self.lo.max(floor), self.hi.max(floor))
    }
}

/// 1/b for a denominator proven to exclude 0. The reciprocal of a
/// sign-definite interval is sign-definite, so clamp after the outward
/// rounding: `1/inf = 0` exactly, and letting `widen` step it to
/// `-5e-324` would flip the sign — the later product with an unbounded
/// numerator then explodes to `[-inf, inf]` and every downstream divisor
/// warns spuriously.
fn recip_nonzero(b: Interval) -> Interval {
    debug_assert!(!b.contains(0.0));
    let r = Interval::widen(1.0 / b.hi, 1.0 / b.lo);
    if b.lo > 0.0 {
        r.intersect_lo(0.0)
    } else {
        r.min_hi(0.0)
    }
}

fn sqrt_iv(a: Interval) -> Interval {
    Interval::widen(a.lo.max(0.0).sqrt(), a.hi.max(0.0).sqrt()).intersect_lo(0.0)
}

/// Result of [`infer_intervals`]: the per-register intervals plus the
/// diagnostics raised while computing them.
pub struct IntervalAnalysis {
    pub regs: Vec<Interval>,
    pub diagnostics: Vec<Diagnostic>,
}

/// Run the interval dataflow. See the module docs for the finding families
/// and the provable-vs-possible severity split.
pub fn check_intervals(tape: &Tape) -> Vec<Diagnostic> {
    infer_intervals(tape).diagnostics
}

/// Local value numbering: two registers get the same number iff they are
/// structurally the same computation over same-numbered operands. This is
/// what keeps the square refinement sound *after* rematerialization,
/// which turns `Mul(a, a)` into `Mul(a, a')` with `a'` a recomputed clone
/// of `a` in a fresh register. `Store`/`Fence` (no value) and `Rand`
/// (must not be considered re-samplable) keep their own number.
fn value_numbers(tape: &Tape) -> Vec<u32> {
    let mut table: std::collections::HashMap<TapeOp, u32> = std::collections::HashMap::new();
    let n = tape.instrs.len();
    let mut vn: Vec<u32> = (0..n as u32).collect();
    for (i, op) in tape.instrs.iter().enumerate() {
        if matches!(op, TapeOp::Store { .. } | TapeOp::Fence | TapeOp::Rand(_)) {
            continue;
        }
        let canon = op.map_args(&mut |r: VReg| VReg(vn.get(r.0 as usize).copied().unwrap_or(r.0)));
        vn[i] = *table.entry(canon).or_insert(i as u32);
    }
    vn
}

/// As [`check_intervals`], also exposing the inferred per-register
/// intervals (tests and future passes use the ranges directly).
pub fn infer_intervals(tape: &Tape) -> IntervalAnalysis {
    let n = tape.instrs.len();
    let vn = value_numbers(tape);
    let mut regs: Vec<Interval> = Vec::with_capacity(n);
    let mut out = Vec::new();

    for (i, op) in tape.instrs.iter().enumerate() {
        let arg =
            |r: VReg| -> Interval { regs.get(r.0 as usize).copied().unwrap_or(Interval::TOP) };
        let mut report = |kind: DiagKind, out: &mut Vec<Diagnostic>| {
            out.push(Diagnostic::new(&tape.name, Some(i), kind));
        };

        let mut v = match *op {
            TapeOp::Const(c) => Interval::point(c.0),
            // Params are baked as constants at lowering in this pipeline;
            // a genuinely runtime parameter carries no contract.
            TapeOp::Param(_) => Interval::TOP,
            TapeOp::Load { field, .. } => match tape.field_range(field) {
                Some((lo, hi)) if lo <= hi && !lo.is_nan() && !hi.is_nan() => Interval::new(lo, hi),
                _ => Interval::TOP,
            },
            // Coordinates/time/cell indices are nonnegative (global cell
            // index × dx ≥ 0; simulated time = step · dt ≥ 0).
            TapeOp::Coord(_) | TapeOp::Time | TapeOp::CellIdx(_) => {
                Interval::new(0.0, f64::INFINITY)
            }
            // Philox noise: `uniform_pm1` draws from [-1, 1] exactly.
            TapeOp::Rand(_) => Interval::new(-1.0, 1.0),
            TapeOp::Add(a, b) => {
                let r = add(arg(a), arg(b));
                check_overflow(op, arg(a), arg(b), r, &mut report, &mut out);
                r
            }
            TapeOp::Sub(a, b) => {
                let r = sub(arg(a), arg(b));
                check_overflow(op, arg(a), arg(b), r, &mut report, &mut out);
                r
            }
            TapeOp::Mul(a, b) => {
                let r = if vn[a.0 as usize] == vn[b.0 as usize] {
                    square(arg(a))
                } else {
                    mul(arg(a), arg(b))
                };
                check_overflow(op, arg(a), arg(b), r, &mut report, &mut out);
                r
            }
            TapeOp::Div(a, b) => {
                let (x, y) = (arg(a), arg(b));
                if y.lo == 0.0 && y.hi == 0.0 {
                    report(DiagKind::IntervalDivByZero, &mut out);
                    Interval::TOP
                } else if y.contains(0.0) {
                    report(
                        DiagKind::IntervalDivMaybeZero { lo: y.lo, hi: y.hi },
                        &mut out,
                    );
                    Interval::TOP
                } else {
                    let r = mul(x, recip_nonzero(y));
                    check_overflow(op, x, y, r, &mut report, &mut out);
                    r
                }
            }
            TapeOp::Neg(a) => neg(arg(a)),
            TapeOp::Sqrt(a) => {
                let x = arg(a);
                if x.hi < 0.0 {
                    report(DiagKind::IntervalSqrtNegative { hi: x.hi }, &mut out);
                    Interval::TOP
                } else {
                    // A finite negative lower bound is *partial* knowledge
                    // worth surfacing; lo = -inf means we know nothing and
                    // a warning would fire on every uncontracted sqrt.
                    if x.lo < 0.0 && x.lo.is_finite() {
                        report(DiagKind::IntervalSqrtMaybeNegative { lo: x.lo }, &mut out);
                    }
                    sqrt_iv(x)
                }
            }
            TapeOp::RSqrt(a) => {
                let x = arg(a);
                if x.hi < 0.0 {
                    report(DiagKind::IntervalSqrtNegative { hi: x.hi }, &mut out);
                    Interval::TOP
                } else if x.contains(0.0) && x.lo.is_finite() {
                    if x.lo < 0.0 {
                        report(DiagKind::IntervalSqrtMaybeNegative { lo: x.lo }, &mut out);
                    }
                    report(
                        DiagKind::IntervalRsqrtMaybeZero { lo: x.lo, hi: x.hi },
                        &mut out,
                    );
                    Interval::new(0.0, f64::INFINITY)
                } else if x.contains(0.0) {
                    Interval::new(0.0, f64::INFINITY)
                } else {
                    // x.lo > 0: 1/sqrt is decreasing.
                    Interval::widen(1.0 / x.hi.sqrt(), 1.0 / x.lo.sqrt()).intersect_lo(0.0)
                }
            }
            TapeOp::Abs(a) => {
                let x = arg(a);
                let m = x.lo.abs().max(x.hi.abs());
                let lo = if x.contains(0.0) {
                    0.0
                } else {
                    x.lo.abs().min(x.hi.abs())
                };
                Interval::new(lo, m)
            }
            TapeOp::Min(a, b) => {
                let (x, y) = (arg(a), arg(b));
                Interval::new(x.lo.min(y.lo), x.hi.min(y.hi))
            }
            TapeOp::Max(a, b) => {
                let (x, y) = (arg(a), arg(b));
                Interval::new(x.lo.max(y.lo), x.hi.max(y.hi))
            }
            TapeOp::Exp(a) => {
                let x = arg(a);
                let r = Interval::widen(x.lo.exp(), x.hi.exp()).intersect_lo(0.0);
                check_overflow(op, x, x, r, &mut report, &mut out);
                r
            }
            TapeOp::Ln(a) => {
                let x = arg(a);
                if x.hi <= 0.0 {
                    report(DiagKind::IntervalLnNonPositive { hi: x.hi }, &mut out);
                    Interval::TOP
                } else {
                    if x.lo <= 0.0 && x.lo.is_finite() {
                        report(DiagKind::IntervalLnMaybeNonPositive { lo: x.lo }, &mut out);
                    }
                    let lo = if x.lo > 0.0 {
                        x.lo.ln()
                    } else {
                        f64::NEG_INFINITY
                    };
                    Interval::widen(lo, x.hi.ln())
                }
            }
            TapeOp::Sin(_) | TapeOp::Cos(_) => Interval::new(-1.0, 1.0),
            TapeOp::Tanh(a) => {
                let x = arg(a);
                Interval::widen(x.lo.tanh(), x.hi.tanh())
                    .intersect_lo(-1.0)
                    .min_hi(1.0)
            }
            TapeOp::Sign(a) => {
                // Monotone, and sign(±0) = 0: the sign of each endpoint.
                let sign = |v: f64| f64::from(i8::from(v > 0.0) - i8::from(v < 0.0));
                let x = arg(a);
                Interval::new(sign(x.lo), sign(x.hi))
            }
            TapeOp::Floor(a) => {
                let x = arg(a);
                Interval::new(x.lo.floor(), x.hi.floor())
            }
            TapeOp::Powf(a, b) => {
                let (base, exp) = (arg(a), arg(b));
                let exp_is_int_const = exp.lo == exp.hi && exp.lo.fract() == 0.0;
                if base.lo < 0.0 && base.lo.is_finite() && !exp_is_int_const {
                    report(
                        DiagKind::IntervalPowMaybeUndefined { base_lo: base.lo },
                        &mut out,
                    );
                    Interval::TOP
                } else if base.lo >= 0.0 && exp.lo == exp.hi {
                    // x^c is monotone on x ≥ 0 for any fixed real c.
                    let (p, q) = (base.lo.powf(exp.lo), base.hi.powf(exp.lo));
                    let r = Interval::widen(p.min(q), p.max(q)).intersect_lo(0.0);
                    check_overflow(op, base, exp, r, &mut report, &mut out);
                    r
                } else {
                    Interval::TOP
                }
            }
            TapeOp::CmpSelect { t, f, .. } => Interval::hull(arg(t), arg(f)),
            TapeOp::Store { .. } | TapeOp::Fence => Interval::TOP,
        };

        // Demote error-reported registers to ⊤ so consumers do not
        // re-fire on the same root cause. Warning arms keep their refined
        // result (post-warning, the value is assumed in-domain — the
        // standard assume-no-trap convention).
        if out
            .last()
            .is_some_and(|d| d.instr == Some(i) && d.is_error())
        {
            v = Interval::TOP;
        }
        regs.push(v);
    }
    IntervalAnalysis {
        regs,
        diagnostics: out,
    }
}

impl Interval {
    fn min_hi(self, cap: f64) -> Interval {
        Interval::new(self.lo.min(cap), self.hi.min(cap))
    }
}

/// Overflow-to-Inf detection: inputs finite and bounded, result reaching
/// ±Inf. Whole result infinite (one sign) ⇒ provable error; an infinite
/// endpoint ⇒ possible, a warning.
fn check_overflow(
    op: &TapeOp,
    a: Interval,
    b: Interval,
    r: Interval,
    report: &mut impl FnMut(DiagKind, &mut Vec<Diagnostic>),
    out: &mut Vec<Diagnostic>,
) {
    if !(a.is_bounded() && b.is_bounded()) {
        return;
    }
    let desc = || format!("{op:?}");
    if (r.lo == f64::INFINITY && r.hi == f64::INFINITY)
        || (r.lo == f64::NEG_INFINITY && r.hi == f64::NEG_INFINITY)
    {
        report(DiagKind::IntervalOverflowInf { op: desc() }, out);
    } else if r.lo == f64::NEG_INFINITY || r.hi == f64::INFINITY {
        report(DiagKind::IntervalMaybeOverflowInf { op: desc() }, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{load, raw_tape, store};
    use pf_ir::{TapeOp, VReg, CF};

    /// raw_tape with contracts on slot 0 (φ-like ∈ [0,1]).
    fn contracted(instrs: Vec<TapeOp>) -> Tape {
        let mut t = raw_tape(instrs);
        t.field_ranges = vec![Some((0.0, 1.0)), None];
        t
    }

    #[test]
    fn contract_seeds_load_interval() {
        let t = contracted(vec![load(0, 0, [0; 3]), store(1, 0, [0; 3], 0)]);
        let a = infer_intervals(&t);
        assert_eq!(a.regs[0], Interval::new(0.0, 1.0));
        assert!(a.diagnostics.is_empty());
    }

    #[test]
    fn gradient_norm_denominator_is_proven_positive() {
        // (φ(+x) - φ(-x))² + η with φ ∈ [0,1], η = 1e-9: the showcase —
        // dividing by it is proven safe even though the difference spans
        // [-1, 1]. The square correlation is what makes it work.
        let t = contracted(vec![
            load(0, 0, [1, 0, 0]),
            load(0, 0, [-1, 0, 0]),
            TapeOp::Sub(VReg(0), VReg(1)),
            TapeOp::Mul(VReg(2), VReg(2)), // square: ≥ 0
            TapeOp::Const(CF(1e-9)),
            TapeOp::Add(VReg(3), VReg(4)), // ≥ ~1e-9 > 0
            TapeOp::Const(CF(1.0)),
            TapeOp::Div(VReg(6), VReg(5)),
            store(1, 0, [0; 3], 7),
        ]);
        let a = infer_intervals(&t);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert!(
            a.regs[5].lo > 0.0,
            "denominator lower bound {:?}",
            a.regs[5]
        );
    }

    #[test]
    fn sign_interval_contains_every_executed_value() {
        // Endpoints at ±0 used to go through `f64::signum` (sign(0.0) = 1):
        // Sign([0,5]) came out [1,1], excluding the executed sign(0) = 0.
        let exact = pf_ir::ApproxOptions::default();
        for (lo, hi) in [(0.0, 0.0), (0.0, 5.0), (-5.0, -0.0), (-5.0, 5.0)] {
            let mut t = raw_tape(vec![
                load(0, 0, [0; 3]),
                TapeOp::Sign(VReg(0)),
                store(1, 0, [0; 3], 1),
            ]);
            t.field_ranges = vec![Some((lo, hi)), None];
            let got = infer_intervals(&t).regs[1];
            for x in [lo, hi, 0.0, -0.0, 0.5 * (lo + hi)] {
                let v = pf_ir::UnOp::Sign.eval(x, exact);
                assert!(
                    got.lo <= v && v <= got.hi,
                    "sign({x:?}) = {v} outside {got:?} for [{lo:?}, {hi:?}]"
                );
            }
        }
    }

    #[test]
    fn unbounded_divisor_is_a_warning_not_error() {
        // Dividing by an uncontracted load: possible zero, so a warning.
        let t = raw_tape(vec![
            TapeOp::Const(CF(1.0)),
            load(0, 0, [0; 3]),
            TapeOp::Div(VReg(0), VReg(1)),
            store(1, 0, [0; 3], 2),
        ]);
        let d = check_intervals(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].kind.code(), "interval.div-maybe-zero");
        assert!(!d[0].is_error());
        assert_eq!(d[0].instr, Some(2));
    }

    #[test]
    fn divisor_spanning_zero_from_contract_warns() {
        // φ - 0.5 spans [-0.5, 0.5]: contains zero → warning.
        let t = contracted(vec![
            load(0, 0, [0; 3]),
            TapeOp::Const(CF(0.5)),
            TapeOp::Sub(VReg(0), VReg(1)),
            TapeOp::Const(CF(1.0)),
            TapeOp::Div(VReg(3), VReg(2)),
            store(1, 0, [0; 3], 4),
        ]);
        let d = check_intervals(&t);
        assert!(
            matches!(d[0].kind, DiagKind::IntervalDivMaybeZero { .. }),
            "{d:?}"
        );
    }

    #[test]
    fn provable_zero_denominator_is_an_error() {
        // min(φ, 0) · φ²'s lower... simplest: Mul(φ, 0-const) = {0}.
        let t = contracted(vec![
            load(0, 0, [0; 3]),
            TapeOp::Const(CF(0.0)),
            TapeOp::Mul(VReg(0), VReg(1)), // [0,1]·{0} = {0}
            TapeOp::Const(CF(2.0)),
            TapeOp::Div(VReg(3), VReg(2)),
            store(1, 0, [0; 3], 4),
        ]);
        let d = check_intervals(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(matches!(d[0].kind, DiagKind::IntervalDivByZero), "{d:?}");
        assert!(d[0].is_error());
    }

    #[test]
    fn sqrt_of_proven_negative_range_is_an_error() {
        // sqrt(-1 - φ): range [-2, -1], provably negative.
        let t = contracted(vec![
            TapeOp::Const(CF(-1.0)),
            load(0, 0, [0; 3]),
            TapeOp::Sub(VReg(0), VReg(1)),
            TapeOp::Sqrt(VReg(2)),
            store(1, 0, [0; 3], 3),
        ]);
        let d = check_intervals(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(matches!(d[0].kind, DiagKind::IntervalSqrtNegative { .. }));
        assert!(d[0].is_error());
    }

    #[test]
    fn sqrt_of_maybe_negative_warns_and_clamps() {
        // sqrt(φ - 0.5): may be negative → warning; result still [0, ~0.71].
        let t = contracted(vec![
            load(0, 0, [0; 3]),
            TapeOp::Const(CF(0.5)),
            TapeOp::Sub(VReg(0), VReg(1)),
            TapeOp::Sqrt(VReg(2)),
            store(1, 0, [0; 3], 3),
        ]);
        let a = infer_intervals(&t);
        assert_eq!(a.diagnostics.len(), 1);
        assert!(matches!(
            a.diagnostics[0].kind,
            DiagKind::IntervalSqrtMaybeNegative { .. }
        ));
        assert!(!a.diagnostics[0].is_error());
        assert!(a.regs[3].lo >= 0.0);
    }

    #[test]
    fn ln_of_nonpositive_range_is_an_error_and_maybe_warns() {
        let t = contracted(vec![
            load(0, 0, [0; 3]),
            TapeOp::Neg(VReg(0)), // [-1, 0]
            TapeOp::Ln(VReg(1)),
            store(1, 0, [0; 3], 2),
        ]);
        let d = check_intervals(&t);
        assert!(matches!(d[0].kind, DiagKind::IntervalLnNonPositive { .. }));
        assert!(d[0].is_error());

        let t = contracted(vec![
            load(0, 0, [0; 3]), // [0, 1] — ln(0) = -inf possible
            TapeOp::Ln(VReg(0)),
            store(1, 0, [0; 3], 1),
        ]);
        let d = check_intervals(&t);
        assert!(
            matches!(d[0].kind, DiagKind::IntervalLnMaybeNonPositive { .. }),
            "{d:?}"
        );
        assert!(!d[0].is_error());
    }

    #[test]
    fn rsqrt_with_eta_floor_is_clean_rsqrt_of_zero_range_warns() {
        // rsqrt(φ² + η): proven positive → clean.
        let t = contracted(vec![
            load(0, 0, [0; 3]),
            TapeOp::Mul(VReg(0), VReg(0)),
            TapeOp::Const(CF(1e-9)),
            TapeOp::Add(VReg(1), VReg(2)),
            TapeOp::RSqrt(VReg(3)),
            store(1, 0, [0; 3], 4),
        ]);
        assert!(check_intervals(&t).is_empty());

        // rsqrt(φ): contains 0 → +Inf reachable, warning.
        let t = contracted(vec![
            load(0, 0, [0; 3]),
            TapeOp::RSqrt(VReg(0)),
            store(1, 0, [0; 3], 1),
        ]);
        let d = check_intervals(&t);
        assert!(
            matches!(d[0].kind, DiagKind::IntervalRsqrtMaybeZero { .. }),
            "{d:?}"
        );
    }

    #[test]
    fn exp_overflow_on_whole_range_is_an_error() {
        // exp([800, 900]) = +Inf everywhere: provable overflow.
        let t = raw_tape(vec![
            TapeOp::Const(CF(800.0)),
            TapeOp::Const(CF(100.0)),
            TapeOp::Add(VReg(0), VReg(1)),
            TapeOp::Exp(VReg(2)),
            store(1, 0, [0; 3], 3),
        ]);
        let d = check_intervals(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(matches!(d[0].kind, DiagKind::IntervalOverflowInf { .. }));
        assert!(d[0].is_error());
    }

    #[test]
    fn reachable_overflow_is_a_warning() {
        // x · 1e308 with x ∈ [0, 1e308]-ish: hi endpoint overflows only.
        let t = raw_tape(vec![
            TapeOp::Const(CF(1e308)),
            load(0, 0, [0; 3]),
            TapeOp::Abs(VReg(1)),
            TapeOp::Min(VReg(2), VReg(0)), // [0, 1e308] — bounded
            TapeOp::Mul(VReg(3), VReg(0)),
            store(1, 0, [0; 3], 4),
        ]);
        let d = check_intervals(&t);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(matches!(
            d[0].kind,
            DiagKind::IntervalMaybeOverflowInf { .. }
        ));
        assert!(!d[0].is_error());
    }

    #[test]
    fn powf_negative_base_noninteger_exponent_warns() {
        let t = contracted(vec![
            load(0, 0, [0; 3]),
            TapeOp::Const(CF(0.5)),
            TapeOp::Sub(VReg(0), VReg(1)), // [-0.5, 0.5]
            TapeOp::Powf(VReg(2), VReg(1)),
            store(1, 0, [0; 3], 3),
        ]);
        let d = check_intervals(&t);
        assert!(
            matches!(d[0].kind, DiagKind::IntervalPowMaybeUndefined { .. }),
            "{d:?}"
        );
        // Integer constant exponent on the same base: no finding.
        let t = contracted(vec![
            load(0, 0, [0; 3]),
            TapeOp::Const(CF(0.5)),
            TapeOp::Sub(VReg(0), VReg(1)),
            TapeOp::Const(CF(2.0)),
            TapeOp::Powf(VReg(2), VReg(3)),
            store(1, 0, [0; 3], 4),
        ]);
        assert!(check_intervals(&t).is_empty());
    }

    #[test]
    fn rand_seeds_philox_bounds() {
        // Rand ∈ [-1,1]; 0.5·(rand+1) ∈ [0,1]; dividing by (that + 1) is
        // proven safe.
        let t = raw_tape(vec![
            TapeOp::Rand(0),
            TapeOp::Const(CF(1.0)),
            TapeOp::Add(VReg(0), VReg(1)), // [0, 2]
            TapeOp::Const(CF(1.0)),
            TapeOp::Add(VReg(2), VReg(3)), // [1, 3]
            TapeOp::Div(VReg(1), VReg(4)),
            store(1, 0, [0; 3], 5),
        ]);
        assert!(check_intervals(&t).is_empty());
    }

    #[test]
    fn reported_register_does_not_cascade() {
        // One div-maybe-zero; its result feeding a sqrt must not re-fire
        // (the result was demoted to ⊤, and sqrt of ⊤ is silent... ⊤
        // contains negatives — it must NOT warn, that would cascade).
        let t = raw_tape(vec![
            TapeOp::Const(CF(1.0)),
            load(0, 0, [0; 3]),
            TapeOp::Div(VReg(0), VReg(1)),
            store(1, 0, [0; 3], 2),
        ]);
        let d = check_intervals(&t);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn select_joins_branches() {
        let t = contracted(vec![
            load(0, 0, [0; 3]),
            TapeOp::Const(CF(2.0)),
            TapeOp::Const(CF(5.0)),
            TapeOp::CmpSelect {
                op: pf_symbolic::CmpOp::Lt,
                l: VReg(0),
                r: VReg(1),
                t: VReg(1),
                f: VReg(2),
            },
            store(1, 0, [0; 3], 3),
        ]);
        let a = infer_intervals(&t);
        assert_eq!(a.regs[3], Interval::new(2.0, 5.0));
    }
}
