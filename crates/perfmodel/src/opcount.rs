//! Operation census and normalized FLOP accounting (Table 1).
//!
//! "Additions and multiplications are counted as one operation, divisions
//! as 16, approximate square roots as 10, and approx. inverse square roots
//! are counted as 2 FLOPs, which approximately matches their throughput on
//! the Skylake architecture." Loads and stores count double-precision
//! values moved per cell.
//!
//! Only instructions at the innermost loop level (level 3) are charged to
//! the per-cell budget — precisely how LICM of the analytic temperature
//! reduces the reported FLOP counts in the paper.

use pf_ir::{Arith, BinOp, Tape, TapeOp, UnOp};

/// Per-cell operation counts of a kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCensus {
    pub loads: usize,
    pub stores: usize,
    pub adds: usize,
    pub muls: usize,
    pub divs: usize,
    pub sqrts: usize,
    pub rsqrts: usize,
    /// exp/ln/sin/cos/tanh/pow — software sequences.
    pub transcendental: usize,
    /// Blends, min/max, abs, sign — cheap logic ops.
    pub logic: usize,
    /// Philox invocations.
    pub rng: usize,
}

impl OpCensus {
    /// The paper's normalized FLOP metric (last row of Table 1).
    pub fn normalized_flops(&self) -> usize {
        self.adds + self.muls + 16 * self.divs + 10 * self.sqrts + 2 * self.rsqrts
    }

    /// Raw arithmetic operation count.
    pub fn arith_total(&self) -> usize {
        self.adds + self.muls + self.divs + self.sqrts + self.rsqrts + self.transcendental
    }

    pub fn add(&self, other: &OpCensus) -> OpCensus {
        OpCensus {
            loads: self.loads + other.loads,
            stores: self.stores + other.stores,
            adds: self.adds + other.adds,
            muls: self.muls + other.muls,
            divs: self.divs + other.divs,
            sqrts: self.sqrts + other.sqrts,
            rsqrts: self.rsqrts + other.rsqrts,
            transcendental: self.transcendental + other.transcendental,
            logic: self.logic + other.logic,
            rng: self.rng + other.rng,
        }
    }
}

/// Which instructions to charge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountScope {
    /// Everything in the tape (the naive, nothing-hoisted accounting).
    All,
    /// Only the innermost-loop (per-cell) instructions — what each lattice
    /// site update actually costs after LICM.
    PerCell,
}

/// Count the operations of a tape.
pub fn census(tape: &Tape, scope: CountScope) -> OpCensus {
    let mut c = OpCensus::default();
    for (i, op) in tape.instrs.iter().enumerate() {
        if scope == CountScope::PerCell && *tape.levels.get(i).unwrap_or(&3) < 3 {
            continue;
        }
        let class = match op.arith() {
            Some(Arith::Un(o, _)) => match o {
                UnOp::Neg => &mut c.adds,
                UnOp::Sqrt => &mut c.sqrts,
                UnOp::RSqrt => &mut c.rsqrts,
                UnOp::Exp | UnOp::Ln | UnOp::Sin | UnOp::Cos | UnOp::Tanh => &mut c.transcendental,
                UnOp::Abs | UnOp::Sign | UnOp::Floor => &mut c.logic,
            },
            Some(Arith::Bin(o, ..)) => match o {
                BinOp::Add | BinOp::Sub => &mut c.adds,
                BinOp::Mul => &mut c.muls,
                BinOp::Div => &mut c.divs,
                BinOp::Powf => &mut c.transcendental,
                BinOp::Min | BinOp::Max => &mut c.logic,
            },
            None => match op {
                TapeOp::Load { .. } => &mut c.loads,
                TapeOp::Store { .. } => &mut c.stores,
                TapeOp::CmpSelect { .. } => &mut c.logic,
                TapeOp::Rand(_) => &mut c.rng,
                // Const, Param, Coord, Time, CellIdx, Fence cost nothing.
                _ => continue,
            },
        };
        *class += 1;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_ir::{generate, GenOptions};
    use pf_stencil::{Assignment, StencilKernel};
    use pf_symbolic::{Access, Expr, Field};

    fn tape_for(rhs: Expr) -> Tape {
        let out = Field::new("oc_out", 1, 3);
        let k = StencilKernel::new("oc", vec![Assignment::store(Access::center(out, 0), rhs)]);
        generate(&k, &GenOptions::default())
    }

    #[test]
    fn normalized_weights_match_the_paper() {
        let c = OpCensus {
            adds: 542,
            muls: 788,
            divs: 19,
            sqrts: 42,
            rsqrts: 36,
            ..Default::default()
        };
        // Exactly the µ-full P1 row of Table 1: 2126 normalized FLOPS.
        assert_eq!(c.normalized_flops(), 2126);
    }

    #[test]
    fn census_counts_each_kind() {
        let f = Field::new("oc_in", 1, 3);
        let a = Expr::access(Access::center(f, 0));
        let rhs =
            Expr::sqrt(a.clone()) + Expr::rsqrt(a.clone() + 2.0) + a.clone() / (a.clone() + 3.0);
        let t = tape_for(rhs);
        let c = census(&t, CountScope::All);
        assert_eq!(c.sqrts, 1);
        assert_eq!(c.rsqrts, 1);
        assert_eq!(c.divs, 1);
        assert!(c.adds >= 2);
        assert_eq!(c.stores, 1);
    }

    #[test]
    fn licm_shrinks_per_cell_counts() {
        let f = Field::new("oc_licm", 1, 3);
        let a = Expr::access(Access::center(f, 0));
        let temp = Expr::sym("oc_T0") + Expr::coord(2) * Expr::sym("oc_G");
        // The expensive z-only chain hoists; only one mul stays per cell.
        let rhs = a * Expr::powi(temp, 4);
        let t = tape_for(rhs);
        let all = census(&t, CountScope::All);
        let per_cell = census(&t, CountScope::PerCell);
        assert!(per_cell.muls < all.muls, "{per_cell:?} vs {all:?}");
        assert_eq!(per_cell.muls, 1);
    }
}
