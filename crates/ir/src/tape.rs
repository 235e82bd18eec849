//! The flat, typed kernel tape — this project's executable intermediate
//! representation.
//!
//! A tape is a straight-line SSA program executed once per grid cell:
//! instruction `i` defines virtual register `i`. The stencil layer's
//! assignment lists are lowered onto it (see `lower.rs`); the backends
//! either interpret it natively or pretty-print it as C/CUDA.
//!
//! Keeping the representation this low-level is what lets the same data
//! structure drive execution, FLOP accounting (Table 1), the ECM performance
//! model (Fig. 2), and the GPU register-pressure transformations
//! (Fig. 2 right).

use pf_symbolic::{CmpOp, Field, Symbol};
use std::collections::HashMap;
use std::fmt;

/// Virtual register = index of the defining instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

impl fmt::Debug for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// f64 wrapper with bitwise equality/hashing so instructions can be value
/// numbered.
#[derive(Clone, Copy, Debug)]
pub struct CF(pub f64);

impl PartialEq for CF {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for CF {}
impl std::hash::Hash for CF {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.to_bits());
    }
}

/// One tape instruction. `Store` produces no value (its register is unused).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TapeOp {
    Const(CF),
    /// Kernel argument (slot into `Tape::params`).
    Param(u16),
    /// Field read: slot into `Tape::fields`, component, cell-relative offset.
    Load {
        field: u16,
        comp: u16,
        off: [i16; 3],
    },
    Coord(u8),
    Time,
    CellIdx(u8),
    Rand(u8),
    Add(VReg, VReg),
    Sub(VReg, VReg),
    Mul(VReg, VReg),
    Div(VReg, VReg),
    Neg(VReg),
    Sqrt(VReg),
    /// Reciprocal square root — a first-class op because the paper counts
    /// and approximates it separately (`rsqrt14` on AVX-512, `frsqrt` CUDA).
    RSqrt(VReg),
    Abs(VReg),
    Min(VReg, VReg),
    Max(VReg, VReg),
    Exp(VReg),
    Ln(VReg),
    Sin(VReg),
    Cos(VReg),
    Tanh(VReg),
    Sign(VReg),
    Floor(VReg),
    Powf(VReg, VReg),
    /// Branch-free select (vector blend).
    CmpSelect {
        op: CmpOp,
        l: VReg,
        r: VReg,
        t: VReg,
        f: VReg,
    },
    /// Field write.
    Store {
        field: u16,
        comp: u16,
        off: [i16; 3],
        val: VReg,
    },
    /// Scheduling barrier (the `__threadfence()` analogue, §3.5): no
    /// instruction may move across it.
    Fence,
}

/// The arithmetic ops: an op with one or two register operands and a value
/// that depends on nothing else. This table is the one place that knows
/// them — each row is the `TapeOp` variant of the same name and its f64
/// meaning; `ap` is the tape's [`ApproxOptions`] (the f32 round-trips stand
/// in for `rsqrt14`/`fdividef`, §3.5). Every engine evaluates through
/// [`UnOp::eval`]/[`BinOp::eval`] and every emitter spells a `UnOp`/`BinOp`;
/// only [`crate::interp_cell`], the reference they are tested against, and
/// pf-analyze's interval domain keep their own.
macro_rules! arith_ops {
    (unary |$x:ident, $uap:ident| { $($u:ident => $ue:expr,)* }
     binary |$a:ident, $b:ident, $bap:ident| { $($bi:ident => $be:expr,)* }) => {
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum UnOp { $($u),* }

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum BinOp { $($bi),* }

        impl UnOp {
            pub const ALL: &'static [UnOp] = &[$(UnOp::$u),*];

            #[inline(always)]
            pub fn eval(self, $x: f64, $uap: ApproxOptions) -> f64 {
                match self { $(UnOp::$u => $ue),* }
            }

            /// `dst[l] = self.eval(x[l])`, dispatched once for all lanes.
            #[inline(always)]
            pub fn eval_lanes<const N: usize>(
                self, dst: &mut [f64; N], x: &[f64; N], ap: ApproxOptions,
            ) {
                match self {
                    $(UnOp::$u => for l in 0..N { dst[l] = UnOp::$u.eval(x[l], ap) }),*
                }
            }
        }

        impl BinOp {
            pub const ALL: &'static [BinOp] = &[$(BinOp::$bi),*];

            #[inline(always)]
            pub fn eval(self, $a: f64, $b: f64, $bap: ApproxOptions) -> f64 {
                match self { $(BinOp::$bi => $be),* }
            }

            /// `dst[l] = self.eval(a[l], b[l])`, dispatched once for all lanes.
            #[inline(always)]
            pub fn eval_lanes<const N: usize>(
                self, dst: &mut [f64; N], a: &[f64; N], b: &[f64; N], ap: ApproxOptions,
            ) {
                match self {
                    $(BinOp::$bi => for l in 0..N { dst[l] = BinOp::$bi.eval(a[l], b[l], ap) }),*
                }
            }
        }

        impl TapeOp {
            /// This instruction as an arithmetic op, if it is one.
            #[inline(always)]
            pub fn arith(&self) -> Option<Arith> {
                match *self {
                    $(TapeOp::$u(a) => Some(Arith::Un(UnOp::$u, a)),)*
                    $(TapeOp::$bi(a, b) => Some(Arith::Bin(BinOp::$bi, a, b)),)*
                    _ => None,
                }
            }
        }

        impl From<Arith> for TapeOp {
            fn from(op: Arith) -> TapeOp {
                match op {
                    $(Arith::Un(UnOp::$u, a) => TapeOp::$u(a),)*
                    $(Arith::Bin(BinOp::$bi, a, b) => TapeOp::$bi(a, b),)*
                }
            }
        }
    };
}

arith_ops! {
    unary |x, ap| {
        Neg => -x,
        Sqrt => if ap.fast_sqrt { (x as f32).sqrt() as f64 } else { x.sqrt() },
        RSqrt => if ap.fast_rsqrt { (1.0 / (x as f32).sqrt()) as f64 } else { 1.0 / x.sqrt() },
        Abs => x.abs(),
        Exp => x.exp(),
        Ln => x.ln(),
        Sin => x.sin(),
        Cos => x.cos(),
        Tanh => x.tanh(),
        Sign => if x > 0.0 { 1.0 } else if x < 0.0 { -1.0 } else { 0.0 },
        Floor => x.floor(),
    }
    binary |a, b, ap| {
        Add => a + b,
        Sub => a - b,
        Mul => a * b,
        Div => if ap.fast_div { (a as f32 / b as f32) as f64 } else { a / b },
        Min => a.min(b),
        Max => a.max(b),
        Powf => a.powf(b),
    }
}

/// An arithmetic instruction split into its op and its operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arith {
    Un(UnOp, VReg),
    Bin(BinOp, VReg, VReg),
}

impl TapeOp {
    /// Registers read by this instruction.
    pub fn args(&self) -> Vec<VReg> {
        match *self {
            TapeOp::CmpSelect { l, r, t, f, .. } => vec![l, r, t, f],
            TapeOp::Store { val, .. } => vec![val],
            _ => match self.arith() {
                Some(Arith::Un(_, a)) => vec![a],
                Some(Arith::Bin(_, a, b)) => vec![a, b],
                None => vec![],
            },
        }
    }

    /// Same instruction with its register arguments remapped.
    pub fn map_args(&self, m: &mut impl FnMut(VReg) -> VReg) -> TapeOp {
        match *self {
            TapeOp::CmpSelect { op, l, r, t, f } => TapeOp::CmpSelect {
                op,
                l: m(l),
                r: m(r),
                t: m(t),
                f: m(f),
            },
            TapeOp::Store {
                field,
                comp,
                off,
                val,
            } => TapeOp::Store {
                field,
                comp,
                off,
                val: m(val),
            },
            other => match other.arith() {
                Some(Arith::Un(o, a)) => Arith::Un(o, m(a)).into(),
                Some(Arith::Bin(o, a, b)) => Arith::Bin(o, m(a), m(b)).into(),
                None => other,
            },
        }
    }

    pub fn is_store(&self) -> bool {
        matches!(self, TapeOp::Store { .. })
    }

    pub fn is_fence(&self) -> bool {
        matches!(self, TapeOp::Fence)
    }

    /// Is this a pure value computation (eligible for value numbering and
    /// rematerialization)?
    pub fn is_pure(&self) -> bool {
        !matches!(self, TapeOp::Store { .. } | TapeOp::Fence)
    }
}

/// Approximation options the user can request for expensive operations
/// (§3.5: `rsqrt14`, `fdividef`, `frsqrt`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ApproxOptions {
    pub fast_div: bool,
    pub fast_sqrt: bool,
    pub fast_rsqrt: bool,
}

/// A complete compiled kernel.
#[derive(Clone, Debug)]
pub struct Tape {
    pub name: String,
    /// Field slot table: `Load`/`Store` instructions refer to these.
    pub fields: Vec<Field>,
    /// Runtime parameter slot table (symbols left unbound at generation).
    pub params: Vec<Symbol>,
    /// SSA instruction list; instruction `i` defines `VReg(i)`.
    pub instrs: Vec<TapeOp>,
    /// Extra iterations past the interior per dimension (face kernels).
    pub iter_extent: [usize; 3],
    /// LICM level of each instruction: 0 = loop-invariant, 1 = depends on
    /// the outermost spatial loop only, 2 = mid loop, 3 = innermost
    /// (per-cell). Filled by the `levels` pass; defaults to 3.
    pub levels: Vec<u8>,
    /// Loop order as a permutation of the dimensions, outermost first. The
    /// innermost loop is always the unit-stride x dimension (memory layout
    /// constraint, §3.4); the pass may swap the outer two.
    pub loop_order: [usize; 3],
    pub approx: ApproxOptions,
    /// Per-field-slot value range contracts (parallel to `fields`):
    /// `Some((lo, hi))` declares that every value loaded from that field is
    /// in `[lo, hi]` (a *model-level* promise, e.g. φ ∈ [0, 1] after
    /// simplex projection). Analysis-only metadata: it seeds the interval
    /// dataflow pass and is deliberately **excluded from
    /// [`Tape::structural_hash`]** — contracts never change what a tape
    /// computes, so stamping them must not invalidate compiled-code or
    /// tuning caches. Empty means "no contracts" (all unknown).
    pub field_ranges: Vec<Option<(f64, f64)>>,
}

impl Tape {
    pub fn field_slot(&self, f: Field) -> Option<u16> {
        self.fields.iter().position(|x| *x == f).map(|i| i as u16)
    }

    /// Number of virtual registers.
    pub fn num_regs(&self) -> usize {
        self.instrs.len()
    }

    /// Stable fingerprint of everything execution-relevant in this tape:
    /// name, slot tables, instruction list, levels, loop order, iteration
    /// extent and approximation flags. Two tapes with equal hashes execute
    /// identically over identically-shaped storage — which is what the
    /// native artifact cache and the tuning cache key on. (Tapes carry no
    /// identity: pipelines clone and mutate them freely, so a stored id
    /// would go stale; a structural fingerprint cannot.) `field_ranges` is
    /// *not* hashed: contracts are analysis-only and must not invalidate
    /// caches.
    pub fn structural_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name.hash(&mut h);
        self.fields.hash(&mut h);
        self.params.hash(&mut h);
        self.instrs.hash(&mut h);
        self.iter_extent.hash(&mut h);
        self.levels.hash(&mut h);
        self.loop_order.hash(&mut h);
        self.approx.hash(&mut h);
        h.finish()
    }

    /// Are the LICM levels sorted? The levels pass leaves them so; a
    /// GPU-oriented reschedule may not, and then nothing can be hoisted.
    pub fn levels_monotone(&self) -> bool {
        self.levels.windows(2).all(|w| w[0] <= w[1])
    }

    /// Ends of the hoisted level sections: `instrs[..s[0]]` is invariant
    /// over the launch, `[s[0]..s[1]]` depends on the outermost loop only,
    /// `[s[1]..s[2]]` on the outer two, and `[s[2]..]` runs per cell. A tape
    /// whose levels are not monotone runs everything per cell (always
    /// correct), so all three are 0.
    pub fn level_sections(&self) -> [usize; 3] {
        if !self.levels_monotone() {
            return [0; 3];
        }
        [0, 1, 2].map(|lvl| {
            self.levels
                .iter()
                .position(|&l| l > lvl)
                .unwrap_or(self.instrs.len())
        })
    }

    /// Declared value range of loads from field slot `slot`, if any.
    pub fn field_range(&self, slot: u16) -> Option<(f64, f64)> {
        self.field_ranges.get(slot as usize).copied().flatten()
    }

    /// Indices of store instructions.
    pub fn stores(&self) -> impl Iterator<Item = usize> + '_ {
        self.instrs
            .iter()
            .enumerate()
            .filter(|(_, op)| op.is_store())
            .map(|(i, _)| i)
    }

    /// Use counts of each register.
    pub fn use_counts(&self) -> Vec<u32> {
        let mut uses = vec![0u32; self.instrs.len()];
        for op in &self.instrs {
            for a in op.args() {
                uses[a.0 as usize] += 1;
            }
        }
        uses
    }

    /// Remove instructions whose results are never used (and are not stores
    /// or fences), preserving SSA numbering by rebuilding.
    pub fn dead_code_eliminate(&mut self) {
        let n = self.instrs.len();
        let mut live = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        for (i, op) in self.instrs.iter().enumerate() {
            // Rand is a root too: each op consumes one lane of the per-cell
            // Philox stream, so eliminating an "unused" one would shift the
            // lanes of every later Rand and change the realized noise.
            if op.is_store() || op.is_fence() || matches!(op, TapeOp::Rand(_)) {
                live[i] = true;
                stack.push(i);
            }
        }
        while let Some(i) = stack.pop() {
            for a in self.instrs[i].args() {
                let j = a.0 as usize;
                if !live[j] {
                    live[j] = true;
                    stack.push(j);
                }
            }
        }
        let mut remap: Vec<u32> = vec![u32::MAX; n];
        let mut new_instrs = Vec::with_capacity(n);
        let mut new_levels = Vec::with_capacity(n);
        for i in 0..n {
            if live[i] {
                remap[i] = new_instrs.len() as u32;
                let op = self.instrs[i].map_args(&mut |r: VReg| VReg(remap[r.0 as usize]));
                new_instrs.push(op);
                new_levels.push(*self.levels.get(i).unwrap_or(&3));
            }
        }
        self.instrs = new_instrs;
        self.levels = new_levels;
    }
}

/// Incremental tape builder with value numbering (local CSE at tape level).
pub struct TapeBuilder {
    pub name: String,
    pub fields: Vec<Field>,
    pub params: Vec<Symbol>,
    pub instrs: Vec<TapeOp>,
    value_numbers: HashMap<TapeOp, VReg>,
    /// Bound SSA temporaries (symbol → register).
    pub temp_regs: HashMap<Symbol, VReg>,
    /// Lowering memo: expression node identity → register. Shared subtrees
    /// are lowered once (tree recursion would be exponential on the heavily
    /// shared DAGs the symbolic layer produces). The memo *owns* its key
    /// expressions: node identity is an `Rc` address, which is only unique
    /// while the expression is alive — transient expressions built during
    /// lowering would otherwise free their address for reuse and poison
    /// the map.
    pub expr_memo: HashMap<usize, (pf_symbolic::Expr, VReg)>,
}

impl TapeBuilder {
    pub fn new(name: &str) -> Self {
        TapeBuilder {
            name: name.to_owned(),
            fields: Vec::new(),
            params: Vec::new(),
            instrs: Vec::new(),
            value_numbers: HashMap::new(),
            temp_regs: HashMap::new(),
            expr_memo: HashMap::new(),
        }
    }

    /// Emit an instruction, reusing an existing register when an identical
    /// pure instruction was already emitted.
    pub fn emit(&mut self, op: TapeOp) -> VReg {
        if op.is_pure() {
            if let Some(&r) = self.value_numbers.get(&op) {
                return r;
            }
        }
        let r = VReg(self.instrs.len() as u32);
        self.instrs.push(op);
        if op.is_pure() {
            self.value_numbers.insert(op, r);
        }
        r
    }

    pub fn field_slot(&mut self, f: Field) -> u16 {
        if let Some(i) = self.fields.iter().position(|x| *x == f) {
            i as u16
        } else {
            self.fields.push(f);
            (self.fields.len() - 1) as u16
        }
    }

    pub fn param_slot(&mut self, s: Symbol) -> u16 {
        if let Some(i) = self.params.iter().position(|x| *x == s) {
            i as u16
        } else {
            self.params.push(s);
            (self.params.len() - 1) as u16
        }
    }

    pub fn finish(self, iter_extent: [usize; 3]) -> Tape {
        let n = self.instrs.len();
        Tape {
            name: self.name,
            fields: self.fields,
            params: self.params,
            instrs: self.instrs,
            iter_extent,
            levels: vec![3; n],
            loop_order: [2, 1, 0],
            approx: ApproxOptions::default(),
            field_ranges: Vec::new(),
        }
    }
}

impl Tape {
    /// Validate SSA well-formedness: every argument refers to an earlier
    /// instruction, levels (when monotone metadata is claimed) match the
    /// instruction list length, and field/param slots are in range.
    /// Returns a description of the first violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels.len() != self.instrs.len() {
            return Err(format!(
                "levels length {} != instruction count {}",
                self.levels.len(),
                self.instrs.len()
            ));
        }
        for (i, op) in self.instrs.iter().enumerate() {
            for a in op.args() {
                if a.0 as usize >= i {
                    return Err(format!("instr {i} uses r{} defined at/after it", a.0));
                }
            }
            let check_slot = |field: u16| -> Result<(), String> {
                if field as usize >= self.fields.len() {
                    Err(format!(
                        "instr {i} references field slot {field} out of range"
                    ))
                } else {
                    Ok(())
                }
            };
            match op {
                TapeOp::Load { field, comp, .. } | TapeOp::Store { field, comp, .. } => {
                    check_slot(*field)?;
                    if *comp as usize >= self.fields[*field as usize].components() {
                        return Err(format!("instr {i} component {comp} out of range"));
                    }
                }
                TapeOp::Param(p) if *p as usize >= self.params.len() => {
                    return Err(format!("instr {i} references param slot {p} out of range"));
                }
                _ => {}
            }
        }
        if !self.instrs.iter().any(|op| op.is_store()) && !self.instrs.is_empty() {
            return Err("kernel has no stores (dead kernel)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_numbering_dedupes_pure_ops() {
        let mut b = TapeBuilder::new("t");
        let c1 = b.emit(TapeOp::Const(CF(2.0)));
        let c2 = b.emit(TapeOp::Const(CF(2.0)));
        assert_eq!(c1, c2);
        let a1 = b.emit(TapeOp::Add(c1, c2));
        let a2 = b.emit(TapeOp::Add(c1, c2));
        assert_eq!(a1, a2);
        assert_eq!(b.instrs.len(), 2);
    }

    #[test]
    fn stores_are_never_value_numbered() {
        let mut b = TapeBuilder::new("t");
        let c = b.emit(TapeOp::Const(CF(1.0)));
        let s1 = b.emit(TapeOp::Store {
            field: 0,
            comp: 0,
            off: [0; 3],
            val: c,
        });
        let s2 = b.emit(TapeOp::Store {
            field: 0,
            comp: 0,
            off: [0; 3],
            val: c,
        });
        assert_ne!(s1, s2);
    }

    #[test]
    fn dce_removes_unused_chains() {
        let mut b = TapeBuilder::new("t");
        let c = b.emit(TapeOp::Const(CF(1.0)));
        let dead = b.emit(TapeOp::Add(c, c));
        let _dead2 = b.emit(TapeOp::Mul(dead, dead));
        let live = b.emit(TapeOp::Neg(c));
        b.emit(TapeOp::Store {
            field: 0,
            comp: 0,
            off: [0; 3],
            val: live,
        });
        let mut t = b.finish([0; 3]);
        t.dead_code_eliminate();
        assert_eq!(t.instrs.len(), 3); // const, neg, store
                                       // Registers were renumbered consistently.
        if let TapeOp::Store { val, .. } = t.instrs[2] {
            assert!(matches!(t.instrs[val.0 as usize], TapeOp::Neg(_)));
        } else {
            panic!("expected store last");
        }
    }

    #[test]
    fn dce_keeps_rand_and_store_roots_bitwise_intact() {
        // A store fed by a Rand, plus an unused Rand lane in between: DCE
        // must keep everything (lane indices encode positions in the
        // per-cell Philox stream) and leave the tape bitwise identical.
        let f = Field::new("tp_dce_rand", 1, 3);
        let mut b = TapeBuilder::new("t");
        let r0 = b.emit(TapeOp::Rand(0));
        let _unused = b.emit(TapeOp::Rand(1));
        let half = b.emit(TapeOp::Const(CF(0.5)));
        let v = b.emit(TapeOp::Mul(r0, half));
        let slot = b.field_slot(f);
        b.emit(TapeOp::Store {
            field: slot,
            comp: 0,
            off: [0; 3],
            val: v,
        });
        let t = b.finish([0; 3]);
        let mut after = t.clone();
        after.dead_code_eliminate();
        assert_eq!(after.instrs, t.instrs, "DCE mutated a Rand-rooted tape");
        assert_eq!(after.levels, t.levels);
    }

    #[test]
    fn structural_hash_separates_near_miss_tapes() {
        // The native backend keys compiled machine code — and the tuner its
        // decisions — on `structural_hash`. A near-miss tape silently
        // colliding would run the wrong kernel, so the classic close calls
        // must hash apart: swapped operands of a non-commutative op, and a
        // tape differing only in one constant.
        let f = Field::new("tp_hash_f", 1, 3);
        let build = |c1: f64, c2: f64, swap: bool| {
            let mut b = TapeBuilder::new("near_miss");
            let a = b.emit(TapeOp::Const(CF(c1)));
            let c = b.emit(TapeOp::Const(CF(c2)));
            let v = if swap {
                b.emit(TapeOp::Sub(c, a))
            } else {
                b.emit(TapeOp::Sub(a, c))
            };
            let slot = b.field_slot(f);
            b.emit(TapeOp::Store {
                field: slot,
                comp: 0,
                off: [0; 3],
                val: v,
            });
            b.finish([0; 3])
        };
        let base = build(1.0, 2.0, false);
        assert_eq!(
            base.structural_hash(),
            build(1.0, 2.0, false).structural_hash(),
            "identical construction must reproduce the hash"
        );
        assert_ne!(
            base.structural_hash(),
            build(1.0, 2.0, true).structural_hash(),
            "swapped Sub operands must hash apart"
        );
        assert_ne!(
            base.structural_hash(),
            build(1.0, 2.5, false).structural_hash(),
            "a differing constant must hash apart"
        );
        // Execution-relevant metadata is part of the fingerprint too.
        let mut reordered = base.clone();
        reordered.loop_order = [1, 2, 0];
        assert_ne!(base.structural_hash(), reordered.structural_hash());
        // Analysis-only contracts must NOT perturb the fingerprint: native
        // code and tuning caches key on it, and stamping contracts
        // after generation would otherwise invalidate every cached artifact.
        let mut contracted = base.clone();
        contracted.field_ranges = vec![Some((0.0, 1.0))];
        assert_eq!(
            base.structural_hash(),
            contracted.structural_hash(),
            "field range contracts are analysis-only metadata"
        );
        assert_eq!(contracted.field_range(0), Some((0.0, 1.0)));
        assert_eq!(contracted.field_range(7), None);
    }

    #[test]
    fn use_counts_are_per_argument() {
        let mut b = TapeBuilder::new("t");
        let c = b.emit(TapeOp::Const(CF(3.0)));
        b.emit(TapeOp::Mul(c, c));
        let t = b.finish([0; 3]);
        assert_eq!(t.use_counts()[0], 2);
    }
}
