//! Single-block simulation driver — Algorithm 1.
//!
//! ```text
//! 1: φ_dst ← φ-kernel(φ_src^D3C7, µ_src^D3C1)      "φ-full" or "φ-split"
//! 2: φ_dst ← communication and boundary handling
//! 3: µ_dst ← µ-kernel(µ_src^D3C7, φ_src^D3C19, φ_dst^D3C19)
//! 4: µ_dst ← communication and boundary handling
//! 5: swap φ_src ↔ φ_dst and µ_src ↔ µ_dst
//! ```
//!
//! plus the Gibbs-simplex projection the obstacle potential requires. The
//! distributed (multi-rank) variant lives in `dist.rs`; this driver covers
//! one block with periodic/Neumann boundaries.

use crate::kernels::{KernelSet, SplitTapes};
use crate::params::ModelParams;
use crate::tune::Family;
use pf_backend::{ExecMode, FieldStore, IterRegion, Launch, RunCtx};
use pf_fields::{FieldArray, Layout};
use pf_ir::Tape;
use pf_symbolic::Field;

/// Which kernel variant to run for a field update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Full,
    Split,
}

impl Variant {
    /// The byte a variant is stored as in checkpoints and tuning-cache
    /// entries.
    pub(crate) fn code(self) -> u8 {
        match self {
            Variant::Full => 0,
            Variant::Split => 1,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Variant> {
        [Variant::Full, Variant::Split]
            .into_iter()
            .find(|v| v.code() == code)
    }
}

/// Boundary condition per dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcKind {
    Periodic,
    /// Zero-gradient.
    Neumann,
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub shape: [usize; 3],
    pub phi_variant: Variant,
    pub mu_variant: Variant,
    pub mode: ExecMode,
    pub bc: [BcKind; 3],
    pub seed: u32,
}

impl SimConfig {
    pub fn new(shape: [usize; 3]) -> Self {
        SimConfig {
            shape,
            phi_variant: Variant::Full,
            mu_variant: Variant::Split,
            // Strip-mined vectorized execution when the block is wide
            // enough (bitwise identical to Serial, just faster);
            // overridable via PF_EXEC_MODE.
            mode: crate::select::default_exec_mode(shape),
            bc: [BcKind::Periodic, BcKind::Periodic, BcKind::Neumann],
            seed: 42,
        }
    }
}

/// A running single-block simulation.
pub struct Simulation {
    pub params: ModelParams,
    pub kernels: KernelSet,
    pub cfg: SimConfig,
    pub store: FieldStore,
    pub step_count: u64,
    /// Global origin of this block (nonzero in distributed runs).
    pub origin: [i64; 3],
    /// The launches of `kernels`' tapes, `[family][variant]`: bound to
    /// `store` under the `cfg.mode` they are stamped with when the step
    /// first sweeps that kernel, and only called from then on.
    launches: [[Option<BoundKernel>; 2]; 2],
}

/// One kernel's launches, fluxes before the update, and the `cfg.mode`
/// they were bound under.
type BoundKernel = (ExecMode, Vec<Launch>);

impl Simulation {
    /// Allocate all field storage ([`pf_grid::GHOST_LAYERS`] ghost layers —
    /// the kernels are compact, and pf-analyze's footprint pass proves they
    /// fit) and initialize φ to pure liquid, µ to zero.
    pub fn new(params: ModelParams, kernels: KernelSet, cfg: SimConfig) -> Simulation {
        let mut store = FieldStore::new();
        let f = kernels.fields;
        for field in [f.phi_src, f.phi_dst, f.mu_src, f.mu_dst] {
            store.allocate(field, cfg.shape, pf_grid::GHOST_LAYERS, Layout::Fzyx);
        }
        // Staggered temporaries: +1 cell per dimension, no ghosts.
        let stag_shape = [
            cfg.shape[0] + 1,
            cfg.shape[1] + 1,
            if params.dim == 3 {
                cfg.shape[2] + 1
            } else {
                cfg.shape[2]
            },
        ];
        for sf in [kernels.phi_split.stag_field, kernels.mu_split.stag_field] {
            let arr = FieldArray::new(&sf.name(), stag_shape, sf.components(), 0, Layout::Fzyx);
            store.insert(sf, arr);
        }
        let mut sim = Simulation {
            params,
            kernels,
            cfg,
            store,
            step_count: 0,
            origin: [0; 3],
            launches: Default::default(),
        };
        // Pure liquid, µ = 0 everywhere.
        let liquid = sim.params.liquid_phase;
        for alpha in 0..sim.params.phases {
            let v = if alpha == liquid { 1.0 } else { 0.0 };
            sim.store.get_mut(f.phi_src).fill_with(alpha, |_, _, _| v);
        }
        sim
    }

    /// Set φ from a per-cell closure returning the phase vector.
    pub fn init_phi(&mut self, f: impl FnMut(usize, usize, usize) -> Vec<f64>) {
        let field = self.kernels.fields.phi_src;
        self.init_field(field, f);
        self.project_simplex(field);
    }

    /// Set µ from a per-cell closure.
    pub fn init_mu(&mut self, f: impl FnMut(usize, usize, usize) -> Vec<f64>) {
        self.init_field(self.kernels.fields.mu_src, f);
    }

    /// Set every interior cell of `field` to the component vector `f`
    /// returns for it, asking in z, y, x-fastest order. The values are
    /// staged in [`FieldArray::read_box`] order, so the array is only
    /// written.
    fn init_field(&mut self, field: Field, mut f: impl FnMut(usize, usize, usize) -> Vec<f64>) {
        let arr = self.store.get_mut(field);
        let [nx, ny, _] = arr.shape();
        let (cells, comps) = (arr.interior().cells(), arr.components());
        let mut vals = vec![0.0; comps * cells];
        for i in 0..cells {
            let v = f(i % nx, i / nx % ny, i / (nx * ny));
            assert_eq!(v.len(), comps, "{} components per cell", arr.name());
            for (c, val) in v.iter().enumerate() {
                vals[c * cells + i] = *val;
            }
        }
        arr.write_box(arr.interior(), &vals);
    }

    /// Apply the configured boundary conditions to one field's ghosts.
    pub fn apply_bc(&mut self, field: Field) {
        let bc = self.cfg.bc;
        let arr = self.store.get_mut(field);
        for (d, kind) in bc.iter().enumerate() {
            match kind {
                BcKind::Periodic => arr.apply_periodic(d),
                BcKind::Neumann => arr.apply_neumann(d),
            }
        }
    }

    /// The execution context of the *next* step.
    pub fn ctx(&self) -> RunCtx {
        RunCtx {
            time: self.step_count as f64 * self.params.dt,
            timestep: self.step_count,
            dx: [self.params.dx; 3],
            origin: self.origin,
            seed: self.cfg.seed,
        }
    }

    /// Run one tape — any tape, not only one of `kernels` — over this block:
    /// bind, run once.
    pub fn run(&mut self, tape: &Tape) {
        let region = IterRegion::full(pf_backend::extended_range(tape, self.cfg.shape));
        self.run_region(tape, region);
    }

    /// [`Self::run`] over a sub-region of the tape's extended iteration
    /// range; cell semantics are keyed on absolute indices, so the union of
    /// region launches is bitwise identical to one full launch.
    pub fn run_region(&mut self, tape: &Tape, region: IterRegion) {
        let ctx = self.ctx();
        pf_backend::run_kernel_region(
            tape,
            &mut self.store,
            &[],
            self.cfg.shape,
            region,
            &ctx,
            self.cfg.mode,
        );
    }

    /// Run a split kernel (face passes, then the update pass).
    pub fn run_split(&mut self, split: &SplitTapes) {
        for t in &split.flux_tapes {
            self.run(t);
        }
        self.run(&split.update);
    }

    /// Run one family's kernel: each of its tapes, fluxes before the
    /// update, over the regions `regions` picks of that tape's extended
    /// iteration range. The tapes' launches are bound on first use and
    /// again when `cfg.mode` was reassigned; every other call only runs
    /// them. The overlapped distributed schedule sweeps the interior while
    /// halo messages are in flight and the frontier shells after the
    /// receives complete.
    pub(crate) fn sweep(
        &mut self,
        family: Family,
        variant: Variant,
        mut regions: impl FnMut([usize; 3]) -> Vec<IterRegion>,
    ) {
        let ctx = self.ctx();
        let mode = self.cfg.mode;
        let bound = &mut self.launches[family as usize][variant.code() as usize];
        if bound.as_ref().is_none_or(|(m, _)| *m != mode) {
            let tapes = self.kernels.tapes(family, variant);
            let bind = |t: &Tape| Launch::bind_or_fall_back(t, &self.store, self.cfg.shape, mode);
            *bound = Some((mode, tapes.into_iter().map(bind).collect()));
        }
        for launch in &mut bound.as_mut().expect("bound above").1 {
            for region in regions(launch.extended_range()) {
                launch.run(&mut self.store, &[], region, &ctx);
            }
        }
    }

    /// Gibbs-simplex projection: clamp φ_α to [0, 1] and renormalize the
    /// sum to 1 (the obstacle potential is +∞ outside the simplex; the
    /// standard treatment projects after each explicit step).
    pub fn project_simplex(&mut self, field: Field) {
        let liquid = self.params.liquid_phase;
        let arr = self.store.get_mut(field);
        let cells = arr.interior().cells();
        let mut vals = arr.read_interior();
        let mut cell = vec![0.0; arr.components()];
        for i in 0..cells {
            for (a, v) in cell.iter_mut().enumerate() {
                *v = vals[a * cells + i].clamp(0.0, 1.0);
            }
            let sum: f64 = cell.iter().sum();
            // A degenerate cell (nothing left after clamping) becomes pure
            // liquid.
            for (a, v) in cell.iter().enumerate() {
                vals[a * cells + i] = if sum > 1e-12 {
                    v / sum
                } else if a == liquid {
                    1.0
                } else {
                    0.0
                };
            }
        }
        arr.write_box(arr.interior(), &vals);
    }

    /// One timestep of Algorithm 1.
    pub fn step(&mut self) {
        let f = self.kernels.fields;
        // Ghost layers / boundary handling on the sources.
        self.apply_bc(f.phi_src);
        self.apply_bc(f.mu_src);

        // One block, nothing in flight: every tape runs its whole range.
        let whole = |ext| vec![IterRegion::full(ext)];

        // 1: φ update.
        self.sweep(Family::Phi, self.cfg.phi_variant, whole);
        self.project_simplex(f.phi_dst);
        // 2: boundary handling on φ_dst (the µ kernel reads its neighbours).
        self.apply_bc(f.phi_dst);

        // 3: µ update.
        self.sweep(Family::Mu, self.cfg.mu_variant, whole);

        // 5: swap.
        self.store.swap(f.phi_src, f.phi_dst);
        self.store.swap(f.mu_src, f.mu_dst);
        self.step_count += 1;
    }

    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    pub fn phi(&self) -> &FieldArray {
        self.store.get(self.kernels.fields.phi_src)
    }

    pub fn mu(&self) -> &FieldArray {
        self.store.get(self.kernels.fields.mu_src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::generate_kernels;
    use pf_ir::GenOptions;

    fn mini_sim(shape: [usize; 3]) -> Simulation {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let mut cfg = SimConfig::new(shape);
        cfg.bc = [BcKind::Periodic; 3];
        Simulation::new(p, ks, cfg)
    }

    fn seed_circle(sim: &mut Simulation, r: f64) {
        let shape = sim.cfg.shape;
        let (cx, cy) = (shape[0] as f64 / 2.0, shape[1] as f64 / 2.0);
        let eps = sim.params.eps;
        sim.init_phi(|x, y, _| {
            let d = (((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt() - r) / eps;
            let solid = 0.5 * (1.0 - (d).tanh());
            vec![1.0 - solid, solid]
        });
        sim.init_mu(|_, _, _| vec![0.0]);
    }

    #[test]
    fn simplex_invariants_hold_over_steps() {
        let mut sim = mini_sim([16, 16, 1]);
        seed_circle(&mut sim, 5.0);
        sim.run_steps(10);
        let phi = sim.phi();
        for y in 0..16isize {
            for x in 0..16isize {
                let a = phi.get(0, x, y, 0);
                let b = phi.get(1, x, y, 0);
                assert!((0.0..=1.0).contains(&a), "phi0 out of range: {a}");
                assert!((0.0..=1.0).contains(&b), "phi1 out of range: {b}");
                assert!((a + b - 1.0).abs() < 1e-12, "sum violated: {}", a + b);
            }
        }
    }

    /// The projection as it was written per cell (one `Vec` each), kept as
    /// the reference for the row-walking one.
    fn project_cell_reference(arr: &mut FieldArray, liquid: usize, [x, y, z]: [isize; 3]) {
        let n = arr.components();
        let mut vals: Vec<f64> = (0..n)
            .map(|a| arr.get(a, x, y, z).clamp(0.0, 1.0))
            .collect();
        let sum: f64 = vals.iter().sum();
        if sum > 1e-12 {
            for v in vals.iter_mut() {
                *v /= sum;
            }
        } else {
            for (a, v) in vals.iter_mut().enumerate() {
                *v = if a == liquid { 1.0 } else { 0.0 };
            }
        }
        for (a, v) in vals.iter().enumerate() {
            arr.set(a, x, y, z, *v);
        }
    }

    #[test]
    fn projection_matches_the_per_cell_reference_bitwise() {
        let mut sim = mini_sim([7, 5, 2]);
        let field = sim.kernels.fields.phi_dst;
        // Out-of-simplex, negative, all-zero and sub-threshold cells.
        let raw = |x: usize, y: usize, z: usize| match (x + 3 * y + 5 * z) % 6 {
            0 => [0.0, 0.0],
            1 => [1.7, 0.4],
            2 => [-0.3, 0.25],
            3 => [-1.0, -2.0],
            4 => [1e-13, 0.0],
            _ => [0.1 * x as f64, 0.37],
        };
        for a in 0..2 {
            sim.store
                .get_mut(field)
                .fill_with(a, |x, y, z| raw(x, y, z)[a]);
        }
        let mut want = sim.store.get(field).clone();
        for z in 0..2 {
            for y in 0..5 {
                for x in 0..7 {
                    project_cell_reference(&mut want, sim.params.liquid_phase, [x, y, z]);
                }
            }
        }
        sim.project_simplex(field);
        assert_eq!(sim.store.get(field).data(), want.data());
    }

    #[test]
    fn small_circle_shrinks_under_curvature() {
        let mut sim = mini_sim([32, 32, 1]);
        seed_circle(&mut sim, 8.0);
        let before = sim.phi().interior_sum(1);
        sim.run_steps(100);
        let after = sim.phi().interior_sum(1);
        assert!(
            after < before * 0.98,
            "curvature flow should shrink the solid: {before} → {after}"
        );
        // And nothing blew up.
        assert!(after.is_finite() && after >= 0.0);
    }

    #[test]
    fn full_and_split_variants_agree() {
        let run = |phi_v: Variant, mu_v: Variant| {
            let mut sim = mini_sim([12, 12, 1]);
            sim.cfg.phi_variant = phi_v;
            sim.cfg.mu_variant = mu_v;
            seed_circle(&mut sim, 4.0);
            sim.run_steps(5);
            (sim.phi().clone(), sim.mu().clone())
        };
        let (phi_ff, mu_ff) = run(Variant::Full, Variant::Full);
        let (phi_ss, mu_ss) = run(Variant::Split, Variant::Split);
        let dphi = phi_ff.max_abs_diff(&phi_ss);
        let dmu = mu_ff.max_abs_diff(&mu_ss);
        assert!(dphi < 1e-12, "phi variants diverge: {dphi}");
        assert!(dmu < 1e-12, "mu variants diverge: {dmu}");
    }

    #[test]
    fn serial_and_vectorized_steps_agree() {
        let run = |modes: [ExecMode; 3]| {
            let mut sim = mini_sim([12, 12, 1]);
            seed_circle(&mut sim, 4.0);
            for mode in modes {
                sim.cfg.mode = mode;
                sim.step();
            }
            sim
        };
        let a = run([ExecMode::Serial; 3]);
        let b = run([ExecMode::Vectorized; 3]);
        assert_eq!(a.phi().max_abs_diff(b.phi()), 0.0);
        // Reassigning the engine between steps rebinds the launches the
        // next step runs, and leaves the same bits.
        let c = run([ExecMode::Serial, ExecMode::Serial, ExecMode::Vectorized]);
        assert_eq!(a.phi().max_abs_diff(c.phi()), 0.0);
        let bound = |sim: &Simulation| -> Vec<ExecMode> {
            let phi = &sim.launches[Family::Phi as usize][sim.cfg.phi_variant.code() as usize];
            let (_, launches) = phi.as_ref().expect("stepped");
            launches.iter().map(Launch::mode).collect()
        };
        assert!(bound(&a).iter().all(|m| *m == ExecMode::Serial));
        assert!(bound(&c).iter().all(|m| *m == ExecMode::Vectorized));
    }

    #[test]
    fn a_steady_state_step_binds_nothing() {
        if !pf_trace::enabled() {
            return;
        }
        let p = crate::kernels::tests::mini_model();
        let mut ks = generate_kernels(&p, &GenOptions::default());
        // pf-trace's registry is process-wide and other tests launch the
        // same kernels concurrently: count under names only this test uses.
        for tape in crate::kernels::all_tapes_mut(&mut ks) {
            tape.name = format!("bindonce_{}", tape.name);
        }
        let mut cfg = SimConfig::new([12, 12, 1]);
        cfg.bc = [BcKind::Periodic; 3];
        let mut sim = Simulation::new(p, ks, cfg);
        seed_circle(&mut sim, 4.0);
        let binds = |sim: &Simulation| -> Vec<(String, u64)> {
            let count = |t: &&Tape| {
                let n = pf_trace::counter(&format!("exec.bind.{}", t.name)).value();
                (t.name.clone(), n)
            };
            sim.kernels.all_tapes().iter().map(count).collect()
        };
        sim.step();
        // One bind per tape of the configured variants, none of the others.
        let stepped: Vec<&Tape> = [
            sim.kernels.tapes(Family::Phi, sim.cfg.phi_variant),
            sim.kernels.tapes(Family::Mu, sim.cfg.mu_variant),
        ]
        .concat();
        let first = binds(&sim);
        for (name, n) in &first {
            let want = stepped.iter().any(|t| t.name == *name) as u64;
            assert_eq!(*n, want, "{name}");
        }
        sim.run_steps(4);
        assert_eq!(binds(&sim), first, "only the first step binds");
    }

    #[test]
    fn planar_front_grows_with_driving_force() {
        // Undercooled liquid (µ favouring solid): a planar front advances.
        let mut sim = mini_sim([24, 8, 1]);
        let eps = sim.params.eps;
        sim.init_phi(|x, _, _| {
            let d = (x as f64 - 6.0) / eps;
            let solid = 0.5 * (1.0 - d.tanh());
            vec![1.0 - solid, solid]
        });
        sim.init_mu(|_, _, _| vec![0.4]);
        let before = sim.phi().interior_sum(1);
        sim.run_steps(120);
        let after = sim.phi().interior_sum(1);
        assert!(
            after > before * 1.01,
            "front should advance into undercooled melt: {before} → {after}"
        );
    }
}
