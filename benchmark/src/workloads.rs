//! The four workloads. Names are fixed; later issues cite them.
//!
//! Lengths are a fixed function of `--seconds` (sized on the reference
//! host so the timed section lasts about that long), never of how fast the
//! program runs: two commits measured with the same `--seconds` do the
//! same work, so `wall_s` is a time to solution.

use pf_backend::ExecMode;
use pf_core::{ModelParams, Variant};

pub const NAMES: [&str; 4] = [
    "p1_block_native",
    "p2_block_interp",
    "p1_dist2_small",
    "p1_dist2_ckpt",
];

/// `--seconds` the lengths below are quoted for (`run_seconds` in
/// BENCHMARK.json).
pub const REFERENCE_SECONDS: f64 = 8.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    P1,
    P2,
}

#[derive(Clone, Debug)]
pub struct Block {
    pub shape: [usize; 3],
    pub warmup: usize,
    pub steps: usize,
    /// Untraced steps the traced run takes first, as the reference its
    /// replayed steps are compared with. Counted in `steps`.
    pub reference_steps: usize,
}

#[derive(Clone, Debug)]
pub struct Checkpointing {
    pub every: u64,
    pub full_every: u64,
}

#[derive(Clone, Debug)]
pub struct Dist {
    pub global: [usize; 3],
    pub overlap: bool,
    pub checkpoint: Option<Checkpointing>,
    /// Timed `run_distributed` calls and the steps of each.
    pub calls: usize,
    pub steps: usize,
    pub restores: usize,
    /// Untraced calls the traced run makes first (its reference).
    pub reference_calls: usize,
    /// Global size and steps of the 2-rank vs 1-rank-Serial gate.
    pub gate_global: [usize; 3],
    pub gate_steps: usize,
    /// Syncs of the isolated halo-exchange measurement.
    pub isolated_syncs: usize,
}

#[derive(Clone, Debug)]
pub enum Kind {
    Block(Block),
    Dist(Dist),
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: Model,
    /// The smoke stand-in of the model: 2-D, and only the liquid and one
    /// solid phase (generating 2-D P2 with all three still takes ~23 s).
    pub reduced: bool,
    pub phi_variant: Variant,
    pub mu_variant: Variant,
    pub mode: ExecMode,
    /// Cold set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Shape and steps of the engine-vs-Serial replica gate.
    pub replica: ([usize; 3], usize),
    pub kind: Kind,
}

impl Workload {
    pub fn params(&self) -> ModelParams {
        let mut p = match self.model {
            Model::P1 => pf_core::p1(),
            Model::P2 => pf_core::p2(),
        };
        if self.reduced {
            p.dim = 2;
            p.phases = 2;
            for rows in [&mut p.gamma, &mut p.tau, &mut p.a_coeff] {
                rows.truncate(2);
            }
            for row in p.gamma.iter_mut().chain(p.tau.iter_mut()) {
                row.truncate(2);
            }
            p.b_coeff.truncate(2);
            p.c_coeff.truncate(2);
            p.diffusivity.truncate(2);
            p.orientation.truncate(2);
        }
        p
    }

    /// Tapes a step executes, φ's first.
    pub fn executed_tapes<'a>(
        &self,
        ks: &'a pf_core::KernelSet,
    ) -> (Vec<&'a pf_ir::Tape>, Vec<&'a pf_ir::Tape>) {
        let pick = |v: Variant, full: &'a pf_ir::Tape, split: &'a pf_core::SplitTapes| match v {
            Variant::Full => vec![full],
            Variant::Split => split
                .flux_tapes
                .iter()
                .chain(std::iter::once(&split.update))
                .collect(),
        };
        (
            pick(self.phi_variant, &ks.phi_full, &ks.phi_split),
            pick(self.mu_variant, &ks.mu_full, &ks.mu_split),
        )
    }

    pub fn cells(&self) -> usize {
        let s = match &self.kind {
            Kind::Block(b) => b.shape,
            Kind::Dist(d) => d.global,
        };
        s[0] * s[1] * s[2]
    }
}

/// `per_second` repetitions per second of `--seconds`, at least `min`.
fn length(per_second: f64, seconds: f64, min: usize) -> usize {
    ((per_second * seconds).round() as usize).max(min)
}

pub fn workload(name: &str, seconds: f64, smoke: bool) -> Option<Workload> {
    let w = match name {
        "p1_block_native" => Workload {
            name: "p1_block_native",
            why: "compiled-code path on one large block: backend (native) is ~95 % of the step, \
                  codegen, grid and checkpointing almost nothing",
            model: Model::P1,
            reduced: false,
            phi_variant: Variant::Full,
            mu_variant: Variant::Split,
            mode: ExecMode::Native,
            setups: if smoke { 1 } else { 3 },
            replica: if smoke { ([8; 3], 2) } else { ([16; 3], 4) },
            kind: Kind::Block(if smoke {
                Block {
                    shape: [16; 3],
                    warmup: 2,
                    steps: 5,
                    reference_steps: 2,
                }
            } else {
                let steps = length(15.0, seconds, 100);
                Block {
                    shape: [48; 3],
                    warmup: 10,
                    steps,
                    reference_steps: steps / 3,
                }
            }),
        },
        "p2_block_interp" => Workload {
            name: "p2_block_interp",
            why: "same layers used differently: tape interpreter + plan cache, split phi kernel \
                  with staggered temporaries; set-up is the anisotropic codegen (~75 % of wall)",
            model: Model::P2,
            reduced: smoke,
            phi_variant: Variant::Split,
            mu_variant: Variant::Full,
            mode: ExecMode::Vectorized,
            setups: 1,
            replica: if smoke { ([8, 8, 1], 2) } else { ([16; 3], 4) },
            kind: Kind::Block(if smoke {
                Block {
                    shape: [16, 16, 1],
                    warmup: 2,
                    steps: 5,
                    reference_steps: 2,
                }
            } else {
                let steps = length(25.0, seconds, 100);
                Block {
                    shape: [32; 3],
                    warmup: 10,
                    steps,
                    reference_steps: steps / 3,
                }
            }),
        },
        "p1_dist2_small" => Workload {
            name: "p1_dist2_small",
            why: "fixed-cost regime (2 ranks, 16x16x8 blocks, overlapped batched exchange): \
                  region launches, thread start-up and exchange are ~40 % of the step",
            model: Model::P1,
            reduced: false,
            phi_variant: Variant::Full,
            mu_variant: Variant::Split,
            mode: ExecMode::Native,
            setups: if smoke { 1 } else { 3 },
            replica: if smoke { ([8; 3], 2) } else { ([16; 3], 4) },
            kind: Kind::Dist(if smoke {
                Dist {
                    global: [8; 3],
                    overlap: true,
                    checkpoint: None,
                    calls: 2,
                    steps: 5,
                    restores: 0,
                    reference_calls: 1,
                    gate_global: [8; 3],
                    gate_steps: 4,
                    isolated_syncs: 50,
                }
            } else {
                Dist {
                    global: [16; 3],
                    overlap: true,
                    checkpoint: None,
                    calls: length(1.25, seconds, 4),
                    steps: 300,
                    restores: 0,
                    reference_calls: 3,
                    gate_global: [16; 3],
                    gate_steps: 40,
                    isolated_syncs: 1000,
                }
            }),
        },
        "p1_dist2_ckpt" => Workload {
            name: "p1_dist2_ckpt",
            why: "only workload where checkpoint write, incremental diff, chain restore and \
                  48x48 face pack/unpack do real work; blocking exchange path",
            model: Model::P1,
            reduced: false,
            phi_variant: Variant::Full,
            mu_variant: Variant::Split,
            mode: ExecMode::Native,
            setups: if smoke { 1 } else { 3 },
            replica: if smoke { ([8; 3], 2) } else { ([16; 3], 4) },
            kind: Kind::Dist(if smoke {
                Dist {
                    global: [16; 3],
                    overlap: false,
                    checkpoint: Some(Checkpointing {
                        every: 3,
                        full_every: 4,
                    }),
                    calls: 2,
                    steps: 6,
                    restores: 2,
                    reference_calls: 1,
                    gate_global: [8; 3],
                    gate_steps: 6,
                    isolated_syncs: 50,
                }
            } else {
                Dist {
                    global: [48; 3],
                    overlap: false,
                    checkpoint: Some(Checkpointing {
                        every: 3,
                        full_every: 4,
                    }),
                    calls: length(0.625, seconds, 4),
                    steps: 24,
                    restores: 10,
                    reference_calls: 3,
                    gate_global: [24; 3],
                    gate_steps: 12,
                    isolated_syncs: 200,
                }
            }),
        },
        _ => return None,
    };
    Some(w)
}
