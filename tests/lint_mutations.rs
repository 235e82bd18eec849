//! Seeded-mutation suite for the pf-analyze v2 passes (interval dataflow
//! and the symbolic comm-protocol verifier): each bug class the lint layer
//! claims to catch is injected into otherwise-sound artifacts — real
//! generated kernels, the op list the distributed driver executes — and
//! must come back as exactly the advertised diagnostic code. This is the
//! soundness complement to the clean-run tests in `analyze_verifier.rs`:
//! those prove zero false positives, this file proves non-zero true
//! positives.

use pf_analyze::{
    check_comm_script, check_frontier, check_halo, check_protocol, render, CommOp, DiagKind,
    DimClass, FieldAlloc, ProtoEvent,
};
use pf_core::{
    dim_classes, step_ops, step_protocol_model, ModelParams, StepOp, TempModel, Variant,
};
use pf_grid::Decomposition;
use pf_ir::{GenOptions, Tape, TapeOp, VReg, CF};

/// The same minimal 2-phase / 2-component model pf-core's unit tests use:
/// heavy enough to produce real stencil kernels, light enough that the
/// mutation suite stays fast.
fn mini_model() -> ModelParams {
    ModelParams {
        name: "mini".into(),
        phases: 2,
        components: 2,
        dim: 2,
        dx: 1.0,
        dt: 0.01,
        eps: 3.0,
        gamma: vec![vec![0.0, 0.4], vec![0.4, 0.0]],
        gamma_third: 0.0,
        tau: vec![vec![0.0, 1.0], vec![1.0, 0.0]],
        diffusivity: vec![1.0, 0.1],
        a_coeff: vec![vec![-0.5], vec![-0.5]],
        b_coeff: vec![vec![(0.0, 0.05)], vec![(-0.3, 0.05)]],
        c_coeff: vec![(0.01, 0.0), (0.01, 0.0)],
        anisotropy: None,
        orientation: vec![0.0, 0.0],
        temperature: TempModel {
            t0: 1.0,
            gradient: 0.0,
            velocity: 0.0,
        },
        fluctuation_amplitude: 0.0,
        liquid_phase: 0,
        antitrapping: true,
        eta: 1e-9,
    }
}

fn codes(diags: &[pf_analyze::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.kind.code()).collect()
}

// --- Mutation: widened stencil ------------------------------------------

/// Widen one load of a generated kernel past the single exchanged ghost
/// layer (the classic "someone bumped the stencil order without bumping
/// GHOST_LAYERS" bug) — `halo.overflow`, as an error, locating the load.
#[test]
fn widened_stencil_overflows_the_halo() {
    let p = mini_model();
    let ks = pf_core::generate_kernels(&p, &GenOptions::default());
    let mut tape: Tape = ks.mu_full.clone();
    let idx = tape
        .instrs
        .iter()
        .position(|op| matches!(op, TapeOp::Load { off, .. } if off[0] == 1))
        .expect("mu_full has a +x neighbour load");
    let TapeOp::Load { off, .. } = &mut tape.instrs[idx] else {
        unreachable!()
    };
    off[0] = 2;

    let allocs = vec![FieldAlloc::ghosted(pf_grid::GHOST_LAYERS); tape.fields.len()];
    let d = check_halo(&tape, &allocs);
    assert!(
        d.iter().any(|d| {
            matches!(
                d.kind,
                DiagKind::HaloOverflow {
                    dim: 0,
                    reach: 2,
                    is_store: false,
                    ..
                }
            ) && d.instr == Some(idx)
                && d.is_error()
        }),
        "{}",
        render(&d)
    );
}

/// The same widened load makes the interior/frontier split of the
/// overlapped schedule unsound when the shells stay one cell wide:
/// `frontier.too-narrow` — the static form of the runtime check that
/// `dist.rs` demoted to a debug assertion.
#[test]
fn widened_stencil_breaks_the_frontier_split() {
    let p = mini_model();
    let ks = pf_core::generate_kernels(&p, &GenOptions::default());
    let allocs = vec![FieldAlloc::ghosted(pf_grid::GHOST_LAYERS); ks.mu_full.fields.len()];

    // Sound form: one-cell shells cover the one-cell stencil reach.
    let clean = check_frontier(&ks.mu_full, &allocs, [1, 1, 0], [1, 1, 0]);
    assert!(clean.is_empty(), "{}", render(&clean));

    // Narrowed shell: the interior now issues ghost reads mid-exchange.
    let d = check_frontier(&ks.mu_full, &allocs, [0, 1, 0], [1, 1, 0]);
    assert!(
        d.iter().any(|d| matches!(
            d.kind,
            DiagKind::FrontierTooNarrow {
                dim: 0,
                upper: false,
                needed: 1,
                given: 0,
                ..
            }
        ) && d.is_error()),
        "{}",
        render(&d)
    );
}

// --- Mutation: reused exchange epoch ------------------------------------

/// Issuing the second exchange of the step at the first one's epoch offset
/// (a begin copied without bumping its epoch) regresses the epoch sequence
/// — caught symbolically, for every rank count, on the executed op list
/// of the blocking and the overlapped schedule alike.
#[test]
fn reused_exchange_epoch_regresses_epochs() {
    let p = mini_model();
    let ks = pf_core::generate_kernels(&p, &GenOptions::default());
    let dims = dim_classes(&Decomposition::new([8, 8, 8], 8, [true; 3]));
    for overlap in [false, true] {
        let mut ops = step_ops(&ks.fields, Variant::Full, Variant::Full, overlap);
        assert!(
            check_protocol(&step_protocol_model(&ks, &ops, dims)).is_empty(),
            "baseline must be sound"
        );

        let dst_begin = ops
            .iter_mut()
            .filter_map(|op| match op {
                StepOp::BeginExchange { epoch, .. } => Some(epoch),
                _ => None,
            })
            .nth(1)
            .expect("the step begins two exchanges");
        *dst_begin = 0;
        let d = check_protocol(&step_protocol_model(&ks, &ops, dims));
        assert!(
            codes(&d).contains(&"protocol.epoch-regression"),
            "overlap={overlap}: {}",
            render(&d)
        );
    }
}

/// The raw-script form of the same bug class: a rank that posts its recv
/// before the matching send exists anywhere in the SPMD script deadlocks —
/// `protocol.deadlock` from the script checker directly.
#[test]
fn recv_before_send_is_a_deadlock() {
    let script = vec![
        CommOp::Recv {
            field: "phi".into(),
            dim: 2,
            epoch: 0,
        },
        CommOp::Send {
            field: "phi".into(),
            dim: 2,
            epoch: 0,
        },
    ];
    let d = check_comm_script("swapped", &script);
    assert!(codes(&d).contains(&"protocol.deadlock"), "{}", render(&d));
}

// --- Mutation: dropped finish_exchange ----------------------------------

/// Deleting the second finish from the executed op list leaves the φ_dst
/// exchange permanently in flight: `protocol.dropped-finish` at the
/// orphaned begin, plus the µ frontier reading mid-flight ghosts
/// (`protocol.frontier-before-finish`) — blocking and overlapped.
#[test]
fn dropped_finish_exchange_is_caught() {
    let p = mini_model();
    let ks = pf_core::generate_kernels(&p, &GenOptions::default());
    let dims = dim_classes(&Decomposition::new([8, 8, 8], 8, [true; 3]));
    for overlap in [false, true] {
        let mut ops = step_ops(&ks.fields, Variant::Full, Variant::Split, overlap);
        assert!(
            check_protocol(&step_protocol_model(&ks, &ops, dims)).is_empty(),
            "baseline must be sound"
        );

        let last_finish = ops
            .iter()
            .rposition(|op| *op == StepOp::FinishExchange)
            .expect("the step finishes its exchanges");
        ops.remove(last_finish);
        let d = check_protocol(&step_protocol_model(&ks, &ops, dims));
        let c = codes(&d);
        assert!(c.contains(&"protocol.dropped-finish"), "{}", render(&d));
        assert!(
            c.contains(&"protocol.frontier-before-finish"),
            "overlap={overlap}: {}",
            render(&d)
        );
    }
}

/// A frontier sweep reading ghosts that no exchange ever refreshed this
/// step: `protocol.stale-ghost`.
#[test]
fn never_exchanged_ghost_read_is_stale() {
    let m = pf_analyze::ProtocolModel {
        name: "stale".into(),
        dims: [DimClass {
            divided: true,
            periodic: true,
        }; 3],
        epoch_stride: 4,
        events: vec![ProtoEvent::Frontier {
            ghost_reads: vec!["phi".into()],
            writes: vec![],
        }],
    };
    let d = check_protocol(&m);
    assert!(
        codes(&d).contains(&"protocol.stale-ghost"),
        "{}",
        render(&d)
    );
}

// --- Mutation: unbounded divisor ----------------------------------------

/// Strip the range contract from a divisor field: the interval pass can no
/// longer bound it away from zero and must warn `interval.div-maybe-zero`;
/// restoring the contract silences it. This is the exact regression the
/// contract plumbing in `generate_kernels` exists to prevent.
#[test]
fn unbounded_divisor_warns_until_contracted() {
    let src = pf_symbolic::Field::new("mut_div_src", 1, 3);
    let out = pf_symbolic::Field::new("mut_div_out", 1, 3);
    let mut tape = Tape {
        name: "div_mut".into(),
        fields: vec![src, out],
        params: Vec::new(),
        instrs: vec![
            TapeOp::Const(CF(1.0)),
            TapeOp::Load {
                field: 0,
                comp: 0,
                off: [0; 3],
            },
            TapeOp::Div(VReg(0), VReg(1)),
            TapeOp::Store {
                field: 1,
                comp: 0,
                off: [0; 3],
                val: VReg(2),
            },
        ],
        iter_extent: [0; 3],
        levels: vec![3; 4],
        loop_order: [2, 1, 0],
        approx: pf_ir::ApproxOptions::default(),
        field_ranges: Vec::new(), // mutation: contract dropped
    };

    let d = pf_analyze::check_intervals(&tape);
    assert!(
        d.iter()
            .any(|d| matches!(d.kind, DiagKind::IntervalDivMaybeZero { .. })
                && d.instr == Some(2)
                && !d.is_error()),
        "{}",
        render(&d)
    );

    tape.field_ranges = vec![Some((0.5, 2.0)), None];
    let d = pf_analyze::check_intervals(&tape);
    assert!(
        d.is_empty(),
        "contracted divisor must be clean: {}",
        render(&d)
    );
}

/// A divisor *provably* zero on its whole contracted range is an error,
/// not a warning — the lint gate (and the pipeline hook) must fail it.
#[test]
fn provably_zero_divisor_is_an_error() {
    let src = pf_symbolic::Field::new("mut_zero_src", 1, 3);
    let out = pf_symbolic::Field::new("mut_zero_out", 1, 3);
    let tape = Tape {
        name: "zero_mut".into(),
        fields: vec![src, out],
        params: Vec::new(),
        instrs: vec![
            TapeOp::Const(CF(1.0)),
            TapeOp::Load {
                field: 0,
                comp: 0,
                off: [0; 3],
            },
            TapeOp::Div(VReg(0), VReg(1)),
            TapeOp::Store {
                field: 1,
                comp: 0,
                off: [0; 3],
                val: VReg(2),
            },
        ],
        iter_extent: [0; 3],
        levels: vec![3; 4],
        loop_order: [2, 1, 0],
        approx: pf_ir::ApproxOptions::default(),
        field_ranges: vec![Some((0.0, 0.0)), None],
    };
    let d = pf_analyze::check_intervals(&tape);
    assert!(
        d.iter()
            .any(|d| matches!(d.kind, DiagKind::IntervalDivByZero) && d.is_error()),
        "{}",
        render(&d)
    );
}
