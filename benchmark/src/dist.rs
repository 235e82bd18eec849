//! The 2-rank workloads: whole `run_distributed` calls in a closed loop,
//! one caller; the ranks are the program's own threads.

use crate::codegen::{self, Generated, FAMILIES};
use crate::layers::{self, Traced};
use crate::report::{Gate, Metric, Outcome};
use crate::run::{common_metrics, final_state_gate, fold_interior, height, lamellae, summarize};
use crate::run::{Ctx, StateSummary};
use crate::spans::SpanLog;
use crate::stats::{median, sorted};
use crate::workloads::{Dist, Workload};
use pf_backend::ExecMode;
use pf_core::checkpoint::{self, IncrementalBase, RankMeta};
use pf_core::dist::{run_distributed, CheckpointConfig, DistConfig};
use pf_core::{KernelSet, ModelParams, Simulation};
use pf_fields::{FieldArray, Layout};
use pf_grid::{CommOptions, Decomposition, GHOST_LAYERS};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

fn config(w: &Workload, global: [usize; 3], ranks: usize, overlap: bool, seed: u64) -> DistConfig {
    let mut cfg = DistConfig::new(global, ranks);
    cfg.comm.overlap = overlap;
    cfg.phi_variant = w.phi_variant;
    cfg.mu_variant = w.mu_variant;
    cfg.seed = seed as u32;
    cfg.exec_mode = Some(w.mode);
    cfg.tune_exec = false;
    cfg.comm.batch = true;
    cfg
}

/// One `run_distributed` call from the seeded initial condition.
fn call<R: Send + 'static>(
    p: &ModelParams,
    ks: &KernelSet,
    cfg: &DistConfig,
    steps: usize,
    finish: impl Fn(&Simulation) -> R + Sync,
) -> Vec<R> {
    let ic = lamellae(p, cfg.seed as u64, cfg.global, true);
    run_distributed(
        p,
        ks,
        cfg,
        steps,
        |x, y, z| ic.phi(x, height(p, y, z)),
        |_, _, _| ic.mu(),
        finish,
    )
}

/// The global field after `steps` steps, gathered from the ranks: bits in
/// (component, z, y, x) order.
fn gather(p: &ModelParams, ks: &KernelSet, cfg: &DistConfig, steps: usize) -> Vec<u64> {
    let parts = call(p, ks, cfg, steps, |sim| {
        let mut bits = Vec::new();
        fold_interior(sim, |b| bits.push(b));
        (sim.origin, sim.cfg.shape, bits)
    });
    let g = cfg.global;
    let comps = p.phases + p.num_mu();
    let mut out = vec![0u64; comps * g[0] * g[1] * g[2]];
    for (origin, shape, bits) in parts {
        let mut it = bits.into_iter();
        for c in 0..comps {
            for z in 0..shape[2] {
                for y in 0..shape[1] {
                    for x in 0..shape[0] {
                        let at = [0, 1, 2].map(|d| origin[d] as usize + [x, y, z][d]);
                        out[((c * g[2] + at[2]) * g[1] + at[1]) * g[0] + at[0]] =
                            it.next().expect("a rank's interior");
                    }
                }
            }
        }
    }
    out
}

fn bitwise(name: &str, what: String, same: bool) -> Gate {
    Gate::from(
        name,
        if same {
            Ok(format!("{what}: bitwise equal"))
        } else {
            Err(format!("{what}: fields differ"))
        },
    )
}

/// Gates (b) and (c): the workload's configuration against the Serial
/// engine, and against one rank stepping the same global problem with the
/// blocking exchange and the Serial engine.
fn equivalence_gates(ctx: &Ctx, d: &Dist, gen: &Generated, out: &mut Outcome) {
    let (w, p, ks) = (ctx.w, ctx.w.params(), &gen.kernels);
    let (shape, steps) = w.replica;
    let ours = config(w, shape, 2, d.overlap, ctx.seed);
    let mut serial = ours.clone();
    serial.exec_mode = Some(ExecMode::Serial);
    out.gates.push(bitwise(
        "engine_vs_serial",
        format!(
            "{:?} vs Serial, 2 ranks on {shape:?}, {steps} steps",
            w.mode
        ),
        gather(&p, ks, &ours, steps) == gather(&p, ks, &serial, steps),
    ));

    let mut ours = config(w, d.gate_global, 2, d.overlap, ctx.seed);
    let mut one = config(w, d.gate_global, 1, false, ctx.seed);
    one.exec_mode = Some(ExecMode::Serial);
    let got = match &d.checkpoint {
        None => gather(&p, ks, &ours, d.gate_steps),
        Some(c) => {
            // Checkpoint, stop half way, resume from the set on disk.
            let dir = ctx.ckpt_root.join("gate");
            let ck = CheckpointConfig::new(&dir)
                .every(c.every)
                .full_every(c.full_every);
            ours.checkpoint = Some(ck.clone());
            gather(&p, ks, &ours, d.gate_steps / 2);
            ours.checkpoint = Some(ck.resume(true));
            let got = gather(&p, ks, &ours, d.gate_steps);
            let _ = std::fs::remove_dir_all(&dir);
            got
        }
    };
    out.gates.push(bitwise(
        "ranks2_vs_rank1_serial",
        format!(
            "2 ranks{} vs 1 rank blocking Serial on {:?}, {} steps",
            if d.checkpoint.is_some() {
                " with a checkpoint-then-resume half way"
            } else {
                ""
            },
            d.gate_global,
            d.gate_steps
        ),
        got == gather(&p, ks, &one, d.gate_steps),
    ));
}

/// Median seconds of one batched halo sync of the workload's fields
/// between two ranks that do nothing else; the slower rank's median.
fn exchange_isolated_us(p: &ModelParams, global: [usize; 3], syncs: usize) -> f64 {
    let dec = Decomposition::new(global, 2, [true; 3]);
    let medians = Mutex::new(Vec::new());
    pf_grid::run_ranks(2, |mut comm| {
        let shape = dec.block(comm.rank()).shape;
        let mut arrs: Vec<FieldArray> = [p.phases, p.num_mu()]
            .iter()
            .map(|&comps| {
                let mut a = FieldArray::new("isolated", shape, comps, GHOST_LAYERS, Layout::Fzyx);
                a.fill(0.25);
                a
            })
            .collect();
        let mut times = Vec::with_capacity(syncs);
        for epoch in 0..syncs as u64 {
            let t = Instant::now();
            let mut batch: Vec<&mut FieldArray> = arrs.iter_mut().collect();
            pf_grid::exchange_halo_batched(
                &mut comm,
                &dec,
                &mut batch,
                epoch,
                CommOptions::default(),
            );
            times.push(t.elapsed().as_secs_f64());
        }
        medians
            .lock()
            .expect("no rank panicked")
            .push(median(&times));
    });
    let slower = medians
        .into_inner()
        .expect("no rank panicked")
        .into_iter()
        .fold(0.0, f64::max);
    slower * 1e6
}

/// Pack plus unpack rate of the face the two ranks exchange (phi's
/// components), MB/s.
fn pack_face_mb_s(p: &ModelParams, block: [usize; 3], split_dim: usize) -> f64 {
    let mut arr = FieldArray::new("face", block, p.phases, GHOST_LAYERS, Layout::Fzyx);
    arr.fill(0.25);
    let rates: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let buf = pf_grid::pack_face(&arr, split_dim, 1);
            pf_grid::unpack_face(&mut arr, split_dim, -1, &buf);
            (2 * buf.len() * 8) as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// Milliseconds to encode one rank's block, as a full snapshot and as an
/// increment three steps later.
fn checkpoint_encode_ms(ctx: &Ctx, block: [usize; 3], gen: &Generated) -> (f64, f64) {
    let p = ctx.w.params();
    let mut sim = crate::run::block_sim(ctx.w, &p, &gen.kernels, block, ctx.w.mode, ctx.seed);
    let meta = RankMeta::single(block);
    let time_ms = |f: &dyn Fn() -> usize| {
        let t: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&t)
    };
    let full = time_ms(&|| checkpoint::encode(&sim, &meta).len());
    let base = IncrementalBase::capture(&sim);
    sim.run_steps(3);
    let inc = time_ms(&|| checkpoint::encode_incremental(&sim, &meta, &base).len());
    (full, inc)
}

pub fn run(ctx: &Ctx, d: &Dist, out: &mut Outcome) {
    let w = ctx.w;
    let p = w.params();
    let mut log = SpanLog::new(ctx.traced);
    pf_trace::set_enabled(false);
    let base = config(w, d.global, 2, d.overlap, ctx.seed);
    let checkpointed = |dir: &Path| {
        d.checkpoint.as_ref().map(|c| {
            CheckpointConfig::new(dir)
                .every(c.every)
                .full_every(c.full_every)
        })
    };

    // ---- set-up: generation, then a one-step call that compiles and
    // loads the kernels, allocates and initialises ---------------------------
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..if ctx.traced { 1 } else { w.setups } {
        let open = log.enter("setup");
        let gen = if ctx.traced {
            codegen::generate_replayed(&p, &mut log)
        } else {
            codegen::generate(&p, &mut log)
        };
        log.time("core.run_distributed(first step)", || {
            call(&p, &gen.kernels, &base, 1, |_| ())
        });
        setup_s.push(log.exit(open));
        out.attempted += FAMILIES;
        kept = Some(gen);
    }
    let gen = kept.expect("at least one set-up");
    let ks = &gen.kernels;

    // ---- warm-up call -----------------------------------------------------
    let warm_dir = ctx.ckpt_root.join("warmup");
    let mut warm = base.clone();
    warm.checkpoint = checkpointed(&warm_dir);
    let warmup_s = log
        .time("warmup", || call(&p, ks, &warm, d.steps, |_| ()))
        .1;

    // ---- timed calls ------------------------------------------------------
    let sets_per_call = d
        .checkpoint
        .as_ref()
        .map_or(0, |c| (d.steps as u64).div_ceil(c.every));
    let mut last_dir = warm_dir.clone();
    let mut final_state: Vec<StateSummary> = Vec::new();
    let mut timed_call = |i: usize, log: &mut SpanLog, cfg: &DistConfig| {
        let dir = ctx.ckpt_root.join(format!("call{i}"));
        let mut cfg = cfg.clone();
        cfg.checkpoint = checkpointed(&dir);
        log.rep = i as u64 + 1;
        let (state, s) = log.time("core.run_distributed", || {
            call(&p, ks, &cfg, d.steps, summarize)
        });
        log.rep = 0;
        if cfg.checkpoint.is_some() {
            // Keep only the newest call's sets (the restores read them).
            let _ = std::fs::remove_dir_all(&last_dir);
            last_dir = dir;
        }
        final_state = state;
        s
    };
    // The traced run spreads its untraced reference calls evenly among the
    // traced ones: the first calls after the warm-up run ~5 % slower than
    // the later ones, which a reference taken first would book as negative
    // tracing overhead.
    let total = if ctx.traced {
        d.reference_calls + d.calls
    } else {
        d.calls
    };
    let is_reference = |i: usize| {
        !ctx.traced || (1..=d.reference_calls).any(|j| i == j * total / (d.reference_calls + 1))
    };
    let mut call_s = Vec::new();
    let mut traced_call_s = Vec::new();
    if ctx.traced {
        pf_trace::set_enabled(true);
        pf_trace::reset();
    }
    for i in 0..total {
        pf_trace::set_enabled(!is_reference(i));
        let s = timed_call(i, &mut log, &base);
        if is_reference(i) {
            call_s.push(s);
        } else {
            traced_call_s.push(s);
        }
    }
    let snapshot = ctx.traced.then(pf_trace::snapshot);
    pf_trace::set_enabled(false);
    // The calls alone: clearing the previous call's checkpoint directory
    // between them is the benchmark's work, not the program's.
    let timed_s = call_s.iter().chain(&traced_call_s).sum::<f64>();
    let calls = (call_s.len() + traced_call_s.len()) as u64;
    out.attempted += calls * (d.steps as u64 + sets_per_call);

    // ---- restore-only calls: resume at the last step, nothing left to do
    // but scan for the newest complete set and load its chain on both ranks -
    let mut restore_err = None;
    let mut restore_s = Vec::new();
    if let Some(ck) = checkpointed(&last_dir) {
        let mut restoring = base.clone();
        restoring.checkpoint = Some(CheckpointConfig {
            resume: true,
            final_checkpoint: false,
            ..ck
        });
        let want: Vec<(u64, u64)> = final_state
            .iter()
            .map(|s| (d.steps as u64, s.checksum))
            .collect();
        for _ in 0..d.restores {
            out.attempted += 1;
            let (state, s) = log.time("core.run_distributed(restore)", || {
                call(&p, ks, &restoring, d.steps, |sim| {
                    (sim.step_count, crate::run::checksum(sim))
                })
            });
            restore_s.push(s);
            if state != want {
                out.failed += 1;
                restore_err.get_or_insert(format!(
                    "restored (step, checksum) per rank {state:x?}, uninterrupted run {want:x?}"
                ));
            }
        }
    }
    let peak_rss_mb = crate::host::peak_rss_mb();

    // ---- end-to-end metrics -----------------------------------------------
    let wall_s = median(&setup_s) + warmup_s + timed_s + restore_s.iter().sum::<f64>();
    common_metrics(out, &setup_s, wall_s, peak_rss_mb);
    if !restore_s.is_empty() {
        let ms = median(&restore_s) * 1e3;
        out.metrics
            .push(Metric::of_samples("restore_ms", ms, "ms", &restore_s));
        out.samples.insert("restore_s".into(), restore_s.clone());
    }
    let updates = (w.cells() * d.steps) as f64;
    let mlups = updates / median(&call_s) / 1e6;
    out.metrics
        .push(Metric::of_samples("mlups", mlups, "MLUP/s", &call_s));
    let s = sorted(&call_s);
    out.notes.push(format!(
        "{} timed calls of {} steps: min {:.4} s, median {:.4} s, max {:.4} s (too few for a \
         percentile)",
        s.len(),
        d.steps,
        s[0],
        median(&s),
        s[s.len() - 1]
    ));
    out.samples.insert("call_s".into(), call_s.clone());

    // ---- per-layer metrics (traced run) -----------------------------------
    if let (Some(report), Some(l)) = (&snapshot, gen.layers) {
        let dec = base.decomposition();
        let block = dec.block(0).shape;
        let split_dim = (0..3).find(|&dim| dec.grid[dim] > 1).unwrap_or(2);
        out.metrics.extend(layers::codegen_metrics(&l, gen.seconds));
        out.metrics.push(Metric::new(
            "trace.overhead_pct",
            100.0 * (median(&traced_call_s) - median(&call_s)) / median(&call_s),
            "%",
        ));
        out.metrics.extend(layers::tape_metrics(w, ks));
        out.metrics.extend(layers::native_emit_metrics(w, ks));
        let traced = Traced {
            report,
            steps: (traced_call_s.len() * d.steps) as f64,
            ranks: 2,
        };
        out.metrics.extend(traced.backend_metrics(w.cells(), None));
        out.metrics.extend(traced.dist_metrics());
        if sets_per_call > 0 {
            out.metrics
                .extend(traced.checkpoint_metrics(traced_call_s.len() as u64 * sets_per_call));
            let (full_ms, inc_ms) = checkpoint_encode_ms(ctx, block, &gen);
            out.metrics
                .push(Metric::new("core.checkpoint_encode_ms", full_ms, "ms"));
            out.metrics.push(Metric::new(
                "core.checkpoint_encode_incremental_ms",
                inc_ms,
                "ms",
            ));
        }
        out.metrics.push(Metric::new(
            "grid.exchange_isolated_us",
            exchange_isolated_us(&p, d.global, d.isolated_syncs),
            "us",
        ));
        out.metrics.push(Metric::new(
            "grid.pack_face_mb_s",
            pack_face_mb_s(&p, block, split_dim),
            "MB/s",
        ));
        // The same global problem on one rank: context for `mlups`, not a
        // scaling efficiency (two ranks share the two cores with their own
        // worker threads).
        let mut one = base.clone();
        one.ranks = 1;
        let one_dir = ctx.ckpt_root.join("rank1");
        one.checkpoint = checkpointed(&one_dir);
        let one_s = log.time("core.run_distributed(1 rank)", || {
            call(&p, ks, &one, d.steps, |_| ())
        });
        let _ = std::fs::remove_dir_all(&one_dir);
        out.metrics.push(Metric::new(
            "core.rank2_over_rank1",
            mlups / (updates / one_s.1 / 1e6),
            "ratio",
        ));
        out.samples.insert("traced_call_s".into(), traced_call_s);
        out.pf_trace = Some(report.to_json());
    }

    // ---- the benchmark's own verification, outside wall_s -----------------
    let verify = Instant::now();
    crate::run::generation_gates(ctx, &p, &gen, out);
    equivalence_gates(ctx, d, &gen, out);
    out.gates.push(final_state_gate(ctx, &final_state));
    if !restore_s.is_empty() {
        out.gates.push(Gate::from(
            "restore",
            match restore_err {
                None => Ok(format!(
                    "{} restore-only calls: step {} and the uninterrupted run's checksum on both \
                     ranks",
                    d.restores, d.steps
                )),
                Some(e) => Err(e),
            },
        ));
    }
    // No fault is injected, so a retransmit only means that a rank waited
    // past the exchange's 10 ms retry timeout for a peer that was still
    // computing or writing its checkpoint: worth seeing, not an error (the
    // duplicate is dropped on receipt).
    let retransmits = out.metric("grid.retransmits").map_or(0.0, |m| m.value);
    if retransmits > 0.0 {
        out.notes.push(format!(
            "FLAGGED: {retransmits} retransmits without an injected fault (ranks more than 10 ms \
             apart)"
        ));
    }
    out.verify_s = verify.elapsed().as_secs_f64();
    out.spans = log.spans().to_vec();
}
