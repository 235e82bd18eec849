//! Per-layer metrics taken from outside: exact counts over the executed
//! tapes, and rates read from the spans and counters `pf-trace` records
//! inside the program during the traced section.

use crate::report::Metric;
use crate::workloads::Workload;
use pf_core::KernelSet;
use pf_perfmodel::{census, CountScope, OpCensus};
use pf_trace::Report;

/// Where the replayed generation spent its `seconds`.
pub fn codegen_metrics(l: &crate::codegen::Layers, seconds: f64) -> Vec<Metric> {
    vec![
        Metric::new("core.build_model_s", l.build_model_s, "s"),
        Metric::new("stencil.discretize_s", l.discretize_s, "s"),
        Metric::new("symbolic.optimize_s", l.optimize_s, "s"),
        Metric::new("ir.lower_s", l.lower_s, "s"),
        Metric::new("analyze.verify_s", l.verify_s, "s"),
        Metric::exact("analyze.diagnostics", l.diagnostics as f64, "count"),
        Metric::new("core.generate_kernels_s", seconds, "s"),
    ]
}

/// Counts over the tapes a step executes. Exact: they repeat between runs
/// of one commit.
pub fn tape_metrics(w: &Workload, ks: &KernelSet) -> Vec<Metric> {
    let (phi, mu) = w.executed_tapes(ks);
    let tapes: Vec<_> = phi.into_iter().chain(mu).collect();
    let instrs: usize = tapes.iter().map(|t| t.instrs.len()).sum();
    let hoisted: usize = tapes
        .iter()
        .map(|t| t.levels.iter().filter(|&&l| l < 3).count())
        .sum();
    let ops = tapes.iter().fold(OpCensus::default(), |acc, t| {
        acc.add(&census(t, CountScope::PerCell))
    });
    let flops = ops.normalized_flops() as f64;
    let bytes = (ops.loads + ops.stores) as f64 * 8.0;
    vec![
        Metric::exact("ir.tape_instrs", instrs as f64, "count"),
        Metric::exact("ir.hoisted_share", hoisted as f64 / instrs as f64, "ratio"),
        Metric::exact("perfmodel.flops_percell", flops, "count"),
        Metric::exact("perfmodel.loads_percell", ops.loads as f64, "count"),
        Metric::exact("perfmodel.stores_percell", ops.stores as f64, "count"),
        // Computed from the tape, not measured: cache misses are not in it.
        Metric::exact("perfmodel.flops_per_byte_computed", flops / bytes, "flop/B"),
    ]
}

/// Source the native backend emits for the executed tapes.
pub fn native_emit_metrics(w: &Workload, ks: &KernelSet) -> Vec<Metric> {
    let (phi, mu) = w.executed_tapes(ks);
    let t = std::time::Instant::now();
    let bytes: usize = phi
        .into_iter()
        .chain(mu)
        .map(|tape| pf_backend::emit_rust(tape).len())
        .sum();
    vec![
        Metric::new("backend.native_emit_s", t.elapsed().as_secs_f64(), "s"),
        Metric::exact("backend.native_source_bytes", bytes as f64, "B"),
    ]
}

/// Count and time of a group of spans on one rank.
#[derive(Clone, Copy, Default)]
struct Total {
    count: u64,
    total_ns: u64,
}

impl Total {
    fn add(&mut self, s: &pf_trace::SpanStat) {
        self.count += s.count;
        self.total_ns += s.total_ns;
    }
}

/// The traced section's `pf-trace` snapshot, read per rank.
pub struct Traced<'a> {
    pub report: &'a Report,
    /// Steps every rank took while the snapshot accumulated.
    pub steps: f64,
    pub ranks: usize,
}

impl Traced<'_> {
    /// Per-rank stats of the spans whose name starts with `prefix`, summed
    /// per rank. Spans recorded outside a rank scope count as rank 0's.
    fn span_totals(&self, prefix: &str) -> Vec<Total> {
        let mut per_rank = vec![Total::default(); self.ranks];
        for (_, agg) in self
            .report
            .spans
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
        {
            if agg.by_rank.is_empty() {
                per_rank[0].add(&agg.agg);
            }
            for (r, stat) in &agg.by_rank {
                per_rank[*r as usize].add(stat);
            }
        }
        per_rank
    }

    /// Milliseconds per step in spans named `prefix*`, on the rank that
    /// spends most: a step waits for its slowest rank.
    fn span_ms_per_step(&self, prefix: &str) -> f64 {
        self.span_totals(prefix)
            .iter()
            .map(|s| s.total_ns as f64 / 1e6 / self.steps)
            .fold(0.0, f64::max)
    }

    fn span_count(&self, prefix: &str) -> u64 {
        self.span_totals(prefix).iter().map(|s| s.count).sum()
    }

    fn counter_total(&self, prefix: &str) -> u64 {
        self.report
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, c)| c.total)
            .sum()
    }

    /// Largest per-rank value of counter `name`.
    fn counter_max_rank(&self, name: &str) -> u64 {
        self.report
            .counters
            .get(name)
            .map_or(0, |c| c.by_rank.values().copied().max().unwrap_or(c.total))
    }

    fn ratio(hits: u64, misses: u64) -> f64 {
        if hits + misses == 0 {
            f64::NAN
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Kernel time per step and the rates that follow from it, launches,
    /// cache hit ratios, fall-backs: on every workload. `kernel_ms` are the
    /// phi and mu kernel times where the benchmark timed them itself;
    /// otherwise they are the means of the `exec.kernel.*` spans.
    pub fn backend_metrics(&self, cells: usize, kernel_ms: Option<(f64, f64)>) -> Vec<Metric> {
        let (phi_ms, mu_ms) = kernel_ms.unwrap_or_else(|| {
            (
                self.span_ms_per_step("exec.kernel.phi"),
                self.span_ms_per_step("exec.kernel.mu"),
            )
        });
        let mlups = |ms: f64| cells as f64 / self.ranks as f64 / (ms / 1e3) / 1e6;
        let launches = self.span_count("exec.kernel.") as f64 / self.steps / self.ranks as f64;
        let fallbacks = self.counter_total("exec.fallback.")
            + self.counter_total("select.exec_mode_fallback")
            + self.counter_total("exec.native.compile_fail");
        let mut out = vec![
            Metric::new("backend.phi_kernel_ms", phi_ms, "ms"),
            Metric::new("backend.mu_kernel_ms", mu_ms, "ms"),
            Metric::new("backend.phi_mlups", mlups(phi_ms), "MLUP/s"),
            Metric::new("backend.mu_mlups", mlups(mu_ms), "MLUP/s"),
            Metric::exact("backend.launches_per_step", launches, "count"),
            Metric::exact("backend.fallbacks", fallbacks as f64, "count"),
        ];
        let plan = Self::ratio(
            self.counter_total("exec.plan_cache.hit."),
            self.counter_total("exec.plan_cache.miss."),
        );
        if plan.is_finite() {
            out.push(Metric::new("backend.plan_cache_hit_ratio", plan, "ratio"));
        }
        let native = Self::ratio(
            self.counter_total("exec.native.mem_hit"),
            self.counter_total("exec.native.compile_hit")
                + self.counter_total("exec.native.compile_miss"),
        );
        if native.is_finite() {
            out.push(Metric::new("backend.native_mem_hit_ratio", native, "ratio"));
        }
        out
    }

    /// Where a distributed step goes, from the spans and counters inside
    /// `run_distributed`.
    pub fn dist_metrics(&self) -> Vec<Metric> {
        let step_ms = self.span_ms_per_step("dist.step");
        let kernel_ms = self.span_ms_per_step("exec.kernel.");
        let halo_ms = self.span_ms_per_step("grid.halo_");
        let per_step_ms = |name: &str| self.counter_max_rank(name) as f64 / 1e6 / self.steps;
        let interior = self.counter_total("exec.interior_cells");
        let frontier = self.counter_total("exec.frontier_cells");
        // Counters are summed over ranks; a step is every rank's step.
        let per_step = |name: &str| self.counter_total(name) as f64 / self.steps;
        let mut out = vec![
            Metric::new("core.dist_step_ms", step_ms, "ms"),
            Metric::new("backend.kernel_ms_per_step", kernel_ms, "ms"),
            Metric::new("grid.halo_busy_ms", halo_ms, "ms"),
            Metric::new("grid.recv_wait_ms", per_step_ms("comm.recv_wait_ns"), "ms"),
            Metric::new(
                "core.dist_unattributed_pct",
                100.0 * (step_ms - kernel_ms - halo_ms) / step_ms,
                "%",
            ),
            Metric::exact("grid.msgs_per_step", per_step("comm.msgs_sent"), "count"),
            Metric::exact("grid.bytes_per_step", per_step("comm.bytes_sent"), "B"),
            Metric::exact(
                "grid.batch_saved_msgs_per_step",
                per_step("comm.batch.saved_messages"),
                "count",
            ),
            // Not exact: a rank that waits 10 ms asks its peer again, so
            // the count follows the ranks' skew.
            Metric::new(
                "grid.retransmits",
                self.counter_total("comm.retransmits") as f64,
                "count",
            ),
        ];
        if interior + frontier > 0 {
            out.push(Metric::new(
                "grid.overlap_window_ms",
                per_step_ms("comm.overlap_window_ns"),
                "ms",
            ));
            out.push(Metric::exact(
                "backend.interior_cells_share",
                Self::ratio(interior, frontier),
                "ratio",
            ));
        }
        out
    }

    /// Checkpoint cost inside `run_distributed`; `sets` written while the
    /// snapshot accumulated.
    pub fn checkpoint_metrics(&self, sets: u64) -> Vec<Metric> {
        let writes = self.span_totals("dist.checkpoint_write");
        let write_ms = writes
            .iter()
            .filter(|s| s.count > 0)
            .map(|s| s.total_ns as f64 / 1e6 / s.count as f64)
            .fold(0.0, f64::max);
        let busiest_s = writes.iter().map(|s| s.total_ns).max().unwrap_or(0) as f64 / 1e9;
        let bytes = self.counter_total("checkpoint.bytes_written") as f64;
        let dirty = self.counter_total("checkpoint.incremental.dirty_rows");
        let clean = self.counter_total("checkpoint.incremental.clean_rows");
        vec![
            Metric::new("core.checkpoint_write_ms", write_ms, "ms"),
            Metric::exact("core.checkpoint_bytes_per_set", bytes / sets as f64, "B"),
            Metric::exact(
                "core.checkpoint_dirty_row_share",
                Self::ratio(dirty, clean),
                "ratio",
            ),
            Metric::new(
                "core.checkpoint_write_mb_s",
                bytes / 1e6 / busiest_s,
                "MB/s",
            ),
        ]
    }
}
