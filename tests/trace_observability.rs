//! Integration coverage for the observability layer: the pf-trace
//! registry observed from outside the crate, through the same probe API
//! the instrumented crates use.
//!
//! The registry is process-global, so tests that reset it or toggle the
//! runtime switch serialize on a mutex (cargo runs test fns on threads
//! within one process).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn nested_spans_attribute_child_time_to_parent() {
    let _g = lock();
    pf_trace::reset();
    pf_trace::set_enabled(true);
    {
        let _outer = pf_trace::span("it.outer");
        std::thread::sleep(Duration::from_millis(4));
        {
            let _inner = pf_trace::span("it.inner");
            std::thread::sleep(Duration::from_millis(8));
        }
    }
    let r = pf_trace::snapshot();
    let outer = &r.spans["it.outer"].agg;
    let inner = &r.spans["it.inner"].agg;
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 1);
    // Everything the inner span measured is accounted as the outer span's
    // child time, so outer self-time excludes it.
    assert!(outer.child_ns >= inner.total_ns);
    assert!(outer.total_ns >= outer.child_ns);
    assert!(outer.self_ns() < outer.total_ns);
}

#[test]
fn concurrent_counter_increments_from_worker_pool_all_land() {
    let _g = lock();
    pf_trace::reset();
    pf_trace::set_enabled(true);
    let touched = &AtomicUsize::new(0);
    std::thread::scope(|s| {
        for worker in 0..4usize {
            s.spawn(move || {
                for i in worker * 16..(worker + 1) * 16 {
                    pf_trace::counter("it.pool_hits").incr(1);
                    pf_trace::counter_at("it.rank_hits", i % 4).incr(1);
                    touched.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    assert_eq!(touched.load(Ordering::SeqCst), 64);
    let r = pf_trace::snapshot();
    let hits = &r.counters["it.pool_hits"];
    assert_eq!(hits.total, 64);
    let ranked = &r.counters["it.rank_hits"];
    assert_eq!(ranked.total, 64);
    assert_eq!(ranked.by_rank.len(), 4);
    assert!(ranked.by_rank.values().all(|&v| v == 16));
}

#[test]
fn disabled_mode_records_nothing() {
    let _g = lock();
    pf_trace::reset();
    pf_trace::set_enabled(false);
    pf_trace::counter("it.dark").incr(7);
    pf_trace::gauge("it.dark_gauge").set(1.5);
    {
        let _s = pf_trace::span("it.dark_span");
    }
    let mut built = false;
    {
        let _s = pf_trace::span_lazy(|| {
            built = true;
            "it.dark_lazy".to_string()
        });
    }
    assert!(!built, "span_lazy must not build its name when disabled");
    pf_trace::set_enabled(true);
    let r = pf_trace::snapshot();
    assert!(r.counters.is_empty());
    assert!(r.gauges.is_empty());
    assert!(r.spans.is_empty());
}

#[test]
fn fallback_counters_roundtrip_through_report_json() {
    let _g = lock();
    pf_trace::reset();
    pf_trace::set_enabled(true);
    // Drive a real degraded launch: a store offset along the outer loop
    // dimension forces the infallible API to rerun serially, which must
    // surface as both the mode-specific and the engine-neutral
    // `exec.fallback.<kernel>` counters.
    use pf_backend::{run_kernel, ExecMode, FieldStore, RunCtx};
    use pf_stencil::{Assignment, StencilKernel};
    use pf_symbolic::{Access, Expr, Field};
    let src = Field::new("it_fb_src", 1, 3);
    let dst = Field::new("it_fb_dst", 1, 3);
    let k = StencilKernel::new(
        "it_fb_kernel",
        vec![Assignment::store(
            Access::at(dst, 0, [0, 0, 1]),
            Expr::access(Access::center(src, 0)),
        )],
    );
    let tape = pf_ir::generate(&k, &pf_ir::GenOptions::default());
    let mut store = FieldStore::new();
    store
        .allocate(src, [8, 4, 4], 1, pf_fields::Layout::Fzyx)
        .fill_with(0, |x, y, z| (x * 5 + y * 3 + z) as f64);
    store.allocate(dst, [8, 4, 4], 1, pf_fields::Layout::Fzyx);
    run_kernel(
        &tape,
        &mut store,
        &[],
        [8, 4, 4],
        &RunCtx::default(),
        ExecMode::Vectorized,
    );

    let r = pf_trace::snapshot();
    assert_eq!(
        r.counters["exec.fallback.it_fb_kernel"].total, 1,
        "degraded launches must bump the engine-neutral fallback counter"
    );
    assert_eq!(r.counters["exec.serial_fallback.it_fb_kernel"].total, 1);

    // The counters survive the full Report JSON round-trip.
    let text = r.to_json().to_pretty();
    let back = pf_trace::Report::parse(&text).expect("report parses back");
    assert_eq!(back, r);
    assert_eq!(back.counters["exec.fallback.it_fb_kernel"].total, 1);
}

#[test]
fn report_json_roundtrip_through_instrumented_run() {
    let _g = lock();
    pf_trace::reset();
    pf_trace::set_enabled(true);
    // Produce metrics through a real instrumented code path: a tiny
    // distributed run touches exec, comm, halo-exchange and dist probes.
    let p = pf_core::p1();
    let ks = pf_core::generate_kernels(&p, &pf_ir::GenOptions::default());
    let cfg = pf_core::dist::DistConfig::new([8, 8, 8], 2);
    pf_core::dist::run_distributed(
        &p,
        &ks,
        &cfg,
        2,
        |_, _, _| vec![1.0; p.phases],
        |_, _, _| vec![0.02; p.components - 1],
        |_| (),
    );
    let r = pf_trace::snapshot();
    assert!(
        r.spans.keys().any(|k| k.starts_with("exec.kernel.")),
        "expected kernel spans, got {:?}",
        r.spans.keys().collect::<Vec<_>>()
    );
    assert!(r.counters.contains_key("grid.halo_exchanges"));
    assert!(r.spans.contains_key("dist.step"));
    // Rank attribution flows through the whole pipeline.
    assert_eq!(r.spans["dist.step"].by_rank.len(), 2);

    let text = r.to_json().to_pretty();
    let back = pf_trace::Report::parse(&text).expect("report parses back");
    assert_eq!(back, r);
    // And the same snapshot embedded in a bench artifact validates.
    let doc = pf_trace::parse_json(&text).unwrap();
    assert!(pf_trace::Report::from_json(&doc).is_ok());
}
