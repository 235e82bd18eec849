//! Criterion benchmarks of generated-kernel execution: the µ/φ variants of
//! Table 1 & Fig. 2 on the native executor, serial vs strip-mined, and
//! the approximate-math modes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pf_backend::{run_kernel, ExecMode, RunCtx};
use pf_bench::{kernels_for, workload_store};
use pf_core::{p1, p2, Family, Variant};

fn bench_variants(c: &mut Criterion) {
    let p = p1();
    let ks = kernels_for(&p);
    let shape = [24usize, 24, 12];
    let cells = (shape[0] * shape[1] * shape[2]) as u64;
    let ctx = RunCtx {
        dx: [p.dx; 3],
        ..RunCtx::default()
    };

    let mut g = c.benchmark_group("p1_kernel_variants");
    g.throughput(Throughput::Elements(cells));
    g.sample_size(10);
    for (name, family, variant) in [
        ("mu_full", Family::Mu, Variant::Full),
        ("mu_split", Family::Mu, Variant::Split),
        ("phi_full", Family::Phi, Variant::Full),
        ("phi_split", Family::Phi, Variant::Split),
    ] {
        g.bench_function(name, |b| {
            let mut store = workload_store(&p, &ks, shape);
            b.iter(|| {
                for t in ks.tapes(family, variant) {
                    run_kernel(t, &mut store, &[], shape, &ctx, ExecMode::Serial);
                }
            });
        });
    }
    g.finish();
}

fn bench_executor_modes(c: &mut Criterion) {
    let p = p1();
    let ks = kernels_for(&p);
    let shape = [32usize, 32, 16];
    let cells = (shape[0] * shape[1] * shape[2]) as u64;
    let ctx = RunCtx {
        dx: [p.dx; 3],
        ..RunCtx::default()
    };
    let mut g = c.benchmark_group("executor_modes");
    g.throughput(Throughput::Elements(cells));
    g.sample_size(10);
    for mode in [ExecMode::Serial, ExecMode::Vectorized] {
        g.bench_with_input(
            BenchmarkId::new("mu_full", mode.name()),
            &mode,
            |b, &mode| {
                let mut store = workload_store(&p, &ks, shape);
                b.iter(|| run_kernel(&ks.mu_full, &mut store, &[], shape, &ctx, mode));
            },
        );
    }
    g.finish();
}

fn bench_p2_anisotropy(c: &mut Criterion) {
    // "Apparently small changes in the model can lead to vastly different
    // performance characteristics" (§5.1): P2's anisotropic φ kernel.
    let p = p2();
    let ks = kernels_for(&p);
    let shape = [16usize, 16, 8];
    let cells = (shape[0] * shape[1] * shape[2]) as u64;
    let ctx = RunCtx {
        dx: [p.dx; 3],
        ..RunCtx::default()
    };
    let mut g = c.benchmark_group("p2_anisotropic");
    g.throughput(Throughput::Elements(cells));
    g.sample_size(10);
    g.bench_function("phi_full", |b| {
        let mut store = workload_store(&p, &ks, shape);
        b.iter(|| run_kernel(&ks.phi_full, &mut store, &[], shape, &ctx, ExecMode::Serial));
    });
    g.finish();
}

fn bench_approx_math(c: &mut Criterion) {
    let p = p1();
    let ks = kernels_for(&p);
    let shape = [16usize, 16, 8];
    let ctx = RunCtx {
        dx: [p.dx; 3],
        ..RunCtx::default()
    };
    let mut fast = ks.mu_full.clone();
    fast.approx.fast_div = true;
    fast.approx.fast_rsqrt = true;
    let mut g = c.benchmark_group("approx_math");
    g.sample_size(10);
    for (name, tape) in [("exact", &ks.mu_full), ("approx", &fast)] {
        g.bench_function(name, |b| {
            let mut store = workload_store(&p, &ks, shape);
            b.iter(|| run_kernel(tape, &mut store, &[], shape, &ctx, ExecMode::Serial));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_variants,
    bench_executor_modes,
    bench_p2_anisotropy,
    bench_approx_math
);
criterion_main!(benches);
