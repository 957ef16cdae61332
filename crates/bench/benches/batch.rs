//! Scalar-vs-batch throughput of the SoA sampling kernels.
//!
//! Two hot paths from the batch-first refactor, each timed in its scalar
//! (per-element, as the code stood before the refactor) and batch
//! (fixed-stride kernel) formulation. Both formulations are bit-identical
//! by construction — the identity matrix suite pins that — so these
//! numbers measure pure kernel-shape effects: loop interchange, invariant
//! hoisting, and the 8-wide lane chunking of the `erfc` Chebyshev
//! recurrence inside `erfc_slice`. The benchmark's per-layer record
//! (`mc.erfc_slice_ns`, `core.sample_chip_ns.*`) tracks the same kernels
//! over time.

use criterion::{criterion_group, criterion_main, Criterion};

use ntv_core::engine::VariationMode;
use ntv_core::{DatapathConfig, DatapathEngine, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_mc::{normal, reduce, CounterRng};
use ntv_units::Volts;

/// Mixture size of a real survival-grid build: 24 × 12 Gauss–Hermite
/// systematic nodes.
const COMPS: usize = 288;
/// Survival-grid resolution (`PathDistribution::GRID`).
const GRID: usize = 1024;
/// Chip draws per sampling iteration.
const SAMPLES: usize = 4096;

/// Synthetic mixture components shaped like a 0.5 V near-threshold build:
/// weights summing to ~1, means spread a few σ apart.
fn mixture() -> Vec<(f64, f64, f64)> {
    (0..COMPS)
        .map(|i| {
            let t = i as f64 / (COMPS - 1) as f64;
            (
                1.0 / COMPS as f64,
                20_000.0 + 8_000.0 * t,
                900.0 + 400.0 * t,
            )
        })
        .collect()
}

/// The Gauss–Hermite mixture-CDF accumulation of the survival grid, in
/// both formulations from `PathDistribution::grid()`.
fn bench_mixture_cdf(c: &mut Criterion) {
    let comps = mixture();
    let sqrt2 = std::f64::consts::SQRT_2;
    let (lo, hi) = (12_000.0f64, 45_000.0f64);
    let xs: Vec<f64> = (0..GRID)
        .map(|i| lo + (hi - lo) * i as f64 / (GRID - 1) as f64)
        .collect();

    let mut group = c.benchmark_group("batch/gh_mixture_cdf_288x1024");
    // Point-major, one scalar erfc per (point, component) term — the
    // pre-refactor shape.
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let sf: Vec<f64> = xs
                .iter()
                .map(|&x| {
                    reduce::sum_ordered(
                        comps
                            .iter()
                            .map(|&(w, mu, s)| w * 0.5 * normal::erfc((x - mu) / (s * sqrt2))),
                    )
                })
                .collect();
            std::hint::black_box(sf)
        });
    });
    // Component-major with the erfc_slice batch kernel — the shipped shape.
    group.bench_function("batch", |b| {
        b.iter(|| {
            let mut sf = vec![0.0; GRID];
            let mut args = vec![0.0; GRID];
            let mut row = vec![0.0; GRID];
            for &(w, mu, s) in &comps {
                let w2 = w * 0.5;
                let d = s * sqrt2;
                for (a, &x) in args.iter_mut().zip(&xs) {
                    *a = (x - mu) / d;
                }
                normal::erfc_slice(&args, &mut row);
                reduce::axpy_ordered(&mut sf, w2, &row);
            }
            std::hint::black_box(sf)
        });
    });
    group.finish();
}

/// Counter-addressed chip-delay draws: the per-index scalar sampler (one
/// distribution-cache lookup and one quantile inversion per draw) against
/// the SoA kernel (`sample_chip_delays_fo4_batch`).
fn bench_chip_delay_sampling(c: &mut Criterion) {
    let tech = TechModel::new(TechNode::Gp90);
    let stream = CounterRng::new(2012, "bench-batch");
    for (label, mode) in [
        ("skewed_iid", VariationMode::SkewedIid),
        ("paper_normal", VariationMode::PaperNormal),
    ] {
        let engine = DatapathEngine::with_mode(&tech, DatapathConfig::paper_default(), mode);
        // Build the operating point and its survival grid outside timing.
        let _ = engine.sample_batch(Volts(0.5), &stream, 0..1, Executor::serial());

        let mut group = c.benchmark_group(format!("batch/chip_delay_{label}_4096"));
        group.bench_function("scalar", |b| {
            b.iter(|| {
                let out: Vec<f64> = (0..SAMPLES as u64)
                    .map(|i| engine.sample_chip_delay_fo4_at(Volts(0.5), &stream, i))
                    .collect();
                std::hint::black_box(out)
            });
        });
        group.bench_function("batch", |b| {
            b.iter(|| {
                let mut out = vec![0.0; SAMPLES];
                engine.sample_chip_delays_fo4_batch(Volts(0.5), &stream, 0, &mut out);
                std::hint::black_box(out)
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_mixture_cdf, bench_chip_delay_sampling);
criterion_main!(benches);
