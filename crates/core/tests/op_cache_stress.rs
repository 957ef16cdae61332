//! Concurrency stress test for the operating-point cache.
//!
//! Several OS threads prefetch *overlapping* voltage grids into one cache
//! at once (each prefetch running its own parallel executor on top). The
//! two-level locking discipline must guarantee that every operating point
//! is built exactly once — every observer sees the same shared `Arc` — and
//! that cached values stay bit-identical to a fresh serial build.

use std::sync::Arc;

use ntv_core::engine::{PathDistribution, QuadratureRules, VariationMode};
use ntv_core::{Executor, OpPointCache};
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;

const PATH_LENGTH: usize = 50;
const THREADS: usize = 8;

fn grid() -> Vec<Volts> {
    (0..6).map(|i| Volts(0.50 + 0.03 * f64::from(i))).collect()
}

#[test]
fn concurrent_prefetches_build_each_point_exactly_once() {
    let tech = TechModel::new(TechNode::PtmHp32);
    let cache = Arc::new(OpPointCache::new());
    let volts = grid();

    // Each thread prefetches the full grid starting at its own rotation,
    // so every operating point is raced by all THREADS threads, then
    // collects the entry Arcs it observes.
    let per_thread: Vec<Vec<Arc<PathDistribution>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let tech = &tech;
                let volts = &volts;
                s.spawn(move || {
                    let rot = t % volts.len();
                    let mut rotated: Vec<Volts> = volts[rot..].to_vec();
                    rotated.extend_from_slice(&volts[..rot]);
                    cache.prefetch(
                        tech,
                        VariationMode::SkewedIid,
                        PATH_LENGTH,
                        &rotated,
                        Executor::new(1 + t % 3),
                    );
                    volts
                        .iter()
                        .map(|&v| {
                            cache.get_or_build(tech, VariationMode::SkewedIid, v, PATH_LENGTH)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress thread panicked"))
            .collect()
    });

    // Exactly one fully built entry per grid point, no duplicates.
    assert_eq!(cache.len(), volts.len());

    // Every thread observed the same shared entry per operating point.
    let first = &per_thread[0];
    for observed in &per_thread[1..] {
        for (a, b) in first.iter().zip(observed) {
            assert!(
                Arc::ptr_eq(a, b),
                "racing builders produced distinct entries"
            );
        }
    }

    // Cached values are bit-identical to a fresh serial build.
    for (i, &vdd) in volts.iter().enumerate() {
        let fresh = PathDistribution::build(&QuadratureRules::new(), &tech, vdd, PATH_LENGTH);
        let cached = &first[i];
        assert_eq!(cached.mean_ps().to_bits(), fresh.mean_ps().to_bits());
        assert_eq!(cached.std_ps().to_bits(), fresh.std_ps().to_bits());
        for g in [1e-6, 1e-3, 0.01, 0.5, 0.99] {
            assert_eq!(
                cached.quantile_by_survival(g).to_bits(),
                fresh.quantile_by_survival(g).to_bits(),
                "quantile mismatch at vdd {vdd:?} survival {g}"
            );
        }
    }
}

#[test]
fn racing_get_or_build_on_one_point_yields_one_entry() {
    let tech = TechModel::new(TechNode::Gp45);
    let cache = Arc::new(OpPointCache::new());
    let vdd = Volts(0.62);

    let entries: Vec<Arc<PathDistribution>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let tech = &tech;
                s.spawn(move || {
                    cache.get_or_build(tech, VariationMode::PaperNormal, vdd, PATH_LENGTH)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress thread panicked"))
            .collect()
    });

    assert_eq!(cache.len(), 1);
    for e in &entries[1..] {
        assert!(Arc::ptr_eq(&entries[0], e));
    }
}
