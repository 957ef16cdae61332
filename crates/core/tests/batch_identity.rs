//! Bit-identity matrix for the SoA batch sampling kernels.
//!
//! The batch-first refactor's contract is that every batch kernel is a pure
//! loop interchange / invariant hoist over its scalar counterpart — never a
//! numerical change. This suite pins that contract end to end at the public
//! API: for every technology node × variation mode × voltage × batch size
//! (including 0, 1, and sizes that are not a multiple of any SIMD lane
//! width), the batched chip-delay draws must equal the per-index scalar
//! sampler bit for bit. The `erfc` kernel underneath is lane-chunked in
//! every build; CI runs this suite with default codegen and with
//! `-Ctarget-cpu=native`, so wider vector units must not change a bit
//! either.

use ntv_core::engine::{PathDistribution, QuadratureRules, VariationMode};
use ntv_core::{DatapathConfig, DatapathEngine, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_mc::CounterRng;
use ntv_units::Volts;

const NODES: [TechNode; 4] = [
    TechNode::Gp90,
    TechNode::Gp45,
    TechNode::PtmHp32,
    TechNode::PtmHp22,
];
const MODES: [VariationMode; 3] = [
    VariationMode::PaperNormal,
    VariationMode::SkewedIid,
    VariationMode::Hierarchical,
];
// 0 = empty, 1 = single, 13/27 = not a multiple of the 8-wide erfc lane
// width (tail handling), 96 = several full chunks.
const SIZES: [usize; 5] = [0, 1, 13, 27, 96];

#[test]
fn batch_draws_match_scalar_sampler_across_the_full_matrix() {
    let stream = CounterRng::new(2012, "batch-identity");
    for node in NODES {
        let tech = TechModel::new(node);
        for mode in MODES {
            let engine = DatapathEngine::with_mode(&tech, DatapathConfig::paper_default(), mode);
            for vdd in [Volts(0.5), Volts(0.7), Volts(1.0)] {
                for n in SIZES {
                    let mut out = vec![0.0; n];
                    engine.sample_chip_delays_fo4_batch(vdd, &stream, 31, &mut out);
                    for (i, &o) in out.iter().enumerate() {
                        let scalar = engine.sample_chip_delay_fo4_at(vdd, &stream, 31 + i as u64);
                        assert_eq!(
                            o.to_bits(),
                            scalar.to_bits(),
                            "{node:?} {mode:?} {vdd} n={n} i={i}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_sample_batch_equals_serial_scalar_loop() {
    // The chunked executor path composes the batch kernel per worker; the
    // merged output must equal the serial per-index loop for any thread
    // count, including chunk boundaries that split mid-lane.
    let tech = TechModel::new(TechNode::Gp90);
    let stream = CounterRng::new(7, "batch-identity-par");
    for mode in MODES {
        let engine = DatapathEngine::with_mode(&tech, DatapathConfig::paper_default(), mode);
        let scalar: Vec<f64> = (0..333)
            .map(|i| engine.sample_chip_delay_fo4_at(Volts(0.55), &stream, i))
            .collect();
        for threads in [1, 2, 5, 8] {
            let batch = engine.sample_batch(Volts(0.55), &stream, 0..333, Executor::new(threads));
            assert_eq!(batch.len(), scalar.len());
            for (i, (a, b)) in batch.iter().zip(&scalar).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{mode:?} threads={threads} i={i}");
            }
        }
    }
}

#[test]
fn grid_build_matches_scalar_build_at_every_voltage() {
    // The voltage-grid batch build behind OpPointCache::prefetch must hand
    // out distributions bit-identical to scalar builds: survival queries
    // over the full clamp range agree exactly.
    let tech = TechModel::new(TechNode::PtmHp32);
    let vdds: Vec<Volts> = (0..9).map(|i| Volts(0.45 + 0.07 * f64::from(i))).collect();
    let rules = QuadratureRules::new();
    let batch = PathDistribution::build_grid(&rules, &tech, &vdds, 50);
    for (dist, &vdd) in batch.iter().zip(&vdds) {
        let scalar = PathDistribution::build(&rules, &tech, vdd, 50);
        assert_eq!(
            dist.mean_ps().to_bits(),
            scalar.mean_ps().to_bits(),
            "{vdd}"
        );
        assert_eq!(dist.std_ps().to_bits(), scalar.std_ps().to_bits(), "{vdd}");
        for g in [1e-9, 1e-6, 1e-3, 0.01, 0.5, 0.99, 1.0 - 1e-12] {
            assert_eq!(
                dist.quantile_by_survival(g).to_bits(),
                scalar.quantile_by_survival(g).to_bits(),
                "{vdd} g={g:e}"
            );
        }
    }
}
