//! Property-based tests (proptest) on the workspace's core data
//! structures and invariants.

// Exact float equality is the property under test here: min/max/kth-element
// must return a bitwise copy of an input sample, not a recomputed value.
#![allow(clippy::float_cmp)]

use proptest::prelude::*;

use ntv_simd::circuit::chain::ChainMc;
use ntv_simd::core::placement::{binomial_cdf, repair_probability, SparePlacement};
use ntv_simd::device::{DeviceParams, TechModel, TechNode};
use ntv_simd::mc::{normal, order, Quantiles, StreamRng, Summary};
use ntv_simd::soda::kernels::{self, golden};
use ntv_simd::soda::pe::ProcessingElement;
use ntv_simd::soda::xram::{LaneMap, ShuffleConfig};
use ntv_simd::units::Volts;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6_f64..1.0e6, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn normal_quantile_round_trips(p in 1e-9_f64..1.0 - 1e-9) {
        let x = normal::quantile(p);
        let back = normal::cdf(x);
        prop_assert!((back - p).abs() < 1e-9, "p={p} x={x} back={back}");
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(data in finite_vec(1..200), a in 0.0_f64..1.0, b in 0.0_f64..1.0) {
        let q = Quantiles::from_samples(data.clone());
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(q.quantile(lo) <= q.quantile(hi) + 1e-12);
        prop_assert!(q.quantile(0.0) <= q.quantile(1.0));
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(q.min(), min);
        prop_assert_eq!(q.max(), max);
    }

    #[test]
    fn summary_merge_equals_sequential(data in finite_vec(2..200), split in 0usize..200) {
        let split = split.min(data.len());
        let whole: Summary = data.iter().copied().collect();
        let mut left: Summary = data[..split].iter().copied().collect();
        let right: Summary = data[split..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((left.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance()));
    }

    #[test]
    fn kth_smallest_matches_sorting(data in finite_vec(1..100), k in 0usize..100) {
        let k = k.min(data.len() - 1);
        let got = order::kth_smallest(&data, k);
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        prop_assert_eq!(got, sorted[k]);
    }

    #[test]
    fn rotation_shuffles_invert(shift in 0usize..128, seed in 0u64..1000) {
        let mut rng = StreamRng::from_seed(seed);
        let data: Vec<i16> = (0..128).map(|_| (rng.uniform() * 100.0) as i16).collect();
        let fwd = ShuffleConfig::rotate(128, shift);
        let back = ShuffleConfig::rotate(128, (128 - shift % 128) % 128);
        let round = back.apply(&fwd.apply(&data));
        prop_assert_eq!(round, data);
    }

    #[test]
    fn lane_map_is_injective_and_skips_faulty(
        faulty in proptest::collection::btree_set(0usize..136, 0..8)
    ) {
        let faulty: Vec<usize> = faulty.into_iter().collect();
        let map = LaneMap::with_faulty(128, 136, &faulty).expect("at most 8 faults fit 8 spares");
        let mut seen = std::collections::HashSet::new();
        for l in 0..128 {
            let p = map.physical(l);
            prop_assert!(p < 136);
            prop_assert!(!faulty.contains(&p), "logical {l} mapped to faulty {p}");
            prop_assert!(seen.insert(p), "physical lane {p} used twice");
        }
    }

    #[test]
    fn binomial_cdf_is_monotone_in_k(n in 1u32..200, p in 0.0_f64..1.0) {
        let mut prev = 0.0;
        for k in 0..=n.min(40) {
            let c = binomial_cdf(n, p, k);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    #[test]
    fn global_sparing_never_loses_to_local(
        p_fail in 0.0_f64..0.5,
        spares_per_cluster in 1u32..3,
    ) {
        let cluster = SparePlacement::Local { cluster_size: 8, spares_per_cluster };
        let total = cluster.total_spares(128);
        let global = SparePlacement::Global { spares: total };
        let pl = repair_probability(cluster, 128, p_fail);
        let pg = repair_probability(global, 128, p_fail);
        prop_assert!(pg >= pl - 1e-12, "p={p_fail}: global {pg} < local {pl}");
    }

    #[test]
    fn vector_add_kernel_matches_golden(seed in 0u64..500) {
        let mut rng = StreamRng::from_seed(seed);
        let a: Vec<i16> = (0..128).map(|_| (rng.uniform() * 65535.0 - 32768.0) as i16).collect();
        let b: Vec<i16> = (0..128).map(|_| (rng.uniform() * 65535.0 - 32768.0) as i16).collect();
        let mut pe = ProcessingElement::new();
        let got = kernels::vector_add(&mut pe, &a, &b).expect("runs");
        prop_assert_eq!(got, golden::vector_add(&a, &b));
    }

    #[test]
    fn fir_kernel_matches_golden(seed in 0u64..200, taps in 1usize..8) {
        let mut rng = StreamRng::from_seed(seed);
        let signal: Vec<i16> = (0..256).map(|_| (rng.uniform() * 200.0 - 100.0) as i16).collect();
        let coeffs: Vec<i16> = (0..taps).map(|_| (rng.uniform() * 10.0 - 5.0) as i16).collect();
        let mut pe = ProcessingElement::new();
        let got = kernels::fir(&mut pe, &signal, &coeffs, 2).expect("runs");
        let want = golden::fir(&signal, &coeffs, 2);
        prop_assert_eq!(&got[..], &want[..got.len()]);
    }

    #[test]
    fn device_delay_monotone_in_voltage_and_vth(
        node_idx in 0usize..4,
        v_lo in 0.40_f64..0.70,
        dv in 0.01_f64..0.10,
    ) {
        let tech = TechModel::new(TechNode::ALL[node_idx]);
        // Delay falls with voltage...
        prop_assert!(tech.fo4_delay_ps(Volts(v_lo + dv)) < tech.fo4_delay_ps(Volts(v_lo)));
        // ...and on-current falls with threshold voltage.
        let p = tech.params();
        prop_assert!(tech.on_current(Volts(v_lo), p.vth0 + Volts(0.02)) < tech.on_current(Volts(v_lo), p.vth0));
    }

    #[test]
    fn sigma_scale_scales_measured_variation(scale in 0.25_f64..2.0) {
        let base = TechModel::new(TechNode::Gp90);
        let scaled = TechModel::from_params(
            DeviceParams::builder(TechNode::Gp90).sigma_scale(scale).build().unwrap(),
        );
        let mut rng_a = StreamRng::from_seed(10);
        let mut rng_b = StreamRng::from_seed(10);
        let sa = ChainMc::new(&base, 10).summary(Volts(0.6), 800, &mut rng_a);
        let sb = ChainMc::new(&scaled, 10).summary(Volts(0.6), 800, &mut rng_b);
        let ratio = sb.cv() / sa.cv();
        // cv scales roughly linearly with sigma (first order).
        prop_assert!((ratio / scale - 1.0).abs() < 0.35, "scale {scale}: ratio {ratio}");
    }

    #[test]
    fn sample_max_stochastically_dominates_in_n(seed in 0u64..300, n in 2usize..500) {
        // With common random numbers, max of n is >= max of 1 pathwise.
        let mut rng_a = StreamRng::from_seed(seed);
        let mut rng_b = StreamRng::from_seed(seed);
        let one = order::sample_max_normal(&mut rng_a, 1, 0.0, 1.0);
        let many = order::sample_max_normal(&mut rng_b, n, 0.0, 1.0);
        prop_assert!(many >= one - 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn path_distribution_quantile_survival_roundtrip(
        node_idx in 0usize..4,
        vdd in 0.5_f64..0.8,
        g_exp in 1.0_f64..6.0,
    ) {
        use ntv_simd::core::engine::{PathDistribution, QuadratureRules};
        let tech = TechModel::new(TechNode::ALL[node_idx]);
        let dist = PathDistribution::build(&QuadratureRules::new(), &tech, Volts(vdd), 50);
        // survival is monotone non-increasing and bounded.
        let m = dist.mean_ps();
        let mut prev = 1.0;
        for i in 0..20 {
            let x = m * (0.8 + 0.02 * f64::from(i));
            let s = dist.survival(x);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!(s <= prev + 1e-12);
            prev = s;
        }
        // A sampled max of 10^g_exp paths lies where its survival target says.
        let n = 10f64.powf(g_exp) as usize;
        let mut rng = StreamRng::from_seed(7);
        let x = dist.sample_max(n.max(1), &mut rng);
        prop_assert!(x.is_finite() && x > 0.0);
        prop_assert!(dist.survival(x) <= 1.0);
    }

    #[test]
    fn histogram_conserves_every_sample(data in proptest::collection::vec(-1.0e3_f64..1.0e3, 1..300), bins in 1usize..40) {
        use ntv_simd::mc::Histogram;
        let h = Histogram::from_samples(&data, bins);
        prop_assert_eq!(h.total() as usize, data.len());
        prop_assert_eq!(h.underflow(), 0);
        prop_assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn memory_stage_unstage_roundtrip(rows in 1usize..8, seed in 0u64..100, base in 0usize..200) {
        use ntv_simd::soda::memory::SimdMemory;
        let mut rng = StreamRng::from_seed(seed);
        let data: Vec<i16> = (0..rows * 128)
            .map(|_| (rng.uniform() * 65535.0 - 32768.0) as i16)
            .collect();
        let mut mem = SimdMemory::new();
        if base + rows <= 256 {
            mem.stage(base, &data).expect("fits");
            prop_assert_eq!(mem.unstage(base, rows).expect("fits"), data);
        } else {
            prop_assert!(mem.stage(base, &data).is_err());
        }
    }

    #[test]
    fn shuffle_composition_is_associative(s1 in 0usize..128, s2 in 0usize..128, seed in 0u64..100) {
        let mut rng = StreamRng::from_seed(seed);
        let data: Vec<i16> = (0..128).map(|_| (rng.uniform() * 1000.0) as i16).collect();
        let a = ShuffleConfig::rotate(128, s1);
        let b = ShuffleConfig::rotate(128, s2);
        let combined = ShuffleConfig::rotate(128, (s1 + s2) % 128);
        prop_assert_eq!(b.apply(&a.apply(&data)), combined.apply(&data));
    }

    #[test]
    fn fft_is_approximately_linear(seed in 0u64..50) {
        use ntv_simd::soda::pe::ProcessingElement;
        let mut rng = StreamRng::from_seed(seed);
        let a: Vec<i16> = (0..128).map(|_| (rng.uniform() * 8000.0 - 4000.0) as i16).collect();
        let b: Vec<i16> = (0..128).map(|_| (rng.uniform() * 8000.0 - 4000.0) as i16).collect();
        let sum: Vec<i16> = a.iter().zip(&b).map(|(&x, &y)| x.saturating_add(y)).collect();
        let zeros = vec![0i16; 128];

        let mut pe = ProcessingElement::new();
        let (fa, _) = kernels::fft128(&mut pe, &a, &zeros).expect("runs");
        let mut pe = ProcessingElement::new();
        let (fb, _) = kernels::fft128(&mut pe, &b, &zeros).expect("runs");
        let mut pe = ProcessingElement::new();
        let (fs, _) = kernels::fft128(&mut pe, &sum, &zeros).expect("runs");
        for k in 0..128 {
            let lin = i32::from(fa[k]) + i32::from(fb[k]);
            prop_assert!(
                (lin - i32::from(fs[k])).abs() <= 24,
                "bin {}: {} + {} vs {}", k, fa[k], fb[k], fs[k]
            );
        }
    }

    #[test]
    fn corners_bracket_monte_carlo_systematics(node_idx in 0usize..4, vdd in 0.5_f64..0.9) {
        use ntv_simd::device::Corner;
        let tech = TechModel::new(TechNode::ALL[node_idx]);
        let ff = Corner::FastFast.fo4_delay_ps(&tech, Volts(vdd));
        let ss = Corner::SlowSlow.fo4_delay_ps(&tech, Volts(vdd));
        let mut rng = StreamRng::from_seed(3);
        // 3-sigma corners bracket virtually all sampled systematic chips.
        for _ in 0..100 {
            let chip = tech.sample_chip(&mut rng);
            let d = tech.gate_delay_ps(Volts(vdd), &chip, &ntv_simd::device::GateSample::nominal());
            prop_assert!(d > ff * 0.98 && d < ss * 1.02, "d={d} outside [{ff}, {ss}]");
        }
    }
}
