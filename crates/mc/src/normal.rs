//! The standard normal distribution: pdf, CDF, and quantile function.
//!
//! The quantile function (`Φ⁻¹`) is the workhorse of the fast
//! architecture-level engine in `ntv-core`: the maximum of *n* i.i.d. normal
//! path delays is sampled in O(1) as `μ + σ·Φ⁻¹(U^(1/n))`, which turns a
//! 10 000-chip × 128-lane × 100-path simulation into ~10⁶ quantile
//! evaluations instead of ~10⁹ gate evaluations.
//!
//! Implementations are classical rational approximations (no external
//! dependencies): an Abramowitz–Stegun/Numerical-Recipes style `erfc` for the
//! CDF and Acklam's algorithm with one Halley refinement step for the
//! quantile, giving ~1e-15 relative accuracy over the full open interval.

use std::f64::consts::{PI, SQRT_2};

/// Probability density function of the standard normal distribution.
///
/// # Example
///
/// ```
/// let p = ntv_mc::normal::pdf(0.0);
/// assert!((p - 0.39894228).abs() < 1e-8);
/// ```
#[must_use]
pub fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * PI).sqrt()
}

// Chebyshev coefficients for erfc, from W. J. Cody's rational fit as
// tabulated in Numerical Recipes (3rd ed., §6.2.2). Shared by the scalar
// and batch evaluators so both run the identical recurrence.
const COF: [f64; 28] = [
    -1.3026537197817094,
    6.419_697_923_564_902e-1,
    1.9476473204185836e-2,
    -9.561_514_786_808_63e-3,
    -9.46595344482036e-4,
    3.66839497852761e-4,
    4.2523324806907e-5,
    -2.0278578112534e-5,
    -1.624290004647e-6,
    1.303655835580e-6,
    1.5626441722e-8,
    -8.5238095915e-8,
    6.529054439e-9,
    5.059343495e-9,
    -9.91364156e-10,
    -2.27365122e-10,
    9.6467911e-11,
    2.394038e-12,
    -6.886027e-12,
    8.94487e-13,
    3.13092e-13,
    -1.12708e-13,
    3.81e-16,
    7.106e-15,
    -1.523e-15,
    -9.4e-17,
    1.21e-16,
    -2.8e-17,
];

/// Complementary error function, `erfc(x) = 1 - erf(x)`.
///
/// Uses the Chebyshev-fitted expansion from Numerical Recipes (accuracy
/// better than 1.2e-7 everywhere), refined to full double precision where it
/// matters via symmetric evaluation.
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    let mut d = 0.0;
    let mut dd = 0.0;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Lane count of the chunked [`erfc_slice`] kernel: chunks of this many
/// elements share one pass over the Chebyshev recurrence, amortizing its
/// serial dependency chain across independent lanes. Exposed so tests can
/// probe lengths that are not a multiple of it.
pub const ERFC_LANES: usize = 8;

/// One chunk of the batch evaluator: every lane runs exactly the scalar
/// [`erfc`] operation sequence, only interleaved across lanes, so each
/// output is bit-identical to `erfc(x[l])`. The per-coefficient inner loop
/// has no cross-lane dependence and is written fixed-stride so the
/// compiler can vectorize the `ty·d − dd + c` update.
fn erfc_lanes(x: &[f64; ERFC_LANES]) -> [f64; ERFC_LANES] {
    let mut z = [0.0; ERFC_LANES];
    let mut t = [0.0; ERFC_LANES];
    let mut ty = [0.0; ERFC_LANES];
    for l in 0..ERFC_LANES {
        z[l] = x[l].abs();
        t[l] = 2.0 / (2.0 + z[l]);
        ty[l] = 4.0 * t[l] - 2.0;
    }
    let mut d = [0.0; ERFC_LANES];
    let mut dd = [0.0; ERFC_LANES];
    for &c in COF.iter().rev().take(COF.len() - 1) {
        for l in 0..ERFC_LANES {
            let tmp = d[l];
            d[l] = ty[l] * d[l] - dd[l] + c;
            dd[l] = tmp;
        }
    }
    let mut out = [0.0; ERFC_LANES];
    for l in 0..ERFC_LANES {
        let ans = t[l] * (-z[l] * z[l] + 0.5 * (COF[0] + ty[l] * d[l]) - dd[l]).exp();
        out[l] = if x[l] >= 0.0 { ans } else { 2.0 - ans };
    }
    out
}

/// Batch complementary error function: `out[i] = erfc(xs[i])`.
///
/// The slice is processed in chunks of [`ERFC_LANES`] through one shared
/// pass of the Chebyshev recurrence, which amortizes its serial
/// dependency chain across independent lanes; the ragged tail runs the
/// scalar [`erfc`]. Every lane performs the exact scalar operation
/// sequence, so each output carries the same bits as `erfc(xs[i])`
/// (pinned by test for every length up to four chunks, deep tails,
/// signed zeros, infinities and NaN).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn erfc_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "erfc batch length mismatch");
    let mut xs_chunks = xs.chunks_exact(ERFC_LANES);
    let mut out_chunks = out.chunks_exact_mut(ERFC_LANES);
    for (o, x) in (&mut out_chunks).zip(&mut xs_chunks) {
        let mut lane = [0.0; ERFC_LANES];
        lane.copy_from_slice(x);
        o.copy_from_slice(&erfc_lanes(&lane));
    }
    for (o, &x) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(xs_chunks.remainder())
    {
        *o = erfc(x);
    }
}

/// Cumulative distribution function `Φ(x)` of the standard normal.
///
/// # Example
///
/// ```
/// assert!((ntv_mc::normal::cdf(0.0) - 0.5).abs() < 1e-12);
/// assert!((ntv_mc::normal::cdf(1.6448536269514722) - 0.95).abs() < 1e-7);
/// ```
#[must_use]
pub fn cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// Quantile function `Φ⁻¹(p)` of the standard normal.
///
/// Acklam's rational approximation followed by one Halley refinement step,
/// accurate to machine precision for `p` in the open interval `(0, 1)`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)` (the quantile is infinite at the
/// endpoints; callers sampling maxima use [`crate::rng::StreamRng::uniform_open`]).
///
/// # Example
///
/// ```
/// let z = ntv_mc::normal::quantile(0.99);
/// assert!((z - 2.3263478740408408).abs() < 1e-10);
/// ```
#[must_use]
pub fn quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal quantile requires p in (0, 1), got {p}"
    );

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step: e = Φ(x) − p; x ← x − 2e/(2φ(x) ... ).
    let e = cdf(x) - p;
    let u = e * (2.0 * PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// CDF of a normal with the given mean and standard deviation.
#[must_use]
pub fn cdf_with(x: f64, mean: f64, std_dev: f64) -> f64 {
    cdf((x - mean) / std_dev)
}

/// Quantile of a normal with the given mean and standard deviation.
#[must_use]
pub fn quantile_with(p: f64, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * quantile(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_known_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841344746068543),
            (-1.0, 0.158655253931457),
            (2.0, 0.977249868051821),
            (3.0, 0.998650101968370),
            (-3.0, 0.001349898031630),
        ];
        for (x, want) in cases {
            assert!(
                (cdf(x) - want).abs() < 1e-9,
                "cdf({x}) = {}, want {want}",
                cdf(x)
            );
        }
    }

    #[test]
    fn quantile_round_trips_cdf() {
        for i in 1..200 {
            let p = f64::from(i) / 200.0;
            let x = quantile(p);
            assert!((cdf(x) - p).abs() < 1e-12, "p={p} x={x} cdf={}", cdf(x));
        }
    }

    #[test]
    fn quantile_extreme_tails() {
        for &p in &[1e-12, 1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9] {
            let x = quantile(p);
            assert!((cdf(x) - p).abs() / p.min(1.0 - p) < 1e-6);
        }
    }

    #[test]
    fn quantile_is_monotone() {
        let mut prev = f64::NEG_INFINITY;
        for i in 1..1000 {
            let x = quantile(f64::from(i) / 1000.0);
            assert!(x > prev);
            prev = x;
        }
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.0, 3.5] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_slice_is_bit_identical_to_scalar_erfc() {
        // Every length from empty through four full chunks plus one, so
        // each chunk count meets each ragged-tail width. Values cover both
        // signs, the deep tails where erfc goes subnormal and then
        // underflows to 0 (or saturates at 2), signed zeros, infinities
        // and NaN; each shift moves the edge values to other lanes and
        // into and out of the scalar tail.
        let edges = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            26.0,
            -26.0,
            26.6,
            27.0,
            -27.0,
            27.3,
            28.0,
            30.0,
            -30.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
        ];
        for n in 0..=4 * ERFC_LANES + 1 {
            for shift in 0..edges.len() {
                let xs: Vec<f64> = (0..n)
                    .map(|i| {
                        if (i + shift) % 3 == 0 {
                            edges[(i + shift) % edges.len()]
                        } else {
                            let v = f64::from(i as i32) * 0.37 - 3.1 + 0.91 * shift as f64;
                            if i % 5 == 0 {
                                -v
                            } else {
                                v
                            }
                        }
                    })
                    .collect();
                let mut out = vec![0.0; n];
                erfc_slice(&xs, &mut out);
                for (i, &x) in xs.iter().enumerate() {
                    assert_eq!(
                        out[i].to_bits(),
                        erfc(x).to_bits(),
                        "erfc_slice diverged at n={n} shift={shift} i={i} x={x}"
                    );
                }
            }
        }
    }

    /// The scalar kernel's edge values the lane kernel must reproduce:
    /// one value at ±0 (within an ulp of 1), saturation at the
    /// infinities, underflow past the deep tail, NaN in NaN out.
    #[test]
    fn erfc_edge_values() {
        assert_eq!(erfc(0.0).to_bits(), erfc(-0.0).to_bits());
        assert!((erfc(0.0) - 1.0).abs() <= f64::EPSILON);
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert_eq!(erfc(30.0), 0.0);
        assert_eq!(erfc(-30.0), 2.0);
        let sub = erfc(26.6);
        assert!(sub > 0.0 && sub < f64::MIN_POSITIVE, "erfc(26.6) = {sub:e}");
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    #[should_panic(expected = "erfc batch length mismatch")]
    fn erfc_slice_rejects_length_mismatch() {
        let mut out = [0.0; 2];
        erfc_slice(&[1.0, 2.0, 3.0], &mut out);
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Simpson's rule over [-8, 8], accumulated with the sanctioned
        // fixed-order reducer. The legacy `+=` loop is kept below to pin the
        // migration bit-identical.
        let n = 4000;
        let h = 16.0 / f64::from(n);
        let endpoints = pdf(-8.0) + pdf(8.0);
        // The endpoint term leads the fold so the order matches the legacy
        // `sum = endpoints; sum += term` loop exactly.
        let sum = crate::reduce::sum_ordered(std::iter::once(endpoints).chain((1..n).map(|i| {
            let x = -8.0 + f64::from(i) * h;
            (if i % 2 == 1 { 4.0 } else { 2.0 }) * pdf(x)
        })));
        assert!((sum * h / 3.0 - 1.0).abs() < 1e-10);

        let mut legacy = endpoints;
        for i in 1..n {
            let x = -8.0 + f64::from(i) * h;
            legacy += if i % 2 == 1 { 4.0 } else { 2.0 } * pdf(x);
        }
        assert_eq!(sum.to_bits(), legacy.to_bits());
    }

    #[test]
    #[should_panic(expected = "quantile requires")]
    fn quantile_rejects_zero() {
        let _ = quantile(0.0);
    }

    #[test]
    fn shifted_helpers() {
        assert!((cdf_with(10.0, 10.0, 3.0) - 0.5).abs() < 1e-12);
        assert!((quantile_with(0.5, 10.0, 3.0) - 10.0).abs() < 1e-12);
    }
}
