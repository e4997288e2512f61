//! Analytic bit-error-rate transfer functions.
//!
//! The paper's Section IV-D characterises the decoded BER of a Hamming code as
//!
//! ```text
//! BER = p − p·(1 − p)^(n−1)          (Eq. 2)
//! ```
//!
//! where `p` is the raw (channel) bit-error probability and `n` the block
//! length.  This module implements Eq. 2, equivalent transfer functions for
//! the other code families in this crate, and the numerical inversion needed
//! to answer the design question the paper actually asks: *given a target
//! decoded BER, how bad may the raw channel be?*  The answer (`p`) then feeds
//! the SNR/optical-power chain of `onoc-ber` and `onoc-photonics`.

use crate::scheme::EccScheme;

/// Decoded BER of the paper's Hamming model (Eq. 2) for a raw error
/// probability `p` and block length `n`.
///
/// ```
/// use onoc_ecc_codes::ber::hamming_output_ber;
/// let out = hamming_output_ber(1e-6, 7);
/// // ≈ (n−1)·p² for small p.
/// assert!((out / 6e-12 - 1.0).abs() < 1e-3);
/// ```
#[must_use]
pub fn hamming_output_ber(p: f64, n: usize) -> f64 {
    assert!((0.0..=0.5).contains(&p), "raw BER must be in [0, 0.5]");
    assert!(n >= 2, "block length must be at least 2");
    p - p * (1.0 - p).powi(n as i32 - 1)
}

/// Decoded BER of an odd-`r` repetition code (majority vote).
#[must_use]
pub fn repetition_output_ber(p: f64, repetitions: usize) -> f64 {
    assert!((0.0..=0.5).contains(&p), "raw BER must be in [0, 0.5]");
    assert!(
        repetitions >= 3 && repetitions % 2 == 1,
        "repetitions must be odd and >= 3"
    );
    let r = repetitions;
    let mut sum = 0.0;
    for errors in (r / 2 + 1)..=r {
        sum += binomial(r, errors) * p.powi(errors as i32) * (1.0 - p).powi((r - errors) as i32);
    }
    sum
}

/// Decoded BER of a given scheme as a function of the raw channel BER.
#[must_use]
pub fn coded_ber(scheme: EccScheme, raw_ber: f64) -> f64 {
    match scheme {
        EccScheme::Uncoded => raw_ber,
        EccScheme::ParityOnly => raw_ber,
        EccScheme::Repetition3 => repetition_output_ber(raw_ber, 3),
        _ => hamming_output_ber(raw_ber, scheme.block_length()),
    }
}

/// Largest raw channel BER that still meets `target_ber` after decoding with
/// `scheme`.
///
/// This is the inversion of Eq. 2 that Section IV-D alludes to ("Calculating
/// the SNR from BER when considering Hamming codes requires to invert
/// Equations 3 and 2"); it is solved by bisection since the transfer function
/// is strictly increasing in `p`.
///
/// # Panics
///
/// Panics if `target_ber` is not in `(0, 0.5)`.
///
/// ```
/// use onoc_ecc_codes::{raw_ber_for_target, EccScheme};
/// let p = raw_ber_for_target(EccScheme::Hamming74, 1e-11);
/// // The channel may be ~5 orders of magnitude noisier than the target.
/// assert!(p > 1e-6 && p < 1e-5);
/// ```
#[must_use]
pub fn raw_ber_for_target(scheme: EccScheme, target_ber: f64) -> f64 {
    assert!(
        target_ber > 0.0 && target_ber < 0.5,
        "target BER must be in (0, 0.5)"
    );
    if matches!(scheme, EccScheme::Uncoded | EccScheme::ParityOnly) {
        return target_ber;
    }
    let mut lo = 0.0f64;
    let mut hi = 0.5f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if coded_ber(scheme, mid) > target_ber {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// Summary of a code's analytic performance at a given operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodePerformance {
    /// Scheme under evaluation.
    pub scheme: EccScheme,
    /// Target decoded BER.
    pub target_ber: f64,
    /// Maximum tolerable raw channel BER.
    pub raw_ber: f64,
    /// Coding gain expressed as the ratio `raw_ber / target_ber`.
    pub raw_ber_relaxation: f64,
    /// Relative communication-time overhead (`n/k`).
    pub communication_time_factor: f64,
}

impl CodePerformance {
    /// Evaluates `scheme` at `target_ber`.
    ///
    /// # Panics
    ///
    /// Panics if `target_ber` is not in `(0, 0.5)`.
    #[must_use]
    pub fn evaluate(scheme: EccScheme, target_ber: f64) -> Self {
        let raw_ber = raw_ber_for_target(scheme, target_ber);
        Self {
            scheme,
            target_ber,
            raw_ber,
            raw_ber_relaxation: raw_ber / target_ber,
            communication_time_factor: scheme.communication_time_factor(),
        }
    }
}

/// Binomial coefficient as `f64` (exact for the small arguments used here).
fn binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut result = 1.0;
    for i in 0..k {
        result = result * (n - i) as f64 / (i + 1) as f64;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_ber_small_p_quadratic() {
        // BER_out ≈ (n−1) p² for p → 0.
        for &(p, n) in &[(1e-4, 7usize), (1e-5, 71), (1e-6, 127)] {
            let exact = hamming_output_ber(p, n);
            let approx = (n - 1) as f64 * p * p;
            assert!((exact / approx - 1.0).abs() < 0.01, "p={p}, n={n}");
        }
    }

    #[test]
    fn hamming_ber_is_monotone_in_p() {
        let mut last = 0.0;
        for i in 1..100 {
            let p = i as f64 * 0.005;
            let out = hamming_output_ber(p, 7);
            assert!(out >= last);
            last = out;
        }
    }

    #[test]
    fn coding_always_improves_ber_for_small_p() {
        for &p in &[1e-3, 1e-4, 1e-6] {
            assert!(hamming_output_ber(p, 7) < p);
            assert!(hamming_output_ber(p, 71) < p);
            assert!(repetition_output_ber(p, 3) < p);
        }
    }

    #[test]
    fn repetition_ber_matches_closed_form_r3() {
        // r = 3: BER = 3p²(1−p) + p³.
        let p: f64 = 0.01;
        let expected = 3.0 * p * p * (1.0 - p) + p.powi(3);
        assert!((repetition_output_ber(p, 3) - expected).abs() < 1e-15);
    }

    #[test]
    fn raw_ber_inversion_round_trips() {
        for scheme in [
            EccScheme::Hamming74,
            EccScheme::Hamming7164,
            EccScheme::Hamming1511,
            EccScheme::Secded7264,
            EccScheme::Repetition3,
        ] {
            for &target in &[1e-3, 1e-6, 1e-9, 1e-12] {
                let p = raw_ber_for_target(scheme, target);
                let back = coded_ber(scheme, p);
                assert!(
                    (back - target).abs() / target < 1e-6,
                    "{scheme:?} target {target}: back {back}"
                );
            }
        }
    }

    #[test]
    fn uncoded_inversion_is_identity() {
        assert_eq!(raw_ber_for_target(EccScheme::Uncoded, 1e-9), 1e-9);
    }

    #[test]
    fn shorter_blocks_tolerate_noisier_channels() {
        // H(7,4) has fewer chances of a double error per block than H(71,64),
        // so for the same target BER it tolerates a larger raw BER.  This is
        // exactly why the paper finds the lowest laser power with H(7,4).
        let target = 1e-11;
        let p74 = raw_ber_for_target(EccScheme::Hamming74, target);
        let p7164 = raw_ber_for_target(EccScheme::Hamming7164, target);
        assert!(p74 > p7164);
        assert!(p7164 > target);
    }

    #[test]
    fn performance_summary_is_consistent() {
        let perf = CodePerformance::evaluate(EccScheme::Hamming74, 1e-9);
        assert_eq!(perf.scheme, EccScheme::Hamming74);
        assert!((perf.communication_time_factor - 1.75).abs() < 1e-12);
        assert!(perf.raw_ber_relaxation > 1.0);
        assert!((perf.raw_ber / perf.target_ber - perf.raw_ber_relaxation).abs() < 1e-9);
    }

    #[test]
    fn binomial_reference_values() {
        assert_eq!(binomial(3, 2), 3.0);
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(7, 3), 35.0);
    }

    #[test]
    #[should_panic(expected = "raw BER")]
    fn out_of_range_p_panics() {
        let _ = hamming_output_ber(0.6, 7);
    }

    #[test]
    #[should_panic(expected = "target BER")]
    fn out_of_range_target_panics() {
        let _ = raw_ber_for_target(EccScheme::Hamming74, 0.0);
    }
}
