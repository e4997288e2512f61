//! SNR ↔ BER conversions for OOK detection, with and without coding.
//!
//! The paper's Eq. 1 and Eq. 3 describe uncoded OOK detection:
//!
//! ```text
//! p = ½ · erfc(√SNR)              (Eq. 3: raw channel BER at a given SNR)
//! SNR = [erfc⁻¹(2·p)]²            (Eq. 1, written with the equivalent
//!                                  erf⁻¹(1 − 2·p) in the paper)
//! ```
//!
//! With an ECC the *decoded* BER is related to the raw `p` by the code's
//! transfer function (Eq. 2, implemented in [`onoc_ecc_codes::ber`]); the SNR
//! requirement for a target decoded BER is obtained by inverting that
//! transfer function first and then applying Eq. 1 to the resulting raw BER.

use onoc_ecc_codes::ber::raw_ber_for_target;
use onoc_ecc_codes::EccScheme;

use crate::math::{erfc, erfc_inv};

/// Raw channel BER of uncoded OOK detection at a given (linear) SNR (Eq. 3).
///
/// # Panics
///
/// Panics if `snr` is negative.
///
/// ```
/// use onoc_ber::snr::ber_from_snr;
/// // SNR ≈ 22.75 corresponds to a 1e-11 error rate.
/// let ber = ber_from_snr(22.75);
/// assert!(ber > 0.5e-11 && ber < 2e-11);
/// ```
#[must_use]
pub fn ber_from_snr(snr: f64) -> f64 {
    assert!(snr >= 0.0, "SNR must be non-negative");
    0.5 * erfc(snr.sqrt())
}

/// Linear SNR required for an uncoded OOK link to reach `ber` (Eq. 1).
///
/// # Panics
///
/// Panics unless `0 < ber < 0.5`.
///
/// ```
/// use onoc_ber::snr::{ber_from_snr, snr_from_ber_uncoded};
/// let snr = snr_from_ber_uncoded(1e-9);
/// assert!((ber_from_snr(snr) - 1e-9).abs() / 1e-9 < 1e-4);
/// ```
#[must_use]
pub fn snr_from_ber_uncoded(ber: f64) -> f64 {
    assert!(ber > 0.0 && ber < 0.5, "BER must be in (0, 0.5)");
    let x = erfc_inv(2.0 * ber);
    x * x
}

/// Linear SNR required on the optical channel so that, after decoding with
/// `scheme`, the delivered BER meets `target_ber`.
///
/// For [`EccScheme::Uncoded`] this reduces to Eq. 1; for coded schemes the
/// channel may run at the (larger) raw BER tolerated by the code, which is
/// exactly the mechanism that lets the laser output power drop.
///
/// # Panics
///
/// Panics unless `0 < target_ber < 0.5`.
///
/// ```
/// use onoc_ber::snr::required_snr;
/// use onoc_ecc_codes::EccScheme;
///
/// let uncoded = required_snr(EccScheme::Uncoded, 1e-11);
/// let h74 = required_snr(EccScheme::Hamming74, 1e-11);
/// let h7164 = required_snr(EccScheme::Hamming7164, 1e-11);
/// assert!(uncoded > h7164 && h7164 > h74);
/// ```
#[must_use]
pub fn required_snr(scheme: EccScheme, target_ber: f64) -> f64 {
    let raw = raw_ber_for_target(scheme, target_ber);
    snr_from_ber_uncoded(raw)
}

/// Coding gain of `scheme` at `target_ber`, in decibels of SNR relaxation
/// relative to the uncoded link.
///
/// # Panics
///
/// Panics unless `0 < target_ber < 0.5`.
#[must_use]
pub fn coding_gain_db(scheme: EccScheme, target_ber: f64) -> f64 {
    let uncoded = required_snr(EccScheme::Uncoded, target_ber);
    let coded = required_snr(scheme, target_ber);
    10.0 * (uncoded / coded).log10()
}

/// A (BER target → SNR requirement) table row, convenient for sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnrRequirement {
    /// Coding scheme.
    pub scheme: EccScheme,
    /// Target decoded BER.
    pub target_ber: f64,
    /// Maximum raw channel BER tolerated by the scheme.
    pub raw_ber: f64,
    /// Required linear SNR on the optical channel.
    pub snr: f64,
    /// Required SNR in dB.
    pub snr_db: f64,
}

impl SnrRequirement {
    /// Evaluates the requirement for one (scheme, target) pair.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_ber < 0.5`.
    #[must_use]
    pub fn evaluate(scheme: EccScheme, target_ber: f64) -> Self {
        let raw_ber = raw_ber_for_target(scheme, target_ber);
        let snr = snr_from_ber_uncoded(raw_ber);
        Self {
            scheme,
            target_ber,
            raw_ber,
            snr,
            snr_db: 10.0 * snr.log10(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_eq3_are_mutual_inverses() {
        for &ber in &[1e-3, 1e-6, 1e-9, 1e-12] {
            let snr = snr_from_ber_uncoded(ber);
            let back = ber_from_snr(snr);
            assert!((back - ber).abs() / ber < 1e-4, "ber {ber}");
        }
    }

    #[test]
    fn uncoded_snr_reference_point() {
        // erfc_inv(2e-11) ≈ 4.77 → SNR ≈ 22.7 (linear), ≈ 13.6 dB.
        let snr = snr_from_ber_uncoded(1e-11);
        assert!(snr > 22.0 && snr < 23.5, "snr = {snr}");
    }

    #[test]
    fn required_snr_is_monotone_in_target() {
        for scheme in [
            EccScheme::Uncoded,
            EccScheme::Hamming74,
            EccScheme::Hamming7164,
        ] {
            let strict = required_snr(scheme, 1e-12);
            let loose = required_snr(scheme, 1e-6);
            assert!(strict > loose, "{scheme}");
        }
    }

    #[test]
    fn coded_schemes_need_less_snr_than_uncoded() {
        for &target in &[1e-6, 1e-9, 1e-11, 1e-12] {
            let uncoded = required_snr(EccScheme::Uncoded, target);
            for scheme in [
                EccScheme::Hamming74,
                EccScheme::Hamming7164,
                EccScheme::Hamming1511,
            ] {
                assert!(
                    required_snr(scheme, target) < uncoded,
                    "{scheme} at {target}"
                );
            }
        }
    }

    #[test]
    fn h74_needs_less_snr_than_h7164() {
        // Shorter blocks suffer fewer double errors, so H(7,4) tolerates the
        // noisiest channel — the ordering behind Fig. 5 of the paper.
        let h74 = required_snr(EccScheme::Hamming74, 1e-11);
        let h7164 = required_snr(EccScheme::Hamming7164, 1e-11);
        assert!(h74 < h7164);
        // The relaxation is roughly a factor of two in linear SNR.
        let uncoded = required_snr(EccScheme::Uncoded, 1e-11);
        assert!(uncoded / h74 > 1.9 && uncoded / h74 < 2.6);
    }

    #[test]
    fn coding_gain_is_positive_and_increases_with_ber_strictness() {
        let loose = coding_gain_db(EccScheme::Hamming74, 1e-6);
        let strict = coding_gain_db(EccScheme::Hamming74, 1e-12);
        assert!(loose > 0.0);
        assert!(strict > loose);
        // Around 3-4 dB of coding gain at 1e-12 for H(7,4).
        assert!(strict > 2.5 && strict < 5.0, "gain = {strict}");
    }

    #[test]
    fn uncoded_coding_gain_is_zero() {
        assert!(coding_gain_db(EccScheme::Uncoded, 1e-9).abs() < 1e-9);
    }

    #[test]
    fn snr_requirement_row_is_self_consistent() {
        let row = SnrRequirement::evaluate(EccScheme::Hamming7164, 1e-11);
        assert!(row.raw_ber > row.target_ber);
        assert!((row.snr_db - 10.0 * row.snr.log10()).abs() < 1e-9);
        assert!((ber_from_snr(row.snr) - row.raw_ber).abs() / row.raw_ber < 1e-4);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_snr_panics() {
        let _ = ber_from_snr(-1.0);
    }

    #[test]
    #[should_panic(expected = "BER must be in")]
    fn ber_out_of_range_panics() {
        let _ = snr_from_ber_uncoded(0.7);
    }
}
