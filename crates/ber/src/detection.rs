//! Receiver detection model (Eq. 4 of the paper).
//!
//! The paper relates the SNR seen by the decision circuit to the optical
//! signal power at the photodetector through
//!
//! ```text
//! SNR = ℜ · (OP_signal − OP_crosstalk) / i_n          (Eq. 4)
//! ```
//!
//! where `ℜ` is the photodetector responsivity (1 A/W), `i_n` the dark
//! current (4 µA) and `OP_crosstalk` the worst-case crosstalk power collected
//! from the other wavelengths of the MWSR channel.  Inverting Eq. 4 gives the
//! optical signal power the link budget must deliver for a required SNR.

use onoc_units::{AmpsPerWatt, Microamps, Microwatts};

/// Photodetector + decision-circuit model.
///
/// ```
/// use onoc_ber::ReceiverModel;
/// use onoc_units::{AmpsPerWatt, Microamps, Microwatts};
///
/// let rx = ReceiverModel::new(AmpsPerWatt::new(1.0), Microamps::new(4.0));
/// let signal = rx.required_signal_power(22.75, Microwatts::new(5.0));
/// // 22.75 × 4 µA / 1 A/W + 5 µW of crosstalk headroom = 96 µW.
/// assert!((signal.value() - 96.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverModel {
    responsivity: AmpsPerWatt,
    dark_current: Microamps,
}

impl ReceiverModel {
    /// Creates a receiver model from its responsivity and dark current.
    ///
    /// # Panics
    ///
    /// Panics if the dark current is zero (the SNR of Eq. 4 would diverge).
    #[must_use]
    pub fn new(responsivity: AmpsPerWatt, dark_current: Microamps) -> Self {
        assert!(
            dark_current.value() > 0.0,
            "dark current must be strictly positive"
        );
        assert!(
            responsivity.value() > 0.0,
            "responsivity must be strictly positive"
        );
        Self {
            responsivity,
            dark_current,
        }
    }

    /// The receiver assumed throughout the paper: ℜ = 1 A/W, i_n = 4 µA.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self::new(AmpsPerWatt::new(1.0), Microamps::new(4.0))
    }

    /// Photodetector responsivity.
    #[must_use]
    pub fn responsivity(&self) -> AmpsPerWatt {
        self.responsivity
    }

    /// Photodetector dark current.
    #[must_use]
    pub fn dark_current(&self) -> Microamps {
        self.dark_current
    }

    /// SNR produced by a received `signal` power in the presence of
    /// `crosstalk` (Eq. 4).  Returns 0 when the crosstalk exceeds the signal.
    #[must_use]
    pub fn snr(&self, signal: Microwatts, crosstalk: Microwatts) -> f64 {
        let net = signal.value() - crosstalk.value();
        if net <= 0.0 {
            return 0.0;
        }
        self.responsivity.value() * net / self.dark_current.value()
    }

    /// Optical signal power required at the photodetector to reach `snr`
    /// given `crosstalk` (the inversion of Eq. 4).
    ///
    /// # Panics
    ///
    /// Panics if `snr` is negative.
    #[must_use]
    pub fn required_signal_power(&self, snr: f64, crosstalk: Microwatts) -> Microwatts {
        assert!(snr >= 0.0, "SNR must be non-negative");
        let net = snr * self.dark_current.value() / self.responsivity.value();
        Microwatts::new(net + crosstalk.value())
    }
}

impl Default for ReceiverModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_round_trip() {
        let rx = ReceiverModel::paper_defaults();
        assert_eq!(rx.responsivity().value(), 1.0);
        assert_eq!(rx.dark_current().value(), 4.0);
    }

    #[test]
    fn snr_and_required_power_are_inverses() {
        let rx = ReceiverModel::paper_defaults();
        for &(snr, xtalk) in &[(22.75, 0.0), (10.8, 3.0), (5.0, 12.5)] {
            let p = rx.required_signal_power(snr, Microwatts::new(xtalk));
            let back = rx.snr(p, Microwatts::new(xtalk));
            assert!((back - snr).abs() < 1e-9, "snr {snr}");
        }
    }

    #[test]
    fn snr_saturates_at_zero_when_crosstalk_dominates() {
        let rx = ReceiverModel::paper_defaults();
        assert_eq!(rx.snr(Microwatts::new(2.0), Microwatts::new(5.0)), 0.0);
    }

    #[test]
    fn higher_responsivity_needs_less_signal() {
        let weak = ReceiverModel::new(AmpsPerWatt::new(0.5), Microamps::new(4.0));
        let strong = ReceiverModel::new(AmpsPerWatt::new(1.2), Microamps::new(4.0));
        let p_weak = weak.required_signal_power(20.0, Microwatts::zero());
        let p_strong = strong.required_signal_power(20.0, Microwatts::zero());
        assert!(p_strong.value() < p_weak.value());
    }

    #[test]
    fn crosstalk_adds_linearly_to_the_requirement() {
        let rx = ReceiverModel::paper_defaults();
        let base = rx.required_signal_power(20.0, Microwatts::zero());
        let with = rx.required_signal_power(20.0, Microwatts::new(7.5));
        assert!((with.value() - base.value() - 7.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dark current")]
    fn zero_dark_current_rejected() {
        let _ = ReceiverModel::new(AmpsPerWatt::new(1.0), Microamps::new(0.0));
    }

    #[test]
    #[should_panic(expected = "SNR must be non-negative")]
    fn negative_snr_requirement_panics() {
        let rx = ReceiverModel::paper_defaults();
        let _ = rx.required_signal_power(-1.0, Microwatts::zero());
    }
}
