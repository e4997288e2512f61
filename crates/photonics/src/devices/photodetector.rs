//! Photodetector model (thin wrapper around the receiver model of
//! `onoc-ber`, plus the optical-side parameters that belong to the device).

use onoc_ber::ReceiverModel;
use onoc_units::{AmpsPerWatt, Microamps, Microwatts};

/// A photodetector characterised by its responsivity and dark current.
///
/// ```
/// use onoc_photonics::devices::Photodetector;
/// use onoc_units::Microwatts;
///
/// let pd = Photodetector::paper_photodetector();
/// let current = pd.photocurrent(Microwatts::new(91.0));
/// assert!((current.value() - 91.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Photodetector {
    responsivity: AmpsPerWatt,
    dark_current: Microamps,
}

impl Photodetector {
    /// Creates a photodetector.
    ///
    /// # Panics
    ///
    /// Panics if responsivity or dark current are non-positive.
    #[must_use]
    pub fn new(responsivity: AmpsPerWatt, dark_current: Microamps) -> Self {
        assert!(responsivity.value() > 0.0, "responsivity must be positive");
        assert!(dark_current.value() > 0.0, "dark current must be positive");
        Self {
            responsivity,
            dark_current,
        }
    }

    /// The detector assumed by the paper: 1 A/W responsivity, 4 µA dark
    /// current.
    #[must_use]
    pub fn paper_photodetector() -> Self {
        Self::new(AmpsPerWatt::new(1.0), Microamps::new(4.0))
    }

    /// Responsivity.
    #[must_use]
    pub fn responsivity(&self) -> AmpsPerWatt {
        self.responsivity
    }

    /// Dark current.
    #[must_use]
    pub fn dark_current(&self) -> Microamps {
        self.dark_current
    }

    /// Photocurrent for a given incident optical power.
    #[must_use]
    pub fn photocurrent(&self, power: Microwatts) -> Microamps {
        self.responsivity.photocurrent(power)
    }

    /// The equivalent decision-circuit model used by the BER math.
    #[must_use]
    pub fn to_receiver_model(self) -> ReceiverModel {
        ReceiverModel::new(self.responsivity, self.dark_current)
    }
}

impl Default for Photodetector {
    fn default() -> Self {
        Self::paper_photodetector()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let pd = Photodetector::paper_photodetector();
        assert_eq!(pd.responsivity().value(), 1.0);
        assert_eq!(pd.dark_current().value(), 4.0);
    }

    #[test]
    fn receiver_model_round_trip() {
        let pd = Photodetector::paper_photodetector();
        let rx = pd.to_receiver_model();
        let signal = rx.required_signal_power(22.75, Microwatts::zero());
        assert!((signal.value() - 91.0).abs() < 0.01);
    }

    #[test]
    fn photocurrent_scales_with_responsivity() {
        let pd = Photodetector::new(AmpsPerWatt::new(0.5), Microamps::new(4.0));
        assert!((pd.photocurrent(Microwatts::new(100.0)).value() - 50.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dark current")]
    fn zero_dark_current_rejected() {
        let _ = Photodetector::new(AmpsPerWatt::new(1.0), Microamps::new(0.0));
    }
}
