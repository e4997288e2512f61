//! Silicon waveguide propagation-loss model.

use onoc_units::{Centimeters, Decibels, DecibelsPerCentimeter, LinearRatio};

/// A straight silicon waveguide section characterised by its length and
/// propagation loss.
///
/// The paper assumes a 6 cm waveguide with 0.274 dB/cm loss (ref. \[17\]).
///
/// ```
/// use onoc_photonics::devices::Waveguide;
/// let wg = Waveguide::paper_waveguide();
/// assert!((wg.total_loss().value() - 1.644).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waveguide {
    length: Centimeters,
    loss_per_cm: DecibelsPerCentimeter,
}

impl Waveguide {
    /// Creates a waveguide from its length and per-centimetre loss.
    #[must_use]
    pub fn new(length: Centimeters, loss_per_cm: DecibelsPerCentimeter) -> Self {
        Self {
            length,
            loss_per_cm,
        }
    }

    /// The 6 cm, 0.274 dB/cm waveguide of the paper.
    #[must_use]
    pub fn paper_waveguide() -> Self {
        Self::new(Centimeters::new(6.0), DecibelsPerCentimeter::new(0.274))
    }

    /// Physical length.
    #[must_use]
    pub fn length(&self) -> Centimeters {
        self.length
    }

    /// Propagation loss per centimetre.
    #[must_use]
    pub fn loss_per_cm(&self) -> DecibelsPerCentimeter {
        self.loss_per_cm
    }

    /// Total propagation loss end to end.
    #[must_use]
    pub fn total_loss(&self) -> Decibels {
        self.loss_per_cm.over(self.length)
    }

    /// Loss accumulated over the first `distance` of the waveguide.
    ///
    /// # Panics
    ///
    /// Panics if `distance` exceeds the waveguide length.
    #[must_use]
    pub fn loss_over(&self, distance: Centimeters) -> Decibels {
        assert!(
            distance.value() <= self.length.value() + 1e-12,
            "distance exceeds the waveguide length"
        );
        self.loss_per_cm.over(distance)
    }

    /// End-to-end power transmission factor.
    #[must_use]
    pub fn transmission(&self) -> LinearRatio {
        self.total_loss().to_attenuation()
    }
}

impl Default for Waveguide {
    fn default() -> Self {
        Self::paper_waveguide()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_waveguide_loss() {
        let wg = Waveguide::paper_waveguide();
        assert!((wg.total_loss().value() - 1.644).abs() < 1e-9);
        assert!((wg.transmission().value() - 0.685).abs() < 1e-2);
        assert_eq!(wg.length().value(), 6.0);
        assert_eq!(wg.loss_per_cm().value(), 0.274);
    }

    #[test]
    fn partial_loss_scales_linearly_in_db() {
        let wg = Waveguide::paper_waveguide();
        let half = wg.loss_over(Centimeters::new(3.0));
        assert!((half.value() * 2.0 - wg.total_loss().value()).abs() < 1e-12);
    }

    #[test]
    fn zero_length_waveguide_is_lossless() {
        let wg = Waveguide::new(Centimeters::zero(), DecibelsPerCentimeter::new(0.274));
        assert!((wg.transmission().value() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds the waveguide length")]
    fn distance_beyond_length_panics() {
        let wg = Waveguide::paper_waveguide();
        let _ = wg.loss_over(Centimeters::new(7.0));
    }
}
