//! Micro-ring resonance drift vs. temperature.
//!
//! Silicon's thermo-optic coefficient (dn/dT ≈ 1.8·10⁻⁴ K⁻¹) red-shifts a
//! ring resonance by roughly 0.1 nm/K around 1550 nm.  The drift is linear
//! over the temperature range of interest (25–85 °C), so the model is a
//! slope plus the calibration temperature at which the ring bank was aligned
//! to the wavelength grid.

use onoc_units::{Celsius, KelvinDelta};

/// A signed resonance shift in nanometres.
///
/// Positive values are red shifts (heating moves the resonance to longer
/// wavelengths).  This is its own type rather than `Nanometers` because the
/// workspace's `Nanometers` is an absolute, non-negative wavelength.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct ResonanceDrift(f64);

impl ResonanceDrift {
    /// Creates a drift of `nanometers` (signed).
    ///
    /// # Panics
    ///
    /// Panics if the value is not finite.
    #[must_use]
    pub fn new(nanometers: f64) -> Self {
        assert!(nanometers.is_finite(), "resonance drift must be finite");
        Self(nanometers)
    }

    /// No drift.
    #[must_use]
    pub fn zero() -> Self {
        Self(0.0)
    }

    /// The signed shift in nanometres.
    #[must_use]
    pub fn nanometers(self) -> f64 {
        self.0
    }

    /// Magnitude of the shift.
    #[must_use]
    pub fn abs(self) -> Self {
        Self(self.0.abs())
    }

    /// `true` when there is no shift at all.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl std::fmt::Display for ResonanceDrift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(precision) = f.precision() {
            write!(f, "{:+.*} nm", precision, self.0)
        } else {
            write!(f, "{:+} nm", self.0)
        }
    }
}

/// Linear resonance-drift model of a micro-ring bank.
///
/// ```
/// use onoc_thermal::RingThermalModel;
/// use onoc_units::Celsius;
///
/// let rings = RingThermalModel::paper_silicon();
/// assert!(rings.drift_at(Celsius::new(25.0)).is_zero());
/// // Heating red-shifts: +0.1 nm/K.
/// assert!((rings.drift_at(Celsius::new(35.0)).nanometers() - 1.0).abs() < 1e-9);
/// // Cooling blue-shifts symmetrically.
/// assert!((rings.drift_at(Celsius::new(15.0)).nanometers() + 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingThermalModel {
    /// Resonance shift per kelvin of temperature rise, in nm/K.
    pub drift_nm_per_kelvin: f64,
    /// Temperature at which the ring bank is aligned to the wavelength grid.
    pub calibration: Celsius,
}

impl RingThermalModel {
    /// Creates a model from the drift slope and calibration temperature.
    ///
    /// # Panics
    ///
    /// Panics if the slope is not finite and non-negative.
    #[must_use]
    pub fn new(drift_nm_per_kelvin: f64, calibration: Celsius) -> Self {
        assert!(
            drift_nm_per_kelvin.is_finite() && drift_nm_per_kelvin >= 0.0,
            "drift slope must be finite and non-negative"
        );
        Self {
            drift_nm_per_kelvin,
            calibration,
        }
    }

    /// The silicon micro-ring drift assumed throughout the reproduction:
    /// dλ/dT = 0.1 nm/K, calibrated at the paper's 25 °C ambient.
    #[must_use]
    pub fn paper_silicon() -> Self {
        Self::new(0.1, Celsius::new(25.0))
    }

    /// Temperature excursion of `temperature` from the calibration point.
    #[must_use]
    pub fn delta_at(&self, temperature: Celsius) -> KelvinDelta {
        temperature.delta_to(self.calibration)
    }

    /// Free-running (uncompensated) resonance drift at `temperature`.
    #[must_use]
    pub fn drift_at(&self, temperature: Celsius) -> ResonanceDrift {
        self.drift_for(self.delta_at(temperature))
    }

    /// Resonance drift produced by a temperature excursion `delta`.
    #[must_use]
    pub fn drift_for(&self, delta: KelvinDelta) -> ResonanceDrift {
        ResonanceDrift::new(self.drift_nm_per_kelvin * delta.value())
    }
}

impl Default for RingThermalModel {
    fn default() -> Self {
        Self::paper_silicon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_zero_at_the_calibration_temperature() {
        let rings = RingThermalModel::paper_silicon();
        assert!(rings.drift_at(Celsius::new(25.0)).is_zero());
    }

    #[test]
    fn drift_magnitude_is_monotone_in_the_excursion() {
        let rings = RingThermalModel::paper_silicon();
        let mut last = -1.0;
        for dt in 0..=60 {
            let hot = rings.drift_at(Celsius::new(25.0 + f64::from(dt)));
            let cold = rings.drift_at(Celsius::new(25.0 - f64::from(dt)));
            assert!(
                (hot.nanometers() + cold.nanometers()).abs() < 1e-12,
                "symmetry"
            );
            assert!(hot.abs().nanometers() > last, "monotone at ΔT = {dt}");
            last = hot.abs().nanometers();
        }
    }

    #[test]
    fn paper_slope_matches_silicon() {
        let rings = RingThermalModel::paper_silicon();
        let drift = rings.drift_at(Celsius::new(85.0));
        assert!((drift.nanometers() - 6.0).abs() < 1e-9);
        assert!((rings.delta_at(Celsius::new(85.0)).value() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn drift_display_is_signed() {
        assert_eq!(format!("{:.2}", ResonanceDrift::new(0.5)), "+0.50 nm");
        assert_eq!(format!("{:.2}", ResonanceDrift::new(-0.5)), "-0.50 nm");
    }

    #[test]
    #[should_panic(expected = "drift slope")]
    fn negative_slope_rejected() {
        let _ = RingThermalModel::new(-0.1, Celsius::new(25.0));
    }
}
