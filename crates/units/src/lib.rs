//! Physical-quantity newtypes for the nanophotonic-interconnect ECC reproduction.
//!
//! The models in the rest of the workspace (micro-ring resonators, VCSEL lasers,
//! link budgets, channel power accounting) juggle quantities expressed in many
//! different units: optical power in milliwatts and microwatts, attenuations in
//! decibels, energy-per-bit figures in picojoules, wavelengths in nanometres,
//! modulation rates in Gb/s, silicon area in µm², and so on.  Mixing those up
//! silently is the classic source of bugs in link-budget code, so every quantity
//! gets its own newtype with explicit conversions ([C-NEWTYPE]).
//!
//! # Example
//!
//! ```
//! use onoc_units::{Milliwatts, Microwatts, Decibels};
//!
//! let laser = Milliwatts::new(14.3);
//! let swing = Microwatts::new(91.0);
//! let loss = Decibels::new(1.644);
//!
//! // Apply a loss to an optical power.
//! let after = Microwatts::from(laser).attenuated_by(loss);
//! assert!(after.value() < Microwatts::from(laser).value());
//! assert!(swing < after);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod quantity;

pub mod area;
pub mod current;
pub mod energy;
pub mod frequency;
pub mod length;
pub mod power;
pub mod ratio;
pub mod temperature;
pub mod time;

pub use area::SquareMicrometers;
pub use current::Microamps;
pub use energy::{Femtojoules, Picojoules, PicojoulesPerBit};
pub use frequency::{GigabitsPerSecond, Gigahertz, Hertz};
pub use length::{Centimeters, Micrometers, Nanometers};
pub use power::{Microwatts, Milliwatts, Nanowatts, Watts};
pub use ratio::{Decibels, DecibelsPerCentimeter, LinearRatio};
pub use temperature::{Celsius, Kelvin, KelvinDelta};
pub use time::{Nanoseconds, Picoseconds, Seconds};

/// Responsivity of a photodetector, in amperes per watt.
///
/// The paper assumes a responsivity of 1 A/W (Section IV-D).
///
/// ```
/// use onoc_units::{AmpsPerWatt, Microwatts};
/// let r = AmpsPerWatt::new(1.0);
/// let photocurrent = r.photocurrent(Microwatts::new(91.0));
/// assert!((photocurrent.value() - 91.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct AmpsPerWatt(f64);

impl AmpsPerWatt {
    /// Creates a new responsivity value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not finite.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "responsivity must be finite and non-negative"
        );
        Self(value)
    }

    /// Returns the raw value in A/W.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Photocurrent generated by `optical_power` incident on the detector.
    ///
    /// Because the responsivity is expressed in A/W, feeding in µW yields µA.
    #[must_use]
    pub fn photocurrent(self, optical_power: Microwatts) -> Microamps {
        Microamps::new(self.0 * optical_power.value())
    }
}

impl std::fmt::Display for AmpsPerWatt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} A/W", self.0)
    }
}

impl Default for AmpsPerWatt {
    fn default() -> Self {
        Self::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responsivity_photocurrent_is_linear() {
        let r = AmpsPerWatt::new(0.8);
        let i = r.photocurrent(Microwatts::new(100.0));
        assert!((i.value() - 80.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "responsivity")]
    fn responsivity_rejects_negative() {
        let _ = AmpsPerWatt::new(-1.0);
    }

    #[test]
    fn responsivity_display() {
        assert_eq!(AmpsPerWatt::new(1.0).to_string(), "1 A/W");
    }

    #[test]
    fn responsivity_default_is_one() {
        assert_eq!(AmpsPerWatt::default().value(), 1.0);
    }
}
