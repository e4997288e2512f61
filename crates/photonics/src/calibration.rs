//! Calibrated parameter sets.
//!
//! [`PaperCalibration::dac17`] collects every physical constant quoted in the
//! paper (Section IV-D and V-B) plus the handful of parameters the paper
//! leaves implicit (multiplexer insertion loss, drop-filter loss, per-ring
//! crossing loss, ring linewidth).  The implicit parameters are chosen so
//! that the resulting link budget reproduces the anchor behaviours of the
//! evaluation:
//!
//! * the uncoded transmission at BER = 10⁻¹¹ is *feasible* but close to the
//!   700 µW laser ceiling (P_laser ≈ 14 mW),
//! * BER = 10⁻¹² is *infeasible* without coding but feasible with H(7,4) and
//!   H(71,64),
//! * the laser power drops by roughly a factor of two with either Hamming
//!   code at iso-BER.
//!
//! EXPERIMENTS.md documents the residual quantitative differences.

use onoc_units::{Celsius, Decibels, Microwatts, Milliwatts, Nanometers};

use crate::devices::{
    LaserThermalModel, MicroRingResonator, Multiplexer, Photodetector, VcselLaser, Waveguide,
};
use crate::mwsr::{ChannelGeometry, MwsrChannel};
use crate::spectrum::WavelengthGrid;

/// Every tunable constant of the paper's evaluation setup, in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperCalibration {
    /// Channel geometry (ONIs, wavelengths, waveguide, activity).
    pub geometry: ChannelGeometry,
    /// Lorentzian FWHM of every ring.
    pub ring_fwhm: Nanometers,
    /// Peak through-port attenuation of a modulator at exact resonance.
    pub modulator_peak_attenuation: Decibels,
    /// Broadband insertion loss of every ring crossing.
    pub ring_crossing_loss: Decibels,
    /// Electrical power of a modulating ring (P_MR).
    pub modulation_power: Milliwatts,
    /// Peak through-port attenuation of a drop filter.
    pub drop_peak_attenuation: Decibels,
    /// Drop-port insertion loss of a drop filter.
    pub drop_insertion_loss: Decibels,
    /// Insertion loss of the MMI multiplexer.
    pub mux_insertion_loss: Decibels,
    /// Laser thermal/efficiency model.
    pub laser_thermal: LaserThermalModel,
    /// Ambient temperature of the optical layer.
    pub ambient: Celsius,
    /// Maximum optical power the laser can deliver.
    pub laser_max_output: Microwatts,
}

impl PaperCalibration {
    /// The DAC'17 evaluation setup: 12 ONIs, 16 wavelengths, 6 cm waveguide,
    /// 0.274 dB/cm, ER ≈ 6.9 dB, P_MR = 1.36 mW, ℜ = 1 A/W, i_n = 4 µA,
    /// 25% chip activity, 700 µW laser ceiling.
    #[must_use]
    pub fn dac17() -> Self {
        Self {
            geometry: ChannelGeometry::paper_geometry(),
            ring_fwhm: Nanometers::new(0.17),
            modulator_peak_attenuation: Decibels::new(7.55),
            ring_crossing_loss: Decibels::new(0.0135),
            modulation_power: Milliwatts::new(1.36),
            drop_peak_attenuation: Decibels::new(13.0),
            drop_insertion_loss: Decibels::new(1.35),
            mux_insertion_loss: Decibels::new(1.0),
            laser_thermal: LaserThermalModel::paper_calibrated(),
            ambient: Celsius::new(25.0),
            laser_max_output: Microwatts::new(700.0),
        }
    }

    /// A smaller point-to-point configuration (2 ONIs, 4 wavelengths, 1 cm
    /// waveguide) matching the introductory example of Fig. 1; useful for
    /// fast unit tests and the quickstart example.
    #[must_use]
    pub fn point_to_point() -> Self {
        let mut calibration = Self::dac17();
        calibration.geometry = ChannelGeometry {
            oni_count: 2,
            grid: WavelengthGrid::paper_grid(4),
            waveguide: Waveguide::new(
                onoc_units::Centimeters::new(1.0),
                onoc_units::DecibelsPerCentimeter::new(0.274),
            ),
            chip_activity: 0.25,
        };
        calibration
    }

    /// Builds the modulator prototype for the first grid wavelength.
    #[must_use]
    pub fn modulator_prototype(&self) -> MicroRingResonator {
        let carrier = self.geometry.grid.wavelength(0);
        // OFF-state resonance parked one FWHM below the carrier; driving the
        // ring ON shifts it onto the carrier (blue shift of the carrier
        // relative to the resonance, as described in Section III-A).
        MicroRingResonator::new(
            Nanometers::new(carrier.value() - self.ring_fwhm.value()),
            self.ring_fwhm,
            self.ring_fwhm,
            self.modulator_peak_attenuation,
            self.drop_insertion_loss,
            self.ring_crossing_loss,
            self.modulation_power,
        )
    }

    /// Builds the drop-filter prototype for the first grid wavelength.
    #[must_use]
    pub fn drop_filter_prototype(&self) -> MicroRingResonator {
        let carrier = self.geometry.grid.wavelength(0);
        MicroRingResonator::new(
            carrier,
            Nanometers::zero(),
            self.ring_fwhm,
            self.drop_peak_attenuation,
            self.drop_insertion_loss,
            self.ring_crossing_loss,
            Milliwatts::zero(),
        )
    }

    /// Builds the laser model.
    #[must_use]
    pub fn laser(&self) -> VcselLaser {
        VcselLaser::new(self.laser_thermal, self.ambient, self.laser_max_output)
    }

    /// Assembles the full MWSR channel described by this calibration.
    #[must_use]
    pub fn into_channel(self) -> MwsrChannel {
        let modulator = self.modulator_prototype();
        let drop = self.drop_filter_prototype();
        let laser = self.laser();
        let mux = Multiplexer::new(self.geometry.grid.count(), self.mux_insertion_loss);
        MwsrChannel::new(
            self.geometry,
            modulator,
            drop,
            mux,
            Photodetector::paper_photodetector(),
            laser,
        )
    }
}

impl Default for PaperCalibration {
    fn default() -> Self {
        Self::dac17()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac17_constants_match_the_paper() {
        let c = PaperCalibration::dac17();
        assert_eq!(c.geometry.oni_count, 12);
        assert_eq!(c.geometry.grid.count(), 16);
        assert!((c.geometry.waveguide.total_loss().value() - 1.644).abs() < 1e-9);
        assert!((c.modulation_power.value() - 1.36).abs() < 1e-12);
        assert!((c.laser_max_output.value() - 700.0).abs() < 1e-12);
        assert!((c.geometry.chip_activity - 0.25).abs() < 1e-12);
    }

    #[test]
    fn channel_assembly_preserves_the_extinction_ratio() {
        let channel = PaperCalibration::dac17().into_channel();
        let er = channel.extinction_ratio(0);
        assert!((er.value() - 6.9).abs() < 0.3, "ER = {er}");
    }

    #[test]
    fn point_to_point_is_a_smaller_geometry() {
        let c = PaperCalibration::point_to_point();
        assert_eq!(c.geometry.oni_count, 2);
        assert_eq!(c.geometry.grid.count(), 4);
        let channel = c.into_channel();
        // Fewer crossings mean a healthier budget than the 12-ONI channel.
        let big = PaperCalibration::dac17().into_channel();
        assert!(channel.path_transmission(0).value() > big.path_transmission(0).value());
    }

    #[test]
    fn prototypes_are_centred_on_the_first_wavelength() {
        let c = PaperCalibration::dac17();
        let drop = c.drop_filter_prototype();
        let first = c.geometry.grid.wavelength(0);
        assert!(
            (drop.resonance(crate::devices::RingState::Off).value() - first.value()).abs() < 1e-9
        );
    }
}
