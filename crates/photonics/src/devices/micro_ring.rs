//! Micro-ring resonator (MR) model.
//!
//! The MR is the workhorse of the MWSR channel: forward-biasing the ring
//! blue-shifts its resonance (ON state), aligning it with the optical carrier
//! and absorbing most of the signal power; in the OFF state the carrier is
//! detuned from the resonance and passes with low loss.  The difference
//! between the two through-port transmissions at the carrier wavelength is
//! the extinction ratio (ER = 6.9 dB in the paper, from ref. [15]).
//!
//! The spectral response is modelled as a Lorentzian, which is the standard
//! first-order approximation of an add-drop ring close to resonance and is
//! what produces the characteristic notch of Fig. 3.

use onoc_units::{Decibels, LinearRatio, Milliwatts, Nanometers};

/// Electro-optic state of a ring modulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingState {
    /// Resonance detuned from the carrier: the signal passes (data '1').
    Off,
    /// Resonance aligned with the carrier: the signal is absorbed (data '0').
    On,
}

/// An add-drop micro-ring resonator with Lorentzian line shape.
///
/// ```
/// use onoc_photonics::devices::{MicroRingResonator, RingState};
/// use onoc_units::{Decibels, Nanometers};
///
/// let ring = MicroRingResonator::paper_modulator(Nanometers::new(1550.0));
/// let carrier = Nanometers::new(1550.0);
/// let on = ring.through_transmission(carrier, RingState::On);
/// let off = ring.through_transmission(carrier, RingState::Off);
/// // ER = 10·log10(off/on) ≈ 6.9 dB.
/// let er = 10.0 * (off.value() / on.value()).log10();
/// assert!((er - 6.9).abs() < 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroRingResonator {
    /// Resonant wavelength in the OFF (unbiased) state.
    resonance_off: Nanometers,
    /// Blue shift of the resonance when the ring is driven ON.
    on_shift: Nanometers,
    /// Full width at half maximum of the Lorentzian resonance.
    fwhm: Nanometers,
    /// Maximum attenuation at exact resonance, through port (dB).
    peak_through_attenuation: Decibels,
    /// Fraction of on-resonance power coupled to the drop port (dB loss).
    drop_insertion_loss: Decibels,
    /// Broadband insertion loss seen by any wavelength crossing the ring.
    through_insertion_loss: Decibels,
    /// Electrical power of the driver when modulating.
    modulation_power: Milliwatts,
}

impl MicroRingResonator {
    /// Creates a ring from its full parameter set.
    ///
    /// # Panics
    ///
    /// Panics if the FWHM is zero.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        resonance_off: Nanometers,
        on_shift: Nanometers,
        fwhm: Nanometers,
        peak_through_attenuation: Decibels,
        drop_insertion_loss: Decibels,
        through_insertion_loss: Decibels,
        modulation_power: Milliwatts,
    ) -> Self {
        assert!(fwhm.value() > 0.0, "resonance FWHM must be positive");
        Self {
            resonance_off,
            on_shift,
            fwhm,
            peak_through_attenuation,
            drop_insertion_loss,
            through_insertion_loss,
            modulation_power,
        }
    }

    /// The modulator assumed by the paper: ER = 6.9 dB, P_MR = 1.36 mW
    /// (ref. \[15\]), with a resonance width typical of a Q ≈ 9,000 silicon
    /// ring, tuned so that the OFF state sits half a linewidth away from the
    /// carrier.
    #[must_use]
    pub fn paper_modulator(carrier: Nanometers) -> Self {
        let fwhm = Nanometers::new(0.17);
        // In the OFF state the resonance is parked one FWHM below the
        // carrier; driving the ring ON shifts it up onto the carrier.
        let resonance_off = Nanometers::new(carrier.value() - fwhm.value());
        Self::new(
            resonance_off,
            Nanometers::new(fwhm.value()),
            fwhm,
            // Peak attenuation chosen so that the ON/OFF contrast at the
            // carrier is the paper's 6.9 dB extinction ratio.
            Decibels::new(7.55),
            Decibels::new(1.5),
            Decibels::new(0.015),
            Milliwatts::new(1.36),
        )
    }

    /// A passive drop filter (used in front of each photodetector of the
    /// reader): resonance centred on the carrier, no modulation power.
    #[must_use]
    pub fn paper_drop_filter(carrier: Nanometers) -> Self {
        Self::new(
            carrier,
            Nanometers::zero(),
            Nanometers::new(0.17),
            Decibels::new(13.0),
            Decibels::new(1.5),
            Decibels::new(0.015),
            Milliwatts::zero(),
        )
    }

    /// Resonant wavelength in the given state.
    #[must_use]
    pub fn resonance(&self, state: RingState) -> Nanometers {
        match state {
            RingState::Off => self.resonance_off,
            RingState::On => Nanometers::new(self.resonance_off.value() + self.on_shift.value()),
        }
    }

    /// Resonance full width at half maximum.
    #[must_use]
    pub fn fwhm(&self) -> Nanometers {
        self.fwhm
    }

    /// Electrical power dissipated by the driver while modulating.
    #[must_use]
    pub fn modulation_power(&self) -> Milliwatts {
        self.modulation_power
    }

    /// Broadband (far-off-resonance) through insertion loss.
    #[must_use]
    pub fn through_insertion_loss(&self) -> Decibels {
        self.through_insertion_loss
    }

    /// Peak through-port attenuation at exact resonance.
    #[must_use]
    pub fn peak_through_attenuation(&self) -> Decibels {
        self.peak_through_attenuation
    }

    /// Insertion loss of the drop port at exact resonance.
    #[must_use]
    pub fn drop_insertion_loss(&self) -> Decibels {
        self.drop_insertion_loss
    }

    /// Returns a copy of this ring re-centred so that its OFF-state resonance
    /// keeps the same offset relative to the new `carrier` as it had relative
    /// to `old_carrier`.
    #[must_use]
    pub fn recentered(&self, old_carrier: Nanometers, carrier: Nanometers) -> Self {
        let shift = carrier.value() - old_carrier.value();
        Self {
            resonance_off: Nanometers::new(self.resonance_off.value() + shift),
            ..*self
        }
    }

    /// Returns a copy of this ring with its resonance shifted by `shift_nm`
    /// (positive = red shift).  This is how thermal drift enters the model:
    /// a temperature excursion moves the resonance relative to the (fixed)
    /// carrier grid, and every transmission figure follows from the same
    /// Lorentzian line shape evaluated at the shifted centre.
    #[must_use]
    pub fn detuned_by(&self, shift_nm: f64) -> Self {
        assert!(shift_nm.is_finite(), "resonance shift must be finite");
        Self {
            resonance_off: Nanometers::new(self.resonance_off.value() + shift_nm),
            ..*self
        }
    }

    /// Lorentzian weight at `wavelength` for a resonance centred on `center`:
    /// 1 at resonance, 0.5 at ±FWHM/2.
    fn lorentzian(&self, wavelength: Nanometers, center: Nanometers) -> f64 {
        let half_width = self.fwhm.value() / 2.0;
        let detuning = (wavelength.value() - center.value()) / half_width;
        1.0 / (1.0 + detuning * detuning)
    }

    /// Through-port power transmission at `wavelength` with the ring in
    /// `state` (includes the broadband insertion loss).
    #[must_use]
    pub fn through_transmission(&self, wavelength: Nanometers, state: RingState) -> LinearRatio {
        let notch_depth = 1.0 - self.peak_through_attenuation.to_attenuation().value();
        let weight = self.lorentzian(wavelength, self.resonance(state));
        let resonant_term = 1.0 - notch_depth * weight;
        let broadband = self.through_insertion_loss.to_attenuation().value();
        LinearRatio::new(resonant_term * broadband)
    }

    /// Drop-port power transmission at `wavelength` with the ring in `state`.
    #[must_use]
    pub fn drop_transmission(&self, wavelength: Nanometers, state: RingState) -> LinearRatio {
        let peak = self.drop_insertion_loss.to_attenuation().value();
        let weight = self.lorentzian(wavelength, self.resonance(state));
        LinearRatio::new(peak * weight)
    }

    /// Extinction ratio at `carrier`: the ratio of OFF to ON through-port
    /// transmission, in dB.
    #[must_use]
    pub fn extinction_ratio(&self, carrier: Nanometers) -> Decibels {
        let off = self.through_transmission(carrier, RingState::Off).value();
        let on = self.through_transmission(carrier, RingState::On).value();
        Decibels::new(10.0 * (off / on).log10())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn carrier() -> Nanometers {
        Nanometers::new(1550.0)
    }

    #[test]
    fn paper_modulator_reaches_the_quoted_extinction_ratio() {
        let ring = MicroRingResonator::paper_modulator(carrier());
        let er = ring.extinction_ratio(carrier());
        assert!((er.value() - 6.9).abs() < 0.2, "ER = {er}");
    }

    #[test]
    fn on_state_absorbs_more_than_off_state() {
        let ring = MicroRingResonator::paper_modulator(carrier());
        let on = ring.through_transmission(carrier(), RingState::On);
        let off = ring.through_transmission(carrier(), RingState::Off);
        assert!(on.value() < off.value());
        assert!(off.value() > 0.7, "OFF-state loss should be mild: {off}");
    }

    #[test]
    fn far_detuned_wavelength_sees_only_insertion_loss() {
        let ring = MicroRingResonator::paper_modulator(carrier());
        let far = Nanometers::new(1557.0);
        let t = ring.through_transmission(far, RingState::Off);
        let insertion = ring.through_insertion_loss().to_attenuation();
        assert!((t.value() - insertion.value()).abs() < 0.01);
    }

    #[test]
    fn transmission_spectrum_has_a_notch_at_the_resonance() {
        // Mirrors Fig. 3: the ON and OFF curves are identical notches shifted
        // by Δλ.
        let ring = MicroRingResonator::paper_modulator(carrier());
        let res_off = ring.resonance(RingState::Off);
        let res_on = ring.resonance(RingState::On);
        assert!(res_on.value() > res_off.value());
        let at_off_res = ring.through_transmission(res_off, RingState::Off);
        let away =
            ring.through_transmission(Nanometers::new(res_off.value() - 1.0), RingState::Off);
        assert!(at_off_res.value() < 0.3);
        assert!(away.value() > 0.9);
    }

    #[test]
    fn drop_filter_peaks_at_its_resonance() {
        let ring = MicroRingResonator::paper_drop_filter(carrier());
        let on_res = ring.drop_transmission(carrier(), RingState::Off);
        let neighbour = ring.drop_transmission(Nanometers::new(1550.8), RingState::Off);
        assert!(on_res.value() > 0.6);
        assert!(
            neighbour.value() < 0.05,
            "adjacent-channel crosstalk should be small"
        );
        assert!(
            neighbour.value() > 0.0,
            "Lorentzian tails never vanish completely"
        );
    }

    #[test]
    fn modulation_power_matches_the_paper() {
        let ring = MicroRingResonator::paper_modulator(carrier());
        assert!((ring.modulation_power().value() - 1.36).abs() < 1e-12);
        let filter = MicroRingResonator::paper_drop_filter(carrier());
        assert!(filter.modulation_power().is_zero());
    }

    #[test]
    fn lorentzian_half_width_property() {
        let ring = MicroRingResonator::paper_drop_filter(carrier());
        let half = Nanometers::new(carrier().value() + ring.fwhm().value() / 2.0);
        let peak = ring.drop_transmission(carrier(), RingState::Off).value();
        let at_half = ring.drop_transmission(half, RingState::Off).value();
        assert!((at_half / peak - 0.5).abs() < 1e-9);
    }

    #[test]
    fn detuning_shifts_the_resonance_and_degrades_the_notch() {
        let ring = MicroRingResonator::paper_drop_filter(carrier());
        let drifted = ring.detuned_by(0.05);
        assert!(
            (drifted.resonance(RingState::Off).value() - (carrier().value() + 0.05)).abs() < 1e-9
        );
        // The drifted filter drops less of the carrier power…
        let aligned = ring.drop_transmission(carrier(), RingState::Off);
        let off_grid = drifted.drop_transmission(carrier(), RingState::Off);
        assert!(off_grid.value() < aligned.value());
        // …and a zero shift is exactly the identity.
        let same = ring
            .detuned_by(0.0)
            .drop_transmission(carrier(), RingState::Off);
        assert_eq!(same.value(), aligned.value());
        // Blue shifts are symmetric for the symmetric Lorentzian.
        let blue = ring
            .detuned_by(-0.05)
            .drop_transmission(carrier(), RingState::Off);
        assert!((blue.value() - off_grid.value()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "FWHM")]
    fn zero_fwhm_rejected() {
        let _ = MicroRingResonator::new(
            carrier(),
            Nanometers::zero(),
            Nanometers::zero(),
            Decibels::new(10.0),
            Decibels::new(1.5),
            Decibels::new(0.01),
            Milliwatts::zero(),
        );
    }
}
