//! Multiple-Writer Single-Reader (MWSR) channel link budget.
//!
//! Following the transmission model of ref. \[8\] of the paper, the optical
//! signal of each wavelength is tracked from its laser source through the
//! multiplexer, the waveguide, every micro-ring it passes (the parked rings
//! of intermediate writers, the modulating ring of the granted writer, the
//! detuned drop filters of the reader) down to the photodetector of the
//! destination ONI.  The same spectral model provides the worst-case
//! inter-wavelength crosstalk collected by each drop filter.
//!
//! The quantity the rest of the workspace needs is the *signal swing* at the
//! photodetector — the difference between the received power for a '1'
//! (modulator OFF) and for a '0' (modulator ON, attenuated by the extinction
//! ratio) — because that is what Eq. 4 of the paper compares against the dark
//! current to form the SNR.

use onoc_units::{Decibels, LinearRatio, Microwatts, Milliwatts, Nanometers};

use crate::devices::{
    MicroRingResonator, Multiplexer, Photodetector, RingState, VcselLaser, Waveguide,
};
use crate::spectrum::WavelengthGrid;

/// Structural description of one MWSR channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelGeometry {
    /// Number of optical network interfaces sharing the interconnect
    /// (12 in the paper's evaluation).
    pub oni_count: usize,
    /// Wavelength comb used by the channel (16 wavelengths in the paper).
    pub grid: WavelengthGrid,
    /// The waveguide the channel is routed on (6 cm, 0.274 dB/cm).
    pub waveguide: Waveguide,
    /// Activity of the electrical layer, used by the laser thermal model
    /// (0.25 in the paper).
    pub chip_activity: f64,
}

impl ChannelGeometry {
    /// The geometry evaluated in Section V of the paper.
    #[must_use]
    pub fn paper_geometry() -> Self {
        Self {
            oni_count: 12,
            grid: WavelengthGrid::paper_grid(16),
            waveguide: Waveguide::paper_waveguide(),
            chip_activity: 0.25,
        }
    }

    /// Number of writers on the channel (every ONI except the reader).
    #[must_use]
    pub fn writer_count(&self) -> usize {
        self.oni_count.saturating_sub(1)
    }

    /// Number of intermediate (non-granted) writers the worst-case signal
    /// crosses before reaching the reader.
    #[must_use]
    pub fn worst_case_intermediate_writers(&self) -> usize {
        self.writer_count().saturating_sub(1)
    }

    /// Number of wavelengths.
    #[must_use]
    pub fn wavelength_count(&self) -> usize {
        self.grid.count()
    }
}

/// A fully-instantiated MWSR channel: geometry plus device models.
#[derive(Debug, Clone, PartialEq)]
pub struct MwsrChannel {
    geometry: ChannelGeometry,
    modulator: MicroRingResonator,
    drop_filter: MicroRingResonator,
    multiplexer: Multiplexer,
    photodetector: Photodetector,
    laser: VcselLaser,
    /// Per-wavelength-index residual ring detuning in nm (empty = every ring
    /// on grid).  Applied on top of any uniform prototype shift, so the two
    /// mechanisms compose additively.
    ring_detunings: Vec<f64>,
}

impl MwsrChannel {
    /// Assembles a channel from its geometry and device prototypes.
    ///
    /// The `modulator` and `drop_filter` prototypes are re-centred on each
    /// channel wavelength as needed, so a single prototype describes the
    /// whole bank.
    #[must_use]
    pub fn new(
        geometry: ChannelGeometry,
        modulator: MicroRingResonator,
        drop_filter: MicroRingResonator,
        multiplexer: Multiplexer,
        photodetector: Photodetector,
        laser: VcselLaser,
    ) -> Self {
        Self {
            geometry,
            modulator,
            drop_filter,
            multiplexer,
            photodetector,
            laser,
            ring_detunings: Vec::new(),
        }
    }

    /// Channel geometry.
    #[must_use]
    pub fn geometry(&self) -> &ChannelGeometry {
        &self.geometry
    }

    /// The laser source model (shared by all wavelengths of the channel).
    #[must_use]
    pub fn laser(&self) -> &VcselLaser {
        &self.laser
    }

    /// The photodetector model.
    #[must_use]
    pub fn photodetector(&self) -> &Photodetector {
        &self.photodetector
    }

    /// The modulator prototype.
    #[must_use]
    pub fn modulator(&self) -> &MicroRingResonator {
        &self.modulator
    }

    /// The drop-filter prototype.
    #[must_use]
    pub fn drop_filter(&self) -> &MicroRingResonator {
        &self.drop_filter
    }

    /// Electrical power of one modulating ring (P_MR, 1.36 mW in the paper).
    #[must_use]
    pub fn modulation_power(&self) -> Milliwatts {
        self.modulator.modulation_power()
    }

    /// Extinction ratio of the modulator at channel `index`.
    #[must_use]
    pub fn extinction_ratio(&self, index: usize) -> Decibels {
        let carrier = self.geometry.grid.wavelength(index);
        self.modulator_at(index).extinction_ratio(carrier)
    }

    /// Residual ring detuning of channel `index`, in nm (0 when the bank is
    /// on grid).
    #[must_use]
    pub fn ring_detuning_nm(&self, index: usize) -> f64 {
        self.ring_detunings.get(index).copied().unwrap_or(0.0)
    }

    /// `true` when any ring of the channel carries a per-index detuning.
    #[must_use]
    pub fn has_ring_detunings(&self) -> bool {
        self.ring_detunings.iter().any(|&d| d != 0.0)
    }

    /// The modulator prototype re-centred on channel `index`, including that
    /// ring's residual detuning.
    fn modulator_at(&self, index: usize) -> MicroRingResonator {
        let carrier = self.geometry.grid.wavelength(index);
        let ring = self.modulator.recentered(self.prototype_carrier(), carrier);
        match self.ring_detuning_nm(index) {
            0.0 => ring,
            shift => ring.detuned_by(shift),
        }
    }

    /// The drop-filter prototype re-centred on channel `index`, including
    /// that ring's residual detuning.
    fn drop_filter_at(&self, index: usize) -> MicroRingResonator {
        let carrier = self.geometry.grid.wavelength(index);
        let ring = self
            .drop_filter
            .recentered(self.prototype_carrier(), carrier);
        match self.ring_detuning_nm(index) {
            0.0 => ring,
            shift => ring.detuned_by(shift),
        }
    }

    /// Both prototypes are constructed for the first grid wavelength.
    fn prototype_carrier(&self) -> Nanometers {
        self.geometry.grid.wavelength(0)
    }

    /// Number of micro-rings one wavelength lane must keep on grid: one
    /// modulator per writer plus the reader's drop filter.  This is the ring
    /// count that thermal tuning power is charged for, per lane.
    #[must_use]
    pub fn rings_per_lane(&self) -> usize {
        self.geometry.writer_count() + 1
    }

    /// Returns a copy of this channel with every ring resonance shifted by
    /// `drift` while the laser comb stays fixed (the lasers are assumed
    /// wavelength-stabilized; the rings are not).  A zero drift reproduces
    /// the original channel bit-for-bit.
    ///
    /// This is the *uniform* (per-bank) detuning mechanism; a heterogeneous
    /// bank uses [`MwsrChannel::with_ring_detunings`] instead.
    #[must_use]
    pub fn with_resonance_drift(&self, drift: onoc_thermal::ResonanceDrift) -> Self {
        Self {
            modulator: self.modulator.detuned_by(drift.nanometers()),
            drop_filter: self.drop_filter.detuned_by(drift.nanometers()),
            ..self.clone()
        }
    }

    /// Returns a copy of this channel whose ring at wavelength index `i` is
    /// detuned by `detunings[i]` nanometres (positive = red shift), while
    /// the laser comb stays fixed.  Every wavelength of the lane now has its
    /// own transmission, extinction and crosstalk figures — the per-ring
    /// model the per-bank [`MwsrChannel::with_resonance_drift`] cannot
    /// express.  An all-zero vector reproduces the original channel
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `detunings` does not have one entry per wavelength or any
    /// entry is not finite.
    #[must_use]
    pub fn with_ring_detunings(&self, detunings: &[f64]) -> Self {
        assert_eq!(
            detunings.len(),
            self.geometry.wavelength_count(),
            "one detuning per wavelength is required"
        );
        assert!(
            detunings.iter().all(|d| d.is_finite()),
            "ring detunings must be finite"
        );
        Self {
            ring_detunings: detunings.to_vec(),
            ..self.clone()
        }
    }

    /// Returns a copy of this channel whose laser operates at `ambient`.
    #[must_use]
    pub fn with_laser_ambient(&self, ambient: onoc_units::Celsius) -> Self {
        Self {
            laser: self.laser.with_ambient(ambient),
            ..self.clone()
        }
    }

    /// Worst-case path transmission for a '1' bit (modulator OFF) on channel
    /// `index`: laser → multiplexer → waveguide → parked rings of the
    /// intermediate writers → the granted writer's ring bank → the reader's
    /// detuned drop filters → the drop into the destination filter.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the wavelength grid.
    #[must_use]
    pub fn path_transmission(&self, index: usize) -> LinearRatio {
        let carrier = self.geometry.grid.wavelength(index);
        let modulator = self.modulator_at(index);
        let own_drop = self.drop_filter_at(index);

        let mut transmission = self.multiplexer.transmission();
        transmission = transmission * self.geometry.waveguide.transmission();

        // Intermediate writers: every ring is parked far off resonance
        // (thermal detuning), so each crossing costs only the broadband
        // insertion loss.
        let parked_crossings =
            self.geometry.worst_case_intermediate_writers() * self.geometry.wavelength_count();
        let per_crossing = self.modulator.through_insertion_loss().to_attenuation();
        transmission =
            transmission * LinearRatio::new(per_crossing.value().powi(parked_crossings as i32));

        // Granted writer: its own-wavelength ring is in the OFF state for a
        // '1' (this is where the extinction ratio is defined); its other
        // rings are parked.
        transmission = transmission * modulator.through_transmission(carrier, RingState::Off);
        let sibling_crossings = self.geometry.wavelength_count().saturating_sub(1);
        transmission =
            transmission * LinearRatio::new(per_crossing.value().powi(sibling_crossings as i32));

        // Reader: the signal passes the drop filters of the other wavelengths
        // (detuned, small residual loss from their Lorentzian tails) and is
        // finally dropped by its own filter.
        for other in self.geometry.grid.other_channels(index) {
            let other_filter = self.drop_filter_at(other);
            transmission =
                transmission * other_filter.through_transmission(carrier, RingState::Off);
        }
        transmission = transmission * own_drop.drop_transmission(carrier, RingState::Off);

        transmission
    }

    /// Fraction of the received '1' power that constitutes the usable swing:
    /// `1 − 10^(−ER/10)`.
    #[must_use]
    pub fn extinction_factor(&self, index: usize) -> f64 {
        1.0 - self.extinction_ratio(index).to_attenuation().value()
    }

    /// Worst-case crosstalk power collected by the drop filter of channel
    /// `index`, assuming every other wavelength is simultaneously carrying a
    /// '1' at the full laser output power (the conservative assumption of
    /// ref. \[8\]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the wavelength grid.
    #[must_use]
    pub fn worst_case_crosstalk(&self, index: usize) -> Microwatts {
        let victim = self.drop_filter_at(index);
        let mut total = Microwatts::zero();
        for other in self.geometry.grid.other_channels(index) {
            let aggressor_wavelength = self.geometry.grid.wavelength(other);
            // The aggressor reaches the reader with the same path loss as the
            // victim (same worst-case writer), at the maximum laser output.
            let received = self
                .laser
                .max_output()
                .scaled_by(self.path_transmission(other));
            let leak = victim.drop_transmission(aggressor_wavelength, RingState::Off);
            total += received.scaled_by(leak);
        }
        total
    }

    /// Fraction of the laser output that ends up as usable swing at the
    /// photodetector of channel `index`: path transmission × extinction
    /// factor.  Under heavy thermal drift the modulator's ON/OFF contrast can
    /// invert, making this factor zero or negative — the channel then carries
    /// no usable signal at any laser power.
    #[must_use]
    pub fn swing_factor(&self, index: usize) -> f64 {
        self.path_transmission(index).value() * self.extinction_factor(index)
    }

    /// Signal swing at the photodetector of channel `index` when the laser
    /// emits `laser_output`.  Clamped at zero when drift has inverted the
    /// modulation contrast (no usable signal).
    #[must_use]
    pub fn signal_swing(&self, laser_output: Microwatts, index: usize) -> Microwatts {
        Microwatts::new((laser_output.value() * self.swing_factor(index)).max(0.0))
    }

    /// Laser output power required to produce `swing` at the photodetector of
    /// channel `index`.  The result is *not* clamped to the laser's
    /// capability; use [`VcselLaser::can_emit`] to check feasibility.
    ///
    /// # Panics
    ///
    /// Panics if the swing factor is not positive (check
    /// [`MwsrChannel::swing_factor`] first): no finite laser power can
    /// produce a swing through a collapsed channel.
    #[must_use]
    pub fn required_laser_output(&self, swing: Microwatts, index: usize) -> Microwatts {
        let factor = self.swing_factor(index);
        assert!(
            factor > 0.0,
            "channel {index} carries no usable swing (factor = {factor})"
        );
        Microwatts::new(swing.value() / factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::PaperCalibration;

    fn channel() -> MwsrChannel {
        PaperCalibration::dac17().into_channel()
    }

    #[test]
    fn geometry_counts() {
        let g = ChannelGeometry::paper_geometry();
        assert_eq!(g.oni_count, 12);
        assert_eq!(g.writer_count(), 11);
        assert_eq!(g.worst_case_intermediate_writers(), 10);
        assert_eq!(g.wavelength_count(), 16);
    }

    #[test]
    fn path_loss_is_in_a_plausible_on_chip_range() {
        let ch = channel();
        let t = ch.path_transmission(0);
        let loss_db = -10.0 * t.value().log10();
        assert!(loss_db > 5.0 && loss_db < 10.0, "path loss = {loss_db} dB");
    }

    #[test]
    fn extinction_ratio_close_to_the_paper_value() {
        let ch = channel();
        for index in [0, 7, 15] {
            let er = ch.extinction_ratio(index);
            assert!((er.value() - 6.9).abs() < 0.3, "ER({index}) = {er}");
        }
    }

    #[test]
    fn all_wavelengths_have_similar_budgets() {
        let ch = channel();
        let losses: Vec<f64> = (0..16).map(|i| ch.path_transmission(i).value()).collect();
        let min = losses.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = losses.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min < 1.1, "budgets spread too widely: {min}..{max}");
    }

    #[test]
    fn crosstalk_is_small_but_non_zero() {
        let ch = channel();
        let xt = ch.worst_case_crosstalk(8);
        assert!(xt.value() > 0.1, "crosstalk unexpectedly negligible: {xt}");
        assert!(xt.value() < 10.0, "crosstalk unreasonably large: {xt}");
    }

    #[test]
    fn edge_channels_collect_less_crosstalk_than_middle_channels() {
        let ch = channel();
        let edge = ch.worst_case_crosstalk(0);
        let middle = ch.worst_case_crosstalk(8);
        assert!(edge.value() < middle.value());
    }

    #[test]
    fn swing_and_required_output_are_inverse_operations() {
        let ch = channel();
        let swing = ch.signal_swing(Microwatts::new(500.0), 3);
        let back = ch.required_laser_output(swing, 3);
        assert!((back.value() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn swing_is_linear_in_laser_output() {
        let ch = channel();
        let s1 = ch.signal_swing(Microwatts::new(100.0), 0);
        let s2 = ch.signal_swing(Microwatts::new(200.0), 0);
        assert!((s2.value() / s1.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn modulation_power_matches_the_paper() {
        assert!((channel().modulation_power().value() - 1.36).abs() < 1e-12);
    }

    #[test]
    fn rings_per_lane_counts_writers_plus_the_drop_filter() {
        assert_eq!(channel().rings_per_lane(), 12);
    }

    #[test]
    fn zero_drift_reproduces_the_channel_exactly() {
        let ch = channel();
        let drifted = ch.with_resonance_drift(onoc_thermal::ResonanceDrift::zero());
        for index in [0, 8, 15] {
            assert_eq!(
                ch.path_transmission(index).value(),
                drifted.path_transmission(index).value()
            );
            assert_eq!(
                ch.worst_case_crosstalk(index).value(),
                drifted.worst_case_crosstalk(index).value()
            );
        }
    }

    #[test]
    fn residual_drift_shrinks_the_swing_monotonically() {
        let ch = channel();
        let baseline = ch.signal_swing(Microwatts::new(500.0), 8).value();
        let mut last = baseline;
        for step in 1..=8 {
            let drift = onoc_thermal::ResonanceDrift::new(f64::from(step) * 0.01);
            let swing = ch
                .with_resonance_drift(drift)
                .signal_swing(Microwatts::new(500.0), 8)
                .value();
            assert!(swing < last, "swing should fall at drift {drift}");
            last = swing;
        }
        // Even half a linewidth of drift must not drive the swing negative.
        assert!(last > 0.0);
    }

    #[test]
    fn zero_ring_detunings_reproduce_the_channel_exactly() {
        let ch = channel();
        let detuned = ch.with_ring_detunings(&[0.0; 16]);
        assert!(!detuned.has_ring_detunings());
        for index in 0..16 {
            assert_eq!(
                ch.path_transmission(index).value(),
                detuned.path_transmission(index).value()
            );
            assert_eq!(
                ch.worst_case_crosstalk(index).value(),
                detuned.worst_case_crosstalk(index).value()
            );
            assert_eq!(
                ch.extinction_ratio(index).value(),
                detuned.extinction_ratio(index).value()
            );
        }
    }

    #[test]
    fn per_index_detuning_only_degrades_the_detuned_ring() {
        let ch = channel();
        let mut detunings = [0.0; 16];
        detunings[8] = 0.08; // ~half a linewidth on ring 8 only
        let detuned = ch.with_ring_detunings(&detunings);
        assert!(detuned.has_ring_detunings());
        assert!((detuned.ring_detuning_nm(8) - 0.08).abs() < 1e-12);
        assert_eq!(detuned.ring_detuning_nm(3), 0.0);
        // The drifted ring loses swing…
        assert!(detuned.swing_factor(8) < ch.swing_factor(8));
        // …the extinction contrast of that ring collapses toward 0 dB…
        assert!(detuned.extinction_ratio(8).value() < ch.extinction_ratio(8).value());
        // …while a far-away ring's own budget is essentially untouched
        // (only the parked-tail of ring 8 moved).
        let far = (detuned.swing_factor(0) - ch.swing_factor(0)).abs() / ch.swing_factor(0);
        assert!(far < 1e-3, "far-channel relative change = {far}");
    }

    #[test]
    fn per_index_detuning_matches_the_uniform_shift_when_all_equal() {
        let ch = channel();
        let uniform = ch.with_resonance_drift(onoc_thermal::ResonanceDrift::new(0.03));
        let per_index = ch.with_ring_detunings(&[0.03; 16]);
        for index in [0, 8, 15] {
            let a = uniform.path_transmission(index).value();
            let b = per_index.path_transmission(index).value();
            assert!((a - b).abs() / a < 1e-9, "channel {index}: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "one detuning per wavelength")]
    fn wrong_length_detuning_vector_is_rejected() {
        let _ = channel().with_ring_detunings(&[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_detuning_is_rejected() {
        let mut detunings = [0.0; 16];
        detunings[0] = f64::NAN;
        let _ = channel().with_ring_detunings(&detunings);
    }

    #[test]
    fn laser_ambient_propagates_to_the_laser_model() {
        let ch = channel().with_laser_ambient(onoc_units::Celsius::new(85.0));
        assert!((ch.laser().ambient().value() - 85.0).abs() < 1e-12);
        // The optical path itself is unaffected by the laser ambient.
        assert_eq!(
            ch.path_transmission(0).value(),
            channel().path_transmission(0).value()
        );
    }
}
