//! Channel power and energy accounting (Section IV-E and Fig. 6).
//!
//! Per wavelength the paper defines
//!
//! ```text
//! P_channel = P_ENC+DEC + P_MR + P_laser
//! ```
//!
//! where `P_ENC+DEC` comes from the synthesis results (Table I), `P_MR` is
//! the modulator driver power (1.36 mW) and `P_laser` the laser electrical
//! power produced by the photonic solver.  This module aggregates those
//! terms, scales them to the 16-wavelength channel, and derives energy-per-bit
//! figures and the communication-time factor used for the Fig. 6 trade-off.

use onoc_ecc_codes::EccScheme;
use onoc_units::{GigabitsPerSecond, Milliwatts, PicojoulesPerBit};

use crate::blocks::SynthesisDatabase;
use crate::config::InterfaceConfig;
use crate::timing::CommunicationTiming;

/// How the energy-per-bit figure charges the channel power to payload bits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EnergyAccounting {
    /// The channel only burns power while a word is in flight: energy per
    /// payload bit is `P_channel × CT / payload-bit rate`.  This is the
    /// self-consistent accounting used as the primary mode of this
    /// reproduction.
    #[default]
    ActiveTransfersOnly,
    /// The laser (and modulator bias) stay powered even between transfers;
    /// only a fraction `utilization` of the time carries payload.  This is
    /// the pessimistic accounting relevant when no laser-gating scheme
    /// (ref. \[9\] of the paper) is deployed.
    AlwaysOn {
        /// Fraction of time the channel carries payload, in `(0, 1]`.
        utilization: f64,
    },
}

/// Per-wavelength power breakdown of one operating point (one bar group of
/// Fig. 6a, plus the thermal-tuning term).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelPowerBreakdown {
    /// Coding scheme of the operating point.
    pub scheme: EccScheme,
    /// Encoder + decoder dynamic power attributed to this wavelength lane.
    pub encoder_decoder: Milliwatts,
    /// Micro-ring modulator driver power (P_MR).
    pub modulation: Milliwatts,
    /// Laser electrical power (P_laser).
    pub laser: Milliwatts,
    /// Micro-ring thermal tuning (heater) power attributed to this lane
    /// (P_tune; zero at the calibration temperature).
    pub tuning: Milliwatts,
}

impl ChannelPowerBreakdown {
    /// Total power of one wavelength lane.
    #[must_use]
    pub fn per_wavelength_total(&self) -> Milliwatts {
        self.encoder_decoder + self.modulation + self.laser + self.tuning
    }

    /// Total power of a channel with `wavelengths` lanes.
    #[must_use]
    pub fn channel_total(&self, wavelengths: usize) -> Milliwatts {
        self.per_wavelength_total() * wavelengths as f64
    }

    /// Fraction of the per-wavelength power consumed by the laser
    /// (≈ 92% for the uncoded transmission at BER = 10⁻¹¹ in the paper).
    #[must_use]
    pub fn laser_fraction(&self) -> f64 {
        self.laser.value() / self.per_wavelength_total().value()
    }
}

/// Computes power breakdowns and energy figures for an interface
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPowerModel {
    config: InterfaceConfig,
    synthesis: SynthesisDatabase,
    modulation_power: Milliwatts,
}

impl ChannelPowerModel {
    /// Creates a power model from an interface configuration and the
    /// modulator driver power.
    #[must_use]
    pub fn new(config: InterfaceConfig, modulation_power: Milliwatts) -> Self {
        Self {
            config,
            synthesis: SynthesisDatabase::table1(),
            modulation_power,
        }
    }

    /// The paper's configuration: 64-bit bus, 16 wavelengths, P_MR = 1.36 mW.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(InterfaceConfig::paper_default(), Milliwatts::new(1.36))
    }

    /// Interface configuration.
    #[must_use]
    pub fn config(&self) -> &InterfaceConfig {
        &self.config
    }

    /// Per-wavelength power breakdown for `scheme` given the laser electrical
    /// power of one wavelength, at the calibration temperature (no thermal
    /// tuning power).
    #[must_use]
    pub fn breakdown(
        &self,
        scheme: EccScheme,
        laser_per_wavelength: Milliwatts,
    ) -> ChannelPowerBreakdown {
        self.breakdown_with_tuning(scheme, laser_per_wavelength, Milliwatts::zero())
    }

    /// Per-wavelength power breakdown including the micro-ring thermal
    /// tuning power of one lane (heater power × rings per lane, computed by
    /// the photonic thermal solver).
    #[must_use]
    pub fn breakdown_with_tuning(
        &self,
        scheme: EccScheme,
        laser_per_wavelength: Milliwatts,
        tuning_per_wavelength: Milliwatts,
    ) -> ChannelPowerBreakdown {
        // Table I characterises the whole 64-bit interface; the paper quotes
        // per-wavelength figures, so the codec power is shared across lanes.
        let enc_dec_total = self.synthesis.encoder_decoder_power(scheme);
        let per_lane = Milliwatts::from(enc_dec_total) / self.config.wavelength_lanes as f64;
        ChannelPowerBreakdown {
            scheme,
            encoder_decoder: per_lane,
            modulation: self.modulation_power,
            laser: laser_per_wavelength,
            tuning: tuning_per_wavelength,
        }
    }

    /// Communication timing for `scheme` on this interface.
    #[must_use]
    pub fn timing(&self, scheme: EccScheme) -> CommunicationTiming {
        CommunicationTiming::evaluate(&self.config, scheme)
    }

    /// Energy per payload bit for a breakdown, under the chosen accounting.
    ///
    /// # Panics
    ///
    /// Panics if `AlwaysOn` is used with a utilization outside `(0, 1]`.
    #[must_use]
    pub fn energy_per_bit(
        &self,
        breakdown: &ChannelPowerBreakdown,
        accounting: EnergyAccounting,
    ) -> PicojoulesPerBit {
        let channel_power = breakdown.channel_total(self.config.wavelength_lanes);
        let payload_rate = self.config.payload_bandwidth();
        let ct = breakdown.scheme.communication_time_factor();
        match accounting {
            EnergyAccounting::ActiveTransfersOnly => {
                // P × CT / payload rate: redundancy stretches the transfer.
                let effective_rate = GigabitsPerSecond::new(payload_rate.value() / ct);
                PicojoulesPerBit::from_power_and_rate(channel_power, effective_rate)
            }
            EnergyAccounting::AlwaysOn { utilization } => {
                assert!(
                    utilization > 0.0 && utilization <= 1.0,
                    "utilization must be in (0, 1]"
                );
                let effective_rate =
                    GigabitsPerSecond::new(payload_rate.value() * utilization / ct);
                PicojoulesPerBit::from_power_and_rate(channel_power, effective_rate)
            }
        }
    }
}

impl Default for ChannelPowerModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ChannelPowerModel {
        ChannelPowerModel::paper_default()
    }

    /// The per-wavelength laser powers reported by the paper at BER = 10⁻¹¹.
    fn paper_breakdowns(m: &ChannelPowerModel) -> [ChannelPowerBreakdown; 3] {
        [
            m.breakdown(EccScheme::Uncoded, Milliwatts::new(14.35)),
            m.breakdown(EccScheme::Hamming7164, Milliwatts::new(7.12)),
            m.breakdown(EccScheme::Hamming74, Milliwatts::new(6.64)),
        ]
    }

    #[test]
    fn uncoded_laser_dominates_the_channel_power() {
        let m = model();
        let [uncoded, _, _] = paper_breakdowns(&m);
        assert!(uncoded.laser_fraction() > 0.9);
        // 14.35 + 1.36 + ~0.0005 ≈ 15.71 mW per wavelength.
        assert!((uncoded.per_wavelength_total().value() - 15.71).abs() < 0.02);
    }

    #[test]
    fn channel_totals_match_the_paper_scale() {
        let m = model();
        let [uncoded, h7164, _] = paper_breakdowns(&m);
        // Paper: 251 mW uncoded vs 136 mW with H(71,64) per 16-wavelength
        // waveguide.
        assert!((uncoded.channel_total(16).value() - 251.0).abs() < 2.0);
        assert!((h7164.channel_total(16).value() - 136.0).abs() < 2.0);
    }

    #[test]
    fn coded_schemes_cut_the_channel_power_by_roughly_half() {
        let m = model();
        let [uncoded, h7164, h74] = paper_breakdowns(&m);
        let r7164 = 1.0 - h7164.channel_total(16).value() / uncoded.channel_total(16).value();
        let r74 = 1.0 - h74.channel_total(16).value() / uncoded.channel_total(16).value();
        // Paper: −45% and −49%.
        assert!((r7164 - 0.45).abs() < 0.03, "H(71,64) saving {r7164}");
        assert!((r74 - 0.49).abs() < 0.03, "H(7,4) saving {r74}");
    }

    #[test]
    fn uncoded_energy_per_bit_matches_the_paper() {
        let m = model();
        let [uncoded, _, _] = paper_breakdowns(&m);
        let e = m.energy_per_bit(&uncoded, EnergyAccounting::ActiveTransfersOnly);
        assert!((e.value() - 3.92).abs() < 0.05, "E/bit = {e}");
    }

    #[test]
    fn h7164_energy_per_bit_beats_uncoded() {
        // The paper's qualitative claim: H(71,64) is the most energy
        // efficient scheme (its 11% time overhead is outweighed by the ~2×
        // laser power reduction).
        let m = model();
        let [uncoded, h7164, _] = paper_breakdowns(&m);
        let e_uncoded = m.energy_per_bit(&uncoded, EnergyAccounting::ActiveTransfersOnly);
        let e_h7164 = m.energy_per_bit(&h7164, EnergyAccounting::ActiveTransfersOnly);
        assert!(e_h7164.value() < e_uncoded.value());
    }

    #[test]
    fn always_on_accounting_penalises_low_utilization() {
        let m = model();
        let [uncoded, _, _] = paper_breakdowns(&m);
        let active = m.energy_per_bit(&uncoded, EnergyAccounting::ActiveTransfersOnly);
        let idle_heavy =
            m.energy_per_bit(&uncoded, EnergyAccounting::AlwaysOn { utilization: 0.25 });
        assert!((idle_heavy.value() - active.value() * 4.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_component_ordering() {
        let m = model();
        let b = m.breakdown(EccScheme::Hamming74, Milliwatts::new(6.64));
        assert!(b.encoder_decoder.value() < b.modulation.value());
        assert!(b.modulation.value() < b.laser.value());
        // Per-lane codec power ≈ 19.67 µW / 16 ≈ 1.2 µW.
        assert!((b.encoder_decoder.value() - 0.00123).abs() < 0.0002);
    }

    #[test]
    fn tuning_power_enters_the_lane_total_and_energy() {
        let m = model();
        let plain = m.breakdown(EccScheme::Hamming7164, Milliwatts::new(7.12));
        assert!(plain.tuning.is_zero());
        let tuned = m.breakdown_with_tuning(
            EccScheme::Hamming7164,
            Milliwatts::new(7.12),
            Milliwatts::new(4.3),
        );
        assert!(
            (tuned.per_wavelength_total().value() - (plain.per_wavelength_total().value() + 4.3))
                .abs()
                < 1e-12
        );
        // Energy accounting charges the heaters too.
        let e_plain = m.energy_per_bit(&plain, EnergyAccounting::ActiveTransfersOnly);
        let e_tuned = m.energy_per_bit(&tuned, EnergyAccounting::ActiveTransfersOnly);
        assert!(e_tuned.value() > e_plain.value());
        // And the laser share shrinks accordingly.
        assert!(tuned.laser_fraction() < plain.laser_fraction());
    }

    #[test]
    fn timing_is_consistent_with_the_scheme() {
        let m = model();
        let t = m.timing(EccScheme::Hamming74);
        assert!((t.communication_time_factor - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn zero_utilization_panics() {
        let m = model();
        let b = m.breakdown(EccScheme::Uncoded, Milliwatts::new(14.35));
        let _ = m.energy_per_bit(&b, EnergyAccounting::AlwaysOn { utilization: 0.0 });
    }
}
