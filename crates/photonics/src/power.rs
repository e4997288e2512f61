//! End-to-end laser power solver.
//!
//! This module chains every model of the workspace below the interface layer:
//!
//! ```text
//! target BER ──(ECC transfer, Eq. 2)──▶ raw channel BER
//!            ──(Eq. 1/3)─────────────▶ required SNR
//!            ──(Eq. 4)───────────────▶ required optical swing at the detector
//!            ──(MWSR link budget)────▶ required laser output power OP_laser
//!            ──(VCSEL thermal model)─▶ laser electrical power P_laser
//! ```
//!
//! which is exactly the computation behind Fig. 5 of the paper, and the
//! building block for Fig. 6.

use onoc_ber::ReceiverModel;
use onoc_ecc_codes::ber::raw_ber_for_target;
use onoc_ecc_codes::EccScheme;
use onoc_units::{Microwatts, Milliwatts};

use crate::mwsr::MwsrChannel;

/// Why a (scheme, target BER) pair has no feasible operating point.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The required laser output power exceeds what the laser can deliver.
    LaserPowerExceeded {
        /// Scheme that was being solved for.
        scheme: EccScheme,
        /// Target decoded BER.
        target_ber: f64,
        /// Required optical output power in µW.
        required_microwatts: f64,
        /// Maximum deliverable optical output power in µW.
        maximum_microwatts: f64,
    },
    /// The requested BER target is outside the supported range.
    InvalidTarget {
        /// The offending value.
        target_ber: f64,
    },
    /// The laser's electro-thermal fixed point diverged: the junction heats
    /// faster than efficiency can pay for it, so no finite electrical power
    /// emits the required output (the paper VCSEL hits this near 85 °C).
    ThermalRunaway {
        /// Scheme that was being solved for.
        scheme: EccScheme,
        /// Target decoded BER.
        target_ber: f64,
        /// Requested laser optical output in µW when the solve diverged.
        optical_microwatts: f64,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LaserPowerExceeded {
                scheme,
                target_ber,
                required_microwatts,
                maximum_microwatts,
            } => write!(
                f,
                "{scheme} at BER {target_ber:.1e} needs {required_microwatts:.1} uW of optical power \
                 but the laser delivers at most {maximum_microwatts:.1} uW"
            ),
            Self::InvalidTarget { target_ber } => {
                write!(f, "target BER {target_ber} is outside (0, 0.5)")
            }
            Self::ThermalRunaway {
                scheme,
                target_ber,
                optical_microwatts,
            } => write!(
                f,
                "{scheme} at BER {target_ber:.1e} drives the laser into thermal runaway \
                 at {optical_microwatts:.1} uW of optical output"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// A feasible laser/ECC operating point for one wavelength of the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserOperatingPoint {
    /// Coding scheme.
    pub scheme: EccScheme,
    /// Target decoded BER.
    pub target_ber: f64,
    /// Raw channel BER tolerated by the scheme at this target.
    pub raw_ber: f64,
    /// Required linear SNR at the decision circuit.
    pub snr: f64,
    /// Worst-case crosstalk power at the photodetector.
    pub crosstalk: Microwatts,
    /// Required optical signal swing at the photodetector.
    pub required_swing: Microwatts,
    /// Required laser optical output power (OP_laser).
    pub laser_output_power: Microwatts,
    /// Laser electrical power (P_laser).
    pub laser_electrical_power: Milliwatts,
    /// Wall-plug efficiency of the laser at this operating point.
    pub laser_efficiency: f64,
}

/// Solves laser operating points over an [`MwsrChannel`].
#[derive(Debug, Clone)]
pub struct LaserPowerSolver {
    channel: MwsrChannel,
    receiver: ReceiverModel,
}

impl LaserPowerSolver {
    /// Creates a solver for the given channel.
    #[must_use]
    pub fn new(channel: MwsrChannel) -> Self {
        let receiver = channel.photodetector().to_receiver_model();
        Self { channel, receiver }
    }

    /// The channel being solved over.
    #[must_use]
    pub fn channel(&self) -> &MwsrChannel {
        &self.channel
    }

    /// Index of the wavelength with the worst (largest) crosstalk, used as
    /// the sizing case for the whole channel.
    #[must_use]
    pub fn worst_case_wavelength(&self) -> usize {
        let count = self.channel.geometry().wavelength_count();
        (0..count)
            .max_by(|&a, &b| {
                self.channel
                    .worst_case_crosstalk(a)
                    .value()
                    .partial_cmp(&self.channel.worst_case_crosstalk(b).value())
                    .expect("crosstalk powers are finite")
            })
            .expect("grid has at least one wavelength")
    }

    /// Solves the operating point of `scheme` for `target_ber` on the
    /// worst-case wavelength of the channel.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InvalidTarget`] if `target_ber` is outside `(0, 0.5)`.
    /// * [`SolveError::LaserPowerExceeded`] if the laser cannot deliver the
    ///   required optical power (this is how the solver reports that a BER
    ///   target such as 10⁻¹² is unreachable without coding).
    pub fn solve(
        &self,
        scheme: EccScheme,
        target_ber: f64,
    ) -> Result<LaserOperatingPoint, SolveError> {
        self.solve_on_wavelength(scheme, target_ber, self.worst_case_wavelength())
    }

    /// Solves the operating point on a specific wavelength index.
    ///
    /// # Errors
    ///
    /// Same as [`LaserPowerSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `wavelength` is outside the channel's grid.
    pub fn solve_on_wavelength(
        &self,
        scheme: EccScheme,
        target_ber: f64,
        wavelength: usize,
    ) -> Result<LaserOperatingPoint, SolveError> {
        if !(target_ber > 0.0 && target_ber < 0.5) {
            return Err(SolveError::InvalidTarget { target_ber });
        }
        let raw_ber = raw_ber_for_target(scheme, target_ber);
        let snr = onoc_ber::snr::snr_from_ber_uncoded(raw_ber);
        let crosstalk = self.channel.worst_case_crosstalk(wavelength);
        let required_swing = self.receiver.required_signal_power(snr, crosstalk);
        let laser = self.channel.laser();
        // Thermal drift can invert the modulation contrast entirely; no
        // finite laser power helps then, so report it as a power ceiling
        // violation with an unbounded requirement.
        if self.channel.swing_factor(wavelength) <= 0.0 {
            return Err(SolveError::LaserPowerExceeded {
                scheme,
                target_ber,
                required_microwatts: f64::INFINITY,
                maximum_microwatts: laser.max_output().value(),
            });
        }
        let laser_output = self
            .channel
            .required_laser_output(required_swing, wavelength);

        if !laser.can_emit(laser_output) {
            return Err(SolveError::LaserPowerExceeded {
                scheme,
                target_ber,
                required_microwatts: laser_output.value(),
                maximum_microwatts: laser.max_output().value(),
            });
        }
        let activity = self.channel.geometry().chip_activity;
        let electrical = laser
            .try_electrical_power(laser_output, activity)
            .map_err(|runaway| SolveError::ThermalRunaway {
                scheme,
                target_ber,
                optical_microwatts: runaway.optical_output.value(),
            })?;
        // Wall-plug efficiency of the solved point.  With no output there is
        // no self-heating, so it is the efficiency at the idle junction.
        let laser_efficiency = if electrical.is_zero() {
            laser
                .thermal_model()
                .efficiency_at(laser.junction_temperature(Milliwatts::zero(), activity))
        } else {
            laser_output.to_milliwatts().value() / electrical.value()
        };
        Ok(LaserOperatingPoint {
            scheme,
            target_ber,
            raw_ber,
            snr,
            crosstalk,
            required_swing,
            laser_output_power: laser_output,
            laser_electrical_power: electrical,
            laser_efficiency,
        })
    }

    /// Solves every wavelength of the channel and returns the operating
    /// point of the **worst ring** — the wavelength demanding the highest
    /// laser output power — together with its index.
    ///
    /// On a perfectly aligned channel this is dominated by the
    /// worst-crosstalk wavelength; on a channel with per-ring detuning
    /// ([`MwsrChannel::with_ring_detunings`]) the worst ring is whichever
    /// combination of detuning-collapsed swing and crosstalk bites hardest.
    /// Every lane must close its budget, so the worst ring sizes the shared
    /// laser comb.
    ///
    /// # Errors
    ///
    /// Same as [`LaserPowerSolver::solve`]; any single infeasible wavelength
    /// makes the whole channel infeasible.
    pub fn solve_worst_case(
        &self,
        scheme: EccScheme,
        target_ber: f64,
    ) -> Result<(LaserOperatingPoint, usize), SolveError> {
        let count = self.channel.geometry().wavelength_count();
        let mut worst: Option<(LaserOperatingPoint, usize)> = None;
        for wavelength in 0..count {
            let point = self.solve_on_wavelength(scheme, target_ber, wavelength)?;
            let harder = worst.as_ref().is_none_or(|(best, _)| {
                point.laser_output_power.value() > best.laser_output_power.value()
            });
            if harder {
                worst = Some((point, wavelength));
            }
        }
        Ok(worst.expect("the grid has at least one wavelength"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::PaperCalibration;

    fn solver() -> LaserPowerSolver {
        LaserPowerSolver::new(PaperCalibration::dac17().into_channel())
    }

    #[test]
    fn uncoded_1e11_is_feasible_and_expensive() {
        let s = solver();
        let point = s
            .solve(EccScheme::Uncoded, 1e-11)
            .expect("feasible per the paper");
        assert!(
            point.laser_electrical_power.value() > 10.0
                && point.laser_electrical_power.value() < 18.0,
            "P_laser = {}",
            point.laser_electrical_power
        );
        assert!(point.laser_output_power.value() < 700.0);
    }

    #[test]
    fn uncoded_1e12_is_infeasible_but_coded_is_feasible() {
        let s = solver();
        assert!(matches!(
            s.solve(EccScheme::Uncoded, 1e-12),
            Err(SolveError::LaserPowerExceeded { .. })
        ));
        assert!(s.solve(EccScheme::Hamming74, 1e-12).is_ok());
        assert!(s.solve(EccScheme::Hamming7164, 1e-12).is_ok());
    }

    #[test]
    fn coding_halves_the_laser_power_at_1e11() {
        let s = solver();
        let uncoded = s.solve(EccScheme::Uncoded, 1e-11).unwrap();
        let h74 = s.solve(EccScheme::Hamming74, 1e-11).unwrap();
        let h7164 = s.solve(EccScheme::Hamming7164, 1e-11).unwrap();
        let ratio74 = uncoded.laser_electrical_power.value() / h74.laser_electrical_power.value();
        let ratio7164 =
            uncoded.laser_electrical_power.value() / h7164.laser_electrical_power.value();
        assert!(ratio74 > 1.7 && ratio74 < 3.0, "H(7,4) ratio = {ratio74}");
        assert!(
            ratio7164 > 1.6 && ratio7164 < 2.8,
            "H(71,64) ratio = {ratio7164}"
        );
        // H(7,4) tolerates the noisiest channel, so it needs the least power.
        assert!(h74.laser_electrical_power.value() <= h7164.laser_electrical_power.value() + 1e-9);
    }

    #[test]
    fn laser_power_is_monotone_in_ber_strictness() {
        let s = solver();
        for scheme in EccScheme::paper_schemes() {
            let mut last = 0.0;
            for exp in 3..=11 {
                let target = 10f64.powi(-exp);
                if let Ok(point) = s.solve(scheme, target) {
                    assert!(
                        point.laser_electrical_power.value() >= last,
                        "{scheme} at 1e-{exp}"
                    );
                    last = point.laser_electrical_power.value();
                }
            }
        }
    }

    #[test]
    fn operating_point_fields_are_consistent() {
        let s = solver();
        let p = s.solve(EccScheme::Hamming7164, 1e-9).unwrap();
        assert!(p.raw_ber > p.target_ber);
        assert!(p.required_swing.value() > p.crosstalk.value());
        assert!(p.laser_efficiency > 0.0 && p.laser_efficiency < 0.06);
        let swing = s
            .channel()
            .signal_swing(p.laser_output_power, s.worst_case_wavelength());
        assert!((swing.value() - p.required_swing.value()).abs() / p.required_swing.value() < 1e-6);
    }

    #[test]
    fn worst_case_solve_matches_the_worst_crosstalk_wavelength_when_aligned() {
        let s = solver();
        let (point, wavelength) = s.solve_worst_case(EccScheme::Hamming7164, 1e-11).unwrap();
        // On an aligned channel the worst ring is the worst-crosstalk one.
        assert_eq!(wavelength, s.worst_case_wavelength());
        let direct = s
            .solve_on_wavelength(EccScheme::Hamming7164, 1e-11, wavelength)
            .unwrap();
        assert_eq!(point, direct);
    }

    #[test]
    fn a_detuned_ring_becomes_the_worst_ring() {
        let base = solver();
        let aligned_worst = base.worst_case_wavelength();
        let victim = if aligned_worst == 0 { 1 } else { 0 };
        let mut detunings = [0.0; 16];
        detunings[victim] = 0.03; // a fifth of a linewidth: dominant penalty
        let s = LaserPowerSolver::new(base.channel().with_ring_detunings(&detunings));
        let (point, wavelength) = s.solve_worst_case(EccScheme::Hamming7164, 1e-11).unwrap();
        assert_eq!(wavelength, victim);
        let (aligned_point, _) = base
            .solve_worst_case(EccScheme::Hamming7164, 1e-11)
            .unwrap();
        assert!(point.laser_output_power.value() > aligned_point.laser_output_power.value());
    }

    #[test]
    fn invalid_target_is_rejected() {
        let s = solver();
        assert!(matches!(
            s.solve(EccScheme::Uncoded, 0.0),
            Err(SolveError::InvalidTarget { .. })
        ));
        assert!(matches!(
            s.solve(EccScheme::Uncoded, 0.7),
            Err(SolveError::InvalidTarget { .. })
        ));
    }

    #[test]
    fn runaway_surfaces_as_a_typed_solve_error() {
        // A laser baked far past its envelope still needs less than the
        // 700 µW ceiling, so the ceiling check passes and the electro-thermal
        // fixed point is what fails — as a typed error, not a panic.
        let s = LaserPowerSolver::new(
            PaperCalibration::dac17()
                .into_channel()
                .with_laser_ambient(onoc_units::Celsius::new(200.0)),
        );
        let err = s.solve(EccScheme::Uncoded, 1e-11).unwrap_err();
        assert!(
            matches!(err, SolveError::ThermalRunaway { .. }),
            "expected runaway, got {err}"
        );
        assert!(err.to_string().contains("thermal runaway"));
    }

    #[test]
    fn error_messages_are_informative() {
        let s = solver();
        let err = s.solve(EccScheme::Uncoded, 1e-12).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("uW"));
        assert!(text.contains("w/o ECC"));
    }
}
