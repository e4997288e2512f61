//! Temperature-aware link budget: ring drift penalty, tune-vs-tolerate and
//! tuning power.
//!
//! This module connects the temperature-domain models of `onoc-thermal` to
//! the photonic link budget:
//!
//! 1. the chip temperature and the [`RingThermalModel`] give the
//!    free-running resonance drift of every ring;
//! 2. the [`ThermalTuner`] (under the configured [`TuningPolicy`]) decides
//!    how much of that drift the heaters cancel, at what per-ring power;
//! 3. the *residual* drift detunes the Lorentzian rings of the
//!    [`MwsrChannel`], shrinking the received swing and
//!    raising the required laser output power;
//! 4. the laser itself runs hotter, so its wall-plug efficiency drops and the
//!    same optical output costs more electrical power.
//!
//! The solver returns both the laser operating point on the detuned channel
//! and a [`ThermalSummary`] carrying the tuning-power term that the channel
//! power report must now include:
//!
//! ```text
//! P_channel = P_ENC+DEC + P_MR + P_laser + P_tune
//! ```

use onoc_ecc_codes::EccScheme;
use onoc_thermal::tuning::TuningAction;
use onoc_thermal::{
    BankCompensation, BankTuningMode, FabricationVariation, ResonanceDrift, RingBankState,
    RingThermalModel, ThermalTuner, TuningPolicy, WavelengthAssignment,
};
use onoc_units::{Celsius, Microwatts, Milliwatts};

use crate::mwsr::MwsrChannel;
use crate::power::{LaserOperatingPoint, LaserPowerSolver, SolveError};

/// The thermal configuration of a link: ring drift, heaters, per-ring
/// fabrication variation, the design-time wavelength assignment and the
/// tuning policy/mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalLinkStack {
    /// Resonance drift model of the ring banks.
    pub rings: RingThermalModel,
    /// Heater/controller model of each ring.
    pub tuner: ThermalTuner,
    /// Tune-vs-tolerate policy.
    pub policy: TuningPolicy,
    /// Per-ring fabrication variation of this chip instance (σ = 0 is the
    /// per-bank scalar model).
    pub variation: FabricationVariation,
    /// How a tuned bank spends its per-ring freedom: pure heating, or
    /// barrel-shift channel hopping plus heating of the residual.
    pub mode: BankTuningMode,
    /// Design-time (GLOW-style) logical-wavelength → ring assignment of the
    /// bank; `None` keeps the design (identity) mapping bit-identically.
    /// Runtime barrel shifting composes on top of it.
    pub assignment: Option<WavelengthAssignment>,
}

impl ThermalLinkStack {
    /// The reproduction's default stack: silicon drift (0.1 nm/K, 25 °C
    /// calibration), the paper heater, the adaptive policy, no fabrication
    /// variation and pure-heater tuning — exactly the per-bank scalar model.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            rings: RingThermalModel::paper_silicon(),
            tuner: ThermalTuner::paper_heater(),
            policy: TuningPolicy::Adaptive,
            variation: FabricationVariation::none(),
            mode: BankTuningMode::PureHeater,
            assignment: None,
        }
    }

    /// Checks every parameter a caller can reach through the public fields:
    /// drift slope, heater powers and lock loop, fabrication σ, and the
    /// tuning mode.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rings.drift_nm_per_kelvin.is_finite() && self.rings.drift_nm_per_kelvin >= 0.0) {
            return Err(format!(
                "drift slope must be finite and non-negative, got {} nm/K",
                self.rings.drift_nm_per_kelvin
            ));
        }
        if !self.rings.calibration.value().is_finite() {
            return Err(format!(
                "calibration temperature must be finite, got {}",
                self.rings.calibration.value()
            ));
        }
        for (name, value) in [
            ("heater power per kelvin", self.tuner.power_per_kelvin),
            ("heater saturation limit", self.tuner.max_power_per_ring),
        ] {
            if !value.value().is_finite() || value.value() < 0.0 {
                return Err(format!(
                    "{name} must be finite and non-negative, got {} uW",
                    value.value()
                ));
            }
        }
        if !(0.0..1.0).contains(&self.tuner.lock_fraction) {
            return Err(format!(
                "lock fraction must be in [0, 1), got {}",
                self.tuner.lock_fraction
            ));
        }
        if !(self.tuner.lock_floor.value().is_finite() && self.tuner.lock_floor.value() >= 0.0) {
            return Err(format!(
                "lock floor must be finite and non-negative, got {} K",
                self.tuner.lock_floor.value()
            ));
        }
        self.variation.validate()?;
        self.mode.validate()?;
        if let Some(assignment) = &self.assignment {
            assignment.validate()?;
        }
        Ok(())
    }

    /// A 64-bit fingerprint of every parameter that changes operating
    /// points: two stacks with different drift, heaters, policy, variation
    /// or tuning mode fingerprint differently.  The memoized operating-point
    /// cache keys on this, so entries solved under one chip instance can
    /// never be served for another.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use onoc_thermal::bank::{fnv1a_seed, fnv1a_u64};
        let mut hash = fnv1a_seed();
        let mut mix = |value: u64| hash = fnv1a_u64(hash, value);
        mix(self.rings.drift_nm_per_kelvin.to_bits());
        mix(self.rings.calibration.value().to_bits());
        mix(self.tuner.power_per_kelvin.value().to_bits());
        mix(self.tuner.max_power_per_ring.value().to_bits());
        mix(self.tuner.lock_fraction.to_bits());
        mix(self.tuner.lock_floor.value().to_bits());
        mix(match self.policy {
            TuningPolicy::Tolerate => 1,
            TuningPolicy::AlwaysTune => 2,
            TuningPolicy::Adaptive => 3,
        });
        mix(self.variation.sigma_nm.to_bits());
        mix(self.variation.seed);
        match self.mode {
            BankTuningMode::PureHeater => mix(1),
            BankTuningMode::BarrelShift { max_shift } => {
                mix(2);
                mix(max_shift as u64);
            }
        }
        match &self.assignment {
            None => mix(0),
            Some(assignment) => {
                mix(1);
                mix(assignment.fingerprint());
            }
        }
        hash
    }
}

impl Default for ThermalLinkStack {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Thermal side of an operating point: what the temperature did to the link
/// and what keeping the rings on grid costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalSummary {
    /// Chip temperature this point was solved at.
    pub temperature: Celsius,
    /// Free-running ring drift at that temperature.
    pub free_drift: ResonanceDrift,
    /// Residual drift after the selected tuning action.
    pub residual_drift: ResonanceDrift,
    /// Heater power per ring.
    pub tuning_power_per_ring: Microwatts,
    /// Rings one wavelength lane keeps on grid.
    pub rings_per_lane: usize,
    /// Heater power charged to one wavelength lane
    /// (`tuning_power_per_ring × rings_per_lane`).
    pub tuning_power_per_lane: Milliwatts,
    /// Rings of barrel shift the tuning applied (0 when the wavelengths keep
    /// their design rings).
    pub barrel_shift: i64,
    /// Wavelength index of the worst ring — the lane that sized the laser.
    pub worst_lane: usize,
}

impl ThermalSummary {
    /// The summary of a perfectly calibrated link: no drift, no tuning power.
    #[must_use]
    pub fn calibrated(temperature: Celsius, rings_per_lane: usize) -> Self {
        Self {
            temperature,
            free_drift: ResonanceDrift::zero(),
            residual_drift: ResonanceDrift::zero(),
            tuning_power_per_ring: Microwatts::zero(),
            rings_per_lane,
            tuning_power_per_lane: Milliwatts::zero(),
            barrel_shift: 0,
            worst_lane: 0,
        }
    }
}

/// A laser power solver that understands temperature.
///
/// ```
/// use onoc_photonics::calibration::PaperCalibration;
/// use onoc_photonics::thermal::{ThermalLinkStack, ThermalSolver};
/// use onoc_ecc_codes::EccScheme;
/// use onoc_units::Celsius;
///
/// let solver = ThermalSolver::new(
///     PaperCalibration::dac17().into_channel(),
///     ThermalLinkStack::paper_default(),
/// );
/// let cool = solver.solve_at(EccScheme::Hamming7164, 1e-11, Celsius::new(25.0))?;
/// let hot = solver.solve_at(EccScheme::Hamming7164, 1e-11, Celsius::new(85.0))?;
/// // Heat costs laser power *and* tuning power.
/// assert!(hot.0.laser_electrical_power.value() > cool.0.laser_electrical_power.value());
/// assert!(hot.1.tuning_power_per_lane.value() > 0.0);
/// # Ok::<(), onoc_photonics::power::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ThermalSolver {
    base: LaserPowerSolver,
    stack: ThermalLinkStack,
}

impl ThermalSolver {
    /// Creates a thermal solver over `channel` with the given stack.
    ///
    /// # Panics
    ///
    /// Panics if the stack carries an invalid parameter (non-finite drift
    /// slope, negative fabrication σ, a wavelength assignment that does not
    /// cover the channel's grid, …) — see [`ThermalLinkStack::validate`] —
    /// so a bad configuration surfaces at construction instead of as NaN
    /// budgets mid-sweep.
    #[must_use]
    pub fn new(channel: MwsrChannel, stack: ThermalLinkStack) -> Self {
        if let Err(reason) = stack.validate() {
            panic!("invalid thermal stack: {reason}");
        }
        if let Some(assignment) = &stack.assignment {
            assert_eq!(
                assignment.len(),
                channel.geometry().wavelength_count(),
                "invalid thermal stack: the wavelength assignment must cover every channel \
                 wavelength"
            );
        }
        Self {
            base: LaserPowerSolver::new(channel),
            stack,
        }
    }

    /// The underlying (calibration-temperature) solver.
    #[must_use]
    pub fn base(&self) -> &LaserPowerSolver {
        &self.base
    }

    /// The thermal stack in use.
    #[must_use]
    pub fn stack(&self) -> &ThermalLinkStack {
        &self.stack
    }

    /// The per-ring spectral state of the channel's bank at `temperature`:
    /// the chip instance's fabrication offsets plus the common-mode thermal
    /// excursion from the calibration point.
    #[must_use]
    pub fn bank_state_at(&self, temperature: Celsius) -> RingBankState {
        let count = self.base.channel().geometry().wavelength_count();
        RingBankState::new(
            self.stack.variation.offsets_nm(count),
            self.stack.rings.delta_at(temperature),
        )
    }

    /// Solves `scheme` at `target_ber` with the chip at `temperature`.
    ///
    /// The per-ring bank state (fabrication offsets + common-mode drift) is
    /// compensated under every tuning action the policy allows — tolerating,
    /// or tuning via the stack's [`BankTuningMode`] (pure heating, or
    /// barrel-shifting the wavelength assignment and heating only the
    /// residual).  A design-time [`WavelengthAssignment`] in the stack
    /// re-indexes the detuning of every lane first (ring
    /// `assignment.ring_for_lane(j)` serves grid slot `j`); the runtime
    /// barrel shift composes on top of it.  Each candidate is solved on the
    /// correspondingly detuned channel, **sized by its worst ring**, and the
    /// feasible candidate with the lowest total per-lane power (laser
    /// electrical + heater) wins.
    ///
    /// With zero fabrication variation the bank is uniform and the pipeline
    /// degenerates bit-identically to the per-bank scalar model: at the
    /// calibration temperature this reproduces the paper's numbers
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns the laser-side [`SolveError`] of the best-tuned candidate when
    /// no action yields a feasible operating point (e.g. the uncoded link at
    /// 85 °C, where even the tuned residual drift pushes the required laser
    /// output past its ceiling).
    pub fn solve_at(
        &self,
        scheme: EccScheme,
        target_ber: f64,
        temperature: Celsius,
    ) -> Result<(LaserOperatingPoint, ThermalSummary), SolveError> {
        let delta = self.stack.rings.delta_at(temperature);
        let free_drift = self.stack.rings.drift_for(delta);
        let rings_per_lane = self.base.channel().rings_per_lane();
        let state = self.bank_state_at(temperature);
        let slope = self.stack.rings.drift_nm_per_kelvin;
        let spacing = self.base.channel().geometry().grid.spacing().value();

        // Distinct bank compensations the policy can produce; at zero
        // excursion with a uniform bank every action degenerates to "heaters
        // off", so the dedup collapses the adaptive policy to a single solve
        // on the hot path every calibration-ambient query takes.
        let mut compensations: Vec<BankCompensation> = Vec::new();
        let assignment = self.stack.assignment.as_ref();
        for &action in self.stack.policy.candidates() {
            let compensation = match action {
                TuningAction::Tolerate => {
                    BankCompensation::off_assigned(&state, spacing, slope, assignment)
                }
                TuningAction::Tune => self.stack.tuner.compensate_bank_assigned(
                    &state,
                    spacing,
                    slope,
                    self.stack.mode,
                    assignment,
                ),
            };
            if !compensations.contains(&compensation) {
                compensations.push(compensation);
            }
        }

        let mut best: Option<(LaserOperatingPoint, ThermalSummary, f64)> = None;
        let mut last_error: Option<SolveError> = None;
        for compensation in compensations {
            let tuning_power_per_ring = compensation.mean_heater_power_per_ring();
            let solved = match compensation.uniform_residual_nm() {
                // A uniform bank is the per-bank scalar model: one shared
                // residual, solved on the worst-crosstalk wavelength.
                Some(residual_nm) => {
                    let residual = ResonanceDrift::new(residual_nm);
                    // An undrifted channel at the base laser ambient is the
                    // base solver itself — reuse it instead of cloning.
                    let reuse_base =
                        residual.is_zero() && temperature == self.base.channel().laser().ambient();
                    let detuned;
                    let solver = if reuse_base {
                        &self.base
                    } else {
                        detuned = LaserPowerSolver::new(
                            self.base
                                .channel()
                                .with_resonance_drift(residual)
                                .with_laser_ambient(temperature),
                        );
                        &detuned
                    };
                    let worst_lane = solver.worst_case_wavelength();
                    solver
                        .solve_on_wavelength(scheme, target_ber, worst_lane)
                        .map(|point| (point, worst_lane))
                }
                // A heterogeneous bank: per-index detuning, sized by the
                // worst ring across all wavelengths.
                None => LaserPowerSolver::new(
                    self.base
                        .channel()
                        .with_ring_detunings(&compensation.residual_nm)
                        .with_laser_ambient(temperature),
                )
                .solve_worst_case(scheme, target_ber),
            };
            match solved {
                Ok((point, worst_lane)) => {
                    let per_lane = Milliwatts::new(
                        tuning_power_per_ring.value() * rings_per_lane as f64 * 1e-3,
                    );
                    let total = point.laser_electrical_power.value() + per_lane.value();
                    let summary = ThermalSummary {
                        temperature,
                        free_drift,
                        residual_drift: compensation.worst_residual(),
                        tuning_power_per_ring,
                        rings_per_lane,
                        tuning_power_per_lane: per_lane,
                        barrel_shift: compensation.shift,
                        worst_lane,
                    };
                    let better = best
                        .as_ref()
                        .is_none_or(|(_, _, best_total)| total < *best_total);
                    if better {
                        best = Some((point, summary, total));
                    }
                }
                Err(error) => last_error = Some(error),
            }
        }
        match best {
            Some((point, summary, _)) => Ok((point, summary)),
            None => Err(last_error.expect("policy always has at least one candidate")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::PaperCalibration;

    fn solver() -> ThermalSolver {
        ThermalSolver::new(
            PaperCalibration::dac17().into_channel(),
            ThermalLinkStack::paper_default(),
        )
    }

    #[test]
    fn calibration_temperature_reproduces_the_baseline_exactly() {
        let thermal = solver();
        let (point, summary) = thermal
            .solve_at(EccScheme::Uncoded, 1e-11, Celsius::new(25.0))
            .unwrap();
        let baseline = thermal.base().solve(EccScheme::Uncoded, 1e-11).unwrap();
        assert_eq!(point, baseline);
        assert!(summary.free_drift.is_zero());
        assert!(summary.residual_drift.is_zero());
        assert!(summary.tuning_power_per_lane.is_zero());
        assert_eq!(summary.rings_per_lane, 12);
    }

    #[test]
    fn laser_power_is_monotone_in_temperature_for_coded_schemes() {
        let thermal = solver();
        for scheme in [EccScheme::Hamming74, EccScheme::Hamming7164] {
            let mut last_total = 0.0;
            for t in (25..=85).step_by(10) {
                let (point, summary) = thermal
                    .solve_at(scheme, 1e-11, Celsius::new(f64::from(t)))
                    .unwrap_or_else(|e| panic!("{scheme} at {t} C: {e}"));
                let total =
                    point.laser_electrical_power.value() + summary.tuning_power_per_lane.value();
                assert!(total >= last_total, "{scheme} not monotone at {t} C");
                last_total = total;
            }
        }
    }

    #[test]
    fn uncoded_link_dies_at_high_temperature_but_hamming_survives() {
        let thermal = solver();
        assert!(thermal
            .solve_at(EccScheme::Uncoded, 1e-11, Celsius::new(25.0))
            .is_ok());
        let hot = Celsius::new(85.0);
        assert!(matches!(
            thermal.solve_at(EccScheme::Uncoded, 1e-11, hot),
            Err(SolveError::LaserPowerExceeded { .. })
        ));
        assert!(thermal.solve_at(EccScheme::Hamming74, 1e-11, hot).is_ok());
        assert!(thermal.solve_at(EccScheme::Hamming7164, 1e-11, hot).is_ok());
    }

    #[test]
    fn tolerating_wins_only_for_tiny_excursions() {
        let thermal = solver();
        // 0.02 K is below the control loop's lock floor: the heaters cannot
        // improve on tolerating, so the policy reports zero tuning power.
        let (_, tiny) = thermal
            .solve_at(EccScheme::Hamming7164, 1e-11, Celsius::new(25.02))
            .unwrap();
        assert!(tiny.tuning_power_per_lane.is_zero());
        assert!((tiny.residual_drift.nanometers() - 0.002).abs() < 1e-12);
        // 10 K of drift (1 nm, ~6 linewidths) would kill the link: it tunes.
        let (_, big) = thermal
            .solve_at(EccScheme::Hamming7164, 1e-11, Celsius::new(35.0))
            .unwrap();
        assert!(big.tuning_power_per_lane.value() > 0.0);
        assert!(big.residual_drift.abs().nanometers() < 0.05);
    }

    #[test]
    fn tolerate_policy_fails_where_adaptive_succeeds() {
        let channel = PaperCalibration::dac17().into_channel();
        let stubborn = ThermalSolver::new(
            channel.clone(),
            ThermalLinkStack {
                policy: TuningPolicy::Tolerate,
                ..ThermalLinkStack::paper_default()
            },
        );
        let hot = Celsius::new(55.0);
        assert!(stubborn.solve_at(EccScheme::Hamming74, 1e-11, hot).is_err());
        let adaptive = ThermalSolver::new(channel, ThermalLinkStack::paper_default());
        assert!(adaptive.solve_at(EccScheme::Hamming74, 1e-11, hot).is_ok());
    }

    #[test]
    fn zero_variation_pipeline_is_bit_identical_to_the_scalar_model() {
        // σ = 0 with an explicit FabricationVariation and the pure-heater
        // mode must reproduce the default (per-bank) stack bit for bit at
        // every temperature — the regression guard of the per-ring refactor.
        let baseline = solver();
        let explicit = ThermalSolver::new(
            PaperCalibration::dac17().into_channel(),
            ThermalLinkStack {
                variation: FabricationVariation::new(0.0, 12345),
                mode: BankTuningMode::PureHeater,
                ..ThermalLinkStack::paper_default()
            },
        );
        for scheme in [
            EccScheme::Uncoded,
            EccScheme::Hamming74,
            EccScheme::Hamming7164,
        ] {
            for t in [25.0, 25.02, 35.0, 55.0, 85.0] {
                let a = baseline.solve_at(scheme, 1e-11, Celsius::new(t));
                let b = explicit.solve_at(scheme, 1e-11, Celsius::new(t));
                assert_eq!(a, b, "{scheme} at {t} C");
            }
        }
    }

    #[test]
    fn barrel_shift_cuts_tuning_power_at_high_temperature() {
        let channel = PaperCalibration::dac17().into_channel();
        let pure = solver();
        let barrel = ThermalSolver::new(
            channel,
            ThermalLinkStack {
                mode: BankTuningMode::full_barrel_shift(16),
                ..ThermalLinkStack::paper_default()
            },
        );
        let (_, p) = pure
            .solve_at(EccScheme::Hamming7164, 1e-11, Celsius::new(85.0))
            .unwrap();
        let (_, b) = barrel
            .solve_at(EccScheme::Hamming7164, 1e-11, Celsius::new(85.0))
            .unwrap();
        // 60 K of drift is 6 nm = 7.5 grid spacings: hopping 7–8 rings
        // leaves a fraction of a spacing for the heaters.
        assert!(
            b.barrel_shift == 7 || b.barrel_shift == 8,
            "k = {}",
            b.barrel_shift
        );
        assert_eq!(p.barrel_shift, 0);
        assert!(
            b.tuning_power_per_lane.value() < 0.2 * p.tuning_power_per_lane.value(),
            "barrel {} vs pure {}",
            b.tuning_power_per_lane,
            p.tuning_power_per_lane
        );
        // At the calibration point the shift is a no-op.
        let (_, cool) = barrel
            .solve_at(EccScheme::Hamming7164, 1e-11, Celsius::new(25.0))
            .unwrap();
        assert_eq!(cool.barrel_shift, 0);
        assert!(cool.tuning_power_per_lane.is_zero());
    }

    #[test]
    fn fabrication_variation_raises_the_bill_and_moves_the_worst_lane() {
        let channel = PaperCalibration::dac17().into_channel();
        let varied = ThermalSolver::new(
            channel,
            ThermalLinkStack {
                variation: FabricationVariation::new(0.04, 9),
                ..ThermalLinkStack::paper_default()
            },
        );
        let (aligned_point, aligned) = solver()
            .solve_at(EccScheme::Hamming7164, 1e-11, Celsius::new(45.0))
            .unwrap();
        let (varied_point, summary) = varied
            .solve_at(EccScheme::Hamming7164, 1e-11, Celsius::new(45.0))
            .unwrap();
        // The worst ring of a varied bank can only need more laser power
        // than the uniform bank's sizing lane.
        assert!(
            varied_point.laser_output_power.value()
                >= aligned_point.laser_output_power.value() - 1e-9
        );
        // The heaters now fight per-ring offsets too.
        assert!(summary.tuning_power_per_lane.value() > aligned.tuning_power_per_lane.value());
        // The free-running worst detuning differs across rings.
        let state = varied.bank_state_at(Celsius::new(45.0));
        assert!(!state.is_uniform());
        assert_eq!(state.ring_count(), 16);
    }

    #[test]
    fn identity_assignment_is_bit_identical_to_the_unassigned_solver() {
        let baseline = solver();
        let assigned = ThermalSolver::new(
            PaperCalibration::dac17().into_channel(),
            ThermalLinkStack {
                assignment: Some(WavelengthAssignment::identity(16)),
                ..ThermalLinkStack::paper_default()
            },
        );
        for scheme in [EccScheme::Uncoded, EccScheme::Hamming7164] {
            for t in [25.0, 35.0, 55.0, 85.0] {
                assert_eq!(
                    baseline.solve_at(scheme, 1e-11, Celsius::new(t)),
                    assigned.solve_at(scheme, 1e-11, Celsius::new(t)),
                    "{scheme} at {t} C"
                );
            }
        }
    }

    #[test]
    fn design_assignment_cuts_tuning_power_and_extends_uncoded_feasibility() {
        use onoc_thermal::{AssignmentStrategy, WavelengthAssigner};
        let hot = Celsius::new(85.0);
        let unassigned = solver();
        let assigner = WavelengthAssigner {
            tuner: ThermalTuner::paper_heater(),
            grid_spacing_nm: 0.8,
            slope_nm_per_kelvin: 0.1,
            strategy: AssignmentStrategy::GreedyRefine,
            seed: 1,
        };
        let assignment = assigner.assign(&unassigned.bank_state_at(hot));
        let assigned = ThermalSolver::new(
            PaperCalibration::dac17().into_channel(),
            ThermalLinkStack {
                assignment: Some(assignment),
                ..ThermalLinkStack::paper_default()
            },
        );
        let (_, plain) = unassigned
            .solve_at(EccScheme::Hamming7164, 1e-11, hot)
            .unwrap();
        let (_, designed) = assigned
            .solve_at(EccScheme::Hamming7164, 1e-11, hot)
            .unwrap();
        assert!(
            designed.tuning_power_per_lane.value() < 0.2 * plain.tuning_power_per_lane.value(),
            "designed {} vs plain {}",
            designed.tuning_power_per_lane,
            plain.tuning_power_per_lane
        );
        // The uncoded path dies at 85 °C without the assignment (the tuned
        // residual still needs too much laser) but survives with it.
        assert!(unassigned.solve_at(EccScheme::Uncoded, 1e-11, hot).is_err());
        assert!(assigned.solve_at(EccScheme::Uncoded, 1e-11, hot).is_ok());
    }

    #[test]
    #[should_panic(expected = "cover every channel wavelength")]
    fn mismatched_assignment_is_rejected_at_construction() {
        let _ = ThermalSolver::new(
            PaperCalibration::dac17().into_channel(),
            ThermalLinkStack {
                assignment: Some(WavelengthAssignment::identity(4)),
                ..ThermalLinkStack::paper_default()
            },
        );
    }

    #[test]
    fn stack_fingerprints_separate_chip_instances() {
        let a = ThermalLinkStack::paper_default();
        let b = ThermalLinkStack {
            variation: FabricationVariation::new(0.04, 1),
            ..ThermalLinkStack::paper_default()
        };
        let c = ThermalLinkStack {
            variation: FabricationVariation::new(0.04, 2),
            ..ThermalLinkStack::paper_default()
        };
        let d = ThermalLinkStack {
            mode: BankTuningMode::full_barrel_shift(16),
            ..ThermalLinkStack::paper_default()
        };
        let e = ThermalLinkStack {
            assignment: Some(WavelengthAssignment::identity(16)),
            ..ThermalLinkStack::paper_default()
        };
        let f = ThermalLinkStack {
            assignment: Some(
                WavelengthAssignment::new((0..16).map(|j| (j + 1) % 16).collect()).unwrap(),
            ),
            ..ThermalLinkStack::paper_default()
        };
        assert_eq!(
            a.fingerprint(),
            ThermalLinkStack::paper_default().fingerprint()
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(b.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint(), d.fingerprint());
        // The op-cache can never alias assignments: no assignment, the
        // explicit identity and a rotation all fingerprint apart.
        assert_ne!(a.fingerprint(), e.fingerprint());
        assert_ne!(e.fingerprint(), f.fingerprint());
    }

    #[test]
    fn invalid_stacks_are_rejected_at_construction() {
        let mut stack = ThermalLinkStack::paper_default();
        stack.rings.drift_nm_per_kelvin = f64::NAN;
        assert!(stack.validate().unwrap_err().contains("drift slope"));

        let mut stack = ThermalLinkStack::paper_default();
        stack.variation.sigma_nm = -1.0;
        assert!(stack.validate().unwrap_err().contains("sigma"));

        let mut stack = ThermalLinkStack::paper_default();
        stack.tuner.lock_fraction = f64::INFINITY;
        assert!(stack.validate().unwrap_err().contains("lock fraction"));

        let mut stack = ThermalLinkStack::paper_default();
        stack.mode = BankTuningMode::BarrelShift { max_shift: 0 };
        assert!(stack.validate().unwrap_err().contains("barrel-shift"));

        assert!(ThermalLinkStack::paper_default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid thermal stack")]
    fn solver_construction_rejects_nan_saturation() {
        let mut stack = ThermalLinkStack::paper_default();
        stack.tuner.max_power_per_ring = Microwatts::new(1.0) * f64::NAN;
        let _ = ThermalSolver::new(PaperCalibration::dac17().into_channel(), stack);
    }

    #[test]
    fn cooling_below_calibration_also_costs_tuning_power() {
        let thermal = solver();
        let (_, summary) = thermal
            .solve_at(EccScheme::Hamming7164, 1e-11, Celsius::new(5.0))
            .unwrap();
        assert!(summary.free_drift.nanometers() < 0.0);
        assert!(summary.tuning_power_per_lane.value() > 0.0);
    }
}
