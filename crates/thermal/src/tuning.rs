//! Heater-based thermal tuning of micro-rings.
//!
//! Every ring carries an integrated resistive heater that can hold the ring
//! at an elevated temperature, cancelling ambient drift.  The tuning has
//! three costs a power-aware link manager must model:
//!
//! 1. **heater power** — proportional to the compensated temperature
//!    excursion, quoted in µW/K per ring;
//! 2. **saturation** — a heater has a maximum power, hence a maximum
//!    compensable excursion;
//! 3. **lock error** — a real closed loop (bang-bang or dither-based) holds
//!    the ring only to within a residual error that grows with the excursion
//!    it is fighting.
//!
//! The [`TuningPolicy`] decides whether a ring bank tunes at all: tolerating
//! drift is free but costs link budget; tuning costs heater power but keeps
//! the rings on grid.  Which side wins is a link-budget question, answered by
//! `onoc-photonics`; this module only enumerates the candidate compensations.

use onoc_units::{KelvinDelta, Microwatts};

/// How a ring bank responds to thermal drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TuningPolicy {
    /// Never power the heaters; the link budget absorbs the full drift.
    Tolerate,
    /// Always run the closed loop, whatever it costs.
    AlwaysTune,
    /// Evaluate both and pick whichever yields the lower total power while
    /// remaining feasible (the default).
    #[default]
    Adaptive,
}

impl TuningPolicy {
    /// The candidate compensations this policy allows, in preference order.
    #[must_use]
    pub fn candidates(self) -> &'static [TuningAction] {
        match self {
            Self::Tolerate => &[TuningAction::Tolerate],
            Self::AlwaysTune => &[TuningAction::Tune],
            Self::Adaptive => &[TuningAction::Tolerate, TuningAction::Tune],
        }
    }
}

/// One concrete choice the policy can make for a ring bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuningAction {
    /// Leave the heaters off.
    Tolerate,
    /// Close the loop.
    Tune,
}

/// Outcome of applying a tuner to a temperature excursion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalCompensation {
    /// The excursion the loop was asked to fight.
    pub requested: KelvinDelta,
    /// The part of the excursion the heaters actually cancel.
    pub compensated: KelvinDelta,
    /// The residual excursion the rings still see (`requested − compensated`).
    pub residual: KelvinDelta,
    /// Heater power drawn by one ring for this compensation.
    pub heater_power_per_ring: Microwatts,
}

impl ThermalCompensation {
    /// The zero-cost, zero-effect compensation of a heater that stays off.
    #[must_use]
    pub fn off(requested: KelvinDelta) -> Self {
        Self {
            requested,
            compensated: KelvinDelta::zero(),
            residual: requested,
            heater_power_per_ring: Microwatts::zero(),
        }
    }
}

/// A per-ring heater and its closed-loop controller.
///
/// ```
/// use onoc_thermal::ThermalTuner;
/// use onoc_units::KelvinDelta;
///
/// let tuner = ThermalTuner::paper_heater();
/// let c = tuner.compensate(KelvinDelta::new(60.0));
/// // Most of the excursion is cancelled…
/// assert!(c.compensated.value() > 59.0);
/// // …at ~12 µW/K per ring…
/// assert!((c.heater_power_per_ring.value() - 12.0 * c.compensated.value()).abs() < 1e-9);
/// // …leaving a small residual lock error.
/// assert!(c.residual.value() > 0.0 && c.residual.value() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalTuner {
    /// Heater power per kelvin of compensated excursion, per ring.
    pub power_per_kelvin: Microwatts,
    /// Maximum heater power one ring can draw.
    pub max_power_per_ring: Microwatts,
    /// Residual lock error as a fraction of the requested excursion
    /// (loop gain limitation).
    pub lock_fraction: f64,
    /// Residual lock error floor when the loop is active (dither amplitude /
    /// DAC quantization), as a temperature-equivalent.
    pub lock_floor: KelvinDelta,
}

impl ThermalTuner {
    /// Creates a tuner.
    ///
    /// # Panics
    ///
    /// Panics if the lock fraction is outside `[0, 1)` or the lock floor is
    /// negative.
    #[must_use]
    pub fn new(
        power_per_kelvin: Microwatts,
        max_power_per_ring: Microwatts,
        lock_fraction: f64,
        lock_floor: KelvinDelta,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&lock_fraction),
            "lock fraction must be in [0, 1)"
        );
        assert!(lock_floor.value() >= 0.0, "lock floor must be non-negative");
        Self {
            power_per_kelvin,
            max_power_per_ring,
            lock_fraction,
            lock_floor,
        }
    }

    /// The heater assumed by the reproduction: 12 µW/K per ring (a typical
    /// silicon micro-heater: ~1.2 mW for a full 10 nm / 100 K free spectral
    /// range), saturating at 1.8 mW, with a closed loop that locks to
    /// 0.25% of the excursion plus a 0.03 K floor.
    #[must_use]
    pub fn paper_heater() -> Self {
        Self::new(
            Microwatts::new(12.0),
            Microwatts::new(1800.0),
            0.0025,
            KelvinDelta::new(0.03),
        )
    }

    /// Largest temperature excursion the heater can cancel before
    /// saturating.
    #[must_use]
    pub fn range(&self) -> KelvinDelta {
        if self.power_per_kelvin.is_zero() {
            KelvinDelta::zero()
        } else {
            KelvinDelta::new(self.max_power_per_ring.value() / self.power_per_kelvin.value())
        }
    }

    /// Runs the closed loop against the excursion `delta`.
    ///
    /// The returned compensation preserves the sign of `delta`: residual and
    /// compensated parts always sum to the request.
    #[must_use]
    pub fn compensate(&self, delta: KelvinDelta) -> ThermalCompensation {
        if delta.is_zero() {
            // A perfectly calibrated chip draws no heater power at all.
            return ThermalCompensation::off(delta);
        }
        let magnitude = delta.abs().value();
        let sign = delta.value().signum();
        // The loop cannot do better than its lock error, nor more than the
        // heater range allows.
        let lock_error = (self.lock_floor.value() + self.lock_fraction * magnitude).min(magnitude);
        let compensated = (magnitude - lock_error).min(self.range().value());
        let residual = magnitude - compensated;
        ThermalCompensation {
            requested: delta,
            compensated: KelvinDelta::new(sign * compensated),
            residual: KelvinDelta::new(sign * residual),
            heater_power_per_ring: Microwatts::new(self.power_per_kelvin.value() * compensated),
        }
    }

    /// Applies `action` to the excursion `delta`.
    #[must_use]
    pub fn apply(&self, action: TuningAction, delta: KelvinDelta) -> ThermalCompensation {
        match action {
            TuningAction::Tolerate => ThermalCompensation::off(delta),
            TuningAction::Tune => self.compensate(delta),
        }
    }
}

impl Default for ThermalTuner {
    fn default() -> Self {
        Self::paper_heater()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_excursion_costs_nothing() {
        let c = ThermalTuner::paper_heater().compensate(KelvinDelta::zero());
        assert!(c.heater_power_per_ring.is_zero());
        assert!(c.residual.is_zero());
        assert!(c.compensated.is_zero());
    }

    #[test]
    fn heater_power_is_monotone_in_the_compensated_excursion() {
        let tuner = ThermalTuner::paper_heater();
        let mut last = -1.0;
        for dt in 1..=120 {
            let c = tuner.compensate(KelvinDelta::new(f64::from(dt) * 0.5));
            assert!(
                c.heater_power_per_ring.value() >= last,
                "not monotone at ΔT = {}",
                f64::from(dt) * 0.5
            );
            last = c.heater_power_per_ring.value();
        }
    }

    #[test]
    fn residual_is_monotone_and_far_smaller_than_the_request() {
        let tuner = ThermalTuner::paper_heater();
        let mut last = 0.0;
        for dt in 1..=60 {
            let c = tuner.compensate(KelvinDelta::new(f64::from(dt)));
            assert!(c.residual.value() >= last);
            assert!(c.residual.value() < 0.01 * f64::from(dt) + 0.05);
            last = c.residual.value();
        }
    }

    #[test]
    fn compensation_parts_sum_to_the_request() {
        let tuner = ThermalTuner::paper_heater();
        for dt in [-60.0, -1.0, -0.01, 0.02, 5.0, 60.0] {
            let c = tuner.compensate(KelvinDelta::new(dt));
            assert!(
                (c.compensated.value() + c.residual.value() - dt).abs() < 1e-12,
                "ΔT = {dt}"
            );
            assert!(c.compensated.value() * dt >= 0.0, "sign preserved");
        }
    }

    #[test]
    fn cooling_excursions_are_compensated_symmetrically() {
        let tuner = ThermalTuner::paper_heater();
        let hot = tuner.compensate(KelvinDelta::new(40.0));
        let cold = tuner.compensate(KelvinDelta::new(-40.0));
        assert!((hot.residual.value() + cold.residual.value()).abs() < 1e-12);
        assert_eq!(hot.heater_power_per_ring, cold.heater_power_per_ring);
    }

    #[test]
    fn saturation_caps_the_compensation() {
        let tuner = ThermalTuner::new(
            Microwatts::new(12.0),
            Microwatts::new(120.0), // 10 K range
            0.0,
            KelvinDelta::zero(),
        );
        let c = tuner.compensate(KelvinDelta::new(60.0));
        assert!((c.compensated.value() - 10.0).abs() < 1e-12);
        assert!((c.residual.value() - 50.0).abs() < 1e-12);
        assert!((c.heater_power_per_ring.value() - 120.0).abs() < 1e-12);
    }

    #[test]
    fn policies_enumerate_the_expected_candidates() {
        assert_eq!(
            TuningPolicy::Tolerate.candidates(),
            &[TuningAction::Tolerate]
        );
        assert_eq!(TuningPolicy::AlwaysTune.candidates(), &[TuningAction::Tune]);
        assert_eq!(
            TuningPolicy::Adaptive.candidates(),
            &[TuningAction::Tolerate, TuningAction::Tune]
        );
        assert_eq!(TuningPolicy::default(), TuningPolicy::Adaptive);
    }

    #[test]
    fn apply_dispatches_on_the_action() {
        let tuner = ThermalTuner::paper_heater();
        let delta = KelvinDelta::new(30.0);
        let off = tuner.apply(TuningAction::Tolerate, delta);
        assert!(off.heater_power_per_ring.is_zero());
        assert!((off.residual.value() - 30.0).abs() < 1e-12);
        let on = tuner.apply(TuningAction::Tune, delta);
        assert!(on.heater_power_per_ring.value() > 0.0);
        assert!(on.residual.abs().value() < off.residual.abs().value());
    }

    #[test]
    #[should_panic(expected = "lock fraction")]
    fn invalid_lock_fraction_rejected() {
        let _ = ThermalTuner::new(
            Microwatts::new(12.0),
            Microwatts::new(1800.0),
            1.5,
            KelvinDelta::zero(),
        );
    }
}
