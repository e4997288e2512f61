//! On-chip VCSEL laser model with temperature-dependent efficiency.
//!
//! The paper uses CMOS-compatible photonic-crystal VCSELs (ref. [16]) whose
//! wall-plug efficiency drops as the device heats up.  The electrical power
//! `P_laser` needed to emit an optical power `OP_laser` therefore grows
//! linearly at low output levels and super-linearly once self-heating and the
//! activity of the underlying electrical layer raise the junction
//! temperature — the behaviour plotted in Fig. 4 of the paper for a 25% chip
//! activity.
//!
//! The model here makes that feedback loop explicit:
//!
//! 1. junction temperature = ambient + activity heating + θ·P_laser,
//! 2. efficiency η(T) = η₀ · exp(−(T − T_ref)/T_scale),
//! 3. P_laser = OP_laser / η(T),
//!
//! solved as a fixed point.  The default constants are calibrated so that the
//! curve reproduces the shape and the anchor points of Fig. 4 (≈ 5%
//! efficiency in the linear region, a hard 700 µW ceiling on the deliverable
//! optical power, and ≈ 14 mW of electrical power at that ceiling).

use onoc_units::{Celsius, Microwatts, Milliwatts};

/// The electro-thermal fixed point diverged: every extra milliwatt of
/// electrical power heats the junction enough to cost more than a milliwatt
/// of efficiency — no finite electrical power emits the requested output.
///
/// With the paper VCSEL this happens around 85 °C ambient; topology sweeps
/// probe that whole envelope, so the condition is a typed error rather than
/// a panic (the link layer reports it as `LinkError::Infeasible`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalRunaway {
    /// Requested optical output the solve was running for.
    pub optical_output: Microwatts,
    /// Electrical-layer activity of the failing solve.
    pub activity: f64,
}

impl std::fmt::Display for ThermalRunaway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "laser thermal runaway while solving for {} at activity {:.2}",
            self.optical_output, self.activity
        )
    }
}

impl std::error::Error for ThermalRunaway {}

/// Thermal/efficiency description of a VCSEL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserThermalModel {
    /// Wall-plug efficiency at the reference temperature.
    pub base_efficiency: f64,
    /// Temperature at which `base_efficiency` is measured.
    pub reference_temperature: Celsius,
    /// Exponential roll-off scale of the efficiency with temperature.
    pub efficiency_decay_scale: Celsius,
    /// Junction heating contributed by full (100%) electrical-layer activity.
    pub activity_heating: Celsius,
    /// Self-heating per milliwatt of electrical laser power.
    pub self_heating_per_milliwatt: Celsius,
}

impl LaserThermalModel {
    /// Thermal model calibrated against Fig. 4 of the paper.
    #[must_use]
    pub fn paper_calibrated() -> Self {
        Self {
            base_efficiency: 0.055,
            reference_temperature: Celsius::new(35.0),
            efficiency_decay_scale: Celsius::new(105.0),
            activity_heating: Celsius::new(40.0),
            self_heating_per_milliwatt: Celsius::new(1.0),
        }
    }

    /// Wall-plug efficiency at junction temperature `t`.
    #[must_use]
    pub fn efficiency_at(&self, t: Celsius) -> f64 {
        let delta = t.value() - self.reference_temperature.value();
        self.base_efficiency * (-delta / self.efficiency_decay_scale.value()).exp()
    }
}

impl Default for LaserThermalModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

/// A CMOS-compatible VCSEL laser source.
///
/// ```
/// use onoc_photonics::devices::VcselLaser;
/// use onoc_units::Microwatts;
///
/// let laser = VcselLaser::paper_vcsel();
/// let low = laser.try_electrical_power(Microwatts::new(100.0), 0.25)?;
/// let high = laser.try_electrical_power(Microwatts::new(700.0), 0.25)?;
/// // The high-output point costs more than 7× the low-output point: the
/// // efficiency roll-off makes the curve super-linear (Fig. 4).
/// assert!(high.value() / low.value() > 7.0);
/// # Ok::<(), onoc_photonics::devices::ThermalRunaway>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcselLaser {
    thermal: LaserThermalModel,
    ambient: Celsius,
    max_output: Microwatts,
}

impl VcselLaser {
    /// Creates a laser from a thermal model, ambient temperature and maximum
    /// deliverable optical output power.
    ///
    /// # Panics
    ///
    /// Panics if the maximum output power is zero.
    #[must_use]
    pub fn new(thermal: LaserThermalModel, ambient: Celsius, max_output: Microwatts) -> Self {
        assert!(
            max_output.value() > 0.0,
            "maximum optical output must be positive"
        );
        Self {
            thermal,
            ambient,
            max_output,
        }
    }

    /// The laser assumed by the paper: Fig. 4 calibration, 25 °C ambient and
    /// a 700 µW ceiling on the optical output power.
    #[must_use]
    pub fn paper_vcsel() -> Self {
        Self::new(
            LaserThermalModel::paper_calibrated(),
            Celsius::new(25.0),
            Microwatts::new(700.0),
        )
    }

    /// Maximum optical output power the laser can deliver.
    #[must_use]
    pub fn max_output(&self) -> Microwatts {
        self.max_output
    }

    /// Ambient temperature of the optical layer this laser sits in.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Returns a copy of this laser operating at a different ambient
    /// temperature.  A hotter ambient lowers the wall-plug efficiency, so the
    /// same optical output costs more electrical power (Fig. 4's curve shifts
    /// up) — the laser-side half of the thermal model.
    #[must_use]
    pub fn with_ambient(&self, ambient: Celsius) -> Self {
        Self { ambient, ..*self }
    }

    /// The thermal/efficiency model.
    #[must_use]
    pub fn thermal_model(&self) -> &LaserThermalModel {
        &self.thermal
    }

    /// Returns `true` when the laser can emit `optical_output`.
    #[must_use]
    pub fn can_emit(&self, optical_output: Microwatts) -> bool {
        optical_output.value() <= self.max_output.value() + 1e-9
    }

    /// Junction temperature for a given electrical power and chip activity.
    #[must_use]
    pub fn junction_temperature(&self, electrical: Milliwatts, activity: f64) -> Celsius {
        Celsius::new(
            self.ambient.value()
                + self.thermal.activity_heating.value() * activity.clamp(0.0, 1.0)
                + self.thermal.self_heating_per_milliwatt.value() * electrical.value(),
        )
    }

    /// Electrical power needed to emit `optical_output` with the electrical
    /// layer running at `activity` (0.0–1.0).
    ///
    /// The electro-thermal feedback is resolved by damped fixed-point
    /// iteration; the solution is unique because the efficiency is a
    /// monotonically decreasing function of the electrical power.  A
    /// diverging fixed point is reported as [`ThermalRunaway`], so envelope
    /// sweeps can record the point as infeasible.
    ///
    /// # Errors
    ///
    /// [`ThermalRunaway`] when the fixed point diverges (or fails to
    /// converge) — no finite electrical power can emit `optical_output` at
    /// this ambient/activity.
    ///
    /// # Panics
    ///
    /// Panics if `optical_output` exceeds the laser's deliverable maximum
    /// (check with [`VcselLaser::can_emit`] first); that is a precondition
    /// violation, not a physical infeasibility.
    pub fn try_electrical_power(
        &self,
        optical_output: Microwatts,
        activity: f64,
    ) -> Result<Milliwatts, ThermalRunaway> {
        assert!(
            self.can_emit(optical_output),
            "requested optical output {optical_output} exceeds the laser maximum {}",
            self.max_output
        );
        if optical_output.is_zero() {
            return Ok(Milliwatts::zero());
        }
        let runaway = ThermalRunaway {
            optical_output,
            activity,
        };
        let op_mw = optical_output.to_milliwatts().value();
        // Initial guess: constant base efficiency.
        let mut electrical = op_mw / self.thermal.base_efficiency;
        let mut converged = false;
        for _ in 0..500 {
            let t = self.junction_temperature(Milliwatts::new(electrical), activity);
            let eta = self.thermal.efficiency_at(t);
            let next = op_mw / eta;
            if !next.is_finite() || next > 1e4 {
                return Err(runaway);
            }
            if (next - electrical).abs() < 1e-9 {
                electrical = next;
                converged = true;
                break;
            }
            // Damping keeps the iteration stable close to the runaway region.
            electrical = 0.5 * electrical + 0.5 * next;
        }
        // The damped iteration on a monotone map only fails to settle when it
        // is creeping towards the divergence; classify that as runaway too.
        if !converged {
            return Err(runaway);
        }
        Ok(Milliwatts::new(electrical))
    }
}

impl Default for VcselLaser {
    fn default() -> Self {
        Self::paper_vcsel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_decreases_with_temperature() {
        let model = LaserThermalModel::paper_calibrated();
        let cool = model.efficiency_at(Celsius::new(35.0));
        let hot = model.efficiency_at(Celsius::new(85.0));
        assert!((cool - 0.055).abs() < 1e-12);
        assert!(hot < cool);
    }

    #[test]
    fn electrical_power_is_monotone_in_optical_output() {
        let laser = VcselLaser::paper_vcsel();
        let mut last = Milliwatts::zero();
        for op in (0..=14).map(|i| Microwatts::new(i as f64 * 50.0)) {
            let p = laser.try_electrical_power(op, 0.25).unwrap();
            assert!(p.value() >= last.value(), "not monotone at {op}");
            last = p;
        }
    }

    #[test]
    fn low_output_region_is_roughly_linear_at_5_percent_efficiency() {
        let laser = VcselLaser::paper_vcsel();
        let p100 = laser
            .try_electrical_power(Microwatts::new(100.0), 0.25)
            .unwrap();
        let p200 = laser
            .try_electrical_power(Microwatts::new(200.0), 0.25)
            .unwrap();
        // Doubling the output should cost close to (but slightly more than)
        // twice the power.
        let ratio = p200.value() / p100.value();
        assert!(ratio > 1.95 && ratio < 2.3, "ratio = {ratio}");
        let eff = Microwatts::new(100.0).to_milliwatts().value() / p100.value();
        assert!(eff > 0.035 && eff < 0.055, "efficiency = {eff}");
    }

    #[test]
    fn high_output_region_is_super_linear() {
        let laser = VcselLaser::paper_vcsel();
        let p350 = laser
            .try_electrical_power(Microwatts::new(350.0), 0.25)
            .unwrap();
        let p700 = laser
            .try_electrical_power(Microwatts::new(700.0), 0.25)
            .unwrap();
        // Fig. 4: beyond ~500 µW the curve bends upwards.
        assert!(p700.value() / p350.value() > 2.05);
    }

    #[test]
    fn fig4_anchor_point_at_the_ceiling() {
        let laser = VcselLaser::paper_vcsel();
        let p = laser
            .try_electrical_power(Microwatts::new(700.0), 0.25)
            .unwrap();
        assert!(
            p.value() > 12.0 && p.value() < 17.0,
            "P_laser(700 uW) = {p}"
        );
    }

    #[test]
    fn activity_raises_the_electrical_power() {
        let laser = VcselLaser::paper_vcsel();
        let idle = laser
            .try_electrical_power(Microwatts::new(400.0), 0.0)
            .unwrap();
        let busy = laser
            .try_electrical_power(Microwatts::new(400.0), 1.0)
            .unwrap();
        assert!(busy.value() > idle.value());
    }

    #[test]
    fn zero_output_costs_nothing() {
        let laser = VcselLaser::paper_vcsel();
        assert!(laser
            .try_electrical_power(Microwatts::zero(), 0.25)
            .unwrap()
            .is_zero());
    }

    #[test]
    fn ceiling_is_enforced() {
        let laser = VcselLaser::paper_vcsel();
        assert!(laser.can_emit(Microwatts::new(700.0)));
        assert!(!laser.can_emit(Microwatts::new(701.0)));
    }

    #[test]
    #[should_panic(expected = "exceeds the laser maximum")]
    fn over_ceiling_request_panics() {
        let laser = VcselLaser::paper_vcsel();
        let _ = laser.try_electrical_power(Microwatts::new(900.0), 0.25);
    }

    #[test]
    fn runaway_is_a_typed_error() {
        // Far beyond the paper envelope the electro-thermal fixed point has
        // no solution: every milliwatt heats the junction enough to cost
        // more than a milliwatt of efficiency.
        let furnace = VcselLaser::paper_vcsel().with_ambient(Celsius::new(150.0));
        let err = furnace
            .try_electrical_power(Microwatts::new(700.0), 1.0)
            .expect_err("no fixed point exists at 150 degC ambient");
        assert!((err.optical_output.value() - 700.0).abs() < 1e-9);
        assert!(err.to_string().contains("thermal runaway"));
        // The feasible region is still served normally by the same path.
        assert!(VcselLaser::paper_vcsel()
            .try_electrical_power(Microwatts::new(700.0), 0.25)
            .is_ok());
    }

    #[test]
    fn hotter_ambient_costs_more_electrical_power() {
        let laser = VcselLaser::paper_vcsel();
        assert!((laser.ambient().value() - 25.0).abs() < 1e-12);
        let hot = laser.with_ambient(Celsius::new(85.0));
        assert!((hot.ambient().value() - 85.0).abs() < 1e-12);
        let op = Microwatts::new(400.0);
        let power = |l: &VcselLaser| l.try_electrical_power(op, 0.25).unwrap().value();
        assert!(power(&hot) > power(&laser));
        // The optical ceiling is a device property, unaffected by ambient.
        assert_eq!(hot.max_output(), laser.max_output());
        // Same ambient reproduces the same numbers exactly.
        let same = laser.with_ambient(Celsius::new(25.0));
        assert_eq!(power(&same), power(&laser));
    }

    #[test]
    fn junction_temperature_composition() {
        let laser = VcselLaser::paper_vcsel();
        let t = laser.junction_temperature(Milliwatts::new(10.0), 0.25);
        // 25 + 40*0.25 + 1.0*10 = 45 °C.
        assert!((t.value() - 45.0).abs() < 1e-9);
    }
}
