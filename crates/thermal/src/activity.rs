//! Activity-coupled chip thermal model: a per-ONI RC network driven by the
//! power the interconnect itself dissipates.
//!
//! The [`crate::ThermalEnvironment`] scenarios play back *prescribed*
//! temperature traces.  In a real package the heat comes from the link: the
//! laser, the ring heaters and the drivers dissipate into the interposer,
//! the local temperature rises, the rings drift, the runtime manager reacts,
//! and the new operating point changes the dissipation again.  Closing that
//! loop needs a thermal plant the simulator can *drive* with deposited
//! electrical power instead of sampling from a fixed trace.
//!
//! [`ActivityCoupledEnvironment`] is that plant: every ONI is one node of a
//! ring-topology RC network with
//!
//! * a heat capacity `C` (how much energy one kelvin of excess costs),
//! * a resistance `R_amb` to the package ambient (heat-sinking), and
//! * a coupling resistance `R_c` to each ring neighbour (lateral spreading
//!   through the interposer).
//!
//! The node equation integrated by [`ThermalModel::advance`] is
//!
//! ```text
//! C · dT_i/dt = P_i(t) − (T_i − T_amb)/R_amb − Σ_{j∈N(i)} (T_i − T_j)/R_c
//! ```
//!
//! where `P_i` is the link's own dissipation plus, when the network carries
//! a [`WorkloadSchedule`], the compute heat that schedule injects into the
//! node: a hot accelerator under one corner of the interposer warms the
//! channels near it while the link's own power still closes the loop.
//!
//! # Units
//!
//! Powers are milliwatts, times are nanoseconds and energies picojoules
//! (1 mW × 1 ns = 1 pJ), matching the NoC simulator's time base.  With the
//! heat capacity in pJ/K and resistances in K/mW the thermal time constant
//! `τ = R_amb·C` comes out directly in nanoseconds.
//!
//! The [`RcNetworkParameters::paper_package`] defaults are deliberately
//! *accelerated*: a real package has τ in the millisecond range, six orders
//! of magnitude beyond what a nanosecond-scale NoC simulation can reach, so
//! the defaults scale the heat capacity down until the steady-state
//! temperatures (which depend only on the resistances, not on `C`) develop
//! within a few microseconds of simulated time.  The steady-state excess per
//! channel solves `ΔT = R_amb × P_channel(25 °C + ΔT)` — the channel power
//! itself grows with temperature (hot laser, ring heaters), which is the
//! positive feedback this model exists to capture.  At the default
//! 0.10 K/mW an always-on uncoded channel (≈ 240 mW cold, ≈ 355 mW at
//! 45 °C) heads past the ≈ 50 °C collapse of the uncoded link budget,
//! while an H(71,64) channel balances near 45 °C: switching to the coded
//! scheme genuinely cools the node.

use onoc_units::Celsius;

use crate::model::ThermalModel;
use crate::schedule::WorkloadSchedule;

/// Physical parameters of the per-ONI thermal RC network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcNetworkParameters {
    /// Package ambient temperature (the heat-sink side of `R_amb`).
    pub ambient: Celsius,
    /// Heat capacity of one ONI node, in pJ/K.
    pub heat_capacity_pj_per_k: f64,
    /// Thermal resistance from each node to the ambient, in K/mW.
    pub ambient_resistance_k_per_mw: f64,
    /// Thermal resistance between ring neighbours, in K/mW.
    pub coupling_resistance_k_per_mw: f64,
}

impl RcNetworkParameters {
    /// The accelerated package used by the feedback demonstrations (see the
    /// module documentation for the scaling rationale): 25 °C ambient,
    /// `R_amb` = 0.10 K/mW, `R_c` = 1.5 K/mW, `C` = 2000 pJ/K
    /// (τ = 200 ns).
    #[must_use]
    pub fn paper_package() -> Self {
        Self {
            ambient: Celsius::new(25.0),
            heat_capacity_pj_per_k: 2000.0,
            ambient_resistance_k_per_mw: 0.10,
            coupling_resistance_k_per_mw: 1.5,
        }
    }

    /// Thermal time constant `τ = R_amb·C` of an isolated node, in
    /// nanoseconds.
    #[must_use]
    pub fn time_constant_ns(&self) -> f64 {
        self.ambient_resistance_k_per_mw * self.heat_capacity_pj_per_k
    }

    /// Steady-state temperature excess of an isolated node dissipating
    /// `power_mw`, in kelvin.
    #[must_use]
    pub fn steady_state_excess_k(&self, power_mw: f64) -> f64 {
        self.ambient_resistance_k_per_mw * power_mw
    }

    /// Checks the parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the ambient is not finite or any
    /// of the capacity/resistance figures is not positive and finite.
    pub fn validate(&self) -> Result<(), String> {
        if !self.ambient.value().is_finite() {
            return Err(format!(
                "RC network ambient temperature must be finite, got {}",
                self.ambient.value()
            ));
        }
        let positive = [
            ("heat capacity", self.heat_capacity_pj_per_k),
            ("ambient resistance", self.ambient_resistance_k_per_mw),
            ("coupling resistance", self.coupling_resistance_k_per_mw),
        ];
        for (name, value) in positive {
            if !(value > 0.0 && value.is_finite()) {
                return Err(format!(
                    "RC network {name} must be positive and finite, got {value}"
                ));
            }
        }
        Ok(())
    }
}

impl Default for RcNetworkParameters {
    fn default() -> Self {
        Self::paper_package()
    }
}

/// The stateful per-ONI thermal plant: node temperatures evolved by the
/// power the simulator deposits each epoch, plus the compute heat of an
/// optional workload schedule, on a clock that starts at zero.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityCoupledEnvironment {
    parameters: RcNetworkParameters,
    temperatures_c: Vec<f64>,
    workload: Option<WorkloadSchedule>,
    time_ns: f64,
}

impl ActivityCoupledEnvironment {
    /// Creates the network with every node at the package ambient.
    ///
    /// # Panics
    ///
    /// Panics if `oni_count` is zero or the parameters are invalid (see
    /// [`RcNetworkParameters::validate`]).
    #[must_use]
    pub fn new(oni_count: usize, parameters: RcNetworkParameters) -> Self {
        assert!(oni_count > 0, "at least one ONI is required");
        parameters
            .validate()
            .unwrap_or_else(|reason| panic!("invalid RC network parameters: {reason}"));
        Self {
            temperatures_c: vec![parameters.ambient.value(); oni_count],
            parameters,
            workload: None,
            time_ns: 0.0,
        }
    }

    /// Superimposes `schedule`'s per-ONI compute heat on the link's
    /// dissipation, from the clock's zero.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is invalid for this network's ONI count (see
    /// [`WorkloadSchedule::validate`]).
    #[must_use]
    pub(crate) fn with_workload(mut self, schedule: WorkloadSchedule) -> Self {
        schedule
            .validate(self.oni_count())
            .unwrap_or_else(|reason| panic!("invalid workload schedule: {reason}"));
        self.workload = Some(schedule);
        self
    }

    /// Number of nodes (ONIs) in the network.
    #[must_use]
    pub fn oni_count(&self) -> usize {
        self.temperatures_c.len()
    }

    /// The network parameters.
    #[must_use]
    pub fn parameters(&self) -> &RcNetworkParameters {
        &self.parameters
    }

    /// Current simulated time, in nanoseconds.
    #[must_use]
    pub fn time_ns(&self) -> f64 {
        self.time_ns
    }

    /// Current node temperatures in °C, indexed by ONI.
    #[must_use]
    pub fn temperatures_c(&self) -> &[f64] {
        &self.temperatures_c
    }

    /// Current temperature of one node.
    ///
    /// # Panics
    ///
    /// Panics if `oni` is out of range.
    #[must_use]
    pub fn temperature_of(&self, oni: usize) -> Celsius {
        Celsius::new(self.temperatures_c[oni])
    }

    /// The hottest node temperature.
    #[must_use]
    pub fn hottest(&self) -> Celsius {
        Celsius::new(
            self.temperatures_c
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Integrates the node equation over `dt_ns` nanoseconds with
    /// `deposited_power_mw` milliwatts dissipated into each node, leaving
    /// the clock alone: [`ThermalModel::advance`] adds the workload's heat
    /// and moves the clock.
    ///
    /// Integration is explicit Euler with internal sub-stepping well inside
    /// the stability bound, so arbitrarily long idle gaps can be stepped in
    /// one call (the sub-step count is capped; past the cap the network has
    /// long since converged to its steady state).
    ///
    /// # Panics
    ///
    /// Panics if `deposited_power_mw` does not have one entry per node, any
    /// entry is not finite, or `dt_ns` is negative or not finite.
    pub(crate) fn step(&mut self, deposited_power_mw: &[f64], dt_ns: f64) {
        assert_eq!(
            deposited_power_mw.len(),
            self.temperatures_c.len(),
            "one power entry per ONI is required"
        );
        assert!(
            dt_ns >= 0.0 && dt_ns.is_finite(),
            "step duration must be non-negative and finite"
        );
        assert!(
            deposited_power_mw.iter().all(|p| p.is_finite()),
            "deposited powers must be finite"
        );
        if dt_ns == 0.0 {
            return;
        }
        let n = self.temperatures_c.len();
        let c = self.parameters.heat_capacity_pj_per_k;
        let g_amb = 1.0 / self.parameters.ambient_resistance_k_per_mw;
        let g_couple = if n > 1 {
            1.0 / self.parameters.coupling_resistance_k_per_mw
        } else {
            0.0
        };
        // Explicit-Euler stability bound is dt < 2C / (g_amb + 2·g_couple);
        // run at 1/100 of the characteristic time for accuracy.  Gaps longer
        // than the capped horizon are truncated: the horizon is hundreds of
        // time constants, past which the network sits at its steady state.
        const MAX_SUBSTEPS: usize = 50_000;
        let rate = (g_amb + 2.0 * g_couple) / c;
        let accurate_dt = 0.02 / rate;
        let total = dt_ns.min(accurate_dt * MAX_SUBSTEPS as f64);
        let substeps = ((total / accurate_dt).ceil() as usize).clamp(1, MAX_SUBSTEPS);
        let sub_dt = total / substeps as f64;
        let ambient = self.parameters.ambient.value();
        let mut next = vec![0.0f64; n];
        for _ in 0..substeps {
            for i in 0..n {
                let t = self.temperatures_c[i];
                let mut flow_mw = deposited_power_mw[i] - (t - ambient) * g_amb;
                if n > 1 {
                    let left = self.temperatures_c[(i + n - 1) % n];
                    let right = self.temperatures_c[(i + 1) % n];
                    flow_mw += ((left - t) + (right - t)) * g_couple;
                }
                next[i] = t + flow_mw * sub_dt / c;
            }
            self.temperatures_c.copy_from_slice(&next);
        }
    }
}

impl ThermalModel for ActivityCoupledEnvironment {
    fn oni_count(&self) -> usize {
        self.oni_count()
    }

    fn temperature_of(&self, oni: usize) -> Celsius {
        self.temperature_of(oni)
    }

    /// Steps the network with the link's power plus, per node, the
    /// workload's exact mean power over the interval.
    fn advance(&mut self, deposited_power_mw: &[f64], dt_ns: f64) {
        let to_ns = self.time_ns + dt_ns;
        if let Some(schedule) = &self.workload {
            assert_eq!(
                deposited_power_mw.len(),
                self.temperatures_c.len(),
                "one power entry per ONI is required"
            );
            let powers: Vec<f64> = deposited_power_mw
                .iter()
                .enumerate()
                .map(|(oni, &link_mw)| link_mw + schedule.mean_power_mw(oni, self.time_ns, to_ns))
                .collect();
            self.step(&powers, dt_ns);
        } else {
            self.step(deposited_power_mw, dt_ns);
        }
        self.time_ns = to_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_start_at_the_ambient() {
        let env = ActivityCoupledEnvironment::new(12, RcNetworkParameters::paper_package());
        assert_eq!(env.oni_count(), 12);
        for oni in 0..12 {
            assert!((env.temperature_of(oni).value() - 25.0).abs() < 1e-12);
        }
        assert!((env.hottest().value() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn constant_power_converges_to_the_analytic_steady_state() {
        // A single node has the closed-form steady state ΔT = R_amb × P.
        let params = RcNetworkParameters::paper_package();
        let mut env = ActivityCoupledEnvironment::new(1, params);
        let power = [200.0];
        // 40 time constants: fully converged.
        env.step(&power, params.time_constant_ns() * 40.0);
        let expected = 25.0 + params.steady_state_excess_k(200.0);
        assert!(
            (env.temperature_of(0).value() - expected).abs() < 0.05,
            "steady state {} vs expected {expected}",
            env.temperature_of(0).value()
        );
    }

    #[test]
    fn step_response_follows_the_first_order_time_constant() {
        let params = RcNetworkParameters::paper_package();
        let mut env = ActivityCoupledEnvironment::new(1, params);
        env.step(&[100.0], params.time_constant_ns());
        let excess = env.temperature_of(0).value() - 25.0;
        let expected = params.steady_state_excess_k(100.0) * (1.0 - (-1.0f64).exp());
        assert!(
            (excess - expected).abs() < 0.1,
            "one-τ excess {excess} vs {expected}"
        );
    }

    #[test]
    fn heat_spreads_to_ring_neighbours() {
        let mut env = ActivityCoupledEnvironment::new(8, RcNetworkParameters::paper_package());
        let mut power = vec![0.0; 8];
        power[0] = 250.0;
        env.step(&power, 2000.0);
        let hot = env.temperature_of(0).value();
        let near = env.temperature_of(1).value();
        let far = env.temperature_of(4).value();
        assert!(hot > near, "driven node is hottest");
        assert!(near > far, "neighbours are warmer than the far side");
        assert!(far > 25.0, "heat reaches the far side of the ring");
        // The ring is symmetric around the driven node.
        assert!((env.temperature_of(1).value() - env.temperature_of(7).value()).abs() < 1e-9);
    }

    #[test]
    fn cooling_returns_to_the_ambient() {
        let params = RcNetworkParameters::paper_package();
        let mut env = ActivityCoupledEnvironment::new(4, params);
        env.step(&[200.0; 4], params.time_constant_ns() * 10.0);
        assert!(env.hottest().value() > 40.0);
        env.step(&[0.0; 4], params.time_constant_ns() * 40.0);
        assert!((env.hottest().value() - 25.0).abs() < 0.05);
    }

    #[test]
    fn zero_duration_step_is_a_no_op() {
        let mut env = ActivityCoupledEnvironment::new(3, RcNetworkParameters::paper_package());
        env.step(&[500.0; 3], 0.0);
        assert!((env.hottest().value() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn long_idle_gaps_are_stepped_in_one_call() {
        // The sub-step cap must not prevent convergence over a huge gap.
        let params = RcNetworkParameters::paper_package();
        let mut env = ActivityCoupledEnvironment::new(2, params);
        env.step(&[100.0, 100.0], 1e9);
        let expected = 25.0 + params.steady_state_excess_k(100.0);
        assert!((env.temperature_of(0).value() - expected).abs() < 0.5);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let good = RcNetworkParameters::paper_package();
        assert!(good.validate().is_ok());
        let mut bad = good;
        // Quantity arithmetic bypasses the constructor's finiteness check.
        bad.ambient = Celsius::new(25.0) * f64::NAN;
        assert!(bad.validate().unwrap_err().contains("ambient temperature"));
        let mut bad = good;
        bad.heat_capacity_pj_per_k = 0.0;
        assert!(bad.validate().unwrap_err().contains("heat capacity"));
        let mut bad = good;
        bad.ambient_resistance_k_per_mw = f64::INFINITY;
        assert!(bad.validate().unwrap_err().contains("ambient resistance"));
        let mut bad = good;
        bad.coupling_resistance_k_per_mw = -1.0;
        assert!(bad.validate().unwrap_err().contains("coupling resistance"));
    }

    #[test]
    fn advance_without_a_workload_steps_the_link_power_alone() {
        let params = RcNetworkParameters::paper_package();
        let mut model = ActivityCoupledEnvironment::new(3, params);
        let mut plain = ActivityCoupledEnvironment::new(3, params);
        for dt in [25.0, 0.0, 130.0] {
            model.advance(&[40.0, 0.0, 90.0], dt);
            plain.step(&[40.0, 0.0, 90.0], dt);
        }
        assert_eq!(
            model,
            ActivityCoupledEnvironment {
                time_ns: 155.0,
                ..plain
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one ONI")]
    fn zero_nodes_panics() {
        let _ = ActivityCoupledEnvironment::new(0, RcNetworkParameters::paper_package());
    }

    #[test]
    #[should_panic(expected = "one power entry per ONI")]
    fn mismatched_power_vector_panics() {
        let mut env = ActivityCoupledEnvironment::new(4, RcNetworkParameters::paper_package());
        env.step(&[1.0; 3], 10.0);
    }
}
