//! The thermal substrate of a simulation: the [`ThermalModel`] stepping
//! contract, its two implementations, and the [`ThermalModelSpec`]
//! description a scenario configuration carries.
//!
//! * [`PrescribedEnvironment`] — a [`ThermalEnvironment`] trace (uniform,
//!   hotspot or transient) bound to an ONI count and a clock; deposited
//!   power is ignored;
//! * [`ActivityCoupledEnvironment`] — the per-ONI RC network heated by the
//!   link's own dissipation and, optionally, by the per-ONI compute heat of
//!   a [`WorkloadSchedule`] (a static hot cluster, DVFS phases, task
//!   migration, diurnal curves).
//!
//! The contract is deliberately minimal: a model knows how many ONIs it
//! covers, reports the current temperature of each, and advances by a time
//! step during which the simulator deposited a given electrical power into
//! each node.  Prescribed models simply move their clock.

use onoc_units::Celsius;

use crate::activity::{ActivityCoupledEnvironment, RcNetworkParameters};
use crate::environment::ThermalEnvironment;
use crate::schedule::WorkloadSchedule;

/// A stepped temperature field over the ONIs: the single substrate the NoC
/// simulator's epoch engine drives, whatever physics produces the
/// temperatures.
///
/// Time only moves through [`ThermalModel::advance`]; temperatures are read
/// *between* steps.  `advance` receives the electrical power the simulator
/// deposited into each node over the step — the RC network integrates it,
/// prescribed traces ignore it.
///
/// `Send + Sync` are supertraits so simulation engines can read
/// temperatures from sharded per-ONI workers between steps.
pub trait ThermalModel: std::fmt::Debug + Send + Sync {
    /// Number of ONIs the model covers.
    fn oni_count(&self) -> usize;

    /// Current temperature of node `oni`.
    ///
    /// # Panics
    ///
    /// Panics if `oni` is out of range.
    fn temperature_of(&self, oni: usize) -> Celsius;

    /// Advances the model by `dt_ns` nanoseconds with `deposited_power_mw`
    /// milliwatts of link dissipation per node over that interval.
    ///
    /// # Panics
    ///
    /// Panics if `deposited_power_mw` does not carry one entry per node or
    /// `dt_ns` is negative or not finite.
    fn advance(&mut self, deposited_power_mw: &[f64], dt_ns: f64);
}

/// A prescribed [`ThermalEnvironment`] bound to an ONI count and a clock:
/// the [`ThermalModel`] adapter for uniform/hotspot/transient traces.
#[derive(Debug, Clone, PartialEq)]
pub struct PrescribedEnvironment {
    environment: ThermalEnvironment,
    oni_count: usize,
    time_ns: f64,
}

impl PrescribedEnvironment {
    /// Binds `environment` to `oni_count` ONIs with the clock at zero.
    ///
    /// # Panics
    ///
    /// Panics if `oni_count` is zero or the environment is invalid (see
    /// [`ThermalEnvironment::validate`]).
    #[must_use]
    pub fn new(environment: ThermalEnvironment, oni_count: usize) -> Self {
        assert!(oni_count > 0, "at least one ONI is required");
        environment
            .validate()
            .unwrap_or_else(|reason| panic!("invalid thermal environment: {reason}"));
        Self {
            environment,
            oni_count,
            time_ns: 0.0,
        }
    }

    /// The wrapped environment.
    #[must_use]
    pub fn environment(&self) -> &ThermalEnvironment {
        &self.environment
    }

    /// Current simulated time, in nanoseconds.
    #[must_use]
    pub fn time_ns(&self) -> f64 {
        self.time_ns
    }
}

impl ThermalModel for PrescribedEnvironment {
    fn oni_count(&self) -> usize {
        self.oni_count
    }

    fn temperature_of(&self, oni: usize) -> Celsius {
        self.environment
            .temperature_at(oni, self.oni_count, self.time_ns)
    }

    fn advance(&mut self, deposited_power_mw: &[f64], dt_ns: f64) {
        assert_eq!(
            deposited_power_mw.len(),
            self.oni_count,
            "one power entry per ONI is required"
        );
        assert!(
            dt_ns >= 0.0 && dt_ns.is_finite(),
            "step duration must be non-negative and finite"
        );
        self.time_ns += dt_ns;
    }
}

/// The compute-cluster heat a workload injects into one ONI's node over
/// time: a steady baseline plus one burst window, both in milliwatts.
///
/// The trace is analytic, so an epoch of any length integrates it exactly:
/// [`WorkloadTrace::mean_power_mw`] returns the time-average over an
/// arbitrary interval with no sampling error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadTrace {
    /// Steady injected power, in mW (the always-on share of the cluster).
    pub baseline_mw: f64,
    /// Additional power during the burst window, in mW.
    pub burst_mw: f64,
    /// Burst window start, in nanoseconds.
    pub burst_start_ns: f64,
    /// Burst window end, in nanoseconds (`f64::INFINITY` for an open-ended
    /// burst).
    pub burst_stop_ns: f64,
}

impl WorkloadTrace {
    /// A node that receives no workload heat.
    #[must_use]
    pub fn idle() -> Self {
        Self::constant(0.0)
    }

    /// A steady `power_mw` injection with no burst.
    #[must_use]
    pub fn constant(power_mw: f64) -> Self {
        Self {
            baseline_mw: power_mw,
            burst_mw: 0.0,
            burst_start_ns: 0.0,
            burst_stop_ns: 0.0,
        }
    }

    /// A `power_mw` burst over `[start_ns, stop_ns)` on top of a zero
    /// baseline.
    #[must_use]
    pub fn burst(power_mw: f64, start_ns: f64, stop_ns: f64) -> Self {
        Self {
            baseline_mw: 0.0,
            burst_mw: power_mw,
            burst_start_ns: start_ns,
            burst_stop_ns: stop_ns,
        }
    }

    /// Instantaneous injected power at `time_ns`, in mW.
    #[must_use]
    pub fn power_at(&self, time_ns: f64) -> f64 {
        let bursting = time_ns >= self.burst_start_ns && time_ns < self.burst_stop_ns;
        self.baseline_mw + if bursting { self.burst_mw } else { 0.0 }
    }

    /// Exact time-average of the injected power over `[from_ns, to_ns]`, in
    /// mW (equal to [`WorkloadTrace::power_at`] for a degenerate interval).
    ///
    /// # Panics
    ///
    /// Panics if the interval is inverted (`from_ns > to_ns`) — an inverted
    /// interval is always a caller bug (a negative epoch span), and silently
    /// answering with the instantaneous power would hide it.
    #[must_use]
    pub fn mean_power_mw(&self, from_ns: f64, to_ns: f64) -> f64 {
        assert!(
            from_ns.partial_cmp(&to_ns) != Some(std::cmp::Ordering::Greater),
            "workload power interval must not be inverted, got [{from_ns}, {to_ns}]"
        );
        let span = to_ns - from_ns;
        if span <= 0.0 {
            return self.power_at(from_ns);
        }
        let overlap = (to_ns.min(self.burst_stop_ns) - from_ns.max(self.burst_start_ns)).max(0.0);
        self.baseline_mw + self.burst_mw * (overlap.min(span) / span)
    }

    /// Checks the trace.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a power is negative or not
    /// finite, or the burst window is malformed.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("workload baseline power", self.baseline_mw),
            ("workload burst power", self.burst_mw),
        ] {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(format!(
                    "{name} must be non-negative and finite, got {value}"
                ));
            }
        }
        if self.burst_start_ns.is_nan() || self.burst_stop_ns.is_nan() {
            return Err("workload burst window must not be NaN".into());
        }
        if self.burst_stop_ns < self.burst_start_ns {
            return Err(format!(
                "workload burst window must not end before it starts, got [{}, {})",
                self.burst_start_ns, self.burst_stop_ns
            ));
        }
        if self.burst_mw > 0.0 && self.burst_stop_ns == self.burst_start_ns {
            return Err(format!(
                "workload burst window [{0}, {0}) is zero-length and can never fire; \
                 set burst_mw to zero for a steady trace",
                self.burst_start_ns
            ));
        }
        Ok(())
    }

    /// The per-ONI traces of a hot compute cluster centred at ONI `center`
    /// of `oni_count`: `peak_mw` of steady injection at the centre, decaying
    /// geometrically with ring-topology hop distance (mirroring
    /// [`ThermalEnvironment::Hotspot`]'s spatial shape, but as *power in*
    /// rather than temperature prescribed).
    ///
    /// # Panics
    ///
    /// Panics if `oni_count` is zero or `decay_per_hop` is outside `[0, 1)`.
    #[must_use]
    pub fn hot_cluster(
        oni_count: usize,
        center: usize,
        peak_mw: f64,
        decay_per_hop: f64,
    ) -> Vec<Self> {
        assert!(oni_count > 0, "at least one ONI is required");
        assert!(
            (0.0..1.0).contains(&decay_per_hop),
            "cluster decay per hop must be in [0, 1)"
        );
        let center = center % oni_count;
        (0..oni_count)
            .map(|oni| {
                let direct = oni.abs_diff(center);
                let hops = direct.min(oni_count - direct);
                #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
                Self::constant(peak_mw * decay_per_hop.powi(hops as i32))
            })
            .collect()
    }
}

/// Why a [`ThermalModelSpec`] design-time query could not be answered:
/// the typed form of [`ThermalModelSpec::validate`]'s failure, so library
/// callers (the scenario builder's design-assignment path) can propagate it
/// instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThermalModelError {
    /// The spec cannot describe a model for the requested ONI count.
    InvalidSpec {
        /// Human-readable reason, matching [`ThermalModelSpec::validate`].
        reason: String,
    },
}

impl std::fmt::Display for ThermalModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidSpec { reason } => write!(f, "invalid thermal model spec: {reason}"),
        }
    }
}

impl std::error::Error for ThermalModelError {}

/// The plain-data description of a [`ThermalModel`]: what a scenario
/// configuration carries, instantiated into the stateful model when the run
/// starts.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalModelSpec {
    /// A prescribed temperature trace (uniform / hotspot / transient).
    Prescribed {
        /// The temperature field over the ONIs.
        environment: ThermalEnvironment,
    },
    /// The per-ONI RC network heated by the link's own dissipation plus the
    /// compute heat of an optional workload schedule.
    RcNetwork {
        /// Physical parameters of the RC network.
        network: RcNetworkParameters,
        /// The phased workload superimposed on the link's dissipation (a
        /// one-phase schedule for a static heat map), or `None` for a
        /// network heated by the link alone.
        workload: Option<WorkloadSchedule>,
    },
}

impl ThermalModelSpec {
    /// The paper's fixed evaluation point: a prescribed uniform 25 °C.
    #[must_use]
    pub fn paper_ambient() -> Self {
        Self::Prescribed {
            environment: ThermalEnvironment::paper_ambient(),
        }
    }

    /// Whether the described model feeds deposited power back into its
    /// temperatures.
    #[must_use]
    pub fn is_activity_coupled(&self) -> bool {
        matches!(self, Self::RcNetwork { .. })
    }

    /// Absolute start times of the described workload's phases, in
    /// nanoseconds: the single phase at `t = 0` unless a scheduled workload
    /// says otherwise.
    #[must_use]
    pub fn phase_starts(&self) -> Vec<f64> {
        match self {
            Self::RcNetwork {
                workload: Some(schedule),
                ..
            } => schedule.phase_starts(),
            _ => vec![0.0],
        }
    }

    /// Checks the spec against the scenario's ONI count.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the wrapped environment, network
    /// or workload schedule is invalid (see [`WorkloadSchedule::validate`]
    /// for the one-trace-per-ONI rule).
    pub fn validate(&self, oni_count: usize) -> Result<(), String> {
        match self {
            Self::Prescribed { environment } => environment.validate(),
            Self::RcNetwork { network, workload } => {
                network.validate()?;
                workload
                    .as_ref()
                    .map_or(Ok(()), |schedule| schedule.validate(oni_count))
            }
        }
    }

    /// The per-ONI *design-point* temperatures of the described model: what
    /// a design-time optimiser (e.g. the GLOW-style wavelength assigner)
    /// should plan each ONI's channel for.
    ///
    /// * prescribed uniform/hotspot fields report their static per-ONI
    ///   temperatures (sampled at `t = 0`);
    /// * a prescribed transient reports its asymptotic target everywhere —
    ///   the temperature the package settles at;
    /// * the RC network without a workload reports its package ambient (the
    ///   link's own dissipation is a runtime quantity the design step cannot
    ///   know up front);
    /// * the RC network with a workload reports, per ONI, the **worst case
    ///   over its phases** of the steady state each phase's traces alone
    ///   drive it to (see [`ThermalModelSpec::phase_design_temperatures`]).
    ///   A single assignment designed against this map is safe in every
    ///   phase, at the price per-phase assignments avoid.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalModelError::InvalidSpec`] when the spec is invalid
    /// for `oni_count` ONIs (see [`ThermalModelSpec::validate`]).
    pub fn design_temperatures(&self, oni_count: usize) -> Result<Vec<Celsius>, ThermalModelError> {
        let maps = self.phase_design_temperatures(oni_count)?;
        let mut iter = maps.into_iter();
        let mut worst = iter
            .next()
            .unwrap_or_else(|| unreachable!("a validated spec has at least one design map"));
        for map in iter {
            for (seen, candidate) in worst.iter_mut().zip(map) {
                if candidate > *seen {
                    *seen = candidate;
                }
            }
        }
        Ok(worst)
    }

    /// The per-ONI design-point temperatures of **each phase** of the
    /// described model: one heat map per phase of a workload schedule (the
    /// phase's traces alone, advanced 40 time constants in phase-relative
    /// time with zero link power and sampled, so lateral spreading through
    /// the interposer is included exactly as the runtime model sees it), and
    /// a single map (equal to [`ThermalModelSpec::design_temperatures`])
    /// for every model without one.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalModelError::InvalidSpec`] when the spec is invalid
    /// for `oni_count` ONIs (see [`ThermalModelSpec::validate`]).
    pub fn phase_design_temperatures(
        &self,
        oni_count: usize,
    ) -> Result<Vec<Vec<Celsius>>, ThermalModelError> {
        self.validate(oni_count)
            .map_err(|reason| ThermalModelError::InvalidSpec { reason })?;
        Ok(match self {
            Self::Prescribed { environment } => vec![match *environment {
                ThermalEnvironment::Transient { target, .. } => vec![target; oni_count],
                _ => (0..oni_count)
                    .map(|oni| environment.temperature_at(oni, oni_count, 0.0))
                    .collect(),
            }],
            Self::RcNetwork {
                network,
                workload: None,
            } => vec![vec![network.ambient; oni_count]],
            Self::RcNetwork {
                network,
                workload: Some(schedule),
            } => schedule
                .phases
                .iter()
                .map(|phase| steady_workload_map(*network, &phase.traces))
                .collect(),
        })
    }

    /// Builds the stateful model for `oni_count` ONIs, with clocks at zero
    /// and RC nodes at their package ambient.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`ThermalModelSpec::validate`]).
    #[must_use]
    pub fn instantiate(&self, oni_count: usize) -> Box<dyn ThermalModel> {
        self.validate(oni_count)
            .unwrap_or_else(|reason| panic!("invalid thermal model spec: {reason}"));
        match self {
            Self::Prescribed { environment } => {
                Box::new(PrescribedEnvironment::new(*environment, oni_count))
            }
            Self::RcNetwork { network, workload } => {
                let model = ActivityCoupledEnvironment::new(oni_count, *network);
                Box::new(match workload {
                    Some(schedule) => model.with_workload(schedule.clone()),
                    None => model,
                })
            }
        }
    }
}

/// The steady state one workload phase's traces alone drive the RC network
/// to: advanced 40 time constants with zero link power and sampled.
fn steady_workload_map(network: RcNetworkParameters, traces: &[WorkloadTrace]) -> Vec<Celsius> {
    let oni_count = traces.len();
    let mut model = ActivityCoupledEnvironment::new(oni_count, network)
        .with_workload(WorkloadSchedule::single(traces.to_vec()));
    model.advance(&vec![0.0; oni_count], network.time_constant_ns() * 40.0);
    (0..oni_count)
        .map(|oni| model.temperature_of(oni))
        .collect()
}

impl Default for ThermalModelSpec {
    fn default() -> Self {
        Self::paper_ambient()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::WorkloadPhase;

    /// The RC network heated by `traces` on top of the link's dissipation.
    fn heated(
        params: RcNetworkParameters,
        traces: Vec<WorkloadTrace>,
    ) -> ActivityCoupledEnvironment {
        ActivityCoupledEnvironment::new(traces.len(), params)
            .with_workload(WorkloadSchedule::single(traces))
    }

    /// The spec of an RC network heated by `traces`.
    fn heated_spec(params: RcNetworkParameters, traces: Vec<WorkloadTrace>) -> ThermalModelSpec {
        ThermalModelSpec::RcNetwork {
            network: params,
            workload: Some(WorkloadSchedule::single(traces)),
        }
    }

    #[test]
    fn prescribed_model_plays_its_clock_and_ignores_power() {
        let mut model = PrescribedEnvironment::new(
            ThermalEnvironment::Transient {
                start: Celsius::new(25.0),
                target: Celsius::new(85.0),
                time_constant_ns: 1000.0,
            },
            4,
        );
        assert_eq!(ThermalModel::oni_count(&model), 4);
        assert!((ThermalModel::temperature_of(&model, 0).value() - 25.0).abs() < 1e-12);
        // Huge deposited power changes nothing; only the clock moves.
        model.advance(&[1e6; 4], 1000.0);
        let one_tau = ThermalModel::temperature_of(&model, 0).value();
        assert!((one_tau - (85.0 - 60.0 * (-1.0f64).exp())).abs() < 1e-9);
        assert!((model.time_ns() - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn activity_coupled_model_integrates_power_through_the_trait() {
        let params = RcNetworkParameters::paper_package();
        let mut boxed: Box<dyn ThermalModel> = Box::new(ActivityCoupledEnvironment::new(1, params));
        boxed.advance(&[200.0], params.time_constant_ns() * 40.0);
        let expected = 25.0 + params.steady_state_excess_k(200.0);
        assert!((boxed.temperature_of(0).value() - expected).abs() < 0.05);
    }

    #[test]
    fn workload_traces_average_exactly() {
        let trace = WorkloadTrace {
            baseline_mw: 10.0,
            burst_mw: 100.0,
            burst_start_ns: 50.0,
            burst_stop_ns: 150.0,
        };
        assert!((trace.power_at(0.0) - 10.0).abs() < 1e-12);
        assert!((trace.power_at(100.0) - 110.0).abs() < 1e-12);
        assert!((trace.power_at(150.0) - 10.0).abs() < 1e-12);
        // Full overlap, half overlap, no overlap.
        assert!((trace.mean_power_mw(50.0, 150.0) - 110.0).abs() < 1e-12);
        assert!((trace.mean_power_mw(0.0, 100.0) - 60.0).abs() < 1e-12);
        assert!((trace.mean_power_mw(200.0, 300.0) - 10.0).abs() < 1e-12);
        // Degenerate interval falls back to the instantaneous power.
        assert!((trace.mean_power_mw(100.0, 100.0) - 110.0).abs() < 1e-12);
        // Open-ended bursts integrate too.
        let open = WorkloadTrace {
            burst_stop_ns: f64::INFINITY,
            ..trace
        };
        assert!((open.mean_power_mw(50.0, 150.0) - 110.0).abs() < 1e-12);
        assert!(open.validate().is_ok());
    }

    #[test]
    fn workload_heating_warms_the_cluster_without_any_link_power() {
        let params = RcNetworkParameters::paper_package();
        let mut model = heated(params, WorkloadTrace::hot_cluster(8, 2, 300.0, 0.4));
        assert_eq!(ThermalModel::oni_count(&model), 8);
        model.advance(&[0.0; 8], params.time_constant_ns() * 40.0);
        let centre = model.temperature_of(2).value();
        let near = model.temperature_of(3).value();
        let far = model.temperature_of(6).value();
        assert!(centre > near && near > far, "{centre} / {near} / {far}");
        assert!(far > 25.0, "spreading reaches the far side");
        assert!((model.time_ns() - params.time_constant_ns() * 40.0).abs() < 1e-9);
    }

    #[test]
    fn workload_heat_superimposes_on_link_dissipation() {
        let params = RcNetworkParameters::paper_package();
        let mut model = heated(params, vec![WorkloadTrace::constant(100.0)]);
        model.advance(&[100.0], params.time_constant_ns() * 40.0);
        // 100 mW of link + 100 mW of workload = the 200 mW steady state.
        let expected = 25.0 + params.steady_state_excess_k(200.0);
        assert!((model.temperature_of(0).value() - expected).abs() < 0.05);
    }

    #[test]
    fn burst_windows_heat_and_release() {
        let params = RcNetworkParameters::paper_package();
        let horizon = params.time_constant_ns() * 40.0;
        let mut model = heated(params, vec![WorkloadTrace::burst(250.0, 0.0, horizon)]);
        model.advance(&[0.0], horizon);
        let hot = model.temperature_of(0).value();
        assert!(hot > 45.0, "burst must heat the node, got {hot}");
        // After the burst the node relaxes back to the ambient.
        model.advance(&[0.0], horizon);
        let cooled = model.temperature_of(0).value();
        assert!((cooled - 25.0).abs() < 0.1, "got {cooled}");
    }

    #[test]
    fn trace_validation_catches_bad_parameters() {
        assert!(WorkloadTrace::constant(-1.0)
            .validate()
            .unwrap_err()
            .contains("baseline"));
        assert!(WorkloadTrace::burst(f64::NAN, 0.0, 1.0)
            .validate()
            .unwrap_err()
            .contains("burst power"));
        assert!(WorkloadTrace::burst(1.0, 10.0, 5.0)
            .validate()
            .unwrap_err()
            .contains("end before it starts"));
        assert!(WorkloadTrace::burst(1.0, f64::NAN, 5.0)
            .validate()
            .unwrap_err()
            .contains("NaN"));
        assert!(WorkloadTrace::idle().validate().is_ok());
    }

    #[test]
    fn spec_validation_and_instantiation_cover_both_families() {
        let prescribed = ThermalModelSpec::paper_ambient();
        assert!(prescribed.validate(4).is_ok());
        assert!(!prescribed.is_activity_coupled());
        assert_eq!(prescribed.phase_starts(), vec![0.0]);
        assert_eq!(prescribed.instantiate(4).oni_count(), 4);

        let coupled = ThermalModelSpec::RcNetwork {
            network: RcNetworkParameters::paper_package(),
            workload: None,
        };
        assert!(coupled.validate(4).is_ok());
        assert!(coupled.is_activity_coupled());
        assert_eq!(coupled.phase_starts(), vec![0.0]);
        assert_eq!(coupled.instantiate(4).oni_count(), 4);

        let workload = heated_spec(
            RcNetworkParameters::paper_package(),
            WorkloadTrace::hot_cluster(4, 0, 100.0, 0.5),
        );
        assert!(workload.validate(4).is_ok());
        assert!(workload
            .validate(5)
            .unwrap_err()
            .contains("one trace per ONI"));
        assert!(workload.is_activity_coupled());
        assert_eq!(workload.phase_starts(), vec![0.0]);
        assert_eq!(workload.instantiate(4).oni_count(), 4);

        let bad_network = ThermalModelSpec::RcNetwork {
            network: RcNetworkParameters {
                heat_capacity_pj_per_k: 0.0,
                ..RcNetworkParameters::paper_package()
            },
            workload: None,
        };
        assert!(bad_network
            .validate(4)
            .unwrap_err()
            .contains("heat capacity"));
    }

    #[test]
    fn design_temperatures_reflect_each_model_family() {
        // Uniform prescribed: the fixed ambient everywhere.
        assert!(ThermalModelSpec::paper_ambient()
            .design_temperatures(4)
            .expect("valid spec")
            .iter()
            .all(|t| (t.value() - 25.0).abs() < 1e-12));
        // Transient: the asymptotic target, not the start.
        let transient = ThermalModelSpec::Prescribed {
            environment: ThermalEnvironment::Transient {
                start: Celsius::new(25.0),
                target: Celsius::new(85.0),
                time_constant_ns: 500.0,
            },
        };
        assert!(transient
            .design_temperatures(3)
            .expect("valid spec")
            .iter()
            .all(|t| (t.value() - 85.0).abs() < 1e-12));
        // Hotspot: the static per-ONI gradient.
        let hotspot = ThermalModelSpec::Prescribed {
            environment: ThermalEnvironment::Hotspot {
                base: Celsius::new(30.0),
                peak: Celsius::new(80.0),
                center: 1,
                decay_per_hop: 0.5,
            },
        };
        let temps = hotspot.design_temperatures(6).expect("valid spec");
        assert!((temps[1].value() - 80.0).abs() < 1e-12);
        assert!(temps[1] > temps[2] && temps[2] > temps[4]);
        // RC network without a workload: the package ambient.
        let coupled = ThermalModelSpec::RcNetwork {
            network: RcNetworkParameters::paper_package(),
            workload: None,
        };
        assert!(coupled
            .design_temperatures(4)
            .expect("valid spec")
            .iter()
            .all(|t| (t.value() - 25.0).abs() < 1e-12));
        // RC network with a workload: matches an explicit 40 τ advance of
        // the model.
        let params = RcNetworkParameters::paper_package();
        let traces = WorkloadTrace::hot_cluster(8, 2, 300.0, 0.4);
        let designed = heated_spec(params, traces.clone())
            .design_temperatures(8)
            .expect("valid spec");
        let mut reference = heated(params, traces);
        reference.advance(&[0.0; 8], params.time_constant_ns() * 40.0);
        for (oni, t) in designed.iter().enumerate() {
            assert_eq!(
                t.value().to_bits(),
                reference.temperature_of(oni).value().to_bits(),
                "ONI {oni}"
            );
        }
        assert!(designed[2] > designed[6], "the cluster centre runs hottest");
    }

    #[test]
    #[should_panic(expected = "invalid workload schedule")]
    fn invalid_trace_panics_at_construction() {
        let _ = heated(
            RcNetworkParameters::paper_package(),
            vec![WorkloadTrace::constant(f64::INFINITY)],
        );
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_power_intervals_panic() {
        let _ = WorkloadTrace::constant(10.0).mean_power_mw(100.0, 50.0);
    }

    #[test]
    fn zero_length_burst_windows_are_rejected() {
        // A burst that can never fire is a spec bug...
        assert!(WorkloadTrace::burst(50.0, 10.0, 10.0)
            .validate()
            .unwrap_err()
            .contains("zero-length"));
        // ...but the canonical steady traces carry a zero-power [0, 0)
        // window and must stay valid.
        assert!(WorkloadTrace::constant(10.0).validate().is_ok());
        assert!(WorkloadTrace::idle().validate().is_ok());
    }

    #[test]
    fn invalid_specs_surface_a_typed_error_instead_of_panicking() {
        let workload = heated_spec(
            RcNetworkParameters::paper_package(),
            WorkloadTrace::hot_cluster(4, 0, 100.0, 0.5),
        );
        let error = workload.design_temperatures(5).unwrap_err();
        assert!(matches!(
            &error,
            ThermalModelError::InvalidSpec { reason } if reason.contains("one trace per ONI")
        ));
        assert!(error.to_string().contains("invalid thermal model spec"));
        assert!(workload.phase_design_temperatures(5).is_err());
    }

    #[test]
    fn scheduled_spec_validates_instantiates_and_steps() {
        let params = RcNetworkParameters::paper_package();
        let settle_ns = params.time_constant_ns() * 40.0;
        let spec = ThermalModelSpec::RcNetwork {
            network: params,
            workload: Some(WorkloadSchedule::migration(
                6,
                settle_ns,
                &[1, 4],
                300.0,
                0.4,
            )),
        };
        assert!(spec.validate(6).is_ok());
        assert!(spec.is_activity_coupled());
        assert_eq!(spec.phase_starts(), vec![0.0, settle_ns]);
        assert!(spec.validate(3).unwrap_err().contains("one trace per ONI"));

        let mut model = spec.instantiate(6);
        assert_eq!(model.oni_count(), 6);
        // Settle phase 0: the cluster sits on ONI 1.
        model.advance(&[0.0; 6], settle_ns);
        assert!(model.temperature_of(1) > model.temperature_of(4));
        // Settle phase 1: the cluster has migrated to ONI 4.
        model.advance(&[0.0; 6], settle_ns);
        assert!(model.temperature_of(4) > model.temperature_of(1));

        let zero_length = ThermalModelSpec::RcNetwork {
            network: params,
            workload: Some(WorkloadSchedule::new(vec![WorkloadPhase::new(
                0.0,
                vec![WorkloadTrace::idle(); 6],
            )])),
        };
        assert!(zero_length.validate(6).unwrap_err().contains("zero-length"));
    }

    #[test]
    fn scheduled_design_maps_cover_each_phase_and_fold_to_the_worst_case() {
        let params = RcNetworkParameters::paper_package();
        let spec = ThermalModelSpec::RcNetwork {
            network: params,
            workload: Some(WorkloadSchedule::migration(6, 1000.0, &[1, 4], 300.0, 0.4)),
        };
        let maps = spec.phase_design_temperatures(6).expect("valid spec");
        assert_eq!(maps.len(), 2);
        // Each phase map matches the design map of its cluster played alone.
        for (map, center) in maps.iter().zip([1usize, 4]) {
            let alone = heated_spec(params, WorkloadTrace::hot_cluster(6, center, 300.0, 0.4));
            let reference = alone.design_temperatures(6).expect("valid spec");
            for (oni, t) in map.iter().enumerate() {
                assert_eq!(t.value().to_bits(), reference[oni].value().to_bits());
            }
        }
        // The single-map query folds the per-ONI maximum over the phases.
        let worst = spec.design_temperatures(6).expect("valid spec");
        for oni in 0..6 {
            let expected = if maps[0][oni] > maps[1][oni] {
                maps[0][oni]
            } else {
                maps[1][oni]
            };
            assert_eq!(worst[oni].value().to_bits(), expected.value().to_bits());
        }
        assert!(worst[1] > worst[2], "both cluster centres stay hot");
        assert!(worst[4] > worst[2]);
    }

    #[test]
    fn single_phase_schedule_steps_bit_identically_to_the_plain_traces() {
        // The reference steps the bare network by hand with the link's power
        // plus each trace's own exact mean over the step.
        let params = RcNetworkParameters::paper_package();
        let traces = WorkloadTrace::hot_cluster(4, 1, 150.0, 0.5);
        let mut scheduled = heated(params, traces.clone());
        let mut plain = ActivityCoupledEnvironment::new(4, params);
        let mut time_ns = 0.0;
        for step in 0..50 {
            let link = [3.0 + f64::from(step), 0.5, 7.0, 0.0];
            scheduled.advance(&link, 40.0);
            let powers: Vec<f64> = link
                .iter()
                .zip(&traces)
                .map(|(&link_mw, trace)| link_mw + trace.mean_power_mw(time_ns, time_ns + 40.0))
                .collect();
            plain.step(&powers, 40.0);
            time_ns += 40.0;
        }
        for oni in 0..4 {
            assert_eq!(
                scheduled.temperature_of(oni).value().to_bits(),
                plain.temperature_of(oni).value().to_bits(),
                "ONI {oni}"
            );
        }
    }
}
