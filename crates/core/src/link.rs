//! The configured nanophotonic link and its operating points.

use onoc_ecc_codes::EccScheme;
use onoc_interface::{
    ChannelPowerBreakdown, ChannelPowerModel, CommunicationTiming, EnergyAccounting,
    InterfaceConfig,
};
use onoc_photonics::power::{LaserOperatingPoint, LaserPowerSolver, SolveError};
use onoc_photonics::thermal::{ThermalLinkStack, ThermalSolver, ThermalSummary};
use onoc_photonics::{MwsrChannel, PaperCalibration};
use onoc_telemetry::{RecorderHandle, TelemetryEvent};
use onoc_thermal::{
    AssignmentStrategy, BankTuningMode, FabricationVariation, RingBankState, WavelengthAssigner,
    WavelengthAssignment,
};
use onoc_units::{Celsius, Milliwatts, PicojoulesPerBit};

use crate::cache::{OpCacheKey, SharedOpCache};

/// Errors returned by link-level queries.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkError {
    /// The photonic solver found no feasible laser operating point.
    Infeasible(SolveError),
    /// The interface cannot sustain the requested scheme at line rate.
    SchemeNotSustainable {
        /// The offending scheme.
        scheme: EccScheme,
    },
    /// A link-level knob was set to a structurally invalid value.
    InvalidConfiguration {
        /// Description of the problem.
        reason: String,
    },
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Infeasible(e) => write!(f, "no feasible operating point: {e}"),
            Self::SchemeNotSustainable { scheme } => write!(
                f,
                "the optical channel cannot sustain {scheme} at the IP word rate"
            ),
            Self::InvalidConfiguration { reason } => {
                write!(f, "invalid link configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

impl From<SolveError> for LinkError {
    fn from(value: SolveError) -> Self {
        Self::Infeasible(value)
    }
}

/// What the manager optimises for among the feasible operating points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionObjective {
    /// Lowest total channel power (the paper's default).
    #[default]
    MinPower,
    /// Lowest communication-time factor, ties broken by power.  This is what
    /// makes a latency-sensitive class *switch* from the uncoded path to a
    /// Hamming code when temperature renders the uncoded path infeasible.
    MinLatency,
}

/// A request against the link manager: what the communication needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRequest {
    /// Required decoded bit-error rate.
    pub target_ber: f64,
    /// Maximum acceptable communication-time factor (1.0 = no slack over an
    /// uncoded transfer); `None` means latency does not matter.
    pub max_communication_time_factor: Option<f64>,
    /// Maximum acceptable per-waveguide channel power; `None` means no cap.
    pub max_channel_power: Option<Milliwatts>,
    /// Chip temperature to serve the request at; `None` means the link's
    /// calibration ambient (the paper's 25 °C).
    pub temperature: Option<Celsius>,
    /// Selection objective among the feasible points.
    pub objective: SelectionObjective,
}

impl LinkRequest {
    /// A latency-insensitive request at the given BER, at the calibration
    /// ambient.
    #[must_use]
    pub fn best_effort(target_ber: f64) -> Self {
        Self {
            target_ber,
            max_communication_time_factor: None,
            max_channel_power: None,
            temperature: None,
            objective: SelectionObjective::MinPower,
        }
    }

    /// The same request served at `temperature`.
    #[must_use]
    pub fn at_temperature(mut self, temperature: Celsius) -> Self {
        self.temperature = Some(temperature);
        self
    }
}

/// A fully-evaluated operating point of the link for one (scheme, BER,
/// temperature) triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// The laser-side solution (OP_laser, P_laser, SNR, crosstalk…).
    pub laser: LaserOperatingPoint,
    /// Per-wavelength power breakdown (Fig. 6a bars, plus P_tune).
    pub power: ChannelPowerBreakdown,
    /// Channel power for the full set of wavelength lanes.
    pub channel_power: Milliwatts,
    /// Timing of one word transfer.
    pub timing: CommunicationTiming,
    /// Energy per payload bit under the primary accounting.
    pub energy_per_bit: PicojoulesPerBit,
    /// Thermal side of the point: temperature, drift and tuning power.
    pub thermal: ThermalSummary,
}

impl OperatingPoint {
    /// Coding scheme of this point.
    #[must_use]
    pub fn scheme(&self) -> EccScheme {
        self.laser.scheme
    }

    /// Target BER of this point.
    #[must_use]
    pub fn target_ber(&self) -> f64 {
        self.laser.target_ber
    }

    /// Communication-time factor (CT).
    #[must_use]
    pub fn communication_time_factor(&self) -> f64 {
        self.timing.communication_time_factor
    }

    /// Chip temperature this point was solved at.
    #[must_use]
    pub fn temperature(&self) -> Celsius {
        self.thermal.temperature
    }
}

/// Snapshot of the memoized operating-point cache's effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that invoked the full photonic solver.
    pub misses: u64,
    /// Distinct `(scheme, BER, temperature bucket)` entries held.
    pub entries: usize,
}

impl CacheCounters {
    /// Total memoized queries.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of queries answered without invoking the solver.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

impl std::fmt::Display for CacheCounters {
    /// Renders e.g. `96.3% hit rate (1234 hits / 47 misses, 47 entries)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1}% hit rate ({} hits / {} misses, {} entries)",
            100.0 * self.hit_rate(),
            self.hits,
            self.misses,
            self.entries
        )
    }
}

/// A nanophotonic MWSR link with ECC-capable interfaces and a tunable laser.
///
/// This is the object the rest of the workspace (examples, benches, the NoC
/// simulator) interacts with.
///
/// Memoized queries go through a [`SharedOpCache`]: each link starts with
/// its own cache, and a fleet of links joins one cache via
/// [`NanophotonicLink::with_shared_cache`] so the `(scheme, BER bits,
/// temperature bucket, stack fingerprint)` key space is solved once
/// fleet-wide — links with identical stacks reuse each other's solves, and
/// the fingerprint in the key keeps distinct stacks apart.  **Cloning a
/// link shares its cache handle** (entries and counters).
#[derive(Debug, Clone)]
pub struct NanophotonicLink {
    solver: ThermalSolver,
    power_model: ChannelPowerModel,
    accounting: EnergyAccounting,
    ambient: Celsius,
    cache: SharedOpCache,
    /// Memoized [`ThermalLinkStack::fingerprint`] of the active stack, part
    /// of every cache key.
    stack_fingerprint: u64,
    /// Telemetry sink for solver invocations and cache hits/misses.
    /// Disabled by default; see [`NanophotonicLink::with_telemetry`].
    telemetry: RecorderHandle,
}

impl NanophotonicLink {
    /// Builds a link from a photonic calibration and an interface
    /// configuration, with the default thermal stack (silicon ring drift,
    /// paper heater, adaptive tune-vs-tolerate policy).  The ring bank is
    /// assumed aligned to the grid at the calibration's ambient, so the
    /// stack's drift model is re-anchored there: at that temperature the
    /// thermal machinery is a no-op whatever ambient the calibration uses.
    #[must_use]
    pub fn new(calibration: PaperCalibration, interface: InterfaceConfig) -> Self {
        let modulation_power = calibration.modulation_power;
        let ambient = calibration.ambient;
        let channel = calibration.into_channel();
        let mut stack = ThermalLinkStack::paper_default();
        stack.rings.calibration = ambient;
        Self {
            stack_fingerprint: stack.fingerprint(),
            solver: ThermalSolver::new(channel, stack),
            power_model: ChannelPowerModel::new(interface, modulation_power),
            accounting: EnergyAccounting::ActiveTransfersOnly,
            ambient,
            cache: SharedOpCache::new(),
            telemetry: RecorderHandle::none(),
        }
    }

    /// The link evaluated in the paper: 12 ONIs, 16 wavelengths, 6 cm
    /// waveguide, 64-bit IP bus at 1 GHz, 10 Gb/s modulation.
    #[must_use]
    pub fn paper_link() -> Self {
        Self::new(PaperCalibration::dac17(), InterfaceConfig::paper_default())
    }

    /// Selects the energy accounting used for `energy_per_bit`.
    #[must_use]
    pub fn with_energy_accounting(mut self, accounting: EnergyAccounting) -> Self {
        self.accounting = accounting;
        self
    }

    /// Attaches a telemetry sink: every solver invocation emits
    /// [`TelemetryEvent::SolverInvoked`] and every memoized query emits
    /// [`TelemetryEvent::CacheHit`] or [`TelemetryEvent::CacheMiss`].  The
    /// default handle is disabled and costs nothing.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: RecorderHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry sink (disabled by default).
    #[must_use]
    pub fn telemetry(&self) -> &RecorderHandle {
        &self.telemetry
    }

    /// Sets the temperature resolution of the memoized operating-point
    /// cache, in buckets per kelvin (default 20, i.e. 0.05 K buckets).  The
    /// link detaches from any shared cache: it gets a fresh (empty) private
    /// [`SharedOpCache`] at the new resolution.
    ///
    /// # Errors
    ///
    /// [`LinkError::InvalidConfiguration`] when `buckets_per_kelvin` is
    /// zero, negative or not finite — a non-positive resolution would snap
    /// every temperature onto one bucket (or divide by zero), silently
    /// serving one operating point for the whole sweep.
    pub fn with_cache_resolution(mut self, buckets_per_kelvin: f64) -> Result<Self, LinkError> {
        self.cache = SharedOpCache::with_resolution(buckets_per_kelvin)?;
        Ok(self)
    }

    /// Points this link at `cache`: its memoized queries are answered from
    /// (and fill) the shared storage, and its hit/miss traffic lands on the
    /// shared counters.  Many links sharing one cache is the scale-out
    /// configuration for homogeneous fleets — the key carries the stack
    /// fingerprint, so heterogeneous links can share a map without aliasing,
    /// but only identical stacks actually reuse each other's entries.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: SharedOpCache) -> Self {
        self.cache = cache;
        self
    }

    /// The cache handle this link currently resolves memoized queries
    /// through.  Clone it to share the cache with other links or to inspect
    /// counters fleet-wide.
    #[must_use]
    pub fn shared_cache(&self) -> SharedOpCache {
        self.cache.clone()
    }

    /// Replaces the thermal stack (ring drift model, heater, variation,
    /// policy, tuning mode).
    ///
    /// The stack's ring drift model is re-anchored at this link's
    /// calibration ambient, preserving the invariant that the thermal
    /// machinery is a no-op at [`NanophotonicLink::ambient`].  To study a
    /// deliberately mis-calibrated ring bank, use
    /// [`onoc_photonics::thermal::ThermalSolver`] directly.
    ///
    /// Operating points already memoized under the previous stack stay in
    /// the cache but can never be served for the new one: the cache key
    /// carries the stack fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if the stack carries an invalid parameter (non-finite drift
    /// slope, negative fabrication σ, …).
    #[must_use]
    pub fn with_thermal_stack(mut self, mut stack: ThermalLinkStack) -> Self {
        stack.rings.calibration = self.ambient;
        self.stack_fingerprint = stack.fingerprint();
        self.solver = ThermalSolver::new(self.solver.base().channel().clone(), stack);
        self
    }

    /// Gives this link's ring banks a per-ring fabrication variation: a
    /// chip-instance-specific resonance offset per wavelength, sampled from
    /// the seeded σ.  With σ = 0 the link is bit-identical to the uniform
    /// (per-bank) model.
    #[must_use]
    pub fn with_fabrication_variation(self, variation: FabricationVariation) -> Self {
        let stack = ThermalLinkStack {
            variation,
            ..self.solver.stack().clone()
        };
        self.with_thermal_stack(stack)
    }

    /// Selects how tuned banks spend their per-ring freedom: pure heating
    /// (the default) or barrel-shift channel hopping.
    #[must_use]
    pub fn with_bank_tuning_mode(self, mode: BankTuningMode) -> Self {
        let stack = ThermalLinkStack {
            mode,
            ..self.solver.stack().clone()
        };
        self.with_thermal_stack(stack)
    }

    /// Bakes a design-time (GLOW-style) logical-wavelength → ring
    /// assignment into this link's banks: ring `assignment.ring_for_lane(j)`
    /// serves grid slot `j`, so at the assignment's design temperature the
    /// heaters fight only what drift and fabrication leave over.  Runtime
    /// barrel shifting ([`NanophotonicLink::with_bank_tuning_mode`])
    /// composes on top.  The identity assignment is bit-identical to an
    /// unassigned link (property-tested), though it fingerprints — and
    /// therefore caches — separately.
    ///
    /// # Errors
    ///
    /// [`LinkError::InvalidConfiguration`] when the assignment does not
    /// cover exactly the channel's wavelength count.
    pub fn with_wavelength_assignment(
        self,
        assignment: WavelengthAssignment,
    ) -> Result<Self, LinkError> {
        let lanes = self.channel().geometry().wavelength_count();
        if assignment.len() != lanes {
            return Err(LinkError::InvalidConfiguration {
                reason: format!(
                    "wavelength assignment covers {} lanes but the channel carries {lanes} \
                     wavelengths",
                    assignment.len()
                ),
            });
        }
        let stack = ThermalLinkStack {
            assignment: Some(assignment),
            ..self.solver.stack().clone()
        };
        Ok(self.with_thermal_stack(stack))
    }

    /// The design-time wavelength assignment baked into this link, if any.
    #[must_use]
    pub fn wavelength_assignment(&self) -> Option<&WavelengthAssignment> {
        self.solver.stack().assignment.as_ref()
    }

    /// A design-time assigner matching this link's spectral and heater
    /// parameters (grid spacing, drift slope, tuner) — the single source
    /// every caller builds a [`WavelengthAssigner`] from, so the search's
    /// cost model can never drift from the link's physics.  Feed its result
    /// to [`NanophotonicLink::with_wavelength_assignment`].
    #[must_use]
    pub fn wavelength_assigner(
        &self,
        strategy: AssignmentStrategy,
        seed: u64,
    ) -> WavelengthAssigner {
        let stack = self.solver.stack();
        WavelengthAssigner {
            tuner: stack.tuner,
            grid_spacing_nm: self.channel().geometry().grid.spacing().value(),
            slope_nm_per_kelvin: stack.rings.drift_nm_per_kelvin,
            strategy,
            seed,
        }
    }

    /// The fingerprint of the active thermal stack — the value the memoized
    /// operating-point cache keys on.
    #[must_use]
    pub fn stack_fingerprint(&self) -> u64 {
        self.stack_fingerprint
    }

    /// The per-ring spectral state of the link's banks at `temperature`.
    #[must_use]
    pub fn ring_bank_state_at(&self, temperature: Celsius) -> RingBankState {
        self.solver.bank_state_at(temperature)
    }

    /// The underlying MWSR channel model.
    #[must_use]
    pub fn channel(&self) -> &MwsrChannel {
        self.solver.base().channel()
    }

    /// The interface/power model.
    #[must_use]
    pub fn power_model(&self) -> &ChannelPowerModel {
        &self.power_model
    }

    /// The laser power solver (at the calibration temperature).
    #[must_use]
    pub fn solver(&self) -> &LaserPowerSolver {
        self.solver.base()
    }

    /// The temperature-aware solver.
    #[must_use]
    pub fn thermal_solver(&self) -> &ThermalSolver {
        &self.solver
    }

    /// The calibration ambient temperature of this link.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Evaluates the complete operating point of `scheme` at `target_ber`,
    /// at the calibration ambient temperature (the paper's evaluation).
    ///
    /// # Errors
    ///
    /// * [`LinkError::SchemeNotSustainable`] when the optical channel cannot
    ///   carry the encoded word within one IP cycle;
    /// * [`LinkError::Infeasible`] when the laser cannot reach the required
    ///   optical power (e.g. uncoded at BER = 10⁻¹²).
    pub fn operating_point(
        &self,
        scheme: EccScheme,
        target_ber: f64,
    ) -> Result<OperatingPoint, LinkError> {
        self.operating_point_at(scheme, target_ber, self.ambient)
    }

    /// Evaluates the complete operating point of `scheme` at `target_ber`
    /// with the chip at `temperature`.
    ///
    /// Away from the calibration ambient the rings drift, the configured
    /// tune-vs-tolerate policy decides how much heater power to spend, the
    /// laser runs at the new ambient, and the channel power gains the P_tune
    /// term.  At exactly the calibration ambient this reproduces the paper's
    /// numbers bit-for-bit.
    ///
    /// # Errors
    ///
    /// Same as [`NanophotonicLink::operating_point`]; additionally, a scheme
    /// feasible at the ambient may be [`LinkError::Infeasible`] at a higher
    /// temperature (the uncoded link at BER 10⁻¹¹ dies above ≈ 50 °C).
    pub fn operating_point_at(
        &self,
        scheme: EccScheme,
        target_ber: f64,
        temperature: Celsius,
    ) -> Result<OperatingPoint, LinkError> {
        if !self.power_model.config().supports(scheme) {
            return Err(LinkError::SchemeNotSustainable { scheme });
        }
        let solved = self.solver.solve_at(scheme, target_ber, temperature);
        self.telemetry.emit(|| TelemetryEvent::SolverInvoked {
            scheme: scheme.to_string(),
            target_ber,
            temperature_c: temperature.value(),
            feasible: solved.is_ok(),
        });
        let (laser, thermal) = solved?;
        let power = self.power_model.breakdown_with_tuning(
            scheme,
            laser.laser_electrical_power,
            thermal.tuning_power_per_lane,
        );
        let lanes = self.power_model.config().wavelength_lanes;
        let timing = self.power_model.timing(scheme);
        let energy_per_bit = self.power_model.energy_per_bit(&power, self.accounting);
        Ok(OperatingPoint {
            laser,
            power,
            channel_power: power.channel_total(lanes),
            timing,
            energy_per_bit,
            thermal,
        })
    }

    /// Memoized variant of [`NanophotonicLink::operating_point_at`].
    ///
    /// The requested temperature is snapped to the cache's bucket grid
    /// (0.05 K by default, see [`NanophotonicLink::with_cache_resolution`])
    /// and the point is solved at the snapped temperature exactly once per
    /// `(scheme, BER, bucket)` triple; repeated queries — temperature sweeps,
    /// many-ONI thermal simulations, repeated manager requests — are
    /// answered from the cache bit-identically.  Infeasible results are
    /// cached too, so a hot uncoded query does not re-run the solver either.
    ///
    /// # Errors
    ///
    /// Same as [`NanophotonicLink::operating_point_at`], evaluated at the
    /// snapped temperature.
    pub fn operating_point_memoized(
        &self,
        scheme: EccScheme,
        target_ber: f64,
        temperature: Celsius,
    ) -> Result<OperatingPoint, LinkError> {
        let snapped = self.cache.snap(temperature);
        let key = OpCacheKey {
            scheme,
            ber_bits: target_ber.to_bits(),
            bucket: self.cache.bucket(snapped),
            stack_fingerprint: self.stack_fingerprint,
        };
        let (solved, hit) = self.cache.get_or_solve(key, || {
            self.telemetry.emit(|| TelemetryEvent::CacheMiss {
                fingerprint: self.stack_fingerprint,
                scheme: scheme.to_string(),
                temperature_c: snapped.value(),
            });
            self.operating_point_at(scheme, target_ber, snapped)
        });
        if hit {
            self.telemetry.emit(|| TelemetryEvent::CacheHit {
                fingerprint: self.stack_fingerprint,
                scheme: scheme.to_string(),
                temperature_c: snapped.value(),
            });
        }
        solved
    }

    /// Hit/miss/entry counters of the memoized operating-point cache.
    #[must_use]
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// The representative temperature the cache snaps `temperature` to.
    #[must_use]
    pub fn cache_bucket_temperature(&self, temperature: Celsius) -> Celsius {
        self.cache.snap(temperature)
    }

    /// Evaluates every scheme in `candidates` at `target_ber` and the
    /// calibration ambient, silently dropping infeasible ones.
    #[must_use]
    pub fn feasible_points(
        &self,
        candidates: &[EccScheme],
        target_ber: f64,
    ) -> Vec<OperatingPoint> {
        self.feasible_points_at(candidates, target_ber, self.ambient)
    }

    /// Evaluates every scheme in `candidates` at `target_ber` and
    /// `temperature`, silently dropping infeasible ones.
    #[must_use]
    pub fn feasible_points_at(
        &self,
        candidates: &[EccScheme],
        target_ber: f64,
        temperature: Celsius,
    ) -> Vec<OperatingPoint> {
        candidates
            .iter()
            .filter_map(|&scheme| {
                self.operating_point_at(scheme, target_ber, temperature)
                    .ok()
            })
            .collect()
    }

    /// Serves a [`LinkRequest`]: among all feasible schemes at the request's
    /// temperature, returns the best one under the request's objective that
    /// satisfies the constraints, or `None` when no scheme qualifies.
    ///
    /// Queries go through the memoized operating-point cache (the request
    /// temperature is snapped to the cache's 0.05 K bucket grid), so a
    /// manager answering many requests at recurring temperatures invokes
    /// the photonic solver only once per distinct point.
    #[must_use]
    pub fn serve(&self, request: &LinkRequest, candidates: &[EccScheme]) -> Option<OperatingPoint> {
        let temperature = request.temperature.unwrap_or(self.ambient);
        candidates
            .iter()
            .filter_map(|&scheme| {
                self.operating_point_memoized(scheme, request.target_ber, temperature)
                    .ok()
            })
            .filter(|p| {
                request
                    .max_communication_time_factor
                    .is_none_or(|ct| p.communication_time_factor() <= ct + 1e-12)
            })
            .filter(|p| {
                request
                    .max_channel_power
                    .is_none_or(|cap| p.channel_power.value() <= cap.value() + 1e-12)
            })
            .min_by(|a, b| {
                let key = |p: &OperatingPoint| match request.objective {
                    SelectionObjective::MinPower => (p.channel_power.value(), 0.0),
                    SelectionObjective::MinLatency => {
                        (p.communication_time_factor(), p.channel_power.value())
                    }
                };
                // total_cmp is a total order on f64 (solver outputs are
                // always finite, but the comparator must not be able to
                // panic either way).
                let (a0, a1) = key(a);
                let (b0, b1) = key(b);
                a0.total_cmp(&b0).then(a1.total_cmp(&b1))
            })
    }
}

impl Default for NanophotonicLink {
    fn default() -> Self {
        Self::paper_link()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> NanophotonicLink {
        NanophotonicLink::paper_link()
    }

    #[test]
    fn paper_headline_laser_power_reduction() {
        let l = link();
        let uncoded = l.operating_point(EccScheme::Uncoded, 1e-11).unwrap();
        let h74 = l.operating_point(EccScheme::Hamming74, 1e-11).unwrap();
        let h7164 = l.operating_point(EccScheme::Hamming7164, 1e-11).unwrap();
        // Roughly −45% / −49% channel power as in Fig. 6a.
        let saving74 = 1.0 - h74.channel_power.value() / uncoded.channel_power.value();
        let saving7164 = 1.0 - h7164.channel_power.value() / uncoded.channel_power.value();
        assert!(
            saving74 > 0.40 && saving74 < 0.60,
            "H(7,4) saving = {saving74}"
        );
        assert!(
            saving7164 > 0.35 && saving7164 < 0.55,
            "H(71,64) saving = {saving7164}"
        );
    }

    #[test]
    fn unreachable_ber_without_coding() {
        let l = link();
        assert!(matches!(
            l.operating_point(EccScheme::Uncoded, 1e-12),
            Err(LinkError::Infeasible(_))
        ));
        assert!(l.operating_point(EccScheme::Hamming74, 1e-12).is_ok());
        assert!(l.operating_point(EccScheme::Hamming7164, 1e-12).is_ok());
    }

    #[test]
    fn operating_point_is_internally_consistent() {
        let l = link();
        let p = l.operating_point(EccScheme::Hamming7164, 1e-9).unwrap();
        assert_eq!(p.scheme(), EccScheme::Hamming7164);
        assert!((p.target_ber() - 1e-9).abs() < 1e-20);
        assert!((p.channel_power.value() - p.power.channel_total(16).value()).abs() < 1e-9);
        assert!((p.communication_time_factor() - 71.0 / 64.0).abs() < 1e-9);
        assert!(p.energy_per_bit.value() > 0.5 && p.energy_per_bit.value() < 10.0);
    }

    #[test]
    fn feasible_points_drop_infeasible_schemes() {
        let l = link();
        let points = l.feasible_points(&EccScheme::paper_schemes(), 1e-12);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.scheme() != EccScheme::Uncoded));
    }

    #[test]
    fn serve_picks_the_lowest_power_scheme_within_constraints() {
        let l = link();
        // Latency-insensitive: a Hamming code wins on power.
        let relaxed = l
            .serve(
                &LinkRequest::best_effort(1e-11),
                &EccScheme::paper_schemes(),
            )
            .unwrap();
        assert_ne!(relaxed.scheme(), EccScheme::Uncoded);

        // Tight deadline (CT ≤ 1.0): only the uncoded path qualifies.
        let tight = l
            .serve(
                &LinkRequest {
                    max_communication_time_factor: Some(1.0),
                    ..LinkRequest::best_effort(1e-11)
                },
                &EccScheme::paper_schemes(),
            )
            .unwrap();
        assert_eq!(tight.scheme(), EccScheme::Uncoded);

        // Impossible combination: BER 1e-12 with CT ≤ 1.0.
        assert!(l
            .serve(
                &LinkRequest {
                    max_communication_time_factor: Some(1.0),
                    ..LinkRequest::best_effort(1e-12)
                },
                &EccScheme::paper_schemes(),
            )
            .is_none());
    }

    #[test]
    fn power_cap_filters_operating_points() {
        let l = link();
        let capped = l.serve(
            &LinkRequest {
                max_channel_power: Some(Milliwatts::new(150.0)),
                ..LinkRequest::best_effort(1e-11)
            },
            &EccScheme::paper_schemes(),
        );
        let uncapped = l
            .serve(
                &LinkRequest::best_effort(1e-11),
                &EccScheme::paper_schemes(),
            )
            .unwrap();
        assert!(capped.is_some());
        assert!(capped.unwrap().channel_power.value() <= 150.0);
        assert!(uncapped.channel_power.value() <= 150.0);
    }

    #[test]
    fn scheme_not_sustainable_on_a_narrow_interface() {
        let mut interface = InterfaceConfig::paper_default();
        interface.wavelength_lanes = 8; // 80 Gb/s: too narrow for H(7,4)'s 112 bits/cycle.
        let l = NanophotonicLink::new(PaperCalibration::dac17(), interface);
        assert!(matches!(
            l.operating_point(EccScheme::Hamming74, 1e-9),
            Err(LinkError::SchemeNotSustainable { .. })
        ));
        assert!(l.operating_point(EccScheme::Hamming7164, 1e-9).is_ok());
    }

    #[test]
    fn error_display() {
        let l = link();
        let err = l.operating_point(EccScheme::Uncoded, 1e-12).unwrap_err();
        assert!(err.to_string().contains("no feasible operating point"));
    }

    #[test]
    fn ambient_operating_point_carries_no_thermal_cost() {
        let l = link();
        assert!((l.ambient().value() - 25.0).abs() < 1e-12);
        let p = l.operating_point(EccScheme::Hamming7164, 1e-11).unwrap();
        assert!(p.thermal.free_drift.is_zero());
        assert!(p.power.tuning.is_zero());
        assert!((p.temperature().value() - 25.0).abs() < 1e-12);
        // operating_point_at at the ambient is the identical computation.
        let q = l
            .operating_point_at(EccScheme::Hamming7164, 1e-11, Celsius::new(25.0))
            .unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn hot_operating_point_charges_laser_and_tuning() {
        let l = link();
        let cool = l.operating_point(EccScheme::Hamming74, 1e-11).unwrap();
        let hot = l
            .operating_point_at(EccScheme::Hamming74, 1e-11, Celsius::new(85.0))
            .unwrap();
        assert!(hot.power.laser.value() > cool.power.laser.value());
        assert!(hot.power.tuning.value() > 0.0);
        assert!(hot.channel_power.value() > cool.channel_power.value());
        assert!(hot.energy_per_bit.value() > cool.energy_per_bit.value());
        assert!((hot.thermal.free_drift.nanometers() - 6.0).abs() < 1e-9);
        assert!(hot.thermal.residual_drift.abs().nanometers() < 0.05);
    }

    #[test]
    fn uncoded_feasibility_is_temperature_dependent() {
        let l = link();
        assert!(l
            .operating_point_at(EccScheme::Uncoded, 1e-11, Celsius::new(45.0))
            .is_ok());
        assert!(matches!(
            l.operating_point_at(EccScheme::Uncoded, 1e-11, Celsius::new(85.0)),
            Err(LinkError::Infeasible(_))
        ));
        let points = l.feasible_points_at(&EccScheme::paper_schemes(), 1e-11, Celsius::new(85.0));
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.scheme() != EccScheme::Uncoded));
    }

    #[test]
    fn serve_honours_the_request_temperature_and_objective() {
        let l = link();
        // MinLatency at the ambient: the fastest feasible scheme is uncoded.
        let request = LinkRequest {
            objective: SelectionObjective::MinLatency,
            ..LinkRequest::best_effort(1e-11)
        };
        let cool = l.serve(&request, &EccScheme::paper_schemes()).unwrap();
        assert_eq!(cool.scheme(), EccScheme::Uncoded);
        // The same request at 85 C lands on H(71,64): fastest survivor.
        let hot = l
            .serve(
                &request.at_temperature(Celsius::new(85.0)),
                &EccScheme::paper_schemes(),
            )
            .unwrap();
        assert_eq!(hot.scheme(), EccScheme::Hamming7164);
        assert!(hot.power.tuning.value() > 0.0);
    }

    #[test]
    fn memoized_points_are_bit_identical_to_the_uncached_solver() {
        let l = link();
        for scheme in EccScheme::paper_schemes() {
            for t in [25.0, 40.0, 55.0, 70.0, 85.0] {
                let cached = l.operating_point_memoized(scheme, 1e-11, Celsius::new(t));
                let fresh = l.operating_point_at(scheme, 1e-11, Celsius::new(t));
                assert_eq!(cached, fresh, "{scheme} at {t}");
                // And a second query is answered from the cache, identically.
                let again = l.operating_point_memoized(scheme, 1e-11, Celsius::new(t));
                assert_eq!(cached, again, "{scheme} at {t} (cached)");
            }
        }
        let counters = l.cache_counters();
        assert_eq!(counters.misses, 15, "one solve per distinct point");
        assert_eq!(counters.hits, 15, "every repeat is a hit");
        assert_eq!(counters.entries, 15);
        assert!((counters.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_snaps_temperatures_within_one_bucket() {
        let l = link();
        // 0.05 K buckets: 54.99 and 55.01 share the 55.0 bucket.
        let a = l
            .operating_point_memoized(EccScheme::Hamming7164, 1e-11, Celsius::new(54.99))
            .unwrap();
        let b = l
            .operating_point_memoized(EccScheme::Hamming7164, 1e-11, Celsius::new(55.01))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(l.cache_counters().misses, 1);
        assert_eq!(l.cache_counters().hits, 1);
        assert!((l.cache_bucket_temperature(Celsius::new(55.01)).value() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_results_are_cached_too() {
        let l = link();
        for _ in 0..3 {
            assert!(l
                .operating_point_memoized(EccScheme::Uncoded, 1e-11, Celsius::new(85.0))
                .is_err());
        }
        let counters = l.cache_counters();
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.hits, 2);
    }

    #[test]
    fn serve_goes_through_the_cache() {
        let l = link();
        for _ in 0..4 {
            let _ = l.serve(
                &LinkRequest::best_effort(1e-11),
                &EccScheme::paper_schemes(),
            );
        }
        let counters = l.cache_counters();
        assert_eq!(counters.misses, 3, "one solve per candidate scheme");
        assert_eq!(counters.hits, 9, "repeat requests never re-solve");
    }

    #[test]
    fn repeated_sweeps_cut_solver_invocations_at_least_5x() {
        // Ten 25–85 °C sweeps in 0.5 K steps over every paper scheme solve
        // each (scheme, bucket) once, on the uniform bank and on a
        // σ = 40 pm barrel-shift chip alike.
        let varied = link()
            .with_fabrication_variation(FabricationVariation::new(0.04, 42))
            .with_bank_tuning_mode(BankTuningMode::full_barrel_shift(16));
        for (name, l) in [("uniform", link()), ("sigma 40 pm, barrel shift", varied)] {
            for _ in 0..10 {
                for step in 0..=120 {
                    let t = Celsius::new(25.0 + 0.5 * f64::from(step));
                    for scheme in EccScheme::paper_schemes() {
                        let _ = l.operating_point_memoized(scheme, 1e-11, t);
                    }
                }
            }
            let counters = l.cache_counters();
            let ratio = counters.total() as f64 / counters.misses as f64;
            assert!(
                ratio >= 5.0,
                "{name}: {} queries took {} solver invocations ({ratio:.1}x fewer, need >= 5x)",
                counters.total(),
                counters.misses
            );
        }
    }

    #[test]
    fn a_cache_resolution_swaps_in_an_empty_cache_on_its_own_grid() {
        let l = link();
        let _ = l.operating_point_memoized(EccScheme::Uncoded, 1e-11, Celsius::new(25.0));
        assert_eq!(l.cache_counters().entries, 1);
        let coarse = l.clone().with_cache_resolution(1.0).unwrap();
        assert!(!coarse.shared_cache().ptr_eq(&l.shared_cache()));
        assert_eq!(coarse.cache_counters(), CacheCounters::default());
        // The coarser grid snaps more coarsely.
        assert!((coarse.cache_bucket_temperature(Celsius::new(55.4)).value() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn plain_clones_share_the_cache_handle() {
        let l = link();
        let twin = l.clone();
        assert!(twin.shared_cache().ptr_eq(&l.shared_cache()));
        let _ = l.operating_point_memoized(EccScheme::Uncoded, 1e-11, Celsius::new(25.0));
        // The twin answers the same query as a pure hit from the shared map.
        let _ = twin.operating_point_memoized(EccScheme::Uncoded, 1e-11, Celsius::new(25.0));
        let counters = l.cache_counters();
        assert_eq!(counters.misses, 1, "one solve across both sharers");
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.entries, 1);
        assert_eq!(twin.cache_counters(), counters);
    }

    #[test]
    fn with_shared_cache_joins_an_existing_fleet_cache() {
        let fleet = SharedOpCache::new();
        let a = link().with_shared_cache(fleet.clone());
        let b = link().with_shared_cache(fleet.clone());
        let _ = a.operating_point_memoized(EccScheme::Hamming74, 1e-11, Celsius::new(40.0));
        let _ = b.operating_point_memoized(EccScheme::Hamming74, 1e-11, Celsius::new(40.0));
        assert_eq!(fleet.counters().misses, 1, "identical stacks share entries");
        assert_eq!(fleet.counters().hits, 1);
        // Every sharer reads the one cache's counters.
        assert_eq!(a.cache_counters(), fleet.counters());
        assert_eq!(b.cache_counters(), fleet.counters());
    }

    #[test]
    fn cache_resolution_rejects_degenerate_values() {
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = link().with_cache_resolution(bad).unwrap_err();
            assert!(
                matches!(err, LinkError::InvalidConfiguration { .. }),
                "{bad} must be rejected"
            );
            assert!(err.to_string().contains("cache resolution"), "{bad}: {err}");
        }
        // A valid resolution still goes through.
        assert!(link().with_cache_resolution(4.0).is_ok());
    }

    #[test]
    fn cache_key_carries_the_stack_fingerprint() {
        // Memoize under the default (σ = 0) stack, then swap in a varied
        // stack: the old entry must never be served for the new chip
        // instance, and the fresh solve must match the uncached solver.
        let l = link();
        let t = Celsius::new(55.0);
        let plain = l
            .operating_point_memoized(EccScheme::Hamming7164, 1e-11, t)
            .unwrap();
        assert_eq!(l.cache_counters().misses, 1);
        let plain_fingerprint = l.stack_fingerprint();
        let varied = l.with_fabrication_variation(FabricationVariation::new(0.04, 3));
        // The cache map travelled along with the link…
        assert_eq!(varied.cache_counters().entries, 1);
        let fresh = varied
            .operating_point_memoized(EccScheme::Hamming7164, 1e-11, t)
            .unwrap();
        // …but the fingerprint in the key forces a re-solve…
        assert_eq!(varied.cache_counters().misses, 2);
        assert_eq!(
            fresh,
            varied
                .operating_point_at(EccScheme::Hamming7164, 1e-11, t)
                .unwrap()
        );
        // …and the varied chip costs more than the perfect one.
        assert!(fresh.channel_power.value() > plain.channel_power.value());
        assert_ne!(varied.stack_fingerprint(), plain_fingerprint);
    }

    #[test]
    fn barrel_shift_mode_cuts_tuning_power_on_the_link() {
        let pure = link();
        let barrel = link().with_bank_tuning_mode(BankTuningMode::full_barrel_shift(16));
        let t = Celsius::new(65.0);
        let p = pure
            .operating_point_at(EccScheme::Hamming7164, 1e-11, t)
            .unwrap();
        let b = barrel
            .operating_point_at(EccScheme::Hamming7164, 1e-11, t)
            .unwrap();
        assert!(b.power.tuning.value() < p.power.tuning.value());
        assert!(b.channel_power.value() < p.channel_power.value());
        assert_eq!(b.thermal.barrel_shift, 5, "40 K = 4 nm = 5 spacings");
        // At the ambient the shift is a no-op and the paper pins hold.
        let cool = barrel
            .operating_point(EccScheme::Hamming7164, 1e-11)
            .unwrap();
        assert_eq!(cool.thermal.barrel_shift, 0);
        assert_eq!(
            cool,
            pure.operating_point(EccScheme::Hamming7164, 1e-11).unwrap()
        );
    }

    #[test]
    fn wavelength_assignment_threads_through_the_link() {
        let plain = link();
        assert!(plain.wavelength_assignment().is_none());
        // Identity assignment: bit-identical operating points, distinct
        // fingerprint (memoized entries can never alias the two stacks).
        let identity = link()
            .with_wavelength_assignment(WavelengthAssignment::identity(16))
            .unwrap();
        assert!(identity
            .wavelength_assignment()
            .is_some_and(WavelengthAssignment::is_identity));
        assert_ne!(identity.stack_fingerprint(), plain.stack_fingerprint());
        for t in [25.0, 55.0, 85.0] {
            assert_eq!(
                plain.operating_point_at(EccScheme::Hamming7164, 1e-11, Celsius::new(t)),
                identity.operating_point_at(EccScheme::Hamming7164, 1e-11, Celsius::new(t)),
                "{t} C"
            );
        }
        // A design-for-85 °C assignment slashes the hot tuning bill and
        // revives the uncoded path at 85 °C.
        let hot = Celsius::new(85.0);
        let assigner = plain.wavelength_assigner(AssignmentStrategy::GreedyRefine, 1);
        let designed = link()
            .with_wavelength_assignment(assigner.assign(&plain.ring_bank_state_at(hot)))
            .unwrap();
        let p = plain
            .operating_point_at(EccScheme::Hamming7164, 1e-11, hot)
            .unwrap();
        let d = designed
            .operating_point_at(EccScheme::Hamming7164, 1e-11, hot)
            .unwrap();
        assert!(d.power.tuning.value() < 0.2 * p.power.tuning.value());
        assert!(plain
            .operating_point_at(EccScheme::Uncoded, 1e-11, hot)
            .is_err());
        assert!(designed
            .operating_point_at(EccScheme::Uncoded, 1e-11, hot)
            .is_ok());
        // A wrong-length assignment is a configuration error, not a panic.
        let err = link()
            .with_wavelength_assignment(WavelengthAssignment::identity(4))
            .unwrap_err();
        assert!(err.to_string().contains("wavelength assignment"), "{err}");
    }

    #[test]
    fn ring_bank_state_reflects_the_variation() {
        let l = link().with_fabrication_variation(FabricationVariation::new(0.04, 7));
        let state = l.ring_bank_state_at(Celsius::new(25.0));
        assert_eq!(state.ring_count(), 16);
        assert!(!state.is_uniform());
        assert!(state.thermal_excursion().is_zero());
        // σ = 0 stays the per-bank scalar model, bit-identically.
        let plain = link();
        assert!(plain.ring_bank_state_at(Celsius::new(25.0)).is_uniform());
        let a = plain.operating_point_at(EccScheme::Hamming74, 1e-11, Celsius::new(55.0));
        let zeroed = link().with_fabrication_variation(FabricationVariation::new(0.0, 99));
        let b = zeroed.operating_point_at(EccScheme::Hamming74, 1e-11, Celsius::new(55.0));
        assert_eq!(a, b);
    }

    #[test]
    fn thermal_stack_is_anchored_at_the_calibration_ambient() {
        // A link calibrated at a non-paper ambient must still see zero drift
        // and zero tuning power *at that ambient* — the ring bank is aligned
        // wherever it was calibrated.
        let mut calibration = PaperCalibration::dac17();
        calibration.ambient = Celsius::new(40.0);
        let l = NanophotonicLink::new(calibration, InterfaceConfig::paper_default());
        assert!((l.ambient().value() - 40.0).abs() < 1e-12);
        let p = l.operating_point(EccScheme::Hamming7164, 1e-11).unwrap();
        assert!(p.thermal.free_drift.is_zero());
        assert!(p.power.tuning.is_zero());
        // And excursions are measured from 40 °C, not 25 °C.
        let hot = l
            .operating_point_at(EccScheme::Hamming7164, 1e-11, Celsius::new(50.0))
            .unwrap();
        assert!((hot.thermal.free_drift.nanometers() - 1.0).abs() < 1e-9);
    }
}
