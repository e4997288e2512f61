//! The run-time optical-link energy/performance manager (Section III-C).
//!
//! The paper describes a centralized manager: a source ONI sends a request
//! naming the destination and the communication requirements; the manager
//! answers with the configuration to apply on both sides — the coding scheme
//! and the laser output power.  "The choice of the communication scheme is
//! handled by the Operating System": real-time traffic favours the fast
//! uncoded path, power-constrained multimedia traffic favours the coded,
//! lower-power path, possibly with a degraded BER.

use onoc_ecc_codes::EccScheme;
use onoc_units::{Celsius, Milliwatts};

use crate::link::{LinkError, LinkRequest, NanophotonicLink, OperatingPoint, SelectionObjective};

/// Coarse application classes distinguished by the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Hard-deadline traffic: communication time must not stretch.
    RealTime,
    /// Latency-sensitive traffic that prefers the fastest feasible path but
    /// accepts a moderately coded fallback when the fast path is infeasible
    /// (e.g. when temperature kills the uncoded link).
    LatencyFirst,
    /// Throughput traffic: moderate latency slack, strict BER.
    Bulk,
    /// Multimedia-like traffic: large latency slack, BER may be degraded to
    /// save power.
    Multimedia,
}

impl TrafficClass {
    /// Every class, in decreasing latency sensitivity.
    #[must_use]
    pub fn all() -> [Self; 4] {
        [
            Self::RealTime,
            Self::LatencyFirst,
            Self::Bulk,
            Self::Multimedia,
        ]
    }

    /// Latency slack (maximum CT factor) granted to this class.
    #[must_use]
    pub fn max_communication_time_factor(self) -> f64 {
        match self {
            Self::RealTime => 1.0,
            Self::LatencyFirst | Self::Bulk => 1.5,
            Self::Multimedia => 2.0,
        }
    }

    /// BER degradation factor tolerated by this class (multiplies the
    /// nominal target).
    #[must_use]
    pub fn ber_relaxation(self) -> f64 {
        match self {
            Self::RealTime | Self::LatencyFirst | Self::Bulk => 1.0,
            Self::Multimedia => 100.0,
        }
    }

    /// What the manager optimises for within this class's constraints.
    #[must_use]
    pub fn objective(self) -> SelectionObjective {
        match self {
            Self::LatencyFirst => SelectionObjective::MinLatency,
            Self::RealTime | Self::Bulk | Self::Multimedia => SelectionObjective::MinPower,
        }
    }

    /// Stable name used in telemetry events and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::RealTime => "RealTime",
            Self::LatencyFirst => "LatencyFirst",
            Self::Bulk => "Bulk",
            Self::Multimedia => "Multimedia",
        }
    }
}

impl std::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The configuration answered by the manager for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerDecision {
    /// Traffic class the decision was made for.
    pub class: TrafficClass,
    /// Selected operating point (scheme + laser power + derived figures).
    pub point: OperatingPoint,
}

/// The centralized energy/performance manager.
#[derive(Debug, Clone)]
pub struct LinkManager {
    link: NanophotonicLink,
    candidates: Vec<EccScheme>,
    nominal_ber: f64,
    power_budget: Option<Milliwatts>,
}

impl LinkManager {
    /// Creates a manager over `link` with the given candidate schemes and the
    /// nominal BER target the platform guarantees.
    ///
    /// # Errors
    ///
    /// [`LinkError::InvalidConfiguration`] when `candidates` is empty or
    /// `nominal_ber` is outside (0, 0.5).
    pub fn new(
        link: NanophotonicLink,
        candidates: Vec<EccScheme>,
        nominal_ber: f64,
    ) -> Result<Self, LinkError> {
        if candidates.is_empty() {
            return Err(LinkError::InvalidConfiguration {
                reason: "at least one candidate scheme is required".to_owned(),
            });
        }
        if !(nominal_ber > 0.0 && nominal_ber < 0.5) {
            return Err(LinkError::InvalidConfiguration {
                reason: format!("nominal BER must be in (0, 0.5), got {nominal_ber}"),
            });
        }
        Ok(Self {
            link,
            candidates,
            nominal_ber,
            power_budget: None,
        })
    }

    /// The manager used by the paper's evaluation: the three paper schemes at
    /// a nominal BER of 10⁻¹¹.
    #[must_use]
    pub fn paper_manager() -> Self {
        // Valid by construction: three candidates and a BER inside (0, 0.5).
        Self {
            link: NanophotonicLink::paper_link(),
            candidates: EccScheme::paper_schemes().to_vec(),
            nominal_ber: 1e-11,
            power_budget: None,
        }
    }

    /// Applies a per-waveguide power budget to every subsequent decision.
    #[must_use]
    pub fn with_power_budget(mut self, budget: Milliwatts) -> Self {
        self.power_budget = Some(budget);
        self
    }

    /// Points this manager's link at a shared operating-point cache — the
    /// scale-out configuration where a fleet of managers over identical
    /// stacks solves each `(scheme, BER, temperature bucket)` point once.
    /// See [`NanophotonicLink::with_shared_cache`].
    #[must_use]
    pub fn with_shared_cache(mut self, cache: crate::cache::SharedOpCache) -> Self {
        self.link = self.link.with_shared_cache(cache);
        self
    }

    /// Nominal BER target.
    #[must_use]
    pub fn nominal_ber(&self) -> f64 {
        self.nominal_ber
    }

    /// Candidate schemes.
    #[must_use]
    pub fn candidates(&self) -> &[EccScheme] {
        &self.candidates
    }

    /// The underlying link (exposes the memoized operating-point cache and
    /// its hit/miss counters).
    #[must_use]
    pub fn link(&self) -> &NanophotonicLink {
        &self.link
    }

    /// Configures the link for one request of the given traffic class, at
    /// the link's calibration ambient temperature.  Returns `None` when no
    /// candidate satisfies the constraints.
    #[must_use]
    pub fn configure(&self, class: TrafficClass) -> Option<ManagerDecision> {
        self.serve(class, None)
    }

    /// Configures the link for one request of the given traffic class with
    /// the chip at `temperature`.  As the chip heats, the same class can
    /// legitimately land on a different scheme: a [`TrafficClass::LatencyFirst`]
    /// request rides the uncoded path at 25 °C and falls back to
    /// Hamming(71,64) once drift makes the uncoded path infeasible.
    #[must_use]
    pub fn configure_at(
        &self,
        class: TrafficClass,
        temperature: Celsius,
    ) -> Option<ManagerDecision> {
        self.serve(class, Some(temperature))
    }

    fn serve(&self, class: TrafficClass, temperature: Option<Celsius>) -> Option<ManagerDecision> {
        let request = LinkRequest {
            target_ber: (self.nominal_ber * class.ber_relaxation()).min(0.499),
            max_communication_time_factor: Some(class.max_communication_time_factor()),
            max_channel_power: self.power_budget,
            temperature,
            objective: class.objective(),
        };
        let decision = self
            .link
            .serve(&request, &self.candidates)
            .map(|point| ManagerDecision { class, point });
        self.link
            .telemetry()
            .emit(|| onoc_telemetry::TelemetryEvent::DecisionResolved {
                class: class.name().to_owned(),
                temperature_c: temperature.unwrap_or_else(|| self.link.ambient()).value(),
                scheme: decision.as_ref().map(|d| d.point.scheme().to_string()),
            });
        decision
    }

    /// Configures the link for every class, reporting which classes are
    /// servable under the current budget.
    #[must_use]
    pub fn configure_all(&self) -> Vec<(TrafficClass, Option<ManagerDecision>)> {
        TrafficClass::all()
            .into_iter()
            .map(|class| (class, self.configure(class)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_time_traffic_uses_the_uncoded_path() {
        let manager = LinkManager::paper_manager();
        let decision = manager.configure(TrafficClass::RealTime).unwrap();
        assert_eq!(decision.point.scheme(), EccScheme::Uncoded);
        assert!((decision.point.communication_time_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multimedia_traffic_uses_a_coded_low_power_path() {
        let manager = LinkManager::paper_manager();
        let rt = manager.configure(TrafficClass::RealTime).unwrap();
        let mm = manager.configure(TrafficClass::Multimedia).unwrap();
        assert_ne!(mm.point.scheme(), EccScheme::Uncoded);
        assert!(mm.point.channel_power.value() < rt.point.channel_power.value());
    }

    #[test]
    fn bulk_traffic_accepts_h7164_but_not_h74() {
        // CT cap of 1.5 excludes H(7,4) (1.75) but admits H(71,64) (1.11).
        let manager = LinkManager::paper_manager();
        let decision = manager.configure(TrafficClass::Bulk).unwrap();
        assert_eq!(decision.point.scheme(), EccScheme::Hamming7164);
    }

    #[test]
    fn tight_power_budget_rules_out_the_uncoded_path() {
        let manager = LinkManager::paper_manager().with_power_budget(Milliwatts::new(160.0));
        // Real-time traffic demands CT = 1.0, i.e. the uncoded path, but that
        // path blows the 160 mW budget: the request cannot be served.
        assert!(manager.configure(TrafficClass::RealTime).is_none());
        // Multimedia traffic still fits.
        assert!(manager.configure(TrafficClass::Multimedia).is_some());
    }

    #[test]
    fn configure_all_reports_every_class() {
        let manager = LinkManager::paper_manager();
        let all = manager.configure_all();
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|(_, d)| d.is_some()));
    }

    #[test]
    fn latency_first_rides_uncoded_when_cool() {
        let manager = LinkManager::paper_manager();
        let decision = manager.configure(TrafficClass::LatencyFirst).unwrap();
        assert_eq!(decision.point.scheme(), EccScheme::Uncoded);
    }

    #[test]
    fn latency_first_switches_to_hamming_when_hot() {
        // The thermally-adaptive behaviour the thermal subsystem exists for:
        // at 25 C the fastest feasible path is uncoded; at 85 C residual ring
        // drift kills the uncoded link and the manager falls back to the next
        // fastest feasible scheme, H(71,64).
        let manager = LinkManager::paper_manager();
        let cool = manager
            .configure_at(TrafficClass::LatencyFirst, Celsius::new(25.0))
            .unwrap();
        assert_eq!(cool.point.scheme(), EccScheme::Uncoded);
        let hot = manager
            .configure_at(TrafficClass::LatencyFirst, Celsius::new(85.0))
            .unwrap();
        assert_eq!(hot.point.scheme(), EccScheme::Hamming7164);
        assert!(hot.point.power.tuning.value() > 0.0);
        // Hard real-time traffic cannot switch (CT = 1.0 admits only the
        // uncoded path) and becomes unservable instead.
        assert!(manager
            .configure_at(TrafficClass::RealTime, Celsius::new(85.0))
            .is_none());
    }

    #[test]
    fn configure_at_ambient_matches_configure() {
        let manager = LinkManager::paper_manager();
        for class in TrafficClass::all() {
            let a = manager.configure(class);
            let b = manager.configure_at(class, Celsius::new(25.0));
            assert_eq!(a, b, "{class:?}");
        }
    }

    #[test]
    fn multimedia_ber_relaxation_lowers_the_laser_power_further() {
        let manager = LinkManager::paper_manager();
        let bulk = manager.configure(TrafficClass::Bulk).unwrap();
        let mm = manager.configure(TrafficClass::Multimedia).unwrap();
        assert!(
            mm.point.laser.laser_electrical_power.value()
                <= bulk.point.laser.laser_electrical_power.value() + 1e-9
        );
    }

    #[test]
    fn accessors() {
        let manager = LinkManager::paper_manager();
        assert_eq!(manager.candidates().len(), 3);
        assert!((manager.nominal_ber() - 1e-11).abs() < 1e-20);
    }

    #[test]
    fn invalid_manager_configurations_are_typed_errors() {
        let paper = || EccScheme::paper_schemes().to_vec();
        for (candidates, ber, expected) in [
            (vec![], 1e-9, "at least one candidate"),
            (paper(), 0.0, "nominal BER"),
            (paper(), 0.5, "nominal BER"),
            (paper(), -1e-9, "nominal BER"),
            (paper(), f64::NAN, "nominal BER"),
        ] {
            match LinkManager::new(NanophotonicLink::paper_link(), candidates, ber) {
                Err(LinkError::InvalidConfiguration { reason }) => {
                    assert!(reason.contains(expected), "BER {ber}: {reason}");
                }
                other => panic!("BER {ber}: expected a configuration error, got {other:?}"),
            }
        }
        assert!(LinkManager::new(NanophotonicLink::paper_link(), paper(), 1e-9).is_ok());
    }
}
