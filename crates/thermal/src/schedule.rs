//! Piecewise workload schedules: DVFS phases, task migration and diurnal
//! load curves over the per-ONI [`WorkloadTrace`] substrate.
//!
//! A [`WorkloadTrace`] describes one ONI's compute-cluster heat as a steady
//! baseline plus one burst window — enough for a single static heat map,
//! but real platforms *reschedule*: DVFS governors step power levels,
//! orchestrators migrate tasks between clusters, and datacentre load
//! follows the clock.  [`WorkloadSchedule`] strings phases of per-ONI
//! traces together on one timeline, keeping the property that makes the
//! trace substrate exact: every phase is analytic, so an epoch of any
//! length integrates the schedule with no sampling error — including
//! epochs that straddle a phase boundary.
//!
//! Phase times are *phase-relative*: a trace's burst window is expressed
//! from the start of its own phase, so a phase library composes without
//! re-basing.  The final phase extends to the end of the run, whatever its
//! stated duration — a schedule never runs out of workload.

use crate::model::WorkloadTrace;

/// One phase of a [`WorkloadSchedule`]: a duration and one heat-injection
/// trace per ONI, with trace times relative to the phase start.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPhase {
    /// Phase length, in nanoseconds (`f64::INFINITY` for an open-ended
    /// final phase).  Must be positive: a zero-length phase can never play.
    pub duration_ns: f64,
    /// One trace per ONI, in phase-relative time.
    pub traces: Vec<WorkloadTrace>,
}

impl WorkloadPhase {
    /// A phase of `duration_ns` over `traces` (one per ONI).
    #[must_use]
    pub fn new(duration_ns: f64, traces: Vec<WorkloadTrace>) -> Self {
        Self {
            duration_ns,
            traces,
        }
    }
}

/// A piecewise workload: consecutive [`WorkloadPhase`]s on one timeline.
///
/// The schedule is the *scheduled* generalization of a single
/// [`WorkloadTrace`] vector: [`WorkloadSchedule::single`] wraps today's
/// one-shot traces into a one-phase schedule that integrates bit-identically,
/// while multi-phase schedules express DVFS steps
/// ([`WorkloadSchedule::diurnal`]) and task migration between clusters
/// ([`WorkloadSchedule::migration`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSchedule {
    /// The phases, in play order.  The final phase extends to the end of
    /// the run regardless of its stated duration.
    pub phases: Vec<WorkloadPhase>,
}

impl WorkloadSchedule {
    /// A schedule over explicit phases.
    #[must_use]
    pub fn new(phases: Vec<WorkloadPhase>) -> Self {
        Self { phases }
    }

    /// The single-phase schedule equivalent to today's plain trace vector:
    /// one open-ended phase whose trace times coincide with absolute run
    /// time.  Integrates bit-identically to the traces themselves.
    #[must_use]
    pub fn single(traces: Vec<WorkloadTrace>) -> Self {
        Self {
            phases: vec![WorkloadPhase::new(f64::INFINITY, traces)],
        }
    }

    /// Task migration between clusters: one phase of `phase_duration_ns`
    /// per entry of `centers`, each a [`WorkloadTrace::hot_cluster`] of
    /// `peak_mw` centred on that ONI.  The workload "moves" across the
    /// interposer at every boundary; the last cluster keeps running to the
    /// end of the run.
    ///
    /// # Panics
    ///
    /// Panics if `centers` is empty, `oni_count` is zero or
    /// `decay_per_hop` is outside `[0, 1)`.
    #[must_use]
    pub fn migration(
        oni_count: usize,
        phase_duration_ns: f64,
        centers: &[usize],
        peak_mw: f64,
        decay_per_hop: f64,
    ) -> Self {
        assert!(
            !centers.is_empty(),
            "at least one cluster centre is required"
        );
        Self {
            phases: centers
                .iter()
                .map(|&center| {
                    WorkloadPhase::new(
                        phase_duration_ns,
                        WorkloadTrace::hot_cluster(oni_count, center, peak_mw, decay_per_hop),
                    )
                })
                .collect(),
        }
    }

    /// A diurnal (stepped-uniform) load curve: one phase of
    /// `phase_duration_ns` per entry of `levels_mw`, each injecting that
    /// constant power into every ONI.  The last level holds to the end of
    /// the run.
    ///
    /// # Panics
    ///
    /// Panics if `levels_mw` is empty or `oni_count` is zero.
    #[must_use]
    pub fn diurnal(oni_count: usize, phase_duration_ns: f64, levels_mw: &[f64]) -> Self {
        assert!(!levels_mw.is_empty(), "at least one load level is required");
        assert!(oni_count > 0, "at least one ONI is required");
        Self {
            phases: levels_mw
                .iter()
                .map(|&level| {
                    WorkloadPhase::new(
                        phase_duration_ns,
                        vec![WorkloadTrace::constant(level); oni_count],
                    )
                })
                .collect(),
        }
    }

    /// Number of phases.
    #[must_use]
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// Checks the schedule against the scenario's ONI count.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the schedule is empty, a phase
    /// duration is zero-length, negative or NaN, a non-final phase is
    /// open-ended (later phases would never play), a phase does not carry
    /// exactly one trace per ONI, or a trace is invalid.
    pub fn validate(&self, oni_count: usize) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("a workload schedule needs at least one phase".into());
        }
        for (index, phase) in self.phases.iter().enumerate() {
            if phase.duration_ns <= 0.0 || phase.duration_ns.is_nan() {
                return Err(format!(
                    "phase {index} duration must be positive, got {} ns \
                     (a zero-length phase can never play)",
                    phase.duration_ns
                ));
            }
            if phase.duration_ns.is_infinite() && index + 1 < self.phases.len() {
                return Err(format!(
                    "phase {index} is open-ended but {} phase(s) follow it; \
                     only the final phase may be infinite",
                    self.phases.len() - index - 1
                ));
            }
            if phase.traces.len() != oni_count {
                return Err(format!(
                    "phase {index} needs one trace per ONI: got {} traces for {oni_count} ONIs",
                    phase.traces.len()
                ));
            }
            for (oni, trace) in phase.traces.iter().enumerate() {
                trace
                    .validate()
                    .map_err(|reason| format!("phase {index}, ONI {oni}: {reason}"))?;
            }
        }
        Ok(())
    }

    /// Absolute start time of phase `index`, in nanoseconds (0 for the
    /// first phase; cumulative durations after that).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn phase_start_ns(&self, index: usize) -> f64 {
        assert!(index < self.phases.len(), "phase index out of range");
        // `Sum for f64` folds from -0.0, which would leak a negative zero
        // into the first phase's start time (and into rendered reports).
        self.phases[..index]
            .iter()
            .map(|phase| phase.duration_ns)
            .fold(0.0, |total, duration| total + duration)
    }

    /// Absolute start times of every phase, in play order.
    #[must_use]
    pub fn phase_starts(&self) -> Vec<f64> {
        (0..self.phases.len())
            .map(|index| self.phase_start_ns(index))
            .collect()
    }

    /// The phase containing `time_ns`.  The final phase is open-ended: any
    /// time at or beyond its start maps to it, whatever its stated
    /// duration.
    ///
    /// # Panics
    ///
    /// Panics if the schedule has no phases.
    #[must_use]
    pub fn phase_index_at(&self, time_ns: f64) -> usize {
        assert!(
            !self.phases.is_empty(),
            "a schedule needs at least one phase"
        );
        let mut start = 0.0f64;
        for (index, phase) in self.phases.iter().enumerate() {
            let end = start + phase.duration_ns;
            if time_ns < end || index + 1 == self.phases.len() {
                return index;
            }
            start = end;
        }
        unreachable!("the final phase catches every time");
    }

    /// Instantaneous injected power of ONI `oni` at absolute `time_ns`, in
    /// mW.
    ///
    /// # Panics
    ///
    /// Panics if `oni` is out of range for the active phase.
    #[must_use]
    pub fn power_at(&self, oni: usize, time_ns: f64) -> f64 {
        let phase = self.phase_index_at(time_ns);
        self.phases[phase].traces[oni].power_at(time_ns - self.phase_start_ns(phase))
    }

    /// Exact time-average of ONI `oni`'s injected power over
    /// `[from_ns, to_ns]`, in mW: the interval is split at phase
    /// boundaries and each segment integrates its own phase's trace in
    /// phase-relative time.  Equal to [`WorkloadSchedule::power_at`] for a
    /// degenerate interval; bit-identical to the trace's own
    /// [`WorkloadTrace::mean_power_mw`] for a single-phase schedule.
    ///
    /// # Panics
    ///
    /// Panics if the interval is inverted (`from_ns > to_ns`) or `oni` is
    /// out of range.
    #[must_use]
    pub fn mean_power_mw(&self, oni: usize, from_ns: f64, to_ns: f64) -> f64 {
        assert!(
            from_ns.partial_cmp(&to_ns) != Some(std::cmp::Ordering::Greater),
            "workload power interval must not be inverted, got [{from_ns}, {to_ns}]"
        );
        let span = to_ns - from_ns;
        if span <= 0.0 {
            return self.power_at(oni, from_ns);
        }
        let first = self.phase_index_at(from_ns);
        let start = self.phase_start_ns(first);
        // The common case — the whole interval inside one phase — delegates
        // straight to the trace so a single-phase schedule reproduces the
        // plain-trace arithmetic bit for bit (the first phase starts at
        // exactly 0.0, and `x - 0.0 == x`).
        if first == self.phase_index_at(to_ns) {
            return self.phases[first].traces[oni].mean_power_mw(from_ns - start, to_ns - start);
        }
        let mut energy_mw_ns = 0.0f64;
        let mut phase_start = start;
        for (index, phase) in self.phases.iter().enumerate().skip(first) {
            let phase_end = if index + 1 == self.phases.len() {
                f64::INFINITY
            } else {
                phase_start + phase.duration_ns
            };
            let seg_from = from_ns.max(phase_start);
            let seg_to = to_ns.min(phase_end);
            if seg_to > seg_from {
                energy_mw_ns += phase.traces[oni]
                    .mean_power_mw(seg_from - phase_start, seg_to - phase_start)
                    * (seg_to - seg_from);
            }
            if phase_end >= to_ns {
                break;
            }
            phase_start = phase_end;
        }
        energy_mw_ns / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase() -> WorkloadSchedule {
        // Phase 0: 100 ns at 10 mW; phase 1 (open-ended): 50 mW with a
        // phase-relative burst of +30 mW over its first 20 ns.
        WorkloadSchedule::new(vec![
            WorkloadPhase::new(100.0, vec![WorkloadTrace::constant(10.0)]),
            WorkloadPhase::new(
                f64::INFINITY,
                vec![WorkloadTrace {
                    baseline_mw: 50.0,
                    burst_mw: 30.0,
                    burst_start_ns: 0.0,
                    burst_stop_ns: 20.0,
                }],
            ),
        ])
    }

    #[test]
    fn phase_lookup_and_starts() {
        let schedule = two_phase();
        assert_eq!(schedule.phase_starts(), vec![0.0, 100.0]);
        assert_eq!(schedule.phase_index_at(0.0), 0);
        assert_eq!(schedule.phase_index_at(99.9), 0);
        assert_eq!(schedule.phase_index_at(100.0), 1);
        assert_eq!(schedule.phase_index_at(1e9), 1);
    }

    #[test]
    fn phase_relative_times_shift_with_the_phase() {
        let schedule = two_phase();
        assert!((schedule.power_at(0, 50.0) - 10.0).abs() < 1e-12);
        // The burst window is relative to phase 1's start at t = 100 ns.
        assert!((schedule.power_at(0, 105.0) - 80.0).abs() < 1e-12);
        assert!((schedule.power_at(0, 125.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn cross_boundary_intervals_integrate_exactly() {
        let schedule = two_phase();
        // [80, 120]: 20 ns at 10 mW + 20 ns at 80 mW = 45 mW average.
        assert!((schedule.mean_power_mw(0, 80.0, 120.0) - 45.0).abs() < 1e-12);
        // Entirely inside one phase, away from the burst.
        assert!((schedule.mean_power_mw(0, 130.0, 200.0) - 50.0).abs() < 1e-12);
        // Degenerate interval falls back to the instantaneous power.
        assert!((schedule.mean_power_mw(0, 110.0, 110.0) - 80.0).abs() < 1e-12);
    }

    #[test]
    fn single_phase_schedule_matches_the_plain_trace_bit_for_bit() {
        let trace = WorkloadTrace {
            baseline_mw: 12.5,
            burst_mw: 87.5,
            burst_start_ns: 40.0,
            burst_stop_ns: 90.0,
        };
        let schedule = WorkloadSchedule::single(vec![trace]);
        for (from, to) in [(0.0, 25.0), (30.0, 95.0), (10.0, 10.0), (85.0, 400.0)] {
            assert_eq!(
                schedule.mean_power_mw(0, from, to).to_bits(),
                trace.mean_power_mw(from, to).to_bits(),
                "[{from}, {to}]"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_intervals_panic() {
        let _ = two_phase().mean_power_mw(0, 50.0, 10.0);
    }

    #[test]
    fn validation_rejects_malformed_schedules() {
        assert!(WorkloadSchedule::new(Vec::new())
            .validate(1)
            .unwrap_err()
            .contains("at least one phase"));
        let zero =
            WorkloadSchedule::new(vec![WorkloadPhase::new(0.0, vec![WorkloadTrace::idle()])]);
        assert!(zero.validate(1).unwrap_err().contains("zero-length"));
        let open_interior = WorkloadSchedule::new(vec![
            WorkloadPhase::new(f64::INFINITY, vec![WorkloadTrace::idle()]),
            WorkloadPhase::new(10.0, vec![WorkloadTrace::idle()]),
        ]);
        assert!(open_interior
            .validate(1)
            .unwrap_err()
            .contains("only the final phase"));
        let miscounted = WorkloadSchedule::single(vec![WorkloadTrace::idle()]);
        assert!(miscounted
            .validate(2)
            .unwrap_err()
            .contains("one trace per ONI"));
        let bad_trace = WorkloadSchedule::single(vec![WorkloadTrace::constant(-5.0)]);
        assert!(bad_trace.validate(1).unwrap_err().contains("baseline"));
        assert!(two_phase().validate(1).is_ok());
    }

    #[test]
    fn migration_and_diurnal_constructors_shape_their_phases() {
        let migration = WorkloadSchedule::migration(8, 500.0, &[1, 5], 200.0, 0.4);
        assert_eq!(migration.phase_count(), 2);
        assert!(migration.validate(8).is_ok());
        // The hot centre moves between the phases.
        assert!(migration.power_at(1, 0.0) > migration.power_at(5, 0.0));
        assert!(migration.power_at(5, 600.0) > migration.power_at(1, 600.0));

        let diurnal = WorkloadSchedule::diurnal(4, 1000.0, &[20.0, 120.0, 60.0]);
        assert_eq!(diurnal.phase_count(), 3);
        assert!(diurnal.validate(4).is_ok());
        assert!((diurnal.mean_power_mw(2, 500.0, 1500.0) - 70.0).abs() < 1e-12);
        // The final level holds past its stated duration.
        assert!((diurnal.power_at(0, 10_000.0) - 60.0).abs() < 1e-12);
    }
}
