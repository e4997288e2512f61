//! Design-time thermal-aware wavelength-grid assignment (GLOW-style).
//!
//! The runtime machinery of this crate fights spectral detuning after the
//! fact: heaters cancel drift ([`ThermalTuner`]), barrel shifting re-maps a
//! whole bank by an integer number of grid slots
//! ([`crate::BankTuningMode::BarrelShift`]).  GLOW (Ding, Yu & Pan) observes
//! that the logical-wavelength → physical-ring mapping is *also* a synthesis
//! degree of freedom: once the per-ring fabrication offsets of a chip
//! instance are known (wafer test) and the expected operating temperature of
//! each ONI is known (the workload heat map), the assignment can be chosen
//! **at design time** so the rings land near their served wavelengths under
//! drift — before any runtime policy spends a microwatt.
//!
//! This module provides
//!
//! * [`WavelengthAssignment`] — a validated permutation mapping each logical
//!   wavelength (grid slot) to the physical ring that serves it, with the
//!   FSR-centred slot offset each mapping implies;
//! * [`AssignmentStrategy`] — greedy assignment, optionally refined by a
//!   seeded pairwise-swap local search;
//! * [`WavelengthAssigner`] — the search itself, driven by the predicted
//!   per-ring heater power of the [`ThermalTuner`] at a target bank state.
//!
//! The assigner is deterministic for a given `(seed, heat map, offsets)`
//! triple and **never returns an assignment worse than identity**: a
//! candidate is accepted only if its predicted total heater power does not
//! exceed the identity mapping's and its worst-ring predicted residual does
//! not grow.  Runtime barrel shifting composes on top — the shift search of
//! [`ThermalTuner::compensate_bank`] runs relative to the assigned mapping,
//! so a chip designed for its hot spot can still hop back when it runs cold.

use onoc_telemetry::{RecorderHandle, TelemetryEvent};

use crate::bank::{fnv1a_seed, fnv1a_u64, BankCompensation, BankTuningMode, RingBankState};
use crate::tuning::ThermalTuner;
use onoc_units::KelvinDelta;

/// A design-time logical-wavelength → physical-ring mapping: entry `j` is
/// the ring serving grid slot `j`.  Always a permutation.
///
/// ```
/// use onoc_thermal::WavelengthAssignment;
///
/// let identity = WavelengthAssignment::identity(4);
/// assert!(identity.is_identity());
/// // A one-slot rotation: ring 3 serves slot 0 (wrapping through the FSR).
/// let rotated = WavelengthAssignment::new(vec![3, 0, 1, 2]).unwrap();
/// assert_eq!(rotated.ring_for_lane(0), 3);
/// assert_eq!(rotated.design_offset(1), 1);
/// assert!(WavelengthAssignment::new(vec![0, 0, 1, 2]).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WavelengthAssignment {
    ring_for_lane: Vec<usize>,
}

impl WavelengthAssignment {
    /// The identity mapping of a `count`-ring bank: every ring serves its
    /// own design slot.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn identity(count: usize) -> Self {
        assert!(count > 0, "an assignment needs at least one wavelength");
        Self {
            ring_for_lane: (0..count).collect(),
        }
    }

    /// Wraps an explicit mapping (entry `j` = ring serving slot `j`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the mapping is empty or not a
    /// permutation of `0..len`.
    pub fn new(ring_for_lane: Vec<usize>) -> Result<Self, String> {
        let candidate = Self { ring_for_lane };
        candidate.validate()?;
        Ok(candidate)
    }

    /// Checks that the mapping is a non-empty permutation.
    ///
    /// # Errors
    ///
    /// Returns a description of the structural problem.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.ring_for_lane.len();
        if n == 0 {
            return Err("a wavelength assignment must cover at least one lane".into());
        }
        let mut seen = vec![false; n];
        for (lane, &ring) in self.ring_for_lane.iter().enumerate() {
            if ring >= n {
                return Err(format!(
                    "lane {lane} is assigned ring {ring}, outside the bank of {n} rings"
                ));
            }
            if seen[ring] {
                return Err(format!(
                    "ring {ring} is assigned to more than one lane; the mapping must be a \
                     permutation"
                ));
            }
            seen[ring] = true;
        }
        Ok(())
    }

    /// Number of wavelengths (= rings) the assignment covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring_for_lane.len()
    }

    /// `true` for an empty mapping (never produced by the constructors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring_for_lane.is_empty()
    }

    /// `true` when every ring serves its own design slot.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.ring_for_lane.iter().enumerate().all(|(j, &r)| j == r)
    }

    /// The physical ring serving grid slot `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn ring_for_lane(&self, lane: usize) -> usize {
        self.ring_for_lane[lane]
    }

    /// The FSR-centred slot offset the mapping imposes on `lane`: how many
    /// grid spacings the serving ring must move (positive = red shift)
    /// relative to its design slot, taking the shorter way around the free
    /// spectral range.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn design_offset(&self, lane: usize) -> i64 {
        fsr_centered_slots(lane, self.ring_for_lane[lane], self.ring_for_lane.len())
    }

    /// A 64-bit fingerprint of the exact mapping (FNV-1a over length and
    /// entries), mixed into `ThermalLinkStack::fingerprint` so memoized
    /// operating points solved under one assignment can never alias another.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash = fnv1a_u64(fnv1a_seed(), self.ring_for_lane.len() as u64);
        for &ring in &self.ring_for_lane {
            hash = fnv1a_u64(hash, ring as u64);
        }
        hash
    }
}

/// The FSR-centred slot offset of `ring` serving `lane` on a `count`-slot
/// grid: the shorter way around the free spectral range, positive = red
/// shift (the single source of the centring rule the assignment, the
/// assigner's cost model and the bank tuner all share).
pub(crate) fn fsr_centered_slots(lane: usize, ring: usize, count: usize) -> i64 {
    let n = count as i64;
    let d = (lane as i64 - ring as i64).rem_euclid(n);
    if 2 * d > n {
        d - n
    } else {
        d
    }
}

/// How the assigner searches the permutation space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AssignmentStrategy {
    /// The cheaper of the best pure rotation and one greedy matching pass
    /// (lanes in grid order, each picking the cheapest still-unassigned
    /// ring, ties to the lowest ring index).
    Greedy,
    /// The greedy result refined by a seeded pairwise-swap local search that
    /// runs until a full pass over the lane pairs finds no improving swap.
    #[default]
    GreedyRefine,
}

/// The design-time assigner: searches logical-wavelength → ring permutations
/// minimising the predicted total heater power of a bank at its target
/// operating state.
///
/// ```
/// use onoc_thermal::{
///     AssignmentStrategy, FabricationVariation, RingBankState, ThermalTuner, WavelengthAssigner,
/// };
/// use onoc_units::KelvinDelta;
///
/// let assigner = WavelengthAssigner {
///     tuner: ThermalTuner::paper_heater(),
///     grid_spacing_nm: 0.8,
///     slope_nm_per_kelvin: 0.1,
///     strategy: AssignmentStrategy::GreedyRefine,
///     seed: 7,
/// };
/// // 60 K above calibration: the assigner bakes a ~7–8 slot rotation in.
/// let state = RingBankState::new(
///     FabricationVariation::new(0.04, 3).offsets_nm(16),
///     KelvinDelta::new(60.0),
/// );
/// let assignment = assigner.assign(&state);
/// assert!(!assignment.is_identity());
/// let assigned = assigner.predicted_compensation(&state, &assignment);
/// let identity = assigner.predicted_compensation(&state, &onoc_thermal::WavelengthAssignment::identity(16));
/// assert!(assigned.total_heater_power().value() < 0.2 * identity.total_heater_power().value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WavelengthAssigner {
    /// Heater/controller model predicting the per-ring tuning cost.
    pub tuner: ThermalTuner,
    /// Grid spacing of the wavelength comb, in nm.
    pub grid_spacing_nm: f64,
    /// Ring drift slope, in nm/K (0 = athermal rings, assignment is moot).
    pub slope_nm_per_kelvin: f64,
    /// Search strategy.
    pub strategy: AssignmentStrategy,
    /// Seed of the refinement pass's pair-visit order.  A given
    /// `(seed, state)` pair always produces the same assignment.
    pub seed: u64,
}

impl WavelengthAssigner {
    /// Checks the spectral parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the grid spacing or drift slope
    /// is negative or not finite.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("grid spacing", self.grid_spacing_nm),
            ("drift slope", self.slope_nm_per_kelvin),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "assigner {name} must be finite and non-negative, got {value}"
                ));
            }
        }
        Ok(())
    }

    /// Predicted per-ring heater power of `ring` serving `lane`, in µW —
    /// the greedy/refinement cost, using the same per-ring excursion
    /// ([`RingBankState::requested_excursion_k`]) the bank tuner fights.
    fn cost(&self, state: &RingBankState, ring: usize, lane: usize) -> f64 {
        let hop = fsr_centered_slots(lane, ring, state.ring_count());
        let requested =
            state.requested_excursion_k(ring, self.slope_nm_per_kelvin, self.grid_spacing_nm, hop);
        self.tuner
            .compensate(KelvinDelta::new(requested))
            .heater_power_per_ring
            .value()
    }

    /// The predicted bank compensation of `assignment` at the target state,
    /// under pure heating (the design-time cost model: runtime barrel
    /// shifting only helps further).
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not cover the bank or the assigner's
    /// parameters are invalid.
    #[must_use]
    pub fn predicted_compensation(
        &self,
        state: &RingBankState,
        assignment: &WavelengthAssignment,
    ) -> BankCompensation {
        self.tuner.compensate_bank_assigned(
            state,
            self.grid_spacing_nm,
            self.slope_nm_per_kelvin,
            BankTuningMode::PureHeater,
            Some(assignment),
        )
    }

    /// Searches an assignment for one bank at its target state.
    ///
    /// Deterministic: the same `(seed, offsets, excursion)` always produces
    /// the same permutation.  Guaranteed never worse than identity — the
    /// candidate is accepted only if its predicted total heater power does
    /// not exceed identity's and its worst-ring predicted residual does not
    /// grow; otherwise the identity mapping is returned.
    ///
    /// # Panics
    ///
    /// Panics if the assigner's parameters are invalid (see
    /// [`WavelengthAssigner::validate`]).
    #[must_use]
    pub fn assign(&self, state: &RingBankState) -> WavelengthAssignment {
        self.assign_traced(state, &RecorderHandle::none())
    }

    /// [`WavelengthAssigner::assign`] with search telemetry: every candidate
    /// evaluation (rotation scan, greedy matching, each refinement pass, the
    /// final never-worse-than-identity guard) emits one
    /// [`TelemetryEvent::AssignmentSearchStep`] carrying the candidate's
    /// predicted heater cost and whether it was adopted.  The returned
    /// assignment is identical to the untraced one.
    ///
    /// # Panics
    ///
    /// Panics if the assigner's parameters are invalid (see
    /// [`WavelengthAssigner::validate`]).
    #[must_use]
    pub fn assign_traced(
        &self,
        state: &RingBankState,
        recorder: &RecorderHandle,
    ) -> WavelengthAssignment {
        if let Err(reason) = self.validate() {
            panic!("invalid wavelength assigner: {reason}");
        }
        let n = state.ring_count();
        let identity = WavelengthAssignment::identity(n);
        // Athermal rings cannot be tuned onto other slots, and a degenerate
        // grid offers no slots to move between: assignment is a no-op.
        if n == 1 || self.slope_nm_per_kelvin == 0.0 || self.grid_spacing_nm == 0.0 {
            return identity;
        }

        // Cost matrix: heater power of ring r serving lane j, in µW.
        let costs: Vec<Vec<f64>> = (0..n)
            .map(|ring| (0..n).map(|lane| self.cost(state, ring, lane)).collect())
            .collect();
        let total = |ring_for_lane: &[usize]| -> f64 {
            ring_for_lane
                .iter()
                .enumerate()
                .map(|(lane, &ring)| costs[ring][lane])
                .sum()
        };

        // Candidate 1 — the best pure rotation (the common-mode answer a
        // barrel shift would also find, here baked in at design time).
        // Rotations are scanned outward from zero so ties land on the
        // smallest |k|.
        let rotation_of = |k: i64| -> Vec<usize> {
            (0..n)
                .map(|lane| {
                    usize::try_from((lane as i64 - k).rem_euclid(n as i64))
                        .expect("rem_euclid of a positive modulus is non-negative")
                })
                .collect()
        };
        let half = n as i64 / 2;
        let mut rotation = rotation_of(0);
        let mut rotation_cost = total(&rotation);
        for magnitude in 1..=half {
            for k in [magnitude, -magnitude] {
                if 2 * k > n as i64 || 2 * k <= -(n as i64) {
                    continue;
                }
                let candidate = rotation_of(k);
                let cost = total(&candidate);
                let accepted = cost < rotation_cost;
                recorder.emit(|| TelemetryEvent::AssignmentSearchStep {
                    stage: "rotation".to_owned(),
                    candidate_cost_uw: cost,
                    accepted,
                    swaps_applied: 0,
                });
                if accepted {
                    rotation = candidate;
                    rotation_cost = cost;
                }
            }
        }

        // Candidate 2 — greedy matching: lanes in grid order, each taking
        // the cheapest ring still available (ties to the lowest ring index).
        // Catches what a rigid rotation cannot (e.g. one far-outlier ring).
        let mut used = vec![false; n];
        let mut greedy = vec![0usize; n];
        for (lane, slot) in greedy.iter_mut().enumerate() {
            let mut best: Option<(f64, usize)> = None;
            for (ring, &taken) in used.iter().enumerate() {
                if taken {
                    continue;
                }
                let c = costs[ring][lane];
                if best.is_none_or(|(cost, _)| c < cost) {
                    best = Some((c, ring));
                }
            }
            let (_, ring) = best.expect("a free ring always remains");
            used[ring] = true;
            *slot = ring;
        }

        // Ties prefer the rotation: its structure is what the runtime
        // barrel-shift search composes with most cheaply.
        let greedy_cost = total(&greedy);
        let greedy_wins = greedy_cost < rotation_cost;
        recorder.emit(|| TelemetryEvent::AssignmentSearchStep {
            stage: "greedy".to_owned(),
            candidate_cost_uw: greedy_cost,
            accepted: greedy_wins,
            swaps_applied: 0,
        });
        let mut ring_for_lane = if greedy_wins { greedy } else { rotation };

        if self.strategy == AssignmentStrategy::GreedyRefine {
            self.refine(&costs, &mut ring_for_lane, recorder);
        }

        let candidate =
            WavelengthAssignment::new(ring_for_lane).expect("greedy output is a permutation");
        let assigned = self.predicted_compensation(state, &candidate);
        let baseline = self.predicted_compensation(state, &identity);
        let never_worse = assigned.total_heater_power().value()
            <= baseline.total_heater_power().value()
            && assigned.worst_residual().abs().nanometers()
                <= baseline.worst_residual().abs().nanometers() + 1e-12;
        recorder.emit(|| TelemetryEvent::AssignmentSearchStep {
            stage: "guard".to_owned(),
            candidate_cost_uw: assigned.total_heater_power().value(),
            accepted: never_worse,
            swaps_applied: 0,
        });
        if never_worse {
            candidate
        } else {
            identity
        }
    }

    /// Pairwise-swap local search: visit lane pairs in a seeded order,
    /// applying every strictly-improving swap, until a full pass finds none
    /// (bounded at 64 passes; each pass only ever lowers the total cost).
    fn refine(&self, costs: &[Vec<f64>], ring_for_lane: &mut [usize], recorder: &RecorderHandle) {
        let n = ring_for_lane.len();
        let mut pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect();
        // Deterministic SplitMix64 Fisher–Yates: the seed fixes the visit
        // order, the visit order fixes the result.
        let mut rng = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            crate::bank::splitmix64_mix(rng)
        };
        for i in (1..pairs.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            pairs.swap(i, j);
        }
        for _ in 0..64 {
            let mut swaps_applied = 0u64;
            for &(a, b) in &pairs {
                let (ra, rb) = (ring_for_lane[a], ring_for_lane[b]);
                let current = costs[ra][a] + costs[rb][b];
                let swapped = costs[rb][a] + costs[ra][b];
                if swapped < current {
                    ring_for_lane[a] = rb;
                    ring_for_lane[b] = ra;
                    swaps_applied += 1;
                }
            }
            recorder.emit(|| TelemetryEvent::AssignmentSearchStep {
                stage: "refine-pass".to_owned(),
                candidate_cost_uw: ring_for_lane
                    .iter()
                    .enumerate()
                    .map(|(lane, &ring)| costs[ring][lane])
                    .sum(),
                accepted: swaps_applied > 0,
                swaps_applied,
            });
            if swaps_applied == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::FabricationVariation;

    fn assigner(strategy: AssignmentStrategy) -> WavelengthAssigner {
        WavelengthAssigner {
            tuner: ThermalTuner::paper_heater(),
            grid_spacing_nm: 0.8,
            slope_nm_per_kelvin: 0.1,
            strategy,
            seed: 7,
        }
    }

    #[test]
    fn identity_construction_and_offsets() {
        let a = WavelengthAssignment::identity(8);
        assert_eq!(a.len(), 8);
        assert!(a.is_identity());
        assert!(!a.is_empty());
        for lane in 0..8 {
            assert_eq!(a.ring_for_lane(lane), lane);
            assert_eq!(a.design_offset(lane), 0);
        }
    }

    #[test]
    fn rotations_take_the_short_way_round_the_fsr() {
        // Ring (j − 1) mod 4 serves lane j: every ring moves +1 slot.
        let a = WavelengthAssignment::new(vec![3, 0, 1, 2]).unwrap();
        for lane in 0..4 {
            assert_eq!(a.design_offset(lane), 1, "lane {lane}");
        }
        // The inverse rotation moves −1, not +3.
        let b = WavelengthAssignment::new(vec![1, 2, 3, 0]).unwrap();
        for lane in 0..4 {
            assert_eq!(b.design_offset(lane), -1, "lane {lane}");
        }
    }

    #[test]
    fn invalid_mappings_are_rejected() {
        assert!(WavelengthAssignment::new(vec![]).is_err());
        assert!(WavelengthAssignment::new(vec![0, 0]).is_err());
        assert!(WavelengthAssignment::new(vec![0, 5]).is_err());
        assert!(WavelengthAssignment::new(vec![1, 0]).is_ok());
    }

    #[test]
    fn fingerprints_separate_distinct_assignments() {
        let a = WavelengthAssignment::identity(16);
        let b =
            WavelengthAssignment::new(vec![15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14])
                .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            WavelengthAssignment::identity(16).fingerprint()
        );
        assert_ne!(
            WavelengthAssignment::identity(8).fingerprint(),
            WavelengthAssignment::identity(16).fingerprint()
        );
    }

    #[test]
    fn cold_uniform_bank_keeps_the_identity() {
        let state = RingBankState::aligned(16);
        for strategy in [AssignmentStrategy::Greedy, AssignmentStrategy::GreedyRefine] {
            assert!(assigner(strategy).assign(&state).is_identity());
        }
    }

    #[test]
    fn hot_bank_bakes_the_rotation_in() {
        // 60 K = 6 nm = 7.5 grid spacings: the assigned rings sit 7–8 slots
        // behind their lanes, leaving only a sub-spacing residual.
        let state = RingBankState::new(vec![0.0; 16], KelvinDelta::new(60.0));
        let assignment = assigner(AssignmentStrategy::Greedy).assign(&state);
        assert!(!assignment.is_identity());
        for lane in 0..16 {
            let offset = assignment.design_offset(lane);
            assert!(offset == 7 || offset == 8, "lane {lane}: offset {offset}");
        }
        let a = assigner(AssignmentStrategy::Greedy);
        let assigned = a.predicted_compensation(&state, &assignment);
        let identity = a.predicted_compensation(&state, &WavelengthAssignment::identity(16));
        assert!(
            assigned.total_heater_power().value() < 0.2 * identity.total_heater_power().value()
        );
    }

    #[test]
    fn assignment_is_deterministic_per_seed() {
        let state = RingBankState::new(
            FabricationVariation::new(0.08, 11).offsets_nm(16),
            KelvinDelta::new(44.0),
        );
        for strategy in [AssignmentStrategy::Greedy, AssignmentStrategy::GreedyRefine] {
            let a = assigner(strategy).assign(&state);
            let b = assigner(strategy).assign(&state);
            assert_eq!(a, b, "{strategy:?}");
        }
    }

    #[test]
    fn refinement_never_costs_more_than_greedy() {
        for seed in 0..6u64 {
            for dt in [0.0, 12.0, 31.0, 60.0] {
                let state = RingBankState::new(
                    FabricationVariation::new(0.08, seed).offsets_nm(16),
                    KelvinDelta::new(dt),
                );
                let greedy = assigner(AssignmentStrategy::Greedy);
                let refined = assigner(AssignmentStrategy::GreedyRefine);
                let g = greedy.predicted_compensation(&state, &greedy.assign(&state));
                let r = refined.predicted_compensation(&state, &refined.assign(&state));
                assert!(
                    r.total_heater_power().value() <= g.total_heater_power().value() + 1e-9,
                    "seed {seed}, ΔT {dt}"
                );
            }
        }
    }

    #[test]
    fn never_worse_than_identity_guard_holds() {
        for seed in 0..8u64 {
            for dt in [-24.0, 0.0, 3.9, 44.0, 85.0] {
                let state = RingBankState::new(
                    FabricationVariation::new(0.06, seed).offsets_nm(16),
                    KelvinDelta::new(dt),
                );
                let a = assigner(AssignmentStrategy::GreedyRefine);
                let assignment = a.assign(&state);
                let assigned = a.predicted_compensation(&state, &assignment);
                let identity =
                    a.predicted_compensation(&state, &WavelengthAssignment::identity(16));
                assert!(
                    assigned.total_heater_power().value() <= identity.total_heater_power().value(),
                    "seed {seed}, ΔT {dt}"
                );
                assert!(
                    assigned.worst_residual().abs().nanometers()
                        <= identity.worst_residual().abs().nanometers() + 1e-12,
                    "seed {seed}, ΔT {dt}"
                );
            }
        }
    }

    #[test]
    fn athermal_or_gridless_banks_stay_on_identity() {
        let state = RingBankState::new(vec![0.05, -0.03], KelvinDelta::new(40.0));
        let mut a = assigner(AssignmentStrategy::GreedyRefine);
        a.slope_nm_per_kelvin = 0.0;
        assert!(a.assign(&state).is_identity());
        let mut b = assigner(AssignmentStrategy::GreedyRefine);
        b.grid_spacing_nm = 0.0;
        assert!(b.assign(&state).is_identity());
    }

    #[test]
    fn invalid_assigner_parameters_are_rejected() {
        let mut a = assigner(AssignmentStrategy::Greedy);
        a.grid_spacing_nm = f64::NAN;
        assert!(a.validate().unwrap_err().contains("grid spacing"));
        let mut b = assigner(AssignmentStrategy::Greedy);
        b.slope_nm_per_kelvin = -0.1;
        assert!(b.validate().unwrap_err().contains("drift slope"));
    }

    #[test]
    fn fleet_assignment_is_per_bank() {
        let cold = RingBankState::aligned(16);
        let hot = RingBankState::new(vec![0.0; 16], KelvinDelta::new(60.0));
        let a = assigner(AssignmentStrategy::Greedy);
        assert!(a.assign(&cold).is_identity());
        assert!(!a.assign(&hot).is_identity());
    }
}
