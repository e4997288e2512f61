//! Per-ring spectral state of a micro-ring bank.
//!
//! The per-bank model of [`crate::RingThermalModel`] assumes every ring of a
//! lane detunes identically — one scalar [`ResonanceDrift`] for the whole
//! bank.  Real MWSR banks are not that tidy: each ring carries its own
//! **fabrication offset** (waveguide-width and thickness variation moves the
//! as-built resonance by tens of picometres, σ ≈ 10–100 pm for silicon
//! photonics) on top of the common-mode thermal drift.  The worst ring sets
//! the BER of the whole channel, and — crucially — the per-ring freedom opens
//! a tuning policy the per-bank model cannot express: **barrel shifting**
//! (channel hopping).  When the common-mode drift approaches a multiple of
//! the grid spacing, re-mapping logical wavelength `j` to physical ring
//! `j − k` (wrapping through the free spectral range) leaves only the
//! *residual* `drift − k·spacing + offsetᵢ` for the heaters to fight,
//! instead of the full excursion.
//!
//! This module provides the state ([`RingBankState`]), the deterministic
//! fabrication sampler ([`FabricationVariation`]) and the bank-level tuning
//! machinery ([`BankTuningMode`], [`BankCompensation`],
//! [`ThermalTuner::compensate_bank`]).  Everything is expressed in
//! temperature-equivalent or spectral units only, so the photonic
//! consequences stay in `onoc-photonics`.

use onoc_units::{KelvinDelta, Microwatts};

use crate::assign::WavelengthAssignment;
use crate::drift::ResonanceDrift;
use crate::tuning::ThermalTuner;

/// Deterministic per-ring fabrication variation: resonance offsets sampled
/// from a seeded Gaussian of standard deviation `sigma_nm`.
///
/// The sampler is a fixed SplitMix64 + Box–Muller pipeline, so a given
/// `(sigma, seed, ring count)` triple always produces the same offsets —
/// variation is a *property of a chip instance*, not a per-query random
/// draw.  A σ of zero yields exactly-zero offsets (no rounding noise), which
/// is what makes the per-ring pipeline degenerate bit-identically to the
/// per-bank model.
///
/// ```
/// use onoc_thermal::FabricationVariation;
///
/// let chip = FabricationVariation::new(0.04, 7);
/// let offsets = chip.offsets_nm(16);
/// assert_eq!(offsets, chip.offsets_nm(16)); // deterministic
/// assert!(offsets.iter().any(|o| o.abs() > 1e-3)); // actually varied
/// assert!(FabricationVariation::none().offsets_nm(16).iter().all(|&o| o == 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricationVariation {
    /// Standard deviation of the per-ring resonance offset, in nanometres.
    pub sigma_nm: f64,
    /// Seed identifying the chip instance.
    pub seed: u64,
}

impl FabricationVariation {
    /// Creates a variation model.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_nm` is negative or not finite.
    #[must_use]
    pub fn new(sigma_nm: f64, seed: u64) -> Self {
        let v = Self { sigma_nm, seed };
        if let Err(reason) = v.validate() {
            panic!("{reason}");
        }
        v
    }

    /// The perfectly uniform chip: every ring lands exactly on its design
    /// resonance.
    #[must_use]
    pub fn none() -> Self {
        Self {
            sigma_nm: 0.0,
            seed: 0,
        }
    }

    /// `true` when the variation is exactly zero.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.sigma_nm == 0.0
    }

    /// Checks the parameters, returning a human-readable reason when the
    /// standard deviation is negative or not finite.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending parameter.
    pub fn validate(self) -> Result<(), String> {
        if self.sigma_nm.is_finite() && self.sigma_nm >= 0.0 {
            Ok(())
        } else {
            Err(format!(
                "fabrication sigma must be finite and non-negative, got {} nm",
                self.sigma_nm
            ))
        }
    }

    /// Deterministic per-ring offsets for a bank of `count` rings, in nm.
    #[must_use]
    pub fn offsets_nm(self, count: usize) -> Vec<f64> {
        if self.sigma_nm == 0.0 {
            return vec![0.0; count];
        }
        let mut state = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        let mut unit = move || {
            // SplitMix64, then 53 mantissa bits in (0, 1].
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = splitmix64_mix(state);
            ((z >> 11) as f64 + 1.0) * (1.0 / (1u64 << 53) as f64)
        };
        (0..count)
            .map(|_| {
                // Box–Muller; u1 ∈ (0, 1] keeps the log finite.
                let u1 = unit();
                let u2 = unit();
                let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                self.sigma_nm * normal
            })
            .collect()
    }
}

impl Default for FabricationVariation {
    fn default() -> Self {
        Self::none()
    }
}

/// The spectral state of one ring bank: a per-ring fabrication offset plus
/// the common-mode thermal excursion the whole bank currently sees.
///
/// The thermal part is kept in temperature units (not nanometres) so that a
/// zero-variation bank reproduces the per-bank arithmetic *exactly* — no
/// nm ↔ K round trip is ever taken for the common-mode term.
#[derive(Debug, Clone, PartialEq)]
pub struct RingBankState {
    fabrication_nm: Vec<f64>,
    thermal: KelvinDelta,
}

impl RingBankState {
    /// Creates a bank state from per-ring fabrication offsets and the
    /// common-mode thermal excursion.
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty or any offset is not finite.
    #[must_use]
    pub fn new(fabrication_nm: Vec<f64>, thermal: KelvinDelta) -> Self {
        assert!(!fabrication_nm.is_empty(), "a ring bank needs rings");
        assert!(
            fabrication_nm.iter().all(|o| o.is_finite()),
            "fabrication offsets must be finite"
        );
        Self {
            fabrication_nm,
            thermal,
        }
    }

    /// A perfectly aligned bank of `count` rings at zero excursion.
    #[must_use]
    pub fn aligned(count: usize) -> Self {
        Self::new(vec![0.0; count], KelvinDelta::zero())
    }

    /// Number of rings (one per wavelength index of the lane).
    #[must_use]
    pub fn ring_count(&self) -> usize {
        self.fabrication_nm.len()
    }

    /// Fabrication offset of ring `index`, in nm.
    #[must_use]
    pub fn fabrication_nm(&self, index: usize) -> f64 {
        self.fabrication_nm[index]
    }

    /// The common-mode thermal excursion from the calibration point.
    #[must_use]
    pub fn thermal_excursion(&self) -> KelvinDelta {
        self.thermal
    }

    /// Free-running spectral detuning of ring `index` under a drift slope of
    /// `slope_nm_per_kelvin`, in nm: fabrication offset plus thermal drift.
    #[must_use]
    pub fn detuning_nm(&self, index: usize, slope_nm_per_kelvin: f64) -> f64 {
        self.fabrication_nm[index] + slope_nm_per_kelvin * self.thermal.value()
    }

    /// Requested heater excursion, in kelvin, of ring `ring` serving a grid
    /// slot `hop_slots` spacings red of its design slot (0 = its own slot):
    /// the quantity the per-ring lock loop must fight, shared by
    /// [`ThermalTuner::compensate_bank`]'s per-ring loops and the
    /// design-time assigner's cost model.  With zero fabrication offset and
    /// zero hop this is *exactly* the bank's thermal excursion — no nm ↔ K
    /// round trip — which is what keeps the σ = 0 pipeline bit-identical to
    /// the per-bank scalar model.
    ///
    /// # Panics
    ///
    /// Panics if `slope_nm_per_kelvin` is not positive: an athermal ring
    /// (slope = 0) has no temperature-equivalent of a spectral offset, so
    /// the callers that support slope = 0 (the bank tuner, the assigner)
    /// must take their heaters-off / identity early exits first.
    #[must_use]
    pub fn requested_excursion_k(
        &self,
        ring: usize,
        slope_nm_per_kelvin: f64,
        grid_spacing_nm: f64,
        hop_slots: i64,
    ) -> f64 {
        assert!(
            slope_nm_per_kelvin > 0.0,
            "a heater excursion is only defined for a positive drift slope"
        );
        let mut requested = self.thermal.value();
        let fab = self.fabrication_nm[ring];
        if fab != 0.0 {
            requested += fab / slope_nm_per_kelvin;
        }
        if hop_slots != 0 {
            requested -= grid_spacing_nm / slope_nm_per_kelvin * hop_slots as f64;
        }
        requested
    }

    /// The worst (largest-magnitude, signed) free-running detuning across
    /// the bank.
    #[must_use]
    pub fn worst_detuning_nm(&self, slope_nm_per_kelvin: f64) -> f64 {
        (0..self.ring_count())
            .map(|i| self.detuning_nm(i, slope_nm_per_kelvin))
            .fold(
                0.0,
                |worst, d| if d.abs() > worst.abs() { d } else { worst },
            )
    }

    /// `true` when every ring shares the same fabrication offset (the state
    /// is per-bank-scalar in disguise and the uniform fast path applies).
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        self.fabrication_nm
            .windows(2)
            .all(|w| w[0].to_bits() == w[1].to_bits())
    }

    /// A 64-bit fingerprint of the exact spectral state (FNV-1a over the
    /// IEEE-754 bits of every offset and the excursion).  Two states with
    /// different offsets — even by one ULP — fingerprint differently.
    ///
    /// This identifies a concrete bank state (diagnostics, deduplication);
    /// the memoized operating-point cache keys on the *stack-level*
    /// fingerprint (`ThermalLinkStack::fingerprint` in `onoc-photonics`,
    /// built from the same [`fnv1a_seed`]/[`fnv1a_u64`] helpers), which
    /// covers the variation parameters this state is generated from.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash = fnv1a_seed();
        for offset in &self.fabrication_nm {
            hash = fnv1a_u64(hash, offset.to_bits());
        }
        fnv1a_u64(hash, self.thermal.value().to_bits())
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The FNV-1a offset basis: the seed of a [`fnv1a_u64`] chain.
#[must_use]
pub fn fnv1a_seed() -> u64 {
    FNV_OFFSET
}

/// Mixes the bytes of `value` into an FNV-1a `hash` (the fingerprinting
/// primitive shared by [`RingBankState::fingerprint`] and the stack-level
/// fingerprint of `onoc-photonics`).
#[must_use]
pub fn fnv1a_u64(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The SplitMix64 finalizer: scrambles `state` into a well-distributed
/// 64-bit value.  The single source of the mixing constants shared by the
/// fabrication sampler, the assigner's refinement shuffle and the
/// simulator's per-ONI seed derivations.
#[must_use]
pub fn splitmix64_mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a bank spends its per-ring freedom when it decides to tune.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BankTuningMode {
    /// Every ring heats its own full offset back to its design resonance
    /// (the per-bank behaviour, applied ring by ring).
    #[default]
    PureHeater,
    /// Channel hopping (cf. Cooling Codes / GLOW): re-map logical wavelength
    /// `j` to physical ring `j − k` — wrapping through the free spectral
    /// range — for the barrel shift `k` that minimises total heater power,
    /// then heat only the residual `offsetᵢ + drift − k·spacing`.
    BarrelShift {
        /// Largest shift magnitude considered (at most `rings − 1` is ever
        /// useful on an FSR-periodic bank).
        max_shift: usize,
    },
}

impl BankTuningMode {
    /// The barrel-shift mode with the full shift range of an `N`-ring bank.
    #[must_use]
    pub fn full_barrel_shift(ring_count: usize) -> Self {
        Self::BarrelShift {
            max_shift: ring_count.saturating_sub(1).max(1),
        }
    }

    /// Checks the mode's parameters.
    ///
    /// # Errors
    ///
    /// Returns a reason when a barrel-shift window is zero.
    pub fn validate(self) -> Result<(), String> {
        match self {
            Self::PureHeater => Ok(()),
            Self::BarrelShift { max_shift } => {
                if max_shift >= 1 {
                    Ok(())
                } else {
                    Err("barrel-shift window must allow at least one ring of shift".into())
                }
            }
        }
    }
}

/// Outcome of tuning a whole bank: the barrel shift applied, plus the
/// per-ring residual detuning and heater power.
#[derive(Debug, Clone, PartialEq)]
pub struct BankCompensation {
    /// Rings of barrel shift applied (0 for pure heater / tolerate).
    pub shift: i64,
    /// Residual spectral detuning after shifting and heating, in nm,
    /// indexed by **logical wavelength**: entry `j` is what the channel at
    /// grid slot `j` sees from the ring now serving it (ring `j − shift`,
    /// wrapping through the FSR).
    pub residual_nm: Vec<f64>,
    /// Per-ring heater power.
    pub heater_power_per_ring: Vec<Microwatts>,
}

impl BankCompensation {
    /// The zero-cost, zero-effect compensation of heaters that stay off:
    /// every ring keeps its free-running detuning.
    #[must_use]
    pub fn off(state: &RingBankState, slope_nm_per_kelvin: f64) -> Self {
        Self::off_assigned(state, 0.0, slope_nm_per_kelvin, None)
    }

    /// [`BankCompensation::off`] under a design-time wavelength assignment:
    /// the heaters stay off, but each ring serves its *assigned* grid slot,
    /// so entry `j` of the residual is the free-running detuning of ring
    /// `assignment.ring_for_lane(j)` measured against slot `j` (the
    /// FSR-centred slot offset times `grid_spacing_nm` is subtracted).  With
    /// no assignment (or the identity) this is bit-identical to
    /// [`BankCompensation::off`].
    #[must_use]
    pub fn off_assigned(
        state: &RingBankState,
        grid_spacing_nm: f64,
        slope_nm_per_kelvin: f64,
        assignment: Option<&WavelengthAssignment>,
    ) -> Self {
        if let Some(assignment) = assignment {
            assert_eq!(
                assignment.len(),
                state.ring_count(),
                "the assignment must cover every ring of the bank"
            );
        }
        let residual_nm = (0..state.ring_count())
            .map(|lane| {
                let ring = assignment.map_or(lane, |a| a.ring_for_lane(lane));
                let hop = assignment.map_or(0, |a| a.design_offset(lane));
                let mut residual = state.detuning_nm(ring, slope_nm_per_kelvin);
                if hop != 0 {
                    residual -= grid_spacing_nm * hop as f64;
                }
                residual
            })
            .collect();
        Self {
            shift: 0,
            residual_nm,
            heater_power_per_ring: vec![Microwatts::zero(); state.ring_count()],
        }
    }

    /// Total heater power across the bank.
    #[must_use]
    pub fn total_heater_power(&self) -> Microwatts {
        Microwatts::new(
            self.heater_power_per_ring
                .iter()
                .map(|p| p.value())
                .sum::<f64>(),
        )
    }

    /// Mean heater power per ring (what a per-lane power report charges for
    /// each of the lane's rings).  A uniform bank returns its common value
    /// exactly — no summation rounding — so the σ = 0 pipeline stays
    /// bit-identical to the per-bank scalar model.
    #[must_use]
    pub fn mean_heater_power_per_ring(&self) -> Microwatts {
        let Some(first) = self.heater_power_per_ring.first() else {
            return Microwatts::zero();
        };
        if self
            .heater_power_per_ring
            .iter()
            .all(|p| p.value().to_bits() == first.value().to_bits())
        {
            return *first;
        }
        Microwatts::new(self.total_heater_power().value() / self.heater_power_per_ring.len() as f64)
    }

    /// The worst (largest-magnitude, signed) residual detuning, as a drift.
    #[must_use]
    pub fn worst_residual(&self) -> ResonanceDrift {
        ResonanceDrift::new(self.residual_nm.iter().fold(0.0, |worst: f64, &r| {
            if r.abs() > worst.abs() {
                r
            } else {
                worst
            }
        }))
    }

    /// Logical wavelength index with the largest residual magnitude.
    #[must_use]
    pub fn worst_ring(&self) -> usize {
        self.residual_nm
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.abs().partial_cmp(&b.abs()).expect("residuals are finite"))
            .map_or(0, |(i, _)| i)
    }

    /// `Some(residual)` when every ring shares bit-identically the same
    /// residual (the uniform fast path of the photonic layer applies).
    #[must_use]
    pub fn uniform_residual_nm(&self) -> Option<f64> {
        let first = *self.residual_nm.first()?;
        self.residual_nm
            .iter()
            .all(|r| r.to_bits() == first.to_bits())
            .then_some(first)
    }
}

impl ThermalTuner {
    /// Tunes a whole bank under `mode`: optionally barrel-shift the
    /// wavelength assignment, then run each ring's heater loop against its
    /// residual offset.
    ///
    /// Offsets are converted to temperature-equivalents through
    /// `slope_nm_per_kelvin` so the per-ring loops reuse the scalar
    /// [`ThermalTuner::compensate`] model (lock error, saturation).  For a
    /// uniform bank (σ = 0) under [`BankTuningMode::PureHeater`] every ring
    /// sees exactly the bank's thermal excursion and the result is
    /// bit-identical to the per-bank scalar pipeline.
    ///
    /// A zero `slope_nm_per_kelvin` means the rings are athermal *and* the
    /// heaters cannot move them: the compensation degenerates to
    /// [`BankCompensation::off`].
    #[must_use]
    pub fn compensate_bank(
        &self,
        state: &RingBankState,
        grid_spacing_nm: f64,
        slope_nm_per_kelvin: f64,
        mode: BankTuningMode,
    ) -> BankCompensation {
        self.compensate_bank_assigned(state, grid_spacing_nm, slope_nm_per_kelvin, mode, None)
    }

    /// [`ThermalTuner::compensate_bank`] under a design-time
    /// [`WavelengthAssignment`]: ring `assignment.ring_for_lane(j)` serves
    /// grid slot `j`, so each ring's heater fights the residual left after
    /// its FSR-centred design offset *and* any runtime barrel shift — the
    /// two mechanisms compose additively (a chip assigned for its hot spot
    /// can hop back when it runs cold).  `None` (or the identity assignment)
    /// is bit-identical to the unassigned pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the spectral parameters are invalid or the assignment does
    /// not cover every ring of the bank.
    #[must_use]
    pub fn compensate_bank_assigned(
        &self,
        state: &RingBankState,
        grid_spacing_nm: f64,
        slope_nm_per_kelvin: f64,
        mode: BankTuningMode,
        assignment: Option<&WavelengthAssignment>,
    ) -> BankCompensation {
        assert!(
            grid_spacing_nm.is_finite() && grid_spacing_nm >= 0.0,
            "grid spacing must be finite and non-negative"
        );
        assert!(
            slope_nm_per_kelvin.is_finite() && slope_nm_per_kelvin >= 0.0,
            "drift slope must be finite and non-negative"
        );
        if let Some(assignment) = assignment {
            assert_eq!(
                assignment.len(),
                state.ring_count(),
                "the assignment must cover every ring of the bank"
            );
        }
        if slope_nm_per_kelvin == 0.0 {
            return BankCompensation::off_assigned(
                state,
                grid_spacing_nm,
                slope_nm_per_kelvin,
                assignment,
            );
        }
        let shifts: Vec<i64> = match mode {
            BankTuningMode::PureHeater => vec![0],
            BankTuningMode::BarrelShift { max_shift } => {
                // Shifting by more than the bank wraps onto itself; shifting
                // at all is pointless without a grid to hop along.
                let window = if grid_spacing_nm == 0.0 {
                    0
                } else {
                    max_shift.min(state.ring_count().saturating_sub(1))
                };
                let window = i64::try_from(window).unwrap_or(i64::MAX);
                (-window..=window).collect()
            }
        };
        let mut best: Option<BankCompensation> = None;
        for shift in shifts {
            let candidate = self.heat_bank(
                state,
                grid_spacing_nm,
                slope_nm_per_kelvin,
                shift,
                assignment,
            );
            let better = best.as_ref().is_none_or(|b| {
                let (cand, incumbent) = (
                    candidate.total_heater_power().value(),
                    b.total_heater_power().value(),
                );
                // Strictly-less keeps ties on the smaller |shift| (0 first).
                cand < incumbent || (cand == incumbent && shift.abs() < b.shift.abs())
            });
            if better {
                best = Some(candidate);
            }
        }
        best.expect("at least the zero shift is always evaluated")
    }

    /// Heats every ring of `state` against its residual offset after its
    /// design-time slot offset plus a barrel shift of `shift` rings, and
    /// reports the outcome **indexed by logical wavelength**: the ring
    /// serving base slot `j` (ring `j` unassigned, `assignment
    /// .ring_for_lane(j)` otherwise) ends up serving slot `j + shift`
    /// (wrapping through the FSR), where its residual and heater power land.
    fn heat_bank(
        &self,
        state: &RingBankState,
        grid_spacing_nm: f64,
        slope_nm_per_kelvin: f64,
        shift: i64,
        assignment: Option<&WavelengthAssignment>,
    ) -> BankCompensation {
        let n = state.ring_count();
        let mut residual_nm = vec![0.0; n];
        let mut heater_power_per_ring = vec![Microwatts::zero(); n];
        for base in 0..n {
            let ring = assignment.map_or(base, |a| a.ring_for_lane(base));
            // Total slots hopped: the assignment's FSR-centred design offset
            // plus the runtime barrel shift.
            let hop_slots = assignment.map_or(0, |a| a.design_offset(base)) + shift;
            let requested =
                state.requested_excursion_k(ring, slope_nm_per_kelvin, grid_spacing_nm, hop_slots);
            let compensation = self.compensate(KelvinDelta::new(requested));
            let lane = usize::try_from((base as i64 + shift).rem_euclid(n as i64))
                .expect("rem_euclid of a positive modulus is non-negative");
            residual_nm[lane] = slope_nm_per_kelvin * compensation.residual.value();
            heater_power_per_ring[lane] = compensation.heater_power_per_ring;
        }
        BankCompensation {
            shift,
            residual_nm,
            heater_power_per_ring,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_slope() -> f64 {
        0.1
    }

    #[test]
    fn zero_sigma_offsets_are_exactly_zero() {
        let offsets = FabricationVariation::none().offsets_nm(16);
        assert!(offsets.iter().all(|&o| o == 0.0));
        assert!(FabricationVariation::none().is_none());
    }

    #[test]
    fn offsets_are_deterministic_and_seed_sensitive() {
        let a = FabricationVariation::new(0.04, 1).offsets_nm(16);
        let b = FabricationVariation::new(0.04, 1).offsets_nm(16);
        let c = FabricationVariation::new(0.04, 2).offsets_nm(16);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|o| o.is_finite()));
    }

    #[test]
    fn offset_statistics_match_sigma() {
        let sigma = 0.05;
        let offsets = FabricationVariation::new(sigma, 42).offsets_nm(4096);
        let mean = offsets.iter().sum::<f64>() / offsets.len() as f64;
        let var = offsets.iter().map(|o| (o - mean).powi(2)).sum::<f64>() / offsets.len() as f64;
        assert!(mean.abs() < 0.1 * sigma, "mean = {mean}");
        assert!(
            (var.sqrt() - sigma).abs() < 0.1 * sigma,
            "sd = {}",
            var.sqrt()
        );
    }

    #[test]
    fn invalid_sigma_is_rejected() {
        assert!(FabricationVariation {
            sigma_nm: -0.01,
            seed: 0
        }
        .validate()
        .is_err());
        assert!(FabricationVariation {
            sigma_nm: f64::NAN,
            seed: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn constructor_panics_on_negative_sigma() {
        let _ = FabricationVariation::new(-1.0, 0);
    }

    #[test]
    fn aligned_bank_is_uniform_with_zero_detuning() {
        let bank = RingBankState::aligned(16);
        assert!(bank.is_uniform());
        assert_eq!(bank.worst_detuning_nm(paper_slope()), 0.0);
        assert_eq!(bank.ring_count(), 16);
    }

    #[test]
    fn detuning_combines_fabrication_and_thermal_parts() {
        let bank = RingBankState::new(vec![0.02, -0.03], KelvinDelta::new(10.0));
        assert!((bank.detuning_nm(0, paper_slope()) - 1.02).abs() < 1e-12);
        assert!((bank.detuning_nm(1, paper_slope()) - 0.97).abs() < 1e-12);
        assert!((bank.worst_detuning_nm(paper_slope()) - 1.02).abs() < 1e-12);
        assert!(!bank.is_uniform());
    }

    #[test]
    fn fingerprints_separate_distinct_states() {
        let a = RingBankState::new(vec![0.0, 0.01], KelvinDelta::zero());
        let b = RingBankState::new(vec![0.0, 0.02], KelvinDelta::zero());
        let c = RingBankState::new(vec![0.0, 0.01], KelvinDelta::new(5.0));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn pure_heater_bank_matches_the_scalar_tuner_at_sigma_zero() {
        let tuner = ThermalTuner::paper_heater();
        for dt in [0.0, 0.02, 5.0, 30.0, 60.0, -40.0] {
            let bank = RingBankState::new(vec![0.0; 16], KelvinDelta::new(dt));
            let c = tuner.compensate_bank(&bank, 0.8, paper_slope(), BankTuningMode::PureHeater);
            let scalar = tuner.compensate(KelvinDelta::new(dt));
            assert_eq!(c.shift, 0);
            let expected_nm = paper_slope() * scalar.residual.value();
            for i in 0..16 {
                assert_eq!(c.residual_nm[i].to_bits(), expected_nm.to_bits(), "ΔT {dt}");
                assert_eq!(c.heater_power_per_ring[i], scalar.heater_power_per_ring);
            }
            assert_eq!(c.mean_heater_power_per_ring(), scalar.heater_power_per_ring);
            assert_eq!(c.uniform_residual_nm(), Some(expected_nm));
        }
    }

    #[test]
    fn barrel_shift_hops_to_the_nearest_grid_multiple() {
        let tuner = ThermalTuner::paper_heater();
        // 32 K ≈ 3.2 nm of drift on a 0.8 nm grid: a 4-ring hop leaves zero.
        let bank = RingBankState::new(vec![0.0; 16], KelvinDelta::new(32.0));
        let c = tuner.compensate_bank(
            &bank,
            0.8,
            paper_slope(),
            BankTuningMode::full_barrel_shift(16),
        );
        assert_eq!(c.shift, 4);
        let pure = tuner.compensate_bank(&bank, 0.8, paper_slope(), BankTuningMode::PureHeater);
        assert!(c.total_heater_power().value() < 0.2 * pure.total_heater_power().value());
        assert!(c.worst_residual().abs().nanometers() < 0.05);
    }

    #[test]
    fn barrel_shift_never_beats_pure_heater_on_residual_but_always_on_power() {
        let tuner = ThermalTuner::paper_heater();
        for seed in 0..8u64 {
            for dt in [0.0, 7.5, 20.0, 44.0, 60.0] {
                let bank = RingBankState::new(
                    FabricationVariation::new(0.04, seed).offsets_nm(16),
                    KelvinDelta::new(dt),
                );
                let pure =
                    tuner.compensate_bank(&bank, 0.8, paper_slope(), BankTuningMode::PureHeater);
                let barrel = tuner.compensate_bank(
                    &bank,
                    0.8,
                    paper_slope(),
                    BankTuningMode::full_barrel_shift(16),
                );
                assert!(
                    barrel.total_heater_power().value()
                        <= pure.total_heater_power().value() + 1e-12,
                    "seed {seed}, ΔT {dt}"
                );
            }
        }
    }

    #[test]
    fn barrel_shift_residuals_are_indexed_by_logical_wavelength() {
        // One marked ring (index 0, +0.05 nm off grid), drift of exactly one
        // grid spacing (8 K × 0.1 nm/K = 0.8 nm): the bank hops k = 1, so
        // ring 0 now serves logical wavelength 1 and its fabrication
        // leftover must appear at slot 1, not slot 0.
        let tuner = ThermalTuner::new(
            Microwatts::new(12.0),
            Microwatts::new(1800.0),
            0.0,
            KelvinDelta::zero(), // ideal lock: residual = exactly the request leftover
        );
        let mut fab = vec![0.0; 16];
        fab[0] = 0.05;
        let bank = RingBankState::new(fab, KelvinDelta::new(8.0));
        let c = tuner.compensate_bank(
            &bank,
            0.8,
            paper_slope(),
            BankTuningMode::full_barrel_shift(16),
        );
        assert_eq!(c.shift, 1);
        // An ideal lock heats everything out: every lane's residual is 0,
        // but the heater *power* of the marked ring rides along to slot 1.
        assert!(c.residual_nm.iter().all(|r| r.abs() < 1e-12));
        let idle = c.heater_power_per_ring[2].value();
        assert!(
            c.heater_power_per_ring[1].value() > idle + 1.0,
            "ring 0's extra heat must land at logical slot 1: {:?}",
            c.heater_power_per_ring
        );
        assert!((c.heater_power_per_ring[0].value() - idle).abs() < 1e-9);

        // With a saturating heater the marked ring's *residual* also lands
        // at slot 1 (wrapping: ring 15's residual lands at slot 0).
        let saturating = ThermalTuner::new(
            Microwatts::new(12.0),
            Microwatts::zero(), // heaters present but unable to act
            0.0,
            KelvinDelta::zero(),
        );
        let mut fab = vec![0.0; 4];
        fab[0] = 0.05;
        fab[3] = -0.02;
        let bank = RingBankState::new(fab, KelvinDelta::zero());
        let c = saturating.heat_bank(&bank, 0.8, paper_slope(), 1, None);
        assert!((c.residual_nm[1] - (0.05 - 0.8)).abs() < 1e-12, "{c:?}");
        assert!(
            (c.residual_nm[0] - (-0.02 - 0.8)).abs() < 1e-12,
            "wrap: {c:?}"
        );
    }

    #[test]
    fn cooling_drift_shifts_the_other_way() {
        let tuner = ThermalTuner::paper_heater();
        let bank = RingBankState::new(vec![0.0; 16], KelvinDelta::new(-24.0));
        let c = tuner.compensate_bank(
            &bank,
            0.8,
            paper_slope(),
            BankTuningMode::full_barrel_shift(16),
        );
        assert_eq!(c.shift, -3);
    }

    #[test]
    fn zero_slope_degenerates_to_tolerating() {
        let tuner = ThermalTuner::paper_heater();
        let bank = RingBankState::new(vec![0.05, -0.05], KelvinDelta::new(10.0));
        let c = tuner.compensate_bank(&bank, 0.8, 0.0, BankTuningMode::PureHeater);
        assert_eq!(c.total_heater_power(), Microwatts::zero());
        assert_eq!(c.residual_nm, vec![0.05, -0.05]);
    }

    #[test]
    fn off_compensation_keeps_the_free_running_detuning() {
        let bank = RingBankState::new(vec![0.02, -0.01], KelvinDelta::new(10.0));
        let off = BankCompensation::off(&bank, paper_slope());
        assert_eq!(off.shift, 0);
        assert!((off.residual_nm[0] - 1.02).abs() < 1e-12);
        assert!((off.residual_nm[1] - 0.99).abs() < 1e-12);
        assert_eq!(off.total_heater_power(), Microwatts::zero());
        assert_eq!(off.worst_ring(), 0);
    }

    #[test]
    fn identity_assignment_is_bit_identical_to_the_unassigned_path() {
        let tuner = ThermalTuner::paper_heater();
        let identity = WavelengthAssignment::identity(16);
        for seed in [0u64, 3, 9] {
            for dt in [0.0, 7.5, 32.0, -24.0] {
                let bank = RingBankState::new(
                    FabricationVariation::new(0.04, seed).offsets_nm(16),
                    KelvinDelta::new(dt),
                );
                for mode in [
                    BankTuningMode::PureHeater,
                    BankTuningMode::full_barrel_shift(16),
                ] {
                    let plain = tuner.compensate_bank(&bank, 0.8, paper_slope(), mode);
                    let assigned = tuner.compensate_bank_assigned(
                        &bank,
                        0.8,
                        paper_slope(),
                        mode,
                        Some(&identity),
                    );
                    assert_eq!(plain, assigned, "seed {seed}, ΔT {dt}, {mode:?}");
                }
                let off = BankCompensation::off(&bank, paper_slope());
                let off_assigned =
                    BankCompensation::off_assigned(&bank, 0.8, paper_slope(), Some(&identity));
                assert_eq!(off, off_assigned, "seed {seed}, ΔT {dt}");
            }
        }
    }

    #[test]
    fn design_assignment_composes_with_the_runtime_barrel_shift() {
        // A bank assigned for +32 K of drift (4-slot rotation baked in) that
        // actually runs at the calibration point: the runtime barrel search
        // must hop back by −4 so the heaters see (almost) nothing.
        let tuner = ThermalTuner::paper_heater();
        let rotation =
            WavelengthAssignment::new((0..16).map(|j| (j + 16 - 4) % 16).collect()).unwrap();
        let cold = RingBankState::new(vec![0.0; 16], KelvinDelta::zero());
        let c = tuner.compensate_bank_assigned(
            &cold,
            0.8,
            paper_slope(),
            BankTuningMode::full_barrel_shift(16),
            Some(&rotation),
        );
        assert_eq!(c.shift, -4, "the runtime shift undoes the design rotation");
        assert!(c.worst_residual().abs().nanometers() < 0.05);
        // Pure heating cannot undo it: every ring fights its full 4 slots.
        let pure = tuner.compensate_bank_assigned(
            &cold,
            0.8,
            paper_slope(),
            BankTuningMode::PureHeater,
            Some(&rotation),
        );
        assert!(pure.total_heater_power().value() > 10.0 * c.total_heater_power().value().max(1.0));
        // At the design temperature the assignment alone already suffices.
        let hot = RingBankState::new(vec![0.0; 16], KelvinDelta::new(32.0));
        let designed = tuner.compensate_bank_assigned(
            &hot,
            0.8,
            paper_slope(),
            BankTuningMode::PureHeater,
            Some(&rotation),
        );
        let unassigned =
            tuner.compensate_bank(&hot, 0.8, paper_slope(), BankTuningMode::PureHeater);
        assert!(
            designed.total_heater_power().value() < 0.1 * unassigned.total_heater_power().value()
        );
    }

    #[test]
    fn assigned_tolerate_measures_against_the_served_slot() {
        // Ring 15 serves lane 0 after a 1-slot rotation; heaters off.  Its
        // free-running position is one slot (0.8 nm) below lane 0, minus the
        // drift it has already picked up.
        let rotation =
            WavelengthAssignment::new((0..4).map(|j| (j + 4 - 1) % 4).collect()).unwrap();
        let bank = RingBankState::new(vec![0.0; 4], KelvinDelta::new(4.0));
        let off = BankCompensation::off_assigned(&bank, 0.8, paper_slope(), Some(&rotation));
        // Drift 0.4 nm − 0.8 nm hop = −0.4 nm at every lane.
        for lane in 0..4 {
            assert!(
                (off.residual_nm[lane] - (0.4 - 0.8)).abs() < 1e-12,
                "{off:?}"
            );
        }
        assert_eq!(off.total_heater_power(), Microwatts::zero());
    }

    #[test]
    #[should_panic(expected = "cover every ring")]
    fn mismatched_assignment_is_rejected() {
        let tuner = ThermalTuner::paper_heater();
        let bank = RingBankState::aligned(16);
        let short = WavelengthAssignment::identity(4);
        let _ = tuner.compensate_bank_assigned(
            &bank,
            0.8,
            paper_slope(),
            BankTuningMode::PureHeater,
            Some(&short),
        );
    }

    #[test]
    fn mode_validation() {
        assert!(BankTuningMode::PureHeater.validate().is_ok());
        assert!(BankTuningMode::BarrelShift { max_shift: 1 }
            .validate()
            .is_ok());
        assert!(BankTuningMode::BarrelShift { max_shift: 0 }
            .validate()
            .is_err());
        assert_eq!(
            BankTuningMode::full_barrel_shift(16),
            BankTuningMode::BarrelShift { max_shift: 15 }
        );
        assert_eq!(BankTuningMode::default(), BankTuningMode::PureHeater);
    }
}
