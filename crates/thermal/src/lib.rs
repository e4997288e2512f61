//! Temperature effects in the nanophotonic interconnect: micro-ring
//! resonance drift, heater-based thermal tuning and chip thermal
//! environments.
//!
//! The DAC'17 paper evaluates its coding/laser-power trade-off at a fixed
//! ambient temperature, but micro-ring resonators are the most
//! temperature-sensitive device in the link: silicon's thermo-optic
//! coefficient shifts a ring's resonance by roughly **0.1 nm/K**, while the
//! ring linewidth of the evaluated channel is only 0.17 nm.  A couple of
//! kelvin of uncompensated drift therefore destroys the link budget, and the
//! power spent *keeping the rings on grid* becomes a first-class term of the
//! channel power — alongside the laser and modulation terms the paper
//! accounts for.
//!
//! This crate provides the temperature-domain models, deliberately free of
//! any photonic-device dependency so that every layer of the workspace can
//! use them:
//!
//! * [`RingThermalModel`] — resonance drift vs. temperature relative to the
//!   calibration point (dλ/dT ≈ 0.1 nm/K for silicon rings);
//! * [`ThermalTuner`] — closed-loop heater tuning: per-ring tuning power in
//!   µW/K of compensated drift, heater saturation, and the residual lock
//!   error of a real control loop;
//! * [`TuningPolicy`] — tolerate the drift, always tune, or adaptively pick
//!   whichever costs less total power;
//! * [`ThermalEnvironment`] — uniform ambient, static hotspot gradients
//!   across the ONIs, and a first-order transient trace the NoC simulator
//!   samples over time;
//! * [`ActivityCoupledEnvironment`] — the *closed-loop* alternative to the
//!   prescribed traces: a per-ONI thermal RC network driven by the power the
//!   interconnect itself dissipates, stepped epoch by epoch by the NoC
//!   simulator's feedback engine;
//! * [`RingBankState`] / [`FabricationVariation`] — the per-ring spectral
//!   state: a deterministic, seeded fabrication offset per ring on top of
//!   the common-mode thermal drift, so different wavelengths of one lane
//!   detune differently;
//! * [`BankTuningMode`] — pure per-ring heating, or barrel-shift channel
//!   hopping (re-map logical wavelengths to the nearest-resonant rings and
//!   heat only the residual; cf. Cooling Codes);
//! * [`WavelengthAssignment`] / [`WavelengthAssigner`] — GLOW-style
//!   *design-time* thermal-aware wavelength-grid assignment: a seeded,
//!   deterministic greedy + local-search permutation of the
//!   logical-wavelength → ring mapping, chosen against a target heat map so
//!   the heaters fight only what drift and fabrication leave over;
//! * [`WorkloadTrace`] / [`WorkloadSchedule`] — per-ONI compute-cluster
//!   heat injection, one analytic trace per ONI, strung into phases (DVFS
//!   steps, task migration, diurnal curves) that the RC network adds to the
//!   link's own dissipation;
//! * [`ThermalModel`] — the stepping contract the NoC simulator drives, with
//!   two implementations: prescribed traces ([`PrescribedEnvironment`]) and
//!   the RC network with its optional workload, and [`ThermalModelSpec`] as
//!   the plain-data description a scenario configuration carries.
//!
//! The photonic consequences (how many dB of penalty a nanometre of residual
//! drift costs) are computed by `onoc-photonics` from its Lorentzian ring
//! model; the runtime consequences (re-selecting the ECC scheme as the chip
//! heats) live in `onoc-link`; scenario playback lives in `onoc-sim`.
//!
//! # Example
//!
//! ```
//! use onoc_thermal::{RingThermalModel, ThermalTuner};
//! use onoc_units::Celsius;
//!
//! let rings = RingThermalModel::paper_silicon();
//! let tuner = ThermalTuner::paper_heater();
//!
//! // 60 K above calibration the free-running drift is ~6 nm — 35 linewidths.
//! let drift = rings.drift_at(Celsius::new(85.0));
//! assert!((drift.nanometers() - 6.0).abs() < 1e-9);
//!
//! // The closed loop pulls that back to a small residual, for a price.
//! let compensation = tuner.compensate(rings.delta_at(Celsius::new(85.0)));
//! assert!(rings.drift_for(compensation.residual).nanometers().abs() < 0.05);
//! assert!(compensation.heater_power_per_ring.value() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod assign;
pub mod bank;
pub mod drift;
pub mod environment;
pub mod model;
pub mod schedule;
pub mod tuning;

pub use activity::{ActivityCoupledEnvironment, RcNetworkParameters};
pub use assign::{AssignmentStrategy, WavelengthAssigner, WavelengthAssignment};
pub use bank::{BankCompensation, BankTuningMode, FabricationVariation, RingBankState};
pub use drift::{ResonanceDrift, RingThermalModel};
pub use environment::ThermalEnvironment;
pub use model::{
    PrescribedEnvironment, ThermalModel, ThermalModelError, ThermalModelSpec, WorkloadTrace,
};
pub use schedule::{WorkloadPhase, WorkloadSchedule};
pub use tuning::{ThermalCompensation, ThermalTuner, TuningPolicy};
