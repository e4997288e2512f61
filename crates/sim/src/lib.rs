//! Discrete-event optical NoC simulator.
//!
//! The paper's future work is to "simulate the execution of standard
//! benchmark applications on nanophotonic interconnects"; its Section III-C
//! describes the run-time manager that selects the communication scheme per
//! transfer.  This crate provides the missing substrate: an event-driven
//! simulator of an MWSR-based optical NoC whose channels are backed by the
//! photonic link budget of `onoc-photonics`, whose interfaces use the coding
//! and cost models of `onoc-ecc-codes`/`onoc-interface`, and whose link
//! manager is the policy of `onoc-link`.
//!
//! The simulator is deliberately message-level (one event per word burst, not
//! per bit): error injection uses the analytic decoded-BER of the configured
//! operating point, which the `onoc-ecc-codes` Monte-Carlo tests validate
//! against bit-true decoding.
//!
//! All runs go through one surface: [`ScenarioBuilder`] composes traffic, a
//! thermal model ([`onoc_thermal::ThermalModelSpec`]: prescribed traces, or
//! the RC network heated by the link and an optional compute workload), a
//! decision policy ([`DecisionPolicy`]: per-message or the epoch-gated
//! feedback loop), the link fleet (stack, per-ONI fabrication variation,
//! cache resolution) and a thread budget into a [`Scenario`] whose
//! [`Scenario::run`] returns the unified [`RunReport`].  Energy accounting
//! charges the static share of the channel power (laser + ring heaters) over
//! wall-clock residency and the dynamic share (modulation + codec) over
//! transfer occupancy.
//!
//! # Modules
//!
//! * [`scenario`] — the surface and both engines: `config`, `builder` and
//!   `report` hold [`ScenarioConfig`], [`ScenarioBuilder`] and
//!   [`RunReport`]; `per_message` and `epoch` hold one engine each (the
//!   first says why there are two; the second shares one grant, one
//!   hop-completion and one re-ask routine between its playback modes);
//! * `decision` — what both engines share: [`SimulationError`], the event
//!   entry, a decision's transmission parameters, residual-error sampling
//!   and the temperature bucket grid;
//! * [`traffic`], [`packet`], [`arbiter`], [`stats`], [`time`] — traffic,
//!   messages, the MWSR token arbiter, statistics and the picosecond clock.
//!
//! # Example
//!
//! ```
//! use onoc_sim::{ScenarioBuilder, traffic::TrafficPattern};
//! use onoc_link::TrafficClass;
//!
//! let report = ScenarioBuilder::new()
//!     .oni_count(4)
//!     .pattern(TrafficPattern::UniformRandom { messages_per_node: 20 })
//!     .class(TrafficClass::Bulk)
//!     .words_per_message(8)
//!     .seed(7)
//!     .build()?
//!     .run();
//! assert_eq!(report.stats.delivered_messages, 4 * 20);
//! # Ok::<(), onoc_sim::SimulationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod arbiter;
mod decision;
pub mod packet;
pub mod scenario;
pub mod stats;
pub mod time;
pub mod traffic;

pub use decision::SimulationError;
pub use packet::{Message, MessageId};
pub use scenario::{
    DecisionPolicy, DesignAssignmentConfig, EpochSample, OniReport, PhaseTransition,
    RingVariationConfig, RunReport, Scenario, ScenarioBuilder, ScenarioConfig, SchemeSwitch,
};
pub use stats::SimStats;
pub use time::SimTime;
