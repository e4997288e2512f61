//! High-level nanophotonic-link API: the paper's primary contribution.
//!
//! `onoc-link` ties the substrates of the workspace together into the system
//! proposed by the DAC'17 paper: a nanophotonic MWSR interconnect whose
//! optical-link manager jointly selects (i) the error-correcting code used
//! for data transmission and (ii) the laser output power, so that each
//! communication meets its BER requirement at the lowest possible power or
//! the shortest possible communication time.
//!
//! * [`link::NanophotonicLink`] — a configured link; produces complete
//!   [`link::OperatingPoint`]s (laser power, channel power breakdown, energy
//!   per bit, communication time) for any (ECC scheme, target BER) pair.
//! * [`explore`] — design-space exploration: sweeps over schemes and BER
//!   targets, Pareto-front extraction (Fig. 6b), code-length ablations.
//! * [`policy`] — the run-time energy/performance manager of Section III-C,
//!   selecting a scheme given application requirements (deadline, BER,
//!   power budget).
//! * [`report`] — plain-text table rendering used by the figure/table
//!   binaries of `onoc-bench`.
//!
//! # Quick start
//!
//! ```
//! use onoc_link::{NanophotonicLink, link::LinkRequest};
//! use onoc_ecc_codes::EccScheme;
//!
//! let link = NanophotonicLink::paper_link();
//!
//! // The headline result: at BER = 1e-11 the Hamming codes cut the laser
//! // power roughly in half relative to the uncoded transmission.
//! let uncoded = link.operating_point(EccScheme::Uncoded, 1e-11)?;
//! let coded = link.operating_point(EccScheme::Hamming74, 1e-11)?;
//! assert!(coded.laser.laser_electrical_power.value()
//!     < 0.6 * uncoded.laser.laser_electrical_power.value());
//! # Ok::<(), onoc_link::link::LinkError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod explore;
pub mod link;
pub mod policy;
pub mod report;

pub use cache::{OpCacheKey, SharedOpCache};
pub use explore::{DesignSpace, ParetoPoint};
pub use link::{CacheCounters, LinkError, NanophotonicLink, OperatingPoint, SelectionObjective};
pub use onoc_photonics::thermal::{ThermalLinkStack, ThermalSummary};
pub use onoc_thermal::{AssignmentStrategy, WavelengthAssigner, WavelengthAssignment};
pub use policy::{LinkManager, ManagerDecision, TrafficClass};
