//! Fabric topologies for the DAC'17 nanophotonic interconnect reproduction.
//!
//! The paper models a single MWSR (multiple-writer single-reader) channel:
//! every writer modulates onto the reader's wavelength-striped waveguide and
//! the reader's ring bank drops all lanes.  This crate generalises that one
//! ring into a *configurable fabric*:
//!
//! * [`Topology`] — a validated description of nodes and links.  Photonic
//!   links are tagged [`LinkKind::Mwsr`] or [`LinkKind::Swmr`] with an
//!   explicit radix (member list) and waveguide group; electrical fallback
//!   links ([`LinkKind::Electrical`]) are point-to-point.  Construction
//!   canonicalises link order and rejects malformed or disconnected fabrics,
//!   so downstream routing is invariant under link declaration order.
//! * [`Router`] — deterministic shortest-path routing with a lexicographic
//!   tie-break, producing one multi-hop [`Route`] per ordered node pair.
//! * [`TopologyElaborator`] — stamps out one [`NanophotonicLink`] model card
//!   per photonic link, scaling the thermal stack's drift slope with
//!   waveguide-group crosstalk, and joins every card to one
//!   [`SharedOpCache`] whose keys carry the stack fingerprint, so stamped
//!   links with identical stacks solve each operating point once.
//!
//! Built-in constructors cover the paper's canonical fabric
//! ([`Topology::single_ring`]), a waveguide-partitioned variant
//! ([`Topology::multi_ring`]) and a MorphoNoC-style hybrid
//! ([`Topology::hybrid_mesh`]) whose clusters are photonic islands stitched
//! together by an electrical gateway ring — the latter is the crate's
//! multi-hop workout.
//!
//! [`NanophotonicLink`]: onoc_link::NanophotonicLink
//! [`SharedOpCache`]: onoc_link::SharedOpCache

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elaborate;
mod fabric;
mod route;

pub use elaborate::{ElaboratedFabric, LinkCard, TopologyElaborator};
pub use fabric::{ElectricalLinkModel, FabricSpec, LinkKind, LinkSpec, Topology, TopologyError};
pub use route::{Hop, Route, RouteTable, Router};
