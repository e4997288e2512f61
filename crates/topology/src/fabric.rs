//! Fabric descriptions: nodes, photonic/electrical links and the built-in
//! topology constructors.

use std::collections::BTreeSet;
use std::fmt;

/// A malformed fabric description, produced by [`Topology::new`] or
/// [`FabricSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError {
    /// Human-readable description of the violated invariant.
    pub reason: String,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology: {}", self.reason)
    }
}

impl std::error::Error for TopologyError {}

fn invalid(reason: impl Into<String>) -> TopologyError {
    TopologyError {
        reason: reason.into(),
    }
}

/// Transport discipline of one fabric link.
///
/// The derived ordering (MWSR < SWMR < electrical) is load-bearing: it is
/// part of the canonical link order, so routers prefer photonic links over
/// electrical fallbacks when both offer an equally short path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkKind {
    /// Many writers share one reader over a wavelength-striped waveguide —
    /// the paper's channel discipline.
    Mwsr,
    /// One writer broadcasts to many readers.  Accepted in descriptions and
    /// routed around, but not yet supported by the scenario engines.
    Swmr,
    /// Point-to-point electrical fallback: repeated wires with no ring
    /// tuning and no coding, used to stitch photonic islands together.
    Electrical,
}

impl LinkKind {
    /// Whether the link is an optical waveguide (MWSR or SWMR).
    #[must_use]
    pub fn is_photonic(self) -> bool {
        matches!(self, Self::Mwsr | Self::Swmr)
    }
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Mwsr => "MWSR",
            Self::Swmr => "SWMR",
            Self::Electrical => "electrical",
        })
    }
}

/// One link of a fabric.
///
/// The `hub` is the single-sided end of the link: the reader of an MWSR
/// channel, the writer of an SWMR channel, or the driving end of an
/// electrical wire.  `members` are the many-sided ends (writers, readers,
/// or the single electrical sink), kept sorted and deduplicated.
///
/// Field order matters: the derived `Ord` (kind, hub, members, group) is the
/// canonical link order [`Topology::new`] sorts into.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LinkSpec {
    /// Transport discipline.
    pub kind: LinkKind,
    /// The single-sided end: MWSR reader, SWMR writer, or electrical source.
    pub hub: usize,
    /// The many-sided ends, sorted ascending without duplicates.
    pub members: Vec<usize>,
    /// Waveguide group for photonic links: links sharing a group run their
    /// waveguides through the same routing corridor and suffer mutual
    /// thermal crosstalk (see [`FabricSpec::crosstalk_per_neighbor`]).
    /// Ignored for electrical links (kept at 0 by the constructor).
    pub waveguide_group: usize,
}

impl LinkSpec {
    /// An MWSR channel read by `reader` and written by `writers`.
    #[must_use]
    pub fn mwsr(reader: usize, writers: impl IntoIterator<Item = usize>, group: usize) -> Self {
        Self {
            kind: LinkKind::Mwsr,
            hub: reader,
            members: sorted_members(writers),
            waveguide_group: group,
        }
    }

    /// An SWMR channel written by `writer` and read by `readers`.
    #[must_use]
    pub fn swmr(writer: usize, readers: impl IntoIterator<Item = usize>, group: usize) -> Self {
        Self {
            kind: LinkKind::Swmr,
            hub: writer,
            members: sorted_members(readers),
            waveguide_group: group,
        }
    }

    /// A point-to-point electrical fallback wire from `from` to `to`.
    #[must_use]
    pub fn electrical(from: usize, to: usize) -> Self {
        Self {
            kind: LinkKind::Electrical,
            hub: from,
            members: vec![to],
            waveguide_group: 0,
        }
    }

    /// Number of many-sided endpoints (writers of an MWSR channel, readers
    /// of an SWMR channel, always 1 for electrical wires).
    #[must_use]
    pub fn radix(&self) -> usize {
        self.members.len()
    }

    /// Directed traversal edges this link contributes to the routing graph.
    pub(crate) fn edges(&self) -> Vec<(usize, usize)> {
        match self.kind {
            LinkKind::Mwsr => self.members.iter().map(|&w| (w, self.hub)).collect(),
            LinkKind::Swmr | LinkKind::Electrical => {
                self.members.iter().map(|&r| (self.hub, r)).collect()
            }
        }
    }

    fn validate(&self, nodes: usize) -> Result<(), TopologyError> {
        if self.hub >= nodes {
            return Err(invalid(format!(
                "{} link hub {} out of range for {nodes} nodes",
                self.kind, self.hub
            )));
        }
        if self.members.is_empty() {
            return Err(invalid(format!(
                "{} link at node {} has no members",
                self.kind, self.hub
            )));
        }
        if !self.members.windows(2).all(|w| w[0] < w[1]) {
            return Err(invalid(format!(
                "{} link at node {} has unsorted or duplicate members {:?}",
                self.kind, self.hub, self.members
            )));
        }
        for &member in &self.members {
            if member >= nodes {
                return Err(invalid(format!(
                    "{} link at node {} references member {member} out of range for {nodes} nodes",
                    self.kind, self.hub
                )));
            }
            if member == self.hub {
                return Err(invalid(format!(
                    "{} link at node {} lists its own hub as a member",
                    self.kind, self.hub
                )));
            }
        }
        if self.kind == LinkKind::Electrical && self.members.len() != 1 {
            return Err(invalid(format!(
                "electrical link at node {} must be point-to-point but has {} sinks",
                self.hub,
                self.members.len()
            )));
        }
        Ok(())
    }
}

fn sorted_members(members: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut members: Vec<usize> = members.into_iter().collect();
    members.sort_unstable();
    members.dedup();
    members
}

/// A validated fabric description: `nodes` ONIs connected by links.
///
/// Construction canonicalises the link list (sorted by kind, hub, members,
/// waveguide group) and enforces the structural invariants, so two
/// descriptions of the same fabric compare equal and route identically no
/// matter the declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nodes: usize,
    links: Vec<LinkSpec>,
}

impl Topology {
    /// Builds and validates a fabric.
    ///
    /// # Errors
    ///
    /// [`TopologyError`] when the description is malformed: fewer than two
    /// nodes, an out-of-range or self-looping endpoint, duplicate links, a
    /// node reading more than one MWSR channel, a node reading none (every
    /// node must terminate one MWSR channel so the scenario engines can
    /// model its receiver), or a fabric that is not strongly connected.
    pub fn new(nodes: usize, links: Vec<LinkSpec>) -> Result<Self, TopologyError> {
        if nodes < 2 {
            return Err(invalid(format!(
                "a fabric needs at least two nodes, got {nodes}"
            )));
        }
        let mut links = links;
        links.sort();
        if let Some(pair) = links.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(invalid(format!(
                "duplicate {} link at node {}",
                pair[0].kind, pair[0].hub
            )));
        }
        let mut readers = vec![0usize; nodes];
        for link in &links {
            link.validate(nodes)?;
            if link.kind == LinkKind::Mwsr {
                readers[link.hub] += 1;
            }
        }
        for (node, &count) in readers.iter().enumerate() {
            if count == 0 {
                return Err(invalid(format!(
                    "node {node} reads no MWSR channel; every node must terminate one"
                )));
            }
            if count > 1 {
                return Err(invalid(format!(
                    "node {node} reads {count} MWSR channels; at most one reader link per node"
                )));
            }
        }
        let fabric = Self { nodes, links };
        fabric.check_strongly_connected()?;
        Ok(fabric)
    }

    fn check_strongly_connected(&self) -> Result<(), TopologyError> {
        let forward = self.reachable_from(0, false);
        if let Some(missing) = (0..self.nodes).find(|node| !forward.contains(node)) {
            return Err(invalid(format!(
                "fabric is not strongly connected: no route from node 0 to node {missing}"
            )));
        }
        let backward = self.reachable_from(0, true);
        if let Some(missing) = (0..self.nodes).find(|node| !backward.contains(node)) {
            return Err(invalid(format!(
                "fabric is not strongly connected: no route from node {missing} to node 0"
            )));
        }
        Ok(())
    }

    fn reachable_from(&self, start: usize, reversed: bool) -> BTreeSet<usize> {
        let mut seen = BTreeSet::from([start]);
        let mut frontier = vec![start];
        while let Some(node) = frontier.pop() {
            for link in &self.links {
                for (from, to) in link.edges() {
                    let (from, to) = if reversed { (to, from) } else { (from, to) };
                    if from == node && seen.insert(to) {
                        frontier.push(to);
                    }
                }
            }
        }
        seen
    }

    /// Number of nodes (ONIs) in the fabric.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The links in canonical order.  Link indices used by [`crate::Route`]
    /// hops and [`crate::ElaboratedFabric`] cards index into this slice.
    #[must_use]
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Index of the MWSR channel read by `node` (every valid fabric has
    /// exactly one per node).
    #[must_use]
    pub fn reader_link(&self, node: usize) -> Option<usize> {
        self.links
            .iter()
            .position(|link| link.kind == LinkKind::Mwsr && link.hub == node)
    }

    /// Number of photonic links sharing `group` — the crosstalk neighbourhood
    /// size used by [`FabricSpec::link_stack`].
    #[must_use]
    pub fn group_population(&self, group: usize) -> usize {
        self.links
            .iter()
            .filter(|link| link.kind.is_photonic() && link.waveguide_group == group)
            .count()
    }

    /// Number of photonic (MWSR + SWMR) links.
    #[must_use]
    pub fn photonic_link_count(&self) -> usize {
        self.links.iter().filter(|l| l.kind.is_photonic()).count()
    }

    /// Number of electrical fallback links.
    #[must_use]
    pub fn electrical_link_count(&self) -> usize {
        self.links.len() - self.photonic_link_count()
    }

    /// The paper's canonical fabric: one MWSR ring per destination, all in
    /// one waveguide group.  Every route is a single photonic hop, and a
    /// scenario pinned to this topology reproduces the default
    /// (topology-free) simulation bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when `nodes < 2`.
    #[must_use]
    pub fn single_ring(nodes: usize) -> Self {
        Self::multi_ring(nodes, 1)
    }

    /// The single-ring fabric with its per-destination channels spread
    /// round-robin over `groups` waveguide groups (destination `d` rides
    /// group `d % groups`).  Routing is identical to the single ring; the
    /// difference is thermal: fewer neighbours per corridor means less
    /// crosstalk-amplified drift and cheaper tuning.
    ///
    /// # Panics
    ///
    /// Panics when `nodes < 2` or `groups` is not in `1..=nodes`.
    #[must_use]
    pub fn multi_ring(nodes: usize, groups: usize) -> Self {
        assert!(nodes >= 2, "a fabric needs at least two nodes, got {nodes}");
        assert!(
            (1..=nodes).contains(&groups),
            "waveguide groups must be in 1..={nodes}, got {groups}"
        );
        let links = (0..nodes)
            .map(|d| LinkSpec::mwsr(d, (0..nodes).filter(|&s| s != d), d % groups))
            .collect();
        Self::new(nodes, links).expect("multi-ring fabric is valid by construction")
    }

    /// A MorphoNoC-style hybrid: photonic clusters of `cluster_size` nodes
    /// (full per-destination MWSR connectivity inside each cluster, one
    /// waveguide group per cluster) stitched together by a bidirectional
    /// electrical ring over the cluster gateways (the first node of each
    /// cluster).  Inter-cluster traffic takes genuine multi-hop routes:
    /// source → own gateway (photonic), gateway ring (electrical), remote
    /// gateway → destination (photonic).
    ///
    /// # Panics
    ///
    /// Panics when `cluster_size < 2` or `nodes` is not a multiple of
    /// `cluster_size` spanning at least two clusters.
    #[must_use]
    pub fn hybrid_mesh(nodes: usize, cluster_size: usize) -> Self {
        assert!(
            cluster_size >= 2,
            "hybrid-mesh clusters need at least two nodes, got {cluster_size}"
        );
        assert!(
            nodes.is_multiple_of(cluster_size) && nodes / cluster_size >= 2,
            "hybrid mesh needs nodes ({nodes}) = cluster_size ({cluster_size}) x clusters >= 2"
        );
        let clusters = nodes / cluster_size;
        let mut links = Vec::new();
        for d in 0..nodes {
            let cluster = d / cluster_size;
            let base = cluster * cluster_size;
            let peers = (base..base + cluster_size).filter(|&s| s != d);
            links.push(LinkSpec::mwsr(d, peers, cluster));
        }
        let gateway = |cluster: usize| cluster * cluster_size;
        for cluster in 0..clusters {
            let next = (cluster + 1) % clusters;
            links.push(LinkSpec::electrical(gateway(cluster), gateway(next)));
            if clusters > 2 {
                // With two clusters the forward ring already runs both ways;
                // beyond that, add the reverse wire explicitly.
                links.push(LinkSpec::electrical(gateway(next), gateway(cluster)));
            }
        }
        Self::new(nodes, links).expect("hybrid-mesh fabric is valid by construction")
    }
}

/// Latency and energy model of one electrical fallback hop.
///
/// Electrical wires carry no wavelengths and run no decoder: a hop costs a
/// fixed traversal latency plus per-word serialisation time, burns switching
/// energy per payload bit, and delivers error-free (the reliability burden
/// of the paper's coding study lives entirely on the photonic hops).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectricalLinkModel {
    /// Fixed per-hop traversal latency in nanoseconds (wire flight plus
    /// router pipeline).
    pub latency_ns: f64,
    /// Serialisation time per 64-bit word in nanoseconds.
    pub ns_per_word: f64,
    /// Switching energy per payload bit in picojoules.
    pub energy_pj_per_bit: f64,
}

impl ElectricalLinkModel {
    /// The fallback wire the hybrid-mesh gateways use: a repeated global
    /// interconnect, slower and costlier per bit than a tuned photonic
    /// channel (4 ns flight, 0.8 ns/word ≈ 80 Gb/s, 1.1 pJ/bit).
    #[must_use]
    pub fn paper_fallback() -> Self {
        Self {
            latency_ns: 4.0,
            ns_per_word: 0.8,
            energy_pj_per_bit: 1.1,
        }
    }

    fn validate(&self) -> Result<(), TopologyError> {
        for (name, value) in [
            ("latency_ns", self.latency_ns),
            ("ns_per_word", self.ns_per_word),
            ("energy_pj_per_bit", self.energy_pj_per_bit),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(invalid(format!(
                    "electrical link model {name} must be finite and positive, got {value}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for ElectricalLinkModel {
    fn default() -> Self {
        Self::paper_fallback()
    }
}

/// A [`Topology`] plus the physical knobs the elaborator and the scenario
/// engines need: thermal crosstalk between same-group waveguides and the
/// electrical fallback model.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSpec {
    /// The fabric graph.
    pub topology: Topology,
    /// Fractional thermal-crosstalk penalty per co-routed neighbour: a link
    /// sharing its waveguide group with `n − 1` others both drifts
    /// `1 + crosstalk × (n − 1)` times faster than an isolated one *and*
    /// pays the same factor in heater power per compensated kelvin (packed
    /// rings leak heat into their neighbours' heaters, so holding a lock
    /// costs more the denser the group).  The default 0.0 leaves every
    /// stack byte-identical to the base.
    pub crosstalk_per_neighbor: f64,
    /// Latency/energy model of electrical fallback hops.
    pub electrical: ElectricalLinkModel,
}

impl FabricSpec {
    /// Wraps a topology with no crosstalk and the default electrical model.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        Self {
            topology,
            crosstalk_per_neighbor: 0.0,
            electrical: ElectricalLinkModel::paper_fallback(),
        }
    }

    /// Sets the per-neighbour crosstalk drift amplification.
    #[must_use]
    pub fn with_crosstalk(mut self, crosstalk_per_neighbor: f64) -> Self {
        self.crosstalk_per_neighbor = crosstalk_per_neighbor;
        self
    }

    /// Replaces the electrical fallback model.
    #[must_use]
    pub fn with_electrical(mut self, electrical: ElectricalLinkModel) -> Self {
        self.electrical = electrical;
        self
    }

    /// Validates the physical knobs (the topology is valid by construction).
    ///
    /// # Errors
    ///
    /// [`TopologyError`] when the crosstalk factor is negative or
    /// non-finite, or the electrical model carries a non-positive constant.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if !self.crosstalk_per_neighbor.is_finite() || self.crosstalk_per_neighbor < 0.0 {
            return Err(invalid(format!(
                "crosstalk per neighbour must be finite and non-negative, got {}",
                self.crosstalk_per_neighbor
            )));
        }
        self.electrical.validate()
    }

    /// The thermal stack of photonic link `link`, derived from `base` by
    /// amplifying the ring drift slope *and* the heater power per kelvin
    /// with the link's waveguide-group crosstalk.  The drift side makes a
    /// crowded group detune faster; the heater side charges the tuning loop
    /// for fighting its neighbours' heat leakage — slope alone would cancel
    /// out of the heater power, because residual offsets are converted back
    /// to temperature-equivalents through the same slope.  With zero
    /// crosstalk or an isolated link the clone is byte-identical to `base`
    /// (same fingerprint, same cache lineage).  Returns `None` for
    /// electrical links, which carry no rings.
    #[must_use]
    pub fn link_stack(
        &self,
        base: &onoc_photonics::ThermalLinkStack,
        link: usize,
    ) -> Option<onoc_photonics::ThermalLinkStack> {
        let spec = self.topology.links().get(link)?;
        if !spec.kind.is_photonic() {
            return None;
        }
        let mut stack = base.clone();
        let neighbours = self.topology.group_population(spec.waveguide_group) - 1;
        if self.crosstalk_per_neighbor > 0.0 && neighbours > 0 {
            let amplification = 1.0 + self.crosstalk_per_neighbor * neighbours as f64;
            stack.rings.drift_nm_per_kelvin *= amplification;
            stack.tuner.power_per_kelvin =
                onoc_units::Microwatts::new(stack.tuner.power_per_kelvin.value() * amplification);
        }
        Some(stack)
    }
}

impl From<Topology> for FabricSpec {
    fn from(topology: Topology) -> Self {
        Self::new(topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ring_has_one_reader_link_per_node() {
        let fabric = Topology::single_ring(4);
        assert_eq!(fabric.node_count(), 4);
        assert_eq!(fabric.links().len(), 4);
        assert_eq!(fabric.photonic_link_count(), 4);
        assert_eq!(fabric.electrical_link_count(), 0);
        for node in 0..4 {
            let index = fabric.reader_link(node).expect("reader link");
            let link = &fabric.links()[index];
            assert_eq!(link.kind, LinkKind::Mwsr);
            assert_eq!(link.hub, node);
            assert_eq!(link.radix(), 3);
            assert_eq!(link.waveguide_group, 0);
        }
        assert_eq!(fabric.group_population(0), 4);
    }

    #[test]
    fn multi_ring_partitions_waveguide_groups() {
        let fabric = Topology::multi_ring(8, 4);
        for group in 0..4 {
            assert_eq!(fabric.group_population(group), 2, "group {group}");
        }
        assert_eq!(Topology::multi_ring(8, 1), Topology::single_ring(8));
    }

    #[test]
    fn hybrid_mesh_stitches_clusters_with_electrical_gateways() {
        let fabric = Topology::hybrid_mesh(12, 4);
        assert_eq!(fabric.photonic_link_count(), 12);
        // Three clusters: a full bidirectional gateway ring of 6 wires.
        assert_eq!(fabric.electrical_link_count(), 6);
        // Two clusters: only one wire each way, no duplicates.
        let two = Topology::hybrid_mesh(8, 4);
        assert_eq!(two.electrical_link_count(), 2);
    }

    #[test]
    fn construction_is_invariant_under_declaration_order() {
        let a = Topology::new(
            3,
            vec![
                LinkSpec::mwsr(0, [1, 2], 0),
                LinkSpec::mwsr(1, [0, 2], 0),
                LinkSpec::mwsr(2, [0, 1], 0),
            ],
        )
        .expect("valid");
        let b = Topology::new(
            3,
            vec![
                LinkSpec::mwsr(2, [1, 0], 0),
                LinkSpec::mwsr(0, [2, 1], 0),
                LinkSpec::mwsr(1, [2, 0], 0),
            ],
        )
        .expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_fabrics_are_rejected() {
        let reason = |r: Result<Topology, TopologyError>| r.expect_err("must fail").reason;
        assert!(reason(Topology::new(1, vec![])).contains("at least two nodes"));
        assert!(reason(Topology::new(2, vec![LinkSpec::mwsr(5, [0], 0)])).contains("out of range"));
        assert!(reason(Topology::new(2, vec![LinkSpec::mwsr(0, [0, 1], 0)])).contains("own hub"));
        assert!(reason(Topology::new(
            2,
            vec![
                LinkSpec::mwsr(0, [1], 0),
                LinkSpec::mwsr(0, [1], 1),
                LinkSpec::mwsr(1, [0], 0),
            ],
        ))
        .contains("2 MWSR channels"));
        assert!(reason(Topology::new(
            2,
            vec![
                LinkSpec::mwsr(0, [1], 0),
                LinkSpec::mwsr(0, [1], 0),
                LinkSpec::mwsr(1, [0], 0),
            ],
        ))
        .contains("duplicate"));
        // Node 2 writes nowhere: reachable from nobody? No — node 2 reads
        // but never writes, so nothing is reachable *from* it.
        assert!(reason(Topology::new(
            3,
            vec![
                LinkSpec::mwsr(0, [1], 0),
                LinkSpec::mwsr(1, [0], 0),
                LinkSpec::mwsr(2, [0, 1], 0),
            ],
        ))
        .contains("not strongly connected"));
        // A node with no reader link is rejected even when connected.
        assert!(reason(Topology::new(
            2,
            vec![LinkSpec::mwsr(0, [1], 0), LinkSpec::electrical(0, 1)],
        ))
        .contains("reads no MWSR channel"));
    }

    #[test]
    fn fabric_spec_validates_physical_knobs() {
        let spec = FabricSpec::new(Topology::single_ring(3));
        assert!(spec.validate().is_ok());
        assert!(spec.clone().with_crosstalk(-0.1).validate().is_err());
        assert!(spec.clone().with_crosstalk(f64::NAN).validate().is_err());
        let mut bad = ElectricalLinkModel::paper_fallback();
        bad.ns_per_word = 0.0;
        assert!(spec.with_electrical(bad).validate().is_err());
    }

    #[test]
    fn crosstalk_scales_drift_with_group_population() {
        let base = onoc_photonics::ThermalLinkStack::paper_default();
        let spec = FabricSpec::new(Topology::single_ring(4)).with_crosstalk(0.05);
        let stack = spec.link_stack(&base, 0).expect("photonic");
        let expected = base.rings.drift_nm_per_kelvin * (1.0 + 0.05 * 3.0);
        assert!((stack.rings.drift_nm_per_kelvin - expected).abs() < 1e-15);
        // The heater pays the same crosstalk factor: residual offsets map
        // back to kelvin through the slope, so the slope alone would leave
        // the tuning power of a crowded group equal to an isolated link's.
        let expected_heater = base.tuner.power_per_kelvin.value() * (1.0 + 0.05 * 3.0);
        assert!((stack.tuner.power_per_kelvin.value() - expected_heater).abs() < 1e-12);
        assert_ne!(stack.fingerprint(), base.fingerprint());

        // Zero crosstalk leaves the stack byte-identical to the base.
        let identity = FabricSpec::new(Topology::single_ring(4));
        let same = identity.link_stack(&base, 0).expect("photonic");
        assert_eq!(same, base);
        assert_eq!(same.fingerprint(), base.fingerprint());

        // An isolated link (sole member of its group) is also untouched.
        let split = FabricSpec::new(Topology::multi_ring(4, 4)).with_crosstalk(0.05);
        let lonely = split.link_stack(&base, 0).expect("photonic");
        assert_eq!(lonely.fingerprint(), base.fingerprint());
    }

    #[test]
    fn electrical_links_have_no_stack() {
        let base = onoc_photonics::ThermalLinkStack::paper_default();
        let fabric = Topology::hybrid_mesh(8, 4);
        let electrical = fabric
            .links()
            .iter()
            .position(|l| l.kind == LinkKind::Electrical)
            .expect("has electrical links");
        let spec = FabricSpec::new(fabric);
        assert!(spec.link_stack(&base, electrical).is_none());
        assert!(spec.link_stack(&base, 999).is_none());
    }
}
