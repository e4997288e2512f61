//! Elaboration: stamping a [`Topology`] into per-link photonic model cards.

use std::collections::BTreeSet;

use onoc_link::{NanophotonicLink, SharedOpCache};
use onoc_photonics::ThermalLinkStack;

use crate::fabric::{FabricSpec, Topology, TopologyError};

/// One stamped photonic link: the model card the scenario engines and the
/// benches drive.
#[derive(Debug, Clone)]
pub struct LinkCard {
    /// Index into [`Topology::links`] of the stamped link.
    pub link: usize,
    /// The crosstalk-adjusted thermal stack baked into the model.
    pub stack: ThermalLinkStack,
    /// The stack's fingerprint — the part of every cache key this card's
    /// solves carry.
    pub fingerprint: u64,
    /// The ready-to-serve link model, wired to the fabric's shared cache.
    pub model: NanophotonicLink,
}

/// The result of elaborating a fabric: one [`LinkCard`] per photonic link,
/// every card joined to one [`SharedOpCache`].  Cache keys carry the stack
/// fingerprint, so stamped links with identical physics share their solver
/// work and links with distinct stacks never alias.
#[derive(Debug)]
pub struct ElaboratedFabric {
    cards: Vec<LinkCard>,
    cache: SharedOpCache,
}

impl ElaboratedFabric {
    /// The stamped cards, in canonical link order.
    #[must_use]
    pub fn cards(&self) -> &[LinkCard] {
        &self.cards
    }

    /// The card stamped for topology link `link`, or `None` for electrical
    /// links (which have no photonic model).
    #[must_use]
    pub fn card_for_link(&self, link: usize) -> Option<&LinkCard> {
        self.cards.iter().find(|card| card.link == link)
    }

    /// The card serving `node`'s MWSR reader channel.
    #[must_use]
    pub fn reader_card(&self, topology: &Topology, node: usize) -> Option<&LinkCard> {
        self.card_for_link(topology.reader_link(node)?)
    }

    /// Number of distinct stack fingerprints among the cards.
    #[must_use]
    pub fn distinct_stacks(&self) -> usize {
        self.cards
            .iter()
            .map(|card| card.fingerprint)
            .collect::<BTreeSet<u64>>()
            .len()
    }

    /// Whether every stamped link carries the same stack — the shape under
    /// which a fabric is physically indistinguishable from the paper's
    /// single ring.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        self.distinct_stacks() <= 1
    }

    /// The operating-point cache every card resolves through.
    #[must_use]
    pub fn shared_cache(&self) -> &SharedOpCache {
        &self.cache
    }
}

/// Deterministically stamps out one [`NanophotonicLink`] model card per
/// photonic link of a fabric.
///
/// Cards are derived from the paper's default stack, with each link's ring
/// drift slope amplified by its waveguide-group crosstalk
/// ([`FabricSpec::link_stack`]).  Every card joins one [`SharedOpCache`], so
/// links whose adjusted stacks fingerprint identically pay for each
/// operating-point solve once.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopologyElaborator;

impl TopologyElaborator {
    /// An elaborator stamping the paper's default stack.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Stamps the fabric: validates the spec, derives each photonic link's
    /// stack, and builds the link models on one shared cache.
    ///
    /// # Errors
    ///
    /// [`TopologyError`] when the spec's physical knobs are invalid.
    pub fn elaborate(&self, spec: &FabricSpec) -> Result<ElaboratedFabric, TopologyError> {
        spec.validate()?;
        let base = ThermalLinkStack::paper_default();
        let cache = SharedOpCache::new();
        let cards = spec
            .topology
            .links()
            .iter()
            .enumerate()
            .filter(|(_, link)| link.kind.is_photonic())
            .map(|(index, _)| {
                let stack = spec
                    .link_stack(&base, index)
                    .expect("photonic links derive a stack");
                LinkCard {
                    link: index,
                    fingerprint: stack.fingerprint(),
                    model: NanophotonicLink::paper_link()
                        .with_thermal_stack(stack.clone())
                        .with_shared_cache(cache.clone()),
                    stack,
                }
            })
            .collect();
        Ok(ElaboratedFabric { cards, cache })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{LinkKind, LinkSpec};

    #[test]
    fn uniform_fabric_shares_one_cache_across_all_cards() {
        let spec = FabricSpec::new(Topology::single_ring(4));
        let fabric = TopologyElaborator::new().elaborate(&spec).expect("stamps");
        assert_eq!(fabric.cards().len(), 4);
        assert!(fabric.is_uniform());
        assert_eq!(fabric.distinct_stacks(), 1);

        // Warm the cache through card 0, then observe the hit through card 3.
        let scheme = onoc_ecc_codes::EccScheme::Hamming74;
        let temperature = onoc_units::Celsius::new(45.0);
        fabric.cards()[0]
            .model
            .operating_point_memoized(scheme, 1e-12, temperature)
            .expect("solves");
        fabric.cards()[3]
            .model
            .operating_point_memoized(scheme, 1e-12, temperature)
            .expect("serves");
        let counters = fabric.cards()[3].model.cache_counters();
        assert_eq!(counters.misses, 1, "one solve for the whole fleet");
        assert!(counters.hits >= 1, "card 3 must hit card 0's solve");
    }

    #[test]
    fn crosstalk_splits_fingerprint_groups_by_waveguide_population() {
        // 6 nodes over 2 groups of 3 channels each, plus crosstalk: both
        // groups have the same population, so all stacks still agree.
        let even = FabricSpec::new(Topology::multi_ring(6, 2)).with_crosstalk(0.05);
        let fabric = TopologyElaborator::new().elaborate(&even).expect("stamps");
        assert_eq!(fabric.distinct_stacks(), 1);

        // 4 nodes where group 0 holds 2 channels and groups 1..=2 hold one
        // each: populations differ, so fingerprints split into two groups.
        let skewed = FabricSpec::new(
            Topology::new(
                4,
                vec![
                    LinkSpec::mwsr(0, [1, 2, 3], 0),
                    LinkSpec::mwsr(1, [0, 2, 3], 0),
                    LinkSpec::mwsr(2, [0, 1, 3], 1),
                    LinkSpec::mwsr(3, [0, 1, 2], 2),
                ],
            )
            .expect("valid"),
        )
        .with_crosstalk(0.05);
        let fabric = TopologyElaborator::new()
            .elaborate(&skewed)
            .expect("stamps");
        assert_eq!(fabric.distinct_stacks(), 2);
        assert!(!fabric.is_uniform());
        let crowded = fabric.cards()[0].fingerprint;
        assert_eq!(fabric.cards()[1].fingerprint, crowded);
        let lonely = fabric.cards()[2].fingerprint;
        assert_eq!(fabric.cards()[3].fingerprint, lonely);
        assert_ne!(crowded, lonely);
        // One cache serves both groups; the fingerprint in the key keeps
        // their solves apart.
        assert!(fabric
            .cards()
            .iter()
            .all(|card| card.model.shared_cache().ptr_eq(fabric.shared_cache())));
        let scheme = onoc_ecc_codes::EccScheme::Hamming7164;
        let temperature = onoc_units::Celsius::new(55.0);
        for card in fabric.cards() {
            let point = card
                .model
                .operating_point_memoized(scheme, 1e-11, temperature)
                .expect("solves");
            assert_eq!(
                Ok(point),
                card.model.operating_point_at(scheme, 1e-11, temperature)
            );
        }
        let counters = fabric.shared_cache().counters();
        assert_eq!(counters.misses, 2, "one solve per distinct stack");
        assert_eq!(counters.hits, 2);
    }

    #[test]
    fn electrical_links_are_skipped_and_reader_cards_resolve() {
        let topology = Topology::hybrid_mesh(8, 4);
        let spec = FabricSpec::new(topology.clone());
        let fabric = TopologyElaborator::new().elaborate(&spec).expect("stamps");
        assert_eq!(fabric.cards().len(), 8, "one card per photonic link only");
        for link in 0..topology.links().len() {
            let is_photonic = topology.links()[link].kind.is_photonic();
            assert_eq!(fabric.card_for_link(link).is_some(), is_photonic);
        }
        for node in 0..8 {
            let card = fabric.reader_card(&topology, node).expect("reader card");
            assert_eq!(topology.links()[card.link].hub, node);
            assert_eq!(topology.links()[card.link].kind, LinkKind::Mwsr);
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let spec = FabricSpec::new(Topology::single_ring(2)).with_crosstalk(-1.0);
        let error = TopologyElaborator::new()
            .elaborate(&spec)
            .expect_err("negative crosstalk");
        assert!(error.reason.contains("crosstalk"));
    }
}
