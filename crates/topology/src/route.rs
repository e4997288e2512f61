//! Deterministic shortest-path routing over a [`Topology`].

use std::collections::BTreeMap;

use crate::fabric::{LinkKind, Topology};

/// One hop of a route: traverse `link` and arrive at `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The node this hop arrives at.  For an MWSR hop this is the link's
    /// reader hub — the arbiter and channel that serve the transfer.
    pub node: usize,
    /// Index into [`Topology::links`] of the traversed link.
    pub link: usize,
    /// Kind of the traversed link, denormalised for cheap dispatch.
    pub kind: LinkKind,
}

/// The full path of one flow from `source` to `destination`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Originating node.
    pub source: usize,
    /// Final node; always the last hop's `node`.
    pub destination: usize,
    /// Hops in traversal order; never empty for `source != destination`.
    pub hops: Vec<Hop>,
}

impl Route {
    /// Number of hops.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Number of electrical hops.
    #[must_use]
    pub fn electrical_hops(&self) -> usize {
        self.hops
            .iter()
            .filter(|hop| hop.kind == LinkKind::Electrical)
            .count()
    }
}

/// All-pairs routes of a fabric, keyed by `(source, destination)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    routes: BTreeMap<(usize, usize), Route>,
}

impl RouteTable {
    /// The route from `source` to `destination`.
    ///
    /// # Panics
    ///
    /// Panics when `source == destination` or either index is out of range —
    /// the table covers exactly the ordered pairs of distinct fabric nodes.
    #[must_use]
    pub fn route(&self, source: usize, destination: usize) -> &Route {
        self.routes
            .get(&(source, destination))
            .unwrap_or_else(|| panic!("no route {source} -> {destination} in table"))
    }

    /// Iterates routes in `(source, destination)` order.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.values()
    }

    /// Number of routes (ordered pairs of distinct nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table is empty (never true for a valid fabric).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Longest route in hops.
    #[must_use]
    pub fn max_hops(&self) -> usize {
        self.routes
            .values()
            .map(Route::hop_count)
            .max()
            .unwrap_or(0)
    }

    /// Whether every route is a single MWSR hop — the shape of the paper's
    /// canonical single-ring fabric, which the scenario engines fast-path
    /// on the destination's photonic channel.  A one-hop electrical route
    /// does not qualify: it needs the relay's electrical pricing.
    #[must_use]
    pub fn is_single_hop(&self) -> bool {
        self.routes
            .values()
            .all(|route| matches!(route.hops.as_slice(), [hop] if hop.kind == LinkKind::Mwsr))
    }

    /// Whether any route traverses an SWMR link (not yet supported by the
    /// scenario engines).
    #[must_use]
    pub fn uses_swmr(&self) -> bool {
        self.routes
            .values()
            .any(|route| route.hops.iter().any(|hop| hop.kind == LinkKind::Swmr))
    }
}

/// Deterministic all-pairs router: shortest path in hops, ties broken by
/// the lexicographically smallest `(node, link)` sequence.
///
/// Determinism is structural, not incidental: the topology's canonical link
/// order plus the lexicographic tie-break make the result a pure function
/// of the *fabric*, invariant under link declaration order and thread
/// count (property-tested in `tests/router.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Router;

impl Router {
    /// Computes the route table for every ordered pair of distinct nodes.
    ///
    /// Strong connectivity is a [`Topology`] construction invariant, so
    /// every pair resolves.
    #[must_use]
    pub fn resolve(topology: &Topology) -> RouteTable {
        let nodes = topology.node_count();
        // Forward adjacency: node -> sorted (next node, link index).
        let mut adjacency: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes];
        for (index, link) in topology.links().iter().enumerate() {
            for (from, to) in link.edges() {
                adjacency[from].push((to, index));
            }
        }
        for edges in &mut adjacency {
            edges.sort_unstable();
        }

        let mut routes = BTreeMap::new();
        for destination in 0..nodes {
            let rdist = reverse_distances(topology, destination);
            for source in 0..nodes {
                if source == destination {
                    continue;
                }
                let route = walk(topology, &adjacency, &rdist, source, destination);
                routes.insert((source, destination), route);
            }
        }
        RouteTable { routes }
    }
}

/// Breadth-first hop distances *to* `destination` along forward edges.
fn reverse_distances(topology: &Topology, destination: usize) -> Vec<usize> {
    let nodes = topology.node_count();
    // Reverse adjacency: to -> froms.
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    for link in topology.links() {
        for (from, to) in link.edges() {
            reverse[to].push(from);
        }
    }
    let mut distance = vec![usize::MAX; nodes];
    distance[destination] = 0;
    let mut frontier = std::collections::VecDeque::from([destination]);
    while let Some(node) = frontier.pop_front() {
        for &from in &reverse[node] {
            if distance[from] == usize::MAX {
                distance[from] = distance[node] + 1;
                frontier.push_back(from);
            }
        }
    }
    distance
}

/// Walks the lexicographically smallest shortest path: at every step take
/// the smallest `(next node, link)` that still lies on *a* shortest path.
fn walk(
    topology: &Topology,
    adjacency: &[Vec<(usize, usize)>],
    rdist: &[usize],
    source: usize,
    destination: usize,
) -> Route {
    debug_assert_ne!(
        rdist[source],
        usize::MAX,
        "strong connectivity is a Topology invariant"
    );
    let mut hops = Vec::with_capacity(rdist[source]);
    let mut current = source;
    while current != destination {
        let (next, link) = adjacency[current]
            .iter()
            .copied()
            .find(|&(next, _)| rdist[next] + 1 == rdist[current])
            .expect("a node on a shortest path has a next hop");
        hops.push(Hop {
            node: next,
            link,
            kind: topology.links()[link].kind,
        });
        current = next;
    }
    Route {
        source,
        destination,
        hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::LinkSpec;

    #[test]
    fn single_ring_routes_are_all_one_photonic_hop() {
        let fabric = Topology::single_ring(4);
        let table = Router::resolve(&fabric);
        assert_eq!(table.len(), 12);
        assert!(table.is_single_hop());
        assert!(!table.uses_swmr());
        for route in table.iter() {
            assert_eq!(route.hop_count(), 1);
            assert_eq!(route.electrical_hops(), 0);
            let hop = route.hops[0];
            assert_eq!(hop.node, route.destination);
            assert_eq!(hop.kind, LinkKind::Mwsr);
            assert_eq!(
                Some(hop.link),
                fabric.reader_link(route.destination),
                "the one hop rides the destination's reader channel"
            );
        }
    }

    #[test]
    fn a_one_hop_electrical_route_is_not_single_hop() {
        // Node 2 reads only node 0, so 1 -> 2 takes the wire in one hop.
        let fabric = Topology::new(
            3,
            vec![
                LinkSpec::mwsr(0, [1, 2], 0),
                LinkSpec::mwsr(1, [0, 2], 1),
                LinkSpec::mwsr(2, [0], 2),
                LinkSpec::electrical(1, 2),
            ],
        )
        .expect("a strongly connected 3-node fabric");
        let table = Router::resolve(&fabric);
        assert_eq!(table.max_hops(), 1);
        assert_eq!(table.route(1, 2).electrical_hops(), 1);
        assert!(!table.is_single_hop());
    }

    #[test]
    fn hybrid_mesh_routes_cross_clusters_through_gateways() {
        let fabric = Topology::hybrid_mesh(8, 4);
        let table = Router::resolve(&fabric);
        assert!(!table.is_single_hop());
        assert_eq!(table.max_hops(), 3);

        // Intra-cluster: one photonic hop.
        assert_eq!(table.route(1, 2).hop_count(), 1);

        // Cross-cluster from a non-gateway to a non-gateway: to own
        // gateway (photonic), across (electrical), to destination.
        let route = table.route(1, 6);
        assert_eq!(route.hop_count(), 3);
        assert_eq!(
            route.hops.iter().map(|h| h.node).collect::<Vec<_>>(),
            vec![0, 4, 6]
        );
        assert_eq!(
            route.hops.iter().map(|h| h.kind).collect::<Vec<_>>(),
            vec![LinkKind::Mwsr, LinkKind::Electrical, LinkKind::Mwsr]
        );
        assert_eq!(route.electrical_hops(), 1);

        // Gateway to gateway: a single electrical hop.
        assert_eq!(table.route(0, 4).hop_count(), 1);
        assert_eq!(table.route(0, 4).hops[0].kind, LinkKind::Electrical);
    }

    #[test]
    fn ties_break_toward_the_smallest_node_sequence() {
        // A diamond: 0 can reach 3 via 1 or via 2, both two hops.  The
        // router must pick the path through node 1.
        let fabric = Topology::new(
            4,
            vec![
                LinkSpec::mwsr(0, [1, 2, 3], 0),
                LinkSpec::mwsr(1, [0], 0),
                LinkSpec::mwsr(2, [0], 0),
                LinkSpec::mwsr(3, [1, 2], 0),
            ],
        )
        .expect("valid");
        let table = Router::resolve(&fabric);
        let route = table.route(0, 3);
        assert_eq!(route.hop_count(), 2);
        assert_eq!(route.hops[0].node, 1);
    }

    #[test]
    fn swmr_links_are_routed_and_flagged() {
        let fabric = Topology::new(
            3,
            vec![
                LinkSpec::mwsr(0, [1, 2], 0),
                LinkSpec::mwsr(1, [0], 0),
                LinkSpec::mwsr(2, [0], 0),
                LinkSpec::swmr(1, [2], 1),
            ],
        )
        .expect("valid");
        let table = Router::resolve(&fabric);
        assert!(table.uses_swmr());
        assert_eq!(table.route(1, 2).hops[0].kind, LinkKind::Swmr);
    }

    #[test]
    fn route_lookup_panics_outside_the_table() {
        let table = Router::resolve(&Topology::single_ring(2));
        let result = std::panic::catch_unwind(|| table.route(0, 0).hop_count());
        assert!(result.is_err());
    }
}
