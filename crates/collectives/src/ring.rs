//! Ring construction over a set of GCDs.
//!
//! RCCL builds its rings from a topology search at communicator creation.
//! On the MI250X node the full eight-GCD set admits Hamiltonian cycles that
//! use only direct xGMI links; we find the best one by brute force
//! (minimize the worst edge, then total cost). Sub-node communicators fall
//! back to a generic device-order ring whose edges may need multi-hop
//! routes — reproducing the paper's Fig. 12 observation that Reduce,
//! Broadcast and AllReduce get *faster* when going from seven to eight
//! GPUs ("more balanced communication pattern when all eight GPUs are
//! used").

use ifsim_topology::{GcdId, NodeTopology, RoutePolicy, Router};

/// A directed communication ring: `order[i]` sends to `order[(i+1) % n]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ring {
    /// GCDs in ring order.
    pub order: Vec<GcdId>,
}

impl Ring {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The successor of the member at `pos`.
    pub fn next(&self, pos: usize) -> GcdId {
        self.order[(pos + 1) % self.order.len()]
    }

    /// Worst edge cost over the ring: `(max hops, max 1/bottleneck-bw)`
    /// under bandwidth-maximizing routing.
    pub fn worst_edge(&self, topo: &NodeTopology, router: &Router) -> (usize, f64) {
        let mut hops = 0;
        let mut inv_bw: f64 = 0.0;
        for i in 0..self.order.len() {
            let (h, inv) = edge_cost(topo, router, self.order[i], self.next(i));
            hops = hops.max(h);
            inv_bw = inv_bw.max(inv);
        }
        (hops, inv_bw)
    }
}

/// Build the communicator ring for a set of GCDs.
///
/// - Full node (all GCDs of `topo`): brute-force the Hamiltonian cycle
///   minimizing `(worst edge hops, worst edge 1/bw, total hops)` — the
///   topology-search result.
/// - Subset: generic ring in device order (RCCL's fallback orderings do not
///   match the hardware ring; modeled as the identity order).
pub fn build_ring(topo: &NodeTopology, router: &Router, gcds: &[GcdId]) -> Ring {
    assert!(gcds.len() >= 2, "a ring needs at least two members");
    let mut sorted = gcds.to_vec();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), gcds.len(), "duplicate ring members");
    if sorted.len() == topo.n_gcds() {
        optimal_ring(topo, router, &sorted)
    } else {
        Ring { order: sorted }
    }
}

/// Cost of one directed ring edge.
fn edge_cost(topo: &NodeTopology, router: &Router, a: GcdId, b: GcdId) -> (usize, f64) {
    let p = router.gcd_route(a, b, RoutePolicy::MaxBandwidth);
    (p.hops(), 1.0 / p.bottleneck_per_dir(topo))
}

fn optimal_ring(topo: &NodeTopology, router: &Router, members: &[GcdId]) -> Ring {
    // Every directed edge's cost, computed once (`cost[a * n + b]` for
    // member indices): the search below scores from this table instead of
    // querying the router.
    let n = members.len();
    let cost: Vec<(usize, f64)> = members
        .iter()
        .flat_map(|&a| {
            members.iter().map(move |&b| {
                if a == b {
                    (0, 0.0)
                } else {
                    edge_cost(topo, router, a, b)
                }
            })
        })
        .collect();
    // Fix the first member; permute the rest. n = 8 → 7! = 5040 candidates,
    // enumerated in a fixed order; a later candidate wins only if strictly
    // better, so ties keep the first.
    let mut order: Vec<usize> = (0..n).collect();
    let mut best: Option<(RingScore, Vec<usize>)> = None;
    permute(&mut order, 1, &mut |order| {
        let score = score_ring(&cost, n, order);
        match &best {
            Some((bs, _)) if *bs <= score => {}
            _ => best = Some((score, order.to_vec())),
        }
    });
    Ring {
        order: best
            .expect("at least one permutation")
            .1
            .into_iter()
            .map(|i| members[i])
            .collect(),
    }
}

/// `(worst hops, worst 1/bw bits, total hops)` — lower is better.
type RingScore = (usize, u64, usize);

fn score_ring(cost: &[(usize, f64)], n: usize, order: &[usize]) -> RingScore {
    let mut worst_hops = 0;
    let mut worst_inv_bw: f64 = 0.0;
    let mut total_hops = 0;
    let edges = order.windows(2).map(|e| (e[0], e[1]));
    for (a, b) in edges.chain([(order[n - 1], order[0])]) {
        let (h, inv) = cost[a * n + b];
        worst_hops = worst_hops.max(h);
        worst_inv_bw = worst_inv_bw.max(inv);
        total_hops += h;
    }
    (worst_hops, worst_inv_bw.to_bits(), total_hops)
}

fn permute(items: &mut [usize], k: usize, f: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, f);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_topology::{HealthMap, LinkHealth, LinkId, LinkKind, PortId};

    fn setup() -> (NodeTopology, Router) {
        let t = NodeTopology::frontier();
        let r = Router::new(&t);
        (t, r)
    }

    fn all_gcds(t: &NodeTopology) -> Vec<GcdId> {
        t.gcds().collect()
    }

    #[test]
    fn full_node_ring_uses_only_direct_links() {
        let (t, r) = setup();
        let ring = build_ring(&t, &r, &all_gcds(&t));
        assert_eq!(ring.len(), 8);
        for i in 0..8 {
            let a = ring.order[i];
            let b = ring.next(i);
            assert!(
                t.xgmi_width(a, b).is_some(),
                "full-node ring edge {a}->{b} is not a direct link: {:?}",
                ring.order
            );
        }
    }

    #[test]
    fn full_node_ring_visits_every_gcd_once() {
        let (t, r) = setup();
        let ring = build_ring(&t, &r, &all_gcds(&t));
        let mut seen: Vec<u8> = ring.order.iter().map(|g| g.0).collect();
        seen.sort();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn subset_rings_use_device_order() {
        let (t, r) = setup();
        let members: Vec<GcdId> = [0u8, 3, 5].iter().map(|&g| GcdId(g)).collect();
        let ring = build_ring(&t, &r, &members);
        assert_eq!(ring.order, members);
    }

    #[test]
    fn seven_gcd_generic_ring_has_multi_hop_edges() {
        // The mechanism behind the 7→8 latency dip: the generic ring over
        // seven GCDs crosses non-adjacent pairs.
        let (t, r) = setup();
        let members: Vec<GcdId> = (0..7u8).map(GcdId).collect();
        let ring = build_ring(&t, &r, &members);
        let multi_hop = (0..ring.len())
            .filter(|&i| t.xgmi_width(ring.order[i], ring.next(i)).is_none())
            .count();
        assert!(multi_hop > 0, "generic 7-ring should have indirect edges");
    }

    #[test]
    fn two_member_ring_is_direct_for_same_package() {
        let (t, r) = setup();
        let ring = build_ring(&t, &r, &[GcdId(0), GcdId(1)]);
        assert_eq!(ring.order, vec![GcdId(0), GcdId(1)]);
        assert!(t.xgmi_width(GcdId(0), GcdId(1)).is_some());
    }

    /// The full-node ring under `health`, as GCD numbers.
    fn full_ring_with(t: &NodeTopology, health: &HealthMap) -> Vec<u8> {
        let r = Router::new_with_health(t, health);
        build_ring(t, &r, &all_gcds(t))
            .order
            .iter()
            .map(|g| g.0)
            .collect()
    }

    #[test]
    fn full_node_ring_order_is_pinned_for_every_single_link_down() {
        // Expected orders come from a brute-force search that queried the
        // router for every edge of every candidate. The table-scored search
        // must pick the same ring on a healthy Frontier node and with each
        // xGMI link down in turn (links in topology order).
        let t = NodeTopology::frontier();
        assert_eq!(
            full_ring_with(&t, &HealthMap::healthy(&t)),
            [0, 1, 3, 2, 4, 5, 7, 6]
        );
        let expected: [(u8, u8, [u8; 8]); 12] = [
            (0, 1, [0, 2, 4, 5, 1, 3, 7, 6]),
            (2, 3, [0, 2, 4, 5, 1, 3, 7, 6]),
            (4, 5, [0, 1, 5, 7, 3, 2, 4, 6]),
            (6, 7, [0, 1, 5, 7, 3, 2, 4, 6]),
            (0, 6, [0, 1, 5, 4, 6, 7, 3, 2]),
            (2, 4, [0, 1, 5, 4, 6, 7, 3, 2]),
            (0, 2, [0, 1, 3, 2, 4, 5, 7, 6]),
            (1, 3, [0, 1, 5, 4, 2, 3, 7, 6]),
            (1, 5, [0, 1, 3, 2, 4, 5, 7, 6]),
            (3, 7, [0, 1, 3, 2, 4, 5, 7, 6]),
            (4, 6, [0, 1, 3, 2, 4, 5, 7, 6]),
            (5, 7, [0, 1, 5, 4, 2, 3, 7, 6]),
        ];
        let xgmi: Vec<LinkId> = (0..t.links().len() as u32)
            .map(LinkId)
            .filter(|&l| matches!(t.link(l).kind, LinkKind::Xgmi(_)))
            .collect();
        assert_eq!(xgmi.len(), expected.len());
        for (link, (a, b, ring)) in xgmi.into_iter().zip(expected) {
            let spec = t.link(link);
            assert_eq!(
                (spec.a, spec.b),
                (PortId::Gcd(GcdId(a)), PortId::Gcd(GcdId(b)))
            );
            let mut health = HealthMap::healthy(&t);
            health.set(link, LinkHealth::Down);
            assert_eq!(full_ring_with(&t, &health), ring, "link {a}-{b} down");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate ring members")]
    fn duplicate_members_rejected() {
        let (t, r) = setup();
        let _ = build_ring(&t, &r, &[GcdId(0), GcdId(0)]);
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn singleton_ring_rejected() {
        let (t, r) = setup();
        let _ = build_ring(&t, &r, &[GcdId(0)]);
    }
}
