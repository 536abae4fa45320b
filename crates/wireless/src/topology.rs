//! Network topology for the multi-hop extension.
//!
//! The paper's evaluation is single-hop ("all nodes within each other's
//! transmission range"); extending SSTSP to multi-hop networks is its
//! stated future work. This module supplies the substrate: a static
//! connectivity graph with unit-disk and synthetic generators, adjacency
//! queries for the channel model, and BFS utilities (connectivity, hop
//! distances) for the experiments that measure error growth per hop.

use rand::Rng;
use std::collections::VecDeque;

/// A static connectivity graph over stations `0..n`.
#[derive(Debug, Clone)]
pub struct Topology {
    n: u32,
    /// Sorted neighbor lists.
    adj: Vec<Vec<u32>>,
}

impl Topology {
    /// Build from an explicit undirected edge list.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or self-loops.
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Self {
        let mut adj = vec![Vec::new(); n as usize];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            assert_ne!(a, b, "self-loops are not meaningful");
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Topology { n, adj }
    }

    /// The single-hop IBSS: every pair connected.
    pub fn full(n: u32) -> Self {
        let mut adj = Vec::with_capacity(n as usize);
        for i in 0..n {
            adj.push((0..n).filter(|&j| j != i).collect());
        }
        Topology { n, adj }
    }

    /// A line (path) of `n` stations — the worst case for per-hop error
    /// accumulation: diameter n−1.
    pub fn line(n: u32) -> Self {
        let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Self::from_edges(n, &edges)
    }

    /// A `cols × rows` grid with 4-neighborhood.
    pub fn grid(cols: u32, rows: u32) -> Self {
        let n = cols * rows;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    edges.push((i, i + 1));
                }
                if r + 1 < rows {
                    edges.push((i, i + cols));
                }
            }
        }
        Self::from_edges(n, &edges)
    }

    /// A ring (cycle) of `n` stations: diameter ⌊n/2⌋, every degree 2.
    ///
    /// # Panics
    /// Panics for `n < 3` — smaller rings degenerate to a line or a
    /// self-loop.
    pub fn ring(n: u32) -> Self {
        assert!(n >= 3, "a ring needs at least 3 stations");
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Self::from_edges(n, &edges)
    }

    /// Unit-disk graph: stations uniform in a `side × side` area, connected
    /// within `range`. Retries until connected (up to 64 attempts).
    ///
    /// # Panics
    /// Panics if no connected placement is found — pick a larger range or
    /// smaller area.
    pub fn random_disk<R: Rng + ?Sized>(n: u32, side: f64, range: f64, rng: &mut R) -> Self {
        Self::try_random_disk(n, side, range, rng, 64).unwrap_or_else(|| {
            panic!("no connected unit-disk placement found for n={n}, side={side}, range={range}")
        })
    }

    /// Fallible [`Topology::random_disk`]: draws up to `max_attempts`
    /// placements and returns the first connected one, or `None` if every
    /// draw produced a disconnected graph. Disconnected placements are
    /// *rejected and regenerated*, never returned — callers that get
    /// `Some` hold a connected graph by construction.
    pub fn try_random_disk<R: Rng + ?Sized>(
        n: u32,
        side: f64,
        range: f64,
        rng: &mut R,
        max_attempts: u32,
    ) -> Option<Self> {
        for _ in 0..max_attempts {
            let pos: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.random_range(0.0..side), rng.random_range(0.0..side)))
                .collect();
            let mut edges = Vec::new();
            for i in 0..n as usize {
                for j in i + 1..n as usize {
                    let dx = pos[i].0 - pos[j].0;
                    let dy = pos[i].1 - pos[j].1;
                    if (dx * dx + dy * dy).sqrt() <= range {
                        edges.push((i as u32, j as u32));
                    }
                }
            }
            let t = Self::from_edges(n, &edges);
            if t.is_connected() {
                return Some(t);
            }
        }
        None
    }

    /// An explicit multi-collision-domain union: `domains` island cells of
    /// `cols × rows` stations each, joined in a chain by `domains − 1`
    /// bridge stations appended at the end of the id space.
    ///
    /// Island `k` owns ids `[k·cols·rows, (k+1)·cols·rows)`, laid out as a
    /// `cols × rows` cell whose stations are all in mutual radio range —
    /// each island is a *true* collision domain (a clique), which is what
    /// makes the returned decomposition ground truth rather than an
    /// approximation. Bridge `j` (id `domains·cols·rows + j`) carries a
    /// longer-range gateway radio and is adjacent to **every** member of
    /// islands `j` and `j + 1` — whichever station a domain elects as its
    /// reference, the bridge can hear it and be heard by it. Bridges are
    /// not adjacent to each other.
    ///
    /// Returns the graph together with its ground-truth
    /// [`DomainDecomposition`] (bridge `j` is assigned to domain `j`).
    ///
    /// # Panics
    /// Panics unless `domains ≥ 2` and each island has at least one
    /// station.
    pub fn bridged(domains: u32, cols: u32, rows: u32) -> (Self, DomainDecomposition) {
        assert!(domains >= 2, "a bridged mesh needs at least two domains");
        let island = cols * rows;
        assert!(island >= 1, "each island needs at least one station");
        let n = domains * island + (domains - 1);
        let mut edges = Vec::new();
        for k in 0..domains {
            let base = k * island;
            for i in 0..island {
                for j in (i + 1)..island {
                    edges.push((base + i, base + j));
                }
            }
        }
        let bridge_base = domains * island;
        for j in 0..domains - 1 {
            let b = bridge_base + j;
            for k in [j, j + 1] {
                for i in k * island..(k + 1) * island {
                    edges.push((b, i));
                }
            }
        }
        let topo = Self::from_edges(n, &edges);
        let mut members: Vec<Vec<u32>> = (0..domains)
            .map(|k| (k * island..(k + 1) * island).collect())
            .collect();
        for j in 0..domains - 1 {
            members[j as usize].push(bridge_base + j);
        }
        let decomp = DomainDecomposition::from_partition(members, &topo);
        (topo, decomp)
    }

    /// Greedy maximal-clique collision-domain partition.
    ///
    /// Scanning stations in id order, each uncovered station seeds a new
    /// domain and greedily absorbs its uncovered neighbors (in id order)
    /// that are adjacent to every station already in the domain — so every
    /// domain is a clique, i.e. a true single-collision-domain cell, and
    /// every station lands in exactly one domain. Deterministic for a
    /// given graph.
    pub fn clique_domains(&self) -> DomainDecomposition {
        let mut covered = vec![false; self.n as usize];
        let mut domains: Vec<Vec<u32>> = Vec::new();
        for seed in 0..self.n {
            if covered[seed as usize] {
                continue;
            }
            covered[seed as usize] = true;
            let mut clique = vec![seed];
            for &v in self.neighbors(seed) {
                if covered[v as usize] {
                    continue;
                }
                if clique.iter().all(|&u| self.are_neighbors(u, v)) {
                    covered[v as usize] = true;
                    clique.push(v);
                }
            }
            clique.sort_unstable();
            domains.push(clique);
        }
        DomainDecomposition::from_partition(domains, self)
    }

    /// Number of stations.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// True for the degenerate empty graph.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sorted neighbors of `i`.
    pub fn neighbors(&self, i: u32) -> &[u32] {
        &self.adj[i as usize]
    }

    /// Whether `i` and `j` are within range of each other.
    pub fn are_neighbors(&self, i: u32, j: u32) -> bool {
        self.adj[i as usize].binary_search(&j).is_ok()
    }

    /// BFS hop distances from `src` (`u32::MAX` = unreachable).
    pub fn hops_from(&self, src: u32) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n as usize];
        let mut q = VecDeque::new();
        dist[src as usize] = 0;
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            for &v in self.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether every station can reach every other.
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        self.hops_from(0).iter().all(|&d| d != u32::MAX)
    }

    /// Graph diameter (longest shortest path); `None` if disconnected.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = 0;
        for i in 0..self.n {
            let d = self.hops_from(i);
            let far = *d.iter().max()?;
            if far == u32::MAX {
                return None;
            }
            best = best.max(far);
        }
        Some(best)
    }

    /// Mean node degree.
    pub fn mean_degree(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.adj.iter().map(|a| a.len()).sum::<usize>() as f64 / self.n as f64
    }
}

/// A partition of a [`Topology`]'s stations into collision domains.
///
/// Every station belongs to exactly one domain; an edge either stays
/// inside one domain or *bridges* exactly two (its endpoints' domains).
/// The gateway stations a per-domain reference election relays time
/// through are listed in [`bridges`](Self::bridges): a station is a
/// bridge iff it is adjacent to **every non-bridge member** of at least
/// two domains — it can hear whichever station either domain elects as
/// its reference, and be heard by it, which mere incidence to one
/// cross-domain edge does not guarantee. (Bridges themselves never
/// contend to become a domain's reference, so they are excluded from the
/// coverage requirement; the set is computed as a monotone fixpoint.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainDecomposition {
    /// Sorted member ids per domain, in domain order.
    pub domains: Vec<Vec<u32>>,
    /// Station id → index into [`domains`](Self::domains).
    pub domain_of: Vec<u32>,
    /// Sorted ids of gateway stations (adjacent to every non-bridge
    /// member of at least two domains).
    pub bridges: Vec<u32>,
}

impl DomainDecomposition {
    /// Build from an explicit partition, deriving the reverse map and the
    /// bridge set from `topology`.
    ///
    /// # Panics
    /// Panics if `domains` is not a partition of `0..topology.len()` (a
    /// station missing, repeated, or out of range) or any domain is empty.
    pub fn from_partition(domains: Vec<Vec<u32>>, topology: &Topology) -> Self {
        let n = topology.len() as usize;
        let mut domain_of = vec![u32::MAX; n];
        for (d, members) in domains.iter().enumerate() {
            assert!(!members.is_empty(), "domain {d} is empty");
            for &m in members {
                assert!((m as usize) < n, "station {m} out of range");
                assert_eq!(
                    domain_of[m as usize],
                    u32::MAX,
                    "station {m} assigned to two domains"
                );
                domain_of[m as usize] = d as u32;
            }
        }
        assert!(
            domain_of.iter().all(|&d| d != u32::MAX),
            "partition does not cover every station"
        );
        let mut domains = domains;
        for members in &mut domains {
            members.sort_unstable();
        }
        // Monotone fixpoint: marking a station as a bridge only relaxes the
        // coverage requirement for others, so iterate until stable (≤ n
        // passes).
        let mut is_bridge = vec![false; n];
        loop {
            let mut changed = false;
            for i in 0..topology.len() {
                if is_bridge[i as usize] {
                    continue;
                }
                let dominated = domains
                    .iter()
                    .filter(|members| {
                        members.iter().all(|&m| {
                            m == i || is_bridge[m as usize] || topology.are_neighbors(i, m)
                        })
                    })
                    .count();
                if dominated >= 2 {
                    is_bridge[i as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let bridges: Vec<u32> = (0..topology.len())
            .filter(|&i| is_bridge[i as usize])
            .collect();
        DomainDecomposition {
            domains,
            domain_of,
            bridges,
        }
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True for the degenerate empty decomposition.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// The domain of station `i`.
    pub fn domain_of(&self, i: u32) -> u32 {
        self.domain_of[i as usize]
    }

    /// Whether station `i` has a neighbor in a foreign domain.
    pub fn is_bridge(&self, i: u32) -> bool {
        self.bridges.binary_search(&i).is_ok()
    }
}

/// Domain-major index permutation over a [`DomainDecomposition`]: every
/// station id, laid out so each domain's members occupy one contiguous
/// range (members ascending within a domain, domains in decomposition
/// order). The mesh resolver iterates per-domain state as contiguous
/// slices through this order instead of chasing `domain_of` lookups, and
/// [`pos_of`](Self::pos_of) inverts the permutation exactly — a proptest
/// pins the round-trip for arbitrary decompositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainOrder {
    /// Position → station id (the permutation itself).
    perm: Vec<u32>,
    /// Station id → position in [`perm`](Self::perm).
    pos_of: Vec<u32>,
    /// Per-domain `(start, end)` ranges into `perm`, in domain order.
    ranges: Vec<(u32, u32)>,
}

impl DomainOrder {
    /// Build the domain-major order for `decomp`.
    pub fn new(decomp: &DomainDecomposition) -> Self {
        let n = decomp.domain_of.len();
        let mut perm = Vec::with_capacity(n);
        let mut pos_of = vec![u32::MAX; n];
        let mut ranges = Vec::with_capacity(decomp.len());
        for members in &decomp.domains {
            let start = perm.len() as u32;
            for &id in members {
                pos_of[id as usize] = perm.len() as u32;
                perm.push(id);
            }
            ranges.push((start, perm.len() as u32));
        }
        debug_assert_eq!(perm.len(), n, "decomposition covers every station");
        DomainOrder {
            perm,
            pos_of,
            ranges,
        }
    }

    /// Number of domains.
    pub fn num_domains(&self) -> usize {
        self.ranges.len()
    }

    /// Station ids of domain `d`, ascending (a contiguous slice of the
    /// permutation — identical to the decomposition's member list).
    pub fn members(&self, d: usize) -> &[u32] {
        let (start, end) = self.ranges[d];
        &self.perm[start as usize..end as usize]
    }

    /// The full permutation, domain-major.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Position of station `id` in the permutation.
    pub fn pos_of(&self, id: u32) -> u32 {
        self.pos_of[id as usize]
    }

    /// Station at position `pos` of the permutation.
    pub fn id_at(&self, pos: u32) -> u32 {
        self.perm[pos as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn full_graph_connects_everyone() {
        let t = Topology::full(5);
        assert_eq!(t.len(), 5);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Some(1));
        assert_eq!(t.neighbors(2), &[0, 1, 3, 4]);
        assert!(t.are_neighbors(0, 4));
        assert!(!t.are_neighbors(3, 3));
    }

    #[test]
    fn line_has_expected_diameter() {
        let t = Topology::line(7);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Some(6));
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.neighbors(3), &[2, 4]);
        let d = t.hops_from(0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn grid_structure() {
        let t = Topology::grid(4, 3);
        assert_eq!(t.len(), 12);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Some(5)); // (4-1) + (3-1)
                                           // Corner has 2 neighbors, center has 4.
        assert_eq!(t.neighbors(0).len(), 2);
        assert_eq!(t.neighbors(5).len(), 4);
    }

    #[test]
    fn from_edges_dedups_and_sorts() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(t.neighbors(1), &[0, 2]);
        assert_eq!(t.mean_degree(), 4.0 / 3.0);
    }

    #[test]
    fn disconnected_detected() {
        let t = Topology::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!t.is_connected());
        assert_eq!(t.diameter(), None);
        assert_eq!(t.hops_from(0)[2], u32::MAX);
    }

    #[test]
    fn random_disk_is_connected_and_ranged() {
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let t = Topology::random_disk(30, 100.0, 35.0, &mut rng);
        assert!(t.is_connected());
        assert!(t.diameter().unwrap() >= 2, "should be genuinely multi-hop");
    }

    #[test]
    fn ring_structure() {
        let t = Topology::ring(6);
        assert_eq!(t.len(), 6);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Some(3));
        assert_eq!(t.neighbors(0), &[1, 5]);
        assert_eq!(t.neighbors(3), &[2, 4]);
        assert!((0..6).all(|i| t.neighbors(i).len() == 2));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_rejected() {
        let _ = Topology::ring(2);
    }

    #[test]
    fn bridged_two_domains() {
        let (t, d) = Topology::bridged(2, 3, 2);
        assert_eq!(t.len(), 13);
        assert!(t.is_connected());
        assert_eq!(d.len(), 2);
        assert_eq!(d.bridges, vec![12]);
        assert!(d.is_bridge(12));
        assert!(!d.is_bridge(0));
        // The bridge hears every station of both islands.
        assert_eq!(t.neighbors(12), (0..12).collect::<Vec<_>>().as_slice());
        // Islands are only reachable through the bridge.
        assert!(!t.are_neighbors(0, 6));
        assert_eq!(d.domain_of(0), 0);
        assert_eq!(d.domain_of(6), 1);
        assert_eq!(d.domain_of(12), 0, "bridge j is assigned to domain j");
        assert_eq!(d.domains[0], vec![0, 1, 2, 3, 4, 5, 12]);
        assert_eq!(d.domains[1], vec![6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn bridged_three_domains_chain() {
        let (t, d) = Topology::bridged(3, 2, 2);
        assert_eq!(t.len(), 3 * 4 + 2);
        assert!(t.is_connected());
        assert_eq!(d.len(), 3);
        assert_eq!(d.bridges, vec![12, 13]);
        // Bridges are not adjacent to each other.
        assert!(!t.are_neighbors(12, 13));
        // Bridge 13 joins islands 1 and 2.
        assert!(t.are_neighbors(13, 4) && t.are_neighbors(13, 8));
        assert!(!t.are_neighbors(13, 0));
    }

    #[test]
    fn clique_domains_partition_the_graph() {
        let (t, _) = Topology::bridged(2, 3, 2);
        let d = t.clique_domains();
        let mut seen = vec![false; t.len() as usize];
        for members in &d.domains {
            assert!(!members.is_empty());
            for &m in members {
                assert!(!seen[m as usize]);
                seen[m as usize] = true;
            }
            // Every domain is a clique.
            for &a in members {
                for &b in members {
                    assert!(a == b || t.are_neighbors(a, b), "{a} and {b} not adjacent");
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
        // The full graph collapses to a single domain with no bridges.
        let full = Topology::full(6).clique_domains();
        assert_eq!(full.len(), 1);
        assert!(full.bridges.is_empty());
    }

    #[test]
    fn try_random_disk_rejects_impossible_placements() {
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        // Range far too small to connect 10 stations over a 1000-unit side.
        assert!(Topology::try_random_disk(10, 1000.0, 1.0, &mut rng, 8).is_none());
        // A generous range succeeds.
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let t = Topology::try_random_disk(10, 100.0, 60.0, &mut rng, 8).unwrap();
        assert!(t.is_connected());
    }

    #[test]
    #[should_panic(expected = "assigned to two domains")]
    fn overlapping_partition_rejected() {
        let t = Topology::line(4);
        let _ = DomainDecomposition::from_partition(vec![vec![0, 1], vec![1, 2, 3]], &t);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn incomplete_partition_rejected() {
        let t = Topology::line(4);
        let _ = DomainDecomposition::from_partition(vec![vec![0, 1], vec![2]], &t);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let _ = Topology::from_edges(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = Topology::from_edges(2, &[(0, 5)]);
    }
}
