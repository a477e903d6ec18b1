//! Property-based tests for the graph substrate: CSR layout, link-id
//! bijection, and connectivity against a union-find oracle.

use jellyfish_topology::{Graph, GraphBuilder};
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a random simple edge list over up to 24 nodes.
fn edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..24).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..60).prop_map(move |raw| {
                let mut seen = HashSet::new();
                let mut out = Vec::new();
                for (a, b) in raw {
                    if a == b {
                        continue;
                    }
                    let e = (a.min(b), a.max(b));
                    if seen.insert(e) {
                        out.push(e);
                    }
                }
                out
            });
        (Just(n), edges)
    })
}

/// Tiny union-find for the connectivity oracle.
struct Uf(Vec<usize>);

impl Uf {
    fn new(n: usize) -> Self {
        Uf((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let r = self.find(self.0[x]);
            self.0[x] = r;
        }
        self.0[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.0[ra] = rb;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_preserves_edge_set((n, edges) in edge_list()) {
        let g = Graph::from_edges(n, &edges);
        prop_assert_eq!(g.num_edges(), edges.len());
        let set: HashSet<(u32, u32)> = edges.iter().copied().collect();
        // Every listed edge is present, in both directions.
        for &(u, v) in &edges {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
        }
        // No phantom edges.
        let recovered: HashSet<(u32, u32)> = g.edges().collect();
        prop_assert_eq!(recovered, set);
    }

    #[test]
    fn link_ids_are_a_bijection((n, edges) in edge_list()) {
        let g = Graph::from_edges(n, &edges);
        let mut seen = HashSet::new();
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                let l = g.link_id(u, v).expect("adjacent");
                prop_assert!(seen.insert(l), "duplicate link id {l}");
                prop_assert_eq!(g.link_src(l), u);
                prop_assert_eq!(g.link_dst(l), v);
                // reverse is an involution.
                let r = g.reverse_link(l);
                prop_assert_eq!(g.reverse_link(r), l);
            }
        }
        prop_assert_eq!(seen.len(), g.num_links());
        prop_assert!(seen.iter().all(|&l| (l as usize) < g.num_links()));
    }

    #[test]
    fn reverse_table_matches_binary_search_definition((n, edges) in edge_list()) {
        let g = Graph::from_edges(n, &edges);
        for u in 0..n as u32 {
            for l in g.out_links(u) {
                let v = g.link_dst(l);
                // The definition the stored table replaces: look `v -> u`
                // up by binary search over `v`'s sorted adjacency.
                let expected = g.link_id(v, u).expect("undirected graph has the reverse");
                let r = g.reverse_link(l);
                prop_assert_eq!(r, expected, "link {} ({}->{})", l, u, v);
                prop_assert_eq!(g.reverse_link(r), l);
                prop_assert_eq!(g.link_dst(r), g.link_src(l));
                prop_assert_eq!(g.link_src(l), u);
            }
        }
    }

    #[test]
    fn degrees_sum_to_twice_edges((n, edges) in edge_list()) {
        let g = Graph::from_edges(n, &edges);
        let total: usize = (0..n as u32).map(|u| g.degree(u)).sum();
        prop_assert_eq!(total, 2 * g.num_edges());
    }

    #[test]
    fn connectivity_matches_union_find((n, edges) in edge_list()) {
        let g = Graph::from_edges(n, &edges);
        let mut uf = Uf::new(n);
        for &(u, v) in &edges {
            uf.union(u as usize, v as usize);
        }
        let root = uf.find(0);
        let connected = (1..n).all(|v| uf.find(v) == root);
        prop_assert_eq!(g.is_connected(), connected);
    }

    #[test]
    fn builder_and_from_edges_agree((n, edges) in edge_list()) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        prop_assert_eq!(b.build(), Graph::from_edges(n, &edges));
    }
}
