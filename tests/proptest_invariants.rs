//! Property-based tests over the core data structures and algorithms.
//!
//! These complement the unit tests with randomized coverage: arbitrary
//! topology parameters, arbitrary pair/k choices, and randomized seeds,
//! checking the structural invariants the rest of the system relies on.

use jellyfish_routing::{
    edge_disjoint_paths, k_shortest_paths, shortest_path, Mask, PairSet, PathSelection, PathTable,
    TieBreak,
};
use jellyfish_topology::{build_rrg, ConstructionMethod, RrgParams};
use jellyfish_traffic::{random_permutation, random_x, shift, StencilApp, StencilKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameter strategy: y-regular graphs that are valid and small enough
/// to exercise quickly, with N*y even and y < N.
fn rrg_params() -> impl Strategy<Value = (RrgParams, u64)> {
    (4usize..24, 2usize..8, any::<u64>()).prop_filter_map("valid RRG parameters", |(n, y, seed)| {
        if y >= n || (n * y) % 2 != 0 {
            return None;
        }
        Some((RrgParams::new(n, y + 2, y), seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rrg_is_always_regular_and_connected((params, seed) in rrg_params()) {
        let g = build_rrg(params, ConstructionMethod::Incremental, seed).unwrap();
        prop_assert!(g.is_regular(params.network_ports));
        prop_assert!(g.is_connected());
        prop_assert_eq!(g.num_edges(), params.switches * params.network_ports / 2);
    }

    #[test]
    fn pairing_model_matches_invariants((params, seed) in rrg_params()) {
        let g = build_rrg(params, ConstructionMethod::PairingModel, seed).unwrap();
        prop_assert!(g.is_regular(params.network_ports));
        prop_assert!(g.is_connected());
    }

    #[test]
    fn ksp_paths_are_simple_sorted_distinct(
        (params, seed) in rrg_params(),
        k in 1usize..10,
        randomized in any::<bool>(),
    ) {
        let g = build_rrg(params, ConstructionMethod::Incremental, seed).unwrap();
        let (src, dst) = (0u32, (params.switches - 1) as u32);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tb = if randomized {
            TieBreak::Randomized(&mut rng)
        } else {
            TieBreak::Deterministic
        };
        let paths = k_shortest_paths(&g, src, dst, k, &mut tb);
        prop_assert!(!paths.is_empty());
        prop_assert!(paths.len() <= k);
        // First path is a true shortest path.
        let mask = Mask::new(&g);
        let sp = shortest_path(&g, src, dst, &mask, &mut TieBreak::Deterministic).unwrap();
        prop_assert_eq!(paths[0].len(), sp.len());
        for w in paths.windows(2) {
            prop_assert!(w[0].len() <= w[1].len(), "paths out of length order");
            prop_assert!(w[0] != w[1], "duplicate path");
        }
        for p in &paths {
            prop_assert_eq!(p[0], src);
            prop_assert_eq!(*p.last().unwrap(), dst);
            let mut seen = std::collections::HashSet::new();
            for &n in p {
                prop_assert!(seen.insert(n), "loop in path {:?}", p);
            }
            for e in p.windows(2) {
                prop_assert!(g.has_edge(e[0], e[1]), "non-edge in path");
            }
        }
        // All paths distinct (not just adjacent ones).
        let set: std::collections::HashSet<_> = paths.iter().collect();
        prop_assert_eq!(set.len(), paths.len());
    }

    #[test]
    fn remove_find_paths_are_disjoint_and_bounded(
        (params, seed) in rrg_params(),
        k in 1usize..10,
    ) {
        let g = build_rrg(params, ConstructionMethod::Incremental, seed).unwrap();
        let (src, dst) = (0u32, 1u32);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let paths = edge_disjoint_paths(&g, src, dst, k, &mut TieBreak::Randomized(&mut rng));
        prop_assert!(!paths.is_empty(), "connected graph must have one path");
        prop_assert!(paths.len() <= k.min(params.network_ports));
        prop_assert!(jellyfish_routing::disjoint::are_edge_disjoint(&g, &paths));
    }

    #[test]
    fn path_table_lookup_agrees_with_direct_computation(
        (params, seed) in rrg_params(),
    ) {
        let g = build_rrg(params, ConstructionMethod::Incremental, seed).unwrap();
        let sel = PathSelection::REdKsp(4);
        let pairs: Vec<(u32, u32)> = vec![(0, 1), (1, 0), (0, (params.switches - 1) as u32)];
        let table = PathTable::compute(&g, sel, &PairSet::Pairs(pairs.clone()), seed);
        for (s, d) in pairs {
            let direct = sel.paths_for_pair(&g, s, d, seed);
            let stored = table.get(s, d).unwrap();
            prop_assert_eq!(stored.len(), direct.len());
            for (i, p) in direct.iter().enumerate() {
                prop_assert_eq!(stored.path(i), &p[..]);
            }
        }
    }

    #[test]
    fn permutation_pattern_is_permutation(n in 2usize..300, seed in any::<u64>()) {
        let flows = random_permutation(n, &mut StdRng::seed_from_u64(seed));
        let mut src_seen = vec![false; n];
        let mut dst_seen = vec![false; n];
        for f in &flows {
            prop_assert!(f.src != f.dst);
            prop_assert!(!src_seen[f.src as usize]);
            prop_assert!(!dst_seen[f.dst as usize]);
            src_seen[f.src as usize] = true;
            dst_seen[f.dst as usize] = true;
        }
    }

    #[test]
    fn shift_pattern_is_a_bijection(n in 2usize..200, s in 1usize..500) {
        let flows = shift(n, s);
        if s % n == 0 {
            prop_assert!(flows.is_empty());
        } else {
            prop_assert_eq!(flows.len(), n);
            let mut dst_seen = vec![false; n];
            for f in &flows {
                prop_assert!(!dst_seen[f.dst as usize]);
                dst_seen[f.dst as usize] = true;
            }
        }
    }

    #[test]
    fn random_x_has_exact_out_degree(
        n in 10usize..120,
        x in 1usize..9,
        seed in any::<u64>(),
    ) {
        let flows = random_x(n, x, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(flows.len(), n * x);
        let mut out = vec![0usize; n];
        for f in &flows {
            prop_assert!(f.src != f.dst);
            out[f.src as usize] += 1;
        }
        prop_assert!(out.iter().all(|&c| c == x));
    }

    #[test]
    fn stencil_neighbors_symmetric_and_regular(
        nx in 3usize..7,
        ny in 3usize..7,
        diag in any::<bool>(),
    ) {
        let kind = if diag { StencilKind::Nn2dDiag } else { StencilKind::Nn2d };
        let app = StencilApp::new_2d(kind, nx, ny);
        for r in 0..app.num_ranks() as u32 {
            let nbrs = app.neighbors(r);
            prop_assert_eq!(nbrs.len(), kind.neighbor_count());
            for n in nbrs {
                prop_assert!(app.neighbors(n).contains(&r));
            }
        }
    }
}

/// Fault-model invariants (256 cases each): the degraded-routing
/// machinery must never hand out a dead path, and edge-disjoint
/// selections must degrade by at most one path per failed link.
mod fault_invariants {
    use super::*;
    use jellyfish_topology::{DegradedGraph, FaultKind};
    use rand::seq::IndexedRandom;
    use rand::Rng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn single_link_failure_costs_edge_disjoint_pairs_at_most_one_path(
            (params, seed) in rrg_params(),
            k in 2usize..6,
            randomized in any::<bool>(),
            pick in any::<u64>(),
        ) {
            let g = build_rrg(params, ConstructionMethod::Incremental, seed).unwrap();
            let sel = if randomized {
                PathSelection::REdKsp(k)
            } else {
                PathSelection::EdKsp(k)
            };
            let mut rng = StdRng::seed_from_u64(pick);
            let n = params.switches as u32;
            let src = rng.random_range(0..n);
            let dst = (src + 1 + rng.random_range(0..n - 1)) % n;
            let mut table =
                PathTable::compute(&g, sel, &PairSet::Pairs(vec![(src, dst)]), seed);
            let before = table.get(src, dst).map_or(0, |ps| ps.len());
            // Fail one random live link.
            let edges: Vec<(u32, u32)> = g.edges().collect();
            let &(u, v) = edges.choose(&mut rng).unwrap();
            let mut view = DegradedGraph::new(&g);
            view.apply(FaultKind::Link { u, v });
            table.apply_faults(&view);
            let after = table.get(src, dst).map_or(0, |ps| ps.len());
            // Edge-disjoint paths share no links, so one failure removes
            // at most one of them.
            prop_assert!(
                after + 1 >= before,
                "{sel:?} {src}->{dst}: {before} -> {after} paths after one link failure"
            );
        }

        #[test]
        fn masked_and_repaired_tables_never_return_a_dead_path(
            (params, seed) in rrg_params(),
            k in 1usize..4,
            fail_count in 1usize..5,
            fault_seed in any::<u64>(),
        ) {
            let g = build_rrg(params, ConstructionMethod::Incremental, seed).unwrap();
            let mut table =
                PathTable::compute(&g, PathSelection::RKsp(k), &PairSet::AllPairs, seed);
            let mut rng = StdRng::seed_from_u64(fault_seed);
            let edges: Vec<(u32, u32)> = g.edges().collect();
            let mut view = DegradedGraph::new(&g);
            for _ in 0..fail_count.min(edges.len()) {
                let &(u, v) = edges.choose(&mut rng).unwrap();
                view.apply(FaultKind::Link { u, v });
            }
            let report = table.apply_faults(&view);
            // Masked table: every remaining path is fully live.
            for s in 0..params.switches as u32 {
                for d in 0..params.switches as u32 {
                    let Some(ps) = table.get(s, d) else { continue };
                    for i in 0..ps.len() {
                        prop_assert!(
                            view.path_is_live(ps.path(i)),
                            "masked table returned dead path {s}->{d}"
                        );
                    }
                }
            }
            // Repaired table too.
            table.repair(&view, &report.affected_pairs(), fault_seed ^ 1);
            for s in 0..params.switches as u32 {
                for d in 0..params.switches as u32 {
                    let Some(ps) = table.get(s, d) else { continue };
                    for i in 0..ps.len() {
                        prop_assert!(
                            view.path_is_live(ps.path(i)),
                            "repaired table returned dead path {s}->{d}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The single-pass fault round is the three-step one: `rerouted`
        /// returns the same table, report and repaired count as clone +
        /// `apply_faults` + `repair(affected)`, for every selection, on
        /// all-pairs and pair-subset tables, over two cumulative rounds.
        #[test]
        fn rerouted_equals_clone_apply_repair(
            (params, seed) in rrg_params(),
            k in 1usize..5,
            scheme in 0usize..4,
            all_pairs in any::<bool>(),
            fault_seed in any::<u64>(),
            fail_counts in (1usize..5, 0usize..4),
            fail_switch in any::<bool>(),
        ) {
            let g = build_rrg(params, ConstructionMethod::Incremental, seed).unwrap();
            let sel = [
                PathSelection::Ksp(k),
                PathSelection::RKsp(k),
                PathSelection::EdKsp(k),
                PathSelection::REdKsp(k),
            ][scheme];
            let n = params.switches as u32;
            let mut rng = StdRng::seed_from_u64(fault_seed);
            let pairs = if all_pairs {
                PairSet::AllPairs
            } else {
                PairSet::Pairs(
                    (0..2 * n)
                        .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                        .collect(),
                )
            };
            let mut live = PathTable::compute(&g, sel, &pairs, seed);
            let edges: Vec<(u32, u32)> = g.edges().collect();
            let mut view = DegradedGraph::new(&g);
            for (round, fails) in [fail_counts.0, fail_counts.1].into_iter().enumerate() {
                for _ in 0..fails {
                    let &(u, v) = edges.choose(&mut rng).unwrap();
                    view.apply(FaultKind::Link { u, v });
                }
                if fail_switch && round == 1 {
                    view.apply(FaultKind::Switch { node: rng.random_range(0..n) });
                }
                let round_seed = fault_seed ^ round as u64;
                let (rerouted, report, repaired) = live.rerouted(&view, round_seed);
                let mut reference = live.clone();
                let expected = reference.apply_faults(&view);
                let expected_repaired =
                    reference.repair(&view, &expected.affected_pairs(), round_seed);
                prop_assert_eq!(&rerouted, &reference, "{} round {}", sel.name(), round);
                prop_assert_eq!(rerouted.max_hops(), reference.max_hops());
                prop_assert_eq!(&report.affected, &expected.affected);
                prop_assert_eq!(report.paths_removed, expected.paths_removed);
                prop_assert_eq!(report.disconnected_pairs, expected.disconnected_pairs);
                prop_assert_eq!(repaired, expected_repaired);
                live = rerouted;
            }
        }
    }
}
