//! Property test for the maintained edge-incidence lists: after any mix of
//! POI inserts, edge inserts and edge removals, the lists kept in step
//! with the graph equal a fresh build from `graph.edges()`, order included.

use prim_geo::Location;
use prim_graph::{CategoryId, EdgeIncidence, HeteroGraph, Poi, PoiId, RelationId};
use proptest::prelude::*;

fn poi(i: u32) -> Poi {
    Poi {
        location: Location::new(116.0 + 0.001 * i as f64, 40.0),
        category: CategoryId(0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maintained_lists_equal_a_fresh_build(
        n0 in 2u32..12,
        ops in prop::collection::vec((0u8..4, 0u32..64, 0u32..64, 0u8..3), 0..80),
    ) {
        let mut graph = HeteroGraph::new((0..n0).map(poi).collect(), 3);
        let mut inc = EdgeIncidence::build(&graph);
        for (kind, a, b, rel) in ops {
            let n = graph.num_pois() as u32;
            let (a, b) = (a % n, b % n);
            match kind {
                0 => {
                    graph.add_poi(poi(n));
                    inc.add_poi();
                }
                // Edges are the common case, duplicates included.
                1 | 2 if a != b => {
                    graph.add_edge(PoiId(a), PoiId(b), RelationId(rel));
                    inc.add_edge(&graph);
                }
                3 => {
                    graph.remove_edges_of(PoiId(a));
                    inc.remove_edges_of(PoiId(a));
                }
                _ => {}
            }
        }
        let fresh = EdgeIncidence::build(&graph);
        prop_assert_eq!(&inc, &fresh);
        for p in 0..graph.num_pois() as u32 {
            let listed = inc.edges_of(p);
            prop_assert!(listed.windows(2).all(|w| w[0] < w[1]));
            for (&i, nb) in listed.iter().zip(inc.neighbors(&graph, p)) {
                let e = graph.edges()[i as usize];
                prop_assert!(e.src.0 == p || e.dst.0 == p);
                prop_assert_eq!(nb, if e.src.0 == p { e.dst.0 } else { e.src.0 });
            }
        }
    }
}
