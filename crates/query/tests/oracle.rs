//! The k-NN exactness contract (vendored proptest): for every random point
//! set, churn sequence and degenerate layout, [`CoordinateIndex::k_nearest`]
//! must return *byte-identical* rankings to a brute-force oracle that scans
//! all tracked nodes and sorts by `(exact distance, id)`. The index's
//! Z-order seeding, box pruning and BIGMIN jumps are pure accelerations —
//! any divergence from the oracle is a bug, never a trade-off.
//!
//! The index stores coordinates packed at `dims + 1` `f64`s per entry, so
//! the properties run at several widths, and every coordinate that leaves
//! the index must be bit for bit the one last stored.

use std::collections::BTreeMap;

use nc_query::{CoordinateIndex, QueryConfig, QueryMatch};
use nc_vivaldi::Coordinate;
use proptest::prelude::*;

const BOUND_MS: f64 = 1_000.0;

/// The widths the properties run at: the paper's 3-D space, the narrowest
/// and widest the index accepts, and two between.
const WIDTHS: [usize; 5] = [1, 2, 3, 5, 8];

/// Decodes a word into a `dims`-dimensional coordinate inside (and
/// occasionally outside) the quantization bound, exercising the clamped
/// grid edges too.
fn decode_coordinate(word: u64, dims: usize) -> Coordinate {
    let axis = |d: usize| {
        // The first three lanes are the word's low 48 bits; further lanes
        // come from a rotated, mixed copy so that every lane differs.
        let bits = if d < 3 {
            word >> (16 * d)
        } else {
            word.rotate_left(11 * d as u32) ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let raw = (bits & 0xFFFF) as f64;
        // Spread over [-1.2, 1.2] × bound: ~17% of mass beyond the grid.
        (raw / 65_535.0 - 0.5) * 2.4 * BOUND_MS
    };
    let height = ((word >> 48) & 0x3FF) as f64 / 10.0;
    let components: Vec<f64> = (0..dims).map(axis).collect();
    Coordinate::with_height(components, height).expect("finite components")
}

fn oracle(index: &CoordinateIndex<u32>, target: &Coordinate, k: usize) -> Vec<(u32, f64)> {
    let mut ranked: Vec<(u32, f64)> = index
        .iter()
        .map(|(id, coordinate)| (*id, target.distance(&coordinate)))
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

fn flatten(matches: Vec<QueryMatch<u32>>) -> Vec<(u32, f64)> {
    matches.into_iter().map(|m| (m.id, m.distance_ms)).collect()
}

fn small_index(dims: usize, max_shard_entries: usize) -> CoordinateIndex<u32> {
    CoordinateIndex::new(QueryConfig {
        dimensions: dims,
        coordinate_bound_ms: BOUND_MS,
        max_shard_entries,
    })
    .expect("valid config")
}

/// A coordinate's exact bits: the components, then the height.
fn bits(coordinate: &Coordinate) -> Vec<u64> {
    coordinate
        .components()
        .iter()
        .chain([&coordinate.height()])
        .map(|lane| lane.to_bits())
        .collect()
}

proptest! {
    #[test]
    fn knn_equals_the_brute_force_oracle_on_random_point_sets(
        points in proptest::collection::vec(0u64..u64::MAX, 1..200),
        targets in proptest::collection::vec(0u64..u64::MAX, 1..8),
        k_word in 0usize..32,
    ) {
        for dims in WIDTHS {
            // A tiny shard capacity forces multi-shard layouts (splits)
            // even for small populations, so the scan crosses shard
            // boundaries.
            let mut index = small_index(dims, 8);
            for (id, word) in points.iter().enumerate() {
                index.update(id as u32, &decode_coordinate(*word, dims)).expect("insert");
            }
            let k = 1 + k_word % (points.len() + 4);
            for word in &targets {
                let target = decode_coordinate(*word, dims);
                let got = flatten(index.k_nearest(&target, k).expect("query"));
                prop_assert_eq!(&got, &oracle(&index, &target, k), "dims={}", dims);
            }
            // Indexed nodes query for themselves too (distance-zero seeds).
            if let Some(word) = points.first() {
                let own = decode_coordinate(*word, dims);
                let got = flatten(index.k_nearest(&own, k).expect("query"));
                prop_assert_eq!(&got, &oracle(&index, &own, k), "dims={}", dims);
            }
        }
    }

    #[test]
    fn knn_stays_exact_under_update_and_remove_churn(
        ops in proptest::collection::vec(0u64..u64::MAX, 1..300),
        target_word in 0u64..u64::MAX,
    ) {
        for dims in WIDTHS {
            // Ids collide on purpose (mod 48): every third op removes, the
            // rest insert or move — the index sees the full update/remove
            // life cycle with shard splits and merges along the way.
            let mut index = small_index(dims, 8);
            for op in &ops {
                let id = (op % 48) as u32;
                if op % 3 == 0 {
                    index.remove(&id);
                } else {
                    index
                        .update(id, &decode_coordinate(op.rotate_left(17), dims))
                        .expect("upsert");
                }
            }
            let target = decode_coordinate(target_word, dims);
            for k in [1usize, 3, 16, 64] {
                let got = flatten(index.k_nearest(&target, k).expect("query"));
                prop_assert_eq!(&got, &oracle(&index, &target, k), "dims={}", dims);
            }
        }
    }

    #[test]
    fn knn_handles_degenerate_populations(
        population in 1usize..60,
        colocated_word in 0u64..u64::MAX,
        target_word in 0u64..u64::MAX,
        k_word in 0usize..8,
    ) {
        // All-colocated: every node quantizes to the same Z-order cell, so
        // ranking degenerates to pure id tie-breaking.
        let mut colocated = small_index(3, 8);
        let spot = decode_coordinate(colocated_word, 3);
        for id in 0..population as u32 {
            colocated.update(id, &spot).expect("insert");
        }
        let target = decode_coordinate(target_word, 3);
        let k = 1 + k_word;
        let got = flatten(colocated.k_nearest(&target, k).expect("query"));
        let expected: Vec<(u32, f64)> = (0..population.min(k) as u32)
            .map(|id| (id, target.distance(&spot)))
            .collect();
        prop_assert_eq!(&got, &expected);

        // Single-node index: always the unique answer, any k.
        let mut single = small_index(3, 8);
        single.update(7, &spot).expect("insert");
        let got = flatten(single.k_nearest(&target, k).expect("query"));
        prop_assert_eq!(got, vec![(7u32, target.distance(&spot))]);
    }
}

/// Every way a coordinate leaves the index — `coordinate_of`, `iter` and
/// the coordinate of every k-NN answer — gives back the bits last stored,
/// negative zeros included, through inserts, same-cell refreshes,
/// cross-cell moves, splits, merges and removes, at every width.
#[test]
fn packed_read_back_is_bit_identical() {
    for dims in 1..=8 {
        let mut index = small_index(dims, 8);
        let mut model: BTreeMap<u32, Coordinate> = BTreeMap::new();
        let check = |index: &CoordinateIndex<u32>, model: &BTreeMap<u32, Coordinate>| {
            assert_eq!(index.len(), model.len(), "dims={dims}");
            for (id, expected) in model {
                let stored = index.coordinate_of(id).expect("tracked");
                assert_eq!(bits(&stored), bits(expected), "dims={dims} id={id}");
            }
            let iterated: Vec<(u32, Vec<u64>)> = index
                .iter()
                .map(|(id, coordinate)| (*id, bits(&coordinate)))
                .collect();
            assert_eq!(iterated.len(), model.len(), "dims={dims}");
            for (id, got) in &iterated {
                assert_eq!(got, &bits(&model[id]), "dims={dims} id={id}");
            }
            // k = 3 scans (the seeded, box-pruned path); k = len ranks
            // everything directly.
            for target in model.values().take(4) {
                for k in [3, index.len()] {
                    for hit in index.k_nearest(target, k).expect("query") {
                        assert_eq!(
                            bits(&hit.coordinate),
                            bits(&model[&hit.id]),
                            "dims={dims} id={}",
                            hit.id
                        );
                    }
                }
            }
        };
        // A lane of −0.0 in every third coordinate and a −0.0 height in
        // every fourth: rebuilt through the validating constructor, both
        // must come back negative.
        let point = |id: u32, offset: f64| {
            let components: Vec<f64> = (0..dims)
                .map(|d| match (id as usize + d) % 3 {
                    0 => -0.0,
                    _ => offset + (id as f64) * 7.25 - (d as f64) * 3.5,
                })
                .collect();
            let height = if id.is_multiple_of(4) {
                -0.0
            } else {
                id as f64 / 8.0
            };
            Coordinate::with_height(components, height).expect("valid")
        };

        // Inserts, enough to split shards of eight.
        for id in 0..64u32 {
            let coordinate = point(id, -200.0);
            index.update(id, &coordinate).expect("insert");
            model.insert(id, coordinate);
        }
        check(&index, &model);
        assert!(index.rebalances().0 > 0, "dims={dims}: inserts must split");

        // Same-cell refreshes: the sign of every zero lane and zero height
        // flips, which moves no key but changes the bits.
        let flip = |x: f64| if x == 0.0 { -x } else { x };
        for id in 0..64u32 {
            let flipped: Vec<f64> = model[&id].components().iter().map(|&x| flip(x)).collect();
            let height = flip(model[&id].height());
            let coordinate = Coordinate::with_height(flipped, height).expect("valid");
            assert!(!index.update(id, &coordinate).expect("refresh"));
            model.insert(id, coordinate);
        }
        check(&index, &model);

        // Cross-cell moves to the far side of the space.
        for id in (0..64u32).step_by(2) {
            let coordinate = point(id, 300.0);
            index.update(id, &coordinate).expect("move");
            model.insert(id, coordinate);
        }
        check(&index, &model);

        // Removes down to a handful, which merges the shards back.
        for id in 0..56u32 {
            assert!(index.remove(&id));
            model.remove(&id);
        }
        check(&index, &model);
        assert!(index.rebalances().1 > 0, "dims={dims}: removes must merge");
    }
}

/// `centroid()` and every `clusters()` centroid are
/// `Coordinate::centroid_iter` over `iter()` in key order, bit for bit.
#[test]
fn centroid_and_clusters_equal_centroid_iter_over_iter() {
    for dims in WIDTHS {
        let mut index = small_index(dims, 8);
        let mut word = 0x243F_6A88_85A3_08D3u64;
        for id in 0..300u32 {
            word = word
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            index
                .update(id, &decode_coordinate(word, dims))
                .expect("insert");
        }
        let in_key_order: Vec<Coordinate> = index.iter().map(|(_, c)| c).collect();
        let expected = Coordinate::centroid_iter(&in_key_order).expect("non-empty");
        assert_eq!(
            bits(&index.centroid().expect("non-empty")),
            bits(&expected),
            "dims={dims}"
        );
        for prefix_bits in [0, 1, dims as u32, 2 * dims as u32 + 1, 16 * dims as u32] {
            let clusters = index.clusters(prefix_bits).expect("valid prefix");
            // Clusters come in key order, as runs of `iter()`.
            let mut members = in_key_order.as_slice();
            for pair in clusters.windows(2) {
                assert!(pair[0].prefix < pair[1].prefix, "dims={dims}");
            }
            for cluster in &clusters {
                let (run, rest) = members.split_at(cluster.count);
                let expected = Coordinate::centroid_iter(run).expect("non-empty cluster");
                assert_eq!(
                    bits(&cluster.centroid),
                    bits(&expected),
                    "dims={dims} prefix_bits={prefix_bits}"
                );
                members = rest;
            }
            assert!(members.is_empty(), "dims={dims}: clusters cover every node");
        }
    }
}
