//! The sharded Z-order coordinate index.
//!
//! Every tracked node is one entry: its coordinate quantized onto a fixed
//! grid, Morton-interleaved into a `u128` key ([`crate::curve`]), and kept
//! in a sorted shard-per-key-range layout. Point updates are `O(log n)`
//! re-insertions; k-nearest-node queries are 1-D range scans over the key
//! order with exact-distance re-ranking, so the quantization never affects
//! *which* nodes are returned — only how many entries the scan must touch.
//!
//! # Exactness
//!
//! A k-NN query runs in two phases. The seed phase ranks a span of
//! key-order neighbours of the target (a small multiple of `k` in each
//! direction) and takes the k-th smallest exact distance as an upper
//! bound `D`. Because the Vivaldi distance
//! `‖a − b‖ + h_a + h_b` dominates every per-axis difference and heights
//! are non-negative (enforced at ingest), any node within `D` of the
//! target lies inside the axis-aligned box `[tᵢ − r, tᵢ + r]` per
//! dimension with `r = D − h_target`, and quantization is monotone, so the
//! box's quantized corners bound the candidate set exactly. The scan phase
//! walks the key range of that box, stepping over short out-of-box gaps
//! and BIGMIN-jumping the long ones, and re-ranks by exact distance with a
//! total `(distance, id)` order. Every time the k-th best distance
//! improves it becomes the new `D` and the box contracts, so the scan
//! range keeps tightening around the answer. The result is byte-identical
//! to a brute-force scan of every entry (the oracle the test suite
//! compares against): pruning only ever discards entries strictly farther
//! than the current k-th best, and distance ties stay inside the box
//! because the corners are inclusive.
//!
//! # Shards
//!
//! Entries live in a `Vec` of sorted shards. A shard that outgrows the
//! configured capacity splits in half; a shard that shrinks below a quarter
//! of capacity merges into a neighbour when the result still fits. Under
//! occupancy skew (every insert landing in one key range) the layout
//! therefore rebalances itself: no shard ever exceeds capacity, and binary
//! search over shard bounds keeps updates logarithmic.

use nc_vivaldi::Coordinate;
use stable_nc::{FxHashMap, NodeView};

use crate::curve::{bigmin, dimension_masks, interleave, BITS_PER_DIM, MAX_DIMENSIONS};
use crate::{QueryConfig, QueryError};

/// One query answer: a node, its exact current distance to the query
/// target, and the coordinate that distance was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMatch<Id> {
    /// The matched node.
    pub id: Id,
    /// Exact Vivaldi distance from the query target, in milliseconds.
    pub distance_ms: f64,
    /// The node's indexed coordinate.
    pub coordinate: Coordinate,
}

/// One occupied region of the key space, as reported by
/// [`CoordinateIndex::clusters`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// The shared Morton-key prefix (the cluster's cell on the coarsened
    /// grid).
    pub prefix: u128,
    /// Number of nodes in the cluster.
    pub count: usize,
    /// Centroid of the member coordinates.
    pub centroid: Coordinate,
}

/// A node's stored state: its Morton key and exact coordinate.
#[derive(Debug, Clone)]
struct Stored {
    key: u128,
    coordinate: Coordinate,
}

/// One shard entry: a node's key, id and an inline copy of its exact
/// coordinate, so range scans rank candidates from the memory they are
/// already streaming instead of taking one random `positions` lookup per
/// candidate.
#[derive(Debug, Clone)]
struct Entry<Id> {
    key: u128,
    id: Id,
    coordinate: Coordinate,
}

/// Out-of-box entries to step over linearly before paying for a BIGMIN
/// jump plus binary search: short gaps are far cheaper to walk (a few
/// masked compares each) than to jump, and long gaps still get skipped
/// wholesale.
const LINEAR_PROBE: usize = 12;

/// Key-order neighbours sampled per scan direction in the seed phase, as a
/// multiple of `k`.
const SEED_SPAN: usize = 4;

/// A box rebuild happens only when the k-th best distance drops below this
/// fraction of the bound the current box was built from: rebuilds are
/// geometric, at most a handful per query, while the box still tracks the
/// contracting answer.
const SHRINK_FACTOR: f64 = 0.75;

/// A query's current search box: Morton corner keys plus the per-dimension
/// masked corner values ([`dimension_masks`]) that the scan's in-box test
/// compares entry keys against.
struct QueryBox {
    zmin: u128,
    zmax: u128,
    lo: [u128; MAX_DIMENSIONS],
    hi: [u128; MAX_DIMENSIONS],
}

/// The in-memory coordinate index. See the [module docs](self) for the
/// layout and exactness argument.
#[derive(Debug, Clone)]
pub struct CoordinateIndex<Id> {
    config: QueryConfig,
    /// Exact coordinate and key per node — the authoritative copy that
    /// point updates consult; the shards carry a second, inline copy for
    /// scan locality.
    positions: FxHashMap<Id, Stored>,
    /// Sorted-by-`(key, id)` shards partitioning the key order.
    shards: Vec<Vec<Entry<Id>>>,
    /// The last entry of each shard, kept parallel to `shards`: locating a
    /// key binary-searches this contiguous array instead of chasing one
    /// heap pointer per probed shard.
    fences: Vec<(u128, Id)>,
    splits: u64,
    merges: u64,
}

impl<Id: Clone + Ord + std::hash::Hash> CoordinateIndex<Id> {
    /// Creates an empty index.
    ///
    /// # Errors
    ///
    /// Returns the [`QueryError`] reported by [`QueryConfig::validate`].
    pub fn new(config: QueryConfig) -> Result<Self, QueryError> {
        let config = config.validate()?;
        Ok(CoordinateIndex {
            config,
            positions: FxHashMap::default(),
            shards: Vec::new(),
            fences: Vec::new(),
            splits: 0,
            merges: 0,
        })
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &QueryConfig {
        &self.config
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when no node is tracked.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of shards currently partitioning the key order.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// `(smallest, largest)` shard occupancy, or `(0, 0)` when empty.
    pub fn occupancy(&self) -> (usize, usize) {
        let mut smallest = usize::MAX;
        let mut largest = 0usize;
        for shard in &self.shards {
            smallest = smallest.min(shard.len());
            largest = largest.max(shard.len());
        }
        if largest == 0 {
            (0, 0)
        } else {
            (smallest, largest)
        }
    }

    /// `(splits, merges)` performed over the index's lifetime — how often
    /// occupancy skew forced the shard layout to rebalance.
    pub fn rebalances(&self) -> (u64, u64) {
        (self.splits, self.merges)
    }

    /// Checks a coordinate against the index dimensionality and finiteness.
    fn check(&self, coordinate: &Coordinate) -> Result<(), QueryError> {
        if coordinate.dimensions() != self.config.dimensions {
            return Err(QueryError::DimensionMismatch {
                expected: self.config.dimensions,
                got: coordinate.dimensions(),
            });
        }
        let finite = coordinate.components().iter().all(|c| c.is_finite())
            && coordinate.height().is_finite();
        if !finite {
            return Err(QueryError::NonFiniteCoordinate);
        }
        // Construction forbids negative heights, but arithmetic (e.g. a
        // negative scale) can still produce them; the k-NN box math sheds
        // heights from the search radius, so a negative one would silently
        // shrink the box past valid candidates. Reject at the boundary.
        if coordinate.height() < 0.0 {
            return Err(QueryError::NegativeHeight);
        }
        Ok(())
    }

    /// Maps one component onto the quantized grid. Monotone and clamping:
    /// values outside `±coordinate_bound_ms` land in the edge cells.
    fn quantize(&self, x: f64) -> u16 {
        let bound = self.config.coordinate_bound_ms;
        let cells = (1u64 << BITS_PER_DIM) as f64;
        let t = ((x + bound) / (2.0 * bound)) * cells;
        t.floor().clamp(0.0, cells - 1.0) as u16
    }

    /// The Morton key of a coordinate.
    fn key_for(&self, coordinate: &Coordinate) -> u128 {
        let mut cells = [0u16; MAX_DIMENSIONS];
        for (slot, &x) in cells.iter_mut().zip(coordinate.components()) {
            *slot = self.quantize(x);
        }
        interleave(cells.get(..self.config.dimensions).unwrap_or(&[]))
    }

    /// Inserts or moves a node. Returns `true` when the node was new.
    ///
    /// A re-insertion whose quantized cell is unchanged only refreshes the
    /// stored exact coordinate; the shard layout is untouched.
    ///
    /// # Errors
    ///
    /// Rejects coordinates of the wrong dimensionality or with non-finite
    /// components.
    pub fn update(&mut self, id: Id, coordinate: &Coordinate) -> Result<bool, QueryError> {
        self.check(coordinate)?;
        let key = self.key_for(coordinate);
        match self.positions.get_mut(&id) {
            Some(stored) => {
                let old_key = stored.key;
                stored.key = key;
                stored.coordinate = coordinate.clone();
                if old_key == key {
                    // Same quantized cell: the shard layout is untouched,
                    // but the inline copy must track the exact coordinate.
                    self.refresh_entry(key, &id, coordinate);
                } else {
                    self.remove_entry(old_key, &id);
                    self.insert_entry(key, id, coordinate.clone());
                }
                Ok(false)
            }
            None => {
                self.positions.insert(
                    id.clone(),
                    Stored {
                        key,
                        coordinate: coordinate.clone(),
                    },
                );
                self.insert_entry(key, id, coordinate.clone());
                Ok(true)
            }
        }
    }

    /// Removes a node. Returns `true` when it was tracked.
    pub fn remove(&mut self, id: &Id) -> bool {
        match self.positions.remove(id) {
            Some(stored) => {
                self.remove_entry(stored.key, id);
                true
            }
            None => false,
        }
    }

    /// Ingests one engine introspection snapshot: the owner's own
    /// application-level coordinate (when `owner` names it) plus the
    /// coordinate of every neighbour in the view. Returns how many entries
    /// were inserted or refreshed; peers whose coordinate dimensionality
    /// does not match the index are skipped.
    pub fn absorb_view(
        &mut self,
        owner: Option<&Id>,
        view: &NodeView<Id>,
    ) -> Result<usize, QueryError> {
        let mut touched = 0usize;
        if let Some(owner) = owner {
            if self.update(owner.clone(), &view.application).is_ok() {
                touched += 1;
            }
        }
        for peer in &view.neighbors {
            if self.update(peer.id.clone(), &peer.coordinate).is_ok() {
                touched += 1;
            }
        }
        Ok(touched)
    }

    /// The `k` nodes nearest to `target` by exact Vivaldi distance, sorted
    /// ascending with `(distance, id)` tie-breaking. Returns fewer than `k`
    /// matches only when fewer nodes are tracked.
    ///
    /// # Errors
    ///
    /// Rejects targets of the wrong dimensionality or with non-finite
    /// components.
    pub fn k_nearest(
        &self,
        target: &Coordinate,
        k: usize,
    ) -> Result<Vec<QueryMatch<Id>>, QueryError> {
        self.check(target)?;
        if k == 0 || self.positions.is_empty() {
            return Ok(Vec::new());
        }
        if self.positions.len() <= k.saturating_mul(2) {
            // Small index (or huge k): the seed phase would touch every
            // entry anyway, so rank them all directly.
            return Ok(self.rank_all(target, k));
        }

        // Seed: the entries nearest in *key* order give an upper bound D on
        // the k-th nearest exact distance. Key neighbours are sequential
        // memory, so over-sampling beyond k is nearly free and a tighter
        // initial bound shrinks the whole scan that follows.
        let span = k.saturating_mul(SEED_SPAN);
        let zq = self.key_for(target);
        let mut seed = RankedSet::new(k);
        let start = self.locate_key(zq);
        let mut forward = start;
        let mut taken = 0usize;
        while taken < span {
            let Some(entry) = self.entry_at(forward) else {
                break;
            };
            seed.offer(target.distance(&entry.coordinate), &entry.id);
            forward = self.advance(forward);
            taken += 1;
        }
        let mut backward = start;
        taken = 0;
        while taken < span {
            let Some(previous) = self.retreat(backward) else {
                break;
            };
            backward = previous;
            if let Some(entry) = self.entry_at(backward) {
                seed.offer(target.distance(&entry.coordinate), &entry.id);
            }
            taken += 1;
        }
        let Some(bound) = seed.worst() else {
            // The seed under-filled (cannot happen while shards and
            // positions agree, since len > 2k here); fall back to the
            // oracle-equivalent full scan rather than guess a bound.
            return Ok(self.rank_all(target, k));
        };

        // Box: every node within `bound` of the target lies inside this
        // quantized axis-aligned box (see the module docs). The box shrinks
        // as the scan finds closer candidates.
        let mut bound = bound;
        let dims = self.config.dimensions;
        let masks = dimension_masks(dims as u32);
        let mut qbox = self.query_box(target, bound, &masks);

        // Scan the box's key range, stepping over short out-of-box gaps
        // entry by entry and BIGMIN-jumping the long ones, re-ranking every
        // in-box entry by exact distance.
        let mut best = RankedSet::new(k);
        let (mut si, mut ei) = self.locate_key(qbox.zmin);
        let mut outside_streak = 0usize;
        'shards: while let Some(shard) = self.shards.get(si) {
            while let Some(entry) = shard.get(ei) {
                let key = entry.key;
                if key > qbox.zmax {
                    break 'shards;
                }
                let in_box = masks
                    .iter()
                    .zip(qbox.lo.iter().zip(qbox.hi.iter()))
                    .take(dims)
                    .all(|(mask, (lo, hi))| {
                        let masked = key & mask;
                        (*lo..=*hi).contains(&masked)
                    });
                if in_box {
                    outside_streak = 0;
                    best.offer(target.distance(&entry.coordinate), &entry.id);
                    // The k-th best so far is itself a valid radius:
                    // tighten the box when it improves meaningfully, so
                    // the remaining scan range keeps contracting around
                    // the answer. Rebuilding costs a re-quantization, so
                    // only geometric improvements pay for one; any valid
                    // upper bound keeps the scan exact.
                    if let Some(worst) = best.worst() {
                        if worst < bound * SHRINK_FACTOR {
                            bound = worst;
                            qbox = self.query_box(target, bound, &masks);
                        }
                    }
                    ei += 1;
                } else if outside_streak < LINEAR_PROBE {
                    // Short gap: stepping an entry forward costs a few
                    // masked compares, far less than a BIGMIN jump plus
                    // binary search.
                    outside_streak += 1;
                    ei += 1;
                } else {
                    // Long gap: the whole key range up to BIGMIN lies
                    // outside the box.
                    outside_streak = 0;
                    match bigmin(key, qbox.zmin, qbox.zmax, dims as u32, &masks) {
                        Some(next) if next > key => {
                            // Most jumps land in the current shard: bisect
                            // its remaining slice before paying for the
                            // full fence search.
                            match shard.get(ei..) {
                                Some(rest) if rest.last().is_some_and(|last| next <= last.key) => {
                                    ei += rest.partition_point(|e| e.key < next);
                                }
                                _ => {
                                    (si, ei) = self.locate_key(next);
                                    continue 'shards;
                                }
                            }
                        }
                        _ => break 'shards,
                    }
                }
            }
            si += 1;
            ei = 0;
        }
        Ok(self.resolve(best))
    }

    /// The quantized axis-aligned box guaranteed to contain every node
    /// within `bound` of `target`: stored heights are non-negative and the
    /// target's height enters every distance, so the Euclidean radius sheds
    /// `target.height()` up front. Returns the box's Morton corner keys and
    /// the per-dimension masked corner values the in-box test compares
    /// against.
    fn query_box(
        &self,
        target: &Coordinate,
        bound: f64,
        masks: &[u128; MAX_DIMENSIONS],
    ) -> QueryBox {
        let radius = (bound - target.height()).max(0.0);
        let mut lo = [0u16; MAX_DIMENSIONS];
        let mut hi = [0u16; MAX_DIMENSIONS];
        for (d, &t) in target.components().iter().enumerate() {
            if let (Some(l), Some(h)) = (lo.get_mut(d), hi.get_mut(d)) {
                *l = self.quantize(t - radius);
                *h = self.quantize(t + radius);
            }
        }
        let dims = self.config.dimensions;
        let zmin = interleave(lo.get(..dims).unwrap_or(&[]));
        let zmax = interleave(hi.get(..dims).unwrap_or(&[]));
        let mut lo_masked = [0u128; MAX_DIMENSIONS];
        let mut hi_masked = [0u128; MAX_DIMENSIONS];
        for (d, mask) in masks.iter().enumerate().take(dims) {
            if let (Some(l), Some(h)) = (lo_masked.get_mut(d), hi_masked.get_mut(d)) {
                *l = zmin & mask;
                *h = zmax & mask;
            }
        }
        QueryBox {
            zmin,
            zmax,
            lo: lo_masked,
            hi: hi_masked,
        }
    }

    /// The single node nearest to `target` — the closest-replica query.
    ///
    /// # Errors
    ///
    /// Rejects targets of the wrong dimensionality or with non-finite
    /// components.
    pub fn nearest(&self, target: &Coordinate) -> Result<Option<QueryMatch<Id>>, QueryError> {
        Ok(self.k_nearest(target, 1)?.into_iter().next())
    }

    /// Centroid of every tracked coordinate, or `None` when empty.
    /// Summation runs in key order, so the result is a pure function of the
    /// index contents.
    pub fn centroid(&self) -> Option<Coordinate> {
        Coordinate::centroid_iter(self.shards.iter().flatten().map(|e| &e.coordinate))
    }

    /// Groups the tracked nodes by the top `prefix_bits` of their Morton
    /// key — the occupied cells of a coarsened grid — and returns one
    /// [`ClusterSummary`] per occupied cell, in key order.
    ///
    /// # Errors
    ///
    /// `prefix_bits` must not exceed `16 × dimensions`.
    pub fn clusters(&self, prefix_bits: u32) -> Result<Vec<ClusterSummary>, QueryError> {
        let total = BITS_PER_DIM * self.config.dimensions as u32;
        if prefix_bits > total {
            return Err(QueryError::PrefixBitsOutOfRange {
                bits: prefix_bits,
                max: total,
            });
        }
        let shift = total - prefix_bits;
        let mut clusters: Vec<ClusterSummary> = Vec::new();
        let mut members: Vec<&Coordinate> = Vec::new();
        let mut current: Option<u128> = None;
        let flush = |clusters: &mut Vec<ClusterSummary>,
                     prefix: Option<u128>,
                     members: &mut Vec<&Coordinate>| {
            if let (Some(prefix), Some(centroid)) =
                (prefix, Coordinate::centroid_iter(members.iter().copied()))
            {
                clusters.push(ClusterSummary {
                    prefix,
                    count: members.len(),
                    centroid,
                });
            }
            members.clear();
        };
        for entry in self.shards.iter().flatten() {
            let prefix = if shift >= 128 { 0 } else { entry.key >> shift };
            if current != Some(prefix) {
                flush(&mut clusters, current, &mut members);
                current = Some(prefix);
            }
            members.push(&entry.coordinate);
        }
        flush(&mut clusters, current, &mut members);
        Ok(clusters)
    }

    /// The tracked coordinate of one node, `None` when it is not indexed.
    pub fn coordinate_of(&self, id: &Id) -> Option<&Coordinate> {
        self.positions.get(id).map(|stored| &stored.coordinate)
    }

    /// Iterates `(id, coordinate)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Id, &Coordinate)> {
        self.shards.iter().flatten().map(|e| (&e.id, &e.coordinate))
    }

    /// Ranks every tracked node by exact distance — the brute-force path
    /// used for small indexes and as the defensive fallback.
    fn rank_all(&self, target: &Coordinate, k: usize) -> Vec<QueryMatch<Id>> {
        let mut best = RankedSet::new(k);
        for shard in &self.shards {
            for entry in shard {
                best.offer(target.distance(&entry.coordinate), &entry.id);
            }
        }
        self.resolve(best)
    }

    /// Materialises a ranked set into query matches with coordinates.
    fn resolve(&self, best: RankedSet<Id>) -> Vec<QueryMatch<Id>> {
        best.into_sorted()
            .into_iter()
            .filter_map(|(distance_ms, id)| {
                self.positions.get(&id).map(|stored| QueryMatch {
                    id,
                    distance_ms,
                    coordinate: stored.coordinate.clone(),
                })
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Shard plumbing.
    // ------------------------------------------------------------------

    /// Position of the first entry whose key is `>= key`, as a
    /// `(shard, offset)` cursor; `(shard_count, 0)` when every entry is
    /// smaller.
    fn locate_key(&self, key: u128) -> (usize, usize) {
        let si = self.fences.partition_point(|(k, _)| *k < key);
        match self.shards.get(si) {
            Some(shard) => (si, shard.partition_point(|e| e.key < key)),
            None => (si, 0),
        }
    }

    /// The entry under a cursor, if any.
    fn entry_at(&self, cursor: (usize, usize)) -> Option<&Entry<Id>> {
        self.shards.get(cursor.0)?.get(cursor.1)
    }

    /// The cursor one entry forward in key order.
    fn advance(&self, cursor: (usize, usize)) -> (usize, usize) {
        let len = self.shards.get(cursor.0).map(Vec::len).unwrap_or(0);
        if cursor.1 + 1 < len {
            (cursor.0, cursor.1 + 1)
        } else {
            (cursor.0 + 1, 0)
        }
    }

    /// The cursor one entry backward in key order, or `None` at the start.
    fn retreat(&self, cursor: (usize, usize)) -> Option<(usize, usize)> {
        if cursor.1 > 0 {
            return Some((cursor.0, cursor.1 - 1));
        }
        let mut si = cursor.0;
        while si > 0 {
            si -= 1;
            if let Some(shard) = self.shards.get(si) {
                if !shard.is_empty() {
                    return Some((si, shard.len() - 1));
                }
            }
        }
        None
    }

    /// Index of the shard an `(key, id)` entry belongs to (for insertion:
    /// clamped to the last shard).
    fn shard_for(&self, key: u128, id: &Id) -> usize {
        let si = self
            .fences
            .partition_point(|(k, i)| k.cmp(&key).then_with(|| i.cmp(id)).is_lt());
        si.min(self.shards.len().saturating_sub(1))
    }

    /// Re-derives the cached fence of shard `si` from its current last
    /// entry. A no-op for out-of-range or empty shards (callers remove
    /// those outright).
    fn refresh_fence(&mut self, si: usize) {
        if let (Some(fence), Some(last)) = (
            self.fences.get_mut(si),
            self.shards.get(si).and_then(|shard| shard.last()),
        ) {
            fence.0 = last.key;
            fence.1.clone_from(&last.id);
        }
    }

    /// Rewrites the inline coordinate of an existing `(key, id)` entry —
    /// the same-cell update fast path, which leaves the layout untouched.
    fn refresh_entry(&mut self, key: u128, id: &Id, coordinate: &Coordinate) {
        let si = self.shard_for(key, id);
        let Some(shard) = self.shards.get_mut(si) else {
            return;
        };
        if let Ok(pos) = shard.binary_search_by(|e| e.key.cmp(&key).then_with(|| e.id.cmp(id))) {
            if let Some(entry) = shard.get_mut(pos) {
                entry.coordinate.clone_from(coordinate);
            }
        }
    }

    /// Inserts an entry, splitting the receiving shard when it overflows.
    fn insert_entry(&mut self, key: u128, id: Id, coordinate: Coordinate) {
        if self.shards.is_empty() {
            self.fences.push((key, id.clone()));
            self.shards.push(vec![Entry {
                key,
                id,
                coordinate,
            }]);
            return;
        }
        let si = self.shard_for(key, &id);
        let capacity = self.config.max_shard_entries;
        let Some(shard) = self.shards.get_mut(si) else {
            return;
        };
        let pos = shard.partition_point(|e| e.key.cmp(&key).then_with(|| e.id.cmp(&id)).is_lt());
        shard.insert(
            pos,
            Entry {
                key,
                id,
                coordinate,
            },
        );
        if shard.len() > capacity {
            let tail = shard.split_off(shard.len() / 2);
            self.shards.insert(si + 1, tail);
            self.splits += 1;
            // The old fence (the pre-split last entry) now closes the tail
            // shard; the left half gets a fresh one.
            if let Some(fence) = self.fences.get(si).cloned() {
                self.fences.insert(si + 1, fence);
            }
        }
        self.refresh_fence(si);
    }

    /// Removes an entry, merging the shrunken shard into a neighbour when
    /// both fit in one.
    fn remove_entry(&mut self, key: u128, id: &Id) {
        let si = self.shard_for(key, id);
        let Some(shard) = self.shards.get_mut(si) else {
            return;
        };
        let Ok(pos) = shard.binary_search_by(|e| e.key.cmp(&key).then_with(|| e.id.cmp(id))) else {
            return;
        };
        shard.remove(pos);
        let len = shard.len();
        if len == 0 {
            self.shards.remove(si);
            if self.fences.len() > si {
                self.fences.remove(si);
            }
            return;
        }
        self.refresh_fence(si);
        let capacity = self.config.max_shard_entries;
        if len >= capacity / 4 {
            return;
        }
        // Underfull: fold into whichever neighbour keeps the merge within
        // capacity, preferring the left one. The absorbed shard's fence
        // becomes the surviving shard's.
        if si > 0 {
            // bounds: si > 0 and si < shards.len(), so si - 1 is a shard.
            if let Some(left_len) = self.shards.get(si - 1).map(Vec::len) {
                if left_len + len <= capacity {
                    let tail = self.shards.remove(si);
                    if let Some(left) = self.shards.get_mut(si - 1) {
                        left.extend(tail);
                        self.merges += 1;
                    }
                    if self.fences.len() > si {
                        let fence = self.fences.remove(si);
                        if let Some(slot) = self.fences.get_mut(si - 1) {
                            *slot = fence;
                        }
                    }
                    return;
                }
            }
        }
        if let Some(right_len) = self.shards.get(si + 1).map(Vec::len) {
            if right_len + len <= capacity {
                let right = self.shards.remove(si + 1);
                if let Some(shard) = self.shards.get_mut(si) {
                    shard.extend(right);
                    self.merges += 1;
                }
                if self.fences.len() > si + 1 {
                    let fence = self.fences.remove(si + 1);
                    if let Some(slot) = self.fences.get_mut(si) {
                        *slot = fence;
                    }
                }
            }
        }
    }
}

/// A bounded best-k set ordered by `(distance, id)`: the exact-distance
/// re-ranking buffer. Insertion keeps the vector sorted; `offer` is `O(k)`
/// in the worst case and `O(log k)` when the candidate does not qualify.
struct RankedSet<Id> {
    k: usize,
    entries: Vec<(f64, Id)>,
}

impl<Id: Clone + Ord> RankedSet<Id> {
    fn new(k: usize) -> Self {
        RankedSet {
            k,
            entries: Vec::with_capacity(k.min(1024) + 1),
        }
    }

    /// The current k-th best distance — only a valid pruning bound once k
    /// candidates are held, so `None` before that.
    fn worst(&self) -> Option<f64> {
        if self.entries.len() >= self.k {
            self.entries.last().map(|(d, _)| *d)
        } else {
            None
        }
    }

    fn offer(&mut self, distance: f64, id: &Id) {
        if self.entries.len() >= self.k {
            if let Some((worst, worst_id)) = self.entries.last() {
                let candidate_wins = distance
                    .total_cmp(worst)
                    .then_with(|| id.cmp(worst_id))
                    .is_lt();
                if !candidate_wins {
                    return;
                }
            }
        }
        let pos = self
            .entries
            .partition_point(|(d, i)| d.total_cmp(&distance).then_with(|| i.cmp(id)).is_lt());
        self.entries.insert(pos, (distance, id.clone()));
        if self.entries.len() > self.k {
            self.entries.pop();
        }
    }

    fn into_sorted(self) -> Vec<(f64, Id)> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(max_shard: usize) -> CoordinateIndex<u32> {
        CoordinateIndex::new(QueryConfig {
            dimensions: 3,
            coordinate_bound_ms: 1_000.0,
            max_shard_entries: max_shard,
        })
        .unwrap()
    }

    fn coord(x: f64, y: f64, z: f64) -> Coordinate {
        Coordinate::new([x, y, z]).unwrap()
    }

    #[test]
    fn update_insert_move_remove() {
        let mut idx = index(8);
        assert!(idx.update(1, &coord(10.0, 0.0, 0.0)).unwrap());
        assert!(!idx.update(1, &coord(500.0, 0.0, 0.0)).unwrap());
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(&1));
        assert!(!idx.remove(&1));
        assert!(idx.is_empty());
        assert_eq!(idx.shard_count(), 0);
    }

    #[test]
    fn update_rejects_bad_coordinates() {
        let mut idx = index(8);
        let two_d = Coordinate::new([1.0, 2.0]).unwrap();
        assert!(matches!(
            idx.update(1, &two_d),
            Err(QueryError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
        // `Coordinate::new` already rejects NaN, but arithmetic on valid
        // coordinates can still produce one; the index refuses it.
        let poisoned = coord(1.0, 0.0, 0.0).scale(f64::NAN);
        assert!(matches!(
            idx.update(1, &poisoned),
            Err(QueryError::NonFiniteCoordinate)
        ));
        assert!(idx.is_empty());
    }

    #[test]
    fn knn_ranks_by_exact_distance() {
        let mut idx = index(64);
        for i in 0..100u32 {
            idx.update(i, &coord(i as f64, 0.0, 0.0)).unwrap();
        }
        let target = coord(42.3, 0.0, 0.0);
        let matches = idx.k_nearest(&target, 3).unwrap();
        let ids: Vec<u32> = matches.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![42, 43, 41]);
        assert!(matches[0].distance_ms < matches[1].distance_ms);
        assert_eq!(idx.nearest(&target).unwrap().unwrap().id, 42);
    }

    #[test]
    fn knn_on_colocated_points_breaks_ties_by_id() {
        let mut idx = index(8);
        for i in 0..20u32 {
            idx.update(i, &coord(5.0, 5.0, 5.0)).unwrap();
        }
        let ids: Vec<u32> = idx
            .k_nearest(&coord(5.0, 5.0, 5.0), 4)
            .unwrap()
            .iter()
            .map(|m| m.id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn skewed_inserts_split_and_removals_merge() {
        let mut idx = index(16);
        // Everything lands in one corner of the key space.
        for i in 0..200u32 {
            idx.update(i, &coord(900.0 + (i as f64) * 0.4, 900.0, 900.0))
                .unwrap();
        }
        let (splits, _) = idx.rebalances();
        assert!(splits > 0, "skewed load must split shards");
        let (_, largest) = idx.occupancy();
        assert!(largest <= 16, "no shard may exceed capacity");
        for i in 0..195u32 {
            idx.remove(&i);
        }
        let (_, merges) = idx.rebalances();
        assert!(merges > 0, "draining must merge underfull shards");
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn removing_from_a_single_underfull_shard_is_safe() {
        // Regression: with one shard and no neighbours, the merge probe
        // used a usize::MAX "no neighbour" sentinel that overflowed when
        // the shard length was added to it.
        let mut idx = index(64);
        for i in 0..8u32 {
            idx.update(i, &coord(i as f64, 0.0, 0.0)).unwrap();
        }
        assert_eq!(idx.shard_count(), 1);
        assert!(idx.remove(&3));
        assert_eq!(idx.len(), 7);
    }

    #[test]
    fn centroid_and_clusters() {
        let mut idx = index(32);
        for i in 0..10u32 {
            idx.update(i, &coord(-800.0, -800.0, 0.0)).unwrap();
        }
        for i in 10..30u32 {
            idx.update(i, &coord(800.0, 800.0, 0.0)).unwrap();
        }
        let centroid = idx.centroid().unwrap();
        // 10 nodes at -800, 20 at +800 → mean +266.67 per occupied axis.
        assert!((centroid.components()[0] - 266.666).abs() < 1.0);
        let clusters = idx.clusters(6).unwrap();
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].count, 10);
        assert_eq!(clusters[1].count, 20);
        assert!((clusters[0].centroid.components()[0] + 800.0).abs() < 1.0);
    }

    #[test]
    fn absorb_view_tracks_owner_and_peers() {
        use stable_nc::{NodeConfig, ProbeResponse, StableNode};
        let mut node: StableNode<u32> = StableNode::new(NodeConfig::paper_defaults());
        let remote = coord(20.0, 30.0, 0.0);
        let mut events = Vec::new();
        for i in 0..64u64 {
            let request = node.probe_request_for(7, i);
            let mut response = ProbeResponse::new(7, &request, remote.clone(), 0.5);
            response.rtt_ms = 40.0;
            node.handle_response_into(&response, &mut events);
        }
        let mut idx = index(32);
        let touched = idx.absorb_view(Some(&0), &node.view()).unwrap();
        assert_eq!(touched, 2, "owner + one neighbour");
        assert_eq!(idx.len(), 2);
        assert_eq!(
            idx.nearest(&remote).unwrap().unwrap().id,
            7,
            "the neighbour's indexed coordinate is the one it advertised"
        );
    }

    #[test]
    fn queries_validate_the_target() {
        let idx = index(8);
        assert!(matches!(
            idx.k_nearest(&Coordinate::new([1.0]).unwrap(), 2),
            Err(QueryError::DimensionMismatch { .. })
        ));
        assert!(idx.clusters(200).is_err());
    }
}
