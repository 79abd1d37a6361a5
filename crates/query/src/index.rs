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
//! and BIGMIN-jumping the long ones, and offers every in-box entry to the
//! seed's best-k, which it keeps: the seed's entries form one contiguous
//! run of cursors, and the scan crosses that run in one step wherever it
//! meets it, so no entry is offered twice. Every time the k-th best
//! distance improves it becomes the new `D` and the box contracts, so the
//! scan range keeps tightening around the answer.
//!
//! The result is byte-identical to a brute-force scan of every entry (the
//! oracle the test suite compares against). The answer is the k smallest,
//! under the total `(distance, id)` order, of the set of offered entries,
//! each offered once. That set holds every entry within the final bound,
//! and so the true k nearest: such an entry lies inside every box the scan
//! used, since each was built from a bound no smaller, so the scan offered
//! it unless the seed had. Pruning only ever discards entries strictly
//! farther than the current k-th best, and distance ties stay inside the
//! box because the corners are inclusive.
//!
//! # Shards
//!
//! Entries live in a `Vec` of sorted shards. A shard that outgrows the
//! configured capacity splits in half; a shard that shrinks below a quarter
//! of capacity merges into a neighbour when the result still fits. Under
//! occupancy skew (every insert landing in one key range) the layout
//! therefore rebalances itself: no shard ever exceeds capacity, and binary
//! search over shard bounds keeps updates logarithmic.
//!
//! # Layout
//!
//! Each tracked coordinate is stored once, in its shard, packed at the
//! width of the space. A shard is three parallel columns sorted by
//! `(key, id)`: the Morton keys, the ids, and `dims + 1` `f64`s per entry
//! (the active components, then the height). That is
//! `16 + size_of::<Id>() + 8·(dims + 1)` bytes per entry, 56 for `u64` ids
//! in 3-D. The position map holds only each node's key, which is all an
//! update or removal needs to find the entry. A k-NN scan tests the dense
//! key column and reads the values of in-box entries only. The best-k set
//! carries each candidate's `(shard, offset)` cursor, so an answer's
//! coordinate is read straight from its shard. Coordinates leave the index
//! rebuilt through [`Coordinate::with_height`], bit for bit what was
//! stored, and a packed entry is ranked by
//! [`Coordinate::distance_to_parts`], the same arithmetic as
//! [`Coordinate::distance`].

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

/// One shard: the entries of one key range as three parallel columns,
/// sorted by `(key, id)`. Entry `i` is `keys[i]`, `ids[i]` and the record
/// of `stride = dims + 1` values starting at `values[i * stride]`. The
/// stride is the index's, passed in rather than kept per shard.
#[derive(Debug, Clone)]
struct Shard<Id> {
    keys: Vec<u128>,
    ids: Vec<Id>,
    /// Per entry: the active components, then the height.
    values: Vec<f64>,
}

/// An entry's position: `(shard, offset)`.
type Cursor = (usize, usize);

impl<Id: Ord> Shard<Id> {
    fn new() -> Self {
        Shard {
            keys: Vec::new(),
            ids: Vec::new(),
            values: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// `Ok(offset)` of the `(key, id)` entry, or `Err(offset)` where it
    /// would be inserted: the run of equal keys first, then the ids inside
    /// it.
    fn find(&self, key: u128, id: &Id) -> Result<usize, usize> {
        let start = self.keys.partition_point(|k| *k < key);
        let run = self
            .keys
            .get(start..)
            .map_or(0, |rest| rest.partition_point(|k| *k == key));
        match self.ids.get(start..start + run) {
            Some(ids) => ids
                .binary_search(id)
                .map(|i| start + i)
                .map_err(|i| start + i),
            None => Err(start),
        }
    }

    /// The packed record of the entry at `offset`.
    fn record(&self, offset: usize, stride: usize) -> Option<&[f64]> {
        self.values.get(offset * stride..(offset + 1) * stride)
    }

    /// The exact distance from `target` to the entry at `offset`, and the
    /// entry's id.
    fn rank(&self, offset: usize, stride: usize, target: &Coordinate) -> Option<(f64, &Id)> {
        let (height, components) = self.record(offset, stride)?.split_last()?;
        let id = self.ids.get(offset)?;
        Some((target.distance_to_parts(components, *height), id))
    }

    /// Overwrites the record of the entry at `offset` with `coordinate`.
    fn write(&mut self, offset: usize, stride: usize, coordinate: &Coordinate) {
        let record = self
            .values
            .get_mut(offset * stride..(offset + 1) * stride)
            .and_then(|record| record.split_last_mut());
        if let Some((height, components)) = record {
            // The index checks every coordinate's width at the boundary,
            // so the lengths always match.
            components.copy_from_slice(coordinate.components());
            *height = coordinate.height();
        }
    }

    /// Inserts an entry at `offset` of all three columns.
    fn insert(&mut self, offset: usize, stride: usize, key: u128, id: Id, coordinate: &Coordinate) {
        self.keys.insert(offset, key);
        self.ids.insert(offset, id);
        let at = offset * stride;
        let record = coordinate
            .components()
            .iter()
            .copied()
            .chain([coordinate.height()]);
        self.values.splice(at..at, record);
    }

    /// Removes the entry at `offset` from all three columns.
    fn remove(&mut self, offset: usize, stride: usize) {
        self.keys.remove(offset);
        self.ids.remove(offset);
        let at = offset * stride;
        self.values.drain(at..at + stride);
    }

    /// Moves the entries from `at` on into a new shard.
    fn split_off(&mut self, at: usize, stride: usize) -> Self {
        Shard {
            keys: self.keys.split_off(at),
            ids: self.ids.split_off(at),
            values: self.values.split_off(at * stride),
        }
    }

    /// Moves every entry of `tail`, whose keys all follow this shard's, to
    /// the end of this shard.
    fn append(&mut self, tail: &mut Self) {
        self.keys.append(&mut tail.keys);
        self.ids.append(&mut tail.ids);
        self.values.append(&mut tail.values);
    }
}

/// The coordinate a packed record holds, rebuilt bit for bit (−0.0
/// included). `None` only for a record no valid coordinate produced,
/// which the boundary checks rule out.
fn rebuild(record: &[f64]) -> Option<Coordinate> {
    let (height, components) = record.split_last()?;
    Coordinate::with_height(components, *height).ok()
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

/// The units of work a k-NN scan is tallied in.
enum Work {
    /// One entry key put through the in-box test.
    KeyTested,
    /// One entry ranked by exact distance (seed and scan alike).
    Ranked,
    /// One BIGMIN jump.
    Jump,
    /// One binary search of the fences for a key.
    Locate,
}

/// The exact work of k-NN scans, counted in the crate's own test build
/// only. Everywhere else it is an empty type and [`Tally::add`] compiles
/// to nothing, so the query path pays nothing for it.
#[derive(Default)]
struct Tally {
    /// Indexed by [`Work`].
    #[cfg(test)]
    counts: [u64; 4],
}

impl Tally {
    #[inline(always)]
    fn add(&mut self, _work: Work) {
        #[cfg(test)]
        if let Some(count) = self.counts.get_mut(_work as usize) {
            *count += 1;
        }
    }
}

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
    /// Morton key per node: what an update or removal needs to find the
    /// node's entry. The coordinate itself is kept only in the shards.
    positions: FxHashMap<Id, u128>,
    /// Sorted-by-`(key, id)` shards partitioning the key order.
    shards: Vec<Shard<Id>>,
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
        config.validate()?;
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

    /// `f64`s per packed record: the components, then the height.
    fn stride(&self) -> usize {
        self.config.dimensions + 1
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
    /// A re-insertion whose quantized cell is unchanged only rewrites the
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
                let old_key = std::mem::replace(stored, key);
                if old_key == key {
                    self.refresh_entry(key, &id, coordinate);
                } else {
                    self.remove_entry(old_key, &id);
                    self.insert_entry(key, id, coordinate);
                }
                Ok(false)
            }
            None => {
                self.positions.insert(id.clone(), key);
                self.insert_entry(key, id, coordinate);
                Ok(true)
            }
        }
    }

    /// Removes a node. Returns `true` when it was tracked.
    pub fn remove(&mut self, id: &Id) -> bool {
        match self.positions.remove(id) {
            Some(key) => {
                self.remove_entry(key, id);
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
        self.k_nearest_tallied(target, k, &mut Tally::default())
    }

    /// [`Self::k_nearest`], adding the scan's work to `tally`.
    fn k_nearest_tallied(
        &self,
        target: &Coordinate,
        k: usize,
        tally: &mut Tally,
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
        let mut best = RankedSet::new(k);
        tally.add(Work::Locate);
        let start = self.locate_key(zq);
        let mut forward = start;
        let mut taken = 0usize;
        while taken < span {
            let Some((distance, id)) = self.rank_at(forward, target) else {
                break;
            };
            tally.add(Work::Ranked);
            best.offer(distance, id, forward);
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
            if let Some((distance, id)) = self.rank_at(backward, target) {
                tally.add(Work::Ranked);
                best.offer(distance, id, backward);
            }
            taken += 1;
        }
        let Some(bound) = best.worst() else {
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
        let stride = self.stride();
        let masks = dimension_masks(dims as u32);
        let mut qbox = self.query_box(target, bound, &masks);

        // Scan the box's key range, stepping over short out-of-box gaps
        // entry by entry and BIGMIN-jumping the long ones, and offer every
        // in-box entry to the seed's best-k. The seed ranked the cursors
        // `[backward, forward)` already, so wherever the scan meets that
        // range (stepping into it, starting inside it or jumping into it)
        // it resumes at `forward`: every entry is ranked at most once.
        let mut before_seed = true;
        tally.add(Work::Locate);
        let mut cursor = self.locate_key(qbox.zmin);
        let mut outside_streak = 0usize;
        'scan: loop {
            if before_seed && cursor >= backward {
                before_seed = false;
                cursor = cursor.max(forward);
            }
            let (si, mut ei) = cursor;
            let Some(shard) = self.shards.get(si) else {
                break;
            };
            // This run of keys ends at the shard's end or where the seed's
            // range starts, whichever comes first.
            let end = if before_seed && si == backward.0 {
                backward.1
            } else {
                shard.len()
            };
            let keys = shard.keys.get(..end).unwrap_or_default();
            while let Some(&key) = keys.get(ei) {
                if key > qbox.zmax {
                    break 'scan;
                }
                tally.add(Work::KeyTested);
                // Every dimension is tested and the results combined with
                // `&`: a short-circuit test would branch on which dimension
                // fails first, which the data makes unpredictable.
                let mut in_box = true;
                for ((mask, lo), hi) in masks.iter().zip(&qbox.lo).zip(&qbox.hi).take(dims) {
                    let masked = key & mask;
                    in_box &= (*lo <= masked) & (masked <= *hi);
                }
                if in_box {
                    outside_streak = 0;
                    if let Some((distance, id)) = shard.rank(ei, stride, target) {
                        tally.add(Work::Ranked);
                        best.offer(distance, id, (si, ei));
                    }
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
                    tally.add(Work::Jump);
                    match bigmin(key, qbox.zmin, qbox.zmax, dims as u32, &masks) {
                        Some(next) if next > key => {
                            // Most jumps land in the current shard: bisect
                            // its remaining keys before paying for the
                            // full fence search.
                            cursor = match shard.keys.get(ei..) {
                                Some(rest) if rest.last().is_some_and(|last| next <= *last) => {
                                    (si, ei + rest.partition_point(|k| *k < next))
                                }
                                _ => {
                                    tally.add(Work::Locate);
                                    self.locate_key(next)
                                }
                            };
                            continue 'scan;
                        }
                        _ => break 'scan,
                    }
                }
            }
            // The run is done: on to the next shard, or to the seed's range.
            cursor = if end < shard.len() {
                (si, end)
            } else {
                (si + 1, 0)
            };
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
        Coordinate::centroid_iter(self.iter().map(|(_, coordinate)| coordinate))
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
        let prefix_of = |key: u128| if shift >= 128 { 0 } else { key >> shift };
        let mut clusters: Vec<ClusterSummary> = Vec::new();
        let mut entries = self.entries().peekable();
        while let Some((key, _, first)) = entries.next() {
            // A cluster is a run of equal prefixes in key order: average it
            // as it streams past, one rebuilt coordinate at a time.
            let prefix = prefix_of(key);
            let mut count = 1usize;
            let members = std::iter::once(first).chain(std::iter::from_fn(|| {
                let (_, _, coordinate) = entries.next_if(|(key, ..)| prefix_of(*key) == prefix)?;
                count += 1;
                Some(coordinate)
            }));
            if let Some(centroid) = Coordinate::centroid_iter(members) {
                clusters.push(ClusterSummary {
                    prefix,
                    count,
                    centroid,
                });
            }
        }
        Ok(clusters)
    }

    /// The tracked coordinate of one node, `None` when it is not indexed.
    pub fn coordinate_of(&self, id: &Id) -> Option<Coordinate> {
        let key = *self.positions.get(id)?;
        self.coordinate_at(self.cursor_of(key, id)?)
    }

    /// Iterates `(id, coordinate)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Id, Coordinate)> {
        self.entries().map(|(_, id, coordinate)| (id, coordinate))
    }

    /// Iterates `(key, id, coordinate)` in key order.
    fn entries(&self) -> impl Iterator<Item = (u128, &Id, Coordinate)> {
        let stride = self.stride();
        self.shards.iter().flat_map(move |shard| {
            shard
                .keys
                .iter()
                .zip(&shard.ids)
                .zip(shard.values.chunks_exact(stride))
                .filter_map(|((key, id), record)| Some((*key, id, rebuild(record)?)))
        })
    }

    /// Ranks every tracked node by exact distance — the brute-force path
    /// used for small indexes and as the defensive fallback.
    fn rank_all(&self, target: &Coordinate, k: usize) -> Vec<QueryMatch<Id>> {
        let stride = self.stride();
        let mut best = RankedSet::new(k);
        for (si, shard) in self.shards.iter().enumerate() {
            for ei in 0..shard.len() {
                if let Some((distance, id)) = shard.rank(ei, stride, target) {
                    best.offer(distance, id, (si, ei));
                }
            }
        }
        self.resolve(best)
    }

    /// Materialises a ranked set into query matches, reading each
    /// coordinate back through the candidate's cursor.
    fn resolve(&self, best: RankedSet<Id>) -> Vec<QueryMatch<Id>> {
        let mut matches = Vec::with_capacity(best.entries.len());
        for (distance_ms, id, cursor) in best.entries {
            if let Some(coordinate) = self.coordinate_at(cursor) {
                matches.push(QueryMatch {
                    id,
                    distance_ms,
                    coordinate,
                });
            }
        }
        matches
    }

    // ------------------------------------------------------------------
    // Shard plumbing.
    // ------------------------------------------------------------------

    /// Position of the first entry whose key is `>= key`, as a
    /// `(shard, offset)` cursor; `(shard_count, 0)` when every entry is
    /// smaller.
    fn locate_key(&self, key: u128) -> Cursor {
        let si = self.fences.partition_point(|(k, _)| *k < key);
        match self.shards.get(si) {
            Some(shard) => (si, shard.keys.partition_point(|k| *k < key)),
            None => (si, 0),
        }
    }

    /// The cursor of the `(key, id)` entry, if it is stored.
    fn cursor_of(&self, key: u128, id: &Id) -> Option<Cursor> {
        let si = self.shard_for(key, id);
        Some((si, self.shards.get(si)?.find(key, id).ok()?))
    }

    /// The exact distance from `target` to the entry under a cursor, and
    /// the entry's id.
    fn rank_at(&self, cursor: Cursor, target: &Coordinate) -> Option<(f64, &Id)> {
        self.shards
            .get(cursor.0)?
            .rank(cursor.1, self.stride(), target)
    }

    /// The coordinate of the entry under a cursor.
    fn coordinate_at(&self, cursor: Cursor) -> Option<Coordinate> {
        rebuild(self.shards.get(cursor.0)?.record(cursor.1, self.stride())?)
    }

    /// The cursor one entry forward in key order.
    fn advance(&self, cursor: Cursor) -> Cursor {
        let len = self.shards.get(cursor.0).map_or(0, Shard::len);
        if cursor.1 + 1 < len {
            (cursor.0, cursor.1 + 1)
        } else {
            (cursor.0 + 1, 0)
        }
    }

    /// The cursor one entry backward in key order, or `None` at the start.
    fn retreat(&self, cursor: Cursor) -> Option<Cursor> {
        if cursor.1 > 0 {
            return Some((cursor.0, cursor.1 - 1));
        }
        let mut si = cursor.0;
        while si > 0 {
            si -= 1;
            if let Some(shard) = self.shards.get(si) {
                if let Some(last) = shard.len().checked_sub(1) {
                    return Some((si, last));
                }
            }
        }
        None
    }

    /// What the index has allocated: shard column bytes in use, shard
    /// column bytes of capacity, position-map capacity, and shard-list
    /// plus fence capacity.
    #[cfg(test)]
    fn footprint(&self) -> [usize; 4] {
        use std::mem::size_of;
        let (mut used, mut reserved) = (0, 0);
        for shard in &self.shards {
            used += shard.keys.len() * size_of::<u128>()
                + shard.ids.len() * size_of::<Id>()
                + shard.values.len() * size_of::<f64>();
            reserved += shard.keys.capacity() * size_of::<u128>()
                + shard.ids.capacity() * size_of::<Id>()
                + shard.values.capacity() * size_of::<f64>();
        }
        [
            used,
            reserved,
            self.positions.capacity(),
            self.shards.capacity() + self.fences.capacity(),
        ]
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
        if let (Some(fence), Some(shard)) = (self.fences.get_mut(si), self.shards.get(si)) {
            if let (Some(key), Some(id)) = (shard.keys.last(), shard.ids.last()) {
                fence.0 = *key;
                fence.1.clone_from(id);
            }
        }
    }

    /// Rewrites the packed coordinate of an existing `(key, id)` entry —
    /// the same-cell update fast path, which leaves the layout untouched.
    fn refresh_entry(&mut self, key: u128, id: &Id, coordinate: &Coordinate) {
        let stride = self.stride();
        let Some((si, ei)) = self.cursor_of(key, id) else {
            return;
        };
        if let Some(shard) = self.shards.get_mut(si) {
            shard.write(ei, stride, coordinate);
        }
    }

    /// Inserts an entry, splitting the receiving shard when it overflows.
    fn insert_entry(&mut self, key: u128, id: Id, coordinate: &Coordinate) {
        let stride = self.stride();
        if self.shards.is_empty() {
            let mut shard = Shard::new();
            shard.insert(0, stride, key, id.clone(), coordinate);
            self.fences.push((key, id));
            self.shards.push(shard);
            return;
        }
        let si = self.shard_for(key, &id);
        let capacity = self.config.max_shard_entries;
        let Some(shard) = self.shards.get_mut(si) else {
            return;
        };
        let (Ok(pos) | Err(pos)) = shard.find(key, &id);
        shard.insert(pos, stride, key, id, coordinate);
        if shard.len() > capacity {
            let tail = shard.split_off(shard.len() / 2, stride);
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
        let stride = self.stride();
        let Some((si, pos)) = self.cursor_of(key, id) else {
            return;
        };
        let Some(shard) = self.shards.get_mut(si) else {
            return;
        };
        shard.remove(pos, stride);
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
            if let Some(left_len) = self.shards.get(si - 1).map(Shard::len) {
                if left_len + len <= capacity {
                    let mut tail = self.shards.remove(si);
                    if let Some(left) = self.shards.get_mut(si - 1) {
                        left.append(&mut tail);
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
        if let Some(right_len) = self.shards.get(si + 1).map(Shard::len) {
            if right_len + len <= capacity {
                let mut right = self.shards.remove(si + 1);
                if let Some(shard) = self.shards.get_mut(si) {
                    shard.append(&mut right);
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
/// ranking buffer. Each candidate carries the cursor of its entry, so the
/// answer's coordinates are read back without a `positions` lookup. The
/// vector stays sorted: an offer that does not beat the k-th best costs
/// one comparison, and one that does takes the k-th best's slot and is
/// swapped toward the front past every entry it beats, an insertion-sort
/// step that never moves the entries behind it and never grows the buffer
/// past `k`.
struct RankedSet<Id> {
    k: usize,
    entries: Vec<(f64, Id, Cursor)>,
}

impl<Id: Clone + Ord> RankedSet<Id> {
    fn new(k: usize) -> Self {
        RankedSet {
            k,
            entries: Vec::with_capacity(k.min(1024)),
        }
    }

    /// The current k-th best distance — only a valid pruning bound once k
    /// candidates are held, so `None` before that.
    fn worst(&self) -> Option<f64> {
        if self.entries.len() >= self.k {
            self.entries.last().map(|(d, ..)| *d)
        } else {
            None
        }
    }

    fn offer(&mut self, distance: f64, id: &Id, cursor: Cursor) {
        let precedes =
            |(d, i, _): &(f64, Id, Cursor)| distance.total_cmp(d).then_with(|| id.cmp(i)).is_lt();
        if self.entries.len() < self.k {
            self.entries.push((distance, id.clone(), cursor));
        } else {
            match self.entries.last_mut() {
                Some(last) if precedes(last) => *last = (distance, id.clone(), cursor),
                _ => return,
            }
        }
        let mut at = self.entries.len() - 1;
        while at > 0 && self.entries.get(at - 1).is_some_and(precedes) {
            self.entries.swap(at - 1, at);
            at -= 1;
        }
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

    /// Layout pin: a tracked node costs one shard entry of exactly its key,
    /// its id and `dims + 1` packed `f64`s (before capacity slack), and one
    /// position-map bucket of id and key.
    #[test]
    fn layout_pin_index_entry() {
        use std::mem::size_of;
        assert_eq!(size_of::<(u64, u128)>(), 32, "position bucket, u64 ids");
        for dims in 1..=MAX_DIMENSIONS {
            let mut idx: CoordinateIndex<u64> = CoordinateIndex::new(QueryConfig {
                dimensions: dims,
                ..QueryConfig::default()
            })
            .unwrap();
            let nodes = 2_000u64;
            for id in 0..nodes {
                let components: Vec<f64> = (0..dims as u64)
                    .map(|d| ((id * 37 + d * 101) % 1_000) as f64 - 500.0)
                    .collect();
                idx.update(id, &Coordinate::new(components).unwrap())
                    .unwrap();
            }
            let per_entry = 16 + size_of::<u64>() + 8 * (dims + 1);
            assert_eq!(
                idx.footprint()[0],
                nodes as usize * per_entry,
                "dims={dims}"
            );
            if dims == 3 {
                assert_eq!(per_entry, 56);
            }
        }
    }

    /// 10,000 cycles of insert, same-cell refresh, cross-cell move and
    /// remove, with splits and merges in every cycle, leave the index's
    /// allocations where the first cycle left them.
    #[test]
    fn update_move_remove_cycles_do_not_grow_the_index() {
        let mut idx = index(8);
        for id in 0..40u32 {
            idx.update(id, &coord(id as f64 * 20.0 - 400.0, 0.0, 0.0))
                .unwrap();
        }
        let cycle = |idx: &mut CoordinateIndex<u32>| {
            let (splits, merges) = idx.rebalances();
            for id in 100..124u32 {
                idx.update(id, &coord(600.0 + id as f64 * 0.5, 600.0, 0.0))
                    .unwrap();
            }
            for id in 100..124u32 {
                // Same cell (a 0.03 ms grid), then across the space.
                idx.update(id, &coord(600.0 + id as f64 * 0.5, 600.001, 0.0))
                    .unwrap();
                idx.update(id, &coord(-600.0 - id as f64 * 0.5, 0.0, 600.0))
                    .unwrap();
            }
            for id in 100..124u32 {
                assert!(idx.remove(&id));
            }
            assert_eq!(idx.len(), 40);
            let (splits_now, merges_now) = idx.rebalances();
            assert!(splits_now > splits && merges_now > merges);
        };
        cycle(&mut idx);
        let after_first = idx.footprint();
        for _ in 0..10_000 {
            cycle(&mut idx);
        }
        assert_eq!(idx.footprint(), after_first);
    }

    /// A splitmix64 step: the pinned workload's inputs depend on nothing
    /// outside this file.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A 3-D coordinate within ±300 ms with a height of 0–4 ms, the shape
    /// of the `query-drift` benchmark's nodes.
    fn drawn(state: &mut u64) -> Coordinate {
        let mut unit = || (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64;
        let components = [
            unit() * 600.0 - 300.0,
            unit() * 600.0 - 300.0,
            unit() * 600.0 - 300.0,
        ];
        Coordinate::with_height(components, unit() * 4.0).unwrap()
    }

    /// Work pin: 1,000 exact 8-NN reads on a seeded 10,000-node 3-D index
    /// do exactly this much work, and every answer equals a brute-force
    /// ranking. The counts move only when the scan does different work.
    #[test]
    fn knn_work_tally_is_pinned() {
        let mut state = 44u64;
        let mut idx = CoordinateIndex::new(QueryConfig::default()).unwrap();
        let nodes: Vec<Coordinate> = (0..10_000).map(|_| drawn(&mut state)).collect();
        for (id, coordinate) in nodes.iter().enumerate() {
            idx.update(id as u32, coordinate).unwrap();
        }
        let mut tally = Tally::default();
        for _ in 0..1_000 {
            let target = drawn(&mut state);
            let answer: Vec<(u32, f64)> = idx
                .k_nearest_tallied(&target, 8, &mut tally)
                .unwrap()
                .into_iter()
                .map(|m| (m.id, m.distance_ms))
                .collect();
            let by_rank = |a: &(u32, f64), b: &(u32, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
            let mut oracle: Vec<(u32, f64)> = nodes
                .iter()
                .enumerate()
                .map(|(id, coordinate)| (id as u32, target.distance(coordinate)))
                .collect();
            oracle.select_nth_unstable_by(8, by_rank);
            oracle.truncate(8);
            oracle.sort_by(by_rank);
            assert_eq!(answer, oracle);
        }
        // Keys tested, entries ranked (63,949 of them in seed phases, at most
        // 2 × 32 a query), BIGMIN jumps and fence locates. A scan that ranks the
        // seed's range again into a cleared best-k reads 150,680 / 93,144
        // / 6,260 / 3,684. One that ranks it again into the carried best-k,
        // or skips it only where the scan steps onto its first cursor,
        // offers seed entries twice and fails the oracle above.
        assert_eq!(tally.counts, [111_271, 78_869, 5_490, 3_652]);
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
