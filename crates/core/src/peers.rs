//! What a [`StableNode`](crate::StableNode) keeps per remote peer: the peer
//! table's entry and the two slabs its handles point into. Engine-internal —
//! nothing here is reachable from outside the crate.

use nc_filters::{
    EwmaFilter, FilterState, LatencyFilter, MovingPercentileFilter, RawFilter, StateMismatch,
    ThresholdFilter,
};
use nc_vivaldi::Coordinate;

use crate::config::FilterConfig;

/// What the engine keeps for every id it has *heard of*: one entry of the
/// peer table, whether the peer was ever measured or only gossiped about.
///
/// The entry holds two handles and a flag, nothing else. A node in a large
/// mesh hears of several times more peers than it measures, and the table's
/// capacity is a power of two above even that, so whatever sits in the
/// bucket is paid for two to five times per measured link — and most of a
/// `Coordinate`'s 80 inline bytes are lanes a 3-D space never uses. The
/// last-known coordinate therefore lives in the node's [`SnapshotStore`],
/// packed at the width of the space, and the latency filter in its
/// [`LinkStore`]; a seeded-only id holds neither, a gossip-only id holds no
/// window because it has no observations to put in one.
#[derive(Default)]
pub(crate) struct PeerState {
    /// Handle of the peer's last-known coordinate and error estimate in the
    /// [`SnapshotStore`], set once the peer has been observed first-hand or
    /// learned through gossip and released on eviction.
    pub(crate) snapshot: Option<u32>,
    /// Handle of the peer's record in the [`LinkStore`], set when the first
    /// reply from it is digested and released on eviction.
    pub(crate) link: Option<u32>,
    /// Whether the peer sits in the round-robin `membership` rotation.
    pub(crate) member: bool,
}

/// Last-known coordinate state, one record per id the node holds a
/// coordinate for (measured or gossiped): a slab of `f64`s addressed by the
/// `u32` handles the peer table hands out. A record is `dims` components,
/// the height and the error estimate — `8·(dims + 2)` bytes, 40 in the
/// paper's 3-D space against the 88 an inline `Coordinate` plus estimate
/// take — where `dims` is the configured dimensionality, which every stored
/// coordinate has to match anyway.
///
/// Same idiom and same guarantee as the [`LinkStore`]: freed slots are
/// reused before the slab grows, and nothing observable depends on where a
/// record sits.
pub(crate) struct SnapshotStore {
    /// `f64`s per record: `dims + 2`.
    stride: usize,
    data: Vec<f64>,
    /// Slots whose peer was evicted, reused before the slab grows.
    free: Vec<u32>,
}

impl SnapshotStore {
    /// An empty store for coordinates of `dims` dimensions.
    pub(crate) fn new(dims: usize) -> Self {
        SnapshotStore {
            stride: dims + 2,
            data: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores a record and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics when `coordinate` is not of the store's dimensionality; the
    /// engine discards such coordinates before they reach any state.
    pub(crate) fn insert(&mut self, coordinate: &Coordinate, error_estimate: f64) -> u32 {
        let handle = match self.free.pop() {
            Some(handle) => handle,
            None => {
                let handle = (self.data.len() / self.stride) as u32;
                self.data.resize(self.data.len() + self.stride, 0.0);
                handle
            }
        };
        self.overwrite(handle, coordinate, error_estimate);
        handle
    }

    /// Replaces the record behind `handle` in place.
    fn overwrite(&mut self, handle: u32, coordinate: &Coordinate, error_estimate: f64) {
        let dims = self.stride - 2;
        let start = handle as usize * self.stride;
        // bounds: a handle is a record number this store handed out, so
        // start + stride <= data.len().
        let record = &mut self.data[start..start + self.stride];
        // `copy_from_slice` is the width check: it panics on a coordinate
        // that does not have exactly `dims` components.
        record[..dims].copy_from_slice(coordinate.components());
        record[dims] = coordinate.height();
        // bounds: dims + 1 == stride - 1, the record's last lane.
        record[dims + 1] = error_estimate;
    }

    /// Overwrites the record `slot` names, or stores a new one and names it.
    ///
    /// # Panics
    ///
    /// As [`insert`](SnapshotStore::insert).
    pub(crate) fn put(&mut self, slot: &mut Option<u32>, coordinate: &Coordinate, error: f64) {
        match *slot {
            Some(handle) => self.overwrite(handle, coordinate, error),
            None => *slot = Some(self.insert(coordinate, error)),
        }
    }

    /// Gives the slot behind `handle` back for reuse.
    pub(crate) fn release(&mut self, handle: u32) {
        self.free.push(handle);
    }

    /// The coordinate and error estimate behind `handle`, bit for bit what
    /// was stored.
    pub(crate) fn get(&self, handle: u32) -> (Coordinate, f64) {
        let dims = self.stride - 2;
        let start = handle as usize * self.stride;
        // bounds: a handle is a record number this store handed out, so
        // start + stride <= data.len().
        let record = &self.data[start..start + self.stride];
        let coordinate = Coordinate::with_height(&record[..dims], record[dims])
            // nc-lint: allow(panic) — every record was copied out of a valid
            // `Coordinate` of this width; a failure here is a corrupted slab.
            .expect("snapshot store holds only valid coordinates");
        // bounds: dims + 1 == stride - 1, the record's last lane.
        (coordinate, record[dims + 1])
    }

    /// Records currently owned by a table entry.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.data.len() / self.stride - self.free.len()
    }

    /// What the store has allocated: `f64`s in use, slab capacity,
    /// free-list capacity.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> [usize; 3] {
        [self.data.len(), self.data.capacity(), self.free.capacity()]
    }
}

/// First-hand link state, one record per peer this node has *measured*: a
/// slab addressed by the `u32` handles the peer table hands out. A slab
/// rather than a box per link because it grows geometrically — a node that
/// measures two hundred peers allocates eight times, not two hundred — and
/// keeps the records of one node together.
///
/// The store is also the one place a link's estimate leaves through, so it
/// applies the §VI warm-up fix: [`observe`](LinkStore::observe) and
/// [`estimate`](LinkStore::estimate) withhold a link's estimate until its
/// filter has seen `warmup_samples` valid observations. `0` and `1` switch
/// the check off, since a filter has no estimate before its first sample.
///
/// Nothing observable depends on where a record sits: snapshots and views
/// walk the membership list and read records through the table, so slot
/// reuse order never reaches a report.
pub(crate) struct LinkStore {
    records: Vec<PeerFilter>,
    /// Slots whose peer was evicted, reused before the slab grows. A freed
    /// record stays in place until then; nothing reads it, because its only
    /// handle died with the table entry.
    free: Vec<u32>,
    /// Valid observations a link must deliver before its estimate is used.
    warmup_samples: u64,
}

impl LinkStore {
    /// An empty store whose links warm up over `warmup_samples` samples.
    pub(crate) fn new(warmup_samples: u64) -> Self {
        LinkStore {
            records: Vec::new(),
            free: Vec::new(),
            warmup_samples,
        }
    }

    /// Stores `record` and returns its handle.
    pub(crate) fn insert(&mut self, record: PeerFilter) -> u32 {
        match self.free.pop() {
            Some(handle) => {
                self.records[handle as usize] = record;
                handle
            }
            None => {
                self.records.push(record);
                (self.records.len() - 1) as u32
            }
        }
    }

    /// Gives the slot behind `handle` back for reuse.
    pub(crate) fn release(&mut self, handle: u32) {
        self.free.push(handle);
    }

    /// The record behind `handle`, for its state and its observation count;
    /// its estimate is read through [`estimate`](LinkStore::estimate).
    pub(crate) fn get(&self, handle: u32) -> &PeerFilter {
        &self.records[handle as usize]
    }

    pub(crate) fn get_mut(&mut self, handle: u32) -> &mut PeerFilter {
        &mut self.records[handle as usize]
    }

    /// Feeds one raw RTT to the link's filter and returns the estimate it
    /// releases, once the link is warm.
    pub(crate) fn observe(&mut self, handle: u32, raw_rtt_ms: f64) -> Option<f64> {
        let filter = &mut self.records[handle as usize];
        let estimate = filter.observe(raw_rtt_ms)?;
        (filter.observations_seen() >= self.warmup_samples).then_some(estimate)
    }

    /// The link's current estimate, once the link is warm.
    pub(crate) fn estimate(&self, handle: u32) -> Option<f64> {
        let filter = self.get(handle);
        if filter.observations_seen() >= self.warmup_samples {
            filter.current_estimate()
        } else {
            None
        }
    }

    /// Records currently owned by a table entry.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.records.len() - self.free.len()
    }

    /// What the store has allocated: records in use, slab capacity,
    /// free-list capacity.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> [usize; 3] {
        [
            self.records.len(),
            self.records.capacity(),
            self.free.capacity(),
        ]
    }
}

/// The per-link record of the [`LinkStore`]: the link's latency filter, one
/// arm per family the configuration can name, each stored by value — no
/// box, no vtable, and (for the moving-percentile family at the paper's
/// `h = 4`) no heap-backed window either, so digesting a response reaches
/// the window with one dependent load from the peer entry.
///
/// The link's filtered RTT and observation count, which views and snapshots
/// report, are the filter's `current_estimate()` / `observations_seen()`
/// read when asked for — they are not copied out per observation.
pub(crate) enum PeerFilter {
    Raw(RawFilter),
    /// The moving-percentile family, the moving median included (p = 50).
    MovingPercentile(MovingPercentileFilter),
    Ewma(EwmaFilter),
    Threshold(ThresholdFilter),
}

/// Runs `$body` with `$filter` bound to the arm's filter, whichever it is.
macro_rules! each_arm {
    ($record:expr, $filter:ident => $body:expr) => {
        match $record {
            PeerFilter::Raw($filter) => $body,
            PeerFilter::MovingPercentile($filter) => $body,
            PeerFilter::Ewma($filter) => $body,
            PeerFilter::Threshold($filter) => $body,
        }
    };
}

impl PeerFilter {
    /// Builds the filter `config` describes for a newly measured link.
    ///
    /// # Panics
    ///
    /// Panics on the parameters [`FilterConfig::validate`] reports as typed
    /// errors, which `NodeConfigBuilder::try_build` surfaces before a node
    /// exists.
    pub(crate) fn new(config: &FilterConfig) -> PeerFilter {
        let built = match *config {
            FilterConfig::Raw => Ok(PeerFilter::Raw(RawFilter::new())),
            FilterConfig::MovingPercentile {
                history,
                percentile,
            } => MovingPercentileFilter::new(history, percentile).map(PeerFilter::MovingPercentile),
            FilterConfig::MovingMedian { history } => {
                MovingPercentileFilter::new(history, 50.0).map(PeerFilter::MovingPercentile)
            }
            FilterConfig::Ewma { alpha } => EwmaFilter::new(alpha).map(PeerFilter::Ewma),
            FilterConfig::Threshold { cutoff_ms } => {
                ThresholdFilter::new(cutoff_ms).map(PeerFilter::Threshold)
            }
        };
        // nc-lint: allow(panic) — the constructors refuse exactly what
        // `FilterConfig::validate` reports as a typed error.
        built.expect("filter parameters `FilterConfig::validate` refuses")
    }

    pub(crate) fn observe(&mut self, raw_rtt_ms: f64) -> Option<f64> {
        each_arm!(self, filter => filter.observe(raw_rtt_ms))
    }

    pub(crate) fn current_estimate(&self) -> Option<f64> {
        each_arm!(self, filter => filter.current_estimate())
    }

    pub(crate) fn observations_seen(&self) -> u64 {
        each_arm!(self, filter => filter.observations_seen())
    }

    pub(crate) fn export_state(&self) -> FilterState {
        each_arm!(self, filter => filter.export_state())
    }

    pub(crate) fn import_state(&mut self, state: &FilterState) -> Result<(), StateMismatch> {
        each_arm!(self, filter => filter.import_state(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A coordinate, height and error estimate drawn from one word; every
    /// lane differs, the height is never zero and negative zero shows up.
    fn record_from(word: u64, dims: usize) -> (Coordinate, f64) {
        let lane = |k: u64| {
            let bits = word.rotate_left(7 * k as u32) ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            match bits % 11 {
                0 => -0.0,
                _ => (bits as i64 >> 20) as f64 / 1024.0,
            }
        };
        let components: Vec<f64> = (0..dims as u64).map(lane).collect();
        let height = lane(8).abs() + 0.5;
        let coordinate = Coordinate::with_height(components, height).unwrap();
        (coordinate, lane(9))
    }

    fn bits((coordinate, error): &(Coordinate, f64)) -> Vec<u64> {
        coordinate
            .components()
            .iter()
            .chain([&coordinate.height(), error])
            .map(|lane| lane.to_bits())
            .collect()
    }

    /// Layout pin: a snapshot record is the active components, the height
    /// and the error estimate and nothing else, whatever the width of the
    /// space.
    #[test]
    fn layout_pin_snapshot_record_is_dims_plus_two_f64() {
        for dims in 1..=nc_vivaldi::MAX_DIMS {
            let mut store = SnapshotStore::new(dims);
            store.insert(&Coordinate::origin(dims), 0.5);
            let bytes = store.footprint()[0] * std::mem::size_of::<f64>();
            assert_eq!(bytes, 8 * (dims + 2));
        }
    }

    proptest! {
        /// No simulator workload leaves 3-D with zero heights, so this is
        /// the cover the general stride has: against a model indexed by
        /// handle, every live record reads back bit for bit after every
        /// operation and a handle is never handed out while it is live.
        #[test]
        fn snapshot_store_matches_a_model_at_every_width(
            dims in 1usize..=8,
            words in proptest::collection::vec(0u64..u64::MAX, 1..300),
        ) {
            let mut store = SnapshotStore::new(dims);
            let mut model: Vec<Option<(Coordinate, f64)>> = Vec::new();
            for word in words {
                let live: Vec<usize> = (0..model.len()).filter(|&h| model[h].is_some()).collect();
                let record = record_from(word, dims);
                match (word % 4, live.is_empty()) {
                    (0 | 1, _) | (_, true) => {
                        let handle = store.insert(&record.0, record.1) as usize;
                        if handle == model.len() {
                            prop_assert!(model.iter().all(Option::is_some), "grew past a free slot");
                            model.push(None);
                        }
                        prop_assert!(model[handle].is_none(), "handle {} is live", handle);
                        model[handle] = Some(record);
                    }
                    (2, false) => {
                        let handle = live[(word >> 8) as usize % live.len()];
                        let mut slot = Some(handle as u32);
                        store.put(&mut slot, &record.0, record.1);
                        prop_assert_eq!(slot, Some(handle as u32));
                        model[handle] = Some(record);
                    }
                    (_, false) => {
                        let handle = live[(word >> 8) as usize % live.len()];
                        store.release(handle as u32);
                        model[handle] = None;
                    }
                }
                let live = model.iter().flatten().count();
                prop_assert_eq!(store.live(), live);
                prop_assert_eq!(store.footprint()[0], model.len() * (dims + 2));
                for (handle, expected) in model.iter().enumerate() {
                    if let Some(expected) = expected {
                        prop_assert_eq!(bits(&store.get(handle as u32)), bits(expected));
                    }
                }
            }
        }
    }
}
