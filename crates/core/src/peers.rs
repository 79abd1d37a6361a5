//! What a [`StableNode`](crate::StableNode) keeps per remote peer: the peer
//! table's entry and the two paged stores its handles point into.
//! Engine-internal — nothing here is reachable from outside the crate.

use std::num::NonZeroU32;

use nc_filters::{
    EwmaFilter, FilterState, LatencyFilter, MovingPercentileFilter, RawFilter, StateMismatch,
    ThresholdFilter,
};
use nc_vivaldi::Coordinate;

use crate::config::FilterConfig;

/// What the engine keeps for every id it has *heard of*: one entry of the
/// peer table, whether the peer was ever measured or only gossiped about.
///
/// The entry holds two handles, nothing else — 8 bytes, 16 with a `usize`
/// key. A node in a large mesh hears of several times more peers than it
/// measures, and the table's capacity is a power of two above even that,
/// so whatever sits in the bucket is paid for two to five times per
/// measured link. The last-known coordinate therefore lives in the node's
/// [`SnapshotStore`], packed at the width of the space, and the latency
/// filter in its [`LinkStore`]; a seeded-only id holds neither, a
/// gossip-only id holds no window because it has no observations to put in
/// one.
///
/// Rotation membership needs no flag: every entry is either in the node's
/// `membership` or holds a snapshot (`restore` gives each link entry one
/// and enters each membership id, and an eviction removes the whole entry),
/// so an id is newly discovered exactly when the table has no entry for it.
#[derive(Default)]
pub(crate) struct PeerState {
    /// Handle of the peer's last-known coordinate and error estimate in the
    /// [`SnapshotStore`], set once the peer has been observed first-hand or
    /// learned through gossip and released on eviction.
    pub(crate) snapshot: Option<Handle>,
    /// Handle of the peer's record in the [`LinkStore`], set when the first
    /// reply from it is digested and released on eviction.
    pub(crate) link: Option<Handle>,
}

/// The record number a store handed out, plus one, so that
/// `Option<Handle>` takes the 4 bytes of the number itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Handle(NonZeroU32);

impl Handle {
    fn new(record: usize) -> Handle {
        let number = u32::try_from(record + 1).ok().and_then(NonZeroU32::new);
        // nc-lint: allow(panic) — a store would need 2^32 records, 400 GiB
        // of link records, before a number stopped fitting.
        Handle(number.expect("a store holds fewer than 2^32 - 1 records"))
    }

    fn record(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// Records per page of a [`Pages`] store.
const PAGE: usize = 64;

/// Fixed-width records of `stride` elements each, kept in pages of
/// [`PAGE`] records. Every page but the last is full, and a full page
/// never moves or reallocates; only the last page grows, doubling like a
/// `Vec` from one record up to a page. A store therefore holds at most one
/// page it does not use however many records it has, and one holding three
/// records allocates for four, where a single `Vec` holds up to twice its
/// records once it is large.
struct Pages<T> {
    pages: Vec<Vec<T>>,
    /// Elements per record.
    stride: usize,
}

impl<T> Pages<T> {
    fn new(stride: usize) -> Self {
        Pages {
            pages: Vec::new(),
            stride,
        }
    }

    /// Records stored.
    fn len(&self) -> usize {
        self.pages.last().map_or(0, |last| {
            (self.pages.len() - 1) * PAGE + last.len() / self.stride
        })
    }

    /// Appends one record; it is record number `len()` before the call.
    ///
    /// # Panics
    ///
    /// Panics unless `record` yields exactly `stride` elements.
    fn push(&mut self, record: impl IntoIterator<Item = T>) {
        let page = PAGE * self.stride;
        if self.pages.last().is_none_or(|last| last.len() == page) {
            // One directory entry per page: a node with one page would
            // otherwise pay for the three more a `Vec` reserves at first.
            self.pages.reserve_exact(1);
            self.pages.push(Vec::new());
        }
        let last = self.pages.len() - 1;
        let open = &mut self.pages[last];
        if open.len() == open.capacity() {
            let grown = (2 * open.capacity()).clamp(self.stride, page);
            open.reserve_exact(grown - open.len());
        }
        let start = open.len();
        open.extend(record);
        assert_eq!(open.len() - start, self.stride, "record width");
    }

    /// The `stride` elements of `record`.
    fn get(&self, record: usize) -> &[T] {
        let start = record % PAGE * self.stride;
        // bounds: `record` is below `len()`, so its page exists and holds
        // the record's `stride` elements from `start` on.
        &self.pages[record / PAGE][start..start + self.stride]
    }

    fn get_mut(&mut self, record: usize) -> &mut [T] {
        let start = record % PAGE * self.stride;
        // bounds: as in `get`.
        &mut self.pages[record / PAGE][start..start + self.stride]
    }

    /// Elements stored, elements allocated, and the page directory's
    /// capacity.
    #[cfg(test)]
    fn footprint(&self) -> [usize; 3] {
        [
            self.pages.iter().map(Vec::len).sum(),
            self.pages.iter().map(Vec::capacity).sum(),
            self.pages.capacity(),
        ]
    }
}

/// Last-known coordinate state, one record per id the node holds a
/// coordinate for (measured or gossiped), addressed by the handles the
/// peer table hands out. A record is `dims` components, the height and the
/// error estimate — `8·(dims + 2)` bytes, 40 in the paper's 3-D space
/// against the 88 an inline `Coordinate` plus estimate take — where `dims`
/// is the configured dimensionality, which every stored coordinate has to
/// match anyway.
///
/// Same idiom and same guarantee as the [`LinkStore`]: freed records are
/// reused before the store grows, and nothing observable depends on where a
/// record sits.
pub(crate) struct SnapshotStore {
    /// Records of `dims + 2` `f64`s.
    records: Pages<f64>,
    /// Records whose peer was evicted, reused before the store grows.
    free: Vec<Handle>,
}

impl SnapshotStore {
    /// An empty store for coordinates of `dims` dimensions.
    pub(crate) fn new(dims: usize) -> Self {
        SnapshotStore {
            records: Pages::new(dims + 2),
            free: Vec::new(),
        }
    }

    /// Stores a record and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics when `coordinate` is not of the store's dimensionality; the
    /// engine discards such coordinates before they reach any state.
    pub(crate) fn insert(&mut self, coordinate: &Coordinate, error_estimate: f64) -> Handle {
        let handle = match self.free.pop() {
            Some(handle) => handle,
            None => {
                let handle = Handle::new(self.records.len());
                self.records
                    .push(std::iter::repeat_n(0.0, self.records.stride));
                handle
            }
        };
        self.overwrite(handle, coordinate, error_estimate);
        handle
    }

    /// Replaces the record behind `handle` in place.
    fn overwrite(&mut self, handle: Handle, coordinate: &Coordinate, error_estimate: f64) {
        let record = self.records.get_mut(handle.record());
        let dims = record.len() - 2;
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
    pub(crate) fn put(&mut self, slot: &mut Option<Handle>, coordinate: &Coordinate, error: f64) {
        match *slot {
            Some(handle) => self.overwrite(handle, coordinate, error),
            None => *slot = Some(self.insert(coordinate, error)),
        }
    }

    /// Gives the record behind `handle` back for reuse.
    pub(crate) fn release(&mut self, handle: Handle) {
        self.free.push(handle);
    }

    /// The coordinate and error estimate behind `handle`, bit for bit what
    /// was stored.
    pub(crate) fn get(&self, handle: Handle) -> (Coordinate, f64) {
        let record = self.records.get(handle.record());
        let dims = record.len() - 2;
        let coordinate = Coordinate::with_height(&record[..dims], record[dims])
            // nc-lint: allow(panic) — every record was copied out of a valid
            // `Coordinate` of this width; a failure here is a corrupted store.
            .expect("snapshot store holds only valid coordinates");
        // bounds: dims + 1 == stride - 1, the record's last lane.
        (coordinate, record[dims + 1])
    }

    /// Records currently owned by a table entry.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.records.len() - self.free.len()
    }

    /// What the store has allocated: `f64`s in use, `f64`s allocated, page
    /// directory capacity, free-list capacity.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> [usize; 4] {
        let [used, allocated, pages] = self.records.footprint();
        [used, allocated, pages, self.free.capacity()]
    }
}

/// First-hand link state, one record per peer this node has *measured*,
/// addressed by the handles the peer table hands out. Paged rather than a
/// box per link because each page grows geometrically — a node that
/// measures two hundred peers allocates some thirty times, not two hundred
/// — and keeps the records of one node together.
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
    /// Records of one `PeerFilter` each.
    records: Pages<PeerFilter>,
    /// Records whose peer was evicted, reused before the store grows. A
    /// freed record stays in place until then; nothing reads it, because
    /// its only handle died with the table entry.
    free: Vec<Handle>,
    /// Valid observations a link must deliver before its estimate is used.
    warmup_samples: u64,
}

impl LinkStore {
    /// An empty store whose links warm up over `warmup_samples` samples.
    pub(crate) fn new(warmup_samples: u64) -> Self {
        LinkStore {
            records: Pages::new(1),
            free: Vec::new(),
            warmup_samples,
        }
    }

    /// Stores `record` and returns its handle.
    pub(crate) fn insert(&mut self, record: PeerFilter) -> Handle {
        match self.free.pop() {
            Some(handle) => {
                *self.get_mut(handle) = record;
                handle
            }
            None => {
                let handle = Handle::new(self.records.len());
                self.records.push([record]);
                handle
            }
        }
    }

    /// Gives the record behind `handle` back for reuse.
    pub(crate) fn release(&mut self, handle: Handle) {
        self.free.push(handle);
    }

    /// The record behind `handle`, for its state and its observation count;
    /// its estimate is read through [`estimate`](LinkStore::estimate).
    pub(crate) fn get(&self, handle: Handle) -> &PeerFilter {
        &self.records.get(handle.record())[0]
    }

    pub(crate) fn get_mut(&mut self, handle: Handle) -> &mut PeerFilter {
        &mut self.records.get_mut(handle.record())[0]
    }

    /// Feeds one raw RTT to the link's filter and returns the estimate it
    /// releases, once the link is warm.
    pub(crate) fn observe(&mut self, handle: Handle, raw_rtt_ms: f64) -> Option<f64> {
        let warmup_samples = self.warmup_samples;
        let filter = self.get_mut(handle);
        let estimate = filter.observe(raw_rtt_ms)?;
        (filter.observations_seen() >= warmup_samples).then_some(estimate)
    }

    /// The link's current estimate, once the link is warm.
    pub(crate) fn estimate(&self, handle: Handle) -> Option<f64> {
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

    /// What the store has allocated: records in use, records allocated,
    /// page directory capacity, free-list capacity.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> [usize; 4] {
        let [used, allocated, pages] = self.records.footprint();
        [used, allocated, pages, self.free.capacity()]
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

    /// Layout pin: each store allocates at most one page — 64 records —
    /// beyond the records it holds, and below a page no more than the
    /// single `Vec` it replaced: a `Vec<PeerFilter>` pushed a record at a
    /// time, a `Vec<f64>` resized a record at a time. Evicting and
    /// reinserting records reuses them and allocates none.
    #[test]
    fn layout_pin_store_slack_within_one_page() {
        let (dims, page) = (3, 64);
        let stride = dims + 2;
        let coordinate = Coordinate::origin(dims);
        let filter = || PeerFilter::new(&FilterConfig::paper_mp());
        for count in [1, 3, 63, 64, 65, 590, 1_000] {
            let (mut links, mut snapshots) = (LinkStore::new(0), SnapshotStore::new(dims));
            let (mut link_vec, mut snapshot_vec) = (Vec::new(), Vec::<f64>::new());
            let mut handles = Vec::new();
            for _ in 0..count {
                handles.push((links.insert(filter()), snapshots.insert(&coordinate, 0.5)));
                link_vec.push(filter());
                snapshot_vec.resize(snapshot_vec.len() + stride, 0.0);
            }
            let check = |links: &LinkStore, snapshots: &SnapshotStore| {
                let [used, allocated, ..] = links.footprint();
                assert_eq!(used, count);
                assert!(
                    allocated <= used + page,
                    "{count} links: {allocated} allocated"
                );
                if count < page {
                    assert!(
                        allocated <= link_vec.capacity(),
                        "{count} links: {allocated}"
                    );
                }
                let [used, allocated, ..] = snapshots.footprint();
                assert_eq!(used, count * stride);
                assert!(
                    allocated <= used + page * stride,
                    "{count} snapshots: {allocated} f64s allocated"
                );
                if count < page {
                    assert!(allocated <= snapshot_vec.capacity(), "{count} snapshots");
                }
            };
            check(&links, &snapshots);
            let allocated = (
                links.footprint()[..2].to_vec(),
                snapshots.footprint()[..2].to_vec(),
            );
            for _ in 0..10 {
                for (link, snapshot) in handles.iter_mut().step_by(2) {
                    links.release(*link);
                    snapshots.release(*snapshot);
                }
                for (link, snapshot) in handles.iter_mut().step_by(2) {
                    *link = links.insert(filter());
                    *snapshot = snapshots.insert(&coordinate, 0.5);
                }
            }
            check(&links, &snapshots);
            assert_eq!(
                (
                    links.footprint()[..2].to_vec(),
                    snapshots.footprint()[..2].to_vec()
                ),
                allocated
            );
        }
    }

    proptest! {
        /// No simulator workload leaves 3-D with zero heights, so this is
        /// the cover the general stride has: against a model indexed by
        /// record number, across page boundaries, every live record reads
        /// back bit for bit after every operation and a handle is never
        /// handed out while it is live.
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
                        let handle = store.insert(&record.0, record.1).record();
                        if handle == model.len() {
                            prop_assert!(model.iter().all(Option::is_some), "grew past a free slot");
                            model.push(None);
                        }
                        prop_assert!(model[handle].is_none(), "handle {} is live", handle);
                        model[handle] = Some(record);
                    }
                    (2, false) => {
                        let handle = live[(word >> 8) as usize % live.len()];
                        let mut slot = Some(Handle::new(handle));
                        store.put(&mut slot, &record.0, record.1);
                        prop_assert_eq!(slot, Some(Handle::new(handle)));
                        model[handle] = Some(record);
                    }
                    (_, false) => {
                        let handle = live[(word >> 8) as usize % live.len()];
                        store.release(Handle::new(handle));
                        model[handle] = None;
                    }
                }
                let live = model.iter().flatten().count();
                prop_assert_eq!(store.live(), live);
                prop_assert_eq!(store.footprint()[0], model.len() * (dims + 2));
                for (handle, expected) in model.iter().enumerate() {
                    if let Some(expected) = expected {
                        prop_assert_eq!(bits(&store.get(Handle::new(handle))), bits(expected));
                    }
                }
            }
        }
    }
}
