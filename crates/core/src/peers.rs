//! What a [`StableNode`](crate::StableNode) keeps per remote peer: the peer
//! table, whose entries are the probe rotation, and the two paged stores its
//! entries' handles point into. Engine-internal — nothing here is reachable
//! from outside the crate.

use std::hash::{Hash, Hasher};
use std::num::NonZeroU32;

use nc_filters::{
    EwmaLink, FilterConfig, FilterState, LinkFilter, MovingPercentileWindow, RawLink,
    StateMismatch, ThresholdLink,
};
use nc_vivaldi::Coordinate;

use crate::fxhash::FxHasher;

/// What the engine keeps for every id it has *heard of*, beside the id in
/// its [`PeerTable`] entry, whether the peer was ever measured or only
/// gossiped about.
///
/// The state is two handles, nothing else — 8 bytes, a 16-byte entry with a
/// `usize` id. A node in a large mesh hears of several times more peers than
/// it measures, so whatever sits in the entry is paid for two to three times
/// per measured link. The last-known coordinate therefore lives in the
/// node's [`SnapshotStore`], packed at the width of the space, and the
/// link's filter state in its [`LinkStore`], at the width of the node's
/// filter family; a seeded-only id holds neither, a gossip-only id holds no
/// filter state because it has no observations to put in one.
///
/// Rotation membership needs no flag: the entry's position in the table
/// says it (see [`PeerTable`]).
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

/// Elements per record of a [`Pages`] store.
trait Stride: Copy {
    fn elements(self) -> usize;
}

/// A width chosen at run time: the snapshot store's `dims + 2` `f64`s.
impl Stride for usize {
    fn elements(self) -> usize {
        self
    }
}

/// One element per record, known when the store is compiled, so a store
/// of typed records spends no bytes on its width.
#[derive(Clone, Copy)]
struct Single;

impl Stride for Single {
    fn elements(self) -> usize {
        1
    }
}

/// Fixed-width records of `stride` elements each, kept in pages of
/// [`PAGE`] records. Every page but the last is full, and a full page
/// never moves or reallocates; only the last page grows, doubling like a
/// `Vec` from one record up to a page. A store therefore holds at most one
/// page it does not use however many records it has, and one holding three
/// records allocates for four, where a single `Vec` holds up to twice its
/// records once it is large.
struct Pages<T, S: Stride> {
    pages: Vec<Vec<T>>,
    /// Elements per record.
    stride: S,
}

impl<T, S: Stride> Pages<T, S> {
    fn new(stride: S) -> Self {
        Pages {
            pages: Vec::new(),
            stride,
        }
    }

    /// Records stored.
    fn len(&self) -> usize {
        self.pages.last().map_or(0, |last| {
            (self.pages.len() - 1) * PAGE + last.len() / self.stride.elements()
        })
    }

    /// Appends one record; it is record number `len()` before the call.
    ///
    /// # Panics
    ///
    /// Panics unless `record` yields exactly `stride` elements.
    fn push(&mut self, record: impl IntoIterator<Item = T>) {
        let stride = self.stride.elements();
        let page = PAGE * stride;
        if self.pages.last().is_none_or(|last| last.len() == page) {
            // One directory entry per page: a node with one page would
            // otherwise pay for the three more a `Vec` reserves at first.
            self.pages.reserve_exact(1);
            self.pages.push(Vec::new());
        }
        let last = self.pages.len() - 1;
        let open = &mut self.pages[last];
        if open.len() == open.capacity() {
            let grown = (2 * open.capacity()).clamp(stride, page);
            open.reserve_exact(grown - open.len());
        }
        let start = open.len();
        open.extend(record);
        assert_eq!(open.len() - start, stride, "record width");
    }

    /// The `stride` elements of `record`.
    fn get(&self, record: usize) -> &[T] {
        let stride = self.stride.elements();
        let start = record % PAGE * stride;
        // bounds: `record` is below `len()`, so its page exists and holds
        // the record's `stride` elements from `start` on.
        &self.pages[record / PAGE][start..start + stride]
    }

    fn get_mut(&mut self, record: usize) -> &mut [T] {
        let stride = self.stride.elements();
        let start = record % PAGE * stride;
        // bounds: as in `get`.
        &mut self.pages[record / PAGE][start..start + stride]
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

impl<T> Pages<T, Single> {
    /// The record behind `handle`.
    fn record(&self, handle: Handle) -> &T {
        &self.get(handle.record())[0]
    }

    fn record_mut(&mut self, handle: Handle) -> &mut T {
        &mut self.get_mut(handle.record())[0]
    }

    /// The records in order.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flatten()
    }

    /// Puts `value` at `record`, moving every later record up by one.
    fn insert(&mut self, record: usize, value: T) {
        let mut carry = value;
        for later in record..self.len() {
            carry = std::mem::replace(&mut self.get_mut(later)[0], carry);
        }
        self.push([carry]);
    }

    /// Takes the record at `record` out, moving every later record down by
    /// one. A page left empty is freed, so every page stays non-empty.
    ///
    /// # Panics
    ///
    /// Panics unless `record` is below `len()`.
    fn remove(&mut self, record: usize) -> T {
        assert!(record < self.len(), "record {record} out of range");
        let last = self.pages.len() - 1;
        // nc-lint: allow(panic) — pages are never empty, so the last holds
        // the last record.
        let mut carry = self.pages[last].pop().expect("pages are non-empty");
        if self.pages[last].is_empty() {
            self.pages.pop();
        }
        for earlier in (record..self.len()).rev() {
            carry = std::mem::replace(&mut self.get_mut(earlier)[0], carry);
        }
        carry
    }
}

/// Every id a node has heard of, each held once, in one entry beside its
/// [`PeerState`] — the round-robin probe rotation and the lookup table in
/// one.
///
/// Entries sit in [`Pages`] in table order: the first `rotation` are the
/// probe rotation, in discovery order, and after them come the links a
/// restored snapshot held but whose ids its membership did not name, in
/// snapshot order. Those stay outside the rotation for good, and an id is
/// newly discovered exactly when the table has no entry for it.
///
/// Lookup goes through a key-less index: a `Vec<u32>` of entry positions
/// plus one (0 = empty), probed linearly from the id's FxHash. Its length is
/// a power of two kept at most 7/8 full, so 4 bytes a slot is all the table
/// pays at power-of-two capacity; the ids themselves sit in the pages, which
/// hold at most one page of entries unused. A `HashMap<Id, u32>` would pay
/// for a second copy of every id in its buckets.
///
/// A removal moves the later entries down and rebuilds the index, O(n) as
/// any removal from an ordered rotation is; so does a discovery while
/// entries sit outside the rotation, which only a restored node has.
/// Evictions are rare (a few thousand in a 1,024-node hostile hour). Table
/// order is a function of the ids inserted and removed alone.
pub(crate) struct PeerTable<Id> {
    entries: Pages<(Id, PeerState), Single>,
    /// Entries `0..rotation` are the probe rotation.
    rotation: usize,
    /// Entry positions plus one, 0 for an empty slot; empty or a power of
    /// two long.
    index: Vec<Slot>,
}

/// One slot of a [`PeerTable`]'s index.
type Slot = u32;

/// Index length of a table's first entry.
const MIN_INDEX: usize = 8;

impl<Id: Eq + Hash + Clone> PeerTable<Id> {
    pub(crate) fn new() -> Self {
        PeerTable {
            entries: Pages::new(Single),
            rotation: 0,
            index: Vec::new(),
        }
    }

    /// Entries held, in and outside the rotation.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries in the probe rotation.
    pub(crate) fn rotation_len(&self) -> usize {
        self.rotation
    }

    /// The id and state of the entry at `position`.
    ///
    /// # Panics
    ///
    /// Panics unless `position` is below [`len`](PeerTable::len).
    pub(crate) fn at(&self, position: usize) -> (&Id, &PeerState) {
        let (id, peer) = &self.entries.get(position)[0];
        (id, peer)
    }

    /// Every entry in table order: the rotation, then the rest.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Id, &PeerState)> {
        self.entries.iter().map(|(id, peer)| (id, peer))
    }

    /// The rotation's entries in rotation order.
    pub(crate) fn rotation(&self) -> impl Iterator<Item = (&Id, &PeerState)> {
        self.iter().take(self.rotation)
    }

    /// The position of `id`'s entry.
    fn position(&self, id: &Id) -> Option<usize> {
        self.find(id).ok().map(|slot| self.index[slot] as usize - 1)
    }

    pub(crate) fn get(&self, id: &Id) -> Option<&PeerState> {
        self.position(id).map(|position| self.at(position).1)
    }

    /// `id`'s entry; when the table had none, one is created at the end of
    /// the rotation and the flag is `true`. An entry outside the rotation
    /// stays outside it.
    pub(crate) fn member(&mut self, id: &Id) -> (&mut PeerState, bool) {
        self.get_or_insert(id, true)
    }

    /// `id`'s entry; when the table had none, one is created outside the
    /// rotation, at the end of the table.
    pub(crate) fn outside_rotation(&mut self, id: &Id) -> &mut PeerState {
        self.get_or_insert(id, false).0
    }

    /// Removes `id`'s entry and returns the position it held and its state.
    pub(crate) fn remove(&mut self, id: &Id) -> Option<(usize, PeerState)> {
        let position = self.position(id)?;
        let (_, peer) = self.entries.remove(position);
        if position < self.rotation {
            self.rotation -= 1;
        }
        self.rebuild_index(self.index.len());
        Some((position, peer))
    }

    fn get_or_insert(&mut self, id: &Id, in_rotation: bool) -> (&mut PeerState, bool) {
        let (position, new) = match self.find(id) {
            Ok(slot) => (self.index[slot] as usize - 1, false),
            Err(empty) => (self.insert(id.clone(), in_rotation, empty), true),
        };
        (&mut self.entries.get_mut(position)[0].1, new)
    }

    /// Stores a new entry for `id`, whose probe ended at the slot `empty`,
    /// and returns its position.
    fn insert(&mut self, id: Id, in_rotation: bool, empty: usize) -> usize {
        let len = self.len();
        // nc-lint: allow(panic) — a table would need 2^32 entries, 64 GiB
        // of them, before a position stopped fitting a slot.
        let number = Slot::try_from(len + 1).expect("a table holds fewer than 2^32 - 1 entries");
        let grown = if 8 * (len + 1) > 7 * self.index.len() {
            (2 * self.index.len()).max(MIN_INDEX)
        } else {
            self.index.len()
        };
        let position = if in_rotation { self.rotation } else { len };
        self.entries.insert(position, (id, PeerState::default()));
        if in_rotation {
            self.rotation += 1;
        }
        if position == len && grown == self.index.len() {
            // Appended, and no other entry moved: the slot the probe ended
            // at takes it.
            self.index[empty] = number;
        } else {
            self.rebuild_index(grown);
        }
        position
    }

    /// The slot holding `id`'s position, or the empty slot its probe ends
    /// at. With no index yet, `Err(0)`.
    fn find(&self, id: &Id) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut slot = self.home(id);
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                number if self.at(number as usize - 1).0 == id => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The first slot `id`'s probe looks at: the top bits of its FxHash,
    /// where the multiply leaves the most of every input bit.
    fn home(&self, id: &Id) -> usize {
        let mut hasher = FxHasher::default();
        id.hash(&mut hasher);
        let bits = self.index.len().trailing_zeros();
        (hasher.finish() >> (64 - bits)) as usize
    }

    /// Builds a new index of `len` slots, a power of two, from the entries.
    fn rebuild_index(&mut self, len: usize) {
        self.index = vec![0; len];
        let mask = len - 1;
        for position in 0..self.len() {
            let mut slot = self.home(self.at(position).0);
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            // A position below `len()` fits: `insert` checked `len() + 1`.
            self.index[slot] = (position + 1) as Slot;
        }
    }

    /// What the table has allocated: entries held, entries allocated, page
    /// directory capacity, index slots allocated.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> [usize; 4] {
        let [used, allocated, pages] = self.entries.footprint();
        [used, allocated, pages, self.index.capacity()]
    }

    /// Bytes one index slot takes.
    #[cfg(test)]
    pub(crate) fn slot_bytes() -> usize {
        std::mem::size_of::<Slot>()
    }

    /// Index slots allocated and slots in use.
    #[cfg(test)]
    fn index_load(&self) -> (usize, usize) {
        let used = self.index.iter().filter(|&&slot| slot != 0).count();
        (self.index.len(), used)
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
    records: Pages<f64, usize>,
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
/// A node runs one filter family with one set of parameters
/// (`NodeConfig::filter`), so the store is built for that family through
/// the one per-link contract, [`LinkFilter`]: a record is the family's
/// per-link state at the family's own width — a moving-percentile window of
/// up to four samples in 48 bytes, a raw or an EWMA link in 24, a threshold
/// link in 32 — and the family's parameters (`h` and `p`, `α`, the cut-off)
/// are held once, beside the pages, not in every record. The link's
/// filtered RTT and observation count, which views and snapshots report,
/// are read from the record when asked for — they are not copied out per
/// observation.
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
    /// The configured family's parameters and records.
    records: Records,
    /// Records whose peer was evicted, reused before the store grows. A
    /// freed record stays in place until then; nothing reads it, because
    /// its only handle died with the table entry.
    free: Vec<Handle>,
    /// Valid observations a link must deliver before its estimate is used.
    warmup_samples: u64,
}

/// The records of the one filter family a node runs: one arm per family
/// the configuration can name, each holding that family's parameters and
/// pages of its per-link state, by value — no box, no vtable, and (for the
/// moving-percentile family up to `h = 4`) no heap-backed window either.
enum Records {
    Raw(Family<RawLink>),
    /// The moving-percentile family, the moving median included (p = 50).
    MovingPercentile(Family<MovingPercentileWindow>),
    Ewma(Family<EwmaLink>),
    Threshold(Family<ThresholdLink>),
}

/// Runs `$body` with `$family` bound to the store's [`Family`], whichever
/// it is.
macro_rules! each_arm {
    ($records:expr, $family:ident => $body:expr) => {
        match $records {
            Records::Raw($family) => $body,
            Records::MovingPercentile($family) => $body,
            Records::Ewma($family) => $body,
            Records::Threshold($family) => $body,
        }
    };
}

impl LinkStore {
    /// An empty store for links filtered as `filter` describes, whose links
    /// warm up over `warmup_samples` samples. `filter` is one
    /// [`FilterConfig::validate`] accepts: [`crate::StableNode::new`] checks
    /// its configuration before it builds a store.
    pub(crate) fn new(filter: &FilterConfig, warmup_samples: u64) -> Self {
        let records = match *filter {
            FilterConfig::Raw => Records::Raw(Family::new(())),
            FilterConfig::MovingPercentile {
                history,
                percentile,
            } => Records::MovingPercentile(Family::new((history, percentile))),
            FilterConfig::MovingMedian { history } => {
                Records::MovingPercentile(Family::new((history, 50.0)))
            }
            FilterConfig::Ewma { alpha } => Records::Ewma(Family::new(alpha)),
            FilterConfig::Threshold { cutoff_ms } => Records::Threshold(Family::new(cutoff_ms)),
        };
        LinkStore {
            records,
            free: Vec::new(),
            warmup_samples,
        }
    }

    /// Stores a newly measured link, with no observation yet, and returns
    /// its handle.
    pub(crate) fn insert(&mut self) -> Handle {
        each_arm!(&mut self.records, family => {
            let record = LinkFilter::fresh(&family.params);
            family.insert(&mut self.free, record)
        })
    }

    /// Puts a link whose filter state is `state` where `slot` names, or
    /// stores it and names it there; `state` is one `restore` validated.
    ///
    /// # Errors
    ///
    /// The [`StateMismatch`] of a foreign family; nothing is stored then.
    pub(crate) fn import(
        &mut self,
        slot: &mut Option<Handle>,
        state: &FilterState,
    ) -> Result<(), StateMismatch> {
        each_arm!(&mut self.records, family => family.import(&mut self.free, slot, state))
    }

    /// Gives the record behind `handle` back for reuse.
    pub(crate) fn release(&mut self, handle: Handle) {
        self.free.push(handle);
    }

    /// Feeds one raw RTT to the link's filter and returns the estimate it
    /// releases, once the link is warm.
    pub(crate) fn observe(&mut self, handle: Handle, raw_rtt_ms: f64) -> Option<f64> {
        let warmup_samples = self.warmup_samples;
        each_arm!(&mut self.records, family => family.observe(handle, raw_rtt_ms, warmup_samples))
    }

    /// The link's current estimate, once the link is warm.
    pub(crate) fn estimate(&self, handle: Handle) -> Option<f64> {
        each_arm!(&self.records, family => family.estimate(handle, self.warmup_samples))
    }

    /// Valid observations the link's filter has consumed.
    pub(crate) fn observations_seen(&self, handle: Handle) -> u64 {
        each_arm!(&self.records, family => family.records.record(handle).observations_seen())
    }

    /// The link's filter state, in the family's export format.
    pub(crate) fn export_state(&self, handle: Handle) -> FilterState {
        each_arm!(&self.records, family => family.records.record(handle).export_state())
    }

    /// Records currently owned by a table entry.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        each_arm!(&self.records, family => family.records.len()) - self.free.len()
    }

    /// What the store has allocated: records in use, records allocated,
    /// page directory capacity, free-list capacity.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> [usize; 4] {
        let [used, allocated, pages] =
            each_arm!(&self.records, family => family.records.footprint());
        [used, allocated, pages, self.free.capacity()]
    }

    /// Bytes one record of the configured family takes.
    #[cfg(test)]
    pub(crate) fn record_bytes(&self) -> usize {
        each_arm!(&self.records, family => family.record_bytes())
    }
}

/// One filter family's parameters and its link records.
struct Family<F: LinkFilter> {
    params: F::Params,
    records: Pages<F, Single>,
}

impl<F: LinkFilter> Family<F> {
    fn new(params: F::Params) -> Self {
        Family {
            params,
            records: Pages::new(Single),
        }
    }

    /// Stores `record`, in a freed slot before the pages grow, and returns
    /// its handle.
    fn insert(&mut self, free: &mut Vec<Handle>, record: F) -> Handle {
        match free.pop() {
            Some(handle) => {
                *self.records.record_mut(handle) = record;
                handle
            }
            None => {
                let handle = Handle::new(self.records.len());
                self.records.push([record]);
                handle
            }
        }
    }

    /// As [`LinkStore::import`].
    fn import(
        &mut self,
        free: &mut Vec<Handle>,
        slot: &mut Option<Handle>,
        state: &FilterState,
    ) -> Result<(), StateMismatch> {
        let mut record = F::fresh(&self.params);
        record.import_state(&self.params, state)?;
        match *slot {
            Some(handle) => *self.records.record_mut(handle) = record,
            None => *slot = Some(self.insert(free, record)),
        }
        Ok(())
    }

    /// As [`LinkStore::observe`], for links warm after `warmup_samples`.
    fn observe(&mut self, handle: Handle, raw_rtt_ms: f64, warmup_samples: u64) -> Option<f64> {
        let record = self.records.record_mut(handle);
        let estimate = record.observe(&self.params, raw_rtt_ms)?;
        (record.observations_seen() >= warmup_samples).then_some(estimate)
    }

    /// As [`LinkStore::estimate`], for links warm after `warmup_samples`.
    fn estimate(&self, handle: Handle, warmup_samples: u64) -> Option<f64> {
        let record = self.records.record(handle);
        if record.observations_seen() >= warmup_samples {
            record.estimate(&self.params)
        } else {
            None
        }
    }

    #[cfg(test)]
    fn record_bytes(&self) -> usize {
        std::mem::size_of::<F>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;
    use nc_filters::{
        EwmaFilter, LatencyFilter, MovingPercentileFilter, RawFilter, ThresholdFilter,
    };
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
    /// single `Vec` it replaced: a `Vec` of link records pushed a record at
    /// a time, a `Vec<f64>` resized a record at a time. Evicting and
    /// reinserting records reuses them and allocates none.
    #[test]
    fn layout_pin_store_slack_within_one_page() {
        let (dims, page) = (3, 64);
        let stride = dims + 2;
        let coordinate = Coordinate::origin(dims);
        for count in [1, 3, 63, 64, 65, 590, 1_000] {
            let mut links = LinkStore::new(&FilterConfig::paper_mp(), 0);
            let mut snapshots = SnapshotStore::new(dims);
            let (mut link_vec, mut snapshot_vec) = (Vec::new(), Vec::<f64>::new());
            let mut handles = Vec::new();
            for _ in 0..count {
                handles.push((links.insert(), snapshots.insert(&coordinate, 0.5)));
                link_vec.push(MovingPercentileWindow::fresh(&(4, 25.0)));
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
                    *link = links.insert();
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

    /// Maps a random word onto the samples that stress a filter: a small
    /// pool of exact duplicates, both zeros (which every filter refuses),
    /// sub-normals, 1e5-scale outliers and ordinary latencies.
    fn awkward_value(word: u64) -> f64 {
        let fraction = (word >> 8) as f64 / (1u64 << 56) as f64;
        match word % 8 {
            0 | 1 => [80.0, 80.0, 81.5, 79.25][(word >> 8) as usize % 4],
            2 => 0.0,
            3 => -0.0,
            4 => f64::from_bits(1 + (word >> 8) % 4096),
            5 => 1e5 * (1.0 + fraction),
            _ => 0.1 + 500.0 * fraction,
        }
    }

    /// The standalone filter a node configured with `config` measures a
    /// link with.
    fn standalone(config: &FilterConfig) -> Box<dyn LatencyFilter> {
        match *config {
            FilterConfig::Raw => Box::new(RawFilter::new()),
            FilterConfig::MovingPercentile {
                history,
                percentile,
            } => Box::new(MovingPercentileFilter::new(history, percentile).unwrap()),
            FilterConfig::MovingMedian { history } => {
                Box::new(MovingPercentileFilter::new(history, 50.0).unwrap())
            }
            FilterConfig::Ewma { alpha } => Box::new(EwmaFilter::new(alpha).unwrap()),
            FilterConfig::Threshold { cutoff_ms } => {
                Box::new(ThresholdFilter::new(cutoff_ms).unwrap())
            }
        }
    }

    fn estimate_bits(estimate: Option<f64>) -> Option<u64> {
        estimate.map(f64::to_bits)
    }

    proptest! {
        /// The link store and the standalone filters run the same family
        /// code (its arithmetic is held against closed-form models in
        /// `nc-filters`); what this checks is the store around it. Fed the
        /// same samples, every link of the store must be, bit for bit, the
        /// standalone filter of its family behind the warm-up rule: the
        /// same released estimate, current estimate, observation count and
        /// exported state at every step, across an export and re-import in
        /// mid-stream. Two links share each store, one fed the stream
        /// backwards, so a record that strays into its neighbour shows.
        #[test]
        fn link_store_matches_the_standalone_filter_of_every_family(
            stream in proptest::collection::vec((0u64..u64::MAX).prop_map(awkward_value), 1..120),
            percentile in 0.0f64..=100.0,
            alpha in 0.01f64..=1.0,
            cutoff_ms in 50.0f64..2e5,
            warmup in 0u64..6,
            reimport_at in 0usize..120,
        ) {
            let mut configs = vec![
                FilterConfig::Raw,
                FilterConfig::Ewma { alpha },
                FilterConfig::Threshold { cutoff_ms },
            ];
            // Every inline window width and the first heap-backed one, at
            // the drawn percentile, the paper's and the median.
            for history in 1..=5 {
                configs.push(FilterConfig::MovingPercentile { history, percentile });
                configs.push(FilterConfig::MovingPercentile { history, percentile: 25.0 });
                configs.push(FilterConfig::MovingMedian { history });
            }
            for config in configs {
                let mut store = LinkStore::new(&config, warmup);
                let mut links = [store.insert(), store.insert()];
                let mut filters = [standalone(&config), standalone(&config)];
                let warm = |filter: &dyn LatencyFilter, estimate: Option<f64>| {
                    estimate.filter(|_| filter.observations_seen() >= warmup)
                };
                for step in 0..stream.len() {
                    let samples = [stream[step], stream[stream.len() - 1 - step]];
                    for (index, (filter, raw)) in filters.iter_mut().zip(samples).enumerate() {
                        let link = &mut links[index];
                        if step == reimport_at {
                            // The first link moves to a new record, the
                            // second is imported over its own, as a
                            // restore does with a link named twice.
                            let state = store.export_state(*link);
                            let mut slot = Some(*link);
                            if index == 0 {
                                store.release(*link);
                                slot = None;
                            }
                            store.import(&mut slot, &state).unwrap();
                            *link = slot.unwrap();
                            *filter = standalone(&config);
                            filter.import_state(&state).unwrap();
                        }
                        let released = filter.observe(raw);
                        prop_assert_eq!(
                            estimate_bits(store.observe(*link, raw)),
                            estimate_bits(warm(filter.as_ref(), released)),
                            "{:?} step {} raw {:e}", config, step, raw
                        );
                        prop_assert_eq!(
                            estimate_bits(store.estimate(*link)),
                            estimate_bits(warm(filter.as_ref(), filter.current_estimate()))
                        );
                        prop_assert_eq!(store.observations_seen(*link), filter.observations_seen());
                        prop_assert_eq!(store.export_state(*link), filter.export_state());
                    }
                }
            }
        }

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

        /// The peer table against the two structures it replaces — a
        /// rotation `Vec` and a hash map of states — plus the list of
        /// entries outside the rotation: after every insert (into the
        /// rotation or outside it), removal (at the head, in the middle, at
        /// the end, or of an absent id) and lookup, across index growth and
        /// page boundaries, every id sits at the position the model gives
        /// it with the state the model holds, both walks match, and the
        /// index is a power of two long and at most seven eighths full.
        #[test]
        fn peer_table_matches_a_rotation_a_tail_and_a_map(
            words in proptest::collection::vec(0u64..u64::MAX, 1..600),
        ) {
            let mut table = PeerTable::new();
            let (mut rotation, mut tail) = (Vec::<u64>::new(), Vec::<u64>::new());
            let mut states: FxHashMap<u64, PeerState> = FxHashMap::default();
            for (step, word) in words.into_iter().enumerate() {
                // A small id space, so inserts hit known ids too, and now
                // and then a wide one.
                let id = if word % 16 == 0 { word >> 4 } else { (word >> 4) % 400 };
                let mark = Some(Handle::new(step));
                let model_position = |rotation: &[u64], tail: &[u64], id: u64| {
                    let in_tail = || tail.iter().position(|&t| t == id).map(|p| rotation.len() + p);
                    rotation.iter().position(|&r| r == id).or_else(in_tail)
                };
                match word % 10 {
                    0..=4 => {
                        let (peer, new) = table.member(&id);
                        prop_assert_eq!(new, !states.contains_key(&id));
                        if new {
                            rotation.push(id);
                        }
                        peer.snapshot = mark;
                        states.entry(id).or_default().snapshot = mark;
                    }
                    5 => {
                        if !states.contains_key(&id) {
                            tail.push(id);
                        }
                        table.outside_rotation(&id).link = mark;
                        states.entry(id).or_default().link = mark;
                    }
                    6 | 7 if !states.is_empty() => {
                        // An id by its place in the table: head, middle or
                        // end alike.
                        let position = (word >> 8) as usize % states.len();
                        let id = if position < rotation.len() {
                            rotation.remove(position)
                        } else {
                            tail.remove(position - rotation.len())
                        };
                        let expected = states.remove(&id).unwrap();
                        let (at, removed) = table.remove(&id).unwrap();
                        prop_assert_eq!(at, position);
                        prop_assert_eq!(
                            (removed.snapshot, removed.link),
                            (expected.snapshot, expected.link)
                        );
                    }
                    8 => {
                        prop_assert_eq!(table.remove(&id).is_some(), states.contains_key(&id));
                        if let Some(position) = model_position(&rotation, &tail, id) {
                            if position < rotation.len() {
                                rotation.remove(position);
                            } else {
                                tail.remove(position - rotation.len());
                            }
                            states.remove(&id);
                        }
                    }
                    _ => {
                        prop_assert_eq!(table.position(&id), model_position(&rotation, &tail, id));
                    }
                }
                prop_assert_eq!(table.len(), states.len());
                prop_assert_eq!(table.rotation_len(), rotation.len());
                let walk: Vec<u64> = table.iter().map(|(&id, _)| id).collect();
                let expected: Vec<u64> = rotation.iter().chain(&tail).copied().collect();
                prop_assert_eq!(&walk, &expected);
                let in_rotation: Vec<u64> = table.rotation().map(|(&id, _)| id).collect();
                prop_assert_eq!(&in_rotation, &rotation);
                for (position, id) in expected.iter().enumerate() {
                    prop_assert_eq!(table.position(id), Some(position));
                    let (peer, model) = (table.get(id).unwrap(), &states[id]);
                    prop_assert_eq!((peer.snapshot, peer.link), (model.snapshot, model.link));
                    prop_assert_eq!(table.at(position).0, id);
                }
                prop_assert_eq!(table.position(&(u64::MAX - step as u64)), None);
                let (slots, used) = table.index_load();
                prop_assert!(slots == 0 || slots.is_power_of_two(), "{} slots", slots);
                prop_assert_eq!(used, table.len());
                prop_assert!(8 * used <= 7 * slots, "{} of {} slots used", used, slots);
            }
        }
    }
}
