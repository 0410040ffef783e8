//! Snapshot-isolated epochs over the dictionary-encoded triple indexes.
//!
//! The write side of the store (the stated and derived [`Graph`]s inside
//! the materializer) stays a plain mutable structure guarded by the owner's
//! lock. What this module adds is a *read side* that never touches that
//! lock: after every mutation batch the writer publishes an immutable
//! [`EpochSnapshot`] into an [`EpochStore`], and readers pin the current
//! epoch with a single `Arc` refcount bump. A pinned epoch never
//! changes, so query execution, paging, and federation fan-out proceed
//! with **no lock held** while ingest keeps publishing new epochs.
//!
//! Epochs are built LSM-style so publishing is cheap:
//!
//! * a [`FrozenIndex`] base — three sorted triple vectors (SPO order
//!   plus the POS/OSP permutations), binary-searched exactly like the
//!   write side's BTree indexes;
//! * a short stack of [`DeltaRun`]s — the net adds/removes of recent
//!   batches, each sorted the same three ways.
//!
//! A scan merges the base range with each run's range and applies
//! newest-run-wins deletion, preserving index sort order (merge joins
//! depend on it). Publishing a batch costs `O(batch log batch)`; runs
//! are size-tier merged as they accumulate, and once the delta stack
//! outgrows a fraction of the base the writer freezes a fresh base by
//! merging its stated and derived graphs (disjoint, each already in SPO
//! order) — so read amplification stays bounded without ever blocking
//! readers.
//!
//! Each epoch also carries the statement-confidence map (shared by
//! `Arc`, cloned only in batches that touch confidences), so weighted
//! conflict resolution reads the same isolated state as everything else.

use crate::dict::{IdTriple, TermDict, TermId};
use crate::graph::{Graph, QueryView, TripleView};
use crate::incremental::IncrementalMaterializer;
use crate::model::{Statement, Term};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

/// How many published epochs the store keeps reachable by number (for
/// pagers that pin an epoch across several requests).
const RETAINED_EPOCHS: usize = 8;

/// Base rebuild threshold: when the run stack holds more events than
/// `max(REBUILD_MIN_EVENTS, base/4)`, the next publish re-freezes the
/// writer's `base ∪ derived` instead of stacking another run.
pub(crate) const REBUILD_MIN_EVENTS: usize = 4096;

fn to_pos((s, p, o): IdTriple) -> IdTriple {
    (p, o, s)
}

fn from_pos((p, o, s): IdTriple) -> IdTriple {
    (s, p, o)
}

fn to_osp((s, p, o): IdTriple) -> IdTriple {
    (o, s, p)
}

fn from_osp((o, s, p): IdTriple) -> IdTriple {
    (s, p, o)
}

/// The sub-slice of a sorted vector falling in `lo..=hi`: one binary
/// search for the start, then a gallop forward for the end. Join probes
/// ask for short ranges, so the gallop touches a few entries near the
/// start instead of searching the whole vector a second time.
fn range_of(sorted: &[IdTriple], lo: IdTriple, hi: IdTriple) -> &[IdTriple] {
    let rest = &sorted[sorted.partition_point(|&t| t < lo)..];
    // Double the probe until it passes `hi`; the end then lies in
    // `bound/2 ..= bound`.
    let mut bound = 1;
    while bound < rest.len() && rest[bound] <= hi {
        bound *= 2;
    }
    let from = bound / 2;
    let to = bound.min(rest.len());
    &rest[..from + rest[from..to].partition_point(|&t| t <= hi)]
}

/// An immutable, fully-sorted freeze of the full view's three indexes. The
/// POS/OSP vectors hold *permuted* tuples (as the write-side BTree
/// indexes do), so every scan is a binary-searched contiguous slice.
#[derive(Debug, Default)]
struct FrozenIndex {
    spo: Vec<IdTriple>,
    /// Permuted `(p, o, s)` tuples, sorted.
    pos: Vec<IdTriple>,
    /// Permuted `(o, s, p)` tuples, sorted.
    osp: Vec<IdTriple>,
}

impl FrozenIndex {
    fn select(&self, index: Index) -> &[IdTriple] {
        match index {
            Index::Spo => &self.spo,
            Index::Pos => &self.pos,
            Index::Osp => &self.osp,
        }
    }

    /// Freezes `base ∪ derived`. The two graphs are disjoint and each
    /// iterates in SPO order, so one linear merge yields the SPO vector.
    fn freeze(source: &IncrementalMaterializer) -> FrozenIndex {
        let mut stated = source.base().iter_ids().peekable();
        let mut derived = source.derived().iter_ids().peekable();
        let mut spo = Vec::with_capacity(source.len());
        spo.extend(std::iter::from_fn(|| {
            match (stated.peek(), derived.peek()) {
                (Some(s), Some(d)) if d < s => derived.next(),
                (Some(_), _) => stated.next(),
                (None, _) => derived.next(),
            }
        }));
        let mut pos: Vec<IdTriple> = spo.iter().map(|&t| to_pos(t)).collect();
        pos.sort_unstable();
        let mut osp: Vec<IdTriple> = spo.iter().map(|&t| to_osp(t)).collect();
        osp.sort_unstable();
        FrozenIndex { spo, pos, osp }
    }
}

/// The net effect of one published batch: triples that became present
/// and triples that became absent, each sorted three ways so scans can
/// merge them with the base in index order.
///
/// Net-ness is an invariant: relative to the epoch state the run was
/// published against, every add was absent and every delete was present.
/// Run merging and membership checks rely on it.
#[derive(Debug, Default)]
struct DeltaRun {
    adds_spo: Vec<IdTriple>,
    /// Adds as permuted `(p, o, s)` tuples, sorted.
    adds_pos: Vec<IdTriple>,
    /// Adds as permuted `(o, s, p)` tuples, sorted.
    adds_osp: Vec<IdTriple>,
    dels_spo: Vec<IdTriple>,
}

impl DeltaRun {
    fn new(mut adds: Vec<IdTriple>, mut dels: Vec<IdTriple>) -> DeltaRun {
        adds.sort_unstable();
        dels.sort_unstable();
        let mut adds_pos: Vec<IdTriple> = adds.iter().map(|&t| to_pos(t)).collect();
        adds_pos.sort_unstable();
        let mut adds_osp: Vec<IdTriple> = adds.iter().map(|&t| to_osp(t)).collect();
        adds_osp.sort_unstable();
        DeltaRun {
            adds_spo: adds,
            adds_pos,
            adds_osp,
            dels_spo: dels,
        }
    }

    fn adds(&self, index: Index) -> &[IdTriple] {
        match index {
            Index::Spo => &self.adds_spo,
            Index::Pos => &self.adds_pos,
            Index::Osp => &self.adds_osp,
        }
    }

    fn events(&self) -> usize {
        self.adds_spo.len() + self.dels_spo.len()
    }

    /// `Some(true)` if the run adds the triple, `Some(false)` if it
    /// deletes it, `None` if it says nothing about it.
    fn mentions(&self, triple: IdTriple) -> Option<bool> {
        if self.adds_spo.binary_search(&triple).is_ok() {
            Some(true)
        } else if self.dels_spo.binary_search(&triple).is_ok() {
            Some(false)
        } else {
            None
        }
    }
}

/// Composes two consecutive net runs (`older` then `newer`) into one
/// net run relative to the state before `older`. Pairs that cancel
/// (add→delete, delete→re-add) drop out entirely.
fn merge_runs(older: &DeltaRun, newer: &DeltaRun) -> DeltaRun {
    let mut events: BTreeMap<IdTriple, bool> = BTreeMap::new();
    for &t in &older.adds_spo {
        events.insert(t, true);
    }
    for &t in &older.dels_spo {
        events.insert(t, false);
    }
    for &t in &newer.adds_spo {
        if events.get(&t) == Some(&false) {
            events.remove(&t); // deleted then re-added: net no-op
        } else {
            events.insert(t, true);
        }
    }
    for &t in &newer.dels_spo {
        if events.get(&t) == Some(&true) {
            events.remove(&t); // added then deleted: net no-op
        } else {
            events.insert(t, false);
        }
    }
    let adds = events
        .iter()
        .filter_map(|(&t, &add)| add.then_some(t))
        .collect();
    let dels = events
        .iter()
        .filter_map(|(&t, &add)| (!add).then_some(t))
        .collect();
    DeltaRun::new(adds, dels)
}

/// Which index serves a pattern shape, plus the permuted scan bounds.
/// Mirrors [`Graph::match_ids`]'s eight arms.
enum Scan {
    /// Fully bound: a membership probe.
    Probe(IdTriple),
    /// A range scan: index selector, permuted `lo..=hi` bounds.
    Range(Index, IdTriple, IdTriple),
}

#[derive(Clone, Copy)]
enum Index {
    Spo,
    Pos,
    Osp,
}

fn classify(subject: Option<TermId>, predicate: Option<TermId>, object: Option<TermId>) -> Scan {
    let min = TermId::MIN;
    let max = TermId::MAX;
    match (subject, predicate, object) {
        (Some(s), Some(p), Some(o)) => Scan::Probe((s, p, o)),
        (Some(s), Some(p), None) => Scan::Range(Index::Spo, (s, p, min), (s, p, max)),
        (Some(s), None, Some(o)) => Scan::Range(Index::Osp, (o, s, min), (o, s, max)),
        (Some(s), None, None) => Scan::Range(Index::Spo, (s, min, min), (s, max, max)),
        (None, Some(p), Some(o)) => Scan::Range(Index::Pos, (p, o, min), (p, o, max)),
        (None, Some(p), None) => Scan::Range(Index::Pos, (p, min, min), (p, max, max)),
        (None, None, Some(o)) => Scan::Range(Index::Osp, (o, min, min), (o, max, max)),
        (None, None, None) => Scan::Range(Index::Spo, (min, min, min), (max, max, max)),
    }
}

/// One immutable published epoch: a frozen base, a short stack of net
/// delta runs, the shared term dictionary, and the confidence map as of
/// publish time. Cloning the `Arc` that wraps it *is* the snapshot
/// operation — O(1), no data copied, nothing locked afterwards.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    dict: TermDict,
    base: Arc<FrozenIndex>,
    /// Oldest first; membership is decided newest-run-first.
    runs: Vec<Arc<DeltaRun>>,
    len: usize,
    confidence: Arc<HashMap<IdTriple, f64>>,
}

impl EpochSnapshot {
    /// The epoch number (monotonically increasing per store).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The dictionary the epoch's ids are relative to. Shared with the
    /// writer, so resolving ids never blocks ingest (the dictionary is
    /// append-only and lock-free on the resolve side).
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Number of triples visible in this epoch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the epoch holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The statement-confidence map as of this epoch (triples absent
    /// from the map have the default confidence 1.0).
    pub fn confidence(&self) -> &Arc<HashMap<IdTriple, f64>> {
        &self.confidence
    }

    /// Confidence of a triple visible in this epoch; `None` if the
    /// triple itself is absent.
    pub fn confidence_of(&self, triple: IdTriple) -> Option<f64> {
        if !self.contains_id(triple) {
            return None;
        }
        Some(self.confidence.get(&triple).copied().unwrap_or(1.0))
    }

    /// Whether the epoch contains the encoded triple.
    pub fn contains_id(&self, triple: IdTriple) -> bool {
        for run in self.runs.iter().rev() {
            if let Some(added) = run.mentions(triple) {
                return added;
            }
        }
        self.base.spo.binary_search(&triple).is_ok()
    }

    /// Whether the epoch contains the statement.
    pub fn contains(&self, st: &Statement) -> bool {
        match self.dict.lookup_statement(st) {
            Some(triple) => self.contains_id(triple),
            None => false,
        }
    }

    /// All triples in SPO order.
    pub fn iter_ids(&self) -> Vec<IdTriple> {
        QueryView::match_ids(self, None, None, None)
    }

    /// Materializes the epoch into a standalone mutable [`Graph`]
    /// sharing the dictionary. O(n) — only for callers that genuinely
    /// need a mutable copy; queries should run against the epoch itself.
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::with_dict(self.dict.clone());
        for triple in self.iter_ids() {
            g.insert_id(triple);
        }
        g
    }

    /// Whether a triple coming out of the merged scan is visible: the
    /// newest run mentioning it wins; silence means it came from the
    /// base (or an add run) and stands.
    fn live(&self, triple: IdTriple) -> bool {
        for run in self.runs.iter().rev() {
            if let Some(added) = run.mentions(triple) {
                return added;
            }
        }
        true
    }

    /// Merges the base slice with each run's add slice in permuted sort
    /// order, deduplicates, drops deleted triples, and maps tuples back
    /// to `(s, p, o)`.
    fn merged_scan(&self, index: Index, lo: IdTriple, hi: IdTriple) -> Vec<IdTriple> {
        let unpermute = |t: IdTriple| match index {
            Index::Spo => t,
            Index::Pos => from_pos(t),
            Index::Osp => from_osp(t),
        };

        let base = range_of(self.base.select(index), lo, hi);
        // Fast path: with no runs there is nothing to merge and nothing
        // deleted, so the base slice is the answer.
        if self.runs.is_empty() {
            return base.iter().map(|&t| unpermute(t)).collect();
        }
        let mut sources: Vec<&[IdTriple]> = Vec::with_capacity(1 + self.runs.len());
        sources.push(base);
        for run in &self.runs {
            sources.push(range_of(run.adds(index), lo, hi));
        }
        sources.retain(|s| !s.is_empty());

        let mut out = Vec::new();

        let mut cursors = vec![0usize; sources.len()];
        loop {
            // Smallest head across sources (permuted order).
            let mut best: Option<IdTriple> = None;
            for (i, src) in sources.iter().enumerate() {
                if let Some(&head) = src.get(cursors[i]) {
                    best = Some(match best {
                        Some(b) if b <= head => b,
                        _ => head,
                    });
                }
            }
            let Some(next) = best else { break };
            // Consume every occurrence (the same triple can sit in the
            // base and in a later re-add run).
            for (i, src) in sources.iter().enumerate() {
                while src.get(cursors[i]) == Some(&next) {
                    cursors[i] += 1;
                }
            }
            let original = unpermute(next);
            if self.live(original) {
                out.push(original);
            }
        }
        out
    }
}

impl TripleView for EpochSnapshot {
    fn find(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> Vec<Statement> {
        let encode = |slot: Option<&Term>| match slot {
            Some(term) => self.dict.lookup(term).map(Some),
            None => Some(None),
        };
        let (Some(s), Some(p), Some(o)) = (encode(subject), encode(predicate), encode(object))
        else {
            // A bound term that was never interned cannot match anything.
            return Vec::new();
        };
        self.dict.resolve_all(&QueryView::match_ids(self, s, p, o))
    }

    fn has(&self, st: &Statement) -> bool {
        self.contains(st)
    }

    fn find_ids(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<IdTriple> {
        QueryView::match_ids(self, subject, predicate, object)
    }

    fn has_id(&self, triple: IdTriple) -> bool {
        self.contains_id(triple)
    }
}

impl QueryView for EpochSnapshot {
    fn dict(&self) -> &TermDict {
        &self.dict
    }

    fn match_ids(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<IdTriple> {
        match classify(subject, predicate, object) {
            Scan::Probe(triple) => {
                if self.contains_id(triple) {
                    vec![triple]
                } else {
                    Vec::new()
                }
            }
            Scan::Range(index, lo, hi) => self.merged_scan(index, lo, hi),
        }
    }

    fn count_ids_capped(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
        cap: usize,
    ) -> usize {
        match classify(subject, predicate, object) {
            Scan::Probe(triple) => usize::from(self.contains_id(triple)),
            Scan::Range(index, lo, hi) => {
                // Upper bound: base range plus every run's add range,
                // ignoring deletions. Never zero when matches exist, and
                // the planner only ranks candidates with it.
                let mut est = range_of(self.base.select(index), lo, hi).len();
                for run in &self.runs {
                    if est >= cap {
                        break;
                    }
                    est += range_of(run.adds(index), lo, hi).len();
                }
                est.min(cap)
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The net mutation record one publish consumes: the latest surviving
/// event per triple (`true` = present, `false` = absent) since the last
/// publish, plus a flag forcing a full base rebuild (set when the write
/// side was wholesale replaced, e.g. by `reset` or recovery).
#[derive(Debug, Clone, Default)]
pub struct EpochDelta {
    pub(crate) changes: HashMap<IdTriple, bool>,
    pub(crate) rebuilt: bool,
}

impl EpochDelta {
    /// A delta demanding a full base rebuild (wholesale replacement of
    /// the write side — `reset`, recovery).
    pub(crate) fn rebuild() -> EpochDelta {
        EpochDelta {
            changes: HashMap::new(),
            rebuilt: true,
        }
    }

    /// Records that `triple` ended up present (`added = true`) or absent.
    /// Later records for the same triple overwrite earlier ones, so the
    /// map always holds the *final* state change.
    pub(crate) fn record(&mut self, triple: IdTriple, added: bool) {
        self.changes.insert(triple, added);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.changes.is_empty() && !self.rebuilt
    }
}

/// The published-epoch registry: the atomically swapped current epoch
/// plus a short ring of recent epochs reachable by number.
///
/// `pin()` holds the lock only long enough to clone one `Arc`; all
/// subsequent reads on the snapshot are lock-free. Writers publish
/// through [`publish`](EpochStore::publish), which swaps the current
/// `Arc` — readers already holding an older epoch are unaffected.
#[derive(Debug)]
pub struct EpochStore {
    current: RwLock<Arc<EpochSnapshot>>,
    retained: Mutex<VecDeque<Arc<EpochSnapshot>>>,
}

impl EpochStore {
    /// Creates a store whose epoch 0 freezes the full view of `source`.
    pub(crate) fn new(
        source: &IncrementalMaterializer,
        confidence: Arc<HashMap<IdTriple, f64>>,
    ) -> EpochStore {
        let snapshot = Arc::new(EpochSnapshot {
            epoch: 0,
            dict: source.base().dict().clone(),
            base: Arc::new(FrozenIndex::freeze(source)),
            runs: Vec::new(),
            len: source.len(),
            confidence,
        });
        EpochStore {
            current: RwLock::new(snapshot.clone()),
            retained: Mutex::new(VecDeque::from([snapshot])),
        }
    }

    /// Pins the current epoch: one `Arc` clone under a momentary read
    /// lock. O(1) regardless of graph size.
    pub fn pin(&self) -> Arc<EpochSnapshot> {
        self.current.read().expect("epoch lock").clone()
    }

    /// Pins a specific retained epoch, if it is still in the ring.
    pub fn at(&self, epoch: u64) -> Option<Arc<EpochSnapshot>> {
        self.retained
            .lock()
            .expect("epoch ring lock")
            .iter()
            .find(|snap| snap.epoch == epoch)
            .cloned()
    }

    /// Publishes the write side's net delta as the next epoch. `source`
    /// is the writer's materializer, whose full view is frozen on base
    /// rebuilds. No-op deltas (empty and no confidence change) publish
    /// nothing, so idle readers keep hitting the same epoch.
    pub(crate) fn publish(
        &self,
        source: &IncrementalMaterializer,
        delta: EpochDelta,
        confidence: Arc<HashMap<IdTriple, f64>>,
    ) {
        let prev = self.pin();
        if delta.is_empty() && Arc::ptr_eq(&prev.confidence, &confidence) {
            return;
        }

        let pending: usize =
            prev.runs.iter().map(|r| r.events()).sum::<usize>() + delta.changes.len();
        let rebuild = delta.rebuilt || pending > REBUILD_MIN_EVENTS.max(prev.base.spo.len() / 4);

        let (base, runs, len) = if rebuild {
            let base = FrozenIndex::freeze(source);
            let len = base.spo.len();
            (Arc::new(base), Vec::new(), len)
        } else {
            // Net the delta against the previous epoch so the run
            // invariant holds (adds were absent, deletes were present)
            // even if the write side flapped a triple mid-batch.
            let mut adds = Vec::new();
            let mut dels = Vec::new();
            for (&triple, &added) in &delta.changes {
                if added != prev.contains_id(triple) {
                    if added {
                        adds.push(triple);
                    } else {
                        dels.push(triple);
                    }
                }
            }
            let new_len = prev.len + adds.len() - dels.len();
            let mut runs = prev.runs.clone();
            if !(adds.is_empty() && dels.is_empty()) {
                runs.push(Arc::new(DeltaRun::new(adds, dels)));
                // Size-tiered merging: fold the newest run into its
                // neighbor while the neighbor is not decisively bigger,
                // keeping the stack logarithmic in total events.
                while runs.len() >= 2 {
                    let n = runs.len();
                    if runs[n - 2].events() > 2 * runs[n - 1].events() {
                        break;
                    }
                    let newer = runs.pop().expect("run");
                    let older = runs.pop().expect("run");
                    runs.push(Arc::new(merge_runs(&older, &newer)));
                }
            }
            (prev.base.clone(), runs, new_len)
        };

        let next = Arc::new(EpochSnapshot {
            epoch: prev.epoch + 1,
            dict: source.base().dict().clone(),
            base,
            runs,
            len,
            confidence,
        });

        let mut ring = self.retained.lock().expect("epoch ring lock");
        *self.current.write().expect("epoch lock") = next.clone();
        ring.push_back(next);
        while ring.len() > RETAINED_EPOCHS {
            ring.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triple(graph: &mut Graph, s: &str, p: &str, o: &str) -> IdTriple {
        graph
            .dict()
            .intern_statement(&Statement::new(Term::iri(s), Term::iri(p), Term::iri(o)))
    }

    fn source(graph: &Graph) -> IncrementalMaterializer {
        IncrementalMaterializer::from_graph(graph.clone())
    }

    fn store_over(graph: &Graph) -> EpochStore {
        EpochStore::new(&source(graph), Arc::new(HashMap::new()))
    }

    fn publish_changes(store: &EpochStore, graph: &Graph, changes: &[(IdTriple, bool)]) {
        let mut delta = EpochDelta::default();
        for &(t, added) in changes {
            delta.record(t, added);
        }
        store.publish(&source(graph), delta, store.pin().confidence.clone());
    }

    #[test]
    fn galloping_range_matches_two_binary_searches() {
        use cogsdk_sim::rng::Rng;
        let mut rng = Rng::new(0x6A11);
        let id = |n: u64| TermId::from_raw(1 + n as u32);
        for len in [0usize, 1, 2, 3, 7, 8, 9, 64, 200] {
            let mut sorted: Vec<IdTriple> = (0..len)
                .map(|_| (id(rng.below(6)), id(rng.below(4)), id(rng.below(4))))
                .collect();
            sorted.sort_unstable();
            for _ in 0..50 {
                let (a, b) = (id(rng.below(7)), id(rng.below(5)));
                let (lo, hi) = ((a, b, TermId::MIN), (a, b, TermId::MAX));
                let start = sorted.partition_point(|&t| t < lo);
                let end = sorted.partition_point(|&t| t <= hi);
                assert_eq!(range_of(&sorted, lo, hi), &sorted[start..end]);
                let (lo, hi) = ((a, TermId::MIN, TermId::MIN), (a, TermId::MAX, TermId::MAX));
                let start = sorted.partition_point(|&t| t < lo);
                let end = sorted.partition_point(|&t| t <= hi);
                assert_eq!(range_of(&sorted, lo, hi), &sorted[start..end]);
            }
        }
    }

    #[test]
    fn pinned_epoch_is_isolated_from_later_publishes() {
        let mut g = Graph::new();
        let t1 = triple(&mut g, "ex:a", "ex:p", "ex:x");
        g.insert_id(t1);
        let store = store_over(&g);
        let pinned = store.pin();
        assert_eq!(pinned.epoch(), 0);
        assert!(pinned.contains_id(t1));

        let t2 = triple(&mut g, "ex:b", "ex:p", "ex:y");
        g.insert_id(t2);
        publish_changes(&store, &g, &[(t2, true)]);

        // The old pin still sees exactly its epoch.
        assert!(!pinned.contains_id(t2));
        assert_eq!(pinned.len(), 1);
        let fresh = store.pin();
        assert_eq!(fresh.epoch(), 1);
        assert!(fresh.contains_id(t1) && fresh.contains_id(t2));
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn deletions_in_newer_runs_mask_base_triples() {
        let mut g = Graph::new();
        let t1 = triple(&mut g, "ex:a", "ex:p", "ex:x");
        let t2 = triple(&mut g, "ex:a", "ex:p", "ex:y");
        g.insert_id(t1);
        g.insert_id(t2);
        let store = store_over(&g);

        g.remove_id(t1);
        publish_changes(&store, &g, &[(t1, false)]);

        let snap = store.pin();
        assert!(!snap.contains_id(t1));
        assert!(snap.contains_id(t2));
        assert_eq!(snap.len(), 1);
        let scan = QueryView::match_ids(&*snap, Some(t1.0), Some(t1.1), None);
        assert_eq!(scan, vec![t2]);
    }

    #[test]
    fn re_add_after_delete_is_visible_again() {
        let mut g = Graph::new();
        let t = triple(&mut g, "ex:a", "ex:p", "ex:x");
        g.insert_id(t);
        let store = store_over(&g);

        g.remove_id(t);
        publish_changes(&store, &g, &[(t, false)]);
        assert!(!store.pin().contains_id(t));

        g.insert_id(t);
        publish_changes(&store, &g, &[(t, true)]);
        let snap = store.pin();
        assert!(snap.contains_id(t));
        assert_eq!(snap.len(), 1);
        assert_eq!(QueryView::match_ids(&*snap, None, None, None), vec![t]);
    }

    #[test]
    fn scans_agree_with_a_graph_across_many_random_publishes() {
        use cogsdk_sim::rng::Rng;
        let mut rng = Rng::new(0xE90C);
        let mut g = Graph::new();
        let store = store_over(&g);
        // Random insert/remove batches, each published; after every
        // publish the pinned epoch must agree with the live graph on
        // every pattern shape.
        for round in 0..30 {
            let mut delta = EpochDelta::default();
            for _ in 0..(1 + rng.below(40)) {
                let t = triple(
                    &mut g,
                    &format!("ex:s{}", rng.below(12)),
                    &format!("ex:p{}", rng.below(4)),
                    &format!("ex:o{}", rng.below(8)),
                );
                if rng.chance(0.7) {
                    if g.insert_id(t) {
                        delta.record(t, true);
                    }
                } else if g.remove_id(t) {
                    delta.record(t, false);
                }
            }
            store.publish(&source(&g), delta, store.pin().confidence.clone());
            let snap = store.pin();
            assert_eq!(snap.len(), g.len(), "round {round}: len");

            let s = g.dict().lookup(&Term::iri("ex:s3"));
            let p = g.dict().lookup(&Term::iri("ex:p1"));
            let o = g.dict().lookup(&Term::iri("ex:o2"));
            for pattern in [
                (None, None, None),
                (s, None, None),
                (None, p, None),
                (None, None, o),
                (s, p, None),
                (s, None, o),
                (None, p, o),
                (s, p, o),
            ] {
                let got = QueryView::match_ids(&*snap, pattern.0, pattern.1, pattern.2);
                let want = g.match_ids(pattern.0, pattern.1, pattern.2);
                assert_eq!(got, want, "round {round}: pattern {pattern:?}");
                let est =
                    QueryView::count_ids_capped(&*snap, pattern.0, pattern.1, pattern.2, 4096);
                assert!(est >= want.len().min(4096), "estimate must upper-bound");
            }
        }
    }

    #[test]
    fn rebuild_flag_refreezes_the_base() {
        let mut g = Graph::new();
        let t1 = triple(&mut g, "ex:a", "ex:p", "ex:x");
        g.insert_id(t1);
        let store = store_over(&g);
        let delta = EpochDelta::rebuild();
        let mut replacement = Graph::with_dict(g.dict().clone());
        let t2 = triple(&mut replacement, "ex:b", "ex:p", "ex:y");
        replacement.insert_id(t2);
        store.publish(&source(&replacement), delta, Arc::new(HashMap::new()));
        let snap = store.pin();
        assert!(snap.runs.is_empty(), "rebuild clears the run stack");
        assert!(snap.contains_id(t2));
        assert!(!snap.contains_id(t1));
    }

    #[test]
    fn retained_ring_serves_recent_epochs_only() {
        let mut g = Graph::new();
        let store = store_over(&g);
        for i in 0..(RETAINED_EPOCHS + 3) {
            let t = triple(&mut g, &format!("ex:s{i}"), "ex:p", "ex:o");
            g.insert_id(t);
            publish_changes(&store, &g, &[(t, true)]);
        }
        let newest = store.pin().epoch();
        assert_eq!(newest, (RETAINED_EPOCHS + 3) as u64);
        assert!(store.at(newest).is_some());
        assert!(store.at(newest - (RETAINED_EPOCHS as u64 - 1)).is_some());
        assert!(store.at(0).is_none(), "old epochs age out of the ring");
        // Epoch numbers line up with their snapshots.
        assert_eq!(store.at(newest).unwrap().epoch(), newest);
    }

    #[test]
    fn noop_publish_keeps_the_epoch() {
        let mut g = Graph::new();
        let t = triple(&mut g, "ex:a", "ex:p", "ex:x");
        g.insert_id(t);
        let store = store_over(&g);
        let conf = store.pin().confidence.clone();
        store.publish(&source(&g), EpochDelta::default(), conf);
        assert_eq!(store.pin().epoch(), 0, "no-op publishes nothing");
    }

    #[test]
    fn confidence_travels_with_the_epoch() {
        let mut g = Graph::new();
        let t = triple(&mut g, "ex:a", "ex:p", "ex:x");
        g.insert_id(t);
        let store = store_over(&g);
        let pinned_before = store.pin();

        let mut conf = HashMap::new();
        conf.insert(t, 0.4);
        let mut delta = EpochDelta::default();
        delta.record(t, true); // no-op membership-wise, but confidence changed
        store.publish(&source(&g), delta, Arc::new(conf));

        assert_eq!(store.pin().confidence_of(t), Some(0.4));
        assert_eq!(
            pinned_before.confidence_of(t),
            Some(1.0),
            "old pin unaffected"
        );
        let absent = triple(&mut g, "ex:ghost", "ex:p", "ex:x");
        assert_eq!(store.pin().confidence_of(absent), None);
    }
}
