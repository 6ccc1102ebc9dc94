//! The concept repository: stored `(fingerprint, classifier, mu, sigma)`
//! tuples tested for recurrence at every drift.

use ficsum_classifiers::Classifier;
use ficsum_stream::EwStats;

use crate::fingerprint::ConceptFingerprint;
use crate::similarity::CachedFingerprint;

/// Identifier of a stored concept. Ids are never reused, so they double as
/// the "model" identity `M` in the C-F1 evaluation.
pub type ConceptId = usize;

/// A retained fingerprint pair with the similarity recorded between them at
/// storage time — used to re-base old similarity records when the dynamic
/// weighting has since changed (Section IV).
#[derive(Debug, Clone)]
pub struct RetainedPair {
    /// First normalised fingerprint of the pair.
    pub a: Vec<f64>,
    /// Second normalised fingerprint of the pair.
    pub b: Vec<f64>,
    /// Similarity between `a` and `b` under the weights at record time.
    pub sim_then: f64,
}

/// Everything stored about one concept.
///
/// `Clone` deep-copies the classifier (via [`Classifier::clone_box`]); the
/// checkpoint subsystem relies on this to capture repository state without
/// serialising live trait objects.
#[derive(Clone)]
pub struct ConceptEntry {
    /// Stable identifier.
    pub id: ConceptId,
    /// The concept fingerprint `F_c` built from *online* (prequential)
    /// predictions — the representation drift detection compares against.
    pub fingerprint: ConceptFingerprint,
    /// The concept fingerprint built from windows *re-predicted* through
    /// the classifier — the representation model selection compares
    /// against. Algorithm 1 computes `F_AS` by re-predicting the query
    /// window (line 29), so the stored side must be built the same way;
    /// the online fingerprint meanwhile must match the online-labelled
    /// windows the detector sees (line 11). One representation cannot be
    /// consistent with both, hence the pair.
    pub sel_fingerprint: ConceptFingerprint,
    /// The classifier `I_c` trained on this concept.
    pub classifier: Box<dyn Classifier>,
    /// Distribution of `Sim(F_c, F_B)` under recent stationary conditions
    /// (`mu_c`, `sigma_c`), exponentially weighted so classifier-training
    /// transients are forgotten.
    pub sim_stats: EwStats,
    /// `F_SC`: the distribution of this classifier's behaviour on windows
    /// drawn from *other* (currently active) concepts — drives the
    /// intra-classifier weight component.
    pub sc_fingerprint: ConceptFingerprint,
    /// Retained pairs for similarity re-basing.
    pub retained: Vec<RetainedPair>,
    /// Timestamp of last activation (for LRU eviction).
    pub last_active: u64,
    /// Cached scaled/weighted side of `sel_fingerprint`'s mean vector,
    /// reused across model selections while fingerprint and normaliser are
    /// unchanged. Pure cache: carries no semantic state.
    pub sel_cache: CachedFingerprint,
}

impl ConceptEntry {
    /// Fresh entry with an untrained fingerprint and the given classifier.
    pub fn new(id: ConceptId, dims: usize, classifier: Box<dyn Classifier>) -> Self {
        Self {
            id,
            fingerprint: ConceptFingerprint::new(dims),
            sel_fingerprint: ConceptFingerprint::new(dims),
            classifier,
            sim_stats: EwStats::default(),
            sc_fingerprint: ConceptFingerprint::new(dims),
            retained: Vec::new(),
            last_active: 0,
            sel_cache: CachedFingerprint::new(),
        }
    }

    /// Records a fingerprint pair for future similarity re-basing, keeping
    /// at most `cap` recent pairs.
    pub fn retain_pair(&mut self, a: Vec<f64>, b: Vec<f64>, sim_then: f64, cap: usize) {
        self.retained.push(RetainedPair { a, b, sim_then });
        if self.retained.len() > cap {
            self.retained.remove(0);
        }
    }
}

/// The repository `R` of stored concept representations.
#[derive(Default, Clone)]
pub struct Repository {
    entries: Vec<ConceptEntry>,
    next_id: ConceptId,
    /// 0 = unbounded.
    max_entries: usize,
    /// Bumped on every membership change (insert, take, remove); part of
    /// the epoch key gating dynamic-weight recomputation.
    version: u64,
}

impl Repository {
    /// Repository bounded to `max_entries` concepts (0 = unbounded).
    pub fn new(max_entries: usize) -> Self {
        Self { entries: Vec::new(), next_id: 0, max_entries, version: 0 }
    }

    /// Monotone membership-mutation counter.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A single fingerprint of everything the dynamic weighting reads from
    /// the repository: membership plus each entry's fingerprint and
    /// `F_SC` versions, FNV-folded in entry order. Two equal stamps (with
    /// an unchanged active fingerprint and normaliser) guarantee
    /// [`crate::weights::DynamicWeights::compute`] would return identical
    /// values.
    pub fn weights_stamp(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        fold(self.version);
        for e in &self.entries {
            fold(e.id as u64 + 1);
            fold(e.fingerprint.version());
            fold(e.sc_fingerprint.version());
        }
        h
    }

    /// Allocates the next concept id.
    pub fn allocate_id(&mut self) -> ConceptId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Inserts (or replaces) an entry, evicting the least-recently-active
    /// stored concept when the bound is exceeded. Returns the id of the
    /// evicted concept, if any.
    ///
    /// Ids must stay stable across a take/insert round trip (a concept that
    /// leaves the repository while active and returns later keeps its
    /// identity for C-F1), so inserting never renumbers — instead the
    /// allocator is advanced past `entry.id`, ensuring an externally
    /// constructed entry can never collide with a later [`Repository::allocate_id`].
    pub fn insert(&mut self, entry: ConceptEntry) -> Option<ConceptId> {
        self.version += 1;
        self.next_id = self.next_id.max(entry.id + 1);
        if let Some(pos) = self.entries.iter().position(|e| e.id == entry.id) {
            self.entries[pos] = entry;
        } else {
            self.entries.push(entry);
        }
        if self.max_entries > 0 && self.entries.len() > self.max_entries {
            if let Some((pos, _)) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_active)
            {
                return Some(self.entries.remove(pos).id);
            }
        }
        None
    }

    /// Removes and returns the entry with `id`.
    pub fn take(&mut self, id: ConceptId) -> Option<ConceptEntry> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        self.version += 1;
        Some(self.entries.remove(pos))
    }

    /// Removes the entry with `id`, dropping it.
    pub fn remove(&mut self, id: ConceptId) -> bool {
        self.take(id).is_some()
    }

    /// Immutable entry access.
    pub fn get(&self, id: ConceptId) -> Option<&ConceptEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Mutable entry access.
    pub fn get_mut(&mut self, id: ConceptId) -> Option<&mut ConceptEntry> {
        self.entries.iter_mut().find(|e| e.id == id)
    }

    /// Iterates over stored entries.
    pub fn iter(&self) -> impl Iterator<Item = &ConceptEntry> {
        self.entries.iter()
    }

    /// Iterates mutably over stored entries.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut ConceptEntry> {
        self.entries.iter_mut()
    }

    /// Number of stored concepts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_classifiers::MajorityClass;

    fn entry(repo: &mut Repository, last_active: u64) -> ConceptId {
        let id = repo.allocate_id();
        let mut e = ConceptEntry::new(id, 4, Box::new(MajorityClass::new(2, 2)));
        e.last_active = last_active;
        repo.insert(e);
        id
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut r = Repository::new(0);
        let a = entry(&mut r, 0);
        let b = entry(&mut r, 1);
        assert!(b > a);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn insert_replaces_same_id() {
        let mut r = Repository::new(0);
        let id = entry(&mut r, 0);
        let mut e2 = ConceptEntry::new(id, 4, Box::new(MajorityClass::new(2, 2)));
        e2.last_active = 99;
        r.insert(e2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(id).unwrap().last_active, 99);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut r = Repository::new(2);
        let old = entry(&mut r, 1);
        let mid = entry(&mut r, 5);
        let id = r.allocate_id();
        let mut e = ConceptEntry::new(id, 4, Box::new(MajorityClass::new(2, 2)));
        e.last_active = 9;
        let evicted = r.insert(e);
        assert_eq!(r.len(), 2);
        assert_eq!(evicted, Some(old), "insert must report the evicted id");
        assert!(r.get(old).is_none(), "oldest must be evicted");
        assert!(r.get(mid).is_some());
        assert!(r.get(id).is_some());
    }

    #[test]
    fn insert_advances_the_allocator_past_manual_ids() {
        let mut r = Repository::new(0);
        // An entry constructed without going through allocate_id.
        r.insert(ConceptEntry::new(7, 4, Box::new(MajorityClass::new(2, 2))));
        let next = r.allocate_id();
        assert!(next > 7, "allocate_id must never reissue a stored id, got {next}");
    }

    #[test]
    fn id_survives_take_and_reinsert() {
        let mut r = Repository::new(0);
        let id = entry(&mut r, 3);
        let _churn = entry(&mut r, 4);
        let e = r.take(id).expect("present");
        assert_eq!(e.id, id);
        r.insert(e);
        assert_eq!(r.get(id).map(|e| e.id), Some(id));
        assert!(r.allocate_id() > id);
    }

    #[test]
    fn take_removes_entry() {
        let mut r = Repository::new(0);
        let id = entry(&mut r, 0);
        let e = r.take(id).expect("present");
        assert_eq!(e.id, id);
        assert!(r.is_empty());
        assert!(r.take(id).is_none());
    }

    #[test]
    fn retained_pairs_are_capped() {
        let mut e = ConceptEntry::new(0, 2, Box::new(MajorityClass::new(1, 2)));
        for i in 0..10 {
            e.retain_pair(vec![i as f64], vec![i as f64], 1.0, 3);
        }
        assert_eq!(e.retained.len(), 3);
        assert_eq!(e.retained[0].a, vec![7.0]);
    }
}
