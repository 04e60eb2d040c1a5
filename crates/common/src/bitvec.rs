//! Query bit-vectors.
//!
//! CJOIN tags every in-flight fact tuple with a bit-vector `bτ` of length
//! `maxId(Q)` (bounded by the system-wide `maxConc` parameter) and every stored
//! dimension tuple with a bit-vector `bδ`. Bit `i` answers "is this tuple still
//! relevant to query `Qi`?". Filtering a fact tuple against *all* concurrent
//! queries is then a single hash probe followed by a word-wise `AND` of the two
//! vectors (paper §3.2.2).
//!
//! Two variants are provided:
//!
//! * [`QuerySet`] — a plain, owned bit-vector used for fact tuples flowing through
//!   the pipeline (each tuple is owned by exactly one thread at a time).
//! * [`AtomicQuerySet`] — an atomically updatable bit-vector used for the entries of
//!   the shared dimension hash tables, which the Pipeline Manager mutates (query
//!   admission / finalization, Algorithms 1 and 2) concurrently with Filter probes.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

#[inline]
fn word_count(capacity: usize) -> usize {
    capacity.div_ceil(WORD_BITS)
}

#[inline]
fn word_and_mask(bit: usize) -> (usize, u64) {
    (bit / WORD_BITS, 1u64 << (bit % WORD_BITS))
}

/// A fixed-capacity bit-vector indexed by query id.
///
/// The capacity corresponds to the paper's `maxConc` bound on the number of
/// concurrently registered queries; bit `i` corresponds to query id `i`.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuerySet {
    words: Vec<u64>,
    capacity: usize,
}

impl QuerySet {
    /// Creates an empty (all-zero) bit-vector able to hold `capacity` query ids.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; word_count(capacity)],
            capacity,
        }
    }

    /// Creates a bit-vector with every bit in `[0, capacity)` set.
    pub fn all_set(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.clear_tail();
        s
    }

    /// Creates a bit-vector from an iterator of set bit positions.
    ///
    /// # Panics
    /// Panics if any position is `>= capacity`.
    pub fn from_bits<I: IntoIterator<Item = usize>>(capacity: usize, bits: I) -> Self {
        let mut s = Self::new(capacity);
        for b in bits {
            s.set(b);
        }
        s
    }

    /// The maximum number of distinct query ids this vector can represent.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "query id {i} out of capacity {}",
            self.capacity
        );
        let (w, m) = word_and_mask(i);
        self.words[w] |= m;
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "query id {i} out of capacity {}",
            self.capacity
        );
        let (w, m) = word_and_mask(i);
        self.words[w] &= !m;
    }

    /// Returns whether bit `i` is set. Out-of-range bits read as `false`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, m) = word_and_mask(i);
        self.words[w] & m != 0
    }

    /// Returns `true` if no bit is set.
    ///
    /// This is the pipeline's "drop the tuple" test: a fact tuple whose bit-vector
    /// becomes zero is irrelevant to every registered query.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place bitwise AND with `other` (the Filter's combining step).
    ///
    /// # Panics
    /// Panics if capacities differ.
    #[inline]
    pub fn and_assign(&mut self, other: &QuerySet) {
        assert_eq!(self.capacity, other.capacity, "QuerySet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place bitwise OR with `other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    #[inline]
    pub fn or_assign(&mut self, other: &QuerySet) {
        assert_eq!(self.capacity, other.capacity, "QuerySet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place `self &= !other` (bit-clear).
    ///
    /// # Panics
    /// Panics if capacities differ.
    #[inline]
    pub fn and_not_assign(&mut self, other: &QuerySet) {
        assert_eq!(self.capacity, other.capacity, "QuerySet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Returns `true` iff `self AND !other` has no set bit, i.e. every bit set in
    /// `self` is also set in `other`.
    ///
    /// This implements the Filter early-skip optimisation of §3.2.2: if
    /// `bτ AND ¬bDj == 0` the probe of `HDj` can be skipped entirely because every
    /// query the tuple is still relevant to does not reference dimension `Dj`.
    #[inline]
    pub fn is_subset_of(&self, other: &QuerySet) -> bool {
        assert_eq!(self.capacity, other.capacity, "QuerySet capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if `self` and `other` share at least one set bit.
    #[inline]
    pub fn intersects(&self, other: &QuerySet) -> bool {
        assert_eq!(self.capacity, other.capacity, "QuerySet capacity mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Clears all bits.
    #[inline]
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Copies the contents of `other` into `self` without reallocating.
    ///
    /// # Panics
    /// Panics if capacities differ.
    #[inline]
    pub fn copy_from(&mut self, other: &QuerySet) {
        assert_eq!(self.capacity, other.capacity, "QuerySet capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * WORD_BITS + tz)
                }
            })
        })
    }

    /// Returns the underlying words (least-significant word first).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The underlying words, for kernels that combine bit-vectors held in flat
    /// word storage ([`AtomicQuerySet::and_words`]). Callers may only *clear*
    /// bits through this view: bits at positions `>= capacity` must stay zero.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Overwrites the contents from `words`, the [`QuerySet::words`] of a
    /// vector of the same capacity.
    ///
    /// # Panics
    /// Panics if `words` is not exactly this vector's word count.
    #[inline]
    pub fn copy_from_words(&mut self, words: &[u64]) {
        self.words.copy_from_slice(words);
        self.clear_tail();
    }

    /// Zeroes any bits at positions `>= capacity` (needed after whole-word fills).
    fn clear_tail(&mut self) {
        let rem = self.capacity % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for QuerySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QuerySet{{cap={}, bits=[", self.capacity)?;
        let mut first = true;
        for b in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{b}")?;
            first = false;
        }
        write!(f, "]}}")
    }
}

/// An atomically updatable query bit-vector.
///
/// Dimension hash-table entries are shared between the Pipeline Manager thread
/// (which flips bits during query admission/finalization) and the Filter worker
/// threads (which read whole vectors during probes). The paper argues (§3.3.1) that
/// these concurrent updates are safe because fact tuples only carry a set bit for a
/// query after the query has been installed in the Preprocessor; the relaxed
/// orderings used here mirror that argument.
#[derive(Debug)]
pub struct AtomicQuerySet {
    words: Vec<AtomicU64>,
    capacity: usize,
}

impl AtomicQuerySet {
    /// Creates an empty atomic bit-vector with the given query-id capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: (0..word_count(capacity))
                .map(|_| AtomicU64::new(0))
                .collect(),
            capacity,
        }
    }

    /// Creates an atomic bit-vector initialised from a plain [`QuerySet`].
    pub fn from_query_set(qs: &QuerySet) -> Self {
        Self {
            words: qs.words().iter().map(|&w| AtomicU64::new(w)).collect(),
            capacity: qs.capacity(),
        }
    }

    /// The maximum number of distinct query ids this vector can represent.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Atomically sets bit `i`.
    #[inline]
    pub fn set(&self, i: usize) {
        assert!(
            i < self.capacity,
            "query id {i} out of capacity {}",
            self.capacity
        );
        let (w, m) = word_and_mask(i);
        self.words[w].fetch_or(m, Ordering::Release);
    }

    /// Atomically clears bit `i`.
    #[inline]
    pub fn unset(&self, i: usize) {
        assert!(
            i < self.capacity,
            "query id {i} out of capacity {}",
            self.capacity
        );
        let (w, m) = word_and_mask(i);
        self.words[w].fetch_and(!m, Ordering::Release);
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, m) = word_and_mask(i);
        self.words[w].load(Ordering::Acquire) & m != 0
    }

    /// Returns `true` if no bit is set (a dimension entry selected by no live query,
    /// eligible for garbage collection per Algorithm 2).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.load(Ordering::Acquire) == 0)
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// Takes a point-in-time snapshot as a plain [`QuerySet`].
    pub fn snapshot(&self) -> QuerySet {
        let mut qs = QuerySet::new(self.capacity);
        for (dst, src) in qs.words.iter_mut().zip(&self.words) {
            *dst = src.load(Ordering::Acquire);
        }
        qs
    }

    /// ANDs this vector into `target` (`target &= self`) without materialising a
    /// snapshot; used on the Filter probe hot path.
    #[inline]
    pub fn and_into(&self, target: &mut QuerySet) {
        assert_eq!(self.capacity, target.capacity, "QuerySet capacity mismatch");
        for (t, s) in target.words.iter_mut().zip(&self.words) {
            *t &= s.load(Ordering::Acquire);
        }
    }

    /// ANDs this vector into `target` and reports whether `target` became (or
    /// already was) empty, in a single pass over the words. This fuses the Filter's
    /// combining step with its "drop the tuple" test so the batched hot path loads
    /// each atomic word exactly once per tuple.
    #[inline]
    pub fn and_into_with_zero_check(&self, target: &mut QuerySet) -> bool {
        assert_eq!(self.capacity, target.capacity, "QuerySet capacity mismatch");
        self.and_words(&mut target.words)
    }

    /// [`AtomicQuerySet::and_into_with_zero_check`] over a bit-vector held as
    /// bare words (one row of a flat `words-per-vector`-strided scratch).
    ///
    /// # Panics
    /// Panics if `target` is not exactly this vector's word count.
    #[inline]
    pub fn and_words(&self, target: &mut [u64]) -> bool {
        assert_eq!(self.words.len(), target.len(), "QuerySet width mismatch");
        let mut any = 0u64;
        for (t, s) in target.iter_mut().zip(&self.words) {
            *t &= s.load(Ordering::Acquire);
            any |= *t;
        }
        any == 0
    }

    /// ANDs the union of this vector and `other` into `target` (`target &= self |
    /// other`) without materialising the union. A dimension entry stores only the
    /// queries that select it; the Filter's hit arm ORs in the complement `bDj`
    /// here, one extra load per word.
    #[inline]
    pub fn and_or_into(&self, other: &AtomicQuerySet, target: &mut QuerySet) {
        assert_eq!(self.capacity, target.capacity, "QuerySet capacity mismatch");
        self.and_or_words(other, &mut target.words);
    }

    /// [`AtomicQuerySet::and_or_into`] over a bit-vector held as bare words,
    /// reporting in the same pass whether `target` became (or already was) empty.
    ///
    /// # Panics
    /// Panics if `other` or `target` is not exactly this vector's word count.
    #[inline]
    pub fn and_or_words(&self, other: &AtomicQuerySet, target: &mut [u64]) -> bool {
        assert_eq!(self.words.len(), target.len(), "QuerySet width mismatch");
        assert_eq!(
            self.words.len(),
            other.words.len(),
            "QuerySet width mismatch"
        );
        let mut any = 0u64;
        for ((t, s), o) in target.iter_mut().zip(&self.words).zip(&other.words) {
            *t &= s.load(Ordering::Acquire) | o.load(Ordering::Acquire);
            any |= *t;
        }
        any == 0
    }

    /// Copies the atomic contents into `target`, overwriting it.
    #[inline]
    pub fn load_into(&self, target: &mut QuerySet) {
        assert_eq!(self.capacity, target.capacity, "QuerySet capacity mismatch");
        for (t, s) in target.words.iter_mut().zip(&self.words) {
            *t = s.load(Ordering::Acquire);
        }
    }

    /// Returns `true` iff every bit set in `other` is also set in this vector, i.e.
    /// `other AND NOT self == 0`, without materialising a snapshot.
    ///
    /// This is the Filter early-skip test of §3.2.2 (`bτ AND ¬bDj == 0`) on the hot
    /// path, where allocating a snapshot per fact tuple would dominate the saving.
    #[inline]
    pub fn contains_all(&self, other: &QuerySet) -> bool {
        assert_eq!(
            self.capacity,
            other.capacity(),
            "QuerySet capacity mismatch"
        );
        self.contains_all_words(other.words())
    }

    /// [`AtomicQuerySet::contains_all`] over a bit-vector held as bare words.
    ///
    /// # Panics
    /// Panics if `other` is not exactly this vector's word count.
    #[inline]
    pub fn contains_all_words(&self, other: &[u64]) -> bool {
        assert_eq!(self.words.len(), other.len(), "QuerySet width mismatch");
        self.words
            .iter()
            .zip(other)
            .all(|(s, o)| o & !s.load(Ordering::Acquire) == 0)
    }

    /// Overwrites the atomic contents from a plain [`QuerySet`].
    pub fn store_from(&self, source: &QuerySet) {
        assert_eq!(self.capacity, source.capacity, "QuerySet capacity mismatch");
        for (dst, src) in self.words.iter().zip(source.words()) {
            dst.store(*src, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let qs = QuerySet::new(100);
        assert!(qs.is_empty());
        assert_eq!(qs.count(), 0);
        assert_eq!(qs.capacity(), 100);
        for i in 0..100 {
            assert!(!qs.get(i));
        }
    }

    #[test]
    fn set_get_unset_roundtrip() {
        let mut qs = QuerySet::new(130);
        qs.set(0);
        qs.set(63);
        qs.set(64);
        qs.set(129);
        assert!(qs.get(0) && qs.get(63) && qs.get(64) && qs.get(129));
        assert!(!qs.get(1) && !qs.get(65) && !qs.get(128));
        assert_eq!(qs.count(), 4);
        qs.unset(63);
        assert!(!qs.get(63));
        assert_eq!(qs.count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn set_out_of_range_panics() {
        let mut qs = QuerySet::new(10);
        qs.set(10);
    }

    #[test]
    fn get_out_of_range_is_false() {
        let qs = QuerySet::all_set(10);
        assert!(!qs.get(10));
        assert!(!qs.get(1000));
    }

    #[test]
    fn all_set_respects_capacity() {
        let qs = QuerySet::all_set(70);
        assert_eq!(qs.count(), 70);
        assert!(qs.get(69));
        assert!(!qs.get(70));
        // Tail bits beyond capacity must be zero so count() stays exact.
        assert_eq!(qs.words()[1].count_ones(), 6);
    }

    #[test]
    fn and_assign_intersects() {
        let mut a = QuerySet::from_bits(128, [1, 5, 64, 100]);
        let b = QuerySet::from_bits(128, [5, 64, 101]);
        a.and_assign(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![5, 64]);
    }

    #[test]
    fn or_assign_unions() {
        let mut a = QuerySet::from_bits(128, [1, 100]);
        let b = QuerySet::from_bits(128, [2, 100, 127]);
        a.or_assign(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 100, 127]);
    }

    #[test]
    fn and_not_assign_clears() {
        let mut a = QuerySet::from_bits(64, [1, 2, 3]);
        let b = QuerySet::from_bits(64, [2]);
        a.and_not_assign(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn subset_and_intersects() {
        let a = QuerySet::from_bits(128, [3, 70]);
        let b = QuerySet::from_bits(128, [3, 70, 90]);
        let c = QuerySet::from_bits(128, [4]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // Empty set is a subset of everything and intersects nothing.
        let empty = QuerySet::new(128);
        assert!(empty.is_subset_of(&a));
        assert!(!empty.intersects(&a));
    }

    #[test]
    fn iter_yields_sorted_positions() {
        let qs = QuerySet::from_bits(256, [200, 0, 63, 64, 128]);
        assert_eq!(qs.iter().collect::<Vec<_>>(), vec![0, 63, 64, 128, 200]);
    }

    #[test]
    fn copy_from_and_clear() {
        let a = QuerySet::from_bits(64, [7, 8]);
        let mut b = QuerySet::new(64);
        b.copy_from(&a);
        assert_eq!(a, b);
        b.clear();
        assert!(b.is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn atomic_and_into_with_zero_check_matches_two_pass_result() {
        let a = AtomicQuerySet::new(128);
        a.set(3);
        a.set(64);
        let mut target = QuerySet::from_bits(128, [3, 5, 64, 127]);
        assert!(!a.and_into_with_zero_check(&mut target));
        assert_eq!(target.iter().collect::<Vec<_>>(), vec![3, 64]);
        let mut disjoint = QuerySet::from_bits(128, [5, 127]);
        assert!(a.and_into_with_zero_check(&mut disjoint));
        assert!(disjoint.is_empty());
    }

    #[test]
    fn flat_word_rows_round_trip_through_a_query_set() {
        // Two 70-bit vectors in one flat scratch, stride = words of the capacity.
        let a = QuerySet::from_bits(70, [0, 69]);
        let b = QuerySet::from_bits(70, [5, 64]);
        let stride = a.words().len();
        let mut flat: Vec<u64> = [a.words(), b.words()].concat();
        let filter = AtomicQuerySet::from_query_set(&QuerySet::from_bits(70, [5, 69]));
        assert!(
            filter.contains_all_words(&[0, 0]),
            "the empty vector is a subset"
        );
        assert!(!filter.contains_all_words(&flat[..stride]));
        assert!(!filter.and_words(&mut flat[..stride]));
        assert!(!filter.and_words(&mut flat[stride..]));
        let mut out = QuerySet::new(70);
        out.copy_from_words(&flat[..stride]);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![69]);
        out.copy_from_words(&flat[stride..]);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![5]);
        out.words_mut()[0] = 0;
        assert!(out.is_empty());
    }

    #[test]
    fn atomic_and_or_ands_with_the_union() {
        let selecting = AtomicQuerySet::from_query_set(&QuerySet::from_bits(130, [3, 129]));
        let ignoring = AtomicQuerySet::from_query_set(&QuerySet::from_bits(130, [64]));
        let mut target = QuerySet::from_bits(130, [3, 5, 64, 100, 129]);
        selecting.and_or_into(&ignoring, &mut target);
        assert_eq!(target.iter().collect::<Vec<_>>(), vec![3, 64, 129]);
        let mut disjoint = QuerySet::from_bits(130, [5, 100]);
        assert!(selecting.and_or_words(&ignoring, disjoint.words_mut()));
        assert!(disjoint.is_empty());
        let mut kept = QuerySet::from_bits(130, [64, 100]);
        assert!(!selecting.and_or_words(&ignoring, kept.words_mut()));
        assert_eq!(kept.iter().collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn and_assign_capacity_mismatch_panics() {
        let mut a = QuerySet::new(64);
        let b = QuerySet::new(128);
        a.and_assign(&b);
    }

    #[test]
    fn atomic_set_unset_get() {
        let a = AtomicQuerySet::new(200);
        a.set(0);
        a.set(199);
        assert!(a.get(0) && a.get(199));
        assert!(!a.get(100));
        assert_eq!(a.count(), 2);
        a.unset(0);
        assert!(!a.get(0));
        assert!(!a.is_empty());
        a.unset(199);
        assert!(a.is_empty());
    }

    #[test]
    fn atomic_snapshot_and_and_into() {
        let a = AtomicQuerySet::new(128);
        a.set(3);
        a.set(64);
        let snap = a.snapshot();
        assert_eq!(snap.iter().collect::<Vec<_>>(), vec![3, 64]);

        let mut target = QuerySet::from_bits(128, [3, 5, 64, 127]);
        a.and_into(&mut target);
        assert_eq!(target.iter().collect::<Vec<_>>(), vec![3, 64]);
    }

    #[test]
    fn atomic_contains_all_is_allocation_free_subset_test() {
        let complement = AtomicQuerySet::new(128);
        complement.set(1);
        complement.set(64);
        assert!(complement.contains_all(&QuerySet::from_bits(128, [1])));
        assert!(complement.contains_all(&QuerySet::from_bits(128, [1, 64])));
        assert!(
            complement.contains_all(&QuerySet::new(128)),
            "empty set always contained"
        );
        assert!(!complement.contains_all(&QuerySet::from_bits(128, [2])));
        assert!(!complement.contains_all(&QuerySet::from_bits(128, [1, 2])));
    }

    #[test]
    fn atomic_store_load_roundtrip() {
        let src = QuerySet::from_bits(100, [1, 50, 99]);
        let a = AtomicQuerySet::new(100);
        a.store_from(&src);
        let mut out = QuerySet::new(100);
        a.load_into(&mut out);
        assert_eq!(out, src);
    }

    #[test]
    fn atomic_from_query_set() {
        let src = QuerySet::from_bits(65, [64]);
        let a = AtomicQuerySet::from_query_set(&src);
        assert!(a.get(64));
        assert_eq!(a.capacity(), 65);
    }

    #[test]
    fn atomic_concurrent_set_bits() {
        use std::sync::Arc;
        let a = Arc::new(AtomicQuerySet::new(256));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in (t..256).step_by(8) {
                        a.set(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.count(), 256);
    }

    #[test]
    fn debug_format_lists_bits() {
        let qs = QuerySet::from_bits(8, [1, 3]);
        let s = format!("{qs:?}");
        assert!(s.contains("1,3"), "{s}");
    }
}
