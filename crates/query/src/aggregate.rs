//! Aggregate functions and grouped aggregation.
//!
//! The Distributor pipes each surviving fact tuple to the aggregation operators of
//! the queries whose bit is set (§3.2.2); those operators are ordinary hash-based
//! GROUP BY / aggregate evaluators. The same [`GroupedAggregator`] is used by the
//! CJOIN distributor, the query-at-a-time baseline, and the reference oracle, so
//! result comparisons across engines exercise identical aggregation code — and
//! `tests/property_oracle.rs` checks that code against a naive fold that shares
//! none of it.
//!
//! ## State layout
//!
//! When many tuples survive the Filters, the Distributor is the pipeline, and its
//! time is this operator's memory traffic. A [`GroupedAggregator`] therefore keeps
//! no per-group heap objects. A group is a dense id `0..num_groups`, in order of
//! first appearance, and its data sits at that id in three flat arenas:
//!
//! ```text
//! index   [u32; 2^k]              slot -> group id, or EMPTY   (open addressing)
//! hashes  [u64; groups]           the key's hash
//! keys    [Value; groups * G]     G = number of GROUP BY columns
//! states  [AggState; groups * A]  A = number of aggregates
//! ```
//!
//! * **Probe.** A tuple's group-by values are hashed *by reference*, straight out
//!   of the fact row and the attached dimension rows: no key `Vec` is built and no
//!   [`Value`] cloned. The hash's top bits pick a home slot and linear probing
//!   walks from there; a candidate group is accepted when its stored hash matches
//!   and its stored key equals the tuple's values. A hit touches nothing else but
//!   the group's states. Only a miss clones the values (an `Arc` bump per string)
//!   and appends them and fresh states to the arenas. Neither allocates per tuple;
//!   a miss may grow an arena.
//! * **Load factor.** The index doubles when more than half its slots are taken,
//!   so it runs between 1/4 and 1/2 full and an average probe inspects fewer than
//!   two slots. At 4 bytes a slot that is 8–16 bytes per group; growth re-links
//!   groups from their stored hashes and never moves keys or states.
//! * **Arena growth.** The arenas grow by half, not by doubling
//!   (`reserve_by_half`): with several thousand groups per query and many queries
//!   in flight, the slack of doubling was measurable in the process's peak RSS.
//! * **Merge** walks the other side's groups arena to arena, reusing their stored
//!   hashes, and moves keys and states, never cloning them. **Finalize** hands all
//!   rows to [`QueryResult::from_rows`] for one sorted bulk build; dropping an
//!   aggregator frees four `Vec`s.
//!
//! Hashing by reference is sound because hash and equality are defined on values,
//! never on addresses: `Value`'s derived `Hash` covers an integer's bits or a
//! string's bytes, so the values a tuple refers to hash exactly like the clones a
//! group stores, and `same_value` compares contents (`Arc::ptr_eq` is only a
//! shortcut that skips the byte comparison when both sides share an allocation).
//! Two equal strings in different allocations — what re-versioning a dimension
//! row under ingest produces — land in one group. Which slot or group id a key
//! gets depends on arrival order, and that order is not observable:
//! [`QueryResult`] sorts rows by key value, and every aggregate is commutative
//! and associative.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use cjoin_common::FxHasher;
use cjoin_storage::{Row, Value};

use crate::result::QueryResult;
use crate::star::{BoundAggregateSpec, BoundColumnRef, BoundStarQuery};

/// SQL aggregate functions supported by the star-query template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(col)` (NULLs excluded for the column form).
    Count,
    /// `SUM(col)`
    Sum,
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
    /// `AVG(col)`
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        f.write_str(s)
    }
}

/// A finalized aggregate value.
///
/// Sums are carried in 128-bit integers internally (SSB revenue sums overflow `i64`
/// at larger scale factors when many rows share a group), and averages finalize to
/// floating point.
#[derive(Debug, Clone, PartialEq)]
pub enum AggValue {
    /// Integer result (COUNT, SUM, MIN, MAX over integer columns).
    Int(i128),
    /// Floating-point result (AVG).
    Float(f64),
    /// String result (MIN/MAX over string columns).
    Str(String),
    /// No qualifying input rows.
    Null,
}

impl AggValue {
    /// Approximate equality: exact for integers/strings/null, relative tolerance
    /// `1e-9` for floats. Used when comparing results across engines.
    pub fn approx_eq(&self, other: &AggValue) -> bool {
        match (self, other) {
            (AggValue::Int(a), AggValue::Int(b)) => a == b,
            (AggValue::Str(a), AggValue::Str(b)) => a == b,
            (AggValue::Null, AggValue::Null) => true,
            (AggValue::Float(a), AggValue::Float(b)) => {
                let scale = a.abs().max(b.abs()).max(1.0);
                (a - b).abs() <= 1e-9 * scale
            }
            // Int/Float cross comparisons occur when one engine keeps an average of an
            // exact integer; treat them as comparable.
            (AggValue::Int(a), AggValue::Float(b)) | (AggValue::Float(b), AggValue::Int(a)) => {
                let a = *a as f64;
                let scale = a.abs().max(b.abs()).max(1.0);
                (a - b).abs() <= 1e-9 * scale
            }
            _ => false,
        }
    }
}

impl fmt::Display for AggValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggValue::Int(i) => write!(f, "{i}"),
            AggValue::Float(x) => write!(f, "{x}"),
            AggValue::Str(s) => write!(f, "{s}"),
            AggValue::Null => write!(f, "NULL"),
        }
    }
}

/// Running state of a single aggregate.
#[derive(Debug, Clone)]
enum AggState {
    Count(u64),
    Sum { sum: i128, seen: bool },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: i128, count: u64 },
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                sum: 0,
                seen: false,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0, count: 0 },
        }
    }

    fn update(&mut self, value: Option<&Value>) {
        match self {
            AggState::Count(c) => {
                // COUNT(*) passes None; COUNT(col) passes Some and skips NULLs.
                match value {
                    None => *c += 1,
                    Some(v) if !v.is_null() => *c += 1,
                    Some(_) => {}
                }
            }
            AggState::Sum { sum, seen } => {
                if let Some(Value::Int(i)) = value {
                    *sum += i128::from(*i);
                    *seen = true;
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = value {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v < c) {
                        *cur = Some(v.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = value {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v > c) {
                        *cur = Some(v.clone());
                    }
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(Value::Int(i)) = value {
                    *sum += i128::from(*i);
                    *count += 1;
                }
            }
        }
    }

    /// Folds another partial state of the *same* aggregate into this one. Takes the
    /// other state by value so merging moves accumulated `Value`s instead of
    /// cloning them — partial-state merges are on the sharded distributor's
    /// query-end path.
    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum { sum: a, seen: sa }, AggState::Sum { sum: b, seen: sb }) => {
                *a += b;
                *sa |= sb;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().is_none_or(|av| &bv < av) {
                        *a = Some(bv);
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().is_none_or(|av| &bv > av) {
                        *a = Some(bv);
                    }
                }
            }
            (AggState::Avg { sum: a, count: ca }, AggState::Avg { sum: b, count: cb }) => {
                *a += b;
                *ca += cb;
            }
            (a, b) => panic!(
                "cannot merge mismatched aggregate states ({} vs {}); partials of \
                 different queries were combined",
                a.kind(),
                b.kind()
            ),
        }
    }

    /// The state's function name, for merge-mismatch diagnostics.
    fn kind(&self) -> &'static str {
        match self {
            AggState::Count(_) => "COUNT",
            AggState::Sum { .. } => "SUM",
            AggState::Min(_) => "MIN",
            AggState::Max(_) => "MAX",
            AggState::Avg { .. } => "AVG",
        }
    }

    fn finalize(&self) -> AggValue {
        match self {
            AggState::Count(c) => AggValue::Int(i128::from(*c)),
            AggState::Sum { sum, seen } => {
                if *seen {
                    AggValue::Int(*sum)
                } else {
                    AggValue::Null
                }
            }
            AggState::Min(v) | AggState::Max(v) => match v {
                Some(Value::Int(i)) => AggValue::Int(i128::from(*i)),
                Some(Value::Str(s)) => AggValue::Str(s.to_string()),
                Some(Value::Null) | None => AggValue::Null,
            },
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    AggValue::Null
                } else {
                    AggValue::Float(*sum as f64 / *count as f64)
                }
            }
        }
    }
}

/// Marks a free slot of the open-addressing index; also the exclusive upper
/// bound on group ids.
const EMPTY: u32 = u32::MAX;

/// Initial number of index slots (a power of two).
const MIN_SLOTS: usize = 16;

/// Group-key equality on values, with a shared-allocation fast path for strings:
/// the attached dimension rows hand out the same `Arc<str>` over and over, so a
/// hit usually needs no byte comparison. Distinct allocations with equal contents
/// are still equal.
#[inline]
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => Arc::ptr_eq(x, y) || x == y,
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

/// Makes room in an arena for one more group of `stride` elements. A full arena
/// grows by half (from the `MIN_SLOTS / 2` groups the initial index holds):
/// `Vec`'s own doubling leaves up to half of a query's group state as slack, and
/// with many queries in flight that slack showed in peak RSS.
#[inline]
fn reserve_by_half<T>(arena: &mut Vec<T>, stride: usize) {
    if arena.capacity() - arena.len() < stride {
        arena.reserve_exact((arena.len() / 2).max(MIN_SLOTS / 2 * stride));
    }
}

/// Hash-based GROUP BY / aggregate evaluator for one star query.
///
/// The accumulator receives, per qualifying fact tuple, the fact row plus the joining
/// dimension rows (in the order of the query's dimension clauses); group-by columns
/// and aggregate inputs may refer to either side. See the module docs for the state
/// layout.
#[derive(Debug)]
pub struct GroupedAggregator {
    group_by: Vec<BoundColumnRef>,
    aggregates: Vec<BoundAggregateSpec>,
    /// Open-addressing index, a power of two long: slot → group id, or [`EMPTY`].
    index: Vec<u32>,
    /// `64 - log2(index.len())`; see [`home_slot`](Self::home_slot).
    shift: u32,
    /// Per-group key hash (saves rehashing on index growth and on merge).
    hashes: Vec<u64>,
    /// Per-group key values, at stride `group_by.len()`.
    keys: Vec<Value>,
    /// Per-group running states, at stride `aggregates.len()`.
    states: Vec<AggState>,
}

impl GroupedAggregator {
    /// Creates an aggregator for the given bound query.
    pub fn new(query: &BoundStarQuery) -> Self {
        let mut agg = Self {
            group_by: query.group_by.clone(),
            aggregates: query.aggregates.clone(),
            index: vec![EMPTY; MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            hashes: Vec::new(),
            keys: Vec::new(),
            states: Vec::new(),
        };
        if agg.group_by.is_empty() {
            // A query with no GROUP BY outputs a single row (of NULL/0 aggregates)
            // even when no tuple qualifies, like SQL does: its one group, with the
            // empty key, exists from the start.
            let hash = FxHasher::default().finish();
            agg.push_fresh_states();
            agg.link_group(agg.home_slot(hash), hash);
        }
        agg
    }

    /// Number of groups accumulated so far.
    pub fn num_groups(&self) -> usize {
        self.hashes.len()
    }

    /// The slot a probe for `hash` starts at: the hash's top bits (FxHash ends in a
    /// multiply, so those are its best-mixed ones).
    #[inline]
    fn home_slot(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    /// Probes the index for a group with this `hash` whose stored key satisfies
    /// `same_key`: `Ok(group id)` on a hit, `Err(free slot)` where the group would
    /// be linked on a miss.
    #[inline]
    fn find(&self, hash: u64, same_key: impl Fn(&[Value]) -> bool) -> Result<usize, usize> {
        let arity = self.group_by.len();
        let mask = self.index.len() - 1;
        let mut slot = self.home_slot(hash);
        loop {
            let group = self.index[slot];
            if group == EMPTY {
                return Err(slot);
            }
            let group = group as usize;
            if self.hashes[group] == hash && same_key(&self.keys[group * arity..][..arity]) {
                return Ok(group);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Makes room for one more group in every arena.
    fn reserve_group(&mut self) {
        reserve_by_half(&mut self.hashes, 1);
        reserve_by_half(&mut self.keys, self.group_by.len());
        reserve_by_half(&mut self.states, self.aggregates.len());
    }

    /// Appends one group's worth of initial aggregate states to the state arena.
    fn push_fresh_states(&mut self) {
        self.states
            .extend(self.aggregates.iter().map(|a| AggState::new(a.func)));
    }

    /// Links the group whose key and states were just appended to the arenas into
    /// the free `slot` that [`find`](Self::find) reported, doubling the index once
    /// it is more than half full. Returns the new group's id.
    fn link_group(&mut self, slot: usize, hash: u64) -> usize {
        let group = self.hashes.len();
        assert!(group < EMPTY as usize, "more than {EMPTY} groups");
        self.hashes.push(hash);
        debug_assert_eq!(self.keys.len(), self.hashes.len() * self.group_by.len());
        debug_assert_eq!(self.states.len(), self.hashes.len() * self.aggregates.len());
        self.index[slot] = group as u32;
        if self.hashes.len() * 2 > self.index.len() {
            self.grow_index();
        }
        group
    }

    /// Doubles the index and re-links every group from its stored hash; the arenas
    /// do not move.
    fn grow_index(&mut self) {
        let slots = self.index.len() * 2;
        self.shift -= 1;
        self.index.clear();
        self.index.resize(slots, EMPTY);
        let mask = slots - 1;
        for (group, &hash) in self.hashes.iter().enumerate() {
            let mut slot = self.home_slot(hash);
            while self.index[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = group as u32;
        }
    }

    /// Accumulates one qualifying fact tuple.
    ///
    /// `dims[k]` must be the joining row of the query's `k`-th dimension clause;
    /// `None` is only acceptable if no group-by column or aggregate input refers to
    /// that dimension.
    pub fn accumulate(&mut self, fact: &Row, dims: &[Option<&Row>]) {
        let mut hasher = FxHasher::default();
        for col in &self.group_by {
            col.value(fact, dims).hash(&mut hasher);
        }
        let hash = hasher.finish();
        let found = self.find(hash, |key| {
            key.iter()
                .zip(&self.group_by)
                .all(|(have, col)| same_value(have, col.value(fact, dims)))
        });
        let group = match found {
            Ok(group) => group,
            Err(slot) => {
                // First tuple of its group: only now are the key values cloned.
                self.reserve_group();
                self.keys
                    .extend(self.group_by.iter().map(|c| c.value(fact, dims).clone()));
                self.push_fresh_states();
                self.link_group(slot, hash)
            }
        };
        let width = self.aggregates.len();
        let states = &mut self.states[group * width..][..width];
        for (state, spec) in states.iter_mut().zip(&self.aggregates) {
            let input = spec.input.as_ref().map(|c| c.value(fact, dims));
            state.update(input);
        }
    }

    /// Merges another aggregator's partial state into this one. This is how the
    /// sharded distributor combines per-shard partials at query end: hash
    /// aggregation is commutative and associative, so merging the shard partials
    /// in any order yields exactly the single-aggregator result. Groups move
    /// arena to arena: the other side's stored hashes are reused, and its key
    /// values and states are moved, never cloned.
    ///
    /// # Panics
    /// Panics if `other` was built for a different query shape (different group-by
    /// arity, aggregate count, or aggregate functions) — combining partials of
    /// different queries is always a routing bug and must not silently corrupt a
    /// result.
    pub fn merge(&mut self, other: GroupedAggregator) {
        assert_eq!(
            self.group_by.len(),
            other.group_by.len(),
            "cannot merge partials with different group-by arity"
        );
        assert_eq!(
            self.aggregates.len(),
            other.aggregates.len(),
            "cannot merge partials with different aggregate lists"
        );
        let arity = self.group_by.len();
        let width = self.aggregates.len();
        let mut keys = other.keys.into_iter();
        let mut states = other.states.into_iter();
        for hash in other.hashes {
            let key = &keys.as_slice()[..arity];
            let found = self.find(hash, |have| {
                have.iter().zip(key).all(|(a, b)| same_value(a, b))
            });
            match found {
                Ok(group) => {
                    keys.by_ref().take(arity).for_each(drop);
                    let into = &mut self.states[group * width..][..width];
                    for (state, partial) in into.iter_mut().zip(states.by_ref().take(width)) {
                        state.merge(partial);
                    }
                }
                Err(slot) => {
                    self.reserve_group();
                    self.keys.extend(keys.by_ref().take(arity));
                    self.states.extend(states.by_ref().take(width));
                    self.link_group(slot, hash);
                }
            }
        }
    }

    /// Finalizes into a deterministic [`QueryResult`].
    pub fn finalize(&self) -> QueryResult {
        let arity = self.group_by.len();
        let width = self.aggregates.len();
        QueryResult::from_rows(
            self.group_by.iter().map(|c| c.name.clone()).collect(),
            self.aggregates.iter().map(|a| a.label()).collect(),
            (0..self.num_groups()).map(|group| {
                (
                    self.keys[group * arity..][..arity].to_vec(),
                    self.states[group * width..][..width]
                        .iter()
                        .map(AggState::finalize)
                        .collect(),
                )
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::tests_support::simple_bound_query;

    fn fact(a: i64, b: i64) -> Row {
        Row::new(vec![Value::int(a), Value::int(b)])
    }

    #[test]
    fn count_sum_min_max_avg_single_group() {
        // simple_bound_query: group by nothing, aggregates over fact col 1
        let q = simple_bound_query(
            vec![],
            vec![
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ],
        );
        let mut agg = GroupedAggregator::new(&q);
        for v in [10, 20, 30] {
            agg.accumulate(&fact(1, v), &[]);
        }
        let result = agg.finalize();
        let row = result.rows().next().unwrap();
        assert_eq!(row.1[0], AggValue::Int(3));
        assert_eq!(row.1[1], AggValue::Int(60));
        assert_eq!(row.1[2], AggValue::Int(10));
        assert_eq!(row.1[3], AggValue::Int(30));
        assert!(row.1[4].approx_eq(&AggValue::Float(20.0)));
    }

    #[test]
    fn group_by_partitions_rows() {
        // group by fact col 0, SUM(fact col 1)
        let q = simple_bound_query(vec![0], vec![AggFunc::Sum]);
        let mut agg = GroupedAggregator::new(&q);
        agg.accumulate(&fact(1, 10), &[]);
        agg.accumulate(&fact(2, 5), &[]);
        agg.accumulate(&fact(1, 7), &[]);
        let result = agg.finalize();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(
            result.aggregate_for(&[Value::int(1)]).unwrap()[0],
            AggValue::Int(17)
        );
        assert_eq!(
            result.aggregate_for(&[Value::int(2)]).unwrap()[0],
            AggValue::Int(5)
        );
        assert_eq!(agg.num_groups(), 2);
    }

    #[test]
    fn scalar_query_with_no_input_produces_one_row() {
        let q = simple_bound_query(vec![], vec![AggFunc::Count, AggFunc::Sum, AggFunc::Avg]);
        let agg = GroupedAggregator::new(&q);
        let result = agg.finalize();
        assert_eq!(result.num_rows(), 1);
        let row = result.rows().next().unwrap();
        assert_eq!(row.1[0], AggValue::Int(0));
        assert_eq!(row.1[1], AggValue::Null);
        assert_eq!(row.1[2], AggValue::Null);
    }

    #[test]
    fn grouped_query_with_no_input_is_empty() {
        let q = simple_bound_query(vec![0], vec![AggFunc::Count]);
        let agg = GroupedAggregator::new(&q);
        assert_eq!(agg.finalize().num_rows(), 0);
    }

    #[test]
    fn merge_combines_partial_states() {
        let q = simple_bound_query(
            vec![0],
            vec![
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ],
        );
        let mut a = GroupedAggregator::new(&q);
        let mut b = GroupedAggregator::new(&q);
        a.accumulate(&fact(1, 10), &[]);
        a.accumulate(&fact(2, 1), &[]);
        b.accumulate(&fact(1, 30), &[]);
        b.accumulate(&fact(3, 7), &[]);
        a.merge(b);
        let r = a.finalize();
        assert_eq!(r.num_rows(), 3);
        let g1 = r.aggregate_for(&[Value::int(1)]).unwrap();
        assert_eq!(g1[0], AggValue::Int(2));
        assert_eq!(g1[1], AggValue::Int(40));
        assert_eq!(g1[2], AggValue::Int(10));
        assert_eq!(g1[3], AggValue::Int(30));
        assert!(g1[4].approx_eq(&AggValue::Float(20.0)));
        assert_eq!(
            r.aggregate_for(&[Value::int(3)]).unwrap()[0],
            AggValue::Int(1)
        );
    }

    #[test]
    fn merging_empty_scalar_partials_keeps_one_null_row() {
        // A shard that drained no tuples for a scalar query contributes an empty
        // partial; merging any number of them must still finalize to SQL's single
        // zero/NULL row.
        let q = simple_bound_query(vec![], vec![AggFunc::Count, AggFunc::Sum, AggFunc::Avg]);
        let mut a = GroupedAggregator::new(&q);
        for _ in 0..3 {
            a.merge(GroupedAggregator::new(&q));
        }
        assert_eq!(a.num_groups(), 1, "the empty-key groups merged into one");
        let r = a.finalize();
        assert_eq!(r.num_rows(), 1);
        let row = r.rows().next().unwrap();
        assert_eq!(row.1[0], AggValue::Int(0));
        assert_eq!(row.1[1], AggValue::Null);
        assert_eq!(row.1[2], AggValue::Null);
        // ... and a shard that did drain tuples lands in that same row.
        let mut fed = GroupedAggregator::new(&q);
        fed.accumulate(&fact(1, 6), &[]);
        a.merge(fed);
        assert_eq!(a.num_groups(), 1);
        let r = a.finalize();
        assert_eq!(r.rows().next().unwrap().1[1], AggValue::Int(6));
    }

    #[test]
    fn index_growth_keeps_every_groups_state() {
        // 5 000 groups take the index from MIN_SLOTS through ten doublings; each
        // group is fed once on the way up and once after the last growth.
        const GROUPS: i64 = 5_000;
        let q = simple_bound_query(vec![0], vec![AggFunc::Count, AggFunc::Sum]);
        let mut agg = GroupedAggregator::new(&q);
        for g in 0..GROUPS {
            agg.accumulate(&fact(g, g), &[]);
        }
        assert!(agg.index.len() > MIN_SLOTS << 8);
        assert!(
            agg.index.len() >= 2 * agg.num_groups(),
            "load factor <= 1/2"
        );
        for g in (0..GROUPS).rev() {
            agg.accumulate(&fact(g, 1), &[]);
        }
        assert_eq!(agg.num_groups(), GROUPS as usize);
        // Arenas grow by half, so at most a third of one is slack.
        assert!(agg.states.capacity() <= agg.states.len() * 3 / 2);
        assert!(agg.keys.capacity() <= agg.keys.len() * 3 / 2);
        let result = agg.finalize();
        assert_eq!(result.num_rows(), GROUPS as usize);
        for g in 0..GROUPS {
            let row = result.aggregate_for(&[Value::int(g)]).unwrap();
            assert_eq!(row[0], AggValue::Int(2), "group {g}");
            assert_eq!(row[1], AggValue::Int(i128::from(g) + 1), "group {g}");
        }
    }

    #[test]
    fn equal_strings_in_distinct_allocations_share_a_group() {
        // Re-versioning a dimension row under ingest produces equal strings behind
        // different `Arc`s; grouping is by value, the pointer check only a shortcut.
        let q = simple_bound_query(vec![0], vec![AggFunc::Sum]);
        let mut agg = GroupedAggregator::new(&q);
        let first = Value::str("ASIA");
        let second = Value::str(String::from("AS") + "IA");
        let (Value::Str(a), Value::Str(b)) = (&first, &second) else {
            unreachable!()
        };
        assert!(!Arc::ptr_eq(a, b));
        agg.accumulate(&Row::new(vec![first.clone(), Value::int(1)]), &[]);
        agg.accumulate(&Row::new(vec![second, Value::int(10)]), &[]);
        agg.accumulate(&Row::new(vec![first, Value::int(100)]), &[]);
        assert_eq!(agg.num_groups(), 1);
        assert_eq!(
            agg.finalize().aggregate_for(&[Value::str("ASIA")]).unwrap()[0],
            AggValue::Int(111)
        );
    }

    #[test]
    fn zero_empty_string_and_null_are_three_groups() {
        let q = simple_bound_query(vec![0], vec![AggFunc::Count]);
        let mut agg = GroupedAggregator::new(&q);
        for key in [Value::int(0), Value::str(""), Value::Null, Value::int(0)] {
            agg.accumulate(&Row::new(vec![key, Value::int(1)]), &[]);
        }
        let result = agg.finalize();
        assert_eq!(result.num_rows(), 3);
        assert_eq!(
            result.aggregate_for(&[Value::int(0)]).unwrap()[0],
            AggValue::Int(2)
        );
        assert_eq!(
            result.aggregate_for(&[Value::str("")]).unwrap()[0],
            AggValue::Int(1)
        );
        assert_eq!(
            result.aggregate_for(&[Value::Null]).unwrap()[0],
            AggValue::Int(1)
        );
    }

    #[test]
    fn missing_dimension_row_groups_under_null() {
        let mut q = simple_bound_query(vec![], vec![AggFunc::Sum]);
        q.group_by.push(BoundColumnRef {
            name: "color.name".into(),
            source: crate::star::ColumnSource::Dimension {
                clause: 0,
                column: 1,
            },
        });
        let mut agg = GroupedAggregator::new(&q);
        let red = Row::new(vec![Value::int(1), Value::str("red")]);
        agg.accumulate(&fact(1, 5), &[Some(&red)]);
        agg.accumulate(&fact(2, 7), &[None]);
        agg.accumulate(&fact(3, 11), &[]);
        let result = agg.finalize();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(
            result.aggregate_for(&[Value::str("red")]).unwrap()[0],
            AggValue::Int(5)
        );
        assert_eq!(
            result.aggregate_for(&[Value::Null]).unwrap()[0],
            AggValue::Int(18)
        );
    }

    #[test]
    fn merge_grows_the_target_index_mid_merge() {
        let q = simple_bound_query(
            vec![0],
            vec![AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max],
        );
        // The target starts at MIN_SLOTS with three groups, all of which the
        // partial also holds, somewhere among 3 000 groups of its own.
        let mut target = GroupedAggregator::new(&q);
        for g in [7, 1_500, 2_999] {
            target.accumulate(&fact(g, -1), &[]);
        }
        assert_eq!(target.index.len(), MIN_SLOTS);
        let mut partial = GroupedAggregator::new(&q);
        for g in 0..3_000 {
            partial.accumulate(&fact(g, g), &[]);
        }
        target.merge(partial);
        assert_eq!(target.num_groups(), 3_000);
        assert!(target.index.len() >= 2 * 3_000);
        let result = target.finalize();
        for g in 0..3_000i64 {
            let row = result.aggregate_for(&[Value::int(g)]).unwrap();
            let shared = [7, 1_500, 2_999].contains(&g);
            let (count, sum, min) = if shared { (2, g - 1, -1) } else { (1, g, g) };
            assert_eq!(row[0], AggValue::Int(count), "group {g}");
            assert_eq!(row[1], AggValue::Int(i128::from(sum)), "group {g}");
            assert_eq!(row[2], AggValue::Int(i128::from(min)), "group {g}");
            assert_eq!(row[3], AggValue::Int(i128::from(g)), "group {g}");
        }
    }

    #[test]
    fn merge_order_does_not_change_the_result() {
        // Commutativity/associativity over a seeded partition of the same input:
        // the property the sharded distributor's end-barrier merge relies on.
        let q = simple_bound_query(
            vec![0],
            vec![AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max],
        );
        let rows: Vec<(i64, i64)> = (0..64).map(|i| ((i * 7) % 5, (i * 31) % 23 - 11)).collect();
        let mut whole = GroupedAggregator::new(&q);
        for &(g, v) in &rows {
            whole.accumulate(&fact(g, v), &[]);
        }
        let expected = whole.finalize();
        for shards in [2usize, 3, 4] {
            let mut partials: Vec<GroupedAggregator> =
                (0..shards).map(|_| GroupedAggregator::new(&q)).collect();
            for (i, &(g, v)) in rows.iter().enumerate() {
                partials[i % shards].accumulate(&fact(g, v), &[]);
            }
            // Merge back-to-front so the fold order differs from accumulation order.
            let mut merged = partials.pop().unwrap();
            while let Some(p) = partials.pop() {
                merged.merge(p);
            }
            assert!(
                merged.finalize().approx_eq(&expected),
                "shards={shards} diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different aggregate lists")]
    fn merging_partials_of_different_queries_panics() {
        let a = simple_bound_query(vec![0], vec![AggFunc::Count]);
        let b = simple_bound_query(vec![0], vec![AggFunc::Count, AggFunc::Sum]);
        GroupedAggregator::new(&a).merge(GroupedAggregator::new(&b));
    }

    #[test]
    #[should_panic(expected = "different group-by arity")]
    fn merging_partials_with_different_grouping_panics() {
        let a = simple_bound_query(vec![0], vec![AggFunc::Count]);
        let b = simple_bound_query(vec![], vec![AggFunc::Count]);
        GroupedAggregator::new(&a).merge(GroupedAggregator::new(&b));
    }

    #[test]
    fn approx_eq_semantics() {
        assert!(AggValue::Int(5).approx_eq(&AggValue::Int(5)));
        assert!(!AggValue::Int(5).approx_eq(&AggValue::Int(6)));
        assert!(AggValue::Float(1.0).approx_eq(&AggValue::Float(1.0 + 1e-12)));
        assert!(!AggValue::Float(1.0).approx_eq(&AggValue::Float(1.1)));
        assert!(AggValue::Int(2).approx_eq(&AggValue::Float(2.0)));
        assert!(AggValue::Null.approx_eq(&AggValue::Null));
        assert!(!AggValue::Null.approx_eq(&AggValue::Int(0)));
        assert!(AggValue::Str("a".into()).approx_eq(&AggValue::Str("a".into())));
        assert!(!AggValue::Str("a".into()).approx_eq(&AggValue::Str("b".into())));
    }

    #[test]
    fn agg_func_display() {
        assert_eq!(AggFunc::Count.to_string(), "COUNT");
        assert_eq!(AggFunc::Avg.to_string(), "AVG");
    }

    #[test]
    fn agg_value_display() {
        assert_eq!(AggValue::Int(3).to_string(), "3");
        assert_eq!(AggValue::Null.to_string(), "NULL");
        assert_eq!(AggValue::Str("x".into()).to_string(), "x");
    }

    #[test]
    fn min_max_over_strings() {
        let q = simple_bound_query(vec![], vec![AggFunc::Min, AggFunc::Max]);
        // Override aggregate inputs to target a string column: use a custom fact row
        // where column 1 is a string. simple_bound_query's aggregates read column 1.
        let mut agg = GroupedAggregator::new(&q);
        let r1 = Row::new(vec![Value::int(1), Value::str("EUROPE")]);
        let r2 = Row::new(vec![Value::int(1), Value::str("ASIA")]);
        agg.accumulate(&r1, &[]);
        agg.accumulate(&r2, &[]);
        let result = agg.finalize();
        let row = result.rows().next().unwrap();
        assert_eq!(row.1[0], AggValue::Str("ASIA".into()));
        assert_eq!(row.1[1], AggValue::Str("EUROPE".into()));
    }

    #[test]
    fn count_column_skips_nulls_and_sum_ignores_nulls() {
        let q = simple_bound_query(vec![], vec![AggFunc::Count, AggFunc::Sum]);
        let mut agg = GroupedAggregator::new(&q);
        agg.accumulate(&Row::new(vec![Value::int(1), Value::Null]), &[]);
        agg.accumulate(&Row::new(vec![Value::int(1), Value::int(4)]), &[]);
        let result = agg.finalize();
        let row = result.rows().next().unwrap();
        // COUNT(col) counts only non-null inputs.
        assert_eq!(row.1[0], AggValue::Int(1));
        assert_eq!(row.1[1], AggValue::Int(4));
    }
}
