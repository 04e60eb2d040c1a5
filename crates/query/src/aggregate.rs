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
//! first appearance, and its key is not the group-by *values* but one `u32`
//! dictionary **code** per group-by column:
//!
//! ```text
//! index   [u32; 2^k]              slot -> group id, or EMPTY   (open addressing)
//! keys    [u32; groups * G]       G = number of GROUP BY columns
//! states  [AggState; groups * A]  A = number of aggregates
//! coder   per column: code -> value, value -> code
//!         per dimension clause: attached row -> its columns' codes
//! ```
//!
//! * **Coding.** Each group-by column has a dictionary that numbers its distinct
//!   values in order of first appearance. A column on the fact row is looked up by
//!   value for every tuple. Columns on a dimension row — in a star query, nearly
//!   all of them — are looked up once per *distinct attached row*: the first time a
//!   row arrives its columns are coded and the codes remembered under the address
//!   of the row's values; afterwards a tuple carrying that row costs one
//!   address lookup per clause and no string is hashed, compared or cloned.
//! * **Probe.** The codes are hashed, the hash's top bits pick a home slot, and
//!   linear probing walks from there comparing stored codes to the tuple's — a few
//!   bytes, inline in the `keys` arena. A hit touches nothing else but the
//!   group's states; a miss appends the codes and fresh states to the arenas,
//!   which grow by amortised doubling like any `Vec`. Neither allocates per tuple.
//! * **Load factor.** The index doubles when more than half its slots are taken,
//!   so it runs between 1/4 and 1/2 full and an average probe inspects fewer than
//!   two slots. At 4 bytes a slot that is 8–16 bytes per group; growth re-links
//!   groups by rehashing their codes and never moves keys or states.
//! * **Merge** translates the other side's codes through its dictionaries' values
//!   into this side's (once per distinct value) and folds its states in, moved,
//!   not cloned. **Finalize** ranks each dictionary's values once, sorts group ids
//!   by rank tuples — integer comparisons standing in for the value comparisons —
//!   and hands the rows, already in order, to [`QueryResult::from_rows`] for one
//!   bottom-up build.
//!
//! Grouping is by value even though no value is looked at on the hot path. A code
//! is assigned by a dictionary keyed on the [`Value`] itself (its derived `Hash`
//! and `Eq` cover an integer's bits or a string's bytes, never an `Arc`'s address),
//! so equal values always get the same code: two equal strings in different
//! allocations, or two versions of a dimension row that agree on a column (what
//! re-versioning under ingest produces), land in one group. The per-row memo is the
//! only place an address is used, and only as the name of an immutable row: rows
//! are never mutated, and the aggregator keeps a clone of every row it has coded,
//! so the row cannot be freed and its address cannot come to mean another row
//! while the memo lives. Which code, slot or group id a key gets depends on arrival
//! order, and that order is not observable: [`QueryResult`] sorts rows by key
//! value, and every aggregate is commutative and associative.

use std::fmt;
use std::hash::Hasher;

use cjoin_common::{FxHashMap, FxHasher};
use cjoin_storage::{Row, Value};

use crate::result::QueryResult;
use crate::star::{BoundAggregateSpec, BoundColumnRef, BoundStarQuery, ColumnSource};

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

/// The dictionary of one group-by column: its distinct values, coded in order of
/// first appearance.
#[derive(Debug, Default)]
struct Dictionary {
    values: Vec<Value>,
    codes: FxHashMap<Value, u32>,
}

impl Dictionary {
    /// The value's code, assigning the next free one on first sight.
    fn code_of(&mut self, value: &Value) -> u32 {
        if let Some(&code) = self.codes.get(value) {
            return code;
        }
        let code = u32::try_from(self.values.len()).expect("fewer than 2^32 distinct values");
        self.values.push(value.clone());
        self.codes.insert(value.clone(), code);
        code
    }

    /// `ranks[code]` = position of the code's value among the sorted values, so
    /// comparing two ranks is comparing the two values.
    fn ranks(&self) -> Vec<u32> {
        let mut by_value: Vec<u32> = (0..self.values.len() as u32).collect();
        by_value.sort_unstable_by_key(|&code| &self.values[code as usize]);
        let mut ranks = vec![0; by_value.len()];
        for (rank, code) in by_value.into_iter().enumerate() {
            ranks[code as usize] = rank as u32;
        }
        ranks
    }
}

/// The group-by columns read through one dimension clause, and the codes of every
/// distinct row attached through it so far.
#[derive(Debug)]
struct ClauseCodes {
    clause: usize,
    /// `(position in the key, column of the dimension row)`.
    columns: Vec<(usize, usize)>,
    /// Address of a coded row's values → offset of its codes in `codes`.
    seen: FxHashMap<usize, u32>,
    /// Per coded row, one code per entry of `columns`.
    codes: Vec<u32>,
}

/// Turns a tuple's group-by values into a key of `u32` codes, one per column.
#[derive(Debug)]
struct KeyCoder {
    /// One dictionary per group-by column.
    dicts: Vec<Dictionary>,
    /// `(position in the key, fact column)` of the group-by columns on the fact row.
    fact_columns: Vec<(usize, usize)>,
    /// The group-by columns on dimension rows, by clause.
    clauses: Vec<ClauseCodes>,
    /// Every dimension row coded so far. A row in here cannot be freed, so no
    /// other row can appear at an address in a clause's `seen`.
    pinned: Vec<Row>,
}

impl KeyCoder {
    fn new(group_by: &[BoundColumnRef]) -> Self {
        let mut fact_columns = Vec::new();
        let mut clauses: Vec<ClauseCodes> = Vec::new();
        for (position, col) in group_by.iter().enumerate() {
            match col.source {
                ColumnSource::Fact(idx) => fact_columns.push((position, idx)),
                ColumnSource::Dimension { clause, column } => {
                    match clauses.iter_mut().find(|c| c.clause == clause) {
                        Some(codes) => codes.columns.push((position, column)),
                        None => clauses.push(ClauseCodes {
                            clause,
                            columns: vec![(position, column)],
                            seen: FxHashMap::default(),
                            codes: Vec::new(),
                        }),
                    }
                }
            }
        }
        Self {
            dicts: group_by.iter().map(|_| Dictionary::default()).collect(),
            fact_columns,
            clauses,
            pinned: Vec::new(),
        }
    }

    /// Writes the tuple's key into `key` (one slot per group-by column).
    #[inline]
    fn code(&mut self, fact: &Row, dims: &[Option<&Row>], key: &mut [u32]) {
        for &(position, idx) in &self.fact_columns {
            key[position] = self.dicts[position].code_of(fact.get(idx));
        }
        for clause in &mut self.clauses {
            let Some(row) = dims.get(clause.clause).copied().flatten() else {
                // A missing dimension row reads as NULL in every column.
                for &(position, _) in &clause.columns {
                    key[position] = self.dicts[position].code_of(&Value::Null);
                }
                continue;
            };
            let address = row.values().as_ptr() as usize;
            let at = match clause.seen.get(&address) {
                Some(&at) => at as usize,
                None => {
                    let at = clause.codes.len();
                    for &(position, column) in &clause.columns {
                        let code = self.dicts[position].code_of(row.get(column));
                        clause.codes.push(code);
                    }
                    let offset = u32::try_from(at).expect("fewer than 2^32 row codes");
                    clause.seen.insert(address, offset);
                    self.pinned.push(row.clone());
                    at
                }
            };
            for (&(position, _), &code) in clause.columns.iter().zip(&clause.codes[at..]) {
                key[position] = code;
            }
        }
    }

    /// Makes sure every value `other` has coded has a code here too, and returns
    /// per column the table from `other`'s codes to this coder's.
    fn translate(&mut self, other: &KeyCoder) -> Vec<Vec<u32>> {
        self.dicts
            .iter_mut()
            .zip(&other.dicts)
            .map(|(ours, theirs)| theirs.values.iter().map(|v| ours.code_of(v)).collect())
            .collect()
    }

    /// The values a key stands for.
    fn decode(&self, key: &[u32]) -> Vec<Value> {
        key.iter()
            .zip(&self.dicts)
            .map(|(&code, dict)| dict.values[code as usize].clone())
            .collect()
    }
}

fn hash_key(key: &[u32]) -> u64 {
    let mut hasher = FxHasher::default();
    for &code in key {
        hasher.write_u32(code);
    }
    hasher.finish()
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
    coder: KeyCoder,
    /// Open-addressing index, a power of two long: slot → group id, or [`EMPTY`].
    index: Vec<u32>,
    /// `64 - log2(index.len())`; see [`home_slot`](Self::home_slot).
    shift: u32,
    /// Number of groups; neither arena's length gives it when its stride is zero.
    groups: usize,
    /// Per-group key codes, at stride `group_by.len()`.
    keys: Vec<u32>,
    /// Per-group running states, at stride `aggregates.len()`.
    states: Vec<AggState>,
    /// Scratch: the current tuple's key.
    key: Vec<u32>,
}

impl GroupedAggregator {
    /// Creates an aggregator for the given bound query.
    pub fn new(query: &BoundStarQuery) -> Self {
        let mut agg = Self {
            group_by: query.group_by.clone(),
            aggregates: query.aggregates.clone(),
            coder: KeyCoder::new(&query.group_by),
            index: vec![EMPTY; MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            groups: 0,
            keys: Vec::new(),
            states: Vec::new(),
            key: vec![0; query.group_by.len()],
        };
        if agg.group_by.is_empty() {
            // A query with no GROUP BY outputs a single row (of NULL/0 aggregates)
            // even when no tuple qualifies, like SQL does: its one group, with the
            // empty key, exists from the start.
            agg.group_of_key();
        }
        agg
    }

    /// Number of groups accumulated so far.
    pub fn num_groups(&self) -> usize {
        self.groups
    }

    /// The slot a probe for `hash` starts at: the hash's top bits (FxHash ends in a
    /// multiply, so those are its best-mixed ones).
    #[inline]
    fn home_slot(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    /// The group whose key is `self.key`, created with fresh states if it is new.
    #[inline]
    fn group_of_key(&mut self) -> usize {
        let arity = self.key.len();
        let mask = self.index.len() - 1;
        let mut slot = self.home_slot(hash_key(&self.key));
        loop {
            let group = self.index[slot];
            if group == EMPTY {
                break;
            }
            let group = group as usize;
            if self.keys[group * arity..][..arity] == *self.key {
                return group;
            }
            slot = (slot + 1) & mask;
        }
        let group = self.groups;
        assert!(group < EMPTY as usize, "more than {EMPTY} groups");
        self.index[slot] = group as u32;
        self.groups += 1;
        self.keys.extend_from_slice(&self.key);
        self.states
            .extend(self.aggregates.iter().map(|a| AggState::new(a.func)));
        if self.groups * 2 > self.index.len() {
            self.grow_index();
        }
        group
    }

    /// Doubles the index and re-links every group by rehashing its codes; the
    /// arenas do not move.
    fn grow_index(&mut self) {
        let slots = self.index.len() * 2;
        self.shift -= 1;
        self.index.clear();
        self.index.resize(slots, EMPTY);
        let mask = slots - 1;
        let arity = self.key.len();
        for group in 0..self.groups {
            let mut slot = self.home_slot(hash_key(&self.keys[group * arity..][..arity]));
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
        self.coder.code(fact, dims, &mut self.key);
        let group = self.group_of_key();
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
    /// in any order yields exactly the single-aggregator result.
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
        let translate = self.coder.translate(&other.coder);
        let mut partials = other.states.into_iter();
        for theirs in 0..other.groups {
            for (position, table) in translate.iter().enumerate() {
                self.key[position] = table[other.keys[theirs * arity + position] as usize];
            }
            let group = self.group_of_key();
            let states = &mut self.states[group * width..][..width];
            for (state, partial) in states.iter_mut().zip(partials.by_ref()) {
                state.merge(partial);
            }
        }
    }

    /// Finalizes into a deterministic [`QueryResult`].
    pub fn finalize(&self) -> QueryResult {
        let arity = self.group_by.len();
        let width = self.aggregates.len();
        let ranks: Vec<Vec<u32>> = self.coder.dicts.iter().map(Dictionary::ranks).collect();
        let key = |group: u32| &self.keys[group as usize * arity..][..arity];
        let ranked = |group: u32| {
            key(group)
                .iter()
                .zip(&ranks)
                .map(|(&code, ranks)| ranks[code as usize])
        };
        let mut order: Vec<u32> = (0..self.groups as u32).collect();
        order.sort_unstable_by(|&a, &b| ranked(a).cmp(ranked(b)));
        QueryResult::from_rows(
            self.group_by.iter().map(|c| c.name.clone()).collect(),
            self.aggregates.iter().map(|a| a.label()).collect(),
            order.into_iter().map(|group| {
                (
                    self.coder.decode(key(group)),
                    self.states[group as usize * width..][..width]
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
        let result = agg.finalize();
        assert_eq!(result.num_rows(), GROUPS as usize);
        for g in 0..GROUPS {
            let row = result.aggregate_for(&[Value::int(g)]).unwrap();
            assert_eq!(row[0], AggValue::Int(2), "group {g}");
            assert_eq!(row[1], AggValue::Int(i128::from(g) + 1), "group {g}");
        }
    }

    /// A query grouping by column 1 of its one dimension clause (and, optionally,
    /// fact column 0), SUM over fact column 1.
    fn dim_grouped_query(also_fact_col0: bool) -> BoundStarQuery {
        let mut q = simple_bound_query(
            if also_fact_col0 { vec![0] } else { vec![] },
            vec![AggFunc::Sum],
        );
        q.group_by.push(BoundColumnRef {
            name: "color.name".into(),
            source: ColumnSource::Dimension {
                clause: 0,
                column: 1,
            },
        });
        q
    }

    fn color(key: i64, name: &str) -> Row {
        Row::new(vec![Value::int(key), Value::str(name)])
    }

    #[test]
    fn equal_values_in_distinct_allocations_share_a_group() {
        // Re-versioning a dimension row under ingest produces an equal value in a
        // different row at a different address; codes come from the value.
        let mut agg = GroupedAggregator::new(&dim_grouped_query(false));
        let (old, new) = (color(1, "red"), color(1, &(String::from("re") + "d")));
        assert_ne!(old.values().as_ptr(), new.values().as_ptr());
        agg.accumulate(&fact(1, 1), &[Some(&old)]);
        agg.accumulate(&fact(1, 10), &[Some(&new)]);
        agg.accumulate(&fact(1, 100), &[Some(&old.clone())]);
        assert_eq!(agg.num_groups(), 1);
        assert_eq!(agg.coder.pinned.len(), 2, "each distinct row coded once");
        // Same on the fact side, where every tuple is coded by value.
        let mut agg = GroupedAggregator::new(&simple_bound_query(vec![0], vec![AggFunc::Sum]));
        for (name, amount) in [("ASIA", 1), ("ASIA", 10)] {
            agg.accumulate(&Row::new(vec![Value::str(name), Value::int(amount)]), &[]);
        }
        assert_eq!(
            agg.finalize().aggregate_for(&[Value::str("ASIA")]).unwrap()[0],
            AggValue::Int(11)
        );
    }

    #[test]
    fn coded_rows_stay_pinned_so_an_address_is_never_reused() {
        // Each row is dropped by the caller right after its tuple; were it not
        // pinned, the allocator would hand the next row the same address and the
        // aggregator would take it for the previous one.
        let mut agg = GroupedAggregator::new(&dim_grouped_query(false));
        for i in 0..200 {
            let row = color(i, &format!("name-{i}"));
            agg.accumulate(&fact(i, 1), &[Some(&row)]);
        }
        assert_eq!(agg.num_groups(), 200);
        let result = agg.finalize();
        for i in 0..200 {
            let name = Value::str(format!("name-{i}"));
            assert_eq!(result.aggregate_for(&[name]).unwrap()[0], AggValue::Int(1));
        }
    }

    #[test]
    fn merge_translates_codes_between_dictionaries() {
        // The partials meet the same values in opposite orders, so their codes for
        // them differ; on the fact column one side holds a value the other lacks.
        let q = dim_grouped_query(true);
        let (red, green) = (color(1, "red"), color(2, "green"));
        let mut a = GroupedAggregator::new(&q);
        a.accumulate(&fact(7, 1), &[Some(&red)]);
        a.accumulate(&fact(8, 10), &[Some(&green)]);
        let mut b = GroupedAggregator::new(&q);
        b.accumulate(&fact(8, 100), &[Some(&green)]);
        b.accumulate(&fact(9, 1_000), &[Some(&green)]);
        b.accumulate(&fact(7, 10_000), &[Some(&red)]);
        a.merge(b);
        let result = a.finalize();
        let sum = |f: i64, name: &str| {
            result
                .aggregate_for(&[Value::int(f), Value::str(name)])
                .unwrap()[0]
                .clone()
        };
        assert_eq!(result.num_rows(), 3);
        assert_eq!(sum(7, "red"), AggValue::Int(10_001));
        assert_eq!(sum(8, "green"), AggValue::Int(110));
        assert_eq!(sum(9, "green"), AggValue::Int(1_000));
    }

    #[test]
    fn finalize_orders_rows_like_value_ordering() {
        // Ranks stand in for the values when finalize sorts: the row order must be
        // `Vec<Value>`'s own (Int < Str < Null within a column), whatever order
        // the values were first seen in.
        let q = dim_grouped_query(true);
        let mut agg = GroupedAggregator::new(&q);
        let keys = [
            (Value::Null, Some("b")),
            (Value::str("x"), Some("a")),
            (Value::int(5), None),
            (Value::int(-3), Some("b")),
            (Value::str(""), Some("b")),
            (Value::int(5), Some("a")),
            (Value::int(-3), Some("a")),
        ];
        for (fact_key, name) in &keys {
            let row = name.map(|n| color(0, n));
            agg.accumulate(
                &Row::new(vec![fact_key.clone(), Value::int(1)]),
                &[row.as_ref()],
            );
        }
        let mut expected: Vec<Vec<Value>> = keys
            .iter()
            .map(|(k, n)| vec![k.clone(), n.map_or(Value::Null, Value::str)])
            .collect();
        expected.sort();
        let got: Vec<Vec<Value>> = agg.finalize().rows().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, expected);
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
        let mut agg = GroupedAggregator::new(&dim_grouped_query(false));
        let red = color(1, "red");
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
