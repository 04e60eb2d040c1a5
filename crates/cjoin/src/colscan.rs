//! Encoded-predicate kernel for the compressed columnar scan front-end (§5,
//! Column Stores / Compressed Tables).
//!
//! When `CjoinConfig::columnar_scan` is on, the engine builds a read-optimised
//! [`ColumnarTable`] replica of the fact table and each scan worker reads the
//! chunks of its continuous scan that the replica covers from it. This module
//! provides the two pieces the Preprocessor composes:
//!
//! * [`EncodedFactPredicate`] — a query's fact predicate compiled, at install
//!   time, into a form evaluable directly over encoded column data: integer
//!   comparisons run on the encoded values (one probe per run on RLE columns),
//!   and string predicates are pre-translated into sets of dictionary *codes*
//!   (the partial-decompression trick), so no string is ever materialised on
//!   the scan path. Each compiled predicate can also be tested against a row
//!   group's [`ZoneMap`]s, yielding a [`ZoneVerdict`] that lets the scan skip
//!   whole groups (`Never`) or skip per-row evaluation (`Always`).
//! * [`ReplicaScan`] — a scan worker's handle on the replica: the encoded
//!   data, the byte accounting, and the per-row-group checksum verdicts that
//!   decide whether a chunk may be read encoded. It holds no position; the
//!   §3.3 admission and completion protocol runs on the worker's one
//!   [`cjoin_storage::ContinuousScan`] whether or not a replica exists.
//! * `pass_end` — where a query's pass over a segment can end: after the
//!   last row group, in pass order, whose zone verdict is not `Never`. This is
//!   §5's fact-table partitioning without declared partitions: on a column the
//!   table is clustered by, groups have disjoint zones, so a range query's
//!   pass ends once the scan has covered the groups its range overlaps.
//!
//! ## Why encoded evaluation is exact
//!
//! Compilation mirrors [`cjoin_query::BoundPredicate`]'s evaluation semantics
//! leaf by leaf — including its two-valued NULL handling (a comparison with a
//! NULL operand is `false`, and `Not` is plain negation, so `Not(cmp)` *does*
//! match NULL rows) and the derived cross-type `Value` ordering
//! (`Int < Str < Null` by variant). Cross-type and NULL literals therefore
//! compile to constant nodes (`PredNode::Const`, matching nothing, or
//! `PredNode::NonNull`, matching every non-NULL row) rather than being
//! rejected. `compile` returns `None` only for a column the schema lacks or a
//! string column the replica stores as integers; neither happens to a
//! predicate `StarQuery::bind` accepted, over a replica built from the same
//! schema, so the Preprocessor has no row-at-a-time fallback.

use std::ops::Range;
use std::sync::Arc;

use cjoin_query::{CompareOp, IntLeaf, Predicate};
use cjoin_storage::{
    ColumnId, ColumnarTable, Dictionary, EncodedColumn, IntEncoding, IntZone, RowGroup, ScanVolume,
    Schema, Value, ZoneCodes, ZoneMap,
};

/// What a row group's zone maps prove about a compiled predicate (shared with
/// the row store's page test, which decides integer leaves the same way).
pub use cjoin_query::ZoneVerdict;

/// A fact predicate compiled against a specific [`ColumnarTable`] replica.
#[derive(Debug, Clone)]
pub struct EncodedFactPredicate {
    root: PredNode,
    /// Sorted, distinct fact columns the predicate reads (for byte accounting).
    columns: Vec<ColumnId>,
}

/// One node of a compiled predicate. Leaves evaluate over encoded data with the
/// exact semantics of the corresponding `BoundNode`.
#[derive(Debug, Clone)]
enum PredNode {
    /// Matches every row (`true`) or no row (`false`) regardless of content.
    Const(bool),
    /// Matches every row whose `col` is non-NULL (cross-type comparisons whose
    /// outcome is fixed by the `Value` variant ordering reduce to this).
    NonNull { col: ColumnId },
    /// `col <op> value` over an integer column; NULL rows never match.
    IntCmp {
        col: ColumnId,
        op: CompareOp,
        value: i64,
    },
    /// `col BETWEEN lo AND hi` (inclusive) over an integer column.
    IntBetween { col: ColumnId, lo: i64, hi: i64 },
    /// `col IN (values)` over an integer column; `values` sorted and distinct.
    IntIn { col: ColumnId, values: Vec<i64> },
    /// String predicate pre-translated to dictionary codes: matches non-NULL
    /// rows whose code is in `codes` (sorted, distinct).
    StrIn { col: ColumnId, codes: Vec<u32> },
    /// Conjunction (empty = `true`).
    And(Vec<PredNode>),
    /// Disjunction (empty = `false`).
    Or(Vec<PredNode>),
    /// Plain negation (matches `BoundNode::Not`: NULL-row leaves negate to `true`).
    Not(Box<PredNode>),
}

/// Applies `op` to two ordered operands the way `CompareOp::eval` does for two
/// non-NULL values of the same type.
fn cmp_ord<T: Ord>(op: CompareOp, lhs: T, rhs: T) -> bool {
    match op {
        CompareOp::Eq => lhs == rhs,
        CompareOp::Ne => lhs != rhs,
        CompareOp::Lt => lhs < rhs,
        CompareOp::Le => lhs <= rhs,
        CompareOp::Gt => lhs > rhs,
        CompareOp::Ge => lhs >= rhs,
    }
}

/// The outcome of `Int(col) <op> Str(_)` for every non-NULL row, per the derived
/// `Value` ordering (`Int < Str`).
fn int_vs_str(op: CompareOp) -> bool {
    matches!(op, CompareOp::Ne | CompareOp::Lt | CompareOp::Le)
}

/// The outcome of `Str(col) <op> Int(_)` for every non-NULL row (`Str > Int`).
fn str_vs_int(op: CompareOp) -> bool {
    matches!(op, CompareOp::Ne | CompareOp::Gt | CompareOp::Ge)
}

/// A constant verdict for all non-NULL rows of `col`.
fn non_null_const(col: ColumnId, result: bool) -> PredNode {
    if result {
        PredNode::NonNull { col }
    } else {
        PredNode::Const(false)
    }
}

/// All dictionary codes whose string satisfies `op` against `s`, sorted.
fn str_codes_matching(dict: &Dictionary, op: CompareOp, s: &str) -> Vec<u32> {
    (0..dict.len() as u32)
        .filter(|&c| {
            let v = dict.value_of(c).expect("code in range");
            cmp_ord(op, v.as_ref(), s)
        })
        .collect()
}

impl EncodedFactPredicate {
    /// Compiles `pred` for evaluation over `replica`'s encoded columns, or
    /// `None` if a leaf names a column `schema` lacks, or a string column
    /// `replica` does not store as strings.
    pub fn compile(pred: &Predicate, schema: &Schema, replica: &ColumnarTable) -> Option<Self> {
        let root = compile_node(pred, schema, replica)?;
        let mut columns = Vec::new();
        collect_columns(&root, &mut columns);
        columns.sort_unstable();
        columns.dedup();
        Some(Self { root, columns })
    }

    /// The sorted, distinct fact columns the predicate reads.
    pub fn columns(&self) -> &[ColumnId] {
        &self.columns
    }

    /// Tests the predicate against a row group's zone maps.
    pub fn zone_verdict(&self, zones: &[ZoneMap]) -> ZoneVerdict {
        node_verdict(&self.root, zones)
    }

    /// Evaluates the predicate over rows `start .. start + out.len()` of
    /// `replica`, which lie in one row group, writing one match flag per row
    /// into `out` and recording probe counts into `volume`.
    pub fn eval_range(
        &self,
        replica: &ColumnarTable,
        start: usize,
        out: &mut [bool],
        volume: &ScanVolume,
    ) {
        let group = &replica.row_groups()[replica.group_of(start as u64)];
        self.eval_group(group, start - group.start as usize, out, volume);
    }

    /// [`EncodedFactPredicate::eval_range`] from row `offset` of `group`.
    pub(crate) fn eval_group(
        &self,
        group: &RowGroup,
        offset: usize,
        out: &mut [bool],
        volume: &ScanVolume,
    ) {
        eval_node(&self.root, group, offset, out, volume);
    }
}

fn compile_node(pred: &Predicate, schema: &Schema, replica: &ColumnarTable) -> Option<PredNode> {
    use cjoin_storage::ColumnType;
    Some(match pred {
        Predicate::True => PredNode::Const(true),
        Predicate::Compare { column, op, value } => {
            let col = schema.column_index(column).ok()?;
            match (schema.columns()[col].ty, value) {
                (_, Value::Null) => PredNode::Const(false),
                (ColumnType::Int, Value::Int(v)) => PredNode::IntCmp {
                    col,
                    op: *op,
                    value: *v,
                },
                (ColumnType::Int, Value::Str(_)) => non_null_const(col, int_vs_str(*op)),
                (ColumnType::Str, Value::Int(_)) => non_null_const(col, str_vs_int(*op)),
                (ColumnType::Str, Value::Str(s)) => {
                    let dict = replica.dictionary(col)?;
                    if *op == CompareOp::Eq {
                        match dict.code_of(s) {
                            Some(code) => PredNode::StrIn {
                                col,
                                codes: vec![code],
                            },
                            None => PredNode::Const(false),
                        }
                    } else {
                        PredNode::StrIn {
                            col,
                            codes: str_codes_matching(dict, *op, s),
                        }
                    }
                }
            }
        }
        Predicate::Between { column, low, high } => {
            let col = schema.column_index(column).ok()?;
            if low.is_null() || high.is_null() {
                return Some(PredNode::Const(false));
            }
            match (schema.columns()[col].ty, low, high) {
                (ColumnType::Int, Value::Int(lo), Value::Int(hi)) => PredNode::IntBetween {
                    col,
                    lo: *lo,
                    hi: *hi,
                },
                // `Int(v) >= Str(_)` is false: nothing can satisfy the lower bound.
                (ColumnType::Int, Value::Str(_), _) => PredNode::Const(false),
                // `Int(v) <= Str(_)` is true: only the lower bound constrains.
                (ColumnType::Int, Value::Int(lo), Value::Str(_)) => PredNode::IntCmp {
                    col,
                    op: CompareOp::Ge,
                    value: *lo,
                },
                // `Str(v) <= Int(_)` is false: nothing can satisfy the upper bound.
                (ColumnType::Str, _, Value::Int(_)) => PredNode::Const(false),
                // `Str(v) >= Int(_)` is true: only the upper bound constrains.
                (ColumnType::Str, Value::Int(_), Value::Str(hi)) => {
                    let dict = replica.dictionary(col)?;
                    PredNode::StrIn {
                        col,
                        codes: str_codes_matching(dict, CompareOp::Le, hi),
                    }
                }
                (ColumnType::Str, Value::Str(lo), Value::Str(hi)) => {
                    let dict = replica.dictionary(col)?;
                    let codes = (0..dict.len() as u32)
                        .filter(|&c| {
                            let v = dict.value_of(c).expect("code in range");
                            v.as_ref() >= lo.as_ref() && v.as_ref() <= hi.as_ref()
                        })
                        .collect();
                    PredNode::StrIn { col, codes }
                }
                (_, Value::Null, _) | (_, _, Value::Null) => unreachable!("handled above"),
            }
        }
        Predicate::InList { column, values } => {
            let col = schema.column_index(column).ok()?;
            match schema.columns()[col].ty {
                ColumnType::Int => {
                    // Cross-type and NULL list entries can never equal an Int row.
                    let mut ints: Vec<i64> = values
                        .iter()
                        .filter_map(|v| match v {
                            Value::Int(i) => Some(*i),
                            _ => None,
                        })
                        .collect();
                    ints.sort_unstable();
                    ints.dedup();
                    if ints.is_empty() {
                        PredNode::Const(false)
                    } else {
                        PredNode::IntIn { col, values: ints }
                    }
                }
                ColumnType::Str => {
                    let dict = replica.dictionary(col)?;
                    let mut codes: Vec<u32> = values
                        .iter()
                        .filter_map(|v| match v {
                            // A string absent from the replica's dictionary cannot
                            // match any stored row.
                            Value::Str(s) => dict.code_of(s),
                            _ => None,
                        })
                        .collect();
                    codes.sort_unstable();
                    codes.dedup();
                    if codes.is_empty() {
                        PredNode::Const(false)
                    } else {
                        PredNode::StrIn { col, codes }
                    }
                }
            }
        }
        Predicate::And(ps) => PredNode::And(
            ps.iter()
                .map(|p| compile_node(p, schema, replica))
                .collect::<Option<Vec<_>>>()?,
        ),
        Predicate::Or(ps) => PredNode::Or(
            ps.iter()
                .map(|p| compile_node(p, schema, replica))
                .collect::<Option<Vec<_>>>()?,
        ),
        Predicate::Not(p) => PredNode::Not(Box::new(compile_node(p, schema, replica)?)),
    })
}

fn collect_columns(node: &PredNode, out: &mut Vec<ColumnId>) {
    match node {
        PredNode::Const(_) => {}
        PredNode::NonNull { col }
        | PredNode::IntCmp { col, .. }
        | PredNode::IntBetween { col, .. }
        | PredNode::IntIn { col, .. }
        | PredNode::StrIn { col, .. } => out.push(*col),
        PredNode::And(ps) | PredNode::Or(ps) => {
            for p in ps {
                collect_columns(p, out);
            }
        }
        PredNode::Not(p) => collect_columns(p, out),
    }
}

// ---------------------------------------------------------------------------
// Zone verdicts
// ---------------------------------------------------------------------------

/// An integer leaf's verdict on a group's zone map for its column.
fn int_verdict(zone: &ZoneMap, leaf: IntLeaf<'_>) -> ZoneVerdict {
    match *zone {
        ZoneMap::Int { min, max, has_null } => leaf.verdict(&IntZone { min, max, has_null }),
        ZoneMap::Str { .. } => ZoneVerdict::Maybe,
    }
}

fn node_verdict(node: &PredNode, zones: &[ZoneMap]) -> ZoneVerdict {
    match node {
        PredNode::Const(true) => ZoneVerdict::Always,
        PredNode::Const(false) => ZoneVerdict::Never,
        PredNode::NonNull { col } => match &zones[*col] {
            ZoneMap::Int { min, max, has_null } => {
                if min > max {
                    ZoneVerdict::Never // all-NULL group
                } else if !has_null {
                    ZoneVerdict::Always
                } else {
                    ZoneVerdict::Maybe
                }
            }
            ZoneMap::Str { codes, has_null } => {
                if codes.exact().is_some_and(<[u32]>::is_empty) {
                    ZoneVerdict::Never
                } else if !has_null {
                    ZoneVerdict::Always
                } else {
                    ZoneVerdict::Maybe
                }
            }
        },
        PredNode::IntCmp { col, op, value } => int_verdict(&zones[*col], IntLeaf::Cmp(*op, *value)),
        PredNode::IntBetween { col, lo, hi } => {
            int_verdict(&zones[*col], IntLeaf::Between(*lo, *hi))
        }
        PredNode::IntIn { col, values } => int_verdict(&zones[*col], IntLeaf::In(values)),
        PredNode::StrIn { col, codes } => {
            let ZoneMap::Str {
                codes: zone,
                has_null,
            } = &zones[*col]
            else {
                return ZoneVerdict::Maybe;
            };
            match zone {
                ZoneCodes::Exact(present) => {
                    let any = present.iter().any(|c| codes.binary_search(c).is_ok());
                    if !any {
                        ZoneVerdict::Never
                    } else if !has_null && present.iter().all(|c| codes.binary_search(c).is_ok()) {
                        ZoneVerdict::Always
                    } else {
                        ZoneVerdict::Maybe
                    }
                }
                // A Bloom summary can prove absence (no false negatives) but
                // never presence of every row's code.
                ZoneCodes::Bloom(_) => {
                    if codes.iter().all(|c| !zone.may_contain(*c)) {
                        ZoneVerdict::Never
                    } else {
                        ZoneVerdict::Maybe
                    }
                }
            }
        }
        PredNode::And(ps) => {
            let mut all_always = true;
            for p in ps {
                match node_verdict(p, zones) {
                    ZoneVerdict::Never => return ZoneVerdict::Never,
                    ZoneVerdict::Maybe => all_always = false,
                    ZoneVerdict::Always => {}
                }
            }
            if all_always {
                ZoneVerdict::Always
            } else {
                ZoneVerdict::Maybe
            }
        }
        PredNode::Or(ps) => {
            let mut all_never = true;
            for p in ps {
                match node_verdict(p, zones) {
                    ZoneVerdict::Always => return ZoneVerdict::Always,
                    ZoneVerdict::Maybe => all_never = false,
                    ZoneVerdict::Never => {}
                }
            }
            if all_never {
                ZoneVerdict::Never
            } else {
                ZoneVerdict::Maybe
            }
        }
        // `Not` is plain negation over all stored rows, so the verdicts flip
        // exactly: "no row matches p" means "every row matches Not(p)".
        PredNode::Not(p) => match node_verdict(p, zones) {
            ZoneVerdict::Never => ZoneVerdict::Always,
            ZoneVerdict::Always => ZoneVerdict::Never,
            ZoneVerdict::Maybe => ZoneVerdict::Maybe,
        },
    }
}

// ---------------------------------------------------------------------------
// Range evaluation over encoded data
// ---------------------------------------------------------------------------

/// Evaluates an integer leaf via `test` over whatever encoding the column uses.
/// RLE columns pay one `test` per run overlapping the range instead of one per
/// row — the §5 "predicates evaluated on compressed data" win.
fn eval_int_leaf(
    group: &RowGroup,
    col: ColumnId,
    start: usize,
    out: &mut [bool],
    volume: &ScanVolume,
    test: impl Fn(i64) -> bool,
) {
    let len = out.len();
    let EncodedColumn::Int { data, nulls } = group.encoded_column(col) else {
        out.fill(false);
        return;
    };
    match data {
        IntEncoding::Plain(values) => {
            let slice = &values[start..start + len];
            match nulls {
                None => {
                    for (o, &v) in out.iter_mut().zip(slice) {
                        *o = test(v);
                    }
                }
                Some(ns) => {
                    let ns = &ns[start..start + len];
                    for ((o, &v), &null) in out.iter_mut().zip(slice).zip(ns) {
                        *o = !null && test(v);
                    }
                }
            }
            volume.record_predicate(len as u64, len as u64);
        }
        IntEncoding::Rle(rle) => {
            let (s, e) = (start as u64, (start + len) as u64);
            let mut cursor = rle.runs();
            cursor.seek(s);
            let mut probes = 0u64;
            while let Some((value, run_start, run_end)) = cursor.next_run() {
                if run_start >= e {
                    break;
                }
                let matched = test(value);
                probes += 1;
                let from = (run_start.max(s) - s) as usize;
                let to = (run_end.min(e) - s) as usize;
                out[from..to].fill(matched);
                if run_end >= e {
                    break;
                }
            }
            volume.record_predicate(probes, len as u64);
        }
        IntEncoding::Packed(v) => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = test(v.get(start + i).expect("row in range"));
            }
            volume.record_predicate(len as u64, len as u64);
        }
        IntEncoding::Delta(v) => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = test(v.get(start + i).expect("row in range"));
            }
            volume.record_predicate(len as u64, len as u64);
        }
    }
}

fn eval_node(
    node: &PredNode,
    group: &RowGroup,
    start: usize,
    out: &mut [bool],
    volume: &ScanVolume,
) {
    match node {
        PredNode::Const(b) => out.fill(*b),
        PredNode::NonNull { col } => {
            let nulls = match group.encoded_column(*col) {
                EncodedColumn::Int { nulls, .. } => nulls,
                EncodedColumn::Str { nulls, .. } => nulls,
            };
            match nulls {
                None => out.fill(true),
                Some(ns) => {
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = !ns[start + i];
                    }
                }
            }
        }
        PredNode::IntCmp { col, op, value } => {
            let (op, value) = (*op, *value);
            eval_int_leaf(group, *col, start, out, volume, move |v| {
                cmp_ord(op, v, value)
            });
        }
        PredNode::IntBetween { col, lo, hi } => {
            let (lo, hi) = (*lo, *hi);
            eval_int_leaf(group, *col, start, out, volume, move |v| v >= lo && v <= hi);
        }
        PredNode::IntIn { col, values } => {
            eval_int_leaf(group, *col, start, out, volume, |v| {
                values.binary_search(&v).is_ok()
            });
        }
        PredNode::StrIn { col, codes } => {
            let len = out.len();
            let EncodedColumn::Str {
                codes: column,
                nulls,
            } = group.encoded_column(*col)
            else {
                out.fill(false);
                return;
            };
            for (i, o) in out.iter_mut().enumerate() {
                let row = start + i;
                let null = nulls.is_some_and(|ns| ns[row]);
                *o = !null && codes.binary_search(&column[row]).is_ok();
            }
            volume.record_predicate(len as u64, len as u64);
        }
        PredNode::And(ps) => {
            if ps.is_empty() {
                out.fill(true);
                return;
            }
            eval_node(&ps[0], group, start, out, volume);
            if ps.len() > 1 {
                let mut scratch = vec![false; out.len()];
                for p in &ps[1..] {
                    eval_node(p, group, start, &mut scratch, volume);
                    for (o, &s) in out.iter_mut().zip(&scratch) {
                        *o &= s;
                    }
                }
            }
        }
        PredNode::Or(ps) => {
            if ps.is_empty() {
                out.fill(false);
                return;
            }
            eval_node(&ps[0], group, start, out, volume);
            if ps.len() > 1 {
                let mut scratch = vec![false; out.len()];
                for p in &ps[1..] {
                    eval_node(p, group, start, &mut scratch, volume);
                    for (o, &s) in out.iter_mut().zip(&scratch) {
                        *o |= s;
                    }
                }
            }
        }
        PredNode::Not(p) => {
            eval_node(p, group, start, out, volume);
            for o in out.iter_mut() {
                *o = !*o;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The replica side of a scan worker
// ---------------------------------------------------------------------------

/// What a scan worker holds of the compressed replica, when the engine built
/// one (`CjoinConfig::columnar_scan`).
///
/// The replica is a prefix of the live fact table in whole row groups; a
/// commit that completes a group hands the worker a longer one, which it
/// adopts between two chunks (`ReplicaScan::adopt`). It has no cursor of its
/// own: the worker's [`cjoin_storage::ContinuousScan`]
/// owns position, segment and wrap-around, and a chunk of that scan is read
/// from the replica when it lies inside a row group whose checksum verified —
/// every other row (past the replica's last group, or in a quarantined group)
/// comes from the row store.
#[derive(Debug)]
pub struct ReplicaScan {
    /// The encoded replica.
    pub(crate) replica: Arc<ColumnarTable>,
    /// Scan-volume accounting shared with the engine's stats.
    pub(crate) volume: Arc<ScanVolume>,
    /// Average encoded bytes per row of each column (for volume accounting).
    pub(crate) col_bytes_per_row: Vec<u64>,
    /// Per-row-group checksum verdicts: `None` until this worker first touches
    /// the group, then whether it verified.
    group_verified: Vec<Option<bool>>,
}

impl ReplicaScan {
    /// Wraps `replica` for one scan worker, recording what it reads into `volume`.
    pub fn new(replica: Arc<ColumnarTable>, volume: Arc<ScanVolume>) -> Self {
        let arity = replica.schema().arity();
        let rows = replica.len().max(1) as u64;
        let col_bytes_per_row = (0..arity)
            .map(|c| replica.column_encoded_bytes(c).div_ceil(rows).max(1))
            .collect();
        let group_verified = vec![None; replica.row_groups().len()];
        Self {
            replica,
            volume,
            col_bytes_per_row,
            group_verified,
        }
    }

    /// Takes over `replica`, grown from the current one by sealed row groups.
    /// A group the two share by `Arc` keeps its checksum verdict, so a corrupt
    /// group is verified, counted and logged once per worker however often
    /// the replica grows; a new group is verified when first touched.
    pub(crate) fn adopt(&mut self, replica: Arc<ColumnarTable>) {
        let old = std::mem::replace(self, Self::new(replica, Arc::clone(&self.volume)));
        let shared = old
            .replica
            .row_groups()
            .iter()
            .zip(self.replica.row_groups());
        for (g, (a, b)) in shared.enumerate() {
            if Arc::ptr_eq(a, b) {
                self.group_verified[g] = old.group_verified[g];
            }
        }
    }

    /// Checksum gate: verifies row group `g` the first time this worker touches
    /// it, before its encoded columns or zone maps are trusted. A group that
    /// fails is quarantined — its rows are served from the row store — for the
    /// life of this worker. Returns whether the group may be read from the
    /// replica.
    pub(crate) fn group_verified(&mut self, g: usize) -> bool {
        *self.group_verified[g].get_or_insert_with(|| {
            let verified = self.replica.verify_group(g);
            if !verified {
                self.volume.record_group_quarantined();
                eprintln!(
                    "cjoin: columnar row group {g} failed its checksum; \
                     serving its rows from the row store"
                );
            }
            verified
        })
    }

    /// [`pass_end`] for `predicate` over this worker's `segment`, from `start`.
    /// A group may match unless its zone verdict is `Never` *and* its checksum
    /// verifies: zone maps are trusted only for a verified group, and a
    /// quarantined group is read from the row store.
    pub(crate) fn pass_end(
        &mut self,
        predicate: &EncodedFactPredicate,
        segment: Range<u64>,
        start: u64,
    ) -> PassEnd {
        let replica = Arc::clone(&self.replica);
        let can_match = |g: usize| {
            predicate.zone_verdict(&replica.row_groups()[g].zones) != ZoneVerdict::Never
                || !self.group_verified(g)
        };
        pass_end(
            can_match,
            replica.group_rows() as u64,
            replica.len() as u64,
            segment,
            start,
        )
    }
}

// ---------------------------------------------------------------------------
// Where a query ends
// ---------------------------------------------------------------------------

/// Where a query's pass over one scan segment ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PassEnd {
    /// At this position, short of the wrap: the query retires the first time
    /// the cursor starts a chunk here.
    At(u64),
    /// At the starting position, one full pass later (§3.3.2).
    Wrap,
    /// Nowhere: no row of the segment can match, so the query retires at
    /// install.
    Nothing,
}

/// Where a pass over `segment` that starts at `start` ends, for a query whose
/// snapshot cannot see rows appended after `segment` was sampled.
///
/// The pass reads `start..segment.end`, then `segment.start..start`. Rows below
/// `frontier` lie in row groups of `group_rows` rows (group `g` starts at
/// `g * group_rows`), and `can_match(g)` says whether group `g` may hold a row
/// the query wants. Rows from `frontier` on are the row-store tail, which
/// always may. The pass ends at the end of the last group (or the tail), in
/// pass order, that may: the walk goes backwards from the end of the pass and
/// calls `can_match` only for the groups it passes over and the one it stops
/// at.
///
/// `start`'s own group counts last when `start` lies inside it, because its
/// rows before `start` are read last; if it is the last group that may match,
/// the end is the ordinary [`PassEnd::Wrap`]. So is a last match that ends at
/// the segment's end when the pass began at the segment's start. A last match
/// that ends at the segment's end otherwise ends the pass at the segment start,
/// where the cursor goes next.
pub(crate) fn pass_end(
    mut can_match: impl FnMut(usize) -> bool,
    group_rows: u64,
    frontier: u64,
    segment: Range<u64>,
    start: u64,
) -> PassEnd {
    if segment.is_empty() {
        return PassEnd::Nothing;
    }
    debug_assert!(segment.contains(&start), "{start} outside {segment:?}");
    // The half read last is walked first.
    for (first, mut end) in [(segment.start, start), (start, segment.end)] {
        while end > first {
            let last = end - 1;
            let (piece, may_match) = if last >= frontier {
                (frontier, true)
            } else {
                let g = last / group_rows;
                (g * group_rows, can_match(g as usize))
            };
            if may_match {
                return if end == start || (end == segment.end && segment.start == start) {
                    PassEnd::Wrap
                } else if end == segment.end {
                    PassEnd::At(segment.start)
                } else {
                    PassEnd::At(end)
                };
            }
            end = piece.max(first);
        }
    }
    PassEnd::Nothing
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjoin_common::splitmix64;
    use cjoin_storage::{Column, CompressionPolicy, Row, SnapshotId, Table};

    fn fact_table(rows: i64) -> Table {
        let schema = Schema::new(
            "lineorder",
            vec![
                Column::int("lo_orderkey"),
                Column::int("lo_orderdate"),
                Column::str("lo_shipmode"),
                Column::int("lo_revenue"),
            ],
        );
        let table = Table::with_rows_per_page(schema, 32);
        table.insert_batch_unchecked(
            (0..rows).map(|i| {
                Row::new(vec![
                    Value::int(i),
                    Value::int(19940101 + i / 50),
                    Value::str(if i % 3 == 0 { "AIR" } else { "TRUCK" }),
                    Value::int(i * 7 % 1000),
                ])
            }),
            SnapshotId::INITIAL,
        );
        table
    }

    fn replica(table: &Table) -> Arc<ColumnarTable> {
        Arc::new(ColumnarTable::from_table(table, CompressionPolicy::Adaptive).unwrap())
    }

    /// Oracle: the compiled predicate must agree with BoundPredicate row by row.
    fn assert_matches_bound(table: &Table, pred: &Predicate) {
        let replica = replica(table);
        let schema = table.schema();
        let bound = pred.bind(schema).expect("predicate binds");
        let compiled =
            EncodedFactPredicate::compile(pred, schema, &replica).expect("predicate compiles");
        let len = replica.len();
        let volume = ScanVolume::new();
        let mut out = vec![false; len];
        compiled.eval_range(&replica, 0, &mut out, &volume);
        for (i, &matched) in out.iter().enumerate() {
            let row = replica.row(i).unwrap();
            assert_eq!(
                matched,
                bound.eval(&row),
                "{pred:?} disagrees at row {i}: {row:?}"
            );
        }
    }

    /// The predicate shapes the tests below evaluate over `fact_table`.
    fn lineorder_shapes() -> Vec<Predicate> {
        vec![
            Predicate::True,
            Predicate::eq("lo_orderdate", 19940103),
            Predicate::eq("lo_shipmode", "AIR"),
            Predicate::eq("lo_shipmode", "RAIL"), // absent from the dictionary
            Predicate::between("lo_orderdate", 19940102, 19940104),
            Predicate::between("lo_revenue", 500, 600),
            Predicate::in_list("lo_orderkey", vec![3i64, 77, 399, 1000]),
            Predicate::in_list("lo_shipmode", vec!["TRUCK", "SHIP"]),
            Predicate::eq("lo_orderdate", 19940103).and(Predicate::eq("lo_shipmode", "AIR")),
            Predicate::Or(vec![
                Predicate::eq("lo_shipmode", "AIR"),
                Predicate::between("lo_revenue", 0, 10),
            ]),
            Predicate::Not(Box::new(Predicate::eq("lo_shipmode", "AIR"))),
            Predicate::Compare {
                column: "lo_shipmode".into(),
                op: CompareOp::Lt,
                value: Value::str("TRUCK"),
            },
            Predicate::Compare {
                column: "lo_shipmode".into(),
                op: CompareOp::Ne,
                value: Value::str("AIR"),
            },
            // Cross-type comparisons follow the derived Value ordering.
            Predicate::Compare {
                column: "lo_revenue".into(),
                op: CompareOp::Lt,
                value: Value::str("zzz"),
            },
            Predicate::Compare {
                column: "lo_shipmode".into(),
                op: CompareOp::Gt,
                value: Value::int(5),
            },
            Predicate::eq("lo_orderkey", Value::Null),
            Predicate::in_list("lo_orderkey", Vec::<i64>::new()),
        ]
    }

    #[test]
    fn compiled_predicates_agree_with_bound_evaluation() {
        let table = fact_table(400);
        for pred in &lineorder_shapes() {
            assert_matches_bound(&table, pred);
        }
    }

    /// `t(a, s)`: every fifth row NULL in both columns.
    fn nullable_table() -> Table {
        let schema = Schema::new("t", vec![Column::int("a"), Column::str("s")]);
        let table = Table::new(schema);
        for i in 0..40 {
            let (a, s) = if i % 5 == 0 {
                (Value::Null, Value::Null)
            } else {
                (
                    Value::int(i),
                    Value::str(if i % 2 == 0 { "x" } else { "y" }),
                )
            };
            table.insert(vec![a, s], SnapshotId::INITIAL).unwrap();
        }
        table
    }

    /// The predicate shapes the tests below evaluate over `nullable_table`.
    fn nullable_shapes() -> Vec<Predicate> {
        vec![
            Predicate::eq("a", 10),
            Predicate::Not(Box::new(Predicate::eq("a", 10))), // matches NULL rows
            Predicate::eq("s", "x"),
            Predicate::Not(Box::new(Predicate::eq("s", "x"))),
            Predicate::between("a", 5, 20),
            Predicate::in_list("s", vec!["y"]),
        ]
    }

    #[test]
    fn compiled_predicates_agree_on_nullable_columns() {
        let table = nullable_table();
        for pred in &nullable_shapes() {
            assert_matches_bound(&table, pred);
        }
    }

    /// Every fact predicate the engine can install compiles, which is why the
    /// scan has no row-at-a-time fallback: each SSB query's — every classic
    /// query and an instance of every workload template, as generated, with a
    /// 90-day `lo_orderdate` window and with flight 1's discount and quantity
    /// ranges — bound against a generated warehouse, and every shape the tests
    /// of this module evaluate.
    #[test]
    fn every_bound_fact_predicate_compiles() {
        use cjoin_ssb::templates::workload_templates;
        use cjoin_ssb::{classic_queries, SsbConfig, SsbDataSet, Workload, WorkloadConfig};

        let data = SsbDataSet::generate(SsbConfig::tiny_for_tests(7));
        let catalog = data.catalog();
        let fact = catalog.fact_table().unwrap();
        let ssb_replica = replica(&fact);
        let mut queries = classic_queries();
        for template in workload_templates() {
            let config = WorkloadConfig::new(1, 0.05, 7).with_template(template.id);
            queries.extend_from_slice(Workload::generate(&data, config).queries());
        }
        let fact_predicates = [
            None,
            Some(Predicate::between("lo_orderdate", 19_940_101, 19_940_331)),
            Some(
                Predicate::between("lo_discount", 1, 3).and(Predicate::Compare {
                    column: "lo_quantity".into(),
                    op: CompareOp::Lt,
                    value: Value::int(25),
                }),
            ),
        ];
        for mut query in queries {
            for predicate in &fact_predicates {
                if let Some(predicate) = predicate {
                    query.fact_predicate = predicate.clone();
                }
                let bound = query.bind(&catalog).unwrap();
                let raw = &bound.fact_predicate_raw;
                assert!(
                    EncodedFactPredicate::compile(raw, fact.schema(), &ssb_replica).is_some(),
                    "{}: {raw:?}",
                    query.name
                );
            }
        }

        for (table, shapes) in [
            (fact_table(400), lineorder_shapes()),
            (nullable_table(), nullable_shapes()),
        ] {
            let shape_replica = replica(&table);
            for pred in &shapes {
                pred.bind(table.schema()).unwrap();
                let compiled = EncodedFactPredicate::compile(pred, table.schema(), &shape_replica);
                assert!(compiled.is_some(), "{pred:?}");
            }
        }
    }

    #[test]
    fn rle_columns_probe_once_per_run() {
        let table = fact_table(500); // lo_orderdate has runs of 50
        let replica = replica(&table);
        let pred = Predicate::eq("lo_orderdate", 19940105);
        let compiled = EncodedFactPredicate::compile(&pred, table.schema(), &replica).unwrap();
        let volume = ScanVolume::new();
        let mut out = vec![false; 500];
        compiled.eval_range(&replica, 0, &mut out, &volume);
        assert_eq!(volume.predicate_rows(), 500);
        assert_eq!(
            volume.predicate_probes(),
            10,
            "10 runs of 50 should cost 10 probes"
        );
        assert_eq!(out.iter().filter(|&&m| m).count(), 50);
    }

    #[test]
    fn zone_verdicts_are_sound_and_useful() {
        let table = fact_table(4096);
        let replica = replica(&table);
        let schema = table.schema();
        let groups = replica.row_groups();
        assert!(groups.len() >= 4);

        // Orderkey is sequential: only one group can contain key 100.
        let pred = Predicate::eq("lo_orderkey", 100);
        let compiled = EncodedFactPredicate::compile(&pred, schema, &replica).unwrap();
        let verdicts: Vec<ZoneVerdict> = groups
            .iter()
            .map(|g| compiled.zone_verdict(&g.zones))
            .collect();
        assert_eq!(verdicts[0], ZoneVerdict::Maybe);
        assert!(verdicts[1..].iter().all(|v| *v == ZoneVerdict::Never));

        // A predicate matching everything is Always everywhere.
        let all = Predicate::Compare {
            column: "lo_orderkey".into(),
            op: CompareOp::Ge,
            value: Value::int(0),
        };
        let compiled = EncodedFactPredicate::compile(&all, schema, &replica).unwrap();
        for g in groups {
            assert_eq!(compiled.zone_verdict(&g.zones), ZoneVerdict::Always);
        }

        // Verdict soundness oracle: Never groups contain no matching row,
        // Always groups contain only matching rows.
        let volume = ScanVolume::new();
        for pred in [
            Predicate::between("lo_orderdate", 19940110, 19940120),
            Predicate::eq("lo_shipmode", "AIR"),
            Predicate::Not(Box::new(Predicate::between("lo_orderkey", 0, 2047))),
        ] {
            let compiled = EncodedFactPredicate::compile(&pred, schema, &replica).unwrap();
            for g in groups {
                let verdict = compiled.zone_verdict(&g.zones);
                let mut out = vec![false; g.len as usize];
                compiled.eval_range(&replica, g.start as usize, &mut out, &volume);
                match verdict {
                    ZoneVerdict::Never => assert!(
                        out.iter().all(|m| !m),
                        "{pred:?}: Never group {} has a match",
                        g.start
                    ),
                    ZoneVerdict::Always => assert!(
                        out.iter().all(|m| *m),
                        "{pred:?}: Always group {} has a non-match",
                        g.start
                    ),
                    ZoneVerdict::Maybe => {}
                }
            }
        }
    }

    /// The oracle of [`pass_end`]: the last row of the pass that may match,
    /// found row by row, rounded up to the end of its group (or of the tail)
    /// in pass order.
    fn pass_end_oracle(
        may_match: &[bool],
        group_rows: u64,
        frontier: u64,
        segment: Range<u64>,
        start: u64,
    ) -> PassEnd {
        let may = |r: u64| r >= frontier || may_match[(r / group_rows) as usize];
        let mut pass = (start..segment.end).chain(segment.start..start);
        let Some(last) = pass.rfind(|&r| may(r)) else {
            return PassEnd::Nothing;
        };
        let piece_end = if last >= frontier {
            u64::MAX
        } else {
            ((last / group_rows + 1) * group_rows).min(frontier)
        };
        let end = piece_end.min(if last < start { start } else { segment.end });
        if end == start || (end == segment.end && segment.start == start) {
            PassEnd::Wrap
        } else if end == segment.end {
            PassEnd::At(segment.start)
        } else {
            PassEnd::At(end)
        }
    }

    /// `pass_end` over `may_match`, checking that the walk only asks about
    /// groups the segment overlaps.
    fn walk(
        may_match: &[bool],
        group_rows: u64,
        frontier: u64,
        segment: Range<u64>,
        start: u64,
    ) -> PassEnd {
        let can_match = |g: usize| {
            let first = g as u64 * group_rows;
            assert!(
                first < segment.end && first + group_rows > segment.start,
                "group {g} lies outside {segment:?}"
            );
            may_match[g]
        };
        pass_end(can_match, group_rows, frontier, segment.clone(), start)
    }

    #[test]
    fn pass_end_matches_the_row_by_row_oracle() {
        use PassEnd::{At, Nothing, Wrap};
        // Groups of 4 rows; 5 groups, the last one short (frontier 18), then a
        // tail up to 22.
        let (rows, frontier) = (4, 18);
        let only = |g: usize| -> [bool; 5] { std::array::from_fn(|i| i == g) };
        let cases = [
            // Only group 1 may match, from the segment start: end of group 1.
            (only(1), 0..18, 0, At(8)),
            // The same from inside group 3: past the end, back to group 1.
            (only(1), 0..18, 13, At(8)),
            // A start inside the only group that may match: the wrap.
            (only(1), 0..18, 6, Wrap),
            // ...but a start at its first row reads it first.
            (only(1), 0..18, 4, At(8)),
            // A last match ending at the segment end: back at the start.
            (only(4), 0..18, 5, At(0)),
            (only(4), 0..18, 0, Wrap),
            // A non-empty tail always may match.
            (only(1), 0..22, 2, At(0)),
            // A start in the tail: its rows before the start are read last.
            (only(2), 0..22, 20, Wrap),
            // A segment inside the replica, its bounds inside groups.
            ([true, false, true, false, false], 6..14, 6, At(12)),
            // All Never, no tail: nothing to read.
            ([false; 5], 0..18, 9, Nothing),
        ];
        for (may, segment, start, expected) in cases {
            let case = format!("{may:?} over {segment:?} from {start}");
            let got = walk(&may, rows, frontier, segment.clone(), start);
            assert_eq!(got, expected, "{case}");
            assert_eq!(
                pass_end_oracle(&may, rows, frontier, segment, start),
                expected,
                "oracle: {case}"
            );
        }
        // An empty segment reads nothing.
        assert_eq!(walk(&[true; 5], rows, frontier, 8..8, 8), Nothing);

        // Seeded random verdicts, replicas and segments whose bounds lie
        // inside the replica, at its ends and in the tail.
        let mut rng = 2909;
        for round in 0..20_000 {
            let group_rows = 1 + splitmix64(&mut rng) % 6;
            let groups = 1 + splitmix64(&mut rng) % 7;
            let frontier = groups * group_rows - splitmix64(&mut rng) % group_rows;
            let len = frontier + [0, 0, 1, 5][(splitmix64(&mut rng) % 4) as usize];
            let density = splitmix64(&mut rng) % 4; // 0: every group Never
            let may: Vec<bool> = (0..groups)
                .map(|_| splitmix64(&mut rng) % 8 < density)
                .collect();
            let bound = |rng: &mut u64| match splitmix64(rng) % 4 {
                0 => 0,
                1 => frontier,
                2 => len,
                _ => splitmix64(rng) % (len + 1),
            };
            let (a, b) = (bound(&mut rng), bound(&mut rng));
            let segment = a.min(b)..a.max(b);
            let start = if segment.is_empty() {
                segment.start
            } else {
                segment.start + splitmix64(&mut rng) % (segment.end - segment.start)
            };
            assert_eq!(
                walk(&may, group_rows, frontier, segment.clone(), start),
                pass_end_oracle(&may, group_rows, frontier, segment.clone(), start),
                "round {round}: {may:?}, {group_rows}-row groups, frontier {frontier}, \
                 segment {segment:?}, start {start}"
            );
        }
    }

    /// Through a real replica: a `Never` group whose checksum fails may match
    /// (its rows come from the row store), and is counted as quarantined.
    #[test]
    fn a_quarantined_group_keeps_the_pass_running() {
        let table = fact_table(4096);
        let build = || {
            ColumnarTable::from_table_with_row_groups(&table, CompressionPolicy::Adaptive, 1024)
                .unwrap()
        };
        let mut replica = build();
        let pred = Predicate::eq("lo_orderkey", 100);
        let compiled = EncodedFactPredicate::compile(&pred, table.schema(), &replica).unwrap();
        let volume = Arc::new(ScanVolume::new());
        let mut clean = ReplicaScan::new(Arc::new(build()), Arc::clone(&volume));
        assert_eq!(clean.pass_end(&compiled, 0..4096, 0), PassEnd::At(1024));
        assert_eq!(clean.pass_end(&compiled, 0..4096, 2048), PassEnd::At(1024));
        assert_eq!(volume.groups_quarantined(), 0);

        assert!(replica.corrupt_group(2));
        let mut scan = ReplicaScan::new(Arc::new(replica), Arc::clone(&volume));
        assert_eq!(scan.pass_end(&compiled, 0..4096, 0), PassEnd::At(3072));
        assert_eq!(volume.groups_quarantined(), 1);
        // Verified once: asking again costs no second verdict.
        assert_eq!(scan.pass_end(&compiled, 0..4096, 0), PassEnd::At(3072));
        assert_eq!(volume.groups_quarantined(), 1);

        // Nor does adopting a replica grown by a sealed group: the shared
        // corrupt group keeps its verdict, and the new group verifies.
        let grown = scan.replica.with_sealed_groups(&fact_table(5120)).unwrap();
        scan.adopt(Arc::new(grown.expect("group 4 is complete")));
        assert_eq!(scan.pass_end(&compiled, 0..5120, 0), PassEnd::At(3072));
        assert!(scan.group_verified(4));
        assert_eq!(volume.groups_quarantined(), 1);
    }
}
