//! Encoded-predicate kernel for the compressed columnar scan front-end (§5,
//! Column Stores / Compressed Tables).
//!
//! When `CjoinConfig::columnar_scan` is on, the Preprocessor's continuous scan
//! runs over a read-optimised [`ColumnarTable`] replica instead of the row
//! store. This module provides the two pieces the Preprocessor composes:
//!
//! * [`EncodedFactPredicate`] — a query's fact predicate compiled, at install
//!   time, into a form evaluable directly over encoded column data: integer
//!   comparisons run on the encoded values (one probe per run on RLE columns),
//!   and string predicates are pre-translated into sets of dictionary *codes*
//!   (the partial-decompression trick), so no string is ever materialised on
//!   the scan path. Each compiled predicate can also be tested against a row
//!   group's [`ZoneMap`]s, yielding a [`ZoneVerdict`] that lets the scan skip
//!   whole groups (`Never`) or skip per-row evaluation (`Always`).
//! * [`ColumnarScanCursor`] — the pipeline-side scan cursor. It mirrors
//!   [`cjoin_storage::ContinuousScan`]'s segment/wrap semantics exactly
//!   (including the hybrid tail: rows appended to the source table after the
//!   replica was built are served from the live row store), so the §3.3
//!   admission and completion protocol is unchanged.
//!
//! ## Why encoded evaluation is exact
//!
//! Compilation mirrors [`cjoin_query::BoundPredicate`]'s evaluation semantics
//! leaf by leaf — including its two-valued NULL handling (a comparison with a
//! NULL operand is `false`, and `Not` is plain negation, so `Not(cmp)` *does*
//! match NULL rows) and the derived cross-type `Value` ordering
//! (`Int < Str < Null` by variant). Cross-type and NULL literals therefore
//! compile to constant nodes ([`matches nothing`](PredNode::Const) or
//! [`matches every non-NULL row`](PredNode::NonNull)) rather than being
//! rejected. Any shape that cannot be translated exactly makes `compile`
//! return `None`, and the Preprocessor falls back to evaluating the stored
//! `BoundPredicate` on fully materialised rows — slower, never wrong.

use std::sync::Arc;

use cjoin_query::{CompareOp, Predicate};
use cjoin_storage::{
    ColumnId, ColumnarTable, Dictionary, EncodedColumn, IntEncoding, ScanVolume, Schema, Table,
    Value, ZoneCodes, ZoneMap,
};

/// What a row group's zone maps prove about a compiled predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneVerdict {
    /// No row in the group can match: the group's bytes need not be touched
    /// for this query.
    Never,
    /// Some rows may match: evaluate per row (or per run).
    Maybe,
    /// Every row in the group matches: the match bitmap fill can be skipped.
    Always,
}

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
    /// `None` if any leaf cannot be translated exactly (the caller falls back
    /// to row-at-a-time `BoundPredicate` evaluation).
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
    /// `replica`, writing one match flag per row into `out` and recording
    /// probe counts into `volume`.
    pub fn eval_range(
        &self,
        replica: &ColumnarTable,
        start: usize,
        out: &mut [bool],
        volume: &ScanVolume,
    ) {
        eval_node(&self.root, replica, start, out, volume);
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
                    let dict = str_dictionary(replica, col)?;
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
                    let dict = str_dictionary(replica, col)?;
                    PredNode::StrIn {
                        col,
                        codes: str_codes_matching(dict, CompareOp::Le, hi),
                    }
                }
                (ColumnType::Str, Value::Str(lo), Value::Str(hi)) => {
                    let dict = str_dictionary(replica, col)?;
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
                    let dict = str_dictionary(replica, col)?;
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

/// The dictionary of a string column of the replica (`None` on a type mismatch,
/// which means the replica disagrees with the schema — fall back).
fn str_dictionary(replica: &ColumnarTable, col: ColumnId) -> Option<&Dictionary> {
    match replica.encoded_column(col) {
        EncodedColumn::Str { codes, .. } => Some(codes.dictionary()),
        EncodedColumn::Int { .. } => None,
    }
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
        PredNode::IntCmp { col, op, value } => {
            let ZoneMap::Int { min, max, has_null } = &zones[*col] else {
                return ZoneVerdict::Maybe;
            };
            let (min, max, v) = (*min, *max, *value);
            if min > max {
                return ZoneVerdict::Never; // all-NULL group: no row matches a comparison
            }
            let (never, always) = match op {
                CompareOp::Eq => (v < min || v > max, min == max && min == v),
                CompareOp::Ne => (min == max && min == v, v < min || v > max),
                CompareOp::Lt => (min >= v, max < v),
                CompareOp::Le => (min > v, max <= v),
                CompareOp::Gt => (max <= v, min > v),
                CompareOp::Ge => (max < v, min >= v),
            };
            if never {
                ZoneVerdict::Never
            } else if always && !has_null {
                ZoneVerdict::Always
            } else {
                ZoneVerdict::Maybe
            }
        }
        PredNode::IntBetween { col, lo, hi } => {
            let ZoneMap::Int { min, max, has_null } = &zones[*col] else {
                return ZoneVerdict::Maybe;
            };
            if min > max || *max < *lo || *min > *hi {
                ZoneVerdict::Never
            } else if !has_null && *min >= *lo && *max <= *hi {
                ZoneVerdict::Always
            } else {
                ZoneVerdict::Maybe
            }
        }
        PredNode::IntIn { col, values } => {
            let ZoneMap::Int { min, max, has_null } = &zones[*col] else {
                return ZoneVerdict::Maybe;
            };
            if min > max {
                return ZoneVerdict::Never;
            }
            // First candidate value >= min; the group may match only if it is <= max.
            let at = values.partition_point(|v| v < min);
            let overlaps = values.get(at).is_some_and(|v| v <= max);
            if !overlaps {
                ZoneVerdict::Never
            } else if !has_null && min == max && values.binary_search(min).is_ok() {
                ZoneVerdict::Always
            } else {
                ZoneVerdict::Maybe
            }
        }
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
    replica: &ColumnarTable,
    col: ColumnId,
    start: usize,
    out: &mut [bool],
    volume: &ScanVolume,
    test: impl Fn(i64) -> bool,
) {
    let len = out.len();
    let EncodedColumn::Int { data, nulls } = replica.encoded_column(col) else {
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
    replica: &ColumnarTable,
    start: usize,
    out: &mut [bool],
    volume: &ScanVolume,
) {
    match node {
        PredNode::Const(b) => out.fill(*b),
        PredNode::NonNull { col } => {
            let nulls = match replica.encoded_column(*col) {
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
            eval_int_leaf(replica, *col, start, out, volume, move |v| {
                cmp_ord(op, v, value)
            });
        }
        PredNode::IntBetween { col, lo, hi } => {
            let (lo, hi) = (*lo, *hi);
            eval_int_leaf(replica, *col, start, out, volume, move |v| {
                v >= lo && v <= hi
            });
        }
        PredNode::IntIn { col, values } => {
            eval_int_leaf(replica, *col, start, out, volume, |v| {
                values.binary_search(&v).is_ok()
            });
        }
        PredNode::StrIn { col, codes } => {
            let len = out.len();
            let EncodedColumn::Str {
                codes: column,
                nulls,
            } = replica.encoded_column(*col)
            else {
                out.fill(false);
                return;
            };
            for (i, o) in out.iter_mut().enumerate() {
                let row = start + i;
                let null = nulls.is_some_and(|ns| ns[row]);
                *o = !null
                    && codes
                        .binary_search(&column.code(row).expect("row in range"))
                        .is_ok();
            }
            volume.record_predicate(len as u64, len as u64);
        }
        PredNode::And(ps) => {
            if ps.is_empty() {
                out.fill(true);
                return;
            }
            eval_node(&ps[0], replica, start, out, volume);
            if ps.len() > 1 {
                let mut scratch = vec![false; out.len()];
                for p in &ps[1..] {
                    eval_node(p, replica, start, &mut scratch, volume);
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
            eval_node(&ps[0], replica, start, out, volume);
            if ps.len() > 1 {
                let mut scratch = vec![false; out.len()];
                for p in &ps[1..] {
                    eval_node(p, replica, start, &mut scratch, volume);
                    for (o, &s) in out.iter_mut().zip(&scratch) {
                        *o |= s;
                    }
                }
            }
        }
        PredNode::Not(p) => {
            eval_node(p, replica, start, out, volume);
            for o in out.iter_mut() {
                *o = !*o;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The pipeline-side columnar scan cursor
// ---------------------------------------------------------------------------

/// The columnar scan cursor the Preprocessor drives when
/// `CjoinConfig::columnar_scan` is on.
///
/// Mirrors [`cjoin_storage::ContinuousScan`]'s position/segment/wrap semantics
/// over the *live* source table length, so the §3.3 lifecycle (admission at
/// batch boundaries, wrap-around completion, segment partitioning) is
/// identical to the row-store path. Rows `< replica.len()` are served from the
/// encoded replica; rows appended after the replica was built (the hybrid
/// tail) are read from the row store with their live visibility metadata.
#[derive(Debug)]
pub struct ColumnarScanCursor {
    /// The encoded replica (prefix of the live table, frozen at build time).
    pub(crate) replica: Arc<ColumnarTable>,
    /// The live source table (authoritative length + hybrid tail rows).
    pub(crate) table: Arc<Table>,
    /// Scan-volume accounting shared with the engine's stats.
    pub(crate) volume: Arc<ScanVolume>,
    /// Next row position the scan will produce.
    pub(crate) position: u64,
    /// First row of this cursor's segment.
    pub(crate) segment_start: u64,
    /// One past the last row of the segment; `None` = runs to the live end.
    pub(crate) segment_end: Option<u64>,
    /// Completed passes over the segment.
    pub(crate) passes: u64,
    /// Average encoded bytes per row of each column (for volume accounting).
    pub(crate) col_bytes_per_row: Vec<u64>,
    /// Per-row-group checksum verdicts, lazily filled on first touch
    /// ([`GROUP_UNVERIFIED`] / [`GROUP_VERIFIED`] / [`GROUP_QUARANTINED`]).
    pub(crate) group_state: Vec<u8>,
}

/// The cursor has not yet touched this row group.
pub(crate) const GROUP_UNVERIFIED: u8 = 0;
/// The group's checksum verified; its encoded columns and zone maps are trusted.
pub(crate) const GROUP_VERIFIED: u8 = 1;
/// The group failed verification; its rows are served from the row store.
pub(crate) const GROUP_QUARANTINED: u8 = 2;

impl ColumnarScanCursor {
    /// Creates a whole-table cursor.
    pub fn new(replica: Arc<ColumnarTable>, table: Arc<Table>, volume: Arc<ScanVolume>) -> Self {
        let arity = replica.schema().arity();
        let rows = replica.len().max(1) as u64;
        let col_bytes_per_row = (0..arity)
            .map(|c| replica.column_encoded_bytes(c).div_ceil(rows).max(1))
            .collect();
        let group_state = vec![GROUP_UNVERIFIED; replica.row_groups().len()];
        Self {
            replica,
            table,
            volume,
            position: 0,
            segment_start: 0,
            segment_end: None,
            passes: 0,
            col_bytes_per_row,
            group_state,
        }
    }

    /// Restricts the cursor to `[start, end)` (`end = None` runs to the live
    /// table end), the same contract as [`cjoin_storage::ContinuousScan::with_segment`].
    pub fn with_segment(mut self, start: u64, end: Option<u64>) -> Self {
        self.segment_start = start;
        self.segment_end = end;
        self.position = start;
        self
    }

    /// Current segment bounds clamped to the live table length.
    pub(crate) fn current_bounds(&self) -> (u64, u64) {
        let len = self.table.len() as u64;
        let end = self.segment_end.unwrap_or(len).min(len);
        (self.segment_start.min(end), end)
    }

    /// The position folded into the segment (matches
    /// [`cjoin_storage::ContinuousScan::normalized_position`]): a cursor past
    /// the end — or before the start — reports the segment start, because that
    /// is where the next batch will begin.
    pub fn normalized_position(&self) -> u64 {
        let (start, end) = self.current_bounds();
        if self.position >= end || self.position < start {
            start
        } else {
            self.position
        }
    }

    /// Completed passes over the segment.
    pub fn passes(&self) -> u64 {
        self.passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjoin_storage::{Column, CompressionPolicy, Row, SnapshotId};

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

    #[test]
    fn compiled_predicates_agree_with_bound_evaluation() {
        let table = fact_table(400);
        let preds = vec![
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
        ];
        for pred in &preds {
            assert_matches_bound(&table, pred);
        }
    }

    #[test]
    fn compiled_predicates_agree_on_nullable_columns() {
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
        for pred in [
            Predicate::eq("a", 10),
            Predicate::Not(Box::new(Predicate::eq("a", 10))), // matches NULL rows
            Predicate::eq("s", "x"),
            Predicate::Not(Box::new(Predicate::eq("s", "x"))),
            Predicate::between("a", 5, 20),
            Predicate::in_list("s", vec!["y"]),
        ] {
            assert_matches_bound(&table, &pred);
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

    #[test]
    fn cursor_mirrors_row_scan_segment_semantics() {
        let table = Arc::new(fact_table(100));
        let rep = replica(&table);
        let volume = Arc::new(ScanVolume::new());
        let cursor = ColumnarScanCursor::new(Arc::clone(&rep), Arc::clone(&table), volume)
            .with_segment(32, Some(64));
        assert_eq!(cursor.normalized_position(), 32);
        assert_eq!(cursor.current_bounds(), (32, 64));
        let mut past = cursor;
        past.position = 64;
        assert_eq!(past.normalized_position(), 32);
        assert_eq!(past.passes(), 0);
    }
}
