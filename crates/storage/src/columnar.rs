//! Columnar storage of a table, with optional per-column compression.
//!
//! §5 of the paper ("Column Stores") points out that CJOIN adapts naturally to a
//! columnar warehouse: the continuous fact-table scan becomes a continuous scan/merge
//! of *only those columns that the current query mix accesses*, which reduces the
//! volume of data the shared scan moves. This module provides that substrate:
//!
//! * [`ColumnarTable`] — a column-oriented, read-optimised copy of a [`Table`]
//!   snapshot: a list of fixed-size [`RowGroup`]s plus one append-only
//!   [`Dictionary`] per string column. Each group stores its string columns as
//!   codes into those dictionaries and picks, per integer column, the smallest of
//!   plain / RLE / bit-packed / delta encoding (see [`CompressionPolicy`]); it
//!   carries a [`ZoneMap`] per column (min/max for int columns, a distinct-code
//!   summary for dictionary columns) so a scan can prove "no row in this group can
//!   match any active predicate" without touching the group's bytes.
//! * [`ColumnarContinuousScan`] — the circular scan over a columnar table. It has the
//!   same wrap-around semantics as [`crate::ContinuousScan`] (stable row order,
//!   batches never cross the wrap point) but materialises only a projected subset of
//!   the columns; the untouched columns are returned as NULL and their bytes are never
//!   read.
//! * [`ScanVolume`] — accounting of the bytes each scan actually touched (total and
//!   per column), rows skipped via zone maps, and per-run predicate probes, so the
//!   experiment harness can compare row-store and column-store scan volume.
//!
//! # Correctness of encoded-predicate evaluation and late materialization
//!
//! The in-pipeline columnar scan (the `colscan` kernel in the engine crate) evaluates
//! predicates over this encoded data and materialises only a projection. Its
//! correctness rests on invariants this module guarantees:
//!
//! * **Encodings are lossless.** Every [`IntEncoding`] decodes to exactly the value
//!   sequence of the source column ([`ColumnarTable::value`] and the encoded
//!   accessors agree by construction), so evaluating a predicate on encoded values —
//!   including once-per-run over RLE data — is evaluating it on the true values.
//! * **Dictionary codes are injective and stable.** Two rows have equal string values
//!   iff they have equal codes, so any string predicate can be pre-translated at query
//!   install into a set of matching codes; comparing codes row-by-row (or consulting
//!   the zone's code summary) is then exact, never approximate. A dictionary only
//!   ever appends, so a code keeps its string in every later replica.
//! * **Zone maps over-approximate.** A [`ZoneMap`] covers every *stored* (even
//!   deleted) row of its group and NULLs are tracked separately (`has_null`), so a
//!   "no possible match" verdict is conservative: skipping the group can never drop a
//!   row any active query would have kept. [`ZoneCodes::Bloom`] only ever produces
//!   false *positives* (a group scanned needlessly), never false negatives.
//! * **Row positions are stable.** Row `i` of the replica is row id `i` of the source
//!   table prefix, so partially materialised rows ([`ColumnarTable::project_row`])
//!   keep bound column indices and join keys valid; unprojected columns read as NULL
//!   and are never consulted downstream (the projection is the union of all admitted
//!   queries' join/group-by/aggregate columns, maintained on admission/completion).
//!
//! The columnar table is a *read-optimised replica* of an append-only table, as a
//! column-store warehouse keeps one beside a write-optimised store. It grows by
//! whole groups (group `g` covers rows `[g·G, (g+1)·G)`): once a group's rows are
//! all appended, [`ColumnarTable::with_sealed_groups`] encodes it into a replica
//! that shares every older group by `Arc`. Rows past the last group are served
//! from the row store by the hybrid scan path. A group captures its rows'
//! versions when it is encoded; later *deletes* are **not** reflected in it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cjoin_common::{Error, Result};

use crate::compress::{BitPackedVec, DeltaVec, Dictionary, RleVec};
use crate::row::{Row, RowId};
use crate::scan::ScanBatch;
use crate::schema::{ColumnId, ColumnType, Schema};
use crate::snapshot::RowVersion;
use crate::table::Table;
use crate::value::Value;

/// How aggressively [`ColumnarTable::from_table`] compresses each column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressionPolicy {
    /// Store integer columns as plain vectors and string columns dictionary-encoded
    /// (dictionary encoding is always a win for the `Arc<str>`-based row model).
    #[default]
    Plain,
    /// Additionally encode each NULL-free integer column of a group with whichever
    /// of plain, run-length, bit-packed, or delta encoding is smallest (ties keep
    /// plain).
    Adaptive,
}

/// One column of a [`RowGroup`].
#[derive(Debug, Clone)]
enum ColumnData {
    /// Plain integer column with an optional null bitmap (allocated only when the
    /// column actually contains NULLs).
    IntPlain {
        values: Vec<i64>,
        nulls: Option<Vec<bool>>,
    },
    /// Run-length encoded integer column (only used when the column has no NULLs).
    IntRle(RleVec),
    /// Frame-of-reference bit-packed integer column (no NULLs).
    IntPacked(BitPackedVec),
    /// Block-wise delta-encoded integer column (no NULLs).
    IntDelta(DeltaVec),
    /// String column: codes into the table's dictionary for the column, with an
    /// optional null bitmap.
    Str {
        codes: Vec<u32>,
        nulls: Option<Vec<bool>>,
    },
}

/// FNV-1a over the decoded values of a group's rows, row-major across all
/// columns. Decoding through [`ColumnData::value`] (rather than hashing the
/// encoded bytes) means a corrupted run length, dictionary code or packed frame
/// changes the checksum exactly when it changes what a scan would observe.
fn group_checksum(columns: &[ColumnData], dictionaries: &[Dictionary], len: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for row in 0..len {
        for (column, dictionary) in columns.iter().zip(dictionaries) {
            hash = fold_value(&column.value(row, dictionary), hash);
        }
    }
    hash
}

/// Folds `value` into an FNV-1a state with a type tag, so `Int(0)`, `Null` and
/// `Str("")` hash differently.
fn fold_value(value: &Value, mut hash: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut feed = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    };
    match value {
        Value::Null => feed(0),
        Value::Int(v) => {
            feed(1);
            for b in v.to_le_bytes() {
                feed(b);
            }
        }
        Value::Str(s) => {
            feed(2);
            for b in s.as_bytes() {
                feed(*b);
            }
            feed(0xff);
        }
    }
    hash
}

fn is_null(nulls: &Option<Vec<bool>>, row: usize) -> bool {
    nulls
        .as_ref()
        .is_some_and(|n| n.get(row).copied().unwrap_or(false))
}

fn null_bitmap_bytes(nulls: &Option<Vec<bool>>) -> u64 {
    nulls.as_ref().map_or(0, |n| n.len() as u64 / 8)
}

impl ColumnData {
    /// The value at `row` of the group; `dictionary` is the table's dictionary
    /// for the column (empty, and unused, for an integer column).
    fn value(&self, row: usize, dictionary: &Dictionary) -> Value {
        match self {
            ColumnData::IntPlain { values, nulls } => {
                if is_null(nulls, row) {
                    Value::Null
                } else {
                    Value::Int(values[row])
                }
            }
            ColumnData::IntRle(v) => v.get(row).map_or(Value::Null, Value::Int),
            ColumnData::IntPacked(v) => v.get(row).map_or(Value::Null, Value::Int),
            ColumnData::IntDelta(v) => v.get(row).map_or(Value::Null, Value::Int),
            ColumnData::Str { codes, nulls } => {
                if is_null(nulls, row) {
                    Value::Null
                } else {
                    dictionary
                        .value_of(codes[row])
                        .map_or(Value::Null, |s| Value::Str(Arc::clone(s)))
                }
            }
        }
    }

    /// Approximate heap footprint of the encoded column (a string column's
    /// dictionary is the table's, and is counted there).
    fn encoded_bytes(&self) -> u64 {
        match self {
            ColumnData::IntPlain { values, nulls } => {
                (values.len() * std::mem::size_of::<i64>()) as u64 + null_bitmap_bytes(nulls)
            }
            ColumnData::IntRle(v) => v.encoded_bytes(),
            ColumnData::IntPacked(v) => v.encoded_bytes(),
            ColumnData::IntDelta(v) => v.encoded_bytes(),
            ColumnData::Str { codes, nulls } => {
                (codes.len() * std::mem::size_of::<u32>()) as u64 + null_bitmap_bytes(nulls)
            }
        }
    }

    /// Heap footprint of the same data in the row-store representation.
    fn plain_bytes(&self, dictionary: &Dictionary) -> u64 {
        match self {
            ColumnData::IntPlain { values, .. } => {
                (values.len() * std::mem::size_of::<i64>()) as u64
            }
            ColumnData::IntRle(v) => v.plain_bytes(),
            ColumnData::IntPacked(v) => v.plain_bytes(),
            ColumnData::IntDelta(v) => v.plain_bytes(),
            ColumnData::Str { codes, .. } => codes
                .iter()
                .map(|&c| {
                    dictionary
                        .value_of(c)
                        .map_or(0, |s| (s.len() + std::mem::size_of::<String>()) as u64)
                })
                .sum(),
        }
    }
}

/// Default number of rows per [`RowGroup`].
pub const DEFAULT_ROW_GROUP_ROWS: usize = 1024;

/// Maximum distinct codes a [`ZoneCodes::Exact`] summary tracks before degrading
/// to a [`ZoneCodes::Bloom`] mask.
const ZONE_EXACT_CODES: usize = 16;

/// Summary of the distinct dictionary codes appearing in one row group of a
/// string column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneCodes {
    /// Every distinct code in the group, sorted (low-cardinality groups).
    Exact(Vec<u32>),
    /// A 64-bit Bloom-style mask: bit `code % 64` is set for every code present.
    /// May report false positives (group scanned needlessly), never false
    /// negatives.
    Bloom(u64),
}

impl ZoneCodes {
    /// Whether the group may contain a row with this code.
    pub fn may_contain(&self, code: u32) -> bool {
        match self {
            ZoneCodes::Exact(codes) => codes.binary_search(&code).is_ok(),
            ZoneCodes::Bloom(mask) => mask & (1u64 << (code % 64)) != 0,
        }
    }

    /// The exact sorted code set, when the summary kept one.
    pub fn exact(&self) -> Option<&[u32]> {
        match self {
            ZoneCodes::Exact(codes) => Some(codes),
            ZoneCodes::Bloom(_) => None,
        }
    }
}

/// Per-column summary of one row group, used to skip groups no predicate can match.
///
/// NULL rows are excluded from the min/max and code summaries and tracked via
/// `has_null` instead; a group whose non-null rows are empty carries the inverted
/// sentinel `min = i64::MAX, max = i64::MIN` (every range test on it is "never").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneMap {
    /// Integer column: min/max over the group's non-null values.
    Int {
        /// Smallest non-null value in the group (`i64::MAX` when all-NULL).
        min: i64,
        /// Largest non-null value in the group (`i64::MIN` when all-NULL).
        max: i64,
        /// Whether the group contains any NULL.
        has_null: bool,
    },
    /// String column: summary of the distinct dictionary codes present.
    Str {
        /// The code summary over the group's non-null values.
        codes: ZoneCodes,
        /// Whether the group contains any NULL.
        has_null: bool,
    },
}

/// A fixed-size horizontal slice of a [`ColumnarTable`], encoded once and
/// shared by `Arc` with every replica grown from the one that encoded it. It
/// owns its rows' integer encodings, dictionary codes (offsets relative to
/// `start`), versions, zone maps and checksum.
#[derive(Debug, Clone)]
pub struct RowGroup {
    /// First row position covered by the group.
    pub start: u64,
    /// Number of rows in the group (only the last group may be short).
    pub len: u64,
    /// One [`ZoneMap`] per column, in schema order.
    pub zones: Vec<ZoneMap>,
    /// Whether every stored row in the group is visible at every snapshot, in
    /// which case the scan can skip per-row visibility checks.
    pub all_always_visible: bool,
    /// FNV-1a checksum over the group's decoded values (all columns, row-major),
    /// computed when the group was encoded. [`ColumnarTable::verify_group`]
    /// recomputes it so a scan can detect a corrupted group before trusting its
    /// zone maps, and fall back to the row store for just that group.
    pub checksum: u64,
    columns: Vec<ColumnData>,
    versions: Vec<RowVersion>,
}

/// A borrowed view of one integer column's encoded representation.
#[derive(Debug, Clone, Copy)]
pub enum IntEncoding<'a> {
    /// Plain values.
    Plain(&'a [i64]),
    /// Run-length encoded.
    Rle(&'a RleVec),
    /// Frame-of-reference bit-packed.
    Packed(&'a BitPackedVec),
    /// Block-wise delta encoded.
    Delta(&'a DeltaVec),
}

impl IntEncoding<'_> {
    /// The value at `row` (`None` past the end). All encodings are lossless, so
    /// this agrees with [`ColumnarTable::value`] on non-null rows.
    pub fn get(&self, row: usize) -> Option<i64> {
        match self {
            IntEncoding::Plain(values) => values.get(row).copied(),
            IntEncoding::Rle(v) => v.get(row),
            IntEncoding::Packed(v) => v.get(row),
            IntEncoding::Delta(v) => v.get(row),
        }
    }

    /// Appends the values of rows `start..start + len` to `out`, element for
    /// element what [`IntEncoding::get`] returns, through each encoding's
    /// sequential range kernel.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the column.
    pub fn decode_range(&self, start: usize, len: usize, out: &mut Vec<i64>) {
        match self {
            IntEncoding::Plain(values) => out.extend_from_slice(&values[start..start + len]),
            IntEncoding::Rle(v) => v.decode_range(start, len, out),
            IntEncoding::Packed(v) => v.decode_range(start, len, out),
            IntEncoding::Delta(v) => v.decode_range(start, len, out),
        }
    }

    /// Appends the values of rows `start + o`, for each `o` of the selection
    /// vector `offsets` (non-decreasing), to `out` — the bulk form of
    /// [`IntEncoding::get`] a scan uses to read one column for the rows that
    /// survived its predicates.
    ///
    /// # Panics
    /// Panics if a selected row is past the end of the column.
    pub fn gather(&self, start: usize, offsets: &[u32], out: &mut Vec<i64>) {
        match self {
            IntEncoding::Plain(values) => {
                out.extend(offsets.iter().map(|&o| values[start + o as usize]));
            }
            IntEncoding::Rle(v) => v.gather(start, offsets, out),
            IntEncoding::Packed(v) => v.gather(start, offsets, out),
            IntEncoding::Delta(v) => v.gather(start, offsets, out),
        }
    }
}

/// A borrowed view of one column of a [`RowGroup`] in its encoded form, for
/// scan kernels that evaluate predicates without materialising [`Value`]s.
/// Row `i` of the view is row `start + i` of the table.
#[derive(Debug, Clone, Copy)]
pub enum EncodedColumn<'a> {
    /// Integer column: encoded values plus an optional null bitmap.
    Int {
        /// The encoded values (NULL positions hold 0 in the encoding).
        data: IntEncoding<'a>,
        /// Per-row null flags, when the column contains NULLs.
        nulls: Option<&'a [bool]>,
    },
    /// String column: dictionary codes plus an optional null bitmap.
    Str {
        /// One code per row into [`ColumnarTable::dictionary`] (NULL positions
        /// hold the code of `""`).
        codes: &'a [u32],
        /// Per-row null flags, when the column contains NULLs.
        nulls: Option<&'a [bool]>,
    },
}

/// The zone summary of a string column's non-null codes.
fn code_summary(mut distinct: Vec<u32>) -> ZoneCodes {
    distinct.sort_unstable();
    distinct.dedup();
    let mask = distinct
        .iter()
        .fold(0, |mask, code| mask | 1 << (code % 64));
    if distinct.len() <= ZONE_EXACT_CODES {
        ZoneCodes::Exact(distinct)
    } else {
        ZoneCodes::Bloom(mask)
    }
}

impl RowGroup {
    /// A borrowed view of `column`'s encoded representation in this group.
    ///
    /// # Panics
    /// Panics if `column` is out of range for the schema.
    pub fn encoded_column(&self, column: ColumnId) -> EncodedColumn<'_> {
        match &self.columns[column] {
            ColumnData::IntPlain { values, nulls } => EncodedColumn::Int {
                data: IntEncoding::Plain(values),
                nulls: nulls.as_deref(),
            },
            ColumnData::IntRle(v) => EncodedColumn::Int {
                data: IntEncoding::Rle(v),
                nulls: None,
            },
            ColumnData::IntPacked(v) => EncodedColumn::Int {
                data: IntEncoding::Packed(v),
                nulls: None,
            },
            ColumnData::IntDelta(v) => EncodedColumn::Int {
                data: IntEncoding::Delta(v),
                nulls: None,
            },
            ColumnData::Str { codes, nulls } => EncodedColumn::Str {
                codes,
                nulls: nulls.as_deref(),
            },
        }
    }

    /// Visibility metadata of row `start + offset`, as it was when encoded.
    pub fn version(&self, offset: usize) -> Option<RowVersion> {
        self.versions.get(offset).copied()
    }
}

/// Picks the smallest of plain / RLE / bit-packed / delta for a NULL-free
/// integer column (ties keep the simpler plain representation).
fn best_int_encoding(values: Vec<i64>) -> ColumnData {
    let plain_bytes = (values.len() * std::mem::size_of::<i64>()) as u64;
    let rle = RleVec::from_slice(&values);
    let packed = BitPackedVec::from_slice(&values);
    let delta = DeltaVec::from_slice(&values);
    let best = [
        rle.encoded_bytes(),
        packed.encoded_bytes(),
        delta.encoded_bytes(),
    ]
    .into_iter()
    .min()
    .unwrap_or(u64::MAX);
    if best >= plain_bytes {
        ColumnData::IntPlain {
            values,
            nulls: None,
        }
    } else if rle.encoded_bytes() == best {
        ColumnData::IntRle(rle)
    } else if packed.encoded_bytes() == best {
        ColumnData::IntPacked(packed)
    } else {
        ColumnData::IntDelta(delta)
    }
}

/// A read-optimised, column-oriented copy of a table: its row groups, in
/// position order, and one append-only dictionary per string column.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    schema: Schema,
    policy: CompressionPolicy,
    group_rows: usize,
    /// One dictionary per column, empty for an integer column. Shared with the
    /// replica this one grew from until a new string is interned.
    dictionaries: Arc<Vec<Dictionary>>,
    groups: Vec<Arc<RowGroup>>,
}

impl ColumnarTable {
    /// Builds a columnar replica of `table` with [`DEFAULT_ROW_GROUP_ROWS`]-row
    /// groups, capturing every stored row version.
    ///
    /// # Errors
    /// Returns a type-mismatch error if a stored row does not match the schema (which
    /// indicates a corrupted source table).
    pub fn from_table(table: &Table, policy: CompressionPolicy) -> Result<Self> {
        Self::from_table_with_row_groups(table, policy, DEFAULT_ROW_GROUP_ROWS)
    }

    /// Builds a columnar replica of `table` split into `group_rows`-row groups
    /// (the last one holds what is left, and may be short) with per-group zone
    /// maps.
    ///
    /// # Errors
    /// Returns a type-mismatch error if a stored row does not match the schema.
    ///
    /// # Panics
    /// Panics if `group_rows` is zero.
    pub fn from_table_with_row_groups(
        table: &Table,
        policy: CompressionPolicy,
        group_rows: usize,
    ) -> Result<Self> {
        assert!(group_rows > 0, "group_rows must be positive");
        let schema = table.schema().clone();
        let mut replica = Self {
            dictionaries: Arc::new(vec![Dictionary::new(); schema.arity()]),
            schema,
            policy,
            group_rows,
            groups: Vec::new(),
        };
        replica.encode_through(table, table.len())?;
        Ok(replica)
    }

    /// This replica grown by every row group `table` — the append-only table it
    /// was built from — has completed since, or `None` if there is none. Only
    /// the new groups are encoded (a short last group again, once full); the
    /// others are shared by `Arc`. The result stops fewer than
    /// [`ColumnarTable::group_rows`] rows short of `table`.
    ///
    /// # Errors
    /// Returns a type-mismatch error if a stored row does not match the schema.
    pub fn with_sealed_groups(&self, table: &Table) -> Result<Option<Self>> {
        let end = table.len() / self.group_rows * self.group_rows;
        if end <= self.len() {
            return Ok(None);
        }
        let mut grown = self.clone();
        grown.encode_through(table, end)?;
        Ok(Some(grown))
    }

    /// Encodes `table`'s rows from the end of the last full group up to `end`
    /// into groups of `group_rows` rows (the last one may be short), replacing
    /// a short last group.
    fn encode_through(&mut self, table: &Table, end: usize) -> Result<()> {
        self.groups.pop_if(|g| g.len < self.group_rows as u64);
        let mut rows = Vec::with_capacity(self.group_rows);
        while self.len() < end {
            let start = self.len();
            rows.clear();
            if table.read_range(start as u64, self.group_rows.min(end - start), &mut rows) == 0 {
                break;
            }
            let group = self.encode_group(start, &rows)?;
            self.groups.push(Arc::new(group));
        }
        Ok(())
    }

    /// Encodes `rows` — every stored version of rows `start..start + rows.len()`,
    /// in position order — as one group, interning new strings into the
    /// dictionaries (cloned first if another replica still shares them).
    fn encode_group(
        &mut self,
        start: usize,
        rows: &[(RowId, Row, RowVersion)],
    ) -> Result<RowGroup> {
        let (schema, dictionaries) = (&self.schema, &mut self.dictionaries);
        let len = rows.len();
        let mut columns = Vec::with_capacity(schema.arity());
        let mut zones = Vec::with_capacity(schema.arity());
        for (c, column) in schema.columns().iter().enumerate() {
            let mismatch = |found: &Value| {
                Error::type_mismatch(format!(
                    "column {} of table {}: expected {:?}, found {found:?}",
                    column.name, schema.table, column.ty
                ))
            };
            let mut nulls = None;
            match column.ty {
                ColumnType::Int => {
                    let (mut min, mut max) = (i64::MAX, i64::MIN);
                    let mut values = Vec::with_capacity(len);
                    for (i, (_, row, _)) in rows.iter().enumerate() {
                        match row.get(c) {
                            Value::Int(v) => {
                                (min, max) = (min.min(*v), max.max(*v));
                                values.push(*v);
                            }
                            Value::Null => {
                                nulls.get_or_insert_with(|| vec![false; len])[i] = true;
                                values.push(0);
                            }
                            other => return Err(mismatch(other)),
                        }
                    }
                    zones.push(ZoneMap::Int {
                        min,
                        max,
                        has_null: nulls.is_some(),
                    });
                    columns.push(
                        if self.policy == CompressionPolicy::Adaptive && nulls.is_none() {
                            best_int_encoding(values)
                        } else {
                            ColumnData::IntPlain { values, nulls }
                        },
                    );
                }
                ColumnType::Str => {
                    let mut code_of = |s: &str| match dictionaries[c].code_of(s) {
                        Some(code) => code,
                        None => Arc::make_mut(dictionaries)[c].intern(s),
                    };
                    let (mut codes, mut distinct) = (Vec::with_capacity(len), Vec::new());
                    for (i, (_, row, _)) in rows.iter().enumerate() {
                        match row.get(c) {
                            Value::Str(s) => {
                                let code = code_of(s);
                                distinct.push(code);
                                codes.push(code);
                            }
                            Value::Null => {
                                nulls.get_or_insert_with(|| vec![false; len])[i] = true;
                                codes.push(code_of(""));
                            }
                            other => return Err(mismatch(other)),
                        }
                    }
                    zones.push(ZoneMap::Str {
                        codes: code_summary(distinct),
                        has_null: nulls.is_some(),
                    });
                    columns.push(ColumnData::Str { codes, nulls });
                }
            }
        }
        let versions: Vec<RowVersion> = rows.iter().map(|(_, _, v)| *v).collect();
        Ok(RowGroup {
            start: start as u64,
            len: len as u64,
            zones,
            all_always_visible: versions.iter().all(|v| *v == RowVersion::ALWAYS_VISIBLE),
            checksum: group_checksum(&columns, dictionaries, len),
            columns,
            versions,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.schema.table
    }

    /// The compression policy the table was built with.
    pub fn policy(&self) -> CompressionPolicy {
        self.policy
    }

    /// Number of stored rows (all versions).
    pub fn len(&self) -> usize {
        self.groups.last().map_or(0, |g| (g.start + g.len) as usize)
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The group holding row position `row`, and the row's offset in it.
    fn locate(&self, row: usize) -> Option<(&RowGroup, usize)> {
        let group = self.groups.get(self.group_of(row as u64))?;
        let offset = row - group.start as usize;
        (offset < group.len as usize).then_some((group, offset))
    }

    /// Returns the value of `column` at `row`, or `None` when the row is out of range.
    ///
    /// # Panics
    /// Panics if `column` is out of range for the schema.
    pub fn value(&self, row: usize, column: ColumnId) -> Option<Value> {
        let (group, offset) = self.locate(row)?;
        Some(group.columns[column].value(offset, &self.dictionaries[column]))
    }

    /// Materialises the full-width row at `row`, or `None` when out of range.
    pub fn row(&self, row: usize) -> Option<Row> {
        let (group, offset) = self.locate(row)?;
        // Collected straight into the row's `Arc<[Value]>`: the range's exact
        // length makes it one allocation, with no intermediate `Vec` to copy.
        Some(
            (group.columns.iter().zip(self.dictionaries.iter()))
                .map(|(column, dictionary)| column.value(offset, dictionary))
                .collect(),
        )
    }

    /// Visibility metadata of the row at `row`.
    pub fn version(&self, row: usize) -> Option<RowVersion> {
        let (group, offset) = self.locate(row)?;
        group.version(offset)
    }

    /// The row groups the table is split into, in position order.
    pub fn row_groups(&self) -> &[Arc<RowGroup>] {
        &self.groups
    }

    /// Rows per group (the last group may be shorter).
    pub fn group_rows(&self) -> usize {
        self.group_rows
    }

    /// Index of the row group containing row position `row`.
    pub fn group_of(&self, row: u64) -> usize {
        (row / self.group_rows as u64) as usize
    }

    /// The dictionary of a string column (`None` for an integer column).
    pub fn dictionary(&self, column: ColumnId) -> Option<&Dictionary> {
        (self.schema.columns()[column].ty == ColumnType::Str).then(|| &self.dictionaries[column])
    }

    /// Recomputes group `g`'s checksum over the decoded values and compares it
    /// with the checksum stored when it was encoded. `false` means the group's
    /// encoded data (or its stored checksum) was corrupted since and its zone
    /// maps must not be trusted — neither to skip the group nor to end a scan
    /// before it — so callers should serve the group from the row store
    /// instead. Out-of-range groups verify trivially.
    pub fn verify_group(&self, g: usize) -> bool {
        self.groups.get(g).is_none_or(|group| {
            group_checksum(&group.columns, &self.dictionaries, group.len as usize) == group.checksum
        })
    }

    /// Test hook: corrupts group `g` so [`ColumnarTable::verify_group`] fails
    /// for it (a copy of the group, if another replica shares it). Flips a
    /// stored value when the group has a plain-encoded integer column, otherwise
    /// flips the stored checksum. Returns `false` when `g` is out of range or
    /// empty.
    #[doc(hidden)]
    pub fn corrupt_group(&mut self, g: usize) -> bool {
        let Some(group) = self.groups.get_mut(g).filter(|group| group.len > 0) else {
            return false;
        };
        let group = Arc::make_mut(group);
        for column in &mut group.columns {
            if let ColumnData::IntPlain { values, .. } = column {
                values[0] ^= 0x55aa;
                return true;
            }
        }
        group.checksum ^= 0x55aa;
        true
    }

    /// Materialises a row with only the projected columns populated; all other
    /// columns are NULL. Column positions are preserved so bound column indices keep
    /// working.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn project_row(&self, row: usize, projection: &[ColumnId]) -> Row {
        let (group, offset) = self.locate(row).expect("row in range");
        // One allocation: the all-NULL row is built in its final `Arc<[Value]>`
        // and the projected columns are written in place while it is unshared.
        let mut values: Arc<[Value]> = (0..self.schema.arity()).map(|_| Value::Null).collect();
        let slots = Arc::get_mut(&mut values).expect("a freshly built Arc is unshared");
        for &c in projection {
            slots[c] = group.columns[c].value(offset, &self.dictionaries[c]);
        }
        Row::from(values)
    }

    /// Approximate encoded heap footprint of one column, in bytes.
    pub fn column_encoded_bytes(&self, column: ColumnId) -> u64 {
        let groups: u64 = self
            .groups
            .iter()
            .map(|g| g.columns[column].encoded_bytes())
            .sum();
        groups + self.dictionaries[column].encoded_bytes()
    }

    /// Approximate heap footprint of one column in the row-store representation.
    pub fn column_plain_bytes(&self, column: ColumnId) -> u64 {
        let dictionary = &self.dictionaries[column];
        self.groups
            .iter()
            .map(|g| g.columns[column].plain_bytes(dictionary))
            .sum()
    }

    /// Total encoded footprint across all columns.
    pub fn total_encoded_bytes(&self) -> u64 {
        (0..self.schema.arity())
            .map(|c| self.column_encoded_bytes(c))
            .sum()
    }

    /// Total row-store footprint across all columns.
    pub fn total_plain_bytes(&self) -> u64 {
        (0..self.schema.arity())
            .map(|c| self.column_plain_bytes(c))
            .sum()
    }

    /// Overall compression ratio (`plain / encoded`); 1.0 for an empty table.
    pub fn compression_ratio(&self) -> f64 {
        let encoded = self.total_encoded_bytes();
        if encoded == 0 {
            return 1.0;
        }
        self.total_plain_bytes() as f64 / encoded as f64
    }

    /// Resolves column names into a projection list.
    ///
    /// # Errors
    /// Returns [`Error::UnknownColumn`] for any name not in the schema.
    pub fn projection_of(&self, columns: &[&str]) -> Result<Vec<ColumnId>> {
        columns
            .iter()
            .map(|name| self.schema.column_index(name))
            .collect()
    }
}

/// Byte-level accounting of what a columnar scan actually read: total and
/// per-column bytes, rows skipped via zone maps, and per-run predicate probes.
#[derive(Debug, Default)]
pub struct ScanVolume {
    bytes_scanned: AtomicU64,
    rows_scanned: AtomicU64,
    row_groups_skipped: AtomicU64,
    rows_predicate_skipped: AtomicU64,
    predicate_probes: AtomicU64,
    predicate_rows: AtomicU64,
    groups_quarantined: AtomicU64,
    column_bytes: Vec<AtomicU64>,
}

impl ScanVolume {
    /// Creates zeroed counters without per-column tracking.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed counters with one per-column byte counter per schema column.
    pub fn with_columns(arity: usize) -> Self {
        Self {
            column_bytes: (0..arity).map(|_| AtomicU64::new(0)).collect(),
            ..Self::default()
        }
    }

    /// Bytes of column data touched so far.
    pub fn bytes_scanned(&self) -> u64 {
        self.bytes_scanned.load(Ordering::Relaxed)
    }

    /// Rows produced so far.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// Row groups skipped outright because no active predicate could match
    /// their zone maps.
    pub fn row_groups_skipped(&self) -> u64 {
        self.row_groups_skipped.load(Ordering::Relaxed)
    }

    /// Rows whose bytes were never touched thanks to zone-map skipping.
    pub fn rows_predicate_skipped(&self) -> u64 {
        self.rows_predicate_skipped.load(Ordering::Relaxed)
    }

    /// Predicate evaluations actually performed (one per run on RLE data).
    pub fn predicate_probes(&self) -> u64 {
        self.predicate_probes.load(Ordering::Relaxed)
    }

    /// Rows those predicate evaluations covered; `predicate_rows /
    /// predicate_probes` is the average rows answered per probe.
    pub fn predicate_rows(&self) -> u64 {
        self.predicate_rows.load(Ordering::Relaxed)
    }

    /// Row groups that failed checksum verification and were served from the
    /// row store instead (each corrupt group is counted once per scan front-end
    /// that discovers it).
    pub fn groups_quarantined(&self) -> u64 {
        self.groups_quarantined.load(Ordering::Relaxed)
    }

    /// Snapshot of the per-column bytes touched (empty unless built via
    /// [`ScanVolume::with_columns`]).
    pub fn column_bytes(&self) -> Vec<u64> {
        self.column_bytes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Records `rows` produced at a cost of `bytes` of column data.
    pub fn record_scan(&self, rows: u64, bytes: u64) {
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
        self.bytes_scanned.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Attributes `bytes` of touched data to `column` (no-op when per-column
    /// tracking is off or the index is out of range).
    pub fn record_column(&self, column: ColumnId, bytes: u64) {
        if let Some(c) = self.column_bytes.get(column) {
            c.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Records one zone-map skip of a `rows`-row group.
    pub fn record_group_skip(&self, rows: u64) {
        self.row_groups_skipped.fetch_add(1, Ordering::Relaxed);
        self.rows_predicate_skipped
            .fetch_add(rows, Ordering::Relaxed);
    }

    /// Records `probes` predicate evaluations covering `rows` rows.
    pub fn record_predicate(&self, probes: u64, rows: u64) {
        self.predicate_probes.fetch_add(probes, Ordering::Relaxed);
        self.predicate_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Records one row group quarantined after failing checksum verification.
    pub fn record_group_quarantined(&self) {
        self.groups_quarantined.fetch_add(1, Ordering::Relaxed);
    }
}

/// The circular, projected scan over a [`ColumnarTable`].
///
/// Mirrors [`crate::ContinuousScan`]: rows come back in stable [`RowId`] order,
/// batches never cross the wrap point, and `wrapped` marks the start of a new pass.
/// Only the projected columns are materialised (and accounted in [`ScanVolume`]); all
/// other columns are NULL, which is exactly the §5 "scan/merge of only those fact
/// table columns that are accessed by the current query mix".
#[derive(Debug)]
pub struct ColumnarContinuousScan {
    table: Arc<ColumnarTable>,
    projection: Vec<ColumnId>,
    bytes_per_row: u64,
    position: u64,
    batch_rows: usize,
    passes: u64,
    volume: Option<Arc<ScanVolume>>,
}

impl ColumnarContinuousScan {
    /// Creates a scan that materialises every column.
    pub fn new(table: Arc<ColumnarTable>) -> Self {
        let all: Vec<ColumnId> = (0..table.schema().arity()).collect();
        Self::with_projection(table, all)
    }

    /// Creates a scan that materialises only `projection` (column indices).
    pub fn with_projection(table: Arc<ColumnarTable>, projection: Vec<ColumnId>) -> Self {
        let len = table.len().max(1) as u64;
        let bytes_per_row = projection
            .iter()
            .map(|&c| table.column_encoded_bytes(c).div_ceil(len))
            .sum();
        Self {
            table,
            projection,
            bytes_per_row,
            position: 0,
            batch_rows: crate::scan::DEFAULT_SCAN_BATCH_ROWS,
            passes: 0,
            volume: None,
        }
    }

    /// Overrides the number of rows per batch.
    pub fn with_batch_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "batch_rows must be positive");
        self.batch_rows = rows;
        self
    }

    /// Records scanned volume into `volume`.
    pub fn with_volume(mut self, volume: Arc<ScanVolume>) -> Self {
        self.volume = Some(volume);
        self
    }

    /// Average encoded bytes touched per produced row.
    pub fn bytes_per_row(&self) -> u64 {
        self.bytes_per_row
    }

    /// Number of completed passes over the table.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Current scan position (the row index the next batch starts at).
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Fills `batch` with the next run of rows; see [`crate::ContinuousScan::next_batch`].
    pub fn next_batch(&mut self, batch: &mut ScanBatch) {
        batch.clear();
        let len = self.table.len() as u64;
        if len == 0 {
            batch.wrapped = true;
            return;
        }
        if self.position >= len {
            self.position = 0;
            self.passes += 1;
        }
        batch.wrapped = self.position == 0;
        let remaining = (len - self.position) as usize;
        let to_read = remaining.min(self.batch_rows);
        let start = self.position as usize;
        for i in start..start + to_read {
            let row = self.table.project_row(i, &self.projection);
            let version = self.table.version(i).expect("row index in range");
            batch.rows.push((RowId(i as u64), row, version));
        }
        if let Some(volume) = &self.volume {
            volume.record_scan(to_read as u64, to_read as u64 * self.bytes_per_row);
        }
        self.position += to_read as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::snapshot::SnapshotId;

    fn source_table(rows: i64) -> Table {
        let schema = Schema::new(
            "lineorder",
            vec![
                Column::int("lo_orderkey"),
                Column::int("lo_orderdate"),
                Column::str("lo_shipmode"),
                Column::int("lo_revenue"),
            ],
        );
        let table = Table::with_rows_per_page(schema, 16);
        table.insert_batch_unchecked(
            (0..rows).map(|i| {
                Row::new(vec![
                    Value::int(i),
                    Value::int(19940101 + i / 50), // long runs: loaded in date order
                    Value::str(if i % 3 == 0 { "AIR" } else { "TRUCK" }),
                    Value::int(i * 7 % 1000),
                ])
            }),
            SnapshotId::INITIAL,
        );
        table
    }

    #[test]
    fn columnar_roundtrip_matches_row_store() {
        let table = source_table(200);
        for policy in [CompressionPolicy::Plain, CompressionPolicy::Adaptive] {
            let columnar = ColumnarTable::from_table(&table, policy).unwrap();
            assert_eq!(columnar.len(), 200);
            assert_eq!(columnar.name(), "lineorder");
            assert_eq!(columnar.policy(), policy);
            for i in 0..200 {
                assert_eq!(
                    columnar.row(i).unwrap(),
                    table.row(RowId(i as u64)).unwrap(),
                    "row {i}, {policy:?}"
                );
            }
            assert!(columnar.row(200).is_none());
            assert!(columnar.value(200, 0).is_none());
        }
    }

    #[test]
    fn checksums_detect_a_bit_flipped_group() {
        let table = source_table(200);
        for policy in [CompressionPolicy::Plain, CompressionPolicy::Adaptive] {
            let mut columnar =
                ColumnarTable::from_table_with_row_groups(&table, policy, 64).unwrap();
            let groups = columnar.row_groups().len();
            assert_eq!(groups, 4);
            for g in 0..groups {
                assert!(columnar.verify_group(g), "{policy:?} group {g} pristine");
            }
            // Past-the-end groups verify trivially rather than panicking.
            assert!(columnar.verify_group(groups));
            assert!(columnar.corrupt_group(2), "{policy:?}");
            assert!(
                !columnar.verify_group(2),
                "{policy:?} bit flip must fail verification"
            );
            for g in [0, 1, 3] {
                assert!(columnar.verify_group(g), "{policy:?} group {g} untouched");
            }
        }
    }

    /// Growing a replica by sealed groups encodes only the groups the appends
    /// completed — the short last group included — and shares every other
    /// group by `Arc`; the result is what a build from scratch over the same
    /// rows gives, and a new string grows only the new replica's dictionary.
    #[test]
    fn sealed_groups_share_the_old_ones_and_match_a_fresh_build() {
        let table = source_table(200);
        for policy in [CompressionPolicy::Plain, CompressionPolicy::Adaptive] {
            let first = ColumnarTable::from_table_with_row_groups(&table, policy, 64).unwrap();
            assert_eq!(first.row_groups().len(), 4);
            assert_eq!(first.len(), 200, "the short last group holds 8 rows");
            assert!(first.with_sealed_groups(&table).unwrap().is_none());

            let grown_table = source_table(200);
            grown_table.insert_batch_unchecked(
                (200..330).map(|i| {
                    let mode = if i == 300 { "SHIP" } else { "AIR" };
                    Row::new(vec![
                        Value::int(i),
                        Value::int(19940105),
                        Value::str(mode),
                        Value::int(i),
                    ])
                }),
                SnapshotId(4),
            );
            let grown = first.with_sealed_groups(&grown_table).unwrap().unwrap();
            assert_eq!(grown.len(), 320, "{policy:?}: 10 rows stay in the tail");
            assert_eq!(grown.row_groups().len(), 5);
            for g in 0..3 {
                assert!(Arc::ptr_eq(&first.row_groups()[g], &grown.row_groups()[g]));
            }
            assert!(!Arc::ptr_eq(&first.row_groups()[3], &grown.row_groups()[3]));
            assert!(!grown.row_groups()[4].all_always_visible);

            let shipmode = 2;
            assert_eq!(first.dictionary(shipmode).unwrap().len(), 2);
            assert_eq!(grown.dictionary(shipmode).unwrap().len(), 3);
            assert!(first.dictionary(0).is_none());

            let fresh =
                ColumnarTable::from_table_with_row_groups(&grown_table, policy, 64).unwrap();
            for (g, (a, b)) in grown
                .row_groups()
                .iter()
                .zip(fresh.row_groups())
                .enumerate()
            {
                assert_eq!(a.zones, b.zones, "{policy:?} group {g}");
                assert_eq!(a.checksum, b.checksum, "{policy:?} group {g}");
                assert!(grown.verify_group(g), "{policy:?} group {g}");
            }
            for i in 0..320 {
                assert_eq!(grown.row(i), grown_table.row(RowId(i as u64)), "row {i}");
                assert_eq!(grown.version(i), fresh.version(i), "row {i}");
            }
            assert!(grown.row(320).is_none());
            assert!(grown.with_sealed_groups(&grown_table).unwrap().is_none());
        }
    }

    #[test]
    fn group_checksums_are_value_determined() {
        // Plain and adaptive encodings store the same values, so their group
        // checksums must agree: the hash covers decoded values, not encodings.
        let table = source_table(200);
        let plain = ColumnarTable::from_table(&table, CompressionPolicy::Plain).unwrap();
        let adaptive = ColumnarTable::from_table(&table, CompressionPolicy::Adaptive).unwrap();
        for (g, (p, a)) in plain
            .row_groups()
            .iter()
            .zip(adaptive.row_groups())
            .enumerate()
        {
            assert_eq!(p.checksum, a.checksum, "group {g}");
        }
    }

    #[test]
    fn adaptive_policy_rle_encodes_sorted_date_column() {
        let table = source_table(500);
        let plain = ColumnarTable::from_table(&table, CompressionPolicy::Plain).unwrap();
        let adaptive = ColumnarTable::from_table(&table, CompressionPolicy::Adaptive).unwrap();
        let date_col = 1;
        assert!(
            adaptive.column_encoded_bytes(date_col) < plain.column_encoded_bytes(date_col) / 4,
            "RLE should shrink the sorted date column: {} vs {}",
            adaptive.column_encoded_bytes(date_col),
            plain.column_encoded_bytes(date_col)
        );
        // The sequential orderkey column is hostile to RLE but delta-encodes well:
        // per-128-row blocks span only 127, so offsets fit in 7 bits.
        assert!(
            adaptive.column_encoded_bytes(0) < plain.column_encoded_bytes(0) / 4,
            "delta should shrink the sequential key column: {} vs {}",
            adaptive.column_encoded_bytes(0),
            plain.column_encoded_bytes(0)
        );
        assert!(adaptive.compression_ratio() > plain.compression_ratio());
        // Whatever encoding won, values must round-trip.
        for i in [0usize, 127, 128, 499] {
            assert_eq!(adaptive.value(i, 0), plain.value(i, 0), "row {i}");
        }
    }

    #[test]
    fn encoded_column_views_agree_with_values() {
        let table = source_table(300);
        for policy in [CompressionPolicy::Plain, CompressionPolicy::Adaptive] {
            let columnar = ColumnarTable::from_table_with_row_groups(&table, policy, 128).unwrap();
            for group in columnar.row_groups() {
                let start = group.start as usize;
                for c in 0..columnar.schema().arity() {
                    for i in 0..group.len as usize {
                        let decoded = match group.encoded_column(c) {
                            EncodedColumn::Int { data, nulls } => {
                                assert!(nulls.is_none());
                                Value::Int(data.get(i).unwrap())
                            }
                            EncodedColumn::Str { codes, nulls } => {
                                assert!(nulls.is_none());
                                let dictionary = columnar.dictionary(c).unwrap();
                                Value::Str(dictionary.value_of(codes[i]).unwrap().clone())
                            }
                        };
                        assert_eq!(
                            decoded,
                            columnar.value(start + i, c).unwrap(),
                            "{policy:?} col {c} row {}",
                            start + i
                        );
                    }
                    if let EncodedColumn::Int { data, .. } = group.encoded_column(c) {
                        assert_eq!(data.get(group.len as usize), None);
                    }
                }
            }
        }
    }

    #[test]
    fn row_groups_cover_table_with_correct_zone_maps() {
        let table = source_table(2500);
        let columnar =
            ColumnarTable::from_table_with_row_groups(&table, CompressionPolicy::Adaptive, 1000)
                .unwrap();
        assert_eq!(columnar.group_rows(), 1000);
        let groups = columnar.row_groups();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[2].start, 2000);
        assert_eq!(groups[2].len, 500);
        assert_eq!(columnar.group_of(999), 0);
        assert_eq!(columnar.group_of(1000), 1);
        for (g, group) in groups.iter().enumerate() {
            assert!(group.all_always_visible);
            assert_eq!(group.zones.len(), 4);
            // Orderkey is sequential, so group g spans exactly its row range.
            let ZoneMap::Int { min, max, has_null } = &group.zones[0] else {
                panic!("orderkey zone must be Int");
            };
            assert_eq!(*min, group.start as i64, "group {g}");
            assert_eq!(*max, (group.start + group.len - 1) as i64, "group {g}");
            assert!(!has_null);
            // Shipmode has 2 distinct values per group: an exact code set.
            let ZoneMap::Str { codes, has_null } = &group.zones[2] else {
                panic!("shipmode zone must be Str");
            };
            let exact = codes.exact().expect("2 distinct codes stays exact");
            assert_eq!(exact.len(), 2, "group {g}");
            assert!(!has_null);
            for code in exact {
                assert!(codes.may_contain(*code));
            }
            assert!(!codes.may_contain(99));
        }
    }

    #[test]
    fn zone_maps_exclude_nulls_and_flag_them() {
        let schema = Schema::new("t", vec![Column::int("a"), Column::str("s")]);
        let table = Table::new(schema);
        table
            .insert(vec![Value::int(10), Value::str("x")], SnapshotId::INITIAL)
            .unwrap();
        table
            .insert(vec![Value::Null, Value::Null], SnapshotId::INITIAL)
            .unwrap();
        table
            .insert(vec![Value::int(-5), Value::str("y")], SnapshotId::INITIAL)
            .unwrap();
        let columnar = ColumnarTable::from_table(&table, CompressionPolicy::Plain).unwrap();
        let group = &columnar.row_groups()[0];
        assert_eq!(
            group.zones[0],
            ZoneMap::Int {
                min: -5,
                max: 10,
                has_null: true
            }
        );
        let ZoneMap::Str { codes, has_null } = &group.zones[1] else {
            panic!("string zone expected");
        };
        assert!(*has_null);
        // The "" sentinel interned for NULLs must not appear in the code set.
        let x_code = columnar.dictionary(1).unwrap().code_of("x").unwrap();
        assert!(codes.may_contain(x_code));
        assert_eq!(codes.exact().unwrap().len(), 2);
    }

    #[test]
    fn bloom_zone_codes_degrade_without_false_negatives() {
        // 32 distinct values in one group: too many for an exact set.
        let schema = Schema::new("t", vec![Column::str("s")]);
        let table = Table::new(schema);
        let values: Vec<String> = (0..64).map(|i| format!("v{}", i % 32)).collect();
        table.insert_batch_unchecked(
            values.iter().map(|v| Row::new(vec![Value::str(v)])),
            SnapshotId::INITIAL,
        );
        let columnar = ColumnarTable::from_table(&table, CompressionPolicy::Plain).unwrap();
        let ZoneMap::Str { codes, .. } = &columnar.row_groups()[0].zones[0] else {
            panic!("string zone expected");
        };
        assert!(codes.exact().is_none(), "32 codes must degrade to bloom");
        for code in 0..32u32 {
            assert!(codes.may_contain(code), "no false negatives: code {code}");
        }
    }

    #[test]
    fn deleted_rows_mark_group_not_always_visible() {
        let schema = Schema::new("t", vec![Column::int("a")]);
        let table = Table::new(schema);
        let id = table
            .insert(vec![Value::int(1)], SnapshotId::INITIAL)
            .unwrap();
        table
            .insert(vec![Value::int(2)], SnapshotId::INITIAL)
            .unwrap();
        table.delete(id, SnapshotId(3));
        let columnar = ColumnarTable::from_table(&table, CompressionPolicy::Plain).unwrap();
        assert!(!columnar.row_groups()[0].all_always_visible);
    }

    #[test]
    fn scan_volume_tracks_skips_probes_and_columns() {
        let volume = ScanVolume::with_columns(2);
        volume.record_scan(10, 80);
        volume.record_column(0, 50);
        volume.record_column(1, 30);
        volume.record_column(7, 999); // out of range: ignored
        volume.record_group_skip(1024);
        volume.record_predicate(3, 1000);
        assert_eq!(volume.rows_scanned(), 10);
        assert_eq!(volume.bytes_scanned(), 80);
        assert_eq!(volume.column_bytes(), vec![50, 30]);
        assert_eq!(volume.row_groups_skipped(), 1);
        assert_eq!(volume.rows_predicate_skipped(), 1024);
        assert_eq!(volume.predicate_probes(), 3);
        assert_eq!(volume.predicate_rows(), 1000);
    }

    #[test]
    fn dictionary_encoding_shrinks_string_columns() {
        let table = source_table(1000);
        let columnar = ColumnarTable::from_table(&table, CompressionPolicy::Plain).unwrap();
        let shipmode = 2;
        assert!(
            columnar.column_encoded_bytes(shipmode) < columnar.column_plain_bytes(shipmode) / 3,
            "2-value string column should compress well"
        );
    }

    #[test]
    fn nulls_roundtrip() {
        let schema = Schema::new("t", vec![Column::int("a"), Column::str("b")]);
        let table = Table::new(schema);
        table
            .insert(vec![Value::int(1), Value::str("x")], SnapshotId::INITIAL)
            .unwrap();
        table
            .insert(vec![Value::Null, Value::Null], SnapshotId::INITIAL)
            .unwrap();
        table
            .insert(vec![Value::int(3), Value::str("y")], SnapshotId::INITIAL)
            .unwrap();
        for policy in [CompressionPolicy::Plain, CompressionPolicy::Adaptive] {
            let columnar = ColumnarTable::from_table(&table, policy).unwrap();
            assert_eq!(columnar.value(1, 0).unwrap(), Value::Null);
            assert_eq!(columnar.value(1, 1).unwrap(), Value::Null);
            assert_eq!(columnar.value(2, 0).unwrap(), Value::int(3));
            assert_eq!(columnar.value(2, 1).unwrap(), Value::str("y"));
        }
    }

    #[test]
    fn project_row_nulls_out_unprojected_columns() {
        let table = source_table(10);
        let columnar = ColumnarTable::from_table(&table, CompressionPolicy::Plain).unwrap();
        let projection = columnar
            .projection_of(&["lo_orderkey", "lo_revenue"])
            .unwrap();
        let row = columnar.project_row(3, &projection);
        assert_eq!(row.arity(), 4);
        assert_eq!(row.get(0), &Value::int(3));
        assert!(row.get(1).is_null());
        assert!(row.get(2).is_null());
        assert_eq!(row.get(3), &Value::int(21));
        assert!(columnar.projection_of(&["nope"]).is_err());
    }

    #[test]
    fn captured_versions_respect_snapshots() {
        let schema = Schema::new("t", vec![Column::int("a")]);
        let table = Table::new(schema);
        let early = table.insert(vec![Value::int(1)], SnapshotId(0)).unwrap();
        table.insert(vec![Value::int(2)], SnapshotId(5)).unwrap();
        table.delete(early, SnapshotId(3));
        let columnar = ColumnarTable::from_table(&table, CompressionPolicy::Plain).unwrap();

        let collect = |snap: SnapshotId| {
            (0..columnar.len())
                .filter(|&i| columnar.version(i).unwrap().visible_at(snap))
                .map(|i| columnar.project_row(i, &[0]).int(0))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(SnapshotId(0)), vec![1]);
        assert_eq!(collect(SnapshotId(4)), Vec::<i64>::new());
        assert_eq!(collect(SnapshotId(5)), vec![2]);
    }

    #[test]
    fn continuous_scan_wraps_like_row_scan() {
        let table = source_table(25);
        let columnar =
            Arc::new(ColumnarTable::from_table(&table, CompressionPolicy::Adaptive).unwrap());
        let mut scan = ColumnarContinuousScan::new(Arc::clone(&columnar)).with_batch_rows(10);
        let mut batch = ScanBatch::default();

        scan.next_batch(&mut batch);
        assert!(batch.wrapped);
        assert_eq!(batch.len(), 10);
        assert_eq!(batch.rows[0].0, RowId(0));
        scan.next_batch(&mut batch);
        assert!(!batch.wrapped);
        scan.next_batch(&mut batch);
        assert_eq!(batch.len(), 5);
        assert_eq!(scan.passes(), 0);
        scan.next_batch(&mut batch);
        assert!(batch.wrapped);
        assert_eq!(scan.passes(), 1);
        assert_eq!(scan.position(), 10);
    }

    #[test]
    fn projected_scan_reduces_bytes_touched() {
        let table = source_table(2000);
        let columnar =
            Arc::new(ColumnarTable::from_table(&table, CompressionPolicy::Adaptive).unwrap());

        let full_volume = Arc::new(ScanVolume::new());
        let mut full = ColumnarContinuousScan::new(Arc::clone(&columnar))
            .with_batch_rows(512)
            .with_volume(Arc::clone(&full_volume));

        let projection = columnar
            .projection_of(&["lo_orderdate", "lo_revenue"])
            .unwrap();
        let narrow_volume = Arc::new(ScanVolume::new());
        let mut narrow = ColumnarContinuousScan::with_projection(Arc::clone(&columnar), projection)
            .with_batch_rows(512)
            .with_volume(Arc::clone(&narrow_volume));

        let mut batch = ScanBatch::default();
        // One full pass each.
        let mut rows = 0;
        while rows < 2000 {
            full.next_batch(&mut batch);
            rows += batch.len();
        }
        rows = 0;
        while rows < 2000 {
            narrow.next_batch(&mut batch);
            rows += batch.len();
        }

        assert_eq!(full_volume.rows_scanned(), 2000);
        assert_eq!(narrow_volume.rows_scanned(), 2000);
        assert!(
            narrow_volume.bytes_scanned() < full_volume.bytes_scanned() / 2,
            "projection should cut scan volume: {} vs {}",
            narrow_volume.bytes_scanned(),
            full_volume.bytes_scanned()
        );
        assert!(narrow.bytes_per_row() < full.bytes_per_row());
    }

    #[test]
    fn projected_rows_preserve_projected_values() {
        let table = source_table(100);
        let columnar =
            Arc::new(ColumnarTable::from_table(&table, CompressionPolicy::Adaptive).unwrap());
        let projection = columnar.projection_of(&["lo_shipmode"]).unwrap();
        let mut scan = ColumnarContinuousScan::with_projection(Arc::clone(&columnar), projection)
            .with_batch_rows(64);
        let mut batch = ScanBatch::default();
        let mut seen = 0;
        while seen < 100 {
            scan.next_batch(&mut batch);
            for (id, row, _) in &batch.rows {
                let expected = table.row(*id).unwrap();
                assert_eq!(row.get(2), expected.get(2));
                assert!(row.get(0).is_null());
                seen += 1;
            }
        }
    }

    #[test]
    fn empty_table_scan_reports_wrapped_empty_batches() {
        let schema = Schema::new("empty", vec![Column::int("a")]);
        let table = Table::new(schema);
        let columnar =
            Arc::new(ColumnarTable::from_table(&table, CompressionPolicy::Plain).unwrap());
        assert!(columnar.is_empty());
        let mut scan = ColumnarContinuousScan::new(columnar);
        let mut batch = ScanBatch::default();
        scan.next_batch(&mut batch);
        assert!(batch.is_empty());
        assert!(batch.wrapped);
    }

    #[test]
    #[should_panic(expected = "batch_rows")]
    fn zero_batch_rows_panics() {
        let table = source_table(1);
        let columnar =
            Arc::new(ColumnarTable::from_table(&table, CompressionPolicy::Plain).unwrap());
        let _ = ColumnarContinuousScan::new(columnar).with_batch_rows(0);
    }

    /// The bulk kernels against the definition: for every encoding, over seeded
    /// data shaped to hit each kernel's edges — runs of length 1 and runs that
    /// cross the range, delta-block and packed-word boundaries, empty and
    /// single-row ranges, selections with gaps — `decode_range` and `gather`
    /// return what `get(i)` returns, element for element.
    #[test]
    fn prop_gather_and_decode_range_equal_get() {
        use crate::compress::DELTA_BLOCK_ROWS;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x6A7E);
        for case in 0..96 {
            let len = rng.gen_range(1..700usize);
            // Run lengths from 1 (no two neighbours equal) to longer than any
            // range below; value widths from 1 bit to one that straddles words.
            let max_run = [1usize, 3, 40, 400][case % 4];
            let spread = [1i64, 6, 1 << 13, 1 << 40][(case / 4) % 4];
            let base = rng.gen_range(-1_000_000i64..1_000_000);
            let mut values = Vec::with_capacity(len);
            while values.len() < len {
                let v = base + rng.gen_range(0..spread + 1);
                let run = rng.gen_range(1..max_run + 1).min(len - values.len());
                values.extend(std::iter::repeat_n(v, run));
            }
            let rle = RleVec::from_slice(&values);
            let packed = BitPackedVec::from_slice(&values);
            let delta = DeltaVec::from_slice(&values);
            let encodings = [
                IntEncoding::Plain(&values),
                IntEncoding::Rle(&rle),
                IntEncoding::Packed(&packed),
                IntEncoding::Delta(&delta),
            ];

            // Ranges: empty, single-row, the whole column, one ending on and
            // one starting on a delta-block edge, and a random one.
            let edge = DELTA_BLOCK_ROWS.min(len);
            let random_start = rng.gen_range(0..len);
            let ranges = [
                (random_start, 0),
                (random_start, 1),
                (0, len),
                (0, edge),
                (edge.min(len - 1), len - edge.min(len - 1)),
                (random_start, rng.gen_range(0..len - random_start + 1)),
            ];
            for encoding in &encodings {
                for &(start, n) in &ranges {
                    let expected: Vec<i64> = (start..start + n)
                        .map(|i| encoding.get(i).unwrap())
                        .collect();
                    let mut decoded = vec![-7]; // kernels append, never clear
                    encoding.decode_range(start, n, &mut decoded);
                    assert_eq!(decoded[0], -7);
                    assert_eq!(
                        decoded[1..],
                        expected[..],
                        "case {case} {encoding:?} range {start}+{n}"
                    );

                    // A selection with gaps over the same range (dense, sparse
                    // and empty densities all occur across cases).
                    let keep = [1.0, 0.5, 0.05, 0.0][case % 4];
                    let offsets: Vec<u32> = (0..n as u32)
                        .filter(|_| rng.gen_range(0.0..1.0) < keep)
                        .collect();
                    let expected: Vec<i64> = offsets
                        .iter()
                        .map(|&o| encoding.get(start + o as usize).unwrap())
                        .collect();
                    let mut gathered = vec![-7];
                    encoding.gather(start, &offsets, &mut gathered);
                    assert_eq!(
                        gathered[1..],
                        expected[..],
                        "case {case} {encoding:?} gather {start}+{offsets:?}"
                    );
                }
            }
        }
    }
}
