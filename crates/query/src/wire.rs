//! Length-prefixed binary wire format for the `cjoin-server` front door.
//!
//! Everything a client and server exchange — star queries, results, typed
//! [`QueryError`] outcomes, admission policies, server statistics — has a
//! hand-rolled little-endian encoding here. The build environment has no
//! registry access, so this is deliberately dependency-free: a `Vec<u8>`
//! writer, a bounds-checked [`Cursor`] reader, and one `encode`/`decode` pair
//! per type.
//!
//! # Framing
//!
//! A *frame* is a `u32` little-endian payload length followed by the payload.
//! Payloads start with a one-byte message tag ([`Request`] uses `0x01..=0x06`,
//! [`Response`] `0x81..=0x86`; the disjoint tag spaces make a desynchronised
//! peer fail loudly instead of misparsing). Frames larger than
//! [`MAX_FRAME_LEN`] are rejected before any allocation.
//!
//! # Error discipline
//!
//! Decoding NEVER panics: every read is bounds-checked and every failure is a
//! typed [`WireError`]. The server turns a `WireError` into a
//! [`Response::Protocol`] answer, which is what the malformed-frame fuzz test
//! asserts. Collection lengths are validated against the bytes actually
//! remaining in the frame, and predicate nesting is depth-limited, so a
//! hostile frame cannot make the decoder allocate unboundedly or recurse off
//! the stack.

use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use cjoin_common::Error;
use cjoin_storage::{SnapshotId, Value};

use crate::aggregate::{AggFunc, AggValue};
use crate::engine::{
    DimDelete, DimUpsert, EngineStats, IngestBatch, IngestReceipt, QueryError, QueryOutcome,
    SchedulerSummary,
};
use crate::expr::{CompareOp, Predicate};
use crate::result::QueryResult;
use crate::star::{AggregateSpec, ColumnRef, DimensionClause, StarQuery, TableRef};

/// Hard cap on a frame's payload length (16 MiB).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Maximum predicate nesting depth the decoder accepts.
const MAX_PREDICATE_DEPTH: u32 = 64;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed decoding failure. Never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field was complete.
    Truncated,
    /// The payload had bytes left over after the message was fully decoded.
    TrailingBytes(usize),
    /// An enum tag byte had no defined meaning.
    UnknownTag {
        /// The type being decoded when the unknown tag was hit.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A declared frame length exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge(u64),
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A declared collection length exceeded the bytes remaining in the frame.
    BadLength(u64),
    /// Predicate nesting exceeded the decoder's depth limit.
    DepthExceeded,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("frame truncated mid-field"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::UnknownTag { what, tag } => {
                write!(f, "unknown tag {tag:#04x} while decoding {what}")
            }
            WireError::FrameTooLarge(n) => {
                write!(f, "declared frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::InvalidUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::BadLength(n) => {
                write!(f, "declared collection length {n} exceeds remaining frame")
            }
            WireError::DepthExceeded => f.write_str("predicate nesting exceeds decoder limit"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::invalid_state(format!("wire protocol: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i128(buf: &mut Vec<u8>, v: i128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over one frame's payload.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i128(&mut self) -> Result<i128, WireError> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.collection_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a `u32` collection length and validates it against the bytes
    /// remaining (each element needs at least `min_elem_bytes`), so a hostile
    /// length cannot trigger a huge allocation.
    fn collection_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::BadLength(len as u64));
        }
        Ok(len)
    }

    /// Fails if any bytes were left unconsumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            Err(WireError::TrailingBytes(self.remaining()))
        } else {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Values and aggregates
// ---------------------------------------------------------------------------

fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, 0),
        Value::Int(i) => {
            put_u8(buf, 1);
            put_i64(buf, *i);
        }
        Value::Str(s) => {
            put_u8(buf, 2);
            put_str(buf, s);
        }
    }
}

fn decode_value(cur: &mut Cursor<'_>) -> Result<Value, WireError> {
    match cur.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(cur.i64()?)),
        2 => Ok(Value::str(cur.str()?)),
        tag => Err(WireError::UnknownTag { what: "Value", tag }),
    }
}

fn encode_agg_value(buf: &mut Vec<u8>, v: &AggValue) {
    match v {
        AggValue::Null => put_u8(buf, 0),
        AggValue::Int(i) => {
            put_u8(buf, 1);
            put_i128(buf, *i);
        }
        AggValue::Float(x) => {
            put_u8(buf, 2);
            put_f64(buf, *x);
        }
        AggValue::Str(s) => {
            put_u8(buf, 3);
            put_str(buf, s);
        }
    }
}

fn decode_agg_value(cur: &mut Cursor<'_>) -> Result<AggValue, WireError> {
    match cur.u8()? {
        0 => Ok(AggValue::Null),
        1 => Ok(AggValue::Int(cur.i128()?)),
        2 => Ok(AggValue::Float(cur.f64()?)),
        3 => Ok(AggValue::Str(cur.str()?)),
        tag => Err(WireError::UnknownTag {
            what: "AggValue",
            tag,
        }),
    }
}

fn encode_agg_func(buf: &mut Vec<u8>, f: AggFunc) {
    put_u8(
        buf,
        match f {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Min => 2,
            AggFunc::Max => 3,
            AggFunc::Avg => 4,
        },
    );
}

fn decode_agg_func(cur: &mut Cursor<'_>) -> Result<AggFunc, WireError> {
    match cur.u8()? {
        0 => Ok(AggFunc::Count),
        1 => Ok(AggFunc::Sum),
        2 => Ok(AggFunc::Min),
        3 => Ok(AggFunc::Max),
        4 => Ok(AggFunc::Avg),
        tag => Err(WireError::UnknownTag {
            what: "AggFunc",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------------

fn encode_compare_op(buf: &mut Vec<u8>, op: CompareOp) {
    put_u8(
        buf,
        match op {
            CompareOp::Eq => 0,
            CompareOp::Ne => 1,
            CompareOp::Lt => 2,
            CompareOp::Le => 3,
            CompareOp::Gt => 4,
            CompareOp::Ge => 5,
        },
    );
}

fn decode_compare_op(cur: &mut Cursor<'_>) -> Result<CompareOp, WireError> {
    match cur.u8()? {
        0 => Ok(CompareOp::Eq),
        1 => Ok(CompareOp::Ne),
        2 => Ok(CompareOp::Lt),
        3 => Ok(CompareOp::Le),
        4 => Ok(CompareOp::Gt),
        5 => Ok(CompareOp::Ge),
        tag => Err(WireError::UnknownTag {
            what: "CompareOp",
            tag,
        }),
    }
}

fn encode_predicate(buf: &mut Vec<u8>, p: &Predicate) {
    match p {
        Predicate::True => put_u8(buf, 0),
        Predicate::Compare { column, op, value } => {
            put_u8(buf, 1);
            put_str(buf, column);
            encode_compare_op(buf, *op);
            encode_value(buf, value);
        }
        Predicate::Between { column, low, high } => {
            put_u8(buf, 2);
            put_str(buf, column);
            encode_value(buf, low);
            encode_value(buf, high);
        }
        Predicate::InList { column, values } => {
            put_u8(buf, 3);
            put_str(buf, column);
            put_u32(buf, values.len() as u32);
            for v in values {
                encode_value(buf, v);
            }
        }
        Predicate::And(ps) => {
            put_u8(buf, 4);
            put_u32(buf, ps.len() as u32);
            for p in ps {
                encode_predicate(buf, p);
            }
        }
        Predicate::Or(ps) => {
            put_u8(buf, 5);
            put_u32(buf, ps.len() as u32);
            for p in ps {
                encode_predicate(buf, p);
            }
        }
        Predicate::Not(inner) => {
            put_u8(buf, 6);
            encode_predicate(buf, inner);
        }
    }
}

fn decode_predicate(cur: &mut Cursor<'_>, depth: u32) -> Result<Predicate, WireError> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(WireError::DepthExceeded);
    }
    match cur.u8()? {
        0 => Ok(Predicate::True),
        1 => Ok(Predicate::Compare {
            column: cur.str()?,
            op: decode_compare_op(cur)?,
            value: decode_value(cur)?,
        }),
        2 => Ok(Predicate::Between {
            column: cur.str()?,
            low: decode_value(cur)?,
            high: decode_value(cur)?,
        }),
        3 => {
            let column = cur.str()?;
            let len = cur.collection_len(1)?;
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(decode_value(cur)?);
            }
            Ok(Predicate::InList { column, values })
        }
        tag @ (4 | 5) => {
            let len = cur.collection_len(1)?;
            let mut ps = Vec::with_capacity(len);
            for _ in 0..len {
                ps.push(decode_predicate(cur, depth + 1)?);
            }
            Ok(if tag == 4 {
                Predicate::And(ps)
            } else {
                Predicate::Or(ps)
            })
        }
        6 => Ok(Predicate::Not(Box::new(decode_predicate(cur, depth + 1)?))),
        tag => Err(WireError::UnknownTag {
            what: "Predicate",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// Star queries
// ---------------------------------------------------------------------------

fn encode_column_ref(buf: &mut Vec<u8>, c: &ColumnRef) {
    match &c.table {
        TableRef::Fact => put_u8(buf, 0),
        TableRef::Dimension(name) => {
            put_u8(buf, 1);
            put_str(buf, name);
        }
    }
    put_str(buf, &c.column);
}

fn decode_column_ref(cur: &mut Cursor<'_>) -> Result<ColumnRef, WireError> {
    let table = match cur.u8()? {
        0 => TableRef::Fact,
        1 => TableRef::Dimension(cur.str()?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "TableRef",
                tag,
            })
        }
    };
    Ok(ColumnRef {
        table,
        column: cur.str()?,
    })
}

fn encode_option_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(buf, 0),
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
    }
}

fn decode_option_u64(cur: &mut Cursor<'_>) -> Result<Option<u64>, WireError> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(cur.u64()?)),
        tag => Err(WireError::UnknownTag {
            what: "Option<u64>",
            tag,
        }),
    }
}

/// Encodes a [`StarQuery`] into `buf`.
pub fn encode_star_query(buf: &mut Vec<u8>, q: &StarQuery) {
    put_str(buf, &q.name);
    encode_predicate(buf, &q.fact_predicate);
    put_u32(buf, q.dimensions.len() as u32);
    for d in &q.dimensions {
        put_str(buf, &d.table);
        put_str(buf, &d.fact_fk_column);
        put_str(buf, &d.dim_key_column);
        encode_predicate(buf, &d.predicate);
    }
    put_u32(buf, q.group_by.len() as u32);
    for c in &q.group_by {
        encode_column_ref(buf, c);
    }
    put_u32(buf, q.aggregates.len() as u32);
    for a in &q.aggregates {
        encode_agg_func(buf, a.func);
        match &a.input {
            None => put_u8(buf, 0),
            Some(c) => {
                put_u8(buf, 1);
                encode_column_ref(buf, c);
            }
        }
    }
    encode_option_u64(buf, q.snapshot.map(|s| s.0));
    encode_option_u64(buf, q.deadline.map(|d| d.as_nanos() as u64));
}

/// Decodes a [`StarQuery`].
///
/// # Errors
/// Any malformed field yields a typed [`WireError`]; decoding never panics.
pub fn decode_star_query(cur: &mut Cursor<'_>) -> Result<StarQuery, WireError> {
    let name = cur.str()?;
    let fact_predicate = decode_predicate(cur, 0)?;
    let len = cur.collection_len(4)?;
    let mut dimensions = Vec::with_capacity(len);
    for _ in 0..len {
        dimensions.push(DimensionClause {
            table: cur.str()?,
            fact_fk_column: cur.str()?,
            dim_key_column: cur.str()?,
            predicate: decode_predicate(cur, 0)?,
        });
    }
    let len = cur.collection_len(4)?;
    let mut group_by = Vec::with_capacity(len);
    for _ in 0..len {
        group_by.push(decode_column_ref(cur)?);
    }
    let len = cur.collection_len(2)?;
    let mut aggregates = Vec::with_capacity(len);
    for _ in 0..len {
        let func = decode_agg_func(cur)?;
        let input = match cur.u8()? {
            0 => None,
            1 => Some(decode_column_ref(cur)?),
            tag => {
                return Err(WireError::UnknownTag {
                    what: "Option<ColumnRef>",
                    tag,
                })
            }
        };
        aggregates.push(AggregateSpec { func, input });
    }
    let snapshot = decode_option_u64(cur)?.map(SnapshotId);
    let deadline = decode_option_u64(cur)?.map(Duration::from_nanos);
    Ok(StarQuery {
        name,
        fact_predicate,
        dimensions,
        group_by,
        aggregates,
        snapshot,
        deadline,
    })
}

// ---------------------------------------------------------------------------
// Results and outcomes
// ---------------------------------------------------------------------------

/// Encodes a [`QueryResult`]. Row order is the result's own (deterministic,
/// key-sorted) order, so encode → decode → encode is byte-stable and the
/// served path can be compared bit-for-bit against in-process results.
pub fn encode_query_result(buf: &mut Vec<u8>, r: &QueryResult) {
    put_u32(buf, r.group_columns().len() as u32);
    for c in r.group_columns() {
        put_str(buf, c);
    }
    put_u32(buf, r.aggregate_columns().len() as u32);
    for c in r.aggregate_columns() {
        put_str(buf, c);
    }
    put_u32(buf, r.num_rows() as u32);
    for (key, aggs) in r.rows() {
        put_u32(buf, key.len() as u32);
        for v in key {
            encode_value(buf, v);
        }
        put_u32(buf, aggs.len() as u32);
        for a in aggs {
            encode_agg_value(buf, a);
        }
    }
}

/// Decodes a [`QueryResult`].
///
/// # Errors
/// Any malformed field yields a typed [`WireError`]; decoding never panics.
pub fn decode_query_result(cur: &mut Cursor<'_>) -> Result<QueryResult, WireError> {
    let len = cur.collection_len(4)?;
    let mut group_columns = Vec::with_capacity(len);
    for _ in 0..len {
        group_columns.push(cur.str()?);
    }
    let len = cur.collection_len(4)?;
    let mut aggregate_columns = Vec::with_capacity(len);
    for _ in 0..len {
        aggregate_columns.push(cur.str()?);
    }
    let len = cur.collection_len(8)?;
    let mut rows = Vec::with_capacity(len);
    for _ in 0..len {
        let klen = cur.collection_len(1)?;
        let mut key = Vec::with_capacity(klen);
        for _ in 0..klen {
            key.push(decode_value(cur)?);
        }
        let alen = cur.collection_len(1)?;
        let mut aggs = Vec::with_capacity(alen);
        for _ in 0..alen {
            aggs.push(decode_agg_value(cur)?);
        }
        rows.push((key, aggs));
    }
    Ok(QueryResult::from_rows(
        group_columns,
        aggregate_columns,
        rows,
    ))
}

fn encode_query_error(buf: &mut Vec<u8>, e: &QueryError) {
    match e {
        QueryError::StageFailed { role, detail } => {
            put_u8(buf, 0);
            put_str(buf, role);
            put_str(buf, detail);
        }
        QueryError::DeadlineExceeded { deadline } => {
            put_u8(buf, 1);
            put_u64(buf, deadline.as_nanos() as u64);
        }
        QueryError::Cancelled => put_u8(buf, 2),
        QueryError::ShedAtAdmission {
            deadline,
            estimated,
        } => {
            put_u8(buf, 3);
            put_u64(buf, deadline.as_nanos() as u64);
            put_u64(buf, estimated.as_nanos() as u64);
        }
        QueryError::Engine(err) => {
            put_u8(buf, 4);
            put_str(buf, &err.to_string());
        }
    }
}

fn decode_query_error(cur: &mut Cursor<'_>) -> Result<QueryError, WireError> {
    match cur.u8()? {
        0 => Ok(QueryError::StageFailed {
            role: cur.str()?,
            detail: cur.str()?,
        }),
        1 => Ok(QueryError::DeadlineExceeded {
            deadline: Duration::from_nanos(cur.u64()?),
        }),
        2 => Ok(QueryError::Cancelled),
        3 => Ok(QueryError::ShedAtAdmission {
            deadline: Duration::from_nanos(cur.u64()?),
            estimated: Duration::from_nanos(cur.u64()?),
        }),
        4 => Ok(QueryError::Engine(Error::invalid_state(cur.str()?))),
        tag => Err(WireError::UnknownTag {
            what: "QueryError",
            tag,
        }),
    }
}

/// Encodes a full [`QueryOutcome`].
pub fn encode_outcome(buf: &mut Vec<u8>, outcome: &QueryOutcome) {
    match outcome {
        Ok(result) => {
            put_u8(buf, 0);
            encode_query_result(buf, result);
        }
        Err(e) => {
            put_u8(buf, 1);
            encode_query_error(buf, e);
        }
    }
}

/// Decodes a full [`QueryOutcome`].
///
/// # Errors
/// Any malformed field yields a typed [`WireError`]; decoding never panics.
pub fn decode_outcome(cur: &mut Cursor<'_>) -> Result<QueryOutcome, WireError> {
    match cur.u8()? {
        0 => Ok(Ok(decode_query_result(cur)?)),
        1 => Ok(Err(decode_query_error(cur)?)),
        tag => Err(WireError::UnknownTag {
            what: "QueryOutcome",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// Server statistics
// ---------------------------------------------------------------------------

/// Per-tenant admission counters, as reported by `stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Queries admitted to the engine on this tenant's behalf.
    pub admitted: u64,
    /// Admitted queries whose outcome has been delivered.
    pub completed: u64,
    /// Submissions that waited in the tenant's backpressure queue.
    pub queued: u64,
    /// Submissions shed because the tenant was at its in-flight cap (shed
    /// policy, or queue policy with a full queue).
    pub shed_at_cap: u64,
    /// Submissions shed because the admission ETA already exceeded the
    /// query's deadline.
    pub shed_deadline: u64,
    /// Queries currently admitted and not yet delivered.
    pub in_flight: u64,
}

/// Server-wide statistics: the engine's counters plus per-tenant admission
/// decisions (sorted by tenant name for deterministic output).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// The wrapped engine's own counters.
    pub engine: EngineStats,
    /// One entry per tenant that has contacted the server.
    pub tenants: Vec<TenantStats>,
    /// The engine's width summary (current per-axis widths and the number of
    /// resizes); `None` for engines without one.
    pub scheduler: Option<SchedulerSummary>,
}

fn encode_server_stats(buf: &mut Vec<u8>, s: &ServerStats) {
    put_u64(buf, s.engine.queries_submitted);
    put_u64(buf, s.engine.queries_completed);
    put_u64(buf, s.engine.active_queries as u64);
    put_u64(buf, s.engine.fact_tuples_scanned);
    put_u32(buf, s.tenants.len() as u32);
    for t in &s.tenants {
        put_str(buf, &t.tenant);
        put_u64(buf, t.admitted);
        put_u64(buf, t.completed);
        put_u64(buf, t.queued);
        put_u64(buf, t.shed_at_cap);
        put_u64(buf, t.shed_deadline);
        put_u64(buf, t.in_flight);
    }
    match &s.scheduler {
        None => put_u8(buf, 0),
        Some(sched) => {
            put_u8(buf, 1);
            put_u8(buf, u8::from(sched.auto_tune));
            put_u64(buf, sched.available_parallelism);
            put_u64(buf, sched.scan_workers);
            put_u64(buf, sched.stage_workers);
            put_u64(buf, sched.distributor_shards);
            put_u64(buf, sched.resizes);
        }
    }
}

fn decode_server_stats(cur: &mut Cursor<'_>) -> Result<ServerStats, WireError> {
    let engine = EngineStats {
        queries_submitted: cur.u64()?,
        queries_completed: cur.u64()?,
        active_queries: cur.u64()? as usize,
        fact_tuples_scanned: cur.u64()?,
    };
    let len = cur.collection_len(8)?;
    let mut tenants = Vec::with_capacity(len);
    for _ in 0..len {
        tenants.push(TenantStats {
            tenant: cur.str()?,
            admitted: cur.u64()?,
            completed: cur.u64()?,
            queued: cur.u64()?,
            shed_at_cap: cur.u64()?,
            shed_deadline: cur.u64()?,
            in_flight: cur.u64()?,
        });
    }
    let scheduler = match cur.u8()? {
        0 => None,
        1 => Some(SchedulerSummary {
            auto_tune: cur.u8()? != 0,
            available_parallelism: cur.u64()?,
            scan_workers: cur.u64()?,
            stage_workers: cur.u64()?,
            distributor_shards: cur.u64()?,
            resizes: cur.u64()?,
        }),
        tag => {
            return Err(WireError::UnknownTag {
                what: "scheduler summary",
                tag,
            })
        }
    };
    Ok(ServerStats {
        engine,
        tenants,
        scheduler,
    })
}

// ---------------------------------------------------------------------------
// Ingestion
// ---------------------------------------------------------------------------

fn encode_values(buf: &mut Vec<u8>, values: &[Value]) {
    put_u32(buf, values.len() as u32);
    for v in values {
        encode_value(buf, v);
    }
}

fn decode_values(cur: &mut Cursor<'_>) -> Result<Vec<Value>, WireError> {
    let len = cur.collection_len(1)?;
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        values.push(decode_value(cur)?);
    }
    Ok(values)
}

fn encode_ingest_batch(buf: &mut Vec<u8>, b: &IngestBatch) {
    put_u32(buf, b.facts.len() as u32);
    for row in &b.facts {
        encode_values(buf, row);
    }
    put_u32(buf, b.dim_upserts.len() as u32);
    for u in &b.dim_upserts {
        put_str(buf, &u.table);
        put_u32(buf, u.key_column as u32);
        encode_values(buf, &u.row);
    }
    put_u32(buf, b.dim_deletes.len() as u32);
    for d in &b.dim_deletes {
        put_str(buf, &d.table);
        put_u32(buf, d.key_column as u32);
        put_i64(buf, d.key);
    }
}

fn decode_ingest_batch(cur: &mut Cursor<'_>) -> Result<IngestBatch, WireError> {
    let len = cur.collection_len(4)?;
    let mut facts = Vec::with_capacity(len);
    for _ in 0..len {
        facts.push(decode_values(cur)?);
    }
    let len = cur.collection_len(4)?;
    let mut dim_upserts = Vec::with_capacity(len);
    for _ in 0..len {
        dim_upserts.push(DimUpsert {
            table: cur.str()?,
            key_column: cur.u32()? as usize,
            row: decode_values(cur)?,
        });
    }
    let len = cur.collection_len(4)?;
    let mut dim_deletes = Vec::with_capacity(len);
    for _ in 0..len {
        dim_deletes.push(DimDelete {
            table: cur.str()?,
            key_column: cur.u32()? as usize,
            key: cur.i64()?,
        });
    }
    Ok(IngestBatch {
        facts,
        dim_upserts,
        dim_deletes,
    })
}

fn encode_ingest_receipt(buf: &mut Vec<u8>, r: &IngestReceipt) {
    put_u64(buf, r.epoch);
    put_u64(buf, r.records);
    put_u64(buf, r.wal_bytes);
}

fn decode_ingest_receipt(cur: &mut Cursor<'_>) -> Result<IngestReceipt, WireError> {
    Ok(IngestReceipt {
        epoch: cur.u64()?,
        records: cur.u64()?,
        wal_bytes: cur.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// What a tenant wants done when its in-flight cap is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the query immediately with a typed shed outcome.
    Shed,
    /// Hold the submission in a bounded per-tenant queue until capacity frees
    /// (backpressure); shed only when the queue itself is full.
    Queue,
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a query on behalf of `tenant`.
    Submit {
        /// Tenant the admission decision is accounted against.
        tenant: String,
        /// What to do when the tenant is at its in-flight cap.
        policy: AdmissionPolicy,
        /// The query itself (boxed: it dwarfs every other request variant).
        query: Box<StarQuery>,
    },
    /// Block until the query behind `ticket` completes; the outcome comes back
    /// as [`Response::Outcome`].
    Wait {
        /// Ticket from a previous [`Response::Submitted`] on this connection.
        ticket: u64,
    },
    /// Cancel the query behind `ticket` (best effort).
    Cancel {
        /// Ticket from a previous [`Response::Submitted`] on this connection.
        ticket: u64,
    },
    /// Fetch [`ServerStats`].
    Stats,
    /// Stop the server: refuse new connections, then drain and exit.
    Shutdown,
    /// Atomically apply one ingestion batch on behalf of `tenant`. Answered
    /// synchronously with [`Response::Ingested`] once the batch is durable and
    /// visible, or with [`Response::Outcome`] carrying the typed failure.
    Ingest {
        /// Tenant the mutation is accounted against.
        tenant: String,
        /// The batch (boxed: it dwarfs every other request variant).
        batch: Box<IngestBatch>,
    },
}

/// A typed protocol-level failure the server answers instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolErrorKind {
    /// The request frame failed to decode.
    MalformedFrame,
    /// The frame decoded but its message tag is not a known request.
    UnknownMessage,
    /// A wait/cancel referenced a ticket this connection does not own.
    UnknownTicket,
    /// The declared frame length exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge,
    /// The server is shutting down and no longer admits work.
    ShuttingDown,
}

impl ProtocolErrorKind {
    fn code(&self) -> u8 {
        match self {
            ProtocolErrorKind::MalformedFrame => 1,
            ProtocolErrorKind::UnknownMessage => 2,
            ProtocolErrorKind::UnknownTicket => 3,
            ProtocolErrorKind::FrameTooLarge => 4,
            ProtocolErrorKind::ShuttingDown => 5,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        match code {
            1 => Ok(ProtocolErrorKind::MalformedFrame),
            2 => Ok(ProtocolErrorKind::UnknownMessage),
            3 => Ok(ProtocolErrorKind::UnknownTicket),
            4 => Ok(ProtocolErrorKind::FrameTooLarge),
            5 => Ok(ProtocolErrorKind::ShuttingDown),
            tag => Err(WireError::UnknownTag {
                what: "ProtocolErrorKind",
                tag,
            }),
        }
    }
}

impl fmt::Display for ProtocolErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolErrorKind::MalformedFrame => "malformed frame",
            ProtocolErrorKind::UnknownMessage => "unknown message tag",
            ProtocolErrorKind::UnknownTicket => "unknown ticket",
            ProtocolErrorKind::FrameTooLarge => "frame too large",
            ProtocolErrorKind::ShuttingDown => "server shutting down",
        };
        f.write_str(s)
    }
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The query was admitted; wait on `ticket` for its outcome.
    Submitted {
        /// Connection-scoped ticket for `wait` / `cancel`.
        ticket: u64,
    },
    /// A final query outcome — the answer to `wait`, or the immediate answer
    /// to a `submit` that was shed or refused (no ticket was created).
    Outcome(QueryOutcome),
    /// The answer to `stats`.
    Stats(ServerStats),
    /// Plain acknowledgement (`cancel`, `shutdown`).
    Ack,
    /// The request could not be processed; the connection stays usable.
    Protocol {
        /// What went wrong, as a typed kind.
        kind: ProtocolErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// The answer to a successful `ingest`: the batch is durable and visible.
    Ingested(IngestReceipt),
}

impl Request {
    /// Serializes into a frame payload (tag + body, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Submit {
                tenant,
                policy,
                query,
            } => {
                put_u8(&mut buf, 0x01);
                put_str(&mut buf, tenant);
                put_u8(
                    &mut buf,
                    match policy {
                        AdmissionPolicy::Shed => 0,
                        AdmissionPolicy::Queue => 1,
                    },
                );
                encode_star_query(&mut buf, query);
            }
            Request::Wait { ticket } => {
                put_u8(&mut buf, 0x02);
                put_u64(&mut buf, *ticket);
            }
            Request::Cancel { ticket } => {
                put_u8(&mut buf, 0x03);
                put_u64(&mut buf, *ticket);
            }
            Request::Stats => put_u8(&mut buf, 0x04),
            Request::Shutdown => put_u8(&mut buf, 0x05),
            Request::Ingest { tenant, batch } => {
                put_u8(&mut buf, 0x06);
                put_str(&mut buf, tenant);
                encode_ingest_batch(&mut buf, batch);
            }
        }
        buf
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    /// Any malformed byte yields a typed [`WireError`]; parsing never panics.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut cur = Cursor::new(payload);
        let req = match cur.u8()? {
            0x01 => {
                let tenant = cur.str()?;
                let policy = match cur.u8()? {
                    0 => AdmissionPolicy::Shed,
                    1 => AdmissionPolicy::Queue,
                    tag => {
                        return Err(WireError::UnknownTag {
                            what: "AdmissionPolicy",
                            tag,
                        })
                    }
                };
                let query = Box::new(decode_star_query(&mut cur)?);
                Request::Submit {
                    tenant,
                    policy,
                    query,
                }
            }
            0x02 => Request::Wait { ticket: cur.u64()? },
            0x03 => Request::Cancel { ticket: cur.u64()? },
            0x04 => Request::Stats,
            0x05 => Request::Shutdown,
            0x06 => Request::Ingest {
                tenant: cur.str()?,
                batch: Box::new(decode_ingest_batch(&mut cur)?),
            },
            tag => {
                return Err(WireError::UnknownTag {
                    what: "Request",
                    tag,
                })
            }
        };
        cur.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes into a frame payload (tag + body, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Submitted { ticket } => {
                put_u8(&mut buf, 0x81);
                put_u64(&mut buf, *ticket);
            }
            Response::Outcome(outcome) => {
                put_u8(&mut buf, 0x82);
                encode_outcome(&mut buf, outcome);
            }
            Response::Stats(stats) => {
                put_u8(&mut buf, 0x83);
                encode_server_stats(&mut buf, stats);
            }
            Response::Ack => put_u8(&mut buf, 0x84),
            Response::Protocol { kind, message } => {
                put_u8(&mut buf, 0x85);
                put_u8(&mut buf, kind.code());
                put_str(&mut buf, message);
            }
            Response::Ingested(receipt) => {
                put_u8(&mut buf, 0x86);
                encode_ingest_receipt(&mut buf, receipt);
            }
        }
        buf
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    /// Any malformed byte yields a typed [`WireError`]; parsing never panics.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut cur = Cursor::new(payload);
        let resp = match cur.u8()? {
            0x81 => Response::Submitted { ticket: cur.u64()? },
            0x82 => Response::Outcome(decode_outcome(&mut cur)?),
            0x83 => Response::Stats(decode_server_stats(&mut cur)?),
            0x84 => Response::Ack,
            0x85 => Response::Protocol {
                kind: ProtocolErrorKind::from_code(cur.u8()?)?,
                message: cur.str()?,
            },
            0x86 => Response::Ingested(decode_ingest_receipt(&mut cur)?),
            tag => {
                return Err(WireError::UnknownTag {
                    what: "Response",
                    tag,
                })
            }
        };
        cur.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Framing over a byte stream
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
/// Propagates I/O errors; refuses payloads over [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::FrameTooLarge(payload.len() as u64).to_string(),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean connection close at a frame boundary. A close
/// *mid-frame* (a torn write) surfaces as `ErrorKind::UnexpectedEof`, and a
/// declared length over [`MAX_FRAME_LEN`] as `ErrorKind::InvalidData` — both
/// distinguishable from ordinary I/O failures so the server can answer with a
/// typed protocol error where a response is still possible.
///
/// # Errors
/// Propagates I/O errors (including read timeouts, which callers use to poll
/// shutdown flags).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame-header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::FrameTooLarge(len as u64).to_string(),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::StarQuery;

    fn sample_query() -> StarQuery {
        StarQuery::builder("q1")
            .fact_predicate(Predicate::between("lo_discount", 1i64, 3i64))
            .join_dimension(
                "date",
                "lo_orderdate",
                "d_datekey",
                Predicate::eq("d_year", 1993i64),
            )
            .join_dimension(
                "part",
                "lo_partkey",
                "p_partkey",
                Predicate::in_list("p_color", vec!["red", "green"]).and(Predicate::Not(Box::new(
                    Predicate::eq("p_size", Value::Null),
                ))),
            )
            .group_by(ColumnRef::dim("date", "d_year"))
            .aggregate(AggregateSpec::count_star())
            .aggregate(AggregateSpec::over(
                AggFunc::Sum,
                ColumnRef::fact("lo_revenue"),
            ))
            .snapshot(SnapshotId(7))
            .deadline(Duration::from_millis(250))
            .build()
    }

    #[test]
    fn star_query_round_trips() {
        let q = sample_query();
        let mut buf = Vec::new();
        encode_star_query(&mut buf, &q);
        let mut cur = Cursor::new(&buf);
        let back = decode_star_query(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn outcome_round_trips_results_and_every_error() {
        let mut result = QueryResult::new(vec!["d_year".into()], vec!["count".into()]);
        result.insert(vec![Value::Int(1993)], vec![AggValue::Int(42)]);
        result.insert(
            vec![Value::str("x")],
            vec![AggValue::Float(1.5), AggValue::Null],
        );
        let outcomes: Vec<QueryOutcome> = vec![
            Ok(result),
            Err(QueryError::StageFailed {
                role: "distributor-shard-1".into(),
                detail: "injected".into(),
            }),
            Err(QueryError::DeadlineExceeded {
                deadline: Duration::from_millis(5),
            }),
            Err(QueryError::Cancelled),
            Err(QueryError::ShedAtAdmission {
                deadline: Duration::from_millis(5),
                estimated: Duration::from_millis(40),
            }),
        ];
        for outcome in outcomes {
            let mut buf = Vec::new();
            encode_outcome(&mut buf, &outcome);
            let mut cur = Cursor::new(&buf);
            let back = decode_outcome(&mut cur).unwrap();
            cur.finish().unwrap();
            assert_eq!(outcome, back);
        }
        // Engine errors survive as their rendered message.
        let mut buf = Vec::new();
        encode_outcome(
            &mut buf,
            &Err(QueryError::Engine(Error::invalid_state("boom"))),
        );
        let back = decode_outcome(&mut Cursor::new(&buf)).unwrap();
        match back {
            Err(QueryError::Engine(e)) => assert!(e.to_string().contains("boom")),
            other => panic!("expected engine error, got {other:?}"),
        }
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let reqs = vec![
            Request::Submit {
                tenant: "acme".into(),
                policy: AdmissionPolicy::Queue,
                query: Box::new(sample_query()),
            },
            Request::Wait { ticket: 9 },
            Request::Cancel { ticket: 3 },
            Request::Stats,
            Request::Shutdown,
            Request::Ingest {
                tenant: "acme".into(),
                batch: Box::new(IngestBatch {
                    facts: vec![vec![Value::Int(1), Value::str("a")], vec![Value::Null]],
                    dim_upserts: vec![DimUpsert {
                        table: "part".into(),
                        key_column: 0,
                        row: vec![Value::Int(7), Value::str("crimson")],
                    }],
                    dim_deletes: vec![DimDelete {
                        table: "supplier".into(),
                        key_column: 0,
                        key: 3,
                    }],
                }),
            },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        let resps = vec![
            Response::Submitted { ticket: 12 },
            Response::Outcome(Err(QueryError::Cancelled)),
            Response::Stats(ServerStats {
                engine: EngineStats {
                    queries_submitted: 10,
                    queries_completed: 8,
                    active_queries: 2,
                    fact_tuples_scanned: 12345,
                },
                tenants: vec![TenantStats {
                    tenant: "acme".into(),
                    admitted: 10,
                    completed: 8,
                    queued: 3,
                    shed_at_cap: 1,
                    shed_deadline: 2,
                    in_flight: 2,
                }],
                scheduler: Some(SchedulerSummary {
                    auto_tune: true,
                    available_parallelism: 1,
                    scan_workers: 1,
                    stage_workers: 2,
                    distributor_shards: 1,
                    resizes: 3,
                }),
            }),
            Response::Stats(ServerStats::default()),
            Response::Ack,
            Response::Protocol {
                kind: ProtocolErrorKind::MalformedFrame,
                message: "truncated".into(),
            },
            Response::Ingested(IngestReceipt {
                epoch: 42,
                records: 4,
                wal_bytes: 512,
            }),
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_and_garbage_payloads_decode_to_typed_errors() {
        let full = Request::Submit {
            tenant: "t".into(),
            policy: AdmissionPolicy::Shed,
            query: Box::new(sample_query()),
        }
        .encode();
        // Every proper prefix must fail cleanly, never panic.
        for cut in 0..full.len() {
            assert!(Request::decode(&full[..cut]).is_err());
        }
        assert!(Request::decode(&[0xff, 1, 2, 3]).is_err());
        // Trailing garbage after a valid message is rejected too.
        let mut padded = Request::Stats.encode();
        padded.push(0);
        assert_eq!(Request::decode(&padded), Err(WireError::TrailingBytes(1)));
        // Same discipline for ingestion frames.
        let full = Request::Ingest {
            tenant: "t".into(),
            batch: Box::new(IngestBatch {
                facts: vec![vec![Value::Int(1), Value::str("x")]],
                dim_upserts: vec![DimUpsert {
                    table: "d".into(),
                    key_column: 0,
                    row: vec![Value::Int(2)],
                }],
                dim_deletes: vec![DimDelete {
                    table: "d".into(),
                    key_column: 0,
                    key: 9,
                }],
            }),
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Request::decode(&full[..cut]).is_err());
        }
    }

    #[test]
    fn hostile_collection_lengths_do_not_allocate() {
        // InList claiming u32::MAX values inside a tiny frame.
        let mut buf = Vec::new();
        put_u8(&mut buf, 3);
        put_str(&mut buf, "c");
        put_u32(&mut buf, u32::MAX);
        let err = decode_predicate(&mut Cursor::new(&buf), 0).unwrap_err();
        assert!(matches!(err, WireError::BadLength(_)), "{err:?}");
    }

    #[test]
    fn predicate_nesting_is_depth_limited() {
        let mut buf = Vec::new();
        for _ in 0..200 {
            put_u8(&mut buf, 6); // Not(
        }
        put_u8(&mut buf, 0); // True
        let err = decode_predicate(&mut Cursor::new(&buf), 0).unwrap_err();
        assert_eq!(err, WireError::DepthExceeded);
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let payload = Request::Stats.encode();
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        let mut read = &stream[..];
        assert_eq!(read_frame(&mut read).unwrap().unwrap(), payload);
        assert!(read_frame(&mut read).unwrap().is_none());

        // A torn frame (header promises more than arrives) is UnexpectedEof.
        let mut torn = &stream[..stream.len() - 1];
        let err = read_frame(&mut torn).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // An oversize declared length is rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = read_frame(&mut &huge[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
