//! Write-ahead log for durable near-real-time ingestion.
//!
//! The paper's setting (§2.1) is a warehouse under snapshot isolation whose fact
//! table receives a sustained append stream while dimension tables mutate slowly.
//! This module supplies the durability half of that contract: every ingestion
//! batch is logged as a sequence of *epoch-stamped* records closed by a commit
//! marker, and a batch becomes visible to queries only after its commit marker is
//! durable (see [`SnapshotManager`](crate::SnapshotManager) for the visibility
//! half — the committed-watermark publish that makes the batch atomic).
//!
//! # Log format
//!
//! The log is a flat file of length-prefixed, checksummed records:
//!
//! ```text
//! ┌──────────┬──────────────┬───────────────────────────────────────┐
//! │ len: u32 │ checksum: u64│ payload (len bytes)                   │
//! │  (LE)    │  (FxHash LE) │  epoch: u64 │ kind: u8 │ body…        │
//! └──────────┴──────────────┴───────────────────────────────────────┘
//! ```
//!
//! `checksum` is the [`FxHasher`] digest of the payload bytes. Record kinds are
//! fact appends, dimension upserts, dimension deletes and the per-epoch commit
//! marker ([`WalRecord`]). All integers are little-endian; values use a compact
//! tag encoding (0 = NULL, 1 = `i64`, 2 = UTF-8 string).
//!
//! # Sync policies and group commit
//!
//! [`SyncPolicy`] picks the durability/throughput trade-off. `EveryRecord`
//! writes and fsyncs each record as it is appended. `OnCommit` is the group
//! commit: records accumulate in a userland buffer and reach the file (and the
//! disk, via one fsync) only when the batch's commit marker is written — so a
//! crash mid-batch loses the whole batch cleanly, never a prefix mixed with
//! other batches' syncs. `Never` writes on commit but leaves syncing to the OS.
//!
//! # Recovery semantics
//!
//! [`WarehouseLog::replay`] scans the log sequentially, verifying each record's
//! length and checksum and buffering records per epoch. An epoch is applied
//! only when its commit marker is reached, so a committed-but-unsynced tail is
//! discarded wholesale — never partially applied. The first torn record
//! (truncated header or payload), checksum mismatch or undecodable payload
//! stops replay and **truncates the log at that offset** (the standard
//! ARIES-style torn-tail rule: everything after the first defect is
//! untrustworthy because record boundaries can no longer be established); the
//! typed [`ReplayReport`] records what was applied, what was discarded and why.
//!
//! # Concurrency argument
//!
//! A `WarehouseLog` is owned by exactly one writer at a time (the engine wraps
//! it in a mutex and serializes ingestion batches through it), so the in-memory
//! buffer, the file offset and the sync clock need no internal locking. Readers
//! never touch the live log: recovery runs strictly before the engine opens the
//! log for appending, and queries read table state, never the log. The only
//! cross-thread hand-off is therefore "replay happened-before append", which
//! the caller's program order provides. Fault-injection helpers
//! ([`WarehouseLog::truncate_to`], [`WarehouseLog::corrupt_byte`]) mutate the
//! file through the same single-writer handle.

use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use cjoin_common::{Error, FxHasher, Result};

use crate::catalog::Catalog;
use crate::row::Row;
use crate::snapshot::SnapshotId;
use crate::value::Value;

/// Fixed per-record header: `u32` length + `u64` checksum.
const HEADER_LEN: usize = 12;
/// Upper bound on one record's payload; longer length prefixes are treated as
/// corruption (a torn or bit-flipped length would otherwise ask replay to
/// buffer gigabytes).
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

const KIND_FACT_APPEND: u8 = 1;
const KIND_DIM_UPSERT: u8 = 2;
const KIND_DIM_DELETE: u8 = 3;
const KIND_COMMIT: u8 = 4;

/// When the log forces its buffered bytes to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Write and fsync every record as it is appended: maximum durability,
    /// one disk round-trip per record.
    EveryRecord,
    /// Group commit (the default): records buffer in userland and are written
    /// and fsynced together when the batch's commit marker lands. One fsync
    /// per batch; a crash mid-batch loses the whole batch, never a prefix.
    OnCommit,
    /// Write on commit but never fsync: the OS decides when bytes reach disk.
    /// Fastest; a crash may lose recently committed batches (replay still
    /// recovers a clean prefix).
    Never,
}

/// One logical mutation in the log, stamped with the epoch of the batch that
/// carries it.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Rows appended to the fact table.
    FactAppend {
        /// The appended rows' column values.
        rows: Vec<Vec<Value>>,
    },
    /// A dimension row inserted or replaced by key.
    DimUpsert {
        /// Dimension table name.
        table: String,
        /// Column holding the dimension's key.
        key_column: usize,
        /// The new row (its `key_column` value identifies the row to replace).
        row: Vec<Value>,
    },
    /// A dimension row deleted by key.
    DimDelete {
        /// Dimension table name.
        table: String,
        /// Column holding the dimension's key.
        key_column: usize,
        /// Key of the row to delete.
        key: i64,
    },
    /// The epoch's commit marker: everything logged under the epoch becomes
    /// atomically visible once this record is durable.
    Commit,
}

/// Why replay stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalDefect {
    /// The file ends mid-header or mid-payload (a torn write).
    TornRecord,
    /// A record's checksum does not match its payload (bit rot / torn write
    /// landing inside the payload).
    ChecksumMismatch,
    /// The checksum matched but the payload does not decode (format bug or a
    /// collision-grade corruption).
    CorruptPayload,
}

impl std::fmt::Display for WalDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalDefect::TornRecord => write!(f, "torn record"),
            WalDefect::ChecksumMismatch => write!(f, "checksum mismatch"),
            WalDefect::CorruptPayload => write!(f, "corrupt payload"),
        }
    }
}

/// What [`WarehouseLog::replay`] did: how much state was rebuilt, what was
/// discarded, and whether (and why) the log was truncated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayReport {
    /// Mutation records applied (commit markers not counted).
    pub records_applied: u64,
    /// Number of epochs whose commit marker was reached.
    pub epochs_committed: u64,
    /// The largest committed epoch (`0` when nothing committed).
    pub last_epoch: u64,
    /// Records read successfully but discarded because their epoch's commit
    /// marker never appeared (the uncommitted tail).
    pub uncommitted_discarded: u64,
    /// Byte offset the log was truncated at, when a defect was found.
    pub truncated_at: Option<u64>,
    /// The defect that stopped replay, when one was found.
    pub defect: Option<WalDefect>,
}

/// The write-ahead log: an append-only file of checksummed, epoch-stamped
/// mutation records (see the module docs for format and recovery semantics).
#[derive(Debug)]
pub struct WarehouseLog {
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    /// Userland group-commit buffer (`OnCommit` / `Never` policies).
    pending: Vec<u8>,
    /// Logical log length: file bytes plus buffered bytes.
    len: u64,
    /// Nanoseconds spent in fsync so far.
    sync_ns: u64,
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> Error {
    Error::invalid_state(format!("wal {context} ({}): {e}", path.display()))
}

impl WarehouseLog {
    /// Opens (creating if absent) the log at `path` for appending.
    ///
    /// Run [`WarehouseLog::replay`] first: replay both rebuilds state and
    /// truncates any torn tail, so appends always start at a clean boundary.
    ///
    /// # Errors
    /// Fails if the file cannot be opened or its length read.
    pub fn open(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        let len = file
            .metadata()
            .map_err(|e| io_err("metadata", &path, e))?
            .len();
        Ok(Self {
            file,
            path,
            policy,
            pending: Vec::new(),
            len,
            sync_ns: 0,
        })
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Logical length of the log (durable bytes plus buffered bytes); after a
    /// successful [`WarehouseLog::commit`] this equals the file length.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total nanoseconds this log has spent waiting on fsync.
    pub fn sync_ns(&self) -> u64 {
        self.sync_ns
    }

    /// Appends one record under `epoch`, returning the logical log offset of
    /// the record's *end* (a record boundary — the crash-recovery oracle
    /// truncates copies of the log at these offsets).
    ///
    /// # Errors
    /// Fails if the bytes cannot be written (or, under
    /// [`SyncPolicy::EveryRecord`], synced).
    pub fn append(&mut self, epoch: SnapshotId, record: &WalRecord) -> Result<u64> {
        let mut payload = Vec::with_capacity(64);
        payload.extend_from_slice(&epoch.0.to_le_bytes());
        encode_record(record, &mut payload);
        let mut hasher = FxHasher::default();
        hasher.write(&payload);
        let checksum = hasher.finish();
        self.pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending.extend_from_slice(&checksum.to_le_bytes());
        self.pending.extend_from_slice(&payload);
        self.len += (HEADER_LEN + payload.len()) as u64;
        if self.policy == SyncPolicy::EveryRecord {
            self.write_out()?;
            self.sync()?;
        }
        Ok(self.len)
    }

    /// Writes the epoch's commit marker and makes the batch durable according
    /// to the sync policy. Returns the log offset after the marker.
    ///
    /// # Errors
    /// Fails if the marker cannot be written or synced.
    pub fn commit(&mut self, epoch: SnapshotId) -> Result<u64> {
        self.append(epoch, &WalRecord::Commit)?;
        self.write_out()?;
        if self.policy != SyncPolicy::Never {
            self.sync()?;
        }
        Ok(self.len)
    }

    /// Flushes the userland buffer into the file (no fsync).
    fn write_out(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file
            .seek(SeekFrom::End(0))
            .and_then(|_| self.file.write_all(&self.pending))
            .map_err(|e| io_err("write", &self.path, e))?;
        self.pending.clear();
        Ok(())
    }

    /// Forces written bytes to disk, accumulating the wait into
    /// [`WarehouseLog::sync_ns`].
    fn sync(&mut self) -> Result<()> {
        let started = Instant::now();
        self.file
            .sync_data()
            .map_err(|e| io_err("sync", &self.path, e))?;
        self.sync_ns += started.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Fault-injection helper: flushes buffered bytes and truncates the file
    /// to `len` bytes, simulating a torn write that lost the tail.
    ///
    /// # Errors
    /// Fails if the file cannot be written or truncated.
    pub fn truncate_to(&mut self, len: u64) -> Result<()> {
        self.write_out()?;
        self.file
            .set_len(len)
            .map_err(|e| io_err("truncate", &self.path, e))?;
        self.len = len;
        Ok(())
    }

    /// Fault-injection helper: flushes buffered bytes and flips every bit of
    /// the byte at `offset`, simulating silent media corruption. The log keeps
    /// appending normally afterwards; the damage surfaces at replay as a
    /// checksum mismatch.
    ///
    /// # Errors
    /// Fails if the file cannot be read or written at `offset`.
    pub fn corrupt_byte(&mut self, offset: u64) -> Result<()> {
        self.write_out()?;
        let mut byte = [0u8; 1];
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.read_exact(&mut byte))
            .map_err(|e| io_err("corrupt read", &self.path, e))?;
        byte[0] = !byte[0];
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.write_all(&byte))
            .map_err(|e| io_err("corrupt write", &self.path, e))?;
        Ok(())
    }

    /// Replays the log at `path`, invoking `apply` for every record of every
    /// *committed* epoch, in log order, as the epoch's commit marker is
    /// reached. Uncommitted trailing records are counted and discarded. The
    /// first defect (torn record, checksum mismatch, undecodable payload)
    /// stops replay and truncates the file at the defect's offset.
    ///
    /// # Errors
    /// Fails only on I/O errors reading or truncating the file (a missing file
    /// replays as empty); defects are *reported*, not errors.
    pub fn replay(
        path: impl AsRef<Path>,
        mut apply: impl FnMut(SnapshotId, &WalRecord) -> Result<()>,
    ) -> Result<ReplayReport> {
        let path = path.as_ref();
        let mut report = ReplayReport::default();
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(io_err("read", path, e)),
        };
        // Records read but not yet committed, in log order: (epoch, record).
        let mut uncommitted: Vec<(u64, WalRecord)> = Vec::new();
        let mut offset = 0usize;
        let stop = |report: &mut ReplayReport, at: usize, defect: WalDefect| {
            report.truncated_at = Some(at as u64);
            report.defect = Some(defect);
        };
        while offset < bytes.len() {
            if bytes.len() - offset < HEADER_LEN {
                stop(&mut report, offset, WalDefect::TornRecord);
                break;
            }
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
            let checksum = u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().unwrap());
            if len > MAX_RECORD_LEN {
                stop(&mut report, offset, WalDefect::CorruptPayload);
                break;
            }
            let body_start = offset + HEADER_LEN;
            let body_end = body_start + len as usize;
            if body_end > bytes.len() {
                stop(&mut report, offset, WalDefect::TornRecord);
                break;
            }
            let payload = &bytes[body_start..body_end];
            let mut hasher = FxHasher::default();
            hasher.write(payload);
            if hasher.finish() != checksum {
                stop(&mut report, offset, WalDefect::ChecksumMismatch);
                break;
            }
            let Some((epoch, record)) = decode_record(payload) else {
                stop(&mut report, offset, WalDefect::CorruptPayload);
                break;
            };
            match record {
                WalRecord::Commit => {
                    // Apply every pending record of this epoch, in log order.
                    let mut kept = Vec::new();
                    for (e, r) in uncommitted.drain(..) {
                        if e == epoch {
                            apply(SnapshotId(e), &r)?;
                            report.records_applied += 1;
                        } else {
                            kept.push((e, r));
                        }
                    }
                    uncommitted = kept;
                    report.epochs_committed += 1;
                    report.last_epoch = report.last_epoch.max(epoch);
                }
                record => uncommitted.push((epoch, record)),
            }
            offset = body_end;
        }
        report.uncommitted_discarded = uncommitted.len() as u64;
        if let Some(at) = report.truncated_at {
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err("open for truncate", path, e))?;
            file.set_len(at).map_err(|e| io_err("truncate", path, e))?;
        }
        Ok(report)
    }

    /// Replays the log into `catalog`: committed fact appends, dimension
    /// upserts and deletes are applied with [`apply_record`], and the snapshot
    /// manager's committed watermark is raised to the last committed epoch so
    /// recovered rows are visible and recovered epochs are never re-allocated.
    ///
    /// # Errors
    /// Fails on I/O errors or if a committed record references a table the
    /// catalog does not have (schema mismatch between log and catalog).
    pub fn replay_into(path: impl AsRef<Path>, catalog: &Catalog) -> Result<ReplayReport> {
        let report = Self::replay(path, |epoch, record| apply_record(catalog, epoch, record))?;
        if report.last_epoch > 0 {
            catalog
                .snapshots()
                .commit_through(SnapshotId(report.last_epoch));
        }
        Ok(report)
    }
}

/// Applies one committed WAL record to catalog state under `epoch`. Shared by
/// recovery ([`WarehouseLog::replay_into`]) and the engine's live commit path,
/// so a recovered warehouse is bit-identical to one that never crashed.
///
/// # Errors
/// Fails if the referenced table is missing or a row violates its schema.
pub fn apply_record(catalog: &Catalog, epoch: SnapshotId, record: &WalRecord) -> Result<()> {
    match record {
        WalRecord::FactAppend { rows } => {
            let fact = catalog.fact_table()?;
            for values in rows {
                fact.insert(values.clone(), epoch)?;
            }
        }
        WalRecord::DimUpsert {
            table,
            key_column,
            row,
        } => {
            let dim = catalog.table(table)?;
            let key = row
                .get(*key_column)
                .ok_or_else(|| {
                    Error::invalid_state(format!(
                        "dimension upsert for '{table}' has no column {key_column}"
                    ))
                })?
                .as_int()?;
            retire_dimension_row(&dim, *key_column, key, epoch);
            dim.insert(row.clone(), epoch)?;
        }
        WalRecord::DimDelete {
            table,
            key_column,
            key,
        } => {
            let dim = catalog.table(table)?;
            retire_dimension_row(&dim, *key_column, *key, epoch);
        }
        WalRecord::Commit => {}
    }
    Ok(())
}

/// Marks the currently visible row with `key` (if any) deleted at `epoch`.
/// Readers at older snapshots keep seeing the old version (MVCC), readers at
/// `epoch` and later do not. Only the pages whose `key_column` bounds can hold
/// `key` are read.
fn retire_dimension_row(dim: &crate::table::Table, key_column: usize, key: i64, epoch: SnapshotId) {
    // "Currently visible" = visible at the newest possible snapshot.
    let live = dim.select_where(
        SnapshotId(u64::MAX),
        |page| {
            page.int(key_column)
                .is_none_or(|zone| zone.may_contain(key))
        },
        |row| {
            row.try_get(key_column)
                .is_some_and(|v| v.as_int() == Ok(key))
        },
    );
    for (id, _) in live {
        dim.delete(id, epoch);
    }
}

/// Builds the [`Row`]s of a fact-append record (convenience for callers that
/// apply records to non-catalog stores).
pub fn rows_of(values: &[Vec<Value>]) -> Vec<Row> {
    values.iter().map(|v| Row::new(v.clone())).collect()
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(2);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn encode_values(values: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        encode_value(v, out);
    }
}

fn encode_record(record: &WalRecord, out: &mut Vec<u8>) {
    match record {
        WalRecord::FactAppend { rows } => {
            out.push(KIND_FACT_APPEND);
            out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for row in rows {
                encode_values(row, out);
            }
        }
        WalRecord::DimUpsert {
            table,
            key_column,
            row,
        } => {
            out.push(KIND_DIM_UPSERT);
            out.extend_from_slice(&(table.len() as u32).to_le_bytes());
            out.extend_from_slice(table.as_bytes());
            out.extend_from_slice(&(*key_column as u32).to_le_bytes());
            encode_values(row, out);
        }
        WalRecord::DimDelete {
            table,
            key_column,
            key,
        } => {
            out.push(KIND_DIM_DELETE);
            out.extend_from_slice(&(table.len() as u32).to_le_bytes());
            out.extend_from_slice(table.as_bytes());
            out.extend_from_slice(&(*key_column as u32).to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
        }
        WalRecord::Commit => out.push(KIND_COMMIT),
    }
}

/// Bounds-checked little-endian reader over one record payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|b| i64::from_le_bytes(b.try_into().unwrap()))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn value(&mut self) -> Option<Value> {
        match self.u8()? {
            0 => Some(Value::Null),
            1 => self.i64().map(Value::Int),
            2 => self.string().map(Value::from),
            _ => None,
        }
    }

    fn values(&mut self) -> Option<Vec<Value>> {
        let n = self.u32()? as usize;
        // Each value is at least one tag byte: reject hostile lengths early.
        if n > self.bytes.len() - self.pos {
            return None;
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Some(values)
    }

    fn exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_record(payload: &[u8]) -> Option<(u64, WalRecord)> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let epoch = r.u64()?;
    let record = match r.u8()? {
        KIND_FACT_APPEND => {
            let n = r.u32()? as usize;
            if n > payload.len() {
                return None;
            }
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(r.values()?);
            }
            WalRecord::FactAppend { rows }
        }
        KIND_DIM_UPSERT => WalRecord::DimUpsert {
            table: r.string()?,
            key_column: r.u32()? as usize,
            row: r.values()?,
        },
        KIND_DIM_DELETE => WalRecord::DimDelete {
            table: r.string()?,
            key_column: r.u32()? as usize,
            key: r.i64()?,
        },
        KIND_COMMIT => WalRecord::Commit,
        _ => return None,
    };
    r.exhausted().then_some((epoch, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::table::Table;
    use std::sync::Arc;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cjoin-wal-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        catalog.add_fact_table(Arc::new(Table::new(Schema::new(
            "fact",
            vec![Column::int("k"), Column::int("v")],
        ))));
        catalog.add_table(Arc::new(Table::new(Schema::new(
            "dim",
            vec![Column::int("key"), Column::str("attr")],
        ))));
        catalog
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::FactAppend {
                rows: vec![
                    vec![Value::int(1), Value::int(10)],
                    vec![Value::int(2), Value::int(20)],
                ],
            },
            WalRecord::DimUpsert {
                table: "dim".into(),
                key_column: 0,
                row: vec![Value::int(1), Value::str("ASIA")],
            },
            WalRecord::DimDelete {
                table: "dim".into(),
                key_column: 0,
                key: 9,
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_the_codec() {
        for (i, record) in sample_records().iter().enumerate() {
            let mut payload = Vec::new();
            payload.extend_from_slice(&(i as u64 + 1).to_le_bytes());
            encode_record(record, &mut payload);
            let (epoch, decoded) = decode_record(&payload).expect("decodes");
            assert_eq!(epoch, i as u64 + 1);
            assert_eq!(&decoded, record);
        }
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes());
        encode_record(&WalRecord::Commit, &mut payload);
        assert_eq!(decode_record(&payload), Some((7, WalRecord::Commit)));
    }

    #[test]
    fn truncated_payloads_never_decode_or_panic() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u64.to_le_bytes());
        encode_record(&sample_records()[0], &mut payload);
        for n in 0..payload.len() {
            assert_eq!(decode_record(&payload[..n]), None, "prefix of {n} bytes");
        }
        // Trailing garbage is rejected too (exhaustion check).
        payload.push(0);
        assert_eq!(decode_record(&payload), None);
    }

    #[test]
    fn append_commit_replay_roundtrip() {
        let path = temp_path("roundtrip");
        let mut log = WarehouseLog::open(&path, SyncPolicy::OnCommit).unwrap();
        for record in &sample_records() {
            log.append(SnapshotId(1), record).unwrap();
        }
        log.commit(SnapshotId(1)).unwrap();
        let mut seen = Vec::new();
        let report = WarehouseLog::replay(&path, |epoch, record| {
            seen.push((epoch, record.clone()));
            Ok(())
        })
        .unwrap();
        assert_eq!(report.records_applied, 3);
        assert_eq!(report.epochs_committed, 1);
        assert_eq!(report.last_epoch, 1);
        assert_eq!(report.truncated_at, None);
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, SnapshotId(1));
        assert_eq!(&seen[1].1, &sample_records()[1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn uncommitted_tail_is_discarded_wholesale() {
        let path = temp_path("uncommitted");
        let mut log = WarehouseLog::open(&path, SyncPolicy::EveryRecord).unwrap();
        log.append(SnapshotId(1), &sample_records()[0]).unwrap();
        log.commit(SnapshotId(1)).unwrap();
        // Epoch 2 never commits.
        log.append(SnapshotId(2), &sample_records()[1]).unwrap();
        log.append(SnapshotId(2), &sample_records()[2]).unwrap();
        let mut applied = 0;
        let report = WarehouseLog::replay(&path, |epoch, _| {
            assert_eq!(epoch, SnapshotId(1), "only the committed epoch applies");
            applied += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(applied, 1);
        assert_eq!(report.uncommitted_discarded, 2);
        assert_eq!(
            report.defect, None,
            "a clean uncommitted tail is not a defect"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_at_first_bad_record() {
        let path = temp_path("torn");
        let mut log = WarehouseLog::open(&path, SyncPolicy::EveryRecord).unwrap();
        log.append(SnapshotId(1), &sample_records()[0]).unwrap();
        let clean = log.commit(SnapshotId(1)).unwrap();
        log.append(SnapshotId(2), &sample_records()[1]).unwrap();
        let torn = clean + 5; // mid-header of the epoch-2 record
        log.truncate_to(torn).unwrap();
        drop(log);
        let report = WarehouseLog::replay(&path, |_, _| Ok(())).unwrap();
        assert_eq!(report.epochs_committed, 1);
        assert_eq!(report.truncated_at, Some(clean));
        assert_eq!(report.defect, Some(WalDefect::TornRecord));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean,
            "the log is physically truncated at the defect"
        );
        // A second replay of the truncated log is clean.
        let report = WarehouseLog::replay(&path, |_, _| Ok(())).unwrap();
        assert_eq!(report.defect, None);
        assert_eq!(report.epochs_committed, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_is_caught_by_the_checksum_and_truncated() {
        let path = temp_path("bitflip");
        let mut log = WarehouseLog::open(&path, SyncPolicy::EveryRecord).unwrap();
        let first_end = log.append(SnapshotId(1), &sample_records()[0]).unwrap();
        log.commit(SnapshotId(1)).unwrap();
        log.append(SnapshotId(2), &sample_records()[1]).unwrap();
        log.commit(SnapshotId(2)).unwrap();
        // Corrupt a payload byte of the *second* epoch's first record.
        log.corrupt_byte(first_end + HEADER_LEN as u64 + 20)
            .unwrap();
        drop(log);
        let mut applied = 0;
        let report = WarehouseLog::replay(&path, |epoch, _| {
            assert_eq!(epoch, SnapshotId(1));
            applied += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(applied, 1, "the clean committed prefix still applies");
        assert_eq!(report.defect, Some(WalDefect::ChecksumMismatch));
        // Everything from the corrupt record on is gone.
        assert!(std::fs::metadata(&path).unwrap().len() <= first_end + HEADER_LEN as u64 + 64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_into_rebuilds_catalog_state_and_watermark() {
        let path = temp_path("into");
        let mut log = WarehouseLog::open(&path, SyncPolicy::OnCommit).unwrap();
        for record in &sample_records() {
            log.append(SnapshotId(3), record).unwrap();
        }
        log.commit(SnapshotId(3)).unwrap();
        drop(log);
        let catalog = catalog();
        // Pre-existing dim row with key 9 gets deleted by the replayed DimDelete.
        catalog
            .table("dim")
            .unwrap()
            .insert(vec![Value::int(9), Value::str("OLD")], SnapshotId(0))
            .unwrap();
        let report = WarehouseLog::replay_into(&path, &catalog).unwrap();
        assert_eq!(report.epochs_committed, 1);
        assert_eq!(catalog.snapshots().current(), SnapshotId(3));
        assert_eq!(catalog.fact_table().unwrap().len(), 2);
        let dim = catalog.table("dim").unwrap();
        let visible = dim.select(catalog.snapshots().current(), |_| true);
        assert_eq!(visible.len(), 1, "key 9 deleted, key 1 upserted");
        assert_eq!(visible[0].1.int(0), 1);
        // A reader at the pre-replay snapshot still sees the old row (MVCC).
        let old = dim.select(SnapshotId(0), |_| true);
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].1.int(0), 9);
        // Fresh epochs never collide with replayed ones.
        assert!(catalog.snapshots().begin() > SnapshotId(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn upsert_replaces_by_key_within_and_across_epochs() {
        let catalog = catalog();
        let dim = catalog.table("dim").unwrap();
        for (epoch, attr) in [(1u64, "A"), (2, "B"), (3, "C")] {
            apply_record(
                &catalog,
                SnapshotId(epoch),
                &WalRecord::DimUpsert {
                    table: "dim".into(),
                    key_column: 0,
                    row: vec![Value::int(5), Value::str(attr)],
                },
            )
            .unwrap();
        }
        for (snapshot, attr) in [(1u64, "A"), (2, "B"), (3, "C"), (9, "C")] {
            let rows = dim.select(SnapshotId(snapshot), |r| r.int(0) == 5);
            assert_eq!(rows.len(), 1, "snapshot {snapshot}");
            assert_eq!(rows[0].1.get(1).as_str().unwrap(), attr);
        }
    }

    #[test]
    fn kill_at_every_byte_offset_recovers_a_clean_prefix() {
        let path = temp_path("sweep");
        let mut log = WarehouseLog::open(&path, SyncPolicy::EveryRecord).unwrap();
        let mut commit_ends = Vec::new();
        for epoch in 1..=3u64 {
            log.append(SnapshotId(epoch), &sample_records()[0]).unwrap();
            commit_ends.push(log.commit(SnapshotId(epoch)).unwrap());
        }
        drop(log);
        let full = std::fs::read(&path).unwrap();
        let copy = temp_path("sweep-copy");
        for cut in 0..=full.len() {
            std::fs::write(&copy, &full[..cut]).unwrap();
            let report = WarehouseLog::replay(&copy, |_, _| Ok(())).unwrap();
            // Committed epochs = number of commit markers wholly within the cut.
            let expect = commit_ends.iter().filter(|&&e| e <= cut as u64).count() as u64;
            assert_eq!(report.epochs_committed, expect, "cut at byte {cut}");
            assert_eq!(report.records_applied, expect, "cut at byte {cut}");
            // After truncation, a re-replay is clean and reports the same state.
            let again = WarehouseLog::replay(&copy, |_, _| Ok(())).unwrap();
            assert_eq!(again.defect, None, "cut at byte {cut}");
            assert_eq!(again.epochs_committed, expect, "cut at byte {cut}");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&copy);
    }
}
