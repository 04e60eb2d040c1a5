//! Row-store storage substrate for the CJOIN reproduction.
//!
//! The paper evaluates CJOIN on top of PostgreSQL: the fact table is scanned with an
//! "always-on" continuous scan and dimension tables are small enough to be cached in
//! memory. This crate provides the equivalent substrate:
//!
//! * [`Table`] — an in-memory, paged row store with per-row multi-version visibility
//!   (`xmin`/`xmax`), standing in for the PostgreSQL heap. Each page keeps an
//!   [`IntZone`] per integer column, so [`Table::select_where`] reads only the pages
//!   a predicate's page test cannot rule out.
//! * [`ContinuousScan`] — the circular fact-table scan that drives the CJOIN pipeline:
//!   it returns tuples in a stable order and wraps around indefinitely (§3.1, §3.3.3).
//! * [`IoModel`] / [`IoStats`] — an accounting-only model of disk behaviour
//!   (sequential vs. random page costs). The paper's experiments run against a 100 GB
//!   table on spinning disks; we run in memory and *account* for the I/O that each
//!   access pattern would have generated, so the experiment harness can report
//!   modelled scan times alongside measured CPU times (see the `io` module docs).
//! * [`SnapshotManager`] — snapshot-isolation bookkeeping for the §3.5 mixed
//!   query/update workloads.
//! * [`Catalog`] — a named collection of tables shared by the engines.
//! * [`ColumnarTable`] / [`ColumnarContinuousScan`] — the §5 "Column Stores" and
//!   "Compressed Tables" extensions: a read-optimised columnar replica with
//!   dictionary/RLE compression and a projected continuous scan that only touches the
//!   columns the current query mix accesses. Its row groups' zone maps also stand in
//!   for §5's "Fact Table Partitioning": a clustered column's groups have disjoint
//!   zones, so they tell a scan where a range-restricted query can stop.
//! * [`WarehouseLog`] — the write-ahead log behind the durable ingestion path:
//!   checksummed, epoch-stamped records with group commit, torn-tail-tolerant
//!   replay, and the snapshot commit protocol that makes each ingestion batch
//!   visible atomically.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod columnar;
pub mod compress;
pub mod io;
pub mod row;
pub mod scan;
pub mod schema;
pub mod snapshot;
pub mod table;
pub mod value;
pub mod wal;

pub use catalog::Catalog;
pub use columnar::{
    ColumnarContinuousScan, ColumnarTable, CompressionPolicy, EncodedColumn, IntEncoding, RowGroup,
    ScanVolume, ZoneCodes, ZoneMap, DEFAULT_ROW_GROUP_ROWS,
};
pub use compress::{BitPackedVec, DeltaVec, Dictionary, RleVec, RunCursor};
pub use io::{AccessKind, IoModel, IoStats};
pub use row::{Row, RowId};
pub use scan::{segment_ranges, ContinuousScan, ScanBatch, ScanStep, TableScan};
pub use schema::{Column, ColumnId, ColumnType, Schema};
pub use snapshot::{RowVersion, SnapshotId, SnapshotManager};
pub use table::{IntZone, PageZones, Table};
pub use value::Value;
pub use wal::{apply_record, ReplayReport, SyncPolicy, WalDefect, WalRecord, WarehouseLog};
