//! Pipeline configuration.
//!
//! The engine's current [`CjoinConfig`] is the one source of the pipeline's
//! two widths (`scan_workers`, `distributor_shards`). A width set explicitly,
//! through a builder or struct update, is used as given; the shards' default
//! is sized from the host once ([`shard_width_for`]).

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use cjoin_common::{Error, Result};
use cjoin_storage::SyncPolicy;

use crate::fault::FaultPlan;

/// The default shard width on a host with `cores` cores: every core but the
/// scan's and one more, between two and five shards. Each shard runs the
/// Filter chain and aggregates its own batches, so on up to three cores there
/// are two, and a second shard keeps a core busy beside the scan.
pub fn shard_width_for(cores: usize) -> usize {
    cores.saturating_sub(2).clamp(1, 4) + 1
}

/// `std::thread::available_parallelism()`, read once per process so every
/// default configuration and every engine sees the same count.
pub(crate) fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Configuration of a [`CjoinEngine`](crate::engine::CjoinEngine).
#[derive(Debug, Clone, PartialEq)]
pub struct CjoinConfig {
    /// Maximum number of concurrently registered queries (the paper's `maxConc`).
    /// Determines the width of every query bit-vector.
    pub max_concurrency: usize,
    /// Number of fact tuples per batch handed between pipeline threads.
    pub batch_size: usize,
    /// Number of Distributor shards, each reading its own lane and running the
    /// whole join for the batches on it: the Filter chain (§3.2.2, early skip
    /// and the batched kernel always on), then aggregation. Each scan worker
    /// hands every batch, whole, to the next shard in its own rotation and
    /// broadcasts control tuples to all `N`. At query end every shard folds its
    /// partial aggregate into a shared merge slot and the last one to do so
    /// delivers the result. Defaults to [`shard_width_for`] the host's
    /// `available_parallelism()`.
    pub distributor_shards: usize,
    /// Number of parallel continuous-scan (Preprocessor) workers. The fact
    /// table's page range is split into that many static segments (one — the
    /// whole table, the paper's Preprocessor — by default), each owned by a scan
    /// worker that runs the full per-row path over its own segment cursor.
    /// Admission emits a query's start control tuple and then sends the install
    /// to every worker; the worker that completes the query's pass last emits
    /// the single end-of-query control tuple, in-band behind the data.
    pub scan_workers: usize,
    /// Build and scan a compressed replica (§5, Column Stores / Compressed
    /// Tables): the engine builds a read-optimised columnar replica of the
    /// fact table at start, each ingestion commit encodes the row groups it
    /// completed into it, and the continuous scan reads the chunks the
    /// replica covers from it — evaluating fact predicates and snapshot
    /// visibility directly on encoded data (one probe per RLE run, dictionary
    /// predicates pre-translated to code comparisons at install), skipping
    /// row groups whose zone maps no active query can match, and materialising
    /// only the union of columns the admitted queries' join keys, group-bys,
    /// and aggregates need (late materialization). Rows it does not cover
    /// (fewer than a row group appended since its last group, or in a row
    /// group that failed its checksum) come from the row store; results are
    /// bit-identical either
    /// way. The zone maps also end each query's pass at its last row group
    /// that can match (§5, Fact Table Partitioning, without declared
    /// partitions). Off, no replica exists, every row comes from the row store
    /// and every query runs its full pass.
    pub columnar_scan: bool,
    /// Deterministic fault schedule for supervision tests; `None` (the default)
    /// makes every injection point a single untaken branch. See [`FaultPlan`].
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Path of the write-ahead log behind the durable ingestion path. `None`
    /// (the default) disables durability: `IngestSession` commits mutate the
    /// catalog in memory only and nothing survives a restart. With a path set,
    /// engine start replays the log into the catalog before the pipeline
    /// spawns (tolerating torn tails and corrupt records by truncating at the
    /// first defect), and every committed ingestion batch is durable per the
    /// configured [`SyncPolicy`] before it becomes visible.
    pub wal_path: Option<PathBuf>,
    /// When the WAL is forced to stable storage; ignored without `wal_path`.
    /// Defaults to [`SyncPolicy::OnCommit`] (group commit: one fsync per
    /// ingestion batch).
    pub wal_sync: SyncPolicy,
}

impl Default for CjoinConfig {
    fn default() -> Self {
        Self {
            max_concurrency: 512,
            batch_size: 1024,
            distributor_shards: shard_width_for(host_cores()),
            scan_workers: 1,
            columnar_scan: false,
            fault_plan: None,
            wal_path: None,
            wal_sync: SyncPolicy::OnCommit,
        }
    }
}

impl CjoinConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] describing the first violated constraint.
    pub fn validate(&self) -> Result<()> {
        if self.max_concurrency == 0 {
            return Err(Error::invalid_config("max_concurrency must be positive"));
        }
        if self.batch_size == 0 {
            return Err(Error::invalid_config("batch_size must be positive"));
        }
        if self.distributor_shards == 0 {
            return Err(Error::invalid_config("distributor_shards must be positive"));
        }
        if self.distributor_shards > 256 {
            return Err(Error::invalid_config(
                "distributor_shards must be at most 256",
            ));
        }
        if self.scan_workers == 0 {
            return Err(Error::invalid_config("scan_workers must be positive"));
        }
        if self.scan_workers > 64 {
            return Err(Error::invalid_config("scan_workers must be at most 64"));
        }
        Ok(())
    }

    /// Convenience: a configuration with the given `maxConc`.
    pub fn with_max_concurrency(mut self, n: usize) -> Self {
        self.max_concurrency = n;
        self
    }

    /// Convenience: a configuration with the given batch size.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n;
        self
    }

    /// Convenience: a configuration with the given number of Distributor shards
    /// (the aggregation-stage knob used by the `abl_distributor_sharding`
    /// ablation).
    pub fn with_distributor_shards(mut self, n: usize) -> Self {
        self.distributor_shards = n;
        self
    }

    /// Convenience: a configuration with the given number of continuous-scan
    /// workers (the front-end knob used by the `abl_scan_parallelism`
    /// ablation).
    pub fn with_scan_workers(mut self, n: usize) -> Self {
        self.scan_workers = n;
        self
    }

    /// Convenience: a configuration that builds (or does not build) the
    /// compressed replica the scan reads covered chunks from (the
    /// storage-layout knob used by the `abl_columnar_scan` ablation).
    pub fn with_columnar_scan(mut self, enabled: bool) -> Self {
        self.columnar_scan = enabled;
        self
    }

    /// Convenience: a configuration carrying a deterministic fault schedule.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Convenience: a configuration with a write-ahead log at `path` (enables
    /// the durable ingestion path; see [`CjoinConfig::wal_path`]).
    pub fn with_wal(mut self, path: impl Into<PathBuf>) -> Self {
        self.wal_path = Some(path.into());
        self
    }

    /// Convenience: a configuration with the given WAL sync policy.
    pub fn with_wal_sync(mut self, policy: SyncPolicy) -> Self {
        self.wal_sync = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = CjoinConfig::default();
        c.validate().unwrap();
        assert!(
            c.max_concurrency >= 256,
            "paper evaluates up to 256 queries"
        );
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(CjoinConfig {
            max_concurrency: 0,
            ..CjoinConfig::default()
        }
        .validate()
        .is_err());
        assert!(CjoinConfig {
            batch_size: 0,
            ..CjoinConfig::default()
        }
        .validate()
        .is_err());
        assert!(CjoinConfig {
            distributor_shards: 0,
            ..CjoinConfig::default()
        }
        .validate()
        .is_err());
        assert!(CjoinConfig {
            distributor_shards: 257,
            ..CjoinConfig::default()
        }
        .validate()
        .is_err());
        assert!(CjoinConfig {
            scan_workers: 0,
            ..CjoinConfig::default()
        }
        .validate()
        .is_err());
        assert!(CjoinConfig {
            scan_workers: 65,
            ..CjoinConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn builder_style_setters() {
        let c = CjoinConfig::default()
            .with_max_concurrency(64)
            .with_batch_size(128)
            .with_distributor_shards(4)
            .with_scan_workers(2);
        assert_eq!(c.max_concurrency, 64);
        assert_eq!(c.batch_size, 128);
        assert_eq!(c.distributor_shards, 4);
        assert_eq!(c.scan_workers, 2);
        c.validate().unwrap();
    }

    #[test]
    fn scan_defaults_to_the_classic_single_worker() {
        assert_eq!(CjoinConfig::default().scan_workers, 1);
    }

    #[test]
    fn columnar_scan_defaults_off_and_builds() {
        assert!(!CjoinConfig::default().columnar_scan);
        let c = CjoinConfig::default().with_columnar_scan(true);
        assert!(c.columnar_scan);
        c.validate().unwrap();
    }

    #[test]
    fn shard_width_is_two_on_small_hosts_and_stays_within_two_to_five() {
        let widths: Vec<usize> = [1, 2, 3, 4, 6, 16]
            .into_iter()
            .map(shard_width_for)
            .collect();
        assert_eq!(widths, [2, 2, 2, 3, 5, 5]);
        assert_eq!(
            CjoinConfig::default().distributor_shards,
            shard_width_for(host_cores())
        );
    }

    #[test]
    fn durability_defaults_off_with_group_commit_sync() {
        let c = CjoinConfig::default();
        assert!(c.wal_path.is_none());
        assert_eq!(c.wal_sync, SyncPolicy::OnCommit);
        let c = c
            .with_wal("/tmp/cjoin.wal")
            .with_wal_sync(SyncPolicy::EveryRecord);
        assert_eq!(
            c.wal_path.as_deref(),
            Some(std::path::Path::new("/tmp/cjoin.wal"))
        );
        assert_eq!(c.wal_sync, SyncPolicy::EveryRecord);
        c.validate().unwrap();
    }

    #[test]
    fn fault_plan_defaults_to_none_and_builds() {
        let c = CjoinConfig::default();
        assert!(c.fault_plan.is_none());
        let plan = FaultPlan::seeded(1).build();
        let c = c.with_fault_plan(Arc::clone(&plan));
        assert!(c.fault_plan.is_some());
        c.validate().unwrap();
    }
}
