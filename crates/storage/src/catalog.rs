//! Named collection of tables.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use cjoin_common::{Error, Result};

use crate::snapshot::SnapshotManager;
use crate::table::Table;

/// The warehouse catalog: the fact table, its dimension tables, and the snapshot
/// manager they share.
///
/// Both engines (CJOIN and the query-at-a-time baseline) operate over the same
/// catalog, which is what makes their results directly comparable in the tests and
/// benchmarks.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
    fact_table: RwLock<Option<String>>,
    snapshots: Arc<SnapshotManager>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table under its schema name. Replaces any previous registration.
    pub fn add_table(&self, table: Arc<Table>) {
        self.tables.write().insert(table.name().to_string(), table);
    }

    /// Registers `table` and marks it as the fact table.
    pub fn add_fact_table(&self, table: Arc<Table>) {
        *self.fact_table.write() = Some(table.name().to_string());
        self.add_table(table);
    }

    /// Looks up a table by name.
    ///
    /// # Errors
    /// Returns [`Error::UnknownTable`] if not registered.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownTable {
                name: name.to_string(),
            })
    }

    /// Returns the designated fact table.
    ///
    /// # Errors
    /// Returns [`Error::InvalidState`] if no fact table was designated.
    pub fn fact_table(&self) -> Result<Arc<Table>> {
        let name = self
            .fact_table
            .read()
            .clone()
            .ok_or_else(|| Error::invalid_state("no fact table registered"))?;
        self.table(&name)
    }

    /// Name of the designated fact table, if any.
    pub fn fact_table_name(&self) -> Option<String> {
        self.fact_table.read().clone()
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Names of all registered dimension tables (everything except the fact table),
    /// sorted.
    pub fn dimension_names(&self) -> Vec<String> {
        let fact = self.fact_table.read().clone();
        self.tables
            .read()
            .keys()
            .filter(|n| Some(n.as_str()) != fact.as_deref())
            .cloned()
            .collect()
    }

    /// The shared snapshot manager.
    pub fn snapshots(&self) -> &Arc<SnapshotManager> {
        &self.snapshots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};

    fn table(name: &str) -> Arc<Table> {
        Arc::new(Table::new(Schema::new(name, vec![Column::int("k")])))
    }

    #[test]
    fn add_and_lookup_tables() {
        let c = Catalog::new();
        c.add_table(table("customer"));
        c.add_table(table("supplier"));
        assert!(c.table("customer").is_ok());
        assert!(matches!(c.table("nope"), Err(Error::UnknownTable { .. })));
        assert_eq!(c.table_names(), vec!["customer", "supplier"]);
    }

    #[test]
    fn fact_table_designation() {
        let c = Catalog::new();
        assert!(c.fact_table().is_err());
        c.add_table(table("customer"));
        c.add_fact_table(table("lineorder"));
        assert_eq!(c.fact_table().unwrap().name(), "lineorder");
        assert_eq!(c.fact_table_name().as_deref(), Some("lineorder"));
        assert_eq!(c.dimension_names(), vec!["customer"]);
    }

    #[test]
    fn snapshot_manager_is_shared() {
        let c = Arc::new(Catalog::new());
        let s1 = c.snapshots().commit();
        assert_eq!(c.snapshots().current(), s1);
    }

    #[test]
    fn re_registering_replaces() {
        let c = Catalog::new();
        c.add_table(table("dim"));
        let t2 = table("dim");
        c.add_table(Arc::clone(&t2));
        assert!(Arc::ptr_eq(&c.table("dim").unwrap(), &t2));
        assert_eq!(c.table_names().len(), 1);
    }
}
