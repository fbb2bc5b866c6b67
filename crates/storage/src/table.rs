//! A NoSQL entity table — the Azure Table Storage analog.
//!
//! The paper's related work (§7) describes AzureBlast as "developed using
//! Azure Queues, Tables and Blob Storage"; tables are the piece our Classic
//! Cloud framework uses for durable job metadata (see
//! `ppc_classic::history`). The model is Azure's: entities addressed by
//! `(partition_key, row_key)`, partition queries in row-key order, and an
//! ETag stamped on every write.

use ppc_core::sync::RwLock;
use ppc_core::{PpcError, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// An entity: schemaless properties under a composite key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    pub partition_key: String,
    pub row_key: String,
    /// Property bag (Azure Tables are schemaless; values are strings here).
    pub properties: BTreeMap<String, String>,
    /// Concurrency token, bumped on every write.
    pub etag: u64,
}

impl Entity {
    pub fn new(partition_key: impl Into<String>, row_key: impl Into<String>) -> Entity {
        Entity {
            partition_key: partition_key.into(),
            row_key: row_key.into(),
            properties: BTreeMap::new(),
            etag: 0,
        }
    }

    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Entity {
        self.properties.insert(key.into(), value.into());
        self
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.properties.get(key).map(String::as_str)
    }
}

type Partition = BTreeMap<String, Entity>;

/// One table: a namespace of partitions.
#[derive(Default)]
pub struct TableService {
    tables: RwLock<BTreeMap<String, BTreeMap<String, Partition>>>,
    next_etag: AtomicU64,
}

impl TableService {
    pub fn new() -> TableService {
        TableService::default()
    }

    fn tick(&self) -> u64 {
        self.next_etag.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Create a table (idempotent, like `CreateTableIfNotExists`).
    pub fn ensure_table(&self, name: &str) {
        self.tick();
        self.tables.write().entry(name.to_string()).or_default();
    }

    /// Insert or replace unconditionally (`InsertOrReplace`).
    pub fn upsert(&self, table: &str, mut entity: Entity) -> Result<u64> {
        let etag = self.tick();
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| PpcError::NotFound(format!("table '{table}'")))?;
        entity.etag = etag;
        t.entry(entity.partition_key.clone())
            .or_default()
            .insert(entity.row_key.clone(), entity);
        Ok(etag)
    }

    /// All entities of one partition, in row-key order (the fast query
    /// pattern Azure Tables are designed around).
    pub fn query_partition(&self, table: &str, partition_key: &str) -> Result<Vec<Entity>> {
        self.tick();
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| PpcError::NotFound(format!("table '{table}'")))?;
        Ok(t.get(partition_key)
            .map(|p| p.values().cloned().collect())
            .unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> TableService {
        let s = TableService::new();
        s.ensure_table("jobs");
        s
    }

    #[test]
    fn partition_queries_ordered() {
        let s = svc();
        for rk in ["run-003", "run-001", "run-002"] {
            s.upsert("jobs", Entity::new("cap3", rk).with("status", "done"))
                .unwrap();
        }
        s.upsert("jobs", Entity::new("blast", "run-009")).unwrap();
        let rows = s.query_partition("jobs", "cap3").unwrap();
        let keys: Vec<&str> = rows.iter().map(|e| e.row_key.as_str()).collect();
        assert_eq!(keys, vec!["run-001", "run-002", "run-003"]);
        assert!(rows.iter().all(|e| e.get("status") == Some("done")));
        assert_eq!(rows[0].get("missing"), None);
        assert!(s.query_partition("jobs", "ghost").unwrap().is_empty());
        assert!(s.query_partition("nope", "cap3").is_err());
    }

    #[test]
    fn concurrent_writers() {
        let s = std::sync::Arc::new(svc());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        s.upsert("jobs", Entity::new(format!("p{t}"), format!("r{i}")))
                            .unwrap();
                    }
                });
            }
        });
        for t in 0..8 {
            assert_eq!(
                s.query_partition("jobs", &format!("p{t}")).unwrap().len(),
                50
            );
        }
    }
}
