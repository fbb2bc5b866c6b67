//! Multi-queue service endpoint.
//!
//! SQS and Azure Queue let users "create an unlimited number of queues";
//! the Classic Cloud framework uses (at least) a scheduling queue and a
//! monitoring queue per job. [`QueueService`] is that named-queue namespace
//! plus the account's request count that SQS bills.

use crate::queue::{Queue, QueueConfig};
use ppc_core::sync::RwLock;
use ppc_core::{PpcError, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A namespace of named queues (one cloud account's queue service).
#[derive(Default)]
pub struct QueueService {
    queues: RwLock<BTreeMap<String, Arc<Queue>>>,
}

impl QueueService {
    pub fn new() -> Arc<QueueService> {
        Arc::new(QueueService::default())
    }

    /// Create a queue; errors if the name is taken or the chaos
    /// configuration holds out-of-range probabilities.
    pub fn create_queue(&self, name: &str, config: QueueConfig) -> Result<Arc<Queue>> {
        config.chaos.validate()?;
        let mut queues = self.queues.write();
        if queues.contains_key(name) {
            return Err(PpcError::AlreadyExists(format!("queue '{name}'")));
        }
        let q = Arc::new(Queue::new(name, config));
        queues.insert(name.to_string(), q.clone());
        Ok(q)
    }

    /// Look up an existing queue.
    pub fn queue(&self, name: &str) -> Result<Arc<Queue>> {
        self.queues
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PpcError::NotFound(format!("queue '{name}'")))
    }

    /// Delete a queue and all its messages (SQS deletes unconditionally).
    /// The queue is also [closed](Queue::close), so long polls still held
    /// on a surviving handle return at once instead of waiting out their
    /// window.
    pub fn delete_queue(&self, name: &str) -> Result<()> {
        let q = self
            .queues
            .write()
            .remove(name)
            .ok_or_else(|| PpcError::NotFound(format!("queue '{name}'")))?;
        q.close();
        Ok(())
    }

    /// Total billable requests across all queues (including deleted ones'
    /// surviving handles — billing follows the `Arc`, so keep handles if you
    /// delete queues mid-run and still want their bill).
    pub fn total_requests(&self) -> u64 {
        self.queues
            .read()
            .values()
            .map(|q| q.stats().requests())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::money::Usd;
    use ppc_core::pricing::AWS_2010;

    #[test]
    fn create_lookup_delete() {
        let svc = QueueService::new();
        svc.create_queue("sched", QueueConfig::default()).unwrap();
        assert!(svc.queue("sched").is_ok());
        assert_eq!(
            svc.create_queue("sched", QueueConfig::default())
                .unwrap_err()
                .code(),
            "AlreadyExists"
        );
        svc.delete_queue("sched").unwrap();
        assert_eq!(svc.queue("sched").unwrap_err().code(), "NotFound");
        assert_eq!(svc.delete_queue("sched").unwrap_err().code(), "NotFound");
    }

    #[test]
    fn billing_counts_all_queues() {
        let svc = QueueService::new();
        let a = svc.create_queue("a", QueueConfig::default()).unwrap();
        let b = svc.create_queue("b", QueueConfig::default()).unwrap();
        for _ in 0..6_000 {
            a.send("x").unwrap();
        }
        for _ in 0..4_000 {
            b.send("y").unwrap();
        }
        assert_eq!(svc.total_requests(), 10_000);
        // Table 4's "~10,000 messages: 0.01$".
        assert_eq!(AWS_2010.queue_requests(svc.total_requests()), Usd::cents(1));
    }
}
