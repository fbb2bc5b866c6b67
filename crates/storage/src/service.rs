//! The storage service itself: buckets of objects behind a thread-safe API.
//!
//! This is the native (in-process) implementation used by the Classic Cloud
//! runtime's worker threads. The discrete-event simulator does not call this
//! code; it models the same endpoint with `ppc-des` servers and the same
//! [`LatencyModel`].

use crate::consistency::ConsistencyModel;
use crate::latency::LatencyModel;
use crate::metering::Metering;
use ppc_chaos::{FaultSchedule, RunClock, StorageFault};
use ppc_core::retry::RetryPolicy;
use ppc_core::rng::Pcg32;
use ppc_core::sync::RwLock;
use ppc_core::{PpcError, Result};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct StoredObject {
    data: Arc<Vec<u8>>,
    written_at_s: f64,
}

type Bucket = HashMap<String, StoredObject>;

/// An S3/Azure-Blob-like object store.
///
/// ```
/// use ppc_storage::service::StorageService;
/// let s3 = StorageService::in_memory();
/// s3.create_bucket("job-in").unwrap();
/// s3.put("job-in", "f0.fa", b">r1\nACGT\n".to_vec()).unwrap();
/// assert_eq!(s3.list("job-in", "f").unwrap(), vec!["f0.fa"]);
/// assert_eq!(&*s3.get("job-in", "f0.fa").unwrap(), b">r1\nACGT\n");
/// ```
pub struct StorageService {
    buckets: RwLock<HashMap<String, Bucket>>,
    latency: LatencyModel,
    consistency: ConsistencyModel,
    metering: Metering,
    epoch: Instant,
    /// Fraction of modeled latency to actually sleep in native mode.
    /// 0.0 (default) = never sleep; 1.0 = full fidelity.
    delay_scale: f64,
    /// Optional chaos injection: brownout/partition windows queried
    /// against a clock started when the schedule was attached.
    chaos: RwLock<Option<ChaosInjection>>,
}

struct ChaosInjection {
    schedule: Arc<FaultSchedule>,
    clock: RunClock,
}

impl StorageService {
    /// A strongly consistent, zero-latency store (unit tests, baselines).
    pub fn in_memory() -> Arc<StorageService> {
        Arc::new(StorageService {
            buckets: RwLock::new(HashMap::new()),
            latency: LatencyModel::FREE,
            consistency: ConsistencyModel::strong(),
            metering: Metering::new(),
            epoch: Instant::now(),
            delay_scale: 0.0,
            chaos: RwLock::new(None),
        })
    }

    /// A store with cloud-like latency and eventual consistency.
    pub fn cloud(
        latency: LatencyModel,
        consistency: ConsistencyModel,
        delay_scale: f64,
    ) -> Arc<StorageService> {
        assert!(delay_scale >= 0.0);
        Arc::new(StorageService {
            buckets: RwLock::new(HashMap::new()),
            latency,
            consistency,
            metering: Metering::new(),
            epoch: Instant::now(),
            delay_scale,
            chaos: RwLock::new(None),
        })
    }

    /// Attach a [`FaultSchedule`]: from now on, requests issued inside one
    /// of its storage outage windows (measured from this call) fail with a
    /// retryable [`PpcError::Transient`] — a brownout clients with backoff
    /// ride out, or a partition that lasts the whole window.
    pub fn set_chaos(&self, schedule: Arc<FaultSchedule>) {
        *self.chaos.write() = Some(ChaosInjection {
            schedule,
            clock: RunClock::start(),
        });
    }

    /// Detach any fault schedule; the service is healthy again.
    pub fn clear_chaos(&self) {
        *self.chaos.write() = None;
    }

    /// Fail the current request if a storage outage window is in effect.
    fn chaos_check(&self) -> Result<()> {
        let chaos = self.chaos.read();
        if let Some(inj) = chaos.as_ref() {
            match inj.schedule.storage_fault(inj.clock.now_s()) {
                Some(StorageFault::Brownout) => {
                    return Err(PpcError::Transient("storage brownout".into()));
                }
                Some(StorageFault::Partition) => {
                    return Err(PpcError::Transient("storage partition".into()));
                }
                None => {}
            }
        }
        Ok(())
    }

    /// Usage counters for billing.
    pub fn metering(&self) -> &Metering {
        &self.metering
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn sleep_for(&self, seconds: f64) {
        if self.delay_scale > 0.0 && seconds > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(seconds * self.delay_scale));
        }
    }

    /// Create a bucket; errors if it already exists.
    pub fn create_bucket(&self, name: &str) -> Result<()> {
        self.metering.record_request();
        self.sleep_for(self.latency.request_seconds());
        let mut buckets = self.buckets.write();
        if buckets.contains_key(name) {
            return Err(PpcError::AlreadyExists(format!("bucket '{name}'")));
        }
        buckets.insert(name.to_string(), Bucket::new());
        Ok(())
    }

    /// Create a bucket if absent; idempotent convenience for job setup.
    pub fn ensure_bucket(&self, name: &str) {
        self.metering.record_request();
        self.buckets.write().entry(name.to_string()).or_default();
    }

    /// Store an object (replacing any prior version).
    pub fn put(&self, bucket: &str, key: &str, data: Vec<u8>) -> Result<()> {
        if key.is_empty() {
            return Err(PpcError::InvalidArgument("empty object key".into()));
        }
        self.chaos_check()?;
        self.metering.record_request();
        let size = data.len() as u64;
        self.metering.record_bytes_in(size);
        self.sleep_for(self.latency.transfer_seconds(size));
        let mut buckets = self.buckets.write();
        let b = buckets
            .get_mut(bucket)
            .ok_or_else(|| PpcError::NotFound(format!("bucket '{bucket}'")))?;
        let prior = b.get(key).map(|o| o.data.len() as u64).unwrap_or(0);
        b.insert(
            key.to_string(),
            StoredObject {
                data: Arc::new(data),
                written_at_s: self.now_s(),
            },
        );
        self.metering.record_stored_delta(size, prior);
        Ok(())
    }

    /// Fetch an object. May return `NotFound` for *recently written* objects
    /// under an eventually consistent model — callers are expected to retry,
    /// exactly as the paper's workers do.
    pub fn get(&self, bucket: &str, key: &str) -> Result<Arc<Vec<u8>>> {
        self.chaos_check()?;
        self.metering.record_request();
        let (data, age_s) = {
            let buckets = self.buckets.read();
            let b = buckets
                .get(bucket)
                .ok_or_else(|| PpcError::NotFound(format!("bucket '{bucket}'")))?;
            let o = b
                .get(key)
                .ok_or_else(|| PpcError::NotFound(format!("object '{bucket}/{key}'")))?;
            (o.data.clone(), self.now_s() - o.written_at_s)
        };
        if !self.consistency.read_visible(age_s) {
            return Err(PpcError::Transient(format!(
                "object '{bucket}/{key}' not yet visible (eventual consistency)"
            )));
        }
        self.metering.record_bytes_out(data.len() as u64);
        self.sleep_for(self.latency.transfer_seconds(data.len() as u64));
        Ok(data)
    }

    /// Fetch with bounded retry, the client-side idiom for eventual
    /// consistency. Retries only [`PpcError::Transient`] failures, through
    /// the shared [`RetryPolicy`]: exponential backoff (seeded at one
    /// request round-trip) with jitter, slept at the same `delay_scale`
    /// as modeled latency.
    pub fn get_with_retry(
        &self,
        bucket: &str,
        key: &str,
        max_attempts: u32,
    ) -> Result<Arc<Vec<u8>>> {
        let rtt = self.latency.request_seconds().max(0.0);
        let policy = RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay: Duration::from_secs_f64(rtt),
            max_delay: Duration::from_secs_f64(rtt * 8.0),
            multiplier: 2.0,
            jitter: 0.5,
            budget: None,
        };
        // Deterministic per-key jitter stream (no global RNG state).
        let seed = key
            .bytes()
            .fold(0x5u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
        let mut rng = Pcg32::new(seed);
        policy.run(
            &mut rng,
            |d| self.sleep_for(d.as_secs_f64()),
            |_| self.get(bucket, key),
        )
    }

    /// List keys in a bucket with the given prefix, sorted.
    pub fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<String>> {
        self.metering.record_request();
        let buckets = self.buckets.read();
        let b = buckets
            .get(bucket)
            .ok_or_else(|| PpcError::NotFound(format!("bucket '{bucket}'")))?;
        #[allow(clippy::disallowed_methods)] // sorted before use
        let mut keys: Vec<String> = b
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        keys.sort_unstable();
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let s = StorageService::in_memory();
        s.create_bucket("in").unwrap();
        s.put("in", "a.fa", b"ACGT".to_vec()).unwrap();
        assert_eq!(*s.get("in", "a.fa").unwrap(), b"ACGT".to_vec());
    }

    #[test]
    fn missing_object_and_bucket() {
        let s = StorageService::in_memory();
        assert_eq!(s.get("nope", "k").unwrap_err().code(), "NotFound");
        s.create_bucket("b").unwrap();
        assert_eq!(s.get("b", "k").unwrap_err().code(), "NotFound");
    }

    #[test]
    fn duplicate_bucket_rejected_but_ensure_is_idempotent() {
        let s = StorageService::in_memory();
        s.create_bucket("b").unwrap();
        assert_eq!(s.create_bucket("b").unwrap_err().code(), "AlreadyExists");
        s.ensure_bucket("b");
        s.ensure_bucket("c");
        assert!(s.list("c", "").unwrap().is_empty());
    }

    #[test]
    fn list_filters_and_sorts() {
        let s = StorageService::in_memory();
        s.create_bucket("b").unwrap();
        for k in ["in/2", "in/1", "out/1"] {
            s.put("b", k, vec![0]).unwrap();
        }
        assert_eq!(s.list("b", "in/").unwrap(), vec!["in/1", "in/2"]);
        assert_eq!(s.list("b", "").unwrap().len(), 3);
    }

    #[test]
    fn overwrite_updates_stored_bytes() {
        let s = StorageService::in_memory();
        s.create_bucket("b").unwrap();
        s.put("b", "k", vec![0; 100]).unwrap();
        s.put("b", "k", vec![0; 40]).unwrap();
        let snap = s.metering().snapshot();
        assert_eq!(snap.stored_bytes, 40);
        assert_eq!(snap.peak_stored_bytes, 100);
        assert_eq!(snap.bytes_in, 140);
    }

    #[test]
    fn eventual_consistency_miss_then_retry_succeeds() {
        // 100% miss inside a long window: plain get fails Transient,
        // and get_with_retry exhausts attempts with the Transient error.
        let s = StorageService::cloud(
            LatencyModel::FREE,
            ConsistencyModel::eventual(3600.0, 1.0, 1),
            0.0,
        );
        s.create_bucket("b").unwrap();
        s.put("b", "k", vec![1]).unwrap();
        let e = s.get("b", "k").unwrap_err();
        assert!(e.is_retryable());
        assert!(s.get_with_retry("b", "k", 3).unwrap_err().is_retryable());

        // 50% miss: retry loop succeeds with overwhelming probability.
        let s = StorageService::cloud(
            LatencyModel::FREE,
            ConsistencyModel::eventual(3600.0, 0.5, 2),
            0.0,
        );
        s.create_bucket("b").unwrap();
        s.put("b", "k", vec![1]).unwrap();
        assert!(s.get_with_retry("b", "k", 64).is_ok());
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let s = StorageService::in_memory();
        s.create_bucket("b").unwrap();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..50 {
                        let key = format!("t{t}/o{i}");
                        s.put("b", &key, vec![t as u8; 64]).unwrap();
                        assert_eq!(s.get("b", &key).unwrap().len(), 64);
                    }
                });
            }
        });
        assert_eq!(s.list("b", "").unwrap().len(), 400);
    }

    #[test]
    fn brownout_window_fails_transiently_then_recovers() {
        let s = StorageService::in_memory();
        s.create_bucket("b").unwrap();
        s.put("b", "k", vec![1]).unwrap();
        // Brownout for the first 50 ms after attach: requests inside the
        // window fail retryably; once it lapses the object is readable.
        s.set_chaos(Arc::new(FaultSchedule::new(1).brownout(0.0, 0.05)));
        let e = s.get("b", "k").unwrap_err();
        assert!(e.is_retryable(), "brownout must be retryable: {e}");
        assert!(s.put("b", "k2", vec![2]).unwrap_err().is_retryable());
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(*s.get("b", "k").unwrap(), vec![1]);
        s.clear_chaos();
        assert!(s.get("b", "k").is_ok());
    }

    #[test]
    fn get_with_retry_rides_out_a_brownout() {
        let s = StorageService::cloud(
            LatencyModel {
                request_latency_s: 0.005,
                ..LatencyModel::FREE
            },
            ConsistencyModel::strong(),
            1.0,
        );
        s.create_bucket("b").unwrap();
        s.put("b", "k", vec![7]).unwrap();
        s.set_chaos(Arc::new(FaultSchedule::new(2).brownout(0.0, 0.03)));
        // Backoff sleeps carry the client past the 30 ms window.
        assert_eq!(*s.get_with_retry("b", "k", 32).unwrap(), vec![7]);
    }

    #[test]
    fn empty_key_rejected() {
        let s = StorageService::in_memory();
        s.create_bucket("b").unwrap();
        assert_eq!(
            s.put("b", "", vec![]).unwrap_err().code(),
            "InvalidArgument"
        );
    }
}
