//! Request/byte metering for billing.
//!
//! Both S3 and Azure Blob bill on three axes (paper §2.1.1): stored bytes
//! over time, transferred bytes, and API request counts. [`Metering`] keeps
//! lock-free counters on all three; [`MeteringSnapshot`] freezes them and
//! prices them against a `PriceBook`.

use ppc_core::money::Usd;
use ppc_core::pricing::PriceBook;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe usage counters for one service endpoint.
///
/// Relaxed ordering is sufficient throughout: counters are statistically
/// aggregated after the run, never used for synchronization (cf. *Rust
/// Atomics and Locks* ch. 2, "Example: Statistics").
#[derive(Debug, Default)]
pub struct Metering {
    requests: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    stored_bytes: AtomicU64,
    peak_stored_bytes: AtomicU64,
}

impl Metering {
    pub fn new() -> Metering {
        Metering::default()
    }

    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    pub fn record_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Track stored-byte growth and maintain the high-water mark.
    pub fn record_stored_delta(&self, grew: u64, shrank: u64) {
        let now = if grew >= shrank {
            self.stored_bytes
                .fetch_add(grew - shrank, Ordering::Relaxed)
                + (grew - shrank)
        } else {
            self.stored_bytes
                .fetch_sub(shrank - grew, Ordering::Relaxed)
                - (shrank - grew)
        };
        self.peak_stored_bytes.fetch_max(now, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> MeteringSnapshot {
        MeteringSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            stored_bytes: self.stored_bytes.load(Ordering::Relaxed),
            peak_stored_bytes: self.peak_stored_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A frozen view of a [`Metering`], ready to be priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeteringSnapshot {
    pub requests: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub stored_bytes: u64,
    pub peak_stored_bytes: u64,
}

impl MeteringSnapshot {
    /// Price this usage as *storage* service usage for `months` of residence
    /// at the peak stored size (the conservative convention the paper's
    /// Table 4 uses: "Storage (1GB, 1 month)").
    pub fn storage_cost(&self, book: &PriceBook, months: f64) -> Usd {
        book.storage(self.peak_stored_bytes, months)
            + book.storage_requests(self.requests)
            + book.transfer_in(self.bytes_in)
            + book.transfer_out(self.bytes_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::pricing::{AWS_2010, GIB};

    #[test]
    fn counters_accumulate() {
        let m = Metering::new();
        m.record_request();
        m.record_request();
        m.record_bytes_in(100);
        m.record_bytes_out(40);
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.bytes_in, 100);
        assert_eq!(s.bytes_out, 40);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let m = Metering::new();
        m.record_stored_delta(100, 0);
        m.record_stored_delta(50, 0);
        m.record_stored_delta(0, 120);
        let s = m.snapshot();
        assert_eq!(s.stored_bytes, 30);
        assert_eq!(s.peak_stored_bytes, 150);
    }

    #[test]
    fn table4_style_storage_pricing() {
        let s = MeteringSnapshot {
            requests: 0,
            bytes_in: GIB,
            bytes_out: 0,
            stored_bytes: GIB,
            peak_stored_bytes: GIB,
        };
        // 1 GiB stored a month ($0.14) + 1 GiB in ($0.10) = $0.24 on AWS.
        assert_eq!(s.storage_cost(&AWS_2010, 1.0), Usd::cents(24));
    }

    #[test]
    fn concurrent_metering() {
        use std::sync::Arc;
        let m = Arc::new(Metering::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record_request();
                        m.record_stored_delta(2, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.requests, 8000);
        assert_eq!(s.stored_bytes, 8000);
        assert!(s.peak_stored_bytes >= 8000);
    }
}
