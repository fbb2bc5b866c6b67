//! # ppc-storage — a web-scale object store, in miniature
//!
//! Stands in for Amazon S3 and Windows Azure Blob storage (paper §2.1.1–2.1.2):
//! buckets of access-controlled objects reached over an HTTP-like interface,
//! priced by stored bytes, transferred bytes, and API requests.
//!
//! What the Classic Cloud framework needs from its storage — and what this
//! crate therefore models:
//!
//! * **A thread-safe service** ([`service::StorageService`]): `PUT`/`GET`/
//!   `LIST` from any number of worker threads.
//! * **An HTTP cost model** ([`latency::LatencyModel`]): per-request latency
//!   plus size/bandwidth transfer time. The native runtime can optionally
//!   sleep these out (scaled); the discrete-event simulator uses them as
//!   service times.
//! * **Eventual consistency** ([`consistency::ConsistencyModel`]): reads
//!   shortly after writes may miss, as S3's 2010 consistency model allowed.
//!   The paper leans on the *applications* being idempotent to tolerate this.
//! * **Metering** ([`metering::Metering`]): request counts, bytes in/out and
//!   peak stored bytes, convertible to dollars through
//!   `ppc_core::pricing::PriceBook`.
//! * **Entity tables** ([`table::TableService`]): the Azure Table Storage
//!   analog (partition/row keys, ETags, partition queries) that
//!   AzureBlast-style applications keep their metadata in.

pub mod consistency;
pub mod latency;
pub mod metering;
pub mod service;
pub mod table;

pub use consistency::ConsistencyModel;
pub use latency::LatencyModel;
pub use metering::{Metering, MeteringSnapshot};
pub use service::StorageService;
pub use table::{Entity, TableService};
