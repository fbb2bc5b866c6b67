//! # ppc-queue — a distributed message queue, in miniature
//!
//! Stands in for Amazon SQS and the Azure Queue service (paper §2.1.1):
//! *"SQS is a reliable, scalable, distributed web-scale message queue service
//! that is eventually consistent and ideal for small, short-lived transient
//! messages. ... SQS does not guarantee the order of the messages, the
//! deletion of messages or the availability of all the messages for a
//! request, though it does guarantee eventual availability over multiple
//! requests. Each message has a configurable visibility timeout."*
//!
//! Those are exactly the semantics implemented here:
//!
//! * **At-least-once delivery** — a received message is *hidden*, not
//!   removed; unless deleted before its visibility timeout lapses it
//!   reappears and will be processed again. This is the Classic Cloud
//!   framework's entire fault-tolerance story.
//! * **No ordering** — receives draw pseudo-randomly from the visible pool.
//! * **Eventual availability** — a receive may return empty even when
//!   messages exist ([`chaos::ChaosConfig::empty_receive_probability`]).
//! * **Stale receipts** — deleting with a receipt whose message has already
//!   reappeared fails; the re-delivered copy wins, and the application's
//!   idempotence absorbs the duplicate execution.
//! * **Request metering** — every API call counts; SQS bills per request.

pub mod chaos;
pub mod message;
pub mod polling;
pub mod queue;
pub mod service;

pub use chaos::ChaosConfig;
pub use message::{Message, MessageId, ReceiptHandle};
pub use queue::{Queue, QueueConfig, QueueMetricsSnapshot, QueueStats};
pub use service::QueueService;
