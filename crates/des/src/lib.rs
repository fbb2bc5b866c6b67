//! # ppc-des — deterministic discrete-event simulation engine
//!
//! The paper's experiments run on fleets we cannot rent at 2010 prices —
//! 16 High-CPU-Extra-Large EC2 instances, 128 Azure Small instances, a
//! 32-node × 8-core bare-metal cluster. This crate provides the
//! discrete-event engine on which `ppc-classic`, `ppc-mapreduce` and
//! `ppc-dryad` build their *simulated* runtimes, so those fleets can be
//! modeled on a laptop in virtual time.
//!
//! Design:
//!
//! * [`SimTime`] — integer microseconds; total order with no float drift.
//! * [`Engine`] — an event calendar firing `FnOnce(&mut Engine)` closures
//!   in `(time, sequence)` order off one binary heap of
//!   [`queue::EventEntry`] keys. Events are slab-stored behind stable
//!   [`EventId`] handles with O(1) cancellation and rescheduling. A
//!   closure-free fixed-delay lane ([`Engine::set_lane`]) carries periodic
//!   polls with the same keys and order, and skips whole rounds of polls
//!   its owner declares idle ([`Engine::set_quiet_horizon`]).
//! * [`resource::FifoServer`] — a `c`-server FIFO queue, the building block
//!   for modeled CPUs, disks, NICs, and service frontends.
//! * [`stats`] — counters and time-weighted gauges for utilization curves.
//!
//! Shared mutable model state lives in `Rc<RefCell<_>>` captured by event
//! closures — the engine is strictly single-threaded, which is what makes
//! determinism cheap (see *Rust Atomics and Locks* on why sharing across
//! threads would demand much heavier machinery for zero benefit here).

pub mod engine;
pub mod queue;
pub mod resource;
pub mod stats;
pub mod time;

pub use engine::{Engine, EventId};
pub use queue::{EventQueue, QueueKind};
pub use resource::FifoServer;
pub use time::SimTime;
