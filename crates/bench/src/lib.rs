//! # ppc-bench — regenerate every table and figure of the paper
//!
//! Each `figNN_*` / `tableN_*` function reproduces one exhibit of the
//! paper's evaluation as a `ppc_core::report` table; `--bin all` prints the
//! whole evaluation section in order, or the exhibits it is given by name
//! (`cargo run -p ppc-bench --bin all -- fig04 table4`).
//!
//! Absolute values are *modeled* seconds/dollars from the calibrated
//! simulator (DESIGN.md §6 lists the anchors); the claims being reproduced
//! are the paper's *shapes* — orderings, ratios, crossovers — which the
//! tests at the bottom of this crate assert.

pub mod ablations;
pub mod figures;
pub mod tables;
pub mod traces;
pub mod workflows;

pub use figures::*;
pub use tables::*;
