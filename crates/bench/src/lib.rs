//! # bench-harness
//!
//! The experiment harness that regenerates every complexity claim of
//! *Quantum Communication Advantage for Leader Election and Agreement*
//! (PODC 2025). Each experiment (E1–E10; the README quickstart shows how to
//! run them) runs a quantum protocol and its classical comparator over a
//! sweep of network sizes on the metered CONGEST simulator, records the
//! measured message and round complexity, and fits the scaling exponent so
//! the *shape* of each theorem (who wins, with what exponent) can be
//! checked.
//!
//! The `experiments` binary prints every table; the Criterion benches under
//! `benches/` time representative configurations of the same runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fit;
pub mod gate;
pub mod legacy;
pub mod network_bench;
pub mod table;

pub use experiments::{
    e10_candidate_sampling, e1_complete_le, e2_tradeoff, e3_mixing_le, e4_diameter_two_le,
    e5_general_le, e6_agreement, e7_star_search, e8_star_counting, e9_walk_ablation,
};
pub use fit::fit_exponent;
pub use table::ExperimentTable;
