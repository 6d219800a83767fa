//! Workspace façade crate for the reproduction of *Quantum Communication
//! Advantage for Leader Election and Agreement* (Dufoulon–Magniez–Pandurangan,
//! PODC 2025).
//!
//! This crate exists so the repository-level integration tests (`tests/`)
//! and examples (`examples/`) have a package to hang off; the substance
//! lives in the member crates, re-exported here for convenience:
//!
//! * [`congest_net`] — the metered CONGEST simulator (CSR graph core,
//!   zero-allocation round engine, random-walk machinery, topologies),
//! * [`quantum_sim`] — closed-form quantum subroutine engines, with a scalar
//!   state-vector reference for tests,
//! * [`qle`] — the paper's five quantum leader-election protocols and the
//!   quantum agreement protocol,
//! * [`classical_baselines`] — the classical comparators,
//! * [`bench_harness`] — the E1–E10 experiment suite.

#![forbid(unsafe_code)]

pub use bench_harness;
pub use classical_baselines;
pub use congest_net;
pub use qle;
pub use quantum_sim;
