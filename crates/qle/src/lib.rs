//! # qle — quantum distributed leader election and agreement
//!
//! A from-scratch Rust implementation of the protocols and framework of
//! *Quantum Communication Advantage for Leader Election and Agreement*
//! (Dufoulon, Magniez, Pandurangan — PODC 2025, arXiv:2502.07416).
//!
//! The paper shows that quantum communication lets distributed algorithms
//! breach classical *message-complexity* lower bounds for two of the most
//! fundamental problems in distributed computing. This crate contains:
//!
//! * the **framework** of Section 4 ([`framework`]): distributed Grover
//!   search, distributed approximate quantum counting, and distributed search
//!   via quantum walks, each driving a protocol-supplied `Checking` procedure
//!   on a live, metered CONGEST network;
//! * the **five protocols** ([`algorithms`]):
//!   [`QuantumLe`](algorithms::QuantumLe) (complete graphs, `Õ(n^{1/3})`
//!   messages), [`QuantumRwLe`](algorithms::QuantumRwLe) (mixing time `τ`,
//!   `Õ(τ^{5/3} n^{1/3})`), [`QuantumQwLe`](algorithms::QuantumQwLe)
//!   (diameter-2 graphs, `Õ(n^{2/3})`),
//!   [`QuantumGeneralLe`](algorithms::QuantumGeneralLe) (arbitrary graphs,
//!   `Õ(√(m·n))`), and [`QuantumAgreement`](algorithms::QuantumAgreement)
//!   (complete graphs with shared randomness, `Õ(n^{1/5})` expected);
//! * the problem definitions and outcome validators of Section 2.2
//!   ([`problems`]), the candidate/rank machinery of Appendix C
//!   ([`candidate`]), the tree-merging phases `QuantumGeneralLE` shares with
//!   the classical GHS baseline ([`merging`]), and the star-graph worked
//!   example of Appendix B.2 ([`star`]).
//!
//! Quantum behaviour is simulated exactly at the level the protocols consume
//! it (outcome laws of Grover search, quantum counting, and MNRS walks; see
//! the `quantum-sim` crate), while every message the distributed procedures
//! would exchange is actually sent on the simulated network and counted
//! according to the paper's definition of quantum message complexity
//! (Section 3.1).
//!
//! # Quickstart
//!
//! ```
//! use congest_net::topology;
//! use qle::algorithms::QuantumLe;
//! use qle::LeaderElection;
//!
//! # fn main() -> Result<(), qle::Error> {
//! let graph = topology::complete(64)?;
//! let run = QuantumLe::new().run(&graph, 42)?;
//! assert!(run.succeeded());
//! println!(
//!     "elected node {:?} using {} messages over {} rounds",
//!     run.outcome.leaders(),
//!     run.cost.total_messages(),
//!     run.cost.effective_rounds,
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod candidate;
pub mod config;
pub mod error;
pub mod framework;
pub mod merging;
pub mod problems;
pub mod protocol;
pub mod report;
pub mod star;

pub use config::{AlphaChoice, KChoice};
pub use error::Error;
pub use problems::{AgreementDecision, AgreementOutcome, LeaderElectionOutcome, NodeStatus};
pub use protocol::{Agreement, LeaderElection, RunOptions, TracedRun};
// Re-exported so scenario-level callers can spell execution modes without
// depending on `congest_net` directly.
pub use congest_net::{ExecMode, SchedulerKind, SchedulerSpec};
pub use report::{AgreementRun, CostSummary, LeaderElectionRun};
