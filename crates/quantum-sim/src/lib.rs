//! # quantum-sim
//!
//! The quantum subroutine substrate for the reproduction of *Quantum
//! Communication Advantage for Leader Election and Agreement* (PODC 2025).
//!
//! The paper's protocols consume a small number of quantum primitives —
//! Grover search with an unknown number of marked items (Theorem 4.1),
//! quantum counting (Theorem 4.2 / Corollary 4.3), and MNRS search via
//! quantum walks on Johnson graphs (Theorem 4.4) — and use each one only
//! through its success law and its cost. This crate implements them as pure
//! engines, independent of any network:
//!
//! * [`grover`] — exact Grover dynamics (the rotation in the 2-dimensional
//!   invariant subspace is simulated exactly, so outcome distributions match
//!   real hardware at any domain size) plus the BBHT schedule and the
//!   `GroverSearch(ε, α)` parameterisation.
//! * [`counting`] — exact phase-estimation outcome distributions and the
//!   `Count(P)` / `ApproxCount(c, α)` primitives.
//! * [`johnson`] and [`walk`] — Johnson graphs, their spectral gaps, and the
//!   MNRS `WalkSearch` invocation budget and success law.
//! * [`statevector`] — a dense scalar state-vector simulator, the reference
//!   that tests check the closed forms against on small domains, and the
//!   [`MeasurementSampler`] that quantum counting draws its outcomes through.
//!
//! The distributed framework in the `qle` crate wires these engines to
//! network-executed `Checking` procedures and charges the messages of the
//! superposed routing of Section 3 inside `Network::quantum_scope`; this
//! crate deliberately knows nothing about networks.
//!
//! # Measurement CDFs
//!
//! (`docs/ARCHITECTURE.md` in the repository root places this section in
//! the whole-workspace narrative; the invariant stated here is the
//! authoritative one for this crate.)
//!
//! [`MeasurementSampler::from_probabilities`] is the one function that builds
//! a cumulative distribution; [`StateVector::sampler`] calls it too. It
//! accumulates probabilities **strictly in basis order** — never chunked,
//! never reassociated — so sampler streams are bit-identical to the
//! single-shot [`StateVector::measure`] scan. Golden tests in the workspace
//! root pin the `measure` / `sample_many` outcome streams and the
//! quantum-counting estimates of the star example; reordering that
//! accumulation is a behavioural change and must update the pins
//! deliberately.
//!
//! # Example
//!
//! ```
//! use quantum_sim::grover::{success_probability, GroverSearchSpec};
//!
//! # fn main() -> Result<(), quantum_sim::Error> {
//! // Probability that Grover search finds one marked item out of 1024 after
//! // the optimal 25 iterations:
//! assert!(success_probability(1.0 / 1024.0, 25) > 0.99);
//!
//! // A distributed GroverSearch(ε = 1/64, α = 1/100) costs O(log(1/α)/√ε)
//! // oracle calls regardless of outcome:
//! let spec = GroverSearchSpec::new(1.0 / 64.0, 0.01)?;
//! assert!(spec.total_oracle_calls() < 64 * 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod counting;
pub mod error;
pub mod grover;
pub mod johnson;
pub mod statevector;
pub mod walk;

pub use complex::Complex;
pub use error::Error;
pub use statevector::{MeasurementSampler, StateVector};
