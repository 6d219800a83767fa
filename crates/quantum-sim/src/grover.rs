//! Exact Grover-search dynamics and the Boyer–Brassard–Høyer–Tapp (BBHT)
//! schedule for an unknown number of marked items.
//!
//! Grover's operator acts as a rotation by `2θ`, with `sin²θ = t/N`, inside
//! the two-dimensional subspace spanned by the uniform superpositions of
//! marked and unmarked items. The measurement statistics of a real quantum
//! computer are therefore *exactly*
//!
//! ```text
//! Pr[measure a marked item after j iterations] = sin²((2j + 1)·θ)
//! ```
//!
//! at every domain size, which is what [`success_probability`] computes and
//! what the distributed protocols sample from. The dense
//! [`StateVector`] simulator is used in tests to confirm
//! the formula gate-by-gate on small domains.
//!
//! The BBHT schedule ([`BbhtSchedule`]) handles the unknown-`t` case exactly
//! as in the paper's Theorem 4.1: a bounded number of stages with a growing
//! iteration cap, repeated `O(log(1/α))` times. Because the distributed
//! implementation must keep every node synchronised (Definition 4.1), the
//! *cost* charged for a search is always the full, worst-case schedule, even
//! when a marked item is found early; only the *outcome* is random.

use rand::rngs::StdRng;
use rand::Rng;

use crate::error::Error;
use crate::statevector::StateVector;

/// The Grover rotation angle `θ = asin(√fraction)` for a marked fraction in
/// `[0, 1]`.
#[must_use]
pub fn rotation_angle(fraction_marked: f64) -> f64 {
    fraction_marked.clamp(0.0, 1.0).sqrt().asin()
}

/// Probability that measuring after `iterations` Grover iterations yields a
/// marked item, for a marked fraction `fraction_marked` of the domain.
///
/// Returns 0 when nothing is marked and 1 when everything is marked.
#[must_use]
pub fn success_probability(fraction_marked: f64, iterations: u64) -> f64 {
    if fraction_marked <= 0.0 {
        return 0.0;
    }
    if fraction_marked >= 1.0 {
        return 1.0;
    }
    success_probability_at(rotation_angle(fraction_marked), iterations)
}

/// [`success_probability`] for a marked fraction strictly inside `(0, 1)`,
/// given its rotation angle `θ`: `sin²((2j + 1)·θ)`.
fn success_probability_at(theta: f64, iterations: u64) -> f64 {
    ((2 * iterations + 1) as f64 * theta).sin().powi(2)
}

/// The staged iteration caps of one BBHT pass for a marked-fraction lower
/// bound `ε`: caps grow geometrically (factor 6/5, as in BBHT) until they
/// reach `⌈1/√ε⌉`, so a single pass costs `O(1/√ε)` oracle calls in total and
/// finds a marked item with constant probability whenever the true fraction
/// is at least `ε`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BbhtSchedule {
    stage_caps: Vec<u64>,
}

impl BbhtSchedule {
    /// Builds the schedule for the marked-fraction lower bound `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] unless `0 < epsilon <= 1`.
    pub fn for_epsilon(epsilon: f64) -> Result<Self, Error> {
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "epsilon",
                reason: format!("must be in (0, 1], got {epsilon}"),
            });
        }
        let limit = (1.0 / epsilon.sqrt()).ceil() as u64;
        let mut caps = Vec::new();
        let mut m = 1u64;
        loop {
            caps.push(m.min(limit));
            if m >= limit {
                break;
            }
            m = ((m as f64) * 1.2).ceil() as u64;
        }
        Ok(BbhtSchedule { stage_caps: caps })
    }

    /// The per-stage iteration caps.
    #[must_use]
    pub fn stage_caps(&self) -> &[u64] {
        &self.stage_caps
    }

    /// Total Grover iterations (oracle calls) of one full pass — the cost a
    /// synchronised distributed execution always pays.
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        self.stage_caps.iter().sum()
    }

    /// Simulates one BBHT pass: per stage, an iteration count is drawn
    /// uniformly below the stage cap and the exact Grover success probability
    /// decides whether the measurement hits a marked item. Returns whether
    /// any stage succeeded.
    ///
    /// The pass always runs every stage (the distributed execution cannot
    /// stop the network early without desynchronising it), so the caller
    /// should charge [`total_iterations`](Self::total_iterations) regardless
    /// of the outcome.
    #[must_use]
    pub fn run(&self, fraction_marked: f64, rng: &mut StdRng) -> bool {
        if fraction_marked <= 0.0 {
            return false;
        }
        // θ depends only on the fraction: one `asin` per pass, not per
        // stage. `None` is the whole domain marked (probability 1), exactly
        // as `success_probability` branches.
        let theta = if fraction_marked >= 1.0 {
            None
        } else {
            Some(rotation_angle(fraction_marked))
        };
        let mut found = false;
        for &cap in &self.stage_caps {
            let j = rng.gen_range(0..=cap);
            let p = theta.map_or(1.0, |theta| success_probability_at(theta, j));
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                found = true;
            }
        }
        found
    }
}

/// Parameters of the paper's `GroverSearch(ε, α)` primitive (Theorem 4.1):
/// marked-fraction lower bound `ε` and failure probability `α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroverSearchSpec {
    /// Promise: either nothing is marked, or at least an `ε` fraction is.
    pub epsilon: f64,
    /// Maximum allowed failure probability when the promise holds.
    pub alpha: f64,
}

impl GroverSearchSpec {
    /// Creates a spec.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] unless `0 < ε ≤ 1` and `0 < α < 1`.
    pub fn new(epsilon: f64, alpha: f64) -> Result<Self, Error> {
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "epsilon",
                reason: format!("must be in (0, 1], got {epsilon}"),
            });
        }
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(Error::InvalidParameter {
                name: "alpha",
                reason: format!("must be in (0, 1), got {alpha}"),
            });
        }
        Ok(GroverSearchSpec { epsilon, alpha })
    }

    /// Number of independent BBHT passes: `⌈log₂(1/α)⌉` (each pass fails with
    /// probability at most 1/2 when the promise holds, so the overall failure
    /// probability is at most `α`).
    #[must_use]
    pub fn attempts(&self) -> u64 {
        (1.0 / self.alpha).log2().ceil().max(1.0) as u64
    }

    /// The BBHT schedule of each pass.
    ///
    /// # Panics
    ///
    /// Never panics: the constructor validated `epsilon`.
    #[must_use]
    pub fn schedule(&self) -> BbhtSchedule {
        BbhtSchedule::for_epsilon(self.epsilon).expect("validated in constructor")
    }

    /// Total oracle (Checking) calls charged by a synchronised distributed
    /// execution: `attempts × total iterations per pass = O(log(1/α)/√ε)`.
    #[must_use]
    pub fn total_oracle_calls(&self) -> u64 {
        self.attempts() * self.schedule().total_iterations()
    }

    /// Samples the outcome of the full search: `true` means a marked item was
    /// found (and will be a uniformly random marked item).
    ///
    /// When `fraction_marked == 0` the outcome is always `false`, matching
    /// Theorem 4.1's zero-error behaviour on empty preimages.
    #[must_use]
    pub fn sample_outcome(&self, fraction_marked: f64, rng: &mut StdRng) -> bool {
        if fraction_marked <= 0.0 {
            return false;
        }
        let schedule = self.schedule();
        (0..self.attempts()).any(|_| schedule.run(fraction_marked, rng))
    }
}

/// Runs `iterations` Grover iterations gate-by-gate on the dense state-vector
/// simulator and returns the probability of measuring a marked item.
///
/// This is the validation path for [`success_probability`]; it is exponential
/// in memory and intended for small `dim` only.
///
/// # Errors
///
/// Returns [`Error::InvalidDimension`] if `dim == 0` or
/// [`Error::IndexOutOfRange`] if a marked index is out of range.
pub fn statevector_success_probability(
    dim: usize,
    marked: &[usize],
    iterations: u64,
) -> Result<f64, Error> {
    if let Some(&bad) = marked.iter().find(|&&x| x >= dim) {
        return Err(Error::IndexOutOfRange { index: bad, dim });
    }
    let mut state = StateVector::uniform(dim)?;
    // Precompute a membership mask: the oracle is then an O(1) table read
    // per amplitude instead of an O(|marked|) scan.
    let mut mask = vec![false; dim];
    for &x in marked {
        mask[x] = true;
    }
    let is_marked = |x: usize| mask[x];
    for _ in 0..iterations {
        state.apply_phase_oracle(is_marked);
        state.apply_diffusion();
    }
    // The marked mass and the total norm in one pass, so the result can be
    // normalised against the drift a long gate sequence accumulates.
    let (success, norm) = state.success_and_norm(is_marked);
    Ok(success / norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn analytic_formula_matches_statevector() {
        for (dim, marked, iters) in [
            (16, vec![3], 3),
            (16, vec![3], 0),
            (64, vec![1, 7, 20], 2),
            (128, vec![0, 64], 5),
            (32, vec![9, 10, 11, 12], 1),
        ] {
            let exact = statevector_success_probability(dim, &marked, iters).unwrap();
            let analytic = success_probability(marked.len() as f64 / dim as f64, iters);
            assert!(
                (exact - analytic).abs() < 1e-9,
                "dim={dim} marked={} iters={iters}: {exact} vs {analytic}",
                marked.len()
            );
        }
    }

    #[test]
    fn success_probability_edge_cases() {
        assert_eq!(success_probability(0.0, 10), 0.0);
        assert_eq!(success_probability(1.0, 0), 1.0);
        assert!((success_probability(0.25, 1) - 1.0).abs() < 1e-12); // N=4, t=1 is exact after 1 iteration
    }

    #[test]
    fn schedule_total_is_order_inverse_sqrt_epsilon() {
        for &eps in &[1.0, 0.25, 1e-2, 1e-4, 1e-6] {
            let schedule = BbhtSchedule::for_epsilon(eps).unwrap();
            let total = schedule.total_iterations() as f64;
            let bound = 1.0 / eps.sqrt();
            assert!(total >= bound, "total {total} < {bound}");
            assert!(
                total <= 8.0 * bound + 8.0,
                "total {total} too large vs {bound}"
            );
        }
    }

    #[test]
    fn schedule_rejects_bad_epsilon() {
        assert!(BbhtSchedule::for_epsilon(0.0).is_err());
        assert!(BbhtSchedule::for_epsilon(-1.0).is_err());
        assert!(BbhtSchedule::for_epsilon(1.5).is_err());
    }

    #[test]
    fn spec_validation() {
        assert!(GroverSearchSpec::new(0.1, 0.01).is_ok());
        assert!(GroverSearchSpec::new(0.0, 0.01).is_err());
        assert!(GroverSearchSpec::new(0.1, 0.0).is_err());
        assert!(GroverSearchSpec::new(0.1, 1.0).is_err());
    }

    #[test]
    fn search_never_finds_when_nothing_is_marked() {
        let spec = GroverSearchSpec::new(0.1, 0.25).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            assert!(!spec.sample_outcome(0.0, &mut rng));
        }
    }

    #[test]
    fn search_finds_with_high_probability_when_promise_holds() {
        let spec = GroverSearchSpec::new(0.01, 1.0 / 64.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 200;
        let hits = (0..trials)
            .filter(|_| spec.sample_outcome(0.02, &mut rng))
            .count();
        assert!(
            hits as f64 >= 0.95 * trials as f64,
            "hits = {hits}/{trials}"
        );
    }

    #[test]
    fn oracle_call_budget_matches_theorem_4_1_shape() {
        // Doubling 1/ε should multiply oracle calls by about √2, up to the
        // discrete stage boundaries.
        let a = GroverSearchSpec::new(1.0 / 1_000.0, 0.01)
            .unwrap()
            .total_oracle_calls() as f64;
        let b = GroverSearchSpec::new(1.0 / 4_000.0, 0.01)
            .unwrap()
            .total_oracle_calls() as f64;
        let ratio = b / a;
        assert!(ratio > 1.5 && ratio < 2.8, "ratio = {ratio}");
    }

    #[test]
    fn attempts_grow_logarithmically_in_inverse_alpha() {
        let s1 = GroverSearchSpec::new(0.1, 1.0 / 16.0).unwrap();
        let s2 = GroverSearchSpec::new(0.1, 1.0 / 256.0).unwrap();
        assert_eq!(s1.attempts(), 4);
        assert_eq!(s2.attempts(), 8);
    }
}
