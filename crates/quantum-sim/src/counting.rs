//! Quantum counting (Brassard–Høyer–Tapp) and its amplified variant, the
//! paper's `Count(P)` and `ApproxCount(c, α)` primitives (Theorem 4.2 and
//! Corollary 4.3).
//!
//! The counting circuit runs phase estimation on the Grover operator, whose
//! eigenvalues on the relevant two-dimensional subspace are `e^{±2iθ}` with
//! `sin²θ = t/N`. The uniform start state has equal weight on the two
//! eigenvectors, so the measurement statistics of the whole circuit are
//! described exactly by the standard phase-estimation outcome distribution
//! applied to a uniformly chosen sign of the eigenphase — which is what this
//! module samples from, giving the same output distribution as a gate-level
//! execution at any domain size.

use rand::rngs::StdRng;
use rand::Rng;

use crate::complex::Complex;
use crate::error::Error;
use crate::grover::rotation_angle;
use crate::statevector::{MeasurementSampler, StateVector};

/// The probability that `P`-point phase estimation of a phase `phase ∈ [0, 1)`
/// outputs the grid value `m ∈ {0, …, P−1}`.
///
/// This is the textbook kernel `sin²(πPδ) / (P² sin²(πδ))` with
/// `δ = phase − m/P` (and value 1 when `δ` is an integer).
#[must_use]
pub fn phase_estimation_probability(phase: f64, p: u64, m: u64) -> f64 {
    let p_f = p as f64;
    let delta = phase - m as f64 / p_f;
    let wrapped = delta - delta.round();
    if wrapped.abs() < 1e-15 {
        return 1.0;
    }
    let numerator = (std::f64::consts::PI * p_f * wrapped).sin().powi(2);
    let denominator = p_f * p_f * (std::f64::consts::PI * wrapped).sin().powi(2);
    numerator / denominator
}

/// The full outcome distribution of `P`-point phase estimation of `phase`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if `p == 0`.
pub fn phase_estimation_distribution(phase: f64, p: u64) -> Result<Vec<f64>, Error> {
    if p == 0 {
        return Err(Error::InvalidParameter {
            name: "p",
            reason: "must be positive".into(),
        });
    }
    let mut dist: Vec<f64> = (0..p)
        .map(|m| phase_estimation_probability(phase, p, m))
        .collect();
    let total: f64 = dist.iter().sum();
    // The kernel sums to 1 exactly; renormalise to absorb floating-point dust.
    for value in &mut dist {
        *value /= total;
    }
    Ok(dist)
}

/// The exact post-circuit state of `P`-point phase estimation of `phase`,
/// as a dense [`StateVector`] over the `P` outcome registers.
///
/// The amplitude of outcome `m` is the geometric sum
/// `(1/P) · Σ_j e^{2πi·j·(phase − m/P)}`, evaluated in closed form. This is
/// the gate-level cross-validation path for
/// [`phase_estimation_distribution`]: building the state through
/// [`StateVector::from_amplitudes`] and reading Born probabilities must
/// reproduce the analytic kernel at every grid size.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if `p == 0` or does not fit `usize`.
pub fn qpe_state(phase: f64, p: u64) -> Result<StateVector, Error> {
    if p == 0 {
        return Err(Error::InvalidParameter {
            name: "p",
            reason: "must be positive".into(),
        });
    }
    let dim = usize::try_from(p).map_err(|_| Error::InvalidParameter {
        name: "p",
        reason: format!("{p} exceeds the addressable state size"),
    })?;
    let p_f = p as f64;
    let amplitudes: Vec<Complex> = (0..p)
        .map(|m| {
            let delta = phase - m as f64 / p_f;
            let wrapped = delta - delta.round();
            if wrapped.abs() < 1e-15 {
                return Complex::ONE;
            }
            // Geometric sum (1 − e^{2πiPδ}) / (P·(1 − e^{2πiδ})).
            let tau = 2.0 * std::f64::consts::PI * wrapped;
            let numerator = Complex::ONE - Complex::from_polar(p_f * tau);
            let denominator = (Complex::ONE - Complex::from_polar(tau)).scale(p_f);
            numerator / denominator
        })
        .collect();
    debug_assert_eq!(amplitudes.len(), dim);
    StateVector::from_amplitudes(amplitudes)
}

/// Samples one measurement outcome of `P`-point phase estimation of `phase`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if `p == 0`.
pub fn sample_phase_estimation(phase: f64, p: u64, rng: &mut StdRng) -> Result<u64, Error> {
    let dist = phase_estimation_distribution(phase, p)?;
    let draw: f64 = rng.gen();
    let mut acc = 0.0;
    for (m, prob) in dist.iter().enumerate() {
        acc += prob;
        if draw < acc {
            return Ok(m as u64);
        }
    }
    Ok(p - 1)
}

/// One run of the BHT counting circuit `Count(P)` (Theorem 4.2): estimates
/// the number of marked items `t` in a domain of size `domain`, using `P`
/// controlled applications of the Grover operator.
///
/// With probability at least `8/π²` the estimate satisfies
/// `|t − t̃| < (2π/P)·√(t·domain) + π²·domain/P²` (for `t ≤ domain/2`).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if `p == 0`, `domain == 0`, or
/// `marked > domain`.
pub fn quantum_count_once(
    marked: u64,
    domain: u64,
    p: u64,
    rng: &mut StdRng,
) -> Result<f64, Error> {
    if domain == 0 {
        return Err(Error::InvalidParameter {
            name: "domain",
            reason: "must be positive".into(),
        });
    }
    if marked > domain {
        return Err(Error::InvalidParameter {
            name: "marked",
            reason: format!("marked {marked} exceeds domain {domain}"),
        });
    }
    if p == 0 {
        return Err(Error::InvalidParameter {
            name: "p",
            reason: "must be positive".into(),
        });
    }
    let fraction = marked as f64 / domain as f64;
    let theta = rotation_angle(fraction);
    // Eigenphases of the Grover operator are ±2θ, i.e. fractions ±θ/π; the
    // uniform start state weights the two eigenvectors equally.
    let eigenphase = if rng.gen_bool(0.5) {
        theta / std::f64::consts::PI
    } else {
        1.0 - theta / std::f64::consts::PI
    };
    let m = sample_phase_estimation(eigenphase.rem_euclid(1.0), p, rng)?;
    let theta_estimate = std::f64::consts::PI * m as f64 / p as f64;
    Ok(domain as f64 * theta_estimate.sin().powi(2))
}

/// Parameters of the paper's `ApproxCount(c, α)` primitive (Corollary 4.3):
/// additive error `c·|X|` with failure probability at most `α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxCountSpec {
    /// Relative additive error: the estimate is within `c · domain` of the
    /// true count.
    pub c: f64,
    /// Maximum allowed failure probability.
    pub alpha: f64,
}

impl ApproxCountSpec {
    /// Creates a spec.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] unless `0 < c <= 1` and
    /// `0 < α < 1`.
    pub fn new(c: f64, alpha: f64) -> Result<Self, Error> {
        if !(c > 0.0 && c <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "c",
                reason: format!("must be in (0, 1], got {c}"),
            });
        }
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(Error::InvalidParameter {
                name: "alpha",
                reason: format!("must be in (0, 1), got {alpha}"),
            });
        }
        Ok(ApproxCountSpec { c, alpha })
    }

    /// Number of Grover-operator applications per counting run. Following the
    /// proof of Corollary 4.3 (general case, via the doubled domain), this is
    /// `⌈8π/c⌉`.
    #[must_use]
    pub fn grover_calls_per_run(&self) -> u64 {
        (8.0 * std::f64::consts::PI / self.c).ceil() as u64
    }

    /// Number of independent runs whose median is returned: `⌈log₂(1/α)⌉`,
    /// enough for the median to be within the error bound with probability at
    /// least `1 − α` (Chernoff on the `8/π² > 1/2` per-run success rate).
    #[must_use]
    pub fn repetitions(&self) -> u64 {
        (1.0 / self.alpha).log2().ceil().max(1.0) as u64
    }

    /// Total Grover-operator (Checking) calls charged by a synchronised
    /// distributed execution: `O(log(1/α)/c)`.
    #[must_use]
    pub fn total_oracle_calls(&self) -> u64 {
        self.grover_calls_per_run() * self.repetitions()
    }

    /// Runs the amplified counting procedure and returns the estimate of
    /// `marked` (a real number; callers round as appropriate).
    ///
    /// Implements the construction of Corollary 4.3: the domain is doubled
    /// (with the new half unmarked) so the `t ≤ |X|/2` hypothesis of
    /// Theorem 4.2 always holds, and the median of the repetitions is
    /// returned.
    ///
    /// The Grover operator has only two eigenphases (`±2θ`), so the two
    /// outcome distributions are built **once** and wrapped in cached-CDF
    /// [`MeasurementSampler`]s: each repetition is then an O(log P) draw
    /// instead of the O(P) rebuild-and-scan of repeated
    /// [`quantum_count_once`] calls. The RNG stream (one coin per
    /// repetition for the eigenvector sign, one uniform draw per
    /// measurement) and every outcome are bit-identical to the
    /// `quantum_count_once` path — a regression test pins this.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `domain == 0` or
    /// `marked > domain`.
    pub fn run(&self, marked: u64, domain: u64, rng: &mut StdRng) -> Result<f64, Error> {
        if domain == 0 {
            return Err(Error::InvalidParameter {
                name: "domain",
                reason: "must be positive".into(),
            });
        }
        if marked > domain {
            return Err(Error::InvalidParameter {
                name: "marked",
                reason: format!("marked {marked} exceeds domain {domain}"),
            });
        }
        let p = self.grover_calls_per_run();
        let doubled = 2 * domain;
        let theta = rotation_angle(marked as f64 / doubled as f64);
        let sampler_for = |eigenphase: f64| -> Result<MeasurementSampler, Error> {
            let dist = phase_estimation_distribution(eigenphase.rem_euclid(1.0), p)?;
            MeasurementSampler::from_probabilities(&dist)
        };
        let sampler_plus = sampler_for(theta / std::f64::consts::PI)?;
        let sampler_minus = sampler_for(1.0 - theta / std::f64::consts::PI)?;
        let mut estimates: Vec<f64> = (0..self.repetitions())
            .map(|_| {
                let sampler = if rng.gen_bool(0.5) {
                    &sampler_plus
                } else {
                    &sampler_minus
                };
                let m = sampler.sample(rng);
                let theta_estimate = std::f64::consts::PI * m as f64 / p as f64;
                doubled as f64 * theta_estimate.sin().powi(2)
            })
            .collect();
        estimates.sort_by(|a, b| a.partial_cmp(b).expect("estimates are finite"));
        let median = estimates[estimates.len() / 2];
        Ok(median.min(domain as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn phase_estimation_distribution_is_normalized_and_peaked() {
        let p = 64;
        let phase = 0.3;
        let dist = phase_estimation_distribution(phase, p).unwrap();
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The two grid points around 0.3·64 = 19.2 carry most of the mass.
        let near: f64 = dist[19] + dist[20];
        assert!(near > 0.8, "near-mass = {near}");
    }

    #[test]
    fn phase_on_grid_is_measured_exactly() {
        let p = 32;
        let phase = 5.0 / 32.0;
        let dist = phase_estimation_distribution(phase, p).unwrap();
        assert!((dist[5] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qpe_statevector_reproduces_analytic_distribution() {
        for &(phase, p) in &[(0.3, 64u64), (0.731, 32), (5.0 / 32.0, 32), (0.999, 17)] {
            let state = qpe_state(phase, p).unwrap();
            let dist = phase_estimation_distribution(phase, p).unwrap();
            assert_eq!(state.dim() as u64, p);
            for (m, &prob) in dist.iter().enumerate() {
                assert!(
                    (state.probability(m) - prob).abs() < 1e-9,
                    "phase={phase} p={p} m={m}: {} vs {prob}",
                    state.probability(m)
                );
            }
        }
        assert!(qpe_state(0.5, 0).is_err());
    }

    #[test]
    fn cached_sampler_run_matches_quantum_count_once_stream() {
        // The cached-CDF fast path in `ApproxCountSpec::run` must consume the
        // RNG identically to — and pick the same outcomes as — a loop of
        // `quantum_count_once` calls, so seeded experiment streams are
        // unchanged by the optimisation.
        let spec = ApproxCountSpec::new(0.07, 1.0 / 64.0).unwrap();
        for seed in 0..20 {
            let (t, n) = (37u64, 500u64);
            let mut rng_fast = StdRng::seed_from_u64(seed);
            let fast = spec.run(t, n, &mut rng_fast).unwrap();
            let mut rng_ref = StdRng::seed_from_u64(seed);
            let p = spec.grover_calls_per_run();
            let mut estimates: Vec<f64> = (0..spec.repetitions())
                .map(|_| quantum_count_once(t, 2 * n, p, &mut rng_ref).unwrap())
                .collect();
            estimates.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let reference = estimates[estimates.len() / 2].min(n as f64);
            assert_eq!(fast.to_bits(), reference.to_bits(), "seed {seed}");
            // And the generators are left in the same position.
            assert_eq!(rng_fast.gen::<u64>(), rng_ref.gen::<u64>());
        }
    }

    #[test]
    fn phase_estimation_rejects_zero_points() {
        assert!(phase_estimation_distribution(0.5, 0).is_err());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample_phase_estimation(0.5, 0, &mut rng).is_err());
    }

    #[test]
    fn counting_error_bound_of_theorem_4_2() {
        // For t ≤ N/2 and P ≥ 4 the estimate is within
        // (2π/P)√(tN) + π²N/P² with probability ≥ 8/π² ≈ 0.81.
        let mut rng = StdRng::seed_from_u64(11);
        let (t, n, p) = (90u64, 1024u64, 64u64);
        let bound = 2.0 * std::f64::consts::PI / p as f64 * ((t * n) as f64).sqrt()
            + std::f64::consts::PI.powi(2) * n as f64 / (p * p) as f64;
        let trials = 300;
        let ok = (0..trials)
            .filter(|_| {
                let est = quantum_count_once(t, n, p, &mut rng).unwrap();
                (est - t as f64).abs() < bound
            })
            .count();
        let rate = ok as f64 / trials as f64;
        assert!(rate > 0.78, "rate = {rate}");
    }

    #[test]
    fn counting_zero_and_full_marked() {
        let mut rng = StdRng::seed_from_u64(3);
        let est0 = quantum_count_once(0, 256, 32, &mut rng).unwrap();
        assert!(est0 < 256.0 * 0.05, "est0 = {est0}");
        let spec = ApproxCountSpec::new(0.05, 0.01).unwrap();
        let est_full = spec.run(256, 256, &mut rng).unwrap();
        assert!(est_full > 256.0 * 0.9, "est_full = {est_full}");
    }

    #[test]
    fn counting_parameter_validation() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(quantum_count_once(5, 0, 8, &mut rng).is_err());
        assert!(quantum_count_once(50, 10, 8, &mut rng).is_err());
        assert!(quantum_count_once(5, 10, 0, &mut rng).is_err());
        assert!(ApproxCountSpec::new(0.0, 0.1).is_err());
        assert!(ApproxCountSpec::new(0.1, 1.0).is_err());
        let spec = ApproxCountSpec::new(0.1, 0.1).unwrap();
        assert!(spec.run(5, 0, &mut rng).is_err());
        assert!(spec.run(50, 10, &mut rng).is_err());
    }

    #[test]
    fn approx_count_achieves_additive_error_with_high_probability() {
        let spec = ApproxCountSpec::new(0.05, 1.0 / 128.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let (t, n) = (173u64, 1000u64);
        let trials = 60;
        let ok = (0..trials)
            .filter(|_| {
                let est = spec.run(t, n, &mut rng).unwrap();
                (est - t as f64).abs() < 0.05 * n as f64
            })
            .count();
        assert!(ok as f64 >= 0.95 * trials as f64, "ok = {ok}/{trials}");
    }

    #[test]
    fn approx_count_cost_scales_as_inverse_c() {
        let cheap = ApproxCountSpec::new(0.2, 0.01)
            .unwrap()
            .total_oracle_calls();
        let precise = ApproxCountSpec::new(0.01, 0.01)
            .unwrap()
            .total_oracle_calls();
        let ratio = precise as f64 / cheap as f64;
        assert!(ratio > 15.0 && ratio < 25.0, "ratio = {ratio}");
    }

    #[test]
    fn median_amplification_counts_repetitions() {
        let spec = ApproxCountSpec::new(0.1, 1.0 / 1024.0).unwrap();
        assert_eq!(spec.repetitions(), 10);
        assert_eq!(spec.total_oracle_calls(), spec.grover_calls_per_run() * 10);
    }
}
