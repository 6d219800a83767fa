//! A dense state-vector simulator over arbitrary finite dimensions.
//!
//! No protocol run builds a [`StateVector`]: the distributed protocols sample
//! from the closed-form success laws in [`grover`](crate::grover),
//! [`counting`](crate::counting) and [`walk`](crate::walk), which are exact at
//! every domain size. The simulator is the scalar reference that tests check
//! those closed forms against on small domains. [`MeasurementSampler`] is the
//! one piece on a protocol path: quantum counting
//! ([`ApproxCountSpec::run`](crate::counting::ApproxCountSpec::run)) draws its
//! outcomes through it.

use rand::rngs::StdRng;
use rand::Rng;

use crate::complex::Complex;
use crate::error::Error;

/// A pure quantum state over a `dim`-dimensional Hilbert space.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    /// The amplitudes in basis order; never empty, always finite.
    amplitudes: Vec<Complex>,
}

impl StateVector {
    /// The computational basis state `|index⟩` in dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimension`] if `dim == 0` or
    /// [`Error::IndexOutOfRange`] if `index >= dim`.
    pub fn basis(dim: usize, index: usize) -> Result<Self, Error> {
        if dim == 0 {
            return Err(Error::InvalidDimension { dim });
        }
        if index >= dim {
            return Err(Error::IndexOutOfRange { index, dim });
        }
        let mut amplitudes = vec![Complex::ZERO; dim];
        amplitudes[index] = Complex::ONE;
        Ok(StateVector { amplitudes })
    }

    /// The uniform superposition `|s⟩ = Σ_x |x⟩ / √dim` — the starting state
    /// of Grover search and quantum counting.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimension`] if `dim == 0`.
    pub fn uniform(dim: usize) -> Result<Self, Error> {
        if dim == 0 {
            return Err(Error::InvalidDimension { dim });
        }
        Ok(StateVector {
            amplitudes: vec![Complex::real(1.0 / (dim as f64).sqrt()); dim],
        })
    }

    /// Builds a state from raw amplitudes, normalising them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimension`] if the vector is empty or has zero
    /// norm, or [`Error::InvalidParameter`] if its norm is not finite.
    pub fn from_amplitudes(amplitudes: Vec<Complex>) -> Result<Self, Error> {
        let mut state = StateVector { amplitudes };
        let norm = state.norm_sqr().sqrt();
        if !norm.is_finite() {
            return Err(Error::InvalidParameter {
                name: "amplitudes",
                reason: format!("norm must be finite, got {norm}"),
            });
        }
        if state.dim() == 0 || norm < 1e-300 {
            return Err(Error::InvalidDimension { dim: state.dim() });
        }
        let inv = 1.0 / norm;
        for a in &mut state.amplitudes {
            *a = a.scale(inv);
        }
        Ok(state)
    }

    /// Dimension of the Hilbert space.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.amplitudes.len()
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    #[must_use]
    pub fn amplitude(&self, index: usize) -> Complex {
        self.amplitudes[index]
    }

    /// The probability of observing basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    #[must_use]
    pub fn probability(&self, index: usize) -> f64 {
        self.amplitudes[index].norm_sqr()
    }

    /// The squared norm of the state (should be 1 up to numerical error).
    #[must_use]
    pub fn norm_sqr(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// The inner product `⟨self|other⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the dimensions differ.
    pub fn inner_product(&self, other: &StateVector) -> Result<Complex, Error> {
        if self.dim() != other.dim() {
            return Err(Error::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(self
            .amplitudes
            .iter()
            .zip(&other.amplitudes)
            .fold(Complex::ZERO, |acc, (a, b)| acc + a.conj() * *b))
    }

    /// Applies the phase oracle `S_f : |x⟩ ↦ (−1)^{f(x)} |x⟩`.
    pub fn apply_phase_oracle(&mut self, f: impl Fn(usize) -> bool) {
        for (x, a) in self.amplitudes.iter_mut().enumerate() {
            if f(x) {
                *a = -*a;
            }
        }
    }

    /// Applies the Grover diffusion operator `D = 2|s⟩⟨s| − I` (reflection
    /// through the uniform superposition).
    pub fn apply_diffusion(&mut self) {
        let sum = self
            .amplitudes
            .iter()
            .fold(Complex::ZERO, |acc, a| acc + *a);
        let two_mean = sum.scale(2.0 / self.dim() as f64);
        for a in &mut self.amplitudes {
            *a = two_mean - *a;
        }
    }

    /// Applies the reflection through an arbitrary axis state `axis`
    /// (`2|a⟩⟨a| − I`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the dimensions differ.
    pub fn apply_reflection_about(&mut self, axis: &StateVector) -> Result<(), Error> {
        let two_overlap = axis.inner_product(self)?.scale(2.0);
        for (a, axis_a) in self.amplitudes.iter_mut().zip(&axis.amplitudes) {
            *a = two_overlap * *axis_a - *a;
        }
        Ok(())
    }

    /// Total probability mass on the indices where `f(x)` is true.
    #[must_use]
    pub fn success_probability(&self, f: impl Fn(usize) -> bool) -> f64 {
        self.success_and_norm(f).0
    }

    /// Single pass returning `(success, norm)`: the probability mass on the
    /// indices where `f(x)` is true **and** the total squared norm, so a
    /// caller can normalise away the drift a long gate sequence accumulates.
    #[must_use]
    pub fn success_and_norm(&self, f: impl Fn(usize) -> bool) -> (f64, f64) {
        let mut success = 0.0;
        let mut norm = 0.0;
        for (x, a) in self.amplitudes.iter().enumerate() {
            let p = a.norm_sqr();
            if f(x) {
                success += p;
            }
            norm += p;
        }
        (success, norm)
    }

    /// Samples a measurement outcome in the computational basis (the state is
    /// left untouched; callers model collapse explicitly if they need it).
    ///
    /// This single-shot path is an O(dim) scan. Callers that sample the
    /// *same* state repeatedly should build a [`MeasurementSampler`] once
    /// (via [`sampler`](StateVector::sampler)) or call
    /// [`sample_many`](StateVector::sample_many): those amortise the O(dim)
    /// cumulative-distribution pass and answer each draw in O(log dim).
    #[must_use]
    pub fn measure(&self, rng: &mut StdRng) -> usize {
        let draw: f64 = rng.gen();
        let mut acc = 0.0;
        for (x, a) in self.amplitudes.iter().enumerate() {
            acc += a.norm_sqr();
            if draw < acc {
                return x;
            }
        }
        self.dim() - 1
    }

    /// Builds a reusable measurement sampler for this state: the cumulative
    /// distribution is computed once (O(dim)), after which every draw is an
    /// O(log dim) binary search.
    ///
    /// [`MeasurementSampler::from_probabilities`] builds the CDF in basis
    /// order — the same order as [`measure`](StateVector::measure) — so the
    /// sampler and the single-shot path pick identical outcomes on identical
    /// RNG streams; golden tests in the workspace root pin the streams
    /// bit-for-bit.
    #[must_use]
    pub fn sampler(&self) -> MeasurementSampler {
        let probabilities: Vec<f64> = self.amplitudes.iter().map(|a| a.norm_sqr()).collect();
        MeasurementSampler::from_probabilities(&probabilities)
            .expect("a state is non-empty with finite amplitudes")
    }

    /// Draws `count` independent measurement outcomes using one cached
    /// cumulative distribution: O(dim + count · log dim) total, against
    /// O(count · dim) for repeated [`measure`](StateVector::measure) calls.
    #[must_use]
    pub fn sample_many(&self, count: usize, rng: &mut StdRng) -> Vec<usize> {
        let sampler = self.sampler();
        (0..count).map(|_| sampler.sample(rng)).collect()
    }
}

/// A precomputed cumulative distribution over a [`StateVector`]'s basis
/// states, answering measurement draws in O(log dim).
///
/// Build with [`StateVector::sampler`], or from any explicit probability
/// distribution with
/// [`from_probabilities`](MeasurementSampler::from_probabilities). The
/// sampler snapshots the distribution at construction time; it is unaffected
/// by later gates applied to the state it came from.
#[derive(Debug, Clone)]
pub struct MeasurementSampler {
    /// `cdf[x]` = P(outcome <= x); the last entry is `+inf` so rounding can
    /// never push a draw past the end.
    cdf: Vec<f64>,
}

impl MeasurementSampler {
    /// Builds a sampler over an explicit probability distribution (e.g. a
    /// phase-estimation outcome distribution, or a state's Born
    /// probabilities, which is how [`StateVector::sampler`] uses it). The
    /// probabilities are taken as given — accumulated in basis order, never
    /// reassociated, final entry forced to `+inf` — so the CDF is bit-stable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the distribution is empty or
    /// contains a negative or non-finite entry.
    pub fn from_probabilities(probabilities: &[f64]) -> Result<Self, Error> {
        if probabilities.is_empty() {
            return Err(Error::InvalidParameter {
                name: "probabilities",
                reason: "distribution must be non-empty".into(),
            });
        }
        if let Some(&bad) = probabilities.iter().find(|p| !p.is_finite() || **p < 0.0) {
            return Err(Error::InvalidParameter {
                name: "probabilities",
                reason: format!("distribution entries must be finite and >= 0, got {bad}"),
            });
        }
        let mut cdf = Vec::with_capacity(probabilities.len());
        let mut acc = 0.0;
        for &p in probabilities {
            acc += p;
            cdf.push(acc);
        }
        if let Some(last) = cdf.last_mut() {
            *last = f64::INFINITY;
        }
        Ok(MeasurementSampler { cdf })
    }

    /// Number of basis states.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.cdf.len()
    }

    /// Samples one outcome: the first basis state whose cumulative
    /// probability exceeds a uniform draw.
    #[must_use]
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let draw: f64 = rng.gen();
        self.cdf.partition_point(|&acc| acc <= draw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn basis_and_uniform_are_normalized() {
        let b = StateVector::basis(8, 3).unwrap();
        assert!((b.norm_sqr() - 1.0).abs() < 1e-12);
        assert_eq!(b.probability(3), 1.0);
        let u = StateVector::uniform(10).unwrap();
        assert!((u.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((u.probability(7) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn constructors_reject_bad_input() {
        assert!(StateVector::basis(0, 0).is_err());
        assert!(StateVector::basis(4, 4).is_err());
        assert!(StateVector::uniform(0).is_err());
        assert!(StateVector::from_amplitudes(vec![]).is_err());
        assert!(StateVector::from_amplitudes(vec![Complex::ZERO; 4]).is_err());
        assert!(StateVector::from_amplitudes(vec![Complex::real(f64::NAN)]).is_err());
        assert!(StateVector::from_amplitudes(vec![Complex::real(f64::INFINITY)]).is_err());
    }

    #[test]
    fn from_amplitudes_normalizes() {
        let s = StateVector::from_amplitudes(vec![Complex::real(3.0), Complex::real(4.0)]).unwrap();
        assert!((s.probability(0) - 0.36).abs() < 1e-12);
        assert!((s.probability(1) - 0.64).abs() < 1e-12);
    }

    #[test]
    fn one_grover_iteration_on_four_elements_is_exact() {
        // With N = 4 and one marked element, a single Grover iteration finds
        // the marked element with probability exactly 1.
        let mut s = StateVector::uniform(4).unwrap();
        s.apply_phase_oracle(|x| x == 2);
        s.apply_diffusion();
        assert!((s.probability(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reflection_about_axis_matches_diffusion() {
        let mut a = StateVector::uniform(16).unwrap();
        let mut b = a.clone();
        a.apply_phase_oracle(|x| x % 5 == 0);
        b.apply_phase_oracle(|x| x % 5 == 0);
        a.apply_diffusion();
        let axis = StateVector::uniform(16).unwrap();
        b.apply_reflection_about(&axis).unwrap();
        for x in 0..16 {
            assert!(a.amplitude(x).approx_eq(b.amplitude(x), 1e-12));
        }
    }

    #[test]
    fn fused_success_and_norm_matches_separate_passes() {
        let amps: Vec<Complex> = (1..=53)
            .map(|k| Complex::new(k as f64, -(k as f64) / 7.0))
            .collect();
        let s = StateVector::from_amplitudes(amps).unwrap();
        let f = |x: usize| x % 3 == 1;
        let (success, norm) = s.success_and_norm(f);
        assert!((success - s.success_probability(f)).abs() < 1e-15);
        assert!((norm - s.norm_sqr()).abs() < 1e-12);
    }

    #[test]
    fn inner_product_dimension_mismatch() {
        let a = StateVector::uniform(4).unwrap();
        let b = StateVector::uniform(8).unwrap();
        assert!(a.inner_product(&b).is_err());
    }

    #[test]
    fn inner_product_is_conjugate_symmetric() {
        let a = StateVector::from_amplitudes(
            (0..19)
                .map(|k| Complex::new((k as f64).cos(), (k as f64 * 0.3).sin()))
                .collect(),
        )
        .unwrap();
        let b = StateVector::from_amplitudes(
            (0..19)
                .map(|k| Complex::new((k as f64 * 0.7).sin(), (k as f64).cos() / 2.0))
                .collect(),
        )
        .unwrap();
        let ab = a.inner_product(&b).unwrap();
        let ba = b.inner_product(&a).unwrap();
        assert!(ab.approx_eq(ba.conj(), 1e-12));
        let aa = a.inner_product(&a).unwrap();
        assert!((aa.re - 1.0).abs() < 1e-12 && aa.im.abs() < 1e-12);
    }

    #[test]
    fn measurement_follows_distribution() {
        let s = StateVector::from_amplitudes(vec![Complex::real(1.0), Complex::real(3.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..4000).filter(|_| s.measure(&mut rng) == 1).count();
        let freq = hits as f64 / 4000.0;
        assert!((freq - 0.9).abs() < 0.03, "freq = {freq}");
    }

    #[test]
    fn cached_sampler_follows_distribution() {
        let s = StateVector::from_amplitudes(vec![Complex::real(1.0), Complex::real(3.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let hits = s
            .sample_many(4000, &mut rng)
            .into_iter()
            .filter(|&x| x == 1)
            .count();
        let freq = hits as f64 / 4000.0;
        assert!((freq - 0.9).abs() < 0.03, "freq = {freq}");
    }

    #[test]
    fn cached_sampler_agrees_with_single_shot_on_same_draws() {
        // With identical RNG streams, the cached-CDF binary search and the
        // linear scan must pick identical outcomes.
        let amps: Vec<Complex> = (1..=16).map(|k| Complex::real(k as f64)).collect();
        let s = StateVector::from_amplitudes(amps).unwrap();
        let sampler = s.sampler();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            assert_eq!(s.measure(&mut rng_a), sampler.sample(&mut rng_b));
        }
    }

    #[test]
    fn sampler_handles_point_mass() {
        let s = StateVector::basis(8, 5).unwrap();
        let sampler = s.sampler();
        assert_eq!(sampler.dim(), 8);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            assert_eq!(sampler.sample(&mut rng), 5);
        }
    }

    #[test]
    fn sampler_from_probabilities_matches_state_sampler() {
        let amps: Vec<Complex> = (1..=11).map(|k| Complex::real(k as f64)).collect();
        let s = StateVector::from_amplitudes(amps).unwrap();
        let probs: Vec<f64> = (0..s.dim()).map(|x| s.probability(x)).collect();
        let from_probs = MeasurementSampler::from_probabilities(&probs).unwrap();
        let from_state = s.sampler();
        let mut rng_a = StdRng::seed_from_u64(31);
        let mut rng_b = StdRng::seed_from_u64(31);
        for _ in 0..300 {
            assert_eq!(from_probs.sample(&mut rng_a), from_state.sample(&mut rng_b));
        }
    }

    #[test]
    fn sampler_from_probabilities_rejects_bad_input() {
        assert!(MeasurementSampler::from_probabilities(&[]).is_err());
        assert!(MeasurementSampler::from_probabilities(&[0.5, -0.1]).is_err());
        assert!(MeasurementSampler::from_probabilities(&[0.5, f64::NAN]).is_err());
        assert!(MeasurementSampler::from_probabilities(&[0.25; 4]).is_ok());
    }

    #[test]
    fn kernels_handle_non_lane_multiple_dims() {
        // Every kernel must be exact at small and odd dims, not only at
        // powers of two.
        for dim in [1usize, 3, 7, 8, 9, 15, 16, 17, 31] {
            let u = StateVector::uniform(dim).unwrap();
            assert!((u.norm_sqr() - 1.0).abs() < 1e-12, "dim = {dim}");
            let ip = u.inner_product(&u).unwrap();
            assert!((ip.re - 1.0).abs() < 1e-12 && ip.im.abs() < 1e-12);
            let mut d = u.clone();
            d.apply_diffusion();
            // D|s⟩ = |s⟩.
            for x in 0..dim {
                assert!(d.amplitude(x).approx_eq(u.amplitude(x), 1e-12));
            }
        }
    }
}
