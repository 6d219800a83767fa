//! The Johnson graph `J(n, k)` and its walk parameters.
//!
//! `QuantumQWLE` (Section 5.3) runs an MNRS-style quantum walk on the Johnson
//! graph whose vertices are the `k`-subsets of an active candidate's
//! neighbourhood: two subsets are adjacent when they differ in exactly one
//! element. The walk's two relevant parameters are its stationary
//! distribution (uniform over subsets) and its spectral gap, which for the
//! normalised Johnson walk is exactly `δ = n / (k·(n − k)) ≈ 1/k`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::Error;
use crate::statevector::StateVector;

/// Largest vertex count for which [`JohnsonGraph::stationary_state`] will
/// materialise a dense state (64 Mi amplitudes ≈ 1 GiB): the dense
/// simulator is a validation tool, not a production path.
const MAX_DENSE_VERTICES: u128 = 1 << 26;

/// The Johnson graph `J(n, k)`: vertices are the `k`-element subsets of
/// `{0, …, n−1}`, and two subsets are adjacent when they differ by exactly
/// one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JohnsonGraph {
    n: usize,
    k: usize,
}

impl JohnsonGraph {
    /// Creates `J(n, k)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidJohnsonGraph`] if `k == 0` or `k > n`.
    pub fn new(n: usize, k: usize) -> Result<Self, Error> {
        if k == 0 || k > n {
            return Err(Error::InvalidJohnsonGraph { n, k });
        }
        Ok(JohnsonGraph { n, k })
    }

    /// The universe size `n`.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// The subset size `k`.
    #[must_use]
    pub fn subset_size(&self) -> usize {
        self.k
    }

    /// The number of vertices `C(n, k)`, saturating at `u128::MAX`.
    #[must_use]
    pub fn vertex_count(&self) -> u128 {
        binomial(self.n as u128, self.k as u128)
    }

    /// The degree of every vertex: `k · (n − k)`.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.k * (self.n - self.k)
    }

    /// The spectral gap of the normalised random walk on `J(n, k)`:
    /// `n / (k·(n − k))`, which is `Θ(1/k)` for `k ≤ n/2`, capped at 1 (for
    /// `k = 1` the Johnson graph is the complete graph, whose second
    /// eigenvalue is negative, so the usable gap is 1). Degenerate graphs
    /// with a single vertex (`k == n`) have gap 1 by convention.
    #[must_use]
    pub fn spectral_gap(&self) -> f64 {
        if self.k == self.n {
            return 1.0;
        }
        (self.n as f64 / (self.k as f64 * (self.n - self.k) as f64)).min(1.0)
    }

    /// The stationary distribution of the Johnson walk as a dense
    /// [`StateVector`]: the walk is regular, so the state is the uniform
    /// superposition over the `C(n, k)` vertices (indexed in the
    /// [`enumerate_vertices`](JohnsonGraph::enumerate_vertices) order). This
    /// is the bridge between the walk layer and the state-vector validation
    /// layer — e.g. drawing stationary vertex samples through a cached
    /// [`sampler`](StateVector::sampler).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the graph has more vertices
    /// than a dense validation state may hold.
    pub fn stationary_state(&self) -> Result<StateVector, Error> {
        let count = self.vertex_count();
        if count > MAX_DENSE_VERTICES {
            return Err(Error::InvalidParameter {
                name: "n",
                reason: format!(
                    "J({}, {}) has {count} vertices; dense validation states are capped at {MAX_DENSE_VERTICES}",
                    self.n, self.k
                ),
            });
        }
        StateVector::uniform(count as usize)
    }

    /// Samples a uniformly random vertex (a sorted `k`-subset).
    #[must_use]
    pub fn random_subset(&self, rng: &mut StdRng) -> Vec<usize> {
        let mut universe: Vec<usize> = (0..self.n).collect();
        universe.shuffle(rng);
        let mut subset: Vec<usize> = universe.into_iter().take(self.k).collect();
        subset.sort_unstable();
        subset
    }

    /// Samples a uniformly random neighbour of `subset`: one element leaves,
    /// one element from outside comes in.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `subset` is not a valid vertex
    /// of this graph, or if the graph has no neighbours (`k == n`).
    pub fn random_neighbor(
        &self,
        subset: &[usize],
        rng: &mut StdRng,
    ) -> Result<(Vec<usize>, usize, usize), Error> {
        self.validate_subset(subset)?;
        if self.k == self.n {
            return Err(Error::InvalidParameter {
                name: "subset",
                reason: "J(n, n) has a single vertex and no neighbours".into(),
            });
        }
        let leave = subset[rng.gen_range(0..subset.len())];
        let outside: Vec<usize> = (0..self.n).filter(|x| !subset.contains(x)).collect();
        let join = outside[rng.gen_range(0..outside.len())];
        let mut next: Vec<usize> = subset.iter().copied().filter(|&x| x != leave).collect();
        next.push(join);
        next.sort_unstable();
        Ok((next, leave, join))
    }

    /// Whether two subsets are adjacent in `J(n, k)` (differ in exactly one
    /// element).
    #[must_use]
    pub fn are_adjacent(&self, a: &[usize], b: &[usize]) -> bool {
        if a.len() != self.k || b.len() != self.k {
            return false;
        }
        let common = a.iter().filter(|x| b.contains(x)).count();
        common == self.k - 1
    }

    /// Enumerates every vertex of the graph. Exponential in `k`; intended for
    /// the small validation graphs used in tests.
    #[must_use]
    pub fn enumerate_vertices(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut current = Vec::new();
        enumerate_subsets(0, self.n, self.k, &mut current, &mut out);
        out
    }

    fn validate_subset(&self, subset: &[usize]) -> Result<(), Error> {
        let ok = subset.len() == self.k
            && subset.windows(2).all(|w| w[0] < w[1])
            && subset.iter().all(|&x| x < self.n);
        if ok {
            Ok(())
        } else {
            Err(Error::InvalidParameter {
                name: "subset",
                reason: format!("not a sorted {}-subset of 0..{}", self.k, self.n),
            })
        }
    }
}

fn enumerate_subsets(
    start: usize,
    n: usize,
    k: usize,
    current: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if current.len() == k {
        out.push(current.clone());
        return;
    }
    for x in start..n {
        current.push(x);
        enumerate_subsets(x + 1, n, k, current, out);
        current.pop();
    }
}

/// The binomial coefficient `C(n, k)`, saturating at `u128::MAX`.
#[must_use]
pub fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(10, 10), 1);
        assert_eq!(binomial(4, 9), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }

    #[test]
    fn construction_and_basic_parameters() {
        let j = JohnsonGraph::new(10, 3).unwrap();
        assert_eq!(j.vertex_count(), 120);
        assert_eq!(j.degree(), 21);
        assert!((j.spectral_gap() - 10.0 / 21.0).abs() < 1e-12);
        assert!(JohnsonGraph::new(3, 0).is_err());
        assert!(JohnsonGraph::new(3, 4).is_err());
    }

    #[test]
    fn gap_is_approximately_one_over_k() {
        let j = JohnsonGraph::new(1000, 100).unwrap();
        let gap = j.spectral_gap();
        assert!(gap > 0.5 / 100.0 && gap < 2.0 / 100.0, "gap = {gap}");
        assert_eq!(JohnsonGraph::new(5, 5).unwrap().spectral_gap(), 1.0);
    }

    #[test]
    fn stationary_state_is_uniform_over_vertices() {
        let j = JohnsonGraph::new(6, 3).unwrap();
        let state = j.stationary_state().unwrap();
        assert_eq!(state.dim() as u128, j.vertex_count());
        let expected = 1.0 / j.vertex_count() as f64;
        for x in 0..state.dim() {
            assert!((state.probability(x) - expected).abs() < 1e-12);
        }
        // Stationary samples through the cached sampler cover every vertex.
        let mut rng = StdRng::seed_from_u64(5);
        let sampler = state.sampler();
        let mut seen = vec![false; state.dim()];
        for _ in 0..2000 {
            seen[sampler.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Astronomic graphs refuse to materialise a dense state.
        assert!(JohnsonGraph::new(200, 100)
            .unwrap()
            .stationary_state()
            .is_err());
    }

    #[test]
    fn random_subset_and_neighbor_are_valid() {
        let j = JohnsonGraph::new(12, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let s = j.random_subset(&mut rng);
            assert_eq!(s.len(), 4);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            let (t, leave, join) = j.random_neighbor(&s, &mut rng).unwrap();
            assert!(j.are_adjacent(&s, &t));
            assert!(s.contains(&leave));
            assert!(!s.contains(&join));
            assert!(t.contains(&join));
            assert!(!t.contains(&leave));
        }
    }

    #[test]
    fn neighbor_rejects_invalid_subsets() {
        let j = JohnsonGraph::new(6, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(j.random_neighbor(&[0, 0], &mut rng).is_err());
        assert!(j.random_neighbor(&[0, 9], &mut rng).is_err());
        assert!(j.random_neighbor(&[0], &mut rng).is_err());
        let complete = JohnsonGraph::new(3, 3).unwrap();
        assert!(complete.random_neighbor(&[0, 1, 2], &mut rng).is_err());
    }

    #[test]
    fn enumeration_matches_vertex_count_and_degree() {
        let j = JohnsonGraph::new(7, 3).unwrap();
        let vertices = j.enumerate_vertices();
        assert_eq!(vertices.len() as u128, j.vertex_count());
        // Check the degree of a few vertices by brute force.
        for v in vertices.iter().take(5) {
            let degree = vertices.iter().filter(|u| j.are_adjacent(v, u)).count();
            assert_eq!(degree, j.degree());
        }
    }

    #[test]
    fn analytic_gap_matches_power_iteration_on_small_graph() {
        // Build the explicit normalised adjacency of J(8, 2) and estimate its
        // second eigenvalue by power iteration orthogonal to the all-ones
        // vector (the walk is regular, so the stationary distribution is
        // uniform). J(8, 2) is chosen because its second-largest eigenvalue
        // is unique in absolute value, so the power iteration converges.
        let j = JohnsonGraph::new(8, 2).unwrap();
        let vertices = j.enumerate_vertices();
        let m = vertices.len();
        let deg = j.degree() as f64;
        let mut x: Vec<f64> = (0..m)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let mu = mean(&x);
        x.iter_mut().for_each(|v| *v -= mu);
        let mut lambda = 0.0;
        for _ in 0..400 {
            let mut y = vec![0.0; m];
            for (a, va) in vertices.iter().enumerate() {
                for (b, vb) in vertices.iter().enumerate() {
                    if j.are_adjacent(va, vb) {
                        y[a] += x[b] / deg;
                    }
                }
            }
            let mu = mean(&y);
            y.iter_mut().for_each(|v| *v -= mu);
            let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            lambda = x.iter().zip(&y).map(|(a, b)| a * b).sum::<f64>();
            y.iter_mut().for_each(|v| *v /= norm);
            x = y;
        }
        let measured_gap = 1.0 - lambda.abs();
        assert!(
            (measured_gap - j.spectral_gap()).abs() < 0.02,
            "measured {measured_gap} vs analytic {}",
            j.spectral_gap()
        );
    }
}
