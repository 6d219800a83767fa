//! Random walks and mixing-time estimation.
//!
//! `QuantumRWLE` (Section 5.2) replaces the neighbourhood exploration of the
//! complete-graph protocol by Θ(τ)-length random walks, where τ is the mixing
//! time of the network. This module provides:
//!
//! * spectral-gap estimation of the lazy random walk by power iteration,
//! * mixing-time estimates, both spectral (`O(log n / gap)`) and exact
//!   total-variation for small graphs.

use crate::graph::Graph;

/// Estimates the spectral gap `δ = 1 - λ₂` of the **lazy** random walk
/// `P' = (I + P)/2` on `graph`, by power iteration in the π-weighted inner
/// product (deflating the stationary eigenvector).
///
/// The lazy walk is aperiodic, so `λ₂ ∈ [0, 1)` and the estimate is a valid
/// input for [`spectral_mixing_time`]. `iterations` around 200 is plenty for
/// the graph sizes used in this workspace.
#[must_use]
pub fn spectral_gap(graph: &Graph, iterations: usize) -> f64 {
    let n = graph.node_count();
    if n <= 1 {
        return 1.0;
    }
    let pi = graph.stationary_distribution();
    // Start from a deterministic but unstructured vector (a fixed linear
    // congruential sequence), so the start has overlap with the second
    // eigenvector for every graph; a structured start such as an alternating
    // ±1 vector can be an exact eigenvector of a *different* eigenvalue (it
    // is on even cycles) and would trap the iteration.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut x: Vec<f64> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    deflate(&mut x, &pi);
    normalize(&mut x, &pi);
    let mut eigenvalue = 0.0;
    // Double-buffered power iteration: `y` is reused every round, so the
    // whole loop performs no allocation after this point.
    let mut y = vec![0.0; n];
    for _ in 0..iterations {
        apply_lazy_walk_into(graph, &x, &mut y);
        deflate(&mut y, &pi);
        eigenvalue = pi_dot(&y, &x, &pi);
        let norm = pi_norm(&y, &pi);
        if norm < 1e-300 {
            // x was (numerically) in the span of π: the chain mixes in one step.
            return 1.0;
        }
        for value in &mut y {
            *value /= norm;
        }
        std::mem::swap(&mut x, &mut y);
    }
    (1.0 - eigenvalue.abs()).clamp(1e-12, 1.0)
}

/// Spectral upper estimate of the ε-mixing time: `τ ≈ ln(n/ε) / δ` for the
/// lazy walk, with `δ` estimated by [`spectral_gap`].
#[must_use]
pub fn spectral_mixing_time(graph: &Graph, epsilon: f64) -> usize {
    let n = graph.node_count().max(2) as f64;
    let gap = spectral_gap(graph, 200);
    ((n / epsilon.max(1e-9)).ln() / gap).ceil().max(1.0) as usize
}

/// Exact total-variation ε-mixing time of the lazy walk, computed by
/// propagating the distribution from every start node (cost `O(n · m · τ)`,
/// intended for small validation graphs only).
///
/// Returns `max_t` if the chain has not mixed within `max_t` steps.
#[must_use]
pub fn total_variation_mixing_time(graph: &Graph, epsilon: f64, max_t: usize) -> usize {
    let n = graph.node_count();
    let pi = graph.stationary_distribution();
    let mut worst = 0;
    // One pair of distribution buffers reused across all n starts.
    let mut dist = vec![0.0; n];
    let mut next = vec![0.0; n];
    for start in 0..n {
        dist.fill(0.0);
        dist[start] = 1.0;
        let mut t = 0;
        while t < max_t {
            let tv: f64 = 0.5
                * dist
                    .iter()
                    .zip(&pi)
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>();
            if tv <= epsilon {
                break;
            }
            apply_lazy_walk_distribution_into(graph, &dist, &mut next);
            std::mem::swap(&mut dist, &mut next);
            t += 1;
        }
        worst = worst.max(t);
    }
    worst
}

/// Applies the lazy walk operator to a function on vertices, writing
/// `(P'f)(v)` into `out` (reused by callers to avoid per-iteration
/// allocation).
fn apply_lazy_walk_into(graph: &Graph, f: &[f64], out: &mut [f64]) {
    for v in 0..graph.node_count() {
        let degree = graph.degree(v);
        let avg: f64 = graph.neighbors(v).map(|u| f[u]).sum::<f64>() / degree as f64;
        out[v] = 0.5 * f[v] + 0.5 * avg;
    }
}

/// Pushes a probability distribution one step through the lazy walk, writing
/// into `out` (reused by callers).
fn apply_lazy_walk_distribution_into(graph: &Graph, dist: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for v in 0..graph.node_count() {
        let mass = dist[v];
        if mass == 0.0 {
            continue;
        }
        out[v] += 0.5 * mass;
        let share = 0.5 * mass / graph.degree(v) as f64;
        for u in graph.neighbors(v) {
            out[u] += share;
        }
    }
}

fn pi_dot(a: &[f64], b: &[f64], pi: &[f64]) -> f64 {
    a.iter().zip(b).zip(pi).map(|((x, y), w)| x * y * w).sum()
}

fn pi_norm(a: &[f64], pi: &[f64]) -> f64 {
    pi_dot(a, a, pi).sqrt()
}

fn deflate(x: &mut [f64], pi: &[f64]) {
    // Remove the component along the constant function (the top eigenvector
    // in the π-weighted inner product): ⟨x, 1⟩_π / ⟨1, 1⟩_π, where
    // ⟨1, 1⟩_π = Σ π(v) = 1.
    let coeff: f64 = x.iter().zip(pi).map(|(v, w)| v * w).sum();
    for value in x.iter_mut() {
        *value -= coeff;
    }
}

fn normalize(x: &mut [f64], pi: &[f64]) {
    let norm = pi_norm(x, pi);
    if norm > 0.0 {
        for value in x.iter_mut() {
            *value /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn complete_graph_has_large_gap() {
        let graph = topology::complete(32).unwrap();
        let gap = spectral_gap(&graph, 300);
        // Lazy walk on K_n has gap 0.5 + O(1/n).
        assert!(gap > 0.4, "gap = {gap}");
    }

    #[test]
    fn cycle_has_small_gap() {
        let big_cycle = spectral_gap(&topology::cycle(64).unwrap(), 600);
        let small_cycle = spectral_gap(&topology::cycle(8).unwrap(), 600);
        assert!(big_cycle < small_cycle);
        assert!(big_cycle < 0.05, "gap = {big_cycle}");
    }

    #[test]
    fn hypercube_mixes_polylogarithmically() {
        let graph = topology::hypercube(6).unwrap(); // 64 nodes
        let tau = spectral_mixing_time(&graph, 0.25);
        assert!(tau <= 80, "tau = {tau}");
        assert!(tau >= 3);
    }

    #[test]
    fn spectral_and_tv_mixing_agree_in_order() {
        let graph = topology::hypercube(4).unwrap(); // 16 nodes
        let tv = total_variation_mixing_time(&graph, 0.25, 1000);
        let spectral = spectral_mixing_time(&graph, 0.25);
        assert!(tv <= spectral * 4 + 4, "tv = {tv}, spectral = {spectral}");
        assert!(spectral <= tv * 20 + 20, "tv = {tv}, spectral = {spectral}");
    }

    #[test]
    fn barbell_mixes_slowly() {
        let barbell = topology::barbell(8, 1).unwrap();
        let expander =
            topology::random_regular(17, 4, 3).unwrap_or_else(|_| topology::complete(17).unwrap());
        let tau_barbell = total_variation_mixing_time(&barbell, 0.25, 4000);
        let tau_expander = total_variation_mixing_time(&expander, 0.25, 4000);
        assert!(
            tau_barbell > tau_expander * 2,
            "barbell {tau_barbell} vs expander {tau_expander}"
        );
    }
}
