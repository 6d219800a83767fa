//! Cross-crate comparisons of quantum and classical message complexity: the
//! scaling-shape checks behind the E1–E10 experiment tables, at
//! integration-test sizes.

use classical_baselines::{CprDiameterTwoLe, KppCompleteLe};
use congest_net::topology;
use qle::algorithms::{QuantumLe, QuantumQwLe};
use qle::star::{classical_star_search, quantum_star_search};
use qle::{AlphaChoice, KChoice, LeaderElection};

/// Least-squares exponent of y ~ x^e on a log-log scale (local copy so the
/// integration tests do not depend on the bench harness crate).
fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[test]
fn quantum_le_scales_with_a_smaller_exponent_than_the_classical_baseline() {
    let quantum = QuantumLe::with_parameters(KChoice::Optimal, AlphaChoice::Fixed(0.25));
    let classical = KppCompleteLe::new();
    let mut quantum_points = Vec::new();
    let mut classical_points = Vec::new();
    for &n in &[64usize, 128, 256, 512] {
        let graph = topology::complete(n).unwrap();
        let mut q = 0.0;
        let mut c = 0.0;
        let reps = 3;
        for seed in 0..reps {
            q += quantum.run(&graph, seed).unwrap().cost.total_messages() as f64;
            c += classical.run(&graph, seed).unwrap().cost.total_messages() as f64;
        }
        quantum_points.push((n as f64, q / reps as f64));
        classical_points.push((n as f64, c / reps as f64));
    }
    let quantum_exponent = fit_exponent(&quantum_points);
    let classical_exponent = fit_exponent(&classical_points);
    assert!(
        quantum_exponent < classical_exponent,
        "quantum exponent {quantum_exponent:.2} should be below classical {classical_exponent:.2}"
    );
    assert!(
        quantum_exponent < 0.75,
        "quantum exponent {quantum_exponent:.2} too large"
    );
}

#[test]
fn qwle_scales_sublinearly_while_the_classical_diameter_two_baseline_is_linear() {
    let mut quantum_points = Vec::new();
    let mut classical_points = Vec::new();
    for &side in &[6usize, 8, 10] {
        let graph = topology::clique_of_cliques(side).unwrap();
        let n = graph.node_count();
        let quantum = QuantumQwLe::benchmark_profile(n);
        let classical = CprDiameterTwoLe {
            skip_full_topology_check: true,
        };
        quantum_points.push((
            n as f64,
            quantum.run(&graph, 3).unwrap().cost.total_messages() as f64,
        ));
        classical_points.push((
            n as f64,
            classical.run(&graph, 3).unwrap().cost.total_messages() as f64,
        ));
    }
    let classical_exponent = fit_exponent(&classical_points);
    assert!(
        classical_exponent > 0.75,
        "classical exponent {classical_exponent:.2} should be near 1"
    );
    // The quantum protocol's count is dominated by polylog amplification at
    // these sizes; the meaningful check is that it does not grow faster than
    // the classical one by more than the extra log factors.
    let quantum_exponent = fit_exponent(&quantum_points);
    assert!(
        quantum_exponent < classical_exponent + 0.8,
        "quantum exponent {quantum_exponent:.2} vs classical {classical_exponent:.2}"
    );
}

#[test]
fn star_search_advantage_holds_at_large_sizes() {
    let n = 8192;
    let inputs: Vec<bool> = (0..n).map(|i| i == 17).collect();
    let quantum = quantum_star_search(&inputs, 1, 0.1, 1).unwrap();
    let classical = classical_star_search(&inputs, 1).unwrap();
    assert!(quantum.found);
    assert!(quantum.messages < classical.messages);
}
