//! The experiment suite E1–E10 (the README quickstart shows how to run it;
//! ROADMAP direction 2 tracks how each fitted exponent compares with the
//! paper).
//!
//! Every experiment returns an [`ExperimentTable`] whose rows are measured on
//! the metered CONGEST simulator. Message counts follow the paper's
//! definition of (quantum) message complexity; fitted exponents are reported
//! in the table notes so the scaling *shape* of each theorem can be compared
//! against its classical baseline directly.
//!
//! The quantum protocols are run in their constant-success configuration
//! (`α = 1/4`) for the scaling sweeps: the paper's `α = 1/n²` setting only
//! changes the measured counts by an explicit `O(log n)` amplification factor
//! but would otherwise dominate the constants at simulable sizes (the E1
//! table note states the substitution).

use classical_baselines::{
    AmpSharedCoinAgreement, CprDiameterTwoLe, GhsLe, KppCompleteLe, KppMixingLe,
    PrivateCoinAgreement,
};
use congest_net::topology;
use qle::algorithms::{QuantumAgreement, QuantumGeneralLe, QuantumLe, QuantumQwLe, QuantumRwLe};
use qle::candidate::{sample_candidates_seeded, satisfies_fact_c2};
use qle::star::{
    classical_star_count, classical_star_search, quantum_star_count, quantum_star_search,
};
use qle::{Agreement, AlphaChoice, KChoice, LeaderElection};

use crate::fit::fit_exponent;
use crate::table::ExperimentTable;

/// Number of seeds averaged per configuration in the sweep experiments.
const SEEDS: u64 = 2;

/// Runs `protocol` once per seed `0..seeds` and averages the measured costs
/// (messages, effective rounds, success rate).
fn average_le<P: LeaderElection>(
    protocol: &P,
    graph: &congest_net::Graph,
    seeds: u64,
) -> (f64, f64, f64) {
    let (mut messages, mut rounds, mut successes) = (0.0, 0.0, 0.0);
    for seed in 0..seeds {
        let run = protocol.run(graph, seed).expect("protocol run failed");
        messages += run.cost.total_messages() as f64;
        rounds += run.cost.effective_rounds as f64;
        successes += f64::from(u8::from(run.succeeded()));
    }
    (
        messages / seeds as f64,
        rounds / seeds as f64,
        successes / seeds as f64,
    )
}

/// E1 — Theorem 5.2 / Corollary 5.3: `QuantumLE` on complete graphs versus
/// the classical `Õ(√n)` protocol.
#[must_use]
pub fn e1_complete_le() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E1 (Cor 5.3): leader election on complete graphs — QuantumLE vs classical sqrt(n)",
        &[
            "n",
            "quantum msgs",
            "quantum rounds",
            "classical msgs",
            "classical rounds",
            "q success",
            "c success",
        ],
    );
    let quantum = QuantumLe::with_parameters(KChoice::Optimal, AlphaChoice::Fixed(0.25));
    let classical = KppCompleteLe::new();
    let sizes = [64usize, 128, 256, 512, 1024];
    let mut q_points = Vec::new();
    let mut c_points = Vec::new();
    for &n in &sizes {
        let graph = topology::complete(n).expect("complete graph");
        let (qm, qr, qs) = average_le(&quantum, &graph, SEEDS);
        let (cm, cr, cs) = average_le(&classical, &graph, SEEDS);
        q_points.push((n as f64, qm));
        c_points.push((n as f64, cm));
        table.push_row(vec![
            n.to_string(),
            format!("{qm:.0}"),
            format!("{qr:.0}"),
            format!("{cm:.0}"),
            format!("{cr:.0}"),
            format!("{qs:.2}"),
            format!("{cs:.2}"),
        ]);
    }
    table.push_note(format!(
        "fitted exponent: quantum {:.2} (paper: 1/3 ≈ 0.33 plus log factors), classical {:.2} (paper: 1/2 plus log factors)",
        fit_exponent(&q_points),
        fit_exponent(&c_points)
    ));
    let normalise = |points: &[(f64, f64)]| {
        let normalised: Vec<(f64, f64)> = points
            .iter()
            .map(|&(n, y)| (n, y / n.ln().powi(2)))
            .collect();
        fit_exponent(&normalised)
    };
    table.push_note(format!(
        "log-normalised exponent (messages / ln²n, removing the candidate-count and amplification logs): quantum {:.2} (→ 1/3), classical {:.2} (→ 1/2)",
        normalise(&q_points),
        normalise(&c_points)
    ));
    table.push_note("quantum run in constant-success mode (α = 1/4); the scenario engine's quantum-le cells run the α = 1/n² default");
    table
}

/// E2 — the round/message trade-off of Section 5.1: sweeping `k` at fixed `n`.
#[must_use]
pub fn e2_tradeoff() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E2 (Thm 5.2): QuantumLE round/message trade-off in k at n = 512",
        &["k exponent", "k", "messages", "effective rounds"],
    );
    let n = 512usize;
    let graph = topology::complete(n).expect("complete graph");
    for &exponent in &[0.25, 1.0 / 3.0, 5.0 / 12.0, 0.5] {
        let protocol =
            QuantumLe::with_parameters(KChoice::Exponent(exponent), AlphaChoice::Fixed(0.25));
        let (messages, rounds, _) = average_le(&protocol, &graph, SEEDS);
        let k = (n as f64).powf(exponent).round() as usize;
        table.push_row(vec![
            format!("{exponent:.3}"),
            k.to_string(),
            format!("{messages:.0}"),
            format!("{rounds:.0}"),
        ]);
    }
    table.push_note("larger k spends more classical messages to shorten the quantum search, as in the paper's k = n^{5/12} example");
    table
}

/// E3 — Theorem 5.4 / Corollary 5.5: `QuantumRWLE` on small-mixing-time
/// graphs versus the classical `Õ(τ√n)` random-walk protocol.
#[must_use]
pub fn e3_mixing_le() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E3 (Cor 5.5): leader election with mixing time τ — QuantumRWLE vs classical τ·sqrt(n)",
        &[
            "graph",
            "n",
            "τ",
            "quantum msgs",
            "classical msgs",
            "q success",
            "c success",
        ],
    );
    let mut q_points = Vec::new();
    let mut c_points = Vec::new();
    for &dim in &[6u32, 7, 8, 9] {
        let graph = topology::hypercube(dim).expect("hypercube");
        let n = graph.node_count();
        // The lazy walk on Q_d mixes in Θ(d·log d) steps, not d steps.
        let tau = (f64::from(dim) * f64::from(dim).ln()).ceil() as usize;
        let quantum =
            QuantumRwLe::with_parameters(KChoice::Optimal, AlphaChoice::Fixed(0.25), Some(tau));
        let classical = KppMixingLe::with_tau(tau);
        let (qm, _, qs) = average_le(&quantum, &graph, SEEDS);
        let (cm, _, cs) = average_le(&classical, &graph, SEEDS);
        q_points.push((n as f64, qm));
        c_points.push((n as f64, cm));
        table.push_row(vec![
            format!("hypercube Q{dim}"),
            n.to_string(),
            tau.to_string(),
            format!("{qm:.0}"),
            format!("{cm:.0}"),
            format!("{qs:.2}"),
            format!("{cs:.2}"),
        ]);
    }
    table.push_note(format!(
        "fitted exponent in n (τ = log n): quantum {:.2} (paper: 1/3 plus τ^{{5/3}} and log factors), classical {:.2} (paper: 1/2 plus τ and log factors)",
        fit_exponent(&q_points),
        fit_exponent(&c_points)
    ));
    table
}

/// E4 — Theorem 5.6 / Corollary 5.7: `QuantumQWLE` on diameter-2 graphs
/// versus the classical `Õ(n)` protocol.
#[must_use]
pub fn e4_diameter_two_le() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E4 (Cor 5.7): leader election on diameter-2 graphs — QuantumQWLE vs classical Θ(n)",
        &[
            "graph",
            "n",
            "quantum msgs",
            "classical msgs",
            "q success",
            "c success",
        ],
    );
    let mut q_points = Vec::new();
    let mut c_points = Vec::new();
    for &side in &[6usize, 8, 10, 12] {
        let graph = topology::clique_of_cliques(side).expect("clique of cliques");
        let n = graph.node_count();
        let quantum = QuantumQwLe::benchmark_profile(n);
        let classical = CprDiameterTwoLe {
            skip_full_topology_check: true,
        };
        let (qm, _, qs) = average_le(&quantum, &graph, 1);
        let (cm, _, cs) = average_le(&classical, &graph, SEEDS);
        q_points.push((n as f64, qm));
        c_points.push((n as f64, cm));
        table.push_row(vec![
            format!("clique-of-cliques({side})"),
            n.to_string(),
            format!("{qm:.0}"),
            format!("{cm:.0}"),
            format!("{qs:.2}"),
            format!("{cs:.2}"),
        ]);
    }
    table.push_note(format!(
        "fitted exponent: quantum {:.2} (paper: 2/3 plus log factors), classical {:.2} (paper: 1 plus log factors)",
        fit_exponent(&q_points),
        fit_exponent(&c_points)
    ));
    table.push_note("the quantum walk's nested amplification constants dominate at these sizes; the exponent, not the absolute count, is the reproduction target");
    table
}

/// E5 — Theorem 5.10: `QuantumGeneralLE` on arbitrary graphs versus the
/// classical GHS-style `Θ(m log n)` protocol.
#[must_use]
pub fn e5_general_le() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E5 (Thm 5.10): leader election on general graphs — QuantumGeneralLE vs classical tree merging",
        &["n", "m", "quantum msgs", "classical msgs", "q success", "c success"],
    );
    let quantum = QuantumGeneralLe::with_alpha(AlphaChoice::Fixed(0.3));
    let classical = GhsLe::new();
    let mut q_points = Vec::new();
    let mut c_points = Vec::new();
    for &n in &[32usize, 64, 128, 256] {
        let graph = topology::erdos_renyi_connected(n, 8.0 / n as f64, 17).expect("erdos-renyi");
        let m = graph.edge_count();
        let (qm, _, qs) = average_le(&quantum, &graph, SEEDS);
        let (cm, _, cs) = average_le(&classical, &graph, SEEDS);
        q_points.push(((n * m) as f64, qm * qm)); // (√(mn))² = m·n
        c_points.push((m as f64, cm));
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            format!("{qm:.0}"),
            format!("{cm:.0}"),
            format!("{qs:.2}"),
            format!("{cs:.2}"),
        ]);
    }
    table.push_note(format!(
        "fitted exponent of quantum msgs² in m·n: {:.2} (paper: 1.0, i.e. msgs ~ √(m·n)); classical msgs in m: {:.2} (paper: ~1.0 per phase)",
        fit_exponent(&q_points),
        fit_exponent(&c_points)
    ));
    table
}

/// E6 — Theorem 6.7 / Corollary 6.8: `QuantumAgreement` versus the classical
/// shared-coin and private-coin agreement baselines.
#[must_use]
pub fn e6_agreement() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E6 (Cor 6.8): implicit agreement on complete graphs with shared randomness",
        &[
            "n",
            "quantum msgs",
            "AMP shared-coin msgs",
            "private-coin msgs",
            "q valid",
            "amp valid",
        ],
    );
    let quantum = QuantumAgreement::with_alpha(AlphaChoice::Fixed(0.25));
    let amp = AmpSharedCoinAgreement::new();
    let private = PrivateCoinAgreement::new();
    for &n in &[64usize, 256, 1024] {
        let graph = topology::complete(n).expect("complete graph");
        let inputs: Vec<bool> = (0..n).map(|i| i % 10 < 3).collect();
        let q = quantum.run(&graph, &inputs, 1).expect("quantum agreement");
        let a = amp.run(&graph, &inputs, 1).expect("amp agreement");
        let p = private.run(&graph, &inputs, 1).expect("private agreement");
        table.push_row(vec![
            n.to_string(),
            q.cost.total_messages().to_string(),
            a.cost.total_messages().to_string(),
            p.cost.total_messages().to_string(),
            format!("{}", q.succeeded()),
            format!("{}", a.succeeded()),
        ]);
    }
    table.push_note("the paper's ε = n^{-1/5} only drops below its admissible ceiling of 1/20 for n > 20^5, so at simulable sizes both protocols run at ε = 1/20 and the n^{1/5} vs n^{2/5} separation shows up through the 1/ε vs 1/ε² estimation costs (E8) and the detection trade-off rather than through the n-sweep");
    table
}

/// E7 — Appendix B.2 (Searching): distributed Grover search on a star graph
/// versus querying every leaf.
#[must_use]
pub fn e7_star_search() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E7 (Thm 4.1, App. B.2): searching a star graph — quantum O(√n) vs classical Θ(n)",
        &["leaves", "quantum msgs", "classical msgs", "quantum found"],
    );
    let mut q_points = Vec::new();
    let mut c_points = Vec::new();
    for &n in &[256usize, 1024, 4096, 16384] {
        let inputs: Vec<bool> = (0..n).map(|i| i == n / 2).collect();
        let quantum = quantum_star_search(&inputs, 1, 0.1, 5).expect("quantum star search");
        let classical = classical_star_search(&inputs, 5).expect("classical star search");
        q_points.push((n as f64, quantum.messages as f64));
        c_points.push((n as f64, classical.messages as f64));
        table.push_row(vec![
            n.to_string(),
            quantum.messages.to_string(),
            classical.messages.to_string(),
            quantum.found.to_string(),
        ]);
    }
    table.push_note(format!(
        "fitted exponent: quantum {:.2} (paper: 0.5), classical {:.2} (paper: 1.0)",
        fit_exponent(&q_points),
        fit_exponent(&c_points)
    ));
    table
}

/// E8 — Appendix B.2 (Counting): distributed quantum counting versus
/// classical sampling.
#[must_use]
pub fn e8_star_counting() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E8 (Cor 4.3, App. B.2): counting on a star graph — quantum O(1/ε) vs classical Θ(1/ε²)",
        &[
            "ε",
            "quantum msgs",
            "classical msgs",
            "quantum estimate",
            "true count",
        ],
    );
    let n = 2000usize;
    let ones = 600usize;
    let inputs: Vec<bool> = (0..n).map(|i| i < ones).collect();
    let mut q_points = Vec::new();
    let mut c_points = Vec::new();
    for &eps in &[0.05f64, 0.02, 0.01, 0.005] {
        let quantum = quantum_star_count(&inputs, eps, 0.2, 3).expect("quantum star count");
        let classical = classical_star_count(&inputs, eps, 3).expect("classical star count");
        q_points.push((1.0 / eps, quantum.messages as f64));
        c_points.push((1.0 / eps, classical.messages as f64));
        table.push_row(vec![
            format!("{eps}"),
            quantum.messages.to_string(),
            classical.messages.to_string(),
            quantum.estimate.to_string(),
            ones.to_string(),
        ]);
    }
    table.push_note(format!(
        "fitted exponent in 1/ε: quantum {:.2} (paper: 1.0), classical {:.2} (paper: 2.0)",
        fit_exponent(&q_points),
        fit_exponent(&c_points)
    ));
    table
}

/// E9 — Section 1.2 ablation: the effect of the walk's subset size `k` on
/// `QuantumQWLE` (the `k + n/√k` shape; `k = 1` degenerates to nested Grover
/// searches without a walk database).
#[must_use]
pub fn e9_walk_ablation() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E9 (§1.2): QuantumQWLE ablation — walk subset size k on clique-of-cliques(10), n = 100",
        &["k", "messages", "effective rounds", "success"],
    );
    let graph = topology::clique_of_cliques(10).expect("clique of cliques");
    let n = graph.node_count();
    for &k in &[1usize, 4, 9, 18] {
        let protocol = QuantumQwLe {
            k: KChoice::Fixed(k),
            alpha: AlphaChoice::Fixed(0.25),
            iterations: Some((6.0 * (n as f64).ln()).ceil() as usize),
            activation_probability: Some(0.25),
            skip_full_topology_check: true,
        };
        let run = protocol.run(&graph, 5).expect("qwle run");
        table.push_row(vec![
            k.to_string(),
            run.cost.total_messages().to_string(),
            run.cost.effective_rounds.to_string(),
            run.succeeded().to_string(),
        ]);
    }
    table.push_note("small k (no useful walk database) forces the checking-heavy regime ~ n/√k; the paper's k = n^{2/3} balances Setup against the walk, the source of the n^{3/4} → n^{2/3} improvement discussed in §1.2");
    table
}

/// E10 — Fact C.2: candidate sampling produces between 1 and 24·ln n
/// candidates with distinct ranks, with probability ≥ 1 − 1/n².
#[must_use]
pub fn e10_candidate_sampling() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E10 (Fact C.2): candidate sampling — Monte-Carlo check",
        &[
            "n",
            "trials",
            "fraction satisfying Fact C.2",
            "mean candidates",
            "24·ln n",
        ],
    );
    for &n in &[64usize, 256, 1024, 4096] {
        let trials = 200u64;
        // Independent Monte-Carlo trials, one per seed.
        let (mut satisfied, mut total_candidates) = (0u64, 0usize);
        for seed in 0..trials {
            let candidates = sample_candidates_seeded(n, seed);
            satisfied += u64::from(satisfies_fact_c2(n, &candidates));
            total_candidates += candidates.len();
        }
        table.push_row(vec![
            n.to_string(),
            trials.to_string(),
            format!("{:.3}", satisfied as f64 / trials as f64),
            format!("{:.1}", total_candidates as f64 / trials as f64),
            format!("{:.1}", 24.0 * (n as f64).ln()),
        ]);
    }
    table.push_note("the paper's bound is ≥ 1 − 1/n²; the empirical fraction should be ≈ 1.000");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full sweeps are exercised by the `experiments` binary (and pinned
    // by `tests/golden/experiments.txt`); the unit tests here only check the
    // cheap experiments end-to-end so the table plumbing stays correct.

    #[test]
    fn star_and_sampling_tables_have_expected_shape() {
        let e7 = e7_star_search();
        assert_eq!(e7.rows.len(), 4);
        assert!(e7.to_string().contains("fitted exponent"));
        let e10 = e10_candidate_sampling();
        assert_eq!(e10.rows.len(), 4);
        for row in &e10.rows {
            let fraction: f64 = row[2].parse().unwrap();
            assert!(fraction > 0.95);
        }
    }

    #[test]
    fn tradeoff_table_runs() {
        let e2 = e2_tradeoff();
        assert_eq!(e2.rows.len(), 4);
    }
}
