//! Candidate sampling and rank generation (paper, Appendix C).
//!
//! Every protocol in the paper starts by letting each node become a
//! *candidate* independently with probability `p = 12·ln(n)/n` and, if it
//! does, draw a uniform *rank* in `{1, …, n⁴}`. Fact C.2 shows that with
//! probability at least `1 − 1/n²` there is at least one candidate, at most
//! `24·ln(n)` candidates, and all candidate ranks are distinct.

use congest_net::{Network, Payload};
use rand::rngs::StdRng;
use rand::Rng;

/// A candidate node together with its random rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The candidate's node identifier.
    pub node: usize,
    /// The candidate's rank, uniform in `1..=n⁴` (capped at `u64::MAX`).
    pub rank: u64,
}

/// The candidate-sampling probability `12·ln(n)/n` of Algorithm 1 (clamped to
/// 1 for tiny networks).
#[must_use]
pub fn candidate_probability(n: usize) -> f64 {
    if n < 2 {
        return 1.0;
    }
    (12.0 * (n as f64).ln() / n as f64).min(1.0)
}

/// The rank universe size `n⁴` (saturating).
#[must_use]
pub fn rank_universe(n: usize) -> u64 {
    let n = n as u64;
    n.saturating_mul(n)
        .saturating_mul(n)
        .saturating_mul(n)
        .max(2)
}

/// Samples the candidate set using each node's private random stream of a
/// live network: each node becomes a candidate independently with probability
/// [`candidate_probability`] and draws a rank uniformly from
/// `1..=`[`rank_universe`]. The returned list is in node order.
#[must_use]
pub fn sample_candidates<M: Payload>(net: &mut Network<M>) -> Vec<Candidate> {
    let n = net.node_count();
    let p = candidate_probability(n);
    let universe = rank_universe(n);
    let mut candidates = Vec::new();
    for node in 0..n {
        let rng = net.rng(node);
        if rng.gen_bool(p) {
            candidates.push(Candidate {
                node,
                rank: rng.gen_range(1..=universe),
            });
        }
    }
    candidates
}

/// Pure variant of [`sample_candidates`] for tests and analyses that do not
/// have a network at hand: each node's stream is derived from `master_seed`.
#[must_use]
pub fn sample_candidates_seeded(n: usize, master_seed: u64) -> Vec<Candidate> {
    use rand::SeedableRng;
    let p = candidate_probability(n);
    let universe = rank_universe(n);
    let mut candidates = Vec::new();
    for node in 0..n {
        let mut rng =
            StdRng::seed_from_u64(master_seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if rng.gen_bool(p) {
            candidates.push(Candidate {
                node,
                rank: rng.gen_range(1..=universe),
            });
        }
    }
    candidates
}

/// The bounds of Fact C.2 for diagnostics: `(lower, upper)` bounds on the
/// candidate count that hold with probability at least `1 − 1/n²`.
#[must_use]
pub fn expected_candidate_bounds(n: usize) -> (usize, usize) {
    (1, (24.0 * (n.max(2) as f64).ln()).ceil() as usize)
}

/// Whether a sampled candidate set satisfies the Fact C.2 event: non-empty,
/// at most `24·ln n` candidates, and pairwise-distinct ranks.
#[must_use]
pub fn satisfies_fact_c2(n: usize, candidates: &[Candidate]) -> bool {
    let (lo, hi) = expected_candidate_bounds(n);
    if candidates.len() < lo || candidates.len() > hi {
        return false;
    }
    let mut ranks: Vec<u64> = candidates.iter().map(|c| c.rank).collect();
    ranks.sort_unstable();
    ranks.windows(2).all(|w| w[0] != w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_and_universe() {
        assert!((candidate_probability(1000) - 12.0 * 1000f64.ln() / 1000.0).abs() < 1e-12);
        assert_eq!(candidate_probability(1), 1.0);
        assert_eq!(rank_universe(10), 10_000);
        assert_eq!(rank_universe(1), 2);
    }

    #[test]
    fn sampled_ranks_are_in_range() {
        let ranks: Vec<u64> = (0..100)
            .flat_map(|seed| sample_candidates_seeded(50, seed))
            .map(|c| c.rank)
            .collect();
        assert!(!ranks.is_empty());
        assert!(ranks.iter().all(|r| (1..=rank_universe(50)).contains(r)));
    }

    #[test]
    fn fact_c2_holds_for_most_seeds() {
        // Monte-Carlo check of Fact C.2: the event should hold for the vast
        // majority of seeds (the theoretical failure probability is 1/n²).
        let n = 256;
        let trials: usize = 200;
        let ok = (0..trials)
            .filter(|&seed| satisfies_fact_c2(n, &sample_candidates_seeded(n, seed as u64)))
            .count();
        assert!(
            ok >= trials - 4,
            "fact C.2 held in only {ok}/{trials} trials"
        );
    }

    #[test]
    fn network_sampling_matches_model_statistics() {
        use congest_net::{topology, NetworkConfig};
        let n = 128;
        let mut totals = 0usize;
        let trials = 60;
        for seed in 0..trials {
            let graph = topology::complete(n).unwrap();
            let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(seed));
            totals += sample_candidates(&mut net).len();
        }
        let mean = totals as f64 / trials as f64;
        let expected = 12.0 * (n as f64).ln();
        assert!(
            (mean - expected).abs() < expected * 0.3,
            "mean = {mean}, expected = {expected}"
        );
    }

    #[test]
    fn bounds_are_sane() {
        let (lo, hi) = expected_candidate_bounds(1024);
        assert_eq!(lo, 1);
        assert!((24 * 6..=24 * 8).contains(&hi));
    }

    #[test]
    fn fact_c2_rejects_duplicates_and_empty() {
        assert!(!satisfies_fact_c2(100, &[]));
        let dup = vec![
            Candidate { node: 0, rank: 7 },
            Candidate { node: 1, rank: 7 },
        ];
        assert!(!satisfies_fact_c2(100, &dup));
    }
}
