//! `QuantumLE` — quantum leader election on complete networks
//! (Section 5.1, Algorithm 1).
//!
//! The protocol has a classical phase and a quantum phase:
//!
//! 1. **Choosing candidates.** Every node becomes a candidate with
//!    probability `12·ln(n)/n` and draws a rank uniformly in `{1, …, n⁴}`.
//! 2. **Choosing referees.** Every candidate sends its rank to `k` arbitrary
//!    neighbours (the *referees*), which remember the highest rank they have
//!    seen.
//! 3. **Distributed Grover search.** Every candidate `v` runs
//!    `GroverSearch(k/n, α)` for a node that received a rank strictly higher
//!    than `r_v`; the two-round `Checking_v` procedure simply asks one node
//!    and gets a one-bit reply.
//! 4. **Decision.** A candidate that finds no such node enters the `ELECTED`
//!    state; every other node enters `NON-ELECTED`.
//!
//! With `k = Θ(n^{1/3})` the message complexity is `Õ(n^{1/3})`
//! (Corollary 5.3), beating the classical `Θ̃(√n)` bound.

use congest_net::{Graph, Network, NodeId, Payload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::candidate::{sample_candidates, Candidate};
use crate::config::{AlphaChoice, KChoice};
use crate::error::Error;
use crate::framework::{distributed_grover_search, CheckingOracle};
use crate::problems::NodeStatus;
use crate::protocol::{LeaderElection, RunOptions, TracedRun};

/// Messages exchanged by `QuantumLE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeMessage {
    /// A candidate's rank, sent to referees in the classical phase and as the
    /// query of `Checking_v`.
    Rank(u64),
    /// A referee's one-bit reply to a `Checking_v` query: "I received a rank
    /// strictly higher than yours".
    Reply(bool),
}

impl Payload for LeMessage {
    fn size_bits(&self) -> usize {
        match self {
            // A rank in 1..n⁴ is 4·log₂(n) bits; 64 is the machine-word bound
            // used throughout the workspace.
            LeMessage::Rank(_) => 64,
            LeMessage::Reply(_) => 2,
        }
    }
}

/// The `Checking_v` oracle of Algorithm 1: for a node `w`, ask `w` whether it
/// received a rank strictly higher than `r_v` in the classical phase (two
/// messages, two rounds).
#[derive(Debug)]
struct HigherRankOracle<'a> {
    candidate: Candidate,
    /// Number of nodes; the search domain `X` is every node but the
    /// candidate.
    n: usize,
    /// `max_received[w]`: the highest rank node `w` received in the classical
    /// phase (0 if none), shared by every candidate's oracle.
    max_received: &'a [u64],
    /// Cached marked nodes (`f_v⁻¹(1)`), in ascending node order.
    marked: Vec<NodeId>,
}

impl<'a> HigherRankOracle<'a> {
    /// `referees` lists, in ascending order, every node that received a
    /// rank: only those can hold one higher than the candidate's.
    fn new(candidate: Candidate, n: usize, max_received: &'a [u64], referees: &[NodeId]) -> Self {
        let marked = referees
            .iter()
            .copied()
            .filter(|&w| w != candidate.node && max_received[w] > candidate.rank)
            .collect();
        HigherRankOracle {
            candidate,
            n,
            max_received,
            marked,
        }
    }
}

impl CheckingOracle<LeMessage> for HigherRankOracle<'_> {
    type Item = NodeId;

    fn check(&mut self, net: &mut Network<LeMessage>, w: &NodeId) -> Result<bool, Error> {
        net.send(
            self.candidate.node,
            *w,
            LeMessage::Rank(self.candidate.rank),
        )?;
        net.advance_round();
        let answer = self.max_received[*w] > self.candidate.rank;
        net.send(*w, self.candidate.node, LeMessage::Reply(answer))?;
        net.advance_round();
        Ok(answer)
    }

    fn sample_input(&mut self, rng: &mut StdRng) -> NodeId {
        // The draw indexes the domain `0..n` without the candidate.
        let i = rng.gen_range(0..self.n - 1);
        if i < self.candidate.node {
            i
        } else {
            i + 1
        }
    }

    fn domain_size(&self) -> u64 {
        (self.n - 1) as u64
    }

    fn marked_count(&self) -> u64 {
        self.marked.len() as u64
    }

    fn sample_marked(&mut self, rng: &mut StdRng) -> Option<NodeId> {
        if self.marked.is_empty() {
            None
        } else {
            Some(self.marked[rng.gen_range(0..self.marked.len())])
        }
    }
}

/// The `QuantumLE` protocol (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantumLe {
    /// The trade-off parameter `k` (number of referees per candidate). The
    /// message-optimal choice is `k = n^{1/3}`.
    pub k: KChoice,
    /// The failure probability `α` of each candidate's Grover search.
    pub alpha: AlphaChoice,
}

impl Default for QuantumLe {
    fn default() -> Self {
        QuantumLe {
            k: KChoice::Optimal,
            alpha: AlphaChoice::HighProbability,
        }
    }
}

impl QuantumLe {
    /// The paper's message-optimal configuration (`k = n^{1/3}`, `α = 1/n²`).
    #[must_use]
    pub fn new() -> Self {
        QuantumLe::default()
    }

    /// A configuration with explicit `k` and `α` choices (used by the
    /// round/message trade-off experiment E2).
    #[must_use]
    pub fn with_parameters(k: KChoice, alpha: AlphaChoice) -> Self {
        QuantumLe { k, alpha }
    }

    fn validate(graph: &Graph) -> Result<(), Error> {
        let n = graph.node_count();
        if n < 2 {
            return Err(Error::UnsupportedTopology {
                protocol: "QuantumLE",
                reason: "need at least two nodes".into(),
            });
        }
        if graph.edge_count() != n * (n - 1) / 2 {
            return Err(Error::UnsupportedTopology {
                protocol: "QuantumLE",
                reason: format!(
                    "complete graph on {n} nodes needs {} edges, got {}",
                    n * (n - 1) / 2,
                    graph.edge_count()
                ),
            });
        }
        Ok(())
    }
}

impl LeaderElection for QuantumLe {
    fn name(&self) -> &'static str {
        "QuantumLE"
    }

    fn run_with(&self, graph: &Graph, seed: u64, opts: &RunOptions) -> Result<TracedRun, Error> {
        Self::validate(graph)?;
        let n = graph.node_count();
        let k = self.k.resolve(n, 1.0 / 3.0);
        let alpha = self.alpha.resolve(n);
        let mut net: Network<LeMessage> = opts.network(graph.clone(), seed);

        // Phase 1: choosing candidates (local randomness only).
        let candidates = sample_candidates(&mut net);
        let mut statuses = vec![NodeStatus::NonElected; n];

        // Phase 2: choosing referees — every candidate sends its rank to k
        // arbitrary (here: uniformly random distinct) other nodes, all in one
        // round; referees remember the highest rank received.
        let mut max_received = vec![0u64; n];
        for c in &candidates {
            let mut others: Vec<NodeId> = (0..n).filter(|&w| w != c.node).collect();
            others.shuffle(net.rng(c.node));
            for &w in others.iter().take(k) {
                net.send(c.node, w, LeMessage::Rank(c.rank))?;
                max_received[w] = max_received[w].max(c.rank);
            }
        }
        let referees: Vec<NodeId> = (0..n).filter(|&w| max_received[w] > 0).collect();
        net.advance_round();
        let classical_rounds = 1u64;

        // Phase 3 + 4: every candidate runs GroverSearch(k/n, α) for a node
        // holding a higher rank; finding none means it is the leader. The
        // candidates' searches run on disjoint edge sets, so the effective
        // round complexity is the maximum over candidates, not the sum.
        let epsilon = (k as f64 / n as f64).min(1.0);
        let mut max_quantum_rounds = 0u64;
        for c in &candidates {
            let mut oracle = HigherRankOracle::new(*c, n, &max_received, &referees);
            let outcome = distributed_grover_search(&mut net, c.node, &mut oracle, epsilon, alpha)?;
            max_quantum_rounds = max_quantum_rounds.max(outcome.rounds);
            statuses[c.node] = if outcome.found.is_none() {
                NodeStatus::Elected
            } else {
                NodeStatus::NonElected
            };
        }

        Ok(TracedRun::new(
            self.name(),
            graph,
            statuses,
            classical_rounds + max_quantum_rounds,
            net,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_net::topology;

    #[test]
    fn elects_a_unique_leader_with_high_probability() {
        let graph = topology::complete(64).unwrap();
        let protocol = QuantumLe::new();
        let mut successes = 0;
        let trials = 25;
        for seed in 0..trials {
            let run = protocol.run(&graph, seed).unwrap();
            if run.succeeded() {
                successes += 1;
            }
        }
        assert!(successes >= trials - 1, "successes = {successes}/{trials}");
    }

    #[test]
    fn leader_is_the_highest_ranked_candidate() {
        let graph = topology::complete(48).unwrap();
        let run = QuantumLe::new().run(&graph, 7).unwrap();
        assert!(run.succeeded());
        assert_eq!(run.outcome.leaders().len(), 1);
    }

    #[test]
    fn rejects_non_complete_graphs() {
        let graph = topology::cycle(16).unwrap();
        assert!(matches!(
            QuantumLe::new().run(&graph, 1),
            Err(Error::UnsupportedTopology { .. })
        ));
    }

    #[test]
    fn message_complexity_grows_sublinearly() {
        // Constant-success configuration so the α-amplification constant does
        // not mask the k + √(n/k) shape at small sizes. The asymptotic
        // exponent comparison against the classical √n protocol is the job of
        // experiment E1 (see the bench harness); here we only check that an
        // 8x larger network costs far less than 8x the messages.
        let protocol = QuantumLe::with_parameters(KChoice::Optimal, AlphaChoice::Fixed(0.2));
        let measure = |n: usize| {
            let graph = topology::complete(n).unwrap();
            let mut total = 0u64;
            let reps = 3;
            for seed in 0..reps {
                total += protocol.run(&graph, seed).unwrap().cost.total_messages();
            }
            total as f64 / reps as f64
        };
        let small = measure(64);
        let large = measure(512);
        let ratio = large / small;
        assert!(ratio < 5.5, "ratio = {ratio}");
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let graph = topology::complete(32).unwrap();
        let a = QuantumLe::new().run(&graph, 99).unwrap();
        let b = QuantumLe::new().run(&graph, 99).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.cost.metrics.total_messages(),
            b.cost.metrics.total_messages()
        );
    }

    #[test]
    fn larger_k_trades_messages_for_rounds() {
        let graph = topology::complete(256).unwrap();
        let small_k = QuantumLe::with_parameters(KChoice::Fixed(2), AlphaChoice::Fixed(0.2))
            .run(&graph, 5)
            .unwrap();
        let big_k = QuantumLe::with_parameters(KChoice::Fixed(64), AlphaChoice::Fixed(0.2))
            .run(&graph, 5)
            .unwrap();
        // More referees → fewer Grover rounds.
        assert!(big_k.cost.effective_rounds < small_k.cost.effective_rounds);
    }

    #[test]
    fn quantum_messages_dominate_with_small_k() {
        let graph = topology::complete(128).unwrap();
        let run = QuantumLe::with_parameters(KChoice::Fixed(1), AlphaChoice::Fixed(0.2))
            .run(&graph, 3)
            .unwrap();
        assert!(run.cost.metrics.quantum_messages > run.cost.metrics.classical_messages);
    }
}
