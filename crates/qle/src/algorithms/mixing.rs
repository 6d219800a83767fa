//! `QuantumRWLE` — quantum leader election on graphs with mixing time `τ`
//! (Section 5.2, Algorithm 2).
//!
//! The structure mirrors `QuantumLE`, with neighbourhood exploration replaced
//! by random walks:
//!
//! 1. **Choosing candidates** as in Algorithm 1.
//! 2. **Choosing referees.** Every candidate launches `k` walk tokens
//!    carrying its rank; each token takes `Θ(τ)` (lazy) random-walk steps and
//!    the node where it *ends* becomes a referee (remembering the highest
//!    rank it received).
//! 3. **Distributed Grover search.** Every candidate searches the space of
//!    `Θ(τ)`-length random walks for one that ends at a node holding a higher
//!    rank. Because part of Grover search is centralised, the candidate must
//!    commit to the walk's random choices in advance and propagate them along
//!    the walk itself, which costs `Õ(τ²)` messages per `Checking` execution
//!    — the τ-blow-up discussed in Section 5.2.
//! 4. **Decision** as in Algorithm 1.
//!
//! With `k = Θ(τ^{2/3}·n^{1/3})` the message complexity is
//! `Õ(τ^{5/3}·n^{1/3})` (Corollary 5.5); on expanders (`τ = Õ(1)`) this is
//! `Õ(n^{1/3})`.
//!
//! **Substitution note.** The paper's walks are simple random walks; this
//! implementation uses *lazy* walks (stay with probability 1/2) so that the
//! mixing-time machinery also covers bipartite topologies such as hypercubes,
//! which the paper cites as its canonical small-τ example. This changes τ by
//! at most a constant factor.

use congest_net::walks::spectral_mixing_time;
use congest_net::{Graph, Network, NodeId, Payload};
use rand::rngs::StdRng;
use rand::Rng;

use crate::candidate::{sample_candidates, Candidate};
use crate::config::{AlphaChoice, KChoice};
use crate::error::Error;
use crate::framework::{distributed_grover_search, CheckingOracle};
use crate::problems::NodeStatus;
use crate::protocol::{LeaderElection, RunOptions, TracedRun};

/// Messages exchanged by `QuantumRWLE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RwMessage {
    /// A walk token carrying a candidate's rank and its remaining step budget
    /// (classical referee-selection phase).
    Token {
        /// The walking candidate's rank.
        rank: u64,
        /// Remaining steps of this token.
        steps_left: u32,
    },
    /// A hop of a pre-committed walk in the quantum phase: the rank plus a
    /// block of the remaining pre-committed random choices.
    Choices {
        /// The searching candidate's rank.
        rank: u64,
        /// How many pre-committed choices are still being forwarded after
        /// this block.
        remaining: u32,
    },
    /// The endpoint's one-bit verdict, relayed back along the walk.
    Reply(bool),
}

impl Payload for RwMessage {
    fn size_bits(&self) -> usize {
        match self {
            // A rank in 1..n⁴ needs 4·log₂(n) bits and the hop counter
            // log₂(τ) more; both fit the workspace's one-machine-word budget.
            RwMessage::Token { .. } => 64,
            // One O(log n)-bit block of pre-committed choices plus the rank.
            RwMessage::Choices { .. } => 64,
            RwMessage::Reply(_) => 2,
        }
    }
}

/// How many pre-committed walk choices fit in one CONGEST message alongside
/// the rank header. Each choice is an `O(log n)`-bit neighbour index plus a
/// laziness bit; with the workspace's 64-bit word budget we pack four per
/// message, which only shifts the `Õ(τ²)` constant.
const CHOICES_PER_MESSAGE: usize = 4;

/// The `Checking_v` oracle of Algorithm 2: evaluate one pre-committed
/// `Θ(τ)`-length walk, forwarding the remaining choices hop by hop and
/// relaying the endpoint's verdict back along the walk.
struct WalkCheckOracle<'a> {
    candidate: Candidate,
    graph: &'a Graph,
    max_received: &'a [u64],
    walk_length: usize,
    /// Probability that a random pre-committed walk is marked (ends at a node
    /// holding a rank above the candidate's), computed by exact distribution
    /// propagation.
    marked_fraction: f64,
}

impl WalkCheckOracle<'_> {
    /// Follows the walk defined by `choices` (lazy: even choice = stay, odd
    /// choice = move to neighbour `(c/2) mod deg`), returning the node
    /// sequence of the *moves* only.
    fn walk_path(&self, choices: &[u64]) -> Vec<NodeId> {
        let mut path = vec![self.candidate.node];
        let mut here = self.candidate.node;
        for &c in choices {
            if c % 2 == 1 {
                let degree = self.graph.degree(here);
                here = self
                    .graph
                    .neighbor(here, ((c / 2) % degree as u64) as usize);
                path.push(here);
            }
        }
        path
    }

    fn endpoint_is_marked(&self, choices: &[u64]) -> bool {
        let path = self.walk_path(choices);
        let end = *path.last().expect("path contains the start node");
        self.max_received[end] > self.candidate.rank
    }
}

impl CheckingOracle<RwMessage> for WalkCheckOracle<'_> {
    type Item = Vec<u64>;

    fn check(&mut self, net: &mut Network<RwMessage>, choices: &Vec<u64>) -> Result<bool, Error> {
        let path = self.walk_path(choices);
        // Forward the remaining pre-committed choices along each move of the
        // walk: at hop i there are (walk_length - i) choices left, costing
        // ⌈remaining / CHOICES_PER_MESSAGE⌉ messages of O(log n) bits each.
        let mut consumed = 0usize;
        for hop in path.windows(2) {
            let progressed = consumed + 1;
            let remaining = self.walk_length.saturating_sub(progressed);
            let blocks = remaining.div_ceil(CHOICES_PER_MESSAGE).max(1);
            for b in 0..blocks {
                let left = remaining.saturating_sub(b * CHOICES_PER_MESSAGE) as u32;
                net.send(
                    hop[0],
                    hop[1],
                    RwMessage::Choices {
                        rank: self.candidate.rank,
                        remaining: left,
                    },
                )?;
                net.advance_round();
            }
            consumed = progressed;
        }
        let answer = self.endpoint_is_marked(choices);
        // Relay the verdict back along the walk.
        for hop in path.windows(2).rev() {
            net.send(hop[1], hop[0], RwMessage::Reply(answer))?;
            net.advance_round();
        }
        Ok(answer)
    }

    fn sample_input(&mut self, rng: &mut StdRng) -> Vec<u64> {
        (0..self.walk_length).map(|_| rng.gen()).collect()
    }

    fn domain_size(&self) -> u64 {
        // The walk-choice domain is exponential; only the marked *fraction*
        // matters for the Grover outcome law, so report a fixed large domain
        // consistent with `marked_count`.
        1 << 40
    }

    fn marked_count(&self) -> u64 {
        (self.marked_fraction * self.domain_size() as f64).round() as u64
    }

    fn sample_marked(&mut self, rng: &mut StdRng) -> Option<Vec<u64>> {
        if self.marked_fraction <= 0.0 {
            return None;
        }
        let tries = (200.0 / self.marked_fraction).clamp(200.0, 200_000.0) as usize;
        for _ in 0..tries {
            let choices = self.sample_input(rng);
            if self.endpoint_is_marked(&choices) {
                return Some(choices);
            }
        }
        None
    }

    fn marked_fraction(&self) -> f64 {
        self.marked_fraction
    }
}

/// Probability that an `L`-step lazy walk from `start` ends at a node marked
/// by `is_marked`, by exact distribution propagation.
fn walk_hit_probability(
    graph: &Graph,
    start: NodeId,
    length: usize,
    is_marked: impl Fn(NodeId) -> bool,
) -> f64 {
    let n = graph.node_count();
    let mut dist = vec![0.0f64; n];
    dist[start] = 1.0;
    for _ in 0..length {
        let mut next = vec![0.0f64; n];
        for v in 0..n {
            let mass = dist[v];
            if mass == 0.0 {
                continue;
            }
            next[v] += 0.5 * mass;
            let share = 0.5 * mass / graph.degree(v) as f64;
            for u in graph.neighbors(v) {
                next[u] += share;
            }
        }
        dist = next;
    }
    (0..n).filter(|&v| is_marked(v)).map(|v| dist[v]).sum()
}

/// The `QuantumRWLE` protocol (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantumRwLe {
    /// The trade-off parameter `k` (number of walk tokens per candidate). The
    /// message-optimal choice is `k = τ^{2/3}·n^{1/3}`.
    pub k: KChoice,
    /// The failure probability `α` of each candidate's Grover search.
    pub alpha: AlphaChoice,
    /// The mixing time `τ` to assume. `None` estimates it spectrally from the
    /// graph (the paper assumes nodes know τ).
    pub tau: Option<usize>,
}

impl Default for QuantumRwLe {
    fn default() -> Self {
        QuantumRwLe {
            k: KChoice::Optimal,
            alpha: AlphaChoice::HighProbability,
            tau: None,
        }
    }
}

impl QuantumRwLe {
    /// The paper's message-optimal configuration.
    #[must_use]
    pub fn new() -> Self {
        QuantumRwLe::default()
    }

    /// A configuration with explicit parameter choices.
    #[must_use]
    pub fn with_parameters(k: KChoice, alpha: AlphaChoice, tau: Option<usize>) -> Self {
        QuantumRwLe { k, alpha, tau }
    }

    fn resolve_tau(&self, graph: &Graph) -> usize {
        self.tau
            .unwrap_or_else(|| spectral_mixing_time(graph, 0.25))
            .max(1)
    }

    fn resolve_k(&self, n: usize, tau: usize) -> usize {
        match self.k {
            KChoice::Optimal => {
                let k = (tau as f64).powf(2.0 / 3.0) * (n as f64).powf(1.0 / 3.0);
                (k.round().max(1.0) as usize).min(n.saturating_sub(1).max(1))
            }
            other => other.resolve(n, 1.0 / 3.0),
        }
    }
}

impl LeaderElection for QuantumRwLe {
    fn name(&self) -> &'static str {
        "QuantumRWLE"
    }

    fn run_with(&self, graph: &Graph, seed: u64, opts: &RunOptions) -> Result<TracedRun, Error> {
        graph.validate_as_network()?;
        let n = graph.node_count();
        if n < 3 {
            return Err(Error::UnsupportedTopology {
                protocol: "QuantumRWLE",
                reason: "need at least three nodes".into(),
            });
        }
        let tau = self.resolve_tau(graph);
        let walk_length = tau;
        let k = self.resolve_k(n, tau);
        let alpha = self.alpha.resolve(n);
        let mut net: Network<RwMessage> = opts.network(graph.clone(), seed);

        // Phase 1: candidates.
        let candidates = sample_candidates(&mut net);
        let mut statuses = vec![NodeStatus::NonElected; n];

        // Phase 2: referees via k walk tokens of length Θ(τ) per candidate.
        // The walks of different candidates are logically parallel; the
        // simulation runs them token by token and reports the parallel round
        // complexity (the walk length) separately.
        let mut max_received = vec![0u64; n];
        for c in &candidates {
            for _ in 0..k {
                let mut here = c.node;
                for step in 0..walk_length {
                    let lazy_stay: bool = net.rng(here).gen();
                    if lazy_stay {
                        continue;
                    }
                    let degree = net.graph().degree(here);
                    let port = net.rng(here).gen_range(0..degree);
                    let next = net.graph().neighbor(here, port);
                    let steps_left = (walk_length - step - 1) as u32;
                    net.send(
                        here,
                        next,
                        RwMessage::Token {
                            rank: c.rank,
                            steps_left,
                        },
                    )?;
                    net.advance_round();
                    here = next;
                }
                max_received[here] = max_received[here].max(c.rank);
            }
        }
        let classical_rounds = walk_length as u64;

        // Phase 3 + 4: Grover search over pre-committed walks.
        let epsilon = (k as f64 / n as f64).min(1.0);
        let mut max_quantum_rounds = 0u64;
        for c in &candidates {
            let fraction =
                walk_hit_probability(graph, c.node, walk_length, |w| max_received[w] > c.rank);
            let mut oracle = WalkCheckOracle {
                candidate: *c,
                graph,
                max_received: &max_received,
                walk_length,
                marked_fraction: fraction,
            };
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
    fn elects_a_unique_leader_on_expanders() {
        let graph = topology::random_regular(48, 4, 5).unwrap();
        let protocol =
            QuantumRwLe::with_parameters(KChoice::Optimal, AlphaChoice::HighProbability, Some(12));
        let trials = 12;
        let mut successes = 0;
        for seed in 0..trials {
            let run = protocol.run(&graph, seed).unwrap();
            if run.succeeded() {
                successes += 1;
            }
        }
        assert!(successes >= trials - 1, "successes = {successes}/{trials}");
    }

    #[test]
    fn works_on_hypercubes_with_estimated_mixing_time() {
        let graph = topology::hypercube(5).unwrap();
        let run = QuantumRwLe::new().run(&graph, 3).unwrap();
        assert!(run.succeeded());
        assert!(run.cost.total_messages() > 0);
    }

    #[test]
    fn walk_hit_probability_matches_stationary_mass() {
        // After many lazy steps on a regular graph, the endpoint is uniform,
        // so the hit probability of a 3-node marked set approaches 3/n.
        let graph = topology::random_regular(30, 4, 1).unwrap();
        let p = walk_hit_probability(&graph, 0, 200, |v| v < 3);
        assert!((p - 0.1).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn checking_cost_grows_with_walk_length() {
        // The τ² blow-up: doubling the walk length should more than double
        // the per-check message cost.
        let graph = topology::hypercube(5).unwrap();
        let measure = |tau: usize| {
            let protocol = QuantumRwLe::with_parameters(
                KChoice::Fixed(4),
                AlphaChoice::Fixed(0.25),
                Some(tau),
            );
            let run = protocol.run(&graph, 11).unwrap();
            run.cost.total_messages()
        };
        let short = measure(6);
        let long = measure(12);
        assert!(
            long as f64 > short as f64 * 2.0,
            "short = {short}, long = {long}"
        );
    }

    #[test]
    fn rejects_tiny_networks() {
        let graph = topology::path(2).unwrap();
        assert!(QuantumRwLe::new().run(&graph, 0).is_err());
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let graph = topology::hypercube(4).unwrap();
        let protocol =
            QuantumRwLe::with_parameters(KChoice::Fixed(3), AlphaChoice::Fixed(0.2), Some(8));
        let a = protocol.run(&graph, 21).unwrap();
        let b = protocol.run(&graph, 21).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.cost.metrics.total_messages(),
            b.cost.metrics.total_messages()
        );
    }
}
