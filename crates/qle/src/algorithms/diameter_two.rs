//! `QuantumQWLE` — quantum leader election on diameter-2 networks
//! (Section 5.3, Algorithm 3).
//!
//! This is the paper's most intricate protocol and the first use of quantum
//! walks in distributed computing. Candidates repeatedly and randomly split
//! into *active* and *passive* ones; an active candidate `v` challenges the
//! passive candidates by running an MNRS quantum walk on the Johnson graph
//! `J(deg(v), k)` whose vertices are `k`-subsets of `v`'s neighbours (the
//! *referees*):
//!
//! * `Setup(W)` sends `v`'s rank to every referee in `W`;
//! * `Update(W, W′)` swaps one referee;
//! * `Checking(W)` is a two-step procedure — a **decentralized** step in
//!   which every passive candidate Grover-searches its own neighbourhood for
//!   a referee holding a smaller rank (and informs it), and a **centralized**
//!   step in which `v` Grover-searches `W` for a referee that was informed of
//!   a higher rank.
//!
//! An active candidate that finds such a referee becomes `NON-ELECTED`; after
//! `Θ(log³ n)` iterations the surviving candidate (with high probability the
//! one with the highest rank) becomes the leader. With `k = Θ(n^{2/3})` the
//! message complexity is `Õ(n^{2/3})` (Corollary 5.7), beating the classical
//! `Θ(n)` bound of CPR20.
//!
//! **Clarification adopted from the analysis.** A referee `w ∈ N(v)`
//! contradicts `v`'s leadership when it is adjacent to a passive candidate of
//! higher rank *or is itself* such a candidate (the latter covers adjacent
//! candidate pairs that share no common neighbour, which diameter 2 permits);
//! with this reading the highest-ranked candidate is never eliminated and
//! every other candidate has at least one contradicting referee whenever a
//! higher-ranked candidate is passive, exactly as the proof of Theorem 5.6
//! requires.
//!
//! **Referees are addressed by port.** The Johnson universe `0..deg(v)` is
//! `v`'s own port set, so a walk vertex is a set of ports, as a KT0 node
//! would hold it. Setup, Update and every probe, reply and inform go out
//! through [`Network::send_through_port`] (O(1)); a reply goes back through
//! [`Graph::reverse_port_at`]. Whether a probed referee is marked is an O(1)
//! read of a per-port table, and the decentralized step tests referee
//! membership in one n-entry mask that each Checking call sets for its
//! subset and clears again.

use congest_net::{Graph, Network, NodeId, Payload, Port};
use quantum_sim::johnson::JohnsonGraph;
use rand::rngs::StdRng;
use rand::Rng;

use crate::candidate::{sample_candidates, Candidate};
use crate::config::{AlphaChoice, KChoice};
use crate::error::Error;
use crate::framework::{
    distributed_grover_search, distributed_walk_search, CheckingOracle, WalkOracle,
};
use crate::problems::{LeaderElectionOutcome, NodeStatus};
use crate::protocol::{LeaderElection, RunOptions, TracedRun};
use crate::report::{CostSummary, LeaderElectionRun};

/// Messages exchanged by `QuantumQWLE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QwMessage {
    /// A candidate's rank (Setup, Update, and the passive candidates'
    /// "inform" messages).
    Rank(u64),
    /// A probe of the inner Grover searches ("do you hold a smaller rank /
    /// were you informed of a higher rank?").
    Probe(u64),
    /// A one-bit reply to a probe.
    Reply(bool),
    /// The active candidate recalling its rank from a referee that leaves the
    /// walk's current subset (Update).
    Recall,
}

impl Payload for QwMessage {
    fn size_bits(&self) -> usize {
        match self {
            QwMessage::Rank(_) | QwMessage::Probe(_) => 64,
            QwMessage::Reply(_) => 2,
            QwMessage::Recall => 8,
        }
    }
}

/// A reusable inner oracle: `owner` probes the neighbour behind one of its
/// ports and gets a one-bit reply (two messages, two rounds). Used both by
/// the passive candidates' decentralized search and by the active
/// candidate's centralized search.
struct NeighborProbeOracle<'a> {
    owner: NodeId,
    rank: u64,
    /// The searched ports of `owner`, in domain order.
    domain: &'a [Port],
    /// Per-port marks of `owner`: `marked[p]` is the reply a probe through
    /// port `p` gets.
    marked: &'a [bool],
    /// How many ports of `domain` are marked.
    marked_count: usize,
}

impl CheckingOracle<QwMessage> for NeighborProbeOracle<'_> {
    type Item = Port;

    fn check(&mut self, net: &mut Network<QwMessage>, port: &Port) -> Result<bool, Error> {
        net.send_through_port(self.owner, *port, QwMessage::Probe(self.rank))?;
        net.advance_round();
        let answer = self.marked[*port];
        let graph = net.graph();
        let referee = graph.neighbor(self.owner, *port);
        let back = graph.reverse_port_at(self.owner, *port);
        net.send_through_port(referee, back, QwMessage::Reply(answer))?;
        net.advance_round();
        Ok(answer)
    }

    fn sample_input(&mut self, rng: &mut StdRng) -> Port {
        self.domain[rng.gen_range(0..self.domain.len())]
    }

    fn domain_size(&self) -> u64 {
        self.domain.len() as u64
    }

    fn marked_count(&self) -> u64 {
        self.marked_count as u64
    }

    fn sample_marked(&mut self, rng: &mut StdRng) -> Option<Port> {
        if self.marked_count == 0 {
            return None;
        }
        // A uniform marked port: the n-th marked one in domain order.
        let nth = rng.gen_range(0..self.marked_count);
        self.domain
            .iter()
            .copied()
            .filter(|&p| self.marked[p])
            .nth(nth)
    }
}

/// Buffers of the decentralized step, allocated once per run and reused by
/// every Checking call.
struct ProbeScratch {
    /// `referee[w]`: whether node `w` is in the current Checking call's
    /// subset. Set at the start of the decentralized step, cleared at its
    /// end.
    referee: Vec<bool>,
    /// `ports[p] == p`: a passive candidate's whole port set is
    /// `ports[..deg]`.
    ports: Vec<Port>,
    /// The current passive candidate's per-port marks (`marks[..deg]`).
    marks: Vec<bool>,
}

impl ProbeScratch {
    fn new(n: usize) -> Self {
        // A node has fewer than n ports.
        ProbeScratch {
            referee: vec![false; n],
            ports: (0..n).collect(),
            marks: vec![false; n],
        }
    }
}

/// The MNRS walk oracle of one active candidate.
struct ChallengeOracle<'a> {
    active: Candidate,
    /// The walk on `k`-subsets of the active candidate's ports `0..deg(v)`.
    johnson: JohnsonGraph,
    /// For each port of the active candidate, whether the referee behind it
    /// contradicts the active candidate's leadership (is, or is adjacent to,
    /// a passive candidate of higher rank).
    witness: Vec<bool>,
    witness_count: usize,
    /// The passive candidates (all of them run the decentralized step).
    passive: &'a [Candidate],
    graph: &'a Graph,
    inner_alpha: f64,
    scratch: &'a mut ProbeScratch,
}

impl ChallengeOracle<'_> {
    /// Fraction of `k`-subsets of the neighbourhood containing at least one
    /// witness: `1 − C(deg − h, k)/C(deg, k)`, computed as a running product.
    fn marked_subset_fraction(&self) -> f64 {
        let g = self.johnson.universe() as f64;
        let h = self.witness_count as f64;
        let mut none = 1.0;
        for i in 0..self.johnson.subset_size() {
            let i = i as f64;
            if g - i <= 0.0 {
                break;
            }
            none *= ((g - h - i) / (g - i)).max(0.0);
        }
        1.0 - none
    }

    /// Sets (`on`) or clears the referee mask entries of `subset`'s nodes.
    fn mark_referees(&mut self, subset: &[Port], on: bool) {
        for &port in subset {
            self.scratch.referee[self.graph.neighbor(self.active.node, port)] = on;
        }
    }

    /// The decentralized step: every passive candidate v' searches its own
    /// ports for a referee currently holding a smaller rank than its own,
    /// and informs it. The searches of different passive candidates run
    /// concurrently without being triggered by the active candidate
    /// (Section 4.1); the simulation executes them one after the other and
    /// the round complexity is accounted for at the protocol level. Reads
    /// the referee mask, which the caller has set.
    fn decentralized_step(&mut self, net: &mut Network<QwMessage>) -> Result<(), Error> {
        let scratch = &mut *self.scratch;
        for passive in self.passive {
            let degree = self.graph.degree(passive.node);
            let higher = passive.rank > self.active.rank;
            let marks = &mut scratch.marks[..degree];
            let mut marked_count = 0;
            for (mark, w) in marks.iter_mut().zip(self.graph.neighbors(passive.node)) {
                *mark = higher && scratch.referee[w];
                marked_count += usize::from(*mark);
            }
            let mut oracle = NeighborProbeOracle {
                owner: passive.node,
                rank: passive.rank,
                domain: &scratch.ports[..degree],
                marked: marks,
                marked_count,
            };
            let outcome = distributed_grover_search(
                net,
                passive.node,
                &mut oracle,
                1.0 / degree as f64,
                self.inner_alpha,
            )?;
            if let Some(port) = outcome.found {
                net.send_through_port(passive.node, port, QwMessage::Rank(passive.rank))?;
                net.advance_round();
            }
        }
        Ok(())
    }
}

impl CheckingOracle<QwMessage> for ChallengeOracle<'_> {
    type Item = Vec<Port>;

    fn check(&mut self, net: &mut Network<QwMessage>, subset: &Vec<Port>) -> Result<bool, Error> {
        self.mark_referees(subset, true);
        let decentralized = self.decentralized_step(net);
        self.mark_referees(subset, false);
        decentralized?;

        // Centralized step: the active candidate searches its current referee
        // set for one that was informed of a higher rank. The subset holds
        // its ports, and `witness` is the per-port answer.
        let informed = subset.iter().filter(|&&port| self.witness[port]).count();
        let mut oracle = NeighborProbeOracle {
            owner: self.active.node,
            rank: self.active.rank,
            domain: subset,
            marked: &self.witness,
            marked_count: informed,
        };
        distributed_grover_search(
            net,
            self.active.node,
            &mut oracle,
            1.0 / subset.len() as f64,
            self.inner_alpha,
        )?;

        // The value of f(W) itself (the nested searches above realise the
        // evaluation distributively; their own failure probabilities are
        // folded into the primitive's α as in the proof of Theorem 5.6).
        Ok(informed > 0)
    }

    fn sample_input(&mut self, rng: &mut StdRng) -> Vec<Port> {
        self.johnson.random_subset(rng)
    }

    fn domain_size(&self) -> u64 {
        self.johnson.vertex_count().min(u64::MAX as u128) as u64
    }

    fn marked_count(&self) -> u64 {
        (self.marked_subset_fraction() * self.domain_size() as f64).round() as u64
    }

    fn sample_marked(&mut self, rng: &mut StdRng) -> Option<Vec<Port>> {
        if self.witness_count == 0 {
            return None;
        }
        // Build a marked subset directly: one uniformly chosen witness plus
        // k − 1 other distinct ports.
        let ports = 0..self.johnson.universe();
        let witnesses: Vec<Port> = ports.clone().filter(|&p| self.witness[p]).collect();
        let chosen_witness = witnesses[rng.gen_range(0..witnesses.len())];
        let mut subset = vec![chosen_witness];
        let mut others: Vec<Port> = ports.filter(|&p| p != chosen_witness).collect();
        while subset.len() < self.johnson.subset_size() && !others.is_empty() {
            let pick = rng.gen_range(0..others.len());
            subset.push(others.swap_remove(pick));
        }
        subset.sort_unstable();
        Some(subset)
    }

    fn marked_fraction(&self) -> f64 {
        self.marked_subset_fraction()
    }
}

impl WalkOracle<QwMessage> for ChallengeOracle<'_> {
    fn setup(&mut self, net: &mut Network<QwMessage>, subset: &Vec<Port>) -> Result<(), Error> {
        for &port in subset {
            net.send_through_port(self.active.node, port, QwMessage::Rank(self.active.rank))?;
        }
        net.advance_round();
        Ok(())
    }

    fn update(
        &mut self,
        net: &mut Network<QwMessage>,
        subset: &Vec<Port>,
        rng: &mut StdRng,
    ) -> Result<Vec<Port>, Error> {
        if self.johnson.subset_size() >= self.johnson.universe() {
            // Degenerate walk (the subset is the whole neighbourhood): the
            // Johnson graph has a single vertex and the walk stays put.
            return Ok(subset.clone());
        }
        let (next, leave, join) = self.johnson.random_neighbor(subset, rng)?;
        let v = self.active.node;
        net.send_through_port(v, leave, QwMessage::Recall)?;
        net.advance_round();
        let leaving = self.graph.neighbor(v, leave);
        let back = self.graph.reverse_port_at(v, leave);
        net.send_through_port(leaving, back, QwMessage::Rank(self.active.rank))?;
        net.send_through_port(v, join, QwMessage::Rank(self.active.rank))?;
        net.advance_round();
        Ok(next)
    }

    fn spectral_gap(&self) -> f64 {
        self.johnson.spectral_gap()
    }
}

/// The `QuantumQWLE` protocol (Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantumQwLe {
    /// The referee-subset size `k`. The message-optimal choice is
    /// `k = n^{2/3}` (clamped per candidate to its degree).
    pub k: KChoice,
    /// The failure probability of the quantum subroutines.
    pub alpha: AlphaChoice,
    /// Number of active/passive iterations. `None` uses the paper's
    /// `⌈ln³ n⌉`.
    pub iterations: Option<usize>,
    /// Per-iteration activation probability. `None` uses the paper's
    /// `1/ln² n`.
    pub activation_probability: Option<f64>,
    /// Skip the (expensive, `O(n·m)`) exact diameter validation and only spot
    /// check a few eccentricities; intended for large benchmark graphs that
    /// are diameter-2 by construction.
    pub skip_full_topology_check: bool,
}

impl Default for QuantumQwLe {
    fn default() -> Self {
        QuantumQwLe {
            k: KChoice::Optimal,
            alpha: AlphaChoice::HighProbability,
            iterations: None,
            activation_probability: None,
            skip_full_topology_check: false,
        }
    }
}

impl QuantumQwLe {
    /// The paper's message-optimal configuration.
    #[must_use]
    pub fn new() -> Self {
        QuantumQwLe::default()
    }

    /// A configuration with explicit parameter choices.
    #[must_use]
    pub fn with_parameters(
        k: KChoice,
        alpha: AlphaChoice,
        iterations: Option<usize>,
        activation_probability: Option<f64>,
    ) -> Self {
        QuantumQwLe {
            k,
            alpha,
            iterations,
            activation_probability,
            skip_full_topology_check: false,
        }
    }

    /// A constant-success profile for scaling experiments: constant failure
    /// probability, activation probability 1/4, and `⌈6·ln n⌉` iterations
    /// (enough for every candidate to be activated `Θ(log n)` times), so the
    /// `polylog(n)` amplification constants do not drown the `n^{2/3}` shape
    /// at simulable sizes.
    #[must_use]
    pub fn benchmark_profile(n: usize) -> Self {
        QuantumQwLe {
            k: KChoice::Optimal,
            alpha: AlphaChoice::Fixed(0.25),
            iterations: Some((6.0 * (n.max(3) as f64).ln()).ceil() as usize),
            activation_probability: Some(0.25),
            skip_full_topology_check: true,
        }
    }

    fn validate(&self, graph: &Graph) -> Result<(), Error> {
        let n = graph.node_count();
        if n < 4 {
            return Err(Error::UnsupportedTopology {
                protocol: "QuantumQWLE",
                reason: "need at least four nodes".into(),
            });
        }
        let diameter_ok = if graph.node_count() <= 600 && !self.skip_full_topology_check {
            graph.diameter() <= 2
        } else {
            // Spot-check a handful of eccentricities on large graphs.
            (0..graph.node_count())
                .step_by((graph.node_count() / 8).max(1))
                .all(|v| graph.eccentricity(v) <= 2)
        };
        if !diameter_ok {
            return Err(Error::UnsupportedTopology {
                protocol: "QuantumQWLE",
                reason: "graph diameter exceeds 2".into(),
            });
        }
        Ok(())
    }

    fn resolve_iterations(&self, n: usize) -> usize {
        self.iterations.unwrap_or_else(|| {
            let ln = (n.max(3) as f64).ln();
            (ln * ln * ln).ceil() as usize
        })
    }

    fn resolve_activation(&self, n: usize) -> f64 {
        self.activation_probability
            .unwrap_or_else(|| {
                let ln = (n.max(3) as f64).ln();
                1.0 / (ln * ln)
            })
            .clamp(1e-6, 1.0)
    }
}

impl LeaderElection for QuantumQwLe {
    fn name(&self) -> &'static str {
        "QuantumQWLE"
    }

    #[allow(clippy::too_many_lines)]
    fn run_with(&self, graph: &Graph, seed: u64, opts: &RunOptions) -> Result<TracedRun, Error> {
        self.validate(graph)?;
        let n = graph.node_count();
        let k_target = self.k.resolve(n, 2.0 / 3.0);
        let alpha = self.alpha.resolve(n);
        let inner_alpha = match self.alpha {
            AlphaChoice::HighProbability => self.alpha.resolve_inner(n),
            AlphaChoice::Fixed(a) => a.clamp(1e-12, 0.49),
        };
        let iterations = self.resolve_iterations(n);
        let activation = self.resolve_activation(n);
        let mut net: Network<QwMessage> = opts.network(graph.clone(), seed);

        let candidates = sample_candidates(&mut net);
        let mut in_race: Vec<bool> = vec![false; n];
        for c in &candidates {
            in_race[c.node] = true;
        }
        let mut effective_rounds = 0u64;
        let mut scratch = ProbeScratch::new(n);

        for _iteration in 0..iterations {
            let racers: Vec<Candidate> = candidates
                .iter()
                .copied()
                .filter(|c| in_race[c.node])
                .collect();
            if racers.len() <= 1 {
                break;
            }
            // Each remaining candidate flips active/passive with its private coin.
            let mut active = Vec::new();
            let mut passive = Vec::new();
            for c in &racers {
                if net.rng(c.node).gen_bool(activation) {
                    active.push(*c);
                } else {
                    passive.push(*c);
                }
            }
            if active.is_empty() {
                effective_rounds += 1;
                continue;
            }

            let mut max_challenge_rounds = 0u64;
            for candidate in &active {
                let degree = graph.degree(candidate.node);
                let k = k_target.min(degree);
                let johnson = JohnsonGraph::new(degree, k)?;
                // A neighbour is a witness when it is, or is adjacent to, a
                // passive candidate with a strictly higher rank.
                let witness: Vec<bool> = graph
                    .neighbors(candidate.node)
                    .map(|w| {
                        passive.iter().any(|p| {
                            p.rank > candidate.rank
                                && (p.node == w || graph.are_adjacent(p.node, w))
                        })
                    })
                    .collect();
                let witness_count = witness.iter().filter(|b| **b).count();
                let mut oracle = ChallengeOracle {
                    active: *candidate,
                    johnson,
                    witness,
                    witness_count,
                    passive: &passive,
                    graph,
                    inner_alpha,
                    scratch: &mut scratch,
                };
                let epsilon = (k as f64 / degree as f64).min(1.0);
                let rounds_before = net.metrics().rounds;
                let outcome =
                    distributed_walk_search(&mut net, candidate.node, &mut oracle, epsilon, alpha)?;
                // The final extra Checking call of line 11 of Algorithm 3.
                let final_subset = {
                    use rand::SeedableRng;
                    let mut rng = StdRng::seed_from_u64(net.rng(candidate.node).gen());
                    oracle.sample_input(&mut rng)
                };
                net.quantum_scope(|net| oracle.check(net, &final_subset))?;
                max_challenge_rounds =
                    max_challenge_rounds.max(net.metrics().rounds - rounds_before);
                if outcome.found.is_some() {
                    in_race[candidate.node] = false;
                }
            }
            effective_rounds += max_challenge_rounds;
        }

        let mut statuses = vec![NodeStatus::NonElected; n];
        for c in &candidates {
            if in_race[c.node] {
                statuses[c.node] = NodeStatus::Elected;
            }
        }
        Ok(TracedRun {
            run: LeaderElectionRun {
                protocol: self.name().to_string(),
                nodes: n,
                edges: graph.edge_count(),
                outcome: LeaderElectionOutcome::new(statuses),
                cost: CostSummary {
                    metrics: net.metrics(),
                    effective_rounds,
                },
            },
            trace: net.take_trace(),
            telemetry: net.take_telemetry(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_net::topology;

    fn test_profile(n: usize) -> QuantumQwLe {
        QuantumQwLe::with_parameters(
            KChoice::Optimal,
            AlphaChoice::Fixed(0.25),
            Some((6.0 * (n as f64).ln()).ceil() as usize),
            Some(0.3),
        )
    }

    #[test]
    fn elects_a_unique_leader_on_clique_of_cliques() {
        let graph = topology::clique_of_cliques(6).unwrap();
        let protocol = test_profile(graph.node_count());
        let trials = 5;
        let mut ok = 0;
        for seed in 0..trials {
            let run = protocol.run(&graph, seed).unwrap();
            if run.succeeded() {
                ok += 1;
            }
        }
        assert!(ok >= trials - 1, "ok = {ok}/{trials}");
    }

    #[test]
    fn elects_a_unique_leader_on_hub_graphs() {
        let graph = topology::hub_and_spokes_d2(40).unwrap();
        let protocol = test_profile(40);
        let run = protocol.run(&graph, 3).unwrap();
        assert!(run.succeeded());
    }

    #[test]
    fn works_on_shared_hub_worst_case() {
        let graph = topology::shared_hub_pair(12).unwrap();
        let protocol = test_profile(graph.node_count());
        let trials = 6;
        let ok = (0..trials)
            .filter(|&seed| protocol.run(&graph, seed).unwrap().succeeded())
            .count();
        assert!(ok >= trials as usize / 2, "ok = {ok}/{trials}");
    }

    #[test]
    fn rejects_graphs_of_larger_diameter() {
        let graph = topology::cycle(12).unwrap();
        assert!(matches!(
            QuantumQwLe::new().run(&graph, 0),
            Err(Error::UnsupportedTopology { .. })
        ));
    }

    #[test]
    fn accepts_complete_graphs_as_a_degenerate_case() {
        // Diameter 1 ≤ 2, so the protocol applies (with k clamped to the
        // degree and a degenerate walk).
        let graph = topology::complete(24).unwrap();
        let protocol = test_profile(24);
        let trials = 6;
        let ok = (0..trials)
            .filter(|&seed| protocol.run(&graph, seed).unwrap().succeeded())
            .count();
        assert!(ok >= trials as usize / 2, "ok = {ok}/{trials}");
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let graph = topology::clique_of_cliques(5).unwrap();
        let protocol = test_profile(25);
        let a = protocol.run(&graph, 17).unwrap();
        let b = protocol.run(&graph, 17).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.cost.metrics.total_messages(),
            b.cost.metrics.total_messages()
        );
    }

    #[test]
    fn benchmark_profile_is_cheaper_than_paper_profile_per_iteration() {
        let bench = QuantumQwLe::benchmark_profile(400);
        assert_eq!(bench.alpha, AlphaChoice::Fixed(0.25));
        assert!(bench.iterations.unwrap() < 400);
        assert!(bench.skip_full_topology_check);
    }
}
