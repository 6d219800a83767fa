//! `QuantumAgreement` — implicit agreement on complete networks with shared
//! randomness (Section 6, Algorithm 4).
//!
//! The protocol is a quantum boosting of the classical protocol of Augustine,
//! Molla and Pandurangan (PODC 2018):
//!
//! 1. **Estimation phase.** Every node becomes a candidate with probability
//!    `12·ln(n)/n`; each candidate estimates the fraction `q` of nodes whose
//!    input is 1, to additive error `ε`, using the distributed approximate
//!    quantum counting primitive `ApproxCount(ε, α₁)`.
//! 2. **Agreement phase** (`O(log n)` iterations). In each iteration the
//!    candidates draw a shared random threshold `r ∈ [0, 1]`; a candidate
//!    with `|q(v) − r| ≤ ε` stays undecided, otherwise it decides 0 or 1
//!    according to the side of the threshold. Decided candidates notify
//!    `O(n^{1/3−γ})` arbitrary nodes; undecided candidates detect whether any
//!    decided candidate exists with a Grover search (`GroverSearch(n^{−2/3−γ},
//!    α₂)`) over the notified nodes, and terminate if so.
//!
//! With `ε = n^{−1/5}` and `γ = 2/15` the expected message complexity is
//! `Õ(n^{1/5})` (Corollary 6.8), a quadratic improvement over the classical
//! `Õ(n^{2/5})`.

use congest_net::{Graph, Network, NetworkConfig, NodeId, Payload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::candidate::sample_candidates;
use crate::config::AlphaChoice;
use crate::error::Error;
use crate::framework::{distributed_approx_count, distributed_grover_search, CheckingOracle};
use crate::problems::{AgreementDecision, AgreementOutcome};
use crate::protocol::Agreement;
use crate::report::{AgreementRun, CostSummary};

/// Messages exchanged by `QuantumAgreement`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgMessage {
    /// "What is your input?" query of the counting oracle.
    InputQuery,
    /// One-bit reply carrying the probed node's input.
    InputReply(bool),
    /// A decided candidate's value, sent to its notification set.
    DecidedValue(bool),
    /// "Did you receive a decided value this iteration?" query of the
    /// detection oracle.
    DetectQuery,
    /// One-bit reply to a detection query.
    DetectReply(bool),
}

impl Payload for AgMessage {
    fn size_bits(&self) -> usize {
        match self {
            AgMessage::InputQuery | AgMessage::DetectQuery => 8,
            AgMessage::InputReply(_) | AgMessage::DetectReply(_) | AgMessage::DecidedValue(_) => 2,
        }
    }
}

/// The counting oracle `Checking_g` of the estimation phase: probe a node for
/// its input bit (two messages, two rounds).
struct InputCountOracle<'a> {
    owner: NodeId,
    domain: Vec<NodeId>,
    inputs: &'a [bool],
    ones: u64,
}

impl<'a> InputCountOracle<'a> {
    fn new(owner: NodeId, n: usize, inputs: &'a [bool]) -> Self {
        let domain: Vec<NodeId> = (0..n).filter(|&w| w != owner).collect();
        let ones = domain.iter().filter(|&&w| inputs[w]).count() as u64;
        InputCountOracle {
            owner,
            domain,
            inputs,
            ones,
        }
    }
}

impl CheckingOracle<AgMessage> for InputCountOracle<'_> {
    type Item = NodeId;

    fn check(&mut self, net: &mut Network<AgMessage>, w: &NodeId) -> Result<bool, Error> {
        net.send(self.owner, *w, AgMessage::InputQuery)?;
        net.advance_round();
        let answer = self.inputs[*w];
        net.send(*w, self.owner, AgMessage::InputReply(answer))?;
        net.advance_round();
        Ok(answer)
    }

    fn sample_input(&mut self, rng: &mut StdRng) -> NodeId {
        self.domain[rng.gen_range(0..self.domain.len())]
    }

    fn domain_size(&self) -> u64 {
        self.domain.len() as u64
    }

    fn marked_count(&self) -> u64 {
        self.ones
    }

    fn sample_marked(&mut self, rng: &mut StdRng) -> Option<NodeId> {
        let ones: Vec<NodeId> = self
            .domain
            .iter()
            .copied()
            .filter(|&w| self.inputs[w])
            .collect();
        if ones.is_empty() {
            None
        } else {
            Some(ones[rng.gen_range(0..ones.len())])
        }
    }
}

/// The detection oracle `Checking_h` of the agreement phase: probe a node for
/// whether it was notified by a decided candidate this iteration.
struct DetectOracle<'a> {
    owner: NodeId,
    domain: Vec<NodeId>,
    informed: &'a [bool],
    informed_count: u64,
}

impl<'a> DetectOracle<'a> {
    fn new(owner: NodeId, n: usize, informed: &'a [bool]) -> Self {
        let domain: Vec<NodeId> = (0..n).filter(|&w| w != owner).collect();
        let informed_count = domain.iter().filter(|&&w| informed[w]).count() as u64;
        DetectOracle {
            owner,
            domain,
            informed,
            informed_count,
        }
    }
}

impl CheckingOracle<AgMessage> for DetectOracle<'_> {
    type Item = NodeId;

    fn check(&mut self, net: &mut Network<AgMessage>, w: &NodeId) -> Result<bool, Error> {
        net.send(self.owner, *w, AgMessage::DetectQuery)?;
        net.advance_round();
        let answer = self.informed[*w];
        net.send(*w, self.owner, AgMessage::DetectReply(answer))?;
        net.advance_round();
        Ok(answer)
    }

    fn sample_input(&mut self, rng: &mut StdRng) -> NodeId {
        self.domain[rng.gen_range(0..self.domain.len())]
    }

    fn domain_size(&self) -> u64 {
        self.domain.len() as u64
    }

    fn marked_count(&self) -> u64 {
        self.informed_count
    }

    fn sample_marked(&mut self, rng: &mut StdRng) -> Option<NodeId> {
        let informed: Vec<NodeId> = self
            .domain
            .iter()
            .copied()
            .filter(|&w| self.informed[w])
            .collect();
        if informed.is_empty() {
            None
        } else {
            Some(informed[rng.gen_range(0..informed.len())])
        }
    }
}

/// The notification/detection trade-off `γ = 2/15`, the message-optimal
/// choice in `[0, 1/3]`.
const GAMMA: f64 = 2.0 / 15.0;

/// The `QuantumAgreement` protocol (Algorithm 4), at the paper's
/// message-optimal parameters: estimation accuracy `ε = n^{−1/5}` (clamped
/// to `[1/n, 1/20]`) and `γ = 2/15`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantumAgreement {
    /// The failure probability of the quantum subroutines.
    pub alpha: AlphaChoice,
}

impl Default for QuantumAgreement {
    fn default() -> Self {
        QuantumAgreement {
            alpha: AlphaChoice::HighProbability,
        }
    }
}

impl QuantumAgreement {
    /// The paper's configuration, with high-probability quantum subroutines.
    #[must_use]
    pub fn new() -> Self {
        QuantumAgreement::default()
    }

    /// The paper's configuration with an explicit failure probability for
    /// the quantum subroutines.
    #[must_use]
    pub fn with_alpha(alpha: AlphaChoice) -> Self {
        QuantumAgreement { alpha }
    }

    fn validate(&self, graph: &Graph, inputs: &[bool]) -> Result<(), Error> {
        let n = graph.node_count();
        if inputs.len() != n {
            return Err(Error::InputLengthMismatch {
                inputs: inputs.len(),
                nodes: n,
            });
        }
        if n < 4 {
            return Err(Error::UnsupportedTopology {
                protocol: "QuantumAgreement",
                reason: "need at least four nodes".into(),
            });
        }
        if graph.edge_count() != n * (n - 1) / 2 {
            return Err(Error::UnsupportedTopology {
                protocol: "QuantumAgreement",
                reason: "requires a complete network".into(),
            });
        }
        Ok(())
    }
}

impl Agreement for QuantumAgreement {
    fn name(&self) -> &'static str {
        "QuantumAgreement"
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, graph: &Graph, inputs: &[bool], seed: u64) -> Result<AgreementRun, Error> {
        self.validate(graph, inputs)?;
        let n = graph.node_count();
        let epsilon = (n as f64).powf(-0.2).clamp(1.0 / n as f64, 0.05);
        let alpha_estimate = match self.alpha {
            AlphaChoice::HighProbability => 1.0 / (2.0 * (n as f64).powi(2)),
            AlphaChoice::Fixed(a) => a,
        }
        .clamp(1e-12, 0.49);
        let alpha_detect = match self.alpha {
            AlphaChoice::HighProbability => 1.0 / (4.0 * (n as f64).powi(3)),
            AlphaChoice::Fixed(a) => (a / 2.0).clamp(1e-12, 0.49),
        }
        .clamp(1e-12, 0.49);
        let notify_count = ((n as f64).powf(1.0 / 3.0 - GAMMA).ceil() as usize).clamp(1, n - 1);
        let detect_epsilon = (n as f64)
            .powf(-2.0 / 3.0 - GAMMA)
            .min(notify_count as f64 / n as f64);

        let mut net: Network<AgMessage> = Network::new(
            graph.clone(),
            NetworkConfig::with_seed(seed).shared_coin(true),
        );

        // Estimation phase.
        let candidates = sample_candidates(&mut net);
        let mut estimates: Vec<(usize, f64)> = Vec::with_capacity(candidates.len());
        let mut max_estimation_rounds = 0u64;
        for c in &candidates {
            let mut oracle = InputCountOracle::new(c.node, n, inputs);
            let outcome =
                distributed_approx_count(&mut net, c.node, &mut oracle, epsilon, alpha_estimate)?;
            max_estimation_rounds = max_estimation_rounds.max(outcome.rounds);
            estimates.push((c.node, (outcome.estimate / n as f64).clamp(0.0, 1.0)));
        }

        // Agreement phase.
        let iterations = (3.0 * (n as f64).ln()).ceil() as usize;
        let mut decisions = vec![AgreementDecision::Undecided; n];
        let mut terminated = vec![false; n];
        let mut effective_rounds = max_estimation_rounds;
        for _iteration in 0..iterations {
            if estimates.iter().all(|(v, _)| terminated[*v]) {
                break;
            }
            let r = net.shared_coin_uniform()?;
            // Classical part: decided candidates notify `notify_count` nodes.
            let mut informed = vec![false; n];
            let mut undecided_this_iteration = Vec::new();
            for &(v, q) in &estimates {
                if terminated[v] {
                    continue;
                }
                if (q - r).abs() <= epsilon {
                    undecided_this_iteration.push(v);
                    continue;
                }
                let value = q > r + epsilon;
                decisions[v] = AgreementDecision::Decided(value);
                terminated[v] = true;
                let mut others: Vec<NodeId> = (0..n).filter(|&w| w != v).collect();
                others.shuffle(net.rng(v));
                for &w in others.iter().take(notify_count) {
                    net.send(v, w, AgMessage::DecidedValue(value))?;
                    informed[w] = true;
                }
            }
            net.advance_round();
            effective_rounds += 1;

            // Quantum part: undecided candidates detect decided ones.
            let mut max_detection_rounds = 0u64;
            for v in undecided_this_iteration {
                let mut oracle = DetectOracle::new(v, n, &informed);
                let outcome = distributed_grover_search(
                    &mut net,
                    v,
                    &mut oracle,
                    detect_epsilon,
                    alpha_detect,
                )?;
                max_detection_rounds = max_detection_rounds.max(outcome.rounds);
                if outcome.found.is_some() {
                    // The candidate has detected that agreement was reached
                    // and terminates (it learns the value from the detected
                    // node; it stays undecided in the implicit-agreement
                    // sense, which is allowed).
                    terminated[v] = true;
                }
            }
            effective_rounds += max_detection_rounds;
        }

        let outcome = AgreementOutcome::new(inputs.to_vec(), decisions)?;
        Ok(AgreementRun {
            protocol: self.name().to_string(),
            nodes: n,
            outcome,
            cost: CostSummary {
                metrics: net.metrics(),
                effective_rounds,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_net::topology;

    fn mixed_inputs(n: usize, fraction_ones: f64) -> Vec<bool> {
        (0..n)
            .map(|i| (i as f64) < fraction_ones * n as f64)
            .collect()
    }

    #[test]
    fn reaches_valid_agreement_with_high_probability() {
        let graph = topology::complete(48).unwrap();
        let inputs = mixed_inputs(48, 0.3);
        let protocol = QuantumAgreement::new();
        let trials = 8;
        let mut ok = 0;
        for seed in 0..trials {
            let run = protocol.run(&graph, &inputs, seed).unwrap();
            if run.succeeded() {
                ok += 1;
            }
        }
        assert!(ok >= trials - 1, "ok = {ok}/{trials}");
    }

    #[test]
    fn unanimous_inputs_yield_the_unanimous_value() {
        let graph = topology::complete(48).unwrap();
        for value in [false, true] {
            let inputs = vec![value; 48];
            let run = QuantumAgreement::new().run(&graph, &inputs, 11).unwrap();
            assert!(run.succeeded());
            assert_eq!(run.outcome.agreed_value(), Some(value));
        }
    }

    #[test]
    fn skewed_inputs_usually_agree_on_the_majority_value() {
        let graph = topology::complete(64).unwrap();
        let inputs = mixed_inputs(64, 0.9);
        let mut majority = 0;
        let trials = 6;
        for seed in 0..trials {
            let run = QuantumAgreement::new().run(&graph, &inputs, seed).unwrap();
            assert!(run.succeeded());
            if run.outcome.agreed_value() == Some(true) {
                majority += 1;
            }
        }
        assert!(
            majority >= 4,
            "majority value chosen in only {majority}/{trials} runs"
        );
    }

    #[test]
    fn rejects_bad_inputs_and_topologies() {
        let graph = topology::complete(16).unwrap();
        let protocol = QuantumAgreement::new();
        assert!(matches!(
            protocol.run(&graph, &[true; 5], 0),
            Err(Error::InputLengthMismatch { .. })
        ));
        let cycle = topology::cycle(16).unwrap();
        assert!(matches!(
            protocol.run(&cycle, &[true; 16], 0),
            Err(Error::UnsupportedTopology { .. })
        ));
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let graph = topology::complete(32).unwrap();
        let inputs = mixed_inputs(32, 0.4);
        let a = QuantumAgreement::new().run(&graph, &inputs, 5).unwrap();
        let b = QuantumAgreement::new().run(&graph, &inputs, 5).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.cost.metrics.total_messages(),
            b.cost.metrics.total_messages()
        );
    }

    #[test]
    fn message_cost_grows_slowly_with_n() {
        // Õ(n^{1/5}) per-candidate cost: an 8x larger network should cost far
        // less than 8x the messages (the log-factor candidate count makes the
        // measured total grow a bit faster than n^{1/5} alone).
        let protocol = QuantumAgreement::with_alpha(AlphaChoice::Fixed(0.2));
        let measure = |n: usize| {
            let graph = topology::complete(n).unwrap();
            let inputs = mixed_inputs(n, 0.5);
            let mut total = 0;
            for seed in 0..3 {
                total += protocol
                    .run(&graph, &inputs, seed)
                    .unwrap()
                    .cost
                    .total_messages();
            }
            total as f64 / 3.0
        };
        let small = measure(64);
        let large = measure(512);
        assert!(large / small < 4.0, "ratio = {}", large / small);
    }
}
