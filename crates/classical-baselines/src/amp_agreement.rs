//! Classical baselines for implicit agreement on complete networks, in the
//! style of Augustine–Molla–Pandurangan (AMP18):
//!
//! * [`AmpSharedCoinAgreement`] — the `Õ(n^{2/5})`-expected-message protocol
//!   that uses a global shared coin (the bound `QuantumAgreement` improves
//!   quadratically to `Õ(n^{1/5})`);
//! * [`PrivateCoinAgreement`] — the `Õ(√n)` private-coins solution obtained
//!   by electing a leader (with the classical complete-graph protocol) and
//!   letting the leader alone decide on its own input.

use congest_net::{Graph, Network, NetworkConfig, NodeId, Payload};
use qle::candidate::sample_candidates;
use qle::problems::{AgreementDecision, AgreementOutcome};
use qle::report::{AgreementRun, CostSummary};
use qle::{Agreement, Error, LeaderElection};
use rand::Rng;

use crate::kpp_complete::KppCompleteLe;

/// Messages exchanged by the classical agreement baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmpMessage {
    /// "What is your input?" sampling query.
    InputQuery,
    /// One-bit reply carrying the probed node's input.
    InputReply(bool),
    /// A decided candidate's value, sent to its notification set.
    DecidedValue(bool),
    /// "Were you notified this iteration?" probe.
    DetectQuery,
    /// One-bit reply to a detection probe.
    DetectReply(bool),
}

impl Payload for AmpMessage {
    fn size_bits(&self) -> usize {
        match self {
            AmpMessage::InputQuery | AmpMessage::DetectQuery => 8,
            _ => 2,
        }
    }
}

/// The classical shared-coin agreement protocol with expected message
/// complexity `Õ(n^{2/5})`, at estimation accuracy
/// `ε = n^{−1/5}` clamped to `[1/n, 1/20]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AmpSharedCoinAgreement;

impl AmpSharedCoinAgreement {
    /// The standard configuration.
    #[must_use]
    pub fn new() -> Self {
        AmpSharedCoinAgreement
    }
}

impl Agreement for AmpSharedCoinAgreement {
    fn name(&self) -> &'static str {
        "AMP-SharedCoinAgreement (classical)"
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, graph: &Graph, inputs: &[bool], seed: u64) -> Result<AgreementRun, Error> {
        let n = graph.node_count();
        if inputs.len() != n {
            return Err(Error::InputLengthMismatch {
                inputs: inputs.len(),
                nodes: n,
            });
        }
        if n < 4 || graph.edge_count() != n * (n - 1) / 2 {
            return Err(Error::UnsupportedTopology {
                protocol: "AMP-SharedCoinAgreement",
                reason: "requires a complete network of at least four nodes".into(),
            });
        }
        let epsilon = (n as f64).powf(-0.2).clamp(1.0 / n as f64, 0.05);
        let notify = ((epsilon * n as f64).sqrt().ceil() as usize).clamp(1, n - 1);
        let probes_per_detection = ((n as f64 / notify as f64) * (n as f64).ln()).ceil() as usize;
        let samples = (1.0 / (epsilon * epsilon)).ceil() as usize;
        let mut net: Network<AmpMessage> = Network::new(
            graph.clone(),
            NetworkConfig::with_seed(seed).shared_coin(true),
        );

        // Estimation phase: every candidate samples ⌈1/ε²⌉ random nodes.
        let candidates = sample_candidates(&mut net);
        let mut estimates: Vec<(usize, f64)> = Vec::with_capacity(candidates.len());
        for c in &candidates {
            let mut ones = 0usize;
            for _ in 0..samples {
                let w = loop {
                    let w = net.rng(c.node).gen_range(0..n);
                    if w != c.node {
                        break w;
                    }
                };
                // Sampling with replacement re-uses edges across consecutive
                // probe rounds, so each probe is its own two-round exchange.
                net.send(c.node, w, AmpMessage::InputQuery)?;
                net.advance_round();
                net.send(w, c.node, AmpMessage::InputReply(inputs[w]))?;
                net.advance_round();
                ones += usize::from(inputs[w]);
            }
            estimates.push((c.node, ones as f64 / samples as f64));
        }

        // Agreement phase.
        let iterations = (3.0 * (n as f64).ln()).ceil() as usize;
        let mut decisions = vec![AgreementDecision::Undecided; n];
        let mut terminated = vec![false; n];
        let mut effective_rounds = 2 * samples as u64;
        for _ in 0..iterations {
            if estimates.iter().all(|(v, _)| terminated[*v]) {
                break;
            }
            let r = net.shared_coin_uniform().map_err(Error::from)?;
            let mut informed = vec![false; n];
            let mut undecided = Vec::new();
            for &(v, q) in &estimates {
                if terminated[v] {
                    continue;
                }
                if (q - r).abs() <= epsilon {
                    undecided.push(v);
                    continue;
                }
                let value = q > r + epsilon;
                decisions[v] = AgreementDecision::Decided(value);
                terminated[v] = true;
                let mut sent: Vec<NodeId> = Vec::new();
                while sent.len() < notify {
                    let w = net.rng(v).gen_range(0..n);
                    if w != v && !sent.contains(&w) {
                        net.send(v, w, AmpMessage::DecidedValue(value))?;
                        informed[w] = true;
                        sent.push(w);
                    }
                }
            }
            net.advance_round();
            effective_rounds += 1;

            // Detection by random probing.
            for v in undecided {
                let mut detected = false;
                for _ in 0..probes_per_detection {
                    let w = loop {
                        let w = net.rng(v).gen_range(0..n);
                        if w != v {
                            break w;
                        }
                    };
                    net.send(v, w, AmpMessage::DetectQuery)?;
                    net.advance_round();
                    net.send(w, v, AmpMessage::DetectReply(informed[w]))?;
                    net.advance_round();
                    if informed[w] {
                        detected = true;
                        break;
                    }
                }
                if detected {
                    terminated[v] = true;
                }
            }
            effective_rounds += 2 * probes_per_detection as u64;
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

/// The `Õ(√n)` private-coins agreement baseline: elect a leader classically
/// and let the leader alone decide on its own input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrivateCoinAgreement;

impl PrivateCoinAgreement {
    /// The standard configuration.
    #[must_use]
    pub fn new() -> Self {
        PrivateCoinAgreement
    }
}

impl Agreement for PrivateCoinAgreement {
    fn name(&self) -> &'static str {
        "PrivateCoinAgreement-via-LE (classical)"
    }

    fn run(&self, graph: &Graph, inputs: &[bool], seed: u64) -> Result<AgreementRun, Error> {
        let n = graph.node_count();
        if inputs.len() != n {
            return Err(Error::InputLengthMismatch {
                inputs: inputs.len(),
                nodes: n,
            });
        }
        let election = KppCompleteLe::new().run(graph, seed)?;
        let mut decisions = vec![AgreementDecision::Undecided; n];
        for leader in election.outcome.leaders() {
            decisions[leader] = AgreementDecision::Decided(inputs[leader]);
        }
        let outcome = AgreementOutcome::new(inputs.to_vec(), decisions)?;
        Ok(AgreementRun {
            protocol: self.name().to_string(),
            nodes: n,
            outcome,
            cost: election.cost,
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
    fn shared_coin_agreement_is_valid_with_high_probability() {
        let graph = topology::complete(48).unwrap();
        let inputs = mixed_inputs(48, 0.4);
        let protocol = AmpSharedCoinAgreement::new();
        let trials: u64 = 8;
        let ok = (0..trials)
            .filter(|&s| protocol.run(&graph, &inputs, s).unwrap().succeeded())
            .count();
        assert!(ok as u64 >= trials - 1, "ok = {ok}/{trials}");
    }

    #[test]
    fn unanimous_inputs_yield_unanimous_value() {
        let graph = topology::complete(32).unwrap();
        let inputs = vec![true; 32];
        let run = AmpSharedCoinAgreement::new()
            .run(&graph, &inputs, 4)
            .unwrap();
        assert!(run.succeeded());
        assert_eq!(run.outcome.agreed_value(), Some(true));
    }

    #[test]
    fn private_coin_agreement_is_valid() {
        let graph = topology::complete(64).unwrap();
        let inputs = mixed_inputs(64, 0.7);
        let trials: u64 = 10;
        let ok = (0..trials)
            .filter(|&s| {
                PrivateCoinAgreement::new()
                    .run(&graph, &inputs, s)
                    .unwrap()
                    .succeeded()
            })
            .count();
        assert!(ok as u64 >= trials - 1, "ok = {ok}/{trials}");
    }

    #[test]
    fn input_length_is_validated() {
        let graph = topology::complete(16).unwrap();
        assert!(AmpSharedCoinAgreement::new()
            .run(&graph, &[true; 3], 0)
            .is_err());
        assert!(PrivateCoinAgreement::new()
            .run(&graph, &[true; 3], 0)
            .is_err());
        let cycle = topology::cycle(16).unwrap();
        assert!(AmpSharedCoinAgreement::new()
            .run(&cycle, &[true; 16], 0)
            .is_err());
    }
}
