//! Classical baseline: leader election on graphs with mixing time `τ` via
//! random-walk referees (KPP+15b), with message complexity `Õ(τ·√n)` — the
//! regime the paper's `QuantumRWLE` improves upon for every `τ = o(n^{1/4})`.
//!
//! Every candidate launches `Θ(√(n·log n))` walk tokens carrying its rank;
//! each token walks for `Θ(τ)` lazy steps and its endpoint becomes a referee.
//! Referees report the highest rank they received back along the reverse
//! walk, and a candidate withdraws when it hears of a higher rank.

use congest_net::walks::spectral_mixing_time;
use congest_net::{Graph, Network, NodeId, Payload};
use qle::candidate::sample_candidates;
use qle::problems::NodeStatus;
use qle::{Error, LeaderElection, RunOptions, TracedRun};
use rand::Rng;

/// Messages exchanged by the classical random-walk baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KppWalkMessage {
    /// A walk token carrying a candidate's rank.
    Token(u64),
    /// A referee's report travelling back along the reverse walk.
    Report(u64),
}

impl Payload for KppWalkMessage {
    fn size_bits(&self) -> usize {
        64
    }
}

/// The classical `Õ(τ·√n)`-message leader election protocol for graphs with
/// mixing time `τ`. Every candidate launches `⌈2·√(n·ln n)⌉` walk tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KppMixingLe {
    /// The mixing time to assume; `None` estimates it spectrally.
    pub tau: Option<usize>,
}

impl KppMixingLe {
    /// The standard configuration.
    #[must_use]
    pub fn new() -> Self {
        KppMixingLe::default()
    }

    /// A configuration with an explicit mixing time.
    #[must_use]
    pub fn with_tau(tau: usize) -> Self {
        KppMixingLe { tau: Some(tau) }
    }
}

impl LeaderElection for KppMixingLe {
    fn name(&self) -> &'static str {
        "KPP-MixingLE (classical)"
    }

    fn run_with(&self, graph: &Graph, seed: u64, opts: &RunOptions) -> Result<TracedRun, Error> {
        graph.validate_as_network().map_err(Error::from)?;
        let n = graph.node_count();
        if n < 3 {
            return Err(Error::UnsupportedTopology {
                protocol: "KPP-MixingLE",
                reason: "need at least three nodes".into(),
            });
        }
        let tau = self
            .tau
            .unwrap_or_else(|| spectral_mixing_time(graph, 0.25))
            .max(1);
        // Two birthday-paradox margins: the constant 2 keeps the pairwise
        // endpoint-collision failure probability negligible even when walk
        // endpoints repeat (unlike the complete-graph protocol, the same node
        // can absorb several tokens).
        let s = ((2.0 * ((n as f64) * (n as f64).ln()).sqrt()).ceil() as usize).clamp(1, 4 * n);
        let mut net: Network<KppWalkMessage> = opts.network(graph.clone(), seed);
        let candidates = sample_candidates(&mut net);
        let mut statuses = vec![NodeStatus::NonElected; n];

        // Forward phase: every candidate launches s lazy walk tokens of
        // length τ; the endpoint of each token becomes a referee. The
        // simulation records each token's path so the report can retrace it.
        let mut max_seen = vec![0u64; n];
        let mut token_paths: Vec<(usize, Vec<NodeId>)> = Vec::new();
        for (i, c) in candidates.iter().enumerate() {
            for _ in 0..s {
                let mut here = c.node;
                let mut path = vec![here];
                for _ in 0..tau {
                    let stay: bool = net.rng(here).gen();
                    if stay {
                        continue;
                    }
                    let degree = net.graph().degree(here);
                    let port = net.rng(here).gen_range(0..degree);
                    let next = net.graph().neighbor(here, port);
                    net.send(here, next, KppWalkMessage::Token(c.rank))?;
                    net.advance_round();
                    here = next;
                    path.push(here);
                }
                max_seen[here] = max_seen[here].max(c.rank);
                token_paths.push((i, path));
            }
        }

        // Report phase: each referee sends the highest rank it received back
        // along the reverse walk to the token's originator.
        let mut highest_reply: Vec<u64> = vec![0; candidates.len()];
        for (candidate_index, path) in &token_paths {
            let endpoint = *path.last().expect("path contains the start");
            let report = max_seen[endpoint];
            for hop in path.windows(2).rev() {
                net.send(hop[1], hop[0], KppWalkMessage::Report(report))?;
                net.advance_round();
            }
            highest_reply[*candidate_index] = highest_reply[*candidate_index].max(report);
        }
        for (i, c) in candidates.iter().enumerate() {
            statuses[c.node] = if highest_reply[i] <= c.rank {
                NodeStatus::Elected
            } else {
                NodeStatus::NonElected
            };
        }

        Ok(TracedRun::new(
            self.name(),
            graph,
            statuses,
            2 * tau as u64,
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
        let graph = topology::random_regular(64, 4, 7).unwrap();
        let protocol = KppMixingLe::with_tau(16);
        let trials: u64 = 10;
        let ok = (0..trials)
            .filter(|&seed| protocol.run(&graph, seed).unwrap().succeeded())
            .count();
        assert!(ok as u64 >= trials - 1, "ok = {ok}/{trials}");
    }

    #[test]
    fn message_cost_scales_with_tau() {
        let graph = topology::hypercube(5).unwrap();
        let short = KppMixingLe::with_tau(4)
            .run(&graph, 3)
            .unwrap()
            .cost
            .total_messages();
        let long = KppMixingLe::with_tau(16)
            .run(&graph, 3)
            .unwrap()
            .cost
            .total_messages();
        assert!(long > 2 * short, "short = {short}, long = {long}");
    }

    #[test]
    fn rejects_disconnected_graphs() {
        let graph = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(KppMixingLe::new().run(&graph, 0).is_err());
    }
}
