//! Classical baseline: the Kutten–Pandurangan–Peleg–Robinson–Trehan
//! (KPP+15b) style randomized leader election for complete networks, with
//! message complexity `Õ(√n)` — the bound the paper's `QuantumLE` beats.
//!
//! Every candidate sends its rank to `Θ(√(n·log n))` uniformly random
//! *referees*; by the birthday paradox every pair of candidates shares a
//! referee with high probability, so when referees report back the highest
//! rank they have seen, every candidate except the highest-ranked one learns
//! of a higher rank and withdraws.

use congest_net::{Graph, Network, NodeId, Payload};
use qle::candidate::sample_candidates;
use qle::problems::NodeStatus;
use qle::{Error, LeaderElection, RunOptions, TracedRun};
use rand::Rng;

/// Messages exchanged by the classical complete-graph baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KppMessage {
    /// A candidate's rank, sent to its referees.
    Rank(u64),
    /// A referee's report: the highest rank it has received.
    MaxSeen(u64),
}

impl Payload for KppMessage {
    fn size_bits(&self) -> usize {
        64
    }
}

/// The classical `Õ(√n)`-message leader election protocol for complete
/// networks. Every candidate contacts `⌈√(n·ln n)⌉` referees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KppCompleteLe;

impl KppCompleteLe {
    /// The standard configuration.
    #[must_use]
    pub fn new() -> Self {
        KppCompleteLe
    }
}

impl LeaderElection for KppCompleteLe {
    fn name(&self) -> &'static str {
        "KPP-CompleteLE (classical)"
    }

    fn run_with(&self, graph: &Graph, seed: u64, opts: &RunOptions) -> Result<TracedRun, Error> {
        let n = graph.node_count();
        if n < 2 || graph.edge_count() != n * (n - 1) / 2 {
            return Err(Error::UnsupportedTopology {
                protocol: "KPP-CompleteLE",
                reason: "requires a complete network of at least two nodes".into(),
            });
        }
        let s = (((n as f64) * (n as f64).ln()).sqrt().ceil() as usize).clamp(1, n - 1);
        let mut net: Network<KppMessage> = opts.network(graph.clone(), seed);
        let candidates = sample_candidates(&mut net);
        let mut statuses = vec![NodeStatus::NonElected; n];

        // Round 1: candidates contact s random referees (with replacement —
        // duplicates just waste a message, as in the original analysis).
        let mut contacted: Vec<Vec<NodeId>> = vec![Vec::new(); candidates.len()];
        // The index of the last candidate that contacted each node, so a
        // repeated draw is spotted in O(1) (candidates contact in turn).
        let mut last_contact = vec![usize::MAX; n];
        let mut max_seen = vec![0u64; n];
        for (i, c) in candidates.iter().enumerate() {
            for _ in 0..s {
                let w = loop {
                    let w = net.rng(c.node).gen_range(0..n);
                    if w != c.node {
                        break w;
                    }
                };
                if last_contact[w] != i {
                    net.send(c.node, w, KppMessage::Rank(c.rank))?;
                    contacted[i].push(w);
                    last_contact[w] = i;
                }
                max_seen[w] = max_seen[w].max(c.rank);
            }
        }
        net.advance_round();

        // Round 2: referees report the highest rank they received to every
        // candidate that contacted them.
        for (i, c) in candidates.iter().enumerate() {
            let mut highest_reply = 0u64;
            for &w in &contacted[i] {
                net.send(w, c.node, KppMessage::MaxSeen(max_seen[w]))?;
                highest_reply = highest_reply.max(max_seen[w]);
            }
            statuses[c.node] = if highest_reply <= c.rank {
                NodeStatus::Elected
            } else {
                NodeStatus::NonElected
            };
        }
        net.advance_round();

        Ok(TracedRun::new(self.name(), graph, statuses, 2, net))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_net::topology;

    #[test]
    fn elects_a_unique_leader_with_high_probability() {
        let graph = topology::complete(128).unwrap();
        let protocol = KppCompleteLe::new();
        let trials: u64 = 20;
        let ok = (0..trials)
            .filter(|&seed| protocol.run(&graph, seed).unwrap().succeeded())
            .count();
        assert!(ok as u64 >= trials - 1, "ok = {ok}/{trials}");
    }

    #[test]
    fn message_complexity_is_order_sqrt_n_per_candidate() {
        let graph = topology::complete(256).unwrap();
        let run = KppCompleteLe::new().run(&graph, 1).unwrap();
        let candidates = 24.0 * 256f64.ln();
        let bound = candidates * 2.0 * (256.0 * 256f64.ln()).sqrt();
        assert!((run.cost.total_messages() as f64) < bound);
        assert_eq!(run.cost.effective_rounds, 2);
    }

    #[test]
    fn rejects_non_complete_graphs() {
        let graph = topology::cycle(10).unwrap();
        assert!(KppCompleteLe::new().run(&graph, 0).is_err());
    }
}
