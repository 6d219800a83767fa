//! Classical baseline: leader election on diameter-2 networks in the style of
//! Chatterjee–Pandurangan–Robinson (CPR20), with message complexity
//! `Õ(n)` — the tight classical bound that `QuantumQWLE` breaks.
//!
//! Every candidate sends its rank to *all* of its neighbours; every node then
//! reports the highest rank it has heard (including its own candidacy, if
//! any) back to each candidate that contacted it. Because the network has
//! diameter 2, any two candidates are adjacent or share a common neighbour,
//! so every candidate except the highest-ranked one hears of a higher rank.

use congest_net::{Graph, Network, Payload};
use qle::candidate::sample_candidates;
use qle::problems::NodeStatus;
use qle::{Error, LeaderElection, RunOptions, TracedRun};

/// Messages exchanged by the classical diameter-2 baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CprMessage {
    /// A candidate's rank, broadcast to its whole neighbourhood.
    Rank(u64),
    /// A node's report of the highest rank it has heard.
    MaxSeen(u64),
}

impl Payload for CprMessage {
    fn size_bits(&self) -> usize {
        64
    }
}

/// The classical `Õ(n)`-message leader election protocol for diameter-2
/// networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CprDiameterTwoLe {
    /// Skip the exact diameter validation on large benchmark graphs that are
    /// diameter-2 by construction.
    pub skip_full_topology_check: bool,
}

impl CprDiameterTwoLe {
    /// The standard configuration.
    #[must_use]
    pub fn new() -> Self {
        CprDiameterTwoLe::default()
    }
}

impl LeaderElection for CprDiameterTwoLe {
    fn name(&self) -> &'static str {
        "CPR-Diameter2LE (classical)"
    }

    fn run_with(&self, graph: &Graph, seed: u64, opts: &RunOptions) -> Result<TracedRun, Error> {
        let n = graph.node_count();
        if n < 3 {
            return Err(Error::UnsupportedTopology {
                protocol: "CPR-Diameter2LE",
                reason: "need at least three nodes".into(),
            });
        }
        let diameter_ok = if n <= 600 && !self.skip_full_topology_check {
            graph.diameter() <= 2
        } else {
            (0..n)
                .step_by((n / 8).max(1))
                .all(|v| graph.eccentricity(v) <= 2)
        };
        if !diameter_ok {
            return Err(Error::UnsupportedTopology {
                protocol: "CPR-Diameter2LE",
                reason: "graph diameter exceeds 2".into(),
            });
        }
        let mut net: Network<CprMessage> = opts.network(graph.clone(), seed);
        let candidates = sample_candidates(&mut net);
        let mut statuses = vec![NodeStatus::NonElected; n];

        // Round 1: candidates broadcast their rank to their neighbourhood.
        let mut max_heard = vec![0u64; n];
        for c in &candidates {
            max_heard[c.node] = max_heard[c.node].max(c.rank);
            for w in graph.neighbors(c.node) {
                net.send(c.node, w, CprMessage::Rank(c.rank))?;
                max_heard[w] = max_heard[w].max(c.rank);
            }
        }
        net.advance_round();

        // Round 2: every contacted node reports the highest rank it heard
        // back to each candidate that contacted it.
        for c in &candidates {
            let mut highest_reply = c.rank;
            for w in graph.neighbors(c.node) {
                net.send(w, c.node, CprMessage::MaxSeen(max_heard[w]))?;
                highest_reply = highest_reply.max(max_heard[w]);
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
    fn elects_a_unique_leader_on_diameter_two_families() {
        let graphs = vec![
            topology::clique_of_cliques(6).unwrap(),
            topology::hub_and_spokes_d2(40).unwrap(),
            topology::shared_hub_pair(10).unwrap(),
            topology::complete(20).unwrap(),
        ];
        for graph in graphs {
            let protocol = CprDiameterTwoLe::new();
            let trials: u64 = 8;
            let ok = (0..trials)
                .filter(|&seed| protocol.run(&graph, seed).unwrap().succeeded())
                .count();
            assert!(
                ok as u64 >= trials - 1,
                "ok = {ok}/{trials} on n = {}",
                graph.node_count()
            );
        }
    }

    #[test]
    fn message_cost_is_order_n_log_n() {
        let graph = topology::hub_and_spokes_d2(200).unwrap();
        let run = CprDiameterTwoLe::new().run(&graph, 1).unwrap();
        let bound = 2.0 * 24.0 * (200f64).ln() * 200.0;
        assert!((run.cost.total_messages() as f64) < bound);
    }

    #[test]
    fn rejects_large_diameter_graphs() {
        let graph = topology::cycle(12).unwrap();
        assert!(CprDiameterTwoLe::new().run(&graph, 0).is_err());
    }
}
