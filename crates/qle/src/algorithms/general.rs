//! `QuantumGeneralLE` — leader election on arbitrary graphs via tree merging
//! (Section 5.4).
//!
//! The algorithm is GHS-style cluster merging: initially every node is its
//! own cluster; in each of `O(log n)` phases every cluster finds an outgoing
//! edge, clusters simulate a maximal-matching computation on the cluster
//! (super)graph, and matched / hooked clusters merge, at least halving the
//! number of clusters. After the last phase the surviving cluster's centre
//! becomes the leader and broadcasts its identity (the algorithm solves
//! *explicit* leader election).
//!
//! The quantum ingredient is step 1: instead of probing all incident edges
//! (`Θ(deg(v))` messages per node, `Θ(m)` per phase — the classical lower
//! bound regime), every node finds an outgoing incident edge with a
//! distributed Grover search over its neighbourhood, using
//! `Õ(√deg(v))` messages; summed over all nodes this is `Õ(√(m·n))` by
//! Cauchy–Schwarz (Lemma 5.8), which yields the `Õ(√(m·n))` total of
//! Theorem 5.10.
//!
//! Everything after step 1 (convergecast, matching, merge and the final
//! leader announcement) is the tree-merging engine in
//! [`merging`](crate::merging), which the classical GHS baseline runs too,
//! so the two protocols differ by construction only in step 1.

use congest_net::{Graph, Network, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::AlphaChoice;
use crate::error::Error;
use crate::framework::{distributed_grover_search, CheckingOracle};
use crate::merging::{Clustering, MergeMessage, OutgoingEdge};
use crate::protocol::{LeaderElection, RunOptions, TracedRun};

/// The `Checking_v` oracle of Lemma 5.8: ask a neighbour whether its cluster
/// centre differs from ours (two messages, two rounds).
struct OutgoingEdgeOracle<'a> {
    node: NodeId,
    cluster: u64,
    neighbors: Vec<NodeId>,
    cluster_of: &'a [u64],
    marked: Vec<NodeId>,
}

impl<'a> OutgoingEdgeOracle<'a> {
    fn new(node: NodeId, graph: &Graph, cluster_of: &'a [u64]) -> Self {
        let neighbors = graph.neighbors(node).to_vec();
        let cluster = cluster_of[node];
        let marked = neighbors
            .iter()
            .copied()
            .filter(|&w| cluster_of[w] != cluster)
            .collect();
        OutgoingEdgeOracle {
            node,
            cluster,
            neighbors,
            cluster_of,
            marked,
        }
    }
}

impl CheckingOracle<MergeMessage> for OutgoingEdgeOracle<'_> {
    type Item = NodeId;

    fn check(&mut self, net: &mut Network<MergeMessage>, w: &NodeId) -> Result<bool, Error> {
        net.send(self.node, *w, MergeMessage::ClusterQuery(self.cluster))?;
        net.advance_round();
        let answer = self.cluster_of[*w] != self.cluster;
        net.send(*w, self.node, MergeMessage::ClusterReply(answer))?;
        net.advance_round();
        Ok(answer)
    }

    fn sample_input(&mut self, rng: &mut StdRng) -> NodeId {
        self.neighbors[rng.gen_range(0..self.neighbors.len())]
    }

    fn domain_size(&self) -> u64 {
        self.neighbors.len() as u64
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

/// The iterated logarithm `log* n` (number of times `log₂` must be applied to
/// reach a value ≤ 2), used to charge the Cole–Vishkin matching simulation.
fn log_star(n: usize) -> u64 {
    let mut x = n as f64;
    let mut count = 0;
    while x > 2.0 {
        x = x.log2();
        count += 1;
    }
    count.max(1)
}

/// The `QuantumGeneralLE` protocol (Section 5.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantumGeneralLe {
    /// The failure probability of each node's per-phase Grover search (the
    /// paper uses `1/n³` so a union bound over all nodes and phases still
    /// gives a `1 − 1/n` overall guarantee).
    pub alpha: AlphaChoice,
}

impl Default for QuantumGeneralLe {
    fn default() -> Self {
        QuantumGeneralLe {
            alpha: AlphaChoice::HighProbability,
        }
    }
}

impl QuantumGeneralLe {
    /// The paper's configuration.
    #[must_use]
    pub fn new() -> Self {
        QuantumGeneralLe::default()
    }

    /// A configuration with an explicit failure-probability choice.
    #[must_use]
    pub fn with_alpha(alpha: AlphaChoice) -> Self {
        QuantumGeneralLe { alpha }
    }
}

impl LeaderElection for QuantumGeneralLe {
    fn name(&self) -> &'static str {
        "QuantumGeneralLE"
    }

    fn run_with(&self, graph: &Graph, seed: u64, opts: &RunOptions) -> Result<TracedRun, Error> {
        graph.validate_as_network()?;
        let n = graph.node_count();
        if n < 2 {
            return Err(Error::UnsupportedTopology {
                protocol: "QuantumGeneralLE",
                reason: "need at least two nodes".into(),
            });
        }
        let alpha = self.alpha.resolve_inner(n);
        let mut net: Network<MergeMessage> = opts.network(graph.clone(), seed);
        let mut clustering = Clustering::singletons(n);
        // The halving argument needs ⌈log₂ n⌉ phases when every cluster finds
        // an outgoing edge; a small amount of slack absorbs per-node Grover
        // failures in the constant-success configuration (the loop exits as
        // soon as a single cluster remains, so slack phases are free).
        let max_phases = 2 * (n.max(2) as f64).log2().ceil() as usize + 2;
        // The matching is simulated by the clusters with Cole–Vishkin.
        let cv_rounds = log_star(n) + 1;
        let mut effective_rounds = 0u64;

        for _phase in 0..max_phases {
            if clustering.cluster_count() <= 1 {
                break;
            }

            // Step 1a: every node Grover-searches its neighbourhood for an
            // incident outgoing edge. The per-node searches are logically
            // parallel (they use disjoint edges), so the phase's round cost
            // is the maximum over nodes.
            let mut proposals: Vec<Option<OutgoingEdge>> = vec![None; n];
            let mut max_search_rounds = 0u64;
            for (v, proposal) in proposals.iter_mut().enumerate() {
                let mut oracle = OutgoingEdgeOracle::new(v, graph, clustering.cluster_of());
                if oracle.domain_size() == 0 {
                    continue;
                }
                let epsilon = 1.0 / oracle.domain_size() as f64;
                let outcome = distributed_grover_search(&mut net, v, &mut oracle, epsilon, alpha)?;
                max_search_rounds = max_search_rounds.max(outcome.rounds);
                if let Some(w) = outcome.found {
                    *proposal = Some((v, w));
                }
            }

            // Steps 1b–3, with each of the `cv_rounds` matching rounds
            // charged as one round across the chosen edges plus one
            // broadcast per cluster tree.
            let depths = clustering.merge_phase(&mut net, &proposals, cv_rounds)?;
            effective_rounds +=
                max_search_rounds + depths.tree + cv_rounds * (1 + depths.tree) + depths.merged;
        }

        let statuses = clustering.announce_leaders(&mut net)?;
        effective_rounds += n as u64;
        Ok(TracedRun::new(
            self.name(),
            graph,
            statuses,
            effective_rounds,
            net,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_net::topology;

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(16), 2);
        assert_eq!(log_star(65536), 3);
        assert!(log_star(1 << 60) <= 5);
    }

    #[test]
    fn elects_a_unique_leader_on_various_topologies() {
        let graphs = vec![
            topology::cycle(24).unwrap(),
            topology::hypercube(5).unwrap(),
            topology::erdos_renyi_connected(40, 0.15, 3).unwrap(),
            topology::path(17).unwrap(),
            topology::barbell(8, 2).unwrap(),
        ];
        let protocol = QuantumGeneralLe::new();
        for graph in graphs {
            let mut ok = 0;
            for seed in 0..5 {
                let run = protocol.run(&graph, seed).unwrap();
                if run.succeeded() {
                    ok += 1;
                }
            }
            assert!(
                ok >= 4,
                "only {ok}/5 runs elected a unique leader on n={}",
                graph.node_count()
            );
        }
    }

    #[test]
    fn leader_is_reachable_and_tree_spans_graph_edges() {
        let graph = topology::erdos_renyi_connected(30, 0.2, 9).unwrap();
        let run = QuantumGeneralLe::new().run(&graph, 4).unwrap();
        assert!(run.succeeded());
        assert_eq!(run.outcome.leaders().len(), 1);
    }

    #[test]
    fn message_cost_scales_like_sqrt_mn_not_m() {
        // On complete graphs √(m·n) ~ n^{3/2} while the classical probing
        // cost is m·log n ~ n²·log n. Tripling n should therefore cost about
        // 3^{1.5} ≈ 5.2x more messages (the asymptotic comparison against the
        // classical GHS baseline is experiment E5; the constants of the
        // amplification schedule only cross over at much larger n).
        let measure = |n: usize| {
            let graph = topology::complete(n).unwrap();
            QuantumGeneralLe::with_alpha(AlphaChoice::Fixed(0.3))
                .run(&graph, 2)
                .unwrap()
                .cost
                .total_messages() as f64
        };
        let small = measure(32);
        let large = measure(96);
        let ratio = large / small;
        assert!(ratio < 7.5, "ratio = {ratio}");
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let graph = topology::hypercube(4).unwrap();
        let a = QuantumGeneralLe::new().run(&graph, 77).unwrap();
        let b = QuantumGeneralLe::new().run(&graph, 77).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.cost.metrics.total_messages(),
            b.cost.metrics.total_messages()
        );
    }

    #[test]
    fn rejects_disconnected_graphs() {
        let graph = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(QuantumGeneralLe::new().run(&graph, 0).is_err());
    }
}
