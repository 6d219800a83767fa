//! Classical baseline: GHS-style leader election by tree merging on arbitrary
//! graphs, with message complexity `Θ(m·log n)` (the classical lower bound
//! for general graphs is `Ω(m)`, KPP+15a) — the regime `QuantumGeneralLE`
//! improves to `Õ(√(m·n))`.
//!
//! Phases 1b–3 (convergecast, matching, merge) and the final leader
//! announcement are the tree-merging engine [`qle::merging`], which
//! `QuantumGeneralLE` runs too; the only difference is step 1, where every
//! node probes **all** of its incident edges to find outgoing ones instead of
//! Grover-searching its neighbourhood.
//!
//! The cluster-probe phase (step 1) is **inbox-driven**: nodes answer only
//! the queries that actually arrived and propose only edges whose replies
//! they actually received, and crashed nodes neither query nor reply. Under
//! an installed [`FaultPlan`](congest_net::FaultPlan) this genuinely changes
//! which clusters merge — control flow, not just counters. The later phases
//! still run off driver-side tree state, so their sends are charged but
//! their decisions are fault-oblivious; a fully inbox-driven GHS is a
//! ROADMAP follow-on.

use congest_net::{Graph, Network, NodeId, Port};
use qle::merging::{Clustering, MergeMessage, OutgoingEdge};
use qle::{Error, LeaderElection, RunOptions, TracedRun};

/// The classical `Θ(m·log n)`-message tree-merging leader election protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GhsLe;

impl GhsLe {
    /// The standard configuration.
    #[must_use]
    pub fn new() -> Self {
        GhsLe
    }
}

impl LeaderElection for GhsLe {
    fn name(&self) -> &'static str {
        "GHS-TreeMergingLE (classical)"
    }

    fn run_with(&self, graph: &Graph, seed: u64, opts: &RunOptions) -> Result<TracedRun, Error> {
        graph.validate_as_network().map_err(Error::from)?;
        let n = graph.node_count();
        if n < 2 {
            return Err(Error::UnsupportedTopology {
                protocol: "GHS-TreeMergingLE",
                reason: "need at least two nodes".into(),
            });
        }
        let mut net: Network<MergeMessage> = opts.network(graph.clone(), seed);
        let mut clustering = Clustering::singletons(n);
        let max_phases = (n.max(2) as f64).log2().ceil() as usize + 2;
        let mut effective_rounds = 0u64;
        // Reusable scratch for reading inboxes back in step 1, and for the
        // per-port query dedup of the reply round.
        let mut inbox_scratch = Vec::new();
        let mut query_scratch: Vec<(Port, u64)> = Vec::new();

        for _phase in 0..max_phases {
            if clustering.cluster_count() <= 1 {
                break;
            }

            // Step 1: every node probes *all* incident edges for outgoing ones
            // (this is the Θ(m)-per-phase step the quantum protocol avoids).
            //
            // This phase is **inbox-driven**, not omniscient: a node answers
            // only the queries that actually arrived, and proposes only
            // edges whose replies it actually received — so drops, outages,
            // latency, and crashes genuinely change which clusters merge
            // (the later tree bookkeeping stays driver-side; see the module
            // docs). Every message goes out by port: queries through ports
            // `0..deg(v)`, each reply back through its query's arrival port.
            // On a simple graph ports and neighbours correspond one to one,
            // so on a fault-free run the messages, rounds, and proposal
            // choices are byte-identical to the omniscient formulation:
            // every inbox lists its messages in ascending arrival-port
            // order, and each reply leaves on the port its query came in.
            let cluster_of = clustering.cluster_of();
            let mut proposals: Vec<Option<OutgoingEdge>> = vec![None; n];
            for (v, &cluster) in cluster_of.iter().enumerate() {
                if net.node_crashed(v) {
                    continue;
                }
                for port in 0..graph.degree(v) {
                    net.send_through_port(v, port, MergeMessage::ClusterQuery(cluster))?;
                }
            }
            net.advance_round();
            for (w, &own_cluster) in cluster_of.iter().enumerate() {
                if net.node_crashed(w) {
                    continue;
                }
                net.swap_inbox(w, &mut inbox_scratch);
                // One reply per arrival port, answering the freshest query
                // (the last in delivery order). Today the inbox can hold at
                // most one query per port — queries travel only on the
                // direct edge, the CONGEST rule admits one message per
                // directed edge per round, and constant per-link latency
                // preserves FIFO with at most one maturing message per
                // barrier (pinned by the fault-plane latency sweep) — but
                // deduplicating keeps a double `send` on one edge (an
                // `EdgeBusy` abort) impossible even if a future fault model
                // adds jittered latency.
                query_scratch.clear();
                for &(_, port, msg) in inbox_scratch.iter() {
                    if let MergeMessage::ClusterQuery(c) = msg {
                        match query_scratch.iter_mut().find(|(p, _)| *p == port) {
                            Some(entry) => entry.1 = c,
                            None => query_scratch.push((port, c)),
                        }
                    }
                }
                for &(port, c) in query_scratch.iter() {
                    net.send_through_port(w, port, MergeMessage::ClusterReply(c != own_cluster))?;
                }
            }
            net.advance_round();
            for (v, proposal) in proposals.iter_mut().enumerate() {
                if net.node_crashed(v) {
                    continue;
                }
                net.swap_inbox(v, &mut inbox_scratch);
                // The lowest-port outgoing reply wins; on the fault-free
                // path that is the first one delivered.
                let mut best: Option<(usize, NodeId)> = None;
                for &(w, port, msg) in inbox_scratch.iter() {
                    if msg == MergeMessage::ClusterReply(true)
                        && best.is_none_or(|(bp, _)| port < bp)
                    {
                        best = Some((port, w));
                    }
                }
                *proposal = best.map(|(_, w)| (v, w));
            }

            // Steps 1b–3, with the matching charged as two rounds of one
            // broadcast per cluster tree.
            let depths = clustering.merge_phase(&mut net, &proposals, 2)?;
            effective_rounds += 2 + depths.tree + 2 * depths.tree + depths.merged;
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
    fn elects_a_unique_leader_deterministically_across_topologies() {
        let graphs = vec![
            topology::cycle(20).unwrap(),
            topology::hypercube(5).unwrap(),
            topology::erdos_renyi_connected(40, 0.15, 5).unwrap(),
            topology::complete(24).unwrap(),
            topology::barbell(6, 3).unwrap(),
        ];
        for graph in graphs {
            for seed in 0..3 {
                let run = GhsLe::new().run(&graph, seed).unwrap();
                assert!(run.succeeded(), "failed on n = {}", graph.node_count());
            }
        }
    }

    #[test]
    fn message_cost_scales_with_edge_count() {
        let sparse = topology::cycle(64).unwrap();
        let dense = topology::complete(64).unwrap();
        let sparse_cost = GhsLe::new().run(&sparse, 1).unwrap().cost.total_messages();
        let dense_cost = GhsLe::new().run(&dense, 1).unwrap().cost.total_messages();
        // The dense graph has 31x the edges but converges in fewer phases and
        // the sparse run pays per-phase tree overheads, so the ratio is well
        // below 31; it must still clearly exceed parity.
        assert!(
            dense_cost > 3 * sparse_cost,
            "sparse = {sparse_cost}, dense = {dense_cost}"
        );
    }

    #[test]
    fn rejects_disconnected_graphs() {
        let graph = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(GhsLe::new().run(&graph, 0).is_err());
    }
}
