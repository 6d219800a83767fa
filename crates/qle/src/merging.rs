//! GHS-style tree merging (paper, Section 5.4): the cluster state and the
//! phases that `QuantumGeneralLE` and the classical GHS baseline share.
//!
//! Both protocols run the same phase loop. Initially every node is its own
//! cluster, a tree of graph edges identified by its centre node's id. In
//! each phase:
//!
//! 1. every node looks for an outgoing incident edge — the only step in
//!    which the two protocols differ (GHS probes every edge, `QuantumGeneralLE`
//!    Grover-searches its neighbourhood, Lemma 5.8), so it stays with each
//!    driver;
//!
//! 1b. each cluster convergecasts one proposal to its centre;
//! 2. the clusters simulate a maximal matching on the cluster supergraph;
//! 3. matched pairs merge along their chosen edge, unmatched clusters hook
//!    onto the cluster they chose, and the new identifier is broadcast over
//!    every merged tree.
//!
//! [`Clustering::merge_phase`] runs 1b–3 and
//! [`Clustering::announce_leaders`] the final leader broadcast, so the two
//! protocols' message and round counts differ by construction only in
//! step 1, which is Theorem 5.10's claim. A driver supplies step 1's
//! proposals, its phase budget, its matching round count and its
//! effective-round charges.
//!
//! These phases run off driver-side tree state: their sends are charged on
//! the network, but their decisions are fault-oblivious.

use std::collections::{HashMap, HashSet};

use congest_net::{Network, NodeId, Payload};

use crate::error::Error;
use crate::problems::NodeStatus;

/// Messages exchanged by the tree-merging protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMessage {
    /// "Which cluster are you in?" — carries the sender's cluster identifier.
    ClusterQuery(u64),
    /// Reply to a cluster query: `true` means "different cluster".
    ClusterReply(bool),
    /// An outgoing-edge proposal travelling up the cluster tree.
    Proposal {
        /// The proposing endpoint inside the cluster.
        from: u64,
        /// The endpoint outside the cluster.
        to: u64,
    },
    /// One step of the matching computation.
    Matching(u64),
    /// The merged cluster's new identifier, broadcast over the merged tree.
    NewCluster(u64),
    /// The elected leader's identifier, broadcast at the end.
    Leader(u64),
}

impl Payload for MergeMessage {
    fn size_bits(&self) -> usize {
        match self {
            MergeMessage::ClusterReply(_) => 2,
            _ => 64,
        }
    }
}

/// An outgoing edge found in step 1: `(inside endpoint, outside endpoint)`.
pub type OutgoingEdge = (NodeId, NodeId);

/// How large one merging phase's cluster trees were, for the driver's
/// effective-round charges (a tree's node count bounds its depth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseDepths {
    /// The largest cluster tree the phase started with: what the
    /// convergecast and each matching round's tree broadcast cost.
    pub tree: u64,
    /// The largest merged tree: what the new-identifier broadcast cost.
    pub merged: u64,
}

/// Cluster bookkeeping: which cluster each node is in, the clusters'
/// spanning trees, and the cluster identifiers (each the centre's node id).
#[derive(Debug)]
pub struct Clustering {
    cluster_of: Vec<u64>,
    /// Spanning-tree adjacency (tree edges are always graph edges).
    tree_adj: Vec<Vec<NodeId>>,
    /// The distinct values of `cluster_of`, ascending.
    ids: Vec<u64>,
    /// `tree_order`'s visited marks, all `false` between calls.
    seen: Vec<bool>,
}

impl Clustering {
    /// `n` singleton clusters, each node the centre of its own.
    #[must_use]
    pub fn singletons(n: usize) -> Self {
        Clustering {
            cluster_of: (0..n as u64).collect(),
            tree_adj: vec![Vec::new(); n],
            ids: (0..n as u64).collect(),
            seen: vec![false; n],
        }
    }

    /// Each node's cluster identifier.
    #[must_use]
    pub fn cluster_of(&self) -> &[u64] {
        &self.cluster_of
    }

    /// The number of clusters.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.ids.len()
    }

    /// Breadth-first order of the cluster tree from its centre, as
    /// `(node, parent)` pairs; used for convergecast/broadcast charging.
    fn tree_order(&mut self, cluster: u64) -> Vec<(NodeId, Option<NodeId>)> {
        let center = cluster as NodeId;
        let mut order = vec![(center, None)];
        self.seen[center] = true;
        // The order doubles as the queue: entries from `head` on are still
        // to be expanded.
        let mut head = 0;
        while let Some(&(v, _)) = order.get(head) {
            head += 1;
            for &u in &self.tree_adj[v] {
                if !self.seen[u] && self.cluster_of[u] == cluster {
                    self.seen[u] = true;
                    order.push((u, Some(v)));
                }
            }
        }
        for &(v, _) in &order {
            self.seen[v] = false;
        }
        order
    }

    /// Sends `msg(cluster)` from every tree node to its children, over every
    /// cluster in ascending id order, and returns the largest tree's size.
    fn broadcast_down(
        &mut self,
        net: &mut Network<MergeMessage>,
        msg: fn(u64) -> MergeMessage,
    ) -> Result<u64, Error> {
        let mut largest = 0u64;
        for i in 0..self.ids.len() {
            let cluster = self.ids[i];
            let order = self.tree_order(cluster);
            largest = largest.max(order.len() as u64);
            for &(node, parent) in order.iter().skip(1) {
                if let Some(parent) = parent {
                    net.send(parent, node, msg(cluster))?;
                }
            }
        }
        Ok(largest)
    }

    /// Steps 1b–3 of one phase, given step 1's per-node outgoing edges:
    /// convergecast, `matching_rounds` rounds of matching traffic, merge.
    ///
    /// # Errors
    ///
    /// Returns a network error if a send breaks the CONGEST rules (a
    /// protocol bug).
    pub fn merge_phase(
        &mut self,
        net: &mut Network<MergeMessage>,
        proposals: &[Option<OutgoingEdge>],
        matching_rounds: u64,
    ) -> Result<PhaseDepths, Error> {
        let (chosen, tree) = self.convergecast(net, proposals)?;
        let matched = self.match_clusters(net, &chosen, matching_rounds)?;
        let merged = self.merge(net, &chosen, &matched)?;
        Ok(PhaseDepths { tree, merged })
    }

    /// Step 1b: each cluster convergecasts its smallest proposal to its
    /// centre (one message per tree edge on the path, aggregated so each
    /// tree edge carries at most one proposal), one round per cluster.
    /// Returns each cluster's chosen edge and the largest tree's size.
    fn convergecast(
        &mut self,
        net: &mut Network<MergeMessage>,
        proposals: &[Option<OutgoingEdge>],
    ) -> Result<(Vec<(u64, OutgoingEdge)>, u64), Error> {
        let mut chosen = Vec::new();
        let mut largest = 0u64;
        for i in 0..self.ids.len() {
            let cluster = self.ids[i];
            let order = self.tree_order(cluster);
            largest = largest.max(order.len() as u64);
            let mut best: Option<OutgoingEdge> = None;
            // Walk the tree bottom-up: each non-centre node forwards the
            // best proposal seen in its subtree to its parent.
            for &(node, parent) in order.iter().rev() {
                if best.is_none() || (proposals[node].is_some() && proposals[node] < best) {
                    best = proposals[node];
                }
                if let (Some(parent), Some((from, to))) = (parent, best) {
                    let msg = MergeMessage::Proposal {
                        from: from as u64,
                        to: to as u64,
                    };
                    net.send(node, parent, msg)?;
                }
            }
            net.advance_round();
            if let Some(edge) = best {
                chosen.push((cluster, edge));
            }
        }
        Ok((chosen, largest))
    }

    /// Step 2: a maximal matching on the cluster supergraph. Each matching
    /// round costs one broadcast per cluster tree plus one message across
    /// each chosen edge; the matching itself is greedy over the chosen
    /// edges in cluster order.
    fn match_clusters(
        &mut self,
        net: &mut Network<MergeMessage>,
        chosen: &[(u64, OutgoingEdge)],
        rounds: u64,
    ) -> Result<Vec<(u64, u64)>, Error> {
        for _ in 0..rounds {
            self.broadcast_down(net, MergeMessage::Matching)?;
            for &(_, (from, to)) in chosen {
                net.send(from, to, MergeMessage::Matching(self.cluster_of[from]))?;
            }
            net.advance_round();
        }
        let mut matched = Vec::new();
        let mut in_matching: HashSet<u64> = HashSet::new();
        for &(a, (_, to)) in chosen {
            let b = self.cluster_of[to];
            if a != b && !in_matching.contains(&a) && !in_matching.contains(&b) {
                in_matching.insert(a);
                in_matching.insert(b);
                matched.push((a, b));
            }
        }
        Ok(matched)
    }

    /// Step 3: matched pairs merge along their chosen edge; an unmatched
    /// cluster with a chosen edge hooks onto the cluster on the other side.
    /// The merged cluster takes the smallest involved centre as its new
    /// centre, and the new id is broadcast over the merged tree in one round.
    /// Returns the largest merged tree's size.
    fn merge(
        &mut self,
        net: &mut Network<MergeMessage>,
        chosen: &[(u64, OutgoingEdge)],
        matched: &[(u64, u64)],
    ) -> Result<u64, Error> {
        let mut new_root: HashMap<u64, u64> = HashMap::new();
        for &(a, b) in matched {
            let root = a.min(b);
            new_root.insert(a, root);
            new_root.insert(b, root);
        }
        for &(cluster, (_, to)) in chosen {
            if !new_root.contains_key(&cluster) {
                let other = self.cluster_of[to];
                let root = new_root
                    .get(&other)
                    .copied()
                    .unwrap_or_else(|| other.min(cluster));
                new_root.insert(cluster, root);
                new_root.entry(other).or_insert(root);
            }
        }
        // Install the new tree edges (each chosen edge used for a merge).
        for &(cluster, (from, to)) in chosen {
            let this_root = new_root.get(&cluster).copied();
            let other_root = new_root.get(&self.cluster_of[to]).copied();
            if this_root.is_some() && this_root == other_root {
                self.tree_adj[from].push(to);
                self.tree_adj[to].push(from);
            }
        }
        for cluster in &mut self.cluster_of {
            if let Some(&root) = new_root.get(cluster) {
                *cluster = root;
            }
        }
        self.ids.clone_from(&self.cluster_of);
        self.ids.sort_unstable();
        self.ids.dedup();
        let merged = self.broadcast_down(net, MergeMessage::NewCluster)?;
        net.advance_round();
        Ok(merged)
    }

    /// The ending: every surviving cluster's centre is elected and
    /// broadcasts its identity over its tree in one round (explicit leader
    /// election). Returns the final statuses.
    ///
    /// # Errors
    ///
    /// Returns a network error if a send breaks the CONGEST rules (a
    /// protocol bug).
    pub fn announce_leaders(
        &mut self,
        net: &mut Network<MergeMessage>,
    ) -> Result<Vec<NodeStatus>, Error> {
        let mut statuses = vec![NodeStatus::NonElected; self.cluster_of.len()];
        for &cluster in &self.ids {
            statuses[cluster as NodeId] = NodeStatus::Elected;
        }
        self.broadcast_down(net, MergeMessage::Leader)?;
        net.advance_round();
        Ok(statuses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_net::{topology, NetworkConfig};

    #[test]
    fn a_path_merges_into_one_tree_rooted_at_node_zero() {
        let graph = topology::path(4).unwrap();
        let mut net = Network::new(graph, NetworkConfig::with_seed(1));
        let mut clustering = Clustering::singletons(4);
        // Every node proposes its right neighbour; node 3 the left one.
        let proposals = [Some((0, 1)), Some((1, 2)), Some((2, 3)), Some((3, 2))];
        let depths = clustering.merge_phase(&mut net, &proposals, 1).unwrap();
        // Greedy matching pairs {0, 1} and {2, 3}; nothing hooks.
        assert_eq!(clustering.cluster_of(), &[0, 0, 2, 2]);
        assert_eq!(depths, PhaseDepths { tree: 1, merged: 2 });
        let proposals = [None, Some((1, 2)), Some((2, 1)), None];
        clustering.merge_phase(&mut net, &proposals, 1).unwrap();
        assert_eq!(clustering.cluster_of(), &[0, 0, 0, 0]);
        assert_eq!(clustering.cluster_count(), 1);
        let statuses = clustering.announce_leaders(&mut net).unwrap();
        assert_eq!(statuses[0], NodeStatus::Elected);
        assert!(statuses[1..].iter().all(|&s| s == NodeStatus::NonElected));
    }

    #[test]
    fn tree_order_is_a_tree_when_a_matched_pair_closes_a_cycle() {
        let graph = topology::cycle(4).unwrap();
        let mut net = Network::new(graph.clone(), NetworkConfig::with_seed(1));
        let mut clustering = Clustering::singletons(4);
        let proposals = [Some((0, 1)), Some((1, 0)), Some((2, 3)), Some((3, 2))];
        clustering.merge_phase(&mut net, &proposals, 1).unwrap();
        assert_eq!(clustering.cluster_of(), &[0, 0, 2, 2]);
        // {0, 1} chooses (1, 2) and {2, 3} chooses (3, 0). The two clusters
        // are matched and both chosen edges are installed, so the tree
        // edges now close the 4-cycle.
        let proposals = [None, Some((1, 2)), None, Some((3, 0))];
        clustering.merge_phase(&mut net, &proposals, 1).unwrap();
        assert_eq!(clustering.cluster_of(), &[0, 0, 0, 0]);
        let order = clustering.tree_order(0);
        let mut nodes: Vec<NodeId> = order.iter().map(|&(v, _)| v).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, [0, 1, 2, 3], "every node listed once");
        assert_eq!(order[0], (0, None));
        for (i, &(v, parent)) in order.iter().enumerate().skip(1) {
            let parent = parent.expect("only the centre has no parent");
            assert!(graph.are_adjacent(v, parent), "parent {parent} of {v}");
            assert!(order[..i].iter().any(|&(u, _)| u == parent));
        }
    }
}
