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
//!
//! The cluster trees change only when clusters merge, so [`Clustering`]
//! walks each tree once per phase: `merge` rebuilds one flat breadth-first
//! order of every tree after it installs the new tree edges. Step 3's
//! broadcast, the next phase's convergecast and both matching broadcasts,
//! and [`Clustering::announce_leaders`] all read that order.

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
    /// Spanning-tree adjacency (tree edges are always graph edges). A
    /// matched pair installs both of its chosen edges, so a node's list can
    /// repeat a neighbour and the edges can close cycles; the walk's `seen`
    /// marks keep `tree_order` a tree.
    tree_adj: Vec<Vec<NodeId>>,
    /// The distinct values of `cluster_of`, ascending.
    ids: Vec<u64>,
    /// Every cluster tree's breadth-first order as `(node, parent)` pairs,
    /// clusters in `ids` order: the walk starts at the centre (the only
    /// entry without a parent), follows `tree_adj` in insertion order, and
    /// skips nodes already seen and nodes of other clusters. Cluster
    /// `ids[i]`'s walk is `tree_order[tree_starts[i]..tree_starts[i + 1]]`.
    /// Built by `singletons`, rebuilt by `merge`, read by every
    /// convergecast and broadcast.
    tree_order: Vec<(NodeId, Option<NodeId>)>,
    /// The walks' start offsets into `tree_order`, plus its length.
    tree_starts: Vec<usize>,
    /// The walk's visited marks, all `false` between rebuilds.
    seen: Vec<bool>,
    /// The root each cluster id merges into this phase, indexed by cluster
    /// id: set by the matching and the hooks, cleared when `merge` maps
    /// the old ids through it.
    new_root: Vec<Option<u64>>,
}

impl Clustering {
    /// `n` singleton clusters, each node the centre of its own.
    #[must_use]
    pub fn singletons(n: usize) -> Self {
        Clustering {
            cluster_of: (0..n as u64).collect(),
            tree_adj: vec![Vec::new(); n],
            ids: (0..n as u64).collect(),
            tree_order: (0..n).map(|v| (v, None)).collect(),
            tree_starts: (0..=n).collect(),
            seen: vec![false; n],
            new_root: vec![None; n],
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

    /// Each cluster id with its tree's breadth-first `(node, parent)` walk,
    /// in ascending id order.
    fn trees(&self) -> impl Iterator<Item = (u64, &[(NodeId, Option<NodeId>)])> {
        self.ids
            .iter()
            .zip(self.tree_starts.windows(2))
            .map(|(&cluster, w)| (cluster, &self.tree_order[w[0]..w[1]]))
    }

    /// Rebuilds `tree_order` and `tree_starts` from `tree_adj`, one
    /// breadth-first walk per cluster in ascending id order.
    fn walk_trees(&mut self) {
        let Clustering {
            cluster_of,
            tree_adj,
            ids,
            tree_order,
            tree_starts,
            seen,
            ..
        } = self;
        tree_order.clear();
        tree_starts.clear();
        for &cluster in ids.iter() {
            let center = cluster as NodeId;
            // Each walk doubles as its own queue: entries from `head` on
            // are still to be expanded.
            let mut head = tree_order.len();
            tree_starts.push(head);
            tree_order.push((center, None));
            seen[center] = true;
            while let Some(&(v, _)) = tree_order.get(head) {
                head += 1;
                for &u in &tree_adj[v] {
                    if !seen[u] && cluster_of[u] == cluster {
                        seen[u] = true;
                        tree_order.push((u, Some(v)));
                    }
                }
            }
        }
        tree_starts.push(tree_order.len());
        for &(v, _) in tree_order.iter() {
            seen[v] = false;
        }
    }

    /// Sends `msg(cluster)` from every tree node to its children, over every
    /// cluster in ascending id order, and returns the largest tree's size.
    fn broadcast_down(
        &self,
        net: &mut Network<MergeMessage>,
        msg: fn(u64) -> MergeMessage,
    ) -> Result<u64, Error> {
        let mut largest = 0u64;
        for (cluster, tree) in self.trees() {
            largest = largest.max(tree.len() as u64);
            for &(node, parent) in tree {
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
        self.match_clusters(net, &chosen, matching_rounds)?;
        let merged = self.merge(net, &chosen)?;
        Ok(PhaseDepths { tree, merged })
    }

    /// Step 1b: each cluster convergecasts its smallest proposal to its
    /// centre (one message per tree edge on the path, aggregated so each
    /// tree edge carries at most one proposal), one round per cluster.
    /// Returns each cluster's chosen edge and the largest tree's size.
    fn convergecast(
        &self,
        net: &mut Network<MergeMessage>,
        proposals: &[Option<OutgoingEdge>],
    ) -> Result<(Vec<(u64, OutgoingEdge)>, u64), Error> {
        let mut chosen = Vec::new();
        let mut largest = 0u64;
        for (cluster, tree) in self.trees() {
            largest = largest.max(tree.len() as u64);
            let mut best: Option<OutgoingEdge> = None;
            // Walk the tree bottom-up: each non-centre node forwards the
            // best proposal seen in its subtree to its parent.
            for &(node, parent) in tree.iter().rev() {
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
    /// edges in cluster order, and each matched pair's `new_root` is the
    /// smaller of its two ids.
    fn match_clusters(
        &mut self,
        net: &mut Network<MergeMessage>,
        chosen: &[(u64, OutgoingEdge)],
        rounds: u64,
    ) -> Result<(), Error> {
        for _ in 0..rounds {
            self.broadcast_down(net, MergeMessage::Matching)?;
            for &(_, (from, to)) in chosen {
                net.send(from, to, MergeMessage::Matching(self.cluster_of[from]))?;
            }
            net.advance_round();
        }
        let new_root = &mut self.new_root;
        for &(a, (_, to)) in chosen {
            let b = self.cluster_of[to];
            if a != b && new_root[a as usize].is_none() && new_root[b as usize].is_none() {
                let root = Some(a.min(b));
                new_root[a as usize] = root;
                new_root[b as usize] = root;
            }
        }
        Ok(())
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
    ) -> Result<u64, Error> {
        let new_root = &mut self.new_root;
        for &(cluster, (_, to)) in chosen {
            if new_root[cluster as usize].is_none() {
                let other = self.cluster_of[to];
                let root = new_root[other as usize].unwrap_or_else(|| other.min(cluster));
                new_root[cluster as usize] = Some(root);
                new_root[other as usize].get_or_insert(root);
            }
        }
        // Install the new tree edges (each chosen edge used for a merge).
        for &(cluster, (from, to)) in chosen {
            let this_root = new_root[cluster as usize];
            let other_root = new_root[self.cluster_of[to] as usize];
            if this_root.is_some() && this_root == other_root {
                self.tree_adj[from].push(to);
                self.tree_adj[to].push(from);
            }
        }
        for cluster in &mut self.cluster_of {
            if let Some(root) = new_root[*cluster as usize] {
                *cluster = root;
            }
        }
        // Every id `new_root` holds is an old cluster id, so mapping the
        // old ids through it also clears it for the next phase.
        for id in &mut self.ids {
            if let Some(root) = new_root[*id as usize].take() {
                *id = root;
            }
        }
        self.ids.sort_unstable();
        self.ids.dedup();
        self.walk_trees();
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
        &self,
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
        assert_eq!(clustering.tree_starts, [0, 4], "one walk over all four");
        let order = &clustering.tree_order;
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
