//! Undirected graphs with the KT0 port numbering used by the CONGEST model.
//!
//! Each node `v` has `deg(v)` ports numbered `0..deg(v)`; port `p` of `v` is
//! connected to exactly one port `p'` of exactly one neighbour `u`, and the
//! two ends of an edge know nothing about each other beyond the port number
//! (clean network / KT0 assumption of the paper, Section 2.1).
//!
//! # Representation: two backends, one contract
//!
//! A [`Graph`] is either **materialized** (CSR) or **implicit** (closed
//! form). Both answer the same queries with *identical* results — the same
//! neighbour order, the same port numbering, the same reverse ports — so
//! everything downstream (round engines, fault plane, protocols, traces) is
//! backend-agnostic and fault-free runs are byte-identical across backends.
//!
//! **CSR backend** (random graphs, ad-hoc edge lists): three flat arrays —
//!
//! * `offsets` (`n + 1` entries): node `v`'s neighbours occupy
//!   `neighbors[offsets[v]..offsets[v + 1]]`,
//! * `neighbors` (`2m` entries): the flat adjacency, sorted by neighbour id
//!   within each node's segment — so a node's *port numbering* is its index
//!   into this segment,
//! * `rev_port` (`2m` entries): the **reverse-port table**. For the slot
//!   `offsets[v] + p` describing `v →(port p)→ u`, `rev_port` holds the port
//!   of `u` whose slot points back at `v`.
//!
//! **Implicit backend** (structured families: complete, star, cycle,
//! hypercube, torus): no adjacency is stored at all. `neighbor`,
//! `reverse_port_at` and `port_to` are computed on the fly from the
//! family's closed-form port map, chosen to reproduce the CSR
//! sorted-neighbour numbering exactly. Graph memory is O(1), so a
//! million-node `complete` — ~4 TB as CSR — costs a few machine words.
//!
//! The [`Network`](crate::Network) resolves a message's arrival port at send
//! time through [`Graph::reverse_port_at`], an O(1) lookup on both backends,
//! so no receiver ever scans an adjacency list. The invariants, checked by
//! the CSR constructor and pinned by property tests on both backends, are,
//! for every port `p` of every node `v` with `u = neighbor(v, p)`:
//!
//! * `neighbor(u, reverse_port_at(v, p)) == v`,
//! * `reverse_port_at(u, reverse_port_at(v, p)) == p` (the table is an
//!   involution),
//! * each neighbour list is strictly increasing (no duplicates, no loops).

use std::collections::VecDeque;

use crate::error::Error;

/// Identifier of a node, in `0..n`.
///
/// Node identifiers are an artifact of the simulator; the protocols in this
/// workspace treat the network as *anonymous* and only ever address
/// neighbours through ports or through identifiers they learned from received
/// messages, as the paper requires.
pub type NodeId = usize;

/// A port of a node: an index into that node's adjacency list, in `0..deg(v)`.
pub type Port = usize;

/// A structured family whose adjacency is a closed form: the port map is
/// computed on demand instead of stored, and is defined to agree exactly
/// with the sorted-neighbour CSR numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ImplicitFamily {
    /// `K_n`, `n >= 2`: every pair adjacent.
    Complete { n: usize },
    /// Star with centre `0` and leaves `1..n`, `n >= 2`.
    Star { n: usize },
    /// Cycle `0 — 1 — … — n-1 — 0`, `n >= 3`.
    Cycle { n: usize },
    /// Hypercube `Q_d` on `2^d` nodes, `d >= 1`.
    Hypercube { dims: u32 },
    /// `rows × cols` torus with wrap-around, both sides `>= 3` (smaller
    /// sides collapse wrap edges and stay on the CSR backend).
    Torus { rows: usize, cols: usize },
}

impl ImplicitFamily {
    fn node_count(self) -> usize {
        match self {
            ImplicitFamily::Complete { n }
            | ImplicitFamily::Star { n }
            | ImplicitFamily::Cycle { n } => n,
            ImplicitFamily::Hypercube { dims } => 1usize << dims,
            ImplicitFamily::Torus { rows, cols } => rows * cols,
        }
    }

    /// The directed edge count `2m`, or `None` if it overflows `usize`.
    /// [`Graph::from_implicit`] rejects the families that overflow, and
    /// every family has `n <= 2m`, so `node_count` cannot overflow either.
    fn directed_edge_count(self) -> Option<usize> {
        match self {
            ImplicitFamily::Complete { n } => n.checked_mul(n - 1),
            ImplicitFamily::Star { n } => (n - 1).checked_mul(2),
            ImplicitFamily::Cycle { n } => n.checked_mul(2),
            ImplicitFamily::Hypercube { dims } => {
                (dims as usize).checked_mul(1usize.checked_shl(dims)?)
            }
            ImplicitFamily::Torus { rows, cols } => rows.checked_mul(cols)?.checked_mul(4),
        }
    }

    fn degree(self, v: NodeId) -> usize {
        match self {
            ImplicitFamily::Complete { n } => n - 1,
            ImplicitFamily::Star { n } => {
                if v == 0 {
                    n - 1
                } else {
                    1
                }
            }
            ImplicitFamily::Cycle { .. } => 2,
            ImplicitFamily::Hypercube { dims } => dims as usize,
            ImplicitFamily::Torus { .. } => 4,
        }
    }

    /// The neighbour behind port `p` of `v`, in sorted-neighbour order —
    /// the closed form of `neighbors[offsets[v] + p]`.
    fn neighbor(self, v: NodeId, p: Port) -> NodeId {
        debug_assert!(p < self.degree(v), "port {p} out of range for node {v}");
        match self {
            // K_n: neighbours of v are 0..v then v+1..n; port p skips v.
            ImplicitFamily::Complete { .. } => {
                if p < v {
                    p
                } else {
                    p + 1
                }
            }
            // Star: the centre's sorted leaves are 1..n; a leaf sees only 0.
            ImplicitFamily::Star { .. } => {
                if v == 0 {
                    p + 1
                } else {
                    0
                }
            }
            // Cycle endpoints wrap, so their sorted pair is not (v-1, v+1).
            ImplicitFamily::Cycle { n } => match (v, p) {
                (0, 0) => 1,
                (0, _) => n - 1,
                (v, 0) if v == n - 1 => 0,
                (v, _) if v == n - 1 => n - 2,
                (v, 0) => v - 1,
                (v, _) => v + 1,
            },
            // Q_d: flipping a *set* bit decreases v, a *clear* bit increases
            // it, so sorted order is set bits by descending position, then
            // clear bits by ascending position.
            ImplicitFamily::Hypercube { dims } => {
                let set = v.count_ones() as usize;
                if p < set {
                    let mut k = set - 1 - p;
                    let mut x = v;
                    loop {
                        let b = x.trailing_zeros();
                        if k == 0 {
                            return v ^ (1usize << b);
                        }
                        x &= x - 1;
                        k -= 1;
                    }
                } else {
                    let mut k = p - set;
                    for b in 0..dims {
                        if v & (1usize << b) == 0 {
                            if k == 0 {
                                return v | (1usize << b);
                            }
                            k -= 1;
                        }
                    }
                    unreachable!("port {p} out of range for node {v}")
                }
            }
            ImplicitFamily::Torus { rows, cols } => torus_sorted_neighbors(rows, cols, v)[p],
        }
    }

    /// The port of `v` that leads to `u`, if adjacent — the closed form of
    /// the CSR binary search.
    fn port_to(self, v: NodeId, u: NodeId) -> Option<Port> {
        let n = self.node_count();
        if v >= n || u >= n || u == v {
            return None;
        }
        match self {
            ImplicitFamily::Complete { .. } => Some(if u < v { u } else { u - 1 }),
            ImplicitFamily::Star { .. } => match (v, u) {
                (0, u) => Some(u - 1),
                (_, 0) => Some(0),
                _ => None,
            },
            ImplicitFamily::Cycle { n } => {
                let prev = if v == 0 { n - 1 } else { v - 1 };
                let next = if v == n - 1 { 0 } else { v + 1 };
                // Sorted pair: min(prev, next) is port 0. n >= 3 keeps them
                // distinct.
                if u == prev.min(next) {
                    Some(0)
                } else if u == prev.max(next) {
                    Some(1)
                } else {
                    None
                }
            }
            ImplicitFamily::Hypercube { .. } => {
                let diff = v ^ u;
                if !diff.is_power_of_two() {
                    return None;
                }
                let b = diff.trailing_zeros();
                if u < v {
                    // u clears bit b of v: sorted position = count of set
                    // bits of v strictly above b (descending order).
                    Some((v >> (b + 1)).count_ones() as usize)
                } else {
                    // u sets bit b of v: after all set-bit neighbours, in
                    // ascending clear-bit order.
                    let below = (v & ((1usize << b) - 1)).count_ones() as usize;
                    Some(v.count_ones() as usize + (b as usize - below))
                }
            }
            ImplicitFamily::Torus { rows, cols } => torus_sorted_neighbors(rows, cols, v)
                .iter()
                .position(|&w| w == u),
        }
    }

    /// Eccentricity — every family here is vertex-symmetric enough for a
    /// closed form.
    fn eccentricity(self, v: NodeId) -> usize {
        match self {
            ImplicitFamily::Complete { .. } => 1,
            ImplicitFamily::Star { n } => {
                if n == 2 || v == 0 {
                    1
                } else {
                    2
                }
            }
            ImplicitFamily::Cycle { n } => n / 2,
            ImplicitFamily::Hypercube { dims } => dims as usize,
            ImplicitFamily::Torus { rows, cols } => rows / 2 + cols / 2,
        }
    }

    fn diameter(self) -> usize {
        match self {
            ImplicitFamily::Complete { .. } => 1,
            ImplicitFamily::Star { n } => {
                if n == 2 {
                    1
                } else {
                    2
                }
            }
            ImplicitFamily::Cycle { n } => n / 2,
            ImplicitFamily::Hypercube { dims } => dims as usize,
            ImplicitFamily::Torus { rows, cols } => rows / 2 + cols / 2,
        }
    }
}

/// The four torus neighbours of `v`, sorted ascending (the CSR port order).
/// Both sides are `>= 3`, so the four are pairwise distinct.
///
/// The order follows from the rows, without a sort. Let `lo < hi` be the two
/// neighbours in `v`'s own row, `up` the one in the row above and `down` the
/// one in the row below, both with wrap-around. Row 0 gives
/// `[lo, hi, down, up]` (`up` wraps to the last row), the last row gives
/// `[down, up, lo, hi]` (`down` wraps to row 0), and every other row gives
/// `[up, lo, hi, down]`.
fn torus_sorted_neighbors(rows: usize, cols: usize, v: NodeId) -> [NodeId; 4] {
    let r = v / cols;
    let row_start = r * cols;
    let c = v - row_start;
    let left = row_start + if c == 0 { cols - 1 } else { c - 1 };
    let right = row_start + if c + 1 == cols { 0 } else { c + 1 };
    let (lo, hi) = (left.min(right), left.max(right));
    let above = if r == 0 { rows - 1 } else { r - 1 };
    let below = if r + 1 == rows { 0 } else { r + 1 };
    let (up, down) = (above * cols + c, below * cols + c);
    if r == 0 {
        [lo, hi, down, up]
    } else if r + 1 == rows {
        [down, up, lo, hi]
    } else {
        [up, lo, hi, down]
    }
}

/// Storage behind a [`Graph`]: materialized CSR arrays or an implicit
/// closed-form family.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Backend {
    Csr {
        /// CSR row offsets; `offsets[n]` is the directed edge count `2m`.
        offsets: Vec<usize>,
        /// Flat adjacency, sorted within each node's segment.
        neighbors: Vec<NodeId>,
        /// Reverse-port table: `rev_port[offsets[v] + p]` is the port of
        /// `neighbors[offsets[v] + p]` that leads back to `v`.
        rev_port: Vec<Port>,
    },
    Implicit(ImplicitFamily),
}

/// An undirected graph with port numbering — CSR-materialized or computed
/// from a closed form, behind one backend-agnostic API.
///
/// The adjacency segment of each node is sorted by neighbour id, so port
/// numbers are deterministic for a given edge set, on both backends.
///
/// # Example
///
/// ```
/// use congest_net::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.degree(0), 2);
/// assert!(g.is_connected());
/// assert_eq!(g.diameter(), 2);
///
/// // Port 0 of node 0 leads to node 1, and the reverse port names the port
/// // of 1 that leads back to 0.
/// assert_eq!(g.neighbor(0, 0), 1);
/// assert_eq!(g.neighbor(1, g.reverse_port_at(0, 0)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    backend: Backend,
}

/// Iterator over a node's neighbours in port order, returned by
/// [`Graph::neighbors`].
///
/// On the CSR backend this walks the node's sorted segment; on the implicit
/// backend each step evaluates the family's closed-form port map. Either
/// way, item `i` (counting from the front) is the neighbour behind port `i`.
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    repr: NeighborsRepr<'a>,
    node: NodeId,
    front: Port,
    back: Port,
}

#[derive(Debug, Clone, Copy)]
enum NeighborsRepr<'a> {
    /// The node's full CSR segment (indexed by port, not yet advanced).
    Slice(&'a [NodeId]),
    Implicit(ImplicitFamily),
}

impl Neighbors<'_> {
    /// Number of neighbours not yet yielded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.back - self.front
    }

    /// Whether all neighbours have been yielded (or the node is isolated).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.front == self.back
    }

    /// Collects the remaining neighbours into a `Vec`, in port order.
    #[must_use]
    pub fn to_vec(self) -> Vec<NodeId> {
        self.collect()
    }

    fn at(&self, p: Port) -> NodeId {
        match self.repr {
            NeighborsRepr::Slice(seg) => seg[p],
            NeighborsRepr::Implicit(family) => family.neighbor(self.node, p),
        }
    }
}

impl Iterator for Neighbors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        (self.front < self.back).then(|| {
            let u = self.at(self.front);
            self.front += 1;
            u
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }
}

impl DoubleEndedIterator for Neighbors<'_> {
    fn next_back(&mut self) -> Option<NodeId> {
        (self.front < self.back).then(|| {
            self.back -= 1;
            self.at(self.back)
        })
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

impl PartialEq for Graph {
    /// Semantic equality: same node count and same adjacency (hence same
    /// port numbering), regardless of backend. Same-backend comparisons are
    /// structural; mixed comparisons walk the adjacency.
    fn eq(&self, other: &Self) -> bool {
        match (&self.backend, &other.backend) {
            (Backend::Csr { .. }, Backend::Csr { .. })
            | (Backend::Implicit(_), Backend::Implicit(_)) => self.backend == other.backend,
            _ => {
                self.node_count() == other.node_count()
                    && self.directed_edge_count() == other.directed_edge_count()
                    && (0..self.node_count()).all(|v| self.neighbors(v).eq(other.neighbors(v)))
            }
        }
    }
}

impl Eq for Graph {}

impl Graph {
    /// Builds a materialized (CSR) graph on `n` nodes from an edge list.
    ///
    /// Duplicate edges and self-loops are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTopology`] if `n == 0`, if an edge references a
    /// node `>= n`, if an edge is a self-loop, or if an edge appears twice.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, Error> {
        if n == 0 {
            return Err(Error::InvalidTopology {
                reason: "graph must have at least one node".into(),
            });
        }
        // Pass 1: validate endpoints and count degrees.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            if u >= n || v >= n {
                return Err(Error::InvalidTopology {
                    reason: format!("edge ({u}, {v}) references a node outside 0..{n}"),
                });
            }
            if u == v {
                return Err(Error::InvalidTopology {
                    reason: format!("self-loop at node {u}"),
                });
            }
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Pass 2: scatter both directions into the flat array.
        let mut neighbors = vec![0 as NodeId; 2 * edges.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in edges {
            neighbors[cursor[u]] = v;
            cursor[u] += 1;
            neighbors[cursor[v]] = u;
            cursor[v] += 1;
        }
        // Pass 3: sort each segment so ports are deterministic, and reject
        // duplicates (which appear as equal adjacent entries after sorting).
        for v in 0..n {
            let segment = &mut neighbors[offsets[v]..offsets[v + 1]];
            segment.sort_unstable();
            if segment.windows(2).any(|w| w[0] == w[1]) {
                return Err(Error::InvalidTopology {
                    reason: format!("duplicate edge at node {v}"),
                });
            }
        }
        // Pass 4: fill the reverse-port table. Each slot's reverse port is
        // the position of the source node in the target's sorted segment.
        let mut rev_port = vec![0 as Port; neighbors.len()];
        for v in 0..n {
            for e in offsets[v]..offsets[v + 1] {
                let u = neighbors[e];
                let seg = &neighbors[offsets[u]..offsets[u + 1]];
                // The entry must exist: we inserted both directions.
                rev_port[e] = seg.binary_search(&v).expect("asymmetric adjacency");
            }
        }
        Ok(Graph {
            backend: Backend::Csr {
                offsets,
                neighbors,
                rev_port,
            },
        })
    }

    /// Wraps an implicit family whose directed edge count `2m` fits in
    /// `usize`; the other validation (size floors, side lengths) is the
    /// topology constructors' responsibility.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTopology`] if `2m` overflows `usize`.
    pub(crate) fn from_implicit(family: ImplicitFamily) -> Result<Self, Error> {
        if family.directed_edge_count().is_none() {
            return Err(Error::InvalidTopology {
                reason: format!("{family:?}: the directed edge count 2m overflows usize"),
            });
        }
        Ok(Graph {
            backend: Backend::Implicit(family),
        })
    }

    /// Whether this graph computes its adjacency from a closed form (O(1)
    /// graph memory) rather than storing CSR arrays.
    #[must_use]
    pub fn is_implicit(&self) -> bool {
        matches!(self.backend, Backend::Implicit(_))
    }

    /// A materialized (CSR) copy of this graph with the identical adjacency,
    /// port numbering, and reverse ports. On a CSR graph this is a plain
    /// clone. Intended for equivalence tests and for algorithms that want
    /// slice access; do not call on huge implicit graphs (it allocates the
    /// full O(E) arrays being avoided).
    #[must_use]
    pub fn materialize(&self) -> Graph {
        match &self.backend {
            Backend::Csr { .. } => self.clone(),
            Backend::Implicit(_) => {
                let edges: Vec<(NodeId, NodeId)> = self.edges().collect();
                Graph::from_edges(self.node_count(), &edges)
                    .expect("implicit adjacency is a valid edge set")
            }
        }
    }

    /// Number of nodes `n`.
    #[must_use]
    #[inline]
    pub fn node_count(&self) -> usize {
        match &self.backend {
            Backend::Csr { offsets, .. } => offsets.len() - 1,
            Backend::Implicit(family) => family.node_count(),
        }
    }

    /// Number of undirected edges `m`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.directed_edge_count() / 2
    }

    /// Number of *directed* edge slots, `2m` (the CSR offset of node `n`).
    fn directed_edge_count(&self) -> usize {
        match &self.backend {
            Backend::Csr { neighbors, .. } => neighbors.len(),
            Backend::Implicit(family) => family
                .directed_edge_count()
                .expect("checked by from_implicit"),
        }
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        match &self.backend {
            Backend::Csr { offsets, .. } => offsets[v + 1] - offsets[v],
            Backend::Implicit(family) => {
                assert!(v < family.node_count(), "node {v} out of range");
                family.degree(v)
            }
        }
    }

    /// The neighbours of `v` in increasing order (port order), as an
    /// iterator: item `p` is the neighbour behind port `p`. O(1) to create
    /// on both backends; use [`Graph::neighbor`] for single-port lookups.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        match &self.backend {
            Backend::Csr {
                offsets, neighbors, ..
            } => Neighbors {
                repr: NeighborsRepr::Slice(&neighbors[offsets[v]..offsets[v + 1]]),
                node: v,
                front: 0,
                back: offsets[v + 1] - offsets[v],
            },
            Backend::Implicit(family) => {
                assert!(v < family.node_count(), "node {v} out of range");
                Neighbors {
                    repr: NeighborsRepr::Implicit(*family),
                    node: v,
                    front: 0,
                    back: family.degree(v),
                }
            }
        }
    }

    /// The neighbour of `v` behind port `p`. O(1) on both backends — this is
    /// the hot-path lookup (`neighbors[offsets[v] + p]` on CSR, the closed
    /// form on implicit families).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` or `p >= deg(v)`.
    #[must_use]
    #[inline]
    pub fn neighbor(&self, v: NodeId, p: Port) -> NodeId {
        match &self.backend {
            Backend::Csr {
                offsets, neighbors, ..
            } => {
                assert!(p < offsets[v + 1] - offsets[v], "port {p} out of range");
                neighbors[offsets[v] + p]
            }
            Backend::Implicit(family) => {
                assert!(v < family.node_count(), "node {v} out of range");
                assert!(p < family.degree(v), "port {p} out of range for node {v}");
                family.neighbor(v, p)
            }
        }
    }

    /// The reverse port of `v`'s port `p`: the arrival port at
    /// `neighbor(v, p)` for a message sent by `v` on `p`, i.e. the port of
    /// the neighbour that leads back to `v`. O(1) on both backends.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` or `p >= deg(v)`.
    #[must_use]
    #[inline]
    pub fn reverse_port_at(&self, v: NodeId, p: Port) -> Port {
        match &self.backend {
            Backend::Csr {
                offsets, rev_port, ..
            } => {
                debug_assert!(p < offsets[v + 1] - offsets[v]);
                rev_port[offsets[v] + p]
            }
            Backend::Implicit(family) => {
                let u = self.neighbor(v, p);
                family.port_to(u, v).expect("asymmetric implicit adjacency")
            }
        }
    }

    /// One-dispatch lookup for the hot send path: the target node and
    /// arrival port of `v`'s port `p`, or `Err(deg(v))` when `p` is out of
    /// range — so a validated send costs exactly one backend match.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub(crate) fn checked_delivery(&self, v: NodeId, p: Port) -> Result<(NodeId, Port), usize> {
        match &self.backend {
            Backend::Csr {
                offsets,
                neighbors,
                rev_port,
            } => {
                let lo = offsets[v];
                let degree = offsets[v + 1] - lo;
                if p >= degree {
                    return Err(degree);
                }
                let idx = lo + p;
                Ok((neighbors[idx], rev_port[idx]))
            }
            Backend::Implicit(family) => {
                assert!(v < family.node_count(), "node {v} out of range");
                let degree = family.degree(v);
                if p >= degree {
                    return Err(degree);
                }
                let u = family.neighbor(v, p);
                Ok((
                    u,
                    family.port_to(u, v).expect("asymmetric implicit adjacency"),
                ))
            }
        }
    }

    /// The delivery slot of `v`'s port `p`: the target node together with
    /// the arrival port there, resolved in **one** backend dispatch. The
    /// hot send path uses this so a send costs a single indexed pair of
    /// loads on CSR (shared offset computation) and a single closed-form
    /// evaluation pair on implicit backends — instead of separate
    /// `neighbor` + `reverse_port_at` calls.
    ///
    /// Callers must have validated `v < n` and `p < deg(v)` (every send
    /// entry point does); only a debug assert re-checks, keeping the
    /// release hot path to the two loads.
    #[must_use]
    #[inline]
    pub(crate) fn delivery_slot(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        match &self.backend {
            Backend::Csr {
                offsets,
                neighbors,
                rev_port,
            } => {
                debug_assert!(p < offsets[v + 1] - offsets[v], "port {p} out of range");
                let idx = offsets[v] + p;
                (neighbors[idx], rev_port[idx])
            }
            Backend::Implicit(family) => {
                let u = family.neighbor(v, p);
                (
                    u,
                    family.port_to(u, v).expect("asymmetric implicit adjacency"),
                )
            }
        }
    }

    /// The port of `v` that leads to `u`, if `u` is adjacent to `v`.
    ///
    /// O(log deg(v)) on CSR (binary search in the sorted segment), O(1) on
    /// implicit families. Hot paths that already hold a port should use
    /// [`reverse_port_at`](Graph::reverse_port_at) instead.
    #[must_use]
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<Port> {
        match &self.backend {
            Backend::Csr {
                offsets, neighbors, ..
            } => {
                if v >= offsets.len() - 1 {
                    return None;
                }
                neighbors[offsets[v]..offsets[v + 1]].binary_search(&u).ok()
            }
            Backend::Implicit(family) => family.port_to(v, u),
        }
    }

    /// Whether `u` and `v` are adjacent.
    #[must_use]
    pub fn are_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        self.port_to(u, v).is_some()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Breadth-first distances from `source` (`usize::MAX` for unreachable nodes).
    ///
    /// Allocates O(n); on implicit families the adjacency itself stays
    /// un-materialized, but large-n callers should still prefer the O(1)
    /// closed-form [`diameter`](Graph::diameter)/[`eccentricity`](Graph::eccentricity)
    /// where a distance vector is not actually needed.
    ///
    /// # Panics
    ///
    /// Panics if `source >= n`.
    #[must_use]
    pub fn bfs_distances(&self, source: NodeId) -> Vec<usize> {
        let n = self.node_count();
        let mut dist = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        dist[source] = 0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            for u in self.neighbors(v) {
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Whether the graph is connected. O(1) on implicit families (connected
    /// by construction); BFS on CSR.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        match &self.backend {
            Backend::Csr { .. } => self.bfs_distances(0).iter().all(|&d| d != usize::MAX),
            Backend::Implicit(_) => true,
        }
    }

    /// The diameter (largest finite BFS distance). Returns `usize::MAX` for a
    /// disconnected graph.
    ///
    /// O(1) closed form on implicit families. On CSR this is an `O(n · m)`
    /// exact computation intended for the modest network sizes used in tests
    /// and experiments — large-n result paths must not call it on CSR
    /// graphs (the bench code guards this with an explicit size cutoff).
    #[must_use]
    pub fn diameter(&self) -> usize {
        match &self.backend {
            Backend::Csr { .. } => {
                let mut best = 0;
                for v in 0..self.node_count() {
                    let dist = self.bfs_distances(v);
                    let far = dist.iter().copied().max().unwrap_or(0);
                    if far == usize::MAX {
                        return usize::MAX;
                    }
                    best = best.max(far);
                }
                best
            }
            Backend::Implicit(family) => family.diameter(),
        }
    }

    /// Eccentricity of a single node (largest BFS distance from it), or
    /// `usize::MAX` if some node is unreachable. O(1) on implicit families.
    #[must_use]
    pub fn eccentricity(&self, v: NodeId) -> usize {
        match &self.backend {
            Backend::Csr { .. } => self.bfs_distances(v).iter().copied().max().unwrap_or(0),
            Backend::Implicit(family) => {
                assert!(v < family.node_count(), "node {v} out of range");
                family.eccentricity(v)
            }
        }
    }

    /// Degree-weighted stationary distribution `π(v) = deg(v) / 2m` of the
    /// simple random walk on the graph.
    #[must_use]
    pub fn stationary_distribution(&self) -> Vec<f64> {
        let two_m = self.directed_edge_count() as f64;
        (0..self.node_count())
            .map(|v| self.degree(v) as f64 / two_m)
            .collect()
    }

    /// Validates that this graph is usable as a CONGEST communication network
    /// (connected and with at least one node).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] if the graph is not connected.
    pub fn validate_as_network(&self) -> Result<(), Error> {
        if !self.is_connected() {
            return Err(Error::Disconnected);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    /// Every implicit family instance the unit tests sweep, including the
    /// degenerate floors (K_2, star_2, C_3, Q_1, 3×3 torus) and odd sizes.
    /// The tori are every `rows × cols` with both sides in `3..=7`, so the
    /// row rule of the torus port map meets its first, middle and last rows
    /// and columns on square and oblong shapes with odd and even sides.
    fn implicit_zoo() -> Vec<Graph> {
        let mut zoo = Vec::new();
        for n in [2usize, 3, 5, 8, 17] {
            zoo.push(Graph::from_implicit(ImplicitFamily::Complete { n }).unwrap());
            zoo.push(Graph::from_implicit(ImplicitFamily::Star { n }).unwrap());
        }
        for n in [3usize, 4, 7, 16] {
            zoo.push(Graph::from_implicit(ImplicitFamily::Cycle { n }).unwrap());
        }
        for dims in [1u32, 2, 3, 5] {
            zoo.push(Graph::from_implicit(ImplicitFamily::Hypercube { dims }).unwrap());
        }
        for rows in 3usize..=7 {
            for cols in 3usize..=7 {
                zoo.push(Graph::from_implicit(ImplicitFamily::Torus { rows, cols }).unwrap());
            }
        }
        zoo
    }

    #[test]
    fn from_edges_rejects_zero_nodes() {
        assert!(matches!(
            Graph::from_edges(0, &[]),
            Err(Error::InvalidTopology { .. })
        ));
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        assert!(Graph::from_edges(2, &[(0, 5)]).is_err());
    }

    #[test]
    fn from_edges_rejects_self_loop() {
        assert!(Graph::from_edges(3, &[(1, 1)]).is_err());
    }

    #[test]
    fn from_edges_rejects_duplicate_edge() {
        assert!(Graph::from_edges(3, &[(0, 1), (1, 0)]).is_err());
    }

    #[test]
    fn ports_are_sorted_and_symmetric() {
        let g = Graph::from_edges(5, &[(0, 3), (0, 1), (0, 4), (1, 2)]).unwrap();
        assert_eq!(g.neighbors(0).to_vec(), vec![1, 3, 4]);
        assert_eq!(g.neighbor(0, 1), 3);
        assert_eq!(g.port_to(3, 0), Some(0));
        assert_eq!(g.port_to(0, 2), None);
    }

    #[test]
    fn path_diameter_and_connectivity() {
        let g = path_graph(10);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), 9);
        assert_eq!(g.eccentricity(0), 9);
        assert_eq!(g.eccentricity(5), 5);
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), usize::MAX);
        assert!(g.validate_as_network().is_err());
    }

    #[test]
    fn edge_iterator_lists_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.are_adjacent(u, v));
        }
    }

    #[test]
    fn stationary_distribution_sums_to_one() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let pi = g.stationary_distribution();
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reverse_port_table_is_consistent() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (0, 3),
                (1, 4),
            ],
        )
        .unwrap();
        for v in 0..g.node_count() {
            for p in 0..g.degree(v) {
                let u = g.neighbor(v, p);
                let rp = g.reverse_port_at(v, p);
                // The reverse port points back at v...
                assert_eq!(g.neighbor(u, rp), v);
                // ...agrees with the binary-search path...
                assert_eq!(g.port_to(u, v), Some(rp));
                // ...and the table is an involution.
                assert_eq!(g.reverse_port_at(u, rp), p);
            }
        }
    }

    #[test]
    fn implicit_families_match_their_materialization_exactly() {
        // The whole backend contract in one sweep: adjacency, port
        // numbering and reverse ports of every implicit instance agree with
        // an independently constructed CSR graph over the same edge set.
        for g in implicit_zoo() {
            assert!(g.is_implicit());
            let csr = g.materialize();
            assert!(!csr.is_implicit());
            assert_eq!(g.node_count(), csr.node_count());
            assert_eq!(g.directed_edge_count(), csr.directed_edge_count());
            assert_eq!(g, csr, "semantic equality across backends");
            for v in 0..g.node_count() {
                assert_eq!(g.degree(v), csr.degree(v), "degree({v})");
                assert_eq!(
                    g.neighbors(v).to_vec(),
                    csr.neighbors(v).to_vec(),
                    "neighbors({v})"
                );
                for p in 0..g.degree(v) {
                    assert_eq!(g.reverse_port_at(v, p), csr.reverse_port_at(v, p));
                    assert_eq!(g.delivery_slot(v, p), csr.delivery_slot(v, p));
                }
                for u in 0..g.node_count() {
                    assert_eq!(g.port_to(v, u), csr.port_to(v, u), "port_to({v}, {u})");
                }
            }
        }
    }

    #[test]
    fn implicit_closed_form_metrics_match_bfs() {
        for g in implicit_zoo() {
            let csr = g.materialize();
            assert!(g.is_connected());
            assert_eq!(g.diameter(), csr.diameter(), "diameter");
            for v in 0..g.node_count() {
                assert_eq!(g.eccentricity(v), csr.eccentricity(v), "eccentricity({v})");
            }
        }
    }

    #[test]
    fn implicit_reverse_ports_are_involutions() {
        for g in implicit_zoo() {
            for v in 0..g.node_count() {
                for p in 0..g.degree(v) {
                    let u = g.neighbor(v, p);
                    let rp = g.reverse_port_at(v, p);
                    assert_eq!(g.neighbor(u, rp), v);
                    assert_eq!(g.reverse_port_at(u, rp), p);
                }
            }
        }
    }

    #[test]
    fn implicit_graph_memory_is_constant() {
        // The point of the backend: a graph whose CSR arrays would need
        // ~2^40 slots is a couple of machine words.
        let g = Graph::from_implicit(ImplicitFamily::Complete { n: 1 << 20 }).unwrap();
        assert_eq!(g.node_count(), 1 << 20);
        assert_eq!(g.directed_edge_count(), (1 << 20) * ((1 << 20) - 1));
        assert_eq!(std::mem::size_of::<Graph>(), std::mem::size_of::<Backend>());
        // Spot-check the closed forms deep into the id space.
        let v = 999_983usize;
        assert_eq!(g.degree(v), (1 << 20) - 1);
        assert_eq!(g.neighbor(v, 0), 0);
        assert_eq!(g.neighbor(v, v), v + 1);
        assert_eq!(g.port_to(v, 12), Some(12));
        assert_eq!(g.reverse_port_at(v, 12), v - 1);
        assert_eq!(g.diameter(), 1);
    }

    #[test]
    fn neighbors_iterator_is_double_ended_and_exact() {
        let g = Graph::from_implicit(ImplicitFamily::Hypercube { dims: 4 }).unwrap();
        let forward: Vec<_> = g.neighbors(11).collect();
        let mut backward: Vec<_> = g.neighbors(11).rev().collect();
        backward.reverse();
        assert_eq!(forward, backward);
        assert_eq!(g.neighbors(11).len(), g.degree(11));
        let mut it = g.neighbors(11);
        it.next();
        assert_eq!(it.len(), g.degree(11) - 1);
    }
}
