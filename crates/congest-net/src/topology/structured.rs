//! Structured topologies with known mixing behaviour: hypercubes, tori,
//! barbells, and lollipops.
//!
//! Hypercubes are the paper's running example of a small-mixing-time graph
//! (τ = Õ(1), Section 5.2); barbells and lollipops are standard examples of
//! graphs with *large* mixing time, useful for exercising the τ-dependence of
//! `QuantumRWLE`.

use crate::error::Error;
use crate::graph::{Graph, ImplicitFamily};

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes.
///
/// Implicit backend: the bit-flip adjacency is a closed form, so graph
/// memory is O(1) (the CSR arrays would be O(n · d)).
///
/// # Errors
///
/// Returns [`Error::InvalidTopology`] if `d == 0`, or if the directed edge
/// count `d·2^d` overflows `usize` (on 64-bit targets: if `d > 58`).
pub fn hypercube(d: u32) -> Result<Graph, Error> {
    if d == 0 {
        return Err(Error::InvalidTopology {
            reason: "hypercube dimension must be >= 1".into(),
        });
    }
    Graph::from_implicit(ImplicitFamily::Hypercube { dims: d })
}

/// The `rows × cols` two-dimensional torus (wrap-around grid).
///
/// Implicit backend (O(1) graph memory) when both sides are `>= 3`; a side
/// of exactly 2 collapses its duplicate wrap edge, which breaks the
/// constant-degree closed form, so those degenerate tori stay on CSR.
///
/// # Errors
///
/// Returns [`Error::InvalidTopology`] if either side is `< 2`, if the
/// torus would degenerate into a multigraph (side of exactly 2 is allowed and
/// handled by collapsing the duplicate wrap edge), or if `4·rows·cols`
/// overflows `usize` (the directed edge count `2m` when both sides are
/// `>= 3`, and a bound on it otherwise).
pub fn torus(rows: usize, cols: usize) -> Result<Graph, Error> {
    if rows < 2 || cols < 2 {
        return Err(Error::InvalidTopology {
            reason: format!("torus sides must be >= 2, got {rows}x{cols}"),
        });
    }
    if rows >= 3 && cols >= 3 {
        return Graph::from_implicit(ImplicitFamily::Torus { rows, cols });
    }
    let Some(n) = rows
        .checked_mul(cols)
        .filter(|n| n.checked_mul(4).is_some())
    else {
        return Err(Error::InvalidTopology {
            reason: format!("torus {rows}x{cols}: the directed edge count overflows usize"),
        });
    };
    let idx = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::with_capacity(2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let here = idx(r, c);
            // For a side of exactly 2 the wrap-around edge from the second
            // cell coincides with the direct edge added from the first; skip
            // exactly that duplicate so the graph stays simple. (This keeps
            // construction linear in the edge count; the previous
            // `Vec::contains` scan per edge was quadratic.)
            if !(cols == 2 && c == 1) {
                edges.push((here, idx(r, (c + 1) % cols)));
            }
            if !(rows == 2 && r == 1) {
                edges.push((here, idx((r + 1) % rows, c)));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// The barbell graph: two cliques of size `clique` joined by a path of
/// `bridge` extra nodes (possibly zero, in which case the cliques share one
/// edge).
///
/// Barbells have mixing time Θ(n³ / m) and are the canonical "slow mixing"
/// stress test for random-walk based protocols.
///
/// # Errors
///
/// Returns [`Error::InvalidTopology`] if `clique < 3`.
pub fn barbell(clique: usize, bridge: usize) -> Result<Graph, Error> {
    if clique < 3 {
        return Err(Error::InvalidTopology {
            reason: format!("barbell cliques need >= 3 nodes, got {clique}"),
        });
    }
    let n = 2 * clique + bridge;
    let mut edges = Vec::new();
    // Left clique: 0..clique, right clique: clique + bridge .. n
    for u in 0..clique {
        for v in (u + 1)..clique {
            edges.push((u, v));
        }
    }
    let right_start = clique + bridge;
    for u in right_start..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    // Bridge path connecting node clique-1 to node right_start.
    let mut prev = clique - 1;
    for b in 0..bridge {
        let node = clique + b;
        edges.push((prev, node));
        prev = node;
    }
    edges.push((prev, right_start));
    Graph::from_edges(n, &edges)
}

/// The lollipop graph: a clique of size `clique` with a path of `tail` nodes
/// attached. Another canonical slow-mixing topology.
///
/// # Errors
///
/// Returns [`Error::InvalidTopology`] if `clique < 3` or `tail == 0`.
pub fn lollipop(clique: usize, tail: usize) -> Result<Graph, Error> {
    if clique < 3 {
        return Err(Error::InvalidTopology {
            reason: format!("lollipop clique needs >= 3 nodes, got {clique}"),
        });
    }
    if tail == 0 {
        return Err(Error::InvalidTopology {
            reason: "lollipop tail must have at least one node".into(),
        });
    }
    let n = clique + tail;
    let mut edges = Vec::new();
    for u in 0..clique {
        for v in (u + 1)..clique {
            edges.push((u, v));
        }
    }
    let mut prev = clique - 1;
    for t in 0..tail {
        let node = clique + t;
        edges.push((prev, node));
        prev = node;
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_properties() {
        let g = hypercube(5).unwrap();
        assert_eq!(g.node_count(), 32);
        assert_eq!(g.edge_count(), 32 * 5 / 2);
        assert_eq!(g.diameter(), 5);
        for v in 0..32 {
            assert_eq!(g.degree(v), 5);
        }
        assert!(hypercube(0).is_err());
    }

    #[test]
    fn torus_properties() {
        let g = torus(4, 5).unwrap();
        assert_eq!(g.node_count(), 20);
        assert!(g.is_connected());
        for v in 0..20 {
            assert_eq!(g.degree(v), 4);
        }
        assert!(torus(1, 5).is_err());
    }

    #[test]
    fn torus_side_two_stays_simple() {
        let g = torus(2, 2).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.node_count(), 4);
        // Each node has exactly 2 distinct neighbours in the 2x2 case.
        for v in 0..4 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn barbell_properties() {
        let g = barbell(5, 3).unwrap();
        assert_eq!(g.node_count(), 13);
        assert!(g.is_connected());
        // Diameter: across two cliques plus the bridge.
        assert!(g.diameter() >= 5);
        assert!(barbell(2, 1).is_err());
    }

    #[test]
    fn barbell_without_bridge() {
        let g = barbell(4, 0).unwrap();
        assert_eq!(g.node_count(), 8);
        assert!(g.is_connected());
    }

    #[test]
    fn lollipop_properties() {
        let g = lollipop(6, 4).unwrap();
        assert_eq!(g.node_count(), 10);
        assert!(g.is_connected());
        assert_eq!(g.degree(9), 1);
        assert!(lollipop(6, 0).is_err());
    }
}
