//! Elementary topologies: complete graphs, stars, cycles, and paths.

use crate::error::Error;
use crate::graph::{Graph, ImplicitFamily};

/// The complete graph `K_n` (diameter 1), the topology of Sections 5.1 and 6.
///
/// Implicit backend: the adjacency is a closed form, so graph memory is O(1)
/// even at millions of nodes (the CSR arrays would be O(n²)).
///
/// # Errors
///
/// Returns [`Error::InvalidTopology`] if `n < 2`, or if the directed edge
/// count `n·(n-1)` overflows `usize`.
pub fn complete(n: usize) -> Result<Graph, Error> {
    if n < 2 {
        return Err(Error::InvalidTopology {
            reason: format!("complete graph needs n >= 2, got {n}"),
        });
    }
    Graph::from_implicit(ImplicitFamily::Complete { n })
}

/// The star graph with centre `0` and `n - 1` leaves, used in the worked
/// example of Appendix B.2.
///
/// Implicit backend: O(1) graph memory at any size.
///
/// # Errors
///
/// Returns [`Error::InvalidTopology`] if `n < 2`, or if the directed edge
/// count `2·(n-1)` overflows `usize`.
pub fn star(n: usize) -> Result<Graph, Error> {
    if n < 2 {
        return Err(Error::InvalidTopology {
            reason: format!("star graph needs n >= 2, got {n}"),
        });
    }
    Graph::from_implicit(ImplicitFamily::Star { n })
}

/// The cycle `C_n`.
///
/// Implicit backend: O(1) graph memory at any size.
///
/// # Errors
///
/// Returns [`Error::InvalidTopology`] if `n < 3`, or if the directed edge
/// count `2n` overflows `usize`.
pub fn cycle(n: usize) -> Result<Graph, Error> {
    if n < 3 {
        return Err(Error::InvalidTopology {
            reason: format!("cycle needs n >= 3, got {n}"),
        });
    }
    Graph::from_implicit(ImplicitFamily::Cycle { n })
}

/// The path `P_n`.
///
/// # Errors
///
/// Returns [`Error::InvalidTopology`] if `n < 2`.
pub fn path(n: usize) -> Result<Graph, Error> {
    if n < 2 {
        return Err(Error::InvalidTopology {
            reason: format!("path needs n >= 2, got {n}"),
        });
    }
    let edges: Vec<_> = (0..n - 1).map(|v| (v, v + 1)).collect();
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_properties() {
        let g = complete(10).unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 45);
        assert_eq!(g.diameter(), 1);
        for v in 0..10 {
            assert_eq!(g.degree(v), 9);
        }
    }

    #[test]
    fn complete_rejects_tiny() {
        assert!(complete(1).is_err());
        assert!(complete(0).is_err());
    }

    #[test]
    fn star_graph_properties() {
        let g = star(17).unwrap();
        assert_eq!(g.edge_count(), 16);
        assert_eq!(g.degree(0), 16);
        assert_eq!(g.degree(5), 1);
        assert_eq!(g.diameter(), 2);
    }

    #[test]
    fn cycle_properties() {
        let g = cycle(8).unwrap();
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.diameter(), 4);
        assert!(cycle(2).is_err());
    }

    #[test]
    fn path_properties() {
        let g = path(6).unwrap();
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.diameter(), 5);
        assert!(path(1).is_err());
    }
}
