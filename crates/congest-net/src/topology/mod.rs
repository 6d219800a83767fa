//! Topology generators for the network configurations studied in the paper.
//!
//! The paper analyses three network classes — complete graphs (diameter 1),
//! diameter-2 graphs, and arbitrary graphs (diameter ≥ 3, including graphs
//! parameterised by their mixing time) — plus the star graph used as a worked
//! example in Appendix B.2. This module provides deterministic and seeded
//! random generators for all of them.
//!
//! All generators return connected [`Graph`]s or an [`Error`] explaining why
//! the requested parameters are infeasible.

mod basic;
mod diameter_two;
mod random;
mod structured;

pub use basic::{complete, cycle, path, star};
pub use diameter_two::{clique_of_cliques, hub_and_spokes_d2, shared_hub_pair};
pub use random::{erdos_renyi_connected, random_regular};
pub use structured::{barbell, hypercube, lollipop, torus};

use crate::error::Error;
use crate::graph::Graph;

/// A named topology family, convenient for sweeping experiments over several
/// network classes with one code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Family {
    /// Complete graph `K_n` (diameter 1).
    Complete,
    /// Star graph: one centre plus `n - 1` leaves.
    Star,
    /// Cycle `C_n`.
    Cycle,
    /// Hypercube `Q_d` (requires `n` to be a power of two).
    Hypercube,
    /// Random `d`-regular graph (an expander with high probability).
    RandomRegular {
        /// Degree of every node.
        degree: usize,
    },
    /// Connected Erdős–Rényi graph `G(n, p)`.
    ErdosRenyi {
        /// Edge probability numerator: `p = numer / n` (so `numer` is the
        /// expected average degree).
        expected_degree: usize,
    },
    /// Diameter-2 clique-of-cliques construction.
    CliqueOfCliques,
    /// Diameter-2 hub construction.
    HubAndSpokes,
    /// Two-dimensional torus grid.
    Torus,
    /// Barbell graph: two cliques joined by a path.
    Barbell,
}

impl Family {
    /// Generates a member of this family with `n` nodes (or as close to `n`
    /// as the family's structural constraints allow), using `seed` for the
    /// random families.
    ///
    /// # Errors
    ///
    /// Propagates the underlying generator's [`Error`] for infeasible sizes.
    pub fn generate(self, n: usize, seed: u64) -> Result<Graph, Error> {
        match self {
            Family::Complete => complete(n),
            Family::Star => star(n),
            Family::Cycle => cycle(n),
            Family::Hypercube => {
                let d = (n.max(2) as f64).log2().round() as u32;
                hypercube(d)
            }
            Family::RandomRegular { degree } => random_regular(n, degree, seed),
            Family::ErdosRenyi { expected_degree } => {
                let p = (expected_degree as f64 / n.max(1) as f64).min(1.0);
                erdos_renyi_connected(n, p, seed)
            }
            Family::CliqueOfCliques => {
                let k = (n as f64).sqrt().ceil() as usize;
                clique_of_cliques(k.max(2))
            }
            Family::HubAndSpokes => hub_and_spokes_d2(n),
            Family::Torus => {
                let side = (n as f64).sqrt().round() as usize;
                torus(side.max(2), side.max(2))
            }
            Family::Barbell => barbell(n / 2, n - 2 * (n / 2)),
        }
    }

    /// A short human-readable name, used in experiment tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Complete => "complete",
            Family::Star => "star",
            Family::Cycle => "cycle",
            Family::Hypercube => "hypercube",
            Family::RandomRegular { .. } => "random-regular",
            Family::ErdosRenyi { .. } => "erdos-renyi",
            Family::CliqueOfCliques => "clique-of-cliques",
            Family::HubAndSpokes => "hub-and-spokes",
            Family::Torus => "torus",
            Family::Barbell => "barbell",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_generate_connected_graphs() {
        let families = [
            Family::Complete,
            Family::Star,
            Family::Cycle,
            Family::Hypercube,
            Family::RandomRegular { degree: 4 },
            Family::ErdosRenyi { expected_degree: 6 },
            Family::CliqueOfCliques,
            Family::HubAndSpokes,
            Family::Torus,
            Family::Barbell,
        ];
        for family in families {
            let g = family
                .generate(32, 11)
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            assert!(g.is_connected(), "{} disconnected", family.name());
            assert!(g.node_count() >= 16, "{} too small", family.name());
        }
    }

    /// Both sides of each implicit family's overflow boundary: the largest
    /// instance whose directed edge count `2m` fits in a 64-bit `usize` is
    /// accepted with exact counts, the next one is rejected. A torus with a
    /// side of 2 is rejected before its CSR arrays are sized.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn implicit_families_reject_edge_counts_that_overflow_usize() {
        let invalid = |r: Result<Graph, Error>| matches!(r, Err(Error::InvalidTopology { .. }));

        let g = torus(1 << 31, (1 << 31) - 1).unwrap();
        assert_eq!(g.node_count(), (1 << 31) * ((1 << 31) - 1));
        assert_eq!(g.edge_count(), (1 << 32) * ((1 << 31) - 1));
        assert!(invalid(torus(1 << 31, 1 << 31)));
        assert!(invalid(torus(1 << 32, 1 << 32)));
        // A side of 2 stays on CSR, under the same bound.
        assert!(invalid(torus(2, 1 << 62)));
        assert!(invalid(torus(usize::MAX, 2)));

        let g = complete(1 << 32).unwrap();
        assert_eq!(g.edge_count(), (1 << 31) * ((1 << 32) - 1));
        assert!(invalid(complete((1 << 32) + 1)));

        let g = hypercube(58).unwrap();
        assert_eq!(g.node_count(), 1 << 58);
        assert_eq!(g.edge_count(), 58 << 57);
        assert!(invalid(hypercube(59)));
        assert!(invalid(hypercube(63)));
        assert!(invalid(hypercube(64)));

        let half = usize::MAX / 2;
        assert_eq!(star(half + 1).unwrap().edge_count(), half);
        assert!(invalid(star(half + 2)));
        assert_eq!(cycle(half).unwrap().edge_count(), half);
        assert!(invalid(cycle(half + 1)));
    }

    #[test]
    fn family_names_are_distinct() {
        let names = [
            Family::Complete.name(),
            Family::Star.name(),
            Family::Cycle.name(),
            Family::Hypercube.name(),
            Family::RandomRegular { degree: 3 }.name(),
            Family::ErdosRenyi { expected_degree: 3 }.name(),
            Family::CliqueOfCliques.name(),
            Family::HubAndSpokes.name(),
            Family::Torus.name(),
            Family::Barbell.name(),
        ];
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
