//! Problem definitions and outcome validation for implicit leader election
//! and implicit agreement (paper, Section 2.2).

use crate::error::Error;

/// The status component of a node's state in the leader-election problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeStatus {
    /// The initial, undecided state `⊥`.
    #[default]
    Undecided,
    /// The node declared itself the leader.
    Elected,
    /// The node declared itself a non-leader.
    NonElected,
}

/// The final statuses of all nodes after a leader-election protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderElectionOutcome {
    statuses: Vec<NodeStatus>,
}

impl LeaderElectionOutcome {
    /// Wraps a status vector.
    #[must_use]
    pub fn new(statuses: Vec<NodeStatus>) -> Self {
        LeaderElectionOutcome { statuses }
    }

    /// The per-node statuses.
    #[must_use]
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.statuses
    }

    /// The identifiers of all nodes in the `Elected` state.
    #[must_use]
    pub fn leaders(&self) -> Vec<usize> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == NodeStatus::Elected)
            .map(|(v, _)| v)
            .collect()
    }

    /// Whether this outcome solves (implicit) leader election: exactly one
    /// node is `Elected` and every other node is `NonElected` (paper,
    /// Section 2.2).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let elected = self
            .statuses
            .iter()
            .filter(|s| **s == NodeStatus::Elected)
            .count();
        let undecided = self
            .statuses
            .iter()
            .filter(|s| **s == NodeStatus::Undecided)
            .count();
        elected == 1 && undecided == 0
    }
}

/// The final state of a single node after an implicit-agreement protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AgreementDecision {
    /// The undecided state `⊥`.
    #[default]
    Undecided,
    /// The node decided on a value.
    Decided(bool),
}

/// The inputs and final decisions of all nodes after an agreement run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgreementOutcome {
    inputs: Vec<bool>,
    decisions: Vec<AgreementDecision>,
}

impl AgreementOutcome {
    /// Wraps the inputs and decisions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InputLengthMismatch`] if the two vectors have
    /// different lengths.
    pub fn new(inputs: Vec<bool>, decisions: Vec<AgreementDecision>) -> Result<Self, Error> {
        if inputs.len() != decisions.len() {
            return Err(Error::InputLengthMismatch {
                inputs: inputs.len(),
                nodes: decisions.len(),
            });
        }
        Ok(AgreementOutcome { inputs, decisions })
    }

    /// The per-node initial inputs.
    #[must_use]
    pub fn inputs(&self) -> &[bool] {
        &self.inputs
    }

    /// The per-node final decisions.
    #[must_use]
    pub fn decisions(&self) -> &[AgreementDecision] {
        &self.decisions
    }

    /// The value the decided nodes agreed on, if any node decided and all
    /// decided nodes agree.
    #[must_use]
    pub fn agreed_value(&self) -> Option<bool> {
        let mut value = None;
        for d in &self.decisions {
            if let AgreementDecision::Decided(b) = d {
                match value {
                    None => value = Some(*b),
                    Some(prev) if prev != *b => return None,
                    Some(_) => {}
                }
            }
        }
        value
    }

    /// Whether this outcome solves implicit agreement (paper, Section 2.2):
    /// at least one node decided, all decided nodes agree, and the agreed
    /// value is the input of some node (validity).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        match self.agreed_value() {
            None => false,
            Some(v) => self.inputs.contains(&v),
        }
    }

    /// Number of nodes that decided.
    #[must_use]
    pub fn decided_count(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d, AgreementDecision::Decided(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_leader_election() {
        let mut statuses = vec![NodeStatus::NonElected; 5];
        statuses[2] = NodeStatus::Elected;
        let outcome = LeaderElectionOutcome::new(statuses);
        assert!(outcome.is_valid());
        assert_eq!(outcome.leaders(), vec![2]);
    }

    #[test]
    fn invalid_leader_election_cases() {
        // No leader.
        assert!(!LeaderElectionOutcome::new(vec![NodeStatus::NonElected; 3]).is_valid());
        // Two leaders.
        let two = LeaderElectionOutcome::new(vec![
            NodeStatus::Elected,
            NodeStatus::Elected,
            NodeStatus::NonElected,
        ]);
        assert!(!two.is_valid());
        // Leftover undecided node.
        let undecided =
            LeaderElectionOutcome::new(vec![NodeStatus::Elected, NodeStatus::Undecided]);
        assert!(!undecided.is_valid());
    }

    #[test]
    fn valid_agreement() {
        let inputs = vec![true, false, true, false];
        let decisions = vec![
            AgreementDecision::Decided(true),
            AgreementDecision::Undecided,
            AgreementDecision::Decided(true),
            AgreementDecision::Undecided,
        ];
        let outcome = AgreementOutcome::new(inputs, decisions).unwrap();
        assert!(outcome.is_valid());
        assert_eq!(outcome.agreed_value(), Some(true));
        assert_eq!(outcome.decided_count(), 2);
    }

    #[test]
    fn invalid_agreement_cases() {
        // Nobody decided.
        let nobody =
            AgreementOutcome::new(vec![true, false], vec![AgreementDecision::Undecided; 2])
                .unwrap();
        assert!(!nobody.is_valid());
        // Conflicting decisions.
        let conflict = AgreementOutcome::new(
            vec![true, false],
            vec![
                AgreementDecision::Decided(true),
                AgreementDecision::Decided(false),
            ],
        )
        .unwrap();
        assert!(!conflict.is_valid());
        assert_eq!(conflict.agreed_value(), None);
        // Decided value is nobody's input (validity violation).
        let invalid_value = AgreementOutcome::new(
            vec![false, false],
            vec![
                AgreementDecision::Decided(true),
                AgreementDecision::Undecided,
            ],
        )
        .unwrap();
        assert!(!invalid_value.is_valid());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(matches!(
            AgreementOutcome::new(vec![true], vec![AgreementDecision::Undecided; 2]),
            Err(Error::InputLengthMismatch { .. })
        ));
    }
}
