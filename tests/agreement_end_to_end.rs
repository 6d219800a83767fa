//! End-to-end integration tests for the agreement protocols.

use classical_baselines::{AmpSharedCoinAgreement, PrivateCoinAgreement};
use congest_net::topology;
use qle::algorithms::QuantumAgreement;
use qle::{Agreement, AgreementDecision, AlphaChoice};

fn protocols() -> Vec<Box<dyn Agreement>> {
    vec![
        Box::new(QuantumAgreement::with_alpha(AlphaChoice::Fixed(0.25))),
        Box::new(AmpSharedCoinAgreement::new()),
        Box::new(PrivateCoinAgreement::new()),
    ]
}

#[test]
fn every_protocol_reaches_valid_agreement_on_mixed_inputs() {
    let n = 72;
    let graph = topology::complete(n).unwrap();
    let inputs: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    for protocol in protocols() {
        let run = protocol.run(&graph, &inputs, 9).unwrap();
        assert!(run.succeeded(), "{} failed", protocol.name());
        assert!(run.outcome.decided_count() >= 1);
    }
}

#[test]
fn unanimous_inputs_force_the_unanimous_value() {
    let n = 48;
    let graph = topology::complete(n).unwrap();
    for value in [false, true] {
        let inputs = vec![value; n];
        for protocol in protocols() {
            let run = protocol.run(&graph, &inputs, 3).unwrap();
            assert!(run.succeeded(), "{} failed", protocol.name());
            assert_eq!(
                run.outcome.agreed_value(),
                Some(value),
                "{}",
                protocol.name()
            );
        }
    }
}

#[test]
fn decided_nodes_agree_and_validity_holds() {
    let n = 64;
    let graph = topology::complete(n).unwrap();
    let inputs: Vec<bool> = (0..n).map(|i| i < 5).collect(); // heavily skewed towards 0
    for protocol in protocols() {
        let run = protocol.run(&graph, &inputs, 13).unwrap();
        assert!(run.succeeded(), "{} failed", protocol.name());
        let value = run.outcome.agreed_value().unwrap();
        assert!(run.outcome.inputs().contains(&value));
        for decision in run.outcome.decisions() {
            if let AgreementDecision::Decided(v) = decision {
                assert_eq!(*v, value);
            }
        }
    }
}

#[test]
fn input_length_mismatches_are_rejected() {
    let graph = topology::complete(16).unwrap();
    for protocol in protocols() {
        assert!(
            protocol.run(&graph, &[true; 4], 0).is_err(),
            "{}",
            protocol.name()
        );
    }
}
