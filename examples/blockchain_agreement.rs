//! A committee-agreement scenario in the style of blockchain sharding: a
//! fully-connected committee of validators must agree on whether to accept a
//! block, given each validator's local verdict, with as little communication
//! as possible. With a common random beacon (shared randomness), the paper's
//! `QuantumAgreement` solves this with Õ(n^(1/5)) expected messages versus
//! the classical Õ(n^(2/5)).
//!
//! Run with: `cargo run --release --example blockchain_agreement`

use classical_baselines::{AmpSharedCoinAgreement, PrivateCoinAgreement};
use congest_net::topology;
use qle::algorithms::QuantumAgreement;
use qle::{Agreement, AlphaChoice};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let validators = 512;
    let graph = topology::complete(validators)?;
    // 70% of the validators verified the block successfully.
    let verdicts: Vec<bool> = (0..validators).map(|i| i % 10 < 7).collect();

    println!("Committee agreement among {validators} validators (70% vote to accept)\n");
    let protocols: Vec<Box<dyn Agreement>> = vec![
        Box::new(QuantumAgreement::with_alpha(AlphaChoice::Fixed(0.25))),
        Box::new(AmpSharedCoinAgreement::new()),
        Box::new(PrivateCoinAgreement::new()),
    ];
    println!(
        "{:<40} {:>10} {:>9} {:>8} {:>8}",
        "protocol", "messages", "decided", "value", "valid"
    );
    for protocol in protocols {
        let run = protocol.run(&graph, &verdicts, 4242)?;
        println!(
            "{:<40} {:>10} {:>9} {:>8?} {:>8}",
            protocol.name(),
            run.cost.total_messages(),
            run.outcome.decided_count(),
            run.outcome.agreed_value(),
            run.succeeded(),
        );
    }
    println!("\nImplicit agreement only requires the decided validators to agree on a value");
    println!("that was somebody's input; the undecided ones can learn it on demand.");
    Ok(())
}
