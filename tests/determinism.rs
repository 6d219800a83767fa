//! Determinism regression tests for the CSR / zero-allocation round engine
//! and its sharded multi-threaded variant.
//!
//! Three layers of protection:
//!
//! 1. **Run-to-run determinism:** a fixed seed must produce byte-identical
//!    [`Metrics`] across repeated runs of the same protocol — the engine has
//!    no hidden iteration-order or allocation-dependent behaviour.
//! 2. **Golden values:** the exact counts for a few fixed configurations are
//!    pinned. These values were captured on the CSR engine in this PR; any
//!    future change to the round engine, the PRNG, or the protocols that
//!    shifts them is a behavioural change and must be made deliberately
//!    (update the constants in the same commit and say why).
//! 3. **Shard invariance:** the sharded round engine must reproduce the
//!    sequential golden values byte-for-byte at every shard count — the
//!    deterministic barrier merge (shard outboxes concatenated in node
//!    order, counters absorbed in shard order) is what this pins.

use classical_baselines::GhsLe;
use congest_net::programs::Flood;
use congest_net::{topology, FaultPlan, Metrics, NetworkConfig, SyncRuntime, TraceEvent};
use qle::algorithms::{QuantumGeneralLe, QuantumLe, QuantumQwLe};
use qle::star::quantum_star_count;
use qle::{AlphaChoice, KChoice, LeaderElection, RunOptions};
use quantum_sim::{Complex, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shard counts every golden configuration is checked at; 1 is the
/// sequential engine, the rest exercise the barrier merge (8 > the golden
/// graphs' natural balance points, so uneven shards are covered too).
const SHARD_MATRIX: [usize; 4] = [1, 2, 4, 8];

fn flood_metrics_sharded(seed: u64, shards: usize) -> (u64, Metrics) {
    let graph = topology::hypercube(6).unwrap();
    let mut runtime = SyncRuntime::new(
        graph,
        NetworkConfig::with_seed(seed).shards(shards),
        |v, _| Flood::new(v == 0),
    );
    let rounds = runtime.run_until_halt(10_000).unwrap();
    (rounds, runtime.metrics())
}

fn flood_metrics(seed: u64) -> (u64, Metrics) {
    flood_metrics_sharded(seed, 1)
}

#[test]
fn flood_is_deterministic_and_matches_golden() {
    let (rounds_a, metrics_a) = flood_metrics(9);
    let (rounds_b, metrics_b) = flood_metrics(9);
    assert_eq!(rounds_a, rounds_b);
    assert_eq!(
        metrics_a, metrics_b,
        "flood metrics differ between identical runs"
    );
    // Golden: flood on Q6 (64 nodes, 192 edges) from node 0.
    assert_eq!(rounds_a, 7);
    assert_eq!(metrics_a.classical_messages, 384);
    assert_eq!(metrics_a.quantum_messages, 0);
    assert_eq!(metrics_a.rounds, 7);
    assert_eq!(metrics_a.total_bits, 384);
    assert_eq!(metrics_a.peak_messages_per_round, 120);
}

#[test]
fn quantum_le_is_deterministic_and_matches_golden() {
    let graph = topology::complete(64).unwrap();
    let protocol = QuantumLe::with_parameters(KChoice::Optimal, AlphaChoice::Fixed(0.25));
    let a = protocol.run(&graph, 42).unwrap();
    let b = protocol.run(&graph, 42).unwrap();
    assert_eq!(
        a.cost.metrics, b.cost.metrics,
        "QuantumLE metrics differ between identical runs"
    );
    assert_eq!(a.cost.effective_rounds, b.cost.effective_rounds);
    assert_eq!(a.outcome, b.outcome);
    // Golden: QuantumLE (k optimal, α = 1/4) on K_64, seed 42.
    assert!(a.succeeded());
    assert_eq!(a.cost.metrics.classical_messages, 188);
    assert_eq!(a.cost.metrics.quantum_messages, 3760);
    assert_eq!(a.cost.total_messages(), 3948);
    assert_eq!(a.cost.metrics.rounds, 3761);
    assert_eq!(a.cost.effective_rounds, 81);
    assert_eq!(a.cost.metrics.total_bits, 136_112);
}

/// One QWLE `benchmark_profile` run, as the golden below pins it: quantum
/// messages, network rounds, effective rounds and the elected set.
fn qwle_golden_row(graph: &congest_net::Graph, seed: u64) -> (u64, u64, u64, Vec<usize>) {
    let run = QuantumQwLe::benchmark_profile(graph.node_count())
        .run(graph, seed)
        .unwrap();
    (
        run.cost.metrics.quantum_messages,
        run.cost.metrics.rounds,
        run.cost.effective_rounds,
        run.outcome.leaders(),
    )
}

#[test]
fn qwle_is_deterministic_and_matches_golden() {
    // Golden: QuantumQWLE's benchmark profile (α = 1/4, activation 1/4,
    // ⌈6 ln n⌉ iterations), seeds 1-4. The profile elects two or three
    // leaders on some seeds; those outcomes are pinned too, because the
    // elected set is what a changed random draw moves first.
    let clique_of_cliques = topology::clique_of_cliques(6).unwrap();
    assert!(!clique_of_cliques.is_implicit());
    let first = qwle_golden_row(&clique_of_cliques, 1);
    assert_eq!(
        first,
        qwle_golden_row(&clique_of_cliques, 1),
        "QWLE differs between identical runs"
    );
    let rows: Vec<_> = (1..=4)
        .map(|seed| qwle_golden_row(&clique_of_cliques, seed))
        .collect();
    assert_eq!(
        rows,
        vec![
            (237_634, 237_044, 38_421, vec![6]),
            (297_359, 296_732, 58_122, vec![4]),
            (282_070, 281_475, 69_107, vec![23]),
            (280_465, 279_795, 49_815, vec![6, 9]),
        ],
        "QWLE diverged on clique_of_cliques(6)"
    );

    let shared_hub = topology::shared_hub_pair(12).unwrap();
    assert_eq!(shared_hub.node_count(), 23);
    let rows: Vec<_> = (1..=4)
        .map(|seed| qwle_golden_row(&shared_hub, seed))
        .collect();
    assert_eq!(
        rows,
        vec![
            (127_459, 127_114, 37_423, vec![6]),
            (143_747, 143_402, 39_270, vec![4]),
            (108_789, 108_490, 33_886, vec![1]),
            (107_118, 106_797, 28_357, vec![6, 16]),
        ],
        "QWLE diverged on shared_hub_pair(12)"
    );

    // The complete graph clamps k to the degree (a degenerate walk); its
    // implicit backend and CSR twin must agree run for run.
    let complete = topology::complete(24).unwrap();
    assert!(complete.is_implicit());
    let complete_csr = complete.materialize();
    let rows: Vec<_> = (1..=4)
        .map(|seed| qwle_golden_row(&complete, seed))
        .collect();
    let csr_rows: Vec<_> = (1..=4)
        .map(|seed| qwle_golden_row(&complete_csr, seed))
        .collect();
    assert_eq!(rows, csr_rows, "QWLE diverged between graph backends");
    assert_eq!(
        rows,
        vec![
            (179_087, 178_671, 54_868, vec![6, 19]),
            (249_747, 249_201, 71_047, vec![4, 11, 13]),
            (224_072, 223_578, 73_190, vec![13, 23]),
            (212_480, 211_960, 53_641, vec![6]),
        ],
        "QWLE diverged on complete(24)"
    );
}

/// The number of dropped messages in `trace` and an FNV-1a digest of their
/// `(round, from, to)` words, in trace order.
fn drop_digest(trace: &[TraceEvent]) -> (usize, u64) {
    let mut drops = 0;
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for event in trace {
        if let TraceEvent::MessageDropped {
            round, from, to, ..
        } = *event
        {
            drops += 1;
            for word in [round, from as u64, to as u64] {
                digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (drops, digest)
}

#[test]
fn qwle_message_edges_are_pinned_under_drops() {
    // QWLE's driver reads no inbox, so 1% drops leave its outcome and
    // message counts as they are fault-free and show only in the trace.
    // The dropped messages' endpoints pin the edge every probe, reply,
    // inform, Setup and Update message took, which the counts above cannot
    // see (informing a different marked referee costs the same message).
    let graph = topology::clique_of_cliques(6).unwrap();
    let opts = RunOptions {
        fault_plan: Some(FaultPlan::new(3).drop_probability(0.01)),
        trace: true,
        ..RunOptions::default()
    };
    let traced = QuantumQwLe::benchmark_profile(graph.node_count())
        .run_with(&graph, 1, &opts)
        .unwrap();
    assert_eq!(traced.run.cost.metrics.quantum_messages, 237_634);
    assert_eq!(traced.run.outcome.leaders(), vec![6]);
    assert_eq!(drop_digest(&traced.trace), (2388, 0x4a6c_f7cb_a7e6_ea70));
}

#[test]
fn ghs_is_deterministic_and_matches_golden() {
    let graph = topology::erdos_renyi_connected(48, 0.15, 7).unwrap();
    let protocol = GhsLe::new();
    let a = protocol.run(&graph, 5).unwrap();
    let b = protocol.run(&graph, 5).unwrap();
    assert_eq!(
        a.cost.metrics, b.cost.metrics,
        "GHS metrics differ between identical runs"
    );
    assert_eq!(a.outcome, b.outcome);
    // Golden: GHS tree merging on G(48, 0.15) built with topology seed 7,
    // protocol seed 5.
    assert!(a.succeeded());
    assert_eq!(a.cost.total_messages(), 2583);
    assert_eq!(a.cost.metrics.rounds, 78);
    assert_eq!(a.cost.metrics.total_bits, 102_072);
    assert_eq!(a.cost.effective_rounds, 313);
}

/// One `QuantumGeneralLe::new()` run, as the golden below pins it: classical
/// and quantum messages, network rounds, total bits, effective rounds and
/// the elected set.
fn general_le_golden_row(
    graph: &congest_net::Graph,
    seed: u64,
) -> (u64, u64, u64, u64, u64, Vec<usize>) {
    let run = QuantumGeneralLe::new().run(graph, seed).unwrap();
    (
        run.cost.metrics.classical_messages,
        run.cost.metrics.quantum_messages,
        run.cost.metrics.rounds,
        run.cost.metrics.total_bits,
        run.cost.effective_rounds,
        run.outcome.leaders(),
    )
}

#[test]
fn quantum_general_le_is_deterministic_and_matches_golden() {
    // Golden: QuantumGeneralLE (α = 1/n³) with protocol seed 5, on the GHS
    // golden's G(48, 0.15) and on the implicit 6 x 6 torus. Step 1 is the
    // per-node Grover search; every later phase is the tree-merging
    // bookkeeping GHS shares, so these rows pin both.
    let er = topology::erdos_renyi_connected(48, 0.15, 7).unwrap();
    let first = general_le_golden_row(&er, 5);
    assert_eq!(
        first,
        general_le_golden_row(&er, 5),
        "QuantumGeneralLE differs between identical runs"
    );
    assert_eq!(first, (1096, 76_976, 77_072, 2_610_352, 3131, vec![0]));
    let torus = topology::torus(6, 6).unwrap();
    assert!(torus.is_implicit());
    assert_eq!(
        general_le_golden_row(&torus, 5),
        (816, 27_648, 27_728, 964_608, 1029, vec![0])
    );
}

#[test]
fn adaptive_hybrid_scheduling_is_free_and_pinned() {
    // With shards > 1, sparse rounds (fewer deliveries than the adaptive
    // threshold) run sequentially on the calling thread. Flood on Q6 mixes
    // both regimes: the early/late wavefront rounds are sparse, the peak
    // round (120 messages) is above the 96-message threshold. The switch
    // must be invisible in every observable (the golden values) while
    // genuinely exercising both paths.
    let graph = topology::hypercube(6).unwrap();
    let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(9).shards(4), |v, _| {
        Flood::new(v == 0)
    });
    let rounds = runtime.run_until_halt(10_000).unwrap();
    assert_eq!(rounds, 7);
    assert_eq!(runtime.metrics().classical_messages, 384);
    assert_eq!(runtime.metrics().peak_messages_per_round, 120);
    let adaptive = runtime.adaptive_sequential_rounds();
    assert!(
        adaptive >= 1 && adaptive < rounds,
        "expected a mix of sequential and sharded rounds, got {adaptive}/{rounds} sequential"
    );
}

#[test]
fn flood_golden_is_invariant_across_shard_counts() {
    // The same golden values as `flood_is_deterministic_and_matches_golden`,
    // reproduced byte-for-byte by every shard count in the matrix.
    for shards in SHARD_MATRIX {
        let (rounds, metrics) = flood_metrics_sharded(9, shards);
        assert_eq!(rounds, 7, "rounds diverged at {shards} shards");
        assert_eq!(
            metrics.classical_messages, 384,
            "messages diverged at {shards} shards"
        );
        assert_eq!(metrics.rounds, 7);
        assert_eq!(metrics.total_bits, 384);
        assert_eq!(
            metrics.peak_messages_per_round, 120,
            "peak diverged at {shards} shards"
        );
    }
}

#[test]
fn flood_and_ghs_are_byte_identical_across_graph_backends() {
    // The structured topology constructors now return *implicit* graphs
    // (closed-form adjacency, O(1) memory); `materialize()` produces the CSR
    // twin with the identical neighbour order, port numbering, and reverse
    // ports. A fault-free run must be byte-identical between the two
    // backends — same metrics, same per-round history, same RNG streams —
    // at every shard count. (The golden tests above already pin the
    // implicit backend against values captured on the CSR engine; this test
    // makes the cross-backend claim explicit and covers the history too.)
    let implicit = topology::hypercube(6).unwrap();
    assert!(implicit.is_implicit());
    let csr = implicit.materialize();
    assert!(!csr.is_implicit());
    for shards in [1usize, 4] {
        let run = |graph: &congest_net::Graph| {
            let mut runtime = SyncRuntime::new(
                graph.clone(),
                NetworkConfig::with_seed(9)
                    .shards(shards)
                    .track_history(true),
                |v, _| Flood::new(v == 0),
            );
            let rounds = runtime.run_until_halt(10_000).unwrap();
            let history = runtime.network().round_history().to_vec();
            (rounds, runtime.metrics(), history)
        };
        let (rounds, metrics, history) = run(&implicit);
        assert_eq!(
            (rounds, metrics, history.clone()),
            run(&csr),
            "flood diverged between backends at {shards} shards"
        );
        // And both reproduce the sequential golden.
        assert_eq!((rounds, metrics.classical_messages), (7, 384));
        assert_eq!(history.len(), 7);
    }
    // GHS (driver-based, message-heavy) on the smallest torus: the implicit
    // and materialized runs must agree in full.
    let torus = topology::torus(4, 4).unwrap();
    assert!(torus.is_implicit());
    let torus_csr = torus.materialize();
    let protocol = GhsLe::new();
    let a = protocol.run(&torus, 5).unwrap();
    let b = protocol.run(&torus_csr, 5).unwrap();
    assert_eq!(
        a.cost.metrics, b.cost.metrics,
        "GHS diverged between backends"
    );
    assert_eq!(a.outcome, b.outcome);
    assert!(a.succeeded());
}

#[test]
fn golden_runs_survive_forced_sharding_env() {
    // CI runs the whole suite with CONGEST_SHARDS=4; this test makes the
    // invariant explicit in-process: with the environment override forcing
    // sharded execution for every auto-configured network, the QuantumLE and
    // GHS golden runs (which drive the Network directly) and the Flood golden
    // run (which goes through the sharded SyncRuntime) must be unchanged.
    //
    // Note on safety of the override: every test in this binary asserts
    // metrics that are shard-count-invariant by construction, so a
    // concurrently running test observing the variable still passes.
    // Environment hygiene: the prior value is saved and *restored* (not
    // removed — in the CI shards matrix this binary runs with
    // CONGEST_SHARDS=4 already set, and dropping it would silently void the
    // forced-sharding coverage for every test that starts after this one),
    // the fallible runs execute under catch_unwind so a regression panic
    // cannot leak the override, and concurrent tests are safe on both
    // counts: Rust's std synchronises env access between threads, and any
    // test observing the temporary value still passes because every
    // assertion in this binary is shard-count-invariant by construction.
    let saved = std::env::var("CONGEST_SHARDS").ok();
    std::env::set_var("CONGEST_SHARDS", "8");
    let results = std::panic::catch_unwind(|| {
        let flood = flood_metrics_sharded(9, 0); // 0 = auto: resolves to the env override
        let quantum = QuantumLe::with_parameters(KChoice::Optimal, AlphaChoice::Fixed(0.25))
            .run(&topology::complete(64).unwrap(), 42)
            .unwrap();
        let ghs = GhsLe::new()
            .run(&topology::erdos_renyi_connected(48, 0.15, 7).unwrap(), 5)
            .unwrap();
        (flood, quantum, ghs)
    });
    match saved {
        Some(value) => std::env::set_var("CONGEST_SHARDS", value),
        None => std::env::remove_var("CONGEST_SHARDS"),
    }
    let (flood, quantum, ghs) = results.unwrap_or_else(|p| std::panic::resume_unwind(p));
    assert_eq!(flood.0, 7);
    assert_eq!(flood.1.classical_messages, 384);
    assert_eq!(quantum.cost.total_messages(), 3948);
    assert_eq!(quantum.cost.metrics.rounds, 3761);
    assert_eq!(ghs.cost.total_messages(), 2583);
    assert_eq!(ghs.cost.metrics.rounds, 78);
}

/// A fixed non-uniform 32-state vector for the measurement-stream pins: the
/// values are arbitrary but deterministic, so the golden outcome sequences
/// below depend only on the CDF build and the shim PRNG streams.
fn golden_measurement_state() -> StateVector {
    let amplitudes: Vec<Complex> = (0..32)
        .map(|k: i64| Complex::new((k * k % 13 - 6) as f64, (k % 5) as f64 / 2.0))
        .collect();
    StateVector::from_amplitudes(amplitudes).expect("non-zero golden state")
}

#[test]
fn measurement_streams_are_pinned() {
    // The CDF accumulation order (strictly ascending basis index) is an
    // invariant of `MeasurementSampler::from_probabilities`, which
    // `StateVector::sampler` builds through (see the quantum-sim crate
    // docs). Any change to these streams means the CDF build is no longer
    // bit-stable (or the shim PRNG changed) and must be deliberate.
    let state = golden_measurement_state();
    let mut rng = StdRng::seed_from_u64(7);
    let singles: Vec<usize> = (0..12).map(|_| state.measure(&mut rng)).collect();
    assert_eq!(
        singles,
        vec![0, 5, 22, 13, 31, 14, 22, 9, 31, 1, 3, 5],
        "single-shot measure stream diverged"
    );
    let mut rng = StdRng::seed_from_u64(11);
    assert_eq!(
        state.sample_many(12, &mut rng),
        vec![27, 26, 31, 19, 8, 21, 4, 0, 25, 12, 21, 12],
        "cached sample_many stream diverged"
    );
    // The cached-CDF binary search and the linear scan must stay outcome-
    // identical on a shared RNG stream (bit-stability of the CDF build).
    let sampler = state.sampler();
    let mut rng_scan = StdRng::seed_from_u64(13);
    let mut rng_cdf = StdRng::seed_from_u64(13);
    for _ in 0..64 {
        assert_eq!(state.measure(&mut rng_scan), sampler.sample(&mut rng_cdf));
    }
}

#[test]
fn star_count_stream_is_pinned() {
    // E8's quantum counting on a star is the one protocol path that samples
    // through `MeasurementSampler` (via `ApproxCountSpec::run`). 256 leaves,
    // every third one marked (86 in all); ε = 0.3 keeps the estimates
    // seed-dependent, so the pin covers the sampler's outcome stream and not
    // only the message cost.
    let inputs: Vec<bool> = (0..256).map(|i| i % 3 == 0).collect();
    let runs: Vec<_> = (1..=8)
        .map(|seed| quantum_star_count(&inputs, 0.3, 0.25, seed).unwrap())
        .collect();
    let estimates: Vec<u64> = runs.iter().map(|r| r.estimate).collect();
    assert_eq!(
        estimates,
        vec![82, 256, 82, 128, 96, 96, 82, 82],
        "star-count estimate stream diverged"
    );
    for r in &runs {
        assert_eq!((r.messages, r.rounds), (672, 672));
    }
}

#[test]
fn distinct_seeds_change_randomized_runs() {
    // Sanity check that the determinism above is not vacuous (i.e. the
    // protocols actually consume randomness).
    let graph = topology::complete(64).unwrap();
    let protocol = QuantumLe::with_parameters(KChoice::Optimal, AlphaChoice::Fixed(0.25));
    let a = protocol.run(&graph, 1).unwrap();
    let b = protocol.run(&graph, 2).unwrap();
    assert_ne!(
        (a.cost.total_messages(), a.cost.metrics.total_bits),
        (b.cost.total_messages(), b.cost.metrics.total_bits),
        "different seeds produced identical traffic — suspicious"
    );
}
