//! Property-based tests (proptest) over the workspace's core invariants.

use std::collections::HashSet;

use congest_net::programs::Flood;
use congest_net::{
    topology, Error, Graph, Network, NetworkConfig, NodeProgram, Outbox, Payload, Port,
    RoundContext, SyncRuntime,
};
use proptest::prelude::*;
use qle::algorithms::{QuantumGeneralLe, QuantumLe};
use qle::candidate::{sample_candidates_seeded, satisfies_fact_c2};
use qle::{AlphaChoice, KChoice, LeaderElection};
use quantum_sim::grover::{statevector_success_probability, success_probability};
use quantum_sim::johnson::JohnsonGraph;
use quantum_sim::{Complex, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random normalised amplitude vector — the input for the properties that
/// check the state-vector kernels against naive references.
fn random_amplitudes(dim: usize, seed: u64) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let amps: Vec<Complex> = (0..dim)
            .map(|_| Complex::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0))
            .collect();
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        if norm > 1e-6 {
            return amps.into_iter().map(|a| a.scale(1.0 / norm)).collect();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated topology is a valid CONGEST network: connected, with
    /// symmetric ports and consistent degree/edge counts.
    #[test]
    fn topologies_are_valid_networks(n in 8usize..48, seed in 0u64..500) {
        let graphs: Vec<Graph> = vec![
            topology::complete(n).unwrap(),
            topology::cycle(n.max(3)).unwrap(),
            topology::star(n).unwrap(),
            topology::erdos_renyi_connected(n, 0.2, seed).unwrap(),
            topology::random_regular(if n % 2 == 0 { n } else { n + 1 }, 4, seed).unwrap(),
        ];
        for g in graphs {
            prop_assert!(g.is_connected());
            let degree_sum: usize = (0..g.node_count()).map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
            for v in 0..g.node_count() {
                for (port, u) in g.neighbors(v).enumerate() {
                    prop_assert_eq!(g.neighbor(v, port), u);
                    prop_assert!(g.are_adjacent(u, v));
                }
            }
        }
    }

    /// The analytic Grover success probability matches the state-vector
    /// simulator for every small instance.
    #[test]
    fn grover_formula_matches_statevector(dim in 2usize..40, marked_count in 0usize..6, iters in 0u64..8) {
        let marked: Vec<usize> = (0..marked_count.min(dim)).collect();
        let exact = statevector_success_probability(dim, &marked, iters).unwrap();
        let analytic = success_probability(marked.len() as f64 / dim as f64, iters);
        prop_assert!((exact - analytic).abs() < 1e-8);
    }

    /// The phase-oracle and diffusion kernels match a naive reference to
    /// 1e-12 on random states.
    #[test]
    fn oracle_and_diffusion_match_naive_reference(
        dim in 1usize..130,
        seed in 0u64..1000,
        modulus in 1usize..7,
    ) {
        let amps = random_amplitudes(dim, seed);
        let mut state = StateVector::from_amplitudes(amps.clone()).unwrap();
        let marked = |x: usize| x.is_multiple_of(modulus);
        state.apply_phase_oracle(marked);
        let mut reference = amps;
        for (x, a) in reference.iter_mut().enumerate() {
            if marked(x) {
                *a = -*a;
            }
        }
        for (x, want) in reference.iter().enumerate() {
            prop_assert!(state.amplitude(x).approx_eq(*want, 1e-12));
        }
        state.apply_diffusion();
        let mean = reference
            .iter()
            .fold(Complex::ZERO, |acc, a| acc + *a)
            .scale(1.0 / dim as f64);
        for (x, a) in reference.iter().enumerate() {
            let want = mean.scale(2.0) - *a;
            prop_assert!(state.amplitude(x).approx_eq(want, 1e-12));
        }
    }

    /// The reflection, inner-product, and success/norm kernels match naive
    /// references to 1e-12 on random state pairs.
    #[test]
    fn reflection_and_inner_product_match_naive_reference(
        dim in 1usize..130,
        seed in 0u64..1000,
        modulus in 1usize..7,
    ) {
        let amps = random_amplitudes(dim, seed);
        let axis_amps = random_amplitudes(dim, seed ^ 0xA5A5_A5A5);
        let state = StateVector::from_amplitudes(amps.clone()).unwrap();
        let axis = StateVector::from_amplitudes(axis_amps.clone()).unwrap();

        // Inner product ⟨axis|state⟩ against the sequential scalar sum.
        let overlap = axis.inner_product(&state).unwrap();
        let mut naive_overlap = Complex::ZERO;
        for (a, s) in axis_amps.iter().zip(&amps) {
            naive_overlap += a.conj() * *s;
        }
        prop_assert!(overlap.approx_eq(naive_overlap, 1e-12));

        // Reflection 2|a⟩⟨a| − I against the naive update.
        let mut reflected = state.clone();
        reflected.apply_reflection_about(&axis).unwrap();
        for (x, (a, s)) in axis_amps.iter().zip(&amps).enumerate() {
            let want = (*a * naive_overlap).scale(2.0) - *s;
            prop_assert!(reflected.amplitude(x).approx_eq(want, 1e-12));
        }

        // Fused success/norm against naive filtered sums.
        let marked = |x: usize| x.is_multiple_of(modulus);
        let (success, norm) = state.success_and_norm(marked);
        let naive_success: f64 = amps
            .iter()
            .enumerate()
            .filter(|(x, _)| marked(*x))
            .map(|(_, a)| a.norm_sqr())
            .sum();
        let naive_norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        prop_assert!((success - naive_success).abs() < 1e-12);
        prop_assert!((norm - naive_norm).abs() < 1e-12);
    }

    /// Johnson graph neighbours are always valid vertices at Hamming
    /// distance exactly one (in subset terms).
    #[test]
    fn johnson_neighbors_are_adjacent(n in 4usize..14, k in 1usize..5, seed in 0u64..1000) {
        let k = k.min(n - 1);
        let johnson = JohnsonGraph::new(n, k).unwrap();
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let subset = johnson.random_subset(&mut rng);
        let (next, _, _) = johnson.random_neighbor(&subset, &mut rng).unwrap();
        prop_assert!(johnson.are_adjacent(&subset, &next));
        prop_assert_eq!(next.len(), k);
    }

    /// Message metering is consistent: total messages equal classical plus
    /// quantum, and every delivered message was sent.
    #[test]
    fn network_metrics_are_consistent(n in 4usize..32, sends in 1usize..40, seed in 0u64..100) {
        let graph = topology::complete(n).unwrap();
        let mut net: Network<u64> = Network::new(graph, NetworkConfig::with_seed(seed));
        let mut sent = 0;
        for i in 0..sends {
            let from = i % n;
            let to = (i + 1 + i / n) % n;
            if from != to && net.send(from, to, i as u64).is_ok() {
                sent += 1;
            }
            net.advance_round();
        }
        let metrics = net.metrics();
        prop_assert_eq!(metrics.classical_messages, sent);
        prop_assert_eq!(metrics.total_messages(), metrics.classical_messages + metrics.quantum_messages);
        prop_assert!(metrics.rounds >= sends as u64);
    }

    /// Candidate sampling satisfies Fact C.2 for (essentially) every seed.
    #[test]
    fn candidate_sampling_respects_fact_c2(seed in 0u64..2000) {
        let candidates = sample_candidates_seeded(512, seed);
        prop_assert!(satisfies_fact_c2(512, &candidates));
    }

    /// `port_to` on the CSR graph agrees with a naive linear scan of the
    /// adjacency, and the O(1) reverse-port table agrees with `port_to` and
    /// is an involution, on random graphs.
    #[test]
    fn csr_port_lookup_matches_naive_scan(n in 4usize..40, seed in 0u64..500) {
        let g = topology::erdos_renyi_connected(n, 0.25, seed).unwrap();
        for v in 0..g.node_count() {
            // Naive scan over v's neighbour list.
            let scan_port = |target: usize| -> Option<usize> {
                g.neighbors(v).position(|u| u == target)
            };
            for u in 0..g.node_count() {
                prop_assert_eq!(g.port_to(v, u), scan_port(u));
            }
            for p in 0..g.degree(v) {
                let u = g.neighbor(v, p);
                let rp = g.reverse_port_at(v, p);
                prop_assert_eq!(g.port_to(u, v), Some(rp));
                prop_assert_eq!(g.neighbor(u, rp), v);
                prop_assert_eq!(g.reverse_port_at(u, rp), p);
            }
        }
        // Out-of-range nodes never resolve to a port.
        prop_assert_eq!(g.port_to(g.node_count(), 0), None);
        prop_assert_eq!(g.port_to(0, g.node_count()), None);
    }

    /// The sharded round engine reproduces the sequential engine
    /// byte-for-byte — metrics, round count, and per-round history — on
    /// random graphs, random seeds, and random shard counts.
    #[test]
    fn sharded_flood_matches_sequential_on_random_graphs(
        n in 8usize..64,
        seed in 0u64..500,
        shards in 2usize..9,
    ) {
        let graph = topology::erdos_renyi_connected(n, 0.2, seed).unwrap();
        let run = |k: usize| {
            let mut runtime = SyncRuntime::new(
                graph.clone(),
                NetworkConfig::with_seed(seed).shards(k).track_history(true),
                |v, _| Flood::new(v == 0),
            );
            let rounds = runtime.run_until_halt(10_000).unwrap();
            let history = runtime.network().round_history().to_vec();
            (rounds, runtime.metrics(), history)
        };
        prop_assert_eq!(run(shards), run(1));
    }

    /// Every implicit structured family is indistinguishable from its
    /// materialized CSR twin through the public `Graph` API: same neighbour
    /// order, same reverse ports, reverse ports that lead straight back, and
    /// identical shard tilings — the contract that makes runs byte-identical
    /// across backends. Sizes include the odd and degenerate ends (K_2, the
    /// two-node star, C_3, Q_1, the smallest 3×3 torus).
    #[test]
    fn implicit_backends_match_materialized_csr(
        n in 2usize..40,
        d in 1u32..7,
        shards in 1usize..9,
    ) {
        let graphs: Vec<Graph> = vec![
            topology::complete(n).unwrap(),
            topology::star(n).unwrap(),
            topology::cycle(n.max(3)).unwrap(),
            topology::hypercube(d).unwrap(),
            topology::torus(n.clamp(3, 9), (n / 2).clamp(3, 9)).unwrap(),
        ];
        for g in graphs {
            prop_assert!(g.is_implicit());
            let csr = g.materialize();
            prop_assert!(!csr.is_implicit());
            let nodes = g.node_count();
            prop_assert_eq!(nodes, csr.node_count());
            prop_assert_eq!(g.edge_count(), csr.edge_count());
            for v in 0..nodes {
                prop_assert_eq!(g.degree(v), csr.degree(v));
                prop_assert_eq!(g.neighbors(v).to_vec(), csr.neighbors(v).to_vec());
                for p in 0..g.degree(v) {
                    let u = g.neighbor(v, p);
                    prop_assert_eq!(u, csr.neighbor(v, p));
                    let rp = g.reverse_port_at(v, p);
                    prop_assert_eq!(rp, csr.reverse_port_at(v, p));
                    prop_assert_eq!(g.port_to(u, v), Some(rp));
                    // Round-trip: the reverse port leads straight back.
                    prop_assert_eq!(g.neighbor(u, rp), v);
                    prop_assert_eq!(g.reverse_port_at(u, rp), p);
                }
            }
            prop_assert_eq!(g.shard_boundaries(shards), csr.shard_boundaries(shards));
        }
    }

    /// Shard boundaries always tile the node and edge ranges, for random
    /// graphs and any requested shard count.
    #[test]
    fn shard_boundaries_tile_random_graphs(n in 2usize..64, seed in 0u64..200, shards in 1usize..80) {
        let g = topology::erdos_renyi_connected(n, 0.15, seed).unwrap();
        let bounds = g.shard_boundaries(shards);
        prop_assert_eq!(bounds[0], 0);
        prop_assert_eq!(*bounds.last().unwrap(), n);
        prop_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(bounds.len() - 1, shards.clamp(1, n));
    }
}

/// The model test's payload: an id, and a flag that makes the message
/// exceed every CONGEST bit budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Probe {
    id: u32,
    huge: bool,
}

impl Payload for Probe {
    fn size_bits(&self) -> usize {
        if self.huge {
            1 << 20
        } else {
            32
        }
    }
}

/// The CONGEST rules written the obvious way: the directed edges used this
/// round as a set of `(sender, port)` pairs, and the sends of this round in
/// order as `(sender, arrival port, recipient, payload)`.
struct ReferenceNetwork<'g> {
    graph: &'g Graph,
    budget_bits: usize,
    used: HashSet<(usize, Port)>,
    pending: Vec<(usize, Port, usize, Probe)>,
    messages: u64,
    rounds: u64,
}

impl ReferenceNetwork<'_> {
    fn send_through_port(&mut self, from: usize, port: Port, msg: Probe) -> Result<(), Error> {
        let n = self.graph.node_count();
        if from >= n {
            return Err(Error::NodeOutOfRange { node: from, n });
        }
        let degree = self.graph.degree(from);
        if port >= degree {
            return Err(Error::PortOutOfRange {
                node: from,
                port,
                degree,
            });
        }
        if msg.size_bits() > self.budget_bits {
            return Err(Error::MessageTooLarge {
                bits: msg.size_bits(),
                budget: self.budget_bits,
            });
        }
        let to = self.graph.neighbor(from, port);
        if !self.used.insert((from, port)) {
            return Err(Error::EdgeBusy { from, to });
        }
        let arrival = self.graph.port_to(to, from).unwrap();
        self.pending.push((from, arrival, to, msg));
        self.messages += 1;
        Ok(())
    }

    fn send(&mut self, from: usize, to: usize, msg: Probe) -> Result<(), Error> {
        let n = self.graph.node_count();
        for node in [from, to] {
            if node >= n {
                return Err(Error::NodeOutOfRange { node, n });
            }
        }
        match self.graph.neighbors(from).position(|u| u == to) {
            Some(port) => self.send_through_port(from, port, msg),
            None => Err(Error::NotAdjacent { from, to }),
        }
    }

    /// The inboxes of the round that ends now, indexed by node.
    fn advance_round(&mut self) -> Vec<Vec<(usize, Port, Probe)>> {
        let mut inboxes = vec![Vec::new(); self.graph.node_count()];
        for (from, arrival, to, msg) in self.pending.drain(..) {
            inboxes[to].push((from, arrival, msg));
        }
        self.used.clear();
        self.rounds += 1;
        inboxes
    }
}

/// Drives `graph`'s [`Network`] and a [`ReferenceNetwork`] through the same
/// random sequence of sends, round advances and skips, and
/// asserts that every result, every delivered inbox and the metrics agree.
/// Rounds vary from idle to 150 sends, most of them from one hot node and
/// concentrated on its low ports. So a high-degree sender reuses ports in
/// its port set, reuses ports stamped in earlier rounds, and in the largest
/// rounds passes through every doubling of its set and its conversion to a
/// page, with ports repeated on both sides of each step.
fn check_congest_against_reference(graph: &Graph, seed: u64) {
    let n = graph.node_count();
    let mut net: Network<Probe> = Network::new(graph.clone(), NetworkConfig::with_seed(seed));
    let mut reference = ReferenceNetwork {
        graph,
        budget_bits: net.congest_budget_bits(),
        used: HashSet::new(),
        pending: Vec::new(),
        messages: 0,
        rounds: 0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let hot = [0, rng.gen_range(0..n), rng.gen_range(0..n)];
    let mut id = 0u32;
    for _ in 0..40 {
        let round_hot = hot[rng.gen_range(0..hot.len())];
        let ops = [0, 4, 16, 40, 150][rng.gen_range(0..5usize)];
        for _ in 0..ops {
            id += 1;
            let msg = Probe {
                id,
                huge: rng.gen_bool(0.03),
            };
            let from = match rng.gen_range(0..10u32) {
                0..=5 => round_hot,
                6..=7 => hot[rng.gen_range(0..hot.len())],
                8 => rng.gen_range(0..n),
                _ => rng.gen_range(0..n + 2),
            };
            let degree = graph.degree(from.min(n - 1));
            let port = match rng.gen_range(0..20u32) {
                0 => degree + rng.gen_range(0..3usize),
                1..=10 => rng.gen_range(0..degree.min(24)),
                _ => rng.gen_range(0..degree),
            };
            let (got, want) = match rng.gen_range(0..20u32) {
                0..=9 => {
                    let to = match (port < degree).then(|| graph.neighbor(from.min(n - 1), port)) {
                        Some(u) if rng.gen_bool(0.9) => u,
                        _ => rng.gen_range(0..n + 1),
                    };
                    (net.send(from, to, msg), reference.send(from, to, msg))
                }
                _ => (
                    net.send_through_port(from, port, msg),
                    reference.send_through_port(from, port, msg),
                ),
            };
            assert_eq!(got, want, "seed {seed}: send #{id} from {from}");
        }
        if reference.pending.is_empty() && rng.gen_bool(0.3) {
            let skip = rng.gen_range(1..4);
            net.skip_rounds(skip);
            reference.rounds += skip;
        } else {
            net.advance_round();
            for (v, want) in reference.advance_round().iter().enumerate() {
                assert_eq!(net.inbox(v), want.as_slice(), "seed {seed}: inbox of {v}");
            }
        }
        let metrics = net.metrics();
        assert_eq!(metrics.classical_messages, reference.messages);
        assert_eq!(metrics.rounds, reference.rounds);
    }
}

/// A [`NodeProgram`] that sends 1–20 messages a round through a random run
/// of consecutive ports, for a fixed number of rounds, folding what it
/// receives into a digest. On `K_100` a port set becomes a page at the 17th
/// port of one round, so nodes grow their sets and move to pages at
/// different rounds.
#[derive(Debug)]
struct BurstSender {
    rounds_left: u64,
    digest: u64,
}

impl BurstSender {
    fn burst(ctx: &mut RoundContext<'_>, outbox: &mut Outbox<u64>) {
        let count = ctx.rng.gen_range(1..=20usize).min(ctx.degree);
        let first = ctx.rng.gen_range(0..ctx.degree);
        for i in 0..count {
            outbox.send((first + i) % ctx.degree, ctx.rng.gen());
        }
    }
}

impl NodeProgram for BurstSender {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<u64>) {
        Self::burst(ctx, outbox);
    }

    fn on_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        incoming: &[(Port, u64)],
        outbox: &mut Outbox<u64>,
    ) {
        for &(port, msg) in incoming {
            self.digest = self
                .digest
                .rotate_left(7)
                .wrapping_add(msg ^ port as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            Self::burst(ctx, outbox);
        }
    }

    fn halted(&self) -> bool {
        self.rounds_left == 0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CONGEST enforcement matches the set-based reference on implicit
    /// `K_n` (degree above the page threshold, so senders start on port
    /// sets), on its materialized CSR twin, on a star (one set-backed hub,
    /// page-backed leaves) and on an 8-regular graph (pages only).
    #[test]
    fn congest_enforcement_matches_reference(n in 80usize..200, seed in 0u64..10_000) {
        let complete = topology::complete(n).unwrap();
        check_congest_against_reference(&complete, seed);
        check_congest_against_reference(&complete.materialize(), seed);
        check_congest_against_reference(&topology::star(n).unwrap(), seed);
        check_congest_against_reference(&topology::random_regular(n, 8, seed).unwrap(), seed);
    }

    /// Senders growing their port sets and moving to pages at different
    /// rounds give the same metrics, per-round history and received messages
    /// with 1 and 4 shards.
    #[test]
    fn burst_senders_match_across_shard_counts(seed in 0u64..10_000) {
        let run = |shards: usize| {
            let mut runtime = SyncRuntime::new(
                topology::complete(100).unwrap(),
                NetworkConfig::with_seed(seed).shards(shards).track_history(true),
                |_, _| BurstSender { rounds_left: 12, digest: 0 },
            );
            let rounds = runtime.run_until_halt(100).unwrap();
            let digests: Vec<u64> = runtime.programs().iter().map(|p| p.digest).collect();
            let history = runtime.network().round_history().to_vec();
            (rounds, runtime.metrics(), history, digests, runtime.adaptive_sequential_rounds())
        };
        let (rounds, metrics, history, digests, sequential) = run(4);
        prop_assert!(sequential < rounds, "no round ran sharded");
        prop_assert_eq!((rounds, metrics, history, digests), {
            let (rounds, metrics, history, digests, _) = run(1);
            (rounds, metrics, history, digests)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// QuantumLE elects exactly one leader for random sizes and seeds (the
    /// failure probability at these parameters is far below the case count).
    #[test]
    fn quantum_le_always_elects_exactly_one_leader(n in 24usize..80, seed in 0u64..10_000) {
        let graph = topology::complete(n).unwrap();
        let run = QuantumLe::with_parameters(KChoice::Optimal, AlphaChoice::HighProbability)
            .run(&graph, seed)
            .unwrap();
        prop_assert!(run.succeeded());
        prop_assert_eq!(run.outcome.leaders().len(), 1);
    }

    /// QuantumGeneralLE elects a unique leader on random connected graphs.
    #[test]
    fn general_le_elects_unique_leader_on_random_graphs(n in 12usize..40, seed in 0u64..10_000) {
        let graph = topology::erdos_renyi_connected(n, 0.15, seed).unwrap();
        let run = QuantumGeneralLe::new().run(&graph, seed).unwrap();
        prop_assert!(run.succeeded());
    }
}
