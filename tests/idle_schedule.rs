//! The round engine visits only scheduled nodes — the nodes
//! that were not idle after their last callback, received mail, or recover
//! this round — and answers `all_halted` from a count of running programs.
//! Both are optimisations and must be invisible:
//!
//! 1. **Idle skip ≡ visiting everyone (property-based):** `Flood` declares
//!    itself idle; a wrapper that forwards every callback but keeps the
//!    default `idle` (= `halted`) is skipped only while halted with an
//!    empty inbox, so it is the reference. Both must produce identical
//!    rounds, metrics, round history, trace, tokens and `all_halted()` over
//!    a grid of graphs, fault plans and schedulers.
//! 2. **Count ≡ scan:** for a program that halts, is un-halted by mail and
//!    halts again, `all_halted()` equals a scan of the programs before and
//!    after `start()` and after every round, and under crash plans it
//!    equals the crash-aware scan (a crashed node counts as halted iff it
//!    never comes back).

use congest_net::programs::Flood;
use congest_net::{
    topology, FaultPlan, Graph, Metrics, Network, NetworkConfig, NodeProgram, Outbox, Port,
    RoundContext, RoundReport, SchedulerSpec, SyncRuntime, TraceEvent,
};
use proptest::prelude::*;

/// `Flood` with every callback forwarded but the default `idle`, so the
/// runtime keeps every node that has not halted on its schedule.
#[derive(Debug)]
struct BusyFlood(Flood);

impl NodeProgram for BusyFlood {
    type Msg = bool;

    fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<bool>) {
        self.0.on_start(ctx, outbox);
    }

    fn on_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        incoming: &[(Port, bool)],
        outbox: &mut Outbox<bool>,
    ) {
        self.0.on_round(ctx, incoming, outbox);
    }

    fn on_recover(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<bool>) {
        self.0.on_recover(ctx, outbox);
    }

    fn halted(&self) -> bool {
        self.0.halted()
    }
}

/// Everything a run exposes: rounds, metrics, round history, trace, each
/// node's token, and the final `all_halted()`.
type Outcome = (
    u64,
    Metrics,
    Vec<RoundReport>,
    Vec<TraceEvent>,
    Vec<bool>,
    bool,
);

fn run<P: NodeProgram<Msg = bool>>(
    graph: &Graph,
    seed: u64,
    plan: Option<&FaultPlan>,
    scheduler: Option<&SchedulerSpec>,
    init: impl Fn(bool) -> P,
    token: impl Fn(&P) -> bool,
) -> Outcome {
    let config = NetworkConfig::with_seed(seed).track_history(true);
    let mut net = Network::new(graph.clone(), config);
    if let Some(plan) = plan {
        net.set_fault_plan(plan);
    }
    if let Some(spec) = scheduler {
        net.set_scheduler(spec);
    }
    net.enable_trace();
    let mut runtime = SyncRuntime::with_network(net, |v, _| init(v == 0));
    let rounds = runtime.run_until_halt(300).unwrap();
    let all_halted = runtime.all_halted();
    let history = runtime.network().round_history().to_vec();
    let trace = runtime.take_trace();
    let tokens = runtime.programs().iter().map(token).collect();
    (
        rounds,
        runtime.metrics(),
        history,
        trace,
        tokens,
        all_halted,
    )
}

/// The graph grid: cycle, star, small complete, random 4-regular, torus.
fn graphs(n: usize, seed: u64) -> Vec<(&'static str, Graph)> {
    let side = (n as f64).sqrt().ceil() as usize;
    vec![
        ("cycle", topology::cycle(n).unwrap()),
        ("star", topology::star(n).unwrap()),
        ("complete", topology::complete(12).unwrap()),
        ("regular4", topology::random_regular(n, 4, seed).unwrap()),
        ("torus", topology::torus(side, side).unwrap()),
    ]
}

/// The fault-plan grid: none, drops, crash-stop, crash-recovery, link
/// latency plus an outage, adversarial drops.
fn plans(graph: &Graph, seed: u64) -> Vec<(&'static str, Option<FaultPlan>)> {
    let n = graph.node_count();
    let (a, b) = (1, graph.neighbor(1, 0));
    vec![
        ("none", None),
        ("drops", Some(FaultPlan::new(seed).drop_probability(0.1))),
        ("crash-stop", Some(FaultPlan::new(seed).crash(n / 2, 2))),
        (
            "crash-recovery",
            Some(FaultPlan::new(seed).crash_recover(n / 3, 1, 4 + seed % 5)),
        ),
        (
            "latency+outage",
            Some(
                FaultPlan::new(seed)
                    .link_latency(0, graph.neighbor(0, 0), 1 + seed % 3)
                    .link_outage(a, b, 1, 4),
            ),
        ),
        (
            "adversarial",
            Some(FaultPlan::new(seed).adversarial_drops(1 + seed % 2)),
        ),
    ]
}

/// The scheduler grid: none, latency-skew, round-robin, worst-case.
fn schedulers(seed: u64) -> [(&'static str, Option<SchedulerSpec>); 4] {
    [
        ("none", None),
        ("latency-skew", Some(SchedulerSpec::latency_skew(3, seed))),
        ("round-robin", Some(SchedulerSpec::round_robin(2, seed))),
        ("worst-case", Some(SchedulerSpec::worst_case(2))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Skipping idle nodes is invisible: `Flood` (idle) and `BusyFlood`
    /// (default idle) agree on every observable, across the whole grid.
    #[test]
    fn idle_skip_is_invisible(n in 96usize..144, seed in 0u64..1000) {
        for (graph_name, graph) in graphs(n, seed) {
            for (plan_name, plan) in plans(&graph, seed) {
                for (scheduler_name, scheduler) in schedulers(seed) {
                    let plan = plan.as_ref();
                    let scheduler = scheduler.as_ref();
                    let idle = run(&graph, seed, plan, scheduler, Flood::new, Flood::has_token);
                    let busy = run(
                        &graph,
                        seed,
                        plan,
                        scheduler,
                        |source| BusyFlood(Flood::new(source)),
                        |p| p.0.has_token(),
                    );
                    prop_assert_eq!(
                        &idle,
                        &busy,
                        "{} / {} / {}",
                        graph_name,
                        plan_name,
                        scheduler_name
                    );
                }
            }
        }
    }
}

/// Passes a hop-limited token on: a node holding a token is busy (not
/// halted) for one round, then forwards it with one hop fewer and halts
/// again. A node is halted, un-halted by mail and halted again as often as
/// tokens pass through it.
#[derive(Debug)]
struct Relay {
    held: Option<u32>,
    out_port: Port,
}

impl NodeProgram for Relay {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<u32>) {
        outbox.send(0, 2 + (ctx.node % 5) as u32);
    }

    fn on_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        incoming: &[(Port, u32)],
        outbox: &mut Outbox<u32>,
    ) {
        if let Some(hops) = self.held.take() {
            outbox.send(self.out_port, hops);
            self.out_port = (self.out_port + 1) % ctx.degree;
        }
        if let Some(&(_, hops)) = incoming.iter().max_by_key(|&&(_, h)| h) {
            if hops > 0 {
                self.held = Some(hops - 1);
            }
        }
    }

    fn halted(&self) -> bool {
        self.held.is_none()
    }
}

/// `all_halted()` as a scan of the programs and the network's crash
/// schedule: a crashed node counts as halted iff it is down for good.
fn scanned_all_halted(runtime: &SyncRuntime<Relay>) -> bool {
    let net = runtime.network();
    runtime.programs().iter().enumerate().all(|(v, p)| {
        if net.node_crashed(v) {
            net.node_permanently_down(v)
        } else {
            p.halted()
        }
    })
}

#[test]
fn running_count_matches_a_scan() {
    let graph = topology::random_regular(120, 4, 9).unwrap();
    let plans = [
        None,
        Some(FaultPlan::new(3).drop_probability(0.05)),
        Some(FaultPlan::new(3).crash(7, 3).crash(40, 0)),
        Some(FaultPlan::new(3).crash_recover(9, 2, 6).crash(41, 5)),
    ];
    for plan in &plans {
        let config = NetworkConfig::with_seed(5);
        // Every node sends a token at start-up, and every fifth node starts
        // out holding one.
        let mut runtime = SyncRuntime::new(graph.clone(), config, |v, _| Relay {
            held: (v % 5 == 0).then_some(1),
            out_port: 0,
        });
        if let Some(plan) = plan {
            runtime.set_fault_plan(plan);
        }
        let label = format!("plan = {plan:?}");
        assert!(!runtime.all_halted(), "{label}");
        assert_eq!(
            runtime.all_halted(),
            scanned_all_halted(&runtime),
            "{label}"
        );
        runtime.start().unwrap();
        assert_eq!(
            runtime.all_halted(),
            scanned_all_halted(&runtime),
            "{label}, start-up"
        );
        let mut unhalted = 0;
        for round in 1..40 {
            let before = runtime.all_halted();
            runtime.step().unwrap();
            let after = runtime.all_halted();
            assert_eq!(
                after,
                scanned_all_halted(&runtime),
                "{label}, round {round}"
            );
            if before && !after {
                unhalted += 1;
            }
        }
        // Tokens run out of hops, and every node halts again.
        assert!(runtime.all_halted(), "{label}");
        // Mail really did un-halt a fully halted network: odd rounds
        // deliver tokens to halted relays.
        assert!(unhalted > 0, "{label}");
        if plan.is_none() {
            assert!(runtime.programs().iter().all(Relay::halted), "{label}");
        }
    }
}
