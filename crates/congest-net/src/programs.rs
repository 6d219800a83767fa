//! Small reference [`NodeProgram`]s: building blocks and benchmark loads.
//!
//! These are deliberately simple protocols with known round/message bounds,
//! used by the runtime's own tests, the determinism regression suite, the
//! million-node memory ceilings and perfbench's `flood-cycle` and
//! `faulty-replay` workloads. [`Flood`] is the minimal
//! fault-*oblivious* broadcast; [`FloodFt`] is its fault-*tolerant*
//! counterpart — an acknowledgement-and-retransmission flood whose control
//! flow genuinely depends on the installed
//! [`FaultPlan`](crate::fault::FaultPlan).

use crate::graph::Port;
use crate::message::Payload;
use crate::runtime::{NodeProgram, Outbox, RoundContext};

/// Single-source flooding: the node holding the token broadcasts it once;
/// every node halts as soon as it holds the token.
///
/// On a connected graph with source `s`, termination takes
/// `ecc(s) + O(1)` rounds and at most `2m` messages — which makes flooding
/// the canonical "pure round-engine" load: every message is one bit, so
/// measured throughput is simulator overhead, not protocol work.
#[derive(Debug, Clone)]
pub struct Flood {
    has_token: bool,
    announced: bool,
}

impl Flood {
    /// A node that starts with the token iff `source` is true.
    #[must_use]
    pub fn new(source: bool) -> Self {
        Flood {
            has_token: source,
            announced: false,
        }
    }

    /// Whether this node has received (or started with) the token.
    #[must_use]
    pub fn has_token(&self) -> bool {
        self.has_token
    }
}

impl NodeProgram for Flood {
    type Msg = bool;

    fn on_start(&mut self, ctx: &mut RoundContext<'_>, outbox: &mut Outbox<bool>) {
        if self.has_token {
            outbox.send_all(ctx.degree, true);
            self.announced = true;
        }
    }

    fn on_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        incoming: &[(Port, bool)],
        outbox: &mut Outbox<bool>,
    ) {
        if !self.has_token && incoming.iter().any(|(_, t)| *t) {
            self.has_token = true;
        }
        if self.has_token && !self.announced {
            outbox.send_all(ctx.degree, true);
            self.announced = true;
        }
    }

    fn halted(&self) -> bool {
        self.has_token
    }

    /// A flood node acts only on mail: the callback that gives it the token
    /// (`on_start` for the source) also announces it.
    fn idle(&self) -> bool {
        true
    }
}

/// The wire format of [`FloodFt`]: up to three flags packed into one
/// CONGEST message, so a round never needs two messages on one directed
/// edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FtMsg {
    /// The flooded token.
    pub token: bool,
    /// Acknowledges a token received on this link last round.
    pub ack: bool,
    /// A rebooted node asking its neighbours to retransmit (clears their
    /// ack/give-up bookkeeping for this link).
    pub req: bool,
}

impl Payload for FtMsg {
    fn size_bits(&self) -> usize {
        3
    }
}

/// Fault-tolerant single-source flooding: tokens are retransmitted every
/// round until acknowledged, so the flood reroutes around outage windows,
/// survives seeded drops, and re-covers crash-recovered nodes.
///
/// Unlike [`Flood`] — which announces once and trusts delivery — a `FloodFt`
/// node keeps per-port bookkeeping and its **control flow depends on what
/// actually arrives in its inbox** (and on the
/// [`failed_neighbors`](crate::runtime::RoundContext::failed_neighbors)
/// failure detector):
///
/// * a node holding the token retransmits on every port that has neither
///   acknowledged nor been given up on, once per round;
/// * receiving the token is acknowledged on the arrival port (piggybacked on
///   the same round's outgoing message, so CONGEST's one-message-per-edge
///   rule is never violated);
/// * a port whose neighbour the failure detector reports down is **given
///   up** — no more retransmissions, and the port no longer blocks
///   termination;
/// * a node rebooted by a crash-recovery window resets to its initial state
///   in [`on_recover`](NodeProgram::on_recover) and broadcasts a
///   retransmission request **every round until it holds the token again**
///   (a one-shot request could be eaten by the drop lottery or an outage,
///   stranding the node forever); neighbours receiving a request clear
///   their bookkeeping for that link (un-halting if necessary) and flood
///   the token again.
///
/// On a fault-free run the protocol terminates in `ecc(source) + O(1)`
/// rounds with `O(m)` messages, like [`Flood`] with acknowledgement
/// overhead. Under faults it keeps retransmitting until every live
/// neighbour acknowledged — the honest inbox-driven behaviour the
/// omniscient drivers cannot show.
#[derive(Debug, Clone)]
pub struct FloodFt {
    source: bool,
    has_token: bool,
    /// Per-port: the neighbour acknowledged our token.
    acked: Vec<bool>,
    /// Per-port: an ack owed for a token received last round.
    ack_due: Vec<bool>,
    /// Per-port: the failure detector reported the neighbour down; stop
    /// retransmitting and stop waiting (cleared again by a `req`).
    given_up: Vec<bool>,
    /// Rebooted and not yet re-served: keep broadcasting the retransmission
    /// request until the token is held again (a single request could be
    /// lost to the drop lottery or an outage window).
    rebooting: bool,
}

impl FloodFt {
    /// A node with `degree` ports that starts with the token iff `source`.
    #[must_use]
    pub fn new(source: bool, degree: usize) -> Self {
        FloodFt {
            source,
            has_token: source,
            acked: vec![false; degree],
            ack_due: vec![false; degree],
            given_up: vec![false; degree],
            rebooting: false,
        }
    }

    /// Whether this node has received (or started with) the token.
    #[must_use]
    pub fn has_token(&self) -> bool {
        self.has_token
    }

    /// Queues this round's outgoing messages: piggybacked acks plus token
    /// retransmissions on every port still awaiting one.
    fn send_round(&mut self, outbox: &mut Outbox<FtMsg>, req: bool) {
        for port in 0..self.acked.len() {
            let token = self.has_token && !self.acked[port] && !self.given_up[port];
            let ack = self.ack_due[port];
            self.ack_due[port] = false;
            if token || ack || req {
                outbox.send(port, FtMsg { token, ack, req });
            }
        }
    }
}

impl NodeProgram for FloodFt {
    type Msg = FtMsg;

    fn on_start(&mut self, _ctx: &mut RoundContext<'_>, outbox: &mut Outbox<FtMsg>) {
        self.send_round(outbox, false);
    }

    fn on_round(
        &mut self,
        ctx: &mut RoundContext<'_>,
        incoming: &[(Port, FtMsg)],
        outbox: &mut Outbox<FtMsg>,
    ) {
        for &(port, m) in incoming {
            if m.token {
                self.has_token = true;
                self.ack_due[port] = true;
            }
            if m.ack {
                self.acked[port] = true;
            }
            if m.req {
                // The neighbour rebooted and lost everything it had: forget
                // its ack and any give-up, so the token is retransmitted.
                self.acked[port] = false;
                self.given_up[port] = false;
            }
        }
        // Perfect failure detector: stop waiting on (and sending to)
        // currently-down neighbours. A later `req` from a recovered
        // neighbour clears the give-up again.
        for port in ctx.failed_neighbors() {
            self.given_up[port] = true;
        }
        // Re-served: the token arrived, stop requesting.
        if self.has_token {
            self.rebooting = false;
        }
        self.send_round(outbox, self.rebooting);
    }

    fn on_recover(&mut self, _ctx: &mut RoundContext<'_>, outbox: &mut Outbox<FtMsg>) {
        // Reboot: back to the initial state (a source re-seeds its token),
        // plus a retransmission request on every port so neighbours that
        // already finished with this link serve the token again. The
        // request repeats every round until the token is held (see
        // `rebooting`): a one-shot request lost to the drop lottery or an
        // outage window would strand this node forever, because its
        // already-halted neighbours only retransmit when asked.
        self.has_token = self.source;
        self.acked.iter_mut().for_each(|a| *a = false);
        self.ack_due.iter_mut().for_each(|a| *a = false);
        self.given_up.iter_mut().for_each(|g| *g = false);
        self.rebooting = !self.has_token;
        self.send_round(outbox, true);
    }

    fn halted(&self) -> bool {
        self.has_token && self.acked.iter().zip(&self.given_up).all(|(&a, &g)| a || g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::network::NetworkConfig;
    use crate::runtime::SyncRuntime;
    use crate::topology;

    #[test]
    fn flood_reaches_every_node() {
        for n in [4usize, 16, 33] {
            let graph = topology::erdos_renyi_connected(n, 0.3, 7).unwrap();
            let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(1), |v, _| {
                Flood::new(v == 0)
            });
            runtime.run_until_halt(1000).unwrap();
            assert!(runtime.programs().iter().all(Flood::has_token));
        }
    }

    #[test]
    fn flood_message_count_is_bounded_by_2m() {
        let graph = topology::hypercube(5).unwrap();
        let m = graph.edge_count() as u64;
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(1), |v, _| {
            Flood::new(v == 0)
        });
        runtime.run_until_halt(1000).unwrap();
        assert!(runtime.metrics().classical_messages <= 2 * m);
    }

    #[test]
    fn flood_ft_terminates_fault_free() {
        for graph in [
            topology::cycle(12).unwrap(),
            topology::hypercube(4).unwrap(),
            topology::complete(8).unwrap(),
        ] {
            let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(5), |v, d| {
                FloodFt::new(v == 0, d)
            });
            let rounds = runtime.run_until_halt(200).unwrap();
            assert!(runtime.all_halted(), "terminated in {rounds} rounds");
            assert!(runtime.programs().iter().all(FloodFt::has_token));
        }
    }

    #[test]
    fn flood_ft_survives_random_drops_where_flood_does_not() {
        // Heavy seeded drops: plain Flood announces once and loses coverage;
        // FloodFt retransmits until acknowledged and still covers everyone.
        let graph = topology::cycle(16).unwrap();
        let plan = FaultPlan::new(3).drop_probability(0.4);

        let mut plain = SyncRuntime::new(graph.clone(), NetworkConfig::with_seed(2), |v, _| {
            Flood::new(v == 0)
        });
        plain.set_fault_plan(&plan);
        plain.run_until_halt(400).unwrap();
        let plain_covered = plain.programs().iter().filter(|p| p.has_token()).count();

        let mut ft = SyncRuntime::new(graph, NetworkConfig::with_seed(2), |v, d| {
            FloodFt::new(v == 0, d)
        });
        ft.set_fault_plan(&plan);
        ft.run_until_halt(400).unwrap();
        assert!(ft.all_halted());
        assert!(ft.programs().iter().all(FloodFt::has_token));
        assert!(
            plain_covered < 16,
            "drop rate chosen so the oblivious flood genuinely loses nodes \
             (got {plain_covered}/16)"
        );
    }

    #[test]
    fn flood_ft_reroutes_around_an_outage_window() {
        // Cycle with the source's clockwise link down for a long window: the
        // token must arrive at the source's clockwise neighbour the long way
        // around, and the run still completes.
        let n = 10;
        let graph = topology::cycle(n).unwrap();
        let plan = FaultPlan::new(0).link_outage(0, 1, 0, 100);
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(1), |v, d| {
            FloodFt::new(v == 0, d)
        });
        runtime.set_fault_plan(&plan);
        let rounds = runtime.run_until_halt(400).unwrap();
        assert!(runtime.all_halted());
        assert!(runtime.programs().iter().all(FloodFt::has_token));
        // The long way around is n - 1 hops instead of 1: completion takes
        // at least that many rounds, proving the reroute actually happened.
        assert!(rounds as usize >= n - 1, "rounds = {rounds}");
    }

    #[test]
    fn flood_ft_recovery_request_survives_losing_its_first_copies() {
        // Node 2 reboots at round 10 while BOTH of its links are inside a
        // one-round outage window, so the reboot-round req broadcast is
        // entirely lost. The request must repeat until served — a one-shot
        // req would strand node 2 forever (its halted neighbours only
        // retransmit when asked) and burn the whole round budget.
        let graph = topology::cycle(4).unwrap();
        let plan = FaultPlan::new(0)
            .crash_recover(2, 1, 10)
            .link_outage(1, 2, 10, 11)
            .link_outage(2, 3, 10, 11);
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(1), |v, d| {
            FloodFt::new(v == 0, d)
        });
        runtime.set_fault_plan(&plan);
        let rounds = runtime.run_until_halt(400).unwrap();
        assert!(runtime.all_halted(), "stranded after {rounds} rounds");
        assert!(runtime.programs().iter().all(FloodFt::has_token));
        assert!(
            rounds < 30,
            "re-request must converge quickly, took {rounds}"
        );
    }

    #[test]
    fn flood_ft_recovers_crash_recovered_nodes() {
        // Node 4 is down for rounds [1, 30): its neighbours give up on it
        // (failure detector), finish the flood, and halt. At round 30 it
        // reboots, requests retransmission, and is re-covered.
        let graph = topology::cycle(8).unwrap();
        let plan = FaultPlan::new(0).crash_recover(4, 1, 30);
        let mut runtime = SyncRuntime::new(graph, NetworkConfig::with_seed(1), |v, d| {
            FloodFt::new(v == 0, d)
        });
        runtime.set_fault_plan(&plan);
        let rounds = runtime.run_until_halt(400).unwrap();
        assert!(runtime.all_halted());
        assert!(
            runtime.programs().iter().all(FloodFt::has_token),
            "the recovered node must be re-covered"
        );
        assert!(rounds >= 30, "the run must outlive the recovery window");
        assert_eq!(runtime.metrics().crashed_nodes, 1);
    }
}
