//! Conservation and invariant tests for the simulation engine.

use db_netsim::{
    Annotation, FailureScenario, HopInfo, NullObserver, Observer, SimConfig, SimTime, Simulator,
    TrafficConfig, TrafficGen,
};
use db_topology::{gen, zoo, LinkId, NodeId, RouteTable};
use db_util::Pcg64;
use proptest::prelude::*;

/// Packets are conserved: everything sent is delivered, dropped for a
/// counted reason, or still in flight at the horizon (bounded by the number
/// of flows times the path depth — in flight means at most a handful per
/// flow since senders emit one packet per event).
fn check_conservation(stats: &db_netsim::SimStats, flows: usize) {
    let accounted = stats.delivered
        + stats.dropped_down
        + stats.dropped_corrupt
        + stats.dropped_queue
        + stats.dropped_node
        + stats.dropped_background;
    assert!(
        stats.packets_sent >= accounted.saturating_sub(0),
        "more packets accounted than sent"
    );
    let in_flight = stats.packets_sent - accounted.min(stats.packets_sent);
    // Generous bound: a packet spends ≤ ~200 ms in flight; at most a few
    // packets per flow can be airborne at the horizon.
    assert!(
        in_flight <= (flows as u64) * 64,
        "implausible in-flight count: {in_flight} for {flows} flows"
    );
}

#[test]
fn conservation_on_random_topologies() {
    for seed in 0..6u64 {
        let topo = gen::waxman(12, 0.5, 0.4, seed);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(0.6), seed);
        let n = flows.len();
        let scenario = if seed % 2 == 0 {
            FailureScenario::none()
        } else {
            let mut rng = Pcg64::new(seed);
            FailureScenario::random_links(&topo, 2, SimTime::from_ms(40), &mut rng)
        };
        let cfg = SimConfig {
            end: SimTime::from_ms(120),
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, flows, cfg, &scenario, seed, NullObserver);
        sim.run();
        let (_, stats) = sim.finish();
        assert!(stats.packets_sent > 0);
        check_conservation(&stats, n);
    }
}

#[test]
fn hop_events_bounded_by_path_lengths() {
    // Each delivered packet generates exactly path_len+1 hop events; dropped
    // packets generate fewer. Total hop events ≤ sent × (max_path + 1).
    let topo = zoo::geant2012();
    let routes = RouteTable::build(&topo);
    let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(0.2), 3);
    let max_path = flows.iter().map(|f| f.path.len()).max().unwrap_or(0) as u64;
    let cfg = SimConfig {
        end: SimTime::from_ms(80),
        ..Default::default()
    };
    let mut sim = Simulator::new(&topo, flows, cfg, &FailureScenario::none(), 3, NullObserver);
    sim.run();
    let (_, stats) = sim.finish();
    assert!(stats.hop_events <= stats.packets_sent * (max_path + 1));
    assert!(
        stats.hop_events >= stats.delivered * 2,
        "every delivery crosses ≥ 2 switches"
    );
}

#[test]
fn observer_sees_every_hop_in_path_order() {
    struct OrderCheck {
        last_hop: std::collections::HashMap<(u32, u64), usize>,
        violations: u64,
    }
    impl Observer for OrderCheck {
        fn on_packet(&mut self, _now: SimTime, info: &HopInfo, _ann: &mut Annotation) {
            let key = (info.flow.0, info.seq);
            if let Some(&prev) = self.last_hop.get(&key) {
                if info.hop_index != prev + 1 {
                    self.violations += 1;
                }
            } else if info.hop_index != 0 {
                self.violations += 1;
            }
            self.last_hop.insert(key, info.hop_index);
        }
    }
    let topo = zoo::line_with_latency(5, 2.0);
    let routes = RouteTable::build(&topo);
    let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 8);
    let cfg = SimConfig {
        end: SimTime::from_ms(80),
        ..Default::default()
    };
    let check = OrderCheck {
        last_hop: Default::default(),
        violations: 0,
    };
    let mut sim = Simulator::new(&topo, flows, cfg, &FailureScenario::none(), 8, check);
    sim.run();
    let (check, stats) = sim.finish();
    assert!(stats.delivered > 0);
    assert_eq!(check.violations, 0, "hops must arrive in path order");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Determinism across arbitrary seeds and densities.
    #[test]
    fn runs_are_reproducible(seed in 0u64..1_000, density in 0.1f64..1.0) {
        let topo = zoo::line_with_latency(4, 2.0);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(density), seed);
        let run = |flows: Vec<db_netsim::FlowSpec>| {
            let cfg = SimConfig {
                end: SimTime::from_ms(60),
                ..Default::default()
            };
            let scenario = FailureScenario::single_link(LinkId(1), SimTime::from_ms(30));
            let mut sim = Simulator::new(&topo, flows, cfg, &scenario, seed, NullObserver);
            sim.run();
            sim.finish().1
        };
        let a = run(flows.clone());
        let b = run(flows);
        prop_assert_eq!(a, b);
    }

    /// A failed link never delivers: flows whose entire path is the failed
    /// link receive nothing after the failure settles.
    #[test]
    fn down_link_blocks_direct_flows(seed in 0u64..500) {
        let topo = zoo::line_with_latency(3, 2.0);
        let routes = RouteTable::build(&topo);
        let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), seed);
        let cfg = SimConfig {
            end: SimTime::from_ms(100),
            ..Default::default()
        };
        let scenario = FailureScenario::single_link(LinkId(0), SimTime::ZERO);
        struct DeliveryWatch(u64);
        impl Observer for DeliveryWatch {
            fn on_packet(&mut self, _now: SimTime, info: &HopInfo, _a: &mut Annotation) {
                // Any delivery crossing the failed l0 (s0-s1) is a bug.
                if info.is_last_switch
                    && ((info.src == NodeId(0) && info.node != NodeId(0))
                        || (info.node == NodeId(0) && info.src != NodeId(0)))
                {
                    self.0 += 1;
                }
            }
        }
        let mut sim = Simulator::new(&topo, flows, cfg, &scenario, seed, DeliveryWatch(0));
        sim.run();
        let (watch, _) = sim.finish();
        prop_assert_eq!(watch.0, 0, "packets crossed a link that was down from t=0");
    }
}

/// One fixed grid scenario, pinned field by field: the centre link fails at
/// 60 ms and is repaired at 120 ms, with background loss on so every random
/// draw of the engine is exercised. The observer stamps each packet's
/// annotation with the hop it left, so a payload mixed up between events
/// shows as a mismatch. Any change to the event queue must leave all of
/// this bit-identical.
#[test]
fn grid_failure_and_repair_stats_are_pinned() {
    #[derive(Default)]
    struct Stamp {
        mismatches: u64,
    }
    impl Observer for Stamp {
        fn on_packet(&mut self, _now: SimTime, info: &HopInfo, ann: &mut Annotation) {
            let want: &[u8] = if info.hop_index == 0 {
                &[]
            } else {
                &[(info.hop_index - 1) as u8, info.seq as u8]
            };
            if ann.as_slice() != want {
                self.mismatches += 1;
            }
            ann.set(&[info.hop_index as u8, info.seq as u8]);
        }
    }
    let topo = zoo::grid(3, 3);
    let routes = RouteTable::build(&topo);
    let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::with_density(1.0), 9);
    let link = topo
        .link_between(NodeId(4), NodeId(5))
        .expect("centre link");
    let scenario = FailureScenario {
        events: vec![db_netsim::FailureEvent {
            at: SimTime::from_ms(60),
            kind: db_netsim::FailureKind::LinkDown(link),
            repair_at: Some(SimTime::from_ms(120)),
        }],
    };
    let cfg = SimConfig {
        end: SimTime::from_ms(200),
        background_loss: 1e-3,
        ..Default::default()
    };
    let mut sim = Simulator::new(&topo, flows, cfg, &scenario, 9, Stamp::default());
    sim.run();
    let (obs, st) = sim.finish();
    assert_eq!(
        obs.mismatches, 0,
        "annotations must travel with their packet"
    );
    let counters = [
        st.events_processed,
        st.packets_sent,
        st.hop_events,
        st.delivered,
        st.delivered_bytes,
        st.dropped_down,
        st.dropped_corrupt,
        st.dropped_queue,
        st.dropped_node,
        st.dropped_background,
        st.acks_delivered,
        st.acks_lost,
        st.flows_finished,
        st.flows_stalled,
    ];
    assert_eq!(
        counters,
        [41252, 8727, 24675, 7945, 11134145, 661, 0, 0, 0, 16, 7798, 42, 0, 0]
    );
    let mut w = db_util::wire::ByteWriter::new();
    st.encode_into(&mut w);
    assert_eq!(
        db_util::wire::fnv1a64(&w.into_bytes()),
        0x5bc2_7bd3_a3bf_d8e9
    );
}
