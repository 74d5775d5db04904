//! Property-based tests for the network model.

mod reference;

use ars_simcore::SimTime;
use ars_simnet::{Network, NetworkConfig, NodeId};
use proptest::prelude::*;
use reference::Pair;

fn t_us(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

proptest! {
    /// Conservation: every byte sent is received (total tx == total rx).
    #[test]
    fn tx_equals_rx(
        n_nodes in 2usize..8,
        flows in proptest::collection::vec(
            (0u32..8, 0u32..8, 1_000.0f64..50_000_000.0, 0u64..5_000_000),
            1..20,
        ),
    ) {
        let mut net = Network::new(n_nodes, NetworkConfig::default());
        let mut evs: Vec<(u64, u32, u32, f64)> = flows
            .into_iter()
            .map(|(s, d, b, at)| (at, s % n_nodes as u32, d % n_nodes as u32, b))
            .filter(|&(_, s, d, _)| s != d)
            .collect();
        evs.sort_by_key(|&(at, ..)| at);
        for &(at, s, d, b) in &evs {
            net.start_flow(t_us(at), NodeId(s), NodeId(d), Some(b));
        }
        net.advance(t_us(60_000_000));
        let tx: f64 = (0..n_nodes).map(|i| net.tx_bytes(NodeId(i as u32))).sum();
        let rx: f64 = (0..n_nodes).map(|i| net.rx_bytes(NodeId(i as u32))).sum();
        prop_assert!((tx - rx).abs() < 1e-3, "tx {tx} rx {rx}");
    }

    /// No flow transfers more than it asked for, and all bounded flows
    /// complete given enough time.
    #[test]
    fn flows_complete_exactly(
        bytes in proptest::collection::vec(1_000.0f64..10_000_000.0, 1..10),
    ) {
        let mut net = Network::new(2, NetworkConfig::default());
        let ids: Vec<_> = bytes
            .iter()
            .map(|&b| net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), Some(b)))
            .collect();
        // Total work bounded by sum/capacity; give it double.
        let total: f64 = bytes.iter().sum();
        let enough = SimTime::from_secs_f64(2.0 * total / 12_500_000.0 + 1.0);
        net.advance(enough);
        for (id, &b) in ids.iter().zip(&bytes) {
            let moved = net.transferred_of(*id);
            prop_assert!((moved - b).abs() < 1e-3, "moved {moved} of {b}");
        }
        let mut reaped = 0;
        while let Some(id) = net.first_finished_flow() {
            prop_assert!(net.end_flow(enough, id).is_some());
            reaped += 1;
        }
        prop_assert_eq!(reaped, bytes.len());
    }

    /// A NIC never carries more than its capacity: cumulative bytes out of
    /// one node over a window never exceed capacity * window.
    #[test]
    fn nic_capacity_respected(
        bytes in proptest::collection::vec(1_000.0f64..20_000_000.0, 1..10),
        window_us in 100_000u64..5_000_000,
    ) {
        let mut net = Network::new(3, NetworkConfig::default());
        for (i, &b) in bytes.iter().enumerate() {
            let dst = NodeId(1 + (i % 2) as u32);
            net.start_flow(SimTime::ZERO, NodeId(0), dst, Some(b));
        }
        net.advance(t_us(window_us));
        let tx = net.tx_bytes(NodeId(0));
        let cap = 12_500_000.0 * window_us as f64 / 1e6;
        prop_assert!(tx <= cap * (1.0 + 1e-9) + 1.0, "tx {tx} cap {cap}");
    }

    /// The flow table stays bit-identical to the settle-everything reference
    /// model under arbitrary interleavings of flow starts, flow ends (of
    /// active, finished and already-ended ids) and advances: same rates (to
    /// the bit), same served byte counts, same NIC counters, same projected
    /// completions — and the table's internal invariants hold throughout.
    #[test]
    fn incremental_rates_match_full_rescan(
        n_nodes in 2usize..6,
        ops in proptest::collection::vec(
            (0u8..3, 0u32..8, 0u32..8, 1_000.0f64..2_000_000.0, 1u64..500_000),
            1..60,
        ),
    ) {
        let mut pair = Pair::new(n_nodes);
        let mut now = 0u64;
        for &(kind, s, d, bytes, dt) in &ops {
            now += dt;
            let t = t_us(now);
            match kind {
                0 => {
                    let src = NodeId(s % n_nodes as u32);
                    let dst = NodeId(d % n_nodes as u32);
                    if src == dst {
                        continue;
                    }
                    // The top of the byte range doubles as "unbounded".
                    pair.start(t, src, dst, (bytes < 1_500_000.0).then_some(bytes));
                }
                1 => {
                    if pair.ids.is_empty() {
                        continue;
                    }
                    pair.end(t, (s as usize + d as usize) % pair.ids.len());
                }
                _ => pair.advance(t),
            }
            pair.assert_same(t);
        }
    }

    /// The ledger's traffic shape: one hub receiving from 64–512 senders.
    /// Equal-size registrations all start at one timestamp (and so finish in
    /// one settlement step) next to a few persistent streams; then rounds of
    /// advance / reap-through-`first_finished_flow` / fresh heartbeats and
    /// ACKs, with `next_completion` also asked between settlements. Bit for
    /// bit against the reference model.
    #[test]
    fn hub_burst_matches_reference(
        senders in 64u32..513,
        streams in 1u32..4,
        reg_bytes in 500.0f64..4_000.0,
        rounds in proptest::collection::vec(
            (1u64..40_000, 0u32..512, 1u32..6, 100.0f64..2_000.0),
            1..12,
        ),
    ) {
        let hub = NodeId(0);
        let mut pair = Pair::new(senders as usize + 1);
        let mut now = 1_000u64;
        for k in 1..=streams {
            pair.start(t_us(now), hub, NodeId(k), None);
            pair.start(t_us(now), NodeId(k), hub, None);
        }
        for s in 1..=senders {
            pair.start(t_us(now), NodeId(s), hub, Some(reg_bytes));
        }
        pair.assert_same(t_us(now));
        let mut reaped = 0;
        for &(dt, first, burst, hb_bytes) in &rounds {
            pair.assert_same_next_completion(t_us(now + dt / 2));
            now += dt;
            let t = t_us(now);
            pair.advance(t);
            pair.assert_same(t);
            reaped += pair.reap_all(t);
            for k in 0..burst {
                let s = NodeId(1 + (first + k) % senders);
                pair.start(t, s, hub, Some(hb_bytes));
                pair.start(t, hub, s, Some(64.0));
            }
            pair.assert_same(t);
        }
        // Drain: every bounded flow completes, in the same order on both sides.
        let end = t_us(now + 60_000_000);
        pair.advance(end);
        pair.assert_same(end);
        reaped += pair.reap_all(end);
        prop_assert_eq!(reaped, pair.ids.len() - 2 * streams as usize);
    }
}

/// A fixed script (bounded flows, a persistent stream, a short late flow)
/// settled in 40 steps: every observable agrees with the reference model at
/// every step.
#[test]
fn scripted_sequence_matches_reference() {
    let t = SimTime::from_secs_f64;
    let mut pair = Pair::new(4);
    let script: &[(f64, u32, u32, Option<f64>)] = &[
        (0.0, 0, 1, Some(5e6)),
        (0.0, 0, 2, None),
        (0.2, 1, 2, Some(2e6)),
        (0.5, 3, 2, Some(9e6)),
        (0.9, 2, 0, Some(1e3)),
    ];
    for &(at, s, d, bytes) in script {
        pair.start(t(at), NodeId(s), NodeId(d), bytes);
        pair.assert_same(t(at));
    }
    for step in 1..=40 {
        let now = t(0.9 + step as f64 * 0.1);
        pair.advance(now);
        pair.assert_same(now);
    }
}
