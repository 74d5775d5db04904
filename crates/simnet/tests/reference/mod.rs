//! Reference model of the network: the original settle-everything
//! algorithm on a `BTreeMap`, kept only so the tests can compare
//! [`Network`] against it bit for bit. Every membership change re-rates
//! every flow, every settlement step scans every flow twice, and
//! `next_completion` is an ascending-id strict-`<` scan.
//!
//! Flows are numbered 0, 1, 2, … in start order, exactly like `FlowId`s
//! (whose raw value is private), so the n-th id handed out by `Network`
//! corresponds to reference flow `n`.

use ars_simcore::{SimDuration, SimTime};
use ars_simnet::{FlowId, Network, NetworkConfig, NodeId};
use std::collections::BTreeMap;

const COMPLETION_EPS: f64 = 1e-6;

struct RefFlow {
    src: usize,
    dst: usize,
    remaining: Option<f64>,
    rate: f64,
    transferred: f64,
    finished: bool,
}

#[derive(Default, Clone)]
struct RefNic {
    tx_bytes: f64,
    rx_bytes: f64,
    tx_flows: u32,
    rx_flows: u32,
}

struct RefNet {
    cap: f64,
    nics: Vec<RefNic>,
    flows: BTreeMap<u64, RefFlow>,
    next_id: u64,
    last_advance: SimTime,
}

impl RefNet {
    fn new(n_nodes: usize, cap: f64) -> Self {
        RefNet {
            cap,
            nics: vec![RefNic::default(); n_nodes],
            flows: BTreeMap::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
        }
    }

    fn recompute_rates_full(&mut self) {
        let cap = self.cap;
        for flow in self.flows.values_mut().filter(|f| !f.finished) {
            let n_tx = self.nics[flow.src].tx_flows.max(1) as f64;
            let n_rx = self.nics[flow.dst].rx_flows.max(1) as f64;
            flow.rate = (cap / n_tx).min(cap / n_rx);
        }
    }

    fn advance(&mut self, now: SimTime) {
        if now == self.last_advance {
            return;
        }
        let mut remaining_dt = now.since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        while remaining_dt > 0.0 {
            let mut dt_next = f64::INFINITY;
            let mut any_active = false;
            for f in self.flows.values().filter(|f| !f.finished) {
                any_active = true;
                if let Some(rem) = f.remaining {
                    if f.rate > 0.0 {
                        dt_next = dt_next.min(rem / f.rate);
                    }
                }
            }
            if !any_active {
                break;
            }
            let step = remaining_dt.min(dt_next);
            let mut any_finished = false;
            for f in self.flows.values_mut().filter(|f| !f.finished) {
                let moved = f.rate * step;
                f.transferred += moved;
                self.nics[f.src].tx_bytes += moved;
                self.nics[f.dst].rx_bytes += moved;
                if let Some(rem) = &mut f.remaining {
                    *rem -= moved;
                    if *rem <= COMPLETION_EPS {
                        *rem = 0.0;
                        f.finished = true;
                        any_finished = true;
                        self.nics[f.src].tx_flows -= 1;
                        self.nics[f.dst].rx_flows -= 1;
                    }
                }
            }
            if any_finished {
                self.recompute_rates_full();
            }
            remaining_dt -= step;
        }
    }

    fn start_flow(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: Option<f64>) -> u64 {
        self.advance(now);
        let id = self.next_id;
        self.next_id += 1;
        let (src, dst) = (src.0 as usize, dst.0 as usize);
        self.nics[src].tx_flows += 1;
        self.nics[dst].rx_flows += 1;
        self.flows.insert(
            id,
            RefFlow {
                src,
                dst,
                remaining: bytes,
                rate: 0.0,
                transferred: 0.0,
                finished: false,
            },
        );
        self.recompute_rates_full();
        id
    }

    fn end_flow(&mut self, now: SimTime, id: u64) -> Option<f64> {
        self.advance(now);
        let flow = self.flows.remove(&id)?;
        if !flow.finished {
            self.nics[flow.src].tx_flows -= 1;
            self.nics[flow.dst].rx_flows -= 1;
            self.recompute_rates_full();
        }
        Some(flow.transferred)
    }

    fn next_completion(&self, now: SimTime) -> Option<(SimTime, u64)> {
        let already = now.since(self.last_advance).as_secs_f64();
        let mut best: Option<(f64, u64)> = None;
        for (&id, f) in self.flows.iter().filter(|(_, f)| !f.finished) {
            let Some(rem) = f.remaining else { continue };
            if f.rate <= 0.0 {
                continue;
            }
            let dt = (rem / f.rate - already).max(0.0);
            if best.is_none_or(|(b, _)| dt < b) {
                best = Some((dt, id));
            }
        }
        best.map(|(dt, id)| (now + SimDuration::from_secs_f64_ceil(dt), id))
    }

    fn first_finished_flow(&self) -> Option<u64> {
        self.flows
            .iter()
            .find(|(_, f)| f.finished)
            .map(|(&id, _)| id)
    }

    fn rate_of(&self, id: u64) -> f64 {
        self.flows
            .get(&id)
            .map_or(0.0, |f| if f.finished { 0.0 } else { f.rate })
    }

    fn transferred_of(&self, id: u64) -> f64 {
        self.flows.get(&id).map_or(0.0, |f| f.transferred)
    }
}

/// A [`Network`] and the reference model driven in lockstep.
pub struct Pair {
    net: Network,
    model: RefNet,
    /// `ids[n]` is the `FlowId` of reference flow `n`.
    pub ids: Vec<FlowId>,
}

impl Pair {
    pub fn new(n_nodes: usize) -> Self {
        let config = NetworkConfig::default();
        Pair {
            model: RefNet::new(n_nodes, config.nic_bytes_per_sec),
            net: Network::new(n_nodes, config),
            ids: Vec::new(),
        }
    }

    pub fn start(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: Option<f64>) {
        let id = self.net.start_flow(now, src, dst, bytes);
        assert!(
            self.ids.last().is_none_or(|&last| last < id),
            "ids not monotonic"
        );
        let n = self.model.start_flow(now, src, dst, bytes);
        assert_eq!(n as usize, self.ids.len());
        self.ids.push(id);
    }

    /// End flow `n` (active, finished or already ended) on both sides.
    pub fn end(&mut self, now: SimTime, n: usize) {
        assert_eq!(
            self.net.end_flow(now, self.ids[n]),
            self.model.end_flow(now, n as u64),
            "end of flow {n} at {now:?}"
        );
    }

    pub fn advance(&mut self, now: SimTime) {
        self.net.advance(now);
        self.model.advance(now);
    }

    /// Reap every finished flow the way `ars-sim` does; returns how many.
    pub fn reap_all(&mut self, now: SimTime) -> usize {
        let mut reaped = 0;
        while let Some(id) = self.net.first_finished_flow() {
            let n = self.raw(id);
            assert_eq!(n, self.model.first_finished_flow(), "reap order");
            self.end(
                now,
                n.expect("finished flow was issued by this network") as usize,
            );
            reaped += 1;
        }
        assert_eq!(self.model.first_finished_flow(), None);
        reaped
    }

    fn raw(&self, id: FlowId) -> Option<u64> {
        self.ids.binary_search(&id).ok().map(|n| n as u64)
    }

    /// Every observable of the network equals the reference's, to the bit:
    /// per-flow rate and bytes (reaped flows included), per-NIC counters and
    /// counts, the next completion's time *and* id as seen from `now`, and
    /// the next flow to reap. Panics with the first difference.
    pub fn assert_same(&self, now: SimTime) {
        let (net, model) = (&self.net, &self.model);
        assert!(net.debug_invariants_hold(), "invariants broken at {now:?}");
        for (n, &id) in self.ids.iter().enumerate() {
            let n = n as u64;
            assert_eq!(
                net.rate_of(id).to_bits(),
                model.rate_of(n).to_bits(),
                "rate of flow {n} at {now:?}"
            );
            assert_eq!(
                net.transferred_of(id).to_bits(),
                model.transferred_of(n).to_bits(),
                "bytes of flow {n} at {now:?}"
            );
        }
        for (n, nic) in model.nics.iter().enumerate() {
            let node = NodeId(n as u32);
            assert_eq!(
                net.tx_bytes(node).to_bits(),
                nic.tx_bytes.to_bits(),
                "tx of {n}"
            );
            assert_eq!(
                net.rx_bytes(node).to_bits(),
                nic.rx_bytes.to_bits(),
                "rx of {n}"
            );
            assert_eq!(net.tx_flow_count(node), nic.tx_flows, "tx count of {n}");
            assert_eq!(net.rx_flow_count(node), nic.rx_flows, "rx count of {n}");
        }
        self.assert_same_next_completion(now);
        assert_eq!(
            net.first_finished_flow().map(|id| self.raw(id)),
            model.first_finished_flow().map(Some),
            "next flow to reap at {now:?}"
        );
    }

    /// `next_completion(now)` agrees in time and id; `now` may lie past the
    /// last settlement.
    pub fn assert_same_next_completion(&self, now: SimTime) {
        assert_eq!(
            self.net
                .next_completion(now)
                .map(|(t, id)| (t, self.raw(id))),
            self.model.next_completion(now).map(|(t, n)| (t, Some(n))),
            "next completion from {now:?}"
        );
    }
}
