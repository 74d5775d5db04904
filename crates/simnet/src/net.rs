//! Flow-level network simulation (see crate docs for the sharing model).
//!
//! # The flow table
//!
//! Active flows live in one `Vec`, ascending by [`FlowId`]. Ids are handed
//! out monotonically, so a start is a `push`, id → slot is a binary search,
//! and ending a still-active flow is a `Vec::remove`. A flow that completes
//! leaves the table at once: its NIC counts are released and its byte count
//! moves to a small ordered side table that [`Network::first_finished_flow`]
//! and [`Network::end_flow`] drain.
//!
//! Two passes over the table do all the work:
//!
//! * the **settle pass** ([`Network::advance`], once per settlement step)
//!   moves each flow's bytes, adds them to both NIC counters in ascending-id
//!   order (the float summation order every trace depends on), retires the
//!   flows that completed, and tracks the earliest projected completion of
//!   the survivors;
//! * the **re-rate pass** (after a start, an end, or a settle step in which
//!   something completed) recomputes every active flow's fair share
//!   `(cap/n_tx).min(cap/n_rx)` from its two NICs' flow counts and tracks the
//!   earliest projected completion under the new rates.
//!
//! Re-rating every flow is bit-identical to re-rating only the flows whose
//! NICs changed membership: a rate is a pure function of two counts, so a
//! flow on untouched NICs is recomputed to the bits it already holds.
//!
//! The earliest projected completion — the lexicographic minimum of
//! `(bits(remaining/rate), id)` over bounded flows, exact at the last
//! settlement point — is cached by whichever pass ran last, so
//! [`Network::next_completion`] at the settlement point is O(1).
//!
//! The cost that remains: every start, end and settlement step is one or two
//! contiguous passes, O(active flows). A per-NIC virtual clock would make a
//! change O(flows on the touched NICs), but it changes float summation order
//! and therefore every trace (ROADMAP item 3(b)).

use ars_simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Index of a node (host NIC) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of an in-flight flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

/// Bytes below this are considered fully transferred.
const COMPLETION_EPS: f64 = 1e-6;

/// Network-wide configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// NIC capacity in bytes/second for each direction (full duplex).
    /// 100 Mbps Ethernet = 12.5 MB/s = 12 500 000.
    pub nic_bytes_per_sec: f64,
    /// One-way propagation + protocol latency per message.
    pub latency: SimDuration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            nic_bytes_per_sec: 12_500_000.0,
            latency: SimDuration::from_micros(300),
        }
    }
}

/// One active unidirectional data transfer (a row of the flow table).
#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    /// Bytes still to transfer; `None` for persistent background streams.
    remaining: Option<f64>,
    /// Current fair-share rate (bytes/s), set by the re-rate pass.
    rate: f64,
    /// Bytes moved so far.
    transferred: f64,
}

/// Projected completion of one flow: `(bits(remaining/rate), id)`. Positive
/// finite floats order identically to their IEEE-754 bit patterns, so the
/// tuple order is "earliest first, lowest id on a tie".
type Due = (u64, u64);

impl Flow {
    /// Projected completion at the current rate; `None` for persistent
    /// streams (and stalled flows), which never complete.
    fn due(&self) -> Option<Due> {
        match self.remaining {
            Some(rem) if self.rate > 0.0 => Some(((rem / self.rate).to_bits(), self.id.0)),
            _ => None,
        }
    }
}

/// Fold one flow's projected completion into a running minimum.
fn note_due(min: &mut Option<Due>, due: Option<Due>) {
    if let Some(d) = due {
        if min.is_none_or(|m| d < m) {
            *min = Some(d);
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Nic {
    tx_bytes: f64,
    rx_bytes: f64,
    tx_flows: u32,
    rx_flows: u32,
}

/// The cluster network: a set of NICs plus the in-flight flow set.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    nics: Vec<Nic>,
    /// The flow table: active flows, strictly ascending by id.
    active: Vec<Flow>,
    /// Completed flows awaiting [`end_flow`](Self::end_flow): id → bytes
    /// transferred. They hold no NIC share.
    finished: BTreeMap<FlowId, f64>,
    /// Minimum [`Flow::due`] over `active`, exact at `last_advance`.
    next_due: Option<Due>,
    next_id: u64,
    last_advance: SimTime,
    version: u64,
}

impl Network {
    /// Create a network of `n_nodes` identical NICs.
    pub fn new(n_nodes: usize, config: NetworkConfig) -> Self {
        Network {
            config,
            nics: vec![Nic::default(); n_nodes],
            active: Vec::new(),
            finished: BTreeMap::new(),
            next_due: None,
            next_id: 0,
            last_advance: SimTime::ZERO,
            version: 0,
        }
    }

    /// Network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nics.len()
    }

    /// True when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nics.is_empty()
    }

    /// Membership version for lazy event invalidation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Cumulative bytes sent by a node.
    pub fn tx_bytes(&self, node: NodeId) -> f64 {
        self.nics[node.0 as usize].tx_bytes
    }

    /// Cumulative bytes received by a node.
    pub fn rx_bytes(&self, node: NodeId) -> f64 {
        self.nics[node.0 as usize].rx_bytes
    }

    /// Number of active flows originating at `node`.
    pub fn tx_flow_count(&self, node: NodeId) -> u32 {
        self.nics[node.0 as usize].tx_flows
    }

    /// Number of active flows terminating at `node`.
    pub fn rx_flow_count(&self, node: NodeId) -> u32 {
        self.nics[node.0 as usize].rx_flows
    }

    /// Slot of an active flow in the table.
    fn slot(&self, id: FlowId) -> Option<usize> {
        self.active.binary_search_by_key(&id, |f| f.id).ok()
    }

    /// Ids of active flows with `node` as either endpoint, ascending by id
    /// (deterministic). The fault layer uses this to tear down transfers
    /// when a host crashes.
    pub fn flows_touching(&self, node: NodeId) -> Vec<FlowId> {
        self.active
            .iter()
            .filter(|f| f.src == node || f.dst == node)
            .map(|f| f.id)
            .collect()
    }

    /// Endpoints of every active flow, ascending by id (deterministic).
    /// The fault layer uses this to find transfers crossing a partition.
    pub fn active_flow_endpoints(&self) -> impl Iterator<Item = (FlowId, NodeId, NodeId)> + '_ {
        self.active.iter().map(|f| (f.id, f.src, f.dst))
    }

    /// Current rate of a flow in bytes/second (0 for finished/unknown).
    pub fn rate_of(&self, id: FlowId) -> f64 {
        self.slot(id).map_or(0.0, |i| self.active[i].rate)
    }

    /// Bytes transferred by a flow so far (0 for reaped/unknown).
    pub fn transferred_of(&self, id: FlowId) -> f64 {
        match (self.slot(id), self.finished.get(&id)) {
            (Some(i), _) => self.active[i].transferred,
            (None, Some(&bytes)) => bytes,
            (None, None) => 0.0,
        }
    }

    /// Fair-share rate from the NIC flow counts (the only inputs).
    fn fair_rate(cap: f64, nics: &[Nic], src: NodeId, dst: NodeId) -> f64 {
        let n_tx = nics[src.0 as usize].tx_flows.max(1) as f64;
        let n_rx = nics[dst.0 as usize].rx_flows.max(1) as f64;
        (cap / n_tx).min(cap / n_rx)
    }

    /// The re-rate pass: every active flow's rate from its two NIC counts,
    /// and the earliest projected completion under the new rates.
    fn rerate(&mut self) {
        let cap = self.config.nic_bytes_per_sec;
        let mut next = None;
        for f in &mut self.active {
            f.rate = Self::fair_rate(cap, &self.nics, f.src, f.dst);
            note_due(&mut next, f.due());
        }
        self.next_due = next;
    }

    /// Settle transfers in `[last_advance, now]`, handling completions that
    /// occur inside the interval (survivors speed up when a flow finishes).
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_advance, "time ran backwards");
        if now == self.last_advance {
            // Coincident settlement (e.g. a sample tick at the same timestamp
            // as an event): nothing can have accrued.
            return;
        }
        let mut remaining_dt = now.since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        while remaining_dt > 0.0 && !self.active.is_empty() {
            // Settle up to the earliest in-interval completion at current
            // rates; `next_due` is exact here.
            let dt_next = self
                .next_due
                .map_or(f64::INFINITY, |(bits, _)| f64::from_bits(bits));
            let step = remaining_dt.min(dt_next);
            let before = self.active.len();
            let (nics, finished) = (&mut self.nics, &mut self.finished);
            let mut next = None;
            self.active.retain_mut(|f| {
                let moved = f.rate * step;
                f.transferred += moved;
                let (src, dst) = (f.src.0 as usize, f.dst.0 as usize);
                nics[src].tx_bytes += moved;
                nics[dst].rx_bytes += moved;
                if let Some(rem) = &mut f.remaining {
                    *rem -= moved;
                    if *rem <= COMPLETION_EPS {
                        nics[src].tx_flows -= 1;
                        nics[dst].rx_flows -= 1;
                        finished.insert(f.id, f.transferred);
                        return false;
                    }
                }
                note_due(&mut next, f.due());
                true
            });
            if self.active.len() < before {
                self.rerate();
            } else {
                self.next_due = next;
            }
            remaining_dt -= step;
        }
    }

    /// Start transferring `bytes` from `src` to `dst` (`None` = persistent
    /// background stream). Call at the current time.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: Option<f64>,
    ) -> FlowId {
        assert_ne!(src, dst, "loopback traffic does not touch the network");
        if let Some(b) = bytes {
            assert!(b > 0.0, "flow must carry at least one byte");
        }
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.nics[src.0 as usize].tx_flows += 1;
        self.nics[dst.0 as usize].rx_flows += 1;
        // Ids only grow, so appending keeps the table ascending.
        self.active.push(Flow {
            id,
            src,
            dst,
            remaining: bytes,
            rate: 0.0,
            transferred: 0.0,
        });
        self.rerate();
        self.version += 1;
        id
    }

    /// Remove a flow (finished or aborted), returning bytes it transferred;
    /// `None` for an id that is unknown or already removed.
    ///
    /// Reaping an already-finished flow changes no rates and bumps no
    /// version: its NIC counts were released when it completed, so pending
    /// completion events stay valid and need no resync churn.
    pub fn end_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.advance(now);
        if let Some(transferred) = self.finished.remove(&id) {
            return Some(transferred);
        }
        let flow = self.active.remove(self.slot(id)?);
        self.nics[flow.src.0 as usize].tx_flows -= 1;
        self.nics[flow.dst.0 as usize].rx_flows -= 1;
        self.rerate();
        self.version += 1;
        Some(flow.transferred)
    }

    /// The earliest upcoming flow completion assuming the flow set does not
    /// change; check [`version`](Self::version) when the event fires. On a
    /// tie the lowest id wins.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, FlowId)> {
        debug_assert!(now >= self.last_advance);
        let best = if now == self.last_advance {
            self.next_due
                .map(|(bits, id)| (f64::from_bits(bits), FlowId(id)))
        } else {
            // Between settlements the cached minimum is no longer the answer
            // to the bit: flows already due all clamp to 0 and the lowest id
            // among them wins. One ascending-id scan, strict `<`.
            let already = now.since(self.last_advance).as_secs_f64();
            let mut best: Option<(f64, FlowId)> = None;
            for f in &self.active {
                let Some((bits, _)) = f.due() else { continue };
                let dt = (f64::from_bits(bits) - already).max(0.0);
                if best.is_none_or(|(b, _)| dt < b) {
                    best = Some((dt, f.id));
                }
            }
            best
        };
        best.map(|(dt, id)| (now + SimDuration::from_secs_f64_ceil(dt), id))
    }

    /// Lowest-id flow that has completed as of the last `advance` and has
    /// not been reaped — the allocation-free way to reap completions one at
    /// a time, in ascending id order.
    pub fn first_finished_flow(&self) -> Option<FlowId> {
        self.finished.keys().next().copied()
    }

    /// Debug check of the table's invariants: `active` strictly ascending
    /// and disjoint from `finished`, every rate bit-equal to a from-scratch
    /// recompute, NIC counts equal to a recount, cached minimum equal to a
    /// recomputed one. Used by the property tests; not part of the public
    /// API.
    #[doc(hidden)]
    pub fn debug_invariants_hold(&self) -> bool {
        let cap = self.config.nic_bytes_per_sec;
        let ascending = self.active.windows(2).all(|w| w[0].id < w[1].id);
        let mut recount = vec![(0u32, 0u32); self.nics.len()];
        let mut next = None;
        for f in &self.active {
            recount[f.src.0 as usize].0 += 1;
            recount[f.dst.0 as usize].1 += 1;
            note_due(&mut next, f.due());
        }
        ascending
            && self.active.iter().all(|f| {
                !self.finished.contains_key(&f.id)
                    && f.remaining.is_none_or(|rem| rem > COMPLETION_EPS)
                    && f.rate.to_bits() == Self::fair_rate(cap, &self.nics, f.src, f.dst).to_bits()
            })
            && self
                .nics
                .iter()
                .zip(&recount)
                .all(|(nic, &(tx, rx))| nic.tx_flows == tx && nic.rx_flows == rx)
            && self.next_due == next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: f64 = 12_500_000.0; // 100 Mbps in bytes/s

    fn net(n: usize) -> Network {
        Network::new(n, NetworkConfig::default())
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn lone_flow_gets_full_capacity() {
        let mut net = net(2);
        let f = net.start_flow(t(0.0), n(0), n(1), Some(CAP));
        assert_eq!(net.rate_of(f), CAP);
        let (done, id) = net.next_completion(t(0.0)).unwrap();
        assert_eq!(id, f);
        assert_eq!(done, t(1.0));
    }

    #[test]
    fn two_flows_same_source_share_tx() {
        let mut net = net(3);
        let a = net.start_flow(t(0.0), n(0), n(1), Some(CAP));
        let b = net.start_flow(t(0.0), n(0), n(2), Some(CAP));
        assert_eq!(net.rate_of(a), CAP / 2.0);
        assert_eq!(net.rate_of(b), CAP / 2.0);
    }

    #[test]
    fn two_flows_same_destination_share_rx() {
        let mut net = net(3);
        let a = net.start_flow(t(0.0), n(0), n(2), Some(CAP));
        let b = net.start_flow(t(0.0), n(1), n(2), Some(CAP));
        assert_eq!(net.rate_of(a), CAP / 2.0);
        assert_eq!(net.rate_of(b), CAP / 2.0);
    }

    #[test]
    fn disjoint_flows_do_not_contend() {
        let mut net = net(4);
        let a = net.start_flow(t(0.0), n(0), n(1), Some(CAP));
        let b = net.start_flow(t(0.0), n(2), n(3), Some(CAP));
        assert_eq!(net.rate_of(a), CAP);
        assert_eq!(net.rate_of(b), CAP);
    }

    #[test]
    fn full_duplex_opposite_directions_independent() {
        let mut net = net(2);
        let a = net.start_flow(t(0.0), n(0), n(1), Some(CAP));
        let b = net.start_flow(t(0.0), n(1), n(0), Some(CAP));
        assert_eq!(net.rate_of(a), CAP);
        assert_eq!(net.rate_of(b), CAP);
    }

    #[test]
    fn completion_frees_capacity_mid_advance() {
        let mut net = net(3);
        // a: 2 cap-seconds worth; b: 0.5 cap-seconds. Sharing the tx NIC:
        // b done at t=1 (rate cap/2). a then speeds up.
        let a = net.start_flow(t(0.0), n(0), n(1), Some(2.0 * CAP));
        let _b = net.start_flow(t(0.0), n(0), n(2), Some(0.5 * CAP));
        net.advance(t(1.0));
        assert!((net.transferred_of(a) - 0.5 * CAP).abs() < 1.0);
        // a has 1.5 cap-seconds left at full rate.
        let (done, id) = net.next_completion(t(1.0)).unwrap();
        assert_eq!(id, a);
        assert!((done.as_secs_f64() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn counters_track_both_ends() {
        let mut net = net(2);
        net.start_flow(t(0.0), n(0), n(1), Some(1000.0));
        net.advance(t(1.0));
        assert!((net.tx_bytes(n(0)) - 1000.0).abs() < 1e-3);
        assert!((net.rx_bytes(n(1)) - 1000.0).abs() < 1e-3);
        assert_eq!(net.tx_bytes(n(1)), 0.0);
        assert_eq!(net.rx_bytes(n(0)), 0.0);
    }

    #[test]
    fn persistent_stream_consumes_share_forever() {
        let mut net = net(3);
        let bg = net.start_flow(t(0.0), n(0), n(1), None);
        let f = net.start_flow(t(0.0), n(0), n(2), Some(CAP));
        assert_eq!(net.rate_of(f), CAP / 2.0);
        let (done, _) = net.next_completion(t(0.0)).unwrap();
        assert_eq!(done, t(2.0));
        net.advance(t(2.0));
        // bg carried cap/2 * 2 s; f finished and bg got the tx NIC back.
        assert!((net.transferred_of(bg) - CAP).abs() < 1.0);
        assert_eq!(net.rate_of(bg), CAP);
        assert!(net.next_completion(t(2.0)).is_none());
    }

    #[test]
    fn end_flow_aborts_and_returns_transferred() {
        let mut net = net(2);
        let f = net.start_flow(t(0.0), n(0), n(1), Some(10.0 * CAP));
        net.advance(t(1.0));
        let moved = net.end_flow(t(1.0), f).unwrap();
        assert!((moved - CAP).abs() < 1.0);
        assert_eq!(net.end_flow(t(1.0), f), None);
    }

    #[test]
    fn version_changes_on_flow_set_changes() {
        let mut net = net(2);
        let v0 = net.version();
        let f = net.start_flow(t(0.0), n(0), n(1), Some(1.0));
        assert!(net.version() > v0);
        let v1 = net.version();
        net.end_flow(t(0.0), f);
        assert!(net.version() > v1);
    }

    #[test]
    fn reaping_finished_flow_keeps_version_and_rates() {
        let mut net = net(3);
        let short = net.start_flow(t(0.0), n(0), n(1), Some(CAP));
        let long = net.start_flow(t(0.0), n(0), n(2), Some(10.0 * CAP));
        net.advance(t(3.0)); // short completed in-interval at t=2
        let v = net.version();
        let rate = net.rate_of(long);
        let moved = net.end_flow(t(3.0), short).unwrap();
        assert!((moved - CAP).abs() < 1.0);
        // The reap removed a finished flow: no rate changed, no resync churn.
        assert_eq!(net.version(), v);
        assert_eq!(net.rate_of(long).to_bits(), rate.to_bits());
    }

    #[test]
    fn coincident_advance_is_a_no_op() {
        let mut net = net(2);
        net.start_flow(t(0.0), n(0), n(1), Some(CAP));
        net.advance(t(0.5));
        let moved = net.tx_bytes(n(0));
        net.advance(t(0.5)); // same timestamp: early return, nothing accrues
        assert_eq!(net.tx_bytes(n(0)).to_bits(), moved.to_bits());
    }

    #[test]
    fn conservation_tx_equals_rx() {
        let mut net = net(4);
        net.start_flow(t(0.0), n(0), n(1), Some(5e6));
        net.start_flow(t(0.5), n(2), n(1), Some(3e6));
        net.start_flow(t(1.0), n(0), n(3), None);
        net.advance(t(4.0));
        let tx: f64 = (0..4).map(|i| net.tx_bytes(n(i))).sum();
        let rx: f64 = (0..4).map(|i| net.rx_bytes(n(i))).sum();
        assert!((tx - rx).abs() < 1e-6);
        assert!(net.debug_invariants_hold());
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_flows_rejected() {
        let mut net = net(2);
        net.start_flow(t(0.0), n(0), n(0), Some(1.0));
    }

    #[test]
    fn equal_flows_finishing_in_one_step_are_reaped_in_ascending_id() {
        // A registration burst: 32 senders, one receiver, same size, same
        // start. All complete in the same settlement step.
        let mut net = net(33);
        let ids: Vec<FlowId> = (1..=32)
            .map(|i| net.start_flow(t(0.0), n(i), n(0), Some(1000.0)))
            .collect();
        let (done, first) = net.next_completion(t(0.0)).unwrap();
        assert_eq!(first, ids[0]);
        net.advance(done);
        assert_eq!(net.rx_flow_count(n(0)), 0);
        let mut reaped = Vec::new();
        while let Some(id) = net.first_finished_flow() {
            assert!((net.end_flow(done, id).unwrap() - 1000.0).abs() < 1e-3);
            reaped.push(id);
        }
        assert_eq!(reaped, ids);
        assert!(net.debug_invariants_hold());
    }

    #[test]
    fn next_completion_between_settlements_prefers_the_lower_id_among_due_flows() {
        let mut net = net(4);
        // Disjoint NICs, full rate each: `a` is due at 0.2 s, `b` at 0.1 s.
        let a = net.start_flow(t(0.0), n(0), n(1), Some(0.2 * CAP));
        let b = net.start_flow(t(0.0), n(2), n(3), Some(0.1 * CAP));
        assert_eq!(net.next_completion(t(0.0)), Some((t(0.1), b)));
        // Unsettled at 0.15 s only `b` is due; at 0.3 s both are, both clamp
        // to "now", and the lower id wins although `b` was due first.
        assert_eq!(net.next_completion(t(0.15)), Some((t(0.15), b)));
        assert_eq!(net.next_completion(t(0.3)), Some((t(0.3), a)));
    }

    #[test]
    fn ending_an_unknown_or_reaped_flow_is_none_and_keeps_the_version() {
        let mut net = net(3);
        let f = net.start_flow(t(0.0), n(0), n(1), Some(1000.0));
        let mut other = Network::new(3, NetworkConfig::default());
        other.start_flow(t(0.0), n(0), n(1), None);
        let never_issued = other.start_flow(t(0.0), n(0), n(2), None);
        net.advance(t(1.0));
        let v = net.version();
        assert_eq!(net.end_flow(t(1.0), never_issued), None);
        assert!(net.end_flow(t(1.0), f).is_some());
        assert_eq!(net.end_flow(t(1.0), f), None);
        assert_eq!(net.version(), v);
        assert!(net.debug_invariants_hold());
    }

    #[test]
    fn ending_a_mid_table_flow_keeps_order_and_rerates_its_nic_mates() {
        let mut net = net(5);
        let a = net.start_flow(t(0.0), n(0), n(1), None);
        let b = net.start_flow(t(0.0), n(0), n(2), Some(10.0 * CAP));
        let c = net.start_flow(t(0.0), n(0), n(3), None);
        let d = net.start_flow(t(0.0), n(4), n(3), None);
        assert_eq!(net.rate_of(c), CAP / 3.0);
        assert_eq!(net.rate_of(d), CAP / 2.0);
        net.advance(t(1.0));
        let v = net.version();
        let moved = net.end_flow(t(1.0), b).unwrap();
        assert!((moved - CAP / 3.0).abs() < 1.0);
        assert!(net.version() > v);
        let left: Vec<FlowId> = net.active_flow_endpoints().map(|(id, ..)| id).collect();
        assert_eq!(left, [a, c, d]);
        assert_eq!(net.tx_flow_count(n(0)), 2);
        assert_eq!(net.rate_of(a), CAP / 2.0);
        assert_eq!(net.rate_of(c), CAP / 2.0);
        assert_eq!(net.rate_of(d), CAP / 2.0);
        assert_eq!(net.rate_of(b), 0.0);
        assert!(net.debug_invariants_hold());
    }

    #[test]
    fn a_clone_of_a_busy_network_advances_to_the_same_bits() {
        let mut net = net(6);
        let mut ids = Vec::new();
        for i in 1..6 {
            ids.push(net.start_flow(t(0.0), n(i), n(0), Some(i as f64 * 1e6)));
            ids.push(net.start_flow(t(0.0), n(0), n(i), None));
        }
        net.advance(t(0.3));
        let mut twin = net.clone();
        for step in 1..=20 {
            let now = t(0.3 + step as f64 * 0.25);
            net.advance(now);
            twin.advance(now);
            assert_eq!(net.next_completion(now), twin.next_completion(now));
            assert_eq!(net.first_finished_flow(), twin.first_finished_flow());
            for &id in &ids {
                assert_eq!(net.rate_of(id).to_bits(), twin.rate_of(id).to_bits());
                assert_eq!(
                    net.transferred_of(id).to_bits(),
                    twin.transferred_of(id).to_bits()
                );
            }
            for node in 0..6 {
                assert_eq!(
                    net.tx_bytes(n(node)).to_bits(),
                    twin.tx_bytes(n(node)).to_bits()
                );
                assert_eq!(
                    net.rx_bytes(n(node)).to_bits(),
                    twin.rx_bytes(n(node)).to_bits()
                );
            }
        }
        assert!(net.first_finished_flow().is_some());
        assert!(twin.debug_invariants_hold());
    }
}
