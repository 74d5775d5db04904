//! # ars-simnet — switched-Ethernet network model
//!
//! Models the testbed's "100 Mbps internal Ethernet with exclusive use": each
//! node has a full-duplex NIC; concurrent flows share NIC capacity fairly.
//! A flow's instantaneous rate is
//!
//! ```text
//! rate(f) = min( cap_tx(src) / n_tx(src), cap_rx(dst) / n_rx(dst) )
//! ```
//!
//! recomputed whenever the flow set changes — an approximate max-min fair
//! share (documented deviation: no global water-filling iteration; with the
//! paper's topologies, where contention is at a single NIC, the two models
//! coincide). Propagation latency is left to the caller (`ars-sim` delays
//! message delivery by the configured latency after the flow completes),
//! keeping this crate a pure bandwidth-sharing model.
//!
//! Per-node cumulative tx/rx byte counters feed the paper's KB/s figures
//! (Fig. 6 and Fig. 8) through [`RateCounter`](ars_simcore::RateCounter)
//! differencing in the sensor layer.

#![warn(missing_docs)]

pub mod net;

pub use net::{FlowId, Network, NetworkConfig, NodeId};
