//! # ars-rescheduler — the autonomic rescheduling runtime (the paper's core)
//!
//! "We present the design and implementation of a runtime support system,
//! which enables dynamic re-allocation of processes in a heterogeneous
//! distributed environment", built from:
//!
//! * [`monitor`] — the per-host monitor: sensor scripts, rule-based state
//!   decision, soft-state push heartbeats, overload confirmation windowing;
//! * [`commander`] — the per-host commander: temp-file destination handoff
//!   plus the user-defined migration signal;
//! * [`regcore`] — the sans-I/O registry/scheduler core: soft-state host
//!   table with leases, latest-completing-time process selection, the one
//!   first-fit destination search, command retransmit bookkeeping, and the
//!   hierarchical candidate escalation — pure inputs in, pure effects out;
//! * [`registry`] — the DES driver replaying core effects onto the
//!   simulation kernel;
//! * [`mod@deploy`] — helpers wiring the entities onto a simulated cluster;
//! * [`live`] — the same core replayed onto real localhost TCP sockets.

#![warn(missing_docs)]

pub mod adaptive;
pub mod commander;
pub mod deploy;
pub mod hooks;
pub mod live;
pub mod monitor;
pub mod regcore;
pub mod registry;

pub use adaptive::{AdaptiveConfig, AdaptiveConfirm};
pub use commander::Commander;
pub use deploy::{deploy, deploy_tree, DeployConfig, Deployment, TreeDeployment};
pub use hooks::{control, DecisionRecord, ReschedHooks, ReschedLog, SchemaBook, CONTROL_TAG};
pub use monitor::{Monitor, MonitorConfig, StateSource};
pub use regcore::{
    CoreEffect, CoreInput, DomainHealth, Endpoint, HostEntry, Liveness, LogEffect, MalleableJob,
    RegistryConfig, RegistryCore, SelectionPolicy, TimerId,
};
pub use registry::RegistryScheduler;
