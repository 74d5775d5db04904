//! # ars-sim — the cluster simulator
//!
//! Composes the host model (`ars-simhost`), the network model
//! (`ars-simnet`) and the DES kernel (`ars-simcore`) into a full cluster
//! simulation in which processes are explicit-continuation state machines
//! ([`Program`]s) issuing [`Op`]s: compute bursts, message sends and
//! receives, sleeps, spawns and exits.
//!
//! The op boundary doubles as the HPCM *poll-point*: between ops a program
//! regains control, may check pending signals (that is how the commander's
//! migration command reaches the migrating process) and may hand off its
//! state. Everything above this crate — the MPI-2 subset, the migration
//! middleware, the rescheduler entities, the workloads — is written as
//! programs against [`Ctx`].

#![warn(missing_docs)]

pub mod ctx;
pub mod ids;
pub mod message;
pub mod program;
pub mod recorder;
pub mod sim;
pub mod trace;

pub use ars_faults::{
    Fault, FaultPlan, FaultStats, MessageFaults, ScheduleParams, TimedFault, RESTART_SIGNAL,
};
pub use ctx::Ctx;
pub use ids::{HostId, Pid};
pub use message::{Envelope, Payload, RecvFilter, WIRE_HEADER_BYTES};
pub use program::{Op, Program, SpawnOpts, Wake};
pub use recorder::{HostSeries, Recorder};
pub use sim::{Kernel, Sim, SimConfig};
pub use trace::{Trace, TraceEvent, TraceKind};
