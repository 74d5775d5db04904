//! # ars — A Runtime System for Autonomic Rescheduling of MPI Programs
//!
//! A full reproduction of Du, Ghosh, Shankar & Sun (ICPP 2004): a runtime
//! system that *autonomically reschedules running MPI processes* across a
//! network of workstations — rule-based monitors classify each host as
//! free / busy / overloaded, a soft-state registry/scheduler picks the
//! process with the latest completing time and a first-fit destination, a
//! commander signals the process, and HPCM-style middleware migrates its
//! execution, memory and communication state over MPI-2 dynamic process
//! management.
//!
//! Because the paper's testbed (a 64-node Sun Blade cluster with LAM/MPI
//! and the HPCM pre-compiler) is not reproducible directly, every substrate
//! is rebuilt as a deterministic simulation — see `DESIGN.md` for the
//! substitution map and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use ars::prelude::*;
//!
//! // A 3-workstation cluster: registry on ws0, monitored hosts ws1/ws2.
//! let mut sim = Sim::new(
//!     vec![
//!         HostConfig::named("ws0"),
//!         HostConfig::named("ws1"),
//!         HostConfig::named("ws2"),
//!     ],
//!     SimConfig::default(),
//! );
//! let dep = deploy(
//!     &mut sim,
//!     HostId(0),
//!     &[HostId(1), HostId(2)],
//!     DeployConfig::default(),
//! );
//!
//! // A migration-enabled application on ws1.
//! let app = TestTree::new(TestTreeConfig::small());
//! dep.schemas.put(MigratableApp::schema(&app));
//! let hpcm = HpcmHooks::new();
//! let pid = HpcmShell::spawn_on(
//!     &mut sim, HostId(1), app, HpcmConfig::default(), None, hpcm.clone(),
//! );
//!
//! // Overload ws1 and let the rescheduler react.
//! sim.spawn(HostId(1), Box::new(Spinner::default()), SpawnOpts::named("hog"));
//! sim.spawn(HostId(1), Box::new(Spinner::default()), SpawnOpts::named("hog"));
//! sim.run_until(SimTime::from_secs(600));
//!
//! assert!(hpcm.migration_count() <= 1);
//! let _ = pid;
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`simcore`] | DES kernel: virtual time, events, RNG, shared resources |
//! | [`simhost`] | Workstation model: CPU, load averages, memory, disks |
//! | [`simnet`]  | 100 Mbps switched-Ethernet flow model |
//! | [`sim`]     | Cluster simulator: processes, ops, messages, signals |
//! | [`sysinfo`] | vmstat/netstat/… sensor scripts with CPU cost |
//! | [`xmlwire`] | XML wire protocol + application schema |
//! | [`rules`]   | Simple/complex rules, rule files, policies |
//! | [`mpisim`]  | MPI-2 subset incl. dynamic process management |
//! | [`hpcm`]    | Migration middleware (poll-points, state transfer) |
//! | [`rescheduler`] | Monitor, commander, registry/scheduler, live TCP |
//! | [`apps`]    | test_tree and the other workloads |
//! | [`obs`]     | Zero-cost observability: typed events, counters, histograms |

#![warn(missing_docs)]

pub use ars_apps as apps;
pub use ars_hpcm as hpcm;
pub use ars_mpisim as mpisim;
pub use ars_obs as obs;
pub use ars_rescheduler as rescheduler;
pub use ars_rules as rules;
pub use ars_sim as sim;
pub use ars_simcore as simcore;
pub use ars_simhost as simhost;
pub use ars_simnet as simnet;
pub use ars_sysinfo as sysinfo;
pub use ars_xmlwire as xmlwire;

/// The names most programs need.
pub mod prelude {
    pub use ars_apps::{
        Chatter, CommFlood, CpuHog, DaemonNoise, MalleableStencil, MalleableStencilConfig,
        MalleableTree, MalleableTreeConfig, Sink, Spinner, Stencil, StencilConfig, TestTree,
        TestTreeConfig,
    };
    pub use ars_hpcm::{
        dest_file_path, AppStatus, HpcmConfig, HpcmHooks, HpcmShell, MigratableApp,
        MigrationOutcome, MigrationRecord, Reconfiguration, ResizeKind, ResizeRecord, SavedState,
        MIGRATE_SIGNAL,
    };
    pub use ars_mpisim::{CommId, Mpi, Rank, ReduceOp, TaskId};
    pub use ars_obs::{Obs, ObsEvent, ObsHistogram, ObsKind, ObsRecord};
    pub use ars_rescheduler::{
        deploy, deploy_tree, Commander, DeployConfig, Deployment, DomainHealth, Endpoint, Liveness,
        MalleableJob, Monitor, MonitorConfig, RegistryConfig, RegistryCore, RegistryScheduler,
        ReschedHooks, SchemaBook, StateSource, TreeDeployment,
    };
    pub use ars_rules::{
        metric_keys, Condition, HostState, MonitoringFrequency, Policy, ResizeAction, ResizeMetric,
        ResizeRule, RuleOp, RuleSet, SimpleRule,
    };
    pub use ars_sim::{
        run_sharded, Ctx, Envelope, Fault, FaultPlan, FaultStats, HostId, MessageFaults, Payload,
        Pid, Program, RecvFilter, ScheduleParams, ShardSession, ShardSpec, ShardedConfig,
        ShardedRun, Sim, SimConfig, SpawnOpts, TraceKind, Wake, RESTART_SIGNAL,
    };
    pub use ars_simcore::{SimDuration, SimTime};
    pub use ars_simhost::HostConfig;
    pub use ars_sysinfo::Ambient;
    pub use ars_xmlwire::{ApplicationSchema, Message, Metrics};
}
