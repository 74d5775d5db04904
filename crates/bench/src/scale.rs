//! The `bench_scale` scenario: an N-workstation cluster under push-model
//! heartbeats with one host overloading and migrating its application.
//!
//! The same scenario runs in two kernel modes so the wall-clock difference
//! isolates the O(touched)-work settlement path:
//!
//! * **baseline** — `SimConfig::baseline_full_resync` and
//!   `RegistryConfig::linear_first_fit` both set: every event settles every
//!   host and destination selection scans the whole host table.
//! * **optimized** — the default dirty-set / indexed path.
//!
//! The network has one implementation in both modes (`ars-simnet`'s dense
//! flow table; its settle-everything twin lives on only as that crate's
//! test-side reference model).
//!
//! Both modes must produce the identical event trace; `bench_scale` asserts
//! that at the smallest N before timing anything.

use ars_apps::{DaemonNoise, PollDaemon, Spinner, TestTree, TestTreeConfig};
use ars_hpcm::{HpcmConfig, HpcmHooks, MigratableApp};
use ars_rescheduler::{
    deploy_tree, Commander, DeployConfig, Monitor, MonitorConfig, RegistryConfig,
    RegistryScheduler, ReschedHooks, SchemaBook, StateSource,
};
use ars_rules::{MonitoringFrequency, Policy};
use ars_sim::{run_sharded, HostId, ShardSpec, ShardedConfig, Sim, SimConfig, SpawnOpts};
use ars_simcore::{SimDuration, SimTime};
use ars_simhost::HostConfig;
use ars_simnet::NodeId;
use ars_sysinfo::Ambient;
use std::sync::Arc;

/// Which kernel paths the run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleMode {
    /// Settle-everything baseline (all `baseline_*` flags set).
    Baseline,
    /// The default O(touched)-work path.
    Optimized,
}

/// Result of one scenario run.
pub struct ScaleRun {
    /// Completed migrations (must be ≥ 1 or the scenario is vacuous).
    pub migrations: usize,
    /// Rendered trace events when recording was requested.
    pub trace: Option<Vec<String>>,
    /// Kernel events handled (the events/sec numerator).
    pub events_handled: u64,
    /// Fraction of the registry host's NIC receive capacity consumed over
    /// the run horizon — the saturation headroom of the control plane's
    /// single busiest link. For sharded cells this is the *hottest* shard
    /// registry (each shard has its own).
    pub registry_nic_util: f64,
}

/// Receive-side utilization of the registry machine's NIC: bytes that
/// arrived at `NodeId(0)` (the registry host in every scale scenario)
/// divided by line rate × horizon.
fn registry_nic_util(sim: &Sim) -> f64 {
    let net = &sim.kernel().net;
    net.rx_bytes(NodeId(0)) / (net.config().nic_bytes_per_sec * RUN_S as f64)
}

/// Render a trace event the way every equivalence gate compares them.
pub fn render_event(e: &ars_sim::TraceEvent) -> String {
    format!("{:?} {:?} {}", e.t, e.kind, e.detail)
}

/// Simulated horizon of the scenario, seconds.
pub const RUN_S: u64 = 900;

/// Run the heartbeat + migration scenario on `n_hosts` workstations.
///
/// Host 0 is the registry machine; hosts `1..=n_hosts` each run a monitor,
/// a commander and light ambient daemon noise. An HPCM-wrapped application
/// starts on host 1; two spinners arrive there at t = 100 s, the monitor
/// confirms the overload and the registry picks a destination among the
/// other `n_hosts - 1` free workstations.
pub fn heartbeat_migration(
    n_hosts: usize,
    seed: u64,
    mode: ScaleMode,
    record_trace: bool,
) -> ScaleRun {
    let (mut sim, hpcm) = build_scale_sim(n_hosts, seed, mode, record_trace);
    sim.run_until(SimTime::from_secs(RUN_S));

    let trace = record_trace.then(|| {
        sim.kernel()
            .trace
            .events()
            .iter()
            .map(render_event)
            .collect()
    });
    ScaleRun {
        migrations: hpcm.migration_count(),
        trace,
        events_handled: sim.kernel().events_handled(),
        registry_nic_util: registry_nic_util(&sim),
    }
}

/// Build the flat scenario and run it to t = 100 s (overload injected,
/// spinners running). [`heartbeat_migration`] finishes it in one
/// `run_until`; the sharded cells hand the sim to the shard coordinator,
/// which drives the rest in epochs.
fn build_scale_sim(
    n_hosts: usize,
    seed: u64,
    mode: ScaleMode,
    record_trace: bool,
) -> (Sim, HpcmHooks) {
    assert!(n_hosts >= 2, "need a migration destination");
    let baseline = mode == ScaleMode::Baseline;
    let mut sim = Sim::new(
        (0..=n_hosts)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            trace: record_trace,
            baseline_full_resync: baseline,
            ..SimConfig::default()
        },
    );

    let hooks = ReschedHooks::new();
    let schemas = SchemaBook::new();
    let registry = sim.spawn(
        HostId(0),
        Box::new(RegistryScheduler::new(
            {
                let mut c = RegistryConfig::new(Policy::paper_policy2());
                c.name = "registry@h0".to_string();
                c.linear_first_fit = baseline;
                c
            },
            schemas.clone(),
            hooks.clone(),
        )),
        SpawnOpts::named("ars_registry"),
    );
    // Monitors come up staggered across the first heartbeat interval, the
    // way real daemons boot — this also keeps the registration burst and
    // every later heartbeat round from hitting the registry NIC in lockstep.
    let stagger = SimDuration::from_secs(10) / n_hosts as u64;
    for i in 1..=n_hosts {
        let host = HostId(i as u32);
        sim.run_until(SimTime::ZERO + stagger * (i - 1) as u64);
        sim.spawn(
            host,
            Box::new(Monitor::new(
                MonitorConfig {
                    registry,
                    state_source: StateSource::Policy(Arc::new(Policy::paper_policy2())),
                    freq: MonitoringFrequency {
                        free: SimDuration::from_secs(10),
                        busy: SimDuration::from_secs(10),
                        overloaded: SimDuration::from_secs(5),
                    },
                    ambient: Ambient::default(),
                    overload_confirm: SimDuration::from_secs(60),
                    adaptive: None,
                    push: true,
                    commander: None,
                },
                schemas.clone(),
            )),
            SpawnOpts::named("ars_monitor"),
        );
        sim.spawn(
            host,
            Box::new(Commander::new(registry)),
            SpawnOpts::named("ars_commander"),
        );
        // Workstation owner + OS housekeeping activity: short sub-second
        // bursts. This is what "non-dedicated cluster" means for the DES —
        // a steady stream of events that touch exactly one host each.
        sim.spawn(
            host,
            Box::new(DaemonNoise::new(0.1, 1.0)),
            SpawnOpts::named("daemons"),
        );
        // Plus the polling services every real workstation runs (session
        // manager, network daemons): frequent single-host wake-ups with no
        // CPU load — the event class where per-event O(cluster) work in the
        // baseline kernel is pure overhead.
        sim.spawn(
            host,
            Box::new(PollDaemon::new(0.5)),
            SpawnOpts::named("session"),
        );
        sim.spawn(
            host,
            Box::new(PollDaemon::new(1.0)),
            SpawnOpts::named("netsvc"),
        );
    }

    let app = TestTree::new(TestTreeConfig {
        trees: 16,
        levels: 13,
        node_cost_build: 2e-3,
        node_cost_sort: 3e-3,
        node_cost_sum: 1e-3,
        chunk_nodes: 1024,
        rss_kb: 24_576,
        seed,
    });
    let hpcm = HpcmHooks::new();
    schemas.put(MigratableApp::schema(&app));
    ars_hpcm::HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );

    sim.run_until(SimTime::from_secs(100));
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    (sim, hpcm)
}

/// Epoch length for the sharded cells: exchanges happen every simulated
/// 100 s. The shard scenarios are fully separable (no cross-shard
/// traffic), so the epoch only determines where `run_until` is split.
pub const SHARD_EPOCH_S: u64 = 100;

/// The flat scenario run as `shards` independent sub-simulations of
/// `hosts_per_shard` workstations each (shard `i` uses `seed + i`), under
/// the sharded kernel. With `parallel` the shards run on worker threads;
/// either way the merged trace and per-shard migration counts are
/// deterministic and identical to the sequential interleaving.
pub fn sharded_migration(
    shards: usize,
    hosts_per_shard: usize,
    seed: u64,
    parallel: bool,
    record_trace: bool,
) -> ScaleRun {
    let specs: Vec<ShardSpec<(), (usize, f64)>> = (0..shards)
        .map(|_| {
            ShardSpec::isolated(move |idx| {
                let (sim, hpcm) = build_scale_sim(
                    hosts_per_shard,
                    seed + idx as u64,
                    ScaleMode::Optimized,
                    record_trace,
                );
                let finish = move |sim: Sim| (hpcm.migration_count(), registry_nic_util(&sim));
                (sim, finish)
            })
        })
        .collect();
    let run = run_sharded(
        specs,
        ShardedConfig {
            epoch: SimDuration::from_secs(SHARD_EPOCH_S),
            until: SimTime::from_secs(RUN_S),
            parallel,
        },
    );
    ScaleRun {
        migrations: run.outputs.iter().map(|(m, _)| m).sum(),
        trace: record_trace.then(|| run.trace.iter().map(render_event).collect()),
        events_handled: run.events_handled,
        registry_nic_util: run.outputs.iter().map(|&(_, u)| u).fold(0.0, f64::max),
    }
}

/// The flat scenario driven exactly the way a single shard experiences
/// it: built to t = 100 s, then `run_until` at every epoch barrier. The
/// sharded-vs-single byte-identity gate compares against this (epoch
/// splitting legitimately re-times float settlement, so the monolithic
/// single-`run_until` trace is not the right reference).
pub fn sharded_single_reference(n_hosts: usize, seed: u64) -> ScaleRun {
    let (mut sim, hpcm) = build_scale_sim(n_hosts, seed, ScaleMode::Optimized, true);
    let mut t = SimTime::ZERO + SimDuration::from_secs(SHARD_EPOCH_S);
    let until = SimTime::from_secs(RUN_S);
    while t < until {
        sim.run_until(t);
        t += SimDuration::from_secs(SHARD_EPOCH_S);
    }
    sim.run_until(until);
    ScaleRun {
        migrations: hpcm.migration_count(),
        trace: Some(
            sim.kernel()
                .trace
                .events()
                .iter()
                .map(render_event)
                .collect(),
        ),
        events_handled: sim.kernel().events_handled(),
        registry_nic_util: registry_nic_util(&sim),
    }
}

/// The overload + migration scenario under a **two-level registry
/// hierarchy**: a root registry plus `domains` leaf registries on host 0,
/// with the `n_hosts` workstations assigned to domains round-robin. Every
/// leaf pushes periodic `DomainReport` health summaries to the root (the
/// cross-domain routing input), so this cell measures the hierarchy's
/// steady-state cost on top of the flat scenario — same app, same overload
/// at t = 100 s, same ambient noise.
pub fn hierarchical_migration(n_hosts: usize, domains: usize, seed: u64) -> ScaleRun {
    tree_migration(n_hosts, &[domains], seed).run
}

/// Everything the tree cells and the hierarchy-equivalence tests need
/// from one [`tree_migration`] run.
pub struct TreeRun {
    /// Migration count + kernel event count.
    pub run: ScaleRun,
    /// All scheduling decisions, from every registry in the tree.
    pub decisions: Vec<ars_rescheduler::DecisionRecord>,
    /// `(from, to)` hosts of the completed migration, if one happened.
    pub moved: Option<(HostId, HostId)>,
}

/// The same scenario as [`tree_migration`] under a single flat registry
/// ([`ars_rescheduler::deploy`]): the depth-0 baseline the hierarchy
/// equivalence tests compare against.
pub fn flat_migration(n_hosts: usize, seed: u64) -> TreeRun {
    tree_scenario(n_hosts, None, seed)
}

/// [`hierarchical_migration`] generalized to an arbitrary-depth registry
/// tree ([`deploy_tree`] with the given `fanout`). `fanout == &[d]` is
/// byte-for-byte the old two-level deployment.
pub fn tree_migration(n_hosts: usize, fanout: &[usize], seed: u64) -> TreeRun {
    tree_scenario(n_hosts, Some(fanout), seed)
}

fn tree_scenario(n_hosts: usize, fanout: Option<&[usize]>, seed: u64) -> TreeRun {
    assert!(n_hosts >= 2, "need a migration destination");
    let mut sim = Sim::new(
        (0..=n_hosts)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );

    let monitored: Vec<HostId> = (1..=n_hosts).map(|i| HostId(i as u32)).collect();
    let cfg = DeployConfig {
        freq: MonitoringFrequency {
            free: SimDuration::from_secs(10),
            busy: SimDuration::from_secs(10),
            overloaded: SimDuration::from_secs(5),
        },
        overload_confirm: SimDuration::from_secs(60),
        ..DeployConfig::default()
    };
    let (hooks, schemas) = match fanout {
        Some(f) => {
            let dep = deploy_tree(&mut sim, HostId(0), &monitored, f, cfg);
            (dep.hooks, dep.schemas)
        }
        None => {
            let dep = ars_rescheduler::deploy(&mut sim, HostId(0), &monitored, cfg);
            (dep.hooks, dep.schemas)
        }
    };
    for &host in &monitored {
        sim.spawn(
            host,
            Box::new(DaemonNoise::new(0.1, 1.0)),
            SpawnOpts::named("daemons"),
        );
        sim.spawn(
            host,
            Box::new(PollDaemon::new(0.5)),
            SpawnOpts::named("session"),
        );
    }

    let app = TestTree::new(TestTreeConfig {
        trees: 16,
        levels: 13,
        node_cost_build: 2e-3,
        node_cost_sort: 3e-3,
        node_cost_sum: 1e-3,
        chunk_nodes: 1024,
        rss_kb: 24_576,
        seed,
    });
    let hpcm = HpcmHooks::new();
    schemas.put(MigratableApp::schema(&app));
    ars_hpcm::HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );

    sim.run_until(SimTime::from_secs(100));
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(SimTime::from_secs(RUN_S));

    let decisions = hooks.0.borrow().decisions.clone();
    TreeRun {
        run: ScaleRun {
            migrations: hpcm.migration_count(),
            trace: None,
            events_handled: sim.kernel().events_handled(),
            registry_nic_util: registry_nic_util(&sim),
        },
        decisions,
        moved: hpcm.last_migration().map(|m| (m.from, m.to)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_scenario_migrates() {
        // Small instance of the bench_scale hierarchical cell: the overload
        // on ws1 must still produce a migration when scheduling goes
        // through a leaf registry with a root above it.
        let run = hierarchical_migration(8, 2, 11);
        assert!(run.migrations >= 1, "no migration under the hierarchy");
    }
}
