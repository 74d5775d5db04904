//! Deployment helpers: wire a registry, monitors and commanders onto a
//! simulated cluster the way the paper's evaluation does.

use crate::commander::Commander;
use crate::hooks::{ReschedHooks, SchemaBook};
use crate::monitor::{Monitor, MonitorConfig, StateSource};
use crate::regcore::{Endpoint, MalleableJob, RegistryConfig};
use crate::registry::RegistryScheduler;
use ars_obs::Obs;
use ars_rules::{MonitoringFrequency, Policy};
use ars_sim::{HostId, Pid, Sim, SpawnOpts};
use ars_simcore::SimDuration;
use ars_sysinfo::Ambient;
use std::sync::Arc;

/// Handles to a deployed rescheduler.
pub struct Deployment {
    /// The registry/scheduler process.
    pub registry: Pid,
    /// Monitor process per monitored host (same order as `monitored`).
    pub monitors: Vec<Pid>,
    /// Commander process per monitored host.
    pub commanders: Vec<Pid>,
    /// Shared decision log.
    pub hooks: ReschedHooks,
    /// Shared application-schema book.
    pub schemas: SchemaBook,
}

/// Tunables for [`deploy`].
pub struct DeployConfig {
    /// Policy used by monitors (state) and the registry (destinations).
    pub policy: Policy,
    /// Per-state monitoring frequency.
    pub freq: MonitoringFrequency,
    /// Overload confirmation window.
    pub overload_confirm: SimDuration,
    /// Ambient workstation baseline for the sensors.
    pub ambient: Ambient,
    /// Classify state with the paper rule file instead of the policy.
    pub use_paper_rules: bool,
    /// Registry soft-state lease. Must comfortably exceed the heartbeat
    /// interval or every entry expires between refreshes.
    pub lease: SimDuration,
    /// Self-adjusting confirmation windows for the monitors (§6).
    pub adaptive: Option<crate::adaptive::AdaptiveConfig>,
    /// Push-model heartbeats (the paper's choice); `false` switches the
    /// deployment to on-change reports + registry pulls (§3.2).
    pub push: bool,
    /// Observability session threaded into the registry, monitors and
    /// commanders. Disabled by default (zero cost); enable and also set
    /// `SimConfig::obs` / `HpcmConfig::obs` to the same handle for a
    /// cluster-wide event stream.
    pub obs: Obs,
    /// Malleable applications the registry may grow/shrink with
    /// `expand:`/`shrink:` reconfiguration commands (consumed by [`deploy`];
    /// tree deployments ignore it — resize decisions are a single-registry
    /// concern). Empty by default: the registry's heartbeat path is then
    /// byte-identical to a build without the reconfiguration engine.
    pub malleable_jobs: Vec<MalleableJob>,
    /// Minimum spacing between reconfiguration commands per job.
    pub resize_cooldown: SimDuration,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            policy: Policy::paper_policy2(),
            freq: MonitoringFrequency::default(),
            overload_confirm: SimDuration::from_secs(60),
            ambient: Ambient::default(),
            use_paper_rules: false,
            lease: SimDuration::from_secs(35),
            adaptive: None,
            push: true,
            obs: Obs::disabled(),
            malleable_jobs: Vec::new(),
            resize_cooldown: SimDuration::from_secs(30),
        }
    }
}

/// Deploy a registry on `registry_host` plus a monitor + commander pair on
/// every host in `monitored`.
pub fn deploy(
    sim: &mut Sim,
    registry_host: HostId,
    monitored: &[HostId],
    cfg: DeployConfig,
) -> Deployment {
    let hooks = ReschedHooks::new();
    let schemas = SchemaBook::new();

    let mut reg_cfg = RegistryConfig::new(cfg.policy.clone());
    reg_cfg.name = format!("registry@h{}", registry_host.0);
    reg_cfg.lease = cfg.lease;
    reg_cfg.pull = !cfg.push;
    reg_cfg.obs = cfg.obs.clone();
    reg_cfg.malleable_jobs = cfg.malleable_jobs.clone();
    reg_cfg.resize_cooldown = cfg.resize_cooldown;
    let registry = sim.spawn(
        registry_host,
        Box::new(RegistryScheduler::new(
            reg_cfg,
            schemas.clone(),
            hooks.clone(),
        )),
        SpawnOpts::named("ars_registry"),
    );

    let (monitors, commanders) = spawn_host_entities(sim, monitored, &[registry], &cfg, &schemas);

    Deployment {
        registry,
        monitors,
        commanders,
        hooks,
        schemas,
    }
}

/// Handles to a deployed arbitrary-depth registry tree.
pub struct TreeDeployment {
    /// The root registry.
    pub root: Pid,
    /// Registries by level: `levels[0]` is `[root]`, the last level is the
    /// leaves.
    pub levels: Vec<Vec<Pid>>,
    /// The leaf registries (same pids as the last level).
    pub leaves: Vec<Pid>,
    /// Monitor process per monitored host (same order as `monitored`).
    pub monitors: Vec<Pid>,
    /// Commander process per monitored host.
    pub commanders: Vec<Pid>,
    /// Shared decision log (all registries write to it).
    pub hooks: ReschedHooks,
    /// Shared application-schema book.
    pub schemas: SchemaBook,
}

/// Deploy an arbitrary-depth registry tree on `registry_host`: a root,
/// then one level of registries per entry of `fanout` (level `L` has
/// `fanout[0] * … * fanout[L-1]` nodes, node `i` parented to node
/// `i / fanout[L-1]` of the level above). The last level is the leaves;
/// hosts in `monitored` are assigned to leaves round-robin.
///
/// Candidate searches escalate leaf → … → root (each level probes its
/// other children before relaying upward), and every registry pushes
/// rate-limited [`ars_xmlwire::Message::DomainReport`] summaries to its
/// parent — mids aggregate their whole subtree — so registry fan-in stays
/// bounded at any cluster size.
pub fn deploy_tree(
    sim: &mut Sim,
    registry_host: HostId,
    monitored: &[HostId],
    fanout: &[usize],
    cfg: DeployConfig,
) -> TreeDeployment {
    let hooks = ReschedHooks::new();
    let schemas = SchemaBook::new();
    let fanout: Vec<usize> = if fanout.is_empty() {
        vec![1]
    } else {
        fanout.iter().map(|&f| f.max(1)).collect()
    };
    let depth = fanout.len();

    let mut root_cfg = RegistryConfig::new(cfg.policy.clone());
    root_cfg.name = format!("root@h{}", registry_host.0);
    root_cfg.lease = cfg.lease;
    root_cfg.obs = cfg.obs.clone();
    let root = sim.spawn(
        registry_host,
        Box::new(RegistryScheduler::new(
            root_cfg,
            schemas.clone(),
            hooks.clone(),
        )),
        SpawnOpts::named("ars_registry_root"),
    );

    let mut levels: Vec<Vec<Pid>> = vec![vec![root]];
    for (l, &f) in fanout.iter().enumerate() {
        let level = l + 1; // 1-based: level 0 is the root
        let count = levels[l].len() * f;
        let is_leaf = level == depth;
        let mut nodes = Vec::with_capacity(count);
        for i in 0..count {
            let parent = levels[l][i / f];
            let mut node_cfg = RegistryConfig::new(cfg.policy.clone());
            node_cfg.name = if is_leaf {
                format!("domain{i}@h{}", registry_host.0)
            } else {
                format!("mid{level}.{i}@h{}", registry_host.0)
            };
            node_cfg.lease = cfg.lease;
            // Only leaves field heartbeats, so only they need the pull
            // switch; mids and the root just route searches and reports.
            if is_leaf {
                node_cfg.pull = !cfg.push;
            }
            node_cfg.parent = Some(Endpoint::from(parent));
            node_cfg.obs = cfg.obs.clone();
            // The grandparent is this node's fallback parent: the node
            // above its parent, or `None` when the parent is already the
            // root (those children buffer-and-retry).
            node_cfg.grandparent =
                (l >= 1).then(|| Endpoint::from(levels[l - 1][(i / f) / fanout[l - 1]]));
            let spawn_name = if is_leaf {
                format!("ars_registry_d{i}")
            } else {
                format!("ars_registry_m{level}_{i}")
            };
            nodes.push(sim.spawn(
                registry_host,
                Box::new(RegistryScheduler::new(
                    node_cfg,
                    schemas.clone(),
                    hooks.clone(),
                )),
                SpawnOpts::named(spawn_name),
            ));
        }
        levels.push(nodes);
    }
    let leaves = levels[depth].clone();

    let (monitors, commanders) = spawn_host_entities(sim, monitored, &leaves, &cfg, &schemas);

    TreeDeployment {
        root,
        levels,
        leaves,
        monitors,
        commanders,
        hooks,
        schemas,
    }
}

/// Spawn a commander + monitor pair on every host in `monitored`, host `i`
/// reporting to `registries[i % registries.len()]` (one registry: a flat
/// deployment; the leaves of a tree: round-robin domains). Returns the
/// monitor and commander pids in `monitored` order.
fn spawn_host_entities(
    sim: &mut Sim,
    monitored: &[HostId],
    registries: &[Pid],
    cfg: &DeployConfig,
    schemas: &SchemaBook,
) -> (Vec<Pid>, Vec<Pid>) {
    let mut monitors = Vec::new();
    let mut commanders = Vec::new();
    // One classifier for the whole deployment; every monitor shares it.
    let state_source = if cfg.use_paper_rules {
        StateSource::Rules(Arc::new(ars_rules::RuleSet::paper()))
    } else {
        StateSource::Policy(Arc::new(cfg.policy.clone()))
    };
    for (i, &host) in monitored.iter().enumerate() {
        let registry = registries[i % registries.len()];
        // Commander first so the monitor can be pointed at it: after a
        // registry restart the monitor relays the `ReRegister` nudge to the
        // local commander, which re-sends its own `Register`.
        let commander = sim.spawn(
            host,
            Box::new(Commander::new(registry).with_obs(cfg.obs.clone())),
            SpawnOpts::named("ars_commander"),
        );
        commanders.push(commander);
        let mon_cfg = MonitorConfig {
            registry,
            state_source: state_source.clone(),
            freq: cfg.freq,
            ambient: cfg.ambient.clone(),
            overload_confirm: cfg.overload_confirm,
            adaptive: cfg.adaptive.clone(),
            push: cfg.push,
            commander: Some(commander),
        };
        monitors.push(sim.spawn(
            host,
            Box::new(Monitor::new(mon_cfg, schemas.clone()).with_obs(cfg.obs.clone())),
            SpawnOpts::named("ars_monitor"),
        ));
    }
    (monitors, commanders)
}
