//! Design-choice ablations (the DESIGN.md A1–A4 experiments).

use ars_apps::{CpuHog, DaemonNoise, Spinner, TestTree, TestTreeConfig};
use ars_hpcm::{HpcmConfig, HpcmHooks, MigratableApp};
use ars_rescheduler::{
    deploy, Commander, DeployConfig, Monitor, MonitorConfig, RegistryConfig, RegistryScheduler,
    ReschedHooks, SchemaBook, StateSource,
};
use ars_rules::{MonitoringFrequency, Policy};
use ars_sim::{HostId, Pid, Sim, SimConfig, SpawnOpts};
use ars_simcore::{SimDuration, SimTime};
use ars_simhost::HostConfig;
use ars_simnet::NodeId;
use ars_sysinfo::Ambient;
use std::sync::Arc;

fn small_tree(seed: u64) -> TestTreeConfig {
    TestTreeConfig {
        trees: 8,
        levels: 13,
        node_cost_build: 2e-3,
        node_cost_sort: 3e-3,
        node_cost_sum: 1e-3,
        chunk_nodes: 1024,
        rss_kb: 24_576,
        seed,
    }
}

/// A1 — warm-up window vs false migrations.
///
/// A short burst (the paper: "if the additional load is a short task, this
/// period of time can avoid the fault migration") hits the host first; a
/// long overload follows later. For each confirmation window we report
/// whether the short burst caused a (false) migration, and the detection
/// delay for the real overload.
pub struct WarmupOutcome {
    /// Confirmation window, seconds.
    pub confirm_s: u64,
    /// The short burst triggered a migration.
    pub false_migration: bool,
    /// Seconds from the long load's arrival to the migration poll-point
    /// (`None` when no migration happened at all).
    pub detection_s: Option<f64>,
}

/// Run A1 for one window length.
pub fn warmup(confirm_s: u64, seed: u64) -> WarmupOutcome {
    let mut sim = Sim::new(
        (0..3)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2)],
        DeployConfig {
            overload_confirm: SimDuration::from_secs(confirm_s),
            ..DeployConfig::default()
        },
    );
    let mut app_cfg = small_tree(seed);
    app_cfg.trees = 16; // stay alive through the whole sweep
    let app = TestTree::new(app_cfg);
    dep.schemas.put(MigratableApp::schema(&app));
    let hpcm = HpcmHooks::new();
    ars_hpcm::HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );

    // Short burst at t = 100: two 30-CPU-second hogs. Under processor
    // sharing with the application they hold the run queue at 3 for about
    // 90 s — long enough for the 1-minute load average to cross the
    // trigger, short enough that only a weakly-confirmed monitor migrates.
    sim.run_until(SimTime::from_secs(100));
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(CpuHog::new(30.0)),
            SpawnOpts::named("burst"),
        );
    }
    sim.run_until(SimTime::from_secs(400));
    let false_migration = hpcm.migration_count() > 0;

    // Real overload at t = 400.
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(SimTime::from_secs(2500));
    let detection_s = hpcm
        .last_migration()
        .filter(|_| hpcm.migration_count() > usize::from(false_migration))
        .map(|m| m.pollpoint_at.since(SimTime::from_secs(400)).as_secs_f64());
    WarmupOutcome {
        confirm_s,
        false_migration,
        detection_s,
    }
}

/// A2 — pre-initialized destination processes vs cold dynamic spawn.
pub struct PreinitOutcome {
    /// True when destinations were pre-initialized.
    pub pre_initialized: bool,
    /// Poll-point → resume latency, seconds.
    pub resume_s: f64,
    /// Poll-point → lazy completion, seconds.
    pub total_s: f64,
}

/// Run A2 for one setting.
pub fn preinit(pre_initialized: bool, seed: u64) -> PreinitOutcome {
    let mut sim = Sim::new(
        (0..3)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let hpcm = HpcmHooks::new();
    let mut cfg = small_tree(seed);
    cfg.rss_kb = 49_152;
    let pid = ars_hpcm::HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        TestTree::new(cfg),
        HpcmConfig {
            pre_initialized,
            ..HpcmConfig::default()
        },
        None,
        hpcm.clone(),
    );
    sim.run_until(SimTime::from_secs(20));
    sim.kernel_mut().hosts[1].write_file(ars_hpcm::dest_file_path(pid), "ws2:7801");
    sim.signal(pid, ars_hpcm::MIGRATE_SIGNAL);
    sim.run_until(SimTime::from_secs(600));
    let m = hpcm.last_migration().expect("migrated");
    PreinitOutcome {
        pre_initialized,
        resume_s: m.resumed_at.unwrap().since(m.pollpoint_at).as_secs_f64(),
        total_s: m.lazy_done_at.unwrap().since(m.pollpoint_at).as_secs_f64(),
    }
}

/// A3 — centralized vs hierarchical registry at scale.
pub struct HierarchyOutcome {
    /// Monitored hosts.
    pub n_hosts: usize,
    /// Registry domains (1 = centralized).
    pub domains: usize,
    /// Control bytes received per second at the busiest registry host.
    pub registry_rx_bps: f64,
    /// Heartbeat interval used.
    pub heartbeat_s: u64,
}

/// Run A3: `n_hosts` monitored workstations split across `domains`
/// registries (all registries co-located on dedicated hosts), measuring
/// inbound control traffic at the busiest registry NIC.
pub fn hierarchy(n_hosts: usize, domains: usize, seed: u64) -> HierarchyOutcome {
    assert!(domains >= 1);
    let heartbeat_s = 10u64;
    // Hosts 0..domains are registry machines; the rest are workstations.
    let total = domains + n_hosts;
    let mut sim = Sim::new(
        (0..total)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let schemas = SchemaBook::new();
    let hooks = ReschedHooks::new();
    // Parent (only used when domains > 1) lives on host 0 too.
    let parent: Option<Pid> = (domains > 1).then(|| {
        sim.spawn(
            HostId(0),
            Box::new(RegistryScheduler::new(
                {
                    let mut c = RegistryConfig::new(Policy::paper_policy2());
                    c.name = "parent".to_string();
                    c
                },
                schemas.clone(),
                hooks.clone(),
            )),
            SpawnOpts::named("ars_registry_parent"),
        )
    });
    let registries: Vec<Pid> = (0..domains)
        .map(|d| {
            sim.spawn(
                HostId(d as u32),
                Box::new(RegistryScheduler::new(
                    {
                        let mut c = RegistryConfig::new(Policy::paper_policy2());
                        c.name = format!("domain{d}");
                        c.parent = parent.map(ars_rescheduler::Endpoint::from);
                        c
                    },
                    schemas.clone(),
                    hooks.clone(),
                )),
                SpawnOpts::named("ars_registry"),
            )
        })
        .collect();

    for i in 0..n_hosts {
        let host = HostId((domains + i) as u32);
        let registry = registries[i % domains];
        sim.spawn(
            host,
            Box::new(Monitor::new(
                MonitorConfig {
                    registry,
                    state_source: StateSource::Policy(Arc::new(Policy::paper_policy2())),
                    freq: MonitoringFrequency {
                        free: SimDuration::from_secs(heartbeat_s),
                        busy: SimDuration::from_secs(heartbeat_s),
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
        // Light ambient activity so heartbeats carry realistic metrics.
        sim.spawn(
            host,
            Box::new(DaemonNoise::new(0.2, 4.0)),
            SpawnOpts::named("daemons"),
        );
    }

    let run_s = 600.0;
    sim.run_until(SimTime::from_secs_f64(run_s));
    let busiest = (0..domains)
        .map(|d| sim.kernel().net.rx_bytes(NodeId(d as u32)))
        .fold(0.0f64, f64::max);
    HierarchyOutcome {
        n_hosts,
        domains,
        registry_rx_bps: busiest / run_s,
        heartbeat_s,
    }
}

/// A4 — monitoring frequency vs overhead and reaction time.
pub struct FreqOutcome {
    /// Sampling interval, seconds.
    pub interval_s: u64,
    /// Monitor CPU overhead on an idle host (utilization fraction).
    pub cpu_overhead: f64,
    /// Seconds from load arrival to the migration poll-point.
    pub detection_s: Option<f64>,
}

/// Run A4 for one monitoring interval.
pub fn monitor_freq(interval_s: u64, seed: u64) -> FreqOutcome {
    let freq = MonitoringFrequency {
        free: SimDuration::from_secs(interval_s),
        busy: SimDuration::from_secs(interval_s),
        overloaded: SimDuration::from_secs(interval_s.min(5)),
    };
    let mut sim = Sim::new(
        (0..3)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2)],
        DeployConfig {
            freq,
            overload_confirm: SimDuration::from_secs(50),
            // The lease must outlive several heartbeats at every interval.
            lease: SimDuration::from_secs((interval_s * 3).max(35)),
            ..DeployConfig::default()
        },
    );
    let mut long_cfg = small_tree(seed);
    long_cfg.trees = 32; // keep the process alive through every sweep point
    let app = TestTree::new(long_cfg);
    dep.schemas.put(MigratableApp::schema(&app));
    let hpcm = HpcmHooks::new();
    ars_hpcm::HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );

    // Idle-phase overhead on ws2 (only the monitor runs there).
    sim.run_until(SimTime::from_secs(400));
    let idle_busy = sim.kernel().hosts[2].cpu_busy_secs();
    let cpu_overhead = idle_busy / 400.0;

    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(SimTime::from_secs(2500));
    let detection_s = hpcm
        .last_migration()
        .map(|m| m.pollpoint_at.since(SimTime::from_secs(400)).as_secs_f64());
    FreqOutcome {
        interval_s,
        cpu_overhead,
        detection_s,
    }
}

/// A5 — process-selection policies: which of two candidate processes is
/// evicted from an overloaded host.
pub struct SelectionOutcome {
    /// Policy name.
    pub policy: &'static str,
    /// App name that was migrated.
    pub migrated_app: Option<String>,
}

/// Run A5 for one selection policy: two migratable apps on the source host,
/// one freshly started with a long estimate ("young"), one old and nearly
/// done ("old").
pub fn selection(
    policy_name: &'static str,
    selection: ars_rescheduler::SelectionPolicy,
    seed: u64,
) -> SelectionOutcome {
    use ars_hpcm::HpcmShell;
    let mut sim = Sim::new(
        (0..3)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let schemas = SchemaBook::new();
    let hooks = ReschedHooks::new();
    let mut reg_cfg = RegistryConfig::new(Policy::paper_policy2());
    reg_cfg.selection = selection;
    let registry = sim.spawn(
        HostId(0),
        Box::new(RegistryScheduler::new(
            reg_cfg,
            schemas.clone(),
            hooks.clone(),
        )),
        SpawnOpts::named("ars_registry"),
    );
    for host in [HostId(1), HostId(2)] {
        sim.spawn(
            host,
            Box::new(Monitor::new(
                MonitorConfig {
                    registry,
                    state_source: StateSource::Policy(Arc::new(Policy::paper_policy2())),
                    freq: MonitoringFrequency::default(),
                    ambient: Ambient::default(),
                    overload_confirm: SimDuration::from_secs(40),
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
    }

    let hpcm = HpcmHooks::new();
    // "old": started first, little work left.
    let mut old_cfg = small_tree(seed);
    old_cfg.trees = 40;
    let old = TestTree::new(old_cfg);
    // Give it a distinct schema name by wrapping config identity: both apps
    // report as "test_tree"; differentiate by start time instead, so the
    // heartbeat carries distinct (pid, start) pairs as in the paper.
    schemas.put(MigratableApp::schema(&old));
    let old_pid = HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        old,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );
    // "young": started 300 s later with the same estimate — its completion
    // time is the latest.
    sim.run_until(SimTime::from_secs(300));
    let mut young_cfg = small_tree(seed + 1);
    young_cfg.trees = 40;
    let young = TestTree::new(young_cfg);
    let young_pid = HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        young,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );

    sim.run_until(SimTime::from_secs(330));
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(SimTime::from_secs(2500));

    let migrated_app = hpcm.0.borrow().migrations.first().map(|m| {
        if m.pid_old == old_pid {
            "old".to_string()
        } else if m.pid_old == young_pid {
            "young".to_string()
        } else {
            format!("{:?}", m.pid_old)
        }
    });
    SelectionOutcome {
        policy: policy_name,
        migrated_app,
    }
}

/// A6 — fixed vs adaptive confirmation window under a bursty workload.
pub struct AdaptiveOutcome {
    /// Setting label.
    pub label: &'static str,
    /// Migrations triggered by transient bursts.
    pub false_migrations: usize,
    /// Final confirmation window of the source monitor, seconds.
    pub final_window_s: f64,
}

/// Run A6: repeated short bursts against a fixed or adaptive window.
pub fn adaptive(label: &'static str, adapt: bool, seed: u64) -> AdaptiveOutcome {
    use ars_rescheduler::AdaptiveConfig;
    let mut sim = Sim::new(
        (0..3)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2)],
        DeployConfig {
            overload_confirm: SimDuration::from_secs(15),
            adaptive: adapt.then(|| AdaptiveConfig {
                transient_within: SimDuration::from_secs(60),
                grow: 2.0, // learn fast: the bursts chase the app
                ..AdaptiveConfig::default()
            }),
            ..DeployConfig::default()
        },
    );
    let mut cfg = small_tree(seed);
    cfg.trees = 64;
    let app = TestTree::new(cfg);
    dep.schemas.put(MigratableApp::schema(&app));
    let hpcm = HpcmHooks::new();
    ars_hpcm::HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );
    for round in 0..10u64 {
        sim.run_until(SimTime::from_secs(200 + 300 * round));
        // The bursts chase the application: every episode hits whichever
        // host it currently lives on, so each one is a potential false
        // migration (all bursts are transient by construction).
        let app_host = hpcm.last_migration().map(|m| m.to).unwrap_or(HostId(1));
        for _ in 0..2 {
            sim.spawn(
                app_host,
                Box::new(CpuHog::new(30.0)),
                SpawnOpts::named("burst"),
            );
        }
    }
    sim.run_until(SimTime::from_secs(3600));
    // Report the widest window any monitor learned (the app moved around).
    let final_window_s = dep
        .monitors
        .iter()
        .filter_map(|&pid| {
            sim.program_mut(pid)
                .and_then(|p| p.as_any().downcast_mut::<Monitor>())
                .map(|m| m.confirm_window().as_secs_f64())
        })
        .fold(f64::NAN, f64::max);
    AdaptiveOutcome {
        label,
        false_migrations: hpcm.migration_count(),
        final_window_s,
    }
}

/// A7 — push vs pull registration/scheduling (§3.2).
pub struct PushPullOutcome {
    /// Mode label.
    pub label: &'static str,
    /// Control traffic into the registry during the quiet phase, B/s.
    pub registry_rx_bps: f64,
    /// Seconds from load injection to the migration poll-point.
    pub reaction_s: Option<f64>,
}

/// Run A7 for one mode: a quiet phase measuring steady-state control
/// traffic, then an overload whose reaction time is measured.
pub fn push_pull(label: &'static str, push: bool, seed: u64) -> PushPullOutcome {
    let mut sim = Sim::new(
        (0..5)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2), HostId(3), HostId(4)],
        DeployConfig {
            overload_confirm: SimDuration::from_secs(50),
            push,
            ..DeployConfig::default()
        },
    );
    let mut cfg = small_tree(seed);
    cfg.trees = 32;
    let app = TestTree::new(cfg);
    dep.schemas.put(MigratableApp::schema(&app));
    let hpcm = HpcmHooks::new();
    ars_hpcm::HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );
    // Quiet phase: measure steady-state control traffic at the registry.
    let quiet_from = 100.0;
    let quiet_to = 700.0;
    sim.run_until(SimTime::from_secs_f64(quiet_from));
    let rx0 = sim.kernel().net.rx_bytes(NodeId(0));
    sim.run_until(SimTime::from_secs_f64(quiet_to));
    let rx1 = sim.kernel().net.rx_bytes(NodeId(0));
    let registry_rx_bps = (rx1 - rx0) / (quiet_to - quiet_from);

    // Overload phase.
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(SimTime::from_secs(3000));
    let reaction_s = hpcm.last_migration().map(|m| {
        m.pollpoint_at
            .since(SimTime::from_secs_f64(quiet_to))
            .as_secs_f64()
    });
    PushPullOutcome {
        label,
        registry_rx_bps,
        reaction_s,
    }
}
