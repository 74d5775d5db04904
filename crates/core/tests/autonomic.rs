//! End-to-end tests of the autonomic rescheduling loop: monitors observe,
//! the registry decides, the commander signals, HPCM migrates — with no
//! harness intervention after the load is injected.

use ars_apps::{CommFlood, DaemonNoise, Sink, Spinner, TestTree, TestTreeConfig};
use ars_hpcm::{HpcmConfig, HpcmHooks, HpcmShell};
#[allow(unused_imports)]
use ars_rescheduler::DomainHealth;
use ars_rescheduler::{
    deploy, DeployConfig, Monitor, RegistryConfig, RegistryScheduler, SchemaBook,
};
use ars_rules::Policy;
use ars_sim::{HostId, Sim, SimConfig, SpawnOpts};
use ars_simcore::{SimDuration, SimTime};
use ars_simhost::HostConfig;
use ars_sysinfo::Ambient;
use std::sync::Arc;

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn cluster(n: usize) -> Sim {
    let hosts = (0..n)
        .map(|i| HostConfig::named(format!("ws{i}")))
        .collect();
    Sim::new(
        hosts,
        SimConfig {
            trace: true,
            ..SimConfig::default()
        },
    )
}

fn test_ambient() -> Ambient {
    Ambient {
        base_nproc: 60,
        ..Ambient::default()
    }
}

/// A long test_tree configuration (~10 min alone on the reference host).
fn long_tree() -> TestTreeConfig {
    TestTreeConfig {
        trees: 8,
        levels: 13,
        node_cost_build: 3e-3,
        node_cost_sort: 4e-3,
        node_cost_sum: 2e-3,
        chunk_nodes: 1024,
        rss_kb: 24_576,
        seed: 11,
    }
}

#[test]
fn autonomic_migration_end_to_end() {
    let mut sim = cluster(4); // ws0 registry-only; ws1..ws3 monitored
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2), HostId(3)],
        DeployConfig {
            policy: Policy::paper_policy2(),
            ambient: test_ambient(),
            overload_confirm: SimDuration::from_secs(60),
            ..DeployConfig::default()
        },
    );

    // The migration-enabled application on ws1.
    let cfg = long_tree();
    let expected = TestTree::expected_sum(&cfg);
    let app = TestTree::new(cfg);
    dep.schemas.put(ars_hpcm::MigratableApp::schema(&app));
    let hpcm = HpcmHooks::new();
    let pid = HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );

    sim.run_until(t(280.0));
    assert_eq!(hpcm.migration_count(), 0, "no reason to migrate yet");

    // Inject two long CPU hogs: la1 rises above 2 within ~a minute.
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(t(1200.0));

    assert!(
        dep.hooks.commands_sent() >= 1,
        "registry commanded a migration"
    );
    assert_eq!(hpcm.migration_count(), 1, "exactly one migration happened");
    let m = hpcm.last_migration().unwrap();
    assert_eq!(m.from, HostId(1));
    assert!(
        m.to == HostId(2) || m.to == HostId(3),
        "moved to a free host, got {:?}",
        m.to
    );
    // Detection delay: load-average inertia + 60 s confirmation. The paper
    // saw 72 s with its settings; ours includes the confirm window.
    let delay = m.pollpoint_at.since(t(280.0));
    assert!(
        delay > SimDuration::from_secs(60) && delay < SimDuration::from_secs(400),
        "detection delay {delay}"
    );

    // The application finished correctly on the destination.
    sim.run_until(t(4000.0));
    let done = hpcm.completion_of("test_tree").expect("app finished");
    assert_eq!(done.host, m.to);
    assert!(!sim.is_alive(pid));
    assert!(!sim.is_alive(m.pid_new) || sim.exited_at(m.pid_new).is_some());

    // Verify the checksum by re-deriving the app's result from the record:
    // completions only log progress; assert the full sum via a reference
    // run of the same config.
    let _ = expected; // digest correctness is asserted in the dedicated test below
    let decision = dep
        .hooks
        .0
        .borrow()
        .decisions
        .iter()
        .find(|d| d.dest.is_some())
        .cloned()
        .expect("a successful decision");
    assert_eq!(decision.source, "ws1");
    assert_eq!(
        decision.dest.as_deref(),
        Some(sim.kernel().hosts[m.to.0 as usize].name())
    );
}

#[test]
fn policy1_never_migrates_even_under_load() {
    let mut sim = cluster(3);
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2)],
        DeployConfig {
            policy: Policy::no_migration(),
            ambient: test_ambient(),
            ..DeployConfig::default()
        },
    );
    let app = TestTree::new(long_tree());
    dep.schemas.put(ars_hpcm::MigratableApp::schema(&app));
    let hpcm = HpcmHooks::new();
    HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );
    sim.run_until(t(100.0));
    for _ in 0..3 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(t(2000.0));
    assert_eq!(dep.hooks.commands_sent(), 0);
    assert_eq!(hpcm.migration_count(), 0);
}

#[test]
fn policy3_avoids_communicating_destination_policy2_does_not() {
    let run = |policy: Policy| -> Option<String> {
        let mut sim = cluster(6); // ws0 registry; ws1 source; ws2 comm-busy; ws3 loaded; ws4 free; ws5 sink
        let dep = deploy(
            &mut sim,
            HostId(0),
            &[HostId(1), HostId(2), HostId(3), HostId(4)],
            DeployConfig {
                policy,
                ambient: test_ambient(),
                overload_confirm: SimDuration::from_secs(60),
                ..DeployConfig::default()
            },
        );
        // ws2 <-> ws5: heavy stream (6.7-7.8 MB/s) but light CPU.
        let sink = sim.spawn(
            HostId(5),
            Box::new(Sink::default()),
            SpawnOpts::named("sink"),
        );
        sim.spawn(
            HostId(2),
            Box::new(CommFlood::new(sink, 7_200_000.0, 12_500_000.0)),
            SpawnOpts::named("ftp"),
        );
        // ws2 also carries sub-threshold CPU load (paper: load 0.97 < 1).
        sim.spawn(
            HostId(2),
            Box::new(DaemonNoise::new(0.6, 2.0)),
            SpawnOpts::named("noise"),
        );
        // ws3: heavy CPU load (paper: 2.52).
        for _ in 0..3 {
            sim.spawn(
                HostId(3),
                Box::new(Spinner::default()),
                SpawnOpts::named("hog"),
            );
        }
        // The app on ws1.
        let app = TestTree::new(long_tree());
        dep.schemas.put(ars_hpcm::MigratableApp::schema(&app));
        let hpcm = HpcmHooks::new();
        HpcmShell::spawn_on(
            &mut sim,
            HostId(1),
            app,
            HpcmConfig::default(),
            None,
            hpcm.clone(),
        );
        sim.run_until(t(200.0));
        // Overload ws1.
        for _ in 0..2 {
            sim.spawn(
                HostId(1),
                Box::new(Spinner::default()),
                SpawnOpts::named("hog"),
            );
        }
        sim.run_until(t(1500.0));
        hpcm.last_migration()
            .map(|m| sim.kernel().hosts[m.to.0 as usize].name().to_string())
    };

    // Policy 2 is communication-blind: first fit lands on ws2.
    assert_eq!(run(Policy::paper_policy2()).as_deref(), Some("ws2"));
    // Policy 3 rejects ws2 (flow > 3 MB/s) and ws3 (load), picking ws4.
    assert_eq!(run(Policy::paper_policy3()).as_deref(), Some("ws4"));
}

#[test]
fn soft_state_expiry_excludes_dead_hosts() {
    let mut sim = cluster(4);
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2), HostId(3)],
        DeployConfig {
            policy: Policy::paper_policy2(),
            ambient: test_ambient(),
            overload_confirm: SimDuration::from_secs(30),
            ..DeployConfig::default()
        },
    );
    let app = TestTree::new(long_tree());
    dep.schemas.put(ars_hpcm::MigratableApp::schema(&app));
    let hpcm = HpcmHooks::new();
    HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );
    sim.run_until(t(100.0));

    // ws2 would be the first-fit destination; kill its monitor so its soft
    // state expires (no heartbeats -> unavailable after the lease).
    let ws2_monitor = dep.monitors[1];
    struct Killer {
        victim: ars_sim::Pid,
    }
    impl ars_sim::Program for Killer {
        fn on_wake(&mut self, ctx: &mut ars_sim::Ctx<'_>, wake: ars_sim::Wake) {
            if let ars_sim::Wake::Started = wake {
                ctx.kill(self.victim);
                ctx.exit();
            }
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    sim.spawn(
        HostId(0),
        Box::new(Killer {
            victim: ws2_monitor,
        }),
        SpawnOpts::named("kill"),
    );
    sim.run_until(t(160.0)); // lease (35 s) expires

    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(t(1500.0));
    let m = hpcm.last_migration().expect("migration still happens");
    assert_eq!(m.to, HostId(3), "ws2 was expired; ws3 chosen");
}

#[test]
fn hierarchical_registry_escalates_across_domains() {
    // Domain A: ws1 (source), ws2 (loaded). Domain B: ws3, ws4 (free).
    // Parent on ws0. A's registry finds no local candidate and escalates.
    let mut sim = cluster(5);
    let schemas = SchemaBook::new();
    let hooks = ars_rescheduler::ReschedHooks::new();

    // Parent registry (no hosts of its own).
    let parent = sim.spawn(
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
    );
    // Child registries.
    let reg_a = sim.spawn(
        HostId(0),
        Box::new(RegistryScheduler::new(
            {
                let mut c = RegistryConfig::new(Policy::paper_policy2());
                c.name = "domainA".to_string();
                c.parent = Some(parent.into());
                c
            },
            schemas.clone(),
            hooks.clone(),
        )),
        SpawnOpts::named("ars_registry_a"),
    );
    let reg_b = sim.spawn(
        HostId(0),
        Box::new(RegistryScheduler::new(
            {
                let mut c = RegistryConfig::new(Policy::paper_policy2());
                c.name = "domainB".to_string();
                c.parent = Some(parent.into());
                c
            },
            schemas.clone(),
            hooks.clone(),
        )),
        SpawnOpts::named("ars_registry_b"),
    );

    // Monitors/commanders per domain.
    use ars_rescheduler::{Commander, Monitor, MonitorConfig, StateSource};
    let spawn_pair = |sim: &mut Sim, host: HostId, registry| {
        let mon_cfg = MonitorConfig {
            registry,
            state_source: StateSource::Policy(Arc::new(Policy::paper_policy2())),
            freq: Default::default(),
            ambient: test_ambient(),
            overload_confirm: SimDuration::from_secs(30),
            adaptive: None,
            push: true,
            commander: None,
        };
        sim.spawn(
            host,
            Box::new(Monitor::new(mon_cfg, schemas.clone())),
            SpawnOpts::named("ars_monitor"),
        );
        sim.spawn(
            host,
            Box::new(Commander::new(registry)),
            SpawnOpts::named("ars_commander"),
        );
    };
    spawn_pair(&mut sim, HostId(1), reg_a);
    spawn_pair(&mut sim, HostId(2), reg_a);
    spawn_pair(&mut sim, HostId(3), reg_b);
    spawn_pair(&mut sim, HostId(4), reg_b);

    // Load ws2 so domain A has no free host once ws1 overloads.
    for _ in 0..2 {
        sim.spawn(
            HostId(2),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }

    let app = TestTree::new(long_tree());
    schemas.put(ars_hpcm::MigratableApp::schema(&app));
    let hpcm = HpcmHooks::new();
    HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );
    sim.run_until(t(120.0));
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(t(1500.0));

    let m = hpcm.last_migration().expect("escalated migration");
    assert!(
        m.to == HostId(3) || m.to == HostId(4),
        "destination from domain B, got {:?}",
        m.to
    );
    let d = hooks
        .0
        .borrow()
        .decisions
        .iter()
        .find(|d| d.dest.is_some())
        .cloned()
        .expect("a successful decision");
    assert!(d.escalated, "candidate came through the parent");
}

#[test]
fn migrated_test_tree_produces_the_correct_checksum() {
    // Direct migration (harness-commanded) of the real workload, verifying
    // end-to-end data integrity of save/transfer/restore via the digest.
    let mut sim = cluster(3);
    let cfg = TestTreeConfig::small();
    let expected = TestTree::expected_sum(&cfg);
    let hpcm = HpcmHooks::new();
    let pid = HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        TestTree::new(cfg),
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );
    sim.run_until(t(0.8)); // mid-run
    sim.kernel_mut().hosts[1].write_file(ars_hpcm::dest_file_path(pid), "ws2:7801");
    sim.signal(pid, ars_hpcm::MIGRATE_SIGNAL);
    sim.run_until(t(120.0));

    let m = hpcm.last_migration().expect("migrated");
    assert_eq!(m.to, HostId(2));
    assert!(m.eager_bytes > 0);
    let done = hpcm.completion_of("test_tree").expect("finished");
    assert_eq!(done.host, HostId(2));
    assert_eq!(done.digest, expected, "checksum survived migration");
}

#[test]
fn domain_health_aggregates_host_states() {
    let mut sim = cluster(4);
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2), HostId(3)],
        DeployConfig {
            ambient: test_ambient(),
            ..DeployConfig::default()
        },
    );
    // Load ws3 hard so it classifies busy/overloaded.
    for _ in 0..3 {
        sim.spawn(
            HostId(3),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(t(300.0));
    let now = sim.now();
    let registry = sim
        .program_mut(dep.registry)
        .unwrap()
        .as_any()
        .downcast_mut::<RegistryScheduler>()
        .unwrap();
    let health = registry.domain_health(now);
    assert_eq!(health.total(), 3);
    assert!(health.free >= 2, "ws1/ws2 idle: {health:?}");
    assert!(
        health.busy + health.overloaded >= 1,
        "ws3 loaded: {health:?}"
    );
    assert_eq!(health.unavailable, 0);
    let load = health.mean_load().expect("loads reported");
    assert!(load > 0.5 && load < 3.5, "mean load {load}");
}

#[test]
fn pull_mode_migrates_with_fresh_queries() {
    let mut sim = cluster(4);
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2), HostId(3)],
        DeployConfig {
            overload_confirm: SimDuration::from_secs(40),
            push: false, // on-change reports + registry pulls
            ambient: test_ambient(),
            ..DeployConfig::default()
        },
    );
    let app = TestTree::new(long_tree());
    dep.schemas.put(ars_hpcm::MigratableApp::schema(&app));
    let hpcm = HpcmHooks::new();
    HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );
    sim.run_until(t(100.0));
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(t(3000.0));
    assert_eq!(hpcm.migration_count(), 1, "pull mode still migrates");
    let m = hpcm.last_migration().unwrap();
    assert!(m.to == HostId(2) || m.to == HostId(3));
    // Steady-state traffic is on-change only: far fewer heartbeats than
    // push mode's one per 10 s.
    let monitor = sim
        .program_mut(dep.monitors[1])
        .unwrap()
        .as_any()
        .downcast_mut::<Monitor>()
        .unwrap();
    assert!(
        monitor.heartbeats_sent < 20,
        "on-change monitor sent {} heartbeats",
        monitor.heartbeats_sent
    );
    assert!(monitor.queries_answered >= 1, "served at least one pull");
}
