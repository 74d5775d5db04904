//! Registry soft-state edges: lease expiry, re-registration restoring
//! first-fit eligibility, and the missed-heartbeat failure detector's
//! suspect → unavailable → free round-trip when a monitor's pushes stop
//! and later resume.

use ars_apps::{Spinner, TestTree, TestTreeConfig};
use ars_hpcm::{HpcmConfig, HpcmHooks, HpcmShell, MigratableApp};
use ars_rescheduler::{
    deploy, DeployConfig, Liveness, Monitor, MonitorConfig, RegistryScheduler, StateSource,
};
use ars_rules::{HostState, MonitoringFrequency, Policy};
use ars_sim::{Fault, HostId, Pid, Sim, SimConfig, SpawnOpts};
use ars_simcore::{SimDuration, SimTime};
use ars_simhost::HostConfig;
use ars_sysinfo::Ambient;
use ars_xmlwire::ResourceRequirements;
use std::sync::Arc;

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn cluster(n: usize) -> Sim {
    Sim::new(
        (0..n)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            trace: true,
            ..SimConfig::default()
        },
    )
}

struct Killer {
    victim: Pid,
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

/// Observe a host's (liveness, effective state) through the registry's
/// internal table.
fn host_view(sim: &mut Sim, registry: Pid, host: &str) -> (Liveness, HostState) {
    let now = sim.now();
    let reg = sim
        .program_mut(registry)
        .expect("registry alive")
        .as_any()
        .downcast_mut::<RegistryScheduler>()
        .unwrap();
    let entry = reg
        .entries()
        .iter()
        .find(|e| e.name.as_ref() == host)
        .expect("registered");
    let lease = SimDuration::from_secs(35); // DeployConfig::default().lease
    (
        entry.liveness(now, lease),
        entry.effective_state(now, lease),
    )
}

fn first_fit_excluding(sim: &mut Sim, registry: Pid, exclude: &str) -> Option<String> {
    let now = sim.now();
    let reg = sim
        .program_mut(registry)
        .expect("registry alive")
        .as_any()
        .downcast_mut::<RegistryScheduler>()
        .unwrap();
    reg.core()
        .destination_for(&ResourceRequirements::default(), exclude, now)
        .map(|e| e.name.to_string())
}

#[test]
fn stalled_pushes_walk_suspect_unavailable_and_back_to_free() {
    let mut sim = cluster(3);
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2)],
        DeployConfig::default(),
    );
    // Let a few heartbeats land so the registry learns ws2's push period.
    sim.run_until(t(40.0));
    assert_eq!(
        host_view(&mut sim, dep.registry, "ws2"),
        (Liveness::Alive, HostState::Free)
    );
    assert_eq!(
        first_fit_excluding(&mut sim, dep.registry, "ws1").as_deref(),
        Some("ws2")
    );

    // Freeze ws2's outbound messages for 65 s: pushes stop arriving.
    sim.schedule_fault(
        t(40.0),
        Fault::MonitorStall {
            host: 2,
            duration: SimDuration::from_secs(65),
        },
    );

    // The last heartbeat to get through left ws2 just before t=31; by
    // t=55 that is ~24 s of silence ≈ 2 missed 10 s beats: suspect, lease
    // still valid — but already excluded as a migration destination.
    sim.run_until(t(55.0));
    let (live, state) = host_view(&mut sim, dep.registry, "ws2");
    assert_eq!(live, Liveness::Suspect);
    assert_eq!(state, HostState::Free, "lease not yet expired");
    assert_eq!(
        first_fit_excluding(&mut sim, dep.registry, "ws1"),
        None,
        "suspect host is not offered ahead of lease expiry"
    );

    // Past the lease: down and unavailable.
    sim.run_until(t(80.0));
    assert_eq!(
        host_view(&mut sim, dep.registry, "ws2"),
        (Liveness::Down, HostState::Unavailable)
    );

    // Stall ends at t=105; the held heartbeats flush and fresh ones resume:
    // full round-trip back to an eligible Free entry.
    sim.run_until(t(120.0));
    assert_eq!(
        host_view(&mut sim, dep.registry, "ws2"),
        (Liveness::Alive, HostState::Free)
    );
    assert_eq!(
        first_fit_excluding(&mut sim, dep.registry, "ws1").as_deref(),
        Some("ws2")
    );
}

#[test]
fn re_registration_after_expiry_restores_first_fit_eligibility() {
    let mut sim = cluster(3);
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2)],
        DeployConfig {
            overload_confirm: SimDuration::from_secs(40),
            ..DeployConfig::default()
        },
    );
    let app = TestTree::new(TestTreeConfig {
        trees: 8,
        levels: 13,
        node_cost_build: 2e-3,
        node_cost_sort: 3e-3,
        node_cost_sum: 1e-3,
        chunk_nodes: 1024,
        rss_kb: 24_576,
        seed: 17,
    });
    dep.schemas.put(MigratableApp::schema(&app));
    let hpcm = HpcmHooks::new();
    HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );

    // ws2's monitor dies; its lease expires and the host drops out of the
    // destination search.
    sim.run_until(t(30.0));
    sim.spawn(
        HostId(0),
        Box::new(Killer {
            victim: dep.monitors[1],
        }),
        SpawnOpts::named("kill"),
    );
    sim.run_until(t(90.0));
    assert_eq!(
        host_view(&mut sim, dep.registry, "ws2").1,
        HostState::Unavailable
    );

    // Overload ws1 while no destination exists: decisions happen but no
    // migration is possible.
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(t(400.0));
    assert_eq!(hpcm.migration_count(), 0, "no eligible destination");

    // A replacement monitor re-registers ws2: the host must become
    // first-fit eligible again and the stuck migration goes through.
    sim.spawn(
        HostId(2),
        Box::new(Monitor::new(
            MonitorConfig {
                registry: dep.registry,
                state_source: StateSource::Policy(Arc::new(Policy::paper_policy2())),
                freq: MonitoringFrequency::default(),
                ambient: Ambient::default(),
                overload_confirm: SimDuration::from_secs(40),
                adaptive: None,
                push: true,
                commander: Some(dep.commanders[1]),
            },
            dep.schemas.clone(),
        )),
        SpawnOpts::named("ars_monitor"),
    );
    sim.run_until(t(3000.0));

    let m = hpcm
        .last_migration()
        .expect("migrated after re-registration");
    assert_eq!(m.to, HostId(2));
    let done = hpcm.completion_of("test_tree").expect("finished");
    assert_eq!(done.host, HostId(2));
}
