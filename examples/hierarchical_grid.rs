//! Hierarchical registry/schedulers (§3.2): two cluster domains under a
//! parent registry. When the overloaded host's own domain has no candidate,
//! the search escalates to the parent, which probes the sibling domain —
//! cross-domain autonomic migration.
//!
//! ```sh
//! cargo run --release --example hierarchical_grid
//! ```

use ars::prelude::*;
use std::sync::Arc;

fn main() {
    // ws0 runs the registries; ws1-ws2 = domain A, ws3-ws4 = domain B.
    let mut sim = Sim::new(
        (0..5)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            trace: true,
            ..SimConfig::default()
        },
    );
    let schemas = SchemaBook::new();
    let hooks = ReschedHooks::new();

    let mk_cfg = |name: &str, parent: Option<Pid>| {
        let mut c = RegistryConfig::new(Policy::paper_policy2());
        c.name = name.to_string();
        c.parent = parent.map(Endpoint::from);
        c
    };
    let parent = sim.spawn(
        HostId(0),
        Box::new(RegistryScheduler::new(
            mk_cfg("vo-parent", None),
            schemas.clone(),
            hooks.clone(),
        )),
        SpawnOpts::named("ars_registry_parent"),
    );
    let reg_a = sim.spawn(
        HostId(0),
        Box::new(RegistryScheduler::new(
            mk_cfg("cluster-a", Some(parent)),
            schemas.clone(),
            hooks.clone(),
        )),
        SpawnOpts::named("ars_registry_a"),
    );
    let reg_b = sim.spawn(
        HostId(0),
        Box::new(RegistryScheduler::new(
            mk_cfg("cluster-b", Some(parent)),
            schemas.clone(),
            hooks.clone(),
        )),
        SpawnOpts::named("ars_registry_b"),
    );

    let ambient = Ambient {
        base_nproc: 60,
        ..Ambient::default()
    };
    let attach = |sim: &mut Sim, host: HostId, registry| {
        sim.spawn(
            host,
            Box::new(Monitor::new(
                MonitorConfig {
                    registry,
                    state_source: StateSource::Policy(Arc::new(Policy::paper_policy2())),
                    freq: MonitoringFrequency::default(),
                    ambient: ambient.clone(),
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
    };
    attach(&mut sim, HostId(1), reg_a);
    attach(&mut sim, HostId(2), reg_a);
    attach(&mut sim, HostId(3), reg_b);
    attach(&mut sim, HostId(4), reg_b);

    // Saturate the only other host of domain A.
    for _ in 0..2 {
        sim.spawn(
            HostId(2),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }

    let app = TestTree::new(TestTreeConfig {
        trees: 8,
        levels: 13,
        node_cost_build: 2e-3,
        node_cost_sort: 3e-3,
        node_cost_sum: 1e-3,
        chunk_nodes: 1024,
        rss_kb: 32_768,
        seed: 5,
    });
    schemas.put(MigratableApp::schema(&app));
    let hpcm = HpcmHooks::new();
    HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );
    println!("test_tree started on ws1 (domain A); ws2 is saturated");

    sim.run_until(SimTime::from_secs(120));
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    println!("ws1 overloaded at t=120; domain A has no free host…");
    sim.run_until(SimTime::from_secs(3000));

    match hpcm.last_migration() {
        Some(m) => {
            let d = hooks
                .0
                .borrow()
                .decisions
                .iter()
                .find(|d| d.dest.is_some())
                .cloned()
                .unwrap();
            println!(
                "t={:.1}: escalated={} — migrated ws{} -> ws{} (domain B)",
                d.at.as_secs_f64(),
                d.escalated,
                m.from.0,
                m.to.0
            );
        }
        None => println!("no migration (unexpected)"),
    }
    if let Some(done) = hpcm.completion_of("test_tree") {
        println!(
            "test_tree finished on ws{} at t={:.1}",
            done.host.0,
            done.finished_at.as_secs_f64()
        );
    }

    // The parent's view of its children, built from the periodic
    // DomainReport summaries each leaf pushes upward (§3.2's per-domain
    // "health condition") — what orders its cross-domain probes.
    if let Some(reg) = sim
        .program_mut(parent)
        .and_then(|p| p.as_any().downcast_mut::<RegistryScheduler>())
    {
        for (name, h) in reg.core().child_domains() {
            println!(
                "parent's view of {name}: {} free / {} busy / {} overloaded, mean load {:.2}",
                h.free,
                h.busy,
                h.overloaded,
                h.mean_load().unwrap_or(0.0)
            );
        }
    }
}
