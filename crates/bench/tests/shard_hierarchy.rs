//! Gates for the scaling machinery: arbitrary-depth registry trees must
//! reschedule the same overload the flat and two-level deployments do,
//! and threaded shards must be exactly the runs they stand for.

use ars_apps::Spinner;
use ars_bench::scale::{
    flat_migration, heartbeat_migration, sharded_migration, tree_migration, TreeRun,
};
use ars_hpcm::{HpcmConfig, HpcmHooks, MigratableApp};
use ars_rescheduler::{deploy_tree, DeployConfig};
use ars_sim::{HostId, Sim, SimConfig, SpawnOpts, TraceEvent};
use ars_simcore::{SimDuration, SimTime};
use ars_simhost::HostConfig;

/// The one migration decision every topology must reach on the shared
/// scenario: ws1 overloads, exactly one migration moves its app to the
/// host the registry chose.
fn assert_migrated_coherently(label: &str, run: &TreeRun) {
    assert_eq!(
        run.run.migrations, 1,
        "{label}: expected exactly one migration"
    );
    let d = run
        .decisions
        .iter()
        .find(|d| d.dest.is_some())
        .unwrap_or_else(|| panic!("{label}: no successful decision"));
    assert_eq!(d.source, "ws1", "{label}: wrong overload source");
    let (from, to) = run.moved.expect("migration recorded");
    assert_eq!(from, HostId(1), "{label}: migrated from the wrong host");
    // The commanded destination and the host HPCM actually landed on must
    // agree (hosts are named ws<id> in the scenario).
    assert_eq!(
        d.dest.as_deref(),
        Some(format!("ws{}", to.0).as_str()),
        "{label}: decision and migration disagree on the destination"
    );
    assert_ne!(from, to, "{label}: migrated in place");
}

#[test]
fn three_level_tree_reschedules_like_flat_and_two_level() {
    let flat = flat_migration(8, 11);
    let two = tree_migration(8, &[2], 11);
    let three = tree_migration(8, &[2, 4], 11);

    assert_migrated_coherently("flat", &flat);
    assert_migrated_coherently("2-level", &two);
    assert_migrated_coherently("3-level", &three);

    // With one host per leaf, the 3-level tree can only find a candidate
    // by escalating; the flat registry never needs to.
    let d3 = three.decisions.iter().find(|d| d.dest.is_some()).unwrap();
    assert!(d3.escalated, "3-level decision did not come from the tree");
    let df = flat.decisions.iter().find(|d| d.dest.is_some()).unwrap();
    assert!(!df.escalated, "flat registry has nothing to escalate to");
}

#[test]
fn escalation_relays_through_the_root() {
    // fanout [2, 4]: root → 2 mids → 8 single-host leaves. Overload every
    // host under mid 0 (ws1..ws4) so leaf0's search must climb leaf → mid
    // → root and come back down the other subtree: mid 0 probes its other
    // leaves (all overloaded), relays to the root, and the root finds a
    // candidate under mid 1 (ws5..ws8 are idle).
    let n_hosts = 8;
    let mut sim = Sim::new(
        (0..=n_hosts)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed: 11,
            ..SimConfig::default()
        },
    );
    let monitored: Vec<HostId> = (1..=n_hosts).map(|i| HostId(i as u32)).collect();
    let dep = deploy_tree(
        &mut sim,
        HostId(0),
        &monitored,
        &[2, 4],
        DeployConfig {
            freq: ars_rules::MonitoringFrequency {
                free: SimDuration::from_secs(10),
                busy: SimDuration::from_secs(10),
                overloaded: SimDuration::from_secs(5),
            },
            overload_confirm: SimDuration::from_secs(60),
            ..DeployConfig::default()
        },
    );
    assert_eq!(dep.levels.len(), 3, "root + mids + leaves");
    assert_eq!(dep.levels[1].len(), 2);
    assert_eq!(dep.leaves.len(), 8);

    // Long enough to still be running when the overload confirms.
    let app = ars_apps::TestTree::new(ars_apps::TestTreeConfig {
        trees: 16,
        levels: 13,
        node_cost_build: 2e-3,
        node_cost_sort: 3e-3,
        node_cost_sum: 1e-3,
        chunk_nodes: 1024,
        rss_kb: 24_576,
        seed: 11,
    });
    let hpcm = HpcmHooks::new();
    dep.schemas.put(MigratableApp::schema(&app));
    ars_hpcm::HpcmShell::spawn_on(
        &mut sim,
        HostId(1),
        app,
        HpcmConfig::default(),
        None,
        hpcm.clone(),
    );

    // Saturate ws2..ws4 first so their overloads are confirmed before
    // ws1's search starts probing them.
    sim.run_until(SimTime::from_secs(50));
    for h in 2..=4 {
        for _ in 0..2 {
            sim.spawn(
                HostId(h),
                Box::new(Spinner::default()),
                SpawnOpts::named("hog"),
            );
        }
    }
    sim.run_until(SimTime::from_secs(100));
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(SimTime::from_secs(900));

    let m = hpcm
        .last_migration()
        .expect("the app migrated off the saturated subtree");
    assert_eq!(m.from, HostId(1));
    assert!(
        (5..=8).contains(&m.to.0),
        "destination {:?} is not under the sibling mid",
        m.to
    );
    let d = dep
        .hooks
        .0
        .borrow()
        .decisions
        .iter()
        .find(|d| d.dest.is_some())
        .cloned()
        .expect("a successful decision");
    assert!(d.escalated, "candidate must have come down from the tree");
}

#[test]
fn sharded_parallel_is_byte_identical_to_sequential() {
    // The threaded shards must equal the same runs made one after another.
    let shards = 4;
    let threaded = sharded_migration(shards, 8, 11, true);
    let runs: Vec<_> = (0..shards as u64)
        .map(|i| heartbeat_migration(8, 11 + i, true))
        .collect();
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(run.migrations, 1, "shard {i} must migrate once");
    }
    assert_eq!(threaded.migrations, shards);
    assert_eq!(
        threaded.events_handled,
        runs.iter().map(|r| r.events_handled).sum::<u64>()
    );
    // The merged trace is the shard traces interleaved by time, ties in
    // shard order: a stable time sort of their concatenation.
    let mut sequential: Vec<_> = runs
        .into_iter()
        .flat_map(|r| r.trace.expect("trace recorded"))
        .collect();
    sequential.sort_by_key(|e| e.t);
    let render = |events: &[TraceEvent]| -> Vec<String> {
        events.iter().map(|e| format!("{e:?}")).collect()
    };
    let merged = threaded.trace.expect("trace recorded");
    assert_eq!(render(&merged), render(&sequential));
}

#[test]
fn single_shard_is_byte_identical_to_unsharded_kernel() {
    // One shard is a plain heartbeat_migration run on its own thread: the
    // sharding layer must add, drop or reorder nothing.
    let one = sharded_migration(1, 8, 11, true);
    let plain = heartbeat_migration(8, 11, true);
    assert_eq!(one.migrations, 1, "the single shard migrates once");
    assert_eq!(one.migrations, plain.migrations);
    assert_eq!(one.events_handled, plain.events_handled);
    assert_eq!(one.registry_nic_util, plain.registry_nic_util);
    let render = |events: &[TraceEvent]| -> Vec<String> {
        events.iter().map(|e| format!("{e:?}")).collect()
    };
    assert_eq!(
        render(&one.trace.expect("trace recorded")),
        render(&plain.trace.expect("trace recorded")),
        "single shard diverged from the plain kernel"
    );
}
