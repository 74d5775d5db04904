//! Chaos suite: seeded fault schedules over the full autonomic deployment.
//!
//! The liveness property (ISSUE 2): for every seeded schedule the
//! simulation terminates and every application either completes or is
//! reported lost with a recorded cause — no hangs, no silently dropped
//! processes. Replaying the same seed + schedule yields a bit-identical
//! trace.
//!
//! Seeds come from `ARS_CHAOS_SEEDS` (comma-separated, default `11,12,13`)
//! so CI can widen the matrix without recompiling.
//!
//! The workloads here are independent `TestTree` instances, not MPI ranks:
//! an MPI app whose peer loses a halo message to a random drop would block
//! in a collective forever by design (the paper's runtime does not retry
//! application traffic), so message-level chaos on tightly coupled ranks
//! tests the application model, not the runtime. Host crashes and control
//! message faults against the runtime itself are exactly what this suite
//! covers.

use ars::prelude::*;

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn chaos_seeds() -> Vec<u64> {
    let raw = std::env::var("ARS_CHAOS_SEEDS").unwrap_or_else(|_| "11,12,13".to_string());
    raw.split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

/// Fault schedule for one chaos run: one seeded crash + stall over the
/// worker hosts, light random message faults, and a registry restart.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(
        seed,
        &ScheduleParams {
            host_lo: 2,
            host_hi: 6,
            horizon: t(600.0),
            crashes: 1,
            recover_after: SimDuration::from_secs(60),
            stalls: 1,
            stall_for: SimDuration::from_secs(45),
            messages: MessageFaults {
                drop: 0.02,
                duplicate: 0.02,
                delay: 0.05,
                delay_by: SimDuration::from_millis(80),
            },
            ..ScheduleParams::default()
        },
    )
}

struct ChaosOutcome {
    trace: Vec<(u64, String)>,
    completed: usize,
    lost: usize,
}

/// One full chaos run; panics if the liveness property is violated.
fn chaos_run(seed: u64) -> ChaosOutcome {
    let mut sim = Sim::new(
        (0..6)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            trace: true,
            faults: chaos_plan(seed),
            ..SimConfig::default()
        },
    );
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2), HostId(3), HostId(4), HostId(5)],
        DeployConfig {
            overload_confirm: SimDuration::from_secs(40),
            ..DeployConfig::default()
        },
    );
    // Registry restart mid-run: soft state must be reconstructed from the
    // monitors' re-pushes.
    sim.schedule_fault(
        t(150.0),
        Fault::ProcessRestart {
            pid: dep.registry.0,
        },
    );

    let mk_tree = |seed: u64| {
        TestTree::new(TestTreeConfig {
            trees: 8,
            levels: 13,
            node_cost_build: 2e-3,
            node_cost_sort: 3e-3,
            node_cost_sum: 1e-3,
            chunk_nodes: 1024,
            rss_kb: 24_576,
            seed,
        })
    };
    let hpcm = HpcmHooks::new();
    let mut roots = Vec::new();
    for (host, app_seed) in [(HostId(1), 1u64), (HostId(2), 2u64)] {
        let app = mk_tree(app_seed);
        dep.schemas.put(MigratableApp::schema(&app));
        roots.push(HpcmShell::spawn_on(
            &mut sim,
            host,
            app,
            HpcmConfig::default(),
            None,
            hpcm.clone(),
        ));
    }

    // Overload ws1 so the rescheduler has real work to do under faults.
    sim.run_until(t(60.0));
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(t(3000.0));
    assert_eq!(sim.now(), t(3000.0), "simulation terminated at the horizon");

    // --- Liveness property ------------------------------------------------
    let migrations = hpcm.0.borrow().migrations.clone();
    let completions = hpcm.0.borrow().completions.clone();
    let trace_events = sim.kernel().trace.events().to_vec();
    let mut completed = 0;
    let mut lost = 0;
    for &root in &roots {
        let lineage = lineage_of(root, &migrations);

        // No silently dropped processes: nothing of this app still runs.
        for &pid in &lineage {
            assert!(
                !sim.is_alive(pid),
                "seed {seed}: {pid} still alive at the horizon"
            );
        }

        if completions.iter().any(|c| lineage.contains(&c.pid)) {
            completed += 1;
            continue;
        }
        lost += 1;
        // Lost — demand a recorded cause: a fault killed a lineage pid, or
        // a migration of this app aborted with a reason on record.
        let killed_by_fault = lineage.iter().any(|pid| {
            trace_events
                .iter()
                .any(|e| e.kind == TraceKind::Fault && e.detail.contains(&format!("killed {pid}")))
        });
        let aborted_with_reason = migrations
            .iter()
            .any(|m| lineage.contains(&m.pid_old) && m.abort_reason.is_some());
        assert!(
            killed_by_fault || aborted_with_reason,
            "seed {seed}: app at {root} lost without a recorded cause"
        );
    }
    assert_eq!(completed + lost, roots.len());

    // Nothing may end the run stuck mid-transaction.
    for m in &migrations {
        assert_ne!(
            m.outcome,
            MigrationOutcome::InFlight,
            "seed {seed}: migration {} -> {} never resolved",
            m.pid_old,
            m.pid_new
        );
    }

    ChaosOutcome {
        trace: trace_events
            .iter()
            .map(|e| (e.t.as_micros(), e.detail.clone()))
            .collect(),
        completed,
        lost,
    }
}

/// Follow `root` through every committed migration hop and collect the
/// whole lineage (aborted/in-flight children included).
fn lineage_of(root: Pid, migrations: &[MigrationRecord]) -> Vec<Pid> {
    let mut lineage = vec![root];
    let mut cur = root;
    loop {
        let hop = migrations
            .iter()
            .find(|m| m.pid_old == cur && m.outcome == MigrationOutcome::Committed);
        match hop {
            Some(m) => {
                lineage.push(m.pid_new);
                cur = m.pid_new;
            }
            None => break,
        }
    }
    let children: Vec<Pid> = migrations
        .iter()
        .filter(|m| lineage.contains(&m.pid_old))
        .map(|m| m.pid_new)
        .collect();
    for pid in children {
        if !lineage.contains(&pid) {
            lineage.push(pid);
        }
    }
    lineage
}

/// Depth-3 tree chaos (registry fault tolerance): a fanout-[2,2] registry
/// tree with one mid-registry crashed per seed while the apps are
/// migrating. Registry faults must never lose an application: the leaves
/// under the dead mid re-parent to the root (their grandparent) and
/// searches fall back on their deadlines, so the liveness property
/// strengthens from "completed or lost with cause" to "all complete".
fn tree_chaos_run(seed: u64) -> Vec<(u64, String)> {
    let mut sim = Sim::new(
        (0..7)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            trace: true,
            ..SimConfig::default()
        },
    );
    let workers: Vec<HostId> = (1..=6).map(HostId).collect();
    let dep = deploy_tree(
        &mut sim,
        HostId(0),
        &workers,
        &[2, 2],
        DeployConfig {
            overload_confirm: SimDuration::from_secs(40),
            ..DeployConfig::default()
        },
    );
    // Crash one mid-registry (seed-selected) while reports and searches
    // are in flight; recover it much later so its orphans must re-parent
    // rather than wait it out.
    let mid = dep.levels[1][seed as usize % dep.levels[1].len()];
    sim.schedule_fault(t(100.0), Fault::RegistryCrash { pid: mid.0 });
    sim.schedule_fault(t(1200.0), Fault::RegistryRecover { pid: mid.0 });

    let hpcm = HpcmHooks::new();
    let mut roots = Vec::new();
    for (host, app_seed) in [(HostId(1), 1u64), (HostId(2), 2u64)] {
        let app = TestTree::new(TestTreeConfig {
            trees: 8,
            levels: 13,
            node_cost_build: 2e-3,
            node_cost_sort: 3e-3,
            node_cost_sum: 1e-3,
            chunk_nodes: 1024,
            rss_kb: 24_576,
            seed: app_seed,
        });
        dep.schemas.put(MigratableApp::schema(&app));
        roots.push(HpcmShell::spawn_on(
            &mut sim,
            host,
            app,
            HpcmConfig::default(),
            None,
            hpcm.clone(),
        ));
    }
    sim.run_until(t(60.0));
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(t(3000.0));
    assert_eq!(sim.now(), t(3000.0), "simulation terminated at the horizon");

    let migrations = hpcm.0.borrow().migrations.clone();
    let completions = hpcm.0.borrow().completions.clone();
    for &root in &roots {
        let lineage = lineage_of(root, &migrations);
        for &pid in &lineage {
            assert!(
                !sim.is_alive(pid),
                "seed {seed}: {pid} still alive at the horizon"
            );
        }
        assert!(
            completions.iter().any(|c| lineage.contains(&c.pid)),
            "seed {seed}: app at {root} did not complete despite only registry faults"
        );
    }
    for m in &migrations {
        assert_ne!(
            m.outcome,
            MigrationOutcome::InFlight,
            "seed {seed}: migration {} -> {} never resolved",
            m.pid_old,
            m.pid_new
        );
    }
    let stats = sim.fault_stats().copied().unwrap_or_default();
    assert_eq!(stats.registry_crashes, 1, "seed {seed}: crash not injected");
    assert_eq!(stats.registry_recoveries, 1);

    sim.kernel()
        .trace
        .events()
        .iter()
        .map(|e| (e.t.as_micros(), e.detail.clone()))
        .collect()
}

#[test]
fn tree_chaos_mid_registry_crash_keeps_all_apps_completing() {
    let seeds = chaos_seeds();
    assert!(!seeds.is_empty(), "ARS_CHAOS_SEEDS parsed to nothing");
    for seed in seeds {
        let outcome = tree_chaos_run(seed);
        let replay = tree_chaos_run(seed);
        assert_eq!(outcome, replay, "seed {seed}: tree chaos replay diverged");
    }
}

#[test]
fn an_armed_but_idle_registry_fault_engine_is_byte_identical() {
    // Zero-cost gate: when no registry fault actually fires inside the
    // horizon, installing the registry fault engine (vs no fault layer at
    // all) must not perturb a single trace event.
    let story = |plan: FaultPlan| -> Vec<(u64, String)> {
        let mut sim = Sim::new(
            (0..5)
                .map(|i| HostConfig::named(format!("ws{i}")))
                .collect(),
            SimConfig {
                seed: 7,
                trace: true,
                faults: plan,
                ..SimConfig::default()
            },
        );
        let workers = [HostId(1), HostId(2), HostId(3), HostId(4)];
        let dep = deploy_tree(
            &mut sim,
            HostId(0),
            &workers,
            &[2, 2],
            DeployConfig {
                overload_confirm: SimDuration::from_secs(40),
                ..DeployConfig::default()
            },
        );
        let app = TestTree::new(TestTreeConfig::small());
        dep.schemas.put(MigratableApp::schema(&app));
        let hpcm = HpcmHooks::new();
        HpcmShell::spawn_on(&mut sim, HostId(1), app, HpcmConfig::default(), None, hpcm);
        sim.run_until(t(600.0));
        sim.kernel()
            .trace
            .events()
            .iter()
            .map(|e| (e.t.as_micros(), e.detail.clone()))
            .collect()
    };
    let armed = FaultPlan::none().at(t(1e9), Fault::RegistryCrash { pid: 0 });
    assert_eq!(
        story(FaultPlan::none()),
        story(armed),
        "an armed-but-idle registry fault engine perturbed the trace"
    );
}

#[test]
fn chaos_liveness_over_the_seed_matrix() {
    let seeds = chaos_seeds();
    assert!(!seeds.is_empty(), "ARS_CHAOS_SEEDS parsed to nothing");
    for seed in seeds {
        let outcome = chaos_run(seed);
        // Bit-identical replay: same seed + same schedule => same trace.
        let replay = chaos_run(seed);
        assert_eq!(
            outcome.trace, replay.trace,
            "seed {seed}: chaos replay diverged"
        );
        assert_eq!(outcome.completed, replay.completed);
        assert_eq!(outcome.lost, replay.lost);
    }
}

#[test]
fn disabled_fault_plan_is_byte_identical_to_no_fault_layer() {
    // Paper-figure guarantee: runs with faults disabled are unchanged by
    // the fault layer's existence. `FaultPlan::none()` must not perturb a
    // single trace event relative to the default config.
    let story = |plan: FaultPlan| -> Vec<(u64, String)> {
        let mut sim = Sim::new(
            (0..4)
                .map(|i| HostConfig::named(format!("ws{i}")))
                .collect(),
            SimConfig {
                seed: 7,
                trace: true,
                faults: plan,
                ..SimConfig::default()
            },
        );
        let dep = deploy(
            &mut sim,
            HostId(0),
            &[HostId(1), HostId(2), HostId(3)],
            DeployConfig {
                overload_confirm: SimDuration::from_secs(40),
                ..DeployConfig::default()
            },
        );
        let app = TestTree::new(TestTreeConfig::small());
        dep.schemas.put(MigratableApp::schema(&app));
        let hpcm = HpcmHooks::new();
        HpcmShell::spawn_on(&mut sim, HostId(1), app, HpcmConfig::default(), None, hpcm);
        sim.run_until(t(600.0));
        sim.kernel()
            .trace
            .events()
            .iter()
            .map(|e| (e.t.as_micros(), e.detail.clone()))
            .collect()
    };
    assert_eq!(story(FaultPlan::none()), story(FaultPlan::default()));
}

/// The chaos story with an observability session threaded through every
/// layer (kernel, registry, monitors, commanders, migration shells).
/// Returns the kernel trace for byte-identity comparison.
fn obs_story(obs: Obs) -> Vec<(u64, String)> {
    let mut sim = Sim::new(
        (0..6)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed: 7,
            trace: true,
            faults: chaos_plan(7),
            obs: obs.clone(),
            ..SimConfig::default()
        },
    );
    let dep = deploy(
        &mut sim,
        HostId(0),
        &[HostId(1), HostId(2), HostId(3), HostId(4), HostId(5)],
        DeployConfig {
            overload_confirm: SimDuration::from_secs(40),
            obs: obs.clone(),
            ..DeployConfig::default()
        },
    );
    let hpcm = HpcmHooks::new();
    for (host, app_seed) in [(HostId(1), 1u64), (HostId(2), 2u64)] {
        let app = TestTree::new(TestTreeConfig {
            seed: app_seed,
            ..TestTreeConfig::small()
        });
        dep.schemas.put(MigratableApp::schema(&app));
        HpcmShell::spawn_on(
            &mut sim,
            host,
            app,
            HpcmConfig {
                obs: obs.clone(),
                ..HpcmConfig::default()
            },
            None,
            hpcm.clone(),
        );
    }
    sim.run_until(t(60.0));
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            Box::new(Spinner::default()),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(t(1500.0));
    sim.kernel()
        .trace
        .events()
        .iter()
        .map(|e| (e.t.as_micros(), e.detail.clone()))
        .collect()
}

/// One mid-expand crash run: a 2-rank malleable world is told to grow to 4
/// (joiners on ws2/ws3) and ws2 is crashed at a seed-derived time that is
/// always *before* the transaction can commit. The reconfiguration engine
/// must abort, roll the world back to its poll-point, and let the original
/// two ranks finish with the exact answer — no epoch bump, no resize, no
/// half-joined world.
fn expand_crash_run(seed: u64) -> Vec<(u64, String)> {
    let mut sim = Sim::new(
        (0..4)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            trace: true,
            ..SimConfig::default()
        },
    );
    // The command lands at 0.6 s, the ranks reach their first poll-point
    // at ~2.0 s (one chunk = 4 items × 0.5 s), and the earliest possible
    // commit is ~3.3 s (DPM init + checkpoint transfer + restore). Crash
    // times span [0.7, 2.46] s: some seeds kill the joiner host before the
    // transaction even starts (spawn refused → prepare deadline), others
    // mid-prepare (READY never arrives) — both must end in rollback.
    let crash_at = 0.7 + (seed % 23) as f64 * 0.08;
    sim.schedule_fault(t(crash_at), Fault::HostCrash { host: 2 });

    let cfg = MalleableTreeConfig {
        items: 96,
        item_cost: 0.5,
        chunk_items: 4,
        ..MalleableTreeConfig::small()
    };
    let mpi = Mpi::new();
    let comm = mpi.create_comm(vec![]);
    let hooks = HpcmHooks::new();
    let mut pids = Vec::new();
    for rank in 0..2u32 {
        let app = MalleableTree::new(cfg.clone(), mpi.clone(), comm);
        let pid = HpcmShell::spawn_on(
            &mut sim,
            HostId(rank),
            app,
            HpcmConfig::default(),
            Some(mpi.clone()),
            hooks.clone(),
        );
        let task = mpi.task_of(pid).expect("task bound at spawn");
        mpi.join(comm, task).expect("join world");
        pids.push(pid);
    }

    sim.run_until(t(0.6));
    sim.kernel_mut().hosts[0].write_file(dest_file_path(pids[0]), "expand:4:ws2,ws3".to_string());
    sim.signal(pids[0], MIGRATE_SIGNAL);
    sim.run_until(t(300.0));

    // Rolled back to the old world: size and epoch exactly as launched.
    assert_eq!(
        mpi.comm_size(comm).unwrap(),
        2,
        "seed {seed}: world size changed despite the crashed joiner"
    );
    assert_eq!(
        mpi.epoch(comm).unwrap(),
        0,
        "seed {seed}: epoch bumped without a committed resize"
    );
    assert_eq!(
        hooks.resize_count(ResizeKind::Expand, MigrationOutcome::Committed),
        0,
        "seed {seed}: expand committed onto a dead host"
    );
    assert!(
        hooks.resize_count(ResizeKind::Expand, MigrationOutcome::Aborted) >= 1,
        "seed {seed}: no aborted expand on record"
    );
    assert_eq!(
        hooks.resize_count(ResizeKind::Expand, MigrationOutcome::InFlight),
        0,
        "seed {seed}: expand never resolved"
    );

    // The original ranks finished with the exact answer; nothing of the
    // aborted transaction is still alive.
    let expected = MalleableTree::expected_digest(&cfg);
    {
        let log = hooks.0.borrow();
        let done: Vec<_> = log
            .completions
            .iter()
            .filter(|c| c.app == "malleable_tree")
            .collect();
        assert_eq!(done.len(), 2, "seed {seed}: a survivor rank did not finish");
        for c in &done {
            assert_eq!(
                c.digest, expected,
                "seed {seed}: result corrupted by the aborted expand"
            );
        }
    }
    for &pid in &pids {
        assert!(!sim.is_alive(pid), "seed {seed}: {pid} still alive");
    }
    let stats = sim.fault_stats().copied().unwrap_or_default();
    assert_eq!(stats.crashes, 1, "seed {seed}: crash not injected");

    sim.kernel()
        .trace
        .events()
        .iter()
        .map(|e| (e.t.as_micros(), e.detail.clone()))
        .collect()
}

#[test]
fn expand_crash_rolls_back_to_the_old_world_over_the_seed_matrix() {
    let seeds = chaos_seeds();
    assert!(!seeds.is_empty(), "ARS_CHAOS_SEEDS parsed to nothing");
    for seed in seeds {
        let outcome = expand_crash_run(seed);
        let replay = expand_crash_run(seed);
        assert_eq!(
            outcome, replay,
            "seed {seed}: mid-expand crash replay diverged"
        );
    }
}

#[test]
fn enabling_observability_does_not_perturb_the_trace() {
    // The obs layer's zero-cost guarantee: the disabled handle is a no-op,
    // and an *enabled* session must not change a single trace event either
    // — recording never touches the kernel RNG, event queue or any
    // scheduling state.
    let baseline = obs_story(Obs::disabled());
    let session = Obs::enabled();
    let observed = obs_story(session.clone());
    assert_eq!(
        baseline, observed,
        "enabling observability perturbed the simulation"
    );
    // And the enabled run really was recording all along.
    assert!(session.recorded() > 0, "enabled session recorded nothing");
    assert!(
        session.counter("faults_injected") > 0,
        "fault schedule injected nothing"
    );
}

#[test]
fn observed_events_form_causal_chains() {
    let session = Obs::enabled();
    let _ = obs_story(session.clone());
    let events = session.events();

    // Every abort carries a reason, and is causally resolved: either a
    // later prepare (the runtime re-selected and retried) or an injected
    // fault on record explains the loss.
    for (i, rec) in events.iter().enumerate() {
        if let ObsEvent::MigrationAborted { reason, .. } = &rec.event {
            assert!(!reason.is_empty(), "abort without a reason at {:?}", rec.t);
            let retried_later = events[i..]
                .iter()
                .any(|r| matches!(r.event, ObsEvent::MigrationPrepared { .. }));
            let fault_on_record = events[..=i]
                .iter()
                .any(|r| matches!(r.event, ObsEvent::FaultInjected { .. }));
            assert!(
                retried_later || fault_on_record,
                "abort at {:?} with neither a retry nor a recorded loss cause",
                rec.t
            );
        }
    }

    // Every committed migration went through the full phase chain.
    for rec in session.of_kind(ObsKind::MigrationCommitted) {
        let ObsEvent::MigrationCommitted { pid_old, .. } = rec.event else {
            unreachable!("filtered by kind")
        };
        let prepared = events
            .iter()
            .any(|r| matches!(r.event, ObsEvent::MigrationPrepared { pid, .. } if pid == pid_old));
        let transferred = events.iter().any(
            |r| matches!(r.event, ObsEvent::MigrationTransferred { pid, .. } if pid == pid_old),
        );
        assert!(
            prepared && transferred,
            "commit of pid{pid_old} skipped a phase event"
        );
    }

    // The detector never writes a host off without suspecting it first.
    for (i, rec) in events.iter().enumerate() {
        if let ObsEvent::HostDown { host, .. } = &rec.event {
            let suspected_before = events[..i].iter().any(|r| {
                matches!(&r.event, ObsEvent::HostSuspect { host: h, .. } if h == host)
                    || matches!(&r.event, ObsEvent::HostDown { host: h, .. } if h == host)
            });
            assert!(
                suspected_before,
                "{host} went Down without a prior Suspect event"
            );
        }
    }

    // Counters cohere with the event stream.
    let committed = session.of_kind(ObsKind::MigrationCommitted).len() as u64;
    assert!(session.counter("migrations_started") >= committed);
    assert_eq!(
        session.counter("faults_injected"),
        session.of_kind(ObsKind::FaultInjected).len() as u64
    );
}
