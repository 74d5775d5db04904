//! The `bench_faults` scenario: app-completion rate and migration-recovery
//! latency as a function of fault rate, on an N-workstation cluster.
//!
//! Every app host is overloaded shortly after start so each application
//! must migrate off through the commander → HPCM transaction while a
//! seeded [`FaultPlan`] crashes hosts, stalls monitors and corrupts the
//! control-message stream. The interesting outputs are:
//!
//! * **completion rate** — apps that finish vs apps started. Crashes that
//!   land on an app's host (or its destination after commit) lose that app
//!   by design; everything else must self-heal.
//! * **recovery latency** — per app, time from the first migration
//!   poll-point to the first *committed* resume. Under a zero-fault plan
//!   this is plain migration latency; faults inflate it with rollbacks,
//!   destination re-selection and command retransmits.
//!
//! Determinism is asserted before anything is measured: the same seed and
//! level must replay to a bit-identical trace.

use ars_apps::{Spinner, TestTree, TestTreeConfig};
use ars_hpcm::{HpcmConfig, HpcmHooks, HpcmShell, MigratableApp, MigrationOutcome};
use ars_obs::Obs;
use ars_rescheduler::{deploy, deploy_tree, DeployConfig};
use ars_sim::{Fault, FaultPlan, HostId, MessageFaults, ScheduleParams, Sim, SimConfig, SpawnOpts};
use ars_simcore::{SimDuration, SimTime};
use ars_simhost::HostConfig;

/// One point on the fault-rate axis.
pub struct FaultLevel {
    /// Display name ("none", "light", ...).
    pub name: &'static str,
    /// Fraction of worker hosts crashed (once each) during the run.
    pub crash_frac: f64,
    /// Per-message fault probabilities for cross-host deliveries.
    pub messages: MessageFaults,
}

/// The fault-rate sweep, mildest first.
pub fn levels() -> Vec<FaultLevel> {
    let msgs = |drop: f64, duplicate: f64, delay: f64, delay_ms: u64| MessageFaults {
        drop,
        duplicate,
        delay,
        delay_by: SimDuration::from_millis(delay_ms),
    };
    vec![
        FaultLevel {
            name: "none",
            crash_frac: 0.0,
            messages: MessageFaults::default(),
        },
        FaultLevel {
            name: "light",
            crash_frac: 0.02,
            messages: msgs(0.005, 0.005, 0.02, 50),
        },
        FaultLevel {
            name: "moderate",
            crash_frac: 0.05,
            messages: msgs(0.01, 0.01, 0.05, 80),
        },
        FaultLevel {
            name: "heavy",
            crash_frac: 0.10,
            messages: msgs(0.02, 0.02, 0.10, 120),
        },
    ]
}

/// Result of one scenario run.
pub struct FaultRun {
    /// Applications started.
    pub apps: usize,
    /// Applications that completed.
    pub completed: usize,
    /// Committed migrations, all apps.
    pub committed: usize,
    /// Aborted (rolled-back) migrations, all apps.
    pub aborted: usize,
    /// Commander → monitor command retransmits.
    pub retransmits: usize,
    /// Commands the commander gave up on after exhausting retries.
    pub commands_aborted: usize,
    /// Host crashes actually injected.
    pub crashes: u64,
    /// Processes killed by those crashes.
    pub procs_killed: u64,
    /// Control-plane deliveries dropped by the message-fault roll.
    pub msgs_dropped: u64,
    /// Mean seconds from first migration poll-point to committed resume,
    /// over apps that committed a migration. `None` if nothing committed.
    pub mean_recovery_s: Option<f64>,
    /// Rendered trace events when recording was requested.
    pub trace: Option<Vec<String>>,
}

/// Simulated horizon of the scenario, seconds.
pub const RUN_S: u64 = 3000;

/// Faults are scheduled inside this prefix of the run, while the apps are
/// still alive and migrating.
const FAULT_WINDOW_S: u64 = 600;

/// Run the chaos scenario on `n_hosts` workstations.
///
/// Host 0 is the registry machine; hosts `1..=n_hosts` each run a monitor
/// and a commander. `min(16, n_hosts / 4)` HPCM-wrapped apps start on
/// hosts 1, 2, ...; at t = 60 s two spinners land on each app host, so
/// every app must migrate off under whatever the fault plan throws at the
/// control plane.
/// Observability session threaded through every layer (kernel faults,
/// registry, monitors, commanders, HPCM shells). Pass [`Obs::disabled`]
/// for the bare scenario; an enabled handle collects per-phase migration
/// and detector-reaction histograms without perturbing the run.
pub fn chaos_completion(
    n_hosts: usize,
    seed: u64,
    level: &FaultLevel,
    record_trace: bool,
    obs: Obs,
) -> FaultRun {
    let n_apps = 16.min(n_hosts / 4).max(1);
    assert!(n_hosts > n_apps, "need free hosts as destinations");
    let crash_hosts = (level.crash_frac * n_hosts as f64).round() as u32;
    let plan = FaultPlan::seeded(
        seed,
        &ScheduleParams {
            host_lo: 1,
            host_hi: n_hosts as u32 + 1,
            horizon: SimTime::from_secs(FAULT_WINDOW_S),
            crashes: crash_hosts,
            recover_after: SimDuration::from_secs(120),
            stalls: crash_hosts.div_ceil(2),
            stall_for: SimDuration::from_secs(45),
            messages: level.messages,
            ..ScheduleParams::default()
        },
    );

    let mut sim = Sim::new(
        (0..=n_hosts)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            trace: record_trace,
            faults: plan,
            obs: obs.clone(),
            ..SimConfig::default()
        },
    );
    let workers: Vec<HostId> = (1..=n_hosts).map(|i| HostId(i as u32)).collect();
    let dep = deploy(
        &mut sim,
        HostId(0),
        &workers,
        DeployConfig {
            overload_confirm: SimDuration::from_secs(40),
            obs: obs.clone(),
            ..DeployConfig::default()
        },
    );

    // One hooks handle per app so outcomes and latencies stay attributable.
    let mut app_hooks = Vec::with_capacity(n_apps);
    for i in 0..n_apps {
        let app = TestTree::new(TestTreeConfig {
            trees: 8,
            levels: 13,
            node_cost_build: 2e-3,
            node_cost_sort: 3e-3,
            node_cost_sum: 1e-3,
            chunk_nodes: 1024,
            rss_kb: 24_576,
            seed: seed.wrapping_add(i as u64),
        });
        dep.schemas.put(MigratableApp::schema(&app));
        let hooks = HpcmHooks::new();
        HpcmShell::spawn_on(
            &mut sim,
            HostId(i as u32 + 1),
            app,
            HpcmConfig {
                obs: obs.clone(),
                ..HpcmConfig::default()
            },
            None,
            hooks.clone(),
        );
        app_hooks.push(hooks);
    }

    sim.run_until(SimTime::from_secs(60));
    for i in 0..n_apps {
        for _ in 0..2 {
            sim.spawn(
                HostId(i as u32 + 1),
                Box::new(Spinner::default()),
                SpawnOpts::named("hog"),
            );
        }
    }
    sim.run_until(SimTime::from_secs(RUN_S));

    let mut completed = 0;
    let mut committed = 0;
    let mut aborted = 0;
    let mut recoveries = Vec::new();
    for hooks in &app_hooks {
        if !hooks.0.borrow().completions.is_empty() {
            completed += 1;
        }
        committed += hooks.outcome_count(MigrationOutcome::Committed);
        aborted += hooks.outcome_count(MigrationOutcome::Aborted);
        let log = hooks.0.borrow();
        let first_attempt = log.migrations.iter().map(|m| m.pollpoint_at).min();
        let first_commit = log
            .migrations
            .iter()
            .filter(|m| m.outcome == MigrationOutcome::Committed)
            .filter_map(|m| m.resumed_at)
            .min();
        if let (Some(start), Some(resumed)) = (first_attempt, first_commit) {
            recoveries.push(resumed.since(start).as_secs_f64());
        }
    }
    let stats = sim.fault_stats().copied().unwrap_or_default();
    let trace = record_trace.then(|| {
        sim.kernel()
            .trace
            .events()
            .iter()
            .map(|e| format!("{:?} {:?} {}", e.t, e.kind, e.detail))
            .collect()
    });
    FaultRun {
        apps: n_apps,
        completed,
        committed,
        aborted,
        retransmits: dep.hooks.command_retransmits(),
        commands_aborted: dep.hooks.commands_aborted(),
        crashes: stats.crashes,
        procs_killed: stats.procs_killed,
        msgs_dropped: stats.msgs_dropped,
        mean_recovery_s: (!recoveries.is_empty())
            .then(|| recoveries.iter().sum::<f64>() / recoveries.len() as f64),
        trace,
    }
}

// --- registry-targeted chaos: tree depth × registry-fault level -------------

/// Which layer of the registry tree is crashed in a [`registry_chaos`] run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum RegistryTarget {
    /// No registry fault: the fault-tolerant tree's fault-free baseline.
    None,
    /// One leaf registry (its hosts go unmanaged until it recovers).
    Leaf,
    /// One mid registry (its leaves must re-parent to the root). Only
    /// meaningful at depth 3.
    Mid,
    /// The root (its children have no grandparent: buffer-and-retry).
    Root,
}

impl RegistryTarget {
    /// Display name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            RegistryTarget::None => "none",
            RegistryTarget::Leaf => "leaf",
            RegistryTarget::Mid => "mid",
            RegistryTarget::Root => "root",
        }
    }

    /// The cells of the sweep: every target valid at `depth`.
    pub fn for_depth(depth: usize) -> Vec<RegistryTarget> {
        let mut t = vec![RegistryTarget::None, RegistryTarget::Leaf];
        if depth >= 3 {
            t.push(RegistryTarget::Mid);
        }
        t.push(RegistryTarget::Root);
        t
    }
}

/// Result of one [`registry_chaos`] run.
pub struct RegistryRun {
    /// Applications started / completed. Registry faults must never lose
    /// an app, so `completed == apps` is asserted by the bench driver.
    pub apps: usize,
    /// Applications that completed.
    pub completed: usize,
    /// Committed migrations, all apps.
    pub committed: usize,
    /// Registry crashes / recoveries actually injected.
    pub registry_crashes: u64,
    /// Recoveries injected (restart with empty soft state).
    pub registry_recoveries: u64,
    /// Control deliveries black-holed by dead registries / severed edges.
    pub msgs_blackholed_registry: u64,
    /// Rendered trace events when recording was requested.
    pub trace: Option<Vec<String>>,
}

/// The registry-fault injection window: crash at 120 s (decisions are in
/// flight by then), recover at 420 s (long past every detector threshold,
/// so orphans must re-parent or back off rather than wait it out).
pub const REGISTRY_CRASH_S: u64 = 120;
/// See [`REGISTRY_CRASH_S`].
pub const REGISTRY_RECOVER_S: u64 = 420;

/// One cell of the registry-fault family: a fault-tolerant registry tree
/// of `depth` levels (2 → root + leaves, 3 → root + mids + leaves) over 4
/// workstations — one per leaf at depth 3, so every migration is a
/// cross-domain escalation — with one registry of the target layer crashed
/// mid-run. Apps and spinners mirror [`chaos_completion`]: both app hosts
/// overload at 60 s, forcing migrations through whatever is left of the
/// tree.
pub fn registry_chaos(
    depth: usize,
    seed: u64,
    target: RegistryTarget,
    record_trace: bool,
    obs: Obs,
) -> RegistryRun {
    assert!(depth == 2 || depth == 3, "depth 2 or 3");
    assert!(
        target != RegistryTarget::Mid || depth == 3,
        "mid registries only exist at depth 3"
    );
    let fanout: &[usize] = if depth == 2 { &[2] } else { &[2, 2] };
    let n_hosts = 4;
    let n_apps = 2;

    let mut sim = Sim::new(
        (0..=n_hosts)
            .map(|i| HostConfig::named(format!("ws{i}")))
            .collect(),
        SimConfig {
            seed,
            trace: record_trace,
            obs: obs.clone(),
            ..SimConfig::default()
        },
    );
    let workers: Vec<HostId> = (1..=n_hosts).map(|i| HostId(i as u32)).collect();
    let dep = deploy_tree(
        &mut sim,
        HostId(0),
        &workers,
        fanout,
        DeployConfig {
            overload_confirm: SimDuration::from_secs(40),
            obs: obs.clone(),
            ..DeployConfig::default()
        },
    );
    let victim = match target {
        RegistryTarget::None => None,
        RegistryTarget::Leaf => Some(dep.leaves[seed as usize % dep.leaves.len()]),
        RegistryTarget::Mid => Some(dep.levels[1][seed as usize % dep.levels[1].len()]),
        RegistryTarget::Root => Some(dep.root),
    };
    if let Some(pid) = victim {
        sim.schedule_fault(
            SimTime::from_secs(REGISTRY_CRASH_S),
            Fault::RegistryCrash { pid: pid.0 },
        );
        sim.schedule_fault(
            SimTime::from_secs(REGISTRY_RECOVER_S),
            Fault::RegistryRecover { pid: pid.0 },
        );
    }

    let mut app_hooks = Vec::with_capacity(n_apps);
    for i in 0..n_apps {
        let app = TestTree::new(TestTreeConfig {
            trees: 8,
            levels: 13,
            node_cost_build: 2e-3,
            node_cost_sort: 3e-3,
            node_cost_sum: 1e-3,
            chunk_nodes: 1024,
            rss_kb: 24_576,
            seed: seed.wrapping_add(i as u64),
        });
        dep.schemas.put(MigratableApp::schema(&app));
        let hooks = HpcmHooks::new();
        HpcmShell::spawn_on(
            &mut sim,
            HostId(i as u32 + 1),
            app,
            HpcmConfig {
                obs: obs.clone(),
                ..HpcmConfig::default()
            },
            None,
            hooks.clone(),
        );
        app_hooks.push(hooks);
    }

    sim.run_until(SimTime::from_secs(60));
    for i in 0..n_apps {
        for _ in 0..2 {
            sim.spawn(
                HostId(i as u32 + 1),
                Box::new(Spinner::default()),
                SpawnOpts::named("hog"),
            );
        }
    }
    sim.run_until(SimTime::from_secs(RUN_S));

    let mut completed = 0;
    let mut committed = 0;
    for hooks in &app_hooks {
        if !hooks.0.borrow().completions.is_empty() {
            completed += 1;
        }
        committed += hooks.outcome_count(MigrationOutcome::Committed);
    }
    let stats = sim.fault_stats().copied().unwrap_or_default();
    let trace = record_trace.then(|| {
        sim.kernel()
            .trace
            .events()
            .iter()
            .map(|e| format!("{:?} {:?} {}", e.t, e.kind, e.detail))
            .collect()
    });
    RegistryRun {
        apps: n_apps,
        completed,
        committed,
        registry_crashes: stats.registry_crashes,
        registry_recoveries: stats.registry_recoveries,
        msgs_blackholed_registry: stats.msgs_blackholed_registry,
        trace,
    }
}
