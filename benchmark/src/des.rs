//! The three discrete-event workloads, rebuilt from the layers' public API
//! (`Sim`, `deploy`, `deploy_tree`, `HpcmShell::spawn_on`, `FaultPlan`, …)
//! so that nothing here moves when `crates/bench` is refactored.
//!
//! * `flat_hb` / `tree_hb` — hub + N workstations under a flat registry or
//!   a `[4, 4]` registry tree; every workstation runs a monitor, a
//!   commander and three ambient daemons; one `TestTree` on ws1 is pushed
//!   off by two spinners → exactly one migration.
//! * `reconfig_storm` — hub + 64 workstations, 24 migratable `TestTree`
//!   apps and 4 malleable `MalleableTree` worlds chased by waves of batch
//!   jobs under a seeded message-fault plan.
//!
//! One *rep* is: build the scenario (timed as set-up), then run it to the
//! horizon in [`SLICE_S`]-sim-second slices (timed as the wall span).

use crate::span::Spans;
use ars_apps::{CpuHog, DaemonNoise, MalleableTree, MalleableTreeConfig, PollDaemon, Spinner};
use ars_apps::{TestTree, TestTreeConfig};
use ars_hpcm::{HpcmConfig, HpcmHooks, HpcmShell, MigratableApp, MigrationOutcome};
use ars_mpisim::Mpi;
use ars_obs::Obs;
use ars_rescheduler::{deploy, deploy_tree, DeployConfig, MalleableJob, ReschedHooks, SchemaBook};
use ars_rules::{MonitoringFrequency, ResizeAction, ResizeMetric, ResizeRule, RuleOp};
use ars_sim::{FaultPlan, FaultStats, HostId, MessageFaults, Sim, SimConfig, SpawnOpts};
use ars_simcore::{SimDuration, SimTime};
use ars_simhost::HostConfig;
use ars_simnet::NodeId;
use std::time::Instant;

/// Length of one timed `run_until` slice, simulated seconds.
pub const SLICE_S: u64 = 20;

/// Which DES workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FlatHb,
    TreeHb,
    ReconfigStorm,
}

/// Frozen scenario sizes. `full` is what `BENCHMARK.json` measures;
/// `quick` only validates checks and output shape.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Workstations (the hub is extra).
    pub hosts: usize,
    /// Simulated horizon, seconds (a multiple of [`SLICE_S`]).
    pub horizon_s: u64,
    /// Heartbeat period of a free or busy host, simulated seconds (an
    /// overloaded one reports every 5).
    pub hb_period_s: u64,
}

impl Sizes {
    /// Heartbeat periods the workstations serve in one rep: the unit of
    /// `hb_per_sec` and `hb_lat_p50_s` on the DES workloads.
    pub fn nominal_heartbeats(&self, sim_seconds: u64) -> f64 {
        (self.hosts as u64 * sim_seconds / self.hb_period_s) as f64
    }

    fn monitoring(&self) -> MonitoringFrequency {
        MonitoringFrequency {
            free: SimDuration::from_secs(self.hb_period_s),
            busy: SimDuration::from_secs(self.hb_period_s),
            overloaded: SimDuration::from_secs(5),
        }
    }
}

impl Kind {
    pub fn sizes(self, quick: bool) -> Sizes {
        match self {
            Kind::FlatHb | Kind::TreeHb => Sizes {
                hosts: if quick { 256 } else { 2048 },
                horizon_s: 300,
                hb_period_s: 10,
            },
            // Rare heartbeats: the storm is about reconfigurations, and
            // its background twin must stay a small share of the rep.
            Kind::ReconfigStorm => Sizes {
                hosts: 64,
                horizon_s: if quick { 1_200 } else { 3_600 },
                hb_period_s: 30,
            },
        }
    }
}

// --- flat_hb / tree_hb shape -------------------------------------------------

/// When the two spinners land on ws1 (a slice boundary).
const HB_SPIN_AT_S: u64 = 20;
/// Registry-tree fan-out of `tree_hb`: root + 4 mid + 16 leaf registries.
const TREE_FANOUT: [usize; 2] = [4, 4];

/// The one application of `flat_hb`/`tree_hb`: ~98 reference CPU-seconds,
/// so it is still running when the overload is confirmed (~130 sim-s) and
/// finishes, migrated, well inside the 300 sim-s horizon.
fn hb_app(seed: u64) -> TestTreeConfig {
    TestTreeConfig {
        trees: 2,
        levels: 13,
        node_cost_build: 2e-3,
        node_cost_sort: 3e-3,
        node_cost_sum: 1e-3,
        chunk_nodes: 1024,
        rss_kb: 24_576,
        seed,
    }
}

// --- reconfig_storm shape ----------------------------------------------------

const STORM_APPS: u32 = 24;
const STORM_WORLDS: u32 = 4;
const STORM_WORLD_RANKS: u32 = 2;
/// First wave, and the spacing between waves, simulated seconds.
const STORM_FIRST_WAVE_S: u64 = 60;
const STORM_WAVE_EVERY_S: u64 = 240;
/// No wave lands in the second half of the horizon, so every app drains.
const STORM_LAST_WAVE_FRAC: f64 = 0.5;
const STORM_JOBS_PER_HOST: usize = 2;
const STORM_JOB_CPU_S: f64 = 60.0;

/// ~786 reference CPU-seconds (quick: ~393) over trees of 65535 nodes, so
/// each migration checkpoints, checksums and restores 512 KiB of live data.
fn storm_app(seed: u64, i: u32, quick: bool) -> TestTreeConfig {
    TestTreeConfig {
        trees: if quick { 1 } else { 2 },
        levels: 16,
        seed: seed.wrapping_add(u64::from(i)),
        ..hb_app(seed)
    }
}

/// 6-second chunks keep every rank within `HpcmConfig::prepare_timeout`
/// (10 s) of its next poll-point, so a freeze request is normally honoured;
/// the 1-second idle re-poll bounds the bag scan a drained rank performs.
fn storm_world(quick: bool) -> MalleableTreeConfig {
    MalleableTreeConfig {
        items: if quick { 150 } else { 400 },
        item_cost: 6.0,
        chunk_items: 1,
        block: 4,
        poll_cost: 1.0,
        rss_kb: 16_384,
        seed: 7,
    }
}

fn storm_rules() -> Vec<ResizeRule> {
    let rule = |metric, threshold, action| ResizeRule {
        app: "malleable_tree".to_string(),
        metric,
        op: RuleOp::GreaterEq,
        threshold,
        action,
        step: 2,
        min_ranks: STORM_WORLD_RANKS,
        max_ranks: 4,
    };
    vec![
        rule(ResizeMetric::FreeFrac, 0.45, ResizeAction::Expand),
        rule(ResizeMetric::OverloadedFrac, 0.2, ResizeAction::Shrink),
    ]
}

/// Message faults only, and no drops: a dropped HPCM `COMMIT_ACK` loses
/// the application by design (the destination cannot tell a lost ack from
/// a rolled-back source), and a workload on which operations fail cannot
/// gate. Duplicates and delays still exercise de-duplication, reordering
/// and the transaction deadlines.
fn storm_faults(seed: u64) -> FaultPlan {
    FaultPlan::none()
        .with_messages(MessageFaults {
            drop: 0.0,
            duplicate: 0.005,
            delay: 0.02,
            delay_by: SimDuration::from_millis(50),
        })
        .with_seed(seed)
}

// --- one built scenario --------------------------------------------------------

/// One application (or malleable world) whose result is checked.
struct Tracked {
    hooks: HpcmHooks,
    expected_digest: u64,
}

struct Scenario {
    sim: Sim,
    resched: ReschedHooks,
    tracked: Vec<Tracked>,
}

/// Host times of the three set-up steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub sim_new_s: f64,
    pub deploy_s: f64,
    pub spawn_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.sim_new_s + self.deploy_s + self.spawn_s
    }
}

fn host_configs(n: usize) -> Vec<HostConfig> {
    let mut hosts = vec![HostConfig::named("hub")];
    hosts.extend((1..=n).map(|i| HostConfig::named(format!("ws{i}"))));
    hosts
}

fn workstations(n: usize) -> Vec<HostId> {
    (1..=n as u32).map(HostId).collect()
}

fn hpcm_config(obs: &Obs) -> HpcmConfig {
    HpcmConfig {
        obs: obs.clone(),
        ..HpcmConfig::default()
    }
}

fn spawn_test_tree(
    sim: &mut Sim,
    schemas: &SchemaBook,
    host: HostId,
    cfg: TestTreeConfig,
    obs: &Obs,
) -> Tracked {
    let expected_digest = TestTree::expected_sum(&cfg);
    let app = TestTree::new(cfg);
    schemas.put(MigratableApp::schema(&app));
    let hooks = HpcmHooks::new();
    HpcmShell::spawn_on(sim, host, app, hpcm_config(obs), None, hooks.clone());
    Tracked {
        hooks,
        expected_digest,
    }
}

fn build_hb(
    kind: Kind,
    sizes: Sizes,
    seed: u64,
    obs: &Obs,
    spans: &mut Spans,
) -> (Scenario, SetupTimes) {
    let (mut sim, sim_new_s) = spans.time("sim_new", |_| {
        Sim::new(
            host_configs(sizes.hosts),
            SimConfig {
                seed,
                obs: obs.clone(),
                ..SimConfig::default()
            },
        )
    });
    let monitored = workstations(sizes.hosts);
    let cfg = DeployConfig {
        freq: sizes.monitoring(),
        obs: obs.clone(),
        ..DeployConfig::default()
    };
    let ((resched, schemas), deploy_s) = spans.time("deploy", |_| {
        if kind == Kind::TreeHb {
            let d = deploy_tree(&mut sim, HostId(0), &monitored, &TREE_FANOUT, cfg);
            (d.hooks, d.schemas)
        } else {
            let d = deploy(&mut sim, HostId(0), &monitored, cfg);
            (d.hooks, d.schemas)
        }
    });
    let (app, spawn_s) = spans.time("spawn", |_| {
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
            sim.spawn(
                host,
                Box::new(PollDaemon::new(1.0)),
                SpawnOpts::named("netsvc"),
            );
        }
        spawn_test_tree(&mut sim, &schemas, HostId(1), hb_app(seed), obs)
    });
    (
        Scenario {
            sim,
            resched,
            tracked: vec![app],
        },
        SetupTimes {
            sim_new_s,
            deploy_s,
            spawn_s,
        },
    )
}

/// `background_only` builds the twin the `sim.background_share` metric
/// needs: same hosts, daemons, monitors and fault plan; no apps, no waves.
fn build_storm(
    sizes: Sizes,
    seed: u64,
    quick: bool,
    background_only: bool,
    obs: &Obs,
    spans: &mut Spans,
) -> (Scenario, SetupTimes) {
    let (mut sim, sim_new_s) = spans.time("sim_new", |_| {
        Sim::new(
            host_configs(sizes.hosts),
            SimConfig {
                seed,
                faults: storm_faults(seed),
                obs: obs.clone(),
                ..SimConfig::default()
            },
        )
    });
    let monitored = workstations(sizes.hosts);
    let mut tracked = Vec::new();
    let mut test_trees = Vec::new();
    let mut jobs = Vec::new();
    let mut world_schema = None;
    let world_cfg = storm_world(quick);

    // Worlds first: the registry's job table needs the coordinators' pids.
    let ((), spawn_s) = spans.time("spawn", |_| {
        // Ambient load of a non-dedicated workstation (~0.2), in long
        // bursts: the background stays a small share of the rep.
        for &host in &monitored {
            sim.spawn(
                host,
                Box::new(DaemonNoise::new(0.2, 4.0)),
                SpawnOpts::named("daemons"),
            );
        }
        if background_only {
            return;
        }
        for i in 0..STORM_APPS {
            test_trees.push((HostId(1 + i), storm_app(seed, i, quick)));
        }
        for w in 0..STORM_WORLDS {
            let mpi = Mpi::new();
            let comm = mpi.create_comm(vec![]);
            let hooks = HpcmHooks::new();
            let mut names = Vec::new();
            let mut coordinator = 0;
            for rank in 0..STORM_WORLD_RANKS {
                let host = 1 + STORM_APPS + STORM_WORLD_RANKS * w + rank;
                let app = MalleableTree::new(world_cfg.clone(), mpi.clone(), comm);
                world_schema.get_or_insert_with(|| MigratableApp::schema(&app));
                let pid = HpcmShell::spawn_on(
                    &mut sim,
                    HostId(host),
                    app,
                    hpcm_config(obs),
                    Some(mpi.clone()),
                    hooks.clone(),
                );
                let task = mpi.task_of(pid).expect("task bound at spawn");
                mpi.join(comm, task).expect("fresh rank joins its world");
                if rank == 0 {
                    coordinator = pid.0;
                }
                names.push(format!("ws{host}"));
            }
            jobs.push(MalleableJob::new(
                "malleable_tree",
                names[0].clone(),
                coordinator,
                names,
                storm_rules(),
            ));
            tracked.push(Tracked {
                hooks,
                expected_digest: MalleableTree::expected_digest(&world_cfg),
            });
        }
    });
    let (dep, deploy_s) = spans.time("deploy", |_| {
        deploy(
            &mut sim,
            HostId(0),
            &monitored,
            DeployConfig {
                freq: sizes.monitoring(),
                overload_confirm: SimDuration::from_secs(30),
                malleable_jobs: jobs,
                resize_cooldown: SimDuration::from_secs(45),
                obs: obs.clone(),
                ..DeployConfig::default()
            },
        )
    });
    // The schema book only exists after `deploy`, so the migratable apps
    // are spawned (and registered in it) afterwards.
    let ((), spawn2_s) = spans.time("spawn", |_| {
        if let Some(schema) = world_schema {
            dep.schemas.put(schema);
        }
        for (host, cfg) in test_trees {
            tracked.push(spawn_test_tree(&mut sim, &dep.schemas, host, cfg, obs));
        }
    });
    (
        Scenario {
            sim,
            resched: dep.hooks,
            tracked,
        },
        SetupTimes {
            sim_new_s,
            deploy_s,
            spawn_s: spawn_s + spawn2_s,
        },
    )
}

/// Hosts that currently run a `test_tree` process (where a wave lands).
/// Malleable ranks are left alone: a migrated coordinator would strand its
/// world's entry in the registry's job table.
fn app_hosts(sim: &Sim) -> Vec<HostId> {
    sim.kernel()
        .hosts
        .iter()
        .enumerate()
        .filter(|(_, h)| h.procs().iter().any(|p| &*p.name == "test_tree"))
        .map(|(i, _)| HostId(i as u32))
        .collect()
}

/// What happens at a slice boundary before the next slice runs.
fn inject(kind: Kind, sizes: Sizes, background_only: bool, at_s: u64, sim: &mut Sim) {
    match kind {
        Kind::FlatHb | Kind::TreeHb => {
            if at_s == HB_SPIN_AT_S {
                for _ in 0..2 {
                    sim.spawn(
                        HostId(1),
                        Box::new(Spinner::default()),
                        SpawnOpts::named("hog"),
                    );
                }
            }
        }
        Kind::ReconfigStorm => {
            let last = (sizes.horizon_s as f64 * STORM_LAST_WAVE_FRAC) as u64;
            let is_wave = at_s >= STORM_FIRST_WAVE_S
                && at_s <= last
                && (at_s - STORM_FIRST_WAVE_S).is_multiple_of(STORM_WAVE_EVERY_S);
            if is_wave && !background_only {
                for host in app_hosts(sim) {
                    for _ in 0..STORM_JOBS_PER_HOST {
                        sim.spawn(
                            host,
                            Box::new(CpuHog::new(STORM_JOB_CPU_S)),
                            SpawnOpts::named("batch_job"),
                        );
                    }
                }
            }
        }
    }
}

// --- one rep and what it reports ---------------------------------------------

/// Everything one rep measured. Fields under "simulated" repeat exactly
/// for a seed; the rest is host time.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup: SetupTimes,
    /// Host seconds of the whole run span (slices + injections).
    pub wall_s: f64,
    /// Host seconds of each [`SLICE_S`] slice.
    pub slice_walls: Vec<f64>,
    /// `VmHWM` right after the rep, KiB.
    pub rss_after_kb: u64,

    // simulated
    pub events: u64,
    pub apps_started: usize,
    pub apps_ok: usize,
    pub migrations_committed: usize,
    pub migrations_aborted: usize,
    pub resizes_committed: usize,
    pub resizes_aborted: usize,
    pub sim_migration_s: f64,
    pub sim_turnaround_s: f64,
    /// When the last application finished, simulated seconds.
    pub last_finish_s: f64,
    pub registry_rx_bytes: f64,
    pub eager_bytes: u64,
    pub moved_bytes: u64,
    pub decisions: usize,
    pub commands_sent: usize,
    pub retransmits: usize,
    pub commands_aborted: usize,
    pub faults: FaultStats,
    /// FNV-1a over the externally visible outcome (decision log,
    /// migration/resize timelines, completions, event count).
    pub outcome_fnv64: u64,
}

impl Rep {
    /// The values that must be bit-equal between same-seed reps.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.events,
            self.sim_migration_s.to_bits(),
            self.sim_turnaround_s.to_bits(),
            self.registry_rx_bytes.to_bits(),
            self.outcome_fnv64,
        )
    }

    pub fn reconfigurations(&self) -> usize {
        self.migrations_committed + self.resizes_committed
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn collect(scn: &Scenario, sizes: Sizes) -> Rep {
    let mut fnv = Fnv::new();
    let mut rep = Rep {
        setup: SetupTimes::default(),
        wall_s: 0.0,
        slice_walls: Vec::new(),
        rss_after_kb: 0,
        events: scn.sim.kernel().events_handled(),
        apps_started: scn.tracked.len(),
        apps_ok: 0,
        migrations_committed: 0,
        migrations_aborted: 0,
        resizes_committed: 0,
        resizes_aborted: 0,
        sim_migration_s: 0.0,
        sim_turnaround_s: 0.0,
        last_finish_s: 0.0,
        registry_rx_bytes: scn.sim.kernel().net.rx_bytes(NodeId(0)),
        eager_bytes: 0,
        moved_bytes: 0,
        decisions: scn.resched.decision_count(),
        commands_sent: scn.resched.commands_sent(),
        retransmits: scn.resched.command_retransmits(),
        commands_aborted: scn.resched.commands_aborted(),
        faults: scn.sim.fault_stats().copied().unwrap_or_default(),
        outcome_fnv64: 0,
    };
    fnv.u64(rep.events);
    for d in &scn.resched.0.borrow().decisions {
        fnv.u64(d.at.as_micros());
        fnv.bytes(d.source.as_bytes());
        fnv.bytes(d.dest.as_deref().unwrap_or("-").as_bytes());
        fnv.u64(d.pid.unwrap_or(0));
    }
    let mut migration_sum = 0.0;
    let mut turnaround_sum = 0.0;
    let horizon = SimTime::from_secs(sizes.horizon_s);
    for t in &scn.tracked {
        let log = t.hooks.0.borrow();
        for m in &log.migrations {
            fnv.u64(m.pollpoint_at.as_micros());
            fnv.u64(u64::from(m.from.0) << 32 | u64::from(m.to.0));
            match (m.outcome, m.resumed_at) {
                (MigrationOutcome::Committed, Some(resumed)) => {
                    rep.migrations_committed += 1;
                    rep.eager_bytes += m.eager_bytes;
                    migration_sum += resumed.since(m.pollpoint_at).as_secs_f64();
                    fnv.u64(resumed.as_micros());
                }
                (MigrationOutcome::Aborted, _) => rep.migrations_aborted += 1,
                _ => {}
            }
        }
        for r in &log.resizes {
            fnv.u64(r.started_at.as_micros());
            fnv.u64(u64::from(r.from_ranks) << 32 | u64::from(r.to_ranks));
            match r.outcome {
                MigrationOutcome::Committed => {
                    rep.resizes_committed += 1;
                    rep.moved_bytes += r.moved_bytes;
                }
                MigrationOutcome::Aborted => rep.resizes_aborted += 1,
                MigrationOutcome::InFlight => {}
            }
        }
        // A world logs one completion per rank; it is done when its last
        // rank is, and every rank must carry the exact digest.
        let finished = log.completions.iter().map(|c| c.finished_at).max();
        let exact = log
            .completions
            .iter()
            .all(|c| c.digest == t.expected_digest);
        for c in &log.completions {
            fnv.u64(c.finished_at.as_micros());
            fnv.u64(c.digest);
        }
        if let (Some(at), true) = (finished, exact) {
            if at <= horizon {
                rep.apps_ok += 1;
                turnaround_sum += at.as_secs_f64();
                rep.last_finish_s = rep.last_finish_s.max(at.as_secs_f64());
            }
        }
    }
    rep.sim_migration_s = migration_sum / rep.migrations_committed.max(1) as f64;
    rep.sim_turnaround_s = turnaround_sum / rep.apps_ok.max(1) as f64;
    rep.outcome_fnv64 = fnv.0;
    rep
}

/// Inputs of one rep.
#[derive(Clone)]
pub struct RepSpec {
    pub kind: Kind,
    pub sizes: Sizes,
    pub seed: u64,
    pub quick: bool,
    /// Build the storm's background-only twin.
    pub background_only: bool,
    /// Observability session threaded through every layer (disabled on
    /// end-to-end runs).
    pub obs: Obs,
}

/// Build the scenario, run it to the horizon, collect the outcome.
pub fn run_rep(spec: &RepSpec, spans: &mut Spans) -> Rep {
    let rep_span = spans.begin("rep");
    let setup_span = spans.begin("setup");
    let (mut scn, setup) = match spec.kind {
        Kind::FlatHb | Kind::TreeHb => build_hb(spec.kind, spec.sizes, spec.seed, &spec.obs, spans),
        Kind::ReconfigStorm => build_storm(
            spec.sizes,
            spec.seed,
            spec.quick,
            spec.background_only,
            &spec.obs,
            spans,
        ),
    };
    spans.end(setup_span);

    let run_span = spans.begin("run");
    let t_run = Instant::now();
    let mut slice_walls = Vec::with_capacity((spec.sizes.horizon_s / SLICE_S) as usize);
    let mut at_s = 0;
    while at_s < spec.sizes.horizon_s {
        inject(
            spec.kind,
            spec.sizes,
            spec.background_only,
            at_s,
            &mut scn.sim,
        );
        at_s += SLICE_S;
        let ((), secs) = spans.time("slice", |_| scn.sim.run_until(SimTime::from_secs(at_s)));
        slice_walls.push(secs);
    }
    let wall_s = t_run.elapsed().as_secs_f64();
    spans.end(run_span);

    let mut rep = collect(&scn, spec.sizes);
    rep.setup = setup;
    rep.wall_s = wall_s;
    rep.slice_walls = slice_walls;
    drop(scn);
    rep.rss_after_kb = crate::procfs::peak_rss_kb();
    spans.end(rep_span);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut f = Fnv::new();
        f.bytes(b"a");
        assert_eq!(f.0, 0xaf63_dc4c_8601_ec8c);
        let mut f = Fnv::new();
        f.bytes(b"foobar");
        assert_eq!(f.0, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn quick_flat_rep_migrates_once_and_repeats_exactly() {
        let spec = RepSpec {
            kind: Kind::FlatHb,
            sizes: Sizes {
                hosts: 16,
                horizon_s: 300,
                hb_period_s: 10,
            },
            seed: 11,
            quick: true,
            background_only: false,
            obs: Obs::disabled(),
        };
        let a = run_rep(&spec, &mut Spans::new(false));
        let b = run_rep(&spec, &mut Spans::new(false));
        assert_eq!(a.migrations_committed, 1);
        assert_eq!((a.apps_started, a.apps_ok), (1, 1));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.slice_walls.len(), 15);
        assert_eq!(a.faults, FaultStats::default());
    }
}
