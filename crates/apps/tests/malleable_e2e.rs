//! End-to-end malleability: whole MPI worlds growing and shrinking under
//! the reconfiguration engine, with block-cyclic data following the layout
//! and results staying bit-correct.

use ars_apps::{MalleableStencil, MalleableStencilConfig, MalleableTree, MalleableTreeConfig};
use ars_hpcm::{
    dest_file_path, AppStatus, CodecError, HpcmConfig, HpcmHooks, HpcmShell, MigratableApp,
    MigrationOutcome, ResizeKind, SavedState, MIGRATE_SIGNAL,
};
use ars_mpisim::{CommId, Mpi};
use ars_obs::Obs;
use ars_sim::{Ctx, Fault, HostId, Pid, Sim, SimConfig, TraceKind, Wake};
use ars_simcore::SimTime;
use ars_simhost::HostConfig;

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

/// Act as the commander: write the reconfiguration spec and post the
/// signal (same file + signal pair migration uses).
fn command(sim: &mut Sim, pid: Pid, host: HostId, spec: &str) {
    sim.kernel_mut().hosts[host.0 as usize].write_file(dest_file_path(pid), spec.to_string());
    sim.signal(pid, MIGRATE_SIGNAL);
}

/// Launch a k-rank malleable world, one shell per host `hosts[0..k]`,
/// returning the shared handles and per-rank pids.
fn launch_tree(
    sim: &mut Sim,
    cfg: &MalleableTreeConfig,
    k: u32,
) -> (Mpi, CommId, HpcmHooks, Vec<Pid>) {
    launch_tree_as(sim, cfg, k, &HpcmConfig::default(), |tree| tree)
}

/// [`launch_tree`] with a chosen shell configuration and each rank's
/// application passed through `wrap` first.
fn launch_tree_as<A: MigratableApp>(
    sim: &mut Sim,
    cfg: &MalleableTreeConfig,
    k: u32,
    hpcm: &HpcmConfig,
    wrap: impl Fn(MalleableTree) -> A,
) -> (Mpi, CommId, HpcmHooks, Vec<Pid>) {
    let mpi = Mpi::new();
    let comm = mpi.create_comm(vec![]);
    let hooks = HpcmHooks::new();
    let mut pids = Vec::new();
    for rank in 0..k {
        let app = wrap(MalleableTree::new(cfg.clone(), mpi.clone(), comm));
        let pid = HpcmShell::spawn_on(
            sim,
            HostId(rank),
            app,
            hpcm.clone(),
            Some(mpi.clone()),
            hooks.clone(),
        );
        let task = mpi.task_of(pid).expect("task bound at spawn");
        mpi.join(comm, task).expect("join world");
        pids.push(pid);
    }
    (mpi, comm, hooks, pids)
}

fn traced(sim: &Sim, kind: TraceKind, needle: &str) -> usize {
    let trace = &sim.kernel().trace;
    trace
        .of_kind(kind)
        .filter(|e| e.detail.contains(needle))
        .count()
}

fn launch_stencil(
    sim: &mut Sim,
    cfg: &MalleableStencilConfig,
    k: u32,
) -> (Mpi, CommId, HpcmHooks, Vec<Pid>) {
    let mpi = Mpi::new();
    let comm = mpi.create_comm(vec![]);
    let hooks = HpcmHooks::new();
    let mut pids = Vec::new();
    for rank in 0..k {
        let app = MalleableStencil::new(cfg.clone(), mpi.clone(), comm);
        let pid = HpcmShell::spawn_on(
            sim,
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
    (mpi, comm, hooks, pids)
}

fn all_tree_completions_ok(hooks: &HpcmHooks, cfg: &MalleableTreeConfig) -> usize {
    let expected = MalleableTree::expected_digest(cfg);
    let log = hooks.0.borrow();
    let completions: Vec<_> = log
        .completions
        .iter()
        .filter(|c| c.app == "malleable_tree")
        .collect();
    for c in &completions {
        assert_eq!(c.digest, expected, "corrupt result after reconfiguration");
    }
    completions.len()
}

#[test]
fn tree_expand_commits_and_work_follows_the_layout() {
    let mut sim = cluster(4);
    let cfg = MalleableTreeConfig::small();
    let (mpi, comm, hooks, pids) = launch_tree(&mut sim, &cfg, 2);

    sim.run_until(t(0.6));
    assert_eq!(mpi.epoch(comm).unwrap(), 0);
    command(&mut sim, pids[0], HostId(0), "expand:4:ws2,ws3");
    sim.run_until(t(120.0));

    assert_eq!(
        hooks.resize_count(ResizeKind::Expand, MigrationOutcome::Committed),
        1
    );
    let r = hooks.last_resize().expect("resize recorded");
    assert_eq!(r.from_ranks, 2);
    assert_eq!(r.to_ranks, 4);
    assert!(r.moved_bytes > 0, "block-cyclic data changed owner");
    assert!(r.committed_at.unwrap() > r.started_at);
    assert_eq!(mpi.epoch(comm).unwrap(), 1, "one epoch per resize");
    assert_eq!(mpi.comm_size(comm).unwrap(), 4);

    // Every rank (originals + joiners) finished with the right answer, and
    // the joiners actually did their share on the new hosts.
    assert_eq!(all_tree_completions_ok(&hooks, &cfg), 4);
    let log = hooks.0.borrow();
    assert!(
        log.completions
            .iter()
            .any(|c| c.host == HostId(2) && c.work_done > 0.0),
        "joiner on ws2 contributed work"
    );
}

#[test]
fn tree_shrink_retires_ranks_and_survivors_finish() {
    let mut sim = cluster(3);
    let cfg = MalleableTreeConfig::small();
    let (mpi, comm, hooks, pids) = launch_tree(&mut sim, &cfg, 3);

    sim.run_until(t(0.6));
    command(&mut sim, pids[0], HostId(0), "shrink:2");
    sim.run_until(t(120.0));

    assert_eq!(
        hooks.resize_count(ResizeKind::Shrink, MigrationOutcome::Committed),
        1
    );
    assert_eq!(mpi.comm_size(comm).unwrap(), 2);
    assert!(!sim.is_alive(pids[2]), "retired rank exited");
    // Only the two survivors complete; the answer is still exact because
    // the retired rank's block-cyclic items drained into the survivors.
    assert_eq!(all_tree_completions_ok(&hooks, &cfg), 2);
}

#[test]
fn expand_to_unknown_host_is_refused_without_a_transaction() {
    let mut sim = cluster(2);
    let cfg = MalleableTreeConfig::small();
    let (_mpi, _comm, hooks, pids) = launch_tree(&mut sim, &cfg, 2);

    sim.run_until(t(0.6));
    command(&mut sim, pids[0], HostId(0), "expand:3:nosuchhost");
    sim.run_until(t(120.0));

    assert!(hooks.last_resize().is_none(), "refused before any record");
    assert_eq!(all_tree_completions_ok(&hooks, &cfg), 2);
}

/// A malleable tree that cannot cut a join checkpoint for rank 3.
struct NoJoinAtRank3(MalleableTree);

impl MigratableApp for NoJoinAtRank3 {
    fn app_name(&self) -> String {
        self.0.app_name()
    }
    fn schema(&self) -> ars_xmlwire::ApplicationSchema {
        self.0.schema()
    }
    fn step(&mut self, ctx: &mut Ctx<'_>, wake: Wake) -> AppStatus {
        self.0.step(ctx, wake)
    }
    fn save(&self) -> SavedState {
        self.0.save()
    }
    fn restore(eager: &[u8], mpi: Option<&Mpi>) -> Result<Self, CodecError> {
        MalleableTree::restore(eager, mpi).map(NoJoinAtRank3)
    }
    fn result_digest(&self) -> u64 {
        self.0.result_digest()
    }
    fn resize_comm(&self) -> Option<CommId> {
        self.0.resize_comm()
    }
    fn save_for_join(&self, rank: u32, new_size: u32) -> Option<SavedState> {
        if rank == 3 {
            return None;
        }
        self.0.save_for_join(rank, new_size)
    }
}

#[test]
fn expand_the_application_cannot_checkpoint_is_refused_before_any_side_effect() {
    // k = 2 → 4: the join checkpoint for rank 2 can be cut, the one for
    // rank 3 cannot. The whole request must be refused at the poll-point —
    // not after rank 2's joiner was spawned and the world frozen.
    let mut sim = cluster(4);
    let cfg = MalleableTreeConfig::small();
    let (mpi, comm, hooks, pids) =
        launch_tree_as(&mut sim, &cfg, 2, &HpcmConfig::default(), NoJoinAtRank3);

    sim.run_until(t(0.6));
    let spawned = traced(&sim, TraceKind::Spawn, "");
    command(&mut sim, pids[0], HostId(0), "expand:4:ws2,ws3");
    sim.run_until(t(120.0));

    assert_eq!(
        traced(
            &sim,
            TraceKind::Migration,
            "expand refused: application does not support joining"
        ),
        1
    );
    assert!(hooks.last_resize().is_none(), "refused before any record");
    assert_eq!(traced(&sim, TraceKind::Spawn, ""), spawned, "no joiner");
    assert_eq!(traced(&sim, TraceKind::Migration, "frozen"), 0, "no FREEZE");
    assert_eq!(traced(&sim, TraceKind::Recovery, ""), 0, "nothing to undo");
    assert_eq!(mpi.epoch(comm).unwrap(), 0);
    assert_eq!(all_tree_completions_ok(&hooks, &cfg), 2);
}

#[test]
fn resize_against_a_fixed_size_app_is_refused() {
    use ars_apps::{TestTree, TestTreeConfig};
    let mut sim = cluster(2);
    let hooks = HpcmHooks::new();
    let pid = HpcmShell::spawn_on(
        &mut sim,
        HostId(0),
        TestTree::new(TestTreeConfig::small()),
        HpcmConfig::default(),
        None,
        hooks.clone(),
    );
    sim.run_until(t(0.3));
    command(&mut sim, pid, HostId(0), "expand:2:ws1");
    sim.run_until(t(60.0));
    assert!(hooks.last_resize().is_none());
    assert!(
        hooks.completion_of("test_tree").is_some(),
        "ran to completion"
    );
}

#[test]
fn malleable_tree_still_migrates_as_a_plain_reconfiguration() {
    let mut sim = cluster(3);
    let cfg = MalleableTreeConfig::small();
    let (_mpi, _comm, hooks, pids) = launch_tree(&mut sim, &cfg, 2);

    sim.run_until(t(0.6));
    // Bare host spec: the MigrateTo variant of the same engine.
    command(&mut sim, pids[1], HostId(1), "ws2:7801");
    sim.run_until(t(120.0));

    assert_eq!(hooks.migration_count(), 1);
    let m = hooks.last_migration().unwrap();
    assert_eq!(m.outcome, MigrationOutcome::Committed);
    assert_eq!(m.to, HostId(2));
    assert_eq!(all_tree_completions_ok(&hooks, &cfg), 2);
}

#[test]
fn stencil_expand_commits_with_phase_locked_members() {
    let mut sim = cluster(3);
    let cfg = MalleableStencilConfig::small();
    let (mpi, comm, hooks, pids) = launch_stencil(&mut sim, &cfg, 2);

    sim.run_until(t(1.0));
    command(&mut sim, pids[0], HostId(0), "expand:3:ws2");
    sim.run_until(t(300.0));

    assert_eq!(
        hooks.resize_count(ResizeKind::Expand, MigrationOutcome::Committed),
        1
    );
    assert_eq!(mpi.comm_size(comm).unwrap(), 3);
    let expected = MalleableStencil::expected_digest(&cfg);
    let log = hooks.0.borrow();
    let done: Vec<_> = log
        .completions
        .iter()
        .filter(|c| c.app == "malleable_stencil")
        .collect();
    assert_eq!(done.len(), 3, "both originals and the joiner finished");
    for c in &done {
        assert_eq!(c.digest, expected, "grid corrupted by the resize");
    }
}

#[test]
fn stencil_shrink_commits_and_grid_stays_exact() {
    let mut sim = cluster(3);
    let cfg = MalleableStencilConfig::small();
    let (mpi, comm, hooks, pids) = launch_stencil(&mut sim, &cfg, 3);

    sim.run_until(t(1.0));
    command(&mut sim, pids[0], HostId(0), "shrink:2");
    sim.run_until(t(300.0));

    assert_eq!(
        hooks.resize_count(ResizeKind::Shrink, MigrationOutcome::Committed),
        1
    );
    assert_eq!(mpi.comm_size(comm).unwrap(), 2);
    assert!(!sim.is_alive(pids[2]), "retired rank exited");
    let expected = MalleableStencil::expected_digest(&cfg);
    let log = hooks.0.borrow();
    for c in log
        .completions
        .iter()
        .filter(|c| c.app == "malleable_stencil")
    {
        assert_eq!(c.digest, expected);
    }
}

#[test]
fn back_to_back_resizes_return_to_the_original_size() {
    // k=2 → 4 → 2: two committed transactions, two epochs, exact answer.
    let mut sim = cluster(4);
    // Enough items that the bag is still far from drained when the second
    // reconfiguration lands.
    let cfg = MalleableTreeConfig {
        items: 240,
        ..MalleableTreeConfig::small()
    };
    let (mpi, comm, hooks, pids) = launch_tree(&mut sim, &cfg, 2);

    sim.run_until(t(0.5));
    command(&mut sim, pids[0], HostId(0), "expand:4:ws2,ws3");
    sim.run_until(t(2.0));
    assert_eq!(
        hooks.resize_count(ResizeKind::Expand, MigrationOutcome::Committed),
        1
    );
    command(&mut sim, pids[0], HostId(0), "shrink:2");
    sim.run_until(t(240.0));

    assert_eq!(
        hooks.resize_count(ResizeKind::Shrink, MigrationOutcome::Committed),
        1
    );
    assert_eq!(mpi.comm_size(comm).unwrap(), 2);
    assert_eq!(mpi.epoch(comm).unwrap(), 2);
    assert_eq!(all_tree_completions_ok(&hooks, &cfg), 2);
}

#[test]
fn shrinking_a_world_larger_than_255_ranks_commits_with_an_exact_digest() {
    // Regression: the coordinator counted its protocol sends (FREEZE
    // broadcast, commit verdicts) in `u8`s. With 257 other members the
    // commit path overflowed — a panic in debug builds, which is how this
    // test fails on the old code — and, in release, under-counted its own
    // send completions, so the surplus `OpDone`s reached the application
    // as if its compute ops had finished.
    const RANKS: u32 = 258;
    let mut sim = cluster(RANKS as usize);
    let cfg = MalleableTreeConfig {
        items: RANKS * 32,
        ..MalleableTreeConfig::small()
    };
    let (mpi, comm, hooks, pids) = launch_tree(&mut sim, &cfg, RANKS);

    sim.run_until(t(0.6));
    command(
        &mut sim,
        pids[0],
        HostId(0),
        &format!("shrink:{}", RANKS - 1),
    );
    sim.run_until(t(600.0));

    assert_eq!(
        hooks.resize_count(ResizeKind::Shrink, MigrationOutcome::Committed),
        1
    );
    assert_eq!(mpi.comm_size(comm).unwrap(), RANKS - 1);
    assert!(
        !sim.is_alive(pids[RANKS as usize - 1]),
        "retired rank exited"
    );
    assert_eq!(all_tree_completions_ok(&hooks, &cfg), RANKS as usize - 1);
}

#[test]
fn a_later_resize_leaves_an_aborted_migrations_record_alone() {
    // Regression: every transfer-send completion stamped `eager_sent_at` on
    // the coordinator's latest migration record — so an expand coordinated
    // by a pid whose earlier migration had aborted rewrote that record.
    let mut sim = cluster(5);
    sim.schedule_fault(t(0.2), Fault::HostCrash { host: 4 });
    let cfg = MalleableTreeConfig {
        items: 960,
        ..MalleableTreeConfig::small()
    };
    let (mpi, comm, hooks, pids) = launch_tree(&mut sim, &cfg, 2);

    // The destination is down: the prepare deadline rolls the migration
    // back before its checkpoint ever leaves.
    sim.run_until(t(0.6));
    command(&mut sim, pids[0], HostId(0), "ws4");
    sim.run_until(t(12.0));
    let aborted = hooks.last_migration().expect("migration recorded");
    assert_eq!(aborted.outcome, MigrationOutcome::Aborted);
    assert_eq!(aborted.eager_sent_at, aborted.pollpoint_at);

    command(&mut sim, pids[0], HostId(0), "expand:4:ws2,ws3");
    sim.run_until(t(30.0));
    assert_eq!(
        hooks.resize_count(ResizeKind::Expand, MigrationOutcome::Committed),
        1
    );
    assert_eq!(mpi.comm_size(comm).unwrap(), 4);
    assert_eq!(hooks.migration_count(), 1);
    let after = hooks.last_migration().unwrap();
    assert_eq!(
        after.eager_sent_at, aborted.eager_sent_at,
        "the expand's checkpoint sends are not this migration's"
    );
}

#[test]
fn shrink_rolls_back_when_a_member_never_freezes() {
    // ws3 (rank 3, due to retire) is dead when the shrink starts: its
    // FROZEN never comes, the prepare deadline aborts, and the three live
    // ranks thaw into the untouched 4-rank world. (The registry does not
    // retry around the dead host yet — ROADMAP 4(b); this pins the engine
    // half: "aborts safely, world stays at k".)
    let mut sim = cluster(4);
    sim.schedule_fault(t(0.2), Fault::HostCrash { host: 3 });
    let cfg = MalleableTreeConfig {
        items: 960,
        ..MalleableTreeConfig::small()
    };
    let hpcm = HpcmConfig {
        obs: Obs::enabled(),
        ..HpcmConfig::default()
    };
    let (mpi, comm, hooks, pids) = launch_tree_as(&mut sim, &cfg, 4, &hpcm, |tree| tree);

    sim.run_until(t(0.6));
    command(&mut sim, pids[0], HostId(0), "shrink:2");
    sim.run_until(t(20.0));

    let log = hooks.0.borrow();
    assert_eq!(log.resizes.len(), 1);
    let r = &log.resizes[0];
    assert_eq!(
        (r.kind, r.outcome),
        (ResizeKind::Shrink, MigrationOutcome::Aborted)
    );
    let why = r.abort_reason.as_deref().unwrap_or_default();
    assert!(
        why.starts_with("world never froze (prepare timeout: 2/3 frozen"),
        "unexpected abort reason {why:?}"
    );
    assert_eq!(mpi.epoch(comm).unwrap(), 0);
    assert_eq!(mpi.comm_size(comm).unwrap(), 4);
    assert_eq!(hpcm.obs.counter("shrinks_aborted"), 1);
    assert_eq!(
        traced(&sim, TraceKind::Migration, "thawed (resize aborted)"),
        2
    );
    for pid in &pids[..3] {
        assert!(sim.is_alive(*pid), "live rank survived the abort");
    }
}
