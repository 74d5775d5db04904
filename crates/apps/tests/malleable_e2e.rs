//! End-to-end malleability: whole MPI worlds growing and shrinking under
//! the reconfiguration engine, with block-cyclic data following the layout
//! and results staying bit-correct.

use ars_apps::{MalleableStencil, MalleableStencilConfig, MalleableTree, MalleableTreeConfig};
use ars_hpcm::{
    dest_file_path, HpcmConfig, HpcmHooks, HpcmShell, MigrationOutcome, ResizeKind, MIGRATE_SIGNAL,
};
use ars_mpisim::{CommId, Mpi};
use ars_sim::{HostId, Pid, Sim, SimConfig};
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
    let mpi = Mpi::new();
    let comm = mpi.create_comm(vec![]);
    let hooks = HpcmHooks::new();
    let mut pids = Vec::new();
    for rank in 0..k {
        let app = MalleableTree::new(cfg.clone(), mpi.clone(), comm);
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
