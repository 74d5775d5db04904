//! Migratable applications, configuration and migration records.

use ars_obs::Obs;
use ars_sim::{Ctx, HostId, Pid, Wake};
use ars_simcore::{SimDuration, SimTime};
use ars_xmlwire::ApplicationSchema;
use std::cell::RefCell;
use std::rc::Rc;

/// The user-defined signal the commander posts to start a migration
/// (the paper binds a user-defined UNIX signal).
pub const MIGRATE_SIGNAL: u32 = 30;

/// Message tag carrying the eager checkpoint.
pub const TAG_HPCM_EAGER: u32 = 0xE0E0;
/// Message tag carrying the lazily streamed remainder of the state.
pub const TAG_HPCM_LAZY: u32 = 0xE0E1;
/// Destination → source: initialized and ready to receive the checkpoint.
pub const TAG_HPCM_READY: u32 = 0xE0E2;
/// Destination → source: state restored, requesting the commit.
pub const TAG_HPCM_COMMIT: u32 = 0xE0E3;
/// Source → destination: commit acknowledged, resume the application.
pub const TAG_HPCM_COMMIT_ACK: u32 = 0xE0E4;
/// Coordinator → member: stop at your next safe poll-point (resize).
pub const TAG_HPCM_FREEZE: u32 = 0xE0E5;
/// Member → coordinator: frozen at a poll-point; payload carries the
/// member's [`MigratableApp::sync_key`] for phase-agreement checking.
pub const TAG_HPCM_FROZEN: u32 = 0xE0E6;
/// Coordinator → member: verdict. Payload byte 1 = commit (sync to the
/// resized world), 0 = abort (resume in the old world).
pub const TAG_HPCM_RESUME: u32 = 0xE0E7;
/// Coordinator → member: your rank was shrunk away — drain and exit.
pub const TAG_HPCM_RETIRE: u32 = 0xE0E8;

/// Host-file path the commander writes the destination into for `pid`.
pub fn dest_file_path(pid: Pid) -> String {
    format!("/tmp/hpcm/dest-{}", pid.0)
}

/// What an application's `step` reports back to the shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppStatus {
    /// More work queued; the shell keeps driving.
    Running,
    /// The application completed; the shell records and exits.
    Finished,
}

/// A checkpoint split into the part needed to resume and the modeled bulk
/// remainder (streamed lazily while the restored process already runs —
/// "the process resumes execution at the destination before the migration
/// ends", §5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct SavedState {
    /// Execution state + live data required to resume, as real bytes.
    pub eager: Vec<u8>,
    /// Remaining memory image, modeled by size only.
    pub lazy_bytes: u64,
}

/// An application that HPCM can migrate.
///
/// The shell drives `step` with kernel wakes; every return from `step` is a
/// *poll-point*: the shell may decide to capture the state (via [`save`])
/// and move the process. After restoration on the destination, `step` is
/// called with [`Wake::Started`] again and must re-issue the ops for the
/// current phase (any work since the last poll-point is re-executed —
/// exactly the paper's poll-point semantics).
///
/// [`save`]: MigratableApp::save
pub trait MigratableApp: 'static {
    /// Application name (matches the process table and schema).
    fn app_name(&self) -> String;

    /// The application schema shipped to the registry and destination.
    fn schema(&self) -> ApplicationSchema;

    /// Advance the application state machine.
    fn step(&mut self, ctx: &mut Ctx<'_>, wake: Wake) -> AppStatus;

    /// Capture state at a poll-point.
    fn save(&self) -> SavedState;

    /// Rebuild from the eager checkpoint on the destination. MPI
    /// applications receive the shared [`Mpi`](ars_mpisim::Mpi) world to
    /// re-attach their communicators (identifiers inside the checkpoint
    /// stay valid because task identities survive migration).
    ///
    /// Returns an error — never panics — on a malformed checkpoint; the
    /// shell then aborts the restore and the source rolls the application
    /// back to its poll-point.
    fn restore(eager: &[u8], mpi: Option<&ars_mpisim::Mpi>) -> Result<Self, crate::CodecError>
    where
        Self: Sized;

    /// True when the current poll-point is safe for migration (default:
    /// always). Applications blocked mid-collective return false to defer.
    fn migration_safe(&self) -> bool {
        true
    }

    /// Application-defined progress measure (e.g. CPU-seconds of work
    /// completed), carried into the completion record. Survives migration
    /// because it is part of the saved state.
    fn progress(&self) -> f64 {
        0.0
    }

    /// Application-defined result digest (e.g. a checksum of the computed
    /// answer), carried into the completion record so harnesses can verify
    /// that migration did not corrupt the computation.
    fn result_digest(&self) -> u64 {
        0
    }

    /// The communicator this application is willing to resize, or `None`
    /// for fixed-size applications (the default — expand/shrink commands
    /// against them are refused at the poll-point, exactly like a migrate
    /// signal against a non-migratable process).
    fn resize_comm(&self) -> Option<ars_mpisim::CommId> {
        None
    }

    /// Checkpoint for a joiner that will become rank `rank` of a
    /// `new_size`-rank world, cut at the coordinator's poll-point (before
    /// the other members freeze). Restored via [`restore`](Self::restore)
    /// on the destination like a migration checkpoint; `None` (the
    /// default) for any joiner rank refuses the whole expand.
    fn save_for_join(&self, _rank: u32, _new_size: u32) -> Option<SavedState> {
        None
    }

    /// Phase fingerprint compared across members when they freeze for a
    /// resize (e.g. the iteration number). A mismatch — members stopped at
    /// different phases — aborts the resize rather than redistributing
    /// inconsistent data.
    fn sync_key(&self) -> u64 {
        0
    }
}

/// HPCM tuning knobs.
#[derive(Debug, Clone)]
pub struct HpcmConfig {
    /// Cost of LAM/MPI dynamic process creation on the destination
    /// (the paper measures ~0.3 s; `pre_initialized` skips it).
    pub dpm_init_cost: SimDuration,
    /// Destination processes were created ahead of time ("we can also
    /// choose to improve this performance by pre-initializing the processes
    /// on the candidate destination machines").
    pub pre_initialized: bool,
    /// Fixed restoration overhead before the restored process resumes.
    pub restore_fixed: SimDuration,
    /// Restoration throughput for the eager checkpoint, bytes/second.
    pub restore_rate: f64,
    /// Source-side deadline for the destination's READY message. Expiry
    /// rolls the application back to its poll-point (destination host
    /// down, spawn refused, READY lost…).
    pub prepare_timeout: SimDuration,
    /// Source-side deadline, armed at READY, for the destination's COMMIT
    /// (covers the eager transfer and restoration). Expiry rolls back.
    pub commit_timeout: SimDuration,
    /// Destination-side deadline for the eager checkpoint and, re-armed at
    /// COMMIT, for the source's COMMIT_ACK. Expiry makes the destination
    /// shell abort itself (the source has crashed or rolled back).
    pub restore_wait_timeout: SimDuration,
    /// Observability session (migration phase events + per-phase latency
    /// histograms). The disabled default is a no-op and an enabled session
    /// never perturbs the simulation.
    pub obs: Obs,
}

impl Default for HpcmConfig {
    fn default() -> Self {
        HpcmConfig {
            dpm_init_cost: SimDuration::from_millis(300),
            pre_initialized: false,
            restore_fixed: SimDuration::from_millis(350),
            restore_rate: 50_000_000.0,
            prepare_timeout: SimDuration::from_secs(10),
            commit_timeout: SimDuration::from_secs(30),
            restore_wait_timeout: SimDuration::from_secs(30),
            obs: Obs::disabled(),
        }
    }
}

/// Transactional outcome of a migration attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationOutcome {
    /// Transaction still in flight (prepare/transfer/commit).
    #[default]
    InFlight,
    /// Committed: the destination owns the process; the source wound down.
    Committed,
    /// Aborted: the source rolled the application back to its poll-point
    /// (see [`MigrationRecord::abort_reason`]).
    Aborted,
}

/// Timeline of one completed migration (§5.2's phases).
#[derive(Debug, Clone)]
pub struct MigrationRecord {
    /// Pid on the source.
    pub pid_old: Pid,
    /// Pid on the destination.
    pub pid_new: Pid,
    /// Source host.
    pub from: HostId,
    /// Destination host.
    pub to: HostId,
    /// Application name.
    pub app: String,
    /// When the migration signal was observed (poll-point reached).
    pub pollpoint_at: SimTime,
    /// When the initialized process was spawned on the destination.
    pub spawned_at: SimTime,
    /// When the eager checkpoint had fully left the source.
    pub eager_sent_at: SimTime,
    /// When the source granted the commit (COMMIT received, handover done).
    pub committed_at: Option<SimTime>,
    /// When the destination resumed executing the application.
    pub resumed_at: Option<SimTime>,
    /// When the lazy remainder finished arriving (migration complete).
    pub lazy_done_at: Option<SimTime>,
    /// Eager checkpoint size, bytes (as framed on the wire).
    pub eager_bytes: u64,
    /// Lazy remainder size, bytes.
    pub lazy_bytes: u64,
    /// How the transaction ended.
    pub outcome: MigrationOutcome,
    /// Why it aborted, when it did.
    pub abort_reason: Option<String>,
}

/// Completion record of a migratable application.
#[derive(Debug, Clone)]
pub struct CompletionRecord {
    /// Application name.
    pub app: String,
    /// Final pid.
    pub pid: Pid,
    /// Host it finished on.
    pub host: HostId,
    /// When it finished.
    pub finished_at: SimTime,
    /// The application's own progress measure at completion
    /// ([`MigratableApp::progress`]).
    pub work_done: f64,
    /// The application's result digest ([`MigratableApp::result_digest`]).
    pub digest: u64,
}

/// Which way a resize transaction moved the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeKind {
    /// Grew the world (joiners spawned).
    Expand,
    /// Shrank the world (high ranks retired).
    Shrink,
}

/// Timeline of one expand/shrink transaction, recorded by the
/// coordinating shell (the rank the registry signalled).
#[derive(Debug, Clone)]
pub struct ResizeRecord {
    /// Application name.
    pub app: String,
    /// Coordinator pid.
    pub coordinator: Pid,
    /// Expand or shrink.
    pub kind: ResizeKind,
    /// World size when the transaction started.
    pub from_ranks: u32,
    /// Target world size.
    pub to_ranks: u32,
    /// When the coordinator took the poll-point.
    pub started_at: SimTime,
    /// When the world actually resized (epoch bumped), if it did.
    pub committed_at: Option<SimTime>,
    /// Bytes that changed owner during array redistribution.
    pub moved_bytes: u64,
    /// How the transaction ended (shares the migration vocabulary).
    pub outcome: MigrationOutcome,
    /// Why it aborted, when it did.
    pub abort_reason: Option<String>,
}

/// Shared event log the experiment harness reads.
#[derive(Debug, Default)]
pub struct HpcmLog {
    /// Completed (or in-flight, with `resumed_at == None`) migrations.
    pub migrations: Vec<MigrationRecord>,
    /// Application completions.
    pub completions: Vec<CompletionRecord>,
    /// Expand/shrink transactions.
    pub resizes: Vec<ResizeRecord>,
}

/// Cheap handle to the shared log.
#[derive(Clone, Default)]
pub struct HpcmHooks(pub Rc<RefCell<HpcmLog>>);

impl HpcmHooks {
    /// Fresh empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recent migration record, if any.
    pub fn last_migration(&self) -> Option<MigrationRecord> {
        self.0.borrow().migrations.last().cloned()
    }

    /// Number of migrations recorded.
    pub fn migration_count(&self) -> usize {
        self.0.borrow().migrations.len()
    }

    /// Completion record of the named app, if finished.
    pub fn completion_of(&self, app: &str) -> Option<CompletionRecord> {
        self.0
            .borrow()
            .completions
            .iter()
            .find(|c| c.app == app)
            .cloned()
    }

    /// Number of migrations that ended in the given outcome.
    pub fn outcome_count(&self, outcome: MigrationOutcome) -> usize {
        self.0
            .borrow()
            .migrations
            .iter()
            .filter(|m| m.outcome == outcome)
            .count()
    }

    /// The most recent resize record, if any.
    pub fn last_resize(&self) -> Option<ResizeRecord> {
        self.0.borrow().resizes.last().cloned()
    }

    /// Number of resizes of the given kind that ended in the given outcome.
    pub fn resize_count(&self, kind: ResizeKind, outcome: MigrationOutcome) -> usize {
        self.0
            .borrow()
            .resizes
            .iter()
            .filter(|r| r.kind == kind && r.outcome == outcome)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_file_paths_are_per_pid() {
        assert_eq!(dest_file_path(Pid(3)), "/tmp/hpcm/dest-3");
        assert_ne!(dest_file_path(Pid(1)), dest_file_path(Pid(2)));
    }

    #[test]
    fn default_config_matches_paper_costs() {
        let c = HpcmConfig::default();
        assert_eq!(c.dpm_init_cost, SimDuration::from_millis(300));
        assert!(!c.pre_initialized);
    }

    #[test]
    fn hooks_are_shared() {
        let hooks = HpcmHooks::new();
        let clone = hooks.clone();
        clone.0.borrow_mut().completions.push(CompletionRecord {
            app: "x".to_string(),
            pid: Pid(1),
            host: HostId(0),
            finished_at: SimTime::ZERO,
            work_done: 1.0,
            digest: 0,
        });
        assert!(hooks.completion_of("x").is_some());
        assert!(hooks.completion_of("y").is_none());
        assert_eq!(hooks.migration_count(), 0);
    }
}
