//! The HPCM migration shell.
//!
//! [`HpcmShell`] wraps a [`MigratableApp`] as a kernel [`Program`] and
//! implements the paper's migration protocol as a *transaction* —
//! prepare → transfer → commit — that either completes on the destination
//! or rolls the application back to the poll-point it was captured at:
//!
//! 1. the commander posts the user-defined signal and writes the
//!    destination into a temp file ([`crate::state::dest_file_path`]);
//! 2. at the application's next poll-point the shell reads the destination,
//!    captures the state ([`MigratableApp::save`]) and dynamically creates
//!    the *initialized process* there (a restoring shell, paying the LAM
//!    dynamic-process-management cost unless pre-initialized). **Prepare:**
//!    the source waits for the destination's READY, bounded by
//!    [`HpcmConfig::prepare_timeout`];
//! 3. **Transfer:** the eager checkpoint is sealed in place with a
//!    word-at-a-time integrity checksum ([`crate::codec::seal_state`]; any
//!    corruption confined to one 8-byte word is always caught) and sent
//!    without a copy; the destination verifies, restores (rejecting corrupt
//!    state), and answers COMMIT, all bounded by
//!    [`HpcmConfig::commit_timeout`] on the source;
//! 4. **Commit:** the source installs the kernel forwarding entry,
//!    re-sends held and queued application messages to the new pid,
//!    acknowledges with COMMIT_ACK and streams the bulk remainder lazily
//!    while winding down. Only on COMMIT_ACK does the destination re-bind
//!    the MPI task identity and resume the application — so a timed-out,
//!    rolled-back source can never race a resumed destination (no double
//!    execution);
//! 5. on any deadline expiry the source kills the half-restored child,
//!    re-queues the application messages it held, and resumes the
//!    application from the poll-point (rollback). The destination aborts
//!    itself if the source goes quiet.
//!
//! Expand and shrink run the same five steps with different participants
//! (see [`plan`]): more children, or none, and a world of member shells
//! frozen at their own poll-points for the duration.
//!
//! Every transition is recorded: [`MigrationRecord::outcome`] ends as
//! `Committed` or `Aborted` (with a reason), never silently lost.
//!
//! One shell plays one role at a time, and the code is split by role:
//! this module drives the application and dispatches wakes; [`plan`] turns
//! a request into its participants or refuses it; [`coordinator`] runs the
//! transaction (begin → transfer → commit/rollback); [`member`] is a rank
//! frozen for someone else's resize; [`restorer`] is the initialized
//! process a coordinator spawned.

mod coordinator;
mod member;
mod plan;
mod restorer;

use crate::state::{
    AppStatus, CompletionRecord, HpcmConfig, HpcmHooks, MigratableApp, MigrationOutcome,
    MigrationRecord, ResizeRecord, MIGRATE_SIGNAL, TAG_HPCM_COMMIT, TAG_HPCM_COMMIT_ACK,
    TAG_HPCM_EAGER, TAG_HPCM_FREEZE, TAG_HPCM_FROZEN, TAG_HPCM_LAZY, TAG_HPCM_READY,
    TAG_HPCM_RESUME, TAG_HPCM_RETIRE,
};
use ars_mpisim::Mpi;
use ars_sim::{Ctx, Envelope, Pid, Program, RecvFilter, SpawnOpts, TraceKind, Wake};
use coordinator::Tx;

/// True for tags owned by the reconfiguration protocol itself (never
/// delivered to the application).
fn is_protocol_tag(tag: u32) -> bool {
    matches!(
        tag,
        TAG_HPCM_EAGER
            | TAG_HPCM_LAZY
            | TAG_HPCM_READY
            | TAG_HPCM_COMMIT
            | TAG_HPCM_COMMIT_ACK
            | TAG_HPCM_FREEZE
            | TAG_HPCM_FROZEN
            | TAG_HPCM_RESUME
            | TAG_HPCM_RETIRE
    )
}

enum Mode<A> {
    /// Driving the application.
    Running { app: A },
    /// Coordinator, prepare phase: children spawned / members freezing,
    /// waiting for every READY and FROZEN.
    SourcePrepare { app: A, tx: Tx },
    /// Coordinator, transfer phase: `sends_left` framed checkpoint sends
    /// still in flight; commits once they are out and every child has
    /// answered COMMIT.
    SourceTransfer { app: A, tx: Tx, sends_left: u32 },
    /// Migration source, commit phase: ack + forwarded messages + lazy
    /// stream in flight; exits when the last send completes. The
    /// application state now lives on the destination — no rollback.
    SourceCommitting { sends_left: u32 },
    /// Destination/joiner: waiting for the DPM init sleep, then the eager
    /// state.
    Restoring {
        waited_init: bool,
        source: Pid,
        join: bool,
    },
    /// Destination/joiner: paying the restoration cost.
    RestoreCompute { app: A, source: Pid, join: bool },
    /// Destination/joiner: restored, waiting for the coordinator's
    /// COMMIT_ACK before taking over (migration: re-bind the task
    /// identity; join: sync to the resized epoch) and resuming.
    AwaitCommitAck { app: A, source: Pid, join: bool },
    /// Resize member stopped at a poll-point, awaiting the coordinator's
    /// verdict (RESUME commit/abort, or RETIRE).
    Frozen {
        app: A,
        coordinator: Pid,
        epoch0: u32,
    },
    /// Terminal.
    Done,
}

/// Migration-enabled process wrapper (see module docs).
pub struct HpcmShell<A: MigratableApp> {
    mode: Mode<A>,
    cfg: HpcmConfig,
    mpi: Option<Mpi>,
    hooks: HpcmHooks,
    /// Lazy remainder not yet confirmed received (destination side).
    pending_lazy: bool,
    /// Application messages that arrived while a transaction was in
    /// flight: forwarded to the destination on commit, re-queued into our
    /// own mailbox on rollback.
    held: Vec<Envelope>,
    /// Token of the current phase deadline; alarms with any other token
    /// are stale and ignored.
    deadline: u64,
    /// Checkpoint-send ops still in flight after a rollback; their
    /// completions must not be delivered to the application.
    protocol_sends_in_flight: u32,
    /// A coordinator asked us to freeze for a resize; honored at the next
    /// migration-safe poll-point, cancelled by an abort RESUME.
    freeze: Option<Pid>,
}

impl<A: MigratableApp> HpcmShell<A> {
    fn new(mode: Mode<A>, cfg: HpcmConfig, mpi: Option<Mpi>, hooks: HpcmHooks) -> Self {
        HpcmShell {
            // A restoring shell still expects the lazy tail of its state.
            pending_lazy: matches!(mode, Mode::Restoring { .. }),
            mode,
            cfg,
            mpi,
            hooks,
            held: Vec::new(),
            deadline: 0,
            protocol_sends_in_flight: 0,
            freeze: None,
        }
    }

    /// Wrap a fresh application.
    pub fn launch(app: A, cfg: HpcmConfig, mpi: Option<Mpi>, hooks: HpcmHooks) -> Self {
        Self::new(Mode::Running { app }, cfg, mpi, hooks)
    }

    /// Spawn options matching an app's schema.
    fn spawn_opts(app: &A) -> SpawnOpts {
        let schema = app.schema();
        SpawnOpts::named(app.app_name())
            .migratable()
            .with_mem(schema.requirements.mem_kb, schema.requirements.mem_kb)
    }

    /// Spawn a wrapped app on a host (convenience for harnesses).
    pub fn spawn_on(
        sim: &mut ars_sim::Sim,
        host: ars_sim::HostId,
        app: A,
        cfg: HpcmConfig,
        mpi: Option<Mpi>,
        hooks: HpcmHooks,
    ) -> Pid {
        let opts = Self::spawn_opts(&app);
        let mpi_handle = mpi.clone();
        let pid = sim.spawn(host, Box::new(Self::launch(app, cfg, mpi, hooks)), opts);
        if let Some(m) = mpi_handle {
            // Register the task identity at launch (MPI_Init).
            if m.task_of(pid).is_none() {
                m.bind_new_task(pid);
            }
        }
        pid
    }

    /// Read or update this pid's migration record (source side keys by
    /// `pid_old`, destination side by `pid_new`); `None` when there is none.
    fn with_record<T>(
        &self,
        me: Pid,
        as_source: bool,
        f: impl FnOnce(&mut MigrationRecord) -> T,
    ) -> Option<T> {
        let mut log = self.hooks.0.borrow_mut();
        log.migrations
            .iter_mut()
            .rev()
            .find(|m| {
                let key = if as_source { m.pid_old } else { m.pid_new };
                key == me
            })
            .map(f)
    }

    /// Update the in-flight resize record this coordinator owns.
    fn with_resize(&self, me: Pid, f: impl FnOnce(&mut ResizeRecord)) {
        let mut log = self.hooks.0.borrow_mut();
        let found = log
            .resizes
            .iter_mut()
            .rev()
            .find(|r| r.coordinator == me && r.outcome == MigrationOutcome::InFlight);
        if let Some(r) = found {
            f(r);
        }
    }

    /// True when the running application is at a migration-safe phase.
    fn app_is_safe(&self) -> bool {
        matches!(&self.mode, Mode::Running { app } if app.migration_safe())
    }

    /// Adopt the new epoch of the communicator `app` resizes, after a commit.
    fn sync_to_resized_world(&self, me: Pid, app: &A) {
        if let (Some(mpi), Some(comm)) = (&self.mpi, app.resize_comm()) {
            if let Some(task) = mpi.task_of(me) {
                let _ = mpi.sync_task(comm, task);
            }
        }
    }

    /// Resume from the poll-point: the app re-issues the ops for its phase.
    fn resume(&mut self, ctx: &mut Ctx<'_>, app: A) {
        self.mode = Mode::Running { app };
        self.drive_app(ctx, Wake::Started);
    }

    /// The lazy tail of our own inbound migration finished arriving.
    fn settle_lazy(&mut self, ctx: &mut Ctx<'_>) {
        self.pending_lazy = false;
        let now = ctx.now();
        self.with_record(ctx.pid(), false, |m| m.lazy_done_at = Some(now));
        ctx.trace(TraceKind::Migration, "lazy state fully received");
    }

    fn drive_app(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        let Mode::Running { app } = &mut self.mode else {
            return;
        };
        let status = app.step(ctx, wake);
        match status {
            AppStatus::Finished => {
                self.hooks
                    .0
                    .borrow_mut()
                    .completions
                    .push(CompletionRecord {
                        app: app.app_name(),
                        pid: ctx.pid(),
                        host: ctx.host_id(),
                        finished_at: ctx.now(),
                        work_done: app.progress(),
                        digest: app.result_digest(),
                    });
                let host = ctx.host_id().0;
                ctx.trace_with(TraceKind::Custom, || {
                    format!("{} finished on h{host}", app.app_name())
                });
                self.mode = Mode::Done;
                ctx.exit();
            }
            AppStatus::Running => {
                // Poll-point: act on a pending freeze request or
                // reconfiguration signal. A freeze (we are a member of
                // someone else's resize) takes precedence.
                if !app.migration_safe() {
                    return;
                }
                if self.freeze.is_some() {
                    self.enter_frozen(ctx);
                } else if ctx.take_signal() == Some(MIGRATE_SIGNAL) {
                    self.on_signal(ctx);
                }
            }
        }
    }

    /// A wake while the application is running: settle protocol leftovers,
    /// note resize control traffic, then let the application step.
    fn wake_running(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        // Swallow completions of protocol sends orphaned by a
        // rollback or issued at a resize commit — they are not
        // application op completions.
        if self.protocol_sends_in_flight > 0 && matches!(wake, Wake::OpDone) {
            self.protocol_sends_in_flight -= 1;
            return;
        }
        // A lazy tail that arrived while we were computing sits in
        // the mailbox instead — check at every poll-point. (A
        // redistribution stream to an already-settled shell is
        // consumed silently.)
        if ctx.take_message(RecvFilter::tag(TAG_HPCM_LAZY)).is_some() && self.pending_lazy {
            self.settle_lazy(ctx);
        }
        // Resize control traffic parks in the mailbox while we
        // compute: note freeze requests, let abort notices cancel
        // them. (A FREEZE arriving after its own abort RESUME in
        // the same drain is lost — the coordinator's prepare
        // timeout retries.)
        while let Some(env) = ctx.take_message(RecvFilter::tag(TAG_HPCM_FREEZE)) {
            self.freeze = Some(env.from);
        }
        while ctx.take_message(RecvFilter::tag(TAG_HPCM_RESUME)).is_some() {
            self.freeze = None;
        }
        if let Wake::Received(env) = &wake {
            // Direct deliveries of the same control messages (we
            // were passive when they arrived).
            if env.tag == TAG_HPCM_FREEZE {
                self.freeze = Some(env.from);
            }
            if env.tag == TAG_HPCM_RESUME {
                self.freeze = None;
            }
            // Stale protocol traffic (a duplicated READY/COMMIT
            // after a rollback, a re-sent ack…) never reaches the
            // application; but a freeze that just landed is honored
            // below (a passive member may never wake again).
            if is_protocol_tag(env.tag) {
                if self.freeze.is_some() && self.app_is_safe() {
                    self.enter_frozen(ctx);
                }
                return;
            }
        }
        // Honor a parked freeze before delivering an application
        // wake: the application is at its poll-point right now, and
        // whatever this wake completed simply replays after the
        // verdict — the same rollback-to-poll-point rule every
        // reconfiguration path obeys.
        if self.freeze.is_some() && self.app_is_safe() {
            if let Wake::Received(env) = wake {
                self.held.push(env);
            }
            self.enter_frozen(ctx);
            return;
        }
        self.drive_app(ctx, wake);
    }
}

impl<A: MigratableApp> Program for HpcmShell<A> {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        // The lazy tail of our own inbound migration may still be
        // streaming; its arrival is a protocol message, not an application
        // one, and can land in any mode (we may already be a migration
        // source again). Settle it here.
        if self.pending_lazy && matches!(&wake, Wake::Received(env) if env.tag == TAG_HPCM_LAZY) {
            self.settle_lazy(ctx);
            return;
        }
        match &self.mode {
            Mode::Running { .. } => self.wake_running(ctx, wake),
            Mode::SourcePrepare { .. }
            | Mode::SourceTransfer { .. }
            | Mode::SourceCommitting { .. } => self.wake_coordinator(ctx, wake),
            Mode::Restoring { .. } | Mode::RestoreCompute { .. } | Mode::AwaitCommitAck { .. } => {
                self.wake_restorer(ctx, wake)
            }
            Mode::Frozen { .. } => self.wake_frozen(ctx, wake),
            Mode::Done => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
