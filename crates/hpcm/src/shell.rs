//! The HPCM migration shell.
//!
//! [`HpcmShell`] wraps a [`MigratableApp`] as a kernel [`Program`] and
//! implements the paper's migration protocol as a *transaction* —
//! prepare → transfer → commit — that either completes on the destination
//! or rolls the application back to the poll-point it was captured at:
//!
//! 1. the commander posts the user-defined signal and writes the
//!    destination into a temp file ([`dest_file_path`]);
//! 2. at the application's next poll-point the shell reads the destination,
//!    captures the state ([`MigratableApp::save`]) and dynamically creates
//!    the *initialized process* there (a restoring shell, paying the LAM
//!    dynamic-process-management cost unless pre-initialized). **Prepare:**
//!    the source waits for the destination's READY, bounded by
//!    [`HpcmConfig::prepare_timeout`];
//! 3. **Transfer:** the eager checkpoint is framed with an integrity
//!    checksum ([`crate::codec::frame_state`]) and sent; the destination
//!    verifies, restores (rejecting corrupt state), and answers COMMIT,
//!    all bounded by [`HpcmConfig::commit_timeout`] on the source;
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
//! Every transition is recorded: [`MigrationRecord::outcome`] ends as
//! `Committed` or `Aborted` (with a reason), never silently lost.

use crate::codec::{frame_state, unframe_state};
use crate::reconfig::Reconfiguration;
use crate::state::{
    dest_file_path, AppStatus, CompletionRecord, HpcmConfig, HpcmHooks, MigratableApp,
    MigrationOutcome, MigrationRecord, ResizeKind, ResizeRecord, SavedState, MIGRATE_SIGNAL,
    TAG_HPCM_COMMIT, TAG_HPCM_COMMIT_ACK, TAG_HPCM_EAGER, TAG_HPCM_FREEZE, TAG_HPCM_FROZEN,
    TAG_HPCM_LAZY, TAG_HPCM_READY, TAG_HPCM_RESUME, TAG_HPCM_RETIRE,
};
use ars_mpisim::{Mpi, Rank, TaskId};
use ars_obs::ObsEvent;
use ars_sim::{Ctx, Envelope, Payload, Pid, Program, RecvFilter, SpawnOpts, TraceKind, Wake};
use ars_simcore::SimDuration;

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

/// One reconfiguration transaction, as driven by the coordinating shell
/// (the migration source, or the rank the registry signalled for a
/// resize). Migration is the degenerate instance: one child, no members.
struct Tx {
    /// What the registry asked for.
    kind: Reconfiguration,
    /// Destination shells this transaction spawned (migrate: the one
    /// destination; expand: the joiners, in new-rank order).
    children: Vec<Pid>,
    /// Task identities bound to the joiners at spawn (expand only).
    child_tasks: Vec<TaskId>,
    /// `(rank, pid)` of every other member shell to freeze (resize only).
    members: Vec<(u32, Pid)>,
    /// FROZEN replies received so far.
    frozen: usize,
    /// READY reports received so far.
    ready: usize,
    /// COMMIT requests received so far.
    commits: usize,
    /// FREEZE broadcast sends whose OpDone has not been seen yet. Ops run
    /// serially, so these completions always precede transfer-send ones.
    proto_sends: u32,
    /// The migration checkpoint (`None` for resizes — joiner checkpoints
    /// are cut per-rank at transfer time).
    saved: Option<SavedState>,
    /// Modeled bulk remainder of a migration checkpoint.
    lazy_bytes: u64,
    /// The communicator being resized (resize only).
    comm: Option<ars_mpisim::CommId>,
    /// World size when the transaction began.
    from_ranks: u32,
    /// Coordinator's phase fingerprint; FROZEN replies must match.
    sync_key: u64,
}

impl Tx {
    fn new_size(&self) -> u32 {
        match &self.kind {
            Reconfiguration::MigrateTo { .. } => self.from_ranks,
            Reconfiguration::ExpandTo { new_size, .. } => *new_size,
            Reconfiguration::ShrinkTo { new_size } => *new_size,
        }
    }

    /// Prepare phase complete: every member froze, every child is READY.
    fn prepared(&self) -> bool {
        self.frozen == self.members.len() && self.ready == self.children.len()
    }

    fn is_child(&self, p: Pid) -> bool {
        self.children.contains(&p)
    }

    fn is_member(&self, p: Pid) -> bool {
        self.members.iter().any(|(_, m)| *m == p)
    }
}

enum Mode<A> {
    /// Driving the application.
    Running { app: A },
    /// Coordinator, prepare phase: children spawned / members freezing,
    /// waiting for every READY and FROZEN.
    SourcePrepare { app: A, tx: Tx },
    /// Coordinator, transfer phase: framed checkpoint sends in flight.
    SourceSending { app: A, tx: Tx, sends_left: u32 },
    /// Coordinator, transfer phase: checkpoints sent, waiting for the
    /// children's COMMITs.
    SourceAwaitCommit { app: A, tx: Tx },
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
    RestoreCompute {
        app: Option<A>,
        source: Pid,
        join: bool,
    },
    /// Destination/joiner: restored, waiting for the coordinator's
    /// COMMIT_ACK before taking over (migration: re-bind the task
    /// identity; join: sync to the resized epoch) and resuming.
    AwaitCommitAck {
        app: Option<A>,
        source: Pid,
        join: bool,
    },
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
    /// Wrap a fresh application.
    pub fn launch(app: A, cfg: HpcmConfig, mpi: Option<Mpi>, hooks: HpcmHooks) -> Self {
        HpcmShell {
            mode: Mode::Running { app },
            cfg,
            mpi,
            hooks,
            pending_lazy: false,
            held: Vec::new(),
            deadline: 0,
            protocol_sends_in_flight: 0,
            freeze: None,
        }
    }

    /// The restoring (destination/joiner) side, created by the
    /// coordinating shell.
    fn restoring(
        cfg: HpcmConfig,
        mpi: Option<Mpi>,
        hooks: HpcmHooks,
        source: Pid,
        join: bool,
    ) -> Self {
        HpcmShell {
            mode: Mode::Restoring {
                waited_init: false,
                source,
                join,
            },
            cfg,
            mpi,
            hooks,
            pending_lazy: true,
            held: Vec::new(),
            deadline: 0,
            protocol_sends_in_flight: 0,
            freeze: None,
        }
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

    /// Update this pid's migration record (source side keys by `pid_old`,
    /// destination side by `pid_new`).
    fn with_record(&self, me: Pid, as_source: bool, f: impl FnOnce(&mut MigrationRecord)) {
        let mut log = self.hooks.0.borrow_mut();
        let found = log.migrations.iter_mut().rev().find(|m| {
            if as_source {
                m.pid_old == me
            } else {
                m.pid_new == me
            }
        });
        if let Some(m) = found {
            f(m);
        }
    }

    /// Read a value off this pid's migration record without mutating it
    /// (observability only).
    fn peek_record<T>(
        &self,
        me: Pid,
        as_source: bool,
        f: impl FnOnce(&crate::state::MigrationRecord) -> T,
    ) -> Option<T> {
        let log = self.hooks.0.borrow();
        log.migrations
            .iter()
            .rev()
            .find(|m| {
                if as_source {
                    m.pid_old == me
                } else {
                    m.pid_new == me
                }
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
                ctx.trace(
                    TraceKind::Custom,
                    format!("{} finished on h{}", app.app_name(), ctx.host_id().0),
                );
                self.mode = Mode::Done;
                ctx.exit();
            }
            AppStatus::Running => {
                // Poll-point: act on a pending freeze request or
                // reconfiguration signal. A freeze (we are a member of
                // someone else's resize) takes precedence.
                let safe = app.migration_safe();
                let wants_freeze = self.freeze.is_some() && safe;
                let wants_signal = !wants_freeze && ctx.has_signal() && safe;
                if wants_freeze {
                    self.enter_frozen(ctx);
                } else if wants_signal {
                    let sig = ctx.take_signal().expect("signal present");
                    if sig == MIGRATE_SIGNAL {
                        self.begin_reconfiguration(ctx);
                    }
                }
            }
        }
    }

    /// A reconfiguration signal arrived at a poll-point: read the spec the
    /// commander wrote and run the matching transaction.
    fn begin_reconfiguration(&mut self, ctx: &mut Ctx<'_>) {
        let Mode::Running { app } = std::mem::replace(&mut self.mode, Mode::Done) else {
            return;
        };
        let dest_name = match ctx.read_file(&dest_file_path(ctx.pid())) {
            Some(d) => d,
            None => {
                // No destination written: spurious signal; keep running.
                ctx.trace(TraceKind::Migration, "signal without destination file");
                self.mode = Mode::Running { app };
                return;
            }
        };
        match Reconfiguration::parse(&dest_name) {
            Some(Reconfiguration::MigrateTo { host }) => self.begin_migration(ctx, app, &host),
            Some(req) => self.begin_resize(ctx, app, req),
            None => {
                ctx.trace(
                    TraceKind::Migration,
                    format!("unparseable reconfiguration {dest_name:?}"),
                );
                self.mode = Mode::Running { app };
            }
        }
    }

    /// Prepare phase, migration: capture state, create the initialized
    /// process on the destination, and wait (bounded) for its READY.
    fn begin_migration(&mut self, ctx: &mut Ctx<'_>, app: A, dest_host: &str) {
        let Some(dest) = ctx.host_id_by_name(dest_host) else {
            ctx.trace(
                TraceKind::Migration,
                format!("unknown destination {dest_host:?}"),
            );
            self.mode = Mode::Running { app };
            return;
        };
        ctx.remove_file(&dest_file_path(ctx.pid()));

        // Roll back to this poll-point: drop ops the app just queued.
        ctx.clear_pending_ops();
        let me = ctx.pid();

        // Capture execution + memory state at the poll-point.
        let saved = app.save();

        // Dynamically create the initialized process on the destination.
        // The task identity is NOT re-pointed yet: until the transaction
        // commits, this process owns the application and holds (then
        // forwards or re-queues) messages addressed to it.
        let child = ctx.spawn(
            dest,
            Box::new(Self::restoring(
                self.cfg.clone(),
                self.mpi.clone(),
                self.hooks.clone(),
                me,
                false,
            )),
            Self::spawn_opts(&app),
        );
        ctx.trace(
            TraceKind::Migration,
            format!(
                "pollpoint: {} h{} -> h{} ({} eager + {} lazy bytes)",
                app.app_name(),
                ctx.host_id().0,
                dest.0,
                saved.eager.len(),
                saved.lazy_bytes
            ),
        );

        self.hooks.0.borrow_mut().migrations.push(MigrationRecord {
            pid_old: me,
            pid_new: child,
            from: ctx.host_id(),
            to: dest,
            app: app.app_name(),
            pollpoint_at: ctx.now(),
            spawned_at: ctx.now(),
            eager_sent_at: ctx.now(), // updated when the send completes
            committed_at: None,
            resumed_at: None,
            lazy_done_at: None,
            eager_bytes: saved.eager.len() as u64 + 8, // framed size
            lazy_bytes: saved.lazy_bytes,
            outcome: MigrationOutcome::InFlight,
            abort_reason: None,
        });
        self.cfg.obs.inc("migrations_started");
        self.deadline = ctx.alarm(self.cfg.prepare_timeout);
        let lazy_bytes = saved.lazy_bytes;
        let tx = Tx {
            kind: Reconfiguration::MigrateTo {
                host: dest_host.to_string(),
            },
            children: vec![child],
            child_tasks: Vec::new(),
            members: Vec::new(),
            frozen: 0,
            ready: 0,
            commits: 0,
            proto_sends: 0,
            saved: Some(saved),
            lazy_bytes,
            comm: None,
            from_ranks: 0,
            sync_key: 0,
        };
        self.mode = Mode::SourcePrepare { app, tx };
    }

    /// Prepare phase, resize: spawn joiners (expand), freeze every other
    /// member at its next safe poll-point, and wait (bounded) for all
    /// FROZEN + READY reports.
    fn begin_resize(&mut self, ctx: &mut Ctx<'_>, app: A, req: Reconfiguration) {
        let me = ctx.pid();
        let verb = req.verb();
        let refuse = |s: &mut Self, ctx: &mut Ctx<'_>, app: A, why: String| {
            ctx.trace(TraceKind::Migration, format!("{verb} refused: {why}"));
            s.mode = Mode::Running { app };
        };
        let Some(mpi) = self.mpi.clone() else {
            refuse(self, ctx, app, "no MPI world".into());
            return;
        };
        let Some(comm) = app.resize_comm() else {
            refuse(self, ctx, app, "application is fixed-size".into());
            return;
        };
        let k = match mpi.comm_size(comm) {
            Ok(k) => k,
            Err(e) => {
                refuse(self, ctx, app, format!("{e}"));
                return;
            }
        };
        let my_rank = match mpi.task_of(me).and_then(|t| mpi.rank_of(comm, t).ok()) {
            Some(r) => r.0,
            None => {
                refuse(self, ctx, app, "coordinator is not a member".into());
                return;
            }
        };
        // Per-kind validation.
        let mut dest_ids = Vec::new();
        match &req {
            Reconfiguration::ExpandTo { new_size, hosts } => {
                if *new_size <= k || hosts.len() != (*new_size - k) as usize {
                    refuse(
                        self,
                        ctx,
                        app,
                        format!("bad target k'={new_size} (k={k}, {} hosts)", hosts.len()),
                    );
                    return;
                }
                if app.save_for_join(k, *new_size).is_none() {
                    refuse(
                        self,
                        ctx,
                        app,
                        "application does not support joining".into(),
                    );
                    return;
                }
                for h in hosts {
                    match ctx.host_id_by_name(h) {
                        Some(id) => dest_ids.push(id),
                        None => {
                            refuse(self, ctx, app, format!("unknown destination {h:?}"));
                            return;
                        }
                    }
                }
            }
            Reconfiguration::ShrinkTo { new_size } => {
                if *new_size == 0 || *new_size >= k {
                    refuse(self, ctx, app, format!("bad target k'={new_size} (k={k})"));
                    return;
                }
                if my_rank >= *new_size {
                    refuse(self, ctx, app, "coordinator rank would retire".into());
                    return;
                }
            }
            Reconfiguration::MigrateTo { .. } => {
                unreachable!("dispatched in begin_reconfiguration")
            }
        }
        // Every other member must resolve to a live pid.
        let mut members = Vec::new();
        for r in 0..k {
            if r == my_rank {
                continue;
            }
            match mpi.pid_at(comm, Rank(r)) {
                Ok(p) => members.push((r, p)),
                Err(e) => {
                    refuse(self, ctx, app, format!("rank {r} unresolvable: {e}"));
                    return;
                }
            }
        }
        ctx.remove_file(&dest_file_path(me));

        // Roll back to this poll-point: drop ops the app just queued.
        ctx.clear_pending_ops();
        let new_size = match &req {
            Reconfiguration::ExpandTo { new_size, .. } => *new_size,
            Reconfiguration::ShrinkTo { new_size } => *new_size,
            Reconfiguration::MigrateTo { .. } => unreachable!(),
        };

        // Expand: dynamically create the initialized joiners and bind
        // their task identities now — they become ranks k..k' at commit.
        let mut children = Vec::new();
        let mut child_tasks = Vec::new();
        for dest in &dest_ids {
            let child = ctx.spawn(
                *dest,
                Box::new(Self::restoring(
                    self.cfg.clone(),
                    self.mpi.clone(),
                    self.hooks.clone(),
                    me,
                    true,
                )),
                Self::spawn_opts(&app),
            );
            child_tasks.push(mpi.bind_new_task(child));
            children.push(child);
        }
        // Freeze the other members at their next safe poll-point.
        for (_, p) in &members {
            ctx.send(*p, TAG_HPCM_FREEZE, Payload::Empty);
        }
        let proto_sends = members.len() as u32;
        ctx.trace(
            TraceKind::Migration,
            format!(
                "pollpoint: {verb} {} k={k} -> k'={new_size} ({} members, {} joiners)",
                app.app_name(),
                members.len(),
                children.len()
            ),
        );
        let kind = if matches!(req, Reconfiguration::ExpandTo { .. }) {
            ResizeKind::Expand
        } else {
            ResizeKind::Shrink
        };
        self.hooks.0.borrow_mut().resizes.push(ResizeRecord {
            app: app.app_name(),
            coordinator: me,
            kind,
            from_ranks: k,
            to_ranks: new_size,
            started_at: ctx.now(),
            committed_at: None,
            moved_bytes: 0,
            outcome: MigrationOutcome::InFlight,
            abort_reason: None,
        });
        self.cfg.obs.inc(match kind {
            ResizeKind::Expand => "expands_started",
            ResizeKind::Shrink => "shrinks_started",
        });
        self.deadline = ctx.alarm(self.cfg.prepare_timeout);
        let sync_key = app.sync_key();
        let tx = Tx {
            kind: req,
            children,
            child_tasks,
            members,
            frozen: 0,
            ready: 0,
            commits: 0,
            proto_sends,
            saved: None,
            lazy_bytes: 0,
            comm: Some(comm),
            from_ranks: k,
            sync_key,
        };
        self.mode = Mode::SourcePrepare { app, tx };
        // A shrink with all members already frozen cannot happen (FROZEN
        // replies take at least one hop), so no immediate-commit check.
    }

    /// Member side: honor a pending freeze request at a safe poll-point —
    /// clear our ops, report FROZEN with our sync key, and wait for the
    /// coordinator's verdict (bounded by a backstop alarm).
    fn enter_frozen(&mut self, ctx: &mut Ctx<'_>) {
        let Some(coordinator) = self.freeze.take() else {
            return;
        };
        let Mode::Running { app } = std::mem::replace(&mut self.mode, Mode::Done) else {
            return;
        };
        let Some(comm) = app.resize_comm() else {
            // Fixed-size application: ignore; the coordinator rolls back
            // on its prepare timeout.
            ctx.trace(
                TraceKind::Migration,
                "freeze refused: fixed-size application",
            );
            self.mode = Mode::Running { app };
            return;
        };
        ctx.clear_pending_ops();
        let key = app.sync_key();
        ctx.send(
            coordinator,
            TAG_HPCM_FROZEN,
            Payload::Bytes(key.to_le_bytes().to_vec()),
        );
        let epoch0 = self
            .mpi
            .as_ref()
            .and_then(|m| m.epoch(comm).ok())
            .unwrap_or(0);
        // Backstop: survive a crashed coordinator (prepare + commit spans
        // the whole transaction it could be running).
        self.deadline = ctx.alarm(self.cfg.prepare_timeout + self.cfg.commit_timeout);
        ctx.trace(TraceKind::Migration, "frozen at poll-point for resize");
        self.mode = Mode::Frozen {
            app,
            coordinator,
            epoch0,
        };
    }

    /// Member side: leave the frozen state. On commit, sync to the resized
    /// epoch; either way, re-queue held messages and replay from the
    /// poll-point.
    fn thaw(&mut self, ctx: &mut Ctx<'_>, commit: bool, why: &str) {
        let Mode::Frozen { app, .. } = std::mem::replace(&mut self.mode, Mode::Done) else {
            return;
        };
        if commit {
            if let (Some(mpi), Some(comm)) = (self.mpi.as_ref(), app.resize_comm()) {
                if let Some(task) = mpi.task_of(ctx.pid()) {
                    let _ = mpi.sync_task(comm, task);
                }
            }
        }
        for env in self.held.drain(..) {
            ctx.requeue_envelope(env);
        }
        ctx.trace(
            TraceKind::Migration,
            format!("thawed ({why}); resuming from poll-point"),
        );
        self.mode = Mode::Running { app };
        self.drive_app(ctx, Wake::Started);
    }

    /// Member side: this rank was shrunk away. Its block-cyclic data
    /// already lives in the survivors (the world-side redistribution ran
    /// at commit), so just disappear.
    fn retire(&mut self, ctx: &mut Ctx<'_>) {
        ctx.trace(TraceKind::Migration, "rank retired by shrink; exiting");
        self.mode = Mode::Done;
        let me = ctx.pid();
        ctx.kill(me);
    }

    /// Prepare phase completed (every FROZEN + READY in): advance the
    /// transaction down its kind-specific path.
    fn advance_prepared(&mut self, ctx: &mut Ctx<'_>) {
        let kind = match &self.mode {
            Mode::SourcePrepare { tx, .. } => match &tx.kind {
                Reconfiguration::MigrateTo { .. } => 0u8,
                Reconfiguration::ExpandTo { .. } => 1,
                Reconfiguration::ShrinkTo { .. } => 2,
            },
            _ => return,
        };
        match kind {
            0 => self.on_ready(ctx),
            1 => self.transfer_expand(ctx),
            // Shrink has nothing to transfer: world data is already
            // block-cyclic in the registered arrays — commit directly.
            _ => self.commit_resize(ctx),
        }
    }

    /// Prepare done, migration: the destination is initialized — transfer
    /// the framed eager checkpoint, with the commit deadline running.
    fn on_ready(&mut self, ctx: &mut Ctx<'_>) {
        let Mode::SourcePrepare { app, mut tx } = std::mem::replace(&mut self.mode, Mode::Done)
        else {
            return;
        };
        if self.cfg.obs.is_enabled() {
            let me = ctx.pid();
            let now = ctx.now();
            if let Some((t0, from, to)) =
                self.peek_record(me, true, |m| (m.pollpoint_at, m.from, m.to))
            {
                self.cfg
                    .obs
                    .observe("migration_prepare_s", now.since(t0).as_secs_f64());
                self.cfg.obs.record(now, || ObsEvent::MigrationPrepared {
                    pid: me.0,
                    from: format!("h{}", from.0),
                    to: format!("h{}", to.0),
                });
            }
        }
        let SavedState { eager, .. } = tx.saved.take().expect("migration checkpoint");
        let child = tx.children[0];
        ctx.send(child, TAG_HPCM_EAGER, Payload::Bytes(frame_state(&eager)));
        self.deadline = ctx.alarm(self.cfg.commit_timeout);
        self.mode = Mode::SourceSending {
            app,
            tx,
            sends_left: 1,
        };
    }

    /// Prepare done, expand: every member is frozen and every joiner is
    /// initialized — cut one per-rank join checkpoint each and transfer
    /// them framed, with the commit deadline running.
    fn transfer_expand(&mut self, ctx: &mut Ctx<'_>) {
        let Mode::SourcePrepare { app, tx } = std::mem::replace(&mut self.mode, Mode::Done) else {
            return;
        };
        let k = tx.from_ranks;
        let new_size = tx.new_size();
        let blobs: Option<Vec<SavedState>> = (0..tx.children.len())
            .map(|i| app.save_for_join(k + i as u32, new_size))
            .collect();
        let Some(blobs) = blobs else {
            self.mode = Mode::SourcePrepare { app, tx };
            self.rollback(ctx, "application refused join checkpoints");
            return;
        };
        self.cfg.obs.record(ctx.now(), || ObsEvent::ExpandPrepared {
            app: app.app_name(),
            from_ranks: k,
            to_ranks: new_size,
        });
        let sends_left = tx.children.len() as u32;
        for (child, blob) in tx.children.iter().zip(&blobs) {
            ctx.send(
                *child,
                TAG_HPCM_EAGER,
                Payload::Bytes(frame_state(&blob.eager)),
            );
        }
        ctx.trace(
            TraceKind::Migration,
            format!(
                "expand transfer: {} join checkpoints out",
                tx.children.len()
            ),
        );
        self.deadline = ctx.alarm(self.cfg.commit_timeout);
        self.mode = Mode::SourceSending {
            app,
            tx,
            sends_left,
        };
    }

    /// Commit phase, source side: the destination restored successfully.
    /// Hand over the communication state, acknowledge, stream the lazy
    /// remainder, and wind down.
    fn commit_source(&mut self, ctx: &mut Ctx<'_>) {
        let Mode::SourceAwaitCommit { app: _app, tx } =
            std::mem::replace(&mut self.mode, Mode::Done)
        else {
            return;
        };
        let child = tx.children[0];
        let lazy_bytes = tx.lazy_bytes;
        let me = ctx.pid();
        // Communication-state transfer: in-flight messages re-route via
        // the kernel forwarding entry; held + queued messages re-send.
        // Order matters — the ack unblocks the destination, the small
        // app messages follow, the bulk stream goes last.
        ctx.set_forwarding(me, child);
        let mut sends: u32 = 1;
        ctx.send(child, TAG_HPCM_COMMIT_ACK, Payload::Empty);
        for env in self.held.drain(..) {
            ctx.forward_envelope(env, child);
            sends += 1;
        }
        for env in ctx.drain_mailbox() {
            if is_protocol_tag(env.tag) {
                continue; // e.g. a duplicated COMMIT — consumed, not forwarded
            }
            ctx.forward_envelope(env, child);
            sends += 1;
        }
        if lazy_bytes > 0 {
            ctx.send_sized(child, TAG_HPCM_LAZY, Payload::Empty, lazy_bytes);
            sends += 1;
        }
        let now = ctx.now();
        self.with_record(me, true, |m| {
            m.outcome = MigrationOutcome::Committed;
            m.committed_at = Some(now);
        });
        self.cfg.obs.inc("migrations_committed");
        if self.cfg.obs.is_enabled() {
            if let Some((sent, bytes)) =
                self.peek_record(me, true, |m| (m.eager_sent_at, m.eager_bytes))
            {
                self.cfg
                    .obs
                    .observe("migration_transfer_s", now.since(sent).as_secs_f64());
                self.cfg.obs.record(now, || ObsEvent::MigrationTransferred {
                    pid: me.0,
                    eager_bytes: bytes,
                });
            }
        }
        ctx.trace(
            TraceKind::Migration,
            format!("commit: handover to {child:?}, streaming {lazy_bytes} lazy bytes"),
        );
        self.mode = Mode::SourceCommitting { sends_left: sends };
    }

    /// Commit phase, resize: bump the communicator epoch (redistributing
    /// every registered array block-cyclically), deliver verdicts —
    /// RESUME(commit) to surviving members, RETIRE to shrunk-away ranks,
    /// COMMIT_ACK to joiners — model the redistribution traffic, and
    /// resume the application. The coordinator keeps its pid and rank.
    fn commit_resize(&mut self, ctx: &mut Ctx<'_>) {
        let (app, tx) = match std::mem::replace(&mut self.mode, Mode::Done) {
            Mode::SourcePrepare { app, tx } | Mode::SourceAwaitCommit { app, tx } => (app, tx),
            other => {
                self.mode = other;
                return;
            }
        };
        let me = ctx.pid();
        let mpi = self.mpi.clone().expect("resize requires an MPI world");
        let comm = tx.comm.expect("resize transaction has a communicator");
        let new_size = tx.new_size();
        let old_members = match mpi.comm(comm) {
            Ok(c) => c.members,
            Err(e) => {
                self.mode = Mode::SourcePrepare { app, tx };
                self.rollback(ctx, &format!("communicator vanished: {e}"));
                return;
            }
        };
        let new_members: Vec<TaskId> = match &tx.kind {
            Reconfiguration::ExpandTo { .. } => old_members
                .iter()
                .copied()
                .chain(tx.child_tasks.iter().copied())
                .collect(),
            Reconfiguration::ShrinkTo { .. } => old_members[..new_size as usize].to_vec(),
            Reconfiguration::MigrateTo { .. } => {
                unreachable!("migrations commit via commit_source")
            }
        };
        let outcome = match mpi.resize(comm, new_members.clone()) {
            Ok(o) => o,
            Err(e) => {
                self.mode = Mode::SourcePrepare { app, tx };
                self.rollback(ctx, &format!("resize rejected: {e}"));
                return;
            }
        };
        // Verdicts. Ops are serial, so every send below completes (and is
        // swallowed via protocol_sends_in_flight) before any app op the
        // resumed application queues.
        let mut proto: u32 = 0;
        for (rank, pid) in &tx.members {
            if *rank < new_size {
                ctx.send(*pid, TAG_HPCM_RESUME, Payload::Bytes(vec![1]));
            } else {
                ctx.send(*pid, TAG_HPCM_RETIRE, Payload::Empty);
            }
            proto += 1;
        }
        for child in &tx.children {
            ctx.send(*child, TAG_HPCM_COMMIT_ACK, Payload::Empty);
            proto += 1;
        }
        // Model the redistribution traffic: each new rank's inbound bytes
        // stream to it as one sized protocol message (star topology
        // through the coordinator — an approximation of the pairwise
        // exchange; total wire bytes match the layout change exactly).
        for (rank, bytes) in outcome.incoming_bytes.iter().enumerate() {
            if *bytes == 0 {
                continue;
            }
            let Ok(pid) = mpi.pid_of(new_members[rank]) else {
                continue;
            };
            if pid == me {
                continue;
            }
            ctx.send_sized(pid, TAG_HPCM_LAZY, Payload::Empty, *bytes);
            proto += 1;
        }
        // The coordinator keeps its identity: messages held during the
        // transaction go back into our own mailbox.
        for env in self.held.drain(..) {
            ctx.requeue_envelope(env);
        }
        if let Some(task) = mpi.task_of(me) {
            let _ = mpi.sync_task(comm, task);
        }
        let now = ctx.now();
        self.with_resize(me, |r| {
            r.outcome = MigrationOutcome::Committed;
            r.committed_at = Some(now);
            r.moved_bytes = outcome.moved_bytes;
        });
        let kind = match &tx.kind {
            Reconfiguration::ExpandTo { .. } => ResizeKind::Expand,
            _ => ResizeKind::Shrink,
        };
        self.cfg.obs.inc(match kind {
            ResizeKind::Expand => "expands_committed",
            ResizeKind::Shrink => "shrinks_committed",
        });
        self.cfg
            .obs
            .observe("redistribution_bytes", outcome.moved_bytes as f64);
        let (app_name, from_ranks) = (app.app_name(), tx.from_ranks);
        self.cfg.obs.record(now, || match kind {
            ResizeKind::Expand => ObsEvent::ExpandCommitted {
                app: app_name.clone(),
                from_ranks,
                to_ranks: new_size,
                moved_bytes: outcome.moved_bytes,
            },
            ResizeKind::Shrink => ObsEvent::ShrinkCommitted {
                app: app_name.clone(),
                from_ranks,
                to_ranks: new_size,
                moved_bytes: outcome.moved_bytes,
            },
        });
        ctx.trace(
            TraceKind::Migration,
            format!(
                "commit: {} {} to {new_size} ranks (epoch {}, {} bytes redistributed)",
                tx.kind.verb(),
                app_name,
                outcome.epoch,
                outcome.moved_bytes
            ),
        );
        self.protocol_sends_in_flight += proto;
        self.mode = Mode::Running { app };
        // Resume: the app re-issues the ops for its current phase, now in
        // the resized world.
        self.drive_app(ctx, Wake::Started);
    }

    /// Rollback, source side: kill the half-restored child, return held
    /// messages to our own mailbox, and resume the application from the
    /// poll-point it was captured at.
    fn rollback(&mut self, ctx: &mut Ctx<'_>, why: &str) {
        let (app, tx, sends_left) = match std::mem::replace(&mut self.mode, Mode::Done) {
            Mode::SourcePrepare { app, tx } => (app, tx, 0),
            Mode::SourceSending {
                app,
                tx,
                sends_left,
            } => (app, tx, sends_left),
            Mode::SourceAwaitCommit { app, tx } => (app, tx, 0),
            other => {
                self.mode = other;
                return;
            }
        };
        for child in &tx.children {
            ctx.kill(*child);
        }
        ctx.clear_pending_ops();
        // Ops run serially: at most one protocol send is actually in
        // flight; the rest were still pending and are now cleared. Its
        // completion must not be delivered to the application.
        self.protocol_sends_in_flight = u32::from(sends_left + tx.proto_sends > 0);
        // Abort notices: frozen members resume in the old world; members
        // that never reached a poll-point cancel their pending freeze.
        for (_, pid) in &tx.members {
            ctx.send(*pid, TAG_HPCM_RESUME, Payload::Bytes(vec![0]));
        }
        self.protocol_sends_in_flight += tx.members.len() as u32;
        for env in self.held.drain(..) {
            ctx.requeue_envelope(env);
        }
        let me = ctx.pid();
        if let Reconfiguration::MigrateTo { .. } = &tx.kind {
            self.with_record(me, true, |m| {
                m.outcome = MigrationOutcome::Aborted;
                m.abort_reason = Some(why.to_string());
            });
            self.cfg.obs.inc("migrations_aborted");
            self.cfg
                .obs
                .record(ctx.now(), || ObsEvent::MigrationAborted {
                    pid: me.0,
                    reason: why.to_string(),
                });
            ctx.trace(
                TraceKind::Recovery,
                format!(
                    "migration aborted ({why}); rolled back to poll-point on h{}",
                    ctx.host_id().0
                ),
            );
        } else {
            let kind = match &tx.kind {
                Reconfiguration::ExpandTo { .. } => ResizeKind::Expand,
                _ => ResizeKind::Shrink,
            };
            self.with_resize(me, |r| {
                r.outcome = MigrationOutcome::Aborted;
                r.abort_reason = Some(why.to_string());
            });
            self.cfg.obs.inc(match kind {
                ResizeKind::Expand => "expands_aborted",
                ResizeKind::Shrink => "shrinks_aborted",
            });
            if kind == ResizeKind::Expand {
                let app_name = app.app_name();
                self.cfg.obs.record(ctx.now(), || ObsEvent::ExpandAborted {
                    app: app_name,
                    reason: why.to_string(),
                });
            }
            ctx.trace(
                TraceKind::Recovery,
                format!(
                    "{} aborted ({why}); rolled back to poll-point on h{}",
                    tx.kind.verb(),
                    ctx.host_id().0
                ),
            );
        }
        self.mode = Mode::Running { app };
        // Resume: the app re-issues the ops for its current phase.
        self.drive_app(ctx, Wake::Started);
    }

    /// Abort, destination side: the source went quiet (crashed, or rolled
    /// back and our messages to it were lost). Record the cause if nobody
    /// else settled the transaction, then disappear.
    fn abort_destination(&mut self, ctx: &mut Ctx<'_>, why: &str) {
        let me = ctx.pid();
        let mut newly_aborted = false;
        self.with_record(me, false, |m| {
            if m.outcome == MigrationOutcome::InFlight {
                m.outcome = MigrationOutcome::Aborted;
                m.abort_reason = Some(why.to_string());
                newly_aborted = true;
            }
        });
        if newly_aborted {
            self.cfg.obs.inc("migrations_aborted");
            self.cfg
                .obs
                .record(ctx.now(), || ObsEvent::MigrationAborted {
                    pid: me.0,
                    reason: why.to_string(),
                });
        }
        ctx.trace(
            TraceKind::Recovery,
            format!("destination shell aborting ({why})"),
        );
        self.mode = Mode::Done;
        // `kill`, not `exit`: we may be blocked on a receive, and a queued
        // Exit op would never start.
        ctx.kill(me);
    }
}

impl<A: MigratableApp> Program for HpcmShell<A> {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        // The lazy tail of our own inbound migration may still be
        // streaming; its arrival is a protocol message, not an application
        // one, and can land in any mode (we may already be a migration
        // source again). Settle it here.
        if self.pending_lazy {
            if let Wake::Received(env) = &wake {
                if env.tag == TAG_HPCM_LAZY {
                    self.pending_lazy = false;
                    let now = ctx.now();
                    let me = ctx.pid();
                    self.with_record(me, false, |m| m.lazy_done_at = Some(now));
                    ctx.trace(TraceKind::Migration, "lazy state fully received");
                    return;
                }
            }
        }
        match &mut self.mode {
            Mode::Running { .. } => {
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
                    self.pending_lazy = false;
                    let now = ctx.now();
                    let me = ctx.pid();
                    self.with_record(me, false, |m| m.lazy_done_at = Some(now));
                    ctx.trace(TraceKind::Migration, "lazy state fully received");
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

            // --- Coordinator side -------------------------------------------
            Mode::SourcePrepare { tx, .. } => match wake {
                Wake::Received(env) if env.tag == TAG_HPCM_READY && tx.is_child(env.from) => {
                    tx.ready += 1;
                    if tx.prepared() {
                        self.advance_prepared(ctx);
                    }
                }
                Wake::Received(env) if env.tag == TAG_HPCM_FROZEN && tx.is_member(env.from) => {
                    let key = env
                        .payload
                        .as_bytes()
                        .and_then(|b| <[u8; 8]>::try_from(b).ok())
                        .map(u64::from_le_bytes)
                        .unwrap_or(u64::MAX);
                    if key != tx.sync_key {
                        self.rollback(ctx, "members froze at different phases (sync key mismatch)");
                    } else {
                        tx.frozen += 1;
                        if tx.prepared() {
                            self.advance_prepared(ctx);
                        }
                    }
                }
                // Completions of the FREEZE broadcast.
                Wake::OpDone if tx.proto_sends > 0 => tx.proto_sends -= 1,
                Wake::Received(env) if !is_protocol_tag(env.tag) => self.held.push(env),
                Wake::Alarm(t) if t == self.deadline => {
                    let why = if tx.kind.is_resize() {
                        format!(
                            "world never froze (prepare timeout: {}/{} frozen, {}/{} ready)",
                            tx.frozen,
                            tx.members.len(),
                            tx.ready,
                            tx.children.len()
                        )
                    } else {
                        "destination never initialized (prepare timeout)".to_string()
                    };
                    self.rollback(ctx, &why);
                }
                _ => {}
            },
            Mode::SourceSending { sends_left, tx, .. } => match wake {
                Wake::OpDone => {
                    if tx.proto_sends > 0 {
                        tx.proto_sends -= 1;
                        return;
                    }
                    *sends_left -= 1;
                    let all_sent = *sends_left == 0;
                    let me = ctx.pid();
                    let now = ctx.now();
                    self.with_record(me, true, |m| {
                        if m.eager_sent_at == m.pollpoint_at {
                            m.eager_sent_at = now;
                        }
                    });
                    if all_sent {
                        let (app, tx) = match std::mem::replace(&mut self.mode, Mode::Done) {
                            Mode::SourceSending { app, tx, .. } => (app, tx),
                            _ => unreachable!("matched above"),
                        };
                        // An expand child may have COMMITted while later
                        // sends were still draining.
                        let done = tx.commits == tx.children.len();
                        let migrate = !tx.kind.is_resize();
                        self.mode = Mode::SourceAwaitCommit { app, tx };
                        if done {
                            if migrate {
                                self.commit_source(ctx);
                            } else {
                                self.commit_resize(ctx);
                            }
                        }
                    }
                }
                Wake::Received(env) if env.tag == TAG_HPCM_COMMIT && tx.is_child(env.from) => {
                    // For a migration this cannot happen before our send op
                    // completes (the eager state has not left yet); for an
                    // expand, an earlier child may restore while we are
                    // still sending to a later one — count it.
                    tx.commits += 1;
                }
                Wake::Received(env) if !is_protocol_tag(env.tag) => self.held.push(env),
                Wake::Alarm(t) if t == self.deadline => {
                    let why = if tx.kind.is_resize() {
                        "joiners never restored (commit timeout)"
                    } else {
                        "destination never restored (commit timeout)"
                    };
                    self.rollback(ctx, why);
                }
                _ => {}
            },
            Mode::SourceAwaitCommit { tx, .. } => match wake {
                Wake::Received(env) if env.tag == TAG_HPCM_COMMIT && tx.is_child(env.from) => {
                    tx.commits += 1;
                    if tx.commits == tx.children.len() {
                        if tx.kind.is_resize() {
                            self.commit_resize(ctx);
                        } else {
                            self.commit_source(ctx);
                        }
                    }
                }
                Wake::Received(env) if !is_protocol_tag(env.tag) => self.held.push(env),
                Wake::Alarm(t) if t == self.deadline => {
                    let why = if tx.kind.is_resize() {
                        "joiners never restored (commit timeout)"
                    } else {
                        "destination never restored (commit timeout)"
                    };
                    self.rollback(ctx, why);
                }
                _ => {}
            },
            Mode::SourceCommitting { sends_left } => {
                if let Wake::OpDone = wake {
                    *sends_left -= 1;
                    if *sends_left == 0 {
                        ctx.trace(TraceKind::Migration, "source state sent; exiting");
                        self.mode = Mode::Done;
                        ctx.exit();
                    }
                }
            }

            // --- Destination / joiner side ----------------------------------
            Mode::Restoring {
                waited_init,
                source,
                ..
            } => match wake {
                Wake::Started => {
                    self.deadline = ctx.alarm(self.cfg.restore_wait_timeout);
                    if self.cfg.pre_initialized || self.cfg.dpm_init_cost.is_zero() {
                        *waited_init = true;
                        ctx.send(*source, TAG_HPCM_READY, Payload::Empty);
                        ctx.recv(RecvFilter::tag(TAG_HPCM_EAGER));
                    } else {
                        ctx.sleep(self.cfg.dpm_init_cost);
                    }
                }
                Wake::OpDone if !*waited_init => {
                    *waited_init = true;
                    ctx.send(*source, TAG_HPCM_READY, Payload::Empty);
                    ctx.recv(RecvFilter::tag(TAG_HPCM_EAGER));
                }
                Wake::Received(env) if env.tag == TAG_HPCM_EAGER => {
                    let framed = env.payload.as_bytes().unwrap_or_default();
                    let restored = unframe_state(framed)
                        .and_then(|bytes| A::restore(bytes, self.mpi.as_ref()));
                    match restored {
                        Ok(app) => {
                            let restore_work = self.cfg.restore_fixed
                                + SimDuration::from_secs_f64(
                                    framed.len() as f64 / self.cfg.restore_rate,
                                );
                            ctx.trace(
                                TraceKind::Migration,
                                format!("restoring {} ({} bytes)", app.app_name(), framed.len()),
                            );
                            // Restoration burns CPU on the destination.
                            ctx.compute(restore_work.as_secs_f64());
                            let source = *source;
                            let join = match &self.mode {
                                Mode::Restoring { join, .. } => *join,
                                _ => false,
                            };
                            self.mode = Mode::RestoreCompute {
                                app: Some(app),
                                source,
                                join,
                            };
                        }
                        Err(e) => {
                            // Corrupt checkpoint: refuse to resurrect from
                            // garbage. The source's commit deadline will
                            // expire and roll the application back.
                            self.abort_destination(ctx, &format!("checkpoint rejected: {e}"));
                        }
                    }
                }
                Wake::Alarm(t) if t == self.deadline => {
                    self.abort_destination(ctx, "eager state never arrived");
                }
                _ => {}
            },
            Mode::RestoreCompute { app, source, join } => {
                if let Wake::OpDone = wake {
                    let app = app.take().expect("app restored");
                    let source = *source;
                    let join = *join;
                    // Request the commit; resume only once it is granted.
                    ctx.send(source, TAG_HPCM_COMMIT, Payload::Empty);
                    self.deadline = ctx.alarm(self.cfg.restore_wait_timeout);
                    self.mode = Mode::AwaitCommitAck {
                        app: Some(app),
                        source,
                        join,
                    };
                }
            }
            Mode::AwaitCommitAck { app, source, join } => match wake {
                Wake::Received(env) if env.tag == TAG_HPCM_COMMIT_ACK => {
                    let app = app.take().expect("app restored");
                    let source = *source;
                    let join = *join;
                    let me = ctx.pid();
                    if join {
                        // Commit granted, expand: the coordinator already
                        // resized the world with our task as a new rank —
                        // sync to the new epoch and start working.
                        if let (Some(mpi), Some(comm)) = (&self.mpi, app.resize_comm()) {
                            if let Some(task) = mpi.task_of(me) {
                                let _ = mpi.sync_task(comm, task);
                            }
                        }
                        ctx.trace(TraceKind::Migration, "joiner resumed execution");
                        self.mode = Mode::Running { app };
                        self.drive_app(ctx, Wake::Started);
                        return;
                    }
                    // Commit granted: communication-state transfer — the
                    // task identity now points at this process.
                    if let Some(mpi) = &self.mpi {
                        if let Some(task) = mpi.task_of(source) {
                            let _ = mpi.rebind(task, me);
                        }
                    }
                    let now = ctx.now();
                    self.with_record(me, false, |m| m.resumed_at = Some(now));
                    if self.cfg.obs.is_enabled() {
                        if let Some((old, t0, tc)) = self
                            .peek_record(me, false, |m| (m.pid_old, m.pollpoint_at, m.committed_at))
                        {
                            if let Some(tc) = tc {
                                self.cfg
                                    .obs
                                    .observe("migration_commit_s", now.since(tc).as_secs_f64());
                            }
                            self.cfg
                                .obs
                                .observe("migration_total_s", now.since(t0).as_secs_f64());
                            self.cfg.obs.record(now, || ObsEvent::MigrationCommitted {
                                pid_old: old.0,
                                pid_new: me.0,
                            });
                        }
                    }
                    ctx.trace(TraceKind::Migration, "destination resumed execution");
                    self.mode = Mode::Running { app };
                    // Resume: the app re-issues ops for its current phase.
                    self.drive_app(ctx, Wake::Started);
                }
                Wake::Alarm(t) if t == self.deadline => {
                    self.abort_destination(ctx, "commit never acknowledged");
                }
                _ => {}
            },

            // --- Member side ------------------------------------------------
            Mode::Frozen {
                coordinator,
                epoch0,
                ..
            } => match wake {
                Wake::Received(env) if env.tag == TAG_HPCM_RESUME && env.from == *coordinator => {
                    let commit = matches!(env.payload.as_bytes().and_then(|b| b.first()), Some(1));
                    let why = if commit {
                        "resize committed"
                    } else {
                        "resize aborted"
                    };
                    self.thaw(ctx, commit, why);
                }
                Wake::Received(env) if env.tag == TAG_HPCM_RETIRE && env.from == *coordinator => {
                    self.retire(ctx)
                }
                Wake::Received(env) if !is_protocol_tag(env.tag) => self.held.push(env),
                Wake::Alarm(t) if t == self.deadline => {
                    // Coordinator silent past the whole transaction span:
                    // adopt whatever the world says. If the epoch moved,
                    // the commit happened (and our verdict was lost) —
                    // sync if we survived, retire if our rank is gone;
                    // otherwise resume in the untouched old world.
                    let epoch0 = *epoch0;
                    let (epoch_now, still_member) = match &self.mode {
                        Mode::Frozen { app, .. } => match (self.mpi.as_ref(), app.resize_comm()) {
                            (Some(mpi), Some(comm)) => {
                                let e = mpi.epoch(comm).ok().unwrap_or(epoch0);
                                let member = mpi
                                    .task_of(ctx.pid())
                                    .and_then(|t| mpi.rank_of(comm, t).ok())
                                    .is_some();
                                (e, member)
                            }
                            _ => (epoch0, true),
                        },
                        _ => (epoch0, true),
                    };
                    if epoch_now != epoch0 && !still_member {
                        self.retire(ctx);
                    } else {
                        self.thaw(
                            ctx,
                            epoch_now != epoch0,
                            "freeze timed out (coordinator silent)",
                        );
                    }
                }
                _ => {}
            },
            Mode::Done => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
