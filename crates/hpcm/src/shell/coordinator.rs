//! The coordinating side of a reconfiguration: the migration source, or the
//! rank the registry signalled for a resize.
//!
//! There is one transaction engine, written once:
//! [`begin`](HpcmShell::begin) → [`transfer`](HpcmShell::transfer) →
//! [`commit`](HpcmShell::commit), or [`rollback`](HpcmShell::rollback) from
//! any point before the commit. Migrate, expand and shrink differ only in
//! who takes part — the [`Plan`] worked out at the poll-point — and, once
//! committed, in who owns the application: a migration's heir, or still
//! the coordinator.

use super::plan::Plan;
use super::{is_protocol_tag, HpcmShell, Mode};
use crate::codec::seal_state;
use crate::reconfig::Reconfiguration;
use crate::state::{
    dest_file_path, MigratableApp, MigrationOutcome, MigrationRecord, ResizeKind, ResizeRecord,
    TAG_HPCM_COMMIT, TAG_HPCM_COMMIT_ACK, TAG_HPCM_EAGER, TAG_HPCM_FREEZE, TAG_HPCM_FROZEN,
    TAG_HPCM_LAZY, TAG_HPCM_READY, TAG_HPCM_RESUME, TAG_HPCM_RETIRE,
};
use ars_mpisim::{Mpi, ResizeOutcome, TaskId};
use ars_obs::ObsEvent;
use ars_sim::{Ctx, Payload, Pid, TraceKind, Wake};

/// One reconfiguration transaction, as driven by the coordinating shell.
/// Migration is the degenerate instance: one child, no members.
pub(super) struct Tx {
    /// What the registry asked for.
    kind: Reconfiguration,
    /// Destination shells this transaction spawned (migrate: the one
    /// destination; expand: the joiners, in new-rank order).
    children: Vec<Pid>,
    /// Task identities bound to the joiners at spawn (expand only).
    child_tasks: Vec<TaskId>,
    /// Who takes part (a blob's eager bytes are dropped once sent).
    plan: Plan,
    /// FROZEN replies received so far.
    frozen: usize,
    /// READY reports received so far.
    ready: usize,
    /// COMMIT requests received so far.
    commits: usize,
    /// FREEZE broadcast sends whose OpDone has not been seen yet. Ops run
    /// serially, so these completions always precede transfer-send ones.
    proto_sends: u32,
    /// Coordinator's phase fingerprint; FROZEN replies must match.
    sync_key: u64,
}

/// Index into [`Tx::counters`].
const STARTED: usize = 0;
const COMMITTED: usize = 1;
const ABORTED: usize = 2;

impl Tx {
    /// Prepare phase complete: every member froze, every child is READY.
    fn prepared(&self) -> bool {
        self.frozen == self.plan.members.len() && self.ready == self.children.len()
    }

    fn is_child(&self, p: Pid) -> bool {
        self.children.contains(&p)
    }

    fn is_member(&self, p: Pid) -> bool {
        self.plan.members.iter().any(|(_, m)| *m == p)
    }

    /// The child that owns the application once the transaction commits:
    /// a migration's destination. A resize has none — the coordinator keeps
    /// its pid, its rank and the application.
    fn heir(&self) -> Option<Pid> {
        match self.plan.resize {
            None => self.children.first().copied(),
            Some(_) => None,
        }
    }

    /// Obs counter names, indexed by [`STARTED`] / [`COMMITTED`] / [`ABORTED`].
    fn counters(&self) -> [&'static str; 3] {
        match self.plan.resize.map(|(kind, _)| kind) {
            None => [
                "migrations_started",
                "migrations_committed",
                "migrations_aborted",
            ],
            Some(ResizeKind::Expand) => ["expands_started", "expands_committed", "expands_aborted"],
            Some(ResizeKind::Shrink) => ["shrinks_started", "shrinks_committed", "shrinks_aborted"],
        }
    }

    /// Swap the communicator's member list for the `to_ranks`-sized one —
    /// the surviving prefix of the old members, then the joiners — bumping
    /// the epoch and redistributing every registered array block-cyclically.
    /// Expand (the prefix is everyone) and shrink (no joiners) are the same
    /// call; a migration changes no membership (`None`).
    fn resize_world(
        &self,
        mpi: Option<&Mpi>,
    ) -> Result<Option<(ResizeKind, ResizeOutcome, Vec<TaskId>)>, String> {
        let Some((resize, comm)) = self.plan.resize else {
            return Ok(None);
        };
        let mpi = mpi.ok_or("no MPI world")?;
        let old = mpi
            .comm(comm)
            .map_err(|e| format!("communicator vanished: {e}"))?;
        let new: Vec<TaskId> = old
            .members
            .into_iter()
            .take(self.plan.to_ranks as usize)
            .chain(self.child_tasks.iter().copied())
            .collect();
        let outcome = mpi
            .resize(comm, new.clone())
            .map_err(|e| format!("resize rejected: {e}"))?;
        Ok(Some((resize, outcome, new)))
    }
}

impl<A: MigratableApp> HpcmShell<A> {
    /// Prepare phase: create the initialized process on every destination,
    /// freeze every other member at its next safe poll-point, and wait
    /// (bounded) for all READY + FROZEN reports.
    pub(super) fn begin(&mut self, ctx: &mut Ctx<'_>, kind: Reconfiguration, plan: Plan) {
        let Mode::Running { app } = std::mem::replace(&mut self.mode, Mode::Done) else {
            return;
        };
        let me = ctx.pid();
        ctx.remove_file(&dest_file_path(me));
        // Roll back to this poll-point: drop ops the app just queued.
        ctx.clear_pending_ops();

        // Dynamically create the initialized processes. A migration's task
        // identity is NOT re-pointed yet: until the transaction commits,
        // this process owns the application and holds (then forwards or
        // re-queues) messages addressed to it.
        let join = plan.resize.is_some();
        let mut children = Vec::new();
        for dest in &plan.dests {
            children.push(ctx.spawn(
                *dest,
                Box::new(self.restoring(me, join)),
                Self::spawn_opts(&app),
            ));
        }
        // Expand: bind the joiners' task identities now — they become
        // ranks k..k' at commit.
        let child_tasks = match &self.mpi {
            Some(mpi) if join => children.iter().map(|c| mpi.bind_new_task(*c)).collect(),
            _ => Vec::new(),
        };
        // Freeze the other members at their next safe poll-point.
        for (_, p) in &plan.members {
            ctx.send(*p, TAG_HPCM_FREEZE, Payload::Empty);
        }
        let tx = Tx {
            kind,
            children,
            child_tasks,
            proto_sends: plan.members.len() as u32,
            plan,
            frozen: 0,
            ready: 0,
            commits: 0,
            sync_key: app.sync_key(),
        };
        let (now, from) = (ctx.now(), ctx.host_id());
        match tx.plan.resize {
            // A migration has exactly one child.
            None => {
                if let (Some(child), Some(to), Some(blob)) = (
                    tx.children.first(),
                    tx.plan.dests.first(),
                    tx.plan.blobs.first(),
                ) {
                    ctx.trace_with(TraceKind::Migration, || {
                        format!(
                            "pollpoint: {} h{} -> h{} ({} eager + {} lazy bytes)",
                            app.app_name(),
                            from.0,
                            to.0,
                            blob.eager.len(),
                            blob.lazy_bytes
                        )
                    });
                    self.hooks.0.borrow_mut().migrations.push(MigrationRecord {
                        pid_old: me,
                        pid_new: *child,
                        from,
                        to: *to,
                        app: app.app_name(),
                        pollpoint_at: now,
                        spawned_at: now,
                        eager_sent_at: now, // updated when the send completes
                        committed_at: None,
                        resumed_at: None,
                        lazy_done_at: None,
                        eager_bytes: blob.eager.len() as u64 + 8, // framed size
                        lazy_bytes: blob.lazy_bytes,
                        outcome: MigrationOutcome::InFlight,
                        abort_reason: None,
                    });
                }
            }
            Some((resize, _)) => {
                ctx.trace_with(TraceKind::Migration, || {
                    format!(
                        "pollpoint: {} {} k={} -> k'={} ({} members, {} joiners)",
                        tx.kind.verb(),
                        app.app_name(),
                        tx.plan.from_ranks,
                        tx.plan.to_ranks,
                        tx.plan.members.len(),
                        tx.children.len()
                    )
                });
                self.hooks.0.borrow_mut().resizes.push(ResizeRecord {
                    app: app.app_name(),
                    coordinator: me,
                    kind: resize,
                    from_ranks: tx.plan.from_ranks,
                    to_ranks: tx.plan.to_ranks,
                    started_at: now,
                    committed_at: None,
                    moved_bytes: 0,
                    outcome: MigrationOutcome::InFlight,
                    abort_reason: None,
                });
            }
        }
        self.cfg.obs.inc(tx.counters()[STARTED]);
        self.deadline = ctx.alarm(self.cfg.prepare_timeout);
        self.mode = Mode::SourcePrepare { app, tx };
        // A shrink with all members already frozen cannot happen (FROZEN
        // replies take at least one hop), so no immediate-commit check.
    }

    /// Take the open, not yet committed transaction out of the mode
    /// (leaving `Done` for the caller to overwrite), with the number of
    /// transfer sends still in flight.
    fn take_tx(&mut self) -> Option<(A, Tx, u32)> {
        match std::mem::replace(&mut self.mode, Mode::Done) {
            Mode::SourcePrepare { app, tx } => Some((app, tx, 0)),
            Mode::SourceTransfer {
                app,
                tx,
                sends_left,
            } => Some((app, tx, sends_left)),
            other => {
                self.mode = other;
                None
            }
        }
    }

    /// Prepare done — every member is frozen and every child initialized:
    /// transfer each child's framed checkpoint, with the commit deadline
    /// running.
    fn transfer(&mut self, ctx: &mut Ctx<'_>) {
        // Shrink has nothing to transfer: world data is already
        // block-cyclic in the registered arrays — commit directly.
        if matches!(&self.mode, Mode::SourcePrepare { tx, .. } if tx.children.is_empty()) {
            return self.commit(ctx);
        }
        let Some((app, mut tx, _)) = self.take_tx() else {
            return;
        };
        let (me, now, obs) = (ctx.pid(), ctx.now(), &self.cfg.obs);
        match tx.plan.resize {
            None => {
                if let Some((t0, from, to)) =
                    self.with_record(me, true, |m| (m.pollpoint_at, m.from, m.to))
                {
                    obs.observe("migration_prepare_s", now.since(t0).as_secs_f64());
                    obs.record(now, || ObsEvent::MigrationPrepared {
                        pid: me.0,
                        from: format!("h{}", from.0),
                        to: format!("h{}", to.0),
                    });
                }
            }
            // A resize with children is an expand.
            Some(_) => {
                obs.record(now, || ObsEvent::ExpandPrepared {
                    app: app.app_name(),
                    from_ranks: tx.plan.from_ranks,
                    to_ranks: tx.plan.to_ranks,
                });
                ctx.trace_with(TraceKind::Migration, || {
                    format!(
                        "expand transfer: {} join checkpoints out",
                        tx.children.len()
                    )
                });
            }
        }
        for (child, blob) in tx.children.iter().zip(&mut tx.plan.blobs) {
            // The checkpoint itself travels, sealed in place; only
            // `lazy_bytes` is needed later.
            let mut eager = std::mem::take(&mut blob.eager);
            seal_state(&mut eager);
            ctx.send(*child, TAG_HPCM_EAGER, Payload::Bytes(eager));
        }
        self.deadline = ctx.alarm(self.cfg.commit_timeout);
        let sends_left = tx.children.len() as u32;
        self.mode = Mode::SourceTransfer {
            app,
            tx,
            sends_left,
        };
    }

    /// Commit phase: every child restored (or there are none). Resize the
    /// world if this is a resize, then tell everyone, in one order for every
    /// kind: verdicts to members (RESUME to survivors, RETIRE to shrunk-away
    /// ranks), COMMIT_ACK to children (the ack unblocks the destination), the
    /// small application messages held meanwhile, the bulk LAZY streams last.
    /// The one fork left is who owns the application afterwards: a migration's
    /// heir (hand over, wind down) or still this shell (resume, resized).
    fn commit(&mut self, ctx: &mut Ctx<'_>) {
        let Some((app, tx, _)) = self.take_tx() else {
            return;
        };
        let (me, now) = (ctx.pid(), ctx.now());
        let resized = match tx.resize_world(self.mpi.as_ref()) {
            Ok(r) => r,
            Err(why) => {
                self.mode = Mode::SourcePrepare { app, tx };
                return self.rollback(ctx, &why);
            }
        };
        // Ops are serial, so every send below completes (and is counted
        // off `sends`) before any op a resumed application queues.
        let mut sends: u32 = 0;
        for (rank, pid) in &tx.plan.members {
            if *rank < tx.plan.to_ranks {
                ctx.send(*pid, TAG_HPCM_RESUME, Payload::Bytes(vec![1]));
            } else {
                ctx.send(*pid, TAG_HPCM_RETIRE, Payload::Empty);
            }
            sends += 1;
        }
        for child in &tx.children {
            ctx.send(*child, TAG_HPCM_COMMIT_ACK, Payload::Empty);
            sends += 1;
        }

        let obs = &self.cfg.obs;
        obs.inc(tx.counters()[COMMITTED]);
        match &resized {
            Some((resize, outcome, _)) => {
                let moved_bytes = outcome.moved_bytes;
                self.with_resize(me, |r| {
                    r.outcome = MigrationOutcome::Committed;
                    r.committed_at = Some(now);
                    r.moved_bytes = moved_bytes;
                });
                obs.observe("redistribution_bytes", moved_bytes as f64);
                let (from_ranks, to_ranks) = (tx.plan.from_ranks, tx.plan.to_ranks);
                obs.record(now, || match resize {
                    ResizeKind::Expand => ObsEvent::ExpandCommitted {
                        app: app.app_name(),
                        from_ranks,
                        to_ranks,
                        moved_bytes,
                    },
                    ResizeKind::Shrink => ObsEvent::ShrinkCommitted {
                        app: app.app_name(),
                        from_ranks,
                        to_ranks,
                        moved_bytes,
                    },
                });
                ctx.trace_with(TraceKind::Migration, || {
                    format!(
                        "commit: {} {} to {to_ranks} ranks (epoch {}, {moved_bytes} bytes redistributed)",
                        tx.kind.verb(),
                        app.app_name(),
                        outcome.epoch,
                    )
                });
            }
            None => {
                let sent = self.with_record(me, true, |m| {
                    m.outcome = MigrationOutcome::Committed;
                    m.committed_at = Some(now);
                    (m.eager_sent_at, m.eager_bytes)
                });
                if let Some((sent_at, eager_bytes)) = sent {
                    obs.observe("migration_transfer_s", now.since(sent_at).as_secs_f64());
                    obs.record(now, || ObsEvent::MigrationTransferred {
                        pid: me.0,
                        eager_bytes,
                    });
                }
            }
        }

        match tx.heir() {
            // Communication-state transfer: in-flight messages re-route via
            // the kernel forwarding entry; held + queued messages re-send;
            // the modeled bulk remainder of the checkpoint streams behind.
            Some(heir) => {
                ctx.set_forwarding(me, heir);
                for env in self.held.drain(..).chain(ctx.drain_mailbox()) {
                    if is_protocol_tag(env.tag) {
                        continue; // e.g. a duplicated COMMIT — consumed, not forwarded
                    }
                    ctx.forward_envelope(env, heir);
                    sends += 1;
                }
                let lazy_bytes = tx.plan.blobs.first().map_or(0, |b| b.lazy_bytes);
                if lazy_bytes > 0 {
                    ctx.send_sized(heir, TAG_HPCM_LAZY, Payload::Empty, lazy_bytes);
                    sends += 1;
                }
                ctx.trace_with(TraceKind::Migration, || {
                    format!("commit: handover to {heir:?}, streaming {lazy_bytes} lazy bytes")
                });
                self.mode = Mode::SourceCommitting { sends_left: sends };
            }
            // The coordinator keeps its identity: messages held during the
            // transaction go back into our own mailbox.
            None => {
                for env in self.held.drain(..) {
                    ctx.requeue_envelope(env);
                }
                if let (Some((_, outcome, new_members)), Some(mpi)) = (&resized, &self.mpi) {
                    // Model the redistribution traffic: each new rank's inbound
                    // bytes stream to it as one sized protocol message (star
                    // topology through the coordinator — an approximation of
                    // the pairwise exchange; total wire bytes match the layout
                    // change exactly).
                    for (bytes, task) in outcome.incoming_bytes.iter().zip(new_members) {
                        match mpi.pid_of(*task) {
                            Ok(pid) if pid != me && *bytes > 0 => {
                                ctx.send_sized(pid, TAG_HPCM_LAZY, Payload::Empty, *bytes);
                                sends += 1;
                            }
                            _ => {}
                        }
                    }
                }
                self.sync_to_resized_world(me, &app);
                self.protocol_sends_in_flight += sends;
                self.resume(ctx, app);
            }
        }
    }

    /// Rollback: kill the half-restored children, tell the members to
    /// resume in the old world, return held messages to our own mailbox,
    /// and resume the application from the poll-point it was captured at.
    pub(super) fn rollback(&mut self, ctx: &mut Ctx<'_>, why: &str) {
        let Some((app, tx, sends_left)) = self.take_tx() else {
            return;
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
        for (_, pid) in &tx.plan.members {
            ctx.send(*pid, TAG_HPCM_RESUME, Payload::Bytes(vec![0]));
        }
        self.protocol_sends_in_flight += tx.plan.members.len() as u32;
        for env in self.held.drain(..) {
            ctx.requeue_envelope(env);
        }
        let (me, now, host) = (ctx.pid(), ctx.now(), ctx.host_id().0);
        self.cfg.obs.inc(tx.counters()[ABORTED]);
        match tx.plan.resize {
            None => {
                self.with_record(me, true, |m| {
                    m.outcome = MigrationOutcome::Aborted;
                    m.abort_reason = Some(why.to_string());
                });
                self.cfg.obs.record(now, || ObsEvent::MigrationAborted {
                    pid: me.0,
                    reason: why.to_string(),
                });
                ctx.trace_with(TraceKind::Recovery, || {
                    format!("migration aborted ({why}); rolled back to poll-point on h{host}")
                });
            }
            Some((resize, _)) => {
                self.with_resize(me, |r| {
                    r.outcome = MigrationOutcome::Aborted;
                    r.abort_reason = Some(why.to_string());
                });
                if resize == ResizeKind::Expand {
                    self.cfg.obs.record(now, || ObsEvent::ExpandAborted {
                        app: app.app_name(),
                        reason: why.to_string(),
                    });
                }
                ctx.trace_with(TraceKind::Recovery, || {
                    format!(
                        "{} aborted ({why}); rolled back to poll-point on h{host}",
                        tx.kind.verb()
                    )
                });
            }
        }
        self.resume(ctx, app);
    }

    /// A wake while this shell coordinates a transaction.
    pub(super) fn wake_coordinator(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match &mut self.mode {
            Mode::SourcePrepare { tx, .. } => {
                match wake {
                    Wake::Received(env) if env.tag == TAG_HPCM_READY && tx.is_child(env.from) => {
                        tx.ready += 1;
                    }
                    Wake::Received(env) if env.tag == TAG_HPCM_FROZEN && tx.is_member(env.from) => {
                        let key = env
                            .payload
                            .as_bytes()
                            .and_then(|b| <[u8; 8]>::try_from(b).ok())
                            .map(u64::from_le_bytes)
                            .unwrap_or(u64::MAX);
                        if key != tx.sync_key {
                            self.rollback(
                                ctx,
                                "members froze at different phases (sync key mismatch)",
                            );
                        } else {
                            tx.frozen += 1;
                        }
                    }
                    // Completions of the FREEZE broadcast.
                    Wake::OpDone if tx.proto_sends > 0 => tx.proto_sends -= 1,
                    Wake::Received(env) if !is_protocol_tag(env.tag) => self.held.push(env),
                    Wake::Alarm(t) if t == self.deadline => {
                        let why = if tx.plan.resize.is_some() {
                            format!(
                                "world never froze (prepare timeout: {}/{} frozen, {}/{} ready)",
                                tx.frozen,
                                tx.plan.members.len(),
                                tx.ready,
                                tx.children.len()
                            )
                        } else {
                            "destination never initialized (prepare timeout)".to_string()
                        };
                        self.rollback(ctx, &why);
                    }
                    _ => {}
                }
                // Prepare done once every member froze and every child is READY.
                if matches!(&self.mode, Mode::SourcePrepare { tx, .. } if tx.prepared()) {
                    self.transfer(ctx);
                }
            }
            Mode::SourceTransfer { tx, sends_left, .. } => {
                match wake {
                    Wake::OpDone if tx.proto_sends > 0 => tx.proto_sends -= 1,
                    Wake::OpDone if *sends_left > 0 => {
                        *sends_left -= 1;
                        // Only a migration's own (single) transfer send
                        // stamps its record: a resize has none, and this
                        // pid may own an older, aborted one.
                        if tx.heir().is_some() {
                            let now = ctx.now();
                            self.with_record(ctx.pid(), true, |m| m.eager_sent_at = now);
                        }
                    }
                    // For a migration this cannot happen before our send op
                    // completes (the eager state has not left yet); for an
                    // expand, an earlier child may restore while we are
                    // still sending to a later one — count it.
                    Wake::Received(env) if env.tag == TAG_HPCM_COMMIT && tx.is_child(env.from) => {
                        tx.commits += 1;
                    }
                    Wake::Received(env) if !is_protocol_tag(env.tag) => self.held.push(env),
                    Wake::Alarm(t) if t == self.deadline => {
                        let why = if tx.plan.resize.is_some() {
                            "joiners never restored (commit timeout)"
                        } else {
                            "destination never restored (commit timeout)"
                        };
                        self.rollback(ctx, why);
                    }
                    _ => {}
                }
                // Commit once the checkpoints are out and every child has
                // restored from its own.
                if matches!(&self.mode, Mode::SourceTransfer { tx, sends_left: 0, .. }
                    if tx.commits == tx.children.len())
                {
                    self.commit(ctx);
                }
            }
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
            _ => {}
        }
    }
}
