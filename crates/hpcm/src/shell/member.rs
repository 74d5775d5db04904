//! The member side of a resize: a rank some other shell is coordinating.
//! It freezes at its own next safe poll-point, waits for the coordinator's
//! verdict, and thaws into the resized (or the untouched old) world — or
//! retires if its rank was shrunk away.

use super::{is_protocol_tag, HpcmShell, Mode};
use crate::state::{MigratableApp, TAG_HPCM_FROZEN, TAG_HPCM_RESUME, TAG_HPCM_RETIRE};
use ars_sim::{Ctx, Payload, TraceKind, Wake};

impl<A: MigratableApp> HpcmShell<A> {
    /// Honor a pending freeze request at a safe poll-point — clear our
    /// ops, report FROZEN with our sync key, and wait for the coordinator's
    /// verdict (bounded by a backstop alarm).
    pub(super) fn enter_frozen(&mut self, ctx: &mut Ctx<'_>) {
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

    /// Leave the frozen state. On commit, sync to the resized epoch; either
    /// way, re-queue held messages and replay from the poll-point.
    fn thaw(&mut self, ctx: &mut Ctx<'_>, commit: bool, why: &str) {
        let Mode::Frozen { app, .. } = std::mem::replace(&mut self.mode, Mode::Done) else {
            return;
        };
        if commit {
            self.sync_to_resized_world(ctx.pid(), &app);
        }
        for env in self.held.drain(..) {
            ctx.requeue_envelope(env);
        }
        ctx.trace_with(TraceKind::Migration, || {
            format!("thawed ({why}); resuming from poll-point")
        });
        self.resume(ctx, app);
    }

    /// This rank was shrunk away. Its block-cyclic data already lives in
    /// the survivors (the world-side redistribution ran at commit), so just
    /// disappear.
    fn retire(&mut self, ctx: &mut Ctx<'_>) {
        ctx.trace(TraceKind::Migration, "rank retired by shrink; exiting");
        self.mode = Mode::Done;
        let me = ctx.pid();
        ctx.kill(me);
    }

    /// A wake while frozen for someone else's resize.
    pub(super) fn wake_frozen(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        let Mode::Frozen {
            app,
            coordinator,
            epoch0,
        } = &self.mode
        else {
            return;
        };
        match wake {
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
                let (epoch_now, still_member) = match (self.mpi.as_ref(), app.resize_comm()) {
                    (Some(mpi), Some(comm)) => {
                        let e = mpi.epoch(comm).ok().unwrap_or(epoch0);
                        let member = mpi
                            .task_of(ctx.pid())
                            .and_then(|t| mpi.rank_of(comm, t).ok())
                            .is_some();
                        (e, member)
                    }
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
        }
    }
}
