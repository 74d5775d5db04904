//! The restoring side: the initialized process a coordinator created on a
//! destination host (a migration's destination, or an expand's joiner). It
//! reports READY, restores from the framed checkpoint, asks for the commit
//! and takes over only once COMMIT_ACK grants it; if the coordinator goes
//! quiet at any point it aborts itself.

use super::{HpcmShell, Mode};
use crate::codec::unframe_state;
use crate::state::{
    MigratableApp, MigrationOutcome, TAG_HPCM_COMMIT, TAG_HPCM_COMMIT_ACK, TAG_HPCM_EAGER,
    TAG_HPCM_READY,
};
use ars_obs::ObsEvent;
use ars_sim::{Ctx, Payload, Pid, RecvFilter, TraceKind, Wake};
use ars_simcore::SimDuration;

impl<A: MigratableApp> HpcmShell<A> {
    /// The restoring (destination/joiner) side of a transaction this
    /// shell coordinates, sharing its configuration, world and log.
    pub(super) fn restoring(&self, source: Pid, join: bool) -> Self {
        let mode = Mode::Restoring {
            waited_init: false,
            source,
            join,
        };
        Self::new(mode, self.cfg.clone(), self.mpi.clone(), self.hooks.clone())
    }

    /// Abort, destination side: the source went quiet (crashed, or rolled
    /// back and our messages to it were lost). Record the cause if nobody
    /// else settled the transaction, then disappear.
    fn abort_destination(&mut self, ctx: &mut Ctx<'_>, why: &str) {
        let me = ctx.pid();
        let newly_aborted = self.with_record(me, false, |m| {
            let in_flight = m.outcome == MigrationOutcome::InFlight;
            if in_flight {
                m.outcome = MigrationOutcome::Aborted;
                m.abort_reason = Some(why.to_string());
            }
            in_flight
        });
        if newly_aborted == Some(true) {
            self.cfg.obs.inc("migrations_aborted");
            self.cfg
                .obs
                .record(ctx.now(), || ObsEvent::MigrationAborted {
                    pid: me.0,
                    reason: why.to_string(),
                });
        }
        ctx.trace_with(TraceKind::Recovery, || {
            format!("destination shell aborting ({why})")
        });
        self.mode = Mode::Done;
        // `kill`, not `exit`: we may be blocked on a receive, and a queued
        // Exit op would never start.
        ctx.kill(me);
    }

    /// Commit granted: take over as the application's process and resume.
    fn resume_restored(&mut self, ctx: &mut Ctx<'_>, app: A, source: Pid, join: bool) {
        let me = ctx.pid();
        if join {
            // Expand: the coordinator already resized the world with our
            // task as a new rank — sync to the new epoch and start working.
            self.sync_to_resized_world(me, &app);
            ctx.trace(TraceKind::Migration, "joiner resumed execution");
        } else {
            // Migration: communication-state transfer — the task identity
            // now points at this process.
            if let Some(mpi) = &self.mpi {
                if let Some(task) = mpi.task_of(source) {
                    let _ = mpi.rebind(task, me);
                }
            }
            let (now, obs) = (ctx.now(), &self.cfg.obs);
            if let Some((old, t0, tc)) = self.with_record(me, false, |m| {
                m.resumed_at = Some(now);
                (m.pid_old, m.pollpoint_at, m.committed_at)
            }) {
                if let Some(tc) = tc {
                    obs.observe("migration_commit_s", now.since(tc).as_secs_f64());
                }
                obs.observe("migration_total_s", now.since(t0).as_secs_f64());
                obs.record(now, || ObsEvent::MigrationCommitted {
                    pid_old: old.0,
                    pid_new: me.0,
                });
            }
            ctx.trace(TraceKind::Migration, "destination resumed execution");
        }
        self.resume(ctx, app);
    }

    /// A wake on the restoring side.
    pub(super) fn wake_restorer(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match (&mut self.mode, wake) {
            (
                Mode::Restoring {
                    waited_init,
                    source,
                    ..
                },
                Wake::Started,
            ) => {
                self.deadline = ctx.alarm(self.cfg.restore_wait_timeout);
                if self.cfg.pre_initialized || self.cfg.dpm_init_cost.is_zero() {
                    *waited_init = true;
                    ctx.send(*source, TAG_HPCM_READY, Payload::Empty);
                    ctx.recv(RecvFilter::tag(TAG_HPCM_EAGER));
                } else {
                    ctx.sleep(self.cfg.dpm_init_cost);
                }
            }
            (
                Mode::Restoring {
                    waited_init: waited_init @ false,
                    source,
                    ..
                },
                Wake::OpDone,
            ) => {
                *waited_init = true;
                ctx.send(*source, TAG_HPCM_READY, Payload::Empty);
                ctx.recv(RecvFilter::tag(TAG_HPCM_EAGER));
            }
            (Mode::Restoring { source, join, .. }, Wake::Received(env))
                if env.tag == TAG_HPCM_EAGER =>
            {
                let (source, join) = (*source, *join);
                let framed = env.payload.as_bytes().unwrap_or_default();
                match unframe_state(framed).and_then(|bytes| A::restore(bytes, self.mpi.as_ref())) {
                    Ok(app) => {
                        let restore_work = self.cfg.restore_fixed
                            + SimDuration::from_secs_f64(
                                framed.len() as f64 / self.cfg.restore_rate,
                            );
                        ctx.trace_with(TraceKind::Migration, || {
                            format!("restoring {} ({} bytes)", app.app_name(), framed.len())
                        });
                        // Restoration burns CPU on the destination.
                        ctx.compute(restore_work.as_secs_f64());
                        self.mode = Mode::RestoreCompute { app, source, join };
                    }
                    // Corrupt checkpoint: refuse to resurrect from
                    // garbage. The source's commit deadline will
                    // expire and roll the application back.
                    Err(e) => self.abort_destination(ctx, &format!("checkpoint rejected: {e}")),
                }
            }
            (Mode::Restoring { .. }, Wake::Alarm(t)) if t == self.deadline => {
                self.abort_destination(ctx, "eager state never arrived");
            }
            (Mode::RestoreCompute { .. }, Wake::OpDone) => {
                if let Mode::RestoreCompute { app, source, join } =
                    std::mem::replace(&mut self.mode, Mode::Done)
                {
                    // Request the commit; resume only once it is granted.
                    ctx.send(source, TAG_HPCM_COMMIT, Payload::Empty);
                    self.deadline = ctx.alarm(self.cfg.restore_wait_timeout);
                    self.mode = Mode::AwaitCommitAck { app, source, join };
                }
            }
            (Mode::AwaitCommitAck { .. }, Wake::Received(env))
                if env.tag == TAG_HPCM_COMMIT_ACK =>
            {
                if let Mode::AwaitCommitAck { app, source, join } =
                    std::mem::replace(&mut self.mode, Mode::Done)
                {
                    self.resume_restored(ctx, app, source, join);
                }
            }
            (Mode::AwaitCommitAck { .. }, Wake::Alarm(t)) if t == self.deadline => {
                self.abort_destination(ctx, "commit never acknowledged");
            }
            _ => {}
        }
    }
}
