//! Planning a reconfiguration: from the spec the commander wrote to who
//! takes part — or to a refusal. Nothing here has a side effect; the
//! transaction only opens in [`begin`](HpcmShell::begin).
//!
//! | kind    | `dests` (children) | `blobs`                | `members` | heir          |
//! |---------|--------------------|------------------------|-----------|---------------|
//! | migrate | 1                  | `save()`               | none      | `children[0]` |
//! | expand  | k'−k               | `save_for_join(r, k')` | k−1       | none          |
//! | shrink  | 0                  | none                   | k−1       | none          |
//!
//! Every checkpoint is cut here, at the poll-point — the application is
//! not stepped while a transaction is open — so a request the application
//! cannot serve is refused before anything was spawned, frozen or recorded.

use super::{HpcmShell, Mode};
use crate::reconfig::Reconfiguration;
use crate::state::{dest_file_path, MigratableApp, ResizeKind, SavedState};
use ars_mpisim::{CommId, Mpi, Rank};
use ars_sim::{Ctx, HostId, Pid, TraceKind};

/// Who takes part in a reconfiguration (see the module table).
#[derive(Default)]
pub(super) struct Plan {
    /// Hosts of the restoring children to spawn.
    pub(super) dests: Vec<HostId>,
    /// One checkpoint per child, cut at the poll-point.
    pub(super) blobs: Vec<SavedState>,
    /// `(rank, pid)` of every other member shell to freeze (resize only).
    pub(super) members: Vec<(u32, Pid)>,
    /// The record kind and communicator of a resize; `None` for a migration.
    pub(super) resize: Option<(ResizeKind, CommId)>,
    /// World size when the transaction begins.
    pub(super) from_ranks: u32,
    /// World size it commits to.
    pub(super) to_ranks: u32,
}

impl<A: MigratableApp> HpcmShell<A> {
    /// A reconfiguration signal arrived at a poll-point: read the spec the
    /// commander wrote, plan the transaction and open it — or refuse,
    /// leaving nothing behind but the trace line.
    pub(super) fn on_signal(&mut self, ctx: &mut Ctx<'_>) {
        let Mode::Running { app } = &self.mode else {
            return;
        };
        let planned = match ctx.read_file(&dest_file_path(ctx.pid())) {
            // No destination written: spurious signal; keep running.
            None => Err("signal without destination file".to_string()),
            Some(spec) => match Reconfiguration::parse(&spec) {
                None => Err(format!("unparseable reconfiguration {spec:?}")),
                Some(req) => match self.plan(ctx, app, &req) {
                    Ok(plan) => Ok((req, plan)),
                    Err(why) if req.is_resize() => Err(format!("{} refused: {why}", req.verb())),
                    Err(why) => Err(why),
                },
            },
        };
        match planned {
            Ok((req, plan)) => self.begin(ctx, req, plan),
            Err(why) => ctx.trace(TraceKind::Migration, why),
        }
    }

    /// Validate a request against the application and the world as they
    /// stand at this poll-point and work out who takes part. Pure: an `Err`
    /// is a refusal, and nothing has happened yet.
    fn plan(&self, ctx: &Ctx<'_>, app: &A, req: &Reconfiguration) -> Result<Plan, String> {
        let host_id = |name: &String| {
            ctx.host_id_by_name(name)
                .ok_or_else(|| format!("unknown destination {name:?}"))
        };
        // A resize needs a resizable world this shell is a member of:
        // `(mpi, comm, k, my_rank)`.
        let world = || {
            let mpi = self.mpi.as_ref().ok_or("no MPI world")?;
            let comm = app.resize_comm().ok_or("application is fixed-size")?;
            let k = mpi.comm_size(comm).map_err(|e| format!("{e}"))?;
            let my_rank = mpi
                .task_of(ctx.pid())
                .and_then(|t| mpi.rank_of(comm, t).ok())
                .ok_or("coordinator is not a member")?;
            Ok::<_, String>((mpi, comm, k, my_rank.0))
        };
        // Every other member must resolve to a live pid.
        let others = |mpi: &Mpi, comm: CommId, k: u32, my_rank: u32| {
            (0..k)
                .filter(|r| *r != my_rank)
                .map(|r| match mpi.pid_at(comm, Rank(r)) {
                    Ok(p) => Ok((r, p)),
                    Err(e) => Err(format!("rank {r} unresolvable: {e}")),
                })
                .collect::<Result<Vec<_>, _>>()
        };
        match req {
            Reconfiguration::MigrateTo { host } => Ok(Plan {
                dests: vec![host_id(host)?],
                // Capture execution + memory state at the poll-point.
                blobs: vec![app.save()],
                ..Plan::default()
            }),
            Reconfiguration::ExpandTo { new_size, hosts } => {
                let (mpi, comm, k, my_rank) = world()?;
                if *new_size <= k || hosts.len() != (*new_size - k) as usize {
                    return Err(format!(
                        "bad target k'={new_size} (k={k}, {} hosts)",
                        hosts.len()
                    ));
                }
                // One per-rank join checkpoint for each of ranks k..k'.
                let blobs = (k..*new_size)
                    .map(|r| app.save_for_join(r, *new_size))
                    .collect::<Option<Vec<_>>>()
                    .ok_or("application does not support joining")?;
                Ok(Plan {
                    dests: hosts.iter().map(host_id).collect::<Result<_, _>>()?,
                    blobs,
                    members: others(mpi, comm, k, my_rank)?,
                    resize: Some((ResizeKind::Expand, comm)),
                    from_ranks: k,
                    to_ranks: *new_size,
                })
            }
            Reconfiguration::ShrinkTo { new_size } => {
                let (mpi, comm, k, my_rank) = world()?;
                if *new_size == 0 || *new_size >= k {
                    return Err(format!("bad target k'={new_size} (k={k})"));
                }
                if my_rank >= *new_size {
                    return Err("coordinator rank would retire".into());
                }
                Ok(Plan {
                    members: others(mpi, comm, k, my_rank)?,
                    resize: Some((ResizeKind::Shrink, comm)),
                    from_ranks: k,
                    to_ranks: *new_size,
                    ..Plan::default()
                })
            }
        }
    }
}
