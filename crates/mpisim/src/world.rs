//! Communicator and process-identity bookkeeping.
//!
//! MPI identity is logical: a process is a [`TaskId`] that keeps its ranks
//! in every communicator across migrations; only the `TaskId → Pid` binding
//! changes when HPCM moves it. This is the "communication state transfer"
//! half of the paper's migration: re-binding the task and installing kernel
//! forwarding for in-flight messages lets every other rank keep
//! communicating without noticing the move.
//!
//! The world is shared by all programs of one simulation through the
//! cheaply-clonable [`Mpi`] handle (the simulator is single-threaded, so a
//! plain `Rc<RefCell<…>>` suffices).

use crate::redist;
use ars_sim::Pid;
use ars_simcore::SimDuration;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Logical (migration-stable) process identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// Communicator identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommId(pub u32);

/// Rank of a task within a communicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub u32);

/// A communicator: an ordered group of tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct Communicator {
    /// Identifier.
    pub id: CommId,
    /// Members in rank order.
    pub members: Vec<TaskId>,
    /// Membership epoch: bumped by every [`Mpi::resize`]. Operations
    /// issued against an older epoch are rejected loudly
    /// ([`MpiError::StaleEpoch`]) until the task re-syncs.
    pub epoch: u32,
}

impl Communicator {
    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.members.len() as u32
    }

    /// Rank of a task, if a member.
    pub fn rank_of(&self, task: TaskId) -> Option<Rank> {
        self.members
            .iter()
            .position(|&t| t == task)
            .map(|i| Rank(i as u32))
    }

    /// Task at a rank.
    pub fn task_at(&self, rank: Rank) -> Option<TaskId> {
        self.members.get(rank.0 as usize).copied()
    }
}

/// Errors from the MPI layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Unknown communicator.
    NoSuchComm(CommId),
    /// Task is not a member of the communicator.
    NotAMember(TaskId, CommId),
    /// Rank out of range for the communicator.
    BadRank(Rank, CommId),
    /// Task has no live pid binding.
    Unbound(TaskId),
    /// Port name not published.
    NoSuchPort(String),
    /// The communicator was resized and this task has not re-synced: the
    /// op was issued against a stale world and must not proceed.
    StaleEpoch {
        /// The resized communicator.
        comm: CommId,
        /// Epoch the task last synced to.
        seen: u32,
        /// The communicator's current epoch.
        current: u32,
    },
    /// No registered array with that name on the communicator.
    NoSuchArray(CommId, String),
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::NoSuchComm(c) => write!(f, "no communicator {c:?}"),
            MpiError::NotAMember(t, c) => write!(f, "{t:?} not in {c:?}"),
            MpiError::BadRank(r, c) => write!(f, "rank {r:?} out of range in {c:?}"),
            MpiError::Unbound(t) => write!(f, "{t:?} has no pid binding"),
            MpiError::NoSuchPort(p) => write!(f, "port {p:?} not published"),
            MpiError::StaleEpoch {
                comm,
                seen,
                current,
            } => write!(
                f,
                "stale epoch {seen} (now {current}) in {comm:?}: re-sync before communicating"
            ),
            MpiError::NoSuchArray(c, n) => write!(f, "no array {n:?} registered on {c:?}"),
        }
    }
}

impl std::error::Error for MpiError {}

/// An array registered for block-cyclic redistribution across resizes.
#[derive(Debug, Clone, PartialEq)]
struct RegisteredArray {
    name: String,
    block: usize,
    parts: Vec<Vec<f64>>,
}

/// Outcome of a committed [`Mpi::resize`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResizeOutcome {
    /// The communicator's new epoch.
    pub epoch: u32,
    /// Total bytes of registered-array data that changed owner.
    pub moved_bytes: u64,
    /// Per-new-rank inbound redistribution bytes (for charging the
    /// transfer to the network model).
    pub incoming_bytes: Vec<u64>,
}

/// Shared MPI state (see module docs).
#[derive(Debug, Default)]
pub struct MpiWorld {
    comms: HashMap<CommId, Communicator>,
    routes: HashMap<TaskId, Pid>,
    reverse: HashMap<Pid, TaskId>,
    ports: HashMap<String, TaskId>,
    /// Last epoch each task synced to, per resized communicator. Absent
    /// entries mean epoch 0, so fixed-size worlds never touch this map.
    synced: HashMap<(CommId, TaskId), u32>,
    /// Registered arrays, keyed by communicator.
    arrays: HashMap<CommId, Vec<RegisteredArray>>,
    next_comm: u32,
    next_task: u64,
    /// Cost of a LAM/MPI dynamic-process-management initialization (the
    /// paper measures ~0.3 s and blames LAM's slow DPM operations).
    pub dpm_init_cost: SimDuration,
}

/// Cheap handle to the shared MPI world.
#[derive(Clone, Default)]
pub struct Mpi(Rc<RefCell<MpiWorld>>);

impl Mpi {
    /// Fresh world with the default LAM-like DPM cost.
    pub fn new() -> Self {
        let w = MpiWorld {
            dpm_init_cost: SimDuration::from_millis(300),
            ..MpiWorld::default()
        };
        Mpi(Rc::new(RefCell::new(w)))
    }

    /// The dynamic-process-management initialization cost.
    pub fn dpm_init_cost(&self) -> SimDuration {
        self.0.borrow().dpm_init_cost
    }

    /// Bind a fresh task identity to a pid (process start / `MPI_Init`).
    pub fn bind_new_task(&self, pid: Pid) -> TaskId {
        let mut w = self.0.borrow_mut();
        let task = TaskId(w.next_task);
        w.next_task += 1;
        w.routes.insert(task, pid);
        w.reverse.insert(pid, task);
        task
    }

    /// Re-bind a task to its post-migration pid; returns the previous pid.
    pub fn rebind(&self, task: TaskId, new_pid: Pid) -> Result<Pid, MpiError> {
        let mut w = self.0.borrow_mut();
        let old = w
            .routes
            .insert(task, new_pid)
            .ok_or(MpiError::Unbound(task))?;
        w.reverse.remove(&old);
        w.reverse.insert(new_pid, task);
        Ok(old)
    }

    /// Current pid of a task.
    pub fn pid_of(&self, task: TaskId) -> Result<Pid, MpiError> {
        self.0
            .borrow()
            .routes
            .get(&task)
            .copied()
            .ok_or(MpiError::Unbound(task))
    }

    /// Task bound to a pid, if any.
    pub fn task_of(&self, pid: Pid) -> Option<TaskId> {
        self.0.borrow().reverse.get(&pid).copied()
    }

    /// Create a communicator over `members` (rank order = vector order).
    pub fn create_comm(&self, members: Vec<TaskId>) -> CommId {
        let mut w = self.0.borrow_mut();
        let id = CommId(w.next_comm);
        w.next_comm += 1;
        w.comms.insert(
            id,
            Communicator {
                id,
                members,
                epoch: 0,
            },
        );
        id
    }

    /// Clone of a communicator's current membership.
    pub fn comm(&self, id: CommId) -> Result<Communicator, MpiError> {
        self.0
            .borrow()
            .comms
            .get(&id)
            .cloned()
            .ok_or(MpiError::NoSuchComm(id))
    }

    /// Size of a communicator.
    pub fn comm_size(&self, id: CommId) -> Result<u32, MpiError> {
        Ok(self.comm(id)?.size())
    }

    /// Rank of `task` in `comm`.
    pub fn rank_of(&self, comm: CommId, task: TaskId) -> Result<Rank, MpiError> {
        self.comm(comm)?
            .rank_of(task)
            .ok_or(MpiError::NotAMember(task, comm))
    }

    /// Task at `rank` in `comm`.
    pub fn task_at(&self, comm: CommId, rank: Rank) -> Result<TaskId, MpiError> {
        self.comm(comm)?
            .task_at(rank)
            .ok_or(MpiError::BadRank(rank, comm))
    }

    /// Pid currently bound to `rank` in `comm`.
    pub fn pid_at(&self, comm: CommId, rank: Rank) -> Result<Pid, MpiError> {
        self.pid_of(self.task_at(comm, rank)?)
    }

    /// Intercommunicator merge (`MPI_Intercomm_merge`): a new communicator
    /// whose ranks are `a`'s members followed by `b`'s members not in `a`.
    pub fn merge(&self, a: CommId, b: CommId) -> Result<CommId, MpiError> {
        let ca = self.comm(a)?;
        let cb = self.comm(b)?;
        let mut members = ca.members;
        for t in cb.members {
            if !members.contains(&t) {
                members.push(t);
            }
        }
        Ok(self.create_comm(members))
    }

    /// Grow a communicator in place by appending a task (used when a
    /// dynamically spawned process joins its parent's communicator).
    pub fn join(&self, comm: CommId, task: TaskId) -> Result<Rank, MpiError> {
        let mut w = self.0.borrow_mut();
        let c = w.comms.get_mut(&comm).ok_or(MpiError::NoSuchComm(comm))?;
        if let Some(i) = c.members.iter().position(|&t| t == task) {
            return Ok(Rank(i as u32));
        }
        c.members.push(task);
        Ok(Rank(c.members.len() as u32 - 1))
    }

    /// Replace a member of a communicator (migration keeps the same task,
    /// so this is only for substituting a failed rank with a respawn).
    pub fn replace_member(&self, comm: CommId, old: TaskId, new: TaskId) -> Result<(), MpiError> {
        let mut w = self.0.borrow_mut();
        let c = w.comms.get_mut(&comm).ok_or(MpiError::NoSuchComm(comm))?;
        let slot = c
            .members
            .iter_mut()
            .find(|t| **t == old)
            .ok_or(MpiError::NotAMember(old, comm))?;
        *slot = new;
        Ok(())
    }

    /// Publish a named port (`MPI_Open_port` + `MPI_Publish_name`).
    pub fn open_port(&self, name: impl Into<String>, task: TaskId) {
        self.0.borrow_mut().ports.insert(name.into(), task);
    }

    /// Look up a published port (`MPI_Comm_connect` resolution).
    pub fn lookup_port(&self, name: &str) -> Result<TaskId, MpiError> {
        self.0
            .borrow()
            .ports
            .get(name)
            .copied()
            .ok_or_else(|| MpiError::NoSuchPort(name.to_string()))
    }

    /// Remove a published port (`MPI_Close_port`).
    pub fn close_port(&self, name: &str) -> Option<TaskId> {
        self.0.borrow_mut().ports.remove(name)
    }

    // --- Malleability: epochs, registered arrays, resize ---------------------

    /// Current membership epoch of a communicator.
    pub fn epoch(&self, comm: CommId) -> Result<u32, MpiError> {
        Ok(self.comm(comm)?.epoch)
    }

    /// Check that `task` has synced to `comm`'s current epoch. Every p2p
    /// and collective operation calls this, so in-flight ops from the old
    /// world fail loudly instead of delivering into the wrong layout.
    pub fn check_epoch(&self, comm: CommId, task: TaskId) -> Result<(), MpiError> {
        let w = self.0.borrow();
        let c = w.comms.get(&comm).ok_or(MpiError::NoSuchComm(comm))?;
        let seen = w.synced.get(&(comm, task)).copied().unwrap_or(0);
        if seen != c.epoch {
            return Err(MpiError::StaleEpoch {
                comm,
                seen,
                current: c.epoch,
            });
        }
        Ok(())
    }

    /// Adopt `comm`'s current epoch for `task` (called by the
    /// reconfiguration shell when a member resumes after a committed
    /// resize, and by joiners when they bind).
    pub fn sync_task(&self, comm: CommId, task: TaskId) -> Result<u32, MpiError> {
        let mut w = self.0.borrow_mut();
        let epoch = w.comms.get(&comm).ok_or(MpiError::NoSuchComm(comm))?.epoch;
        w.synced.insert((comm, task), epoch);
        Ok(epoch)
    }

    /// Register a zero-initialized global array of `len` f64 elements for
    /// block-cyclic redistribution across resizes of `comm`. Re-registering
    /// the same name is idempotent (migration restores call it again).
    pub fn register_array(
        &self,
        comm: CommId,
        name: &str,
        len: usize,
        block: usize,
    ) -> Result<(), MpiError> {
        let k = self.comm_size(comm)?;
        let mut w = self.0.borrow_mut();
        let arrays = w.arrays.entry(comm).or_default();
        if arrays.iter().any(|a| a.name == name) {
            return Ok(());
        }
        arrays.push(RegisteredArray {
            name: name.to_string(),
            block,
            parts: (0..k)
                .map(|r| vec![0.0; redist::local_len(len, block, k, r)])
                .collect(),
        });
        Ok(())
    }

    fn with_array<R>(
        &self,
        comm: CommId,
        name: &str,
        f: impl FnOnce(&mut RegisteredArray, u32) -> R,
    ) -> Result<R, MpiError> {
        let k = self.comm_size(comm)?;
        let mut w = self.0.borrow_mut();
        let a = w
            .arrays
            .get_mut(&comm)
            .and_then(|v| v.iter_mut().find(|a| a.name == name))
            .ok_or_else(|| MpiError::NoSuchArray(comm, name.to_string()))?;
        Ok(f(a, k))
    }

    /// Read a registered array element by global index.
    pub fn array_get(&self, comm: CommId, name: &str, g: usize) -> Result<f64, MpiError> {
        self.with_array(comm, name, |a, k| {
            let r = redist::owner(g, a.block, k) as usize;
            a.parts[r][redist::global_to_local(g, a.block, k)]
        })
    }

    /// Write a registered array element by global index.
    pub fn array_set(&self, comm: CommId, name: &str, g: usize, v: f64) -> Result<(), MpiError> {
        self.with_array(comm, name, |a, k| {
            let r = redist::owner(g, a.block, k) as usize;
            a.parts[r][redist::global_to_local(g, a.block, k)] = v;
        })
    }

    /// Total element count of a registered array.
    pub fn array_len(&self, comm: CommId, name: &str) -> Result<usize, MpiError> {
        self.with_array(comm, name, |a, _| a.parts.iter().map(Vec::len).sum())
    }

    /// Reassemble a registered array in global order (verification and
    /// result digests).
    pub fn array_global(&self, comm: CommId, name: &str) -> Result<Vec<f64>, MpiError> {
        self.with_array(comm, name, |a, _| redist::recompose(&a.parts, a.block))
    }

    /// Commit a resize: replace `comm`'s membership, bump the epoch, and
    /// redistribute every registered array block-cyclically onto the new
    /// rank count. Surviving tasks keep their ranks (the member prefix is
    /// preserved by the caller); everyone must [`sync_task`](Self::sync_task)
    /// before communicating again. Rollback needs no inverse — a failed
    /// transaction simply never calls this.
    pub fn resize(
        &self,
        comm: CommId,
        new_members: Vec<TaskId>,
    ) -> Result<ResizeOutcome, MpiError> {
        let new_k = new_members.len() as u32;
        let mut w = self.0.borrow_mut();
        let c = w.comms.get_mut(&comm).ok_or(MpiError::NoSuchComm(comm))?;
        c.members = new_members;
        c.epoch += 1;
        let epoch = c.epoch;
        let mut moved_bytes = 0u64;
        let mut incoming_bytes = vec![0u64; new_k as usize];
        if let Some(arrays) = w.arrays.get_mut(&comm) {
            for a in arrays.iter_mut() {
                let r = redist::redistribute(&a.parts, a.block, new_k);
                a.parts = r.parts;
                moved_bytes += r.moved_bytes;
                for (dst, b) in r.incoming_bytes.iter().enumerate() {
                    incoming_bytes[dst] += b;
                }
            }
        }
        Ok(ResizeOutcome {
            epoch,
            moved_bytes,
            incoming_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_route() {
        let mpi = Mpi::new();
        let t0 = mpi.bind_new_task(Pid(10));
        let t1 = mpi.bind_new_task(Pid(11));
        assert_ne!(t0, t1);
        assert_eq!(mpi.pid_of(t0).unwrap(), Pid(10));
        assert_eq!(mpi.task_of(Pid(11)), Some(t1));
    }

    #[test]
    fn rebind_moves_route() {
        let mpi = Mpi::new();
        let t = mpi.bind_new_task(Pid(10));
        let old = mpi.rebind(t, Pid(99)).unwrap();
        assert_eq!(old, Pid(10));
        assert_eq!(mpi.pid_of(t).unwrap(), Pid(99));
        assert_eq!(mpi.task_of(Pid(10)), None);
        assert_eq!(mpi.task_of(Pid(99)), Some(t));
    }

    #[test]
    fn comm_ranks() {
        let mpi = Mpi::new();
        let a = mpi.bind_new_task(Pid(1));
        let b = mpi.bind_new_task(Pid(2));
        let comm = mpi.create_comm(vec![a, b]);
        assert_eq!(mpi.comm_size(comm).unwrap(), 2);
        assert_eq!(mpi.rank_of(comm, a).unwrap(), Rank(0));
        assert_eq!(mpi.rank_of(comm, b).unwrap(), Rank(1));
        assert_eq!(mpi.task_at(comm, Rank(1)).unwrap(), b);
        assert_eq!(mpi.pid_at(comm, Rank(0)).unwrap(), Pid(1));
        assert!(matches!(
            mpi.task_at(comm, Rank(9)),
            Err(MpiError::BadRank(_, _))
        ));
    }

    #[test]
    fn merge_unions_in_order() {
        let mpi = Mpi::new();
        let a = mpi.bind_new_task(Pid(1));
        let b = mpi.bind_new_task(Pid(2));
        let c = mpi.bind_new_task(Pid(3));
        let ca = mpi.create_comm(vec![a, b]);
        let cb = mpi.create_comm(vec![b, c]);
        let merged = mpi.merge(ca, cb).unwrap();
        let m = mpi.comm(merged).unwrap();
        assert_eq!(m.members, vec![a, b, c]);
    }

    #[test]
    fn join_appends_once() {
        let mpi = Mpi::new();
        let a = mpi.bind_new_task(Pid(1));
        let b = mpi.bind_new_task(Pid(2));
        let comm = mpi.create_comm(vec![a]);
        assert_eq!(mpi.join(comm, b).unwrap(), Rank(1));
        assert_eq!(mpi.join(comm, b).unwrap(), Rank(1)); // idempotent
        assert_eq!(mpi.comm_size(comm).unwrap(), 2);
    }

    #[test]
    fn rebind_preserves_ranks() {
        // The heart of communication-state transfer: ranks never change.
        let mpi = Mpi::new();
        let a = mpi.bind_new_task(Pid(1));
        let b = mpi.bind_new_task(Pid(2));
        let comm = mpi.create_comm(vec![a, b]);
        mpi.rebind(b, Pid(42)).unwrap();
        assert_eq!(mpi.rank_of(comm, b).unwrap(), Rank(1));
        assert_eq!(mpi.pid_at(comm, Rank(1)).unwrap(), Pid(42));
    }

    #[test]
    fn ports() {
        let mpi = Mpi::new();
        let t = mpi.bind_new_task(Pid(5));
        mpi.open_port("hpcm://ws4:7801", t);
        assert_eq!(mpi.lookup_port("hpcm://ws4:7801").unwrap(), t);
        assert_eq!(mpi.close_port("hpcm://ws4:7801"), Some(t));
        assert!(mpi.lookup_port("hpcm://ws4:7801").is_err());
    }

    #[test]
    fn epochs_gate_stale_tasks_after_resize() {
        let mpi = Mpi::new();
        let a = mpi.bind_new_task(Pid(1));
        let b = mpi.bind_new_task(Pid(2));
        let c = mpi.bind_new_task(Pid(3));
        let comm = mpi.create_comm(vec![a, b]);
        assert_eq!(mpi.epoch(comm).unwrap(), 0);
        assert!(mpi.check_epoch(comm, a).is_ok());
        let out = mpi.resize(comm, vec![a, b, c]).unwrap();
        assert_eq!(out.epoch, 1);
        assert!(matches!(
            mpi.check_epoch(comm, a),
            Err(MpiError::StaleEpoch {
                seen: 0,
                current: 1,
                ..
            })
        ));
        mpi.sync_task(comm, a).unwrap();
        assert!(mpi.check_epoch(comm, a).is_ok());
        assert!(mpi.check_epoch(comm, b).is_err());
    }

    #[test]
    fn registered_arrays_survive_resize_bit_for_bit() {
        let mpi = Mpi::new();
        let a = mpi.bind_new_task(Pid(1));
        let b = mpi.bind_new_task(Pid(2));
        let c = mpi.bind_new_task(Pid(3));
        let comm = mpi.create_comm(vec![a, b]);
        mpi.register_array(comm, "v", 20, 3).unwrap();
        assert_eq!(mpi.array_len(comm, "v").unwrap(), 20);
        for g in 0..20 {
            mpi.array_set(comm, "v", g, g as f64 * 1.5).unwrap();
        }
        let before = mpi.array_global(comm, "v").unwrap();
        let out = mpi.resize(comm, vec![a, b, c]).unwrap();
        assert!(out.moved_bytes > 0);
        assert_eq!(
            out.incoming_bytes.iter().sum::<u64>(),
            out.moved_bytes,
            "every moved byte arrives somewhere"
        );
        assert_eq!(mpi.array_global(comm, "v").unwrap(), before);
        // Shrink back: still intact.
        mpi.resize(comm, vec![a, b]).unwrap();
        assert_eq!(mpi.array_global(comm, "v").unwrap(), before);
        // Unknown arrays error instead of panicking.
        assert!(mpi.array_get(comm, "missing", 0).is_err());
    }

    #[test]
    fn replace_member_swaps_task() {
        let mpi = Mpi::new();
        let a = mpi.bind_new_task(Pid(1));
        let b = mpi.bind_new_task(Pid(2));
        let c = mpi.bind_new_task(Pid(3));
        let comm = mpi.create_comm(vec![a, b]);
        mpi.replace_member(comm, b, c).unwrap();
        assert_eq!(mpi.comm(comm).unwrap().members, vec![a, c]);
        assert!(mpi.replace_member(comm, b, c).is_err());
    }
}
