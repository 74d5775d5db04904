//! The system-call surface a [`crate::program::Program`] sees.
//!
//! A [`Ctx`] couples the kernel with the calling process's bookkeeping. It
//! is only valid for the duration of one `on_wake` call; programs use it to
//! enqueue ops, inspect their host, exchange signals and files with other
//! local entities, and spawn or kill processes.

use crate::ids::{HostId, Pid};
use crate::message::{Payload, RecvFilter};
use crate::program::{Op, Program, SpawnOpts};
use crate::sim::{Kernel, PendingSpawn, ProcMeta};
use crate::trace::TraceKind;
use ars_simcore::{SimDuration, SimRng, SimTime};
use ars_simhost::Host;
use ars_simnet::Network;

/// Per-wake system-call context (see module docs).
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
    meta: &'a mut ProcMeta,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(kernel: &'a mut Kernel, meta: &'a mut ProcMeta) -> Self {
        Ctx { kernel, meta }
    }

    // --- Identity & environment --------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// This process's pid.
    pub fn pid(&self) -> Pid {
        self.meta.pid
    }

    /// The host this process runs on.
    pub fn host_id(&self) -> HostId {
        self.meta.host
    }

    /// This process's executable name.
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// When this process started on this host.
    pub fn started_at(&self) -> SimTime {
        self.meta.started_at
    }

    /// Deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.kernel.rng()
    }

    /// Read-only view of the local host (sensors read metrics here).
    pub fn host(&self) -> &Host {
        &self.kernel.hosts[self.meta.host.0 as usize]
    }

    /// Resolve a hostname.
    pub fn host_id_by_name(&self, name: &str) -> Option<HostId> {
        self.kernel.host_id(name)
    }

    /// Read-only view of the network (sensors read byte counters here).
    pub fn net(&self) -> &Network {
        &self.kernel.net
    }

    // --- Ops -----------------------------------------------------------------

    /// Enqueue a raw op.
    pub fn push_op(&mut self, op: Op) {
        self.meta.ops.push_back(op);
    }

    /// Burn CPU for `work` reference-seconds.
    pub fn compute(&mut self, work: f64) {
        self.push_op(Op::Compute { work });
    }

    /// Send a message (completes when transmitted).
    pub fn send(&mut self, to: Pid, tag: u32, payload: Payload) {
        self.push_op(Op::Send {
            to,
            tag,
            payload,
            wire_bytes: None,
        });
    }

    /// Send with an explicit wire size (modeled bulk data).
    pub fn send_sized(&mut self, to: Pid, tag: u32, payload: Payload, wire_bytes: u64) {
        self.push_op(Op::Send {
            to,
            tag,
            payload,
            wire_bytes: Some(wire_bytes),
        });
    }

    /// Block until a matching message arrives.
    pub fn recv(&mut self, filter: RecvFilter) {
        self.push_op(Op::Recv { filter });
    }

    /// Block for a duration.
    pub fn sleep(&mut self, d: SimDuration) {
        let at = self.kernel.now() + d;
        self.push_op(Op::SleepUntil { at });
    }

    /// Set a one-shot alarm `d` from now. Unlike a sleep this is not an op:
    /// the wake ([`crate::program::Wake::Alarm`] carrying the returned
    /// token) is delivered even while ops are in flight, so programs can
    /// bound a phase with a timeout. There is no cancel — compare the token
    /// and ignore stale alarms.
    pub fn alarm(&mut self, d: SimDuration) -> u64 {
        self.kernel.alarm_seq += 1;
        let token = self.kernel.alarm_seq;
        let at = self.kernel.now() + d;
        let pid = self.meta.pid;
        self.kernel
            .queue
            .push(at, crate::sim::Event::Alarm { pid, token });
        token
    }

    /// Terminate after the queued ops finish.
    pub fn exit(&mut self) {
        self.push_op(Op::Exit);
    }

    /// Discard ops enqueued but not yet started (the migration shell rolls
    /// the application back to the poll-point just reached).
    pub fn clear_pending_ops(&mut self) {
        self.meta.ops.clear();
    }

    /// Remove the first mailbox message matching `filter` without blocking
    /// (a non-blocking probe+receive, like `MPI_Iprobe` + `MPI_Recv`).
    pub fn take_message(&mut self, filter: RecvFilter) -> Option<crate::message::Envelope> {
        let idx = self.meta.mailbox.iter().position(|e| filter.matches(e))?;
        self.meta.mailbox.remove(idx)
    }

    /// Take every queued (undelivered) message out of this process's
    /// mailbox — communication-state transfer forwards them to the
    /// destination process.
    pub fn drain_mailbox(&mut self) -> Vec<crate::message::Envelope> {
        self.meta.mailbox.drain(..).collect()
    }

    /// Put an envelope back into this process's own mailbox (tail position).
    /// The migration shell uses this to return application messages it held
    /// while a transaction was in flight, so a rolled-back application can
    /// still receive them.
    pub fn requeue_envelope(&mut self, env: crate::message::Envelope) {
        self.meta.mailbox.push_back(env);
    }

    /// Re-transmit a drained envelope to another process, preserving its
    /// tag, payload and modeled wire size.
    pub fn forward_envelope(&mut self, env: crate::message::Envelope, to: Pid) {
        self.push_op(Op::Send {
            to,
            tag: env.tag,
            payload: env.payload,
            wire_bytes: Some(env.wire_bytes),
        });
    }

    // --- Signals ---------------------------------------------------------------

    /// Post a signal to another process.
    pub fn signal(&mut self, to: Pid, sig: u32) {
        self.kernel.pending_signals.push((to, sig));
    }

    /// Take the oldest pending signal for this process, if any. HPCM
    /// poll-points call this between compute chunks.
    pub fn take_signal(&mut self) -> Option<u32> {
        self.meta.signals.pop_front()
    }

    /// Peek whether any signal is pending without consuming it.
    pub fn has_signal(&self) -> bool {
        !self.meta.signals.is_empty()
    }

    // --- Process management -------------------------------------------------

    /// Spawn a process on `host`; it starts at the current instant.
    pub fn spawn(&mut self, host: HostId, program: Box<dyn Program>, opts: SpawnOpts) -> Pid {
        let pid = self.kernel.alloc_pid();
        self.kernel.pending_spawns.push(PendingSpawn {
            pid,
            host,
            program,
            opts,
        });
        pid
    }

    /// Kill a process (takes effect at the end of this wake).
    pub fn kill(&mut self, pid: Pid) {
        self.kernel.pending_kills.push(pid);
    }

    /// Install a forwarding entry: messages addressed to `from` are routed
    /// to `to` (communication-state transfer during migration).
    pub fn set_forwarding(&mut self, from: Pid, to: Pid) {
        self.kernel.forwarding.insert(from, to);
    }

    // --- Host files (commander <-> migrating process handoff) -----------------

    /// Write a file on the local host.
    pub fn write_file(&mut self, path: &str, content: &str) {
        self.kernel.hosts[self.meta.host.0 as usize].write_file(path, content);
    }

    /// Read a file on the local host.
    pub fn read_file(&self, path: &str) -> Option<String> {
        self.kernel.hosts[self.meta.host.0 as usize]
            .read_file(path)
            .map(str::to_string)
    }

    /// Remove a file on the local host.
    pub fn remove_file(&mut self, path: &str) -> Option<String> {
        self.kernel.hosts[self.meta.host.0 as usize].remove_file(path)
    }

    // --- Tracing ---------------------------------------------------------------

    /// Record a trace event.
    pub fn trace(&mut self, kind: TraceKind, detail: impl Into<String>) {
        let now = self.kernel.now();
        self.kernel.trace.record(now, kind, detail);
    }

    /// Record a trace event with a lazily-built detail string (no `format!`
    /// cost while tracing is disabled).
    pub fn trace_with(&mut self, kind: TraceKind, detail: impl FnOnce() -> String) {
        let now = self.kernel.now();
        self.kernel.trace.record_with(now, kind, detail);
    }
}
