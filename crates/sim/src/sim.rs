//! The cluster simulator kernel.
//!
//! [`Sim`] owns the hosts, the network, the event queue and the process
//! table, and drives [`Program`]s according to the execution model described
//! in [`crate::program`]. All state changes flow through events, so a run is
//! a deterministic function of the configuration and seed.

use crate::ctx::Ctx;
use crate::ids::{HostId, Pid};
use crate::message::{Envelope, RecvFilter};
use crate::program::{Op, Program, SpawnOpts, Wake};
use crate::recorder::Recorder;
use crate::trace::{Trace, TraceKind};
use ars_faults::{Fault, FaultPlan, FaultStats};
use ars_obs::{Obs, ObsEvent};
use ars_simcore::{EventId, EventQueue, FxHashMap, FxHashSet, JobId, SimDuration, SimRng, SimTime};
use ars_simhost::{Host, HostConfig, ProcEntry, ProcState, LOAD_SAMPLE_INTERVAL};
use ars_simnet::{FlowId, Network, NetworkConfig, NodeId};
use std::sync::Arc;

/// Simulator-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Delivery latency for same-host messages (pipes / loopback).
    pub local_latency: SimDuration,
    /// Network configuration.
    pub net: NetworkConfig,
    /// RNG seed; every run with the same seed and inputs is identical.
    pub seed: u64,
    /// Record a structured event trace.
    pub trace: bool,
    /// Re-examine every host and the network after each event (the original
    /// O(events × hosts) behaviour) instead of only the entities the event
    /// touched. Results are identical; this exists so `bench_scale` can
    /// measure the dirty-set speedup against a live baseline.
    pub baseline_full_resync: bool,
    /// Fault-injection schedule. The default (disabled) plan installs
    /// nothing: no events, no RNG draws, no interception — runs are
    /// byte-identical to a build without the fault layer.
    pub faults: FaultPlan,
    /// Observability session (fault-injection events from the kernel). The
    /// default disabled handle is a no-op, and an enabled one never touches
    /// the kernel RNG or event queue — same byte-identity discipline as
    /// `faults`.
    pub obs: Obs,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            local_latency: SimDuration::from_micros(50),
            net: NetworkConfig::default(),
            seed: 0x5EED,
            trace: false,
            baseline_full_resync: false,
            faults: FaultPlan::none(),
            obs: Obs::disabled(),
        }
    }
}

/// Scheduling state of a process.
#[derive(Debug, PartialEq)]
pub(crate) enum RunState {
    /// No op in flight; passive (receives messages/signals directly).
    Idle,
    /// Burning CPU.
    Compute(JobId),
    /// Transmitting over the network.
    SendFlow(FlowId),
    /// Blocked in a receive.
    Recv(RecvFilter),
    /// Blocked in a sleep (guarded by a sequence number).
    Sleep(u64),
    /// Terminated.
    Dead,
}

/// Kernel-side process bookkeeping (the part of a process that is not the
/// program itself).
pub struct ProcMeta {
    pub(crate) pid: Pid,
    pub(crate) host: HostId,
    /// Interned process name: cloning is a refcount bump, so per-heartbeat
    /// and per-trace uses never copy the string bytes.
    pub(crate) name: Arc<str>,
    pub(crate) ops: OpQueue,
    pub(crate) run: RunState,
    pub(crate) mailbox: std::collections::VecDeque<Envelope>,
    pub(crate) signals: std::collections::VecDeque<u32>,
    pub(crate) started_at: SimTime,
    pub(crate) exited_at: Option<SimTime>,
}

/// A process's FIFO of ops not yet started. Nearly every wake queues one
/// op and starts it at once, so the first op lives inline and only a
/// process that queues a second one allocates.
#[derive(Default)]
pub(crate) struct OpQueue {
    /// The front op. Invariant: `head.is_none()` ⇒ `rest.is_empty()`.
    head: Option<Op>,
    rest: std::collections::VecDeque<Op>,
}

impl OpQueue {
    pub(crate) fn push_back(&mut self, op: Op) {
        if self.head.is_none() {
            self.head = Some(op);
        } else {
            self.rest.push_back(op);
        }
    }

    pub(crate) fn pop_front(&mut self) -> Option<Op> {
        let op = self.head.take();
        self.head = self.rest.pop_front();
        op
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    pub(crate) fn clear(&mut self) {
        self.head = None;
        self.rest.clear();
    }
}

struct ProcSlot {
    meta: ProcMeta,
    program: Option<Box<dyn Program>>,
}

// Every event and every process slot passes through these types; a change
// that regrows them should be a decision, not an accident.
const _: () = assert!(std::mem::size_of::<Event>() == 24);
const _: () = assert!(std::mem::size_of::<ProcSlot>() <= 256);

pub(crate) struct PendingSpawn {
    pub(crate) pid: Pid,
    pub(crate) host: HostId,
    pub(crate) program: Box<dyn Program>,
    pub(crate) opts: SpawnOpts,
}

enum FlowPurpose {
    Message(Envelope),
    Background,
}

#[derive(Debug)]
pub(crate) enum Event {
    StartProc(Pid),
    CpuDone {
        host: u32,
    },
    NetDone,
    Timer {
        pid: Pid,
        seq: u64,
    },
    // Boxed: the envelope would otherwise quadruple the size of every
    // queue entry, and heap sifting copies entries around.
    Deliver(Box<Envelope>),
    Nudge(Pid),
    LoadTick,
    SampleTick,
    /// Inject `plan.events[i]`.
    Fault(u32),
    /// A one-shot alarm set with [`Ctx::alarm`] fires.
    Alarm {
        pid: Pid,
        token: u64,
    },
}

/// Runtime state of the fault layer: who is down, which links are severed,
/// who is stalled, plus the dedicated message-fault RNG. Present only when
/// the plan is enabled (or faults were scheduled later), so the disabled
/// path costs nothing and perturbs nothing.
pub(crate) struct FaultEngine {
    plan: FaultPlan,
    /// Dedicated RNG for message-fault rolls — never the kernel RNG, so
    /// plan changes cannot perturb fault-free random streams.
    rng: SimRng,
    host_down: Vec<bool>,
    /// Severed host pairs, normalized to (min, max).
    severed: FxHashSet<(u32, u32)>,
    /// Per-host outbound-message hold deadline (monitor stalls).
    stall_until: Vec<SimTime>,
    /// Crashed registry pids: deaf-and-mute, every delivery to or from one
    /// of these is black-holed, including loopback to co-located siblings.
    pid_down: FxHashSet<u64>,
    /// Severed registry-tree edges as pid pairs, normalized to (min, max).
    pid_severed: FxHashSet<(u64, u64)>,
    stats: FaultStats,
}

enum MsgVerdict {
    Deliver,
    Drop,
    Duplicate,
    Delay,
}

impl FaultEngine {
    fn new(plan: FaultPlan, n_hosts: usize) -> Self {
        FaultEngine {
            rng: SimRng::new(plan.seed ^ 0xFA17_CA57),
            host_down: vec![false; n_hosts],
            severed: FxHashSet::default(),
            stall_until: vec![SimTime::ZERO; n_hosts],
            pid_down: FxHashSet::default(),
            pid_severed: FxHashSet::default(),
            stats: FaultStats::default(),
            plan,
        }
    }

    fn sever_key(a: u32, b: u32) -> (u32, u32) {
        (a.min(b), a.max(b))
    }

    fn pid_sever_key(a: u64, b: u64) -> (u64, u64) {
        (a.min(b), a.max(b))
    }

    /// True when pid-level fault state exists; guards the delivery hot path
    /// so runs without registry faults never pay for the lookup.
    fn any_pid_faults(&self) -> bool {
        !self.pid_down.is_empty() || !self.pid_severed.is_empty()
    }

    /// One RNG draw per cross-host delivery; cumulative thresholds make
    /// drop win over duplicate win over delay.
    fn roll(&mut self) -> MsgVerdict {
        let m = self.plan.messages;
        if !m.any() {
            return MsgVerdict::Deliver;
        }
        let r = self.rng.next_f64();
        if r < m.drop {
            MsgVerdict::Drop
        } else if r < m.drop + m.duplicate {
            MsgVerdict::Duplicate
        } else if r < m.drop + m.duplicate + m.delay {
            MsgVerdict::Delay
        } else {
            MsgVerdict::Deliver
        }
    }
}

/// Kernel state shared with programs through [`Ctx`].
pub struct Kernel {
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue<Event>,
    /// The simulated workstations, indexed by [`HostId`].
    pub hosts: Vec<Host>,
    /// The cluster network; host `i` is node `i`.
    pub net: Network,
    pub(crate) rng: SimRng,
    /// Structured event trace.
    pub trace: Trace,
    pub(crate) config: SimConfig,
    next_pid: u64,
    pub(crate) pending_spawns: Vec<PendingSpawn>,
    pub(crate) pending_kills: Vec<Pid>,
    pub(crate) pending_signals: Vec<(Pid, u32)>,
    /// Per-host slab of in-flight CPU jobs (host id indexes the outer Vec;
    /// the short inner list replaces a `(host, job) -> pid` hash map on the
    /// compute hot path).
    cpu_jobs: Vec<Vec<(JobId, Pid)>>,
    flow_purpose: FxHashMap<FlowId, FlowPurpose>,
    pub(crate) forwarding: FxHashMap<Pid, Pid>,
    /// Per host: the CPU version its pending `CpuDone` was computed for.
    cpu_sched: Vec<Option<(u64, EventId)>>,
    net_sched: Option<(u64, EventId)>,
    timer_seq: u64,
    pub(crate) alarm_seq: u64,
    pub(crate) faults: Option<FaultEngine>,
    /// Interned host-name table: id → name. The companion `host_index` map
    /// is consulted only at config-parse boundaries (name → id resolution);
    /// everything downstream carries the dense u32 id.
    host_names: Vec<Arc<str>>,
    host_index: FxHashMap<Arc<str>, u32>,
    pub(crate) recorder: Option<Recorder>,
    /// Events handled by `run_until` since construction (throughput metric).
    events_handled: u64,
    /// Hosts whose CPU state an event may have changed since the last
    /// resync (`dirty_cpu` de-duplicates the list). Only these are
    /// re-examined; everything else provably needs no rescheduling.
    dirty_hosts: Vec<u32>,
    dirty_cpu: Vec<bool>,
    /// The network flow set may have changed since the last resync.
    net_dirty: bool,
}

impl Kernel {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Resolve a hostname to its id.
    pub fn host_id(&self, name: &str) -> Option<HostId> {
        self.host_index.get(name).map(|&i| HostId(i))
    }

    /// Interned name of a host (trace-emit boundary).
    pub fn host_name(&self, id: HostId) -> &Arc<str> {
        &self.host_names[id.0 as usize]
    }

    /// Number of events handled by the kernel loop so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Allocate a fresh pid (consumed by a pending spawn).
    pub(crate) fn alloc_pid(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        pid
    }

    /// Start a persistent background stream between two hosts (counts into
    /// the NIC byte counters and contends for bandwidth forever).
    pub fn start_background_stream(&mut self, src: HostId, dst: HostId) -> FlowId {
        let id = self
            .net
            .start_flow(self.now, NodeId(src.0), NodeId(dst.0), None);
        self.flow_purpose.insert(id, FlowPurpose::Background);
        self.net_dirty = true;
        id
    }

    /// Stop a background stream; returns bytes it carried.
    pub fn stop_background_stream(&mut self, id: FlowId) -> Option<f64> {
        self.flow_purpose.remove(&id);
        self.net_dirty = true;
        self.net.end_flow(self.now, id)
    }

    /// The fault engine, for the arms of `apply_fault` (its only caller),
    /// which cannot hold one borrow across their trace / net / process work.
    /// `apply_fault` returns at its top when no engine is installed and
    /// nothing ever removes one, so inside an arm the engine is present.
    /// (`Event::Fault` is queued only next to installing it, in `Sim::new`
    /// and `Sim::schedule_fault`.)
    fn engine(&mut self) -> &mut FaultEngine {
        self.faults
            .as_mut()
            .expect("a fault event fired without a fault engine")
    }

    fn cpu_job_insert(&mut self, host: u32, job: JobId, pid: Pid) {
        self.cpu_jobs[host as usize].push((job, pid));
    }

    fn cpu_job_remove(&mut self, host: u32, job: JobId) -> Option<Pid> {
        let jobs = &mut self.cpu_jobs[host as usize];
        let i = jobs.iter().position(|&(j, _)| j == job)?;
        Some(jobs.swap_remove(i).1)
    }

    /// Note that `host`'s CPU job set may have changed; the next resync will
    /// re-examine its completion schedule. Idempotent and cheap.
    fn mark_cpu_dirty(&mut self, host: u32) {
        if !self.dirty_cpu[host as usize] {
            self.dirty_cpu[host as usize] = true;
            self.dirty_hosts.push(host);
        }
    }
}

/// The cluster simulator (see module docs).
pub struct Sim {
    kernel: Kernel,
    procs: Vec<ProcSlot>,
}

impl Sim {
    /// Build a cluster from host configurations.
    pub fn new(host_configs: Vec<HostConfig>, config: SimConfig) -> Sim {
        let n = host_configs.len();
        let host_names: Vec<Arc<str>> = host_configs
            .iter()
            .map(|c| Arc::from(c.name.as_str()))
            .collect();
        let host_index = host_names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), i as u32))
            .collect();
        let mut trace = Trace::new();
        trace.set_enabled(config.trace);
        let mut kernel = Kernel {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            hosts: host_configs.into_iter().map(Host::new).collect(),
            net: Network::new(n, config.net.clone()),
            rng: SimRng::new(config.seed),
            trace,
            config,
            next_pid: 0,
            pending_spawns: Vec::new(),
            pending_kills: Vec::new(),
            pending_signals: Vec::new(),
            cpu_jobs: vec![Vec::new(); n],
            flow_purpose: FxHashMap::default(),
            forwarding: FxHashMap::default(),
            cpu_sched: vec![None; n],
            net_sched: None,
            timer_seq: 0,
            alarm_seq: 0,
            faults: None,
            host_names,
            host_index,
            recorder: None,
            events_handled: 0,
            dirty_hosts: Vec::new(),
            dirty_cpu: vec![false; n],
            net_dirty: false,
        };
        kernel
            .queue
            .push(SimTime::ZERO + LOAD_SAMPLE_INTERVAL, Event::LoadTick);
        if kernel.config.faults.is_enabled() {
            let plan = kernel.config.faults.clone();
            for (i, tf) in plan.events.iter().enumerate() {
                kernel.queue.push(tf.at, Event::Fault(i as u32));
            }
            kernel.faults = Some(FaultEngine::new(plan, n));
        }
        Sim {
            kernel,
            procs: Vec::new(),
        }
    }

    /// Schedule one more fault after construction (tests often need fault
    /// times relative to pids or events that only exist once the run is
    /// set up). Installs the fault engine on first use.
    pub fn schedule_fault(&mut self, at: SimTime, fault: Fault) {
        let n = self.kernel.hosts.len();
        let engine = self
            .kernel
            .faults
            .get_or_insert_with(|| FaultEngine::new(FaultPlan::none(), n));
        let idx = engine.plan.events.len() as u32;
        engine
            .plan
            .events
            .push(ars_faults::TimedFault { at, fault });
        self.kernel.queue.push(at, Event::Fault(idx));
    }

    /// Counters kept by the fault layer; `None` when no faults were ever
    /// configured or scheduled.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.kernel.faults.as_ref().map(|e| &e.stats)
    }

    /// Enable the periodic metric recorder (the paper samples every 10 s).
    pub fn enable_recorder(&mut self, interval: SimDuration) {
        let names: Vec<String> = self
            .kernel
            .hosts
            .iter()
            .map(|h| h.name().to_string())
            .collect();
        self.kernel.recorder = Some(Recorder::new(interval, &names));
        self.kernel
            .queue
            .push(self.kernel.now + interval, Event::SampleTick);
    }

    /// The recorder, if enabled.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.kernel.recorder.as_ref()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Kernel access (hosts, network, trace).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access (background streams, trace control).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Spawn a process on a host; it starts at the current time.
    pub fn spawn(&mut self, host: HostId, program: Box<dyn Program>, opts: SpawnOpts) -> Pid {
        let pid = self.kernel.alloc_pid();
        self.kernel.pending_spawns.push(PendingSpawn {
            pid,
            host,
            program,
            opts,
        });
        self.apply_pending();
        pid
    }

    /// Post a signal to a process (delivered at op boundaries, or
    /// immediately when the process is passive).
    pub fn signal(&mut self, pid: Pid, sig: u32) {
        self.kernel.pending_signals.push((pid, sig));
        self.apply_pending();
    }

    /// True while the process has not exited.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.procs
            .get(pid.0 as usize)
            .is_some_and(|s| s.meta.run != RunState::Dead)
    }

    /// Exit time of a terminated process.
    pub fn exited_at(&self, pid: Pid) -> Option<SimTime> {
        self.procs
            .get(pid.0 as usize)
            .and_then(|s| s.meta.exited_at)
    }

    /// Borrow a program for inspection (tests and result extraction).
    pub fn program(&self, pid: Pid) -> Option<&dyn Program> {
        self.procs
            .get(pid.0 as usize)
            .and_then(|s| s.program.as_deref())
    }

    /// Mutably borrow a program (result extraction after the run).
    pub fn program_mut(&mut self, pid: Pid) -> Option<&mut (dyn Program + 'static)> {
        self.procs
            .get_mut(pid.0 as usize)
            .and_then(|s| s.program.as_deref_mut())
    }

    /// Run until the event queue empties or `t_end` is reached. Hosts and
    /// network are settled to the stop time.
    pub fn run_until(&mut self, t_end: SimTime) {
        while let Some(t) = self.kernel.queue.peek_time() {
            if t > t_end {
                break;
            }
            let (t, ev) = self.kernel.queue.pop().expect("peeked event exists");
            debug_assert!(t >= self.kernel.now, "event from the past");
            self.kernel.now = t;
            self.kernel.events_handled += 1;
            self.handle(ev);
            self.apply_pending();
            self.resync();
        }
        if t_end != SimTime::MAX {
            self.kernel.now = t_end;
        }
        self.settle();
    }

    fn settle(&mut self) {
        let now = self.kernel.now;
        for host in &mut self.kernel.hosts {
            host.advance(now);
        }
        self.kernel.net.advance(now);
    }

    // --- Event handling -----------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::StartProc(pid) => self.dispatch(pid, Wake::Started),
            Event::CpuDone { host } => self.on_cpu_done(host),
            Event::NetDone => self.on_net_done(),
            Event::Timer { pid, seq } => {
                let slot = &mut self.procs[pid.0 as usize];
                if slot.meta.run == RunState::Sleep(seq) {
                    slot.meta.run = RunState::Idle;
                    self.dispatch(pid, Wake::OpDone);
                }
            }
            Event::Deliver(env) => self.on_deliver(*env),
            Event::Nudge(pid) => {
                let slot = &mut self.procs[pid.0 as usize];
                if slot.meta.run == RunState::Idle && slot.meta.ops.is_empty() {
                    if let Some(sig) = slot.meta.signals.pop_front() {
                        self.dispatch(pid, Wake::Signal(sig));
                    }
                }
            }
            Event::LoadTick => {
                let now = self.kernel.now;
                for host in &mut self.kernel.hosts {
                    host.advance(now);
                    host.sample_load(now);
                }
                self.kernel
                    .queue
                    .push(now + LOAD_SAMPLE_INTERVAL, Event::LoadTick);
            }
            Event::SampleTick => {
                let now = self.kernel.now;
                for host in &mut self.kernel.hosts {
                    host.advance(now);
                }
                self.kernel.net.advance(now);
                if let Some(rec) = &mut self.kernel.recorder {
                    rec.sample_all(now, &self.kernel.hosts, &self.kernel.net);
                    let interval = rec.interval();
                    self.kernel.queue.push(now + interval, Event::SampleTick);
                }
            }
            Event::Fault(idx) => self.apply_fault(idx as usize),
            Event::Alarm { pid, token } => {
                let alive = self
                    .procs
                    .get(pid.0 as usize)
                    .is_some_and(|s| s.meta.run != RunState::Dead);
                if alive {
                    self.dispatch(pid, Wake::Alarm(token));
                }
            }
        }
    }

    // --- Fault injection ------------------------------------------------------

    /// Interpret one timed fault from the plan.
    fn apply_fault(&mut self, idx: usize) {
        let Some(engine) = &self.kernel.faults else {
            return;
        };
        let fault = engine.plan.events[idx].fault.clone();
        let now = self.kernel.now;
        match fault {
            Fault::HostCrash { host } => {
                let h = host as usize;
                let engine = self.kernel.engine();
                if engine.host_down[h] {
                    return;
                }
                engine.host_down[h] = true;
                engine.stats.crashes += 1;
                self.kernel
                    .trace
                    .record(now, TraceKind::Fault, format!("host h{host} crashed"));
                self.kernel.config.obs.inc("faults_injected");
                self.kernel
                    .config
                    .obs
                    .record(now, || ObsEvent::FaultInjected {
                        what: format!("host h{host} crashed"),
                    });
                // Every resident process dies with the host.
                let victims: Vec<Pid> = self
                    .procs
                    .iter()
                    .filter(|s| s.meta.host.0 == host && s.meta.run != RunState::Dead)
                    .map(|s| s.meta.pid)
                    .collect();
                for pid in victims {
                    let name = self.procs[pid.0 as usize].meta.name.clone();
                    self.kernel.trace.record(
                        now,
                        TraceKind::Fault,
                        format!("crash of h{host} killed {pid} ({name})"),
                    );
                    if let Some(e) = self.kernel.faults.as_mut() {
                        e.stats.procs_killed += 1;
                    }
                    self.cleanup(pid);
                }
                // In-flight transfers touching the host die with it
                // (cleanup above already ended the victims' own flows).
                for flow in self.kernel.net.flows_touching(NodeId(host)) {
                    self.abort_flow(flow, &format!("h{host} down"));
                }
                self.kernel.hosts[h].crash();
            }
            Fault::HostRecover { host } => {
                let h = host as usize;
                let engine = self.kernel.engine();
                if !engine.host_down[h] {
                    return;
                }
                engine.host_down[h] = false;
                engine.stats.recoveries += 1;
                self.kernel.trace.record(
                    now,
                    TraceKind::Fault,
                    format!("host h{host} recovered (empty)"),
                );
                self.kernel.config.obs.inc("faults_injected");
                self.kernel
                    .config
                    .obs
                    .record(now, || ObsEvent::FaultInjected {
                        what: format!("host h{host} recovered"),
                    });
            }
            Fault::PartitionStart { a, b } => {
                let engine = self.kernel.engine();
                for &x in &a {
                    for &y in &b {
                        if x != y {
                            engine.severed.insert(FaultEngine::sever_key(x, y));
                        }
                    }
                }
                self.kernel.trace.record(
                    now,
                    TraceKind::Fault,
                    format!("partition: {a:?} | {b:?}"),
                );
                self.kernel.config.obs.inc("faults_injected");
                self.kernel
                    .config
                    .obs
                    .record(now, || ObsEvent::FaultInjected {
                        what: format!("partition: {a:?} | {b:?}"),
                    });
                // Transfers crossing the cut are torn down.
                let crossing: Vec<FlowId> = {
                    // Borrowed next to `net`, hence not through `engine()`.
                    let Some(engine) = &self.kernel.faults else {
                        return;
                    };
                    self.kernel
                        .net
                        .active_flow_endpoints()
                        .filter(|(_, s, d)| {
                            engine.severed.contains(&FaultEngine::sever_key(s.0, d.0))
                        })
                        .map(|(id, _, _)| id)
                        .collect()
                };
                for flow in crossing {
                    self.abort_flow(flow, "link partitioned");
                }
            }
            Fault::PartitionEnd => {
                let engine = self.kernel.engine();
                engine.severed.clear();
                self.kernel
                    .trace
                    .record(now, TraceKind::Fault, "partition healed");
                self.kernel.config.obs.inc("faults_injected");
                self.kernel
                    .config
                    .obs
                    .record(now, || ObsEvent::FaultInjected {
                        what: "partition healed".to_string(),
                    });
            }
            Fault::MonitorStall { host, duration } => {
                let engine = self.kernel.engine();
                let until = now + duration;
                let h = host as usize;
                if engine.stall_until[h] < until {
                    engine.stall_until[h] = until;
                }
                self.kernel.trace.record(
                    now,
                    TraceKind::Fault,
                    format!("h{host} stalled for {duration}"),
                );
                self.kernel.config.obs.inc("faults_injected");
                self.kernel
                    .config
                    .obs
                    .record(now, || ObsEvent::FaultInjected {
                        what: format!("h{host} stalled for {duration}"),
                    });
            }
            Fault::ProcessRestart { pid } => {
                let pid = Pid(pid);
                if let Some(e) = self.kernel.faults.as_mut() {
                    e.stats.restarts += 1;
                }
                self.kernel
                    .trace
                    .record(now, TraceKind::Fault, format!("restart signal -> {pid}"));
                self.kernel.config.obs.inc("faults_injected");
                self.kernel
                    .config
                    .obs
                    .record(now, || ObsEvent::FaultInjected {
                        what: format!("restart signal -> {pid}"),
                    });
                self.kernel
                    .pending_signals
                    .push((pid, ars_faults::RESTART_SIGNAL));
                self.apply_pending();
            }
            Fault::RegistryCrash { pid } => {
                let engine = self.kernel.engine();
                if !engine.pid_down.insert(pid) {
                    return;
                }
                engine.stats.registry_crashes += 1;
                let pid = Pid(pid);
                self.kernel.trace.record(
                    now,
                    TraceKind::Fault,
                    format!("registry {pid} crashed (deaf and mute)"),
                );
                self.kernel.config.obs.inc("faults_injected");
                self.kernel
                    .config
                    .obs
                    .record(now, || ObsEvent::FaultInjected {
                        what: format!("registry {pid} crashed"),
                    });
            }
            Fault::RegistryRecover { pid } => {
                let engine = self.kernel.engine();
                if !engine.pid_down.remove(&pid) {
                    return;
                }
                engine.stats.registry_recoveries += 1;
                let pid = Pid(pid);
                self.kernel.trace.record(
                    now,
                    TraceKind::Fault,
                    format!("registry {pid} recovered (restarting empty)"),
                );
                self.kernel.config.obs.inc("faults_injected");
                self.kernel
                    .config
                    .obs
                    .record(now, || ObsEvent::FaultInjected {
                        what: format!("registry {pid} recovered"),
                    });
                // The process comes back as if freshly exec'd: deliver the
                // restart signal so it drops soft state and rebuilds it via
                // the ReRegister path.
                self.kernel
                    .pending_signals
                    .push((pid, ars_faults::RESTART_SIGNAL));
                self.apply_pending();
            }
            Fault::EdgePartition { a, b } => {
                let engine = self.kernel.engine();
                if !engine.pid_severed.insert(FaultEngine::pid_sever_key(a, b)) {
                    return;
                }
                let (a, b) = (Pid(a), Pid(b));
                self.kernel.trace.record(
                    now,
                    TraceKind::Fault,
                    format!("tree edge {a}~{b} severed"),
                );
                self.kernel.config.obs.inc("faults_injected");
                self.kernel
                    .config
                    .obs
                    .record(now, || ObsEvent::FaultInjected {
                        what: format!("tree edge {a}~{b} severed"),
                    });
            }
            Fault::EdgeHeal { a, b } => {
                let engine = self.kernel.engine();
                if !engine.pid_severed.remove(&FaultEngine::pid_sever_key(a, b)) {
                    return;
                }
                let (a, b) = (Pid(a), Pid(b));
                self.kernel.trace.record(
                    now,
                    TraceKind::Fault,
                    format!("tree edge {a}~{b} healed"),
                );
                self.kernel.config.obs.inc("faults_injected");
                self.kernel
                    .config
                    .obs
                    .record(now, || ObsEvent::FaultInjected {
                        what: format!("tree edge {a}~{b} healed"),
                    });
            }
        }
    }

    /// Tear down an in-flight flow killed by a fault. A message flow's
    /// envelope is lost (fire-and-forget: the blocked sender's op still
    /// completes); background streams just end.
    fn abort_flow(&mut self, flow: FlowId, why: &str) {
        let now = self.kernel.now;
        self.kernel.net.end_flow(now, flow);
        self.kernel.net_dirty = true;
        match self.kernel.flow_purpose.remove(&flow) {
            Some(FlowPurpose::Message(env)) => {
                let sender = env.from;
                self.kernel.trace.record(
                    now,
                    TraceKind::Fault,
                    format!(
                        "in-flight message tag {} {} -> {} lost: {why}",
                        env.tag, env.from, env.to
                    ),
                );
                if let Some(slot) = self.procs.get_mut(sender.0 as usize) {
                    if matches!(slot.meta.run, RunState::SendFlow(f) if f == flow) {
                        slot.meta.run = RunState::Idle;
                        self.dispatch(sender, Wake::OpDone);
                    }
                }
            }
            Some(FlowPurpose::Background) | None => {}
        }
    }

    fn on_cpu_done(&mut self, host: u32) {
        self.kernel.cpu_sched[host as usize] = None;
        // The scheduled completion was consumed (and end_compute below bumps
        // the version): this host must be re-examined either way.
        self.kernel.mark_cpu_dirty(host);
        let now = self.kernel.now;
        self.kernel.hosts[host as usize].advance(now);
        // Reap one at a time (ascending job id, same order as the finished
        // list) to keep this hot path allocation-free.
        while let Some(job) = self.kernel.hosts[host as usize].first_finished_cpu_job() {
            self.kernel.hosts[host as usize].end_compute(now, job);
            if let Some(pid) = self.kernel.cpu_job_remove(host, job) {
                self.kernel.hosts[host as usize].proc_set_state(pid.0, ProcState::Sleeping);
                let slot = &mut self.procs[pid.0 as usize];
                if matches!(slot.meta.run, RunState::Compute(j) if j == job) {
                    slot.meta.run = RunState::Idle;
                    self.dispatch(pid, Wake::OpDone);
                }
            }
        }
    }

    fn on_net_done(&mut self) {
        self.kernel.net_sched = None;
        self.kernel.net_dirty = true;
        let now = self.kernel.now;
        self.kernel.net.advance(now);
        while let Some(flow) = self.kernel.net.first_finished_flow() {
            self.kernel.net.end_flow(now, flow);
            match self.kernel.flow_purpose.remove(&flow) {
                Some(FlowPurpose::Message(env)) => {
                    let latency = self.kernel.config.net.latency;
                    let sender = env.from;
                    self.enqueue_delivery(env, latency);
                    let slot = &mut self.procs[sender.0 as usize];
                    if matches!(slot.meta.run, RunState::SendFlow(f) if f == flow) {
                        slot.meta.run = RunState::Idle;
                        self.dispatch(sender, Wake::OpDone);
                    }
                }
                Some(FlowPurpose::Background) | None => {}
            }
        }
    }

    /// Queue a message delivery `base` after now, routing it through the
    /// fault layer when one is installed. Cross-host deliveries can be
    /// black-holed (destination down, link partitioned), held (source
    /// stalled) or hit by the seeded drop/duplicate/delay roll. Loopback
    /// is reliable, and with no engine this is exactly one queue push.
    fn enqueue_delivery(&mut self, env: Envelope, base: SimDuration) {
        let src_host = self.procs.get(env.from.0 as usize).map(|s| s.meta.host.0);
        let dst_host = self.procs.get(env.to.0 as usize).map(|s| s.meta.host.0);
        let Kernel {
            now,
            queue,
            trace,
            faults,
            ..
        } = &mut self.kernel;
        let now = *now;
        // Pid-level registry faults come first and apply to *loopback* too:
        // co-located tree nodes talk over the same host, so a crashed
        // registry or a severed parent↔child edge must black-hole traffic
        // the host-level checks below would wave through. No RNG is drawn
        // here, and with no pid faults active the guard is two emptiness
        // tests — runs without registry faults stay byte-identical.
        if let Some(engine) = faults.as_mut() {
            if engine.any_pid_faults() {
                let (f, t) = (env.from.0, env.to.0);
                if engine.pid_down.contains(&f) || engine.pid_down.contains(&t) {
                    engine.stats.msgs_blackholed_registry += 1;
                    trace.record(
                        now,
                        TraceKind::Fault,
                        format!(
                            "message tag {} {} -> {} lost: registry crashed",
                            env.tag, env.from, env.to
                        ),
                    );
                    return;
                }
                if engine
                    .pid_severed
                    .contains(&FaultEngine::pid_sever_key(f, t))
                {
                    engine.stats.msgs_blackholed_registry += 1;
                    trace.record(
                        now,
                        TraceKind::Fault,
                        format!(
                            "message tag {} {} -> {} lost: tree edge severed",
                            env.tag, env.from, env.to
                        ),
                    );
                    return;
                }
            }
        }
        let cross = match (src_host, dst_host) {
            (Some(a), Some(b)) if a != b => Some((a, b)),
            _ => None,
        };
        let (engine, (src, dst)) = match (faults.as_mut(), cross) {
            (Some(e), Some(pair)) => (e, pair),
            _ => {
                queue.push(now + base, Event::Deliver(Box::new(env)));
                return;
            }
        };
        if engine.host_down[dst as usize] {
            engine.stats.msgs_blackholed += 1;
            trace.record(
                now,
                TraceKind::Fault,
                format!(
                    "message tag {} {} -> {} lost: h{dst} down",
                    env.tag, env.from, env.to
                ),
            );
            return;
        }
        if engine.severed.contains(&FaultEngine::sever_key(src, dst)) {
            engine.stats.msgs_blackholed += 1;
            trace.record(
                now,
                TraceKind::Fault,
                format!(
                    "message tag {} {} -> {} lost: h{src}~h{dst} partitioned",
                    env.tag, env.from, env.to
                ),
            );
            return;
        }
        let mut at = now + base;
        if engine.stall_until[src as usize] > now {
            engine.stats.msgs_stalled += 1;
            at = engine.stall_until[src as usize] + base;
        }
        match engine.roll() {
            MsgVerdict::Deliver => {
                queue.push(at, Event::Deliver(Box::new(env)));
            }
            MsgVerdict::Drop => {
                engine.stats.msgs_dropped += 1;
                trace.record(
                    now,
                    TraceKind::Fault,
                    format!(
                        "message tag {} {} -> {} dropped (fault roll)",
                        env.tag, env.from, env.to
                    ),
                );
            }
            MsgVerdict::Duplicate => {
                engine.stats.msgs_duplicated += 1;
                trace.record(
                    now,
                    TraceKind::Fault,
                    format!(
                        "message tag {} {} -> {} duplicated (fault roll)",
                        env.tag, env.from, env.to
                    ),
                );
                queue.push(at, Event::Deliver(Box::new(env.clone())));
                queue.push(at, Event::Deliver(Box::new(env)));
            }
            MsgVerdict::Delay => {
                engine.stats.msgs_delayed += 1;
                let delay = engine.plan.messages.delay_by;
                trace.record(
                    now,
                    TraceKind::Fault,
                    format!(
                        "message tag {} {} -> {} delayed {delay} (fault roll)",
                        env.tag, env.from, env.to
                    ),
                );
                queue.push(at + delay, Event::Deliver(Box::new(env)));
            }
        }
    }

    fn on_deliver(&mut self, mut env: Envelope) {
        // Follow the forwarding chain set up by migrations.
        let mut hops = 0;
        while let Some(&next) = self.kernel.forwarding.get(&env.to) {
            env.to = next;
            hops += 1;
            assert!(hops < 64, "forwarding loop");
        }
        let pid = env.to;
        let Some(slot) = self.procs.get_mut(pid.0 as usize) else {
            return;
        };
        match &slot.meta.run {
            RunState::Dead => {
                self.kernel
                    .trace
                    .record_with(self.kernel.now, TraceKind::Deliver, || {
                        format!("dropped message tag {} for dead {pid}", env.tag)
                    });
            }
            RunState::Recv(filter) if filter.matches(&env) => {
                slot.meta.run = RunState::Idle;
                self.dispatch(pid, Wake::Received(env));
            }
            RunState::Idle if slot.meta.ops.is_empty() => {
                self.dispatch(pid, Wake::Received(env));
            }
            _ => slot.meta.mailbox.push_back(env),
        }
    }

    // --- Program dispatch ----------------------------------------------------

    fn dispatch(&mut self, pid: Pid, wake: Wake) {
        let mut wake = Some(wake);
        while let Some(w) = wake.take() {
            {
                let Sim { kernel, procs } = self;
                let slot = &mut procs[pid.0 as usize];
                if slot.meta.run == RunState::Dead {
                    return;
                }
                let Some(mut program) = slot.program.take() else {
                    return;
                };
                {
                    let mut ctx = Ctx::new(kernel, &mut slot.meta);
                    program.on_wake(&mut ctx, w);
                }
                slot.program = Some(program);
            }
            self.apply_pending();
            wake = self.start_next_op(pid);
        }
    }

    /// Start the next queued op. Returns a wake to deliver immediately when
    /// the op completed synchronously; `None` when the process is blocked,
    /// passive, or dead.
    fn start_next_op(&mut self, pid: Pid) -> Option<Wake> {
        let now = self.kernel.now;
        let (host, op) = {
            let slot = &mut self.procs[pid.0 as usize];
            if slot.meta.run != RunState::Idle {
                return None;
            }
            match slot.meta.ops.pop_front() {
                Some(op) => (slot.meta.host, op),
                None => {
                    // Passive: drain one queued message or signal.
                    if let Some(env) = slot.meta.mailbox.pop_front() {
                        return Some(Wake::Received(env));
                    }
                    if let Some(sig) = slot.meta.signals.pop_front() {
                        return Some(Wake::Signal(sig));
                    }
                    return None;
                }
            }
        };
        match op {
            Op::Compute { work } => {
                let job = self.kernel.hosts[host.0 as usize].start_compute(now, work);
                self.kernel.mark_cpu_dirty(host.0);
                self.kernel.cpu_job_insert(host.0, job, pid);
                self.kernel.hosts[host.0 as usize].proc_set_state(pid.0, ProcState::Runnable);
                self.procs[pid.0 as usize].meta.run = RunState::Compute(job);
                None
            }
            Op::Send {
                mut to,
                tag,
                payload,
                wire_bytes,
            } => {
                let mut hops = 0;
                while let Some(&next) = self.kernel.forwarding.get(&to) {
                    to = next;
                    hops += 1;
                    assert!(hops < 64, "forwarding loop");
                }
                let mut env = Envelope::new(pid, to, tag, payload);
                if let Some(b) = wire_bytes {
                    env.wire_bytes = env.wire_bytes.max(b);
                }
                let dst_host = self
                    .procs
                    .get(to.0 as usize)
                    .map(|s| s.meta.host)
                    .unwrap_or(host);
                if dst_host == host {
                    let latency = self.kernel.config.local_latency;
                    self.enqueue_delivery(env, latency);
                    Some(Wake::OpDone)
                } else {
                    let flow = self.kernel.net.start_flow(
                        now,
                        NodeId(host.0),
                        NodeId(dst_host.0),
                        Some(env.wire_bytes as f64),
                    );
                    self.kernel.net_dirty = true;
                    self.kernel
                        .flow_purpose
                        .insert(flow, FlowPurpose::Message(env));
                    self.procs[pid.0 as usize].meta.run = RunState::SendFlow(flow);
                    None
                }
            }
            Op::Recv { filter } => {
                let slot = &mut self.procs[pid.0 as usize];
                if let Some(idx) = slot.meta.mailbox.iter().position(|e| filter.matches(e)) {
                    let env = slot.meta.mailbox.remove(idx).expect("index valid");
                    Some(Wake::Received(env))
                } else {
                    slot.meta.run = RunState::Recv(filter);
                    None
                }
            }
            Op::SleepUntil { at } => {
                if at <= now {
                    Some(Wake::OpDone)
                } else {
                    self.kernel.timer_seq += 1;
                    let seq = self.kernel.timer_seq;
                    self.kernel.queue.push(at, Event::Timer { pid, seq });
                    self.procs[pid.0 as usize].meta.run = RunState::Sleep(seq);
                    None
                }
            }
            Op::Exit => {
                self.cleanup(pid);
                None
            }
        }
    }

    // --- Pending actions ------------------------------------------------------

    fn apply_pending(&mut self) {
        // Spawns: allocate slots in pid order.
        while !self.kernel.pending_spawns.is_empty() {
            let spawn = self.kernel.pending_spawns.remove(0);
            debug_assert_eq!(spawn.pid.0 as usize, self.procs.len(), "pid/slot skew");
            let now = self.kernel.now;
            let name: Arc<str> = spawn.opts.name.into();
            // Spawning onto a crashed host fails: the pid slot is created
            // dead (preserving the pid==slot invariant) and the program is
            // dropped, but the host never sees the process.
            let host_down = self
                .kernel
                .faults
                .as_ref()
                .is_some_and(|e| e.host_down[spawn.host.0 as usize]);
            if host_down {
                if let Some(e) = self.kernel.faults.as_mut() {
                    e.stats.spawns_failed += 1;
                }
                self.kernel.trace.record_with(now, TraceKind::Fault, || {
                    format!(
                        "spawn of {} ({name}) refused: h{} down",
                        spawn.pid, spawn.host.0
                    )
                });
                self.procs.push(ProcSlot {
                    meta: ProcMeta {
                        pid: spawn.pid,
                        host: spawn.host,
                        name,
                        ops: OpQueue::default(),
                        run: RunState::Dead,
                        mailbox: std::collections::VecDeque::new(),
                        signals: std::collections::VecDeque::new(),
                        started_at: now,
                        exited_at: Some(now),
                    },
                    program: None,
                });
                continue;
            }
            let host = &mut self.kernel.hosts[spawn.host.0 as usize];
            host.proc_add(ProcEntry {
                pid: spawn.pid.0,
                name: name.clone(),
                start_time: now,
                state: ProcState::Sleeping,
                migratable: spawn.opts.migratable,
            });
            if host.mem_reserve(spawn.pid.0, spawn.opts.mem).is_err() {
                self.kernel.trace.record_with(now, TraceKind::Custom, || {
                    format!("{name} OOM reserving for {}", spawn.pid)
                });
            }
            self.kernel.trace.record_with(now, TraceKind::Spawn, || {
                format!("{} ({name}) on h{}", spawn.pid, spawn.host.0)
            });
            self.procs.push(ProcSlot {
                meta: ProcMeta {
                    pid: spawn.pid,
                    host: spawn.host,
                    name,
                    ops: OpQueue::default(),
                    run: RunState::Idle,
                    mailbox: std::collections::VecDeque::new(),
                    signals: std::collections::VecDeque::new(),
                    started_at: now,
                    exited_at: None,
                },
                program: Some(spawn.program),
            });
            self.kernel.queue.push(now, Event::StartProc(spawn.pid));
        }
        // Kills.
        while let Some(pid) = self.kernel.pending_kills.pop() {
            self.cleanup(pid);
        }
        // Signals.
        while !self.kernel.pending_signals.is_empty() {
            let (pid, sig) = self.kernel.pending_signals.remove(0);
            if let Some(slot) = self.procs.get_mut(pid.0 as usize) {
                if slot.meta.run != RunState::Dead {
                    slot.meta.signals.push_back(sig);
                    self.kernel
                        .trace
                        .record_with(self.kernel.now, TraceKind::Signal, || {
                            format!("signal {sig} -> {pid}")
                        });
                    self.kernel.queue.push(self.kernel.now, Event::Nudge(pid));
                }
            }
        }
    }

    fn cleanup(&mut self, pid: Pid) {
        let now = self.kernel.now;
        let Some(slot) = self.procs.get_mut(pid.0 as usize) else {
            return;
        };
        if slot.meta.run == RunState::Dead {
            return;
        }
        match slot.meta.run {
            RunState::Compute(job) => {
                let h = slot.meta.host.0;
                self.kernel.hosts[h as usize].end_compute(now, job);
                self.kernel.mark_cpu_dirty(h);
                self.kernel.cpu_job_remove(h, job);
            }
            RunState::SendFlow(flow) => {
                self.kernel.net.end_flow(now, flow);
                self.kernel.net_dirty = true;
                self.kernel.flow_purpose.remove(&flow);
            }
            _ => {}
        }
        slot.meta.run = RunState::Dead;
        slot.meta.exited_at = Some(now);
        slot.meta.ops.clear();
        slot.meta.mailbox.clear();
        slot.program = None;
        let h = slot.meta.host.0;
        let name = slot.meta.name.clone(); // refcount bump, not a copy
        self.kernel.hosts[h as usize].proc_remove(pid.0);
        self.kernel
            .trace
            .record_with(now, TraceKind::Exit, || format!("{pid} ({name}) on h{h}"));
    }

    // --- Completion-event resynchronization -----------------------------------

    /// Re-align scheduled completion events with host/network state.
    ///
    /// Only the hosts marked dirty since the last resync (and the network,
    /// when flagged) are re-examined: an event can only invalidate the
    /// schedule of an entity it mutated, and every mutation site marks its
    /// entity. Dirty hosts are visited in ascending id order — the same
    /// order the old full scan used — so the events pushed (and therefore
    /// their queue sequence numbers, which break same-time ties) are
    /// identical to the settle-everything baseline.
    fn resync(&mut self) {
        if self.kernel.config.baseline_full_resync {
            self.kernel.dirty_hosts.clear();
            self.kernel.dirty_cpu.fill(false);
            self.kernel.net_dirty = false;
            for i in 0..self.kernel.hosts.len() {
                self.resync_host(i);
            }
            self.resync_net();
            return;
        }
        if !self.kernel.dirty_hosts.is_empty() {
            let mut dirty = std::mem::take(&mut self.kernel.dirty_hosts);
            dirty.sort_unstable();
            for &i in &dirty {
                self.kernel.dirty_cpu[i as usize] = false;
                self.resync_host(i as usize);
            }
            dirty.clear();
            self.kernel.dirty_hosts = dirty; // keep the allocation
        }
        if self.kernel.net_dirty {
            self.kernel.net_dirty = false;
            self.resync_net();
        }
    }

    fn resync_host(&mut self, i: usize) {
        let now = self.kernel.now;
        let version = self.kernel.hosts[i].cpu_version();
        let cached_ok = matches!(self.kernel.cpu_sched[i], Some((v, _)) if v == version);
        if cached_ok {
            return;
        }
        if let Some((_, ev)) = self.kernel.cpu_sched[i].take() {
            self.kernel.queue.cancel(ev);
        }
        if let Some((t, _)) = self.kernel.hosts[i].next_cpu_completion(now) {
            let ev = self.kernel.queue.push(t, Event::CpuDone { host: i as u32 });
            self.kernel.cpu_sched[i] = Some((version, ev));
        }
    }

    fn resync_net(&mut self) {
        let now = self.kernel.now;
        let version = self.kernel.net.version();
        let cached_ok = matches!(self.kernel.net_sched, Some((v, _)) if v == version);
        if !cached_ok {
            if let Some((_, ev)) = self.kernel.net_sched.take() {
                self.kernel.queue.cancel(ev);
            }
            if let Some((t, _)) = self.kernel.net.next_completion(now) {
                let ev = self.kernel.queue.push(t, Event::NetDone);
                self.kernel.net_sched = Some((version, ev));
            }
        }
    }
}
