//! The sans-I/O registry/scheduler core (§3.2).
//!
//! [`RegistryCore`] is the paper's soft-state decision engine factored out
//! of every transport: pure inputs ([`CoreInput`] — decoded protocol
//! messages, due decisions, fired timers, a restart fault) plus an explicit
//! `now` go in; pure effects ([`CoreEffect`] — messages to send, timers to
//! arm, decisions to start, trace/log lines) come out. The core never
//! performs I/O, never reads a clock, and never spawns anything, so the
//! exact same state machine drives
//!
//! * the discrete-event simulation ([`RegistryScheduler`]
//!   (crate::registry::RegistryScheduler) replays effects onto the DES
//!   kernel),
//! * the live TCP registry ([`LiveRegistry`](crate::live::LiveRegistry)
//!   replays them onto sockets), and
//! * every level of a registry hierarchy (a registry with a parent reports
//!   its subtree's health upward; a registry with children routes
//!   cross-domain searches by those reports).
//!
//! Determinism is the point: given the same input sequence and timestamps,
//! the core emits the same effect sequence, byte for byte — which is what
//! lets the simulation's trace-equivalence and chaos gates vouch for the
//! live path too.
//!
//! The state is split by concern, one module each:
//!
//! * this module — the input/effect surface, the configuration, the one
//!   timer table, input dispatch and restart;
//! * `table` — the host arena, the lease and missed-heartbeat detector,
//!   registration and heartbeats;
//! * `decide` — first-fit, the scheduling decision, command dispatch with
//!   ack/retransmit/abort, pull rounds;
//! * `tree` — everything a registry does because it has a parent or
//!   children: health reports and their ACKs, the parent-liveness
//!   detector, re-parenting, cross-domain escalation and its deadlines;
//! * `resize` — malleable jobs' capacity rules.

mod decide;
mod resize;
mod table;
mod tree;

pub use decide::SelectionPolicy;
pub use resize::MalleableJob;
pub use table::{DomainHealth, HostEntry, Liveness};

use crate::hooks::DecisionRecord;
use crate::hooks::SchemaBook;
use ars_rules::Policy;
use ars_sim::{Pid, TraceKind};
use ars_simcore::{FxHashMap, SimDuration, SimTime};
use ars_xmlwire::{EntityRole, HostStatic, Message, ResourceRequirements};
use decide::{PendingCommand, PullRound};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use tree::Tree;

/// Transport-independent peer address. The DES driver maps it to a `Pid`,
/// the live TCP driver to a connection id; the core only ever compares and
/// echoes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint(pub u64);

impl From<Pid> for Endpoint {
    fn from(p: Pid) -> Self {
        Endpoint(p.0)
    }
}

/// Core-allocated timer handle. The core hands these out in
/// [`CoreEffect::ArmTimer`] and expects them back in
/// [`CoreInput::TimerFired`]; drivers keep the mapping to their own alarm
/// tokens or deadlines. Ids are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub u64);

/// An input event for [`RegistryCore::handle`].
#[derive(Debug, Clone)]
pub enum CoreInput {
    /// A decoded protocol message arrived from `from`.
    Message {
        /// Transport address of the sender (echoed in reply effects).
        from: Endpoint,
        /// The decoded document.
        msg: Message,
    },
    /// A previously emitted [`CoreEffect::StartDecision`] has run its
    /// course (the DES charges the decision's CPU cost first; the live
    /// driver feeds this back immediately).
    DecisionDue {
        /// The overloaded host the decision is for.
        source: Arc<str>,
    },
    /// A timer armed via [`CoreEffect::ArmTimer`] fired.
    TimerFired(TimerId),
    /// Process-restart fault: drop all soft state, as a freshly exec'd
    /// registry would start.
    Restart,
}

/// An output effect of [`RegistryCore::handle`]. Drivers must apply
/// effects in emission order — the order mirrors the I/O order of the
/// original monolithic scheduler exactly, which keeps kernel traces
/// byte-identical.
#[derive(Debug, Clone)]
pub enum CoreEffect {
    /// Send a protocol message to a peer.
    Send {
        /// Transport address (a `from` previously seen, or the configured
        /// parent).
        to: Endpoint,
        /// The document to serialize.
        msg: Message,
    },
    /// Begin a scheduling decision for `source`, charging `cost` seconds
    /// of CPU; feed [`CoreInput::DecisionDue`] back when it completes.
    StartDecision {
        /// The overloaded host the decision is for.
        source: Arc<str>,
        /// CPU seconds the decision costs (the paper measures 0.002 s).
        cost: f64,
    },
    /// Arm a one-shot timer; feed [`CoreInput::TimerFired`] back when it
    /// expires.
    ArmTimer {
        /// Core-allocated handle identifying the timer.
        timer: TimerId,
        /// Delay from now.
        after: SimDuration,
    },
    /// Emit a trace line (the DES kernel's replayable trace).
    Trace {
        /// Trace category.
        kind: TraceKind,
        /// Trace text.
        detail: String,
    },
    /// Record an entry in the shared decision log.
    Log(LogEffect),
}

/// A decision-log update carried by [`CoreEffect::Log`]. Drivers apply it
/// to whatever [`ReschedLog`](crate::hooks::ReschedLog) they share with
/// tests and harnesses.
#[derive(Debug, Clone)]
pub enum LogEffect {
    /// A scheduling decision completed (with or without a destination).
    Decision(DecisionRecord),
    /// A migration command went out to a commander.
    CommandSent,
    /// An unacknowledged command was retransmitted.
    CommandRetransmit,
    /// A command was abandoned (retries exhausted or commander rejection).
    CommandAborted,
}

/// Registry/scheduler configuration.
pub struct RegistryConfig {
    /// Policy whose destination conditions gate candidate hosts.
    pub policy: Policy,
    /// Soft-state lease; entries older than this are unavailable.
    pub lease: SimDuration,
    /// CPU cost of one migration decision (the paper measures 0.002 s).
    pub decision_cost: f64,
    /// Minimum spacing between commands to the same source host.
    pub command_cooldown: SimDuration,
    /// Parent registry in a hierarchy. A registry with a parent pushes
    /// health reports to it, watches it through the report ACKs, and
    /// escalates searches its own domain cannot satisfy.
    pub parent: Option<Endpoint>,
    /// Where to re-parent when the parent is declared Down: the parent's
    /// own parent, carried down by `deploy_tree`. `None` for the root's
    /// children, which buffer-and-retry instead.
    pub grandparent: Option<Endpoint>,
    /// Domain name (diagnostics).
    pub name: String,
    /// Process-selection policy.
    pub selection: SelectionPolicy,
    /// Pull-based scheduling (§3.2's alternative): instead of relying on
    /// the periodic push heartbeats, query every host's monitor for fresh
    /// status when a decision is expected, and decide once all replies are
    /// in. More accurate data, slower decisions.
    pub pull: bool,
    /// How long to wait for a commander's [`Message::CommandAck`] before
    /// retransmitting a migration command (doubles per attempt).
    pub ack_timeout: SimDuration,
    /// Retransmits before a command is abandoned and the source becomes
    /// eligible for a fresh decision (destination re-selection).
    pub max_command_retries: u32,
    /// Minimum spacing between [`Message::DomainReport`] summaries a
    /// registry pushes to its parent. Only consulted when `parent` is set,
    /// so flat deployments emit nothing new.
    pub health_report_every: SimDuration,
    /// Observability session (detector transitions, candidate rejections,
    /// command retransmits/aborts, scan-length histograms). The disabled
    /// default is a no-op and an enabled session never changes a decision.
    pub obs: ars_obs::Obs,
    /// Malleable applications this registry may grow/shrink by rule.
    /// Empty by default, in which case the heartbeat path never evaluates
    /// capacity rules and effect streams are byte-identical.
    pub malleable_jobs: Vec<MalleableJob>,
    /// Minimum spacing between reconfiguration commands to the same
    /// malleable job (a resize settles before the next is considered).
    pub resize_cooldown: SimDuration,
}

impl RegistryConfig {
    /// Stand-alone registry with the given policy.
    pub fn new(policy: Policy) -> Self {
        RegistryConfig {
            policy,
            lease: SimDuration::from_secs(35),
            decision_cost: 0.002,
            command_cooldown: SimDuration::from_secs(30),
            parent: None,
            grandparent: None,
            name: "root".to_string(),
            selection: SelectionPolicy::default(),
            pull: false,
            ack_timeout: SimDuration::from_secs(5),
            max_command_retries: 3,
            health_report_every: SimDuration::from_secs(10),
            obs: ars_obs::Obs::disabled(),
            malleable_jobs: Vec::new(),
            resize_cooldown: SimDuration::from_secs(30),
        }
    }

    /// A core-built `Register { role: Registry }` introducing this registry
    /// to a (new or restarted) parent. Only the name matters to the parent
    /// (it keys children by endpoint); the driver-issued registration at
    /// startup carries the real address.
    fn intro(&self) -> Message {
        Message::Register {
            host: HostStatic {
                name: self.name.clone(),
                ip: "0.0.0.0".to_string(),
                os: "registry".to_string(),
                cpu_speed: 0.0,
                n_cpus: 0,
                mem_kb: 0,
            },
            role: EntityRole::Registry,
        }
    }
}

/// What an armed [`TimerId`] is for. Every outstanding deadline lives in
/// one table keyed by its id: whoever disarms a deadline (an ack, a timely
/// reply, a cancelled wait) removes the entry, so a firing that finds
/// nothing is by construction stale and is ignored.
enum Timer {
    /// Retransmit deadline of an unacknowledged command.
    Command(PendingCommand),
    /// A registry with children: deadline of the downward probe a
    /// cross-domain search has in flight.
    Probe,
    /// A registry with a parent: deadline of one queued wait on the
    /// parent's reply.
    ParentWait,
}

/// This registry's own domain: the host table, the decisions and commands
/// in flight over it, and the facilities every concern shares (the
/// configuration and the timer table). Everything here is meaningful for a
/// flat registry; what exists only because of a parent or children is in
/// [`Tree`], whose methods borrow the domain.
struct Domain {
    cfg: RegistryConfig,
    schemas: SchemaBook,
    /// Hosts in registration order (first-fit order). This is the arena:
    /// every per-host datum lives in the row, and the only name-keyed map
    /// is `index`, consulted at message-decode boundaries.
    hosts: Vec<HostEntry>,
    index: FxHashMap<Arc<str>, usize>,
    /// Hosts whose last *reported* state accepts migrations, by
    /// registration index. Lease expiry can only disqualify a host, never
    /// qualify one, so this is a sound candidate superset for `first_fit`
    /// — and iterating the set ascending reproduces the linear scan's
    /// first-fit order exactly.
    free_hosts: BTreeSet<usize>,
    /// Decisions started (via [`CoreEffect::StartDecision`]) but not yet
    /// due — the dedup set that stops every heartbeat of a sustained
    /// overload from piling up decisions. Survives [`CoreInput::Restart`]:
    /// the in-flight decisions still complete on the driver's side.
    queued_decisions: Vec<Arc<str>>,
    /// Every outstanding deadline, by timer id.
    timers: HashMap<TimerId, Timer>,
    /// Next timer id to allocate (monotone; never reused).
    next_timer: u64,
    pull_round: Option<PullRound>,
    /// When the detector-observation sweep last ran (rate limit).
    last_obs_sweep: SimTime,
    /// Effect sink of the input being handled: the caller's buffer, swapped
    /// in for the duration of [`RegistryCore::handle`] and empty otherwise.
    out: Vec<CoreEffect>,
}

impl Domain {
    /// Arm a deadline and record what it is for.
    fn arm_timer(&mut self, after: SimDuration, what: Timer) -> TimerId {
        let timer = TimerId(self.next_timer);
        self.next_timer += 1;
        self.out.push(CoreEffect::ArmTimer { timer, after });
        self.timers.insert(timer, what);
        timer
    }

    fn send(&mut self, to: Endpoint, msg: Message) {
        self.out.push(CoreEffect::Send { to, msg });
    }

    fn trace(&mut self, kind: TraceKind, detail: impl Into<String>) {
        let detail = detail.into();
        self.out.push(CoreEffect::Trace { kind, detail });
    }

    /// Append a completed decision (with or without a destination) to the
    /// decision log.
    fn log_decision(
        &mut self,
        now: SimTime,
        source: &str,
        dest: Option<&str>,
        pid: Option<u64>,
        escalated: bool,
    ) {
        let record = DecisionRecord {
            at: now,
            source: source.to_string(),
            dest: dest.map(str::to_string),
            pid,
            escalated,
        };
        self.out.push(CoreEffect::Log(LogEffect::Decision(record)));
    }
}

/// The transport-agnostic registry/scheduler state machine. See the
/// module docs for the contract; drivers call [`handle`](Self::handle) and
/// replay the returned effects.
pub struct RegistryCore {
    domain: Domain,
    tree: Tree,
}

impl RegistryCore {
    /// Create a core from its configuration and the shared schema book.
    pub fn new(cfg: RegistryConfig, schemas: SchemaBook) -> Self {
        RegistryCore {
            domain: Domain {
                cfg,
                schemas,
                hosts: Vec::new(),
                index: FxHashMap::default(),
                free_hosts: BTreeSet::new(),
                queued_decisions: Vec::new(),
                timers: HashMap::new(),
                next_timer: 0,
                pull_round: None,
                last_obs_sweep: SimTime::ZERO,
                out: Vec::new(),
            },
            tree: Tree::new(SimTime::ZERO),
        }
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &RegistryConfig {
        &self.domain.cfg
    }

    /// Registered host entries in first-fit order (diagnostics/tests).
    pub fn entries(&self) -> &[HostEntry] {
        &self.domain.hosts
    }

    /// Whether `host` is currently registered.
    pub fn knows_host(&self, host: &str) -> bool {
        self.domain.index.contains_key(host)
    }

    /// The domain's aggregate *health condition* (§3.2: each lower-level
    /// registry "has its own health condition, which indicates its overall
    /// workload and availability of each kind of resource").
    pub fn domain_health(&self, now: SimTime) -> DomainHealth {
        self.domain.health(now)
    }

    /// Child registries' latest health reports, in registration order
    /// (hierarchy diagnostics; empty on a leaf or an unreporting root).
    pub fn child_domains(&self) -> Vec<(String, DomainHealth)> {
        self.tree.child_domains()
    }

    /// This registry's own hosts plus every child subtree's latest report
    /// — what a mid-level registry pushes to *its* parent, so per-level
    /// aggregation composes to any depth.
    pub fn subtree_health(&self, now: SimTime) -> DomainHealth {
        self.tree.subtree_health(&self.domain, now)
    }

    /// Read-only destination query: the host first-fit would pick for
    /// `req` right now, excluding `exclude`. This is the *single* search
    /// every driver uses — the same call that backs migration commands —
    /// exposed for tests and benches.
    pub fn destination_for(
        &self,
        req: &ResourceRequirements,
        exclude: &str,
        now: SimTime,
    ) -> Option<&HostEntry> {
        let d = &self.domain;
        d.first_fit(req, exclude, now).map(|i| &d.hosts[i])
    }

    /// Feed one input; effects are appended to `out` in the order they
    /// must be applied.
    pub fn handle(&mut self, now: SimTime, input: CoreInput, out: &mut Vec<CoreEffect>) {
        std::mem::swap(out, &mut self.domain.out);
        let RegistryCore { domain, tree } = self;
        match input {
            CoreInput::Message { from, msg } => self.on_message(now, from, msg),
            CoreInput::DecisionDue { source } => {
                if let Some((parent, wait)) = domain.decide(now, source) {
                    tree.escalate_decision(domain, parent, wait);
                }
            }
            CoreInput::TimerFired(timer) => match domain.timers.remove(&timer) {
                Some(Timer::Command(p)) => domain.on_ack_timeout(now, p),
                Some(Timer::Probe) => tree.on_probe_timeout(domain, now, timer),
                Some(Timer::ParentWait) => tree.on_wait_timeout(domain, now, timer),
                // Disarmed before the deadline (see [`Timer`]), or dropped
                // by a restart.
                None => {}
            },
            CoreInput::Restart => self.restart(now),
        }
        std::mem::swap(out, &mut self.domain.out);
    }

    fn on_message(&mut self, now: SimTime, from: Endpoint, msg: Message) {
        let RegistryCore { domain, tree } = self;
        match msg {
            Message::Register {
                host,
                role: EntityRole::Registry,
            } => tree.on_child_register(domain, now, from, host.name),
            Message::Register { host, role } => domain.on_register(now, from, host, role),
            Message::Heartbeat {
                host,
                state,
                metrics,
                procs,
            } => {
                if domain.on_heartbeat(now, from, host, state, metrics, procs) {
                    tree.maybe_report_health(domain, now);
                    domain.maybe_resize(now);
                }
            }
            Message::CandidateRequest { host, requirements } => {
                tree.on_candidate_request(domain, now, from, host, requirements)
            }
            Message::CandidateReply { dest } => tree.on_candidate_reply(domain, now, from, dest),
            Message::MigrationComplete { from: src, to, .. } => domain.trace(
                TraceKind::Custom,
                format!("registry: migration complete {src} -> {to}"),
            ),
            Message::CommandAck { host, pid, ok } => domain.on_command_ack(now, host, pid, ok),
            Message::DomainReport {
                domain: child,
                free,
                busy,
                overloaded,
                unavailable,
                load_sum,
                load_samples,
            } => {
                let health = DomainHealth {
                    free,
                    busy,
                    overloaded,
                    unavailable,
                    load_sum,
                    load_samples,
                };
                tree.on_domain_report(domain, now, from, child, health)
            }
            Message::Ack { ok: true, .. } => tree.on_parent_ack(domain, now, from),
            Message::ReRegister { .. } => tree.on_reregister_nudge(domain, now, from),
            Message::Ack { .. }
            | Message::MigrationCommand { .. }
            | Message::StatusQuery { .. } => {}
        }
    }

    /// Process-restart fault: drop all soft state, exactly as a freshly
    /// exec'd registry would start. Monitors repopulate it — their next
    /// heartbeat gets a [`Message::ReRegister`] nudge and they re-introduce
    /// their host. In-flight decision completions (`queued_decisions`) are
    /// kept: those are already queued on the driver's side and will still
    /// arrive.
    fn restart(&mut self, now: SimTime) {
        let d = &mut self.domain;
        d.trace(
            TraceKind::Recovery,
            format!(
                "registry {}: restarted, soft state lost ({} hosts)",
                d.cfg.name,
                d.hosts.len()
            ),
        );
        d.hosts.clear();
        d.index.clear();
        d.free_hosts.clear();
        d.timers.clear();
        d.pull_round = None;
        d.last_obs_sweep = SimTime::ZERO;
        self.tree = Tree::new(now);
        // A freshly exec'd registry introduces itself to its parent, so the
        // parent can purge searches the old incarnation owned (and the
        // subtree link is re-established without waiting for a nudge).
        if let Some(parent) = d.cfg.parent {
            d.send(parent, d.cfg.intro());
        }
    }

    /// Debug check of the state invariants that hold between any two
    /// inputs: an empty effect sink, timer ids below the allocator, the
    /// free-host index in sync with the reported states, and the
    /// hierarchy's waits and probe paired one-to-one with their deadlines
    /// in the timer table. Used by the unit tests after every step; not
    /// part of the public API.
    #[doc(hidden)]
    pub fn debug_invariants_hold(&self) -> bool {
        let d = &self.domain;
        let accepting = (0..d.hosts.len()).filter(|&i| d.hosts[i].state.accepts_migration());
        d.out.is_empty()
            && d.timers.keys().all(|t| t.0 < d.next_timer)
            && d.free_hosts.iter().copied().eq(accepting)
            && self.tree.invariants_hold(&d.timers)
    }
}

/// Helpers shared by the unit tests of every `regcore` module: they drive a
/// core the way the drivers do, and [`feed`](testkit::feed) asserts the
/// state invariants after every single input.
#[cfg(test)]
mod testkit {
    pub use super::*;
    pub use crate::hooks::SchemaBook;
    pub use ars_rules::Policy;
    pub use ars_xmlwire::{HostState, HostStatic, Metrics, ProcReport};

    pub fn report(pid: u64, start: f64, est: f64) -> ProcReport {
        ProcReport {
            pid,
            app: format!("app{pid}"),
            start_time_s: start,
            est_exec_time_s: est,
        }
    }

    pub fn test_core(policy: Policy) -> RegistryCore {
        let mut cfg = RegistryConfig::new(policy);
        cfg.name = "test".to_string();
        RegistryCore::new(cfg, SchemaBook::new())
    }

    pub fn at(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    pub fn feed(core: &mut RegistryCore, now: f64, input: CoreInput) -> Vec<CoreEffect> {
        let mut out = Vec::new();
        core.handle(at(now), input, &mut out);
        assert!(
            core.debug_invariants_hold(),
            "state invariants broken after an input at t={now}; effects: {out:?}"
        );
        out
    }

    pub fn msg(core: &mut RegistryCore, now: f64, from: u64, msg: Message) -> Vec<CoreEffect> {
        feed(
            core,
            now,
            CoreInput::Message {
                from: Endpoint(from),
                msg,
            },
        )
    }

    pub fn statics(name: &str) -> HostStatic {
        HostStatic {
            name: name.to_string(),
            ip: format!("10.0.0.{}", name.len()),
            os: "SunOS 5.8".to_string(),
            cpu_speed: 1.0,
            n_cpus: 1,
            mem_kb: 131_072,
        }
    }

    /// Register monitor (endpoint `conn`) and commander (`conn + 1`).
    pub fn register(core: &mut RegistryCore, now: f64, conn: u64, name: &str) {
        msg(
            core,
            now,
            conn,
            Message::Register {
                host: statics(name),
                role: EntityRole::Monitor,
            },
        );
        msg(
            core,
            now,
            conn + 1,
            Message::Register {
                host: statics(name),
                role: EntityRole::Commander,
            },
        );
    }

    pub fn good_metrics() -> Metrics {
        let mut m = Metrics::new();
        m.set("loadAvg1", 0.2);
        m.set("nproc", 10.0);
        m.set("memAvail", 50.0);
        m.set("diskAvailKb", 4_000_000.0);
        m
    }

    pub fn heartbeat(
        core: &mut RegistryCore,
        now: f64,
        conn: u64,
        name: &str,
        state: HostState,
        metrics: Metrics,
        procs: Vec<ProcReport>,
    ) -> Vec<CoreEffect> {
        msg(
            core,
            now,
            conn,
            Message::Heartbeat {
                host: name.to_string(),
                state,
                metrics,
                procs,
            },
        )
    }

    pub fn register_child(core: &mut RegistryCore, conn: u64, name: &str) {
        msg(
            core,
            0.0,
            conn,
            Message::Register {
                host: statics(name),
                role: EntityRole::Registry,
            },
        );
    }

    pub fn domain_report(free: u32) -> Message {
        Message::DomainReport {
            domain: "d".to_string(),
            free,
            busy: 0,
            overloaded: 0,
            unavailable: 0,
            load_sum: 0.0,
            load_samples: 0,
        }
    }

    pub fn cand_req() -> Message {
        Message::CandidateRequest {
            host: String::new(),
            requirements: ResourceRequirements::default(),
        }
    }

    pub fn armed_timer(fx: &[CoreEffect]) -> TimerId {
        fx.iter()
            .find_map(|e| match e {
                CoreEffect::ArmTimer { timer, .. } => Some(*timer),
                _ => None,
            })
            .expect("expected an ArmTimer effect")
    }

    pub fn sends_to(fx: &[CoreEffect], ep: u64) -> bool {
        fx.iter()
            .any(|e| matches!(e, CoreEffect::Send { to: Endpoint(p), .. } if *p == ep))
    }

    /// A registry named `name` inside a tree: parent and grandparent
    /// endpoints as `deploy_tree` would fill them.
    pub fn tree_core(name: &str, parent: Option<u64>, grandparent: Option<u64>) -> RegistryCore {
        let mut cfg = RegistryConfig::new(Policy::no_migration());
        cfg.name = name.to_string();
        cfg.parent = parent.map(Endpoint);
        cfg.grandparent = grandparent.map(Endpoint);
        RegistryCore::new(cfg, SchemaBook::new())
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;

    #[test]
    fn restart_drops_soft_state_and_later_heartbeats_get_a_reregister_nudge() {
        let mut core = test_core(Policy::no_migration());
        register(&mut core, 0.0, 10, "a");
        assert!(core.knows_host("a"));
        let fx = feed(&mut core, 5.0, CoreInput::Restart);
        assert!(matches!(fx.as_slice(), [CoreEffect::Trace { .. }]));
        assert!(!core.knows_host("a"));
        assert!(core.entries().is_empty());
        let fx = heartbeat(
            &mut core,
            6.0,
            10,
            "a",
            HostState::Free,
            good_metrics(),
            vec![],
        );
        assert!(
            matches!(
                fx.as_slice(),
                [CoreEffect::Trace { .. }, CoreEffect::Send { to: Endpoint(10), msg: Message::ReRegister { host } }] if host == "a"
            ),
            "expected a ReRegister nudge, got {fx:?}"
        );
    }

    #[test]
    fn a_core_with_no_parent_and_no_children_sends_no_acks_and_arms_only_command_timers() {
        // Flat deployments reach none of the hierarchy protocol: whatever
        // arrives, the only deadline ever armed is a command's ack timeout
        // and nothing is ever acknowledged or reported.
        let mut core = test_core(Policy::no_migration());
        register(&mut core, 0.0, 10, "a");
        register(&mut core, 0.0, 20, "b");
        let mut all = heartbeat(
            &mut core,
            1.0,
            10,
            "a",
            HostState::Overloaded,
            good_metrics(),
            vec![report(7, 0.0, 100.0)],
        );
        all.extend(feed(
            &mut core,
            1.0,
            CoreInput::DecisionDue {
                source: Arc::from("a"),
            },
        ));
        // With `b` now taken, a foreign search finds nothing and is
        // answered on the spot — no probe, no wait.
        let fx = msg(&mut core, 2.0, 30, cand_req());
        assert!(
            matches!(
                fx.as_slice(),
                [CoreEffect::Send {
                    to: Endpoint(30),
                    msg: Message::CandidateReply { dest: None }
                }]
            ),
            "{fx:?}"
        );
        all.extend(fx);
        let ack = Message::Ack {
            ok: true,
            info: "p".into(),
        };
        all.extend(msg(&mut core, 3.0, 30, ack));
        for (i, e) in all.iter().enumerate() {
            match e {
                CoreEffect::ArmTimer { .. } => assert!(
                    matches!(
                        all[i - 1],
                        CoreEffect::Send {
                            msg: Message::MigrationCommand { .. },
                            ..
                        }
                    ),
                    "a non-command timer was armed: {all:?}"
                ),
                CoreEffect::Send { msg, .. } => assert!(
                    !matches!(msg, Message::Ack { .. } | Message::DomainReport { .. }),
                    "hierarchy traffic from a flat core: {all:?}"
                ),
                _ => {}
            }
        }
        assert!(
            all.iter().any(|e| matches!(e, CoreEffect::ArmTimer { .. })),
            "the command's ack deadline should have been armed: {all:?}"
        );
    }
}
