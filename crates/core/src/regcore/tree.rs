//! The registry hierarchy: what a registry does because it has a parent
//! or children. A flat registry has neither, so nothing here runs for it.
//! A tree of registries would otherwise be a tree of single points of
//! failure (a crashed mid-level registry orphans its subtree and strands
//! every search waiting on it), so the one protocol is fault tolerant:
//!
//! * **with children**, a registry ACKs every [`Message::DomainReport`],
//!   nudges unknown reporters to re-register, ages children that stopped
//!   reporting out of probe priority and upward aggregation, and bounds
//!   every downward probe of a cross-domain search with a deadline;
//! * **with a parent**, it pushes rate-limited subtree-health reports,
//!   counts unacknowledged ones as a parent-liveness detector, re-parents
//!   to its grandparent when the parent is Down (or backs off when there
//!   is none), and bounds every wait on a parent reply with a deadline — a
//!   timed-out escalation resolves empty and the decision retries locally.

use super::decide::AwaitingParent;
use super::{Domain, DomainHealth, Endpoint, Liveness, Timer, TimerId};
use ars_obs::ObsEvent;
use ars_sim::TraceKind;
use ars_simcore::{SimDuration, SimTime};
use ars_xmlwire::{HostState, Message, ResourceRequirements};
use std::collections::{HashMap, VecDeque};

/// Consecutive unacknowledged domain reports before the parent is Suspect.
const SUSPECT_AFTER: u32 = 2;
/// Consecutive unacknowledged domain reports before the parent is declared
/// Down (re-parent or back off).
const DOWN_AFTER: u32 = 4;
/// Deadline for one downward child probe of a cross-domain search; on
/// expiry the child counts as empty-handed and the search moves on.
const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// Deadline for a [`ParentWait`]; on expiry the wait is cancelled and
/// resolved empty (the decision falls back to a fresh local search on the
/// next overloaded heartbeat).
const WAIT_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Age beyond which a child's last [`Message::DomainReport`] no longer
/// earns it priority: stale children are probed last and excluded from
/// upward subtree aggregation.
const CHILD_HEALTH_TTL: SimDuration = SimDuration::from_secs(45);
/// Cap for the buffer-and-retry report backoff used when the parent is
/// Down and there is no grandparent to fall back to.
const MAX_REPORT_BACKOFF: SimDuration = SimDuration::from_secs(80);

/// A parent-side search over children domains. The probe order is fixed
/// when the search starts: children are stable-sorted by descending free
/// capacity from their latest [`Message::DomainReport`] (no report counts
/// as zero, so an unreporting hierarchy degrades to registration order).
/// When every child comes up empty and this registry itself has a parent,
/// the search is relayed one level up (depth-k escalation) before giving
/// up.
struct Escalation {
    requester: Endpoint,
    requirements: ResourceRequirements,
    probe: Vec<Endpoint>,
    next: usize,
    /// The search was relayed to our own parent; the escalation completes
    /// when that reply arrives (and a duplicated child reply must not
    /// re-ask).
    asked_parent: bool,
    /// Deadline for the probe currently in flight. A timely reply disarms
    /// it; expiry counts the child as empty-handed.
    deadline: Option<TimerId>,
}

/// A child registry of this core, with the latest domain-health summary it
/// reported (mid-level registries report their whole subtree as one).
struct Child {
    name: String,
    ep: Endpoint,
    health: Option<DomainHealth>,
    /// When the latest report (or the registration) arrived.
    last_report: SimTime,
}

impl Child {
    /// A child that stopped reporting is likely dead (or partitioned off):
    /// true when its last report (or its registration, if it never
    /// reported) is older than the TTL.
    fn is_stale(&self, now: SimTime) -> bool {
        now.since(self.last_report) > CHILD_HEALTH_TTL
    }
}

/// What a [`ParentWait`] resolves.
enum Waiting {
    /// One of our own decisions escalated upward.
    Decision(AwaitingParent),
    /// A cross-domain search we relayed upward; the reply resolves our
    /// active escalation.
    Relay,
}

/// Something waiting on a reply from our parent, in request order (the
/// parent serializes its searches, so replies come back FIFO), bounded by
/// its own deadline in the timer table.
struct ParentWait {
    what: Waiting,
    deadline: TimerId,
}

/// All hierarchy state of a registry. A restart replaces it wholesale.
pub(super) struct Tree {
    /// Child registries in registration order, each with its latest
    /// reported health.
    children: Vec<Child>,
    escalation: Option<Escalation>,
    escalation_queue: VecDeque<(Endpoint, ResourceRequirements)>,
    awaiting_parent: VecDeque<ParentWait>,
    /// Parent replies to discard before pairing resumes: when a wait times
    /// out the parent may still answer it, and since replies come back
    /// FIFO the *next* reply after a timeout belongs to the abandoned wait.
    stale_parent_replies: u32,
    /// Consecutive domain reports pushed without a parent ACK (the
    /// parent-liveness detector's counter).
    reports_unacked: u32,
    /// Parent-liveness verdict (same scale as the host detector).
    parent_state: Liveness,
    /// Last time the parent was provably alive (an ACK, registration, or a
    /// re-parent); re-parenting latency is measured from here.
    parent_last_ok: SimTime,
    /// Buffer-and-retry: widened report spacing while the parent is Down
    /// with no grandparent to fall back to (doubles per silent report, up
    /// to [`MAX_REPORT_BACKOFF`]).
    report_backoff: Option<SimDuration>,
    /// When this registry last pushed a [`Message::DomainReport`] upward.
    last_health_report: SimTime,
}

impl Tree {
    /// The hierarchy state of a registry (re)started at `now`.
    pub(super) fn new(now: SimTime) -> Self {
        Tree {
            children: Vec::new(),
            escalation: None,
            escalation_queue: VecDeque::new(),
            awaiting_parent: VecDeque::new(),
            stale_parent_replies: 0,
            reports_unacked: 0,
            parent_state: Liveness::Alive,
            parent_last_ok: now,
            report_backoff: None,
            last_health_report: SimTime::ZERO,
        }
    }

    /// See [`RegistryCore::child_domains`](super::RegistryCore::child_domains).
    pub(super) fn child_domains(&self) -> Vec<(String, DomainHealth)> {
        self.children
            .iter()
            .map(|c| (c.name.clone(), c.health.unwrap_or_default()))
            .collect()
    }

    /// See [`RegistryCore::subtree_health`](super::RegistryCore::subtree_health).
    pub(super) fn subtree_health(&self, dom: &Domain, now: SimTime) -> DomainHealth {
        let mut h = dom.health(now);
        // Folding a stale child's last report into the upward summary
        // would advertise capacity that no longer answers. Age it out
        // instead of trusting it forever.
        for c in self.children.iter().filter(|c| !c.is_stale(now)) {
            if let Some(ch) = &c.health {
                h.merge(ch);
            }
        }
        h
    }

    /// The hierarchy's half of
    /// [`RegistryCore::debug_invariants_hold`](super::RegistryCore::debug_invariants_hold):
    /// every queued wait owns exactly one `ParentWait` deadline in the
    /// timer table and vice versa, likewise the probe in flight and the
    /// `Probe` deadline, and the wait FIFO never mixes its two kinds.
    pub(super) fn invariants_hold(&self, timers: &HashMap<TimerId, Timer>) -> bool {
        let count = |want: fn(&Timer) -> bool| timers.values().filter(|t| want(t)).count();
        let waits = &self.awaiting_parent;
        let probe = self.escalation.as_ref().and_then(|e| e.deadline);
        waits
            .iter()
            .all(|w| matches!(timers.get(&w.deadline), Some(Timer::ParentWait)))
            && count(|t| matches!(t, Timer::ParentWait)) == waits.len()
            && probe.is_none_or(|t| matches!(timers.get(&t), Some(Timer::Probe)))
            && count(|t| matches!(t, Timer::Probe)) == usize::from(probe.is_some())
            && waits
                .iter()
                .all(|w| std::mem::discriminant(&w.what) == std::mem::discriminant(&waits[0].what))
    }

    // --- With children: registration and health reports ----------------------

    /// A child registry introduced itself (startup, restart or re-parent).
    pub(super) fn on_child_register(
        &mut self,
        dom: &mut Domain,
        now: SimTime,
        from: Endpoint,
        name: String,
    ) {
        let Some(c) = self.children.iter_mut().find(|c| c.ep == from) else {
            self.children.push(Child {
                name,
                ep: from,
                health: None,
                last_report: now,
            });
            return;
        };
        // A re-register means the child process restarted and lost its
        // soft state — including any in-flight search it asked us for. A
        // queued request from it is now unowned, and an active search on
        // its behalf would deliver a reply the fresh child never asked for,
        // poisoning its FIFO pairing with its own parent. Purge both, and
        // reset its health: the old report described a process that no
        // longer exists.
        c.name = name;
        c.health = None;
        c.last_report = now;
        let queued = self.escalation_queue.len();
        self.escalation_queue.retain(|(ep, _)| *ep != from);
        let dropped = queued - self.escalation_queue.len();
        let active = self
            .escalation
            .as_ref()
            .is_some_and(|esc| esc.requester == from);
        if active {
            self.clear_escalation(dom);
        }
        if dropped > 0 || active {
            dom.trace(
                TraceKind::Recovery,
                format!(
                    "registry {}: child restarted, cancelled {} search(es) it owned",
                    dom.cfg.name,
                    dropped + usize::from(active)
                ),
            );
            self.pump_escalation_queue(dom, now);
        }
    }

    /// A child pushed its subtree's health.
    pub(super) fn on_domain_report(
        &mut self,
        dom: &mut Domain,
        now: SimTime,
        from: Endpoint,
        child: String,
        health: DomainHealth,
    ) {
        if let Some(c) = self.children.iter_mut().find(|c| c.ep == from) {
            c.health = Some(health);
            c.last_report = now;
            // Acknowledge the report so the child can run its
            // parent-liveness detector against the ACK stream (symmetric
            // to hosts' heartbeat detector).
            let info = dom.cfg.name.clone();
            dom.send(from, Message::Ack { ok: true, info });
        } else {
            // Unknown reporter — we restarted and lost the child list.
            // Nudge it to re-introduce itself, mirroring the heartbeat
            // path's soft-state reconstruction.
            dom.trace(
                TraceKind::Recovery,
                format!(
                    "registry {}: report from unknown child {child}, asking to re-register",
                    dom.cfg.name
                ),
            );
            dom.send(from, Message::ReRegister { host: child });
        }
        // A mid-level registry folds the fresh child summary into its own
        // upward report (roots have no parent: no-op).
        self.maybe_report_health(dom, now);
    }

    // --- With a parent: reports, the ACK detector, re-parenting --------------

    /// Push a rate-limited [`Message::DomainReport`] to the parent so its
    /// cross-domain search can prefer the domain with the most free
    /// capacity. A no-op without a parent, so flat deployments' effect
    /// streams are untouched.
    pub(super) fn maybe_report_health(&mut self, dom: &mut Domain, now: SimTime) {
        let Some(parent) = dom.cfg.parent else {
            return;
        };
        // Buffer-and-retry: while the parent is Down with no grandparent,
        // reports keep flowing (they double as the probe that discovers
        // recovery) but at a backed-off cadence.
        let every = self.report_backoff.unwrap_or(dom.cfg.health_report_every);
        if self.last_health_report != SimTime::ZERO && now.since(self.last_health_report) < every {
            return;
        }
        self.last_health_report = now;
        let h = self.subtree_health(dom, now);
        let report = Message::DomainReport {
            domain: dom.cfg.name.clone(),
            free: h.free,
            busy: h.busy,
            overloaded: h.overloaded,
            unavailable: h.unavailable,
            load_sum: h.load_sum,
            load_samples: h.load_samples,
        };
        dom.send(parent, report);
        self.reports_unacked += 1;
        self.check_parent_liveness(dom, now);
    }

    /// The parent acknowledged a domain report: it is provably alive.
    pub(super) fn on_parent_ack(&mut self, dom: &mut Domain, now: SimTime, from: Endpoint) {
        if Some(from) != dom.cfg.parent {
            return;
        }
        self.reports_unacked = 0;
        self.parent_last_ok = now;
        if self.parent_state != Liveness::Alive {
            dom.trace(
                TraceKind::Recovery,
                format!("registry {}: parent is alive again", dom.cfg.name),
            );
            self.parent_state = Liveness::Alive;
        }
        if self.report_backoff.take().is_some() {
            // Resume the normal cadence promptly after the backed-off probe
            // that found the parent again.
            self.last_health_report = SimTime::ZERO;
        }
    }

    /// Evaluate the detector after a report went out unanswered. Thresholds
    /// are counted in consecutive unacknowledged reports, so detection
    /// needs no extra timers: the report stream (driven by heartbeats and
    /// child reports) is the clock.
    fn check_parent_liveness(&mut self, dom: &mut Domain, now: SimTime) {
        let unacked = self.reports_unacked;
        if self.parent_state == Liveness::Alive && (SUSPECT_AFTER..DOWN_AFTER).contains(&unacked) {
            self.parent_state = Liveness::Suspect;
            dom.trace(
                TraceKind::Recovery,
                format!(
                    "registry {}: parent suspect ({unacked} reports unacked)",
                    dom.cfg.name
                ),
            );
            dom.cfg.obs.inc("parents_suspected");
            let registry = dom.cfg.name.clone();
            dom.cfg.obs.record(now, || ObsEvent::ParentSuspect {
                registry,
                missed_acks: unacked,
            });
            return;
        }
        if self.parent_state != Liveness::Down && unacked >= DOWN_AFTER {
            self.parent_state = Liveness::Down;
            dom.trace(
                TraceKind::Recovery,
                format!(
                    "registry {}: parent down ({unacked} reports unacked)",
                    dom.cfg.name
                ),
            );
            dom.cfg.obs.inc("parents_down");
            let registry = dom.cfg.name.clone();
            dom.cfg.obs.record(now, || ObsEvent::ParentDown {
                registry,
                missed_acks: unacked,
            });
            self.on_parent_down(dom, now);
            return;
        }
        if self.parent_state == Liveness::Down {
            if let Some(b) = self.report_backoff {
                // Still silent: widen the retry spacing (capped).
                self.report_backoff = Some(doubled_backoff(b));
            }
        }
    }

    /// The parent is Down: re-parent to the grandparent when the topology
    /// offers one, else fall back to buffer-and-retry. Either way, every
    /// wait on the dead parent is cancelled — its replies are not coming.
    fn on_parent_down(&mut self, dom: &mut Domain, now: SimTime) {
        self.cancel_parent_waits(dom, now, "parent down");
        // Replies the dead parent owed us will never arrive; expecting to
        // discard them would eat the first replies of a future parent.
        self.stale_parent_replies = 0;
        match dom.cfg.grandparent.take() {
            Some(gp) if Some(gp) != dom.cfg.parent => {
                let orphaned_s = now.since(self.parent_last_ok).as_secs_f64();
                dom.trace(
                    TraceKind::Recovery,
                    format!(
                        "registry {}: re-parenting to grandparent after {orphaned_s:.1}s orphaned",
                        dom.cfg.name
                    ),
                );
                dom.cfg.parent = Some(gp);
                self.parent_state = Liveness::Alive;
                self.reports_unacked = 0;
                self.parent_last_ok = now;
                self.report_backoff = None;
                dom.cfg.obs.inc("children_reparented");
                dom.cfg.obs.observe("reparent_delay_s", orphaned_s);
                let registry = dom.cfg.name.clone();
                dom.cfg.obs.record(now, || ObsEvent::ChildReparented {
                    registry,
                    orphaned_s,
                });
                dom.send(gp, dom.cfg.intro());
                // Introduce our subtree's health promptly.
                self.last_health_report = SimTime::ZERO;
            }
            _ => {
                // The root's children have nowhere to go: keep reporting
                // into the void with capped exponential backoff until the
                // parent is rebuilt (its restart answers our next report
                // with a ReRegister nudge).
                let b = self.report_backoff.unwrap_or(dom.cfg.health_report_every);
                self.report_backoff = Some(doubled_backoff(b));
                dom.trace(
                    TraceKind::Recovery,
                    format!(
                        "registry {}: no grandparent, buffering reports with backoff",
                        dom.cfg.name
                    ),
                );
            }
        }
    }

    /// The parent says it does not know us (it restarted): re-introduce
    /// ourselves and drop every expectation about its pre-restart state.
    pub(super) fn on_reregister_nudge(&mut self, dom: &mut Domain, now: SimTime, from: Endpoint) {
        if Some(from) != dom.cfg.parent {
            return;
        }
        dom.send(from, dom.cfg.intro());
        // The restarted parent has no memory of requests we sent before it
        // died: no replies to them are owed or expected, and waits on them
        // would otherwise hang until their deadline.
        self.stale_parent_replies = 0;
        self.cancel_parent_waits(dom, now, "parent restarted");
        self.last_health_report = SimTime::ZERO;
    }

    /// Cancel every queued [`ParentWait`]: resolve decisions empty (the
    /// source host retries from a fresh local search) and answer relayed
    /// searches with no candidate.
    fn cancel_parent_waits(&mut self, dom: &mut Domain, now: SimTime, why: &str) {
        while let Some(wait) = self.awaiting_parent.pop_front() {
            dom.timers.remove(&wait.deadline);
            self.resolve_wait_empty(dom, now, wait.what, why);
        }
    }

    /// Resolve one abandoned wait as if the parent had replied "no
    /// candidate", and clear the source's cooldown so the fallback — a
    /// fresh local/sibling search — starts on its next heartbeat instead
    /// of a full cooldown later.
    fn resolve_wait_empty(&mut self, dom: &mut Domain, now: SimTime, wait: Waiting, why: &str) {
        match wait {
            Waiting::Decision(w) => {
                dom.trace(
                    TraceKind::Recovery,
                    format!(
                        "registry {}: escalated decision for {} abandoned ({why})",
                        dom.cfg.name, w.source
                    ),
                );
                dom.log_decision(now, &w.source, None, Some(w.pid), true);
                if let Some(&i) = dom.index.get(w.source.as_ref()) {
                    dom.hosts[i].last_command = None;
                }
            }
            Waiting::Relay => self.finish_escalation(dom, now, None),
        }
    }

    /// Drop the active escalation, disarming its probe deadline.
    fn clear_escalation(&mut self, dom: &mut Domain) -> Option<Escalation> {
        let esc = self.escalation.take()?;
        if let Some(t) = esc.deadline {
            dom.timers.remove(&t);
        }
        Some(esc)
    }

    /// End the active search with `dest` as the verdict for its requester,
    /// and start the next queued one.
    fn finish_escalation(&mut self, dom: &mut Domain, now: SimTime, dest: Option<String>) {
        if let Some(esc) = self.clear_escalation(dom) {
            dom.send(esc.requester, Message::CandidateReply { dest });
        }
        self.pump_escalation_queue(dom, now);
    }

    // --- Cross-domain escalation ---------------------------------------------

    /// A decision found no candidate in this domain: ask `parent`.
    pub(super) fn escalate_decision(
        &mut self,
        dom: &mut Domain,
        parent: Endpoint,
        wait: AwaitingParent,
    ) {
        let req_msg = Message::CandidateRequest {
            host: wait.source.to_string(),
            requirements: wait.schema.requirements,
        };
        dom.send(parent, req_msg);
        self.push_parent_wait(dom, Waiting::Decision(wait));
    }

    /// Enqueue a wait for the parent's next candidate replies. Reply
    /// pairing relies on two invariants: the parent serializes searches
    /// and replies FIFO, and a single registry never holds both wait
    /// kinds at once (hosts monitored directly produce `Decision` waits,
    /// relayed child searches produce `Relay` waits; deployments keep
    /// monitored hosts on leaves only). The second is a deployment-shape
    /// assumption rather than a structural guarantee, so assert it —
    /// a mixed queue would silently mis-pair replies to waits.
    fn push_parent_wait(&mut self, dom: &mut Domain, what: Waiting) {
        debug_assert!(
            self.awaiting_parent
                .iter()
                .all(|w| std::mem::discriminant(&w.what) == std::mem::discriminant(&what)),
            "registry {}: mixing Decision and Relay parent waits — this \
             deployment registers hosts on a mid-level registry, which FIFO \
             reply pairing cannot support",
            dom.cfg.name
        );
        // Bound the wait. Deadlines are armed in FIFO order with one fixed
        // duration, so the earliest outstanding deadline always belongs to
        // the front wait.
        let deadline = dom.arm_timer(WAIT_TIMEOUT, Timer::ParentWait);
        self.awaiting_parent
            .push_back(ParentWait { what, deadline });
    }

    /// Someone asks this subtree for a destination: a child escalating
    /// upward, our parent probing downward, or (on a flat registry) nobody
    /// we route for.
    pub(super) fn on_candidate_request(
        &mut self,
        dom: &mut Domain,
        now: SimTime,
        from: Endpoint,
        source_host: String,
        requirements: ResourceRequirements,
    ) {
        // Local domain first.
        if let Some(idx) = dom.first_fit(&requirements, &source_host, now) {
            let dest = dom.hosts[idx].name.to_string();
            dom.set_state(idx, HostState::Busy);
            dom.send(from, Message::CandidateReply { dest: Some(dest) });
            return;
        }
        // Probe other children (one search at a time). Requests arrive
        // from a child escalating upward or from our own parent probing
        // downward into this subtree; both descend into the children
        // (minus the requester, when it is one of them).
        let is_child = self.children.iter().any(|c| c.ep == from);
        let from_parent = Some(from) == dom.cfg.parent;
        if !self.children.is_empty() && (is_child || from_parent) {
            if self.escalation.is_some() {
                if from_parent {
                    // A downward probe must never wait behind our own
                    // active escalation: that escalation may itself relay
                    // up to the probing parent, and parent and child would
                    // then each sit in the other's queue — a distributed
                    // deadlock that only the deadlines would break.
                    // Answering empty-handed keeps every wait edge pointing
                    // one way (child waits on parent, never the reverse),
                    // so the wait graph stays acyclic at any tree depth.
                    // The cost is a conservative miss: a busy subtree looks
                    // full for the duration of one search.
                    dom.send(from, Message::CandidateReply { dest: None });
                } else {
                    self.escalation_queue.push_back((from, requirements));
                }
                return;
            }
            self.escalation = Some(Escalation {
                requester: from,
                requirements,
                probe: self.probe_order(from, now),
                next: 0,
                asked_parent: false,
                deadline: None,
            });
            self.advance_escalation(dom, now, None);
        } else {
            dom.send(from, Message::CandidateReply { dest: None });
        }
    }

    /// The order a cross-domain search probes children: every child except
    /// the requester, stable-sorted by descending free capacity from their
    /// latest [`Message::DomainReport`]. Children that have never reported
    /// count as zero free, so a hierarchy without health reports degrades
    /// to plain registration order. Children whose report is older than
    /// the TTL are deprioritized to the back of the order (not skipped — a
    /// slow reporter may still answer), so a dead child's stale "freest"
    /// report cannot keep attracting first probes.
    fn probe_order(&self, exclude: Endpoint, now: SimTime) -> Vec<Endpoint> {
        let mut order: Vec<(Endpoint, bool, u32)> = self
            .children
            .iter()
            .filter(|c| c.ep != exclude)
            .map(|c| {
                let stale = c.is_stale(now);
                let free = if stale {
                    0
                } else {
                    c.health.map_or(0, |h| h.free)
                };
                (c.ep, stale, free)
            })
            .collect();
        order.sort_by_key(|&(_, stale, free)| (stale, std::cmp::Reverse(free)));
        order.into_iter().map(|(p, _, _)| p).collect()
    }

    /// Step the parent-side search: finish with the destination the last
    /// probe `found`, or forward the request to the next child.
    fn advance_escalation(&mut self, dom: &mut Domain, now: SimTime, found: Option<String>) {
        if found.is_some() {
            return self.finish_escalation(dom, now, found);
        }
        let Some(esc) = &mut self.escalation else {
            return;
        };
        if esc.next >= esc.probe.len() {
            if esc.asked_parent {
                // Already relayed upward; the parent's reply will complete
                // this search (a duplicated child reply lands here and must
                // not re-ask).
                return;
            }
            // A downward probe (requester == parent) must not bounce back
            // up: the parent is already sweeping our siblings.
            if let Some(parent) = dom.cfg.parent.filter(|&p| p != esc.requester) {
                // Every child came up empty: relay the search one level up
                // instead of giving up (depth-k escalation).
                esc.asked_parent = true;
                dom.send(parent, cross_domain_request(esc.requirements));
                self.push_parent_wait(dom, Waiting::Relay);
                return;
            }
            return self.finish_escalation(dom, now, None);
        }
        let child = esc.probe[esc.next];
        esc.next += 1;
        dom.send(child, cross_domain_request(esc.requirements));
        // A dead child must not stall the search (and with it the whole
        // one-at-a-time escalation queue) forever.
        esc.deadline = Some(dom.arm_timer(PROBE_TIMEOUT, Timer::Probe));
    }

    fn pump_escalation_queue(&mut self, dom: &mut Domain, now: SimTime) {
        if self.escalation.is_some() {
            return;
        }
        if let Some((from, requirements)) = self.escalation_queue.pop_front() {
            self.on_candidate_request(dom, now, from, String::new(), requirements);
        }
    }

    pub(super) fn on_candidate_reply(
        &mut self,
        dom: &mut Domain,
        now: SimTime,
        from: Endpoint,
        dest: Option<String>,
    ) {
        // Parent replying to something we sent up? Replies come back in
        // request order (the parent serializes its searches).
        if Some(from) == dom.cfg.parent {
            // A reply whose wait already timed out must be discarded, not
            // paired with the next wait in the FIFO.
            if self.stale_parent_replies > 0 {
                self.stale_parent_replies -= 1;
                dom.trace(
                    TraceKind::Recovery,
                    "discarded a late parent reply (its wait already timed out)",
                );
                return;
            }
            let Some(wait) = self.awaiting_parent.pop_front() else {
                return;
            };
            dom.timers.remove(&wait.deadline);
            match (wait.what, dest) {
                (Waiting::Decision(w), Some(d)) => {
                    let Some(&src_idx) = dom.index.get(w.source.as_ref()) else {
                        return;
                    };
                    dom.dispatch_command(now, src_idx, &d, w.pid, w.schema, true);
                    dom.hosts[src_idx].last_command = Some(now);
                }
                (Waiting::Decision(w), None) => {
                    dom.log_decision(now, &w.source, None, Some(w.pid), true)
                }
                // The parent's verdict ends the escalation we relayed:
                // pass it down to the original requester.
                (Waiting::Relay, dest) => self.finish_escalation(dom, now, dest),
            }
            return;
        }
        // A child answering our probe. Only the child we are currently
        // probing may advance the search: a late reply from a previous
        // (timed-out) probe target must not be mistaken for an answer
        // from the current one.
        let Some(esc) = &mut self.escalation else {
            return;
        };
        if esc.asked_parent {
            return;
        }
        let current = esc.next.checked_sub(1).and_then(|i| esc.probe.get(i));
        if current.copied() != Some(from) {
            return;
        }
        if let Some(t) = esc.deadline.take() {
            dom.timers.remove(&t);
        }
        self.advance_escalation(dom, now, dest);
    }

    /// A cross-domain probe went unanswered for [`PROBE_TIMEOUT`]: give up
    /// on that child and move the search along (next child, then the
    /// parent, then "no candidate").
    pub(super) fn on_probe_timeout(&mut self, dom: &mut Domain, now: SimTime, timer: TimerId) {
        let Some(esc) = &mut self.escalation else {
            return;
        };
        if esc.deadline != Some(timer) {
            return;
        }
        esc.deadline = None;
        let waited_s = observe_timeout(dom, now, "probe", PROBE_TIMEOUT);
        dom.trace(
            TraceKind::Recovery,
            format!("cross-domain probe timed out after {waited_s:.0}s, moving on"),
        );
        // As if that child had answered "nothing found here".
        self.advance_escalation(dom, now, None);
    }

    /// A [`ParentWait`] went unanswered for [`WAIT_TIMEOUT`]: stop waiting
    /// and fall back to a local verdict. The parent's reply may still
    /// arrive later; `stale_parent_replies` makes sure it is discarded
    /// instead of pairing with the next wait in the FIFO.
    pub(super) fn on_wait_timeout(&mut self, dom: &mut Domain, now: SimTime, timer: TimerId) {
        // Waits time out in FIFO order (same timeout, armed in order), so
        // a live deadline can only be the front one.
        let Some(wait) = self.awaiting_parent.pop_front_if(|w| w.deadline == timer) else {
            return;
        };
        self.stale_parent_replies += 1;
        let waited_s = observe_timeout(dom, now, "parent", WAIT_TIMEOUT);
        dom.trace(
            TraceKind::Recovery,
            format!("escalation to parent timed out after {waited_s:.0}s"),
        );
        self.resolve_wait_empty(dom, now, wait.what, "parent reply timed out");
    }
}

/// A search request for another domain: there is no source host to exclude
/// outside the domain it came from.
fn cross_domain_request(requirements: ResourceRequirements) -> Message {
    let host = String::new();
    Message::CandidateRequest { host, requirements }
}

/// Record that one `stage` of an escalation outlived its deadline; returns
/// the seconds waited.
fn observe_timeout(dom: &Domain, now: SimTime, stage: &str, waited: SimDuration) -> f64 {
    let waited_s = waited.as_secs_f64();
    dom.cfg.obs.inc("escalations_timed_out");
    dom.cfg.obs.record(now, || ObsEvent::EscalationTimedOut {
        registry: dom.cfg.name.clone(),
        stage: stage.to_string(),
        waited_s,
    });
    waited_s
}

/// The next buffer-and-retry report spacing after `b`: doubled, capped.
fn doubled_backoff(b: SimDuration) -> SimDuration {
    SimDuration::from_secs_f64((b.as_secs_f64() * 2.0).min(MAX_REPORT_BACKOFF.as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

    #[test]
    fn cross_domain_probe_prefers_the_freest_reported_child() {
        let mut root = test_core(Policy::no_migration());
        register_child(&mut root, 10, "d0");
        register_child(&mut root, 20, "d1");
        register_child(&mut root, 30, "d2");
        msg(&mut root, 1.0, 20, domain_report(1));
        msg(&mut root, 1.0, 30, domain_report(5));
        // d0 escalates; the root (no local hosts) probes d2 (5 free)
        // before d1 (1 free).
        let fx = msg(
            &mut root,
            2.0,
            10,
            Message::CandidateRequest {
                host: "ws0".to_string(),
                requirements: ResourceRequirements::default(),
            },
        );
        assert!(
            matches!(
                fx.as_slice(),
                [
                    CoreEffect::Send {
                        to: Endpoint(30),
                        msg: Message::CandidateRequest { .. }
                    },
                    CoreEffect::ArmTimer { .. }
                ]
            ),
            "first probe should hit the freest child: {fx:?}"
        );
        // d2 has nothing after all -> d1 is probed next.
        let fx = msg(&mut root, 3.0, 30, Message::CandidateReply { dest: None });
        assert!(
            matches!(
                fx.as_slice(),
                [
                    CoreEffect::Send {
                        to: Endpoint(20),
                        msg: Message::CandidateRequest { .. }
                    },
                    CoreEffect::ArmTimer { .. }
                ]
            ),
            "second probe: {fx:?}"
        );
        // d1 answers -> the requester gets the destination.
        let fx = msg(
            &mut root,
            4.0,
            20,
            Message::CandidateReply {
                dest: Some("ws7".to_string()),
            },
        );
        assert!(
            matches!(
                fx.as_slice(),
                [CoreEffect::Send { to: Endpoint(10), msg: Message::CandidateReply { dest: Some(d) } }] if d == "ws7"
            ),
            "final reply: {fx:?}"
        );
        assert!(root.child_domains().iter().any(|(_, h)| h.free == 5));
    }

    #[test]
    fn unreported_children_are_probed_in_registration_order() {
        let mut root = test_core(Policy::no_migration());
        register_child(&mut root, 10, "d0");
        register_child(&mut root, 20, "d1");
        register_child(&mut root, 30, "d2");
        let fx = msg(
            &mut root,
            1.0,
            30,
            Message::CandidateRequest {
                host: "ws9".to_string(),
                requirements: ResourceRequirements::default(),
            },
        );
        // No DomainReports: everyone counts as 0 free, stable sort keeps
        // registration order, the requester (d2) is excluded.
        assert!(
            matches!(
                fx.as_slice(),
                [
                    CoreEffect::Send {
                        to: Endpoint(10),
                        msg: Message::CandidateRequest { .. }
                    },
                    CoreEffect::ArmTimer { .. }
                ]
            ),
            "probe should fall back to registration order: {fx:?}"
        );
    }

    #[test]
    fn a_busy_mid_answers_downward_probes_immediately_instead_of_deadlocking() {
        // Regression: two concurrent escalations in a depth-3 tree. Mid B
        // is mid-search on behalf of one of its leaves when the root —
        // running a search for B's sibling C — probes down into B. If B
        // queued the probe and then relayed its own search up, root and B
        // would each wait on the other forever. B must answer the
        // downward probe empty-handed right away.
        let req = || Message::CandidateRequest {
            host: String::new(),
            requirements: ResourceRequirements::default(),
        };
        let mut root = test_core(Policy::no_migration());
        register_child(&mut root, 10, "b");
        register_child(&mut root, 20, "c");
        let mut cfg = RegistryConfig::new(Policy::no_migration());
        cfg.name = "b".to_string();
        cfg.parent = Some(Endpoint(99));
        let mut b = RegistryCore::new(cfg, SchemaBook::new());
        register_child(&mut b, 10, "b0");
        register_child(&mut b, 20, "b1");

        // B's leaf b0 escalates; B probes its other leaf b1.
        let fx = msg(&mut b, 1.0, 10, req());
        assert!(
            matches!(
                fx.as_slice(),
                [
                    CoreEffect::Send {
                        to: Endpoint(20),
                        msg: Message::CandidateRequest { .. }
                    },
                    CoreEffect::ArmTimer { .. }
                ]
            ),
            "B should probe b1: {fx:?}"
        );
        // Concurrently, C escalates to the root; the root probes B.
        let fx = msg(&mut root, 1.0, 20, req());
        assert!(
            matches!(
                fx.as_slice(),
                [
                    CoreEffect::Send {
                        to: Endpoint(10),
                        msg: Message::CandidateRequest { .. }
                    },
                    CoreEffect::ArmTimer { .. }
                ]
            ),
            "root should probe B: {fx:?}"
        );
        // The downward probe reaches busy B: answered immediately, not
        // queued behind B's own escalation.
        let fx = msg(&mut b, 2.0, 99, req());
        assert!(
            matches!(
                fx.as_slice(),
                [CoreEffect::Send {
                    to: Endpoint(99),
                    msg: Message::CandidateReply { dest: None }
                }]
            ),
            "a busy mid must answer a parent probe right away: {fx:?}"
        );
        // B's own search: b1 is empty, so B relays it up to the root.
        let fx = msg(&mut b, 3.0, 20, Message::CandidateReply { dest: None });
        assert!(
            matches!(
                fx.as_slice(),
                [
                    CoreEffect::Send {
                        to: Endpoint(99),
                        msg: Message::CandidateRequest { .. }
                    },
                    CoreEffect::ArmTimer { .. }
                ]
            ),
            "B should relay its search upward: {fx:?}"
        );
        // B's empty-handed probe reply ends the root's search for C.
        let fx = msg(&mut root, 4.0, 10, Message::CandidateReply { dest: None });
        assert!(
            matches!(
                fx.as_slice(),
                [CoreEffect::Send {
                    to: Endpoint(20),
                    msg: Message::CandidateReply { dest: None }
                }]
            ),
            "root should finish C's search: {fx:?}"
        );
        // Now idle, the root serves B's relayed search by probing C.
        let fx = msg(&mut root, 5.0, 10, req());
        assert!(
            matches!(
                fx.as_slice(),
                [
                    CoreEffect::Send {
                        to: Endpoint(20),
                        msg: Message::CandidateRequest { .. }
                    },
                    CoreEffect::ArmTimer { .. }
                ]
            ),
            "root should probe C for B's relayed search: {fx:?}"
        );
        // C is empty too; the verdict flows root -> B -> B's leaf.
        let fx = msg(&mut root, 6.0, 20, Message::CandidateReply { dest: None });
        assert!(
            matches!(
                fx.as_slice(),
                [CoreEffect::Send {
                    to: Endpoint(10),
                    msg: Message::CandidateReply { dest: None }
                }]
            ),
            "root should answer B's relay: {fx:?}"
        );
        let fx = msg(&mut b, 7.0, 99, Message::CandidateReply { dest: None });
        assert!(
            matches!(
                fx.as_slice(),
                [CoreEffect::Send {
                    to: Endpoint(10),
                    msg: Message::CandidateReply { dest: None }
                }]
            ),
            "B should resolve its leaf's original request: {fx:?}"
        );
        // Both trees drained: no stuck escalations or queued searches.
        assert!(b.tree.escalation.is_none() && b.tree.escalation_queue.is_empty());
        assert!(root.tree.escalation.is_none() && root.tree.escalation_queue.is_empty());
        assert!(b.tree.awaiting_parent.is_empty());
    }

    #[test]
    fn a_leaf_with_a_parent_pushes_rate_limited_health_reports() {
        // Hand-build the config: parent at endpoint 99.
        let mut cfg = RegistryConfig::new(Policy::no_migration());
        cfg.parent = Some(Endpoint(99));
        let mut core = RegistryCore::new(cfg, SchemaBook::new());
        register(&mut core, 0.0, 10, "a");
        let report_in = |fx: &[CoreEffect]| {
            fx.iter().any(|e| {
                matches!(
                    e,
                    CoreEffect::Send {
                        to: Endpoint(99),
                        msg: Message::DomainReport { .. }
                    }
                )
            })
        };
        let fx = heartbeat(
            &mut core,
            5.0,
            10,
            "a",
            HostState::Free,
            good_metrics(),
            vec![],
        );
        assert!(report_in(&fx), "first heartbeat should report: {fx:?}");
        let fx = heartbeat(
            &mut core,
            7.0,
            10,
            "a",
            HostState::Free,
            good_metrics(),
            vec![],
        );
        assert!(!report_in(&fx), "reports must be rate-limited: {fx:?}");
        let fx = heartbeat(
            &mut core,
            16.0,
            10,
            "a",
            HostState::Free,
            good_metrics(),
            vec![],
        );
        assert!(report_in(&fx), "next report after the interval: {fx:?}");
    }

    #[test]
    fn a_leaf_without_a_parent_emits_no_domain_reports() {
        let mut core = test_core(Policy::no_migration());
        register(&mut core, 0.0, 10, "a");
        let fx = heartbeat(
            &mut core,
            5.0,
            10,
            "a",
            HostState::Free,
            good_metrics(),
            vec![],
        );
        assert!(
            !fx.iter().any(|e| matches!(
                e,
                CoreEffect::Send {
                    msg: Message::DomainReport { .. },
                    ..
                }
            )),
            "flat deployments must emit nothing new: {fx:?}"
        );
    }

    #[test]
    fn stale_domain_reports_age_out_of_probe_order_and_aggregation() {
        let mut root = tree_core("root", None, None);
        register_child(&mut root, 10, "d0");
        register_child(&mut root, 20, "d1");
        register_child(&mut root, 30, "d2");
        // d2 reports 5 free early; d1 reports 1 free much later.
        msg(&mut root, 1.0, 30, domain_report(5));
        msg(&mut root, 50.0, 20, domain_report(1));
        // At t=60, d2's report is 59s old (> the 45s TTL): despite its
        // bigger advertised capacity it must be probed *after* fresh d1
        // and excluded from the upward aggregate.
        let fx = msg(&mut root, 60.0, 10, cand_req());
        assert!(
            matches!(
                fx.first(),
                Some(CoreEffect::Send {
                    to: Endpoint(20),
                    msg: Message::CandidateRequest { .. }
                })
            ),
            "stale d2 must not outrank fresh d1: {fx:?}"
        );
        let h = root.subtree_health(at(60.0));
        assert_eq!(
            h.free, 1,
            "a stale child's capacity must not be advertised upward"
        );
    }

    #[test]
    fn a_restarted_childs_searches_are_purged_not_left_poisoning_the_fifo() {
        // Regression: c escalates while the root is already searching on
        // b's behalf, then c crashes and restarts. Its queued request is
        // now unowned; serving it would eventually deliver a
        // CandidateReply the fresh c never asked for, which c would pair
        // with the *next* reply it awaits — poisoning its FIFO forever.
        let mut root = tree_core("root", None, None);
        register_child(&mut root, 10, "b");
        register_child(&mut root, 20, "c");
        // b escalates: the root probes c (with a probe deadline).
        let fx = msg(&mut root, 1.0, 10, cand_req());
        assert!(sends_to(&fx, 20), "root should probe c: {fx:?}");
        let probe_deadline = armed_timer(&fx);
        // c escalates concurrently: queued behind the active search.
        msg(&mut root, 2.0, 20, cand_req());
        assert_eq!(root.tree.escalation_queue.len(), 1);
        // c crashes and the restarted process re-registers.
        let fx = msg(
            &mut root,
            3.0,
            20,
            Message::Register {
                host: statics("c"),
                role: EntityRole::Registry,
            },
        );
        assert!(
            root.tree.escalation_queue.is_empty(),
            "the restarted child's queued search must be purged: {fx:?}"
        );
        // The probe c never answered times out: b's search resolves
        // empty, and nothing is ever sent to the restarted c.
        let fx = feed(&mut root, 11.0, CoreInput::TimerFired(probe_deadline));
        assert!(
            matches!(
                fx.last(),
                Some(CoreEffect::Send {
                    to: Endpoint(10),
                    msg: Message::CandidateReply { dest: None }
                })
            ),
            "b's search must fall back to empty-handed: {fx:?}"
        );
        assert!(
            !sends_to(&fx, 20),
            "no reply may reach the restarted child: {fx:?}"
        );
        assert!(root.tree.escalation.is_none() && root.tree.escalation_queue.is_empty());
    }

    #[test]
    fn a_restarted_child_cancels_the_active_search_it_requested() {
        let mut root = tree_core("root", None, None);
        register_child(&mut root, 10, "b");
        register_child(&mut root, 20, "c");
        // b escalates (active, probing c), then b itself restarts.
        msg(&mut root, 1.0, 10, cand_req());
        let fx = msg(
            &mut root,
            2.0,
            10,
            Message::Register {
                host: statics("b"),
                role: EntityRole::Registry,
            },
        );
        assert!(
            root.tree.escalation.is_none(),
            "the restarted requester's active search must be cancelled: {fx:?}"
        );
        // c's late probe reply lands on a cleared search: swallowed, and
        // crucially never forwarded to the restarted b.
        let fx = msg(
            &mut root,
            3.0,
            20,
            Message::CandidateReply {
                dest: Some("ws7".to_string()),
            },
        );
        assert!(fx.is_empty(), "late reply must be swallowed: {fx:?}");
    }

    #[test]
    fn missed_report_acks_walk_suspect_down_and_reparent_to_the_grandparent() {
        let mut core = tree_core("mid", Some(99), Some(77));
        register(&mut core, 0.0, 10, "a");
        let hb = |core: &mut RegistryCore, t: f64| {
            heartbeat(core, t, 10, "a", HostState::Free, good_metrics(), vec![])
        };
        // Report 1 is acked: the detector stays quiet.
        let fx = hb(&mut core, 5.0);
        assert!(sends_to(&fx, 99), "first report goes to the parent: {fx:?}");
        msg(
            &mut core,
            6.0,
            99,
            Message::Ack {
                ok: true,
                info: "p".into(),
            },
        );
        assert_eq!(core.tree.reports_unacked, 0);
        // Reports 2..=5 go unanswered: Suspect at 2 unacked, Down at 4.
        hb(&mut core, 16.0);
        assert_eq!(core.tree.parent_state, Liveness::Alive);
        hb(&mut core, 27.0);
        assert_eq!(core.tree.parent_state, Liveness::Suspect);
        hb(&mut core, 38.0);
        let fx = hb(&mut core, 49.0);
        assert!(
            fx.iter().any(|e| matches!(
                e,
                CoreEffect::Send {
                    to: Endpoint(77),
                    msg: Message::Register {
                        role: EntityRole::Registry,
                        ..
                    }
                }
            )),
            "a dead parent must trigger re-parenting to the grandparent: {fx:?}"
        );
        assert_eq!(core.config().parent, Some(Endpoint(77)));
        assert_eq!(core.tree.parent_state, Liveness::Alive);
        // Health now flows to the new parent.
        let fx = hb(&mut core, 50.0);
        assert!(
            fx.iter().any(|e| matches!(
                e,
                CoreEffect::Send {
                    to: Endpoint(77),
                    msg: Message::DomainReport { .. }
                }
            )),
            "reports must follow the new parent: {fx:?}"
        );
    }

    #[test]
    fn an_orphan_without_a_grandparent_buffers_reports_with_capped_backoff() {
        let mut core = tree_core("mid", Some(99), None);
        register(&mut core, 0.0, 10, "a");
        let hb = |core: &mut RegistryCore, t: f64| {
            heartbeat(core, t, 10, "a", HostState::Free, good_metrics(), vec![])
        };
        let report_in = |fx: &[CoreEffect]| {
            fx.iter().any(|e| {
                matches!(
                    e,
                    CoreEffect::Send {
                        msg: Message::DomainReport { .. },
                        ..
                    }
                )
            })
        };
        // Four unacked reports: parent declared Down, no grandparent.
        for t in [5.0, 16.0, 27.0, 38.0] {
            hb(&mut core, t);
        }
        assert_eq!(core.tree.parent_state, Liveness::Down);
        let backoff = core.tree.report_backoff.expect("backoff engaged");
        assert!(backoff > core.config().health_report_every);
        // The cadence is now backed off: a heartbeat inside the window
        // stays silent, one past it retries (the retry doubles as the
        // probe that discovers recovery).
        let fx = hb(&mut core, 45.0);
        assert!(!report_in(&fx), "inside the backoff window: {fx:?}");
        let fx = hb(&mut core, 38.0 + backoff.as_secs_f64() + 1.0);
        assert!(report_in(&fx), "retry after the backoff: {fx:?}");
        // The rebuilt parent finally answers: normal cadence resumes.
        msg(
            &mut core,
            70.0,
            99,
            Message::Ack {
                ok: true,
                info: "p".into(),
            },
        );
        assert_eq!(core.tree.parent_state, Liveness::Alive);
        assert!(core.tree.report_backoff.is_none());
        let fx = hb(&mut core, 71.0);
        assert!(report_in(&fx), "normal cadence after recovery: {fx:?}");
    }

    #[test]
    fn a_timed_out_parent_wait_falls_back_and_discards_the_late_reply() {
        let mut b = tree_core("b", Some(99), None);
        register_child(&mut b, 10, "b0");
        register_child(&mut b, 20, "b1");
        // b0 escalates; b1 is empty; b relays up with a wait deadline.
        msg(&mut b, 1.0, 10, cand_req());
        let fx = msg(&mut b, 2.0, 20, Message::CandidateReply { dest: None });
        assert!(sends_to(&fx, 99), "b should relay upward: {fx:?}");
        let wait_deadline = armed_timer(&fx);
        // The parent never answers: the wait times out, the search
        // resolves empty toward the requester, and the eventual reply is
        // remembered as stale.
        let fx = feed(&mut b, 40.0, CoreInput::TimerFired(wait_deadline));
        assert!(
            fx.iter().any(|e| matches!(
                e,
                CoreEffect::Send {
                    to: Endpoint(10),
                    msg: Message::CandidateReply { dest: None }
                }
            )),
            "the timed-out search must resolve empty: {fx:?}"
        );
        assert!(b.tree.escalation.is_none() && b.tree.awaiting_parent.is_empty());
        assert_eq!(b.tree.stale_parent_replies, 1);
        // The parent's late verdict finally arrives: discarded, not
        // paired with the next wait in the FIFO.
        let fx = msg(
            &mut b,
            50.0,
            99,
            Message::CandidateReply {
                dest: Some("ws7".to_string()),
            },
        );
        assert!(
            !fx.iter().any(|e| matches!(e, CoreEffect::Send { .. })),
            "a stale parent reply must be discarded: {fx:?}"
        );
        assert_eq!(b.tree.stale_parent_replies, 0);
    }

    #[test]
    fn the_tree_is_quiescent_after_suspect_down_reparent_and_restart() {
        // A mid registry walks the whole failure path with searches in
        // flight — parent suspect, parent down (waits cancelled), re-parent
        // to the grandparent, a wait on the new parent timing out — and is
        // then restarted. `feed` asserts the state invariants after every
        // input; at the end no timer, wait, stale-reply debt or detector
        // state may survive: the core must be indistinguishable from a
        // freshly built child of the grandparent.
        let mut mid = tree_core("mid", Some(99), Some(77));
        register_child(&mut mid, 10, "b0");
        register_child(&mut mid, 20, "b1");
        let mut timers: Vec<TimerId> = Vec::new();
        let ts = &mut timers;
        let step = |mid: &mut RegistryCore, timers: &mut Vec<TimerId>, now, from, m| {
            let fx = msg(mid, now, from, m);
            timers.extend(fx.iter().filter_map(|e| match e {
                CoreEffect::ArmTimer { timer, .. } => Some(*timer),
                _ => None,
            }));
            fx
        };
        let traced = |fx: &[CoreEffect], needle: &str| {
            fx.iter()
                .any(|e| matches!(e, CoreEffect::Trace { detail, .. } if detail.contains(needle)))
        };
        let no_dest = Message::CandidateReply { dest: None };

        // Report #1 goes up (never acked). b0 escalates: b1 is probed,
        // comes up empty, the search is relayed to the parent; b1's own
        // escalation queues behind it.
        step(&mut mid, ts, 1.0, 10, domain_report(0));
        step(&mut mid, ts, 2.0, 10, cand_req());
        let fx = step(&mut mid, ts, 3.0, 20, no_dest.clone());
        assert!(sends_to(&fx, 99), "relay to the parent: {fx:?}");
        step(&mut mid, ts, 4.0, 20, cand_req());
        // Reports #2..#4 stay unacked: suspect, then down. Down cancels the
        // relayed wait (b0 is answered empty), serves b1's queued search by
        // probing b0, and re-parents to the grandparent.
        let fx = step(&mut mid, ts, 12.0, 10, domain_report(0));
        assert!(traced(&fx, "parent suspect"), "{fx:?}");
        step(&mut mid, ts, 23.0, 10, domain_report(0));
        let fx = step(&mut mid, ts, 34.0, 10, domain_report(0));
        assert!(traced(&fx, "parent down") && traced(&fx, "re-parenting"));
        assert!(sends_to(&fx, 10) && sends_to(&fx, 77), "{fx:?}");
        assert_eq!(mid.config().parent, Some(Endpoint(77)));
        // b0 is empty too: the search is relayed to the new parent, which
        // never answers — the wait times out and leaves a stale-reply debt.
        let fx = step(&mut mid, ts, 35.0, 10, no_dest);
        assert!(sends_to(&fx, 77), "relay to the grandparent: {fx:?}");
        let wait_deadline = *ts.last().expect("the relay armed a wait deadline");
        let fx = feed(&mut mid, 65.0, CoreInput::TimerFired(wait_deadline));
        assert!(traced(&fx, "timed out") && sends_to(&fx, 20), "{fx:?}");
        // One more search, so the restart lands on a probe in flight.
        let fx = step(&mut mid, ts, 66.0, 10, cand_req());
        assert!(sends_to(&fx, 20), "b1 probed: {fx:?}");

        let fx = feed(&mut mid, 70.0, CoreInput::Restart);
        assert!(sends_to(&fx, 77), "re-introduction to the parent: {fx:?}");
        // Nothing armed before the restart is still live…
        assert!(ts.len() >= 5, "three probes and two waits were armed");
        for t in ts.clone() {
            let fx = feed(&mut mid, 71.0, CoreInput::TimerFired(t));
            assert!(fx.is_empty(), "{t:?} survived the restart: {fx:?}");
        }
        // …and from here on the core answers exactly like a fresh one.
        let mut fresh = tree_core("mid", Some(77), None);
        let script = [
            (72.0, 77, Message::CandidateReply { dest: None }),
            (72.0, 99, Message::CandidateReply { dest: None }),
            (72.0, 10, Message::CandidateReply { dest: None }),
            (73.0, 10, domain_report(3)),
            (
                74.0,
                10,
                Message::Register {
                    host: statics("b0"),
                    role: EntityRole::Registry,
                },
            ),
            (75.0, 10, domain_report(3)),
            (86.0, 10, domain_report(3)),
        ];
        for (now, from, m) in script {
            let got = format!("{:?}", step(&mut mid, ts, now, from, m.clone()));
            let want = format!("{:?}", msg(&mut fresh, now, from, m));
            assert_eq!(got, want, "diverged from a fresh core at t={now}");
        }
    }
}
