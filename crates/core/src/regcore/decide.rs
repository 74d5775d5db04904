//! Scheduling over the host table: the one first-fit destination search,
//! the decision an overloaded heartbeat triggers, command dispatch with
//! its ack/retransmit/abort reliability, and pull-mode decision rounds.

use super::{CoreEffect, Domain, Endpoint, HostEntry, Liveness, LogEffect, Timer};
use ars_obs::ObsEvent;
use ars_sim::TraceKind;
use ars_simcore::{SimDuration, SimTime};
use ars_xmlwire::{ApplicationSchema, HostState, Message, ProcReport, ResourceRequirements};
use std::collections::HashSet;
use std::sync::Arc;

/// Which migratable process the scheduler picks from an overloaded host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// The paper's choice: "the registry/scheduler tends to migrate a
    /// process that has the latest completing time to reduce the
    /// possibility of migrating multiple processes."
    #[default]
    LatestCompleting,
    /// The opposite: evict the process closest to finishing (cheapest to
    /// re-run if the migration goes wrong; worst amortization).
    EarliestCompleting,
    /// Evict the longest-running process (classic age-based eviction).
    LongestRunning,
}

impl SelectionPolicy {
    /// Apply the policy to a host's reported migratable processes.
    pub fn select<'a>(&self, procs: &'a [ProcReport]) -> Option<&'a ProcReport> {
        let completion = |p: &ProcReport| p.start_time_s + p.est_exec_time_s;
        let cmp_f64 = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
        match self {
            SelectionPolicy::LatestCompleting => procs
                .iter()
                .max_by(|a, b| cmp_f64(completion(a), completion(b))),
            SelectionPolicy::EarliestCompleting => procs
                .iter()
                .min_by(|a, b| cmp_f64(completion(a), completion(b))),
            SelectionPolicy::LongestRunning => procs
                .iter()
                .min_by(|a, b| cmp_f64(a.start_time_s, b.start_time_s)),
        }
    }
}

/// A migration command awaiting its commander's acknowledgement, stored in
/// the timer table under its retransmit deadline; an arriving ack removes
/// the entry, so a later timer firing finds nothing and is ignored.
pub(super) struct PendingCommand {
    pub(super) source: Arc<str>,
    dest: String,
    pub(super) pid: u64,
    commander: Endpoint,
    cmd: Message,
    /// Retransmits already performed (0 after the initial send).
    attempts: u32,
}

/// A decision with no candidate in this domain, escalated to the parent.
pub(super) struct AwaitingParent {
    pub(super) source: Arc<str>,
    pub(super) pid: u64,
    pub(super) schema: ApplicationSchema,
}

/// A pull-mode decision waiting for fresh status replies.
pub(super) struct PullRound {
    source: Arc<str>,
    pid: u64,
    schema: ApplicationSchema,
    pub(super) awaiting: HashSet<Arc<str>>,
    started_at: SimTime,
}

impl Domain {
    /// The unacknowledged commands in the timer table.
    pub(super) fn pending(&self) -> impl Iterator<Item = &PendingCommand> {
        self.timers.values().filter_map(|t| match t {
            Timer::Command(p) => Some(p),
            _ => None,
        })
    }

    /// Why `entry` cannot serve as the migration destination for `req`, or
    /// `None` if it qualifies. The reasons are stable strings surfaced by
    /// [`ObsEvent::CandidateRejected`].
    fn dest_reject(
        &self,
        entry: &HostEntry,
        req: &ResourceRequirements,
        exclude: &str,
        now: SimTime,
    ) -> Option<&'static str> {
        if entry.statics.name == exclude {
            return Some("is the source host");
        }
        if !entry
            .effective_state(now, self.cfg.lease)
            .accepts_migration()
        {
            return Some("not accepting migrations");
        }
        // Failure detector: don't migrate onto a host that has gone quiet,
        // even if its lease has not expired yet. (Pull mode has no periodic
        // push, so silence there is normal.)
        if !self.cfg.pull && entry.liveness(now, self.cfg.lease) != Liveness::Alive {
            return Some("failure detector: not alive");
        }
        if !self.cfg.policy.dest_acceptable(&entry.metrics) {
            return Some("policy veto");
        }
        if entry.statics.cpu_speed < req.min_cpu_speed {
            return Some("cpu too slow");
        }
        let mem_avail_kb =
            entry.metrics.get("memAvail").unwrap_or(0.0) / 100.0 * entry.statics.mem_kb as f64;
        if mem_avail_kb < req.mem_kb as f64 {
            return Some("insufficient memory");
        }
        if entry.metrics.get("diskAvailKb").unwrap_or(0.0) < req.disk_kb as f64 {
            return Some("insufficient disk");
        }
        None
    }

    /// First-fit destination search over the machine list — the one
    /// implementation every driver shares. "The first host, which is ready
    /// and owns all the resources required."
    ///
    /// Only hosts whose last reported state accepts a migration can pass
    /// [`dest_reject`](Self::dest_reject) (lease expiry only disqualifies),
    /// so the search walks the free-host set — ascending registration
    /// index, i.e. exactly a linear scan's first-fit order. `Obs` hooks are
    /// guarded so the disabled path does no recording work at all.
    pub(super) fn first_fit(
        &self,
        req: &ResourceRequirements,
        exclude: &str,
        now: SimTime,
    ) -> Option<usize> {
        let recording = self.cfg.obs.is_enabled();
        let mut scanned = 0u64;
        let mut found = None;
        for &i in &self.free_hosts {
            scanned += 1;
            let e = &self.hosts[i];
            match self.dest_reject(e, req, exclude, now) {
                None => {
                    found = Some(i);
                    break;
                }
                Some(why) if recording => {
                    self.cfg.obs.inc("candidates_rejected");
                    self.cfg.obs.record(now, || ObsEvent::CandidateRejected {
                        host: e.name.to_string(),
                        why: why.to_string(),
                    });
                }
                Some(_) => {}
            }
        }
        if recording {
            self.cfg.obs.observe("first_fit_scan_len", scanned as f64);
        }
        found
    }

    /// A queued decision for `source` came due: pick a process and a
    /// destination and command the migration. Returns the parent to ask and
    /// the wait to queue when this domain has no candidate but the
    /// hierarchy may (the tree escalates it).
    pub(super) fn decide(
        &mut self,
        now: SimTime,
        source: Arc<str>,
    ) -> Option<(Endpoint, AwaitingParent)> {
        if let Some(pos) = self.queued_decisions.iter().position(|s| *s == source) {
            self.queued_decisions.remove(pos);
        }
        self.cfg.obs.inc("decisions");
        let &src_idx = self.index.get(source.as_ref())?;
        // Fruitless decisions also start the cooldown: an overloaded host
        // with nothing migratable (or no candidate anywhere) is re-examined
        // once per cooldown, not on every heartbeat.
        self.hosts[src_idx].last_command = Some(now);
        // Re-check: the source must still be overloaded.
        if self.hosts[src_idx].effective_state(now, self.cfg.lease) != HostState::Overloaded {
            return None;
        }
        let Some(proc_) = self
            .cfg
            .selection
            .select(&self.hosts[src_idx].procs)
            .cloned()
        else {
            self.log_decision(now, &source, None, None, false);
            return None;
        };
        let schema = self
            .schemas
            .get(&proc_.app)
            .unwrap_or_else(|| ApplicationSchema::compute(&proc_.app, proc_.est_exec_time_s));
        if self.cfg.pull {
            self.start_pull_round(now, source, proc_.pid, schema);
            return None;
        }
        if let Some(dest_idx) = self.first_fit(&schema.requirements, source.as_ref(), now) {
            self.command_migration(now, src_idx, dest_idx, proc_.pid, schema, false);
            return None;
        }
        if let Some(parent) = self.cfg.parent {
            let pid = proc_.pid;
            let wait = AwaitingParent {
                source,
                pid,
                schema,
            };
            return Some((parent, wait));
        }
        self.trace(
            TraceKind::Decision,
            format!("registry {}: no candidate for {source}", self.cfg.name),
        );
        self.log_decision(now, &source, None, Some(proc_.pid), false);
        None
    }

    fn command_migration(
        &mut self,
        now: SimTime,
        src_idx: usize,
        dest_idx: usize,
        pid: u64,
        schema: ApplicationSchema,
        escalated: bool,
    ) {
        let dest = self.hosts[dest_idx].name.to_string();
        self.dispatch_command(now, src_idx, &dest, pid, schema, escalated);
        // Optimistically mark the destination loaded until its next
        // heartbeat, so concurrent decisions do not pile onto it.
        self.set_state(dest_idx, HostState::Busy);
        self.hosts[src_idx].last_command = Some(now);
    }

    pub(super) fn dispatch_command(
        &mut self,
        now: SimTime,
        src_idx: usize,
        dest: &str,
        pid: u64,
        schema: ApplicationSchema,
        escalated: bool,
    ) {
        let source = self.hosts[src_idx].name.clone();
        let Some(commander) = self.hosts[src_idx].commander else {
            self.trace(
                TraceKind::Custom,
                format!("registry: no commander registered for {source}"),
            );
            return;
        };
        let cmd = Message::MigrationCommand {
            host: source.to_string(),
            pid,
            dest: dest.to_string(),
            dest_port: 7801,
            schema,
        };
        self.send(commander, cmd.clone());
        // Arm the ack deadline; a CommandAck removes the entry and the
        // timer then fires into nothing.
        let pending = PendingCommand {
            source: source.clone(),
            dest: dest.to_string(),
            pid,
            commander,
            cmd,
            attempts: 0,
        };
        self.arm_timer(self.cfg.ack_timeout, Timer::Command(pending));
        let verb = if dest.starts_with("expand:") || dest.starts_with("shrink:") {
            "reconfigure"
        } else {
            "migrate"
        };
        self.trace(
            TraceKind::Decision,
            format!(
                "registry {}: {verb} pid{pid} {source} -> {dest}{}",
                self.cfg.name,
                if escalated { " (escalated)" } else { "" }
            ),
        );
        self.log_decision(now, &source, Some(dest), Some(pid), escalated);
        self.out.push(CoreEffect::Log(LogEffect::CommandSent));
        self.cfg.obs.inc("commands_sent");
    }

    // --- Command reliability (ack + retransmit + abort) ----------------------

    /// The retransmit deadline of pending command `p` fired (the timer
    /// table entry is already gone). Resend with a doubled deadline, or —
    /// retries exhausted — abort and clear the source's cooldown so the
    /// next heartbeat triggers a fresh decision (which re-runs first-fit,
    /// i.e. re-selects the destination).
    pub(super) fn on_ack_timeout(&mut self, now: SimTime, mut p: PendingCommand) {
        if p.attempts >= self.cfg.max_command_retries {
            self.trace(
                TraceKind::Recovery,
                format!(
                    "registry {}: migrate pid{} {} -> {} unacked after {} sends, aborting",
                    self.cfg.name,
                    p.pid,
                    p.source,
                    p.dest,
                    p.attempts + 1
                ),
            );
            self.abort_command(now, &p);
            return;
        }
        p.attempts += 1;
        let backoff = SimDuration::from_secs_f64(
            self.cfg.ack_timeout.as_secs_f64() * (1u64 << p.attempts) as f64,
        );
        self.trace(
            TraceKind::Recovery,
            format!(
                "registry {}: retransmit #{} of migrate pid{} {} -> {}",
                self.cfg.name, p.attempts, p.pid, p.source, p.dest
            ),
        );
        self.out.push(CoreEffect::Log(LogEffect::CommandRetransmit));
        self.cfg.obs.inc("command_retransmits");
        self.cfg.obs.record(now, || ObsEvent::CommandRetransmit {
            pid: p.pid,
            source: p.source.to_string(),
            dest: p.dest.clone(),
            attempt: p.attempts,
        });
        self.send(p.commander, p.cmd.clone());
        self.arm_timer(backoff, Timer::Command(p));
    }

    /// A commander acknowledged (or rejected) a migration command.
    pub(super) fn on_command_ack(&mut self, now: SimTime, host: String, pid: u64, ok: bool) {
        let key = self.timers.iter().find_map(|(&k, t)| match t {
            Timer::Command(p) if p.source.as_ref() == host && p.pid == pid => Some(k),
            _ => None,
        });
        // Remove-by-found-key, so a duplicate ack from a retransmit finds
        // nothing and is ignored.
        let Some(Timer::Command(p)) = key.and_then(|k| self.timers.remove(&k)) else {
            return;
        };
        if !ok {
            self.trace(
                TraceKind::Recovery,
                format!(
                    "registry {}: commander rejected migrate pid{} {} -> {}",
                    self.cfg.name, p.pid, p.source, p.dest
                ),
            );
            self.abort_command(now, &p);
        }
    }

    /// Give up on command `p`: log and record the abort, and clear the
    /// source's cooldown so it is eligible for a fresh decision.
    fn abort_command(&mut self, now: SimTime, p: &PendingCommand) {
        self.out.push(CoreEffect::Log(LogEffect::CommandAborted));
        self.cfg.obs.inc("commands_aborted");
        self.cfg.obs.record(now, || ObsEvent::CommandAborted {
            pid: p.pid,
            source: p.source.to_string(),
            dest: p.dest.clone(),
        });
        if let Some(&i) = self.index.get(p.source.as_ref()) {
            self.hosts[i].last_command = None;
        }
    }

    // --- Pull-model decisions (§3.2) -----------------------------------------

    /// Query every live monitored host for fresh status, then decide.
    fn start_pull_round(
        &mut self,
        now: SimTime,
        source: Arc<str>,
        pid: u64,
        schema: ApplicationSchema,
    ) {
        if let Some(round) = &self.pull_round {
            // One round at a time — but a round stuck on a dead monitor
            // must not wedge the scheduler forever.
            if now.since(round.started_at) <= self.cfg.lease {
                return; // the cooldown retries later
            }
            self.trace(
                TraceKind::Custom,
                format!(
                    "registry {}: abandoning stale pull round for {}",
                    self.cfg.name, round.source
                ),
            );
            self.pull_round = None;
        }
        // No lease filter here: in the pull model hosts do not refresh
        // periodically — the point of the query is to find out who is
        // alive. Dead monitors simply never reply; their host stays in the
        // awaiting set and the round is superseded by the next decision.
        let targets: Vec<(Arc<str>, Endpoint)> = self
            .hosts
            .iter()
            .filter(|e| e.name != source)
            .filter_map(|e| e.monitor.map(|m| (e.name.clone(), m)))
            .collect();
        if targets.is_empty() {
            self.log_decision(now, &source, None, Some(pid), false);
            return;
        }
        let mut awaiting = HashSet::new();
        for (name, monitor) in targets {
            let q = Message::StatusQuery {
                host: name.to_string(),
            };
            self.send(monitor, q);
            awaiting.insert(name);
        }
        self.trace(
            TraceKind::Decision,
            format!(
                "registry {}: pulling {} hosts for {source}",
                self.cfg.name,
                awaiting.len()
            ),
        );
        self.pull_round = Some(PullRound {
            source,
            pid,
            schema,
            awaiting,
            started_at: now,
        });
    }

    /// All pull replies arrived: decide on the fresh data.
    pub(super) fn finish_pull_round(&mut self, now: SimTime) {
        let Some(round) = self.pull_round.take() else {
            return;
        };
        match self.first_fit(&round.schema.requirements, &round.source, now) {
            Some(dest_idx) => {
                let Some(&src_idx) = self.index.get(round.source.as_ref()) else {
                    return;
                };
                self.command_migration(now, src_idx, dest_idx, round.pid, round.schema, false);
            }
            None => self.log_decision(now, &round.source, None, Some(round.pid), false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

    #[test]
    fn selection_policies_pick_distinct_processes() {
        // p1: started 0, est 100 -> completes 100 (oldest).
        // p2: started 50, est 500 -> completes 550 (latest completing).
        // p3: started 80, est 10 -> completes 90 (earliest completing).
        let procs = vec![
            report(1, 0.0, 100.0),
            report(2, 50.0, 500.0),
            report(3, 80.0, 10.0),
        ];
        let pid = |p: Option<&ProcReport>| p.map(|p| p.pid);
        assert_eq!(
            pid(SelectionPolicy::LatestCompleting.select(&procs)),
            Some(2)
        );
        assert_eq!(
            pid(SelectionPolicy::EarliestCompleting.select(&procs)),
            Some(3)
        );
        assert_eq!(pid(SelectionPolicy::LongestRunning.select(&procs)), Some(1));
    }

    #[test]
    fn selection_of_empty_list_is_none() {
        assert!(SelectionPolicy::LatestCompleting.select(&[]).is_none());
    }

    #[test]
    fn first_fit_skips_source_busy_and_requirement_failing_hosts() {
        let mut core = test_core(Policy::no_migration());
        register(&mut core, 0.0, 10, "a");
        register(&mut core, 0.0, 20, "b");
        register(&mut core, 0.0, 30, "c");
        heartbeat(
            &mut core,
            1.0,
            10,
            "a",
            HostState::Overloaded,
            good_metrics(),
            vec![],
        );
        // b is free but only 10% of 128 MB available: fails a 24 MB floor.
        let mut starved = good_metrics();
        starved.set("memAvail", 10.0);
        heartbeat(&mut core, 1.0, 20, "b", HostState::Free, starved, vec![]);
        heartbeat(
            &mut core,
            1.0,
            30,
            "c",
            HostState::Free,
            good_metrics(),
            vec![],
        );
        let req = ResourceRequirements {
            mem_kb: 24_576,
            disk_kb: 1_024,
            min_cpu_speed: 0.5,
        };
        let dest = core
            .destination_for(&req, "a", at(1.0))
            .map(|e| e.name.to_string());
        assert_eq!(dest, Some("c".to_string()));
        // And nothing qualifies when c is the source: a is overloaded, b is
        // starved and c is excluded.
        assert!(core.destination_for(&req, "c", at(1.0)).is_none());
    }

    #[test]
    fn policy_destination_conditions_gate_first_fit() {
        // paper policy 2: destination needs LOAD1 < 1.0 AND NPROC < 100,
        // and a host missing those metrics is rejected, not waved through.
        let mut core = test_core(Policy::paper_policy2());
        register(&mut core, 0.0, 10, "loaded");
        register(&mut core, 0.0, 20, "silent");
        register(&mut core, 0.0, 30, "ok");
        let mut busy_metrics = good_metrics();
        busy_metrics.set("loadAvg1", 2.5);
        heartbeat(
            &mut core,
            1.0,
            10,
            "loaded",
            HostState::Free,
            busy_metrics,
            vec![],
        );
        // "silent" never reports metrics at all (registration defaults).
        heartbeat(
            &mut core,
            1.0,
            30,
            "ok",
            HostState::Free,
            good_metrics(),
            vec![],
        );
        let req = ResourceRequirements::default();
        let dest = core
            .destination_for(&req, "src", at(1.0))
            .map(|e| e.name.to_string());
        assert_eq!(dest, Some("ok".to_string()));
    }

    #[test]
    fn indexed_and_linear_first_fit_agree() {
        let mut core = RegistryCore::new(
            RegistryConfig::new(Policy::paper_policy2()),
            SchemaBook::new(),
        );
        // "stale" reports Free first and then goes silent past its lease:
        // it stays in the free-host index, and only `dest_reject` keeps it
        // from being the first fit.
        register(&mut core, 0.0, 10, "stale");
        heartbeat(
            &mut core,
            1.0,
            10,
            "stale",
            HostState::Free,
            good_metrics(),
            vec![],
        );
        let names = ["a", "b", "c", "d", "e"];
        for (i, name) in names.iter().enumerate() {
            let conn = 10 * (i as u64 + 2);
            register(&mut core, 0.0, conn, name);
            let state = match i % 3 {
                0 => HostState::Overloaded,
                1 => HostState::Busy,
                _ => HostState::Free,
            };
            for t in [1.0, 40.0] {
                heartbeat(&mut core, t, conn, name, state, good_metrics(), vec![]);
            }
        }
        let now = at(40.0);
        let d = &core.domain;
        assert!(d.free_hosts.contains(&0), "the stale host is still indexed");
        let req = ResourceRequirements::default();
        for exclude in ["stale", "a", "b", "c", "d", "e", "none"] {
            let linear = (0..d.hosts.len())
                .find(|&i| d.dest_reject(&d.hosts[i], &req, exclude, now).is_none());
            assert_eq!(d.first_fit(&req, exclude, now), linear, "exclude={exclude}");
        }
        assert_eq!(
            core.destination_for(&req, "none", now)
                .map(|e| e.name.as_ref()),
            Some("c"),
            "the lease-expired host must not be picked"
        );
    }

    #[test]
    fn overloaded_heartbeat_queues_one_decision_then_commands_migration() {
        let mut core = test_core(Policy::no_migration());
        register(&mut core, 0.0, 10, "a");
        register(&mut core, 0.0, 20, "b");
        let fx = heartbeat(
            &mut core,
            1.0,
            10,
            "a",
            HostState::Overloaded,
            good_metrics(),
            vec![report(7, 0.0, 100.0)],
        );
        assert!(
            matches!(
                fx.as_slice(),
                [CoreEffect::StartDecision { source, .. }] if source.as_ref() == "a"
            ),
            "expected exactly one StartDecision, got {fx:?}"
        );
        // A second overloaded beat while the decision is queued must not
        // queue another.
        let fx = heartbeat(
            &mut core,
            2.0,
            10,
            "a",
            HostState::Overloaded,
            good_metrics(),
            vec![report(7, 0.0, 100.0)],
        );
        assert!(fx.is_empty(), "duplicate decision queued: {fx:?}");

        // The due decision commands a migration to b via a's commander
        // (endpoint 11), in the exact effect order the drivers replay.
        let fx = feed(
            &mut core,
            2.0,
            CoreInput::DecisionDue {
                source: Arc::from("a"),
            },
        );
        match fx.as_slice() {
            [CoreEffect::Send {
                to,
                msg:
                    Message::MigrationCommand {
                        host, pid, dest, ..
                    },
            }, CoreEffect::ArmTimer { .. }, CoreEffect::Trace { .. }, CoreEffect::Log(LogEffect::Decision(rec)), CoreEffect::Log(LogEffect::CommandSent)] =>
            {
                assert_eq!(*to, Endpoint(11));
                assert_eq!(host, "a");
                assert_eq!(*pid, 7);
                assert_eq!(dest, "b");
                assert_eq!(rec.dest.as_deref(), Some("b"));
            }
            other => panic!("unexpected effect sequence: {other:?}"),
        }
        // The destination is optimistically marked Busy until its next
        // heartbeat, so a concurrent decision cannot pile onto it.
        assert!(core
            .destination_for(&ResourceRequirements::default(), "a", at(2.0))
            .is_none());
    }

    #[test]
    fn unacked_command_retransmits_with_backoff_then_aborts() {
        let mut core = test_core(Policy::no_migration());
        register(&mut core, 0.0, 10, "a");
        register(&mut core, 0.0, 20, "b");
        heartbeat(
            &mut core,
            1.0,
            10,
            "a",
            HostState::Overloaded,
            good_metrics(),
            vec![report(7, 0.0, 100.0)],
        );
        let fx = feed(
            &mut core,
            1.0,
            CoreInput::DecisionDue {
                source: Arc::from("a"),
            },
        );
        let mut timer = fx.iter().find_map(|e| match e {
            CoreEffect::ArmTimer { timer, .. } => Some(*timer),
            _ => None,
        });
        let retries = core.config().max_command_retries;
        let base = core.config().ack_timeout.as_secs_f64();
        for attempt in 1..=retries {
            let t = timer.take().expect("a retransmit deadline should be armed");
            let fx = feed(&mut core, 10.0 * attempt as f64, CoreInput::TimerFired(t));
            match fx.as_slice() {
                [CoreEffect::Trace { .. }, CoreEffect::Log(LogEffect::CommandRetransmit), CoreEffect::Send { to, .. }, CoreEffect::ArmTimer { timer: t2, after }] =>
                {
                    assert_eq!(*to, Endpoint(11));
                    // Exponential backoff: timeout * 2^attempt.
                    let expect = base * (1u64 << attempt) as f64;
                    assert!((after.as_secs_f64() - expect).abs() < 1e-9);
                    timer = Some(*t2);
                }
                other => panic!("retransmit #{attempt}: unexpected effects {other:?}"),
            }
        }
        // Retries exhausted: the next deadline aborts and clears the
        // cooldown so the host is eligible for a fresh decision.
        let t = timer.take().expect("final deadline");
        let fx = feed(&mut core, 100.0, CoreInput::TimerFired(t));
        assert!(
            matches!(
                fx.as_slice(),
                [
                    CoreEffect::Trace { .. },
                    CoreEffect::Log(LogEffect::CommandAborted)
                ]
            ),
            "abort effects: {fx:?}"
        );
        let fx = heartbeat(
            &mut core,
            101.0,
            10,
            "a",
            HostState::Overloaded,
            good_metrics(),
            vec![report(7, 0.0, 100.0)],
        );
        assert!(
            fx.iter()
                .any(|e| matches!(e, CoreEffect::StartDecision { .. })),
            "cooldown should be cleared after an abort: {fx:?}"
        );
        // A stale timer (e.g. from before the abort) fires into nothing.
        let fx = feed(&mut core, 102.0, CoreInput::TimerFired(t));
        assert!(fx.is_empty());
    }
}
