//! The soft-state host table: the arena of registered hosts, the lease and
//! missed-heartbeat failure detector over it, and the two inputs that
//! maintain it — registration and heartbeats. A restart empties it and
//! monitors repopulate it through the heartbeat path's re-register nudge.

use super::{CoreEffect, Domain, Endpoint};
use ars_obs::ObsEvent;
use ars_sim::TraceKind;
use ars_simcore::{SimDuration, SimTime};
use ars_xmlwire::{EntityRole, HostState, HostStatic, Message, Metrics, ProcReport};
use std::sync::Arc;

/// Aggregate health of a registry's domain.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DomainHealth {
    /// Hosts currently free.
    pub free: u32,
    /// Hosts currently busy.
    pub busy: u32,
    /// Hosts currently overloaded.
    pub overloaded: u32,
    /// Hosts with expired leases.
    pub unavailable: u32,
    /// Sum of reported 1-minute load averages.
    pub load_sum: f64,
    /// Number of load samples in the sum.
    pub load_samples: u32,
}

impl DomainHealth {
    /// Mean 1-minute load over the domain, if any host reported one.
    pub fn mean_load(&self) -> Option<f64> {
        (self.load_samples > 0).then(|| self.load_sum / self.load_samples as f64)
    }

    /// Accumulate another domain's health into this one (a mid-level
    /// registry reports its whole subtree upward as one summary).
    pub fn merge(&mut self, other: &DomainHealth) {
        self.free += other.free;
        self.busy += other.busy;
        self.overloaded += other.overloaded;
        self.unavailable += other.unavailable;
        self.load_sum += other.load_sum;
        self.load_samples += other.load_samples;
    }

    /// Total registered hosts.
    pub fn total(&self) -> u32 {
        self.free + self.busy + self.overloaded + self.unavailable
    }
}

/// Registry-side view of one registered host.
#[derive(Debug, Clone)]
pub struct HostEntry {
    /// Interned host name (shared with the index and cooldown maps, so
    /// per-decision bookkeeping clones a refcount, not a `String`).
    pub name: Arc<str>,
    /// Static registration info.
    pub statics: HostStatic,
    /// Monitor endpoint (heartbeat sender).
    pub monitor: Option<Endpoint>,
    /// Commander endpoint (command addressee).
    pub commander: Option<Endpoint>,
    /// Last heartbeat time.
    pub last_seen: SimTime,
    /// Last reported state.
    pub state: HostState,
    /// Last reported metrics.
    pub metrics: Metrics,
    /// Last reported migratable processes.
    pub procs: Vec<ProcReport>,
    /// Observed gap between the last two heartbeats (the push period this
    /// monitor is actually running at; feeds the failure detector).
    pub hb_interval: Option<SimDuration>,
    /// Last command *or* decision for this host (cooldown basis). Lives in
    /// the arena row rather than a side map keyed by name, so the
    /// heartbeat hot path never hashes a hostname for it.
    pub(crate) last_command: Option<SimTime>,
    /// Last liveness verdict recorded by the observability sweep
    /// (observability only — the scheduler always re-evaluates
    /// [`HostEntry::liveness`]).
    pub(crate) obs_verdict: Liveness,
}

/// Failure-detector verdict for a registered host.
///
/// The soft-state lease alone reacts slowly (tens of seconds); the
/// missed-heartbeat detector compares silence against the host's *observed*
/// push period and downgrades much earlier. `Suspect` hosts are excluded as
/// migration destinations ahead of lease expiry, so a crashed host stops
/// attracting processes after ~2 missed beats instead of a full lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Liveness {
    /// Heartbeats arriving on schedule.
    Alive,
    /// At least two expected heartbeats missed — not trusted as a
    /// destination, but not yet written off.
    Suspect,
    /// Three or more missed heartbeats, or the lease expired.
    Down,
}

impl HostEntry {
    /// State as of `now`, accounting for lease expiry.
    pub fn effective_state(&self, now: SimTime, lease: SimDuration) -> HostState {
        if now.since(self.last_seen) > lease {
            HostState::Unavailable
        } else {
            self.state
        }
    }

    /// Missed-heartbeat failure detection (see [`Liveness`]).
    ///
    /// A beat counts as missed once it is *half an interval* overdue —
    /// round-to-nearest, not truncation. Truncating made the detector a
    /// full interval late at every boundary: 2.99 intervals of silence
    /// counted as only two missed beats (barely `Suspect`) and 1.5
    /// intervals still looked `Alive`. With rounding, `Suspect` starts at
    /// 1.5 intervals of silence and `Down` at 2.5.
    ///
    /// Hosts that have not yet established a push period are judged
    /// against `lease / 3` — roughly the cadence a default-period monitor
    /// settles into — so even a host that died right after registering
    /// turns `Suspect` around half a lease instead of staying `Alive`
    /// until the full lease expires.
    pub fn liveness(&self, now: SimTime, lease: SimDuration) -> Liveness {
        let silent = now.since(self.last_seen);
        if silent > lease {
            return Liveness::Down;
        }
        let iv_s = self
            .hb_interval
            .map(|iv| iv.as_secs_f64())
            .filter(|&s| s > 0.0)
            .unwrap_or_else(|| lease.as_secs_f64() / 3.0);
        let missed = (silent.as_secs_f64() / iv_s + 0.5).floor() as u32;
        if missed >= 3 {
            return Liveness::Down;
        }
        if missed >= 2 {
            return Liveness::Suspect;
        }
        Liveness::Alive
    }
}

impl Domain {
    /// See [`RegistryCore::domain_health`](super::RegistryCore::domain_health).
    pub(super) fn health(&self, now: SimTime) -> DomainHealth {
        let mut h = DomainHealth::default();
        for e in &self.hosts {
            match e.effective_state(now, self.cfg.lease) {
                HostState::Free => h.free += 1,
                HostState::Busy => h.busy += 1,
                HostState::Overloaded => h.overloaded += 1,
                HostState::Unavailable => h.unavailable += 1,
            }
            if let Some(l) = e.metrics.get("loadAvg1") {
                h.load_sum += l;
                h.load_samples += 1;
            }
        }
        h
    }

    /// Record a host's reported state, keeping the free-host index in sync.
    pub(super) fn set_state(&mut self, idx: usize, state: HostState) {
        self.hosts[idx].state = state;
        if state.accepts_migration() {
            self.free_hosts.insert(idx);
        } else {
            self.free_hosts.remove(&idx);
        }
    }

    /// A monitor or commander introduced its host (child registries
    /// register with the tree instead).
    pub(super) fn on_register(
        &mut self,
        now: SimTime,
        from: Endpoint,
        host: HostStatic,
        role: EntityRole,
    ) {
        let idx = match self.index.get(host.name.as_str()) {
            Some(&i) => i,
            None => {
                let name: Arc<str> = Arc::from(host.name.as_str());
                self.hosts.push(HostEntry {
                    name: name.clone(),
                    statics: host.clone(),
                    monitor: None,
                    commander: None,
                    last_seen: now,
                    state: HostState::Free,
                    metrics: Metrics::new(),
                    procs: Vec::new(),
                    hb_interval: None,
                    last_command: None,
                    obs_verdict: Liveness::Alive,
                });
                let idx = self.hosts.len() - 1;
                self.index.insert(name, idx);
                self.free_hosts.insert(idx);
                idx
            }
        };
        let entry = &mut self.hosts[idx];
        entry.last_seen = now;
        match role {
            EntityRole::Monitor => entry.monitor = Some(from),
            EntityRole::Commander => entry.commander = Some(from),
            EntityRole::Registry => {}
        }
    }

    /// Refresh a host's row from its heartbeat and queue a decision when it
    /// reports overload. Returns false for an unregistered sender, which
    /// gets a re-register nudge and nothing else.
    pub(super) fn on_heartbeat(
        &mut self,
        now: SimTime,
        from: Endpoint,
        host: String,
        state: HostState,
        metrics: Metrics,
        procs: Vec<ProcReport>,
    ) -> bool {
        let Some(&idx) = self.index.get(host.as_str()) else {
            // Unknown sender — most likely we restarted and lost the soft
            // state. Nudge the monitor to re-introduce its host.
            self.trace(
                TraceKind::Recovery,
                format!("registry: heartbeat from unregistered {host}, asking to re-register"),
            );
            self.send(from, Message::ReRegister { host });
            return false;
        };
        let name = self.hosts[idx].name.clone();
        {
            let entry = &mut self.hosts[idx];
            let gap = now.since(entry.last_seen);
            // Track the observed push period for the failure detector.
            // Sub-second gaps are pull replies or registration bursts, not
            // the periodic push, and would make the detector hair-trigger.
            if gap >= SimDuration::from_secs(1) {
                entry.hb_interval = Some(gap);
            }
            entry.last_seen = now;
            entry.metrics = metrics;
            entry.procs = procs;
            entry.monitor.get_or_insert(from);
        }
        self.set_state(idx, state);

        // A pull round in flight? This heartbeat may be one of its replies.
        if let Some(round) = &mut self.pull_round {
            round.awaiting.remove(host.as_str());
            if round.awaiting.is_empty() {
                self.finish_pull_round(now);
            }
        }

        if state == HostState::Overloaded {
            let cooled = self.hosts[idx]
                .last_command
                .is_none_or(|t| now.since(t) >= self.cfg.command_cooldown);
            let already_queued = self
                .queued_decisions
                .iter()
                .any(|s| s.as_ref() == host.as_str())
                || self.pending().any(|p| p.source.as_ref() == host);
            if cooled && !already_queued {
                // Charge the decision-making cost, then decide.
                self.queued_decisions.push(name.clone());
                self.out.push(CoreEffect::StartDecision {
                    source: name,
                    cost: self.cfg.decision_cost,
                });
            }
        }
        self.obs_sweep_detector(now);
        true
    }

    /// Observability sweep: re-evaluate every host's liveness verdict and
    /// record transitions ([`ObsEvent::HostSuspect`] / `HostDown` /
    /// `HostRecovered`) plus detector reaction-time histograms. Read-only
    /// with respect to scheduling state, a no-op when recording is
    /// disabled, and rate-limited to once per sim second so heartbeat
    /// storms do not make event volume quadratic in cluster size.
    fn obs_sweep_detector(&mut self, now: SimTime) {
        if !self.cfg.obs.is_enabled() {
            return;
        }
        if self.last_obs_sweep != SimTime::ZERO
            && now.since(self.last_obs_sweep) < SimDuration::from_secs(1)
        {
            return;
        }
        self.last_obs_sweep = now;
        for e in &mut self.hosts {
            let v = e.liveness(now, self.cfg.lease);
            let prev = std::mem::replace(&mut e.obs_verdict, v);
            if v == prev {
                continue;
            }
            let silent_s = now.since(e.last_seen).as_secs_f64();
            let host = e.name.to_string();
            match v {
                Liveness::Suspect => {
                    self.cfg.obs.inc("hosts_suspected");
                    self.cfg.obs.observe("detector_suspect_s", silent_s);
                    self.cfg
                        .obs
                        .record(now, || ObsEvent::HostSuspect { host, silent_s });
                }
                Liveness::Down => {
                    self.cfg.obs.inc("hosts_down");
                    self.cfg.obs.observe("detector_down_s", silent_s);
                    self.cfg
                        .obs
                        .record(now, || ObsEvent::HostDown { host, silent_s });
                }
                Liveness::Alive => {
                    self.cfg.obs.inc("hosts_recovered");
                    self.cfg
                        .obs
                        .record(now, || ObsEvent::HostRecovered { host });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_seen_at(last_seen: SimTime, hb_interval: Option<SimDuration>) -> HostEntry {
        HostEntry {
            name: Arc::from("ws"),
            statics: HostStatic {
                name: "ws".to_string(),
                ip: String::new(),
                os: String::new(),
                cpu_speed: 1.0,
                n_cpus: 1,
                mem_kb: 0,
            },
            monitor: None,
            commander: None,
            last_seen,
            state: HostState::Free,
            metrics: Metrics::new(),
            procs: vec![],
            hb_interval,
            last_command: None,
            obs_verdict: Liveness::Alive,
        }
    }

    #[test]
    fn host_entry_lease_expiry() {
        let entry = entry_seen_at(SimTime::from_secs(100), None);
        let lease = SimDuration::from_secs(35);
        assert_eq!(
            entry.effective_state(SimTime::from_secs(120), lease),
            HostState::Free
        );
        assert_eq!(
            entry.effective_state(SimTime::from_secs(200), lease),
            HostState::Unavailable
        );
    }

    #[test]
    fn lease_expiry_exactly_at_the_boundary_tick_is_inclusive() {
        // last_seen = 100 s, lease = 35 s: the entry is valid up to and
        // including t = 135 s exactly; the first tick past expires it.
        let entry = entry_seen_at(SimTime::from_secs(100), None);
        let lease = SimDuration::from_secs(35);
        let boundary = SimTime::from_secs(135);
        let just_past = SimTime::from_secs_f64(135.000_001);
        assert_eq!(entry.effective_state(boundary, lease), HostState::Free);
        assert_eq!(
            entry.effective_state(just_past, lease),
            HostState::Unavailable
        );
        // The failure detector has long since written the host off: with
        // no observed push period it is judged against lease/3 and turned
        // Down around 29 s of silence, well before the lease boundary.
        assert_eq!(entry.liveness(boundary, lease), Liveness::Down);
        assert_eq!(entry.liveness(just_past, lease), Liveness::Down);
    }

    #[test]
    fn missed_heartbeat_detector_downgrades_ahead_of_the_lease() {
        // Observed push period 10 s, lease 35 s. A beat counts as missed
        // once half an interval overdue: Suspect at 15 s of silence (two
        // beats overdue), Down at 25 s — both well before lease expiry.
        let entry = entry_seen_at(SimTime::from_secs(100), Some(SimDuration::from_secs(10)));
        let lease = SimDuration::from_secs(35);
        let at = |s: f64| SimTime::from_secs_f64(100.0 + s);
        assert_eq!(entry.liveness(at(10.0), lease), Liveness::Alive);
        assert_eq!(entry.liveness(at(14.9), lease), Liveness::Alive);
        assert_eq!(entry.liveness(at(15.0), lease), Liveness::Suspect);
        assert_eq!(entry.liveness(at(24.9), lease), Liveness::Suspect);
        assert_eq!(entry.liveness(at(25.0), lease), Liveness::Down);
        // The old truncating detector called 2.99 intervals of silence
        // "two missed beats" (barely Suspect); rounding calls it Down.
        assert_eq!(entry.liveness(at(29.9), lease), Liveness::Down);
    }

    #[test]
    fn detector_without_observed_period_falls_back_to_a_lease_fraction() {
        // No push period yet: judged against lease/3 (~11.67 s for a 35 s
        // lease), so Suspect from 17.5 s of silence and Down from ~29.2 s
        // instead of staying Alive until the full lease expires.
        let entry = entry_seen_at(SimTime::from_secs(100), None);
        let lease = SimDuration::from_secs(35);
        let at = |s: f64| SimTime::from_secs_f64(100.0 + s);
        assert_eq!(entry.liveness(at(17.0), lease), Liveness::Alive);
        assert_eq!(entry.liveness(at(17.6), lease), Liveness::Suspect);
        assert_eq!(entry.liveness(at(29.0), lease), Liveness::Suspect);
        assert_eq!(entry.liveness(at(29.2), lease), Liveness::Down);
        // A zero-length observed interval is nonsense — same fallback.
        let zero = entry_seen_at(SimTime::from_secs(100), Some(SimDuration::from_secs(0)));
        assert_eq!(zero.liveness(at(17.6), lease), Liveness::Suspect);
    }

    #[test]
    fn detector_suspects_at_one_and_a_half_intervals() {
        // The boundary the truncation bug got wrong: 1.5 intervals of
        // silence is two overdue beats, not one.
        let entry = entry_seen_at(SimTime::ZERO, Some(SimDuration::from_secs(4)));
        let lease = SimDuration::from_secs(35);
        assert_eq!(
            entry.liveness(SimTime::from_secs_f64(5.9), lease),
            Liveness::Alive
        );
        assert_eq!(
            entry.liveness(SimTime::from_secs_f64(6.0), lease),
            Liveness::Suspect
        );
        assert_eq!(
            entry.liveness(SimTime::from_secs_f64(10.0), lease),
            Liveness::Down
        );
    }
}
