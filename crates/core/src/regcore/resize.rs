//! Malleable jobs: capacity rules evaluated against the domain's health,
//! turned into `expand:`/`shrink:` reconfiguration commands that ride the
//! same commander channel and ack machinery as migration commands.

use super::{Domain, Liveness};
use ars_rules::{ResizeAction, ResizeRule};
use ars_sim::TraceKind;
use ars_simcore::SimTime;
use ars_xmlwire::{ApplicationSchema, HostState};

/// A malleable application registered with the scheduler: where its
/// coordinator lives, its current layout, and the capacity rules that
/// govern its size. The registry updates `ranks`/`hosts` optimistically
/// when it dispatches a reconfiguration, mirroring how a commanded
/// migration optimistically marks its destination busy.
#[derive(Debug, Clone)]
pub struct MalleableJob {
    /// Application name (matched against each rule's `app`).
    pub app: String,
    /// Host whose commander delivers reconfiguration commands (where the
    /// coordinator rank runs).
    pub host: String,
    /// Coordinator pid the command is addressed to.
    pub pid: u64,
    /// Current world size, in ranks.
    pub ranks: u32,
    /// Hosts currently running ranks, in rank order (excluded when picking
    /// expansion targets; truncated on shrink).
    pub hosts: Vec<String>,
    /// Capacity rules governing this job.
    pub rules: Vec<ResizeRule>,
    /// When the last reconfiguration command went out (cooldown basis).
    last_resize: Option<SimTime>,
}

impl MalleableJob {
    /// Describe a malleable job: its coordinator (`host`, `pid`), the
    /// hosts of its current world in rank order, and its rules.
    pub fn new(
        app: impl Into<String>,
        host: impl Into<String>,
        pid: u64,
        hosts: Vec<String>,
        rules: Vec<ResizeRule>,
    ) -> Self {
        MalleableJob {
            app: app.into(),
            host: host.into(),
            pid,
            ranks: hosts.len() as u32,
            hosts,
            rules,
            last_resize: None,
        }
    }
}

impl Domain {
    /// Evaluate the malleable jobs' capacity rules against the domain's
    /// current health and dispatch at most one reconfiguration command per
    /// job. A no-op when no malleable jobs are configured, so pre-existing
    /// effect streams are byte-identical.
    pub(super) fn maybe_resize(&mut self, now: SimTime) {
        if self.cfg.malleable_jobs.is_empty() {
            return;
        }
        let health = self.health(now);
        let total = health.total();
        if total == 0 {
            return;
        }
        let free_frac = health.free as f64 / total as f64;
        let over_frac = health.overloaded as f64 / total as f64;
        for j in 0..self.cfg.malleable_jobs.len() {
            let job = &self.cfg.malleable_jobs[j];
            let cooled = job
                .last_resize
                .is_none_or(|t| now.since(t) >= self.cfg.resize_cooldown);
            // One reconfiguration in flight at a time: an unacknowledged
            // command for this pid blocks the next decision exactly like a
            // migration command blocks its source host.
            if !cooled || self.pending().any(|p| p.pid == job.pid) {
                continue;
            }
            let fired = job.rules.iter().filter(|r| r.app == job.app).find_map(|r| {
                r.decide(free_frac, over_frac, job.ranks)
                    .map(|target| (r.action, target))
            });
            let Some((action, target)) = fired else {
                continue;
            };
            match action {
                ResizeAction::Expand => self.command_expand(now, j, target),
                ResizeAction::Shrink => self.command_shrink(now, j, target),
            }
        }
    }

    /// Grow job `j` to `target` ranks: pick free hosts not already running
    /// a rank (first-fit order), compose the `expand:k':h1,h2` spec and
    /// command the coordinator. Skipped without a trace of a transaction
    /// when the cluster cannot supply enough hosts.
    fn command_expand(&mut self, now: SimTime, j: usize, target: u32) {
        let job = &self.cfg.malleable_jobs[j];
        let need = (target - job.ranks) as usize;
        let mut chosen: Vec<usize> = Vec::with_capacity(need);
        for &idx in &self.free_hosts {
            let e = &self.hosts[idx];
            if e.effective_state(now, self.cfg.lease) != HostState::Free
                || e.liveness(now, self.cfg.lease) != Liveness::Alive
                || job.hosts.iter().any(|h| h == e.name.as_ref())
            {
                continue;
            }
            chosen.push(idx);
            if chosen.len() == need {
                break;
            }
        }
        if chosen.len() < need {
            self.trace(
                TraceKind::Decision,
                format!(
                    "registry {}: expand {} to {target} needs {need} free hosts, found {}",
                    self.cfg.name,
                    job.app,
                    chosen.len()
                ),
            );
            self.cfg.obs.inc("resize_skipped_no_capacity");
            return;
        }
        let names: Vec<String> = chosen
            .iter()
            .map(|&i| self.hosts[i].name.to_string())
            .collect();
        let spec = format!("expand:{target}:{}", names.join(","));
        if !self.dispatch_resize(now, j, &spec) {
            return;
        }
        // Optimistically mark the new hosts loaded (like a migration
        // destination) and fold them into the job's layout.
        for &i in &chosen {
            self.set_state(i, HostState::Busy);
        }
        let job = &mut self.cfg.malleable_jobs[j];
        job.hosts.extend(names);
        job.ranks = target;
        job.last_resize = Some(now);
        self.cfg.obs.inc("resize_expand_commands");
    }

    /// Shrink job `j` to `target` ranks (the shell retires the highest
    /// ranks, so the layout truncates from the tail).
    fn command_shrink(&mut self, now: SimTime, j: usize, target: u32) {
        let spec = format!("shrink:{target}");
        if !self.dispatch_resize(now, j, &spec) {
            return;
        }
        let job = &mut self.cfg.malleable_jobs[j];
        job.hosts.truncate(target as usize);
        job.ranks = target;
        job.last_resize = Some(now);
        self.cfg.obs.inc("resize_shrink_commands");
    }

    /// Send a reconfiguration spec to the job's coordinator through the
    /// same commander channel — and the same ack/retransmit/abort
    /// machinery — migration commands use. Returns false when the
    /// coordinator's host is unknown (nothing dispatched).
    fn dispatch_resize(&mut self, now: SimTime, j: usize, spec: &str) -> bool {
        let job = &self.cfg.malleable_jobs[j];
        let Some(&src_idx) = self.index.get(job.host.as_str()) else {
            self.trace(
                TraceKind::Custom,
                format!(
                    "registry {}: malleable job {} names unregistered host {}",
                    self.cfg.name, job.app, job.host
                ),
            );
            return false;
        };
        let pid = job.pid;
        let schema = self
            .schemas
            .get(&job.app)
            .unwrap_or_else(|| ApplicationSchema::compute(job.app.clone(), 0.0));
        self.dispatch_command(now, src_idx, spec, pid, schema, false);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use ars_simcore::SimDuration;
    use ars_xmlwire::Message;

    fn malleable_core() -> RegistryCore {
        use ars_rules::{ResizeMetric, RuleOp};
        let mut cfg = RegistryConfig::new(Policy::no_migration());
        cfg.name = "test".to_string();
        let rules = vec![
            ResizeRule {
                app: "mtree".to_string(),
                metric: ResizeMetric::FreeFrac,
                op: RuleOp::GreaterEq,
                threshold: 0.9,
                action: ResizeAction::Expand,
                step: 1,
                min_ranks: 1,
                max_ranks: 4,
            },
            ResizeRule {
                app: "mtree".to_string(),
                metric: ResizeMetric::OverloadedFrac,
                op: RuleOp::GreaterEq,
                threshold: 0.5,
                action: ResizeAction::Shrink,
                step: 1,
                min_ranks: 1,
                max_ranks: 4,
            },
        ];
        cfg.malleable_jobs = vec![MalleableJob::new(
            "mtree",
            "a",
            42,
            vec!["a".to_string(), "b".to_string()],
            rules,
        )];
        cfg.resize_cooldown = SimDuration::from_secs(10);
        RegistryCore::new(cfg, SchemaBook::new())
    }

    /// The MigrationCommand sends among `fx`, as `(pid, dest)` pairs.
    fn commands(fx: &[CoreEffect]) -> Vec<(u64, String)> {
        fx.iter()
            .filter_map(|e| match e {
                CoreEffect::Send {
                    msg: Message::MigrationCommand { pid, dest, .. },
                    ..
                } => Some((*pid, dest.clone())),
                _ => None,
            })
            .collect()
    }

    /// Heartbeat every host in `beats` at `now`, collecting every
    /// reconfiguration/migration command that goes out.
    fn drive_beats(
        core: &mut RegistryCore,
        now: f64,
        beats: &[(&str, u64, HostState)],
    ) -> Vec<(u64, String)> {
        let mut all = Vec::new();
        for &(name, conn, state) in beats {
            let fx = heartbeat(core, now, conn, name, state, good_metrics(), vec![]);
            all.extend(commands(&fx));
        }
        all
    }

    #[test]
    fn free_cluster_expands_the_malleable_job() {
        let mut core = malleable_core();
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            register(&mut core, 0.0, 10 * (i as u64 + 1), name);
        }
        // Everyone free (registration defaults the rest to free): the
        // expand rule fires once free_frac >= 0.9, targeting the first
        // free host outside the current layout — and the in-flight command
        // blocks a second expand until it is acknowledged.
        let mut cmds = drive_beats(
            &mut core,
            1.0,
            &[
                ("b", 20, HostState::Free),
                ("c", 30, HostState::Free),
                ("d", 40, HostState::Free),
            ],
        );
        cmds.extend(drive_beats(&mut core, 2.0, &[("a", 10, HostState::Free)]));
        assert_eq!(cmds, vec![(42, "expand:3:c".to_string())]);
        let job = &core.config().malleable_jobs[0];
        assert_eq!(job.ranks, 3);
        assert_eq!(job.hosts, vec!["a", "b", "c"]);
    }

    #[test]
    fn overloaded_cluster_shrinks_and_cooldown_spaces_commands() {
        let mut core = malleable_core();
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            register(&mut core, 0.0, 10 * (i as u64 + 1), name);
        }
        let mut cmds = drive_beats(
            &mut core,
            1.0,
            &[
                ("b", 20, HostState::Overloaded),
                ("c", 30, HostState::Overloaded),
                ("d", 40, HostState::Overloaded),
            ],
        );
        cmds.extend(drive_beats(&mut core, 2.0, &[("a", 10, HostState::Busy)]));
        assert_eq!(cmds, vec![(42, "shrink:1".to_string())]);
        assert_eq!(core.config().malleable_jobs[0].ranks, 1);
        assert_eq!(core.config().malleable_jobs[0].hosts, vec!["a"]);
        // Ack the command so only the cooldown is in the way…
        msg(
            &mut core,
            3.0,
            11,
            Message::CommandAck {
                host: "a".to_string(),
                pid: 42,
                ok: true,
            },
        );
        // …then flip the cluster free: inside the cooldown nothing goes
        // out even though the expand rule fires; past it, the job grows.
        for (now, expect) in [
            (6.0, Vec::new()),
            (13.0, vec![(42, "expand:2:b".to_string())]),
        ] {
            let cmds = drive_beats(
                &mut core,
                now,
                &[
                    ("b", 20, HostState::Free),
                    ("c", 30, HostState::Free),
                    ("d", 40, HostState::Free),
                    ("a", 10, HostState::Free),
                ],
            );
            assert_eq!(cmds, expect, "cooldown must gate the next resize (t={now})");
        }
        assert_eq!(core.config().malleable_jobs[0].ranks, 2);
    }

    #[test]
    fn expand_without_enough_free_hosts_is_skipped() {
        let mut core = malleable_core();
        // Only the job's own hosts exist: nowhere to grow to.
        register(&mut core, 0.0, 10, "a");
        register(&mut core, 0.0, 20, "b");
        heartbeat(
            &mut core,
            1.0,
            20,
            "b",
            HostState::Free,
            good_metrics(),
            vec![],
        );
        let fx = heartbeat(
            &mut core,
            2.0,
            10,
            "a",
            HostState::Free,
            good_metrics(),
            vec![],
        );
        assert!(commands(&fx).is_empty(), "no hosts to expand onto: {fx:?}");
        assert_eq!(core.config().malleable_jobs[0].ranks, 2, "layout unchanged");
    }

    #[test]
    fn no_malleable_jobs_means_no_new_effects() {
        // Byte-identity guard: the default config must not add effects to
        // the heartbeat path.
        let mut core = test_core(Policy::no_migration());
        register(&mut core, 0.0, 10, "a");
        let fx = heartbeat(
            &mut core,
            1.0,
            10,
            "a",
            HostState::Free,
            good_metrics(),
            vec![],
        );
        assert!(fx.is_empty(), "free heartbeat stays effect-free: {fx:?}");
    }
}
