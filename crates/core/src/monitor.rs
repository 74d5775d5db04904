//! The per-host monitor entity (§3.1 and Figure 2).
//!
//! Each cycle the monitor runs its sensor scripts (burning real CPU — this
//! is the overhead Figure 5 measures), evaluates the rule-based state
//! decision, and pushes a heartbeat to its registry/scheduler (soft-state,
//! push model). The monitoring frequency depends on the current state; an
//! *overloaded* verdict must persist for a configurable confirmation window
//! before it is reported — "this period of time can avoid the fault
//! migration caused by small system performance variations" (§5.2).

use crate::adaptive::{AdaptiveConfig, AdaptiveConfirm};
use crate::hooks::{control, SchemaBook, CONTROL_TAG};
use ars_obs::{Obs, ObsEvent};
use ars_rules::{HostState, MonitoringFrequency, Policy, RuleSet};
use ars_sim::{Ctx, Pid, Program, RecvFilter, TraceKind, Wake};
use ars_simcore::{SimDuration, SimTime};
use ars_simnet::NodeId;
use ars_sysinfo::{Ambient, Sensors};
use ars_xmlwire::{EntityRole, HostStatic, Message, Metrics, ProcReport};
use std::sync::Arc;

/// How the monitor classifies its host's state. Both sources are read-only
/// and shared: a deployment builds one and every monitor holds an `Arc`.
#[derive(Clone)]
pub enum StateSource {
    /// Evaluate a rule file (the paper's Figures 3/4 mechanism).
    Rules(Arc<RuleSet>),
    /// Derive the state from a §5.3 policy: trigger ⇒ overloaded,
    /// destination-acceptable ⇒ free, otherwise busy.
    Policy(Arc<Policy>),
}

impl StateSource {
    fn classify(&self, metrics: &Metrics) -> HostState {
        match self {
            StateSource::Rules(rules) => rules
                .evaluate(metrics)
                .map(|e| e.state)
                .unwrap_or(HostState::Busy),
            StateSource::Policy(p) => {
                if p.migration_enabled && p.should_migrate(metrics) {
                    HostState::Overloaded
                } else if p.dest_acceptable(metrics) {
                    HostState::Free
                } else {
                    HostState::Busy
                }
            }
        }
    }
}

/// Monitor configuration.
pub struct MonitorConfig {
    /// The registry/scheduler to push to.
    pub registry: Pid,
    /// State classification mechanism.
    pub state_source: StateSource,
    /// Per-state monitoring frequency.
    pub freq: MonitoringFrequency,
    /// Ambient workstation activity baseline.
    pub ambient: Ambient,
    /// How long an overloaded verdict must persist before being reported.
    pub overload_confirm: SimDuration,
    /// Self-adjust the confirmation window from episode history (§6 future
    /// work). `None` keeps the fixed window.
    pub adaptive: Option<AdaptiveConfig>,
    /// Push model (the paper's choice): heartbeat every cycle. With
    /// `false` the monitor reports only on state changes and answers the
    /// registry's explicit [`StatusQuery`](ars_xmlwire::Message) pulls —
    /// the §3.2 alternative ("the registry/scheduler… queries the current
    /// information… thus slowing down the process").
    pub push: bool,
    /// The local commander, if any. When the registry answers a heartbeat
    /// with `ReRegister` (it restarted and lost its soft state), the
    /// monitor re-registers itself and relays the request here so the
    /// commander's pid is re-learned too.
    pub commander: Option<Pid>,
}

impl MonitorConfig {
    /// Default configuration against a registry, using the paper rule set.
    pub fn new(registry: Pid) -> Self {
        MonitorConfig {
            registry,
            state_source: StateSource::Rules(Arc::new(RuleSet::paper())),
            freq: MonitoringFrequency::default(),
            ambient: Ambient::default(),
            overload_confirm: SimDuration::from_secs(60),
            adaptive: None,
            push: true,
            commander: None,
        }
    }
}

/// FIFO attribution of the monitor's op completions (ops finish in the
/// order they were queued, so this queue maps every `OpDone` exactly).
enum MonOp {
    RegisterSent,
    ScriptsDone,
    HeartbeatSent,
    SleepDone,
    ReplySent,
}

/// The monitor program.
pub struct Monitor {
    cfg: MonitorConfig,
    sensors: Sensors,
    schemas: SchemaBook,
    op_kinds: std::collections::VecDeque<MonOp>,
    /// Raw verdict of the last cycle.
    pub last_raw_state: HostState,
    /// State actually reported (after confirmation windowing).
    pub last_reported_state: HostState,
    /// Metrics of the last cycle (tests and diagnostics).
    pub last_metrics: Metrics,
    overloaded_since: Option<SimTime>,
    /// Adaptive confirmation window, when enabled.
    pub adaptive: Option<AdaptiveConfirm>,
    /// Heartbeats sent (diagnostics).
    pub heartbeats_sent: u64,
    /// Status-query replies served (diagnostics; pull mode).
    pub queries_answered: u64,
    /// State last shipped to the registry (on-change reporting).
    last_sent_state: Option<HostState>,
    /// Observability session (rule-firing events). Disabled by default;
    /// installed with [`with_obs`](Self::with_obs).
    obs: Obs,
}

impl Monitor {
    /// Create a monitor from its configuration and the shared schema book.
    pub fn new(cfg: MonitorConfig, schemas: SchemaBook) -> Self {
        let sensors = Sensors::new(cfg.ambient.clone());
        let adaptive = cfg
            .adaptive
            .clone()
            .map(|a| AdaptiveConfirm::new(cfg.overload_confirm, a));
        Monitor {
            cfg,
            sensors,
            schemas,
            op_kinds: std::collections::VecDeque::new(),
            last_raw_state: HostState::Free,
            last_reported_state: HostState::Free,
            last_metrics: Metrics::new(),
            overloaded_since: None,
            adaptive,
            heartbeats_sent: 0,
            queries_answered: 0,
            last_sent_state: None,
            obs: Obs::disabled(),
        }
    }

    /// Install an observability session (builder style, so the many
    /// `MonitorConfig` construction sites stay untouched).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The currently effective confirmation window.
    pub fn confirm_window(&self) -> SimDuration {
        self.adaptive
            .as_ref()
            .map_or(self.cfg.overload_confirm, AdaptiveConfirm::window)
    }

    fn host_static(ctx: &Ctx<'_>) -> HostStatic {
        let cfg = ctx.host().config();
        HostStatic {
            name: cfg.name.clone(),
            ip: format!("10.0.0.{}", ctx.host_id().0 + 1),
            os: cfg.os.clone(),
            cpu_speed: cfg.cpu_speed,
            n_cpus: cfg.n_cpus,
            mem_kb: cfg.mem_kb,
        }
    }

    fn send_control(ctx: &mut Ctx<'_>, to: Pid, msg: Message) {
        ctx.send(to, CONTROL_TAG, control(msg));
    }

    fn sample_and_report(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let node = NodeId(ctx.host_id().0);
        let metrics = {
            let host = ctx.host();
            let net = ctx.net();
            self.sensors.sample(now, host, net, node)
        };
        let raw = self.cfg.state_source.classify(&metrics);
        if raw != self.last_raw_state {
            self.obs.inc("rules_fired");
            self.obs.record(now, || ObsEvent::RuleFired {
                host: ctx.host().name().to_string(),
                from: format!("{:?}", self.last_raw_state),
                to: format!("{raw:?}"),
            });
        }

        // Confirmation window: report overloaded only once sustained.
        let window = self.confirm_window();
        let reported = if raw == HostState::Overloaded {
            let since = *self.overloaded_since.get_or_insert(now);
            if now.since(since) >= window {
                if let Some(a) = &mut self.adaptive {
                    if self.last_reported_state != HostState::Overloaded {
                        a.on_confirmed(now);
                    } else {
                        a.on_still_overloaded(now);
                    }
                }
                HostState::Overloaded
            } else {
                HostState::Busy
            }
        } else {
            if self.overloaded_since.take().is_some() {
                if let Some(a) = &mut self.adaptive {
                    a.on_cleared(now);
                }
            }
            raw
        };
        if reported == HostState::Overloaded && self.last_reported_state != HostState::Overloaded {
            ctx.trace(
                TraceKind::Custom,
                format!("monitor {}: overloaded confirmed", ctx.host().name()),
            );
        }

        // Migration-enabled processes, with schema-estimated exec times.
        let procs: Vec<ProcReport> = self.proc_reports(ctx);

        self.last_raw_state = raw;
        self.last_reported_state = reported;
        self.last_metrics = metrics.clone();

        // Push model: report every cycle. On-change model: report on state
        // changes — and always while overloaded, since that report is the
        // request for help that drives the decision loop.
        if self.cfg.push
            || self.last_sent_state != Some(reported)
            || reported == HostState::Overloaded
        {
            let msg = Message::Heartbeat {
                host: ctx.host().name().to_string(),
                state: reported,
                metrics,
                procs,
            };
            Self::send_control(ctx, self.cfg.registry, msg);
            self.op_kinds.push_back(MonOp::HeartbeatSent);
            self.heartbeats_sent += 1;
            self.last_sent_state = Some(reported);
        } else {
            self.queue_sleep(ctx);
        }
    }

    fn build_heartbeat(&self, ctx: &Ctx<'_>) -> Message {
        Message::Heartbeat {
            host: ctx.host().name().to_string(),
            state: self.last_reported_state,
            metrics: self.last_metrics.clone(),
            procs: self.proc_reports(ctx),
        }
    }

    fn proc_reports(&self, ctx: &Ctx<'_>) -> Vec<ProcReport> {
        ctx.host()
            .procs()
            .migratable()
            .into_iter()
            .map(|p| ProcReport {
                pid: p.pid,
                app: p.name.to_string(),
                start_time_s: p.start_time.as_secs_f64(),
                est_exec_time_s: self.schemas.get(&p.name).map_or(0.0, |s| s.est_exec_time_s),
            })
            .collect()
    }

    fn queue_sleep(&mut self, ctx: &mut Ctx<'_>) {
        let interval = self.cfg.freq.interval(self.last_reported_state);
        ctx.sleep(interval);
        self.op_kinds.push_back(MonOp::SleepDone);
    }

    fn queue_scripts(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(self.sensors.invocation_cost());
        self.op_kinds.push_back(MonOp::ScriptsDone);
    }

    /// Serve any queued registry pulls with the freshest sample.
    fn drain_queries(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(env) = ctx.take_message(RecvFilter::tag(CONTROL_TAG)) {
            let Some(msg) = env.payload.into_value::<Message>() else {
                continue;
            };
            match msg {
                Message::StatusQuery { .. } => {
                    let reply = self.build_heartbeat(ctx);
                    Self::send_control(ctx, env.from, reply);
                    self.op_kinds.push_back(MonOp::ReplySent);
                    self.queries_answered += 1;
                    self.last_sent_state = Some(self.last_reported_state);
                }
                msg @ Message::ReRegister { .. } => {
                    // The registry restarted and lost its soft state:
                    // re-push our static registration (the next heartbeat
                    // repopulates the dynamic half) and relay to the local
                    // commander so its pid is re-learned as well.
                    ctx.trace(
                        TraceKind::Recovery,
                        format!("monitor {}: re-registering", ctx.host().name()),
                    );
                    let reg = Message::Register {
                        host: Self::host_static(ctx),
                        role: EntityRole::Monitor,
                    };
                    Self::send_control(ctx, self.cfg.registry, reg);
                    self.op_kinds.push_back(MonOp::ReplySent);
                    if let Some(commander) = self.cfg.commander {
                        Self::send_control(ctx, commander, msg);
                        self.op_kinds.push_back(MonOp::ReplySent);
                    }
                }
                _ => {}
            }
        }
    }
}

impl Program for Monitor {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match wake {
            Wake::Started => {
                let msg = Message::Register {
                    host: Self::host_static(ctx),
                    role: EntityRole::Monitor,
                };
                Self::send_control(ctx, self.cfg.registry, msg);
                self.op_kinds.push_back(MonOp::RegisterSent);
            }
            Wake::OpDone => match self.op_kinds.pop_front() {
                Some(MonOp::RegisterSent) => self.queue_scripts(ctx),
                Some(MonOp::ScriptsDone) => self.sample_and_report(ctx),
                Some(MonOp::HeartbeatSent) => self.queue_sleep(ctx),
                Some(MonOp::SleepDone) => {
                    // Serve registry pulls once per cycle, then sample.
                    self.drain_queries(ctx);
                    self.queue_scripts(ctx);
                }
                Some(MonOp::ReplySent) | None => {}
            },
            // The monitor always has an op in flight, so direct deliveries
            // cannot happen; queued messages are drained at cycle
            // boundaries. Signals and alarms are not used by monitors.
            Wake::Received(_) | Wake::Signal(_) | Wake::Alarm(_) => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
