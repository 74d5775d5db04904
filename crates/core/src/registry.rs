//! The registry/scheduler entity (§3.2) — DES driver.
//!
//! All scheduling logic lives in the transport-agnostic
//! [`RegistryCore`](crate::regcore::RegistryCore); this module is the thin
//! [`Program`] adapter that maps discrete-event-simulation wakes to core
//! inputs and replays core effects onto the kernel:
//!
//! * [`CoreEffect::Send`] → an async send op (`ctx.send`) tagged in the
//!   FIFO op queue, so its completion is attributed correctly;
//! * [`CoreEffect::StartDecision`] → a compute op charging the decision's
//!   CPU cost; the op's completion feeds [`CoreInput::DecisionDue`] back;
//! * [`CoreEffect::ArmTimer`] → a kernel alarm, with the alarm token
//!   mapped back to the core's [`TimerId`] when it fires;
//! * [`CoreEffect::Trace`] → a kernel trace line (the replayable trace the
//!   equivalence gates compare byte-for-byte);
//! * [`CoreEffect::Log`] → the shared [`ReschedHooks`] decision log.
//!
//! Effects are applied strictly in emission order, which keeps the kernel
//! trace identical to the pre-refactor monolithic scheduler.

use crate::hooks::{control, ReschedHooks, SchemaBook, CONTROL_TAG};
use crate::regcore::{
    CoreEffect, CoreInput, DomainHealth, Endpoint, HostEntry, LogEffect, RegistryConfig,
    RegistryCore, TimerId,
};
use ars_sim::{Ctx, Pid, Program, Wake, RESTART_SIGNAL};
use ars_simcore::SimTime;
use ars_xmlwire::{EntityRole, HostStatic, Message};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// What the next completed op of ours was (ops finish FIFO, so this queue
/// attributes every `OpDone` exactly).
enum OpKind {
    Send,
    Decision(Arc<str>),
}

/// The registry/scheduler program: [`RegistryCore`] driven by the DES.
pub struct RegistryScheduler {
    core: RegistryCore,
    hooks: ReschedHooks,
    /// FIFO attribution of our in-flight ops' completions.
    op_kinds: VecDeque<OpKind>,
    /// Kernel alarm token → core timer id.
    timers: HashMap<u64, TimerId>,
    /// Reusable effect buffer (no per-wake allocation in steady state).
    effects: Vec<CoreEffect>,
}

impl RegistryScheduler {
    /// Create a registry from its configuration and shared books.
    pub fn new(cfg: RegistryConfig, schemas: SchemaBook, hooks: ReschedHooks) -> Self {
        RegistryScheduler {
            core: RegistryCore::new(cfg, schemas),
            hooks,
            op_kinds: VecDeque::new(),
            timers: HashMap::new(),
            effects: Vec::new(),
        }
    }

    /// The underlying sans-I/O core (diagnostics/tests).
    pub fn core(&self) -> &RegistryCore {
        &self.core
    }

    /// Registered host entries in first-fit order (diagnostics/tests).
    pub fn entries(&self) -> &[HostEntry] {
        self.core.entries()
    }

    /// The domain's aggregate health condition (see
    /// [`RegistryCore::domain_health`]).
    pub fn domain_health(&self, now: SimTime) -> DomainHealth {
        self.core.domain_health(now)
    }

    /// Feed one input to the core and replay its effects onto the kernel.
    fn run(&mut self, ctx: &mut Ctx<'_>, input: CoreInput) {
        let mut effects = std::mem::take(&mut self.effects);
        self.core.handle(ctx.now(), input, &mut effects);
        for effect in effects.drain(..) {
            match effect {
                CoreEffect::Send { to, msg } => {
                    self.op_kinds.push_back(OpKind::Send);
                    ctx.send(Pid(to.0), CONTROL_TAG, control(msg));
                }
                CoreEffect::StartDecision { source, cost } => {
                    ctx.compute(cost);
                    self.op_kinds.push_back(OpKind::Decision(source));
                }
                CoreEffect::ArmTimer { timer, after } => {
                    let token = ctx.alarm(after);
                    self.timers.insert(token, timer);
                }
                CoreEffect::Trace { kind, detail } => ctx.trace(kind, detail),
                CoreEffect::Log(log) => {
                    let mut shared = self.hooks.0.borrow_mut();
                    match log {
                        LogEffect::Decision(record) => shared.decisions.push(record),
                        LogEffect::CommandSent => shared.commands_sent += 1,
                        LogEffect::CommandRetransmit => shared.command_retransmits += 1,
                        LogEffect::CommandAborted => shared.commands_aborted += 1,
                    }
                }
            }
        }
        self.effects = effects;
    }
}

impl Program for RegistryScheduler {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match wake {
            Wake::Started => {
                // Register with the parent registry, if any. The host
                // description needs the simulated host id, which only the
                // driver knows — so this one send bypasses the core.
                if let Some(parent) = self.core.config().parent {
                    let msg = Message::Register {
                        host: HostStatic {
                            name: self.core.config().name.clone(),
                            ip: format!("10.1.0.{}", ctx.host_id().0 + 1),
                            os: "registry".to_string(),
                            cpu_speed: 0.0,
                            n_cpus: 0,
                            mem_kb: 0,
                        },
                        role: EntityRole::Registry,
                    };
                    self.op_kinds.push_back(OpKind::Send);
                    ctx.send(Pid(parent.0), CONTROL_TAG, control(msg));
                }
            }
            Wake::OpDone => match self.op_kinds.pop_front() {
                Some(OpKind::Decision(source)) => self.run(ctx, CoreInput::DecisionDue { source }),
                Some(OpKind::Send) | None => {}
            },
            Wake::Received(env) => {
                let from = env.from;
                let Some(msg) = env.payload.into_value::<Message>() else {
                    return;
                };
                self.run(
                    ctx,
                    CoreInput::Message {
                        from: Endpoint::from(from),
                        msg,
                    },
                );
            }
            Wake::Alarm(token) => {
                // A stale token (restart cleared the pending command) maps
                // to a timer the core no longer tracks; it no-ops inside.
                if let Some(timer) = self.timers.remove(&token) {
                    self.run(ctx, CoreInput::TimerFired(timer));
                }
            }
            Wake::Signal(sig) if sig == RESTART_SIGNAL => self.run(ctx, CoreInput::Restart),
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
