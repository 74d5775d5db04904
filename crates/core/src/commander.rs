//! The per-host commander entity.
//!
//! "The registry/scheduler sends a message to the source machine's local
//! commander to initialize the migration. After receiving the message, the
//! source machine's local commander issues a command to the migrating
//! process … the address and the port of the destination machine are
//! written to a temporary file and are read by the migrating process. We
//! defined this command as a user-defined signal." (§3, §3.3)

use crate::hooks::{control, CONTROL_TAG};
use ars_hpcm::{dest_file_path, MIGRATE_SIGNAL};
use ars_obs::Obs;
use ars_sim::{Ctx, Pid, Program, TraceKind, Wake};
use ars_xmlwire::{EntityRole, HostStatic, Message};

/// The commander program: a passive daemon waiting for migration commands.
pub struct Commander {
    registry: Pid,
    /// Commands executed (diagnostics).
    pub commands_handled: u64,
    /// Observability session (command-handling counters).
    obs: Obs,
}

impl Commander {
    /// Create a commander reporting to `registry`.
    pub fn new(registry: Pid) -> Self {
        Commander {
            registry,
            commands_handled: 0,
            obs: Obs::disabled(),
        }
    }

    /// Install an observability session (builder style).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
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
}

impl Program for Commander {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match wake {
            Wake::Started => {
                let msg = Message::Register {
                    host: Self::host_static(ctx),
                    role: EntityRole::Commander,
                };
                ctx.send(self.registry, CONTROL_TAG, control(msg));
            }
            Wake::Received(env) => {
                let Some(msg) = env.payload.into_value::<Message>() else {
                    return;
                };
                match msg {
                    Message::MigrationCommand {
                        pid,
                        dest,
                        dest_port,
                        ..
                    } => {
                        // Temp-file handoff + user-defined signal. Commands
                        // are retransmitted until acknowledged, so this may
                        // run more than once per migration; the handoff is
                        // idempotent and the migration shell ignores the
                        // signal while a transaction is already in flight.
                        // Reconfiguration specs (expand:/shrink:) carry their
                        // own structure and go through verbatim; a bare host
                        // gets the destination port appended as before.
                        let target = Pid(pid);
                        let resize = dest.starts_with("expand:") || dest.starts_with("shrink:");
                        let handoff = if resize {
                            dest.clone()
                        } else {
                            format!("{dest}:{dest_port}")
                        };
                        ctx.write_file(&dest_file_path(target), &handoff);
                        ctx.signal(target, MIGRATE_SIGNAL);
                        self.commands_handled += 1;
                        self.obs.inc("commander_commands_handled");
                        let verb = if resize { "reconfigure" } else { "migrate" };
                        ctx.trace(
                            TraceKind::Decision,
                            format!("commander {}: {verb} pid{pid} -> {dest}", ctx.host().name()),
                        );
                        let ack = Message::CommandAck {
                            host: ctx.host().name().to_string(),
                            pid,
                            ok: true,
                        };
                        ctx.send(self.registry, CONTROL_TAG, control(ack));
                    }
                    Message::ReRegister { .. } => {
                        // The registry lost its soft state (restart); the
                        // monitor relayed its nudge to us. Introduce
                        // ourselves again so commands can be addressed.
                        ctx.trace(
                            TraceKind::Recovery,
                            format!("commander {}: re-registering", ctx.host().name()),
                        );
                        let msg = Message::Register {
                            host: Self::host_static(ctx),
                            role: EntityRole::Commander,
                        };
                        ctx.send(self.registry, CONTROL_TAG, control(msg));
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
