//! Differential test: one scripted command sequence driven through BOTH
//! registry drivers — the DES adapter (`RegistryScheduler`) and the real
//! TCP transport (`LiveRegistry`) — must land the shared `RegistryCore` in
//! the same place: same host table, same liveness verdicts, same decision
//! log, and the same migration choice pushed to the commander.
//!
//! This is the contract the sans-I/O split exists to enforce: the drivers
//! own delivery, the core owns every decision, so two transports fed the
//! same inputs cannot disagree.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use ars_rescheduler::live::{LiveClient, LiveRegistry, LIVE_CALL_TIMEOUT};
use ars_rescheduler::{
    control, Liveness, RegistryConfig, RegistryCore, RegistryScheduler, ReschedHooks, ReschedLog,
    SchemaBook, CONTROL_TAG,
};
use ars_rules::Policy;
use ars_sim::{Ctx, Envelope, HostId, Pid, Program, RecvFilter, Sim, SimConfig, SpawnOpts, Wake};
use ars_simcore::{SimDuration, SimTime};
use ars_simhost::HostConfig;
use ars_xmlwire::wire::WireCodecKind;
use ars_xmlwire::{
    ApplicationSchema, EntityRole, HostState, HostStatic, Message, Metrics, ProcReport,
    ResourceRequirements,
};

fn statics(name: &str) -> HostStatic {
    HostStatic {
        name: name.to_string(),
        ip: "127.0.0.1".to_string(),
        os: "linux".to_string(),
        cpu_speed: 1.0,
        n_cpus: 1,
        mem_kb: 131_072,
    }
}

fn metrics(load: f64, mem_avail_pct: f64) -> Metrics {
    let mut m = Metrics::new();
    m.set("loadAvg1", load);
    m.set("nproc", 10.0);
    m.set("memAvail", mem_avail_pct);
    m.set("diskAvailKb", 4_000_000.0);
    m
}

fn tree_schema() -> ApplicationSchema {
    let mut schema = ApplicationSchema::compute("tree", 600.0);
    schema.requirements = ResourceRequirements {
        mem_kb: 24_576,
        disk_kb: 1_024,
        min_cpu_speed: 0.5,
    };
    schema
}

fn config() -> RegistryConfig {
    let mut cfg = RegistryConfig::new(Policy::paper_policy2());
    cfg.name = "registry".to_string();
    cfg
}

/// The shared command sequence. Host `a` registers a monitor *and* a
/// commander (same endpoint, like a real co-located daemon pair), `b` is
/// policy-clean but memory-starved (10% of 128 MB fails the schema's 24 MB
/// floor), `c` qualifies, then `a` overloads with one migratable process.
/// Expected outcome on ANY driver: one decision, destination `c`, pid 42.
fn script() -> Vec<Message> {
    vec![
        Message::Register {
            host: statics("a"),
            role: EntityRole::Monitor,
        },
        Message::Register {
            host: statics("a"),
            role: EntityRole::Commander,
        },
        Message::Register {
            host: statics("b"),
            role: EntityRole::Monitor,
        },
        Message::Register {
            host: statics("c"),
            role: EntityRole::Monitor,
        },
        Message::Heartbeat {
            host: "b".to_string(),
            state: HostState::Free,
            metrics: metrics(0.2, 10.0),
            procs: vec![],
        },
        Message::Heartbeat {
            host: "c".to_string(),
            state: HostState::Free,
            metrics: metrics(0.2, 50.0),
            procs: vec![],
        },
        Message::Heartbeat {
            host: "a".to_string(),
            state: HostState::Overloaded,
            metrics: metrics(2.5, 50.0),
            procs: vec![ProcReport {
                pid: 42,
                app: "tree".to_string(),
                start_time_s: 0.0,
                est_exec_time_s: 600.0,
            }],
        },
    ]
}

/// Everything that must be transport-independent, with transport-local
/// detail (timestamps, endpoints) stripped.
#[derive(Debug, PartialEq)]
struct Digest {
    hosts: Vec<(String, HostState, Liveness)>,
    decisions: Vec<(String, Option<String>, Option<u64>, bool)>,
    commands_sent: usize,
    command_retransmits: usize,
    commands_aborted: usize,
}

fn digest(core: &RegistryCore, log: &ReschedLog, now: SimTime) -> Digest {
    let lease = SimDuration::from_secs(35);
    Digest {
        hosts: core
            .entries()
            .iter()
            .map(|e| (e.name.to_string(), e.state, e.liveness(now, lease)))
            .collect(),
        decisions: log
            .decisions
            .iter()
            .map(|d| (d.source.clone(), d.dest.clone(), d.pid, d.escalated))
            .collect(),
        commands_sent: log.commands_sent,
        command_retransmits: log.command_retransmits,
        commands_aborted: log.commands_aborted,
    }
}

/// DES driver for the script: sends one control message every 150 ms —
/// close enough together that no host's register → heartbeat gap reaches
/// the core's 1 s observed-push-period filter, exactly like the
/// milliseconds-apart TCP calls, so the failure detector stays on its
/// lease-fraction fallback on both sides — acknowledges the migration
/// command it receives as host `a`'s commander, and records the chosen
/// destination.
struct ScriptedHost {
    registry: Pid,
    pending: VecDeque<Message>,
    dest: Rc<RefCell<Option<String>>>,
}

impl ScriptedHost {
    fn handle(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        if let Some(Message::MigrationCommand {
            host, pid, dest, ..
        }) = env.payload.into_value()
        {
            *self.dest.borrow_mut() = Some(dest);
            let ack = Message::CommandAck {
                host,
                pid,
                ok: true,
            };
            ctx.send(self.registry, CONTROL_TAG, control(ack));
        }
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(env) = ctx.take_message(RecvFilter::tag(CONTROL_TAG)) {
            self.handle(ctx, env);
        }
    }
}

impl Program for ScriptedHost {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match wake {
            Wake::Started => {
                ctx.alarm(SimDuration::from_secs_f64(0.15));
            }
            Wake::Alarm(_) => {
                self.drain(ctx);
                if let Some(msg) = self.pending.pop_front() {
                    ctx.send(self.registry, CONTROL_TAG, control(msg));
                    ctx.alarm(SimDuration::from_secs_f64(0.15));
                }
            }
            Wake::Received(env) => self.handle(ctx, env),
            Wake::OpDone => self.drain(ctx),
            Wake::Signal(_) => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn run_des() -> (Digest, Option<String>) {
    let mut sim = Sim::new(
        vec![HostConfig::named("ws0"), HostConfig::named("ws1")],
        SimConfig::default(),
    );
    let hooks = ReschedHooks::new();
    let schemas = SchemaBook::new();
    schemas.put(tree_schema());
    let registry = sim.spawn(
        HostId(0),
        Box::new(RegistryScheduler::new(config(), schemas, hooks.clone())),
        SpawnOpts::named("ars_registry"),
    );
    let dest = Rc::new(RefCell::new(None));
    sim.spawn(
        HostId(1),
        Box::new(ScriptedHost {
            registry,
            pending: script().into(),
            dest: dest.clone(),
        }),
        SpawnOpts::named("script"),
    );
    // Messages land at t = 0.5 .. 3.5 s; the decision, command and ack all
    // settle well before 6 s, and every host is still comfortably Alive.
    sim.run_until(SimTime::from_secs(6));
    let now = sim.now();
    let reg = sim
        .program_mut(registry)
        .expect("registry alive")
        .as_any()
        .downcast_mut::<RegistryScheduler>()
        .expect("a RegistryScheduler");
    let d = digest(reg.core(), &hooks.0.borrow(), now);
    let picked = dest.borrow().clone();
    (d, picked)
}

fn run_live(codec: WireCodecKind) -> (Digest, Option<String>) {
    let schemas = SchemaBook::new();
    schemas.put(tree_schema());
    let registry = LiveRegistry::start_with(config(), schemas).expect("bind");
    let addr = registry.addr();

    let connect = |addr| LiveClient::connect_with(addr, codec, LIVE_CALL_TIMEOUT).unwrap();
    let mut a = connect(addr);
    let mut b = connect(addr);
    let mut c = connect(addr);
    for msg in script() {
        // Route each message over the sending host's connection; `a` sends
        // both of its Registers on one connection so that — exactly like
        // the DES side, where monitor and commander share the script's pid
        // — its commander endpoint is the connection it heartbeats on.
        let client = match &msg {
            Message::Register { host, .. } => match host.name.as_str() {
                "a" => &mut a,
                "b" => &mut b,
                _ => &mut c,
            },
            Message::Heartbeat { host, .. } => match host.as_str() {
                "a" => &mut a,
                "b" => &mut b,
                _ => &mut c,
            },
            other => unreachable!("script only registers and heartbeats: {other:?}"),
        };
        let reply = client.call(&msg).expect("scripted call");
        assert!(
            matches!(reply, Message::Ack { ok: true, .. }),
            "script message rejected: {reply:?}"
        );
    }

    // The overload heartbeat pushed a migration command onto a's
    // connection (a registered as its own commander).
    let picked = match a.recv().expect("a migration command") {
        Message::MigrationCommand {
            host, pid, dest, ..
        } => {
            a.send(&Message::CommandAck {
                host,
                pid,
                ok: true,
            })
            .unwrap();
            Some(dest)
        }
        other => panic!("expected MigrationCommand, got {other:?}"),
    };

    let now = registry.now();
    let d = registry.inspect(|core, log| digest(core, log, now));
    registry.shutdown();
    (d, picked)
}

#[test]
fn both_drivers_reach_the_same_core_state_from_one_script() {
    let (des, des_dest) = run_des();
    // The live driver runs once per wire codec: the paper-faithful XML
    // framing and the binary codec must both be pure transports — neither
    // may leave a different fingerprint on the core than the DES adapter.
    for codec in [WireCodecKind::Xml, WireCodecKind::Binary] {
        let (live, live_dest) = run_live(codec);

        assert_eq!(
            des, live,
            "driver state diverged for an identical script ({codec} codec)"
        );
        assert_eq!(
            des_dest, live_dest,
            "drivers chose different destinations ({codec} codec)"
        );
        assert_eq!(
            des_dest.as_deref(),
            Some("c"),
            "the one qualified host (b fails the schema's memory floor)"
        );
        assert_eq!(des.decisions.len(), 1, "exactly one decision");
        assert_eq!(des.commands_sent, 1);
        assert_eq!(des.command_retransmits, 0, "the ack landed; no retransmit");
        assert_eq!(des.commands_aborted, 0);
    }
}
