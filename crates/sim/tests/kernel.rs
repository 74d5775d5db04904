//! Behavioural tests of the cluster-simulator kernel: op execution,
//! messaging, signals, spawning, forwarding, and determinism.

use ars_sim::{
    Ctx, Envelope, HostId, Payload, Pid, Program, RecvFilter, Sim, SimConfig, SpawnOpts, Wake,
};
use ars_simcore::{SimDuration, SimTime};
use ars_simhost::HostConfig;
use std::any::Any;

fn two_hosts() -> Sim {
    Sim::new(
        vec![HostConfig::named("ws1"), HostConfig::named("ws2")],
        SimConfig::default(),
    )
}

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// Runs a fixed compute burst then exits, recording its finish time.
struct Cruncher {
    work: f64,
    finished_at: Option<SimTime>,
}

impl Program for Cruncher {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match wake {
            Wake::Started => ctx.compute(self.work),
            Wake::OpDone => {
                self.finished_at = Some(ctx.now());
                ctx.exit();
            }
            _ => {}
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn lone_compute_takes_its_work_time() {
    let mut sim = two_hosts();
    let pid = sim.spawn(
        HostId(0),
        Box::new(Cruncher {
            work: 10.0,
            finished_at: None,
        }),
        SpawnOpts::named("crunch"),
    );
    sim.run_until(t(100.0));
    assert!(!sim.is_alive(pid));
    assert_eq!(sim.exited_at(pid), Some(t(10.0)));
}

#[test]
fn two_crunchers_share_the_cpu() {
    let mut sim = two_hosts();
    let a = sim.spawn(
        HostId(0),
        Box::new(Cruncher {
            work: 10.0,
            finished_at: None,
        }),
        SpawnOpts::named("a"),
    );
    let b = sim.spawn(
        HostId(0),
        Box::new(Cruncher {
            work: 10.0,
            finished_at: None,
        }),
        SpawnOpts::named("b"),
    );
    sim.run_until(t(100.0));
    // Processor sharing: both finish at 20 s.
    assert_eq!(sim.exited_at(a), Some(t(20.0)));
    assert_eq!(sim.exited_at(b), Some(t(20.0)));
}

#[test]
fn crunchers_on_different_hosts_do_not_interfere() {
    let mut sim = two_hosts();
    let a = sim.spawn(
        HostId(0),
        Box::new(Cruncher {
            work: 10.0,
            finished_at: None,
        }),
        SpawnOpts::named("a"),
    );
    let b = sim.spawn(
        HostId(1),
        Box::new(Cruncher {
            work: 10.0,
            finished_at: None,
        }),
        SpawnOpts::named("b"),
    );
    sim.run_until(t(100.0));
    assert_eq!(sim.exited_at(a), Some(t(10.0)));
    assert_eq!(sim.exited_at(b), Some(t(10.0)));
}

/// Sends one message to a peer, then exits.
struct Sender {
    to: Pid,
    bytes: u64,
    text: String,
    sent_at: Option<SimTime>,
}

impl Program for Sender {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match wake {
            Wake::Started => {
                ctx.send_sized(
                    self.to,
                    7,
                    Payload::Bytes(self.text.clone().into_bytes()),
                    self.bytes,
                );
            }
            Wake::OpDone => {
                self.sent_at = Some(ctx.now());
                ctx.exit();
            }
            _ => {}
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Receives one message, records when and what, then exits.
struct Receiver {
    filter: RecvFilter,
    got: Option<(SimTime, Envelope)>,
}

impl Program for Receiver {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match wake {
            Wake::Started => ctx.recv(self.filter),
            Wake::Received(env) => {
                self.got = Some((ctx.now(), env));
                ctx.exit();
            }
            _ => {}
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn remote_message_time_is_latency_plus_bandwidth() {
    let mut sim = two_hosts();
    let rx = sim.spawn(
        HostId(1),
        Box::new(Receiver {
            filter: RecvFilter::any(),
            got: None,
        }),
        SpawnOpts::named("rx"),
    );
    // 12.5 MB over a 12.5 MB/s NIC = 1 s wire time + 300 us latency.
    let tx = sim.spawn(
        HostId(0),
        Box::new(Sender {
            to: rx,
            bytes: 12_500_000,
            text: "bulk".to_string(),
            sent_at: None,
        }),
        SpawnOpts::named("tx"),
    );
    sim.run_until(t(10.0));
    let tx_prog = sim.program_mut(tx);
    assert!(tx_prog.is_none(), "sender exited; program slot cleared");
    assert_eq!(sim.exited_at(tx), Some(t(1.0))); // send completes at wire end
    let rx_done = sim.exited_at(rx).unwrap();
    assert_eq!(rx_done, t(1.0) + SimDuration::from_micros(300));
}

#[test]
fn local_message_is_fast_and_payload_survives() {
    let mut sim = two_hosts();
    let rx = sim.spawn(
        HostId(0),
        Box::new(Receiver {
            filter: RecvFilter::tag(7),
            got: None,
        }),
        SpawnOpts::named("rx"),
    );
    sim.spawn(
        HostId(0),
        Box::new(Sender {
            to: rx,
            bytes: 0,
            text: "<msg type=\"ack\"/>".to_string(),
            sent_at: None,
        }),
        SpawnOpts::named("tx"),
    );
    sim.run_until(t(1.0));
    assert_eq!(sim.exited_at(rx), Some(SimTime::from_micros(50)));
}

/// Accumulates every message it passively receives.
struct Collector {
    got: Vec<(Pid, u32, String)>,
}

impl Program for Collector {
    fn on_wake(&mut self, _ctx: &mut Ctx<'_>, wake: Wake) {
        if let Wake::Received(env) = wake {
            let text =
                String::from_utf8_lossy(env.payload.as_bytes().unwrap_or_default()).into_owned();
            self.got.push((env.from, env.tag, text));
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn passive_daemon_receives_everything() {
    let mut sim = two_hosts();
    let daemon = sim.spawn(
        HostId(0),
        Box::new(Collector { got: Vec::new() }),
        SpawnOpts::named("daemon"),
    );
    for i in 0..3 {
        sim.spawn(
            HostId(1),
            Box::new(Sender {
                to: daemon,
                bytes: 0,
                text: format!("m{i}"),
                sent_at: None,
            }),
            SpawnOpts::named("tx"),
        );
    }
    sim.run_until(t(5.0));
    let collector = sim
        .program_mut(daemon)
        .unwrap()
        .as_any()
        .downcast_mut::<Collector>()
        .unwrap();
    let mut texts: Vec<&str> = collector.got.iter().map(|(_, _, s)| s.as_str()).collect();
    texts.sort_unstable();
    assert_eq!(texts, vec!["m0", "m1", "m2"]);
}

#[test]
fn recv_filter_defers_non_matching_messages() {
    let mut sim = two_hosts();
    let rx = sim.spawn(
        HostId(0),
        Box::new(Receiver {
            filter: RecvFilter::tag(7),
            got: None,
        }),
        SpawnOpts::named("rx"),
    );
    // A tag-9 message arrives first and must be held in the mailbox.
    struct TwoSends {
        to: Pid,
    }
    impl Program for TwoSends {
        fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
            if wake == Wake::Started {
                ctx.send(self.to, 9, Payload::Bytes(b"early".to_vec()));
                ctx.send(self.to, 7, Payload::Bytes(b"wanted".to_vec()));
                ctx.exit();
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }
    sim.spawn(
        HostId(1),
        Box::new(TwoSends { to: rx }),
        SpawnOpts::named("tx"),
    );
    sim.run_until(t(5.0));
    assert!(!sim.is_alive(rx), "receiver matched the tag-7 message");
}

/// Computes in chunks, checking for a signal at every poll point.
struct PollLoop {
    chunk: f64,
    chunks_done: u32,
    signalled_after: Option<u32>,
}

impl Program for PollLoop {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match wake {
            Wake::Started => ctx.compute(self.chunk),
            Wake::OpDone => {
                self.chunks_done += 1;
                if ctx.take_signal().is_some() {
                    self.signalled_after = Some(self.chunks_done);
                    ctx.exit();
                } else {
                    ctx.compute(self.chunk);
                }
            }
            _ => {}
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn signals_are_seen_at_poll_points() {
    let mut sim = two_hosts();
    let pid = sim.spawn(
        HostId(0),
        Box::new(PollLoop {
            chunk: 1.0,
            chunks_done: 0,
            signalled_after: None,
        }),
        SpawnOpts::named("poller"),
    );
    sim.run_until(t(5.5)); // mid-chunk 6
    sim.signal(pid, 10);
    sim.run_until(t(20.0));
    // Signal posted at 5.5 lands at the end of chunk 6 (t = 6).
    assert_eq!(sim.exited_at(pid), Some(t(6.0)));
}

/// Spawns a child on another host and waits for its report.
struct Parent {
    child_host: HostId,
    reply: Option<String>,
}

impl Program for Parent {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match wake {
            Wake::Started => {
                let me = ctx.pid();
                let child = ctx.spawn(
                    self.child_host,
                    Box::new(Child { parent: me }),
                    SpawnOpts::named("child"),
                );
                let _ = child;
                ctx.recv(RecvFilter::tag(42));
            }
            Wake::Received(env) => {
                self.reply = env
                    .payload
                    .as_bytes()
                    .map(|b| String::from_utf8_lossy(b).into_owned());
                ctx.exit();
            }
            _ => {}
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

struct Child {
    parent: Pid,
}

impl Program for Child {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        if wake == Wake::Started {
            ctx.compute(2.0);
            ctx.send(self.parent, 42, Payload::Bytes(b"done".to_vec()));
            ctx.exit();
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn dynamic_spawn_and_reply() {
    let mut sim = two_hosts();
    let parent = sim.spawn(
        HostId(0),
        Box::new(Parent {
            child_host: HostId(1),
            reply: None,
        }),
        SpawnOpts::named("parent"),
    );
    sim.run_until(t(10.0));
    assert!(!sim.is_alive(parent));
    // Child computed 2 s then sent a tiny message.
    let exit = sim.exited_at(parent).unwrap();
    assert!(exit > t(2.0) && exit < t(2.1), "exit at {exit}");
}

#[test]
fn forwarding_reroutes_messages() {
    let mut sim = two_hosts();
    let new_rx = sim.spawn(
        HostId(1),
        Box::new(Receiver {
            filter: RecvFilter::any(),
            got: None,
        }),
        SpawnOpts::named("new"),
    );
    let old_rx = sim.spawn(
        HostId(0),
        Box::new(Collector { got: Vec::new() }),
        SpawnOpts::named("old"),
    );
    // Forward old -> new, as communication-state transfer does.
    struct Forwarder {
        old: Pid,
        new: Pid,
    }
    impl Program for Forwarder {
        fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
            if let Wake::Started = wake {
                ctx.set_forwarding(self.old, self.new);
                ctx.exit();
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }
    sim.spawn(
        HostId(0),
        Box::new(Forwarder {
            old: old_rx,
            new: new_rx,
        }),
        SpawnOpts::named("fwd"),
    );
    sim.run_until(t(0.1));
    sim.spawn(
        HostId(0),
        Box::new(Sender {
            to: old_rx,
            bytes: 0,
            text: "redirected".to_string(),
            sent_at: None,
        }),
        SpawnOpts::named("tx"),
    );
    sim.run_until(t(5.0));
    assert!(!sim.is_alive(new_rx), "forwarded message reached new pid");
}

/// Sleeps, then exits.
struct Napper;

impl Program for Napper {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        match wake {
            Wake::Started => ctx.sleep(SimDuration::from_secs(30)),
            Wake::OpDone => ctx.exit(),
            _ => {}
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn sleep_wakes_on_time() {
    let mut sim = two_hosts();
    let pid = sim.spawn(HostId(0), Box::new(Napper), SpawnOpts::named("nap"));
    sim.run_until(t(100.0));
    assert_eq!(sim.exited_at(pid), Some(t(30.0)));
}

#[test]
fn load_average_reflects_running_work() {
    let mut sim = two_hosts();
    for _ in 0..2 {
        sim.spawn(
            HostId(0),
            Box::new(Cruncher {
                work: 1e9,
                finished_at: None,
            }),
            SpawnOpts::named("burn"),
        );
    }
    sim.run_until(t(600.0));
    let (la1, _, _) = sim.kernel().hosts[0].load_avg();
    assert!((la1 - 2.0).abs() < 0.05, "la1={la1}");
    let (other, _, _) = sim.kernel().hosts[1].load_avg();
    assert_eq!(other, 0.0);
}

#[test]
fn recorder_samples_metrics() {
    let mut sim = two_hosts();
    sim.enable_recorder(SimDuration::from_secs(10));
    sim.spawn(
        HostId(0),
        Box::new(Cruncher {
            work: 1e9,
            finished_at: None,
        }),
        SpawnOpts::named("burn"),
    );
    sim.run_until(t(100.0));
    let rec = sim.recorder().unwrap();
    let s = rec.host(0);
    assert!(s.load1.len() >= 9);
    // Fully busy host: utilization ~1 in every window after the first.
    assert!(s.cpu_util.mean().unwrap() > 0.95);
    assert_eq!(rec.host(1).cpu_util.mean().unwrap(), 0.0);
}

#[test]
fn background_stream_moves_bytes() {
    let mut sim = two_hosts();
    let flow = sim
        .kernel_mut()
        .start_background_stream(HostId(0), HostId(1));
    sim.run_until(t(10.0));
    let moved = sim.kernel_mut().stop_background_stream(flow).unwrap();
    // 12.5 MB/s for 10 s.
    assert!((moved - 125e6).abs() < 1e3, "moved {moved}");
    assert!((sim.kernel().net.tx_bytes(ars_simnet::NodeId(0)) - 125e6).abs() < 1e3);
}

#[test]
fn kill_releases_resources() {
    let mut sim = two_hosts();
    let pid = sim.spawn(
        HostId(0),
        Box::new(Cruncher {
            work: 1e9,
            finished_at: None,
        }),
        SpawnOpts::named("burn").with_mem(1000, 1000),
    );
    sim.run_until(t(10.0));
    assert_eq!(sim.kernel().hosts[0].run_queue(), 1);
    struct Killer {
        victim: Pid,
    }
    impl Program for Killer {
        fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
            if let Wake::Started = wake {
                ctx.kill(self.victim);
                ctx.exit();
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }
    sim.spawn(
        HostId(0),
        Box::new(Killer { victim: pid }),
        SpawnOpts::named("kill"),
    );
    sim.run_until(t(11.0));
    assert!(!sim.is_alive(pid));
    assert_eq!(sim.kernel().hosts[0].run_queue(), 0);
    assert_eq!(sim.kernel().hosts[0].procs().len(), 0);
    assert_eq!(sim.kernel().hosts[0].mem().phys_avail_kb(), 131_072);
}

#[test]
fn identical_seeds_identical_runs() {
    let run = |seed: u64| -> Vec<(u64, String)> {
        let mut sim = Sim::new(
            vec![HostConfig::named("ws1"), HostConfig::named("ws2")],
            SimConfig {
                seed,
                trace: true,
                ..SimConfig::default()
            },
        );
        let daemon = sim.spawn(
            HostId(0),
            Box::new(Collector { got: Vec::new() }),
            SpawnOpts::named("daemon"),
        );
        for i in 0..5 {
            sim.spawn(
                HostId(1),
                Box::new(Sender {
                    to: daemon,
                    bytes: 1000 * (i + 1),
                    text: format!("m{i}"),
                    sent_at: None,
                }),
                SpawnOpts::named("tx"),
            );
        }
        sim.run_until(t(60.0));
        sim.kernel()
            .trace
            .events()
            .iter()
            .map(|e| (e.t.as_micros(), e.detail.clone()))
            .collect()
    };
    assert_eq!(run(1), run(1));
    assert_eq!(run(2), run(2));
}
