//! Microloops: timed loops over one layer's public functions, on inputs
//! built the way the workloads build them (same table size, same
//! messages). Each number is the median of [`BATCHES`] batches; inputs and
//! results pass through `black_box`.
//!
//! They run only on traced runs. A microloop's unit cost times the number
//! of calls a workload makes is that layer's row in the `share.*` ledger.

use crate::metrics::Values;
use crate::stats;
use ars_hpcm::{checksum64, frame_state, unframe_state, StateReader, StateWriter};
use ars_mpisim::redist;
use ars_rescheduler::TimerId;
use ars_rescheduler::{CoreEffect, CoreInput, Endpoint, RegistryConfig, RegistryCore, SchemaBook};
use ars_rules::{Policy, ResizeRule, RuleSet};
use ars_simcore::{EventQueue, SharedResource, SimDuration, SimTime};
use ars_simhost::{Host, HostConfig, ProcEntry, ProcState, LOAD_SAMPLE_INTERVAL};
use ars_simnet::{Network, NetworkConfig, NodeId};
use ars_sysinfo::{Ambient, Sensors};
use ars_xmlwire::wire::{decode_binary_payload, encode_frame, encode_frame_into, FrameReader};
use ars_xmlwire::wire::{WireCodecKind, MAX_FRAME_BYTES};
use ars_xmlwire::{EntityRole, HostState, HostStatic, Message, Metrics, ProcReport};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;
/// Calls per batch for sub-microsecond and microsecond-scale functions.
const ITERS: usize = 20_000;

fn median_of_batches(mut batch: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    stats::median(&v)
}

/// Nanoseconds per call of `op`, over `iters` calls.
fn ns_per_call(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Cheap deterministic sequence for event times and host picks.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

fn ws(i: usize) -> String {
    format!("ws{i}")
}

fn statics(name: String) -> HostStatic {
    HostStatic {
        name,
        ip: "10.0.0.1".to_string(),
        os: "linux".to_string(),
        cpu_speed: 1.0,
        n_cpus: 1,
        mem_kb: 131_072,
    }
}

/// A workstation as the monitors see it: the ambient daemons' processes
/// plus one running compute job.
fn sample_host() -> Host {
    let mut host = Host::new(HostConfig::named("ws1"));
    host.start_compute(SimTime::ZERO, 1e9);
    for pid in 0..4 {
        host.proc_add(ProcEntry {
            pid,
            name: "daemons".into(),
            start_time: SimTime::ZERO,
            state: ProcState::Sleeping,
            migratable: false,
        });
    }
    host
}

/// The metric bag a monitor's sensors produce for [`sample_host`].
fn sampled_metrics() -> Metrics {
    let host = sample_host();
    let net = Network::new(2, NetworkConfig::default());
    let mut sensors = Sensors::new(Ambient::default());
    sensors.sample(SimTime::from_secs(10), &host, &net, NodeId(1));
    sensors.sample(SimTime::from_secs(20), &host, &net, NodeId(1))
}

/// The heartbeat document a DES monitor sends: full sensor bag, no
/// migratable process.
fn des_heartbeat(host: String, state: HostState) -> Message {
    Message::Heartbeat {
        host,
        state,
        metrics: sampled_metrics(),
        procs: vec![],
    }
}

fn simcore(n: usize, out: &mut Values) {
    // The kernel keeps ~6 pending events per host (monitor, commander,
    // three daemons, load sampler).
    let pending = 6 * n;
    let filled = || {
        let mut rng = Lcg(7);
        let mut q = EventQueue::new();
        for i in 0..pending {
            q.push(SimTime::from_micros(1_000_000 + rng.next() % 10_000_000), i);
        }
        (q, rng)
    };
    out.set(
        "simcore.queue_push_pop_ns",
        median_of_batches(|| {
            let (mut q, mut rng) = filled();
            ns_per_call(ITERS, |_| {
                let (at, ev) = q.pop().expect("prefilled");
                q.push(
                    at + SimDuration::from_micros(1 + rng.next() % 10_000_000),
                    black_box(ev),
                );
            })
        }),
    );
    out.set(
        "simcore.queue_cancel_ns",
        median_of_batches(|| {
            let (mut q, _) = filled();
            // The cancelled entry sorts before every live one, so the peek
            // purges it and the heap stays at `pending` entries.
            ns_per_call(ITERS, |i| {
                let id = q.push(SimTime::from_micros(i as u64 % 1_000), i);
                q.cancel(id);
                black_box(q.peek_time());
            })
        }),
    );
    out.set(
        "simcore.resource_add_remove_ns",
        median_of_batches(|| {
            let mut cpu = SharedResource::new(1.0);
            for _ in 0..3 {
                cpu.add_job(SimTime::ZERO, None, 1.0);
            }
            ns_per_call(ITERS, |i| {
                let now = SimTime::from_micros(i as u64 * 1_000);
                let id = cpu.add_job(now, Some(1.0), 1.0);
                black_box(cpu.remove_job(now, id));
            })
        }),
    );
}

fn simhost(out: &mut Values) {
    out.set(
        "simhost.advance_ns",
        median_of_batches(|| {
            let mut host = sample_host();
            host.start_compute(SimTime::ZERO, 1e9);
            ns_per_call(ITERS, |i| {
                host.advance(SimTime::from_micros((i as u64 + 1) * 10_000));
                black_box(host.run_queue());
            })
        }),
    );
    out.set(
        "simhost.sample_load_ns",
        median_of_batches(|| {
            let mut host = sample_host();
            let step = LOAD_SAMPLE_INTERVAL.as_micros();
            ns_per_call(ITERS, |i| {
                host.sample_load(SimTime::from_micros((i as u64 + 1) * step));
                black_box(host.load_avg());
            })
        }),
    );
}

fn simnet(n: usize, out: &mut Values) {
    out.set(
        "simnet.msg_flow_ns",
        median_of_batches(|| {
            // One 700-byte heartbeat from a workstation to the hub.
            let mut net = Network::new(n + 1, NetworkConfig::default());
            ns_per_call(ITERS, |i| {
                let t = i as u64 * 1_000;
                let src = NodeId(1 + (i % n) as u32);
                let id = net.start_flow(SimTime::from_micros(t), src, NodeId(0), Some(700.0));
                net.advance(SimTime::from_micros(t + 500));
                black_box(net.end_flow(SimTime::from_micros(t + 500), id));
            })
        }),
    );
    out.set(
        "simnet.bulk_contended_ns",
        median_of_batches(|| {
            // 64 resident checkpoint streams; one more starts, runs a
            // millisecond and ends, sharing both its NICs with a resident.
            let mut net = Network::new(129, NetworkConfig::default());
            for i in 0..64u32 {
                net.start_flow(SimTime::ZERO, NodeId(1 + i), NodeId(65 + i), None);
            }
            ns_per_call(ITERS / 4, |i| {
                let t = 1 + i as u64 * 2_000;
                let k = (i % 64) as u32;
                let id = net.start_flow(
                    SimTime::from_micros(t),
                    NodeId(1 + k),
                    NodeId(65 + (k + 1) % 64),
                    Some(24.0 * 1024.0 * 1024.0),
                );
                net.advance(SimTime::from_micros(t + 1_000));
                black_box(net.end_flow(SimTime::from_micros(t + 1_000), id));
            })
        }),
    );
}

fn sysinfo(out: &mut Values) {
    out.set(
        "sysinfo.sample_ns",
        median_of_batches(|| {
            let host = sample_host();
            let net = Network::new(2, NetworkConfig::default());
            let mut sensors = Sensors::new(Ambient::default());
            ns_per_call(ITERS, |i| {
                let now = SimTime::from_secs(10 * (i as u64 + 1));
                black_box(sensors.sample(now, &host, &net, NodeId(1)));
            })
        }),
    );
}

fn rules(out: &mut Values) {
    let metrics = sampled_metrics();
    let ruleset = RuleSet::paper();
    let policy = Policy::paper_policy2();
    let resize = ResizeRule::default_pair("malleable_tree", 2, 4);
    out.set(
        "rules.evaluate_ns",
        median_of_batches(|| {
            ns_per_call(ITERS, |_| {
                let _ = black_box(ruleset.evaluate(black_box(&metrics)));
            })
        }),
    );
    out.set(
        "rules.should_migrate_ns",
        median_of_batches(|| {
            ns_per_call(ITERS, |_| {
                black_box(policy.should_migrate(black_box(&metrics)));
            })
        }),
    );
    out.set(
        "rules.dest_acceptable_ns",
        median_of_batches(|| {
            ns_per_call(ITERS, |_| {
                black_box(policy.dest_acceptable(black_box(&metrics)));
            })
        }),
    );
    out.set(
        "rules.resize_decide_ns",
        median_of_batches(|| {
            ns_per_call(ITERS, |i| {
                let free = (i % 100) as f64 / 100.0;
                for r in &resize {
                    black_box(r.decide(black_box(free), 1.0 - free, 2));
                }
            })
        }),
    );
}

fn xmlwire(out: &mut Values) {
    let msg = des_heartbeat(ws(1024), HostState::Free);
    let doc = msg.to_document();
    let bin = encode_frame(&msg, WireCodecKind::Binary);
    out.set("xmlwire.xml_hb_bytes", (doc.len() + 1) as f64);
    out.set("xmlwire.bin_hb_bytes", bin.len() as f64);
    out.set(
        "xmlwire.xml_encode_hb_ns",
        median_of_batches(|| {
            ns_per_call(ITERS, |_| {
                black_box(black_box(&msg).to_document());
            })
        }),
    );
    out.set(
        "xmlwire.xml_decode_hb_ns",
        median_of_batches(|| {
            ns_per_call(ITERS, |_| {
                let _ = black_box(Message::decode(black_box(&doc)));
            })
        }),
    );
    out.set(
        "xmlwire.bin_encode_hb_ns",
        median_of_batches(|| {
            let mut buf = Vec::with_capacity(1024);
            ns_per_call(ITERS, |_| {
                buf.clear();
                encode_frame_into(black_box(&msg), WireCodecKind::Binary, &mut buf);
                black_box(&buf);
            })
        }),
    );
    out.set(
        "xmlwire.bin_decode_hb_ns",
        median_of_batches(|| {
            ns_per_call(ITERS, |_| {
                let _ = black_box(decode_binary_payload(black_box(&bin[4..])));
            })
        }),
    );
    // FrameReader over 64 KiB chunks of back-to-back frames: what the
    // reactor does with a readable socket.
    for (name, codec) in [
        ("xmlwire.reader_xml_mb_s", WireCodecKind::Xml),
        ("xmlwire.reader_bin_mb_s", WireCodecKind::Binary),
    ] {
        let frame = encode_frame(&msg, codec);
        let mut stream = Vec::new();
        while stream.len() < 4 * 64 * 1024 {
            stream.extend_from_slice(&frame);
        }
        out.set(
            name,
            median_of_batches(|| {
                let mut reader = FrameReader::for_codec(codec, MAX_FRAME_BYTES);
                let t = Instant::now();
                let mut frames = 0u64;
                for _ in 0..8 {
                    for chunk in stream.chunks(64 * 1024) {
                        reader.push(chunk);
                        while let Ok(Some(m)) = reader.next_frame() {
                            black_box(m);
                            frames += 1;
                        }
                    }
                }
                black_box(frames);
                8.0 * stream.len() as f64 / 1e6 / t.elapsed().as_secs_f64()
            }),
        );
    }
}

/// Feed one decoded message from endpoint `from` into the core.
fn deliver(
    core: &mut RegistryCore,
    now: SimTime,
    from: u64,
    msg: Message,
    fx: &mut Vec<CoreEffect>,
) {
    core.handle(
        now,
        CoreInput::Message {
            from: Endpoint(from),
            msg,
        },
        fx,
    );
}

/// A registry core with `n` registered hosts (monitor + commander each),
/// the lower half free and the upper half busy.
fn populated_core(n: usize) -> RegistryCore {
    let mut core = RegistryCore::new(
        RegistryConfig::new(Policy::paper_policy2()),
        SchemaBook::new(),
    );
    let mut fx = Vec::new();
    let metrics = sampled_metrics();
    for i in 0..n {
        for (ep, role) in [
            (2 * i, EntityRole::Monitor),
            (2 * i + 1, EntityRole::Commander),
        ] {
            deliver(
                &mut core,
                SimTime::ZERO,
                ep as u64,
                Message::Register {
                    host: statics(ws(i)),
                    role,
                },
                &mut fx,
            );
        }
        let state = if i < n / 2 {
            HostState::Free
        } else {
            HostState::Busy
        };
        deliver(
            &mut core,
            SimTime::from_secs(1),
            2 * i as u64,
            Message::Heartbeat {
                host: ws(i),
                state,
                metrics: metrics.clone(),
                procs: vec![],
            },
            &mut fx,
        );
        fx.clear();
    }
    core
}

fn regcore(n: usize, out: &mut Values) {
    let mut effects_per_hb = 0.0;
    out.set(
        "regcore.handle_hb_ns",
        median_of_batches(|| {
            let mut core = populated_core(n);
            let mut fx = Vec::new();
            // Messages are consumed by `handle`; build the batch up front so
            // the loop times the core, not the clones.
            let mut inputs: Vec<(usize, Message)> = (0..ITERS)
                .map(|i| {
                    (
                        i % n,
                        des_heartbeat(
                            ws(i % n),
                            if i % n < n / 2 {
                                HostState::Free
                            } else {
                                HostState::Busy
                            },
                        ),
                    )
                })
                .collect();
            let mut effects = 0usize;
            let ns = ns_per_call(ITERS, |i| {
                let (host, msg) = inputs.pop().expect("one input per call");
                deliver(
                    &mut core,
                    SimTime::from_micros(11_000_000 + i as u64 * 5_000),
                    2 * host as u64,
                    msg,
                    &mut fx,
                );
                effects += fx.len();
                fx.clear();
            });
            effects_per_hb = effects as f64 / ITERS as f64;
            ns
        }),
    );
    out.set("regcore.effects_per_hb", effects_per_hb);
    out.set(
        "regcore.handle_register_ns",
        median_of_batches(|| {
            let mut core = populated_core(n);
            let mut fx = Vec::new();
            let mut inputs: Vec<(usize, Message)> = (0..ITERS)
                .map(|i| {
                    (
                        i % n,
                        Message::Register {
                            host: statics(ws(i % n)),
                            role: EntityRole::Monitor,
                        },
                    )
                })
                .collect();
            ns_per_call(ITERS, |_| {
                let (host, msg) = inputs.pop().expect("one input per call");
                deliver(
                    &mut core,
                    SimTime::from_secs(2),
                    2 * host as u64,
                    msg,
                    &mut fx,
                );
                fx.clear();
            })
        }),
    );
    out.set(
        "regcore.timer_sweep_ns",
        median_of_batches(|| {
            // A timer firing into nothing (its command was acked in time)
            // plus the full-table liveness/state sweep behind domain
            // reports and resize decisions.
            let mut core = populated_core(n);
            let mut fx = Vec::new();
            ns_per_call(ITERS / 20, |i| {
                let now = SimTime::from_secs(2 + i as u64 % 20);
                core.handle(
                    now,
                    CoreInput::TimerFired(TimerId(u64::MAX - i as u64)),
                    &mut fx,
                );
                black_box(core.domain_health(now));
                fx.clear();
            })
        }),
    );
    out.set(
        "regcore.decision_ns",
        median_of_batches(|| {
            let mut core = populated_core(n);
            let mut fx = Vec::new();
            let iters = ITERS / 10;
            let metrics = sampled_metrics();
            let mut timed_ns = 0u128;
            for i in 0..iters {
                // Sources rotate over the busy half, 40 sim-s apart, so the
                // per-source command cooldown never suppresses a decision.
                let src = n / 2 + i % (n - n / 2);
                let now = SimTime::from_secs(10 + 40 * i as u64);
                let overloaded = Message::Heartbeat {
                    host: ws(src),
                    state: HostState::Overloaded,
                    metrics: metrics.clone(),
                    procs: vec![ProcReport {
                        pid: 7,
                        app: "test_tree".to_string(),
                        start_time_s: 0.0,
                        est_exec_time_s: 600.0,
                    }],
                };
                let t = Instant::now();
                deliver(&mut core, now, 2 * src as u64, overloaded, &mut fx);
                let due: Vec<_> = fx
                    .drain(..)
                    .filter_map(|e| match e {
                        CoreEffect::StartDecision { source, .. } => Some(source),
                        _ => None,
                    })
                    .collect();
                for source in due {
                    core.handle(now, CoreInput::DecisionDue { source }, &mut fx);
                }
                timed_ns += t.elapsed().as_nanos();
                // Untimed: acknowledge the command, then put the source and
                // the chosen destination back where they were.
                let dest = fx.iter().find_map(|e| match e {
                    CoreEffect::Send {
                        msg: Message::MigrationCommand { dest, .. },
                        ..
                    } => Some(dest.clone()),
                    _ => None,
                });
                fx.clear();
                let mut restore = vec![(ws(src), HostState::Busy)];
                if let Some(dest) = dest {
                    deliver(
                        &mut core,
                        now,
                        2 * src as u64 + 1,
                        Message::CommandAck {
                            host: ws(src),
                            pid: 7,
                            ok: true,
                        },
                        &mut fx,
                    );
                    restore.push((dest, HostState::Free));
                }
                for (host, state) in restore {
                    let ep = host[2..].parse::<u64>().expect("wsN") * 2;
                    deliver(
                        &mut core,
                        now,
                        ep,
                        Message::Heartbeat {
                            host,
                            state,
                            metrics: metrics.clone(),
                            procs: vec![],
                        },
                        &mut fx,
                    );
                }
                fx.clear();
            }
            timed_ns as f64 / iters as f64
        }),
    );
    out.set(
        "regcore.domain_report_ns",
        median_of_batches(|| {
            // A parent with 16 child registries, as `tree_hb`'s mids see
            // their leaves (4 each) and its root would with one level.
            let mut core = RegistryCore::new(
                RegistryConfig::new(Policy::paper_policy2()),
                SchemaBook::new(),
            );
            let mut fx = Vec::new();
            for c in 0..16u64 {
                deliver(
                    &mut core,
                    SimTime::ZERO,
                    c,
                    Message::Register {
                        host: statics(format!("domain{c}")),
                        role: EntityRole::Registry,
                    },
                    &mut fx,
                );
            }
            fx.clear();
            let mut inputs: Vec<(u64, Message)> = (0..ITERS as u64)
                .map(|i| {
                    (
                        i % 16,
                        Message::DomainReport {
                            domain: format!("domain{}", i % 16),
                            free: 100 + (i % 7) as u32,
                            busy: 20,
                            overloaded: 1,
                            unavailable: 0,
                            load_sum: 31.5,
                            load_samples: 128,
                        },
                    )
                })
                .collect();
            ns_per_call(ITERS, |i| {
                let (child, msg) = inputs.pop().expect("one input per call");
                deliver(
                    &mut core,
                    SimTime::from_micros(1_000_000 + i as u64 * 1_000),
                    child,
                    msg,
                    &mut fx,
                );
                fx.clear();
            })
        }),
    );
}

/// Checkpoint codec costs at the size of the workloads' `TestTree` state
/// (`levels = 13`: 8191 `u64` node values plus the header fields).
fn hpcm(out: &mut Values) {
    let values: Vec<u64> = (0..8_191u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let save = |values: &[u64]| {
        let mut w = StateWriter::new();
        w.u32(16)
            .u32(13)
            .f64(2e-3)
            .f64(3e-3)
            .f64(1e-3)
            .u64(1_024)
            .u64(24_576)
            .u64(11);
        w.u8(1).u32(3).u64(2_048).u64s(values).u64(42).f64(123.5);
        w.into_bytes()
    };
    let eager = save(&values);
    let kb = eager.len() as f64 / 1024.0;
    let iters = ITERS / 20;
    out.set(
        "hpcm.save_ns_per_kb",
        median_of_batches(|| {
            ns_per_call(iters, |_| {
                black_box(save(black_box(&values)));
            })
        }) / kb,
    );
    out.set(
        "hpcm.restore_ns_per_kb",
        median_of_batches(|| {
            ns_per_call(iters, |_| {
                let mut r = StateReader::new(black_box(&eager));
                let header = (
                    r.u32().ok(),
                    r.u32().ok(),
                    r.f64().ok(),
                    r.f64().ok(),
                    r.f64().ok(),
                );
                let sizes = (r.u64().ok(), r.u64().ok(), r.u64().ok());
                let body = (
                    r.u8().ok(),
                    r.u32().ok(),
                    r.u64().ok(),
                    r.u64s().ok(),
                    r.u64().ok(),
                    r.f64().ok(),
                );
                black_box((header, sizes, body));
            })
        }) / kb,
    );
    out.set(
        "hpcm.checksum_mb_s",
        median_of_batches(|| {
            let ns = ns_per_call(iters, |_| {
                black_box(checksum64(black_box(&eager)));
            });
            eager.len() as f64 / 1e6 / (ns * 1e-9)
        }),
    );
    out.set(
        "hpcm.frame_unframe_ns_per_kb",
        median_of_batches(|| {
            ns_per_call(iters, |_| {
                let framed = frame_state(black_box(&eager));
                let _ = black_box(unframe_state(&framed));
            })
        }) / kb,
    );
}

/// Block-cyclic redistribution of a 1 M-element array (block 4), 2→4 and
/// 4→2 ranks: what a committed expand and shrink do to a world's arrays.
fn mpisim(out: &mut Values) {
    const ELEMS: usize = 1 << 20;
    let global: Vec<f64> = (0..ELEMS).map(|i| i as f64 + 0.25).collect();
    let two = redist::decompose(&global, 4, 2);
    let four = redist::decompose(&global, 4, 4);
    let mut moved = 0u64;
    out.set(
        "mpisim.redistribute_ns_per_elem",
        median_of_batches(|| {
            let t = Instant::now();
            let grown = redist::redistribute(black_box(&two), 4, 4);
            let shrunk = redist::redistribute(black_box(&four), 4, 2);
            let ns = t.elapsed().as_nanos() as f64 / (2 * ELEMS) as f64;
            moved = grown.moved_bytes + shrunk.moved_bytes;
            black_box((grown, shrunk));
            ns
        }),
    );
    out.set(
        "mpisim.redist_moved_frac",
        moved as f64 / (2 * ELEMS * 8) as f64,
    );
    out.set(
        "mpisim.decompose_ns_per_elem",
        median_of_batches(|| {
            let t = Instant::now();
            black_box(redist::decompose(black_box(&global), 4, 2));
            t.elapsed().as_nanos() as f64 / ELEMS as f64
        }),
    );
}

/// Run every microloop at table size `n` (the workload's host count).
pub fn run_all(n: usize, out: &mut Values) {
    simcore(n, out);
    simhost(out);
    simnet(n, out);
    sysinfo(out);
    rules(out);
    xmlwire(out);
    regcore(n, out);
    hpcm(out);
    mpisim(out);
}
