//! The rescheduler protocol over real localhost TCP sockets.

use ars_rescheduler::live::{LiveClient, LiveError, LiveRegistry};
use ars_xmlwire::wire::WireCodecKind;
use ars_xmlwire::{EntityRole, HostState, HostStatic, Message, Metrics, ResourceRequirements};

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

fn register(client: &mut LiveClient, name: &str) {
    let reply = client
        .call(&Message::Register {
            host: statics(name),
            role: EntityRole::Monitor,
        })
        .expect("register");
    assert!(matches!(reply, Message::Ack { ok: true, .. }));
}

fn heartbeat(client: &mut LiveClient, name: &str, state: HostState) {
    let mut metrics = Metrics::new();
    metrics.set("loadAvg1", if state == HostState::Free { 0.2 } else { 2.5 });
    let reply = client
        .call(&Message::Heartbeat {
            host: name.to_string(),
            state,
            metrics,
            procs: vec![],
        })
        .expect("heartbeat");
    assert!(matches!(reply, Message::Ack { ok: true, .. }));
}

#[test]
fn live_registry_serves_first_fit_over_tcp() {
    let registry = LiveRegistry::start().expect("bind");
    let addr = registry.addr();

    // Three monitors connect from "hosts" a, b, c.
    let mut a = LiveClient::connect(addr).unwrap();
    let mut b = LiveClient::connect(addr).unwrap();
    let mut c = LiveClient::connect(addr).unwrap();
    register(&mut a, "a");
    register(&mut b, "b");
    register(&mut c, "c");

    heartbeat(&mut a, "a", HostState::Overloaded);
    heartbeat(&mut b, "b", HostState::Busy);
    heartbeat(&mut c, "c", HostState::Free);

    // Overloaded host a asks for a candidate: first fit must skip busy b.
    let reply = a
        .call(&Message::CandidateRequest {
            host: "a".to_string(),
            requirements: ResourceRequirements::default(),
        })
        .unwrap();
    assert_eq!(
        reply,
        Message::CandidateReply {
            dest: Some("c".to_string())
        }
    );

    // Scheduler state is observable.
    registry.inspect(|core, log| {
        let names: Vec<_> = core.entries().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(core.entries()[0].state, HostState::Overloaded);
        assert_eq!(
            log.decisions.iter().filter(|d| d.dest.is_some()).count(),
            1,
            "one candidate served: {:?}",
            log.decisions
        );
    });

    // Once c becomes busy too, no candidate exists.
    heartbeat(&mut c, "c", HostState::Busy);
    let reply = a
        .call(&Message::CandidateRequest {
            host: "a".to_string(),
            requirements: ResourceRequirements::default(),
        })
        .unwrap();
    assert_eq!(reply, Message::CandidateReply { dest: None });

    registry.shutdown();
}

/// The binary codec drives the identical protocol flow end to end: the
/// registry negotiates it from the stream preamble and answers in kind.
#[test]
fn binary_codec_serves_first_fit_over_tcp() {
    let registry = LiveRegistry::start().expect("bind");
    let addr = registry.addr();

    let mut a = LiveClient::connect_binary(addr).unwrap();
    let mut b = LiveClient::connect_binary(addr).unwrap();
    let mut c = LiveClient::connect_binary(addr).unwrap();
    assert_eq!(a.codec(), WireCodecKind::Binary);
    register(&mut a, "a");
    register(&mut b, "b");
    register(&mut c, "c");

    heartbeat(&mut a, "a", HostState::Overloaded);
    heartbeat(&mut b, "b", HostState::Busy);
    heartbeat(&mut c, "c", HostState::Free);

    let reply = a
        .call(&Message::CandidateRequest {
            host: "a".to_string(),
            requirements: ResourceRequirements::default(),
        })
        .unwrap();
    assert_eq!(
        reply,
        Message::CandidateReply {
            dest: Some("c".to_string())
        }
    );
    registry.shutdown();
}

/// XML and binary peers coexist on one port: the codec is per connection,
/// and the scheduler cannot tell them apart. With an enabled obs session
/// the live path reports negotiations, connection counters, and
/// per-message decode latency.
#[test]
fn mixed_codec_clients_share_one_registry_and_obs_sees_them() {
    use ars_rescheduler::{RegistryConfig, SchemaBook};
    use ars_rules::Policy;

    let obs = ars_obs::Obs::enabled();
    let mut cfg = RegistryConfig::new(Policy::no_migration());
    cfg.name = "live".to_string();
    cfg.obs = obs.clone();
    let registry = LiveRegistry::start_with(cfg, SchemaBook::new()).expect("bind");
    let addr = registry.addr();

    let mut xml = LiveClient::connect(addr).unwrap();
    let mut bin = LiveClient::connect_binary(addr).unwrap();
    register(&mut xml, "xml_host");
    register(&mut bin, "bin_host");
    heartbeat(&mut xml, "xml_host", HostState::Overloaded);
    heartbeat(&mut bin, "bin_host", HostState::Free);

    // A cross-codec decision: the XML host is offered the binary host.
    let reply = xml
        .call(&Message::CandidateRequest {
            host: "xml_host".to_string(),
            requirements: ResourceRequirements::default(),
        })
        .unwrap();
    assert_eq!(
        reply,
        Message::CandidateReply {
            dest: Some("bin_host".to_string())
        }
    );

    // The binary peer negotiates at connect time (its preamble is the
    // first thing on the wire); the XML peer only when its first frame
    // arrives — so assert the set, not the order.
    let mut negotiated: Vec<String> = obs
        .of_kind(ars_obs::ObsKind::WireCodecNegotiated)
        .iter()
        .map(|r| match &r.event {
            ars_obs::ObsEvent::WireCodecNegotiated { codec, .. } => codec.clone(),
            other => panic!("wrong event {other:?}"),
        })
        .collect();
    negotiated.sort();
    assert_eq!(negotiated, vec!["binary".to_string(), "xml".to_string()]);
    assert_eq!(obs.counter("live_connections"), 2);
    let decode = obs.histogram("wire_decode_s").expect("decode histogram");
    // 2 registers + 2 heartbeats + 1 candidate request.
    assert_eq!(decode.count, 5);
    registry.shutdown();
}

/// A peer that is not speaking the protocol at all (wrong first byte) is
/// disconnected at negotiation without disturbing legitimate clients, and
/// the disconnect is counted.
#[test]
fn a_hostile_peer_is_disconnected_without_harming_others() {
    use std::io::{Read, Write};

    let obs = ars_obs::Obs::enabled();
    let mut cfg = ars_rescheduler::RegistryConfig::new(ars_rules::Policy::no_migration());
    cfg.name = "live".to_string();
    cfg.obs = obs.clone();
    let registry = LiveRegistry::start_with(cfg, ars_rescheduler::SchemaBook::new()).expect("bind");
    let addr = registry.addr();

    let mut good = LiveClient::connect(addr).unwrap();
    register(&mut good, "ws1");

    // Not XML, not the binary preamble: an HTTP probe, say.
    let mut hostile = std::net::TcpStream::connect(addr).unwrap();
    hostile
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    hostile.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut buf = [0u8; 64];
    // The server drops the connection (EOF) rather than buffering garbage.
    assert_eq!(hostile.read(&mut buf).unwrap(), 0, "expected EOF");

    // The legitimate client is unaffected.
    heartbeat(&mut good, "ws1", HostState::Free);
    assert_eq!(obs.counter("live_disconnects"), 1);
    registry.shutdown();
}

/// A syntactically-XML frame that is not a protocol message gets a typed
/// protocol nack (the frame is consumed; the connection survives) — the
/// same contract the thread-per-connection server had.
#[test]
fn an_undecodable_xml_frame_gets_a_nack_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};

    let registry = LiveRegistry::start().expect("bind");
    let mut raw = std::net::TcpStream::connect(registry.addr()).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    raw.write_all(b"<garbage/>\n").unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let nack = Message::decode(line.trim_end()).unwrap();
    assert!(matches!(nack, Message::Ack { ok: false, .. }), "{nack:?}");

    // Same connection, now a well-formed register: still served.
    let register = Message::Register {
        host: statics("ws1"),
        role: EntityRole::Monitor,
    };
    raw.write_all(format!("{}\n", register.to_document()).as_bytes())
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let ack = Message::decode(line.trim_end()).unwrap();
    assert!(matches!(ack, Message::Ack { ok: true, .. }), "{ack:?}");
    registry.shutdown();
}

/// An unterminated frame that keeps growing past the cap is rejected by
/// disconnect, not by buffering until the server falls over.
#[test]
fn an_oversized_frame_disconnects_the_peer() {
    use ars_rescheduler::live::LiveOptions;
    use std::io::{Read, Write};

    let cfg = {
        let mut c = ars_rescheduler::RegistryConfig::new(ars_rules::Policy::no_migration());
        c.name = "live".to_string();
        c
    };
    let registry = LiveRegistry::start_with_options(
        cfg,
        ars_rescheduler::SchemaBook::new(),
        LiveOptions {
            max_frame: 4096,
            ..LiveOptions::default()
        },
    )
    .expect("bind");

    let mut peer = std::net::TcpStream::connect(registry.addr()).unwrap();
    peer.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    // An XML-looking line that never ends.
    let chunk = vec![b'<'; 16 * 1024];
    // The write may itself fail once the server closes mid-stream; both
    // outcomes (write error, EOF on read) prove the cap.
    let _ = peer.write_all(&chunk);
    let mut buf = [0u8; 64];
    match peer.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("expected EOF, got {n} bytes"),
        Err(_) => {} // reset — the server dropped us mid-write
    }
    registry.shutdown();
}

/// A host name holding a line break (sent as `&#10;`) comes back in the
/// registry's NACK and `ReRegister`: each reply must stay one frame, and the
/// registry must keep serving. Unescaped, the break used to split both
/// replies into four broken lines (and kill the reactor thread in a debug
/// build).
#[test]
fn a_line_break_in_a_host_name_cannot_split_a_reply_frame() {
    use std::io::{BufRead, BufReader, Write};

    let registry = LiveRegistry::start().expect("bind");
    let mut raw = std::net::TcpStream::connect(registry.addr()).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    raw.write_all(
        b"<?xml version=\"1.0\" encoding=\"US-ASCII\"?><msg type=\"heartbeat\">\
          <host>a&#10;b</host><state>free</state><metrics/><procs/></msg>\n",
    )
    .unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut next_reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("a reply frame");
        Message::decode(line.strip_suffix('\n').expect("a whole line"))
            .unwrap_or_else(|e| panic!("{line:?} is not one frame: {e}"))
    };
    match next_reply() {
        Message::Ack { ok: false, info } => assert!(info.starts_with("a\nb "), "{info:?}"),
        other => panic!("expected a NACK, got {other:?}"),
    }
    assert_eq!(
        next_reply(),
        Message::ReRegister {
            host: "a\nb".to_string()
        }
    );

    let mut second = LiveClient::connect(registry.addr()).unwrap();
    register(&mut second, "ws2");
    heartbeat(&mut second, "ws2", HostState::Free);
    registry.shutdown();
}

#[test]
fn heartbeat_before_registration_is_rejected() {
    let registry = LiveRegistry::start().expect("bind");
    let mut x = LiveClient::connect(registry.addr()).unwrap();
    let reply = x
        .call(&Message::Heartbeat {
            host: "ghost".to_string(),
            state: HostState::Free,
            metrics: Metrics::new(),
            procs: vec![],
        })
        .unwrap();
    assert!(matches!(reply, Message::Ack { ok: false, .. }));
    registry.shutdown();
}

#[test]
fn call_times_out_instead_of_hanging_on_a_silent_registry() {
    // A listener that accepts the connection but never replies models a
    // registry process that wedged mid-call.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));

    let mut client =
        LiveClient::connect_with_timeout(addr, std::time::Duration::from_millis(200)).unwrap();
    let started = std::time::Instant::now();
    let reply = client.call(&Message::CandidateRequest {
        host: "a".to_string(),
        requirements: ResourceRequirements::default(),
    });
    assert!(
        matches!(reply, Err(LiveError::Timeout(_))),
        "expected timeout, got {reply:?}"
    );
    // Bounded: well under the historical forever-hang.
    assert!(started.elapsed() < std::time::Duration::from_secs(5));
    drop(hold.join());
}

#[test]
fn call_reports_a_closed_registry() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Accept, then hang up immediately.
    let closer = std::thread::spawn(move || {
        let _ = listener.accept();
    });
    let mut client = LiveClient::connect(addr).unwrap();
    client
        .set_call_timeout(std::time::Duration::from_secs(2))
        .unwrap();
    closer.join().unwrap();
    let reply = client.call(&Message::CandidateRequest {
        host: "a".to_string(),
        requirements: ResourceRequirements::default(),
    });
    // Depending on scheduling the write may succeed (buffered) and the
    // read sees EOF, or the write itself errors; both are typed, neither
    // hangs.
    assert!(
        matches!(reply, Err(LiveError::Closed) | Err(LiveError::Io(_))),
        "expected closed/io error, got {reply:?}"
    );
}

#[test]
fn connect_to_a_dead_address_fails_fast() {
    // Bind then drop: the port is (momentarily) known-dead.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let r = LiveClient::connect_with_timeout(addr, std::time::Duration::from_millis(500));
    assert!(r.is_err());
}

#[test]
fn re_register_preserves_a_known_hosts_entry() {
    let registry = LiveRegistry::start().expect("bind");
    let mut c = LiveClient::connect(registry.addr()).unwrap();
    register(&mut c, "ws1");
    heartbeat(&mut c, "ws1", HostState::Overloaded);

    // A duplicate Register (monitor restart, retransmit) must not reset
    // the entry to Free with empty metrics — that made an overloaded host
    // look like a perfect migration destination.
    register(&mut c, "ws1");
    registry.inspect(|core, _| {
        let names: Vec<_> = core.entries().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names, vec!["ws1"], "no duplicate entry");
        assert_eq!(core.entries()[0].state, HostState::Overloaded);
        assert!(core.entries()[0].metrics.get("loadAvg1").is_some());
    });

    // And the re-registered host still accepts heartbeats as known.
    heartbeat(&mut c, "ws1", HostState::Free);
    registry.shutdown();
}

#[test]
fn a_poisoned_table_lock_does_not_brick_later_clients() {
    let registry = LiveRegistry::start().expect("bind");
    let mut c = LiveClient::connect(registry.addr()).unwrap();
    register(&mut c, "ws1");

    // Poison the shared-state mutex the way a panicking handler thread
    // would: panic while `inspect` holds the guard.
    let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        registry.inspect(|_, _| -> () {
            panic!("simulated handler panic while holding the registry lock")
        })
    }));
    assert!(poisoned.is_err(), "the closure must have panicked");

    // Handlers recover from the poisoned lock: registration and
    // heartbeats from later clients still succeed.
    let mut d = LiveClient::connect(registry.addr()).unwrap();
    register(&mut d, "ws2");
    heartbeat(&mut d, "ws2", HostState::Free);
    heartbeat(&mut c, "ws1", HostState::Overloaded);

    let reply = c
        .call(&Message::CandidateRequest {
            host: "ws1".to_string(),
            requirements: ResourceRequirements::default(),
        })
        .unwrap();
    assert_eq!(
        reply,
        Message::CandidateReply {
            dest: Some("ws2".to_string())
        }
    );
    registry.shutdown();
}

#[test]
fn a_host_never_picks_itself() {
    let registry = LiveRegistry::start().expect("bind");
    let mut a = LiveClient::connect(registry.addr()).unwrap();
    register(&mut a, "a");
    heartbeat(&mut a, "a", HostState::Free);
    // a is the only (free) host; it must not be offered to itself.
    let reply = a
        .call(&Message::CandidateRequest {
            host: "a".to_string(),
            requirements: ResourceRequirements::default(),
        })
        .unwrap();
    assert_eq!(reply, Message::CandidateReply { dest: None });
    registry.shutdown();
}

/// Regression for the live-path scheduling gap: the old socket-local
/// `LiveTable::first_fit` checked only `state == Free && name != source`,
/// so live migration could target a host failing the application schema's
/// `ResourceRequirements` or the rule policy's destination conditions. Now
/// that live scheduling runs on the shared `RegistryCore`, both gates must
/// hold over TCP exactly as they do in the simulation.
#[test]
fn live_migration_never_picks_a_requirement_or_policy_failing_destination() {
    use ars_rescheduler::{RegistryConfig, SchemaBook};
    use ars_rules::Policy;
    use ars_simcore::SimDuration;
    use ars_xmlwire::{ApplicationSchema, ProcReport};

    let mut cfg = RegistryConfig::new(Policy::paper_policy2());
    cfg.name = "live".to_string();
    // No cooldown so the second overload heartbeat re-decides immediately.
    cfg.command_cooldown = SimDuration::from_secs(0);
    let schemas = SchemaBook::new();
    let mut schema = ApplicationSchema::compute("tree", 600.0);
    schema.requirements = ResourceRequirements {
        mem_kb: 24_576,
        disk_kb: 1_024,
        min_cpu_speed: 0.5,
    };
    schemas.put(schema);
    let registry = LiveRegistry::start_with(cfg, schemas).expect("bind");
    let addr = registry.addr();

    let rich_heartbeat =
        |client: &mut LiveClient, name: &str, state: HostState, load: f64, mem_avail_pct: f64| {
            let mut m = Metrics::new();
            m.set("loadAvg1", load);
            m.set("nproc", 10.0);
            m.set("memAvail", mem_avail_pct);
            m.set("diskAvailKb", 4_000_000.0);
            let procs = if state == HostState::Overloaded {
                vec![ProcReport {
                    pid: 42,
                    app: "tree".to_string(),
                    start_time_s: 0.0,
                    est_exec_time_s: 600.0,
                }]
            } else {
                vec![]
            };
            let reply = client
                .call(&Message::Heartbeat {
                    host: name.to_string(),
                    state,
                    metrics: m,
                    procs,
                })
                .expect("heartbeat");
            assert!(matches!(reply, Message::Ack { ok: true, .. }));
        };

    let mut src_mon = LiveClient::connect(addr).unwrap();
    let mut src_cmd = LiveClient::connect(addr).unwrap();
    register(&mut src_mon, "src");
    let reply = src_cmd
        .call(&Message::Register {
            host: statics("src"),
            role: EntityRole::Commander,
        })
        .unwrap();
    assert!(matches!(reply, Message::Ack { ok: true, .. }));

    // Two tempting-but-unfit candidates, registered FIRST so a naive
    // first-fit would pick one of them.
    let mut bad_policy = LiveClient::connect(addr).unwrap();
    let mut bad_mem = LiveClient::connect(addr).unwrap();
    register(&mut bad_policy, "bad_policy");
    register(&mut bad_mem, "bad_mem");
    // Free, but load 2.5 violates the policy's LOAD1 < 1.0 destination
    // condition.
    rich_heartbeat(&mut bad_policy, "bad_policy", HostState::Free, 2.5, 50.0);
    // Free and policy-clean, but 10% of 128 MB fails the schema's 24 MB
    // memory floor.
    rich_heartbeat(&mut bad_mem, "bad_mem", HostState::Free, 0.2, 10.0);

    // Overload with only unfit candidates: no command may be issued.
    rich_heartbeat(&mut src_mon, "src", HostState::Overloaded, 2.5, 50.0);
    src_cmd
        .set_call_timeout(std::time::Duration::from_millis(300))
        .unwrap();
    let pushed = src_cmd.recv();
    assert!(
        matches!(pushed, Err(LiveError::Timeout(_))),
        "no destination qualifies, yet a command was pushed: {pushed:?}"
    );
    registry.inspect(|_, log| {
        let last = log.decisions.last().expect("a decision was made");
        assert_eq!(last.dest, None, "unfit host chosen: {last:?}");
    });

    // A qualified host appears; the next overload heartbeat migrates to it.
    let mut good = LiveClient::connect(addr).unwrap();
    register(&mut good, "good");
    rich_heartbeat(&mut good, "good", HostState::Free, 0.2, 50.0);
    rich_heartbeat(&mut src_mon, "src", HostState::Overloaded, 2.5, 50.0);
    src_cmd
        .set_call_timeout(std::time::Duration::from_secs(5))
        .unwrap();
    match src_cmd.recv().expect("a migration command") {
        Message::MigrationCommand {
            host, pid, dest, ..
        } => {
            assert_eq!(host, "src");
            assert_eq!(pid, 42);
            assert_eq!(dest, "good");
            src_cmd
                .send(&Message::CommandAck {
                    host,
                    pid,
                    ok: true,
                })
                .unwrap();
        }
        other => panic!("expected MigrationCommand, got {other:?}"),
    }
    registry.inspect(|_, log| {
        let last = log.decisions.last().expect("decision");
        assert_eq!(last.dest.as_deref(), Some("good"));
        assert_eq!(log.commands_sent, 1);
    });
    registry.shutdown();
}

/// A batched send coalesces many frames into one stream write: the client
/// pays one syscall for the whole burst where per-message sends pay one
/// each, and the registry still processes every frame in order (one ack
/// per heartbeat, final state = last frame's state).
#[test]
fn batched_heartbeats_use_one_write_and_all_frames_land() {
    const BURST: usize = 8;
    let registry = LiveRegistry::start().expect("bind");
    let addr = registry.addr();

    // Baseline: the same burst sent message-by-message.
    let mut single = LiveClient::connect(addr).unwrap();
    register(&mut single, "single");
    let writes_before = single.writes();
    for i in 0..BURST {
        let state = if i % 2 == 0 {
            HostState::Free
        } else {
            HostState::Busy
        };
        heartbeat(&mut single, "single", state);
    }
    let single_writes = single.writes() - writes_before;
    assert_eq!(single_writes, BURST as u64, "one write per send");

    // Batched: every frame encoded into one write.
    let mut batched = LiveClient::connect(addr).unwrap();
    register(&mut batched, "batched");
    let writes_before = batched.writes();
    let burst: Vec<Message> = (0..BURST)
        .map(|i| {
            let state = if i == BURST - 1 {
                HostState::Overloaded
            } else {
                HostState::Free
            };
            let mut metrics = Metrics::new();
            metrics.set("loadAvg1", if state == HostState::Free { 0.2 } else { 2.5 });
            Message::Heartbeat {
                host: "batched".to_string(),
                state,
                metrics,
                procs: vec![],
            }
        })
        .collect();
    batched.send_batch(&burst).expect("batched send");
    let batch_writes = batched.writes() - writes_before;
    assert_eq!(batch_writes, 1, "whole burst in one write");
    assert!(batch_writes < single_writes);

    // One ack per frame, in order — nothing was coalesced away.
    for _ in 0..BURST {
        let reply = batched.recv().expect("ack");
        assert!(matches!(reply, Message::Ack { ok: true, .. }));
    }
    registry.inspect(|core, _| {
        let e = core
            .entries()
            .iter()
            .find(|e| &*e.name == "batched")
            .expect("registered");
        assert_eq!(e.state, HostState::Overloaded, "last frame won");
    });
    registry.shutdown();
}
