//! Criterion microbenchmarks for the runtime-system building blocks:
//! the rule engine, the XML wire protocol, the checkpoint codec, the DES
//! kernel, and a full small-scale migration.

use ars_apps::{TestTree, TestTreeConfig};
use ars_hpcm::{HpcmConfig, HpcmHooks, HpcmShell, MigratableApp};
use ars_rules::{Expr, Policy, RuleSet};
use ars_sim::{HostId, Sim, SimConfig};
use ars_simcore::{EventQueue, SharedResource, SimTime};
use ars_simhost::{HostConfig, LoadAvg};
use ars_xmlwire::{ApplicationSchema, HostState, Message, Metrics, ProcReport};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn paper_metrics() -> Metrics {
    let mut m = Metrics::new();
    m.set("processorStatus", 47.0);
    m.set("ntStatIpv4:ESTABLISHED", 820.0);
    m.set("memAvail", 22.0);
    m.set("loadAvg1", 1.7);
    m.set("nproc", 120.0);
    m.set("netFlowMBps", 2.5);
    m
}

fn bench_rules(c: &mut Criterion) {
    let rules = RuleSet::paper();
    let metrics = paper_metrics();
    c.bench_function("rules/evaluate_paper_ruleset", |b| {
        b.iter(|| rules.evaluate(black_box(&metrics)).unwrap())
    });
    c.bench_function("rules/parse_complex_expression", |b| {
        b.iter(|| Expr::parse(black_box("( 40% * r 4 + 30% * r1 + 30% * r3 ) & r2")).unwrap())
    });
    let policy = Policy::paper_policy3();
    c.bench_function("rules/policy_should_migrate", |b| {
        b.iter(|| policy.should_migrate(black_box(&metrics)))
    });
}

fn bench_xml(c: &mut Criterion) {
    let msg = Message::Heartbeat {
        host: "ws1".to_string(),
        state: HostState::Busy,
        metrics: paper_metrics(),
        procs: vec![ProcReport {
            pid: 42,
            app: "test_tree".to_string(),
            start_time_s: 280.0,
            est_exec_time_s: 600.0,
        }],
    };
    let doc = msg.to_document();
    c.bench_function("xml/encode_heartbeat", |b| b.iter(|| msg.to_document()));
    c.bench_function("xml/decode_heartbeat", |b| {
        b.iter(|| Message::decode(black_box(&doc)).unwrap())
    });
    let schema = ApplicationSchema::compute("test_tree", 600.0);
    c.bench_function("xml/schema_roundtrip", |b| {
        b.iter(|| {
            let d = schema.to_document();
            ApplicationSchema::from_document(black_box(&d)).unwrap()
        })
    });
}

fn bench_codec(c: &mut Criterion) {
    let mut app = TestTree::new(TestTreeConfig::small());
    // Advance a few chunks so the checkpoint carries real values.
    for _ in 0..4 {
        let _ = &mut app;
    }
    c.bench_function("codec/test_tree_save", |b| b.iter(|| app.save()));
    let saved = app.save();
    c.bench_function("codec/test_tree_restore", |b| {
        b.iter(|| TestTree::restore(black_box(&saved.eager), None))
    });
}

fn bench_kernel(c: &mut Criterion) {
    c.bench_function("kernel/event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(SimTime::from_micros((i * 7919) % 100_000), i);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    });
    // Steady-state queue churn at cluster scale: 1e5 pending events, each
    // iteration schedules, cancels and fires — the exact op mix the
    // completion-event resync produces.
    c.bench_function("kernel/event_queue_churn_100k_pending", |b| {
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.push(SimTime::from_micros((i * 7919) % 1_000_000_000), i);
        }
        let mut i = 100_000u64;
        b.iter(|| {
            // Push two (one immediately cancelled), pop one: the pending set
            // stays ~1e5 as every cancelled entry is eventually skipped.
            i += 1;
            let at = SimTime::from_micros((i * 7919) % 1_000_000_000);
            let id = q.push(at, i);
            q.cancel(id);
            q.push(at, i);
            q.pop()
        })
    });
    c.bench_function("kernel/shared_resource_16_jobs", |b| {
        b.iter(|| {
            let mut r = SharedResource::new(1.0);
            for i in 0..16 {
                r.add_job(SimTime::ZERO, Some(1.0 + i as f64), 1.0);
            }
            r.advance(SimTime::from_secs(200));
            r.served_total()
        })
    });
    c.bench_function("kernel/load_average_hour", |b| {
        b.iter(|| {
            let mut la = LoadAvg::new();
            for i in 1..=720u64 {
                la.sample(SimTime::from_secs(i * 5), (i % 4) as usize);
            }
            la.one()
        })
    });
}

fn bench_destination_selection(c: &mut Criterion) {
    use ars_rescheduler::{CoreInput, Endpoint, RegistryConfig, RegistryCore, SchemaBook};
    use ars_rules::Policy;
    use ars_xmlwire::{EntityRole, HostStatic, Message, ResourceRequirements};

    // A 1024-host cluster where most machines are loaded and the few free
    // ones sit at the end of the registration order — the worst case for the
    // linear scan and the common case after hours of uptime. The core is
    // populated the way every driver populates it: Register + Heartbeat
    // inputs through `handle`.
    let now = SimTime::from_secs(100);
    let build = |linear: bool| {
        let mut cfg = RegistryConfig::new(Policy::paper_policy2());
        cfg.linear_first_fit = linear;
        let mut core = RegistryCore::new(cfg, SchemaBook::new());
        let mut fx = Vec::new();
        for i in 0..1024u32 {
            let free = i >= 1000;
            let mut m = Metrics::new();
            m.set("loadAvg1", if free { 0.2 } else { 2.5 });
            m.set("nproc", if free { 60.0 } else { 180.0 });
            m.set("memAvail", 50.0);
            m.set("diskAvailKb", 4_000_000.0);
            let from = Endpoint(u64::from(i) + 1);
            core.handle(
                now,
                CoreInput::Message {
                    from,
                    msg: Message::Register {
                        host: HostStatic {
                            name: format!("ws{i}"),
                            ip: format!("10.0.0.{i}"),
                            os: "SunOS 5.8".to_string(),
                            cpu_speed: 1.0,
                            n_cpus: 1,
                            mem_kb: 131_072,
                        },
                        role: EntityRole::Monitor,
                    },
                },
                &mut fx,
            );
            core.handle(
                now,
                CoreInput::Message {
                    from,
                    msg: Message::Heartbeat {
                        host: format!("ws{i}"),
                        state: if free {
                            HostState::Free
                        } else {
                            HostState::Busy
                        },
                        metrics: m,
                        procs: Vec::new(),
                    },
                },
                &mut fx,
            );
            fx.clear();
        }
        core
    };
    let req = ResourceRequirements {
        mem_kb: 24_576,
        disk_kb: 1_024,
        min_cpu_speed: 0.5,
    };
    let linear = build(true);
    let indexed = build(false);
    let pick = |core: &RegistryCore| {
        core.destination_for(&req, "ws0", now)
            .map(|e| e.name.to_string())
    };
    assert_eq!(
        pick(&linear),
        Some("ws1000".to_string()),
        "the first free host past the loaded prefix"
    );
    assert_eq!(
        pick(&linear),
        pick(&indexed),
        "both searches must agree on the destination"
    );
    c.bench_function("registry/first_fit_linear_1024_hosts", |b| {
        b.iter(|| {
            linear
                .destination_for(black_box(&req), "ws0", now)
                .map(|e| e.name.clone())
        })
    });
    c.bench_function("registry/first_fit_indexed_1024_hosts", |b| {
        b.iter(|| {
            indexed
                .destination_for(black_box(&req), "ws0", now)
                .map(|e| e.name.clone())
        })
    });
}

fn bench_migration(c: &mut Criterion) {
    let mut group = c.benchmark_group("migration");
    group.sample_size(20);
    group.bench_function("small_end_to_end_sim", |b| {
        b.iter(|| {
            let mut sim = Sim::new(
                vec![HostConfig::named("ws1"), HostConfig::named("ws2")],
                SimConfig::default(),
            );
            let hooks = HpcmHooks::new();
            let pid = HpcmShell::spawn_on(
                &mut sim,
                HostId(0),
                TestTree::new(TestTreeConfig::small()),
                HpcmConfig::default(),
                None,
                hooks.clone(),
            );
            sim.run_until(SimTime::from_secs_f64(0.5));
            sim.kernel_mut().hosts[0].write_file(ars_hpcm::dest_file_path(pid), "ws2:7801");
            sim.signal(pid, ars_hpcm::MIGRATE_SIGNAL);
            sim.run_until(SimTime::from_secs(60));
            assert_eq!(hooks.migration_count(), 1);
            hooks.completion_of("test_tree").is_some()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rules,
    bench_xml,
    bench_codec,
    bench_kernel,
    bench_destination_selection,
    bench_migration
);
criterion_main!(benches);
