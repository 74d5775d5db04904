//! Golden wire-format tests: the exact bytes of each protocol message.
//!
//! The live-TCP mode and the simulation share these documents; changing the
//! format silently would break cross-version interoperability, so the exact
//! serialization is pinned here.

use ars_xmlwire::{
    ApplicationSchema, EntityRole, HostState, HostStatic, Message, Metrics, ProcReport,
};

/// The wire document, after checking that the length the simulation
/// charges for it (`xml_len`) is exactly its length.
fn document(msg: &Message) -> String {
    let doc = msg.to_document();
    assert_eq!(msg.xml_len(), doc.len(), "xml_len drifted for {doc}");
    doc
}

#[test]
fn golden_register() {
    let msg = Message::Register {
        host: HostStatic {
            name: "ws1".to_string(),
            ip: "10.0.0.1".to_string(),
            os: "SunOS 5.8".to_string(),
            cpu_speed: 1.0,
            n_cpus: 1,
            mem_kb: 131072,
        },
        role: EntityRole::Monitor,
    };
    assert_eq!(
        document(&msg),
        "<?xml version=\"1.0\" encoding=\"US-ASCII\"?>\
         <msg type=\"register\" role=\"monitor\">\
         <host name=\"ws1\"><ip>10.0.0.1</ip><os>SunOS 5.8</os>\
         <cpu-speed>1</cpu-speed><n-cpus>1</n-cpus><mem-kb>131072</mem-kb>\
         </host></msg>"
    );
}

#[test]
fn golden_heartbeat() {
    let mut metrics = Metrics::new();
    metrics.set("loadAvg1", 0.97);
    let msg = Message::Heartbeat {
        host: "ws2".to_string(),
        state: HostState::Busy,
        metrics,
        procs: vec![ProcReport {
            pid: 7,
            app: "test_tree".to_string(),
            start_time_s: 280.0,
            est_exec_time_s: 600.0,
        }],
    };
    assert_eq!(
        document(&msg),
        "<?xml version=\"1.0\" encoding=\"US-ASCII\"?>\
         <msg type=\"heartbeat\"><host>ws2</host><state>busy</state>\
         <metrics><metric name=\"loadAvg1\">0.97</metric></metrics>\
         <procs><proc pid=\"7\" app=\"test_tree\" start=\"280\" est=\"600\"/></procs>\
         </msg>"
    );
}

#[test]
fn golden_migration_command() {
    let msg = Message::MigrationCommand {
        host: "ws1".to_string(),
        pid: 7,
        dest: "ws4".to_string(),
        dest_port: 7801,
        schema: ApplicationSchema::compute("test_tree", 600.0),
    };
    assert_eq!(
        document(&msg),
        "<?xml version=\"1.0\" encoding=\"US-ASCII\"?>\
         <msg type=\"migration-command\"><host>ws1</host><pid>7</pid>\
         <dest>ws4</dest><dest-port>7801</dest-port>\
         <application-schema app=\"test_tree\">\
         <characteristic>computing</characteristic>\
         <est-comm-bytes>0</est-comm-bytes>\
         <requirements><mem-kb>0</mem-kb><disk-kb>0</disk-kb>\
         <min-cpu-speed>0</min-cpu-speed></requirements>\
         <est-exec-time-s>600</est-exec-time-s>\
         <history-runs>0</history-runs>\
         </application-schema></msg>"
    );
}

#[test]
fn golden_candidate_roundtrip() {
    assert_eq!(
        document(&Message::CandidateReply {
            dest: Some("ws4".to_string())
        }),
        "<?xml version=\"1.0\" encoding=\"US-ASCII\"?>\
         <msg type=\"candidate-reply\"><dest>ws4</dest></msg>"
    );
    assert_eq!(
        document(&Message::CandidateReply { dest: None }),
        "<?xml version=\"1.0\" encoding=\"US-ASCII\"?>\
         <msg type=\"candidate-reply\"><none/></msg>"
    );
}

#[test]
fn golden_documents_decode_back() {
    // Round-trip each golden string through the parser.
    for doc in [
        "<?xml version=\"1.0\" encoding=\"US-ASCII\"?><msg type=\"ack\"><ok>true</ok><info>done</info></msg>",
        "<?xml version=\"1.0\" encoding=\"US-ASCII\"?><msg type=\"candidate-reply\"><none/></msg>",
        "<?xml version=\"1.0\" encoding=\"US-ASCII\"?><msg type=\"migration-complete\"><pid>7</pid><from>ws1</from><to>ws4</to><migration-time-s>6.71</migration-time-s></msg>",
    ] {
        let msg = Message::decode(doc).expect(doc);
        assert_eq!(document(&msg), doc);
    }
}

#[test]
fn heartbeat_wire_size_matches_overhead_budget() {
    // Fig. 6 depends on heartbeats being sub-kilobyte: a typical heartbeat
    // with the full sensor bag must stay under 1.5 KiB.
    let mut metrics = Metrics::new();
    for key in [
        "processorStatus",
        "cpuUtil",
        "loadAvg1",
        "loadAvg5",
        "loadAvg15",
        "nproc",
        "ntStatIpv4:ESTABLISHED",
        "netTxKBps",
        "netRxKBps",
        "netFlowMBps",
        "memAvail",
        "virtMemAvail",
        "diskAvailKb",
    ] {
        metrics.set(key, 123.456789);
    }
    let msg = Message::Heartbeat {
        host: "ws63".to_string(),
        state: HostState::Free,
        metrics,
        procs: vec![],
    };
    let len = document(&msg).len();
    assert!(len < 1536, "heartbeat is {len} bytes");
}
