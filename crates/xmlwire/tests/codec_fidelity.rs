//! Cross-codec fidelity: the XML and binary codecs are two encodings of
//! one message model, and neither may drift.
//!
//! Four gates:
//!
//! * a **golden corpus** covering every [`Message`] variant round-trips
//!   through both codecs and decodes to the same value either way;
//! * the XML codec's framed bytes are **byte-identical** to the historical
//!   wire format (`to_document()` + `\n`) — the negotiation layer must not
//!   perturb what an unmodified paper-faithful peer sees;
//! * a **proptest** over arbitrary messages pins the equivalence for
//!   inputs nobody thought to put in the corpus — and that
//!   `Message::xml_len` (the byte count the simulation charges) is the
//!   document's length, for every float `Display` can print;
//! * a **differential** against the tree-walking decoder the pull reader
//!   replaced ([`reference`]): on the golden corpus, arbitrary messages and
//!   byte-edited documents of every variant, both decoders return the same
//!   `Ok` message or both return `Err`.

mod reference;

use ars_xmlwire::wire::{
    decode_binary_payload, encode_frame, FrameReader, WireCodecKind, MAX_FRAME_BYTES,
};
use ars_xmlwire::{
    AppCharacteristic, ApplicationSchema, EntityRole, HostState, HostStatic, Message, Metrics,
    ProcReport, ResourceRequirements,
};
use proptest::prelude::*;
use proptest::BoxedStrategy;

fn requirements() -> ResourceRequirements {
    ResourceRequirements {
        mem_kb: 524_288,
        disk_kb: 1_048_576,
        min_cpu_speed: 1.4,
    }
}

fn schema() -> ApplicationSchema {
    ApplicationSchema {
        app: "test_tree".to_string(),
        characteristic: AppCharacteristic::CommIntensive,
        est_comm_bytes: 12_345_678,
        requirements: requirements(),
        est_exec_time_s: 600.5,
        history_runs: 7,
    }
}

/// Every message variant, with edge cases (empty collections, `None`
/// options, escapable characters) the per-variant tests care about.
fn corpus() -> Vec<Message> {
    let mut metrics = Metrics::new();
    metrics.set("loadAvg1", 0.97);
    metrics.set("memFreeKb", 183_500.0);
    vec![
        Message::Register {
            host: HostStatic {
                name: "ws4".to_string(),
                ip: "10.0.0.4".to_string(),
                os: "Linux 2.4".to_string(),
                cpu_speed: 1.7,
                n_cpus: 2,
                mem_kb: 1_048_576,
            },
            role: EntityRole::Monitor,
        },
        Message::Register {
            host: HostStatic {
                name: "reg1".to_string(),
                ip: "10.0.1.1".to_string(),
                os: "Linux".to_string(),
                cpu_speed: 2.0,
                n_cpus: 4,
                mem_kb: 2_097_152,
            },
            role: EntityRole::Registry,
        },
        Message::Heartbeat {
            host: "ws4".to_string(),
            state: HostState::Busy,
            metrics,
            procs: vec![ProcReport {
                pid: 4711,
                app: "test_tree".to_string(),
                start_time_s: 120.0,
                est_exec_time_s: 600.0,
            }],
        },
        Message::Heartbeat {
            host: "ws9".to_string(),
            state: HostState::Unavailable,
            metrics: Metrics::new(),
            procs: Vec::new(),
        },
        Message::MigrationCommand {
            host: "ws4".to_string(),
            pid: 4711,
            dest: "ws7".to_string(),
            dest_port: 5123,
            schema: schema(),
        },
        Message::CandidateRequest {
            host: "ws4".to_string(),
            requirements: requirements(),
        },
        Message::CandidateReply {
            dest: Some("ws7".to_string()),
        },
        Message::CandidateReply { dest: None },
        Message::MigrationComplete {
            pid: 4711,
            from: "ws4".to_string(),
            to: "ws7".to_string(),
            migration_time_s: 13.25,
        },
        Message::StatusQuery {
            host: "ws4".to_string(),
        },
        Message::CommandAck {
            host: "ws4".to_string(),
            pid: 4711,
            ok: true,
        },
        Message::CommandAck {
            host: "ws4".to_string(),
            pid: 4711,
            ok: false,
        },
        Message::ReRegister {
            host: "ws4".to_string(),
        },
        Message::DomainReport {
            domain: "domainB".to_string(),
            free: 12,
            busy: 7,
            overloaded: 2,
            unavailable: 1,
            load_sum: 18.75,
            load_samples: 22,
        },
        Message::Ack {
            ok: false,
            info: "text with <angle> & \"quote\" escapes".to_string(),
        },
        Message::Ack {
            ok: true,
            info: String::new(),
        },
    ]
}

#[test]
fn corpus_covers_every_message_variant() {
    let tags: std::collections::BTreeSet<&str> = corpus().iter().map(|m| m.type_tag()).collect();
    let all = [
        "register",
        "heartbeat",
        "migration-command",
        "candidate-request",
        "candidate-reply",
        "migration-complete",
        "status-query",
        "command-ack",
        "re-register",
        "domain-report",
        "ack",
    ];
    for tag in all {
        assert!(tags.contains(tag), "corpus is missing variant {tag:?}");
    }
    assert_eq!(tags.len(), all.len(), "unknown variant tag in corpus");
}

/// The framed XML bytes are exactly the historical wire format. This is
/// the byte-identity gate: introducing the codec layer must not change a
/// single bit of what an unmodified XML peer sends or receives.
#[test]
fn xml_frames_are_byte_identical_to_the_legacy_format() {
    for msg in corpus() {
        let framed = encode_frame(&msg, WireCodecKind::Xml);
        let mut legacy = msg.to_document().into_bytes();
        legacy.push(b'\n');
        assert_eq!(framed, legacy, "frame drifted for {}", msg.type_tag());
    }
}

/// Every corpus message survives both codecs and decodes identically.
#[test]
fn golden_corpus_round_trips_through_both_codecs() {
    for msg in corpus() {
        let tag = msg.type_tag();
        // Binary: frame → payload → message.
        let bin = encode_frame(&msg, WireCodecKind::Binary);
        let from_bin = decode_binary_payload(&bin[4..])
            .unwrap_or_else(|e| panic!("binary decode of {tag}: {e}"));
        assert_eq!(from_bin, msg, "binary round-trip drifted for {tag}");
        // XML: document → message.
        let from_xml = Message::decode(&msg.to_document())
            .unwrap_or_else(|e| panic!("xml decode of {tag}: {e}"));
        assert_eq!(from_xml, msg, "xml round-trip drifted for {tag}");
        // Cross-codec: both decodes agree.
        assert_eq!(from_bin, from_xml, "codecs disagree for {tag}");
    }
}

/// The whole corpus streamed through a negotiating [`FrameReader`] in one
/// buffer comes back in order, for each codec.
#[test]
fn frame_reader_replays_the_corpus_in_order_under_both_codecs() {
    for codec in [WireCodecKind::Xml, WireCodecKind::Binary] {
        let mut stream = match codec {
            WireCodecKind::Binary => ars_xmlwire::BIN_PREAMBLE.to_vec(),
            WireCodecKind::Xml => Vec::new(),
        };
        for msg in corpus() {
            stream.extend(encode_frame(&msg, codec));
        }
        let mut reader = FrameReader::negotiating(MAX_FRAME_BYTES);
        reader.push(&stream);
        let mut got = Vec::new();
        while let Some(msg) = reader.next_frame().expect("clean stream") {
            got.push(msg);
        }
        assert_eq!(got, corpus(), "{codec} stream replay drifted");
        assert_eq!(reader.codec(), Some(codec));
        assert_eq!(reader.buffered(), 0);
    }
}

// --- arbitrary messages -----------------------------------------------------

/// ASCII text as the protocol actually carries, line breaks and tabs
/// included (the XML writer escapes `<>&"`, `\n` and `\r`; the protocol is
/// byte-oriented ASCII throughout).
fn text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\n\r\t]{0,40}").expect("valid regex")
}

fn name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9_.-]{0,15}").expect("valid regex")
}

fn finite() -> BoxedStrategy<f64> {
    (-1e9f64..1e9).boxed()
}

/// Every float `Display` can print: arbitrary bit patterns (NaN payloads,
/// ±inf, subnormals) plus the named corners — −0.0, the smallest
/// subnormal, and 1e300, which prints as 301 digits.
fn any_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        any::<f64>(),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(f64::from_bits(1)),
        Just(1e300),
    ]
    .boxed()
}

fn requirements_strategy(float: BoxedStrategy<f64>) -> impl Strategy<Value = ResourceRequirements> {
    (any::<u64>(), any::<u64>(), float).prop_map(|(mem_kb, disk_kb, min_cpu_speed)| {
        ResourceRequirements {
            mem_kb,
            disk_kb,
            min_cpu_speed,
        }
    })
}

fn schema_strategy(float: BoxedStrategy<f64>) -> impl Strategy<Value = ApplicationSchema> {
    (
        name(),
        prop_oneof![
            Just(AppCharacteristic::DataIntensive),
            Just(AppCharacteristic::CommIntensive),
            Just(AppCharacteristic::ComputeIntensive),
        ],
        any::<u64>(),
        requirements_strategy(float.clone()),
        float,
        any::<u32>(),
    )
        .prop_map(
            |(app, characteristic, est_comm_bytes, requirements, est_exec_time_s, history_runs)| {
                ApplicationSchema {
                    app,
                    characteristic,
                    est_comm_bytes,
                    requirements,
                    est_exec_time_s,
                    history_runs,
                }
            },
        )
}

fn message_strategy() -> impl Strategy<Value = Message> {
    messages_over(finite())
}

/// Arbitrary messages whose `f64` fields all come from `float`.
fn messages_over(float: BoxedStrategy<f64>) -> impl Strategy<Value = Message> {
    let state = prop_oneof![
        Just(HostState::Free),
        Just(HostState::Busy),
        Just(HostState::Overloaded),
        Just(HostState::Unavailable),
    ];
    let role = prop_oneof![
        Just(EntityRole::Monitor),
        Just(EntityRole::Commander),
        Just(EntityRole::Registry),
    ];
    let proc_report = (any::<u64>(), name(), float.clone(), float.clone()).prop_map(
        |(pid, app, start_time_s, est_exec_time_s)| ProcReport {
            pid,
            app,
            start_time_s,
            est_exec_time_s,
        },
    );
    prop_oneof![
        (
            (name(), name(), text()),
            (float.clone(), any::<u32>(), any::<u64>(), role)
        )
            .prop_map(|((hostname, ip, os), (cpu_speed, n_cpus, mem_kb, role))| {
                Message::Register {
                    host: HostStatic {
                        name: hostname,
                        ip,
                        os,
                        cpu_speed,
                        n_cpus,
                        mem_kb,
                    },
                    role,
                }
            }),
        (
            name(),
            state,
            proptest::collection::vec((name(), float.clone()), 0..6),
            proptest::collection::vec(proc_report, 0..4),
        )
            .prop_map(|(host, state, metrics, procs)| {
                let mut bag = Metrics::new();
                for (k, v) in metrics {
                    bag.set(k, v);
                }
                Message::Heartbeat {
                    host,
                    state,
                    metrics: bag,
                    procs,
                }
            }),
        (
            name(),
            any::<u64>(),
            name(),
            any::<u16>(),
            schema_strategy(float.clone())
        )
            .prop_map(
                |(host, pid, dest, dest_port, schema)| Message::MigrationCommand {
                    host,
                    pid,
                    dest,
                    dest_port,
                    schema,
                }
            ),
        (name(), requirements_strategy(float.clone()))
            .prop_map(|(host, requirements)| Message::CandidateRequest { host, requirements }),
        proptest::option::of(name()).prop_map(|dest| Message::CandidateReply { dest }),
        (any::<u64>(), name(), name(), float.clone()).prop_map(
            |(pid, from, to, migration_time_s)| {
                Message::MigrationComplete {
                    pid,
                    from,
                    to,
                    migration_time_s,
                }
            }
        ),
        name().prop_map(|host| Message::StatusQuery { host }),
        (name(), any::<u64>(), any::<bool>()).prop_map(|(host, pid, ok)| Message::CommandAck {
            host,
            pid,
            ok
        }),
        name().prop_map(|host| Message::ReRegister { host }),
        (
            (name(), any::<u32>(), any::<u32>()),
            (any::<u32>(), any::<u32>(), float, any::<u32>()),
        )
            .prop_map(
                |((domain, free, busy), (overloaded, unavailable, load_sum, load_samples))| {
                    Message::DomainReport {
                        domain,
                        free,
                        busy,
                        overloaded,
                        unavailable,
                        load_sum,
                        load_samples,
                    }
                }
            ),
        (any::<bool>(), text()).prop_map(|(ok, info)| Message::Ack { ok, info }),
    ]
}

proptest! {
    /// Arbitrary messages decode to the same value through both codecs.
    #[test]
    fn arbitrary_messages_are_codec_equivalent(msg in message_strategy()) {
        let bin = encode_frame(&msg, WireCodecKind::Binary);
        let from_bin = decode_binary_payload(&bin[4..]).expect("binary decode");
        prop_assert_eq!(&from_bin, &msg);
        let doc = msg.to_document();
        prop_assert_eq!(msg.xml_len(), doc.len());
        let from_xml = Message::decode(&doc).expect("xml decode");
        prop_assert_eq!(&from_xml, &msg);
        prop_assert_eq!(&from_bin, &from_xml);
    }

    /// The length the simulation charges is the document's length for
    /// every float `Display` can print, not just the round-trippable ones.
    #[test]
    fn xml_len_matches_the_document_for_any_float(msg in messages_over(any_f64())) {
        prop_assert_eq!(msg.xml_len(), msg.to_document().len());
    }

    /// Arbitrary messages survive a negotiating reader with the stream cut
    /// at an arbitrary point (partial-frame state machine correctness).
    #[test]
    fn split_delivery_never_corrupts_a_frame(
        msg in message_strategy(),
        xml_first in any::<bool>(),
        cut in 0usize..64,
    ) {
        let codec = if xml_first { WireCodecKind::Xml } else { WireCodecKind::Binary };
        let mut stream = match codec {
            WireCodecKind::Binary => ars_xmlwire::BIN_PREAMBLE.to_vec(),
            WireCodecKind::Xml => Vec::new(),
        };
        stream.extend(encode_frame(&msg, codec));
        let cut = cut.min(stream.len());
        let mut reader = FrameReader::negotiating(MAX_FRAME_BYTES);
        reader.push(&stream[..cut]);
        let early = reader.next_frame().expect("clean prefix");
        reader.push(&stream[cut..]);
        let mut got = early;
        if got.is_none() {
            got = reader.next_frame().expect("clean stream");
        }
        prop_assert_eq!(got, Some(msg));
    }
}

// --- differential: pull decoder vs the reference tree walk -----------------

/// Both decoders return the same `Ok` message (compared through `Debug`, so
/// NaN fields compare equal) or both return `Err`; likewise the tree
/// builder against the reference parser.
fn decoders_agree(doc: &str) -> Result<(), TestCaseError> {
    match (Message::decode(doc), reference::decode(doc)) {
        (Ok(new), Ok(old)) => prop_assert_eq!(format!("{new:?}"), format!("{old:?}"), "{doc:?}"),
        (Err(_), Err(_)) => {}
        (new, old) => {
            return Err(TestCaseError(format!(
                "decoders disagree on {doc:?}: pull {new:?}, reference {old:?}"
            )))
        }
    }
    match (ars_xmlwire::parse(doc), reference::parse(doc)) {
        (Ok(new), Ok(old)) => prop_assert_eq!(new, old, "{doc:?}"),
        (Err(_), Err(_)) => {}
        (new, old) => {
            return Err(TestCaseError(format!(
                "parsers disagree on {doc:?}: pull {new:?}, reference {old:?}"
            )))
        }
    }
    Ok(())
}

/// Bytes an edit inserts or writes: the XML-significant ones plus letters.
const EDIT_BYTES: &[u8] = b"<>/&;\"'= !-?#xXamplgtquos";

/// Up to four byte edits — (0 delete | 1 insert | 2 replace, where, byte)
/// — applied to `doc`. Documents are ASCII and so are the edits, so the
/// result is still a `str`.
fn edit(doc: &str, edits: &[(u8, prop::sample::Index, usize)]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(kind, at, byte) in edits {
        let byte = EDIT_BYTES[byte % EDIT_BYTES.len()];
        match kind {
            0 if !bytes.is_empty() => {
                bytes.remove(at.index(bytes.len()));
            }
            2 if !bytes.is_empty() => {
                let i = at.index(bytes.len());
                bytes[i] = byte;
            }
            _ => bytes.insert(at.index(bytes.len() + 1), byte),
        }
    }
    String::from_utf8(bytes).expect("ASCII in, ASCII out")
}

fn edits() -> impl Strategy<Value = Vec<(u8, prop::sample::Index, usize)>> {
    proptest::collection::vec((0u8..3, any::<prop::sample::Index>(), 0usize..64), 1..5)
}

#[test]
fn decoders_agree_on_the_golden_corpus_and_every_single_byte_deletion() {
    for msg in corpus() {
        let doc = msg.to_document();
        decoders_agree(&doc).unwrap();
        for i in 0..doc.len() {
            let mut cut = doc.clone();
            cut.remove(i);
            decoders_agree(&cut).unwrap();
        }
    }
}

proptest! {
    /// Arbitrary messages decode identically through both decoders.
    #[test]
    fn decoders_agree_on_arbitrary_messages(msg in message_strategy()) {
        decoders_agree(&msg.to_document())?;
    }

    /// Byte-edited golden documents: both decoders accept the same ones,
    /// with the same value, and reject the rest.
    #[test]
    fn decoders_agree_on_edited_golden_documents(
        pick in any::<prop::sample::Index>(),
        edits in edits(),
    ) {
        let corpus = corpus();
        let doc = corpus[pick.index(corpus.len())].to_document();
        decoders_agree(&edit(&doc, &edits))?;
    }

    /// Byte-edited documents of arbitrary messages of every variant.
    #[test]
    fn decoders_agree_on_edited_documents(msg in message_strategy(), edits in edits()) {
        decoders_agree(&edit(&msg.to_document(), &edits))?;
    }
}
