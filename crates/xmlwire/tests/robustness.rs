//! Decode robustness: truncated and bit-flipped wire documents of every
//! message type must return `Err` (or, for flips that happen to keep the
//! document well-formed, an `Ok`) — never panic; and a [`FrameReader`] fed
//! arbitrary bytes in arbitrary chunks stays bounded and stays dead once a
//! framing error poisoned it. Chaos runs deliver exactly this kind of
//! garbage to long-lived daemons.

use ars_xmlwire::wire::{encode_frame, FrameReader, WireCodecKind, BIN_PREAMBLE};
use ars_xmlwire::{
    ApplicationSchema, EntityRole, HostState, HostStatic, Message, Metrics, ProcReport,
    ResourceRequirements,
};
use proptest::prelude::*;

fn sample_messages() -> Vec<Message> {
    let mut metrics = Metrics::new();
    metrics.set("loadAvg1", 1.25);
    metrics.set("nproc", 61.0);
    vec![
        Message::Register {
            host: HostStatic {
                name: "ws1".to_string(),
                ip: "10.0.0.1".to_string(),
                os: "linux".to_string(),
                cpu_speed: 1.2,
                n_cpus: 2,
                mem_kb: 131_072,
            },
            role: EntityRole::Monitor,
        },
        Message::Heartbeat {
            host: "ws1".to_string(),
            state: HostState::Overloaded,
            metrics,
            procs: vec![ProcReport {
                pid: 42,
                app: "test_tree".to_string(),
                start_time_s: 10.5,
                est_exec_time_s: 600.0,
            }],
        },
        Message::MigrationCommand {
            host: "ws1".to_string(),
            pid: 42,
            dest: "ws2".to_string(),
            dest_port: 7801,
            schema: ApplicationSchema::compute("test_tree", 600.0),
        },
        Message::CandidateRequest {
            host: "ws1".to_string(),
            requirements: ResourceRequirements::default(),
        },
        Message::CandidateReply {
            dest: Some("ws2".to_string()),
        },
        Message::CandidateReply { dest: None },
        Message::MigrationComplete {
            pid: 42,
            from: "ws1".to_string(),
            to: "ws2".to_string(),
            migration_time_s: 4.2,
        },
        Message::StatusQuery {
            host: "ws1".to_string(),
        },
        Message::Ack {
            ok: true,
            info: "registered ws1".to_string(),
        },
        Message::CommandAck {
            host: "ws1".to_string(),
            pid: 42,
            ok: false,
        },
        Message::ReRegister {
            host: "ws1".to_string(),
        },
    ]
}

#[test]
fn every_truncation_of_every_message_type_errors() {
    for msg in sample_messages() {
        let doc = msg.to_document();
        // Sanity: the intact document decodes back to the message.
        assert_eq!(Message::decode(&doc).unwrap(), msg);
        for n in 0..doc.len() {
            if !doc.is_char_boundary(n) {
                continue;
            }
            let cut = &doc[..n];
            assert!(
                Message::decode(cut).is_err(),
                "truncation to {n} bytes of {} decoded",
                msg.type_tag()
            );
        }
    }
}

#[test]
fn bit_flipped_documents_never_panic() {
    for msg in sample_messages() {
        let doc = msg.to_document().into_bytes();
        for i in 0..doc.len() * 8 {
            let mut bad = doc.clone();
            bad[i / 8] ^= 1 << (i % 8);
            // A flip may produce invalid UTF-8 (decode via lossy, as a
            // daemon reading a socket would) or still-well-formed XML that
            // decodes to a different message; both are fine. Panicking or
            // aborting is not.
            let text = String::from_utf8_lossy(&bad);
            let _ = Message::decode(&text);
        }
    }
}

/// A migration command whose `<application-schema>` nests tens of
/// thousands of tags (still under `MAX_FRAME_BYTES`) is an `Err`, decoded
/// on a thread with a reactor-sized stack — not a stack overflow that
/// aborts the process.
#[test]
fn a_deeply_nested_schema_errs_instead_of_overflowing_the_stack() {
    let depth = 36_000;
    let doc = format!(
        "<msg type=\"migration-command\"><application-schema app=\"a\">{}{}\
         </application-schema></msg>",
        "<a>".repeat(depth),
        "</a>".repeat(depth)
    );
    assert!(doc.len() < ars_xmlwire::MAX_FRAME_BYTES);
    let decoded = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || Message::decode(&doc).is_err())
        .unwrap()
        .join()
        .unwrap();
    assert!(decoded, "a 36 000-deep schema decoded");
}

#[test]
fn hostile_but_well_formed_documents_error_cleanly() {
    // Wrong root, missing fields, non-numeric numbers: typed errors, not
    // panics.
    for doc in [
        "<unknown-tag/>",
        "<heartbeat/>",
        "<register><host/></register>",
        "<command-ack><host>x</host><pid>not-a-number</pid><ok>maybe</ok></command-ack>",
        "<migration-command><pid>99999999999999999999999999</pid></migration-command>",
        "",
        "not xml at all",
        "<a><b></a></b>",
    ] {
        assert!(Message::decode(doc).is_err(), "{doc:?} decoded");
    }
}

/// One piece of a fuzzed stream: raw bytes, or something a reader has to
/// recognise — a whole frame in either codec, the binary preamble, a
/// newline, a binary length prefix.
fn piece() -> impl Strategy<Value = Vec<u8>> {
    let frame = (any::<prop::sample::Index>(), any::<bool>()).prop_map(|(pick, xml)| {
        let msgs = sample_messages();
        let codec = if xml {
            WireCodecKind::Xml
        } else {
            WireCodecKind::Binary
        };
        encode_frame(&msgs[pick.index(msgs.len())], codec)
    });
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..48),
        frame,
        Just(BIN_PREAMBLE.to_vec()),
        Just(b"<".to_vec()),
        Just(b"\n".to_vec()),
        (0u32..512).prop_map(|len| len.to_le_bytes().to_vec()),
    ]
}

proptest! {
    /// Arbitrary bytes in arbitrary chunk sizes, into a negotiating, an XML
    /// or a binary reader with a small cap: nothing panics; after each
    /// chunk is drained the reader holds at most the cap plus a 4-byte
    /// length prefix (so at most that plus one chunk right after a push);
    /// and once a fatal error poisoned it, every later `next_frame` errs.
    #[test]
    fn frame_reader_survives_arbitrary_bytes_in_arbitrary_chunks(
        mode in 0u8..3,
        max_frame in 64usize..400,
        pieces in proptest::collection::vec(piece(), 1..12),
        cuts in proptest::collection::vec(1usize..200, 1..40),
    ) {
        let mut reader = match mode {
            0 => FrameReader::negotiating(max_frame),
            1 => FrameReader::for_codec(WireCodecKind::Xml, max_frame),
            _ => FrameReader::for_codec(WireCodecKind::Binary, max_frame),
        };
        let stream = pieces.concat();
        let mut rest = &stream[..];
        let mut poisoned = false;
        for &cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(cut.min(rest.len()));
            rest = tail;
            reader.push(chunk);
            prop_assert!(reader.buffered() <= max_frame + 4 + chunk.len());
            loop {
                match reader.next_frame() {
                    _ if poisoned => {
                        prop_assert!(reader.next_frame().is_err(), "a poisoned reader decoded");
                        break;
                    }
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) if e.is_fatal() => poisoned = true,
                    Err(_) => {}
                }
            }
            prop_assert!(reader.buffered() <= max_frame + 4, "{} buffered", reader.buffered());
        }
    }
}
