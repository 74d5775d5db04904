//! Property-based round-trip tests for the XML layer.

use ars_xmlwire::{parse, Message, Metrics, XmlElement, XmlNode};
use ars_xmlwire::{ApplicationSchema, HostState, ProcReport};
use proptest::prelude::*;

/// Arbitrary text avoiding only non-characters the writer never escapes
/// (control chars are legal in our byte-oriented parser but not worth
/// modelling — the protocol is ASCII).
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{1,40}").expect("valid regex")
}

fn name_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9_.-]{0,15}").expect("valid regex")
}

fn element_strategy() -> impl Strategy<Value = XmlElement> {
    let leaf = (
        name_strategy(),
        proptest::collection::vec((name_strategy(), text_strategy()), 0..4),
        proptest::option::of(text_strategy()),
    )
        .prop_map(|(name, attrs, text)| {
            let mut el = XmlElement::new(name);
            // Attribute keys must be unique for equality after parsing.
            let mut seen = std::collections::HashSet::new();
            for (k, v) in attrs {
                if seen.insert(k.clone()) {
                    el.attrs.push((k, v));
                }
            }
            // A leaf's text is its sole content, kept verbatim even when
            // it is whitespace.
            if let Some(t) = text {
                el.children.push(XmlNode::Text(t));
            }
            el
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (name_strategy(), proptest::collection::vec(inner, 0..4)).prop_map(|(name, children)| {
            let mut el = XmlElement::new(name);
            for c in children {
                el.children.push(XmlNode::Element(c));
            }
            el
        })
    })
}

proptest! {
    /// write → parse is the identity on arbitrary trees.
    #[test]
    fn xml_roundtrip(el in element_strategy()) {
        let doc = el.to_document();
        let parsed = parse(&doc).unwrap();
        prop_assert_eq!(parsed, el);
    }

    /// Text with every escapable character survives, whitespace-only
    /// text and line breaks included.
    #[test]
    fn escaping_roundtrip(t in proptest::string::string_regex("[ -~\n\r\t]{0,60}").unwrap()) {
        let el = XmlElement::new("t").text(t.clone());
        let doc = el.to_document();
        let parsed = parse(&doc).unwrap();
        prop_assert_eq!(parsed.text_content(), t);
    }

    /// Heartbeats with arbitrary metric bags round-trip.
    #[test]
    fn heartbeat_roundtrip(
        host in name_strategy(),
        metrics in proptest::collection::vec((name_strategy(), -1e6f64..1e6), 0..8),
        pids in proptest::collection::vec(0u64..1_000_000, 0..5),
    ) {
        let mut bag = Metrics::new();
        for (k, v) in metrics {
            bag.set(k, v);
        }
        let procs: Vec<ProcReport> = pids
            .iter()
            .map(|&pid| ProcReport {
                pid,
                app: "test_tree".to_string(),
                start_time_s: pid as f64 * 0.5,
                est_exec_time_s: 600.0,
            })
            .collect();
        let m = Message::Heartbeat { host, state: HostState::Busy, metrics: bag, procs };
        let back = Message::decode(&m.to_document()).unwrap();
        prop_assert_eq!(back, m);
    }

    /// Application schemas with arbitrary numeric content round-trip.
    #[test]
    fn schema_roundtrip(
        est in 0.0f64..1e7,
        comm in 0u64..u64::MAX / 2,
        mem in 0u64..1_000_000,
        runs in 0u32..10_000,
    ) {
        let mut s = ApplicationSchema::compute("app", est);
        s.est_comm_bytes = comm;
        s.requirements.mem_kb = mem;
        s.history_runs = runs;
        let back = ApplicationSchema::from_document(&s.to_document()).unwrap();
        prop_assert_eq!(back, s);
    }
}
