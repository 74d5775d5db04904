//! Inter-process messages.
//!
//! Every message is an [`Envelope`]: sender, receiver, a numeric tag, a
//! payload, and a modeled wire size. Control traffic (the rescheduler's XML
//! protocol) travels as a typed [`Payload::Value`] charged at the length of
//! the document it would serialize to, so the byte counts the
//! communication-overhead experiment measures are the real sizes while no
//! message is ever encoded or parsed. Bulk transfers (process state) carry
//! an empty payload with a large `wire_bytes`, avoiding the cost of
//! materializing megabytes.

use crate::ids::Pid;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Message body.
#[derive(Clone)]
pub enum Payload {
    /// No body (pure signal / modeled bulk data).
    Empty,
    /// Raw bytes (serialized process state).
    Bytes(Vec<u8>),
    /// A typed value and the byte length it is charged on the wire. The
    /// kernel never looks inside; `Arc` because envelopes are cloned
    /// (fault-injected duplicates).
    Value(Arc<dyn Any + Send + Sync>, u64),
}

impl Payload {
    /// The payload's own size in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Empty => 0,
            Payload::Bytes(b) => b.len() as u64,
            Payload::Value(_, len) => *len,
        }
    }

    /// True when the payload carries no data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow as bytes, if binary.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Payload::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Borrow the typed value, if this is a `Value` holding a `T`.
    pub fn value<T: Any>(&self) -> Option<&T> {
        match self {
            Payload::Value(v, _) => v.downcast_ref(),
            _ => None,
        }
    }

    /// Take the typed value out, if this is a `Value` holding a `T`. Moves
    /// it when this envelope is its only holder and clones only when a
    /// duplicate still shares it.
    pub fn into_value<T: Any + Send + Sync + Clone>(self) -> Option<T> {
        match self {
            Payload::Value(v, _) => v.downcast().ok().map(Arc::unwrap_or_clone),
            _ => None,
        }
    }
}

/// Contents stay opaque: a `Value` prints its charged length only.
impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Empty => f.write_str("Empty"),
            Payload::Bytes(b) => f.debug_tuple("Bytes").field(b).finish(),
            Payload::Value(_, len) => write!(f, "Value({len} B)"),
        }
    }
}

/// Values are equal when they are the same shared value (an envelope and
/// its duplicate) charged the same length; `dyn Any` has no `==`.
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Payload::Empty, Payload::Empty) => true,
            (Payload::Bytes(a), Payload::Bytes(b)) => a == b,
            (Payload::Value(a, la), Payload::Value(b, lb)) => Arc::ptr_eq(a, b) && la == lb,
            _ => false,
        }
    }
}

/// A message in flight or in a mailbox.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sender.
    pub from: Pid,
    /// Receiver (after any forwarding).
    pub to: Pid,
    /// Application-level tag for receive matching.
    pub tag: u32,
    /// Body.
    pub payload: Payload,
    /// Bytes on the wire (at least the payload length; a header allowance
    /// plus any modeled bulk size).
    pub wire_bytes: u64,
}

/// Per-message protocol overhead added to the payload size when the sender
/// does not specify an explicit wire size (TCP/IP + framing allowance).
pub const WIRE_HEADER_BYTES: u64 = 64;

impl Envelope {
    /// Build an envelope with the default wire size (payload + header).
    pub fn new(from: Pid, to: Pid, tag: u32, payload: Payload) -> Self {
        let wire_bytes = payload.len() + WIRE_HEADER_BYTES;
        Envelope {
            from,
            to,
            tag,
            payload,
            wire_bytes,
        }
    }
}

/// Receive filter: `None` fields match anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecvFilter {
    /// Only accept messages from this sender.
    pub from: Option<Pid>,
    /// Only accept messages with this tag.
    pub tag: Option<u32>,
}

impl RecvFilter {
    /// Match anything.
    pub fn any() -> Self {
        RecvFilter::default()
    }

    /// Match a specific tag from anyone.
    pub fn tag(tag: u32) -> Self {
        RecvFilter {
            from: None,
            tag: Some(tag),
        }
    }

    /// Match a specific sender and tag.
    pub fn from_tag(from: Pid, tag: u32) -> Self {
        RecvFilter {
            from: Some(from),
            tag: Some(tag),
        }
    }

    /// Does this envelope pass the filter?
    pub fn matches(&self, env: &Envelope) -> bool {
        self.from.is_none_or(|f| f == env.from) && self.tag.is_none_or(|t| t == env.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::Empty.len(), 0);
        assert_eq!(Payload::Bytes(vec![0; 9]).len(), 9);
        assert_eq!(Payload::Value(Arc::new("x"), 622).len(), 622);
        assert!(Payload::Empty.is_empty());
    }

    #[test]
    fn default_wire_size_includes_header() {
        let env = Envelope::new(Pid(1), Pid(2), 7, Payload::Bytes(vec![0; 100]));
        assert_eq!(env.wire_bytes, 100 + WIRE_HEADER_BYTES);
    }

    #[test]
    fn value_is_charged_its_declared_length() {
        let env = Envelope::new(Pid(1), Pid(2), 7, Payload::Value(Arc::new(5u32), 622));
        assert_eq!(env.wire_bytes, 622 + WIRE_HEADER_BYTES);
    }

    #[test]
    fn value_downcasts_to_its_type_only() {
        let p = Payload::Value(Arc::new(String::from("hb")), 2);
        assert_eq!(p.value::<String>().map(String::as_str), Some("hb"));
        assert_eq!(p.value::<u64>(), None);
        assert_eq!(Payload::Bytes(vec![1]).value::<String>(), None);
        assert_eq!(p.clone().into_value::<u64>(), None);
        assert_eq!(p.into_value::<String>().as_deref(), Some("hb"));
    }

    #[test]
    fn into_value_on_a_shared_duplicate_returns_an_equal_value() {
        let env = Envelope::new(
            Pid(1),
            Pid(2),
            7,
            Payload::Value(Arc::new(vec![1, 2, 3]), 3),
        );
        let dup = env.clone();
        assert_eq!(dup, env, "a duplicate shares the value");
        assert_eq!(dup.payload.into_value::<Vec<i32>>(), Some(vec![1, 2, 3]));
        assert_eq!(env.payload.into_value::<Vec<i32>>(), Some(vec![1, 2, 3]));
        let other = Payload::Value(Arc::new(vec![1, 2, 3]), 3);
        assert_ne!(other, Payload::Value(Arc::new(vec![1, 2, 3]), 3));
    }

    #[test]
    fn value_debug_prints_no_contents() {
        let p = Payload::Value(Arc::new(String::from("secret-host")), 11);
        let shown = format!("{p:?}");
        assert_eq!(shown, "Value(11 B)");
    }

    #[test]
    fn filters() {
        let env = Envelope::new(Pid(1), Pid(2), 7, Payload::Empty);
        assert!(RecvFilter::any().matches(&env));
        assert!(RecvFilter::tag(7).matches(&env));
        assert!(!RecvFilter::tag(8).matches(&env));
        assert!(RecvFilter::from_tag(Pid(1), 7).matches(&env));
        assert!(!RecvFilter::from_tag(Pid(3), 7).matches(&env));
    }

    #[test]
    fn payload_accessors() {
        assert_eq!(Payload::Empty.as_bytes(), None);
        assert_eq!(Payload::Bytes(vec![1]).as_bytes(), Some(&[1u8][..]));
    }
}
