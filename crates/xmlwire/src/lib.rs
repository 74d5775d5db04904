//! # ars-xmlwire — the rescheduler's XML wire protocol
//!
//! A hand-written minimal XML document model ([`doc`]), the *application
//! schema* carried with every migration-enabled process ([`schema`]), and
//! the monitor ↔ registry/scheduler ↔ commander message set ([`msg`]).
//!
//! One streaming writer defines the XML form, with three sinks:
//!
//! * over real TCP sockets in the `live` mode of `ars-rescheduler`, it
//!   writes the document straight into a connection's write buffer
//!   ([`encode_frame_into`]), or builds it as a string
//!   ([`Message::to_document`]);
//! * inside the cluster simulation, messages travel as typed values and the
//!   writer only counts ([`Message::xml_len`]), so the simulated network
//!   and the communication-overhead figures charge each message exactly its
//!   document's size without encoding or parsing it.
//!
//! One pull lexer reads the XML form. [`Message::decode`] fills a message
//! from its events directly, with no tree in between; [`parse`] builds the
//! [`XmlElement`] tree on the same events for the documents read once —
//! rule sets and application schemas.

#![warn(missing_docs)]

pub mod doc;
pub mod msg;
pub mod schema;
pub mod wire;

pub use doc::{parse, XmlElement, XmlError, XmlNode};
pub use msg::{EntityRole, HostState, HostStatic, Message, Metrics, ProcReport};
pub use schema::{AppCharacteristic, ApplicationSchema, ResourceRequirements};
pub use wire::{
    decode_binary_payload, encode_frame, encode_frame_into, FrameReader, WireCodecKind, WireError,
    BIN_PREAMBLE, MAX_FRAME_BYTES,
};
