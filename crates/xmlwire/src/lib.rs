//! # ars-xmlwire — the rescheduler's XML wire protocol
//!
//! A hand-written minimal XML document model ([`doc`]), the *application
//! schema* carried with every migration-enabled process ([`schema`]), and
//! the monitor ↔ registry/scheduler ↔ commander message set ([`msg`]).
//!
//! One streaming writer defines the XML form, with two sinks:
//!
//! * over real TCP sockets in the `live` mode of `ars-rescheduler`, it
//!   builds the document ([`Message::to_document`]) that goes on the wire;
//! * inside the cluster simulation, messages travel as typed values and the
//!   writer only counts ([`Message::xml_len`]), so the simulated network
//!   and the communication-overhead figures charge each message exactly its
//!   document's size without encoding or parsing it.

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
