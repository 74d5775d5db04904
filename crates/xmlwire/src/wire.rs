//! Wire codecs and framing for the rescheduler protocol.
//!
//! The paper's transport is one single-line XML document per message,
//! newline-framed (§3.3) — faithful, but expensive to parse at high
//! fan-in. This module layers a codec abstraction over the same
//! [`Message`] model:
//!
//! * **XML** ([`WireCodecKind::Xml`]) — the paper-faithful default. The
//!   on-the-wire bytes are exactly `Message::to_document()` followed by
//!   `\n`; golden tests pin them byte-for-byte.
//! * **Binary** ([`WireCodecKind::Binary`]) — length-prefixed frames
//!   (`u32` little-endian payload length, then a type byte and
//!   fixed-layout fields) carrying the identical message model. A binary
//!   peer announces itself by opening its stream with [`BIN_PREAMBLE`];
//!   XML peers send nothing new, so they interoperate unchanged.
//!
//! **Negotiation** is client-driven and per connection: the first byte a
//! server sees selects the codec (`<` → XML, the preamble magic →
//! binary), after which every frame in *both* directions uses the
//! selected codec. Server→client streams never carry a preamble — the
//! codec is already fixed by the time the server writes.
//!
//! [`FrameReader`] is the sans-I/O incremental decoder both the live
//! registry reactor and the clients share: push raw bytes in, pull
//! decoded messages out, with partial frames held across reads and every
//! frame bounded by [`MAX_FRAME_BYTES`] so a malformed or hostile peer
//! cannot force unbounded buffering.

use crate::doc::{document_into, find_byte, XmlError};
use crate::msg::{EntityRole, HostState, HostStatic, Message, Metrics, ProcReport};
use crate::schema::{AppCharacteristic, ApplicationSchema, ResourceRequirements};

/// Default cap on one decoded frame (XML line or binary payload). The
/// largest legitimate protocol message — a migration command carrying a
/// full application schema, or a heartbeat with the complete sensor bag
/// and a long process table — is well under 64 KiB; anything bigger is a
/// bug or an attack, not traffic.
pub const MAX_FRAME_BYTES: usize = 256 * 1024;

/// Stream-opening magic a binary client sends before its first frame:
/// three magic bytes (the first, `0xAB`, can never begin an XML document
/// or UTF-8 text) plus a codec version byte.
pub const BIN_PREAMBLE: [u8; 4] = [0xAB, b'A', b'R', 0x01];

/// Which wire codec a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireCodecKind {
    /// Newline-framed single-line XML documents (the paper's protocol).
    Xml,
    /// Length-prefixed binary frames over the same message model.
    Binary,
}

impl WireCodecKind {
    /// Stable lowercase name ("xml" / "binary") for logs and benches.
    pub fn name(self) -> &'static str {
        match self {
            WireCodecKind::Xml => "xml",
            WireCodecKind::Binary => "binary",
        }
    }
}

impl std::fmt::Display for WireCodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What went wrong framing or decoding wire bytes.
///
/// Errors come in two severities, distinguished by [`is_fatal`]
/// (`WireError::is_fatal`): framing violations (oversized frame, bad
/// preamble, a reader already poisoned) mean the byte stream itself can
/// no longer be trusted and the connection must be dropped; content
/// errors (an undecodable message inside an intact frame) consume the
/// bad frame and leave the reader positioned at the next one, so a
/// server can reply with a protocol-level rejection and keep serving.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// A frame exceeded the reader's size cap before it completed.
    FrameTooLarge {
        /// The configured cap.
        limit: usize,
        /// Bytes the frame had already reached when rejected.
        got: usize,
    },
    /// The first byte(s) of the stream matched no known codec.
    BadPreamble(u8),
    /// A binary frame carried an unknown message-type byte.
    UnknownType(u8),
    /// A binary frame ended before its fields did.
    Truncated,
    /// A binary frame decoded cleanly but had bytes left over.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8, or an enum byte was out of
    /// range (field name attached).
    BadValue(&'static str),
    /// An XML frame failed to parse or validate.
    Xml(XmlError),
}

impl WireError {
    /// True when the stream is unrecoverable and must be closed; false
    /// when the offending frame was consumed and the reader can continue.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            WireError::FrameTooLarge { .. } | WireError::BadPreamble(_)
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge { limit, got } => {
                write!(f, "frame exceeds the {limit}-byte cap (got {got} bytes)")
            }
            WireError::BadPreamble(b) => {
                write!(f, "stream opened with byte 0x{b:02x}, not a known codec")
            }
            WireError::UnknownType(t) => write!(f, "unknown binary message type 0x{t:02x}"),
            WireError::Truncated => f.write_str("binary frame truncated mid-field"),
            WireError::TrailingBytes(n) => {
                write!(f, "binary frame has {n} trailing byte(s) after the message")
            }
            WireError::BadValue(field) => write!(f, "binary field {field:?} has an invalid value"),
            WireError::Xml(e) => write!(f, "xml frame: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<XmlError> for WireError {
    fn from(e: XmlError) -> Self {
        WireError::Xml(e)
    }
}

// --- encoding ---------------------------------------------------------------

/// Append one framed message in the given codec to `out`.
///
/// XML frames are byte-identical to the historical wire format:
/// `Message::to_document()` plus a trailing newline, streamed straight into
/// `out`. The document is one line whatever its strings hold — the writer
/// escapes `\n` and `\r` — so the newline always ends the frame. Binary
/// frames are `u32` little-endian payload length followed by the payload;
/// the stream preamble is *not* included (see [`BIN_PREAMBLE`]).
pub fn encode_frame_into(msg: &Message, codec: WireCodecKind, out: &mut Vec<u8>) {
    match codec {
        WireCodecKind::Xml => {
            document_into(msg, out);
            out.push(b'\n');
        }
        WireCodecKind::Binary => {
            let len_at = out.len();
            out.extend_from_slice(&[0; 4]);
            encode_binary_payload(msg, out);
            let len = (out.len() - len_at - 4) as u32;
            out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
        }
    }
}

/// One framed message in the given codec as a fresh buffer, no larger than
/// the frame (callers keep such frames around for reuse).
pub fn encode_frame(msg: &Message, codec: WireCodecKind) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(msg, codec, &mut out);
    out.shrink_to_fit();
    out
}

const TAG_REGISTER: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_MIGRATION_COMMAND: u8 = 3;
const TAG_CANDIDATE_REQUEST: u8 = 4;
const TAG_CANDIDATE_REPLY: u8 = 5;
const TAG_MIGRATION_COMPLETE: u8 = 6;
const TAG_STATUS_QUERY: u8 = 7;
const TAG_COMMAND_ACK: u8 = 8;
const TAG_RE_REGISTER: u8 = 9;
const TAG_DOMAIN_REPORT: u8 = 10;
const TAG_ACK: u8 = 11;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn role_byte(r: EntityRole) -> u8 {
    match r {
        EntityRole::Monitor => 0,
        EntityRole::Commander => 1,
        EntityRole::Registry => 2,
    }
}

fn state_byte(s: HostState) -> u8 {
    match s {
        HostState::Free => 0,
        HostState::Busy => 1,
        HostState::Overloaded => 2,
        HostState::Unavailable => 3,
    }
}

fn characteristic_byte(c: AppCharacteristic) -> u8 {
    match c {
        AppCharacteristic::DataIntensive => 0,
        AppCharacteristic::CommIntensive => 1,
        AppCharacteristic::ComputeIntensive => 2,
    }
}

fn put_requirements(out: &mut Vec<u8>, r: &ResourceRequirements) {
    put_u64(out, r.mem_kb);
    put_u64(out, r.disk_kb);
    put_f64(out, r.min_cpu_speed);
}

fn put_schema(out: &mut Vec<u8>, s: &ApplicationSchema) {
    put_str(out, &s.app);
    out.push(characteristic_byte(s.characteristic));
    put_u64(out, s.est_comm_bytes);
    put_requirements(out, &s.requirements);
    put_f64(out, s.est_exec_time_s);
    put_u32(out, s.history_runs);
}

/// Serialize one message as a binary frame *payload* (no length prefix).
fn encode_binary_payload(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Register { host, role } => {
            out.push(TAG_REGISTER);
            out.push(role_byte(*role));
            put_str(out, &host.name);
            put_str(out, &host.ip);
            put_str(out, &host.os);
            put_f64(out, host.cpu_speed);
            put_u32(out, host.n_cpus);
            put_u64(out, host.mem_kb);
        }
        Message::Heartbeat {
            host,
            state,
            metrics,
            procs,
        } => {
            out.push(TAG_HEARTBEAT);
            put_str(out, host);
            out.push(state_byte(*state));
            put_u32(out, metrics.len() as u32);
            for (name, value) in metrics.iter() {
                put_str(out, name);
                put_f64(out, value);
            }
            put_u32(out, procs.len() as u32);
            for p in procs {
                put_u64(out, p.pid);
                put_str(out, &p.app);
                put_f64(out, p.start_time_s);
                put_f64(out, p.est_exec_time_s);
            }
        }
        Message::MigrationCommand {
            host,
            pid,
            dest,
            dest_port,
            schema,
        } => {
            out.push(TAG_MIGRATION_COMMAND);
            put_str(out, host);
            put_u64(out, *pid);
            put_str(out, dest);
            put_u16(out, *dest_port);
            put_schema(out, schema);
        }
        Message::CandidateRequest { host, requirements } => {
            out.push(TAG_CANDIDATE_REQUEST);
            put_str(out, host);
            put_requirements(out, requirements);
        }
        Message::CandidateReply { dest } => {
            out.push(TAG_CANDIDATE_REPLY);
            match dest {
                Some(d) => {
                    out.push(1);
                    put_str(out, d);
                }
                None => out.push(0),
            }
        }
        Message::MigrationComplete {
            pid,
            from,
            to,
            migration_time_s,
        } => {
            out.push(TAG_MIGRATION_COMPLETE);
            put_u64(out, *pid);
            put_str(out, from);
            put_str(out, to);
            put_f64(out, *migration_time_s);
        }
        Message::StatusQuery { host } => {
            out.push(TAG_STATUS_QUERY);
            put_str(out, host);
        }
        Message::CommandAck { host, pid, ok } => {
            out.push(TAG_COMMAND_ACK);
            put_str(out, host);
            put_u64(out, *pid);
            out.push(u8::from(*ok));
        }
        Message::ReRegister { host } => {
            out.push(TAG_RE_REGISTER);
            put_str(out, host);
        }
        Message::DomainReport {
            domain,
            free,
            busy,
            overloaded,
            unavailable,
            load_sum,
            load_samples,
        } => {
            out.push(TAG_DOMAIN_REPORT);
            put_str(out, domain);
            put_u32(out, *free);
            put_u32(out, *busy);
            put_u32(out, *overloaded);
            put_u32(out, *unavailable);
            put_f64(out, *load_sum);
            put_u32(out, *load_samples);
        }
        Message::Ack { ok, info } => {
            out.push(TAG_ACK);
            out.push(u8::from(*ok));
            put_str(out, info);
        }
    }
}

// --- binary decoding --------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array — how every fixed-width field is
    /// read. `Truncated` when fewer than `N` remain; never panics.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let head = *rest.first_chunk::<N>().ok_or(WireError::Truncated)?;
        self.pos += N;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.array()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self, field: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue(field)),
        }
    }

    fn str(&mut self, field: &'static str) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        // A length that exceeds what the frame still holds is just a
        // truncation in disguise; catch it before allocating.
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadValue(field))
    }

    fn requirements(&mut self) -> Result<ResourceRequirements, WireError> {
        Ok(ResourceRequirements {
            mem_kb: self.u64()?,
            disk_kb: self.u64()?,
            min_cpu_speed: self.f64()?,
        })
    }

    fn schema(&mut self) -> Result<ApplicationSchema, WireError> {
        Ok(ApplicationSchema {
            app: self.str("schema.app")?,
            characteristic: match self.u8()? {
                0 => AppCharacteristic::DataIntensive,
                1 => AppCharacteristic::CommIntensive,
                2 => AppCharacteristic::ComputeIntensive,
                _ => return Err(WireError::BadValue("schema.characteristic")),
            },
            est_comm_bytes: self.u64()?,
            requirements: self.requirements()?,
            est_exec_time_s: self.f64()?,
            history_runs: self.u32()?,
        })
    }
}

/// Decode one binary frame payload (the bytes after the length prefix).
pub fn decode_binary_payload(payload: &[u8]) -> Result<Message, WireError> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let msg = match c.u8()? {
        TAG_REGISTER => {
            let role = match c.u8()? {
                0 => EntityRole::Monitor,
                1 => EntityRole::Commander,
                2 => EntityRole::Registry,
                _ => return Err(WireError::BadValue("register.role")),
            };
            Message::Register {
                role,
                host: HostStatic {
                    name: c.str("register.name")?,
                    ip: c.str("register.ip")?,
                    os: c.str("register.os")?,
                    cpu_speed: c.f64()?,
                    n_cpus: c.u32()?,
                    mem_kb: c.u64()?,
                },
            }
        }
        TAG_HEARTBEAT => {
            let host = c.str("heartbeat.host")?;
            let state = match c.u8()? {
                0 => HostState::Free,
                1 => HostState::Busy,
                2 => HostState::Overloaded,
                3 => HostState::Unavailable,
                _ => return Err(WireError::BadValue("heartbeat.state")),
            };
            let n_metrics = c.u32()?;
            let mut metrics = Metrics::new();
            for _ in 0..n_metrics {
                let name = c.str("heartbeat.metric")?;
                let value = c.f64()?;
                metrics.set(name, value);
            }
            let n_procs = c.u32()?;
            let mut procs = Vec::with_capacity((n_procs as usize).min(1024));
            for _ in 0..n_procs {
                procs.push(ProcReport {
                    pid: c.u64()?,
                    app: c.str("heartbeat.proc.app")?,
                    start_time_s: c.f64()?,
                    est_exec_time_s: c.f64()?,
                });
            }
            Message::Heartbeat {
                host,
                state,
                metrics,
                procs,
            }
        }
        TAG_MIGRATION_COMMAND => Message::MigrationCommand {
            host: c.str("command.host")?,
            pid: c.u64()?,
            dest: c.str("command.dest")?,
            dest_port: c.u16()?,
            schema: c.schema()?,
        },
        TAG_CANDIDATE_REQUEST => Message::CandidateRequest {
            host: c.str("request.host")?,
            requirements: c.requirements()?,
        },
        TAG_CANDIDATE_REPLY => Message::CandidateReply {
            dest: match c.u8()? {
                0 => None,
                1 => Some(c.str("reply.dest")?),
                _ => return Err(WireError::BadValue("reply.some")),
            },
        },
        TAG_MIGRATION_COMPLETE => Message::MigrationComplete {
            pid: c.u64()?,
            from: c.str("complete.from")?,
            to: c.str("complete.to")?,
            migration_time_s: c.f64()?,
        },
        TAG_STATUS_QUERY => Message::StatusQuery {
            host: c.str("query.host")?,
        },
        TAG_COMMAND_ACK => Message::CommandAck {
            host: c.str("command-ack.host")?,
            pid: c.u64()?,
            ok: c.bool("command-ack.ok")?,
        },
        TAG_RE_REGISTER => Message::ReRegister {
            host: c.str("re-register.host")?,
        },
        TAG_DOMAIN_REPORT => Message::DomainReport {
            domain: c.str("report.domain")?,
            free: c.u32()?,
            busy: c.u32()?,
            overloaded: c.u32()?,
            unavailable: c.u32()?,
            load_sum: c.f64()?,
            load_samples: c.u32()?,
        },
        TAG_ACK => Message::Ack {
            ok: c.bool("ack.ok")?,
            info: c.str("ack.info")?,
        },
        other => return Err(WireError::UnknownType(other)),
    };
    if c.pos != payload.len() {
        return Err(WireError::TrailingBytes(payload.len() - c.pos));
    }
    Ok(msg)
}

// --- incremental frame reader ----------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReaderState {
    /// Waiting for the first byte(s) of the stream to pick a codec.
    Negotiating,
    /// Newline-framed XML lines.
    Xml,
    /// Length-prefixed binary frames.
    Binary,
    /// A fatal framing error was returned; the stream is untrusted.
    Poisoned,
}

/// Sans-I/O incremental frame decoder shared by the reactor and clients.
///
/// Feed raw socket bytes with [`push`](Self::push), pull messages with
/// [`next_frame`](Self::next_frame). Partial frames persist across
/// pushes; a frame growing past the size cap, or an unrecognized stream
/// preamble, is a *fatal* error ([`WireError::is_fatal`]) that poisons
/// the reader — it drops what it buffered, ignores later bytes and fails
/// every later call; the connection must be dropped. Content errors inside
/// an intact frame consume that frame and leave the reader at the next one.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
    /// How far past `pos` the XML newline scan has already looked.
    scanned: usize,
    state: ReaderState,
    max_frame: usize,
}

impl FrameReader {
    /// Server-side reader: the peer's first bytes select the codec.
    pub fn negotiating(max_frame: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            pos: 0,
            scanned: 0,
            state: ReaderState::Negotiating,
            max_frame: max_frame.max(64),
        }
    }

    /// Client-side reader for a known codec (server replies carry no
    /// preamble).
    pub fn for_codec(codec: WireCodecKind, max_frame: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            pos: 0,
            scanned: 0,
            state: match codec {
                WireCodecKind::Xml => ReaderState::Xml,
                WireCodecKind::Binary => ReaderState::Binary,
            },
            max_frame: max_frame.max(64),
        }
    }

    /// The negotiated codec, once known.
    pub fn codec(&self) -> Option<WireCodecKind> {
        match self.state {
            ReaderState::Xml => Some(WireCodecKind::Xml),
            ReaderState::Binary => Some(WireCodecKind::Binary),
            ReaderState::Negotiating | ReaderState::Poisoned => None,
        }
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Append raw bytes read from the peer. A poisoned reader discards
    /// them: its stream is no longer trusted, so it holds nothing more.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.state != ReaderState::Poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Decode the next complete frame, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes". `Err(e)` with `e.is_fatal()`
    /// poisons the reader; a non-fatal `Err` consumed the offending
    /// frame and the reader stays usable.
    pub fn next_frame(&mut self) -> Result<Option<Message>, WireError> {
        let result = self.decode_next();
        if matches!(&result, Err(e) if e.is_fatal()) {
            // The stream is untrusted from here on: keep none of it.
            self.state = ReaderState::Poisoned;
            self.buf = Vec::new();
            self.pos = 0;
            self.scanned = 0;
        }
        self.compact();
        result
    }

    fn decode_next(&mut self) -> Result<Option<Message>, WireError> {
        if self.state == ReaderState::Negotiating {
            self.negotiate()?;
        }
        match self.state {
            // Still too few bytes to pick a codec.
            ReaderState::Negotiating => Ok(None),
            ReaderState::Xml => self.next_xml(),
            ReaderState::Binary => self.next_binary(),
            ReaderState::Poisoned => Err(WireError::BadPreamble(0)),
        }
    }

    /// Resolve the codec from the stream's first bytes. Leaves the state
    /// `Negotiating` while more bytes are needed; an unknown preamble is a
    /// fatal error.
    fn negotiate(&mut self) -> Result<(), WireError> {
        let Some(&first) = self.buf.get(self.pos) else {
            return Ok(());
        };
        if first == b'<' {
            self.state = ReaderState::Xml;
            return Ok(());
        }
        if first == BIN_PREAMBLE[0] {
            if self.buffered() < BIN_PREAMBLE.len() {
                return Ok(());
            }
            if self.buf[self.pos..self.pos + BIN_PREAMBLE.len()] != BIN_PREAMBLE {
                return Err(WireError::BadPreamble(first));
            }
            self.pos += BIN_PREAMBLE.len();
            self.state = ReaderState::Binary;
            return Ok(());
        }
        Err(WireError::BadPreamble(first))
    }

    fn next_xml(&mut self) -> Result<Option<Message>, WireError> {
        // Resume the newline scan where the last call left off, so a
        // slow-trickling line costs O(line), not O(line²).
        let start = self.pos + self.scanned;
        match find_byte(&self.buf[start..], b'\n') {
            Some(i) => {
                let end = start + i;
                let line = &self.buf[self.pos..end];
                self.pos = end + 1;
                self.scanned = 0;
                if line.len() > self.max_frame {
                    return Err(WireError::FrameTooLarge {
                        limit: self.max_frame,
                        got: line.len(),
                    });
                }
                let text = std::str::from_utf8(line).map_err(|_| WireError::BadValue("xml"))?;
                Message::decode(text.trim_end_matches('\r'))
                    .map(Some)
                    .map_err(WireError::from)
            }
            None => {
                self.scanned = self.buf.len() - self.pos;
                if self.scanned > self.max_frame {
                    return Err(WireError::FrameTooLarge {
                        limit: self.max_frame,
                        got: self.scanned,
                    });
                }
                Ok(None)
            }
        }
    }

    fn next_binary(&mut self) -> Result<Option<Message>, WireError> {
        let mut prefix = Cursor {
            buf: &self.buf[self.pos..],
            pos: 0,
        };
        let Ok(len) = prefix.u32() else {
            return Ok(None); // the length prefix itself is incomplete
        };
        let len = len as usize;
        if len > self.max_frame {
            return Err(WireError::FrameTooLarge {
                limit: self.max_frame,
                got: len,
            });
        }
        if self.buffered() < 4 + len {
            return Ok(None);
        }
        let payload_at = self.pos + 4;
        let payload = &self.buf[payload_at..payload_at + len];
        let result = decode_binary_payload(payload);
        self.pos = payload_at + len;
        result.map(Some)
    }

    /// Drop the consumed prefix once it dominates the buffer, keeping
    /// amortized cost linear without shuffling bytes on every frame.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat() -> Message {
        let mut metrics = Metrics::new();
        metrics.set("loadAvg1", 0.97);
        metrics.set("nproc", 112.0);
        Message::Heartbeat {
            host: "ws2".to_string(),
            state: HostState::Busy,
            metrics,
            procs: vec![ProcReport {
                pid: 1234,
                app: "test_tree".to_string(),
                start_time_s: 280.0,
                est_exec_time_s: 600.0,
            }],
        }
    }

    #[test]
    fn binary_roundtrip() {
        let msg = heartbeat();
        let frame = encode_frame(&msg, WireCodecKind::Binary);
        let payload = &frame[4..];
        assert_eq!(
            u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize,
            payload.len()
        );
        assert_eq!(decode_binary_payload(payload).unwrap(), msg);
    }

    #[test]
    fn xml_frame_is_document_plus_newline() {
        let msg = heartbeat();
        let frame = encode_frame(&msg, WireCodecKind::Xml);
        let mut expect = msg.to_document().into_bytes();
        expect.push(b'\n');
        assert_eq!(frame, expect);
    }

    #[test]
    fn no_xml_frame_holds_an_inner_newline() {
        let messages = [
            Message::Ack {
                ok: false,
                info: "a\nb\r\nc\r".to_string(),
            },
            Message::ReRegister {
                host: "\n".to_string(),
            },
            Message::Heartbeat {
                host: "ws\n1".to_string(),
                state: HostState::Free,
                metrics: Metrics::new(),
                procs: vec![ProcReport {
                    pid: 1,
                    app: "x\ny".to_string(),
                    start_time_s: 0.0,
                    est_exec_time_s: 1.0,
                }],
            },
        ];
        let mut stream = Vec::new();
        for msg in &messages {
            let frame = encode_frame(msg, WireCodecKind::Xml);
            assert_eq!(
                frame.iter().position(|&b| b == b'\n'),
                Some(frame.len() - 1)
            );
            assert!(!frame.contains(&b'\r'));
            stream.extend(frame);
        }
        let mut r = FrameReader::for_codec(WireCodecKind::Xml, MAX_FRAME_BYTES);
        r.push(&stream);
        for msg in messages {
            assert_eq!(r.next_frame().unwrap(), Some(msg));
        }
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn reader_negotiates_xml_from_first_byte() {
        let mut r = FrameReader::negotiating(MAX_FRAME_BYTES);
        r.push(&encode_frame(&heartbeat(), WireCodecKind::Xml));
        assert_eq!(r.next_frame().unwrap(), Some(heartbeat()));
        assert_eq!(r.codec(), Some(WireCodecKind::Xml));
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn reader_negotiates_binary_from_preamble() {
        let mut r = FrameReader::negotiating(MAX_FRAME_BYTES);
        let mut bytes = BIN_PREAMBLE.to_vec();
        bytes.extend(encode_frame(&heartbeat(), WireCodecKind::Binary));
        r.push(&bytes);
        assert_eq!(r.next_frame().unwrap(), Some(heartbeat()));
        assert_eq!(r.codec(), Some(WireCodecKind::Binary));
    }

    #[test]
    fn reader_handles_byte_at_a_time_delivery() {
        for codec in [WireCodecKind::Xml, WireCodecKind::Binary] {
            let mut stream = match codec {
                WireCodecKind::Binary => BIN_PREAMBLE.to_vec(),
                WireCodecKind::Xml => Vec::new(),
            };
            stream.extend(encode_frame(&heartbeat(), codec));
            stream.extend(encode_frame(&Message::CandidateReply { dest: None }, codec));
            let mut r = FrameReader::negotiating(MAX_FRAME_BYTES);
            let mut got = Vec::new();
            for &b in &stream {
                r.push(&[b]);
                while let Some(m) = r.next_frame().unwrap() {
                    got.push(m);
                }
            }
            assert_eq!(
                got,
                vec![heartbeat(), Message::CandidateReply { dest: None }],
                "{codec}"
            );
        }
    }

    #[test]
    fn unknown_first_byte_is_a_fatal_negotiation_error() {
        let mut r = FrameReader::negotiating(MAX_FRAME_BYTES);
        r.push(b"GET / HTTP/1.1\r\n");
        let e = r.next_frame().unwrap_err();
        assert!(e.is_fatal(), "{e}");
        assert!(matches!(e, WireError::BadPreamble(b'G')));
    }

    #[test]
    fn oversized_xml_line_is_rejected_without_unbounded_buffering() {
        let mut r = FrameReader::negotiating(256);
        // A "peer" that streams an endless unterminated line: the reader
        // must reject it as soon as the cap is crossed, not buffer on.
        r.push(&vec![b'<'; 300]);
        let e = r.next_frame().unwrap_err();
        assert!(matches!(e, WireError::FrameTooLarge { limit: 256, .. }));
        assert!(e.is_fatal());
    }

    #[test]
    fn oversized_binary_length_prefix_is_rejected_before_buffering() {
        let mut r = FrameReader::for_codec(WireCodecKind::Binary, 1024);
        r.push(&u32::MAX.to_le_bytes());
        let e = r.next_frame().unwrap_err();
        assert!(matches!(e, WireError::FrameTooLarge { limit: 1024, .. }));
        assert!(e.is_fatal());
    }

    #[test]
    fn bad_xml_content_is_recoverable_and_consumes_the_frame() {
        let mut r = FrameReader::negotiating(MAX_FRAME_BYTES);
        r.push(b"<garbage/>\n");
        r.push(&encode_frame(&heartbeat(), WireCodecKind::Xml));
        let e = r.next_frame().unwrap_err();
        assert!(!e.is_fatal(), "{e}");
        assert_eq!(r.next_frame().unwrap(), Some(heartbeat()));
    }

    #[test]
    fn bad_binary_content_is_recoverable_and_consumes_the_frame() {
        let mut r = FrameReader::for_codec(WireCodecKind::Binary, MAX_FRAME_BYTES);
        let mut frame = vec![2, 0, 0, 0]; // len = 2
        frame.extend_from_slice(&[0xFF, 0x00]); // unknown type tag
        r.push(&frame);
        r.push(&encode_frame(&heartbeat(), WireCodecKind::Binary));
        let e = r.next_frame().unwrap_err();
        assert!(matches!(e, WireError::UnknownType(0xFF)));
        assert!(!e.is_fatal());
        assert_eq!(r.next_frame().unwrap(), Some(heartbeat()));
    }

    #[test]
    fn truncated_and_trailing_binary_payloads_error_cleanly() {
        let full = encode_frame(&heartbeat(), WireCodecKind::Binary);
        let payload = &full[4..];
        for cut in 0..payload.len() {
            assert!(
                decode_binary_payload(&payload[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
        let mut padded = payload.to_vec();
        padded.push(0);
        assert!(matches!(
            decode_binary_payload(&padded),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn compaction_keeps_the_buffer_bounded() {
        let mut r = FrameReader::negotiating(MAX_FRAME_BYTES);
        let frame = encode_frame(&Message::CandidateReply { dest: None }, WireCodecKind::Xml);
        for _ in 0..10_000 {
            r.push(&frame);
            assert!(r.next_frame().unwrap().is_some());
        }
        assert!(
            r.buf.len() < 4 * frame.len() + 8192,
            "buffer grew to {} bytes",
            r.buf.len()
        );
    }
}
