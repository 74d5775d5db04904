//! Live mode: the rescheduler protocol over real TCP sockets.
//!
//! The paper's communication subsystem is "a custom XML based protocol with
//! TCP/IP sockets". The simulated entities exchange exactly those XML
//! documents as message payloads; this module runs the same protocol over
//! real localhost sockets — a registry/scheduler server plus client-side
//! helpers — demonstrating that the wire format *and the scheduler itself*
//! are transport independent: the server is the same sans-I/O
//! [`RegistryCore`] the simulation drives, fed from socket reads and
//! replayed onto socket writes. That gives the live path everything the
//! simulated registry has — schema resource requirements, rule-policy
//! destination conditions, the missed-heartbeat failure detector, command
//! retransmits — none of which the old socket-local table implemented.
//!
//! ## Transport architecture
//!
//! The server is a **single-threaded non-blocking readiness reactor**, not
//! a thread per connection: one thread owns the listener and every
//! connection (each with its own read/write buffers and a partial-frame
//! [`FrameReader`]), and each tick accepts new peers, drains readable
//! sockets, feeds the decoded batch through the shared [`RegistryCore`]
//! under one lock acquisition, then flushes encoded replies. That is what
//! lets one registry hold thousands of concurrent monitor connections —
//! the thread-per-connection design topped out on stack memory and context
//! switches long before the scheduler core was the bottleneck.
//!
//! ## Framing and codecs
//!
//! Two codecs share the same message model ([`WireCodecKind`]): the
//! paper-faithful newline-framed single-line XML documents (the default —
//! byte-identical to the historical wire format) and a length-prefixed
//! binary codec. The codec is negotiated per connection from the first
//! bytes the client sends (`<` → XML, [`ars_xmlwire::BIN_PREAMBLE`] →
//! binary); the server answers in kind, so old XML peers interoperate with
//! binary ones on the same port with no configuration.

use crate::hooks::{DecisionRecord, ReschedLog, SchemaBook};
use crate::regcore::{
    CoreEffect, CoreInput, Endpoint, LogEffect, RegistryConfig, RegistryCore, TimerId,
};
use ars_obs::{Obs, ObsEvent};
use ars_rules::Policy;
use ars_simcore::SimTime;
use ars_xmlwire::wire::{
    encode_frame_into, FrameReader, WireCodecKind, WireError, MAX_FRAME_BYTES,
};
use ars_xmlwire::{Message, BIN_PREAMBLE};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default deadline for connecting to and calling a live registry. A dead
/// registry process must surface as an error, not a hung monitor.
pub const LIVE_CALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Tuning knobs for the live transport (server side).
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Largest accepted frame (XML line or binary payload), in bytes.
    /// A peer whose frame crosses this cap is disconnected with a
    /// [`WireError::FrameTooLarge`] rather than buffered without bound.
    pub max_frame: usize,
    /// Backpressure bound: a connection whose *outbound* buffer exceeds
    /// this many bytes (a peer that stopped reading) is dropped. The
    /// protocol is soft-state — a re-registering peer recovers — so
    /// shedding a stuck peer beats letting it pin server memory.
    pub max_write_buffer: usize,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            max_frame: MAX_FRAME_BYTES,
            max_write_buffer: 4 * 1024 * 1024,
        }
    }
}

/// What went wrong talking to a live registry.
#[derive(Debug)]
pub enum LiveError {
    /// Could not connect, or the connection broke mid-call.
    Io(std::io::Error),
    /// The registry did not answer within the call deadline.
    Timeout(Duration),
    /// The registry closed the connection (clean EOF mid-call).
    Closed,
    /// The reply was not a decodable protocol frame.
    Protocol(String),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Io(e) => write!(f, "registry i/o error: {e}"),
            LiveError::Timeout(d) => {
                write!(f, "registry did not reply within {:.1}s", d.as_secs_f64())
            }
            LiveError::Closed => write!(f, "registry closed the connection"),
            LiveError::Protocol(e) => write!(f, "undecodable registry reply: {e}"),
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LiveError {
    fn from(e: std::io::Error) -> Self {
        LiveError::Io(e)
    }
}

/// Everything the reactor shares with [`LiveRegistry::inspect`]: the
/// scheduler core, its decision log, and the armed retransmit timers.
/// Socket state (buffers, frame readers) is owned exclusively by the
/// reactor thread and never sits behind this lock.
struct LiveShared {
    core: RegistryCore,
    log: ReschedLog,
    timers: Vec<(Instant, TimerId)>,
}

/// Lock the shared state, recovering from poisoning. An inspector that
/// panics mid-closure leaves the mutex poisoned; one bad observer must not
/// brick the registry. The core is a soft-state cache refreshed by
/// heartbeats, so the worst a recovered lock can expose is a stale entry —
/// not corruption.
fn lock_shared(shared: &Mutex<LiveShared>) -> MutexGuard<'_, LiveShared> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handle to a running live registry server.
pub struct LiveRegistry {
    addr: SocketAddr,
    shared: Arc<Mutex<LiveShared>>,
    epoch: Instant,
    stop: Arc<AtomicBool>,
    reactor_thread: Option<std::thread::JoinHandle<()>>,
}

impl LiveRegistry {
    /// Start a registry server on `127.0.0.1:0` (ephemeral port) with a
    /// permissive default configuration: no destination conditions and no
    /// resource floors, i.e. any free, alive, non-source host qualifies.
    /// Use [`start_with`](Self::start_with) to schedule against a real
    /// policy and schema book.
    pub fn start() -> std::io::Result<LiveRegistry> {
        let mut cfg = RegistryConfig::new(Policy::no_migration());
        cfg.name = "live".to_string();
        Self::start_with(cfg, SchemaBook::new())
    }

    /// Start a registry server with an explicit configuration and schema
    /// book — the same [`RegistryConfig`] the simulated registry takes, so
    /// rule-policy destination conditions, resource requirements, leases
    /// and retransmit tuning all apply to live scheduling.
    pub fn start_with(cfg: RegistryConfig, schemas: SchemaBook) -> std::io::Result<LiveRegistry> {
        Self::start_with_options(cfg, schemas, LiveOptions::default())
    }

    /// [`start_with`](Self::start_with), plus explicit transport tuning
    /// (frame cap, write-buffer backpressure bound).
    pub fn start_with_options(
        cfg: RegistryConfig,
        schemas: SchemaBook,
        options: LiveOptions,
    ) -> std::io::Result<LiveRegistry> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let obs = cfg.obs.clone();
        let shared = Arc::new(Mutex::new(LiveShared {
            core: RegistryCore::new(cfg, schemas),
            log: ReschedLog::default(),
            timers: Vec::new(),
        }));
        let epoch = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let t_shared = shared.clone();
        let t_stop = stop.clone();
        let reactor_thread = std::thread::spawn(move || {
            Reactor {
                listener,
                shared: t_shared,
                stop: t_stop,
                epoch,
                obs,
                options,
                conns: HashMap::new(),
                next_conn: 1,
                outbound: Vec::new(),
            }
            .run()
        });
        Ok(LiveRegistry {
            addr,
            shared,
            epoch,
            stop,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry's clock: seconds since the server started, as the
    /// `SimTime` the core is being fed.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.epoch.elapsed().as_secs_f64())
    }

    /// Run a read-only closure against the scheduler core and its decision
    /// log (tests/diagnostics). Takes the shared lock for the duration.
    pub fn inspect<R>(&self, f: impl FnOnce(&RegistryCore, &ReschedLog) -> R) -> R {
        let shared = lock_shared(&self.shared);
        f(&shared.core, &shared.log)
    }

    /// Snapshot of the decision log.
    pub fn log(&self) -> ReschedLog {
        self.inspect(|_, log| log.clone())
    }

    /// Stop accepting and wind down (open client connections observe EOF).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for LiveRegistry {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
    }
}

/// The core's clock input: wall seconds since the server's epoch.
fn now_since(epoch: Instant) -> SimTime {
    SimTime::from_secs_f64(epoch.elapsed().as_secs_f64())
}

fn apply_log(log: &mut ReschedLog, effect: LogEffect) {
    match effect {
        LogEffect::Decision(record) => log.decisions.push(record),
        LogEffect::CommandSent => log.commands_sent += 1,
        LogEffect::CommandRetransmit => log.command_retransmits += 1,
        LogEffect::CommandAborted => log.commands_aborted += 1,
    }
}

/// Replay core effects, collecting outbound messages into `out` (the
/// reactor encodes and writes them after the lock is released).
/// [`CoreEffect::StartDecision`] has no CPU to charge here, so due
/// decisions are fed straight back until the core goes quiet.
/// `candidate_ctx` carries the (connection, source host) of an in-flight
/// [`Message::CandidateRequest`], so the reply the core sends it is also
/// recorded in the decision log — mirroring what the DES driver's
/// requesting registry would log on its side.
fn pump(
    shared: &mut LiveShared,
    now: SimTime,
    effects: &mut Vec<CoreEffect>,
    candidate_ctx: Option<(u64, &str)>,
    out: &mut Vec<(u64, Message)>,
) {
    loop {
        let mut due = Vec::new();
        for effect in effects.drain(..) {
            match effect {
                CoreEffect::Send { to, msg } => {
                    if let (Some((conn, source)), Message::CandidateReply { dest }) =
                        (candidate_ctx, &msg)
                    {
                        if conn == to.0 {
                            shared.log.decisions.push(DecisionRecord {
                                at: now,
                                source: source.to_string(),
                                dest: dest.clone(),
                                pid: None,
                                escalated: false,
                            });
                        }
                    }
                    out.push((to.0, msg));
                }
                CoreEffect::StartDecision { source, .. } => due.push(source),
                CoreEffect::ArmTimer { timer, after } => {
                    let deadline = Instant::now() + Duration::from_secs_f64(after.as_secs_f64());
                    shared.timers.push((deadline, timer));
                }
                CoreEffect::Trace { .. } => {}
                CoreEffect::Log(log) => apply_log(&mut shared.log, log),
            }
        }
        if due.is_empty() {
            return;
        }
        for source in due {
            let mut fx = Vec::new();
            shared
                .core
                .handle(now, CoreInput::DecisionDue { source }, &mut fx);
            effects.extend(fx);
        }
    }
}

/// One live connection owned by the reactor: the non-blocking stream, its
/// incremental frame decoder, and the pending outbound bytes.
struct Conn {
    stream: TcpStream,
    frames: FrameReader,
    /// Set once negotiation resolves (used to encode replies in kind and
    /// to emit the `WireCodecNegotiated` event exactly once).
    codec: Option<WireCodecKind>,
    /// Encoded-but-unwritten reply bytes; `out_pos` is the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// Peer is done (EOF/error/protocol violation); reap after the tick.
    dead: bool,
}

impl Conn {
    fn queue(&mut self, msg: &Message, options: &LiveOptions) {
        // A connection that never completed negotiation can still be
        // addressed by the core (it cannot: endpoints only exist after a
        // decoded message) — default to the paper codec defensively.
        let codec = self.codec.unwrap_or(WireCodecKind::Xml);
        encode_frame_into(msg, codec, &mut self.out);
        if self.out.len() - self.out_pos > options.max_write_buffer {
            // Backpressure rule: a peer that stopped reading does not get
            // to pin unbounded server memory. Soft state recovers it.
            self.dead = true;
        }
    }

    /// Flush pending bytes; returns true if any progress was made.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 && self.out_pos * 2 >= self.out.len() {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        progressed
    }
}

/// The single-threaded readiness reactor behind [`LiveRegistry`].
struct Reactor {
    listener: TcpListener,
    shared: Arc<Mutex<LiveShared>>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    obs: Obs,
    options: LiveOptions,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Scratch list of (connection, message) produced under the shared
    /// lock each tick, encoded into per-connection buffers after.
    outbound: Vec<(u64, Message)>,
}

/// Idle ticks at the short nap before the reactor backs off to the long
/// one (~16 ms of confirmed quiet).
const IDLE_TICKS_TO_BACKOFF: u32 = 16;
/// Nap while recently active: keeps reaction latency ~1 ms under load
/// gaps.
const IDLE_NAP_SHORT: Duration = Duration::from_millis(1);
/// Nap once confirmed idle: a parked registry costs ~100 wakeups/s
/// instead of ~1000. Any traffic resets to the short nap immediately
/// (the tick that read it doesn't sleep at all).
const IDLE_NAP_LONG: Duration = Duration::from_millis(10);

impl Reactor {
    fn run(mut self) {
        let mut rbuf = vec![0u8; 64 * 1024];
        let mut idle_ticks: u32 = 0;
        while !self.stop.load(Ordering::Relaxed) {
            let mut progressed = false;
            progressed |= self.accept_new();
            self.fire_due_timers();
            progressed |= self.drain_readable(&mut rbuf);
            self.flush_and_reap();
            if !self.outbound.is_empty() {
                progressed = true;
            }
            if progressed {
                idle_ticks = 0;
            } else {
                // Idle tick: nothing accepted, read or written. Nap
                // instead of spinning the scan loop at 100% CPU; after a
                // stretch of confirmed-idle ticks, back off to the long
                // nap so a quiet registry barely wakes at all.
                idle_ticks = idle_ticks.saturating_add(1);
                std::thread::sleep(if idle_ticks >= IDLE_TICKS_TO_BACKOFF {
                    IDLE_NAP_LONG
                } else {
                    IDLE_NAP_SHORT
                });
            }
        }
    }

    /// Accept every pending connection (the listener is non-blocking).
    fn accept_new(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    any = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let conn = self.next_conn;
                    self.next_conn += 1;
                    self.obs.inc("live_connections");
                    self.conns.insert(
                        conn,
                        Conn {
                            stream,
                            frames: FrameReader::negotiating(self.options.max_frame),
                            codec: None,
                            out: Vec::new(),
                            out_pos: 0,
                            dead: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        any
    }

    /// Fire retransmit timers whose deadline has passed.
    fn fire_due_timers(&mut self) {
        let mut s = lock_shared(&self.shared);
        if s.timers.is_empty() {
            return;
        }
        let wall = Instant::now();
        let mut fired = Vec::new();
        s.timers.retain(|&(deadline, timer)| {
            if deadline <= wall {
                fired.push(timer);
                false
            } else {
                true
            }
        });
        let now = now_since(self.epoch);
        for timer in fired {
            let mut fx = Vec::new();
            s.core.handle(now, CoreInput::TimerFired(timer), &mut fx);
            pump(&mut s, now, &mut fx, None, &mut self.outbound);
        }
        drop(s);
        self.route_outbound();
    }

    /// Read every readable socket, decode complete frames, and feed the
    /// decoded batch through the core. Returns true if any bytes moved.
    /// A connection is read until a `read` returns fewer bytes than the
    /// buffer holds (one `read` per heartbeat-sized arrival), or would
    /// block.
    fn drain_readable(&mut self, rbuf: &mut [u8]) -> bool {
        let mut any = false;
        // Decoded batch for this tick: (conn, decode result). Processing
        // is deferred so the shared lock is taken once per tick, not once
        // per message — that batching is what keeps 10k heartbeating
        // connections from serializing on the mutex.
        let mut batch: Vec<(u64, Result<Message, WireError>)> = Vec::new();
        let timing = self.obs.is_enabled();
        for (&conn, c) in self.conns.iter_mut() {
            if c.dead {
                continue;
            }
            loop {
                match c.stream.read(rbuf) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => {
                        any = true;
                        c.frames.push(&rbuf[..n]);
                        let had_codec = c.codec.is_some();
                        loop {
                            let t0 = timing.then(Instant::now);
                            match c.frames.next_frame() {
                                Ok(Some(msg)) => {
                                    if let Some(t0) = t0 {
                                        self.obs
                                            .observe("wire_decode_s", t0.elapsed().as_secs_f64());
                                    }
                                    batch.push((conn, Ok(msg)));
                                }
                                Ok(None) => break,
                                Err(e) => {
                                    batch.push((conn, Err(e.clone())));
                                    if e.is_fatal() {
                                        c.dead = true;
                                    }
                                    if c.dead {
                                        break;
                                    }
                                }
                            }
                        }
                        if !had_codec {
                            if let Some(codec) = c.frames.codec() {
                                c.codec = Some(codec);
                                let t = now_since(self.epoch);
                                self.obs.record(t, || ObsEvent::WireCodecNegotiated {
                                    conn,
                                    codec: codec.name().to_string(),
                                });
                            }
                        }
                        // A short read drained the socket: another `read`
                        // would only return `WouldBlock`. Whatever arrives
                        // meanwhile is read on the next tick.
                        if n < rbuf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
                if c.dead {
                    break;
                }
            }
        }
        if !batch.is_empty() {
            self.process_batch(batch);
        }
        any
    }

    /// Feed one tick's decoded messages through the core under a single
    /// lock acquisition, collecting replies into `self.outbound`.
    fn process_batch(&mut self, batch: Vec<(u64, Result<Message, WireError>)>) {
        let out = &mut self.outbound;
        let mut s = lock_shared(&self.shared);
        for (conn, decoded) in batch {
            let now = now_since(self.epoch);
            let msg = match decoded {
                Ok(m) => m,
                Err(e) if !e.is_fatal() => {
                    // The frame was consumed; tell the peer and move on —
                    // same contract the blocking XML server had for an
                    // undecodable line.
                    out.push((
                        conn,
                        Message::Ack {
                            ok: false,
                            info: "undecodable message".to_string(),
                        },
                    ));
                    continue;
                }
                Err(_) => continue, // fatal: connection is already marked dead
            };
            let mut fx = Vec::new();
            match msg {
                Message::Register { host, role } => {
                    let name = host.name.clone();
                    s.core.handle(
                        now,
                        CoreInput::Message {
                            from: Endpoint(conn),
                            msg: Message::Register { host, role },
                        },
                        &mut fx,
                    );
                    pump(&mut s, now, &mut fx, None, out);
                    out.push((
                        conn,
                        Message::Ack {
                            ok: true,
                            info: format!("registered {name}"),
                        },
                    ));
                }
                Message::Heartbeat { .. } => {
                    let host = match &msg {
                        Message::Heartbeat { host, .. } => host.clone(),
                        _ => unreachable!("matched above"),
                    };
                    let known = s.core.knows_host(&host);
                    s.core.handle(
                        now,
                        CoreInput::Message {
                            from: Endpoint(conn),
                            msg,
                        },
                        &mut fx,
                    );
                    // Ack first: the heartbeat's caller reads exactly one
                    // reply. Anything the core pushes — a MigrationCommand
                    // to a commander connection, a ReRegister nudge to this
                    // one — follows on the respective streams afterwards.
                    out.push((
                        conn,
                        Message::Ack {
                            ok: known,
                            info: if known {
                                String::new()
                            } else {
                                format!("{host} is not registered")
                            },
                        },
                    ));
                    pump(&mut s, now, &mut fx, None, out);
                }
                Message::CandidateRequest { .. } => {
                    let source = match &msg {
                        Message::CandidateRequest { host, .. } => host.clone(),
                        _ => unreachable!("matched above"),
                    };
                    s.core.handle(
                        now,
                        CoreInput::Message {
                            from: Endpoint(conn),
                            msg,
                        },
                        &mut fx,
                    );
                    // The reply is the CandidateReply the core sends back
                    // to this connection — no transport-level ack.
                    pump(&mut s, now, &mut fx, Some((conn, source.as_str())), out);
                }
                Message::CommandAck { .. }
                | Message::MigrationComplete { .. }
                | Message::CandidateReply { .. }
                | Message::DomainReport { .. } => {
                    // Fire-and-forget inputs: feed the core, reply nothing.
                    s.core.handle(
                        now,
                        CoreInput::Message {
                            from: Endpoint(conn),
                            msg,
                        },
                        &mut fx,
                    );
                    pump(&mut s, now, &mut fx, None, out);
                }
                other => {
                    out.push((
                        conn,
                        Message::Ack {
                            ok: false,
                            info: format!("unexpected {}", other.type_tag()),
                        },
                    ));
                }
            }
        }
        drop(s);
        self.route_outbound();
    }

    /// Encode collected outbound messages into their connections' write
    /// buffers (messages to already-gone peers are dropped silently, as
    /// the blocking server did).
    fn route_outbound(&mut self) {
        for (conn, msg) in self.outbound.drain(..) {
            if let Some(c) = self.conns.get_mut(&conn) {
                c.queue(&msg, &self.options);
            }
        }
    }

    /// Flush every connection's pending bytes and reap dead connections
    /// (a dying connection still gets one final flush so a protocol-error
    /// ack has a chance to reach the peer before the close).
    fn flush_and_reap(&mut self) {
        let mut reaped = 0u64;
        self.conns.retain(|_, c| {
            c.flush();
            if c.dead {
                reaped += 1;
                false
            } else {
                true
            }
        });
        if reaped > 0 {
            self.obs.add("live_disconnects", reaped);
        }
    }
}

/// A live client connection to the registry (monitor side).
///
/// Every operation is bounded by a deadline: a registry process that dies
/// mid-call makes [`call`](LiveClient::call) return [`LiveError`] rather
/// than blocking the monitor forever. The client speaks either codec —
/// [`connect`](LiveClient::connect) keeps the paper-faithful XML default;
/// [`connect_binary`](LiveClient::connect_binary) opens the stream with
/// the binary preamble and frames everything after in binary.
pub struct LiveClient {
    stream: TcpStream,
    frames: FrameReader,
    codec: WireCodecKind,
    scratch: Vec<u8>,
    timeout: Duration,
    writes: u64,
}

impl LiveClient {
    /// Connect to a live registry with the default deadline
    /// ([`LIVE_CALL_TIMEOUT`]) for both the connect and each call, using
    /// the XML codec.
    pub fn connect(addr: SocketAddr) -> Result<LiveClient, LiveError> {
        Self::connect_with_timeout(addr, LIVE_CALL_TIMEOUT)
    }

    /// Connect with the binary codec and the default deadline.
    pub fn connect_binary(addr: SocketAddr) -> Result<LiveClient, LiveError> {
        Self::connect_with(addr, WireCodecKind::Binary, LIVE_CALL_TIMEOUT)
    }

    /// Connect with an explicit deadline applied to the connect itself and
    /// to every subsequent [`call`](LiveClient::call), using the XML codec.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<LiveClient, LiveError> {
        Self::connect_with(addr, WireCodecKind::Xml, timeout)
    }

    /// Connect with an explicit codec and deadline. A binary connection
    /// announces itself by writing [`BIN_PREAMBLE`] before its first
    /// frame; an XML connection writes nothing extra (its first `<` is the
    /// negotiation).
    pub fn connect_with(
        addr: SocketAddr,
        codec: WireCodecKind,
        timeout: Duration,
    ) -> Result<LiveClient, LiveError> {
        let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true).ok();
        if codec == WireCodecKind::Binary {
            stream.write_all(&BIN_PREAMBLE)?;
        }
        Ok(LiveClient {
            stream,
            frames: FrameReader::for_codec(codec, MAX_FRAME_BYTES),
            codec,
            scratch: Vec::new(),
            timeout,
            writes: 0,
        })
    }

    /// The codec this connection negotiated at connect time.
    pub fn codec(&self) -> WireCodecKind {
        self.codec
    }

    /// Change the per-call deadline.
    pub fn set_call_timeout(&mut self, timeout: Duration) -> Result<(), LiveError> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.set_write_timeout(Some(timeout))?;
        self.timeout = timeout;
        Ok(())
    }

    /// Send a message without waiting for a reply (commander-style
    /// fire-and-forget, e.g. [`Message::CommandAck`]).
    pub fn send(&mut self, msg: &Message) -> Result<(), LiveError> {
        self.scratch.clear();
        encode_frame_into(msg, self.codec, &mut self.scratch);
        self.write_scratch()
    }

    /// Send many messages as **one** stream write: every frame is encoded
    /// into the scratch buffer first, then a single `write_all` carries the
    /// burst. A monitor batching its heartbeat with pending reports pays
    /// one syscall (and, with Nagle off, typically one segment) instead of
    /// one per message. Replies still arrive one per request message —
    /// callers that batched `n` ack-carrying requests read `n` replies.
    pub fn send_batch(&mut self, msgs: &[Message]) -> Result<(), LiveError> {
        if msgs.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        for msg in msgs {
            encode_frame_into(msg, self.codec, &mut self.scratch);
        }
        self.write_scratch()
    }

    /// Stream writes this client has issued (one per [`send`](Self::send)
    /// or [`send_batch`](Self::send_batch) — diagnostics for tests that
    /// assert batching actually coalesces syscalls).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    fn write_scratch(&mut self) -> Result<(), LiveError> {
        let scratch = std::mem::take(&mut self.scratch);
        let result = self
            .stream
            .write_all(&scratch)
            .map_err(|e| self.classify(e));
        self.scratch = scratch;
        self.writes += 1;
        result
    }

    /// Read the next message the registry pushed to this connection (e.g.
    /// a [`Message::MigrationCommand`] addressed to a commander).
    pub fn recv(&mut self) -> Result<Message, LiveError> {
        let mut rbuf = [0u8; 8 * 1024];
        loop {
            match self.frames.next_frame() {
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => {}
                Err(e) => return Err(LiveError::Protocol(e.to_string())),
            }
            match self.stream.read(&mut rbuf) {
                Ok(0) => return Err(LiveError::Closed),
                Ok(n) => self.frames.push(&rbuf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(self.classify(e)),
            }
        }
    }

    /// Send a message and read the reply. Returns
    /// [`LiveError::Timeout`] when the registry goes silent past the
    /// deadline and [`LiveError::Closed`] when it hangs up.
    pub fn call(&mut self, msg: &Message) -> Result<Message, LiveError> {
        self.send(msg)?;
        self.recv()
    }

    fn classify(&self, e: std::io::Error) -> LiveError {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            LiveError::Timeout(self.timeout)
        } else {
            LiveError::Io(e)
        }
    }
}
