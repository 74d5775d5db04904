//! The three live workloads: a real [`LiveRegistry`] on loopback, loaded
//! from this process by one generator thread (the caller's) next to the
//! registry's one reactor thread.
//!
//! * `live_sat_bin` / `live_sat_xml` — **closed loop**: every connection
//!   keeps exactly one heartbeat in flight, so the registry is saturated
//!   and the result is its capacity (heartbeat round trips per second).
//! * `live_paced` — **open loop**: heartbeats are *due* on a fixed
//!   schedule whatever the registry does; latency is timed from the due
//!   time, so a stall charges every heartbeat it delays.
//!
//! The generator has no readiness API (std only, no `libc`), so it polls:
//! the closed loop sweeps all connections, the open loop polls only the
//! connections that have a heartbeat outstanding.

use crate::span::Spans;
use crate::stats;
use ars_obs::Obs;
use ars_rescheduler::live::LiveRegistry;
use ars_rescheduler::{RegistryConfig, SchemaBook};
use ars_rules::Policy;
use ars_xmlwire::wire::{encode_frame, FrameReader, WireCodecKind, MAX_FRAME_BYTES};
use ars_xmlwire::{EntityRole, HostState, HostStatic, Message, Metrics, BIN_PREAMBLE};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Which live workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SatBin,
    SatXml,
    Paced,
}

impl Kind {
    pub fn codec(self) -> WireCodecKind {
        match self {
            Kind::SatXml => WireCodecKind::Xml,
            Kind::SatBin | Kind::Paced => WireCodecKind::Binary,
        }
    }
}

/// Frozen sizes of the live workloads.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub conns: usize,
    /// Times the set-up (registry start + connect + register) is repeated;
    /// `setup_s` is the median, the last one is measured on.
    pub setups: usize,
    /// Discarded warm-up before the measured span, seconds.
    pub warmup_s: f64,
    /// Measured windows of the closed loop.
    pub windows: usize,
    /// Open-loop rate of `live_paced`, heartbeats per second over all
    /// connections (≈ 12 % of the binary capacity measured while sizing).
    pub paced_rate: f64,
}

impl Sizes {
    pub fn new(quick: bool) -> Sizes {
        Sizes {
            conns: if quick { 200 } else { 1_000 },
            setups: if quick { 1 } else { 5 },
            warmup_s: if quick { 0.3 } else { 1.0 },
            windows: if quick { 1 } else { 5 },
            paced_rate: 20_000.0,
        }
    }
}

/// An ack later than this counts as failed (and ends the wait for it).
const ACK_DEADLINE: Duration = Duration::from_secs(1);
/// The generator itself must send within this of the due time at p99 …
/// (on a 2-core box its p99 is ~20 µs, but one run in six shows ~0.8 ms when
/// the scheduler preempts it; the median latency does not move with that).
const GEN_LATE_LIMIT_S: f64 = 5e-3;
/// … and must send at least this share of the due heartbeats.
const GEN_SENT_MIN_FRAC: f64 = 0.99;
/// Heartbeats sent per generator iteration before acks are polled again:
/// a generator that fell behind catches up interleaved with reading, not
/// in one burst.
const SEND_BATCH: usize = 8;

fn host_name(i: usize) -> String {
    format!("h{i:05}")
}

fn register_msg(i: usize) -> Message {
    Message::Register {
        host: HostStatic {
            name: host_name(i),
            ip: "127.0.0.1".to_string(),
            os: "linux".to_string(),
            cpu_speed: 1.0,
            n_cpus: 1,
            mem_kb: 131_072,
        },
        role: EntityRole::Monitor,
    }
}

/// The heartbeat of a free workstation, the way `LiveClient` users build
/// it. The seed picks each host's metric values (splitmix64), so the bytes
/// on the wire differ from seed to seed and repeat for a seed.
fn heartbeat_msg(i: usize, seed: u64) -> Message {
    let mut x = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let mut metrics = Metrics::new();
    metrics.set("loadAvg1", (x % 90) as f64 / 100.0);
    metrics.set("nproc", 5.0 + ((x >> 8) % 60) as f64);
    metrics.set("memAvail", 20.0 + ((x >> 16) % 70) as f64);
    metrics.set("diskAvailKb", 1_000_000.0 + ((x >> 24) % 4_000_000) as f64);
    Message::Heartbeat {
        host: host_name(i),
        state: HostState::Free,
        metrics,
        procs: vec![],
    }
}

/// Generator-side connection.
struct Conn {
    stream: TcpStream,
    frames: FrameReader,
    /// This connection's heartbeat, encoded once.
    hb_frame: Vec<u8>,
    /// Bytes of outbound frames the socket did not take yet.
    backlog: Vec<u8>,
    /// Heartbeats sent and not yet acknowledged, oldest first (the global
    /// sequence number in the open loop; unused in the closed loop).
    pending: VecDeque<u64>,
    inflight: bool,
    dropped: bool,
}

/// Replies drained from one connection.
#[derive(Default, Clone, Copy)]
struct Drained {
    acks: u64,
    nacks: u64,
}

impl Conn {
    /// Queue `bytes` and write as much as the socket takes.
    fn send(&mut self, bytes: &[u8]) {
        if self.backlog.is_empty() {
            match self.stream.write(bytes) {
                Ok(n) if n == bytes.len() => {}
                Ok(n) => self.backlog.extend_from_slice(&bytes[n..]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    self.backlog.extend_from_slice(bytes);
                }
                Err(_) => self.dropped = true,
            }
        } else {
            self.backlog.extend_from_slice(bytes);
            self.flush();
        }
    }

    fn send_heartbeat(&mut self) {
        let frame = std::mem::take(&mut self.hb_frame);
        self.send(&frame);
        self.hb_frame = frame;
    }

    fn flush(&mut self) {
        while !self.backlog.is_empty() {
            match self.stream.write(&self.backlog) {
                Ok(0) => {
                    self.dropped = true;
                    return;
                }
                Ok(n) => {
                    self.backlog.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dropped = true;
                    return;
                }
            }
        }
    }

    /// Read whatever arrived and decode it. Every reply on these
    /// connections is an `Ack`; `ok == false` is a NACK.
    fn drain(&mut self, rbuf: &mut [u8]) -> Drained {
        let mut got = Drained::default();
        loop {
            match self.stream.read(rbuf) {
                Ok(0) => {
                    self.dropped = true;
                    return got;
                }
                Ok(n) => {
                    self.frames.push(&rbuf[..n]);
                    loop {
                        match self.frames.next_frame() {
                            Ok(Some(Message::Ack { ok: true, .. })) => got.acks += 1,
                            Ok(Some(_)) => got.nacks += 1,
                            Ok(None) => break,
                            Err(_) => {
                                self.dropped = true;
                                return got;
                            }
                        }
                    }
                    if n < rbuf.len() {
                        return got;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return got,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dropped = true;
                    return got;
                }
            }
        }
    }
}

/// A started registry with its registered connections.
struct Rig {
    registry: LiveRegistry,
    conns: Vec<Conn>,
    rbuf: Vec<u8>,
}

/// Host times of the set-up steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub start_s: f64,
    pub connect_s: f64,
    pub register_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.start_s + self.connect_s + self.register_s
    }
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Connections brought up per step of the staged set-up. The registry's
/// listener has a 128-entry accept queue and its reactor naps when idle: a
/// thousand back-to-back connects can overflow the queue, and every
/// overflowed handshake then costs a one-second SYN-ACK retransmit. Waiting
/// for each batch's registration acks keeps the queue short.
const BRING_UP_BATCH: usize = 100;

/// Start a registry and bring up `conns` monitors in `codec`, a batch at a
/// time: connect, send `Register`, wait for the batch's acks.
fn setup(
    codec: WireCodecKind,
    conns: usize,
    seed: u64,
    obs: &Obs,
    spans: &mut Spans,
) -> Result<(Rig, SetupTimes), String> {
    let (registry, start_s) = spans.time("registry_start", |_| {
        let mut cfg = RegistryConfig::new(Policy::no_migration());
        cfg.name = "live".to_string();
        cfg.obs = obs.clone();
        LiveRegistry::start_with(cfg, SchemaBook::new())
    });
    let registry = registry.map_err(|e| io_err("registry start", e))?;
    let addr = registry.addr();
    let mut pool: Vec<Conn> = Vec::with_capacity(conns);
    let mut rbuf = vec![0u8; 16 * 1024];
    let (mut connect_s, mut register_s) = (0.0, 0.0);

    while pool.len() < conns {
        let first = pool.len();
        let batch = BRING_UP_BATCH.min(conns - first);
        let (connected, secs) = spans.time("connect", |_| -> Result<(), String> {
            for i in first..first + batch {
                let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
                    .map_err(|e| io_err("connect", e))?;
                stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
                if codec == WireCodecKind::Binary {
                    stream
                        .write_all(&BIN_PREAMBLE)
                        .map_err(|e| io_err("preamble", e))?;
                }
                stream
                    .set_nonblocking(true)
                    .map_err(|e| io_err("nonblocking", e))?;
                pool.push(Conn {
                    stream,
                    frames: FrameReader::for_codec(codec, MAX_FRAME_BYTES),
                    hb_frame: encode_frame(&heartbeat_msg(i, seed), codec),
                    backlog: Vec::new(),
                    pending: VecDeque::new(),
                    inflight: false,
                    dropped: false,
                });
            }
            Ok(())
        });
        connected?;
        connect_s += secs;

        let (registered, secs) = spans.time("register", |_| -> Result<(), String> {
            for (i, c) in pool.iter_mut().enumerate().skip(first) {
                c.send(&encode_frame(&register_msg(i), codec));
            }
            let deadline = Instant::now() + Duration::from_secs(20);
            let mut outstanding = batch as u64;
            while outstanding > 0 {
                let mut progressed = false;
                for c in pool[first..].iter_mut() {
                    c.flush();
                    let got = c.drain(&mut rbuf);
                    if got.nacks > 0 || c.dropped {
                        return Err("registration refused or connection dropped".to_string());
                    }
                    outstanding -= got.acks;
                    progressed |= got.acks > 0;
                }
                if !progressed {
                    if Instant::now() > deadline {
                        return Err(format!("{outstanding} registrations unanswered after 20 s"));
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            Ok(())
        });
        registered?;
        register_s += secs;
    }
    Ok((
        Rig {
            registry,
            conns: pool,
            rbuf,
        },
        SetupTimes {
            start_s,
            connect_s,
            register_s,
        },
    ))
}

// --- closed loop -----------------------------------------------------------------

/// One measured (or warm-up) window of the closed loop.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    acks: u64,
    elapsed_s: f64,
}

/// What the closed loop counted over its whole life.
#[derive(Default)]
struct ClosedTotals {
    sends: u64,
    acks: u64,
    nacks: u64,
    windows: Vec<Window>,
}

/// Saturate the registry: every connection sends its next heartbeat as
/// soon as the previous ack is in. Phase 0 is the warm-up; phases 1.. are
/// the measured windows. The clock is checked every 64 connections, so a
/// window's edge is sharp to a fraction of a sweep.
fn closed_loop(rig: &mut Rig, phases_s: &[f64], spans: &mut Spans) -> ClosedTotals {
    let mut totals = ClosedTotals::default();
    let mut phase = 0;
    let mut phase_span = spans.begin("warmup");
    let mut phase_start = Instant::now();
    let mut phase_acks = 0u64;
    let n = rig.conns.len();
    'run: loop {
        let mut progressed = false;
        for i in 0..n {
            if i % 64 == 0 {
                let elapsed = phase_start.elapsed().as_secs_f64();
                if elapsed >= phases_s[phase] {
                    spans.end(phase_span);
                    totals.windows.push(Window {
                        acks: phase_acks,
                        elapsed_s: elapsed,
                    });
                    phase += 1;
                    if phase == phases_s.len() {
                        break 'run;
                    }
                    phase_span = spans.begin("window");
                    phase_start = Instant::now();
                    phase_acks = 0;
                }
            }
            let c = &mut rig.conns[i];
            if c.dropped {
                continue;
            }
            if !c.inflight {
                c.send_heartbeat();
                c.inflight = true;
                totals.sends += 1;
                progressed = true;
            } else if !c.backlog.is_empty() {
                c.flush();
            }
            let got = c.drain(&mut rig.rbuf);
            totals.nacks += got.nacks;
            if got.acks + got.nacks > 0 {
                c.inflight = false;
                totals.acks += got.acks;
                phase_acks += got.acks;
                progressed = true;
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    totals
}

// --- open loop ---------------------------------------------------------------------

/// The open-loop schedule: heartbeat `j` (counted over all connections) is
/// due `j * gap_ns` after the start, on connection `j % conns`. Every
/// connection is therefore due once per `conns * gap_ns`, and the phases
/// of the connections are staggered uniformly over that period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    pub gap_ns: u64,
    pub conns: usize,
    /// Heartbeats `0..warmup` are sent and awaited but not reported.
    pub warmup: u64,
    /// Total heartbeats due, warm-up included.
    pub total: u64,
}

impl Schedule {
    /// `rate` heartbeats per second over `conns` connections for
    /// `warmup_s + measured_s` seconds.
    pub fn new(rate: f64, conns: usize, warmup_s: f64, measured_s: f64) -> Schedule {
        let gap_ns = (1e9 / rate).round().max(1.0) as u64;
        let count = |secs: f64| (secs * 1e9 / gap_ns as f64).round() as u64;
        Schedule {
            gap_ns,
            conns,
            warmup: count(warmup_s),
            total: count(warmup_s) + count(measured_s),
        }
    }

    pub fn due_ns(&self, j: u64) -> u64 {
        j * self.gap_ns
    }

    pub fn conn(&self, j: u64) -> usize {
        (j % self.conns as u64) as usize
    }

    pub fn measured(&self, j: u64) -> bool {
        j >= self.warmup
    }

    /// How many heartbeats are due at or before `now_ns`, capped at the
    /// schedule's end. The generator sends `next..due_count(now)`.
    pub fn due_count(&self, now_ns: u64) -> u64 {
        (now_ns / self.gap_ns + 1).min(self.total)
    }
}

/// What one open-loop run observed about the measured heartbeats.
#[derive(Default)]
pub struct PacedOutcome {
    /// Measured heartbeats that were due.
    pub due: u64,
    /// … of which the generator actually sent (the rest sat on a dropped
    /// connection).
    pub sent: u64,
    /// Positive acks within [`ACK_DEADLINE`], timed from the due time,
    /// ascending.
    pub latencies: Vec<f64>,
    pub nacks: u64,
    /// Acks that took longer than [`ACK_DEADLINE`] or never came.
    pub late_or_lost: u64,
    /// How late after its due time each measured heartbeat was sent,
    /// ascending.
    pub send_lateness: Vec<f64>,
    /// Host seconds from the first measured due time to the last ack.
    pub span_s: f64,
    /// Heartbeats still unacknowledged when the last one was sent.
    pub backlog_at_end: usize,
}

impl PacedOutcome {
    pub fn failed(&self) -> u64 {
        self.nacks + self.late_or_lost + (self.due - self.sent)
    }
}

/// Drive `schedule` against the rig. Sends are never gated on replies.
fn open_loop(rig: &mut Rig, schedule: &Schedule) -> PacedOutcome {
    let mut out = PacedOutcome::default();
    let mut active: Vec<usize> = Vec::new();
    let mut next = 0u64;
    let mut last_ack_ns = 0u64;
    let deadline_ns = ACK_DEADLINE.as_nanos() as u64;
    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    loop {
        // Send what is due, a few at a time.
        let due_now = schedule.due_count(now_ns());
        let mut batch = 0;
        while next < due_now && batch < SEND_BATCH {
            let ci = schedule.conn(next);
            let c = &mut rig.conns[ci];
            let measured = schedule.measured(next);
            out.due += u64::from(measured);
            if !c.dropped {
                let before = now_ns();
                c.send_heartbeat();
                if measured {
                    out.sent += 1;
                    out.send_lateness
                        .push(before.saturating_sub(schedule.due_ns(next)) as f64 * 1e-9);
                }
                if c.pending.is_empty() {
                    active.push(ci);
                }
                c.pending.push_back(next);
            }
            next += 1;
            batch += 1;
            if next == schedule.total {
                out.backlog_at_end = active.iter().map(|&i| rig.conns[i].pending.len()).sum();
            }
        }

        // Poll only the connections that are owed an ack.
        let mut k = 0;
        while k < active.len() {
            let c = &mut rig.conns[active[k]];
            if !c.backlog.is_empty() {
                c.flush();
            }
            let got = c.drain(&mut rig.rbuf);
            let now = now_ns();
            for reply in 0..got.acks + got.nacks {
                let Some(j) = c.pending.pop_front() else {
                    break;
                };
                if !schedule.measured(j) {
                    continue;
                }
                last_ack_ns = now;
                let latency_ns = now.saturating_sub(schedule.due_ns(j));
                if reply >= got.acks {
                    out.nacks += 1;
                } else if latency_ns > deadline_ns {
                    out.late_or_lost += 1;
                } else {
                    out.latencies.push(latency_ns as f64 * 1e-9);
                }
            }
            // Give up on acks past the deadline, and on dropped peers.
            while let Some(&j) = c.pending.front() {
                if c.dropped || now > schedule.due_ns(j) + deadline_ns {
                    c.pending.pop_front();
                    out.late_or_lost += u64::from(schedule.measured(j));
                } else {
                    break;
                }
            }
            if c.pending.is_empty() {
                active.swap_remove(k);
            } else {
                k += 1;
            }
        }

        if next == schedule.total && active.is_empty() {
            break;
        }
        std::hint::spin_loop();
    }
    let first_measured_due = schedule.due_ns(schedule.warmup);
    out.span_s = last_ack_ns.saturating_sub(first_measured_due) as f64 * 1e-9;
    stats::sort(&mut out.latencies);
    stats::sort(&mut out.send_lateness);
    out
}

// --- results ------------------------------------------------------------------------

/// Everything one live run measured.
#[derive(Default)]
pub struct LiveRun {
    pub setups: Vec<SetupTimes>,
    /// Heartbeats attempted (sent, or due in the open loop) and failed.
    pub attempted: u64,
    pub failed: u64,
    pub nacks: u64,
    pub conns_dropped: usize,
    /// Entries in the registry's host table at the end.
    pub registry_entries: usize,
    /// Completed round trips per second (median window / open-loop span).
    pub hb_per_sec: f64,
    /// Host seconds per 100 000 round trips (closed loop) or of the
    /// measured schedule (open loop).
    pub wall_s: f64,
    pub lat_p50_s: f64,
    /// The highest tail the sample supports, and which percentile it is.
    pub lat_tail_s: f64,
    pub lat_tail_pct: f64,
    pub lat_samples: usize,
    /// Process CPU seconds (generator + reactor) over the measured span.
    pub proc_cpu_s: f64,
    pub gen_late_p99_s: f64,
    /// Rate sweep of the traced `live_paced` run: (rate, p99 s, sustained).
    pub sweep: Vec<(f64, f64, bool)>,
    /// Failed output checks, empty when the run is valid.
    pub violations: Vec<String>,
}

/// The tail reported as `hb_lat_p99_s`: p99, or the highest percentile the
/// sample supports when it is too small for that (fewer than 1000 samples).
fn tail(sorted: &[f64]) -> (f64, f64) {
    match stats::supported_tail(sorted.len()) {
        Some(p) => {
            let p = p.min(99.0);
            (stats::percentile_sorted(sorted, p), p)
        }
        None => (0.0, 0.0),
    }
}

fn finish_rig(rig: Rig, run: &mut LiveRun) {
    run.conns_dropped = rig.conns.iter().filter(|c| c.dropped).count();
    run.registry_entries = rig.registry.inspect(|core, _| core.entries().len());
    let expected = rig.conns.len();
    if run.registry_entries != expected {
        run.violations.push(format!(
            "registry holds {} entries, expected {expected}",
            run.registry_entries
        ));
    }
    if run.conns_dropped > 0 {
        run.violations
            .push(format!("{} connections dropped", run.conns_dropped));
    }
    // Clients hang up first, then the reactor winds down and is joined.
    drop(rig.conns);
    rig.registry.shutdown();
}

/// Is a paced outcome sustained: p99 within 20 ms and no growing backlog
/// (less than 20 ms worth of heartbeats outstanding at the end)?
fn sustained(out: &PacedOutcome, rate: f64, p99_s: f64) -> bool {
    out.failed() == 0 && p99_s <= 0.020 && (out.backlog_at_end as f64) < rate * 0.020
}

/// Run one live workload for `seconds` of measurement.
pub fn run(
    kind: Kind,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    traced: bool,
    obs: &Obs,
    spans: &mut Spans,
) -> LiveRun {
    let mut run = LiveRun::default();
    let need_fds = 2 * sizes.conns as u64 + 64;
    if let Some(limit) = crate::procfs::max_open_files() {
        if limit < need_fds {
            run.violations.push(format!(
                "open-file limit {limit} is below the {need_fds} this workload needs (ulimit -n)"
            ));
            return run;
        }
    }

    let mut rig = None;
    for i in 0..sizes.setups {
        spans.set_rep(i as u32);
        // The previous registry is gone before the next one is timed.
        drop(rig.take());
        let span = spans.begin("setup");
        let built = setup(kind.codec(), sizes.conns, seed, obs, spans);
        spans.end(span);
        match built {
            Ok((r, times)) => {
                run.setups.push(times);
                rig = Some(r);
            }
            Err(e) => {
                run.violations.push(format!("set-up failed: {e}"));
                return run;
            }
        }
    }
    let mut rig = rig.expect("at least one set-up");

    let cpu0;
    match kind {
        Kind::SatBin | Kind::SatXml => {
            let mut phases = vec![sizes.warmup_s];
            phases.extend(std::iter::repeat_n(
                seconds / sizes.windows as f64,
                sizes.windows,
            ));
            cpu0 = crate::procfs::cpu_seconds();
            let totals = closed_loop(&mut rig, &phases, spans);
            run.proc_cpu_s = crate::procfs::cpu_seconds() - cpu0;
            let rates: Vec<f64> = totals.windows[1..]
                .iter()
                .map(|w| w.acks as f64 / w.elapsed_s)
                .collect();
            run.hb_per_sec = stats::median(&rates);
            run.wall_s = 100_000.0 / run.hb_per_sec;
            // With exactly one heartbeat in flight per connection the mean
            // round trip is fixed by Little's law; timing probes adds
            // nothing but sweep-phase noise.
            run.lat_p50_s = sizes.conns as f64 / run.hb_per_sec;
            let inflight = rig.conns.iter().filter(|c| c.inflight).count() as u64;
            run.attempted = totals.sends;
            run.nacks = totals.nacks;
            run.failed = totals.nacks;
            if totals.acks + totals.nacks + inflight != totals.sends {
                run.violations.push(format!(
                    "acks {} + nacks {} + in flight {inflight} != sends {}",
                    totals.acks, totals.nacks, totals.sends
                ));
            }
        }
        Kind::Paced => {
            let schedule = Schedule::new(sizes.paced_rate, sizes.conns, sizes.warmup_s, seconds);
            cpu0 = crate::procfs::cpu_seconds();
            let (out, _) = spans.time("paced", |_| open_loop(&mut rig, &schedule));
            run.proc_cpu_s = crate::procfs::cpu_seconds() - cpu0;
            run.attempted = out.due;
            run.failed = out.failed();
            run.nacks = out.nacks;
            run.wall_s = out.span_s;
            run.hb_per_sec = out.latencies.len() as f64 / out.span_s;
            if !out.send_lateness.is_empty() {
                run.gen_late_p99_s = stats::percentile_sorted(&out.send_lateness, 99.0);
            }
            // An overloaded generator measures itself, not the registry:
            // fail the run instead of reporting a latency.
            if run.gen_late_p99_s > GEN_LATE_LIMIT_S {
                run.violations.push(format!(
                    "generator ran {:.3} ms late at p99 (limit {} ms)",
                    run.gen_late_p99_s * 1e3,
                    GEN_LATE_LIMIT_S * 1e3
                ));
            }
            if (out.sent as f64) < GEN_SENT_MIN_FRAC * out.due as f64 {
                run.violations.push(format!(
                    "generator sent {} of {} due heartbeats",
                    out.sent, out.due
                ));
            }
            let lat = out.latencies;
            run.lat_samples = lat.len();
            if !lat.is_empty() {
                run.lat_p50_s = stats::percentile_sorted(&lat, 50.0);
                (run.lat_tail_s, run.lat_tail_pct) = tail(&lat);
            }
            if traced {
                for rate in [10_000.0, 40_000.0, 80_000.0] {
                    let schedule = Schedule::new(rate, sizes.conns, 0.3, (seconds / 5.0).min(2.0));
                    let (out, _) = spans.time("sweep", |_| open_loop(&mut rig, &schedule));
                    let p99 = if out.latencies.is_empty() {
                        ACK_DEADLINE.as_secs_f64()
                    } else {
                        stats::percentile_sorted(&out.latencies, 99.0)
                    };
                    run.sweep.push((rate, p99, sustained(&out, rate, p99)));
                }
            }
        }
    }
    if run.nacks > 0 {
        run.violations.push(format!("{} NACKs", run.nacks));
    }
    finish_rig(rig, &mut run);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_staggers_connections_uniformly() {
        // 4 connections at 1000 hb/s: one heartbeat due every millisecond,
        // each connection every 4 ms, phases 1 ms apart.
        let s = Schedule::new(1_000.0, 4, 0.010, 0.100);
        assert_eq!(s.gap_ns, 1_000_000);
        assert_eq!((s.warmup, s.total), (10, 110));
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(5), 5_000_000);
        assert_eq!((s.conn(0), s.conn(1), s.conn(4), s.conn(7)), (0, 1, 0, 3));
        assert_eq!(s.due_ns(4) - s.due_ns(0), 4_000_000);
        assert!(!s.measured(9) && s.measured(10));
    }

    #[test]
    fn due_count_follows_the_clock_not_the_replies() {
        let s = Schedule::new(1_000.0, 4, 0.0, 0.010);
        assert_eq!(s.total, 10);
        assert_eq!(s.due_count(0), 1); // heartbeat 0 is due at t = 0
        assert_eq!(s.due_count(999_999), 1);
        assert_eq!(s.due_count(1_000_000), 2);
        // A generator that stalled 5 ms owes exactly the heartbeats whose
        // due time passed — each keeps its own due time for the latency.
        assert_eq!(s.due_count(5_500_000), 6);
        assert_eq!(s.due_count(1_000_000_000), 10); // capped at the end
    }

    #[test]
    fn paced_failures_count_every_way_a_heartbeat_can_be_missed() {
        let out = PacedOutcome {
            due: 100,
            sent: 97,
            nacks: 2,
            late_or_lost: 4,
            ..PacedOutcome::default()
        };
        assert_eq!(out.failed(), 2 + 4 + 3);
    }

    #[test]
    fn closed_and_open_loop_against_a_real_registry() {
        let sizes = Sizes {
            conns: 8,
            setups: 1,
            warmup_s: 0.05,
            windows: 2,
            paced_rate: 2_000.0,
        };
        for kind in [Kind::SatBin, Kind::SatXml, Kind::Paced] {
            let run = run(
                kind,
                sizes,
                11,
                0.3,
                false,
                &Obs::disabled(),
                &mut Spans::new(false),
            );
            assert!(run.violations.is_empty(), "{kind:?}: {:?}", run.violations);
            assert_eq!(run.failed, 0);
            assert!(run.attempted > 0 && run.hb_per_sec > 0.0 && run.lat_p50_s > 0.0);
            assert_eq!(run.registry_entries, 8);
        }
    }
}
