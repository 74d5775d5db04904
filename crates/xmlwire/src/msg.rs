//! Wire messages of the rescheduler protocol (§3.3).
//!
//! "We combine a custom XML based protocol with TCP/IP sockets to form the
//! communication subsystem of the rescheduler. The XML based protocol is
//! used for communications between the monitor, registry/scheduler and
//! commander entities."
//!
//! Every message is one XML document with root `<msg type="...">`, written
//! by one streaming writer ([`Message::to_document`]). The real-TCP live
//! mode sends that document; the simulation carries the typed `Message`
//! and charges it [`Message::xml_len`] bytes — the same writer counting
//! instead of building — so its byte counts are the document's, exactly.

use std::borrow::Cow;
use std::str::FromStr;

use crate::doc::{document, document_len, Reader, Tag, WriteXml, XmlError, XmlSink, XmlWriter};
use crate::schema::{ApplicationSchema, ResourceRequirements};

/// Host state vocabulary of the protocol (paper Table 1, plus the
/// soft-state expiry state `Unavailable`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HostState {
    /// Willing and able to accept incoming HPCM-enabled applications.
    Free,
    /// Loaded; neither accepts nor evicts applications ("as is").
    Busy,
    /// Needs to offload applications onto another host.
    Overloaded,
    /// Lease expired or host explicitly withdrawn.
    Unavailable,
}

impl HostState {
    /// Protocol string form.
    pub fn as_str(self) -> &'static str {
        match self {
            HostState::Free => "free",
            HostState::Busy => "busy",
            HostState::Overloaded => "overloaded",
            HostState::Unavailable => "unavailable",
        }
    }

    /// Parse the protocol string form.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "free" => Some(HostState::Free),
            "busy" => Some(HostState::Busy),
            "overloaded" => Some(HostState::Overloaded),
            "unavailable" => Some(HostState::Unavailable),
            _ => None,
        }
    }

    /// Whether this host accepts migrated-in processes (Table 1).
    pub fn accepts_migration(self) -> bool {
        self == HostState::Free
    }

    /// Whether this host should migrate processes out (Table 1).
    pub fn wants_migration_out(self) -> bool {
        self == HostState::Overloaded
    }

    /// Whether the host is loaded (Table 1).
    pub fn is_loaded(self) -> bool {
        matches!(self, HostState::Busy | HostState::Overloaded)
    }
}

impl std::fmt::Display for HostState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Static host information sent once at registration.
#[derive(Debug, Clone, PartialEq)]
pub struct HostStatic {
    /// Hostname.
    pub name: String,
    /// Dotted-quad address (simulated hosts fabricate one).
    pub ip: String,
    /// Operating system label.
    pub os: String,
    /// Relative CPU speed.
    pub cpu_speed: f64,
    /// Processor count.
    pub n_cpus: u32,
    /// Physical memory, kilobytes.
    pub mem_kb: u64,
}

/// A named metric sample bag (load averages, idle %, KB/s, socket counts…).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Empty bag.
    pub fn new() -> Self {
        Metrics(Vec::new())
    }

    /// Insert or replace a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if let Some(slot) = self.0.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.0.push((name, value));
        }
    }

    /// Look up a metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// All metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no metrics are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// One migration-enabled process as reported in a heartbeat.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcReport {
    /// Simulator-wide pid.
    pub pid: u64,
    /// Application name (matches its schema).
    pub app: String,
    /// Start time on this host, seconds (the pid-file timestamp).
    pub start_time_s: f64,
    /// Estimated execution time from the application schema, seconds.
    pub est_exec_time_s: f64,
}

/// Which entity is registering with the registry/scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityRole {
    /// The per-host monitor (pushes heartbeats).
    Monitor,
    /// The per-host commander (receives migration commands).
    Commander,
    /// A lower-level registry/scheduler in a hierarchy.
    Registry,
}

impl EntityRole {
    /// Protocol string form.
    pub fn as_str(self) -> &'static str {
        match self {
            EntityRole::Monitor => "monitor",
            EntityRole::Commander => "commander",
            EntityRole::Registry => "registry",
        }
    }

    /// Parse the protocol string form.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "monitor" => Some(EntityRole::Monitor),
            "commander" => Some(EntityRole::Commander),
            "registry" => Some(EntityRole::Registry),
            _ => None,
        }
    }
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// One-time static registration of an entity with the registry.
    Register {
        /// Static host description.
        host: HostStatic,
        /// Which entity on that host is registering.
        role: EntityRole,
    },
    /// Periodic soft-state refresh: state + metrics + migratable processes.
    Heartbeat {
        /// Reporting hostname.
        host: String,
        /// Rule-evaluated local state.
        state: HostState,
        /// Raw metric samples backing the state decision.
        metrics: Metrics,
        /// Migration-enabled processes currently running.
        procs: Vec<ProcReport>,
    },
    /// Registry → commander: start migrating `pid` to `dest`.
    MigrationCommand {
        /// Commander's hostname (addressee).
        host: String,
        /// Process to migrate.
        pid: u64,
        /// Destination hostname.
        dest: String,
        /// Destination port for the state-transfer channel.
        dest_port: u16,
        /// Schema of the application, forwarded to initialize the process
        /// on the destination.
        schema: ApplicationSchema,
    },
    /// Commander/monitor → registry: ask for a destination candidate.
    CandidateRequest {
        /// Requesting hostname.
        host: String,
        /// Resources the process needs on the destination.
        requirements: ResourceRequirements,
    },
    /// Registry → requester: a destination, or none available.
    CandidateReply {
        /// Chosen destination hostname, if any.
        dest: Option<String>,
    },
    /// Commander → registry: migration finished (feeds scheduling history).
    MigrationComplete {
        /// Migrated pid (source numbering).
        pid: u64,
        /// Source hostname.
        from: String,
        /// Destination hostname.
        to: String,
        /// End-to-end migration time, seconds.
        migration_time_s: f64,
    },
    /// Registry → monitor (pull model): "report your current status now".
    StatusQuery {
        /// Queried hostname.
        host: String,
    },
    /// Commander → registry: explicit receipt of a [`Message::MigrationCommand`].
    ///
    /// The registry retransmits unacknowledged commands with exponential
    /// backoff; this message stops the retransmit timer.
    CommandAck {
        /// Acknowledging commander's hostname.
        host: String,
        /// Pid the acknowledged command referred to.
        pid: u64,
        /// False when the commander rejected the command (e.g. pid unknown).
        ok: bool,
    },
    /// Registry → monitor: "I don't know you" — sent when a heartbeat
    /// arrives from a host that is not registered (typically after a
    /// registry restart lost the soft state). The monitor answers by
    /// re-sending its [`Message::Register`] documents.
    ReRegister {
        /// Addressee hostname.
        host: String,
    },
    /// Child registry → parent registry: periodic aggregate *health
    /// condition* of the child's domain (§3.2: each lower-level registry
    /// "has its own health condition, which indicates its overall workload
    /// and availability of each kind of resource"). The parent uses the
    /// latest report per child to order its cross-domain candidate search.
    DomainReport {
        /// Reporting registry's domain name.
        domain: String,
        /// Hosts currently free.
        free: u32,
        /// Hosts currently busy.
        busy: u32,
        /// Hosts currently overloaded.
        overloaded: u32,
        /// Hosts with expired leases.
        unavailable: u32,
        /// Sum of reported 1-minute load averages.
        load_sum: f64,
        /// Number of load samples in the sum.
        load_samples: u32,
    },
    /// Generic acknowledgement.
    Ack {
        /// True on success.
        ok: bool,
        /// Optional human-readable detail.
        info: String,
    },
}

impl Message {
    /// Message type tag used on the wire.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Message::Register { .. } => "register",
            Message::Heartbeat { .. } => "heartbeat",
            Message::MigrationCommand { .. } => "migration-command",
            Message::CandidateRequest { .. } => "candidate-request",
            Message::CandidateReply { .. } => "candidate-reply",
            Message::MigrationComplete { .. } => "migration-complete",
            Message::StatusQuery { .. } => "status-query",
            Message::CommandAck { .. } => "command-ack",
            Message::ReRegister { .. } => "re-register",
            Message::DomainReport { .. } => "domain-report",
            Message::Ack { .. } => "ack",
        }
    }

    /// Serialize to the full wire document.
    pub fn to_document(&self) -> String {
        document(self)
    }

    /// Exactly `self.to_document().len()`, from the same writer with a
    /// byte-counting sink: what the simulation charges a control message
    /// on the wire without materializing it.
    pub fn xml_len(&self) -> usize {
        document_len(self)
    }

    /// Parse a wire document. One pass of the pull reader fills the
    /// message; the only tree built is a migration command's
    /// `<application-schema>`. Children and attributes may come in any
    /// order, the first occurrence of a field wins, unknown elements are
    /// skipped, and the whole document is checked for well-formedness.
    pub fn decode(doc: &str) -> Result<Message, XmlError> {
        let mut r = Reader::new(doc);
        let root = r.root()?;
        if root.name != "msg" {
            return Err(XmlError::UnexpectedRoot(root.name.to_string()));
        }
        let ty = root.attr("type")?.ok_or_else(|| missing("type"))?;
        let msg = match &*ty {
            "register" => {
                let role_text = root.attr("role")?;
                let role_text = role_text.as_deref().unwrap_or("monitor");
                let role = EntityRole::parse(role_text)
                    .ok_or_else(|| XmlError::BadField("role".to_string(), role_text.to_string()))?;
                let mut host = None;
                r.children(|r, tag| match tag.name {
                    "host" if host.is_none() => {
                        host = Some(host_static(r, tag)?);
                        Ok(())
                    }
                    _ => r.skip(),
                })?;
                Message::Register {
                    role,
                    host: required(host, "host")?,
                }
            }
            "heartbeat" => {
                let (mut host, mut state, mut metrics, mut procs) = (None, None, None, None);
                r.children(|r, tag| match tag.name {
                    "host" => r.first_text(&mut host, string),
                    "state" => r.first_text(&mut state, |text| {
                        HostState::parse(&text)
                            .ok_or_else(|| XmlError::BadField("state".to_string(), text.into()))
                    }),
                    "metrics" if metrics.is_none() => {
                        metrics = Some(metric_bag(r)?);
                        Ok(())
                    }
                    "procs" if procs.is_none() => {
                        procs = Some(proc_table(r)?);
                        Ok(())
                    }
                    _ => r.skip(),
                })?;
                Message::Heartbeat {
                    host: required(host, "host")?,
                    state: required(state, "state")?,
                    metrics: metrics.unwrap_or_default(),
                    procs: procs.unwrap_or_default(),
                }
            }
            "migration-command" => {
                let (mut host, mut pid, mut dest, mut dest_port) = (None, None, None, None);
                let mut schema = None;
                r.children(|r, tag| match tag.name {
                    "host" => r.first_text(&mut host, string),
                    "pid" => r.first_text(&mut pid, number("pid")),
                    "dest" => r.first_text(&mut dest, string),
                    "dest-port" => r.first_text(&mut dest_port, number("dest-port")),
                    "application-schema" if schema.is_none() => {
                        schema = Some(ApplicationSchema::from_xml(&r.element(tag)?)?);
                        Ok(())
                    }
                    _ => r.skip(),
                })?;
                Message::MigrationCommand {
                    host: required(host, "host")?,
                    pid: required(pid, "pid")?,
                    dest: required(dest, "dest")?,
                    dest_port: required(dest_port, "dest-port")?,
                    schema: required(schema, "application-schema")?,
                }
            }
            "candidate-request" => {
                let (mut host, mut requirements) = (None, None);
                r.children(|r, tag| match tag.name {
                    "host" => r.first_text(&mut host, string),
                    "requirements" if requirements.is_none() => {
                        requirements = Some(resource_requirements(r)?);
                        Ok(())
                    }
                    _ => r.skip(),
                })?;
                Message::CandidateRequest {
                    host: required(host, "host")?,
                    requirements: required(requirements, "requirements")?,
                }
            }
            "candidate-reply" => {
                let mut dest = None;
                r.children(|r, tag| match tag.name {
                    "dest" => r.first_text(&mut dest, string),
                    _ => r.skip(),
                })?;
                Message::CandidateReply { dest }
            }
            "migration-complete" => {
                let (mut pid, mut from, mut to, mut time) = (None, None, None, None);
                r.children(|r, tag| match tag.name {
                    "pid" => r.first_text(&mut pid, number("pid")),
                    "from" => r.first_text(&mut from, string),
                    "to" => r.first_text(&mut to, string),
                    "migration-time-s" => r.first_text(&mut time, number("migration-time-s")),
                    _ => r.skip(),
                })?;
                Message::MigrationComplete {
                    pid: required(pid, "pid")?,
                    from: required(from, "from")?,
                    to: required(to, "to")?,
                    migration_time_s: required(time, "migration-time-s")?,
                }
            }
            "status-query" => Message::StatusQuery {
                host: host_only(&mut r)?,
            },
            "re-register" => Message::ReRegister {
                host: host_only(&mut r)?,
            },
            "command-ack" => {
                let (mut host, mut pid, mut ok) = (None, None, None);
                r.children(|r, tag| match tag.name {
                    "host" => r.first_text(&mut host, string),
                    "pid" => r.first_text(&mut pid, number("pid")),
                    "ok" => r.first_text(&mut ok, number("ok")),
                    _ => r.skip(),
                })?;
                Message::CommandAck {
                    host: required(host, "host")?,
                    pid: required(pid, "pid")?,
                    ok: required(ok, "ok")?,
                }
            }
            "domain-report" => {
                let (mut domain, mut health) = (None, None);
                r.children(|r, tag| match tag.name {
                    "domain" => r.first_text(&mut domain, string),
                    "health" if health.is_none() => {
                        health = Some(domain_health(r)?);
                        Ok(())
                    }
                    _ => r.skip(),
                })?;
                let (free, busy, overloaded, unavailable, load_sum, load_samples) =
                    required(health, "health")?;
                Message::DomainReport {
                    domain: required(domain, "domain")?,
                    free,
                    busy,
                    overloaded,
                    unavailable,
                    load_sum,
                    load_samples,
                }
            }
            "ack" => {
                let (mut ok, mut info) = (None, None);
                r.children(|r, tag| match tag.name {
                    "ok" => r.first_text(&mut ok, number("ok")),
                    "info" => r.first_text(&mut info, string),
                    _ => r.skip(),
                })?;
                Message::Ack {
                    ok: required(ok, "ok")?,
                    info: info.unwrap_or_default(),
                }
            }
            other => return Err(XmlError::BadField("type".to_string(), other.to_string())),
        };
        r.finish()?;
        Ok(msg)
    }
}

// --- decoding helpers (the reader sits just after the element's start tag) ---

fn missing(name: &str) -> XmlError {
    XmlError::MissingField(name.to_string())
}

fn required<T>(slot: Option<T>, name: &str) -> Result<T, XmlError> {
    slot.ok_or_else(|| missing(name))
}

/// A text field kept as a string.
fn string(text: Cow<'_, str>) -> Result<String, XmlError> {
    Ok(text.into_owned())
}

/// A text field parsed as `T` after trimming, like
/// [`XmlElement::field_parse`](crate::XmlElement::field_parse).
fn number<T: FromStr>(name: &'static str) -> impl FnOnce(Cow<'_, str>) -> Result<T, XmlError> {
    move |text| {
        text.trim()
            .parse()
            .map_err(|_| XmlError::BadField(name.to_string(), text.into_owned()))
    }
}

/// An attribute parsed as `T` (not trimmed).
fn attr_number<T: FromStr>(tag: &Tag<'_>, key: &str) -> Result<T, XmlError> {
    let raw = tag.attr(key)?.ok_or_else(|| missing(key))?;
    raw.parse()
        .map_err(|_| XmlError::BadField(key.to_string(), raw.into_owned()))
}

/// The `<host>` field of a message whose only field it is.
fn host_only(r: &mut Reader<'_>) -> Result<String, XmlError> {
    let mut host = None;
    r.children(|r, tag| match tag.name {
        "host" => r.first_text(&mut host, string),
        _ => r.skip(),
    })?;
    required(host, "host")
}

/// `<host name="…">` of a register message.
fn host_static(r: &mut Reader<'_>, tag: Tag<'_>) -> Result<HostStatic, XmlError> {
    let name = tag.attr("name")?.ok_or_else(|| missing("name"))?;
    let (mut ip, mut os, mut cpu_speed, mut n_cpus, mut mem_kb) = (None, None, None, None, None);
    r.children(|r, tag| match tag.name {
        "ip" => r.first_text(&mut ip, string),
        "os" => r.first_text(&mut os, string),
        "cpu-speed" => r.first_text(&mut cpu_speed, number("cpu-speed")),
        "n-cpus" => r.first_text(&mut n_cpus, number("n-cpus")),
        "mem-kb" => r.first_text(&mut mem_kb, number("mem-kb")),
        _ => r.skip(),
    })?;
    Ok(HostStatic {
        name: name.into_owned(),
        ip: required(ip, "ip")?,
        os: required(os, "os")?,
        cpu_speed: required(cpu_speed, "cpu-speed")?,
        n_cpus: required(n_cpus, "n-cpus")?,
        mem_kb: required(mem_kb, "mem-kb")?,
    })
}

/// `<metrics>`: every `<metric name="…">value</metric>` in order; a
/// repeated name replaces the earlier value.
fn metric_bag(r: &mut Reader<'_>) -> Result<Metrics, XmlError> {
    let mut metrics = Metrics::new();
    r.children(|r, tag| {
        if tag.name != "metric" {
            return r.skip();
        }
        let name = tag.attr("name")?.ok_or_else(|| missing("metric name"))?;
        let text = r.text()?;
        let value: f64 = text
            .trim()
            .parse()
            .map_err(|_| XmlError::BadField(name.to_string(), text.into_owned()))?;
        metrics.set(name, value);
        Ok(())
    })?;
    Ok(metrics)
}

/// `<procs>`: every `<proc pid app start est/>` in order.
fn proc_table(r: &mut Reader<'_>) -> Result<Vec<ProcReport>, XmlError> {
    let mut procs = Vec::new();
    r.children(|r, tag| {
        if tag.name == "proc" {
            procs.push(ProcReport {
                pid: attr_number(&tag, "pid")?,
                app: tag.attr("app")?.ok_or_else(|| missing("app"))?.into_owned(),
                start_time_s: attr_number(&tag, "start")?,
                est_exec_time_s: attr_number(&tag, "est")?,
            });
        }
        r.skip()
    })?;
    Ok(procs)
}

/// `<health>` of a domain report: free, busy, overloaded, unavailable,
/// load sum, load samples.
fn domain_health(r: &mut Reader<'_>) -> Result<(u32, u32, u32, u32, f64, u32), XmlError> {
    let (mut free, mut busy, mut overloaded, mut unavailable) = (None, None, None, None);
    let (mut load_sum, mut load_samples) = (None, None);
    r.children(|r, tag| match tag.name {
        "free" => r.first_text(&mut free, number("free")),
        "busy" => r.first_text(&mut busy, number("busy")),
        "overloaded" => r.first_text(&mut overloaded, number("overloaded")),
        "unavailable" => r.first_text(&mut unavailable, number("unavailable")),
        "load-sum" => r.first_text(&mut load_sum, number("load-sum")),
        "load-samples" => r.first_text(&mut load_samples, number("load-samples")),
        _ => r.skip(),
    })?;
    Ok((
        required(free, "free")?,
        required(busy, "busy")?,
        required(overloaded, "overloaded")?,
        required(unavailable, "unavailable")?,
        required(load_sum, "load-sum")?,
        required(load_samples, "load-samples")?,
    ))
}

/// `<requirements>` of a candidate request.
fn resource_requirements(r: &mut Reader<'_>) -> Result<ResourceRequirements, XmlError> {
    let (mut mem_kb, mut disk_kb, mut min_cpu_speed) = (None, None, None);
    r.children(|r, tag| match tag.name {
        "mem-kb" => r.first_text(&mut mem_kb, number("mem-kb")),
        "disk-kb" => r.first_text(&mut disk_kb, number("disk-kb")),
        "min-cpu-speed" => r.first_text(&mut min_cpu_speed, number("min-cpu-speed")),
        _ => r.skip(),
    })?;
    Ok(ResourceRequirements {
        mem_kb: required(mem_kb, "mem-kb")?,
        disk_kb: required(disk_kb, "disk-kb")?,
        min_cpu_speed: required(min_cpu_speed, "min-cpu-speed")?,
    })
}

/// The message format: the only definition of what a `<msg>` looks like.
impl WriteXml for Message {
    fn write_xml<S: XmlSink>(&self, w: &mut XmlWriter<'_, S>) {
        w.begin("msg");
        w.attr("type", self.type_tag());
        if let Message::Register { role, .. } = self {
            w.attr("role", role.as_str());
        }
        w.content();
        match self {
            Message::Register { host, .. } => {
                w.begin("host");
                w.attr("name", &host.name);
                w.content();
                w.field("ip", &host.ip);
                w.field("os", &host.os);
                w.field_display("cpu-speed", host.cpu_speed);
                w.field_display("n-cpus", host.n_cpus);
                w.field_display("mem-kb", host.mem_kb);
                w.close("host");
            }
            Message::Heartbeat {
                host,
                state,
                metrics,
                procs,
            } => {
                w.field("host", host);
                w.field("state", state.as_str());
                w.begin("metrics");
                if metrics.is_empty() {
                    w.empty();
                } else {
                    w.content();
                    for (name, value) in metrics.iter() {
                        w.begin("metric");
                        w.attr("name", name);
                        w.content();
                        w.display(value);
                        w.close("metric");
                    }
                    w.close("metrics");
                }
                w.begin("procs");
                if procs.is_empty() {
                    w.empty();
                } else {
                    w.content();
                    for p in procs {
                        w.begin("proc");
                        w.attr_display("pid", p.pid);
                        w.attr("app", &p.app);
                        w.attr_display("start", p.start_time_s);
                        w.attr_display("est", p.est_exec_time_s);
                        w.empty();
                    }
                    w.close("procs");
                }
            }
            Message::MigrationCommand {
                host,
                pid,
                dest,
                dest_port,
                schema,
            } => {
                w.field("host", host);
                w.field_display("pid", pid);
                w.field("dest", dest);
                w.field_display("dest-port", dest_port);
                schema.write_xml(w);
            }
            Message::CandidateRequest { host, requirements } => {
                w.field("host", host);
                requirements.write_xml(w);
            }
            Message::CandidateReply { dest } => match dest {
                Some(d) => w.field("dest", d),
                None => {
                    w.begin("none");
                    w.empty();
                }
            },
            Message::MigrationComplete {
                pid,
                from,
                to,
                migration_time_s,
            } => {
                w.field_display("pid", pid);
                w.field("from", from);
                w.field("to", to);
                w.field_display("migration-time-s", migration_time_s);
            }
            Message::StatusQuery { host } | Message::ReRegister { host } => w.field("host", host),
            Message::CommandAck { host, pid, ok } => {
                w.field("host", host);
                w.field_display("pid", pid);
                w.field_display("ok", ok);
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
                w.field("domain", domain);
                w.open("health");
                w.field_display("free", free);
                w.field_display("busy", busy);
                w.field_display("overloaded", overloaded);
                w.field_display("unavailable", unavailable);
                w.field_display("load-sum", load_sum);
                w.field_display("load-samples", load_samples);
                w.close("health");
            }
            Message::Ack { ok, info } => {
                w.field_display("ok", ok);
                w.field("info", info);
            }
        }
        w.close("msg");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Message) {
        let doc = m.to_document();
        let back = Message::decode(&doc).unwrap();
        assert_eq!(back, m, "doc: {doc}");
    }

    #[test]
    fn register_roundtrip() {
        for role in [
            EntityRole::Monitor,
            EntityRole::Commander,
            EntityRole::Registry,
        ] {
            roundtrip(Message::Register {
                role,
                host: HostStatic {
                    name: "ws1".to_string(),
                    ip: "10.0.0.1".to_string(),
                    os: "SunOS 5.8".to_string(),
                    cpu_speed: 1.0,
                    n_cpus: 1,
                    mem_kb: 131_072,
                },
            });
        }
    }

    #[test]
    fn heartbeat_roundtrip() {
        let mut metrics = Metrics::new();
        metrics.set("load1", 0.97);
        metrics.set("nproc", 112.0);
        metrics.set("cpu_idle", 48.5);
        roundtrip(Message::Heartbeat {
            host: "ws2".to_string(),
            state: HostState::Busy,
            metrics,
            procs: vec![ProcReport {
                pid: 1234,
                app: "test_tree".to_string(),
                start_time_s: 280.0,
                est_exec_time_s: 600.0,
            }],
        });
    }

    #[test]
    fn migration_command_roundtrip() {
        roundtrip(Message::MigrationCommand {
            host: "ws1".to_string(),
            pid: 1234,
            dest: "ws4".to_string(),
            dest_port: 7801,
            schema: ApplicationSchema::compute("test_tree", 600.0),
        });
    }

    #[test]
    fn candidate_roundtrips() {
        roundtrip(Message::CandidateRequest {
            host: "ws1".to_string(),
            requirements: ResourceRequirements {
                mem_kb: 1024,
                disk_kb: 0,
                min_cpu_speed: 0.5,
            },
        });
        roundtrip(Message::CandidateReply {
            dest: Some("ws4".to_string()),
        });
        roundtrip(Message::CandidateReply { dest: None });
    }

    #[test]
    fn completion_and_ack_roundtrip() {
        roundtrip(Message::MigrationComplete {
            pid: 7,
            from: "ws1".to_string(),
            to: "ws4".to_string(),
            migration_time_s: 6.71,
        });
        roundtrip(Message::Ack {
            ok: true,
            info: "registered".to_string(),
        });
        roundtrip(Message::StatusQuery {
            host: "ws3".to_string(),
        });
    }

    #[test]
    fn recovery_message_roundtrips() {
        roundtrip(Message::CommandAck {
            host: "ws1".to_string(),
            pid: 1234,
            ok: true,
        });
        roundtrip(Message::CommandAck {
            host: "ws1".to_string(),
            pid: 1234,
            ok: false,
        });
        roundtrip(Message::ReRegister {
            host: "ws2".to_string(),
        });
    }

    #[test]
    fn domain_report_roundtrip() {
        roundtrip(Message::DomainReport {
            domain: "cluster-a".to_string(),
            free: 12,
            busy: 3,
            overloaded: 1,
            unavailable: 0,
            load_sum: 7.25,
            load_samples: 16,
        });
    }

    #[test]
    fn host_state_protocol_strings() {
        for s in [
            HostState::Free,
            HostState::Busy,
            HostState::Overloaded,
            HostState::Unavailable,
        ] {
            assert_eq!(HostState::parse(s.as_str()), Some(s));
        }
        assert_eq!(HostState::parse("idle"), None);
    }

    #[test]
    fn table1_action_matrix() {
        // Paper Table 1: state x (loaded, migrate in, migrate out).
        assert!(!HostState::Free.is_loaded());
        assert!(HostState::Free.accepts_migration());
        assert!(!HostState::Free.wants_migration_out());

        assert!(HostState::Busy.is_loaded());
        assert!(!HostState::Busy.accepts_migration());
        assert!(!HostState::Busy.wants_migration_out());

        assert!(HostState::Overloaded.is_loaded());
        assert!(!HostState::Overloaded.accepts_migration());
        assert!(HostState::Overloaded.wants_migration_out());
    }

    #[test]
    fn whitespace_only_strings_survive_the_codec() {
        // A field's text is its element's sole content, so it is kept
        // verbatim even when it is all whitespace.
        roundtrip(Message::Ack {
            ok: true,
            info: " ".to_string(),
        });
        roundtrip(Message::StatusQuery {
            host: "\t\r\n ".to_string(),
        });
    }

    #[test]
    fn fields_and_attributes_in_any_order_first_occurrence_wins() {
        let doc = "<?xml version='1.0'?><!-- c --><msg type='command-ack'>\
                   <ok>true</ok><x><pid>9</pid></x><pid> 12 </pid><host>a<!-- c -->b</host>\
                   <pid>nan</pid><host>z</host></msg>";
        assert_eq!(
            Message::decode(doc).unwrap(),
            Message::CommandAck {
                host: "ab".to_string(),
                pid: 12,
                ok: true,
            }
        );
        let doc = "<msg role='commander' type='register'><host name='ws1'><mem-kb>1</mem-kb>\
                   <n-cpus>2</n-cpus><cpu-speed>1.5</cpu-speed><os>o</os><ip>i</ip></host></msg>";
        assert!(matches!(
            Message::decode(doc),
            Ok(Message::Register {
                role: EntityRole::Commander,
                ..
            })
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let doc = r#"<msg type="warp-drive"/>"#;
        assert!(Message::decode(doc).is_err());
    }

    #[test]
    fn metrics_set_replaces() {
        let mut m = Metrics::new();
        m.set("x", 1.0);
        m.set("x", 2.0);
        assert_eq!(m.get("x"), Some(2.0));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get("y"), None);
    }
}
