//! The decoder the pull reader replaced, kept as a test-side reference
//! model: a recursive-descent parser into an [`XmlElement`] tree, then a
//! walk of that tree into a [`Message`]. The differential properties check
//! that the production decoder returns the same `Ok` value, or an `Err`,
//! for every input this one does.
//!
//! It differs from the code it came from in one line, the whitespace rule
//! both decoders share: a text run that is its element's only content is
//! kept verbatim. The production decoder also refuses to build a tree more
//! than 256 levels deep, where this one recurses until the stack runs out;
//! no generated input nests that deep.

use ars_xmlwire::{
    ApplicationSchema, EntityRole, HostState, HostStatic, Message, Metrics, ProcReport,
    ResourceRequirements, XmlElement, XmlError, XmlNode,
};

/// `Message::decode` as it was: parse to a tree, then walk it.
pub fn decode(doc: &str) -> Result<Message, XmlError> {
    from_xml(&parse(doc)?)
}

/// Parse a document (optionally starting with an XML declaration and
/// comments) into its root element.
pub fn parse(input: &str) -> Result<XmlElement, XmlError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_prolog()?;
    let root = p.element()?;
    p.skip_ws_and_comments()?;
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> XmlError {
        XmlError::Syntax(self.pos, msg.to_string())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                match find_sub(&self.bytes[self.pos + 4..], b"-->") {
                    Some(i) => self.pos += 4 + i + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            match find_sub(&self.bytes[self.pos..], b"?>") {
                Some(i) => self.pos += i + 2,
                None => return Err(self.err("unterminated xml declaration")),
            }
        }
        self.skip_ws_and_comments()
    }

    /// Scan a name token, returning its byte range.
    fn name_span(&mut self) -> Result<(usize, usize), XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok((start, self.pos))
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let (start, end) = self.name_span()?;
        Ok(String::from_utf8_lossy(&self.bytes[start..end]).into_owned())
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn element(&mut self) -> Result<XmlElement, XmlError> {
        self.expect(b'<')?;
        let name = self.name()?;
        let mut el = XmlElement::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(el); // self-closing
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = self.peek().ok_or_else(|| self.err("eof in attribute"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("attribute value must be quoted"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = &self.bytes[start..self.pos];
                    self.pos += 1;
                    let value = decode_entities(raw, start)?;
                    el.attrs.push((key, value));
                }
                None => return Err(self.err("eof inside start tag")),
            }
        }
        // Content until the matching end tag.
        let content_at = self.pos;
        loop {
            if self.starts_with("<!--") {
                match find_sub(&self.bytes[self.pos + 4..], b"-->") {
                    Some(i) => self.pos += 4 + i + 3,
                    None => return Err(self.err("unterminated comment")),
                }
                continue;
            }
            if self.starts_with("</") {
                self.pos += 2;
                // Compare the end tag in place; allocating is only needed to
                // report a mismatch.
                let (start, end) = self.name_span()?;
                if self.bytes[start..end] != *el.name.as_bytes() {
                    let end_name = String::from_utf8_lossy(&self.bytes[start..end]);
                    return Err(self.err(&format!(
                        "mismatched end tag </{end_name}> for <{}>",
                        el.name
                    )));
                }
                self.skip_ws();
                self.expect(b'>')?;
                return Ok(el);
            }
            match self.peek() {
                Some(b'<') => {
                    let child = self.element()?;
                    el.children.push(XmlNode::Element(child));
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let text = decode_entities(&self.bytes[start..self.pos], start)?;
                    // A run that is the element's only content is kept
                    // verbatim; whitespace-only runs beside child elements
                    // or comments are formatting.
                    let sole = start == content_at && self.starts_with("</");
                    if sole || !text.trim().is_empty() {
                        el.children.push(XmlNode::Text(text));
                    }
                }
                None => return Err(self.err("eof inside element content")),
            }
        }
    }
}

fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn decode_entities(raw: &[u8], at: usize) -> Result<String, XmlError> {
    let s = String::from_utf8_lossy(raw);
    if !s.contains('&') {
        return Ok(s.into_owned());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &s[i + 1..];
        let semi = rest.find(';').ok_or(XmlError::Syntax(
            at + i,
            "unterminated entity reference".to_string(),
        ))?;
        let entity = &rest[..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16).map_err(|_| {
                    XmlError::Syntax(at + i, format!("bad character reference &{entity};"))
                })?;
                out.push(char::from_u32(code).ok_or(XmlError::Syntax(
                    at + i,
                    format!("invalid character reference &{entity};"),
                ))?);
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..].parse().map_err(|_| {
                    XmlError::Syntax(at + i, format!("bad character reference &{entity};"))
                })?;
                out.push(char::from_u32(code).ok_or(XmlError::Syntax(
                    at + i,
                    format!("invalid character reference &{entity};"),
                ))?);
            }
            _ => {
                return Err(XmlError::Syntax(
                    at + i,
                    format!("unknown entity &{entity};"),
                ))
            }
        }
        // Skip the consumed entity body and semicolon.
        for _ in 0..semi + 1 {
            chars.next();
        }
    }
    Ok(out)
}

/// The DOM walk that decoded a `<msg>` element.
pub fn from_xml(el: &XmlElement) -> Result<Message, XmlError> {
    if el.name != "msg" {
        return Err(XmlError::UnexpectedRoot(el.name.clone()));
    }
    let ty = el
        .get_attr("type")
        .ok_or_else(|| XmlError::MissingField("type".to_string()))?;
    match ty {
        "register" => {
            let role_text = el.get_attr("role").unwrap_or("monitor");
            let role = EntityRole::parse(role_text)
                .ok_or_else(|| XmlError::BadField("role".to_string(), role_text.to_string()))?;
            let h = el
                .find("host")
                .ok_or_else(|| XmlError::MissingField("host".to_string()))?;
            Ok(Message::Register {
                role,
                host: HostStatic {
                    name: h
                        .get_attr("name")
                        .ok_or_else(|| XmlError::MissingField("name".to_string()))?
                        .to_string(),
                    ip: h
                        .field_text("ip")
                        .ok_or_else(|| XmlError::MissingField("ip".to_string()))?,
                    os: h
                        .field_text("os")
                        .ok_or_else(|| XmlError::MissingField("os".to_string()))?,
                    cpu_speed: h.field_parse("cpu-speed")?,
                    n_cpus: h.field_parse("n-cpus")?,
                    mem_kb: h.field_parse("mem-kb")?,
                },
            })
        }
        "heartbeat" => {
            let state_text = el
                .field_text("state")
                .ok_or_else(|| XmlError::MissingField("state".to_string()))?;
            let state = HostState::parse(&state_text)
                .ok_or_else(|| XmlError::BadField("state".to_string(), state_text))?;
            let mut metrics = Metrics::new();
            if let Some(m) = el.find("metrics") {
                for metric in m.find_all("metric") {
                    let name = metric
                        .get_attr("name")
                        .ok_or_else(|| XmlError::MissingField("metric name".to_string()))?;
                    let text = metric.text_str().map_or_else(
                        || std::borrow::Cow::Owned(metric.text_content()),
                        std::borrow::Cow::Borrowed,
                    );
                    let value: f64 = text
                        .trim()
                        .parse()
                        .map_err(|_| XmlError::BadField(name.to_string(), text.to_string()))?;
                    metrics.set(name, value);
                }
            }
            let mut procs = Vec::new();
            if let Some(ps) = el.find("procs") {
                for p in ps.find_all("proc") {
                    procs.push(ProcReport {
                        pid: attr_parse(p, "pid")?,
                        app: p
                            .get_attr("app")
                            .ok_or_else(|| XmlError::MissingField("app".to_string()))?
                            .to_string(),
                        start_time_s: attr_parse(p, "start")?,
                        est_exec_time_s: attr_parse(p, "est")?,
                    });
                }
            }
            Ok(Message::Heartbeat {
                host: el
                    .field_text("host")
                    .ok_or_else(|| XmlError::MissingField("host".to_string()))?,
                state,
                metrics,
                procs,
            })
        }
        "migration-command" => {
            let schema_el = el
                .find("application-schema")
                .ok_or_else(|| XmlError::MissingField("application-schema".to_string()))?;
            Ok(Message::MigrationCommand {
                host: el
                    .field_text("host")
                    .ok_or_else(|| XmlError::MissingField("host".to_string()))?,
                pid: el.field_parse("pid")?,
                dest: el
                    .field_text("dest")
                    .ok_or_else(|| XmlError::MissingField("dest".to_string()))?,
                dest_port: el.field_parse("dest-port")?,
                schema: ApplicationSchema::from_xml(schema_el)?,
            })
        }
        "candidate-request" => {
            let req = el
                .find("requirements")
                .ok_or_else(|| XmlError::MissingField("requirements".to_string()))?;
            Ok(Message::CandidateRequest {
                host: el
                    .field_text("host")
                    .ok_or_else(|| XmlError::MissingField("host".to_string()))?,
                requirements: ResourceRequirements {
                    mem_kb: req.field_parse("mem-kb")?,
                    disk_kb: req.field_parse("disk-kb")?,
                    min_cpu_speed: req.field_parse("min-cpu-speed")?,
                },
            })
        }
        "candidate-reply" => Ok(Message::CandidateReply {
            dest: el.field_text("dest"),
        }),
        "migration-complete" => Ok(Message::MigrationComplete {
            pid: el.field_parse("pid")?,
            from: el
                .field_text("from")
                .ok_or_else(|| XmlError::MissingField("from".to_string()))?,
            to: el
                .field_text("to")
                .ok_or_else(|| XmlError::MissingField("to".to_string()))?,
            migration_time_s: el.field_parse("migration-time-s")?,
        }),
        "status-query" => Ok(Message::StatusQuery {
            host: el
                .field_text("host")
                .ok_or_else(|| XmlError::MissingField("host".to_string()))?,
        }),
        "command-ack" => Ok(Message::CommandAck {
            host: el
                .field_text("host")
                .ok_or_else(|| XmlError::MissingField("host".to_string()))?,
            pid: el.field_parse("pid")?,
            ok: el.field_parse("ok")?,
        }),
        "re-register" => Ok(Message::ReRegister {
            host: el
                .field_text("host")
                .ok_or_else(|| XmlError::MissingField("host".to_string()))?,
        }),
        "domain-report" => {
            let h = el
                .find("health")
                .ok_or_else(|| XmlError::MissingField("health".to_string()))?;
            Ok(Message::DomainReport {
                domain: el
                    .field_text("domain")
                    .ok_or_else(|| XmlError::MissingField("domain".to_string()))?,
                free: h.field_parse("free")?,
                busy: h.field_parse("busy")?,
                overloaded: h.field_parse("overloaded")?,
                unavailable: h.field_parse("unavailable")?,
                load_sum: h.field_parse("load-sum")?,
                load_samples: h.field_parse("load-samples")?,
            })
        }
        "ack" => Ok(Message::Ack {
            ok: el.field_parse("ok")?,
            info: el.field_text("info").unwrap_or_default(),
        }),
        other => Err(XmlError::BadField("type".to_string(), other.to_string())),
    }
}

fn attr_parse<T: std::str::FromStr>(el: &XmlElement, key: &str) -> Result<T, XmlError> {
    let raw = el
        .get_attr(key)
        .ok_or_else(|| XmlError::MissingField(key.to_string()))?;
    raw.parse()
        .map_err(|_| XmlError::BadField(key.to_string(), raw.to_string()))
}
