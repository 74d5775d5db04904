//! Minimal XML document model, writer and parser.
//!
//! The paper's entities talk "a custom XML based protocol … transmitted
//! using plain ASCII format" (§3.3). This module implements exactly the
//! subset that protocol needs: elements, attributes, text content, comments,
//! the XML declaration, and the five predefined entities plus numeric
//! character references. No namespaces, DTDs or CDATA.

use std::fmt;

/// A node in an XML tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A child element.
    Element(XmlElement),
    /// Character data (entity-decoded).
    Text(String),
}

/// An XML element: name, attributes, ordered children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlElement {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<XmlNode>,
}

impl XmlElement {
    /// Create an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Builder: add an attribute.
    pub fn attr(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        self.attrs.push((key.into(), value.to_string()));
        self
    }

    /// Builder: add a child element.
    pub fn child(mut self, child: XmlElement) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Builder: add a text child.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Builder: add a child element containing only text — the common
    /// `<key>value</key>` pattern of the wire protocol.
    pub fn field(self, name: impl Into<String>, value: impl fmt::Display) -> Self {
        self.child(XmlElement::new(name).text(value.to_string()))
    }

    /// Attribute lookup.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First child element with the given name.
    pub fn find(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find_map(|n| match n {
            XmlNode::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// All child elements with the given name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> {
        self.children.iter().filter_map(move |n| match n {
            XmlNode::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// All child elements.
    pub fn elements(&self) -> impl Iterator<Item = &XmlElement> {
        self.children.iter().filter_map(|n| match n {
            XmlNode::Element(e) => Some(e),
            _ => None,
        })
    }

    /// Concatenated text content of this element (direct text children only).
    pub fn text_content(&self) -> String {
        let mut s = String::new();
        for n in &self.children {
            if let XmlNode::Text(t) = n {
                s.push_str(t);
            }
        }
        s
    }

    /// Borrowed text content when this element holds exactly one text child —
    /// the `<key>value</key>` shape of every protocol field. Returns `None`
    /// for mixed or element-only content; callers fall back to
    /// [`text_content`](Self::text_content).
    pub fn text_str(&self) -> Option<&str> {
        match self.children.as_slice() {
            [XmlNode::Text(t)] => Some(t),
            _ => None,
        }
    }

    /// Text content of the first child element with the given name.
    pub fn field_text(&self, name: &str) -> Option<String> {
        self.find(name).map(XmlElement::text_content)
    }

    /// Parse the text of child `name` as `T`.
    pub fn field_parse<T: std::str::FromStr>(&self, name: &str) -> Result<T, XmlError> {
        let child = self
            .find(name)
            .ok_or_else(|| XmlError::MissingField(name.to_string()))?;
        // Borrow the text in the single-text-child case; only the error path
        // and mixed content allocate.
        let text = match child.text_str() {
            Some(t) => t,
            None => {
                let owned = child.text_content();
                return owned
                    .trim()
                    .parse()
                    .map_err(|_| XmlError::BadField(name.to_string(), owned));
            }
        };
        text.trim()
            .parse()
            .map_err(|_| XmlError::BadField(name.to_string(), text.to_string()))
    }

    /// Serialize to a compact single-line document (no declaration).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut XmlWriter::new(&mut out));
        out
    }

    /// Serialize with the `<?xml … ?>` declaration, as sent on the wire.
    pub fn to_document(&self) -> String {
        document(self)
    }
}

impl WriteXml for XmlElement {
    fn write_xml<S: XmlSink>(&self, w: &mut XmlWriter<'_, S>) {
        w.begin(&self.name);
        for (k, v) in &self.attrs {
            w.attr(k, v);
        }
        if self.children.is_empty() {
            w.empty();
            return;
        }
        w.content();
        for child in &self.children {
            match child {
                XmlNode::Element(e) => e.write_xml(w),
                XmlNode::Text(t) => w.text(t),
            }
        }
        w.close(&self.name);
    }
}

// --- streaming writer -------------------------------------------------------

/// The declaration every wire document starts with.
const XML_DECLARATION: &str = "<?xml version=\"1.0\" encoding=\"US-ASCII\"?>";

/// Where [`XmlWriter`] output goes. Two impls: `String` builds the
/// document, [`ByteCount`] measures it without materializing a byte. Both
/// receive the identical sequence of pieces, so a count is exact by
/// construction.
pub(crate) trait XmlSink {
    /// Append `s` verbatim.
    fn put(&mut self, s: &str);
}

impl XmlSink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// A sink that keeps only the length of what was written.
struct ByteCount(usize);

impl XmlSink for ByteCount {
    fn put(&mut self, s: &str) {
        self.0 += s.len();
    }
}

/// Streams tags, attributes and text into a sink, applying the one escape
/// rule on the way. Start tags are split so attributes can follow:
/// [`begin`](Self::begin), any [`attr`](Self::attr)s, then
/// [`content`](Self::content) or [`empty`](Self::empty).
pub(crate) struct XmlWriter<'a, S: XmlSink> {
    out: &'a mut S,
}

impl<'a, S: XmlSink> XmlWriter<'a, S> {
    pub(crate) fn new(out: &'a mut S) -> Self {
        XmlWriter { out }
    }

    /// `<name` — the start tag stays open for attributes.
    pub(crate) fn begin(&mut self, name: &str) {
        self.out.put("<");
        self.out.put(name);
    }

    /// ` key="value"`, value escaped.
    pub(crate) fn attr(&mut self, key: &str, value: &str) {
        self.attr_start(key);
        escape(value, self.out, true);
        self.out.put("\"");
    }

    /// ` key="value"` for a number, which never needs escaping.
    pub(crate) fn attr_display(&mut self, key: &str, value: impl fmt::Display) {
        self.attr_start(key);
        self.display(value);
        self.out.put("\"");
    }

    fn attr_start(&mut self, key: &str) {
        self.out.put(" ");
        self.out.put(key);
        self.out.put("=\"");
    }

    /// `>` — the start tag is complete and content follows.
    pub(crate) fn content(&mut self) {
        self.out.put(">");
    }

    /// `/>` — the element has no content.
    pub(crate) fn empty(&mut self) {
        self.out.put("/>");
    }

    /// `<name>` — an attribute-less start tag.
    pub(crate) fn open(&mut self, name: &str) {
        self.begin(name);
        self.content();
    }

    /// `</name>`
    pub(crate) fn close(&mut self, name: &str) {
        self.out.put("</");
        self.out.put(name);
        self.out.put(">");
    }

    /// Character data, escaped.
    pub(crate) fn text(&mut self, text: &str) {
        escape(text, self.out, false);
    }

    /// A number or flag as character data (`Display` form, never escaped).
    pub(crate) fn display(&mut self, value: impl fmt::Display) {
        struct Put<'b, S>(&'b mut S);
        impl<S: XmlSink> fmt::Write for Put<'_, S> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.put(s);
                Ok(())
            }
        }
        // Sinks cannot fail, and neither can the numbers' `Display`.
        let _ = fmt::write(&mut Put(self.out), format_args!("{value}"));
    }

    /// `<name>text</name>`, text escaped — the protocol's field shape.
    pub(crate) fn field(&mut self, name: &str, text: &str) {
        self.open(name);
        self.text(text);
        self.close(name);
    }

    /// `<name>value</name>` for a number or flag.
    pub(crate) fn field_display(&mut self, name: &str, value: impl fmt::Display) {
        self.open(name);
        self.display(value);
        self.close(name);
    }
}

/// The one escape rule: `&`, `<` and `>` always, `"` inside attribute
/// values. Clean runs between escapes go to the sink wholesale.
fn escape<S: XmlSink>(s: &str, out: &mut S, in_attr: bool) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if in_attr => "&quot;",
            _ => continue,
        };
        // `i` is an ASCII byte, hence a char boundary.
        out.put(&s[clean..i]);
        out.put(entity);
        clean = i + 1;
    }
    out.put(&s[clean..]);
}

/// A value with an XML element form, written through [`XmlWriter`] — so
/// the same code yields the document and its exact length.
pub(crate) trait WriteXml {
    /// Stream the element into `w`.
    fn write_xml<S: XmlSink>(&self, w: &mut XmlWriter<'_, S>);
}

/// `value` as a wire document: the declaration plus its element. The
/// buffer is pre-sized for a full heartbeat (≈ 620 B) or a migration
/// command, so protocol messages are written without regrowing.
pub(crate) fn document(value: &impl WriteXml) -> String {
    let mut doc = String::with_capacity(1024);
    doc.push_str(XML_DECLARATION);
    value.write_xml(&mut XmlWriter::new(&mut doc));
    doc
}

/// Exactly `document(value).len()`, computed by the same writer into a
/// [`ByteCount`] — nothing is materialized.
pub(crate) fn document_len(value: &impl WriteXml) -> usize {
    let mut n = ByteCount(XML_DECLARATION.len());
    value.write_xml(&mut XmlWriter::new(&mut n));
    n.0
}

/// Errors produced while parsing or interpreting XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Syntax error with byte offset and description.
    Syntax(usize, String),
    /// A required child element was absent.
    MissingField(String),
    /// A child element's text failed to parse (field name, text).
    BadField(String, String),
    /// The document's root element had an unexpected name.
    UnexpectedRoot(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Syntax(pos, msg) => write!(f, "xml syntax error at byte {pos}: {msg}"),
            XmlError::MissingField(name) => write!(f, "missing field <{name}>"),
            XmlError::BadField(name, text) => {
                write!(f, "field <{name}> has unparsable value {text:?}")
            }
            XmlError::UnexpectedRoot(name) => write!(f, "unexpected root element <{name}>"),
        }
    }
}

impl std::error::Error for XmlError {}

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
                    // Whitespace-only runs between elements are formatting,
                    // not data; drop them like the paper's ad-hoc parser.
                    if !text.trim().is_empty() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_serialize() {
        let el = XmlElement::new("msg")
            .attr("type", "heartbeat")
            .field("host", "ws1")
            .field("load", 0.97);
        assert_eq!(
            el.to_xml(),
            "<msg type=\"heartbeat\"><host>ws1</host><load>0.97</load></msg>"
        );
    }

    #[test]
    fn self_closing_when_empty() {
        assert_eq!(XmlElement::new("ack").to_xml(), "<ack/>");
    }

    #[test]
    fn parse_simple_document() {
        let doc = r#"<?xml version="1.0"?><msg type="register"><host>ws1</host></msg>"#;
        let el = parse(doc).unwrap();
        assert_eq!(el.name, "msg");
        assert_eq!(el.get_attr("type"), Some("register"));
        assert_eq!(el.field_text("host").unwrap(), "ws1");
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let el = XmlElement::new("schema")
            .attr("app", "test_tree")
            .child(
                XmlElement::new("resources")
                    .field("mem_kb", 4096)
                    .field("disk_kb", 1024),
            )
            .field("note", "a < b & c > d \"quoted\"");
        let parsed = parse(&el.to_document()).unwrap();
        assert_eq!(parsed, el);
    }

    #[test]
    fn entities_decode() {
        let el = parse("<x>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</x>").unwrap();
        assert_eq!(el.text_content(), "<tag> & \"q\" 'a' AB");
    }

    #[test]
    fn comments_and_whitespace_skipped() {
        let doc = "<?xml version=\"1.0\"?>\n<!-- hello -->\n<root>\n  <a/>\n  <!-- inner -->\n  <b/>\n</root>\n";
        let el = parse(doc).unwrap();
        assert_eq!(el.elements().count(), 2);
        assert!(el.find("a").is_some());
        assert!(el.find("b").is_some());
    }

    #[test]
    fn mismatched_tags_error() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(e, XmlError::Syntax(_, _)));
    }

    #[test]
    fn trailing_garbage_error() {
        let e = parse("<a/>junk").unwrap_err();
        assert!(matches!(e, XmlError::Syntax(_, _)));
    }

    #[test]
    fn unknown_entity_error() {
        let e = parse("<a>&nope;</a>").unwrap_err();
        assert!(matches!(e, XmlError::Syntax(_, _)));
    }

    #[test]
    fn field_parse_typed() {
        let el = parse("<m><n>42</n><f> 2.5 </f></m>").unwrap();
        assert_eq!(el.field_parse::<u32>("n").unwrap(), 42);
        assert_eq!(el.field_parse::<f64>("f").unwrap(), 2.5);
        assert!(matches!(
            el.field_parse::<u32>("missing"),
            Err(XmlError::MissingField(_))
        ));
        assert!(matches!(
            el.field_parse::<u32>("f"),
            Err(XmlError::BadField(_, _))
        ));
    }

    #[test]
    fn attributes_with_single_quotes() {
        let el = parse("<a k='v \"w\"'/>").unwrap();
        assert_eq!(el.get_attr("k"), Some("v \"w\""));
    }

    #[test]
    fn nested_repeated_elements() {
        let el = parse("<hosts><h>a</h><h>b</h><h>c</h></hosts>").unwrap();
        let names: Vec<String> = el.find_all("h").map(|e| e.text_content()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
