//! Minimal XML document model, writer and pull reader.
//!
//! The paper's entities talk "a custom XML based protocol … transmitted
//! using plain ASCII format" (§3.3). This module implements exactly the
//! subset that protocol needs: elements, attributes, text content, comments,
//! the XML declaration, and the five predefined entities plus numeric
//! character references. No namespaces, DTDs or CDATA.
//!
//! One lexer reads it: [`Reader`], a pull reader that yields start tags,
//! text runs and end tags straight from the input bytes, finding `<`, the
//! closing quote and `&` eight bytes at a time. Protocol messages decode
//! from its events without building a tree
//! ([`Message::decode`](crate::Message::decode)); [`parse`] builds the
//! [`XmlElement`] tree on the same events for the documents that are read
//! once — rule sets and application schemas.
//!
//! Whitespace: a text run that is its element's only content is kept
//! verbatim; whitespace-only runs between child elements or comments are
//! formatting and are dropped.

use std::borrow::Cow;
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

/// Where [`XmlWriter`] output goes. Three impls: `String` builds the
/// document, `Vec<u8>` appends it to a socket's write buffer, and
/// [`ByteCount`] measures it without materializing a byte. All receive the
/// identical sequence of pieces, so a count is exact by construction.
pub(crate) trait XmlSink {
    /// Append `s` verbatim.
    fn put(&mut self, s: &str);
}

impl XmlSink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl XmlSink for Vec<u8> {
    fn put(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
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
/// values, and the line breaks `\n` / `\r` as character references — so
/// every document is one line, whatever its strings hold, and the newline
/// framing of the wire can never split it. Clean runs between escapes go to
/// the sink wholesale.
fn escape<S: XmlSink>(s: &str, out: &mut S, in_attr: bool) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if in_attr => "&quot;",
            b'\n' => "&#10;",
            b'\r' => "&#13;",
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

/// Append `document(value)` to `out` without building it separately.
pub(crate) fn document_into(value: &impl WriteXml, out: &mut Vec<u8>) {
    out.put(XML_DECLARATION);
    value.write_xml(&mut XmlWriter::new(out));
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
    let mut r = Reader::new(input);
    let root = r.root()?;
    let el = r.element(root)?;
    r.finish()?;
    Ok(el)
}

// --- pull reader --------------------------------------------------------------

/// Deepest tree [`parse`] builds. Protocol documents and rule sets nest a
/// few levels. A tree is dropped recursively, so a deeper one — a frame of
/// nested tags is cheap to send — could overflow the stack of the thread
/// that decoded it and abort the process.
const MAX_TREE_DEPTH: usize = 256;

/// One step of the [`Reader`].
pub(crate) enum Event<'a> {
    /// A start tag. A self-closing tag yields `Start` and then `End`.
    Start(Tag<'a>),
    /// A run of character data, entity-decoded: borrowed from the input
    /// unless it held an entity or character reference.
    Text(Cow<'a, str>),
    /// The end tag of the innermost open element (already checked to match).
    End,
}

/// A start tag: its name and the raw span of its attributes. The span is
/// checked (syntax and entities) when the tag is read; values are decoded
/// only when looked up.
#[derive(Clone, Copy)]
pub(crate) struct Tag<'a> {
    /// Tag name.
    pub(crate) name: &'a str,
    /// Everything between the name and the closing `>` or `/>`.
    attrs: &'a str,
    /// Byte offset of `attrs` in the document, for error positions.
    at: usize,
}

impl<'a> Tag<'a> {
    /// Value of the first attribute named `key`, entity-decoded.
    pub(crate) fn attr(&self, key: &str) -> Result<Option<Cow<'a, str>>, XmlError> {
        for (name, value, at) in self.raw_attrs() {
            if name == key {
                return decode_entities(value, at).map(Some);
            }
        }
        Ok(None)
    }

    /// The attributes in document order as `(name, raw value, offset)`.
    fn raw_attrs(&self) -> impl Iterator<Item = (&'a str, &'a str, usize)> {
        let (src, base) = (self.attrs, self.at);
        let b = src.as_bytes();
        let mut pos = 0;
        // The span was checked when the tag was read: whitespace-separated
        // `name = "value"` pairs, so a `=` ends each name and the quote
        // after it opens the value.
        std::iter::from_fn(move || {
            pos = skip_ws(b, pos);
            let eq = pos + find_byte(&b[pos..], b'=')?;
            let name = src[pos..eq].trim_end_matches([' ', '\t', '\r', '\n']);
            let open = skip_ws(b, eq + 1);
            let quote = *b.get(open)?;
            let end = open + 1 + find_byte(&b[open + 1..], quote)?;
            pos = end + 1;
            Some((name, &src[open + 1..end], base + open + 1))
        })
    }

    /// This tag as a childless tree element.
    fn to_element(self) -> Result<XmlElement, XmlError> {
        let mut el = XmlElement::new(self.name);
        for (name, value, at) in self.raw_attrs() {
            el.attrs
                .push((name.to_string(), decode_entities(value, at)?.into_owned()));
        }
        Ok(el)
    }
}

/// The pull reader: the crate's one XML lexer.
///
/// [`next`](Self::next) yields the document's events in order and checks
/// well-formedness on the way — names, quoting, entities in every text run
/// and attribute value (looked up or not), matching end tags, nothing but
/// whitespace and comments around the root — so a consumer that reads
/// through the root's `End` has validated the whole document.
pub(crate) struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Names of the open elements, innermost last.
    open: Vec<&'a str>,
    /// The last event was a non-empty start tag (for the sole-content
    /// whitespace rule).
    after_start: bool,
    /// A self-closing tag was returned; its `End` comes next.
    pending_end: bool,
    started: bool,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            open: Vec::with_capacity(8),
            after_start: false,
            pending_end: false,
            started: false,
        }
    }

    fn err(&self, msg: &str) -> XmlError {
        XmlError::Syntax(self.pos, msg.to_string())
    }

    fn rest(&self) -> &'a [u8] {
        &self.src.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn skip_ws(&mut self) {
        self.pos = skip_ws(self.src.as_bytes(), self.pos);
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let (start, end) = name_span(self.src.as_bytes(), self.pos);
        if start == end {
            return Err(self.err("expected a name"));
        }
        self.pos = end;
        Ok(&self.src[start..end])
    }

    fn skip_comment(&mut self) -> Result<(), XmlError> {
        match find_sub(&self.rest()[4..], b"-->") {
            Some(i) => {
                self.pos += 4 + i + 3;
                Ok(())
            }
            None => Err(self.err("unterminated comment")),
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if !self.rest().starts_with(b"<!--") {
                return Ok(());
            }
            self.skip_comment()?;
        }
    }

    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.rest().starts_with(b"<?xml") {
            match find_sub(self.rest(), b"?>") {
                Some(i) => self.pos += i + 2,
                None => return Err(self.err("unterminated xml declaration")),
            }
        }
        self.skip_ws_and_comments()
    }

    /// The next event; `None` once the root element has closed.
    pub(crate) fn next(&mut self) -> Result<Option<Event<'a>>, XmlError> {
        if self.pending_end {
            self.pending_end = false;
            return self.close().map(Some);
        }
        if self.open.is_empty() {
            if self.started {
                return Ok(None);
            }
            self.started = true;
            self.skip_prolog()?;
            return self.start_tag().map(Some);
        }
        loop {
            let rest = self.rest();
            match rest.first() {
                None => return Err(self.err("eof inside element content")),
                Some(b'<') if rest.starts_with(b"<!--") => {
                    self.skip_comment()?;
                    self.after_start = false;
                }
                Some(b'<') if rest.get(1) == Some(&b'/') => return self.end_tag().map(Some),
                Some(b'<') => return self.start_tag().map(Some),
                Some(_) => {
                    if let Some(text) = self.text_run()? {
                        return Ok(Some(Event::Text(text)));
                    }
                }
            }
        }
    }

    /// `<name attr="v" …>` or `<name … />`, attributes checked in place.
    fn start_tag(&mut self) -> Result<Event<'a>, XmlError> {
        self.expect(b'<')?;
        let name = self.name()?;
        let attrs_at = self.pos;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    let tag = self.tag(name, attrs_at);
                    self.pos += 1;
                    self.expect(b'>')?;
                    self.pending_end = true;
                    self.after_start = false;
                    self.open.push(name);
                    return Ok(Event::Start(tag));
                }
                Some(b'>') => {
                    let tag = self.tag(name, attrs_at);
                    self.pos += 1;
                    self.after_start = true;
                    self.open.push(name);
                    return Ok(Event::Start(tag));
                }
                Some(_) => self.attribute()?,
                None => return Err(self.err("eof inside start tag")),
            }
        }
    }

    /// Check one `name = "value"` (or single-quoted) attribute, entities
    /// included, and step past it.
    fn attribute(&mut self) -> Result<(), XmlError> {
        self.name()?;
        self.skip_ws();
        self.expect(b'=')?;
        self.skip_ws();
        let quote = self.peek().ok_or_else(|| self.err("eof in attribute"))?;
        if quote != b'"' && quote != b'\'' {
            return Err(self.err("attribute value must be quoted"));
        }
        let start = self.pos + 1;
        let len = find_byte(&self.src.as_bytes()[start..], quote)
            .ok_or_else(|| self.err("unterminated attribute value"))?;
        self.pos = start + len + 1;
        decode_entities(&self.src[start..start + len], start)?;
        Ok(())
    }

    fn tag(&self, name: &'a str, attrs_at: usize) -> Tag<'a> {
        Tag {
            name,
            attrs: &self.src[attrs_at..self.pos],
            at: attrs_at,
        }
    }

    /// `</name>`, matched against the innermost open element.
    fn end_tag(&mut self) -> Result<Event<'a>, XmlError> {
        self.pos += 2;
        let name = self.name()?;
        let open = self.open.last().copied().unwrap_or_default();
        if name != open {
            return Err(self.err(&format!("mismatched end tag </{name}> for <{open}>")));
        }
        self.skip_ws();
        self.expect(b'>')?;
        self.close()
    }

    /// Pop the innermost element; closing the root also checks that only
    /// whitespace and comments follow it.
    fn close(&mut self) -> Result<Event<'a>, XmlError> {
        self.open.pop();
        self.after_start = false;
        if self.open.is_empty() {
            self.skip_ws_and_comments()?;
            if self.pos != self.src.len() {
                return Err(self.err("trailing content after root element"));
            }
        }
        Ok(Event::End)
    }

    /// Character data up to the next `<`. `None` when the run is
    /// whitespace-only formatting rather than its element's sole content.
    fn text_run(&mut self) -> Result<Option<Cow<'a, str>>, XmlError> {
        let start = self.pos;
        self.pos = find_byte(self.rest(), b'<').map_or(self.src.len(), |i| start + i);
        let text = decode_entities(&self.src[start..self.pos], start)?;
        let sole = std::mem::take(&mut self.after_start) && self.rest().starts_with(b"</");
        Ok((sole || !text.trim().is_empty()).then_some(text))
    }

    /// The root start tag: the document's first event.
    pub(crate) fn root(&mut self) -> Result<Tag<'a>, XmlError> {
        match self.next()? {
            Some(Event::Start(tag)) => Ok(tag),
            _ => Err(self.err("expected a root element")),
        }
    }

    /// Check that the document ended with the root's `End`.
    pub(crate) fn finish(&mut self) -> Result<(), XmlError> {
        match self.next()? {
            None => Ok(()),
            Some(_) => Err(self.err("content after the root element")),
        }
    }

    /// Consume the rest of the current element through its end tag.
    pub(crate) fn skip(&mut self) -> Result<(), XmlError> {
        let mut depth = 0usize;
        loop {
            match self.next()? {
                Some(Event::Start(_)) => depth += 1,
                Some(Event::Text(_)) => {}
                Some(Event::End) if depth == 0 => return Ok(()),
                Some(Event::End) => depth -= 1,
                None => return Err(self.err("eof inside element content")),
            }
        }
    }

    /// The rest of the current element as its text: the direct text runs
    /// concatenated, child elements skipped, through its end tag.
    pub(crate) fn text(&mut self) -> Result<Cow<'a, str>, XmlError> {
        if let Some(text) = self.plain_field() {
            self.close()?;
            return Ok(Cow::Borrowed(text));
        }
        let mut text = Cow::Borrowed("");
        loop {
            match self.next()? {
                Some(Event::Text(run)) if text.is_empty() => text = run,
                Some(Event::Text(run)) => text.to_mut().push_str(&run),
                Some(Event::Start(_)) => self.skip()?,
                Some(Event::End) => return Ok(text),
                None => return Err(self.err("eof inside element content")),
            }
        }
    }

    /// The shape of nearly every protocol field, read in one step: just
    /// after a start tag, a run without references up to `</name>` of that
    /// tag. Consumes the run and the end tag; `None` (nothing consumed)
    /// for anything else, which the general path handles.
    fn plain_field(&mut self) -> Option<&'a str> {
        let name = self.open.last()?.as_bytes();
        if !self.after_start {
            return None;
        }
        let rest = self.rest();
        let lt = find_either(rest, b'<', b'&')?;
        let end_tag = rest[lt..].strip_prefix(b"</")?.strip_prefix(name)?;
        if end_tag.first() != Some(&b'>') {
            return None;
        }
        let text = &self.src[self.pos..self.pos + lt];
        self.pos += lt + name.len() + 3;
        Some(text)
    }

    /// Fill `slot` from the current element's text unless an earlier
    /// element already filled it (the first occurrence of a field wins;
    /// later ones are skipped).
    pub(crate) fn first_text<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(Cow<'a, str>) -> Result<T, XmlError>,
    ) -> Result<(), XmlError> {
        if slot.is_some() {
            return self.skip();
        }
        *slot = Some(read(self.text()?)?);
        Ok(())
    }

    /// Hand each child element of the current element to `each`, just
    /// after its start tag, through the current element's end tag. `each`
    /// must consume the child through its own end tag. Text directly in
    /// the current element is ignored.
    pub(crate) fn children(
        &mut self,
        mut each: impl FnMut(&mut Self, Tag<'a>) -> Result<(), XmlError>,
    ) -> Result<(), XmlError> {
        loop {
            match self.next()? {
                Some(Event::Start(tag)) => each(self, tag)?,
                Some(Event::Text(_)) => {}
                Some(Event::End) => return Ok(()),
                None => return Err(self.err("eof inside element content")),
            }
        }
    }

    /// The element `tag` opened, as a tree, through its end tag, at most
    /// [`MAX_TREE_DEPTH`] levels deep. Built with an explicit stack, so
    /// nesting costs heap, not call stack.
    pub(crate) fn element(&mut self, tag: Tag<'a>) -> Result<XmlElement, XmlError> {
        let mut stack = vec![tag.to_element()?];
        while let Some(event) = self.next()? {
            match event {
                Event::Start(tag) if stack.len() < MAX_TREE_DEPTH => stack.push(tag.to_element()?),
                Event::Start(_) => return Err(self.err("elements nested too deeply")),
                Event::Text(text) => {
                    if let Some(top) = stack.last_mut() {
                        top.children.push(XmlNode::Text(text.into_owned()));
                    }
                }
                Event::End => {
                    let Some(done) = stack.pop() else { break };
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(XmlNode::Element(done)),
                        None => return Ok(done),
                    }
                }
            }
        }
        Err(self.err("eof inside element content"))
    }
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while matches!(b.get(pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        pos += 1;
    }
    pos
}

/// The name token starting at `pos` as a byte range (empty if none).
fn name_span(b: &[u8], pos: usize) -> (usize, usize) {
    let len = b[pos..]
        .iter()
        .position(|&c| !(c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':')))
        .unwrap_or(b.len() - pos);
    (pos, pos + len)
}

fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

// --- word-at-a-time byte search ----------------------------------------------

const LO_BITS: u64 = u64::from_le_bytes([0x01; 8]);
const HI_BITS: u64 = u64::from_le_bytes([0x80; 8]);

/// The high bit of each byte of `word` equal to `b`. Bytes above the first
/// match may be flagged spuriously (a borrow ripples up), but none below
/// it is, so the lowest flag is always the first match.
fn flag(word: u64, b: u8) -> u64 {
    let x = word ^ (LO_BITS * u64::from(b));
    x.wrapping_sub(LO_BITS) & !x & HI_BITS
}

/// Index of the first byte of `hay` that is `a` or `b`, eight at a time.
fn find_either(hay: &[u8], a: u8, b: u8) -> Option<usize> {
    let (words, tail) = hay.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        let hits = flag(word, a) | flag(word, b);
        if hits != 0 {
            return Some(i * 8 + (hits.trailing_zeros() / 8) as usize);
        }
    }
    let i = tail.iter().position(|&c| c == a || c == b)?;
    Some(words.len() * 8 + i)
}

/// Index of the first `b` in `hay`, eight bytes at a time.
pub(crate) fn find_byte(hay: &[u8], b: u8) -> Option<usize> {
    find_either(hay, b, b)
}

/// Decode entity and character references in `raw` (found at byte `at`);
/// borrowed when there are none.
fn decode_entities(raw: &str, at: usize) -> Result<Cow<'_, str>, XmlError> {
    let Some(first) = find_byte(raw.as_bytes(), b'&') else {
        return Ok(Cow::Borrowed(raw));
    };
    let mut out = String::with_capacity(raw.len());
    let mut amp = first;
    let mut done = 0;
    loop {
        out.push_str(&raw[done..amp]);
        let body_at = amp + 1;
        let semi = find_byte(&raw.as_bytes()[body_at..], b';').ok_or_else(|| {
            XmlError::Syntax(at + amp, "unterminated entity reference".to_string())
        })?;
        let entity = &raw[body_at..body_at + semi];
        out.push(entity_char(entity).ok_or_else(|| {
            XmlError::Syntax(at + amp, format!("bad entity reference &{entity};"))
        })?);
        done = body_at + semi + 1;
        match find_byte(&raw.as_bytes()[done..], b'&') {
            Some(i) => amp = done + i,
            None => break,
        }
    }
    out.push_str(&raw[done..]);
    Ok(Cow::Owned(out))
}

/// The character a reference body (between `&` and `;`) stands for: one of
/// the five predefined entities, `#decimal` or `#xhex`.
fn entity_char(entity: &str) -> Option<char> {
    match entity {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let code = match entity.strip_prefix("#x").or(entity.strip_prefix("#X")) {
                Some(hex) => u32::from_str_radix(hex, 16).ok()?,
                None => entity.strip_prefix('#')?.parse().ok()?,
            };
            char::from_u32(code)
        }
    }
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
        assert_eq!(el.children.len(), 2, "formatting runs are dropped");
        assert!(el.find("a").is_some());
        assert!(el.find("b").is_some());
    }

    #[test]
    fn whitespace_only_sole_content_is_kept() {
        assert_eq!(parse("<a> </a>").unwrap().text_str(), Some(" "));
        assert_eq!(parse("<a>&#32;\t</a>").unwrap().text_str(), Some(" \t"));
        // Beside a child element or a comment, the same run is formatting.
        assert_eq!(parse("<a> <b/> </a>").unwrap().children.len(), 1);
        assert!(parse("<a> <!--c--> </a>").unwrap().children.is_empty());
    }

    #[test]
    fn line_breaks_are_escaped_so_documents_stay_one_line() {
        let el = XmlElement::new("t").attr("k", "a\r\nb").text("c\nd\re");
        let doc = el.to_document();
        assert!(!doc.contains(['\n', '\r']), "{doc}");
        assert!(doc.contains("a&#13;&#10;b") && doc.contains("c&#10;d&#13;e"));
        assert_eq!(parse(&doc).unwrap(), el);
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
        // Checked in attributes too, whether or not anyone looks them up.
        assert!(parse("<a k='&nope;'/>").is_err());
        assert!(parse("<a><b k='&#xD800;'/></a>").is_err());
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

    #[test]
    fn reader_yields_borrowed_text_and_self_closing_ends() {
        let mut r = Reader::new("<a x='1'><b/>t&amp;u<c>v</c></a>");
        let root = r.root().unwrap();
        assert_eq!(
            (root.name, root.attr("x").unwrap().as_deref()),
            ("a", Some("1"))
        );
        assert!(matches!(
            r.next(),
            Ok(Some(Event::Start(Tag { name: "b", .. })))
        ));
        assert!(matches!(r.next(), Ok(Some(Event::End))));
        assert!(matches!(r.next(), Ok(Some(Event::Text(Cow::Owned(t)))) if t == "t&u"));
        assert!(matches!(
            r.next(),
            Ok(Some(Event::Start(Tag { name: "c", .. })))
        ));
        assert!(matches!(
            r.next(),
            Ok(Some(Event::Text(Cow::Borrowed("v"))))
        ));
        assert!(matches!(r.next(), Ok(Some(Event::End))));
        assert!(matches!(r.next(), Ok(Some(Event::End))));
        assert!(matches!(r.next(), Ok(None)));
    }

    #[test]
    fn trees_are_built_to_a_bounded_depth() {
        let nested = |depth: usize| format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        assert!(parse(&nested(MAX_TREE_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_TREE_DEPTH + 1)).is_err());
    }

    #[test]
    fn deep_nesting_is_skipped_without_recursion() {
        let depth = 100_000;
        let doc = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let mut r = Reader::new(&doc);
        r.root().unwrap();
        r.skip().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn byte_search_finds_the_first_match_at_every_offset() {
        for len in 0..40 {
            for at in 0..len {
                for other in [None, Some(at + 1), Some(at + 9)] {
                    let mut hay = vec![b'a'; len];
                    hay[at] = b'<';
                    if let Some(o) = other.filter(|&o| o < len) {
                        hay[o] = b'&';
                    }
                    assert_eq!(find_byte(&hay, b'<'), Some(at));
                    assert_eq!(find_either(&hay, b'&', b'<'), Some(at));
                }
            }
            assert_eq!(find_byte(&vec![0x80; len], b'<'), None);
            assert_eq!(find_byte(&vec![b'<' + 1; len], b'<'), None);
        }
    }
}
