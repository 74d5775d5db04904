//! Binary state codec for process checkpoints.
//!
//! HPCM's "data collection and restoration" serializes a process's live data
//! into a machine-independent stream. This module is the stream format: a
//! tiny length-prefixed little-endian codec with just the primitives the
//! workloads need. Hand-rolled (rather than pulling a serde backend) so the
//! byte counts the migration experiments measure are explicit and stable.
//!
//! A checkpoint crosses the wire *framed*: the payload followed by its
//! [`checksum64`] as an 8-byte little-endian trailer ([`seal_state`] appends
//! it in place, [`unframe_state`] verifies and strips it). The checksum reads
//! the payload a 64-bit word at a time and is guaranteed to catch any change
//! confined to one aligned 8-byte word, so every single-bit and single-byte
//! corruption. Reading never panics: a short or malformed stream is a
//! [`CodecError`] at an offset inside the input.

/// Writes a checkpoint stream.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Fresh empty stream.
    pub fn new() -> Self {
        StateWriter { buf: Vec::new() }
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a u8.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Write a u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an f64.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a bool.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Write length-prefixed bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Write a length-prefixed slice of f64.
    pub fn f64s(&mut self, v: &[f64]) -> &mut Self {
        self.words(v, f64::to_le_bytes)
    }

    /// Write a length-prefixed slice of u64.
    pub fn u64s(&mut self, v: &[u64]) -> &mut Self {
        self.words(v, u64::to_le_bytes)
    }

    /// Length prefix, then the whole array in one grow and one copy pass.
    fn words<T: Copy>(&mut self, v: &[T], le: fn(T) -> [u8; 8]) -> &mut Self {
        self.u64(v.len() as u64);
        let start = self.buf.len();
        self.buf.resize(start + v.len() * 8, 0);
        for (dst, &x) in self.buf[start..].chunks_exact_mut(8).zip(v) {
            dst.copy_from_slice(&le(x));
        }
        self
    }
}

/// Decode error: ran past the end of the stream or hit malformed data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Offset at which decoding failed.
    pub at: usize,
    /// What was being decoded.
    pub what: &'static str,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint decode error at byte {}: {}",
            self.at, self.what
        )
    }
}

impl std::error::Error for CodecError {}

/// Reads a checkpoint stream.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        StateReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        // `get` rather than indexing: a corrupt length field (even one that
        // overflows `pos + n`) must error, not panic or wrap.
        let s = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or(CodecError { at: self.pos, what })?;
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array — how every fixed-width field is read.
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let head = *self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<N>)
            .ok_or(CodecError { at: self.pos, what })?;
        self.pos += N;
        Ok(head)
    }

    /// Read a u8.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let [b] = self.array("u8")?;
        Ok(b)
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array("u32").map(u32::from_le_bytes)
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array("u64").map(u64::from_le_bytes)
    }

    /// Read an f64.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.array("f64").map(f64::from_le_bytes)
    }

    /// Read a bool.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Read length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u64()? as usize;
        self.take(n, "bytes body")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError {
            at: self.pos,
            what: "utf-8 string",
        })
    }

    /// Read a length-prefixed slice of f64.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        self.words("f64s", f64::from_le_bytes)
    }

    /// Read a length-prefixed slice of u64.
    pub fn u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        self.words("u64s", u64::from_le_bytes)
    }

    /// Length prefix, then that many 8-byte words. The body is bounds-checked
    /// before the `Vec` is allocated, so a lying length costs nothing.
    fn words<T>(&mut self, what: &'static str, le: fn([u8; 8]) -> T) -> Result<Vec<T>, CodecError> {
        let at = self.pos;
        let n = self.u64()?;
        let len = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(8))
            .ok_or(CodecError { at, what })?;
        let (words, _) = self.take(len, what)?.as_chunks::<8>();
        Ok(words.iter().map(|&w| le(w)).collect())
    }
}

// --- Checkpoint framing ------------------------------------------------------

/// Odd multipliers (the 64-bit primes of xxHash64): multiplying by an odd
/// constant is a bijection on `u64`.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// The checkpoint integrity checksum: 64 bits, one 8-byte word at a time.
///
/// Four independent lanes each absorb every fourth little-endian word as
/// `lane = ((lane ^ word) * P1).rotate_left(31)`; a short tail is zero-padded
/// to one more word. The lanes, then the length, are folded into one value
/// and avalanched. Each step is a bijection of its state for a fixed word and
/// injective in the word for a fixed state, so two inputs of equal length
/// that differ only inside one aligned 8-byte word always hash differently —
/// in particular every single-bit and single-byte corruption is caught.
pub fn checksum64(bytes: &[u8]) -> u64 {
    #[inline(always)]
    fn absorb(lane: u64, word: [u8; 8]) -> u64 {
        ((lane ^ u64::from_le_bytes(word)).wrapping_mul(P1)).rotate_left(31)
    }
    let mut lanes = [P1, P2, !P1, !P2];
    let (words, tail) = bytes.as_chunks::<8>();
    let (blocks, rest) = words.as_chunks::<4>();
    for block in blocks {
        for (lane, &word) in lanes.iter_mut().zip(block) {
            *lane = absorb(*lane, word);
        }
    }
    // The 0–3 leftover words, then the zero-padded tail (if any), go to the
    // next lanes in order; at most four words remain, so none is dropped.
    let padded = (!tail.is_empty()).then(|| {
        let mut word = [0u8; 8];
        for (w, &b) in word.iter_mut().zip(tail) {
            *w = b;
        }
        word
    });
    for (lane, word) in lanes.iter_mut().zip(rest.iter().copied().chain(padded)) {
        *lane = absorb(*lane, word);
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = ((h ^ lane).wrapping_mul(P2)).rotate_left(27);
    }
    // Final avalanche (the SplitMix64 / MurmurHash3 finaliser).
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Seal a checkpoint for the wire, in place: append the payload's
/// [`checksum64`], little-endian. The destination verifies before
/// restoring ([`unframe_state`]), so a corrupted transfer aborts the
/// migration instead of resurrecting a process from garbage.
pub fn seal_state(payload: &mut Vec<u8>) {
    let sum = checksum64(payload);
    payload.extend_from_slice(&sum.to_le_bytes());
}

/// A sealed copy of `payload` ([`seal_state`] on a fresh `Vec`).
pub fn frame_state(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(payload.len() + 8);
    framed.extend_from_slice(payload);
    seal_state(&mut framed);
    framed
}

/// Verify and strip the [`seal_state`] trailer, returning the payload.
pub fn unframe_state(framed: &[u8]) -> Result<&[u8], CodecError> {
    let (payload, tail) = framed.split_last_chunk::<8>().ok_or(CodecError {
        at: framed.len(),
        what: "checkpoint frame too short",
    })?;
    if u64::from_le_bytes(*tail) != checksum64(payload) {
        return Err(CodecError {
            at: payload.len(),
            what: "checkpoint checksum mismatch",
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = StateWriter::new();
        w.u8(7)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX)
            .f64(-2.5)
            .bool(true)
            .str("test_tree")
            .bytes(&[1, 2, 3])
            .f64s(&[1.0, 2.0])
            .u64s(&[9, 8, 7]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "test_tree");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.f64s().unwrap(), vec![1.0, 2.0]);
        assert_eq!(r.u64s().unwrap(), vec![9, 8, 7]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_stream_errors() {
        let mut w = StateWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..4]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn bogus_length_errors() {
        let mut w = StateWriter::new();
        w.u64(1_000_000); // claims a megabyte follows
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut w = StateWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(r.str().is_err());
    }

    #[test]
    fn overflowing_length_field_errors_cleanly() {
        // A length field claiming usize::MAX elements must not wrap.
        let mut w = StateWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(StateReader::new(&bytes).f64s().is_err());
        assert!(StateReader::new(&bytes).u64s().is_err());
        assert!(StateReader::new(&bytes).bytes().is_err());
    }

    #[test]
    fn frame_roundtrip_and_corruption() {
        let payload = b"checkpoint bytes".to_vec();
        let framed = frame_state(&payload);
        assert_eq!(unframe_state(&framed).unwrap(), payload.as_slice());
        // Flip every bit position in turn: all must be caught.
        for i in 0..framed.len() * 8 {
            let mut bad = framed.clone();
            bad[i / 8] ^= 1 << (i % 8);
            assert!(unframe_state(&bad).is_err(), "bit flip {i} undetected");
        }
        // Truncations must be caught too.
        for n in 0..framed.len() {
            assert!(unframe_state(&framed[..n]).is_err(), "truncation to {n}");
        }
    }

    #[test]
    fn empty_frame_roundtrips() {
        let framed = frame_state(&[]);
        assert_eq!(framed.len(), 8);
        assert_eq!(unframe_state(&framed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn empty_collections() {
        let mut w = StateWriter::new();
        w.f64s(&[]).u64s(&[]).bytes(&[]).str("");
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(r.f64s().unwrap().is_empty());
        assert!(r.u64s().unwrap().is_empty());
        assert!(r.bytes().unwrap().is_empty());
        assert_eq!(r.str().unwrap(), "");
    }
}
