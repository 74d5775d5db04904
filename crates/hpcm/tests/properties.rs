//! Property-based tests for the checkpoint codec, its integrity checksum and
//! framing, and byte-level fuzzing of every checkpoint reader.

use ars_hpcm::{
    checksum64, frame_state, seal_state, unframe_state, CodecError, StateReader, StateWriter,
};
use proptest::prelude::*;

/// One field of a synthetic checkpoint.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    U8(u8),
    U32(u32),
    U64(u64),
    F64(f64),
    Bool(bool),
    Bytes(Vec<u8>),
    Str(String),
    F64s(Vec<f64>),
    U64s(Vec<u64>),
}

fn field_strategy() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<u8>().prop_map(Field::U8),
        any::<u32>().prop_map(Field::U32),
        any::<u64>().prop_map(Field::U64),
        // Finite floats only: NaN breaks equality, and checkpoints never
        // carry NaN (progress counters and sizes).
        (-1e300f64..1e300).prop_map(Field::F64),
        any::<bool>().prop_map(Field::Bool),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Field::Bytes),
        "[ -~]{0,32}".prop_map(Field::Str),
        proptest::collection::vec(-1e300f64..1e300, 0..16).prop_map(Field::F64s),
        proptest::collection::vec(any::<u64>(), 0..16).prop_map(Field::U64s),
    ]
}

proptest! {
    /// Arbitrary field sequences round-trip through the codec.
    #[test]
    fn codec_roundtrip(fields in proptest::collection::vec(field_strategy(), 0..32)) {
        let mut w = StateWriter::new();
        for f in &fields {
            match f {
                Field::U8(v) => { w.u8(*v); }
                Field::U32(v) => { w.u32(*v); }
                Field::U64(v) => { w.u64(*v); }
                Field::F64(v) => { w.f64(*v); }
                Field::Bool(v) => { w.bool(*v); }
                Field::Bytes(v) => { w.bytes(v); }
                Field::Str(v) => { w.str(v); }
                Field::F64s(v) => { w.f64s(v); }
                Field::U64s(v) => { w.u64s(v); }
            }
        }
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        for f in &fields {
            let back = match f {
                Field::U8(_) => Field::U8(r.u8().unwrap()),
                Field::U32(_) => Field::U32(r.u32().unwrap()),
                Field::U64(_) => Field::U64(r.u64().unwrap()),
                Field::F64(_) => Field::F64(r.f64().unwrap()),
                Field::Bool(_) => Field::Bool(r.bool().unwrap()),
                Field::Bytes(_) => Field::Bytes(r.bytes().unwrap().to_vec()),
                Field::Str(_) => Field::Str(r.str().unwrap()),
                Field::F64s(_) => Field::F64s(r.f64s().unwrap()),
                Field::U64s(_) => Field::U64s(r.u64s().unwrap()),
            };
            prop_assert_eq!(&back, f);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Truncating a stream anywhere never panics — every read path returns
    /// a clean error.
    #[test]
    fn truncation_is_safe(
        fields in proptest::collection::vec(field_strategy(), 1..16),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut w = StateWriter::new();
        for f in &fields {
            match f {
                Field::U8(v) => { w.u8(*v); }
                Field::U32(v) => { w.u32(*v); }
                Field::U64(v) => { w.u64(*v); }
                Field::F64(v) => { w.f64(*v); }
                Field::Bool(v) => { w.bool(*v); }
                Field::Bytes(v) => { w.bytes(v); }
                Field::Str(v) => { w.str(v); }
                Field::F64s(v) => { w.f64s(v); }
                Field::U64s(v) => { w.u64s(v); }
            }
        }
        let bytes = w.into_bytes();
        if bytes.is_empty() {
            return Ok(());
        }
        let cut = cut.index(bytes.len());
        let mut r = StateReader::new(&bytes[..cut]);
        // Read the same schedule; at some point it must error, never panic.
        for f in &fields {
            let res: Result<(), ars_hpcm::CodecError> = match f {
                Field::U8(_) => r.u8().map(|_| ()),
                Field::U32(_) => r.u32().map(|_| ()),
                Field::U64(_) => r.u64().map(|_| ()),
                Field::F64(_) => r.f64().map(|_| ()),
                Field::Bool(_) => r.bool().map(|_| ()),
                Field::Bytes(_) => r.bytes().map(|_| ()),
                Field::Str(_) => r.str().map(|_| ()),
                Field::F64s(_) => r.f64s().map(|_| ()),
                Field::U64s(_) => r.u64s().map(|_| ()),
            };
            if res.is_err() {
                return Ok(()); // clean failure
            }
        }
        // If everything read back, the cut must have been at the very end.
        prop_assert_eq!(cut, bytes.len());
    }
}

// --- Checksum and framing -----------------------------------------------------

/// A deterministic, non-repeating payload of `len` bytes.
fn pattern(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8)
        .collect()
}

/// Every payload length whose tail shape the checksum distinguishes: empty,
/// every partial word, and whole 4-word blocks followed by 0–3 words.
const LENGTHS: std::ops::RangeInclusive<usize> = 0..=257;

#[test]
fn every_single_bit_flip_is_detected() {
    for len in LENGTHS {
        let framed = frame_state(&pattern(len));
        // Payload and trailer alike: no flipped bit may unframe.
        for bit in 0..framed.len() * 8 {
            let mut bad = framed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                unframe_state(&bad).is_err(),
                "len {len}: flip of bit {bit} undetected"
            );
        }
    }
}

#[test]
fn every_one_word_overwrite_is_detected() {
    // Deltas with a single bit, all bits, the two ends, and a dense mix:
    // XOR-ing one into an aligned word overwrites it with a different value.
    let deltas = [
        1u64,
        u64::MAX,
        0x8000_0000_0000_0001,
        0x0123_4567_89ab_cdef,
        0xff00_0000_0000_0000,
    ];
    for len in LENGTHS {
        let payload = pattern(len);
        let sum = checksum64(&payload);
        for start in (0..len).step_by(8) {
            let end = (start + 8).min(len);
            for delta in deltas {
                let mut bad = payload.clone();
                let mut changed = false;
                for (b, d) in bad[start..end].iter_mut().zip(delta.to_le_bytes()) {
                    *b ^= d;
                    changed |= d != 0;
                }
                if changed {
                    assert_ne!(
                        checksum64(&bad),
                        sum,
                        "len {len}: word at {start} overwritten with delta {delta:#x} undetected"
                    );
                }
            }
        }
    }
}

#[test]
fn every_truncation_and_one_byte_extension_is_rejected() {
    for len in [0, 1, 7, 8, 9, 31, 32, 33, 64, 100, 257] {
        let framed = frame_state(&pattern(len));
        for cut in 0..framed.len() {
            assert!(
                unframe_state(&framed[..cut]).is_err(),
                "len {len}: truncation to {cut} accepted"
            );
        }
        for extra in 0..=u8::MAX {
            let mut longer = framed.clone();
            longer.push(extra);
            assert!(
                unframe_state(&longer).is_err(),
                "len {len}: extension by {extra:#04x} accepted"
            );
        }
    }
}

/// Pinned trailer values: a change to the checksum's definition must be a
/// deliberate, visible edit here, never a silent drift of the frame format.
#[test]
fn checksum_known_answers() {
    assert_eq!(checksum64(b""), 0x08bc_d6e3_9094_c603);
    assert_eq!(checksum64(b"checkpoint bytes"), 0xeba4_1730_0f73_f2b6);
    assert_eq!(checksum64(&pattern(512 * 1024)), 0xc438_b6ab_8efa_bb82);
    let framed = frame_state(b"checkpoint bytes");
    assert_eq!(framed[16..], checksum64(b"checkpoint bytes").to_le_bytes());
}

proptest! {
    /// `frame_state` is a sealed copy, byte for byte.
    #[test]
    fn frame_state_equals_sealing_a_copy(payload in proptest::collection::vec(any::<u8>(), 0..600)) {
        let mut sealed = payload.clone();
        seal_state(&mut sealed);
        prop_assert_eq!(frame_state(&payload), sealed.clone());
        prop_assert_eq!(unframe_state(&sealed).unwrap(), payload.as_slice());
    }

    /// A random nonzero change to one aligned word, at a random length and
    /// offset, is always caught.
    #[test]
    fn random_one_word_change_is_detected(
        len in 1usize..2048,
        at in any::<prop::sample::Index>(),
        delta in 1u64..u64::MAX,
    ) {
        let payload = pattern(len);
        let start = at.index(len) / 8 * 8;
        let end = (start + 8).min(len);
        let mut bad = payload.clone();
        for (b, d) in bad[start..end].iter_mut().zip(delta.to_le_bytes()) {
            *b ^= d;
        }
        prop_assert!(bad == payload || checksum64(&bad) != checksum64(&payload));
    }
}

// --- Byte-level fuzz of the checkpoint readers ------------------------------

/// Apply one reader method by number; every error must point inside the input.
fn read_one(r: &mut StateReader<'_>, op: u8, input_len: usize) -> Result<(), CodecError> {
    let res = match op % 9 {
        0 => r.u8().map(drop),
        1 => r.u32().map(drop),
        2 => r.u64().map(drop),
        3 => r.f64().map(drop),
        4 => r.bool().map(drop),
        5 => r.bytes().map(drop),
        6 => r.str().map(drop),
        7 => r.f64s().map(drop),
        _ => r.u64s().map(drop),
    };
    if let Err(e) = &res {
        assert!(
            e.at <= input_len,
            "error {e} past the input ({input_len} bytes)"
        );
    }
    res
}

proptest! {
    /// Arbitrary bytes never make `unframe_state` panic, and a rejection
    /// points inside the input.
    #[test]
    fn unframe_state_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        match unframe_state(&bytes) {
            Ok(payload) => prop_assert_eq!(payload.len() + 8, bytes.len()),
            Err(e) => prop_assert!(e.at <= bytes.len()),
        }
    }

    /// Random method sequences over arbitrary bytes never panic; every
    /// error points inside the input (checked in `read_one`).
    #[test]
    fn state_reader_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
        ops in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut r = StateReader::new(&bytes);
        for op in ops {
            let _ = read_one(&mut r, op, bytes.len());
        }
    }

    /// A length field claiming more than what remains errors before the
    /// reader allocates: claims of up to 2^40 elements (8 TiB) would abort
    /// the process if the reader sized a `Vec` from them first.
    #[test]
    fn oversized_length_fields_error_before_allocating(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        excess in 1u64..(1 << 40),
        op in 5u8..9,
    ) {
        let claim = (body.len() as u64).saturating_add(excess);
        let mut w = StateWriter::new();
        w.u64(claim);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&body);
        let mut r = StateReader::new(&bytes);
        prop_assert!(read_one(&mut r, op, bytes.len()).is_err());
    }
}
