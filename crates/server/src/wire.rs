//! The byte layer: primitive encode/decode and framing.
//!
//! Everything on the socket is a **frame**: a little-endian `u32` length
//! followed by that many payload bytes, the first of which is the frame
//! tag. The length covers the tag, so an empty payload is illegal and
//! `len == 0` decodes to a typed error, never an empty slice.
//!
//! The layer is deliberately dependency-free and allocation-simple: a
//! [`WireWriter`] appends primitives to a `Vec<u8>`, a [`WireReader`] is a
//! cursor over a borrowed slice, and [`FrameBuf`] turns an arbitrary byte
//! stream (delivered in any chunking the kernel likes) back into frames.
//! All three are pure — no I/O — which is what makes the protocol
//! robustness tests able to fuzz them directly with testkit PRNG
//! mutations.

/// Hard cap on a single frame's payload, tag included. Large VCD payloads
/// fit comfortably; a hostile length prefix does not get to reserve 4 GiB.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Typed decode failure. Every malformed input maps to one of these —
/// decoding never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced length was reached.
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME`] (or an inner count exceeded
    /// what the remaining bytes could possibly hold).
    Oversized {
        /// The announced length or element count.
        announced: u64,
        /// The applicable limit.
        limit: u64,
    },
    /// An unknown frame tag or enum discriminant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending code.
        code: u64,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A frame decoded cleanly but left unconsumed payload bytes.
    Trailing {
        /// Number of leftover bytes.
        leftover: usize,
    },
    /// The peer's handshake did not carry the protocol magic/version.
    BadHandshake {
        /// Human-readable mismatch description.
        detail: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::Oversized { announced, limit } => {
                write!(f, "announced size {announced} exceeds limit {limit}")
            }
            WireError::BadTag { what, code } => write!(f, "bad {what} code {code}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::Trailing { leftover } => {
                write!(f, "{leftover} trailing bytes after frame payload")
            }
            WireError::BadHandshake { detail } => write!(f, "bad handshake: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends primitives to a growable byte buffer.
#[derive(Default, Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("blob fits a u32 length"));
        self.buf.extend_from_slice(v);
    }

    /// Appends an element count for a sequence the caller writes next.
    pub fn seq(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("sequence fits a u32 count"));
    }
}

/// A decoding cursor over a borrowed byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`WireError::Trailing`] unless the payload is exhausted.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing {
                leftover: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is a [`WireError::BadTag`].
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            code => Err(WireError::BadTag {
                what: "bool",
                code: u64::from(code),
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let bytes = self.blob()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed byte blob.
    fn blob(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::Truncated);
        }
        self.take(len)
    }

    /// Reads an element count, validated against what the remaining bytes
    /// could possibly hold (each element costs at least `min_elem_bytes`),
    /// so a hostile count cannot drive a huge allocation.
    pub fn seq(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        let capacity = self.remaining() / min_elem_bytes.max(1);
        if len > capacity {
            return Err(WireError::Oversized {
                announced: len as u64,
                limit: capacity as u64,
            });
        }
        Ok(len)
    }
}

/// Reassembles frames from an arbitrarily-chunked byte stream.
///
/// Feed raw socket reads in with [`FrameBuf::push`]; [`FrameBuf::take_frame`]
/// yields `(tag, payload)` pairs once complete frames are buffered. The
/// buffer validates the length prefix eagerly, so an oversized announcement
/// fails fast — before any of its bytes arrive.
#[derive(Default, Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// An empty reassembly buffer.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Appends raw bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when a partially-received frame is pending — an EOF now would
    /// mean the peer hung up mid-frame ([`WireError::Truncated`]).
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Pops the next complete frame, if one is fully buffered.
    ///
    /// Returns `Ok(None)` while more bytes are needed, and a typed error
    /// for an oversized or zero length prefix (after which the stream is
    /// unrecoverable and the connection should close).
    pub fn take_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let announced = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes"));
        if announced == 0 || announced > MAX_FRAME {
            return Err(WireError::Oversized {
                announced: u64::from(announced),
                limit: u64::from(MAX_FRAME),
            });
        }
        let total = 4 + announced as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let tag = self.buf[4];
        let payload = self.buf[5..total].to_vec();
        self.buf.drain(..total);
        Ok(Some((tag, payload)))
    }
}

/// Encodes one frame: `[u32 len][tag][payload]`.
///
/// # Panics
///
/// Panics if the payload would exceed [`MAX_FRAME`] — outbound frames are
/// produced by this crate and are bounded by construction.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len() + 1).expect("frame fits a u32 length");
    assert!(len <= MAX_FRAME, "outbound frame exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(4 + payload.len() + 1);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.bool(true);
        w.str("käse");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "käse");
        assert_eq!(r.blob().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        let mut r = WireReader::new(&[4, 0, 0, 0, b'a']);
        assert_eq!(r.str(), Err(WireError::Truncated));
    }

    #[test]
    fn hostile_sequence_counts_are_rejected() {
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.seq(8), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn frames_reassemble_across_arbitrary_chunking() {
        let frame = encode_frame(0x42, b"payload");
        let mut buf = FrameBuf::new();
        for byte in &frame {
            assert!(buf.take_frame().unwrap().is_none());
            buf.push(std::slice::from_ref(byte));
        }
        let (tag, payload) = buf.take_frame().unwrap().expect("complete frame");
        assert_eq!(tag, 0x42);
        assert_eq!(payload, b"payload");
        assert!(!buf.mid_frame());
    }

    #[test]
    fn zero_and_oversized_length_prefixes_fail_fast() {
        let mut buf = FrameBuf::new();
        buf.push(&0u32.to_le_bytes());
        assert!(matches!(buf.take_frame(), Err(WireError::Oversized { .. })));

        let mut buf = FrameBuf::new();
        buf.push(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(buf.take_frame(), Err(WireError::Oversized { .. })));
    }
}
