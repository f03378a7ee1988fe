//! The versioned, length-prefixed wire format of the transport layer.
//!
//! Everything that crosses a process (or injected-fault) boundary is carried
//! in a [`Frame`]:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "MMLP"
//! 4       2     format version (little-endian u16, see [`WIRE_VERSION`])
//! 6       1     frame kind ([`FrameKind`] discriminant)
//! 7       8     sequence number (little-endian u64; the driver-assigned
//!               pool-global job id for jobs and replies — NOT a per-stage
//!               shard index, see `driver::LinkPool` — 0 for control frames)
//! 15      4     payload length (little-endian u32)
//! 19      len   payload
//! 19+len  4     CRC-32 (IEEE) over bytes 0..19+len
//! ```
//!
//! The trailing CRC covers the header too, so any single-byte corruption —
//! in the payload, the sequence number or the length field — is detected
//! deterministically (CRC-32 catches every burst error of at most 32 bits).
//! Decoding therefore either yields the exact frame that was encoded or a
//! typed [`WireError`]; arbitrary byte noise never panics and never produces
//! a silently wrong frame.
//!
//! **Versioning rule.**  [`WIRE_VERSION`] names the *framing* layout above
//! and is checked on every decode; it is bumped whenever the header layout
//! changes.  The layout of each stage's payload is versioned separately, by
//! a `@<n>` suffix in the stage identifier (e.g. `mmlp/present@2`): a
//! payload change bumps the suffix, so an old worker simply reports an
//! unknown stage instead of misreading bytes.
//!
//! Payload contents are built from the primitive codecs at the bottom of
//! this module ([`put_u64`], [`put_f64`], [`ByteReader`], …).  Floats travel
//! as their exact IEEE-754 bit patterns, which is what makes results
//! bit-identical across the boundary.

use std::fmt;
use std::io::{Read, Write};

/// The four magic bytes opening every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"MMLP";

/// Version of the frame layout (not of stage payloads — see the module docs
/// for the versioning rule).
pub const WIRE_VERSION: u16 = 1;

/// Hard cap on a frame's payload size; anything larger is rejected before
/// allocation, so a corrupted length field cannot trigger a huge allocation.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 28; // 256 MiB

/// Size of the fixed frame header (everything before the payload).
pub const FRAME_HEADER_LEN: usize = 4 + 2 + 1 + 8 + 4;

/// Errors of the wire format itself: framing, checksums and payload decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a complete frame (or payload field) was read.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The peer speaks a different frame-layout version.
    VersionMismatch {
        /// Our [`WIRE_VERSION`].
        ours: u16,
        /// The version found in the frame header.
        theirs: u16,
    },
    /// The length field exceeds [`MAX_FRAME_PAYLOAD`].
    OversizedFrame {
        /// The declared payload length.
        len: usize,
    },
    /// The CRC-32 over header and payload does not match.
    ChecksumMismatch {
        /// Checksum recomputed from the received bytes.
        computed: u32,
        /// Checksum carried by the frame.
        found: u32,
    },
    /// The frame-kind byte is not a known [`FrameKind`].
    UnknownFrameKind(u8),
    /// A structurally valid frame carried a payload that does not decode.
    Decode {
        /// What was being decoded when the payload turned out malformed.
        context: &'static str,
    },
    /// A versioned patch payload targets a different base version than the
    /// receiver holds — applying it would silently patch the wrong data, so
    /// the decoder refuses with the two versions spelled out.
    BaseVersionMismatch {
        /// The base version the receiver holds.
        expected: u64,
        /// The base version the payload was built against.
        found: u64,
    },
    /// An underlying I/O failure (stored as a string: `io::Error` is neither
    /// `Clone` nor `PartialEq`).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => {
                write!(f, "truncated frame while reading {context}")
            }
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:?}"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "wire version mismatch: ours {ours}, peer {theirs}")
            }
            WireError::OversizedFrame { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD} byte cap")
            }
            WireError::ChecksumMismatch { computed, found } => {
                write!(f, "frame checksum mismatch: computed {computed:#010x}, found {found:#010x}")
            }
            WireError::UnknownFrameKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Decode { context } => {
                write!(f, "malformed payload while decoding {context}")
            }
            WireError::BaseVersionMismatch { expected, found } => {
                write!(f, "patch targets base version {found}, receiver holds {expected}")
            }
            WireError::Io(msg) => write!(f, "transport i/o error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// What a frame carries.  Discriminants are part of the wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Handshake, sent by the driver on connect and echoed by the worker.
    Hello = 1,
    /// Stage-shared input (`payload = stage id ++ context bytes`), stored by
    /// the worker and handed to every subsequent job of that stage.
    Context = 2,
    /// One shard's job (`payload = stage id ++ job bytes`, `seq` = the
    /// driver's pool-global job id).
    Job = 3,
    /// One shard's reply (`payload = wall-clock nanos ++ output bytes`).
    Reply = 4,
    /// A worker-side failure for one job (`payload = UTF-8 message`).
    WorkerError = 5,
    /// Clean shutdown request; the worker exits its serve loop.
    Shutdown = 6,
    /// A worker-streamed state snapshot for one shard of a resident stage
    /// (`payload = snapshot bytes`, `seq` = the job that requested it).
    /// Deposited by the stage handler, recorded by the driver's
    /// [`RecoveryLog`](crate::driver::RecoveryLog).
    Checkpoint = 7,
    /// A driver-sent snapshot to install on a respawned worker
    /// (`payload = stage id ++ snapshot bytes`, `seq` = the checkpoint's
    /// original job sequence).  Always preceded by the stage's `Context`
    /// and followed by the replayed job frames since that snapshot.
    Restore = 8,
}

impl FrameKind {
    fn from_byte(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            1 => FrameKind::Hello,
            2 => FrameKind::Context,
            3 => FrameKind::Job,
            4 => FrameKind::Reply,
            5 => FrameKind::WorkerError,
            6 => FrameKind::Shutdown,
            7 => FrameKind::Checkpoint,
            8 => FrameKind::Restore,
            other => return Err(WireError::UnknownFrameKind(other)),
        })
    }
}

/// One unit of the transport protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Pool-global job sequence number for jobs and replies (assigned by
    /// the driver from `LinkPool`'s monotone counter, so a stale reply from
    /// an earlier stage run can never impersonate a current one); 0 for
    /// control frames.
    pub seq: u64,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A control frame without payload.
    pub fn control(kind: FrameKind) -> Self {
        Frame { kind, seq: 0, payload: Vec::new() }
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
///
/// Chosen over a non-linear hash because CRC-32 *guarantees* detection of
/// every error burst of at most 32 bits — the fault-injection suite flips
/// single bytes and relies on deterministic detection.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Table-driven (one lookup per byte); the table is computed at compile
    // time from the same reflected polynomial, so the burst-detection
    // guarantee is unchanged while every frame's encode/decode pays ~8x
    // less per byte than the bitwise loop.
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Encodes a frame into bytes (header, payload, trailing CRC).
///
/// # Errors
///
/// [`WireError::OversizedFrame`] when the payload exceeds
/// [`MAX_FRAME_PAYLOAD`].  The decode side rejects such frames typed, so the
/// encode side must too: a host that panicked here (the old
/// `expect("payload fits u32")`) would die on the very input the peer would
/// merely refuse.  The cap is far below `u32::MAX`, so the length cast below
/// can never truncate once this check passed.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    if frame.payload.len() > MAX_FRAME_PAYLOAD {
        return Err(WireError::OversizedFrame { len: frame.payload.len() });
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + frame.payload.len() + 4);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(frame.kind as u8);
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame.payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Decodes one frame from the start of `buf`, returning the frame and the
/// number of bytes consumed.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Err(WireError::Truncated { context: "frame header" });
    }
    if buf[0..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic { found: [buf[0], buf[1], buf[2], buf[3]] });
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { ours: WIRE_VERSION, theirs: version });
    }
    let kind = FrameKind::from_byte(buf[6])?;
    let seq = u64::from_le_bytes(buf[7..15].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(buf[15..19].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::OversizedFrame { len });
    }
    let total = FRAME_HEADER_LEN + len + 4;
    if buf.len() < total {
        return Err(WireError::Truncated { context: "frame payload" });
    }
    let computed = crc32(&buf[..FRAME_HEADER_LEN + len]);
    let found = u32::from_le_bytes(buf[FRAME_HEADER_LEN + len..total].try_into().expect("4 bytes"));
    if computed != found {
        return Err(WireError::ChecksumMismatch { computed, found });
    }
    let payload = buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec();
    Ok((Frame { kind, seq, payload }, total))
}

/// Writes one frame to a stream (no flush; callers flush after a batch).
///
/// Oversized payloads are rejected with the same typed
/// [`WireError::OversizedFrame`] the decoder would produce — shipping a
/// frame the peer is guaranteed to reject would only surface as a confusing
/// dead-worker error later.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&encode_frame(frame)?)
        .map_err(|e| WireError::Io(e.to_string()))
}

/// Reads one frame from a stream.
///
/// Returns `Ok(None)` on a clean end-of-stream (no bytes at a frame
/// boundary); end-of-stream in the *middle* of a frame is a
/// [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0;
    while filled < header.len() {
        let n = r.read(&mut header[filled..]).map_err(|e| WireError::Io(e.to_string()))?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(WireError::Truncated { context: "frame header" });
        }
        filled += n;
    }
    if header[0..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic { found: [header[0], header[1], header[2], header[3]] });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { ours: WIRE_VERSION, theirs: version });
    }
    let len = u32::from_le_bytes(header[15..19].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::OversizedFrame { len });
    }
    let mut rest = vec![0u8; len + 4];
    r.read_exact(&mut rest).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { context: "frame payload" }
        } else {
            WireError::Io(e.to_string())
        }
    })?;
    let mut whole = Vec::with_capacity(FRAME_HEADER_LEN + rest.len());
    whole.extend_from_slice(&header);
    whole.extend_from_slice(&rest);
    decode_frame(&whole).map(|(frame, _)| Some(frame))
}

// ---------------------------------------------------------------------------
// Primitive payload codecs.
// ---------------------------------------------------------------------------

/// Appends a `u8` to a payload.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u64` to a payload.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` (as `u64`) to a payload.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends an `f64` as its exact IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Appends a length-prefixed `u64` slice.
pub fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_u64(out, v);
    }
}

/// Appends a length-prefixed `usize` slice (each as `u64`).
pub fn put_usizes(out: &mut Vec<u8>, vs: &[usize]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_usize(out, v);
    }
}

/// Appends a length-prefixed `f64` slice (exact bit patterns).
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_f64(out, v);
    }
}

/// A bounds-checked cursor over payload bytes.
///
/// Every getter returns a typed [`WireError`] instead of panicking, and the
/// sequence-length getter refuses counts that could not possibly fit in the
/// remaining bytes, so a corrupted length can never trigger a huge
/// allocation.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes `n` raw bytes.
    pub fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes all remaining bytes.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.bytes(1, context)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.bytes(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` encoded as `u64`.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, WireError> {
        usize::try_from(self.u64(context)?).map_err(|_| WireError::Decode { context })
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a sequence length whose elements occupy at least
    /// `min_element_bytes` bytes each, rejecting counts the remaining input
    /// cannot hold.
    pub fn seq_len(
        &mut self,
        min_element_bytes: usize,
        context: &'static str,
    ) -> Result<usize, WireError> {
        let len = self.usize(context)?;
        if len.saturating_mul(min_element_bytes.max(1)) > self.remaining() {
            return Err(WireError::Decode { context });
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str, WireError> {
        let len = self.seq_len(1, context)?;
        std::str::from_utf8(self.bytes(len, context)?).map_err(|_| WireError::Decode { context })
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self, context: &'static str) -> Result<Vec<u64>, WireError> {
        let len = self.seq_len(8, context)?;
        (0..len).map(|_| self.u64(context)).collect()
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usizes(&mut self, context: &'static str) -> Result<Vec<usize>, WireError> {
        let len = self.seq_len(8, context)?;
        (0..len).map(|_| self.usize(context)).collect()
    }

    /// Reads a length-prefixed `f64` vector (exact bit patterns).
    pub fn f64s(&mut self, context: &'static str) -> Result<Vec<f64>, WireError> {
        let len = self.seq_len(8, context)?;
        (0..len).map(|_| self.f64(context)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Frame {
        Frame { kind: FrameKind::Job, seq: 42, payload: b"mmlp payload".to_vec() }
    }

    #[test]
    fn frame_roundtrip_is_identity() {
        for frame in [
            sample_frame(),
            Frame::control(FrameKind::Hello),
            Frame { kind: FrameKind::Reply, seq: u64::MAX, payload: vec![0; 1000] },
        ] {
            let bytes = encode_frame(&frame).unwrap();
            let (decoded, consumed) = decode_frame(&bytes).unwrap();
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn stream_roundtrip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample_frame()).unwrap();
        write_frame(&mut buf, &Frame::control(FrameKind::Shutdown)).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(sample_frame()));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(Frame::control(FrameKind::Shutdown)));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let bytes = encode_frame(&sample_frame()).unwrap();
        for cut in [1, FRAME_HEADER_LEN - 1, FRAME_HEADER_LEN + 3, bytes.len() - 1] {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Truncated { .. }), "cut at {cut}: {err}");
            let mut cursor = std::io::Cursor::new(bytes[..cut].to_vec());
            let err = read_frame(&mut cursor).unwrap_err();
            assert!(matches!(err, WireError::Truncated { .. }), "stream cut at {cut}: {err}");
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode_frame(&sample_frame()).unwrap();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x5a;
            assert!(decode_frame(&corrupted).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn version_and_magic_are_checked() {
        let mut bytes = encode_frame(&sample_frame()).unwrap();
        bytes[4] = WIRE_VERSION as u8 + 1;
        // Re-seal the checksum so the version check itself is exercised.
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(WireError::VersionMismatch { .. })));

        let mut bytes = encode_frame(&sample_frame()).unwrap();
        bytes[0] = b'X';
        assert!(matches!(decode_frame(&bytes), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = encode_frame(&Frame::control(FrameKind::Hello)).unwrap();
        bytes[15..19].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(WireError::OversizedFrame { .. })));
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::OversizedFrame { .. })));
    }

    #[test]
    fn oversized_payload_is_a_typed_error_on_the_encode_path() {
        // Regression: `encode_frame` used to panic the host through
        // `expect("payload fits u32")` on an oversized payload; it must
        // return the same typed error the decode path produces instead.
        let frame =
            Frame { kind: FrameKind::Job, seq: 1, payload: vec![0u8; MAX_FRAME_PAYLOAD + 1] };
        match encode_frame(&frame) {
            Err(WireError::OversizedFrame { len }) => assert_eq!(len, MAX_FRAME_PAYLOAD + 1),
            other => panic!("expected a typed oversize rejection, got {other:?}"),
        }
        let mut sink = Vec::new();
        assert!(matches!(write_frame(&mut sink, &frame), Err(WireError::OversizedFrame { .. })));
        assert!(sink.is_empty(), "nothing may reach the stream before the check");
        // The largest legal payload still encodes and round-trips.
        let frame = Frame { kind: FrameKind::Job, seq: 2, payload: vec![7u8; MAX_FRAME_PAYLOAD] };
        let bytes = encode_frame(&frame).unwrap();
        assert_eq!(decode_frame(&bytes).unwrap().0, frame);
    }

    #[test]
    fn byte_reader_primitives_roundtrip() {
        let mut payload = Vec::new();
        put_u8(&mut payload, 7);
        put_u64(&mut payload, 0xDEAD_BEEF_1234_5678);
        put_f64(&mut payload, -0.0);
        put_f64(&mut payload, f64::NAN);
        put_str(&mut payload, "présent");
        put_u64s(&mut payload, &[1, 2, 3]);
        put_usizes(&mut payload, &[9, 8]);
        put_f64s(&mut payload, &[1.5, f64::INFINITY]);
        let mut r = ByteReader::new(&payload);
        assert_eq!(r.u8("t").unwrap(), 7);
        assert_eq!(r.u64("t").unwrap(), 0xDEAD_BEEF_1234_5678);
        assert_eq!(r.f64("t").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64("t").unwrap().is_nan());
        assert_eq!(r.str("t").unwrap(), "présent");
        assert_eq!(r.u64s("t").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.usizes("t").unwrap(), vec![9, 8]);
        let fs = r.f64s("t").unwrap();
        assert_eq!(fs[0], 1.5);
        assert!(fs[1].is_infinite());
        assert!(r.is_empty());
    }

    #[test]
    fn byte_reader_rejects_absurd_lengths() {
        // A sequence length far beyond the available bytes must error before
        // any allocation proportional to it.
        let mut payload = Vec::new();
        put_u64(&mut payload, u64::MAX / 2);
        let mut r = ByteReader::new(&payload);
        assert!(matches!(r.u64s("t"), Err(WireError::Decode { .. })));
        let mut r = ByteReader::new(&payload);
        assert!(matches!(r.str("t"), Err(WireError::Decode { .. })));
        // Reading past the end is a typed truncation.
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.u64("t"), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
