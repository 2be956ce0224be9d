//! Trace records and a compact binary trace format.
//!
//! The paper collects main-memory access traces in Gem5 and replays them in
//! a lightweight lifetime simulator; [`Trace`] is our equivalent
//! interchange object, with a compact binary codec so generated traces can
//! be stored and replayed bit-identically.

use pcm_util::Line512;
use serde::{Deserialize, Serialize};

/// One LLC write-back: the target line and the full 64-byte payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteRecord {
    /// Logical line address.
    pub line: u64,
    /// The 64 bytes written back.
    pub data: Line512,
}

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// Demand read.
    Read,
    /// LLC write-back.
    Write,
}

/// A read or write access (reads carry no payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// Logical line address.
    pub line: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Payload for writes; `None` for reads.
    pub data: Option<Line512>,
}

/// A replayable write-back trace.
///
/// # Examples
///
/// ```
/// use pcm_trace::{Trace, WriteRecord};
/// use pcm_util::Line512;
///
/// let trace = Trace::new(vec![WriteRecord { line: 7, data: Line512::zero() }]);
/// let bytes = trace.to_bytes();
/// assert_eq!(Trace::from_bytes(&bytes).unwrap(), trace);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<WriteRecord>,
}

/// Error returned when decoding a malformed binary trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeTraceError {
    /// Magic header mismatch.
    BadMagic,
    /// Payload shorter than the declared record count.
    Truncated,
}

impl std::fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeTraceError::BadMagic => write!(f, "trace header magic mismatch"),
            DecodeTraceError::Truncated => write!(f, "trace payload truncated"),
        }
    }
}

impl std::error::Error for DecodeTraceError {}

const MAGIC: u32 = 0x50_43_4D_54; // "PCMT"

impl Trace {
    /// Creates a trace from records.
    pub fn new(records: Vec<WriteRecord>) -> Self {
        Trace { records }
    }

    /// The records, in replay order.
    pub fn records(&self) -> &[WriteRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, WriteRecord> {
        self.records.iter()
    }

    /// Encodes the trace into the compact binary format
    /// (`magic, count, then (line u64 LE, 64 payload bytes) per record`).
    pub fn to_bytes(&self) -> Vec<u8> {
        // pcm-audit: allow(hotpath-alloc) — trace-file encoder; the line simulator reaches it only through name-based resolution of Line512::to_bytes
        let mut buf = Vec::with_capacity(8 + self.records.len() * 72);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for r in &self.records {
            buf.extend_from_slice(&r.line.to_le_bytes());
            buf.extend_from_slice(&r.data.to_bytes());
        }
        buf
    }

    /// Decodes a trace from the binary format.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeTraceError`] on a bad header or truncated payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeTraceError> {
        let header: &[u8; 8] = bytes
            .get(..8)
            .and_then(|h| h.try_into().ok())
            .ok_or(DecodeTraceError::Truncated)?;
        if u32::from_le_bytes(header[..4].try_into().expect("4-byte magic slice")) != MAGIC {
            return Err(DecodeTraceError::BadMagic);
        }
        let count =
            u32::from_le_bytes(header[4..].try_into().expect("4-byte count slice")) as usize;
        let body = &bytes[8..];
        if body.len() < count * 72 {
            return Err(DecodeTraceError::Truncated);
        }
        let records = body[..count * 72]
            .chunks_exact(72)
            .map(|rec| {
                let line = u64::from_le_bytes(rec[..8].try_into().expect("8-byte line id"));
                WriteRecord {
                    line,
                    data: Line512::from_bytes(rec[8..].try_into().expect("64-byte payload")),
                }
            })
            .collect();
        Ok(Trace { records })
    }
}

impl FromIterator<WriteRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = WriteRecord>>(iter: T) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<WriteRecord> for Trace {
    fn extend<T: IntoIterator<Item = WriteRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a WriteRecord;
    type IntoIter = std::slice::Iter<'a, WriteRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_util::seeded_rng;

    #[test]
    fn binary_round_trip() {
        let mut rng = seeded_rng(91);
        let records: Vec<WriteRecord> = (0..100)
            .map(|i| WriteRecord {
                line: i * 3,
                data: Line512::random(&mut rng),
            })
            .collect();
        let trace = Trace::new(records);
        let bytes = trace.to_bytes();
        assert_eq!(bytes.len(), 8 + 100 * 72);
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), trace);
    }

    #[test]
    fn empty_trace_round_trip() {
        let trace = Trace::default();
        assert!(trace.is_empty());
        assert_eq!(Trace::from_bytes(&trace.to_bytes()).unwrap(), trace);
    }

    #[test]
    fn detects_bad_magic() {
        let mut bytes = Trace::default().to_bytes().to_vec();
        bytes[0] ^= 0xFF;
        assert_eq!(Trace::from_bytes(&bytes), Err(DecodeTraceError::BadMagic));
    }

    #[test]
    fn detects_truncation() {
        let trace = Trace::new(vec![WriteRecord {
            line: 0,
            data: Line512::zero(),
        }]);
        let bytes = trace.to_bytes();
        assert_eq!(
            Trace::from_bytes(&bytes[..bytes.len() - 1]),
            Err(DecodeTraceError::Truncated)
        );
        assert_eq!(Trace::from_bytes(&[1, 2]), Err(DecodeTraceError::Truncated));
    }

    #[test]
    fn collect_and_extend() {
        let r = WriteRecord {
            line: 1,
            data: Line512::zero(),
        };
        let mut t: Trace = std::iter::repeat_n(r, 3).collect();
        t.extend([r]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.iter().count(), 4);
    }
}
