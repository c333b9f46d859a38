//! The append-delta write-ahead log.
//!
//! A WAL file lives beside its `.cape` snapshot and holds every row batch
//! appended since the store's base relation, as length-prefixed,
//! CRC-checksummed records in the style of [`crate::snapshot::codec`]:
//!
//! ```text
//! header:  "CAPEWAL1" | version u32 | schema fingerprint u64 | folded_seq u64
//! record:  "WREC" | seq u64 | payload_len u64 | payload | crc32 | "WCMT"
//! payload: n_rows u64 | n_rows × arity values
//! ```
//!
//! Every record carries a strictly increasing sequence number and a
//! trailing commit marker; the CRC covers the sequence number, the
//! payload length, and the payload. `folded_seq` is the compaction watermark: the adjacent
//! snapshot's patterns reflect all records with `seq ≤ folded_seq`.
//! Compaction rewrites the file (atomic temp + rename) as a fresh header
//! plus one consolidated record holding the full delta, with
//! `folded_seq = last_seq`.
//!
//! Replay is **committed-prefix** recovery: a record cut short by the end
//! of the file, or a tail of zero bytes at a record boundary, is the
//! signature of an append that crashed mid-write — it is discarded and the
//! committed prefix loads cleanly. Any other malformation (bad tag, CRC
//! mismatch, wrong commit marker, duplicate or out-of-order sequence
//! numbers, fingerprint mismatch) is a typed [`WalError`]: no partial or
//! reordered delta is ever installed.

use crate::snapshot::codec::{crc32, read_value, write_value, ByteReader, ByteWriter};
use crate::snapshot::write_atomic;
use cape_data::Value;
use std::io::Write;
use std::ops::Range;
use std::path::Path;

/// Leading file magic of a WAL file (version baked into the last byte).
pub const WAL_MAGIC: &[u8; 8] = b"CAPEWAL1";
/// Current (and only) WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Record tag.
const TAG_RECORD: u32 = u32::from_le_bytes(*b"WREC");
/// Per-record commit marker.
const TAG_COMMIT: u32 = u32::from_le_bytes(*b"WCMT");
/// Header size in bytes: magic + version + fingerprint + folded_seq.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why a WAL was rejected (or could not be written). One variant per
/// failure class, mirroring [`crate::snapshot::SnapshotError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The file does not start with the WAL magic.
    BadMagic,
    /// The file declares a WAL format version this build cannot read.
    VersionUnsupported {
        /// The version the file declared.
        found: u32,
    },
    /// The WAL was written for a different relation schema.
    SchemaMismatch {
        /// Fingerprint of the live schema.
        expected: u64,
        /// Fingerprint recorded in the WAL header.
        found: u64,
    },
    /// A committed record failed a structural or CRC check.
    Corrupt {
        /// Sequence number of the failing record (the expected one when
        /// the recorded number itself is unreadable).
        seq: u64,
        /// What failed (`"record tag"`, `"crc"`, `"commit marker"`,
        /// `"payload"`).
        what: &'static str,
    },
    /// A sequence number was skipped.
    SeqGap {
        /// The sequence number that should have come next.
        expected: u64,
        /// The sequence number found instead.
        found: u64,
    },
    /// The same sequence number appeared twice in a row.
    DuplicateSeq {
        /// The repeated sequence number.
        seq: u64,
    },
    /// A record's sequence number went backwards.
    OutOfOrder {
        /// The previous record's sequence number.
        prev: u64,
        /// The smaller number found after it.
        found: u64,
    },
    /// The file is shorter than its fixed header.
    Truncated,
    /// Filesystem failure (stringified to keep the error `Clone`).
    Io(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::BadMagic => f.write_str("bad magic (not a cape wal)"),
            WalError::VersionUnsupported { found } => {
                write!(f, "unsupported wal version {found} (this build reads {WAL_VERSION})")
            }
            WalError::SchemaMismatch { expected, found } => {
                write!(f, "wal schema fingerprint {found:#x} does not match relation {expected:#x}")
            }
            WalError::Corrupt { seq, what } => write!(f, "wal record {seq} corrupt: {what}"),
            WalError::SeqGap { expected, found } => {
                write!(f, "wal sequence gap: expected {expected}, found {found}")
            }
            WalError::DuplicateSeq { seq } => write!(f, "duplicate wal sequence number {seq}"),
            WalError::OutOfOrder { prev, found } => {
                write!(f, "wal sequence went backwards: {found} after {prev}")
            }
            WalError::Truncated => f.write_str("wal file shorter than its header"),
            WalError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

/// The decoded state of a WAL: its committed batches and watermarks.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// Committed append batches in order, each with its sequence number.
    pub batches: Vec<(u64, Vec<Vec<Value>>)>,
    /// Sequence number of the last committed record (`folded_seq` when the
    /// WAL holds no records).
    pub last_seq: u64,
    /// Compaction watermark from the header: the adjacent snapshot's
    /// patterns reflect records with `seq ≤ folded_seq`.
    pub folded_seq: u64,
    /// Bytes of uncommitted tail discarded by committed-prefix recovery
    /// (0 when the file ended cleanly).
    pub discarded_tail_bytes: usize,
}

/// Encode the fixed WAL header.
pub fn encode_header(schema_fp: u64, folded_seq: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(WAL_MAGIC);
    w.u32(WAL_VERSION);
    w.u64(schema_fp);
    w.u64(folded_seq);
    w.into_bytes()
}

/// Encode one committed record for a batch of rows.
pub fn encode_record(seq: u64, rows: &[Vec<Value>]) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    payload.u64(rows.len() as u64);
    for row in rows {
        for v in row {
            write_value(&mut payload, v);
        }
    }
    let payload = payload.into_bytes();
    let mut body = ByteWriter::new();
    body.u64(seq);
    body.u64(payload.len() as u64);
    body.bytes(&payload);
    let crc = crc32(&body.into_bytes());

    let mut w = ByteWriter::new();
    w.u32(TAG_RECORD);
    w.u64(seq);
    w.u64(payload.len() as u64);
    w.bytes(&payload);
    w.u32(crc);
    w.u32(TAG_COMMIT);
    w.into_bytes()
}

/// Structural byte ranges of the records in a WAL image, without
/// validating CRCs or sequence numbers. Used by the fault-injection
/// matrix to aim duplications/swaps at whole records.
pub fn record_spans(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut pos = HEADER_LEN;
    while pos + 4 + 8 + 8 <= bytes.len() {
        let len =
            u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().expect("8 bytes")) as usize;
        let Some(end) = pos.checked_add(4 + 8 + 8 + len + 4 + 4) else { break };
        if end > bytes.len() {
            break;
        }
        out.push(pos..end);
        pos = end;
    }
    out
}

/// True when the first record after a fresh header or a compacted header
/// carries a legal sequence number: `folded_seq + 1` for a plain append,
/// or `folded_seq` itself for the consolidated record compaction writes.
fn first_seq_ok(folded_seq: u64, seq: u64) -> bool {
    seq == folded_seq + 1 || (folded_seq > 0 && seq == folded_seq)
}

/// Decode a WAL image and validate it against the live schema
/// fingerprint and row arity. Committed-prefix recovery: see the module
/// docs for which tails are discarded versus rejected.
pub fn decode_wal(bytes: &[u8], schema_fp: u64, arity: usize) -> Result<WalReplay, WalError> {
    if bytes.len() < HEADER_LEN {
        return Err(WalError::Truncated);
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    let mut r = ByteReader::new(&bytes[8..HEADER_LEN]);
    let version = r.u32().expect("sized above");
    if version != WAL_VERSION {
        return Err(WalError::VersionUnsupported { found: version });
    }
    let found_fp = r.u64().expect("sized above");
    if found_fp != schema_fp {
        return Err(WalError::SchemaMismatch { expected: schema_fp, found: found_fp });
    }
    let folded_seq = r.u64().expect("sized above");

    let mut batches: Vec<(u64, Vec<Vec<Value>>)> = Vec::new();
    let mut prev_seq: Option<u64> = None;
    let mut pos = HEADER_LEN;
    loop {
        if pos == bytes.len() {
            break; // clean end
        }
        let expected_seq = prev_seq.map_or(folded_seq + 1, |p| p + 1);
        // A tail of zero bytes at a record boundary is a torn append
        // (space allocated, data never flushed): discard it.
        if bytes[pos..].iter().all(|&b| b == 0) {
            break;
        }
        // Structural shortage from here on means the final record was cut
        // mid-write: discard the tail, keep the committed prefix.
        let Some(fixed) = bytes.get(pos..pos + 4 + 8 + 8) else { break };
        let tag = u32::from_le_bytes(fixed[..4].try_into().expect("4 bytes"));
        if tag != TAG_RECORD {
            return Err(WalError::Corrupt { seq: expected_seq, what: "record tag" });
        }
        let seq = u64::from_le_bytes(fixed[4..12].try_into().expect("8 bytes"));
        let payload_len = u64::from_le_bytes(fixed[12..20].try_into().expect("8 bytes"));
        let Ok(payload_len) = usize::try_from(payload_len) else { break };
        let body_start = pos + 4;
        let payload_start = pos + 20;
        let Some(payload) =
            payload_len.checked_add(payload_start).and_then(|end| bytes.get(payload_start..end))
        else {
            break;
        };
        let Some(trailer) = bytes.get(payload_start + payload_len..payload_start + payload_len + 8)
        else {
            break;
        };
        let crc_found = u32::from_le_bytes(trailer[..4].try_into().expect("4 bytes"));
        let commit = u32::from_le_bytes(trailer[4..].try_into().expect("4 bytes"));
        if crc32(&bytes[body_start..payload_start + payload_len]) != crc_found {
            return Err(WalError::Corrupt { seq, what: "crc" });
        }
        if commit != TAG_COMMIT {
            return Err(WalError::Corrupt { seq, what: "commit marker" });
        }
        // The record is committed and intact: sequence checks are hard
        // errors from here (a duplicated or reordered committed record is
        // corruption, not a torn tail).
        match prev_seq {
            None => {
                if !first_seq_ok(folded_seq, seq) {
                    return Err(WalError::SeqGap { expected: folded_seq + 1, found: seq });
                }
            }
            Some(p) if seq == p => return Err(WalError::DuplicateSeq { seq }),
            Some(p) if seq < p => return Err(WalError::OutOfOrder { prev: p, found: seq }),
            Some(p) if seq > p + 1 => return Err(WalError::SeqGap { expected: p + 1, found: seq }),
            Some(_) => {}
        }
        let rows = decode_payload(payload, arity, seq)?;
        batches.push((seq, rows));
        prev_seq = Some(seq);
        pos = payload_start + payload_len + 8;
    }
    Ok(WalReplay {
        last_seq: prev_seq.unwrap_or(folded_seq),
        folded_seq,
        discarded_tail_bytes: bytes.len() - pos,
        batches,
    })
}

fn decode_payload(payload: &[u8], arity: usize, seq: u64) -> Result<Vec<Vec<Value>>, WalError> {
    let corrupt = |_| WalError::Corrupt { seq, what: "payload" };
    let mut r = ByteReader::new(payload);
    let n_rows = r.u64().map_err(corrupt)?;
    // Each value costs at least one tag byte; reject absurd counts before
    // allocating (mirrors `ByteReader::count`).
    if n_rows > (payload.len() / arity.max(1)) as u64 {
        return Err(WalError::Corrupt { seq, what: "payload" });
    }
    let mut rows = Vec::with_capacity(n_rows as usize);
    for _ in 0..n_rows {
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(read_value(&mut r).map_err(corrupt)?);
        }
        rows.push(row);
    }
    if !r.is_empty() {
        return Err(WalError::Corrupt { seq, what: "payload" });
    }
    Ok(rows)
}

fn io_err(e: std::io::Error) -> WalError {
    WalError::Io(e.to_string())
}

/// Read and decode a WAL file. `Ok(None)` when the file does not exist
/// (a store that has never seen a durable append).
pub fn load_wal(
    path: impl AsRef<Path>,
    schema_fp: u64,
    arity: usize,
) -> Result<Option<WalReplay>, WalError> {
    let bytes = match std::fs::read(path.as_ref()) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(e)),
    };
    decode_wal(&bytes, schema_fp, arity).map(Some)
}

/// Create a fresh WAL containing only a header. Overwrites atomically
/// (temp sibling + fsync + rename) so a crash never leaves a half header.
pub fn init_wal(path: impl AsRef<Path>, schema_fp: u64, folded_seq: u64) -> Result<(), WalError> {
    write_atomic(path.as_ref(), &encode_header(schema_fp, folded_seq)).map_err(io_err)
}

/// Append one committed record to an existing WAL and fsync it. The
/// record bytes reach disk before this returns — the in-memory store may
/// only be updated afterwards (WAL-first ordering). Returns the bytes
/// appended.
pub fn append_record(
    path: impl AsRef<Path>,
    seq: u64,
    rows: &[Vec<Value>],
) -> Result<u64, WalError> {
    let record = encode_record(seq, rows);
    let mut f = std::fs::OpenOptions::new().append(true).open(path.as_ref()).map_err(io_err)?;
    f.write_all(&record).map_err(io_err)?;
    f.sync_all().map_err(io_err)?;
    Ok(record.len() as u64)
}

/// Rewrite the WAL as a compacted image: header with
/// `folded_seq = last_seq` plus one consolidated record (seq `last_seq`)
/// holding the entire delta, or header only when the delta is empty.
/// Atomic (temp sibling + fsync + rename). Returns the new file size.
pub fn write_compacted(
    path: impl AsRef<Path>,
    schema_fp: u64,
    last_seq: u64,
    delta_rows: &[Vec<Value>],
) -> Result<u64, WalError> {
    let mut bytes = encode_header(schema_fp, last_seq);
    if !delta_rows.is_empty() {
        bytes.extend_from_slice(&encode_record(last_seq, delta_rows));
    }
    write_atomic(path.as_ref(), &bytes).map_err(io_err)?;
    Ok(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(tag: i64, n: usize) -> Vec<Vec<Value>> {
        (0..n).map(|i| vec![Value::str(format!("r{tag}")), Value::Int(i as i64)]).collect()
    }

    fn image(folded: u64, batches: &[(u64, Vec<Vec<Value>>)]) -> Vec<u8> {
        let mut bytes = encode_header(77, folded);
        for (seq, rows) in batches {
            bytes.extend_from_slice(&encode_record(*seq, rows));
        }
        bytes
    }

    #[test]
    fn roundtrip_multiple_batches() {
        let batches = vec![(1, rows(1, 3)), (2, rows(2, 1)), (3, rows(3, 0))];
        let replay = decode_wal(&image(0, &batches), 77, 2).unwrap();
        assert_eq!(replay.batches, batches);
        assert_eq!(replay.last_seq, 3);
        assert_eq!(replay.folded_seq, 0);
        assert_eq!(replay.discarded_tail_bytes, 0);
    }

    #[test]
    fn header_only_wal_is_empty() {
        let replay = decode_wal(&image(5, &[]), 77, 2).unwrap();
        assert!(replay.batches.is_empty());
        assert_eq!(replay.last_seq, 5);
        assert_eq!(replay.folded_seq, 5);
    }

    #[test]
    fn consolidated_record_accepted() {
        // After compaction the single record carries seq == folded_seq.
        let replay = decode_wal(&image(4, &[(4, rows(9, 2))]), 77, 2).unwrap();
        assert_eq!(replay.last_seq, 4);
        assert_eq!(replay.batches.len(), 1);
        // … and further appends continue from there.
        let replay = decode_wal(&image(4, &[(4, rows(9, 2)), (5, rows(5, 1))]), 77, 2).unwrap();
        assert_eq!(replay.last_seq, 5);
    }

    #[test]
    fn truncated_final_record_discarded() {
        let bytes = image(0, &[(1, rows(1, 3)), (2, rows(2, 2))]);
        let spans = record_spans(&bytes);
        assert_eq!(spans.len(), 2);
        // Cut anywhere inside the second record: first batch survives.
        for cut in spans[1].start + 1..spans[1].end {
            let replay = decode_wal(&bytes[..cut], 77, 2).unwrap();
            assert_eq!(replay.batches.len(), 1, "cut at {cut}");
            assert_eq!(replay.last_seq, 1);
            assert!(replay.discarded_tail_bytes > 0);
        }
        // Cutting at the boundary is a clean end.
        let replay = decode_wal(&bytes[..spans[1].start], 77, 2).unwrap();
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.discarded_tail_bytes, 0);
    }

    #[test]
    fn zero_tail_at_boundary_discarded() {
        let mut bytes = image(0, &[(1, rows(1, 2))]);
        let clean = bytes.len();
        bytes.extend_from_slice(&[0u8; 40]);
        let replay = decode_wal(&bytes, 77, 2).unwrap();
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.discarded_tail_bytes, bytes.len() - clean);
    }

    #[test]
    fn bit_flip_in_committed_record_is_typed_error() {
        let bytes = image(0, &[(1, rows(1, 2)), (2, rows(2, 2))]);
        let spans = record_spans(&bytes);
        // Flip a payload byte of the FIRST record: CRC catches it.
        let mut bad = bytes.clone();
        bad[spans[0].start + 25] ^= 0x10;
        assert!(matches!(decode_wal(&bad, 77, 2), Err(WalError::Corrupt { seq: 1, what: "crc" })));
    }

    #[test]
    fn wrong_commit_marker_rejected() {
        let bytes = image(0, &[(1, rows(1, 2))]);
        let mut bad = bytes.clone();
        let end = bytes.len();
        bad[end - 1] = b'X';
        assert!(matches!(
            decode_wal(&bad, 77, 2),
            Err(WalError::Corrupt { seq: 1, what: "commit marker" })
        ));
    }

    #[test]
    fn sequence_violations_are_typed() {
        assert!(matches!(
            decode_wal(&image(0, &[(1, rows(1, 1)), (1, rows(1, 1))]), 77, 2),
            Err(WalError::DuplicateSeq { seq: 1 })
        ));
        assert!(matches!(
            decode_wal(&image(0, &[(1, rows(1, 1)), (3, rows(3, 1))]), 77, 2),
            Err(WalError::SeqGap { expected: 2, found: 3 })
        ));
        assert!(matches!(
            decode_wal(&image(0, &[(2, rows(2, 1)), (3, rows(3, 1)), (1, rows(1, 1))]), 77, 2),
            Err(WalError::SeqGap { expected: 1, found: 2 })
        ));
        // Out-of-order after a consolidated start.
        assert!(matches!(
            decode_wal(&image(4, &[(4, rows(4, 1)), (3, rows(3, 1))]), 77, 2),
            Err(WalError::OutOfOrder { prev: 4, found: 3 })
        ));
        // First record must continue from the watermark.
        assert!(matches!(
            decode_wal(&image(0, &[(7, rows(7, 1))]), 77, 2),
            Err(WalError::SeqGap { expected: 1, found: 7 })
        ));
    }

    #[test]
    fn header_validation() {
        assert_eq!(decode_wal(&[], 77, 2), Err(WalError::Truncated));
        let mut bad_magic = image(0, &[]);
        bad_magic[0] = b'X';
        assert_eq!(decode_wal(&bad_magic, 77, 2), Err(WalError::BadMagic));
        let mut bad_version = image(0, &[]);
        bad_version[8] = 9;
        assert_eq!(decode_wal(&bad_version, 77, 2), Err(WalError::VersionUnsupported { found: 9 }));
        assert!(matches!(
            decode_wal(&image(0, &[]), 78, 2),
            Err(WalError::SchemaMismatch { expected: 78, found: 77 })
        ));
    }

    #[test]
    fn file_roundtrip_append_and_compact() {
        let dir = std::env::temp_dir().join(format!("cape_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        init_wal(&path, 77, 0).unwrap();
        assert!(load_wal(&path, 77, 2).unwrap().unwrap().batches.is_empty());
        append_record(&path, 1, &rows(1, 3)).unwrap();
        append_record(&path, 2, &rows(2, 1)).unwrap();
        let replay = load_wal(&path, 77, 2).unwrap().unwrap();
        assert_eq!(replay.batches.len(), 2);
        assert_eq!(replay.last_seq, 2);
        // Compact: all four rows fold into one consolidated record.
        let mut all = rows(1, 3);
        all.extend(rows(2, 1));
        write_compacted(&path, 77, 2, &all).unwrap();
        let replay = load_wal(&path, 77, 2).unwrap().unwrap();
        assert_eq!(replay.folded_seq, 2);
        assert_eq!(replay.last_seq, 2);
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.batches[0].1.len(), 4);
        // Appends continue past the consolidated record.
        append_record(&path, 3, &rows(3, 2)).unwrap();
        let replay = load_wal(&path, 77, 2).unwrap().unwrap();
        assert_eq!(replay.last_seq, 3);
        assert_eq!(replay.batches.len(), 2);
        // Missing file is Ok(None), not an error.
        assert_eq!(load_wal(dir.join("absent.wal"), 77, 2).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_spans_cover_records_exactly() {
        let bytes = image(0, &[(1, rows(1, 2)), (2, rows(2, 5))]);
        let spans = record_spans(&bytes);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start, HEADER_LEN);
        assert_eq!(spans[1].end, bytes.len());
        assert_eq!(spans[0].end, spans[1].start);
        assert_eq!(record_spans(&image(3, &[])), Vec::<Range<usize>>::new());
    }
}
