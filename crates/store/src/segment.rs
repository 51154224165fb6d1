//! WAL **segment rotation**: file naming, segment-header records, and the
//! on-disk segment chain.
//!
//! A table's WAL is no longer one unbounded file but a chain of segments:
//!
//! ```text
//! <table-dir>/
//!   wal.log            segment 0 (starts with the Create record)
//!   wal.00000001.log   segment 1 (starts with a Segment header record)
//!   wal.00000002.log   segment 2 ...
//! ```
//!
//! Offsets everywhere else in the crate ([`crate::WalPosition`], snapshot
//! `wal_offset`s, `RecordInfo::end_offset`) are **logical**: cumulative
//! bytes across the whole chain, exactly as if the segments were one file.
//! Segment 0 begins at logical offset 0; a rotated segment `k` begins at
//! the logical offset where segment `k-1` ended, and its first frame is a
//! Segment header record (`kind 5`) carrying `{seq, base_offset,
//! answers_before}` — self-describing and chain-validating: a segment whose
//! header does not agree with where the previous segment ended is treated
//! as torn, exactly like a bad checksum.
//!
//! Rotation happens at record boundaries only (a frame never spans
//! segments), so every rotated-away segment is complete: torn bytes can
//! only exist in the *last* segment. Cold segments wholly below a durable
//! snapshot-chain base offset carry no information recovery needs and are
//! deleted after each new base by [`crate::SnapshotChain::persist`] (and
//! by [`crate::Store::compact_cold_segments`]) — after which segment 0 itself may
//! be gone and recovery **requires** the snapshot (the chain head records
//! its own `base_offset`/`answers_before`, so logical offsets keep
//! working).

use crate::crc::crc32;
use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};
use tcrowd_tabular::io::binary::{self, Cursor};

/// Default size trigger (bytes) for rotating the active segment. Small
/// enough that a busy table's recovery tail stays short once snapshots
/// cover the cold prefix; large enough that rotation cost (one fsync +
/// one rename) is noise.
pub const SEGMENT_MAX_DEFAULT: u64 = 8 * 1024 * 1024;

/// Frame header size (shared with `wal.rs`): `u32` length + `u32` CRC.
const FRAME_HEADER: u64 = 8;

/// Record kind byte of a segment header (see `wal.rs` for kinds 1–4).
pub(crate) const KIND_SEGMENT: u8 = 5;

/// The decoded body of a Segment header record: where this segment sits in
/// the logical byte/answer streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Segment sequence number (must match the file name).
    pub seq: u64,
    /// Logical offset of this segment's physical byte 0.
    pub base_offset: u64,
    /// Total answers committed before this segment's first byte.
    pub answers_before: u64,
}

pub(crate) fn encode_header_body(buf: &mut Vec<u8>, h: &SegmentHeader) {
    binary::put_u64(buf, h.seq);
    binary::put_u64(buf, h.base_offset);
    binary::put_u64(buf, h.answers_before);
}

pub(crate) fn decode_header_body(c: &mut Cursor<'_>) -> Result<SegmentHeader, binary::CodecError> {
    Ok(SegmentHeader { seq: c.u64()?, base_offset: c.u64()?, answers_before: c.u64()? })
}

/// The file name of segment `seq` (segment 0 keeps the legacy `wal.log`
/// name, so single-segment tables are byte-identical to the old format).
pub fn segment_file_name(seq: u64) -> String {
    if seq == 0 {
        crate::wal::WAL_FILE.to_string()
    } else {
        format!("wal.{seq:08}.log")
    }
}

/// Parse a segment sequence number out of a file name; `None` for anything
/// that is not a WAL segment (snapshots, deltas, `.tmp` residue, …).
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    if name == crate::wal::WAL_FILE {
        return Some(0);
    }
    let digits = name.strip_prefix("wal.")?.strip_suffix(".log")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let seq: u64 = digits.parse().ok()?;
    // `wal.00000000.log` would alias segment 0's canonical name.
    if seq == 0 {
        None
    } else {
        Some(seq)
    }
}

/// One validated segment in the on-disk chain.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Sequence number (0 = the `wal.log` head segment).
    pub seq: u64,
    /// The segment file.
    pub path: PathBuf,
    /// Physical file length in bytes.
    pub len: u64,
    /// Logical offset of physical byte 0.
    pub base: u64,
    /// Answers committed before this segment.
    pub answers_before: u64,
}

/// The result of scanning a table directory for WAL segments.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// The validated, contiguous chain, in sequence order. May start at a
    /// `seq > 0` segment when the head was compacted away.
    pub segments: Vec<SegmentInfo>,
    /// Segment-named files that do not continue the chain (bad/missing
    /// header, sequence gap, base-offset discontinuity) — recovery deletes
    /// them; they can only be rotation/rewrite residue or rot past a tear.
    pub orphans: Vec<PathBuf>,
    /// Why the first orphan was rejected (for error messages).
    pub orphan_reason: Option<String>,
}

impl SegmentScan {
    /// Logical offset of the chain's first byte (0 unless head-compacted).
    pub fn base_offset(&self) -> u64 {
        self.segments.first().map(|s| s.base).unwrap_or(0)
    }

    /// Answers committed before the chain's first byte.
    pub fn base_answers(&self) -> u64 {
        self.segments.first().map(|s| s.answers_before).unwrap_or(0)
    }

    /// Logical offset just past the chain's last physical byte.
    pub fn end_offset(&self) -> u64 {
        self.segments.last().map(|s| s.base + s.len).unwrap_or(0)
    }

    /// Whether segment 0 (and with it the Create record) is gone.
    pub fn head_compacted(&self) -> bool {
        self.segments.first().map(|s| s.seq != 0).unwrap_or(false)
    }

    /// Total physical bytes across the chain.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.len).sum()
    }
}

/// Read and validate the Segment header frame at the head of `path`.
fn read_segment_header(path: &Path) -> Result<SegmentHeader, String> {
    let mut file = File::open(path).map_err(|e| format!("unreadable: {e}"))?;
    let mut head = [0u8; FRAME_HEADER as usize];
    file.read_exact(&mut head).map_err(|e| format!("truncated frame header: {e}"))?;
    let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if len > 64 {
        return Err(format!("implausible segment header length {len}"));
    }
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload).map_err(|e| format!("truncated header payload: {e}"))?;
    if crc32(&payload) != crc {
        return Err("segment header checksum mismatch".to_string());
    }
    let mut c = Cursor::new(&payload);
    match c.u8() {
        Ok(KIND_SEGMENT) => {}
        Ok(k) => return Err(format!("first record has kind {k}, not a segment header")),
        Err(e) => return Err(format!("empty header payload: {e}")),
    }
    let h = decode_header_body(&mut c).map_err(|e| format!("undecodable segment header: {e}"))?;
    if !c.is_empty() {
        return Err("trailing bytes after segment header".to_string());
    }
    Ok(h)
}

/// Scan `dir` for WAL segment files and validate them into a contiguous
/// chain. Validation is purely structural (names, headers, base-offset
/// continuity); record-level CRC checking is replay's job. Files that fail
/// to continue the chain — and everything after them — land in `orphans`.
pub fn scan_segments(dir: &Path) -> std::io::Result<SegmentScan> {
    let mut named: Vec<(u64, PathBuf)> = Vec::new();
    let entries = match fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(SegmentScan::default()),
        other => other?,
    };
    for entry in entries {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_file_name) {
            named.push((seq, entry.path()));
        }
    }
    named.sort_by_key(|(seq, _)| *seq);
    let mut scan = SegmentScan::default();
    let orphaned = |scan: &mut SegmentScan, rest: &[(u64, PathBuf)], reason: String| {
        if scan.orphan_reason.is_none() {
            scan.orphan_reason = Some(reason);
        }
        scan.orphans.extend(rest.iter().map(|(_, p)| p.clone()));
    };
    for (i, (seq, path)) in named.iter().enumerate() {
        let len = fs::metadata(path)?.len();
        let info = if *seq == 0 {
            SegmentInfo { seq: 0, path: path.clone(), len, base: 0, answers_before: 0 }
        } else {
            let header = match read_segment_header(path) {
                Ok(h) => h,
                Err(why) => {
                    orphaned(&mut scan, &named[i..], format!("{}: {why}", path.display()));
                    break;
                }
            };
            if header.seq != *seq {
                orphaned(
                    &mut scan,
                    &named[i..],
                    format!(
                        "{}: header claims seq {}, file name says {seq}",
                        path.display(),
                        header.seq
                    ),
                );
                break;
            }
            if let Some(prev) = scan.segments.last() {
                let end = prev.base + prev.len;
                if header.base_offset != end {
                    orphaned(
                        &mut scan,
                        &named[i..],
                        format!(
                            "{}: header base offset {} does not continue the chain \
                             (previous segment ends at {end})",
                            path.display(),
                            header.base_offset
                        ),
                    );
                    break;
                }
                if header.answers_before < prev.answers_before {
                    orphaned(
                        &mut scan,
                        &named[i..],
                        format!("{}: answer count regressed across segments", path.display()),
                    );
                    break;
                }
            }
            SegmentInfo {
                seq: *seq,
                path: path.clone(),
                len,
                base: header.base_offset,
                answers_before: header.answers_before,
            }
        };
        scan.segments.push(info);
    }
    Ok(scan)
}

/// Remove rotation residue: `wal.<seq>.log.tmp` files a crash left behind
/// mid-rotation (never renamed, so never part of any chain).
pub(crate) fn remove_stale_tmp(dir: &Path) -> std::io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        other => other?,
    };
    for entry in entries {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if name.starts_with("wal.") && name.ends_with(".log.tmp") {
                fs::remove_file(entry.path())?;
            }
        }
    }
    Ok(())
}

/// Every rotated (`seq >= 1`) segment file in `dir`, by name only — used by
/// `rewrite_wal` to clear stale segments after it renames a fresh
/// single-segment log into place.
pub(crate) fn rotated_segment_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        other => other?,
    };
    for entry in entries {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_file_name) {
            if seq > 0 {
                out.push(entry.path());
            }
        }
    }
    Ok(out)
}

/// Delete cold segments: every **non-active** segment wholly below
/// `covered` — a logical offset the durable snapshot-chain *base* vouches
/// for. Only a contiguous prefix is removed (the chain must stay
/// continuous), and the last segment is never touched. Returns how many
/// files were deleted.
///
/// Safety argument: recovery restores everything at or below the snapshot
/// base from the snapshot itself and replays the WAL only from the chain
/// tip's offset (falling back no further than the base), so bytes below
/// the base offset are never read again. Deleting them trades the
/// "snapshot corrupt → full replay" fallback for bounded recovery — after
/// compaction, a corrupt snapshot *base* is a loud recovery error, which
/// is why the threshold is the base offset, not the (softer) chain tip.
pub(crate) fn compact_cold_segments(dir: &Path, covered: u64) -> std::io::Result<u64> {
    let scan = scan_segments(dir)?;
    if scan.segments.len() <= 1 {
        return Ok(0);
    }
    let mut removed = 0u64;
    for seg in &scan.segments[..scan.segments.len() - 1] {
        if seg.base + seg.len <= covered {
            fs::remove_file(&seg.path)?;
            removed += 1;
        } else {
            break;
        }
    }
    if removed > 0 {
        crate::wal::sync_dir(dir);
    }
    Ok(removed)
}

/// Count the live segment files of `dir` (for the observability gauge).
pub fn count_segments(dir: &Path) -> u64 {
    scan_segments(dir).map(|s| s.segments.len() as u64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_and_reject_impostors() {
        assert_eq!(segment_file_name(0), "wal.log");
        assert_eq!(segment_file_name(1), "wal.00000001.log");
        assert_eq!(segment_file_name(42), "wal.00000042.log");
        assert_eq!(parse_segment_file_name("wal.log"), Some(0));
        assert_eq!(parse_segment_file_name("wal.00000042.log"), Some(42));
        for bad in [
            "wal.00000000.log", // aliases wal.log
            "wal.1.log",
            "wal.00000001.log.tmp",
            "wal.0000000x.log",
            "snapshot.snap",
            "wal.rewrite.tmp",
        ] {
            assert_eq!(parse_segment_file_name(bad), None, "{bad}");
        }
    }
}
