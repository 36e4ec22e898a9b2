//! The append-only, segmented write-ahead log.
//!
//! Segments are named `seg-<first-lsn>.wal` (zero-padded so lexical order
//! is LSN order). The writer appends framed records (see [`crate::frame`])
//! with group commit: frames accumulate in an in-memory buffer and are
//! written out when the batch fills, with fsync cadence governed by
//! [`FsyncPolicy`]. Dropping the writer does **not** flush — that is the
//! crash model; call [`Wal::flush`] for a graceful shutdown.
//!
//! Reading tolerates a *torn tail*: a bad frame at the end of the newest
//! segment (a write interrupted by the crash) truncates the log there. A
//! bad frame anywhere else — in any segment that valid data follows — is
//! corruption and surfaces as an error, never as silent data loss.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use quaestor_common::{Error, Result};

use crate::codec::WalRecord;
use crate::config::{DurabilityConfig, FsyncPolicy};
use crate::frame::{encode_frame, read_frame, FrameRead};

const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_SUFFIX: &str = ".wal";

pub(crate) fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{context}: {e}"))
}

/// Fsync a directory so freshly created/renamed entries survive power
/// loss (fsyncing a file does not persist its directory entry).
pub(crate) fn fsync_dir(dir: &Path) -> Result<()> {
    let f = std::fs::File::open(dir).map_err(|e| io_err("open dir for fsync", e))?;
    f.sync_all().map_err(|e| io_err("fsync dir", e))
}

/// Name of the segment whose first frame has `lsn`.
fn segment_name(lsn: u64) -> String {
    format!("{SEGMENT_PREFIX}{lsn:020}{SEGMENT_SUFFIX}")
}

/// Parse a segment file name back to its first LSN.
fn segment_start(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// List segment files in `dir`, sorted by starting LSN.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("read wal dir", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read wal dir entry", e))?;
        if let Some(start) = entry.file_name().to_str().and_then(segment_start) {
            out.push((start, entry.path()));
        }
    }
    out.sort_by_key(|(start, _)| *start);
    Ok(out)
}

/// What a full log scan found.
#[derive(Debug)]
pub struct LogScan {
    /// All valid frames in LSN order.
    pub frames: Vec<(u64, WalRecord)>,
    /// Next LSN the writer should assign.
    pub next_lsn: u64,
    /// Bytes cut off the newest segment because of a torn tail (0 for a
    /// clean log).
    pub truncated_bytes: u64,
}

/// Scan every segment in `dir` starting from `first_lsn`, validating CRCs
/// and LSN continuity.
///
/// A bad frame at the tail of the **newest** segment is treated as a torn
/// write: the segment file is truncated to its valid prefix and the scan
/// succeeds. A bad frame in any older segment is mid-log corruption and
/// fails the scan.
pub fn scan(dir: &Path, first_lsn: u64) -> Result<LogScan> {
    let segments = list_segments(dir)?;
    let mut frames = Vec::new();
    let mut truncated_bytes = 0u64;
    let mut expected_lsn = first_lsn;
    let last_index = segments.len().saturating_sub(1);
    for (i, (start, path)) in segments.iter().enumerate() {
        if *start != expected_lsn {
            return Err(Error::Io(format!(
                "wal gap: segment {} starts at lsn {start}, expected {expected_lsn}",
                path.display()
            )));
        }
        let buf = std::fs::read(path).map_err(|e| io_err("read segment", e))?;
        let mut offset = 0usize;
        loop {
            match read_frame(&buf, offset) {
                FrameRead::Frame { lsn, record, size } => {
                    if lsn != expected_lsn {
                        return Err(Error::Io(format!(
                            "wal corruption in {}: frame lsn {lsn}, expected {expected_lsn}",
                            path.display()
                        )));
                    }
                    frames.push((lsn, record));
                    expected_lsn = lsn + 1;
                    offset += size;
                }
                FrameRead::Eof => break,
                FrameRead::BadTail(reason) => {
                    if i != last_index {
                        return Err(Error::Io(format!(
                            "wal corruption mid-log in {}: {reason} (valid segments follow)",
                            path.display()
                        )));
                    }
                    // A bad frame in the newest segment is only a *torn
                    // tail* if nothing valid follows it. If any complete
                    // frame decodes after the damage, truncating here
                    // would silently discard acknowledged, fsynced
                    // writes — that is mid-log corruption (bit rot in
                    // frame k with frames k+1.. intact) and must fail
                    // loudly. The byte-wise probe is O(bytes) but runs
                    // only on the damaged-recovery path; a false
                    // positive needs a 2^-32 CRC collision at a bogus
                    // offset.
                    if let Some(valid_at) = ((offset + 1)..buf.len())
                        .find(|&probe| matches!(read_frame(&buf, probe), FrameRead::Frame { .. }))
                    {
                        return Err(Error::Io(format!(
                            "wal corruption mid-log in {}: {reason} at byte {offset}, but a                              valid frame follows at byte {valid_at}",
                            path.display()
                        )));
                    }
                    // Torn tail of the newest segment: truncate to the
                    // valid prefix so the next append continues cleanly.
                    truncated_bytes = (buf.len() - offset) as u64;
                    let f = OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(|e| io_err("open segment for truncation", e))?;
                    f.set_len(offset as u64)
                        .map_err(|e| io_err("truncate torn tail", e))?;
                    f.sync_all()
                        .map_err(|e| io_err("sync truncated segment", e))?;
                    break;
                }
            }
        }
    }
    Ok(LogScan {
        frames,
        next_lsn: expected_lsn,
        truncated_bytes,
    })
}

/// Read up to `max` complete frames with LSN strictly above `after_lsn`:
/// [`TailCursor::read`] from a fresh cursor. Errors if the log no longer
/// retains `after_lsn + 1` (compacted away).
pub fn read_frames_after(dir: &Path, after_lsn: u64, max: usize) -> Result<Vec<(u64, WalRecord)>> {
    TailCursor::after(after_lsn).read(dir, max)
}

/// A replication tailer's position in the log: the next LSN it wants
/// and, once it has read that far, the segment and byte offset where
/// that LSN's frame starts. Each [`read`](Self::read) picks up at the
/// offset, so a caught-up tailer reads only the bytes written since its
/// last read instead of re-decoding the whole active segment.
#[derive(Debug, Clone)]
pub struct TailCursor {
    /// LSN of the next frame to return.
    next_lsn: u64,
    /// `(segment start LSN, byte offset of next_lsn's frame)`; `None`
    /// until a read has walked up to `next_lsn`.
    at: Option<(u64, u64)>,
}

impl TailCursor {
    /// A cursor whose first read returns the frame after `lsn`.
    pub fn after(lsn: u64) -> TailCursor {
        TailCursor {
            next_lsn: lsn + 1,
            at: None,
        }
    }

    /// LSN of the last frame this cursor has returned (or started after).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Read up to `max` complete frames past the cursor from the segment
    /// files in `dir`, without any lock, and advance past them. The
    /// writer may be appending concurrently, so a torn frame at the end
    /// of the newest segment just means "caught up": the cursor stays
    /// before it and the next read retries from there. CRCs and LSN
    /// order are checked as in [`scan`], and the cursor follows segment
    /// rotation.
    ///
    /// Errors if the log no longer retains the cursor's next LSN
    /// (compacted away): the caller cannot resume and must re-seed.
    pub fn read(&mut self, dir: &Path, max: usize) -> Result<Vec<(u64, WalRecord)>> {
        // Listing first means every listed segment but the last was
        // complete before any byte below is read.
        let segments = list_segments(dir)?;
        let mut out = Vec::new();
        if segments.is_empty() || max == 0 {
            return Ok(out);
        }
        let resumed = self.at.and_then(|(seg, offset)| {
            Some((segments.iter().position(|(s, _)| *s == seg)?, offset))
        });
        // `expected` is the LSN of the frame at `offset`.
        let (mut idx, mut offset, mut expected) = match resumed {
            Some((idx, offset)) => (idx, offset, self.next_lsn),
            None => {
                if segments[0].0 > self.next_lsn {
                    return Err(Error::Io(format!(
                        "wal tail read: frames from lsn {} were compacted (oldest segment \
                         starts at {})",
                        self.next_lsn, segments[0].0
                    )));
                }
                // The newest segment starting at or below the cursor.
                let idx = segments
                    .iter()
                    .rposition(|(s, _)| *s <= self.next_lsn)
                    .unwrap_or(0);
                (idx, 0, segments[idx].0)
            }
        };
        loop {
            let (seg_start, path) = &segments[idx];
            let buf = match read_from(path, offset) {
                Ok(b) => b,
                // Compaction may remove a segment between the listing and
                // this read; the tailer retries from its cursor next time.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
                Err(e) => return Err(io_err("read segment for tail", e)),
            };
            let mut pos = 0usize;
            let clean_end = loop {
                if out.len() >= max {
                    break false;
                }
                match read_frame(&buf, pos) {
                    FrameRead::Frame { lsn, record, size } => {
                        if lsn != expected {
                            return Err(Error::Io(format!(
                                "wal tail read: frame lsn {lsn} in {}, expected {expected}",
                                path.display()
                            )));
                        }
                        if lsn >= self.next_lsn {
                            out.push((lsn, record));
                            self.next_lsn = lsn + 1;
                        }
                        expected = lsn + 1;
                        pos += size;
                    }
                    FrameRead::Eof => break true,
                    // An incomplete frame mid-write: stop here, do not
                    // skip ahead into later segments.
                    FrameRead::BadTail(_) => break false,
                }
            };
            offset += pos as u64;
            if expected == self.next_lsn {
                self.at = Some((*seg_start, offset));
            }
            if !clean_end || idx + 1 == segments.len() {
                break;
            }
            idx += 1;
            if segments[idx].0 != expected {
                return Err(Error::Io(format!(
                    "wal tail read: segment {} starts at lsn {}, expected {expected}",
                    segments[idx].1.display(),
                    segments[idx].0
                )));
            }
            offset = 0;
        }
        Ok(out)
    }
}

/// The bytes of the file at `path` from byte `offset` to its end.
fn read_from(path: &Path, offset: u64) -> std::io::Result<Vec<u8>> {
    use std::io::{Read as _, Seek as _};
    let mut file = File::open(path)?;
    file.seek(std::io::SeekFrom::Start(offset))?;
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    Ok(buf)
}

/// Delete or cut back segment files so no frame with LSN above `lsn`
/// survives. Used when a fenced node rejoins as a replica and must drop
/// the unreplicated suffix that diverges from the new primary's history.
/// Must run while no [`Wal`] writer is open on `dir`. Returns the number
/// of frames dropped.
pub fn truncate_above(dir: &Path, lsn: u64) -> Result<u64> {
    let mut dropped = 0u64;
    for (seg_start, path) in &list_segments(dir)? {
        let buf = std::fs::read(path).map_err(|e| io_err("read segment for truncation", e))?;
        if *seg_start > lsn {
            // Entirely above the cut: count its frames and remove it.
            let mut offset = 0usize;
            while let FrameRead::Frame { size, .. } = read_frame(&buf, offset) {
                dropped += 1;
                offset += size;
            }
            std::fs::remove_file(path).map_err(|e| io_err("remove truncated segment", e))?;
            continue;
        }
        // Walk to the byte offset right after `lsn` and cut there.
        let mut offset = 0usize;
        while let FrameRead::Frame {
            lsn: frame_lsn,
            size,
            ..
        } = read_frame(&buf, offset)
        {
            if frame_lsn > lsn {
                break;
            }
            offset += size;
        }
        if offset < buf.len() {
            let mut probe = offset;
            while let FrameRead::Frame { size, .. } = read_frame(&buf, probe) {
                dropped += 1;
                probe += size;
            }
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err("open segment for truncation", e))?;
            f.set_len(offset as u64)
                .map_err(|e| io_err("truncate segment", e))?;
            f.sync_all()
                .map_err(|e| io_err("sync truncated segment", e))?;
        }
    }
    if dropped > 0 {
        fsync_dir(dir)?;
    }
    Ok(dropped)
}

/// The segmented WAL writer.
pub struct Wal {
    dir: PathBuf,
    config: DurabilityConfig,
    /// Open handle on the active segment.
    file: File,
    /// Bytes already written to the active segment.
    segment_bytes: u64,
    /// Next LSN to assign.
    next_lsn: u64,
    /// Encoded-but-unwritten frames (the group-commit buffer) and how
    /// many frames it holds.
    buffer: Vec<u8>,
    buffered_frames: usize,
    /// Frames written to the file but not yet fsynced (for `EveryN`).
    unsynced_frames: usize,
    /// Highest LSN written to the segment file.
    written_lsn: u64,
    /// Highest LSN known fsynced. `commit` under `Always` fast-paths
    /// when another committer's fsync already covered the caller's LSN —
    /// that observation *is* the group commit.
    durable_lsn: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("next_lsn", &self.next_lsn)
            .field("buffered_frames", &self.buffered_frames)
            .finish()
    }
}

impl Wal {
    /// Open (creating if needed) the log in `dir`, continuing after
    /// `next_lsn - 1`. [`scan`] must have run first — it both yields
    /// `next_lsn` and repairs any torn tail.
    pub fn open(dir: &Path, config: DurabilityConfig, next_lsn: u64) -> Result<Wal> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create wal dir", e))?;
        let segments = list_segments(dir)?;
        let (path, segment_bytes) = match segments.last() {
            Some((_, path)) => {
                let len = std::fs::metadata(path)
                    .map_err(|e| io_err("stat segment", e))?
                    .len();
                (path.clone(), len)
            }
            None => (dir.join(segment_name(next_lsn)), 0),
        };
        let created = !path.exists();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open segment", e))?;
        if created {
            // Persist the new segment's directory entry: frames fsynced
            // into a file whose dir entry is lost are frames lost.
            fsync_dir(dir)?;
        }
        Ok(Wal {
            dir: dir.to_path_buf(),
            config,
            file,
            segment_bytes,
            next_lsn,
            buffer: Vec::new(),
            buffered_frames: 0,
            unsynced_frames: 0,
            written_lsn: next_lsn - 1,
            durable_lsn: next_lsn - 1,
        })
    }

    /// Stage one record into the group-commit buffer; returns its LSN.
    /// Cheap (an in-memory encode) — the durable half is
    /// [`commit`](Self::commit). The two are split so callers can stage
    /// inside a critical section (preserving ordering) and pay for I/O
    /// outside it.
    pub fn stage(&mut self, record: &WalRecord) -> Result<u64> {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        encode_frame(lsn, record, &mut self.buffer);
        self.buffered_frames += 1;
        Ok(lsn)
    }

    /// Make the staged `lsn` as durable as the [`FsyncPolicy`] promises.
    /// Under `Always` this returns only once `lsn` is fsynced — and one
    /// committer's fsync covers every LSN staged before it, so
    /// concurrent writers amortize to one sync per batch (group
    /// commit). Under `EveryN(n)` the buffer drains and syncs on its
    /// cadence (loss bounded by `n`); under `OsDefault` the buffer
    /// drains on the group boundary and the page cache does the rest.
    pub fn commit(&mut self, lsn: u64) -> Result<()> {
        match self.config.fsync {
            FsyncPolicy::Always => {
                if self.durable_lsn >= lsn {
                    return Ok(());
                }
                self.write_buffer()?;
                self.sync()?;
            }
            FsyncPolicy::EveryN(n) => {
                let n = n.max(1);
                // `EveryN(n)` promises "at most n acknowledged writes
                // lost", so the in-memory buffer must drain at least
                // every n frames even when the group is larger.
                let write_threshold = self.config.group_commit.max(1).min(n);
                if self.buffered_frames >= write_threshold {
                    self.write_buffer()?;
                }
                if self.unsynced_frames >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::OsDefault => {
                if self.buffered_frames >= self.config.group_commit.max(1) {
                    self.write_buffer()?;
                }
            }
        }
        Ok(())
    }

    /// Stage + commit in one call (metadata records, tests).
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        let lsn = self.stage(record)?;
        self.commit(lsn)?;
        Ok(lsn)
    }

    /// Write the group-commit buffer to the active segment, rotating
    /// first if the segment is full.
    fn write_buffer(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        if self.segment_bytes >= self.config.max_segment_bytes {
            // The new segment's name is the LSN of the first frame it
            // will hold — the oldest frame in the buffer.
            self.rotate(self.next_lsn - self.buffered_frames as u64)?;
        }
        self.file
            .write_all(&self.buffer)
            .map_err(|e| io_err("append to segment", e))?;
        self.segment_bytes += self.buffer.len() as u64;
        self.unsynced_frames += self.buffered_frames;
        self.buffer.clear();
        self.buffered_frames = 0;
        // The buffer always ends at the most recently staged LSN.
        self.written_lsn = self.next_lsn - 1;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync segment", e))?;
        self.unsynced_frames = 0;
        self.durable_lsn = self.written_lsn;
        Ok(())
    }

    /// Flush the group-commit buffer and fsync regardless of policy.
    /// Returns the highest LSN now durable on disk.
    pub fn flush(&mut self) -> Result<u64> {
        self.write_buffer()?;
        self.sync()?;
        Ok(self.durable_lsn)
    }

    /// Highest LSN assigned so far (`first_lsn - 1` if none).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Highest LSN known fsynced to stable storage.
    pub fn durable(&self) -> u64 {
        self.durable_lsn
    }

    /// Highest LSN written out to the segment files, where tail readers
    /// can see it.
    pub fn written(&self) -> u64 {
        self.written_lsn
    }

    /// Rotate to a fresh segment starting at `first_lsn`. The old segment
    /// is synced first so rotation never widens the loss window.
    fn rotate(&mut self, first_lsn: u64) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync before rotate", e))?;
        self.unsynced_frames = 0;
        self.durable_lsn = self.written_lsn;
        let path = self.dir.join(segment_name(first_lsn));
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open new segment", e))?;
        fsync_dir(&self.dir)?;
        self.segment_bytes = 0;
        Ok(())
    }

    /// Delete every segment whose frames all have LSN ≤ `keep_lsn`: a
    /// segment is removable when the *next* segment starts at or below
    /// `keep_lsn + 1`. The active (newest) segment always survives.
    /// Returns the number removed.
    pub fn compact_below(&mut self, keep_lsn: u64) -> Result<usize> {
        let segments = list_segments(&self.dir)?;
        let mut removed = 0;
        for window in segments.windows(2) {
            let (_, ref path) = window[0];
            let (next_start, _) = window[1];
            if next_start <= keep_lsn + 1 {
                std::fs::remove_file(path).map_err(|e| io_err("remove compacted segment", e))?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::scratch_dir;

    fn temp_dir(tag: &str) -> PathBuf {
        scratch_dir(&format!("wal-{tag}"))
    }

    fn rec(i: u64) -> WalRecord {
        WalRecord::CreateTable {
            table: format!("t{i}"),
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), 1).unwrap();
        for i in 0..10 {
            assert_eq!(wal.append(&rec(i)).unwrap(), i + 1);
        }
        wal.flush().unwrap();
        let scan = scan(&dir, 1).unwrap();
        assert_eq!(scan.frames.len(), 10);
        assert_eq!(scan.next_lsn, 11);
        assert_eq!(scan.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_buffers_until_batch_fills() {
        let dir = temp_dir("group");
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::OsDefault,
            group_commit: 4,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..3 {
            wal.append(&rec(i)).unwrap();
        }
        // Crash before the batch fills: the 3 buffered frames are lost.
        drop(wal);
        assert_eq!(scan(&dir, 1).unwrap().frames.len(), 0);
        // Refill past the batch boundary: 4 frames hit the file.
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..5 {
            wal.append(&rec(i)).unwrap();
        }
        drop(wal);
        assert_eq!(scan(&dir, 1).unwrap().frames.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn always_policy_survives_unflushed_drop() {
        let dir = temp_dir("always");
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), 1).unwrap();
        for i in 0..7 {
            wal.append(&rec(i)).unwrap();
        }
        drop(wal); // no flush — the crash model
        assert_eq!(scan(&dir, 1).unwrap().frames.len(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_resume() {
        let dir = temp_dir("rotate");
        let cfg = DurabilityConfig {
            max_segment_bytes: 256,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..50 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "256-byte segments must have rotated"
        );
        // Reopen and keep appending across the boundary.
        let s = scan(&dir, 1).unwrap();
        assert_eq!(s.frames.len(), 50);
        let mut wal = Wal::open(&dir, cfg, s.next_lsn).unwrap();
        wal.append(&rec(99)).unwrap();
        wal.flush().unwrap();
        assert_eq!(scan(&dir, 1).unwrap().frames.len(), 51);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_only_newest_segment() {
        let dir = temp_dir("torn");
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), 1).unwrap();
        for i in 0..5 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Chop bytes off the newest segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let s = scan(&dir, 1).unwrap();
        assert_eq!(s.frames.len(), 4, "last frame torn, first four intact");
        assert!(s.truncated_bytes > 0);
        // Scan repaired the file: a second scan is clean.
        let s2 = scan(&dir, 1).unwrap();
        assert_eq!(s2.truncated_bytes, 0);
        assert_eq!(s2.frames.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let dir = temp_dir("midlog");
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..40 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 2);
        // Flip a byte in the FIRST segment — valid segments follow, so
        // this must be corruption, not a torn tail.
        let path = &segments[0].1;
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
        let err = scan(&dir, 1).unwrap_err();
        assert!(err.to_string().contains("corruption"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_frame_with_valid_frames_after_it_is_corruption_even_in_newest_segment() {
        let dir = temp_dir("midseg");
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), 1).unwrap();
        for i in 0..6 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Single segment (16 MiB default): flip a byte in the SECOND
        // frame — frames 3..6, all acknowledged and fsynced, follow it.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Frame 1's size: read it to find frame 2's offset.
        let first_size = match read_frame(&bytes, 0) {
            FrameRead::Frame { size, .. } => size,
            other => panic!("expected frame, got {other:?}"),
        };
        bytes[first_size + 12] ^= 0xFF; // inside frame 2's payload
        std::fs::write(&path, &bytes).unwrap();
        let err = scan(&dir, 1).unwrap_err();
        assert!(
            err.to_string().contains("valid frame follows"),
            "must refuse to truncate past acknowledged frames, got: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_read_follows_a_live_writer() {
        let dir = temp_dir("tail");
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..10 {
            wal.append(&rec(i)).unwrap();
        }
        // Cursor at 0: everything; at 7: the suffix; capped by max.
        let all = read_frames_after(&dir, 0, 100).unwrap();
        assert_eq!(
            all.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            (1..=10).collect::<Vec<_>>()
        );
        let tail = read_frames_after(&dir, 7, 100).unwrap();
        assert_eq!(tail.iter().map(|(l, _)| *l).collect::<Vec<_>>(), [8, 9, 10]);
        let capped = read_frames_after(&dir, 0, 4).unwrap();
        assert_eq!(capped.len(), 4);
        // The writer keeps going; the tailer picks up from its cursor.
        for i in 10..15 {
            wal.append(&rec(i)).unwrap();
        }
        let more = read_frames_after(&dir, 10, 100).unwrap();
        assert_eq!(
            more.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            (11..=15).collect::<Vec<_>>()
        );
        // A torn frame at the tail reads as "caught up", not an error.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 2)
            .unwrap();
        let torn = read_frames_after(&dir, 10, 100).unwrap();
        assert_eq!(torn.last().unwrap().0, 14, "torn final frame not served");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_read_errors_when_cursor_is_compacted() {
        let dir = temp_dir("tailgone");
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..40 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        let second_start = list_segments(&dir).unwrap()[1].0;
        wal.compact_below(second_start - 1).unwrap();
        let err = read_frames_after(&dir, 0, 100).unwrap_err();
        assert!(err.to_string().contains("compacted"), "got: {err}");
        // A cursor inside the retained range still works.
        let ok = read_frames_after(&dir, second_start - 1, 100).unwrap();
        assert_eq!(ok.first().unwrap().0, second_start);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn lsns(frames: &[(u64, WalRecord)]) -> Vec<u64> {
        frames.iter().map(|(l, _)| *l).collect()
    }

    /// Frames big enough that a few dozen fill a 64 KiB segment.
    fn big_rec(i: u64) -> WalRecord {
        WalRecord::CreateTable {
            table: format!("t{i}-{}", "x".repeat(1000)),
        }
    }

    fn fast_cfg(max_segment_bytes: u64) -> DurabilityConfig {
        DurabilityConfig {
            fsync: FsyncPolicy::OsDefault,
            group_commit: 1,
            max_segment_bytes,
            ..DurabilityConfig::default()
        }
    }

    #[test]
    fn cursor_tail_follows_rotation() {
        let dir = temp_dir("cursor-rotate");
        let mut wal = Wal::open(&dir, fast_cfg(64 << 10), 1).unwrap();
        let mut cursor = TailCursor::after(0);
        let mut seen = Vec::new();
        for i in 0..300 {
            wal.append(&big_rec(i)).unwrap();
            if i % 7 == 0 {
                seen.extend(cursor.read(&dir, usize::MAX).unwrap());
            }
        }
        seen.extend(cursor.read(&dir, usize::MAX).unwrap());
        assert!(
            list_segments(&dir).unwrap().len() > 3,
            "64 KiB segments must have rotated several times"
        );
        assert_eq!(lsns(&seen), (1..=300).collect::<Vec<_>>());
        assert_eq!(cursor.last_lsn(), 300);
        assert!(cursor.read(&dir, usize::MAX).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_returns_prefix_of_half_written_frame_then_the_rest() {
        let dir = temp_dir("cursor-torn");
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), 1).unwrap();
        for i in 0..5 {
            wal.append(&rec(i)).unwrap();
        }
        drop(wal);
        let mut frame = Vec::new();
        encode_frame(6, &rec(5), &mut frame);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        let half = frame.len() / 2;
        file.write_all(&frame[..half]).unwrap();
        let mut cursor = TailCursor::after(0);
        assert_eq!(lsns(&cursor.read(&dir, 100).unwrap()), [1, 2, 3, 4, 5]);
        assert!(cursor.read(&dir, 100).unwrap().is_empty(), "still torn");
        file.write_all(&frame[half..]).unwrap();
        let rest = cursor.read(&dir, 100).unwrap();
        assert_eq!(lsns(&rest), [6]);
        assert!(matches!(&rest[0].1, WalRecord::CreateTable { table } if table == "t5"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn positioned_cursor_errors_once_compacted() {
        let dir = temp_dir("cursor-gone");
        let mut wal = Wal::open(&dir, fast_cfg(128), 1).unwrap();
        for i in 0..40 {
            wal.append(&rec(i)).unwrap();
        }
        let mut cursor = TailCursor::after(0);
        assert_eq!(lsns(&cursor.read(&dir, 2).unwrap()), [1, 2]);
        let second_start = list_segments(&dir).unwrap()[1].0;
        wal.compact_below(second_start - 1).unwrap();
        let err = cursor.read(&dir, 100).unwrap_err();
        assert!(err.to_string().contains("compacted"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reads_chunked_by_max_equal_one_full_read() {
        let dir = temp_dir("cursor-chunks");
        let mut wal = Wal::open(&dir, fast_cfg(256), 1).unwrap();
        for i in 0..60 {
            wal.append(&rec(i)).unwrap();
        }
        let full = read_frames_after(&dir, 0, usize::MAX).unwrap();
        assert_eq!(full.len(), 60);
        for max in 1..=7 {
            let mut cursor = TailCursor::after(0);
            let mut chunked = Vec::new();
            loop {
                let got = cursor.read(&dir, max).unwrap();
                assert!(got.len() <= max);
                if got.is_empty() {
                    break;
                }
                chunked.extend(got);
            }
            assert_eq!(chunked, full, "max {max}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_above_cuts_frames_and_whole_segments() {
        let dir = temp_dir("truncabove");
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..40 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let dropped = truncate_above(&dir, 17).unwrap();
        assert_eq!(dropped, 23, "frames 18..=40 removed");
        let s = scan(&dir, 1).unwrap();
        assert_eq!(s.next_lsn, 18);
        assert_eq!(s.frames.last().unwrap().0, 17);
        // Idempotent: nothing above 17 remains.
        assert_eq!(truncate_above(&dir, 17).unwrap(), 0);
        // The log reopens and continues from the cut.
        let mut wal = Wal::open(&dir, cfg, s.next_lsn).unwrap();
        assert_eq!(wal.append(&rec(99)).unwrap(), 18);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_fully_covered_segments() {
        let dir = temp_dir("compact");
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..40 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        let before = list_segments(&dir).unwrap();
        assert!(before.len() > 2);
        // Keep everything above the second segment's start.
        let keep = before[2].0 - 1;
        let removed = wal.compact_below(keep).unwrap();
        assert_eq!(removed, 2);
        let after = list_segments(&dir).unwrap();
        assert_eq!(after.len(), before.len() - 2);
        // The surviving log still scans cleanly from its new start.
        let s = scan(&dir, after[0].0).unwrap();
        assert_eq!(s.next_lsn, 41);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
