//! Binary trace codec: framed chunks of fixed-width access records.
//!
//! The `impress-trace` frontend exchanges physical-address streams in a simple,
//! self-describing binary format designed for streaming ingestion:
//!
//! ```text
//! header:  "IMPT" | version u16 | flags u16 | cores u8 | name_len u8
//!          | name (name_len bytes, UTF-8)
//!          | instructions_per_miss: cores × f64  (little-endian bit patterns)
//! frame:   "IMPC" | record_count u32 | record_count × 16-byte records | checksum u64
//! record:  address u64 | gap u32 | core u8 | flags u8 (bit 0 = write) | reserved u16
//! ```
//!
//! All integers are little-endian. Frames are self-delimiting and checksummed, so a
//! reader can stream chunk-by-chunk from a file, a pipe or a socket without knowing
//! the total length in advance, and corruption is detected at frame granularity.
//! Records are exactly [`RECORD_BYTES`] wide, so [`TraceReader`] decodes them in
//! place: a validated frame's payload stays in the reader's byte buffer and each
//! record is decoded only when it is yielded.
//!
//! # Corruption handling
//!
//! The reader has two [`DecodeMode`]s:
//!
//! * [`DecodeMode::Strict`] (the default) aborts on the first corrupt structure
//!   with an error that names the absolute byte offset and frame index.
//! * [`DecodeMode::Resync`] treats the frame magic as a resynchronization marker:
//!   on a bad magic, an implausible record count, a checksum mismatch or a
//!   truncated frame it scans forward for the next `IMPC`, skips the damaged
//!   region, and records a structured [`IngestFault`]. Each fault carries a
//!   **conservative upper bound** on the records lost in the skipped region
//!   (`ceil(bytes_skipped / RECORD_BYTES)`, and at least the frame's declared
//!   record count when that count was plausible), so downstream verdicts can
//!   report a worst-case unaccounted-disturbance bound instead of silently
//!   under-counting. A stream that ends mid-structure sets
//!   [`TraceReader::truncated`]; truncation that happens to land exactly on a
//!   frame boundary is indistinguishable from a clean end of stream in-band
//!   (higher layers bound it with checkpointed record counts).
//!
//! Both modes parse frames through the same reader, which validates a frame
//! before consuming it; they differ only in how damage is answered.

use std::io::{self, Read, Write};

use impress_dram::address::PhysicalAddress;

use crate::source::TraceSource;
use crate::trace::MemoryAccess;

/// Magic bytes opening a trace stream.
pub const TRACE_MAGIC: [u8; 4] = *b"IMPT";
/// Magic bytes opening each frame.
pub const FRAME_MAGIC: [u8; 4] = *b"IMPC";
/// Codec version emitted by [`TraceWriter`]. v2 changed the frame checksum
/// from byte-serial FNV-1a to the word-parallel [`frame_checksum`]; layout is
/// otherwise identical to v1.
pub const TRACE_VERSION: u16 = 2;
/// Size of one encoded record in bytes.
pub const RECORD_BYTES: usize = 16;
/// Records per frame emitted by [`TraceWriter`] (128 KiB of payload).
pub const FRAME_RECORDS: usize = 8192;

/// Header flag: records carry meaningful inter-arrival gaps.
const FLAG_HAS_GAPS: u16 = 1 << 0;
/// Record flag: the access is a write.
const REC_WRITE: u8 = 1 << 0;

/// Stream-level metadata carried in the trace header.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Name of the workload the trace was recorded from.
    pub name: String,
    /// Number of cores whose accesses appear in the stream.
    pub cores: u8,
    /// Whether records carry meaningful inter-arrival gaps (open-loop replay);
    /// when false every `gap` field is zero and replay paces itself.
    pub has_gaps: bool,
    /// Per-core average instructions per LLC miss, so closed-loop replay can
    /// rebuild the same core models the recording run used.
    pub instructions_per_miss: Vec<f64>,
}

/// One trace record: a memory access plus the inter-arrival gap (in DRAM cycles)
/// since the previous record in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Physical byte address of the access.
    pub address: u64,
    /// DRAM cycles since the previous record in the stream (0 when unknown).
    pub gap: u32,
    /// Core that issued the access.
    pub core: u8,
    /// Whether the access is a write.
    pub is_write: bool,
}

impl TraceRecord {
    /// Wraps a [`MemoryAccess`] with an inter-arrival gap.
    pub fn from_access(access: MemoryAccess, gap: u32) -> Self {
        Self {
            address: access.address.as_u64(),
            gap,
            core: access.core,
            is_write: access.is_write,
        }
    }

    /// The access this record describes.
    pub fn to_access(self) -> MemoryAccess {
        MemoryAccess {
            address: PhysicalAddress::new(self.address),
            is_write: self.is_write,
            core: self.core,
        }
    }

    /// Encodes the record into its 16-byte wire form.
    pub fn encode(self) -> [u8; RECORD_BYTES] {
        let mut out = [0u8; RECORD_BYTES];
        out[0..8].copy_from_slice(&self.address.to_le_bytes());
        out[8..12].copy_from_slice(&self.gap.to_le_bytes());
        out[12] = self.core;
        out[13] = if self.is_write { REC_WRITE } else { 0 };
        // out[14..16] reserved, zero.
        out
    }

    /// Decodes a record from its 16-byte wire form.
    #[inline]
    pub fn decode(bytes: &[u8; RECORD_BYTES]) -> Self {
        Self {
            address: u64::from_le_bytes(bytes[0..8].try_into().unwrap()),
            gap: u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            core: bytes[12],
            is_write: bytes[13] & REC_WRITE != 0,
        }
    }
}

/// Per-frame checksum: four interleaved multiply-xor lanes over 8-byte words,
/// folded and finished with a splitmix64-style avalanche.
///
/// Replaces the v1 codec's byte-at-a-time FNV-1a, whose loop-carried multiply
/// serialized the whole payload through one ~4-cycle dependency chain per
/// byte — checksumming alone was a measurable share of the open-loop ingest
/// pipeline. Four independent lanes keep the multiplies off the critical
/// path (the frame payload is 128 KiB, so lane startup is amortized to
/// nothing). Detection quality for random corruption is equivalent: every
/// payload bit feeds a multiply and the final avalanche, and the length term
/// separates truncated prefixes. Like v1, this is corruption detection, not
/// a cryptographic MAC.
fn frame_checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64,
        0x8422_2325_cbf2_9ce4,
        0x2545_f491_4f6c_dd1d,
        0x27d4_eb2f_1656_67c5,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().unwrap());
            *lane = (*lane ^ w).wrapping_mul(K);
        }
    }
    // Distinct rotations keep the fold from cancelling lane-aligned damage.
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(17))
        .wrapping_add(lanes[3].rotate_left(29));
    for word in blocks.remainder().chunks(8) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        h = (h ^ u64::from_le_bytes(padded)).wrapping_mul(K);
    }
    h ^= bytes.len() as u64;
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// How a [`TraceReader`] responds to corrupt input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodeMode {
    /// Abort on the first corrupt structure (the default).
    #[default]
    Strict,
    /// Skip damaged regions by scanning for the next frame magic, recording an
    /// [`IngestFault`] per incident.
    Resync,
}

/// What kind of damage a resynchronizing reader encountered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The bytes where a frame should start are not [`FRAME_MAGIC`].
    BadFrameMagic,
    /// A frame declared more than [`FRAME_RECORDS`] records — the count field is
    /// corrupt (the writer never emits oversized frames).
    OversizedFrame,
    /// A frame's payload does not match its stored checksum.
    ChecksumMismatch,
    /// The stream ended inside a frame.
    TruncatedFrame,
}

impl FaultKind {
    /// Stable kebab-case label used in canonical JSON ledgers.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::BadFrameMagic => "bad-frame-magic",
            FaultKind::OversizedFrame => "oversized-frame",
            FaultKind::ChecksumMismatch => "checksum-mismatch",
            FaultKind::TruncatedFrame => "truncated-frame",
        }
    }
}

/// One corruption incident survived by a [`DecodeMode::Resync`] reader.
///
/// `records_lost` is a conservative **upper bound** on the records that were in
/// the skipped region: at least `ceil(bytes_skipped / RECORD_BYTES)` (a skipped
/// region can hold no more records than that) and at least the damaged frame's
/// declared record count when that count was plausible. Summed over a ledger it
/// upper-bounds the stream's true in-band loss, which is what lets a verdict
/// report a worst-case unaccounted-disturbance figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestFault {
    /// What was wrong.
    pub kind: FaultKind,
    /// Absolute byte offset at which the fault was detected (the start of the
    /// structure that failed to parse).
    pub offset: u64,
    /// Index of the frame being decoded when the fault hit (frames decoded so
    /// far; skipped regions do not advance it).
    pub frame_index: u64,
    /// Bytes skipped to reach the next parsable structure (or the end of the
    /// stream).
    pub bytes_skipped: u64,
    /// Conservative upper bound on records lost in the skipped region.
    pub records_lost: u64,
}

/// Streaming trace writer: buffers records and emits checksummed frames.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    inner: W,
    payload: Vec<u8>,
    records_in_frame: usize,
    records_written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the stream header and returns a writer ready for records.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer; rejects metadata whose
    /// name exceeds 255 bytes or whose per-core table does not match `cores`.
    pub fn new(mut inner: W, meta: &TraceMeta) -> io::Result<Self> {
        if meta.name.len() > u8::MAX as usize {
            return Err(bad_data("trace name longer than 255 bytes"));
        }
        if meta.instructions_per_miss.len() != meta.cores as usize {
            return Err(bad_data("instructions_per_miss length must equal cores"));
        }
        let mut header = Vec::with_capacity(16 + meta.name.len() + meta.cores as usize * 8);
        header.extend_from_slice(&TRACE_MAGIC);
        header.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        let flags = if meta.has_gaps { FLAG_HAS_GAPS } else { 0 };
        header.extend_from_slice(&flags.to_le_bytes());
        header.push(meta.cores);
        header.push(meta.name.len() as u8);
        header.extend_from_slice(meta.name.as_bytes());
        for ipm in &meta.instructions_per_miss {
            header.extend_from_slice(&ipm.to_bits().to_le_bytes());
        }
        inner.write_all(&header)?;
        Ok(Self {
            inner,
            payload: Vec::with_capacity(FRAME_RECORDS * RECORD_BYTES),
            records_in_frame: 0,
            records_written: 0,
        })
    }

    /// Appends one record, flushing a frame when it fills.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn push(&mut self, record: TraceRecord) -> io::Result<()> {
        self.payload.extend_from_slice(&record.encode());
        self.records_in_frame += 1;
        self.records_written += 1;
        if self.records_in_frame == FRAME_RECORDS {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Total records pushed so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    fn flush_frame(&mut self) -> io::Result<()> {
        if self.records_in_frame == 0 {
            return Ok(());
        }
        self.inner.write_all(&FRAME_MAGIC)?;
        self.inner
            .write_all(&(self.records_in_frame as u32).to_le_bytes())?;
        self.inner.write_all(&self.payload)?;
        self.inner
            .write_all(&frame_checksum(&self.payload).to_le_bytes())?;
        self.payload.clear();
        self.records_in_frame = 0;
        Ok(())
    }

    /// Flushes the final partial frame and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_frame()?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming trace reader: pulls chunks from a [`TraceSource`], reassembles
/// frames across chunk boundaries, verifies checksums and yields records,
/// decoding each one in place from the validated frame payload.
#[derive(Debug)]
pub struct TraceReader<S: TraceSource> {
    source: S,
    /// Unconsumed bytes carried across chunk boundaries.
    buf: Vec<u8>,
    /// Read cursor into `buf` (compacted lazily).
    at: usize,
    /// Absolute stream offset of `buf[0]` (bytes consumed and compacted away).
    base: u64,
    meta: TraceMeta,
    /// `buf[frame_next..frame_end]` holds the current frame's records not yet
    /// yielded. The frame is already consumed (`at` points past its checksum)
    /// and [`TraceReader::want`] only runs once it is drained, so these bytes
    /// stay put and `base` stays fixed while it is yielded.
    frame_next: usize,
    frame_end: usize,
    /// Frames decoded successfully so far.
    frames_decoded: u64,
    exhausted: bool,
    mode: DecodeMode,
    /// Corruption incidents survived so far (resync mode only).
    faults: Vec<IngestFault>,
    /// Set when the stream ended inside a structure (resync mode only; strict
    /// mode reports truncation as an `UnexpectedEof` error instead).
    truncated: bool,
}

impl<S: TraceSource> TraceReader<S> {
    /// Reads the stream header from `source` and returns a strict-mode reader.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the magic, version or header structure is wrong,
    /// or `UnexpectedEof` if the stream ends mid-header.
    pub fn new(source: S) -> io::Result<Self> {
        Self::with_mode(source, DecodeMode::Strict)
    }

    /// Reads the stream header from `source` and returns a reader in `mode`.
    ///
    /// The header itself is always decoded strictly — without it there is no
    /// metadata to resynchronize under — so a corrupt header errors in both
    /// modes. Frame-level damage is where the modes diverge.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceReader::new`].
    pub fn with_mode(source: S, mode: DecodeMode) -> io::Result<Self> {
        let mut reader = Self {
            source,
            buf: Vec::new(),
            at: 0,
            base: 0,
            meta: TraceMeta {
                name: String::new(),
                cores: 0,
                has_gaps: false,
                instructions_per_miss: Vec::new(),
            },
            frame_next: 0,
            frame_end: 0,
            frames_decoded: 0,
            exhausted: false,
            mode,
            faults: Vec::new(),
            truncated: false,
        };
        reader.read_header()?;
        Ok(reader)
    }

    /// Stream metadata from the header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The decode mode this reader was built with.
    pub fn mode(&self) -> DecodeMode {
        self.mode
    }

    /// Absolute byte offset of the next unconsumed stream byte.
    pub fn byte_offset(&self) -> u64 {
        self.base + self.at as u64
    }

    /// Absolute byte offset of the next record to be yielded, at record
    /// granularity: inside a decoded frame this points at the record's first
    /// payload byte, between frames it equals [`TraceReader::byte_offset`].
    /// Deterministic for a given stream, which is what checkpoint/resume
    /// validation keys on.
    pub fn position(&self) -> u64 {
        if self.frame_next < self.frame_end {
            self.base + self.frame_next as u64
        } else {
            self.byte_offset()
        }
    }

    /// Frames decoded successfully so far.
    pub fn frames_decoded(&self) -> u64 {
        self.frames_decoded
    }

    /// Corruption incidents survived so far (always empty in strict mode).
    pub fn faults(&self) -> &[IngestFault] {
        &self.faults
    }

    /// Takes ownership of the fault ledger accumulated so far.
    pub fn take_faults(&mut self) -> Vec<IngestFault> {
        std::mem::take(&mut self.faults)
    }

    /// Drains transport-layer events from the underlying source (empty for
    /// file-backed sources; socket sources report reconnects, disconnects,
    /// deduped duplicates, and graceful drains here).
    pub fn take_transport_events(&mut self) -> Vec<crate::source::TransportEvent> {
        self.source.take_transport_events()
    }

    /// Whether the stream ended inside a structure (resync mode only).
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Total records conservatively counted as lost across all faults so far.
    pub fn records_lost(&self) -> u64 {
        self.faults.iter().map(|f| f.records_lost).sum()
    }

    /// Yields the next record, or `None` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a corrupt frame (bad magic or checksum) and
    /// `UnexpectedEof` if the stream ends inside a frame.
    #[inline]
    pub fn next_record(&mut self) -> io::Result<Option<TraceRecord>> {
        loop {
            if self.frame_next < self.frame_end {
                let at = self.frame_next;
                self.frame_next = at + RECORD_BYTES;
                let bytes = self.buf[at..at + RECORD_BYTES]
                    .try_into()
                    .expect("16 bytes");
                return Ok(Some(TraceRecord::decode(bytes)));
            }
            if !self.read_frame()? {
                return Ok(None);
            }
        }
    }

    /// Reads every remaining record into a vector.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceReader::next_record`].
    pub fn read_all(&mut self) -> io::Result<Vec<TraceRecord>> {
        let mut out = Vec::new();
        while let Some(r) = self.next_record()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Unconsumed bytes currently buffered.
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Tries to buffer at least `need` unconsumed bytes; returns false when the
    /// stream ended first (callers distinguish a clean end of stream, where
    /// [`TraceReader::remaining`] is zero, from a truncated structure).
    fn want(&mut self, need: usize) -> io::Result<bool> {
        while self.remaining() < need {
            if self.exhausted {
                return Ok(false);
            }
            // Compact before growing so long streams don't accumulate dead bytes.
            if self.at > 0 {
                self.base += self.at as u64;
                self.buf.drain(..self.at);
                self.at = 0;
            }
            match self.source.next_chunk()? {
                Some(chunk) => self.buf.extend_from_slice(chunk),
                None => self.exhausted = true,
            }
        }
        Ok(true)
    }

    fn take(&mut self, n: usize) -> &[u8] {
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        s
    }

    /// Truncation error with position context (strict mode). `offset` is the
    /// absolute position at which the stream came up short.
    fn eof_err(&self, what: &str, offset: u64) -> io::Error {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("{what} at byte {offset}, frame {}", self.frames_decoded),
        )
    }

    /// Corruption error with position context (strict mode). `offset` is the
    /// absolute position of the structure that failed to decode.
    fn corrupt_err(&self, what: &str, offset: u64) -> io::Error {
        bad_data(&format!(
            "{what} at byte {offset}, frame {}",
            self.frames_decoded
        ))
    }

    fn read_header(&mut self) -> io::Result<()> {
        if !self.want(10)? {
            if self.remaining() == 0 {
                return Err(self.eof_err("empty trace stream", 0));
            }
            return Err(self.eof_err("trace header truncated", 0));
        }
        if self.take(4) != TRACE_MAGIC {
            return Err(self.corrupt_err("not an impress trace (bad magic)", 0));
        }
        let version = u16::from_le_bytes(self.take(2).try_into().unwrap());
        if version != TRACE_VERSION {
            return Err(self.corrupt_err("unsupported trace version", 4));
        }
        let flags = u16::from_le_bytes(self.take(2).try_into().unwrap());
        let cores = self.take(1)[0];
        let name_len = self.take(1)[0] as usize;
        if !self.want(name_len + cores as usize * 8)? {
            return Err(self.eof_err("trace header truncated", 10));
        }
        let name = String::from_utf8(self.take(name_len).to_vec())
            .map_err(|_| self.corrupt_err("trace name is not UTF-8", 10))?;
        let mut instructions_per_miss = Vec::with_capacity(cores as usize);
        for _ in 0..cores {
            let bits = u64::from_le_bytes(self.take(8).try_into().unwrap());
            instructions_per_miss.push(f64::from_bits(bits));
        }
        self.meta = TraceMeta {
            name,
            cores,
            has_gaps: flags & FLAG_HAS_GAPS != 0,
            instructions_per_miss,
        };
        Ok(())
    }

    /// Reads and verifies the next frame; returns false at the end of the stream.
    /// Each frame is validated before any of it is consumed, and damage goes to
    /// [`TraceReader::frame_fault`]: strict mode returns it as an error, resync
    /// mode skips past it and tries again. Always terminates: every resync
    /// fault consumes at least one byte. Kept out of line: it runs once per
    /// frame, and [`TraceReader::next_record`] inlines into per-record loops.
    #[inline(never)]
    fn read_frame(&mut self) -> io::Result<bool> {
        loop {
            let start = self.byte_offset();
            if !self.want(8)? {
                if self.remaining() == 0 {
                    return Ok(false);
                }
                // Trailing bytes too short to even hold a frame header.
                self.frame_fault(FaultKind::TruncatedFrame, start, None)?;
                return Ok(false);
            }
            if self.buf[self.at..self.at + 4] != FRAME_MAGIC {
                self.frame_fault(FaultKind::BadFrameMagic, start, None)?;
                continue;
            }
            let count = u32::from_le_bytes(
                self.buf[self.at + 4..self.at + 8]
                    .try_into()
                    .expect("4 bytes"),
            ) as usize;
            if count > FRAME_RECORDS {
                // The writer never emits oversized frames, so the count field is
                // corrupt; refusing it also stops a hostile count from demanding
                // gigabytes of buffer.
                self.frame_fault(FaultKind::OversizedFrame, start, Some(count))?;
                continue;
            }
            let payload_len = count * RECORD_BYTES;
            if !self.want(8 + payload_len + 8)? {
                // The stream ends inside this frame: all of its declared records
                // are lost, along with whatever the trailing bytes held.
                self.frame_fault(FaultKind::TruncatedFrame, start, Some(count))?;
                return Ok(false);
            }
            let payload_start = self.at + 8;
            let stored = u64::from_le_bytes(
                self.buf[payload_start + payload_len..payload_start + payload_len + 8]
                    .try_into()
                    .expect("8 bytes"),
            );
            if frame_checksum(&self.buf[payload_start..payload_start + payload_len]) != stored {
                self.frame_fault(FaultKind::ChecksumMismatch, start, Some(count))?;
                continue;
            }
            // Valid frame: consume it wholesale and yield it in place.
            self.at += 8 + payload_len + 8;
            self.frame_next = payload_start;
            self.frame_end = payload_start + payload_len;
            self.frames_decoded += 1;
            return Ok(true);
        }
    }

    /// Answers `kind` of damage in the frame at `start`, none of which has been
    /// consumed; `count` is the record count its header declared, once read.
    /// Strict mode returns the error [`TraceReader::next_record`] reports, placed
    /// where the damaged field starts (past the header for a truncated payload).
    /// Resync mode consumes the damaged region and records an [`IngestFault`].
    fn frame_fault(&mut self, kind: FaultKind, start: u64, count: Option<usize>) -> io::Result<()> {
        if self.mode == DecodeMode::Resync {
            return match kind {
                FaultKind::TruncatedFrame => {
                    self.record_truncation(count.unwrap_or(0) as u64);
                    Ok(())
                }
                // An oversized count bounds nothing, so only bytes count as lost.
                FaultKind::OversizedFrame => self.resync_skip(start, kind, 0),
                _ => self.resync_skip(start, kind, count.unwrap_or(0) as u64),
            };
        }
        Err(match kind {
            FaultKind::BadFrameMagic => self.corrupt_err("corrupt trace frame (bad magic)", start),
            FaultKind::OversizedFrame => self.corrupt_err(
                &format!(
                    "implausible frame record count {} (max {FRAME_RECORDS})",
                    count.unwrap_or(0)
                ),
                start + 4,
            ),
            FaultKind::ChecksumMismatch => self.corrupt_err("trace frame checksum mismatch", start),
            FaultKind::TruncatedFrame => {
                let header = if count.is_some() { 8 } else { 0 };
                self.eof_err("trace frame truncated", start + header)
            }
        })
    }

    /// Consumes the damaged region starting at `fault_offset` (whose first byte
    /// has already been ruled out as a frame start) up to the next occurrence of
    /// [`FRAME_MAGIC`] or the end of the stream, recording one [`IngestFault`].
    ///
    /// `declared_records` is the damaged frame's record count when it was
    /// plausible (a failed checksum), 0 otherwise; the fault's `records_lost` is
    /// the max of it and the byte-derived bound.
    fn resync_skip(
        &mut self,
        fault_offset: u64,
        kind: FaultKind,
        declared_records: u64,
    ) -> io::Result<()> {
        // Skip the byte that cannot start a frame, then scan for the magic.
        self.at += 1;
        loop {
            let window = &self.buf[self.at..];
            if let Some(pos) = find_magic(window) {
                self.at += pos;
                self.push_fault(kind, fault_offset, declared_records);
                return Ok(());
            }
            // No magic in the buffer: consume all but the last 3 bytes (a magic
            // may straddle the chunk boundary) and pull more.
            let keep = self.remaining().min(FRAME_MAGIC.len() - 1);
            self.at = self.buf.len() - keep;
            if !self.want(keep + 1)? {
                // Stream ended while resynchronizing: the tail is part of the
                // damaged region.
                self.at = self.buf.len();
                self.push_fault(kind, fault_offset, declared_records);
                self.truncated = true;
                return Ok(());
            }
        }
    }

    /// Records the stream ending inside a frame, consuming the trailing bytes.
    fn record_truncation(&mut self, declared_records: u64) {
        let fault_offset = self.byte_offset();
        self.at = self.buf.len();
        self.push_fault(FaultKind::TruncatedFrame, fault_offset, declared_records);
        self.truncated = true;
    }

    /// Appends a fault for the consumed region `[fault_offset, byte_offset())`.
    fn push_fault(&mut self, kind: FaultKind, fault_offset: u64, declared_records: u64) {
        let bytes_skipped = self.byte_offset() - fault_offset;
        let byte_bound = bytes_skipped.div_ceil(RECORD_BYTES as u64);
        self.faults.push(IngestFault {
            kind,
            offset: fault_offset,
            frame_index: self.frames_decoded,
            bytes_skipped,
            records_lost: byte_bound.max(declared_records),
        });
    }
}

/// Position of the first [`FRAME_MAGIC`] in `window`, if any.
fn find_magic(window: &[u8]) -> Option<usize> {
    if window.len() < FRAME_MAGIC.len() {
        return None;
    }
    (0..=window.len() - FRAME_MAGIC.len()).find(|&i| window[i..i + 4] == FRAME_MAGIC)
}

/// Convenience: reads a whole trace (header + records) from any `Read`.
///
/// # Errors
///
/// Same conditions as [`TraceReader::next_record`].
pub fn read_trace<R: Read>(reader: R) -> io::Result<(TraceMeta, Vec<TraceRecord>)> {
    let mut tr = TraceReader::new(crate::source::ReadSource::new(reader))?;
    let meta = tr.meta().clone();
    let records = tr.read_all()?;
    Ok((meta, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ReadSource, SliceSource};

    fn sample_meta() -> TraceMeta {
        TraceMeta {
            name: "mcf".to_string(),
            cores: 2,
            has_gaps: true,
            instructions_per_miss: vec![33.25, 171.5],
        }
    }

    fn sample_records(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                address: (i as u64) * 64 + ((i as u64) << 33),
                gap: (i % 7) as u32,
                core: (i % 2) as u8,
                is_write: i % 3 == 0,
            })
            .collect()
    }

    fn write_sample(records: &[TraceRecord]) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), &sample_meta()).unwrap();
        for &r in records {
            w.push(r).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn record_wire_form_round_trips() {
        for r in sample_records(64) {
            assert_eq!(TraceRecord::decode(&r.encode()), r);
        }
    }

    #[test]
    fn stream_round_trips_bit_identically() {
        // Spans multiple frames: FRAME_RECORDS + a partial tail.
        let records = sample_records(FRAME_RECORDS + 100);
        let bytes = write_sample(&records);
        let (meta, back) = read_trace(&bytes[..]).unwrap();
        assert_eq!(meta, sample_meta());
        assert_eq!(back, records);
        // Re-encoding the decoded stream reproduces the exact bytes.
        let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
        for r in back {
            w.push(r).unwrap();
        }
        assert_eq!(w.finish().unwrap(), bytes);
    }

    #[test]
    fn reader_handles_tiny_chunks() {
        // 1-byte chunks force every structure to straddle chunk boundaries.
        // Every chunk size, in both modes, yields the same records, and
        // `position()` before each one is what the frame layout says: the
        // frame's start between frames, the record's first byte inside one.
        let records = sample_records(FRAME_RECORDS + 300);
        let bytes = write_sample(&records);
        let frame_len = 8 + FRAME_RECORDS * RECORD_BYTES + 8;
        let header_len = bytes.len() - frame_len - (8 + 300 * RECORD_BYTES + 8);
        let expected_positions: Vec<u64> = (0..records.len())
            .map(|i| {
                let frame_start = header_len + i / FRAME_RECORDS * frame_len;
                match i % FRAME_RECORDS {
                    0 => frame_start as u64,
                    slot => (frame_start + 8 + slot * RECORD_BYTES) as u64,
                }
            })
            .collect();
        for mode in [DecodeMode::Strict, DecodeMode::Resync] {
            for chunk in [Some(1), Some(100), Some(4096), None] {
                let source = match chunk {
                    Some(n) => SliceSource::with_chunk_size(&bytes, n),
                    None => SliceSource::new(&bytes),
                };
                let mut r = TraceReader::with_mode(source, mode).unwrap();
                let (mut got, mut positions) = (Vec::new(), Vec::new());
                loop {
                    let position = r.position();
                    let Some(record) = r.next_record().unwrap() else {
                        break;
                    };
                    got.push(record);
                    positions.push(position);
                }
                assert_eq!(got, records, "{mode:?}, chunk {chunk:?}");
                assert_eq!(positions, expected_positions, "{mode:?}, chunk {chunk:?}");
                assert_eq!(r.position(), bytes.len() as u64);
            }
        }
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let records = sample_records(10);
        let mut bytes = write_sample(&records);
        let n = bytes.len();
        bytes[n - 20] ^= 0x40; // flip a payload bit in the final frame
        let err = read_trace(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_is_detected() {
        let records = sample_records(10);
        let bytes = write_sample(&records);
        let err = read_trace(&bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = write_sample(&sample_records(1));
        bytes[0] = b'X';
        let err = TraceReader::new(ReadSource::new(&bytes[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_trace_yields_no_records() {
        let w = TraceWriter::new(Vec::new(), &sample_meta()).unwrap();
        let bytes = w.finish().unwrap();
        let (meta, records) = read_trace(&bytes[..]).unwrap();
        assert_eq!(meta.cores, 2);
        assert!(records.is_empty());
    }

    #[test]
    fn writer_rejects_inconsistent_meta() {
        let meta = TraceMeta {
            instructions_per_miss: vec![1.0],
            ..sample_meta()
        };
        assert!(TraceWriter::new(Vec::new(), &meta).is_err());
    }

    #[test]
    fn strict_errors_carry_position_context() {
        let records = sample_records(10);
        let mut bytes = write_sample(&records);
        let n = bytes.len();
        bytes[n - 20] ^= 0x40;
        let err = read_trace(&bytes[..]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("at byte"), "no offset in: {msg}");
        assert!(msg.contains("frame"), "no frame index in: {msg}");
    }

    #[test]
    fn strict_rejects_implausible_frame_count_without_buffering() {
        let records = sample_records(10);
        let mut bytes = write_sample(&records);
        // Frame header sits right after the trace header; blow up its count.
        let frame_start = bytes.len() - (8 + 10 * RECORD_BYTES + 8);
        bytes[frame_start + 4..frame_start + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_trace(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("implausible"));
    }

    fn resync_read(bytes: &[u8]) -> (Vec<TraceRecord>, Vec<IngestFault>, bool) {
        let mut r =
            TraceReader::with_mode(SliceSource::with_chunk_size(bytes, 61), DecodeMode::Resync)
                .unwrap();
        let records = r.read_all().unwrap();
        let truncated = r.truncated();
        (records, r.take_faults(), truncated)
    }

    #[test]
    fn resync_skips_a_corrupt_frame_and_recovers_the_rest() {
        let records = sample_records(2 * FRAME_RECORDS + 100);
        let mut bytes = write_sample(&records);
        let frame_len = 8 + FRAME_RECORDS * RECORD_BYTES + 8;
        let header_len = bytes.len() - 2 * frame_len - (8 + 100 * RECORD_BYTES + 8);
        // Flip a payload bit in the middle frame.
        bytes[header_len + frame_len + 8 + 1000] ^= 0x01;

        let (got, faults, truncated) = resync_read(&bytes);
        let mut expect = records[..FRAME_RECORDS].to_vec();
        expect.extend_from_slice(&records[2 * FRAME_RECORDS..]);
        assert_eq!(got, expect);
        assert!(!truncated);
        assert!(!faults.is_empty());
        assert_eq!(faults[0].kind, FaultKind::ChecksumMismatch);
        assert_eq!(faults[0].offset, (header_len + frame_len) as u64);
        assert_eq!(faults[0].frame_index, 1);
        // Conservative bound: at least the frame's records are accounted lost,
        // and the skipped regions cover the damaged frame exactly.
        let lost: u64 = faults.iter().map(|f| f.records_lost).sum();
        assert!(lost >= FRAME_RECORDS as u64, "lost {lost}");
        let skipped: u64 = faults.iter().map(|f| f.bytes_skipped).sum();
        assert_eq!(skipped, frame_len as u64);
    }

    #[test]
    fn resync_skips_garbage_between_frames() {
        let records = sample_records(FRAME_RECORDS + 100);
        let bytes = write_sample(&records);
        let tail_len = 8 + 100 * RECORD_BYTES + 8;
        let junk_at = bytes.len() - tail_len;
        let mut damaged = bytes[..junk_at].to_vec();
        damaged.extend_from_slice(&[b'X'; 37]);
        damaged.extend_from_slice(&bytes[junk_at..]);

        let (got, faults, truncated) = resync_read(&damaged);
        assert_eq!(got, records); // nothing actually lost...
        assert!(!truncated);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::BadFrameMagic);
        assert_eq!(faults[0].bytes_skipped, 37);
        assert!(faults[0].records_lost >= 1); // ...but the bound stays >= 0 loss
    }

    #[test]
    fn resync_flags_truncation_instead_of_erroring() {
        let records = sample_records(FRAME_RECORDS + 100);
        let bytes = write_sample(&records);
        let (got, faults, truncated) = resync_read(&bytes[..bytes.len() - 3]);
        assert_eq!(got, &records[..FRAME_RECORDS]);
        assert!(truncated);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::TruncatedFrame);
        assert!(faults[0].records_lost >= 100, "declared count bounds loss");
    }

    #[test]
    fn resync_survives_an_oversized_count_field() {
        let records = sample_records(FRAME_RECORDS + 100);
        let mut bytes = write_sample(&records);
        let frame_len = 8 + FRAME_RECORDS * RECORD_BYTES + 8;
        let tail_len = 8 + 100 * RECORD_BYTES + 8;
        let header_len = bytes.len() - frame_len - tail_len;
        bytes[header_len + 4..header_len + 8].copy_from_slice(&u32::MAX.to_le_bytes());

        let (got, faults, _) = resync_read(&bytes);
        assert_eq!(got, &records[FRAME_RECORDS..]);
        assert_eq!(faults[0].kind, FaultKind::OversizedFrame);
        let lost: u64 = faults.iter().map(|f| f.records_lost).sum();
        assert!(lost >= FRAME_RECORDS as u64);
    }

    #[test]
    fn strict_mode_decodes_bit_identically_to_resync_on_clean_input() {
        let records = sample_records(FRAME_RECORDS + 100);
        let bytes = write_sample(&records);
        let (strict, ..) = {
            let mut r = TraceReader::new(SliceSource::with_chunk_size(&bytes, 61)).unwrap();
            (r.read_all().unwrap(),)
        };
        let (resync, faults, truncated) = resync_read(&bytes);
        assert_eq!(strict, resync);
        assert!(faults.is_empty());
        assert!(!truncated);
    }
}
