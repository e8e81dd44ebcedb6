//! Supervised daemon-mode ingestion: checkpoints, watchdog, quarantine.
//!
//! [`supervise`] runs the open-loop decode → route → execute loop that
//! [`TraceRunner::ingest`](crate::trace_runner::TraceRunner::ingest) also runs
//! (there with checkpoints, watchdog and resume off), hardened for
//! long-running service operation:
//!
//! * **Checkpoints** — once at least [`DaemonOptions::checkpoint_every`]
//!   records have passed since the last one, the daemon emits a
//!   canonical-JSON [`Checkpoint`] (record count, source byte offset,
//!   window/ledger summary) through a caller-supplied sink at the end of the
//!   next epoch-pool round (a full batch or a telemetry window). After a
//!   crash, [`DaemonOptions::resume_from`] restarts by *deterministic prefix
//!   re-execution*: the stream is re-ingested from byte zero (the simulator's
//!   state cannot be snapshotted cheaply, but re-execution is bit-exact), and
//!   when the record counter reaches the checkpoint the reader's position is
//!   validated against the pinned offset — a mismatch means the source changed
//!   underneath the checkpoint and the resume is refused. The validated resume
//!   is recorded in the fault ledger, so a resumed run's verdict differs from an
//!   uninterrupted run's only in resume-marker lines. Resume therefore requires
//!   a replayable source (a file, not a drained FIFO).
//! * **Bounded-lag watchdog** — per-window telemetry is retained up to
//!   [`DaemonOptions::max_lag_windows`]; beyond that the oldest window's
//!   telemetry is shed (and ledgered) before any record is dropped.
//! * **Quarantine** — a shard-worker panic is contained by the epoch pool
//!   ([`impress_exec::EpochScope::try_run_epoch`]); the daemon ledgers the
//!   failed round's records as a quarantined window and keeps serving instead
//!   of crashing.
//!
//! Paired with a [`FollowSource`](impress_workloads::FollowSource) for stall
//! tolerance and [`DecodeMode::Resync`] for corruption tolerance, this is the
//! `trace daemon` CLI's engine.

use std::collections::VecDeque;
use std::fs::File;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use impress_dram::stats::ChannelStats;
use impress_dram::timing::Cycle;
use impress_memctrl::{ChannelShard, MemoryController};
use impress_workloads::codec::{DecodeMode, TraceReader};
use impress_workloads::source::TraceSource;

use crate::runner::Configuration;
use crate::sharded::{lock_task, make_tasks, QueuedAccess};
use crate::trace_runner::{
    FaultLedger, IngestReport, LedgerEntry, VerdictReport, WindowTelemetry, DEFAULT_GAP,
    INGEST_BATCH,
};

/// Canonical-JSON snapshot of ingest progress, durable across crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Records ingested when the checkpoint was taken.
    pub records: u64,
    /// Reader position (absolute source bytes) pinned to `records` — resume
    /// validates the re-read stream against this.
    pub source_offset: u64,
    /// Telemetry windows emitted so far (including shed ones).
    pub windows: u64,
    /// Ledger's conservative records-lost bound so far.
    pub records_lost: u64,
    /// Simulated cycle of the last ingested record.
    pub elapsed_cycles: Cycle,
}

impl Checkpoint {
    /// Canonical JSON form (fixed key order, integers only).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"impress-trace-checkpoint-v1\",\n  \"records\": {},\n  \
             \"source_offset\": {},\n  \"windows\": {},\n  \"records_lost\": {},\n  \
             \"elapsed_cycles\": {}\n}}\n",
            self.records, self.source_offset, self.windows, self.records_lost, self.elapsed_cycles,
        )
    }

    /// Parses the canonical JSON form.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the schema marker or a field is missing or
    /// malformed.
    pub fn parse(json: &str) -> io::Result<Self> {
        if !json.contains("\"impress-trace-checkpoint-v1\"") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an impress checkpoint (missing schema marker)",
            ));
        }
        let field = |key: &str| -> io::Result<u64> {
            let pat = format!("\"{key}\":");
            let at = json.find(&pat).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("checkpoint is missing field {key:?}"),
                )
            })?;
            let rest = json[at + pat.len()..].trim_start();
            let digits: &str = &rest[..rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len())];
            digits.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("checkpoint field {key:?} is not an integer"),
                )
            })
        };
        Ok(Self {
            records: field("records")?,
            source_offset: field("source_offset")?,
            windows: field("windows")?,
            records_lost: field("records_lost")?,
            elapsed_cycles: field("elapsed_cycles")?,
        })
    }
}

/// Writes `cp` to `path` durably: the JSON lands in a sibling `.tmp` file
/// which is fsynced *before* the atomic rename, and the parent directory is
/// fsynced *after* — so a host crash at any instant leaves either the previous
/// checkpoint or the new one, never a torn or vanished file.
///
/// # Errors
///
/// Propagates any I/O error; on failure the temp file is removed so retries
/// and crash-recovery never mistake it for a checkpoint.
pub fn write_checkpoint_durable(path: &Path, cp: &Checkpoint) -> io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let write = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(cp.to_json().as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return write;
    }
    // Durability of the rename itself requires syncing the directory entry.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Knobs for [`supervise`].
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Telemetry window size in records.
    pub window_records: u64,
    /// Records between checkpoints (`0` disables checkpointing).
    pub checkpoint_every: u64,
    /// Maximum telemetry windows retained before the watchdog sheds the oldest
    /// (`0` = unbounded).
    pub max_lag_windows: usize,
    /// Shard worker threads (same meaning as everywhere else; bit-identical
    /// output at any value).
    pub shard_threads: usize,
    /// Decode in resynchronizing mode, surviving stream corruption.
    pub resync: bool,
    /// Resume by re-executing the stream prefix and validating it against this
    /// checkpoint.
    pub resume_from: Option<Checkpoint>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            window_records: 1 << 20,
            checkpoint_every: 1 << 22,
            max_lag_windows: 0,
            shard_threads: 1,
            resync: false,
            resume_from: None,
        }
    }
}

/// Telemetry windows a listen-mode daemon retains before the bounded-lag
/// watchdog sheds the oldest. Network producers can outpace the simulator
/// indefinitely, so listen mode must bound lag by default — unlike file
/// ingest, where the stream is finite and `0` (unbounded) is safe.
pub const LISTEN_MAX_LAG: usize = 64;

impl DaemonOptions {
    /// Listen-mode defaults for a network daemon: identical to
    /// [`DaemonOptions::default`] except the bounded-lag watchdog is armed at
    /// [`LISTEN_MAX_LAG`] windows. The `trace daemon --listen` CLI builds its
    /// options from this, so the library defaults and the CLI's documented
    /// defaults agree by construction.
    pub fn listening() -> Self {
        Self {
            max_lag_windows: LISTEN_MAX_LAG,
            ..Self::default()
        }
    }
}

/// Runs supervised daemon-mode ingestion over `source`.
///
/// `on_checkpoint` is invoked with each periodic [`Checkpoint`] plus one final
/// checkpoint at a clean end of stream; a crash (source error) propagates
/// *without* a final checkpoint, leaving the last periodic one as the resume
/// point.
///
/// # Errors
///
/// Propagates source I/O errors, strict-mode codec errors, and a resume
/// validation mismatch (`InvalidData`).
pub fn supervise<S: TraceSource>(
    source: S,
    configuration: &Configuration,
    options: &DaemonOptions,
    on_checkpoint: &mut dyn FnMut(&Checkpoint) -> io::Result<()>,
) -> io::Result<IngestReport> {
    supervise_with_hook(source, configuration, options, on_checkpoint, |_| {})
}

/// [`supervise`] with a per-round hook run on the worker executing shard 0 —
/// the seam the quarantine tests use to inject deterministic panics.
pub(crate) fn supervise_with_hook<S: TraceSource>(
    source: S,
    configuration: &Configuration,
    options: &DaemonOptions,
    on_checkpoint: &mut dyn FnMut(&Checkpoint) -> io::Result<()>,
    round_hook: impl Fn(u64) + Sync,
) -> io::Result<IngestReport> {
    let mode = if options.resync {
        DecodeMode::Resync
    } else {
        DecodeMode::Strict
    };
    let reader = TraceReader::with_mode(source, mode)?;
    ingest_loop(reader, configuration, options, on_checkpoint, round_hook)
}

/// The open-loop ingest loop: decode → route → execute → account, in
/// [`INGEST_BATCH`]-record rounds of the epoch pool. [`supervise`] and
/// [`TraceRunner::ingest`](crate::trace_runner::TraceRunner::ingest) both run
/// it; `options.resync` is not read here, because `reader` already carries
/// its decode mode.
///
/// After every round (a full batch or the end of a telemetry window) the
/// reader's decode faults and transport events join the ledger, then a
/// periodic checkpoint is published if one is due; a stream truncation is
/// ledgered last. Tracked events are staged per bank and flushed as spans,
/// with output identical to per-record recording.
pub(crate) fn ingest_loop<S: TraceSource>(
    mut reader: TraceReader<S>,
    configuration: &Configuration,
    options: &DaemonOptions,
    on_checkpoint: &mut dyn FnMut(&Checkpoint) -> io::Result<()>,
    round_hook: impl Fn(u64) + Sync,
) -> io::Result<IngestReport> {
    let controller = MemoryController::new(configuration.controller_config());
    let (cfg, shards) = controller.into_parts();
    let min_latency = ChannelShard::min_access_latency(&cfg.timings);
    let tasks = make_tasks(shards, min_latency);
    let channels = tasks.len();
    for i in 0..channels {
        lock_task(&tasks, i).shard.enable_record_batching();
    }
    let decoder = cfg.mapping.decoder(&cfg.organization);
    let has_gaps = reader.meta().has_gaps;
    let workload = reader.meta().name.clone();
    let window_records = options.window_records.max(1);

    // Round counter shared with the hook; only the driver writes it, and only
    // between rounds, so workers read a stable value during execution.
    let round = AtomicU64::new(0);
    let (tasks_ref, round_ref) = (&tasks, &round);

    type LoopOut = (u64, Cycle, VecDeque<WindowTelemetry>, FaultLedger);
    let result: io::Result<LoopOut> = impress_exec::epoch_scope(
        options.shard_threads.max(1),
        channels,
        move |i| {
            if i == 0 {
                round_hook(round_ref.load(Ordering::Acquire));
            }
            lock_task(tasks_ref, i).execute()
        },
        |scope| {
            let mut queues: Vec<Vec<QueuedAccess>> = (0..channels).map(|_| Vec::new()).collect();
            let mut now: Cycle = 0;
            let mut records: u64 = 0;
            let mut batched: usize = 0;
            let mut windows: VecDeque<WindowTelemetry> = VecDeque::new();
            let mut windows_emitted: u64 = 0;
            let mut window_start_records: u64 = 0;
            let mut prev = ChannelStats::default();
            let mut ledger = FaultLedger::default();
            let mut last_checkpoint: u64 = 0;
            let mut resume_from = options.resume_from;

            // One epoch-pool round over the batched queues; a contained panic
            // quarantines the round's records instead of crashing the daemon.
            let flush = |queues: &mut Vec<Vec<QueuedAccess>>,
                         batched: &mut usize,
                         ledger: &mut FaultLedger,
                         window: u64| {
                if *batched == 0 {
                    return;
                }
                for (channel, queue) in queues.iter_mut().enumerate() {
                    std::mem::swap(&mut lock_task(tasks_ref, channel).queue, queue);
                }
                round_ref.fetch_add(1, Ordering::Release);
                if scope.try_run_epoch().is_err() {
                    ledger.push(LedgerEntry::QuarantinedWindow {
                        window,
                        records_lost: *batched as u64,
                    });
                }
                for (channel, queue) in queues.iter_mut().enumerate() {
                    std::mem::swap(&mut lock_task(tasks_ref, channel).queue, queue);
                    queue.clear();
                }
                *batched = 0;
            };
            // Telemetry of the window ending now: the statistics delta since
            // the previous window's end.
            let close_window = |prev: &mut ChannelStats, index: u64, records: u64, now: Cycle| {
                let snap = ChannelStats::merged(
                    (0..channels).map(|i| lock_task(tasks_ref, i).shard.stats()),
                );
                let window = WindowTelemetry::delta(index, records, now, prev, &snap);
                *prev = snap;
                window
            };

            check_resume(&mut resume_from, records, reader.position(), &mut ledger)?;
            while let Some(record) = reader.next_record()? {
                now += if has_gaps {
                    record.gap as Cycle
                } else {
                    DEFAULT_GAP as Cycle
                };
                let location = decoder.decode(record.to_access().address).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("record {records}: {e}"))
                })?;
                queues[location.channel as usize].push(QueuedAccess {
                    location,
                    is_write: record.is_write,
                    at: now,
                });
                records += 1;
                batched += 1;
                if resume_from.is_some() {
                    check_resume(&mut resume_from, records, reader.position(), &mut ledger)?;
                }

                let window_full = records - window_start_records == window_records;
                if batched == INGEST_BATCH || window_full {
                    flush(&mut queues, &mut batched, &mut ledger, windows_emitted);
                    drain_reader(&mut reader, &mut ledger);
                    // A window ending here closes before any checkpoint, so
                    // the checkpoint counts it among the windows emitted.
                    if window_full {
                        windows.push_back(close_window(
                            &mut prev,
                            windows_emitted,
                            records - window_start_records,
                            now,
                        ));
                        windows_emitted += 1;
                        window_start_records = records;
                        // Watchdog: shed oldest telemetry before ever shedding
                        // a record.
                        if options.max_lag_windows > 0 && windows.len() > options.max_lag_windows {
                            if let Some(shed) = windows.pop_front() {
                                ledger.push(LedgerEntry::ShedWindow { window: shed.index });
                            }
                        }
                    }
                    if options.checkpoint_every > 0
                        && records - last_checkpoint >= options.checkpoint_every
                    {
                        on_checkpoint(&Checkpoint {
                            records,
                            source_offset: reader.position(),
                            windows: windows_emitted,
                            records_lost: ledger.records_lost(),
                            elapsed_cycles: now,
                        })?;
                        last_checkpoint = records;
                    }
                }
            }
            flush(&mut queues, &mut batched, &mut ledger, windows_emitted);
            drain_reader(&mut reader, &mut ledger);
            if reader.truncated() {
                ledger.push(LedgerEntry::TruncatedStream {
                    offset: reader.byte_offset(),
                });
            }
            if records > window_start_records {
                windows.push_back(close_window(
                    &mut prev,
                    windows_emitted,
                    records - window_start_records,
                    now,
                ));
                windows_emitted += 1;
            }
            if resume_from.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream ended before reaching the checkpointed record count",
                ));
            }
            // Final checkpoint: the stream ended cleanly, so the resume point
            // is the end of the run.
            if options.checkpoint_every > 0 {
                on_checkpoint(&Checkpoint {
                    records,
                    source_offset: reader.position(),
                    windows: windows_emitted,
                    records_lost: ledger.records_lost(),
                    elapsed_cycles: now,
                })?;
            }
            Ok((records, now, windows, ledger))
        },
    );
    let (records, elapsed_cycles, windows, ledger) = result?;

    let memory = ChannelStats::merged(
        tasks
            .into_iter()
            .map(|t| t.into_inner().unwrap_or_else(|e| e.into_inner()).shard)
            .map(|mut shard| {
                // End-of-run flush: staged spans are mitigation-free, so the
                // stats are already final; this only settles the trackers into
                // their per-record-equivalent state.
                shard.flush_staged_records();
                shard.stats()
            }),
    );
    let verdict =
        VerdictReport::from_stats(&workload, configuration, records, elapsed_cycles, &memory)
            .with_faults(ledger);
    Ok(IngestReport {
        records,
        elapsed_cycles,
        memory,
        windows: windows.into(),
        verdict,
    })
}

/// Validates a pending resume once `records` records have been re-read: the
/// reader must stand at the checkpoint's pinned offset. A validated resume
/// joins the ledger and clears `resume_from`; a mismatch means the source
/// changed underneath the checkpoint, and the resume is refused.
fn check_resume(
    resume_from: &mut Option<Checkpoint>,
    records: u64,
    position: u64,
    ledger: &mut FaultLedger,
) -> io::Result<()> {
    let Some(cp) = *resume_from else {
        return Ok(());
    };
    if records != cp.records {
        return Ok(());
    }
    if position != cp.source_offset {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "stream diverged from checkpoint: record {records} is at byte {position}, \
                 checkpoint pinned byte {}",
                cp.source_offset
            ),
        ));
    }
    ledger.push(LedgerEntry::Resume {
        records,
        offset: cp.source_offset,
    });
    *resume_from = None;
    Ok(())
}

/// Moves the reader's decode faults and transport events into the ledger, in
/// stream and arrival order.
fn drain_reader<S: TraceSource>(reader: &mut TraceReader<S>, ledger: &mut FaultLedger) {
    for f in reader.take_faults() {
        ledger.push(LedgerEntry::Decode(f));
    }
    ledger.absorb_transport(reader.take_transport_events());
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_workloads::codec::{TraceMeta, TraceRecord, TraceWriter};
    use impress_workloads::source::SliceSource;
    use impress_workloads::{apply_plan, FaultPlan, FrameMap};

    fn sample_trace(records: u64) -> Vec<u8> {
        let meta = TraceMeta {
            name: "daemon".to_string(),
            cores: 2,
            has_gaps: false,
            instructions_per_miss: vec![40.0, 60.0],
        };
        let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
        for i in 0..records {
            w.push(TraceRecord {
                address: i * 64 + ((i % 512) << 26),
                gap: 0,
                core: (i % 2) as u8,
                is_write: i % 5 == 0,
            })
            .unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn durable_checkpoint_roundtrips_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("impress-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.ckpt");
        let cp = Checkpoint {
            records: 123_456,
            source_offset: 7_890,
            windows: 12,
            records_lost: 3,
            elapsed_cycles: 99,
        };
        write_checkpoint_durable(&path, &cp).unwrap();
        // Overwrite with a later checkpoint: rename must replace atomically.
        let cp2 = Checkpoint {
            records: 223_456,
            ..cp
        };
        write_checkpoint_durable(&path, &cp2).unwrap();
        let back = Checkpoint::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.records, 223_456);
        assert_eq!(back.source_offset, 7_890);
        // The staging file must never survive a successful write.
        assert!(!path.with_extension("ckpt.tmp").exists());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("daemon.ckpt")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_checkpoint_failure_removes_temp_file() {
        let dir = std::env::temp_dir().join(format!("impress-ckpt-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Target is a directory: the rename must fail, and the temp file must
        // not be left behind to be mistaken for a checkpoint later.
        let path = dir.join("blocked");
        std::fs::create_dir_all(&path).unwrap();
        let cp = Checkpoint {
            records: 1,
            source_offset: 2,
            windows: 0,
            records_lost: 0,
            elapsed_cycles: 0,
        };
        assert!(write_checkpoint_durable(&path, &cp).is_err());
        assert!(!dir.join("blocked.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn opts() -> DaemonOptions {
        DaemonOptions {
            window_records: 10_000,
            checkpoint_every: 20_000,
            ..DaemonOptions::default()
        }
    }

    #[test]
    fn checkpoint_json_round_trips() {
        let cp = Checkpoint {
            records: 123_456,
            source_offset: 789,
            windows: 12,
            records_lost: 34,
            elapsed_cycles: 567_890,
        };
        assert_eq!(Checkpoint::parse(&cp.to_json()).unwrap(), cp);
        assert!(Checkpoint::parse("{}").is_err());
    }

    #[test]
    fn supervised_clean_run_matches_plain_ingest() {
        let bytes = sample_trace(50_000);
        let configuration = Configuration::unprotected();
        let mut checkpoints = Vec::new();
        let report = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &opts(),
            &mut |cp| {
                checkpoints.push(*cp);
                Ok(())
            },
        )
        .unwrap();

        let plain = crate::trace_runner::TraceRunner::new()
            .with_window_records(10_000)
            .ingest(
                TraceReader::new(SliceSource::new(&bytes)).unwrap(),
                &configuration,
            )
            .unwrap();
        assert_eq!(report.records, plain.records);
        assert_eq!(report.memory, plain.memory);
        assert_eq!(report.windows, plain.windows);
        assert_eq!(report.verdict, plain.verdict);
        assert_eq!(report.verdict.outcome(), "clean");
        // Periodic checkpoints at the first round ends (full batches or
        // window ends) 20k records apart — the window ends at 20k and 40k —
        // plus the final one at end of stream.
        assert_eq!(
            checkpoints.iter().map(|c| c.records).collect::<Vec<_>>(),
            vec![20_000, 40_000, 50_000]
        );
    }

    /// Strips the ledger's resume-marker lines.
    fn without_resume_marker(json: &str) -> String {
        json.lines()
            .filter(|l| !l.contains("\"kind\": \"resume\""))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn windows_smaller_than_a_batch_still_publish_periodic_checkpoints() {
        // Every window end flushes the batch before it fills, so the cadence
        // must be checked at window ends too, or no periodic checkpoint lands.
        let bytes = sample_trace(100_000);
        let configuration = Configuration::unprotected();
        let options = DaemonOptions {
            window_records: 4_096,
            checkpoint_every: 16_384,
            ..DaemonOptions::default()
        };
        let mut checkpoints = Vec::new();
        let full = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &options,
            &mut |cp| {
                checkpoints.push(*cp);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(
            checkpoints.iter().map(|c| c.records).collect::<Vec<_>>(),
            vec![16_384, 32_768, 49_152, 65_536, 81_920, 98_304, 100_000]
        );
        // Each periodic checkpoint lands where a window ends, and counts it.
        assert_eq!(
            checkpoints
                .iter()
                .map(|c| (c.records, c.windows))
                .collect::<Vec<_>>(),
            vec![
                (16_384, 4),
                (32_768, 8),
                (49_152, 12),
                (65_536, 16),
                (81_920, 20),
                (98_304, 24),
                (100_000, 25)
            ]
        );
        let full_json = full.verdict.to_json_extended();
        for cp in checkpoints {
            let resumed = supervise(
                SliceSource::new(&bytes),
                &configuration,
                &DaemonOptions {
                    resume_from: Some(cp),
                    ..options.clone()
                },
                &mut |_| Ok(()),
            )
            .unwrap();
            let json = resumed.verdict.to_json_extended();
            assert_ne!(json, full_json, "resume at {} left no marker", cp.records);
            assert_eq!(
                without_resume_marker(&json),
                without_resume_marker(&full_json),
                "resume at {} records",
                cp.records
            );
            assert_eq!(resumed.windows, full.windows);
        }
    }

    #[test]
    fn resume_from_a_zero_record_checkpoint() {
        let bytes = sample_trace(0);
        let configuration = Configuration::unprotected();
        let mut checkpoints = Vec::new();
        let full = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &opts(),
            &mut |cp| {
                checkpoints.push(*cp);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(checkpoints.len(), 1);
        assert_eq!(checkpoints[0].records, 0);
        assert_eq!(checkpoints[0].source_offset, bytes.len() as u64);
        let resumed = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &DaemonOptions {
                resume_from: Some(checkpoints[0]),
                ..opts()
            },
            &mut |_| Ok(()),
        )
        .unwrap();
        assert_eq!(resumed.records, 0);
        assert_eq!(
            resumed.verdict.faults.entries,
            vec![LedgerEntry::Resume {
                records: 0,
                offset: bytes.len() as u64
            }]
        );
        assert_eq!(
            without_resume_marker(&resumed.verdict.to_json_extended()),
            without_resume_marker(&full.verdict.to_json_extended())
        );
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_verdict_modulo_marker() {
        let bytes = sample_trace(60_000);
        let configuration = Configuration::unprotected();
        let mut checkpoints = Vec::new();
        let full = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &opts(),
            &mut |cp| {
                checkpoints.push(*cp);
                Ok(())
            },
        )
        .unwrap();

        // Resume from a mid-run checkpoint, as a crashed daemon would.
        let mid = checkpoints[0];
        let resumed = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &DaemonOptions {
                resume_from: Some(mid),
                ..opts()
            },
            &mut |_| Ok(()),
        )
        .unwrap();
        assert_eq!(resumed.records, full.records);
        assert_eq!(resumed.memory, full.memory);
        assert_eq!(resumed.verdict.outcome(), "clean");
        let strip = |json: &str| {
            json.lines()
                .filter(|l| !l.contains("\"kind\": \"resume\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&resumed.verdict.to_json_extended()),
            strip(&full.verdict.to_json_extended())
        );
        assert_ne!(
            resumed.verdict.to_json_extended(),
            full.verdict.to_json_extended(),
            "the resume marker must be visible"
        );
    }

    #[test]
    fn resume_refuses_a_diverged_stream() {
        let bytes = sample_trace(60_000);
        let configuration = Configuration::unprotected();
        let mut checkpoints = Vec::new();
        supervise(
            SliceSource::new(&bytes),
            &configuration,
            &opts(),
            &mut |cp| {
                checkpoints.push(*cp);
                Ok(())
            },
        )
        .unwrap();
        let mut lying = checkpoints[0];
        lying.source_offset += 16;
        let err = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &DaemonOptions {
                resume_from: Some(lying),
                ..opts()
            },
            &mut |_| Ok(()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("diverged"));
    }

    #[test]
    fn corrupt_stream_yields_a_degraded_verdict_with_stable_ledger() {
        let bytes = sample_trace(40_000);
        let map = FrameMap::scan(&bytes).unwrap();
        let plan = FaultPlan::seeded(7, &map);
        let corrupted = apply_plan(&bytes, &plan).unwrap();
        let configuration = Configuration::unprotected();
        let run = |threads: usize| {
            supervise(
                SliceSource::new(&corrupted),
                &configuration,
                &DaemonOptions {
                    resync: true,
                    shard_threads: threads,
                    ..opts()
                },
                &mut |_| Ok(()),
            )
            .unwrap()
        };
        let reference = run(1);
        assert_ne!(reference.verdict.outcome(), "clean");
        assert!(!reference.verdict.faults.entries.is_empty());
        for threads in [2usize, 4] {
            let out = run(threads);
            assert_eq!(
                out.verdict.to_json_extended(),
                reference.verdict.to_json_extended(),
                "ledger must be byte-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn shard_panic_is_quarantined_and_the_daemon_keeps_serving() {
        let bytes = sample_trace(40_000);
        let configuration = Configuration::unprotected();
        let run = |threads: usize| {
            supervise_with_hook(
                SliceSource::new(&bytes),
                &configuration,
                &DaemonOptions {
                    shard_threads: threads,
                    ..opts()
                },
                &mut |_| Ok(()),
                |round| {
                    // Fires before any shard state is touched in the first
                    // round, so the quarantined run stays deterministic.
                    assert!(round != 1, "injected shard fault");
                },
            )
            .unwrap()
        };
        let reference = run(1);
        assert_eq!(reference.records, 40_000);
        assert_eq!(reference.verdict.outcome(), "quarantined");
        let quarantined: Vec<_> = reference
            .verdict
            .faults
            .entries
            .iter()
            .filter(|e| matches!(e, LedgerEntry::QuarantinedWindow { .. }))
            .collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].records_lost(), INGEST_BATCH as u64);
        for threads in [2usize, 4] {
            let out = run(threads);
            assert_eq!(
                out.verdict.to_json_extended(),
                reference.verdict.to_json_extended()
            );
        }
    }

    #[test]
    fn watchdog_sheds_telemetry_not_records() {
        let bytes = sample_trace(50_000);
        let configuration = Configuration::unprotected();
        let report = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &DaemonOptions {
                max_lag_windows: 2,
                ..opts()
            },
            &mut |_| Ok(()),
        )
        .unwrap();
        assert_eq!(report.records, 50_000, "no records were shed");
        // 5 windows emitted, only the last 2 full ones + tail retained.
        assert!(report.windows.len() <= 3);
        let shed: Vec<_> = report
            .verdict
            .faults
            .entries
            .iter()
            .filter(|e| matches!(e, LedgerEntry::ShedWindow { .. }))
            .collect();
        assert!(!shed.is_empty());
        assert_eq!(report.verdict.outcome(), "degraded");
        assert_eq!(report.verdict.faults.records_lost(), 0);
    }
}
