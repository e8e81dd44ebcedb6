//! Checkpoint/resume determinism under randomized crashes.
//!
//! The daemon's resume contract: kill the process at *any* point, restart from
//! the last durable checkpoint against the same stream, and the final verdict
//! JSON is byte-identical to an uninterrupted run — modulo the resume marker
//! the ledger records. This test simulates the kill with a source that returns
//! an I/O error after serving a randomized number of bytes, then resumes from
//! the last checkpoint the crashed run managed to publish.

use std::io;

use impress_sim::{supervise, Checkpoint, Configuration, DaemonOptions};
use impress_workloads::codec::{TraceMeta, TraceRecord, TraceWriter};
use impress_workloads::source::{SliceSource, TraceSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const RECORDS: u64 = 50_000;

/// Serves `data` in small chunks, then fails with `ConnectionReset` once
/// `kill_at` bytes have been delivered — a crash mid-stream.
struct CrashingSource<'a> {
    data: &'a [u8],
    at: usize,
    kill_at: usize,
    chunk: usize,
}

impl TraceSource for CrashingSource<'_> {
    fn next_chunk(&mut self) -> io::Result<Option<&[u8]>> {
        if self.at >= self.kill_at {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected crash",
            ));
        }
        if self.at >= self.data.len() {
            return Ok(None);
        }
        let end = (self.at + self.chunk)
            .min(self.data.len())
            .min(self.kill_at);
        let out = &self.data[self.at..end];
        self.at = end;
        Ok(Some(out))
    }
}

fn sample_trace() -> Vec<u8> {
    let meta = TraceMeta {
        name: "resume".to_string(),
        cores: 2,
        has_gaps: false,
        instructions_per_miss: vec![40.0, 60.0],
    };
    let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
    for i in 0..RECORDS {
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

fn opts(resume_from: Option<Checkpoint>) -> DaemonOptions {
    DaemonOptions {
        window_records: 10_000,
        checkpoint_every: 20_000,
        shard_threads: 2,
        resume_from,
        ..DaemonOptions::default()
    }
}

/// Drops the ledger's resume-marker lines, leaving everything else untouched.
fn without_resume_marker(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("\"kind\": \"resume\""))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn resume_after_randomized_kill_points_reproduces_the_verdict() {
    let bytes = sample_trace();
    let configuration = Configuration::unprotected();

    let baseline = supervise(
        SliceSource::new(&bytes),
        &configuration,
        &opts(None),
        &mut |_| Ok(()),
    )
    .unwrap()
    .verdict
    .to_json_extended();

    let mut rng = SmallRng::seed_from_u64(0x5eed_c0de);
    let mut resumed_runs = 0;
    for round in 0..8 {
        // Kill anywhere in the back three quarters of the stream; the first
        // durable checkpoint lands at 20 000 records (~320 kB in).
        let kill_at = rng.gen_range(bytes.len() / 4..bytes.len());

        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let crashed = supervise(
            CrashingSource {
                data: &bytes,
                at: 0,
                kill_at,
                chunk: 4096,
            },
            &configuration,
            &opts(None),
            &mut |cp| {
                checkpoints.push(*cp);
                Ok(())
            },
        );
        assert!(
            crashed.is_err(),
            "round {round}: kill at byte {kill_at} did not surface as an error"
        );

        let resume_from = checkpoints.last().copied();
        if resume_from.is_some() {
            resumed_runs += 1;
        }
        let resumed = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &opts(resume_from),
            &mut |_| Ok(()),
        )
        .unwrap()
        .verdict
        .to_json_extended();

        if resume_from.is_some() {
            assert_ne!(
                resumed, baseline,
                "round {round}: a resumed run must record its resume marker"
            );
        }
        assert_eq!(
            without_resume_marker(&resumed),
            baseline,
            "round {round}: verdict diverged after resume from {resume_from:?}"
        );
    }
    // The kill-point range guarantees most rounds crash after the first
    // checkpoint; make sure the resume path was actually exercised.
    assert!(
        resumed_runs >= 4,
        "only {resumed_runs}/8 rounds exercised a real resume"
    );
}

#[test]
fn resume_from_every_published_checkpoint_is_equivalent() {
    let bytes = sample_trace();
    let configuration = Configuration::unprotected();

    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    let baseline = supervise(
        SliceSource::new(&bytes),
        &configuration,
        &opts(None),
        &mut |cp| {
            checkpoints.push(*cp);
            Ok(())
        },
    )
    .unwrap()
    .verdict
    .to_json_extended();
    assert!(!checkpoints.is_empty());

    for cp in checkpoints {
        let resumed = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &opts(Some(cp)),
            &mut |_| Ok(()),
        )
        .unwrap()
        .verdict
        .to_json_extended();
        assert_eq!(
            without_resume_marker(&resumed),
            baseline,
            "verdict diverged resuming from checkpoint at {} records",
            cp.records
        );
    }
}
