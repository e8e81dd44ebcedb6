//! `socket`: the `ingest` pipeline behind the TCP transport.
//!
//! One producer sends the seeded `copy` trace with `send_to` over one loopback
//! connection to a one-tenant `TenantServer` run by `serve_tenants`, under
//! `graphene-impress-p`. The ack window gates the producer, so this is a
//! closed loop. It is the only workload in which the server's idle
//! sleep-poll costs anything; `ingest` is its control.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use impress_bench::named_configuration;
use impress_sim::{serve_tenants, Configuration, DaemonOptions, IngestReport};
use impress_workloads::source::FollowPolicy;
use impress_workloads::transport::{
    send_to, Endpoint, Listener, MemInput, SendOptions, SendOutcome, TenantLimits, TenantServer,
};

use crate::ingest::{codec_stage, ingest, per_core, record_trace, EncodedTrace};
use crate::spans::{SpanId, Tracer};
use crate::{guarded, ns_per, Digest, Layers, Piece, Size, Summary, Workload, SHARD_THREADS};

/// The configuration the tenant ingests under.
const CONFIGURATION: &str = "graphene-impress-p";

/// How long the server idles before the producer dials. A producer dials a
/// daemon that is already idle-polling; without the pause the first accept
/// races the server's first poll, and each run settles in one of two modes a
/// poll interval apart.
const IDLE_BEFORE_DIAL: Duration = Duration::from_millis(5);

/// The socket workload's inputs.
#[derive(Debug)]
pub struct Socket {
    trace: EncodedTrace,
    configuration: Configuration,
    /// A bound listener for the next round (bound during set-up, then
    /// re-bound after each round, outside its timed window).
    listener: Mutex<Option<Listener>>,
}

/// One send and the tenant's report.
#[derive(Debug)]
pub struct SocketRound {
    /// What the producer's `send_to` returned.
    pub sent: Result<SendOutcome, String>,
    /// The tenant's ingest report.
    pub report: Result<IngestReport, String>,
    /// `send_to` wall time (until FIN was acked).
    pub acked: Duration,
    /// From the first dial until the tenant's report was in hand.
    pub total: Duration,
}

fn bind() -> Result<Listener, String> {
    let endpoint = Endpoint::parse("tcp://127.0.0.1:0").map_err(|e| e.to_string())?;
    Listener::bind(&endpoint).map_err(|e| e.to_string())
}

/// A verdict's canonical JSON without the timing-dependent transport lines.
fn modulo_transport(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("\"kind\": \"conn-") && !l.contains("\"transport\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

impl Socket {
    fn serve(
        &self,
        listener: Listener,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<SocketRound, String> {
        let endpoint = listener.local_endpoint().map_err(|e| e.to_string())?;
        // The server requires a 'static flag; one small leak per round.
        let drain: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let mut server =
            TenantServer::new(listener, FollowPolicy::listening(), TenantLimits::default())
                .with_drain_flag(drain);
        let options = DaemonOptions {
            shard_threads: SHARD_THREADS,
            ..DaemonOptions::listening()
        };
        let mut input = MemInput::new(self.trace.bytes.clone());
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                tracer.span("sim::tenants", 0, parent, |_| {
                    serve_tenants(&mut server, &self.configuration, &options, None)
                })
            });
            std::thread::sleep(IDLE_BEFORE_DIAL);
            let start = Instant::now();
            let sent = tracer.span("workloads::transport", 0, parent, |_| {
                send_to(&endpoint, &mut input, &SendOptions::default())
            });
            let acked = start.elapsed();
            drain.store(true, Ordering::SeqCst);
            let served = server.join();
            let total = start.elapsed();
            let sent = sent.map_err(|e| e.to_string());
            let report = match served {
                Err(_) => Err("serve_tenants panicked".to_string()),
                Ok(Err(e)) => Err(e.to_string()),
                Ok(Ok(multi)) => match (multi.tenants.as_slice(), &sent) {
                    ([tenant], Ok(outcome)) if tenant.tenant == outcome.tenant => {
                        tenant.result.clone()
                    }
                    _ => Err(format!(
                        "expected one tenant, served {}",
                        multi.tenants.len()
                    )),
                },
            };
            Ok(SocketRound {
                sent,
                report,
                acked,
                total,
            })
        })
    }
}

impl Workload for Socket {
    type Round = SocketRound;

    /// The median: a round (one send) is quantized by the server's idle
    /// sleep-poll (a few rounds skip a sleep and run far faster), so the
    /// fastest would jump between modes.
    const PIECE_QUANTILE: f64 = 0.5;

    fn setup(seed: u64, size: Size) -> Self {
        let trace = record_trace("copy", seed, per_core(size));
        let configuration =
            named_configuration(CONFIGURATION).expect("named configurations resolve");
        Self {
            trace,
            configuration,
            listener: Mutex::new(bind().ok()),
        }
    }

    fn round(&self, tracer: &Tracer, parent: Option<SpanId>) -> SocketRound {
        let taken = self.listener.lock().expect("listener slot poisoned").take();
        let round = guarded(|| self.serve(taken.map_or_else(bind, Ok)?, tracer, parent));
        *self.listener.lock().expect("listener slot poisoned") = bind().ok();
        round.unwrap_or_else(|e| SocketRound {
            sent: Err(e.clone()),
            report: Err(e),
            acked: Duration::ZERO,
            total: Duration::ZERO,
        })
    }

    fn summary(&self, round: &SocketRound) -> Summary {
        let mut digest = Digest::default();
        let complete = round.sent.as_ref().is_ok_and(|s| s.complete);
        let (items, failed) = match &round.report {
            Ok(r) if complete => {
                digest.add(&r.records);
                digest.add(&r.memory);
                digest.add(&r.windows);
                (r.records, 0)
            }
            Ok(_) => (0, 1),
            Err(e) => {
                digest.add(e);
                (0, 1)
            }
        };
        Summary {
            pieces: vec![Piece {
                items,
                wall: round.total,
            }],
            attempted: 1,
            failed,
            digest: digest.value(),
        }
    }

    fn check(&self, round: &SocketRound) -> Vec<String> {
        let mut failures = Vec::new();
        match &round.sent {
            Ok(s) if s.complete && s.acked == self.trace.bytes.len() as u64 => {}
            Ok(s) => failures.push(format!(
                "send: complete {}, acked {} of {} bytes",
                s.complete,
                s.acked,
                self.trace.bytes.len()
            )),
            Err(e) => failures.push(format!("send failed: {e}")),
        }
        let tenant = match &round.report {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("tenant pipeline failed: {e}"));
                return failures;
            }
        };
        match guarded(|| ingest(&self.trace, &self.configuration, SHARD_THREADS)) {
            Ok(file) => {
                if tenant.records != file.records || tenant.memory != file.memory {
                    failures.push(
                        "tenant records/memory differ from a file ingest of the same bytes"
                            .to_string(),
                    );
                }
                if modulo_transport(&tenant.verdict.to_json_extended())
                    != modulo_transport(&file.verdict.to_json_extended())
                {
                    failures.push(
                        "tenant verdict differs from the file verdict modulo transport lines"
                            .to_string(),
                    );
                }
            }
            Err(e) => failures.push(format!("file ingest failed: {e}")),
        }
        failures
    }

    fn layers(&self, round: &SocketRound, tracer: &Tracer, out: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();
        out.set("transport.acked_s", round.acked.as_secs_f64());
        out.set(
            "transport.verdict_lag_ms",
            round.total.saturating_sub(round.acked).as_secs_f64() * 1e3,
        );
        if let Ok(sent) = &round.sent {
            out.set("transport.sessions", sent.sessions as f64);
            out.set("transport.bytes_retransmitted", sent.retransmitted as f64);
        }
        let file = tracer.span("sim::trace_runner", 0, None, |_| {
            guarded(|| ingest(&self.trace, &self.configuration, SHARD_THREADS))
        });
        if let Err(e) = file {
            failures.push(format!("file ingest failed: {e}"));
        }
        let file_wall = tracer.total("sim::trace_runner").as_secs_f64();
        out.set(
            "transport.slowdown_vs_file",
            round.total.as_secs_f64() / file_wall,
        );
        match codec_stage(&self.trace, tracer, 0, None) {
            Ok((records, frames)) => {
                out.set(
                    "codec.ns_per_record",
                    ns_per(tracer.total("workloads::codec"), records),
                );
                out.set("codec.frames", frames as f64);
            }
            Err(e) => failures.push(format!("codec stage failed: {e}")),
        }
        failures
    }
}
