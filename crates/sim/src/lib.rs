//! Trace-driven multi-core system simulator for the ImPress evaluation.
//!
//! This crate is the reproduction's stand-in for ChampSim + DRAMsim3 (§III-A of the
//! paper): it combines
//!
//! * a throughput-oriented core model (ROB-limited memory-level parallelism, fixed
//!   retire rate) — [`core_model`];
//! * the epoch-phased sharded run loop (issue → execute channel shards in parallel →
//!   merge), bit-for-bit identical to a serial run at any thread count — [`sharded`];
//! * the shared-LLC substrate with SRRIP replacement — [`llc`];
//! * the DDR5 memory controller from `impress_memctrl`, including the Row-Press
//!   defense under test;
//! * synthetic workload mixes from `impress_workloads`;
//! * weighted-speedup metrics and normalization helpers — [`metrics`];
//! * a high-level experiment runner used by every performance figure — [`runner`].
//!
//! Absolute IPC numbers are not meaningful (the core model is analytical); all results
//! are reported as performance normalized to a baseline configuration, exactly like the
//! paper's figures.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod core_model;
pub mod daemon;
pub mod llc;
pub mod metrics;
pub mod runner;
pub mod sharded;
pub mod system;
pub mod tenants;
pub mod trace_runner;

pub use config::SystemConfig;
pub use core_model::{CoreModel, IssueBound};
pub use daemon::{supervise, write_checkpoint_durable, Checkpoint, DaemonOptions};
pub use llc::{Llc, LlcConfig, LlcOutcome};
pub use metrics::{geometric_mean, PerformanceResult};
pub use runner::{Configuration, ExperimentRunner, NormalizedResult, SweepOptions, SweepResults};
pub use sharded::EpochStats;
pub use system::{RunOutput, System};
pub use tenants::{serve_tenants, MultiReport, TenantReport};
pub use trace_runner::{
    FaultLedger, IngestReport, LedgerEntry, ReplaySource, TraceRunner, VerdictReport,
    WindowTelemetry,
};
