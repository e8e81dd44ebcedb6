//! # ImPress: Implicit Row-Press Mitigation
//!
//! This crate implements the primary contribution of *"ImPress: Securing DRAM Against
//! Data-Disturbance Errors via Implicit Row-Press Mitigation"* (MICRO 2024):
//!
//! * the **Unified Charge-Loss Model** and its Conservative Linear Model form
//!   ([`clm`], §IV), which expresses the combined damage of Rowhammer and Row-Press
//!   as a single number;
//! * the embedded Row-Press characterization data the model is fit to
//!   ([`rowpress_data`], Figures 4/7/8);
//! * the three Row-Press mitigations analysed by the paper: the prior-work **ExPress**
//!   baseline ([`express`]), the naive **ImPress-N** ([`impress_n`], §V) and the precise
//!   **ImPress-P** ([`impress_p`], §VI), all behind the [`defense::RowPressDefense`]
//!   trait;
//! * the per-bank [`engine::BankMitigationEngine`] that glues a defense to any
//!   Rowhammer tracker from [`impress_trackers`];
//! * the [`security`] harness that replays attack patterns and measures the maximum
//!   unmitigated charge (the paper's security argument);
//! * the effective-threshold, storage and qualitative comparisons
//!   ([`threshold`], [`storage`], [`comparison`] — Figures 4/12, §VI-C, Table III).
//!
//! # Quick start
//!
//! ```
//! use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
//! use impress_core::security::{AggressorAccess, SecurityHarness};
//! use impress_dram::DramTimings;
//!
//! let timings = DramTimings::ddr5();
//! // Protect a bank with Graphene + ImPress-P at the paper's default TRH of 4K.
//! let config = ProtectionConfig::paper_default(
//!     TrackerChoice::Graphene,
//!     DefenseKind::impress_p_default(),
//! );
//! // Mount a Row-Press attack that keeps the aggressor open for a full tREFI per access.
//! let mut harness = SecurityHarness::new(&config, 1.0, &timings);
//! let attack = (0..5_000).map(|_| AggressorAccess::press(1000, timings.t_refi));
//! let report = harness.run(attack, u64::MAX);
//! assert!(!report.bit_flipped());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clm;
pub mod comparison;
pub mod config;
pub mod defense;
pub mod engine;
pub mod express;
pub mod impress_n;
pub mod impress_p;
pub mod rowpress_data;
pub mod security;
pub mod storage;
pub mod threshold;

pub use clm::{Alpha, ChargeLoss, ChargeLossModel};
pub use comparison::DefenseProperties;
pub use config::{DefenseKind, ProtectionConfig, TrackerChoice};
pub use defense::{NoRowPressDefense, RowPressDefense, TrackedActivation};
pub use engine::{BankMitigationEngine, EngineStats};
pub use express::Express;
pub use impress_n::ImpressN;
pub use impress_p::ImpressP;
pub use impress_trackers::EvictionEngine;
pub use security::{AggressorAccess, SecurityHarness, SecurityReport};
