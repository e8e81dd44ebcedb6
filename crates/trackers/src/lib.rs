//! Rowhammer tracker implementations used by the ImPress reproduction.
//!
//! The paper analyses four trackers (§II-C), two at the memory controller and two
//! inside the DRAM device:
//!
//! | Tracker | Mechanism | Location | Module |
//! |---|---|---|---|
//! | Graphene | Misra-Gries counters | Memory controller | [`graphene`] |
//! | PARA | Probabilistic sampling | Memory controller | [`para`] |
//! | Mithril | Counter-based summary, mitigates under RFM | in-DRAM | [`mithril`] |
//! | MINT | Single-entry probabilistic slot selection, mitigates under RFM | in-DRAM | [`mint`] |
//!
//! In addition, [`prac`] implements Per-Row Activation Counting (PRAC), the JEDEC
//! direction mentioned in §VI-F, as an extension.
//!
//! All trackers implement the [`RowTracker`] trait and accept *Equivalent Activation
//! Counts* ([`Eact`]) rather than plain activations, which is exactly the hook ImPress-P
//! needs: a conventional Rowhammer-only system simply passes `Eact::ONE` for every
//! activation, while ImPress-P passes the measured `(tON + tPRE)/tRC`.
//!
//! # Example
//!
//! ```
//! use impress_trackers::{Eact, Graphene, RowTracker};
//!
//! // Graphene sized for a Rowhammer threshold of 4K (the paper's default).
//! let mut tracker = Graphene::for_threshold(4_000);
//! let mut mitigations = 0;
//! for act in 0..2_000u64 {
//!     if tracker.record(7, Eact::ONE, act * 128).is_some() {
//!         mitigations += 1;
//!     }
//! }
//! // 2000 activations of one row cross Graphene's internal threshold at least once.
//! assert!(mitigations >= 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod eact;
pub mod flat;
pub mod graphene;
pub mod index;
pub mod mint;
pub mod mithril;
pub mod para;
pub mod prac;
pub mod storage;
pub mod summary;
pub mod tracker;

pub use eact::{Eact, EactCounter};
pub use flat::FlatCounterTable;
pub use graphene::Graphene;
pub use index::RowSlotIndex;
pub use mint::Mint;
pub use mithril::Mithril;
pub use para::Para;
pub use prac::Prac;
pub use storage::StorageEstimate;
pub use summary::CountSummary;
pub use tracker::{MitigationRequest, RowTracker, TrackerKind};
