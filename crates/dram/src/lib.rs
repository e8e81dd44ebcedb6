//! DDR5 DRAM device model for the ImPress reproduction.
//!
//! This crate is the lowest-level substrate of the ImPress reproduction: it models the
//! parts of a DDR5 DRAM device that matter for Rowhammer (RH) and Row-Press (RP)
//! mitigation studies:
//!
//! * JEDEC timing parameters (Table I of the paper) — [`timing::DramTimings`]
//! * per-bank state machines tracking the open row and its open time — [`bank::Bank`]
//! * the device organization (channels × ranks × bank groups × banks) — [`organization`]
//! * physical-to-DRAM address mapping, including the Minimalist Open Page (MOP) scheme
//!   used by the paper — [`mapping`]
//! * refresh scheduling with DDR5 refresh postponement — [`refresh`]
//! * Refresh Management (RFM) bookkeeping used by in-DRAM trackers — [`rfm`]
//! * a simple DRAM energy model used for the §VI-E energy analysis — [`energy`]
//! * activation / row-hit / mitigation statistics — [`stats`]
//!
//! All time is measured in DRAM clock cycles ([`Cycle`]) at 2.666 GHz (0.375 ns per
//! cycle), so that `tRC` (48 ns) is exactly 128 cycles. This matches the paper's
//! observation (§VI-A) that dividing by `tRC` can be implemented as a right shift by 7.
//!
//! # Example
//!
//! ```
//! use impress_dram::{Bank, DramTimings};
//!
//! let t = DramTimings::ddr5();
//! let mut bank = Bank::new(0);
//! bank.activate(42, 0, &t).unwrap();
//! assert_eq!(bank.open_row(), Some(42));
//! // The row must stay open for at least tRAS before it can be precharged.
//! let closed = bank.precharge(t.t_ras, &t).unwrap();
//! assert_eq!(closed.row, 42);
//! assert_eq!(closed.open_cycles, t.t_ras);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod bank;
pub mod command;
pub mod energy;
pub mod error;
pub mod mapping;
pub mod organization;
pub mod refresh;
pub mod rfm;
pub mod stats;
pub mod timing;

pub use address::{DramAddress, PhysicalAddress, RowId};
pub use bank::{Bank, BankState, ClosedRow};
pub use command::{DramCommand, DramCommandKind};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::DramError;
pub use mapping::{AddressDecoder, AddressMapping, BitField, BitInterleaving};
pub use organization::DramOrganization;
pub use refresh::RefreshScheduler;
pub use rfm::RfmCounter;
pub use stats::{BankStats, ChannelStats};
pub use timing::{Cycle, DramTimings};
