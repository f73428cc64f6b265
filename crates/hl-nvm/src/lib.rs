//! # hl-nvm — non-volatile main memory model
//!
//! Models a host's battery-backed DRAM / NVM with the semantics HyperLoop
//! depends on: writes that arrive through a volatile cache (the RDMA
//! NIC's internal cache or the CPU caches) are visible immediately but
//! survive a power failure only after an explicit flush — HyperLoop's
//! gFLUSH (a 0-byte RDMA READ that forces the NIC to drain its cache) or
//! a CPU cache-line write-back.
//!
//! An arena keeps one image of memory plus the pre-images of its dirty
//! bytes: a clean byte's durable value is its current value, so only a
//! byte that turns dirty needs its old value saved, and only when that
//! value is non-zero. Data that is flushed is not resident twice.
//!
//! See [`NvmArena`] for the memory itself, [`RangeSet`] for dirty-range
//! tracking, and [`Layout`]/[`Region`] for carving arenas into named
//! regions (WAL, database, locks, WQE rings, metadata staging).

#![warn(missing_docs)]

mod arena;
mod layout;
mod range_set;

pub use arena::{MemError, NvmArena};
pub use layout::{Layout, Region};
pub use range_set::RangeSet;
