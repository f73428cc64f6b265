//! # hyperloop — group-based NIC-offloading for replicated transactions
//!
//! A faithful reproduction of **HyperLoop** (SIGCOMM 2018) on the
//! simulated testbed of `hl-cluster`: group memory primitives executed
//! entirely by chains of RDMA NICs, with replica CPUs off the critical
//! path.
//!
//! * [`GroupBuilder`] wires the chain (per-primitive QPs, loopback QPs,
//!   in-memory WQE rings) and pre-posts every slot.
//! * [`HyperLoopClient`] issues [`HyperLoopClient::gwrite`],
//!   [`HyperLoopClient::gmemcpy`], [`HyperLoopClient::gcas`] and
//!   [`HyperLoopClient::gflush`]; completions arrive as callbacks with
//!   latency and gCAS result maps.
//! * `program` holds every topology's pre-posted WQE bundle as a table
//!   of steps and patches, and the one poster that turns a table into
//!   WQEs and scatter entries; `wire` holds QP creation and the client's
//!   ACK ring.
//! * [`replica::start_replenishers`] starts the processes that re-post
//!   consumed slots off the critical path.
//! * [`naive`] is the paper's Naïve-RDMA baseline (event-driven and
//!   polling replicas) behind the same client surface.
//! * [`api`] provides the storage-facing layer from paper §5:
//!   replicated write-ahead log (`Append`, `ExecuteAndAdvance`) and
//!   group locks (`wrLock`/`wrUnlock`/`rdLock`/`rdUnlock`).
//! * [`recovery`] implements heartbeat failure detection and chain
//!   rebuild with catch-up copy, plus transport-error (CQ error CQE)
//!   triggered rebuild and graceful degradation to the Naïve path.
//! * `reconfig` is the one engine every membership change runs on:
//!   re-promotion, rejoin, rebuild, degrade, split and merge are plans
//!   over its log → stream → drain → delta → commit stages.
//! * [`deadline`] wraps the client with per-operation deadlines,
//!   exponential backoff and idempotent re-issue so a supervised
//!   operation either completes or fails with a typed error.
//! * [`slo`] evaluates declarative latency objectives
//!   (`p99(op_latency_ns{…}) < 200us over 8 windows`) with multi-window
//!   burn rates over the windowed time-series layer, feeding
//!   [`health::HealthMonitor`] as a structured sick signal.
//! * [`fanout`] is the §7 extension: FaRM-style primary/backup
//!   replication with the coordination offloaded to the primary's NIC
//!   (parallel WAIT-triggered transfers, ack aggregation by WAIT count).
//! * [`multi`] is the §5 future-work feature: several clients share one
//!   chain through a shared receive queue on the first replica, their
//!   writes serialized by the NICs in arrival order.

#![warn(missing_docs)]

pub mod api;
mod client;
pub mod deadline;
pub mod fanout;
mod group;
pub mod health;
pub mod metadata;
pub mod migrate;
pub mod multi;
pub mod naive;
mod program;
mod reconfig;
pub mod recovery;
pub mod replica;
pub mod router;
pub mod slo;
mod wire;

pub use client::HyperLoopClient;
pub use deadline::{Backend, DeadlinePolicy, GroupOp, OnOutcome, OpError, RetryClient, RetryStats};
pub use group::{
    Backpressure, GroupBuilder, GroupConfig, GroupInner, GroupRef, GroupStats, OnDone, OpResult,
};
pub use health::{HealthConfig, HealthMonitor, HealthState};
pub use metadata::Primitive;
pub use migrate::{merge_live, split_live, MigrationSpec, OnMigrated};
pub use router::ShardRouter;
pub use slo::{SloEngine, SloRule};
