//! # hl-sim — deterministic discrete-event simulation core
//!
//! The foundation of the HyperLoop reproduction testbed: a deterministic
//! event loop ([`Engine`]), simulated time ([`SimTime`], [`SimDuration`]),
//! named reproducible random streams ([`RngFactory`]), HDR-style latency
//! histograms ([`Histogram`]), calibrated hardware profiles
//! ([`config::HwProfile`]) and a trace ring buffer ([`Tracer`]).
//!
//! Everything above this crate (NVM, NIC, CPU, fabric models) is written
//! as pure state machines advanced by events scheduled here; given the
//! same seed, every experiment in the repository replays bit-for-bit.

#![warn(missing_docs)]

mod bytes;
pub mod config;
mod engine;
mod rng;
mod sketch;
mod stats;
pub mod telemetry;
mod time;
pub mod timeseries;
mod trace;

pub use bytes::Bytes;
pub use engine::{Engine, EventCtx, EventToken, Handler, NoEvent};
pub use rng::{JitterTable, RngFactory, RngStream};
pub use sketch::Sketch;
pub use stats::{Counters, Histogram, Summary};
pub use telemetry::{
    validate_exposition, Attribution, FlightDump, FlightEvent, FlightRecorder, Mark, Metrics,
    OpKind, OpSpan, Stage, Telemetry,
};
pub use time::{SimDuration, SimTime};
pub use timeseries::TimeSeries;
pub use trace::{TraceEntry, Tracer};
