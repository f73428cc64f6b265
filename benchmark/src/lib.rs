//! hl-benchmark: the repo's two-clock benchmark, as a library so that
//! its tests can reach the dictionary and the helpers. `main.rs` is the
//! command line; `README.md` is the manual.

pub mod compare;
pub mod host;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod pump;
pub mod round;
pub mod run;
pub mod spy;
pub mod stats;
