//! Shared by the NIC-level suites: every [`hl_rnic::Nic`] entry point
//! pushes into a caller-owned sink; tests want the outputs of one call.

use hl_rnic::NicOutput;

/// Run one NIC entry point against a fresh sink and return what it
/// pushed, in push order.
pub fn collect(entry: impl FnOnce(&mut Vec<NicOutput>)) -> Vec<NicOutput> {
    let mut out = Vec::new();
    entry(&mut out);
    out
}
