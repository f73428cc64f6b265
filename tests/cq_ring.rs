//! Completion queues are fixed hardware rings.
//!
//! A replica's CQs are counters that WAITs watch and nothing polls, so
//! an unbounded CQ kept every CQE it ever produced: memory grew with the
//! number of operations run. With [`CQ_DEPTH`]-entry rings the CQEs a
//! chain stores are bounded, and the same after N and after 8N
//! operations, while every CQ that software drains never overruns.
//!
//! This is the machine-independent gate behind the benchmark's
//! `host_peak_rss_mb` (CI prints the summary line of
//! `stored_cqes_do_not_grow_with_operations_run`).

mod common;

use hyperloop_repro::rnic::CQ_DEPTH;

/// Enough operations that every CQ producing at least one CQE per
/// operation has filled its ring.
const N: u64 = 2 * CQ_DEPTH as u64;

/// What the chain's NICs hold after a run.
struct CqStore {
    /// CQEs stored over every CQ of every NIC.
    stored: usize,
    /// CQs over every NIC.
    cqs: usize,
    /// Overwrites over every NIC (`NicCounters::cq_overruns`).
    overruns: u64,
}

/// The benchmark's `gwrite_chain` shape (`common`), run for `ops`
/// operations.
fn run_chain(ops: u64) -> CqStore {
    let w = common::run_gwrite_chain(ops, false, |_| {});

    // Overruns are legal only on CQs that nothing polls or subscribes to.
    for (h, host) in w.hosts.iter().enumerate() {
        for cq in 0..host.nic.num_cqs() as u32 {
            let ring = host.nic.cq(cq);
            assert!(
                ring.depth() <= CQ_DEPTH,
                "h{h} cq{cq} stores past its depth"
            );
            assert!(
                ring.overruns() == 0 || !ring.is_polled(),
                "h{h} cq{cq}: overran {} CQEs although software polls it",
                ring.overruns()
            );
        }
    }
    assert_eq!(w.polled_cq_overruns(), 0);
    let nics = || w.hosts.iter().map(|h| &h.nic);
    CqStore {
        stored: nics()
            .flat_map(|n| (0..n.num_cqs() as u32).map(move |cq| n.cq(cq).depth()))
            .sum(),
        cqs: nics().map(|n| n.num_cqs()).sum(),
        overruns: nics().map(|n| n.counters().cq_overruns).sum(),
    }
}

#[test]
fn stored_cqes_do_not_grow_with_operations_run() {
    let short = run_chain(N);
    let long = run_chain(8 * N);
    println!(
        "cq_ring: ops {} -> {}, stored_cqes {} -> {} (bound {}), cq_overruns {} -> {}",
        N,
        8 * N,
        short.stored,
        long.stored,
        CQ_DEPTH * long.cqs,
        short.overruns,
        long.overruns
    );
    assert_eq!(short.cqs, long.cqs);
    assert!(long.stored <= CQ_DEPTH * long.cqs);
    assert_eq!(
        short.stored, long.stored,
        "stored CQEs grew with operations run"
    );
    // The WAIT-watched CQs really did wrap, and wrapped more in the
    // longer run.
    assert!(short.overruns > 0 && long.overruns > short.overruns);
}
