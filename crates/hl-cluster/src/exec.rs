//! Threaded shard execution: run disjoint shards' event loops on OS
//! threads without giving up determinism.
//!
//! The repo-wide contract is that one simulated world is strictly
//! single-threaded — every host, NIC and engine inside a `World` shares
//! one event loop, and determinism falls out of the total order on
//! `(time, seq)` plus seeded RNG streams. Threads therefore cannot go
//! *inside* a world. They can go *between* worlds: a sharded campaign
//! whose groups are placed disjointly ([`ShardPlan::is_disjoint`]
//! proves no host, NIC, CPU or egress FIFO is shared) decomposes into
//! one world per shard, and those worlds exchange nothing at all.
//!
//! [`ShardExecutor`] is that decomposition's runtime: each shard id is
//! mapped to a job closure that builds the shard's own `World` +
//! `Engine`, runs its event loop to completion, and reduces the outcome
//! to plain `Send` data (strings, byte vectors, counters — never `Rc`
//! simulation state). Jobs are claimed from a shared atomic counter so
//! a slow shard never stalls a static partition, and results are merged
//! by shard index, so the output is byte-identical whatever the thread
//! count or the OS schedule. `threads == 1` degenerates to a plain
//! sequential loop on the caller's thread — the baseline the
//! byte-identity suites compare against.
//!
//! Why determinism survives threading, in one paragraph: a shard job's
//! result is a pure function of `(shard id, job closure)` — the closure
//! seeds its world from data it owns, the world never reads the wall
//! clock or OS entropy (enforced by `hl-analysis`), and no two jobs
//! share mutable state. Thread scheduling can only choose *which worker
//! executes which shard and when*, which affects neither any job's
//! result nor where it lands in the output (slot `sid`). The merge then
//! reads the slots in index order. See DESIGN.md §16.
//!
//! [`ShardPlan::is_disjoint`]: crate::shard::ShardPlan::is_disjoint

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs per-shard jobs across a fixed-size pool of OS threads and
/// merges their results in shard order.
///
/// See the module docs for the determinism argument. The executor holds
/// no threads between runs — each [`ShardExecutor::run`] call spawns a
/// scoped pool and joins it before returning, so a panicking shard job
/// propagates to the caller instead of poisoning a long-lived pool.
#[derive(Debug, Clone, Copy)]
pub struct ShardExecutor {
    threads: usize,
}

impl ShardExecutor {
    /// An executor that fans shards over `threads` OS threads (clamped
    /// to at least 1; also clamped to the shard count per run).
    pub fn new(threads: usize) -> Self {
        ShardExecutor {
            threads: threads.max(1),
        }
    }

    /// The sequential baseline: everything on the caller's thread.
    pub fn sequential() -> Self {
        ShardExecutor { threads: 1 }
    }

    /// Configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `job` for every shard id in `0..n_shards`, returning the
    /// results indexed by shard id.
    ///
    /// `job` must be a pure function of the shard id (build the shard's
    /// world inside the closure; return only `Send` data). With more
    /// than one thread, workers claim shard ids from a shared counter
    /// and each result is moved into its own slot, so the returned
    /// vector is byte-identical to the `threads == 1` run.
    pub fn run<R, F>(&self, n_shards: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let threads = self.threads.min(n_shards.max(1));
        if threads <= 1 {
            return (0..n_shards).map(job).collect();
        }

        // The claim counter lives alone on its cache line so worker
        // fetch_adds never false-share with each other's result
        // batches.
        #[repr(align(64))]
        struct PaddedCounter(AtomicUsize);
        let next = PaddedCounter(AtomicUsize::new(0));
        let mut out: Vec<Option<R>> = (0..n_shards).map(|_| None).collect();
        // Threads never enter a simulated world here: each job owns a
        // whole disjoint shard world, and results merge by shard index,
        // so the OS schedule cannot reach any simulated outcome (see
        // module docs).
        // hl-lint: allow(thread-spawn)
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let sid = next.0.fetch_add(1, Ordering::Relaxed);
                            if sid >= n_shards {
                                break;
                            }
                            mine.push((sid, job(sid)));
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                for (sid, r) in h.join().expect("shard worker panicked") {
                    debug_assert!(out[sid].is_none(), "shard slot claimed twice");
                    out[sid] = Some(r);
                }
            }
        });
        out.into_iter()
            .map(|r| r.expect("every shard id was claimed"))
            .collect()
    }
}

/// The host's available parallelism (1 when unknown). Callers use this
/// to size executors and to annotate benchmark artifacts with how many
/// cores the numbers were taken on.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterBuilder;
    use hl_sim::SimTime;

    /// A miniature per-shard world: seed by shard id, run the event
    /// loop, reduce to a deterministic string.
    fn shard_job(sid: usize) -> String {
        let (mut w, mut eng) = ClusterBuilder::new(2)
            .arena_size(1 << 16)
            .seed(0xC0FFEE ^ sid as u64)
            .build();
        eng.run_until(&mut w, SimTime::from_nanos(1_000_000));
        format!(
            "sid={} events={} end_ns={}",
            sid,
            eng.events_executed(),
            eng.now().as_nanos()
        )
    }

    #[test]
    fn results_come_back_in_shard_order() {
        let got = ShardExecutor::new(4).run(8, |sid| sid * 10);
        assert_eq!(got, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn threaded_worlds_match_sequential_byte_for_byte() {
        let seq = ShardExecutor::sequential().run(8, shard_job);
        // More workers than the host has cores is fine — claim order
        // just gets noisier, which is exactly what must not show.
        let par = ShardExecutor::new(8).run(8, shard_job);
        assert_eq!(seq, par);
    }

    #[test]
    fn thread_count_clamps_to_shard_count() {
        let got = ShardExecutor::new(64).run(2, |sid| sid);
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn zero_shards_is_empty() {
        let got: Vec<usize> = ShardExecutor::new(4).run(0, |sid| sid);
        assert!(got.is_empty());
    }
}
