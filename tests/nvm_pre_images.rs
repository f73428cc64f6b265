//! NVM pre-images are bounded by the dirty set, not by operations run.
//!
//! An arena keeps one image of memory plus the pre-images of its dirty
//! bytes, in 4 KiB pages that exist only while a page holds a dirty byte
//! (and get created only for a non-zero durable value). Flushed writes
//! therefore store pre-images for what is in flight: as many pages after
//! N write+flush cycles over a rotating slot region as after 8N, and
//! never more than the pages the dirty set touches. Memory that is
//! written and never flushed — a pass over fresh memory — stores none.
//!
//! This is the machine-independent gate behind the benchmark's
//! `host_peak_rss_mb` on flushed workloads (CI prints the summary line of
//! `pre_images_track_the_dirty_set_not_operations_run`).

mod common;

use hyperloop_repro::cluster::World;

/// The pre-image page size `NvmArena::stored_pre_image_pages` counts in.
const PAGE: usize = 4096;
/// Sixteen passes over the 128-slot region.
const N: u64 = 2048;

/// Pre-image pages over the chain's hosts.
fn stored(w: &World) -> usize {
    w.hosts.iter().map(|h| h.mem.stored_pre_image_pages()).sum()
}

/// Pages holding a dirty byte over the chain's hosts.
fn dirty_pages(w: &World) -> usize {
    w.hosts
        .iter()
        .map(|h| {
            (0..h.mem.len())
                .step_by(PAGE)
                .filter(|&a| !h.mem.is_durable(a as u64, PAGE))
                .count()
        })
        .sum()
}

struct PreImageStore {
    /// Most pages stored at once over the run.
    peak: usize,
    /// Pages holding a dirty byte at that moment.
    dirty_at_peak: usize,
    /// Pages stored once the last write completed.
    at_end: usize,
}

/// Run the `gwrite_chain` shape for `ops` writes, checking after every
/// event that grows the stored count that it stays within the dirty
/// pages.
fn run_chain(ops: u64, flush: bool) -> PreImageStore {
    let (mut peak, mut dirty_at_peak) = (0, 0);
    let w = common::run_gwrite_chain(ops, flush, |w| {
        let now = stored(w);
        if now > peak {
            let dirty = dirty_pages(w);
            assert!(
                now <= dirty,
                "{now} pages store pre-images, {dirty} hold dirty bytes"
            );
            (peak, dirty_at_peak) = (now, dirty);
        }
    });
    PreImageStore {
        peak,
        dirty_at_peak,
        at_end: stored(&w),
    }
}

#[test]
fn pre_images_track_the_dirty_set_not_operations_run() {
    let short = run_chain(N, true);
    let long = run_chain(8 * N, true);
    let unflushed = run_chain(N, false);
    println!(
        "nvm_pre_images: flushed ops {} -> {}, peak stored pages {} -> {} \
         (dirty pages at peak {} -> {}), stored at end {} -> {}; \
         unflushed pass over fresh memory: peak stored pages {}",
        N,
        8 * N,
        short.peak,
        long.peak,
        short.dirty_at_peak,
        long.dirty_at_peak,
        short.at_end,
        long.at_end,
        unflushed.peak
    );
    // Flushed rewrites of the slots do need pre-images …
    assert!(short.peak > 0);
    // … for the writes in flight, however many operations ran.
    assert_eq!(
        short.peak, long.peak,
        "stored pre-image pages grew with operations run"
    );
    assert_eq!((short.at_end, long.at_end), (0, 0));
    // Fresh memory is durably zero: nothing to save.
    assert_eq!(unflushed.peak, 0);
}
