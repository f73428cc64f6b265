//! The one reconfiguration engine.
//!
//! Re-promotion, crash-rejoin, chain rebuild, degrade-to-Naïve, shard
//! split and shard merge all change *which members hold the replicated
//! region* while the source head's copy stays the source of truth: both
//! backends apply every mutation to the head's local region at issue
//! time, so a range written mid-reconfiguration is (a) already current
//! in the source region and (b) recorded in the [`RetryClient`] dirty
//! log. Each of those operations is therefore a [`Plan`] — where the
//! bytes come from, where they go, which ranges move, and what makes the
//! destination authoritative — handed to [`run`], which walks the five
//! [`MigrationStage`]s:
//!
//! 1. **Planned** — arm the dirty log, register the source region for
//!    remote reads (once);
//! 2. **Streaming** — one joined [`catch_up`] fan-out over
//!    ranges × targets while the source keeps serving;
//! 3. **Draining** — the plan's after-bulk action (pause the old
//!    backend, or open the router's dual window), then a bounded wait
//!    for in-flight supervised ops;
//! 4. **CutOver** — take the log, re-stream the delta, run the plan's
//!    commit action;
//! 5. **Retired** — hand the result back.
//!
//! A plan without a [`Live`] part is *stop-the-world*: its source was
//! paused before the bulk copy and nothing logs, so it goes from the
//! bulk copy straight to the commit in the same event.

use crate::api::GroupClient;
use crate::deadline::RetryClient;
use crate::group::GroupRef;
use crate::recovery::{catch_up, OnRecovered};
use hl_cluster::migrate::MigrationStage;
use hl_cluster::World;
use hl_fabric::HostId;
use hl_nvm::RangeSet;
use hl_rnic::Access;
use hl_sim::{Engine, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Stage-entry hook: each plan stamps its own marks and transitions
/// (`cutover:*`, `transition:migration:*`) as the engine enters a stage.
pub(crate) type OnStage = Box<dyn FnMut(&mut World, SimTime, MigrationStage)>;

/// Commit action: make the destination authoritative (swap the backend,
/// flip the router) and return the continuation to run once the plan is
/// `Retired` — typically handing the new client back to the caller.
pub(crate) type Commit = Box<dyn FnOnce(&mut World, &mut Engine<World>) -> OnRecovered>;

/// The part of a plan that exists only when the source keeps serving
/// during the bulk copy.
pub(crate) struct Live {
    /// The supervised client whose dirty log covers the source region.
    pub log: RetryClient,
    /// Stops new writes reaching the moving ranges on the source: pause
    /// the old backend, or open the router window.
    pub after_bulk: Box<dyn FnOnce()>,
    /// `(name, labels)` of the counter the delta size is added to.
    pub delta_counter: (&'static str, &'static str),
}

/// One reconfiguration: copy `ranges` of the source head's region to the
/// same offsets on every target, then commit.
pub(crate) struct Plan {
    /// Source head and the base address of its copy of the region.
    pub src: (HostId, u64),
    /// Size of the source region.
    pub rep_bytes: u64,
    /// Destination members as `(host, region base)`. A member on the
    /// source host itself (the new chain's head copy when the
    /// coordinator stays put) is filled with a CPU copy; every other
    /// member pulls over the fabric.
    pub targets: Vec<(HostId, u64)>,
    /// `(offset, len)` ranges to move: the whole region, or a merge's
    /// moving slot ranges.
    pub ranges: Vec<(u64, u64)>,
    /// Chunk size of the streaming READs.
    pub chunk: u32,
    /// `None` for stop-the-world plans.
    pub live: Option<Live>,
    /// Telemetry of this plan.
    pub on_stage: OnStage,
    /// What makes the destination authoritative.
    pub commit: Commit,
}

/// `(host, region base)` of every member behind `c`, head first.
pub(crate) fn members(c: &impl GroupClient) -> Vec<(HostId, u64)> {
    (0..c.group_size())
        .map(|m| (c.member_host(m), c.member_addr(m, 0)))
        .collect()
}

/// [`members`] of a freshly built offloaded group that has no client
/// yet (the client subscribes the ACK dispatchers, which is part of the
/// commit).
pub(crate) fn group_members(group: &GroupRef) -> Vec<(HostId, u64)> {
    let g = group.borrow();
    let mut out = vec![(g.cfg.client, g.member_addr(0, 0))];
    for (i, &h) in g.cfg.replicas.iter().enumerate() {
        out.push((h, g.member_addr(i + 1, 0)));
    }
    out
}

/// How long the drain phase polls for outstanding supervised ops before
/// proceeding anyway (under loss, in-flight ops may never reach zero
/// within any bound; re-issue on the new owner covers them, and their
/// target ranges are in the dirty log).
const DRAIN_POLLS: u32 = 20;
const DRAIN_POLL_PERIOD: SimDuration = SimDuration::from_micros(100);

/// Poll until no supervised ops are outstanding, or the poll budget is
/// spent — then run `then`.
fn drain_then(retry: RetryClient, polls_left: u32, eng: &mut Engine<World>, then: OnRecovered) {
    eng.schedule(DRAIN_POLL_PERIOD, move |w: &mut World, eng| {
        if retry.outstanding() == 0 || polls_left == 0 {
            then(w, eng);
        } else {
            drain_then(retry, polls_left - 1, eng, then);
        }
    });
}

/// The one delta rule: the bounding range of everything dirtied since
/// the log was armed (the bulk stream may have raced any of it), clipped
/// to the ranges the plan moves — a whole-region plan re-copies one
/// span, and a merge never writes victim bytes over survivor-owned
/// slots. At most `ranges.len()` copies, however many ops were logged.
fn delta(log: &RangeSet, ranges: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let (Some((lo, _)), Some((_, hi))) = (log.iter().next(), log.iter().last()) else {
        return Vec::new();
    };
    ranges
        .iter()
        .filter_map(|&(off, len)| {
            let (s, e) = (off.max(lo), (off + len).min(hi));
            (s < e).then(|| (s, e - s))
        })
        .collect()
}

/// The copy half of a plan, shared by the bulk and the delta stream.
struct Copier {
    host: HostId,
    addr: u64,
    rkey: u32,
    targets: Vec<(HostId, u64)>,
    ranges: Vec<(u64, u64)>,
    chunk: u32,
}

impl Copier {
    /// Copy `ranges` of the source region to the same offsets of every
    /// target and run `then` after the last copy lands — at once if
    /// nothing goes over the fabric. The only `catch_up` call site and
    /// the only completion join.
    fn stream(
        &self,
        ranges: &[(u64, u64)],
        w: &mut World,
        eng: &mut Engine<World>,
        then: OnRecovered,
    ) {
        let (local, remote): (Vec<_>, Vec<_>) = self.targets.iter().partition(|t| t.0 == self.host);
        let mem = &mut w.host(self.host).mem;
        for &(off, len) in ranges {
            for &(_, base) in &local {
                let bytes = mem
                    .read_vec(self.addr + off, len as usize)
                    .expect("plan range lies inside the source region");
                mem.write(base + off, &bytes)
                    .expect("target region mirrors the source region");
            }
        }
        let left = Rc::new(Cell::new(ranges.len() * remote.len()));
        if left.get() == 0 {
            return then(w, eng);
        }
        let then = Rc::new(RefCell::new(Some(then)));
        for &(off, len) in ranges {
            for &(dst, base) in &remote {
                let (left, then) = (left.clone(), then.clone());
                catch_up(
                    w,
                    eng,
                    self.host,
                    self.rkey,
                    self.addr + off,
                    dst,
                    base + off,
                    len,
                    self.chunk,
                    Box::new(move |w, eng| {
                        left.set(left.get() - 1);
                        if left.get() == 0 {
                            let then = then.borrow_mut().take().expect("join fires once");
                            then(w, eng);
                        }
                    }),
                );
            }
        }
    }
}

/// Run `plan` to completion (see the module docs for the stage walk).
pub(crate) fn run(plan: Plan, w: &mut World, eng: &mut Engine<World>) {
    let Plan {
        src: (host, addr),
        rep_bytes,
        targets,
        ranges,
        chunk,
        live,
        mut on_stage,
        commit,
    } = plan;
    // Planned: the log is armed *before* any byte is copied, so every
    // concurrent write is either caught by the bulk stream or replayed
    // by the delta.
    if let Some(live) = &live {
        live.log.begin_dirty_log();
    }
    on_stage(w, eng.now(), MigrationStage::Planned);
    let rkey = w
        .host(host)
        .nic
        .register_mr(addr, rep_bytes, Access::REMOTE_READ)
        .rkey;
    let copier = Rc::new(Copier {
        host,
        addr,
        rkey,
        targets,
        ranges,
        chunk,
    });

    let retire = move |mut on_stage: OnStage, w: &mut World, eng: &mut Engine<World>| {
        let done = commit(w, eng);
        on_stage(w, eng.now(), MigrationStage::Retired);
        done(w, eng);
    };

    on_stage(w, eng.now(), MigrationStage::Streaming);
    let bulk = copier.clone();
    bulk.stream(
        &bulk.ranges,
        w,
        eng,
        Box::new(move |w, eng| {
            let Some(live) = live else {
                on_stage(w, eng.now(), MigrationStage::CutOver);
                return retire(on_stage, w, eng);
            };
            let Live {
                log,
                after_bulk,
                delta_counter: (name, labels),
            } = live;
            on_stage(w, eng.now(), MigrationStage::Draining);
            after_bulk();
            drain_then(
                log.clone(),
                DRAIN_POLLS,
                eng,
                Box::new(move |w, eng| {
                    on_stage(w, eng.now(), MigrationStage::CutOver);
                    let delta = delta(&log.take_dirty_log(), &copier.ranges);
                    if w.telemetry.enabled() && !delta.is_empty() {
                        let bytes = delta.iter().map(|&(_, len)| len).sum();
                        w.telemetry.metrics.counter_add(name, labels, bytes);
                    }
                    copier.stream(
                        &delta,
                        w,
                        eng,
                        Box::new(move |w, eng| retire(on_stage, w, eng)),
                    );
                }),
            );
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(writes: &[(u64, u64)]) -> RangeSet {
        let mut log = RangeSet::new();
        for &(off, len) in writes {
            log.insert(off, off + len);
        }
        log
    }

    #[test]
    fn whole_region_delta_is_the_bounding_range() {
        let log = log_of(&[(4096, 64), (128, 8), (9000, 100)]);
        assert_eq!(delta(&log, &[(0, 16 << 10)]), vec![(128, 9100 - 128)]);
        assert!(delta(&RangeSet::new(), &[(0, 16 << 10)]).is_empty());
    }

    #[test]
    fn merge_delta_is_clipped_and_bounded_by_the_move_ranges() {
        let moves = [(0, 64), (256, 64), (1024, 64)];
        // 500 writes to one slot plus one to another: two copies, never
        // outside a move range, never more than the ranges hold.
        let mut writes = vec![(256 + 8, 16); 500];
        writes.push((1024, 64));
        let d = delta(&log_of(&writes), &moves);
        assert_eq!(d, vec![(264, 56), (1024, 64)]);
        // Dirt only between move ranges copies nothing.
        assert!(delta(&log_of(&[(100, 50)]), &moves).is_empty());
    }
}
