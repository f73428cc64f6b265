//! Client-side shard router: keys → shards → per-shard supervised
//! clients.
//!
//! A sharded deployment runs N independent HyperLoop groups (one chain
//! each, placed by [`hl_cluster::shard::ShardPlan`]); the router is the
//! single frontend object that maps a key to its owning shard via the
//! deterministic [`HashRing`] and drives that shard's [`RetryClient`].
//! All shards live in the *same* event engine, so concurrency across
//! shards is just interleaved events — fully deterministic under a
//! fixed seed.
//!
//! Every routed issue bumps a telemetry counter labelled with the shard
//! id (`shard=<n>`), so campaign metrics can be split per shard without
//! any extra plumbing.
//!
//! ## Epochs and the migration window
//!
//! The routing table is versioned: each atomic [`ShardRouter::install`]
//! of a new `(ring, shards)` pair bumps the epoch. During a live
//! split/merge the migration driver opens a *dual window*
//! ([`ShardRouter::open_window`]): operations whose key is about to
//! change owner park in arrival order instead of being issued on the
//! old chain, while every other key keeps flowing untouched — the
//! bystander-shard timing invariant depends on the non-moving path
//! being byte-for-byte the same code. At cut-over, `install` flips the
//! table and replays the parked queue in arrival order through normal
//! keyed routing, which lands each op on its post-cutover owner.

use crate::deadline::{GroupOp, OnOutcome, OpError, RetryClient};
use hl_cluster::shard::HashRing;
use hl_cluster::World;
use hl_sim::{Bytes, Engine};
use std::cell::RefCell;
use std::rc::Rc;

/// One parked operation: the key it was routed by, the op itself and
/// its completion callback, held until the ring flips.
struct Parked {
    key: Vec<u8>,
    op: GroupOp,
    done: OnOutcome,
}

/// A pending ring change: ops whose owner differs between the serving
/// ring and `next_ring` park until [`ShardRouter::install`].
struct Window {
    next_ring: HashRing,
    parked: Vec<Parked>,
}

struct RouterInner {
    ring: HashRing,
    shards: Vec<RetryClient>,
    epoch: u64,
    window: Option<Window>,
}

/// Routes operations to per-shard [`RetryClient`]s by consistent-hash
/// key placement.
///
/// Cloning shares the routing table (and each shard client is itself a
/// shared handle), so the migration driver and the workload can hold
/// the same router.
#[derive(Clone)]
pub struct ShardRouter {
    inner: Rc<RefCell<RouterInner>>,
}

impl ShardRouter {
    /// Build a router over one supervised client per shard; shard ids
    /// are the vector indices.
    pub fn new(shards: Vec<RetryClient>) -> Self {
        assert!(!shards.is_empty(), "router needs at least one shard");
        let ring = HashRing::new(shards.len());
        Self::with_ring(ring, shards)
    }

    /// Build a router with an explicit ring (e.g. shared with a store
    /// layer so both route identically).
    pub fn with_ring(ring: HashRing, shards: Vec<RetryClient>) -> Self {
        assert_eq!(ring.n_shards(), shards.len());
        ShardRouter {
            inner: Rc::new(RefCell::new(RouterInner {
                ring,
                shards,
                epoch: 0,
                window: None,
            })),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.inner.borrow().shards.len()
    }

    /// The routing ring (share it with stores / load generators so the
    /// whole stack agrees on placement).
    pub fn ring(&self) -> HashRing {
        self.inner.borrow().ring.clone()
    }

    /// Routing-table version: bumped by every [`ShardRouter::install`].
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch
    }

    /// Operations parked in the open migration window.
    pub fn parked(&self) -> usize {
        self.inner
            .borrow()
            .window
            .as_ref()
            .map_or(0, |w| w.parked.len())
    }

    /// Shard owning `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.inner.borrow().ring.shard_of(key)
    }

    /// Shard owning a `u64` key.
    pub fn shard_of_u64(&self, key: u64) -> usize {
        self.inner.borrow().ring.shard_of_u64(key)
    }

    /// The supervised client for shard `sid` (a shared handle).
    pub fn client(&self, sid: usize) -> RetryClient {
        self.inner.borrow().shards[sid].clone()
    }

    /// Open the dual-routing window for a pending change to
    /// `next_ring`: from now until [`ShardRouter::install`], keyed
    /// operations whose owner differs between the serving ring and
    /// `next_ring` are parked in arrival order; everything else routes
    /// exactly as before.
    pub fn open_window(&self, next_ring: HashRing) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.window.is_none(), "migration window already open");
        inner.window = Some(Window {
            next_ring,
            parked: Vec::new(),
        });
    }

    /// Atomically flip the routing table to `(ring, shards)`: bumps the
    /// epoch, closes the window and replays parked operations in
    /// arrival order through keyed routing — each lands on its
    /// post-cutover owner under full deadline supervision.
    pub fn install(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        ring: HashRing,
        shards: Vec<RetryClient>,
    ) {
        assert_eq!(ring.n_shards(), shards.len());
        let (parked, epoch) = {
            let mut inner = self.inner.borrow_mut();
            let parked = match inner.window.take() {
                Some(win) => {
                    assert_eq!(
                        win.next_ring, ring,
                        "install must match the ring the window was opened for"
                    );
                    win.parked
                }
                None => Vec::new(),
            };
            inner.ring = ring;
            inner.shards = shards;
            inner.epoch += 1;
            (parked, inner.epoch)
        };
        if w.telemetry.enabled() {
            let now = eng.now();
            w.telemetry
                .mark(now, format!("router:flip:epoch{epoch}"), 0);
            w.telemetry
                .metrics
                .counter_add("router_flips", "layer=router", 1);
            w.telemetry.metrics.counter_add(
                "router_replayed_ops",
                "layer=router",
                parked.len() as u64,
            );
        }
        for p in parked {
            self.issue_keyed(w, eng, &p.key, p.op, p.done);
        }
    }

    /// Issue `op` on an explicit shard under deadline supervision.
    ///
    /// When the windowed time-series layer is on, the routed op also
    /// feeds a per-shard `router_ops{shard=N}` window counter and, at
    /// completion, a per-shard `op_latency_ns{shard=N}` latency sketch —
    /// the series the `timeline` report renders per shard.
    pub fn issue_on(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        sid: usize,
        op: GroupOp,
        mut done: OnOutcome,
    ) {
        if w.telemetry.enabled() {
            w.telemetry
                .metrics
                .counter_add("router_ops", &format!("shard={sid}"), 1);
        }
        if w.telemetry.series.enabled() {
            let now = eng.now();
            let labels = format!("shard={sid}");
            w.telemetry
                .series
                .counter_add(now, "router_ops", &labels, 1);
            let issued_at = now;
            done = Box::new(move |w, eng, outcome| {
                if outcome.is_ok() && w.telemetry.series.enabled() {
                    let now = eng.now();
                    let e2e = now.duration_since(issued_at).as_nanos();
                    w.telemetry
                        .series
                        .record(now, "op_latency_ns", &labels, e2e);
                }
                done(w, eng, outcome);
            });
        }
        // Clone the handle out before issuing: the client's completion
        // path may re-enter the router (closed-loop drivers issue the
        // next op from the previous op's callback).
        let client = self.client(sid);
        client.issue(w, eng, op, done);
    }

    /// Route `op` by `key` and issue it on the owning shard. If a
    /// migration window is open and `key` is changing owner, the op
    /// parks until the flip and then replays onto the new owner.
    pub fn issue_keyed(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        key: &[u8],
        op: GroupOp,
        done: OnOutcome,
    ) {
        let sid = {
            let mut inner = self.inner.borrow_mut();
            let sid = inner.ring.shard_of(key);
            if let Some(win) = inner.window.as_mut() {
                if win.next_ring.shard_of(key) != sid {
                    win.parked.push(Parked {
                        key: key.to_vec(),
                        op,
                        done,
                    });
                    return;
                }
            }
            sid
        };
        self.issue_on(w, eng, sid, op, done);
    }

    /// Key-routed supervised gWRITE at `offset` within the owning
    /// shard's replicated region.
    #[allow(clippy::too_many_arguments)]
    pub fn gwrite_keyed(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        key: &[u8],
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnOutcome,
    ) {
        self.issue_keyed(
            w,
            eng,
            key,
            GroupOp::Write {
                offset,
                data: Bytes::copy_from_slice(data),
                flush,
            },
            done,
        );
    }

    /// Supervised operations not yet settled, summed over all shards.
    /// Parked operations are not counted — they have not been issued.
    pub fn outstanding(&self) -> u32 {
        self.inner
            .borrow()
            .shards
            .iter()
            .map(|s| s.outstanding())
            .sum()
    }

    /// Typed failures recorded so far across all shards.
    pub fn failures(&self) -> Vec<OpError> {
        self.inner
            .borrow()
            .shards
            .iter()
            .flat_map(|s| s.failures())
            .collect()
    }
}
