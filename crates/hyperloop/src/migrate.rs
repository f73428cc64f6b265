//! Live shard split/merge under traffic.
//!
//! Online elasticity for a sharded deployment: stand up (or retire) a
//! replication chain and re-home a key range **while writes keep
//! flowing**. Both directions are plans over the shared
//! [`crate::reconfig`] engine — the same [`RetryClient`] dirty-range
//! log, chunked one-sided `catch_up` streams and bounded drain as
//! `live_cutover` — with the router's dual window as the after-bulk
//! action and the ring flip as the commit. Each of the five
//! [`hl_cluster::migrate::MigrationStage`] boundaries is stamped as a
//! telemetry transition (`transition:migration:<from>-><to>`) so
//! timelines and SLO rules can see exactly where a latency excursion
//! sits.
//!
//! Correctness rests on the same source-of-truth argument as
//! `live_cutover`: both backends apply every mutation to the *donor
//! head's local region at issue time*, so once the router parks new
//! moving-key operations, the donor region plus the dirty log already
//! contain every issued write — the delta copy needs no donor pause,
//! and the donor chain keeps serving its remaining keys throughout a
//! split.
//!
//! * [`split_live`] — stand up a fresh chain (placed by
//!   `ShardPlan::place`) as shard N, stream the donor's region to every
//!   new member, then flip with `HashRing::split_shard` so only
//!   `parent → N` keys move.
//! * [`merge_live`] — stream the retiring (last) shard's moving slot
//!   ranges into a survivor's chain, flip with `HashRing::merge_shard`,
//!   and tear the victim chain down.

use crate::deadline::{DeadlinePolicy, RetryClient};
use crate::group::{GroupBuilder, GroupConfig};
use crate::reconfig::{self, Live, OnStage, Plan};
use crate::router::ShardRouter;
use crate::HyperLoopClient;
use hl_cluster::shard::ShardGroup;
use hl_cluster::World;
use hl_fabric::HostId;
use hl_sim::Engine;

/// Knobs for one live migration.
#[derive(Debug, Clone)]
pub struct MigrationSpec {
    /// Deadline policy for the destination shard's supervised client
    /// (splits only; merges reuse the survivor's client).
    pub policy: DeadlinePolicy,
    /// Ring slots for the destination group (splits only).
    pub ring_slots: u32,
    /// Chunk size for the streaming catch-up READs.
    pub chunk: u32,
}

impl Default for MigrationSpec {
    fn default() -> Self {
        MigrationSpec {
            policy: DeadlinePolicy::default(),
            ring_slots: 64,
            chunk: 64 * 1024,
        }
    }
}

/// Completion callback: the migration reached `Retired` and the router
/// serves the new topology.
pub type OnMigrated = Box<dyn FnOnce(&mut World, &mut Engine<World>)>;

const DELTA_COUNTER: (&str, &str) = ("migrate_delta_bytes", "layer=migrate");

/// The migration flavour of plan telemetry: every stage entry stamps
/// the `from → to` boundary as a `migration` transition, and the first
/// one is followed by the plan's own `migrate:*` mark.
fn stage_marks(start: String, host: HostId) -> OnStage {
    let mut from = "idle";
    let mut start = Some(start);
    Box::new(move |w, now, to| {
        w.telemetry
            .transition(now, "migration", from, to.name(), host.0);
        from = to.name();
        if let Some(start) = start.take() {
            w.telemetry.mark(now, start, host.0);
        }
    })
}

/// Split shard `parent` online: build a fresh chain over `dest`
/// (disjoint hosts placed by `ShardPlan::place`), stream the donor
/// head's whole region to every new member while the donor keeps
/// serving, park new moving-key traffic for a bounded drain, copy the
/// dirty delta, then flip the router to `ring.split_shard(parent)` —
/// parked ops replay onto the new shard. Only keys moving
/// `parent → new` ever change owner, so every other shard's timing is
/// untouched.
pub fn split_live(
    router: &ShardRouter,
    parent: usize,
    dest: ShardGroup,
    spec: MigrationSpec,
    w: &mut World,
    eng: &mut Engine<World>,
    done: OnMigrated,
) {
    assert!(parent < router.n_shards(), "split of unknown shard");
    let donor = router.client(parent);
    let backend = donor.backend();
    let src = reconfig::members(&backend)[0];
    let donor_cfg = backend.chain_config();
    let rep_bytes = donor_cfg.rep_bytes;

    let new_ring = router.ring().split_shard(parent);
    let new_group = GroupBuilder::new(GroupConfig {
        client: dest.client,
        replicas: dest.replicas,
        rep_bytes,
        ring_slots: spec.ring_slots,
        transport_timeout: donor_cfg.transport_timeout,
        ..Default::default()
    })
    .build(w);

    let (window, window_ring) = (router.clone(), new_ring.clone());
    let router = router.clone();
    reconfig::run(
        Plan {
            src,
            rep_bytes,
            // Unlike `live_cutover`, the destination head is a
            // *different* host, so its region streams like any
            // replica's.
            targets: reconfig::group_members(&new_group),
            // Ranges of non-moving keys ride along — on the destination
            // they are dead bytes the ring never routes to.
            ranges: vec![(0, rep_bytes)],
            chunk: spec.chunk,
            live: Some(Live {
                log: donor,
                // The donor is NOT paused: it still owns every
                // non-moving key. New moving-key ops park instead.
                after_bulk: Box::new(move || window.open_window(window_ring)),
                delta_counter: DELTA_COUNTER,
            }),
            on_stage: stage_marks(format!("migrate:split:shard{parent}"), src.0),
            commit: Box::new(move |w, eng| {
                crate::replica::start_replenishers(&new_group, w, eng);
                let client = HyperLoopClient::new(new_group, w);
                let mut shards: Vec<RetryClient> =
                    (0..router.n_shards()).map(|s| router.client(s)).collect();
                shards.push(RetryClient::with_policy(client, spec.policy));
                router.install(w, eng, new_ring, shards);
                done
            }),
        },
        w,
        eng,
    );
}

/// Merge the **last** shard into survivor `into`, online: stream the
/// victim head's `move_ranges` (the slot ranges holding its keys —
/// range extraction is the store layer's job) into every member of the
/// survivor's chain, park new victim-key traffic, copy the dirty delta
/// (clipped to the move ranges: a survivor's region holds *its own*
/// keys at non-moving offsets, and victim bytes there would clobber
/// them), flip the router to `ring.merge_shard(victim, into)` and tear
/// the victim chain down.
pub fn merge_live(
    router: &ShardRouter,
    into: usize,
    move_ranges: Vec<(u64, u64)>,
    spec: MigrationSpec,
    w: &mut World,
    eng: &mut Engine<World>,
    done: OnMigrated,
) {
    let victim = router.n_shards() - 1;
    assert!(into < victim, "merge target must be a surviving shard");
    assert!(
        !move_ranges.is_empty(),
        "merge needs the moving slot ranges"
    );
    let victim_retry = router.client(victim);
    let victim_backend = victim_retry.backend();
    let src = reconfig::members(&victim_backend)[0];
    let rep_bytes = victim_backend.chain_config().rep_bytes;
    for &(off, len) in &move_ranges {
        assert!(off + len <= rep_bytes, "move range outside victim region");
    }

    let new_ring = router.ring().merge_shard(victim, into);
    let (window, window_ring) = (router.clone(), new_ring.clone());
    let router = router.clone();
    reconfig::run(
        Plan {
            src,
            rep_bytes,
            // Victim slots land at the same offsets in the survivor's
            // region, on every member of its chain.
            targets: reconfig::members(&router.client(into).backend()),
            ranges: move_ranges,
            chunk: spec.chunk,
            live: Some(Live {
                log: victim_retry,
                after_bulk: Box::new(move || window.open_window(window_ring)),
                delta_counter: DELTA_COUNTER,
            }),
            on_stage: stage_marks(format!("migrate:merge:shard{victim}"), src.0),
            commit: Box::new(move |w, eng| {
                let shards: Vec<RetryClient> = (0..victim).map(|s| router.client(s)).collect();
                router.install(w, eng, new_ring, shards);
                // Teardown: the victim chain stops accepting work and
                // its replenishers stop; anything still in flight drains
                // through retries.
                victim_backend.retire(w);
                done
            }),
        },
        w,
        eng,
    );
}
