//! Shard-partitioned store frontends.
//!
//! A sharded deployment opens one [`KvDb`] / [`DocStore`] per shard —
//! each backed by its own HyperLoop group with its own log, slots and
//! lock word — and these thin frontends route every operation to the
//! owning shard with the same deterministic [`HashRing`] the client
//! router uses. Cross-shard reads/scans are merges of per-shard state;
//! there are no cross-shard transactions (each key lives entirely
//! within one group, as in the paper's per-group scoping).

use crate::doc::{DocStore, Document};
use crate::kv::KvDb;
use hl_cluster::shard::HashRing;
use hl_cluster::World;
use hl_sim::Engine;
use hyperloop::api::GroupClient;
use hyperloop::{Backpressure, OnDone};

/// A key-value store partitioned over per-shard [`KvDb`] instances.
pub struct ShardedKv<C: GroupClient> {
    ring: HashRing,
    shards: Vec<KvDb<C>>,
}

impl<C: GroupClient + 'static> ShardedKv<C> {
    /// Build from one opened [`KvDb`] per shard (shard id = index).
    pub fn new(shards: Vec<KvDb<C>>) -> Self {
        assert!(!shards.is_empty());
        ShardedKv {
            ring: HashRing::new(shards.len()),
            shards,
        }
    }

    /// Build with an explicit ring (shared with the op router).
    pub fn with_ring(ring: HashRing, shards: Vec<KvDb<C>>) -> Self {
        assert_eq!(ring.n_shards(), shards.len());
        ShardedKv { ring, shards }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard owning `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.ring.shard_of(key)
    }

    /// The per-shard store (e.g. for log cursors or replica reads).
    pub fn shard(&self, sid: usize) -> &KvDb<C> {
        &self.shards[sid]
    }

    /// Durable put, routed to the owning shard's replicated log.
    pub fn put(
        &mut self,
        w: &mut World,
        eng: &mut Engine<World>,
        key: &[u8],
        value: &[u8],
        done: OnDone,
    ) -> Result<(), Backpressure> {
        let sid = self.ring.shard_of(key);
        self.shards[sid].put(w, eng, key, value, done)
    }

    /// Durable delete, routed to the owning shard.
    pub fn delete(
        &mut self,
        w: &mut World,
        eng: &mut Engine<World>,
        key: &[u8],
        done: OnDone,
    ) -> Result<(), Backpressure> {
        let sid = self.ring.shard_of(key);
        self.shards[sid].delete(w, eng, key, done)
    }

    /// Read from the owning shard's client memtable.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.shards[self.ring.shard_of(key)].get(key)
    }

    /// Eventually-consistent read from replica `replica` of the owning
    /// shard's group.
    pub fn get_at_replica(&self, replica: usize, key: &[u8]) -> Option<Vec<u8>> {
        self.shards[self.ring.shard_of(key)].get_at_replica(replica, key)
    }

    /// Total keys across all shard memtables.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Ordered scan merged across shards: collects each shard's scan
    /// from `from` and returns the `limit` smallest keys overall.
    pub fn scan(&self, from: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for s in &self.shards {
            all.extend(
                s.scan(from, limit)
                    .into_iter()
                    .map(|(k, v)| (k.to_vec(), v.to_vec())),
            );
        }
        all.sort();
        all.truncate(limit);
        all
    }

    /// Entries of shard `sid` whose owner changes under `next_ring` —
    /// the moving set a split or merge must re-home.
    pub fn moving_entries(&self, sid: usize, next_ring: &HashRing) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.shards[sid]
            .scan(b"", usize::MAX)
            .into_iter()
            .filter(|(k, _)| next_ring.shard_of(k) != sid)
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }

    /// Split shard `parent`: extract its moving entries (the split ring
    /// moves keys only `parent → new`, so no other shard is touched),
    /// write each durably through `new_db`'s replicated log, delete it
    /// from the parent's log, then install the split ring. Returns the
    /// number of re-homed keys.
    ///
    /// A `Backpressure` error leaves the re-home incomplete (the ring is
    /// only installed after every entry lands); size the logs for the
    /// moving set or retry from a snapshot.
    pub fn split_install(
        &mut self,
        parent: usize,
        new_db: KvDb<C>,
        w: &mut World,
        eng: &mut Engine<World>,
    ) -> Result<usize, Backpressure> {
        let next = self.ring.split_shard(parent);
        let moving = self.moving_entries(parent, &next);
        self.shards.push(new_db);
        let new_sid = self.shards.len() - 1;
        for (k, v) in &moving {
            debug_assert_eq!(next.shard_of(k), new_sid, "split moved a key off-target");
            self.shards[new_sid].put(w, eng, k, v, Box::new(|_, _, _| {}))?;
            self.shards[parent].delete(w, eng, k, Box::new(|_, _, _| {}))?;
        }
        self.ring = next;
        Ok(moving.len())
    }

    /// Merge the **last** shard into survivor `into`: re-home every one
    /// of the victim's entries through the survivor's replicated log
    /// (the merge ring relabels all victim points to `into`, so the
    /// survivor is the single destination), install the merged ring and
    /// return the retired [`KvDb`] so its group can be torn down.
    pub fn merge_install(
        &mut self,
        into: usize,
        w: &mut World,
        eng: &mut Engine<World>,
    ) -> Result<(usize, KvDb<C>), Backpressure> {
        let victim = self.shards.len() - 1;
        let next = self.ring.merge_shard(victim, into);
        let moving = self.moving_entries(victim, &next);
        for (k, v) in &moving {
            debug_assert_eq!(next.shard_of(k), into, "merge moved a key off-target");
            self.shards[into].put(w, eng, k, v, Box::new(|_, _, _| {}))?;
        }
        let retired = self.shards.pop().expect("victim shard present");
        self.ring = next;
        Ok((moving.len(), retired))
    }
}

/// A document store partitioned over per-shard [`DocStore`] instances;
/// documents route by id.
pub struct ShardedDoc<C: GroupClient> {
    ring: HashRing,
    shards: Vec<DocStore<C>>,
}

impl<C: GroupClient + 'static> ShardedDoc<C> {
    /// Build from one opened [`DocStore`] per shard (shard id = index).
    pub fn new(shards: Vec<DocStore<C>>) -> Self {
        assert!(!shards.is_empty());
        ShardedDoc {
            ring: HashRing::new(shards.len()),
            shards,
        }
    }

    /// Build with an explicit ring (shared with the op router).
    pub fn with_ring(ring: HashRing, shards: Vec<DocStore<C>>) -> Self {
        assert_eq!(ring.n_shards(), shards.len());
        ShardedDoc { ring, shards }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard owning document `id`.
    pub fn shard_of(&self, id: u64) -> usize {
        self.ring.shard_of_u64(id)
    }

    /// The per-shard store.
    pub fn shard(&self, sid: usize) -> &DocStore<C> {
        &self.shards[sid]
    }

    /// Journaled upsert routed to the owning shard (strong consistency
    /// under that shard's group lock when enabled).
    pub fn upsert(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        doc: &Document,
        done: OnDone,
    ) -> Result<(), Backpressure> {
        let sid = self.shard_of(doc.id);
        self.shards[sid].upsert(w, eng, doc, done)
    }

    /// Read `id` from the owning shard's client copy.
    pub fn read(&self, w: &mut World, id: u64) -> Option<Document> {
        self.shards[self.shard_of(id)].read(w, id)
    }

    /// Read `id` from member `member` of the owning shard's group.
    pub fn read_at(&self, w: &mut World, member: usize, id: u64) -> Option<Document> {
        self.shards[self.shard_of(id)].read_at(w, member, id)
    }

    /// Committed operations summed across shards.
    pub fn committed(&self) -> u64 {
        self.shards.iter().map(|s| s.committed()).sum()
    }

    /// Of the candidate `ids` (document ids are journaled, not
    /// enumerable — the catalog supplies the universe), those owned by
    /// shard `sid` today whose owner changes under `next_ring`.
    pub fn moving_ids(&self, sid: usize, next_ring: &HashRing, ids: &[u64]) -> Vec<u64> {
        ids.iter()
            .copied()
            .filter(|&id| self.shard_of(id) == sid && next_ring.shard_of_u64(id) != sid)
            .collect()
    }

    /// Split shard `parent`: copy each moving document (read from the
    /// parent's client region, journaled upsert into `new_store`), then
    /// install the split ring. The parent's stale copies become
    /// unreachable through routing. Returns the re-homed ids.
    pub fn split_install(
        &mut self,
        parent: usize,
        new_store: DocStore<C>,
        ids: &[u64],
        w: &mut World,
        eng: &mut Engine<World>,
    ) -> Result<Vec<u64>, Backpressure> {
        let next = self.ring.split_shard(parent);
        let moving = self.moving_ids(parent, &next, ids);
        self.shards.push(new_store);
        let new_sid = self.shards.len() - 1;
        for &id in &moving {
            debug_assert_eq!(
                next.shard_of_u64(id),
                new_sid,
                "split moved a doc off-target"
            );
            if let Some(doc) = self.shards[parent].read(w, id) {
                self.shards[new_sid].upsert(w, eng, &doc, Box::new(|_, _, _| {}))?;
            }
        }
        self.ring = next;
        Ok(moving)
    }

    /// Merge the **last** shard into survivor `into`: copy each of the
    /// victim's documents into the survivor (journaled upsert), install
    /// the merged ring and return the retired [`DocStore`] for group
    /// teardown.
    pub fn merge_install(
        &mut self,
        into: usize,
        ids: &[u64],
        w: &mut World,
        eng: &mut Engine<World>,
    ) -> Result<(Vec<u64>, DocStore<C>), Backpressure> {
        let victim = self.shards.len() - 1;
        let next = self.ring.merge_shard(victim, into);
        let moving = self.moving_ids(victim, &next, ids);
        for &id in &moving {
            debug_assert_eq!(next.shard_of_u64(id), into, "merge moved a doc off-target");
            if let Some(doc) = self.shards[victim].read(w, id) {
                self.shards[into].upsert(w, eng, &doc, Box::new(|_, _, _| {}))?;
            }
        }
        let retired = self.shards.pop().expect("victim shard present");
        self.ring = next;
        Ok((moving, retired))
    }
}
