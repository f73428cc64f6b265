//! kvlite: a RocksDB-like replicated key-value store (paper §5.1).
//!
//! All critical-path work of a write is one durable `Append` to the
//! replicated write-ahead log; the in-memory table is updated on the
//! client, and each replica's [`super::syncer::KvSyncer`] periodically
//! (off the critical path) replays the log from its *own NVM copy* into
//! its memtable — giving eventually-consistent reads at replicas exactly
//! as the paper's modified RocksDB does. Truncation advances the log
//! head only past what every syncer has applied.

use super::memtable::Memtable;
use super::syncer::{KvShared, KvSyncer};
use hl_cluster::World;
use hl_sim::{Engine, SimDuration};
use hyperloop::api::{GroupClient, LogLayout, LogRecord, RedoEntry, ReplicatedLog};
use hyperloop::{Backpressure, OnDone};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Backoff before re-issuing a checkpoint header the client refused.
const REFUSED_BACKOFF: SimDuration = SimDuration::from_micros(50);

/// Tag carried in `RedoEntry::db_offset` for kvlite WAL records (kvlite
/// applies in memory; the offset field is repurposed as an op tag).
pub const OP_PUT: u64 = 1;
/// Delete-op tag.
pub const OP_DELETE: u64 = 2;

/// Encode a put/delete as WAL record bytes.
pub fn encode_kv_op(put: bool, key: &[u8], value: &[u8]) -> LogRecord {
    let mut data = Vec::with_capacity(8 + key.len() + value.len());
    data.extend_from_slice(&(key.len() as u32).to_le_bytes());
    data.extend_from_slice(&(value.len() as u32).to_le_bytes());
    data.extend_from_slice(key);
    data.extend_from_slice(value);
    LogRecord {
        entries: vec![RedoEntry {
            db_offset: if put { OP_PUT } else { OP_DELETE },
            data,
        }],
    }
}

/// Decode a kvlite WAL record back into `(is_put, key, value)`.
pub fn decode_kv_op(rec: &LogRecord) -> Option<(bool, Vec<u8>, Vec<u8>)> {
    let e = rec.entries.first()?;
    let klen = u32::from_le_bytes(e.data.get(..4)?.try_into().ok()?) as usize;
    let vlen = u32::from_le_bytes(e.data.get(4..8)?.try_into().ok()?) as usize;
    let key = e.data.get(8..8 + klen)?.to_vec();
    let value = e.data.get(8 + klen..8 + klen + vlen)?.to_vec();
    Some((e.db_offset == OP_PUT, key, value))
}

/// Configuration for opening a [`KvDb`].
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Log layout within the replicated region. `db_off` is where
    /// checkpoints (memtable snapshots) are written.
    pub layout: LogLayout,
    /// Replica syncer wake period (off-critical-path apply cadence).
    pub sync_period: SimDuration,
    /// Truncate when the log is this full (fraction).
    pub truncate_at: f64,
    /// Capacity of the checkpoint area at `db_off`.
    pub checkpoint_cap: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            layout: LogLayout {
                log_off: 0,
                log_cap: 256 << 10,
                db_off: 512 << 10,
            },
            sync_period: SimDuration::from_millis(2),
            truncate_at: 0.5,
            checkpoint_cap: 1 << 20,
        }
    }
}

/// Serialize a memtable snapshot: `[u32 count][klen,vlen,key,value]*`.
fn encode_snapshot(m: &Memtable) -> Vec<u8> {
    let mut out = Vec::with_capacity(m.approx_bytes() as usize + 8 * m.len() + 4);
    out.extend_from_slice(&(m.len() as u32).to_le_bytes());
    for (k, v) in m.iter() {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(v);
    }
    out
}

/// Decode a snapshot back into a memtable (recovery path).
pub fn decode_snapshot(b: &[u8]) -> Option<Memtable> {
    let mut m = Memtable::new();
    let n = u32::from_le_bytes(b.get(..4)?.try_into().ok()?) as usize;
    let mut at = 4usize;
    for _ in 0..n {
        let klen = u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?) as usize;
        let vlen = u32::from_le_bytes(b.get(at + 4..at + 8)?.try_into().ok()?) as usize;
        at += 8;
        let key = b.get(at..at + klen)?.to_vec();
        at += klen;
        let value = b.get(at..at + vlen)?.to_vec();
        at += vlen;
        m.put(&key, &value);
    }
    Some(m)
}

/// The replicated KV store handle (client side).
pub struct KvDb<C: GroupClient> {
    client: Rc<C>,
    log: ReplicatedLog<C>,
    memtable: Memtable,
    shared: Rc<RefCell<KvShared>>,
    cfg: KvConfig,
    /// Writes issued / completed (for reporting).
    pub puts: u64,
}

impl<C: GroupClient + 'static> KvDb<C> {
    /// Open the store: binds the log layout and starts one syncer
    /// process per replica.
    pub fn open(client: Rc<C>, cfg: KvConfig, w: &mut World, eng: &mut Engine<World>) -> Self {
        let mut log = ReplicatedLog::new(client.clone(), cfg.layout.clone());
        log.set_tracking(false); // replicas apply via syncers
        let n = client.group_size() - 1;
        let shared = Rc::new(RefCell::new(KvShared::new(n)));
        for i in 0..n {
            let host = client.member_host(i + 1);
            let base = client.member_addr(i + 1, 0);
            w.start_process(
                host,
                &format!("kv-syncer-{i}"),
                None,
                Box::new(KvSyncer::new(
                    shared.clone(),
                    i,
                    base,
                    cfg.layout.clone(),
                    cfg.sync_period,
                )),
                SimDuration::from_micros(2),
                eng,
            );
        }
        KvDb {
            client,
            log,
            memtable: Memtable::new(),
            shared,
            cfg,
            puts: 0,
        }
    }

    /// Durable replicated write. `done` fires when the record is durable
    /// on every member (the paper's accelerated RocksDB `Put`).
    pub fn put(
        &mut self,
        w: &mut World,
        eng: &mut Engine<World>,
        key: &[u8],
        value: &[u8],
        done: OnDone,
    ) -> Result<(), Backpressure> {
        self.maybe_truncate(w, eng);
        let rec = encode_kv_op(true, key, value);
        self.log.append(w, eng, &rec, done)?;
        self.memtable.put(key, value);
        self.puts += 1;
        Ok(())
    }

    /// Durable replicated delete.
    pub fn delete(
        &mut self,
        w: &mut World,
        eng: &mut Engine<World>,
        key: &[u8],
        done: OnDone,
    ) -> Result<(), Backpressure> {
        self.maybe_truncate(w, eng);
        let rec = encode_kv_op(false, key, b"");
        self.log.append(w, eng, &rec, done)?;
        self.memtable.delete(key);
        Ok(())
    }

    /// Read from the client's memtable (strongly consistent: the client
    /// is the chain head).
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.memtable.get(key)
    }

    /// Ordered scan from the client's memtable.
    pub fn scan(&self, from: &[u8], limit: usize) -> Vec<(&[u8], &[u8])> {
        self.memtable.scan(from, limit)
    }

    /// Eventually-consistent read served from a replica's synced
    /// memtable (paper: "reads from other replicas ... are eventually
    /// consistent").
    pub fn get_at_replica(&self, replica: usize, key: &[u8]) -> Option<Vec<u8>> {
        self.shared.borrow().tables[replica]
            .get(key)
            .map(|v| v.to_vec())
    }

    /// How far each replica syncer has applied (absolute log cursor).
    pub fn replica_applied(&self) -> Vec<u64> {
        self.shared.borrow().applied.clone()
    }

    /// Number of keys in the client memtable.
    pub fn len(&self) -> usize {
        self.memtable.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.memtable.is_empty()
    }

    /// Log cursors (head, tail).
    pub fn log_cursors(&self) -> (u64, u64) {
        self.log.cursors()
    }

    /// Checkpoint (paper §5.1: "periodically dumps the in-memory data to
    /// persistent storage and truncates the write-ahead log"): replicate
    /// a snapshot of the memtable into the checkpoint area at `db_off`
    /// (chunked gWRITE + gFLUSH), then truncate the whole log. `done`
    /// fires when the snapshot is durable group-wide and the log is
    /// empty. A header gWRITE the client refuses is re-issued after a
    /// backoff. Runs off the write critical path.
    pub fn checkpoint(
        &mut self,
        w: &mut World,
        eng: &mut Engine<World>,
        done: OnDone,
    ) -> Result<(), Backpressure> {
        let snap = encode_snapshot(&self.memtable);
        assert!(
            4 + snap.len() as u64 <= self.cfg.checkpoint_cap,
            "snapshot exceeds checkpoint area"
        );
        let base = self.cfg.layout.db_off;
        // Header (length) goes last so a torn checkpoint is detectable.
        let chunk = 8 << 10;
        let total_chunks = snap.len().div_ceil(chunk).max(1);
        let remaining = Rc::new(RefCell::new(total_chunks));
        let done_cell = Rc::new(Cell::new(Some(done)));
        let client = self.client.clone();
        let snap_len = snap.len() as u32;
        let (_, tail) = self.log.cursors();
        for (i, piece) in snap.chunks(chunk).enumerate() {
            let off = base + 4 + (i * chunk) as u64;
            let remaining = remaining.clone();
            let done_cell = done_cell.clone();
            let client2 = client.clone();
            let cb: OnDone = Box::new(move |w, eng, _r| {
                let mut left = remaining.borrow_mut();
                *left -= 1;
                if *left == 0 {
                    drop(left);
                    // Commit the header; its ACK is the checkpoint.
                    commit_header(client2, base, snap_len, w, eng, done_cell);
                }
            });
            self.client.gwrite(w, eng, off, piece, true, cb)?;
        }
        // Truncate everything appended so far: the snapshot supersedes it.
        self.log.truncate_to(w, eng, tail, Box::new(|_, _, _| {}))?;
        Ok(())
    }

    /// Read a member's durable checkpoint (recovery path).
    pub fn read_checkpoint(&self, w: &World, member: usize) -> Option<Memtable> {
        let base = self.client.member_addr(member, self.cfg.layout.db_off);
        let host = self.client.member_host(member);
        let len = w.hosts[host.0].mem.read_u32(base).ok()? as usize;
        if len == 0 {
            return None;
        }
        let bytes = w.hosts[host.0].mem.read_vec(base + 4, len).ok()?;
        decode_snapshot(&bytes)
    }

    /// Truncate the WAL up to the slowest syncer when it is filling up
    /// (off the critical path; piggybacked on writes).
    fn maybe_truncate(&mut self, w: &mut World, eng: &mut Engine<World>) {
        let used = self.log.used() as f64;
        if used < self.cfg.layout.log_cap as f64 * self.cfg.truncate_at {
            return;
        }
        let min_applied = self
            .shared
            .borrow()
            .applied
            .iter()
            .copied()
            .min()
            .unwrap_or(0);
        let (head, _) = self.log.cursors();
        if min_applied > head {
            // Opportunistic: a refused truncation leaves the head where
            // it was, and the next put's check issues it again.
            // hl-lint: allow(dropped-refusal)
            let _ = self
                .log
                .truncate_to(w, eng, min_applied, Box::new(|_, _, _| {}));
        }
    }
}

/// Write a checkpoint's header (the snapshot length) at `base` with a
/// flushed gWRITE whose ACK fires `done`; while the client refuses it,
/// re-issue it after [`REFUSED_BACKOFF`].
fn commit_header<C: GroupClient + 'static>(
    client: Rc<C>,
    base: u64,
    len: u32,
    w: &mut World,
    eng: &mut Engine<World>,
    done: Rc<Cell<Option<OnDone>>>,
) {
    let pending = done.clone();
    let res = client.gwrite(
        w,
        eng,
        base,
        &len.to_le_bytes(),
        true,
        Box::new(move |w, eng, r| {
            if let Some(done) = pending.take() {
                done(w, eng, r);
            }
        }),
    );
    if res.is_err() {
        eng.schedule(REFUSED_BACKOFF, move |w, eng| {
            commit_header(client, base, len, w, eng, done)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_op_roundtrip() {
        let rec = encode_kv_op(true, b"key-1", b"value-1");
        let (put, k, v) = decode_kv_op(&rec).unwrap();
        assert!(put);
        assert_eq!(k, b"key-1");
        assert_eq!(v, b"value-1");

        let rec = encode_kv_op(false, b"gone", b"");
        let (put, k, v) = decode_kv_op(&rec).unwrap();
        assert!(!put);
        assert_eq!(k, b"gone");
        assert!(v.is_empty());
    }

    #[test]
    fn kv_op_survives_wal_encoding() {
        let rec = encode_kv_op(true, b"k", &[7u8; 300]);
        let bytes = rec.encode();
        let back = LogRecord::decode(&bytes).unwrap();
        let (put, k, v) = decode_kv_op(&back).unwrap();
        assert!(put);
        assert_eq!(k, b"k");
        assert_eq!(v, [7u8; 300]);
    }
}
