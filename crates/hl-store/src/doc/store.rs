//! doclite front-end over HyperLoop (paper §5.2).
//!
//! The MongoDB-like path: the front-end (integrated with the client)
//! appends the operation to the replicated journal while it takes a
//! group write lock, then executes it on all replicas with
//! `ExecuteAndAdvance`, truncates the journal and unlocks in one go —
//! "completely offloads both critical and off-the-critical path
//! operations for write transactions to the NIC while providing strong
//! consistency across the replicas".
//!
//! Reads are served from the client's copy of the database area (the
//! chain head), or — consistently — from any replica under `rdLock`.

use super::document::Document;
use hl_cluster::World;
use hl_sim::{Engine, SimDuration};
use hyperloop::api::{
    GroupClient, GroupLock, LockOutcome, LogLayout, LogRecord, RedoEntry, ReplicatedLog,
};
use hyperloop::{Backpressure, OnDone, OpResult};
use std::cell::RefCell;
use std::rc::Rc;

/// Layout of a doclite database within the replicated region.
#[derive(Debug, Clone)]
pub struct DocLayout {
    /// Journal (write-ahead log) layout. `db_off` is the slot area.
    pub log: LogLayout,
    /// Bytes per document slot.
    pub slot_size: u64,
    /// Number of slots.
    pub n_slots: u64,
    /// Offset of the group write-lock cell (16 bytes, see
    /// [`GroupLock`]).
    pub lock_off: u64,
}

impl Default for DocLayout {
    fn default() -> Self {
        DocLayout {
            log: LogLayout {
                log_off: 64,
                log_cap: 256 << 10,
                db_off: 512 << 10,
            },
            slot_size: 1536,
            n_slots: 512,
            lock_off: 0,
        }
    }
}

struct DocInner<C: GroupClient> {
    client: Rc<C>,
    log: ReplicatedLog<C>,
    lock: GroupLock<C>,
    layout: DocLayout,
    use_locks: bool,
    /// Committed operations (reporting).
    committed: u64,
}

/// Backoff before retrying a contended `wrLock`.
const CONTENDED_BACKOFF: SimDuration = SimDuration::from_micros(20);
/// Backoff before re-issuing a step the group client refused.
const REFUSED_BACKOFF: SimDuration = SimDuration::from_micros(50);

/// One upsert in flight.
struct Txn {
    done: Option<OnDone>,
    /// Round trips of the current step not yet completed: the append
    /// and `wrLock`, then the execute and `wrUnlock`.
    pending: u8,
}

type TxnRef = Rc<RefCell<Txn>>;

/// Cheap cloneable handle to a doclite database.
pub struct DocStore<C: GroupClient> {
    inner: Rc<RefCell<DocInner<C>>>,
}

impl<C: GroupClient> Clone for DocStore<C> {
    fn clone(&self) -> Self {
        DocStore {
            inner: self.inner.clone(),
        }
    }
}

impl<C: GroupClient + 'static> DocStore<C> {
    /// Open a database (binds layout; lock word starts free).
    pub fn open(client: Rc<C>, layout: DocLayout, owner: u32, use_locks: bool) -> Self {
        let log = ReplicatedLog::new(client.clone(), layout.log.clone());
        let lock = GroupLock::new(client.clone(), layout.lock_off, owner);
        DocStore {
            inner: Rc::new(RefCell::new(DocInner {
                client,
                log,
                lock,
                layout,
                use_locks,
                committed: 0,
            })),
        }
    }

    /// Slot offset (within the db area) for a document id.
    fn slot_off(layout: &DocLayout, id: u64) -> u64 {
        (id % layout.n_slots) * layout.slot_size
    }

    /// Upsert a document in two dependent group round trips:
    ///
    /// 1. the journal append (one gWRITE of a self-delimiting frame) ∥
    ///    `wrLock` (gWRITE ring ∥ gCAS ring);
    /// 2. `ExecuteAndAdvance` (a gMEMCPY per redo entry, applied by each
    ///    replica's NIC from its own journal copy, then the head copy)
    ///    and `wrUnlock`, issued back to back on the gMEMCPY ring, which
    ///    applies them on each member in issue order, each after the
    ///    previous one's flush.
    ///
    /// `done` fires once step 2 is ACKed: the document is applied and
    /// flushed on every member, the lock word is free and the head is
    /// persisted. Contended lock attempts back off 20 µs and retry;
    /// steps the client refuses for ring credits are re-issued after
    /// 50 µs. Without locks step 1 is the append alone and step 2 the
    /// execute alone. `Err` means the append itself was refused and
    /// nothing else was issued.
    pub fn upsert(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        doc: &Document,
        done: OnDone,
    ) -> Result<(), Backpressure> {
        let (rec, use_locks) = {
            let inner = self.inner.borrow();
            let slot = doc.encode_slot(inner.layout.slot_size as usize);
            (
                LogRecord {
                    entries: vec![RedoEntry {
                        db_offset: Self::slot_off(&inner.layout, doc.id),
                        data: slot,
                    }],
                },
                inner.use_locks,
            )
        };
        let txn = Rc::new(RefCell::new(Txn {
            done: Some(done),
            pending: 1 + use_locks as u8,
        }));
        let (handle, t) = (self.clone(), txn.clone());
        self.inner.borrow_mut().log.append(
            w,
            eng,
            &rec,
            Box::new(move |w, eng, _| handle.ready(w, eng, t)),
        )?;
        if use_locks {
            self.wr_lock(w, eng, txn);
        }
        Ok(())
    }

    fn wr_lock(&self, w: &mut World, eng: &mut Engine<World>, txn: TxnRef) {
        let (handle, t) = (self.clone(), txn.clone());
        let res = self.inner.borrow().lock.wr_lock(
            w,
            eng,
            Box::new(move |w, eng, outcome| match outcome {
                LockOutcome::Acquired => handle.ready(w, eng, t),
                // Another transaction holds the group lock.
                LockOutcome::Contended => {
                    eng.schedule(CONTENDED_BACKOFF, move |w, eng| handle.wr_lock(w, eng, t));
                }
            }),
        );
        if res.is_err() {
            let handle = self.clone();
            eng.schedule(REFUSED_BACKOFF, move |w, eng| handle.wr_lock(w, eng, txn));
        }
    }

    /// One of step 1's round trips is ACKed; the last one starts step 2.
    fn ready(&self, w: &mut World, eng: &mut Engine<World>, txn: TxnRef) {
        txn.borrow_mut().pending -= 1;
        if txn.borrow().pending == 0 {
            self.execute(w, eng, txn);
        }
    }

    /// Step 2: the execute, then (in locking mode) the release behind it
    /// on the gMEMCPY ring.
    fn execute(&self, w: &mut World, eng: &mut Engine<World>, txn: TxnRef) {
        let use_locks = self.inner.borrow().use_locks;
        txn.borrow_mut().pending = 1 + use_locks as u8;
        let (handle, t) = (self.clone(), txn.clone());
        let res = self.inner.borrow_mut().log.execute_and_advance(
            w,
            eng,
            Box::new(move |w, eng, r| handle.commit(w, eng, &t, r)),
        );
        match res {
            Ok(()) if use_locks => self.wr_unlock(w, eng, txn),
            Ok(()) => {}
            Err(Backpressure) => {
                let handle = self.clone();
                eng.schedule(REFUSED_BACKOFF, move |w, eng| handle.execute(w, eng, txn));
            }
        }
    }

    fn wr_unlock(&self, w: &mut World, eng: &mut Engine<World>, txn: TxnRef) {
        let (handle, t) = (self.clone(), txn.clone());
        let res = self.inner.borrow().lock.wr_unlock(
            w,
            eng,
            Box::new(move |w, eng, _| handle.commit(w, eng, &t, OpResult::default())),
        );
        if res.is_err() {
            let handle = self.clone();
            eng.schedule(REFUSED_BACKOFF, move |w, eng| handle.wr_unlock(w, eng, txn));
        }
    }

    /// One of step 2's round trips is ACKed; the last one fires `done`.
    fn commit(&self, w: &mut World, eng: &mut Engine<World>, txn: &TxnRef, r: OpResult) {
        let mut t = txn.borrow_mut();
        t.pending -= 1;
        if t.pending > 0 {
            return;
        }
        let done = t.done.take().expect("an upsert completes once");
        drop(t);
        self.inner.borrow_mut().committed += 1;
        done(w, eng, r);
    }

    /// Read a document from a member's database area (0 = client).
    pub fn read_at(&self, w: &mut World, member: usize, id: u64) -> Option<Document> {
        let inner = self.inner.borrow();
        let off = inner.layout.log.db_off + Self::slot_off(&inner.layout, id);
        let addr = inner.client.member_addr(member, off);
        let host = inner.client.member_host(member);
        let bytes = w.hosts[host.0]
            .mem
            .read_vec(addr, inner.layout.slot_size as usize)
            .ok()?;
        Document::decode_slot(&bytes)
    }

    /// Read from the client copy (strong consistency at the head).
    pub fn read(&self, w: &mut World, id: u64) -> Option<Document> {
        self.read_at(w, 0, id)
    }

    /// Scan `n` consecutive slots starting at `id` from the client copy.
    pub fn scan(&self, w: &mut World, id: u64, n: usize) -> Vec<Document> {
        (0..n as u64).filter_map(|k| self.read(w, id + k)).collect()
    }

    /// Upserts whose `done` has fired: journaled, applied on every
    /// member, unlocked and truncated.
    pub fn committed(&self) -> u64 {
        self.inner.borrow().committed
    }
}
