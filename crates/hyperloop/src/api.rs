//! Storage-facing replication API (paper §5).
//!
//! The building blocks the modified RocksDB/MongoDB use:
//!
//! * [`GroupClient`] — one trait over the HyperLoop client and the
//!   Naïve-RDMA baseline so storage engines switch backends with a type
//!   parameter (the paper's apples-to-apples comparison).
//! * [`ReplicatedLog`] — `Initialize` / `Append` / `ExecuteAndAdvance`:
//!   a replicated write-ahead log whose records are lists of
//!   `(db_offset, bytes)` redo entries (ARIES-style, paper §5 "each log
//!   record is a redo-log ... list of modifications").
//! * [`GroupLock`] — `wrLock`/`wrUnlock` (group-wide, via gCAS with
//!   undo on partial acquisition) and `rdLock`/`rdUnlock` (per-member
//!   reader counting, letting every replica serve consistent reads).

use crate::group::{Backpressure, OnDone, OpResult};
use crate::{naive::NaiveClient, HyperLoopClient};
use hl_cluster::World;
use hl_sim::{Engine, SimDuration};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Uniform surface over [`HyperLoopClient`] and
/// [`crate::naive::NaiveClient`].
pub trait GroupClient {
    /// Replicate `data` at `offset`; optionally durable before ACK.
    fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure>;
    /// Copy within the replicated region on every member.
    #[allow(clippy::too_many_arguments)]
    fn gmemcpy(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        src_off: u64,
        dst_off: u64,
        len: u32,
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure>;
    /// Group compare-and-swap with execute map.
    #[allow(clippy::too_many_arguments)]
    fn gcas(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        cmp: u64,
        swp: u64,
        exec_map: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure>;
    /// Standalone durability flush.
    fn gflush(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        len: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure>;
    /// Group size (members incl. client).
    fn group_size(&self) -> usize;
    /// Absolute arena address of `offset` on member `m` (0 = client).
    fn member_addr(&self, m: usize, offset: u64) -> u64;
    /// Host of member `m`.
    fn member_host(&self, m: usize) -> hl_fabric::HostId;
}

impl GroupClient for HyperLoopClient {
    fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        HyperLoopClient::gwrite(self, w, eng, offset, data, flush, done)
    }
    fn gmemcpy(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        src_off: u64,
        dst_off: u64,
        len: u32,
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        HyperLoopClient::gmemcpy(self, w, eng, src_off, dst_off, len, flush, done)
    }
    fn gcas(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        cmp: u64,
        swp: u64,
        exec_map: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        HyperLoopClient::gcas(self, w, eng, offset, cmp, swp, exec_map, done)
    }
    fn gflush(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        len: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        HyperLoopClient::gflush(self, w, eng, offset, len, done)
    }
    fn group_size(&self) -> usize {
        self.group().borrow().g
    }
    fn member_addr(&self, m: usize, offset: u64) -> u64 {
        self.group().borrow().member_addr(m, offset)
    }
    fn member_host(&self, m: usize) -> hl_fabric::HostId {
        let g = self.group().borrow();
        if m == 0 {
            g.cfg.client
        } else {
            g.cfg.replicas[m - 1]
        }
    }
}

impl GroupClient for NaiveClient {
    fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        NaiveClient::gwrite(self, w, eng, offset, data, flush, done)
    }
    fn gmemcpy(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        src_off: u64,
        dst_off: u64,
        len: u32,
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        NaiveClient::gmemcpy(self, w, eng, src_off, dst_off, len, flush, done)
    }
    fn gcas(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        cmp: u64,
        swp: u64,
        exec_map: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        NaiveClient::gcas(self, w, eng, offset, cmp, swp, exec_map, done)
    }
    fn gflush(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        len: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        NaiveClient::gflush(self, w, eng, offset, len, done)
    }
    fn group_size(&self) -> usize {
        self.group().borrow().replica_rep.len() + 1
    }
    fn member_addr(&self, m: usize, offset: u64) -> u64 {
        self.group().borrow().member_addr(m, offset)
    }
    fn member_host(&self, m: usize) -> hl_fabric::HostId {
        let g = self.group().borrow();
        if m == 0 {
            g.cfg.client
        } else {
            g.cfg.replicas[m - 1]
        }
    }
}

// ---------------------------------------------------------------------------
// Replicated write-ahead log
// ---------------------------------------------------------------------------

/// One redo entry: copy `data` to `db_offset` within the database area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedoEntry {
    /// Destination offset within the database area.
    pub db_offset: u64,
    /// Bytes to apply.
    pub data: Vec<u8>,
}

/// A log record: a list of redo entries applied atomically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogRecord {
    /// The entries.
    pub entries: Vec<RedoEntry>,
}

impl LogRecord {
    /// Serialized size: u32 count + per entry (u64 off, u32 len, data).
    pub fn encoded_len(&self) -> u64 {
        4 + self
            .entries
            .iter()
            .map(|e| 12 + e.data.len() as u64)
            .sum::<u64>()
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.db_offset.to_le_bytes());
            out.extend_from_slice(&(e.data.len() as u32).to_le_bytes());
            out.extend_from_slice(&e.data);
        }
        out
    }

    /// Deserialize; `None` on malformed input.
    pub fn decode(b: &[u8]) -> Option<LogRecord> {
        let mut rec = LogRecord::default();
        let n = u32::from_le_bytes(b.get(..4)?.try_into().ok()?) as usize;
        let mut at = 4usize;
        for _ in 0..n {
            let off = u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?);
            let len = u32::from_le_bytes(b.get(at + 8..at + 12)?.try_into().ok()?) as usize;
            let data = b.get(at + 12..at + 12 + len)?.to_vec();
            rec.entries.push(RedoEntry {
                db_offset: off,
                data,
            });
            at += 12 + len;
        }
        Some(rec)
    }
}

/// Layout of the log within the replicated region:
///
/// ```text
/// log_off:      [ head u64 | tail u64 ]   (control words)
/// log_off+64:   [ record area, ring of log_cap bytes ]
/// db_off:       [ database area ]
/// ```
#[derive(Debug, Clone)]
pub struct LogLayout {
    /// Offset of the control words.
    pub log_off: u64,
    /// Capacity of the record area.
    pub log_cap: u64,
    /// Offset of the database area.
    pub db_off: u64,
}

/// Marker written at the wrap-point padding so log readers (replica
/// syncers) know to jump to the next ring lap.
pub const PAD_MARKER: u32 = 0xffff_ffff;

/// Backoff before re-issuing a head gWRITE the client refused.
const REFUSED_BACKOFF: SimDuration = SimDuration::from_micros(50);

/// A record appended but not yet executed.
struct Unapplied {
    /// Offset of the record within the replicated region.
    rec_off: u64,
    rec: LogRecord,
    /// Tail cursor just past the record: the head once it is applied.
    end: u64,
}

/// Client-side handle to the replicated write-ahead log.
pub struct ReplicatedLog<C: GroupClient> {
    client: Rc<C>,
    layout: LogLayout,
    /// Oldest unapplied record (byte cursor into the record ring).
    head: u64,
    /// One past the newest record.
    tail: u64,
    /// One past the newest record whose append has been ACKed: every
    /// record before it is durable on every member.
    acked: Rc<Cell<u64>>,
    /// One past the newest record whose copies have all landed: the
    /// head a head gWRITE may persist.
    landed: Rc<Cell<u64>>,
    /// Records appended but not yet executed, oldest first.
    unapplied: VecDeque<Unapplied>,
    /// Track appended records for `execute_and_advance` (on by default;
    /// kvlite applies at replicas instead and truncates explicitly).
    track_unapplied: bool,
    /// The newest execute issued, so an execute with nothing of its own
    /// to apply can wait for the copies still in flight.
    last: Option<Rc<RefCell<Execution<C>>>>,
}

impl<C: GroupClient + 'static> ReplicatedLog<C> {
    /// `Initialize` (paper §5): bind the log layout. The region is
    /// already zeroed NVM, so head = tail = 0 is a valid empty log.
    pub fn new(client: Rc<C>, layout: LogLayout) -> Self {
        ReplicatedLog {
            client,
            layout,
            head: 0,
            tail: 0,
            acked: Rc::new(Cell::new(0)),
            landed: Rc::new(Cell::new(0)),
            unapplied: VecDeque::new(),
            track_unapplied: true,
            last: None,
        }
    }

    /// Disable unapplied-record tracking (for engines that apply at
    /// replicas and truncate with [`ReplicatedLog::truncate_to`]).
    pub fn set_tracking(&mut self, on: bool) {
        self.track_unapplied = on;
    }

    /// The log layout.
    pub fn layout(&self) -> &LogLayout {
        &self.layout
    }

    /// Advance and persist the head (truncation) to absolute byte
    /// cursor `to` (≤ tail). Used by engines that confirm application
    /// out of band (kvlite replica syncers).
    pub fn truncate_to(
        &mut self,
        w: &mut World,
        eng: &mut Engine<World>,
        to: u64,
        done: OnDone,
    ) -> Result<(), Backpressure> {
        assert!(to >= self.head && to <= self.tail);
        self.head = to;
        let head_bytes = to.to_le_bytes();
        self.client
            .gwrite(w, eng, self.layout.log_off, &head_bytes, true, done)?;
        Ok(())
    }

    fn rec_area(&self) -> u64 {
        self.layout.log_off + 64
    }

    /// Bytes of log space in use.
    pub fn used(&self) -> u64 {
        self.tail - self.head
    }

    /// Current (head, tail) cursors.
    pub fn cursors(&self) -> (u64, u64) {
        (self.head, self.tail)
    }

    /// `Append`: replicate a log record durably to all members (gWRITE +
    /// interleaved gFLUSH), then advance and persist the tail pointer.
    /// The completion fires when the *tail update* is ACKed, i.e. the
    /// record is durable group-wide.
    pub fn append(
        &mut self,
        w: &mut World,
        eng: &mut Engine<World>,
        rec: &LogRecord,
        done: OnDone,
    ) -> Result<(), Backpressure> {
        let bytes = rec.encode();
        let len = bytes.len() as u64;
        assert!(len <= self.layout.log_cap, "record larger than the log");
        if self.used() + len > self.layout.log_cap {
            return Err(Backpressure); // log full: caller must execute+truncate
        }
        // Ring placement; records never straddle the wrap point.
        let mut at = self.tail % self.layout.log_cap;
        if at + len > self.layout.log_cap {
            // Pad to the wrap (accounted as used space) and replicate a
            // marker so log readers skip the dead bytes.
            let pad = self.layout.log_cap - at;
            if self.used() + pad + len > self.layout.log_cap {
                return Err(Backpressure);
            }
            if pad >= 4 {
                let marker_off = self.rec_area() + at;
                self.client.gwrite(
                    w,
                    eng,
                    marker_off,
                    &PAD_MARKER.to_le_bytes(),
                    true,
                    Box::new(|_, _, _| {}),
                )?;
            }
            self.tail += pad;
            at = 0;
        }
        let rec_off = self.rec_area() + at;
        self.client
            .gwrite(w, eng, rec_off, &bytes, true, Box::new(|_, _, _| {}))?;
        self.tail += len;
        let done: OnDone = if self.track_unapplied {
            let end = self.tail;
            self.unapplied.push_back(Unapplied {
                rec_off,
                rec: rec.clone(),
                end,
            });
            let acked = self.acked.clone();
            Box::new(move |w, eng, r| {
                acked.set(acked.get().max(end));
                done(w, eng, r);
            })
        } else {
            done
        };
        // Persist the tail control word; its ACK means the whole append
        // is durable everywhere (per-ring FIFO guarantees order).
        let tail_bytes = self.tail.to_le_bytes();
        self.client
            .gwrite(w, eng, self.layout.log_off + 8, &tail_bytes, true, done)?;
        Ok(())
    }

    /// `ExecuteAndAdvance`: apply every record whose append has been
    /// ACKed to the database area on all members (one gMEMCPY + flush
    /// per redo entry, executed by the replicas' NICs from their own log
    /// copies), then advance and persist the head pointer (truncation).
    ///
    /// It reports two moments. `applied` fires when every copy has
    /// landed, durably, on every member — the moment the head gWRITE is
    /// issued. `persisted` fires when that gWRITE is ACKed. An execute
    /// with nothing of its own to apply (an earlier one took its record)
    /// reports when the copies still in flight have landed, or from a
    /// scheduled event if there are none; never re-entrantly.
    ///
    /// All or nothing: on `Err` the unapplied records and the head are
    /// as they were and neither callback will fire. Copies issued before
    /// the refusal still land; redo is idempotent, so the retry that
    /// issues them again writes the same bytes.
    pub fn execute_and_advance(
        &mut self,
        w: &mut World,
        eng: &mut Engine<World>,
        applied: OnDone,
        persisted: OnDone,
    ) -> Result<(), Backpressure> {
        // Records are ACKed in append order (one gWRITE ring), so the
        // ready ones are a prefix. A record still in flight on the
        // gWRITE ring must not be copied on the gMEMCPY ring.
        let acked = self.acked.get();
        let ready = self.unapplied.iter().take_while(|u| u.end <= acked).count();
        let head = match ready {
            0 => self.head,
            n => self.unapplied[n - 1].end,
        };
        let copies: usize = self
            .unapplied
            .iter()
            .take(ready)
            .map(|u| u.rec.entries.len())
            .sum();
        let ex = Rc::new(RefCell::new(Execution {
            client: self.client.clone(),
            head_off: self.layout.log_off,
            head,
            landed: self.landed.clone(),
            copies_left: copies,
            applied: Some(applied),
            persisted: Some(persisted),
            next: None,
        }));
        if copies == 0 {
            match &self.last {
                Some(prev) if prev.borrow().applied.is_some() => {
                    prev.borrow_mut().next = Some(ex.clone());
                }
                _ => {
                    let ex = ex.clone();
                    eng.schedule(SimDuration::ZERO, move |w, eng| {
                        Execution::all_applied(&ex, w, eng, OpResult::default())
                    });
                }
            }
        }
        for u in self.unapplied.iter().take(ready) {
            // Per-entry source offset: skip the record header (4) and
            // prior entries' (12 + len) prefixes.
            let mut src = u.rec_off + 4;
            for e in &u.rec.entries {
                src += 12; // entry header
                let dst = self.layout.db_off + e.db_offset;
                let on_copy = ex.clone();
                let res = self.client.gmemcpy(
                    w,
                    eng,
                    src,
                    dst,
                    e.data.len() as u32,
                    true,
                    Box::new(move |w, eng, r| Execution::copied(&on_copy, w, eng, r)),
                );
                if res.is_err() {
                    // The copies already issued report to no one.
                    let mut abandoned = ex.borrow_mut();
                    abandoned.applied = None;
                    abandoned.persisted = None;
                    return Err(Backpressure);
                }
                src += e.data.len() as u64;
            }
        }
        self.unapplied.drain(..ready);
        self.head = head;
        self.last = Some(ex);
        Ok(())
    }
}

/// One `execute_and_advance` in flight.
struct Execution<C: GroupClient> {
    client: Rc<C>,
    /// Offset of the head control word.
    head_off: u64,
    /// Head cursor past this execute's records.
    head: u64,
    /// The log's [`ReplicatedLog::landed`] cursor. A head gWRITE writes
    /// it rather than `head`, so one re-issued after a refusal cannot
    /// move the head back behind a later execute's.
    landed: Rc<Cell<u64>>,
    /// gMEMCPYs not yet ACKed.
    copies_left: usize,
    /// `None` once fired (or abandoned on refusal).
    applied: Option<OnDone>,
    persisted: Option<OnDone>,
    /// An execute with no copies of its own, waiting on this one's.
    next: Option<Rc<RefCell<Execution<C>>>>,
}

impl<C: GroupClient + 'static> Execution<C> {
    fn copied(ex: &Rc<RefCell<Self>>, w: &mut World, eng: &mut Engine<World>, r: OpResult) {
        let mut e = ex.borrow_mut();
        e.copies_left -= 1;
        if e.copies_left == 0 && e.applied.is_some() {
            drop(e);
            Self::all_applied(ex, w, eng, r);
        }
    }

    /// Every copy has landed: issue the head gWRITE, then report
    /// `applied`, then release an execute waiting on this one.
    fn all_applied(ex: &Rc<RefCell<Self>>, w: &mut World, eng: &mut Engine<World>, r: OpResult) {
        {
            let e = ex.borrow();
            e.landed.set(e.landed.get().max(e.head));
        }
        Self::persist_head(ex, w, eng);
        let applied = ex.borrow_mut().applied.take();
        if let Some(applied) = applied {
            applied(w, eng, r);
        }
        let next = ex.borrow_mut().next.take();
        if let Some(next) = next {
            Self::all_applied(&next, w, eng, OpResult::default());
        }
    }

    fn persist_head(ex: &Rc<RefCell<Self>>, w: &mut World, eng: &mut Engine<World>) {
        let (client, off, head) = {
            let e = ex.borrow();
            (e.client.clone(), e.head_off, e.landed.get())
        };
        let on_ack = ex.clone();
        let res = client.gwrite(
            w,
            eng,
            off,
            &head.to_le_bytes(),
            true,
            Box::new(move |w, eng, r| {
                let persisted = on_ack.borrow_mut().persisted.take();
                if let Some(persisted) = persisted {
                    persisted(w, eng, r);
                }
            }),
        );
        if res.is_err() {
            let ex = ex.clone();
            eng.schedule(REFUSED_BACKOFF, move |w, eng| {
                Self::persist_head(&ex, w, eng)
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Group locks
// ---------------------------------------------------------------------------

/// Lock word encodings.
pub mod lockword {
    /// Free.
    pub const FREE: u64 = 0;
    /// Writer-held: `WRITER | owner`.
    pub const WRITER: u64 = 1 << 63;
    /// Reader-held: `READER | count`.
    pub const READER: u64 = 1 << 62;

    /// Encode a writer.
    pub fn writer(owner: u32) -> u64 {
        WRITER | owner as u64
    }
    /// Encode `count` readers.
    pub fn readers(count: u32) -> u64 {
        READER | count as u64
    }
}

/// Outcome of a lock attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held by the caller.
    Acquired,
    /// Another owner holds it; the operation was rolled back.
    Contended,
}

/// Completion callback for lock operations.
pub type OnLock = Box<dyn FnOnce(&mut World, &mut Engine<World>, LockOutcome)>;

/// Group-wide single-writer / per-member multi-reader locks over lock
/// words stored in the replicated region.
pub struct GroupLock<C: GroupClient> {
    client: Rc<C>,
    /// Offset of the lock word.
    pub lock_off: u64,
    /// This client's owner id.
    pub owner: u32,
}

impl<C: GroupClient + 'static> GroupLock<C> {
    /// Bind a lock word at `lock_off`.
    pub fn new(client: Rc<C>, lock_off: u64, owner: u32) -> Self {
        GroupLock {
            client,
            lock_off,
            owner,
        }
    }

    /// `wrLock`: acquire the write lock on every member via one gCAS.
    /// On partial success (some member held), a second gCAS with the
    /// execute map of the members that *did* swap rolls back (paper
    /// §4.2's undo flow), and the outcome is [`LockOutcome::Contended`].
    pub fn wr_lock(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        done: OnLock,
    ) -> Result<(), Backpressure> {
        let g = self.client.group_size();
        let all: u32 = (1 << g) - 1;
        let want = lockword::writer(self.owner);
        let client = self.client.clone();
        let lock_off = self.lock_off;
        self.client.gcas(
            w,
            eng,
            self.lock_off,
            lockword::FREE,
            want,
            all,
            Box::new(move |w, eng, r: OpResult| {
                let succeeded: u32 = r
                    .results
                    .iter()
                    .enumerate()
                    .filter(|(_, &orig)| orig == lockword::FREE)
                    .map(|(m, _)| 1u32 << m)
                    .sum();
                if succeeded == all {
                    done(w, eng, LockOutcome::Acquired);
                } else if succeeded == 0 {
                    done(w, eng, LockOutcome::Contended);
                } else {
                    // Undo on the members that swapped.
                    let _ = client.gcas(
                        w,
                        eng,
                        lock_off,
                        want,
                        lockword::FREE,
                        succeeded,
                        Box::new(move |w, eng, _| done(w, eng, LockOutcome::Contended)),
                    );
                }
            }),
        )?;
        Ok(())
    }

    /// `wrUnlock`: release on every member.
    pub fn wr_unlock(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        done: OnLock,
    ) -> Result<(), Backpressure> {
        let g = self.client.group_size();
        let all: u32 = (1 << g) - 1;
        self.client.gcas(
            w,
            eng,
            self.lock_off,
            lockword::writer(self.owner),
            lockword::FREE,
            all,
            Box::new(move |w, eng, _r: OpResult| {
                done(w, eng, LockOutcome::Acquired);
            }),
        )?;
        Ok(())
    }

    /// `rdLock`: take a read share on member `m` only (readers scale
    /// across replicas). Retries the reader-count CAS up to `retries`
    /// times on races; fails as contended when a writer holds the word.
    pub fn rd_lock(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        member: usize,
        retries: u32,
        done: OnLock,
    ) -> Result<(), Backpressure> {
        self.rd_lock_step(
            w,
            eng,
            member,
            lockword::FREE,
            lockword::readers(1),
            retries,
            done,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn rd_lock_step(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        member: usize,
        cmp: u64,
        swp: u64,
        retries: u32,
        done: OnLock,
    ) -> Result<(), Backpressure> {
        let client = self.client.clone();
        let lock_off = self.lock_off;
        let owner = self.owner;
        let exec = 1u32 << member;
        self.client.gcas(
            w,
            eng,
            self.lock_off,
            cmp,
            swp,
            exec,
            Box::new(move |w, eng, r: OpResult| {
                let orig = r.results[member];
                if orig == cmp {
                    done(w, eng, LockOutcome::Acquired);
                    return;
                }
                if orig & lockword::WRITER != 0 || retries == 0 {
                    done(w, eng, LockOutcome::Contended);
                    return;
                }
                // Reader race: bump the observed count.
                let count = (orig & !lockword::READER) as u32;
                let lock = GroupLock {
                    client,
                    lock_off,
                    owner,
                };
                let _ = lock.rd_lock_step(
                    w,
                    eng,
                    member,
                    orig,
                    lockword::readers(count + 1),
                    retries - 1,
                    done,
                );
            }),
        )?;
        Ok(())
    }

    /// `rdUnlock`: drop a read share on member `m` (retry loop like
    /// [`GroupLock::rd_lock`]).
    pub fn rd_unlock(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        member: usize,
        retries: u32,
        done: OnLock,
    ) -> Result<(), Backpressure> {
        self.rd_unlock_step(
            w,
            eng,
            member,
            lockword::readers(1),
            lockword::FREE,
            retries,
            done,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn rd_unlock_step(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        member: usize,
        cmp: u64,
        swp: u64,
        retries: u32,
        done: OnLock,
    ) -> Result<(), Backpressure> {
        let client = self.client.clone();
        let lock_off = self.lock_off;
        let owner = self.owner;
        self.client.gcas(
            w,
            eng,
            self.lock_off,
            cmp,
            swp,
            1u32 << member,
            Box::new(move |w, eng, r: OpResult| {
                let orig = r.results[member];
                if orig == cmp {
                    done(w, eng, LockOutcome::Acquired);
                    return;
                }
                if retries == 0 || orig & lockword::READER == 0 {
                    done(w, eng, LockOutcome::Contended);
                    return;
                }
                let count = (orig & !lockword::READER) as u32;
                let next = if count <= 1 {
                    lockword::FREE
                } else {
                    lockword::readers(count - 1)
                };
                let lock = GroupLock {
                    client,
                    lock_off,
                    owner,
                };
                let _ = lock.rd_unlock_step(w, eng, member, orig, next, retries - 1, done);
            }),
        )?;
        Ok(())
    }
}
