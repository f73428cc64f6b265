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
//!   record is a redo-log ... list of modifications"), stored as
//!   self-delimiting frames that [`FrameReader`] reads back from any
//!   member's copy ([`LogLayout`] has the format).
//! * [`GroupLock`] — `wrLock` (group-wide, via gCAS with undo on
//!   partial acquisition), `wrUnlock` (a gMEMCPY of a FREE word, ordered
//!   behind the copies before it) and `rdLock`/`rdUnlock` (per-member
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
///
/// **Ordering.** gMEMCPYs issued through one client apply on each
/// member in issue order, each after the previous one's flush: the
/// client applies its own copy at issue, a HyperLoop replica's NIC
/// completes its loopback QP's local ops in posting order, and a Naive
/// replica's one process applies descriptors first in, first out. So a
/// gMEMCPY lands on a member only after every gMEMCPY issued before it
/// is there, flushed if it asked to be. Nothing orders one primitive's
/// ops against another's: a gWRITE and a gMEMCPY issued back to back
/// may land in either order.
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

    /// Size of the record's journal frame: the encoding, zero-filled to
    /// a multiple of 8, then the 8-byte end cursor ([`LogLayout`]).
    pub fn frame_len(&self) -> u64 {
        self.encoded_len().next_multiple_of(8) + 8
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        self.encode_into(&mut out);
        out
    }

    /// The record's journal frame ending at cursor `end`, built in one
    /// buffer of exactly [`LogRecord::frame_len`] bytes.
    pub fn encode_frame(&self, end: u64) -> Vec<u8> {
        let len = self.frame_len() as usize;
        let mut out = Vec::with_capacity(len);
        self.encode_into(&mut out);
        out.resize(len - 8, 0);
        out.extend_from_slice(&end.to_le_bytes());
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.db_offset.to_le_bytes());
            out.extend_from_slice(&(e.data.len() as u32).to_le_bytes());
            out.extend_from_slice(&e.data);
        }
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

/// Length of the record encoded at the start of `b`, from its headers
/// alone; `None` if it would run past the end of `b`.
fn encoded_len_at(b: &[u8]) -> Option<usize> {
    let n = u32::from_le_bytes(b.get(..4)?.try_into().ok()?);
    let mut at = 4usize;
    for _ in 0..n {
        let len = u32::from_le_bytes(b.get(at + 8..at + 12)?.try_into().ok()?) as usize;
        at += 12 + len;
        if at > b.len() {
            return None;
        }
    }
    Some(at)
}

/// Layout of the log within the replicated region:
///
/// ```text
/// log_off:      [ head u64 ]                      (control word)
/// log_off+64:   [ record ring of log_cap bytes ]  (frames)
/// db_off:       [ database area ]
/// ```
///
/// Cursors are absolute byte counts since the log was created, so they
/// keep growing across laps of the ring. The ring holds frames, each a
/// multiple of 8 bytes long and ending with its *end cursor*, the cursor
/// just past it:
///
/// ```text
/// record frame: [ LogRecord::encode() | zero fill to 8 | end u64 ]
/// pad frame:    [ PAD_MARKER u32 | zero fill | end u64 ]   (rest of the lap)
/// ```
///
/// A record never straddles the end of the ring: the append that does
/// not fit closes the lap with a pad frame (only the end cursor when 8
/// bytes are left). A reader at cursor `c` accepts the frame there only
/// if its end cursor equals `c` plus its length ([`FrameReader`]). Bytes
/// left from an earlier lap carry smaller cursors, so neither a stale
/// frame nor one whose gWRITE has not landed passes. That rests on two
/// facts of the model: a gWRITE lands whole (RC is modelled at message
/// granularity; MTU segmentation would revisit this) and one member's
/// gWRITEs land in issue order (they share one ring).
///
/// The head word holds the cursor of the oldest record not yet applied.
/// An execute persists it by copying the newest applied record's end
/// cursor onto it, behind that record's copies on the gMEMCPY ring
/// ([`ReplicatedLog::execute_and_advance`]); a log whose records are
/// applied elsewhere writes it ([`ReplicatedLog::truncate_to`]).
#[derive(Debug, Clone)]
pub struct LogLayout {
    /// Offset of the head word.
    pub log_off: u64,
    /// Capacity of the record ring (a multiple of 8).
    pub log_cap: u64,
    /// Offset of the database area.
    pub db_off: u64,
}

impl LogLayout {
    /// Offset of the record ring.
    pub fn ring_off(&self) -> u64 {
        self.log_off + 64
    }
}

/// First word of a pad frame, where a record frame has its entry count.
pub const PAD_MARKER: u32 = 0xffff_ffff;

/// The shortest record frame: an empty record's count, zero fill, end.
const MIN_RECORD_FRAME: usize = 16;

/// Reads one member's copy of a journal: the record frames from a
/// cursor on, oldest first, up to the first frame that is not valid at
/// its cursor (see [`LogLayout`]). Pad frames are stepped over.
///
/// ```
/// use hyperloop::api::{FrameReader, LogRecord, RedoEntry};
/// let rec = LogRecord { entries: vec![RedoEntry { db_offset: 8, data: b"doc".to_vec() }] };
/// let mut ring = vec![0u8; 64];
/// let frame = rec.encode_frame(rec.frame_len());
/// ring[..frame.len()].copy_from_slice(&frame);
/// let mut reader = FrameReader::new(&ring, 0);
/// assert_eq!(reader.next().and_then(LogRecord::decode), Some(rec.clone()));
/// assert_eq!(reader.next(), None);
/// assert_eq!(reader.cursor(), rec.frame_len());
/// ```
pub struct FrameReader<'a> {
    ring: &'a [u8],
    cursor: u64,
}

impl<'a> FrameReader<'a> {
    /// Read `ring` (the `log_cap` bytes at [`LogLayout::ring_off`]) from
    /// cursor `from`, e.g. the member's head word.
    pub fn new(ring: &'a [u8], from: u64) -> Self {
        assert!(
            ring.len().is_multiple_of(8) && from.is_multiple_of(8),
            "frames are 8-byte aligned"
        );
        FrameReader { ring, cursor: from }
    }

    /// The cursor just past the last valid frame read.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The valid frame at the cursor: its offset in the ring, its length
    /// and whether it holds a record.
    fn frame(&self) -> Option<(usize, usize, bool)> {
        let at = (self.cursor % self.ring.len() as u64) as usize;
        let room = &self.ring[at..];
        let pad = room.len() < MIN_RECORD_FRAME || room[..4] == PAD_MARKER.to_le_bytes();
        let len = if pad {
            room.len()
        } else {
            encoded_len_at(room)?.next_multiple_of(8) + 8
        };
        let end = u64::from_le_bytes(room.get(len - 8..len)?.try_into().unwrap());
        (end == self.cursor + len as u64).then_some((at, len, !pad))
    }
}

impl<'a> Iterator for FrameReader<'a> {
    /// A record frame's bytes before its end cursor: the record's
    /// encoding (for [`LogRecord::decode`]) and its zero fill.
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        loop {
            let (at, len, record) = self.frame()?;
            self.cursor += len as u64;
            if record {
                return Some(&self.ring[at..at + len - 8]);
            }
        }
    }
}

/// Backoff before re-issuing a lock-path gCAS the client refused.
const REFUSED_BACKOFF: SimDuration = SimDuration::from_micros(50);

/// One redo entry of a record appended but not yet executed: a gMEMCPY
/// from the journal to the database area. A record with no entries is
/// one descriptor of length 0; execute issues no copy of length 0.
struct Unapplied {
    /// Offset of the entry's data in the journal.
    src: u64,
    /// Offset it is applied to.
    dst: u64,
    len: u32,
    /// End cursor of the entry's record: the head once it is applied.
    end: u64,
}

/// What a log shares with its appends and executes in flight.
struct LogShared<C: GroupClient> {
    client: Rc<C>,
    layout: LogLayout,
    /// One past the newest record whose append has been ACKed: every
    /// record before it is durable on every member.
    acked: Cell<u64>,
    /// The newest head an execute has persisted on every member.
    durable: Cell<u64>,
}

/// Client-side handle to the replicated write-ahead log.
pub struct ReplicatedLog<C: GroupClient> {
    log: Rc<LogShared<C>>,
    /// Oldest unapplied record (byte cursor into the record ring).
    head: u64,
    /// One past the newest record.
    tail: u64,
    /// Redo entries appended but not yet executed, oldest first.
    unapplied: VecDeque<Unapplied>,
    /// Track appended records for `execute_and_advance` (on by default;
    /// kvlite applies at replicas instead and truncates explicitly).
    track_unapplied: bool,
}

impl<C: GroupClient + 'static> ReplicatedLog<C> {
    /// `Initialize` (paper §5): bind the log layout. The region is
    /// already zeroed NVM, so head = tail = 0 is a valid empty log: no
    /// frame ends at cursor 0, so a zeroed ring holds no valid frame.
    pub fn new(client: Rc<C>, layout: LogLayout) -> Self {
        assert!(
            layout.log_cap.is_multiple_of(8) && layout.log_cap >= MIN_RECORD_FRAME as u64,
            "the record ring holds whole 8-byte words"
        );
        ReplicatedLog {
            log: Rc::new(LogShared {
                client,
                layout,
                acked: Cell::new(0),
                durable: Cell::new(0),
            }),
            head: 0,
            tail: 0,
            unapplied: VecDeque::new(),
            track_unapplied: true,
        }
    }

    /// Disable unapplied-record tracking (for engines that apply at
    /// replicas and truncate with [`ReplicatedLog::truncate_to`]).
    pub fn set_tracking(&mut self, on: bool) {
        self.track_unapplied = on;
    }

    /// The log layout.
    pub fn layout(&self) -> &LogLayout {
        &self.log.layout
    }

    /// Advance and persist the head (truncation) to absolute byte
    /// cursor `to` (≤ tail) with a gWRITE of the head word. Used by
    /// engines that confirm application out of band (kvlite replica
    /// syncers). On `Err` the head has not moved.
    pub fn truncate_to(
        &mut self,
        w: &mut World,
        eng: &mut Engine<World>,
        to: u64,
        done: OnDone,
    ) -> Result<(), Backpressure> {
        assert!(to >= self.head && to <= self.tail);
        let head_bytes = to.to_le_bytes();
        self.log
            .client
            .gwrite(w, eng, self.log.layout.log_off, &head_bytes, true, done)?;
        self.head = to;
        Ok(())
    }

    /// Bytes of log space in use. An executed log reclaims space only
    /// once the head is persisted, and keeps the end cursor of the
    /// newest persisted record, which a later head copy may still read.
    pub fn used(&self) -> u64 {
        let reclaimed = if self.track_unapplied {
            self.log.durable.get().saturating_sub(8)
        } else {
            self.head
        };
        self.tail - reclaimed
    }

    /// Current (head, tail) cursors.
    pub fn cursors(&self) -> (u64, u64) {
        (self.head, self.tail)
    }

    /// `Append`: replicate a log record durably to all members as one
    /// flushed gWRITE of its frame, which ends with its own end cursor.
    /// The completion fires when that gWRITE is ACKed, i.e. the record
    /// is durable group-wide.
    ///
    /// All or nothing: on `Err` the record is not in the log. A record
    /// that does not fit in the rest of the ring's lap first closes the
    /// lap with a pad frame; if the record is refused after the pad was
    /// issued, the pad stays, a complete frame that readers step over.
    pub fn append(
        &mut self,
        w: &mut World,
        eng: &mut Engine<World>,
        rec: &LogRecord,
        done: OnDone,
    ) -> Result<(), Backpressure> {
        let LogLayout {
            log_cap: cap,
            db_off,
            ..
        } = self.log.layout;
        let len = rec.frame_len();
        assert!(len <= cap, "record larger than the log");
        let at = self.tail % cap;
        let pad = if at + len > cap { cap - at } else { 0 };
        if self.used() + pad + len > cap {
            return Err(Backpressure); // log full: caller must execute+truncate
        }
        let ring = self.log.layout.ring_off();
        if pad > 0 {
            let mut frame = vec![0u8; pad as usize];
            if pad as usize >= MIN_RECORD_FRAME {
                frame[..4].copy_from_slice(&PAD_MARKER.to_le_bytes());
            }
            frame[pad as usize - 8..].copy_from_slice(&(self.tail + pad).to_le_bytes());
            self.log
                .client
                .gwrite(w, eng, ring + at, &frame, true, Box::new(|_, _, _| {}))?;
            self.tail += pad;
        }
        let rec_off = ring + self.tail % cap;
        let end = self.tail + len;
        let done: OnDone = if self.track_unapplied {
            let log = self.log.clone();
            Box::new(move |w, eng, r| {
                log.acked.set(log.acked.get().max(end));
                done(w, eng, r);
            })
        } else {
            done
        };
        self.log
            .client
            .gwrite(w, eng, rec_off, &rec.encode_frame(end), true, done)?;
        self.tail = end;
        if self.track_unapplied {
            // Each entry's data follows the record header (4) and its
            // own (12).
            let mut src = rec_off + 4;
            for e in &rec.entries {
                src += 12;
                self.unapplied.push_back(Unapplied {
                    src,
                    dst: db_off + e.db_offset,
                    len: e.data.len() as u32,
                    end,
                });
                src += e.data.len() as u64;
            }
            if rec.entries.is_empty() {
                self.unapplied.push_back(Unapplied {
                    src,
                    dst: db_off,
                    len: 0,
                    end,
                });
            }
        }
        Ok(())
    }

    /// `ExecuteAndAdvance`: apply every record whose append has been
    /// ACKed to the database area on all members (one flushed gMEMCPY per
    /// redo entry, executed by the replicas' NICs from their own log
    /// copies), then advance and persist the head (truncation) with one
    /// flushed 8-byte gMEMCPY of the newest applied record's end cursor
    /// onto the head word. The head copy is issued right behind the
    /// document copies: gMEMCPYs apply on each member in issue order,
    /// each after the previous one's flush ([`GroupClient`]), so no
    /// member's durable head passes a record whose copies are not
    /// durable there.
    ///
    /// `done` fires when every copy is ACKed: applied and flushed
    /// everywhere, head persisted. An execute with nothing of its own to
    /// apply copies the head again, so it reports once the copies issued
    /// before it have landed; one on a log that never applied anything
    /// reports from a scheduled event. Never re-entrantly.
    ///
    /// All or nothing: on `Err` the unapplied records and the head are
    /// as they were and `done` will not fire. Copies issued before the
    /// refusal still land, but no head copy was issued (it goes last);
    /// redo is idempotent, so the retry that issues them again writes
    /// the same bytes.
    pub fn execute_and_advance(
        &mut self,
        w: &mut World,
        eng: &mut Engine<World>,
        done: OnDone,
    ) -> Result<(), Backpressure> {
        // Records are ACKed in append order (one gWRITE ring), so the
        // ready entries are a prefix. A record still in flight on the
        // gWRITE ring must not be copied on the gMEMCPY ring.
        let acked = self.log.acked.get();
        let ready = self.unapplied.iter().take_while(|u| u.end <= acked).count();
        let head = match ready {
            0 => self.head,
            n => self.unapplied[n - 1].end,
        };
        if head == 0 {
            eng.schedule(SimDuration::ZERO, move |w, eng| {
                done(w, eng, OpResult::default())
            });
            return Ok(());
        }
        let layout = &self.log.layout;
        let head_copy = (
            layout.ring_off() + (head - 8) % layout.log_cap,
            layout.log_off,
            8,
        );
        let copies = || {
            let entries = self.unapplied.iter().take(ready).filter(|u| u.len > 0);
            entries.map(|u| (u.src, u.dst, u.len)).chain([head_copy])
        };
        let ex = Rc::new(RefCell::new(Execution {
            log: self.log.clone(),
            head,
            left: copies().count(),
            done: Some(done),
        }));
        for (src, dst, len) in copies() {
            let on_copy = ex.clone();
            let res = self.log.client.gmemcpy(
                w,
                eng,
                src,
                dst,
                len,
                true,
                Box::new(move |w, eng, r| Execution::copied(&on_copy, w, eng, r)),
            );
            if res.is_err() {
                // The copies already issued report to no one.
                ex.borrow_mut().done = None;
                return Err(Backpressure);
            }
        }
        self.unapplied.drain(..ready);
        self.head = head;
        Ok(())
    }
}

/// One `execute_and_advance` in flight.
struct Execution<C: GroupClient> {
    log: Rc<LogShared<C>>,
    /// Head cursor past this execute's records.
    head: u64,
    /// gMEMCPYs not yet ACKed, the head copy included.
    left: usize,
    /// `None` once fired (or abandoned on refusal).
    done: Option<OnDone>,
}

impl<C: GroupClient + 'static> Execution<C> {
    fn copied(ex: &Rc<RefCell<Self>>, w: &mut World, eng: &mut Engine<World>, r: OpResult) {
        let mut e = ex.borrow_mut();
        e.left -= 1;
        if e.left > 0 {
            return;
        }
        let Some(done) = e.done.take() else {
            return;
        };
        e.log.durable.set(e.log.durable.get().max(e.head));
        drop(e);
        done(w, eng, r);
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
/// cells stored in the replicated region. A cell is 16 bytes: the lock
/// word at `lock_off`, then a word that holds [`lockword::FREE`] and
/// that nothing writes, the source of every release. Zeroed NVM is a
/// free cell.
pub struct GroupLock<C: GroupClient> {
    client: Rc<C>,
    /// Offset of the lock cell (its lock word).
    pub lock_off: u64,
    /// This client's owner id.
    pub owner: u32,
}

impl<C: GroupClient + 'static> GroupLock<C> {
    /// Bind the 16-byte lock cell at `lock_off`.
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
    /// The undo is re-issued after a backoff while the client refuses
    /// it: dropped, it would leave those members held forever.
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
                    let undo = Cas {
                        cmp: want,
                        swp: lockword::FREE,
                        map: succeeded,
                    };
                    let done = Box::new(move |w: &mut World, eng: &mut Engine<World>, _| {
                        done(w, eng, LockOutcome::Contended)
                    });
                    undo.issue_until_accepted(
                        client,
                        lock_off,
                        w,
                        eng,
                        Rc::new(Cell::new(Some(done))),
                    );
                }
            }),
        )?;
        Ok(())
    }

    /// `wrUnlock`: release on every member, by the caller that holds
    /// the write lock. The release is an unflushed 8-byte gMEMCPY of the
    /// cell's FREE word onto the lock word, so on each member it lands
    /// only after every gMEMCPY this client issued before it, flushed
    /// (the [`GroupClient`] ordering): a reader that finds the word free
    /// there finds the copies made under the lock, durable.
    pub fn wr_unlock(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        done: OnLock,
    ) -> Result<(), Backpressure> {
        self.client.gmemcpy(
            w,
            eng,
            self.lock_off + 8,
            self.lock_off,
            8,
            false,
            Box::new(move |w, eng, _r: OpResult| {
                done(w, eng, LockOutcome::Acquired);
            }),
        )?;
        Ok(())
    }

    /// `rdLock`: take a read share on member `m` only (readers scale
    /// across replicas). Retries the reader-count CAS up to `retries`
    /// times on races; fails as contended when a writer holds the word.
    /// `Err` means the first CAS was refused; a retry the client refuses
    /// is re-issued after a backoff.
    pub fn rd_lock(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        member: usize,
        retries: u32,
        done: OnLock,
    ) -> Result<(), Backpressure> {
        let first = Cas {
            cmp: lockword::FREE,
            swp: lockword::readers(1),
            map: 1 << member,
        };
        let on_ack = self.reader_step(member, true, first.cmp, retries, done);
        self.client.gcas(
            w,
            eng,
            self.lock_off,
            first.cmp,
            first.swp,
            first.map,
            on_ack,
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
        let first = Cas {
            cmp: lockword::readers(1),
            swp: lockword::FREE,
            map: 1 << member,
        };
        let on_ack = self.reader_step(member, false, first.cmp, retries, done);
        self.client.gcas(
            w,
            eng,
            self.lock_off,
            first.cmp,
            first.swp,
            first.map,
            on_ack,
        )?;
        Ok(())
    }

    /// The ACK handler of a reader-count CAS on `member` that expected
    /// `cmp`: done on a match; on a race with another reader, the next
    /// CAS from the count it found (re-issued while refused).
    fn reader_step(
        &self,
        member: usize,
        take: bool,
        cmp: u64,
        retries: u32,
        done: OnLock,
    ) -> OnDone {
        let lock = GroupLock {
            client: self.client.clone(),
            lock_off: self.lock_off,
            owner: self.owner,
        };
        Box::new(move |w, eng, r: OpResult| {
            let orig = r.results[member];
            if orig == cmp {
                done(w, eng, LockOutcome::Acquired);
                return;
            }
            // A writer blocks a reader; a release needs a read share.
            let raced = if take {
                orig & lockword::WRITER == 0
            } else {
                orig & lockword::READER != 0
            };
            if !raced || retries == 0 {
                done(w, eng, LockOutcome::Contended);
                return;
            }
            let count = (orig & !lockword::READER) as u32;
            let swp = match (take, count) {
                (true, _) => lockword::readers(count + 1),
                (false, 0 | 1) => lockword::FREE,
                (false, _) => lockword::readers(count - 1),
            };
            let next = Cas {
                cmp: orig,
                swp,
                map: 1 << member,
            };
            let on_ack = lock.reader_step(member, take, orig, retries - 1, done);
            next.issue_until_accepted(
                lock.client.clone(),
                lock.lock_off,
                w,
                eng,
                Rc::new(Cell::new(Some(on_ack))),
            );
        })
    }
}

/// A gCAS issued from inside a completion, where a refusal cannot be
/// returned to the caller.
#[derive(Clone, Copy)]
struct Cas {
    cmp: u64,
    swp: u64,
    map: u32,
}

impl Cas {
    /// Issue the gCAS on the word at `offset`; while the client refuses
    /// it, re-issue it after [`REFUSED_BACKOFF`]. `on_ack` runs once.
    fn issue_until_accepted<C: GroupClient + 'static>(
        self,
        client: Rc<C>,
        offset: u64,
        w: &mut World,
        eng: &mut Engine<World>,
        on_ack: Rc<Cell<Option<OnDone>>>,
    ) {
        let pending = on_ack.clone();
        let res = client.gcas(
            w,
            eng,
            offset,
            self.cmp,
            self.swp,
            self.map,
            Box::new(move |w, eng, r| {
                if let Some(on_ack) = pending.take() {
                    on_ack(w, eng, r);
                }
            }),
        );
        if res.is_err() {
            eng.schedule(REFUSED_BACKOFF, move |w, eng| {
                self.issue_until_accepted(client, offset, w, eng, on_ack)
            });
        }
    }
}
