//! Tests for the storage-facing API: replicated write-ahead log and
//! group locks.

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimTime};
use hyperloop::api::{
    lockword, FrameReader, GroupClient, GroupLock, LockOutcome, LogLayout, LogRecord, RedoEntry,
    ReplicatedLog,
};
use hyperloop::{replica, Backpressure, GroupBuilder, GroupConfig, HyperLoopClient, OnDone};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn setup() -> (World, Engine<World>, Rc<HyperLoopClient>) {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(4 << 20).seed(5).build();
    let cfg = GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 1 << 20,
        ring_slots: 64,
        ..Default::default()
    };
    let group = GroupBuilder::new(cfg).build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = Rc::new(HyperLoopClient::new(group, &mut w));
    (w, eng, client)
}

/// Member `m`'s journal as a reader finds it after a power failure
/// (its durable bytes), from cursor `from`: the records, and the cursor
/// the reader stopped at.
fn scan<C: GroupClient>(
    w: &World,
    c: &C,
    layout: &LogLayout,
    m: usize,
    from: u64,
) -> (Vec<LogRecord>, u64) {
    let ring = w.hosts[c.member_host(m).0]
        .mem
        .read_durable(c.member_addr(m, layout.ring_off()), layout.log_cap as usize)
        .unwrap();
    let mut frames = FrameReader::new(&ring, from);
    let recs = frames
        .by_ref()
        .map(|b| LogRecord::decode(b).unwrap())
        .collect();
    (recs, frames.cursor())
}

fn flag() -> (Rc<RefCell<u32>>, hyperloop::OnDone) {
    let f = Rc::new(RefCell::new(0u32));
    let f2 = f.clone();
    (f, Box::new(move |_w, _e, _r| *f2.borrow_mut() += 1))
}

#[test]
fn log_record_roundtrip() {
    let rec = LogRecord {
        entries: vec![
            RedoEntry {
                db_offset: 0x10,
                data: b"value-a".to_vec(),
            },
            RedoEntry {
                db_offset: 0x200,
                data: vec![9u8; 100],
            },
        ],
    };
    let enc = rec.encode();
    assert_eq!(enc.len() as u64, rec.encoded_len());
    assert_eq!(LogRecord::decode(&enc), Some(rec));
    assert_eq!(LogRecord::decode(&[1, 2]), None);
}

#[test]
fn append_replicates_record_and_tail_pointer() {
    let (mut w, mut eng, client) = setup();
    let layout = LogLayout {
        log_off: 0,
        log_cap: 64 << 10,
        db_off: 128 << 10,
    };
    let mut log = ReplicatedLog::new(client.clone(), layout.clone());
    let rec = LogRecord {
        entries: vec![RedoEntry {
            db_offset: 8,
            data: b"hello-db".to_vec(),
        }],
    };
    let (done, cb) = flag();
    log.append(&mut w, &mut eng, &rec, cb).unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    assert_eq!(*done.borrow(), 1);

    // The record's frame sits at record-ring offset 0 on every member,
    // durably, and ends with its end cursor: the durable scan from 0
    // yields exactly the record and stops at the end of its frame.
    let frame = rec.encode_frame(rec.frame_len());
    for m in 0..3 {
        let host = if m == 0 { 0 } else { m };
        let addr = client.member_addr(m, 64);
        assert_eq!(
            w.hosts[host].mem.read_vec(addr, frame.len()).unwrap(),
            frame,
            "member {m} frame"
        );
        assert!(w.hosts[host].mem.is_durable(addr, frame.len()));
        assert_eq!(
            scan(&w, &*client, &layout, m, 0),
            (vec![rec.clone()], rec.frame_len()),
            "member {m} journal"
        );
    }
    assert_eq!(log.cursors(), (0, rec.frame_len()));
}

#[test]
fn execute_and_advance_applies_to_db_everywhere() {
    let (mut w, mut eng, client) = setup();
    let layout = LogLayout {
        log_off: 0,
        log_cap: 64 << 10,
        db_off: 128 << 10,
    };
    let mut log = ReplicatedLog::new(client.clone(), layout.clone());
    let rec = LogRecord {
        entries: vec![
            RedoEntry {
                db_offset: 0,
                data: b"alpha".to_vec(),
            },
            RedoEntry {
                db_offset: 0x100,
                data: b"beta".to_vec(),
            },
        ],
    };
    let (a_done, a_cb) = flag();
    log.append(&mut w, &mut eng, &rec, a_cb).unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    assert_eq!(*a_done.borrow(), 1);

    let (done, done_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, done_cb).unwrap();
    let probe = done.clone();
    eng.run_while(&mut w, move |_| *probe.borrow() == 0);

    // Applied: both entries durable in every member's database area.
    for m in 0..3 {
        let host = if m == 0 { 0 } else { m };
        let a = client.member_addr(m, 128 << 10);
        let b = client.member_addr(m, (128 << 10) + 0x100);
        assert_eq!(
            w.hosts[host].mem.read(a, 5).unwrap(),
            b"alpha",
            "member {m}"
        );
        assert_eq!(w.hosts[host].mem.read(b, 4).unwrap(), b"beta", "member {m}");
        assert!(w.hosts[host].mem.is_durable(a, 5));
        assert!(w.hosts[host].mem.is_durable(b, 4));
    }
    // Persisted: the head word equals the log's tail on every member,
    // durably, and nothing is left in the durable journal past it.
    let (h, t) = log.cursors();
    assert_eq!(h, t);
    for m in 0..3 {
        let host = if m == 0 { 0 } else { m };
        let head = w.hosts[host]
            .mem
            .read_u64(client.member_addr(m, 0))
            .unwrap();
        assert_eq!(head, t, "member {m} truncated");
        assert!(w.hosts[host].mem.is_durable(client.member_addr(m, 0), 8));
        assert_eq!(scan(&w, &*client, &layout, m, head), (vec![], t));
    }
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!(*done.borrow(), 1);
}

#[test]
fn log_backpressures_when_full() {
    let (mut w, mut eng, client) = setup();
    let layout = LogLayout {
        log_off: 0,
        log_cap: 256, // tiny
        db_off: 128 << 10,
    };
    let mut log = ReplicatedLog::new(client.clone(), layout);
    let rec = LogRecord {
        entries: vec![RedoEntry {
            db_offset: 0,
            data: vec![1u8; 100],
        }],
    };
    let (_, cb1) = flag();
    log.append(&mut w, &mut eng, &rec, cb1).unwrap();
    let (_, cb2) = flag();
    log.append(&mut w, &mut eng, &rec, cb2).unwrap();
    // Third append exceeds capacity.
    let (_, cb3) = flag();
    assert!(log.append(&mut w, &mut eng, &rec, cb3).is_err());
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));

    // After execute (truncation) there is room again.
    let (done, cbe) = flag();
    log.execute_and_advance(&mut w, &mut eng, cbe).unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!(*done.borrow(), 1);
    let (_, cb4) = flag();
    log.append(&mut w, &mut eng, &rec, cb4).unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(15_000_000));
}

/// A [`GroupClient`] that refuses the `refuse_copy`-th gMEMCPY, the
/// `refuse_write`-th gWRITE (1-based; 0 = none) and every gCAS numbered
/// in `refuse_cas` as if their rings were out of credits, and forwards
/// everything else.
struct Refusing {
    inner: Rc<HyperLoopClient>,
    copies: Cell<u32>,
    refuse_copy: u32,
    writes: Cell<u32>,
    refuse_write: u32,
    cas: Cell<u32>,
    refuse_cas: Vec<u32>,
}

impl Refusing {
    fn new(inner: Rc<HyperLoopClient>, refuse_copy: u32, refuse_write: u32) -> Self {
        Refusing {
            inner,
            copies: Cell::new(0),
            refuse_copy,
            writes: Cell::new(0),
            refuse_write,
            cas: Cell::new(0),
            refuse_cas: Vec::new(),
        }
    }
}

impl GroupClient for Refusing {
    fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        self.writes.set(self.writes.get() + 1);
        if self.writes.get() == self.refuse_write {
            return Err(Backpressure);
        }
        self.inner.gwrite(w, eng, offset, data, flush, done)
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
        self.copies.set(self.copies.get() + 1);
        if self.copies.get() == self.refuse_copy {
            return Err(Backpressure);
        }
        GroupClient::gmemcpy(&*self.inner, w, eng, src_off, dst_off, len, flush, done)
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
        self.cas.set(self.cas.get() + 1);
        if self.refuse_cas.contains(&self.cas.get()) {
            return Err(Backpressure);
        }
        GroupClient::gcas(&*self.inner, w, eng, offset, cmp, swp, exec_map, done)
    }
    fn gflush(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        len: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        GroupClient::gflush(&*self.inner, w, eng, offset, len, done)
    }
    fn group_size(&self) -> usize {
        self.inner.group_size()
    }
    fn member_addr(&self, m: usize, offset: u64) -> u64 {
        self.inner.member_addr(m, offset)
    }
    fn member_host(&self, m: usize) -> HostId {
        GroupClient::member_host(&*self.inner, m)
    }
}

fn two_entry_record() -> LogRecord {
    LogRecord {
        entries: vec![
            RedoEntry {
                db_offset: 0,
                data: b"alpha".to_vec(),
            },
            RedoEntry {
                db_offset: 0x100,
                data: b"beta".to_vec(),
            },
        ],
    }
}

fn db_layout() -> LogLayout {
    LogLayout {
        log_off: 0,
        log_cap: 64 << 10,
        db_off: 128 << 10,
    }
}

/// Every member's bytes at `offset`.
fn on_members<C: GroupClient>(w: &World, c: &C, offset: u64, len: usize) -> Vec<Vec<u8>> {
    (0..c.group_size())
        .map(|m| {
            let host = c.member_host(m);
            w.hosts[host.0]
                .mem
                .read_vec(c.member_addr(m, offset), len)
                .unwrap()
        })
        .collect()
}

/// An execute issued while the append's gWRITEs are still in flight
/// must not copy the record: the gMEMCPY ring is not ordered after the
/// gWRITE ring. It applies nothing and the record waits for the next.
#[test]
fn execute_applies_only_acked_appends() {
    let (mut w, mut eng, client) = setup();
    let mut log = ReplicatedLog::new(client.clone(), db_layout());
    let (appended, a_cb) = flag();
    log.append(&mut w, &mut eng, &two_entry_record(), a_cb)
        .unwrap();
    let (done, done_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, done_cb).unwrap();
    assert_eq!(log.cursors().0, 0, "head stays before the unacked record");
    assert_eq!(*done.borrow(), 0, "never reported re-entrantly");
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    assert_eq!((*appended.borrow(), *done.borrow()), (1, 1));
    assert_eq!(on_members(&w, &*client, 128 << 10, 5), vec![vec![0; 5]; 3]);

    let (done, done_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, done_cb).unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!(*done.borrow(), 1);
    assert_eq!(
        on_members(&w, &*client, 128 << 10, 5),
        vec![b"alpha".to_vec(); 3]
    );
    let (h, t) = log.cursors();
    assert_eq!(h, t);
    assert_eq!(
        on_members(&w, &*client, 0, 8),
        vec![h.to_le_bytes().to_vec(); 3]
    );
}

/// A refusal after the first copy leaves the log as it was: the record
/// is still unapplied, the head has not moved and `done` never fires.
/// The retry issues both copies and completes.
#[test]
fn refused_copy_leaves_the_log_unchanged() {
    let (mut w, mut eng, inner) = setup();
    let client = Rc::new(Refusing::new(inner, 2, 0));
    let mut log = ReplicatedLog::new(client.clone(), db_layout());
    let (_, a_cb) = flag();
    log.append(&mut w, &mut eng, &two_entry_record(), a_cb)
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    let before = log.cursors();

    let (done, done_cb) = flag();
    assert!(log.execute_and_advance(&mut w, &mut eng, done_cb).is_err());
    assert_eq!(log.cursors(), before);
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!(*done.borrow(), 0);
    // The first copy was issued before the refusal and landed.
    assert_eq!(
        on_members(&w, &*client, 128 << 10, 5),
        vec![b"alpha".to_vec(); 3]
    );
    assert_eq!(on_members(&w, &*client, 0, 8), vec![vec![0; 8]; 3]);

    let (done, done_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, done_cb).unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(15_000_000));
    assert_eq!(*done.borrow(), 1);
    assert_eq!(
        client.copies.get(),
        5,
        "1 + refused + both again + the head copy"
    );
    assert_eq!(
        on_members(&w, &*client, (128 << 10) + 0x100, 4),
        vec![b"beta".to_vec(); 3]
    );
    let (h, t) = log.cursors();
    assert_eq!((h, t), (before.1, before.1));
    assert_eq!(
        on_members(&w, &*client, 0, 8),
        vec![t.to_le_bytes().to_vec(); 3]
    );
}

/// A refused head copy refuses the whole execute: the document copies
/// issued before it land, but the record stays unapplied, the head does
/// not move and `done` never fires. The caller's retry issues every
/// copy again and the head lands at the tail on every member.
#[test]
fn refused_head_copy_is_reissued() {
    let (mut w, mut eng, inner) = setup();
    // gMEMCPYs 1 and 2 apply the record's entries; 3 is the head copy.
    let client = Rc::new(Refusing::new(inner, 3, 0));
    let mut log = ReplicatedLog::new(client.clone(), db_layout());
    let (_, a_cb) = flag();
    log.append(&mut w, &mut eng, &two_entry_record(), a_cb)
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    let before = log.cursors();
    let (refused, refused_cb) = flag();
    assert!(log
        .execute_and_advance(&mut w, &mut eng, refused_cb)
        .is_err());
    assert_eq!(log.cursors(), before);
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!(*refused.borrow(), 0);
    assert_eq!(on_members(&w, &*client, 0, 8), vec![vec![0; 8]; 3]);

    let (done, done_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, done_cb).unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(15_000_000));
    assert_eq!(*done.borrow(), 1);
    assert_eq!(
        client.copies.get(),
        6,
        "two copies, the refused head, all three again"
    );
    assert_eq!(client.writes.get(), 1, "the append is one gWRITE");
    let (h, t) = log.cursors();
    assert_eq!((h, t), (before.1, before.1));
    assert_eq!(
        on_members(&w, &*client, 0, 8),
        vec![t.to_le_bytes().to_vec(); 3]
    );
}

/// An execute with nothing of its own to apply, issued while an earlier
/// execute's copies are in flight, copies the head again behind them on
/// the gMEMCPY ring: it reports only after the earlier execute has.
#[test]
fn empty_execute_waits_for_copies_in_flight() {
    let (mut w, mut eng, client) = setup();
    let mut log = ReplicatedLog::new(client.clone(), db_layout());
    let (_, a_cb) = flag();
    log.append(&mut w, &mut eng, &two_entry_record(), a_cb)
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));

    let order = Rc::new(RefCell::new(Vec::new()));
    let note = |what: &'static str| -> OnDone {
        let order = order.clone();
        Box::new(move |_w, eng: &mut Engine<World>, _r| order.borrow_mut().push((what, eng.now())))
    };
    log.execute_and_advance(&mut w, &mut eng, note("first"))
        .unwrap();
    let issued = eng.now();
    log.execute_and_advance(&mut w, &mut eng, note("second"))
        .unwrap();
    assert!(order.borrow().is_empty());
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    let order = order.borrow();
    let names: Vec<_> = order.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, ["first", "second"]);
    assert!(order[0].1 > issued, "the first waited for its copies");
    assert!(order[1].1 > order[0].1, "the second for its own head copy");
    let (h, t) = log.cursors();
    assert_eq!(h, t);
    assert_eq!(
        on_members(&w, &*client, 0, 8),
        vec![t.to_le_bytes().to_vec(); 3]
    );
}

/// With nothing appended, an execute still reports, from a scheduled
/// event rather than inside the call, and copies nothing.
#[test]
fn execute_of_an_empty_log_reports_from_an_event() {
    let (mut w, mut eng, inner) = setup();
    let client = Rc::new(Refusing::new(inner, 0, 0));
    let mut log = ReplicatedLog::new(client.clone(), db_layout());
    let (done, done_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, done_cb).unwrap();
    assert_eq!(*done.borrow(), 0);
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    assert_eq!(*done.borrow(), 1);
    assert_eq!(log.cursors(), (0, 0));
    assert_eq!(client.copies.get(), 0);
}

/// Lock cells (16 bytes each) clear of every log layout above.
const WR_LOCK: u64 = 0xf_0000;
const RD_LOCK: u64 = 0xf_0100;

fn lock_sink(log: &Rc<RefCell<Vec<LockOutcome>>>) -> hyperloop::api::OnLock {
    let log = log.clone();
    Box::new(move |_w, _e, o| log.borrow_mut().push(o))
}

#[test]
fn wr_lock_acquire_and_release() {
    let (mut w, mut eng, client) = setup();
    let lock = GroupLock::new(client.clone(), WR_LOCK, 17);
    let outcomes = Rc::new(RefCell::new(Vec::new()));

    lock.wr_lock(&mut w, &mut eng, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    assert_eq!(outcomes.borrow()[0], LockOutcome::Acquired);
    // Lock word on every member is WRITER|17.
    for m in 0..3 {
        let host = if m == 0 { 0 } else { m };
        let v = w.hosts[host]
            .mem
            .read_u64(client.member_addr(m, WR_LOCK))
            .unwrap();
        assert_eq!(v, lockword::writer(17), "member {m}");
    }

    // A second writer fails and rolls back nothing (all were held).
    let lock2 = GroupLock::new(client.clone(), WR_LOCK, 23);
    lock2
        .wr_lock(&mut w, &mut eng, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!(outcomes.borrow()[1], LockOutcome::Contended);

    // Release; then the second writer succeeds.
    lock.wr_unlock(&mut w, &mut eng, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(15_000_000));
    // The release copied the cell's FREE word onto the lock word.
    assert_eq!(on_members(&w, &*client, WR_LOCK, 16), vec![vec![0; 16]; 3]);
    lock2
        .wr_lock(&mut w, &mut eng, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(20_000_000));
    assert_eq!(outcomes.borrow()[3], LockOutcome::Acquired);
}

#[test]
fn partial_wr_lock_is_rolled_back() {
    let (mut w, mut eng, client) = setup();
    // Pre-claim the lock word on replica 2 only (member index 2) by
    // writing directly — simulating a racing holder.
    let addr = client.member_addr(2, WR_LOCK);
    w.hosts[2]
        .mem
        .write_u64(addr, lockword::writer(99))
        .unwrap();

    let lock = GroupLock::new(client.clone(), WR_LOCK, 17);
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    lock.wr_lock(&mut w, &mut eng, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!(outcomes.borrow()[0], LockOutcome::Contended);
    // The members that briefly swapped were undone: client + replica 1
    // are FREE again, replica 2 still belongs to 99.
    for m in 0..2 {
        let host = if m == 0 { 0 } else { m };
        let v = w.hosts[host]
            .mem
            .read_u64(client.member_addr(m, WR_LOCK))
            .unwrap();
        assert_eq!(v, lockword::FREE, "member {m} rolled back");
    }
    let v = w.hosts[2].mem.read_u64(addr).unwrap();
    assert_eq!(v, lockword::writer(99));
}

#[test]
fn read_locks_count_and_block_writers() {
    let (mut w, mut eng, client) = setup();
    let lock = GroupLock::new(client.clone(), RD_LOCK, 1);
    let outcomes = Rc::new(RefCell::new(Vec::new()));

    // Two readers on member 1.
    lock.rd_lock(&mut w, &mut eng, 1, 3, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    lock.rd_lock(&mut w, &mut eng, 1, 3, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!(
        *outcomes.borrow(),
        vec![LockOutcome::Acquired, LockOutcome::Acquired]
    );
    let v = w.hosts[1]
        .mem
        .read_u64(client.member_addr(1, RD_LOCK))
        .unwrap();
    assert_eq!(v, lockword::readers(2));

    // A writer is blocked while member 1 has readers.
    lock.wr_lock(&mut w, &mut eng, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(15_000_000));
    assert_eq!(outcomes.borrow()[2], LockOutcome::Contended);

    // Readers release; writer succeeds.
    lock.rd_unlock(&mut w, &mut eng, 1, 3, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(20_000_000));
    lock.rd_unlock(&mut w, &mut eng, 1, 3, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(25_000_000));
    lock.wr_lock(&mut w, &mut eng, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(30_000_000));
    assert_eq!(*outcomes.borrow().last().unwrap(), LockOutcome::Acquired);
}

/// Reader-count retries that the client refuses are re-issued, not
/// dropped: a second reader's `rdLock` races the first (its CAS finds
/// one reader), and its retry is refused; then the first reader's
/// `rdUnlock` races the second's share and its retry is refused too.
/// Every operation still completes and the word ends free.
#[test]
fn refused_reader_retries_are_reissued() {
    let (mut w, mut eng, inner) = setup();
    // gCAS 3 is the second rdLock's retry, 6 the first rdUnlock's.
    let client = Rc::new(Refusing {
        refuse_cas: vec![3, 6],
        ..Refusing::new(inner, 0, 0)
    });
    let lock = GroupLock::new(client.clone(), RD_LOCK, 1);
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let word = |w: &World| {
        w.hosts[1]
            .mem
            .read_u64(client.member_addr(1, RD_LOCK))
            .unwrap()
    };

    for _ in 0..2 {
        lock.rd_lock(&mut w, &mut eng, 1, 3, lock_sink(&outcomes))
            .unwrap();
        eng.run_until(&mut w, eng.now() + hl_sim::SimDuration::from_millis(1));
    }
    assert_eq!(word(&w), lockword::readers(2));
    for _ in 0..2 {
        lock.rd_unlock(&mut w, &mut eng, 1, 3, lock_sink(&outcomes))
            .unwrap();
        eng.run_until(&mut w, eng.now() + hl_sim::SimDuration::from_millis(1));
    }
    assert_eq!(*outcomes.borrow(), vec![LockOutcome::Acquired; 4]);
    assert_eq!(word(&w), lockword::FREE);
    assert_eq!(client.cas.get(), 8, "two refused, each issued again");
}

/// The record of append `i`: `n` bytes that name `i`, so a frame left
/// from an earlier lap never passes for a later record.
fn numbered_record(i: usize, n: usize) -> LogRecord {
    LogRecord {
        entries: vec![RedoEntry {
            db_offset: (i as u64 % 8) * 128,
            data: (0..n).map(|k| (i * 31 + k) as u8).collect(),
        }],
    }
}

/// Member `m`'s journal from its head word, on its current bytes: the
/// head, the records (at most `limit`) and the reader's stop cursor.
fn scan_from_head<C: GroupClient>(
    w: &World,
    c: &C,
    layout: &LogLayout,
    m: usize,
    limit: usize,
) -> (u64, Vec<LogRecord>, u64) {
    let mem = &w.hosts[c.member_host(m).0].mem;
    let head = mem.read_u64(c.member_addr(m, layout.log_off)).unwrap();
    let ring = mem
        .read(c.member_addr(m, layout.ring_off()), layout.log_cap as usize)
        .unwrap();
    let mut frames = FrameReader::new(ring, head);
    let recs = frames
        .by_ref()
        .take(limit)
        .map(|b| LogRecord::decode(b).unwrap())
        .collect();
    (head, recs, frames.cursor())
}

/// Appended records, their end cursors and which appends are ACKed.
#[derive(Default)]
struct Journal {
    recs: Vec<LogRecord>,
    ends: Vec<u64>,
    acked: Rc<RefCell<Vec<bool>>>,
}

impl Journal {
    /// On every member: the head word is a frame boundary, and the
    /// reader from it returns exactly the next appended records in
    /// order, at least every ACKed one, and nothing else.
    fn check<C: GroupClient>(&self, w: &World, c: &C, layout: &LogLayout) {
        for m in 0..c.group_size() {
            let (head, got, _) = scan_from_head(w, c, layout, m, self.recs.len() + 1);
            let first = self.ends.iter().take_while(|&&e| e <= head).count();
            assert!(
                head == 0 || self.ends.get(first.wrapping_sub(1)) == Some(&head),
                "member {m}: head {head} is not the end of a record ({:?})",
                self.ends
            );
            let want = &self.recs[first..];
            assert!(
                got.len() <= want.len() && got[..] == want[..got.len()],
                "member {m}: from head {head} read {} records, not a prefix of the {} after it",
                got.len(),
                want.len()
            );
            let acked = self.acked.borrow()[first..].iter().filter(|&&a| a).count();
            assert!(got.len() >= acked, "member {m}: an ACKed record is missing");
        }
    }
}

/// Step the engine one event at a time, checking the journal on every
/// member at each boundary, until `settled()` (or fail after 20 ms).
fn step_checking<C: GroupClient>(
    w: &mut World,
    eng: &mut Engine<World>,
    c: &C,
    layout: &LogLayout,
    journal: &Journal,
    settled: impl Fn() -> bool,
) {
    let deadline = eng.now() + hl_sim::SimDuration::from_millis(20);
    while !settled() {
        assert!(eng.now() < deadline, "not settled after 20 ms");
        assert!(eng.step(w));
        journal.check(w, c, layout);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Records of random sizes go round a tiny ring for several laps,
    /// with executes (truncation) issued between appends without
    /// waiting for them. At every event boundary the frame reader, run
    /// on each member from that member's head word, returns exactly the
    /// appended records that member has not truncated, in order: never
    /// a frame left from an earlier lap, never one whose gWRITE has not
    /// landed there, never fewer than the ACKed ones. At the end every
    /// head is the tail and nothing is read past it.
    #[test]
    fn frame_reader_returns_exactly_the_untruncated_records(
        appends in proptest::collection::vec((1usize..100, 0u8..4, 0u32..30), 12..36),
    ) {
        let (mut w, mut eng, client) = setup();
        let layout = LogLayout { log_off: 0, log_cap: 384, db_off: 128 << 10 };
        let mut log = ReplicatedLog::new(client.clone(), layout.clone());
        let mut journal = Journal::default();
        let executes = Rc::new(Cell::new(0u32));
        let execute = |log: &mut ReplicatedLog<HyperLoopClient>, w: &mut World, eng: &mut Engine<World>| {
            let e = executes.clone();
            e.set(e.get() + 1);
            log.execute_and_advance(w, eng, Box::new(move |_, _, _| e.set(e.get() - 1)))
                .unwrap();
        };
        for (i, &(size, truncate, gap)) in appends.iter().enumerate() {
            let rec = numbered_record(i, size);
            journal.acked.borrow_mut().push(false);
            loop {
                let acked = journal.acked.clone();
                let cb: OnDone = Box::new(move |_, _, _| acked.borrow_mut()[i] = true);
                if log.append(&mut w, &mut eng, &rec, cb).is_ok() {
                    break;
                }
                // The ring is full: let the appends in flight land,
                // truncate, and wait for the head.
                let acked = journal.acked.clone();
                step_checking(&mut w, &mut eng, &*client, &layout, &journal, move || {
                    acked.borrow()[..i].iter().all(|&a| a)
                });
                execute(&mut log, &mut w, &mut eng);
                let e = executes.clone();
                step_checking(&mut w, &mut eng, &*client, &layout, &journal, move || e.get() == 0);
            }
            journal.recs.push(rec);
            journal.ends.push(log.cursors().1);
            if truncate == 0 {
                execute(&mut log, &mut w, &mut eng);
            }
            // Let `gap` events pass before the next append.
            let calls = Cell::new(0);
            step_checking(&mut w, &mut eng, &*client, &layout, &journal, || {
                calls.set(calls.get() + 1);
                calls.get() > gap
            });
        }
        let acked = journal.acked.clone();
        step_checking(&mut w, &mut eng, &*client, &layout, &journal, move || {
            acked.borrow().iter().all(|&a| a)
        });
        execute(&mut log, &mut w, &mut eng);
        let e = executes.clone();
        step_checking(&mut w, &mut eng, &*client, &layout, &journal, move || e.get() == 0);
        let (h, t) = log.cursors();
        prop_assert_eq!(h, t);
        for m in 0..3 {
            prop_assert_eq!(scan_from_head(&w, &*client, &layout, m, 1), (t, vec![], t));
        }
    }
}
