//! Tests for the storage-facing API: replicated write-ahead log and
//! group locks.

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimTime};
use hyperloop::api::{
    lockword, GroupClient, GroupLock, LockOutcome, LogLayout, LogRecord, RedoEntry, ReplicatedLog,
};
use hyperloop::{replica, Backpressure, GroupBuilder, GroupConfig, HyperLoopClient, OnDone};
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
    let mut log = ReplicatedLog::new(client.clone(), layout);
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

    // The encoded record sits at record-area offset 0 on every member,
    // durably; the tail control word (offset 8) equals the record size.
    let enc = rec.encode();
    for m in 0..3 {
        let host = if m == 0 { 0 } else { m };
        let addr = client.member_addr(m, 64);
        assert_eq!(
            w.hosts[host].mem.read_vec(addr, enc.len()).unwrap(),
            enc,
            "member {m} record"
        );
        let tail = w.hosts[host]
            .mem
            .read_u64(client.member_addr(m, 8))
            .unwrap();
        assert_eq!(tail, enc.len() as u64, "member {m} tail");
        assert!(w.hosts[host].mem.is_durable(addr, enc.len()));
    }
    assert_eq!(log.cursors(), (0, enc.len() as u64));
}

#[test]
fn execute_and_advance_applies_to_db_everywhere() {
    let (mut w, mut eng, client) = setup();
    let layout = LogLayout {
        log_off: 0,
        log_cap: 64 << 10,
        db_off: 128 << 10,
    };
    let mut log = ReplicatedLog::new(client.clone(), layout);
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

    let (applied, applied_cb) = flag();
    let (persisted, persisted_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, applied_cb, persisted_cb)
        .unwrap();
    let probe = applied.clone();
    eng.run_while(&mut w, move |_| *probe.borrow() == 0);
    assert_eq!(
        *persisted.borrow(),
        0,
        "the head gWRITE is issued at apply time"
    );

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
    let probe = persisted.clone();
    eng.run_while(&mut w, move |_| *probe.borrow() == 0);
    // Persisted: the head pointer advanced to the tail everywhere.
    for m in 0..3 {
        let host = if m == 0 { 0 } else { m };
        let head = w.hosts[host]
            .mem
            .read_u64(client.member_addr(m, 0))
            .unwrap();
        let tail = w.hosts[host]
            .mem
            .read_u64(client.member_addr(m, 8))
            .unwrap();
        assert_eq!(head, tail, "member {m} truncated");
    }
    let (h, t) = log.cursors();
    assert_eq!(h, t);
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!((*applied.borrow(), *persisted.borrow()), (1, 1));
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
    let (applied, applied_cb) = flag();
    let (done, cbe) = flag();
    log.execute_and_advance(&mut w, &mut eng, applied_cb, cbe)
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!((*applied.borrow(), *done.borrow()), (1, 1));
    let (_, cb4) = flag();
    log.append(&mut w, &mut eng, &rec, cb4).unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(15_000_000));
}

/// A [`GroupClient`] that refuses the `refuse_copy`-th gMEMCPY and the
/// `refuse_write`-th gWRITE (1-based; 0 = none) as if their rings were
/// out of credits, and forwards everything else.
struct Refusing {
    inner: Rc<HyperLoopClient>,
    copies: Cell<u32>,
    refuse_copy: u32,
    writes: Cell<u32>,
    refuse_write: u32,
}

impl Refusing {
    fn new(inner: Rc<HyperLoopClient>, refuse_copy: u32, refuse_write: u32) -> Self {
        Refusing {
            inner,
            copies: Cell::new(0),
            refuse_copy,
            writes: Cell::new(0),
            refuse_write,
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
    let (applied, applied_cb) = flag();
    let (persisted, persisted_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, applied_cb, persisted_cb)
        .unwrap();
    assert_eq!(log.cursors().0, 0, "head stays before the unacked record");
    assert_eq!(*applied.borrow(), 0, "never reported re-entrantly");
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    assert_eq!(
        (*appended.borrow(), *applied.borrow(), *persisted.borrow()),
        (1, 1, 1)
    );
    assert_eq!(on_members(&w, &*client, 128 << 10, 5), vec![vec![0; 5]; 3]);

    let (applied, applied_cb) = flag();
    let (persisted, persisted_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, applied_cb, persisted_cb)
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!((*applied.borrow(), *persisted.borrow()), (1, 1));
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
/// is still unapplied, the head has not moved and no callback fires.
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

    let (applied, applied_cb) = flag();
    let (persisted, persisted_cb) = flag();
    assert!(log
        .execute_and_advance(&mut w, &mut eng, applied_cb, persisted_cb)
        .is_err());
    assert_eq!(log.cursors(), before);
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!((*applied.borrow(), *persisted.borrow()), (0, 0));
    // The first copy was issued before the refusal and landed.
    assert_eq!(
        on_members(&w, &*client, 128 << 10, 5),
        vec![b"alpha".to_vec(); 3]
    );
    assert_eq!(on_members(&w, &*client, 0, 8), vec![vec![0; 8]; 3]);

    let (applied, applied_cb) = flag();
    let (persisted, persisted_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, applied_cb, persisted_cb)
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(15_000_000));
    assert_eq!((*applied.borrow(), *persisted.borrow()), (1, 1));
    assert_eq!(client.copies.get(), 4, "1 + refused + both again");
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

/// A refused head gWRITE is re-issued after a backoff: "persisted"
/// still fires, and the head lands at the tail on every member.
#[test]
fn refused_head_write_is_reissued() {
    let (mut w, mut eng, inner) = setup();
    // gWRITEs 1 and 2 are the append's record and tail; 3 is the head.
    let client = Rc::new(Refusing::new(inner, 0, 3));
    let mut log = ReplicatedLog::new(client.clone(), db_layout());
    let (_, a_cb) = flag();
    log.append(&mut w, &mut eng, &two_entry_record(), a_cb)
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    let (applied, applied_cb) = flag();
    let (persisted, persisted_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, applied_cb, persisted_cb)
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!((*applied.borrow(), *persisted.borrow()), (1, 1));
    assert_eq!(client.writes.get(), 4, "the head gWRITE went out twice");
    let (h, t) = log.cursors();
    assert_eq!(h, t);
    assert_eq!(
        on_members(&w, &*client, 0, 8),
        vec![t.to_le_bytes().to_vec(); 3]
    );
}

/// An execute with nothing of its own to apply, issued while an earlier
/// execute's copies are in flight, reports "applied" only when they have
/// landed, and "persisted" only after its own head gWRITE.
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
    log.execute_and_advance(&mut w, &mut eng, note("applied 1"), note("persisted 1"))
        .unwrap();
    log.execute_and_advance(&mut w, &mut eng, note("applied 2"), note("persisted 2"))
        .unwrap();
    assert!(order.borrow().is_empty());
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    let order = order.borrow();
    let names: Vec<_> = order.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        ["applied 1", "applied 2", "persisted 1", "persisted 2"]
    );
    assert_eq!(order[0].1, order[1].1, "released by the same copy ACK");
}

/// With nothing appended, an execute still reports both moments, the
/// first from a scheduled event rather than inside the call.
#[test]
fn execute_of_an_empty_log_reports_both_moments() {
    let (mut w, mut eng, client) = setup();
    let mut log = ReplicatedLog::new(client, db_layout());
    let (applied, applied_cb) = flag();
    let (persisted, persisted_cb) = flag();
    log.execute_and_advance(&mut w, &mut eng, applied_cb, persisted_cb)
        .unwrap();
    assert_eq!(*applied.borrow(), 0);
    eng.run_until(&mut w, SimTime::from_nanos(5_000_000));
    assert_eq!((*applied.borrow(), *persisted.borrow()), (1, 1));
    assert_eq!(log.cursors(), (0, 0));
}

fn lock_sink(log: &Rc<RefCell<Vec<LockOutcome>>>) -> hyperloop::api::OnLock {
    let log = log.clone();
    Box::new(move |_w, _e, o| log.borrow_mut().push(o))
}

#[test]
fn wr_lock_acquire_and_release() {
    let (mut w, mut eng, client) = setup();
    let lock = GroupLock::new(client.clone(), 0x900, 17);
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
            .read_u64(client.member_addr(m, 0x900))
            .unwrap();
        assert_eq!(v, lockword::writer(17), "member {m}");
    }

    // A second writer fails and rolls back nothing (all were held).
    let lock2 = GroupLock::new(client.clone(), 0x900, 23);
    lock2
        .wr_lock(&mut w, &mut eng, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(10_000_000));
    assert_eq!(outcomes.borrow()[1], LockOutcome::Contended);

    // Release; then the second writer succeeds.
    lock.wr_unlock(&mut w, &mut eng, lock_sink(&outcomes))
        .unwrap();
    eng.run_until(&mut w, SimTime::from_nanos(15_000_000));
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
    let addr = client.member_addr(2, 0x900);
    w.hosts[2]
        .mem
        .write_u64(addr, lockword::writer(99))
        .unwrap();

    let lock = GroupLock::new(client.clone(), 0x900, 17);
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
            .read_u64(client.member_addr(m, 0x900))
            .unwrap();
        assert_eq!(v, lockword::FREE, "member {m} rolled back");
    }
    let v = w.hosts[2].mem.read_u64(addr).unwrap();
    assert_eq!(v, lockword::writer(99));
}

#[test]
fn read_locks_count_and_block_writers() {
    let (mut w, mut eng, client) = setup();
    let lock = GroupLock::new(client.clone(), 0xa00, 1);
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
        .read_u64(client.member_addr(1, 0xa00))
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
