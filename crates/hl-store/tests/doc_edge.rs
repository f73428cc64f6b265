//! doclite edge cases: the upsert's critical path, lock contention
//! between pipelined transactions and between stores, refused issues,
//! durability at `done`, lock-free mode, and document/slot boundaries.

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimDuration, SimTime};
use hl_store::doc::{DocLayout, DocStore, Document};
use hyperloop::api::{lockword, FrameReader, GroupClient, LogLayout, LogRecord, RedoEntry};
use hyperloop::{replica, Backpressure, GroupBuilder, GroupConfig, HyperLoopClient, OnDone};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn setup() -> (World, Engine<World>, Rc<HyperLoopClient>) {
    let (mut w, mut eng) = ClusterBuilder::new(3)
        .arena_size(8 << 20)
        .seed(71)
        .race_detector()
        .build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 2 << 20,
        ring_slots: 64,
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = Rc::new(HyperLoopClient::new(group, &mut w));
    (w, eng, client)
}

fn assert_race_free(w: &World) {
    let report = w.race_report();
    assert!(
        report.is_empty(),
        "race detector flagged:\n{}",
        report.join("\n")
    );
}

fn doc(id: u64, marker: &str) -> Document {
    let mut d = Document::new(id);
    d.set("m", marker.as_bytes());
    d
}

/// Two upserts issued back-to-back: the second's wrLock finds the lock
/// held, backs off, retries, and both commit with the later value
/// winning the shared slot.
#[test]
fn pipelined_upserts_serialize_via_group_lock() {
    let (mut w, mut eng, client) = setup();
    let store = DocStore::open(client.clone(), DocLayout::default(), 1, true);
    let done = Rc::new(RefCell::new(0u32));
    for marker in ["first", "second"] {
        let d = done.clone();
        store
            .upsert(
                &mut w,
                &mut eng,
                &doc(5, marker),
                Box::new(move |_w, _e, _r| *d.borrow_mut() += 1),
            )
            .unwrap();
    }
    let probe = done.clone();
    eng.run_while(&mut w, move |_| *probe.borrow() < 2);
    assert_eq!(store.committed(), 2);
    // Journal appends are FIFO on the gWRITE ring, so "second" executed
    // last and owns the slot.
    let got = store.read(&mut w, 5).unwrap();
    assert_eq!(got.get("m"), Some(b"second".as_slice()));
    // The lock is free on every member.
    for m in 0..3 {
        use hyperloop::api::GroupClient;
        let host = client.member_host(m);
        let v = w.hosts[host.0]
            .mem
            .read_u64(client.member_addr(m, DocLayout::default().lock_off))
            .unwrap();
        assert_eq!(v, 0, "member {m} lock free");
    }
    assert_race_free(&w);
}

/// Lock-free mode (weaker isolation, as §7's non-ACID variants): same
/// data path minus the gCAS pair.
#[test]
fn lock_free_mode_commits_without_touching_lock_word() {
    let (mut w, mut eng, client) = setup();
    let store = DocStore::open(client.clone(), DocLayout::default(), 1, false);
    let done = Rc::new(RefCell::new(0u32));
    for id in 0..5u64 {
        let d = done.clone();
        store
            .upsert(
                &mut w,
                &mut eng,
                &doc(id, "nolock"),
                Box::new(move |_w, _e, _r| *d.borrow_mut() += 1),
            )
            .unwrap();
        let probe = done.clone();
        let want = id as u32 + 1;
        eng.run_while(&mut w, move |_| *probe.borrow() < want);
    }
    assert_eq!(store.committed(), 5);
    for id in 0..5 {
        assert!(store.read(&mut w, id).is_some());
        assert!(store.read_at(&mut w, 2, id).is_some());
    }
    // No gCAS ever ran: the lock word was never written.
    use hyperloop::api::GroupClient;
    let v = w.hosts[1]
        .mem
        .read_u64(client.member_addr(1, DocLayout::default().lock_off))
        .unwrap();
    assert_eq!(v, 0);
}

/// Documents hash onto slots; two ids that collide (id % n_slots) are
/// last-writer-wins in the slot — the store's documented semantics.
#[test]
fn slot_collisions_are_last_writer_wins() {
    let (mut w, mut eng, client) = setup();
    let layout = DocLayout {
        n_slots: 16,
        ..Default::default()
    };
    let store = DocStore::open(client, layout, 1, true);
    let done = Rc::new(RefCell::new(0u32));
    for id in [3u64, 19] {
        // 19 % 16 == 3: same slot.
        let d = done.clone();
        store
            .upsert(
                &mut w,
                &mut eng,
                &doc(id, "v"),
                Box::new(move |_w, _e, _r| *d.borrow_mut() += 1),
            )
            .unwrap();
        let probe = done.clone();
        eng.run_while(&mut w, move |_| *probe.borrow() < 1);
    }
    let probe = done.clone();
    eng.run_while(&mut w, move |_| *probe.borrow() < 2);
    // The slot now holds id 19; a read of 3 sees the collision.
    let got = store.read(&mut w, 3).unwrap();
    assert_eq!(got.id, 19);
}

/// A maximal document that exactly fits its slot round-trips; the slot
/// header length is validated everywhere.
#[test]
fn max_size_document_fits_slot_exactly() {
    let (mut w, mut eng, client) = setup();
    let layout = DocLayout::default();
    let slot = layout.slot_size as usize;
    let store = DocStore::open(client, layout, 1, true);
    // Build a document whose encoding is exactly slot - 4.
    let mut d = Document::new(1);
    let overhead = d.encoded_len() + 2 + 1 + 4; // one field named "x"
    d.set("x", &vec![9u8; slot - 4 - overhead]);
    assert_eq!(d.encoded_len() + 4, slot);
    let done = Rc::new(RefCell::new(0u32));
    let dn = done.clone();
    store
        .upsert(
            &mut w,
            &mut eng,
            &d,
            Box::new(move |_w, _e, _r| *dn.borrow_mut() += 1),
        )
        .unwrap();
    let probe = done.clone();
    eng.run_while(&mut w, move |_| *probe.borrow() < 1);
    let got = store.read(&mut w, 1).unwrap();
    assert_eq!(got.get("x").unwrap().len(), slot - 4 - overhead);
    let _ = eng.now() < SimTime::MAX;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prim {
    Write,
    Copy,
    Cas,
}

/// One group operation a store issued, as a [`Probe`] saw it.
#[derive(Debug, Clone, Copy)]
struct Issued {
    prim: Prim,
    /// gWRITE/gCAS: target offset; gMEMCPY: source offset.
    offset: u64,
    /// gMEMCPY destination; gCAS compare value.
    arg: u64,
    /// gCAS swap value and execute map.
    swp: u64,
    map: u32,
    at: SimTime,
    acked: Option<SimTime>,
    /// gCAS: every member held the compare value.
    swapped: bool,
}

impl Issued {
    fn new(prim: Prim, offset: u64, arg: u64) -> Self {
        Issued {
            prim,
            offset,
            arg,
            swp: 0,
            map: 0,
            at: SimTime::ZERO,
            acked: None,
            swapped: false,
        }
    }
}

/// A [`GroupClient`] that records every operation it forwards (issue
/// and ACK instants) and can refuse the `n`-th gCAS that frees the lock
/// word (a partial `wrLock`'s undo) or the `n`-th gMEMCPY as if its
/// ring were out of credits.
struct Probe {
    inner: Rc<HyperLoopClient>,
    ops: Rc<RefCell<Vec<Issued>>>,
    undos: Cell<u32>,
    refuse_undo: u32,
    copies: Cell<u32>,
    refuse_copy: u32,
}

impl Probe {
    fn new(inner: Rc<HyperLoopClient>) -> Self {
        Probe {
            inner,
            ops: Rc::new(RefCell::new(Vec::new())),
            undos: Cell::new(0),
            refuse_undo: 0,
            copies: Cell::new(0),
            refuse_copy: 0,
        }
    }

    fn record(&self, eng: &Engine<World>, op: Issued, done: OnDone) -> OnDone {
        let ops = self.ops.clone();
        let i = ops.borrow().len();
        let arg = op.arg;
        ops.borrow_mut().push(Issued {
            at: eng.now(),
            ..op
        });
        Box::new(move |w, eng, r| {
            {
                let mut ops = ops.borrow_mut();
                ops[i].acked = Some(eng.now());
                ops[i].swapped = r.results.iter().all(|&orig| orig == arg);
            }
            done(w, eng, r);
        })
    }

    /// Forget a record whose issue the inner client refused.
    fn unrecord<T>(&self, res: Result<T, Backpressure>) -> Result<T, Backpressure> {
        if res.is_err() {
            self.ops.borrow_mut().pop();
        }
        res
    }

    fn ops(&self) -> Vec<Issued> {
        self.ops.borrow().clone()
    }
}

impl GroupClient for Probe {
    fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        let done = self.record(eng, Issued::new(Prim::Write, offset, 0), done);
        let res = self.inner.gwrite(w, eng, offset, data, flush, done);
        self.unrecord(res)
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
        let done = self.record(eng, Issued::new(Prim::Copy, src_off, dst_off), done);
        let res = GroupClient::gmemcpy(&*self.inner, w, eng, src_off, dst_off, len, flush, done);
        self.unrecord(res)
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
        if swp == lockword::FREE {
            self.undos.set(self.undos.get() + 1);
            if self.undos.get() == self.refuse_undo {
                return Err(Backpressure);
            }
        }
        let done = self.record(
            eng,
            Issued {
                swp,
                map: exec_map,
                ..Issued::new(Prim::Cas, offset, cmp)
            },
            done,
        );
        let res = GroupClient::gcas(&*self.inner, w, eng, offset, cmp, swp, exec_map, done);
        self.unrecord(res)
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

/// The group word at `offset` on every member.
fn words<C: GroupClient>(w: &World, c: &C, offset: u64) -> Vec<u64> {
    (0..c.group_size())
        .map(|m| {
            w.hosts[c.member_host(m).0]
                .mem
                .read_u64(c.member_addr(m, offset))
                .unwrap()
        })
        .collect()
}

/// Member `m`'s journal as the frame reader finds it from cursor
/// `from` in its durable bytes: the records and the stop cursor.
fn journal<C: GroupClient>(
    w: &World,
    c: &C,
    log: &LogLayout,
    m: usize,
    from: u64,
) -> (Vec<LogRecord>, u64) {
    let ring = w.hosts[c.member_host(m).0]
        .mem
        .read_durable(c.member_addr(m, log.ring_off()), log.log_cap as usize)
        .unwrap();
    let mut frames = FrameReader::new(&ring, from);
    let recs = frames
        .by_ref()
        .map(|b| LogRecord::decode(b).unwrap())
        .collect();
    (recs, frames.cursor())
}

/// Run the engine until `settled()` holds, failing (rather than
/// hanging) if 50 ms of simulated time pass first.
fn run_until_settled(w: &mut World, eng: &mut Engine<World>, settled: impl Fn() -> bool + 'static) {
    let expired = Rc::new(Cell::new(false));
    let e = expired.clone();
    eng.schedule(SimDuration::from_millis(50), move |_, _| e.set(true));
    let settled = Rc::new(settled);
    let s = settled.clone();
    eng.run_while(w, move |_| !s() && !expired.get());
    assert!(settled(), "not settled after 50 ms of simulated time");
}

/// Run upserts of `docs` one after another; `done` instants in order.
fn upsert_each<C: GroupClient + 'static>(
    w: &mut World,
    eng: &mut Engine<World>,
    store: &DocStore<C>,
    docs: &[Document],
) -> Vec<SimTime> {
    let fired = Rc::new(RefCell::new(Vec::new()));
    for (k, d) in docs.iter().enumerate() {
        let f = fired.clone();
        store
            .upsert(
                w,
                eng,
                d,
                Box::new(move |_w, eng, _r| f.borrow_mut().push(eng.now())),
            )
            .unwrap();
        let probe = fired.clone();
        run_until_settled(w, eng, move || probe.borrow().len() > k);
    }
    let fired = fired.borrow().clone();
    fired
}

/// One upsert is two dependent round trips of five operations: the
/// append's one gWRITE and the wrLock gCAS leave together; when both
/// are ACKed, the document gMEMCPY, the head gMEMCPY (the record's end
/// cursor onto the head word) and the release gMEMCPY (the lock cell's
/// FREE word onto the lock word) leave back to back in that order, are
/// ACKed in that order, and `done` fires at the last ACK.
#[test]
fn upsert_overlaps_append_with_lock_and_unlock_with_truncation() {
    let (mut w, mut eng, client) = setup();
    let probe = Rc::new(Probe::new(client));
    let layout = DocLayout::default();
    let log = layout.log.clone();
    let store = DocStore::open(probe.clone(), layout.clone(), 1, true);
    let fired = upsert_each(&mut w, &mut eng, &store, &[doc(5, "x")]);

    let ops = probe.ops();
    let find = |what: &str, f: &dyn Fn(&Issued) -> bool| -> (usize, Issued) {
        let hits: Vec<_> = ops.iter().enumerate().filter(|(_, o)| f(o)).collect();
        assert_eq!(hits.len(), 1, "one {what}: {ops:?}");
        (hits[0].0, *hits[0].1)
    };
    let (_, record) = find("record gWRITE", &|o| o.prim == Prim::Write);
    let (_, lock) = find("wrLock", &|o| {
        o.prim == Prim::Cas && o.swp == lockword::writer(1)
    });
    let (i, copy) = find("document gMEMCPY", &|o| {
        o.prim == Prim::Copy && o.arg >= log.db_off
    });
    let (j, head) = find("head gMEMCPY", &|o| {
        o.prim == Prim::Copy && o.arg == log.log_off
    });
    let (k, release) = find("release gMEMCPY", &|o| {
        o.prim == Prim::Copy && o.arg == layout.lock_off
    });
    assert_eq!(ops.len(), 5, "{ops:?}");
    assert_eq!((j, k), (i + 1, i + 2), "copy, head, release in issue order");
    assert_eq!(release.offset, layout.lock_off + 8, "the cell's FREE word");

    // The journal holds the one record; the head copy read its end
    // cursor, and every member's head word now holds it.
    let (recs, end) = journal(&w, &*probe, &log, 0, 0);
    assert_eq!(recs.len(), 1);
    assert_eq!(record.offset, log.ring_off());
    assert_eq!(head.offset, log.ring_off() + end - 8, "the end cursor");
    assert_eq!(words(&w, &*probe, log.log_off), vec![end; 3]);
    assert_eq!(words(&w, &*probe, layout.lock_off), vec![0; 3]);

    assert_eq!(record.at, lock.at, "append ∥ wrLock");
    let both = record.acked.unwrap().max(lock.acked.unwrap());
    assert_eq!(copy.at, both, "execute waits for the append and the lock");
    assert_eq!(head.at, copy.at, "the head copy rides behind the document");
    assert_eq!(release.at, copy.at, "and the release behind the head");
    let acks = [copy, head, release].map(|o| o.acked.unwrap());
    assert!(
        acks[0] <= acks[1] && acks[1] <= acks[2],
        "ACKed in issue order: {acks:?}"
    );
    assert_eq!(fired, vec![acks[2]], "done at the last ACK");
    assert_eq!(store.committed(), 1);
}

/// A refused release gMEMCPY is re-issued after a backoff: `done`
/// fires, the upsert counts, and the lock word ends free everywhere, so
/// the next upsert takes the lock at once.
#[test]
fn refused_unlock_is_retried() {
    let (mut w, mut eng, client) = setup();
    // gMEMCPYs 1 and 2 are the document and head copies; 3 the release.
    let probe = Rc::new(Probe {
        refuse_copy: 3,
        ..Probe::new(client)
    });
    let layout = DocLayout::default();
    let store = DocStore::open(probe.clone(), layout.clone(), 1, true);
    let fired = upsert_each(&mut w, &mut eng, &store, &[doc(5, "x")]);
    assert_eq!(fired.len(), 1);
    assert_eq!(store.committed(), 1);
    assert_eq!(
        probe.copies.get(),
        4,
        "the release refused once, then issued"
    );
    let releases = |probe: &Probe| {
        probe
            .ops()
            .iter()
            .filter(|o| o.prim == Prim::Copy && o.arg == layout.lock_off)
            .count()
    };
    assert_eq!(releases(&probe), 1);
    assert_eq!(words(&w, &*probe, layout.lock_off), vec![0; 3]);

    upsert_each(&mut w, &mut eng, &store, &[doc(6, "y")]);
    let locks = probe
        .ops()
        .iter()
        .filter(|o| o.prim == Prim::Cas && o.swp != lockword::FREE)
        .count();
    assert_eq!(locks, 2, "the second upsert's wrLock was not contended");
    assert_eq!(releases(&probe), 2);
    assert_eq!(store.committed(), 2);
}

/// A refused gMEMCPY leaves the journal as it was and the execute is
/// re-issued: every upsert completes, applied on every member, with the
/// head at the tail.
#[test]
fn refused_copy_is_retried() {
    let (mut w, mut eng, client) = setup();
    // gMEMCPYs 1-3 are the first upsert's document, head and release
    // copies; 4 is the second upsert's document copy.
    let probe = Rc::new(Probe {
        refuse_copy: 4,
        ..Probe::new(client)
    });
    let layout = DocLayout::default();
    let store = DocStore::open(probe.clone(), layout.clone(), 1, true);
    let docs = [doc(1, "a"), doc(2, "b"), doc(3, "c")];
    let fired = upsert_each(&mut w, &mut eng, &store, &docs);
    assert_eq!(fired.len(), 3);
    assert_eq!(store.committed(), 3);
    assert_eq!(
        probe.copies.get(),
        10,
        "three document copies, three head copies, three releases and the refused one"
    );
    for d in &docs {
        for m in 0..3 {
            assert_eq!(
                store.read_at(&mut w, m, d.id).as_ref(),
                Some(d),
                "member {m}"
            );
        }
    }
    let (recs, end) = journal(&w, &*probe, &layout.log, 0, 0);
    assert_eq!(recs.len(), 3);
    let head = words(&w, &*probe, layout.log.log_off);
    assert_eq!(head, vec![end; 3], "truncated through the last record");
    assert_eq!(words(&w, &*probe, layout.lock_off), vec![0; 3]);
}

/// Four back-to-back upserts from one store and two from a second store
/// (another owner, its own journal) contend for one group lock over one
/// database area. Every upsert commits; every gMEMCPY is issued while
/// its store holds the lock; each slot ends with its last writer's
/// document on every member; the lock ends free.
#[test]
fn two_stores_contend_for_one_group_lock() {
    let (mut w, mut eng, client) = setup();
    let probe = Rc::new(Probe::new(client));
    let one = DocLayout::default();
    let two = DocLayout {
        log: LogLayout {
            log_off: 300 << 10,
            log_cap: 128 << 10,
            ..one.log.clone()
        },
        ..one.clone()
    };
    let stores = [
        DocStore::open(probe.clone(), one.clone(), 1, true),
        DocStore::open(probe.clone(), two.clone(), 2, true),
    ];
    let writes = [
        (0, doc(5, "1a")),
        (0, doc(6, "1b")),
        (1, doc(6, "2a")),
        (0, doc(5, "1c")),
        (1, doc(7, "2b")),
        (0, doc(6, "1d")),
    ];
    let fired = Rc::new(Cell::new(0));
    for (s, d) in &writes {
        let f = fired.clone();
        stores[*s]
            .upsert(
                &mut w,
                &mut eng,
                d,
                Box::new(move |_w, _e, _r| f.set(f.get() + 1)),
            )
            .unwrap();
    }
    let f = fired.clone();
    let n = writes.len();
    run_until_settled(&mut w, &mut eng, move || f.get() == n);
    assert_eq!((stores[0].committed(), stores[1].committed()), (4, 2));

    // Replay the probe's record: lock handovers, and which copy landed
    // in each slot last (the gMEMCPY ring is FIFO). A release is the
    // gMEMCPY onto the lock word, issued behind its store's own copies.
    let owner_of_log = |src: u64| if src >= two.log.log_off { 2 } else { 1 };
    let mut events: Vec<(SimTime, u8, Issued)> = Vec::new();
    for o in probe.ops() {
        events.push((o.at, 1, o));
        events.push((o.acked.expect("every op ACKed"), 0, o));
    }
    events.sort_by_key(|(t, phase, _)| (*t, *phase));
    let mut holder = None;
    let mut copier = None;
    let mut releases = 0;
    let mut last_copy = std::collections::BTreeMap::new();
    for (_, phase, o) in &events {
        match (o.prim, phase) {
            (Prim::Cas, 0) if o.swp != lockword::FREE && o.swapped => {
                assert_eq!(holder, None, "two holders");
                holder = Some(o.swp & !lockword::WRITER);
            }
            (Prim::Copy, 1) if o.arg == one.lock_off => {
                assert_eq!(o.offset, one.lock_off + 8, "the FREE word");
                assert!(holder.is_some(), "release of a free lock");
                assert_eq!(holder, copier, "unlock by the holder");
                holder = None;
                releases += 1;
            }
            (Prim::Copy, 1) => {
                assert_eq!(
                    holder,
                    Some(owner_of_log(o.offset)),
                    "copy outside the lock"
                );
                copier = holder;
                last_copy.insert(o.arg, o.offset);
            }
            _ => {}
        }
    }
    assert_eq!(holder, None);
    assert_eq!(releases, writes.len());

    for id in [5u64, 6, 7] {
        let dst = one.log.db_off + id * one.slot_size;
        // Within a store the journal order is the apply order, so the
        // last writer is the last upsert to the slot of the store whose
        // copy landed last.
        let winner = owner_of_log(last_copy[&dst]) as usize - 1;
        let want = &writes
            .iter()
            .rev()
            .find(|(s, d)| *s == winner && d.id == id)
            .expect("that store wrote this slot")
            .1;
        for m in 0..3 {
            assert_eq!(
                stores[0].read_at(&mut w, m, id).as_ref(),
                Some(want),
                "slot {id} member {m}"
            );
        }
    }
    assert_eq!(
        stores[0].read(&mut w, 5).unwrap().get("m"),
        Some(b"1c".as_slice())
    );
    assert_eq!(words(&w, &*probe, one.lock_off), vec![0; 3]);
    assert_race_free(&w);
}

/// Power-failing every member at the instant `done` fires loses
/// nothing the upsert promised: the document is durable everywhere, and
/// so is a head at the end of the journal.
#[test]
fn crash_at_done_keeps_document_and_truncation() {
    let (mut w, mut eng, client) = setup();
    let layout = DocLayout::default();
    let store = DocStore::open(client.clone(), layout.clone(), 1, true);
    upsert_each(&mut w, &mut eng, &store, &[doc(3, "warm")]);

    let crashed = Rc::new(Cell::new(false));
    let c = crashed.clone();
    let members: Vec<HostId> = (0..3)
        .map(|m| GroupClient::member_host(&*client, m))
        .collect();
    store
        .upsert(
            &mut w,
            &mut eng,
            &doc(9, "durable"),
            Box::new(move |w, _e, _r| {
                for h in &members {
                    w.hosts[h.0].mem.crash();
                }
                c.set(true);
            }),
        )
        .unwrap();
    let c = crashed.clone();
    run_until_settled(&mut w, &mut eng, move || c.get());
    for m in 0..3 {
        let got = store.read_at(&mut w, m, 9).expect("document survived");
        assert_eq!(got.get("m"), Some(b"durable".as_slice()), "member {m}");
    }
    for m in 0..3 {
        let (recs, end) = journal(&w, &*client, &layout.log, m, 0);
        assert_eq!(recs.len(), 2, "member {m}: both records durable");
        let head = words(&w, &*client, layout.log.log_off)[m];
        assert_eq!(head, end, "member {m}: truncated through both");
    }
}

/// A wrLock that finds one member held by another owner swaps the
/// others and undoes them. An undo the client refuses is re-issued, not
/// dropped (dropped, it would leave those members held by this store
/// forever): once the other owner lets go, the upsert takes the lock
/// and completes, and the lock word ends free on every member.
#[test]
fn refused_lock_undo_is_retried() {
    let (mut w, mut eng, client) = setup();
    // The first gCAS that frees the word is the partial wrLock's undo.
    let probe = Rc::new(Probe {
        refuse_undo: 1,
        ..Probe::new(client)
    });
    let layout = DocLayout::default();
    let (host, addr) = (probe.member_host(2), probe.member_addr(2, layout.lock_off));
    w.hosts[host.0]
        .mem
        .write_u64(addr, lockword::writer(99))
        .unwrap();
    eng.schedule(SimDuration::from_micros(300), move |w, _| {
        w.hosts[host.0].mem.write_u64(addr, lockword::FREE).unwrap()
    });
    let store = DocStore::open(probe.clone(), layout.clone(), 1, true);
    let fired = upsert_each(&mut w, &mut eng, &store, &[doc(5, "x")]);
    assert_eq!(fired.len(), 1);
    assert_eq!(store.committed(), 1);
    let undos: Vec<Issued> = probe
        .ops()
        .into_iter()
        .filter(|o| o.prim == Prim::Cas && o.swp == lockword::FREE && o.map != 0b111)
        .collect();
    assert!(!undos.is_empty());
    assert_eq!(
        probe.undos.get() as usize,
        undos.len() + 1,
        "the refused undo and every undo issued (the release is a gMEMCPY)"
    );
    assert_eq!(words(&w, &*probe, layout.lock_off), vec![0; 3]);
}

/// The record of journal append `i`: `n` bytes that name `i`.
fn numbered_record(i: usize, n: usize) -> LogRecord {
    LogRecord {
        entries: vec![RedoEntry {
            db_offset: 0,
            data: (0..n).map(|k| (i * 31 + k) as u8).collect(),
        }],
    }
}

/// What survives a power failure of every member at any event boundary
/// of a stream of pipelined upserts and of appends to a second journal:
/// on each member, the durable scan of each journal is a prefix of what
/// was appended that holds every ACKed record, and the durable head is
/// the end of a record and never passes one whose document copy is not
/// durable there. Recovery reads one member's head and slots, so that
/// member-local rule is the whole contract: the client member applies
/// the head at issue, long before the group ACKs anything.
#[test]
fn crash_at_every_event_boundary_keeps_acked_records_and_applied_heads() {
    // Small arenas: every member's NVM is cloned at every boundary.
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(1 << 20).seed(73).build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 256 << 10,
        ring_slots: 64,
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let probe = Rc::new(Probe::new(Rc::new(HyperLoopClient::new(group, &mut w))));
    let layout = DocLayout {
        log: LogLayout {
            log_off: 64,
            log_cap: 32 << 10,
            db_off: 64 << 10,
        },
        n_slots: 16,
        ..Default::default()
    };
    let wal = LogLayout {
        log_off: 128 << 10,
        log_cap: 4 << 10,
        db_off: 192 << 10,
    };
    let store = DocStore::open(probe.clone(), layout.clone(), 1, true);
    let mut plain = hyperloop::api::ReplicatedLog::new(probe.clone(), wal.clone());
    plain.set_tracking(false);

    let docs: Vec<Document> = (0..4)
        .map(|id| doc(id, &"v".repeat(id as usize + 1)))
        .collect();
    let records: Vec<LogRecord> = (0..4).map(|i| numbered_record(i, 40 + 60 * i)).collect();
    let done = Rc::new(Cell::new(0));
    let wal_acked = Rc::new(Cell::new(0));
    for (d, rec) in docs.iter().zip(&records) {
        let f = done.clone();
        store
            .upsert(
                &mut w,
                &mut eng,
                d,
                Box::new(move |_, _, _| f.set(f.get() + 1)),
            )
            .unwrap();
        let a = wal_acked.clone();
        plain
            .append(
                &mut w,
                &mut eng,
                rec,
                Box::new(move |_, _, _| a.set(a.get() + 1)),
            )
            .unwrap();
    }
    // The journal records the upserts append, in issue order.
    let journaled: Vec<LogRecord> = docs
        .iter()
        .map(|d| LogRecord {
            entries: vec![RedoEntry {
                db_offset: d.id * layout.slot_size,
                data: d.encode_slot(layout.slot_size as usize),
            }],
        })
        .collect();
    let mut ends = Vec::new();
    for r in &journaled {
        ends.push(ends.last().copied().unwrap_or(0) + r.frame_len());
    }

    let ring = layout.log.ring_off();
    let deadline = SimTime::from_nanos(50_000_000);
    let mut boundaries = 0;
    while done.get() < docs.len() {
        assert!(eng.now() < deadline, "not settled after 50 ms");
        assert!(eng.step(&mut w));
        boundaries += 1;
        // Appends whose one gWRITE has been ACKed, per journal.
        let acked = |lo: u64, hi: u64| {
            probe
                .ops()
                .iter()
                .filter(|o| o.prim == Prim::Write && o.acked.is_some())
                .filter(|o| (lo..hi).contains(&o.offset))
                .count()
        };
        let doc_acked = acked(ring, ring + layout.log.log_cap);
        for m in 0..3 {
            let mut mem = w.hosts[probe.member_host(m).0].mem.clone();
            mem.crash();
            let base = probe.member_addr(m, 0);
            let read = |off: u64, len: u64| mem.read(base + off, len as usize).unwrap();

            let mut frames = FrameReader::new(read(ring, layout.log.log_cap), 0);
            let got: Vec<LogRecord> = frames
                .by_ref()
                .take(docs.len() + 1)
                .map(|b| LogRecord::decode(b).unwrap())
                .collect();
            assert!(
                got.len() <= docs.len() && got[..] == journaled[..got.len()],
                "member {m}: the durable journal is not a prefix"
            );
            assert!(
                got.len() >= doc_acked,
                "member {m}: an ACKed append is lost"
            );
            let head = u64::from_le_bytes(read(layout.log.log_off, 8).try_into().unwrap());
            let applied = ends.iter().take_while(|&&e| e <= head).count();
            assert!(
                head == 0 || (applied > 0 && ends[applied - 1] == head && applied <= got.len()),
                "member {m}: durable head {head} is not the end of a durable record"
            );
            for d in &docs[..applied] {
                let slot = read(
                    layout.log.db_off + d.id * layout.slot_size,
                    layout.slot_size,
                );
                assert_eq!(
                    Document::decode_slot(slot).as_ref(),
                    Some(d),
                    "member {m}: the durable head passed doc {} before its copy was durable",
                    d.id
                );
            }

            let mut frames = FrameReader::new(read(wal.ring_off(), wal.log_cap), 0);
            let got: Vec<LogRecord> = frames
                .by_ref()
                .take(records.len() + 1)
                .map(|b| LogRecord::decode(b).unwrap())
                .collect();
            assert!(
                got.len() <= records.len() && got[..] == records[..got.len()],
                "member {m}: the durable WAL is not a prefix"
            );
            assert!(
                got.len() >= wal_acked.get(),
                "member {m}: an ACKed WAL append is lost"
            );
        }
    }
    assert_eq!(wal_acked.get(), records.len());
    assert!(boundaries > 100, "{boundaries} boundaries");
}

/// Which group client a crash probe runs on.
#[derive(Debug, Clone, Copy)]
enum Backend {
    HyperLoop,
    Naive,
}

/// Violations a crash probe found, summed over members and boundaries.
#[derive(Debug, Default, PartialEq, Eq)]
struct Violations {
    /// A durable head past a record whose document is not durable.
    head_before_document: usize,
    /// A lock word seen held that reads free before the document it
    /// guarded is durable.
    release_before_document: usize,
}

/// `n` upserts, one after another, each to a slot of its own, on a
/// g = 3 group whose NICs take a memory-bus contention hit on half their
/// local DMAs. At every event boundary every member's NVM is cloned and
/// crashed. On each member: the durable head never passes a record
/// whose document is not durable there, and once the lock word has been
/// seen held, finding it free means the document of the upsert in
/// flight is durable there. The world runs under the race detector and
/// must end with an empty report.
fn doc_crash_probe(backend: Backend, seed: u64, n: u64) -> Violations {
    let profile = hl_sim::config::HwProfile {
        nic: hl_sim::config::NicProfile {
            contention_prob: 0.5,
            ..Default::default()
        },
        ..Default::default()
    };
    let (mut w, mut eng) = ClusterBuilder::new(3)
        .arena_size(1 << 20)
        .profile(profile)
        .seed(seed)
        .race_detector()
        .build();
    let (client, replicas) = (HostId(0), vec![HostId(1), HostId(2)]);
    let rep_bytes = 256 << 10;
    let found = match backend {
        Backend::HyperLoop => {
            let group = GroupBuilder::new(GroupConfig {
                client,
                replicas,
                rep_bytes,
                ring_slots: 64,
                ..Default::default()
            })
            .build(&mut w);
            replica::start_replenishers(&group, &mut w, &mut eng);
            let c = Rc::new(HyperLoopClient::new(group, &mut w));
            crash_every_boundary(&mut w, &mut eng, c, n)
        }
        Backend::Naive => {
            let c = hyperloop::naive::NaiveBuilder::new(hyperloop::naive::NaiveConfig {
                client,
                replicas,
                rep_bytes,
                ring_slots: 64,
                ..Default::default()
            })
            .build(&mut w, &mut eng);
            crash_every_boundary(&mut w, &mut eng, Rc::new(c), n)
        }
    };
    assert_race_free(&w);
    found
}

fn crash_every_boundary<C: GroupClient + 'static>(
    w: &mut World,
    eng: &mut Engine<World>,
    client: Rc<C>,
    n: u64,
) -> Violations {
    let layout = DocLayout {
        log: LogLayout {
            log_off: 64,
            log_cap: 32 << 10,
            db_off: 64 << 10,
        },
        n_slots: 64,
        ..Default::default()
    };
    let store = DocStore::open(client.clone(), layout.clone(), 1, true);
    let docs: Vec<Document> = (0..n).map(|id| doc(id, &format!("v{id}"))).collect();
    let mut ends = Vec::new();
    let g = client.group_size();
    let mut found = Violations::default();
    // Per member: documents checked durable, and whether the lock word
    // has been seen held during the upsert in flight.
    let (mut durable, mut held) = (vec![0usize; g], vec![false; g]);
    let done = Rc::new(Cell::new(0u64));
    for (k, d) in docs.iter().enumerate() {
        let f = done.clone();
        store
            .upsert(w, eng, d, Box::new(move |_, _, _| f.set(f.get() + 1)))
            .unwrap();
        let frame = LogRecord {
            entries: vec![RedoEntry {
                db_offset: d.id * layout.slot_size,
                data: d.encode_slot(layout.slot_size as usize),
            }],
        }
        .frame_len();
        // The journal's record ring closes a lap with a pad frame.
        let tail = ends.last().copied().unwrap_or(0);
        let at = tail % layout.log.log_cap;
        let pad = if at + frame > layout.log.log_cap {
            layout.log.log_cap - at
        } else {
            0
        };
        ends.push(tail + pad + frame);
        let deadline = eng.now() + SimDuration::from_millis(50);
        while done.get() <= k as u64 {
            assert!(eng.now() < deadline, "upsert {k} not settled after 50 ms");
            assert!(eng.step(w));
            for m in 0..g {
                let live = &w.hosts[client.member_host(m).0].mem;
                let base = client.member_addr(m, 0);
                let mut mem = live.clone();
                mem.crash();
                let slot_of = |d: &Document| {
                    let off = base + layout.log.db_off + d.id * layout.slot_size;
                    Document::decode_slot(mem.read(off, layout.slot_size as usize).unwrap())
                };
                let head = mem.read_u64(base + layout.log.log_off).unwrap();
                let applied = ends.iter().take_while(|&&e| e <= head).count();
                while durable[m] < applied {
                    if slot_of(&docs[durable[m]]).as_ref() != Some(&docs[durable[m]]) {
                        found.head_before_document += 1;
                        break;
                    }
                    durable[m] += 1;
                }
                let word = live.read_u64(base + layout.lock_off).unwrap();
                if word != lockword::FREE {
                    held[m] = true;
                } else if held[m] {
                    held[m] = false;
                    if slot_of(d).as_ref() != Some(d) {
                        found.release_before_document += 1;
                    }
                }
            }
        }
    }
    assert_eq!(store.committed(), n);
    found
}

/// Nothing an upsert promised can be lost to a crash on one member, and
/// no reader there can see the lock free before the document is durable.
#[test]
fn crash_at_every_event_boundary_keeps_documents_under_head_and_lock() {
    for seed in [73, 2] {
        let found = doc_crash_probe(Backend::HyperLoop, seed, 40);
        assert_eq!(found, Violations::default(), "seed {seed}");
    }
}

/// The same probe over seeds 1–16 on both backends:
/// `cargo test -p hl-store --test doc_edge -- --ignored`.
#[test]
#[ignore = "seed grid for CI's durability-grid job"]
fn doc_crash_probe_grid() {
    for seed in 1..=16 {
        for backend in [Backend::HyperLoop, Backend::Naive] {
            let found = doc_crash_probe(backend, seed, 40);
            assert_eq!(found, Violations::default(), "{backend:?} seed {seed}");
        }
    }
}
