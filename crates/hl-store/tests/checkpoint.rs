//! kvlite checkpoint tests: memtable snapshots replicated to the
//! checkpoint area, log truncation, snapshot-based recovery, and a
//! refused header gWRITE.

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimDuration};
use hl_store::kv::{decode_snapshot, KvConfig, KvDb};
use hyperloop::api::GroupClient;
use hyperloop::{replica, Backpressure, GroupBuilder, GroupConfig, HyperLoopClient, OnDone};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn setup() -> (World, Engine<World>, Rc<HyperLoopClient>) {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(8 << 20).seed(61).build();
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

fn drain(eng: &mut Engine<World>, w: &mut World, flag: &Rc<RefCell<u32>>, want: u32) {
    let f = flag.clone();
    eng.run_while(w, move |_| *f.borrow() < want);
}

#[test]
fn checkpoint_replicates_snapshot_and_truncates() {
    let (mut w, mut eng, client) = setup();
    let mut db = KvDb::open(client.clone(), KvConfig::default(), &mut w, &mut eng);
    let acks = Rc::new(RefCell::new(0u32));
    for k in 0..30u32 {
        let a = acks.clone();
        db.put(
            &mut w,
            &mut eng,
            format!("ck{k:04}").as_bytes(),
            &[k as u8; 64],
            Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
        )
        .unwrap();
        drain(&mut eng, &mut w, &acks, k + 1);
    }
    let (_, tail_before) = db.log_cursors();
    assert!(tail_before > 0);

    // Checkpoint.
    let done = Rc::new(RefCell::new(0u32));
    let d = done.clone();
    db.checkpoint(
        &mut w,
        &mut eng,
        Box::new(move |_w, _e, _r| *d.borrow_mut() += 1),
    )
    .unwrap();
    drain(&mut eng, &mut w, &done, 1);

    // The log was truncated (head caught up to tail).
    let (head, tail) = db.log_cursors();
    assert_eq!(head, tail);

    // Every member holds the identical durable snapshot.
    for m in 0..3 {
        let snap = db.read_checkpoint(&w, m).expect("checkpoint on member");
        assert_eq!(snap.len(), 30, "member {m}");
        assert_eq!(snap.get(b"ck0011"), Some([11u8; 64].as_slice()));
    }

    // Crash every replica: the snapshot survives and fully rebuilds the
    // table (snapshot + empty log = recovery).
    for h in 1..3usize {
        w.hosts[h].mem.crash();
    }
    for m in 1..3 {
        let base = client.member_addr(m, KvConfig::default().layout.db_off);
        let len = w.hosts[m].mem.read_u32(base).unwrap() as usize;
        let bytes = w.hosts[m].mem.read_vec(base + 4, len).unwrap();
        let recovered = decode_snapshot(&bytes).expect("durable snapshot decodes");
        assert_eq!(recovered.len(), 30);
        assert_eq!(recovered.get(b"ck0029"), Some([29u8; 64].as_slice()));
    }
}

#[test]
fn checkpoint_then_more_writes_keeps_log_small() {
    let (mut w, mut eng, client) = setup();
    let mut db = KvDb::open(client.clone(), KvConfig::default(), &mut w, &mut eng);
    let acks = Rc::new(RefCell::new(0u32));
    for k in 0..10u32 {
        let a = acks.clone();
        db.put(
            &mut w,
            &mut eng,
            format!("a{k}").as_bytes(),
            b"1",
            Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
        )
        .unwrap();
        drain(&mut eng, &mut w, &acks, k + 1);
    }
    let done = Rc::new(RefCell::new(0u32));
    let d = done.clone();
    db.checkpoint(
        &mut w,
        &mut eng,
        Box::new(move |_w, _e, _r| *d.borrow_mut() += 1),
    )
    .unwrap();
    drain(&mut eng, &mut w, &done, 1);
    let (head1, _) = db.log_cursors();

    // Ten more writes append after the truncation point.
    for k in 10..20u32 {
        let a = acks.clone();
        db.put(
            &mut w,
            &mut eng,
            format!("a{k}").as_bytes(),
            b"2",
            Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
        )
        .unwrap();
        drain(&mut eng, &mut w, &acks, k + 1);
    }
    let (head2, tail2) = db.log_cursors();
    assert!(head2 >= head1);
    assert!(tail2 > head2, "new records live past the checkpoint");
    // All 20 keys readable.
    for k in 0..20u32 {
        assert!(db.get(format!("a{k}").as_bytes()).is_some(), "a{k}");
    }
}

/// A client that refuses the first gWRITE of a checkpoint header (4
/// bytes at the checkpoint area) as if its ring were out of credits.
struct RefuseHeader {
    inner: Rc<HyperLoopClient>,
    header_at: u64,
    headers: Cell<u32>,
}

impl GroupClient for RefuseHeader {
    fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        if offset == self.header_at && data.len() == 4 {
            self.headers.set(self.headers.get() + 1);
            if self.headers.get() == 1 {
                return Err(Backpressure);
            }
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

/// A header gWRITE the client refuses is re-issued after a backoff, not
/// dropped: the checkpoint's `done` still fires, and every member holds
/// the snapshot under a durable header.
#[test]
fn refused_checkpoint_header_is_reissued() {
    let (mut w, mut eng, inner) = setup();
    let cfg = KvConfig::default();
    let client = Rc::new(RefuseHeader {
        inner,
        header_at: cfg.layout.db_off,
        headers: Cell::new(0),
    });
    let mut db = KvDb::open(client.clone(), cfg.clone(), &mut w, &mut eng);
    let acks = Rc::new(RefCell::new(0u32));
    for k in 0..10u32 {
        let a = acks.clone();
        db.put(
            &mut w,
            &mut eng,
            format!("h{k}").as_bytes(),
            b"v",
            Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
        )
        .unwrap();
        drain(&mut eng, &mut w, &acks, k + 1);
    }
    let done = Rc::new(RefCell::new(0u32));
    let d = done.clone();
    db.checkpoint(
        &mut w,
        &mut eng,
        Box::new(move |_w, _e, _r| *d.borrow_mut() += 1),
    )
    .unwrap();
    eng.run_until(&mut w, eng.now() + SimDuration::from_millis(5));
    assert_eq!(*done.borrow(), 1, "the checkpoint completed");
    assert_eq!(client.headers.get(), 2, "refused once, then issued");
    for m in 0..3 {
        let header = client.member_addr(m, cfg.layout.db_off);
        let host = client.member_host(m);
        assert!(w.hosts[host.0].mem.is_durable(header, 4), "member {m}");
        let snap = db.read_checkpoint(&w, m).expect("checkpoint on member");
        assert_eq!(snap.len(), 10, "member {m}");
    }
}
