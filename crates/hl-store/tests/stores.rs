//! End-to-end storage-engine tests: kvlite and doclite over HyperLoop,
//! kvlite over the Naïve baseline, and the native doclite replica set.

use hl_cluster::{deliver, ClusterBuilder, ProcEvent, Process, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimDuration, SimTime};
use hl_store::doc::native::{self, ClientOp, ClientReply, DocOp, NativeDocCosts};
use hl_store::doc::{DocLayout, DocStore, Document};
use hl_store::kv::{KvConfig, KvDb};
use hyperloop::api::{FrameReader, GroupClient, LogLayout, LogRecord};
use hyperloop::naive::{Mode, NaiveBuilder, NaiveConfig};
use hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient};
use std::cell::RefCell;
use std::rc::Rc;

fn hl_client(w: &mut World, eng: &mut Engine<World>) -> Rc<HyperLoopClient> {
    let cfg = GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 2 << 20,
        ring_slots: 64,
        ..Default::default()
    };
    let group = GroupBuilder::new(cfg).build(w);
    replica::start_replenishers(&group, w, eng);
    Rc::new(HyperLoopClient::new(group, w))
}

fn counter() -> (Rc<RefCell<u32>>, hyperloop::OnDone) {
    let c = Rc::new(RefCell::new(0u32));
    let c2 = c.clone();
    (c, Box::new(move |_w, _e, _r| *c2.borrow_mut() += 1))
}

#[test]
fn kvlite_put_get_and_replica_sync() {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(8 << 20).seed(21).build();
    let client = hl_client(&mut w, &mut eng);
    let mut db = KvDb::open(client.clone(), KvConfig::default(), &mut w, &mut eng);

    let (acks, _) = counter();
    for k in 0..20u32 {
        let a = acks.clone();
        db.put(
            &mut w,
            &mut eng,
            format!("user{k:04}").as_bytes(),
            format!("value-{k}").as_bytes(),
            Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
        )
        .unwrap();
        // Drain each append (a put is two chained gWRITEs; issuing 20
        // at once would exhaust ring credits by design).
        let a2 = acks.clone();
        let want = k + 1;
        eng.run_while(&mut w, move |_| *a2.borrow() < want);
    }
    eng.run_until(
        &mut w,
        SimTime::from_nanos(eng.now().as_nanos() + 50_000_000),
    );
    assert_eq!(*acks.borrow(), 20);

    // Client reads are immediate and strong.
    assert_eq!(db.get(b"user0007"), Some(b"value-7".as_slice()));
    assert_eq!(db.len(), 20);
    // Scans are ordered.
    let scan = db.scan(b"user0005", 3);
    assert_eq!(scan[0].0, b"user0005");
    assert_eq!(scan[2].0, b"user0007");

    // Replica syncers have replayed the WAL (eventually consistent).
    assert_eq!(db.get_at_replica(0, b"user0003"), Some(b"value-3".to_vec()));
    assert_eq!(
        db.get_at_replica(1, b"user0019"),
        Some(b"value-19".to_vec())
    );
    let applied = db.replica_applied();
    let (_, tail) = db.log_cursors();
    assert!(applied.iter().all(|&a| a == tail), "{applied:?} vs {tail}");
}

#[test]
fn kvlite_survives_crash_after_ack() {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(8 << 20).seed(22).build();
    let client = hl_client(&mut w, &mut eng);
    let mut db = KvDb::open(client.clone(), KvConfig::default(), &mut w, &mut eng);
    let (acks, cb) = counter();
    db.put(&mut w, &mut eng, b"durable-key", b"durable-value", cb)
        .unwrap();
    let a2 = acks.clone();
    eng.run_while(&mut w, move |_| *a2.borrow() < 1);

    // Power-fail both replicas: the WAL record must survive in NVM. The
    // frame reader finds exactly that record from cursor 0 and stops at
    // the log's tail.
    w.hosts[1].mem.crash();
    w.hosts[2].mem.crash();
    let layout = KvConfig::default().layout;
    let (_, tail) = db.log_cursors();
    for m in 1..3usize {
        let ring = w.hosts[m]
            .mem
            .read(
                client.member_addr(m, layout.ring_off()),
                layout.log_cap as usize,
            )
            .unwrap();
        let mut frames = FrameReader::new(ring, 0);
        let recs: Vec<LogRecord> = frames
            .by_ref()
            .map(|b| LogRecord::decode(b).unwrap())
            .collect();
        assert_eq!(recs.len(), 1, "replica {m} keeps the record");
        assert_eq!(
            frames.cursor(),
            tail,
            "replica {m} journal ends at the tail"
        );
        let (put, key, value) = hl_store::kv::decode_kv_op(&recs[0]).unwrap();
        assert!(put);
        assert_eq!(key, b"durable-key");
        assert_eq!(value, b"durable-value");
    }
}

#[test]
fn kvlite_truncates_and_wraps_log() {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(8 << 20).seed(23).build();
    let client = hl_client(&mut w, &mut eng);
    let cfg = KvConfig {
        layout: LogLayout {
            log_off: 0,
            log_cap: 8 << 10, // small: forces truncation + wrap
            db_off: 64 << 10,
        },
        sync_period: SimDuration::from_micros(200),
        truncate_at: 0.5,
        checkpoint_cap: 64 << 10,
    };
    let mut db = KvDb::open(client.clone(), cfg, &mut w, &mut eng);
    let acks = Rc::new(RefCell::new(0u32));
    // 200 puts of ~300B each ≫ 8 KiB of log.
    for k in 0..200u32 {
        loop {
            let a = acks.clone();
            let r = db.put(
                &mut w,
                &mut eng,
                format!("key{k:05}").as_bytes(),
                &[k as u8; 256],
                Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
            );
            if r.is_ok() {
                break;
            }
            // Log full: let syncers catch up, then retry.
            let deadline = eng.now() + SimDuration::from_millis(3);
            eng.run_until(&mut w, deadline);
        }
    }
    let a2 = acks.clone();
    eng.run_while(&mut w, move |_| *a2.borrow() < 200);
    assert_eq!(*acks.borrow(), 200);
    // All data present on client and replicas.
    assert_eq!(db.get(b"key00199"), Some([199u8; 256].as_slice()));
    assert_eq!(db.get_at_replica(1, b"key00150"), Some(vec![150u8; 256]));
    let (head, tail) = db.log_cursors();
    assert!(head > 0, "log was truncated");
    assert!(tail > 8 << 10, "log wrapped at least once");
}

#[test]
fn kvlite_runs_on_naive_backend_too() {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(8 << 20).seed(24).build();
    let cfg = NaiveConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 2 << 20,
        mode: Mode::Event,
        ..Default::default()
    };
    let client = Rc::new(NaiveBuilder::new(cfg).build(&mut w, &mut eng));
    let mut db = KvDb::open(client.clone(), KvConfig::default(), &mut w, &mut eng);
    let (acks, cb) = counter();
    db.put(&mut w, &mut eng, b"k", b"v", cb).unwrap();
    let a2 = acks.clone();
    eng.run_while(&mut w, move |_| *a2.borrow() < 1);
    assert_eq!(db.get(b"k"), Some(b"v".as_slice()));
    eng.run_until(
        &mut w,
        SimTime::from_nanos(eng.now().as_nanos() + 20_000_000),
    );
    assert_eq!(db.get_at_replica(0, b"k"), Some(b"v".to_vec()));
}

fn ycsb_doc(id: u64) -> Document {
    let mut d = Document::new(id);
    for f in 0..10 {
        d.set(&format!("field{f}"), &[(id % 251) as u8; 100]);
    }
    d
}

#[test]
fn doclite_upsert_executes_on_all_members() {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(8 << 20).seed(25).build();
    let client = hl_client(&mut w, &mut eng);
    let store = DocStore::open(client.clone(), DocLayout::default(), 1, true);

    let (acks, cb) = counter();
    store.upsert(&mut w, &mut eng, &ycsb_doc(42), cb).unwrap();
    let a2 = acks.clone();
    eng.run_while(&mut w, move |_| *a2.borrow() < 1);

    // The document is in the database area of every member, durably.
    for m in 0..3 {
        let d = store.read_at(&mut w, m, 42).expect("doc on member");
        assert_eq!(d.id, 42);
        assert_eq!(d.get("field3"), Some([42u8; 100].as_slice()));
    }
    assert_eq!(store.committed(), 1);
    // The lock is free again.
    let lock_addr = client.member_addr(1, 0);
    assert_eq!(w.hosts[1].mem.read_u64(lock_addr).unwrap(), 0);
}

#[test]
fn doclite_sequential_upserts_and_scan() {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(8 << 20).seed(26).build();
    let client = hl_client(&mut w, &mut eng);
    let store = DocStore::open(client.clone(), DocLayout::default(), 1, true);
    let acks = Rc::new(RefCell::new(0u32));
    for id in 100..110u64 {
        let a = acks.clone();
        store
            .upsert(
                &mut w,
                &mut eng,
                &ycsb_doc(id),
                Box::new(move |_w, _e, _r| *a.borrow_mut() += 1),
            )
            .unwrap();
        let a2 = acks.clone();
        let want = (id - 99) as u32;
        eng.run_while(&mut w, move |_| *a2.borrow() < want);
    }
    assert_eq!(*acks.borrow(), 10);
    let docs = store.scan(&mut w, 100, 10);
    assert_eq!(docs.len(), 10);
    assert_eq!(docs[9].id, 109);
    // Update in place.
    let mut d = ycsb_doc(105);
    d.set("field0", b"updated!");
    let (acks2, cb) = counter();
    store.upsert(&mut w, &mut eng, &d, cb).unwrap();
    let a2 = acks2.clone();
    eng.run_while(&mut w, move |_| *a2.borrow() < 1);
    assert_eq!(
        store.read(&mut w, 105).unwrap().get("field0"),
        Some(b"updated!".as_slice())
    );
}

/// Driver process for the native replica set.
struct NativeDriver {
    primary: hl_cluster::ProcAddr,
    write_cost: SimDuration,
    ops_done: Rc<RefCell<Vec<(u64, usize)>>>, // (op_id, docs returned)
    to_send: Vec<DocOp>,
    next_id: u64,
}

impl Process for NativeDriver {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut hl_cluster::Ctx<'_>) {
        match ev {
            ProcEvent::Started => {
                if let Some(op) = self.to_send.pop() {
                    let op_id = self.next_id;
                    self.next_id += 1;
                    let size = native::client_op_wire_size(&op);
                    ctx.send_msg(
                        self.primary,
                        Box::new(ClientOp {
                            op_id,
                            reply_to: ctx.me,
                            op,
                        }),
                        size,
                        self.write_cost,
                    );
                }
            }
            ProcEvent::Message(m) => {
                if let Ok(reply) = m.downcast::<ClientReply>() {
                    self.ops_done
                        .borrow_mut()
                        .push((reply.op_id, reply.docs.len()));
                    if let Some(op) = self.to_send.pop() {
                        let op_id = self.next_id;
                        self.next_id += 1;
                        let size = native::client_op_wire_size(&op);
                        ctx.send_msg(
                            self.primary,
                            Box::new(ClientOp {
                                op_id,
                                reply_to: ctx.me,
                                op,
                            }),
                            size,
                            self.write_cost,
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

#[test]
fn native_set_replicates_and_serves_reads() {
    let (mut w, mut eng) = ClusterBuilder::new(4).arena_size(8 << 20).seed(27).build();
    // Servers: hosts 1,2,3; client driver on host 0.
    let set = native::spawn_native_set(
        &mut w,
        &mut eng,
        "set0",
        &[HostId(1), HostId(2), HostId(3)],
        1536,
        256,
        NativeDocCosts::default(),
    );
    let done = Rc::new(RefCell::new(Vec::new()));
    // Ops run LIFO off a stack: reads first (pushed last).
    let ops = vec![
        DocOp::Scan { id: 7, n: 3 },
        DocOp::Read { id: 8 },
        DocOp::Upsert(ycsb_doc(9)),
        DocOp::Upsert(ycsb_doc(8)),
        DocOp::Upsert(ycsb_doc(7)),
    ];
    w.start_process(
        HostId(0),
        "ycsb-driver",
        None,
        Box::new(NativeDriver {
            primary: set.primary,
            write_cost: set.write_recv_cost,
            ops_done: done.clone(),
            to_send: ops,
            next_id: 0,
        }),
        SimDuration::from_micros(1),
        &mut eng,
    );
    eng.run_until(&mut w, SimTime::from_nanos(200_000_000));
    let d = done.borrow();
    assert_eq!(d.len(), 5);
    // Read of id 8 returned one doc; scan returned 3.
    assert_eq!(d[3], (3, 1));
    assert_eq!(d[4], (4, 3));
    drop(d);

    // Secondaries hold the documents too (check arena of host 2).
    // Re-drive a read through the test helper: inject one more op.
    let dd = done.clone();
    let set_primary = set.primary;
    let write_cost = set.write_recv_cost;
    let drv = w.start_process(
        HostId(0),
        "probe",
        None,
        Box::new(NativeDriver {
            primary: set_primary,
            write_cost,
            ops_done: dd,
            to_send: vec![DocOp::Read { id: 9 }],
            next_id: 100,
        }),
        SimDuration::from_micros(1),
        &mut eng,
    );
    let _ = drv;
    eng.run_until(&mut w, SimTime::from_nanos(400_000_000));
    assert_eq!(done.borrow().last().unwrap().1, 1);
}

#[test]
fn native_driver_message_injection_helper_works() {
    // Smoke-test deliver() from outside a process.
    let (mut w, mut eng) = ClusterBuilder::new(2).arena_size(1 << 20).seed(28).build();
    let seen = Rc::new(RefCell::new(0u32));
    struct Sink(Rc<RefCell<u32>>);
    impl Process for Sink {
        fn on_event(&mut self, ev: ProcEvent, _ctx: &mut hl_cluster::Ctx<'_>) {
            if matches!(ev, ProcEvent::Message(_)) {
                *self.0.borrow_mut() += 1;
            }
        }
    }
    let addr = w.start_process(
        HostId(1),
        "sink",
        None,
        Box::new(Sink(seen.clone())),
        SimDuration::from_micros(1),
        &mut eng,
    );
    deliver(
        addr,
        ProcEvent::Message(Box::new(42u32)),
        SimDuration::from_micros(1),
        &mut w,
        &mut eng,
    );
    eng.run(&mut w);
    assert_eq!(*seen.borrow(), 1);
}
