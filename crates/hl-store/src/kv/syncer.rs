//! Replica-side log replay (kvlite).
//!
//! Each replica runs one syncer process that wakes periodically — *off*
//! the write critical path — reads the WAL frames its NIC has landed in
//! its own log copy (with [`FrameReader`], which stops at the first
//! frame that is not there yet), and applies the new records to its
//! in-memory table. This is the paper's "replicas need to wake up
//! periodically off the critical path to bring the in-memory snapshot
//! in sync with NVM".

use super::db::decode_kv_op;
use super::memtable::Memtable;
use hl_cluster::{Ctx, ProcEvent, Process};
use hl_sim::SimDuration;
use hyperloop::api::{FrameReader, LogLayout, LogRecord};
use std::cell::RefCell;
use std::rc::Rc;

/// State shared between the client handle and the replica syncers:
/// per-replica applied cursors (for truncation) and the synced tables
/// (for eventually-consistent replica reads and tests).
#[derive(Debug)]
pub struct KvShared {
    /// Absolute log cursor each replica has applied through.
    pub applied: Vec<u64>,
    /// Each replica's synced memtable.
    pub tables: Vec<Memtable>,
}

impl KvShared {
    /// For `n` replicas.
    pub fn new(n: usize) -> Self {
        KvShared {
            applied: vec![0; n],
            tables: (0..n).map(|_| Memtable::new()).collect(),
        }
    }
}

const TAG_SYNC: u64 = 11;
const TAG_APPLY: u64 = 12;

/// CPU cost to decode + apply one log byte (~memtable insert amortized).
const APPLY_NS_PER_BYTE: u64 = 1;
/// Fixed CPU cost per sync round.
const SYNC_FIXED: SimDuration = SimDuration::from_nanos(800);

/// The per-replica syncer process.
pub struct KvSyncer {
    shared: Rc<RefCell<KvShared>>,
    idx: usize,
    /// Base address of this replica's replicated region in its arena.
    rep_base: u64,
    layout: LogLayout,
    period: SimDuration,
    /// Local applied cursor (mirrors `shared.applied[idx]`).
    applied: u64,
}

impl KvSyncer {
    /// Create a syncer for replica `idx`.
    pub fn new(
        shared: Rc<RefCell<KvShared>>,
        idx: usize,
        rep_base: u64,
        layout: LogLayout,
        period: SimDuration,
    ) -> Self {
        KvSyncer {
            shared,
            idx,
            rep_base,
            layout,
            period,
            applied: 0,
        }
    }

    /// This replica's own copy of the record ring.
    fn ring<'w>(&self, ctx: &'w Ctx<'_>) -> &'w [u8] {
        ctx.world.hosts[ctx.me.host.0]
            .mem
            .read(
                self.rep_base + self.layout.ring_off(),
                self.layout.log_cap as usize,
            )
            .expect("the log lies in the replicated region")
    }

    /// The cursor just past the newest record landed here.
    fn landed(&self, ctx: &Ctx<'_>) -> u64 {
        let mut frames = FrameReader::new(self.ring(ctx), self.applied);
        frames.by_ref().for_each(drop);
        frames.cursor()
    }

    /// Decode and apply every record landed past `applied`.
    fn apply_new(&mut self, ctx: &mut Ctx<'_>) {
        let mut frames = FrameReader::new(self.ring(ctx), self.applied);
        let mut sh = self.shared.borrow_mut();
        for bytes in frames.by_ref() {
            let rec = LogRecord::decode(bytes).expect("a valid frame holds a record");
            if let Some((put, key, value)) = decode_kv_op(&rec) {
                if put {
                    sh.tables[self.idx].put(&key, &value);
                } else {
                    sh.tables[self.idx].delete(&key);
                }
            }
        }
        self.applied = frames.cursor();
        sh.applied[self.idx] = self.applied;
    }
}

impl Process for KvSyncer {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        match ev {
            ProcEvent::Started => {
                ctx.set_timer(self.period, TAG_SYNC, SimDuration::from_nanos(500));
            }
            ProcEvent::Timer { tag: TAG_SYNC } => {
                let landed = self.landed(ctx);
                if landed > self.applied {
                    // Charge CPU proportional to the backlog, then apply.
                    let backlog = landed - self.applied;
                    ctx.submit_work(
                        SYNC_FIXED + SimDuration::from_nanos(backlog * APPLY_NS_PER_BYTE),
                        TAG_APPLY,
                    );
                } else {
                    ctx.set_timer(self.period, TAG_SYNC, SimDuration::from_nanos(500));
                }
            }
            ProcEvent::WorkDone { tag: TAG_APPLY } => {
                self.apply_new(ctx);
                ctx.set_timer(self.period, TAG_SYNC, SimDuration::from_nanos(500));
            }
            _ => {}
        }
    }
}
