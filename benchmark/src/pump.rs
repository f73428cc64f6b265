//! Closed-loop gWRITE load generator shared by the four write workloads
//! and by the ladder.
//!
//! Each lane (one per chain) keeps a fixed number of writes outstanding:
//! a completion issues the lane's next write until the round's budget is
//! spent, so all lanes stay busy to the end. Writes rotate over 128
//! disjoint slots per lane, so in-flight writes never overlap and the
//! last write issued to a slot is what every member must hold.

use hl_cluster::World;
use hl_sim::{Bytes, Engine, RngStream, SimDuration, SimTime};
use hyperloop::api::GroupClient;
use hyperloop::naive::NaiveClient;
use hyperloop::{GroupOp, HyperLoopClient, OnDone, OnOutcome, RetryClient, ShardRouter};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Slots each lane rotates over.
pub const SLOTS: u64 = 128;
/// Distinct payloads drawn from the seed.
const PAYLOADS: usize = 256;
const NO_WRITE: u16 = u16::MAX;

/// The layer a pump drives; each adds one wrapper to the one before.
pub enum Issuer {
    Hyper(HyperLoopClient),
    Naive(NaiveClient),
    Retry(RetryClient),
    /// Lane `i` is shard `i`.
    Router(ShardRouter),
}

pub struct Lane {
    issued: u64,
    /// Payload index of the last write issued to each slot.
    last: Vec<u16>,
    /// Keys that route to this lane (router only).
    keys: Vec<u64>,
    /// `(host, address of offset 0)` of every member, client first.
    members: Vec<(usize, u64)>,
}

#[derive(Default)]
pub struct PumpState {
    pub issued: usize,
    pub settled: usize,
    pub failed: usize,
    /// Issue-to-settle latency of every write settled after the warm-up.
    pub lat_ns: Vec<u64>,
    /// Writes acknowledged that were issued with telemetry on, and the
    /// sum of the latencies their clients reported.
    pub traced_ops: u64,
    pub traced_lat_ns: u64,
    /// Host ns inside the synchronous issue calls (traced rounds).
    pub issue_ns: u64,
    pub issue_calls: u64,
    /// Host instant at which `tail_at` writes had settled.
    pub tail_started: Option<Instant>,
    lanes: Vec<Lane>,
}

pub struct Pump {
    issuer: Issuer,
    size: usize,
    flush: bool,
    /// Writes to issue in total, over all lanes.
    budget: usize,
    warmup: usize,
    /// When this many writes have settled the tail starts: the host
    /// clock is read, and a traced round turns telemetry on.
    tail_at: usize,
    /// Time every issue call and trace the tail.
    traced: bool,
    payloads: Vec<Bytes>,
    /// The workload generator's stream: picks each write's payload.
    rng: RefCell<RngStream>,
    pub state: RefCell<PumpState>,
}

pub struct PumpCfg {
    pub size: usize,
    pub flush: bool,
    pub budget: usize,
    pub warmup: usize,
    pub tail: usize,
    pub traced: bool,
}

fn members_of(c: &impl GroupClient) -> Vec<(usize, u64)> {
    (0..c.group_size())
        .map(|m| (c.member_host(m).0, c.member_addr(m, 0)))
        .collect()
}

impl Pump {
    /// `rng` is the workload generator's stream: it fills the payload
    /// pool, picks each write's payload and (router) draws the keys.
    pub fn new(issuer: Issuer, cfg: PumpCfg, mut rng: RngStream) -> Rc<Pump> {
        let payloads = (0..PAYLOADS)
            .map(|_| {
                let mut v = vec![0u8; cfg.size];
                for chunk in v.chunks_mut(8) {
                    let word = rng.u64().to_le_bytes();
                    chunk.copy_from_slice(&word[..chunk.len()]);
                }
                Bytes::from_vec(v)
            })
            .collect();
        let lane_members: Vec<Vec<(usize, u64)>> = match &issuer {
            Issuer::Hyper(c) => vec![members_of(c)],
            Issuer::Naive(c) => vec![members_of(c)],
            Issuer::Retry(c) => vec![members_of(&c.backend())],
            Issuer::Router(r) => (0..r.n_shards())
                .map(|sid| members_of(&r.client(sid).backend()))
                .collect(),
        };
        let mut lanes: Vec<Lane> = lane_members
            .into_iter()
            .map(|members| Lane {
                issued: 0,
                last: vec![NO_WRITE; SLOTS as usize],
                keys: Vec::new(),
                members,
            })
            .collect();
        if let Issuer::Router(r) = &issuer {
            // Bucket seeded keys by the router's own ring until every
            // lane owns enough of them.
            while lanes.iter().any(|l| l.keys.len() < 1024) {
                let key = rng.u64();
                lanes[r.shard_of_u64(key)].keys.push(key);
            }
        }
        assert!(cfg.tail <= cfg.budget - cfg.warmup);
        Rc::new(Pump {
            issuer,
            size: cfg.size,
            flush: cfg.flush,
            budget: cfg.budget,
            warmup: cfg.warmup,
            tail_at: cfg.budget - cfg.tail,
            traced: cfg.traced,
            payloads,
            rng: RefCell::new(rng),
            state: RefCell::new(PumpState {
                lanes,
                ..Default::default()
            }),
        })
    }

    pub fn lanes(&self) -> usize {
        self.state.borrow().lanes.len()
    }

    /// Put `outstanding` writes in flight on every lane.
    pub fn start(self: &Rc<Self>, outstanding: usize, w: &mut World, eng: &mut Engine<World>) {
        for lane in 0..self.lanes() {
            for _ in 0..outstanding {
                self.issue_next(lane, w, eng);
            }
        }
    }

    /// Run until `n` writes have settled.
    pub fn run_until_settled(self: &Rc<Self>, n: usize, w: &mut World, eng: &mut Engine<World>) {
        let me = self.clone();
        eng.run_while(w, move |_| me.state.borrow().settled < n);
        assert!(
            self.state.borrow().settled >= n,
            "engine ran dry with {} of {n} writes settled",
            self.state.borrow().settled
        );
    }

    fn slot_offset(&self, slot: u64) -> u64 {
        slot * self.size.max(64) as u64
    }

    fn issue_next(self: &Rc<Self>, lane: usize, w: &mut World, eng: &mut Engine<World>) {
        let (offset, data, key) = {
            let mut st = self.state.borrow_mut();
            if st.issued >= self.budget {
                return;
            }
            st.issued += 1;
            let pick = self.rng.borrow_mut().index(PAYLOADS);
            let l = &mut st.lanes[lane];
            let slot = l.issued % SLOTS;
            let key = if l.keys.is_empty() {
                0
            } else {
                l.keys[l.issued as usize % l.keys.len()]
            };
            l.issued += 1;
            l.last[slot as usize] = pick as u16;
            (self.slot_offset(slot), self.payloads[pick].clone(), key)
        };
        self.issue(lane, offset, data, key, eng.now(), w, eng);
    }

    #[allow(clippy::too_many_arguments)]
    fn issue(
        self: &Rc<Self>,
        lane: usize,
        offset: u64,
        data: Bytes,
        key: u64,
        first_at: SimTime,
        w: &mut World,
        eng: &mut Engine<World>,
    ) {
        let traced = w.telemetry.enabled();
        let direct = |me: &Rc<Pump>| -> OnDone {
            let me = me.clone();
            Box::new(move |w, eng, r| {
                me.settle(lane, first_at, traced, Some(r.latency), w, eng);
            })
        };
        let supervised = |me: &Rc<Pump>| -> OnOutcome {
            let me = me.clone();
            Box::new(move |w, eng, r| {
                me.settle(lane, first_at, traced, r.ok().map(|r| r.latency), w, eng);
            })
        };
        let write = |data: &Bytes| GroupOp::Write {
            offset,
            data: data.clone(),
            flush: self.flush,
        };
        let t0 = self.traced.then(Instant::now);
        let accepted = match &self.issuer {
            Issuer::Hyper(c) => c
                .gwrite(w, eng, offset, &data, self.flush, direct(self))
                .is_ok(),
            Issuer::Naive(c) => c
                .gwrite(w, eng, offset, &data, self.flush, direct(self))
                .is_ok(),
            Issuer::Retry(c) => {
                c.issue(w, eng, write(&data), supervised(self));
                true
            }
            Issuer::Router(r) => {
                let sid = r.shard_of_u64(key);
                assert_eq!(sid, lane, "bucketed key must route home");
                r.issue_on(w, eng, sid, write(&data), supervised(self));
                true
            }
        };
        let mut st = self.state.borrow_mut();
        if let Some(t0) = t0 {
            st.issue_ns += t0.elapsed().as_nanos() as u64;
            st.issue_calls += 1;
        }
        if !accepted {
            // Ring credits exhausted: offer the same write again shortly;
            // its latency still counts from the first offer.
            let me = self.clone();
            eng.schedule(SimDuration::from_micros(20), move |w: &mut World, eng| {
                me.issue(lane, offset, data, key, first_at, w, eng);
            });
        }
    }

    /// One write settled: `latency` is what its client reported, `None`
    /// if it failed.
    fn settle(
        self: &Rc<Self>,
        lane: usize,
        first_at: SimTime,
        traced: bool,
        latency: Option<SimDuration>,
        w: &mut World,
        eng: &mut Engine<World>,
    ) {
        {
            let mut st = self.state.borrow_mut();
            st.settled += 1;
            match latency {
                Some(l) if traced => {
                    st.traced_ops += 1;
                    st.traced_lat_ns += l.as_nanos();
                }
                Some(_) => {}
                None => st.failed += 1,
            }
            if st.settled > self.warmup {
                let e2e = eng.now().duration_since(first_at).as_nanos();
                st.lat_ns.push(e2e);
            }
            if st.settled == self.tail_at {
                if self.traced {
                    w.enable_telemetry();
                }
                st.tail_started = Some(Instant::now());
            }
        }
        self.issue_next(lane, w, eng);
    }

    /// Compare every slot of every member of every lane with the last
    /// payload written there; with `flush`, also require durability.
    /// Returns `(slots checked, mismatches, not durable)`.
    pub fn verify(&self, w: &World) -> (u64, u64, u64) {
        let st = self.state.borrow();
        let (mut checked, mut wrong, mut volatile) = (0, 0, 0);
        for lane in &st.lanes {
            for (slot, &pick) in lane.last.iter().enumerate() {
                if pick == NO_WRITE {
                    continue;
                }
                let want = &self.payloads[pick as usize];
                for &(host, base) in &lane.members {
                    let addr = base + self.slot_offset(slot as u64);
                    let mem = &w.hosts[host].mem;
                    checked += 1;
                    if mem.read(addr, self.size).ok() != Some(&want[..]) {
                        wrong += 1;
                    }
                    if self.flush && !mem.is_durable(addr, self.size) {
                        volatile += 1;
                    }
                }
            }
        }
        (checked, wrong, volatile)
    }
}
