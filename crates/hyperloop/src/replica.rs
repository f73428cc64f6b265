//! Replica-side housekeeping: the slot replenisher, and the ring state
//! it shares with the client.
//!
//! The only thing a replica CPU does for HyperLoop after group setup is
//! re-post consumed slots — strictly *off* the critical path (paper §3.1:
//! "replica server CPUs should only spend very few cycles that
//! initialize the HyperLoop groups"). One replenisher process runs on every
//! host that holds slot programs — chain replicas, the fan-out primary
//! and each backup, multi-client replicas alike. It has no clock. It
//! sleeps until its NIC reports that one of its rings received a quarter
//! ring (`SlotProgram::watermark`) of slot RECVs since its last batch:
//! a one-shot moderation event (`Nic::moderate_cq`, CQ moderation as
//! `ibv_modify_cq` sets it) on the CQ the ring's metadata RECVs complete
//! into (`SlotProgram::notify_cq`), which gets exactly one completion
//! per slot. The wake-up costs an interrupt. The replenisher then
//! charges itself one batch, re-posts every ring with a deficit on its
//! own NIC, reports the new credit to the client and re-arms every ring.
//! An idle group costs its replicas nothing.
//!
//! A client keeps at most `slots − watermark` operations in flight
//! (`Rings::prepost` asserts it), and a slot a host has received but
//! not yet consumed belongs to one of them. So after every batch a ring
//! has at least a watermark of posted slots beyond its arrivals: a client
//! that runs out of credit has issued enough to wake the host that holds
//! it back.
//!
//! A group that a reconfiguration replaced is *retired*
//! (`GroupInner::retire`): its moderation subscriptions are dropped, so
//! its replenishers never wake again, and they hold it only weakly.
//!
//! If a client outruns the rings (deep bursts on shallow rings), it hits
//! [`crate::group::Backpressure`] instead of corrupting the rings — the
//! ablation benchmark measures exactly this onset.

use crate::group::{Backpressure, GroupRef};
use crate::program::SlotProgram;
use hl_cluster::{Ctx, ProcAddr, ProcEvent, Process, World};
use hl_sim::{Engine, SimDuration};
use std::cell::RefCell;
use std::rc::{Rc, Weak};

const TAG_REPOST: u64 = 2;

/// Per-slot CPU cost of re-posting (write a few WQEs + a RECV).
const REPOST_COST_PER_SLOT: SimDuration = SimDuration::from_nanos(80);
/// Fixed overhead per replenish batch.
const REPOST_COST_FIXED: SimDuration = SimDuration::from_nanos(1_000);
/// CPU charged for taking the wake-up interrupt.
const WAKE_COST: SimDuration = SimDuration::from_nanos(500);
/// Fabric delay of the credit report (a tiny control datagram in
/// reality; modelled as a delayed update of the client's table).
const CREDIT_DELAY: SimDuration = SimDuration::from_micros(2);

/// The client's view of the rings: how far it may issue. Operation `k`
/// of a ring needs slot `k` pre-posted on *every* host of that ring, so
/// the client issues it only once every host has reported more than `k`
/// slots posted, and never with more than `max_inflight` un-ACKed.
pub(crate) struct Credits {
    /// Slots reported posted, `[ring][host]`.
    posted: Vec<Vec<u64>>,
    /// Operations issued per ring (= the next slot index).
    issued: Vec<u64>,
    inflight: Vec<u32>,
    max_inflight: u32,
}

impl Credits {
    /// `rings` rings over `hosts` hosts, each pre-posted `slots` deep.
    pub fn new(rings: usize, hosts: usize, slots: u32, max_inflight: u32) -> Self {
        Credits {
            posted: vec![vec![slots as u64; hosts]; rings],
            issued: vec![0; rings],
            inflight: vec![0; rings],
            max_inflight,
        }
    }

    /// Reserve the next slot of `ring`, or refuse.
    pub fn take(&mut self, ring: usize) -> Result<u64, Backpressure> {
        let credit = self.posted[ring].iter().copied().min().unwrap_or(0);
        if self.inflight[ring] >= self.max_inflight || self.issued[ring] >= credit {
            return Err(Backpressure);
        }
        self.inflight[ring] += 1;
        let slot = self.issued[ring];
        self.issued[ring] += 1;
        Ok(slot)
    }

    /// An operation of `ring` was ACKed.
    pub fn complete(&mut self, ring: usize) {
        self.inflight[ring] -= 1;
    }

    /// `host` now has `posted` slots on `ring`.
    pub fn report(&mut self, ring: usize, host: usize, posted: u64) {
        self.posted[ring][host] = posted;
    }

    /// Operations awaiting their ACK, over all rings.
    pub fn inflight_total(&self) -> u32 {
        self.inflight.iter().sum()
    }
}

/// The pre-posted rings of one group: every host's slot programs and
/// the client's credits against them.
pub(crate) struct Rings {
    /// `[host][ring]`; every host runs the same rings.
    pub programs: Vec<Vec<SlotProgram>>,
    pub credits: Credits,
    /// The group was replaced by a reconfiguration: a wake-up already
    /// on its way to a replenisher does nothing.
    pub retired: bool,
}

impl Rings {
    /// Take the built programs and pre-post them full: every slot of
    /// every ring, then one doorbell per queue to park the WAITs.
    pub fn prepost(
        mut programs: Vec<Vec<SlotProgram>>,
        slots: u32,
        max_inflight: u32,
        w: &mut World,
    ) -> Self {
        for row in &programs {
            assert!(
                max_inflight as u64 + row[0].watermark() <= slots as u64,
                "{max_inflight} in flight leave no watermark of credit on {slots} slots"
            );
            for (i, p) in row.iter().enumerate() {
                assert!(
                    row[..i].iter().all(|q| q.notify_cq() != p.notify_cq()),
                    "two rings on host {} share notify CQ {}",
                    p.host.0,
                    p.notify_cq()
                );
            }
        }
        for p in programs.iter_mut().flatten() {
            for _ in 0..slots {
                p.post(w);
            }
        }
        for p in programs.iter().flatten() {
            p.arm(w);
        }
        Rings {
            credits: Credits::new(programs[0].len(), programs.len(), slots, max_inflight),
            programs,
            retired: false,
        }
    }

    /// Retire: drop every ring's wake-up subscription, so no
    /// replenisher of the group wakes again.
    pub fn retire(&mut self, w: &mut World) {
        self.retired = true;
        for p in self.programs.iter().flatten() {
            w.unsubscribe_cq(p.host, p.notify_cq());
        }
    }
}

/// A group's shared state, as its replenishers see it.
pub(crate) trait Offload {
    fn rings(&mut self) -> &mut Rings;
    /// `n` slots were re-posted (for groups that count them).
    fn reposted(&mut self, _n: u64) {}
}

/// The replenisher process of one host of one group.
struct Replenisher<G> {
    /// Weak: a retired group is freed once its clients let go.
    group: Weak<RefCell<G>>,
    /// Which row of [`Rings::programs`] lives on this process's host.
    host_idx: usize,
    /// Per ring of that row: the arrival count its wake-up is armed for.
    wake_at: Vec<u64>,
    /// A batch is charged and not yet posted; it covers any wake-up
    /// that arrives meanwhile.
    batching: bool,
}

impl<G: Offload + 'static> Replenisher<G> {
    /// Arm ring `ring`'s wake-up a watermark past its arrivals so far.
    fn rearm(&mut self, p: &SlotProgram, ring: usize, w: &mut World) {
        let at = p.arrived(w) + p.watermark();
        self.wake_at[ring] = at;
        w.hosts[p.host.0].nic.moderate_cq(p.notify_cq(), at);
    }
}

impl<G: Offload + 'static> Process for Replenisher<G> {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        let h = self.host_idx;
        let Some(group) = self.group.upgrade() else {
            return;
        };
        if group.borrow_mut().rings().retired {
            return;
        }
        match ev {
            ProcEvent::CqEvent { .. } if !self.batching => {
                let mut g = group.borrow_mut();
                let programs = &g.rings().programs[h];
                let due = programs
                    .iter()
                    .zip(&self.wake_at)
                    .any(|(p, &at)| p.arrived(ctx.world) >= at);
                if !due {
                    // Superseded by a batch that re-armed the ring.
                    return;
                }
                let total: u64 = programs.iter().map(|p| p.deficit(ctx.world)).sum();
                drop(g);
                // Charge the CPU before doing the posting work.
                self.batching = true;
                ctx.submit_work(REPOST_COST_FIXED + REPOST_COST_PER_SLOT * total, TAG_REPOST);
            }
            ProcEvent::WorkDone { tag: TAG_REPOST } => {
                self.batching = false;
                let n_rings = group.borrow_mut().rings().programs[h].len();
                for ring in 0..n_rings {
                    let (n_queues, posted) = {
                        let mut g = group.borrow_mut();
                        let p = &mut g.rings().programs[h][ring];
                        let d = p.deficit(ctx.world);
                        if d == 0 {
                            continue;
                        }
                        for _ in 0..d {
                            p.post(ctx.world);
                        }
                        let out = (p.queues.len(), p.posted);
                        g.reposted(d);
                        out
                    };
                    // Kick the queues so fresh WAITs park. The group is
                    // not borrowed across a doorbell: what the NIC does
                    // next may complete into a client callback.
                    for q in 0..n_queues {
                        let qpn = group.borrow_mut().rings().programs[h][ring].queues[q].qpn;
                        ctx.ring_doorbell(qpn);
                    }
                    let group = group.clone();
                    ctx.eng.schedule(CREDIT_DELAY, move |_w, _eng| {
                        group.borrow_mut().rings().credits.report(ring, h, posted);
                    });
                }
                let mut g = group.borrow_mut();
                for (ring, p) in g.rings().programs[h].iter().enumerate() {
                    self.rearm(p, ring, ctx.world);
                }
            }
            _ => {}
        }
    }
}

/// Start one replenisher per host of `group`'s rings, named
/// `{name}{host index}`, each subscribed to its rings' wake-ups and
/// armed a watermark past their arrivals. Returns their addresses.
pub(crate) fn start<G: Offload + 'static>(
    group: &Rc<RefCell<G>>,
    name: &str,
    w: &mut World,
    eng: &mut Engine<World>,
) -> Vec<ProcAddr> {
    let mut g = group.borrow_mut();
    let rows = &g.rings().programs;
    rows.iter()
        .enumerate()
        .map(|(host_idx, row)| {
            let host = row[0].host;
            let mut r = Replenisher {
                group: Rc::downgrade(group),
                host_idx,
                wake_at: vec![0; row.len()],
                batching: false,
            };
            for (ring, p) in row.iter().enumerate() {
                r.rearm(p, ring, w);
            }
            let addr = w.start_process(
                host,
                &format!("{name}{host_idx}"),
                None,
                Box::new(r),
                SimDuration::from_micros(1),
                eng,
            );
            for p in row {
                w.subscribe_cq_moderation(host, p.notify_cq(), addr.pid, WAKE_COST);
            }
            addr
        })
        .collect()
}

/// Start one replenisher process per replica. Returns their addresses.
pub fn start_replenishers(
    group: &GroupRef,
    w: &mut World,
    eng: &mut Engine<World>,
) -> Vec<ProcAddr> {
    start(group, "hl-replenish-r", w, eng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::{self, FanoutBuilder, FanoutClient, FanoutConfig};
    use crate::multi::{self, MultiBuilder, MultiClient, MultiConfig};
    use crate::{GroupBuilder, GroupConfig, HyperLoopClient, OnDone};
    use hl_cluster::ClusterBuilder;
    use hl_fabric::HostId;
    use hl_sim::SimTime;
    use std::cell::Cell;

    /// The replica hosts of [`chain`].
    const REPLICAS: [usize; 2] = [1, 2];
    /// What `start` charges a replenisher's host for its start-up.
    const START: SimDuration = SimDuration::from_micros(1);
    /// How long each test watches the replicas.
    const WATCH: SimDuration = SimDuration::from_millis(10);

    /// A two-replica chain with 32-slot rings, whose watermark is 8.
    fn chain() -> (World, Engine<World>, GroupRef, HyperLoopClient) {
        let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(4 << 20).seed(5).build();
        let group = GroupBuilder::new(GroupConfig {
            client: HostId(0),
            replicas: REPLICAS.map(HostId).to_vec(),
            rep_bytes: 64 << 10,
            ring_slots: 32,
            ..Default::default()
        })
        .build(&mut w);
        start_replenishers(&group, &mut w, &mut eng);
        let client = HyperLoopClient::new(group.clone(), &mut w);
        (w, eng, group, client)
    }

    /// Issue `[gWRITE, gMEMCPY, gCAS]` counts of operations at once and
    /// run until every one is ACKed.
    fn burst(c: &HyperLoopClient, w: &mut World, eng: &mut Engine<World>, n: [u32; 3]) {
        let acked = Rc::new(Cell::new(0));
        let done = || -> OnDone {
            let a = acked.clone();
            Box::new(move |_, _, _| a.set(a.get() + 1))
        };
        for k in 0..n[0] as u64 {
            c.gwrite(w, eng, k * 64, &[7; 64], true, done()).unwrap();
        }
        for k in 0..n[1] as u64 {
            c.gmemcpy(w, eng, k * 64, 0x8000 + k * 64, 64, true, done())
                .unwrap();
        }
        for k in 0..n[2] {
            c.gcas(w, eng, 0xf000, k as u64, k as u64 + 1, 0b111, done())
                .unwrap();
        }
        let total = n.iter().sum::<u32>();
        let a = acked.clone();
        assert!(eng.run_while(w, move |_| a.get() < total));
    }

    /// Per replica host: replenisher CPU ns and NIC doorbells so far.
    fn probe(w: &World) -> Vec<(u64, u64)> {
        REPLICAS
            .iter()
            .map(|&h| {
                let host = &w.hosts[h];
                (
                    host.cpu.busy_ns_by_prefix("hl-replenish"),
                    host.nic.counters().doorbells,
                )
            })
            .collect()
    }

    /// Credit each replica has reported, `[ring][replica]`.
    fn credits(group: &GroupRef) -> Vec<Vec<u64>> {
        group.borrow().rings.credits.posted.clone()
    }

    fn run_to(w: &mut World, eng: &mut Engine<World>, t: SimDuration) {
        eng.run_until(w, SimTime::from_nanos(t.as_nanos()));
    }

    /// What a replenisher that never woke leaves on `built`, the
    /// probe of a just-built chain: its start-up, and the doorbells that
    /// parked the WAITs at setup.
    fn asleep(built: &[(u64, u64)]) -> Vec<(u64, u64)> {
        built
            .iter()
            .map(|&(cpu, doorbells)| (cpu + START.as_nanos(), doorbells))
            .collect()
    }

    /// An idle group costs its replicas no wake-up: over 10 ms each
    /// replenisher spends its start-up and nothing else, and rings no
    /// doorbell.
    #[test]
    fn an_idle_group_wakes_no_replica() {
        let (mut w, mut eng, group, _client) = chain();
        let built = probe(&w);
        run_to(&mut w, &mut eng, WATCH);
        assert_eq!(probe(&w), asleep(&built));
        assert_eq!(group.borrow().stats.reposted, 0);
    }

    /// A watermark less one of arrivals on every ring wakes nobody: 7
    /// gWRITEs, 7 gMEMCPYs and 7 gCASes on 32-slot rings leave the
    /// replicas as an idle group leaves them, with no re-post and no
    /// credit report.
    #[test]
    fn arrivals_below_the_watermark_wake_nobody() {
        let (mut w, mut eng, group, client) = chain();
        let built = probe(&w);
        burst(&client, &mut w, &mut eng, [7, 7, 7]);
        run_to(&mut w, &mut eng, WATCH);
        assert_eq!(probe(&w), asleep(&built));
        assert_eq!(group.borrow().stats.reposted, 0);
        assert_eq!(credits(&group), vec![vec![32; 2]; 3]);
    }

    /// The arrival that brings one ring to its watermark wakes each
    /// replica once, and that one batch re-posts every ring with a
    /// deficit: 2 gMEMCPYs and 3 gCASes wake nobody, and the 8 gWRITEs
    /// after them cost each replica one wake-up and one fixed cost for
    /// all 13 slots, ring one doorbell per queue of the three rings and
    /// report all three rings' credit.
    #[test]
    fn the_watermark_arrival_wakes_once_and_reposts_one_batch() {
        let (mut w, mut eng, group, client) = chain();
        burst(&client, &mut w, &mut eng, [0, 2, 3]);
        run_to(&mut w, &mut eng, WATCH);
        assert_eq!(
            group.borrow().stats.reposted,
            0,
            "re-posted below the watermark"
        );
        let before = probe(&w);
        burst(&client, &mut w, &mut eng, [8, 0, 0]);
        run_to(&mut w, &mut eng, WATCH * 2);
        let after = probe(&w);

        assert_eq!(group.borrow().stats.reposted, 2 * 13);
        assert_eq!(credits(&group), vec![vec![40; 2], vec![34; 2], vec![35; 2]]);
        let queues: u64 = group.borrow_mut().rings().programs[0]
            .iter()
            .map(|p| p.queues.len() as u64)
            .sum();
        assert_eq!(queues, 5, "gWRITE 1 + gMEMCPY 2 + gCAS 2 queues");
        let batch = REPOST_COST_FIXED + REPOST_COST_PER_SLOT * 13;
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(a.0 - b.0, (WAKE_COST + batch).as_nanos());
            assert_eq!(a.1 - b.1, queues);
        }
    }

    /// Issues operation `k` of a closed loop.
    type Issue =
        Rc<dyn Fn(&mut World, &mut Engine<World>, u64, OnDone) -> Result<u32, Backpressure>>;

    /// A closed loop of `OUTSTANDING` operations through `issue` until
    /// `total` are ACKed; returns how many issues were refused.
    fn closed_loop(total: u64, issue: Issue, w: &mut World, eng: &mut Engine<World>) -> u64 {
        const OUTSTANDING: u64 = 16;
        #[derive(Default)]
        struct Loop {
            issued: u64,
            acked: u64,
            refused: u64,
        }
        fn pump(
            st: &Rc<RefCell<Loop>>,
            total: u64,
            issue: &Issue,
            w: &mut World,
            eng: &mut Engine<World>,
        ) {
            loop {
                let k = {
                    let s = st.borrow();
                    if s.issued == total || s.issued - s.acked == OUTSTANDING {
                        return;
                    }
                    s.issued
                };
                let (st2, issue2) = (st.clone(), issue.clone());
                let done: OnDone = Box::new(move |w, eng, _| {
                    st2.borrow_mut().acked += 1;
                    pump(&st2, total, &issue2, w, eng);
                });
                match issue(w, eng, k, done) {
                    Ok(_) => st.borrow_mut().issued += 1,
                    Err(Backpressure) => {
                        st.borrow_mut().refused += 1;
                        let (st, issue) = (st.clone(), issue.clone());
                        eng.schedule(SimDuration::from_micros(1), move |w, eng| {
                            pump(&st, total, &issue, w, eng)
                        });
                        return;
                    }
                }
            }
        }
        let st = Rc::new(RefCell::new(Loop::default()));
        pump(&st, total, &issue, w, eng);
        let probe = st.clone();
        assert!(eng.run_while(w, move |_| probe.borrow().acked < total));
        let refused = st.borrow().refused;
        refused
    }

    /// Batching on a quarter ring never starves a client that the
    /// replenishers keep up with: 16 operations outstanding through each
    /// offload shape, three times around rings 32 to 1024 slots deep,
    /// meet no backpressure. At 32 slots the chain and fan-out clients
    /// sit at their in-flight limit, half the ring.
    #[test]
    fn steady_state_meets_no_backpressure_at_any_ring_depth() {
        let hosts = |r: std::ops::Range<usize>| r.map(HostId).collect::<Vec<_>>();
        for slots in [32, 64, 256, 1024] {
            let total = 3 * slots as u64;
            let world = || ClusterBuilder::new(5).arena_size(4 << 20).seed(9).build();
            let data = [3u8; 64];

            let (mut w, mut eng) = world();
            let group = GroupBuilder::new(GroupConfig {
                client: HostId(0),
                replicas: hosts(1..4),
                rep_bytes: 64 << 10,
                ring_slots: slots,
                ..Default::default()
            })
            .build(&mut w);
            start_replenishers(&group, &mut w, &mut eng);
            let c = HyperLoopClient::new(group.clone(), &mut w);
            let issue = Rc::new(
                move |w: &mut World, eng: &mut Engine<World>, k: u64, done| {
                    c.gwrite(w, eng, k % 512 * 64, &data, true, done)
                },
            );
            let refused = closed_loop(total, issue, &mut w, &mut eng);
            assert_eq!((slots, "chain", refused), (slots, "chain", 0));
            assert_eq!(group.borrow().stats.backpressured, 0);

            let (mut w, mut eng) = world();
            let group = FanoutBuilder::new(FanoutConfig {
                client: HostId(0),
                primary: HostId(1),
                backups: hosts(2..4),
                rep_bytes: 64 << 10,
                ring_slots: slots,
            })
            .build(&mut w);
            fanout::start_replenisher(&group, &mut w, &mut eng);
            let c = FanoutClient::new(group, &mut w);
            let issue = Rc::new(
                move |w: &mut World, eng: &mut Engine<World>, k: u64, done| {
                    c.gwrite(w, eng, k % 512 * 64, &data, done)
                },
            );
            let refused = closed_loop(total, issue, &mut w, &mut eng);
            assert_eq!((slots, "fan-out", refused), (slots, "fan-out", 0));

            let (mut w, mut eng) = world();
            let group = MultiBuilder::new(MultiConfig {
                clients: hosts(0..2),
                replicas: hosts(2..5),
                rep_bytes: 64 << 10,
                ring_slots: slots,
            })
            .build(&mut w);
            multi::start_replenisher(&group, &mut w, &mut eng);
            let cs: Vec<MultiClient> = (0..2)
                .map(|c| MultiClient::new(group.clone(), c, &mut w))
                .collect();
            let issue = Rc::new(
                move |w: &mut World, eng: &mut Engine<World>, k: u64, done| {
                    cs[k as usize % 2].gwrite(w, eng, k % 512 * 64, &data, true, done)
                },
            );
            let refused = closed_loop(total, issue, &mut w, &mut eng);
            assert_eq!((slots, "multi-client", refused), (slots, "multi-client", 0));
        }
    }
}
