//! Application-level experiment runners (paper §2.2 and §6.2 —
//! Figures 2, 11, 12).

use hl_cluster::{deliver, ClusterBuilder, Ctx, ProcEvent, Process, World};
use hl_fabric::HostId;
use hl_sim::config::HwProfile;
use hl_sim::{Engine, RngStream, SimDuration, SimTime, Summary};
use hl_store::doc::native::{self, NativeDocCosts};
use hl_store::doc::{DocLayout, DocStore};
use hl_store::kv::{KvConfig, KvDb};
use hl_ycsb::{
    preload_docstore, run_until_done, ycsb_document, FrontEndCosts, HlDriver, NativeDriver,
    OpGenerator, OpKind, Workload, YcsbStats,
};
use hyperloop::api::GroupClient;
use hyperloop::naive::{Mode, NaiveBuilder, NaiveConfig};
use hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient};
use std::cell::RefCell;
use std::rc::Rc;

/// Background tenant load per server host.
#[derive(Debug, Clone, Copy)]
pub struct Background {
    /// Always-runnable CPU hogs.
    pub hogs: usize,
    /// Bursty sleep/wake tenants.
    pub bursty: usize,
}

impl Default for Background {
    fn default() -> Self {
        Background {
            hogs: 20,
            bursty: 10,
        }
    }
}

/// A background tenant alternating CPU bursts with short sleeps.
pub struct BurstyHog {
    rng: RngStream,
}

impl Process for BurstyHog {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        match ev {
            ProcEvent::Started | ProcEvent::Timer { .. } => {
                let burst = self.rng.range_u64(2_000_000, 10_000_000);
                ctx.submit_work(SimDuration::from_nanos(burst), 1);
            }
            ProcEvent::WorkDone { .. } => {
                let nap = self.rng.range_u64(500_000, 3_000_000);
                ctx.set_timer(
                    SimDuration::from_nanos(nap),
                    1,
                    SimDuration::from_nanos(500),
                );
            }
            _ => {}
        }
    }
}

/// Spawn the background load on a host (staggered starts).
pub fn spawn_background(w: &mut World, eng: &mut Engine<World>, host: HostId, bg: Background) {
    let mut rng = w.rng.stream_idx("bg-stagger", host.0 as u64);
    for k in 0..bg.hogs {
        let delay = SimDuration::from_nanos(rng.range_u64(0, 1_000_000));
        eng.schedule(delay, move |w: &mut World, eng| {
            w.spawn_hog(host, &format!("stress-hog-{}-{k}", host.0), eng);
        });
    }
    for k in 0..bg.bursty {
        let delay = SimDuration::from_nanos(rng.range_u64(0, 3_000_000));
        let seed = rng.u64();
        eng.schedule(delay, move |w: &mut World, eng| {
            let rng = w.rng.stream_idx("bursty", seed);
            w.start_process(
                host,
                &format!("stress-bursty-{}-{k}", host.0),
                None,
                Box::new(BurstyHog { rng }),
                SimDuration::from_micros(1),
                eng,
            );
        });
    }
}

// ---------------------------------------------------------------------------
// Figure 11 — replicated RocksDB (kvlite) update latency
// ---------------------------------------------------------------------------

/// kvlite backend variants of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvBackend {
    /// Event-driven Naïve-RDMA replicas.
    NaiveEvent,
    /// Busy-polling Naïve-RDMA replicas, co-located (not pinned) —
    /// the paper's surprising loser under multi-tenancy.
    NaivePolling,
    /// NIC-offloaded HyperLoop.
    HyperLoop,
}

impl KvBackend {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            KvBackend::NaiveEvent => "Naive-Event",
            KvBackend::NaivePolling => "Naive-Polling",
            KvBackend::HyperLoop => "HyperLoop",
        }
    }
}

/// Figure 11 configuration.
#[derive(Debug, Clone)]
pub struct Fig11Cfg {
    /// Backend under test.
    pub backend: KvBackend,
    /// Recorded operations (YCSB-A: half are updates).
    pub ops: u64,
    /// Cores per replica host (the co-location ratio is procs:cores).
    pub cores: usize,
    /// Background load per replica host.
    pub background: Background,
    /// Extra co-located *polling* tenants per setup (the paper
    /// co-locates multiple I/O-intensive instances; pollers amplify the
    /// contention for the polling variant).
    pub extra_pollers: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig11Cfg {
    fn default() -> Self {
        Fig11Cfg {
            backend: KvBackend::HyperLoop,
            ops: 3_000,
            cores: 8,
            background: Background { hogs: 4, bursty: 6 },
            extra_pollers: 1,
            seed: 42,
        }
    }
}

const TAG_KV_FE: u64 = 61;

struct KvDriver<C: GroupClient + 'static> {
    db: KvDb<C>,
    gen: OpGenerator,
    rng: RngStream,
    stats: Rc<RefCell<YcsbStats>>,
    ops_left: u64,
    warmup: u64,
    cur: Option<(OpKind, SimTime)>,
}

struct KvWriteDone;
struct RetryPut(u64);

impl<C: GroupClient + 'static> KvDriver<C> {
    fn start_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.ops_left == 0 {
            self.stats.borrow_mut().drivers_done += 1;
            return;
        }
        self.ops_left -= 1;
        let op = self.gen.next_op(&mut self.rng);
        self.cur = Some((op.kind, ctx.now()));
        // RocksDB is an embedded library: the client-side cost is small.
        ctx.submit_work(SimDuration::from_micros(3), TAG_KV_FE | (op.key << 8));
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>) {
        let (kind, started) = self.cur.take().expect("op in flight");
        if self.warmup > 0 {
            self.warmup -= 1;
        } else {
            let lat = ctx.now().duration_since(started);
            self.stats.borrow_mut().record(kind, lat);
        }
        self.start_next(ctx);
    }

    fn try_put(&mut self, ctx: &mut Ctx<'_>, key: u64) {
        let me = ctx.me;
        let res = self.db.put(
            ctx.world,
            ctx.eng,
            format!("user{key:08}").as_bytes(),
            &[key as u8; 1024],
            Box::new(move |w, eng, _r| {
                deliver(
                    me,
                    ProcEvent::Message(Box::new(KvWriteDone)),
                    SimDuration::from_micros(1),
                    w,
                    eng,
                );
            }),
        );
        if res.is_err() {
            // Log full / ring credits exhausted: retry shortly.
            let me = ctx.me;
            ctx.eng
                .schedule(SimDuration::from_micros(200), move |w, eng| {
                    deliver(
                        me,
                        ProcEvent::Message(Box::new(RetryPut(key))),
                        SimDuration::from_micros(1),
                        w,
                        eng,
                    );
                });
        }
    }
}

impl<C: GroupClient + 'static> Process for KvDriver<C> {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        match ev {
            ProcEvent::Started => self.start_next(ctx),
            ProcEvent::WorkDone { tag } if tag & 0xff == TAG_KV_FE => {
                let key = tag >> 8;
                let (kind, _) = *self.cur.as_ref().expect("op in flight");
                match kind {
                    OpKind::Read | OpKind::Scan => {
                        let _ = self.db.get(format!("user{key:08}").as_bytes());
                        self.finish(ctx);
                    }
                    _ => self.try_put(ctx, key),
                }
            }
            ProcEvent::Message(m) => {
                if m.downcast_ref::<KvWriteDone>().is_some() {
                    self.finish(ctx);
                } else if let Ok(r) = m.downcast::<RetryPut>() {
                    self.try_put(ctx, r.0);
                }
            }
            _ => {}
        }
    }
}

/// Figure 11: run one backend, returning update-operation latency.
pub fn run_fig11(cfg: &Fig11Cfg) -> Summary {
    let mut profile = HwProfile::default();
    profile.cpu.cores = cfg.cores;
    let (mut w, mut eng) = ClusterBuilder::new(4)
        .arena_size(16 << 20)
        .profile(profile)
        .seed(cfg.seed)
        .build();
    let replicas = vec![HostId(1), HostId(2), HostId(3)];
    for &h in &replicas {
        spawn_background(&mut w, &mut eng, h, cfg.background);
    }
    // Co-located I/O-intensive tenants: extra (unmeasured) polling
    // replication instances sharing the replica CPUs.
    let n_extra = match cfg.backend {
        KvBackend::NaivePolling => cfg.extra_pollers,
        _ => 0,
    };
    for _ in 0..n_extra {
        let _ = NaiveBuilder::new(NaiveConfig {
            client: HostId(0),
            replicas: replicas.clone(),
            rep_bytes: 64 << 10,
            ring_slots: 16,
            mode: Mode::Polling,
            ..Default::default()
        })
        .build(&mut w, &mut eng);
    }

    let kv_cfg = KvConfig {
        layout: hyperloop::api::LogLayout {
            log_off: 0,
            log_cap: 2 << 20,
            db_off: 3 << 20,
        },
        sync_period: SimDuration::from_millis(1),
        truncate_at: 0.5,
        checkpoint_cap: 1 << 20,
    };
    let stats = YcsbStats::shared();
    match cfg.backend {
        KvBackend::HyperLoop => {
            let group = GroupBuilder::new(GroupConfig {
                client: HostId(0),
                replicas,
                rep_bytes: 4 << 20,
                ring_slots: 128,
                transport_timeout: None,
                ..Default::default()
            })
            .build(&mut w);
            // note: rep_bytes must cover the kv layout's db_off area.
            replica::start_replenishers(&group, &mut w, &mut eng);
            let client = Rc::new(HyperLoopClient::new(group, &mut w));
            let db = KvDb::open(client, kv_cfg, &mut w, &mut eng);
            drive_kv(db, cfg, &stats, &mut w, &mut eng);
        }
        KvBackend::NaiveEvent | KvBackend::NaivePolling => {
            let mode = if cfg.backend == KvBackend::NaiveEvent {
                Mode::Event
            } else {
                Mode::Polling
            };
            let client = Rc::new(
                NaiveBuilder::new(NaiveConfig {
                    client: HostId(0),
                    replicas,
                    rep_bytes: 4 << 20,
                    ring_slots: 128,
                    mode,
                    ..Default::default()
                })
                .build(&mut w, &mut eng),
            );
            let db = KvDb::open(client, kv_cfg, &mut w, &mut eng);
            drive_kv(db, cfg, &stats, &mut w, &mut eng);
        }
    }
    let s = stats.borrow();
    s.writes.summary()
}

fn drive_kv<C: GroupClient + 'static>(
    db: KvDb<C>,
    cfg: &Fig11Cfg,
    stats: &Rc<RefCell<YcsbStats>>,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    let rng = w.rng.stream("kv-driver");
    w.start_process(
        HostId(0),
        "kv-ycsb",
        None,
        Box::new(KvDriver {
            db,
            gen: OpGenerator::new(Workload::A, 1000),
            rng,
            stats: stats.clone(),
            ops_left: cfg.ops * 2, // A is 50/50; ensure enough updates
            warmup: 100,
            cur: None,
        }),
        SimDuration::from_micros(1),
        eng,
    );
    run_until_done(w, eng, stats, 1, SimTime::from_nanos(u64::MAX / 2));
}

// ---------------------------------------------------------------------------
// Figure 2 — native replication under multi-tenancy
// ---------------------------------------------------------------------------

/// Figure 2 configuration: `sets` native replica sets over three servers
/// (plus three client hosts), `cores` CPU cores per server.
#[derive(Debug, Clone)]
pub struct Fig2Cfg {
    /// Number of replica sets (the paper sweeps 9..27).
    pub sets: usize,
    /// Cores per server (the paper sweeps 2..16).
    pub cores: usize,
    /// Recorded ops per set.
    pub ops_per_set: u64,
    /// Concurrent YCSB client threads per set.
    pub threads_per_set: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig2Cfg {
    fn default() -> Self {
        Fig2Cfg {
            sets: 18,
            cores: 16,
            ops_per_set: 400,
            threads_per_set: 12,
            seed: 42,
        }
    }
}

/// MongoDB-class per-op CPU costs (query parsing, BSON handling,
/// journalling, oplog application are far heavier than a lean engine's).
pub fn mongo_costs() -> NativeDocCosts {
    NativeDocCosts {
        tcp_rx: SimDuration::from_micros(10),
        parse: SimDuration::from_micros(150),
        journal: SimDuration::from_micros(60),
        apply: SimDuration::from_micros(100),
        send: SimDuration::from_micros(20),
    }
}

/// Figure 2 result.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Write (update) latency across all sets.
    pub writes: Summary,
    /// All-op latency.
    pub all: Summary,
    /// Context switches per simulated second, summed over the servers.
    pub ctx_per_sec: f64,
    /// Total context switches over the (fixed-work) run, summed over
    /// the servers — what the paper normalizes and plots.
    pub ctx_total: u64,
    /// Mean server CPU utilization.
    pub server_util: f64,
}

/// Run one Figure 2 point.
pub fn run_fig2(cfg: &Fig2Cfg) -> Fig2Result {
    let mut profile = HwProfile::default();
    profile.cpu.cores = cfg.cores;
    // 3 servers + 3 client hosts.
    let (mut w, mut eng) = ClusterBuilder::new(6)
        .arena_size(32 << 20)
        .profile(profile)
        .seed(cfg.seed)
        .build();
    let servers = [HostId(0), HostId(1), HostId(2)];
    let clients = [HostId(3), HostId(4), HostId(5)];

    let stats = YcsbStats::shared();
    let mut drivers = 0usize;
    for s in 0..cfg.sets {
        // Rotate the primary across servers.
        let hosts: Vec<HostId> = (0..3).map(|k| servers[(s + k) % 3]).collect();
        let set = native::spawn_native_set_workers(
            &mut w,
            &mut eng,
            &format!("set{s}"),
            &hosts,
            1536,
            128,
            cfg.threads_per_set,
            mongo_costs(),
        );
        let docs: Vec<_> = (0..128).map(|id| ycsb_document(id, 100)).collect();
        native::preload(&mut w, &set, 1536, 128, &docs);
        for t in 0..cfg.threads_per_set {
            let rng = w.rng.stream_idx("fig2-driver", (s * 64 + t) as u64);
            w.start_process(
                clients[s % 3],
                &format!("ycsb-{s}-{t}"),
                None,
                Box::new(NativeDriver::new(
                    set.primaries[t % set.primaries.len()],
                    set.write_recv_cost,
                    set.read_recv_cost,
                    Workload::A,
                    128,
                    cfg.ops_per_set,
                    20,
                    rng,
                    stats.clone(),
                    FrontEndCosts {
                        write: SimDuration::from_micros(120),
                        read: SimDuration::from_micros(60),
                        scan_per_doc: SimDuration::from_micros(4),
                    },
                )),
                SimDuration::from_micros(1),
                &mut eng,
            );
            drivers += 1;
        }
    }

    let start = eng.now();
    let ctx0: u64 = servers
        .iter()
        .map(|h| w.hosts[h.0].cpu.ctx_switches())
        .sum();
    run_until_done(
        &mut w,
        &mut eng,
        &stats,
        drivers,
        SimTime::from_nanos(u64::MAX / 2),
    );
    let now = eng.now();
    let secs = now.duration_since(start).as_secs_f64().max(1e-9);
    let ctx1: u64 = servers
        .iter()
        .map(|h| w.hosts[h.0].cpu.ctx_switches())
        .sum();
    let util = servers
        .iter()
        .map(|h| w.hosts[h.0].cpu.host_utilization(now))
        .sum::<f64>()
        / 3.0;

    let s = stats.borrow();
    Fig2Result {
        writes: s.writes.summary(),
        all: s.all.summary(),
        ctx_per_sec: (ctx1 - ctx0) as f64 / secs,
        ctx_total: ctx1 - ctx0,
        server_util: util,
    }
}

// ---------------------------------------------------------------------------
// Figure 12 — doclite (MongoDB-like) native vs HyperLoop across YCSB
// ---------------------------------------------------------------------------

/// Replication mode for Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocMode {
    /// Conventional CPU-driven primary/secondary replication.
    Native,
    /// HyperLoop NIC-offloaded chains.
    HyperLoop,
}

/// Figure 12 configuration.
#[derive(Debug, Clone)]
pub struct Fig12Cfg {
    /// Replication mode.
    pub mode: DocMode,
    /// Workload.
    pub workload: Workload,
    /// Total tenant databases (one measured; the rest provide load).
    pub sets: usize,
    /// Cores per server.
    pub cores: usize,
    /// Client threads driving each *background* database.
    pub bg_threads: usize,
    /// Recorded ops on the measured database.
    pub ops: u64,
    /// Records per database.
    pub records: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig12Cfg {
    fn default() -> Self {
        Fig12Cfg {
            mode: DocMode::Native,
            workload: Workload::A,
            sets: 12,
            cores: 8,
            bg_threads: 6,
            ops: 1_500,
            records: 128,
            seed: 42,
        }
    }
}

/// Figure 12 result.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Write (insert/update/RMW) latency on the measured database.
    pub writes: Summary,
    /// All-operation latency.
    pub all: Summary,
    /// Mean server ("backup") CPU utilization.
    pub server_util: f64,
}

/// Run one Figure 12 point.
pub fn run_fig12(cfg: &Fig12Cfg) -> Fig12Result {
    let mut profile = HwProfile::default();
    profile.cpu.cores = cfg.cores;
    let (mut w, mut eng) = ClusterBuilder::new(6)
        .arena_size(64 << 20)
        .profile(profile)
        .seed(cfg.seed)
        .build();
    let servers = [HostId(0), HostId(1), HostId(2)];
    let clients = [HostId(3), HostId(4), HostId(5)];

    let stats_measured = YcsbStats::shared();
    let stats_bg = YcsbStats::shared();
    let fe = FrontEndCosts {
        write: SimDuration::from_micros(150),
        read: SimDuration::from_micros(60),
        scan_per_doc: SimDuration::from_micros(4),
    };
    // The client machines are shared YCSB hosts: a little background
    // load there adds the client-stack jitter the paper attributes to
    // "MongoDB's software stack in the client".
    for &c in &clients {
        spawn_background(&mut w, &mut eng, c, Background { hogs: 2, bursty: 4 });
    }

    let layout = DocLayout {
        n_slots: cfg.records * 2,
        ..Default::default()
    };

    for s in 0..cfg.sets {
        let measured = s == 0;
        let stats = if measured { &stats_measured } else { &stats_bg };
        // Background sets run a continuous stream; the measured one
        // records `ops` then stops.
        let (ops, warmup) = if measured {
            (cfg.ops, 20)
        } else {
            (u64::MAX / 4, 0)
        };
        match cfg.mode {
            DocMode::Native => {
                let hosts: Vec<HostId> = (0..3).map(|k| servers[(s + k) % 3]).collect();
                let threads = if measured { 1 } else { cfg.bg_threads };
                let set = native::spawn_native_set_workers(
                    &mut w,
                    &mut eng,
                    &format!("set{s}"),
                    &hosts,
                    layout.slot_size,
                    layout.n_slots,
                    threads,
                    mongo_costs(),
                );
                let docs: Vec<_> = (0..cfg.records).map(|id| ycsb_document(id, 100)).collect();
                native::preload(&mut w, &set, layout.slot_size, layout.n_slots, &docs);
                for t in 0..threads {
                    let rng = w.rng.stream_idx("fig12-driver", (s * 64 + t) as u64);
                    w.start_process(
                        clients[s % 3],
                        &format!("ycsb-{s}-{t}"),
                        None,
                        Box::new(NativeDriver::new(
                            set.primaries[t % set.primaries.len()],
                            set.write_recv_cost,
                            set.read_recv_cost,
                            cfg.workload,
                            cfg.records,
                            ops,
                            warmup,
                            rng,
                            stats.clone(),
                            fe.clone(),
                        )),
                        SimDuration::from_micros(1),
                        &mut eng,
                    );
                }
            }
            DocMode::HyperLoop => {
                let group = GroupBuilder::new(GroupConfig {
                    client: clients[s % 3],
                    replicas: servers.to_vec(),
                    rep_bytes: 2 << 20,
                    ring_slots: 64,
                    transport_timeout: None,
                    ..Default::default()
                })
                .build(&mut w);
                replica::start_replenishers(&group, &mut w, &mut eng);
                let client = Rc::new(HyperLoopClient::new(group, &mut w));
                preload_docstore(&mut w, &*client, &layout, cfg.records, 100);
                let store = DocStore::open(client, layout.clone(), s as u32 + 1, true);
                let rng = w.rng.stream_idx("fig12-driver", s as u64);
                w.start_process(
                    clients[s % 3],
                    &format!("ycsb-{s}"),
                    None,
                    Box::new(HlDriver::new(
                        store,
                        cfg.workload,
                        cfg.records,
                        ops,
                        warmup,
                        rng,
                        stats.clone(),
                        fe.clone(),
                    )),
                    SimDuration::from_micros(1),
                    &mut eng,
                );
            }
        }
    }

    run_until_done(
        &mut w,
        &mut eng,
        &stats_measured,
        1,
        SimTime::from_nanos(u64::MAX / 2),
    );
    let now = eng.now();
    let util = servers
        .iter()
        .map(|h| w.hosts[h.0].cpu.host_utilization(now))
        .sum::<f64>()
        / 3.0;
    let s = stats_measured.borrow();
    Fig12Result {
        writes: s.writes.summary(),
        all: s.all.summary(),
        server_util: util,
    }
}
