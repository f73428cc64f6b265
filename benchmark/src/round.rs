//! One round of one workload, run in a child process of its own: build
//! the world, warm up, measure a window, check the outputs, and hand the
//! raw measurements to the parent as one JSON object.
//!
//! Everything is read from outside the simulator: public getters,
//! `Instant` around public calls, and the wrappers of `spy.rs`.

use crate::host;
use crate::json::{obj, Json};
use crate::pump::{Issuer, Pump, PumpCfg};
use crate::spy::{Spy, Tap, TapLog};
use crate::stats::percentile;
use hl_cluster::shard::ShardPlan;
use hl_cluster::{ClusterBuilder, Ctx, ProcEvent, Process, World};
use hl_fabric::{HostId, Impairment};
use hl_sim::config::HwProfile;
use hl_sim::{Engine, Histogram, RngFactory, RngStream, SimDuration, SimTime};
use hl_store::doc::{DocLayout, DocStore};
use hl_ycsb::{preload_docstore, ycsb_document, FrontEndCosts, HlDriver, YcsbStats};
use hyperloop::naive::{Mode, NaiveBuilder, NaiveConfig};
use hyperloop::{
    replica, DeadlinePolicy, GroupBuilder, GroupConfig, GroupRef, HyperLoopClient, RetryClient,
    ShardRouter,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GwriteChain,
    NaiveTenants,
    YcsbADoc,
    ShardedRouter,
    LossyChain,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::GwriteChain,
        Workload::NaiveTenants,
        Workload::YcsbADoc,
        Workload::ShardedRouter,
        Workload::LossyChain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GwriteChain => "gwrite_chain",
            Workload::NaiveTenants => "naive_tenants",
            Workload::YcsbADoc => "ycsb_a_doc",
            Workload::ShardedRouter => "sharded_router",
            Workload::LossyChain => "lossy_chain",
        }
    }

    /// Why the workload exists: the layers it loads and the ones it leaves idle.
    pub fn why(self) -> &'static str {
        match self {
            Workload::GwriteChain => "1 KiB gWRITE, 3-member HyperLoop chain, 16 outstanding, no tenants: the NIC-offload datapath alone (hl-rnic WAIT, hl-fabric, hl-nvm, hl-sim); hl-cpu, store, router and retry idle",
            Workload::NaiveTenants => "the same writes through the Naive-RDMA baseline with 32 tenants per replica host: replica CPUs on the critical path (hl-cpu, hyperloop::naive), no WAIT; a WAIT-path gain must not move it",
            Workload::YcsbADoc => "YCSB-A from hl-ycsb into hl-store DocStore over 4 HyperLoop chains: the full application stack, gCAS and gMEMCPY beside gWRITE; a per-primitive gain is diluted here by store and front-end cost",
            Workload::ShardedRouter => "64 B writes over 8 disjoint chains through ShardRouter and RetryClient, 8 outstanding per shard: per-op cost of router, deadline timers and the event wheel with 24 hosts in one engine",
            Workload::LossyChain => "1 KiB flushed writes through RetryClient with 2% loss on the first hop: the only workload where go-back-N, attempt deadlines, re-issue and gFLUSH do work",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per round, warm-up included: sized so that a round
    /// measures about 1.2 s of host time on the 2-core reference box.
    fn ops(self) -> usize {
        match self {
            Workload::GwriteChain => 220_000,
            Workload::NaiveTenants => 180_000,
            Workload::YcsbADoc => 4 * 9_000,
            Workload::ShardedRouter => 8 * 22_000,
            Workload::LossyChain => 140_000,
        }
    }
}

pub struct RoundCfg {
    pub workload: Workload,
    pub seed: u64,
    /// Time every issue call and turn telemetry on for the tail.
    pub traced: bool,
    /// 1/50 of the operations (smoke tests).
    pub quick: bool,
    /// Where to write the Chrome trace of a traced round.
    pub trace_out: Option<std::path::PathBuf>,
}

/// Operation counts of a round.
struct Size {
    ops: usize,
    warmup: usize,
    /// Operations at the end of the window that a traced round traces.
    tail: usize,
}

impl RoundCfg {
    fn size(&self) -> Size {
        let ops = if self.quick {
            self.workload.ops() / 50
        } else {
            self.workload.ops()
        };
        let tail = match self.workload {
            Workload::YcsbADoc => 512,
            _ => 2048,
        };
        Size {
            ops,
            warmup: ops / 10,
            tail: tail.min(ops / 4),
        }
    }
}

pub(crate) const CLIENT: HostId = HostId(0);
pub(crate) const CHAIN_REPLICAS: [HostId; 2] = [HostId(1), HostId(2)];
/// Simulated time given to tenants, pollers and replenishers to start
/// before the first operation.
const PRIME: SimTime = SimTime::from_nanos(4_000_000);
/// Simulated time run after the window before NVM is compared, so that
/// late duplicates of re-issued writes have landed.
const DRAIN: SimDuration = SimDuration::from_millis(20);

// ---------------------------------------------------------------------------
// Measurement scaffolding
// ---------------------------------------------------------------------------

/// Monotonic counters read through public getters, summed over hosts.
fn read_counters(w: &World, eng: &Engine<World>) -> Vec<(&'static str, u64)> {
    let nic = |f: fn(&hl_rnic::NicCounters) -> u64| -> u64 {
        w.hosts.iter().map(|h| f(h.nic.counters())).sum()
    };
    let hosts = || (0..w.hosts.len()).map(HostId);
    vec![
        ("events", eng.events_executed()),
        ("nic_wqes", nic(|c| c.wqes_executed)),
        ("nic_doorbells", nic(|c| c.doorbells)),
        ("nic_tx_packets", nic(|c| c.tx_packets)),
        ("nic_rx_packets", nic(|c| c.rx_packets)),
        ("nic_wait_parks", nic(|c| c.wait_parks)),
        ("nic_wait_fires", nic(|c| c.wait_fires)),
        ("nic_retransmits", nic(|c| c.retransmits)),
        ("nic_timeouts", nic(|c| c.timeouts)),
        ("nic_rx_dropped", nic(|c| c.rx_dropped)),
        ("nic_naks", nic(|c| c.naks_sent)),
        ("nic_error_cqes", nic(|c| c.error_cqes)),
        ("fabric_msgs", hosts().map(|h| w.fabric.msgs_tx(h)).sum()),
        ("fabric_bytes", hosts().map(|h| w.fabric.bytes_tx(h)).sum()),
        // Impairment losses are already part of `drops()`.
        ("fabric_drops", w.fabric.drops()),
        (
            "nvm_flushes",
            w.hosts.iter().map(|h| h.mem.flush_count()).sum(),
        ),
    ]
}

/// `after - before` of two readings of the same named counters.
fn deltas(
    before: &[(&'static str, u64)],
    after: &[(&'static str, u64)],
) -> impl Iterator<Item = (String, Json)> {
    let pairs: Vec<_> = before
        .iter()
        .zip(after)
        .map(|((name, b), (_, a))| (name.to_string(), Json::from(a - b)))
        .collect();
    pairs.into_iter()
}

/// Host-side state at one instant.
struct HostMark {
    at: Instant,
    cpu_s: f64,
    allocs: u64,
    alloc_bytes: u64,
}

impl HostMark {
    /// Reading the CPU clock allocates (it reads a `/proc` file), so it
    /// happens outside the window on both sides: before the counters are
    /// read when the window opens, after when it closes.
    fn opening() -> Self {
        let cpu_s = host::cpu_seconds();
        let (allocs, alloc_bytes) = host::alloc_counts();
        HostMark {
            at: Instant::now(),
            cpu_s,
            allocs,
            alloc_bytes,
        }
    }

    fn closing() -> Self {
        let at = Instant::now();
        let (allocs, alloc_bytes) = host::alloc_counts();
        HostMark {
            at,
            cpu_s: host::cpu_seconds(),
            allocs,
            alloc_bytes,
        }
    }
}

/// Everything recorded when the measured window opens.
struct WindowStart {
    host: HostMark,
    sim: SimTime,
    counters: Vec<(&'static str, u64)>,
}

fn open_window(w: &mut World, eng: &Engine<World>) -> WindowStart {
    let sim = eng.now();
    // Accounting only: from here the CPU getters describe the window.
    for h in &mut w.hosts {
        h.cpu.reset_metrics(sim);
    }
    WindowStart {
        counters: read_counters(w, eng),
        sim,
        host: HostMark::opening(),
    }
}

/// What the setup phase cost, by layer.
#[derive(Default)]
pub(crate) struct SetupCost {
    build_s: f64,
    place_us: f64,
    group_build_s: f64,
}

/// The measured window of a round, both clocks.
struct Window {
    sim: Vec<(String, Json)>,
    host: Vec<(String, Json)>,
}

#[allow(clippy::too_many_arguments)]
fn close_window(
    start: WindowStart,
    process_start: Instant,
    setup: &SetupCost,
    ops: usize,
    replicas: &[HostId],
    tail_started: Option<Instant>,
    w: &World,
    eng: &Engine<World>,
) -> Window {
    let end = HostMark::closing();
    let now = eng.now();
    let window_ns = now.duration_since(start.sim).as_nanos();
    let counters = read_counters(w, eng);

    // Replica CPUs over the window: tenants ("stress-*") are background,
    // whatever else ran is the replication datapath.
    let secs = window_ns as f64 / 1e9;
    let mut sched = Histogram::new();
    let (mut ctx_switches, mut util, mut datapath_cores) = (0u64, 0.0f64, 0.0f64);
    for r in replicas {
        let cpu = &w.hosts[r.0].cpu;
        ctx_switches += cpu.ctx_switches();
        sched.merge(cpu.sched_latency());
        let u = cpu.host_utilization(now);
        util += u / replicas.len() as f64;
        let busy_s = u * cpu.cores() as f64 * secs;
        let tenant_s = cpu.busy_ns_by_prefix("stress-") as f64 / 1e9;
        datapath_cores = datapath_cores.max((busy_s - tenant_s).max(0.0) / secs);
    }

    let mut sim: Vec<(String, Json)> = vec![
        ("ops".into(), Json::from(ops as u64)),
        ("window_ns".into(), Json::from(window_ns)),
        ("replica_cpu_cores".into(), Json::from(datapath_cores)),
        ("cpu_ctx_switches".into(), Json::from(ctx_switches)),
        ("cpu_sched_p99_ns".into(), Json::from(sched.p99())),
        ("cpu_replica_util".into(), Json::from(util)),
    ];
    sim.extend(deltas(&start.counters, &counters));

    let host = vec![
        (
            "wall_s".to_string(),
            Json::from((end.at - start.host.at).as_secs_f64()),
        ),
        ("cpu_s".into(), Json::from(end.cpu_s - start.host.cpu_s)),
        (
            "setup_s".into(),
            Json::from((start.host.at - process_start).as_secs_f64()),
        ),
        (
            "tail_wall_s".into(),
            Json::from(tail_started.map_or(0.0, |t| (end.at - t).as_secs_f64())),
        ),
        ("build_s".into(), Json::from(setup.build_s)),
        ("place_us".into(), Json::from(setup.place_us)),
        ("group_build_s".into(), Json::from(setup.group_build_s)),
        ("allocs".into(), Json::from(end.allocs - start.host.allocs)),
        (
            "alloc_bytes".into(),
            Json::from(end.alloc_bytes - start.host.alloc_bytes),
        ),
        (
            "setup_alloc_bytes".into(),
            Json::from(start.host.alloc_bytes),
        ),
    ];
    Window { sim, host }
}

/// `p50`, `p99`, sum and count of a latency sample, under `prefix`.
fn latency_fields(prefix: &str, ns: &mut [u64], out: &mut Vec<(String, Json)>) {
    ns.sort_unstable();
    out.push((format!("{prefix}samples"), Json::from(ns.len() as u64)));
    if ns.is_empty() {
        return;
    }
    let sum: u64 = ns.iter().sum();
    out.push((format!("{prefix}p50_ns"), Json::from(percentile(ns, 0.50))));
    out.push((format!("{prefix}p99_ns"), Json::from(percentile(ns, 0.99))));
    out.push((format!("{prefix}sum_ns"), Json::from(sum)));
}

/// The traced tail: per-segment totals over every completed span, and
/// the Chrome trace file.
fn trace_section(
    cfg: &RoundCfg,
    tail_ops: u64,
    traced_ops: u64,
    traced_lat_ns: u64,
    w: &World,
    checks: &mut Vec<(String, Json)>,
) -> Json {
    let attribution = w.attribution();
    let mut segments: Vec<(String, Json)> = Vec::new();
    let (mut spans, mut e2e_ns, mut seg_ns) = (0u64, 0u64, 0u64);
    for kind in &attribution.kinds {
        spans += kind.ops;
        e2e_ns += kind.e2e.sum() as u64;
        for s in &kind.segments {
            seg_ns += s.total_ns;
            match segments.iter_mut().find(|(l, _)| l == s.label) {
                Some((_, Json::Num(total))) => *total += s.total_ns as f64,
                _ => segments.push((s.label.to_string(), Json::from(s.total_ns))),
            }
        }
    }
    segments.sort_by(|a, b| a.0.cmp(&b.0));
    // The segments of a span telescope, so they must add up to the
    // spans' latency to the nanosecond; and where no attempt was
    // abandoned the spans are exactly the operations the clients timed.
    checks.push(("segments_sum_to_spans".into(), Json::from(seg_ns == e2e_ns)));
    if cfg.workload != Workload::LossyChain {
        checks.push((
            "spans_match_client_latency".into(),
            Json::from(spans == traced_ops && e2e_ns == traced_lat_ns),
        ));
    }
    if let Some(path) = &cfg.trace_out {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, w.telemetry.chrome_trace()));
        checks.push(("trace_written".into(), Json::from(written.is_ok())));
    }
    obj([
        ("tail_ops", Json::from(tail_ops)),
        ("spans", Json::from(spans)),
        ("e2e_ns", Json::from(e2e_ns)),
        ("client_ops", Json::from(traced_ops)),
        ("client_lat_ns", Json::from(traced_lat_ns)),
        ("segments", Json::Obj(segments)),
    ])
}

fn finish(
    cfg: &RoundCfg,
    win: Window,
    attempted: u64,
    failed: u64,
    checks: Vec<(String, Json)>,
    trace: Option<Json>,
) -> Json {
    let correct = checks.iter().all(|(_, ok)| ok.bool() == Some(true));
    let mut host = win.host;
    host.push(("peak_rss_mb".into(), Json::from(host::peak_rss_mb())));
    obj([
        ("workload", Json::from(cfg.workload.name())),
        ("seed", Json::from(cfg.seed)),
        ("traced", Json::from(cfg.traced)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("correct", Json::from(correct)),
        ("checks", Json::Obj(checks)),
        ("sim", Json::Obj(win.sim)),
        ("host", Json::Obj(host)),
        ("trace", trace.unwrap_or(Json::Null)),
    ])
}

// ---------------------------------------------------------------------------
// Building blocks
// ---------------------------------------------------------------------------

/// A tenant that alternates CPU bursts with short sleeps; its
/// sleeper-credited wake-ups compete with a replica's (as the tenants
/// of the paper's multi-tenant servers do).
struct BurstyTenant {
    rng: RngStream,
}

impl Process for BurstyTenant {
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

/// Start `hogs` always-runnable and `bursty` sleep/wake tenants on
/// `host`, at staggered times so their slices do not expire in lockstep.
fn spawn_tenants(w: &mut World, eng: &mut Engine<World>, host: HostId, hogs: usize, bursty: usize) {
    let mut rng = w.rng.stream_idx("tenant-stagger", host.0 as u64);
    for k in 0..hogs {
        let delay = SimDuration::from_nanos(rng.range_u64(0, 1_000_000));
        eng.schedule(delay, move |w: &mut World, eng| {
            w.spawn_hog(host, &format!("stress-hog-{}-{k}", host.0), eng);
        });
    }
    for k in 0..bursty {
        let delay = SimDuration::from_nanos(rng.range_u64(0, 3_000_000));
        let stream = rng.u64();
        eng.schedule(delay, move |w: &mut World, eng| {
            let rng = w.rng.stream_idx("tenant-bursty", stream);
            w.start_process(
                host,
                &format!("stress-bursty-{}-{k}", host.0),
                None,
                Box::new(BurstyTenant { rng }),
                SimDuration::from_micros(1),
                eng,
            );
        });
    }
}

/// The chain every write workload uses, over a region that holds the
/// pump's slots of `write_size` bytes.
pub(crate) fn chain_cfg(write_size: usize, client: HostId, replicas: Vec<HostId>) -> GroupConfig {
    GroupConfig {
        client,
        replicas,
        rep_bytes: rep_bytes(write_size),
        ring_slots: 256,
        replenish_period: SimDuration::from_micros(50),
        transport_timeout: None,
    }
}

/// Build one HyperLoop chain and start its replenishers.
pub(crate) fn build_chain(
    cfg: GroupConfig,
    w: &mut World,
    eng: &mut Engine<World>,
    cost: &mut SetupCost,
) -> (GroupRef, HyperLoopClient) {
    let t = Instant::now();
    let group = GroupBuilder::new(cfg).build(w);
    replica::start_replenishers(&group, w, eng);
    let client = HyperLoopClient::new(group.clone(), w);
    cost.group_build_s += t.elapsed().as_secs_f64();
    (group, client)
}

fn build_world(
    hosts: usize,
    arena: usize,
    profile: HwProfile,
    seed: u64,
    cost: &mut SetupCost,
) -> (World, Engine<World>) {
    let t = Instant::now();
    let built = ClusterBuilder::new(hosts)
        .arena_size(arena)
        .profile(profile)
        .seed(seed)
        .build();
    cost.build_s = t.elapsed().as_secs_f64();
    built
}

/// Replicated-region bytes for a slot-rotating write workload.
fn rep_bytes(size: usize) -> u64 {
    (crate::pump::SLOTS * size.max(64) as u64 + (64 << 10)).next_power_of_two()
}

// ---------------------------------------------------------------------------
// The four write workloads
// ---------------------------------------------------------------------------

fn run_write_round(cfg: &RoundCfg, process_start: Instant) -> Json {
    let size = cfg.size();
    let mut cost = SetupCost::default();
    let (write_size, flush, outstanding) = match cfg.workload {
        Workload::ShardedRouter => (64, false, 8),
        Workload::LossyChain => (1024, true, 16),
        _ => (1024, false, 16),
    };
    let rep = rep_bytes(write_size);
    let arena = (rep as usize + (4 << 20)).next_power_of_two();
    let n_hosts = if cfg.workload == Workload::ShardedRouter {
        24
    } else {
        3
    };
    let (mut w, mut eng) = build_world(n_hosts, arena, HwProfile::default(), cfg.seed, &mut cost);
    let chain_cfg = |client: HostId, replicas: Vec<HostId>| chain_cfg(write_size, client, replicas);

    let mut replicas: Vec<HostId> = CHAIN_REPLICAS.to_vec();
    let mut groups: Vec<GroupRef> = Vec::new();
    let mut retries: Vec<RetryClient> = Vec::new();
    let mut naive = None;
    let issuer = match cfg.workload {
        Workload::GwriteChain => {
            let (g, c) = build_chain(
                chain_cfg(CLIENT, replicas.clone()),
                &mut w,
                &mut eng,
                &mut cost,
            );
            groups.push(g);
            Issuer::Hyper(c)
        }
        Workload::NaiveTenants => {
            // 32 tenants per replica host, one third of them bursty.
            for &r in &replicas {
                spawn_tenants(&mut w, &mut eng, r, 22, 10);
            }
            let t = Instant::now();
            let c = NaiveBuilder::new(NaiveConfig {
                client: CLIENT,
                replicas: replicas.clone(),
                rep_bytes: rep,
                ring_slots: 256,
                mode: Mode::Event,
                ..Default::default()
            })
            .build(&mut w, &mut eng);
            cost.group_build_s = t.elapsed().as_secs_f64();
            naive = Some(c.clone());
            Issuer::Naive(c)
        }
        Workload::ShardedRouter => {
            let hosts: Vec<HostId> = (0..n_hosts).map(HostId).collect();
            let t = Instant::now();
            let plan = ShardPlan::place(8, 2, &hosts);
            cost.place_us = t.elapsed().as_secs_f64() * 1e6;
            assert!(
                plan.is_disjoint(),
                "24 hosts place 8 chains of 3 disjointly"
            );
            replicas.clear();
            for g in &plan.groups {
                replicas.extend(&g.replicas);
                let (group, c) = build_chain(
                    chain_cfg(g.client, g.replicas.clone()),
                    &mut w,
                    &mut eng,
                    &mut cost,
                );
                groups.push(group);
                retries.push(RetryClient::with_policy(c, DeadlinePolicy::default()));
            }
            Issuer::Router(ShardRouter::new(retries.clone()))
        }
        Workload::LossyChain => {
            // The NIC repairs a loss after 200 us; the supervisor's 1 ms
            // deadline outlasts a few such repairs and re-issues beyond
            // that, so both reliability layers do work.
            let mut gc = chain_cfg(CLIENT, replicas.clone());
            gc.transport_timeout = Some((SimDuration::from_micros(200), 7));
            let (g, c) = build_chain(gc, &mut w, &mut eng, &mut cost);
            groups.push(g);
            w.fabric
                .set_impairment(CLIENT, replicas[0], Impairment::loss(0.02));
            let retry = RetryClient::with_policy(
                c,
                DeadlinePolicy {
                    deadline: SimDuration::from_micros(1000),
                    max_attempts: 10,
                    backoff: SimDuration::from_micros(100),
                    backoff_cap: SimDuration::from_micros(1000),
                },
            );
            retries.push(retry.clone());
            Issuer::Retry(retry)
        }
        Workload::YcsbADoc => unreachable!("run_ycsb_round"),
    };

    let gen = RngFactory::new(cfg.seed).stream("workload-writes");
    let pump = Pump::new(
        issuer,
        PumpCfg {
            size: write_size,
            flush,
            budget: size.ops,
            warmup: size.warmup,
            tail: size.tail,
            traced: cfg.traced,
        },
        gen,
    );

    eng.run_until(&mut w, PRIME);
    pump.start(outstanding, &mut w, &mut eng);
    pump.run_until_settled(size.warmup, &mut w, &mut eng);

    // Counters of the client-side layers, summed over every chain.
    let client_counters = || -> Vec<(&'static str, u64)> {
        let refused = groups
            .iter()
            .map(|g| g.borrow().stats.backpressured)
            .chain(naive.iter().map(|c| c.group().borrow().stats.backpressured));
        let retry = |f: fn(&hyperloop::RetryStats) -> u64| -> u64 {
            retries.iter().map(|r| f(&r.stats())).sum()
        };
        vec![
            ("backpressure", refused.sum()),
            ("retry_reissues", retry(|s| s.reissues)),
            ("retry_attempt_timeouts", retry(|s| s.attempt_timeouts)),
            ("retry_deadline_exceeded", retry(|s| s.deadline_exceeded)),
        ]
    };
    let clients_before = client_counters();
    let start = open_window(&mut w, &eng);
    pump.run_until_settled(size.ops, &mut w, &mut eng);
    let measured = size.ops - size.warmup;
    let tail_started = pump.state.borrow().tail_started;
    let mut win = close_window(
        start,
        process_start,
        &cost,
        measured,
        &replicas,
        tail_started,
        &w,
        &eng,
    );

    win.sim.extend(deltas(&clients_before, &client_counters()));
    win.sim.push((
        "user_bytes".into(),
        Json::from((measured * write_size) as u64),
    ));

    // Quiesce, then check outputs before anything is reported.
    let until = SimTime::from_nanos(eng.now().as_nanos() + DRAIN.as_nanos());
    eng.run_until(&mut w, until);
    let (checked, wrong, volatile) = pump.verify(&w);
    let mut st = pump.state.borrow_mut();
    latency_fields("", &mut st.lat_ns, &mut win.sim);
    win.host.push(("issue_ns".into(), Json::from(st.issue_ns)));
    win.host
        .push(("issue_calls".into(), Json::from(st.issue_calls)));
    let mut checks = vec![
        (
            "all_settled".to_string(),
            Json::from(st.settled == size.ops && st.issued == size.ops),
        ),
        (
            "every_measured_op_timed".into(),
            Json::from(st.lat_ns.len() == measured),
        ),
        ("nvm_checked".into(), Json::from(checked > 0)),
        (
            "nvm_bytes_match_on_every_member".into(),
            Json::from(wrong == 0),
        ),
        ("flushed_writes_durable".into(), Json::from(volatile == 0)),
    ];
    let trace = cfg.traced.then(|| {
        trace_section(
            cfg,
            st.traced_ops,
            st.traced_ops,
            st.traced_lat_ns,
            &w,
            &mut checks,
        )
    });
    // Failures are counted over the whole round: a write lost during the
    // warm-up is as wrong as one lost in the window.
    finish(cfg, win, size.ops as u64, st.failed as u64, checks, trace)
}

// ---------------------------------------------------------------------------
// YCSB-A on the document store
// ---------------------------------------------------------------------------

const SERVERS: [HostId; 3] = [HostId(0), HostId(1), HostId(2)];
const YCSB_CLIENTS: [HostId; 3] = [HostId(3), HostId(4), HostId(5)];
const DATABASES: usize = 4;
const RECORDS: u64 = 1024;
const FIELD_BYTES: usize = 100;
const DOC_REP_BYTES: u64 = 4 << 20;

type SpiedStore = DocStore<Spy<HyperLoopClient>>;

fn run_ycsb_round(cfg: &RoundCfg, process_start: Instant) -> Json {
    let size = cfg.size();
    let mut cost = SetupCost::default();
    let mut profile = HwProfile::default();
    profile.cpu.cores = 8;
    let (mut w, mut eng) = build_world(6, 64 << 20, profile, cfg.seed, &mut cost);
    // The client machines are shared YCSB hosts (Fig. 12): a little
    // background load there adds client-stack jitter.
    for &c in &YCSB_CLIENTS {
        spawn_tenants(&mut w, &mut eng, c, 2, 4);
    }
    let layout = DocLayout {
        n_slots: RECORDS * 2,
        ..Default::default()
    };
    assert!(layout.log.db_off + layout.n_slots * layout.slot_size <= DOC_REP_BYTES);
    let fe = FrontEndCosts::default();
    let gen = RngFactory::new(cfg.seed);

    let log = Rc::new(RefCell::new(TapLog {
        warmup: size.warmup as u64,
        tail_at: (size.ops - size.tail) as u64,
        trace_tail: cfg.traced,
        ..Default::default()
    }));
    let mut stores: Vec<(SpiedStore, Rc<Spy<HyperLoopClient>>)> = Vec::new();
    let mut all_stats = Vec::new();
    for db in 0..DATABASES {
        let client_host = YCSB_CLIENTS[db % 3];
        let (_, client) = build_chain(
            GroupConfig {
                client: client_host,
                replicas: SERVERS.to_vec(),
                rep_bytes: DOC_REP_BYTES,
                ring_slots: 64,
                replenish_period: SimDuration::from_micros(200),
                transport_timeout: None,
            },
            &mut w,
            &mut eng,
            &mut cost,
        );
        let spy = Rc::new(Spy::new(client, DOC_REP_BYTES as usize, cfg.traced));
        preload_docstore(&mut w, &*spy, &layout, RECORDS, FIELD_BYTES);
        spy.sync_shadow(&w);
        let store = DocStore::open(spy.clone(), layout.clone(), db as u32 + 1, true);
        let stats = YcsbStats::shared();
        let driver = HlDriver::new(
            store.clone(),
            hl_ycsb::Workload::A,
            RECORDS,
            (size.ops / DATABASES) as u64,
            0,
            gen.stream_idx("workload-ycsb", db as u64),
            stats.clone(),
            fe.clone(),
        );
        w.start_process(
            client_host,
            &format!("ycsb-{db}"),
            None,
            Box::new(Tap {
                inner: Box::new(driver),
                stats: stats.clone(),
                log: log.clone(),
                op_started: SimTime::ZERO,
            }),
            SimDuration::from_micros(1),
            &mut eng,
        );
        stores.push((store, spy));
        all_stats.push(stats);
    }

    let run_to = |n: u64, w: &mut World, eng: &mut Engine<World>| {
        let seen = log.clone();
        eng.run_while(w, move |_| seen.borrow().completed < n);
        assert!(
            log.borrow().completed >= n,
            "engine ran dry before {n} operations"
        );
    };
    run_to(size.warmup as u64, &mut w, &mut eng);
    let spy_before = spy_totals(&stores);
    let start = open_window(&mut w, &eng);
    run_to(size.ops as u64, &mut w, &mut eng);
    let measured = size.ops - size.warmup;
    let tail_started = log.borrow().tail_started;
    let mut win = close_window(
        start,
        process_start,
        &cost,
        measured,
        &SERVERS,
        tail_started,
        &w,
        &eng,
    );

    win.sim.extend(deltas(&spy_before, &spy_totals(&stores)));
    let until = SimTime::from_nanos(eng.now().as_nanos() + DRAIN.as_nanos());
    eng.run_until(&mut w, until);

    let mut log = log.borrow_mut();
    let updates = log.update_ns.len() as u64;
    let mut both: Vec<u64> = log.read_ns.iter().chain(&log.update_ns).copied().collect();
    latency_fields("all_", &mut both, &mut win.sim);
    latency_fields("read_", &mut log.read_ns, &mut win.sim);
    // The store's work is the update path, and with a 50/50 mix the
    // median of all operations would sit on the edge between the two
    // kinds: the headline latencies are the updates'.
    latency_fields("", &mut log.update_ns, &mut win.sim);
    win.sim.push(("updates".into(), Json::from(updates)));
    win.sim.push((
        "user_bytes".into(),
        Json::from(updates * 10 * FIELD_BYTES as u64),
    ));
    win.sim
        .push(("frontend_write_ns".into(), Json::from(fe.write.as_nanos())));
    let (issue_ns, issue_calls, traced_ops, traced_lat) =
        stores.iter().fold((0, 0, 0, 0), |acc, (_, s)| {
            let st = s.state.borrow();
            (
                acc.0 + st.issue_ns,
                acc.1 + st.issue_calls,
                acc.2 + st.traced_ops,
                acc.3 + st.traced_lat_ns,
            )
        });
    win.host.push(("issue_ns".into(), Json::from(issue_ns)));
    win.host
        .push(("issue_calls".into(), Json::from(issue_calls)));

    // Output checks. The drivers discard nothing themselves (warm-up 0),
    // so their histograms must agree with the tap to the nanosecond.
    let stats_sum: u128 = all_stats.iter().map(|s| s.borrow().all.sum()).sum();
    let committed: u64 = stores.iter().map(|(s, _)| s.committed()).sum();
    let quiet = stores
        .iter()
        .all(|(_, s)| s.state.borrow().outstanding == 0);
    let shadow_ok = stores
        .iter()
        .all(|(_, s)| s.mismatched_members(&w).is_empty());
    let mut docs_ok = true;
    for (store, spy) in &stores {
        for id in 0..RECORDS {
            let want = ycsb_document(id, FIELD_BYTES);
            for m in 0..hyperloop::api::GroupClient::group_size(&**spy) {
                docs_ok &= store.read_at(&mut w, m, id).as_ref() == Some(&want);
            }
        }
    }
    let total_updates: u64 = all_stats.iter().map(|s| s.borrow().writes.count()).sum();
    let mut checks = vec![
        (
            "all_drivers_done".to_string(),
            Json::from(log.drivers_done == DATABASES && log.completed == size.ops as u64),
        ),
        (
            "every_measured_op_timed".into(),
            Json::from(both.len() == measured),
        ),
        (
            "tap_matches_driver_histograms".into(),
            Json::from(log.total_ns == stats_sum),
        ),
        (
            "every_update_committed".into(),
            Json::from(committed == total_updates),
        ),
        ("chains_quiescent".into(), Json::from(quiet)),
        (
            "nvm_matches_shadow_on_every_member".into(),
            Json::from(shadow_ok),
        ),
        (
            "read_back_equals_model_on_every_member".into(),
            Json::from(docs_ok),
        ),
    ];
    let trace = cfg.traced.then(|| {
        trace_section(
            cfg,
            size.tail as u64,
            traced_ops,
            traced_lat,
            &w,
            &mut checks,
        )
    });
    finish(cfg, win, size.ops as u64, 0, checks, trace)
}

/// What the stores' spies have counted so far, summed over databases.
fn spy_totals(stores: &[(SpiedStore, Rc<Spy<HyperLoopClient>>)]) -> Vec<(&'static str, u64)> {
    let total = |f: fn(&crate::spy::SpyState) -> u64| -> u64 {
        stores.iter().map(|(_, s)| f(&s.state.borrow())).sum()
    };
    vec![
        ("spy_gwrites", total(|s| s.gwrites)),
        ("spy_gcas", total(|s| s.gcas)),
        ("spy_gmemcpy", total(|s| s.gmemcpy)),
        ("spy_gflush", total(|s| s.gflush)),
        ("spy_bytes", total(|s| s.replicated_bytes)),
        ("spy_busy_ns", total(|s| s.busy_ns)),
    ]
}

pub fn run_round(cfg: &RoundCfg, process_start: Instant) -> Json {
    match cfg.workload {
        Workload::YcsbADoc => run_ycsb_round(cfg, process_start),
        _ => run_write_round(cfg, process_start),
    }
}
