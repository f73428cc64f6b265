//! Microbenchmark runner: group-primitive latency / throughput / CPU
//! (paper §6.1 — Figures 8, 9, 10 and Table 2).
//!
//! A zero-CPU driver on the client host keeps `pipeline` operations
//! outstanding until `ops` completions are recorded, against either the
//! HyperLoop client or a Naïve-RDMA baseline, with `stress-ng`-style
//! hogs co-located on the replica hosts (the multi-tenant environment).

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Attribution, Engine, Histogram, SimDuration, SimTime, Summary};
use hyperloop::api::GroupClient;
use hyperloop::naive::{Mode, NaiveBuilder, NaiveConfig};
use hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient};
use std::cell::RefCell;
use std::rc::Rc;

/// Which implementation runs the primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// NIC-offloaded chain (the paper's contribution).
    HyperLoop,
    /// CPU replicas woken by completion interrupts.
    NaiveEvent,
    /// CPU replicas busy-polling. `pinned` gives each a dedicated core
    /// (the paper's best-case microbenchmark configuration).
    NaivePolling {
        /// Pin each replica to core 0 of its host.
        pinned: bool,
    },
}

impl Backend {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::HyperLoop => "HyperLoop",
            Backend::NaiveEvent => "Naive-Event",
            Backend::NaivePolling { pinned: true } => "Naive-Polling(pinned)",
            Backend::NaivePolling { pinned: false } => "Naive-Polling",
        }
    }
}

/// The operation under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// gWRITE of `size` bytes (durability flush optional).
    GWrite {
        /// Message size.
        size: usize,
        /// Interleave gFLUSH.
        flush: bool,
    },
    /// gMEMCPY of `size` bytes.
    GMemcpy {
        /// Copy size.
        size: usize,
        /// Interleave local flush.
        flush: bool,
    },
    /// gCAS over the full group.
    GCas,
}

/// One microbenchmark configuration.
#[derive(Debug, Clone)]
pub struct MicroCfg {
    /// Implementation.
    pub backend: Backend,
    /// Group size (member nodes incl. the client) — paper default 3.
    pub group_size: usize,
    /// Operation.
    pub op: MicroOp,
    /// Recorded operations.
    pub ops: usize,
    /// Unrecorded warmup operations.
    pub warmup: usize,
    /// Outstanding operations (the latency tool pipelines lightly; the
    /// throughput tool deeply).
    pub pipeline: usize,
    /// `stress-ng` hogs per replica host.
    pub stress_per_host: usize,
    /// Pre-posted ring depth.
    pub ring_slots: u32,
    /// Seed.
    pub seed: u64,
    /// Collect causal spans, per-hop attribution, labelled metrics and
    /// a Chrome trace (see [`MicroResult::telemetry`]).
    pub telemetry: bool,
}

impl Default for MicroCfg {
    fn default() -> Self {
        MicroCfg {
            backend: Backend::HyperLoop,
            group_size: 3,
            op: MicroOp::GWrite {
                size: 1024,
                flush: false,
            },
            ops: 10_000,
            warmup: 200,
            pipeline: 1,
            stress_per_host: 32,
            ring_slots: 256,
            seed: 42,
            telemetry: false,
        }
    }
}

/// Observability artifacts of a telemetry-enabled run.
#[derive(Debug, Clone)]
pub struct MicroTelemetry {
    /// Per-hop latency attribution over all completed spans.
    pub attribution: Attribution,
    /// Chrome trace-event JSON (Perfetto-loadable).
    pub chrome_trace: String,
    /// Deterministic text dump of the labelled metrics registry.
    pub metrics: String,
    /// Windowed time-series JSON snapshot of the measured run.
    pub timeseries: String,
}

/// Measured outcome.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Operation latency.
    pub latency: Summary,
    /// Sustained throughput over the measured window (Kops/s).
    pub kops: f64,
    /// Simulated wall time of the measured window (seconds).
    pub sim_secs: f64,
    /// Replica-host CPU consumed by the *replication datapath* over the
    /// measured window, in cores (max across replica hosts). Hog time is
    /// excluded; this is the paper's "CPU consumed in the critical path".
    pub datapath_cores: f64,
    /// Observability artifacts (`Some` iff [`MicroCfg::telemetry`]).
    pub telemetry: Option<MicroTelemetry>,
}

struct Pump {
    issued: usize,
    recorded: usize,
    hist: Histogram,
    cfg: MicroCfg,
}

/// A background tenant that alternates CPU bursts with short sleeps —
/// its sleeper-fairness-credited wakeups contend with the replica's.
struct BurstyHog {
    rng: hl_sim::RngStream,
}

impl hl_cluster::Process for BurstyHog {
    fn on_event(&mut self, ev: hl_cluster::ProcEvent, ctx: &mut hl_cluster::Ctx<'_>) {
        use hl_cluster::ProcEvent;
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

/// Run one microbenchmark.
pub fn run_micro(cfg: &MicroCfg) -> MicroResult {
    let n = cfg.group_size - 1;
    let (mut w, mut eng) = ClusterBuilder::new(cfg.group_size)
        .arena_size(sized_arena(cfg))
        .seed(cfg.seed)
        .build();
    if cfg.telemetry {
        w.enable_timeseries(hl_sim::timeseries::DEFAULT_WINDOW);
    }
    // Stagger hog start times so their slices do not expire in lockstep.
    // One third of the background load is bursty (sleep/wake tenants):
    // their sleeper-credited wakeups compete with the replica's and are
    // what drives the heavy tail of the CPU-bound baselines.
    let mut hog_rng = w.rng.stream("hog-stagger");
    for h in 1..cfg.group_size {
        let bursty = cfg.stress_per_host / 3;
        for k in 0..cfg.stress_per_host - bursty {
            let delay = SimDuration::from_nanos(hog_rng.range_u64(0, 1_000_000));
            eng.schedule(delay, move |w: &mut World, eng| {
                w.spawn_hog(HostId(h), &format!("stress-{h}-{k}"), eng);
            });
        }
        for k in 0..bursty {
            let delay = SimDuration::from_nanos(hog_rng.range_u64(0, 3_000_000));
            let seed = hog_rng.u64();
            eng.schedule(delay, move |w: &mut World, eng| {
                let rng = w.rng.stream_idx("bursty", seed);
                let addr = w.start_process(
                    HostId(h),
                    &format!("stress-bursty-{h}-{k}"),
                    None,
                    Box::new(BurstyHog { rng }),
                    SimDuration::from_micros(1),
                    eng,
                );
                let _ = addr;
            });
        }
    }
    let replicas: Vec<HostId> = (1..=n).map(HostId).collect();
    let rep_bytes = rep_bytes(cfg);

    let client: Rc<dyn GroupClient> = match cfg.backend {
        Backend::HyperLoop => {
            let group = GroupBuilder::new(GroupConfig {
                client: HostId(0),
                replicas,
                rep_bytes,
                ring_slots: cfg.ring_slots,
                transport_timeout: None,
                ..Default::default()
            })
            .build(&mut w);
            replica::start_replenishers(&group, &mut w, &mut eng);
            Rc::new(HyperLoopClient::new(group, &mut w))
        }
        Backend::NaiveEvent => Rc::new(
            NaiveBuilder::new(NaiveConfig {
                client: HostId(0),
                replicas,
                rep_bytes,
                ring_slots: cfg.ring_slots,
                mode: Mode::Event,
                ..Default::default()
            })
            .build(&mut w, &mut eng),
        ),
        Backend::NaivePolling { pinned } => Rc::new(
            NaiveBuilder::new(NaiveConfig {
                client: HostId(0),
                replicas,
                rep_bytes,
                ring_slots: cfg.ring_slots,
                mode: Mode::Polling,
                pin_replicas: pinned,
                ..Default::default()
            })
            .build(&mut w, &mut eng),
        ),
    };

    let pump = Rc::new(RefCell::new(Pump {
        issued: 0,
        recorded: 0,
        hist: Histogram::new(),
        cfg: cfg.clone(),
    }));

    // Prime: let stress hogs and pollers start, then reset CPU metrics so
    // utilization reflects the measured window only.
    eng.run_until(&mut w, SimTime::from_nanos(2_000_000));
    let measure_from = eng.now();
    let hog_busy_at_start_ns: Vec<u64> = (1..cfg.group_size)
        .map(|h| total_hog_busy(&w, h, cfg.stress_per_host))
        .collect();
    let host_busy_at_start: Vec<f64> = (1..cfg.group_size)
        .map(|h| w.hosts[h].cpu.host_utilization(measure_from) * elapsed_cores(&w, h, measure_from))
        .collect();

    for _ in 0..cfg.pipeline {
        issue_next(&client, &pump, &mut w, &mut eng);
    }
    let p2 = pump.clone();
    let total = cfg.ops + cfg.warmup;
    eng.run_while(&mut w, move |_| p2.borrow().recorded < total);

    let now = eng.now();
    let window = now.duration_since(measure_from).as_secs_f64();
    let p = pump.borrow();
    assert_eq!(p.recorded, total, "benchmark did not complete");

    // Datapath CPU = replica host busy time minus hog busy time, over
    // the window, in cores.
    let mut datapath_cores: f64 = 0.0;
    for (i, h) in (1..cfg.group_size).enumerate() {
        let total_busy = w.hosts[h].cpu.host_utilization(now) * elapsed_cores(&w, h, now)
            - host_busy_at_start[i];
        let hog_busy =
            (total_hog_busy(&w, h, cfg.stress_per_host) - hog_busy_at_start_ns[i]) as f64 / 1e9;
        let cores = ((total_busy - hog_busy) / window).max(0.0);
        datapath_cores = datapath_cores.max(cores);
    }

    let telemetry = cfg.telemetry.then(|| {
        w.collect_metrics(now);
        MicroTelemetry {
            attribution: w.attribution(),
            chrome_trace: w.telemetry.chrome_trace(),
            metrics: w.telemetry.metrics.render(),
            timeseries: w.telemetry.timeseries_json(),
        }
    });

    MicroResult {
        latency: p.hist.summary(),
        kops: p.recorded as f64 / window / 1e3,
        sim_secs: window,
        datapath_cores,
        telemetry,
    }
}

fn elapsed_cores(w: &World, h: usize, now: SimTime) -> f64 {
    w.hosts[h].cpu.cores() as f64 * now.as_secs_f64()
}

fn total_hog_busy(w: &World, host: usize, _hogs: usize) -> u64 {
    w.hosts[host].cpu.busy_ns_by_prefix("stress-")
}

fn sized_arena(cfg: &MicroCfg) -> usize {
    (rep_bytes(cfg) as usize + (4 << 20)).next_power_of_two()
}

fn rep_bytes(cfg: &MicroCfg) -> u64 {
    let per_op = match cfg.op {
        MicroOp::GWrite { size, .. } => size.max(64),
        MicroOp::GMemcpy { size, .. } => 2 * size.max(64),
        MicroOp::GCas => 64,
    } as u64;
    (128 * per_op + (64 << 10)).next_power_of_two()
}

fn issue_next(
    client: &Rc<dyn GroupClient>,
    pump: &Rc<RefCell<Pump>>,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    let (idx, op, total) = {
        let p = pump.borrow();
        if p.issued >= p.cfg.ops + p.cfg.warmup {
            return;
        }
        (p.issued as u64, p.cfg.op, p.cfg.ops + p.cfg.warmup)
    };
    let _ = total;
    pump.borrow_mut().issued += 1;

    let c2 = client.clone();
    let p2 = pump.clone();
    let done: hyperloop::OnDone = Box::new(move |w, eng, r| {
        {
            let mut p = p2.borrow_mut();
            if p.recorded >= p.cfg.warmup {
                p.hist.record(r.latency.as_nanos());
            }
            p.recorded += 1;
        }
        issue_next(&c2, &p2, w, eng);
    });

    // Rotate over 128 disjoint offsets so pipelined ops do not overlap.
    let slot = idx % 128;
    let res = match op {
        MicroOp::GWrite { size, flush } => {
            let data = vec![(idx & 0xff) as u8; size];
            client.gwrite(w, eng, slot * size.max(64) as u64, &data, flush, done)
        }
        MicroOp::GMemcpy { size, flush } => {
            let base = 128 * size.max(64) as u64; // db area after the "log"
            client.gmemcpy(
                w,
                eng,
                slot * size.max(64) as u64,
                base + slot * size.max(64) as u64,
                size as u32,
                flush,
                done,
            )
        }
        MicroOp::GCas => {
            let g = client.group_size();
            let all = (1u32 << g) - 1;
            // Alternate acquire/release on a per-slot lock word so every
            // CAS succeeds.
            let word = slot * 64;
            let acquire = (idx / 128) % 2 == 0;
            let (cmp, swp) = if acquire {
                (0, idx | 1)
            } else {
                ((idx - 128) | 1, 0)
            };
            client.gcas(w, eng, word, cmp, swp, all, done)
        }
    };
    if res.is_err() {
        // Ring credits exhausted: retry shortly (counted as queueing
        // delay by the completion timestamps of later ops, as in a real
        // client).
        pump.borrow_mut().issued -= 1;
        let c3 = client.clone();
        let p3 = pump.clone();
        eng.schedule(SimDuration::from_micros(20), move |w, eng| {
            issue_next(&c3, &p3, w, eng);
        });
    }
}
