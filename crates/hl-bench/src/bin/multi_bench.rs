//! Extension bench (paper §5): multi-client chains over a shared
//! receive queue. One replica chain, 1..4 clients pipelining gWRITEs —
//! aggregate throughput and per-op latency as the SRQ serializes the
//! multi-writer log.
//!
//! Usage: `multi_bench [--ops N]` (recorded ops per client)

use hl_bench::table::{us, Table};
use hl_cluster::ClusterBuilder;
use hl_cluster::World;
use hl_fabric::HostId;
use hl_sim::{Engine, Histogram, SimDuration};
use hyperloop::multi::{self, MultiBuilder, MultiClient, MultiConfig};
use std::cell::RefCell;
use std::rc::Rc;

struct Outcome {
    latency: hl_sim::Summary,
    kops: f64,
}

fn run(clients_n: usize, ops_per_client: u32) -> Outcome {
    let (mut w, mut eng) = ClusterBuilder::new(clients_n + 3)
        .arena_size(4 << 20)
        .seed(9)
        .build();
    let chain = MultiBuilder::new(MultiConfig {
        clients: (0..clients_n).map(HostId).collect(),
        replicas: vec![
            HostId(clients_n),
            HostId(clients_n + 1),
            HostId(clients_n + 2),
        ],
        rep_bytes: 1 << 20,
        ring_slots: 256,
    })
    .build(&mut w);
    multi::start_replenisher(&chain, &mut w, &mut eng);
    let clients: Vec<MultiClient> = (0..clients_n)
        .map(|c| MultiClient::new(chain.clone(), c, &mut w))
        .collect();

    let hist = Rc::new(RefCell::new(Histogram::new()));
    let done = Rc::new(RefCell::new(0u32));
    let total = ops_per_client * clients_n as u32;

    // Each client keeps 4 ops outstanding.
    fn pump(
        client: MultiClient,
        hist: Rc<RefCell<Histogram>>,
        done: Rc<RefCell<u32>>,
        issued: u32,
        quota: u32,
        w: &mut World,
        eng: &mut Engine<World>,
    ) {
        if issued >= quota {
            return;
        }
        let h = hist.clone();
        let d = done.clone();
        let c2 = client.clone();
        let h2 = hist.clone();
        let d2 = done.clone();
        let offset = ((issued as u64 * 7 + client.idx as u64) % 512) * 1024;
        match client.gwrite(
            w,
            eng,
            offset,
            &[issued as u8; 1024],
            false,
            Box::new(move |w, eng, r| {
                h.borrow_mut().record(r.latency.as_nanos());
                *d.borrow_mut() += 1;
                pump(c2, h2, d2, issued + 1, quota, w, eng);
            }),
        ) {
            Ok(_) => {}
            Err(_) => {
                let c3 = client.clone();
                eng.schedule(SimDuration::from_micros(50), move |w, eng| {
                    pump(c3, hist, done, issued, quota, w, eng);
                });
            }
        }
    }
    // Four independent lanes per client, each pumping its share
    // sequentially; together they keep 4 ops in flight per client.
    for client in &clients {
        for lane in 0..4u32 {
            let quota = ops_per_client / 4 + u32::from(lane < ops_per_client % 4);
            if quota == 0 {
                continue;
            }
            pump(
                client.clone(),
                hist.clone(),
                done.clone(),
                0,
                quota,
                &mut w,
                &mut eng,
            );
        }
    }
    let probe = done.clone();
    let start = eng.now();
    eng.run_while(&mut w, move |_| *probe.borrow() < total);
    let secs = eng.now().duration_since(start).as_secs_f64().max(1e-9);
    let latency = hist.borrow().summary();
    let completed = *done.borrow();
    Outcome {
        latency,
        kops: completed as f64 / secs / 1e3,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ops: u32 = args
        .iter()
        .position(|a| a == "--ops")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);

    println!("== multi-client SRQ chain: 3 replicas, 1KB gWRITEs, 4 lanes/client ==");
    let mut t = Table::new(&["clients", "agg-kops", "avg(us)", "p99(us)"]);
    for n in [1usize, 2, 3, 4] {
        let o = run(n, ops);
        t.row(&[
            n.to_string(),
            format!("{:.0}", o.kops),
            format!("{:.1}", o.latency.mean_us()),
            us(o.latency.p99_ns),
        ]);
    }
    t.print();
    println!("one chain serves several writers; the SRQ serializes slots in NIC");
    println!("arrival order, so aggregate throughput holds while per-op latency");
    println!("reflects the shared ring's queueing.");
}
