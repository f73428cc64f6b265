//! Extension bench (paper §7): chain vs fan-out replication, both
//! fully NIC-offloaded, across replication factors.
//!
//! The chain's dependency depth grows with the group (one NIC hop per
//! replica) while fan-out keeps two hops but serializes the payload
//! once per backup on the primary's egress port — so fan-out wins on
//! latency for short chains/small payloads and loses egress bandwidth
//! and QP locality, which is exactly the trade-off the paper cites for
//! preferring chains in multi-tenant storage.
//!
//! Usage: `fanout_bench [--ops N]`

use hl_bench::table::{us, Table};
use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::Histogram;
use hyperloop::fanout::{self, FanoutBuilder, FanoutConfig};
use hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient};
use std::cell::RefCell;
use std::rc::Rc;

fn run_chain(replicas: usize, size: usize, ops: u32) -> hl_sim::Summary {
    let (mut w, mut eng) = ClusterBuilder::new(replicas + 1)
        .arena_size(4 << 20)
        .seed(5)
        .build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: (1..=replicas).map(HostId).collect(),
        rep_bytes: 1 << 20,
        ring_slots: 64,
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = HyperLoopClient::new(group, &mut w);
    let hist = Rc::new(RefCell::new(Histogram::new()));
    let done = Rc::new(RefCell::new(0u32));
    for k in 0..ops {
        let h = hist.clone();
        let d = done.clone();
        client
            .gwrite(
                &mut w,
                &mut eng,
                (k as u64 % 64) * size as u64,
                &vec![k as u8; size],
                false,
                Box::new(move |_w, _e, r| {
                    h.borrow_mut().record(r.latency.as_nanos());
                    *d.borrow_mut() += 1;
                }),
            )
            .unwrap();
        let d2 = done.clone();
        let want = k + 1;
        eng.run_while(&mut w, move |_: &World| *d2.borrow() < want);
    }
    let s = hist.borrow().summary();
    s
}

fn run_fanout(backups: usize, size: usize, ops: u32) -> hl_sim::Summary {
    let (mut w, mut eng) = ClusterBuilder::new(backups + 2)
        .arena_size(4 << 20)
        .seed(5)
        .build();
    let group = FanoutBuilder::new(FanoutConfig {
        client: HostId(0),
        primary: HostId(1),
        backups: (2..2 + backups).map(HostId).collect(),
        rep_bytes: 1 << 20,
        ring_slots: 64,
    })
    .build(&mut w);
    fanout::start_replenisher(&group, &mut w, &mut eng);
    let client = fanout::FanoutClient::new(group, &mut w);
    let hist = Rc::new(RefCell::new(Histogram::new()));
    let done = Rc::new(RefCell::new(0u32));
    for k in 0..ops {
        let h = hist.clone();
        let d = done.clone();
        client
            .gwrite(
                &mut w,
                &mut eng,
                (k as u64 % 64) * size as u64,
                &vec![k as u8; size],
                Box::new(move |_w, _e, r| {
                    h.borrow_mut().record(r.latency.as_nanos());
                    *d.borrow_mut() += 1;
                }),
            )
            .unwrap();
        let d2 = done.clone();
        let want = k + 1;
        eng.run_while(&mut w, move |_: &World| *d2.borrow() < want);
    }
    let s = hist.borrow().summary();
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ops: u32 = args
        .iter()
        .position(|a| a == "--ops")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);

    for size in [1024usize, 16384] {
        println!("\n== chain vs fan-out gWRITE, {size}B payload (avg / p99 us, no load) ==");
        let mut t = Table::new(&[
            "replicas",
            "chain avg",
            "chain p99",
            "fanout avg",
            "fanout p99",
        ]);
        for replicas in [2usize, 4, 6] {
            let chain = run_chain(replicas, size, ops);
            // Fan-out with the same replication factor: primary + (r-1)
            // backups hold the copies.
            let fo = run_fanout(replicas - 1, size, ops);
            t.row(&[
                replicas.to_string(),
                format!("{:.1}", chain.mean_us()),
                us(chain.p99_ns),
                format!("{:.1}", fo.mean_us()),
                us(fo.p99_ns),
            ]);
        }
        t.print();
    }
    println!("\nfan-out flattens latency vs chain depth but serializes the payload per backup");
    println!("on the primary's egress (visible at 16KB) and concentrates QP state — the");
    println!("paper's rationale for chains in multi-tenant storage (§7).");
}
