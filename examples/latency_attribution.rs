//! Where does the latency go? Causal op tracing over the HyperLoop
//! chain and the Naïve-RDMA baseline, side by side.
//!
//! Every group operation gets an op id at issue time; the id rides
//! inside WQE descriptors, fabric packets and CQEs, so each layer
//! stamps typed stage events onto the op without any cross-layer
//! plumbing — on the HyperLoop chain the id is scattered into the
//! pre-posted replica WQEs by the same metadata SEND that arms them
//! (zero replica CPU). The resulting spans decompose each op's latency
//! into named hop segments that sum to the end-to-end latency exactly.
//!
//! The run prints the per-hop attribution report for both backends
//! under multi-tenant CPU contention — the paper's Fig 2/9 story told
//! by traces: the baseline's tail is replica scheduling, the offloaded
//! chain never touches a replica core — and exports Chrome trace-event
//! JSON loadable in Perfetto or `chrome://tracing`.
//!
//! ```sh
//! cargo run --release --example latency_attribution
//! ```

use hyperloop_repro::cluster::ClusterBuilder;
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::naive::{Mode, NaiveBuilder, NaiveConfig};
use hyperloop_repro::hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient};
use hyperloop_repro::sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

const OPS: usize = 500;
const HOGS_PER_HOST: usize = 16;

fn main() {
    for offloaded in [true, false] {
        let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(2 << 20).seed(11).build();
        w.enable_telemetry();
        for h in 1..3 {
            for k in 0..HOGS_PER_HOST {
                w.spawn_hog(HostId(h), &format!("stress-{h}-{k}"), &mut eng);
            }
        }
        let replicas = vec![HostId(1), HostId(2)];

        // Issue OPS durable gWRITEs, four outstanding, each completion
        // issuing the next.
        let issued = Rc::new(RefCell::new(0usize));
        let acked = Rc::new(RefCell::new(0usize));
        type Issue = Rc<
            dyn Fn(
                &mut hyperloop_repro::cluster::World,
                &mut hyperloop_repro::sim::Engine<hyperloop_repro::cluster::World>,
                u64,
                hyperloop_repro::hyperloop::OnDone,
            ) -> Result<u32, hyperloop_repro::hyperloop::Backpressure>,
        >;
        let issue: Issue = if offloaded {
            let group = GroupBuilder::new(GroupConfig {
                client: HostId(0),
                replicas,
                rep_bytes: 256 << 10,
                ring_slots: 64,
                transport_timeout: None,
                ..Default::default()
            })
            .build(&mut w);
            replica::start_replenishers(&group, &mut w, &mut eng);
            let client = HyperLoopClient::new(group, &mut w);
            Rc::new(move |w, eng, off, done| client.gwrite(w, eng, off, &[0x5au8; 256], true, done))
        } else {
            let client = NaiveBuilder::new(NaiveConfig {
                client: HostId(0),
                replicas,
                rep_bytes: 256 << 10,
                ring_slots: 64,
                mode: Mode::Event,
                ..Default::default()
            })
            .build(&mut w, &mut eng);
            Rc::new(move |w, eng, off, done| client.gwrite(w, eng, off, &[0xa5u8; 256], true, done))
        };

        fn pump(
            issue: &Issue,
            issued: &Rc<RefCell<usize>>,
            acked: &Rc<RefCell<usize>>,
            w: &mut hyperloop_repro::cluster::World,
            eng: &mut hyperloop_repro::sim::Engine<hyperloop_repro::cluster::World>,
        ) {
            let k = *issued.borrow();
            if k >= OPS {
                return;
            }
            *issued.borrow_mut() += 1;
            let (i2, a2, is2) = (issued.clone(), acked.clone(), issue.clone());
            let res = issue(
                w,
                eng,
                ((k % 128) * 256) as u64,
                Box::new(move |w, eng, _r| {
                    *a2.borrow_mut() += 1;
                    pump(&is2, &i2, &a2, w, eng);
                }),
            );
            if res.is_err() {
                // Ring credits exhausted: retry once the replenishers
                // have restocked some pre-posted slots.
                *issued.borrow_mut() -= 1;
                let (i3, a3, is3) = (issued.clone(), acked.clone(), issue.clone());
                eng.schedule(SimDuration::from_micros(20), move |w, eng| {
                    pump(&is3, &i3, &a3, w, eng);
                });
            }
        }
        for _ in 0..4 {
            pump(&issue, &issued, &acked, &mut w, &mut eng);
        }
        let probe = acked.clone();
        eng.run_while(&mut w, move |_| *probe.borrow() < OPS);

        let name = if offloaded {
            "HyperLoop"
        } else {
            "Naive-Event"
        };
        println!("=== {name}: per-hop latency attribution ({OPS} gWRITEs, {HOGS_PER_HOST} hogs/replica) ===");
        print!("{}", w.attribution());

        let now = eng.now();
        w.collect_metrics(now);
        let path = format!(
            "{}/hl-trace-{}.json",
            std::env::temp_dir().display(),
            name.to_lowercase()
        );
        std::fs::write(&path, w.telemetry.chrome_trace()).expect("write trace");
        println!("chrome trace -> {path}  (open in Perfetto / chrome://tracing)\n");
    }
}
