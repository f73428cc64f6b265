//! The benchmark's `gwrite_chain` shape, shared by the memory gates
//! (`cq_ring.rs`, `nvm_pre_images.rs`): client `h0`, replicas `h1`,
//! `h2`, a 256-slot ring, 1 KiB writes over 128 rotating slots, 16
//! outstanding.

use hyperloop_repro::cluster::{ClusterBuilder, World};
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient, OnDone};
use hyperloop_repro::sim::{Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const WRITE: usize = 1024;
const SLOTS: u64 = 128;
const OUTSTANDING: u64 = 16;

struct Load {
    client: HyperLoopClient,
    flush: bool,
    issued: u64,
    done: u64,
    budget: u64,
}

/// Issue until `OUTSTANDING` writes are in flight or the budget is spent;
/// every completion issues the next.
fn pump(st: &Rc<RefCell<Load>>, w: &mut World, eng: &mut Engine<World>) {
    loop {
        let (client, k, flush) = {
            let s = st.borrow();
            if s.issued == s.budget || s.issued - s.done == OUTSTANDING {
                return;
            }
            (s.client.clone(), s.issued, s.flush)
        };
        let st2 = st.clone();
        let done: OnDone = Box::new(move |w, eng, _| {
            st2.borrow_mut().done += 1;
            pump(&st2, w, eng);
        });
        let payload = vec![k as u8; WRITE];
        let off = (k % SLOTS) * WRITE as u64;
        if client.gwrite(w, eng, off, &payload, flush, done).is_err() {
            // Out of credits: the replenisher frees slots shortly.
            let st2 = st.clone();
            eng.schedule(SimDuration::from_micros(5), move |w, eng| {
                pump(&st2, w, eng)
            });
            return;
        }
        st.borrow_mut().issued += 1;
    }
}

/// Build the chain on fresh 4 MiB arenas and run `ops` gWRITEs (each
/// durable on every member before its ACK when `flush`), calling `probe`
/// after every event. Returns the world once the last one completed.
pub fn run_gwrite_chain(ops: u64, flush: bool, mut probe: impl FnMut(&World)) -> World {
    let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(4 << 20).seed(42).build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: SLOTS * WRITE as u64,
        ring_slots: 256,
        transport_timeout: None,
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = HyperLoopClient::new(group, &mut w);
    eng.run_until(&mut w, SimTime::from_nanos(1_000_000));
    let st = Rc::new(RefCell::new(Load {
        client,
        flush,
        issued: 0,
        done: 0,
        budget: ops,
    }));
    pump(&st, &mut w, &mut eng);
    assert!(eng.run_while(&mut w, |w| {
        probe(w);
        st.borrow().done < ops
    }));
    w
}
