//! Wrappers that observe a layer from outside.
//!
//! [`Spy`] sits between `hl-store` and the group client: it counts the
//! group operations a store issues, times them in both clocks and keeps
//! a shadow copy of the replicated region to check every member against.
//! [`Tap`] sits between the cluster and a YCSB driver process and
//! recovers each operation's exact latency, which the driver itself only
//! keeps in a bucketed histogram.

use hl_cluster::{Ctx, ProcEvent, Process, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimTime};
use hl_ycsb::YcsbStats;
use hyperloop::api::GroupClient;
use hyperloop::{Backpressure, OnDone};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What a [`Spy`] has seen so far.
#[derive(Default)]
pub struct SpyState {
    pub gwrites: u64,
    pub gcas: u64,
    pub gmemcpy: u64,
    pub gflush: u64,
    /// Payload bytes handed to gWRITE plus bytes moved by gMEMCPY.
    pub replicated_bytes: u64,
    /// Group operations issued and not yet acknowledged.
    pub outstanding: u32,
    /// Simulated ns during which at least one operation was outstanding.
    pub busy_ns: u64,
    busy_since: SimTime,
    /// Acknowledged operations issued while telemetry was on, and the
    /// sum of their issue-to-ACK latencies: must equal the spans' total.
    pub traced_ops: u64,
    pub traced_lat_ns: u64,
    /// Host ns inside the synchronous issue calls (traced rounds only).
    pub timed: bool,
    pub issue_ns: u64,
    pub issue_calls: u64,
    /// What every member's replicated region must hold once
    /// `outstanding` is 0.
    shadow: Vec<u8>,
}

/// A [`GroupClient`] that forwards to `inner` and records in `state`.
pub struct Spy<C: GroupClient> {
    inner: C,
    pub state: Rc<RefCell<SpyState>>,
}

impl<C: GroupClient> Spy<C> {
    /// Wrap `inner`, whose replicated region is `rep_bytes` long and
    /// all zero. `timed` reads the host clock around every issue call.
    pub fn new(inner: C, rep_bytes: usize, timed: bool) -> Self {
        let state = SpyState {
            shadow: vec![0; rep_bytes],
            timed,
            ..Default::default()
        };
        Spy {
            inner,
            state: Rc::new(RefCell::new(state)),
        }
    }

    /// Copy member 0's current region into the shadow (after an untimed
    /// preload that bypassed the client).
    pub fn sync_shadow(&self, w: &World) {
        let host = self.inner.member_host(0);
        let addr = self.inner.member_addr(0, 0);
        let mut st = self.state.borrow_mut();
        let len = st.shadow.len();
        st.shadow
            .copy_from_slice(w.hosts[host.0].mem.read(addr, len).expect("region mapped"));
    }

    /// Members whose replicated region differs from the shadow.
    pub fn mismatched_members(&self, w: &World) -> Vec<usize> {
        let st = self.state.borrow();
        (0..self.inner.group_size())
            .filter(|&m| {
                let host = self.inner.member_host(m);
                let addr = self.inner.member_addr(m, 0);
                w.hosts[host.0].mem.read(addr, st.shadow.len()).ok() != Some(&st.shadow[..])
            })
            .collect()
    }

    /// Run one issue call: time it when asked, and on success account
    /// the operation and wrap its completion.
    fn issue(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        done: OnDone,
        call: impl FnOnce(&C, &mut World, &mut Engine<World>, OnDone) -> Result<u32, Backpressure>,
        on_ok: impl FnOnce(&mut SpyState),
    ) -> Result<u32, Backpressure> {
        let state = self.state.clone();
        let traced = w.telemetry.enabled();
        let wrapped: OnDone = Box::new(move |w, eng, r| {
            {
                let mut st = state.borrow_mut();
                st.outstanding -= 1;
                if st.outstanding == 0 {
                    st.busy_ns += eng.now().duration_since(st.busy_since).as_nanos();
                }
                if traced {
                    st.traced_ops += 1;
                    st.traced_lat_ns += r.latency.as_nanos();
                }
            }
            done(w, eng, r);
        });
        let t0 = self.state.borrow().timed.then(Instant::now);
        let res = call(&self.inner, w, eng, wrapped);
        let mut st = self.state.borrow_mut();
        if let Some(t0) = t0 {
            st.issue_ns += t0.elapsed().as_nanos() as u64;
            st.issue_calls += 1;
        }
        if res.is_ok() {
            if st.outstanding == 0 {
                st.busy_since = eng.now();
            }
            st.outstanding += 1;
            on_ok(&mut st);
        }
        res
    }
}

impl<C: GroupClient> GroupClient for Spy<C> {
    fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        self.issue(
            w,
            eng,
            done,
            |c, w, eng, done| c.gwrite(w, eng, offset, data, flush, done),
            |st| {
                st.gwrites += 1;
                st.gflush += flush as u64;
                st.replicated_bytes += data.len() as u64;
                let at = offset as usize;
                st.shadow[at..at + data.len()].copy_from_slice(data);
            },
        )
    }

    fn gmemcpy(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        src_off: u64,
        dst_off: u64,
        len: u32,
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        self.issue(
            w,
            eng,
            done,
            |c, w, eng, done| c.gmemcpy(w, eng, src_off, dst_off, len, flush, done),
            |st| {
                st.gmemcpy += 1;
                st.gflush += flush as u64;
                st.replicated_bytes += len as u64;
                let src = src_off as usize;
                st.shadow
                    .copy_within(src..src + len as usize, dst_off as usize);
            },
        )
    }

    fn gcas(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        cmp: u64,
        swp: u64,
        exec_map: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        let all = (1u32 << self.inner.group_size()) - 1;
        assert_eq!(exec_map, all, "the shadow models group-wide gCAS only");
        self.issue(
            w,
            eng,
            done,
            |c, w, eng, done| c.gcas(w, eng, offset, cmp, swp, exec_map, done),
            |st| {
                st.gcas += 1;
                let at = offset as usize;
                let word = u64::from_le_bytes(st.shadow[at..at + 8].try_into().unwrap());
                if word == cmp {
                    st.shadow[at..at + 8].copy_from_slice(&swp.to_le_bytes());
                }
            },
        )
    }

    fn gflush(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        len: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        self.issue(
            w,
            eng,
            done,
            |c, w, eng, done| c.gflush(w, eng, offset, len, done),
            |st| st.gflush += 1,
        )
    }

    fn group_size(&self) -> usize {
        self.inner.group_size()
    }
    fn member_addr(&self, m: usize, offset: u64) -> u64 {
        self.inner.member_addr(m, offset)
    }
    fn member_host(&self, m: usize) -> HostId {
        self.inner.member_host(m)
    }
}

/// Exact per-operation latencies of the YCSB drivers of one round.
#[derive(Default)]
pub struct TapLog {
    /// Operations completed by all drivers, warm-up included, and the
    /// sum of their latencies (must equal the drivers' own histograms).
    pub completed: u64,
    pub total_ns: u128,
    /// Operations to discard before recording.
    pub warmup: u64,
    pub read_ns: Vec<u64>,
    pub update_ns: Vec<u64>,
    /// Drivers that have used up their quota.
    pub drivers_done: usize,
    /// Called once when `completed` reaches this count (the traced tail).
    pub tail_at: u64,
    pub tail_started: Option<Instant>,
    pub trace_tail: bool,
}

/// A [`Process`] that forwards to a YCSB driver and watches its private
/// [`YcsbStats`]: the driver records an operation and draws the next one
/// inside one event, so consecutive completions bound each operation.
/// (The driver must run with no warm-up of its own: it records nothing
/// while warming up, which would hide those boundaries.)
pub struct Tap {
    pub inner: Box<dyn Process>,
    pub stats: Rc<RefCell<YcsbStats>>,
    pub log: Rc<RefCell<TapLog>>,
    pub op_started: SimTime,
}

impl Process for Tap {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        if matches!(ev, ProcEvent::Started) {
            self.op_started = ctx.now();
        }
        let before = {
            let s = self.stats.borrow();
            (s.completed, s.writes.count(), s.drivers_done)
        };
        self.inner.on_event(ev, ctx);
        let after = {
            let s = self.stats.borrow();
            (s.completed, s.writes.count(), s.drivers_done)
        };
        let mut log = self.log.borrow_mut();
        log.drivers_done += after.2 - before.2;
        if after.0 == before.0 {
            return;
        }
        assert_eq!(after.0, before.0 + 1, "one completion per event");
        let now = ctx.now();
        let lat = now.duration_since(self.op_started).as_nanos();
        self.op_started = now;
        log.completed += 1;
        log.total_ns += lat as u128;
        if log.completed > log.warmup {
            if after.1 > before.1 {
                log.update_ns.push(lat);
            } else {
                log.read_ns.push(lat);
            }
        }
        if log.completed == log.tail_at {
            if log.trace_tail {
                ctx.world.enable_telemetry();
            }
            log.tail_started = Some(Instant::now());
        }
    }
}
