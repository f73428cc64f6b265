//! Client-side operation deadlines with exponential backoff and
//! idempotent re-issue.
//!
//! The raw [`HyperLoopClient`] completes an operation only when the
//! group ACK arrives; a fault anywhere along the chain leaves the
//! caller waiting forever. [`RetryClient`] wraps the client with a
//! per-attempt deadline: an attempt that does not ACK in time is
//! re-issued (after exponential backoff) until the budget is exhausted,
//! at which point the caller gets a *typed* error — an operation issued
//! through this wrapper never hangs.
//!
//! Re-issue is safe because the group primitives are idempotent at the
//! replication level:
//!
//! * gWRITE / gFLUSH / gMEMCPY re-apply the same bytes to the same
//!   offsets — replaying them is a no-op on members that already
//!   executed the first attempt.
//! * gCAS is *not* naturally idempotent (the first attempt may have
//!   swapped already), so a successful re-issue normalizes the result
//!   map: a member reporting `orig == swp` is taken as proof the prior
//!   attempt succeeded there and its original value is reported as
//!   `cmp`. This matches the usual RDMA-atomic retry convention.
//!
//! The wrapper holds the underlying client in a shared cell so recovery
//! can [`RetryClient::swap`] in the client of a rebuilt chain; attempts
//! that time out mid-reconfiguration simply re-issue on the new chain.

use crate::api::GroupClient;
use crate::group::{Backpressure, GroupConfig, OnDone, OpResult};
use crate::naive::NaiveClient;
use crate::HyperLoopClient;
use hl_cluster::World;
use hl_nvm::RangeSet;
use hl_sim::{Bytes, Engine, EventToken, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// The replication engine a [`RetryClient`] currently drives: the
/// offloaded HyperLoop chain, or the CPU-forwarding Naïve fallback the
/// health monitor degrades to when the chain is sick. Supervised
/// operations are backend-agnostic — an attempt that times out on one
/// backend simply re-issues on whatever backend is installed by then,
/// which is exactly how in-flight ops survive a degrade or re-promote
/// transition.
#[derive(Clone)]
pub enum Backend {
    /// NIC-offloaded chain replication.
    Hyper(HyperLoopClient),
    /// CPU-driven Naïve forwarding (degraded mode).
    Naive(NaiveClient),
}

impl Backend {
    /// True while the offloaded chain is serving.
    pub fn is_offloaded(&self) -> bool {
        matches!(self, Backend::Hyper(_))
    }

    /// The serving chain as an offloaded-group template — what every
    /// reconfiguration plan sizes its destination from. A Naïve chain
    /// has no replenisher or transport timeout, so those stay default.
    pub fn chain_config(&self) -> GroupConfig {
        match self {
            Backend::Hyper(c) => c.group().borrow().cfg.clone(),
            Backend::Naive(n) => {
                let g = n.group().borrow();
                GroupConfig {
                    client: g.cfg.client,
                    replicas: g.cfg.replicas.clone(),
                    rep_bytes: g.cfg.rep_bytes,
                    ring_slots: g.cfg.ring_slots,
                    ..Default::default()
                }
            }
        }
    }

    /// Pause or resume the serving group: a paused group refuses new
    /// issues with `Backpressure`, which supervised ops ride out by
    /// backing off until the next backend is installed.
    pub fn set_paused(&self, paused: bool) {
        match self {
            Backend::Hyper(c) => c.group().borrow_mut().paused = paused,
            Backend::Naive(n) => n.group().borrow_mut().paused = paused,
        }
    }

    /// Take a replaced backend out of service at a reconfiguration's
    /// commit: paused for good, and an offloaded chain's replenishers
    /// and ACK dispatchers unsubscribed
    /// ([`crate::group::GroupInner::retire`]).
    pub fn retire(&self, w: &mut World) {
        match self {
            Backend::Hyper(c) => c.group().borrow_mut().retire(w),
            Backend::Naive(n) => n.group().borrow_mut().paused = true,
        }
    }
}

impl GroupClient for Backend {
    fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        match self {
            Backend::Hyper(c) => c.gwrite(w, eng, offset, data, flush, done),
            Backend::Naive(c) => c.gwrite(w, eng, offset, data, flush, done),
        }
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
        match self {
            Backend::Hyper(c) => c.gmemcpy(w, eng, src_off, dst_off, len, flush, done),
            Backend::Naive(c) => c.gmemcpy(w, eng, src_off, dst_off, len, flush, done),
        }
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
        match self {
            Backend::Hyper(c) => c.gcas(w, eng, offset, cmp, swp, exec_map, done),
            Backend::Naive(c) => c.gcas(w, eng, offset, cmp, swp, exec_map, done),
        }
    }
    fn gflush(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        len: u32,
        done: OnDone,
    ) -> Result<u32, Backpressure> {
        match self {
            Backend::Hyper(c) => c.gflush(w, eng, offset, len, done),
            Backend::Naive(c) => c.gflush(w, eng, offset, len, done),
        }
    }
    fn group_size(&self) -> usize {
        match self {
            Backend::Hyper(c) => GroupClient::group_size(c),
            Backend::Naive(c) => GroupClient::group_size(c),
        }
    }
    fn member_addr(&self, m: usize, offset: u64) -> u64 {
        match self {
            Backend::Hyper(c) => GroupClient::member_addr(c, m, offset),
            Backend::Naive(c) => GroupClient::member_addr(c, m, offset),
        }
    }
    fn member_host(&self, m: usize) -> hl_fabric::HostId {
        match self {
            Backend::Hyper(c) => GroupClient::member_host(c, m),
            Backend::Naive(c) => GroupClient::member_host(c, m),
        }
    }
}

/// Supervision counters shared by every clone of a [`RetryClient`].
/// Always live (unlike the telemetry registry, which is opt-in) so the
/// health monitor can score a chain without telemetry overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Operations settled successfully.
    pub acked: u64,
    /// Attempts re-issued after a missed per-attempt deadline.
    pub reissues: u64,
    /// Issues refused by the group (paused or out of credits).
    pub backpressured: u64,
    /// Operations that exhausted the attempt budget.
    pub deadline_exceeded: u64,
    /// Per-attempt deadlines that expired without an ACK.
    pub attempt_timeouts: u64,
}

/// Callback fired when the stall probe crosses its threshold.
pub type OnSuspect = Box<dyn FnMut(&mut World, &mut Engine<World>)>;

/// Client-side end-to-end stall probe: a mid-chain NIC stall eats
/// fire-and-forget packets without producing a transport-error CQE
/// anywhere the client can see, so the only end-to-end signal is ACK
/// silence. The probe counts *consecutive* attempt-deadline expiries
/// with no intervening success; at the threshold it fires once per
/// episode (re-armed by the next successful ACK).
struct ProbeState {
    threshold: u32,
    consecutive: u32,
    episode_open: bool,
    on_suspect: Option<OnSuspect>,
}

/// Typed failure of a deadline-supervised operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// Every attempt either timed out or was refused for backpressure
    /// within the attempt budget.
    DeadlineExceeded {
        /// Attempts made (including refused issues).
        attempts: u32,
    },
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::DeadlineExceeded { attempts } => {
                write!(f, "operation deadline exceeded after {attempts} attempts")
            }
        }
    }
}
impl std::error::Error for OpError {}

/// Completion callback carrying success or a typed error.
pub type OnOutcome = Box<dyn FnOnce(&mut World, &mut Engine<World>, Result<OpResult, OpError>)>;

/// Deadline / retry knobs.
#[derive(Debug, Clone)]
pub struct DeadlinePolicy {
    /// Per-attempt ACK deadline.
    pub deadline: SimDuration,
    /// Total attempts before the typed failure.
    pub max_attempts: u32,
    /// Backoff before attempt `k+1` is `backoff << k`, capped.
    pub backoff: SimDuration,
    /// Backoff ceiling.
    pub backoff_cap: SimDuration,
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        // The defaults span a heartbeat detection + chain rebuild
        // (tens of milliseconds) before giving up.
        DeadlinePolicy {
            deadline: SimDuration::from_millis(2),
            max_attempts: 10,
            backoff: SimDuration::from_micros(500),
            backoff_cap: SimDuration::from_millis(10),
        }
    }
}

impl DeadlinePolicy {
    fn backoff_for(&self, attempt: u32) -> SimDuration {
        let mut b = self.backoff.as_nanos();
        for _ in 0..attempt {
            b = (b * 2).min(self.backoff_cap.as_nanos());
        }
        SimDuration::from_nanos(b)
    }
}

/// A group operation in re-issuable form.
#[derive(Debug, Clone)]
pub enum GroupOp {
    /// gWRITE (optionally durable before ACK).
    Write {
        /// Offset within the replicated region.
        offset: u64,
        /// Bytes to replicate; refcounted so each retry re-issue shares
        /// the one payload buffer instead of cloning it.
        data: Bytes,
        /// Interleave a gFLUSH.
        flush: bool,
    },
    /// Standalone gFLUSH.
    Flush {
        /// Offset within the replicated region.
        offset: u64,
        /// Range length.
        len: u32,
    },
    /// gMEMCPY within the replicated region on every member.
    Memcpy {
        /// Source offset.
        src_off: u64,
        /// Destination offset.
        dst_off: u64,
        /// Bytes to copy.
        len: u32,
        /// Flush the destination.
        flush: bool,
    },
    /// gCAS on the members selected by `exec_map`.
    Cas {
        /// u64-aligned offset of the target word.
        offset: u64,
        /// Expected value.
        cmp: u64,
        /// Replacement value.
        swp: u64,
        /// Member bitmap (bit 0 = client).
        exec_map: u32,
    },
}

/// Per-operation supervision state shared by the completion and the
/// timer closures.
///
/// An op in flight has at most one pending supervision event: the
/// attempt deadline, or the backoff before the next attempt. Its token
/// sits in `timer` until the event fires (the firing event clears it)
/// or [`settle`] cancels it, so an op that ACKs costs the engine
/// nothing after it settles and supervision memory follows the ops in
/// flight, not the op rate times the deadline.
struct IssueState {
    shared: Rc<Shared>,
    op: GroupOp,
    done: Option<OnOutcome>,
    settled: bool,
    issued_at: SimTime,
    timer: Option<EventToken>,
}

/// What every clone of a [`RetryClient`] and every op it supervises
/// share: one allocation per client.
struct Shared {
    cell: RefCell<Backend>,
    policy: DeadlinePolicy,
    outstanding: Cell<u32>,
    failures: RefCell<Vec<OpError>>,
    stats: RefCell<RetryStats>,
    probe: RefCell<Option<ProbeState>>,
    /// Dirty-range log: `Some` while a reconfiguration is recording the
    /// ranges mutated at issue time. Coalescing, so its size is bounded
    /// by the region, not by the number of ops issued while it is armed.
    dirty: RefCell<Option<RangeSet>>,
}

/// Deadline-supervising wrapper around a replication [`Backend`].
///
/// Cloning shares the backend cell, the policy, the stats, and the
/// failure log.
#[derive(Clone)]
pub struct RetryClient {
    shared: Rc<Shared>,
}

impl RetryClient {
    /// Wrap a client with the default policy.
    pub fn new(client: HyperLoopClient) -> Self {
        Self::with_policy(client, DeadlinePolicy::default())
    }

    /// Wrap a client with an explicit policy.
    pub fn with_policy(client: HyperLoopClient, policy: DeadlinePolicy) -> Self {
        Self::with_policy_backend(Backend::Hyper(client), policy)
    }

    /// Wrap an arbitrary backend (e.g. a Naïve chain used as a control
    /// or a pre-degraded group) with an explicit policy.
    pub fn with_policy_backend(backend: Backend, policy: DeadlinePolicy) -> Self {
        RetryClient {
            shared: Rc::new(Shared {
                cell: RefCell::new(backend),
                policy,
                outstanding: Cell::new(0),
                failures: RefCell::new(Vec::new()),
                stats: RefCell::new(RetryStats::default()),
                probe: RefCell::new(None),
                dirty: RefCell::new(None),
            }),
        }
    }

    /// The current underlying HyperLoop client (a cheap handle clone).
    ///
    /// # Panics
    ///
    /// Panics if the group is degraded to the Naïve backend; use
    /// [`RetryClient::backend`] for backend-agnostic access.
    pub fn client(&self) -> HyperLoopClient {
        match &*self.shared.cell.borrow() {
            Backend::Hyper(c) => c.clone(),
            Backend::Naive(_) => {
                panic!("RetryClient::client(): group is degraded to the Naive backend")
            }
        }
    }

    /// The current backend (a cheap handle clone).
    pub fn backend(&self) -> Backend {
        self.shared.cell.borrow().clone()
    }

    /// True while the offloaded chain is serving.
    pub fn is_offloaded(&self) -> bool {
        self.shared.cell.borrow().is_offloaded()
    }

    /// Install the client of a rebuilt chain. In-flight supervised
    /// operations re-issue on it at their next attempt.
    pub fn swap(&self, client: HyperLoopClient) {
        *self.shared.cell.borrow_mut() = Backend::Hyper(client);
    }

    /// Degrade: install a Naïve client as the serving backend. In-flight
    /// supervised operations re-issue on it at their next attempt.
    pub fn swap_naive(&self, client: NaiveClient) {
        *self.shared.cell.borrow_mut() = Backend::Naive(client);
    }

    /// Supervised operations not yet settled (completed or failed).
    pub fn outstanding(&self) -> u32 {
        self.shared.outstanding.get()
    }

    /// Typed failures recorded so far.
    pub fn failures(&self) -> Vec<OpError> {
        self.shared.failures.borrow().clone()
    }

    /// A snapshot of the always-on supervision counters.
    pub fn stats(&self) -> RetryStats {
        *self.shared.stats.borrow()
    }

    /// Arm the end-to-end NIC-stall probe: after `threshold` consecutive
    /// attempt-deadline expiries with no intervening ACK, bump the
    /// `nic_stall_suspected` counter (layer=probe), drop a trace mark,
    /// and invoke `on_suspect` once; the episode re-arms on the next
    /// successful ACK. This is the detection path for mid-chain stalls
    /// that produce no transport-error CQE at the client.
    pub fn arm_nic_stall_probe(&self, threshold: u32, on_suspect: OnSuspect) {
        *self.shared.probe.borrow_mut() = Some(ProbeState {
            threshold: threshold.max(1),
            consecutive: 0,
            episode_open: false,
            on_suspect: Some(on_suspect),
        });
    }

    /// Start recording the NVM ranges touched by every subsequently
    /// issued op (the reconfiguration dirty log). Replaces any prior log.
    pub(crate) fn begin_dirty_log(&self) {
        *self.shared.dirty.borrow_mut() = Some(RangeSet::new());
    }

    /// Stop recording and return the dirty ranges. Empty if logging was
    /// never started.
    pub(crate) fn take_dirty_log(&self) -> RangeSet {
        self.shared.dirty.borrow_mut().take().unwrap_or_default()
    }

    /// Issue `op` under deadline supervision. Exactly one of the `Ok` /
    /// `Err` arms of `done` fires, in bounded time.
    pub fn issue(&self, w: &mut World, eng: &mut Engine<World>, op: GroupOp, done: OnOutcome) {
        self.supervise(w, eng, op, done);
    }

    /// [`RetryClient::issue`], handing back the op's supervision state.
    fn supervise(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        op: GroupOp,
        done: OnOutcome,
    ) -> Rc<RefCell<IssueState>> {
        if let Some(log) = self.shared.dirty.borrow_mut().as_mut() {
            match &op {
                GroupOp::Write { offset, data, .. } => {
                    log.insert(*offset, *offset + data.len() as u64)
                }
                GroupOp::Memcpy { dst_off, len, .. } => {
                    log.insert(*dst_off, *dst_off + *len as u64)
                }
                GroupOp::Cas { offset, .. } => log.insert(*offset, *offset + 8),
                GroupOp::Flush { .. } => {}
            }
        }
        let s = &self.shared;
        s.outstanding.set(s.outstanding.get() + 1);
        let st = Rc::new(RefCell::new(IssueState {
            shared: s.clone(),
            op,
            done: Some(done),
            settled: false,
            issued_at: eng.now(),
            timer: None,
        }));
        attempt(&st, w, eng, 0);
        st
    }

    /// Supervised gWRITE.
    pub fn gwrite(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        data: &[u8],
        flush: bool,
        done: OnOutcome,
    ) {
        self.issue(
            w,
            eng,
            GroupOp::Write {
                offset,
                data: Bytes::copy_from_slice(data),
                flush,
            },
            done,
        );
    }

    /// Supervised gFLUSH.
    pub fn gflush(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        len: u32,
        done: OnOutcome,
    ) {
        self.issue(w, eng, GroupOp::Flush { offset, len }, done);
    }

    /// Supervised gMEMCPY.
    #[allow(clippy::too_many_arguments)]
    pub fn gmemcpy(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        src_off: u64,
        dst_off: u64,
        len: u32,
        flush: bool,
        done: OnOutcome,
    ) {
        self.issue(
            w,
            eng,
            GroupOp::Memcpy {
                src_off,
                dst_off,
                len,
                flush,
            },
            done,
        );
    }

    /// Supervised gCAS (results normalized on re-issued attempts, see
    /// the module docs).
    #[allow(clippy::too_many_arguments)]
    pub fn gcas(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        offset: u64,
        cmp: u64,
        swp: u64,
        exec_map: u32,
        done: OnOutcome,
    ) {
        self.issue(
            w,
            eng,
            GroupOp::Cas {
                offset,
                cmp,
                swp,
                exec_map,
            },
            done,
        );
    }
}

fn settle(
    st: &Rc<RefCell<IssueState>>,
    w: &mut World,
    eng: &mut Engine<World>,
    outcome: Result<OpResult, OpError>,
) {
    let (done, issued_at, timer) = {
        let mut s = st.borrow_mut();
        if s.settled {
            return;
        }
        s.settled = true;
        let c = &s.shared;
        c.outstanding.set(c.outstanding.get() - 1);
        match &outcome {
            Ok(_) => {
                c.stats.borrow_mut().acked += 1;
                // A completed op proves the chain end-to-end: close any
                // open stall episode and re-arm the probe.
                if let Some(p) = c.probe.borrow_mut().as_mut() {
                    p.consecutive = 0;
                    p.episode_open = false;
                }
            }
            Err(e) => {
                c.stats.borrow_mut().deadline_exceeded += 1;
                c.failures.borrow_mut().push(e.clone());
            }
        }
        (s.done.take(), s.issued_at, s.timer.take())
    };
    // The op's pending deadline or backoff has nothing left to do.
    if let Some(tok) = timer {
        eng.cancel(tok);
    }
    if w.telemetry.enabled() {
        let now = eng.now();
        match &outcome {
            Ok(_) => {
                // The headline SLO series: supervised end-to-end latency
                // including retries and backoff, continuous across
                // backend swaps (degrade / re-promote keep feeding it).
                let e2e = now.duration_since(issued_at).as_nanos();
                w.telemetry
                    .series
                    .record(now, "op_latency_ns", "layer=supervised", e2e);
                w.telemetry
                    .series
                    .counter_add(now, "supervised_ops", "layer=supervised", 1);
            }
            Err(_) => {
                w.telemetry
                    .metrics
                    .counter_add("retry_deadline_exceeded", "layer=deadline", 1);
                w.telemetry
                    .series
                    .counter_add(now, "retry_deadline_exceeded", "layer=deadline", 1);
                w.telemetry.mark(now, "deadline-exceeded", 0);
            }
        }
    }
    if let Some(done) = done {
        done(w, eng, outcome);
    }
}

/// Arm `st`'s one supervision event, `f` after `wait`. An op that
/// settled before its timer was armed (inside the issue call, or inside
/// the stall probe's callback) gets it cancelled at once; scheduling it
/// first keeps every later event's `(time, seq)` key unchanged.
fn arm<F>(st: &Rc<RefCell<IssueState>>, eng: &mut Engine<World>, wait: SimDuration, f: F)
where
    F: FnOnce(&Rc<RefCell<IssueState>>, &mut World, &mut Engine<World>) + 'static,
{
    let fired = st.clone();
    let tok = eng.schedule(wait, move |w: &mut World, eng| {
        // Firing spends the token, so settling from here cancels nothing.
        fired.borrow_mut().timer = None;
        f(&fired, w, eng);
    });
    let mut s = st.borrow_mut();
    debug_assert!(s.timer.is_none(), "one supervision event per op");
    if s.settled {
        eng.cancel(tok);
    } else {
        s.timer = Some(tok);
    }
}

fn attempt(st: &Rc<RefCell<IssueState>>, w: &mut World, eng: &mut Engine<World>, k: u32) {
    // A settled op has no pending event, so nothing re-attempts it.
    debug_assert!(!st.borrow().settled);
    let (shared, client, op) = {
        let s = st.borrow();
        let client = s.shared.cell.borrow().clone();
        (s.shared.clone(), client, s.op.clone())
    };
    let on_done: OnDone = {
        let st = st.clone();
        Box::new(move |w, eng, mut r| {
            // gCAS retry: a member whose original equals the swapped
            // value was won by a prior attempt of this very operation.
            if k > 0 {
                if let GroupOp::Cas { cmp, swp, .. } = st.borrow().op {
                    for v in &mut r.results {
                        if *v == swp {
                            *v = cmp;
                        }
                    }
                }
            }
            settle(&st, w, eng, Ok(r));
        })
    };
    if k > 0 {
        shared.stats.borrow_mut().reissues += 1;
        if w.telemetry.enabled() {
            w.telemetry
                .metrics
                .counter_add("retry_reissues", "layer=deadline", 1);
        }
    }
    let issued = match &op {
        GroupOp::Write {
            offset,
            data,
            flush,
        } => client.gwrite(w, eng, *offset, data, *flush, on_done),
        GroupOp::Flush { offset, len } => client.gflush(w, eng, *offset, *len, on_done),
        GroupOp::Memcpy {
            src_off,
            dst_off,
            len,
            flush,
        } => client.gmemcpy(w, eng, *src_off, *dst_off, *len, *flush, on_done),
        GroupOp::Cas {
            offset,
            cmp,
            swp,
            exec_map,
        } => client.gcas(w, eng, *offset, *cmp, *swp, *exec_map, on_done),
    };
    // Next supervision point: the attempt deadline if the issue went
    // out, or the backoff if the group refused it (paused for recovery
    // or out of ring credits — both transient).
    let went_out = issued.is_ok();
    let wait = match issued {
        Ok(_) => shared.policy.deadline,
        Err(_backpressure) => {
            shared.stats.borrow_mut().backpressured += 1;
            if w.telemetry.enabled() {
                w.telemetry
                    .metrics
                    .counter_add("retry_backpressured", "layer=deadline", 1);
            }
            shared.policy.backoff_for(k)
        }
    };
    arm(st, eng, wait, move |st, w, eng| {
        if went_out {
            // The issue left the client but no ACK came back within the
            // attempt deadline: the end-to-end signal a silent mid-chain
            // stall cannot suppress.
            shared.stats.borrow_mut().attempt_timeouts += 1;
            probe_note_timeout(&shared, w, eng);
        }
        if k + 1 >= shared.policy.max_attempts {
            settle(
                st,
                w,
                eng,
                Err(OpError::DeadlineExceeded { attempts: k + 1 }),
            );
            return;
        }
        arm(st, eng, shared.policy.backoff_for(k), move |st, w, eng| {
            attempt(st, w, eng, k + 1);
        });
    });
}

/// Record an attempt-deadline expiry against the stall probe; fire the
/// suspect callback when the consecutive-expiry threshold is crossed
/// and no episode is already open.
fn probe_note_timeout(shared: &Shared, w: &mut World, eng: &mut Engine<World>) {
    let probe = &shared.probe;
    let fire = {
        let mut p = probe.borrow_mut();
        match p.as_mut() {
            None => false,
            Some(ps) => {
                ps.consecutive += 1;
                if ps.consecutive >= ps.threshold && !ps.episode_open {
                    ps.episode_open = true;
                    true
                } else {
                    false
                }
            }
        }
    };
    if !fire {
        return;
    }
    let host = shared.cell.borrow().member_host(0).0;
    if w.telemetry.enabled() {
        w.telemetry
            .metrics
            .counter_add("nic_stall_suspected", "layer=probe", 1);
        let now = eng.now();
        w.telemetry.mark(now, "probe:nic-stall-suspected", host);
        // Postmortem snapshot: the victim op is still open (its silence
        // is what fired the probe), so its span lands in the dump.
        w.telemetry.flight_dump(now, "probe:nic-stall-suspected");
    }
    // Take the callback out for the call so it may re-enter the probe
    // (e.g. trigger a rebuild that disarms or re-arms it).
    let cb = probe
        .borrow_mut()
        .as_mut()
        .and_then(|p| p.on_suspect.take());
    if let Some(mut cb) = cb {
        cb(w, eng);
        if let Some(p) = probe.borrow_mut().as_mut() {
            if p.on_suspect.is_none() {
                p.on_suspect = Some(cb);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replica, GroupBuilder};
    use hl_cluster::ClusterBuilder;
    use hl_fabric::HostId;

    type Outcome = Rc<RefCell<Option<Result<OpResult, OpError>>>>;

    /// A 2-replica chain supervised under `policy`, primed until its
    /// replenishers idle. Also returns the engine's pending count at that
    /// point: the baseline every settled op must leave behind.
    fn chain(policy: DeadlinePolicy) -> (World, Engine<World>, RetryClient, usize) {
        let (mut w, mut eng) = ClusterBuilder::new(3).arena_size(1 << 20).seed(5).build();
        let group = GroupBuilder::new(GroupConfig {
            client: HostId(0),
            replicas: vec![HostId(1), HostId(2)],
            rep_bytes: 64 << 10,
            ring_slots: 16,
            ..Default::default()
        })
        .build(&mut w);
        replica::start_replenishers(&group, &mut w, &mut eng);
        eng.run_until(&mut w, SimTime::from_nanos(50_000));
        let baseline = eng.pending();
        let client = HyperLoopClient::new(group, &mut w);
        let retry = RetryClient::with_policy(client, policy);
        (w, eng, retry, baseline)
    }

    /// Issue one supervised gWRITE and run until it settles.
    fn write_and_settle(
        retry: &RetryClient,
        w: &mut World,
        eng: &mut Engine<World>,
        before_run: impl FnOnce(&Rc<RefCell<IssueState>>, &mut Engine<World>),
    ) -> (Rc<RefCell<IssueState>>, Result<OpResult, OpError>) {
        let out: Outcome = Rc::new(RefCell::new(None));
        let o = out.clone();
        let op = GroupOp::Write {
            offset: 0,
            data: Bytes::copy_from_slice(b"supervised"),
            flush: true,
        };
        let st = retry.supervise(
            w,
            eng,
            op,
            Box::new(move |_w, _e, r| *o.borrow_mut() = Some(r)),
        );
        before_run(&st, eng);
        let o = out.clone();
        assert!(
            eng.run_while(w, move |_| o.borrow().is_none()),
            "op never settled"
        );
        let r = out.borrow_mut().take().unwrap();
        (st, r)
    }

    fn run_for(w: &mut World, eng: &mut Engine<World>, d: SimDuration) {
        let end = eng.now() + d;
        eng.run_until(w, end);
    }

    #[test]
    fn ack_before_the_deadline_cancels_the_timer() {
        let (mut w, mut eng, retry, baseline) = chain(DeadlinePolicy::default());
        let (st, r) = write_and_settle(&retry, &mut w, &mut eng, |st, _| {
            assert!(st.borrow().timer.is_some(), "the attempt deadline is armed");
        });
        assert!(r.is_ok());
        assert!(st.borrow().timer.is_none());
        // Well inside the 2 ms deadline: only the cancelled timer could
        // still be pending.
        run_for(&mut w, &mut eng, SimDuration::from_micros(100));
        assert_eq!(eng.pending(), baseline);
        run_for(&mut w, &mut eng, SimDuration::from_millis(3));
        assert_eq!(
            retry.stats(),
            RetryStats {
                acked: 1,
                ..Default::default()
            }
        );
        assert_eq!(retry.outstanding(), 0);
    }

    #[test]
    fn deadline_exceeded_settles_from_the_firing_timer() {
        let policy = DeadlinePolicy {
            deadline: SimDuration::from_micros(100),
            max_attempts: 3,
            backoff: SimDuration::from_micros(20),
            backoff_cap: SimDuration::from_micros(40),
        };
        let (mut w, mut eng, retry, baseline) = chain(policy);
        // Every attempt leaves the client and is lost on the first hop.
        w.fabric.partition(HostId(0), HostId(1));
        let (st, r) = write_and_settle(&retry, &mut w, &mut eng, |_, _| {});
        assert_eq!(r.unwrap_err(), OpError::DeadlineExceeded { attempts: 3 });
        assert!(
            st.borrow().timer.is_none(),
            "no stale token after the last firing"
        );
        assert_eq!(eng.pending(), baseline);
        assert_eq!(
            retry.stats(),
            RetryStats {
                reissues: 2,
                deadline_exceeded: 1,
                attempt_timeouts: 3,
                ..Default::default()
            }
        );
        assert_eq!(retry.failures().len(), 1);
        assert_eq!(retry.outstanding(), 0);
    }

    #[test]
    fn backpressure_backs_off_then_acks() {
        let policy = DeadlinePolicy {
            backoff: SimDuration::from_micros(50),
            ..Default::default()
        };
        let (mut w, mut eng, retry, baseline) = chain(policy);
        retry.backend().set_paused(true);
        let (st, r) = write_and_settle(&retry, &mut w, &mut eng, |st, eng| {
            // Refused at issue: the backoff is the op's one event.
            assert!(st.borrow().timer.is_some());
            assert_eq!(eng.pending(), baseline + 1);
            retry.backend().set_paused(false);
        });
        assert!(r.is_ok());
        assert!(st.borrow().timer.is_none());
        run_for(&mut w, &mut eng, SimDuration::from_micros(100));
        assert_eq!(eng.pending(), baseline);
        assert_eq!(
            retry.stats(),
            RetryStats {
                acked: 1,
                reissues: 1,
                backpressured: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn late_ack_during_the_backoff_cancels_it() {
        // The deadline expires long before the chain can ACK, and the
        // backoff outlasts the ACK.
        let policy = DeadlinePolicy {
            deadline: SimDuration::from_nanos(500),
            max_attempts: 3,
            backoff: SimDuration::from_millis(1),
            backoff_cap: SimDuration::from_millis(1),
        };
        let (mut w, mut eng, retry, baseline) = chain(policy);
        let (st, r) = write_and_settle(&retry, &mut w, &mut eng, |_, _| {});
        assert!(r.is_ok());
        assert!(st.borrow().timer.is_none());
        run_for(&mut w, &mut eng, SimDuration::from_micros(100));
        assert_eq!(eng.pending(), baseline, "the backoff was cancelled");
        run_for(&mut w, &mut eng, SimDuration::from_millis(2));
        assert_eq!(
            retry.stats(),
            RetryStats {
                acked: 1,
                attempt_timeouts: 1,
                ..Default::default()
            }
        );
    }
}
