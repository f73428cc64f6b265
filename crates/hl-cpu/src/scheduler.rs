//! CFS-like multi-tenant CPU scheduler model.
//!
//! One [`HostCpu`] models all cores of a host and the processes sharing
//! them. The model is a pure state machine: callers feed it *work
//! submissions* and *timer expirations*, and it returns outputs
//! (`Timer` requests and `WorkDone` notifications) that the cluster
//! layer turns into simulation events.
//!
//! The scheduling policy is a simplified CFS:
//!
//! * per-host runqueue ordered by **vruntime** (equal weights), kept
//!   as an index of the runnable processes so that no scheduling event
//!   scans every process of the host;
//! * fixed **time slice**; a preempted or expired process keeps its
//!   unfinished work and re-enters the runqueue;
//! * **sleeper fairness**: a woken process's vruntime is floored at
//!   `min_vruntime − slice`, so interactive processes usually run soon;
//! * **wakeup preemption** with a granularity threshold: a woken process
//!   preempts the running process with the largest vruntime if it leads
//!   by more than `wakeup_granularity`;
//! * explicit **context-switch cost** and counting (Figure 2 of the
//!   paper plots context switches).
//!
//! This is exactly the machinery whose queueing delays put replica CPUs
//! on the critical path in the paper's Naïve-RDMA and native baselines;
//! HyperLoop's NIC datapath never enters this module.

use hl_sim::config::CpuProfile;
use hl_sim::{Histogram, SimDuration, SimTime};
use std::collections::{BTreeSet, VecDeque};

/// Process identifier within one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcId(pub usize);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Tag identifying a completed unit of work back to the submitter.
pub type WorkTag = u64;

/// Outputs the cluster layer must act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuOutput {
    /// Schedule a call to [`HostCpu::on_timer`] for `core` at `at`.
    /// Stale timers (superseded `gen`) are ignored by the model.
    Timer {
        /// Core index.
        core: usize,
        /// Generation to pass back (staleness check).
        gen: u64,
        /// Absolute expiry time.
        at: SimTime,
    },
    /// A submitted work item finished executing.
    WorkDone {
        /// Owning process.
        pid: ProcId,
        /// Tag given at submission.
        tag: WorkTag,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Blocked,
    Runnable,
    Running { core: usize },
}

#[derive(Debug, Clone)]
struct WorkItem {
    /// Remaining CPU nanoseconds; `u64::MAX` means infinite (CPU hog).
    remaining: u64,
    tag: WorkTag,
}

impl WorkItem {
    fn is_infinite(&self) -> bool {
        self.remaining == u64::MAX
    }
}

#[derive(Debug)]
struct Proc {
    name: String,
    state: RunState,
    pinned: Option<usize>,
    vruntime: u64,
    work: VecDeque<WorkItem>,
    busy_ns: u64,
    runnable_since: SimTime,
    dispatches: u64,
}

#[derive(Debug, Clone)]
struct Core {
    running: Option<ProcId>,
    /// Reserved for its pinned process only (dedicated-core setups).
    exclusive: bool,
    /// Last process that ran here (same-process re-dispatch is free).
    last_ran: Option<ProcId>,
    /// Timer generation; stale timers carry an older value.
    gen: u64,
    /// When the currently dispatched process began consuming CPU
    /// (i.e. after the context-switch cost).
    run_start: SimTime,
    /// End of the current time slice.
    slice_end: SimTime,
}

/// All cores and processes of one simulated host.
#[derive(Debug)]
pub struct HostCpu {
    profile: CpuProfile,
    cores: Vec<Core>,
    procs: Vec<Proc>,
    /// The runqueue: every Runnable process as `(vruntime, pid)`, so its
    /// order is the pick order — lowest vruntime, then lowest pid. A
    /// process's vruntime only moves while it runs, never while queued.
    runqueue: BTreeSet<(u64, usize)>,
    /// Processes that are not Blocked (queued or running).
    active: usize,
    /// Monotonic vruntime floor (sleeper fairness reference).
    min_vruntime: u64,
    /// Woken task preempts only if it leads the victim's vruntime by this.
    wakeup_granularity: u64,
    ctx_switches: u64,
    sched_latency: Histogram,
    started_at: SimTime,
    /// Optional noise source: real schedulers are not metronomes. When
    /// set, each dispatched slice length is jittered ±10%, which breaks
    /// the artificial lockstep of simultaneously-started CPU hogs.
    rng: Option<hl_sim::RngStream>,
}

impl HostCpu {
    /// A host with `profile.cores` cores.
    pub fn new(profile: CpuProfile) -> Self {
        let cores = (0..profile.cores)
            .map(|_| Core {
                running: None,
                exclusive: false,
                last_ran: None,
                gen: 0,
                run_start: SimTime::ZERO,
                slice_end: SimTime::ZERO,
            })
            .collect();
        HostCpu {
            cores,
            procs: Vec::new(),
            runqueue: BTreeSet::new(),
            active: 0,
            min_vruntime: 0,
            wakeup_granularity: profile.wakeup_granularity.as_nanos(),
            ctx_switches: 0,
            sched_latency: Histogram::new(),
            started_at: SimTime::ZERO,
            rng: None,
            profile,
        }
    }

    /// Install a noise source (slice-length jitter ±10%).
    pub fn set_rng(&mut self, rng: hl_sim::RngStream) {
        self.rng = Some(rng);
    }

    /// Reserve a core for its pinned process only. Unpinned processes
    /// will never be dispatched there (dedicated-core / cpuset setups).
    pub fn set_exclusive(&mut self, core: usize, on: bool) {
        self.cores[core].exclusive = on;
    }

    /// CFS-like slice: the scheduling period is divided among runnable
    /// tasks, so slices shrink as oversubscription grows (and context
    /// switches rise — Figure 2's mechanism), floored at a minimum
    /// granularity. Jittered ±10% when a noise source is installed.
    fn slice_len(&mut self) -> SimDuration {
        let runnable = self.active.max(1);
        let cores = self.cores.len().max(1);
        let base = self.profile.time_slice.as_nanos() as f64;
        let min_gran = base / 10.0;
        let scaled = (base * cores as f64 / runnable as f64).clamp(min_gran, base);
        let ns = match &mut self.rng {
            Some(r) => scaled * (0.9 + 0.2 * r.f64()),
            None => scaled,
        };
        SimDuration::from_nanos(ns as u64)
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Register a process. `pinned` restricts it to one core.
    pub fn spawn(&mut self, name: &str, pinned: Option<usize>) -> ProcId {
        if let Some(c) = pinned {
            assert!(c < self.cores.len(), "pin target out of range");
        }
        let pid = ProcId(self.procs.len());
        self.procs.push(Proc {
            name: name.to_string(),
            state: RunState::Blocked,
            pinned,
            vruntime: self.min_vruntime,
            work: VecDeque::new(),
            busy_ns: 0,
            runnable_since: SimTime::ZERO,
            dispatches: 0,
        });
        pid
    }

    /// Spawn a CPU hog: always runnable, consumes every cycle offered.
    /// Models `stress-ng` background tenants.
    pub fn spawn_hog(&mut self, now: SimTime, name: &str) -> (ProcId, Vec<CpuOutput>) {
        let pid = self.spawn(name, None);
        let out = self.submit(now, pid, u64::MAX, 0);
        (pid, out)
    }

    /// Submit `work_ns` of CPU work for `pid`, tagged `tag`. Wakes the
    /// process if blocked. `u64::MAX` means run forever (hog).
    pub fn submit(
        &mut self,
        now: SimTime,
        pid: ProcId,
        work_ns: u64,
        tag: WorkTag,
    ) -> Vec<CpuOutput> {
        let mut out = Vec::new();
        self.submit_into(now, pid, work_ns, tag, &mut out);
        out
    }

    /// [`HostCpu::submit`], pushing its outputs into a caller-owned
    /// sink, so a caller that reuses one allocates nothing per call.
    pub fn submit_into(
        &mut self,
        now: SimTime,
        pid: ProcId,
        work_ns: u64,
        tag: WorkTag,
        out: &mut Vec<CpuOutput>,
    ) {
        self.procs[pid.0].work.push_back(WorkItem {
            remaining: work_ns,
            tag,
        });
        match self.procs[pid.0].state {
            RunState::Blocked => self.wake(now, pid, out),
            RunState::Runnable | RunState::Running { .. } => {}
        }
    }

    fn wake(&mut self, now: SimTime, pid: ProcId, out: &mut Vec<CpuOutput>) {
        debug_assert_eq!(self.procs[pid.0].state, RunState::Blocked);
        self.refresh_min_vruntime();
        // Sleeper fairness: don't let long sleepers starve everyone, but
        // give them a bounded credit.
        let bonus = self.profile.sleeper_bonus.as_nanos();
        let mut target = self.min_vruntime.saturating_sub(bonus);
        // Per-CPU-runqueue imbalance: under overload, the wakeup path
        // (prev_cpu / waker-cpu affinity) sometimes enqueues behind
        // tasks already queued on a busy core instead of at the global
        // head — Linux runqueues are per-core and balancing is lazy.
        let overload = self.active.saturating_sub(self.cores.len());
        if overload > 0 && self.profile.wake_penalty_slices > 0.0 {
            if let Some(rng) = &mut self.rng {
                let p_bad = (overload as f64 / (32.0 * self.cores.len() as f64)).min(0.04);
                if rng.chance(p_bad) {
                    let max_pen = self.profile.time_slice.as_nanos() as f64
                        * self.profile.wake_penalty_slices;
                    target = self.min_vruntime + (rng.f64() * max_pen) as u64;
                }
            }
        }
        let p = &mut self.procs[pid.0];
        p.vruntime = p.vruntime.max(target);
        self.active += 1;
        self.enqueue(now, pid);

        // Idle core available? (Re-dispatching on the core we just ran
        // on skips the wakeup IPI.)
        if let Some(core) = self.pick_idle_core(pid) {
            let delay = if self.cores[core].last_ran == Some(pid) {
                SimDuration::ZERO
            } else {
                self.profile.wakeup
            };
            return self.dispatch(now + delay, core, pid, out);
        }
        // Wakeup preemption: evict the running process with the largest
        // vruntime if the woken one leads by more than the granularity.
        if let Some(core) = self.pick_preemption_victim(pid) {
            self.preempt(now, core);
            self.dispatch(now + self.profile.wakeup, core, pid, out);
        }
    }

    fn pick_idle_core(&self, pid: ProcId) -> Option<usize> {
        let p = &self.procs[pid.0];
        match p.pinned {
            Some(c) => self.cores[c].running.is_none().then_some(c),
            None => {
                // Prefer the core this process last ran on (warm cache,
                // no cross-core wakeup); never use exclusive cores.
                let usable = |c: usize| self.cores[c].running.is_none() && !self.cores[c].exclusive;
                (0..self.cores.len())
                    .find(|&c| usable(c) && self.cores[c].last_ran == Some(pid))
                    .or_else(|| (0..self.cores.len()).find(|&c| usable(c)))
            }
        }
    }

    fn pick_preemption_victim(&self, pid: ProcId) -> Option<usize> {
        let woken = &self.procs[pid.0];
        let candidates = match woken.pinned {
            Some(c) => c..c + 1,
            None => 0..self.cores.len(),
        };
        let mut best: Option<(usize, u64)> = None;
        for c in candidates {
            if self.cores[c].exclusive && self.procs[pid.0].pinned != Some(c) {
                continue;
            }
            let Some(victim) = self.cores[c].running else {
                continue;
            };
            let v = self.procs[victim.0].vruntime;
            if v > woken.vruntime + self.wakeup_granularity && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((c, v));
            }
        }
        best.map(|(c, _)| c)
    }

    /// Stop the process on `core` mid-slice, preserving unfinished work.
    fn preempt(&mut self, now: SimTime, core: usize) {
        // Callers only preempt a core they just found busy; an idle core
        // here is a scheduler-invariant violation worth aborting on.
        // hl-lint: allow(panic-in-handler)
        let pid = self.cores[core].running.expect("preempting idle core");
        self.charge(now, core, pid);
        self.enqueue(now, pid);
        self.cores[core].running = None;
        self.cores[core].gen += 1; // invalidate outstanding timer
    }

    /// Make `pid` Runnable as of `now` and queue it at its vruntime.
    fn enqueue(&mut self, now: SimTime, pid: ProcId) {
        let p = &mut self.procs[pid.0];
        p.state = RunState::Runnable;
        p.runnable_since = now;
        self.runqueue.insert((p.vruntime, pid.0));
    }

    /// Account CPU consumed by `pid` on `core` since dispatch, shrinking
    /// its current work item.
    fn charge(&mut self, now: SimTime, core: usize, pid: ProcId) {
        let elapsed = now
            .saturating_duration_since(self.cores[core].run_start)
            .as_nanos();
        let p = &mut self.procs[pid.0];
        p.busy_ns += elapsed;
        p.vruntime += elapsed;
        if let Some(item) = p.work.front_mut() {
            if !item.is_infinite() {
                item.remaining = item.remaining.saturating_sub(elapsed);
            }
        }
    }

    /// Put `pid` on `core` starting at `now` (context-switch cost applies
    /// when the core last ran a different process).
    fn dispatch(&mut self, now: SimTime, core: usize, pid: ProcId, out: &mut Vec<CpuOutput>) {
        debug_assert!(self.cores[core].running.is_none());
        debug_assert_eq!(self.procs[pid.0].state, RunState::Runnable);
        // Continuing the same process on the same core costs nothing.
        let same = self.cores[core].last_ran == Some(pid);
        let ctx = if same {
            SimDuration::ZERO
        } else {
            self.ctx_switches += 1;
            self.profile.ctx_switch
        };
        let start = now + ctx;
        let slice = self.slice_len();
        let p = &mut self.procs[pid.0];
        let queued = self.runqueue.remove(&(p.vruntime, pid.0));
        debug_assert!(queued, "dispatching an unqueued process");
        p.state = RunState::Running { core };
        p.dispatches += 1;
        self.sched_latency
            .record(now.saturating_duration_since(p.runnable_since).as_nanos());
        let slice_end = start + slice;
        let decision = match p.work.front() {
            Some(w) if !w.is_infinite() => {
                (start + SimDuration::from_nanos(w.remaining)).min(slice_end)
            }
            _ => slice_end,
        };
        let c = &mut self.cores[core];
        c.running = Some(pid);
        c.last_ran = Some(pid);
        c.run_start = start;
        c.slice_end = slice_end;
        c.gen += 1;
        out.push(CpuOutput::Timer {
            core,
            gen: c.gen,
            at: decision,
        });
    }

    /// Timer callback. Ignores stale generations.
    pub fn on_timer(&mut self, now: SimTime, core: usize, gen: u64) -> Vec<CpuOutput> {
        let mut out = Vec::new();
        self.on_timer_into(now, core, gen, &mut out);
        out
    }

    /// [`HostCpu::on_timer`], pushing its outputs into a caller-owned
    /// sink.
    pub fn on_timer_into(&mut self, now: SimTime, core: usize, gen: u64, out: &mut Vec<CpuOutput>) {
        if self.cores[core].gen != gen {
            return;
        }
        // Scheduler invariant, not reachable from packet/external data:
        // a current-generation timer implies the core is running (idling
        // a core bumps its gen). hl-lint: allow(panic-in-handler)
        let pid = self.cores[core].running.expect("timer on idle core");
        self.charge(now, core, pid);
        // Reset run_start so later charges don't double count.
        self.cores[core].run_start = now;

        let finished = self.procs[pid.0]
            .work
            .front()
            .is_some_and(|w| !w.is_infinite() && w.remaining == 0);
        if finished {
            // `finished` just observed a front item. hl-lint: allow(panic-in-handler)
            let item = self.procs[pid.0].work.pop_front().unwrap();
            out.push(CpuOutput::WorkDone { pid, tag: item.tag });
        }

        let slice_over = now >= self.cores[core].slice_end;
        let has_work = !self.procs[pid.0].work.is_empty();

        if has_work && !slice_over {
            // Continue within the slice on the next item.
            let slice_end = self.cores[core].slice_end;
            let decision = match self.procs[pid.0].work.front() {
                Some(w) if !w.is_infinite() => {
                    (now + SimDuration::from_nanos(w.remaining)).min(slice_end)
                }
                _ => slice_end,
            };
            let c = &mut self.cores[core];
            c.gen += 1;
            out.push(CpuOutput::Timer {
                core,
                gen: c.gen,
                at: decision,
            });
            return;
        }

        // The process leaves the core: either it has no work (block) or
        // its slice expired (back to the runqueue).
        self.cores[core].running = None;
        self.cores[core].gen += 1;
        if has_work {
            self.enqueue(now, pid);
        } else {
            self.procs[pid.0].state = RunState::Blocked;
            self.active -= 1;
        }
        self.schedule_core(now, core, out);
    }

    /// Pick the lowest-vruntime runnable process allowed on `core` (ties
    /// to the lowest pid): the first one in runqueue order that is not
    /// pinned elsewhere and, on an exclusive core, is pinned here.
    fn schedule_core(&mut self, now: SimTime, core: usize, out: &mut Vec<CpuOutput>) {
        debug_assert!(self.cores[core].running.is_none());
        let exclusive = self.cores[core].exclusive;
        let best = self
            .runqueue
            .iter()
            .find(|&&(_, i)| match self.procs[i].pinned {
                Some(c) => c == core,
                None => !exclusive,
            });
        if let Some(&(_, i)) = best {
            self.dispatch(now, core, ProcId(i), out);
        }
    }

    /// Raise `min_vruntime` to the least vruntime of any process that is
    /// not Blocked: the runqueue's front or one of the running ones.
    fn refresh_min_vruntime(&mut self) {
        let queued = self.runqueue.first().map(|&(v, _)| v);
        let running = self
            .cores
            .iter()
            .filter_map(|c| c.running)
            .map(|pid| self.procs[pid.0].vruntime);
        if let Some(m) = queued.into_iter().chain(running).min() {
            self.min_vruntime = self.min_vruntime.max(m);
        }
    }

    // ----- metrics -------------------------------------------------------

    /// Total context switches (dispatches) on this host.
    pub fn ctx_switches(&self) -> u64 {
        self.ctx_switches
    }

    /// CPU nanoseconds consumed by a process so far.
    pub fn busy_ns(&self, pid: ProcId) -> u64 {
        self.procs[pid.0].busy_ns
    }

    /// Total CPU nanoseconds consumed by processes whose name starts
    /// with `prefix` (experiment accounting: separate background hogs
    /// from the datapath).
    pub fn busy_ns_by_prefix(&self, prefix: &str) -> u64 {
        self.procs
            .iter()
            .filter(|p| p.name.starts_with(prefix))
            .map(|p| p.busy_ns)
            .sum()
    }

    /// Utilization of a process over `[started_at, now]`, in `[0, 1]`
    /// of one core.
    pub fn utilization(&self, now: SimTime, pid: ProcId) -> f64 {
        let window = now.saturating_duration_since(self.started_at).as_nanos();
        if window == 0 {
            return 0.0;
        }
        self.procs[pid.0].busy_ns as f64 / window as f64
    }

    /// Aggregate host utilization in `[0, 1]` across all cores.
    pub fn host_utilization(&self, now: SimTime) -> f64 {
        let window = now.saturating_duration_since(self.started_at).as_nanos();
        if window == 0 {
            return 0.0;
        }
        let busy: u64 = self.procs.iter().map(|p| p.busy_ns).sum();
        busy as f64 / (window as f64 * self.cores.len() as f64)
    }

    /// Histogram of wakeup→dispatch latencies (the scheduling delay that
    /// drives the paper's tails).
    pub fn sched_latency(&self) -> &Histogram {
        &self.sched_latency
    }

    /// Reset accounting counters (for measuring a steady-state window).
    pub fn reset_metrics(&mut self, now: SimTime) {
        self.started_at = now;
        self.ctx_switches = 0;
        self.sched_latency = Histogram::new();
        for p in &mut self.procs {
            p.busy_ns = 0;
            p.dispatches = 0;
        }
    }

    /// Is the process currently blocked with no queued work? (test aid)
    pub fn is_idle(&self, pid: ProcId) -> bool {
        self.procs[pid.0].state == RunState::Blocked && self.procs[pid.0].work.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_sim::Engine;

    /// Harness: drives a HostCpu under the DES engine, collecting
    /// WorkDone completions as (time, pid, tag).
    struct Sim {
        cpu: HostCpu,
        done: Vec<(SimTime, ProcId, WorkTag)>,
    }
    hl_sim::inert_event_ctx!(Sim);

    fn route(out: Vec<CpuOutput>, sim: &mut Sim, eng: &mut Engine<Sim>) {
        for o in out {
            match o {
                CpuOutput::Timer { core, gen, at } => {
                    eng.schedule_at(at, move |sim: &mut Sim, eng| {
                        let out = sim.cpu.on_timer(eng.now(), core, gen);
                        route(out, sim, eng);
                    });
                }
                CpuOutput::WorkDone { pid, tag } => {
                    let now = eng.now();
                    sim.done.push((now, pid, tag));
                }
            }
        }
    }

    fn profile(cores: usize) -> CpuProfile {
        CpuProfile {
            cores,
            ..CpuProfile::default()
        }
    }

    #[test]
    fn single_proc_runs_immediately() {
        let mut sim = Sim {
            cpu: HostCpu::new(profile(1)),
            done: Vec::new(),
        };
        let mut eng = Engine::new();
        let pid = sim.cpu.spawn("worker", None);
        let out = sim.cpu.submit(SimTime::ZERO, pid, 10_000, 7);
        route(out, &mut sim, &mut eng);
        eng.run(&mut sim);
        assert_eq!(sim.done.len(), 1);
        let (t, p, tag) = sim.done[0];
        assert_eq!(p, pid);
        assert_eq!(tag, 7);
        // wakeup (2us) + ctx (3us) + work (10us) = 15us
        assert_eq!(t.as_nanos(), 15_000);
        assert!(sim.cpu.is_idle(pid));
        assert_eq!(sim.cpu.busy_ns(pid), 10_000);
    }

    #[test]
    fn work_longer_than_slice_spans_quanta() {
        let mut sim = Sim {
            cpu: HostCpu::new(profile(1)),
            done: Vec::new(),
        };
        let mut eng = Engine::new();
        let pid = sim.cpu.spawn("worker", None);
        // 2.5 ms of work with 1 ms slices: needs 3 dispatches.
        let out = sim.cpu.submit(SimTime::ZERO, pid, 2_500_000, 1);
        route(out, &mut sim, &mut eng);
        eng.run(&mut sim);
        assert_eq!(sim.done.len(), 1);
        assert_eq!(sim.cpu.busy_ns(pid), 2_500_000);
        // It was alone: re-dispatch on the same core is free, so only
        // the initial dispatch counts as a context switch.
        assert_eq!(sim.cpu.ctx_switches(), 1);
    }

    #[test]
    fn hog_delays_worker_wakeup() {
        let mut sim = Sim {
            cpu: HostCpu::new(profile(1)),
            done: Vec::new(),
        };
        let mut eng = Engine::new();
        let (_hog, out) = sim.cpu.spawn_hog(SimTime::ZERO, "stress");
        route(out, &mut sim, &mut eng);
        let pid = sim.cpu.spawn("worker", None);
        // Wake the worker mid-hog-slice. The hog has consumed nothing
        // extra yet, so vruntime gap < granularity: no preemption. The
        // worker waits for the slice end.
        eng.schedule(SimDuration::from_micros(100), move |sim: &mut Sim, eng| {
            let out = sim.cpu.submit(eng.now(), pid, 10_000, 2);
            route(out, sim, eng);
        });
        eng.run_until(&mut sim, SimTime::from_nanos(10_000_000));
        assert_eq!(sim.done.len(), 1);
        let (t, _, _) = sim.done[0];
        // Hog slice ends at wakeup(2us)+ctx(3us)+1ms; worker then needs
        // ctx + 10us. Must be later than the naive 115us.
        assert!(t.as_nanos() > 1_000_000, "got {t}");
        assert!(t.as_nanos() < 1_100_000, "got {t}");
    }

    #[test]
    fn sleeper_preempts_long_running_hog() {
        let mut sim = Sim {
            cpu: HostCpu::new(profile(1)),
            done: Vec::new(),
        };
        let mut eng = Engine::new();
        let (_hog, out) = sim.cpu.spawn_hog(SimTime::ZERO, "stress");
        route(out, &mut sim, &mut eng);
        let pid = sim.cpu.spawn("worker", None);
        // After the hog has accumulated ~5ms of vruntime, a fresh waker
        // (vruntime floored at min_vruntime - slice) leads by > 500us and
        // preempts.
        eng.schedule(SimDuration::from_millis(5), move |sim: &mut Sim, eng| {
            let out = sim.cpu.submit(eng.now(), pid, 10_000, 3);
            route(out, sim, eng);
        });
        eng.run_until(&mut sim, SimTime::from_nanos(20_000_000));
        assert_eq!(sim.done.len(), 1);
        let (t, _, _) = sim.done[0];
        // Preemption: wakeup + ctx + work ≈ 15us after the 5ms mark.
        assert!(
            t.as_nanos() < 5_100_000,
            "expected fast preemption, got {t}"
        );
    }

    #[test]
    fn pinned_proc_only_uses_its_core() {
        let mut sim = Sim {
            cpu: HostCpu::new(profile(2)),
            done: Vec::new(),
        };
        let mut eng = Engine::new();
        // Hog occupies core 0 implicitly (first idle core).
        let (_hog, out) = sim.cpu.spawn_hog(SimTime::ZERO, "stress");
        route(out, &mut sim, &mut eng);
        let pinned = sim.cpu.spawn("pinned", Some(0));
        let out = sim.cpu.submit(SimTime::ZERO, pinned, 1_000, 4);
        route(out, &mut sim, &mut eng);
        // Core 1 is idle but the pinned proc cannot use it; it waits for
        // core 0's slice to end (no preemption: vruntime gap too small).
        eng.run_until(&mut sim, SimTime::from_nanos(3_000_000));
        assert_eq!(sim.done.len(), 1);
        assert!(sim.done[0].0.as_nanos() > 1_000_000);
    }

    #[test]
    fn two_cores_run_two_procs_in_parallel() {
        let mut sim = Sim {
            cpu: HostCpu::new(profile(2)),
            done: Vec::new(),
        };
        let mut eng = Engine::new();
        let a = sim.cpu.spawn("a", None);
        let b = sim.cpu.spawn("b", None);
        let out = sim.cpu.submit(SimTime::ZERO, a, 100_000, 1);
        route(out, &mut sim, &mut eng);
        let out = sim.cpu.submit(SimTime::ZERO, b, 100_000, 2);
        route(out, &mut sim, &mut eng);
        eng.run(&mut sim);
        assert_eq!(sim.done.len(), 2);
        // Both finish at the same time: they did not queue.
        assert_eq!(sim.done[0].0, sim.done[1].0);
    }

    #[test]
    fn fifo_work_items_complete_in_order() {
        let mut sim = Sim {
            cpu: HostCpu::new(profile(1)),
            done: Vec::new(),
        };
        let mut eng = Engine::new();
        let pid = sim.cpu.spawn("w", None);
        for tag in 1..=3 {
            let out = sim.cpu.submit(SimTime::ZERO, pid, 5_000, tag);
            route(out, &mut sim, &mut eng);
        }
        eng.run(&mut sim);
        let tags: Vec<_> = sim.done.iter().map(|d| d.2).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(sim.cpu.busy_ns(pid), 15_000);
    }

    #[test]
    fn utilization_accounting() {
        let mut sim = Sim {
            cpu: HostCpu::new(profile(2)),
            done: Vec::new(),
        };
        let mut eng = Engine::new();
        let pid = sim.cpu.spawn("w", None);
        let out = sim.cpu.submit(SimTime::ZERO, pid, 1_000_000, 1);
        route(out, &mut sim, &mut eng);
        eng.run(&mut sim);
        let now = eng.now();
        let u = sim.cpu.utilization(now, pid);
        // 1 ms busy over ~1.005 ms elapsed on one of two cores.
        assert!(u > 0.9 && u <= 1.0, "util {u}");
        let hu = sim.cpu.host_utilization(now);
        assert!((hu - u / 2.0).abs() < 1e-9);
    }

    #[test]
    fn contention_inflates_tail_latency() {
        // 1 core, 8 hogs, one interactive worker woken repeatedly: its
        // wakeup→dispatch latency distribution must show a heavy tail
        // relative to an uncontended host.
        let mut sim = Sim {
            cpu: HostCpu::new(profile(1)),
            done: Vec::new(),
        };
        let mut eng = Engine::new();
        for i in 0..8 {
            let (_h, out) = sim.cpu.spawn_hog(SimTime::ZERO, &format!("hog{i}"));
            route(out, &mut sim, &mut eng);
        }
        let pid = sim.cpu.spawn("victim", None);
        fn wake_loop(pid: ProcId, n: u32, sim: &mut Sim, eng: &mut Engine<Sim>) {
            if n == 0 {
                return;
            }
            let out = sim.cpu.submit(eng.now(), pid, 5_000, n as u64);
            route(out, sim, eng);
            eng.schedule(SimDuration::from_millis(7), move |sim: &mut Sim, eng| {
                wake_loop(pid, n - 1, sim, eng);
            });
        }
        eng.schedule(SimDuration::ZERO, move |sim: &mut Sim, eng| {
            wake_loop(pid, 50, sim, eng);
        });
        eng.run_until(&mut sim, SimTime::from_nanos(2_000_000_000));
        assert!(sim.done.len() >= 40, "completed {}", sim.done.len());
        let lat = sim.cpu.sched_latency().summary();
        // Mean scheduling latency should be well above the uncontended
        // microsecond scale.
        assert!(
            lat.mean_ns > 50_000.0,
            "expected contention, mean {} ns",
            lat.mean_ns
        );
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut cpu = HostCpu::new(profile(1));
        let pid = cpu.spawn("w", None);
        let out = cpu.submit(SimTime::ZERO, pid, 10_000, 1);
        let CpuOutput::Timer { core, gen, .. } = out[0] else {
            panic!("expected timer");
        };
        // A stale generation must produce no outputs and not panic.
        assert!(cpu
            .on_timer(SimTime::from_nanos(1), core, gen + 5)
            .is_empty());
        assert!(cpu
            .on_timer(SimTime::from_nanos(1), core, gen.wrapping_sub(1))
            .is_empty());
    }

    #[test]
    fn reset_metrics_clears_counters() {
        let mut sim = Sim {
            cpu: HostCpu::new(profile(1)),
            done: Vec::new(),
        };
        let mut eng = Engine::new();
        let pid = sim.cpu.spawn("w", None);
        let out = sim.cpu.submit(SimTime::ZERO, pid, 10_000, 1);
        route(out, &mut sim, &mut eng);
        eng.run(&mut sim);
        assert!(sim.cpu.ctx_switches() > 0);
        sim.cpu.reset_metrics(eng.now());
        assert_eq!(sim.cpu.ctx_switches(), 0);
        assert_eq!(sim.cpu.busy_ns(pid), 0);
    }
}
