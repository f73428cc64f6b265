//! Completion queues.

use std::collections::VecDeque;

/// Hardware depth of every completion queue: the most CQEs a CQ stores.
///
/// A fixed ring, as on a real adapter, and not an option. It is at least
/// 4 × the `ring_slots` of every chain the benchmark and tier-1 run, so
/// a CQ that software drains never gets near it; the CQs that fill it
/// are the replica CQs only WAITs watch, which count completions and are
/// never polled (CORE-Direct's use of `IGNORE_OVERRUN`).
pub const CQ_DEPTH: usize = 1024;

/// Completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqeStatus {
    /// Operation completed successfully.
    Ok,
    /// The responder refused the access (bad key, range, or permission).
    RemoteAccess,
    /// The responder had no RECV posted (receiver-not-ready).
    ReceiverNotReady,
    /// The transport retry budget was exhausted (peer dead, partitioned,
    /// or stalled past `retry_cnt` timeouts). The QP is in
    /// [`QpState::Error`](crate::QpState::Error).
    RetryExceeded,
    /// The WQE was flushed without executing because the QP entered the
    /// Error state (ibv `IBV_WC_WR_FLUSH_ERR`).
    FlushedInError,
    /// A local memory access failed while landing a response or running
    /// a loopback operation (ibv `IBV_WC_LOC_PROT_ERR`): the address
    /// fell outside the arena, typically a corrupted descriptor.
    LocalProtection,
}

/// What kind of operation completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqeKind {
    /// A send-queue operation (send/write/read/cas/flush/nop) finished.
    SendOp,
    /// An inbound SEND consumed a RECV.
    Recv,
    /// An inbound WRITE_WITH_IMM consumed a RECV.
    RecvImm,
}

/// A completion queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    /// QP the operation belonged to.
    pub qpn: u32,
    /// Caller cookie from the WQE.
    pub wr_id: u64,
    /// Completion kind.
    pub kind: CqeKind,
    /// Status.
    pub status: CqeStatus,
    /// Bytes transferred (payload length).
    pub byte_len: u32,
    /// Immediate data (valid for `RecvImm`).
    pub imm: u32,
    /// Telemetry op id carried from the WQE/packet (0 = untracked).
    pub op: u32,
}

/// A completion queue: a ring of [`CQ_DEPTH`] entries.
///
/// Tracks a monotonic `produced` counter that WAIT WQEs compare against:
/// a WAIT armed for `count` completions fires when `produced` advances
/// `count` past the previous WAIT's consumption point — exactly the
/// CORE-Direct semantics HyperLoop leans on. That accounting is by
/// production, so it does not care what the ring still stores.
///
/// Besides the one-shot arm, a CQ can be *moderated*
/// ([`Cq::moderate`]): a one-shot event when `produced` reaches a
/// count, as `ibv_modify_cq`'s `cq_count` lets a driver batch
/// interrupts. Moderation reads only the production count, so it is
/// legal on a CQ nobody polls.
///
/// A push into a full ring overwrites the oldest stored CQE (an
/// *overrun*). That is legal only on a CQ software never polls or arms;
/// once one has been polled or armed, every CQE it lost is a modelled CQ
/// error, reported by [`Nic::polled_cq_overruns`](crate::Nic::polled_cq_overruns).
#[derive(Debug, Default)]
pub struct Cq {
    entries: VecDeque<Cqe>,
    /// Total CQEs ever pushed.
    produced: u64,
    /// Completions consumed by WAIT triggers so far.
    wait_consumed: u64,
    /// One-shot event arm (ibv_req_notify_cq semantics).
    armed: bool,
    /// One-shot moderation event: fires at the push that brings
    /// `produced` to at least this count.
    moderated_at: Option<u64>,
    /// CQEs overwritten because the ring was full.
    overruns: u64,
    /// Software has polled or armed this CQ at least once.
    polled: bool,
}

impl Cq {
    /// Empty CQ.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is the ring full, so that the next push overwrites?
    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() == CQ_DEPTH
    }

    /// Push a completion, overwriting the oldest stored one when the
    /// ring is full; returns `true` if the queue was armed or its
    /// moderation count is reached (the caller should deliver an event;
    /// both are cleared).
    pub fn push(&mut self, cqe: Cqe) -> bool {
        if self.is_full() {
            self.entries.pop_front();
            self.overruns += 1;
        }
        self.entries.push_back(cqe);
        self.produced += 1;
        let moderated = self.moderated_at.is_some_and(|n| self.produced >= n);
        if moderated {
            self.moderated_at = None;
        }
        std::mem::take(&mut self.armed) | moderated
    }

    /// Poll up to `max` completions (consumer side; does not affect WAIT
    /// accounting, which is by production).
    pub fn poll(&mut self, max: usize) -> Vec<Cqe> {
        let mut out = Vec::new();
        self.poll_into(max, &mut out);
        out
    }

    /// Poll up to `max` completions into a caller-owned buffer, appending
    /// to whatever is already there. Lets hot drain loops reuse one
    /// scratch `Vec` instead of allocating per poll.
    pub fn poll_into(&mut self, max: usize, out: &mut Vec<Cqe>) {
        self.polled = true;
        let n = max.min(self.entries.len());
        out.extend(self.entries.drain(..n));
    }

    /// Arm the one-shot completion event.
    pub fn arm(&mut self) {
        self.polled = true;
        self.armed = true;
    }

    /// Arm the one-shot moderation event for the push that brings the
    /// production count to `count` (the next push, if it is already
    /// there), replacing any earlier one. Unlike [`Cq::arm`] it does
    /// not count as consuming: overruns stay legal.
    pub fn moderate(&mut self, count: u64) {
        self.moderated_at = Some(count);
    }

    /// Completions produced over all time.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Would a WAIT for `count` more completions fire right now?
    pub fn wait_satisfied(&self, count: u32) -> bool {
        self.produced >= self.wait_consumed + count as u64
    }

    /// Consume `count` completions on behalf of a fired WAIT.
    pub fn consume_for_wait(&mut self, count: u32) {
        debug_assert!(self.wait_satisfied(count));
        self.wait_consumed += count as u64;
    }

    /// Entries currently stored (available to poll), at most
    /// [`CQ_DEPTH`].
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// CQEs overwritten because the ring was full, over all time.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// Has software ever polled or armed this CQ?
    pub fn is_polled(&self) -> bool {
        self.polled
    }

    /// Overruns that lost a completion someone consumes: all of them
    /// once the CQ has been polled or armed, none before. Non-zero is a
    /// modelled CQ error (ibv `IBV_EVENT_CQ_ERR`).
    pub(crate) fn polled_overruns(&self) -> u64 {
        if self.polled {
            self.overruns
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cqe(wr_id: u64) -> Cqe {
        Cqe {
            qpn: 1,
            wr_id,
            kind: CqeKind::SendOp,
            status: CqeStatus::Ok,
            byte_len: 0,
            imm: 0,
            op: 0,
        }
    }

    #[test]
    fn poll_drains_fifo() {
        let mut cq = Cq::new();
        cq.push(cqe(1));
        cq.push(cqe(2));
        cq.push(cqe(3));
        let got = cq.poll(2);
        assert_eq!(got.iter().map(|c| c.wr_id).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(cq.depth(), 1);
        assert_eq!(cq.poll(10).len(), 1);
        assert!(cq.poll(10).is_empty());
    }

    #[test]
    fn arm_is_one_shot() {
        let mut cq = Cq::new();
        assert!(!cq.push(cqe(1)));
        cq.arm();
        assert!(cq.push(cqe(2)));
        assert!(!cq.push(cqe(3)));
    }

    #[test]
    fn wait_accounting() {
        let mut cq = Cq::new();
        assert!(!cq.wait_satisfied(1));
        cq.push(cqe(1));
        assert!(cq.wait_satisfied(1));
        assert!(!cq.wait_satisfied(2));
        cq.consume_for_wait(1);
        assert!(!cq.wait_satisfied(1));
        cq.push(cqe(2));
        cq.push(cqe(3));
        assert!(cq.wait_satisfied(2));
        cq.consume_for_wait(2);
        assert!(!cq.wait_satisfied(1));
    }

    #[test]
    fn polling_does_not_affect_wait() {
        let mut cq = Cq::new();
        cq.push(cqe(1));
        cq.poll(1);
        // The completion was produced even though it was polled away.
        assert!(cq.wait_satisfied(1));
    }

    /// A full ring overwrites its oldest entry; `produced` still counts
    /// every push and the ring never stores more than its depth.
    #[test]
    fn overrun_keeps_produced_exact() {
        let mut cq = Cq::new();
        let n = 3 * CQ_DEPTH as u64 + 7;
        for k in 0..n {
            cq.push(cqe(k));
        }
        assert_eq!(cq.produced(), n);
        assert_eq!(cq.depth(), CQ_DEPTH);
        assert_eq!(cq.overruns(), n - CQ_DEPTH as u64);
        // Unpolled: the overruns are legal.
        assert_eq!(cq.polled_overruns(), 0);
    }

    /// A WAIT armed before the ring overruns fires at exactly the
    /// production count it was armed for, however much was overwritten
    /// in between, and the next WAIT counts from there.
    #[test]
    fn wait_across_an_overrun_fires_at_the_right_count() {
        let mut cq = Cq::new();
        let count = 2 * CQ_DEPTH as u32 + 5;
        for _ in 0..count - 1 {
            cq.push(cqe(0));
            assert!(!cq.wait_satisfied(count));
        }
        assert!(cq.overruns() > 0);
        cq.push(cqe(0));
        assert!(cq.wait_satisfied(count));
        assert!(!cq.wait_satisfied(count + 1));
        cq.consume_for_wait(count);
        assert!(!cq.wait_satisfied(1));
        cq.push(cqe(0));
        assert!(cq.wait_satisfied(1));
    }

    /// Polling a CQ that has overrun reports the lost completions as a
    /// CQ error and still returns what the ring holds: the newest
    /// `CQ_DEPTH` entries, oldest first.
    #[test]
    fn polling_an_overrun_cq_reports_the_error() {
        let mut cq = Cq::new();
        for k in 0..CQ_DEPTH as u64 + 3 {
            cq.push(cqe(k));
        }
        assert_eq!(cq.polled_overruns(), 0);
        let got = cq.poll(usize::MAX);
        assert_eq!(cq.polled_overruns(), 3);
        assert_eq!(got.len(), CQ_DEPTH);
        assert_eq!(got[0].wr_id, 3);
        assert_eq!(got[CQ_DEPTH - 1].wr_id, CQ_DEPTH as u64 + 2);
    }

    /// Moderation fires once, at the push that reaches its count, and
    /// leaves the CQ unpolled: the overruns of a CQ only WAITs and a
    /// moderation event watch stay legal.
    #[test]
    fn moderation_fires_once_at_its_count_and_does_not_poll() {
        let mut cq = Cq::new();
        cq.moderate(3);
        assert!(!cq.push(cqe(1)));
        assert!(!cq.push(cqe(2)));
        assert!(cq.push(cqe(3)));
        assert!(!cq.push(cqe(4)));
        // A count already passed fires at the next push.
        cq.moderate(2);
        assert!(cq.push(cqe(5)));
        for k in 0..CQ_DEPTH as u64 {
            cq.push(cqe(k));
        }
        assert!(!cq.is_polled());
        assert!(cq.overruns() > 0);
        assert_eq!(cq.polled_overruns(), 0);
    }

    /// Arming counts as consuming: an overrun after a subscription is an
    /// error even before the first poll.
    #[test]
    fn overrun_of_an_armed_cq_is_an_error() {
        let mut cq = Cq::new();
        cq.arm();
        for k in 0..CQ_DEPTH as u64 {
            cq.push(cqe(k));
        }
        assert_eq!(cq.polled_overruns(), 0);
        cq.push(cqe(0));
        assert_eq!(cq.polled_overruns(), 1);
    }
}
