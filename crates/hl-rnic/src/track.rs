//! WQE-ownership & DMA race detector (off unless switched on).
//!
//! HyperLoop's remote work-request manipulation deliberately lets peers
//! scribble on pre-posted send descriptors, and the modified driver
//! defers the hardware-ownership bit so those rewrites stay legal. That
//! protocol has a narrow safety envelope, and violating it on real
//! hardware produces silent corruption rather than faults. This module
//! shadows the driver protocol at simulation time and reports every
//! excursion:
//!
//! * **(a) software-owned fetch** — the send engine consumed a WQE whose
//!   slot was never handed over by `grant_ownership` or a WAIT
//!   activation. The memory flag byte said `HW_OWNED`, so someone forged
//!   the grant (e.g. a misdirected metadata scatter hit the flag byte).
//! * **(b) scatter after grant** — a remote write landed inside a
//!   descriptor slot *after* ownership passed to the NIC. The engine
//!   re-reads descriptors from memory at execution time, so this is a
//!   classic fetch/rewrite race.
//! * **(c) concurrent DMA overlap** — two DMA writes from different
//!   source QPs hit overlapping bytes of registered memory with no
//!   intervening completion on this host, carrying different bytes.
//!   Byte-identical rewrites (retransmitted or re-issued records) are
//!   benign duplicates and exempt.
//! * **(d) use after deregister** — a remote access quoted the rkey of a
//!   region that has been deregistered.
//!
//! The tracker is driver-protocol state, not memory state: it believes
//! what the verbs layer *said* (posted deferred, granted, deregistered),
//! and compares that against what the NIC engine and inbound DMA
//! actually *did*. It draws no randomness and schedules nothing, so
//! switching it on does not perturb the simulated timeline — detection
//! is pure observation. It does cost host time (its shadow copies every
//! remote DMA), so it is off by default: an off tracker holds no state
//! and every hook is one branch around an out-of-line body.

use hl_sim::SimTime;
use std::collections::BTreeMap;

use crate::wqe::WQE_SIZE;

/// Who owns a send-ring slot according to the driver protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotOwner {
    /// Posted deferred: software may still rewrite it; the engine must
    /// not fetch it until a grant.
    Software,
    /// Granted to the NIC (doorbell post, `grant_ownership`, or WAIT
    /// activation): remote scatter must keep out.
    Hardware,
}

/// One remote-sourced DMA write observed in the current completion
/// epoch of this NIC.
#[derive(Debug, Clone)]
struct DmaWrite {
    start: u64,
    end: u64,
    src_nic: u32,
    src_qpn: u32,
    at: SimTime,
    data: Vec<u8>,
}

/// A detected ownership/race violation, with the offending simulated
/// timestamps and QPNs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// (a) The send engine fetched a WQE from a slot still owned by
    /// software per the driver protocol.
    SwOwnedFetch {
        /// QP whose send engine did the fetch.
        qpn: u32,
        /// Ring index of the fetched WQE.
        idx: u64,
        /// Simulated fetch time.
        at: SimTime,
    },
    /// (b) A remote write landed inside a descriptor slot after
    /// ownership was granted to the NIC.
    ScatterAfterGrant {
        /// QP owning the send ring that was hit.
        ring_qpn: u32,
        /// Ring slot position that was overwritten.
        slot: u64,
        /// First byte of the offending write.
        addr: u64,
        /// Source NIC of the write.
        src_nic: u32,
        /// Source QP of the write.
        src_qpn: u32,
        /// Simulated landing time.
        at: SimTime,
    },
    /// (c) Two DMA writes from different QPs overlapped the same memory
    /// range without an intervening completion, carrying different
    /// bytes.
    ConcurrentDmaOverlap {
        /// First byte of the overlap.
        addr: u64,
        /// Overlap length in bytes.
        len: u64,
        /// `(nic, qpn)` of the earlier write.
        first_src: (u32, u32),
        /// Simulated time of the earlier write.
        first_at: SimTime,
        /// `(nic, qpn)` of the later write.
        second_src: (u32, u32),
        /// Simulated time of the later write.
        second_at: SimTime,
    },
    /// (d) A remote access quoted the rkey of a deregistered region.
    UseAfterDeregister {
        /// The stale rkey.
        rkey: u32,
        /// First byte of the attempted access.
        addr: u64,
        /// Attempted access length.
        len: u64,
        /// Source NIC of the access.
        src_nic: u32,
        /// Source QP of the access.
        src_qpn: u32,
        /// Simulated deregistration time.
        dereg_at: SimTime,
        /// Simulated access time.
        at: SimTime,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::SwOwnedFetch { qpn, idx, at } => write!(
                f,
                "sw-owned fetch: qp{qpn} engine consumed slot {idx} still owned \
                 by software at {}ns (forged ownership flag)",
                at.as_nanos()
            ),
            Violation::ScatterAfterGrant {
                ring_qpn,
                slot,
                addr,
                src_nic,
                src_qpn,
                at,
            } => write!(
                f,
                "scatter after grant: nic{src_nic}/qp{src_qpn} wrote {addr:#x} inside \
                 hw-owned slot {slot} of qp{ring_qpn}'s ring at {}ns",
                at.as_nanos()
            ),
            Violation::ConcurrentDmaOverlap {
                addr,
                len,
                first_src,
                first_at,
                second_src,
                second_at,
            } => write!(
                f,
                "concurrent DMA overlap: nic{}/qp{} at {}ns and nic{}/qp{} at {}ns \
                 both wrote [{addr:#x},+{len}) with different bytes and no completion between",
                first_src.0,
                first_src.1,
                first_at.as_nanos(),
                second_src.0,
                second_src.1,
                second_at.as_nanos()
            ),
            Violation::UseAfterDeregister {
                rkey,
                addr,
                len,
                src_nic,
                src_qpn,
                dereg_at,
                at,
            } => write!(
                f,
                "use after deregister: nic{src_nic}/qp{src_qpn} accessed [{addr:#x},+{len}) \
                 via rkey {rkey:#x} at {}ns, deregistered at {}ns",
                at.as_nanos(),
                dereg_at.as_nanos()
            ),
        }
    }
}

/// Shadow state for one NIC: ring slot ownership, the current DMA
/// epoch, and dead memory regions. `None` while the detector is off.
#[derive(Debug, Default)]
pub struct OwnershipTracker {
    shadow: Option<Box<Shadow>>,
}

/// The tracker's state while it is on.
#[derive(Debug, Default)]
struct Shadow {
    /// Send rings: qpn → (base address, capacity).
    rings: BTreeMap<u32, (u64, u32)>,
    /// Driver-protocol slot ownership, keyed `(qpn, idx % capacity)`.
    /// Absent = free (never posted, or consumed and not yet re-posted).
    slots: BTreeMap<(u32, u64), SlotOwner>,
    /// Deregistered regions: rkey → (addr, len, dereg time).
    dead_mrs: BTreeMap<u32, (u64, u64, SimTime)>,
    /// Remote-sourced DMA writes since the last completion on this NIC.
    epoch_writes: Vec<DmaWrite>,
    violations: Vec<Violation>,
}

// The hook bodies. They stay out of line: the NIC's hottest functions
// (`advance_sq`, `deliver_cqe`, the packet handlers) call the hooks, and
// with the detector off each call there must stay a load and a branch,
// not an inlined copy of the map updates (inlined, they grew
// `advance_sq` from 3.9 to 5.1 KB of code).
impl Shadow {
    /// Ring position of ring index `idx` on `qpn` (identity when the
    /// ring is untracked, which cannot happen through the NIC API).
    fn pos(&self, qpn: u32, idx: u64) -> u64 {
        match self.rings.get(&qpn) {
            Some(&(_, cap)) if cap > 0 => idx % cap as u64,
            _ => idx,
        }
    }

    #[inline(never)]
    fn track_ring(&mut self, qpn: u32, base: u64, capacity: u32) {
        self.rings.insert(qpn, (base, capacity));
    }

    #[inline(never)]
    fn slot_posted(&mut self, qpn: u32, idx: u64, deferred: bool) {
        let owner = if deferred {
            SlotOwner::Software
        } else {
            SlotOwner::Hardware
        };
        let pos = self.pos(qpn, idx);
        self.slots.insert((qpn, pos), owner);
    }

    #[inline(never)]
    fn slot_granted(&mut self, qpn: u32, idx: u64) {
        let pos = self.pos(qpn, idx);
        self.slots.insert((qpn, pos), SlotOwner::Hardware);
    }

    #[inline(never)]
    fn slot_fetched(&mut self, qpn: u32, idx: u64, at: SimTime) {
        let pos = self.pos(qpn, idx);
        if self.slots.remove(&(qpn, pos)) == Some(SlotOwner::Software) {
            self.violations
                .push(Violation::SwOwnedFetch { qpn, idx, at });
        }
    }

    #[inline(never)]
    fn slot_cleared(&mut self, qpn: u32, idx: u64) {
        let pos = self.pos(qpn, idx);
        self.slots.remove(&(qpn, pos));
    }

    #[inline(never)]
    fn remote_access(
        &mut self,
        rkey: u32,
        addr: u64,
        len: u64,
        src_nic: u32,
        src_qpn: u32,
        at: SimTime,
    ) {
        if let Some(&(_, _, dereg_at)) = self.dead_mrs.get(&rkey) {
            self.violations.push(Violation::UseAfterDeregister {
                rkey,
                addr,
                len,
                src_nic,
                src_qpn,
                dereg_at,
                at,
            });
        }
    }

    #[inline(never)]
    fn remote_write(&mut self, addr: u64, data: &[u8], src_nic: u32, src_qpn: u32, at: SimTime) {
        let len = data.len() as u64;
        if len == 0 {
            return;
        }
        let end = addr + len;
        // (b) Did the write land inside a hardware-owned descriptor?
        for (&qpn, &(base, cap)) in &self.rings {
            let ring_end = base + cap as u64 * WQE_SIZE;
            if end <= base || addr >= ring_end {
                continue;
            }
            let lo = (addr.max(base) - base) / WQE_SIZE;
            let hi = (end.min(ring_end) - 1 - base) / WQE_SIZE;
            for slot in lo..=hi {
                if self.slots.get(&(qpn, slot)) == Some(&SlotOwner::Hardware) {
                    self.violations.push(Violation::ScatterAfterGrant {
                        ring_qpn: qpn,
                        slot,
                        addr,
                        src_nic,
                        src_qpn,
                        at,
                    });
                }
            }
        }
        // (c) Does the write overlap an earlier same-epoch write from a
        // different QP with different bytes?
        for w in &self.epoch_writes {
            if (w.src_nic, w.src_qpn) == (src_nic, src_qpn) {
                continue; // same source: serialized by its send queue
            }
            let lo = addr.max(w.start);
            let hi = end.min(w.end);
            if lo >= hi {
                continue;
            }
            let ours = &data[(lo - addr) as usize..(hi - addr) as usize];
            let theirs = &w.data[(lo - w.start) as usize..(hi - w.start) as usize];
            if ours == theirs {
                continue; // byte-identical rewrite: benign duplicate
            }
            self.violations.push(Violation::ConcurrentDmaOverlap {
                addr: lo,
                len: hi - lo,
                first_src: (w.src_nic, w.src_qpn),
                first_at: w.at,
                second_src: (src_nic, src_qpn),
                second_at: at,
            });
        }
        // The epoch log mirrors current memory content: overwrite the
        // bytes this write supersedes in earlier entries, so later
        // writes are compared against what memory actually holds (a
        // conflict is reported once, at the write that introduced it).
        for w in &mut self.epoch_writes {
            let lo = addr.max(w.start);
            let hi = end.min(w.end);
            if lo < hi {
                w.data[(lo - w.start) as usize..(hi - w.start) as usize]
                    .copy_from_slice(&data[(lo - addr) as usize..(hi - addr) as usize]);
            }
        }
        self.epoch_writes.push(DmaWrite {
            start: addr,
            end,
            src_nic,
            src_qpn,
            at,
            data: data.to_vec(),
        });
    }

    #[inline(never)]
    fn mr_deregistered(&mut self, rkey: u32, addr: u64, len: u64, at: SimTime) {
        self.dead_mrs.insert(rkey, (addr, len, at));
    }

    #[inline(never)]
    fn completion_delivered(&mut self) {
        self.epoch_writes.clear();
    }
}

impl OwnershipTracker {
    /// Switch the detector on. Rings created before this call are not
    /// tracked, so the NIC allows it only while it has no QP.
    pub fn enable(&mut self) {
        self.shadow.get_or_insert_with(Box::default);
    }

    /// Record a send ring created by `create_qp`.
    #[inline]
    pub fn track_ring(&mut self, qpn: u32, base: u64, capacity: u32) {
        if let Some(s) = self.shadow.as_deref_mut() {
            s.track_ring(qpn, base, capacity);
        }
    }

    /// A WQE was posted to slot `idx`; `deferred` means the ownership
    /// bit stayed with software (modified-driver path).
    #[inline]
    pub fn slot_posted(&mut self, qpn: u32, idx: u64, deferred: bool) {
        if let Some(s) = self.shadow.as_deref_mut() {
            s.slot_posted(qpn, idx, deferred);
        }
    }

    /// Ownership of slot `idx` was granted to the NIC through the
    /// driver protocol (`grant_ownership` or a WAIT activation).
    #[inline]
    pub fn slot_granted(&mut self, qpn: u32, idx: u64) {
        if let Some(s) = self.shadow.as_deref_mut() {
            s.slot_granted(qpn, idx);
        }
    }

    /// The send engine consumed slot `idx`. Flags violation (a) when
    /// the driver protocol never granted the slot to hardware.
    #[inline]
    pub fn slot_fetched(&mut self, qpn: u32, idx: u64, at: SimTime) {
        if let Some(s) = self.shadow.as_deref_mut() {
            s.slot_fetched(qpn, idx, at);
        }
    }

    /// Slot `idx` was consumed without executing (corrupted descriptor
    /// skip, error-state flush): clear its state without an ownership
    /// check — these paths already surface error CQEs.
    #[inline]
    pub fn slot_cleared(&mut self, qpn: u32, idx: u64) {
        if let Some(s) = self.shadow.as_deref_mut() {
            s.slot_cleared(qpn, idx);
        }
    }

    /// A remote access (any opcode) quoted `rkey` for `[addr, +len)`.
    /// Flags violation (d) against the dead-region list.
    #[inline]
    pub fn remote_access(
        &mut self,
        rkey: u32,
        addr: u64,
        len: u64,
        src_nic: u32,
        src_qpn: u32,
        at: SimTime,
    ) {
        if let Some(s) = self.shadow.as_deref_mut() {
            s.remote_access(rkey, addr, len, src_nic, src_qpn, at);
        }
    }

    /// A remote-sourced DMA write of `data` landed at `addr` (RDMA
    /// WRITE payload, SEND scatter entry, or READ/CAS response landing).
    /// Flags violations (b) and (c).
    #[inline]
    pub fn remote_write(
        &mut self,
        addr: u64,
        data: &[u8],
        src_nic: u32,
        src_qpn: u32,
        at: SimTime,
    ) {
        if let Some(s) = self.shadow.as_deref_mut() {
            s.remote_write(addr, data, src_nic, src_qpn, at);
        }
    }

    /// A region was deregistered: later accesses via its rkey are
    /// violation (d).
    #[inline]
    pub fn mr_deregistered(&mut self, rkey: u32, addr: u64, len: u64, at: SimTime) {
        if let Some(s) = self.shadow.as_deref_mut() {
            s.mr_deregistered(rkey, addr, len, at);
        }
    }

    /// A completion was delivered on this NIC: writes before it are
    /// ordered against writes after it, so the overlap epoch resets.
    #[inline]
    pub fn completion_delivered(&mut self) {
        if let Some(s) = self.shadow.as_deref_mut() {
            s.completion_delivered();
        }
    }

    /// All violations detected so far, in detection order.
    ///
    /// # Panics
    ///
    /// If the detector is off: an assertion of race-freedom must not
    /// pass without anything having been checked.
    pub fn violations(&self) -> &[Violation] {
        &self
            .shadow
            .as_ref()
            .expect("race detector is off: switch it on before the first QP is created")
            .violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimTime = SimTime::from_nanos(1_000);

    fn on() -> OwnershipTracker {
        let mut t = OwnershipTracker::default();
        t.enable();
        t
    }

    #[test]
    #[should_panic(expected = "race detector is off")]
    fn an_off_tracker_records_nothing_and_refuses_a_report() {
        let mut t = OwnershipTracker::default();
        t.track_ring(0, 0x1000, 8);
        t.slot_posted(0, 3, true);
        t.slot_fetched(0, 3, T);
        assert!(t.shadow.is_none());
        t.violations();
    }

    #[test]
    fn granted_fetch_is_clean() {
        let mut t = on();
        t.track_ring(0, 0x1000, 8);
        t.slot_posted(0, 0, true);
        t.slot_granted(0, 0);
        t.slot_fetched(0, 0, T);
        assert!(t.violations().is_empty());
    }

    #[test]
    fn ungranted_fetch_flags() {
        let mut t = on();
        t.track_ring(0, 0x1000, 8);
        t.slot_posted(0, 3, true);
        t.slot_fetched(0, 3, T);
        assert!(matches!(
            t.violations(),
            [Violation::SwOwnedFetch { qpn: 0, idx: 3, .. }]
        ));
    }

    #[test]
    fn ring_positions_wrap() {
        let mut t = on();
        t.track_ring(0, 0x1000, 8);
        t.slot_posted(0, 9, true); // slot 1 on the second lap
        t.slot_granted(0, 9);
        t.slot_fetched(0, 9, T);
        assert!(t.violations().is_empty());
    }

    #[test]
    fn scatter_into_sw_slot_is_legal_into_hw_slot_is_not() {
        let mut t = on();
        t.track_ring(2, 0x1000, 8);
        t.slot_posted(2, 0, true);
        t.remote_write(0x1008, &[7; 8], 1, 5, T); // software-owned: fine
        assert!(t.violations().is_empty());
        t.slot_granted(2, 0);
        t.remote_write(0x1008, &[9; 8], 1, 5, T);
        assert!(matches!(
            t.violations(),
            [Violation::ScatterAfterGrant {
                ring_qpn: 2,
                slot: 0,
                ..
            }]
        ));
    }

    #[test]
    fn overlapping_writes_from_different_qps_flag() {
        let mut t = on();
        t.remote_write(0x8000, &[1; 64], 1, 10, T);
        t.remote_write(0x8020, &[2; 64], 2, 11, SimTime::from_nanos(2_000));
        assert!(matches!(
            t.violations(),
            [Violation::ConcurrentDmaOverlap {
                addr: 0x8020,
                len: 32,
                first_src: (1, 10),
                second_src: (2, 11),
                ..
            }]
        ));
    }

    #[test]
    fn identical_bytes_and_same_source_are_exempt() {
        let mut t = on();
        t.remote_write(0x8000, &[1; 64], 1, 10, T);
        // Same source rewrites (go-back-N): serialized, not a race.
        t.remote_write(0x8000, &[2; 64], 1, 10, T);
        // Different source, byte-identical (re-issued record): benign.
        t.remote_write(0x8000, &[2; 64], 2, 11, T);
        assert!(t.violations().is_empty());
    }

    #[test]
    fn completion_splits_the_epoch() {
        let mut t = on();
        t.remote_write(0x8000, &[1; 64], 1, 10, T);
        t.completion_delivered();
        t.remote_write(0x8000, &[2; 64], 2, 11, T);
        assert!(t.violations().is_empty());
    }

    #[test]
    fn dead_rkey_access_flags() {
        let mut t = on();
        t.mr_deregistered(0x1001, 0x4000, 0x100, T);
        t.remote_access(0x1001, 0x4000, 64, 1, 5, SimTime::from_nanos(2_000));
        assert!(matches!(
            t.violations(),
            [Violation::UseAfterDeregister { rkey: 0x1001, .. }]
        ));
        t.remote_access(0x9999, 0x4000, 64, 1, 5, T); // live key: fine
        assert_eq!(t.violations().len(), 1);
    }
}
