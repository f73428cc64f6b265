//! Calibrated hardware timing profile.
//!
//! One place for every latency/bandwidth constant in the simulated
//! testbed, so experiments state their assumptions explicitly and
//! ablations can perturb a single knob. Defaults approximate the paper's
//! testbed: 2×8-core Xeon E5-2650v2 hosts with Mellanox ConnectX-3
//! 56 Gbps NICs and battery-backed DRAM.

use crate::time::SimDuration;

/// Full hardware profile for one simulated cluster.
#[derive(Debug, Clone, Default)]
pub struct HwProfile {
    /// Network link parameters.
    pub net: NetProfile,
    /// NIC datapath parameters.
    pub nic: NicProfile,
    /// CPU/scheduler parameters.
    pub cpu: CpuProfile,
}

/// Link-level parameters.
#[derive(Debug, Clone)]
pub struct NetProfile {
    /// Link bandwidth in bits per second (default 56 Gbps FDR).
    pub bandwidth_bps: u64,
    /// One-way propagation + switching delay per hop.
    pub propagation: SimDuration,
}

/// NIC datapath parameters.
#[derive(Debug, Clone)]
pub struct NicProfile {
    /// Fixed cost for the NIC to fetch & parse one WQE.
    pub wqe_process: SimDuration,
    /// Fixed cost to handle one inbound packet (DMA setup etc.).
    pub rx_process: SimDuration,
    /// PCIe DMA bandwidth for local memory copies (bytes/sec).
    pub dma_bw_bytes: u64,
    /// Sigma of the multiplicative log-normal jitter on NIC operations:
    /// each WQE, DMA, cache flush and received packet takes its nominal
    /// time × `lognormal(median 1, jitter_sigma)`, sampled through
    /// [`crate::JitterTable`]. `0.0` turns *all* NIC randomness off —
    /// no factor is drawn and no contention trial either, whatever
    /// `contention_prob` says — so a zero-sigma profile is exactly
    /// repeatable (the hl-rnic verb tests rely on it).
    pub jitter_sigma: f64,
    /// Doorbell (MMIO write) latency from CPU to NIC.
    pub doorbell: SimDuration,
    /// Cost of flushing the NIC volatile cache for one region
    /// (the 0-byte READ handling on the responder).
    pub cache_flush: SimDuration,
    /// Probability that a NIC operation hits memory-bus / PCIe
    /// contention (co-located tenants hammer the same memory
    /// controller the NIC DMAs through). Tried once per jittered
    /// operation, so it has no effect while `jitter_sigma == 0.0`.
    pub contention_prob: f64,
    /// Mean of the exponential extra delay on a contention hit.
    pub contention_mean: SimDuration,
}

/// CPU and scheduler parameters.
#[derive(Debug, Clone)]
pub struct CpuProfile {
    /// Cores per host.
    pub cores: usize,
    /// Direct context-switch cost (register/TLB/cache disturbance folded in).
    pub ctx_switch: SimDuration,
    /// Scheduler time slice (CFS-like quantum).
    pub time_slice: SimDuration,
    /// Interrupt delivery latency (completion event → wakeup enqueued).
    pub interrupt: SimDuration,
    /// How long a newly woken task may have to wait even on an idle core
    /// (IPI + wakeup path).
    pub wakeup: SimDuration,
    /// Sleeper-fairness credit: a woken task's vruntime is floored at
    /// `min_vruntime - sleeper_bonus`.
    pub sleeper_bonus: SimDuration,
    /// A woken task preempts a running one only when it leads its
    /// vruntime by more than this.
    pub wakeup_granularity: SimDuration,
    /// Per-CPU-runqueue imbalance model: under overload a wakeup
    /// sometimes lands on a busy queue behind already-queued tasks
    /// instead of at the head. Maximum penalty, in slices.
    pub wake_penalty_slices: f64,
}

impl Default for NetProfile {
    fn default() -> Self {
        NetProfile {
            bandwidth_bps: 56_000_000_000,
            propagation: SimDuration::from_nanos(700),
        }
    }
}

impl Default for NicProfile {
    fn default() -> Self {
        NicProfile {
            wqe_process: SimDuration::from_nanos(450),
            rx_process: SimDuration::from_nanos(550),
            dma_bw_bytes: 12_000_000_000, // ~ PCIe gen3 x16 practical
            jitter_sigma: 0.08,
            doorbell: SimDuration::from_nanos(300),
            cache_flush: SimDuration::from_nanos(700),
            contention_prob: 0.005,
            contention_mean: SimDuration::from_micros(2),
        }
    }
}

impl Default for CpuProfile {
    fn default() -> Self {
        CpuProfile {
            cores: 16,
            ctx_switch: SimDuration::from_micros(3),
            time_slice: SimDuration::from_millis(1),
            interrupt: SimDuration::from_micros(4),
            wakeup: SimDuration::from_micros(2),
            sleeper_bonus: SimDuration::from_micros(100),
            // Multi-tenant server tuning: CPU-bound tenants are not
            // preempted by every wakeup (cf. large sched_wakeup_granularity
            // / NO_WAKEUP_PREEMPTION in production fleets).
            wakeup_granularity: SimDuration::from_millis(2),
            wake_penalty_slices: 5.0,
        }
    }
}

impl NetProfile {
    /// Serialization (wire transfer) time for `bytes`.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(mul_div(bytes as u64, 8_000_000_000, self.bandwidth_bps))
    }

    /// One-way latency for a message of `bytes`: serialization + propagation.
    pub fn one_way(&self, bytes: usize) -> SimDuration {
        self.transfer_time(bytes) + self.propagation
    }
}

impl NicProfile {
    /// DMA time for a local copy of `bytes`.
    pub fn dma_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(mul_div(bytes as u64, 1_000_000_000, self.dma_bw_bytes))
    }
}

/// `a * b / d` without intermediate overflow. Every packet and DMA
/// pays this, so the product stays in `u64` whenever it fits (always,
/// below 2 GiB per message) and only otherwise takes the `u128`
/// division, which is a library call; both give the same quotient.
#[inline]
fn mul_div(a: u64, b: u64, d: u64) -> u64 {
    match a.checked_mul(b) {
        Some(prod) => prod / d,
        None => (a as u128 * b as u128 / d as u128) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_matches_bandwidth() {
        let net = NetProfile::default();
        // 56 Gbps = 7 GB/s → 7 bytes/ns → 7000 bytes in 1000 ns.
        assert_eq!(net.transfer_time(7000).as_nanos(), 1000);
        assert_eq!(net.transfer_time(0).as_nanos(), 0);
    }

    /// The `u64` fast path and the `u128` formula agree on sizes and
    /// bandwidths either side of `bytes · 8 · 10⁹ = 2⁶⁴` (2.3 GB).
    #[test]
    fn transfer_time_fast_path_matches_wide_formula() {
        let threshold = (u64::MAX / 8_000_000_000) as usize;
        let mut sizes = vec![0, 1, 64, 1024, 4096, 7000, 1 << 20, 1 << 30];
        sizes.extend([threshold - 1, threshold, threshold + 1, threshold + 2]);
        sizes.extend([2 * threshold, 1 << 40, usize::MAX >> 4]);
        let (mut narrow, mut wide_path) = (false, false);
        for &bytes in &sizes {
            for bw in [
                1u64,
                7,
                1_000_000_000,
                10_000_000_000,
                56_000_000_000,
                400_000_000_000,
            ] {
                let net = NetProfile {
                    bandwidth_bps: bw,
                    ..Default::default()
                };
                let wide = bytes as u128 * 8 * 1_000_000_000 / bw as u128;
                assert_eq!(
                    net.transfer_time(bytes).as_nanos(),
                    wide as u64,
                    "{bytes} B at {bw} bps"
                );
                let overflows = (bytes as u64).checked_mul(8_000_000_000).is_none();
                wide_path |= overflows;
                narrow |= !overflows;
            }
        }
        assert!(narrow && wide_path, "grid covers both paths");
    }

    #[test]
    fn one_way_includes_propagation() {
        let net = NetProfile::default();
        assert_eq!(
            net.one_way(7000).as_nanos(),
            1000 + net.propagation.as_nanos()
        );
    }

    #[test]
    fn dma_time_scales() {
        let nic = NicProfile::default();
        assert_eq!(nic.dma_time(12_000).as_nanos(), 1_000);
    }

    #[test]
    fn default_profile_is_consistent() {
        let hw = HwProfile::default();
        assert_eq!(hw.cpu.cores, 16);
        assert!(hw.nic.wqe_process < hw.cpu.ctx_switch);
        assert!(hw.cpu.interrupt < hw.cpu.time_slice);
    }
}
