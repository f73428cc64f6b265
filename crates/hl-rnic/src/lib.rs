//! # hl-rnic — RDMA NIC simulator
//!
//! A verbs-level model of a commodity RDMA NIC (ConnectX-3-class) with
//! the two capabilities HyperLoop builds on:
//!
//! 1. **RDMA WAIT** (CORE-Direct): a send queue can block on completions
//!    of *another* queue and, when triggered, grant ownership of the
//!    following WQEs to the NIC — enabling NIC-to-NIC forwarding chains
//!    with no CPU involvement.
//! 2. **In-memory WQE rings**: send-queue descriptors are 64-byte
//!    records in host memory, so a peer that has write access to the
//!    ring (granted deliberately by the modified driver) can rewrite
//!    descriptor fields of pre-posted WQEs — *remote work request
//!    manipulation*.
//!
//! Plus the standard verbs: memory regions with rkey permission checks,
//! RC send/write/read/atomics, completion queues (fixed [`CQ_DEPTH`]
//! rings) with one-shot events, and the durability FLUSH (0-byte READ
//! draining the NIC's volatile cache into NVM) from paper §4.2.

#![warn(missing_docs)]

mod cq;
mod mr;
mod nic;
mod packet;
mod qp;
#[cfg(feature = "check-ownership")]
pub mod track;
mod wqe;

/// Does this build carry the WQE-ownership & DMA race detector (feature
/// `check-ownership`)? Its shadow state allocates per DMA, so allocation
/// budgets measured without it do not hold with it.
pub const RACE_DETECTOR: bool = cfg!(feature = "check-ownership");

pub use cq::{Cq, Cqe, CqeKind, CqeStatus, CQ_DEPTH};
pub use mr::{Access, MemoryRegion, MrError, MrTable};
pub use nic::{Nic, NicCounters, NicEvent, NicEventKind, NicOutput, RingFull};
pub use packet::{NakReason, Packet, PacketKind, HEADER_BYTES};
pub use qp::{PendingTx, Qp, QpState, QpTimeout, RecvWqe, ScatterEntry, SqRing};
pub use wqe::{field_offset, flags, Opcode, Wqe, WQE_SIZE};
