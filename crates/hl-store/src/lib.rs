//! # hl-store — replicated storage applications on HyperLoop
//!
//! The paper's two case studies, rebuilt as clean-room engines with the
//! same transaction structure:
//!
//! * [`kv`] — **kvlite**, RocksDB-like: in-memory table + replicated
//!   durable write-ahead log; the write critical path is exactly one
//!   `Append`, a single flushed gWRITE of a frame that ends with its own
//!   end cursor; replicas replay the frames landed in their own log copy
//!   off the critical path for eventually-consistent reads.
//! * [`doc`] — **doclite**, MongoDB-like: fixed-slot documents, journal
//!   `Append` + `ExecuteAndAdvance` under a group write lock for strong
//!   consistency, the head persisted by an 8-byte gMEMCPY of the applied
//!   record's end cursor; plus [`doc::native`], the conventional
//!   CPU-driven primary/secondary replication used as the Figures 2 & 12
//!   baseline.
//!
//! Both engines are generic over [`hyperloop::api::GroupClient`], so the
//! same code runs on HyperLoop and on the Naïve-RDMA baseline.

#![warn(missing_docs)]

pub mod doc;
pub mod kv;
