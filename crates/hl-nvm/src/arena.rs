//! The NVM arena: a host's byte-addressable non-volatile memory.
//!
//! The model keeps two images of memory:
//!
//! * `current` — what any reader (CPU load, NIC DMA) observes *now*;
//! * `durable` — what survives a power failure.
//!
//! Writes arriving through a volatile cache (the RDMA NIC's internal
//! cache, or the CPU's store buffers/caches) update `current` and mark
//! the written range *dirty*. A flush — HyperLoop's gFLUSH (0-byte RDMA
//! READ handled by the NIC firmware) or a CPU `CLWB`+fence — copies the
//! dirty bytes into `durable`. [`NvmArena::crash`] reverts `current` to
//! `durable`, losing exactly the unflushed bytes, which is what the
//! durability tests and the recovery protocol exercise.

use crate::range_set::RangeSet;

/// Error type for arena accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Access beyond the end of the arena.
    OutOfBounds {
        /// Requested address.
        addr: u64,
        /// Requested length.
        len: usize,
        /// Arena size.
        size: usize,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len, size } => {
                write!(f, "access [{addr}, +{len}) out of bounds (size {size})")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Byte-addressable non-volatile memory with crash semantics.
///
/// ```
/// use hl_nvm::NvmArena;
/// let mut nvm = NvmArena::new(1024);
/// nvm.write(0, b"committed").unwrap();
/// nvm.flush(0, 9).unwrap();        // gFLUSH / CLWB
/// nvm.write(100, b"in-nic-cache").unwrap();
/// nvm.crash();                     // power failure
/// assert_eq!(nvm.read(0, 9).unwrap(), b"committed");
/// assert_eq!(nvm.read(100, 4).unwrap(), &[0; 4]); // lost
/// ```
#[derive(Debug, Clone)]
pub struct NvmArena {
    current: Vec<u8>,
    durable: Vec<u8>,
    dirty: RangeSet,
    /// Counters for reporting.
    flushes: u64,
    crashes: u64,
}

impl NvmArena {
    /// Allocate an arena of `size` zeroed bytes (zero is durable).
    pub fn new(size: usize) -> Self {
        NvmArena {
            current: vec![0; size],
            durable: vec![0; size],
            dirty: RangeSet::new(),
            flushes: 0,
            crashes: 0,
        }
    }

    /// Arena size in bytes.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// True if zero-sized (never in practice).
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    fn check(&self, addr: u64, len: usize) -> Result<(), MemError> {
        let end = addr.checked_add(len as u64);
        match end {
            Some(e) if e as usize <= self.current.len() => Ok(()),
            _ => Err(MemError::OutOfBounds {
                addr,
                len,
                size: self.current.len(),
            }),
        }
    }

    /// Read bytes as currently visible.
    pub fn read(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
        self.check(addr, len)?;
        Ok(&self.current[addr as usize..addr as usize + len])
    }

    /// Copy bytes out (convenience over [`NvmArena::read`]).
    pub fn read_vec(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        self.read(addr, len).map(|s| s.to_vec())
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemError> {
        let b = self.read(addr, 8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemError> {
        let b = self.read(addr, 4)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Write through a volatile cache: visible immediately, durable only
    /// after a flush covering the range.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.check(addr, data.len())?;
        self.current[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        self.dirty.insert(addr, addr + data.len() as u64);
        Ok(())
    }

    /// Copy `len` bytes from `src` to `dst` inside the arena (a DMA
    /// engine's local copy; the ranges may overlap). Volatile at `dst`,
    /// like [`NvmArena::write`].
    pub fn copy_within(&mut self, src: u64, dst: u64, len: usize) -> Result<(), MemError> {
        self.check(src, len)?;
        self.check(dst, len)?;
        self.current
            .copy_within(src as usize..src as usize + len, dst as usize);
        self.dirty.insert(dst, dst + len as u64);
        Ok(())
    }

    /// Write a little-endian `u64` (volatile, like [`NvmArena::write`]).
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Write a little-endian `u32` (volatile, like [`NvmArena::write`]).
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Atomically compare-and-swap the u64 at `addr` (NIC atomic or CPU
    /// `lock cmpxchg`). Returns the original value. The write (if it
    /// happens) goes through the volatile cache like any other.
    pub fn compare_and_swap_u64(
        &mut self,
        addr: u64,
        compare: u64,
        swap: u64,
    ) -> Result<u64, MemError> {
        let orig = self.read_u64(addr)?;
        if orig == compare {
            self.write_u64(addr, swap)?;
        }
        Ok(orig)
    }

    /// Atomic fetch-and-add on the u64 at `addr`.
    pub fn fetch_add_u64(&mut self, addr: u64, delta: u64) -> Result<u64, MemError> {
        let orig = self.read_u64(addr)?;
        self.write_u64(addr, orig.wrapping_add(delta))?;
        Ok(orig)
    }

    /// Flush `[addr, addr+len)` to the durable medium. Models gFLUSH /
    /// `CLWB`+`SFENCE`. Returns the number of bytes actually flushed
    /// (i.e. that were dirty in the range).
    pub fn flush(&mut self, addr: u64, len: usize) -> Result<u64, MemError> {
        self.check(addr, len)?;
        let mut flushed = 0;
        let (current, durable) = (&self.current, &mut self.durable);
        self.dirty.remove_each(addr, addr + len as u64, |s, e| {
            durable[s as usize..e as usize].copy_from_slice(&current[s as usize..e as usize]);
            flushed += e - s;
        });
        self.flushes += 1;
        Ok(flushed)
    }

    /// Flush everything (used by orderly shutdown in tests).
    pub fn flush_all(&mut self) {
        let ranges: Vec<_> = self.dirty.iter().collect();
        for (s, e) in ranges {
            self.durable[s as usize..e as usize]
                .copy_from_slice(&self.current[s as usize..e as usize]);
        }
        self.dirty.clear();
        self.flushes += 1;
    }

    /// Is `[addr, addr+len)` fully durable (no dirty bytes)?
    pub fn is_durable(&self, addr: u64, len: usize) -> bool {
        !self.dirty.intersects(addr, addr + len as u64)
    }

    /// Bytes currently dirty (sitting in a volatile cache).
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty.covered_bytes()
    }

    /// Simulate a power failure: every unflushed write is lost.
    pub fn crash(&mut self) {
        self.current.copy_from_slice(&self.durable);
        self.dirty.clear();
        self.crashes += 1;
    }

    /// Read from the durable image (what a post-crash reader would see).
    pub fn read_durable(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
        self.check(addr, len)?;
        Ok(&self.durable[addr as usize..addr as usize + len])
    }

    /// Number of flush operations performed.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Number of simulated crashes.
    pub fn crash_count(&self) -> u64 {
        self.crashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_is_visible_but_not_durable() {
        let mut m = NvmArena::new(1024);
        m.write(100, b"hello").unwrap();
        assert_eq!(m.read(100, 5).unwrap(), b"hello");
        assert!(!m.is_durable(100, 5));
        assert_eq!(m.read_durable(100, 5).unwrap(), &[0; 5]);
    }

    #[test]
    fn flush_makes_durable() {
        let mut m = NvmArena::new(1024);
        m.write(100, b"hello").unwrap();
        let flushed = m.flush(100, 5).unwrap();
        assert_eq!(flushed, 5);
        assert!(m.is_durable(100, 5));
        assert_eq!(m.read_durable(100, 5).unwrap(), b"hello");
        // Flushing clean bytes flushes nothing.
        assert_eq!(m.flush(100, 5).unwrap(), 0);
    }

    #[test]
    fn crash_loses_unflushed() {
        let mut m = NvmArena::new(1024);
        m.write(0, b"durable!").unwrap();
        m.flush(0, 8).unwrap();
        m.write(8, b"volatile").unwrap();
        m.crash();
        assert_eq!(m.read(0, 8).unwrap(), b"durable!");
        assert_eq!(m.read(8, 8).unwrap(), &[0; 8]);
        assert_eq!(m.dirty_bytes(), 0);
        assert_eq!(m.crash_count(), 1);
    }

    #[test]
    fn partial_flush() {
        let mut m = NvmArena::new(64);
        m.write(0, &[1; 32]).unwrap();
        m.flush(0, 16).unwrap();
        m.crash();
        assert_eq!(m.read(0, 16).unwrap(), &[1; 16]);
        assert_eq!(m.read(16, 16).unwrap(), &[0; 16]);
    }

    /// Flushing one record out of the middle of a dirty span splits the
    /// span: the record becomes durable, its neighbours stay volatile.
    #[test]
    fn flush_of_a_split_range() {
        let mut m = NvmArena::new(64);
        m.write(0, &[7; 48]).unwrap();
        assert_eq!(m.flush(16, 16).unwrap(), 16);
        assert!(m.is_durable(16, 16));
        assert!(!m.is_durable(0, 16) && !m.is_durable(32, 16));
        assert_eq!(m.dirty_bytes(), 32);
        // A flush spanning the hole reports only the bytes still dirty.
        assert_eq!(m.flush(8, 32).unwrap(), 16);
        m.crash();
        assert_eq!(m.read(0, 8).unwrap(), &[0; 8]);
        assert_eq!(m.read(8, 32).unwrap(), &[7; 32]);
        assert_eq!(m.read(40, 8).unwrap(), &[0; 8]);
    }

    #[test]
    fn bounds_checked() {
        let mut m = NvmArena::new(16);
        assert!(m.read(8, 9).is_err());
        assert!(m.write(16, b"x").is_err());
        assert!(m.read(u64::MAX, 1).is_err());
        assert!(m.flush(0, 17).is_err());
        // In-bounds edge.
        assert!(m.read(15, 1).is_ok());
        assert!(m.read(16, 0).is_ok());
    }

    #[test]
    fn u64_roundtrip_and_cas() {
        let mut m = NvmArena::new(64);
        m.write_u64(8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(8).unwrap(), 0xdead_beef_cafe_f00d);

        // Successful CAS.
        let orig = m
            .compare_and_swap_u64(8, 0xdead_beef_cafe_f00d, 42)
            .unwrap();
        assert_eq!(orig, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(8).unwrap(), 42);

        // Failed CAS leaves value intact and reports the original.
        let orig = m.compare_and_swap_u64(8, 7, 99).unwrap();
        assert_eq!(orig, 42);
        assert_eq!(m.read_u64(8).unwrap(), 42);
    }

    #[test]
    fn copy_within_is_a_volatile_write() {
        let mut m = NvmArena::new(64);
        m.write(0, b"abcdefgh").unwrap();
        m.flush(0, 8).unwrap();
        m.copy_within(0, 4, 8).unwrap(); // overlapping: source read first
        assert_eq!(m.read(0, 12).unwrap(), b"abcdabcdefgh");
        assert!(m.is_durable(0, 4) && !m.is_durable(4, 8));
        assert!(m.copy_within(60, 0, 8).is_err());
        assert!(m.copy_within(0, 60, 8).is_err());
    }

    #[test]
    fn fetch_add() {
        let mut m = NvmArena::new(16);
        assert_eq!(m.fetch_add_u64(0, 5).unwrap(), 0);
        assert_eq!(m.fetch_add_u64(0, 3).unwrap(), 5);
        assert_eq!(m.read_u64(0).unwrap(), 8);
    }

    #[test]
    fn flush_all_and_counters() {
        let mut m = NvmArena::new(128);
        m.write(0, &[9; 64]).unwrap();
        m.write(100, &[7; 8]).unwrap();
        m.flush_all();
        assert_eq!(m.dirty_bytes(), 0);
        m.crash();
        assert_eq!(m.read(0, 64).unwrap(), &[9; 64]);
        assert_eq!(m.read(100, 8).unwrap(), &[7; 8]);
        assert!(m.flush_count() >= 1);
    }

    #[test]
    fn overlapping_writes_coalesce_dirty() {
        let mut m = NvmArena::new(64);
        m.write(0, &[1; 16]).unwrap();
        m.write(8, &[2; 16]).unwrap();
        assert_eq!(m.dirty_bytes(), 24);
        m.flush(0, 64).unwrap();
        assert_eq!(m.dirty_bytes(), 0);
    }
}
