//! The NVM arena: a host's byte-addressable non-volatile memory.
//!
//! The model keeps one image of memory, `current`: what any reader (CPU
//! load, NIC DMA) observes *now*. Writes arriving through a volatile
//! cache (the RDMA NIC's internal cache, or the CPU's store
//! buffers/caches) update it and mark the written range *dirty*. A flush
//! — HyperLoop's gFLUSH (0-byte RDMA READ handled by the NIC firmware)
//! or a CPU `CLWB`+fence — makes the dirty bytes in its range clean.
//! [`NvmArena::crash`] reverts every dirty byte to its durable value,
//! losing exactly the unflushed writes, which is what the durability
//! tests and the recovery protocol exercise.
//!
//! What survives a power failure is not a second image. A clean byte's
//! durable value *is* its current value, so the durable image differs
//! from `current` only on dirty bytes, and it is enough to save a byte's
//! old value — its *pre-image* — when it turns from clean to dirty.
//! Pre-images live in 4 KiB pages. A page gets storage only when one of
//! its bytes turns dirty with a non-zero durable value, and gives it back
//! when a flush leaves it no dirty byte; a dirty byte whose page has no
//! storage is durably zero. Memory that is written and never flushed
//! (rings, staging buffers, fresh regions) therefore costs nothing twice,
//! and flushed data costs the pre-images of what is in flight.

use crate::range_set::RangeSet;

/// Bytes per pre-image page.
const PAGE: usize = 4096;

/// Saved durable values of one page's dirty bytes.
///
/// `bytes[lo..hi]` is the window this page has stored into since it got
/// storage. A dirty byte inside the window holds its durable value there;
/// a dirty byte outside it turned dirty before the page had storage, with
/// an elided zero pre-image, and is durably zero. Clean bytes are
/// meaningless.
#[derive(Debug, Clone)]
struct Page {
    lo: usize,
    hi: usize,
    bytes: [u8; PAGE],
}

impl Page {
    /// Store the pre-image `src` of the bytes at page offset `at`.
    fn store(&mut self, at: usize, src: &[u8]) {
        let end = at + src.len();
        // Bytes the window grows over that `src` does not fill may be
        // dirty with an elided zero pre-image.
        if end < self.lo {
            self.bytes[end..self.lo].fill(0);
        }
        if self.hi < at {
            self.bytes[self.hi..at].fill(0);
        }
        self.lo = self.lo.min(at);
        self.hi = self.hi.max(end);
        self.bytes[at..end].copy_from_slice(src);
    }

    /// Durable values of the dirty bytes at page offset `at`.
    fn durable(&self, at: usize, out: &mut [u8]) {
        let end = at + out.len();
        let lo = self.lo.clamp(at, end);
        let hi = self.hi.clamp(at, end);
        out[..lo - at].fill(0);
        out[lo - at..hi - at].copy_from_slice(&self.bytes[lo..hi]);
        out[hi - at..].fill(0);
    }
}

/// The pre-images of an arena's dirty bytes.
#[derive(Debug, Clone)]
struct PreImages {
    /// Pages in the arena.
    pages: usize,
    /// One bit per page, set once a flush has made any of its bytes
    /// clean. Durable values change only at a flush, so a page whose bit
    /// is clear is durably all zero: a write to it has zero pre-images
    /// without reading the bytes it overwrites, which may not even be
    /// resident yet.
    flushed: Vec<u64>,
    /// Per page, 1 + the index of its storage in `store`, or 0 while it
    /// has none. Empty until the first page needs storage, so an arena
    /// that never stores a pre-image never allocates it.
    slot: Vec<u32>,
    /// Page storage. Reserved for every page of the arena when the first
    /// one is needed, so it never reallocates; the reservation is
    /// virtual, and only storage in use (or once in use) is resident.
    store: Vec<Page>,
    /// Indices into `store` given back by flushes, reused before `store`
    /// grows. Reserved like `store`.
    free: Vec<u32>,
}

impl PreImages {
    fn new(size: usize) -> Self {
        PreImages {
            pages: size.div_ceil(PAGE),
            flushed: vec![0; size.div_ceil(PAGE).div_ceil(64)],
            slot: Vec::new(),
            store: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Pages with storage.
    fn stored(&self) -> usize {
        self.store.len() - self.free.len()
    }

    /// Index into `store` of page `p`'s storage, if it has any.
    fn storage(&self, p: usize) -> Option<usize> {
        match self.slot.get(p) {
            Some(&i) if i > 0 => Some(i as usize - 1),
            _ => None,
        }
    }

    /// Save `old`, the bytes at `start` as they are before they turn
    /// dirty: clean, so these are their durable values.
    fn save(&mut self, start: u64, old: &[u8]) {
        let (mut at, end) = (start as usize, start as usize + old.len());
        while at < end {
            let p = at / PAGE;
            let next = end.min((p + 1) * PAGE);
            let src = &old[at - start as usize..next - start as usize];
            match self.storage(p) {
                Some(i) => self.store[i].store(at % PAGE, src),
                None if self.flushed[p / 64] & 1 << (p % 64) != 0 && !is_zero(src) => {
                    self.create(p, at % PAGE).store(at % PAGE, src)
                }
                None => {}
            }
            at = next;
        }
    }

    /// Give page `p` storage: stale bytes, and an empty window at page
    /// offset `at`.
    fn create(&mut self, p: usize, at: usize) -> &mut Page {
        if self.slot.is_empty() {
            self.slot = vec![0; self.pages];
            self.store.reserve_exact(self.pages);
            self.free.reserve_exact(self.pages);
        }
        let i = self.free.pop().map_or_else(
            || {
                self.store.push(Page {
                    lo: 0,
                    hi: 0,
                    bytes: [0; PAGE],
                });
                self.store.len() - 1
            },
            |i| i as usize,
        );
        self.slot[p] = i as u32 + 1;
        let page = &mut self.store[i];
        (page.lo, page.hi) = (at, at);
        page
    }

    /// Durable values of the dirty bytes starting at `start`.
    fn durable(&self, start: u64, out: &mut [u8]) {
        let mut at = start as usize;
        let mut rest = out;
        while !rest.is_empty() {
            let n = rest.len().min(PAGE - at % PAGE);
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(n);
            match self.storage(at / PAGE) {
                Some(i) => self.store[i].durable(at % PAGE, chunk),
                None => chunk.fill(0),
            }
            at += n;
            rest = tail;
        }
    }

    /// Note that a flush made `[start, end)` clean.
    fn mark_flushed(&mut self, start: u64, end: u64) {
        for p in start as usize / PAGE..(end as usize).div_ceil(PAGE) {
            self.flushed[p / 64] |= 1 << (p % 64);
        }
    }

    /// Give back the storage of every page in `[start, end)` that `dirty`
    /// no longer touches.
    fn release_clean(&mut self, dirty: &RangeSet, start: u64, end: u64) {
        if self.stored() == 0 {
            return;
        }
        for p in start as usize / PAGE..(end as usize).div_ceil(PAGE) {
            let base = (p * PAGE) as u64;
            if self.storage(p).is_some() && !dirty.intersects(base, base + PAGE as u64) {
                self.release(p);
            }
        }
    }

    fn release(&mut self, p: usize) {
        if let Some(i) = self.storage(p) {
            self.slot[p] = 0;
            self.free.push(i as u32);
        }
    }
}

/// Mark `[addr, addr + len)` dirty ahead of a write over it. The bytes
/// that were clean save their pre-images from `current`, which the write
/// has not changed yet.
#[inline(always)]
fn mark_dirty(dirty: &mut RangeSet, pre: &mut PreImages, current: &[u8], addr: u64, len: usize) {
    dirty.insert_each(addr, addr + len as u64, |s, e| {
        pre.save(s, &current[s as usize..e as usize]);
    });
}

/// Are all of `b`'s bytes zero? One OR-reduction per 64-byte block, so a
/// run of zeros costs a few vector instructions per block.
fn is_zero(b: &[u8]) -> bool {
    b.chunks(64)
        .all(|c| c.iter().fold(0, |acc, &x| acc | x) == 0)
}

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
    dirty: RangeSet,
    pre: PreImages,
    /// Counters for reporting.
    flushes: u64,
    crashes: u64,
}

impl NvmArena {
    /// Allocate an arena of `size` zeroed bytes (zero is durable).
    pub fn new(size: usize) -> Self {
        NvmArena {
            current: vec![0; size],
            dirty: RangeSet::new(),
            pre: PreImages::new(size),
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
    ///
    /// Always inlined: a rewrite of bytes that are already dirty then
    /// costs its caller a bounds check, the dirty set's covered check and
    /// a copy, with no call.
    #[inline(always)]
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.check(addr, data.len())?;
        mark_dirty(
            &mut self.dirty,
            &mut self.pre,
            &self.current,
            addr,
            data.len(),
        );
        self.current[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Copy `len` bytes from `src` to `dst` inside the arena (a DMA
    /// engine's local copy; the ranges may overlap). Volatile at `dst`,
    /// like [`NvmArena::write`].
    pub fn copy_within(&mut self, src: u64, dst: u64, len: usize) -> Result<(), MemError> {
        self.check(src, len)?;
        self.check(dst, len)?;
        mark_dirty(&mut self.dirty, &mut self.pre, &self.current, dst, len);
        self.current
            .copy_within(src as usize..src as usize + len, dst as usize);
        Ok(())
    }

    /// Write a little-endian `u64` (volatile, like [`NvmArena::write`]).
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Write a little-endian `u32` (volatile, like [`NvmArena::write`]).
    #[inline]
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
    ///
    /// The flushed bytes turn clean, so their durable value becomes their
    /// current one; nothing is copied, and every page left with no dirty
    /// byte gives its pre-image storage back.
    pub fn flush(&mut self, addr: u64, len: usize) -> Result<u64, MemError> {
        self.check(addr, len)?;
        let mut flushed = 0;
        let mut span = (u64::MAX, 0);
        self.dirty.remove_each(addr, addr + len as u64, |s, e| {
            flushed += e - s;
            span = (span.0.min(s), e);
            self.pre.mark_flushed(s, e);
        });
        if flushed > 0 {
            self.pre.release_clean(&self.dirty, span.0, span.1);
        }
        self.flushes += 1;
        Ok(flushed)
    }

    /// Flush everything (used by orderly shutdown in tests).
    pub fn flush_all(&mut self) {
        // The whole arena is always in bounds.
        let _ = self.flush(0, self.current.len());
    }

    /// Is `[addr, addr+len)` fully durable (no dirty bytes)?
    pub fn is_durable(&self, addr: u64, len: usize) -> bool {
        !self.dirty.intersects(addr, addr + len as u64)
    }

    /// Bytes currently dirty (sitting in a volatile cache).
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty.covered_bytes()
    }

    /// Pages of 4 KiB holding saved pre-images: never more than the pages
    /// that hold a dirty byte, and none while every dirty byte turned
    /// dirty over a zero.
    pub fn stored_pre_image_pages(&self) -> usize {
        self.pre.stored()
    }

    /// Simulate a power failure: every unflushed write is lost. Costs the
    /// dirty bytes, not the arena size.
    pub fn crash(&mut self) {
        let NvmArena {
            current,
            dirty,
            pre,
            ..
        } = self;
        for (s, e) in dirty.iter() {
            pre.durable(s, &mut current[s as usize..e as usize]);
        }
        for (s, e) in dirty.iter() {
            for p in s as usize / PAGE..(e as usize).div_ceil(PAGE) {
                pre.release(p);
            }
        }
        dirty.clear();
        self.crashes += 1;
    }

    /// Read what survives a power failure (what a post-crash reader
    /// would see): `current`, with every dirty byte replaced by its
    /// durable value.
    pub fn read_durable(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let mut out = self.read_vec(addr, len)?;
        for (s, e) in self.dirty.intersection(addr, addr + len as u64) {
            self.pre
                .durable(s, &mut out[(s - addr) as usize..(e - addr) as usize]);
        }
        Ok(out)
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

    /// Storage exists exactly for the `stored` slots, and only in pages
    /// that hold a dirty byte.
    fn check_pages(m: &NvmArena) {
        let mut stored = 0;
        for p in 0..m.pre.pages {
            if m.pre.storage(p).is_some() {
                stored += 1;
                let base = (p * PAGE) as u64;
                assert!(m.dirty.intersects(base, base + PAGE as u64), "page {p}");
            }
        }
        assert_eq!(stored, m.stored_pre_image_pages());
    }

    #[test]
    fn crash_restores_across_a_page_edge() {
        let edge = PAGE as u64;
        let mut m = NvmArena::new(3 * PAGE);
        m.write(edge - 8, &[1; 16]).unwrap();
        m.flush(edge - 8, 16).unwrap();
        assert_eq!(m.stored_pre_image_pages(), 0, "zero pre-images are elided");
        m.write(edge - 4, &[2; 8]).unwrap();
        assert_eq!(m.stored_pre_image_pages(), 2);
        check_pages(&m);
        let mut want = [1u8; 16];
        assert_eq!(m.read_durable(edge - 8, 16).unwrap(), want);
        m.crash();
        assert_eq!(m.read(edge - 8, 16).unwrap(), want);
        assert_eq!(m.stored_pre_image_pages(), 0);
        check_pages(&m);
        // The same straddling write, this time flushed on one side only.
        m.write(edge - 4, &[3; 8]).unwrap();
        m.flush(edge, 4).unwrap();
        assert_eq!(m.stored_pre_image_pages(), 1);
        check_pages(&m);
        m.crash();
        want[8..12].fill(3);
        assert_eq!(m.read(edge - 8, 16).unwrap(), want);
    }

    /// A page whose storage is created after some of its bytes turned
    /// dirty with an elided (zero) pre-image: those bytes stay durably
    /// zero, also once the stored window grows over them from either side
    /// in reused storage full of stale bytes.
    #[test]
    fn storage_created_after_an_elided_zero_pre_image() {
        let mut m = NvmArena::new(2 * PAGE);
        // Leave a spare page holding 8s at offsets [0, 400).
        m.write(0, &[8; 400]).unwrap();
        m.flush(0, 400).unwrap();
        m.write(0, &[8; 400]).unwrap();
        m.flush(0, 400).unwrap();
        assert_eq!((m.stored_pre_image_pages(), m.pre.free.len()), (0, 1));

        let b = PAGE as u64;
        m.write(b + 200, &[7; 10]).unwrap();
        m.flush(b + 200, 10).unwrap();
        m.write(b + 100, &[5; 10]).unwrap(); // fresh: elided
        m.write(b + 300, &[4; 10]).unwrap(); // fresh: elided
        assert_eq!(m.stored_pre_image_pages(), 0);
        m.write(b + 200, &[9; 10]).unwrap(); // pre-image 7s: the page gets storage
        assert_eq!((m.stored_pre_image_pages(), m.pre.free.len()), (1, 0));
        m.write(b + 90, &[6; 30]).unwrap(); // the window grows left, over [100, 110)
        m.write(b + 320, &[3; 10]).unwrap(); // and right, over [300, 310)
        assert_eq!(m.dirty_bytes(), 60);
        check_pages(&m);
        let mut want = vec![0u8; 400];
        want[200..210].fill(7);
        assert_eq!(m.read_durable(b, 400).unwrap(), want);
        m.crash();
        assert_eq!(m.read(b, 400).unwrap(), &want[..]);
        check_pages(&m);
    }

    /// A flush that splits a dirty range inside one page keeps the
    /// page's storage for the two halves and frees it with the last one.
    #[test]
    fn flush_splitting_a_range_inside_one_page() {
        let mut m = NvmArena::new(PAGE);
        m.write(0, &[1; 3000]).unwrap();
        m.flush(0, 3000).unwrap();
        m.write(0, &[2; 3000]).unwrap();
        assert_eq!(m.flush(1000, 1000).unwrap(), 1000);
        assert_eq!(m.stored_pre_image_pages(), 1);
        check_pages(&m);
        let mut want = vec![1u8; 3000];
        want[1000..2000].fill(2);
        assert_eq!(m.read_durable(0, 3000).unwrap(), want);
        m.flush(0, 1000).unwrap();
        assert_eq!(m.stored_pre_image_pages(), 1);
        m.flush(2000, 1000).unwrap();
        assert_eq!(m.stored_pre_image_pages(), 0);
        assert_eq!(m.pre.free.len(), 1);
        // Freed storage is reused, stale bytes and all.
        m.write(2500, &[3; 10]).unwrap();
        m.write(10, &[0; 10]).unwrap();
        assert_eq!(m.pre.free.len(), 0);
        m.crash();
        assert_eq!(m.read(2500, 10).unwrap(), &[2; 10]);
        assert_eq!(m.read(10, 10).unwrap(), &[2; 10]);
        check_pages(&m);
    }
}
