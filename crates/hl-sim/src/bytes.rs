//! Shared, immutable, reference-counted byte buffer for the zero-copy
//! datapath.
//!
//! A gWRITE payload is gathered out of the source arena exactly once —
//! one allocation holding the reference count and the bytes together,
//! one copy straight from the arena slice; from then on every place
//! that used to `clone()` a `Vec<u8>` — the packet handed to the fabric,
//! the requester's unacked retransmit list, the responder's
//! duplicate-replay cache — clones a [`Bytes`], which bumps a refcount
//! instead of copying the payload. The single real copy left on the
//! receive side is the DMA into simulated NVM.
//!
//! Backed by `Rc`, not `Arc`: each simulation is single-threaded by
//! construction (the determinism contract), and the parallel campaign
//! runner gives every seed its own world on its own thread, so buffers
//! never cross threads.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// Cheaply clonable view of an immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` is the empty buffer: it owns no allocation at all.
    buf: Option<Rc<[u8]>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy `v`'s bytes into a fresh buffer and drop `v`: one allocation,
    /// one copy, exactly [`copy_from_slice`](Self::copy_from_slice). This
    /// is *not* a zero-copy hand-over — an `Rc<[u8]>` keeps its reference
    /// count in the same allocation as the bytes, so a `Vec`'s buffer
    /// cannot be adopted — it only saves the caller a borrow. The
    /// `From<Vec<u8>>` impl is this function.
    pub fn from_vec(v: Vec<u8>) -> Self {
        Self::copy_from_slice(&v)
    }

    /// Copy `s` into a fresh buffer: one allocation, one copy.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes {
            buf: (!s.is_empty()).then(|| Rc::from(s)),
            off: 0,
            len: s.len(),
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[self.off..self.off + self.len],
            None => &[],
        }
    }

    /// A sub-view of `self` sharing the same allocation. Panics when
    /// the range escapes the current view.
    pub fn slice(&self, start: usize, end: usize) -> Bytes {
        assert!(start <= end && end <= self.len, "slice out of range");
        Bytes {
            buf: self.buf.clone(),
            off: self.off + start,
            len: end - start,
        }
    }

    /// How many `Bytes` handles share this allocation (diagnostics and
    /// copy-count tests); 0 for the empty buffer, which has none.
    pub fn ref_count(&self) -> usize {
        self.buf.as_ref().map_or(0, Rc::strong_count)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies, like [`Bytes::from_vec`]: one allocation, one copy, and
    /// the `Vec` is dropped.
    fn from(v: Vec<u8>) -> Self {
        Self::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Self::copy_from_slice(s)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Self {
        Self::copy_from_slice(&a)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes[{}]", self.len)?;
        if self.len <= 8 {
            write!(f, "{:?}", self.as_slice())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::from_vec(vec![1, 2, 3, 4]);
        let b = a.clone();
        let c = b.clone();
        assert_eq!(a.ref_count(), 3);
        assert_eq!(c.as_slice(), &[1, 2, 3, 4]);
        drop(b);
        assert_eq!(a.ref_count(), 2);
    }

    #[test]
    fn slices_share_and_view() {
        let a = Bytes::from_vec((0..16).collect());
        let s = a.slice(4, 8);
        assert_eq!(s.as_slice(), &[4, 5, 6, 7]);
        assert_eq!(s.len(), 4);
        assert_eq!(a.ref_count(), 2);
        let ss = s.slice(1, 3);
        assert_eq!(ss.as_slice(), &[5, 6]);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_bounds_checked() {
        Bytes::from_vec(vec![0; 4]).slice(2, 6);
    }

    #[test]
    fn equality_is_by_content() {
        let a = Bytes::from_vec(vec![9, 9]);
        let b = Bytes::copy_from_slice(&[9, 9]);
        assert_eq!(a, b);
        assert_eq!(a, vec![9, 9]);
        assert_eq!(&a[..], &[9u8, 9][..]);
    }

    #[test]
    fn deref_gives_slice_ops() {
        let a: Bytes = vec![1u8, 2, 3].into();
        assert_eq!(a.iter().sum::<u8>(), 6);
        assert_eq!(&a[1..], &[2, 3]);
    }
}
