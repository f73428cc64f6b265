//! Sorted, coalescing set of byte ranges.
//!
//! Used to track which byte ranges of an NVM arena are *dirty* — written
//! through a volatile cache (NIC or CPU) but not yet flushed to the
//! durable medium. Ranges are half-open `[start, end)`.

/// A set of non-overlapping, non-adjacent, sorted half-open ranges.
#[derive(Debug, Clone, Default)]
pub struct RangeSet {
    ranges: Vec<(u64, u64)>,
    /// Index of the range the last [`insert_each`](Self::insert_each)
    /// landed in. A hint, never trusted: it re-checks whatever range sits at
    /// this index now, so a stale or out-of-range value costs one failed
    /// comparison and nothing else. Not part of the set's value.
    last: usize,
}

/// Two sets are equal when they cover the same bytes; where the last
/// insert landed is not part of that.
impl PartialEq for RangeSet {
    fn eq(&self, other: &Self) -> bool {
        self.ranges == other.ranges
    }
}

impl Eq for RangeSet {}

impl RangeSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no bytes are covered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of disjoint ranges (after coalescing).
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Total number of bytes covered.
    pub fn covered_bytes(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Insert `[start, end)`. Zero-length inserts are ignored.
    pub fn insert(&mut self, start: u64, end: u64) {
        self.insert_each(start, end, |_, _| {});
    }

    /// Insert `[start, end)`, calling `added` with each maximal sub-range
    /// that was not covered before, in address order, before the set
    /// changes. Together they are exactly the bytes the insert newly
    /// covers. Zero-length inserts are ignored.
    #[inline]
    pub fn insert_each(&mut self, start: u64, end: u64, added: impl FnMut(u64, u64)) {
        // Rewrites of bytes that are already dirty are the common case
        // (rings, staging buffers, hot records), and consecutive ones
        // mostly fall in the same range: try the one the last insert
        // landed in before searching. Nothing to merge or report.
        if start >= end || self.covers_at(self.last, start, end) {
            return;
        }
        self.merge(start, end, added);
    }

    // Out of line, so the covered check above is all that inlines into
    // a caller.
    #[inline(never)]
    fn merge(&mut self, start: u64, end: u64, mut added: impl FnMut(u64, u64)) {
        // Find insertion window: all ranges overlapping or adjacent to
        // [start, end) get merged.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        self.last = lo;
        if self.covers_at(lo, start, end) {
            return;
        }
        let hi = lo + self.ranges[lo..].partition_point(|&(s, _)| s <= end);
        // The gaps between the merged ranges, clipped to the insert.
        let mut at = start;
        for &(s, e) in &self.ranges[lo..hi] {
            if at < s {
                added(at, s);
            }
            at = at.max(e);
        }
        if at < end {
            added(at, end);
        }
        let mut new_start = start;
        let mut new_end = end;
        if lo < hi {
            new_start = new_start.min(self.ranges[lo].0);
            new_end = new_end.max(self.ranges[hi - 1].1);
        }
        self.ranges.splice(lo..hi, [(new_start, new_end)]);
    }

    /// Does the range at index `i`, if there is one, cover `[start, end)`?
    fn covers_at(&self, i: usize, start: u64, end: u64) -> bool {
        self.ranges
            .get(i)
            .is_some_and(|&(s, e)| s <= start && end <= e)
    }

    /// Remove `[start, end)` from the set, splitting ranges as needed.
    pub fn remove(&mut self, start: u64, end: u64) {
        self.remove_each(start, end, |_, _| {});
    }

    /// Remove `[start, end)` from the set in place, calling `removed`
    /// with each maximal sub-range that was covered, in address order.
    /// Allocates only when the cut falls strictly inside one range (it
    /// splits in two) and the vector is full.
    pub fn remove_each(&mut self, start: u64, end: u64, mut removed: impl FnMut(u64, u64)) {
        if start >= end {
            return;
        }
        // Ranges [lo, hi) overlap the cut; at most the first keeps a
        // left remainder and the last a right remainder.
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        let hi = lo + self.ranges[lo..].partition_point(|&(s, _)| s < end);
        if lo == hi {
            return;
        }
        for &(s, e) in &self.ranges[lo..hi] {
            removed(s.max(start), e.min(end));
        }
        // What survives: the first range's part left of the cut and the
        // last range's part right of it, either of which may be empty.
        let keep = [(self.ranges[lo].0, start), (end, self.ranges[hi - 1].1)];
        let from = usize::from(keep[0].0 >= keep[0].1);
        let to = 1 + usize::from(keep[1].0 < keep[1].1);
        self.ranges.splice(lo..hi, keep[from..to].iter().copied());
    }

    /// Does the set intersect `[start, end)`?
    pub fn intersects(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return false;
        }
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        self.ranges.get(i).is_some_and(|&(s, _)| s < end)
    }

    /// Is `[start, end)` fully covered by the set?
    pub fn contains(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        self.covers_at(i, start, end)
    }

    /// Intersection of the set with `[start, end)`, as concrete ranges.
    pub fn intersection(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        if start >= end {
            return Vec::new();
        }
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        self.ranges[lo..]
            .iter()
            .take_while(|&&(s, _)| s < end)
            .map(|&(s, e)| (s.max(start), e.min(end)))
            .collect()
    }

    /// Iterate all ranges.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for w in self.ranges.windows(2) {
            assert!(w[0].1 < w[1].0, "ranges must be sorted & non-adjacent");
        }
        for &(s, e) in &self.ranges {
            assert!(s < e, "empty range stored");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_and_coalesce() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.insert(30, 40);
        assert_eq!(rs.len(), 2);
        rs.insert(20, 30); // adjacent on both sides -> coalesce all
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.iter().next(), Some((10, 40)));
        rs.check_invariants();
    }

    #[test]
    fn insert_overlapping() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.insert(15, 25);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(10, 25)]);
        rs.insert(5, 12);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(5, 25)]);
        rs.check_invariants();
    }

    #[test]
    fn remove_splits() {
        let mut rs = RangeSet::new();
        rs.insert(0, 100);
        rs.remove(40, 60);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(0, 40), (60, 100)]);
        assert_eq!(rs.covered_bytes(), 80);
        rs.check_invariants();
    }

    #[test]
    fn remove_edges_and_all() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.remove(0, 15);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(15, 20)]);
        rs.remove(0, 100);
        assert!(rs.is_empty());
    }

    #[test]
    fn queries() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.insert(30, 40);
        assert!(rs.intersects(15, 35));
        assert!(rs.intersects(19, 20));
        assert!(!rs.intersects(20, 30));
        assert!(rs.contains(12, 18));
        assert!(!rs.contains(12, 25));
        assert!(!rs.contains(25, 28));
        assert_eq!(rs.intersection(15, 35), vec![(15, 20), (30, 35)]);
    }

    #[test]
    fn zero_length_noop() {
        let mut rs = RangeSet::new();
        rs.insert(5, 5);
        assert!(rs.is_empty());
        assert!(!rs.intersects(5, 5));
        assert!(rs.contains(5, 5));
    }

    /// Brute-force model: a bitmap over a small domain.
    fn model_ops(ops: &[(bool, u8, u8)]) {
        const N: usize = 64;
        let mut rs = RangeSet::new();
        let mut bits = [false; N];
        for &(insert, a, b) in ops {
            let (s, e) = ((a as u64) % N as u64, (b as u64) % (N as u64 + 1));
            if insert {
                // Every reported gap was uncovered, they come in address
                // order without overlap, and together they are exactly
                // the bytes the insert newly covers.
                let mut reported = 0;
                let mut prev_end = s;
                rs.insert_each(s, e, |a, b| {
                    assert!(prev_end <= a && a < b && b <= e, "[{a}, {b}) out of place");
                    assert!(bits[a as usize..b as usize].iter().all(|&bit| !bit));
                    reported += b - a;
                    prev_end = b;
                });
                let uncovered = (s..e.min(N as u64)).filter(|&i| !bits[i as usize]).count();
                assert_eq!(reported, uncovered as u64);
                for i in s..e.min(N as u64) {
                    bits[i as usize] = true;
                }
            } else {
                // Every reported sub-range was covered, and together
                // they are everything that was covered inside the cut.
                let mut reported = 0;
                rs.remove_each(s, e, |a, b| {
                    assert!(s <= a && a < b && b <= e, "[{a}, {b}) outside the cut");
                    assert!(bits[a as usize..b as usize].iter().all(|&bit| bit));
                    reported += b - a;
                });
                let covered = (s..e.min(N as u64)).filter(|&i| bits[i as usize]).count();
                assert_eq!(reported, covered as u64);
                for i in s..e.min(N as u64) {
                    bits[i as usize] = false;
                }
            }
            rs.check_invariants();
        }
        for i in 0..N as u64 {
            assert_eq!(
                rs.intersects(i, i + 1),
                bits[i as usize],
                "mismatch at byte {i}"
            );
        }
        assert_eq!(
            rs.covered_bytes(),
            bits.iter().filter(|&&b| b).count() as u64
        );
    }

    /// The two paths the datapath leans on, as fixed inputs to the
    /// model: an insert inside a range that is already covered (every
    /// rewrite of a ring slot), and a removal strictly inside one range,
    /// which splits it (a flush of one record of a dirty log).
    #[test]
    fn model_covered_insert_and_split_removal() {
        model_ops(&[
            (true, 10, 40),
            (true, 15, 20),  // covered: interior
            (true, 10, 40),  // covered: exact
            (true, 10, 11),  // covered: left edge
            (true, 39, 40),  // covered: right edge
            (false, 20, 30), // split
            (true, 22, 28),  // refill inside the hole, touching neither side
            (false, 24, 26), // split the refill
            (true, 20, 30),  // heal: merges five pieces into one
            (false, 12, 38), // split, leaving one byte-pair on each side
            (false, 0, 64),
            // The last-insert memo is a hint that removals never fix up.
            (true, 0, 5),
            (true, 10, 20),
            (true, 30, 40),  // memo: index 2
            (false, 0, 5),   // [30, 40) is index 1 now, the memo past the end
            (true, 32, 38),  // covered, found by search; memo: index 1
            (true, 12, 18),  // covered by index 0: the memo names the wrong range
            (true, 19, 31),  // not covered by the memoised range: bridges both
            (false, 14, 16), // split under the memo
            (true, 20, 25),  // covered by the right half, memo on the left one
            (true, 14, 16),  // heal
            (true, 40, 44),  // adjacent on the left: one gap, the whole insert
            (true, 50, 52),
            (true, 46, 50), // adjacent on the right
            (true, 0, 64),  // fills every hole: one gap per hole and the tail
        ]);
    }

    /// Where the last insert landed is not part of a set's value.
    #[test]
    fn equality_ignores_the_insert_memo() {
        let mut a = RangeSet::new();
        a.insert(10, 20);
        a.insert(30, 40);
        let mut b = RangeSet::new();
        b.insert(30, 40);
        b.insert(10, 20);
        assert_ne!(a.last, b.last);
        assert_eq!(a, b);
        b.insert(20, 21);
        assert_ne!(a, b);
    }

    proptest! {
        #[test]
        fn matches_bitmap_model(ops in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), any::<u8>()), 0..50)) {
            model_ops(&ops);
        }
    }
}
