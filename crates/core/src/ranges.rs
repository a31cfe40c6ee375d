//! Row-key scan ranges and the range-merging machinery of paper §VI.5:
//! multiple pushed-down range predicates are converted to byte ranges and
//! merged — unions of overlapping ranges collapse, intersections tighten
//! bounds — using binary search for insertion, "saving the predicate
//! merging cost when there is a large number of predicates".

use shc_kvstore::filter::RowRange;

/// Compute the tightest byte string strictly greater than every string
/// with the given prefix: increment the rightmost non-0xFF byte and
/// truncate. Returns `None` when no such string exists (all 0xFF), which
/// callers treat as "unbounded".
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

/// An ordered, non-overlapping set of `[start, stop)` row-key ranges.
/// Empty `stop` means unbounded; an empty set matches nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RangeSet {
    ranges: Vec<RowRange>,
}

impl RangeSet {
    /// The empty set (no rows).
    pub fn none() -> Self {
        RangeSet { ranges: Vec::new() }
    }

    /// The full key space.
    pub fn all() -> Self {
        RangeSet {
            ranges: vec![RowRange::all()],
        }
    }

    pub fn from_range(range: RowRange) -> Self {
        RangeSet::from_ranges([range])
    }

    /// The union of any number of ranges in one pass: collect, sort once,
    /// merge once — `O(k log k)`, where folding [`insert`](Self::insert) or
    /// [`union`](Self::union) over the list re-sorts it per element.
    pub fn from_ranges(ranges: impl IntoIterator<Item = RowRange>) -> Self {
        let mut set = RangeSet {
            ranges: ranges.into_iter().collect(),
        };
        set.normalize();
        set
    }

    pub fn ranges(&self) -> &[RowRange] {
        &self.ranges
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.ranges.len() == 1
            && self.ranges[0].start.is_empty()
            && self.ranges[0].is_unbounded_stop()
    }

    /// Binary search: the ranges are sorted and disjoint, so only the last
    /// one starting at or before `key` can hold it.
    pub fn contains(&self, key: &[u8]) -> bool {
        let after = self.ranges.partition_point(|r| r.start.as_ref() <= key);
        after > 0 && self.ranges[after - 1].contains(key)
    }

    /// Insert one range, merging with overlapping or adjacent neighbours.
    /// The insertion point is located by binary search on the start key
    /// (paper §VI.5).
    pub fn insert(&mut self, range: RowRange) {
        if range.is_empty() {
            return;
        }
        let pos = self
            .ranges
            .binary_search_by(|r| r.start.cmp(&range.start))
            .unwrap_or_else(|p| p);
        self.ranges.insert(pos, range);
        self.normalize();
    }

    fn normalize(&mut self) {
        self.ranges.retain(|r| !r.is_empty());
        self.ranges.sort_by(|a, b| a.start.cmp(&b.start));
        let mut merged: Vec<RowRange> = Vec::with_capacity(self.ranges.len());
        for range in self.ranges.drain(..) {
            match merged.last_mut() {
                Some(last) if ranges_touch(last, &range) => {
                    // Extend the previous range's stop.
                    if last.is_unbounded_stop() {
                        // Already covers everything to the right.
                    } else if range.is_unbounded_stop() || range.stop > last.stop {
                        last.stop = range.stop;
                    }
                }
                _ => merged.push(range),
            }
        }
        self.ranges = merged;
    }

    /// Union with another set.
    pub fn union(&self, other: &RangeSet) -> RangeSet {
        RangeSet::from_ranges(self.ranges.iter().chain(&other.ranges).cloned())
    }

    /// At most `max` ranges covering this set: the smallest gaps between
    /// neighbours are closed first, so a sparse key set costs a bounded
    /// number of scanner opens and as few rows outside it as that allows.
    /// Gap width is the distance between the leading 16 key bytes, read as
    /// a big-endian number.
    pub fn coalesced(&self, max: usize) -> RangeSet {
        let max = max.max(1);
        if self.ranges.len() <= max {
            return self.clone();
        }
        let gap = |i: usize| {
            key_position(&self.ranges[i + 1].start)
                .saturating_sub(key_position(&self.ranges[i].stop))
        };
        // Gap `i` lies after range `i`; the `max - 1` widest stay open.
        let mut widest: Vec<usize> = (0..self.ranges.len() - 1).collect();
        widest.sort_by_key(|&i| std::cmp::Reverse(gap(i)));
        widest.truncate(max - 1);
        let mut out: Vec<RowRange> = Vec::with_capacity(max);
        for (i, range) in self.ranges.iter().enumerate() {
            match out.last_mut() {
                Some(last) if i > 0 && !widest.contains(&(i - 1)) => {
                    last.stop = range.stop.clone();
                }
                _ => out.push(range.clone()),
            }
        }
        RangeSet { ranges: out }
    }

    /// Intersection with another set (paper's `[a,b] ∩ [c,d] → [c,b]`
    /// merging, generalized to lists).
    pub fn intersect(&self, other: &RangeSet) -> RangeSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let a = &self.ranges[i];
            let b = &other.ranges[j];
            let start = std::cmp::max(&a.start, &b.start).clone();
            // stop = min of stops, with empty meaning +inf.
            let stop = match (a.is_unbounded_stop(), b.is_unbounded_stop()) {
                (true, true) => bytes::Bytes::new(),
                (true, false) => b.stop.clone(),
                (false, true) => a.stop.clone(),
                (false, false) => std::cmp::min(&a.stop, &b.stop).clone(),
            };
            let candidate = RowRange { start, stop };
            if !candidate.is_empty() {
                out.push(candidate);
            }
            // Advance whichever range ends first.
            let a_ends_first = match (a.is_unbounded_stop(), b.is_unbounded_stop()) {
                (true, true) => false,
                (true, false) => false,
                (false, true) => true,
                (false, false) => a.stop <= b.stop,
            };
            if a_ends_first {
                i += 1;
            } else {
                j += 1;
            }
        }
        RangeSet { ranges: out }
    }

    /// Clip this set to a region's `[start_key, end_key)` window; returns
    /// the sub-ranges that fall inside the region.
    pub fn clip(&self, region_start: &[u8], region_end: &[u8]) -> RangeSet {
        let region = RowRange {
            start: bytes::Bytes::copy_from_slice(region_start),
            stop: bytes::Bytes::copy_from_slice(region_end),
        };
        self.intersect(&RangeSet {
            ranges: vec![region],
        })
    }

    /// Total number of disjoint ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }
}

/// Where a key lies in the key space, to the resolution of its first 16
/// bytes.
fn key_position(key: &[u8]) -> u128 {
    let mut leading = [0u8; 16];
    let n = key.len().min(16);
    leading[..n].copy_from_slice(&key[..n]);
    u128::from_be_bytes(leading)
}

/// Do two ranges (with `a.start <= b.start`) overlap or touch?
fn ranges_touch(a: &RowRange, b: &RowRange) -> bool {
    a.is_unbounded_stop() || b.start <= a.stop
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn r(start: &str, stop: &str) -> RowRange {
        RowRange::new(
            Bytes::copy_from_slice(start.as_bytes()),
            Bytes::copy_from_slice(stop.as_bytes()),
        )
    }

    #[test]
    fn prefix_successor_basics() {
        assert_eq!(prefix_successor(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_successor(&[0x01, 0xFF]), Some(vec![0x02]));
        assert_eq!(prefix_successor(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn prefix_successor_bounds_all_prefixed_keys() {
        let succ = prefix_successor(b"row1").unwrap();
        assert!(b"row1".as_slice() < succ.as_slice());
        assert!(b"row1zzzzz".as_slice() < succ.as_slice());
        assert!(b"row2".as_slice() >= succ.as_slice());
    }

    #[test]
    fn insert_merges_overlaps() {
        let mut s = RangeSet::none();
        s.insert(r("a", "c"));
        s.insert(r("b", "e"));
        assert_eq!(s.ranges(), &[r("a", "e")]);
        // Paper example: [a,b] ∪ [c,d] with overlap merges to [a,d].
        s.insert(r("d", "g"));
        assert_eq!(s.ranges(), &[r("a", "g")]);
    }

    #[test]
    fn insert_keeps_disjoint_ranges_sorted() {
        let mut s = RangeSet::none();
        s.insert(r("m", "p"));
        s.insert(r("a", "c"));
        s.insert(r("x", ""));
        assert_eq!(s.ranges(), &[r("a", "c"), r("m", "p"), r("x", "")]);
        assert!(s.contains(b"b"));
        assert!(!s.contains(b"d"));
        assert!(s.contains(b"zzz"));
    }

    #[test]
    fn adjacent_ranges_merge() {
        let mut s = RangeSet::none();
        s.insert(r("a", "c"));
        s.insert(r("c", "f"));
        assert_eq!(s.ranges(), &[r("a", "f")]);
    }

    #[test]
    fn unbounded_absorbs() {
        let mut s = RangeSet::none();
        s.insert(r("m", ""));
        s.insert(r("p", "q"));
        assert_eq!(s.ranges(), &[r("m", "")]);
    }

    #[test]
    fn empty_ranges_ignored() {
        let mut s = RangeSet::none();
        s.insert(r("d", "b"));
        assert!(s.is_empty());
    }

    #[test]
    fn intersect_paper_example() {
        // [a,b] ∩ [c,d] with c < b → [c,b].
        let s1 = RangeSet::from_range(r("a", "m"));
        let s2 = RangeSet::from_range(r("f", "z"));
        assert_eq!(s1.intersect(&s2).ranges(), &[r("f", "m")]);
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let s1 = RangeSet::from_range(r("a", "c"));
        let s2 = RangeSet::from_range(r("m", "z"));
        assert!(s1.intersect(&s2).is_empty());
    }

    #[test]
    fn intersect_multiple_ranges() {
        let mut s1 = RangeSet::none();
        s1.insert(r("a", "e"));
        s1.insert(r("k", "p"));
        let s2 = RangeSet::from_range(r("c", "m"));
        let out = s1.intersect(&s2);
        assert_eq!(out.ranges(), &[r("c", "e"), r("k", "m")]);
    }

    #[test]
    fn intersect_with_unbounded() {
        let s1 = RangeSet::all();
        let s2 = RangeSet::from_range(r("g", "k"));
        assert_eq!(s1.intersect(&s2).ranges(), &[r("g", "k")]);
        assert!(s1.is_full());
    }

    #[test]
    fn clip_to_region() {
        let mut s = RangeSet::none();
        s.insert(r("a", "e"));
        s.insert(r("m", "q"));
        let clipped = s.clip(b"c", b"n");
        assert_eq!(clipped.ranges(), &[r("c", "e"), r("m", "n")]);
        // Region unbounded on the right.
        let clipped = s.clip(b"n", b"");
        assert_eq!(clipped.ranges(), &[r("n", "q")]);
    }

    #[test]
    fn union_of_sets() {
        let s1 = RangeSet::from_range(r("a", "c"));
        let s2 = RangeSet::from_range(r("b", "f"));
        assert_eq!(s1.union(&s2).ranges(), &[r("a", "f")]);
    }

    #[test]
    fn from_ranges_is_the_fold_of_inserts() {
        // Overlapping, adjacent, disjoint, empty and out of order.
        let list = [
            r("m", "p"),
            r("a", "c"),
            r("b", "e"),
            r("e", "f"),
            r("z", "y"),
            r("x", ""),
            r("y", "z"),
        ];
        let mut folded = RangeSet::none();
        for range in &list {
            folded.insert(range.clone());
        }
        let at_once = RangeSet::from_ranges(list);
        assert_eq!(at_once, folded);
        assert_eq!(at_once.ranges(), &[r("a", "f"), r("m", "p"), r("x", "")]);
        assert!(RangeSet::from_ranges([]).is_empty());
    }

    #[test]
    fn contains_finds_the_one_range_that_can_hold_a_key() {
        let set = RangeSet::from_ranges(
            (0..200u8)
                .step_by(2)
                .map(|i| RowRange::new(vec![i], vec![i + 1])),
        );
        assert_eq!(set.len(), 100);
        for i in 0..200u8 {
            assert_eq!(set.contains(&[i]), i % 2 == 0, "{i}");
            assert_eq!(set.contains(&[i, 7]), i % 2 == 0, "{i}, 7");
        }
        assert!(!set.contains(&[200]));
        assert!(!RangeSet::none().contains(b"a"));
        assert!(RangeSet::all().contains(b""));
    }

    #[test]
    fn coalescing_closes_the_smallest_gaps_first() {
        let day = |d: u8| RowRange::new(vec![0, d], vec![0, d + 1]);
        let set = RangeSet::from_ranges([day(1), day(3), day(10), day(12), day(40), day(41)]);
        assert_eq!(set.len(), 5, "40 and 41 touch");
        // Gaps: 1, 6, 1, 27. Down to three ranges the two one-day gaps go.
        let three = set.coalesced(3);
        assert_eq!(
            three.ranges(),
            &[
                RowRange::new(vec![0, 1], vec![0, 4]),
                RowRange::new(vec![0, 10], vec![0, 13]),
                RowRange::new(vec![0, 40], vec![0, 42]),
            ]
        );
        assert_eq!(
            set.coalesced(2).ranges(),
            &[
                RowRange::new(vec![0, 1], vec![0, 13]),
                RowRange::new(vec![0, 40], vec![0, 42]),
            ]
        );
        assert_eq!(
            set.coalesced(1).ranges(),
            &[RowRange::new(vec![0, 1], vec![0, 42])]
        );
        // Within the bound nothing is read that was not asked for.
        assert_eq!(set.coalesced(5), set);
        assert_eq!(set.coalesced(9), set);
        // An open end stays open.
        let open = RangeSet::from_ranges([day(1), day(3), RowRange::new(vec![0, 9], vec![])]);
        assert_eq!(
            open.coalesced(1).ranges(),
            &[RowRange::new(vec![0, 1], vec![])]
        );
        // Every key of the set is still covered.
        for d in [1u8, 3, 10, 12, 40, 41] {
            assert!(three.contains(&[0, d, 9]));
        }
    }

    #[test]
    fn many_inserts_stay_normalized() {
        let mut s = RangeSet::none();
        // Insert 100 interleaved ranges; evens [2i, 2i+1), which are
        // disjoint, then odds which bridge them.
        for i in 0..50u8 {
            s.insert(RowRange::new(vec![2 * i], vec![2 * i + 1]));
        }
        assert_eq!(s.len(), 50);
        for i in 0..49u8 {
            s.insert(RowRange::new(vec![2 * i + 1], vec![2 * i + 2]));
        }
        assert_eq!(s.len(), 1);
    }
}
