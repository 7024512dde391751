//! Fixed-size bit set, the visited/discovered/reached sets of
//! [`crate::snapshot`] and [`crate::verify`]: one bit per arena word.

pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over `0..len`.
    pub(crate) fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Add `i`; true when it was not yet a member.
    ///
    /// # Panics
    /// Panics if `i` is outside `0..len`: callers range-check first.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Is `i` a member? False for any `i` outside `0..len`.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_first_time_only() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(64));
    }

    #[test]
    fn contains_is_false_out_of_range() {
        let s = BitSet::new(10);
        assert!(!s.contains(10_000));
        assert!(!BitSet::new(0).contains(0));
    }
}
