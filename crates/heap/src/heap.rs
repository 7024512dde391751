//! Word-addressed arena with two semispaces.
//!
//! The arena is a flat `Vec<u32>`; addresses are word indices. The first
//! [`RESERVED_WORDS`] words are never used so that address `0` can serve as
//! the null pointer. The two semispaces occupy the rest of the arena.
//!
//! Space roles follow the paper: the mutator allocates by bumping
//! `alloc_ptr` inside the current *tospace* (where the previous cycle left
//! the live data). At the beginning of a collection cycle the collector
//! calls [`Heap::flip`], which turns that space into fromspace and the
//! empty space into tospace, evacuates into tospace, and finally hands the
//! new allocation frontier back via [`Heap::set_alloc_ptr`].

use crate::header::{self, Header};

/// Machine word (the paper's prototype is a 32-bit RISC).
pub type Word = u32;
/// Word-index address into the arena. `0` is the null pointer.
pub type Addr = u32;

/// The null pointer.
pub const NULL: Addr = 0;
/// Words at the bottom of the arena that never hold objects.
pub const RESERVED_WORDS: u32 = 4;

/// A two-semispace, word-addressed heap.
#[derive(Clone)]
pub struct Heap {
    words: Vec<Word>,
    semi_size: u32,
    /// True when the low semispace is the current fromspace.
    from_is_lo: bool,
    /// Mutator bump pointer (next free word in tospace).
    alloc_ptr: Addr,
    /// Root set: addresses of fromspace objects directly reachable from the
    /// (stopped) main processor's registers and stacks.
    roots: Vec<Addr>,
}

impl Heap {
    /// Create a heap with two semispaces of `semi_size` words each.
    ///
    /// # Panics
    /// Panics if `semi_size` is zero or the arena would exceed `u32` indexing.
    pub fn new(semi_size: u32) -> Heap {
        assert!(semi_size > 0, "semispace must be non-empty");
        let total = RESERVED_WORDS as u64 + 2 * semi_size as u64;
        assert!(
            total <= u32::MAX as u64,
            "arena too large for 32-bit addressing"
        );
        Heap {
            words: vec![0; total as usize],
            semi_size,
            from_is_lo: false,
            alloc_ptr: RESERVED_WORDS,
            roots: Vec::new(),
        }
    }

    /// Words per semispace.
    pub fn semi_size(&self) -> u32 {
        self.semi_size
    }

    /// Base address of the current fromspace.
    #[inline]
    pub fn from_base(&self) -> Addr {
        if self.from_is_lo {
            RESERVED_WORDS
        } else {
            RESERVED_WORDS + self.semi_size
        }
    }

    /// Base address of the current tospace.
    #[inline]
    pub fn to_base(&self) -> Addr {
        if self.from_is_lo {
            RESERVED_WORDS + self.semi_size
        } else {
            RESERVED_WORDS
        }
    }

    /// One past the last word of the current fromspace.
    pub fn from_limit(&self) -> Addr {
        self.from_base() + self.semi_size
    }

    /// One past the last word of the current tospace.
    #[inline]
    pub fn to_limit(&self) -> Addr {
        self.to_base() + self.semi_size
    }

    /// Does `addr` fall inside the current fromspace?
    #[inline]
    pub fn in_fromspace(&self, addr: Addr) -> bool {
        addr >= self.from_base() && addr < self.from_limit()
    }

    /// Does `addr` fall inside the current tospace?
    pub fn in_tospace(&self, addr: Addr) -> bool {
        addr >= self.to_base() && addr < self.to_limit()
    }

    /// Current mutator allocation pointer.
    pub fn alloc_ptr(&self) -> Addr {
        self.alloc_ptr
    }

    /// Words still available for mutator allocation (in tospace).
    pub fn free_words(&self) -> u32 {
        self.to_limit() - self.alloc_ptr
    }

    /// Allocate an object with `pi` pointer words and `delta` data words.
    /// Returns the object address (of header word 0), or `None` when the
    /// semispace is exhausted (the paper's trigger for a collection cycle).
    pub fn alloc(&mut self, pi: u32, delta: u32) -> Option<Addr> {
        assert!(pi <= header::MAX_FIELD && delta <= header::MAX_FIELD);
        let size = 2 + pi + delta;
        if self.free_words() < size {
            return None;
        }
        let addr = self.alloc_ptr;
        self.alloc_ptr += size;
        let (w0, w1) = Header::white(pi, delta).encode();
        self.set_word(addr, w0);
        self.set_word(addr + 1, w1);
        // Pointer area starts out null; data area starts out zero. The arena
        // is zero-initialised and evacuated frames are fully overwritten, so
        // nothing to do for a fresh space, but after a flip the fromspace
        // contains stale words from two cycles ago.
        for i in 0..size - 2 {
            self.set_word(addr + 2 + i, 0);
        }
        Some(addr)
    }

    /// Swap the roles of fromspace and tospace (start of a collection
    /// cycle): the space holding the objects becomes fromspace and the
    /// empty space becomes tospace. The caller (collector) is responsible
    /// for setting the new allocation frontier via [`Heap::set_alloc_ptr`]
    /// when it finishes.
    pub fn flip(&mut self) {
        self.from_is_lo = !self.from_is_lo;
    }

    /// Set the mutator allocation pointer (used by the collector after a
    /// cycle: allocation resumes right after the compacted live data).
    pub fn set_alloc_ptr(&mut self, addr: Addr) {
        debug_assert!(addr >= self.to_base() && addr <= self.to_limit());
        self.alloc_ptr = addr;
    }

    /// Raw word read.
    #[inline]
    pub fn word(&self, addr: Addr) -> Word {
        self.words[addr as usize]
    }

    /// Hint the host CPU to pull the cache line of word `addr` in: for a
    /// simulator that knows, simulated cycles ahead, which scattered word
    /// it will read next. Purely a host-speed hint — nothing is read or
    /// written, any `addr` (even one outside the arena) is accepted, and
    /// targets without a prefetch instruction compile it to nothing.
    #[inline]
    pub fn prefetch(&self, addr: Addr) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // `wrapping_add` keeps the pointer arithmetic defined for any
            // `addr`; the pointer is only ever handed to the hint.
            let line = self.words.as_ptr().wrapping_add(addr as usize);
            // SAFETY: `prefetcht0` is part of SSE, which every x86_64
            // target has; it never faults and does not access memory
            // architecturally, whatever address it is given.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line.cast::<i8>()) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    /// Raw word write.
    #[inline]
    pub fn set_word(&mut self, addr: Addr, value: Word) {
        self.words[addr as usize] = value;
    }

    /// Read and decode the header of the object at `addr`.
    #[inline]
    pub fn header(&self, addr: Addr) -> Header {
        Header::decode(self.word(addr), self.word(addr + 1))
    }

    /// Encode and write the header of the object at `addr`.
    #[inline]
    pub fn set_header(&mut self, addr: Addr, h: Header) {
        let (w0, w1) = h.encode();
        self.set_word(addr, w0);
        self.set_word(addr + 1, w1);
    }

    /// Read pointer slot `i` of the object at `addr`.
    pub fn ptr(&self, addr: Addr, i: u32) -> Addr {
        debug_assert!(i < header::pi_of(self.word(addr)));
        self.word(addr + 2 + i)
    }

    /// Write pointer slot `i` of the object at `addr`.
    pub fn set_ptr(&mut self, addr: Addr, i: u32, target: Addr) {
        debug_assert!(i < header::pi_of(self.word(addr)));
        self.set_word(addr + 2 + i, target);
    }

    /// Read data slot `i` of the object at `addr`.
    pub fn data(&self, addr: Addr, i: u32) -> Word {
        let w0 = self.word(addr);
        debug_assert!(i < header::delta_of(w0));
        self.word(addr + 2 + header::pi_of(w0) + i)
    }

    /// Write data slot `i` of the object at `addr`.
    pub fn set_data(&mut self, addr: Addr, i: u32, value: Word) {
        let w0 = self.word(addr);
        debug_assert!(i < header::delta_of(w0));
        self.set_word(addr + 2 + header::pi_of(w0) + i, value);
    }

    /// The root set.
    pub fn roots(&self) -> &[Addr] {
        &self.roots
    }

    /// Add a root.
    pub fn add_root(&mut self, addr: Addr) {
        self.roots.push(addr);
    }

    /// Replace root `i` (used by the collector to redirect roots to tospace
    /// copies; in hardware, core 1 rewrites the main processor's registers).
    pub fn set_root(&mut self, i: usize, addr: Addr) {
        self.roots[i] = addr;
    }

    /// Remove and return the most recently added root. Together with
    /// [`Heap::add_root`] this makes the root set usable as a *shadow
    /// stack*: a mutator pushes intermediate references before an
    /// allocation that may trigger a (moving) collection and pops the
    /// possibly-updated values afterwards.
    pub fn pop_root(&mut self) -> Addr {
        self.roots.pop().expect("pop_root on empty root set")
    }

    /// Remove all roots.
    pub fn clear_roots(&mut self) {
        self.roots.clear();
    }

    /// Number of words of live data currently allocated (mutator view).
    pub fn allocated_words(&self) -> u32 {
        self.alloc_ptr - self.to_base()
    }

    /// Expose the backing words (for the software collectors, which build an
    /// atomic arena with the identical layout).
    pub fn words(&self) -> &[Word] {
        &self.words
    }

    /// Mutable view of the backing words — the parallel engine's copy
    /// pool writes disjoint tospace ranges through this in bulk instead
    /// of per-word [`Heap::set_word`] calls.
    pub fn words_mut(&mut self) -> &mut [Word] {
        &mut self.words
    }

    /// Consume the heap, yielding the backing words.
    pub fn into_words(self) -> Vec<Word> {
        self.words
    }

    /// Replace the backing words (same length required); used to rebuild a
    /// `Heap` view after a software collection ran on a raw arena.
    pub fn restore_words(&mut self, words: Vec<Word>) {
        assert_eq!(words.len(), self.words.len());
        self.words = words;
    }
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("semi_size", &self.semi_size)
            .field("from_is_lo", &self.from_is_lo)
            .field("alloc_ptr", &self.alloc_ptr)
            .field("roots", &self.roots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Color;

    #[test]
    fn new_heap_layout() {
        let h = Heap::new(100);
        assert_eq!(h.to_base(), RESERVED_WORDS);
        assert_eq!(h.from_base(), RESERVED_WORDS + 100);
        assert_eq!(h.to_limit(), RESERVED_WORDS + 100);
        assert_eq!(h.from_limit(), RESERVED_WORDS + 200);
        assert_eq!(h.alloc_ptr(), RESERVED_WORDS);
        assert_eq!(h.free_words(), 100);
    }

    #[test]
    fn alloc_bumps_and_initialises() {
        let mut h = Heap::new(100);
        let a = h.alloc(2, 3).unwrap();
        assert_eq!(a, RESERVED_WORDS);
        assert_eq!(h.alloc_ptr(), RESERVED_WORDS + 7);
        let hd = h.header(a);
        assert_eq!(hd.pi, 2);
        assert_eq!(hd.delta, 3);
        assert_eq!(hd.color, Color::White);
        assert_eq!(h.ptr(a, 0), NULL);
        assert_eq!(h.ptr(a, 1), NULL);
        assert_eq!(h.data(a, 0), 0);
    }

    #[test]
    fn alloc_exhaustion_returns_none() {
        let mut h = Heap::new(10);
        assert!(h.alloc(0, 6).is_some()); // 8 words
        assert!(h.alloc(0, 1).is_none()); // 3 words > 2 left
        assert!(h.alloc(0, 0).is_some()); // exactly 2 words
        assert_eq!(h.free_words(), 0);
        assert!(h.alloc(0, 0).is_none());
    }

    #[test]
    fn flip_swaps_spaces() {
        let mut h = Heap::new(50);
        let fb = h.from_base();
        let tb = h.to_base();
        h.flip();
        assert_eq!(h.from_base(), tb);
        assert_eq!(h.to_base(), fb);
        h.flip();
        assert_eq!(h.from_base(), fb);
    }

    #[test]
    fn space_membership() {
        let h = Heap::new(50);
        assert!(h.in_tospace(RESERVED_WORDS));
        assert!(!h.in_tospace(RESERVED_WORDS + 50));
        assert!(h.in_fromspace(RESERVED_WORDS + 50));
        assert!(!h.in_fromspace(RESERVED_WORDS + 100));
        assert!(!h.in_fromspace(NULL));
        assert!(!h.in_tospace(NULL));
    }

    #[test]
    fn pointer_and_data_accessors() {
        let mut h = Heap::new(100);
        let a = h.alloc(1, 2).unwrap();
        let b = h.alloc(0, 1).unwrap();
        h.set_ptr(a, 0, b);
        h.set_data(a, 0, 0xAAAA);
        h.set_data(a, 1, 0xBBBB);
        assert_eq!(h.ptr(a, 0), b);
        assert_eq!(h.data(a, 0), 0xAAAA);
        assert_eq!(h.data(a, 1), 0xBBBB);
        // Pointer writes must not clobber data words or vice versa.
        h.set_ptr(a, 0, NULL);
        assert_eq!(h.data(a, 0), 0xAAAA);
    }

    #[test]
    fn roots_roundtrip() {
        let mut h = Heap::new(100);
        let a = h.alloc(0, 1).unwrap();
        let b = h.alloc(0, 1).unwrap();
        h.add_root(a);
        h.add_root(b);
        assert_eq!(h.roots(), &[a, b]);
        h.set_root(0, b);
        assert_eq!(h.roots(), &[b, b]);
        h.clear_roots();
        assert!(h.roots().is_empty());
    }

    #[test]
    fn alloc_after_flip_clears_stale_body() {
        let mut h = Heap::new(20);
        // Dirty the high semispace (the initial fromspace) directly.
        let hi = h.from_base();
        h.set_word(hi + 2, 0xFFFF_FFFF);
        h.flip(); // high semispace is now tospace
        h.set_alloc_ptr(h.to_base());
        let a = h.alloc(1, 0).unwrap();
        assert_eq!(a, hi);
        assert_eq!(h.ptr(a, 0), NULL, "stale words must be cleared");
    }
}

#[cfg(test)]
mod shadow_stack_tests {
    use super::*;

    #[test]
    fn pop_root_is_lifo() {
        let mut h = Heap::new(64);
        let a = h.alloc(0, 1).unwrap();
        let b = h.alloc(0, 1).unwrap();
        h.add_root(a);
        h.add_root(b);
        assert_eq!(h.pop_root(), b);
        assert_eq!(h.pop_root(), a);
        assert!(h.roots().is_empty());
    }

    #[test]
    #[should_panic(expected = "pop_root on empty root set")]
    fn pop_root_on_empty_panics() {
        let mut h = Heap::new(64);
        let _ = h.pop_root();
    }

    #[test]
    fn words_roundtrip_through_restore() {
        let mut h = Heap::new(32);
        let a = h.alloc(0, 1).unwrap();
        h.set_data(a, 0, 77);
        let mut words = h.clone().into_words();
        words[(a + 2) as usize] = 88;
        h.restore_words(words);
        assert_eq!(h.data(a, 0), 88);
    }
}
