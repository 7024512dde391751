//! Two-word object header encoding (paper Fig. 3 / Fig. 4).
//!
//! Word 0 carries the object *attributes*: the pointer-area length `pi`,
//! the data-area length `delta`, the tricolour state of a tospace frame and
//! the fromspace *mark* ("evacuated") bit. Word 1 carries either the
//! forwarding pointer (fromspace header, once the object has been
//! evacuated) or the backlink to the fromspace original (gray tospace
//! frame). A black tospace header carries no word-1 payload.
//!
//! Bit layout of word 0:
//!
//! ```text
//!  31       30..28   27..26   25..14   13..2    1..0
//!  sw-lock  (free)   colour   delta    pi       (free)
//! ```
//!
//! Bit 31 is reserved as a spinlock bit for the *software* collectors in
//! `hwgc-swgc`; the hardware model never sets it (its header locks live in
//! registers of the synchronization block, which is the whole point of the
//! paper). `pi` and `delta` are 12-bit fields, so an object body is at most
//! 2 × 4095 words, comfortably above the 10–50 byte typical object size the
//! paper cites.

use crate::heap::{Addr, Word};

/// Maximum value of the `pi` and `delta` header fields (12 bits each).
pub const MAX_FIELD: u32 = 0xFFF;

const PI_SHIFT: u32 = 2;
const DELTA_SHIFT: u32 = 14;
const COLOR_SHIFT: u32 = 26;
const COLOR_MASK: u32 = 0b11;
/// Fromspace mark ("object has been evacuated") bit.
const MARK_BIT: u32 = 1 << 28;
/// Software-collector spinlock bit (never used by the hardware model).
pub const SW_LOCK_BIT: u32 = 1 << 31;

/// Tricolour state of a tospace object frame (Dijkstra's abstraction as
/// applied to the paper's Fig. 4 object life cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Color {
    /// Ordinary mutator-allocated object; also the initial fromspace state.
    White = 0,
    /// Evacuated frame whose body has not been copied yet (Gray 1/Gray 2).
    Gray = 1,
    /// Fully copied object; the collector is done with it for this cycle.
    Black = 2,
}

impl Color {
    fn from_bits(bits: u32) -> Color {
        match bits & COLOR_MASK {
            0 => Color::White,
            1 => Color::Gray,
            _ => Color::Black,
        }
    }
}

/// A decoded object header (both words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Number of pointer words in the body.
    pub pi: u32,
    /// Number of non-pointer data words in the body.
    pub delta: u32,
    /// Tricolour state.
    pub color: Color,
    /// Fromspace "evacuated" bit.
    pub marked: bool,
    /// Word 1: forwarding pointer (marked fromspace header) or backlink
    /// (gray tospace frame); `NULL` otherwise.
    pub link: Addr,
}

impl Header {
    /// A fresh white header for a mutator-allocated object.
    pub fn white(pi: u32, delta: u32) -> Header {
        Header {
            pi,
            delta,
            color: Color::White,
            marked: false,
            link: 0,
        }
    }

    /// Gray tospace frame header: sizes plus a backlink to the fromspace
    /// original, installed at evacuation time so that the scanning core can
    /// find the body to copy and advance `scan` by the correct size.
    #[inline]
    pub fn gray(pi: u32, delta: u32, backlink: Addr) -> Header {
        Header {
            pi,
            delta,
            color: Color::Gray,
            marked: false,
            link: backlink,
        }
    }

    /// Black tospace header: the final state written when the body copy is
    /// complete (paper: "writes pi and delta into the header of the tospace
    /// copy").
    #[inline]
    pub fn black(pi: u32, delta: u32) -> Header {
        Header {
            pi,
            delta,
            color: Color::Black,
            marked: false,
            link: 0,
        }
    }

    /// Marked fromspace header with the forwarding pointer installed.
    #[inline]
    pub fn forwarded(pi: u32, delta: u32, fwd: Addr) -> Header {
        Header {
            pi,
            delta,
            color: Color::White,
            marked: true,
            link: fwd,
        }
    }

    /// Total size of the object in words (header + body).
    #[inline]
    pub fn size_words(&self) -> u32 {
        2 + self.pi + self.delta
    }

    /// Encode into the two header words.
    #[inline]
    pub fn encode(&self) -> (Word, Word) {
        debug_assert!(self.pi <= MAX_FIELD && self.delta <= MAX_FIELD);
        let mut w0 = (self.pi << PI_SHIFT)
            | (self.delta << DELTA_SHIFT)
            | ((self.color as u32) << COLOR_SHIFT);
        if self.marked {
            w0 |= MARK_BIT;
        }
        (w0, self.link)
    }

    /// Decode from the two header words. The software-lock bit is ignored.
    #[inline]
    pub fn decode(w0: Word, w1: Word) -> Header {
        Header {
            pi: (w0 >> PI_SHIFT) & MAX_FIELD,
            delta: (w0 >> DELTA_SHIFT) & MAX_FIELD,
            color: Color::from_bits(w0 >> COLOR_SHIFT),
            marked: w0 & MARK_BIT != 0,
            link: w1,
        }
    }
}

/// Extract `pi` from an encoded word 0 without a full decode.
#[inline]
pub fn pi_of(w0: Word) -> u32 {
    (w0 >> PI_SHIFT) & MAX_FIELD
}

/// Extract `delta` from an encoded word 0 without a full decode.
#[inline]
pub fn delta_of(w0: Word) -> u32 {
    (w0 >> DELTA_SHIFT) & MAX_FIELD
}

/// Extract the object size in words from an encoded word 0.
#[inline]
pub fn size_of_w0(w0: Word) -> u32 {
    2 + pi_of(w0) + delta_of(w0)
}

/// Test the fromspace mark ("evacuated") bit of an encoded word 0.
#[inline]
pub fn is_marked(w0: Word) -> bool {
    w0 & MARK_BIT != 0
}

/// Set the fromspace mark bit on an encoded word 0.
#[inline]
pub fn with_mark(w0: Word) -> Word {
    w0 | MARK_BIT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_white() {
        let h = Header::white(3, 7);
        let (w0, w1) = h.encode();
        assert_eq!(Header::decode(w0, w1), h);
        assert_eq!(h.size_words(), 12);
    }

    #[test]
    fn roundtrip_gray_with_backlink() {
        let h = Header::gray(0, 0, 0xDEAD);
        let (w0, w1) = h.encode();
        let d = Header::decode(w0, w1);
        assert_eq!(d.color, Color::Gray);
        assert_eq!(d.link, 0xDEAD);
        assert_eq!(d.size_words(), 2);
    }

    #[test]
    fn roundtrip_black() {
        let h = Header::black(MAX_FIELD, MAX_FIELD);
        let (w0, w1) = h.encode();
        let d = Header::decode(w0, w1);
        assert_eq!(d.color, Color::Black);
        assert_eq!(d.pi, MAX_FIELD);
        assert_eq!(d.delta, MAX_FIELD);
        assert_eq!(w1, 0);
    }

    #[test]
    fn roundtrip_forwarded() {
        let h = Header::forwarded(1, 2, 42);
        let (w0, w1) = h.encode();
        let d = Header::decode(w0, w1);
        assert!(d.marked);
        assert_eq!(d.link, 42);
        assert_eq!(w1, 42);
        assert!(is_marked(w0));
    }

    #[test]
    fn mark_bit_is_orthogonal_to_fields() {
        let (w0, _) = Header::white(5, 9).encode();
        let m = with_mark(w0);
        assert!(is_marked(m));
        assert_eq!(pi_of(m), 5);
        assert_eq!(delta_of(m), 9);
        assert_eq!(size_of_w0(m), 16);
    }

    #[test]
    fn sw_lock_bit_ignored_by_decode() {
        let (w0, w1) = Header::white(5, 9).encode();
        let d = Header::decode(w0 | SW_LOCK_BIT, w1);
        assert_eq!(d, Header::white(5, 9));
    }

    #[test]
    fn fast_accessors_match_decode() {
        for (pi, delta) in [(0, 0), (1, 0), (0, 1), (12, 34), (MAX_FIELD, MAX_FIELD)] {
            let (w0, _) = Header::white(pi, delta).encode();
            assert_eq!(pi_of(w0), pi);
            assert_eq!(delta_of(w0), delta);
            assert_eq!(size_of_w0(w0), 2 + pi + delta);
        }
    }
}
