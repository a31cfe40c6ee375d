//! Minimal `bytes::Bytes` replacement: an immutable, cheaply clonable byte
//! buffer. Static slices are held by reference; owned data is shared behind
//! an `Arc`, and [`Bytes::slice`] is a view into the same allocation. Only
//! the API surface this workspace uses is implemented, and an owned buffer
//! holds at most `u32::MAX` bytes, which keeps a `Bytes` three words wide.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    /// `buf[start..start + len]`.
    Shared {
        buf: Arc<[u8]>,
        start: u32,
        len: u32,
    },
}

/// An immutable, reference-counted byte buffer.
#[derive(Clone)]
pub struct Bytes(Repr);

impl Bytes {
    pub const fn new() -> Self {
        Bytes(Repr::Static(&[]))
    }

    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes(Repr::Static(bytes))
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::shared(Arc::from(data))
    }

    fn shared(buf: Arc<[u8]>) -> Self {
        let len = u32::try_from(buf.len()).expect("a Bytes buffer holds at most u32::MAX bytes");
        Bytes(Repr::Shared { buf, start: 0, len })
    }

    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared { buf, start, len } => {
                let start = *start as usize;
                &buf[start..start + *len as usize]
            }
        }
    }

    /// `self[range]` as a view of the same buffer: no bytes are copied.
    /// Panics when the range is out of bounds, like slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let from = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let to = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            from <= to && to <= len,
            "range {from}..{to} out of bounds of {len} bytes"
        );
        match &self.0 {
            Repr::Static(s) => Bytes(Repr::Static(&s[from..to])),
            // In bounds of a buffer whose length fits a `u32`, so both do.
            Repr::Shared { buf, start, .. } => Bytes(Repr::Shared {
                buf: Arc::clone(buf),
                start: start + from as u32,
                len: (to - from) as u32,
            }),
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
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

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::shared(Arc::from(v.into_boxed_slice()))
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::shared(Arc::from(v))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes(Repr::Static(s.as_bytes()))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes(Repr::Static(s))
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        assert_eq!(Bytes::new().len(), 0);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"abc"), Bytes::copy_from_slice(b"abc"));
        assert_eq!(Bytes::from(vec![1u8, 2]).as_ref(), &[1u8, 2][..]);
        assert_eq!(Bytes::from("hi".to_string()).as_ref(), b"hi");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Bytes::from_static(b"a");
        let b = Bytes::from_static(b"b");
        assert!(a < b);
        let mut v = vec![b.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, b]);
    }

    #[test]
    fn slice_views_subrange() {
        for b in [Bytes::from_static(b"hello"), Bytes::from(b"hello".to_vec())] {
            assert_eq!(b.slice(1..3).as_ref(), b"el");
            assert_eq!(b.slice(0..0).as_ref(), b"");
            assert_eq!(b.slice(..).as_ref(), b"hello");
            assert_eq!(b.slice(1..).slice(1..=2).as_ref(), b"ll");
        }
        // A slice of an owned buffer points into it.
        let owned = Bytes::from(b"hello".to_vec());
        assert_eq!(owned.slice(2..).as_ptr(), owned[2..].as_ptr());
    }

    #[test]
    fn a_bytes_is_three_words() {
        assert_eq!(
            std::mem::size_of::<Bytes>(),
            3 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        Bytes::from(vec![1u8, 2]).slice(1..3);
    }

    #[test]
    fn debug_escapes() {
        assert_eq!(format!("{:?}", Bytes::from_static(b"a\x00")), "b\"a\\x00\"");
    }
}
