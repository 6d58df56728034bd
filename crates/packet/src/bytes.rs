//! Cheaply cloneable, sliceable byte buffers.
//!
//! Packet payloads travel through many layers of the simulator — application →
//! virtual stack → tap → overlay tunnel → physical stack → links — and used to
//! be deep-copied (`Vec<u8>`) at several of those boundaries. [`Bytes`] is a
//! reference-counted view into an immutable buffer: cloning is a refcount
//! bump, and [`Bytes::slice`] produces sub-views (e.g. the tunnelled payload
//! inside a decoded overlay message) without copying.
//!
//! The type intentionally mirrors the subset of the `bytes` crate the
//! workspace needs; the container builds fully offline, so it is implemented
//! here on top of `Arc<[u8]>`.

use std::fmt;
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer view.
///
/// Backed by `Arc<Vec<u8>>` rather than `Arc<[u8]>` so that wrapping an
/// existing `Vec` (the common case: a freshly serialized packet) moves the
/// allocation instead of copying it.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (one shared allocation header, no data).
    pub fn new() -> Self {
        Bytes {
            data: Arc::new(Vec::new()),
            start: 0,
            end: 0,
        }
    }

    /// Copy a slice into a fresh shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The bytes of the view.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// A sub-view sharing the same underlying buffer (no copy).
    ///
    /// The range is relative to this view. Panics if out of bounds, like slice
    /// indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice {lo}..{hi} out of range {len}");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copy the view out into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// True when `other` is a view of the *same region of the same allocation*
    /// (not merely equal contents). Tests use it to check that a decoded body
    /// is a slice of the received buffer, not a copy.
    pub fn same_region(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.data, &other.data) && self.start == other.start && self.end == other.end
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

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())?;
        let head: Vec<u8> = self.iter().take(8).copied().collect();
        if !head.is_empty() {
            write!(f, " {head:02x?}")?;
            if self.len() > 8 {
                write!(f, "…")?;
            }
        }
        Ok(())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(v: [u8; N]) -> Self {
        Bytes::copy_from_slice(&v)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

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

// Content comparisons against plain byte containers, so call sites and tests
// can keep writing `payload == b"ping"`.
impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert_eq!(b, [1, 2, 3, 4]);
        assert_eq!(b, vec![1, 2, 3, 4]);
        assert_eq!(b, b"\x01\x02\x03\x04");
        assert_eq!(&b[1..3], &[2, 3]);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::default(), Bytes::new());
    }

    #[test]
    fn clone_shares_slice_shares() {
        let b = Bytes::from(vec![0u8; 1024]);
        let c = b.clone();
        assert!(b.same_region(&c));
        let s = b.slice(100..200);
        assert_eq!(s.len(), 100);
        assert!(!s.same_region(&b));
        assert!(s.same_region(&b.slice(100..200)));
        // Sub-slicing composes relative to the view.
        let ss = s.slice(10..20);
        assert!(ss.same_region(&b.slice(110..120)));
    }

    #[test]
    fn slice_bounds_forms() {
        let b = Bytes::from(vec![9u8; 10]);
        assert_eq!(b.slice(..).len(), 10);
        assert_eq!(b.slice(3..).len(), 7);
        assert_eq!(b.slice(..4).len(), 4);
        assert_eq!(b.slice(2..=4).len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        Bytes::from(vec![1, 2, 3]).slice(2..5);
    }

    #[test]
    fn same_region_is_identity_not_equality() {
        let a = Bytes::from(vec![7u8; 16]);
        let b = Bytes::from(vec![7u8; 16]);
        assert_eq!(a, b);
        assert!(!a.same_region(&b));
    }

    #[test]
    fn debug_is_compact() {
        let b = Bytes::from(vec![0xAB; 100]);
        let s = format!("{b:?}");
        assert!(s.contains("100 bytes"), "{s}");
    }
}
