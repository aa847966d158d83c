//! Offline stand-in for the `bytes` crate: cheaply-cloneable immutable
//! byte buffers (`Bytes`), a growable builder (`BytesMut`), and the
//! big-endian `Buf`/`BufMut` cursor traits — only the subset this
//! workspace uses.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Immutable, cheaply-cloneable byte buffer. Up to [`Bytes::INLINE_CAP`]
/// bytes live inside the value itself, so a short key or record costs no
/// heap block and its clone is a 24-byte copy. Longer ones are one shared
/// allocation (`Arc<[u8]>`: counts and bytes side by side, not the two of
/// an `Arc<Vec<u8>>`); a `'static` slice is borrowed. Which form a value
/// takes is invisible: equality, order, hash and `Debug` are those of the
/// bytes.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    /// `buf[..len]`; `len <= INLINE_CAP`.
    Inline {
        len: u8,
        buf: [u8; Bytes::INLINE_CAP],
    },
    Shared(Arc<[u8]>),
}

// the inline arm fills the tag's word and the two words of a fat pointer,
// and the tag's unused values leave `Option<Bytes>` a niche
const _: () = assert!(std::mem::size_of::<Bytes>() == 24);
const _: () = assert!(std::mem::size_of::<Option<Bytes>>() == 24);

impl Bytes {
    /// The longest byte string held inline, without a heap block.
    pub const INLINE_CAP: usize = 22;

    pub const fn new() -> Bytes {
        Bytes(Repr::Static(&[]))
    }

    pub const fn from_static(b: &'static [u8]) -> Bytes {
        Bytes(Repr::Static(b))
    }

    /// A copy of `b`: inline if it fits, otherwise one allocation.
    pub fn copy_from_slice(b: &[u8]) -> Bytes {
        Bytes::inline(b).unwrap_or_else(|| Bytes(Repr::Shared(Arc::from(b))))
    }

    /// `len` bytes that `fill` writes in place: inline if they fit,
    /// otherwise the one shared allocation, with no builder to copy from.
    pub fn from_fn(len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        if len <= Bytes::INLINE_CAP {
            let mut buf = [0; Bytes::INLINE_CAP];
            fill(&mut buf[..len]);
            return Bytes(Repr::Inline {
                len: len as u8,
                buf,
            });
        }
        // an exact-size iterator collects in one allocation
        let mut shared: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        fill(Arc::get_mut(&mut shared).expect("not yet shared"));
        Bytes(Repr::Shared(shared))
    }

    fn inline(b: &[u8]) -> Option<Bytes> {
        let len = b.len();
        (len <= Bytes::INLINE_CAP).then(|| {
            let mut buf = [0; Bytes::INLINE_CAP];
            buf[..len].copy_from_slice(b);
            Bytes(Repr::Inline {
                len: len as u8,
                buf,
            })
        })
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Shared(v) => v,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::inline(&v).unwrap_or_else(|| Bytes(Repr::Shared(Arc::from(v))))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Bytes {
        Bytes::from_static(b)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialOrd for Bytes {
    #[inline]
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    #[inline]
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
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

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Growable byte builder; `freeze` converts into an immutable [`Bytes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Big-endian write cursor (append-only subset).
pub trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Writes at the front of the slice, which then starts after what was
/// written. Writing past the end panics, as in the real crate.
impl BufMut for &mut [u8] {
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        let (head, tail) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = tail;
    }
}

/// Big-endian read cursor. Implemented for `&[u8]`, advancing the slice
/// in place. Reads past the end panic, as in the real crate.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn advance(&mut self, n: usize);
    fn get_u8(&mut self) -> u8;
    fn get_u16(&mut self) -> u16;
    fn get_u32(&mut self) -> u32;
    fn get_u64(&mut self) -> u64;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        *self = &self[n..];
    }

    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        *self = &self[1..];
        v
    }

    fn get_u16(&mut self) -> u16 {
        let v = u16::from_be_bytes(self[..2].try_into().unwrap());
        *self = &self[2..];
        v
    }

    fn get_u32(&mut self) -> u32 {
        let v = u32::from_be_bytes(self[..4].try_into().unwrap());
        *self = &self[4..];
        v
    }

    fn get_u64(&mut self) -> u64 {
        let v = u64::from_be_bytes(self[..8].try_into().unwrap());
        *self = &self[8..];
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_put_get() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u16(0x0102);
        b.put_u32(0xDEAD_BEEF);
        b.put_slice(b"xy");
        let frozen = b.freeze();
        let mut cur: &[u8] = &frozen;
        assert_eq!(cur.get_u8(), 7);
        assert_eq!(cur.get_u16(), 0x0102);
        assert_eq!(cur.get_u32(), 0xDEAD_BEEF);
        assert_eq!(cur.remaining(), 2);
        cur.advance(1);
        assert_eq!(cur, b"y");
    }

    #[test]
    fn ordering_and_equality() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::copy_from_slice(b"abc");
        let c = Bytes::from(String::from("abd"));
        assert_eq!(a, b);
        assert!(a < c);
        assert_eq!(a, b"abc");
        assert_eq!(Bytes::new().len(), 0);
    }

    #[test]
    fn from_fn_fills_in_place_either_side_of_the_inline_limit() {
        for len in [0, 5, Bytes::INLINE_CAP, Bytes::INLINE_CAP + 1, 100] {
            let b = Bytes::from_fn(len, |mut out| {
                for i in 0..len {
                    out.put_u8(i as u8);
                }
                assert!(out.is_empty());
            });
            assert_eq!(b.to_vec(), (0..len).map(|i| i as u8).collect::<Vec<u8>>());
        }
    }

    #[test]
    #[should_panic]
    fn a_slice_cursor_does_not_write_past_its_end() {
        let mut buf = [0u8; 3];
        let mut out = &mut buf[..];
        out.put_u32(1);
    }

    #[test]
    fn usable_as_map_key_via_borrow() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(Bytes::from_static(b"k"), 1);
        assert_eq!(m.get(b"k".as_slice()), Some(&1));
    }
}
