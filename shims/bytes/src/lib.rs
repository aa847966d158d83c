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

/// Immutable, cheaply-cloneable byte buffer. The shared arm is one
/// allocation (`Arc<[u8]>`: counts and bytes side by side), not the two of
/// an `Arc<Vec<u8>>`.
#[derive(Clone)]
pub enum Bytes {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

impl Bytes {
    pub fn new() -> Bytes {
        Bytes::Static(&[])
    }

    pub const fn from_static(b: &'static [u8]) -> Bytes {
        Bytes::Static(b)
    }

    pub fn copy_from_slice(b: &[u8]) -> Bytes {
        Bytes::Shared(Arc::from(b))
    }

    pub fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Static(s) => s,
            Bytes::Shared(v) => v,
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

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

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::Shared(Arc::from(v))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::Shared(Arc::from(s.into_bytes()))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Bytes {
        Bytes::Static(b)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::Static(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
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
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
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
        Bytes::Shared(Arc::from(self.buf))
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
    fn usable_as_map_key_via_borrow() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(Bytes::from_static(b"k"), 1);
        assert_eq!(m.get(b"k".as_slice()), Some(&1));
    }
}
