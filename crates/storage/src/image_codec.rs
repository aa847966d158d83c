//! How a key or image is written into a byte buffer: a tag byte and its
//! bytes. An audit-trail file (`encompass-audit`'s `TrailFile`, DESIGN.md
//! §D29) and the DISCPROCESS's snapshot-undo ring (§D32) both hold their
//! entries this way, back to back.
//!
//! A tag up to [`Bytes::INLINE_CAP`] is the length of the bytes that
//! follow. [`LONG`] is followed by a big-endian `u32` index into the
//! holder's list of long values, kept beside the buffer as the handles
//! they arrived as: a clone is a reference-count bump, where copying them
//! into the buffer would cost a decode a block each. [`ABSENT`] (an image
//! only) has nothing after it.

use bytes::{Buf, BufMut, Bytes};

pub const LONG: u8 = 0xFE;
pub const ABSENT: u8 = 0xFF;

const _: () = assert!(Bytes::INLINE_CAP < LONG as usize);

/// Bytes an image takes in a buffer.
pub fn encoded_len(image: Option<&Bytes>) -> usize {
    match image {
        None => 1,
        Some(b) if b.len() <= Bytes::INLINE_CAP => 1 + b.len(),
        Some(_) => 1 + 4,
    }
}

/// Append `image` to `buf`. A long one is handed to `long`, which keeps
/// it and returns the index to write.
pub fn put_image(buf: &mut Vec<u8>, image: Option<Bytes>, long: impl FnOnce(Bytes) -> u32) {
    match image {
        None => buf.put_u8(ABSENT),
        Some(b) if b.len() <= Bytes::INLINE_CAP => {
            buf.put_u8(b.len() as u8);
            buf.put_slice(&b);
        }
        Some(b) => {
            buf.put_u8(LONG);
            buf.put_u32(long(b));
        }
    }
}

/// An encoded image as it sits in the buffer.
pub enum Encoded<'a> {
    Absent,
    Inline(&'a [u8]),
    /// The index of a long value.
    Long(u32),
}

/// The image at the head of `cur`, which moves past it, undecoded.
pub fn read_image<'a>(cur: &mut &'a [u8]) -> Encoded<'a> {
    match cur.get_u8() {
        ABSENT => Encoded::Absent,
        LONG => Encoded::Long(cur.get_u32()),
        len => {
            let (bytes, rest) = cur.split_at(usize::from(len));
            *cur = rest;
            Encoded::Inline(bytes)
        }
    }
}

/// The image at the head of `cur`, which moves past it. An inline image
/// is copied (and so takes no heap block); a long one is the handle
/// `long` finds at its index.
pub fn get_image(cur: &mut &[u8], long: impl FnOnce(u32) -> Bytes) -> Option<Bytes> {
    match read_image(cur) {
        Encoded::Absent => None,
        Encoded::Inline(bytes) => Some(Bytes::copy_from_slice(bytes)),
        Encoded::Long(at) => Some(long(at)),
    }
}
