//! Bounds-checked wire primitives shared by every hand-framed codec.
//!
//! The `R2D2LAKE` column files ([`crate::storage`]), the lake-owned snapshot
//! sections ([`crate::snapshot`]), the graph codec (`r2d2_graph::codec`), the
//! advisor state (`r2d2_opt::advisor`) and the session snapshot / WAL record
//! glue (`r2d2_core::persist`) all read little-endian integers, length-prefixed
//! strings and counted sequences through these functions. Encoders append to
//! a [`BytesMut`]; decoders consume from the front of a [`Bytes`] and never
//! panic: a read past the end is [`LakeError::Corrupt`]`("truncated <what>")`,
//! where `what` names the field being decoded.
//!
//! **One allocation cap.** Every element count read from the wire goes
//! through [`get_count`] (or [`check_count`] for a count that is already
//! known), which rejects a count larger than `remaining / min_elem_bytes`.
//! `min_elem_bytes` is a lower bound on one element's encoded size, so no
//! decoder can pre-size a collection beyond what its input could hold.

use crate::error::{LakeError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};

fn truncated(what: &str) -> LakeError {
    LakeError::Corrupt(format!("truncated {what}"))
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(truncated(what));
    }
    Ok(())
}

/// Read one byte.
pub fn get_u8(buf: &mut Bytes, what: &str) -> Result<u8> {
    need(buf, 1, what)?;
    Ok(buf.get_u8())
}

/// Read a little-endian `u32`.
pub fn get_u32(buf: &mut Bytes, what: &str) -> Result<u32> {
    need(buf, 4, what)?;
    Ok(buf.get_u32_le())
}

/// Read a little-endian `u64`.
pub fn get_u64(buf: &mut Bytes, what: &str) -> Result<u64> {
    need(buf, 8, what)?;
    Ok(buf.get_u64_le())
}

/// Read a little-endian `i64`.
pub fn get_i64(buf: &mut Bytes, what: &str) -> Result<i64> {
    need(buf, 8, what)?;
    Ok(buf.get_i64_le())
}

/// Read a little-endian `f64`.
pub fn get_f64(buf: &mut Bytes, what: &str) -> Result<f64> {
    need(buf, 8, what)?;
    Ok(buf.get_f64_le())
}

/// Append a `usize` as a little-endian `u64`.
pub fn put_usize(buf: &mut BytesMut, v: usize) {
    buf.put_u64_le(v as u64);
}

/// Read a `usize` stored as a `u64`.
pub fn get_usize(buf: &mut Bytes, what: &str) -> Result<usize> {
    Ok(get_u64(buf, what)? as usize)
}

/// Append a bool as one byte.
pub fn put_bool(buf: &mut BytesMut, v: bool) {
    buf.put_u8(v as u8);
}

/// Read a bool (any non-zero byte is `true`).
pub fn get_bool(buf: &mut Bytes, what: &str) -> Result<bool> {
    Ok(get_u8(buf, what)? != 0)
}

/// Take the next `len` bytes as a zero-copy slice.
pub fn get_raw(buf: &mut Bytes, len: usize, what: &str) -> Result<Bytes> {
    need(buf, len, what)?;
    Ok(buf.copy_to_bytes(len))
}

/// Append a length-prefixed byte string (`len u32 | bytes`).
pub fn put_bytes(buf: &mut BytesMut, bytes: &[u8]) {
    buf.put_u32_le(bytes.len() as u32);
    buf.put_slice(bytes);
}

/// Read a length-prefixed byte string.
pub fn get_bytes(buf: &mut Bytes, what: &str) -> Result<Bytes> {
    let len = get_u32(buf, what)? as usize;
    get_raw(buf, len, what)
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut Bytes, what: &str) -> Result<String> {
    let raw = get_bytes(buf, what)?;
    String::from_utf8(raw.to_vec())
        .map_err(|_| LakeError::Corrupt(format!("invalid utf8 in {what}")))
}

/// Append an optional value as a presence byte (0 or 1), then the payload.
pub fn put_opt<T>(buf: &mut BytesMut, v: &Option<T>, put: impl FnOnce(&mut BytesMut, &T)) {
    match v {
        None => buf.put_u8(0),
        Some(v) => {
            buf.put_u8(1);
            put(buf, v);
        }
    }
}

/// Read an optional value written by [`put_opt`]; a presence byte other
/// than 0 or 1 is corrupt.
pub fn get_opt<T>(
    buf: &mut Bytes,
    what: &str,
    get: impl FnOnce(&mut Bytes) -> Result<T>,
) -> Result<Option<T>> {
    match get_u8(buf, what)? {
        0 => Ok(None),
        1 => get(buf).map(Some),
        other => Err(LakeError::Corrupt(format!("unknown {what} tag {other}"))),
    }
}

/// Validate an element count against the bytes left: each element takes at
/// least `min_elem_bytes` on the wire, so a count above
/// `remaining / min_elem_bytes` cannot be backed by the input and is
/// rejected before anything is sized off it.
pub fn check_count(buf: &Bytes, count: u64, min_elem_bytes: usize, what: &str) -> Result<usize> {
    debug_assert!(min_elem_bytes > 0, "an element takes at least one byte");
    if count > (buf.remaining() / min_elem_bytes) as u64 {
        return Err(truncated(what));
    }
    Ok(count as usize)
}

/// Read a `u32` element count and [`check_count`] it.
pub fn get_count(buf: &mut Bytes, min_elem_bytes: usize, what: &str) -> Result<usize> {
    let count = get_u32(buf, what)?;
    check_count(buf, count.into(), min_elem_bytes, what)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_past_the_end_are_truncation_errors() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "hello");
        let bytes = buf.freeze();
        let err = get_str(&mut bytes.slice(0..bytes.len() - 2), "greeting").unwrap_err();
        assert_eq!(err.to_string(), truncated("greeting").to_string());
        assert!(get_u64(&mut Bytes::from_static(&[1, 2, 3]), "word").is_err());
        assert!(get_str(&mut Bytes::from_static(&[1, 0, 0, 0, 0xFF]), "s").is_err());
        assert_eq!(get_str(&mut bytes.clone(), "greeting").unwrap(), "hello");
    }

    #[test]
    fn counts_are_capped_by_the_remaining_input() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(3);
        buf.put_slice(&[0u8; 24]);
        let bytes = buf.freeze();
        assert_eq!(get_count(&mut bytes.clone(), 8, "words").unwrap(), 3);
        assert!(get_count(&mut bytes.clone(), 9, "words").is_err());
        assert!(check_count(&bytes, u64::MAX, 1, "rows").is_err());
        assert_eq!(check_count(&Bytes::new(), 0, 24, "rows").unwrap(), 0);
    }

    #[test]
    fn optional_values_round_trip_and_reject_unknown_tags() {
        let mut buf = BytesMut::new();
        put_opt(&mut buf, &Some(2.5f64), |b, v| b.put_f64_le(*v));
        put_opt(&mut buf, &None::<f64>, |b, v| b.put_f64_le(*v));
        let mut cursor = buf.freeze();
        assert_eq!(
            get_opt(&mut cursor, "x", |b| get_f64(b, "x")).unwrap(),
            Some(2.5)
        );
        assert_eq!(
            get_opt(&mut cursor, "x", |b| get_f64(b, "x")).unwrap(),
            None
        );
        let mut bad = Bytes::from_static(&[2]);
        assert!(get_opt(&mut bad, "x", |b| get_f64(b, "x")).is_err());
    }
}
