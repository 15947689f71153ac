//! LEB128 varint and zig-zag codecs over `std::io` streams.
//!
//! PVT encodes all integers as unsigned LEB128; signed deltas (timestamp
//! deltas are non-negative within a stream, but the codec is general) use
//! zig-zag mapping first.

use crate::error::{TraceError, TraceResult};
use std::io::{BufRead, Read, Write};

/// Writes `value` as unsigned LEB128.
pub fn write_u64<W: Write>(w: &mut W, mut value: u64) -> TraceResult<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Number of bytes of a fixed-width padded LEB128 encoding
/// ([`write_u64_padded`]): the longest canonical u64 varint.
pub const PADDED_U64_BYTES: usize = 10;

/// Writes `value` as a fixed-width, [`PADDED_U64_BYTES`]-byte LEB128
/// encoding: nine continuation bytes plus a final stop byte. Every
/// reader in this module accepts the non-canonical padding, and the
/// width never changes with the value — so a writer can reserve the
/// slot once and patch it in place as the value grows (the live
/// archive's record count, see [`super::live`]).
pub fn write_u64_padded<W: Write>(w: &mut W, value: u64) -> TraceResult<()> {
    let mut buf = [0u8; PADDED_U64_BYTES];
    let mut v = value;
    for b in buf.iter_mut().take(PADDED_U64_BYTES - 1) {
        *b = ((v & 0x7f) as u8) | 0x80;
        v >>= 7;
    }
    buf[PADDED_U64_BYTES - 1] = (v & 0x7f) as u8;
    w.write_all(&buf)?;
    Ok(())
}

/// Reads an unsigned LEB128 value.
///
/// Decoding is the hot loop of every trace reader, so when the whole
/// varint sits inside the reader's buffered slice it is decoded directly
/// from that slice and consumed in one step; only varints that straddle
/// a buffer boundary (or overlong/truncated encodings) take the
/// byte-at-a-time fallback.
pub fn read_u64<R: BufRead>(r: &mut R) -> TraceResult<u64> {
    if let Some((value, used)) = decode_u64_slice(r.fill_buf()?) {
        r.consume(used);
        return Ok(value);
    }
    read_u64_bytewise(r)
}

/// Decodes one unsigned LEB128 value from the front of a slice, returning
/// the value and its encoded length. `None` when the slice ends inside
/// the varint or the encoding overflows u64 — callers fall back to
/// [`read_u64`]'s bytewise path, which reproduces the exact error without
/// having consumed anything.
///
/// When at least 8 bytes are available the varint is decoded with SWAR:
/// one 8-byte little-endian load, a branchless continuation-bit scan
/// (`trailing_zeros` of the inverted top bits gives the length), then a
/// three-step pairwise fold that packs the 7-bit groups of all lanes at
/// once. Varints of up to 8 bytes (56 value bits) — every id, tag, delta
/// and all but pathological metric values — never touch the scalar loop;
/// longer encodings and slice tails fall back to it.
#[inline]
pub(crate) fn decode_u64_slice(buf: &[u8]) -> Option<(u64, usize)> {
    if buf.len() >= 8 {
        let word = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes checked"));
        let stops = !word & 0x8080_8080_8080_8080;
        if stops != 0 {
            let len = (stops.trailing_zeros() / 8 + 1) as usize;
            let masked = if len == 8 {
                word
            } else {
                word & ((1u64 << (len * 8)) - 1)
            };
            return Some((fold_leb128_groups(masked & 0x7f7f_7f7f_7f7f_7f7f), len));
        }
        // All 8 loaded bytes carry continuation bits: a 9- or 10-byte
        // varint (or garbage); the scalar loop sorts it out.
    }
    decode_u64_slice_scalar(buf)
}

/// Packs the eight 7-bit LEB128 groups of a continuation-stripped
/// little-endian word into one value: `Σ byte[i] << 7·i`. Three pairwise
/// steps (7→14→28→56-bit lanes), no data-dependent branches.
#[inline]
pub(crate) fn fold_leb128_groups(x: u64) -> u64 {
    let x = ((x & 0x7f00_7f00_7f00_7f00) >> 1) | (x & 0x007f_007f_007f_007f);
    let x = ((x & 0x3fff_0000_3fff_0000) >> 2) | (x & 0x0000_3fff_0000_3fff);
    ((x & 0x0fff_ffff_0000_0000) >> 4) | (x & 0x0000_0000_0fff_ffff)
}

/// Scalar decoder: slice tails shorter than 8 bytes and encodings longer
/// than 8 bytes. Semantically identical to the SWAR path where both
/// apply (property `swar_equals_scalar_on_every_prefix` below).
#[inline]
fn decode_u64_slice_scalar(buf: &[u8]) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().take(10).enumerate() {
        if shift == 63 && (b & 0x7f) > 1 {
            return None;
        }
        value |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

/// Fallback decoder working on any `Read`: used when a varint crosses
/// the buffer boundary. Nothing has been consumed at this point, so it
/// restarts from the first byte.
fn read_u64_bytewise<R: Read>(r: &mut R) -> TraceResult<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift >= 64 || (shift == 63 && (b & 0x7f) > 1) {
            return Err(TraceError::Corrupt("varint overflows u64".into()));
        }
        value |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zig-zag encodes a signed value.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes a signed value (zig-zag + LEB128).
pub fn write_i64<W: Write>(w: &mut W, value: i64) -> TraceResult<()> {
    write_u64(w, zigzag(value))
}

/// Reads a signed value (LEB128 + un-zig-zag).
pub fn read_i64<R: BufRead>(r: &mut R) -> TraceResult<i64> {
    Ok(unzigzag(read_u64(r)?))
}

/// Writes a length-prefixed UTF-8 string.
pub fn write_string<W: Write>(w: &mut W, s: &str) -> TraceResult<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// Reads a length-prefixed UTF-8 string, rejecting absurd lengths.
pub fn read_string<R: BufRead>(r: &mut R) -> TraceResult<String> {
    const MAX_STRING: u64 = 1 << 20; // 1 MiB is far beyond any symbol name.
    let len = read_u64(r)?;
    if len > MAX_STRING {
        return Err(TraceError::Corrupt(format!(
            "string length {len} exceeds limit"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| TraceError::Corrupt("invalid UTF-8 in string".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip_u64(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_u64(&mut buf, v).unwrap();
        read_u64(&mut Cursor::new(buf)).unwrap()
    }

    fn round_trip_i64(v: i64) -> i64 {
        let mut buf = Vec::new();
        write_i64(&mut buf, v).unwrap();
        read_i64(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn u64_round_trips_boundaries() {
        for v in [0, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            assert_eq!(round_trip_u64(v), v);
        }
    }

    #[test]
    fn i64_round_trips_boundaries() {
        for v in [0, -1, 1, i64::MIN, i64::MAX, -64, 63, 64, -65] {
            assert_eq!(round_trip_i64(v), v);
        }
    }

    #[test]
    fn zigzag_small_negatives_are_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }

    #[test]
    fn padded_encoding_is_fixed_width_and_readable_everywhere() {
        for v in [0u64, 1, 127, 128, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64_padded(&mut buf, v).unwrap();
            assert_eq!(buf.len(), PADDED_U64_BYTES, "value {v}");
            // Slice decoders (SWAR entry + scalar) accept the padding.
            assert_eq!(decode_u64_slice(&buf), Some((v, PADDED_U64_BYTES)));
            assert_eq!(decode_u64_slice_scalar(&buf), Some((v, PADDED_U64_BYTES)));
            // So do the stream readers, with any buffer granularity.
            assert_eq!(read_u64(&mut Cursor::new(&buf)).unwrap(), v);
            let slow = std::io::BufReader::with_capacity(1, Cursor::new(&buf));
            assert_eq!(read_u64(&mut { slow }).unwrap(), v);
        }
    }

    #[test]
    fn padded_slot_patches_in_place() {
        // The point of the fixed width: growing the value re-encodes to
        // the same number of bytes at the same offset.
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_u64_padded(&mut a, 3).unwrap();
        write_u64_padded(&mut b, 3_000_000_000).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn compact_encoding_sizes() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127).unwrap();
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(&mut buf, 128).unwrap();
        assert_eq!(buf.len(), 2);
        buf.clear();
        write_u64(&mut buf, u64::MAX).unwrap();
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn tiny_buffer_forces_the_bytewise_fallback() {
        // With a 1-byte BufRead buffer every multi-byte varint straddles
        // the boundary, so the fallback must decode identically to the
        // fast path.
        for v in [0u64, 127, 128, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v).unwrap();
            let mut r = std::io::BufReader::with_capacity(1, Cursor::new(buf));
            assert_eq!(read_u64(&mut r).unwrap(), v);
        }
        let err = read_u64(&mut std::io::BufReader::with_capacity(
            1,
            Cursor::new(vec![0xffu8; 11]),
        ))
        .unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
    }

    #[test]
    fn truncated_varint_is_corrupt_io() {
        // A continuation bit with no following byte.
        let err = read_u64(&mut Cursor::new(vec![0x80u8])).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes cannot fit in u64.
        let bytes = vec![0xffu8; 11];
        let err = read_u64(&mut Cursor::new(bytes)).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
    }

    #[test]
    fn swar_equals_scalar_on_every_prefix() {
        // The SWAR fast path and the scalar loop must agree on every
        // (value, truncation) pair: same value, same length, and the
        // same None on truncated input.
        let values = [
            0u64,
            1,
            127,
            128,
            129,
            16383,
            16384,
            (1 << 21) - 1,
            1 << 21,
            (1 << 28) - 1,
            1 << 28,
            (1 << 35) - 1,
            1 << 35,
            (1 << 42) - 1,
            1 << 42,
            (1 << 49) - 1,
            1 << 49,
            (1 << 56) - 1,
            1 << 56,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &values {
            let mut buf = Vec::new();
            write_u64(&mut buf, v).unwrap();
            // Padding after the varint must not affect the decode.
            buf.extend_from_slice(&[0xff; 12]);
            for cut in 0..buf.len() {
                let slice = &buf[..cut];
                assert_eq!(
                    decode_u64_slice(slice),
                    decode_u64_slice_scalar(slice),
                    "value {v}, cut {cut}"
                );
            }
            let encoded_len = buf.len() - 12;
            assert_eq!(decode_u64_slice(&buf), Some((v, encoded_len)), "value {v}");
        }
    }

    #[test]
    fn swar_handles_dense_random_bytes() {
        // Pseudo-random byte soup: both decoders must agree at every
        // offset (they may legitimately decode garbage values — only
        // equivalence matters here).
        let mut state = 0x9e3779b97f4a7c15u64;
        let bytes: Vec<u8> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for start in 0..bytes.len() {
            let slice = &bytes[start..];
            assert_eq!(
                decode_u64_slice(slice),
                decode_u64_slice_scalar(slice),
                "offset {start}"
            );
        }
    }

    #[test]
    fn string_round_trip() {
        let mut buf = Vec::new();
        write_string(&mut buf, "MPI_Allreduce µ").unwrap();
        let s = read_string(&mut Cursor::new(buf)).unwrap();
        assert_eq!(s, "MPI_Allreduce µ");
    }

    #[test]
    fn absurd_string_length_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX / 2).unwrap();
        let err = read_string(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 2).unwrap();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = read_string(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
    }
}
