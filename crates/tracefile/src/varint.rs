//! LEB128 varints and zigzag encoding for signed values.
//!
//! Writers append to a plain `Vec<u8>`; readers consume from a `&[u8]`
//! cursor that advances past what they decode. No external buffer crate
//! is involved, so the workspace builds with no network access.
//!
//! The live-point container and its warm-state payloads (the
//! `save_state` codecs in `fgstp-mem`, `fgstp-bpred` and `fgstp-ooo`)
//! share this one implementation; [`take_varint`] and [`take_count`] are
//! the readers in the `Result<_, String>` form those payload codecs use.

/// Writes `value` as an LEB128 varint (1–10 bytes).
pub fn write_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from the front of `*buf`, advancing the cursor;
/// `None` on truncation or overlong encoding.
pub fn read_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        if shift >= 64 {
            return None;
        }
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// [`read_varint`] for a warm-state payload decoder: truncation or an
/// overlong encoding is an `Err` naming `field`.
pub fn take_varint(buf: &mut &[u8], field: &str) -> Result<u64, String> {
    read_varint(buf).ok_or_else(|| format!("snapshot payload truncated ({field})"))
}

/// Largest event counter a warm-state payload may carry: 2^48, about
/// 2.8·10^14 events, beyond any run the simulator can finish, and far
/// enough below `u64::MAX` that a restored counter cannot overflow as
/// the run goes on.
pub const MAX_COUNT: u64 = 1 << 48;

/// [`take_varint`] for an event counter (accesses, hits, branches, an
/// LRU clock): a value above [`MAX_COUNT`] is an `Err`.
pub fn take_count(buf: &mut &[u8], field: &str) -> Result<u64, String> {
    let v = take_varint(buf, field)?;
    if v > MAX_COUNT {
        return Err(format!("snapshot counter out of range ({field}: {v})"));
    }
    Ok(v)
}

/// Maps a signed value onto an unsigned one with small magnitudes staying
/// small (…,-2,-1,0,1,2,… → 3,1,0,2,4,…).
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(read_varint(&mut slice), Some(v));
            assert!(slice.is_empty(), "no trailing bytes for {v}");
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        write_varint(&mut buf, 128);
        assert_eq!(buf.len(), 3, "128 takes two bytes");
    }

    #[test]
    fn truncated_varint_is_none() {
        let data = [0x80u8, 0x80];
        let mut slice = &data[..];
        assert_eq!(read_varint(&mut slice), None);
    }

    #[test]
    fn reader_advances_past_what_it_decodes() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 300);
        write_varint(&mut buf, 7);
        let mut slice = &buf[..];
        assert_eq!(read_varint(&mut slice), Some(300));
        assert_eq!(read_varint(&mut slice), Some(7));
        assert!(slice.is_empty());
    }

    #[test]
    fn payload_readers_name_the_field_and_bound_counters() {
        let mut buf = Vec::new();
        write_varint(&mut buf, MAX_COUNT);
        write_varint(&mut buf, MAX_COUNT + 1);
        let mut slice = &buf[..];
        assert_eq!(take_count(&mut slice, "hits"), Ok(MAX_COUNT));
        let err = take_count(&mut slice, "misses").unwrap_err();
        assert!(err.contains("misses"), "{err}");
        let err = take_varint(&mut slice, "tag").unwrap_err();
        assert!(err.contains("truncated (tag)"), "{err}");
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -99999] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }
}
