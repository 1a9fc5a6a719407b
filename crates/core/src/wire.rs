//! The workspace's one fixed-width wire toolkit, shared by every
//! hand-laid-out format outside bytecode: a bounds-checked little-endian
//! [`Cursor`] (LPRQ/LPRS payloads, the LPTB trace blob, LPFR events, the
//! store's records) and the one shape of every file the framework keeps —
//! a [`file_header`], then checksummed records ([`push_record`] /
//! [`records`]): the store's LPPL profiles, LPRO reoptimized modules and
//! LPDY deny records, and the LPFR flight spill.
//!
//! `lpat_bytecode::format::Reader` is deliberately a different type: its
//! integers are varints, its counts go through `bounded_count`, and its
//! errors name no field — one type serving both contracts would branch on
//! its caller.

use crate::hash::crc32;

/// A buffer did not hold what its decoder expected. The message names the
/// field: `truncated {what}`, `{what} is not UTF-8`, or
/// `{n} trailing byte(s) after {what}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Malformed(pub String);

impl From<Malformed> for String {
    fn from(e: Malformed) -> String {
        e.0
    }
}

/// A forward-only reader over a byte slice. A read that would run past the
/// end fails with `truncated {what}` and leaves the position alone; no
/// read panics, and none allocates before it has checked its length
/// against the bytes in hand.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading `buf` at its first byte.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// The next `n` bytes (an `n` whose end offset overflows is a
    /// truncation like any other).
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], Malformed> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Malformed(format!("truncated {what}")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], Malformed> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, Malformed> {
        Ok(self.take(1, what)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16, Malformed> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, Malformed> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, Malformed> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64, Malformed> {
        self.array(what).map(i64::from_le_bytes)
    }

    /// A `u8`-length-prefixed UTF-8 string (names, tenants, classes);
    /// `{what} is not UTF-8` otherwise.
    pub fn str8(&mut self, what: &str) -> Result<String, Malformed> {
        let n = usize::from(self.u8(what)?);
        String::from_utf8(self.take(n, what)?.to_vec())
            .map_err(|_| Malformed(format!("{what} is not UTF-8")))
    }

    /// A `u16`-length-prefixed string, decoded lossily: its writers clamp
    /// at 65 535 bytes, which can split a character, and a trace event
    /// with one mangled name is worth more than no trace.
    pub fn str16(&mut self, what: &str) -> Result<String, Malformed> {
        let n = usize::from(self.u16(what)?);
        Ok(String::from_utf8_lossy(self.take(n, what)?).into_owned())
    }

    /// A `u32`-length-prefixed byte payload.
    pub fn bytes32(&mut self, what: &str) -> Result<Vec<u8>, Malformed> {
        let n = self.u32(what)? as usize;
        Ok(self.take(n, what)?.to_vec())
    }

    /// Require that every byte was consumed:
    /// `{n} trailing byte(s) after {what}` otherwise.
    pub fn finish(&self, what: &str) -> Result<(), Malformed> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(Malformed(format!("{n} trailing byte(s) after {what}"))),
        }
    }
}

/// Length of a [`file_header`].
pub const FILE_HEADER_LEN: usize = 6;

/// The first bytes of a file are not the header its reader asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeaderError {
    /// The file ends inside the header.
    Truncated,
    /// Another kind of file, or none the framework writes.
    BadMagic,
    /// The right kind of file in a version this reader does not speak.
    Version(u16),
}

/// What every record file opens with: `magic`, then `version` as a
/// little-endian `u16`. Both are compared whole on read, so a header
/// needs no checksum of its own; whatever else a format wants to say
/// about a file goes in its first record, under that record's CRC.
pub fn file_header(magic: [u8; 4], version: u16) -> [u8; FILE_HEADER_LEN] {
    let mut h = [0u8; FILE_HEADER_LEN];
    h[..4].copy_from_slice(&magic);
    h[4..].copy_from_slice(&version.to_le_bytes());
    h
}

/// Check that `bytes` opens with [`file_header`]`(magic, version)`;
/// returns what follows it, for [`records`].
///
/// # Errors
///
/// See [`HeaderError`]; the magic is judged before the version.
pub fn file_records(bytes: &[u8], magic: [u8; 4], version: u16) -> Result<&[u8], HeaderError> {
    let mut c = Cursor::new(bytes);
    let (Ok(found_magic), Ok(found_version)) = (c.take(4, "magic"), c.u16("version")) else {
        return Err(HeaderError::Truncated);
    };
    if found_magic != magic {
        return Err(HeaderError::BadMagic);
    }
    if found_version != version {
        return Err(HeaderError::Version(found_version));
    }
    Ok(&bytes[FILE_HEADER_LEN..])
}

/// Append `payload` to `out` as one record,
/// `[len: u32][crc32(payload): u32][payload]`, integers little-endian.
///
/// # Panics
///
/// If `payload` is 4 GiB or longer.
pub fn push_record(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("record payload under 4 GiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The payloads of the records at the front of `bytes`, in order, up to
/// the first one that is torn (header or payload runs past the end),
/// declares more than `max_len` payload bytes, or fails its CRC. Damage
/// ends the iteration without an error: an append-only file whose writer
/// was killed mid-`write` looks exactly like this, and whatever follows a
/// torn tail was never durable.
pub fn records(bytes: &[u8], max_len: u32) -> impl Iterator<Item = &[u8]> {
    let mut rest = bytes;
    std::iter::from_fn(move || {
        let mut c = Cursor::new(rest);
        let len = c.u32("record length").ok()?;
        let crc = c.u32("record checksum").ok()?;
        if len > max_len {
            return None;
        }
        let payload = c.take(len as usize, "record payload").ok()?;
        if crc32(payload) != crc {
            return None;
        }
        // Only a whole, valid record moves the scan, so asking again
        // after damage gives the same answer.
        rest = &rest[c.pos..];
        Some(payload)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_every_width_and_labels_what_is_wrong() {
        let mut buf = vec![7u8, 0x34, 0x12];
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&(-5i64).to_le_bytes());
        buf.extend_from_slice(&[2, b'h', b'i', 3, 0, b'a', 0xFF, b'b', 2, 0, 0, 0, 9, 8]);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8("a"), Ok(7));
        assert_eq!(c.u16("b"), Ok(0x1234));
        assert_eq!(c.u32("c"), Ok(0xDEAD_BEEF));
        assert_eq!(c.u64("d"), Ok(u64::MAX));
        assert_eq!(c.i64("e"), Ok(-5));
        assert_eq!(c.str8("f").as_deref(), Ok("hi"));
        assert_eq!(c.str16("g").as_deref(), Ok("a\u{FFFD}b"));
        assert_eq!(c.bytes32("h"), Ok(vec![9, 8]));
        assert_eq!(c.finish("buf"), Ok(()));
        assert_eq!(c.u8("tail"), Err(Malformed("truncated tail".into())));

        let mut c = Cursor::new(&[1, 0xFF, 0]);
        assert_eq!(c.str8("name"), Err(Malformed("name is not UTF-8".into())));
        let trailing = Malformed("1 trailing byte(s) after name".into());
        assert_eq!(c.finish("name"), Err(trailing));
        // An end offset that overflows and a lying u32 length are both
        // plain truncations.
        assert!(c.take(usize::MAX, "huge").is_err());
        let mut c = Cursor::new(&[0xFF, 0xFF, 0xFF, 0xFF, 1]);
        let truncated = Malformed("truncated payload".into());
        assert_eq!(c.bytes32("payload"), Err(truncated));
    }

    #[test]
    fn a_file_header_admits_only_its_own_magic_and_version() {
        let mut file = file_header(*b"LPXX", 3).to_vec();
        push_record(&mut file, b"payload");
        let rest = file_records(&file, *b"LPXX", 3).unwrap();
        assert_eq!(records(rest, u32::MAX).collect::<Vec<_>>(), [b"payload"]);
        assert_eq!(file_records(&file, *b"LPXY", 3), Err(HeaderError::BadMagic));
        assert_eq!(
            file_records(&file, *b"LPXX", 2),
            Err(HeaderError::Version(3))
        );
        for cut in 0..FILE_HEADER_LEN {
            assert_eq!(
                file_records(&file[..cut], *b"LPXX", 3),
                Err(HeaderError::Truncated)
            );
        }
        assert_eq!(file_records(&file[..6], *b"LPXX", 3), Ok(&[][..]));
    }

    #[test]
    fn damage_at_any_offset_yields_exactly_the_records_before_it() {
        // Six records of assorted sizes, one of them empty.
        let payloads: Vec<Vec<u8>> = [0usize, 1, 9, 40, 3, 17]
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| (i * 37 + j * 11 + 1) as u8).collect())
            .collect();
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for p in &payloads {
            push_record(&mut buf, p);
            ends.push(buf.len());
        }
        let scan = |b: &[u8], max| records(b, max).map(<[u8]>::to_vec).collect::<Vec<_>>();
        assert_eq!(scan(&buf, u32::MAX), payloads);
        // The 40-byte record is over a 39-byte bound: the scan stops at
        // it even though its checksum holds.
        assert_eq!(scan(&buf, 39), payloads[..3]);
        for at in 0..buf.len() {
            let whole = ends.iter().filter(|&&e| e <= at).count();
            assert_eq!(scan(&buf[..at], u32::MAX), payloads[..whole], "cut {at}");
            let mut bad = buf.clone();
            bad[at] ^= 0xFF;
            assert_eq!(scan(&bad, u32::MAX), payloads[..whole], "flipped {at}");
        }
    }
}
