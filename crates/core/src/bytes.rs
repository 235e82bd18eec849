//! What the crate's two on-disk records — checkpoints and tuning-cache
//! entries — share at the byte level: the FNV-1a checksum that seals a
//! record, and a bounds-checked little-endian reader.

/// FNV-1a, 64 bit.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Append the FNV-1a of everything in `out` so far.
pub(crate) fn seal(out: &mut Vec<u8>) {
    let mut h = Fnv::new();
    h.write(out);
    out.extend_from_slice(&h.finish().to_le_bytes());
}

/// Undo [`seal`]: the record without its trailing checksum, or `None` when
/// the checksum does not match.
pub(crate) fn unseal(bytes: &[u8]) -> Result<Option<&[u8]>, Short> {
    let (body, tail) = bytes
        .split_at_checked(bytes.len().wrapping_sub(8))
        .ok_or(Short)?;
    let mut h = Fnv::new();
    h.write(body);
    Ok((h.finish() == u64::from_le_bytes(tail.try_into().unwrap())).then_some(body))
}

/// The input ended before the format says it should.
#[derive(Debug)]
pub(crate) struct Short;

/// Little-endian cursor over untrusted bytes; every read is bounds-checked.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], Short> {
        let end = self.pos.checked_add(n).ok_or(Short)?;
        let s = self.buf.get(self.pos..end).ok_or(Short)?;
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, Short> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, Short> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, Short> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, Short> {
        Ok(self.u64()? as i64)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, Short> {
        Ok(f64::from_bits(self.u64()?))
    }
}
