//! Low-level wire reader/writer used by all codecs in this crate.
//!
//! `WireReader` is a bounds-checked cursor over an immutable byte slice; it
//! supports absolute seeks so name decompression can follow pointers while
//! remembering where the sequential scan should resume. `WireWriter` is an
//! append-only buffer with a name-compression dictionary.

use crate::error::WireError;
use crate::name::DnsName;
use std::collections::HashMap;

/// Bounds-checked reading cursor over a DNS message buffer.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Create a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current absolute offset into the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Total buffer length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Move the cursor to an absolute offset.
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.buf.len() {
            return Err(WireError::Truncated { context: "seek target" });
        }
        self.pos = pos;
        Ok(())
    }

    /// Read a single octet.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated { context: "u8" })?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a big-endian u16.
    pub fn read_u16(&mut self) -> Result<u16, WireError> {
        let bytes = self.read_bytes(2, "u16")?;
        Ok(u16::from_be_bytes([bytes[0], bytes[1]]))
    }

    /// Read a big-endian u32.
    pub fn read_u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.read_bytes(4, "u32")?;
        Ok(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Read exactly `n` bytes, advancing the cursor.
    pub fn read_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a domain name starting at the cursor, following compression
    /// pointers. The cursor resumes after the first pointer (or after the
    /// terminating root label when no pointer was present).
    pub fn read_name(&mut self) -> Result<DnsName, WireError> {
        let (name, next) = DnsName::decode_at(self.buf, self.pos)?;
        self.pos = next;
        Ok(name)
    }
}

/// Append-only writer with DNS name compression.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// Maps a name suffix (canonical lowercase wire form) to the offset of
    /// its first occurrence, for compression-pointer emission. Offsets must
    /// fit in 14 bits per RFC 1035. Lookups borrow subslices of `scratch`,
    /// so only genuinely new suffixes allocate a key.
    compress: HashMap<Box<[u8]>, u16>,
    /// When false, names are written uncompressed (required inside RDATA of
    /// newer record types such as SVCB/HTTPS, RFC 9460 §2.2).
    compression_enabled: bool,
    /// Reused canonical rendering of the name currently being written.
    scratch: Vec<u8>,
    /// Start offset of each label suffix inside `scratch`.
    scratch_offs: Vec<usize>,
}

impl WireWriter {
    /// New empty writer with compression enabled.
    pub fn new() -> Self {
        WireWriter {
            buf: Vec::with_capacity(512),
            compress: HashMap::new(),
            compression_enabled: true,
            scratch: Vec::new(),
            scratch_offs: Vec::new(),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether anything has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// View of the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append one octet.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrite a previously written big-endian u16 (e.g. RDLENGTH backfill).
    pub fn patch_u16(&mut self, at: usize, v: u16) {
        let b = v.to_be_bytes();
        self.buf[at] = b[0];
        self.buf[at + 1] = b[1];
    }

    /// Append a domain name, emitting a compression pointer when a suffix of
    /// the name was already written and compression is allowed.
    ///
    /// The canonical (lowercased) wire form is rendered once into a reused
    /// scratch buffer; dictionary lookups borrow suffix subslices of it, so
    /// a fully-compressed or already-known name allocates nothing.
    pub fn put_name(&mut self, name: &DnsName) {
        let labels = name.labels();
        if !self.compression_enabled || labels.is_empty() {
            for label in labels {
                debug_assert!(label.len() <= 63);
                self.buf.push(label.len() as u8);
                self.buf.extend_from_slice(label);
            }
            self.buf.push(0); // root label
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut offs = std::mem::take(&mut self.scratch_offs);
        scratch.clear();
        offs.clear();
        for label in labels {
            offs.push(scratch.len());
            scratch.push(label.len() as u8);
            scratch.extend(label.iter().map(|b| b.to_ascii_lowercase()));
        }
        scratch.push(0);
        let mut emitted_pointer = false;
        for (idx, label) in labels.iter().enumerate() {
            let suffix: &[u8] = &scratch[offs[idx]..];
            if let Some(&off) = self.compress.get(suffix) {
                self.put_u16(0xC000 | off);
                emitted_pointer = true;
                break;
            }
            if self.buf.len() <= 0x3FFF {
                self.compress.insert(suffix.into(), self.buf.len() as u16);
            }
            debug_assert!(label.len() <= 63);
            self.buf.push(label.len() as u8);
            self.buf.extend_from_slice(label);
        }
        if !emitted_pointer {
            self.buf.push(0); // root label
        }
        self.scratch = scratch;
        self.scratch_offs = offs;
    }

    /// Append a domain name without compression (RFC 9460 requires
    /// uncompressed TargetName inside SVCB/HTTPS RDATA).
    pub fn put_name_uncompressed(&mut self, name: &DnsName) {
        let prev = self.compression_enabled;
        self.compression_enabled = false;
        self.put_name(name);
        self.compression_enabled = prev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_primitives() {
        let data = [0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE];
        let mut r = WireReader::new(&data);
        assert_eq!(r.read_u8().unwrap(), 0x12);
        assert_eq!(r.read_u16().unwrap(), 0x3456);
        assert_eq!(r.read_u32().unwrap(), 0x789ABCDE);
        assert_eq!(r.remaining(), 0);
        assert!(r.read_u8().is_err());
    }

    #[test]
    fn reader_truncation_reports_context() {
        let mut r = WireReader::new(&[0x00]);
        let err = r.read_u16().unwrap_err();
        assert_eq!(err, WireError::Truncated { context: "u16" });
    }

    #[test]
    fn writer_patch() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(7);
        w.patch_u16(0, 0xBEEF);
        assert_eq!(w.as_bytes(), &[0xBE, 0xEF, 7]);
    }

    #[test]
    fn name_compression_round_trip() {
        let a = DnsName::parse("www.example.com").unwrap();
        let b = DnsName::parse("mail.example.com").unwrap();
        let mut w = WireWriter::new();
        w.put_name(&a);
        let first_len = w.len();
        w.put_name(&b);
        // "mail" label (5) + 2-byte pointer = 7 bytes.
        assert_eq!(w.len() - first_len, 7);

        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.read_name().unwrap(), a);
        assert_eq!(r.read_name().unwrap(), b);
    }

    #[test]
    fn uncompressed_name_has_no_pointer() {
        let a = DnsName::parse("www.example.com").unwrap();
        let mut w = WireWriter::new();
        w.put_name(&a);
        let before = w.len();
        w.put_name_uncompressed(&a);
        // Full name again: 4+1 + 8 + 4 + 1 = wire length of the name.
        assert_eq!(w.len() - before, a.wire_len());
    }
}
