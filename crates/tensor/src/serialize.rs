//! Binary weight persistence and the little-endian wire primitives every
//! higher persistence layer builds on.
//!
//! A pre-trained predictor is the expensive artifact of this system — the
//! whole point of few-shot transfer is to train it once and reuse it across
//! target devices. [`ParamStore::save_weights`] serializes all parameter
//! values into a compact self-describing binary blob;
//! [`ParamStore::load_weights`] restores them into a store with the same
//! layout (same registration order, names, and shapes), validating every
//! field. Optimizer state is intentionally not persisted: transfer
//! re-initializes it anyway (paper §3.4).
//!
//! Weight format (all integers little-endian):
//!
//! ```text
//! magic "NFW1" | u32 param count | per parameter:
//!   u32 name len | name bytes | u32 rows | u32 cols | rows*cols f32 values
//! ```
//!
//! The cursor types [`ByteWriter`] / [`ByteReader`] are public so the model
//! persistence layers above the tensor crate (predictor export in
//! `nasflat-core`, serving bundles in `nasflat-serve`) share one set of
//! bounds-checked little-endian primitives instead of re-deriving them:
//! every read validates the remaining length *before* touching (or
//! allocating for) the payload, so a truncated or corrupted file surfaces
//! as a [`WireError`], never a panic or an absurd allocation.

use crate::params::ParamStore;

/// Why a wire-level read failed (see [`ByteReader`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the requested bytes.
    Truncated,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "byte stream is truncated"),
            WireError::BadUtf8 => write!(f, "length-prefixed string is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian byte-stream writer: the encoding half of the wire
/// primitives shared by every persistence format in the workspace.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// A writer pre-sized for roughly `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim (magic numbers; pre-encoded blobs whose
    /// length the caller frames separately).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u32`.
    ///
    /// # Panics
    /// Panics if `v` exceeds `u32::MAX` — no in-memory model in this
    /// workspace approaches 4 G of anything, so overflow is a caller bug.
    pub fn put_len(&mut self, v: usize) {
        self.put_u32(u32::try_from(v).expect("length exceeds the u32 wire format"));
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its little-endian bit pattern (bit-exact round
    /// trip through [`ByteReader::get_f32`]).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends every `f32` of a slice, without a length prefix (the caller
    /// frames the count).
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a length-prefixed UTF-8 string (u32 byte count + bytes).
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte blob (u32 byte count + bytes).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian byte-stream reader over a borrowed slice:
/// the decoding half of the shared wire primitives. Every accessor verifies
/// the remaining length before reading, so malformed input yields
/// [`WireError::Truncated`] instead of a panic.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { buf: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether the stream is exhausted.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`WireError::Truncated`] at end of stream.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.get_raw(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.get_raw(4)?.try_into().expect("length checked"),
        ))
    }

    /// Reads a `usize` written by [`ByteWriter::put_len`].
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        Ok(self.get_u32()? as usize)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.get_raw(8)?.try_into().expect("length checked"),
        ))
    }

    /// Reads an `f32` bit pattern (bit-exact inverse of
    /// [`ByteWriter::put_f32`]).
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn get_f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads `n` `f32`s into a fresh vector. The remaining length is checked
    /// **before** allocating, so a corrupt count cannot trigger a huge
    /// allocation.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than `4 * n` bytes remain.
    pub fn get_f32_vec(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        if self.buf.len() < n.checked_mul(4).ok_or(WireError::Truncated)? {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f32().expect("length checked"));
        }
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string written by
    /// [`ByteWriter::put_str`].
    ///
    /// # Errors
    /// [`WireError::Truncated`] on short input, [`WireError::BadUtf8`] on
    /// invalid contents.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        let n = self.get_len()?;
        let bytes = self.get_raw(n)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed byte blob written by
    /// [`ByteWriter::put_bytes`].
    ///
    /// # Errors
    /// [`WireError::Truncated`] on short input.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_len()?;
        self.get_raw(n)
    }
}

/// Magic prefix of the weight format ("NasFlat Weights v1").
const MAGIC: &[u8; 4] = b"NFW1";

/// Why a weight blob could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The blob does not start with the `NFW1` magic.
    BadMagic,
    /// The blob ended before all declared data was read.
    Truncated,
    /// A parameter name was not valid UTF-8.
    BadName,
    /// Parameter count differs from the store's layout.
    CountMismatch {
        /// Parameters in the blob.
        found: usize,
        /// Parameters registered in the store.
        expected: usize,
    },
    /// A parameter's name or shape differs from the store's layout.
    LayoutMismatch {
        /// Index of the offending parameter.
        index: usize,
        /// Human-readable description of the difference.
        detail: String,
    },
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::BadMagic => write!(f, "not a NFW1 weight blob"),
            LoadError::Truncated => write!(f, "weight blob is truncated"),
            LoadError::BadName => write!(f, "parameter name is not valid UTF-8"),
            LoadError::CountMismatch { found, expected } => {
                write!(f, "blob has {found} parameters, store expects {expected}")
            }
            LoadError::LayoutMismatch { index, detail } => {
                write!(
                    f,
                    "parameter {index} does not match the store layout: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<WireError> for LoadError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => LoadError::Truncated,
            WireError::BadUtf8 => LoadError::BadName,
        }
    }
}

impl ParamStore {
    /// Serializes all parameter values (not gradients or optimizer state).
    pub fn save_weights(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(16 + self.num_scalars() * 4);
        w.put_raw(MAGIC);
        w.put_len(self.len());
        for id in self.ids() {
            w.put_str(self.name(id));
            let value = self.value(id);
            w.put_len(value.rows());
            w.put_len(value.cols());
            w.put_f32_slice(value.data());
        }
        w.into_vec()
    }

    /// Restores parameter values from a blob produced by
    /// [`ParamStore::save_weights`] on a store with the same layout.
    ///
    /// # Errors
    /// Any structural mismatch (magic, truncation, parameter count, names,
    /// shapes) is rejected before any value is written, so a failed load
    /// leaves the store unchanged.
    pub fn load_weights(&mut self, blob: &[u8]) -> Result<(), LoadError> {
        let mut cur = ByteReader::new(blob);
        if cur.get_raw(4).map_err(|_| LoadError::BadMagic)? != MAGIC {
            return Err(LoadError::BadMagic);
        }
        let count = cur.get_len()?;
        if count != self.len() {
            return Err(LoadError::CountMismatch {
                found: count,
                expected: self.len(),
            });
        }
        // First pass: validate layout and collect values.
        let mut values: Vec<Vec<f32>> = Vec::with_capacity(count);
        for (index, id) in self.ids().enumerate() {
            let name = cur.get_str()?;
            if name != self.name(id) {
                return Err(LoadError::LayoutMismatch {
                    index,
                    detail: format!("name '{name}' != '{}'", self.name(id)),
                });
            }
            let rows = cur.get_len()?;
            let cols = cur.get_len()?;
            let expected = self.value(id).shape();
            if (rows, cols) != expected {
                return Err(LoadError::LayoutMismatch {
                    index,
                    detail: format!("shape {rows}x{cols} != {}x{}", expected.0, expected.1),
                });
            }
            values.push(cur.get_f32_vec(rows * cols)?);
        }
        // Second pass: commit.
        for (id, data) in self.ids().collect::<Vec<_>>().into_iter().zip(values) {
            self.value_mut(id).data_mut().copy_from_slice(&data);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.add(
            "w1",
            Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        );
        s.add("b1", Tensor::row_vector(vec![-0.5, 0.5]));
        s
    }

    #[test]
    fn round_trip_preserves_values() {
        let src = sample_store();
        let blob = src.save_weights();
        let mut dst = sample_store();
        // perturb destination
        let first = dst.ids().next().unwrap();
        dst.value_mut(first).set(0, 0, 99.0);
        dst.load_weights(&blob).unwrap();
        for (a, b) in src.ids().zip(dst.ids()) {
            assert_eq!(src.value(a), dst.value(b));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut dst = sample_store();
        assert_eq!(dst.load_weights(b"XXXX....."), Err(LoadError::BadMagic));
    }

    #[test]
    fn truncated_blob_rejected_without_mutation() {
        let src = sample_store();
        let blob = src.save_weights();
        let mut dst = sample_store();
        let before = dst.snapshot();
        let cut = &blob[..blob.len() - 3];
        assert_eq!(dst.load_weights(cut), Err(LoadError::Truncated));
        // failed load must not have touched anything
        for (id, snap) in dst.ids().collect::<Vec<_>>().into_iter().zip(&before) {
            assert_eq!(dst.value(id), snap);
        }
    }

    #[test]
    fn layout_mismatch_rejected() {
        let src = sample_store();
        let blob = src.save_weights();
        let mut other = ParamStore::new();
        other.add("different_name", Tensor::zeros(2, 3));
        other.add("b1", Tensor::zeros(1, 2));
        let err = other.load_weights(&blob).unwrap_err();
        assert!(
            matches!(err, LoadError::LayoutMismatch { index: 0, .. }),
            "{err}"
        );

        let mut fewer = ParamStore::new();
        fewer.add("w1", Tensor::zeros(2, 3));
        assert!(matches!(
            fewer.load_weights(&blob),
            Err(LoadError::CountMismatch {
                found: 2,
                expected: 1
            })
        ));
    }

    #[test]
    fn wire_primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f32(-0.0);
        w.put_f32(f32::NAN);
        w.put_str("nasflat");
        w.put_bytes(&[1, 2, 3]);
        w.put_f32_slice(&[1.5, -2.25]);
        let bytes = w.into_vec();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        // f32 travel is bit-exact, including signed zero and NaN payloads.
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.get_str().unwrap(), "nasflat");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        let vs = r.get_f32_vec(2).unwrap();
        assert_eq!(vs, vec![1.5, -2.25]);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_rejects_truncation_without_panicking() {
        let mut w = ByteWriter::new();
        w.put_str("hello");
        let bytes = w.into_vec();
        // Every proper prefix must error cleanly.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert_eq!(r.get_str().unwrap_err(), WireError::Truncated, "cut {cut}");
        }
        // A declared length far beyond the buffer must not allocate.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let huge = w.into_vec();
        assert_eq!(
            ByteReader::new(&huge).get_bytes().unwrap_err(),
            WireError::Truncated
        );
        let mut r = ByteReader::new(&huge);
        let n = r.get_len().unwrap();
        assert_eq!(
            ByteReader::new(&huge).get_f32_vec(n).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn reader_rejects_bad_utf8() {
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_vec();
        assert_eq!(
            ByteReader::new(&bytes).get_str().unwrap_err(),
            WireError::BadUtf8
        );
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(LoadError::BadMagic.to_string().contains("NFW1"));
        let e = LoadError::CountMismatch {
            found: 3,
            expected: 5,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
    }
}
