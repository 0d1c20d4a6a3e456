//! Self-contained predictor persistence: the `NFP1` envelope.
//!
//! [`ParamStore::save_weights`](nasflat_tensor::ParamStore::save_weights)
//! ships *weights* but assumes the receiver already constructed a predictor
//! with the same layout. A serving system cannot assume that — a model file
//! must carry everything needed to rebuild the predictor from nothing. The
//! `NFP1` format bundles the search space, the ordered device list, the
//! supplementary width, the full [`PredictorConfig`], and the `NFW1` weight
//! blob into one versioned envelope:
//!
//! ```text
//! magic "NFP1" | u32 version (=1) | u8 space | u32 device count
//!   | device names (length-prefixed strings)
//! | u32 supp_dim | config fields (see PredictorConfig::write_wire)
//! | u32 weight-blob byte count | NFW1 weight blob
//! ```
//!
//! [`LatencyPredictor::from_bytes`] reconstructs the predictor and loads the
//! weights, so `to_bytes → from_bytes` reproduces **bit-identical
//! predictions** on every (architecture, device) query — pinned by the
//! serving layer's property suite. Every structural defect (bad magic,
//! unknown version, truncation, inconsistent fields, weight-layout drift)
//! surfaces as a [`ModelIoError`], never a panic.

use nasflat_space::Space;
use nasflat_tensor::{ByteReader, ByteWriter, LoadError, WireError};

use crate::config::PredictorConfig;
use crate::predictor::LatencyPredictor;

/// Magic prefix of the predictor envelope ("NasFlat Predictor v1").
const MAGIC: &[u8; 4] = b"NFP1";

/// Envelope version written by this build.
const VERSION: u32 = 1;

/// Largest layer/embedding width a read envelope may declare. Generous
/// (the paper's Table-20 widths top out at 200) while keeping the largest
/// corrupt-field allocation in the low megabytes.
const MAX_WIRE_DIM: usize = 65_536;

/// Largest per-stack layer count a read envelope may declare.
const MAX_WIRE_LAYERS: usize = 256;

/// Largest device-list length a read envelope may declare (the real
/// rosters have ≤ 40 devices).
const MAX_WIRE_DEVICES: usize = 4_096;

fn check_wire_dim(label: &str, dim: usize) -> Result<(), ModelIoError> {
    if dim > MAX_WIRE_DIM {
        return Err(ModelIoError::Corrupt(format!(
            "{label} of {dim} exceeds the limit of {MAX_WIRE_DIM}"
        )));
    }
    Ok(())
}

/// Why a predictor envelope could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelIoError {
    /// The bytes do not start with the `NFP1` (or the caller's expected)
    /// magic.
    BadMagic,
    /// The envelope version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The byte stream ended before all declared data was read.
    Truncated,
    /// A field failed validation; the detail names it.
    Corrupt(String),
    /// The embedded weight blob did not match the rebuilt layout.
    Weights(LoadError),
}

impl core::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ModelIoError::BadMagic => write!(f, "not a recognized model envelope"),
            ModelIoError::UnsupportedVersion(v) => {
                write!(f, "unsupported model envelope version {v}")
            }
            ModelIoError::Truncated => write!(f, "model envelope is truncated"),
            ModelIoError::Corrupt(detail) => write!(f, "model envelope is corrupt: {detail}"),
            ModelIoError::Weights(e) => write!(f, "embedded weight blob rejected: {e}"),
        }
    }
}

impl std::error::Error for ModelIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelIoError::Weights(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ModelIoError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => ModelIoError::Truncated,
            WireError::BadUtf8 => ModelIoError::Corrupt("non-UTF-8 string field".into()),
        }
    }
}

impl From<LoadError> for ModelIoError {
    fn from(e: LoadError) -> Self {
        ModelIoError::Weights(e)
    }
}

/// The metadata of an `NFP1` envelope: everything **before** the weight
/// blob. Parsed by [`Header::read`], the first half of
/// [`LatencyPredictor::from_bytes`].
struct Header {
    space: Space,
    devices: Vec<String>,
    supp_dim: usize,
    config: PredictorConfig,
    /// Byte length of the `NFW1` weight blob that follows the metadata.
    weight_bytes: usize,
}

impl Header {
    /// Parses and validates the metadata prefix of an `NFP1` envelope,
    /// stopping at the weight blob. Returns the header plus the number of
    /// bytes consumed: the offset at which the weight blob begins.
    fn read(bytes: &[u8]) -> Result<(Self, usize), ModelIoError> {
        let mut r = ByteReader::new(bytes);
        if r.get_raw(4).map_err(|_| ModelIoError::BadMagic)? != MAGIC {
            return Err(ModelIoError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(ModelIoError::UnsupportedVersion(version));
        }
        let space = {
            let code = r.get_u8()?;
            Space::from_wire_code(code)
                .ok_or_else(|| ModelIoError::Corrupt(format!("unknown space code {code}")))?
        };
        let num_devices = r.get_len()?;
        if num_devices == 0 {
            return Err(ModelIoError::Corrupt("empty device list".into()));
        }
        if num_devices > MAX_WIRE_DEVICES {
            return Err(ModelIoError::Corrupt(format!(
                "device count {num_devices} exceeds the limit of {MAX_WIRE_DEVICES}"
            )));
        }
        // More declared devices than remaining bytes is corrupt, not OOM.
        if num_devices > r.remaining() / 4 {
            return Err(ModelIoError::Truncated);
        }
        let mut devices = Vec::with_capacity(num_devices);
        for _ in 0..num_devices {
            devices.push(r.get_str()?.to_string());
        }
        let supp_dim = r.get_len()?;
        let config = PredictorConfig::read_wire(&mut r).map_err(ModelIoError::Corrupt)?;
        // Bound every width before LatencyPredictor::new allocates tables
        // sized by them: a flipped dim byte must surface as Corrupt, not as
        // a multi-gigabyte allocation. The caps are ~300× the paper's
        // Table-20 widths.
        for (label, dim) in [
            ("op_dim", config.op_dim),
            ("hw_dim", config.hw_dim),
            ("node_dim", config.node_dim),
            ("supp_dim", supp_dim),
        ] {
            check_wire_dim(label, dim)?;
        }
        for (label, dims) in [
            ("ophw_gnn_dims", &config.ophw_gnn_dims),
            ("ophw_mlp_dims", &config.ophw_mlp_dims),
            ("gnn_dims", &config.gnn_dims),
            ("head_dims", &config.head_dims),
        ] {
            if dims.len() > MAX_WIRE_LAYERS {
                return Err(ModelIoError::Corrupt(format!(
                    "{label} declares {} layers (limit {MAX_WIRE_LAYERS})",
                    dims.len()
                )));
            }
            for &d in dims.iter() {
                check_wire_dim(label, d)?;
            }
        }
        match (config.supplement.is_some(), supp_dim) {
            (true, 0) => {
                return Err(ModelIoError::Corrupt(
                    "supplement configured with zero width".into(),
                ))
            }
            (false, d) if d != 0 => {
                return Err(ModelIoError::Corrupt(format!(
                    "supplementary width {d} without a configured supplement"
                )))
            }
            _ => {}
        }
        let weight_bytes = r.get_len()?;
        let consumed = bytes.len() - r.remaining();
        Ok((
            Header {
                space,
                devices,
                supp_dim,
                config,
                weight_bytes,
            },
            consumed,
        ))
    }
}

impl LatencyPredictor {
    /// Serializes the whole predictor — space, devices, supplementary
    /// width, config, and weights — into a self-contained `NFP1` envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let weights = self.save_weights();
        let mut w = ByteWriter::with_capacity(64 + weights.len());
        w.put_raw(MAGIC);
        w.put_u32(VERSION);
        w.put_u8(self.space().wire_code());
        w.put_len(self.devices().len());
        for name in self.devices() {
            w.put_str(name);
        }
        w.put_len(self.supp_dim());
        self.config().write_wire(&mut w);
        w.put_bytes(&weights);
        w.into_vec()
    }

    /// Rebuilds a predictor from an `NFP1` envelope written by
    /// [`LatencyPredictor::to_bytes`]. The reconstruction is bit-exact:
    /// every prediction of the returned predictor equals the exporting
    /// predictor's down to the last ulp.
    ///
    /// # Errors
    /// Rejects unrecognized magic/version, truncation, inconsistent fields
    /// (empty device list, supplementary width disagreeing with the
    /// config), and weight blobs that do not match the rebuilt layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelIoError> {
        let (meta, consumed) = Header::read(bytes)?;
        let end = consumed
            .checked_add(meta.weight_bytes)
            .ok_or(ModelIoError::Truncated)?;
        if bytes.len() < end {
            return Err(ModelIoError::Truncated);
        }
        if bytes.len() > end {
            // Trailing bytes mean file damage (a botched concatenation or
            // partial overwrite), not a loadable model.
            return Err(ModelIoError::Corrupt(format!(
                "{} trailing bytes after the weight blob",
                bytes.len() - end
            )));
        }
        let weights = &bytes[consumed..end];
        let mut predictor =
            LatencyPredictor::new(meta.space, meta.devices, meta.supp_dim, meta.config);
        predictor.load_weights(weights)?;
        Ok(predictor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GnnModuleKind;
    use nasflat_encode::EncodingKind;
    use nasflat_space::Arch;

    fn tiny_cfg() -> PredictorConfig {
        let mut c = PredictorConfig::quick();
        c.op_dim = 8;
        c.hw_dim = 8;
        c.node_dim = 8;
        c.ophw_gnn_dims = vec![12];
        c.ophw_mlp_dims = vec![12];
        c.gnn_dims = vec![12];
        c.head_dims = vec![16];
        c
    }

    fn devices() -> Vec<String> {
        vec!["dev_a".into(), "dev_b".into()]
    }

    #[test]
    fn envelope_round_trip_is_bit_identical() {
        for (gnn, supp, op_hw) in [
            (GnnModuleKind::Ensemble, None, true),
            (GnnModuleKind::Dgf, Some(EncodingKind::Zcp), true),
            (GnnModuleKind::Gat, None, false),
        ] {
            let mut cfg = tiny_cfg().with_gnn(gnn).with_supplement(supp);
            cfg.op_hw = op_hw;
            let supp_dim = if supp.is_some() { 13 } else { 0 };
            let src = LatencyPredictor::new(Space::Nb201, devices(), supp_dim, cfg);
            let restored = LatencyPredictor::from_bytes(&src.to_bytes()).expect("round trip");
            assert_eq!(restored.space(), src.space());
            assert_eq!(restored.devices(), src.devices());
            assert_eq!(restored.supp_dim(), src.supp_dim());
            let arch = Arch::nb201_from_index(4242);
            let s = (supp_dim > 0).then(|| vec![0.25f32; supp_dim]);
            for dev in 0..2 {
                let a = src.predict(&arch, dev, s.as_deref());
                let b = restored.predict(&arch, dev, s.as_deref());
                assert_eq!(a.to_bits(), b.to_bits(), "{gnn:?} dev {dev}");
            }
        }
    }

    #[test]
    fn meta_prefix_parses_without_the_weight_blob() {
        let cfg = tiny_cfg().with_supplement(Some(EncodingKind::Zcp));
        let src = LatencyPredictor::new(Space::Nb201, devices(), 13, cfg);
        let bytes = src.to_bytes();
        let (meta, consumed) = Header::read(&bytes).expect("meta parse");
        assert_eq!(meta.space, Space::Nb201);
        assert_eq!(meta.devices, devices());
        assert_eq!(meta.supp_dim, 13);
        assert_eq!(consumed + meta.weight_bytes, bytes.len());
        // The weight blob itself must not be required: parsing from a
        // prefix that ends right where the weights begin succeeds too.
        let (lazy, lazy_consumed) = Header::read(&bytes[..consumed]).expect("prefix");
        assert_eq!(lazy_consumed, consumed);
        assert_eq!(lazy.weight_bytes, meta.weight_bytes);
        assert_eq!(lazy.config.op_dim, meta.config.op_dim);
        assert_eq!(lazy.config.gnn_dims, meta.config.gnn_dims);
    }

    #[test]
    fn bad_magic_version_and_truncation_are_rejected() {
        let src = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        let bytes = src.to_bytes();
        assert_eq!(
            LatencyPredictor::from_bytes(b"XXXXrest").unwrap_err(),
            ModelIoError::BadMagic
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(
            LatencyPredictor::from_bytes(&wrong_version).unwrap_err(),
            ModelIoError::UnsupportedVersion(99)
        );
        for cut in [0, 3, 4, 8, 9, 20, bytes.len() - 1] {
            assert!(
                LatencyPredictor::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn absurd_dims_are_rejected_before_any_allocation() {
        let src = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        let mut bytes = src.to_bytes();
        // op_dim sits right after the fixed header (4+4+1+4), the two
        // 5-char device strings (2 × (4+5)), and supp_dim (4).
        let op_dim_at = 4 + 4 + 1 + 4 + 2 * (4 + 5) + 4;
        bytes[op_dim_at..op_dim_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            LatencyPredictor::from_bytes(&bytes).unwrap_err(),
            ModelIoError::Corrupt(detail) if detail.contains("exceeds the limit")
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let src = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        let mut bytes = src.to_bytes();
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            LatencyPredictor::from_bytes(&bytes).unwrap_err(),
            ModelIoError::Corrupt(detail) if detail.contains("trailing")
        ));
    }

    #[test]
    fn corrupt_fields_are_rejected_with_detail() {
        let src = LatencyPredictor::new(Space::Nb201, devices(), 0, tiny_cfg());
        let mut bytes = src.to_bytes();
        bytes[8] = 7; // space code
        assert!(matches!(
            LatencyPredictor::from_bytes(&bytes).unwrap_err(),
            ModelIoError::Corrupt(detail) if detail.contains("space code")
        ));
    }
}
