//! Versioned model-bundle persistence: the `NFB1` envelope.
//!
//! A *bundle* is the unit a serving process loads: one or more trained
//! [`LatencyPredictor`]s (an ensemble ships its members together) plus the
//! snapshot of encoding-suite normalization its supplement needs. The
//! format nests the per-predictor `NFP1` envelopes:
//!
//! ```text
//! magic "NFB1" | u32 version (=1) | u32 member count
//!   | per member: u32 byte count | NFP1 predictor envelope
//! | u8 norms flag | if 1: u32 dim | dim f32 means | dim f32 stds (ZCP)
//! ```
//!
//! Only the **ZCP** supplement is snapshot-servable: its features derive
//! from the architecture alone, so the fitted
//! [`ColumnStats`] are the entire suite state the server needs
//! ([`EncodingSuite::zcp_stats`]). Arch2Vec/CATE/CAZ supplements embed
//! trained encoder weights and are rejected at bundle construction rather
//! than silently mis-served.
//!
//! [`EncodingSuite::zcp_stats`]: nasflat_encode::EncodingSuite::zcp_stats

use nasflat_core::{BatchSession, LatencyPredictor, ModelIoError};
use nasflat_encode::{zcp_features, ColumnStats, EncodingKind, EncodingSuite};
use nasflat_space::{Arch, Space};
use nasflat_tensor::{ByteReader, ByteWriter};

use crate::error::ServeError;

/// Magic prefix of the bundle format ("NasFlat Bundle v1").
const MAGIC: &[u8; 4] = b"NFB1";

/// Bundle version written by this build.
const VERSION: u32 = 1;

/// Why a bundle could not be constructed or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleError {
    /// A bundle needs at least one member.
    Empty,
    /// Members disagree on space, devices, supplement, or width; the detail
    /// names the first divergence.
    MemberMismatch(String),
    /// The configured supplement needs trained encoders (anything but ZCP)
    /// and cannot be served from a normalization snapshot.
    UnsupportedSupplement(&'static str),
    /// The members configure a ZCP supplement but no normalization stats
    /// were provided.
    MissingNorms,
    /// The normalization stats' width disagrees with the members'
    /// supplementary width.
    NormsDimMismatch {
        /// Width of the provided stats.
        stats: usize,
        /// Supplementary width the members expect.
        expected: usize,
    },
    /// A nested predictor envelope (or the bundle framing) failed to parse.
    Model(ModelIoError),
}

impl core::fmt::Display for BundleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BundleError::Empty => write!(f, "bundle needs at least one member"),
            BundleError::MemberMismatch(detail) => {
                write!(f, "bundle members disagree: {detail}")
            }
            BundleError::UnsupportedSupplement(label) => write!(
                f,
                "supplement {label} needs trained encoders and cannot be bundled \
                 (only ZCP normalization can be snapshot)"
            ),
            BundleError::MissingNorms => {
                write!(f, "members use a ZCP supplement but no norms were provided")
            }
            BundleError::NormsDimMismatch { stats, expected } => write!(
                f,
                "normalization stats have width {stats}, members expect {expected}"
            ),
            BundleError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BundleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BundleError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelIoError> for BundleError {
    fn from(e: ModelIoError) -> Self {
        BundleError::Model(e)
    }
}

impl From<nasflat_tensor::WireError> for BundleError {
    fn from(e: nasflat_tensor::WireError) -> Self {
        BundleError::Model(e.into())
    }
}

/// One or more trained predictors plus the suite-normalization snapshot
/// they serve with — the artifact a registry loads by name.
///
/// All members share one space, device list, and supplement configuration
/// (validated at construction and again on load). A multi-member bundle is
/// served as the **arithmetic mean** of its members' scores, accumulated in
/// member order — a per-query-defined aggregate that batched and per-query
/// serving compute identically, bit for bit.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    members: Vec<LatencyPredictor>,
    zcp_stats: Option<ColumnStats>,
}

impl ModelBundle {
    /// Validates and assembles a bundle from ensemble members and an
    /// optional ZCP-normalization snapshot.
    ///
    /// # Errors
    /// [`BundleError::Empty`] without members; [`BundleError::MemberMismatch`]
    /// when members disagree on space/devices/supplement/width;
    /// [`BundleError::UnsupportedSupplement`] for non-ZCP supplements;
    /// [`BundleError::MissingNorms`] / [`BundleError::NormsDimMismatch`]
    /// when the snapshot is absent or mis-sized for a ZCP supplement.
    pub fn new(
        members: Vec<LatencyPredictor>,
        zcp_stats: Option<ColumnStats>,
    ) -> Result<Self, BundleError> {
        let first = members.first().ok_or(BundleError::Empty)?;
        for (i, m) in members.iter().enumerate().skip(1) {
            if m.space() != first.space() {
                return Err(BundleError::MemberMismatch(format!(
                    "member {i} space {:?} != {:?}",
                    m.space(),
                    first.space()
                )));
            }
            if m.devices() != first.devices() {
                return Err(BundleError::MemberMismatch(format!(
                    "member {i} device list differs"
                )));
            }
            if m.supp_dim() != first.supp_dim()
                || m.config().supplement != first.config().supplement
            {
                return Err(BundleError::MemberMismatch(format!(
                    "member {i} supplement configuration differs"
                )));
            }
        }
        match first.config().supplement {
            None => {}
            Some(EncodingKind::Zcp) => match &zcp_stats {
                None => return Err(BundleError::MissingNorms),
                Some(stats) if stats.dim() != first.supp_dim() => {
                    return Err(BundleError::NormsDimMismatch {
                        stats: stats.dim(),
                        expected: first.supp_dim(),
                    })
                }
                Some(_) => {}
            },
            Some(other) => return Err(BundleError::UnsupportedSupplement(other.label())),
        }
        Ok(ModelBundle { members, zcp_stats })
    }

    /// A single-predictor bundle (the common non-ensemble case).
    ///
    /// # Errors
    /// Same conditions as [`ModelBundle::new`] — notably, a predictor
    /// configured with a ZCP supplement needs [`ModelBundle::with_suite`]
    /// instead, since `single` carries no normalization snapshot.
    pub fn single(predictor: LatencyPredictor) -> Result<Self, BundleError> {
        ModelBundle::new(vec![predictor], None)
    }

    /// Assembles a bundle and snapshots the ZCP normalization out of
    /// `suite` when (and only when) the members configure a ZCP supplement.
    ///
    /// # Errors
    /// Same conditions as [`ModelBundle::new`].
    pub fn with_suite(
        members: Vec<LatencyPredictor>,
        suite: &EncodingSuite,
    ) -> Result<Self, BundleError> {
        let wants_zcp = members
            .first()
            .is_some_and(|m| m.config().supplement == Some(EncodingKind::Zcp));
        let stats = wants_zcp.then(|| suite.zcp_stats().clone());
        ModelBundle::new(members, stats)
    }

    /// The ensemble members (at least one).
    pub fn members(&self) -> &[LatencyPredictor] {
        &self.members
    }

    /// Number of ensemble members.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// The ZCP normalization snapshot, when the supplement needs one.
    pub fn zcp_stats(&self) -> Option<&ColumnStats> {
        self.zcp_stats.as_ref()
    }

    /// The shared search space.
    pub fn space(&self) -> Space {
        self.members[0].space()
    }

    /// The shared ordered device list (index = embedding row = the device
    /// field of a serve query).
    pub fn devices(&self) -> &[String] {
        self.members[0].devices()
    }

    /// The supplementary row for an architecture, per the bundle's
    /// supplement configuration (ZCP features normalized by the snapshot;
    /// `None` when no supplement is configured).
    pub fn supp_row(&self, arch: &Arch) -> Option<Vec<f32>> {
        self.zcp_stats.as_ref().map(|stats| {
            let mut row = zcp_features(arch);
            stats.apply(&mut row);
            row
        })
    }

    /// Checks that an (arch, device) query fits this bundle: the
    /// architecture's space matches and the device index is in range.
    ///
    /// # Errors
    /// [`ServeError::BadQuery`] naming the mismatch.
    pub fn check_query(&self, arch: &Arch, device: usize) -> Result<(), ServeError> {
        if arch.space() != self.space() {
            return Err(ServeError::BadQuery(format!(
                "{:?} architecture on a {:?} model",
                arch.space(),
                self.space()
            )));
        }
        let num_devices = self.devices().len();
        if device >= num_devices {
            return Err(ServeError::BadQuery(format!(
                "device {device} out of range ({num_devices} devices)"
            )));
        }
        Ok(())
    }

    /// The reference scoring path: one (arch, device) query on fresh tapes,
    /// averaged over members in order. Batched serving reproduces this bit
    /// for bit.
    ///
    /// # Panics
    /// Panics on space mismatch or an out-of-range device index.
    pub fn predict_one(&self, arch: &Arch, device: usize) -> f32 {
        let supp = self.supp_row(arch);
        let sum: f32 = self
            .members
            .iter()
            .map(|m| m.predict(arch, device, supp.as_deref()))
            .sum();
        sum / self.members.len() as f32
    }

    /// Opens one [`BatchSession`] per member: the tape state the serving
    /// engine scores one group on.
    pub fn open_sessions(&self) -> Vec<BatchSession<'_>> {
        self.members.iter().map(|m| m.session()).collect()
    }

    /// Scores a coalesced batch of mixed-device queries on the given member
    /// sessions: each member evaluates the whole batch in one multi-query
    /// tape pass (a singleton is a one-block pass), and the per-query
    /// member scores are averaged
    /// in member order — bitwise the same aggregate as
    /// [`ModelBundle::predict_one`] per query.
    ///
    /// # Panics
    /// Panics if `sessions` were not opened on this bundle's members (in
    /// order), or on query validation failures.
    pub fn score_batch_in(
        &self,
        sessions: &mut [BatchSession<'_>],
        archs: &[&Arch],
        devices: &[usize],
    ) -> Vec<f32> {
        assert_eq!(
            sessions.len(),
            self.members.len(),
            "one session per bundle member"
        );
        let supp: Option<Vec<Vec<f32>>> = self.zcp_stats.is_some().then(|| {
            archs
                .iter()
                .map(|a| self.supp_row(a).expect("stats set"))
                .collect()
        });
        let mut acc = vec![0.0f32; archs.len()];
        for (member, session) in self.members.iter().zip(sessions.iter_mut()) {
            assert!(
                std::ptr::eq(session.predictor(), member),
                "session belongs to a different predictor"
            );
            let scores = session.predict_batched_tape_devices(archs, devices, supp.as_deref());
            for (a, s) in acc.iter_mut().zip(&scores) {
                *a += s;
            }
        }
        let k = self.members.len() as f32;
        for a in &mut acc {
            *a /= k;
        }
        acc
    }

    /// Serializes the bundle into the versioned `NFB1` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(MAGIC);
        w.put_u32(VERSION);
        w.put_len(self.members.len());
        for m in &self.members {
            w.put_bytes(&m.to_bytes());
        }
        match &self.zcp_stats {
            None => w.put_u8(0),
            Some(stats) => {
                w.put_u8(1);
                w.put_len(stats.dim());
                w.put_f32_slice(stats.means());
                w.put_f32_slice(stats.stds());
            }
        }
        w.into_vec()
    }

    /// Reads a bundle written by [`ModelBundle::to_bytes`], re-running the
    /// full construction validation. Reloaded bundles serve bit-identical
    /// predictions.
    ///
    /// # Errors
    /// Any framing, nested-envelope, or validation failure — a truncated or
    /// corrupted file never panics and never half-loads.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, BundleError> {
        let mut r = ByteReader::new(bytes);
        if r.get_raw(4).map_err(|_| ModelIoError::BadMagic)? != MAGIC {
            return Err(ModelIoError::BadMagic.into());
        }
        let version = r.get_u32().map_err(ModelIoError::from)?;
        if version != VERSION {
            return Err(ModelIoError::UnsupportedVersion(version).into());
        }
        let count = r.get_len().map_err(ModelIoError::from)?;
        if count == 0 {
            return Err(BundleError::Empty);
        }
        // Each member occupies at least its length prefix.
        if count > r.remaining() / 4 {
            return Err(ModelIoError::Truncated.into());
        }
        let mut members = Vec::with_capacity(count);
        for _ in 0..count {
            let blob = r.get_bytes().map_err(ModelIoError::from)?;
            members.push(LatencyPredictor::from_bytes(blob)?);
        }
        let zcp_stats = match r.get_u8().map_err(ModelIoError::from)? {
            0 => None,
            1 => {
                let dim = r.get_len().map_err(ModelIoError::from)?;
                let means = r.get_f32_vec(dim).map_err(ModelIoError::from)?;
                let stds = r.get_f32_vec(dim).map_err(ModelIoError::from)?;
                Some(ColumnStats::from_parts(means, stds))
            }
            flag => {
                return Err(BundleError::Model(ModelIoError::Corrupt(format!(
                    "invalid norms flag {flag}"
                ))))
            }
        };
        if !r.is_empty() {
            // Trailing bytes mean file damage (botched concatenation or a
            // partial overwrite), not a loadable bundle.
            return Err(BundleError::Model(ModelIoError::Corrupt(format!(
                "{} trailing bytes after the norms section",
                r.remaining()
            ))));
        }
        ModelBundle::new(members, zcp_stats)
    }

    /// Reads the bundle file at `path` and decodes it with
    /// [`ModelBundle::from_bytes`].
    ///
    /// # Errors
    /// [`ServeError::Io`] when the file cannot be read,
    /// [`ServeError::Bundle`] when its contents are not a valid bundle.
    pub fn load_path(path: &std::path::Path) -> Result<Self, ServeError> {
        Ok(ModelBundle::from_bytes(&std::fs::read(path)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasflat_core::PredictorConfig;

    fn tiny(seed: u64, supplement: Option<EncodingKind>) -> LatencyPredictor {
        let mut cfg = PredictorConfig::quick().with_seed(seed);
        cfg.op_dim = 8;
        cfg.hw_dim = 8;
        cfg.node_dim = 8;
        cfg.ophw_gnn_dims = vec![12];
        cfg.ophw_mlp_dims = vec![12];
        cfg.gnn_dims = vec![12];
        cfg.head_dims = vec![16];
        cfg.supplement = supplement;
        let supp_dim = if supplement.is_some() { 13 } else { 0 };
        LatencyPredictor::new(
            Space::Nb201,
            vec!["a".into(), "b".into(), "c".into()],
            supp_dim,
            cfg,
        )
    }

    #[test]
    fn validation_rejects_bad_bundles() {
        assert_eq!(
            ModelBundle::new(vec![], None).unwrap_err(),
            BundleError::Empty
        );
        // Mismatched device lists.
        let other = LatencyPredictor::new(
            Space::Nb201,
            vec!["only".into()],
            0,
            nasflat_core::PredictorConfig::quick(),
        );
        let err = ModelBundle::new(vec![tiny(0, None), other], None).unwrap_err();
        assert!(matches!(err, BundleError::MemberMismatch(_)), "{err}");
        // ZCP supplement without norms.
        assert_eq!(
            ModelBundle::single(tiny(0, Some(EncodingKind::Zcp))).unwrap_err(),
            BundleError::MissingNorms
        );
        // Norms of the wrong width.
        let bad_stats = ColumnStats::from_parts(vec![0.0; 5], vec![1.0; 5]);
        assert_eq!(
            ModelBundle::new(vec![tiny(0, Some(EncodingKind::Zcp))], Some(bad_stats)).unwrap_err(),
            BundleError::NormsDimMismatch {
                stats: 5,
                expected: 13
            }
        );
        // Learned-encoder supplements are refused outright.
        assert_eq!(
            ModelBundle::single(tiny(0, Some(EncodingKind::Caz))).unwrap_err(),
            BundleError::UnsupportedSupplement("CAZ")
        );
    }

    #[test]
    fn ensemble_mean_matches_hand_computation() {
        let bundle = ModelBundle::new(vec![tiny(1, None), tiny(2, None)], None).unwrap();
        let arch = Arch::nb201_from_index(77);
        let expect = (bundle.members()[0].predict(&arch, 1, None)
            + bundle.members()[1].predict(&arch, 1, None))
            / 2.0;
        assert_eq!(bundle.predict_one(&arch, 1).to_bits(), expect.to_bits());
    }

    #[test]
    fn batched_scoring_matches_per_query_bitwise() {
        let stats = ColumnStats::from_parts(vec![0.5; 13], vec![2.0; 13]);
        for bundle in [
            ModelBundle::new(vec![tiny(3, None), tiny(4, None), tiny(5, None)], None).unwrap(),
            ModelBundle::new(vec![tiny(6, Some(EncodingKind::Zcp))], Some(stats)).unwrap(),
        ] {
            let archs: Vec<Arch> = (0..7u64).map(|i| Arch::nb201_from_index(i * 391)).collect();
            let refs: Vec<&Arch> = archs.iter().collect();
            let devices: Vec<usize> = (0..7).map(|i| i % 3).collect();
            let mut sessions = bundle.open_sessions();
            let batched = bundle.score_batch_in(&mut sessions, &refs, &devices);
            for (i, (arch, &dev)) in archs.iter().zip(&devices).enumerate() {
                assert_eq!(
                    batched[i].to_bits(),
                    bundle.predict_one(arch, dev).to_bits(),
                    "query {i}"
                );
            }
            // Singleton batches (one-block passes) agree too.
            let one = bundle.score_batch_in(&mut sessions, &refs[2..3], &devices[2..3]);
            assert_eq!(
                one[0].to_bits(),
                bundle.predict_one(&archs[2], devices[2]).to_bits()
            );
        }
    }

    #[test]
    fn byte_round_trip_preserves_predictions() {
        let stats = ColumnStats::from_parts(
            (0..13).map(|i| i as f32 * 0.1).collect(),
            (0..13).map(|i| 1.0 + i as f32 * 0.05).collect(),
        );
        let bundle = ModelBundle::new(
            vec![
                tiny(7, Some(EncodingKind::Zcp)),
                tiny(8, Some(EncodingKind::Zcp)),
            ],
            Some(stats),
        )
        .unwrap();
        let reloaded = ModelBundle::from_bytes(&bundle.to_bytes()).unwrap();
        assert_eq!(reloaded.num_members(), 2);
        let arch = Arch::nb201_from_index(9000);
        for dev in 0..3 {
            assert_eq!(
                reloaded.predict_one(&arch, dev).to_bits(),
                bundle.predict_one(&arch, dev).to_bits()
            );
        }
    }

    #[test]
    fn load_path_matches_from_bytes_and_maps_errors() {
        let stats = ColumnStats::from_parts(vec![0.5; 13], vec![2.0; 13]);
        let bundle = ModelBundle::new(
            vec![
                tiny(21, Some(EncodingKind::Zcp)),
                tiny(22, Some(EncodingKind::Zcp)),
            ],
            Some(stats),
        )
        .unwrap();
        let bytes = bundle.to_bytes();
        let path = std::env::temp_dir().join(format!(
            "nasflat_bundle_load_path_{}.nfb1",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let loaded = ModelBundle::load_path(&path).unwrap();
        let arch = Arch::nb201_from_index(4141);
        for dev in 0..3 {
            assert_eq!(
                loaded.predict_one(&arch, dev).to_bits(),
                bundle.predict_one(&arch, dev).to_bits(),
                "dev {dev}"
            );
        }
        // A damaged file is a bundle error; a missing one is an I/O error.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            ModelBundle::load_path(&path),
            Err(ServeError::Bundle(_))
        ));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            ModelBundle::load_path(&path),
            Err(ServeError::Io(_))
        ));
    }

    #[test]
    fn malformed_bytes_error_cleanly() {
        let bundle = ModelBundle::single(tiny(9, None)).unwrap();
        let bytes = bundle.to_bytes();
        assert!(ModelBundle::from_bytes(b"????").is_err());
        let mut wrong = bytes.clone();
        wrong[4] = 9; // version
        assert!(matches!(
            ModelBundle::from_bytes(&wrong).unwrap_err(),
            BundleError::Model(ModelIoError::UnsupportedVersion(_))
        ));
        for cut in [0, 5, 9, 13, bytes.len() / 2, bytes.len() - 1] {
            assert!(ModelBundle::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage (e.g. two bundles concatenated) is file damage.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0xAB; 3]);
        assert!(matches!(
            ModelBundle::from_bytes(&padded).unwrap_err(),
            BundleError::Model(ModelIoError::Corrupt(detail)) if detail.contains("trailing")
        ));
    }
}
