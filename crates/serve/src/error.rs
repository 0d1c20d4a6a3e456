//! The serving subsystem's unified error type.
//!
//! Every fallible public operation in `nasflat-serve` — in-process registry
//! calls, the bundle store, and the TCP ingress — reports through one
//! [`ServeError`]. The enum is `#[non_exhaustive]`: new failure modes
//! (e.g. future auth or quota variants) can be added without a breaking
//! release, so match arms must carry a wildcard.
//!
//! Errors chain: [`ServeError::source`] exposes the underlying
//! [`BundleError`](crate::BundleError), [`std::io::Error`], or
//! [`WireFault`](crate::WireFault), and those chain further (a bundle error
//! wraps the nested predictor-envelope [`ModelIoError`], which wraps the
//! weight-blob `LoadError`). `anyhow`-style consumers walking `source()`
//! see the full causal path down to the byte that failed.

use crate::bundle::BundleError;
use crate::wire::WireFault;

/// Why a serving operation failed.
///
/// Constructed by every layer of the crate: registry lookups, query
/// validation, the store's disk I/O, the ingress's admission control, and
/// the wire protocol.
/// Variants carrying another error expose it via
/// [`source`](std::error::Error::source).
#[non_exhaustive]
#[derive(Debug)]
pub enum ServeError {
    /// No model is registered under the requested name.
    UnknownModel(String),
    /// A query was malformed for the model it targets (wrong space,
    /// out-of-range device).
    BadQuery(String),
    /// The ingress queue is full — **backpressure**, not failure. The
    /// request was rejected *before* buffering anything; retry after the
    /// hinted delay.
    Busy {
        /// Server's retry hint, milliseconds.
        retry_after_ms: u32,
    },
    /// The service is shutting down (or has shut down); the request was not
    /// evaluated.
    Shutdown,
    /// The request's deadline passed before it could be evaluated; the
    /// scheduler answered it immediately instead of wasting a tape pass on
    /// an answer nobody is waiting for.
    DeadlineExceeded {
        /// How far past its deadline the request was when retired,
        /// milliseconds.
        missed_by_ms: u32,
    },
    /// A wire-protocol fault: oversized/malformed frame, closed connection,
    /// or a transport I/O error.
    Wire(WireFault),
    /// Reading a bundle from disk or bytes failed.
    Bundle(BundleError),
    /// Filesystem or socket failure outside the framed protocol.
    Io(std::io::Error),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "no model registered as '{name}'"),
            ServeError::BadQuery(detail) => write!(f, "bad query: {detail}"),
            ServeError::Busy { retry_after_ms } => write!(
                f,
                "server busy (queue full); retry after {retry_after_ms} ms"
            ),
            ServeError::Shutdown => write!(f, "service is shutting down"),
            ServeError::DeadlineExceeded { missed_by_ms } => {
                write!(f, "deadline exceeded by {missed_by_ms} ms; not evaluated")
            }
            ServeError::Wire(e) => write!(f, "wire protocol fault: {e}"),
            ServeError::Bundle(e) => write!(f, "bundle rejected: {e}"),
            ServeError::Io(e) => write!(f, "I/O failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Wire(e) => Some(e),
            ServeError::Bundle(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BundleError> for ServeError {
    fn from(e: BundleError) -> Self {
        ServeError::Bundle(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<WireFault> for ServeError {
    fn from(e: WireFault) -> Self {
        ServeError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_is_informative() {
        assert!(ServeError::UnknownModel("m".into())
            .to_string()
            .contains("'m'"));
        assert!(ServeError::Busy { retry_after_ms: 7 }
            .to_string()
            .contains("7 ms"));
        assert!(ServeError::Shutdown.to_string().contains("shutting down"));
        assert!(ServeError::DeadlineExceeded { missed_by_ms: 3 }
            .to_string()
            .contains("3 ms"));
    }

    #[test]
    fn sources_chain_to_the_root_cause() {
        // ServeError -> BundleError -> ModelIoError: the full causal path.
        let root = nasflat_core::ModelIoError::Truncated;
        let err = ServeError::Bundle(BundleError::Model(root));
        let bundle = err.source().expect("bundle source");
        assert!(bundle.to_string().contains("truncated"));
        let model = bundle.source().expect("model source");
        assert!(model.to_string().contains("truncated"));
        assert!(model.source().is_none());

        let io = ServeError::Io(std::io::Error::other("disk gone"));
        assert!(io.source().expect("io source").to_string().contains("disk"));
        assert!(ServeError::Shutdown.source().is_none());
    }
}
