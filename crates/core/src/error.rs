//! Connector error type, bridging the store and engine error domains.

use shc_engine::error::EngineError;
use shc_kvstore::error::KvError;
use std::fmt;

/// Errors raised by the connector.
#[derive(Debug, Clone, PartialEq)]
pub enum ShcError {
    /// Catalog JSON malformed or semantically invalid.
    Catalog(String),
    /// Encoding/decoding a value failed.
    Codec(String),
    /// Underlying HBase operation failed.
    Store(KvError),
    /// Engine-side failure, kept whole: one that only passes through the
    /// connector (a scan's sink refusing a batch) goes back as it came.
    Engine(EngineError),
    /// Security/token failure.
    Security(String),
    /// Misconfiguration (bad option values, missing principal, ...).
    Config(String),
}

impl fmt::Display for ShcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShcError::Catalog(m) => write!(f, "catalog error: {m}"),
            ShcError::Codec(m) => write!(f, "codec error: {m}"),
            ShcError::Store(e) => write!(f, "store error: {e}"),
            ShcError::Engine(m) => write!(f, "engine error: {m}"),
            ShcError::Security(m) => write!(f, "security error: {m}"),
            ShcError::Config(m) => write!(f, "config error: {m}"),
        }
    }
}

impl std::error::Error for ShcError {}

impl From<KvError> for ShcError {
    fn from(e: KvError) -> Self {
        ShcError::Store(e)
    }
}

impl From<shc_obs::json::JsonError> for ShcError {
    fn from(e: shc_obs::json::JsonError) -> Self {
        ShcError::Catalog(e.0)
    }
}

impl From<EngineError> for ShcError {
    fn from(e: EngineError) -> Self {
        ShcError::Engine(e)
    }
}

impl From<ShcError> for EngineError {
    fn from(e: ShcError) -> Self {
        match e {
            ShcError::Engine(e) => e,
            e => EngineError::DataSource(e.to_string()),
        }
    }
}

pub type Result<T> = std::result::Result<T, ShcError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip_messages() {
        let e: ShcError = KvError::TableNotFound("t".into()).into();
        assert!(e.to_string().contains("table not found"));
        let ee: EngineError = ShcError::Codec("bad byte".into()).into();
        assert!(ee.to_string().contains("bad byte"));
    }
}
