//! JSON for SHC catalogs and Avro schemas: the workspace's one reader and
//! writer, re-exported from [`shc_obs::json`] (the crate below both the
//! store and the engine, which write JSON too).

pub use shc_obs::json::{parse_json, render, Json, JsonError};
