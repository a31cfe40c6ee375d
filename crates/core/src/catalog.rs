//! The HBase table catalog (paper §IV.A): a JSON document mapping an HBase
//! table's four-coordinate layout onto a relational schema.
//!
//! ```json
//! {
//!   "table":   {"namespace":"default", "name":"actives",
//!               "tableCoder":"PrimitiveType", "Version":"2.0"},
//!   "rowkey":  "key",
//!   "columns": {
//!     "col0":        {"cf":"rowkey", "col":"key",  "type":"string"},
//!     "user-id":     {"cf":"cf1",    "col":"col1", "type":"tinyint"},
//!     "visit-pages": {"cf":"cf2",    "col":"col2", "type":"string"},
//!     "stay-time":   {"cf":"cf3",    "col":"col3", "type":"double"},
//!     "time":        {"cf":"cf4",    "col":"col4", "type":"time"}
//!   }
//! }
//! ```
//!
//! The `rowkey` attribute lists the key dimensions (`"key1:key2"` for
//! composite keys); each dimension must correspond to a column with
//! `"cf":"rowkey"`. Column order in the JSON defines field order in the
//! relational schema.

use crate::encoder::avro::AvroSchema;
use crate::encoder::{FieldCodec, TableCoder};
use crate::error::{Result, ShcError};
use crate::json::{parse_json, Json};
use shc_engine::parser::parse_type_name;
use shc_engine::schema::{Field, Schema};
use shc_engine::value::DataType;
use shc_kvstore::types::TableName;
use std::collections::HashMap;
use std::sync::Arc;

/// The column family name reserved for row-key dimensions.
pub const ROWKEY_FAMILY: &str = "rowkey";

/// One mapped column.
#[derive(Clone)]
pub struct CatalogColumn {
    /// Relational column name (the JSON member key).
    pub name: String,
    /// HBase column family (`"rowkey"` marks a key dimension).
    pub family: String,
    /// HBase column qualifier (or the key-dimension name for key columns).
    pub qualifier: String,
    pub data_type: DataType,
    /// Codec used for this column's bytes.
    pub codec: Arc<dyn FieldCodec>,
    /// Explicit Avro schema, when the column is declared with `"avro"`.
    pub avro_schema: Option<AvroSchema>,
}

impl CatalogColumn {
    pub fn is_rowkey(&self) -> bool {
        self.family == ROWKEY_FAMILY
    }
}

impl std::fmt::Debug for CatalogColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} -> {}:{} {} [{}]",
            self.name,
            self.family,
            self.qualifier,
            self.data_type,
            self.codec.name()
        )
    }
}

/// A parsed, validated catalog.
#[derive(Clone, Debug)]
pub struct HBaseTableCatalog {
    pub table: TableName,
    pub table_coder: TableCoder,
    pub version: String,
    /// Indices into `columns` for each row-key dimension, in key order.
    pub row_key: Vec<usize>,
    pub columns: Vec<CatalogColumn>,
}

impl HBaseTableCatalog {
    /// Parse a catalog JSON document. `avro_schemas` resolves named Avro
    /// schemas referenced by `"avro":"name"`; an inline schema JSON string
    /// is also accepted as the value.
    pub fn parse(text: &str, avro_schemas: &HashMap<String, String>) -> Result<Self> {
        let json = parse_json(text)?;
        Self::from_json(&json, avro_schemas)
    }

    /// Parse with no named Avro schemas.
    pub fn parse_simple(text: &str) -> Result<Self> {
        Self::parse(text, &HashMap::new())
    }

    fn from_json(json: &Json, avro_schemas: &HashMap<String, String>) -> Result<Self> {
        let table_obj = json
            .get("table")
            .ok_or_else(|| ShcError::Catalog("missing \"table\" section".into()))?;
        let namespace = table_obj.get_str("namespace").unwrap_or("default");
        let name = table_obj
            .get_str("name")
            .ok_or_else(|| ShcError::Catalog("missing table name".into()))?;
        let coder_name = table_obj.get_str("tableCoder").unwrap_or("PrimitiveType");
        let table_coder = TableCoder::from_name(coder_name)
            .ok_or_else(|| ShcError::Catalog(format!("unknown tableCoder {coder_name}")))?;
        let version = table_obj
            .get_str("Version")
            .or_else(|| table_obj.get_str("version"))
            .unwrap_or("1.0")
            .to_string();

        let rowkey_spec = json
            .get_str("rowkey")
            .ok_or_else(|| ShcError::Catalog("missing \"rowkey\" attribute".into()))?;

        let columns_obj = json
            .get("columns")
            .and_then(Json::as_object)
            .ok_or_else(|| ShcError::Catalog("missing \"columns\" object".into()))?;

        let mut columns = Vec::with_capacity(columns_obj.len());
        for (col_name, spec) in columns_obj {
            let family = spec
                .get_str("cf")
                .ok_or_else(|| ShcError::Catalog(format!("column {col_name} missing \"cf\"")))?
                .to_string();
            let qualifier = spec
                .get_str("col")
                .ok_or_else(|| ShcError::Catalog(format!("column {col_name} missing \"col\"")))?
                .to_string();

            let (data_type, codec, avro_schema): (
                DataType,
                Arc<dyn FieldCodec>,
                Option<AvroSchema>,
            ) = if let Some(avro_ref) = spec.get_str("avro") {
                // Named schema, or inline schema JSON.
                let schema_text = avro_schemas
                    .get(avro_ref)
                    .map(String::as_str)
                    .unwrap_or(avro_ref);
                let schema = AvroSchema::parse(schema_text).map_err(|e| {
                    ShcError::Catalog(format!(
                        "column {col_name}: cannot resolve avro schema {avro_ref:?}: {e}"
                    ))
                })?;
                let dt = schema.to_data_type();
                (
                    dt,
                    Arc::new(crate::encoder::avro::AvroValueCodec::with_schema(
                        schema.clone(),
                    )) as Arc<dyn FieldCodec>,
                    Some(schema),
                )
            } else {
                let type_name = spec.get_str("type").ok_or_else(|| {
                    ShcError::Catalog(format!("column {col_name} needs \"type\" or \"avro\""))
                })?;
                let dt = parse_type_name(type_name)
                    .map_err(|e| ShcError::Catalog(format!("column {col_name}: {e}")))?;
                // Row-key dimensions must sort byte-wise, so they always
                // use the order-preserving native codec — even when the
                // table's value coder is Avro.
                let codec = if family == ROWKEY_FAMILY {
                    TableCoder::PrimitiveType.codec()
                } else {
                    table_coder.codec()
                };
                (dt, codec, None)
            };

            columns.push(CatalogColumn {
                name: col_name.clone(),
                family,
                qualifier,
                data_type,
                codec,
                avro_schema,
            });
        }

        // Resolve the row-key spec: each dimension names the `col` of a
        // column in the reserved "rowkey" family.
        let mut row_key = Vec::new();
        for dim in rowkey_spec.split(':') {
            let idx = columns
                .iter()
                .position(|c| c.is_rowkey() && c.qualifier == dim)
                .ok_or_else(|| {
                    ShcError::Catalog(format!(
                        "rowkey dimension {dim:?} has no column with cf=\"rowkey\""
                    ))
                })?;
            row_key.push(idx);
        }
        if row_key.is_empty() {
            return Err(ShcError::Catalog("empty rowkey spec".into()));
        }

        let catalog = HBaseTableCatalog {
            table: TableName::new(namespace, name),
            table_coder,
            version,
            row_key,
            columns,
        };
        catalog.validate()?;
        Ok(catalog)
    }

    fn validate(&self) -> Result<()> {
        // Unique relational names.
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|o| o.name == c.name) {
                return Err(ShcError::Catalog(format!(
                    "duplicate column name {}",
                    c.name
                )));
            }
        }
        // Every rowkey-family column must be a key dimension.
        for (i, c) in self.columns.iter().enumerate() {
            if c.is_rowkey() && !self.row_key.contains(&i) {
                return Err(ShcError::Catalog(format!(
                    "column {} uses cf=\"rowkey\" but is not in the rowkey spec",
                    c.name
                )));
            }
        }
        // Composite keys: every dimension except the last needs either a
        // fixed-width type or a string (terminated on write).
        for &idx in &self.row_key {
            let c = &self.columns[idx];
            if c.avro_schema.is_some() {
                return Err(ShcError::Catalog(format!(
                    "rowkey dimension {} cannot be Avro-encoded",
                    c.name
                )));
            }
        }
        Ok(())
    }

    /// The relational schema this catalog maps to (fields in catalog
    /// order).
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Field::new(c.name.clone(), c.data_type))
                .collect(),
        )
    }

    /// Column by relational name.
    pub fn column(&self, name: &str) -> Option<&CatalogColumn> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Row-key dimension columns, in key order.
    pub fn rowkey_columns(&self) -> Vec<&CatalogColumn> {
        self.row_key.iter().map(|&i| &self.columns[i]).collect()
    }

    /// The first (leading) row-key dimension — the pruning dimension.
    pub fn first_key_column(&self) -> &CatalogColumn {
        &self.columns[self.row_key[0]]
    }

    /// Non-key columns (stored in real column families).
    pub fn value_columns(&self) -> Vec<&CatalogColumn> {
        self.columns.iter().filter(|c| !c.is_rowkey()).collect()
    }

    /// Distinct column families used by value columns.
    pub fn families(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for c in self.value_columns() {
            if !out.contains(&c.family.as_str()) {
                out.push(&c.family);
            }
        }
        out
    }
}

/// The catalog for the paper's running example (`actives`, Code 1).
pub fn actives_catalog_json() -> &'static str {
    r#"{
        "table":{"namespace":"default", "name":"actives",
                 "tableCoder":"PrimitiveType", "Version":"2.0"},
        "rowkey":"key",
        "columns":{
            "col0":{"cf":"rowkey", "col":"key", "type":"string"},
            "user-id":{"cf":"cf1", "col":"col1", "type":"tinyint"},
            "visit-pages":{"cf":"cf2", "col":"col2", "type":"string"},
            "stay-time":{"cf":"cf3", "col":"col3", "type":"double"},
            "time":{"cf":"cf4", "col":"col4", "type":"time"}
        }
    }"#
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_catalog() {
        let c = HBaseTableCatalog::parse_simple(actives_catalog_json()).unwrap();
        assert_eq!(c.table.to_string(), "default:actives");
        assert_eq!(c.table_coder, TableCoder::PrimitiveType);
        assert_eq!(c.version, "2.0");
        assert_eq!(c.columns.len(), 5);
        assert_eq!(c.row_key, vec![0]);
        assert_eq!(c.first_key_column().name, "col0");
        assert_eq!(c.first_key_column().data_type, DataType::Utf8);
        assert_eq!(c.families(), vec!["cf1", "cf2", "cf3", "cf4"]);
    }

    #[test]
    fn schema_preserves_catalog_order_and_types() {
        let c = HBaseTableCatalog::parse_simple(actives_catalog_json()).unwrap();
        let s = c.schema();
        assert_eq!(
            s.field_names(),
            vec!["col0", "user-id", "visit-pages", "stay-time", "time"]
        );
        assert_eq!(s.field(1).data_type, DataType::Int8);
        assert_eq!(s.field(3).data_type, DataType::Float64);
        assert_eq!(s.field(4).data_type, DataType::Timestamp);
    }

    #[test]
    fn composite_rowkey() {
        let c = HBaseTableCatalog::parse_simple(
            r#"{
            "table":{"namespace":"default","name":"t"},
            "rowkey":"k1:k2",
            "columns":{
                "key_part_1":{"cf":"rowkey","col":"k1","type":"string"},
                "key_part_2":{"cf":"rowkey","col":"k2","type":"int"},
                "v":{"cf":"cf1","col":"v","type":"double"}
            }}"#,
        )
        .unwrap();
        assert_eq!(c.row_key.len(), 2);
        assert_eq!(c.rowkey_columns()[1].name, "key_part_2");
        assert_eq!(c.first_key_column().name, "key_part_1");
    }

    #[test]
    fn avro_column_via_named_schema() {
        let mut schemas = HashMap::new();
        schemas.insert(
            "avroSchema".to_string(),
            r#"{"type":"record","name":"R","fields":[{"name":"x","type":"string"}]}"#.to_string(),
        );
        let c = HBaseTableCatalog::parse(
            r#"{
            "table":{"namespace":"default","name":"avrotable"},
            "rowkey":"key",
            "columns":{
                "col0":{"cf":"rowkey","col":"key","type":"string"},
                "col1":{"cf":"cf1","col":"col1","avro":"avroSchema"}
            }}"#,
            &schemas,
        )
        .unwrap();
        let col1 = c.column("col1").unwrap();
        assert!(col1.avro_schema.is_some());
        assert_eq!(col1.data_type, DataType::Binary);
        assert_eq!(col1.codec.name(), "Avro");
    }

    #[test]
    fn avro_inline_schema() {
        let c = HBaseTableCatalog::parse_simple(
            r#"{
            "table":{"namespace":"default","name":"t"},
            "rowkey":"key",
            "columns":{
                "col0":{"cf":"rowkey","col":"key","type":"string"},
                "col1":{"cf":"cf1","col":"c","avro":"[\"null\",\"double\"]"}
            }}"#,
        )
        .unwrap();
        assert_eq!(c.column("col1").unwrap().data_type, DataType::Float64);
    }

    #[test]
    fn missing_rowkey_column_errors() {
        let err = HBaseTableCatalog::parse_simple(
            r#"{
            "table":{"namespace":"default","name":"t"},
            "rowkey":"nope",
            "columns":{
                "col0":{"cf":"rowkey","col":"key","type":"string"},
                "v":{"cf":"cf1","col":"v","type":"int"}
            }}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn duplicate_names_rejected() {
        // Duplicate member keys in JSON become duplicate columns.
        let err = HBaseTableCatalog::parse_simple(
            r#"{
            "table":{"namespace":"default","name":"t"},
            "rowkey":"key",
            "columns":{
                "col0":{"cf":"rowkey","col":"key","type":"string"},
                "v":{"cf":"cf1","col":"a","type":"int"},
                "v":{"cf":"cf1","col":"b","type":"int"}
            }}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn stray_rowkey_family_column_rejected() {
        let err = HBaseTableCatalog::parse_simple(
            r#"{
            "table":{"namespace":"default","name":"t"},
            "rowkey":"key",
            "columns":{
                "col0":{"cf":"rowkey","col":"key","type":"string"},
                "ghost":{"cf":"rowkey","col":"other","type":"string"}
            }}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("rowkey"));
    }

    #[test]
    fn unknown_coder_and_type_rejected() {
        assert!(HBaseTableCatalog::parse_simple(
            r#"{"table":{"name":"t","tableCoder":"Proto"},"rowkey":"k",
                "columns":{"c":{"cf":"rowkey","col":"k","type":"string"}}}"#,
        )
        .is_err());
        assert!(HBaseTableCatalog::parse_simple(
            r#"{"table":{"name":"t"},"rowkey":"k",
                "columns":{"c":{"cf":"rowkey","col":"k","type":"uuid"}}}"#,
        )
        .is_err());
    }

    /// The catalog reader is the workspace's strict JSON parser: a raw tab
    /// inside a string (valid only as `\t`) is a catalog error, not a name.
    #[test]
    fn raw_control_character_in_a_string_is_a_catalog_error() {
        let text = actives_catalog_json().replace("actives", "act\tives");
        match HBaseTableCatalog::parse_simple(&text) {
            Err(ShcError::Catalog(why)) => assert!(why.contains("control character"), "{why}"),
            other => panic!("expected a catalog error, got {other:?}"),
        }
        let escaped = actives_catalog_json().replace("actives", "act\\tives");
        let catalog = HBaseTableCatalog::parse_simple(&escaped).unwrap();
        assert_eq!(catalog.table.name, "act\tives");
    }

    #[test]
    fn case_insensitive_lookup() {
        let c = HBaseTableCatalog::parse_simple(actives_catalog_json()).unwrap();
        assert!(c.column("USER-ID").is_some());
        assert_eq!(c.column_index("Stay-Time"), Some(3));
    }
}
