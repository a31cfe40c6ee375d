//! Schemas: ordered, optionally-qualified, typed field lists. Name
//! resolution follows SQL rules — an unqualified name must be unambiguous
//! across the schema, a qualified name (`alias.column`) must match both
//! parts.

use crate::error::{EngineError, Result};
use crate::value::DataType;
use std::fmt;
use std::sync::Arc;

/// One column of a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Table alias / name this field originates from, if any.
    pub qualifier: Option<String>,
    pub name: String,
    pub data_type: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            qualifier: None,
            name: name.into(),
            data_type,
        }
    }

    pub fn qualified(
        qualifier: impl Into<String>,
        name: impl Into<String>,
        data_type: DataType,
    ) -> Self {
        Field {
            qualifier: Some(qualifier.into()),
            name: name.into(),
            data_type,
        }
    }

    pub fn with_qualifier(mut self, qualifier: impl Into<String>) -> Self {
        self.qualifier = Some(qualifier.into());
        self
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}: {}", self.name, self.data_type),
            None => write!(f, "{}: {}", self.name, self.data_type),
        }
    }
}

/// An ordered list of fields. Cheap to clone via `Arc` ([`SchemaRef`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    pub fields: Vec<Field>,
}

pub type SchemaRef = Arc<Schema>;

impl Schema {
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Resolve a possibly-qualified column name to its index.
    ///
    /// Unqualified names match on field name alone and must be unambiguous.
    /// Qualified names must match qualifier and name.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut matches = self.fields.iter().enumerate().filter(|(_, f)| {
            f.name.eq_ignore_ascii_case(name)
                && qualifier.is_none_or(|q| {
                    f.qualifier
                        .as_deref()
                        .is_some_and(|fq| fq.eq_ignore_ascii_case(q))
                })
        });
        match (matches.next(), matches.next()) {
            (Some((i, _)), None) => Ok(i),
            (None, _) => Err(EngineError::Analysis(format!(
                "column not found: {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            (Some(_), Some(_)) => Err(EngineError::Analysis(format!(
                "ambiguous column reference: {name}"
            ))),
        }
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema { fields }
    }

    /// Re-qualify every field (subquery alias: `FROM (...) x`).
    pub fn with_qualifier(&self, qualifier: &str) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| Field {
                    qualifier: Some(qualifier.to_string()),
                    name: f.name.clone(),
                    data_type: f.data_type,
                })
                .collect(),
        }
    }

    /// Project a subset of columns by index.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            fields: indices.iter().map(|&i| self.fields[i].clone()).collect(),
        }
    }

    pub fn field_names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// The declared column types, in order.
    pub fn data_types(&self) -> Vec<DataType> {
        self.fields.iter().map(|f| f.data_type).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::qualified("t", "id", DataType::Int64),
            Field::qualified("t", "name", DataType::Utf8),
            Field::qualified("u", "id", DataType::Int64),
        ])
    }

    #[test]
    fn unqualified_resolution_unique() {
        let s = schema();
        assert_eq!(s.resolve(None, "name").unwrap(), 1);
    }

    #[test]
    fn unqualified_ambiguous_errors() {
        let s = schema();
        let err = s.resolve(None, "id").unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn qualified_resolution_disambiguates() {
        let s = schema();
        assert_eq!(s.resolve(Some("t"), "id").unwrap(), 0);
        assert_eq!(s.resolve(Some("u"), "id").unwrap(), 2);
    }

    #[test]
    fn resolution_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.resolve(Some("T"), "ID").unwrap(), 0);
        assert_eq!(s.resolve(None, "NAME").unwrap(), 1);
    }

    #[test]
    fn missing_column_errors() {
        let s = schema();
        assert!(s.resolve(None, "nope").is_err());
        assert!(s.resolve(Some("x"), "id").is_err());
    }

    #[test]
    fn join_concatenates() {
        let a = Schema::new(vec![Field::new("a", DataType::Int32)]);
        let b = Schema::new(vec![Field::new("b", DataType::Utf8)]);
        let j = a.join(&b);
        assert_eq!(j.len(), 2);
        assert_eq!(j.field(1).name, "b");
    }

    #[test]
    fn requalify_and_project() {
        let s = schema().with_qualifier("x");
        assert!(s.fields.iter().all(|f| f.qualifier.as_deref() == Some("x")));
        let p = s.project(&[2, 0]);
        assert_eq!(p.field(0).name, "id");
        assert_eq!(p.len(), 2);
    }
}
