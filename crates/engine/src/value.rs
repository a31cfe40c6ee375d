//! Runtime values and data types — the engine's scalar type system.
//!
//! Values are dynamically typed at execution time; the analyzer guarantees
//! type compatibility beforehand. Comparison and arithmetic coerce within
//! the numeric family (integers widen to `i64`, any float promotes both
//! sides to `f64`), matching Spark SQL's loose numeric semantics.

use std::cmp::Ordering;
use std::fmt;

/// Logical data types supported by the engine. These correspond 1:1 to the
/// SHC catalog types (`tinyint`, `int`, `bigint`, `float`, `double`,
/// `string`, `boolean`, `binary`, `time`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    Boolean,
    Int8,
    Int16,
    Int32,
    Int64,
    Float32,
    Float64,
    Utf8,
    Binary,
    /// Millisecond epoch timestamp.
    Timestamp,
}

impl DataType {
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            DataType::Int8
                | DataType::Int16
                | DataType::Int32
                | DataType::Int64
                | DataType::Float32
                | DataType::Float64
        )
    }

    pub fn is_integer(self) -> bool {
        matches!(
            self,
            DataType::Int8 | DataType::Int16 | DataType::Int32 | DataType::Int64
        )
    }

    /// The wider of two numeric types for arithmetic results.
    pub fn numeric_widen(self, other: DataType) -> DataType {
        use DataType::*;
        if self == Float64 || other == Float64 || self == Float32 || other == Float32 {
            Float64
        } else {
            // Integer widening: result is the larger width, capped at Int64.
            let rank = |t: DataType| match t {
                Int8 => 1,
                Int16 => 2,
                Int32 => 3,
                _ => 4,
            };
            match rank(self).max(rank(other)) {
                1 => Int8,
                2 => Int16,
                3 => Int32,
                _ => Int64,
            }
        }
    }

    /// Are values of these two types comparable at all?
    pub fn comparable_with(self, other: DataType) -> bool {
        self == other
            || (self.is_numeric() && other.is_numeric())
            || (self == DataType::Timestamp && other.is_integer())
            || (other == DataType::Timestamp && self.is_integer())
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Boolean => "boolean",
            DataType::Int8 => "tinyint",
            DataType::Int16 => "smallint",
            DataType::Int32 => "int",
            DataType::Int64 => "bigint",
            DataType::Float32 => "float",
            DataType::Float64 => "double",
            DataType::Utf8 => "string",
            DataType::Binary => "binary",
            DataType::Timestamp => "timestamp",
        };
        f.write_str(s)
    }
}

/// A runtime scalar.
#[derive(Clone, Debug)]
pub enum Value {
    Null,
    Boolean(bool),
    Int8(i8),
    Int16(i16),
    Int32(i32),
    Int64(i64),
    Float32(f32),
    Float64(f64),
    Utf8(String),
    Binary(Vec<u8>),
    Timestamp(i64),
}

impl Value {
    pub fn data_type(&self) -> Option<DataType> {
        Some(match self {
            Value::Null => return None,
            Value::Boolean(_) => DataType::Boolean,
            Value::Int8(_) => DataType::Int8,
            Value::Int16(_) => DataType::Int16,
            Value::Int32(_) => DataType::Int32,
            Value::Int64(_) => DataType::Int64,
            Value::Float32(_) => DataType::Float32,
            Value::Float64(_) => DataType::Float64,
            Value::Utf8(_) => DataType::Utf8,
            Value::Binary(_) => DataType::Binary,
            Value::Timestamp(_) => DataType::Timestamp,
        })
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as i64, when the value is an integer or timestamp.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int8(v) => Some(*v as i64),
            Value::Int16(v) => Some(*v as i64),
            Value::Int32(v) => Some(*v as i64),
            Value::Int64(v) => Some(*v),
            Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric view as f64 for any numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float32(v) => Some(*v as f64),
            Value::Float64(v) => Some(*v),
            other => other.as_i64().map(|v| v as f64),
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Utf8(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate in-memory footprint, used for shuffle and memory
    /// accounting.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Boolean(_) | Value::Int8(_) => 1,
            Value::Int16(_) => 2,
            Value::Int32(_) | Value::Float32(_) => 4,
            Value::Int64(_) | Value::Float64(_) | Value::Timestamp(_) => 8,
            Value::Utf8(s) => s.len() + 4,
            Value::Binary(b) => b.len() + 4,
        }
    }

    /// SQL three-valued comparison: `None` when either side is NULL or the
    /// types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (Utf8(a), Utf8(b)) => Some(a.cmp(b)),
            (Binary(a), Binary(b)) => Some(a.cmp(b)),
            (a, b) => {
                // Numeric family (incl. timestamps): integers compare
                // exactly, any float promotes to f64.
                match (a, b) {
                    (Float32(_) | Float64(_), _) | (_, Float32(_) | Float64(_)) => {
                        let (x, y) = (a.as_f64()?, b.as_f64()?);
                        x.partial_cmp(&y)
                    }
                    _ => {
                        let (x, y) = (a.as_i64()?, b.as_i64()?);
                        Some(x.cmp(&y))
                    }
                }
            }
        }
    }

    /// The total order `ORDER BY` sorts by. Where [`sql_cmp`](Self::sql_cmp)
    /// decides, it decides here too (so `-0.0 = 0.0`); where it cannot,
    /// NULL sorts before everything, NaN after every other number (Spark's
    /// order), and values of different kinds — which one key column never
    /// mixes — by kind.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> (u8, bool) {
            match v {
                Value::Null => (0, false),
                Value::Boolean(_) => (1, false),
                Value::Utf8(_) => (3, false),
                Value::Binary(_) => (4, false),
                number => (2, number.as_f64().is_some_and(f64::is_nan)),
            }
        }
        self.sql_cmp(other)
            .unwrap_or_else(|| rank(self).cmp(&rank(other)))
    }

    /// Strict equality for grouping/joining: NULL equals NULL here (SQL
    /// GROUP BY semantics), and numeric comparison follows `sql_cmp`.
    pub fn group_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Null, _) | (_, Value::Null) => false,
            (a, b) => a.sql_cmp(b) == Some(Ordering::Equal),
        }
    }

    /// Hash key for grouping/shuffling, consistent with `group_eq`.
    pub fn group_hash(&self, state: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        match self {
            Value::Null => 0u8.hash(state),
            Value::Boolean(b) => (1u8, b).hash(state),
            Value::Utf8(s) => (2u8, s).hash(state),
            Value::Binary(b) => (3u8, b).hash(state),
            // All numerics hash through a canonical form so that Int32(5)
            // and Int64(5) group together, like their comparison.
            other => {
                if let Some(i) = other.as_i64() {
                    (4u8, i).hash(state);
                } else if let Some(f) = other.as_f64() {
                    if f.fract() == 0.0 && f.abs() < 9e15 {
                        (4u8, f as i64).hash(state);
                    } else {
                        (5u8, f.to_bits()).hash(state);
                    }
                }
            }
        }
    }

    /// Cast to a target type; `Null` stays `Null`. Lossy numeric casts
    /// truncate like SQL CAST.
    pub fn cast_to(&self, target: DataType) -> Option<Value> {
        if self.is_null() {
            return Some(Value::Null);
        }
        Some(match target {
            DataType::Boolean => Value::Boolean(self.as_bool()?),
            DataType::Int8 => Value::Int8(self.numeric_i64()? as i8),
            DataType::Int16 => Value::Int16(self.numeric_i64()? as i16),
            DataType::Int32 => Value::Int32(self.numeric_i64()? as i32),
            DataType::Int64 => Value::Int64(self.numeric_i64()?),
            DataType::Float32 => Value::Float32(self.as_f64()? as f32),
            DataType::Float64 => Value::Float64(self.as_f64()?),
            DataType::Utf8 => Value::Utf8(self.to_display_string()),
            DataType::Binary => match self {
                Value::Binary(b) => Value::Binary(b.clone()),
                Value::Utf8(s) => Value::Binary(s.as_bytes().to_vec()),
                _ => return None,
            },
            DataType::Timestamp => Value::Timestamp(self.numeric_i64()?),
        })
    }

    fn numeric_i64(&self) -> Option<i64> {
        self.as_i64().or_else(|| self.as_f64().map(|f| f as i64))
    }

    /// Human-readable rendering (also the CAST-to-string form).
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Boolean(b) => b.to_string(),
            Value::Int8(v) => v.to_string(),
            Value::Int16(v) => v.to_string(),
            Value::Int32(v) => v.to_string(),
            Value::Int64(v) => v.to_string(),
            Value::Float32(v) => format!("{v}"),
            Value::Float64(v) => format!("{v}"),
            Value::Utf8(s) => s.clone(),
            Value::Binary(b) => format!("0x{}", hex(b)),
            Value::Timestamp(v) => v.to_string(),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display_string())
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality for tests and maps; NULL == NULL here.
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (a, b) => a.sql_cmp(b) == Some(Ordering::Equal),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Utf8(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Utf8(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_comparison_coerces() {
        assert_eq!(
            Value::Int32(5).sql_cmp(&Value::Int64(5)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int8(3).sql_cmp(&Value::Float64(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float32(2.0).sql_cmp(&Value::Int32(1)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn null_comparison_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int32(1)), None);
        assert_eq!(Value::Int32(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn incompatible_types_do_not_compare() {
        assert_eq!(Value::Utf8("a".into()).sql_cmp(&Value::Int32(1)), None);
        assert_eq!(
            Value::Boolean(true).sql_cmp(&Value::Utf8("true".into())),
            None
        );
    }

    #[test]
    fn group_eq_treats_null_as_equal() {
        assert!(Value::Null.group_eq(&Value::Null));
        assert!(!Value::Null.group_eq(&Value::Int32(0)));
        assert!(Value::Int32(7).group_eq(&Value::Int64(7)));
    }

    #[test]
    fn group_hash_consistent_across_int_widths() {
        fn h(v: &Value) -> u64 {
            use std::hash::Hasher;
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            v.group_hash(&mut hasher);
            hasher.finish()
        }
        assert_eq!(h(&Value::Int32(42)), h(&Value::Int64(42)));
        assert_eq!(h(&Value::Float64(42.0)), h(&Value::Int64(42)));
        assert_ne!(h(&Value::Int32(1)), h(&Value::Int32(2)));
    }

    #[test]
    fn casts_behave_like_sql() {
        assert_eq!(
            Value::Float64(3.9).cast_to(DataType::Int32),
            Some(Value::Int32(3))
        );
        assert_eq!(
            Value::Int32(1).cast_to(DataType::Utf8),
            Some(Value::Utf8("1".into()))
        );
        assert_eq!(Value::Null.cast_to(DataType::Int64), Some(Value::Null));
        assert_eq!(Value::Utf8("x".into()).cast_to(DataType::Int32), None);
    }

    #[test]
    fn widen_rules() {
        assert_eq!(
            DataType::Int8.numeric_widen(DataType::Int32),
            DataType::Int32
        );
        assert_eq!(
            DataType::Int64.numeric_widen(DataType::Float32),
            DataType::Float64
        );
    }

    #[test]
    fn byte_size_tracks_payload() {
        assert_eq!(Value::Int64(1).byte_size(), 8);
        assert_eq!(Value::Utf8("abc".into()).byte_size(), 7);
    }

    #[test]
    fn comparable_with_rules() {
        assert!(DataType::Int32.comparable_with(DataType::Float64));
        assert!(DataType::Timestamp.comparable_with(DataType::Int64));
        assert!(!DataType::Utf8.comparable_with(DataType::Int32));
    }
}
