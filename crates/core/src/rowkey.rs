//! Composite row-key encoding.
//!
//! A row key is the concatenation of its dimension encodings. Fixed-width
//! dimensions (numerics, under an order-preserving codec) concatenate
//! directly; variable-width dimensions (strings, binary) are terminated
//! with a `0x00` separator unless they are the last dimension — the usual
//! HBase composite-key layout. Partition pruning operates on the **first**
//! dimension only, exactly as the paper states (§VI.1); pruning on all
//! dimensions is the paper's named future work and is available behind
//! [`crate::conf::PruningMode::AllDimensions`].

use crate::catalog::HBaseTableCatalog;
use crate::encoder::primitive::fixed_width;
use crate::error::{Result, ShcError};
use shc_engine::value::{DataType, Value};

/// Separator byte between variable-width key dimensions.
pub const KEY_SEPARATOR: u8 = 0x00;

/// Encode a full row key from dimension values (in key order).
pub fn encode_rowkey(catalog: &HBaseTableCatalog, values: &[Value]) -> Result<Vec<u8>> {
    let dims = catalog.rowkey_columns();
    if values.len() != dims.len() {
        return Err(ShcError::Codec(format!(
            "row key needs {} dimension(s), got {}",
            dims.len(),
            values.len()
        )));
    }
    let mut out = Vec::new();
    for (i, (col, value)) in dims.iter().zip(values).enumerate() {
        if value.is_null() {
            return Err(ShcError::Codec(format!(
                "row-key dimension {} cannot be NULL",
                col.name
            )));
        }
        let encoded = col.codec.encode(value, col.data_type)?;
        let is_last = i + 1 == dims.len();
        if fixed_width(col.data_type).is_none() {
            if encoded.contains(&KEY_SEPARATOR) {
                return Err(ShcError::Codec(format!(
                    "variable-width key dimension {} contains the 0x00 separator",
                    col.name
                )));
            }
            out.extend_from_slice(&encoded);
            if !is_last {
                out.push(KEY_SEPARATOR);
            }
        } else {
            out.extend_from_slice(&encoded);
        }
    }
    Ok(out)
}

/// Decode a row key back into dimension values (in key order).
pub fn decode_rowkey(catalog: &HBaseTableCatalog, bytes: &[u8]) -> Result<Vec<Value>> {
    let mut out = Vec::with_capacity(catalog.row_key.len());
    decode_rowkey_into(catalog, bytes, &mut out)?;
    Ok(out)
}

/// [`decode_rowkey`] into `out`, which is cleared first: a reader decoding
/// row after row reuses one buffer.
pub fn decode_rowkey_into(
    catalog: &HBaseTableCatalog,
    bytes: &[u8],
    out: &mut Vec<Value>,
) -> Result<()> {
    out.clear();
    let dims = catalog.row_key.len();
    let mut pos = 0usize;
    for (i, &idx) in catalog.row_key.iter().enumerate() {
        let col = &catalog.columns[idx];
        let is_last = i + 1 == dims;
        let slice = match fixed_width(col.data_type) {
            Some(width) => {
                let slice = bytes.get(pos..pos + width).ok_or_else(|| {
                    ShcError::Codec(format!("row key too short for dimension {}", col.name))
                })?;
                pos += width;
                slice
            }
            None => {
                if is_last {
                    let slice = &bytes[pos..];
                    pos = bytes.len();
                    slice
                } else {
                    let rel = bytes[pos..]
                        .iter()
                        .position(|&b| b == KEY_SEPARATOR)
                        .ok_or_else(|| {
                            ShcError::Codec(format!(
                                "missing separator after dimension {}",
                                col.name
                            ))
                        })?;
                    let slice = &bytes[pos..pos + rel];
                    pos += rel + 1;
                    slice
                }
            }
        };
        out.push(col.codec.decode(slice, col.data_type)?);
    }
    if pos != bytes.len() {
        return Err(ShcError::Codec(format!(
            "{} trailing bytes after row key",
            bytes.len() - pos
        )));
    }
    Ok(())
}

/// Encode just the first (leading) dimension — the pruning prefix.
pub fn encode_first_dimension(catalog: &HBaseTableCatalog, value: &Value) -> Result<Vec<u8>> {
    let col = catalog.first_key_column();
    col.codec.encode(value, col.data_type)
}

/// Encoded byte spans of every dimension within a key, for all-dimension
/// pruning (the paper's future-work extension).
pub fn dimension_spans(catalog: &HBaseTableCatalog, bytes: &[u8]) -> Result<Vec<(usize, usize)>> {
    let dims = catalog.row_key.len();
    let mut spans = Vec::with_capacity(dims);
    let mut pos = 0usize;
    for (i, &idx) in catalog.row_key.iter().enumerate() {
        let col = &catalog.columns[idx];
        let is_last = i + 1 == dims;
        let start = pos;
        match fixed_width(col.data_type) {
            Some(width) => pos += width,
            None if is_last => pos = bytes.len(),
            None => {
                let rel = bytes[pos..]
                    .iter()
                    .position(|&b| b == KEY_SEPARATOR)
                    .ok_or_else(|| ShcError::Codec("missing separator".into()))?;
                pos += rel;
            }
        }
        if pos > bytes.len() {
            return Err(ShcError::Codec("row key too short".into()));
        }
        spans.push((start, pos));
        if !is_last && fixed_width(col.data_type).is_none() {
            pos += 1; // skip the separator
        }
    }
    Ok(spans)
}

/// Does a DataType dimension have fixed encoded width? Re-exported for
/// pruning logic.
pub fn is_fixed_width(dt: DataType) -> bool {
    fixed_width(dt).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::actives_catalog_json;

    fn single_key_catalog() -> HBaseTableCatalog {
        HBaseTableCatalog::parse_simple(actives_catalog_json()).unwrap()
    }

    fn composite_catalog() -> HBaseTableCatalog {
        HBaseTableCatalog::parse_simple(
            r#"{
            "table":{"namespace":"default","name":"t"},
            "rowkey":"k1:k2:k3",
            "columns":{
                "name":{"cf":"rowkey","col":"k1","type":"string"},
                "year":{"cf":"rowkey","col":"k2","type":"int"},
                "tag":{"cf":"rowkey","col":"k3","type":"string"},
                "v":{"cf":"cf1","col":"v","type":"double"}
            }}"#,
        )
        .unwrap()
    }

    #[test]
    fn single_string_key_roundtrip() {
        let c = single_key_catalog();
        let key = encode_rowkey(&c, &[Value::Utf8("row120".into())]).unwrap();
        assert_eq!(key, b"row120");
        assert_eq!(
            decode_rowkey(&c, &key).unwrap(),
            vec![Value::Utf8("row120".into())]
        );
    }

    #[test]
    fn composite_key_roundtrip() {
        let c = composite_catalog();
        let values = vec![
            Value::Utf8("widget".into()),
            Value::Int32(2017),
            Value::Utf8("blue".into()),
        ];
        let key = encode_rowkey(&c, &values).unwrap();
        assert_eq!(decode_rowkey(&c, &key).unwrap(), values);
    }

    #[test]
    fn composite_key_sort_order_on_first_dimension() {
        let c = composite_catalog();
        let k = |s: &str, y: i32| {
            encode_rowkey(
                &c,
                &[
                    Value::Utf8(s.into()),
                    Value::Int32(y),
                    Value::Utf8("t".into()),
                ],
            )
            .unwrap()
        };
        assert!(k("apple", 2020) < k("banana", 1990));
        // Same first dim: second dimension (sign-flipped int) orders.
        assert!(k("apple", -5) < k("apple", 3));
    }

    #[test]
    fn null_key_dimension_rejected() {
        let c = single_key_catalog();
        assert!(encode_rowkey(&c, &[Value::Null]).is_err());
    }

    #[test]
    fn wrong_arity_rejected() {
        let c = composite_catalog();
        assert!(encode_rowkey(&c, &[Value::Utf8("x".into())]).is_err());
    }

    #[test]
    fn separator_byte_in_string_key_rejected() {
        let c = composite_catalog();
        let err = encode_rowkey(
            &c,
            &[
                Value::Utf8("a\0b".into()),
                Value::Int32(1),
                Value::Utf8("t".into()),
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("separator"));
    }

    #[test]
    fn truncated_key_rejected() {
        let c = composite_catalog();
        let key = encode_rowkey(
            &c,
            &[
                Value::Utf8("x".into()),
                Value::Int32(7),
                Value::Utf8("tail".into()),
            ],
        )
        .unwrap();
        assert!(decode_rowkey(&c, &key[..3]).is_err());
    }

    #[test]
    fn first_dimension_prefix() {
        let c = composite_catalog();
        let prefix = encode_first_dimension(&c, &Value::Utf8("widget".into())).unwrap();
        let full = encode_rowkey(
            &c,
            &[
                Value::Utf8("widget".into()),
                Value::Int32(1),
                Value::Utf8("t".into()),
            ],
        )
        .unwrap();
        assert!(full.starts_with(&prefix));
    }

    #[test]
    fn dimension_spans_cover_key() {
        let c = composite_catalog();
        let key = encode_rowkey(
            &c,
            &[
                Value::Utf8("ab".into()),
                Value::Int32(9),
                Value::Utf8("zz".into()),
            ],
        )
        .unwrap();
        let spans = dimension_spans(&c, &key).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0], (0, 2)); // "ab"
        assert_eq!(spans[1], (3, 7)); // int32 after separator
        assert_eq!(spans[2], (7, key.len()));
    }
}
