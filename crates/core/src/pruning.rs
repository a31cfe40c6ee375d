//! Partition pruning and selective predicate pushdown (paper §VI.1, §VI.3).
//!
//! Pushed-down [`SourceFilter`]s are split three ways:
//!
//! * predicates on the **first row-key dimension** become byte ranges on
//!   the key space ([`crate::ranges::RangeSet`]); regions whose key range
//!   intersects no scan range receive **no task at all** — partition
//!   pruning;
//! * predicates on value columns with order-preserving codecs become
//!   server-side [`shc_kvstore::filter::Filter`]s, evaluated inside the
//!   region server on raw bytes;
//! * everything else — `NOT IN` (the paper's explicit example), predicates
//!   on Avro columns, `IS [NOT] NULL` — is reported **unhandled** so the
//!   engine re-applies it after the fetch (the two-layer filtering
//!   contract).
//!
//! An `OR` whose branches do not all convert exactly forces a full scan,
//! exactly as the paper warns (`WHERE rowkey1 > "abc" OR column = "xyz"`).

use crate::catalog::{CatalogColumn, HBaseTableCatalog};
use crate::conf::{PruningMode, SHCConf};
use crate::ranges::{prefix_successor, RangeSet};
use crate::rowkey::is_fixed_width;
use shc_engine::source_filter::SourceFilter;
use shc_engine::value::Value;
use shc_kvstore::filter::{CompareOp, Filter, RowRange};
use std::cmp::Ordering;

/// The outcome of pushdown planning for one scan.
#[derive(Clone, Debug)]
pub struct PushdownPlan {
    /// Row-key ranges implied by first-dimension predicates. `RangeSet::all`
    /// when nothing restricts the key.
    pub ranges: RangeSet,
    /// Server-side filter conjunction for value-column predicates.
    pub kv_filter: Option<Filter>,
    /// Filters fully applied by ranges + kv_filter; the complement must be
    /// re-applied by the engine.
    pub handled: Vec<SourceFilter>,
}

impl PushdownPlan {
    /// The unhandled complement of the input filter list.
    pub fn unhandled(&self, all: &[SourceFilter]) -> Vec<SourceFilter> {
        all.iter()
            .filter(|f| !self.handled.contains(f))
            .cloned()
            .collect()
    }
}

/// One converted predicate: a sound over-approximation as ranges/filters,
/// plus whether the conversion is *exact* (row sets identical).
struct Converted {
    ranges: Option<RangeSet>,
    kv: Option<Filter>,
    exact: bool,
}

impl Converted {
    fn nothing() -> Converted {
        Converted {
            ranges: None,
            kv: None,
            exact: false,
        }
    }
}

/// Plan pushdown for a conjunction of source filters.
pub fn plan_pushdown(
    catalog: &HBaseTableCatalog,
    conf: &SHCConf,
    filters: &[SourceFilter],
) -> PushdownPlan {
    if !conf.predicate_pushdown {
        return PushdownPlan {
            ranges: RangeSet::all(),
            kv_filter: None,
            handled: Vec::new(),
        };
    }
    let mut ranges = RangeSet::all();
    let mut kv: Option<Filter> = None;
    let mut handled = Vec::new();
    for filter in filters {
        let converted = convert(catalog, filter);
        if let Some(r) = &converted.ranges {
            ranges = ranges.intersect(r);
        }
        if let Some(f) = converted.kv.clone() {
            kv = Filter::and_opt(kv, Some(f));
        }
        if converted.exact {
            handled.push(filter.clone());
        }
    }
    if conf.partition_pruning == PruningMode::AllDimensions {
        // The paper's future-work extension: refine ranges using
        // constraints on later row-key dimensions when every earlier
        // dimension is point-constrained.
        if let Some((refined, extra_handled)) = all_dimension_refine(catalog, filters) {
            ranges = ranges.intersect(&refined);
            for f in extra_handled {
                if !handled.contains(&f) {
                    handled.push(f);
                }
            }
        }
    }
    if conf.partition_pruning == PruningMode::Disabled {
        // Ranges are not used for pruning or scan bounds; every predicate
        // whose exactness depended on them must be re-applied engine-side.
        let range_free: Vec<SourceFilter> = handled
            .into_iter()
            .filter(|f| {
                let c = convert(catalog, f);
                c.ranges.is_none() || c.ranges.is_none_or(|r| r.is_full())
            })
            .collect();
        return PushdownPlan {
            ranges: RangeSet::all(),
            kv_filter: kv,
            handled: range_free,
        };
    }
    PushdownPlan {
        ranges,
        kv_filter: kv,
        handled,
    }
}

/// Convert one filter tree.
fn convert(catalog: &HBaseTableCatalog, filter: &SourceFilter) -> Converted {
    match filter {
        SourceFilter::Eq(col, v) => convert_compare(catalog, col, CompareOp::Eq, v),
        SourceFilter::Gt(col, v) => convert_compare(catalog, col, CompareOp::Gt, v),
        SourceFilter::GtEq(col, v) => convert_compare(catalog, col, CompareOp::Ge, v),
        SourceFilter::Lt(col, v) => convert_compare(catalog, col, CompareOp::Lt, v),
        SourceFilter::LtEq(col, v) => convert_compare(catalog, col, CompareOp::Le, v),
        SourceFilter::In(col, values) => {
            // Union of equality conversions; exact iff all are.
            let points: Vec<Converted> = values
                .iter()
                .map(|v| convert_compare(catalog, col, CompareOp::Eq, v))
                .collect();
            let key_ranges: Option<Vec<&RangeSet>> = points
                .iter()
                .map(|c| match c {
                    Converted {
                        ranges: Some(r),
                        kv: None,
                        exact: true,
                    } => Some(r),
                    _ => None,
                })
                .collect();
            match key_ranges {
                // Key points merge in one pass however long the list is; an
                // empty list admits no value, so no row: the empty set.
                Some(sets) => Converted {
                    ranges: Some(RangeSet::from_ranges(
                        sets.into_iter().flat_map(|s| s.ranges().iter().cloned()),
                    )),
                    kv: None,
                    exact: true,
                },
                None => points
                    .into_iter()
                    .reduce(or_converted)
                    .unwrap_or_else(Converted::nothing),
            }
        }
        // The paper's §VI.3 example: NOT IN is never pushed down — scanning
        // a huge table to exclude a few points is not worth a server-side
        // filter.
        SourceFilter::NotIn(..) => Converted::nothing(),
        SourceFilter::StringStartsWith(col, prefix) => convert_prefix(catalog, col, prefix),
        // HBase has no native null-cell filter (absence means null).
        SourceFilter::IsNull(_) | SourceFilter::IsNotNull(_) => Converted::nothing(),
        SourceFilter::And(a, b) => {
            let ca = convert(catalog, a);
            let cb = convert(catalog, b);
            let ranges = match (ca.ranges, cb.ranges) {
                (Some(x), Some(y)) => Some(x.intersect(&y)),
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            };
            let kv = Filter::and_opt(ca.kv, cb.kv);
            Converted {
                ranges,
                kv,
                exact: ca.exact && cb.exact,
            }
        }
        SourceFilter::Or(a, b) => {
            let ca = convert(catalog, a);
            let cb = convert(catalog, b);
            or_converted(ca, cb)
        }
    }
}

/// OR combination: both sides must be exact and of the same kind, else the
/// whole disjunction degrades to a full scan handled engine-side.
fn or_converted(a: Converted, b: Converted) -> Converted {
    match (a, b) {
        // Pure key-range OR key-range: union of ranges.
        (
            Converted {
                ranges: Some(ra),
                kv: None,
                exact: true,
            },
            Converted {
                ranges: Some(rb),
                kv: None,
                exact: true,
            },
        ) => Converted {
            ranges: Some(ra.union(&rb)),
            kv: None,
            exact: true,
        },
        // Pure value-filter OR value-filter: server-side Or.
        (
            Converted {
                ranges: None,
                kv: Some(fa),
                exact: true,
            },
            Converted {
                ranges: None,
                kv: Some(fb),
                exact: true,
            },
        ) => Converted {
            ranges: None,
            kv: Some(Filter::Or(vec![fa, fb])),
            exact: true,
        },
        // Mixed (e.g. rowkey OR column): full scan, engine re-applies.
        _ => Converted::nothing(),
    }
}

/// Can this literal be encoded into the column's type without changing its
/// comparison semantics? Rejects lossy coercions like `int_col > 2.5`.
fn encode_comparable(col: &CatalogColumn, value: &Value) -> Option<Vec<u8>> {
    if !col.codec.order_preserving() {
        return None;
    }
    let coerced = value.cast_to(col.data_type)?;
    if coerced.is_null() || coerced.sql_cmp(value) != Some(Ordering::Equal) {
        return None;
    }
    col.codec.encode(&coerced, col.data_type).ok()
}

fn convert_compare(
    catalog: &HBaseTableCatalog,
    col_name: &str,
    op: CompareOp,
    value: &Value,
) -> Converted {
    let Some(col) = catalog.column(col_name) else {
        return Converted::nothing();
    };
    let Some(encoded) = encode_comparable(col, value) else {
        return Converted::nothing();
    };
    if col.is_rowkey() {
        if catalog.first_key_column().name == col.name {
            // First dimension: a key range (partition pruning, §VI.1).
            match first_dim_range(catalog, op, &encoded) {
                Some(set) => Converted {
                    ranges: Some(set),
                    kv: None,
                    exact: true,
                },
                None => Converted::nothing(),
            }
        } else {
            // Later dimension: cannot prune partitions (the paper limits
            // pruning to the first dimension); not exactly expressible as
            // a server filter on a column either — engine re-applies.
            Converted::nothing()
        }
    } else {
        // Value column: server-side SingleColumnValueFilter equivalent.
        Converted {
            ranges: None,
            kv: Some(Filter::ColumnValue {
                family: bytes::Bytes::copy_from_slice(col.family.as_bytes()),
                qualifier: bytes::Bytes::copy_from_slice(col.qualifier.as_bytes()),
                op,
                value: bytes::Bytes::from(encoded),
                filter_if_missing: true,
            }),
            exact: true,
        }
    }
}

fn convert_prefix(catalog: &HBaseTableCatalog, col_name: &str, prefix: &str) -> Converted {
    let Some(col) = catalog.column(col_name) else {
        return Converted::nothing();
    };
    if col.data_type != shc_engine::value::DataType::Utf8 || !col.codec.order_preserving() {
        return Converted::nothing();
    }
    let encoded = prefix.as_bytes().to_vec();
    if col.is_rowkey() && catalog.first_key_column().name == col.name {
        let stop = prefix_successor(&encoded);
        let range = RowRange {
            start: bytes::Bytes::from(encoded),
            stop: stop.map(bytes::Bytes::from).unwrap_or_default(),
        };
        Converted {
            ranges: Some(RangeSet::from_range(range)),
            kv: None,
            exact: true,
        }
    } else if !col.is_rowkey() {
        Converted {
            ranges: None,
            kv: Some(Filter::ColumnPrefix {
                family: bytes::Bytes::copy_from_slice(col.family.as_bytes()),
                qualifier: bytes::Bytes::copy_from_slice(col.qualifier.as_bytes()),
                prefix: bytes::Bytes::from(encoded),
            }),
            exact: true,
        }
    } else {
        Converted::nothing()
    }
}

/// All-dimension pruning (the paper's §VIII future work, implemented):
/// when row-key dimensions `0..p` are all equality-constrained, the
/// composite-key prefix is fixed, and a predicate on dimension `p` refines
/// the scan range *within* that prefix block.
///
/// Returns the refined range set plus the filters it fully absorbs, or
/// `None` when no refinement beyond the first dimension applies.
fn all_dimension_refine(
    catalog: &HBaseTableCatalog,
    filters: &[SourceFilter],
) -> Option<(RangeSet, Vec<SourceFilter>)> {
    let dims = catalog.rowkey_columns();
    let n = dims.len();
    if n < 2 {
        return None;
    }
    // Classify top-level conjuncts touching row-key dimensions.
    let dim_index =
        |col: &str| -> Option<usize> { dims.iter().position(|c| c.name.eq_ignore_ascii_case(col)) };
    let mut eq: Vec<Option<(Vec<u8>, SourceFilter)>> = vec![None; n];
    let mut range_preds: Vec<(usize, CompareOp, Vec<u8>, SourceFilter)> = Vec::new();
    for f in filters {
        let (col, op, value) = match f {
            SourceFilter::Eq(c, v) => (c, CompareOp::Eq, v),
            SourceFilter::Gt(c, v) => (c, CompareOp::Gt, v),
            SourceFilter::GtEq(c, v) => (c, CompareOp::Ge, v),
            SourceFilter::Lt(c, v) => (c, CompareOp::Lt, v),
            SourceFilter::LtEq(c, v) => (c, CompareOp::Le, v),
            _ => continue,
        };
        let Some(idx) = dim_index(col) else { continue };
        let Some(encoded) = encode_comparable(dims[idx], value) else {
            continue;
        };
        if op == CompareOp::Eq {
            if eq[idx].is_none() {
                eq[idx] = Some((encoded, f.clone()));
            }
        } else {
            range_preds.push((idx, op, encoded, f.clone()));
        }
    }
    // Longest fully point-constrained prefix.
    let p = eq.iter().map_while(Option::as_ref).count();
    if p == 0 {
        return None;
    }
    // Build the prefix bytes: every dimension in the prefix is followed by
    // more dimensions, so variable-width ones carry their separator —
    // unless the prefix covers the whole key.
    let mut prefix = Vec::new();
    let mut handled = Vec::new();
    for (idx, (encoded, filter)) in eq.iter().map_while(Option::as_ref).enumerate() {
        prefix.extend_from_slice(encoded);
        let is_last_dim = idx + 1 == n;
        if !is_last_dim && !is_fixed_width(dims[idx].data_type) {
            prefix.push(crate::rowkey::KEY_SEPARATOR);
        }
        handled.push(filter.clone());
    }
    let prefix_end = prefix_successor(&prefix);
    let make_range = |start: Vec<u8>, stop: Option<Vec<u8>>| {
        RangeSet::from_range(RowRange {
            start: bytes::Bytes::from(start),
            stop: stop.map(bytes::Bytes::from).unwrap_or_default(),
        })
    };
    // The prefix block itself.
    let mut ranges = if p == n {
        // Whole key point-constrained: a single row.
        let mut stop = prefix.clone();
        stop.push(0x00);
        make_range(prefix.clone(), Some(stop))
    } else {
        make_range(prefix.clone(), prefix_end.clone())
    };
    // Refine within the block using range predicates on dimension p.
    if p < n {
        for (idx, op, encoded, filter) in range_preds {
            if idx != p {
                continue; // can only refine the dimension right after the prefix
            }
            let is_last_dim = p + 1 == n;
            let var = !is_fixed_width(dims[p].data_type);
            let mut block_start = prefix.clone();
            block_start.extend_from_slice(&encoded);
            if !is_last_dim && var {
                block_start.push(crate::rowkey::KEY_SEPARATOR);
            }
            // First key after the dim-p = value block.
            let block_end: Option<Vec<u8>> = if is_last_dim {
                let mut v = prefix.clone();
                v.extend_from_slice(&encoded);
                v.push(0x00);
                Some(v)
            } else if var {
                let mut v = prefix.clone();
                v.extend_from_slice(&encoded);
                v.push(0x01);
                Some(v)
            } else {
                match prefix_successor(&encoded) {
                    Some(succ) => {
                        let mut v = prefix.clone();
                        v.extend_from_slice(&succ);
                        Some(v)
                    }
                    None => prefix_end.clone(),
                }
            };
            let refined = match op {
                CompareOp::Ge => make_range(block_start, prefix_end.clone()),
                CompareOp::Gt => match block_end {
                    Some(end) => make_range(end, prefix_end.clone()),
                    None => RangeSet::none(),
                },
                CompareOp::Lt => make_range(prefix.clone(), Some(block_start)),
                CompareOp::Le => make_range(prefix.clone(), block_end),
                // Equalities went into the prefix; `<>` has no range form.
                CompareOp::Eq | CompareOp::Ne => continue,
            };
            ranges = ranges.intersect(&refined);
            handled.push(filter);
        }
    }
    Some((ranges, handled))
}

/// The byte range of keys whose **first dimension** satisfies `op enc`.
///
/// The layout depends on whether the key is composite and whether the
/// first dimension is variable-width (then followed by the 0x00
/// separator):
///
/// * block start (first key with dim1 = v): `enc` for single/fixed,
///   `enc‖0x00` for composite variable-width;
/// * block end (first key after the dim1 = v block): `enc‖0x00` for a
///   single-dimension key (a point), `successor(enc)` for composite
///   fixed-width, `enc‖0x01` for composite variable-width.
fn first_dim_range(catalog: &HBaseTableCatalog, op: CompareOp, enc: &[u8]) -> Option<RangeSet> {
    let col = catalog.first_key_column();
    let single = catalog.row_key.len() == 1;
    let var = !is_fixed_width(col.data_type);

    let block_start: Vec<u8> = if !single && var {
        let mut v = enc.to_vec();
        v.push(0x00);
        v
    } else {
        enc.to_vec()
    };
    // None = unbounded (all 0xFF prefix).
    let block_end: Option<Vec<u8>> = if single {
        let mut v = enc.to_vec();
        v.push(0x00);
        Some(v)
    } else if var {
        let mut v = enc.to_vec();
        v.push(0x01);
        Some(v)
    } else {
        prefix_successor(enc)
    };

    let to_bytes = |v: Vec<u8>| bytes::Bytes::from(v);
    let range = |start: Vec<u8>, stop: Option<Vec<u8>>| {
        RangeSet::from_range(RowRange {
            start: to_bytes(start),
            stop: stop.map(to_bytes).unwrap_or_default(),
        })
    };
    Some(match op {
        CompareOp::Eq => range(block_start, block_end),
        CompareOp::Ge => range(block_start, None),
        CompareOp::Gt => match block_end {
            Some(end) => range(end, None),
            None => RangeSet::none(),
        },
        CompareOp::Lt => range(Vec::new(), Some(block_start)),
        CompareOp::Le => range(Vec::new(), block_end),
        CompareOp::Ne => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::actives_catalog_json;
    use shc_engine::value::Value;

    fn catalog() -> HBaseTableCatalog {
        HBaseTableCatalog::parse_simple(actives_catalog_json()).unwrap()
    }

    fn composite() -> HBaseTableCatalog {
        HBaseTableCatalog::parse_simple(
            r#"{
            "table":{"namespace":"default","name":"t"},
            "rowkey":"k1:k2",
            "columns":{
                "k1":{"cf":"rowkey","col":"k1","type":"string"},
                "k2":{"cf":"rowkey","col":"k2","type":"int"},
                "v":{"cf":"cf1","col":"v","type":"int"}
            }}"#,
        )
        .unwrap()
    }

    fn conf() -> SHCConf {
        SHCConf::default()
    }

    #[test]
    fn rowkey_le_becomes_range_and_is_handled() {
        // The paper's Code 3: df.filter($"col0" <= "row120").
        let filters = vec![SourceFilter::LtEq(
            "col0".into(),
            Value::Utf8("row120".into()),
        )];
        let plan = plan_pushdown(&catalog(), &conf(), &filters);
        assert_eq!(plan.handled, filters);
        assert!(!plan.ranges.is_full());
        assert!(plan.ranges.contains(b"row120"));
        assert!(plan.ranges.contains(b"row000"));
        assert!(!plan.ranges.contains(b"row121"));
        assert!(plan.kv_filter.is_none());
    }

    #[test]
    fn rowkey_eq_is_a_point_for_single_dimension_keys() {
        let filters = vec![SourceFilter::Eq("col0".into(), Value::Utf8("row5".into()))];
        let plan = plan_pushdown(&catalog(), &conf(), &filters);
        assert!(plan.ranges.contains(b"row5"));
        assert!(!plan.ranges.contains(b"row50")); // not a prefix match
        assert!(!plan.ranges.contains(b"row4"));
    }

    #[test]
    fn composite_first_dim_eq_selects_whole_block() {
        let filters = vec![SourceFilter::Eq("k1".into(), Value::Utf8("ab".into()))];
        let plan = plan_pushdown(&composite(), &conf(), &filters);
        // Keys look like "ab\0<int32>"; all must be admitted.
        let mut key = b"ab".to_vec();
        key.push(0);
        key.extend_from_slice(&[0x80, 0, 0, 7]);
        assert!(plan.ranges.contains(&key));
        // dim1 = "abc" (v is a strict prefix) must NOT be admitted.
        let mut other = b"abc".to_vec();
        other.push(0);
        other.extend_from_slice(&[0x80, 0, 0, 7]);
        assert!(!plan.ranges.contains(&other));
    }

    #[test]
    fn composite_first_dim_gt_excludes_block() {
        let filters = vec![SourceFilter::Gt("k1".into(), Value::Utf8("m".into()))];
        let plan = plan_pushdown(&composite(), &conf(), &filters);
        let mk = |s: &str| {
            let mut k = s.as_bytes().to_vec();
            k.push(0);
            k.extend_from_slice(&[0x80, 0, 0, 1]);
            k
        };
        assert!(!plan.ranges.contains(&mk("m"))); // equal: excluded
        assert!(plan.ranges.contains(&mk("ma")));
        assert!(plan.ranges.contains(&mk("z")));
        assert!(!plan.ranges.contains(&mk("a")));
    }

    #[test]
    fn second_dimension_predicates_are_unhandled() {
        let filters = vec![SourceFilter::Eq("k2".into(), Value::Int32(7))];
        let plan = plan_pushdown(&composite(), &conf(), &filters);
        assert!(plan.handled.is_empty());
        assert!(plan.ranges.is_full());
        assert_eq!(plan.unhandled(&filters), filters);
    }

    #[test]
    fn value_column_predicate_becomes_server_filter() {
        let filters = vec![SourceFilter::Gt("stay-time".into(), Value::Float64(3.5))];
        let plan = plan_pushdown(&catalog(), &conf(), &filters);
        assert_eq!(plan.handled, filters);
        assert!(plan.ranges.is_full());
        match plan.kv_filter.unwrap() {
            Filter::ColumnValue { family, op, .. } => {
                assert_eq!(family.as_ref(), b"cf3");
                assert_eq!(op, CompareOp::Gt);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn not_in_is_never_pushed() {
        // Paper §VI.3: SELECT * FROM tableA WHERE x NOT IN (a,b,c).
        let filters = vec![SourceFilter::NotIn(
            "user-id".into(),
            vec![Value::Int8(1), Value::Int8(2), Value::Int8(3)],
        )];
        let plan = plan_pushdown(&catalog(), &conf(), &filters);
        assert!(plan.handled.is_empty());
        assert!(plan.kv_filter.is_none());
        assert!(plan.ranges.is_full());
    }

    #[test]
    fn rowkey_or_column_forces_full_scan() {
        // Paper §VI.1: WHERE rowkey1 > "abc" OR column = "xyz" → full scan.
        let filters = vec![SourceFilter::Or(
            Box::new(SourceFilter::Gt("col0".into(), Value::Utf8("abc".into()))),
            Box::new(SourceFilter::Eq(
                "visit-pages".into(),
                Value::Utf8("xyz".into()),
            )),
        )];
        let plan = plan_pushdown(&catalog(), &conf(), &filters);
        assert!(plan.ranges.is_full());
        assert!(plan.handled.is_empty());
    }

    #[test]
    fn rowkey_or_rowkey_unions_ranges() {
        let filters = vec![SourceFilter::Or(
            Box::new(SourceFilter::Lt("col0".into(), Value::Utf8("b".into()))),
            Box::new(SourceFilter::GtEq("col0".into(), Value::Utf8("x".into()))),
        )];
        let plan = plan_pushdown(&catalog(), &conf(), &filters);
        assert_eq!(plan.handled.len(), 1);
        assert!(plan.ranges.contains(b"a"));
        assert!(!plan.ranges.contains(b"m"));
        assert!(plan.ranges.contains(b"z"));
    }

    #[test]
    fn column_or_column_becomes_server_or() {
        let filters = vec![SourceFilter::Or(
            Box::new(SourceFilter::Eq(
                "visit-pages".into(),
                Value::Utf8("home".into()),
            )),
            Box::new(SourceFilter::Eq(
                "visit-pages".into(),
                Value::Utf8("cart".into()),
            )),
        )];
        let plan = plan_pushdown(&catalog(), &conf(), &filters);
        assert_eq!(plan.handled.len(), 1);
        assert!(matches!(plan.kv_filter, Some(Filter::Or(_))));
    }

    #[test]
    fn in_on_rowkey_unions_points() {
        let filters = vec![SourceFilter::In(
            "col0".into(),
            vec![Value::Utf8("a".into()), Value::Utf8("c".into())],
        )];
        let plan = plan_pushdown(&catalog(), &conf(), &filters);
        assert_eq!(plan.handled.len(), 1);
        assert!(plan.ranges.contains(b"a"));
        assert!(!plan.ranges.contains(b"b"));
        assert!(plan.ranges.contains(b"c"));
    }

    #[test]
    fn an_empty_in_list_admits_no_row() {
        for col in ["col0", "user-id"] {
            let filters = vec![SourceFilter::In(col.into(), vec![])];
            let plan = plan_pushdown(&catalog(), &conf(), &filters);
            assert!(plan.ranges.is_empty(), "{col}");
            assert_eq!(plan.handled, filters, "{col}");
        }
    }

    #[test]
    fn a_long_in_list_converts_in_one_pass() {
        // 20 000 keys out of order, each twice: blocks of a composite key
        // that touch when consecutive, so every run of 16 keys is one range.
        let mut keys: Vec<i64> = (0..10_000).map(|i| i + 16 * (i / 16)).collect();
        keys.extend(keys.clone());
        keys.reverse();
        keys.swap(3, 9_000);
        let catalog = HBaseTableCatalog::parse_simple(
            r#"{
            "table":{"namespace":"default","name":"t"},
            "rowkey":"k1:k2",
            "columns":{
                "k1":{"cf":"rowkey","col":"k1","type":"bigint"},
                "k2":{"cf":"rowkey","col":"k2","type":"int"},
                "v":{"cf":"cf1","col":"v","type":"int"}
            }}"#,
        )
        .unwrap();
        let filters = vec![SourceFilter::In(
            "k1".into(),
            keys.iter().map(|&k| Value::Int64(k)).collect(),
        )];
        let plan = plan_pushdown(&catalog, &conf(), &filters);
        assert_eq!(plan.handled, filters);
        assert_eq!(plan.ranges.len(), 625);
        let key = |k1: i64| {
            crate::rowkey::encode_rowkey(&catalog, &[Value::Int64(k1), Value::Int32(7)]).unwrap()
        };
        assert!(plan.ranges.contains(&key(0)));
        assert!(plan.ranges.contains(&key(15)));
        assert!(!plan.ranges.contains(&key(16)));
        assert!(plan.ranges.contains(&key(32)));
        assert!(!plan.ranges.contains(&key(-1)));
    }

    #[test]
    fn an_in_list_with_a_value_the_key_cannot_hold_is_not_pushed() {
        let filters = vec![SourceFilter::In(
            "k2".into(),
            vec![Value::Int32(1), Value::Float64(2.5)],
        )];
        let plan = plan_pushdown(&composite(), &conf(), &filters);
        assert!(plan.handled.is_empty());
        assert!(plan.ranges.is_full());
        // On a value column the list is still a server-side OR.
        let filters = vec![SourceFilter::In(
            "v".into(),
            vec![Value::Int32(1), Value::Int32(2), Value::Int32(3)],
        )];
        let plan = plan_pushdown(&composite(), &conf(), &filters);
        assert_eq!(plan.handled, filters);
        assert!(matches!(plan.kv_filter, Some(Filter::Or(_))));
    }

    #[test]
    fn and_combines_range_and_filter() {
        let filters = vec![SourceFilter::And(
            Box::new(SourceFilter::GtEq(
                "col0".into(),
                Value::Utf8("row1".into()),
            )),
            Box::new(SourceFilter::Eq("user-id".into(), Value::Int8(9))),
        )];
        let plan = plan_pushdown(&catalog(), &conf(), &filters);
        assert_eq!(plan.handled.len(), 1);
        assert!(!plan.ranges.is_full());
        assert!(plan.kv_filter.is_some());
    }

    #[test]
    fn lossy_literal_coercion_is_not_pushed() {
        // int column compared to 2.5: pushing enc(2) would be wrong.
        let filters = vec![SourceFilter::Gt("v".into(), Value::Float64(2.5))];
        let plan = plan_pushdown(&composite(), &conf(), &filters);
        assert!(plan.handled.is_empty());
        assert!(plan.kv_filter.is_none());
    }

    #[test]
    fn widened_literal_is_pushed() {
        let filters = vec![SourceFilter::Eq("v".into(), Value::Int64(7))];
        let plan = plan_pushdown(&composite(), &conf(), &filters);
        assert_eq!(plan.handled.len(), 1);
    }

    #[test]
    fn prefix_on_rowkey_prunes() {
        let filters = vec![SourceFilter::StringStartsWith("col0".into(), "row1".into())];
        let plan = plan_pushdown(&catalog(), &conf(), &filters);
        assert_eq!(plan.handled.len(), 1);
        assert!(plan.ranges.contains(b"row1"));
        assert!(plan.ranges.contains(b"row1999"));
        assert!(!plan.ranges.contains(b"row2"));
    }

    #[test]
    fn pushdown_disabled_handles_nothing() {
        let filters = vec![SourceFilter::Eq("col0".into(), Value::Utf8("x".into()))];
        let plan = plan_pushdown(&catalog(), &SHCConf::default().without_pushdown(), &filters);
        assert!(plan.handled.is_empty());
        assert!(plan.ranges.is_full());
    }

    #[test]
    fn pruning_disabled_keeps_value_filters_only() {
        let filters = vec![
            SourceFilter::Eq("col0".into(), Value::Utf8("x".into())),
            SourceFilter::Eq("user-id".into(), Value::Int8(1)),
        ];
        let plan = plan_pushdown(&catalog(), &SHCConf::default().without_pruning(), &filters);
        assert!(plan.ranges.is_full());
        // The rowkey predicate must be re-applied by the engine; the value
        // predicate is still served by the kv filter.
        assert_eq!(plan.handled.len(), 1);
        assert!(plan.kv_filter.is_some());
        assert_eq!(plan.unhandled(&filters).len(), 1);
    }

    #[test]
    fn unknown_column_is_unhandled() {
        let filters = vec![SourceFilter::Eq("ghost".into(), Value::Int32(1))];
        let plan = plan_pushdown(&catalog(), &conf(), &filters);
        assert!(plan.handled.is_empty());
    }
}

#[cfg(test)]
mod all_dims_tests {
    use super::*;
    use shc_engine::value::Value;

    fn catalog3() -> HBaseTableCatalog {
        HBaseTableCatalog::parse_simple(
            r#"{
            "table":{"namespace":"default","name":"t"},
            "rowkey":"k1:k2:k3",
            "columns":{
                "k1":{"cf":"rowkey","col":"k1","type":"string"},
                "k2":{"cf":"rowkey","col":"k2","type":"int"},
                "k3":{"cf":"rowkey","col":"k3","type":"string"},
                "v":{"cf":"cf","col":"v","type":"int"}
            }}"#,
        )
        .unwrap()
    }

    fn all_dims_conf() -> SHCConf {
        SHCConf {
            partition_pruning: PruningMode::AllDimensions,
            ..SHCConf::default()
        }
    }

    fn key(catalog: &HBaseTableCatalog, s: &str, n: i32, t: &str) -> Vec<u8> {
        crate::rowkey::encode_rowkey(
            catalog,
            &[
                Value::Utf8(s.into()),
                Value::Int32(n),
                Value::Utf8(t.into()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn second_dimension_range_refines_within_prefix() {
        let catalog = catalog3();
        let filters = vec![
            SourceFilter::Eq("k1".into(), Value::Utf8("alpha".into())),
            SourceFilter::GtEq("k2".into(), Value::Int32(10)),
        ];
        let plan = plan_pushdown(&catalog, &all_dims_conf(), &filters);
        // Both filters are now fully handled.
        assert_eq!(plan.handled.len(), 2);
        assert!(plan.ranges.contains(&key(&catalog, "alpha", 10, "x")));
        assert!(plan.ranges.contains(&key(&catalog, "alpha", 999, "x")));
        assert!(!plan.ranges.contains(&key(&catalog, "alpha", 9, "x")));
        assert!(!plan.ranges.contains(&key(&catalog, "beta", 50, "x")));
    }

    #[test]
    fn first_dimension_mode_leaves_second_dimension_unhandled() {
        let catalog = catalog3();
        let filters = vec![
            SourceFilter::Eq("k1".into(), Value::Utf8("alpha".into())),
            SourceFilter::GtEq("k2".into(), Value::Int32(10)),
        ];
        let plan = plan_pushdown(&catalog, &SHCConf::default(), &filters);
        assert_eq!(plan.handled.len(), 1);
        // The block is still restricted to k1 = alpha but includes k2 < 10.
        assert!(plan.ranges.contains(&key(&catalog, "alpha", 9, "x")));
    }

    #[test]
    fn full_point_constraint_yields_single_row_range() {
        let catalog = catalog3();
        let filters = vec![
            SourceFilter::Eq("k1".into(), Value::Utf8("a".into())),
            SourceFilter::Eq("k2".into(), Value::Int32(7)),
            SourceFilter::Eq("k3".into(), Value::Utf8("z".into())),
        ];
        let plan = plan_pushdown(&catalog, &all_dims_conf(), &filters);
        assert_eq!(plan.handled.len(), 3);
        assert!(plan.ranges.contains(&key(&catalog, "a", 7, "z")));
        assert!(!plan.ranges.contains(&key(&catalog, "a", 7, "za")));
        assert!(!plan.ranges.contains(&key(&catalog, "a", 8, "z")));
    }

    #[test]
    fn gap_in_dimensions_only_prunes_prefix() {
        let catalog = catalog3();
        // k1 constrained, k3 constrained, k2 free: only k1 can prune.
        let filters = vec![
            SourceFilter::Eq("k1".into(), Value::Utf8("a".into())),
            SourceFilter::Eq("k3".into(), Value::Utf8("z".into())),
        ];
        let plan = plan_pushdown(&catalog, &all_dims_conf(), &filters);
        assert_eq!(plan.handled.len(), 1); // only the k1 predicate
        assert!(plan.ranges.contains(&key(&catalog, "a", 1, "q")));
        assert!(!plan.ranges.contains(&key(&catalog, "b", 1, "z")));
    }

    #[test]
    fn bounded_window_on_second_dimension() {
        let catalog = catalog3();
        let filters = vec![
            SourceFilter::Eq("k1".into(), Value::Utf8("m".into())),
            SourceFilter::GtEq("k2".into(), Value::Int32(5)),
            SourceFilter::Lt("k2".into(), Value::Int32(8)),
        ];
        let plan = plan_pushdown(&catalog, &all_dims_conf(), &filters);
        assert_eq!(plan.handled.len(), 3);
        for n in 0..12 {
            let expected = (5..8).contains(&n);
            assert_eq!(
                plan.ranges.contains(&key(&catalog, "m", n, "t")),
                expected,
                "k2 = {n}"
            );
        }
    }

    #[test]
    fn single_dimension_key_is_untouched() {
        let catalog =
            HBaseTableCatalog::parse_simple(crate::catalog::actives_catalog_json()).unwrap();
        let filters = vec![SourceFilter::Eq("col0".into(), Value::Utf8("row1".into()))];
        let a = plan_pushdown(&catalog, &all_dims_conf(), &filters);
        let b = plan_pushdown(&catalog, &SHCConf::default(), &filters);
        assert_eq!(a.ranges, b.ranges);
    }
}
