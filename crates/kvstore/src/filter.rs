//! Server-side filters, evaluated inside the region server against raw byte
//! arrays — the substrate that SHC's selective predicate pushdown targets.
//!
//! Filters operate at row granularity: once the cells of a row are known,
//! the filter decides whether the row is returned. This mirrors how SHC uses
//! HBase's `RowFilter`, `SingleColumnValueFilter`, `FilterList` and
//! `MultiRowRangeFilter`. A filter sees a row through [`RowView`], so the
//! scan path evaluates it on the row's live cells where they sit, in the
//! memstore or in a store-file block, and encodes only the rows that pass
//! into the reply's cell block.

use bytes::Bytes;

/// What a filter can ask of a row: its key, and the newest value a read
/// kept for a column.
pub trait RowView {
    fn row_key(&self) -> &[u8];
    fn column_value(&self, family: &[u8], qualifier: &[u8]) -> Option<&[u8]>;
}

/// Byte-wise comparison operator, as in HBase `CompareOperator`. Comparisons
/// are on the raw byte order, which is why SHC's codecs must be
/// order-preserving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CompareOp {
    pub fn eval(self, left: &[u8], right: &[u8]) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, left.cmp(right)),
            (CompareOp::Eq, Equal)
                | (CompareOp::Ne, Less | Greater)
                | (CompareOp::Lt, Less)
                | (CompareOp::Le, Less | Equal)
                | (CompareOp::Gt, Greater)
                | (CompareOp::Ge, Greater | Equal)
        )
    }

    /// The operator with operands swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CompareOp {
        match self {
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
            other => other,
        }
    }
}

/// An inclusive-start / exclusive-stop row-key range. Empty stop means "to
/// the end of the table".
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RowRange {
    pub start: Bytes,
    /// Exclusive; empty = unbounded.
    pub stop: Bytes,
}

impl RowRange {
    pub fn new(start: impl Into<Bytes>, stop: impl Into<Bytes>) -> Self {
        RowRange {
            start: start.into(),
            stop: stop.into(),
        }
    }

    /// The whole key space.
    pub fn all() -> Self {
        RowRange {
            start: Bytes::new(),
            stop: Bytes::new(),
        }
    }

    pub fn is_unbounded_stop(&self) -> bool {
        self.stop.is_empty()
    }

    pub fn contains(&self, row: &[u8]) -> bool {
        row >= self.start.as_ref() && (self.is_unbounded_stop() || row < self.stop.as_ref())
    }

    /// True when the range can hold no rows at all.
    pub fn is_empty(&self) -> bool {
        !self.is_unbounded_stop() && self.start >= self.stop
    }
}

/// A server-side row filter tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Filter {
    /// Row is kept when its key falls inside any of the (sorted,
    /// non-overlapping) ranges — HBase `MultiRowRangeFilter`.
    RowRanges(Vec<RowRange>),
    /// Compare the row key itself against a literal.
    RowCompare(CompareOp, Bytes),
    /// Row key starts with the given prefix.
    RowPrefix(Bytes),
    /// Keep the row when the named column's newest value satisfies the
    /// comparison. `filter_if_missing` matches HBase semantics: when the
    /// column is absent, drop the row iff this flag is set.
    ColumnValue {
        family: Bytes,
        qualifier: Bytes,
        op: CompareOp,
        value: Bytes,
        filter_if_missing: bool,
    },
    /// Keep the row when the named column's newest value starts with the
    /// given prefix (used for pushed-down `LIKE 'abc%'`).
    ColumnPrefix {
        family: Bytes,
        qualifier: Bytes,
        prefix: Bytes,
    },
    /// All children must pass (HBase `FilterList/MUST_PASS_ALL`).
    And(Vec<Filter>),
    /// Any child may pass (HBase `FilterList/MUST_PASS_ONE`).
    Or(Vec<Filter>),
    /// Accept every row; useful as a neutral element.
    PassAll,
    /// Reject every row.
    PassNone,
}

impl Filter {
    /// Evaluate the filter against a row.
    pub fn matches(&self, row: &impl RowView) -> bool {
        match self {
            Filter::RowRanges(ranges) => ranges.iter().any(|r| r.contains(row.row_key())),
            Filter::RowCompare(op, value) => op.eval(row.row_key(), value),
            Filter::RowPrefix(prefix) => row.row_key().starts_with(prefix),
            Filter::ColumnValue {
                family,
                qualifier,
                op,
                value,
                filter_if_missing,
            } => match row.column_value(family, qualifier) {
                Some(v) => op.eval(v, value),
                None => !filter_if_missing,
            },
            Filter::ColumnPrefix {
                family,
                qualifier,
                prefix,
            } => row
                .column_value(family, qualifier)
                .is_some_and(|v| v.starts_with(prefix)),
            Filter::And(children) => children.iter().all(|f| f.matches(row)),
            Filter::Or(children) => children.iter().any(|f| f.matches(row)),
            Filter::PassAll => true,
            Filter::PassNone => false,
        }
    }

    /// Conjoin two optional filters.
    pub fn and_opt(a: Option<Filter>, b: Option<Filter>) -> Option<Filter> {
        match (a, b) {
            (None, f) | (f, None) => f,
            (Some(Filter::And(mut xs)), Some(Filter::And(ys))) => {
                xs.extend(ys);
                Some(Filter::And(xs))
            }
            (Some(Filter::And(mut xs)), Some(y)) => {
                xs.push(y);
                Some(Filter::And(xs))
            }
            (Some(x), Some(Filter::And(mut ys))) => {
                ys.insert(0, x);
                Some(Filter::And(ys))
            }
            (Some(x), Some(y)) => Some(Filter::And(vec![x, y])),
        }
    }

    /// Number of nodes in the filter tree, a proxy for server-side
    /// evaluation cost in the metrics layer.
    pub fn node_count(&self) -> usize {
        match self {
            Filter::And(cs) | Filter::Or(cs) => {
                1 + cs.iter().map(Filter::node_count).sum::<usize>()
            }
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Cell, CellKey, CellType, RowResult};

    impl RowView for RowResult {
        fn row_key(&self) -> &[u8] {
            &self.row
        }

        fn column_value(&self, family: &[u8], qualifier: &[u8]) -> Option<&[u8]> {
            self.value(family, qualifier).map(|v| v.as_ref())
        }
    }

    fn row(key: &str, cols: &[(&str, &str, &str)]) -> RowResult {
        RowResult {
            row: Bytes::copy_from_slice(key.as_bytes()),
            cells: cols
                .iter()
                .map(|(f, q, v)| Cell {
                    key: CellKey {
                        row: Bytes::copy_from_slice(key.as_bytes()),
                        family: Bytes::copy_from_slice(f.as_bytes()),
                        qualifier: Bytes::copy_from_slice(q.as_bytes()),
                        timestamp: 1,
                        seq: 1,
                        cell_type: CellType::Put,
                    },
                    value: Bytes::copy_from_slice(v.as_bytes()),
                })
                .collect(),
        }
    }

    #[test]
    fn compare_op_evaluates_byte_order() {
        assert!(CompareOp::Lt.eval(b"a", b"b"));
        assert!(CompareOp::Le.eval(b"a", b"a"));
        assert!(CompareOp::Gt.eval(b"b", b"a"));
        assert!(CompareOp::Eq.eval(b"ab", b"ab"));
        assert!(CompareOp::Ne.eval(b"ab", b"ac"));
        assert!(!CompareOp::Ge.eval(b"a", b"b"));
    }

    #[test]
    fn compare_op_flip_swaps_direction() {
        assert_eq!(CompareOp::Lt.flip(), CompareOp::Gt);
        assert_eq!(CompareOp::Ge.flip(), CompareOp::Le);
        assert_eq!(CompareOp::Eq.flip(), CompareOp::Eq);
        // a < b  ⇔  b > a
        assert_eq!(
            CompareOp::Lt.eval(b"a", b"b"),
            CompareOp::Lt.flip().eval(b"b", b"a")
        );
    }

    #[test]
    fn row_range_contains_half_open() {
        let r = RowRange::new(&b"b"[..], &b"d"[..]);
        assert!(!r.contains(b"a"));
        assert!(r.contains(b"b"));
        assert!(r.contains(b"c"));
        assert!(!r.contains(b"d"));
    }

    #[test]
    fn row_range_unbounded_stop() {
        let r = RowRange::new(&b"m"[..], &b""[..]);
        assert!(r.contains(b"zzz"));
        assert!(!r.contains(b"a"));
        assert!(!r.is_empty());
    }

    #[test]
    fn row_range_empty_detection() {
        assert!(RowRange::new(&b"d"[..], &b"b"[..]).is_empty());
        assert!(RowRange::new(&b"d"[..], &b"d"[..]).is_empty());
        assert!(!RowRange::new(&b"a"[..], &b"b"[..]).is_empty());
    }

    #[test]
    fn row_ranges_filter_matches_any_range() {
        let f = Filter::RowRanges(vec![
            RowRange::new(&b"a"[..], &b"c"[..]),
            RowRange::new(&b"m"[..], &b"p"[..]),
        ]);
        assert!(f.matches(&row("b", &[])));
        assert!(f.matches(&row("n", &[])));
        assert!(!f.matches(&row("f", &[])));
    }

    #[test]
    fn column_value_filter_present_and_missing() {
        let f = Filter::ColumnValue {
            family: Bytes::from_static(b"cf"),
            qualifier: Bytes::from_static(b"q"),
            op: CompareOp::Eq,
            value: Bytes::from_static(b"x"),
            filter_if_missing: true,
        };
        assert!(f.matches(&row("r", &[("cf", "q", "x")])));
        assert!(!f.matches(&row("r", &[("cf", "q", "y")])));
        // Column missing + filter_if_missing → dropped.
        assert!(!f.matches(&row("r", &[("cf", "other", "x")])));

        let lenient = Filter::ColumnValue {
            family: Bytes::from_static(b"cf"),
            qualifier: Bytes::from_static(b"q"),
            op: CompareOp::Eq,
            value: Bytes::from_static(b"x"),
            filter_if_missing: false,
        };
        assert!(lenient.matches(&row("r", &[("cf", "other", "x")])));
    }

    #[test]
    fn prefix_filters() {
        let f = Filter::RowPrefix(Bytes::from_static(b"user-"));
        assert!(f.matches(&row("user-42", &[])));
        assert!(!f.matches(&row("item-42", &[])));

        let cf = Filter::ColumnPrefix {
            family: Bytes::from_static(b"cf"),
            qualifier: Bytes::from_static(b"q"),
            prefix: Bytes::from_static(b"ab"),
        };
        assert!(cf.matches(&row("r", &[("cf", "q", "abc")])));
        assert!(!cf.matches(&row("r", &[("cf", "q", "xbc")])));
        assert!(!cf.matches(&row("r", &[])));
    }

    #[test]
    fn and_or_compose() {
        let a = Filter::RowCompare(CompareOp::Ge, Bytes::from_static(b"b"));
        let b = Filter::RowCompare(CompareOp::Lt, Bytes::from_static(b"d"));
        let and = Filter::And(vec![a.clone(), b.clone()]);
        assert!(and.matches(&row("c", &[])));
        assert!(!and.matches(&row("a", &[])));
        let or = Filter::Or(vec![a, b]);
        assert!(or.matches(&row("a", &[]))); // passes b
        assert!(or.matches(&row("z", &[]))); // passes a
    }

    #[test]
    fn and_opt_flattens() {
        let a = Filter::PassAll;
        let b = Filter::PassNone;
        let c = Filter::RowPrefix(Bytes::from_static(b"p"));
        let combined = Filter::and_opt(Filter::and_opt(Some(a), Some(b)), Some(c)).unwrap();
        match combined {
            Filter::And(children) => assert_eq!(children.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
        assert!(Filter::and_opt(None, None).is_none());
    }

    #[test]
    fn node_count_counts_tree() {
        let f = Filter::And(vec![
            Filter::PassAll,
            Filter::Or(vec![Filter::PassAll, Filter::PassNone]),
        ]);
        assert_eq!(f.node_count(), 5);
    }
}
