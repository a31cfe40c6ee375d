//! Data-source filters — the engine side of Spark's data source API.
//!
//! When the optimizer pushes a predicate to a scan, it is translated from an
//! [`Expr`] into this simplified, source-friendly form (Spark's
//! `org.apache.spark.sql.sources.Filter`). Providers inspect these, handle
//! what they can (SHC turns them into row-key ranges and HBase filters), and
//! report the remainder through `unhandled_filters` for the engine to
//! re-apply — the two-layer filtering described in the paper (§VI.3).

use crate::expr::{BinaryOp, Expr};
use crate::schema::Schema;
use crate::value::Value;

/// A predicate in data-source form. Column names are unqualified — they are
/// resolved against the provider's own schema.
#[derive(Clone, Debug, PartialEq)]
pub enum SourceFilter {
    Eq(String, Value),
    Gt(String, Value),
    GtEq(String, Value),
    Lt(String, Value),
    LtEq(String, Value),
    In(String, Vec<Value>),
    NotIn(String, Vec<Value>),
    StringStartsWith(String, String),
    IsNull(String),
    IsNotNull(String),
    And(Box<SourceFilter>, Box<SourceFilter>),
    Or(Box<SourceFilter>, Box<SourceFilter>),
}

impl SourceFilter {
    /// Attempt to translate an engine expression into source form. Returns
    /// `None` for shapes the source API cannot express (arithmetic, CASE,
    /// column-to-column comparisons…) — those stay engine-side.
    pub fn from_expr(expr: &Expr) -> Option<SourceFilter> {
        match expr {
            Expr::BinaryOp { left, op, right } => match op {
                BinaryOp::And => {
                    let l = Self::from_expr(left)?;
                    let r = Self::from_expr(right)?;
                    Some(SourceFilter::And(Box::new(l), Box::new(r)))
                }
                BinaryOp::Or => {
                    let l = Self::from_expr(left)?;
                    let r = Self::from_expr(right)?;
                    Some(SourceFilter::Or(Box::new(l), Box::new(r)))
                }
                _ if op.is_comparison() => {
                    // Normalize to column-op-literal.
                    let (col, value, op) = match (&**left, &**right) {
                        (Expr::Column { name, .. }, Expr::Literal(v)) => {
                            (name.clone(), v.clone(), *op)
                        }
                        (Expr::Literal(v), Expr::Column { name, .. }) => {
                            (name.clone(), v.clone(), flip(*op))
                        }
                        _ => return None,
                    };
                    if value.is_null() {
                        return None; // comparisons with NULL never match
                    }
                    Some(match op {
                        BinaryOp::Eq => SourceFilter::Eq(col, value),
                        BinaryOp::Gt => SourceFilter::Gt(col, value),
                        BinaryOp::GtEq => SourceFilter::GtEq(col, value),
                        BinaryOp::Lt => SourceFilter::Lt(col, value),
                        BinaryOp::LtEq => SourceFilter::LtEq(col, value),
                        // `<>` has no source form here; engine keeps it.
                        _ => return None,
                    })
                }
                _ => None,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let col = match &**expr {
                    Expr::Column { name, .. } => name.clone(),
                    _ => return None,
                };
                let values: Option<Vec<Value>> = list
                    .iter()
                    .map(|e| match e {
                        Expr::Literal(v) if !v.is_null() => Some(v.clone()),
                        _ => None,
                    })
                    .collect();
                let values = values?;
                Some(if *negated {
                    SourceFilter::NotIn(col, values)
                } else {
                    SourceFilter::In(col, values)
                })
            }
            Expr::Like {
                expr,
                pattern,
                negated: false,
            } => {
                let col = match &**expr {
                    Expr::Column { name, .. } => name.clone(),
                    _ => return None,
                };
                // Only prefix patterns translate (`abc%`).
                let prefix = pattern.strip_suffix('%')?;
                if prefix.contains('%') || prefix.contains('_') {
                    return None;
                }
                Some(SourceFilter::StringStartsWith(col, prefix.to_string()))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                let col = match &**expr {
                    Expr::Column { name, .. } => name.clone(),
                    _ => return None,
                };
                let (lo, hi) = match (&**low, &**high) {
                    (Expr::Literal(a), Expr::Literal(b)) if !a.is_null() && !b.is_null() => {
                        (a.clone(), b.clone())
                    }
                    _ => return None,
                };
                Some(SourceFilter::And(
                    Box::new(SourceFilter::GtEq(col.clone(), lo)),
                    Box::new(SourceFilter::LtEq(col, hi)),
                ))
            }
            Expr::IsNull(e) => match &**e {
                Expr::Column { name, .. } => Some(SourceFilter::IsNull(name.clone())),
                _ => None,
            },
            Expr::IsNotNull(e) => match &**e {
                Expr::Column { name, .. } => Some(SourceFilter::IsNotNull(name.clone())),
                _ => None,
            },
            _ => None,
        }
    }

    /// The filter as an engine predicate over `schema`, for a provider that
    /// applies it with the engine's own evaluation. The predicate keeps
    /// exactly the rows the filter passes. A column `schema` cannot resolve
    /// passes no row, and an IN list's NULLs match nothing. A prefix test is
    /// the range of strings the prefix starts, which no other value falls in.
    pub fn to_expr(&self, schema: &Schema) -> Expr {
        let on = |column: &str, test: &dyn Fn(Expr) -> Expr| match schema.resolve(None, column) {
            Ok(_) => test(Expr::Column {
                qualifier: None,
                name: column.to_string(),
            }),
            Err(_) => Expr::lit(false),
        };
        let lit = |v: &Value| Expr::Literal(v.clone());
        let list = |vs: &[Value]| vs.iter().filter(|v| !v.is_null()).map(lit).collect();
        match self {
            SourceFilter::Eq(c, v) => on(c, &|x| x.eq(lit(v))),
            SourceFilter::Gt(c, v) => on(c, &|x| x.gt(lit(v))),
            SourceFilter::GtEq(c, v) => on(c, &|x| x.gt_eq(lit(v))),
            SourceFilter::Lt(c, v) => on(c, &|x| x.lt(lit(v))),
            SourceFilter::LtEq(c, v) => on(c, &|x| x.lt_eq(lit(v))),
            SourceFilter::In(c, vs) => on(c, &|x| x.in_list(list(vs), false)),
            SourceFilter::NotIn(c, vs) => on(c, &|x| x.in_list(list(vs), true)),
            SourceFilter::StringStartsWith(c, p) => on(c, &|x| {
                let from = x.clone().gt_eq(Expr::lit(p.as_str()));
                match prefix_successor(p) {
                    Some(to) => from.and(x.lt(Expr::lit(to))),
                    None => from,
                }
            }),
            SourceFilter::IsNull(c) => on(c, &|x| Expr::IsNull(Box::new(x))),
            SourceFilter::IsNotNull(c) => on(c, &|x| Expr::IsNotNull(Box::new(x))),
            SourceFilter::And(a, b) => a.to_expr(schema).and(b.to_expr(schema)),
            SourceFilter::Or(a, b) => a.to_expr(schema).or(b.to_expr(schema)),
        }
    }
}

/// The least string above every string that starts with `prefix`; `None`
/// when no string is (every character of `prefix` is `char::MAX`).
fn prefix_successor(prefix: &str) -> Option<String> {
    let mut chars: Vec<char> = prefix.chars().collect();
    while let Some(last) = chars.pop() {
        if let Some(next) = (last as u32 + 1..=char::MAX as u32).find_map(char::from_u32) {
            chars.push(next);
            return Some(chars.into_iter().collect());
        }
    }
    None
}

fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_comparison_translates() {
        let e = Expr::col("x").gt(Expr::lit(5i64));
        assert_eq!(
            SourceFilter::from_expr(&e),
            Some(SourceFilter::Gt("x".into(), Value::Int64(5)))
        );
    }

    #[test]
    fn reversed_comparison_flips() {
        let e = Expr::lit(5i64).gt(Expr::col("x")); // 5 > x ⇔ x < 5
        assert_eq!(
            SourceFilter::from_expr(&e),
            Some(SourceFilter::Lt("x".into(), Value::Int64(5)))
        );
    }

    #[test]
    fn and_or_recurse() {
        let e = Expr::col("a")
            .gt(Expr::lit(1i64))
            .and(Expr::col("b").eq(Expr::lit("x")));
        match SourceFilter::from_expr(&e) {
            Some(SourceFilter::And(l, r)) => {
                assert_eq!(*l, SourceFilter::Gt("a".into(), Value::Int64(1)));
                assert_eq!(*r, SourceFilter::Eq("b".into(), Value::Utf8("x".into())));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn partial_and_fails_whole_translation() {
        // One leg untranslatable (column-to-column) → whole AND stays
        // engine-side; the optimizer splits conjunctions beforehand.
        let e = Expr::col("a")
            .gt(Expr::col("b"))
            .and(Expr::col("c").eq(Expr::lit(1i64)));
        assert_eq!(SourceFilter::from_expr(&e), None);
    }

    #[test]
    fn in_and_not_in() {
        let e = Expr::col("x").in_list(vec![Expr::lit(1i64), Expr::lit(2i64)], false);
        assert_eq!(
            SourceFilter::from_expr(&e),
            Some(SourceFilter::In(
                "x".into(),
                vec![Value::Int64(1), Value::Int64(2)]
            ))
        );
        let e = Expr::col("x").in_list(vec![Expr::lit(1i64)], true);
        assert!(matches!(
            SourceFilter::from_expr(&e),
            Some(SourceFilter::NotIn(_, _))
        ));
    }

    #[test]
    fn like_prefix_only() {
        assert_eq!(
            SourceFilter::from_expr(&Expr::col("x").like("row1%")),
            Some(SourceFilter::StringStartsWith("x".into(), "row1".into()))
        );
        assert_eq!(SourceFilter::from_expr(&Expr::col("x").like("%mid%")), None);
        assert_eq!(SourceFilter::from_expr(&Expr::col("x").like("a_c%")), None);
    }

    #[test]
    fn between_becomes_range() {
        let e = Expr::Between {
            expr: Box::new(Expr::col("x")),
            low: Box::new(Expr::lit(1i64)),
            high: Box::new(Expr::lit(9i64)),
            negated: false,
        };
        match SourceFilter::from_expr(&e) {
            Some(SourceFilter::And(l, r)) => {
                assert_eq!(*l, SourceFilter::GtEq("x".into(), Value::Int64(1)));
                assert_eq!(*r, SourceFilter::LtEq("x".into(), Value::Int64(9)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn a_prefix_is_the_range_up_to_its_successor() {
        assert_eq!(prefix_successor("ab").as_deref(), Some("ac"));
        assert_eq!(prefix_successor("a\u{D7FF}").as_deref(), Some("a\u{E000}"));
        assert_eq!(prefix_successor("a\u{10FFFF}").as_deref(), Some("b"));
        assert_eq!(prefix_successor("\u{10FFFF}"), None);
        assert_eq!(prefix_successor(""), None);
    }

    #[test]
    fn untranslatable_shapes_return_none() {
        assert_eq!(
            SourceFilter::from_expr(&Expr::col("a").add(Expr::lit(1i64))),
            None
        );
        assert_eq!(
            SourceFilter::from_expr(&Expr::col("a").not_eq(Expr::lit(1i64))),
            None
        );
    }
}
