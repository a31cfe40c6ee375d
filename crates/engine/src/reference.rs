//! The reference evaluator: what a [`LogicalPlan`] means, written the
//! plainest way — rows in `Vec`s, a nested-loop join, `BTreeMap` grouping,
//! two-pass statistics — with no scheduler, no metrics, no batches and no
//! code of `physical.rs`. Test-only: the executor's tests compare their
//! results with it, which is what running every query a second time on the
//! row engine used to stand in for.
//!
//! It reads each provider's rows unfiltered and unprojected and applies the
//! scan's filters and projection itself, so a provider's own pushdown is
//! under test as well.

use crate::aggregate::AggFunc;
use crate::datasource::partition_rows;
use crate::error::Result;
use crate::logical::{AggExpr, JoinType, LogicalPlan};
use crate::row::Row;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Every row `plan` produces; in order where the plan sorts.
pub(crate) fn evaluate(plan: &LogicalPlan) -> Result<Vec<Row>> {
    match plan {
        LogicalPlan::Scan {
            qualifier,
            provider,
            projection,
            filters,
            ..
        } => {
            let schema = provider.schema().with_qualifier(qualifier);
            let mut rows = Vec::new();
            for part in provider.scan(None, &[])? {
                rows.extend(partition_rows(&*part, "reference")?);
            }
            for filter in filters {
                let bound = filter.bind(&schema)?;
                rows = keep(rows, |row| bound.eval_predicate(row))?;
            }
            Ok(match projection {
                Some(indices) if provider.supports_projection() => {
                    rows.iter().map(|row| row.project(indices)).collect()
                }
                _ => rows,
            })
        }
        LogicalPlan::Filter {
            predicate, input, ..
        } => {
            let bound = predicate.bind(input.schema())?;
            keep(evaluate(input)?, |row| bound.eval_predicate(row))
        }
        LogicalPlan::Projection { exprs, input, .. } => {
            let schema = input.schema();
            let bound = exprs
                .iter()
                .map(|(e, _)| e.bind(schema))
                .collect::<Result<Vec<_>>>()?;
            evaluate(input)?
                .iter()
                .map(|row| {
                    Ok(Row::new(
                        bound.iter().map(|e| e.eval(row)).collect::<Result<_>>()?,
                    ))
                })
                .collect()
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
            ..
        } => {
            let (left_schema, right_schema) = (left.schema(), right.schema());
            let mut keys = Vec::new();
            for (l, r) in on {
                keys.push((l.bind(left_schema)?, r.bind(right_schema)?));
            }
            let right_rows = evaluate(right)?;
            let mut out = Vec::new();
            for l in evaluate(left)? {
                let mut matched = false;
                for r in &right_rows {
                    let mut equal = true;
                    for (lk, rk) in &keys {
                        // A NULL key compares to nothing, itself included.
                        equal &= lk.eval(&l)?.sql_cmp(&rk.eval(r)?) == Some(Ordering::Equal);
                    }
                    if equal {
                        matched = true;
                        out.push(l.concat(r));
                    }
                }
                if !matched && *join_type == JoinType::Left {
                    out.push(l.concat(&Row::new(vec![Value::Null; right_schema.len()])));
                }
            }
            Ok(out)
        }
        LogicalPlan::Aggregate {
            group, aggs, input, ..
        } => {
            let schema = input.schema();
            let group_exprs = group
                .iter()
                .map(|(e, _)| e.bind(schema))
                .collect::<Result<Vec<_>>>()?;
            // Group token → the group's key as first seen, and its rows.
            let mut groups: BTreeMap<Vec<String>, (Vec<Value>, Vec<Row>)> = BTreeMap::new();
            for row in evaluate(input)? {
                let key = group_exprs
                    .iter()
                    .map(|e| e.eval(&row))
                    .collect::<Result<Vec<_>>>()?;
                let token = key.iter().map(group_token).collect();
                groups.entry(token).or_insert((key, Vec::new())).1.push(row);
            }
            if group.is_empty() && groups.is_empty() {
                // A global aggregate is one row, over no rows too.
                groups.insert(Vec::new(), (Vec::new(), Vec::new()));
            }
            let mut out = Vec::new();
            for (mut values, rows) in groups.into_values() {
                for (agg, _) in aggs {
                    values.push(aggregate(agg, &rows, schema)?);
                }
                out.push(Row::new(values));
            }
            Ok(out)
        }
        LogicalPlan::Sort { keys, input, .. } => {
            let schema = input.schema();
            let bound = keys
                .iter()
                .map(|(e, asc)| Ok((e.bind(schema)?, *asc)))
                .collect::<Result<Vec<_>>>()?;
            let mut keyed = Vec::new();
            for row in evaluate(input)? {
                let key = bound
                    .iter()
                    .map(|(e, _)| e.eval(&row))
                    .collect::<Result<Vec<_>>>()?;
                keyed.push((key, row));
            }
            keyed.sort_by(|(a, _), (b, _)| {
                a.iter()
                    .zip(b)
                    .zip(&bound)
                    .map(|((x, y), (_, asc))| {
                        let ord = order(x, y);
                        if *asc {
                            ord
                        } else {
                            ord.reverse()
                        }
                    })
                    .find(|ord| *ord != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            });
            Ok(keyed.into_iter().map(|(_, row)| row).collect())
        }
        LogicalPlan::Limit { n, input, .. } => Ok(evaluate(input)?.into_iter().take(*n).collect()),
        LogicalPlan::SubqueryAlias { input, .. } => evaluate(input),
        LogicalPlan::Values { rows, .. } => Ok(rows.iter().cloned().map(Row::new).collect()),
    }
}

fn keep(rows: Vec<Row>, test: impl Fn(&Row) -> Result<bool>) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for row in rows {
        if test(&row)? {
            out.push(row);
        }
    }
    Ok(out)
}

/// Equal for exactly the values `GROUP BY` puts in one group: NULL with
/// NULL, a number with every number of its value whatever its width.
fn group_token(v: &Value) -> String {
    match v.as_f64() {
        Some(x) if x.fract() == 0.0 && x.abs() < 9e15 => format!("n{}", x as i64),
        Some(x) => format!("f{:016x}", x.to_bits()),
        None => format!("{v:?}"),
    }
}

/// One aggregate over one group's rows, from its definition.
fn aggregate(agg: &AggExpr, rows: &[Row], schema: &crate::schema::Schema) -> Result<Value> {
    let Some(arg) = &agg.arg else {
        return Ok(Value::Int64(rows.len() as i64));
    };
    let arg = arg.bind(schema)?;
    let mut values = Vec::new();
    for row in rows {
        let v = arg.eval(row)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    let floats: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
    let n = floats.len() as f64;
    let mean = floats.iter().sum::<f64>() / n;
    let sample_variance = floats.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let extreme = |wanted: Ordering| {
        values.iter().cloned().reduce(|best, v| {
            if v.sql_cmp(&best) == Some(wanted) {
                v
            } else {
                best
            }
        })
    };
    Ok(match agg.func {
        AggFunc::Count | AggFunc::CountStar => Value::Int64(values.len() as i64),
        _ if values.is_empty() => Value::Null,
        AggFunc::Sum if values.iter().all(|v| v.as_i64().is_some()) => {
            Value::Int64(values.iter().filter_map(Value::as_i64).sum())
        }
        AggFunc::Sum => Value::Float64(floats.iter().sum()),
        AggFunc::Avg => Value::Float64(mean),
        AggFunc::Min => extreme(Ordering::Less).unwrap_or(Value::Null),
        AggFunc::Max => extreme(Ordering::Greater).unwrap_or(Value::Null),
        AggFunc::Stddev | AggFunc::Variance if values.len() < 2 => Value::Null,
        AggFunc::Stddev => Value::Float64(sample_variance.sqrt()),
        AggFunc::Variance => Value::Float64(sample_variance),
    })
}

/// `ORDER BY`'s order over one key column: NULL first, then the values in
/// SQL order, NaN after every other number.
fn order(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Less,
        (_, Value::Null) => Ordering::Greater,
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x
                .partial_cmp(&y)
                .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan())),
            _ => a
                .sql_cmp(b)
                .expect("a sort key column holds one kind of value"),
        },
    }
}

/// Rows as comparable text: the exact variant of every value, floats to nine
/// significant digits (summation order moves the last ones), zero unsigned.
pub(crate) fn canonical(rows: &[Row]) -> Vec<String> {
    let value = |v: &Value| match v {
        Value::Float32(_) | Value::Float64(_) => {
            let x = v.as_f64().expect("a float");
            let x = if x == 0.0 { 0.0 } else { x };
            format!("{:?}({x:.8e})", v.data_type().expect("not NULL"))
        }
        other => format!("{other:?}"),
    };
    rows.iter()
        .map(|row| row.values.iter().map(value).collect::<Vec<_>>().join(", "))
        .collect()
}

/// [`canonical`], order set aside: what two runs of a plan that does not
/// sort agree on.
pub(crate) fn canonical_multiset(rows: &[Row]) -> Vec<String> {
    let mut text = canonical(rows);
    text.sort();
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn values(rows: Vec<Vec<Value>>) -> LogicalPlan {
        LogicalPlan::values(
            Schema::new(vec![
                Field::new("k", DataType::Int32),
                Field::new("x", DataType::Float64),
            ]),
            rows,
        )
    }

    /// The oracle itself, against answers worked out by hand.
    #[test]
    fn the_reference_computes_known_answers() {
        let input = values(vec![
            vec![Value::Int32(1), Value::Float64(2.0)],
            vec![Value::Int32(1), Value::Float64(4.0)],
            vec![Value::Int32(1), Value::Null],
            vec![Value::Null, Value::Float64(9.0)],
            vec![Value::Int32(2), Value::Float64(f64::NAN)],
        ]);
        let agg = |f| (AggExpr::new(f, Expr::col("x")), "a".to_string());
        let grouped = LogicalPlan::sort(
            vec![(Expr::col("k"), true)],
            LogicalPlan::aggregate(
                vec![(Expr::col("k"), "k".into())],
                vec![
                    (AggExpr::count_star(), "n".into()),
                    agg(AggFunc::Count),
                    agg(AggFunc::Sum),
                    agg(AggFunc::Avg),
                    agg(AggFunc::Min),
                    agg(AggFunc::Stddev),
                ],
                input.clone(),
                Vec::new(),
            ),
        );
        assert_eq!(
            canonical(&evaluate(&grouped).unwrap()),
            vec![
                "Null, Int64(1), Int64(1), Float64(9.00000000e0), Float64(9.00000000e0), \
                 Float64(9.00000000e0), Null",
                "Int32(1), Int64(3), Int64(2), Float64(6.00000000e0), Float64(3.00000000e0), \
                 Float64(2.00000000e0), Float64(1.41421356e0)",
                "Int32(2), Int64(1), Int64(1), Float64(NaN), Float64(NaN), Float64(NaN), Null",
            ]
        );

        // A NULL key joins nothing, a left join keeps it; NaN sorts last.
        let joined = LogicalPlan::sort(
            vec![(Expr::col("l.x"), false)],
            LogicalPlan::join(
                LogicalPlan::subquery_alias("l".into(), input.clone()),
                LogicalPlan::subquery_alias("r".into(), LogicalPlan::limit(1, input)),
                vec![(Expr::col("l.k"), Expr::col("r.k"))],
                JoinType::Left,
            ),
        );
        let rows = evaluate(&joined).unwrap();
        let xs: Vec<String> = rows.iter().map(|r| format!("{:?}", r.get(1))).collect();
        assert_eq!(
            xs,
            [
                "Float64(NaN)",
                "Float64(9.0)",
                "Float64(4.0)",
                "Float64(2.0)",
                "Null"
            ]
        );
        let matched = rows.iter().filter(|r| !r.get(2).is_null()).count();
        assert_eq!(matched, 3, "the three rows with k = 1");
    }
}
