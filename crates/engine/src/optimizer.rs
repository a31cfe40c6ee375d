//! The rule-based optimizer — a miniature Catalyst.
//!
//! Three rules run in order, mirroring the optimizations the paper leans on:
//!
//! 1. **Predicate pushdown** (§VI.3) — filters migrate through projections,
//!    joins and subquery aliases down into scans, where the provider can
//!    turn them into source-side filters.
//! 2. **Constant folding** — literal subtrees evaluate at plan time.
//! 3. **Column pruning** (§VI.1) — each scan is annotated with exactly the
//!    columns the query needs; providers that support projection (SHC) emit
//!    narrow rows, providers that don't (the generic-source baseline) keep
//!    shipping full rows, which is precisely the gap the paper measures.

use crate::error::Result;
use crate::expr::{BinaryOp, Expr};
use crate::logical::{JoinType, LogicalPlan};
use crate::schema::Schema;
use crate::value::Value;

/// Run the full rule pipeline: fold constants, push filters down, prune
/// columns.
pub fn optimize(plan: LogicalPlan) -> Result<LogicalPlan> {
    prune_columns(push_down_filters(fold_plan(plan)?)?, None)
}

// ----------------------------------------------------------------------
// Rule 1: predicate pushdown
// ----------------------------------------------------------------------

fn push_down_filters(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { predicate, input } => {
            let mut input = push_down_filters(*input)?;
            let mut conjuncts = Vec::new();
            crate::analyzer::flatten_and(&predicate, &mut conjuncts);
            for c in conjuncts {
                input = push_filter(c, input)?;
            }
            input
        }
        LogicalPlan::Projection { exprs, input } => LogicalPlan::Projection {
            exprs,
            input: Box::new(push_down_filters(*input)?),
        },
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => LogicalPlan::Join {
            left: Box::new(push_down_filters(*left)?),
            right: Box::new(push_down_filters(*right)?),
            on,
            join_type,
        },
        LogicalPlan::Aggregate { group, aggs, input } => LogicalPlan::Aggregate {
            group,
            aggs,
            input: Box::new(push_down_filters(*input)?),
        },
        LogicalPlan::Sort { keys, input } => LogicalPlan::Sort {
            keys,
            input: Box::new(push_down_filters(*input)?),
        },
        LogicalPlan::Limit { n, input } => LogicalPlan::Limit {
            n,
            input: Box::new(push_down_filters(*input)?),
        },
        LogicalPlan::SubqueryAlias { alias, input } => LogicalPlan::SubqueryAlias {
            alias,
            input: Box::new(push_down_filters(*input)?),
        },
        leaf => leaf,
    })
}

fn resolves(expr: &Expr, schema: &Schema) -> bool {
    expr.data_type(schema).is_ok()
}

/// Place one conjunct as low in the plan as it can legally go.
fn push_filter(conjunct: Expr, plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan {
            table_name,
            qualifier,
            provider,
            projection,
            mut filters,
        } => {
            filters.push(conjunct);
            LogicalPlan::Scan {
                table_name,
                qualifier,
                provider,
                projection,
                filters,
            }
        }
        LogicalPlan::Filter { predicate, input } => LogicalPlan::Filter {
            predicate,
            input: Box::new(push_filter(conjunct, *input)?),
        },
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let left_schema = left.schema()?;
            let right_schema = right.schema()?;
            if resolves(&conjunct, &left_schema) {
                LogicalPlan::Join {
                    left: Box::new(push_filter(conjunct, *left)?),
                    right,
                    on,
                    join_type,
                }
            } else if join_type == JoinType::Inner && resolves(&conjunct, &right_schema) {
                LogicalPlan::Join {
                    left,
                    right: Box::new(push_filter(conjunct, *right)?),
                    on,
                    join_type,
                }
            } else {
                LogicalPlan::Filter {
                    predicate: conjunct,
                    input: Box::new(LogicalPlan::Join {
                        left,
                        right,
                        on,
                        join_type,
                    }),
                }
            }
        }
        LogicalPlan::SubqueryAlias { alias, input } => {
            let stripped = strip_qualifier(&conjunct, &alias);
            if resolves(&stripped, &input.schema()?) {
                LogicalPlan::SubqueryAlias {
                    alias,
                    input: Box::new(push_filter(stripped, *input)?),
                }
            } else {
                LogicalPlan::Filter {
                    predicate: conjunct,
                    input: Box::new(LogicalPlan::SubqueryAlias { alias, input }),
                }
            }
        }
        LogicalPlan::Projection { exprs, input } => {
            // Rewrite output-column references to their defining
            // expressions; push below when everything rewrites.
            match substitute_projection(&conjunct, &exprs) {
                Some(rewritten) if resolves(&rewritten, &input.schema()?) => {
                    LogicalPlan::Projection {
                        exprs,
                        input: Box::new(push_filter(rewritten, *input)?),
                    }
                }
                _ => LogicalPlan::Filter {
                    predicate: conjunct,
                    input: Box::new(LogicalPlan::Projection { exprs, input }),
                },
            }
        }
        LogicalPlan::Sort { keys, input } => LogicalPlan::Sort {
            keys,
            input: Box::new(push_filter(conjunct, *input)?),
        },
        // Aggregate (HAVING), Limit, Values: the filter stays put.
        other => LogicalPlan::Filter {
            predicate: conjunct,
            input: Box::new(other),
        },
    })
}

/// Drop qualifiers that refer to a subquery alias so the expression can be
/// resolved against the subquery's inner schema.
fn strip_qualifier(expr: &Expr, alias: &str) -> Expr {
    map_columns(expr, &|qualifier, name| {
        let q = match qualifier {
            Some(q) if q.eq_ignore_ascii_case(alias) => None,
            other => other.cloned(),
        };
        Expr::Column {
            qualifier: q,
            name: name.to_string(),
        }
    })
}

/// Replace references to projection outputs by the defining expressions.
/// Returns `None` when some referenced column is not a projection output.
fn substitute_projection(expr: &Expr, outputs: &[(Expr, String)]) -> Option<Expr> {
    let ok = std::cell::Cell::new(true);
    let rewritten = map_columns(expr, &|qualifier, name| {
        if qualifier.is_none() {
            if let Some((def, _)) = outputs
                .iter()
                .find(|(_, out)| out.eq_ignore_ascii_case(name))
            {
                return def.clone();
            }
        }
        ok.set(false);
        Expr::Column {
            qualifier: qualifier.cloned(),
            name: name.to_string(),
        }
    });
    ok.get().then_some(rewritten)
}

/// Structurally map every column reference through `f`.
fn map_columns(expr: &Expr, f: &impl Fn(Option<&String>, &str) -> Expr) -> Expr {
    match expr {
        Expr::Column { qualifier, name } => f(qualifier.as_ref(), name),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
            left: Box::new(map_columns(left, f)),
            op: *op,
            right: Box::new(map_columns(right, f)),
        },
        Expr::Not(e) => Expr::Not(Box::new(map_columns(e, f))),
        Expr::IsNull(e) => Expr::IsNull(Box::new(map_columns(e, f))),
        Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(map_columns(e, f))),
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(map_columns(expr, f)),
            list: list.iter().map(|e| map_columns(e, f)).collect(),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(map_columns(expr, f)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(map_columns(expr, f)),
            low: Box::new(map_columns(low, f)),
            high: Box::new(map_columns(high, f)),
            negated: *negated,
        },
        Expr::Cast { expr, to } => Expr::Cast {
            expr: Box::new(map_columns(expr, f)),
            to: *to,
        },
        Expr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| (map_columns(c, f), map_columns(v, f)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(map_columns(e, f))),
        },
        Expr::ScalarFunc { func, args } => Expr::ScalarFunc {
            func: *func,
            args: args.iter().map(|e| map_columns(e, f)).collect(),
        },
        Expr::Negate(e) => Expr::Negate(Box::new(map_columns(e, f))),
    }
}

// ----------------------------------------------------------------------
// Rule 2: constant folding
// ----------------------------------------------------------------------

fn fold_plan(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { predicate, input } => {
            let folded = fold_expr(predicate);
            let input = fold_plan(*input)?;
            // `WHERE true` disappears entirely.
            if matches!(folded, Expr::Literal(Value::Boolean(true))) {
                input
            } else {
                LogicalPlan::Filter {
                    predicate: folded,
                    input: Box::new(input),
                }
            }
        }
        LogicalPlan::Projection { exprs, input } => LogicalPlan::Projection {
            exprs: exprs.into_iter().map(|(e, n)| (fold_expr(e), n)).collect(),
            input: Box::new(fold_plan(*input)?),
        },
        LogicalPlan::Scan {
            table_name,
            qualifier,
            provider,
            projection,
            filters,
        } => LogicalPlan::Scan {
            table_name,
            qualifier,
            provider,
            projection,
            filters: filters.into_iter().map(fold_expr).collect(),
        },
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => LogicalPlan::Join {
            left: Box::new(fold_plan(*left)?),
            right: Box::new(fold_plan(*right)?),
            on,
            join_type,
        },
        LogicalPlan::Aggregate { group, aggs, input } => LogicalPlan::Aggregate {
            group,
            aggs,
            input: Box::new(fold_plan(*input)?),
        },
        LogicalPlan::Sort { keys, input } => LogicalPlan::Sort {
            keys,
            input: Box::new(fold_plan(*input)?),
        },
        LogicalPlan::Limit { n, input } => LogicalPlan::Limit {
            n,
            input: Box::new(fold_plan(*input)?),
        },
        LogicalPlan::SubqueryAlias { alias, input } => LogicalPlan::SubqueryAlias {
            alias,
            input: Box::new(fold_plan(*input)?),
        },
        leaf => leaf,
    })
}

/// Fold literal-only subtrees and simplify boolean identities.
pub fn fold_expr(expr: Expr) -> Expr {
    // Fold children first.
    let expr = match expr {
        Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
            left: Box::new(fold_expr(*left)),
            op,
            right: Box::new(fold_expr(*right)),
        },
        Expr::Not(e) => Expr::Not(Box::new(fold_expr(*e))),
        Expr::Negate(e) => Expr::Negate(Box::new(fold_expr(*e))),
        other => other,
    };
    // Boolean identities.
    if let Expr::BinaryOp { left, op, right } = &expr {
        match op {
            BinaryOp::And => {
                if is_true(left) {
                    return (**right).clone();
                }
                if is_true(right) {
                    return (**left).clone();
                }
                if is_false(left) || is_false(right) {
                    return Expr::Literal(Value::Boolean(false));
                }
            }
            BinaryOp::Or => {
                if is_false(left) {
                    return (**right).clone();
                }
                if is_false(right) {
                    return (**left).clone();
                }
                if is_true(left) || is_true(right) {
                    return Expr::Literal(Value::Boolean(true));
                }
            }
            _ => {}
        }
    }
    // Literal-only subtrees evaluate now.
    if is_literal_only(&expr) && !matches!(expr, Expr::Literal(_)) {
        let empty = Schema::empty();
        if let Ok(bound) = expr.bind(&empty) {
            if let Ok(v) = bound.eval(&crate::row::Row::default()) {
                return Expr::Literal(v);
            }
        }
    }
    expr
}

fn is_true(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Value::Boolean(true)))
}
fn is_false(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Value::Boolean(false)))
}

fn is_literal_only(expr: &Expr) -> bool {
    let mut cols = Vec::new();
    expr.referenced_columns(&mut cols);
    cols.is_empty()
}

// ----------------------------------------------------------------------
// Rule 3: column pruning
// ----------------------------------------------------------------------

type ColSet = Vec<(Option<String>, String)>;

fn add_refs(expr: &Expr, set: &mut ColSet) {
    expr.referenced_columns(set);
    set.dedup();
}

/// Annotate scans with the minimal projection. `required = None` means the
/// parent needs every column.
fn prune_columns(plan: LogicalPlan, required: Option<ColSet>) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Projection { exprs, input } => {
            let mut needs = ColSet::new();
            for (e, _) in &exprs {
                add_refs(e, &mut needs);
            }
            LogicalPlan::Projection {
                exprs,
                input: Box::new(prune_columns(*input, Some(needs))?),
            }
        }
        LogicalPlan::Filter { predicate, input } => {
            let child_req = match required {
                None => None,
                Some(mut req) => {
                    add_refs(&predicate, &mut req);
                    Some(req)
                }
            };
            LogicalPlan::Filter {
                predicate,
                input: Box::new(prune_columns(*input, child_req)?),
            }
        }
        LogicalPlan::Aggregate { group, aggs, input } => {
            let mut needs = ColSet::new();
            for (e, _) in &group {
                add_refs(e, &mut needs);
            }
            for (a, _) in &aggs {
                if let Some(arg) = &a.arg {
                    add_refs(arg, &mut needs);
                }
            }
            LogicalPlan::Aggregate {
                group,
                aggs,
                input: Box::new(prune_columns(*input, Some(needs))?),
            }
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let (left_req, right_req) = match &required {
                None => (None, None),
                Some(req) => {
                    let left_schema = left.schema()?;
                    let right_schema = right.schema()?;
                    let mut lr = ColSet::new();
                    let mut rr = ColSet::new();
                    let mut all = req.clone();
                    for (l, r) in &on {
                        add_refs(l, &mut lr);
                        add_refs(r, &mut rr);
                        let _ = (l, r);
                    }
                    for (q, n) in all.drain(..) {
                        let as_expr = Expr::Column {
                            qualifier: q.clone(),
                            name: n.clone(),
                        };
                        if resolves(&as_expr, &left_schema) {
                            lr.push((q, n));
                        } else if resolves(&as_expr, &right_schema) {
                            rr.push((q, n));
                        } else {
                            // Ambiguous or unknown: keep everything safe.
                            return Ok(LogicalPlan::Join {
                                left: Box::new(prune_columns(*left, None)?),
                                right: Box::new(prune_columns(*right, None)?),
                                on,
                                join_type,
                            });
                        }
                    }
                    lr.dedup();
                    rr.dedup();
                    (Some(lr), Some(rr))
                }
            };
            LogicalPlan::Join {
                left: Box::new(prune_columns(*left, left_req)?),
                right: Box::new(prune_columns(*right, right_req)?),
                on,
                join_type,
            }
        }
        LogicalPlan::Sort { keys, input } => {
            let child_req = match required {
                None => None,
                Some(mut req) => {
                    for (e, _) in &keys {
                        add_refs(e, &mut req);
                    }
                    Some(req)
                }
            };
            LogicalPlan::Sort {
                keys,
                input: Box::new(prune_columns(*input, child_req)?),
            }
        }
        LogicalPlan::Limit { n, input } => LogicalPlan::Limit {
            n,
            input: Box::new(prune_columns(*input, required)?),
        },
        LogicalPlan::SubqueryAlias { alias, input } => {
            let child_req = required.map(|req| {
                req.into_iter()
                    .map(|(q, n)| {
                        // References qualified by the alias translate to
                        // unqualified inner references.
                        match q {
                            Some(ref a) if a.eq_ignore_ascii_case(&alias) => (None, n),
                            other => (other, n),
                        }
                    })
                    .collect::<ColSet>()
            });
            LogicalPlan::SubqueryAlias {
                alias,
                input: Box::new(prune_columns(*input, child_req)?),
            }
        }
        LogicalPlan::Scan {
            table_name,
            qualifier,
            provider,
            projection: _,
            filters,
        } => {
            let projection = match required {
                None => None,
                Some(req) => {
                    let provider_schema = provider.schema();
                    // Filter columns must survive the projection: the
                    // engine re-applies unhandled filters on scan output.
                    let mut needed = req;
                    for f in &filters {
                        add_refs(f, &mut needed);
                    }
                    let mut indices: Vec<usize> = Vec::new();
                    for (_, name) in &needed {
                        // Resolve by name against the provider schema.
                        if let Ok(idx) = provider_schema.resolve(None, name) {
                            if !indices.contains(&idx) {
                                indices.push(idx);
                            }
                        }
                    }
                    indices.sort_unstable();
                    if indices.len() >= provider_schema.len() {
                        None // nothing to prune
                    } else {
                        Some(indices)
                    }
                }
            };
            LogicalPlan::Scan {
                table_name,
                qualifier,
                provider,
                projection,
                filters,
            }
        }
        leaf => leaf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::MemTable;
    use crate::schema::Field;
    use crate::value::DataType;
    use std::sync::Arc;

    fn scan(cols: &[&str]) -> LogicalPlan {
        let schema = Schema::new(
            cols.iter()
                .map(|c| Field::new(*c, DataType::Int64))
                .collect(),
        );
        LogicalPlan::Scan {
            table_name: "t".into(),
            qualifier: "t".into(),
            provider: Arc::new(MemTable::new(schema, 1)),
            projection: None,
            filters: vec![],
        }
    }

    fn scan_filters(plan: &LogicalPlan) -> Vec<String> {
        match plan {
            LogicalPlan::Scan { filters, .. } => filters.iter().map(|f| f.to_string()).collect(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Projection { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::SubqueryAlias { input, .. } => scan_filters(input),
            LogicalPlan::Join { left, .. } => scan_filters(left),
            _ => vec![],
        }
    }

    #[test]
    fn filter_reaches_scan() {
        let plan = LogicalPlan::Filter {
            predicate: Expr::col("a").gt(Expr::lit(1i64)),
            input: Box::new(scan(&["a", "b"])),
        };
        let optimized = push_down_filters(plan).unwrap();
        assert!(matches!(optimized, LogicalPlan::Scan { .. }));
        assert_eq!(scan_filters(&optimized), vec!["(a > 1)"]);
    }

    #[test]
    fn conjuncts_split_across_join_sides() {
        let join = LogicalPlan::Join {
            left: Box::new(scan(&["a"])),
            right: Box::new(LogicalPlan::SubqueryAlias {
                alias: "r".into(),
                input: Box::new(scan(&["b"])),
            }),
            on: vec![(Expr::col("a"), Expr::col("b"))],
            join_type: JoinType::Inner,
        };
        let plan = LogicalPlan::Filter {
            predicate: Expr::col("a")
                .gt(Expr::lit(1i64))
                .and(Expr::col("r.b").lt(Expr::lit(5i64))),
            input: Box::new(join),
        };
        let optimized = push_down_filters(plan).unwrap();
        match &optimized {
            LogicalPlan::Join { left, right, .. } => {
                assert!(
                    matches!(**left, LogicalPlan::Scan { ref filters, .. } if filters.len() == 1)
                );
                // Right side: filter pushed through the alias into the scan.
                match &**right {
                    LogicalPlan::SubqueryAlias { input, .. } => {
                        assert!(matches!(
                            **input,
                            LogicalPlan::Scan { ref filters, .. } if filters.len() == 1
                        ));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("expected join at top, got {other:?}"),
        }
    }

    #[test]
    fn left_join_right_side_filter_stays_above() {
        let join = LogicalPlan::Join {
            left: Box::new(scan(&["a"])),
            right: Box::new(LogicalPlan::SubqueryAlias {
                alias: "r".into(),
                input: Box::new(scan(&["b"])),
            }),
            on: vec![(Expr::col("a"), Expr::col("b"))],
            join_type: JoinType::Left,
        };
        let plan = LogicalPlan::Filter {
            predicate: Expr::col("r.b").lt(Expr::lit(5i64)),
            input: Box::new(join),
        };
        let optimized = push_down_filters(plan).unwrap();
        assert!(matches!(optimized, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn filter_pushes_through_projection_with_substitution() {
        let plan = LogicalPlan::Filter {
            predicate: Expr::col("double_a").gt(Expr::lit(4i64)),
            input: Box::new(LogicalPlan::Projection {
                exprs: vec![(Expr::col("a").mul(Expr::lit(2i64)), "double_a".into())],
                input: Box::new(scan(&["a"])),
            }),
        };
        let optimized = push_down_filters(plan).unwrap();
        // Top node is now the projection; the rewritten filter reached the
        // scan as (a * 2) > 4.
        assert!(matches!(optimized, LogicalPlan::Projection { .. }));
        assert_eq!(scan_filters(&optimized), vec!["((a * 2) > 4)"]);
    }

    #[test]
    fn constant_folding_simplifies() {
        let e = Expr::lit(2i64).add(Expr::lit(3i64)).gt(Expr::lit(4i64));
        assert_eq!(fold_expr(e), Expr::Literal(Value::Boolean(true)));

        let e = Expr::lit(true).and(Expr::col("a").gt(Expr::lit(1i64)));
        assert_eq!(fold_expr(e), Expr::col("a").gt(Expr::lit(1i64)));

        let e = Expr::lit(false).and(Expr::col("a").gt(Expr::lit(1i64)));
        assert_eq!(fold_expr(e), Expr::Literal(Value::Boolean(false)));

        let e = Expr::lit(true).or(Expr::col("a").gt(Expr::lit(1i64)));
        assert_eq!(fold_expr(e), Expr::Literal(Value::Boolean(true)));
    }

    #[test]
    fn where_true_is_removed() {
        let plan = LogicalPlan::Filter {
            predicate: Expr::lit(1i64).eq(Expr::lit(1i64)),
            input: Box::new(scan(&["a"])),
        };
        let optimized = fold_plan(plan).unwrap();
        assert!(matches!(optimized, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn pruning_sets_scan_projection() {
        let plan = LogicalPlan::Projection {
            exprs: vec![(Expr::col("c"), "c".into())],
            input: Box::new(scan(&["a", "b", "c", "d"])),
        };
        let optimized = prune_columns(plan, None).unwrap();
        match &optimized {
            LogicalPlan::Projection { input, .. } => match &**input {
                LogicalPlan::Scan { projection, .. } => {
                    assert_eq!(projection.as_deref(), Some(&[2usize][..]));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pruning_keeps_filter_columns() {
        let plan = LogicalPlan::Projection {
            exprs: vec![(Expr::col("a"), "a".into())],
            input: Box::new(LogicalPlan::Scan {
                table_name: "t".into(),
                qualifier: "t".into(),
                provider: match scan(&["a", "b", "c"]) {
                    LogicalPlan::Scan { provider, .. } => provider,
                    _ => unreachable!(),
                },
                projection: None,
                filters: vec![Expr::col("c").gt(Expr::lit(0i64))],
            }),
        };
        let optimized = prune_columns(plan, None).unwrap();
        match &optimized {
            LogicalPlan::Projection { input, .. } => match &**input {
                LogicalPlan::Scan { projection, .. } => {
                    // a (required) and c (filter) survive; b is pruned.
                    assert_eq!(projection.as_deref(), Some(&[0usize, 2][..]));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn no_required_columns_means_no_pruning() {
        let optimized = prune_columns(scan(&["a", "b"]), None).unwrap();
        match optimized {
            LogicalPlan::Scan { projection, .. } => assert!(projection.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregate_prunes_to_group_and_agg_columns() {
        use crate::aggregate::AggFunc;
        use crate::logical::AggExpr;
        let plan = LogicalPlan::Aggregate {
            group: vec![(Expr::col("a"), "a".into())],
            aggs: vec![(AggExpr::new(AggFunc::Sum, Expr::col("c")), "s".into())],
            input: Box::new(scan(&["a", "b", "c"])),
        };
        let optimized = prune_columns(plan, None).unwrap();
        match &optimized {
            LogicalPlan::Aggregate { input, .. } => match &**input {
                LogicalPlan::Scan { projection, .. } => {
                    assert_eq!(projection.as_deref(), Some(&[0usize, 2][..]));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_pipeline_runs() {
        let plan = LogicalPlan::Filter {
            predicate: Expr::col("a").gt(Expr::lit(1i64)).and(Expr::lit(true)),
            input: Box::new(scan(&["a", "b"])),
        };
        let optimized = optimize(plan).unwrap();
        assert_eq!(scan_filters(&optimized), vec!["(a > 1)"]);
    }
}
