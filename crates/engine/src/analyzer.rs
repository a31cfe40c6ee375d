//! The analyzer: turns a parsed [`Query`] AST into a checked
//! [`LogicalPlan`], resolving tables through a catalog, splitting join
//! conditions into equi-pairs, expanding `*`, and planning aggregation
//! (GROUP BY / DISTINCT / HAVING).

use crate::datasource::TableProvider;
use crate::error::{EngineError, Result};
use crate::expr::{BinaryOp, Expr};
use crate::logical::{JoinType, LogicalPlan};
use crate::parser::{Query, SelectItem, TableFactor};
use crate::schema::Schema;
use crate::value::Value;
use std::sync::Arc;

/// Table lookup used during analysis.
pub trait Catalog {
    fn table(&self, name: &str) -> Option<Arc<dyn TableProvider>>;

    /// Temporary views: named logical plans (`createOrReplaceTempView`).
    /// Checked before tables.
    fn view(&self, _name: &str) -> Option<LogicalPlan> {
        None
    }
}

impl<F> Catalog for F
where
    F: Fn(&str) -> Option<Arc<dyn TableProvider>>,
{
    fn table(&self, name: &str) -> Option<Arc<dyn TableProvider>> {
        self(name)
    }
}

/// Analyze a query into a validated logical plan.
pub fn analyze(query: &Query, catalog: &dyn Catalog) -> Result<LogicalPlan> {
    let plan = plan_query(query, catalog)?;
    plan.check()?;
    Ok(plan)
}

fn plan_query(query: &Query, catalog: &dyn Catalog) -> Result<LogicalPlan> {
    // FROM and JOINs (left-deep).
    let mut plan = plan_factor(&query.from, catalog)?;
    let mut residual_filters: Vec<Expr> = Vec::new();
    for join in &query.joins {
        let right = plan_factor(&join.relation, catalog)?;
        let left_schema = plan.schema();
        let right_schema = right.schema();
        let mut conjuncts = Vec::new();
        flatten_and(&join.on, &mut conjuncts);
        let mut on = Vec::new();
        for c in conjuncts {
            match split_equi(&c, left_schema, right_schema) {
                Some(pair) => on.push(pair),
                None => residual_filters.push(c),
            }
        }
        if on.is_empty() {
            return Err(EngineError::Analysis(format!(
                "join condition {} contains no usable equi-predicate",
                join.on
            )));
        }
        plan = LogicalPlan::join(
            plan,
            right,
            on,
            if join.left_outer {
                JoinType::Left
            } else {
                JoinType::Inner
            },
        );
    }
    for f in residual_filters {
        plan = LogicalPlan::filter(f, plan);
    }

    // WHERE.
    if let Some(pred) = &query.where_clause {
        plan = LogicalPlan::filter(pred.clone(), plan);
    }

    // Aggregation?
    let has_agg = query
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Agg { .. }));
    let aggregated = has_agg || !query.group_by.is_empty() || query.distinct;

    if aggregated {
        plan = plan_aggregate(query, plan, has_agg)?;
    } else {
        plan = plan_projection(query, plan)?;
    }

    // ORDER BY: prefer the output schema (aliases), but fall back to the
    // pre-projection schema — `ORDER BY t.col` must work even when the
    // select list renames or drops the qualifier.
    if !query.order_by.is_empty() {
        let out_schema = plan.schema();
        // SQL ordinals: `ORDER BY 2` means the second output column.
        let mut order_by = query.order_by.clone();
        for (e, _) in order_by.iter_mut() {
            if let Expr::Literal(Value::Int64(n)) = e {
                let n = *n;
                if n < 1 || n as usize > out_schema.fields.len() {
                    return Err(EngineError::Analysis(format!(
                        "ORDER BY position {n} is out of range (select list has {} columns)",
                        out_schema.fields.len()
                    )));
                }
                let field = &out_schema.fields[n as usize - 1];
                *e = Expr::Column {
                    qualifier: field.qualifier.clone(),
                    name: field.name.clone(),
                };
            }
        }
        let resolves_out = order_by
            .iter()
            .all(|(e, _)| e.data_type(out_schema).is_ok());
        if resolves_out {
            plan = LogicalPlan::sort(order_by, plan);
        } else if let LogicalPlan::Projection { exprs, input, .. } = plan {
            let inner_schema = input.schema();
            let resolves_inner = order_by
                .iter()
                .all(|(e, _)| e.data_type(inner_schema).is_ok());
            if !resolves_inner {
                return Err(EngineError::Analysis(format!(
                    "ORDER BY key {} not found in select output or its input",
                    order_by[0].0
                )));
            }
            plan = LogicalPlan::projection(exprs, LogicalPlan::sort(order_by, *input));
        } else {
            return Err(EngineError::Analysis(format!(
                "ORDER BY key {} not found in query output",
                order_by[0].0
            )));
        }
    }
    if let Some(n) = query.limit {
        plan = LogicalPlan::limit(n, plan);
    }
    Ok(plan)
}

fn plan_factor(factor: &TableFactor, catalog: &dyn Catalog) -> Result<LogicalPlan> {
    match factor {
        TableFactor::Table { name, alias } => {
            if let Some(view) = catalog.view(name) {
                return Ok(LogicalPlan::subquery_alias(
                    alias.clone().unwrap_or_else(|| name.clone()),
                    view,
                ));
            }
            let provider = catalog
                .table(name)
                .ok_or_else(|| EngineError::TableNotFound(name.clone()))?;
            Ok(LogicalPlan::scan(
                name.clone(),
                alias.clone().unwrap_or_else(|| name.clone()),
                provider,
                None,
                vec![],
            ))
        }
        TableFactor::Derived { subquery, alias } => {
            let inner = plan_query(subquery, catalog)?;
            Ok(LogicalPlan::subquery_alias(alias.clone(), inner))
        }
    }
}

/// Flatten nested ANDs into a conjunct list.
pub fn flatten_and(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::BinaryOp {
            left,
            op: BinaryOp::And,
            right,
        } => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Try to orient an equality conjunct into (left-side expr, right-side
/// expr) against the two input schemas.
fn split_equi(conjunct: &Expr, left: &Schema, right: &Schema) -> Option<(Expr, Expr)> {
    let Expr::BinaryOp {
        left: a,
        op: BinaryOp::Eq,
        right: b,
    } = conjunct
    else {
        return None;
    };
    let resolves = |e: &Expr, s: &Schema| e.data_type(s).is_ok();
    if resolves(a, left) && resolves(b, right) {
        Some(((**a).clone(), (**b).clone()))
    } else if resolves(b, left) && resolves(a, right) {
        Some(((**b).clone(), (**a).clone()))
    } else {
        None
    }
}

fn plan_projection(query: &Query, input: LogicalPlan) -> Result<LogicalPlan> {
    // A bare `SELECT * FROM ...` needs no projection node at all.
    if query.items.len() == 1 && matches!(query.items[0], SelectItem::Star) {
        return Ok(input);
    }
    let input_schema = input.schema();
    let mut exprs: Vec<(Expr, String)> = Vec::new();
    for item in &query.items {
        match item {
            SelectItem::Star => {
                for field in &input_schema.fields {
                    exprs.push((
                        Expr::Column {
                            qualifier: field.qualifier.clone(),
                            name: field.name.clone(),
                        },
                        field.name.clone(),
                    ));
                }
            }
            SelectItem::Scalar { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.default_name());
                exprs.push((expr.clone(), name));
            }
            SelectItem::Agg { .. } => {
                return Err(EngineError::Analysis(
                    "aggregate without GROUP BY handled elsewhere".into(),
                ))
            }
        }
    }
    Ok(LogicalPlan::projection(exprs, input))
}

fn plan_aggregate(query: &Query, input: LogicalPlan, has_agg: bool) -> Result<LogicalPlan> {
    if query.distinct && has_agg {
        return Err(EngineError::Analysis(
            "SELECT DISTINCT cannot be combined with aggregate functions".into(),
        ));
    }
    if query.items.iter().any(|i| matches!(i, SelectItem::Star)) {
        return Err(EngineError::Analysis(
            "SELECT * cannot be combined with aggregation".into(),
        ));
    }

    // DISTINCT = group by every select expression, no aggregates.
    if query.distinct {
        let mut group = Vec::new();
        for item in &query.items {
            let SelectItem::Scalar { expr, alias } = item else {
                unreachable!("agg with distinct rejected above");
            };
            let name = alias.clone().unwrap_or_else(|| expr.default_name());
            group.push((expr.clone(), name));
        }
        return Ok(LogicalPlan::aggregate(group, vec![], input, Vec::new()));
    }

    // GROUP BY: every scalar select item must match a group expression.
    let mut group: Vec<(Expr, String)> = Vec::new();
    for g in &query.group_by {
        // Name from a matching aliased select item, else the default.
        let name = query
            .items
            .iter()
            .find_map(|item| match item {
                SelectItem::Scalar {
                    expr,
                    alias: Some(a),
                } if exprs_match(expr, g) => Some(a.clone()),
                _ => None,
            })
            .unwrap_or_else(|| g.default_name());
        group.push((g.clone(), name));
    }
    let mut aggs = Vec::new();
    // Track output order: each select item maps to a column of the
    // aggregate output, referenced by name in the final projection.
    let mut output: Vec<(Expr, String)> = Vec::new();
    for item in &query.items {
        match item {
            SelectItem::Scalar { expr, alias } => {
                let pos = group
                    .iter()
                    .position(|(g, _)| exprs_match(g, expr))
                    .ok_or_else(|| {
                        EngineError::Analysis(format!("select item {expr} must appear in GROUP BY"))
                    })?;
                let name = alias.clone().unwrap_or_else(|| group[pos].1.clone());
                output.push((Expr::col(group[pos].1.clone()), name));
            }
            SelectItem::Agg { agg, alias } => {
                let name = alias.clone().unwrap_or_else(|| agg.default_name());
                aggs.push((agg.clone(), name.clone()));
                output.push((Expr::col(name.clone()), name));
            }
            SelectItem::Star => unreachable!("rejected above"),
        }
    }
    let mut plan = LogicalPlan::aggregate(group, aggs, input, Vec::new());
    // HAVING filters the aggregate output (aliases resolve here).
    if let Some(having) = &query.having {
        plan = LogicalPlan::filter(having.clone(), plan);
    }
    // Final projection establishes select order and drops group columns not
    // selected.
    Ok(LogicalPlan::projection(output, plan))
}

/// Structural expression match, ignoring qualifiers on column references so
/// that `GROUP BY t.a` matches select item `a`.
fn exprs_match(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (
            Expr::Column {
                name: n1,
                qualifier: q1,
            },
            Expr::Column {
                name: n2,
                qualifier: q2,
            },
        ) => {
            n1.eq_ignore_ascii_case(n2)
                && match (q1, q2) {
                    (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
                    _ => true, // one side unqualified: name match suffices
                }
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::MemTable;
    use crate::parser::parse;
    use crate::row::Row;
    use crate::schema::Field;
    use crate::value::DataType;

    fn catalog() -> impl Catalog {
        |name: &str| -> Option<Arc<dyn TableProvider>> {
            let schema = match name {
                "users" => Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("dept", DataType::Utf8),
                    Field::new("score", DataType::Float64),
                ]),
                "depts" => Schema::new(vec![
                    Field::new("dept_name", DataType::Utf8),
                    Field::new("building", DataType::Utf8),
                ]),
                _ => return None,
            };
            Some(Arc::new(MemTable::with_rows(
                schema,
                vec![Row::new(vec![])].into_iter().take(0).collect(),
                1,
            )))
        }
    }

    fn plan(sql: &str) -> Result<LogicalPlan> {
        analyze(&parse(sql).unwrap(), &catalog())
    }

    #[test]
    fn simple_select_builds_projection() {
        let p = plan("SELECT id, score FROM users").unwrap();
        let s = p.schema();
        assert_eq!(s.field_names(), vec!["id", "score"]);
    }

    #[test]
    fn select_star_passthrough() {
        let p = plan("SELECT * FROM users").unwrap();
        assert_eq!(p.schema().len(), 3);
        assert!(matches!(p, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn unknown_table_errors() {
        assert!(matches!(
            plan("SELECT a FROM nope"),
            Err(EngineError::TableNotFound(_))
        ));
    }

    #[test]
    fn unknown_column_errors() {
        assert!(plan("SELECT nope FROM users").is_err());
    }

    #[test]
    fn join_splits_equi_keys() {
        let p = plan("SELECT id FROM users JOIN depts ON users.dept = depts.dept_name").unwrap();
        fn find_join(p: &LogicalPlan) -> Option<&LogicalPlan> {
            match p {
                LogicalPlan::Join { .. } => Some(p),
                LogicalPlan::Projection { input, .. }
                | LogicalPlan::Filter { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Sort { input, .. } => find_join(input),
                _ => None,
            }
        }
        let join = find_join(&p).expect("join in plan");
        match join {
            LogicalPlan::Join { on, .. } => assert_eq!(on.len(), 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn reversed_join_condition_is_oriented() {
        // depts.dept_name = users.dept — right side named first.
        let p = plan("SELECT id FROM users JOIN depts ON depts.dept_name = users.dept");
        assert!(p.is_ok());
    }

    #[test]
    fn join_without_equi_errors() {
        let err = plan("SELECT id FROM users JOIN depts ON users.score > 1").unwrap_err();
        assert!(err.to_string().contains("equi"));
    }

    #[test]
    fn group_by_with_aggregates() {
        let p = plan("SELECT dept, AVG(score) AS m, COUNT(*) n FROM users GROUP BY dept").unwrap();
        let s = p.schema();
        assert_eq!(s.field_names(), vec!["dept", "m", "n"]);
        assert_eq!(s.field(1).data_type, DataType::Float64);
    }

    #[test]
    fn ungrouped_scalar_in_agg_query_errors() {
        let err = plan("SELECT id, COUNT(*) FROM users GROUP BY dept").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }

    #[test]
    fn having_resolves_aliases() {
        let p = plan("SELECT dept, COUNT(*) AS n FROM users GROUP BY dept HAVING n > 2");
        assert!(p.is_ok(), "{p:?}");
    }

    #[test]
    fn distinct_becomes_group_by() {
        let p = plan("SELECT DISTINCT dept FROM users").unwrap();
        fn has_aggregate(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Aggregate { aggs, .. } => aggs.is_empty(),
                LogicalPlan::Projection { input, .. } | LogicalPlan::Filter { input, .. } => {
                    has_aggregate(input)
                }
                _ => false,
            }
        }
        assert!(has_aggregate(&p));
    }

    #[test]
    fn derived_table_with_alias() {
        let p = plan(
            "SELECT x.m FROM (SELECT dept, AVG(score) AS m FROM users GROUP BY dept) x \
             WHERE x.m > 1.0",
        )
        .unwrap();
        assert_eq!(p.schema().field_names(), vec!["m"]);
    }

    #[test]
    fn global_aggregate_without_group() {
        let p = plan("SELECT COUNT(*) FROM users").unwrap();
        let s = p.schema();
        assert_eq!(s.len(), 1);
        assert_eq!(s.field(0).data_type, DataType::Int64);
    }

    #[test]
    fn order_by_alias_and_limit() {
        let p = plan("SELECT dept, COUNT(*) AS n FROM users GROUP BY dept ORDER BY n DESC LIMIT 5")
            .unwrap();
        assert!(matches!(p, LogicalPlan::Limit { n: 5, .. }));
    }

    #[test]
    fn table_alias_qualifies_columns() {
        let p = plan("SELECT u.id FROM users u WHERE u.score > 0").unwrap();
        assert_eq!(p.schema().field_names(), vec!["id"]);
    }

    #[test]
    fn distinct_with_agg_rejected() {
        assert!(plan("SELECT DISTINCT COUNT(*) FROM users").is_err());
    }

    #[test]
    fn star_with_agg_rejected() {
        assert!(plan("SELECT *, COUNT(*) FROM users GROUP BY dept").is_err());
    }
}
