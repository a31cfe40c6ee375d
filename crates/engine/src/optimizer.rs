//! The rule-based optimizer — a miniature Catalyst.
//!
//! Four rules, mirroring the optimizations the paper leans on:
//!
//! 1. **Predicate pushdown** (§VI.3) — filters migrate through projections,
//!    joins and subquery aliases down into scans, where the provider can
//!    turn them into source-side filters; filters that stop at the same
//!    node become one conjunction (Catalyst's `CombineFilters`).
//! 2. **Constant folding** — literal subtrees evaluate at plan time.
//! 3. **Column pruning** (§VI.1) — each scan is annotated with exactly the
//!    columns the query needs; providers that support projection (SHC) emit
//!    narrow rows, providers that don't (the generic-source baseline) keep
//!    shipping full rows, which is precisely the gap the paper measures.
//! 4. **Aggregation below key-preserving lookups** — an aggregate over an
//!    inner-join chain groups before the joins whose other input is joined
//!    on its declared unique key and only supplies group columns (eager
//!    aggregation). The catalog maps an HBase row key onto a column, so SHC
//!    knows `item`, `warehouse` and `date_dim` are unique on their `*_sk`.

use crate::error::Result;
use crate::expr::{BinaryOp, Expr};
use crate::logical::{column_index, AggExpr, JoinType, LogicalPlan};
use crate::schema::{Schema, SchemaRef};
use crate::value::Value;
use std::sync::Arc;

/// Run the full rule pipeline: fold constants, push filters down, move
/// aggregates below lookups, push the filters that stopped on them down
/// again, prune columns.
pub fn optimize(plan: LogicalPlan) -> Result<LogicalPlan> {
    let pushed = push_down_filters(fold_plan(plan)?)?;
    prune_columns(push_down_filters(aggregate_below_lookups(pushed)?)?, None)
}

// ----------------------------------------------------------------------
// Rule 1: predicate pushdown
// ----------------------------------------------------------------------

fn push_down_filters(plan: LogicalPlan) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter {
            predicate, input, ..
        } => {
            let mut input = push_down_filters(*input)?;
            let mut conjuncts = Vec::new();
            crate::analyzer::flatten_and(&predicate, &mut conjuncts);
            for c in conjuncts {
                input = push_filter(c, input)?;
            }
            Ok(input)
        }
        other => other.map_inputs(push_down_filters),
    }
}

fn resolves(expr: &Expr, schema: &Schema) -> bool {
    expr.data_type(schema).is_ok()
}

/// Place one conjunct as low in the plan as it can legally go. A filter
/// never changes a schema, so every node on the way keeps its own.
fn push_filter(conjunct: Expr, mut plan: LogicalPlan) -> Result<LogicalPlan> {
    if let LogicalPlan::Filter {
        predicate, input, ..
    } = plan
    {
        return Ok(match push_filter(conjunct, *input)? {
            // Stopped right below: one filter of both.
            LogicalPlan::Filter {
                predicate: below,
                input,
                ..
            } => LogicalPlan::filter(predicate.and(below), *input),
            pushed => LogicalPlan::filter(predicate, pushed),
        });
    }
    // The input the conjunct moves into, and the conjunct as that input
    // reads it; or the conjunct, which stays above this node.
    let into = match &mut plan {
        LogicalPlan::Scan { filters, .. } => {
            filters.push(conjunct);
            return Ok(plan);
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            ..
        } => {
            if resolves(&conjunct, left.schema()) {
                Ok((0, conjunct))
            } else if *join_type == JoinType::Inner && resolves(&conjunct, right.schema()) {
                Ok((1, conjunct))
            } else {
                Err(conjunct)
            }
        }
        LogicalPlan::SubqueryAlias { alias, input, .. } => {
            let stripped = strip_qualifier(&conjunct, alias);
            match resolves(&stripped, input.schema()) {
                true => Ok((0, stripped)),
                false => Err(conjunct),
            }
        }
        // Rewrite output-column references to their defining expressions;
        // push below when everything rewrites.
        LogicalPlan::Projection { exprs, input, .. } => {
            match substitute_projection(&conjunct, exprs) {
                Some(rewritten) if resolves(&rewritten, input.schema()) => Ok((0, rewritten)),
                _ => Err(conjunct),
            }
        }
        LogicalPlan::Sort { .. } => Ok((0, conjunct)),
        // Aggregate (HAVING), Limit, Values: the filter stays put.
        _ => Err(conjunct),
    };
    let (target, conjunct) = match into {
        Ok(into) => into,
        Err(conjunct) => return Ok(LogicalPlan::filter(conjunct, plan)),
    };
    let mut conjunct = Some(conjunct);
    let mut at = 0;
    plan.map_inputs(|input| {
        at += 1;
        match conjunct.take_if(|_| at - 1 == target) {
            Some(conjunct) => push_filter(conjunct, input),
            None => Ok(input),
        }
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
    let mut plan = plan.map_inputs(fold_plan)?;
    if let LogicalPlan::Filter {
        predicate, input, ..
    } = plan
    {
        // `WHERE true` disappears entirely.
        return Ok(match fold_expr(predicate) {
            Expr::Literal(Value::Boolean(true)) => *input,
            folded => LogicalPlan::filter(folded, *input),
        });
    }
    match &mut plan {
        LogicalPlan::Projection { exprs, .. } => {
            *exprs = exprs.drain(..).map(|(e, n)| (fold_expr(e), n)).collect();
            plan.rederive_schema();
        }
        // Filters do not shape a scan's output.
        LogicalPlan::Scan { filters, .. } => {
            *filters = filters.drain(..).map(fold_expr).collect();
        }
        _ => {}
    }
    Ok(plan)
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
/// parent needs every column. A node whose inputs keep their schemas keeps
/// its own.
fn prune_columns(plan: LogicalPlan, required: Option<ColSet>) -> Result<LogicalPlan> {
    let with = |required: Option<ColSet>, exprs: &mut dyn Iterator<Item = &Expr>| {
        required.map(|mut req| {
            exprs.for_each(|e| add_refs(e, &mut req));
            req
        })
    };
    // What each input must still supply, in plan order.
    let inputs: Vec<Option<ColSet>> = match &plan {
        LogicalPlan::Projection { exprs, .. } => {
            vec![with(Some(ColSet::new()), &mut exprs.iter().map(|(e, _)| e))]
        }
        LogicalPlan::Filter { predicate, .. } => vec![with(required, &mut [predicate].into_iter())],
        LogicalPlan::Aggregate { group, aggs, .. } => {
            let args = aggs.iter().filter_map(|(a, _)| a.arg.as_ref());
            vec![with(
                Some(ColSet::new()),
                &mut group.iter().map(|(e, _)| e).chain(args),
            )]
        }
        LogicalPlan::Join {
            left, right, on, ..
        } => match required {
            None => vec![None, None],
            Some(req) => join_requirements(req, on, left.schema(), right.schema()),
        },
        LogicalPlan::Sort { keys, .. } => vec![with(required, &mut keys.iter().map(|(e, _)| e))],
        LogicalPlan::Limit { .. } => vec![required],
        LogicalPlan::SubqueryAlias { alias, .. } => {
            // References qualified by the alias translate to unqualified
            // inner references.
            vec![required.map(|req| {
                req.into_iter()
                    .map(|(q, n)| match q {
                        Some(ref a) if a.eq_ignore_ascii_case(alias) => (None, n),
                        other => (other, n),
                    })
                    .collect::<ColSet>()
            })]
        }
        LogicalPlan::Scan { .. } => return Ok(prune_scan(plan, required)),
        LogicalPlan::Values { .. } => return Ok(plan),
    };
    let mut inputs = inputs.into_iter();
    plan.map_inputs(|input| prune_columns(input, inputs.next().flatten()))
}

/// What a join's left and right inputs must supply for `required` above it
/// and its keys `on`: every column where the input that resolves it needs
/// it, or everything from both where one resolves on neither side.
fn join_requirements(
    required: ColSet,
    on: &[(Expr, Expr)],
    left: &Schema,
    right: &Schema,
) -> Vec<Option<ColSet>> {
    let mut lr = ColSet::new();
    let mut rr = ColSet::new();
    for (l, r) in on {
        add_refs(l, &mut lr);
        add_refs(r, &mut rr);
    }
    for (q, n) in required {
        let as_expr = Expr::Column {
            qualifier: q.clone(),
            name: n.clone(),
        };
        if resolves(&as_expr, left) {
            lr.push((q, n));
        } else if resolves(&as_expr, right) {
            rr.push((q, n));
        } else {
            // Ambiguous or unknown: keep everything safe.
            return vec![None, None];
        }
    }
    lr.dedup();
    rr.dedup();
    vec![Some(lr), Some(rr)]
}

/// `scan` reading only the provider columns `required` or its filters
/// name; the same node where that is the projection it has.
fn prune_scan(mut scan: LogicalPlan, required: Option<ColSet>) -> LogicalPlan {
    let LogicalPlan::Scan {
        provider,
        projection,
        filters,
        ..
    } = &mut scan
    else {
        unreachable!("prune_scan is handed scans")
    };
    let pruned = required.and_then(|mut needed| {
        let provider_schema = provider.schema();
        // Filter columns must survive the projection: the engine re-applies
        // unhandled filters on scan output.
        for f in filters.iter() {
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
        // Every column: nothing to prune.
        (indices.len() < provider_schema.len()).then_some(indices)
    });
    if pruned != *projection {
        *projection = pruned;
        scan.rederive_schema();
    }
    scan
}

// ----------------------------------------------------------------------
// Rule 4: aggregation below key-preserving lookups
// ----------------------------------------------------------------------

/// Move every grouped aggregate below the inner equi-joins of its input
/// that are key-preserving lookups: Yan & Larson's eager group-by in its
/// unique-key case, Calcite's `AggregateJoinTransposeRule` for a
/// unique-keyed side. A join input is such a lookup when
///
/// - it joins by a single key pair on its declared unique key
///   ([`LogicalPlan::unique_key`]), the pair's other side a column (the
///   fact column);
/// - it feeds no aggregate argument, only group columns;
/// - its key, or the fact column, is a group column;
/// - no other join condition or remaining filter reads its columns;
/// - it drops no rows by a predicate of its own
///   ([`LogicalPlan::has_predicate`]): joined first, a filtered lookup
///   cuts the rows the aggregate groups.
///
/// Each input row then meets at most one lookup row, and the rows of one
/// group share the fact column, so grouping by the fact column instead and
/// joining the groups with the lookup gives the same rows: no second
/// aggregate is needed above the join. The lookups are re-joined above the
/// aggregate in their original order, under a projection that restores the
/// aggregate's output columns.
fn aggregate_below_lookups(plan: LogicalPlan) -> Result<LogicalPlan> {
    let plan = plan.map_inputs(aggregate_below_lookups)?;
    let found = match &plan {
        LogicalPlan::Aggregate {
            group, aggs, input, ..
        } if !group.is_empty() => lookups_of(group, aggs, input),
        _ => Vec::new(),
    };
    Ok(match (found.is_empty(), plan) {
        (
            false,
            LogicalPlan::Aggregate {
                group, aggs, input, ..
            },
        ) => eager_aggregate(group, aggs, *input, found),
        (_, plan) => plan,
    })
}

/// An input of an inner-join chain the aggregate above it can be moved
/// below.
struct Lookup {
    /// Position among the chain's inputs, in plan order.
    at: usize,
    /// Its output schema: the columns only it supplies.
    schema: SchemaRef,
    /// The join key over it (its unique key), and the fact column the join
    /// equates with it.
    key: Expr,
    fact: Expr,
    /// The name `EXPLAIN ANALYZE` gives it.
    name: String,
}

/// Does `expr` read any column of `schema`?
fn reads(expr: &Expr, schema: &Schema) -> bool {
    columns_of(expr).iter().any(|c| resolves(c, schema))
}

fn columns_of(expr: &Expr) -> Vec<Expr> {
    let mut refs = Vec::new();
    expr.referenced_columns(&mut refs);
    refs.into_iter()
        .map(|(qualifier, name)| Expr::Column { qualifier, name })
        .collect()
}

/// A join or a filter above one: a node of the inner-join chain rule 4
/// takes apart. Anything else is one of the chain's inputs.
fn in_chain(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Join {
            join_type: JoinType::Inner,
            ..
        } => true,
        LogicalPlan::Filter { input, .. } => in_chain(input),
        _ => false,
    }
}

/// A join's id and its one key pair, oriented (over the input at hand, over
/// the other input).
type KeyPair<'a> = (usize, &'a Expr, &'a Expr);

/// An inner-join chain taken apart, in plan order.
#[derive(Default)]
struct Chain<'a> {
    /// Each input, with the key pair of its join when it is a direct input
    /// of a join with one.
    inputs: Vec<(&'a LogicalPlan, Option<KeyPair<'a>>)>,
    /// Every join key, with its join's id, and every remaining filter.
    exprs: Vec<(Option<usize>, &'a Expr)>,
    joins: usize,
}

impl<'a> Chain<'a> {
    fn walk(&mut self, plan: &'a LogicalPlan, pair: Option<KeyPair<'a>>) {
        match plan {
            LogicalPlan::Filter {
                predicate, input, ..
            } if in_chain(input) => {
                self.exprs.push((None, predicate));
                self.walk(input, None);
            }
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type: JoinType::Inner,
                ..
            } => {
                let id = self.joins;
                self.joins += 1;
                self.exprs
                    .extend(on.iter().flat_map(|(l, r)| [(Some(id), l), (Some(id), r)]));
                let single = match &on[..] {
                    [(l, r)] => Some((l, r)),
                    _ => None,
                };
                self.walk(left, single.map(|(l, r)| (id, l, r)));
                self.walk(right, single.map(|(l, r)| (id, r, l)));
            }
            input => self.inputs.push((input, pair)),
        }
    }
}

/// The inputs of `input`'s inner-join chain that an aggregate grouping by
/// `group` and computing `aggs` can be moved below. At most one input of a
/// join qualifies: the other one stays as what the lookup joins.
fn lookups_of(
    group: &[(Expr, String)],
    aggs: &[(AggExpr, String)],
    input: &LogicalPlan,
) -> Vec<Lookup> {
    if !in_chain(input) {
        return Vec::new();
    }
    let mut chain = Chain::default();
    chain.walk(input, None);
    let whole = input.schema();
    let mut found: Vec<Lookup> = Vec::new();
    let mut used_joins = Vec::new();
    for (at, &(plan, pair)) in chain.inputs.iter().enumerate() {
        let Some((join, key, fact)) = pair else {
            continue;
        };
        let schema = plan.schema();
        let unique = plan
            .unique_key()
            .is_some_and(|k| column_index(key, schema) == Some(k));
        let fact_at = column_index(fact, whole);
        let keyed_group = group.iter().any(|(g, _)| {
            let g = column_index(g, whole);
            g.is_some() && (g == column_index(key, whole) || g == fact_at)
        });
        let qualifies = unique
            && !plan.has_predicate()
            && fact_at.is_some()
            && keyed_group
            && !used_joins.contains(&join)
            && chain
                .exprs
                .iter()
                .all(|&(owner, e)| owner == Some(join) || !reads(e, schema))
            && aggs
                .iter()
                .all(|(a, _)| a.arg.as_ref().is_none_or(|e| !reads(e, schema)))
            // A group column it supplies is all its own.
            && group.iter().all(|(g, _)| {
                !reads(g, schema) || columns_of(g).iter().all(|c| resolves(c, schema))
            });
        if qualifies {
            used_joins.push(join);
            found.push(Lookup {
                at,
                schema: Arc::clone(schema),
                key: key.clone(),
                fact: fact.clone(),
                name: relation_name(plan),
            });
        }
    }
    found
}

/// What `EXPLAIN ANALYZE` calls a join input: its alias or table name.
fn relation_name(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan { qualifier, .. } => qualifier.clone(),
        LogicalPlan::SubqueryAlias { alias, .. } => alias.clone(),
        other => other
            .children()
            .first()
            .map_or_else(|| "values".to_string(), |c| relation_name(c)),
    }
}

/// The aggregate of `group` and `aggs` over `input`, moved below `lookups`
/// (found by [`lookups_of`] over the same plan). It stays where it is when
/// its outputs could not be told apart from the lookups' columns by name
/// above them.
fn eager_aggregate(
    group: Vec<(Expr, String)>,
    aggs: Vec<(AggExpr, String)>,
    input: LogicalPlan,
    lookups: Vec<Lookup>,
) -> LogicalPlan {
    let whole = input.schema();
    let supplied = |g: &Expr| lookups.iter().any(|l| reads(g, &l.schema));
    // Group by what stays below, plus each lookup's fact column.
    let mut below: Vec<(Expr, String)> = group
        .iter()
        .filter(|(g, _)| !supplied(g))
        .cloned()
        .collect();
    let mut fact_names = Vec::new();
    for lookup in &lookups {
        let fact_at = column_index(&lookup.fact, whole);
        let name = match below
            .iter()
            .find(|(g, _)| column_index(g, whole) == fact_at)
        {
            Some((_, name)) => name.clone(),
            None => {
                let Expr::Column { name, .. } = &lookup.fact else {
                    unreachable!("a fact column resolves to a position");
                };
                below.push((lookup.fact.clone(), name.clone()));
                name.clone()
            }
        };
        fact_names.push(name);
    }
    let outputs: Vec<&String> = below
        .iter()
        .map(|(_, name)| name)
        .chain(aggs.iter().map(|(_, name)| name))
        .collect();
    let clash = |name: &str| {
        outputs
            .iter()
            .filter(|o| o.eq_ignore_ascii_case(name))
            .count()
            > 1
            || lookups.iter().any(|l| {
                l.schema
                    .fields
                    .iter()
                    .any(|f| f.name.eq_ignore_ascii_case(name))
            })
    };
    if outputs.iter().any(|name| clash(name)) {
        return LogicalPlan::aggregate(group, aggs, input, Vec::new());
    }

    let at: Vec<usize> = lookups.iter().map(|l| l.at).collect();
    let mut taken = Vec::new();
    let rest = without_inputs(input, &at, &mut 0, &mut taken)
        .expect("a join keeps the input its lookup joins");
    let column = |name: &String| Expr::Column {
        qualifier: None,
        name: name.clone(),
    };
    let mut plan = LogicalPlan::aggregate(
        below,
        aggs.clone(),
        rest,
        lookups.iter().map(|l| l.name.clone()).collect(),
    );
    for ((lookup, side), fact) in lookups.iter().zip(taken).zip(&fact_names) {
        plan = LogicalPlan::join(
            plan,
            side,
            vec![(column(fact), lookup.key.clone())],
            JoinType::Inner,
        );
    }
    let exprs = group
        .iter()
        .map(|(g, name)| match supplied(g) {
            true => (g.clone(), name.clone()),
            false => (column(name), name.clone()),
        })
        .chain(aggs.iter().map(|(_, name)| (column(name), name.clone())))
        .collect();
    LogicalPlan::projection(exprs, plan)
}

/// `plan`'s inner-join chain without the inputs at positions `remove`
/// (counted by `at`, in plan order), which go to `taken`: a join that
/// loses one input is replaced by its other one.
fn without_inputs(
    plan: LogicalPlan,
    remove: &[usize],
    at: &mut usize,
    taken: &mut Vec<LogicalPlan>,
) -> Option<LogicalPlan> {
    match plan {
        LogicalPlan::Filter {
            predicate, input, ..
        } if in_chain(&input) => Some(LogicalPlan::filter(
            predicate,
            without_inputs(*input, remove, at, taken)?,
        )),
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type: JoinType::Inner,
            ..
        } => {
            let left = without_inputs(*left, remove, at, taken);
            let right = without_inputs(*right, remove, at, taken);
            match (left, right) {
                (Some(left), Some(right)) => {
                    Some(LogicalPlan::join(left, right, on, JoinType::Inner))
                }
                (kept, None) | (None, kept) => kept,
            }
        }
        input => {
            *at += 1;
            if remove.contains(&(*at - 1)) {
                taken.push(input);
                None
            } else {
                Some(input)
            }
        }
    }
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
        LogicalPlan::scan(
            "t".into(),
            "t".into(),
            Arc::new(MemTable::new(schema, 1)),
            None,
            vec![],
        )
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
        let plan = LogicalPlan::filter(Expr::col("a").gt(Expr::lit(1i64)), scan(&["a", "b"]));
        let optimized = push_down_filters(plan).unwrap();
        assert!(matches!(optimized, LogicalPlan::Scan { .. }));
        assert_eq!(scan_filters(&optimized), vec!["(a > 1)"]);
    }

    #[test]
    fn conjuncts_split_across_join_sides() {
        let join = LogicalPlan::join(
            scan(&["a"]),
            LogicalPlan::subquery_alias("r".into(), scan(&["b"])),
            vec![(Expr::col("a"), Expr::col("b"))],
            JoinType::Inner,
        );
        let plan = LogicalPlan::filter(
            Expr::col("a")
                .gt(Expr::lit(1i64))
                .and(Expr::col("r.b").lt(Expr::lit(5i64))),
            join,
        );
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
        let join = LogicalPlan::join(
            scan(&["a"]),
            LogicalPlan::subquery_alias("r".into(), scan(&["b"])),
            vec![(Expr::col("a"), Expr::col("b"))],
            JoinType::Left,
        );
        let plan = LogicalPlan::filter(Expr::col("r.b").lt(Expr::lit(5i64)), join);
        let optimized = push_down_filters(plan).unwrap();
        assert!(matches!(optimized, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn filter_pushes_through_projection_with_substitution() {
        let plan = LogicalPlan::filter(
            Expr::col("double_a").gt(Expr::lit(4i64)),
            LogicalPlan::projection(
                vec![(Expr::col("a").mul(Expr::lit(2i64)), "double_a".into())],
                scan(&["a"]),
            ),
        );
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
        let plan = LogicalPlan::filter(Expr::lit(1i64).eq(Expr::lit(1i64)), scan(&["a"]));
        let optimized = fold_plan(plan).unwrap();
        assert!(matches!(optimized, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn pruning_sets_scan_projection() {
        let plan = LogicalPlan::projection(
            vec![(Expr::col("c"), "c".into())],
            scan(&["a", "b", "c", "d"]),
        );
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
        let provider = match scan(&["a", "b", "c"]) {
            LogicalPlan::Scan { provider, .. } => provider,
            _ => unreachable!(),
        };
        let plan = LogicalPlan::projection(
            vec![(Expr::col("a"), "a".into())],
            LogicalPlan::scan(
                "t".into(),
                "t".into(),
                provider,
                None,
                vec![Expr::col("c").gt(Expr::lit(0i64))],
            ),
        );
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
        let plan = LogicalPlan::aggregate(
            vec![(Expr::col("a"), "a".into())],
            vec![(AggExpr::new(AggFunc::Sum, Expr::col("c")), "s".into())],
            scan(&["a", "b", "c"]),
            Vec::new(),
        );
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
        let plan = LogicalPlan::filter(
            Expr::col("a").gt(Expr::lit(1i64)).and(Expr::lit(true)),
            scan(&["a", "b"]),
        );
        let optimized = optimize(plan).unwrap();
        assert_eq!(scan_filters(&optimized), vec!["(a > 1)"]);
    }

    #[test]
    fn stacked_filters_become_one() {
        use crate::aggregate::AggFunc;
        let agg = LogicalPlan::aggregate(
            vec![(Expr::col("a"), "a".into())],
            vec![(AggExpr::new(AggFunc::Sum, Expr::col("b")), "s".into())],
            scan(&["a", "b"]),
            Vec::new(),
        );
        let plan = LogicalPlan::filter(
            Expr::col("s").gt(Expr::lit(1i64)),
            LogicalPlan::filter(Expr::col("s").gt(Expr::lit(2i64)), agg),
        );
        let optimized = push_down_filters(plan).unwrap();
        match &optimized {
            LogicalPlan::Filter {
                predicate, input, ..
            } => {
                assert_eq!(predicate.to_string(), "((s > 2) AND (s > 1))");
                assert!(matches!(**input, LogicalPlan::Aggregate { .. }));
            }
            other => panic!("expected one filter, got {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Rule 4: aggregation below key-preserving lookups
    // ------------------------------------------------------------------

    /// `name(cols…)` over `rows`, unique on `key` when one is given.
    fn table(name: &str, cols: &[&str], key: Option<&str>, rows: &[&[i64]]) -> LogicalPlan {
        let schema = Schema::new(
            cols.iter()
                .map(|c| Field::new(*c, DataType::Int64))
                .collect(),
        );
        let rows = rows
            .iter()
            .map(|r| crate::row::Row::new(r.iter().map(|v| Value::Int64(*v)).collect()))
            .collect();
        let mut table = MemTable::with_rows(schema, rows, 2);
        if let Some(key) = key {
            table = table.with_unique_key(key).unwrap();
        }
        LogicalPlan::scan(name.into(), name.into(), Arc::new(table), None, vec![])
    }

    /// Inventory-like facts: (item, warehouse, date, qty); item 7 and
    /// warehouse 3 have no dimension row.
    fn facts() -> LogicalPlan {
        let rows: Vec<[i64; 4]> = (0..40)
            .map(|i| [i % 8, i % 4, i % 5, (i * 37) % 23])
            .collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| &r[..]).collect();
        table("f", &["f_item", "f_wh", "f_date", "qty"], None, &rows)
    }

    /// Items 0..7, two of each name; keyed on `i_sk` or not.
    fn items(key: Option<&str>) -> LogicalPlan {
        let rows: Vec<[i64; 2]> = (0..7).map(|i| [i, i / 2]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| &r[..]).collect();
        table("item", &["i_sk", "i_name"], key, &rows)
    }

    /// Keyed items, those named 0 or 1 only: a lookup with a filter of
    /// its own, pushed into its scan.
    fn filtered_items() -> LogicalPlan {
        let mut plan = items(Some("i_sk"));
        if let LogicalPlan::Scan { filters, .. } = &mut plan {
            filters.push(Expr::col("i_name").lt(Expr::lit(2i64)));
        }
        plan
    }

    fn warehouses() -> LogicalPlan {
        table(
            "warehouse",
            &["w_sk", "w_name"],
            Some("w_sk"),
            &[&[0, 10], &[1, 10], &[2, 30]],
        )
    }

    fn dates() -> LogicalPlan {
        let rows: Vec<[i64; 2]> = (0..5).map(|i| [i, i % 2]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| &r[..]).collect();
        table("date_dim", &["d_sk", "d_moy"], Some("d_sk"), &rows)
    }

    fn join(left: LogicalPlan, right: LogicalPlan, l: &str, r: &str) -> LogicalPlan {
        LogicalPlan::join(
            left,
            right,
            vec![(Expr::col(l), Expr::col(r))],
            JoinType::Inner,
        )
    }

    fn grouped(group: &[&str], aggs: &[(&str, &str)], input: LogicalPlan) -> LogicalPlan {
        use crate::aggregate::AggFunc;
        LogicalPlan::aggregate(
            group
                .iter()
                .map(|g| (Expr::col(*g), g.to_string()))
                .collect(),
            aggs.iter()
                .map(|(arg, name)| {
                    (
                        AggExpr::new(AggFunc::Stddev, Expr::col(*arg)),
                        name.to_string(),
                    )
                })
                .collect(),
            input,
            Vec::new(),
        )
    }

    /// q39's month block: facts ⋈ item ⋈ warehouse ⋈ date_dim, grouped by
    /// warehouse name and key, item key and month.
    fn month_block(items: LogicalPlan) -> LogicalPlan {
        let joined = join(
            join(
                join(facts(), items, "f_item", "i_sk"),
                warehouses(),
                "f_wh",
                "w_sk",
            ),
            dates(),
            "f_date",
            "d_sk",
        );
        grouped(
            &["w_name", "w_sk", "i_sk", "d_moy"],
            &[("qty", "stdev")],
            joined,
        )
    }

    /// Where `plan` groups: each aggregate's group names and lookups, top
    /// down.
    fn aggregates(plan: &LogicalPlan) -> Vec<(Vec<String>, Vec<String>)> {
        let mut found = Vec::new();
        if let LogicalPlan::Aggregate { group, lookups, .. } = plan {
            found.push((
                group.iter().map(|(_, n)| n.clone()).collect(),
                lookups.clone(),
            ));
        }
        for child in plan.children() {
            found.extend(aggregates(child));
        }
        found
    }

    fn same_rows(a: &LogicalPlan, b: &LogicalPlan) {
        use crate::reference::{canonical_multiset, evaluate};
        let (ra, rb) = (evaluate(a).unwrap(), evaluate(b).unwrap());
        assert!(!ra.is_empty());
        assert_eq!(canonical_multiset(&ra), canonical_multiset(&rb));
        assert_eq!(a.schema(), b.schema());
    }

    #[test]
    fn the_month_block_groups_before_its_lookups() {
        let plan = month_block(items(Some("i_sk")));
        let moved = aggregate_below_lookups(plan.clone()).unwrap();
        same_rows(&plan, &moved);
        let text = moved.explain();
        let expected = [
            "Projection: w_name AS w_name, w_sk AS w_sk, i_sk AS i_sk, d_moy AS d_moy, stdev AS stdev",
            "  Join(Inner): f_wh = w_sk",
            "    Join(Inner): f_item = i_sk",
            "      Aggregate: group=[d_moy, f_item, f_wh] aggs=[stddev(qty)]",
            "        Join(Inner): f_date = d_sk",
            "          Scan: f [memory] projection=None filters=",
            "          Scan: date_dim [memory] projection=None filters=",
            "      Scan: item [memory] projection=None filters=",
            "    Scan: warehouse [memory] projection=None filters=",
        ];
        assert_eq!(text.lines().collect::<Vec<_>>(), expected, "{text}");
        assert_eq!(
            aggregates(&moved),
            [(
                vec!["d_moy".into(), "f_item".into(), "f_wh".into()],
                vec!["item".into(), "warehouse".into()]
            )]
        );

        // A lookup anywhere in the chain, joined on its key or on the
        // fact column: item first, grouped by `f_item`.
        let plan = grouped(
            &["f_item", "i_name"],
            &[("qty", "s")],
            join(
                join(items(Some("i_sk")), facts(), "i_sk", "f_item"),
                dates(),
                "f_date",
                "d_sk",
            ),
        );
        let moved = aggregate_below_lookups(plan.clone()).unwrap();
        same_rows(&plan, &moved);
        assert_eq!(
            aggregates(&moved),
            [(vec!["f_item".into()], vec!["item".into()])]
        );

        // The whole pipeline puts a filter on the aggregate's output
        // directly on the aggregate, below the lookups.
        let filtered = LogicalPlan::filter(
            Expr::col("stdev").gt(Expr::lit(1.0)),
            month_block(items(Some("i_sk"))),
        );
        let optimized = optimize(filtered.clone()).unwrap();
        same_rows(&filtered, &optimized);
        let text = optimized.explain();
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        let at = lines.iter().position(|l| l.starts_with("Filter:")).unwrap();
        assert!(
            lines[at + 1].starts_with("Aggregate: group=[d_moy, f_item, f_wh]"),
            "{text}"
        );
        assert!(lines[..at].iter().all(|l| !l.starts_with("Scan")), "{text}");
    }

    /// Of two key-preserving lookups, one filtering rows of its own: the
    /// aggregate moves below the other only. Joined first, the filtered
    /// one cuts the rows the aggregate groups.
    #[test]
    fn the_aggregate_moves_below_the_unfiltered_lookup_only() {
        let plan = month_block(filtered_items());
        let moved = aggregate_below_lookups(plan.clone()).unwrap();
        same_rows(&plan, &moved);
        assert_eq!(
            aggregates(&moved),
            [(
                vec!["i_sk".into(), "d_moy".into(), "f_wh".into()],
                vec!["warehouse".into()]
            )]
        );
        let text = moved.explain();
        let at = |line: &str| text.lines().position(|l| l.trim_start().starts_with(line));
        let (aggregate, items) = (at("Aggregate:").unwrap(), at("Scan: item").unwrap());
        assert!(
            items > aggregate,
            "item is joined below the aggregate:\n{text}"
        );
    }

    #[test]
    fn the_aggregate_stays_where_no_lookup_is_key_preserving() {
        let keyed = || items(Some("i_sk"));
        let item_join = |items| join(facts(), items, "f_item", "i_sk");
        let cases = [
            (
                "an undeclared key",
                grouped(&["i_sk", "i_name"], &[("qty", "s")], item_join(items(None))),
            ),
            (
                "an aggregate argument from the lookup",
                grouped(&["i_sk"], &[("i_name", "s")], item_join(keyed())),
            ),
            (
                "a join key that is not a group column",
                grouped(&["i_name"], &[("qty", "s")], item_join(keyed())),
            ),
            (
                "a lookup column another join reads",
                grouped(
                    &["i_sk"],
                    &[("qty", "s")],
                    join(item_join(keyed()), warehouses(), "i_name", "w_sk"),
                ),
            ),
            (
                "a remaining filter on the lookup",
                grouped(
                    &["i_sk"],
                    &[("qty", "s")],
                    LogicalPlan::filter(
                        Expr::col("i_name").lt(Expr::col("qty")),
                        item_join(keyed()),
                    ),
                ),
            ),
            (
                "a LEFT join",
                grouped(
                    &["i_sk"],
                    &[("qty", "s")],
                    LogicalPlan::join(
                        facts(),
                        keyed(),
                        vec![(Expr::col("f_item"), Expr::col("i_sk"))],
                        JoinType::Left,
                    ),
                ),
            ),
            (
                "a global aggregate",
                grouped(&[], &[("qty", "s")], item_join(keyed())),
            ),
            (
                "a lookup with a filter of its own",
                grouped(&["i_sk"], &[("qty", "s")], item_join(filtered_items())),
            ),
        ];
        for (why, plan) in cases {
            let after = aggregate_below_lookups(plan.clone()).unwrap();
            assert_eq!(after.explain(), plan.explain(), "{why}");
        }
    }
}
