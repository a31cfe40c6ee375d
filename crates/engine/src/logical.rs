//! Logical query plans. Produced by the analyzer (from SQL) or the
//! DataFrame API, rewritten by the optimizer, compiled by the physical
//! planner.

use crate::aggregate::AggFunc;
use crate::datasource::TableProvider;
use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Join types supported by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    Left,
}

/// An aggregate call: function plus argument (`None` for `COUNT(*)`).
#[derive(Clone, Debug, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    pub arg: Option<Expr>,
}

impl AggExpr {
    pub fn count_star() -> Self {
        AggExpr {
            func: AggFunc::CountStar,
            arg: None,
        }
    }

    pub fn new(func: AggFunc, arg: Expr) -> Self {
        AggExpr {
            func,
            arg: Some(arg),
        }
    }

    pub fn default_name(&self) -> String {
        match (&self.func, &self.arg) {
            (AggFunc::CountStar, _) => "count(*)".to_string(),
            (f, Some(a)) => format!("{}({})", format!("{f:?}").to_lowercase(), a),
            (f, None) => format!("{}()", format!("{f:?}").to_lowercase()),
        }
    }

    pub fn output_type(&self, input: &Schema) -> Result<DataType> {
        let arg_type = match &self.arg {
            Some(e) => e.data_type(input)?,
            None => DataType::Int64,
        };
        Ok(self.func.output_type(arg_type))
    }
}

/// A logical plan node.
#[derive(Clone)]
pub enum LogicalPlan {
    /// A data source scan with pushed-down projection and filters.
    Scan {
        table_name: String,
        /// Qualifier applied to output fields (alias, or the table name).
        qualifier: String,
        provider: Arc<dyn TableProvider>,
        /// Pushed projection: indices into the provider schema. `None`
        /// scans every column.
        projection: Option<Vec<usize>>,
        /// Predicates pushed toward the source. Correctness never depends
        /// on the source applying them — the physical planner re-applies
        /// whatever the provider reports as unhandled.
        filters: Vec<Expr>,
    },
    Filter {
        predicate: Expr,
        input: Box<LogicalPlan>,
    },
    Projection {
        /// (expression, output name) pairs.
        exprs: Vec<(Expr, String)>,
        input: Box<LogicalPlan>,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        /// Equi-join keys: (left expr, right expr).
        on: Vec<(Expr, Expr)>,
        join_type: JoinType,
    },
    Aggregate {
        /// (group expression, output name).
        group: Vec<(Expr, String)>,
        /// (aggregate, output name).
        aggs: Vec<(AggExpr, String)>,
        input: Box<LogicalPlan>,
        /// The key-preserving lookups the optimizer moved this aggregate
        /// below (eager aggregation), by name; empty for one it did not
        /// move. Shown in `EXPLAIN ANALYZE` only.
        lookups: Vec<String>,
    },
    Sort {
        /// (key, ascending).
        keys: Vec<(Expr, bool)>,
        input: Box<LogicalPlan>,
    },
    Limit {
        n: usize,
        input: Box<LogicalPlan>,
    },
    /// Re-qualifies the input's columns: `FROM (SELECT ...) alias`.
    SubqueryAlias {
        alias: String,
        input: Box<LogicalPlan>,
    },
    /// Literal rows, for tests and VALUES-style sources.
    Values {
        schema: Schema,
        rows: Vec<Vec<Value>>,
    },
}

impl LogicalPlan {
    /// The output schema of this node. For scans this respects both the
    /// pushed projection and the provider's ability to honor it: a provider
    /// without projection support always emits full-width rows (the paper's
    /// generic-source baseline).
    pub fn schema(&self) -> Result<Schema> {
        match self {
            LogicalPlan::Scan {
                qualifier,
                provider,
                projection,
                ..
            } => {
                let full = provider.schema().with_qualifier(qualifier);
                Ok(match projection {
                    Some(indices) if provider.supports_projection() => full.project(indices),
                    _ => full,
                })
            }
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Projection { exprs, input } => {
                let input_schema = input.schema()?;
                let fields = exprs
                    .iter()
                    .map(|(e, name)| Ok(Field::new(name.clone(), e.data_type(&input_schema)?)))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Schema::new(fields))
            }
            LogicalPlan::Join { left, right, .. } => Ok(left.schema()?.join(&right.schema()?)),
            LogicalPlan::Aggregate {
                group, aggs, input, ..
            } => {
                let input_schema = input.schema()?;
                let mut fields = Vec::with_capacity(group.len() + aggs.len());
                for (e, name) in group {
                    fields.push(Field::new(name.clone(), e.data_type(&input_schema)?));
                }
                for (agg, name) in aggs {
                    fields.push(Field::new(name.clone(), agg.output_type(&input_schema)?));
                }
                Ok(Schema::new(fields))
            }
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::SubqueryAlias { alias, input } => {
                Ok(input.schema()?.with_qualifier(alias))
            }
            LogicalPlan::Values { schema, .. } => Ok(schema.clone()),
        }
    }

    /// Pretty-print the plan tree, one node per line.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        out.push_str(&pad);
        out.push_str(&self.describe());
        out.push('\n');
        for child in self.children() {
            child.explain_into(indent + 1, out);
        }
    }

    /// One-line description of this node alone (no children). The same text
    /// [`explain`](Self::explain) prints per line, reused by
    /// `EXPLAIN ANALYZE` so the plan and its observed statistics line up.
    pub fn describe(&self) -> String {
        match self {
            LogicalPlan::Scan {
                table_name,
                projection,
                filters,
                provider,
                ..
            } => format!(
                "Scan: {table_name} [{}] projection={:?} filters={}",
                provider.name(),
                projection,
                filters
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join(" AND ")
            ),
            LogicalPlan::Filter { predicate, .. } => format!("Filter: {predicate}"),
            LogicalPlan::Projection { exprs, .. } => {
                let items: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                format!("Projection: {}", items.join(", "))
            }
            LogicalPlan::Join { on, join_type, .. } => {
                let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                format!("Join({join_type:?}): {}", keys.join(" AND "))
            }
            LogicalPlan::Aggregate { group, aggs, .. } => {
                let g: Vec<String> = group.iter().map(|(e, _)| e.to_string()).collect();
                let a: Vec<String> = aggs.iter().map(|(e, _)| e.default_name()).collect();
                format!(
                    "Aggregate: group=[{}] aggs=[{}]",
                    g.join(", "),
                    a.join(", ")
                )
            }
            LogicalPlan::Sort { keys, .. } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{e} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort: {}", k.join(", "))
            }
            LogicalPlan::Limit { n, .. } => format!("Limit: {n}"),
            LogicalPlan::SubqueryAlias { alias, .. } => format!("SubqueryAlias: {alias}"),
            LogicalPlan::Values { rows, .. } => format!("Values: {} rows", rows.len()),
        }
    }

    /// Child nodes in plan order (left before right for joins).
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => Vec::new(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Projection { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::SubqueryAlias { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// This node with each input replaced by `f` of it, in plan order.
    pub(crate) fn map_inputs(
        self,
        mut f: impl FnMut(LogicalPlan) -> Result<LogicalPlan>,
    ) -> Result<LogicalPlan> {
        let mut map = |input: Box<LogicalPlan>| f(*input).map(Box::new);
        Ok(match self {
            LogicalPlan::Filter { predicate, input } => LogicalPlan::Filter {
                predicate,
                input: map(input)?,
            },
            LogicalPlan::Projection { exprs, input } => LogicalPlan::Projection {
                exprs,
                input: map(input)?,
            },
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
            } => LogicalPlan::Join {
                left: map(left)?,
                right: map(right)?,
                on,
                join_type,
            },
            LogicalPlan::Aggregate {
                group,
                aggs,
                input,
                lookups,
            } => LogicalPlan::Aggregate {
                group,
                aggs,
                input: map(input)?,
                lookups,
            },
            LogicalPlan::Sort { keys, input } => LogicalPlan::Sort {
                keys,
                input: map(input)?,
            },
            LogicalPlan::Limit { n, input } => LogicalPlan::Limit {
                n,
                input: map(input)?,
            },
            LogicalPlan::SubqueryAlias { alias, input } => LogicalPlan::SubqueryAlias {
                alias,
                input: map(input)?,
            },
            leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => leaf,
        })
    }

    /// The position in this node's output of a column no two of its rows
    /// share a non-NULL value of: a source's declared unique key
    /// ([`TableProvider::unique_key`]), carried through the operators that
    /// pass rows on unchanged or drop some — filters, aliases and plain
    /// column projections.
    pub(crate) fn unique_key(&self) -> Option<usize> {
        match self {
            LogicalPlan::Scan { provider, .. } => {
                let key = provider.unique_key()?;
                self.schema().ok()?.resolve(None, &key).ok()
            }
            LogicalPlan::Filter { input, .. } | LogicalPlan::SubqueryAlias { input, .. } => {
                input.unique_key()
            }
            LogicalPlan::Projection { exprs, input } => {
                let key = input.unique_key()?;
                let schema = input.schema().ok()?;
                exprs
                    .iter()
                    .position(|(e, _)| column_index(e, &schema) == Some(key))
            }
            _ => None,
        }
    }

    /// Validate that every expression in the tree resolves and type-checks.
    pub fn check(&self) -> Result<()> {
        match self {
            LogicalPlan::Scan {
                filters,
                provider,
                qualifier,
                ..
            } => {
                let schema = provider.schema().with_qualifier(qualifier);
                for f in filters {
                    let t = f.data_type(&schema)?;
                    if t != DataType::Boolean {
                        return Err(EngineError::Analysis(format!(
                            "pushed filter {f} is not boolean"
                        )));
                    }
                }
                Ok(())
            }
            LogicalPlan::Filter { predicate, input } => {
                input.check()?;
                let t = predicate.data_type(&input.schema()?)?;
                if t != DataType::Boolean {
                    return Err(EngineError::Analysis(format!(
                        "filter predicate {predicate} has type {t}, expected boolean"
                    )));
                }
                Ok(())
            }
            LogicalPlan::Projection { exprs, input } => {
                input.check()?;
                let schema = input.schema()?;
                for (e, _) in exprs {
                    e.data_type(&schema)?;
                }
                Ok(())
            }
            LogicalPlan::Join {
                left, right, on, ..
            } => {
                left.check()?;
                right.check()?;
                let (ls, rs) = (left.schema()?, right.schema()?);
                for (l, r) in on {
                    let lt = l.data_type(&ls)?;
                    let rt = r.data_type(&rs)?;
                    if !lt.comparable_with(rt) {
                        return Err(EngineError::Analysis(format!(
                            "join keys {l} ({lt}) and {r} ({rt}) are not comparable"
                        )));
                    }
                }
                Ok(())
            }
            LogicalPlan::Aggregate {
                group, aggs, input, ..
            } => {
                input.check()?;
                let schema = input.schema()?;
                for (e, _) in group {
                    e.data_type(&schema)?;
                }
                for (a, _) in aggs {
                    a.output_type(&schema)?;
                }
                Ok(())
            }
            LogicalPlan::Sort { keys, input } => {
                input.check()?;
                let schema = input.schema()?;
                for (e, _) in keys {
                    e.data_type(&schema)?;
                }
                Ok(())
            }
            LogicalPlan::Limit { input, .. } => input.check(),
            LogicalPlan::SubqueryAlias { input, .. } => input.check(),
            LogicalPlan::Values { .. } => Ok(()),
        }
    }
}

// ----------------------------------------------------------------------
// Common subplans: what counts as "the same subplan"
// ----------------------------------------------------------------------

/// Same literal: same variant, same bits. `Value`'s own `==` follows SQL
/// comparison (`Int32(1) == Float64(1.0)`), but a literal's type decides
/// output types, so two plans differing in it are different plans.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float32(x), Value::Float32(y)) => x.to_bits() == y.to_bits(),
        (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

fn literals(e: &Expr) -> Vec<&Value> {
    let mut out = Vec::new();
    e.for_each(&mut |e| {
        if let Expr::Literal(v) = e {
            out.push(v);
        }
    });
    out
}

fn same_expr(a: &Expr, b: &Expr) -> bool {
    // Derived equality fixes the shape, so the literal sequences line up.
    a == b && same_all(&literals(a), &literals(b), |x, y| same_value(x, y))
}

fn same_all<T>(a: &[T], b: &[T], same: impl Fn(&T, &T) -> bool) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
}

fn hash_expr(e: &Expr, h: &mut impl Hasher) {
    e.for_each(&mut |e| {
        std::mem::discriminant(e).hash(h);
        match e {
            Expr::Column { qualifier, name } => {
                qualifier.hash(h);
                name.hash(h);
            }
            Expr::Literal(v) => v.group_hash(h),
            Expr::BinaryOp { op, .. } => (*op as u8).hash(h),
            _ => {}
        }
    });
}

impl LogicalPlan {
    /// Whether `self` and `other` are the same subplan: executing either
    /// gives the other's result. Scans are the same only when they read the
    /// same provider *instance* (not merely the same table name) under the
    /// same qualifier with the same pushed projection and filters;
    /// everything else compares by value, never by rendered text.
    pub(crate) fn same_subplan(&self, other: &LogicalPlan) -> bool {
        self.same_node(other)
            && same_all(&self.children(), &other.children(), |a, b| {
                a.same_subplan(b)
            })
    }

    /// [`same_subplan`](Self::same_subplan) for this node alone, inputs
    /// not compared.
    fn same_node(&self, other: &LogicalPlan) -> bool {
        use LogicalPlan::*;
        let named = |(x, n): &(Expr, String), (y, m): &(Expr, String)| n == m && same_expr(x, y);
        match (self, other) {
            (
                Scan {
                    qualifier: qa,
                    provider: pa,
                    projection: ja,
                    filters: fa,
                    ..
                },
                Scan {
                    qualifier: qb,
                    provider: pb,
                    projection: jb,
                    filters: fb,
                    ..
                },
            ) => Arc::ptr_eq(pa, pb) && qa == qb && ja == jb && same_all(fa, fb, same_expr),
            (Filter { predicate: a, .. }, Filter { predicate: b, .. }) => same_expr(a, b),
            (Projection { exprs: a, .. }, Projection { exprs: b, .. }) => same_all(a, b, named),
            (
                Join {
                    on: oa,
                    join_type: ta,
                    ..
                },
                Join {
                    on: ob,
                    join_type: tb,
                    ..
                },
            ) => {
                ta == tb
                    && same_all(oa, ob, |(l1, r1), (l2, r2)| {
                        same_expr(l1, l2) && same_expr(r1, r2)
                    })
            }
            (
                Aggregate {
                    group: ga,
                    aggs: aa,
                    ..
                },
                Aggregate {
                    group: gb,
                    aggs: ab,
                    ..
                },
            ) => {
                same_all(ga, gb, named)
                    && same_all(aa, ab, |(x, n), (y, m)| {
                        n == m
                            && x.func == y.func
                            && match (&x.arg, &y.arg) {
                                (Some(x), Some(y)) => same_expr(x, y),
                                (None, None) => true,
                                _ => false,
                            }
                    })
            }
            (Sort { keys: a, .. }, Sort { keys: b, .. }) => {
                same_all(a, b, |(x, asc), (y, bsc)| asc == bsc && same_expr(x, y))
            }
            (Limit { n: a, .. }, Limit { n: b, .. }) => a == b,
            (SubqueryAlias { alias: a, .. }, SubqueryAlias { alias: b, .. }) => a == b,
            (
                Values {
                    schema: sa,
                    rows: ra,
                },
                Values {
                    schema: sb,
                    rows: rb,
                },
            ) => sa == sb && same_all(ra, rb, |r, s| same_all(r, s, same_value)),
            _ => false,
        }
    }

    /// Hash of this node alone, consistent with [`same_node`](Self::same_node)
    /// (same ⇒ equal hash; the converse is what `same_node` is for).
    fn hash_node(&self, h: &mut impl Hasher) {
        std::mem::discriminant(self).hash(h);
        match self {
            LogicalPlan::Scan {
                qualifier,
                provider,
                projection,
                filters,
                ..
            } => {
                (Arc::as_ptr(provider) as *const () as usize).hash(h);
                qualifier.hash(h);
                projection.hash(h);
                filters.iter().for_each(|f| hash_expr(f, h));
            }
            LogicalPlan::Filter { predicate, .. } => hash_expr(predicate, h),
            LogicalPlan::Projection { exprs, .. } => {
                for (e, name) in exprs {
                    hash_expr(e, h);
                    name.hash(h);
                }
            }
            LogicalPlan::Join { on, join_type, .. } => {
                (*join_type as u8).hash(h);
                for (l, r) in on {
                    hash_expr(l, h);
                    hash_expr(r, h);
                }
            }
            LogicalPlan::Aggregate { group, aggs, .. } => {
                for (e, name) in group {
                    hash_expr(e, h);
                    name.hash(h);
                }
                for (agg, name) in aggs {
                    agg.arg.iter().for_each(|e| hash_expr(e, h));
                    name.hash(h);
                }
            }
            LogicalPlan::Sort { keys, .. } => {
                for (e, asc) in keys {
                    hash_expr(e, h);
                    asc.hash(h);
                }
            }
            LogicalPlan::Limit { n, .. } => n.hash(h),
            LogicalPlan::SubqueryAlias { alias, .. } => alias.hash(h),
            LogicalPlan::Values { rows, .. } => {
                rows.len().hash(h);
                rows.iter().flatten().for_each(|v| v.group_hash(h));
            }
        }
    }

    /// The maximal subtrees of this plan that occur more than once, one
    /// group per distinct subplan, occurrences in execution order (pre-order,
    /// a join's left side before its right). Executing the first of a group
    /// gives the result of the others, so nothing inside a later occurrence
    /// is listed: a subtree that repeats only because an enclosing one does
    /// is not a group of its own.
    pub(crate) fn repeated_subplans(&self) -> Vec<Vec<&LogicalPlan>> {
        /// Pre-order listing: (node, hash of its subtree, nodes in it).
        fn index<'a>(plan: &'a LogicalPlan, nodes: &mut Vec<(&'a LogicalPlan, u64, usize)>) -> u64 {
            let at = nodes.len();
            nodes.push((plan, 0, 0));
            let mut h = crate::key_table::KeyHasher::default();
            plan.hash_node(&mut h);
            for child in plan.children() {
                index(child, nodes).hash(&mut h);
            }
            let hash = h.finish();
            nodes[at] = (plan, hash, nodes.len() - at);
            hash
        }
        let mut nodes = Vec::new();
        index(self, &mut nodes);

        let mut groups: Vec<Vec<&LogicalPlan>> = Vec::new();
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut at = 0;
        while at < nodes.len() {
            let (node, hash, size) = nodes[at];
            let candidates = by_hash.entry(hash).or_default();
            match candidates
                .iter()
                .find(|&&g| groups[g][0].same_subplan(node))
            {
                Some(&g) => {
                    groups[g].push(node);
                    at += size;
                }
                None => {
                    candidates.push(groups.len());
                    groups.push(vec![node]);
                    at += 1;
                }
            }
        }
        groups.retain(|g| g.len() > 1);
        groups
    }
}

// ----------------------------------------------------------------------
// Dynamic partition pruning: which join can hand its keys to which scan
// ----------------------------------------------------------------------

/// The input of an inner equi-join whose keys bound what a scan under the
/// join's other input has to read: no row of that scan survives the join
/// unless its column equals one of the values `key` takes over `side`.
#[derive(Clone, Copy)]
pub(crate) struct KeySource<'a> {
    pub join: &'a LogicalPlan,
    /// The filtering input of `join`. It carries a predicate of its own; an
    /// input that keeps every row has no keys worth passing on.
    pub side: &'a LogicalPlan,
    /// The join key over `side`'s schema.
    pub key: &'a Expr,
}

impl KeySource<'_> {
    fn side_is_right(&self) -> bool {
        matches!(self.join, LogicalPlan::Join { right, .. } if std::ptr::eq(&**right, self.side))
    }
}

/// A scan that may be handed join keys as one more source filter: every
/// consumer of its rows joins them with one of `sources`, so rows whose
/// `column` is in none of their key sets reach no result.
pub(crate) struct DynamicFilter<'a> {
    pub scan: &'a LogicalPlan,
    /// Column of the scan's provider the keys restrict.
    pub column: String,
    pub sources: Vec<KeySource<'a>>,
}

fn address(plan: &LogicalPlan) -> *const LogicalPlan {
    plan
}

/// The position `expr` names in `schema`, when it is a plain column.
pub(crate) fn column_index(expr: &Expr, schema: &Schema) -> Option<usize> {
    match expr {
        Expr::Column { qualifier, name } => schema.resolve(qualifier.as_deref(), name).ok(),
        _ => None,
    }
}

/// The plan in execution order with what the upward walk needs: each
/// node's parent, the size of its subtree, and the occurrences of the
/// repeated subplan it is one of.
struct PlanIndex<'a, 'g> {
    /// Pre-order: (node, position of its parent, nodes in its subtree).
    nodes: Vec<(&'a LogicalPlan, Option<usize>, usize)>,
    at: HashMap<*const LogicalPlan, usize>,
    occurrences: HashMap<*const LogicalPlan, &'g [&'a LogicalPlan]>,
}

impl<'a, 'g> PlanIndex<'a, 'g> {
    fn of(plan: &'a LogicalPlan, repeated: &'g [Vec<&'a LogicalPlan>]) -> PlanIndex<'a, 'g> {
        fn list<'a>(
            plan: &'a LogicalPlan,
            parent: Option<usize>,
            nodes: &mut Vec<(&'a LogicalPlan, Option<usize>, usize)>,
        ) {
            let at = nodes.len();
            nodes.push((plan, parent, 0));
            for child in plan.children() {
                list(child, Some(at), nodes);
            }
            nodes[at].2 = nodes.len() - at;
        }
        let mut nodes = Vec::new();
        list(plan, None, &mut nodes);
        let at = nodes
            .iter()
            .enumerate()
            .map(|(i, (node, ..))| (address(node), i))
            .collect();
        let occurrences = repeated
            .iter()
            .flat_map(|group| group.iter().map(move |node| (address(node), &group[..])))
            .collect();
        PlanIndex {
            nodes,
            at,
            occurrences,
        }
    }

    /// The dynamic filter of the scan at `at`, if the provider prunes
    /// partitions on one of its output columns and every consumer of the
    /// scan's rows joins that column with a filtering input.
    fn filter_for(&self, at: usize) -> Option<DynamicFilter<'a>> {
        let scan = self.nodes[at].0;
        let LogicalPlan::Scan {
            provider,
            projection,
            ..
        } = scan
        else {
            return None;
        };
        let full = provider.schema();
        let pushed = projection
            .as_deref()
            .filter(|_| provider.supports_projection());
        (0..pushed.map_or(full.len(), <[usize]>::len)).find_map(|out| {
            let field = full.field(pushed.map_or(out, |indices| indices[out]));
            // `0.0 = -0.0` joins, but the two need not encode alike.
            let float = matches!(field.data_type, DataType::Float32 | DataType::Float64);
            if float || !provider.prunes_partitions_on(&field.name) {
                return None;
            }
            let sources = self.sources(at, out)?;
            self.clear_of_running(at, &sources).then(|| DynamicFilter {
                scan,
                column: field.name.clone(),
                sources,
            })
        })
    }

    /// The key sources that between them cover every consumer of output
    /// column `col` of the node at `at`: the node's own parent chain and,
    /// when it is an occurrence of a repeated subplan (which runs once and
    /// feeds them all), that of every other occurrence.
    fn sources(&self, at: usize, col: usize) -> Option<Vec<KeySource<'a>>> {
        let Some(occurrences) = self.occurrences.get(&address(self.nodes[at].0)) else {
            return self.sources_above(at, col);
        };
        let mut all = Vec::new();
        for node in occurrences.iter() {
            all.extend(self.sources_above(self.at[&address(node)], col)?);
        }
        Some(all)
    }

    /// Follow `col` from the node at `at` into its parent: the nearest
    /// inner join that equates it with a key of a filtering input is the
    /// source; filters, aliases, plain-column projections and joins that
    /// only carry the column along are walked through; anything else
    /// (aggregates, limits, outer joins, the root) ends the walk with none.
    fn sources_above(&self, at: usize, col: usize) -> Option<Vec<KeySource<'a>>> {
        let (node, parent, _) = self.nodes[at];
        let up = parent?;
        match self.nodes[up].0 {
            LogicalPlan::Filter { .. } | LogicalPlan::SubqueryAlias { .. } => self.sources(up, col),
            LogicalPlan::Projection { exprs, input } => {
                let schema = input.schema().ok()?;
                let out = exprs
                    .iter()
                    .position(|(e, _)| column_index(e, &schema) == Some(col))?;
                self.sources(up, out)
            }
            join @ LogicalPlan::Join {
                left,
                right,
                on,
                join_type: JoinType::Inner,
            } => {
                let from_left = std::ptr::eq(&**left, node);
                let (mine, other) = if from_left {
                    (left, right)
                } else {
                    (right, left)
                };
                let schema = mine.schema().ok()?;
                let key = on
                    .iter()
                    .map(|(l, r)| if from_left { (l, r) } else { (r, l) })
                    .find(|(mine, _)| column_index(mine, &schema) == Some(col));
                match key {
                    Some((_, key)) if other.has_predicate() => Some(vec![KeySource {
                        join,
                        side: other,
                        key,
                    }]),
                    _ => {
                        let shift = if from_left {
                            0
                        } else {
                            left.schema().ok()?.len()
                        };
                        self.sources(up, col + shift)
                    }
                }
            }
            _ => None,
        }
    }

    /// A source that has not run when the scan does is run ahead of its
    /// place in the plan. That must not start anything that is already
    /// under way: the scan itself, or another occurrence of a repeated
    /// subplan that the scan or an operator above it is the running
    /// occurrence of.
    fn clear_of_running(&self, at: usize, sources: &[KeySource<'a>]) -> bool {
        let mut running = vec![at];
        let mut up = Some(at);
        while let Some(a) = up {
            let (node, parent, _) = self.nodes[a];
            if let Some(occurrences) = self.occurrences.get(&address(node)) {
                running.extend(occurrences.iter().map(|o| self.at[&address(o)]));
            }
            up = parent;
        }
        sources.iter().all(|source| {
            let start = self.at[&address(source.side)];
            let inside = start..start + self.nodes[start].2;
            !running.iter().any(|r| inside.contains(r))
        })
    }
}

impl LogicalPlan {
    /// Does anything in this subtree drop rows by a predicate — a filter
    /// operator or a filter pushed into a scan?
    pub(crate) fn has_predicate(&self) -> bool {
        match self {
            LogicalPlan::Filter { .. } => true,
            LogicalPlan::Scan { filters, .. } => !filters.is_empty(),
            _ => self.children().iter().any(|c| c.has_predicate()),
        }
    }

    /// The scans of this plan that a join can hand its other input's keys
    /// to (dynamic partition pruning), `repeated` being
    /// [`repeated_subplans`](Self::repeated_subplans) of the same plan. Only
    /// scans that run are listed — none inside a later occurrence of a
    /// repeated subplan — and a join passes keys in one direction only:
    /// where two filters would each have the other's target side run first,
    /// the one whose filtering input is the join's right input stays.
    pub(crate) fn dynamic_filters<'a>(
        &'a self,
        repeated: &[Vec<&'a LogicalPlan>],
    ) -> Vec<DynamicFilter<'a>> {
        let index = PlanIndex::of(self, repeated);
        let mut found = Vec::new();
        let mut at = 0;
        while at < index.nodes.len() {
            let (node, _, size) = index.nodes[at];
            let later_occurrence = index
                .occurrences
                .get(&address(node))
                .is_some_and(|group| !std::ptr::eq(group[0], node));
            if later_occurrence {
                at += size;
                continue;
            }
            found.extend(index.filter_for(at));
            at += 1;
        }
        let right_first: Vec<*const LogicalPlan> = found
            .iter()
            .flat_map(|f| &f.sources)
            .filter(|s| s.side_is_right())
            .map(|s| address(s.join))
            .collect();
        found.retain(|f| {
            f.sources
                .iter()
                .all(|s| s.side_is_right() || !right_first.contains(&address(s.join)))
        });
        found
    }
}

impl fmt::Debug for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::MemTable;
    use crate::value::Value;

    fn scan() -> LogicalPlan {
        let table = MemTable::new(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("score", DataType::Float64),
            ]),
            1,
        );
        LogicalPlan::Scan {
            table_name: "t".into(),
            qualifier: "t".into(),
            provider: Arc::new(table),
            projection: None,
            filters: vec![],
        }
    }

    #[test]
    fn scan_schema_is_qualified() {
        let s = scan().schema().unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(0).qualifier.as_deref(), Some("t"));
    }

    #[test]
    fn projection_schema_infers_types() {
        let plan = LogicalPlan::Projection {
            exprs: vec![
                (Expr::col("id").add(Expr::lit(1i64)), "id1".into()),
                (Expr::col("score").div(Expr::lit(2i64)), "half".into()),
            ],
            input: Box::new(scan()),
        };
        let s = plan.schema().unwrap();
        assert_eq!(s.field(0).data_type, DataType::Int64);
        assert_eq!(s.field(1).data_type, DataType::Float64);
    }

    #[test]
    fn aggregate_schema_groups_then_aggs() {
        let plan = LogicalPlan::Aggregate {
            group: vec![(Expr::col("name"), "name".into())],
            aggs: vec![
                (AggExpr::new(AggFunc::Avg, Expr::col("score")), "m".into()),
                (AggExpr::count_star(), "n".into()),
            ],
            input: Box::new(scan()),
            lookups: Vec::new(),
        };
        let s = plan.schema().unwrap();
        assert_eq!(s.field_names(), vec!["name", "m", "n"]);
        assert_eq!(s.field(1).data_type, DataType::Float64);
        assert_eq!(s.field(2).data_type, DataType::Int64);
    }

    #[test]
    fn check_rejects_non_boolean_filter() {
        let plan = LogicalPlan::Filter {
            predicate: Expr::col("id").add(Expr::lit(1i64)),
            input: Box::new(scan()),
        };
        assert!(plan.check().is_err());
    }

    #[test]
    fn check_rejects_incomparable_join_keys() {
        let plan = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(LogicalPlan::SubqueryAlias {
                alias: "u".into(),
                input: Box::new(scan()),
            }),
            on: vec![(Expr::col("t.id"), Expr::col("u.name"))],
            join_type: JoinType::Inner,
        };
        assert!(plan.check().is_err());
    }

    #[test]
    fn subquery_alias_requalifies() {
        let plan = LogicalPlan::SubqueryAlias {
            alias: "x".into(),
            input: Box::new(scan()),
        };
        let s = plan.schema().unwrap();
        assert!(s.fields.iter().all(|f| f.qualifier.as_deref() == Some("x")));
        assert_eq!(s.resolve(Some("x"), "id").unwrap(), 0);
    }

    #[test]
    fn values_schema_passthrough() {
        let plan = LogicalPlan::Values {
            schema: Schema::new(vec![Field::new("v", DataType::Int32)]),
            rows: vec![vec![Value::Int32(1)]],
        };
        assert_eq!(plan.schema().unwrap().len(), 1);
        assert!(plan.check().is_ok());
    }

    fn scan_of(provider: &Arc<MemTable>, qualifier: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table_name: "t".into(),
            qualifier: qualifier.into(),
            provider: Arc::clone(provider) as Arc<dyn TableProvider>,
            projection: Some(vec![0, 2]),
            filters: vec![Expr::col("id").gt(Expr::lit(1i64))],
        }
    }

    fn table() -> Arc<MemTable> {
        Arc::new(MemTable::new(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("score", DataType::Float64),
            ]),
            1,
        ))
    }

    fn join(left: LogicalPlan, right: LogicalPlan, join_type: JoinType) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            on: vec![(Expr::col("l.id"), Expr::col("r.id"))],
            join_type,
        }
    }

    fn count_by_id(input: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Aggregate {
            group: vec![(Expr::col("id"), "id".into())],
            aggs: vec![(AggExpr::count_star(), "n".into())],
            input: Box::new(input),
            lookups: Vec::new(),
        }
    }

    #[test]
    fn same_subplan_needs_the_same_provider_instance_and_the_same_values() {
        let t = table();
        let base = scan_of(&t, "t");
        assert!(base.same_subplan(&scan_of(&t, "t")));
        // Equal content, equal name, another instance: a different source.
        assert!(!base.same_subplan(&scan_of(&table(), "t")));
        assert!(!base.same_subplan(&scan_of(&t, "u")), "qualifier");
        let with = |projection: Option<Vec<usize>>, filters: Vec<Expr>| LogicalPlan::Scan {
            table_name: "t".into(),
            qualifier: "t".into(),
            provider: Arc::clone(&t) as Arc<dyn TableProvider>,
            projection,
            filters,
        };
        let gt = |v: Value| vec![Expr::col("id").gt(Expr::Literal(v))];
        assert!(base.same_subplan(&with(Some(vec![0, 2]), gt(Value::Int64(1)))));
        assert!(!base.same_subplan(&with(Some(vec![0]), gt(Value::Int64(1)))));
        assert!(!base.same_subplan(&with(Some(vec![0, 2]), gt(Value::Int64(2)))));
        // `Value`'s SQL equality calls these equal; as plans they are not.
        assert!(!base.same_subplan(&with(Some(vec![0, 2]), gt(Value::Int32(1)))));
        assert!(!base.same_subplan(&with(Some(vec![0, 2]), gt(Value::Float64(1.0)))));
        assert!(
            !base.same_subplan(&with(
                Some(vec![0, 2]),
                vec![Expr::col("id").gt_eq(Expr::lit(1i64))]
            )),
            "operator"
        );

        let alias = |a: &str| LogicalPlan::SubqueryAlias {
            alias: a.into(),
            input: Box::new(scan_of(&t, "t")),
        };
        let inner = join(alias("l"), alias("r"), JoinType::Inner);
        assert!(inner.same_subplan(&join(alias("l"), alias("r"), JoinType::Inner)));
        assert!(!inner.same_subplan(&join(alias("l"), alias("r"), JoinType::Left)));
        assert!(!inner.same_subplan(&join(alias("l"), alias("x"), JoinType::Inner)));

        let agg = count_by_id(scan_of(&t, "t"));
        assert!(agg.same_subplan(&count_by_id(scan_of(&t, "t"))));
        let renamed = LogicalPlan::Aggregate {
            group: vec![(Expr::col("id"), "id".into())],
            aggs: vec![(AggExpr::count_star(), "cnt".into())],
            input: Box::new(scan_of(&t, "t")),
            lookups: Vec::new(),
        };
        assert!(!agg.same_subplan(&renamed), "output name");

        let values = |v: Value| LogicalPlan::Values {
            schema: Schema::new(vec![Field::new("v", DataType::Int64)]),
            rows: vec![vec![v]],
        };
        assert!(values(Value::Int64(7)).same_subplan(&values(Value::Int64(7))));
        assert!(!values(Value::Int64(7)).same_subplan(&values(Value::Int32(7))));
    }

    #[test]
    fn repeated_subplans_lists_only_the_outermost_repeats() {
        let t = table();
        let block = |alias: &str| LogicalPlan::SubqueryAlias {
            alias: alias.into(),
            input: Box::new(count_by_id(scan_of(&t, "t"))),
        };
        // The aggregate repeats; the scan under it repeats only because the
        // aggregate does, so it is not a group of its own.
        let plan = join(block("l"), block("r"), JoinType::Inner);
        let groups = plan.repeated_subplans();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 2);
        assert!(groups[0]
            .iter()
            .all(|n| matches!(n, LogicalPlan::Aggregate { .. })));

        // A third, bare use of the scan outside any repeated aggregate pairs
        // with the scan inside the aggregate that runs (the first one).
        let with_scan = LogicalPlan::Join {
            left: Box::new(plan.clone()),
            right: Box::new(scan_of(&t, "t")),
            on: vec![(Expr::col("l.id"), Expr::col("t.id"))],
            join_type: JoinType::Inner,
        };
        let groups = with_scan.repeated_subplans();
        assert_eq!(groups.len(), 2);
        let scans = groups
            .iter()
            .find(|g| matches!(g[0], LogicalPlan::Scan { .. }))
            .expect("scan group");
        assert_eq!(scans.len(), 2);

        // Three uses: one group, occurrences in execution order.
        let three = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(block("x")),
            on: vec![(Expr::col("l.id"), Expr::col("x.id"))],
            join_type: JoinType::Inner,
        };
        let groups = three.repeated_subplans();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);

        // Nothing repeats: one block reads another instance.
        let other = table();
        let distinct = join(
            block("l"),
            LogicalPlan::SubqueryAlias {
                alias: "r".into(),
                input: Box::new(count_by_id(scan_of(&other, "t"))),
            },
            JoinType::Inner,
        );
        assert!(distinct.repeated_subplans().is_empty());
    }

    use crate::memtable::KeyedTable;

    /// A three-column table that prunes partitions on `key`.
    fn keyed(key: &'static str) -> Arc<KeyedTable> {
        KeyedTable::new(Arc::try_unwrap(table()).ok().unwrap(), key)
    }

    fn scan_as(
        provider: Arc<dyn TableProvider>,
        qualifier: &str,
        filters: Vec<Expr>,
    ) -> LogicalPlan {
        LogicalPlan::Scan {
            table_name: "t".into(),
            qualifier: qualifier.into(),
            provider,
            projection: None,
            filters,
        }
    }

    /// `d`: a plain table, filtered unless `filtered` is false.
    fn dim(qualifier: &str, filtered: bool) -> LogicalPlan {
        let filters = if filtered {
            vec![Expr::col("name").eq(Expr::lit("x"))]
        } else {
            vec![]
        };
        scan_as(table(), qualifier, filters)
    }

    fn join_keys(
        left: LogicalPlan,
        right: LogicalPlan,
        on: (Expr, Expr),
        join_type: JoinType,
    ) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            on: vec![on],
            join_type,
        }
    }

    fn alias(name: &str, input: LogicalPlan) -> LogicalPlan {
        LogicalPlan::SubqueryAlias {
            alias: name.into(),
            input: Box::new(input),
        }
    }

    fn filters_of(plan: &LogicalPlan) -> Vec<DynamicFilter<'_>> {
        plan.dynamic_filters(&plan.repeated_subplans())
    }

    #[test]
    fn a_key_column_is_followed_up_to_the_nearest_filtering_join() {
        let fact = keyed("id");
        // Through a plain-column projection, an alias and a filter, on the
        // left of one join and the right of another that only carries it.
        let wrapped = LogicalPlan::Filter {
            predicate: Expr::col("f.score").gt(Expr::lit(0.0)),
            input: Box::new(alias(
                "f",
                LogicalPlan::Projection {
                    exprs: vec![
                        (Expr::col("score"), "score".into()),
                        (Expr::col("id"), "id".into()),
                    ],
                    input: Box::new(scan_as(fact.clone(), "t", vec![])),
                },
            )),
        };
        let carried = join_keys(
            dim("other", false),
            wrapped,
            (Expr::col("other.name"), Expr::col("f.score")),
            JoinType::Inner,
        );
        let plan = join_keys(
            carried,
            dim("d", true),
            (Expr::col("f.id"), Expr::col("d.id").add(Expr::lit(0i64))),
            JoinType::Inner,
        );
        let found = filters_of(&plan);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].column, "id");
        assert!(matches!(found[0].scan, LogicalPlan::Scan { qualifier, .. } if qualifier == "t"));
        let [source] = &found[0].sources[..] else {
            panic!("one consumer, one source");
        };
        assert!(std::ptr::eq(source.join, &plan));
        assert!(matches!(source.side, LogicalPlan::Scan { qualifier, .. } if qualifier == "d"));
        // Any expression will do on the filtering side: it is only evaluated.
        assert_eq!(source.key, &Expr::col("d.id").add(Expr::lit(0i64)));

        // The filtering input may as well be the left one.
        let plan = join_keys(
            dim("d", true),
            scan_as(fact.clone(), "f", vec![]),
            (Expr::col("d.id"), Expr::col("f.id")),
            JoinType::Inner,
        );
        let found = filters_of(&plan);
        assert_eq!(found.len(), 1);
        assert!(
            matches!(found[0].sources[0].side, LogicalPlan::Scan { qualifier, .. } if qualifier == "d")
        );
    }

    #[test]
    fn no_dynamic_filter_without_all_three_of_inner_join_plain_key_and_predicate() {
        let fact = keyed("id");
        let f = || scan_as(fact.clone(), "f", vec![]);
        let on = || (Expr::col("f.id"), Expr::col("d.id"));
        let inner = |left, right, on| join_keys(left, right, on, JoinType::Inner);
        assert_eq!(filters_of(&inner(f(), dim("d", true), on())).len(), 1);

        let none = |plan: LogicalPlan, why: &str| assert!(filters_of(&plan).is_empty(), "{why}");
        none(
            join_keys(f(), dim("d", true), on(), JoinType::Left),
            "left join",
        );
        none(
            inner(f(), dim("d", false), on()),
            "other side keeps every row",
        );
        none(
            inner(
                f(),
                dim("d", true),
                (Expr::col("f.id").add(Expr::lit(0i64)), Expr::col("d.id")),
            ),
            "key wrapped in an expression",
        );
        none(
            inner(
                f(),
                dim("d", true),
                (Expr::col("f.name"), Expr::col("d.name")),
            ),
            "not the column the source prunes on",
        );
        none(
            inner(scan_as(table(), "f", vec![]), dim("d", true), on()),
            "a source that prunes on nothing",
        );
        none(
            inner(
                alias("f", count_by_id(scan_as(fact.clone(), "t", vec![]))),
                dim("d", true),
                on(),
            ),
            "an aggregate between scan and join",
        );
        none(
            inner(
                alias(
                    "f",
                    LogicalPlan::Projection {
                        exprs: vec![(Expr::col("id").add(Expr::lit(1i64)), "id".into())],
                        input: Box::new(scan_as(fact.clone(), "t", vec![])),
                    },
                ),
                dim("d", true),
                on(),
            ),
            "a computed projection",
        );
        none(
            inner(
                LogicalPlan::Limit {
                    n: 5,
                    input: Box::new(f()),
                },
                dim("d", true),
                on(),
            ),
            "a limit picks other rows from a narrower scan",
        );
        // A float key column: `0.0 = -0.0`, but they encode differently.
        let by_score = keyed("score");
        none(
            inner(
                scan_as(by_score, "f", vec![]),
                dim("d", true),
                (Expr::col("f.score"), Expr::col("d.score")),
            ),
            "float key",
        );
    }

    #[test]
    fn every_consumer_of_a_shared_scan_needs_a_source() {
        let fact = keyed("id");
        let block = |name: &str, filtered: bool| {
            alias(
                name,
                join_keys(
                    scan_as(fact.clone(), "f", vec![]),
                    dim("d", filtered),
                    (Expr::col("f.id"), Expr::col("d.id")),
                    JoinType::Inner,
                ),
            )
        };
        let both = |second_filtered: bool| LogicalPlan::Join {
            left: Box::new(block("l", true)),
            right: Box::new(block("r", second_filtered)),
            on: vec![(Expr::col("l.name"), Expr::col("r.name"))],
            join_type: JoinType::Inner,
        };
        // The scan runs once for both blocks: its filter is the union of
        // both blocks' keys, listed once, for the occurrence that runs.
        let plan = both(true);
        let found = filters_of(&plan);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].sources.len(), 2);
        assert!(!std::ptr::eq(
            found[0].sources[0].side,
            found[0].sources[1].side
        ));
        // One block keeps every row of its dimension: nothing may be pushed.
        assert!(filters_of(&both(false)).is_empty());
    }

    #[test]
    fn a_source_containing_the_running_scan_is_no_source() {
        // (A ⋈ d[filtered]) ⋈ A: the bare A's only source would be the left
        // input, which holds the occurrence of A that runs.
        let fact = keyed("id");
        let a = |name: &str| alias(name, scan_as(fact.clone(), "t", vec![]));
        let left = join_keys(
            a("a1"),
            dim("d", true),
            (Expr::col("a1.id"), Expr::col("d.id")),
            JoinType::Inner,
        );
        let plan = join_keys(
            left,
            a("a2"),
            (Expr::col("a1.id"), Expr::col("a2.id")),
            JoinType::Inner,
        );
        assert_eq!(plan.repeated_subplans().len(), 1);
        assert!(filters_of(&plan).is_empty());
    }

    #[test]
    fn a_join_passes_keys_one_way() {
        // Both inputs are filtered and both prune on the join key: the right
        // one runs first and the left one is narrowed, not the reverse too.
        let (a, b) = (keyed("id"), keyed("id"));
        let filtered = |t: &Arc<KeyedTable>, q: &str| {
            scan_as(t.clone(), q, vec![Expr::col("name").eq(Expr::lit("x"))])
        };
        let plan = join_keys(
            filtered(&a, "a"),
            filtered(&b, "b"),
            (Expr::col("a.id"), Expr::col("b.id")),
            JoinType::Inner,
        );
        let found = filters_of(&plan);
        assert_eq!(found.len(), 1);
        assert!(matches!(found[0].scan, LogicalPlan::Scan { qualifier, .. } if qualifier == "a"));
    }

    #[test]
    fn explain_renders_tree() {
        let plan = LogicalPlan::Limit {
            n: 10,
            input: Box::new(LogicalPlan::Filter {
                predicate: Expr::col("id").gt(Expr::lit(1i64)),
                input: Box::new(scan()),
            }),
        };
        let text = plan.explain();
        assert!(text.contains("Limit: 10"));
        assert!(text.contains("Filter:"));
        assert!(text.contains("Scan: t"));
    }
}
