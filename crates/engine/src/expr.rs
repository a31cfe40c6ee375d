//! Expressions: the tree produced by the SQL parser and the DataFrame API,
//! plus binding (name → index resolution against a schema) and evaluation.
//!
//! Expressions are name-based until a physical operator binds them once
//! against its input schema; evaluation then runs on indices.

use crate::error::{EngineError, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::fmt;

/// Binary operators. Comparisons yield `Boolean` (or NULL), arithmetic
/// widens numerically, `And`/`Or` use SQL three-valued logic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryOp {
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinaryOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// Built-in scalar functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalarFunc {
    Round,
    Abs,
    Upper,
    Lower,
    Coalesce,
    Length,
}

impl ScalarFunc {
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "ROUND" => ScalarFunc::Round,
            "ABS" => ScalarFunc::Abs,
            "UPPER" => ScalarFunc::Upper,
            "LOWER" => ScalarFunc::Lower,
            "COALESCE" => ScalarFunc::Coalesce,
            "LENGTH" => ScalarFunc::Length,
            _ => return None,
        })
    }
}

/// An expression tree over named columns.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A column reference, optionally qualified (`alias.column`).
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Literal(Value),
    BinaryOp {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    IsNull(Box<Expr>),
    IsNotNull(Box<Expr>),
    /// `expr IN (list)` / `expr NOT IN (list)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr LIKE pattern` with `%` (any run) and `_` (one char).
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Cast {
        expr: Box<Expr>,
        to: DataType,
    },
    /// `CASE WHEN c1 THEN v1 [WHEN ...] [ELSE e] END`.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    ScalarFunc {
        func: ScalarFunc,
        args: Vec<Expr>,
    },
    /// Unary minus.
    Negate(Box<Expr>),
}

impl Expr {
    /// Shorthand for an unqualified column.
    pub fn col(name: impl Into<String>) -> Expr {
        let name = name.into();
        match name.split_once('.') {
            Some((q, n)) => Expr::Column {
                qualifier: Some(q.to_string()),
                name: n.to_string(),
            },
            None => Expr::Column {
                qualifier: None,
                name,
            },
        }
    }

    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Eq, other)
    }
    pub fn not_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::NotEq, other)
    }
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Lt, other)
    }
    pub fn lt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::LtEq, other)
    }
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Gt, other)
    }
    pub fn gt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::GtEq, other)
    }
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Or, other)
    }
    // The arithmetic builder names intentionally mirror Spark's Column
    // API rather than the std operator traits.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Plus, other)
    }
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Minus, other)
    }
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Multiply, other)
    }
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Divide, other)
    }
    pub fn in_list(self, list: Vec<Expr>, negated: bool) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
            negated,
        }
    }
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
            negated: false,
        }
    }
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    pub fn is_not_null(self) -> Expr {
        Expr::IsNotNull(Box::new(self))
    }

    /// A display name for unaliased select items.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column { name, .. } => name.clone(),
            Expr::Literal(v) => v.to_display_string(),
            Expr::Cast { expr, .. } => expr.default_name(),
            other => format!("{other}"),
        }
    }

    /// Visit this expression and every sub-expression, parents before
    /// children, children left to right.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Column { .. } | Expr::Literal(_) => {}
            Expr::BinaryOp { left, right, .. } => {
                left.for_each(f);
                right.for_each(f);
            }
            Expr::Not(e)
            | Expr::IsNull(e)
            | Expr::IsNotNull(e)
            | Expr::Negate(e)
            | Expr::Like { expr: e, .. }
            | Expr::Cast { expr: e, .. } => e.for_each(f),
            Expr::InList { expr, list, .. } => {
                expr.for_each(f);
                for e in list {
                    e.for_each(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.for_each(f);
                low.for_each(f);
                high.for_each(f);
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.for_each(f);
                    v.for_each(f);
                }
                if let Some(e) = else_expr {
                    e.for_each(f);
                }
            }
            Expr::ScalarFunc { args, .. } => {
                for a in args {
                    a.for_each(f);
                }
            }
        }
    }

    /// Collect every column referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<(Option<String>, String)>) {
        self.for_each(&mut |e| {
            if let Expr::Column { qualifier, name } = e {
                let key = (qualifier.clone(), name.clone());
                if !out.contains(&key) {
                    out.push(key);
                }
            }
        });
    }

    /// Bind names to indices against a schema, producing an executable
    /// expression. Also infers the output type.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Column { qualifier, name } => {
                let idx = schema.resolve(qualifier.as_deref(), name)?;
                BoundExpr::Column(idx, schema.field(idx).data_type)
            }
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::BinaryOp { left, op, right } => BoundExpr::BinaryOp {
                left: Box::new(left.bind(schema)?),
                op: *op,
                right: Box::new(right.bind(schema)?),
            },
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind(schema)?)),
            Expr::IsNull(e) => BoundExpr::IsNull(Box::new(e.bind(schema)?)),
            Expr::IsNotNull(e) => BoundExpr::IsNotNull(Box::new(e.bind(schema)?)),
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(expr.bind(schema)?),
                list: list.iter().map(|e| e.bind(schema)).collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: Box::new(expr.bind(schema)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(expr.bind(schema)?),
                low: Box::new(low.bind(schema)?),
                high: Box::new(high.bind(schema)?),
                negated: *negated,
            },
            Expr::Cast { expr, to } => BoundExpr::Cast {
                expr: Box::new(expr.bind(schema)?),
                to: *to,
            },
            Expr::Case {
                branches,
                else_expr,
            } => BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((c.bind(schema)?, v.bind(schema)?)))
                    .collect::<Result<_>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(e.bind(schema)?)),
                    None => None,
                },
            },
            Expr::ScalarFunc { func, args } => BoundExpr::ScalarFunc {
                func: *func,
                args: args.iter().map(|a| a.bind(schema)).collect::<Result<_>>()?,
            },
            Expr::Negate(e) => BoundExpr::Negate(Box::new(e.bind(schema)?)),
        })
    }

    /// Infer the output type of this expression against a schema. Used by
    /// the analyzer to build plan schemas.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        Ok(match self {
            Expr::Column { qualifier, name } => {
                let idx = schema.resolve(qualifier.as_deref(), name)?;
                schema.field(idx).data_type
            }
            Expr::Literal(v) => v.data_type().unwrap_or(DataType::Utf8),
            Expr::BinaryOp { left, op, right } => {
                if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                    // Children must still resolve and type-check.
                    let lt = left.data_type(schema)?;
                    let rt = right.data_type(schema)?;
                    if op.is_comparison() && !lt.comparable_with(rt) {
                        return Err(EngineError::Analysis(format!(
                            "cannot compare {lt} with {rt} in {left} {op} {right}"
                        )));
                    }
                    DataType::Boolean
                } else {
                    let lt = left.data_type(schema)?;
                    let rt = right.data_type(schema)?;
                    if !lt.is_numeric() || !rt.is_numeric() {
                        return Err(EngineError::Analysis(format!(
                            "arithmetic on non-numeric types {lt} and {rt}"
                        )));
                    }
                    if matches!(op, BinaryOp::Divide) {
                        DataType::Float64
                    } else {
                        lt.numeric_widen(rt)
                    }
                }
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => {
                e.data_type(schema)?;
                DataType::Boolean
            }
            Expr::InList { expr, list, .. } => {
                expr.data_type(schema)?;
                for item in list {
                    item.data_type(schema)?;
                }
                DataType::Boolean
            }
            Expr::Like { expr, .. } => {
                expr.data_type(schema)?;
                DataType::Boolean
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.data_type(schema)?;
                low.data_type(schema)?;
                high.data_type(schema)?;
                DataType::Boolean
            }
            Expr::Cast { to, .. } => *to,
            Expr::Case {
                branches,
                else_expr,
            } => {
                if let Some((_, v)) = branches.first() {
                    v.data_type(schema)?
                } else if let Some(e) = else_expr {
                    e.data_type(schema)?
                } else {
                    DataType::Utf8
                }
            }
            Expr::ScalarFunc { func, args } => match func {
                ScalarFunc::Round | ScalarFunc::Abs => args
                    .first()
                    .map_or(Ok(DataType::Float64), |a| a.data_type(schema))?,
                ScalarFunc::Upper | ScalarFunc::Lower => DataType::Utf8,
                ScalarFunc::Coalesce => args
                    .first()
                    .map_or(Ok(DataType::Utf8), |a| a.data_type(schema))?,
                ScalarFunc::Length => DataType::Int64,
            },
            Expr::Negate(e) => e.data_type(schema)?,
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::BinaryOp { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::IsNull(e) => write!(f, "{e} IS NULL"),
            Expr::IsNotNull(e) => write!(f, "{e} IS NOT NULL"),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "{expr} {}LIKE '{pattern}'",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::Case { .. } => write!(f, "CASE ... END"),
            Expr::ScalarFunc { func, args } => {
                write!(f, "{func:?}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Negate(e) => write!(f, "-{e}"),
        }
    }
}

/// An expression with columns resolved to positions — ready to evaluate.
#[derive(Clone, Debug)]
pub enum BoundExpr {
    Column(usize, DataType),
    Literal(Value),
    BinaryOp {
        left: Box<BoundExpr>,
        op: BinaryOp,
        right: Box<BoundExpr>,
    },
    Not(Box<BoundExpr>),
    IsNull(Box<BoundExpr>),
    IsNotNull(Box<BoundExpr>),
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: String,
        negated: bool,
    },
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    Cast {
        expr: Box<BoundExpr>,
        to: DataType,
    },
    Case {
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_expr: Option<Box<BoundExpr>>,
    },
    ScalarFunc {
        func: ScalarFunc,
        args: Vec<BoundExpr>,
    },
    Negate(Box<BoundExpr>),
}

impl BoundExpr {
    /// Evaluate against one row.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        Ok(match self {
            BoundExpr::Column(i, _) => row.get(*i).clone(),
            BoundExpr::Literal(v) => v.clone(),
            BoundExpr::BinaryOp { left, op, right } => {
                eval_binary(left.eval(row)?, *op, || right.eval(row))?
            }
            BoundExpr::Not(e) => {
                match e.eval(row)? {
                    Value::Null => Value::Null,
                    v => Value::Boolean(!v.as_bool().ok_or_else(|| {
                        EngineError::Execution("NOT applied to non-boolean".into())
                    })?),
                }
            }
            BoundExpr::IsNull(e) => Value::Boolean(e.eval(row)?.is_null()),
            BoundExpr::IsNotNull(e) => Value::Boolean(!e.eval(row)?.is_null()),
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                let mut found = false;
                for item in list {
                    let iv = item.eval(row)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if v.sql_cmp(&iv) == Some(Ordering::Equal) {
                        found = true;
                        break;
                    }
                }
                match (found, saw_null) {
                    (true, _) => Value::Boolean(!negated),
                    (false, true) => Value::Null,
                    (false, false) => Value::Boolean(*negated),
                }
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => match expr.eval(row)? {
                Value::Null => Value::Null,
                v => {
                    let s = v.as_str().ok_or_else(|| {
                        EngineError::Execution("LIKE applied to non-string".into())
                    })?;
                    let matched = like_match(pattern, s);
                    Value::Boolean(matched != *negated)
                }
            },
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let inside = a != Ordering::Less && b != Ordering::Greater;
                        Value::Boolean(inside != *negated)
                    }
                    _ => Value::Null,
                }
            }
            BoundExpr::Cast { expr, to } => {
                let v = expr.eval(row)?;
                v.cast_to(*to)
                    .ok_or_else(|| EngineError::Execution(format!("cannot cast {v} to {to}")))?
            }
            BoundExpr::Case {
                branches,
                else_expr,
            } => {
                for (cond, value) in branches {
                    if cond.eval(row)?.as_bool() == Some(true) {
                        return value.eval(row);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row)?,
                    None => Value::Null,
                }
            }
            BoundExpr::ScalarFunc { func, args } => eval_scalar_func(*func, args, row)?,
            BoundExpr::Negate(e) => match e.eval(row)? {
                Value::Null => Value::Null,
                // Integers wrap: the most negative value negates to itself.
                Value::Int8(v) => Value::Int8(v.wrapping_neg()),
                Value::Int16(v) => Value::Int16(v.wrapping_neg()),
                Value::Int32(v) => Value::Int32(v.wrapping_neg()),
                Value::Int64(v) => Value::Int64(v.wrapping_neg()),
                Value::Float32(v) => Value::Float32(-v),
                Value::Float64(v) => Value::Float64(-v),
                other => return Err(EngineError::Execution(format!("cannot negate {other}"))),
            },
        })
    }

    /// Evaluate as a SQL predicate: NULL counts as false.
    pub fn eval_predicate(&self, row: &Row) -> Result<bool> {
        Ok(self.eval(row)?.as_bool().unwrap_or(false))
    }
}

fn eval_binary(left: Value, op: BinaryOp, right: impl FnOnce() -> Result<Value>) -> Result<Value> {
    // Short-circuit three-valued AND/OR.
    match op {
        BinaryOp::And => {
            return Ok(match left.as_bool() {
                Some(false) => Value::Boolean(false),
                Some(true) => right()?,
                None => {
                    // NULL AND false = false, NULL AND anything-else = NULL
                    match right()?.as_bool() {
                        Some(false) => Value::Boolean(false),
                        _ => Value::Null,
                    }
                }
            });
        }
        BinaryOp::Or => {
            return Ok(match left.as_bool() {
                Some(true) => Value::Boolean(true),
                Some(false) => right()?,
                None => match right()?.as_bool() {
                    Some(true) => Value::Boolean(true),
                    _ => Value::Null,
                },
            });
        }
        _ => {}
    }
    let right = right()?;
    if left.is_null() || right.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = left.sql_cmp(&right);
        return Ok(match ord {
            None => Value::Null,
            Some(o) => Value::Boolean(match op {
                BinaryOp::Eq => o == Ordering::Equal,
                BinaryOp::NotEq => o != Ordering::Equal,
                BinaryOp::Lt => o == Ordering::Less,
                BinaryOp::LtEq => o != Ordering::Greater,
                BinaryOp::Gt => o == Ordering::Greater,
                BinaryOp::GtEq => o != Ordering::Less,
                _ => unreachable!(),
            }),
        });
    }
    // Arithmetic.
    let float_mode = matches!(left, Value::Float32(_) | Value::Float64(_))
        || matches!(right, Value::Float32(_) | Value::Float64(_))
        || op == BinaryOp::Divide;
    if float_mode {
        let (a, b) = (
            left.as_f64()
                .ok_or_else(|| EngineError::Execution(format!("non-numeric operand {left}")))?,
            right
                .as_f64()
                .ok_or_else(|| EngineError::Execution(format!("non-numeric operand {right}")))?,
        );
        let out = match op {
            BinaryOp::Plus => a + b,
            BinaryOp::Minus => a - b,
            BinaryOp::Multiply => a * b,
            BinaryOp::Divide => {
                if b == 0.0 {
                    return Ok(Value::Null); // SQL: division by zero → NULL
                }
                a / b
            }
            BinaryOp::Modulo => {
                if b == 0.0 {
                    return Ok(Value::Null);
                }
                a % b
            }
            _ => unreachable!(),
        };
        Ok(Value::Float64(out))
    } else {
        let (a, b) = (
            left.as_i64()
                .ok_or_else(|| EngineError::Execution(format!("non-numeric operand {left}")))?,
            right
                .as_i64()
                .ok_or_else(|| EngineError::Execution(format!("non-numeric operand {right}")))?,
        );
        let out = match op {
            BinaryOp::Plus => a.wrapping_add(b),
            BinaryOp::Minus => a.wrapping_sub(b),
            BinaryOp::Multiply => a.wrapping_mul(b),
            BinaryOp::Modulo => {
                if b == 0 {
                    return Ok(Value::Null);
                }
                // `i64::MIN % -1` overflows; it wraps to 0.
                a.wrapping_rem(b)
            }
            _ => unreachable!(),
        };
        Ok(Value::Int64(out))
    }
}

fn eval_scalar_func(func: ScalarFunc, args: &[BoundExpr], row: &Row) -> Result<Value> {
    let arity_err =
        |n: usize| EngineError::Execution(format!("{func:?} expects at least {n} argument(s)"));
    match func {
        ScalarFunc::Round => {
            let v = args.first().ok_or_else(|| arity_err(1))?.eval(row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let digits = match args.get(1) {
                Some(d) => d.eval(row)?.as_i64().unwrap_or(0),
                None => 0,
            };
            let x = v
                .as_f64()
                .ok_or_else(|| EngineError::Execution("ROUND of non-numeric".into()))?;
            let factor = 10f64.powi(digits as i32);
            Ok(Value::Float64((x * factor).round() / factor))
        }
        ScalarFunc::Abs => {
            let v = args.first().ok_or_else(|| arity_err(1))?.eval(row)?;
            Ok(match v {
                Value::Null => Value::Null,
                Value::Float64(f) => Value::Float64(f.abs()),
                Value::Float32(f) => Value::Float32(f.abs()),
                other => Value::Int64(
                    other
                        .as_i64()
                        .ok_or_else(|| EngineError::Execution("ABS of non-numeric".into()))?
                        .abs(),
                ),
            })
        }
        ScalarFunc::Upper | ScalarFunc::Lower => {
            let v = args.first().ok_or_else(|| arity_err(1))?.eval(row)?;
            Ok(match v {
                Value::Null => Value::Null,
                Value::Utf8(s) => Value::Utf8(if func == ScalarFunc::Upper {
                    s.to_uppercase()
                } else {
                    s.to_lowercase()
                }),
                other => {
                    return Err(EngineError::Execution(format!(
                        "{func:?} of non-string {other}"
                    )))
                }
            })
        }
        ScalarFunc::Coalesce => {
            for a in args {
                let v = a.eval(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        ScalarFunc::Length => {
            let v = args.first().ok_or_else(|| arity_err(1))?.eval(row)?;
            Ok(match v {
                Value::Null => Value::Null,
                Value::Utf8(s) => Value::Int64(s.chars().count() as i64),
                Value::Binary(b) => Value::Int64(b.len() as i64),
                other => {
                    return Err(EngineError::Execution(format!(
                        "LENGTH of non-string {other}"
                    )))
                }
            })
        }
    }
}

/// SQL LIKE matcher: `%` matches any run, `_` matches one character.
pub fn like_match(pattern: &str, input: &str) -> bool {
    fn inner(p: &[char], s: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => (0..=s.len()).any(|k| inner(rest, &s[k..])),
            Some(('_', rest)) => !s.is_empty() && inner(rest, &s[1..]),
            Some((c, rest)) => s.first() == Some(c) && inner(rest, &s[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let s: Vec<char> = input.chars().collect();
    inner(&p, &s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int32),
            Field::new("b", DataType::Utf8),
            Field::new("c", DataType::Float64),
        ])
    }

    fn row(a: i32, b: &str, c: f64) -> Row {
        Row::new(vec![
            Value::Int32(a),
            Value::Utf8(b.into()),
            Value::Float64(c),
        ])
    }

    fn eval(e: &Expr, r: &Row) -> Value {
        e.bind(&schema()).unwrap().eval(r).unwrap()
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(eval(&Expr::col("a"), &row(7, "x", 0.0)), Value::Int32(7));
        assert_eq!(eval(&Expr::lit(5i64), &row(0, "", 0.0)), Value::Int64(5));
    }

    #[test]
    fn arithmetic_widens_and_divides_to_float() {
        let e = Expr::col("a").add(Expr::lit(1i64));
        assert_eq!(eval(&e, &row(2, "", 0.0)), Value::Int64(3));
        let d = Expr::col("a").div(Expr::lit(2i64));
        assert_eq!(eval(&d, &row(5, "", 0.0)), Value::Float64(2.5));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::col("a").div(Expr::lit(0i64));
        assert_eq!(eval(&e, &row(5, "", 0.0)), Value::Null);
    }

    #[test]
    fn comparisons_and_three_valued_logic() {
        let e = Expr::col("a").gt(Expr::lit(3i64));
        assert_eq!(eval(&e, &row(5, "", 0.0)), Value::Boolean(true));
        assert_eq!(eval(&e, &row(1, "", 0.0)), Value::Boolean(false));

        // NULL AND false = false; NULL AND true = NULL
        let null = Expr::lit(Value::Null);
        let and_false = null.clone().and(Expr::lit(false));
        assert_eq!(eval(&and_false, &row(0, "", 0.0)), Value::Boolean(false));
        let and_true = Expr::lit(Value::Null).and(Expr::lit(true));
        assert_eq!(eval(&and_true, &row(0, "", 0.0)), Value::Null);
        // NULL OR true = true
        let or_true = Expr::lit(Value::Null).or(Expr::lit(true));
        assert_eq!(eval(&or_true, &row(0, "", 0.0)), Value::Boolean(true));
    }

    #[test]
    fn in_list_with_null_semantics() {
        let e = Expr::col("a").in_list(vec![Expr::lit(1i64), Expr::lit(2i64)], false);
        assert_eq!(eval(&e, &row(2, "", 0.0)), Value::Boolean(true));
        assert_eq!(eval(&e, &row(9, "", 0.0)), Value::Boolean(false));
        // x NOT IN (..., NULL) is NULL when x not found.
        let e = Expr::col("a").in_list(vec![Expr::lit(1i64), Expr::lit(Value::Null)], true);
        assert_eq!(eval(&e, &row(9, "", 0.0)), Value::Null);
        assert_eq!(eval(&e, &row(1, "", 0.0)), Value::Boolean(false));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("abc", "abc"));
        assert!(like_match("a%", "abc"));
        assert!(like_match("%c", "abc"));
        assert!(like_match("a_c", "abc"));
        assert!(like_match("%b%", "abc"));
        assert!(!like_match("a_", "abc"));
        assert!(!like_match("x%", "abc"));
        assert!(like_match("%", ""));
        let e = Expr::col("b").like("ab%");
        assert_eq!(eval(&e, &row(0, "abz", 0.0)), Value::Boolean(true));
    }

    #[test]
    fn between_inclusive() {
        let e = Expr::Between {
            expr: Box::new(Expr::col("a")),
            low: Box::new(Expr::lit(1i64)),
            high: Box::new(Expr::lit(3i64)),
            negated: false,
        };
        assert_eq!(eval(&e, &row(1, "", 0.0)), Value::Boolean(true));
        assert_eq!(eval(&e, &row(3, "", 0.0)), Value::Boolean(true));
        assert_eq!(eval(&e, &row(4, "", 0.0)), Value::Boolean(false));
    }

    #[test]
    fn case_when_branches() {
        let e = Expr::Case {
            branches: vec![
                (Expr::col("a").eq(Expr::lit(1i64)), Expr::lit("one")),
                (Expr::col("a").eq(Expr::lit(2i64)), Expr::lit("two")),
            ],
            else_expr: Some(Box::new(Expr::lit("many"))),
        };
        assert_eq!(eval(&e, &row(1, "", 0.0)), Value::Utf8("one".into()));
        assert_eq!(eval(&e, &row(2, "", 0.0)), Value::Utf8("two".into()));
        assert_eq!(eval(&e, &row(9, "", 0.0)), Value::Utf8("many".into()));
    }

    #[test]
    fn scalar_functions() {
        let round = Expr::ScalarFunc {
            func: ScalarFunc::Round,
            args: vec![Expr::col("c"), Expr::lit(1i64)],
        };
        assert_eq!(eval(&round, &row(0, "", 2.347)), Value::Float64(2.3));
        let upper = Expr::ScalarFunc {
            func: ScalarFunc::Upper,
            args: vec![Expr::col("b")],
        };
        assert_eq!(eval(&upper, &row(0, "abc", 0.0)), Value::Utf8("ABC".into()));
        let coalesce = Expr::ScalarFunc {
            func: ScalarFunc::Coalesce,
            args: vec![Expr::lit(Value::Null), Expr::lit(7i64)],
        };
        assert_eq!(eval(&coalesce, &row(0, "", 0.0)), Value::Int64(7));
    }

    #[test]
    fn is_null_checks() {
        let e = Expr::lit(Value::Null).is_null();
        assert_eq!(eval(&e, &row(0, "", 0.0)), Value::Boolean(true));
        let e = Expr::col("a").is_not_null();
        assert_eq!(eval(&e, &row(0, "", 0.0)), Value::Boolean(true));
    }

    #[test]
    fn col_parses_qualified_names() {
        assert_eq!(
            Expr::col("t.x"),
            Expr::Column {
                qualifier: Some("t".into()),
                name: "x".into()
            }
        );
    }

    #[test]
    fn referenced_columns_deduplicates() {
        let e = Expr::col("a").gt(Expr::col("a").add(Expr::col("t.b")));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols.len(), 2);
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(
            Expr::col("a").add(Expr::lit(1i64)).data_type(&s).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            Expr::col("a").div(Expr::lit(2i64)).data_type(&s).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            Expr::col("a").gt(Expr::lit(1i64)).data_type(&s).unwrap(),
            DataType::Boolean
        );
        assert!(Expr::col("b").add(Expr::lit(1i64)).data_type(&s).is_err());
    }

    #[test]
    fn eval_predicate_treats_null_as_false() {
        let e = Expr::lit(Value::Null).bind(&schema()).unwrap();
        assert!(!e.eval_predicate(&row(0, "", 0.0)).unwrap());
    }
}
