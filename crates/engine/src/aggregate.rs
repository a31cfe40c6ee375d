//! Aggregate functions with partial/final decomposition, so the engine can
//! pre-aggregate on the map side before the shuffle — the classic two-phase
//! hash aggregation Spark performs.

use crate::error::{EngineError, Result};
use crate::value::{DataType, Value};
use std::cmp::Ordering;

/// Supported aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    /// COUNT(*) — counts rows regardless of NULLs.
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
    /// Sample standard deviation (`stddev_samp`, TPC-DS q39's `stdev`).
    Stddev,
    /// Sample variance.
    Variance,
}

impl AggFunc {
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" | "MEAN" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "STDDEV" | "STDDEV_SAMP" | "STDEV" => AggFunc::Stddev,
            "VARIANCE" | "VAR_SAMP" => AggFunc::Variance,
            _ => return None,
        })
    }

    /// Output type of the aggregate.
    pub fn output_type(self, input: DataType) -> DataType {
        match self {
            AggFunc::Count | AggFunc::CountStar => DataType::Int64,
            AggFunc::Sum => {
                if input.is_integer() {
                    DataType::Int64
                } else {
                    DataType::Float64
                }
            }
            AggFunc::Avg | AggFunc::Stddev | AggFunc::Variance => DataType::Float64,
            AggFunc::Min | AggFunc::Max => input,
        }
    }

    pub fn accumulator(self) -> Accumulator {
        match self {
            AggFunc::Count | AggFunc::CountStar => Accumulator::Count { n: 0 },
            AggFunc::Sum => Accumulator::Sum {
                int: 0,
                float: 0.0,
                saw_float: false,
                saw_any: false,
            },
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Accumulator::MinMax {
                best: Value::Null,
                is_min: true,
            },
            AggFunc::Max => Accumulator::MinMax {
                best: Value::Null,
                is_min: false,
            },
            AggFunc::Stddev => Accumulator::Moments(Moments::new(false)),
            AggFunc::Variance => Accumulator::Moments(Moments::new(true)),
        }
    }
}

/// Running state of one aggregate over one group. Supports `update` (map
/// side), `merge` (reduce side), and `finish`.
#[derive(Clone, Debug)]
pub enum Accumulator {
    Count {
        n: i64,
    },
    Sum {
        int: i64,
        float: f64,
        saw_float: bool,
        saw_any: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    MinMax {
        best: Value,
        is_min: bool,
    },
    Moments(Moments),
}

/// Sample variance or standard deviation. Integer inputs are summed
/// exactly, so the result rounds once, at the end, whatever partitions the
/// rows came in; float inputs, or integer sums that would overflow, fall
/// back to Welford's online moments, merged by Chan's parallel formula.
#[derive(Clone, Debug)]
pub struct Moments {
    n: i64,
    /// `Some((Σx, Σx²))` while every input was an integer and the sums fit.
    exact: Option<(i64, i64)>,
    /// Welford's mean and sum of squared deviations, once `exact` is gone.
    mean: f64,
    m2: f64,
    /// VARIANCE rather than STDDEV.
    variance: bool,
}

impl Moments {
    fn new(variance: bool) -> Moments {
        Moments {
            n: 0,
            exact: Some((0, 0)),
            mean: 0.0,
            m2: 0.0,
            variance,
        }
    }

    /// `n · Σx² − (Σx)²`, which is `n` times the sum of squared deviations.
    fn scaled_m2(n: i64, (sum, sumsq): (i64, i64)) -> i128 {
        n as i128 * sumsq as i128 - sum as i128 * sum as i128
    }

    /// Leave the exact sums for Welford's state.
    fn inexact(&mut self) {
        if let Some(sums) = self.exact.take() {
            if self.n > 0 {
                self.mean = sums.0 as f64 / self.n as f64;
                self.m2 = Moments::scaled_m2(self.n, sums) as f64 / self.n as f64;
            }
        }
    }

    fn push_i64(&mut self, v: i64) {
        let summed = self.exact.and_then(|(sum, sumsq)| {
            Some((sum.checked_add(v)?, sumsq.checked_add(v.checked_mul(v)?)?))
        });
        match summed {
            Some(sums) => {
                self.n += 1;
                self.exact = Some(sums);
            }
            None => self.push_f64(v as f64),
        }
    }

    fn push_f64(&mut self, x: f64) {
        self.inexact();
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    fn merge(&mut self, other: &Moments) {
        let summed = match (self.exact, other.exact) {
            (Some((s1, q1)), Some((s2, q2))) => s1.checked_add(s2).zip(q1.checked_add(q2)),
            _ => None,
        };
        if summed.is_some() {
            self.n += other.n;
            self.exact = summed;
            return;
        }
        let mut other = other.clone();
        other.inexact();
        self.inexact();
        // Chan et al. parallel variance merge.
        if other.n > 0 {
            if self.n == 0 {
                (self.n, self.mean, self.m2) = (other.n, other.mean, other.m2);
            } else {
                let delta = other.mean - self.mean;
                let total = (self.n + other.n) as f64;
                self.m2 += other.m2 + delta * delta * (self.n as f64) * (other.n as f64) / total;
                self.mean += delta * (other.n as f64) / total;
                self.n += other.n;
            }
        }
    }

    fn finish(&self) -> Value {
        if self.n < 2 {
            return Value::Null;
        }
        let var = match self.exact {
            Some(sums) => {
                Moments::scaled_m2(self.n, sums) as f64 / (self.n as f64 * (self.n - 1) as f64)
            }
            None => self.m2 / (self.n - 1) as f64,
        };
        Value::Float64(if self.variance { var } else { var.sqrt() })
    }
}

impl Accumulator {
    /// Fold one input value in. NULLs are ignored (SQL semantics) except by
    /// COUNT(*) which is fed non-null markers by the caller.
    pub fn update(&mut self, value: &Value) -> Result<()> {
        if value.is_null() {
            return Ok(());
        }
        match self {
            Accumulator::Count { n } => *n += 1,
            Accumulator::Sum {
                int,
                float,
                saw_float,
                saw_any,
            } => {
                *saw_any = true;
                match value {
                    Value::Float32(x) => {
                        *saw_float = true;
                        *float += *x as f64;
                    }
                    Value::Float64(x) => {
                        *saw_float = true;
                        *float += x;
                    }
                    other => {
                        let v = other.as_i64().ok_or_else(|| {
                            EngineError::Execution(format!("SUM of non-numeric {other}"))
                        })?;
                        *int += v;
                        *float += v as f64;
                    }
                }
            }
            Accumulator::Avg { sum, n } => {
                *sum += value
                    .as_f64()
                    .ok_or_else(|| EngineError::Execution(format!("AVG of non-numeric {value}")))?;
                *n += 1;
            }
            Accumulator::MinMax { best, is_min } => {
                let replace = match best.sql_cmp(value) {
                    None => best.is_null(), // first non-null value
                    Some(Ordering::Greater) => *is_min,
                    Some(Ordering::Less) => !*is_min,
                    Some(Ordering::Equal) => false,
                };
                if replace {
                    *best = value.clone();
                }
            }
            Accumulator::Moments(moments) => match value {
                Value::Float32(_) | Value::Float64(_) => {
                    moments.push_f64(value.as_f64().expect("a float"))
                }
                other => moments.push_i64(other.as_i64().ok_or_else(|| {
                    EngineError::Execution(format!("STDDEV of non-numeric {value}"))
                })?),
            },
        }
        Ok(())
    }

    /// Whether this accumulator supports the typed `update_i64`/
    /// `update_f64` fast paths. MIN/MAX are excluded: they must preserve
    /// the input's exact `Value` variant, which the typed paths erase.
    pub fn supports_typed_update(&self) -> bool {
        !matches!(self, Accumulator::MinMax { .. })
    }

    /// Typed fast path: fold in a non-null `i64` without building a
    /// `Value`. Semantics match `update(&Value::Int64(v))`.
    pub fn update_i64(&mut self, v: i64) {
        match self {
            Accumulator::Count { n } => *n += 1,
            Accumulator::Sum {
                int,
                float,
                saw_any,
                ..
            } => {
                *saw_any = true;
                *int += v;
                *float += v as f64;
            }
            Accumulator::Avg { sum, n } => {
                *sum += v as f64;
                *n += 1;
            }
            Accumulator::Moments(moments) => moments.push_i64(v),
            Accumulator::MinMax { .. } => unreachable!("MinMax has no typed path"),
        }
    }

    /// Typed fast path: fold in a non-null `f64` without building a
    /// `Value`. Semantics match `update(&Value::Float64(v))`.
    pub fn update_f64(&mut self, v: f64) {
        match self {
            Accumulator::Count { n } => *n += 1,
            Accumulator::Sum {
                float,
                saw_float,
                saw_any,
                ..
            } => {
                *saw_any = true;
                *saw_float = true;
                *float += v;
            }
            Accumulator::Avg { sum, n } => {
                *sum += v;
                *n += 1;
            }
            Accumulator::Moments(moments) => moments.push_f64(v),
            Accumulator::MinMax { .. } => unreachable!("MinMax has no typed path"),
        }
    }

    /// Merge a partial accumulator from another partition.
    pub fn merge(&mut self, other: &Accumulator) -> Result<()> {
        match (self, other) {
            (Accumulator::Count { n }, Accumulator::Count { n: m }) => *n += m,
            (
                Accumulator::Sum {
                    int,
                    float,
                    saw_float,
                    saw_any,
                },
                Accumulator::Sum {
                    int: i2,
                    float: f2,
                    saw_float: sf2,
                    saw_any: sa2,
                },
            ) => {
                *int += i2;
                *float += f2;
                *saw_float |= sf2;
                *saw_any |= sa2;
            }
            (Accumulator::Avg { sum, n }, Accumulator::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            (Accumulator::MinMax { best, is_min }, Accumulator::MinMax { best: b2, .. }) => {
                if !b2.is_null() {
                    let replace = match best.sql_cmp(b2) {
                        None => best.is_null(),
                        Some(Ordering::Greater) => *is_min,
                        Some(Ordering::Less) => !*is_min,
                        Some(Ordering::Equal) => false,
                    };
                    if replace {
                        *best = b2.clone();
                    }
                }
            }
            (Accumulator::Moments(moments), Accumulator::Moments(other)) => moments.merge(other),
            (a, b) => {
                return Err(EngineError::Execution(format!(
                    "cannot merge accumulators {a:?} and {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Produce the final value.
    pub fn finish(&self) -> Value {
        match self {
            Accumulator::Count { n } => Value::Int64(*n),
            Accumulator::Sum {
                int,
                float,
                saw_float,
                saw_any,
            } => {
                if !saw_any {
                    Value::Null
                } else if *saw_float {
                    Value::Float64(*float)
                } else {
                    Value::Int64(*int)
                }
            }
            Accumulator::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / *n as f64)
                }
            }
            Accumulator::MinMax { best, .. } => best.clone(),
            Accumulator::Moments(moments) => moments.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(acc: &mut Accumulator, values: &[f64]) {
        for &v in values {
            acc.update(&Value::Float64(v)).unwrap();
        }
    }

    #[test]
    fn count_ignores_nulls() {
        let mut acc = AggFunc::Count.accumulator();
        acc.update(&Value::Int32(1)).unwrap();
        acc.update(&Value::Null).unwrap();
        acc.update(&Value::Int32(3)).unwrap();
        assert_eq!(acc.finish(), Value::Int64(2));
    }

    #[test]
    fn sum_integer_stays_integer() {
        let mut acc = AggFunc::Sum.accumulator();
        acc.update(&Value::Int32(2)).unwrap();
        acc.update(&Value::Int64(3)).unwrap();
        assert_eq!(acc.finish(), Value::Int64(5));
    }

    #[test]
    fn sum_with_float_promotes() {
        let mut acc = AggFunc::Sum.accumulator();
        acc.update(&Value::Int32(2)).unwrap();
        acc.update(&Value::Float64(0.5)).unwrap();
        assert_eq!(acc.finish(), Value::Float64(2.5));
    }

    #[test]
    fn empty_aggregates_are_null_except_count() {
        assert_eq!(AggFunc::Sum.accumulator().finish(), Value::Null);
        assert_eq!(AggFunc::Avg.accumulator().finish(), Value::Null);
        assert_eq!(AggFunc::Min.accumulator().finish(), Value::Null);
        assert_eq!(AggFunc::Count.accumulator().finish(), Value::Int64(0));
    }

    #[test]
    fn avg_and_stddev_match_formulas() {
        let mut avg = AggFunc::Avg.accumulator();
        feed(&mut avg, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(avg.finish(), Value::Float64(2.5));

        let mut sd = AggFunc::Stddev.accumulator();
        feed(&mut sd, &[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        // Sample stddev of this classic set is sqrt(32/7).
        match sd.finish() {
            Value::Float64(v) => assert!((v - (32.0f64 / 7.0).sqrt()).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stddev_single_value_is_null() {
        let mut sd = AggFunc::Stddev.accumulator();
        feed(&mut sd, &[5.0]);
        assert_eq!(sd.finish(), Value::Null);
    }

    #[test]
    fn min_max_track_extremes() {
        let mut min = AggFunc::Min.accumulator();
        let mut max = AggFunc::Max.accumulator();
        for v in [3i64, 1, 4, 1, 5] {
            min.update(&Value::Int64(v)).unwrap();
            max.update(&Value::Int64(v)).unwrap();
        }
        assert_eq!(min.finish(), Value::Int64(1));
        assert_eq!(max.finish(), Value::Int64(5));
    }

    #[test]
    fn merge_equals_single_pass() {
        // Split a stream across two partial accumulators and merge; the
        // result must equal a single-pass accumulation.
        let data = [1.0, 2.5, 3.0, 4.5, 5.0, 6.5, 7.0];
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Stddev, AggFunc::Min] {
            let mut single = func.accumulator();
            feed(&mut single, &data);

            let mut p1 = func.accumulator();
            let mut p2 = func.accumulator();
            feed(&mut p1, &data[..3]);
            feed(&mut p2, &data[3..]);
            p1.merge(&p2).unwrap();

            let (a, b) = (single.finish(), p1.finish());
            match (&a, &b) {
                (Value::Float64(x), Value::Float64(y)) => {
                    assert!((x - y).abs() < 1e-9, "{func:?}: {x} vs {y}")
                }
                _ => assert_eq!(a, b, "{func:?}"),
            }
        }
    }

    #[test]
    fn merge_with_empty_partial() {
        let mut full = AggFunc::Stddev.accumulator();
        feed(&mut full, &[1.0, 2.0, 3.0]);
        let empty = AggFunc::Stddev.accumulator();
        let mut merged = full.clone();
        merged.merge(&empty).unwrap();
        assert_eq!(merged.finish(), full.finish());

        let mut empty2 = AggFunc::Stddev.accumulator();
        empty2.merge(&full).unwrap();
        assert_eq!(empty2.finish(), full.finish());
    }

    #[test]
    fn integer_moments_do_not_depend_on_partitioning() {
        // 20..=69 in a scrambled order: sample variance 212.5 exactly.
        let ages: Vec<i64> = (0..50).map(|i| 20 + (i * 7) % 50).collect();
        let stddev_of = |parts: &[&[i64]]| {
            let mut total = AggFunc::Stddev.accumulator();
            for part in parts {
                let mut partial = AggFunc::Stddev.accumulator();
                part.iter().for_each(|&v| partial.update_i64(v));
                total.merge(&partial).unwrap();
            }
            total.finish()
        };
        let expected = Value::Float64(212.5f64.sqrt());
        assert_eq!(stddev_of(&[&ages]), expected);
        for cut in [1, 13, 25, 49] {
            let (a, b) = ages.split_at(cut);
            assert_eq!(stddev_of(&[b, a]), expected, "cut at {cut}");
        }
        let thirds: Vec<&[i64]> = ages.chunks(17).collect();
        assert_eq!(stddev_of(&thirds), expected);
    }

    #[test]
    fn integer_sums_that_would_overflow_fall_back_to_welford() {
        let big = i64::MAX / 4;
        let mut sd = AggFunc::Variance.accumulator();
        for v in [big, big + 2, big + 4] {
            sd.update(&Value::Int64(v)).unwrap();
        }
        // Exact sums are gone; the variance of {0, 2, 4} is 4, up to the
        // precision of a float near `big`.
        match sd.finish() {
            Value::Float64(v) => assert!(v.is_finite() && (v - 4.0).abs() <= 1e3, "{v}"),
            other => panic!("unexpected {other:?}"),
        }
        // A float input, or a merge with an inexact partial, leaves the
        // exact path too and still agrees with the formula.
        let mut mixed = AggFunc::Variance.accumulator();
        [2i64, 4, 4, 4].iter().for_each(|&v| mixed.update_i64(v));
        let mut floats = AggFunc::Variance.accumulator();
        feed(&mut floats, &[5.0, 5.0, 7.0, 9.0]);
        mixed.merge(&floats).unwrap();
        match mixed.finish() {
            Value::Float64(v) => assert!((v - 32.0 / 7.0).abs() < 1e-12, "{v}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn typed_updates_match_value_updates() {
        let ints = [3i64, -7, 0, 42, 42, 9];
        let floats = [1.5f64, -2.25, 0.0, 8.0, 8.0];
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Stddev,
            AggFunc::Variance,
        ] {
            let mut typed = func.accumulator();
            let mut boxed = func.accumulator();
            assert!(typed.supports_typed_update(), "{func:?}");
            for &v in &ints {
                typed.update_i64(v);
                boxed.update(&Value::Int64(v)).unwrap();
            }
            assert_eq!(format!("{typed:?}"), format!("{boxed:?}"), "{func:?} i64");

            let mut typed = func.accumulator();
            let mut boxed = func.accumulator();
            for &v in &floats {
                typed.update_f64(v);
                boxed.update(&Value::Float64(v)).unwrap();
            }
            assert_eq!(format!("{typed:?}"), format!("{boxed:?}"), "{func:?} f64");
        }
        assert!(!AggFunc::Min.accumulator().supports_typed_update());
        assert!(!AggFunc::Max.accumulator().supports_typed_update());
    }

    #[test]
    fn mismatched_merge_errors() {
        let mut a = AggFunc::Count.accumulator();
        let b = AggFunc::Sum.accumulator();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn from_name_and_output_type() {
        assert_eq!(AggFunc::from_name("stddev_samp"), Some(AggFunc::Stddev));
        assert_eq!(AggFunc::from_name("nope"), None);
        assert_eq!(AggFunc::Sum.output_type(DataType::Int32), DataType::Int64);
        assert_eq!(
            AggFunc::Sum.output_type(DataType::Float32),
            DataType::Float64
        );
        assert_eq!(AggFunc::Min.output_type(DataType::Utf8), DataType::Utf8);
    }
}
