//! Result checking. Every distinct query parameterisation is run once on
//! the in-memory reference session before timing; each measured result is
//! reduced to the same digest outside the timed region and compared.

use shc_engine::row::Row;
use shc_engine::value::Value;

/// What a result must look like: row count, a hash of every non-float
/// value, and the float values themselves (two plans partition the data
/// differently, so float aggregates may differ in the last ulp and are
/// compared with a relative tolerance instead of hashed).
#[derive(Clone, Debug, PartialEq)]
pub struct Digest {
    rows: u64,
    hash: u64,
    floats: Vec<f64>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
}

fn hash_row(row: &Row, floats: &mut Vec<f64>) -> u64 {
    let mut hash = FNV_OFFSET;
    for value in &row.values {
        match value {
            Value::Null => fnv(&mut hash, b"n"),
            Value::Boolean(b) => fnv(&mut hash, &[b'b', *b as u8]),
            Value::Float32(_) | Value::Float64(_) => {
                fnv(&mut hash, b"f");
                floats.push(value.as_f64().unwrap_or(f64::NAN));
            }
            Value::Utf8(s) => {
                fnv(&mut hash, b"s");
                fnv(&mut hash, s.as_bytes());
            }
            Value::Binary(b) => {
                fnv(&mut hash, b"x");
                fnv(&mut hash, b);
            }
            // Integer widths are a plan detail; the value is what counts.
            other => {
                fnv(&mut hash, b"i");
                fnv(&mut hash, &other.as_i64().unwrap_or(0).to_le_bytes());
            }
        }
        fnv(&mut hash, b"|");
    }
    hash
}

impl Digest {
    /// `ordered` results (ORDER BY) hash in sequence; others combine row
    /// hashes commutatively, which equals comparing the sorted rows.
    pub fn of(rows: &[Row], ordered: bool) -> Digest {
        let mut floats = Vec::new();
        let mut hash = FNV_OFFSET;
        for row in rows {
            let row_hash = hash_row(row, &mut floats);
            if ordered {
                fnv(&mut hash, &row_hash.to_le_bytes());
            } else {
                hash = hash.wrapping_add(row_hash);
            }
        }
        if !ordered {
            // Float order is meaningless without a row order.
            floats.sort_by(f64::total_cmp);
        }
        Digest {
            rows: rows.len() as u64,
            hash,
            floats,
        }
    }

    pub fn rows(&self) -> u64 {
        self.rows
    }

    pub fn matches(&self, other: &Digest) -> bool {
        self.rows == other.rows
            && self.hash == other.hash
            && self.floats.len() == other.floats.len()
            && self
                .floats
                .iter()
                .zip(&other.floats)
                .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0))
    }
}
