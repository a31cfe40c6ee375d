//! The hash join's two kernels: build a table over one input, probe it with
//! the batches of the other.
//!
//! The build side stays columnar: its batches are concatenated once, its
//! distinct non-NULL keys go into a [`KeyTable`], and each key heads a
//! chain of build row positions. A probe hashes a batch's key columns in
//! one pass, collects `(probe row, build row)` pairs, and materialises both
//! sides of the output with [`Column::gather`] — no `Row`, no `Vec` per row,
//! and a dictionary's strings are shared, not copied. Which side is built,
//! and whether the inputs were shuffled first, is `physical`'s choice.
//!
//! [`Column::gather`]: crate::columnar::Column::gather

use crate::columnar::{ColumnarBatch, Partition, NULL_ROW};
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::key_table::{hash_rows, key_columns, KeyTable};
use crate::value::DataType;
use std::sync::Arc;

/// One input of a join, ready to be probed.
pub(crate) struct JoinTable {
    /// Every row of the build side, in partition then batch order.
    build: ColumnarBatch,
    /// The distinct keys among them; rows with a NULL in their key match
    /// nothing and are in no chain.
    keys: KeyTable,
    /// Per key, its first build row.
    head: Vec<u32>,
    /// Per build row, the next row with the same key; [`NULL_ROW`] ends a
    /// chain. Chains ascend, so matches come out in build order.
    next: Vec<u32>,
}

/// How one probe stage reads its batches and lays out what it emits.
pub(crate) struct Probe {
    pub keys: Vec<BoundExpr>,
    /// The build side's columns come first in the output.
    pub build_is_left: bool,
    /// A probe row without a match is emitted with NULLs for the build
    /// side (the preserved side of a left join).
    pub emit_unmatched: bool,
    pub batch_size: usize,
}

impl JoinTable {
    /// Over the rows of `parts`, keyed by `keys`; `dtypes` are the build
    /// side's column types, for an input without batches.
    pub(crate) fn build(
        parts: Vec<Partition>,
        keys: &[BoundExpr],
        dtypes: &[DataType],
    ) -> Result<JoinTable> {
        let batches: Vec<ColumnarBatch> = parts.into_iter().flatten().collect();
        let build = if batches.is_empty() {
            ColumnarBatch::from_rows(dtypes, &[])
        } else {
            ColumnarBatch::concat(&batches)
        };
        let key_cols = key_columns(keys, &build)?;
        let n = build.num_rows();
        let mut hashes = Vec::new();
        hash_rows(&key_cols, n, &mut hashes);
        let mut table = JoinTable {
            build,
            keys: KeyTable::new(key_cols.iter().map(|c| c.data_type())),
            head: Vec::new(),
            next: vec![NULL_ROW; n],
        };
        // Last row first, each pushed on the front of its chain.
        for row in (0..n).rev() {
            if key_cols.iter().any(|c| c.is_null(row)) {
                continue;
            }
            let (key, new) = table.keys.find_or_insert(hashes[row], &key_cols, row);
            if new {
                table.head.push(NULL_ROW);
            }
            table.next[row] = std::mem::replace(&mut table.head[key], row as u32);
        }
        Ok(table)
    }

    /// Join one partition's batches against the table. Output batches hold
    /// `batch_size` rows, whatever the sizes of the probe batches, but the
    /// last.
    pub(crate) fn probe(&self, batches: Partition, probe: &Probe) -> Result<Partition> {
        let mut out = Output {
            table: self,
            probe,
            pending: Vec::new(),
            pending_rows: 0,
            done: Vec::new(),
        };
        let (mut hashes, mut probe_rows, mut build_rows) = (Vec::new(), Vec::new(), Vec::new());
        for batch in &batches {
            let key_cols = key_columns(&probe.keys, batch)?;
            hash_rows(&key_cols, batch.num_rows(), &mut hashes);
            let nullable = key_cols.iter().any(|c| c.null_count() > 0);
            probe_rows.clear();
            build_rows.clear();
            for (i, &hash) in hashes.iter().enumerate() {
                let key = if nullable && key_cols.iter().any(|c| c.is_null(i)) {
                    None
                } else {
                    self.keys.find(hash, &key_cols, i)
                };
                match key {
                    Some(key) => {
                        let mut row = self.head[key];
                        while row != NULL_ROW {
                            probe_rows.push(i as u32);
                            build_rows.push(row);
                            row = self.next[row as usize];
                        }
                    }
                    None if probe.emit_unmatched => {
                        probe_rows.push(i as u32);
                        build_rows.push(NULL_ROW);
                    }
                    None => {}
                }
            }
            out.push(batch, &probe_rows, &build_rows);
        }
        out.flush();
        Ok(out.done)
    }
}

/// The joined rows of one probe, cut into batches.
struct Output<'a> {
    table: &'a JoinTable,
    probe: &'a Probe,
    /// Gathered pieces of the batch being filled, `pending_rows` together.
    pending: Vec<ColumnarBatch>,
    pending_rows: usize,
    done: Partition,
}

impl Output<'_> {
    /// Emit the pairs `(probe_rows[k], build_rows[k])`, probe rows from
    /// `batch`.
    fn push(&mut self, batch: &ColumnarBatch, probe_rows: &[u32], build_rows: &[u32]) {
        let mut at = 0;
        while at < probe_rows.len() {
            let room = self.probe.batch_size - self.pending_rows;
            let end = probe_rows.len().min(at + room);
            let probe_side = batch.gather(&probe_rows[at..end]);
            let build = &self.table.build;
            let build_side: Vec<_> = if self.probe.emit_unmatched {
                let cols = build.columns().iter();
                cols.map(|c| Arc::new(c.gather_or_null(&build_rows[at..end])))
                    .collect()
            } else {
                build.gather(&build_rows[at..end]).columns().to_vec()
            };
            let probe_side = probe_side.columns().iter().cloned();
            let columns = if self.probe.build_is_left {
                build_side.into_iter().chain(probe_side).collect()
            } else {
                probe_side.chain(build_side).collect()
            };
            self.pending
                .push(ColumnarBatch::with_row_count(columns, end - at));
            self.pending_rows += end - at;
            at = end;
            if self.pending_rows == self.probe.batch_size {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        if self.pending_rows > 0 {
            self.done.push(ColumnarBatch::concat(&self.pending));
            self.pending.clear();
            self.pending_rows = 0;
        }
    }
}
