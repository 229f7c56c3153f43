//! Splitting a dataset into partitions for parallel execution.
//!
//! A [`Partitioner`] describes *how* rows are routed to partitions; the
//! split itself is a pure function of the data and the partitioner, so
//! the same input always produces the same partitions regardless of how
//! many workers later consume them. That property is what makes
//! partition-parallel kernels deterministic.
//!
//! Three strategies cover the engines' needs:
//!
//! - **hash**: route each row by a deterministic hash of one or more key
//!   columns. Co-partitions join inputs and disjointly partitions
//!   group-by keys. Rows whose key is entirely null go to partition 0
//!   (they still have to appear in e.g. left-join output).
//! - **range**: equal-width numeric ranges over a key column between the
//!   observed min and max. Nulls go to partition 0.
//! - **block**: contiguous row blocks, ignoring values entirely. Used
//!   for dense array/matrix row-band splitting and cross joins.
//!
//! Empty partitions are legal output: a skewed or tiny input may leave
//! some of the `parts` datasets empty, and downstream kernels must cope
//! (the regression tests in this module pin that down).

use std::hash::{Hash, Hasher};

use bda_storage::{Chunk, DataSet, RowsChunk, Value};

use crate::error::CoreError;
use crate::Result;

/// A deterministic routing of rows to `parts` partitions.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioner {
    /// Hash of the named key columns, modulo `parts`.
    Hash {
        /// Key column names (all must exist in the schema).
        keys: Vec<String>,
        /// Number of partitions (>= 1).
        parts: usize,
    },
    /// Equal-width numeric ranges over `key` between observed min/max.
    Range {
        /// Key column name (numeric).
        key: String,
        /// Number of partitions (>= 1).
        parts: usize,
    },
    /// Contiguous row blocks of near-equal size.
    Block {
        /// Number of partitions (>= 1).
        parts: usize,
    },
}

/// Deterministic hash of a slice of values. Uses `DefaultHasher` with
/// its fixed default keys, so the routing is stable across processes —
/// required for byte-identical results under different worker counts.
pub fn hash_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

impl Partitioner {
    /// Hash partitioner over one key column.
    pub fn hash(key: impl Into<String>, parts: usize) -> Partitioner {
        Partitioner::Hash {
            keys: vec![key.into()],
            parts,
        }
    }

    /// Hash partitioner over several key columns (join co-partitioning).
    pub fn hash_keys(keys: &[&str], parts: usize) -> Partitioner {
        Partitioner::Hash {
            keys: keys.iter().map(|k| k.to_string()).collect(),
            parts,
        }
    }

    /// Range partitioner over one numeric key column.
    pub fn range(key: impl Into<String>, parts: usize) -> Partitioner {
        Partitioner::Range {
            key: key.into(),
            parts,
        }
    }

    /// Block partitioner: contiguous row bands.
    pub fn block(parts: usize) -> Partitioner {
        Partitioner::Block { parts }
    }

    /// The number of partitions this partitioner produces.
    pub fn parts(&self) -> usize {
        match self {
            Partitioner::Hash { parts, .. }
            | Partitioner::Range { parts, .. }
            | Partitioner::Block { parts } => *parts,
        }
    }

    /// Split `ds` into exactly `parts` datasets (some possibly empty).
    ///
    /// The result depends only on the input data and the partitioner —
    /// never on worker counts or scheduling — and chunk layout does not
    /// affect routing either: concatenating a partition's chunks gives
    /// the same rows in the same order for any chunking of `ds`. Routing
    /// is chunk at a time: every input chunk contributes at most one
    /// chunk to each partition, gathered column-wise with one `take`. A
    /// single partition is `ds` itself, shared.
    pub fn split(&self, ds: &DataSet) -> Result<Vec<DataSet>> {
        let parts = self.parts();
        if parts == 0 {
            return Err(CoreError::Plan(
                "partitioner needs at least 1 partition".into(),
            ));
        }
        if parts == 1 {
            return Ok(vec![ds.clone()]);
        }
        let schema = ds.schema();
        match self {
            Partitioner::Hash { keys, .. } => {
                let idx: Vec<usize> = keys
                    .iter()
                    .map(|k| {
                        schema.index_of(k).map_err(|_| {
                            CoreError::Plan(format!("hash partitioner: unknown key column `{k}`"))
                        })
                    })
                    .collect::<Result<_>>()?;
                let mut key: Vec<Value> = Vec::with_capacity(idx.len());
                gather(ds, parts, |chunk, i, _| {
                    key.clear();
                    key.extend(idx.iter().map(|&j| chunk.column(j).get(i)));
                    if key.iter().all(Value::is_null) {
                        0
                    } else {
                        (hash_values(&key) % parts as u64) as usize
                    }
                })
            }
            Partitioner::Range { key, .. } => {
                let j = schema.index_of(key).map_err(|_| {
                    CoreError::Plan(format!("range partitioner: unknown key column `{key}`"))
                })?;
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for chunk in ds.chunks() {
                    let rows = chunk.rows_view(schema)?;
                    for v in rows.column(j).iter().filter_map(|v| v.as_float().ok()) {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
                let width = if hi > lo {
                    (hi - lo) / parts as f64
                } else {
                    0.0
                };
                gather(ds, parts, |chunk, i, _| {
                    match chunk.column(j).get(i).as_float() {
                        Ok(v) if width > 0.0 => (((v - lo) / width) as usize).min(parts - 1),
                        // All-equal keys (width 0) collapse into one
                        // partition; nulls and non-numerics go to 0.
                        _ => 0,
                    }
                })
            }
            Partitioner::Block { .. } => {
                // Near-equal contiguous blocks: the first `n % parts`
                // blocks get one extra row.
                let n = ds.num_rows();
                let (base, extra) = (n / parts, n % parts);
                let long = extra * (base + 1);
                gather(ds, parts, |_, _, row| {
                    if row < long {
                        row / (base + 1)
                    } else {
                        extra + (row - long) / base
                    }
                })
            }
        }
    }
}

/// Route every row of `ds` to a partition — `route(chunk, i, row)`
/// sees the row's chunk, its index there, and its position in the
/// whole dataset — and gather each partition's rows chunk by chunk,
/// keeping input order.
fn gather(
    ds: &DataSet,
    parts: usize,
    mut route: impl FnMut(&RowsChunk, usize, usize) -> usize,
) -> Result<Vec<DataSet>> {
    let mut out: Vec<Vec<Chunk>> = vec![Vec::new(); parts];
    let mut picks: Vec<Vec<usize>> = vec![Vec::new(); parts];
    let mut row = 0usize;
    for chunk in ds.chunks() {
        let chunk = chunk.rows_view(ds.schema())?;
        for i in 0..chunk.len() {
            picks[route(&chunk, i, row)].push(i);
            row += 1;
        }
        for (dst, rows) in out.iter_mut().zip(&mut picks) {
            if !rows.is_empty() {
                dst.push(Chunk::Rows(chunk.take(rows)));
                rows.clear();
            }
        }
    }
    Ok(out
        .into_iter()
        .map(|chunks| DataSet::new(ds.schema().clone(), chunks))
        .collect())
}

/// Concatenate partition outputs back into one dataset, moving each
/// partition's non-empty chunks over in partition order. The inverse of
/// a split for bag semantics (row order follows partition order).
///
/// Chunks move without copying only out of a partition that holds the
/// last handle on its chunk list. A partition still shared — such as the
/// lone partition of a one-way split, which is the input itself — is
/// cloned here.
pub fn merge_partitions(schema: bda_storage::Schema, parts: Vec<DataSet>) -> Result<DataSet> {
    let chunks = parts
        .into_iter()
        .flat_map(DataSet::into_chunks)
        .filter(|c| !c.is_empty())
        .collect();
    Ok(DataSet::new(schema, chunks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::{DataType, Field, Row, Schema};

    fn kv_schema() -> Schema {
        Schema::new(vec![
            Field::value("k", DataType::Int64),
            Field::value("v", DataType::Float64),
        ])
        .unwrap()
    }

    fn kv_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row(vec![
                    Value::Int((i % 5) as i64),
                    Value::Float(i as f64 * 0.5),
                ])
            })
            .collect()
    }

    fn dataset(rows: &[Row]) -> DataSet {
        DataSet::from_rows(kv_schema(), rows).unwrap()
    }

    fn total_rows(parts: &[DataSet]) -> usize {
        parts.iter().map(|p| p.num_rows()).sum()
    }

    #[test]
    fn hash_split_is_exhaustive_and_deterministic() {
        let ds = dataset(&kv_rows(57));
        let p = Partitioner::hash("k", 4);
        let a = p.split(&ds).unwrap();
        let b = p.split(&ds).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(total_rows(&a), 57);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.same_bag(y).unwrap());
        }
        // Same key always lands in the same bucket.
        for part in &a {
            let chunk = part.to_rows_chunk().unwrap();
            for i in 0..chunk.len() {
                let row = chunk.row(i);
                let expect = (hash_values([row.get(0)]) % 4) as usize;
                let actual = a.iter().position(|q| std::ptr::eq(q, part)).unwrap();
                assert_eq!(actual, expect);
            }
        }
    }

    #[test]
    fn empty_input_yields_all_empty_partitions() {
        let ds = dataset(&[]);
        for p in [
            Partitioner::hash("k", 3),
            Partitioner::range("v", 3),
            Partitioner::block(3),
        ] {
            let parts = p.split(&ds).unwrap();
            assert_eq!(parts.len(), 3);
            assert_eq!(total_rows(&parts), 0);
        }
    }

    #[test]
    fn singleton_input_leaves_empty_partitions() {
        let ds = dataset(&kv_rows(1));
        let parts = Partitioner::hash("k", 7).split(&ds).unwrap();
        assert_eq!(parts.len(), 7);
        assert_eq!(total_rows(&parts), 1);
        assert_eq!(parts.iter().filter(|p| p.num_rows() == 0).count(), 6);
    }

    #[test]
    fn all_equal_keys_skew_into_one_partition() {
        let rows: Vec<Row> = (0..20)
            .map(|i| Row(vec![Value::Int(42), Value::Float(i as f64)]))
            .collect();
        let ds = dataset(&rows);
        let parts = Partitioner::hash("k", 4).split(&ds).unwrap();
        assert_eq!(total_rows(&parts), 20);
        assert_eq!(
            parts.iter().filter(|p| p.num_rows() == 20).count(),
            1,
            "all-equal keys must all land in exactly one partition"
        );
        // Range split over all-equal numeric keys likewise collapses.
        let parts = Partitioner::range("k", 4).split(&ds).unwrap();
        assert_eq!(parts[0].num_rows(), 20);
    }

    #[test]
    fn null_keys_go_to_partition_zero() {
        let rows = vec![
            Row(vec![Value::Null, Value::Float(1.0)]),
            Row(vec![Value::Int(1), Value::Float(2.0)]),
            Row(vec![Value::Null, Value::Float(3.0)]),
        ];
        let parts = Partitioner::hash("k", 3).split(&dataset(&rows)).unwrap();
        assert_eq!(total_rows(&parts), 3);
        let p0 = parts[0].to_rows_chunk().unwrap();
        let nulls_in_p0 = (0..p0.len())
            .filter(|&i| p0.row(i).get(0).is_null())
            .count();
        assert_eq!(nulls_in_p0, 2);
    }

    #[test]
    fn block_split_preserves_order_and_balances() {
        let ds = dataset(&kv_rows(10));
        let parts = Partitioner::block(3).split(&ds).unwrap();
        let sizes: Vec<usize> = parts.iter().map(|p| p.num_rows()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let merged = merge_partitions(kv_schema(), parts).unwrap();
        let chunk = merged.to_rows_chunk().unwrap();
        let rows: Vec<Row> = (0..chunk.len()).map(|i| chunk.row(i)).collect();
        assert_eq!(rows, kv_rows(10));
    }

    #[test]
    fn range_split_orders_rows_by_key() {
        let ds = dataset(&kv_rows(40));
        let parts = Partitioner::range("v", 4).split(&ds).unwrap();
        assert_eq!(total_rows(&parts), 40);
        // Every value in partition i is <= every value in partition i+1.
        let max_of = |p: &DataSet| -> f64 {
            let c = p.to_rows_chunk().unwrap();
            (0..c.len())
                .map(|i| c.row(i).get(1).as_float().unwrap())
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let min_of = |p: &DataSet| -> f64 {
            let c = p.to_rows_chunk().unwrap();
            (0..c.len())
                .map(|i| c.row(i).get(1).as_float().unwrap())
                .fold(f64::INFINITY, f64::min)
        };
        for w in parts.windows(2) {
            if w[0].num_rows() > 0 && w[1].num_rows() > 0 {
                assert!(max_of(&w[0]) <= min_of(&w[1]));
            }
        }
    }

    #[test]
    fn multi_chunk_input_routes_identically_to_single_chunk() {
        let rows = kv_rows(30);
        let single = dataset(&rows);
        let mut multi = DataSet::empty(kv_schema());
        for half in rows.chunks(11) {
            let mut c = RowsChunk::empty(&kv_schema());
            for r in half {
                c.push_row(r).unwrap();
            }
            multi.push_chunk(Chunk::Rows(c));
        }
        let p = Partitioner::hash("k", 4);
        let a = p.split(&single).unwrap();
        let b = p.split(&multi).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!(x.same_bag(y).unwrap());
        }
    }

    /// Rows with null keys, a dense chunk with an absent cell, an empty
    /// chunk, then more rows — over a bounded dimension `i`.
    fn mixed_layout() -> DataSet {
        use bda_storage::chunk::rows_chunk_of;
        use bda_storage::{Bitmap, Column, DenseChunk, DimBox};
        let schema = Schema::new(vec![
            Field::dimension_bounded("i", 0, 100),
            Field::value("k", DataType::Int64),
            Field::value("v", DataType::Float64),
        ])
        .unwrap();
        let rows = |from: i64, keys: &[Option<i64>]| {
            let rows: Vec<Vec<Value>> = keys
                .iter()
                .enumerate()
                .map(|(j, k)| {
                    let i = from + j as i64;
                    vec![
                        Value::Int(i),
                        k.map_or(Value::Null, Value::Int),
                        Value::Float(i as f64 / 4.0),
                    ]
                })
                .collect();
            Chunk::Rows(rows_chunk_of(&schema, &rows).unwrap())
        };
        let dense = DenseChunk::new(
            DimBox::new(vec![10], vec![15]).unwrap(),
            vec![
                Column::from_values(
                    DataType::Int64,
                    &[
                        Value::Int(3),
                        Value::Null,
                        Value::Int(1),
                        Value::Int(2),
                        Value::Int(9),
                    ],
                )
                .unwrap(),
                Column::from(vec![0.5f64, 1.5, -2.0, 7.0, 3.25]),
            ],
            Some(Bitmap::from_bools(&[true, true, false, true, true])),
        )
        .unwrap();
        let mut ds = DataSet::empty(schema.clone());
        ds.push_chunk(rows(0, &[Some(1), None, Some(2), None, Some(1), Some(4)]));
        ds.push_chunk(Chunk::Dense(dense));
        ds.push_chunk(Chunk::Rows(RowsChunk::empty(&schema)));
        ds.push_chunk(rows(
            20,
            &[Some(2), Some(5), None, Some(1), Some(3), Some(3), Some(0)],
        ));
        ds
    }

    #[test]
    fn multi_chunk_split_equals_split_of_the_concatenation_row_for_row() {
        let multi = mixed_layout();
        let single = multi.normalized_rows().unwrap();
        for p in [
            Partitioner::hash("k", 3),
            Partitioner::hash_keys(&["k", "v"], 4),
            Partitioner::range("v", 3),
            Partitioner::block(4),
            Partitioner::hash("k", 1),
        ] {
            let a = p.split(&multi).unwrap();
            let b = p.split(&single).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.rows().unwrap(), y.rows().unwrap(), "{p:?}");
            }
            let merged = merge_partitions(multi.schema().clone(), a).unwrap();
            let merged_single = merge_partitions(multi.schema().clone(), b).unwrap();
            assert_eq!(
                merged.rows().unwrap(),
                merged_single.rows().unwrap(),
                "{p:?}"
            );
            assert_eq!(merged.num_rows(), multi.num_rows());
        }
    }

    #[test]
    fn zero_parts_is_an_error_and_unknown_key_is_an_error() {
        let ds = dataset(&kv_rows(3));
        assert!(Partitioner::hash("k", 0).split(&ds).is_err());
        assert!(Partitioner::hash("nope", 2).split(&ds).is_err());
        assert!(Partitioner::range("nope", 2).split(&ds).is_err());
    }

    #[test]
    fn multi_key_hash_co_partitions() {
        let ds = dataset(&kv_rows(25));
        let parts = Partitioner::hash_keys(&["k", "v"], 5).split(&ds).unwrap();
        assert_eq!(total_rows(&parts), 25);
        // Identical (k, v) pairs land together: re-split a partition and
        // its rows stay put.
        for (i, part) in parts.iter().enumerate() {
            let again = Partitioner::hash_keys(&["k", "v"], 5).split(part).unwrap();
            assert_eq!(again[i].num_rows(), part.num_rows());
        }
    }
}
