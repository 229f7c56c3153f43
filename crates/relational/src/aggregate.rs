//! Hash aggregation with vectorized argument evaluation.

use std::collections::HashMap;

use bda_core::agg::{Accumulator, AggExpr};
use bda_core::eval::{eval_chunk, infer_expr};
use bda_core::CoreError;
use bda_storage::{Chunk, Column, DataSet, Row, RowsChunk, Schema, Value};

use crate::exec::Result;

/// Grouped aggregation, folded chunk at a time into one group table:
/// aggregate arguments are evaluated column-at-a-time per chunk, and
/// each row's key is assembled in a reused buffer that is cloned only
/// when it opens a new group. Groups are emitted in first-appearance
/// order.
pub fn aggregate_exec(
    input: &DataSet,
    group_by: &[String],
    aggs: &[AggExpr],
    out_schema: Schema,
) -> Result<DataSet> {
    let in_schema = input.schema();
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|g| in_schema.index_of(g))
        .collect::<std::result::Result<_, bda_storage::StorageError>>()?;
    let arg_types = aggs
        .iter()
        .map(|a| match &a.arg {
            Some(e) => infer_expr(e, in_schema),
            None => Ok(None),
        })
        .collect::<Result<Vec<_>>>()?;
    let new_accs = || -> Vec<Accumulator> {
        aggs.iter()
            .zip(&arg_types)
            .map(|(a, t)| Accumulator::new(a.func, *t))
            .collect()
    };

    // Groups (key and accumulators) in first-appearance order, and the
    // key -> group lookup.
    let mut groups: Vec<(Row, Vec<Accumulator>)> = Vec::new();
    let mut lookup: HashMap<Row, usize> = HashMap::new();
    let mut key = Row(Vec::with_capacity(key_idx.len()));
    for chunk in input.chunks() {
        let chunk = chunk.rows_view(in_schema)?;
        let arg_cols = aggs
            .iter()
            .map(|a| {
                a.arg
                    .as_ref()
                    .map(|e| eval_chunk(e, in_schema, &chunk))
                    .transpose()
            })
            .collect::<Result<Vec<Option<Column>>>>()?;
        for i in 0..chunk.len() {
            key.0.clear();
            key.0
                .extend(key_idx.iter().map(|&k| chunk.column(k).get(i)));
            let g = match lookup.get(&key) {
                Some(&g) => g,
                None => {
                    lookup.insert(key.clone(), groups.len());
                    groups.push((key.clone(), new_accs()));
                    groups.len() - 1
                }
            };
            for (acc, arg) in groups[g].1.iter_mut().zip(&arg_cols) {
                let v = match arg {
                    Some(c) => c.get(i),
                    None => Value::Bool(true), // count(*) marker
                };
                acc.update(&v)?;
            }
        }
    }
    if group_by.is_empty() && groups.is_empty() {
        groups.push((Row::new(), new_accs()));
    }

    // Emit columns directly in output order.
    let mut cols: Vec<Column> = out_schema
        .fields()
        .iter()
        .map(|f| Column::new_empty(f.dtype))
        .collect();
    for (key, accs) in &groups {
        for (ci, v) in key.0.iter().enumerate() {
            cols[ci].push(v).map_err(CoreError::from)?;
        }
        for (ai, acc) in accs.iter().enumerate() {
            let ci = group_by.len() + ai;
            let v = widen(acc.finish(), out_schema.field_at(ci).dtype);
            cols[ci].push(&v).map_err(CoreError::from)?;
        }
    }
    let chunk = RowsChunk::new(cols).map_err(CoreError::from)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Rows(chunk)]))
}

fn widen(v: Value, to: bda_storage::DataType) -> Value {
    match (&v, to) {
        (Value::Int(x), bda_storage::DataType::Float64) => Value::Float(*x as f64),
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::infer_schema;
    use bda_core::{col, AggExpr, AggFunc, Plan};

    fn input() -> DataSet {
        DataSet::from_columns(vec![
            ("g", Column::from(vec!["a", "b", "a", "a"])),
            ("x", Column::from(vec![1i64, 2, 3, 4])),
        ])
        .unwrap()
    }

    fn run(group_by: &[&str], aggs: Vec<AggExpr>) -> DataSet {
        let ds = input();
        let plan = Plan::scan("t", ds.schema().clone()).aggregate(group_by.to_vec(), aggs.clone());
        let schema = infer_schema(&plan).unwrap();
        aggregate_exec(
            &ds,
            &group_by.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &aggs,
            schema,
        )
        .unwrap()
    }

    #[test]
    fn grouped_sums() {
        let out = run(&["g"], vec![AggExpr::new(AggFunc::Sum, col("x"), "s")]);
        let rows = out.sorted_rows().unwrap();
        assert_eq!(rows[0], Row(vec![Value::from("a"), Value::Int(8)]));
        assert_eq!(rows[1], Row(vec![Value::from("b"), Value::Int(2)]));
    }

    #[test]
    fn expression_arguments() {
        let out = run(
            &[],
            vec![AggExpr::new(AggFunc::Max, col("x").mul(col("x")), "maxsq")],
        );
        assert_eq!(out.rows().unwrap(), vec![Row(vec![Value::Int(16)])]);
    }

    #[test]
    fn avg_widens_to_float() {
        let out = run(&["g"], vec![AggExpr::new(AggFunc::Avg, col("x"), "a")]);
        let rows = out.sorted_rows().unwrap();
        assert_eq!(rows[0].get(1), &Value::Float(8.0 / 3.0));
    }

    #[test]
    fn multi_chunk_input_aggregates_like_its_concatenation() {
        use bda_storage::chunk::rows_chunk_of;
        use bda_storage::{Bitmap, DataType, DenseChunk, DimBox, Field};
        let schema = Schema::new(vec![
            Field::dimension_bounded("i", 0, 100),
            Field::value("g", DataType::Utf8),
            Field::value("x", DataType::Int64),
        ])
        .unwrap();
        let rows = |from: i64, cells: &[(Option<&str>, Option<i64>)]| {
            let rows: Vec<Vec<Value>> = cells
                .iter()
                .enumerate()
                .map(|(j, (g, x))| {
                    vec![
                        Value::Int(from + j as i64),
                        g.map_or(Value::Null, Value::from),
                        x.map_or(Value::Null, Value::Int),
                    ]
                })
                .collect();
            Chunk::Rows(rows_chunk_of(&schema, &rows).unwrap())
        };
        let dense = DenseChunk::new(
            DimBox::new(vec![10], vec![14]).unwrap(),
            vec![
                Column::from_values(
                    DataType::Utf8,
                    &[
                        Value::from("b"),
                        Value::Null,
                        Value::from("c"),
                        Value::from("a"),
                    ],
                )
                .unwrap(),
                Column::from(vec![5i64, 6, 7, 8]),
            ],
            Some(Bitmap::from_bools(&[true, true, false, true])),
        )
        .unwrap();
        let mut multi = DataSet::empty(schema.clone());
        multi.push_chunk(rows(
            0,
            &[(Some("a"), Some(1)), (None, Some(2)), (Some("b"), None)],
        ));
        multi.push_chunk(Chunk::Dense(dense));
        multi.push_chunk(Chunk::Rows(RowsChunk::empty(&schema)));
        multi.push_chunk(rows(
            20,
            &[(Some("c"), Some(3)), (Some("a"), Some(4)), (None, None)],
        ));
        let single = multi.normalized_rows().unwrap();
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, col("x"), "s"),
            AggExpr::new(AggFunc::Min, col("i"), "lo"),
            AggExpr::count_star("n"),
        ];
        for group_by in [vec!["g"], vec!["g", "x"], vec![]] {
            let plan = Plan::scan("t", schema.clone()).aggregate(group_by.clone(), aggs.clone());
            let out_schema = infer_schema(&plan).unwrap();
            let keys: Vec<String> = group_by.iter().map(|s| s.to_string()).collect();
            let a = aggregate_exec(&multi, &keys, &aggs, out_schema.clone()).unwrap();
            let b = aggregate_exec(&single, &keys, &aggs, out_schema).unwrap();
            assert_eq!(
                a.rows().unwrap(),
                b.rows().unwrap(),
                "group by {group_by:?}"
            );
        }
    }

    #[test]
    fn null_group_keys_form_a_group() {
        let ds = DataSet::from_rows(
            input().schema().clone(),
            &[
                Row(vec![Value::Null, Value::Int(1)]),
                Row(vec![Value::Null, Value::Int(2)]),
                Row(vec![Value::from("a"), Value::Int(3)]),
            ],
        )
        .unwrap();
        let plan = Plan::scan("t", ds.schema().clone())
            .aggregate(vec!["g"], vec![AggExpr::count_star("n")]);
        let schema = infer_schema(&plan).unwrap();
        let out =
            aggregate_exec(&ds, &["g".to_string()], &[AggExpr::count_star("n")], schema).unwrap();
        let rows = out.sorted_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], Row(vec![Value::Null, Value::Int(2)]));
    }
}
