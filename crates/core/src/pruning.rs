//! Predicate analysis for statistics-driven pruning.
//!
//! [`analyze`] decomposes a `Select` predicate into per-conjunct
//! [`Test`]s that zone maps can answer — and refuses (returns `None`)
//! whenever *any* conjunct falls outside the recognized, provably
//! error-free forms. That refusal is a correctness requirement, not a
//! convenience: evaluating a predicate can raise a type error, and a
//! pruning layer that skips rows also skips the error the engine would
//! have raised on them. Restricting pruning to conjuncts the schema
//! proves total (comparisons between compatible types, null tests,
//! boolean literals) keeps the stats-on and stats-off paths
//! observationally identical — the property the differential suite in
//! `tests/property_pruning.rs` enforces.
//!
//! Soundness of the comparisons rests on one fact: the expression
//! engine ([`crate::eval`]) compares with [`Value::total_cmp`], the
//! same total order zone maps are built with. A zone's min/max
//! therefore bound exactly what execution would see — NaN included (it
//! sorts last, so it lands in `max`).

use bda_storage::stats::{CmpOp, ZoneMap};
use bda_storage::{Schema, Value};

use crate::expr::{BinOp, Expr, UnOp};

/// One conjunct, reduced to a form zone maps can answer.
#[derive(Debug, Clone)]
pub enum Test {
    /// Trivially true (`true` literal): satisfiable everywhere.
    True,
    /// Trivially false (`false` literal): satisfiable nowhere.
    Never,
    /// `column OP literal` with a non-null literal of a type the
    /// column provably compares with.
    Cmp {
        /// The column name.
        column: String,
        /// The comparison, normalized to column-on-the-left.
        op: CmpOp,
        /// The literal.
        lit: Value,
    },
    /// `column IS NULL`.
    IsNull(String),
    /// `NOT (column IS NULL)`.
    NotNull(String),
}

impl Test {
    /// The column this test constrains, if any.
    pub fn column(&self) -> Option<&str> {
        match self {
            Test::True | Test::Never => None,
            Test::Cmp { column, .. } => Some(column),
            Test::IsNull(c) | Test::NotNull(c) => Some(c),
        }
    }

    /// Could any row of a zone satisfy this conjunct? `zone_of` maps a
    /// column name to its zone map; an unknown column is conservatively
    /// satisfiable.
    pub fn may_match<'a>(&self, zone_of: impl Fn(&str) -> Option<&'a ZoneMap>) -> bool {
        match self {
            Test::True => true,
            Test::Never => false,
            Test::Cmp { column, op, lit } => zone_of(column)
                .map(|z| z.may_match_cmp(*op, lit))
                .unwrap_or(true),
            Test::IsNull(c) => zone_of(c).map(ZoneMap::may_match_is_null).unwrap_or(true),
            Test::NotNull(c) => zone_of(c).map(ZoneMap::may_match_not_null).unwrap_or(true),
        }
    }
}

/// True when every test in the list stays satisfiable for the zone
/// maps `zone_of` describes — i.e. the chunk/table **cannot** be
/// skipped. A single disproved conjunct proves emptiness.
pub fn may_match_all<'a>(
    tests: &[Test],
    zone_of: impl Fn(&str) -> Option<&'a ZoneMap> + Copy,
) -> bool {
    tests.iter().all(|t| t.may_match(zone_of))
}

/// Decompose `pred` into per-conjunct tests, or `None` when any
/// conjunct is outside the recognized forms (the caller must bypass
/// pruning entirely — see the module docs for why partial recognition
/// would be unsound).
pub fn analyze(pred: &Expr, schema: &Schema) -> Option<Vec<Test>> {
    pred.conjuncts()
        .iter()
        .map(|c| analyze_conjunct(c, schema))
        .collect()
}

fn analyze_conjunct(e: &Expr, schema: &Schema) -> Option<Test> {
    match e {
        Expr::Literal(Value::Bool(true)) => Some(Test::True),
        Expr::Literal(Value::Bool(false)) => Some(Test::Never),
        Expr::Unary {
            op: UnOp::IsNull,
            input,
        } => Some(Test::IsNull(known_column(input, schema)?)),
        Expr::Unary {
            op: UnOp::Not,
            input,
        } => match &**input {
            Expr::Unary {
                op: UnOp::IsNull,
                input,
            } => Some(Test::NotNull(known_column(input, schema)?)),
            _ => None,
        },
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let cmp = cmp_of(*op)?;
            match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(v)) => comparison(c, cmp, v, schema),
                (Expr::Literal(v), Expr::Column(c)) => comparison(c, cmp.flipped(), v, schema),
                _ => None,
            }
        }
        _ => None,
    }
}

/// The column's name, if `e` is a reference to a column the schema has.
fn known_column(e: &Expr, schema: &Schema) -> Option<String> {
    match e {
        Expr::Column(name) if schema.index_of(name).is_ok() => Some(name.clone()),
        _ => None,
    }
}

fn cmp_of(op: BinOp) -> Option<CmpOp> {
    match op {
        BinOp::Eq => Some(CmpOp::Eq),
        BinOp::Ne => Some(CmpOp::Ne),
        BinOp::Lt => Some(CmpOp::Lt),
        BinOp::Le => Some(CmpOp::Le),
        BinOp::Gt => Some(CmpOp::Gt),
        BinOp::Ge => Some(CmpOp::Ge),
        _ => None,
    }
}

fn comparison(column: &str, op: CmpOp, lit: &Value, schema: &Schema) -> Option<Test> {
    if lit.is_null() {
        // `col OP null` is three-valued null everywhere — but the
        // columnar kernels are the authority on its shape, so leave it
        // to them rather than claim Never here.
        return None;
    }
    let idx = schema.index_of(column).ok()?;
    let col_dt = schema.field_at(idx).dtype;
    let lit_dt = lit.dtype()?;
    // Mirror eval::compare's compatibility rule: equal types, or both
    // numeric. Anything else would *error* at evaluation time, and
    // pruning must never suppress an error.
    let compatible = col_dt == lit_dt || (col_dt.is_numeric() && lit_dt.is_numeric());
    if !compatible {
        return None;
    }
    Some(Test::Cmp {
        column: column.to_string(),
        op,
        lit: lit.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, null};
    use bda_storage::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::value("k", DataType::Int64),
            Field::value("v", DataType::Float64),
            Field::value("s", DataType::Utf8),
        ])
        .unwrap()
    }

    #[test]
    fn recognizes_comparisons_and_null_tests() {
        let s = schema();
        let pred = col("k")
            .gt(lit(1i64))
            .and(lit(2.5f64).le(col("v")))
            .and(col("s").is_null())
            .and(col("k").is_null().not());
        let tests = analyze(&pred, &s).unwrap();
        assert_eq!(tests.len(), 4);
        assert!(matches!(
            &tests[0],
            Test::Cmp { column, op: CmpOp::Gt, .. } if column == "k"
        ));
        // `2.5 <= v` normalizes to `v >= 2.5`.
        assert!(matches!(
            &tests[1],
            Test::Cmp { column, op: CmpOp::Ge, .. } if column == "v"
        ));
        assert!(matches!(&tests[2], Test::IsNull(c) if c == "s"));
        assert!(matches!(&tests[3], Test::NotNull(c) if c == "k"));
    }

    #[test]
    fn refuses_unrecognized_or_unsafe_conjuncts() {
        let s = schema();
        // String column vs int literal would error at eval — refused.
        assert!(analyze(&col("s").gt(lit(1i64)), &s).is_none());
        // Unknown column — refused.
        assert!(analyze(&col("zz").gt(lit(1i64)), &s).is_none());
        // Arithmetic on the column — refused (not a plain comparison).
        assert!(analyze(&col("k").add(lit(1i64)).gt(lit(2i64)), &s).is_none());
        // Null literal comparison — refused.
        assert!(analyze(&col("k").gt(null()), &s).is_none());
        // OR is one opaque conjunct — refused.
        assert!(analyze(&col("k").gt(lit(1i64)).or(col("k").lt(lit(0i64))), &s).is_none());
        // One bad conjunct poisons the whole predicate.
        assert!(analyze(&col("k").gt(lit(1i64)).and(col("s").gt(lit(1i64))), &s).is_none());
    }

    #[test]
    fn cross_numeric_comparison_is_safe() {
        let s = schema();
        assert!(analyze(&col("k").lt(lit(2.5f64)), &s).is_some());
        assert!(analyze(&col("v").ge(lit(3i64)), &s).is_some());
        assert!(analyze(&col("s").eq(lit("x")), &s).is_some());
    }

    #[test]
    fn boolean_literals_fold_to_true_and_never() {
        let s = schema();
        let tests = analyze(&lit(true).and(lit(false)), &s).unwrap();
        assert!(matches!(tests[0], Test::True));
        assert!(matches!(tests[1], Test::Never));
        assert!(!may_match_all(&tests, |_| None));
    }

    #[test]
    fn may_match_all_consults_zones() {
        use bda_storage::Column;
        let s = schema();
        let zone = bda_storage::stats::ZoneMap::of(&Column::from(vec![5i64, 9]));
        let zone_of = |name: &str| (name == "k").then_some(&zone);
        let sat = analyze(&col("k").ge(lit(7i64)), &s).unwrap();
        assert!(may_match_all(&sat, zone_of));
        let unsat = analyze(&col("k").gt(lit(9i64)), &s).unwrap();
        assert!(!may_match_all(&unsat, zone_of));
        // Unknown-column stats stay satisfiable.
        let other = analyze(&col("v").gt(lit(1e9f64)), &s).unwrap();
        assert!(may_match_all(&other, zone_of));
    }
}
