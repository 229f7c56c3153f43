//! Control-iteration scenarios: convergence behaviour, server-side vs
//! client-driven loops, and agreement between native, lowered and
//! app-driven PageRank/components at modest scale.

use std::sync::Arc;

use bda::core::{col, lit, GraphOp, OpKind, Plan, Provider};
use bda::federation::{run_plan, ExecOptions, Federation, MaskedProvider, Registry};
use bda::graph::GraphEngine;
use bda::lang::Query;
use bda::obs::Tracer;
use bda::relational::RelationalEngine;
use bda::storage::{DataType, Field, Row, Schema, Value};
use bda::workloads::{random_graph, GraphSpec};

fn graph_setup(vertices: usize) -> (Federation, Plan) {
    let (_, edges) = random_graph(GraphSpec {
        vertices,
        edges: vertices * 4,
        seed: 5,
    });
    let graph = GraphEngine::new("graph");
    graph.store("edges", edges.clone()).unwrap();
    let rel = RelationalEngine::new("rel");
    rel.store("edges", edges).unwrap();
    let mut fed = Federation::new();
    fed.register(Arc::new(graph));
    fed.register(Arc::new(rel));
    let plan = Plan::Graph(GraphOp::PageRank {
        edges: Plan::scan("edges", fed.registry().schema_of("edges").unwrap()).boxed(),
        damping: 0.85,
        max_iters: 80,
        epsilon: 1e-10,
    });
    (fed, plan)
}

fn max_rank_diff(a: &bda::storage::DataSet, b: &bda::storage::DataSet) -> f64 {
    let x = a.sorted_rows().unwrap();
    let y = b.sorted_rows().unwrap();
    assert_eq!(x.len(), y.len());
    x.iter()
        .zip(&y)
        .map(|(rx, ry)| {
            assert_eq!(rx.get(0), ry.get(0), "vertex sets differ");
            (rx.get(1).as_float().unwrap() - ry.get(1).as_float().unwrap()).abs()
        })
        .fold(0.0, f64::max)
}

#[test]
fn pagerank_native_lowered_and_client_driven_agree() {
    let (fed, plan) = graph_setup(80);
    let opts = ExecOptions::default();

    // Native on the graph engine.
    let (native, m_native) = fed.run(&plan).unwrap();
    assert_eq!(m_native.client_driven_iterations, 0);
    assert_eq!(m_native.fragments, 1);

    // Lowered, loop on the relational server.
    let mut rel_only = Registry::new();
    rel_only.register(fed.registry().provider("rel").unwrap());
    let (lowered, m_lowered) =
        run_plan(&rel_only, &plan, &opts, &Tracer::disabled(), None).unwrap();
    assert_eq!(m_lowered.client_driven_iterations, 0);

    // Client-driven: relational engine with Iterate masked off.
    let mut client = Registry::new();
    client.register(Arc::new(MaskedProvider::new(
        fed.registry().provider("rel").unwrap(),
        vec![OpKind::Iterate],
    )));
    let (driven, m_driven) = run_plan(&client, &plan, &opts, &Tracer::disabled(), None).unwrap();
    assert!(m_driven.client_driven_iterations > 0);
    // Client-driven pays in messages and shipped plan bytes.
    assert!(m_driven.messages > m_lowered.messages * 5);
    assert!(m_driven.plan_bytes > m_lowered.plan_bytes * 5);

    assert!(max_rank_diff(&native, &lowered) < 1e-8);
    assert!(max_rank_diff(&native, &driven) < 1e-8);
    // Ranks form a probability distribution (generator avoids dangling).
    let total: f64 = native
        .rows()
        .unwrap()
        .iter()
        .map(|r| r.get(1).as_float().unwrap())
        .sum();
    assert!((total - 1.0).abs() < 1e-8, "{total}");
}

#[test]
fn connected_components_converge_identically() {
    let (_, edges) = random_graph(GraphSpec {
        vertices: 50,
        edges: 80,
        seed: 9,
    });
    let graph = GraphEngine::new("graph");
    graph.store("edges", edges.clone()).unwrap();
    let rel = RelationalEngine::new("rel");
    rel.store("edges", edges).unwrap();
    let plan = Plan::Graph(GraphOp::ConnectedComponents {
        edges: Plan::scan("edges", graph.schema_of("edges").unwrap()).boxed(),
        max_iters: 60,
    });
    let native = graph.execute(&plan).unwrap();
    let lowered = rel
        .execute(&bda::core::lower::lower_all(&plan).unwrap())
        .unwrap();
    assert!(native.same_bag(&lowered).unwrap());
    // Component labels are component minima: every label <= its vertex.
    for r in native.rows().unwrap() {
        assert!(r.get(1).as_int().unwrap() <= r.get(0).as_int().unwrap());
    }
}

#[test]
fn generic_iterate_converges_with_epsilon() {
    // Exponential decay toward zero under an epsilon stop.
    let rel = RelationalEngine::new("rel");
    let schema = Schema::new(vec![
        Field::value("id", DataType::Int64),
        Field::value("x", DataType::Float64),
    ])
    .unwrap();
    let init = bda::storage::DataSet::from_rows(
        schema.clone(),
        &[
            Row(vec![Value::Int(0), Value::Float(100.0)]),
            Row(vec![Value::Int(1), Value::Float(-50.0)]),
        ],
    )
    .unwrap();
    rel.store("state0", init).unwrap();
    let mut fed = Federation::new();
    fed.register(Arc::new(rel));

    let q = Query::scan("state0", schema)
        .iterate(1_000, Some(1e-9), |state| {
            state.select(vec![("id", col("id")), ("x", col("x").mul(lit(0.5)))])
        })
        .unwrap();
    let (out, metrics) = fed.run(q.plan()).unwrap();
    assert_eq!(metrics.client_driven_iterations, 0, "server-side loop");
    for r in out.rows().unwrap() {
        assert!(r.get(1).as_float().unwrap().abs() < 1e-7);
    }
}

#[test]
fn bounded_iteration_stops_at_the_bound() {
    let rel = RelationalEngine::new("rel");
    let schema = Schema::new(vec![Field::value("x", DataType::Int64)]).unwrap();
    rel.store(
        "s",
        bda::storage::DataSet::from_rows(schema.clone(), &[Row(vec![Value::Int(0)])]).unwrap(),
    )
    .unwrap();
    let mut fed = Federation::new();
    fed.register(Arc::new(rel));
    // x := x + 1 never converges; 7 iterations exactly.
    let q = Query::scan("s", schema)
        .iterate(7, None, |state| {
            state.select(vec![("x", col("x").add(lit(1i64)))])
        })
        .unwrap();
    let (out, _) = fed.run(q.plan()).unwrap();
    assert_eq!(out.rows().unwrap()[0], Row(vec![Value::Int(7)]));
}

#[test]
fn iterate_over_changing_cardinality() {
    // Frontier-style iteration: each step keeps even halves; the state
    // shrinks until it stabilizes at {0}.
    let rel = RelationalEngine::new("rel");
    let schema = Schema::new(vec![Field::value("x", DataType::Int64)]).unwrap();
    let rows: Vec<Row> = (0..32).map(|i| Row(vec![Value::Int(i)])).collect();
    rel.store(
        "s",
        bda::storage::DataSet::from_rows(schema.clone(), &rows).unwrap(),
    )
    .unwrap();
    let mut fed = Federation::new();
    fed.register(Arc::new(rel));
    let q = Query::scan("s", schema)
        .iterate(100, None, |state| {
            state
                .where_(col("x").modulo(lit(2i64)).eq(lit(0i64)))
                .select(vec![("x", col("x").div(lit(2i64)))])
                .distinct()
        })
        .unwrap();
    let (out, _) = fed.run(q.plan()).unwrap();
    // Fixpoint: {0} (0 is even, 0/2 = 0).
    assert_eq!(out.sorted_rows().unwrap(), vec![Row(vec![Value::Int(0)])]);
}
