//! Control iteration (the paper's graph-analytics extension): PageRank
//! executed natively inside the graph server, compared against the same
//! intent lowered to relational algebra with a server-side `Iterate`.
//!
//! ```text
//! cargo run --example graph_pagerank
//! ```

use std::sync::Arc;

use bda::core::{Plan, Provider};
use bda::federation::{Federation, Registry};
use bda::graph::GraphEngine;
use bda::lang::Query;
use bda::relational::RelationalEngine;
use bda::workloads::{random_graph, GraphSpec};

fn main() {
    let (_, edges) = random_graph(GraphSpec {
        vertices: 200,
        edges: 1_000,
        seed: 42,
    });

    // The graph server holds the edges natively; the relational server
    // keeps a copy so we can run the lowered form too.
    let graph = GraphEngine::new("graphstore");
    graph.store("edges", edges.clone()).expect("store");
    let rel = RelationalEngine::new("relstore");
    rel.store("edges", edges).expect("store");

    let mut fed = Federation::new();
    fed.register(Arc::new(graph));
    fed.register(Arc::new(rel));

    // Build the intent with the fluent API.
    let q = Query::scan("edges", fed.registry().schema_of("edges").expect("schema"))
        .page_rank(0.85, 100, 1e-10);

    // Native: the federation routes the intent to the graph engine and
    // the whole loop runs server-side.
    let (native, m_native) = fed.run(q.plan()).expect("native pagerank");
    println!(
        "native (graph engine): {} vertices ranked",
        native.num_rows()
    );
    println!("  {m_native}\n");

    // Lowered: restrict the federation to the relational server only;
    // the planner lowers PageRank to join/aggregate under Iterate.
    let mut rel_only = Registry::new();
    for p in fed.registry().providers() {
        if p.name() == "relstore" {
            rel_only.register(p.clone());
        }
    }
    let (lowered, m_lowered) = bda::federation::run_plan(
        &rel_only,
        q.plan(),
        &bda::federation::ExecOptions::default(),
        &bda::obs::Tracer::disabled(),
        None,
    )
    .expect("lowered pagerank");
    println!("lowered (relational engine, server-side loop):");
    println!("  {m_lowered}\n");

    // Same ranks either way (modulo float summation order).
    let a = native.sorted_rows().expect("rows");
    let b = lowered.sorted_rows().expect("rows");
    let max_diff = a
        .iter()
        .zip(&b)
        .map(|(x, y)| (x.get(1).as_float().unwrap() - y.get(1).as_float().unwrap()).abs())
        .fold(0.0f64, f64::max);
    println!("max rank difference native vs lowered: {max_diff:.2e}");
    assert!(max_diff < 1e-6, "the two executions must agree");

    // Top five vertices by rank, via the algebra itself.
    let top = Plan::scan("edges", fed.registry().schema_of("edges").expect("schema"));
    let top = Query::from_plan(top)
        .page_rank(0.85, 100, 1e-10)
        .order_by_desc("rank")
        .take(5);
    let (top5, _) = fed.run(top.plan()).expect("top-5 query");
    println!("\ntop five vertices by rank:\n{}", top5.show(5));
}
