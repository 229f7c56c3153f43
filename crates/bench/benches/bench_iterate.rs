//! F4 bench: PageRank with the loop on the server vs driven by the app.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bda_bench::setup::{masked_registry, standard_federation, subset_registry, FederationSpec};
use bda_core::{GraphOp, OpKind, Plan};
use bda_federation::{run_plan, ExecOptions, Registry};
use bda_obs::Tracer;
use bda_workloads::GraphSpec;

fn pagerank_plan(reg: &Registry) -> Plan {
    let edges_schema = reg.schema_of("edges").unwrap();
    Plan::Graph(GraphOp::PageRank {
        edges: Plan::scan("edges", edges_schema).boxed(),
        damping: 0.85,
        max_iters: 30,
        epsilon: 1e-8,
    })
}

fn bench_iterate(c: &mut Criterion) {
    let mut group = c.benchmark_group("f4_control_iteration");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for v in [50usize, 200] {
        let spec = FederationSpec {
            graph: GraphSpec {
                vertices: v,
                edges: v * 4,
                seed: 42,
            },
            ..FederationSpec::tiny()
        };
        let fed = standard_federation(spec);
        let opts = ExecOptions::default();

        let plan = pagerank_plan(fed.registry());
        group.bench_with_input(BenchmarkId::new("native_graph_engine", v), &v, |b, _| {
            b.iter(|| fed.run(&plan).unwrap())
        });

        let rel_only = subset_registry(&fed, &["rel"]);
        group.bench_with_input(
            BenchmarkId::new("lowered_server_side_loop", v),
            &v,
            |b, _| b.iter(|| run_plan(&rel_only, &plan, &opts, &Tracer::disabled(), None).unwrap()),
        );

        let masked = masked_registry(&fed, "rel", vec![OpKind::Iterate]);
        let client: Registry = {
            let mut out = Registry::new();
            for p in masked.providers() {
                if p.name() == "rel" {
                    out.register(p.clone());
                }
            }
            out
        };
        group.bench_with_input(BenchmarkId::new("client_driven_loop", v), &v, |b, _| {
            b.iter(|| run_plan(&client, &plan, &opts, &Tracer::disabled(), None).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_iterate);
criterion_main!(benches);
