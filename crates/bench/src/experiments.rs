//! The experiment implementations (see DESIGN.md's experiment index).

use std::time::Instant;

use bda_core::lower::lower_all;
use bda_core::{col, lit, AggExpr, AggFunc, GraphOp, OpKind, Plan, Provider};
use bda_federation::{
    translatability, ExecOptions, Federation, NetConfig, OptimizerConfig, Registry, TransferMode,
    Translation,
};
use bda_lang::parse_query;
use bda_relational::RelationalEngine;
use bda_storage::Schema;
use bda_workloads::{random_matrix, star_schema, GraphSpec, StarSpec};

use crate::setup::{masked_registry, standard_federation, subset_registry, FederationSpec};
use crate::table::{fmt_secs, Table};

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

fn schema_source(reg: &Registry) -> impl Fn(&str) -> Option<Schema> + '_ {
    move |name: &str| reg.schema_of(name).ok()
}

// ---------------------------------------------------------------------------
// T1 / T2 — coverage & translatability
// ---------------------------------------------------------------------------

/// T1: the operator × provider coverage matrix (desideratum 1).
pub fn t1_coverage(fed: &Federation) -> Table {
    let reg = fed.registry();
    let providers: Vec<String> = reg
        .providers()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let mut headers = vec!["operator", "class"];
    let provider_headers: Vec<String> = providers.clone();
    for p in &provider_headers {
        headers.push(p);
    }
    headers.push("translation");
    let mut t = Table::new("T1 — operator coverage matrix", headers);
    for (op, translation) in translatability(reg) {
        let mut row = vec![
            op.name().to_string(),
            if op.is_intent() { "intent" } else { "base" }.to_string(),
        ];
        for p in reg.providers() {
            row.push(if p.capabilities().supports(op) {
                "native".to_string()
            } else {
                "-".to_string()
            });
        }
        row.push(match translation {
            Translation::Native(_) => "native".to_string(),
            Translation::ViaLowering(ops) => format!(
                "lowered -> {}",
                ops.iter().map(|k| k.name()).collect::<Vec<_>>().join("+")
            ),
            Translation::No => "UNTRANSLATABLE".to_string(),
        });
        t.row(row);
    }
    t
}

/// T2: the translatability summary — desideratum 2 demands zero
/// untranslatable operators.
pub fn t2_translatability(fed: &Federation) -> Table {
    let classified = translatability(fed.registry());
    let native = classified
        .iter()
        .filter(|(_, t)| matches!(t, Translation::Native(_)))
        .count();
    let lowered = classified
        .iter()
        .filter(|(_, t)| matches!(t, Translation::ViaLowering(_)))
        .count();
    let untranslatable: Vec<&str> = classified
        .iter()
        .filter(|(_, t)| matches!(t, Translation::No))
        .map(|(op, _)| op.name())
        .collect();
    let mut t = Table::new(
        "T2 — translatability (desideratum 2)",
        vec!["metric", "value"],
    );
    t.row(vec!["operators total".into(), classified.len().to_string()]);
    t.row(vec!["native somewhere".into(), native.to_string()]);
    t.row(vec!["reachable via lowering".into(), lowered.to_string()]);
    t.row(vec![
        "untranslatable".into(),
        if untranslatable.is_empty() {
            "0 (desideratum met)".to_string()
        } else {
            format!("{} ({})", untranslatable.len(), untranslatable.join(", "))
        },
    ]);
    t
}

// ---------------------------------------------------------------------------
// T3 — portability: same program text, swapped back ends
// ---------------------------------------------------------------------------

/// T3: one BDL program runs unchanged against different provider stacks
/// and returns identical results (the paper's portability goal).
pub fn t3_portability(spec: FederationSpec) -> Table {
    const PROGRAM: &str = "scan sales \
        | join (scan customers) on customer_id = customer_id \
        | where amount > 100.0 \
        | groupby region: sum(amount) as total, count(*) as n \
        | orderby region";

    // Stack A: the standard federation (relational engine holds the data).
    let fed_a = standard_federation(spec);
    // Stack B: the same data loaded into the all-capable reference
    // provider instead — the "swapped back end".
    let mut fed_b = Federation::new();
    let refp = bda_core::ReferenceProvider::new("ref");
    let (sales, customers, products, stores) = star_schema(spec.star);
    refp.store("sales", sales).unwrap();
    refp.store("customers", customers).unwrap();
    refp.store("products", products).unwrap();
    refp.store("stores", stores).unwrap();
    fed_b.register(std::sync::Arc::new(refp));
    // Stack C: a second relational engine instance under a different name.
    let mut fed_c = Federation::new();
    let rel2 = RelationalEngine::new("other_rel");
    let (sales, customers, products, stores) = star_schema(spec.star);
    rel2.store("sales", sales).unwrap();
    rel2.store("customers", customers).unwrap();
    rel2.store("products", products).unwrap();
    rel2.store("stores", stores).unwrap();
    fed_c.register(std::sync::Arc::new(rel2));

    let mut t = Table::new(
        "T3 — portability: identical program, swapped back ends",
        vec![
            "stack",
            "provider",
            "rows",
            "wall time",
            "result equal to A",
        ],
    );
    let mut first: Option<bda_storage::DataSet> = None;
    for (label, fed) in [("A", &fed_a), ("B", &fed_b), ("C", &fed_c)] {
        let plan = parse_query(PROGRAM, &schema_source(fed.registry()))
            .expect("program parses on every stack");
        let ((out, metrics), secs) = time(|| fed.run(&plan).expect("runs"));
        let provider = fed.registry().providers()[0].name().to_string();
        let equal = match &first {
            None => {
                first = Some(out.clone());
                "(baseline)".to_string()
            }
            Some(base) => base.same_bag(&out).unwrap().to_string(),
        };
        let _ = metrics;
        t.row(vec![
            label.to_string(),
            provider,
            out.num_rows().to_string(),
            fmt_secs(secs),
            equal,
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// T4 — dimension-awareness of the fused model
// ---------------------------------------------------------------------------

/// T4: the same question asked array-style (dimension-aware operators)
/// and table-style (untag + relational operators) returns the same bag;
/// the planner routes each to a different engine.
pub fn t4_dimension_awareness(spec: FederationSpec) -> Table {
    let fed = standard_federation(spec);
    let reg = fed.registry();
    let sensors_schema = reg.schema_of("sensors").unwrap();
    let ticks = sensors_schema.field("t").unwrap().extent().unwrap().1;
    let half = ticks / 2;

    // Array formulation: dice on the time dimension, reduce over t.
    let array_form = Plan::Dice {
        input: Plan::scan("sensors", sensors_schema.clone()).boxed(),
        ranges: vec![("t".into(), 0, half)],
    }
    .aggregate(
        vec!["sensor"],
        vec![AggExpr::new(AggFunc::Avg, col("reading"), "mean")],
    );
    // Table formulation: untag, filter, group.
    let table_form = Plan::UntagDims {
        input: Plan::scan("sensors", sensors_schema).boxed(),
    }
    .select(col("t").ge(lit(0i64)).and(col("t").lt(lit(half))))
    .aggregate(
        vec!["sensor"],
        vec![AggExpr::new(AggFunc::Avg, col("reading"), "mean")],
    );

    let mut t = Table::new(
        "T4 — fused model: array vs table formulation",
        vec!["formulation", "site", "rows", "wall time", "same result"],
    );
    let ((a_out, _), a_secs) = time(|| fed.run(&array_form).unwrap());
    let ((b_out, _), b_secs) = time(|| fed.run(&table_form).unwrap());
    // Array output keeps `sensor` dimension-tagged; the table form does
    // not. The *data* must agree; compare after untagging.
    let a_flat = bda_storage::DataSet::new(a_out.schema().untagged(), a_out.chunks().to_vec())
        .normalized_rows()
        .unwrap();
    let b_flat = b_out.normalized_rows().unwrap();
    let placement_a = bda_federation::Planner::new(reg)
        .place(&array_form)
        .unwrap();
    let placement_b = bda_federation::Planner::new(reg)
        .place(&table_form)
        .unwrap();
    let equal = a_flat.same_bag(&b_flat).unwrap();
    t.row(vec![
        "array (dice + dim-reduce)".into(),
        placement_a.root().site.clone(),
        a_out.num_rows().to_string(),
        fmt_secs(a_secs),
        equal.to_string(),
    ]);
    t.row(vec![
        "table (untag + where + groupby)".into(),
        placement_b.root().site.clone(),
        b_out.num_rows().to_string(),
        fmt_secs(b_secs),
        equal.to_string(),
    ]);
    t
}

// ---------------------------------------------------------------------------
// F1 — intent preservation (desideratum 3)
// ---------------------------------------------------------------------------

/// F1: n×n matmul under three plan shapes. The *same* logical job is
/// orders of magnitude cheaper when its intent survives to the
/// linear-algebra provider.
pub fn f1_intent(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "F1 — intent preservation: matmul plan shapes (desideratum 3)",
        vec![
            "n",
            "native intent (la)",
            "lowered+recognized (la)",
            "lowered, no recognition (rel)",
            "speedup native vs lowered",
        ],
    );
    for &n in sizes {
        let la = bda_linalg::LinAlgEngine::new("la");
        la.store("a", random_matrix(n, n, 7)).unwrap();
        la.store("b", random_matrix(n, n, 8)).unwrap();
        let rel = RelationalEngine::new("rel");
        rel.store("a", random_matrix(n, n, 7).normalized_rows().unwrap())
            .unwrap();
        rel.store("b", random_matrix(n, n, 8).normalized_rows().unwrap())
            .unwrap();
        let mut fed = Federation::new();
        // Registration order makes `la` hold the dense copies and `rel`
        // the row copies; both catalogs expose `a`/`b`.
        fed.register(std::sync::Arc::new(la));
        fed.register(std::sync::Arc::new(rel));
        let reg = fed.registry();
        let schema_a = reg.provider("la").unwrap().schema_of("a").unwrap();
        let schema_b = reg.provider("la").unwrap().schema_of("b").unwrap();
        let intent = Plan::scan("a", schema_a).matmul(Plan::scan("b", schema_b));
        let lowered = lower_all(&intent).unwrap();

        // Native: intent plan, standard options.
        let ((out_native, m_native), s_native) = time(|| fed.run(&intent).expect("native matmul"));
        assert_eq!(m_native.fragments, 1);
        // Lowered but recognized: optimizer restores the MatMul node.
        let ((out_rec, _), s_rec) = time(|| fed.run(&lowered).expect("recognized matmul"));
        // Lowered, recognition off: runs as join+aggregate.
        let opts = ExecOptions {
            optimizer: OptimizerConfig {
                recognize_intents: false,
                ..OptimizerConfig::default()
            },
            ..ExecOptions::default()
        };
        let ((out_low, _), s_low) = time(|| fed.run_with(&lowered, &opts).expect("lowered matmul"));

        // All three must agree (dense result vs sparse: same bag after
        // both exist — random matrices make zero cells measure-zero).
        assert!(out_native.same_bag_approx(&out_rec), "native vs recognized");
        assert!(out_native.same_bag_approx(&out_low), "native vs lowered");

        t.row(vec![
            n.to_string(),
            fmt_secs(s_native),
            fmt_secs(s_rec),
            fmt_secs(s_low),
            format!("{:.1}x", s_low / s_native.max(1e-9)),
        ]);
    }
    t
}

/// Approximate bag equality for float-valued matmul results.
trait ApproxBag {
    fn same_bag_approx(&self, other: &Self) -> bool;
}

impl ApproxBag for bda_storage::DataSet {
    fn same_bag_approx(&self, other: &Self) -> bool {
        let a = self.sorted_rows().unwrap();
        let b = other.sorted_rows().unwrap();
        if a.len() != b.len() {
            return false;
        }
        a.iter().zip(&b).all(|(x, y)| {
            x.0.iter().zip(&y.0).all(|(vx, vy)| match (vx, vy) {
                (bda_storage::Value::Float(fx), bda_storage::Value::Float(fy)) => {
                    (fx - fy).abs() <= 1e-6 * (1.0 + fx.abs())
                }
                _ => vx == vy,
            })
        })
    }
}

// ---------------------------------------------------------------------------
// F2 — server interoperation (desideratum 4)
// ---------------------------------------------------------------------------

/// F2: a two-server plan (rows on `rel`, matmul on `la`), direct vs
/// app-routed intermediate transfer, swept over matrix size.
pub fn f2_interop(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "F2 — server interoperation: direct vs app-routed (desideratum 4)",
        vec![
            "n",
            "intermediate bytes",
            "app-tier bytes (direct)",
            "app-tier bytes (routed)",
            "sim net time (direct)",
            "sim net time (routed)",
        ],
    );
    for &n in sizes {
        let rel = RelationalEngine::new("rel");
        rel.store("a_rows", random_matrix(n, n, 7).normalized_rows().unwrap())
            .unwrap();
        let la = bda_linalg::LinAlgEngine::new("la");
        la.store("b", random_matrix(n, n, 8)).unwrap();
        let mut fed = Federation::new();
        fed.register(std::sync::Arc::new(rel));
        fed.register(std::sync::Arc::new(la));
        let reg = fed.registry();
        let plan = Plan::scan("a_rows", reg.schema_of("a_rows").unwrap()).matmul(Plan::scan(
            "b",
            reg.provider("la").unwrap().schema_of("b").unwrap(),
        ));
        let (_, m_direct) = fed.run(&plan).unwrap();
        let opts = ExecOptions {
            transfer: TransferMode::AppRouted,
            ..ExecOptions::default()
        };
        let (_, m_routed) = fed.run_with(&plan, &opts).unwrap();
        // The final result transfer is excluded from "intermediate".
        let inter_bytes: usize = m_direct
            .transfers
            .iter()
            .filter(|tr| tr.to != "app")
            .map(|tr| tr.bytes)
            .sum();
        t.row(vec![
            n.to_string(),
            inter_bytes.to_string(),
            m_direct.app_tier_bytes().to_string(),
            m_routed.app_tier_bytes().to_string(),
            fmt_secs(m_direct.sim_network_s),
            fmt_secs(m_routed.sim_network_s),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// F3 — expression shipping vs per-operator calls
// ---------------------------------------------------------------------------

/// F3: a k-operator pipeline shipped as one tree vs k RPCs, swept over k
/// and per-message latency.
pub fn f3_shipping(ks: &[usize], latencies_s: &[f64]) -> Table {
    let mut t = Table::new(
        "F3 — expression-tree shipping vs per-operator calls",
        vec![
            "pipeline ops k",
            "latency",
            "round trips (tree)",
            "round trips (per-op)",
            "sim time (tree)",
            "sim time (per-op)",
        ],
    );
    let rel = RelationalEngine::new("rel");
    let (sales, ..) = star_schema(StarSpec {
        sales: 2_000,
        ..StarSpec::default()
    });
    rel.store("sales", sales.clone()).unwrap();
    let schema = sales.schema().clone();
    for &latency in latencies_s {
        let rel = RelationalEngine::new("rel");
        rel.store("sales", sales.clone()).unwrap();
        let cluster = bda_federation::Cluster::spawn(
            vec![std::sync::Arc::new(rel)],
            NetConfig {
                latency_s: latency,
                ..NetConfig::default()
            },
        )
        .expect("spawn cluster");
        for &k in ks {
            let mut plan = Plan::scan("sales", schema.clone());
            for i in 0..k.saturating_sub(1) {
                plan = plan.select(col("amount").gt(lit(-(i as f64))));
            }
            let (tree_out, tree_stats) = cluster.ship_tree("rel", &plan).unwrap();
            let (op_out, op_stats) = cluster.per_operator("rel", &plan).unwrap();
            assert!(tree_out.same_bag(&op_out).unwrap());
            t.row(vec![
                k.to_string(),
                fmt_secs(latency),
                tree_stats.round_trips.to_string(),
                op_stats.round_trips.to_string(),
                fmt_secs(tree_stats.sim_seconds),
                fmt_secs(op_stats.sim_seconds),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// F4 — control iteration: server-side vs client-driven
// ---------------------------------------------------------------------------

/// F4: PageRank three ways — native on the graph engine, lowered but
/// server-side on the relational engine, and client-driven (Iterate
/// masked off), swept over graph size.
pub fn f4_iteration(vertex_counts: &[usize]) -> Table {
    let mut t = Table::new(
        "F4 — control iteration: where does the loop run?",
        vec![
            "|V|",
            "mode",
            "client iterations",
            "messages",
            "plan bytes",
            "sim net time",
            "wall time",
        ],
    );
    for &v in vertex_counts {
        let spec = FederationSpec {
            graph: GraphSpec {
                vertices: v,
                edges: v * 4,
                seed: 42,
            },
            ..FederationSpec::tiny()
        };
        let fed = standard_federation(spec);
        let edges_schema = fed.registry().schema_of("edges").unwrap();
        let pagerank = Plan::Graph(GraphOp::PageRank {
            edges: Plan::scan("edges", edges_schema).boxed(),
            damping: 0.85,
            max_iters: 50,
            epsilon: 1e-8,
        });

        // Mode 1: native — the graph engine runs the loop inside.
        let ((out_native, m1), s1) = time(|| fed.run(&pagerank).unwrap());
        // Mode 2: relational only — pre-lowered, loop still server-side.
        let rel_only = subset_registry(&fed, &["rel"]);
        let opts = ExecOptions::default();
        let untraced = bda_obs::Tracer::disabled();
        let ((out_rel, m2), s2) = time(|| {
            bda_federation::run_plan(&rel_only, &pagerank, &opts, &untraced, None).unwrap()
        });
        // Mode 3: relational without Iterate — the app drives the loop,
        // shipping the rank vector every iteration.
        let masked_fed = standard_federation(spec);
        let client = masked_registry(&masked_fed, "rel", vec![OpKind::Iterate]);
        let client = subset_only(client, "rel");
        let ((out_client, m3), s3) =
            time(|| bda_federation::run_plan(&client, &pagerank, &opts, &untraced, None).unwrap());

        assert!(out_native.same_bag_approx(&out_rel), "native vs lowered");
        assert!(out_native.same_bag_approx(&out_client), "native vs client");

        for (mode, m, s) in [
            ("native (graph engine)", &m1, s1),
            ("lowered, server-side loop (rel)", &m2, s2),
            ("client-driven loop", &m3, s3),
        ] {
            t.row(vec![
                v.to_string(),
                mode.to_string(),
                m.client_driven_iterations.to_string(),
                m.messages.to_string(),
                m.plan_bytes.to_string(),
                fmt_secs(m.sim_network_s),
                fmt_secs(s),
            ]);
        }
    }
    t
}

/// Keep only the provider named `name` in a registry.
fn subset_only(reg: Registry, name: &str) -> Registry {
    let mut out = Registry::new();
    for p in reg.providers() {
        if p.name() == name {
            out.register(p.clone());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// F5 — optimizer ablation: pushdown and data movement
// ---------------------------------------------------------------------------

/// F5: a selective cross-server join with the optimizer on/off, swept
/// over the filter's selectivity. Pushdown shrinks the shipped fragment.
pub fn f5_pushdown(selectivities: &[f64]) -> Table {
    let mut t = Table::new(
        "F5 — optimizer ablation: pushdown vs shipped bytes",
        vec![
            "selectivity",
            "shipped bytes (optimized)",
            "shipped bytes (naive)",
            "reduction",
            "wall (optimized)",
            "wall (naive)",
        ],
    );
    let spec = StarSpec {
        sales: 20_000,
        customers: 4_000,
        ..StarSpec::default()
    };
    let (sales, customers, ..) = star_schema(spec);
    for &sel in selectivities {
        let rel1 = RelationalEngine::new("rel1");
        rel1.store("sales", sales.clone()).unwrap();
        let rel2 = RelationalEngine::new("rel2");
        rel2.store("customers", customers.clone()).unwrap();
        let mut fed = Federation::new();
        fed.register(std::sync::Arc::new(rel1));
        fed.register(std::sync::Arc::new(rel2));
        let reg = fed.registry();
        // Predicate keeping ~`sel` of customers (ids are uniform).
        let cutoff = (spec.customers as f64 * sel) as i64;
        let plan = Plan::scan("sales", reg.schema_of("sales").unwrap())
            .join(
                Plan::scan("customers", reg.schema_of("customers").unwrap()),
                vec![("customer_id", "customer_id")],
            )
            .select(col("customer_id_r").lt(lit(cutoff)))
            .aggregate(
                vec!["region"],
                vec![AggExpr::new(AggFunc::Sum, col("amount"), "total")],
            );
        let ((out_opt, m_opt), s_opt) = time(|| fed.run(&plan).unwrap());
        let naive = ExecOptions {
            optimizer: OptimizerConfig::disabled(),
            ..ExecOptions::default()
        };
        let ((out_naive, m_naive), s_naive) = time(|| fed.run_with(&plan, &naive).unwrap());
        assert!(out_opt.same_bag(&out_naive).unwrap());
        let shipped = |m: &bda_federation::Metrics| -> usize {
            m.transfers
                .iter()
                .filter(|tr| tr.to != "app")
                .map(|tr| tr.bytes)
                .sum()
        };
        let (b_opt, b_naive) = (shipped(&m_opt), shipped(&m_naive));
        t.row(vec![
            format!("{sel:.2}"),
            b_opt.to_string(),
            b_naive.to_string(),
            format!("{:.1}x", b_naive as f64 / b_opt.max(1) as f64),
            fmt_secs(s_opt),
            fmt_secs(s_naive),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// F6 — fault recovery (robustness extension)
// ---------------------------------------------------------------------------

/// F6: the chaos run. A cross-server matmul+join executes while the
/// planner's first-choice linalg server is crashed outright (recovery
/// must fail over to a replica) and the relational server fails
/// transiently at p = 0.3 (recovery must retry). The answer is checked
/// against the reference evaluator; the same faults with recovery
/// disabled abort the plan. `seed` drives the fault stream.
pub fn f6_fault_recovery(sizes: &[usize], seed: u64) -> Table {
    use bda_core::reference::evaluate;
    use bda_federation::{FaultConfig, FaultyProvider, RecoveryPolicy};
    use bda_storage::{Column, DataSet};

    let mut t = Table::new(
        "F6 — fault recovery: retry + failover under injected faults (seeded)",
        vec![
            "n",
            "seed",
            "retries",
            "failovers",
            "degraded",
            "breaker trips",
            "correct",
            "no-recovery",
        ],
    );
    for &n in sizes {
        let lookup = DataSet::from_columns(vec![
            ("row", Column::from((0..n as i64).collect::<Vec<i64>>())),
            (
                "weight",
                Column::from((0..n).map(|i| 1.0 + i as f64).collect::<Vec<f64>>()),
            ),
        ])
        .unwrap();
        let build = |recover: bool| {
            let la1 = bda_linalg::LinAlgEngine::new("la1");
            la1.store("a", random_matrix(n, n, 1)).unwrap();
            la1.store("b", random_matrix(n, n, 2)).unwrap();
            let la2 = bda_linalg::LinAlgEngine::new("la2");
            la2.store("a", random_matrix(n, n, 1)).unwrap();
            la2.store("b", random_matrix(n, n, 2)).unwrap();
            let rel = RelationalEngine::new("rel");
            rel.store("lookup", lookup.clone()).unwrap();
            let mut fed = Federation::new();
            fed.register(std::sync::Arc::new(FaultyProvider::new(
                std::sync::Arc::new(la1),
                FaultConfig::crash_after(0),
            )));
            fed.register(std::sync::Arc::new(la2));
            fed.register(std::sync::Arc::new(FaultyProvider::new(
                std::sync::Arc::new(rel),
                FaultConfig {
                    seed,
                    execute_error_rate: 0.3,
                    store_error_rate: 0.3,
                    fail_first: 1,
                    ..FaultConfig::default()
                },
            )));
            fed.options_mut().recovery = if recover {
                RecoveryPolicy {
                    max_attempts: 6,
                    backoff: std::time::Duration::from_millis(1),
                    ..RecoveryPolicy::default()
                }
            } else {
                RecoveryPolicy::disabled()
            };
            fed
        };
        let fed = build(true);
        let reg = fed.registry();
        let plan = bda_lang::Query::scan("a", reg.schema_of("a").unwrap())
            .matmul(bda_lang::Query::scan("b", reg.schema_of("b").unwrap()))
            .untag_dims()
            .join(
                bda_lang::Query::scan("lookup", reg.schema_of("lookup").unwrap()),
                vec![("row", "row")],
            )
            .plan()
            .clone();
        let (out, m) = fed.run(&plan).expect("recovery completes the plan");
        let mut src = std::collections::HashMap::new();
        src.insert("a".to_string(), random_matrix(n, n, 1));
        src.insert("b".to_string(), random_matrix(n, n, 2));
        src.insert("lookup".to_string(), lookup.clone());
        let correct = out.same_bag(&evaluate(&plan, &src).unwrap()).unwrap();
        let bare = build(false);
        let no_recovery = match bare.run(&plan) {
            Ok(_) => "completes".to_string(),
            Err(_) => "fails".to_string(),
        };
        t.row(vec![
            n.to_string(),
            seed.to_string(),
            m.retries.to_string(),
            m.failovers.to_string(),
            m.degraded_transfers.to_string(),
            m.breaker_trips.to_string(),
            correct.to_string(),
            no_recovery,
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// F7 — observability overhead & trace completeness
// ---------------------------------------------------------------------------

/// The cross-engine join⋈matmul federation used by the observability
/// measurements: matmul on `la`, join on `rel`, no faults.
pub fn observed_federation(n: usize) -> (Federation, Plan) {
    use bda_storage::{Column, DataSet};
    let la = bda_linalg::LinAlgEngine::new("la");
    la.store("a", random_matrix(n, n, 1)).unwrap();
    la.store("b", random_matrix(n, n, 2)).unwrap();
    let rel = RelationalEngine::new("rel");
    rel.store(
        "lookup",
        DataSet::from_columns(vec![
            ("row", Column::from((0..n as i64).collect::<Vec<i64>>())),
            (
                "weight",
                Column::from((0..n).map(|i| 1.0 + i as f64).collect::<Vec<f64>>()),
            ),
        ])
        .unwrap(),
    )
    .unwrap();
    let mut fed = Federation::new();
    fed.register(std::sync::Arc::new(la));
    fed.register(std::sync::Arc::new(rel));
    let reg = fed.registry();
    let plan = bda_lang::Query::scan("a", reg.schema_of("a").unwrap())
        .matmul(bda_lang::Query::scan("b", reg.schema_of("b").unwrap()))
        .untag_dims()
        .join(
            bda_lang::Query::scan("lookup", reg.schema_of("lookup").unwrap()),
            vec![("row", "row")],
        )
        .plan()
        .clone();
    (fed, plan)
}

/// Median wall time of `reps` runs of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ts: Vec<f64> = (0..reps.max(1)).map(|_| time(&mut f).1).collect();
    ts.sort_by(f64::total_cmp);
    ts[ts.len() / 2]
}

/// F7: observability overhead & trace completeness. Each size runs the
/// cross-engine join⋈matmul plan three ways — the untraced entry point,
/// the traced entry point with a *disabled* tracer (the cost of the
/// hooks themselves, which must be near zero), and a live tracer — and
/// reports median wall times. The completeness column asserts that
/// every transfer counted in [`bda_federation::Metrics`] left a
/// matching `transfer:`/`reship:` span in the trace, with none dropped.
pub fn f7_observability(sizes: &[usize], reps: usize) -> Table {
    use bda_obs::Tracer;
    let mut t = Table::new(
        "F7 — observability: tracing overhead & trace completeness",
        vec![
            "n",
            "untraced",
            "hooks off",
            "hooks Δ",
            "traced",
            "traced Δ",
            "spans",
            "transfers",
            "complete",
        ],
    );
    let pct = |base: f64, x: f64| {
        if base > 0.0 {
            format!("{:+.1}%", (x - base) / base * 100.0)
        } else {
            "-".to_string()
        }
    };
    for &n in sizes {
        let (fed, plan) = observed_federation(n);
        let untraced = median_secs(reps, || {
            fed.run(&plan).unwrap();
        });
        let hooks_off = median_secs(reps, || {
            fed.run_traced(&plan, &Tracer::disabled()).unwrap();
        });
        let traced = median_secs(reps, || {
            fed.run_traced(&plan, &Tracer::new(7)).unwrap();
        });

        let tracer = Tracer::new(7);
        let (_, m) = fed.run_traced(&plan, &tracer).unwrap();
        let trace = tracer.finish();
        let moved = trace.spans_named("transfer:").len() + trace.spans_named("reship:").len();
        let complete = m.transfers.len() == moved && trace.dropped == 0;
        assert!(
            complete,
            "metrics recorded {} transfers but the trace holds {moved} \
             transfer/reship spans ({} dropped)",
            m.transfers.len(),
            trace.dropped
        );
        t.row(vec![
            n.to_string(),
            fmt_secs(untraced),
            fmt_secs(hooks_off),
            pct(untraced, hooks_off),
            fmt_secs(traced),
            pct(untraced, traced),
            trace.spans.len().to_string(),
            m.transfers.len().to_string(),
            complete.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// F8 — partition-parallel scaling
// ---------------------------------------------------------------------------

/// A provider wrapper that adds a fixed service delay to every
/// data-plane call, standing in for a remote engine whose requests cost
/// real round-trip time. Control-plane calls (catalog, capabilities)
/// stay free so planning is unaffected.
struct SlowProvider {
    inner: std::sync::Arc<dyn Provider>,
    delay: std::time::Duration,
}

impl Provider for SlowProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn capabilities(&self) -> bda_core::CapabilitySet {
        self.inner.capabilities()
    }
    fn catalog(&self) -> Vec<(String, Schema)> {
        self.inner.catalog()
    }
    fn execute(&self, plan: &Plan) -> bda_core::Result<bda_storage::DataSet> {
        std::thread::sleep(self.delay);
        self.inner.execute(plan)
    }
    fn store(&self, name: &str, data: bda_storage::DataSet) -> bda_core::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.store(name, data)
    }
    fn remove(&self, name: &str) {
        self.inner.remove(name)
    }
}

/// The F8 federation: four *independent* matmul branches, each pinned to
/// its own slow linalg site (`la1..la4` hold disjoint `a{i}`/`b{i}`
/// pairs), unioned and joined against a lookup on `rel`. Sequential
/// dispatch pays the four service delays back to back; the parallel
/// scheduler overlaps them.
fn f8_federation(n: usize, delay: std::time::Duration) -> (Federation, Plan) {
    use bda_storage::{Column, DataSet};
    let mut fed = Federation::new();
    for i in 1..=4usize {
        let la = bda_linalg::LinAlgEngine::new(format!("la{i}"));
        la.store(&format!("a{i}"), random_matrix(n, n, i as u64))
            .unwrap();
        la.store(&format!("b{i}"), random_matrix(n, n, 10 + i as u64))
            .unwrap();
        fed.register(std::sync::Arc::new(SlowProvider {
            inner: std::sync::Arc::new(la),
            delay,
        }));
    }
    let rel = RelationalEngine::new("rel");
    rel.store(
        "lookup",
        DataSet::from_columns(vec![
            ("row", Column::from((0..n as i64).collect::<Vec<i64>>())),
            (
                "weight",
                Column::from((0..n).map(|i| 1.0 + i as f64).collect::<Vec<f64>>()),
            ),
        ])
        .unwrap(),
    )
    .unwrap();
    fed.register(std::sync::Arc::new(rel));

    let reg = fed.registry();
    let branch = |i: usize| {
        let a = format!("a{i}");
        let b = format!("b{i}");
        Plan::UntagDims {
            input: Plan::scan(&a, reg.schema_of(&a).unwrap())
                .matmul(Plan::scan(&b, reg.schema_of(&b).unwrap()))
                .boxed(),
        }
    };
    let plan = branch(1)
        .union(branch(2))
        .union(branch(3))
        .union(branch(4))
        .join(
            Plan::scan("lookup", reg.schema_of("lookup").unwrap()),
            vec![("row", "row")],
        )
        .aggregate(
            vec![],
            vec![
                AggExpr::new(AggFunc::Sum, col("v"), "total"),
                AggExpr::count_star("cells"),
            ],
        );
    (fed, plan)
}

/// F8: partition-parallel scaling — the join+matmul workload's median
/// wall time versus `ExecOptions::workers`. The container CI runs on is
/// single-core, so the speedup measured here is fragment-dispatch
/// *overlap* of the four slow sites' service delays, not CPU scaling;
/// that overlap is exactly what the parallel scheduler exists to buy.
pub fn f8_scaling(worker_counts: &[usize], n: usize, reps: usize) -> Table {
    let delay = std::time::Duration::from_millis(15);
    let (fed, plan) = f8_federation(n, delay);
    let mut t = Table::new(
        "F8 — partition-parallel scaling: join+matmul vs worker count",
        vec!["workers", "median wall", "speedup vs 1", "rows"],
    );
    let expected = fed.run(&plan).expect("workload runs sequentially").0;
    let mut base = None::<f64>;
    for &workers in worker_counts {
        let opts = ExecOptions {
            workers,
            ..ExecOptions::default()
        };
        let (out, _) = fed.run_with(&plan, &opts).expect("workload runs");
        assert!(
            out.same_bag_approx(&expected),
            "workers={workers} changed the answer"
        );
        let median = median_secs(reps, || {
            fed.run_with(&plan, &opts).unwrap();
        });
        let base_s = *base.get_or_insert(median);
        t.row(vec![
            workers.to_string(),
            fmt_secs(median),
            format!("{:.1}x", base_s / median.max(1e-9)),
            out.num_rows().to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// tests (tiny sizes)
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_t2_cover_everything() {
        let fed = standard_federation(FederationSpec::tiny());
        let t1 = t1_coverage(&fed);
        assert_eq!(t1.len(), OpKind::ALL.len());
        assert!(!t1.to_string().contains("UNTRANSLATABLE"), "{t1}");
        let t2 = t2_translatability(&fed);
        assert!(t2.to_string().contains("desideratum met"), "{t2}");
    }

    #[test]
    fn t3_results_agree_across_stacks() {
        let t = t3_portability(FederationSpec::tiny());
        let s = t.to_string();
        assert!(!s.contains("false"), "{s}");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn t4_formulations_agree() {
        let t = t4_dimension_awareness(FederationSpec::tiny());
        let s = t.to_string();
        assert!(!s.contains("false"), "{s}");
        // Array form must land on the array engine, table form elsewhere.
        assert!(s.contains("arr"), "{s}");
    }

    #[test]
    fn f1_runs_and_native_wins() {
        let t = f1_intent(&[16]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn f2_direct_moves_nothing_through_app() {
        let t = f2_interop(&[8, 16]);
        for row in &t.rows {
            assert_eq!(row[2], "0", "direct app-tier bytes must be zero: {t}");
            let inter: usize = row[1].parse().unwrap();
            let routed: usize = row[3].parse().unwrap();
            assert_eq!(inter, routed, "routed sends all intermediates via app");
        }
    }

    #[test]
    fn f3_tree_always_one_round_trip() {
        let t = f3_shipping(&[1, 4], &[1e-3]);
        for row in &t.rows {
            assert_eq!(row[2], "1");
            // Per-op: one call per non-scan operator (k-1 filters) plus
            // the final fetch.
            let k: usize = row[0].parse().unwrap();
            let per_op: usize = row[3].parse().unwrap();
            assert_eq!(per_op, k);
        }
    }

    #[test]
    fn f4_modes_agree_and_client_pays() {
        let t = f4_iteration(&[30]);
        assert_eq!(t.len(), 3);
        let client_row = &t.rows[2];
        let iters: usize = client_row[2].parse().unwrap();
        assert!(iters > 0, "client mode must drive iterations: {t}");
        let native_row = &t.rows[0];
        assert_eq!(native_row[2], "0");
    }

    #[test]
    fn f5_pushdown_reduces_bytes() {
        let t = f5_pushdown(&[0.1]);
        let row = &t.rows[0];
        let opt: usize = row[1].parse().unwrap();
        let naive: usize = row[2].parse().unwrap();
        assert!(opt < naive, "pushdown must ship fewer bytes: {t}");
    }

    #[test]
    fn f6_recovers_verifies_and_contrasts() {
        let t = f6_fault_recovery(&[8], 0xBDA);
        let row = &t.rows[0];
        let retries: usize = row[2].parse().unwrap();
        let failovers: usize = row[3].parse().unwrap();
        assert!(retries > 0, "transients must force retries: {t}");
        assert!(failovers > 0, "the crash must force a failover: {t}");
        assert_eq!(row[6], "true", "recovered answer must verify: {t}");
        assert_eq!(row[7], "fails", "without recovery the plan aborts: {t}");
    }

    #[test]
    fn f8_four_workers_at_least_double_sequential() {
        // The acceptance bar: ≥ 2x at 4 workers over sequential dispatch
        // on the join+matmul workload. The 15 ms per-site service delay
        // dominates compute at this size, so the bar holds on any
        // machine, including a single-core CI container.
        let t = f8_scaling(&[1, 4], 16, 3);
        assert_eq!(t.len(), 2);
        let speedup: f64 = t.rows[1][2].trim_end_matches('x').parse().unwrap();
        assert!(
            speedup >= 2.0,
            "4 workers must at least halve the sequential wall time: {t}"
        );
        assert_eq!(t.rows[0][3], t.rows[1][3], "row counts must agree: {t}");
    }

    #[test]
    fn f7_trace_is_complete() {
        // The completeness assertion lives inside f7_observability; a
        // passing run at tiny size is the test.
        let t = f7_observability(&[8], 3);
        let row = &t.rows[0];
        assert_eq!(row[8], "true", "{t}");
        let spans: usize = row[6].parse().unwrap();
        assert!(spans > 0, "traced run must record spans: {t}");
    }
}
