//! `analytics`: an in-process federation under a closed loop of six
//! query classes. It exercises the engine kernels and federation
//! placement and transfer; it bypasses `net`, `reactor` and
//! `durability`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bda_array::ArrayEngine;
use bda_core::reference::evaluate;
use bda_core::{col, lit, AggExpr, AggFunc, GraphOp, Plan, Provider};
use bda_federation::optimize::optimize_with_stats;
use bda_federation::{
    ExecOptions, Federation, NetConfig, OptimizerConfig, Planner, RecoveryPolicy, TransferMode,
};
use bda_graph::GraphEngine;
use bda_linalg::LinAlgEngine;
use bda_relational::RelationalEngine;
use bda_storage::{Column, DataSet, Value};
use bda_workloads::{random_graph, random_matrix, sensor_array, GraphSpec, SensorSpec};

use crate::gen::{Fingerprint, Rng};
use crate::spans::{busy, covered, Recorder, Span};
use crate::stats::{median, quantile};
use crate::timed::Timed;
use crate::{Config, Failure, Outcome};

pub const CLASSES: [&str; 6] = ["scan", "agg", "join", "matmul", "pagerank", "window"];

/// Ops per class in each cycle of the mix, in `CLASSES` order. The rule:
/// every class gets about the same share of the loop's time, so each
/// class's kernel moves the gated CPU per query about equally. Each
/// count is 400 ms divided by the class's median cost, rounded, with
/// the class p50s measured on a 2-vCPU host (scan 9.6, agg 327,
/// join 201, matmul 27, pagerank 129, window 22 ms). Every run prints
/// each class's measured share of loop time (`<class>_time_share`);
/// README.md records them. Fixed counts (shuffled per cycle) give every
/// seed the same mix.
const CYCLE: [usize; 6] = [42, 1, 2, 15, 3, 19];

const ENGINE_LAYERS: [&str; 4] = ["relational", "array", "linalg", "graph"];

/// Input sizes; `full` is what the benchmark runs, `tiny` keeps the
/// fidelity tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub fact_chunks: usize,
    pub chunk_rows: usize,
    pub stores: usize,
    pub products: usize,
    pub matrix_n: usize,
    pub vertices: usize,
    pub edges: usize,
    pub sensors: usize,
    pub ticks: usize,
    pub pagerank_iters: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            fact_chunks: 256,
            chunk_rows: 4096,
            stores: 128,
            products: 1_000,
            matrix_n: 256,
            vertices: 50_000,
            edges: 250_000,
            sensors: 16,
            ticks: 1024,
            pagerank_iters: 10,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Sizes {
        Sizes {
            fact_chunks: 8,
            chunk_rows: 256,
            stores: 8,
            products: 20,
            matrix_n: 8,
            vertices: 64,
            edges: 256,
            sensors: 4,
            ticks: 32,
            pagerank_iters: 5,
        }
    }
}

/// Every generated input, before any of it reaches the program.
pub struct Inputs {
    pub fact: DataSet,
    pub stores: DataSet,
    pub a: DataSet,
    pub b: DataSet,
    pub edges: DataSet,
    pub sensors: DataSet,
}

impl Inputs {
    pub fn generate(seed: u64, sz: Sizes) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let mut fact: Option<DataSet> = None;
        for c in 0..sz.fact_chunks {
            let n = sz.chunk_rows;
            let base = (c * n) as i64;
            // `ts` ascends chunk by chunk (clustered), so zone maps can
            // disprove every chunk outside a time window.
            let ts: Vec<i64> = (0..n as i64).map(|i| base + i).collect();
            let store: Vec<i64> = (0..n).map(|_| rng.below(sz.stores as u64) as i64).collect();
            let prod: Vec<i64> = (0..n)
                .map(|_| rng.below(sz.products as u64) as i64)
                .collect();
            let qty: Vec<i64> = (0..n).map(|_| 1 + rng.below(10) as i64).collect();
            let amount: Vec<f64> = (0..n).map(|_| (rng.below(10_000) as f64) / 100.0).collect();
            let chunk = DataSet::from_columns(vec![
                ("ts", Column::from(ts)),
                ("store", Column::from(store)),
                ("prod", Column::from(prod)),
                ("qty", Column::from(qty)),
                ("amount", Column::from(amount)),
            ])
            .expect("fact chunk");
            match &mut fact {
                None => fact = Some(chunk),
                Some(f) => f.push_chunk(chunk.chunks()[0].clone()),
            }
        }
        let stores = DataSet::from_columns(vec![
            (
                "store_id",
                Column::from((0..sz.stores as i64).collect::<Vec<i64>>()),
            ),
            (
                "region",
                Column::from(
                    (0..sz.stores)
                        .map(|_| rng.below(8) as i64)
                        .collect::<Vec<i64>>(),
                ),
            ),
        ])
        .expect("stores");
        let (_, edges) = random_graph(GraphSpec {
            vertices: sz.vertices,
            edges: sz.edges,
            seed: rng.next_u64(),
        });
        Inputs {
            fact: fact.expect("at least one fact chunk"),
            stores,
            a: random_matrix(sz.matrix_n, sz.matrix_n, rng.next_u64()),
            b: random_matrix(sz.matrix_n, sz.matrix_n, rng.next_u64()),
            edges,
            sensors: sensor_array(SensorSpec {
                sensors: sz.sensors,
                ticks: sz.ticks,
                missing: 0.0,
                seed: rng.next_u64(),
            }),
        }
    }

    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for ds in [
            &self.fact,
            &self.stores,
            &self.a,
            &self.b,
            &self.edges,
            &self.sensors,
        ] {
            fp.mix(Fingerprint::of(ds));
        }
        fp
    }

    fn source(&self) -> HashMap<String, DataSet> {
        HashMap::from([
            ("fact".to_string(), self.fact.clone()),
            ("stores".to_string(), self.stores.clone()),
            ("a".to_string(), self.a.clone()),
            ("b".to_string(), self.b.clone()),
            ("edges".to_string(), self.edges.clone()),
            ("sensors".to_string(), self.sensors.clone()),
        ])
    }
}

/// The execution options every analytics run uses, set field by field
/// so no environment default can reach them.
pub fn exec_options() -> ExecOptions {
    ExecOptions {
        transfer: TransferMode::Direct,
        optimizer: OptimizerConfig {
            fold_constants: true,
            pushdown: true,
            prune_projects: true,
            recognize_intents: true,
            use_stats: true,
        },
        net: NetConfig::default(),
        recovery: RecoveryPolicy::default(),
        workers: 2,
        calibrate: false,
    }
}

/// The providers of one federation, kept so counters can be read.
pub struct Cluster {
    pub fed: Federation,
    pub timed: Vec<Arc<Timed>>,
}

/// Load the inputs into five providers and register them; with
/// `decorate`, each provider sits behind the timing decorator.
pub fn build(inputs: &Inputs, rec: &Arc<Recorder>, decorate: bool) -> Cluster {
    let rel_fact = RelationalEngine::new("rel_fact");
    let rel_dim = RelationalEngine::new("rel_dim");
    rel_fact.set_stats_enabled(true);
    rel_dim.set_stats_enabled(true);
    let la = LinAlgEngine::new("la");
    let graph = GraphEngine::new("graph");
    let arr = ArrayEngine::new("arr");
    let loads: [(&dyn Provider, &str, &DataSet); 6] = [
        (&rel_fact, "fact", &inputs.fact),
        (&rel_dim, "stores", &inputs.stores),
        (&la, "a", &inputs.a),
        (&la, "b", &inputs.b),
        (&graph, "edges", &inputs.edges),
        (&arr, "sensors", &inputs.sensors),
    ];
    for (p, name, ds) in loads {
        p.store(name, ds.clone()).expect("load analytics input");
    }
    let providers: [(Arc<dyn Provider>, &'static str); 5] = [
        (Arc::new(rel_fact), "relational"),
        (Arc::new(rel_dim), "relational"),
        (Arc::new(la), "linalg"),
        (Arc::new(graph), "graph"),
        (Arc::new(arr), "array"),
    ];
    let mut fed = Federation::new();
    *fed.options_mut() = exec_options();
    let mut timed = Vec::new();
    for (p, layer) in providers {
        if decorate {
            let t = Arc::new(Timed::new(p, layer, Arc::clone(rec)));
            timed.push(Arc::clone(&t));
            fed.register(t);
        } else {
            fed.register(p);
        }
    }
    Cluster { fed, timed }
}

/// One seeded instance of each query class, in `CLASSES` order.
pub fn queries(fed: &Federation, seed: u64, sz: Sizes) -> Vec<Plan> {
    let reg = fed.registry();
    let schema = |n: &str| reg.schema_of(n).expect("registered dataset");
    let mut rng = Rng::new(seed, 2);
    let rows = (sz.fact_chunks * sz.chunk_rows) as u64;
    let fact = || Plan::scan("fact", schema("fact"));

    // Parameters vary only where the cost does not, so every seed
    // measures the same work.
    let lo = rng.below(rows - sz.chunk_rows as u64) as i64;
    let q = 3;
    let scan = fact().select(
        col("ts")
            .ge(lit(lo))
            .and(col("ts").lt(lit(lo + sz.chunk_rows as i64)))
            .and(col("qty").ge(lit(q))),
    );

    let agg = fact().select(col("qty").ge(lit(q))).aggregate(
        vec!["prod"],
        vec![
            AggExpr::new(AggFunc::Sum, col("amount"), "total"),
            AggExpr::count_star("n"),
        ],
    );

    let window_rows = rows / 4;
    let lo = rng.below(rows - window_rows) as i64;
    let join = fact()
        .select(
            col("ts")
                .ge(lit(lo))
                .and(col("ts").lt(lit(lo + window_rows as i64))),
        )
        .join(
            Plan::scan("stores", schema("stores")),
            vec![("store", "store_id")],
        )
        .aggregate(
            vec!["region"],
            vec![
                AggExpr::new(AggFunc::Sum, col("amount"), "total"),
                AggExpr::count_star("n"),
            ],
        );

    let (l, r) = [("a", "b"), ("b", "a")][rng.below(2) as usize];
    let matmul = Plan::scan(l, schema(l)).matmul(Plan::scan(r, schema(r)));

    let pagerank = Plan::Graph(GraphOp::PageRank {
        edges: Plan::scan("edges", schema("edges")).boxed(),
        damping: [0.80, 0.85, 0.90][rng.below(3) as usize],
        max_iters: sz.pagerank_iters,
        epsilon: f64::MIN_POSITIVE,
    });

    let window = Plan::Window {
        input: Plan::scan("sensors", schema("sensors")).boxed(),
        radii: vec![("sensor".into(), 1), ("t".into(), 4)],
        aggs: vec![AggExpr::new(AggFunc::Avg, col("reading"), "w")],
    };

    vec![scan, agg, join, matmul, pagerank, window]
}

/// The seeded op sequence: `cycles` cycles of the mix, each shuffled.
pub fn op_sequence(seed: u64, cycles: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 3);
    let mut seq = Vec::new();
    for _ in 0..cycles {
        let mut cycle: Vec<usize> = (0..CLASSES.len())
            .flat_map(|k| std::iter::repeat_n(k, CYCLE[k]))
            .collect();
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, rng.below(i as u64 + 1) as usize);
        }
        seq.extend(cycle);
    }
    seq
}

/// One checksum over the inputs, the query instances and the op order.
pub fn fingerprint(inputs: &Inputs, plans: &[Plan], seq: &[usize]) -> Fingerprint {
    let mut fp = inputs.fingerprint();
    for p in plans {
        fp.add_hash(crate::gen::hash_values(&[Value::Str(format!("{p:?}"))]));
    }
    for class in seq {
        fp.add_hash(*class as u64);
    }
    fp
}

/// Bag equality with a relative tolerance on floats: engines and the
/// reference evaluator may sum in different orders.
pub fn same_bag_approx(a: &DataSet, b: &DataSet) -> bool {
    let (Ok(x), Ok(y)) = (a.sorted_rows(), b.sorted_rows()) else {
        return false;
    };
    x.len() == y.len()
        && x.iter().zip(&y).all(|(r, s)| {
            r.0.len() == s.0.len()
                && r.0.iter().zip(&s.0).all(|(u, v)| match (u, v) {
                    (Value::Float(f), Value::Float(g)) => (f - g).abs() <= 1e-6 * (1.0 + f.abs()),
                    _ => u == v,
                })
        })
}

/// Run each query once through the federation and once through the
/// reference evaluator; return the federation results' fingerprints.
fn check_against_reference(
    fed: &Federation,
    inputs: &Inputs,
    plans: &[Plan],
) -> Result<Vec<Fingerprint>, Failure> {
    let source = inputs.source();
    let mut out = Vec::new();
    for (class, plan) in CLASSES.iter().zip(plans) {
        let (got, _) = fed
            .run(plan)
            .map_err(|e| Failure(format!("analytics {class}: {e}")))?;
        let want = evaluate(plan, &source)
            .map_err(|e| Failure(format!("analytics {class}: reference: {e}")))?;
        if !same_bag_approx(&got, &want) {
            return Err(Failure(format!(
                "analytics {class}: {} rows differ from the reference evaluator's {}",
                got.num_rows(),
                want.num_rows()
            )));
        }
        if got.num_rows() == 0 {
            return Err(Failure(format!("analytics {class}: empty result")));
        }
        out.push(Fingerprint::of(&got));
    }
    Ok(out)
}

struct Loop {
    /// `(class, seconds inside Federation::run)` per op.
    ops: Vec<(usize, f64)>,
    transfer_bytes: u64,
    elapsed_s: f64,
    /// CPU seconds the client thread spent checksumming results: the
    /// benchmark's own work, kept out of the gated CPU per query.
    check_cpu_s: f64,
}

/// The closed loop: one client, next query after the previous returns,
/// until the first cycle boundary after `deadline_s` or the end of `seq`.
fn closed_loop(
    c: &Cluster,
    plans: &[Plan],
    expect: &[Fingerprint],
    seq: &[usize],
    deadline_s: f64,
    rec: &Recorder,
    probe_plan: bool,
) -> Result<Loop, Failure> {
    let opts = exec_options();
    let reg = c.fed.registry();
    let mut lp = Loop {
        ops: Vec::new(),
        transfer_bytes: 0,
        elapsed_s: 0.0,
        check_cpu_s: 0.0,
    };
    let started = Instant::now();
    let cycle_len: usize = CYCLE.iter().sum();
    for (i, &class) in seq.iter().enumerate() {
        // Whole cycles only, so every run has the same mix.
        if i % cycle_len == 0 && started.elapsed().as_secs_f64() >= deadline_s {
            break;
        }
        let plan = &plans[class];
        let op = rec.fresh_id();
        rec.set_current(op);
        if probe_plan {
            let t0 = rec.now();
            let (optimized, _) = optimize_with_stats(plan, opts.optimizer, &|n| reg.table_stats(n));
            let placement = Planner::new(reg)
                .with_workers(opts.workers)
                .with_costs(None)
                .with_stats(opts.optimizer.use_stats)
                .place(&optimized)
                .map_err(|e| Failure(format!("analytics {}: place: {e}", CLASSES[class])))?;
            std::hint::black_box(&placement);
            let t1 = rec.now();
            rec.record("federation.plan", t0, t1, op, op);
        }
        let t0 = Instant::now();
        let result = c.fed.run(plan);
        let dt = t0.elapsed();
        rec.record("federation.run", rec.at(t0), rec.at(t0 + dt), op, op);
        let (ds, metrics) =
            result.map_err(|e| Failure(format!("analytics {}: {e}", CLASSES[class])))?;
        let check0 = crate::thread_cpu_s();
        let got = Fingerprint::of(&ds);
        lp.check_cpu_s += crate::thread_cpu_s() - check0;
        if got != expect[class] {
            return Err(Failure(format!(
                "analytics {}: result checksum changed between runs ({} rows)",
                CLASSES[class],
                ds.num_rows()
            )));
        }
        lp.transfer_bytes += metrics.data_bytes() as u64;
        lp.ops.push((class, dt.as_secs_f64()));
    }
    rec.set_current(0);
    lp.elapsed_s = started.elapsed().as_secs_f64();
    Ok(lp)
}

fn class_samples(lp: &Loop, class: usize) -> Vec<f64> {
    lp.ops
        .iter()
        .filter(|(c, _)| *c == class)
        .map(|(_, s)| s * 1e3)
        .collect()
}

pub fn run(cfg: &Config, out: &mut Outcome) -> Result<(), Failure> {
    let sz = Sizes::full();
    let inputs = Inputs::generate(cfg.seed, sz);
    let rec = Arc::new(Recorder::new());

    // Set-up is the program's side only: loading the generated inputs
    // into the engines and registering the providers.
    let mut setups = Vec::new();
    let mut cluster = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(cluster.take());
        let t0 = Instant::now();
        cluster = Some(build(&inputs, &rec, true));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let c = cluster.expect("set up at least once");
    let plans = queries(&c.fed, cfg.seed, sz);
    let seq = op_sequence(cfg.seed, 1000);

    out.fingerprint = fingerprint(&inputs, &plans, &seq);

    // Checked against the reference once, outside the timed loop; every
    // timed result must then reproduce these fingerprints.
    let expect = check_against_reference(&c.fed, &inputs, &plans)?;

    let opts = exec_options();
    out.knob("exec.transfer", format!("{:?}", opts.transfer));
    out.knob("exec.workers", opts.workers);
    out.knob("exec.calibrate", opts.calibrate);
    out.knob("exec.optimizer", format!("{:?}", opts.optimizer));
    out.knob("exec.recovery", format!("{:?}", opts.recovery));
    out.knob("exec.net", format!("{:?}", opts.net));
    out.knob("relational.stats_enabled", true);
    out.knob("sizes", format!("{sz:?}"));
    out.knob("mix.cycle", format!("{CYCLE:?}"));

    if !cfg.trace {
        let cpu0 = crate::process_cpu_s();
        let lp = closed_loop(&c, &plans, &expect, &seq, cfg.seconds, &rec, false)?;
        let cpu_s = crate::process_cpu_s() - cpu0 - lp.check_cpu_s;
        out.attempted = lp.ops.len() as u64;
        let class_p50: Vec<f64> = (0..CLASSES.len())
            .map(|k| median(&class_samples(&lp, k)))
            .collect();
        let all: Vec<f64> = lp.ops.iter().map(|(_, s)| s * 1e3).collect();
        out.metric("setup_s", median(&setups), "s");
        out.metric("cpu_ms_per_op", cpu_s * 1e3 / lp.ops.len() as f64, "ms");
        out.detail(
            "throughput_ops_s",
            lp.ops.len() as f64 / lp.elapsed_s,
            "1/s",
            lp.ops.len(),
        );
        out.detail("p50_ms", median(&all), "ms", all.len());
        out.detail("p99_ms", quantile(&all, 0.99), "ms", all.len());
        let run_ms: f64 = all.iter().sum();
        for (k, name) in CLASSES.iter().enumerate() {
            let samples = class_samples(&lp, k);
            out.detail(&format!("{name}_p50_ms"), class_p50[k], "ms", samples.len());
            out.detail(
                &format!("{name}_time_share"),
                samples.iter().sum::<f64>() / run_ms,
                "frac",
                samples.len(),
            );
        }
        out.detail(
            "check_cpu_frac",
            lp.check_cpu_s / (cpu_s + lp.check_cpu_s),
            "frac",
            lp.ops.len(),
        );
        return Ok(());
    }

    // Traced: the same op sequence untraced, then traced, so the
    // difference is the tracing overhead.
    let half = cfg.seconds / 2.0;
    let plain = closed_loop(&c, &plans, &expect, &seq, half, &rec, false)?;
    let n = plain.ops.len();
    for t in &c.timed {
        t.reset_counts();
    }
    rec.set_enabled(true);
    let traced = closed_loop(&c, &plans, &expect, &seq[..n], f64::INFINITY, &rec, true)?;
    rec.set_enabled(false);
    let spans = rec.take();
    out.attempted = (plain.ops.len() + traced.ops.len()) as u64;
    out.spans = spans.clone();
    layer_metrics(out, &c, &plain, &traced, &spans);
    Ok(())
}

fn layer_metrics(out: &mut Outcome, c: &Cluster, plain: &Loop, traced: &Loop, spans: &[Span]) {
    let n = traced.ops.len().max(1) as f64;
    let runs: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "federation.run")
        .collect();
    let mut by_parent: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_parent.entry(s.parent).or_default().push(s);
    }
    let mut engine_wall = [0.0f64; 4];
    let mut run_total = 0.0;
    for r in &runs {
        run_total += r.dur() as f64;
        let kids = by_parent.get(&r.parent).map(Vec::as_slice).unwrap_or(&[]);
        let cov = covered(kids, &ENGINE_LAYERS, r.start, r.end);
        for (w, c) in engine_wall.iter_mut().zip(cov) {
            *w += c;
        }
    }
    let plan_total = busy(spans, "federation.plan") as f64;
    let engines_total: f64 = engine_wall.iter().sum();
    let self_total = (run_total - engines_total - plan_total).max(0.0);
    let wall = traced.elapsed_s * 1e9;

    out.metric("federation.plan_ms", plan_total / n / 1e6, "ms");
    out.metric("federation.self_ms", self_total / n / 1e6, "ms");
    out.metric(
        "federation.transfer_bytes",
        traced.transfer_bytes as f64 / n,
        "bytes",
    );
    let (mut calls, mut rows) = (0, 0);
    for t in c.timed.iter().filter(|t| t.name().starts_with("rel_")) {
        let (k, r) = t.counts();
        calls += k;
        rows += r;
    }
    out.metric(
        "relational.busy_ms",
        busy(spans, "relational") as f64 / n / 1e6,
        "ms",
    );
    out.metric("relational.calls", calls as f64 / n, "count");
    out.metric("relational.rows_out", rows as f64 / n, "count");
    for layer in ["linalg", "graph", "array"] {
        out.metric(
            format!("{layer}.busy_ms"),
            busy(spans, layer) as f64 / n / 1e6,
            "ms",
        );
    }
    let mut shares = vec![(
        "federation",
        (plan_total + run_total - engines_total) / wall,
    )];
    for (layer, w) in ENGINE_LAYERS.iter().zip(engine_wall) {
        shares.push((layer, w / wall));
    }
    crate::push_shares(out, &shares);
    let plain_s: f64 = plain.ops.iter().map(|(_, s)| s).sum();
    let traced_s: f64 = traced.ops.iter().map(|(_, s)| s).sum();
    out.metric("trace.overhead_frac", traced_s / plain_s - 1.0, "frac");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> (Inputs, Arc<Recorder>, Cluster, Cluster, Vec<Plan>) {
        let inputs = Inputs::generate(seed, Sizes::tiny());
        let rec = Arc::new(Recorder::new());
        let bare = build(&inputs, &rec, false);
        let timed = build(&inputs, &rec, true);
        let plans = queries(&bare.fed, seed, Sizes::tiny());
        (inputs, rec, bare, timed, plans)
    }

    #[test]
    fn decorator_leaves_every_explain_byte_identical() {
        let (_, _, bare, timed, plans) = tiny(7);
        for (class, plan) in CLASSES.iter().zip(&plans) {
            let want = bare.fed.explain(plan).expect("explain without decorator");
            let got = timed.fed.explain(plan).expect("explain with decorator");
            assert_eq!(got, want, "{class}");
        }
    }

    #[test]
    fn traced_fingerprints_equal_untraced_ones() {
        let (inputs, rec, bare, timed, plans) = tiny(8);
        let expect = check_against_reference(&bare.fed, &inputs, &plans).expect("reference");
        rec.set_enabled(true);
        for (k, plan) in plans.iter().enumerate() {
            let (ds, _) = timed.fed.run(plan).expect("traced run");
            assert_eq!(Fingerprint::of(&ds), expect[k], "{}", CLASSES[k]);
        }
        rec.set_enabled(false);
        let spans = rec.take();
        for layer in ENGINE_LAYERS {
            assert!(busy(&spans, layer) > 0, "no {layer} span recorded");
        }
    }

    #[test]
    fn seed_fixes_inputs_and_ops() {
        let fp = |seed| {
            let (inputs, _, _, _, plans) = tiny(seed);
            fingerprint(&inputs, &plans, &op_sequence(seed, 4))
        };
        assert_eq!(fp(3), fp(3));
        assert_ne!(fp(3), fp(4));
    }

    #[test]
    fn every_seed_runs_the_same_mix() {
        let count = |seq: &[usize], k| seq.iter().filter(|c| **c == k).count();
        let (a, b) = (op_sequence(1, 3), op_sequence(2, 3));
        assert_ne!(a, b);
        for (k, n) in CYCLE.iter().enumerate() {
            assert_eq!(count(&a, k), 3 * n);
            assert_eq!(count(&b, k), 3 * n);
        }
    }
}
