//! F10: measured-cost calibration pays for itself.
//!
//! Two relational replicas hold identical data; one (registered first,
//! so static placement prefers it on the row-count tie) answers every
//! request ~20 ms late — a stand-in for a saturated or distant site.
//! The run calibrates the cost book from a handful of traced queries,
//! then times the same query planned statically vs planned against the
//! book. Calibrated planning must come out at least 1.5x faster or the
//! binary exits 1. Results land in `BENCH_profiling.json`.
//!
//! ```text
//! cargo run --release -p bda-bench --bin profiling_bench
//! ```
//!
//! `--determinism SEED [--out FILE]` instead feeds a seeded stream of
//! synthetic profiles into a *fresh* [`CostBook`] and dumps the book
//! plus the calibration-off plan for the same federation. Two runs with
//! the same seed must produce byte-identical files — CI diffs them —
//! which pins down both the EWMA fold and the plans-unchanged-when-off
//! guarantee.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bda_core::{CapabilitySet, CoreError, Plan, Provider};
use bda_federation::{ExecOptions, Federation};
use bda_lang::parse_query;
use bda_obs::profile::{CostBook, OpProfile, QueryProfile, SiteProfile};
use bda_obs::{splitmix64, Tracer};
use bda_relational::RelationalEngine;
use bda_storage::{Column, DataSet, Schema};

const ROWS: usize = 4096;
const CAL_QUERIES: u64 = 3;
const REPS: usize = 9;
const SPEEDUP_FLOOR: f64 = 1.5;
const SLOW_DISPATCH: Duration = Duration::from_millis(20);

/// A provider that answers correctly but late: every execute sleeps
/// before delegating. Catalog, storage, and statistics pass straight
/// through, so the planner sees it as a full replica.
struct SlowProvider {
    inner: RelationalEngine,
    delay: Duration,
}

impl Provider for SlowProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> CapabilitySet {
        self.inner.capabilities()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.inner.catalog()
    }

    fn execute(&self, plan: &Plan) -> Result<DataSet, CoreError> {
        std::thread::sleep(self.delay);
        self.inner.execute(plan)
    }

    fn store(&self, name: &str, data: DataSet) -> Result<(), CoreError> {
        self.inner.store(name, data)
    }

    fn remove(&self, name: &str) {
        self.inner.remove(name)
    }

    fn schema_of(&self, name: &str) -> Option<Schema> {
        self.inner.schema_of(name)
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.inner.row_count_of(name)
    }
}

fn events(n: usize) -> DataSet {
    DataSet::from_columns(vec![
        ("k", Column::from((0..n as i64).collect::<Vec<i64>>())),
        (
            "v",
            Column::from(
                (0..n)
                    .map(|i| (i % 100) as f64 / 100.0)
                    .collect::<Vec<f64>>(),
            ),
        ),
    ])
    .expect("events table")
}

/// The F10 federation: `slow` (registered first — static placement's
/// choice) and `fast`, both holding `events`.
fn replicated_federation(delay: Duration) -> (Federation, Plan) {
    let slow = SlowProvider {
        inner: RelationalEngine::new("slow"),
        delay,
    };
    slow.store("events", events(ROWS)).expect("store slow");
    let fast = RelationalEngine::new("fast");
    fast.store("events", events(ROWS)).expect("store fast");
    let mut fed = Federation::new();
    fed.register(Arc::new(slow));
    fed.register(Arc::new(fast));
    let plan = parse_query("scan events | where v > 0.5", &|name: &str| {
        fed.registry().schema_of(name).ok()
    })
    .expect("query parses");
    (fed, plan)
}

fn median_of(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn run_f10(out: &str) {
    let (fed, plan) = replicated_federation(SLOW_DISPATCH);

    // Calibrate: traced queries run on the *static* plan (the slow
    // replica), so the book measures exactly what static placement
    // costs. The fast replica stays unmeasured — the planner's
    // optimistic-zero dispatch is what routes the first query there.
    for i in 0..CAL_QUERIES {
        fed.run_traced(&plan, &Tracer::new(0xF10 + i))
            .expect("calibration query");
    }

    let static_opts = ExecOptions {
        calibrate: false,
        ..ExecOptions::default()
    };
    let calibrated_opts = ExecOptions {
        calibrate: true,
        ..ExecOptions::default()
    };
    let mut t_static = Vec::with_capacity(REPS);
    let mut t_calibrated = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let s = Instant::now();
        fed.run_with(&plan, &static_opts).expect("static run");
        t_static.push(s.elapsed().as_secs_f64());
        let s = Instant::now();
        fed.run_with(&plan, &calibrated_opts)
            .expect("calibrated run");
        t_calibrated.push(s.elapsed().as_secs_f64());
    }
    let static_ms = median_of(t_static) * 1e3;
    let calibrated_ms = median_of(t_calibrated) * 1e3;
    let speedup = static_ms / calibrated_ms;

    println!("F10 profiling bench (rows={ROWS}, {REPS} reps, median):");
    println!("  static placement:      {static_ms:>10.3} ms");
    println!("  calibrated placement:  {calibrated_ms:>10.3} ms");
    println!("  speedup:               {speedup:>10.2}x (floor {SPEEDUP_FLOOR}x)");

    let json = format!(
        "{{\"experiment\":\"F10\",\"rows\":{ROWS},\"reps\":{REPS},\
         \"slow_dispatch_ms\":{},\"static_ms\":{static_ms:.3},\
         \"calibrated_ms\":{calibrated_ms:.3},\"speedup\":{speedup:.2},\
         \"floor\":{SPEEDUP_FLOOR}}}\n",
        SLOW_DISPATCH.as_millis(),
    );
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("profiling_bench: writing {out}: {e}");
        std::process::exit(1);
    }
    println!("  wrote {out}");

    if static_ms < SLOW_DISPATCH.as_secs_f64() * 1e3 {
        eprintln!(
            "FAIL: static placement dodged the slow replica ({static_ms:.3} ms) — \
             the experiment setup no longer exercises calibration"
        );
        std::process::exit(1);
    }
    if speedup < SPEEDUP_FLOOR {
        eprintln!("FAIL: calibrated planning only {speedup:.2}x faster (floor {SPEEDUP_FLOOR}x)");
        std::process::exit(1);
    }
}

/// A deterministic stream of synthetic profiles: every field is drawn
/// from a splitmix64 chain over the seed, so two runs with the same
/// seed fold the same observations in the same order.
fn synthetic_profiles(seed: u64, n: u64) -> Vec<QueryProfile> {
    let classes = ["select", "join", "groupby", "matmul"];
    let sites = ["slow", "fast", "rel", "la"];
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(1);
        splitmix64(state ^ seed.rotate_left(17))
    };
    (0..n)
        .map(|i| {
            let rows = 64 + next() % 4096;
            let class = classes[(next() % classes.len() as u64) as usize];
            let site = sites[(next() % sites.len() as u64) as usize];
            QueryProfile {
                trace_id: seed ^ i,
                tenant: String::new(),
                wall_ns: 1_000_000 + next() % 50_000_000,
                slow: false,
                ops: vec![OpProfile {
                    class: class.to_string(),
                    count: 1,
                    rows,
                    bytes: rows * 64,
                    wall_ns: rows * (500 + next() % 5_000),
                }],
                sites: vec![SiteProfile {
                    site: site.to_string(),
                    fragments: 1,
                    fragment_wall_ns: 100_000 + next() % 10_000_000,
                    transfer_bytes: next() % 1_000_000,
                    transfer_wall_ns: next() % 5_000_000,
                    retries: 0,
                    failovers: 0,
                }],
            }
        })
        .collect()
}

fn run_determinism(seed: u64, out: Option<&str>) {
    let book = CostBook::new(seed);
    for profile in synthetic_profiles(seed, 16) {
        book.observe(&profile);
    }
    let mut dump = book.render_json();
    // The plans-unchanged-when-off half of the guarantee: the explain
    // below never consults any cost book (calibrate is off), so its
    // text must also be byte-identical run to run.
    let (mut fed, plan) = replicated_federation(Duration::ZERO);
    fed.options_mut().calibrate = false;
    dump.push_str(&fed.explain(&plan).expect("explain"));
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &dump) {
                eprintln!("profiling_bench: writing {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote calibration dump ({} bytes) to {path}", dump.len());
        }
        None => print!("{dump}"),
    }
}

fn main() {
    let mut determinism: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--determinism" => {
                let raw = it.next().unwrap_or_default();
                match raw.parse() {
                    Ok(seed) => determinism = Some(seed),
                    Err(_) => {
                        eprintln!("profiling_bench: --determinism wants a seed, got `{raw}`");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => out = it.next(),
            other => {
                eprintln!(
                    "profiling_bench: unknown argument `{other}` \
                     (usage: profiling_bench [--determinism SEED] [--out FILE])"
                );
                std::process::exit(2);
            }
        }
    }
    match determinism {
        Some(seed) => run_determinism(seed, out.as_deref()),
        None => run_f10(out.as_deref().unwrap_or("BENCH_profiling.json")),
    }
}
