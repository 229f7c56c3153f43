//! The federated executor: runs fragment DAGs across providers, moving
//! intermediates either **directly between servers** (desideratum 4) or
//! through the application tier (the baseline it is measured against).
//!
//! Execution is fault tolerant (see DESIGN.md, "The failure model"):
//! transient fragment failures retry with exponential backoff, permanent
//! failures trigger **failover** onto another provider whose capability
//! set covers the fragment (staged inputs are re-shipped), and transfer
//! failures walk a degradation ladder (`RemoteTcp` push → store-based
//! `Direct` → `AppRouted`). Provider health feeds the registry's circuit
//! breakers, which the planner consults on the next placement.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bda_core::codec::encode_plan;
use bda_core::convergence::report;
use bda_core::{pool, CoreError, Plan};
use bda_obs::progress::ProgressHandle;
use bda_obs::{flight, progress, scope, SpanGuard, Tracer};
use bda_storage::wire::encode_dataset;
use bda_storage::{DataSet, Row, Value};

use crate::metrics::{Metrics, NetConfig};
use crate::optimize::{optimize_with_stats, OptimizerConfig};
use crate::planner::{Fragment, Placement, Planner, APP_SITE, FRAG_PREFIX};
use crate::registry::Registry;

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// How fragment outputs travel between servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Server → server, one hop (what the paper advocates).
    Direct,
    /// Server → application tier → server, two hops (the baseline the
    /// paper argues against).
    AppRouted,
    /// Server → server over a real TCP transport: the executing provider
    /// pushes its result straight to the consuming provider's endpoint
    /// (`Provider::execute_push`), so the intermediate bytes never reach
    /// the application tier even physically. Falls back to [`Direct`]
    /// hop-by-hop when a provider has no network endpoint.
    RemoteTcp,
}

/// How the executor reacts to provider failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Master switch; `false` reproduces the pre-fault-tolerance
    /// behaviour (any failure aborts the plan).
    pub enabled: bool,
    /// Execution attempts per provider (first try included) for
    /// *transient* failures. Permanent failures never retry.
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles each retry.
    pub backoff: Duration,
    /// On permanent failure, re-place the fragment on another provider
    /// whose capabilities cover it (re-shipping staged inputs).
    pub failover: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            max_attempts: 3,
            backoff: Duration::from_millis(2),
            failover: true,
        }
    }
}

impl RecoveryPolicy {
    /// No retries, no failover: every failure aborts the plan.
    pub fn disabled() -> RecoveryPolicy {
        RecoveryPolicy {
            enabled: false,
            max_attempts: 1,
            backoff: Duration::ZERO,
            failover: false,
        }
    }

    fn attempts(&self) -> u32 {
        if self.enabled {
            self.max_attempts.max(1)
        } else {
            1
        }
    }
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Transfer mode for inter-server intermediates.
    pub transfer: TransferMode,
    /// Logical optimizer configuration.
    pub optimizer: OptimizerConfig,
    /// Simulated network parameters.
    pub net: NetConfig,
    /// Fault-tolerance policy.
    pub recovery: RecoveryPolicy,
    /// Partition-parallel worker count. With `1` the executor runs its
    /// fragments sequentially and plans carry no `Exchange`/`Merge`
    /// markers; with `n > 1` independent fragments dispatch onto a pool
    /// of `n` threads and capable providers run their hot operators over
    /// `n` partitions. Defaults to the `BDA_WORKERS` environment
    /// variable (falling back to 1).
    pub workers: usize,
    /// Consult the process-global [`bda_obs::profile::CostBook`] of
    /// measured costs during planning (site assignment and
    /// partition-count choices). Off by default — disabled calibration
    /// produces plans byte-identical to the static planner. Defaults to
    /// the `BDA_CALIBRATE` environment variable (`1`/`true`/`on`).
    pub calibrate: bool,
}

/// Environment variable enabling measured-cost calibration by default.
pub const CALIBRATE_ENV: &str = "BDA_CALIBRATE";

fn calibrate_from_env() -> bool {
    matches!(
        std::env::var(CALIBRATE_ENV).ok().as_deref().map(str::trim),
        Some("1") | Some("true") | Some("on")
    )
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            transfer: TransferMode::Direct,
            optimizer: OptimizerConfig::default(),
            net: NetConfig::default(),
            recovery: RecoveryPolicy::default(),
            workers: pool::workers_from_env(),
            calibrate: calibrate_from_env(),
        }
    }
}

/// Optimize, place and execute a plan across the registry's providers.
pub fn run_plan(
    registry: &Registry,
    plan: &Plan,
    opts: &ExecOptions,
) -> Result<(DataSet, Metrics)> {
    run_plan_traced(registry, plan, opts, &Tracer::disabled(), None)
}

/// [`run_plan`], recording spans into `tracer`. `parent` is the span the
/// query hangs under (`None` for a top-level query; app-driven iteration
/// nests its inner queries under the iterating fragment's span).
pub fn run_plan_traced(
    registry: &Registry,
    plan: &Plan,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(DataSet, Metrics)> {
    let (optimized, fragments_pruned) =
        optimize_with_stats(plan, opts.optimizer, &|name| registry.table_stats(name));
    if fragments_pruned > 0 {
        // A dedicated span (rather than an event on `parent`, which is
        // `None` for top-level queries) so `EXPLAIN ANALYZE`'s pruning
        // section sees statistics-disproved fragments.
        let mut s = tracer.start(parent, || "optimize".into(), "app");
        s.event(|| format!("pruning: {fragments_pruned} fragment(s) eliminated by table stats"));
        s.finish();
    }
    let costs = opts
        .calibrate
        .then(|| bda_obs::profile::global_costs().clone());
    let placement = Planner::new(registry)
        .with_workers(opts.workers)
        .with_costs(costs)
        .with_stats(opts.optimizer.use_stats)
        .place(&optimized)?;
    execute_placement_traced(registry, &placement, opts, tracer, parent)
}

/// Execute an already-fragmented plan.
pub fn execute_placement(
    registry: &Registry,
    placement: &Placement,
    opts: &ExecOptions,
) -> Result<(DataSet, Metrics)> {
    execute_placement_traced(registry, placement, opts, &Tracer::disabled(), None)
}

/// [`execute_placement`], recording spans into `tracer`.
///
/// Span model (see DESIGN.md, "Observability"): one `query` span per
/// placement; under it one `fragment:{id}` span per fragment (site =
/// executing provider, rows = output cardinality) whose events record
/// retries, breaker trips and failovers; one `transfer:{id}` span per
/// staged fragment output whose events record every delivery attempt on
/// the degradation ladder; `reship:{id}` spans for failover re-shipment;
/// and a `transfer:result` span for the root result's return hop.
/// Provider-side spans (per-operator timings, server handling) land
/// under the owning fragment span through the [`scope`] installed around
/// each provider call.
pub fn execute_placement_traced(
    registry: &Registry,
    placement: &Placement,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(DataSet, Metrics)> {
    if placement.fragments.is_empty() {
        return Err(CoreError::Plan(
            "empty placement: no fragments to execute".into(),
        ));
    }
    let mut metrics = Metrics::default();
    // (site, name) cleanup list. Fragment outputs the app tier has custody
    // of live in `cache`, keyed by fragment id; failover re-ships a failed
    // fragment's inputs from there. Both are shared with the worker pool
    // when fragments dispatch in parallel.
    let staged: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());
    let cache: Mutex<HashMap<usize, DataSet>> = Mutex::new(HashMap::new());
    let query_span = tracer.start(parent, || "query".into(), "app");
    let query_id = query_span.id();
    // Only the outermost placement on this thread registers on the
    // progress board; app-driven iteration re-enters the executor per
    // round and those inner queries ride the outer query's entry.
    let progress = enter_query(placement, tracer);

    let outcome = if opts.workers <= 1 {
        (|| -> Result<DataSet> {
            let last = placement.fragments.len() - 1;
            progress.set_fragments_total(placement.fragments.len());
            for (pos, frag) in placement.fragments.iter().enumerate() {
                metrics.fragments += 1;
                let frag_started = Instant::now();
                let mut fspan =
                    tracer.start(query_id, || format!("fragment:{}", frag.id), &frag.site);
                // The transfer log accumulates the attempt history of this
                // fragment's output delivery (push and/or store attempts)
                // into one `transfer:{id}` span. Root fragments stage
                // nothing, so they get an inert log.
                let mut tlog = if pos == last {
                    TransferLog::inert()
                } else {
                    TransferLog::start(tracer, fspan.id(), frag)
                };
                if frag.site != APP_SITE
                    && pos != last
                    && opts.transfer == TransferMode::RemoteTcp
                    && try_remote_push(
                        registry,
                        frag,
                        opts,
                        &mut metrics,
                        &staged,
                        tracer,
                        &mut tlog,
                    )?
                {
                    progress.fragment_done(
                        frag.id,
                        &frag.site,
                        frag_started.elapsed().as_secs_f64(),
                    );
                    continue;
                }

                let out = if frag.site == APP_SITE {
                    // App-driven control iteration (see planner docs).
                    run_app_iterate(
                        registry,
                        &frag.plan,
                        opts,
                        &mut metrics,
                        tracer,
                        fspan.id(),
                        &progress,
                    )?
                } else {
                    execute_fragment(
                        registry,
                        placement,
                        frag,
                        opts,
                        &mut metrics,
                        &cache,
                        &staged,
                        tracer,
                        fspan.id(),
                    )?
                };
                fspan.set_rows(out.num_rows());
                progress.fragment_done(frag.id, &frag.site, frag_started.elapsed().as_secs_f64());

                if pos == last {
                    // Root fragment: result returns to the application.
                    let bytes = encode_dataset(&out).len();
                    metrics.record_transfer(&opts.net, &frag.site, "app", bytes, false);
                    let mut rspan = tracer.start(query_id, || "transfer:result".into(), &frag.site);
                    rspan.set_bytes(bytes as u64);
                    rspan.set_rows(out.num_rows());
                    rspan.finish();
                    return Ok(out);
                }
                if opts.recovery.enabled && opts.recovery.failover {
                    cache.lock().unwrap().insert(frag.id, out.clone());
                }
                if let Err(e) = stage_output(
                    registry,
                    frag,
                    out,
                    opts,
                    &mut metrics,
                    &staged,
                    tracer,
                    &mut tlog,
                ) {
                    if !(opts.recovery.enabled && opts.recovery.failover) {
                        return Err(e);
                    }
                    // The consuming site refused the staged input. Leave
                    // delivery to the consumer's failover path, which re-ships
                    // inputs from the app-tier cache onto whichever provider
                    // ends up running the fragment.
                }
            }
            unreachable!("placement always has a root fragment")
        })()
    } else {
        run_fragments_parallel(
            registry,
            placement,
            opts,
            &mut metrics,
            &cache,
            &staged,
            tracer,
            query_id,
            &progress,
        )
    };

    // Clean up staged intermediates regardless of success.
    for (site, name) in staged.into_inner().unwrap() {
        if let Ok(p) = registry.provider(&site) {
            p.remove(&name);
        }
    }
    leave_query(progress, tracer, outcome).map(|ds| (ds, metrics))
}

/// Dispatch a placement's fragments onto a pool of `opts.workers` threads,
/// honouring the dependency edges recorded in [`Fragment::inputs`]. Root
/// and app-site fragments run inline on the coordinator thread — the root
/// so its result transfer stays last, app-driven iteration because it
/// re-enters the executor and must keep riding this thread's progress
/// entry. Every fragment body (including inline ones) runs under
/// [`pool::with_workers`], so capable providers execute their
/// `Exchange`/`Merge`-marked operators partition-parallel too.
///
/// Per-fragment [`Metrics`] accumulate into thread-local instances and are
/// absorbed in **placement order** once every fragment settles, so counters
/// and the transfer log are identical run-to-run regardless of completion
/// order. On failure, dispatch stops, in-flight fragments drain, and the
/// error of the earliest-placed failed fragment surfaces — mirroring what
/// the sequential loop would have reported.
#[allow(clippy::too_many_arguments)]
fn run_fragments_parallel(
    registry: &Registry,
    placement: &Placement,
    opts: &ExecOptions,
    metrics: &mut Metrics,
    cache: &Mutex<HashMap<usize, DataSet>>,
    staged: &Mutex<Vec<(String, String)>>,
    tracer: &Tracer,
    query_id: Option<u64>,
    progress: &ProgressHandle,
) -> Result<DataSet> {
    let frags = &placement.fragments;
    let n = frags.len();
    let last = n - 1;
    progress.set_fragments_total(n);
    // Fragment ids are planner counters, not positions; map them back.
    let pos_of: HashMap<usize, usize> = frags.iter().enumerate().map(|(p, f)| (f.id, p)).collect();
    let deps: Vec<Vec<usize>> = frags
        .iter()
        .map(|f| {
            f.inputs
                .iter()
                .filter_map(|id| pos_of.get(id).copied())
                .collect()
        })
        .collect();

    let mut done = vec![false; n];
    let mut dispatched = vec![false; n];
    let mut slots: Vec<Option<Metrics>> = (0..n).map(|_| None).collect();
    let mut failures: Vec<(usize, CoreError)> = Vec::new();
    let mut root_out: Option<DataSet> = None;
    let mut in_flight = 0usize;

    let threads = opts.workers.min(n.saturating_sub(1)).max(1);
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<usize>();
    let job_rx = Mutex::new(job_rx);
    type Completion = (usize, f64, Metrics, Result<Option<DataSet>>);
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<Completion>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let job_rx = &job_rx;
            let res_tx = res_tx.clone();
            scope.spawn(move || loop {
                // The mutex only serializes job pickup; execution runs
                // unlocked and therefore concurrently across workers.
                let job = job_rx.lock().unwrap().recv();
                let Ok(pos) = job else { break };
                let started = Instant::now();
                let (m, result) = pool::with_workers(opts.workers, || {
                    parallel_fragment_body(
                        registry, placement, pos, opts, cache, staged, tracer, query_id, None,
                    )
                });
                if res_tx
                    .send((pos, started.elapsed().as_secs_f64(), m, result))
                    .is_err()
                {
                    break;
                }
            });
        }
        drop(res_tx);

        loop {
            if failures.is_empty() {
                // Launch everything ready, rescanning after each inline
                // completion (an inline fragment may unblock others).
                loop {
                    let mut inline_ran = false;
                    for pos in 0..n {
                        if dispatched[pos] || !deps[pos].iter().all(|d| done[*d]) {
                            continue;
                        }
                        dispatched[pos] = true;
                        if pos == last || frags[pos].site == APP_SITE {
                            let started = Instant::now();
                            let (m, result) = pool::with_workers(opts.workers, || {
                                parallel_fragment_body(
                                    registry,
                                    placement,
                                    pos,
                                    opts,
                                    cache,
                                    staged,
                                    tracer,
                                    query_id,
                                    Some(progress),
                                )
                            });
                            progress.fragment_done(
                                frags[pos].id,
                                &frags[pos].site,
                                started.elapsed().as_secs_f64(),
                            );
                            slots[pos] = Some(m);
                            match result {
                                Ok(out) => {
                                    done[pos] = true;
                                    if pos == last {
                                        root_out = out;
                                    }
                                }
                                Err(e) => failures.push((pos, e)),
                            }
                            inline_ran = true;
                        } else {
                            in_flight += 1;
                            let _ = job_tx.send(pos);
                        }
                    }
                    if !inline_ran || !failures.is_empty() {
                        break;
                    }
                }
            }
            if in_flight == 0 {
                break;
            }
            let Ok((pos, secs, m, result)) = res_rx.recv() else {
                break;
            };
            in_flight -= 1;
            progress.fragment_done(frags[pos].id, &frags[pos].site, secs);
            slots[pos] = Some(m);
            match result {
                Ok(_) => done[pos] = true,
                Err(e) => failures.push((pos, e)),
            }
        }
        drop(job_tx); // closes the job channel; workers exit their loops
    });

    for m in slots.into_iter().flatten() {
        metrics.absorb(m);
    }
    if let Some((_, e)) = failures.into_iter().min_by_key(|(p, _)| *p) {
        return Err(e);
    }
    root_out
        .ok_or_else(|| CoreError::Plan("parallel scheduler finished without a root result".into()))
}

/// The per-fragment body of the parallel scheduler: the exact sequence the
/// sequential loop runs for one fragment (fragment span, transfer log,
/// RemoteTcp push short-circuit, execute/iterate, failover cache, output
/// staging), against a thread-local [`Metrics`]. Returns `Some(result)`
/// only for the root fragment. `progress` is `Some` only on the
/// coordinator thread, where app-driven iteration reports its rounds.
#[allow(clippy::too_many_arguments)]
fn parallel_fragment_body(
    registry: &Registry,
    placement: &Placement,
    pos: usize,
    opts: &ExecOptions,
    cache: &Mutex<HashMap<usize, DataSet>>,
    staged: &Mutex<Vec<(String, String)>>,
    tracer: &Tracer,
    query_id: Option<u64>,
    progress: Option<&ProgressHandle>,
) -> (Metrics, Result<Option<DataSet>>) {
    let frags = &placement.fragments;
    let last = frags.len() - 1;
    let frag = &frags[pos];
    let mut metrics = Metrics::default();
    metrics.fragments += 1;
    let result = (|| -> Result<Option<DataSet>> {
        let mut fspan = tracer.start(query_id, || format!("fragment:{}", frag.id), &frag.site);
        let mut tlog = if pos == last {
            TransferLog::inert()
        } else {
            TransferLog::start(tracer, fspan.id(), frag)
        };
        if frag.site != APP_SITE
            && pos != last
            && opts.transfer == TransferMode::RemoteTcp
            && try_remote_push(
                registry,
                frag,
                opts,
                &mut metrics,
                staged,
                tracer,
                &mut tlog,
            )?
        {
            return Ok(None);
        }
        let out = if frag.site == APP_SITE {
            let inert;
            let handle = match progress {
                Some(p) => p,
                None => {
                    inert = progress::ProgressTracker::noop();
                    &inert
                }
            };
            run_app_iterate(
                registry,
                &frag.plan,
                opts,
                &mut metrics,
                tracer,
                fspan.id(),
                handle,
            )?
        } else {
            execute_fragment(
                registry,
                placement,
                frag,
                opts,
                &mut metrics,
                cache,
                staged,
                tracer,
                fspan.id(),
            )?
        };
        fspan.set_rows(out.num_rows());
        if pos == last {
            let bytes = encode_dataset(&out).len();
            metrics.record_transfer(&opts.net, &frag.site, "app", bytes, false);
            let mut rspan = tracer.start(query_id, || "transfer:result".into(), &frag.site);
            rspan.set_bytes(bytes as u64);
            rspan.set_rows(out.num_rows());
            rspan.finish();
            return Ok(Some(out));
        }
        if opts.recovery.enabled && opts.recovery.failover {
            cache.lock().unwrap().insert(frag.id, out.clone());
        }
        if let Err(e) = stage_output(
            registry,
            frag,
            out,
            opts,
            &mut metrics,
            staged,
            tracer,
            &mut tlog,
        ) {
            if !(opts.recovery.enabled && opts.recovery.failover) {
                return Err(e);
            }
            // Leave delivery to the consumer's failover path (see the
            // sequential loop).
        }
        Ok(None)
    })();
    (metrics, result)
}

thread_local! {
    /// Placement nesting depth on this thread: 0 outside a query, >0
    /// inside (app-driven iteration re-enters the executor per round).
    static QUERY_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Register the outermost placement of this thread on the global
/// progress board; nested placements get an inert handle.
fn enter_query(placement: &Placement, tracer: &Tracer) -> ProgressHandle {
    let depth = QUERY_DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    if depth > 0 {
        return progress::ProgressTracker::noop();
    }
    let root = placement
        .fragments
        .last()
        .expect("placement checked non-empty");
    let label = format!("query:{}", root.plan.op_kind().name());
    flight::global().record("app", || {
        format!(
            "query start: {label} ({} fragments)",
            placement.fragments.len()
        )
    });
    progress::global().start(&label, tracer.trace_id())
}

/// Counterpart of [`enter_query`]: pop the depth, settle the progress
/// entry, and — when the outermost query failed permanently — dump the
/// flight recorder and attach the dump path to the surfaced error.
fn leave_query(
    progress: ProgressHandle,
    tracer: &Tracer,
    outcome: Result<DataSet>,
) -> Result<DataSet> {
    let top_level = progress.is_active();
    QUERY_DEPTH.with(|d| d.set(d.get() - 1));
    match outcome {
        Ok(ds) => {
            progress.finish();
            Ok(ds)
        }
        Err(e) => {
            flight::global().record("app", || format!("query failed permanently: {e}"));
            progress.fail();
            if !top_level {
                return Err(e);
            }
            let tag = dump_tag(tracer);
            match flight::global().dump_for_failure(&tag) {
                Some(path) => Err(attach_note(e, &format!("flight:{}", path.display()))),
                None => Err(e),
            }
        }
    }
}

/// A unique-enough dump-file tag: the trace id when tracing, else a
/// process-wide failure counter.
fn dump_tag(tracer: &Tracer) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static FAILURES: AtomicU64 = AtomicU64::new(0);
    let n = FAILURES.fetch_add(1, Ordering::Relaxed);
    if tracer.is_enabled() {
        format!("{:016x}", tracer.trace_id())
    } else {
        format!("q{n}")
    }
}

/// Append an operator-facing note (the flight-dump path) to an error
/// without changing its variant or transience. Structured variants that
/// carry no free-form message pass through untouched — the dump file
/// still exists on disk either way.
fn attach_note(e: CoreError, note: &str) -> CoreError {
    match e {
        CoreError::Plan(m) => CoreError::Plan(format!("{m} [{note}]")),
        CoreError::Expr(m) => CoreError::Expr(format!("{m} [{note}]")),
        CoreError::Lower(m) => CoreError::Lower(format!("{m} [{note}]")),
        CoreError::Corrupt(m) => CoreError::Corrupt(format!("{m} [{note}]")),
        CoreError::Net(m) => CoreError::Net(format!("{m} [{note}]")),
        CoreError::Remote { addr, msg } => CoreError::Remote {
            addr,
            msg: format!("{msg} [{note}]"),
        },
        CoreError::Transient(inner) => CoreError::transient(attach_note(*inner, note)),
        other => other,
    }
}

/// The attempt history of one fragment-output transfer, emitted as a
/// single `transfer:{id}` span once delivery succeeds (or, on total
/// failure, when the log drops — the span then ends without a `mode:`
/// event). Inert when tracing is disabled: every method is a null check.
struct TransferLog {
    guard: Option<SpanGuard>,
}

impl TransferLog {
    fn start(tracer: &Tracer, parent: Option<u64>, frag: &Fragment) -> TransferLog {
        TransferLog {
            guard: Some(tracer.start(parent, || format!("transfer:{}", frag.id), &frag.site)),
        }
    }

    /// A log that records nothing (root fragments stage no output).
    fn inert() -> TransferLog {
        TransferLog { guard: None }
    }

    /// The transfer span's id, for parenting retry events onto it.
    fn span_id(&self) -> Option<u64> {
        self.guard.as_ref().and_then(|g| g.id())
    }

    fn event(&mut self, label: impl FnOnce() -> String) {
        if let Some(g) = &mut self.guard {
            g.event(label);
        }
    }

    /// Delivery succeeded on the given ladder rung: stamp the final mode
    /// and payload size and close the span.
    fn delivered(&mut self, mode: &'static str, bytes: usize) {
        if let Some(mut g) = self.guard.take() {
            g.event(|| format!("mode:{mode}"));
            g.set_bytes(bytes as u64);
            g.finish();
        }
    }
}

/// Attempt the real server→server push of a non-root fragment's output
/// (RemoteTcp mode). Returns `Ok(true)` when the output was delivered,
/// `Ok(false)` to fall back to the store-based path — either because the
/// providers have no transport, or because the push failed and the
/// executor degrades the transfer (counted in `degraded_transfers`).
#[allow(clippy::too_many_arguments)]
fn try_remote_push(
    registry: &Registry,
    frag: &Fragment,
    opts: &ExecOptions,
    metrics: &mut Metrics,
    staged: &Mutex<Vec<(String, String)>>,
    tracer: &Tracer,
    tlog: &mut TransferLog,
) -> Result<bool> {
    let provider = registry.provider(&frag.site)?;
    let dest = registry.provider(&frag.dest_site)?;
    let Some(dest_ep) = dest.endpoint() else {
        return Ok(false);
    };
    let name = format!("{FRAG_PREFIX}{}", frag.id);
    let plan_bytes = encode_plan(&frag.plan);
    let attempts = opts.recovery.attempts();
    let mut backoff = opts.recovery.backoff;
    for attempt in 0..attempts {
        if attempt > 0 {
            metrics.retries += 1;
            sleep_backoff(&mut backoff);
        }
        tlog.event(|| "attempt:push".into());
        metrics.record_plan_shipment(&opts.net, plan_bytes.len());
        let before = wire_total(provider.as_ref());
        let pushed = {
            let _scope = scope::install(tracer, provider.name(), tlog.span_id());
            provider.execute_push(&frag.plan, &dest_ep, &name)
        };
        match pushed {
            None => {
                // Provider has no transport: un-count the shipment we
                // charged optimistically and fall back to store-based.
                metrics.messages -= 1;
                metrics.plan_bytes -= plan_bytes.len();
                metrics.sim_network_s -= opts.net.message_time(plan_bytes.len());
                return Ok(false);
            }
            Some(Ok(pushed)) => {
                // Client-side traffic (request + ack) plus the
                // server-to-server payload are all real bytes.
                metrics.real_wire_bytes += pushed + (wire_total(provider.as_ref()) - before);
                metrics.record_transfer(
                    &opts.net,
                    &frag.site,
                    &frag.dest_site,
                    pushed as usize,
                    false,
                );
                registry.health().record_success(&frag.site);
                staged.lock().unwrap().push((frag.dest_site.clone(), name));
                tlog.delivered("push", pushed as usize);
                return Ok(true);
            }
            Some(Err(e)) => {
                metrics.real_wire_bytes += wire_total(provider.as_ref()) - before;
                tlog.event(|| format!("error:{e}"));
                flight::global().record(&frag.site, || {
                    format!("push fragment:{}@{} failed: {e}", frag.id, frag.site)
                });
                if registry.health().record_failure(&frag.site) {
                    metrics.breaker_trips += 1;
                    tlog.event(|| format!("breaker:trip:{}", frag.site));
                    flight::global().record(&frag.site, || format!("breaker trip: {}", frag.site));
                }
                if opts.recovery.enabled && e.is_transient() && attempt + 1 < attempts {
                    continue;
                }
                if !opts.recovery.enabled {
                    return Err(e);
                }
                // Push is unrecoverable here: degrade to the store-based
                // Direct path (the executor re-runs the fragment below).
                metrics.degraded_transfers += 1;
                tlog.event(|| "degrade:direct".into());
                return Ok(false);
            }
        }
    }
    unreachable!("push loop returns from its last attempt")
}

/// Run one non-app fragment with retry and, when that fails for good,
/// failover onto another capable provider.
#[allow(clippy::too_many_arguments)]
fn execute_fragment(
    registry: &Registry,
    placement: &Placement,
    frag: &Fragment,
    opts: &ExecOptions,
    metrics: &mut Metrics,
    cache: &Mutex<HashMap<usize, DataSet>>,
    staged: &Mutex<Vec<(String, String)>>,
    tracer: &Tracer,
    span: Option<u64>,
) -> Result<DataSet> {
    let primary = match execute_at(
        registry, &frag.site, &frag.plan, opts, metrics, tracer, span,
    ) {
        Ok(out) => return Ok(out),
        Err(e) => e,
    };
    if !(opts.recovery.enabled && opts.recovery.failover) {
        return Err(primary);
    }
    tracer.event(span, || format!("failed:{}:{primary}", frag.site));
    flight::global().record(&frag.site, || {
        format!(
            "fragment:{}@{} failed permanently: {primary}",
            frag.id, frag.site
        )
    });
    for candidate in failover_candidates(registry, frag) {
        if reship_inputs(
            registry, placement, frag, &candidate, opts, metrics, cache, staged, tracer, span,
        )
        .is_err()
        {
            continue;
        }
        if let Ok(out) = execute_at(
            registry, &candidate, &frag.plan, opts, metrics, tracer, span,
        ) {
            metrics.failovers += 1;
            tracer.event(span, || format!("failover:{candidate}"));
            flight::global().record(&candidate, || {
                format!("failover: fragment:{} {}→{candidate}", frag.id, frag.site)
            });
            return Ok(out);
        }
    }
    // No candidate could take over: surface the original failure.
    Err(primary)
}

/// Ship `plan` to the provider at `site` and execute it, retrying
/// transient failures per the recovery policy. Reports outcomes to the
/// registry's health board.
#[allow(clippy::too_many_arguments)]
fn execute_at(
    registry: &Registry,
    site: &str,
    plan: &Plan,
    opts: &ExecOptions,
    metrics: &mut Metrics,
    tracer: &Tracer,
    span: Option<u64>,
) -> Result<DataSet> {
    let provider = registry.provider(site)?;
    let plan_bytes = encode_plan(plan);
    let attempts = opts.recovery.attempts();
    let mut backoff = opts.recovery.backoff;
    let mut last_err = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            metrics.retries += 1;
            tracer.event(span, || {
                format!("retry:execute@{site} attempt {}", attempt + 1)
            });
            sleep_backoff(&mut backoff);
        }
        // The plan ships to the provider as one expression tree, once per
        // attempt — retries are not free.
        metrics.record_plan_shipment(&opts.net, plan_bytes.len());
        let before = wire_total(provider.as_ref());
        // When tracing, the provider's internal spans (per-operator
        // timings, server-side handling) land under this fragment's span
        // through the thread-local scope.
        let result = {
            let _scope = scope::install(tracer, provider.name(), span);
            provider.execute(plan)
        };
        metrics.real_wire_bytes += wire_total(provider.as_ref()) - before;
        match result {
            Ok(out) => {
                registry.health().record_success(site);
                return Ok(out);
            }
            Err(e) => {
                flight::global().record(site, || {
                    format!("execute@{site} attempt {} failed: {e}", attempt + 1)
                });
                if registry.health().record_failure(site) {
                    metrics.breaker_trips += 1;
                    tracer.event(span, || format!("breaker:trip:{site}"));
                    flight::global().record(site, || format!("breaker trip: {site}"));
                }
                let transient = e.is_transient();
                last_err = Some(e);
                if !transient {
                    break;
                }
            }
        }
    }
    Err(last_err.expect("at least one attempt ran"))
}

/// Providers able to take over `frag` after its pinned site failed for
/// good: breaker-available, capability-covering, and already holding every
/// base dataset the fragment scans (staged inputs are re-shipped, base
/// data is not).
fn failover_candidates(registry: &Registry, frag: &Fragment) -> Vec<String> {
    let base_scans: Vec<String> = frag
        .plan
        .scanned_datasets()
        .into_iter()
        .filter(|d| !d.starts_with(FRAG_PREFIX))
        .collect();
    registry
        .providers()
        .iter()
        .filter(|p| p.name() != frag.site)
        .filter(|p| registry.health().is_available(p.name()))
        .filter(|p| p.capabilities().supports_plan(&frag.plan))
        .filter(|p| base_scans.iter().all(|d| p.schema_of(d).is_some()))
        .map(|p| p.name().to_string())
        .collect()
}

/// Re-ship a failed-over fragment's staged inputs to its new site. Inputs
/// the app tier never saw (RemoteTcp pushes) are recovered by re-running
/// their producer fragments.
#[allow(clippy::too_many_arguments)]
fn reship_inputs(
    registry: &Registry,
    placement: &Placement,
    frag: &Fragment,
    new_site: &str,
    opts: &ExecOptions,
    metrics: &mut Metrics,
    cache: &Mutex<HashMap<usize, DataSet>>,
    staged: &Mutex<Vec<(String, String)>>,
    tracer: &Tracer,
    span: Option<u64>,
) -> Result<()> {
    let dest = registry.provider(new_site)?;
    for &input in &frag.inputs {
        // Never hold the cache lock across a provider call: on a miss the
        // producer re-runs (possibly slowly) and other fragments must keep
        // making progress.
        let cached = cache.lock().unwrap().get(&input).cloned();
        let data = match cached {
            Some(d) => d,
            None => {
                let producer = placement
                    .fragments
                    .iter()
                    .find(|f| f.id == input)
                    .ok_or_else(|| CoreError::Plan(format!("unknown fragment input {input}")))?;
                let out = execute_at(
                    registry,
                    &producer.site,
                    &producer.plan,
                    opts,
                    metrics,
                    tracer,
                    span,
                )?;
                cache.lock().unwrap().insert(input, out.clone());
                out
            }
        };
        let name = format!("{FRAG_PREFIX}{input}");
        let bytes = encode_dataset(&data).len();
        // The recovery hop goes through the app tier by construction.
        metrics.record_transfer(&opts.net, "app", new_site, bytes, true);
        let mut rspan = tracer.start(span, || format!("reship:{input}"), "app");
        rspan.set_bytes(bytes as u64);
        let before = wire_total(dest.as_ref());
        dest.store(&name, data)?;
        metrics.real_wire_bytes += wire_total(dest.as_ref()) - before;
        rspan.finish();
        staged.lock().unwrap().push((new_site.to_string(), name));
    }
    Ok(())
}

/// Stage a fragment's output at the consuming site, retrying transient
/// store failures; a Direct transfer that keeps failing degrades to the
/// app-routed path (counted in `degraded_transfers`) before giving up.
#[allow(clippy::too_many_arguments)]
fn stage_output(
    registry: &Registry,
    frag: &Fragment,
    out: DataSet,
    opts: &ExecOptions,
    metrics: &mut Metrics,
    staged: &Mutex<Vec<(String, String)>>,
    tracer: &Tracer,
    tlog: &mut TransferLog,
) -> Result<()> {
    let name = format!("{FRAG_PREFIX}{}", frag.id);
    let bytes = encode_dataset(&out).len();
    let via_app = opts.transfer == TransferMode::AppRouted;
    let rung = if via_app { "app-routed" } else { "direct" };
    tlog.event(|| format!("attempt:{rung}"));
    match store_with_retry(
        registry,
        &frag.dest_site,
        &name,
        &out,
        opts,
        metrics,
        tracer,
        tlog.span_id(),
    ) {
        Ok(()) => {
            metrics.record_transfer(&opts.net, &frag.site, &frag.dest_site, bytes, via_app);
            staged.lock().unwrap().push((frag.dest_site.clone(), name));
            tlog.delivered(rung, bytes);
            Ok(())
        }
        Err(e) if !via_app && opts.recovery.enabled => {
            // Degrade Direct → AppRouted: the app tier takes custody of
            // the intermediate and re-delivers it on the two-hop path.
            metrics.degraded_transfers += 1;
            tlog.event(|| format!("error:{e}"));
            tlog.event(|| "degrade:app-routed".into());
            tlog.event(|| "attempt:app-routed".into());
            store_with_retry(
                registry,
                &frag.dest_site,
                &name,
                &out,
                opts,
                metrics,
                tracer,
                tlog.span_id(),
            )
            .map_err(|_| e)?;
            metrics.record_transfer(&opts.net, &frag.site, &frag.dest_site, bytes, true);
            staged.lock().unwrap().push((frag.dest_site.clone(), name));
            tlog.delivered("app-routed", bytes);
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// `Provider::store` with transient-failure retry and health reporting.
#[allow(clippy::too_many_arguments)]
fn store_with_retry(
    registry: &Registry,
    site: &str,
    name: &str,
    data: &DataSet,
    opts: &ExecOptions,
    metrics: &mut Metrics,
    tracer: &Tracer,
    span: Option<u64>,
) -> Result<()> {
    let provider = registry.provider(site)?;
    let attempts = opts.recovery.attempts();
    let mut backoff = opts.recovery.backoff;
    let mut last_err = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            metrics.retries += 1;
            tracer.event(span, || {
                format!("retry:store@{site} attempt {}", attempt + 1)
            });
            sleep_backoff(&mut backoff);
        }
        let before = wire_total(provider.as_ref());
        let result = provider.store(name, data.clone());
        metrics.real_wire_bytes += wire_total(provider.as_ref()) - before;
        match result {
            Ok(()) => {
                registry.health().record_success(site);
                return Ok(());
            }
            Err(e) => {
                flight::global().record(site, || {
                    format!("store {name}@{site} attempt {} failed: {e}", attempt + 1)
                });
                if registry.health().record_failure(site) {
                    metrics.breaker_trips += 1;
                    tracer.event(span, || format!("breaker:trip:{site}"));
                    flight::global().record(site, || format!("breaker trip: {site}"));
                }
                let transient = e.is_transient();
                last_err = Some(e);
                if !transient {
                    break;
                }
            }
        }
    }
    Err(last_err.expect("at least one attempt ran"))
}

/// Sleep the current backoff, then double it for the next retry.
fn sleep_backoff(backoff: &mut Duration) {
    if !backoff.is_zero() {
        std::thread::sleep(*backoff);
        *backoff = backoff.saturating_mul(2);
    }
}

/// Total real transport traffic of a provider (sent + received).
fn wire_total(p: &dyn bda_core::Provider) -> u64 {
    let (sent, received) = p.wire_bytes();
    sent + received
}

/// Client/app-driven iteration: the fallback when no provider can host an
/// `Iterate` node. Each iteration re-enters the federation with the loop
/// state inlined as a `Values` literal — so the state crosses the wire
/// (inside the shipped plan) every round, which is precisely the cost the
/// paper's "control iteration" extension avoids.
fn run_app_iterate(
    registry: &Registry,
    plan: &Plan,
    opts: &ExecOptions,
    metrics: &mut Metrics,
    tracer: &Tracer,
    span: Option<u64>,
    progress: &ProgressHandle,
) -> Result<DataSet> {
    let Plan::Iterate {
        init,
        body,
        max_iters,
        epsilon,
    } = plan
    else {
        return Err(CoreError::Plan(format!(
            "app-site fragment must be an iterate, got {}",
            plan.op_kind().name()
        )));
    };
    let (mut cur, m) = run_plan_traced(registry, init, opts, tracer, span)?;
    metrics.absorb(m);
    for round in 0..*max_iters {
        tracer.event(span, || format!("iteration:{}", round + 1));
        // One span per iteration: the round's fragments nest under it and
        // its events carry the convergence numbers the `/progress`
        // endpoint and `EXPLAIN ANALYZE`'s convergence table render.
        let mut ispan = tracer.start(span, || format!("iteration:{}", round + 1), APP_SITE);
        let state_rows: Vec<Row> = cur.rows()?;
        let body_inlined = substitute_state(body, &cur, &state_rows);
        let (next, m) = run_plan_traced(registry, &body_inlined, opts, tracer, ispan.id())?;
        metrics.absorb(m);
        metrics.client_driven_iterations += 1;
        let rep = report(&cur, &next, *epsilon)?;
        ispan.set_rows(next.num_rows());
        ispan.event(|| match rep.delta {
            Some(d) => format!("delta:{d:.9}"),
            None => "delta:undefined".into(),
        });
        ispan.event(|| format!("rows_changed:{}", rep.rows_changed));
        ispan.finish();
        progress.iteration(round + 1, *max_iters, rep.delta, Some(rep.rows_changed));
        flight::global().record(APP_SITE, || {
            format!(
                "iteration:{} delta:{:?} rows_changed:{}",
                round + 1,
                rep.delta,
                rep.rows_changed
            )
        });
        cur = next;
        if rep.converged {
            break;
        }
    }
    Ok(cur)
}

/// Replace every `IterState` leaf by a `Values` literal of the current
/// state.
fn substitute_state(body: &Plan, state: &DataSet, rows: &[Row]) -> Plan {
    body.transform_up(&|node| match node {
        Plan::IterState { .. } => Plan::Values {
            schema: state.schema().clone(),
            rows: rows.to_vec(),
        },
        other => other,
    })
}

/// Convenience for tests: the total float of a single-cell result.
pub fn scalar_of(ds: &DataSet) -> Result<Value> {
    let rows = ds.rows()?;
    if rows.len() != 1 || rows[0].len() != 1 {
        return Err(CoreError::Plan(format!(
            "expected a scalar result, got {} rows x {} cols",
            rows.len(),
            rows.first().map(|r| r.len()).unwrap_or(0)
        )));
    }
    Ok(rows[0].get(0).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::reference::evaluate;
    use bda_core::{col, lit, AggExpr, AggFunc, Provider};
    use bda_linalg::LinAlgEngine;
    use bda_relational::RelationalEngine;
    use bda_storage::dataset::{dataset_matrix, matrix_dataset};
    use bda_storage::Column;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn registry() -> Registry {
        let rel = RelationalEngine::new("rel");
        rel.store(
            "sales",
            DataSet::from_columns(vec![
                ("k", Column::from(vec![1i64, 2, 3, 4])),
                ("v", Column::from(vec![1.0f64, 2.0, 3.0, 4.0])),
            ])
            .unwrap(),
        )
        .unwrap();
        rel.store(
            "a_rows",
            matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        )
        .unwrap();
        let la = LinAlgEngine::new("la");
        la.store(
            "b",
            matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap(),
        )
        .unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(rel));
        r.register(Arc::new(la));
        r
    }

    #[test]
    fn single_site_query() {
        let r = registry();
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap())
            .select(col("v").gt(lit(1.5)))
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("v"), "s")]);
        let (out, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        assert_eq!(scalar_of(&out).unwrap(), Value::Float(9.0));
        assert_eq!(m.fragments, 1);
        assert_eq!(m.app_tier_bytes(), 0);
    }

    #[test]
    fn cross_engine_matmul_direct_vs_routed() {
        let r = registry();
        let plan = Plan::scan("a_rows", r.schema_of("a_rows").unwrap()).matmul(Plan::scan(
            "b",
            r.provider("la").unwrap().schema_of("b").unwrap(),
        ));
        let direct = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        let routed = run_plan(
            &r,
            &plan,
            &ExecOptions {
                transfer: TransferMode::AppRouted,
                ..Default::default()
            },
        )
        .unwrap();
        // Same answer either way.
        let (_, _, d1) = dataset_matrix(&direct.0).unwrap();
        let (_, _, d2) = dataset_matrix(&routed.0).unwrap();
        assert_eq!(d1, vec![58., 64., 139., 154.]);
        assert_eq!(d1, d2);
        // Direct: zero bytes through the app tier; routed: all
        // intermediate bytes through it; both move the same data total.
        assert_eq!(direct.1.app_tier_bytes(), 0);
        assert!(routed.1.app_tier_bytes() > 0);
        assert_eq!(direct.1.data_bytes(), routed.1.data_bytes());
        assert!(routed.1.sim_network_s > direct.1.sim_network_s);
        // Intermediates are cleaned up afterwards.
        assert!(r
            .provider("la")
            .unwrap()
            .catalog()
            .iter()
            .all(|(n, _)| !n.starts_with(FRAG_PREFIX)));
    }

    #[test]
    fn federated_result_matches_reference() {
        let r = registry();
        let plan = Plan::scan("a_rows", r.schema_of("a_rows").unwrap()).matmul(Plan::scan(
            "b",
            r.provider("la").unwrap().schema_of("b").unwrap(),
        ));
        let (out, _) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        // Oracle over a merged source.
        let mut src = HashMap::new();
        src.insert(
            "a_rows".to_string(),
            matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        );
        src.insert(
            "b".to_string(),
            matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap(),
        );
        let oracle = evaluate(&plan, &src).unwrap();
        // linalg result is dense; compare after normalizing layout.
        assert_eq!(out.sorted_rows().unwrap(), oracle.sorted_rows().unwrap());
    }

    #[test]
    fn server_side_iteration_stays_on_server() {
        let r = registry();
        // halve `v` until it converges; relational engine hosts Iterate.
        let schema = r.schema_of("sales").unwrap();
        let plan = Plan::Iterate {
            init: Plan::scan("sales", schema.clone()).boxed(),
            body: Plan::IterState { schema }
                .project(vec![("k", col("k")), ("v", col("v").mul(lit(0.5)))])
                .boxed(),
            max_iters: 50,
            epsilon: Some(1e-6),
        };
        let (out, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        assert_eq!(m.client_driven_iterations, 0, "loop must run server-side");
        assert_eq!(m.fragments, 1);
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn app_driven_iteration_when_no_server_supports_it() {
        // Registry with linalg only: Iterate is driven by the app tier.
        let la = LinAlgEngine::new("la");
        la.store("m", matrix_dataset(2, 2, vec![0.5, 0., 0., 0.5]).unwrap())
            .unwrap();
        la.store("x", matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap())
            .unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(la));
        let m_schema = r.provider("la").unwrap().schema_of("m").unwrap();
        let x_schema = r.provider("la").unwrap().schema_of("x").unwrap();
        let plan = Plan::Iterate {
            init: Plan::scan("x", x_schema.clone()).boxed(),
            body: Plan::scan("m", m_schema)
                .matmul(Plan::IterState { schema: x_schema })
                .boxed(),
            max_iters: 4,
            epsilon: None,
        };
        let (out, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        assert_eq!(m.client_driven_iterations, 4);
        let (_, _, data) = dataset_matrix(&out).unwrap();
        // (0.5 I)^4 = 0.0625 I.
        assert!((data[0] - 0.0625).abs() < 1e-12, "{data:?}");
        assert!((data[3] - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn empty_placement_is_an_error() {
        let r = registry();
        let err = execute_placement(
            &r,
            &Placement { fragments: vec![] },
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("empty placement"), "{err}");
    }

    #[test]
    fn transient_failures_retry_to_success() {
        use crate::fault::{FaultConfig, FaultyProvider};
        let rel = RelationalEngine::new("rel");
        rel.store(
            "sales",
            DataSet::from_columns(vec![
                ("k", Column::from(vec![1i64, 2, 3, 4])),
                ("v", Column::from(vec![1.0f64, 2.0, 3.0, 4.0])),
            ])
            .unwrap(),
        )
        .unwrap();
        let faulty = FaultyProvider::new(
            Arc::new(rel),
            FaultConfig {
                fail_first: 2,
                ..FaultConfig::default()
            },
        );
        let mut r = Registry::new();
        r.register(Arc::new(faulty));
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap())
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("v"), "s")]);
        let (out, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        assert_eq!(scalar_of(&out).unwrap(), Value::Float(10.0));
        assert_eq!(m.retries, 2);
        assert_eq!(m.failovers, 0);
    }

    #[test]
    fn recovery_disabled_surfaces_the_failure() {
        use crate::fault::{FaultConfig, FaultyProvider};
        let rel = RelationalEngine::new("rel");
        rel.store(
            "sales",
            DataSet::from_columns(vec![("v", Column::from(vec![1.0f64]))]).unwrap(),
        )
        .unwrap();
        let faulty = FaultyProvider::new(
            Arc::new(rel),
            FaultConfig {
                fail_first: 1,
                ..FaultConfig::default()
            },
        );
        let mut r = Registry::new();
        r.register(Arc::new(faulty));
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap()).limit(1);
        let opts = ExecOptions {
            recovery: RecoveryPolicy::disabled(),
            ..Default::default()
        };
        let err = run_plan(&r, &plan, &opts).unwrap_err();
        assert!(err.to_string().contains("injected transient"), "{err}");
    }

    #[test]
    fn crashed_provider_fails_over_to_replica() {
        use crate::fault::{FaultConfig, FaultyProvider};
        let rel = RelationalEngine::new("rel");
        rel.store(
            "a_rows",
            matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        )
        .unwrap();
        let b = matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let la1 = LinAlgEngine::new("la1");
        la1.store("b", b.clone()).unwrap();
        let la2 = LinAlgEngine::new("la2");
        la2.store("b", b).unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(rel));
        // la1 registers first, so the planner pins the matmul there — but
        // it is dead on arrival. la2 is the identical replica.
        r.register(Arc::new(FaultyProvider::new(
            Arc::new(la1),
            FaultConfig::crash_after(0),
        )));
        r.register(Arc::new(la2));
        let plan = Plan::scan("a_rows", r.schema_of("a_rows").unwrap()).matmul(Plan::scan(
            "b",
            r.provider("la2").unwrap().schema_of("b").unwrap(),
        ));
        let (out, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        let (_, _, data) = dataset_matrix(&out).unwrap();
        assert_eq!(data, vec![58., 64., 139., 154.]);
        assert_eq!(m.failovers, 1);
        assert!(m.degraded_transfers >= 1, "staging at la1 degraded first");
        // The failover re-ship is cleaned up like any staged intermediate.
        assert!(r
            .provider("la2")
            .unwrap()
            .catalog()
            .iter()
            .all(|(n, _)| !n.starts_with(FRAG_PREFIX)));
    }

    #[test]
    fn degraded_transfer_is_one_span_with_every_attempt() {
        use crate::fault::{FaultConfig, FaultyProvider};

        /// A provider with a (fake) network endpoint, so the RemoteTcp
        /// path actually attempts a push at its producer.
        struct WithEndpoint {
            inner: LinAlgEngine,
        }
        impl Provider for WithEndpoint {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn capabilities(&self) -> bda_core::CapabilitySet {
                self.inner.capabilities()
            }
            fn catalog(&self) -> Vec<(String, bda_storage::Schema)> {
                self.inner.catalog()
            }
            fn execute(&self, plan: &Plan) -> Result<DataSet> {
                self.inner.execute(plan)
            }
            fn store(&self, name: &str, data: DataSet) -> Result<()> {
                self.inner.store(name, data)
            }
            fn remove(&self, name: &str) {
                self.inner.remove(name)
            }
            fn row_count_of(&self, name: &str) -> Option<usize> {
                self.inner.row_count_of(name)
            }
            fn endpoint(&self) -> Option<String> {
                Some("127.0.0.1:9".into())
            }
        }

        let rel = RelationalEngine::new("rel");
        rel.store(
            "a_rows",
            matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        )
        .unwrap();
        let la = LinAlgEngine::new("la");
        la.store(
            "b",
            matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap(),
        )
        .unwrap();
        // Producer: its first 3 faultable calls (the 3 push attempts)
        // fail, then the fragment's execute succeeds. Consumer: its
        // first 3 faultable calls (the 3 direct-store attempts) fail,
        // then the app-routed store and the matmul succeed. Both
        // streams are seeded and deterministic.
        let mut r = Registry::new();
        r.register(Arc::new(FaultyProvider::new(
            Arc::new(rel),
            FaultConfig {
                seed: 7,
                fail_first: 3,
                ..FaultConfig::default()
            },
        )));
        r.register(Arc::new(FaultyProvider::new(
            Arc::new(WithEndpoint { inner: la }),
            FaultConfig {
                seed: 7,
                fail_first: 3,
                ..FaultConfig::default()
            },
        )));
        let plan = Plan::scan("a_rows", r.schema_of("a_rows").unwrap()).matmul(Plan::scan(
            "b",
            r.provider("la").unwrap().schema_of("b").unwrap(),
        ));
        let opts = ExecOptions {
            transfer: TransferMode::RemoteTcp,
            ..Default::default()
        };
        let tracer = Tracer::new(7);
        let (out, m) = run_plan_traced(&r, &plan, &opts, &tracer, None).unwrap();
        let (_, _, data) = dataset_matrix(&out).unwrap();
        assert_eq!(data, vec![58., 64., 139., 154.]);
        assert_eq!(m.degraded_transfers, 2, "push→direct and direct→app-routed");

        // The whole ladder is ONE transfer span whose events record
        // every attempt: 3 pushes, the direct try, the app-routed try.
        let trace = tracer.finish();
        let transfers = trace.spans_named("transfer:0");
        assert_eq!(transfers.len(), 1, "one span per transfer:\n{transfers:#?}");
        let t = transfers[0];
        let labels: Vec<&str> = t.events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(
            labels.iter().filter(|l| **l == "attempt:push").count(),
            3,
            "{labels:?}"
        );
        for needed in [
            "degrade:direct",
            "attempt:direct",
            "degrade:app-routed",
            "attempt:app-routed",
            "mode:app-routed",
        ] {
            assert!(labels.contains(&needed), "missing {needed}: {labels:?}");
        }
        // Attempts appear in ladder order.
        let pos = |l: &str| labels.iter().position(|x| *x == l).unwrap();
        assert!(pos("attempt:push") < pos("attempt:direct"), "{labels:?}");
        assert!(
            pos("attempt:direct") < pos("attempt:app-routed"),
            "{labels:?}"
        );
        assert!(t.bytes.is_some(), "delivered payload size recorded");
    }

    #[test]
    fn parallel_execution_matches_sequential_and_records_partition_spans() {
        let r = registry();
        let schema = r.schema_of("sales").unwrap();
        let scan = Plan::scan("sales", schema);
        let plan = scan
            .clone()
            .join(scan, vec![("k", "k")])
            .aggregate(vec!["k"], vec![AggExpr::new(AggFunc::Sum, col("v"), "s")]);
        let seq = run_plan(
            &r,
            &plan,
            &ExecOptions {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let tracer = Tracer::new(11);
        let opts = ExecOptions {
            workers: 4,
            ..Default::default()
        };
        let (out, m) = run_plan_traced(&r, &plan, &opts, &tracer, None).unwrap();
        assert!(out.same_bag(&seq.0).unwrap());
        assert_eq!(m.fragments, seq.1.fragments);
        // The engine ran partitioned kernels: per-partition spans land in
        // the trace (join and aggregate each split into 4).
        let parts = tracer.finish().spans_named("partition:").len();
        assert!(parts >= 8, "expected per-partition spans, got {parts}");
    }

    #[test]
    fn parallel_execution_preserves_failover() {
        use crate::fault::{FaultConfig, FaultyProvider};
        let rel = RelationalEngine::new("rel");
        rel.store(
            "a_rows",
            matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        )
        .unwrap();
        let b = matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let la1 = LinAlgEngine::new("la1");
        la1.store("b", b.clone()).unwrap();
        let la2 = LinAlgEngine::new("la2");
        la2.store("b", b).unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(rel));
        r.register(Arc::new(FaultyProvider::new(
            Arc::new(la1),
            FaultConfig::crash_after(0),
        )));
        r.register(Arc::new(la2));
        let plan = Plan::scan("a_rows", r.schema_of("a_rows").unwrap()).matmul(Plan::scan(
            "b",
            r.provider("la2").unwrap().schema_of("b").unwrap(),
        ));
        let opts = ExecOptions {
            workers: 4,
            ..Default::default()
        };
        let (out, m) = run_plan(&r, &plan, &opts).unwrap();
        let (_, _, data) = dataset_matrix(&out).unwrap();
        assert_eq!(data, vec![58., 64., 139., 154.]);
        assert_eq!(m.failovers, 1);
        assert!(r
            .provider("la2")
            .unwrap()
            .catalog()
            .iter()
            .all(|(n, _)| !n.starts_with(FRAG_PREFIX)));
    }

    #[test]
    fn parallel_app_driven_iteration_matches_sequential() {
        let la = LinAlgEngine::new("la");
        la.store("m", matrix_dataset(2, 2, vec![0.5, 0., 0., 0.5]).unwrap())
            .unwrap();
        la.store("x", matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap())
            .unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(la));
        let m_schema = r.provider("la").unwrap().schema_of("m").unwrap();
        let x_schema = r.provider("la").unwrap().schema_of("x").unwrap();
        let plan = Plan::Iterate {
            init: Plan::scan("x", x_schema.clone()).boxed(),
            body: Plan::scan("m", m_schema)
                .matmul(Plan::IterState { schema: x_schema })
                .boxed(),
            max_iters: 4,
            epsilon: None,
        };
        let opts = ExecOptions {
            workers: 4,
            ..Default::default()
        };
        let (out, m) = run_plan(&r, &plan, &opts).unwrap();
        assert_eq!(m.client_driven_iterations, 4);
        let (_, _, data) = dataset_matrix(&out).unwrap();
        assert!((data[0] - 0.0625).abs() < 1e-12, "{data:?}");
        assert!((data[3] - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn parallel_failure_surfaces_earliest_fragment_error() {
        use crate::fault::{FaultConfig, FaultyProvider};
        let rel = RelationalEngine::new("rel");
        rel.store(
            "sales",
            DataSet::from_columns(vec![("v", Column::from(vec![1.0f64]))]).unwrap(),
        )
        .unwrap();
        let faulty = FaultyProvider::new(
            Arc::new(rel),
            FaultConfig {
                fail_first: 10,
                ..FaultConfig::default()
            },
        );
        let mut r = Registry::new();
        r.register(Arc::new(faulty));
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap()).limit(1);
        let opts = ExecOptions {
            recovery: RecoveryPolicy::disabled(),
            workers: 4,
            ..Default::default()
        };
        let err = run_plan(&r, &plan, &opts).unwrap_err();
        assert!(err.to_string().contains("injected transient"), "{err}");
    }

    #[test]
    fn plan_shipping_counts_bytes() {
        let r = registry();
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap()).limit(1);
        let (_, m) = run_plan(&r, &plan, &ExecOptions::default()).unwrap();
        assert!(m.plan_bytes > 0);
        assert!(m.messages >= 2); // plan shipment + result return
    }
}
