//! The federated executor: runs fragment DAGs across providers, moving
//! intermediates either **directly between servers** (desideratum 4) or
//! through the application tier (the baseline it is measured against).
//!
//! One scheduler runs every placement ([`execute_placement`]): it follows
//! the dependency edges between fragments and, with `workers > 1`,
//! dispatches independent ones onto a pool of threads. With one worker
//! it spawns nothing and runs every fragment inline, in placement order,
//! stopping at the first failure.
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
use bda_core::{pool, CoreError, Plan, Provider};
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

    /// Whether a permanently failed fragment fails over to another
    /// provider (and the app tier keeps outputs cached to re-ship).
    fn fails_over(&self) -> bool {
        self.enabled && self.failover
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
    /// Partition-parallel worker count. With `1` the executor runs every
    /// fragment inline on the calling thread, in placement order, and
    /// plans carry no `Exchange`/`Merge` markers; with `n > 1`
    /// independent fragments dispatch onto up to `n` threads and capable
    /// providers run their hot operators over `n` partitions. Defaults
    /// to 1.
    pub workers: usize,
    /// Consult the process-global [`bda_obs::profile::CostBook`] of
    /// measured costs during planning (site assignment and
    /// partition-count choices). Off by default — disabled calibration
    /// produces plans byte-identical to the static planner.
    pub calibrate: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            transfer: TransferMode::Direct,
            optimizer: OptimizerConfig::default(),
            net: NetConfig::default(),
            recovery: RecoveryPolicy::default(),
            workers: 1,
            calibrate: false,
        }
    }
}

/// Optimize, place and execute a plan across the registry's providers,
/// recording spans into `tracer` (pass [`Tracer::disabled`] for the
/// untraced path). `parent` is the span the query hangs under (`None`
/// for a top-level query; app-driven iteration nests its inner queries
/// under the iterating fragment's span).
pub fn run_plan(
    registry: &Registry,
    plan: &Plan,
    opts: &ExecOptions,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(DataSet, Metrics)> {
    let (_, fragments_pruned, placement) = place(registry, plan, opts)?;
    if fragments_pruned > 0 {
        // A dedicated span (rather than an event on `parent`, which is
        // `None` for top-level queries) so `EXPLAIN ANALYZE`'s pruning
        // section sees statistics-disproved fragments.
        let mut s = tracer.start(parent, || "optimize".into(), "app");
        s.event(|| format!("pruning: {fragments_pruned} fragment(s) eliminated by table stats"));
        s.finish();
    }
    execute_placement(registry, &placement, opts, tracer, parent)
}

/// Optimize and place `plan` under `opts`: the optimized plan, the number
/// of fragments table statistics eliminated, and the placement. Both
/// [`run_plan`] and `Federation::explain` place through here, so EXPLAIN
/// shows exactly the placement a run executes.
pub(crate) fn place(
    registry: &Registry,
    plan: &Plan,
    opts: &ExecOptions,
) -> Result<(Plan, usize, Placement)> {
    let (optimized, fragments_pruned) =
        optimize_with_stats(plan, opts.optimizer, &|name| registry.table_stats(name));
    let costs = opts
        .calibrate
        .then(|| bda_obs::profile::global_costs().clone());
    let placement = Planner::new(registry)
        .with_workers(opts.workers)
        .with_costs(costs)
        .with_stats(opts.optimizer.use_stats)
        .place(&optimized)?;
    Ok((optimized, fragments_pruned, placement))
}

/// Execute an already-fragmented plan, recording spans into `tracer`
/// under `parent`.
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
pub fn execute_placement(
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
    let query_span = tracer.start(parent, || "query".into(), "app");
    // Only the outermost placement on this thread registers on the
    // progress board; app-driven iteration re-enters the executor per
    // round and those inner queries ride the outer query's entry.
    let progress = enter_query(placement, tracer);
    let run = Run {
        registry,
        placement,
        opts,
        tracer,
        query_id: query_span.id(),
        progress: &progress,
        staged: Mutex::default(),
        cache: Mutex::default(),
    };
    let mut metrics = Metrics::default();
    let outcome = run.run_fragments(&mut metrics);

    // Clean up staged intermediates regardless of success.
    for (site, name) in run.staged.into_inner().expect(STAGED_POISONED) {
        if let Ok(p) = registry.provider(&site) {
            p.remove(&name);
        }
    }
    leave_query(progress, tracer, outcome).map(|ds| (ds, metrics))
}

/// One placement in flight: what every fragment of it shares, on the
/// coordinator thread and on pool workers alike.
struct Run<'a> {
    registry: &'a Registry,
    placement: &'a Placement,
    opts: &'a ExecOptions,
    tracer: &'a Tracer,
    /// The `query` span fragment spans hang under.
    query_id: Option<u64>,
    /// Only touched on the coordinator thread, where app-driven
    /// iteration reports its rounds.
    progress: &'a ProgressHandle,
    /// (site, name) cleanup list of every staged intermediate.
    staged: Mutex<Vec<(String, String)>>,
    /// Fragment outputs the app tier has custody of, keyed by fragment
    /// id; failover re-ships a failed fragment's inputs from here.
    cache: Mutex<HashMap<usize, DataSet>>,
}

const STAGED_POISONED: &str = "a fragment panicked while recording a staged intermediate";
const CACHE_POISONED: &str = "a fragment panicked while holding the failover cache";

/// A settled fragment: placement position, wall seconds, its metrics,
/// and its outcome (`Some(result)` only for the root fragment).
type Completion = (usize, f64, Metrics, Result<Option<DataSet>>);

impl Run<'_> {
    /// The one fragment scheduler, for every worker count. It honours the
    /// dependency edges recorded in [`Fragment::inputs`] and launches a
    /// fragment once all its inputs are done.
    ///
    /// Root and app-site fragments run inline on the coordinator thread —
    /// the root so its result transfer stays last, app-driven iteration
    /// because it re-enters the executor and must keep riding this
    /// thread's progress entry. Other fragments go to a pool of
    /// `min(workers, pool fragments)` threads; with `workers <= 1` there
    /// is no pool and every fragment runs inline, in placement order.
    /// Every fragment body runs under [`pool::with_workers`], so capable
    /// providers execute their `Exchange`/`Merge`-marked operators
    /// partition-parallel too.
    ///
    /// Per-fragment [`Metrics`] accumulate into separate instances and are
    /// absorbed in **placement order** once every fragment settles, so
    /// counters and the transfer log are identical run-to-run regardless
    /// of completion order. A fragment counts as done on `/progress` only
    /// when it succeeds. On failure, dispatch stops, in-flight fragments
    /// drain, and the error of the earliest-placed failed fragment
    /// surfaces.
    fn run_fragments(&self, metrics: &mut Metrics) -> Result<DataSet> {
        let frags = &self.placement.fragments;
        let n = frags.len();
        let last = n - 1;
        self.progress.set_fragments_total(n);
        // Fragment ids are planner counters, not positions; map them back.
        let pos_of: HashMap<usize, usize> =
            frags.iter().enumerate().map(|(p, f)| (f.id, p)).collect();
        let deps: Vec<Vec<usize>> = frags
            .iter()
            .map(|f| {
                f.inputs
                    .iter()
                    .filter_map(|id| pos_of.get(id).copied())
                    .collect()
            })
            .collect();
        let pinned = |pos: usize| pos == last || frags[pos].site == APP_SITE;
        let threads = if self.opts.workers <= 1 {
            0
        } else {
            self.opts
                .workers
                .min((0..n).filter(|&p| !pinned(p)).count())
        };
        let run_one = |pos: usize| -> Completion {
            let started = Instant::now();
            let mut m = Metrics {
                fragments: 1,
                ..Metrics::default()
            };
            let result = pool::with_workers(self.opts.workers, || self.fragment_body(pos, &mut m));
            (pos, started.elapsed().as_secs_f64(), m, result)
        };

        let mut done = vec![false; n];
        let mut dispatched = vec![false; n];
        let mut slots: Vec<Option<Metrics>> = (0..n).map(|_| None).collect();
        let mut failures: Vec<(usize, CoreError)> = Vec::new();
        let mut root_out: Option<DataSet> = None;
        let mut in_flight = 0usize;

        let (job_tx, job_rx) = crossbeam::channel::unbounded::<usize>();
        let job_rx = Mutex::new(job_rx);
        let (res_tx, res_rx) = crossbeam::channel::unbounded::<Completion>();

        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (job_rx, res_tx, run_one) = (&job_rx, res_tx.clone(), &run_one);
                scope.spawn(move || loop {
                    // The mutex only serializes job pickup; execution runs
                    // unlocked and therefore concurrently across workers.
                    let job = job_rx.lock().expect("job queue lock poisoned").recv();
                    let Ok(pos) = job else { break };
                    if res_tx.send(run_one(pos)).is_err() {
                        break;
                    }
                });
            }
            drop(res_tx);

            loop {
                // Hand every ready pool fragment to the workers, up to the
                // first ready inline fragment, which runs right here.
                let mut inline = None;
                if failures.is_empty() {
                    for pos in 0..n {
                        if dispatched[pos] || !deps[pos].iter().all(|d| done[*d]) {
                            continue;
                        }
                        dispatched[pos] = true;
                        if threads == 0 || pinned(pos) {
                            inline = Some(pos);
                            break;
                        }
                        in_flight += 1;
                        let _ = job_tx.send(pos);
                    }
                }
                let (pos, secs, m, result) = match inline {
                    Some(pos) => run_one(pos),
                    None if in_flight > 0 => match res_rx.recv() {
                        Ok(completion) => {
                            in_flight -= 1;
                            completion
                        }
                        Err(_) => break,
                    },
                    None => break,
                };
                slots[pos] = Some(m);
                match result {
                    Ok(out) => {
                        done[pos] = true;
                        self.progress
                            .fragment_done(frags[pos].id, &frags[pos].site, secs);
                        if pos == last {
                            root_out = out;
                        }
                    }
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
        root_out.ok_or_else(|| CoreError::Plan("scheduler finished without a root result".into()))
    }

    /// One fragment, start to finish, against its own [`Metrics`]:
    /// fragment span, transfer log, RemoteTcp push short-circuit,
    /// execute/iterate, failover cache, output staging. Returns
    /// `Some(result)` only for the root fragment.
    fn fragment_body(&self, pos: usize, metrics: &mut Metrics) -> Result<Option<DataSet>> {
        let frag = &self.placement.fragments[pos];
        let root = pos == self.placement.fragments.len() - 1;
        let mut fspan = self.tracer.start(
            self.query_id,
            || format!("fragment:{}", frag.id),
            &frag.site,
        );
        // The transfer log accumulates the attempt history of this
        // fragment's output delivery (push and/or store attempts) into
        // one `transfer:{id}` span. Root fragments stage nothing, so they
        // get an inert log.
        let mut tlog = if root {
            TransferLog::inert()
        } else {
            TransferLog::start(self.tracer, fspan.id(), frag)
        };
        if frag.site != APP_SITE
            && !root
            && self.opts.transfer == TransferMode::RemoteTcp
            && self.try_remote_push(frag, metrics, &mut tlog)?
        {
            return Ok(None);
        }
        let out = if frag.site == APP_SITE {
            // App-driven control iteration (see planner docs).
            self.run_app_iterate(&frag.plan, metrics, fspan.id())?
        } else {
            self.execute_fragment(frag, metrics, fspan.id())?
        };
        fspan.set_rows(out.num_rows());
        if root {
            // Root fragment: result returns to the application.
            let bytes = encode_dataset(&out).len();
            metrics.record_transfer(&self.opts.net, &frag.site, "app", bytes, false);
            let mut rspan =
                self.tracer
                    .start(self.query_id, || "transfer:result".into(), &frag.site);
            rspan.set_bytes(bytes as u64);
            rspan.set_rows(out.num_rows());
            rspan.finish();
            return Ok(Some(out));
        }
        if self.opts.recovery.fails_over() {
            self.cache
                .lock()
                .expect(CACHE_POISONED)
                .insert(frag.id, out.clone());
        }
        if let Err(e) = self.stage_output(frag, out, metrics, &mut tlog) {
            if !self.opts.recovery.fails_over() {
                return Err(e);
            }
            // The consuming site refused the staged input. Leave delivery
            // to the consumer's failover path, which re-ships inputs from
            // the app-tier cache onto whichever provider ends up running
            // the fragment.
        }
        Ok(None)
    }

    /// Attempt the real server→server push of a non-root fragment's
    /// output (RemoteTcp mode). Returns `Ok(true)` when the output was
    /// delivered, `Ok(false)` to fall back to the store-based path —
    /// either because the providers have no transport, or because the
    /// push failed and the executor degrades the transfer (counted in
    /// `degraded_transfers`).
    fn try_remote_push(
        &self,
        frag: &Fragment,
        metrics: &mut Metrics,
        tlog: &mut TransferLog,
    ) -> Result<bool> {
        let provider = self.registry.provider(&frag.site)?;
        let dest = self.registry.provider(&frag.dest_site)?;
        let Some(dest_ep) = dest.endpoint() else {
            return Ok(false);
        };
        let net = &self.opts.net;
        let name = format!("{FRAG_PREFIX}{}", frag.id);
        let plan_bytes = encode_plan(&frag.plan);
        let attempts = self.opts.recovery.attempts();
        let mut backoff = self.opts.recovery.backoff;
        for attempt in 0..attempts {
            if attempt > 0 {
                metrics.retries += 1;
                sleep_backoff(&mut backoff);
            }
            tlog.event(|| "attempt:push".into());
            metrics.record_plan_shipment(net, plan_bytes.len());
            let before = wire_total(provider.as_ref());
            let pushed = {
                let _scope = scope::install(self.tracer, provider.name(), tlog.span_id());
                provider.execute_push(&frag.plan, &dest_ep, &name)
            };
            match pushed {
                None => {
                    // Provider has no transport: un-count the shipment we
                    // charged optimistically and fall back to store-based.
                    metrics.messages -= 1;
                    metrics.plan_bytes -= plan_bytes.len();
                    metrics.sim_network_s -= net.message_time(plan_bytes.len());
                    return Ok(false);
                }
                Some(Ok(pushed)) => {
                    // Client-side traffic (request + ack) plus the
                    // server-to-server payload are all real bytes.
                    metrics.real_wire_bytes += pushed + (wire_total(provider.as_ref()) - before);
                    metrics.record_transfer(
                        net,
                        &frag.site,
                        &frag.dest_site,
                        pushed as usize,
                        false,
                    );
                    self.registry.health().record_success(&frag.site);
                    self.staged
                        .lock()
                        .expect(STAGED_POISONED)
                        .push((frag.dest_site.clone(), name));
                    tlog.delivered("push", pushed as usize);
                    return Ok(true);
                }
                Some(Err(e)) => {
                    metrics.real_wire_bytes += wire_total(provider.as_ref()) - before;
                    tlog.event(|| format!("error:{e}"));
                    flight::global().record(&frag.site, || {
                        format!("push fragment:{}@{} failed: {e}", frag.id, frag.site)
                    });
                    self.record_failure(&frag.site, metrics, |label| tlog.event(|| label));
                    if self.opts.recovery.enabled && e.is_transient() && attempt + 1 < attempts {
                        continue;
                    }
                    if !self.opts.recovery.enabled {
                        return Err(e);
                    }
                    // Push is unrecoverable here: degrade to the
                    // store-based Direct path (the fragment re-runs).
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
    fn execute_fragment(
        &self,
        frag: &Fragment,
        metrics: &mut Metrics,
        span: Option<u64>,
    ) -> Result<DataSet> {
        let primary = match self.execute_at(&frag.site, &frag.plan, metrics, span) {
            Ok(out) => return Ok(out),
            Err(e) => e,
        };
        if !self.opts.recovery.fails_over() {
            return Err(primary);
        }
        self.tracer
            .event(span, || format!("failed:{}:{primary}", frag.site));
        flight::global().record(&frag.site, || {
            format!(
                "fragment:{}@{} failed permanently: {primary}",
                frag.id, frag.site
            )
        });
        for candidate in failover_candidates(self.registry, frag) {
            if self.reship_inputs(frag, &candidate, metrics, span).is_err() {
                continue;
            }
            if let Ok(out) = self.execute_at(&candidate, &frag.plan, metrics, span) {
                metrics.failovers += 1;
                self.tracer.event(span, || format!("failover:{candidate}"));
                flight::global().record(&candidate, || {
                    format!("failover: fragment:{} {}→{candidate}", frag.id, frag.site)
                });
                return Ok(out);
            }
        }
        // No candidate could take over: surface the original failure.
        Err(primary)
    }

    /// Ship `plan` to the provider at `site` and execute it under
    /// [`Run::with_retry`]. The plan ships once per attempt — retries are
    /// not free — and the provider's internal spans (per-operator
    /// timings, server-side handling) land under `span` through the
    /// thread-local scope.
    fn execute_at(
        &self,
        site: &str,
        plan: &Plan,
        metrics: &mut Metrics,
        span: Option<u64>,
    ) -> Result<DataSet> {
        let plan_bytes = encode_plan(plan).len();
        self.with_retry(
            site,
            "execute",
            "execute",
            span,
            metrics,
            |provider, metrics| {
                metrics.record_plan_shipment(&self.opts.net, plan_bytes);
                let _scope = scope::install(self.tracer, provider.name(), span);
                provider.execute(plan)
            },
        )
    }

    /// Call `op` on the provider at `site`, retrying transient failures
    /// with exponential backoff per the recovery policy. Each attempt's
    /// real wire traffic is charged to `metrics` and its outcome reported
    /// to the registry's health board. `kind` names the call in retry
    /// events (`retry:{kind}@{site} attempt N`, under `span`), `what` in
    /// the flight recorder's `{what}@{site} attempt N failed: …` lines.
    fn with_retry<T>(
        &self,
        site: &str,
        kind: &str,
        what: &str,
        span: Option<u64>,
        metrics: &mut Metrics,
        mut op: impl FnMut(&dyn Provider, &mut Metrics) -> Result<T>,
    ) -> Result<T> {
        let provider = self.registry.provider(site)?;
        let attempts = self.opts.recovery.attempts();
        let mut backoff = self.opts.recovery.backoff;
        for attempt in 1..=attempts {
            if attempt > 1 {
                metrics.retries += 1;
                self.tracer
                    .event(span, || format!("retry:{kind}@{site} attempt {attempt}"));
                sleep_backoff(&mut backoff);
            }
            let before = wire_total(provider.as_ref());
            let result = op(provider.as_ref(), metrics);
            metrics.real_wire_bytes += wire_total(provider.as_ref()) - before;
            match result {
                Ok(out) => {
                    self.registry.health().record_success(site);
                    return Ok(out);
                }
                Err(e) => {
                    flight::global().record(site, || {
                        format!("{what}@{site} attempt {attempt} failed: {e}")
                    });
                    self.record_failure(site, metrics, |label| self.tracer.event(span, || label));
                    if !e.is_transient() || attempt == attempts {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("the retry loop returns from its last attempt")
    }

    /// Report a failed call to `site`'s circuit breaker. A failure that
    /// trips the breaker is counted, handed to `trace` as its
    /// `breaker:trip:{site}` event label, and recorded in the flight
    /// recorder.
    fn record_failure(&self, site: &str, metrics: &mut Metrics, trace: impl FnOnce(String)) {
        if self.registry.health().record_failure(site) {
            metrics.breaker_trips += 1;
            trace(format!("breaker:trip:{site}"));
            flight::global().record(site, || format!("breaker trip: {site}"));
        }
    }

    /// Re-ship a failed-over fragment's staged inputs to its new site.
    /// Inputs the app tier never saw (RemoteTcp pushes) are recovered by
    /// re-running their producer fragments.
    fn reship_inputs(
        &self,
        frag: &Fragment,
        new_site: &str,
        metrics: &mut Metrics,
        span: Option<u64>,
    ) -> Result<()> {
        let dest = self.registry.provider(new_site)?;
        for &input in &frag.inputs {
            // Never hold the cache lock across a provider call: on a miss
            // the producer re-runs (possibly slowly) and other fragments
            // must keep making progress.
            let cached = self
                .cache
                .lock()
                .expect(CACHE_POISONED)
                .get(&input)
                .cloned();
            let data = match cached {
                Some(d) => d,
                None => {
                    let producer = self
                        .placement
                        .fragments
                        .iter()
                        .find(|f| f.id == input)
                        .ok_or_else(|| {
                            CoreError::Plan(format!("unknown fragment input {input}"))
                        })?;
                    let out = self.execute_at(&producer.site, &producer.plan, metrics, span)?;
                    self.cache
                        .lock()
                        .expect(CACHE_POISONED)
                        .insert(input, out.clone());
                    out
                }
            };
            let name = format!("{FRAG_PREFIX}{input}");
            let bytes = encode_dataset(&data).len();
            // The recovery hop goes through the app tier by construction.
            metrics.record_transfer(&self.opts.net, "app", new_site, bytes, true);
            let mut rspan = self.tracer.start(span, || format!("reship:{input}"), "app");
            rspan.set_bytes(bytes as u64);
            let before = wire_total(dest.as_ref());
            dest.store(&name, data)?;
            metrics.real_wire_bytes += wire_total(dest.as_ref()) - before;
            rspan.finish();
            self.staged
                .lock()
                .expect(STAGED_POISONED)
                .push((new_site.to_string(), name));
        }
        Ok(())
    }

    /// Stage a fragment's output at the consuming site, retrying
    /// transient store failures; a Direct transfer that keeps failing
    /// degrades to the app-routed path (counted in `degraded_transfers`)
    /// before giving up.
    fn stage_output(
        &self,
        frag: &Fragment,
        out: DataSet,
        metrics: &mut Metrics,
        tlog: &mut TransferLog,
    ) -> Result<()> {
        let name = format!("{FRAG_PREFIX}{}", frag.id);
        let bytes = encode_dataset(&out).len();
        let site = &frag.dest_site;
        let what = format!("store {name}");
        let store = |provider: &dyn Provider, _: &mut Metrics| provider.store(&name, out.clone());
        let via_app = self.opts.transfer == TransferMode::AppRouted;
        let rung = if via_app { "app-routed" } else { "direct" };
        tlog.event(|| format!("attempt:{rung}"));
        let mut routed = via_app;
        if let Err(e) = self.with_retry(site, "store", &what, tlog.span_id(), metrics, &store) {
            if via_app || !self.opts.recovery.enabled {
                return Err(e);
            }
            // Degrade Direct → AppRouted: the app tier takes custody of
            // the intermediate and re-delivers it on the two-hop path.
            metrics.degraded_transfers += 1;
            tlog.event(|| format!("error:{e}"));
            tlog.event(|| "degrade:app-routed".into());
            tlog.event(|| "attempt:app-routed".into());
            self.with_retry(site, "store", &what, tlog.span_id(), metrics, &store)
                .map_err(|_| e)?;
            routed = true;
        }
        metrics.record_transfer(&self.opts.net, &frag.site, site, bytes, routed);
        self.staged
            .lock()
            .expect(STAGED_POISONED)
            .push((site.clone(), name));
        tlog.delivered(if routed { "app-routed" } else { "direct" }, bytes);
        Ok(())
    }

    /// Client/app-driven iteration: the fallback when no provider can
    /// host an `Iterate` node. Each iteration re-enters the federation
    /// with the loop state inlined as a `Values` literal — so the state
    /// crosses the wire (inside the shipped plan) every round, which is
    /// precisely the cost the paper's "control iteration" extension
    /// avoids.
    fn run_app_iterate(
        &self,
        plan: &Plan,
        metrics: &mut Metrics,
        span: Option<u64>,
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
        let (registry, opts, tracer) = (self.registry, self.opts, self.tracer);
        let (mut cur, m) = run_plan(registry, init, opts, tracer, span)?;
        metrics.absorb(m);
        for round in 0..*max_iters {
            tracer.event(span, || format!("iteration:{}", round + 1));
            // One span per iteration: the round's fragments nest under it
            // and its events carry the convergence numbers the
            // `/progress` endpoint and `EXPLAIN ANALYZE`'s convergence
            // table render.
            let mut ispan = tracer.start(span, || format!("iteration:{}", round + 1), APP_SITE);
            let state_rows: Vec<Row> = cur.rows()?;
            let body_inlined = substitute_state(body, &cur, &state_rows);
            let (next, m) = run_plan(registry, &body_inlined, opts, tracer, ispan.id())?;
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
            self.progress
                .iteration(round + 1, *max_iters, rep.delta, Some(rep.rows_changed));
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

/// A unique-enough dump-file tag: the process id, then the trace id
/// when tracing, else a process-wide failure counter. The process id
/// keeps two processes dumping into one directory (seeded trace ids and
/// counters both repeat across processes) from overwriting each other.
fn dump_tag(tracer: &Tracer) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static FAILURES: AtomicU64 = AtomicU64::new(0);
    let pid = std::process::id();
    if tracer.is_enabled() {
        format!("p{pid}-{:016x}", tracer.trace_id())
    } else {
        format!("p{pid}-q{}", FAILURES.fetch_add(1, Ordering::Relaxed))
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

    /// [`run_plan`] without a trace.
    fn run(r: &Registry, plan: &Plan, opts: &ExecOptions) -> Result<(DataSet, Metrics)> {
        run_plan(r, plan, opts, &Tracer::disabled(), None)
    }

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
        let (out, m) = run(&r, &plan, &ExecOptions::default()).unwrap();
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
        let direct = run(&r, &plan, &ExecOptions::default()).unwrap();
        let routed = run(
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
        let (out, _) = run(&r, &plan, &ExecOptions::default()).unwrap();
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
        let (out, m) = run(&r, &plan, &ExecOptions::default()).unwrap();
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
        let (out, m) = run(&r, &plan, &ExecOptions::default()).unwrap();
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
            &Tracer::disabled(),
            None,
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
        let (out, m) = run(&r, &plan, &ExecOptions::default()).unwrap();
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
        let err = run(&r, &plan, &opts).unwrap_err();
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
        let (out, m) = run(&r, &plan, &ExecOptions::default()).unwrap();
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
        let (out, m) = run_plan(&r, &plan, &opts, &tracer, None).unwrap();
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
        let seq = run(
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
        let (out, m) = run_plan(&r, &plan, &opts, &tracer, None).unwrap();
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
        let (out, m) = run(&r, &plan, &opts).unwrap();
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
        let (out, m) = run(&r, &plan, &opts).unwrap();
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
        let err = run(&r, &plan, &opts).unwrap_err();
        assert!(err.to_string().contains("injected transient"), "{err}");
    }

    #[test]
    fn plan_shipping_counts_bytes() {
        let r = registry();
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap()).limit(1);
        let (_, m) = run(&r, &plan, &ExecOptions::default()).unwrap();
        assert!(m.plan_bytes > 0);
        assert!(m.messages >= 2); // plan shipment + result return
    }

    /// A provider decorator that counts `execute` calls and records the
    /// thread of every provider call; once `down`, every `execute` fails
    /// permanently.
    struct Counting {
        inner: Box<dyn Provider>,
        down: std::sync::atomic::AtomicBool,
        executes: std::sync::atomic::AtomicUsize,
        threads: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl Counting {
        fn new(inner: impl Provider + 'static) -> Arc<Counting> {
            Arc::new(Counting {
                inner: Box::new(inner),
                down: Default::default(),
                executes: Default::default(),
                threads: Mutex::default(),
            })
        }

        fn executes(&self) -> usize {
            self.executes.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn called(&self) {
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
        }
    }

    impl Provider for Counting {
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
            self.called();
            self.executes
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if self.down.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(CoreError::Plan(format!("{} is down", self.name())));
            }
            self.inner.execute(plan)
        }
        fn store(&self, name: &str, data: DataSet) -> Result<()> {
            self.called();
            self.inner.store(name, data)
        }
        fn remove(&self, name: &str) {
            self.called();
            self.inner.remove(name)
        }
        fn row_count_of(&self, name: &str) -> Option<usize> {
            self.inner.row_count_of(name)
        }
    }

    /// Two relational sites each holding one operand of a matmul that
    /// only the linalg site runs natively: the planner cuts each scan
    /// into its own fragment, independent of the other, and places the
    /// matmul root at `la`.
    fn two_site_matmul() -> (Registry, [Arc<Counting>; 3], Plan) {
        let x = RelationalEngine::new("x");
        x.store(
            "a",
            matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        )
        .unwrap();
        let y = RelationalEngine::new("y");
        y.store(
            "b",
            matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap(),
        )
        .unwrap();
        let sites = [
            Counting::new(x),
            Counting::new(y),
            Counting::new(LinAlgEngine::new("la")),
        ];
        let mut r = Registry::new();
        for s in &sites {
            r.register(s.clone());
        }
        let plan = Plan::scan("a", r.schema_of("a").unwrap())
            .matmul(Plan::scan("b", r.schema_of("b").unwrap()));
        (r, sites, plan)
    }

    /// The site running `placement`'s first fragment.
    fn first_placed<'a>(sites: &'a [Arc<Counting>; 3], placement: &Placement) -> &'a Counting {
        let first = &placement.fragments[0].site;
        sites.iter().find(|s| s.name() == first).unwrap()
    }

    #[test]
    fn one_worker_runs_inline_in_placement_order_and_stops_at_the_first_failure() {
        let (r, sites, plan) = two_site_matmul();
        let opts = ExecOptions {
            recovery: RecoveryPolicy::disabled(),
            workers: 1,
            ..Default::default()
        };
        let (_, _, placement) = place(&r, &plan, &opts).unwrap();
        let placed: Vec<&str> = placement
            .fragments
            .iter()
            .map(|f| f.site.as_str())
            .collect();
        assert_eq!(
            placed.len(),
            3,
            "two operand fragments and a root: {placed:?}"
        );
        assert!(placement.fragments[1].inputs.is_empty(), "{placement:?}");
        let first = first_placed(&sites, &placement);
        let other = sites.iter().find(|s| s.name() == placed[1]).unwrap();
        assert_ne!(first.name(), other.name());

        let (out, _) = run(&r, &plan, &opts).unwrap();
        let (_, _, data) = dataset_matrix(&out).unwrap();
        assert_eq!(data, vec![58., 64., 139., 154.]);
        first.down.store(true, std::sync::atomic::Ordering::SeqCst);
        let before = other.executes();
        let err = run(&r, &plan, &opts).unwrap_err();
        assert!(err.to_string().contains("is down"), "{err}");
        assert_eq!(
            other.executes(),
            before,
            "no fragment after the failed one may run"
        );

        // No pool at one worker: every provider call of both runs came
        // from this thread, which `QUERY_DEPTH` and `scope` rely on.
        let me = std::thread::current().id();
        for s in &sites {
            let threads = s.threads.lock().unwrap();
            assert!(!threads.is_empty(), "{} was never called", s.name());
            assert!(
                threads.iter().all(|t| *t == me),
                "{} ran off-thread",
                s.name()
            );
        }
    }

    #[test]
    fn a_failed_fragment_is_not_done_on_the_progress_board() {
        let (r, sites, plan) = two_site_matmul();
        let opts = ExecOptions {
            recovery: RecoveryPolicy::disabled(),
            workers: 2,
            ..Default::default()
        };
        let (_, _, placement) = place(&r, &plan, &opts).unwrap();
        let failed = placement.fragments[0].id as u64;
        first_placed(&sites, &placement)
            .down
            .store(true, std::sync::atomic::Ordering::SeqCst);

        let tracer = Tracer::new(0x13f);
        run_plan(&r, &plan, &opts, &tracer, None).unwrap_err();
        let entry = progress::global()
            .snapshot()
            .into_iter()
            .find(|q| q.trace_id == tracer.trace_id())
            .expect("the query is on the progress board");
        assert_eq!(entry.state, "failed");
        assert!(
            entry.fragments_done.iter().all(|f| f.id != failed),
            "fragment {failed} failed but is listed done: {:?}",
            entry.fragments_done
        );
    }

    #[test]
    fn defaults_are_stats_on_one_worker_calibration_off() {
        let opts = ExecOptions::default();
        assert_eq!(opts.workers, 1);
        assert!(!opts.calibrate);
        assert!(opts.optimizer.use_stats);
        assert_eq!(pool::workers(), 1);
        assert!(RelationalEngine::new("rel").stats_enabled());
    }

    #[test]
    fn dump_tags_carry_the_process_id() {
        let pid = format!("p{}-", std::process::id());
        let untraced = [dump_tag(&Tracer::disabled()), dump_tag(&Tracer::disabled())];
        for tag in &untraced {
            assert!(tag.starts_with(&pid), "{tag}");
        }
        assert_ne!(untraced[0], untraced[1], "untraced failures share a tag");
        let traced = Tracer::new(7);
        assert_eq!(
            dump_tag(&traced),
            format!("{pid}{:016x}", traced.trace_id())
        );
    }
}
