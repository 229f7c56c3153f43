//! `ingest`: a reactor server over a durable relational engine, driven
//! by a closed loop of two writers storing 64 KiB datasets beside
//! read-backs. It exercises the WAL, fsync and snapshot path, the
//! relational store path (zone maps) and the reactor on large frames;
//! it bypasses `federation`. Before the timed phase a recovery probe
//! reopens a directory of known stores and checks every one.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bda_core::Plan;
use bda_durability::{DiskFaults, DurableProvider, FsyncPolicy, Options, DEFAULT_EPHEMERAL_PREFIX};
use bda_net::proto::{Request, Response};
use bda_obs::MetricsHub;
use bda_reactor::{serve_reactor, ReactorHandle};
use bda_relational::RelationalEngine;
use bda_storage::{Column, DataSet, Schema};

use crate::gen::{Fingerprint, Rng};
use crate::served::{echo_reactor_knobs, reactor_options};
use crate::spans::{Recorder, Span};
use crate::stats::{median, quantile};
use crate::timed::Timed;
use crate::wire::{counter_total, hello_rtt_us, shed_or_fail, Call, Client};
use crate::{Config, Failure, Outcome};

/// Rows per stored dataset: two 8-byte columns, so ~64 KiB each.
const ROWS: usize = 4096;
/// Distinct datasets the writers draw from.
const POOL: usize = 16;
/// Names the timed phase stores under (split between the writers), so
/// the engine's memory stays bounded however long the run is.
const NAMES: usize = 64;
const WRITERS: usize = 2;
/// One op in `READ_EVERY` reads back a recently acknowledged name.
const READ_EVERY: u64 = 4;
/// Stores the recovery probe writes: ~16 MiB of WAL, under the 64 MiB
/// snapshot threshold, so the reopen replays exactly these records.
const PROBE_STORES: usize = 256;

fn pool(seed: u64) -> Vec<DataSet> {
    let mut rng = Rng::new(seed, 20);
    (0..POOL)
        .map(|_| {
            let base = rng.below(1 << 40) as i64;
            let ids: Vec<i64> = (0..ROWS as i64).map(|i| base + i).collect();
            let xs: Vec<f64> = (0..ROWS).map(|_| rng.unit() * 1e3).collect();
            DataSet::from_columns(vec![("id", Column::from(ids)), ("x", Column::from(xs))])
                .expect("pool dataset")
        })
        .collect()
}

/// Durability settings, every field pinned; fsync `Always` and the
/// 64 MiB snapshot threshold are the shipped defaults.
fn durable_options(dir: &Path, hub: &MetricsHub) -> Options {
    Options {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Always,
        snapshot_every_bytes: 64 << 20,
        snapshot_interval: Duration::from_secs(2),
        keep_snapshots: 2,
        ephemeral_prefix: DEFAULT_EPHEMERAL_PREFIX.to_string(),
        staged_ttl: Duration::from_secs(300),
        metrics: Some(hub.clone()),
        faults: DiskFaults::default(),
    }
}

struct Server {
    handle: ReactorHandle,
    hub: MetricsHub,
    /// The engine behind the durable provider, for its call counts.
    engine: Arc<Timed>,
    replayed: usize,
    replay_s: f64,
}

fn start(dir: &Path, rec: &Arc<Recorder>) -> Result<Server, Failure> {
    let engine = RelationalEngine::new("ingest");
    engine.set_stats_enabled(true);
    let inner = Arc::new(Timed::new(Arc::new(engine), "relational", Arc::clone(rec)));
    let hub = MetricsHub::new();
    let durable = DurableProvider::open(inner.clone(), durable_options(dir, &hub))
        .map_err(|e| Failure(format!("open {}: {e}", dir.display())))?;
    let report = durable.report().clone();
    let outer = Arc::new(Timed::new(Arc::new(durable), "durability", Arc::clone(rec)));
    let handle = serve_reactor(outer, "127.0.0.1:0", reactor_options(&hub))?;
    Ok(Server {
        handle,
        hub,
        engine: inner,
        replayed: report.wal_records_replayed,
        replay_s: report.elapsed.as_secs_f64(),
    })
}

fn fresh_dir(path: &Path) -> Result<(), Failure> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)?;
    Ok(())
}

fn dir_bytes(path: &Path) -> u64 {
    std::fs::read_dir(path)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn store(c: &mut Client, name: &str, data: &DataSet) -> Result<(bool, Call), Failure> {
    let (resp, call) = c.call(&Request::Store {
        name: name.to_string(),
        data: data.clone(),
    })?;
    match resp {
        Response::Ack => Ok((true, call)),
        Response::Error { msg, transient } => {
            shed_or_fail(&format!("store {name}"), &msg, transient)?;
            Ok((false, call))
        }
        other => Err(Failure(format!("store {name} answered {other:?}"))),
    }
}

/// Read `name` back and compare it with what was acknowledged.
fn read_back(
    c: &mut Client,
    name: &str,
    schema: &Schema,
    want: Fingerprint,
) -> Result<(bool, Call), Failure> {
    let (resp, call) = c.call(&Request::Execute {
        plan: Plan::scan(name, schema.clone()),
    })?;
    match resp {
        Response::DataSet(ds) if Fingerprint::of(&ds) == want => Ok((true, call)),
        Response::DataSet(ds) => Err(Failure(format!(
            "{name} read back {} rows that differ from the acknowledged store",
            ds.num_rows()
        ))),
        Response::Error { msg, transient } => {
            shed_or_fail(&format!("read of {name}"), &msg, transient)?;
            Ok((false, call))
        }
        other => Err(Failure(format!("read of {name} answered {other:?}"))),
    }
}

struct Probe {
    recovery_s: f64,
    replayed: usize,
    replay_mib_s: f64,
}

/// Write `PROBE_STORES` stores, drop the server and the provider, then
/// time reopening plus the first answered request and check every
/// acknowledged store.
fn recovery_probe(dir: &Path, data: &[DataSet], rec: &Arc<Recorder>) -> Result<Probe, Failure> {
    let fps: Vec<Fingerprint> = data.iter().map(Fingerprint::of).collect();
    let schema = data[0].schema().clone();
    let name = |i: usize| format!("probe{i:03}");
    fresh_dir(dir)?;
    {
        let server = start(dir, rec)?;
        let mut c = Client::connect(server.handle.addr())?;
        for i in 0..PROBE_STORES {
            if !store(&mut c, &name(i), &data[i % POOL])?.0 {
                return Err(Failure(format!(
                    "recovery probe: store {} refused",
                    name(i)
                )));
            }
        }
    }
    let wal_bytes = dir_bytes(&dir.join("wal"));
    let t0 = Instant::now();
    let server = start(dir, rec)?;
    let mut c = Client::connect(server.handle.addr())?;
    let (ok, _) = read_back(&mut c, &name(0), &schema, fps[0])?;
    let recovery_s = t0.elapsed().as_secs_f64();
    if !ok {
        return Err(Failure(
            "recovery probe: first read after reopen failed".into(),
        ));
    }
    if server.replayed != PROBE_STORES {
        return Err(Failure(format!(
            "recovery probe replayed {} records, wrote {PROBE_STORES}",
            server.replayed
        )));
    }
    for i in 0..PROBE_STORES {
        if !read_back(&mut c, &name(i), &schema, fps[i % POOL])?.0 {
            return Err(Failure(format!("recovery probe: {} lost", name(i))));
        }
    }
    Ok(Probe {
        recovery_s,
        replayed: server.replayed,
        replay_mib_s: wal_bytes as f64 / (1 << 20) as f64 / server.replay_s,
    })
}

/// One writer's seeded op stream. In every block of `READ_EVERY` ops
/// one reads back a slot, at a seeded position, so every seed has the
/// same mix; the others store a seeded pool dataset into a slot.
pub struct Mix {
    rng: Rng,
    i: u64,
    read_at: u64,
}

impl Mix {
    pub fn new(seed: u64, writer: usize, phase: u64) -> Mix {
        Mix {
            rng: Rng::new(seed, 30 + 8 * phase + writer as u64),
            i: 0,
            read_at: 0,
        }
    }

    /// `(slot, None)` for a read-back, `(slot, Some(pool index))` for a
    /// store.
    pub fn next_op(&mut self) -> (usize, Option<usize>) {
        if self.i.is_multiple_of(READ_EVERY) {
            self.read_at = self.rng.below(READ_EVERY);
        }
        let read = self.i % READ_EVERY == self.read_at;
        self.i += 1;
        let slot = self.rng.below((NAMES / WRITERS) as u64) as usize;
        let pick = (!read).then(|| self.rng.below(POOL as u64) as usize);
        (slot, pick)
    }
}

/// One checksum over the pool and the start of every writer's stream.
pub fn fingerprint(data: &[DataSet], seed: u64) -> Fingerprint {
    let mut fp = Fingerprint::default();
    for d in data {
        fp.mix(Fingerprint::of(d));
    }
    for w in 0..WRITERS {
        let mut mix = Mix::new(seed, w, 0);
        for _ in 0..256 {
            let (slot, pick) = mix.next_op();
            fp.add_hash(((slot as u64) << 32) ^ pick.map_or(u64::MAX, |p| p as u64));
        }
    }
    fp
}

#[derive(Clone, Copy)]
struct OpSample {
    /// Writer in the high 32 bits, the writer's op number in the low.
    req: u64,
    read: bool,
    ok: bool,
    call: Call,
}

/// Load every name once so read-backs always have something to read.
fn preload(addr: std::net::SocketAddr, data: &[DataSet]) -> Result<(), Failure> {
    let mut c = Client::connect(addr)?;
    for n in 0..NAMES {
        if !store(&mut c, &format!("n{n:02}"), &data[n % POOL])?.0 {
            return Err(Failure(format!("preload of n{n:02} refused")));
        }
    }
    Ok(())
}

/// The closed loop: `WRITERS` clients, each on its own connection and
/// its own half of the names, for `secs` seconds.
/// `holds[w][i]` is the pool index writer `w`'s `i`-th name holds; it
/// carries over from one phase to the next.
fn closed_loop(
    addr: std::net::SocketAddr,
    data: &[DataSet],
    holds: &mut [Vec<usize>],
    seed: u64,
    phase: u64,
    secs: f64,
) -> Result<(Vec<OpSample>, f64), Failure> {
    let fps: Vec<Fingerprint> = data.iter().map(Fingerprint::of).collect();
    let schema = data[0].schema().clone();
    let started = Instant::now();
    let per_writer = NAMES / WRITERS;
    let results: Vec<Result<Vec<OpSample>, Failure>> = std::thread::scope(|s| {
        let handles: Vec<_> = holds
            .iter_mut()
            .enumerate()
            .map(|(w, holds)| {
                let (fps, schema) = (&fps, &schema);
                s.spawn(move || -> Result<Vec<OpSample>, Failure> {
                    let mut mix = Mix::new(seed, w, phase);
                    let mut c = Client::connect(addr)?;
                    let mut out = Vec::new();
                    while started.elapsed().as_secs_f64() < secs {
                        let (slot, pick) = mix.next_op();
                        let name = format!("n{:02}", w * per_writer + slot);
                        let sample = if let Some(pick) = pick {
                            let (ok, call) = store(&mut c, &name, &data[pick])?;
                            if ok {
                                holds[slot] = pick;
                            }
                            OpSample {
                                req: ((w as u64) << 32) | out.len() as u64,
                                read: false,
                                ok,
                                call,
                            }
                        } else {
                            let (ok, call) = read_back(&mut c, &name, schema, fps[holds[slot]])?;
                            OpSample {
                                req: ((w as u64) << 32) | out.len() as u64,
                                read: true,
                                ok,
                                call,
                            }
                        };
                        out.push(sample);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok((all, started.elapsed().as_secs_f64()))
}

fn ms(samples: &[OpSample], read: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.read == read)
        .map(|s| {
            if s.ok {
                s.call.total_ns as f64 / 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

struct Counters {
    fsyncs: f64,
    wal: f64,
    snap: f64,
    snapshots: f64,
    shed: f64,
    proto: f64,
}

impl Counters {
    fn read(hub: &MetricsHub) -> Counters {
        Counters {
            fsyncs: counter_total(hub, "bda_durability_fsyncs_total"),
            wal: counter_total(hub, "bda_durability_wal_bytes_total"),
            snap: counter_total(hub, "bda_durability_snapshot_bytes_total"),
            snapshots: counter_total(hub, "bda_durability_snapshots_total"),
            shed: counter_total(hub, "bda_reactor_shed_total"),
            proto: counter_total(hub, "bda_reactor_protocol_errors_total"),
        }
    }
}

pub fn run(cfg: &Config, out: &mut Outcome) -> Result<(), Failure> {
    let data = pool(cfg.seed);
    out.fingerprint = fingerprint(&data, cfg.seed);
    let root = PathBuf::from(".perfbench_tmp").join(format!("ingest-{}", std::process::id()));
    let result = run_in(cfg, out, &data, &root);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    result
}

fn run_in(cfg: &Config, out: &mut Outcome, data: &[DataSet], root: &Path) -> Result<(), Failure> {
    let rec = Arc::new(Recorder::new());
    let probe = recovery_probe(&root.join("probe"), data, &rec)?;

    let dir = root.join("data");
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(server.take());
        fresh_dir(&dir)?;
        let t0 = Instant::now();
        let s = start(&dir, &rec)?;
        preload(s.handle.addr(), data)?;
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("set up at least once");
    let addr = server.handle.addr();
    let per_writer = NAMES / WRITERS;
    let mut holds: Vec<Vec<usize>> = (0..WRITERS)
        .map(|w| {
            (0..per_writer)
                .map(|i| (w * per_writer + i) % POOL)
                .collect()
        })
        .collect();
    let o = durable_options(&dir, &server.hub);
    echo_reactor_knobs(out, &server.hub);
    out.knob("durability.fsync", format!("{:?}", o.fsync));
    out.knob("durability.snapshot_every_bytes", o.snapshot_every_bytes);
    out.knob(
        "durability.snapshot_interval",
        format!("{:?}", o.snapshot_interval),
    );
    out.knob("durability.keep_snapshots", o.keep_snapshots);
    out.knob("durability.staged_ttl", format!("{:?}", o.staged_ttl));
    out.knob("durability.faults", format!("{:?}", o.faults));
    out.knob("engine.stats_enabled", true);
    out.knob("engine.workers", bda_core::pool::workers());
    out.knob("writers", WRITERS);
    out.knob("names", NAMES);
    out.knob("rows_per_store", ROWS);

    if !cfg.trace {
        let before = Counters::read(&server.hub);
        let cpu0 = crate::process_cpu_s();
        let (ops, secs) = closed_loop(addr, data, &mut holds, cfg.seed, 0, cfg.seconds)?;
        let cpu_s = crate::process_cpu_s() - cpu0;
        let after = Counters::read(&server.hub);
        let stores = ms(&ops, false);
        let reads = ms(&ops, true);
        out.attempted = ops.len() as u64;
        out.failed = ops.iter().filter(|s| !s.ok).count() as u64;
        out.metric("setup_s", median(&setups), "s");
        let acked = (out.attempted - out.failed).max(1);
        out.metric("cpu_ms_per_op", cpu_s * 1e3 / acked as f64, "ms");
        out.detail(
            "throughput_ops_s",
            acked as f64 / secs,
            "1/s",
            acked as usize,
        );
        out.detail("p50_ms", median(&stores), "ms", stores.len());
        out.detail("p99_ms", quantile(&stores, 0.99), "ms", stores.len());
        out.detail("read_p50_ms", median(&reads), "ms", reads.len());
        out.detail("recovery_s", probe.recovery_s, "s", PROBE_STORES);
        out.detail("snapshots", after.snapshots - before.snapshots, "count", 1);
        return Ok(());
    }

    let hello_us = hello_rtt_us(addr, 200)?;
    let (plain, _) = closed_loop(addr, data, &mut holds, cfg.seed, 0, cfg.seconds / 2.0)?;
    let before = Counters::read(&server.hub);
    server.engine.reset_counts();
    rec.set_enabled(true);
    let (traced, _) = closed_loop(addr, data, &mut holds, cfg.seed, 1, cfg.seconds / 2.0)?;
    for s in &traced {
        let start = rec.at(s.call.start);
        let end = start + s.call.total_ns;
        let client = rec.record("client", start, end, 0, s.req);
        rec.record("net.encode", start, start + s.call.encode_ns, client, s.req);
        rec.record("net.decode", end - s.call.decode_ns, end, client, s.req);
    }
    rec.set_enabled(false);
    let after = Counters::read(&server.hub);
    let spans = rec.take();
    out.attempted = (plain.len() + traced.len()) as u64;
    out.failed = plain.iter().chain(&traced).filter(|s| !s.ok).count() as u64;
    layer_metrics(
        out, &traced, &plain, &spans, &before, &after, &probe, hello_us,
    );
    let (calls, rows) = server.engine.counts();
    let n = traced.len().max(1) as f64;
    out.metric("relational.calls", calls as f64 / n, "count");
    out.metric("relational.rows_out", rows as f64 / n, "count");
    out.spans = spans;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    traced: &[OpSample],
    plain: &[OpSample],
    spans: &[Span],
    before: &Counters,
    after: &Counters,
    probe: &Probe,
    hello_us: f64,
) {
    let n = traced.len() as f64;
    let stores: Vec<&OpSample> = traced.iter().filter(|s| !s.read && s.ok).collect();
    let sum = |f: &dyn Fn(&OpSample) -> f64| traced.iter().map(f).sum::<f64>();
    let wall = sum(&|s| s.call.total_ns as f64);
    let enc = sum(&|s| s.call.encode_ns as f64);
    let dec = sum(&|s| s.call.decode_ns as f64);
    let outer: Vec<&Span> = spans.iter().filter(|s| s.name == "durability").collect();
    let outer_ids: std::collections::HashSet<u64> = outer.iter().map(|s| s.id).collect();
    let outer_total: f64 = outer.iter().map(|s| s.dur() as f64).sum();
    let relational: Vec<&Span> = spans.iter().filter(|s| s.name == "relational").collect();
    let inner_total: f64 = relational
        .iter()
        .filter(|s| outer_ids.contains(&s.parent))
        .map(|s| s.dur() as f64)
        .sum();
    let relational_total: f64 = relational.iter().map(|s| s.dur() as f64).sum();
    let durability_self = outer_total - inner_total;
    let reactor = wall - enc - dec - outer_total;
    let user_bytes: f64 = stores.iter().map(|s| s.call.request_bytes as f64).sum();

    out.metric("relational.busy_ms", relational_total / n / 1e6, "ms");
    out.metric("net.encode_us", enc / n / 1e3, "us");
    out.metric("net.decode_us", dec / n / 1e3, "us");
    out.metric(
        "net.request_bytes",
        sum(&|s| s.call.request_bytes as f64) / n,
        "bytes",
    );
    out.metric(
        "net.response_bytes",
        sum(&|s| s.call.response_bytes as f64) / n,
        "bytes",
    );
    out.metric("reactor.self_us", reactor / n / 1e3, "us");
    out.metric("reactor.hello_rtt_us", hello_us, "us");
    out.metric("reactor.shed", after.shed - before.shed, "count");
    out.metric(
        "reactor.protocol_errors",
        after.proto - before.proto,
        "count",
    );
    out.metric("durability.self_us", durability_self / n / 1e3, "us");
    out.metric(
        "durability.fsyncs_per_store",
        (after.fsyncs - before.fsyncs) / stores.len().max(1) as f64,
        "count",
    );
    out.metric(
        "durability.write_amp",
        (after.wal - before.wal + after.snap - before.snap) / user_bytes,
        "ratio",
    );
    out.metric(
        "durability.snapshots",
        after.snapshots - before.snapshots,
        "count",
    );
    out.metric("durability.replay_records", probe.replayed as f64, "count");
    out.metric("durability.replay_mib_s", probe.replay_mib_s, "MiB/s");
    crate::push_shares(
        out,
        &[
            ("net", (enc + dec) / wall),
            ("durability", durability_self / wall),
            ("relational", inner_total / wall),
            ("reactor", reactor / wall),
        ],
    );
    let mean = |s: &[OpSample]| {
        s.iter().map(|x| x.call.total_ns as f64).sum::<f64>() / s.len().max(1) as f64
    };
    out.metric(
        "trace.overhead_frac",
        mean(traced) / mean(plain) - 1.0,
        "frac",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_pool_and_op_streams() {
        let fp = |seed| fingerprint(&pool(seed), seed);
        assert_eq!(fp(1), fp(1));
        assert_ne!(fp(1), fp(2));
    }

    #[test]
    fn reading_back_a_missing_name_fails_the_run() {
        let data = pool(4);
        let engine = RelationalEngine::new("ingest");
        let hub = MetricsHub::new();
        let handle = serve_reactor(Arc::new(engine), "127.0.0.1:0", reactor_options(&hub))
            .expect("start server");
        let mut c = Client::connect(handle.addr()).expect("connect");
        let want = Fingerprint::of(&data[0]);
        let schema = data[0].schema().clone();
        assert!(read_back(&mut c, "n00", &schema, want).is_err());
        assert!(store(&mut c, "n00", &data[0]).expect("store").0);
        assert!(read_back(&mut c, "n00", &schema, want).expect("read").0);
        let other = Fingerprint::of(&data[1]);
        assert!(read_back(&mut c, "n00", &schema, other).is_err());
    }

    #[test]
    fn one_op_in_four_reads_back() {
        let mut mix = Mix::new(3, 0, 0);
        let reads = (0..400).filter(|_| mix.next_op().1.is_none()).count();
        assert_eq!(reads, 100);
    }
}
