//! `served`: a reactor server over one relational engine, driven by an
//! open loop of point lookups and short range scans. It exercises
//! reactor admission and queueing, the `net` codec and the engine's
//! per-lookup path; it bypasses `federation` and `durability`.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bda_core::{col, lit, Plan, Provider};
use bda_net::frame::{parse_message, write_message, MAX_MESSAGE_BYTES};
use bda_net::proto::{decode_response, encode_request, Request, Response};
use bda_obs::MetricsHub;
use bda_reactor::{serve_reactor, AdmissionConfig, ReactorHandle, ReactorOptions, SloTargets};
use bda_relational::RelationalEngine;
use bda_storage::{Column, DataSet, IndexKind, Schema, Value};
use polling::{Event, Poller};

use crate::gen::{hash_values, Fingerprint, Rng};
use crate::spans::{busy, Recorder};
use crate::stats::{median, quantile};
use crate::timed::Timed;
use crate::wire::{counter_total, hello_rtt_us, shed_or_fail};
use crate::{Config, Failure, Outcome};

const CHUNKS: usize = 256;
const CHUNK_ROWS: usize = 4096;
/// Rows a range scan returns.
const RANGE_ROWS: i64 = 16;
/// The fixed rate the reported latencies are measured at, well below
/// the ~1200 req/s capacity of a 2-vCPU host.
const FIXED_RPS: f64 = 400.0;
/// The latency limit on the median that `max_rps` must meet. A limit on
/// p99 would measure the host instead of the server: on a shared 2-vCPU
/// VM, consecutive 3-second windows at 400 req/s in one process read
/// p99 between 5 and 23 ms while their medians stayed within 1.6-1.9 ms.
const LIMIT_MS: f64 = 10.0;
/// A reply later than this after its due time counts as timed out.
const TIMEOUT: Duration = Duration::from_secs(2);
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight while capacity is measured:
/// enough that a worker never waits for the client, far below the
/// admission queue, so nothing is shed.
const WINDOW: usize = 8;

/// The served table: `kv(k, v)`, with `k` ascending chunk by chunk
/// (hash-indexed for point lookups; zone maps prune range scans) and
/// `v` a seeded function of `k`, so every reply can be checked without
/// keeping a copy.
pub struct Table {
    pub data: DataSet,
    seed: u64,
}

impl Table {
    pub fn generate(seed: u64, chunks: usize) -> Table {
        let mut data: Option<DataSet> = None;
        for c in 0..chunks {
            let keys: Vec<i64> = ((c * CHUNK_ROWS) as i64..((c + 1) * CHUNK_ROWS) as i64).collect();
            let vals: Vec<f64> = keys.iter().map(|k| value_of(seed, *k)).collect();
            let chunk =
                DataSet::from_columns(vec![("k", Column::from(keys)), ("v", Column::from(vals))])
                    .expect("kv chunk");
            match &mut data {
                None => data = Some(chunk),
                Some(d) => d.push_chunk(chunk.chunks()[0].clone()),
            }
        }
        Table {
            data: data.expect("at least one chunk"),
            seed,
        }
    }

    fn rows(&self) -> usize {
        self.data.num_rows()
    }

    /// Check a reply against the rows the request asked for.
    fn check(&self, op: Op, ds: &DataSet) -> Result<(), String> {
        let want = match op {
            Op::Point(k) => k..k + 1,
            Op::Range(lo) => lo..lo + RANGE_ROWS,
        };
        let mut got = ds.rows().map_err(|e| e.to_string())?;
        got.sort_by(|a, b| a.total_cmp(b));
        if got.len() != want.clone().count() {
            return Err(format!("{op:?}: {} rows, want {}", got.len(), want.count()));
        }
        for (row, k) in got.iter().zip(want) {
            if row.0[..] != [Value::Int(k), Value::Float(value_of(self.seed, k))] {
                return Err(format!("{op:?}: row {row:?} is not key {k}"));
            }
        }
        Ok(())
    }
}

fn value_of(seed: u64, k: i64) -> f64 {
    (hash_values(&[Value::Int(seed as i64), Value::Int(k)]) % 1_000_000) as f64 / 100.0
}

#[derive(Debug, Clone, Copy)]
pub enum Op {
    Point(i64),
    Range(i64),
}

/// The seeded request sequence: in every block of ten requests one is
/// a range scan, at a seeded position, so every seed has the same mix.
pub fn ops(seed: u64, rows: usize, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 11);
    let mut range_at = 0;
    (0..len)
        .map(|i| {
            if i % 10 == 0 {
                range_at = rng.below(10) as usize;
            }
            if i % 10 == range_at {
                Op::Range(rng.below((rows as i64 - RANGE_ROWS) as u64) as i64)
            } else {
                Op::Point(rng.below(rows as u64) as i64)
            }
        })
        .collect()
}

/// One checksum over the table and the request sequence.
pub fn fingerprint(table: &Table, ops: &[Op]) -> Fingerprint {
    let mut fp = Fingerprint::of(&table.data);
    for op in ops {
        let (a, b) = match op {
            Op::Point(k) => (0, *k),
            Op::Range(lo) => (1, *lo),
        };
        fp.add_hash(hash_values(&[Value::Int(a), Value::Int(b)]));
    }
    fp
}

fn plan_of(op: Op, schema: &Schema) -> Plan {
    let scan = Plan::scan("kv", schema.clone());
    match op {
        Op::Point(k) => scan.select(col("k").eq(lit(k))),
        Op::Range(lo) => scan.select(col("k").ge(lit(lo)).and(col("k").lt(lit(lo + RANGE_ROWS)))),
    }
}

/// Reactor sizing, pinned for a 2-core host: one event-loop shard and
/// two executor workers.
pub fn reactor_options(hub: &MetricsHub) -> ReactorOptions {
    ReactorOptions {
        shards: 1,
        workers: 2,
        admission: AdmissionConfig {
            queue_capacity: 256,
            per_tenant: 128,
            fair_share: false,
        },
        max_inflight_per_conn: 64,
        max_connections: 64,
        stall_timeout: Duration::from_secs(10),
        log: None,
        metrics: Some(hub.clone()),
        usage: None,
        slo: SloTargets::default(),
    }
}

pub fn echo_reactor_knobs(out: &mut Outcome, hub: &MetricsHub) {
    let o = reactor_options(hub);
    out.knob("reactor.shards", o.shards);
    out.knob("reactor.workers", o.workers);
    out.knob("reactor.admission", format!("{:?}", o.admission));
    out.knob("reactor.max_inflight_per_conn", o.max_inflight_per_conn);
    out.knob("reactor.max_connections", o.max_connections);
    out.knob("reactor.stall_timeout", format!("{:?}", o.stall_timeout));
}

struct Server {
    handle: ReactorHandle,
    hub: MetricsHub,
    timed: Arc<Timed>,
}

fn start(table: &Table, rec: &Arc<Recorder>) -> Result<(Server, f64), Failure> {
    let data = table.data.clone();
    let t0 = Instant::now();
    let engine = RelationalEngine::new("served");
    engine.set_stats_enabled(true);
    engine
        .store("kv", data)
        .map_err(|e| Failure(format!("load kv: {e}")))?;
    engine
        .build_index("kv", "k", IndexKind::Hash)
        .map_err(|e| Failure(format!("index kv.k: {e}")))?;
    let timed = Arc::new(Timed::new(Arc::new(engine), "relational", Arc::clone(rec)));
    let hub = MetricsHub::new();
    let handle = serve_reactor(timed.clone(), "127.0.0.1:0", reactor_options(&hub))?;
    Ok((Server { handle, hub, timed }, t0.elapsed().as_secs_f64()))
}

/// What the client saw of one request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    op: Op,
    due: Instant,
    sent: Instant,
    encode_ns: u64,
    decode_ns: u64,
    done: Option<Instant>,
    ok: bool,
    request_bytes: u64,
    response_bytes: u64,
}

impl Sample {
    /// Latency from the scheduled send time; a failed request misses
    /// every limit.
    fn latency_ms(&self) -> f64 {
        match (self.ok, self.done) {
            (true, Some(d)) => (d - self.due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl Conn {
    fn flush(&mut self) -> Result<(), Failure> {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err(Failure("server closed the connection".into())),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

/// How a phase releases its requests.
#[derive(Debug, Clone, Copy)]
enum Pacing {
    /// Open loop: request `i` is due `i / rate` seconds in, whatever the
    /// server does.
    Rate(f64),
    /// Closed loop: keep this many requests in flight on each connection
    /// until the duration has passed, so the server never waits for the
    /// client.
    Window(usize, Duration),
}

/// One phase: `ops` sent from a single thread over `CONNECTIONS`
/// pipelined connections as `pacing` releases them. Each reply is
/// checked against the table.
fn drive(
    addr: SocketAddr,
    table: &Table,
    ops: &[Op],
    pacing: Pacing,
) -> Result<Vec<Sample>, Failure> {
    let schema = table.data.schema().clone();
    let poller = Poller::new()?;
    let mut conns = Vec::new();
    for i in 0..CONNECTIONS {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        poller.add(&stream, Event::readable(i))?;
        conns.push(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
        });
    }
    let start = Instant::now() + Duration::from_millis(5);
    let (gap, stop_sending) = match pacing {
        Pacing::Rate(rate) => {
            let gap = Duration::from_secs_f64(1.0 / rate);
            (gap, start + gap * ops.len() as u32)
        }
        Pacing::Window(_, secs) => (Duration::ZERO, start + secs),
    };
    let mut samples: Vec<Sample> = Vec::with_capacity(ops.len());
    let mut inflight: HashMap<u64, usize> = HashMap::new();
    let mut events = Vec::new();
    let mut tmp = vec![0u8; 1 << 16];
    let mut frame = Vec::new();
    loop {
        let now = Instant::now();
        let may_send = |sent: usize, inflight: usize| match pacing {
            Pacing::Rate(_) => start + gap * sent as u32 <= now,
            Pacing::Window(k, _) => {
                now >= start && now < stop_sending && inflight < k * CONNECTIONS
            }
        };
        while samples.len() < ops.len() && may_send(samples.len(), inflight.len()) {
            let tag = samples.len() as u64;
            let op = ops[tag as usize];
            let plan = plan_of(op, &schema);
            let sent = Instant::now();
            let due = match pacing {
                Pacing::Rate(_) => start + gap * tag as u32,
                Pacing::Window(..) => sent,
            };
            let req = Request::Pipelined {
                tag,
                inner: Box::new(Request::Execute { plan }),
            };
            let (kind, payload) = encode_request(&req);
            frame.clear();
            let request_bytes = write_message(&mut frame, kind, &payload)?;
            let encode_ns = sent.elapsed().as_nanos() as u64;
            let conn = &mut conns[tag as usize % CONNECTIONS];
            conn.wbuf.extend_from_slice(&frame);
            conn.flush()?;
            inflight.insert(tag, samples.len());
            samples.push(Sample {
                op,
                due,
                sent,
                encode_ns,
                decode_ns: 0,
                done: None,
                ok: false,
                request_bytes,
                response_bytes: 0,
            });
        }
        let all_sent = samples.len() == ops.len() || now >= stop_sending;
        if all_sent && inflight.is_empty() {
            break;
        }
        if all_sent && now > stop_sending + TIMEOUT {
            break;
        }
        for c in conns.iter_mut() {
            c.flush()?;
        }
        let pending_writes = conns.iter().any(|c| !c.wbuf.is_empty());
        let wait = match pacing {
            Pacing::Rate(_) if !all_sent => {
                (start + gap * samples.len() as u32).saturating_duration_since(Instant::now())
            }
            _ => Duration::from_millis(10),
        };
        events.clear();
        if wait >= Duration::from_millis(2) && !pending_writes {
            poller.wait(&mut events, Some(wait - Duration::from_millis(1)))?;
        } else {
            poller.wait(&mut events, Some(Duration::ZERO))?;
            if events.is_empty() {
                std::thread::sleep(wait.min(Duration::from_micros(100)));
            }
        }
        for ev in &events {
            let conn = &mut conns[ev.key];
            loop {
                match conn.stream.read(&mut tmp) {
                    Ok(0) => return Err(Failure("server closed a connection".into())),
                    Ok(n) => conn.rbuf.extend_from_slice(&tmp[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
            // Every reply in this read arrived now. Each one's latency
            // adds only its own decode, not the decoding and checking of
            // the replies before it.
            let arrived = Instant::now();
            let mut off = 0;
            while let Some((kind, payload, used)) =
                parse_message(&conn.rbuf[off..], MAX_MESSAGE_BYTES)
                    .map_err(|e| Failure(format!("bad frame from the server: {e}")))?
            {
                off += used;
                let t = Instant::now();
                let resp = decode_response(kind, &payload)
                    .map_err(|e| Failure(format!("undecodable response: {e}")))?;
                let decode_ns = t.elapsed().as_nanos() as u64;
                let Response::Pipelined { tag, inner } = resp else {
                    return Err(Failure(format!("untagged response {resp:?}")));
                };
                let Some(i) = inflight.remove(&tag) else {
                    return Err(Failure(format!("reply for unknown tag {tag}")));
                };
                let s = &mut samples[i];
                s.decode_ns = decode_ns;
                s.response_bytes = used as u64;
                s.done = Some(arrived + Duration::from_nanos(decode_ns));
                match *inner {
                    Response::DataSet(ds) => {
                        table.check(s.op, &ds).map_err(Failure)?;
                        s.ok = true;
                    }
                    Response::Error { msg, transient } => {
                        shed_or_fail(&format!("{:?}", s.op), &msg, transient)?
                    }
                    other => return Err(Failure(format!("unexpected reply {other:?}"))),
                }
            }
            conn.rbuf.drain(..off);
        }
    }
    for c in &conns {
        let _ = poller.delete(&c.stream);
    }
    Ok(samples)
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::latency_ms).collect()
}

/// A rate is sustainable when every request succeeds, the median meets
/// the limit, and the last quarter is not slower than the first (no
/// growing backlog).
fn sustainable(samples: &[Sample]) -> bool {
    let lat = latencies(samples);
    let q = lat.len() / 4;
    lat.iter().all(|l| l.is_finite())
        && median(&lat) <= LIMIT_MS
        && median(&lat[lat.len() - q..]) <= median(&lat[..q]) + 2.0
}

/// Geometric ladder up from the fixed rate, then geometric bisection
/// until the bracket is within 5%. A rate that misses is tried once
/// more before it counts as a miss, so one burst of host noise does not
/// end the search. Returns the highest sustainable rate (0 if the fixed
/// rate already misses) and the rungs tried.
fn max_rps(
    addr: SocketAddr,
    table: &Table,
    ops: &[Op],
    rung_s: f64,
) -> Result<(f64, Vec<(f64, bool)>), Failure> {
    let mut rungs = Vec::new();
    let mut try_rate = |rate: f64| -> Result<bool, Failure> {
        let n = ((rate * rung_s) as usize).max(20);
        for _ in 0..2 {
            let ok = sustainable(&drive(addr, table, &ops[..n], Pacing::Rate(rate))?);
            rungs.push((rate, ok));
            if ok {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let (mut lo, mut hi) = (0.0, FIXED_RPS);
    while hi <= 50_000.0 && try_rate(hi)? {
        lo = hi;
        hi *= 2.0;
    }
    // 0 when even the fixed rate misses the limit.
    while lo > 0.0 && hi / lo > 1.05 {
        let mid = (lo * hi).sqrt();
        if try_rate(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo, rungs))
}

pub fn run(cfg: &Config, out: &mut Outcome) -> Result<(), Failure> {
    let table = Table::generate(cfg.seed, CHUNKS);
    let seq = ops(cfg.seed, table.rows(), 200_000);
    out.fingerprint = fingerprint(&table, &seq);

    let rec = Arc::new(Recorder::new());
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(server.take());
        let (s, secs) = start(&table, &rec)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("set up at least once");
    let addr = server.handle.addr();
    echo_reactor_knobs(out, &server.hub);
    out.knob("engine.stats_enabled", true);
    out.knob("engine.workers", bda_core::pool::workers());
    out.knob("table.rows", table.rows());
    out.knob("mix", "1 range scan in 10 requests");
    out.knob("fixed_rps", FIXED_RPS);
    out.knob("connections", CONNECTIONS);

    let fixed_n = |secs: f64| ((FIXED_RPS * secs) as usize).min(seq.len());
    if !cfg.trace {
        // A warm-up second lets the server's allocator and caches
        // settle; its answers are still checked.
        drive(addr, &table, &seq[..fixed_n(1.0)], Pacing::Rate(FIXED_RPS))?;
        let fixed = drive(
            addr,
            &table,
            &seq[..fixed_n(cfg.seconds * 0.25)],
            Pacing::Rate(FIXED_RPS),
        )?;
        let cap_s = cfg.seconds * 0.25;
        let window = Pacing::Window(WINDOW, Duration::from_secs_f64(cap_s));
        let cpu0 = crate::process_cpu_s();
        let saturated = drive(addr, &table, &seq, window)?;
        let cpu_s = crate::process_cpu_s() - cpu0;
        let (max, rungs) = max_rps(addr, &table, &seq, cfg.seconds * 0.06)?;
        let lat = latencies(&fixed);
        out.attempted = (fixed.len() + saturated.len()) as u64;
        out.failed = fixed.iter().chain(&saturated).filter(|s| !s.ok).count() as u64;
        out.metric("setup_s", median(&setups), "s");
        let answered = saturated.iter().filter(|s| s.ok).count().max(1);
        out.metric("cpu_ms_per_op", cpu_s * 1e3 / answered as f64, "ms");
        out.detail("throughput_ops_s", answered as f64 / cap_s, "1/s", answered);
        out.detail("p50_ms", median(&lat), "ms", lat.len());
        out.detail("p99_ms", quantile(&lat, 0.99), "ms", lat.len());
        let of = |point: bool| -> Vec<f64> {
            fixed
                .iter()
                .filter(|s| matches!(s.op, Op::Point(_)) == point)
                .map(Sample::latency_ms)
                .collect()
        };
        out.detail("max_rps", max, "1/s", rungs.len());
        out.detail("point_p50_ms", median(&of(true)), "ms", of(true).len());
        out.detail("range_p50_ms", median(&of(false)), "ms", of(false).len());
        let late: Vec<f64> = fixed
            .iter()
            .map(|s| (s.sent - s.due).as_secs_f64() * 1e3)
            .collect();
        out.detail("gen_late_p99_ms", quantile(&late, 0.99), "ms", late.len());
        for (rate, ok) in rungs {
            out.knob(
                &format!("ladder.{rate:.0}"),
                if ok { "pass" } else { "miss" },
            );
        }
        return Ok(());
    }

    let hello_us = hello_rtt_us(addr, 200)?;
    let n = fixed_n(cfg.seconds / 2.0);
    let plain = drive(addr, &table, &seq[..n], Pacing::Rate(FIXED_RPS))?;
    server.timed.reset_counts();
    let shed0 = counter_total(&server.hub, "bda_reactor_shed_total");
    let proto0 = counter_total(&server.hub, "bda_reactor_protocol_errors_total");
    rec.set_enabled(true);
    let traced = drive(addr, &table, &seq[n..2 * n], Pacing::Rate(FIXED_RPS))?;
    for (tag, s) in traced.iter().enumerate() {
        let Some(done) = s.done else { continue };
        let req = tag as u64;
        let (sent, done) = (rec.at(s.sent), rec.at(done));
        let client = rec.record("client", rec.at(s.due), done, 0, req);
        rec.record("net.encode", sent, sent + s.encode_ns, client, req);
        rec.record("net.decode", done - s.decode_ns, done, client, req);
    }
    rec.set_enabled(false);
    let spans = rec.take();
    out.attempted = (plain.len() + traced.len()) as u64;
    out.failed = plain.iter().chain(&traced).filter(|s| !s.ok).count() as u64;

    let k = traced.len() as f64;
    let sum = |f: &dyn Fn(&Sample) -> f64| traced.iter().map(f).sum::<f64>();
    let wall = sum(&|s| s.done.map_or(0.0, |d| (d - s.due).as_nanos() as f64));
    let late = sum(&|s| (s.sent - s.due).as_nanos() as f64);
    let enc = sum(&|s| s.encode_ns as f64);
    let dec = sum(&|s| s.decode_ns as f64);
    let rtt = sum(&|s| s.done.map_or(0.0, |d| (d - s.sent).as_nanos() as f64));
    let provider = busy(&spans, "relational") as f64;
    let reactor = rtt - enc - dec - provider;
    let (calls, rows) = server.timed.counts();
    out.metric("relational.busy_ms", provider / k / 1e6, "ms");
    out.metric("relational.calls", calls as f64 / k, "count");
    out.metric("relational.rows_out", rows as f64 / k, "count");
    out.metric("net.encode_us", enc / k / 1e3, "us");
    out.metric("net.decode_us", dec / k / 1e3, "us");
    out.metric(
        "net.request_bytes",
        sum(&|s| s.request_bytes as f64) / k,
        "bytes",
    );
    out.metric(
        "net.response_bytes",
        sum(&|s| s.response_bytes as f64) / k,
        "bytes",
    );
    out.metric("reactor.self_us", reactor / k / 1e3, "us");
    out.metric("reactor.hello_rtt_us", hello_us, "us");
    out.metric(
        "reactor.shed",
        counter_total(&server.hub, "bda_reactor_shed_total") - shed0,
        "count",
    );
    out.metric(
        "reactor.protocol_errors",
        counter_total(&server.hub, "bda_reactor_protocol_errors_total") - proto0,
        "count",
    );
    out.metric("gen.late_ms", late / k / 1e6, "ms");
    crate::push_shares(
        out,
        &[
            ("gen", late / wall),
            ("net", (enc + dec) / wall),
            ("relational", provider / wall),
            ("reactor", reactor / wall),
        ],
    );
    let mean = |s: &[Sample]| latencies(s).iter().sum::<f64>() / s.len() as f64;
    out.metric(
        "trace.overhead_frac",
        mean(&traced) / mean(&plain) - 1.0,
        "frac",
    );
    out.spans = spans;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_table_and_requests() {
        let fp = |seed| {
            let t = Table::generate(seed, 2);
            fingerprint(&t, &ops(seed, t.rows(), 200))
        };
        assert_eq!(fp(5), fp(5));
        assert_ne!(fp(5), fp(6));
    }

    #[test]
    fn replies_are_checked_against_the_key_asked_for() {
        let t = Table::generate(9, 2);
        let engine = RelationalEngine::new("served");
        engine.store("kv", t.data.clone()).expect("load");
        engine
            .build_index("kv", "k", IndexKind::Hash)
            .expect("index");
        let schema = t.data.schema().clone();
        for op in ops(9, t.rows(), 50) {
            let ds = engine.execute(&plan_of(op, &schema)).expect("lookup");
            assert_eq!(t.check(op, &ds), Ok(()));
        }
        let other = engine
            .execute(&plan_of(Op::Point(2), &schema))
            .expect("lookup");
        assert!(t.check(Op::Point(1), &other).is_err());
        let range = engine
            .execute(&plan_of(Op::Range(10), &schema))
            .expect("scan");
        assert!(t.check(Op::Range(11), &range).is_err());
    }
}
