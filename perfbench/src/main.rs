//! `perfbench`: the seeded end-to-end benchmark of the bda workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analytics|served|ingest|all --seed 1 --seconds 10 --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics, timed from outside
//! the crates (see `spans.rs` and `timed.rs`). Every answer is checked;
//! a wrong one exits with code 1 and prints no result. The last line of
//! standard output is one JSON object. `--workload all` runs every
//! workload untraced and then traced and prints each report. README.md
//! says why each workload exists and which layers it bypasses.

mod analytics;
mod gen;
mod ingest;
mod served;
mod spans;
mod stats;
mod timed;
mod wire;

use std::fmt::Write as _;

/// The set-up is repeated this many times per run; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 5;

/// `BENCHMARK.json` names every metric with its unit; the runner reads
/// the list from there, so the file and the reports cannot drift apart.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` of every metric in one section of
/// `BENCHMARK.json`: `end_to_end` (what a `--trace 0` run reports, on
/// every workload) or `per_layer` (what a `--trace 1` run reports, on
/// every workload; a layer a workload bypasses reads 0). Throughput and
/// latencies are printed for every workload too, but are not declared
/// metrics: see README.md for the spreads that ruled them out.
pub fn declared(section: &str) -> Vec<(&'static str, &'static str)> {
    let field = |obj: &'static str, key: &str| -> &'static str {
        let after = obj.split(&format!("\"{key}\"")).nth(1).unwrap_or("");
        after.split('"').nth(1).unwrap_or("")
    };
    let body = BENCHMARK_JSON
        .split(&format!("\"{section}\""))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .unwrap_or("");
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// Environment variables the crates read. They are removed before any
/// work starts, so a developer's shell cannot move a number; every knob
/// they would set is pinned through the API instead.
const SCRUBBED_PREFIX: &str = "BDA_";

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A failed run: a wrong answer, or an error the benchmark cannot
/// measure past. It exits with code 1 and prints no result.
#[derive(Debug)]
pub struct Failure(pub String);

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Failure {
        Failure(format!("i/o: {e}"))
    }
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Workload-specific figures for the human report, with sample count.
    pub details: Vec<(String, f64, &'static str, usize)>,
    pub knobs: Vec<(String, String)>,
    pub fingerprint: gen::Fingerprint,
    pub spans: Vec<spans::Span>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.details.push((name.to_string(), value, unit, samples));
    }

    pub fn knob(&mut self, name: &str, value: impl std::fmt::Display) {
        self.knobs.push((name.to_string(), value.to_string()));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Per-layer shares of the traced wall time; `unattributed` is what no
/// layer accounts for.
pub fn push_shares(out: &mut Outcome, shares: &[(&str, f64)]) {
    let mut total = 0.0;
    for (layer, share) in shares {
        out.metric(format!("{layer}.share"), *share, "frac");
        total += share;
    }
    out.metric("unattributed.share", 1.0 - total, "frac");
}

fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds this process has used (user + system, every thread),
/// from `CLOCK_PROCESS_CPUTIME_ID`.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// CPU seconds the calling thread has used, from
/// `CLOCK_THREAD_CPUTIME_ID`.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    match cfg.workload.as_str() {
        "analytics" | "served" | "ingest" | "all" => Ok(cfg),
        "" => Err("--workload is required".into()),
        w => Err(format!("unknown workload {w}")),
    }
}

fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(SCRUBBED_PREFIX))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn run_one(cfg: &Config) -> Result<Outcome, Failure> {
    let mut out = Outcome::default();
    match cfg.workload.as_str() {
        "analytics" => analytics::run(cfg, &mut out)?,
        "served" => served::run(cfg, &mut out)?,
        "ingest" => ingest::run(cfg, &mut out)?,
        w => unreachable!("workload {w} validated by parse_args"),
    }
    if out.attempted == 0 {
        return Err(Failure(format!("{}: no operation completed", cfg.workload)));
    }
    let section = if cfg.trace { "per_layer" } else { "end_to_end" };
    let want = declared(section);
    for (name, _, unit) in &out.metrics {
        if !want.contains(&(name.as_str(), *unit)) {
            return Err(Failure(format!(
                "metric {name} ({unit}) is not declared in {section} of BENCHMARK.json"
            )));
        }
    }
    for (name, unit) in want {
        match out.get(name) {
            Some(v) if !cfg.trace && v <= 0.0 => {
                return Err(Failure(format!("{}: {name} = {v}", cfg.workload)))
            }
            Some(_) => {}
            None if cfg.trace => out.metric(name, 0.0, unit),
            None => return Err(Failure(format!("{}: {name} not reported", cfg.workload))),
        }
    }
    if let Some((n, v, _)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(Failure(format!("{}: {n} = {v}", cfg.workload)));
    }
    Ok(out)
}

fn report(cfg: &Config, out: &Outcome) {
    let mode = if cfg.trace { "traced" } else { "untraced" };
    println!(
        "== {} ({mode}) seed={} seconds={} ==",
        cfg.workload, cfg.seed, cfg.seconds
    );
    println!(
        "  inputs+ops fingerprint: {:016x}/{}",
        out.fingerprint.sum, out.fingerprint.rows
    );
    for (k, v) in &out.knobs {
        println!("  knob {k} = {v}");
    }
    for (name, value, unit) in &out.metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    for (name, value, unit, n) in &out.details {
        println!("  {name:<28} {value:>14.4} {unit}  (n={n})");
    }
    if !cfg.trace {
        let frac = out.failed as f64 / out.attempted as f64;
        println!(
            "  {:<28} {frac:>14.4} frac  ({} of {} attempted)",
            "failed_frac", out.failed, out.attempted
        );
    }
}

fn json_line(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn write_spans(cfg: &Config, out: &Outcome) {
    if out.spans.is_empty() {
        return;
    }
    let path = std::path::PathBuf::from(".perfbench_out")
        .join(format!("{}-seed{}.spans.jsonl", cfg.workload, cfg.seed));
    match spans::write_jsonl(&path, &out.spans) {
        Ok(()) => println!("  spans: {} written to {}", out.spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

fn main() {
    let scrubbed = scrub_env();
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload analytics|served|ingest|all --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: scrubbed env [{}]; available_parallelism={}",
        scrubbed.join(", "),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let runs: Vec<Config> = if cfg.workload == "all" {
        ["analytics", "served", "ingest"]
            .iter()
            .flat_map(|w| {
                [false, true].map(|trace| Config {
                    workload: w.to_string(),
                    seed: cfg.seed,
                    seconds: cfg.seconds,
                    trace,
                })
            })
            .collect()
    } else {
        vec![cfg]
    };
    let mut last = String::new();
    for run in &runs {
        match run_one(run) {
            Ok(out) => {
                report(run, &out);
                write_spans(run, &out);
                last = json_line(&out);
            }
            Err(Failure(msg)) => {
                eprintln!("perfbench: FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
    println!("{last}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_unique_named_metrics() {
        let e2e = declared("end_to_end");
        let layers = declared("per_layer");
        assert!(e2e.contains(&("setup_s", "s")));
        assert!(!layers.is_empty());
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|(n, _)| *n).collect();
        assert!(e2e
            .iter()
            .chain(&layers)
            .all(|(n, u)| !n.is_empty() && !u.is_empty()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is declared twice");
    }
}
