//! Tenant-aware resource metering: who is consuming the cluster.
//!
//! The [`UsageBook`] charges rows, bytes, CPU-ns, wire-bytes, and
//! retries per tenant by distilling the same span trees
//! [`crate::profile`] already walks — [`UsageBook::charge`] takes a
//! finished [`QueryProfile`] and attributes its costs to the profile's
//! tenant. Serving cores that never see a full profile charge the
//! cheaper request grain via [`UsageBook::charge_io`].
//!
//! Charging rules (also documented in DESIGN.md):
//!
//! * `rows`/`bytes` — operator output, summed over `op:` spans;
//! * `cpu_ns` — operator span wall summed (the compute proper; fragment
//!   spans are excluded because they include network wait), falling
//!   back to the end-to-end wall when a query recorded no operator
//!   spans;
//! * `wire_bytes` — transfer and reship payloads, summed over sites;
//! * `retries` — retry attempts, summed over sites.
//!
//! Like the [`crate::profile::CostBook`], the book is seeded and
//! deterministic: monotone totals plus EWMA rates per tenant, sorted
//! rendering, floats fixed to three decimals — two books with the same
//! seed fed the same charges render byte-identically. The book persists
//! as JSONL under the same directory as the query log (one snapshot
//! line per query-grained charge; the loader keeps the last line per
//! tenant), and the EWMA rates feed back into reactor admission as the
//! deficit weights of its usage-fair mode.
//!
//! Metering is off until [`set_enabled`] flips the global switch — the
//! only cost on the disabled path is one relaxed atomic load.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::chrome::escape;
use crate::profile::{object_fields, parse_string, parse_u64, raw_of, QueryProfile};

/// File name of the JSONL usage book inside the profile directory
/// (alongside [`crate::profile::PROFILE_FILE`]).
pub const USAGE_FILE: &str = "usage.jsonl";

/// The tenant charged when nothing supplied an identity: in-process
/// work at the application tier.
pub const DEFAULT_TENANT: &str = "local";

/// EWMA smoothing factor for per-tenant usage rates (matches the cost
/// book's calibration smoothing).
pub const EWMA_ALPHA: f64 = 0.3;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enable or disable metering. Off by default; the disabled
/// fast path is a single relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is metering globally enabled?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Everything the book knows about one tenant: monotone totals plus
/// EWMA rates over its recent query-grained charges.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantUsage {
    /// Tenant identity (a tag from the wire, or a peer address).
    pub tenant: String,
    /// Query-grained charges folded in.
    pub queries: u64,
    /// Operator output rows, summed.
    pub rows: u64,
    /// Operator output bytes, summed.
    pub bytes: u64,
    /// CPU nanoseconds (operator span wall), summed.
    pub cpu_ns: u64,
    /// Wire bytes (transfers, reships, framed request I/O), summed.
    pub wire_bytes: u64,
    /// Retry attempts charged to this tenant's queries.
    pub retries: u64,
    /// EWMA of CPU-ns per charge — the admission deficit weight.
    pub ewma_cpu_ns: f64,
    /// EWMA of (payload + wire) bytes per charge.
    pub ewma_bytes: f64,
}

impl TenantUsage {
    fn new(tenant: &str) -> TenantUsage {
        TenantUsage {
            tenant: tenant.to_string(),
            queries: 0,
            rows: 0,
            bytes: 0,
            cpu_ns: 0,
            wire_bytes: 0,
            retries: 0,
            ewma_cpu_ns: 0.0,
            ewma_bytes: 0.0,
        }
    }

    /// Render as a single JSON line (the JSONL persistence format and
    /// the `/tenants` element shape). Floats fixed to three decimals so
    /// equal usage renders byte-identically.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"tenant\":\"{}\",\"queries\":{},\"rows\":{},\"bytes\":{},\"cpu_ns\":{},\
             \"wire_bytes\":{},\"retries\":{},\"ewma_cpu_ns\":{:.3},\"ewma_bytes\":{:.3}}}",
            escape(&self.tenant),
            self.queries,
            self.rows,
            self.bytes,
            self.cpu_ns,
            self.wire_bytes,
            self.retries,
            self.ewma_cpu_ns,
            self.ewma_bytes,
        )
    }

    /// Parse one JSONL line produced by [`TenantUsage::render_json`].
    /// Lenient: `None` for anything malformed (the loader skips it).
    pub fn parse_json(line: &str) -> Option<TenantUsage> {
        let fields = object_fields(line)?;
        Some(TenantUsage {
            tenant: raw_of(&fields, "tenant").and_then(parse_string)?,
            queries: raw_of(&fields, "queries").and_then(parse_u64)?,
            rows: raw_of(&fields, "rows").and_then(parse_u64)?,
            bytes: raw_of(&fields, "bytes").and_then(parse_u64)?,
            cpu_ns: raw_of(&fields, "cpu_ns").and_then(parse_u64)?,
            wire_bytes: raw_of(&fields, "wire_bytes").and_then(parse_u64)?,
            retries: raw_of(&fields, "retries").and_then(parse_u64)?,
            ewma_cpu_ns: raw_of(&fields, "ewma_cpu_ns").and_then(parse_f64)?,
            ewma_bytes: raw_of(&fields, "ewma_bytes").and_then(parse_f64)?,
        })
    }
}

fn parse_f64(raw: &str) -> Option<f64> {
    raw.trim().parse().ok()
}

fn fold(prev: &mut f64, samples: u64, obs: f64) {
    if samples <= 1 {
        *prev = obs;
    } else {
        *prev = EWMA_ALPHA * obs + (1.0 - EWMA_ALPHA) * *prev;
    }
}

struct BookInner {
    seed: u64,
    charges: u64,
    tenants: BTreeMap<String, TenantUsage>,
    /// JSONL file appended on every query-grained charge, once
    /// persistence is enabled.
    persist: Option<PathBuf>,
}

/// Seeded, deterministic per-tenant usage aggregation. Cloning shares
/// the underlying registry (the serving core, the admission controller,
/// and the ops routes all hold clones of one book).
#[derive(Clone)]
pub struct UsageBook {
    inner: Arc<Mutex<BookInner>>,
}

impl UsageBook {
    /// A fresh book. The seed is provenance recorded in dumps: two
    /// books built with the same seed and fed the same charges render
    /// byte-identically.
    pub fn new(seed: u64) -> UsageBook {
        UsageBook {
            inner: Arc::new(Mutex::new(BookInner {
                seed,
                charges: 0,
                tenants: BTreeMap::new(),
                persist: None,
            })),
        }
    }

    /// The seed this book was built with.
    pub fn seed(&self) -> u64 {
        self.inner.lock().expect("usage book lock poisoned").seed
    }

    /// Total charges folded in (query- and request-grained).
    pub fn charges(&self) -> u64 {
        self.inner.lock().expect("usage book lock poisoned").charges
    }

    /// Enable JSONL persistence under `dir`: load whatever `usage.jsonl`
    /// already holds (lenient — bad lines skipped; the *last* snapshot
    /// line per tenant wins), then append a snapshot on every future
    /// query-grained charge. Returns how many tenants were recovered.
    pub fn init_persistence(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(USAGE_FILE);
        let mut inner = self.inner.lock().expect("usage book lock poisoned");
        if let Ok(existing) = std::fs::read_to_string(&path) {
            for line in existing.lines() {
                if let Some(usage) = TenantUsage::parse_json(line) {
                    inner.tenants.insert(usage.tenant.clone(), usage);
                }
            }
        }
        inner.persist = Some(path);
        Ok(inner.tenants.len())
    }

    /// Charge a finished query profile to its tenant (empty tenant maps
    /// to [`DEFAULT_TENANT`]), applying the module-level charging rules,
    /// and persist the tenant's updated snapshot.
    pub fn charge(&self, profile: &QueryProfile) {
        let tenant = if profile.tenant.is_empty() {
            DEFAULT_TENANT
        } else {
            &profile.tenant
        };
        let rows: u64 = profile.ops.iter().map(|o| o.rows).sum();
        let bytes: u64 = profile.ops.iter().map(|o| o.bytes).sum();
        let mut cpu_ns: u64 = profile.ops.iter().map(|o| o.wall_ns).sum();
        if profile.ops.is_empty() {
            cpu_ns = profile.wall_ns;
        }
        let wire_bytes: u64 = profile.sites.iter().map(|s| s.transfer_bytes).sum();
        let retries: u64 = profile.sites.iter().map(|s| s.retries).sum();
        self.charge_query(tenant, rows, bytes, cpu_ns, wire_bytes, retries);
    }

    /// Charge one query's distilled costs to `tenant` and persist the
    /// updated snapshot (best effort).
    pub fn charge_query(
        &self,
        tenant: &str,
        rows: u64,
        bytes: u64,
        cpu_ns: u64,
        wire_bytes: u64,
        retries: u64,
    ) {
        let mut inner = self.inner.lock().expect("usage book lock poisoned");
        inner.charges += 1;
        let usage = inner
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantUsage::new(tenant));
        usage.queries += 1;
        usage.rows += rows;
        usage.bytes += bytes;
        usage.cpu_ns += cpu_ns;
        usage.wire_bytes += wire_bytes;
        usage.retries += retries;
        let n = usage.queries;
        fold(&mut usage.ewma_cpu_ns, n, cpu_ns as f64);
        fold(&mut usage.ewma_bytes, n, (bytes + wire_bytes) as f64);
        let line = usage.render_json();
        if let Some(path) = inner.persist.clone() {
            let _ = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
        }
    }

    /// Charge one handled request's wall time and wire bytes to
    /// `tenant` — the serving-core hot path. Totals and EWMA rates
    /// move; nothing is persisted (the book persists at query grain).
    pub fn charge_io(&self, tenant: &str, cpu_ns: u64, wire_bytes: u64) {
        let mut inner = self.inner.lock().expect("usage book lock poisoned");
        inner.charges += 1;
        let usage = inner
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantUsage::new(tenant));
        usage.cpu_ns += cpu_ns;
        usage.wire_bytes += wire_bytes;
        // Request charges fold into the rates with the query count as
        // the sample clock: the first-ever charge still initializes.
        let n = if usage.queries == 0 && usage.ewma_cpu_ns == 0.0 {
            1
        } else {
            2
        };
        fold(&mut usage.ewma_cpu_ns, n, cpu_ns as f64);
        fold(&mut usage.ewma_bytes, n, wire_bytes as f64);
    }

    /// The deficit weight admission's usage-fair mode charges per
    /// dispatch: the tenant's recent cost in "nanosecond-equivalents"
    /// (EWMA CPU-ns plus EWMA bytes at one ns per byte). `None` when
    /// the tenant has no recorded usage — the caller falls back to
    /// plain round-robin weighting.
    pub fn recent_cost_ns(&self, tenant: &str) -> Option<f64> {
        let inner = self.inner.lock().expect("usage book lock poisoned");
        let usage = inner.tenants.get(tenant)?;
        let cost = usage.ewma_cpu_ns + usage.ewma_bytes;
        (cost > 0.0).then_some(cost)
    }

    /// This tenant's usage, when any is recorded.
    pub fn usage_of(&self, tenant: &str) -> Option<TenantUsage> {
        self.inner
            .lock()
            .expect("usage book lock poisoned")
            .tenants
            .get(tenant)
            .cloned()
    }

    /// All tenants' usage, sorted by tenant id.
    pub fn snapshot(&self) -> Vec<TenantUsage> {
        self.inner
            .lock()
            .expect("usage book lock poisoned")
            .tenants
            .values()
            .cloned()
            .collect()
    }

    /// Render the book as a JSON document (`GET /tenants`). Tenants are
    /// sorted and floats fixed, so equal books render byte-identically.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock().expect("usage book lock poisoned");
        let body: Vec<String> = inner.tenants.values().map(|u| u.render_json()).collect();
        format!(
            "{{\"seed\":{},\"charges\":{},\"tenants\":[{}]}}\n",
            inner.seed,
            inner.charges,
            body.join(",")
        )
    }

    /// Render one tenant's usage (`GET /tenants/<id>`), `None` when the
    /// tenant has no recorded usage.
    pub fn render_tenant_json(&self, tenant: &str) -> Option<String> {
        self.usage_of(tenant).map(|u| {
            let mut line = u.render_json();
            line.push('\n');
            line
        })
    }
}

/// The process-global usage book (seed 0); in memory only until a
/// binary calls [`UsageBook::init_persistence`] on it.
pub fn global_usage() -> &'static UsageBook {
    static BOOK: OnceLock<UsageBook> = OnceLock::new();
    BOOK.get_or_init(|| UsageBook::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{OpProfile, SiteProfile};

    fn sample_profile(tenant: &str) -> QueryProfile {
        QueryProfile {
            trace_id: 0xBDA,
            tenant: tenant.to_string(),
            wall_ns: 10_000,
            slow: false,
            ops: vec![
                OpProfile {
                    class: "join".into(),
                    count: 1,
                    rows: 100,
                    bytes: 800,
                    wall_ns: 4_000,
                },
                OpProfile {
                    class: "scan".into(),
                    count: 2,
                    rows: 50,
                    bytes: 200,
                    wall_ns: 1_000,
                },
            ],
            sites: vec![SiteProfile {
                site: "rel".into(),
                fragments: 1,
                fragment_wall_ns: 6_000,
                transfer_bytes: 1_000,
                transfer_wall_ns: 2_000,
                retries: 2,
                failovers: 0,
            }],
        }
    }

    #[test]
    fn charge_applies_the_documented_rules() {
        let book = UsageBook::new(7);
        book.charge(&sample_profile("acme"));
        let u = book.usage_of("acme").unwrap();
        assert_eq!(u.queries, 1);
        assert_eq!(u.rows, 150);
        assert_eq!(u.bytes, 1_000);
        assert_eq!(u.cpu_ns, 5_000, "operator wall, not fragment wall");
        assert_eq!(u.wire_bytes, 1_000);
        assert_eq!(u.retries, 2);
        assert_eq!(u.ewma_cpu_ns, 5_000.0, "first charge initializes");
        assert_eq!(u.ewma_bytes, 2_000.0);
        // An empty-tenant profile charges the default tenant.
        book.charge(&sample_profile(""));
        assert!(book.usage_of(DEFAULT_TENANT).is_some());
        assert!(book.usage_of("nobody").is_none());
    }

    #[test]
    fn profile_without_ops_charges_end_to_end_wall() {
        let book = UsageBook::new(0);
        let mut p = sample_profile("acme");
        p.ops.clear();
        book.charge(&p);
        assert_eq!(book.usage_of("acme").unwrap().cpu_ns, 10_000);
    }

    #[test]
    fn ewma_folds_and_renders_deterministically() {
        let book = UsageBook::new(42);
        book.charge(&sample_profile("acme"));
        book.charge(&sample_profile("acme"));
        let u = book.usage_of("acme").unwrap();
        assert_eq!(u.queries, 2);
        assert_eq!(u.cpu_ns, 10_000, "totals are monotone sums");
        assert!((u.ewma_cpu_ns - 5_000.0).abs() < 1e-9, "equal samples hold");
        // A twin book fed the same charges renders byte-identically.
        let twin = UsageBook::new(42);
        twin.charge(&sample_profile("acme"));
        twin.charge(&sample_profile("acme"));
        assert_eq!(book.render_json(), twin.render_json());
        assert!(book.render_json().contains("\"seed\":42"));
        // Tenants render sorted regardless of charge order.
        book.charge(&sample_profile("zeta"));
        book.charge(&sample_profile("alpha"));
        let dump = book.render_json();
        let a = dump.find("alpha").unwrap();
        let z = dump.find("zeta").unwrap();
        assert!(a < z);
    }

    #[test]
    fn charge_io_moves_rates_without_query_counts() {
        let book = UsageBook::new(0);
        book.charge_io("10.0.0.7", 2_000, 512);
        let u = book.usage_of("10.0.0.7").unwrap();
        assert_eq!(u.queries, 0);
        assert_eq!(u.cpu_ns, 2_000);
        assert_eq!(u.wire_bytes, 512);
        assert_eq!(u.ewma_cpu_ns, 2_000.0, "first charge initializes");
        assert_eq!(book.recent_cost_ns("10.0.0.7"), Some(2_000.0 + 512.0));
        assert_eq!(book.recent_cost_ns("nobody"), None);
    }

    #[test]
    fn usage_json_round_trips() {
        let book = UsageBook::new(1);
        book.charge(&sample_profile("acme \"quoted\""));
        let u = book.usage_of("acme \"quoted\"").unwrap();
        let line = u.render_json();
        assert!(!line.contains('\n'), "one tenant per line");
        assert_eq!(TenantUsage::parse_json(&line).unwrap(), u);
        assert_eq!(TenantUsage::parse_json("not json"), None);
        assert_eq!(TenantUsage::parse_json("{\"queries\":1}"), None);
    }

    #[test]
    fn persistence_keeps_the_last_snapshot_per_tenant() {
        let dir = std::env::temp_dir().join(format!("bda-meter-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let book = UsageBook::new(3);
        assert_eq!(book.init_persistence(&dir).unwrap(), 0);
        book.charge(&sample_profile("acme"));
        book.charge(&sample_profile("acme"));
        book.charge(&sample_profile("umbrella"));
        // Reload: one line per charge on disk, last per tenant wins.
        let reloaded = UsageBook::new(3);
        assert_eq!(reloaded.init_persistence(&dir).unwrap(), 2);
        assert_eq!(reloaded.usage_of("acme").unwrap().queries, 2);
        assert_eq!(reloaded.usage_of("umbrella").unwrap().queries, 1);
        // A torn trailing line is skipped, never fatal.
        let path = dir.join(USAGE_FILE);
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"tenant\":\"torn\",\"que");
        std::fs::write(&path, content).unwrap();
        let torn = UsageBook::new(3);
        assert_eq!(torn.init_persistence(&dir).unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enable_switch_defaults_off() {
        // Other tests must not flip the global switch; here we only
        // assert the toggle round-trips.
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(was);
    }

    #[test]
    fn tenant_route_rendering() {
        let book = UsageBook::new(0);
        assert_eq!(book.render_tenant_json("acme"), None);
        book.charge(&sample_profile("acme"));
        let body = book.render_tenant_json("acme").unwrap();
        assert!(body.starts_with("{\"tenant\":\"acme\""));
        assert!(body.ends_with('\n'));
    }
}
