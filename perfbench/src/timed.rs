//! The benchmark's only `Provider` impl: a timing decorator.
//!
//! It forwards every hook the planner and executor consult (catalog,
//! capabilities, statistics, indexes), so a federation sees exactly the
//! provider it wraps — the fidelity tests compare `explain` text and
//! result fingerprints with and without it. While the recorder is
//! enabled, `execute`, `store` and `remove` each leave one span named
//! after the wrapped layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bda_core::{CapabilitySet, Plan, Provider};
use bda_storage::{DataSet, IndexKind, IndexSpec, Schema, TableStats};

use crate::spans::Recorder;

pub struct Timed {
    inner: Arc<dyn Provider>,
    layer: &'static str,
    rec: Arc<Recorder>,
    calls: AtomicU64,
    rows_out: AtomicU64,
}

impl Timed {
    pub fn new(inner: Arc<dyn Provider>, layer: &'static str, rec: Arc<Recorder>) -> Timed {
        Timed {
            inner,
            layer,
            rec,
            calls: AtomicU64::new(0),
            rows_out: AtomicU64::new(0),
        }
    }

    /// `(calls, rows returned by execute)` since the last reset.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.rows_out.load(Ordering::Relaxed),
        )
    }

    pub fn reset_counts(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.rows_out.store(0, Ordering::Relaxed);
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rec.time(self.layer, f)
    }
}

impl Provider for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> CapabilitySet {
        self.inner.capabilities()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.inner.catalog()
    }

    fn execute(&self, plan: &Plan) -> bda_core::provider::Result<DataSet> {
        let out = self.timed(|| self.inner.execute(plan));
        if let Ok(ds) = &out {
            self.rows_out
                .fetch_add(ds.num_rows() as u64, Ordering::Relaxed);
        }
        out
    }

    fn store(&self, name: &str, data: DataSet) -> bda_core::provider::Result<()> {
        self.timed(|| self.inner.store(name, data))
    }

    fn remove(&self, name: &str) {
        self.timed(|| self.inner.remove(name))
    }

    fn schema_of(&self, name: &str) -> Option<Schema> {
        self.inner.schema_of(name)
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.inner.row_count_of(name)
    }

    fn table_stats(&self, name: &str) -> Option<TableStats> {
        self.inner.table_stats(name)
    }

    fn build_index(
        &self,
        dataset: &str,
        column: &str,
        kind: IndexKind,
    ) -> bda_core::provider::Result<()> {
        self.inner.build_index(dataset, column, kind)
    }

    fn index_specs(&self, dataset: &str) -> Vec<IndexSpec> {
        self.inner.index_specs(dataset)
    }

    fn index_fingerprint(&self, dataset: &str, column: &str) -> Option<u64> {
        self.inner.index_fingerprint(dataset, column)
    }

    fn endpoint(&self) -> Option<String> {
        self.inner.endpoint()
    }

    fn execute_push(
        &self,
        plan: &Plan,
        peer_addr: &str,
        dest_name: &str,
    ) -> Option<bda_core::provider::Result<u64>> {
        self.timed(|| self.inner.execute_push(plan, peer_addr, dest_name))
    }

    fn wire_bytes(&self) -> (u64, u64) {
        self.inner.wire_bytes()
    }

    fn metrics_text(&self) -> Option<String> {
        self.inner.metrics_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_relational::RelationalEngine;
    use bda_storage::Column;

    #[test]
    fn forwards_catalog_statistics_and_index_hooks() {
        let engine = RelationalEngine::new("r");
        let ds = DataSet::from_columns(vec![("k", Column::from(vec![3i64, 1, 2]))]).unwrap();
        engine.store("t", ds).unwrap();
        engine.build_index("t", "k", IndexKind::Hash).unwrap();
        let inner: Arc<dyn Provider> = Arc::new(engine);
        let t = Timed::new(Arc::clone(&inner), "relational", Arc::new(Recorder::new()));
        assert_eq!(t.name(), inner.name());
        assert_eq!(t.capabilities(), inner.capabilities());
        assert_eq!(t.catalog(), inner.catalog());
        assert_eq!(t.schema_of("t"), inner.schema_of("t"));
        assert_eq!(t.row_count_of("t"), inner.row_count_of("t"));
        assert_eq!(
            format!("{:?}", t.table_stats("t")),
            format!("{:?}", inner.table_stats("t"))
        );
        assert_eq!(t.index_specs("t"), inner.index_specs("t"));
        assert_eq!(
            t.index_fingerprint("t", "k"),
            inner.index_fingerprint("t", "k")
        );
        assert!(t.index_fingerprint("t", "k").is_some());
        t.build_index("t", "k", IndexKind::Sorted).unwrap();
        assert_eq!(inner.index_specs("t")[0].kind, IndexKind::Sorted);
    }
}
