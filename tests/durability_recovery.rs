//! Acceptance tests for the durability subsystem inside the chaos
//! federation (ROADMAP: robustness): a durable provider is crashed and
//! reopened over its data directory, rejoins the federation with its
//! data, and the federated plan still matches the reference evaluator.
//! Disk faults (torn appends, ENOSPC, truncated snapshots) are seeded
//! like the transport and provider chaos, and the acknowledged-writes
//! contract is checked under every
//! seeded fault plan: recover everything acked, or refuse loudly —
//! never ack-then-lose.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bda::core::reference::evaluate;
use bda::core::{Plan, Provider, ReferenceProvider};
use bda::federation::{ExecOptions, Federation, RecoveryPolicy};
use bda::lang::Query;
use bda::linalg::LinAlgEngine;
use bda::relational::RelationalEngine;
use bda::storage::{Column, DataSet};
use bda::workloads::random_matrix;
use bda_durability::{is_durability_error, DiskFaults, DurableProvider};
use bda_net::{serve_durable_with_faults, DurabilityOptions, NetFaults, RemoteProvider};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bda-durability-recovery-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn lookup_table() -> DataSet {
    DataSet::from_columns(vec![
        ("row", Column::from((0i64..8).collect::<Vec<i64>>())),
        (
            "weight",
            Column::from((0..8).map(|i| 1.0 + i as f64).collect::<Vec<f64>>()),
        ),
    ])
    .unwrap()
}

fn dataset(i: i64) -> DataSet {
    DataSet::from_columns(vec![("k", Column::from(vec![i, i * 2, i * 3]))]).unwrap()
}

/// Short snapshot cadence so tests exercise compaction; the byte
/// threshold stays tiny so the background thread actually snapshots.
fn durable_options(dir: &std::path::Path) -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every_bytes: u64::MAX, // only explicit snapshot_now()
        snapshot_interval: Duration::from_millis(50),
        ..DurabilityOptions::new(dir)
    }
}

#[test]
fn killed_durable_server_rejoins_the_federation_with_its_data() {
    let dir = tmp_dir();

    // Phase 1: the relational site is durable; ingest its lookup table
    // over the wire, then crash the server (the handle drops without
    // any explicit flush — acknowledged writes are already on disk).
    {
        let rel: Arc<dyn Provider> = Arc::new(RelationalEngine::new("rel"));
        let server = serve_durable_with_faults(
            rel,
            "127.0.0.1:0",
            NetFaults::new(0xBDA, 0.0),
            durable_options(&dir),
        )
        .unwrap();
        let remote = RemoteProvider::connect(server.addr().to_string()).unwrap();
        remote.store("lookup", lookup_table()).unwrap();
    }

    // Phase 2: a *fresh* engine behind the same data directory — the
    // recovered server rejoins the federation and the cross-server
    // join+matmul plan matches the reference evaluator exactly.
    let rel: Arc<dyn Provider> = Arc::new(RelationalEngine::new("rel"));
    let server = serve_durable_with_faults(
        rel,
        "127.0.0.1:0",
        NetFaults::new(0xBDA, 0.0),
        durable_options(&dir),
    )
    .unwrap();
    let report = server.recovery_report().expect("durable server");
    assert_eq!(
        report.datasets,
        vec!["lookup".to_string()],
        "recovery found the acked ingest"
    );

    let la = LinAlgEngine::new("la");
    la.store("a", random_matrix(8, 8, 1)).unwrap();
    la.store("b", random_matrix(8, 8, 2)).unwrap();
    let mut fed = Federation::new();
    fed.register(Arc::new(la));
    fed.register(Arc::new(
        RemoteProvider::connect(server.addr().to_string()).unwrap(),
    ));
    *fed.options_mut() = ExecOptions {
        recovery: RecoveryPolicy {
            enabled: true,
            max_attempts: 4,
            backoff: Duration::from_millis(1),
            failover: false,
        },
        ..Default::default()
    };

    let a = fed.registry().schema_of("a").unwrap();
    let b = fed.registry().schema_of("b").unwrap();
    let lookup = fed.registry().schema_of("lookup").unwrap();
    let plan = Query::scan("a", a)
        .matmul(Query::scan("b", b))
        .untag_dims()
        .join(Query::scan("lookup", lookup), vec![("row", "row")])
        .plan()
        .clone();
    let (out, _) = fed.run(&plan).expect("plan over the recovered site");

    let mut src = HashMap::new();
    src.insert("a".to_string(), random_matrix(8, 8, 1));
    src.insert("b".to_string(), random_matrix(8, 8, 2));
    src.insert("lookup".to_string(), lookup_table());
    let expected = evaluate(&plan, &src).expect("reference evaluation");
    assert!(
        out.same_bag(&expected).unwrap(),
        "recovered federation result disagrees with the reference evaluator"
    );

    // Staged-partition hygiene: the query shipped fragments to the
    // durable site; none may linger in its catalog, its staged map, or
    // (because staged names are never logged) its next incarnation.
    let durable = server.durable().expect("durable server");
    let leaked = durable.gc_staged_now();
    assert!(leaked.is_empty(), "staged {leaked:?} outlived their query");
    assert!(durable.staged_names().is_empty());
    for (name, _) in durable.inner().catalog() {
        assert!(
            !name.starts_with("__bda_frag_"),
            "staged `{name}` leaked into the durable catalog"
        );
    }
    durable.snapshot_now().expect("snapshot");
    drop(fed);
    drop(server);

    // Phase 3: one more reopen proves fragments never reach the disk —
    // and that recovery now reads the compacted snapshot.
    let rel: Arc<dyn Provider> = Arc::new(RelationalEngine::new("rel"));
    let reopened = DurableProvider::open(rel, durable_options(&dir)).unwrap();
    assert_eq!(reopened.report().datasets, vec!["lookup".to_string()]);
    assert!(
        reopened.report().snapshot_seq > 0,
        "recovery used the snapshot"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_seeded_disk_fault_plan_preserves_acknowledged_writes() {
    // Sweep seeds so all three fault modes (torn append, ENOSPC,
    // truncated snapshot) are exercised; each seed's plan is
    // deterministic.
    for seed in 0..9u64 {
        let plan = DiskFaults::plan_from_seed(seed);
        let dir = tmp_dir();
        let mut acked: Vec<i64> = Vec::new();
        let snapshotted = {
            let inner: Arc<dyn Provider> = Arc::new(ReferenceProvider::new("ref"));
            let durable =
                DurableProvider::open(inner, durable_options(&dir).with_faults(plan)).unwrap();
            for i in 0..6i64 {
                if durable.store(&format!("d{i}"), dataset(i)).is_ok() {
                    acked.push(i);
                }
            }
            // The snapshot path is where the truncation fault bites.
            let snapshotted = durable.snapshot_now().is_ok();
            for i in 6..12i64 {
                if durable.store(&format!("d{i}"), dataset(i)).is_ok() {
                    acked.push(i);
                }
            }
            snapshotted
        };

        // Reopen with faults off: either every acknowledged store is
        // recovered intact, or (damaged snapshot) recovery refuses
        // loudly. Silent partial recovery is the one forbidden outcome.
        let inner: Arc<dyn Provider> = Arc::new(ReferenceProvider::new("ref"));
        match DurableProvider::open(inner, durable_options(&dir)) {
            Ok(recovered) => {
                for &i in &acked {
                    let name = format!("d{i}");
                    let schema = recovered
                        .catalog()
                        .into_iter()
                        .find(|(n, _)| *n == name)
                        .unwrap_or_else(|| {
                            panic!("seed {seed}: acked `{name}` lost after recovery")
                        })
                        .1;
                    let out = recovered.execute(&Plan::scan(&name, schema)).unwrap();
                    assert!(
                        out.same_bag(&dataset(i)).unwrap(),
                        "seed {seed}: acked `{name}` recovered with wrong content"
                    );
                }
                // A tear *after* the snapshot's rotation leaves its
                // half-record in the live segment; one before it was
                // legitimately compacted away with the rest of the log.
                if plan.torn_append_at.is_some_and(|t| t > 6) {
                    assert!(
                        recovered.report().torn_tail_truncated,
                        "seed {seed}: torn plan must leave a truncated tail"
                    );
                }
            }
            Err(e) => {
                // Only a damaged snapshot justifies refusing to start,
                // and the refusal must be loud and typed.
                assert!(
                    plan.truncate_snapshot && snapshotted,
                    "seed {seed}: unexpected recovery refusal: {e}"
                );
                assert!(is_durability_error(&e), "seed {seed}: {e}");
                assert!(e.to_string().contains("refusing"), "seed {seed}: {e}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn change_stream_follows_remote_ingest_in_commit_order() {
    let dir = tmp_dir();
    let rel: Arc<dyn Provider> = Arc::new(ReferenceProvider::new("ref"));
    let server = serve_durable_with_faults(
        rel,
        "127.0.0.1:0",
        NetFaults::new(1, 0.0),
        durable_options(&dir),
    )
    .unwrap();
    let stream = server.durable().unwrap().subscribe_all();
    let remote = RemoteProvider::connect(server.addr().to_string()).unwrap();
    for i in 0..4i64 {
        remote.store(&format!("d{i}"), dataset(i)).unwrap();
    }
    remote.remove("d1");

    let mut seqs = Vec::new();
    let mut names = Vec::new();
    for _ in 0..5 {
        let delta = stream
            .next_timeout(Duration::from_secs(5))
            .expect("committed delta arrives");
        seqs.push(delta.seq);
        names.push(delta.name.clone());
    }
    assert_eq!(names, ["d0", "d1", "d2", "d3", "d1"]);
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "commit order: {seqs:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
