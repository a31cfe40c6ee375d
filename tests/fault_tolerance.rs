//! Fault tolerance and cluster dynamics (paper §VI.B): WAL recovery after
//! a crash, region splits and load balancing under live queries, and
//! token expiry/renewal during long-running jobs.

use shc::prelude::*;
use std::sync::Arc;

const CATALOG: &str = r#"{
    "table":{"namespace":"default", "name":"journal"},
    "rowkey":"key",
    "columns":{
        "entry":{"cf":"rowkey", "col":"key", "type":"string"},
        "body":{"cf":"j", "col":"body", "type":"string"}
    }
}"#;

fn rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Utf8(format!("entry{i:04}")),
                Value::Utf8(format!("body of entry {i}")),
            ])
        })
        .collect()
}

#[test]
fn wal_replay_recovers_unflushed_writes() {
    use shc::kvstore::prelude::*;
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns("t"))
                .with_family(FamilyDescriptor::new("cf")),
        )
        .unwrap();
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("t"));
    table.put(Put::new("a").add("cf", "q", "flushed")).unwrap();
    cluster.flush_all().unwrap();
    table
        .put(Put::new("b").add("cf", "q", "in-memstore"))
        .unwrap();

    // Simulate loss of the memstore: rebuild the region from the WAL.
    let server = cluster.server(0).unwrap();
    let region_id = server.region_ids()[0];
    let region = server.region(region_id).unwrap();
    let applied = region.recover_from_wal(&server.wal().read_records().unwrap());
    assert!(applied >= 1);
    let rows = table.scan(&Scan::new()).unwrap();
    assert!(rows.iter().any(|r| r.row.as_ref() == b"b"));
}

#[test]
fn crashed_server_rejects_writes_until_restart() {
    use shc::kvstore::prelude::*;
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns("t"))
                .with_family(FamilyDescriptor::new("cf")),
        )
        .unwrap();
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("t"));
    let server = cluster.server(0).unwrap();
    server.crash();
    assert!(table.put(Put::new("x").add("cf", "q", "v")).is_err());
    server.restart();
    assert!(table.put(Put::new("x").add("cf", "q", "v")).is_ok());
}

#[test]
fn queries_survive_region_split() {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 2,
        ..Default::default()
    });
    let catalog = Arc::new(HBaseTableCatalog::parse_simple(CATALOG).unwrap());
    write_rows(&cluster, &catalog, &SHCConf::default(), &rows(100)).unwrap();

    let session = Session::new_default();
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        SHCConf::default(),
        "journal",
    );
    let count_before = session
        .sql("SELECT COUNT(*) FROM journal")
        .unwrap()
        .collect()
        .unwrap();

    // Split the (single) region while the table stays registered.
    let regions = cluster.master.regions_of(&catalog.table).unwrap();
    assert_eq!(regions.len(), 1);
    cluster
        .master
        .split_region(&catalog.table, regions[0].info.region_id)
        .unwrap();
    assert_eq!(cluster.master.regions_of(&catalog.table).unwrap().len(), 2);

    // New scans pick up the new layout (fresh connections locate afresh).
    let count_after = session
        .sql("SELECT COUNT(*) FROM journal")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(count_before, count_after);

    // Pruned queries still resolve to the right daughter region.
    let one = session
        .sql("SELECT body FROM journal WHERE entry = 'entry0099'")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(one.len(), 1);
}

#[test]
fn queries_survive_rebalancing() {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 3,
        ..Default::default()
    });
    let catalog = Arc::new(HBaseTableCatalog::parse_simple(CATALOG).unwrap());
    write_rows(
        &cluster,
        &catalog,
        &SHCConf::default().with_new_table_regions(6),
        &rows(120),
    )
    .unwrap();
    // Pile every region onto server 0 through the admin API, then let the
    // master balance the cluster back out.
    let regions = cluster.master.regions_of(&catalog.table).unwrap();
    for loc in &regions {
        cluster
            .master
            .move_region(&catalog.table, loc.info.region_id, 0)
            .unwrap();
    }
    assert_eq!(cluster.server(0).unwrap().region_count(), 6);
    let moves = cluster.master.balance().unwrap();
    assert!(
        moves >= 4,
        "balancer should spread 6 regions over 3 servers"
    );
    assert!(cluster.server(0).unwrap().region_count() <= 2);

    let session = Session::new_default();
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        catalog,
        SHCConf::default(),
        "journal",
    );
    let n = session
        .sql("SELECT COUNT(*) FROM journal")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(n[0].get(0), &Value::Int64(120));
}

#[test]
fn expired_token_is_refreshed_for_long_jobs() {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        secure_token_lifetime_ms: Some(400),
        ..Default::default()
    });
    cluster
        .security
        .as_ref()
        .unwrap()
        .register_principal("svc", "svc.keytab");
    let catalog = Arc::new(HBaseTableCatalog::parse_simple(CATALOG).unwrap());
    let conf = SHCConf::default().with_security("svc", "svc.keytab");
    write_rows(&cluster, &catalog, &conf, &rows(10)).unwrap();

    let session = Session::new_default();
    let relation = register_hbase_table(&session, Arc::clone(&cluster), catalog, conf, "journal");
    // First query obtains a token.
    assert_eq!(
        session
            .sql("SELECT COUNT(*) FROM journal")
            .unwrap()
            .collect()
            .unwrap()[0]
            .get(0),
        &Value::Int64(10)
    );
    let fetches_before = relation
        .credentials()
        .fetches
        .load(std::sync::atomic::Ordering::Relaxed);
    // Burn the logical clock far past token expiry. Every put advanced it
    // by 1 ms; push it over the lifetime explicitly.
    for _ in 0..1000 {
        cluster.clock.now_ms();
    }
    // The next query must transparently fetch a fresh token.
    assert_eq!(
        session
            .sql("SELECT COUNT(*) FROM journal")
            .unwrap()
            .collect()
            .unwrap()[0]
            .get(0),
        &Value::Int64(10)
    );
    let fetches_after = relation
        .credentials()
        .fetches
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(fetches_after > fetches_before, "token should be re-fetched");
}

#[test]
fn compaction_preserves_query_results() {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        ..Default::default()
    });
    let catalog = Arc::new(HBaseTableCatalog::parse_simple(CATALOG).unwrap());
    // Several write rounds with flushes in between build up store files.
    for round in 0..4 {
        let batch: Vec<Row> = (0..25)
            .map(|i| {
                Row::new(vec![
                    Value::Utf8(format!("entry{:04}", round * 25 + i)),
                    Value::Utf8(format!("round {round}")),
                ])
            })
            .collect();
        write_rows(&cluster, &catalog, &SHCConf::default(), &batch).unwrap();
        cluster.flush_all().unwrap();
    }
    let session = Session::new_default();
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        SHCConf::default(),
        "journal",
    );
    let before = session
        .sql("SELECT COUNT(*) FROM journal")
        .unwrap()
        .collect()
        .unwrap();
    // Major-compact every region.
    let server = cluster.server(0).unwrap();
    for id in server.region_ids() {
        server.region(id).unwrap().compact().unwrap();
    }
    let after = session
        .sql("SELECT COUNT(*) FROM journal")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(before, after);
    assert_eq!(after[0].get(0), &Value::Int64(100));
}

// ---------------------------------------------------------------------------
// Seeded fault injection (tentpole): every test below computes a fault-free
// baseline first, then replays the same workload under a deterministic fault
// schedule and asserts (a) identical results and (b) that the recovery
// machinery actually engaged, via the cluster metrics deltas.
// ---------------------------------------------------------------------------

/// A seeded cluster with one `t` table of `n` flushed single-cell rows.
fn faulty_kv_cluster(
    num_servers: usize,
    fault_seed: u64,
    n: usize,
) -> Arc<shc::kvstore::cluster::HBaseCluster> {
    use shc::kvstore::prelude::*;
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers,
        fault_seed,
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns("t"))
                .with_family(FamilyDescriptor::new("cf")),
        )
        .unwrap();
    let conn = shc::kvstore::client::Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("t"));
    for i in 0..n {
        table
            .put(Put::new(format!("row{i:04}")).add("cf", "q", format!("v{i}")))
            .unwrap();
    }
    cluster.flush_all().unwrap();
    cluster
}

/// Scan all of `t` and return its row keys, in scan order.
fn scan_keys(table: &shc::kvstore::client::Table) -> Vec<Vec<u8>> {
    table
        .scan(&shc::kvstore::types::Scan::new())
        .unwrap()
        .iter()
        .map(|r| r.row.as_ref().to_vec())
        .collect()
}

#[test]
fn dropped_scan_rpc_is_retried_transparently() {
    use shc::kvstore::prelude::*;
    let cluster = faulty_kv_cluster(2, 0xfa01, 50);
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("t"));
    let baseline = scan_keys(&table);
    assert_eq!(baseline.len(), 50);

    let before = cluster.metrics.snapshot();
    let rule = cluster.faults().add_rule(
        FaultRule::new(FaultKind::Drop)
            .on_op(RpcOp::Scan)
            .first_n(1),
    );
    assert_eq!(scan_keys(&table), baseline);
    let delta = cluster.metrics.snapshot().delta_since(&before);
    assert_eq!(rule.fire_count(), 1);
    assert!(delta.faults_injected >= 1);
    assert!(delta.client_retries >= 1, "the dropped RPC must be retried");
}

#[test]
fn delayed_scan_rpc_still_returns_full_results() {
    use shc::kvstore::prelude::*;
    let cluster = faulty_kv_cluster(1, 0xfa02, 30);
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("t"));
    let baseline = scan_keys(&table);

    let before = cluster.metrics.snapshot();
    cluster.faults().add_rule(
        FaultRule::new(FaultKind::Delay(std::time::Duration::from_millis(2)))
            .on_op(RpcOp::Scan)
            .with_trigger(Trigger::EveryNth(2)),
    );
    // At caching 20 each scan of the 30 rows is two Scan RPCs: the open,
    // which carries rows 0..20 and leaves a cursor, and one next_batch for
    // the last 10. Every-2nd delays exactly the next_batch of each scan.
    let mut scan = Scan::new();
    scan.caching = 20;
    for _ in 0..2 {
        let keys: Vec<Vec<u8>> = table
            .scan(&scan)
            .unwrap()
            .iter()
            .map(|r| r.row.as_ref().to_vec())
            .collect();
        assert_eq!(keys, baseline);
    }
    let delta = cluster.metrics.snapshot().delta_since(&before);
    assert_eq!(delta.rpc_count, 4, "two RPCs per scan");
    assert_eq!(delta.faults_injected, 2, "one delayed batch per scan");
    assert_eq!(delta.client_retries, 0, "a delay is not a failure");
}

#[test]
fn server_crash_replays_wal_on_restart() {
    use shc::kvstore::prelude::*;
    let cluster = faulty_kv_cluster(1, 0xfa03, 20);
    let name = TableName::default_ns("t");
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(name.clone());
    let before = cluster.metrics.snapshot();
    // Unflushed tail: lives only in the memstore + WAL.
    for i in 20..25 {
        table
            .put(Put::new(format!("row{i:04}")).add("cf", "q", format!("v{i}")))
            .unwrap();
    }
    let baseline = scan_keys(&table);
    assert_eq!(baseline.len(), 25);

    // A cluster started without a `data_dir` still has a disk, and the
    // flushed rows are on it.
    let storage = cluster.storage().expect("every cluster has a storage root");
    let region_id = cluster.master.regions_of(&name).unwrap()[0].info.region_id;
    let region_dir = storage.region_dir(region_id);
    assert!(region_dir.join("MANIFEST").exists());

    let server = cluster.server(0).unwrap();
    server.crash(); // loses every memstore

    // What a flush that died before its manifest commit leaves behind: only
    // a restart that reads the directory and the manifest sweeps it.
    let orphan = region_dir.join("sf-999999.sst");
    std::fs::write(&orphan, b"never committed").unwrap();
    server.restart(); // reloads the store files, replays the WAL
    assert!(!orphan.exists(), "restart reloaded the region from disk");
    assert_eq!(scan_keys(&table), baseline, "unflushed rows recovered");
    cluster.flush_all().unwrap();
    assert_eq!(scan_keys(&table), baseline, "and flushed in their turn");

    let delta = cluster.metrics.snapshot().delta_since(&before);
    assert!(delta.wal_replays >= 1, "restart must replay the WAL");
    assert_eq!(delta.wal_replayed_records, 5);
    assert_eq!(delta.storefile_orphans_removed, 1);
    assert!(
        delta.wal_fsyncs > 0 && delta.manifest_writes > 0,
        "puts and flushes go through a real log and manifest: {} fsyncs, {} manifest writes",
        delta.wal_fsyncs,
        delta.manifest_writes
    );
}

#[test]
fn region_move_mid_scan_is_recovered() {
    use shc::kvstore::prelude::*;
    let cluster = faulty_kv_cluster(2, 0xfa04, 60);
    let name = TableName::default_ns("t");
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(name.clone());
    let baseline = scan_keys(&table);

    let loc = &cluster.master.regions_of(&name).unwrap()[0];
    let (region_id, src) = (loc.info.region_id, loc.server_id);
    let dst = (src + 1) % 2;
    let before = cluster.metrics.snapshot();
    // Just before the first scan RPC executes, yank the region to the other
    // server. The in-flight RPC then fails region lookup and must retry
    // against the fresh location.
    let hook_cluster = Arc::clone(&cluster);
    let hook_name = name.clone();
    cluster.faults().on_nth_op(Some(RpcOp::Scan), 1, move || {
        hook_cluster
            .master
            .move_region(&hook_name, region_id, dst)
            .unwrap();
    });
    assert_eq!(scan_keys(&table), baseline);
    let delta = cluster.metrics.snapshot().delta_since(&before);
    assert!(
        delta.client_retries >= 1,
        "move mid-scan must force a retry"
    );
    assert!(delta.location_invalidations >= 1);
    assert_eq!(
        cluster.master.regions_of(&name).unwrap()[0].server_id,
        dst,
        "the region really moved"
    );
}

#[test]
fn region_split_mid_scan_returns_complete_results() {
    use shc::kvstore::prelude::*;
    let cluster = faulty_kv_cluster(2, 0xfa05, 80);
    let name = TableName::default_ns("t");
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(name.clone());
    let baseline = scan_keys(&table);

    let region_id = cluster.master.regions_of(&name).unwrap()[0].info.region_id;
    let before = cluster.metrics.snapshot();
    let hook_cluster = Arc::clone(&cluster);
    let hook_name = name.clone();
    cluster.faults().on_nth_op(Some(RpcOp::Scan), 1, move || {
        hook_cluster
            .master
            .split_region(&hook_name, region_id)
            .unwrap();
    });
    let got = scan_keys(&table);
    // Complete, duplicate-free, key-ordered — exactly the baseline.
    assert_eq!(got, baseline);
    let distinct: std::collections::HashSet<_> = got.iter().collect();
    assert_eq!(distinct.len(), got.len(), "no duplicates across daughters");
    assert_eq!(cluster.master.regions_of(&name).unwrap().len(), 2);
    let delta = cluster.metrics.snapshot().delta_since(&before);
    assert!(
        delta.client_retries >= 1,
        "split mid-scan must force a retry"
    );
}

#[test]
fn master_failover_reassigns_regions_of_dead_server() {
    use shc::kvstore::prelude::*;
    let cluster = faulty_kv_cluster(2, 0xfa06, 40);
    let name = TableName::default_ns("t");
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(name.clone());
    // Unflushed tail so the failover's WAL replay has real work to do.
    for i in 40..48 {
        table
            .put(Put::new(format!("row{i:04}")).add("cf", "q", format!("v{i}")))
            .unwrap();
    }
    let baseline = scan_keys(&table);
    assert_eq!(baseline.len(), 48);

    let dead = cluster.master.regions_of(&name).unwrap()[0].server_id;
    let before = cluster.metrics.snapshot();
    cluster.server(dead).unwrap().crash();
    let moved = cluster.master.fail_over_server(dead).unwrap();
    assert!(moved >= 1);
    // A standby master takes over and rebuilds meta from the live servers.
    assert!(cluster.master.fail_over().unwrap() >= 1);
    // The connection still holds the dead server's location; the scan's
    // first attempt fails and recovery re-routes to the new assignment.
    assert_eq!(scan_keys(&table), baseline);
    let delta = cluster.metrics.snapshot().delta_since(&before);
    assert!(delta.regions_reassigned >= 1);
    assert!(delta.wal_replays >= 1, "failover replays the dead WAL");
    assert!(delta.client_retries >= 1, "stale location must be retried");
}

/// A server that restarts after its regions failed over finds their records
/// in its log again. It hosts none of them: the log must let go, or its
/// retained bytes only grow until every write here flushes on WAL pressure.
/// What it lets go of is never the only copy: a region that left, by
/// failover or by a move, left flushed and logs at its new host.
#[test]
fn restart_after_failover_releases_the_log_of_regions_that_left() {
    use shc::kvstore::prelude::*;
    let cluster = faulty_kv_cluster(2, 0xfa07, 40);
    let name = TableName::default_ns("t");
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(name.clone());
    let put_rows = |rows: std::ops::Range<usize>| {
        for i in rows {
            table
                .put(Put::new(format!("row{i:04}")).add("cf", "q", format!("v{i}")))
                .unwrap();
        }
    };
    put_rows(40..48);
    let baseline = scan_keys(&table);
    assert_eq!(baseline.len(), 48);

    let region = cluster.master.regions_of(&name).unwrap()[0].clone();
    let (dead, survivor) = (region.server_id, 1 - region.server_id);
    let server = cluster.server(dead).unwrap();
    assert!(server.wal().retained_bytes() > 0, "the unflushed tail");
    server.crash();
    assert!(cluster.master.fail_over_server(dead).unwrap() >= 1);
    server.try_restart().unwrap();

    assert_eq!(server.region_count(), 0);
    let wal = server.wal();
    assert_eq!(wal.retained_bytes(), 0);
    wal.gc();
    wal.gc();
    for segment in wal.segment_states() {
        assert!(
            !segment.sealed || segment.archived,
            "segment {} still waits on seq {:?}",
            segment.id,
            segment.min_unflushed_seq
        );
    }
    assert_eq!(scan_keys(&table), baseline);

    // The survivor's log was behind the region's history. It numbers on
    // from it, also when it is reopened before the region's first write
    // there: replay skips what is not above the store files.
    let bounce = |ids: [u64; 2]| {
        for id in ids {
            let server = cluster.server(id).unwrap();
            server.crash();
            server.try_restart().unwrap();
        }
    };
    bounce([dead, survivor]);
    put_rows(48..52);
    bounce([dead, survivor]);
    assert_eq!(scan_keys(&table).len(), 52, "rows put after the failover");

    // A moved region logs at its new host from the move on: the restarted
    // old host has nothing unflushed of it to release, and the new host's
    // log alone recovers what was written after the move.
    cluster
        .master
        .move_region(&name, region.info.region_id, dead)
        .unwrap();
    put_rows(52..56);
    bounce([survivor, dead]);
    assert_eq!(scan_keys(&table).len(), 56, "rows put after the move");
}

/// Every client entry point runs under the same recovery rule: with every
/// RPC dropped, each spends the same budget and fails the same clean way.
#[test]
fn retry_budget_exhaustion_returns_clean_error() {
    use shc::kvstore::client::MAX_ATTEMPTS;
    use shc::kvstore::prelude::*;
    let cluster = faulty_kv_cluster(1, 0xfa07, 5);
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("t"));
    let loc = conn.locate_regions(table.name()).unwrap()[0].clone();
    let host = Some(loc.hostname.as_str());
    type EntryPoint<'a> = Box<dyn Fn() -> Result<()> + 'a>;
    let entry_points: Vec<(&str, EntryPoint)> = vec![
        (
            "put_batch",
            Box::new(|| table.put_batch(vec![Put::new("row0009").add("cf", "q", "v9")])),
        ),
        ("delete", Box::new(|| table.delete(Delete::row("row0004")))),
        ("get", Box::new(|| table.get(Get::new("row0000")).map(drop))),
        (
            "bulk_get",
            Box::new(|| {
                let gets = [Get::new("row0001"), Get::new("row0002")];
                table.bulk_get(&gets, None).map(drop)
            }),
        ),
        (
            "bulk_get",
            Box::new(|| table.bulk_get(&[Get::new("row0003")], host).map(drop)),
        ),
        (
            "region_scanner",
            Box::new(|| table.scan_region(&loc, &Scan::new(), host).map(drop)),
        ),
    ];
    let budget = MAX_ATTEMPTS as u64;
    for (want, entry_point) in &entry_points {
        cluster
            .faults()
            .add_rule(FaultRule::new(FaultKind::Drop).with_trigger(Trigger::Always));
        let before = cluster.metrics.snapshot();
        match entry_point().unwrap_err() {
            KvError::RetriesExhausted { op, attempts, last } => {
                assert_eq!(op, *want);
                assert_eq!(attempts, MAX_ATTEMPTS, "{want}");
                assert!(matches!(*last, KvError::RpcTimeout { .. }), "{want}");
            }
            other => panic!("{want}: expected RetriesExhausted, got {other:?}"),
        }
        let delta = cluster.metrics.snapshot().delta_since(&before);
        assert_eq!(
            delta.client_retries,
            budget - 1,
            "{want}: every retry spent"
        );
        assert_eq!(
            delta.faults_injected, budget,
            "{want}: every attempt dropped"
        );

        // Clearing the schedule makes the same request succeed again.
        cluster.faults().clear();
        entry_point().unwrap();
    }
}

#[test]
fn location_cache_invalidation_broadcasts_through_conn_cache() {
    use shc::kvstore::prelude::*;
    use shc::prelude::ConnectionCache;
    let cluster = faulty_kv_cluster(2, 0xfa08, 30);
    let name = TableName::default_ns("t");
    let cache = ConnectionCache::new();
    let lease = cache.acquire(&cluster, None);
    lease.locate_regions(&name).unwrap(); // warm the location cache
    let table = lease.connection().table(name.clone());
    let baseline = scan_keys(&table);

    let loc = &cluster.master.regions_of(&name).unwrap()[0];
    let dst = (loc.server_id + 1) % 2;
    cluster
        .master
        .move_region(&name, loc.info.region_id, dst)
        .unwrap();
    let before = cluster.metrics.snapshot();
    // One broadcast repairs every cached connection in the process...
    assert_eq!(cache.invalidate_locations(&name), 1);
    let delta = cluster.metrics.snapshot().delta_since(&before);
    assert!(delta.location_invalidations >= 1);
    // ...so the next scan routes straight to the new server, no retry.
    let before = cluster.metrics.snapshot();
    assert_eq!(scan_keys(&table), baseline);
    let delta = cluster.metrics.snapshot().delta_since(&before);
    assert_eq!(delta.client_retries, 0, "fresh locations need no retry");
}

#[test]
fn multi_region_scan_survives_not_serving_mid_flight() {
    // Regression (paper §VI.B): transient RegionNotServing answers during an
    // in-flight multi-region SQL scan must not lose or duplicate rows.
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 2,
        fault_seed: 0xfa09,
        ..Default::default()
    });
    let catalog = Arc::new(HBaseTableCatalog::parse_simple(CATALOG).unwrap());
    write_rows(
        &cluster,
        &catalog,
        &SHCConf::default().with_new_table_regions(4),
        &rows(100),
    )
    .unwrap();
    let session = Session::new_default();
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        SHCConf::default(),
        "journal",
    );
    let baseline = session
        .sql("SELECT entry FROM journal ORDER BY entry")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(baseline.len(), 100);

    let before = cluster.metrics.snapshot();
    {
        use shc::kvstore::prelude::*;
        cluster.faults().add_rule(
            FaultRule::new(FaultKind::NotServing)
                .on_op(RpcOp::Scan)
                .first_n(2),
        );
    }
    let got = session
        .sql("SELECT entry FROM journal ORDER BY entry")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(got, baseline, "complete and duplicate-free");
    let distinct: std::collections::HashSet<String> =
        got.iter().map(|r| format!("{:?}", r.get(0))).collect();
    assert_eq!(distinct.len(), 100);
    let delta = cluster.metrics.snapshot().delta_since(&before);
    assert_eq!(delta.faults_injected, 2);
    assert!(
        delta.client_retries >= 2,
        "both failed region scans retried"
    );
}

#[test]
fn latency_histograms_capture_injected_delays() {
    // Acceptance check for the observability work: with a fault schedule
    // that delays every scan RPC by a known amount, the store's RPC
    // round-trip histogram must show that delay in its tail quantiles.
    // (Quantiles of the log-bucketed histogram are bucket *upper* bounds,
    // so `quantile >= injected delay` is the exact property to assert.)
    use shc::kvstore::prelude::*;
    use std::time::Duration;

    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 2,
        ..Default::default()
    });
    let catalog = Arc::new(HBaseTableCatalog::parse_simple(CATALOG).unwrap());
    write_rows(
        &cluster,
        &catalog,
        &SHCConf::default().with_new_table_regions(4),
        &rows(200),
    )
    .unwrap();
    let session = Session::new_default();
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        SHCConf::default(),
        "journal",
    );
    let count = |session: &Arc<Session>| {
        session
            .sql("SELECT COUNT(*) FROM journal")
            .unwrap()
            .collect()
            .unwrap()[0]
            .get(0)
            .as_i64()
    };

    // Baseline window: the same query with no faults.
    let t0 = cluster.metrics.snapshot();
    assert_eq!(count(&session), Some(200));
    let baseline = cluster.metrics.snapshot().delta_since(&t0);
    assert!(baseline.rpc_latency_us.count > 0);

    // Fault window: every scan RPC pays an extra 3ms before being served.
    const DELAY_US: u64 = 3_000;
    cluster.faults().add_rule(
        FaultRule::new(FaultKind::Delay(Duration::from_micros(DELAY_US))).on_op(RpcOp::Scan),
    );
    let t1 = cluster.metrics.snapshot();
    assert_eq!(count(&session), Some(200), "delayed RPCs still answer");
    let delayed = cluster.metrics.snapshot().delta_since(&t1);
    cluster.faults().clear();

    assert!(delayed.faults_injected >= 1, "delay rule never fired");
    let h = delayed.rpc_latency_us;
    // Every injected delay contributed a sample on top of the normal
    // round-trip cost samples.
    assert!(h.count >= baseline.rpc_latency_us.count + delayed.faults_injected);
    assert!(h.max >= DELAY_US);
    assert!(h.p99() >= DELAY_US);
    assert!(h.p95() >= DELAY_US);
    // Delays can only push the median up, never down.
    assert!(h.p50() >= baseline.rpc_latency_us.p50());
}
