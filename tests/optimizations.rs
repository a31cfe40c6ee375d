//! The paper's optimizations, observed through metrics: partition pruning,
//! predicate pushdown, column pruning, operator fusion, data locality and
//! connection caching each have to produce a measurable effect in the
//! direction the paper claims — and switching them off must undo it.

use shc::prelude::*;
use std::sync::Arc;

const CATALOG: &str = r#"{
    "table":{"namespace":"default", "name":"events"},
    "rowkey":"key",
    "columns":{
        "event_id":{"cf":"rowkey", "col":"key", "type":"string"},
        "kind":{"cf":"c", "col":"kind", "type":"string"},
        "payload":{"cf":"c", "col":"payload", "type":"string"},
        "weight":{"cf":"c", "col":"weight", "type":"double"}
    }
}"#;

fn setup(num_servers: usize) -> (Arc<HBaseCluster>, Arc<HBaseTableCatalog>) {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers,
        ..Default::default()
    });
    let catalog = Arc::new(HBaseTableCatalog::parse_simple(CATALOG).unwrap());
    let rows: Vec<Row> = (0..400)
        .map(|i| {
            Row::new(vec![
                Value::Utf8(format!("ev{i:04}")),
                Value::Utf8(["click", "view", "buy"][i % 3].to_string()),
                Value::Utf8(format!("payload-{i}-{}", "x".repeat(40))),
                Value::Float64(i as f64 / 7.0),
            ])
        })
        .collect();
    write_rows(
        &cluster,
        &catalog,
        &SHCConf::default().with_new_table_regions(num_servers),
        &rows,
    )
    .unwrap();
    (cluster, catalog)
}

fn session_for(cluster: &Arc<HBaseCluster>) -> Arc<Session> {
    Session::new(SessionConfig {
        executors: ExecutorConfig {
            num_executors: cluster.num_servers(),
            hosts: cluster.hostnames(),
            task_retries: 1,
        },
        ..Default::default()
    })
}

fn run(session: &Arc<Session>, sql: &str) -> Vec<Row> {
    session.sql(sql).unwrap().collect().unwrap()
}

#[test]
fn partition_pruning_reduces_rpcs_and_scanning() {
    let (cluster, catalog) = setup(4);
    let session = session_for(&cluster);
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        SHCConf::default(),
        "events",
    );
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        catalog,
        SHCConf::default().without_pruning(),
        "events_nopruning",
    );
    let query = |t: &str| format!("SELECT event_id FROM {t} WHERE event_id < 'ev0050'");

    cluster.metrics.reset();
    let pruned = run(&session, &query("events"));
    let with = cluster.metrics.snapshot();

    cluster.metrics.reset();
    let unpruned = run(&session, &query("events_nopruning"));
    let without = cluster.metrics.snapshot();

    assert_eq!(pruned.len(), 50);
    assert_eq!(unpruned.len(), 50); // same answer
    assert!(
        without.cells_scanned >= 4 * with.cells_scanned,
        "pruning should cut scanning: {} vs {}",
        with.cells_scanned,
        without.cells_scanned
    );
    assert!(without.rpc_count > with.rpc_count);
}

#[test]
fn predicate_pushdown_cuts_shipped_bytes() {
    let (cluster, catalog) = setup(3);
    let session = session_for(&cluster);
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        SHCConf::default(),
        "events",
    );
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        catalog,
        SHCConf::default().without_pushdown(),
        "events_nopush",
    );
    let query = |t: &str| format!("SELECT event_id FROM {t} WHERE kind = 'buy'");

    cluster.metrics.reset();
    let a = run(&session, &query("events"));
    let with = cluster.metrics.snapshot();

    cluster.metrics.reset();
    let b = run(&session, &query("events_nopush"));
    let without = cluster.metrics.snapshot();

    assert_eq!(a.len(), b.len());
    assert!(with.filtered_scans > 0, "filter should run server-side");
    assert!(
        without.bytes_returned > 2 * with.bytes_returned,
        "pushdown should cut shipped bytes: {} vs {}",
        with.bytes_returned,
        without.bytes_returned
    );
}

#[test]
fn column_pruning_cuts_decode_and_ship_volume() {
    let (cluster, catalog) = setup(3);
    let shc_session = session_for(&cluster);
    register_hbase_table(
        &shc_session,
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        SHCConf::default(),
        "events",
    );
    let generic_session = session_for(&cluster);
    register_generic_hbase_table(&generic_session, Arc::clone(&cluster), catalog, "events");

    // Select only the narrow weight column; `payload` is wide.
    let query = "SELECT SUM(weight) FROM events";

    shc_session.metrics.reset();
    let a = run(&shc_session, query);
    let shc_scan_bytes = shc_session.metrics.snapshot().scan_bytes;

    generic_session.metrics.reset();
    let b = run(&generic_session, query);
    let generic_scan_bytes = generic_session.metrics.snapshot().scan_bytes;

    assert_eq!(a, b);
    assert!(
        generic_scan_bytes > 3 * shc_scan_bytes,
        "column pruning should shrink scan output: {shc_scan_bytes} vs {generic_scan_bytes}"
    );
}

#[test]
fn data_locality_is_achieved_with_colocated_executors() {
    let (cluster, catalog) = setup(4);
    let session = session_for(&cluster);
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        catalog,
        SHCConf::default(),
        "events",
    );
    session.metrics.reset();
    run(&session, "SELECT COUNT(*) FROM events");
    let snap = session.metrics.snapshot();
    assert!(snap.preferred_tasks >= 4, "one fused task per server");
    assert!(
        snap.locality_ratio() >= 0.75,
        "most scan tasks should be data-local, got {:.2}",
        snap.locality_ratio()
    );
}

#[test]
fn connection_cache_eliminates_reconnects() {
    let (cluster, catalog) = setup(3);
    let cache = ConnectionCache::new();
    let credentials = SHCCredentialsManager::new_default();
    let session = session_for(&cluster);
    session.register_table(
        "events",
        HBaseRelation::with_services(
            Arc::clone(&cluster),
            Arc::clone(&catalog),
            SHCConf::default(),
            Arc::clone(&cache),
            Arc::clone(&credentials),
        ),
    );
    session.register_table(
        "events_nocache",
        HBaseRelation::with_services(
            Arc::clone(&cluster),
            catalog,
            SHCConf::default().without_connection_cache(),
            cache,
            credentials,
        ),
    );

    let before = cluster.metrics.snapshot().connections_created;
    for _ in 0..5 {
        run(&session, "SELECT COUNT(*) FROM events");
    }
    let cached_created = cluster.metrics.snapshot().connections_created - before;

    let before = cluster.metrics.snapshot().connections_created;
    for _ in 0..5 {
        run(&session, "SELECT COUNT(*) FROM events_nocache");
    }
    let uncached_created = cluster.metrics.snapshot().connections_created - before;

    assert!(
        uncached_created >= 5 * cached_created.max(1),
        "cache should collapse connection churn: {cached_created} vs {uncached_created}"
    );
}

#[test]
fn operator_fusion_collapses_tasks_and_rpcs() {
    let (cluster, catalog) = setup(4);
    let session = session_for(&cluster);
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        SHCConf::default(),
        "events",
    );
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        catalog,
        SHCConf::default().without_fusion(),
        "events_nofusion",
    );
    // Many point lookups: fusion should batch them per server.
    let keys: Vec<String> = (0..40).map(|i| format!("'ev{:04}'", i * 10)).collect();
    let query = |t: &str| {
        format!(
            "SELECT event_id FROM {t} WHERE event_id IN ({})",
            keys.join(", ")
        )
    };

    session.metrics.reset();
    cluster.metrics.reset();
    let fused_rows = run(&session, &query("events"));
    let fused_tasks = session.metrics.snapshot().preferred_tasks;
    let fused_rpcs = cluster.metrics.snapshot().rpc_count;

    session.metrics.reset();
    cluster.metrics.reset();
    let unfused_rows = run(&session, &query("events_nofusion"));
    let unfused_tasks = session.metrics.snapshot().preferred_tasks;
    let unfused_rpcs = cluster.metrics.snapshot().rpc_count;

    assert_eq!(fused_rows.len(), 40);
    assert_eq!(unfused_rows.len(), 40);
    assert!(
        unfused_tasks >= 5 * fused_tasks.max(1),
        "fusion should collapse tasks: {fused_tasks} vs {unfused_tasks}"
    );
    assert!(unfused_rpcs > fused_rpcs);
}

#[test]
fn explain_shows_pushdown_in_the_plan() {
    let (cluster, catalog) = setup(2);
    let session = session_for(&cluster);
    register_hbase_table(&session, cluster, catalog, SHCConf::default(), "events");
    let df = session
        .sql("SELECT kind FROM events WHERE event_id > 'ev0100' AND weight < 3.0")
        .unwrap();
    let text = df.explain().unwrap();
    let optimized = text.split("Optimized Plan").nth(1).unwrap();
    assert!(optimized.contains("filters="), "{optimized}");
    assert!(optimized.contains("projection=Some"), "{optimized}");
    assert!(optimized.contains("shc:"), "{optimized}");
}

#[test]
fn all_dimension_pruning_narrows_composite_scans() {
    // The paper's future-work extension (§VIII): with a composite key,
    // constraining the first dimension by equality lets predicates on the
    // second dimension tighten the scan range further.
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 2,
        ..Default::default()
    });
    let catalog = Arc::new(
        HBaseTableCatalog::parse_simple(
            r#"{
            "table":{"namespace":"default", "name":"metrics"},
            "rowkey":"host:minute",
            "columns":{
                "host":{"cf":"rowkey", "col":"host", "type":"string"},
                "minute":{"cf":"rowkey", "col":"minute", "type":"int"},
                "cpu":{"cf":"m", "col":"cpu", "type":"double"}
            }}"#,
        )
        .unwrap(),
    );
    let rows: Vec<Row> = (0..20)
        .flat_map(|h| {
            (0..60).map(move |m| {
                Row::new(vec![
                    Value::Utf8(format!("host-{h:02}")),
                    Value::Int32(m),
                    Value::Float64((h * m) as f64 % 97.0),
                ])
            })
        })
        .collect();
    write_rows(
        &cluster,
        &catalog,
        &SHCConf::default().with_new_table_regions(4),
        &rows,
    )
    .unwrap();

    let session = session_for(&cluster);
    let all_dims_conf = SHCConf {
        partition_pruning: shc::core::conf::PruningMode::AllDimensions,
        ..SHCConf::default()
    };
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        SHCConf::default(),
        "metrics_first",
    );
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        catalog,
        all_dims_conf,
        "metrics_all",
    );

    let query = |t: &str| {
        format!(
            "SELECT minute, cpu FROM {t} \
             WHERE host = 'host-07' AND minute >= 55 ORDER BY minute"
        )
    };
    cluster.metrics.reset();
    let first_dim = run(&session, &query("metrics_first"));
    let first_scanned = cluster.metrics.snapshot().cells_scanned;

    cluster.metrics.reset();
    let all_dims = run(&session, &query("metrics_all"));
    let all_scanned = cluster.metrics.snapshot().cells_scanned;

    assert_eq!(first_dim, all_dims, "modes must agree on results");
    assert_eq!(all_dims.len(), 5);
    // First-dimension mode scans host-07's whole block (60 cells); the
    // all-dimension mode touches only the tail minutes.
    assert!(
        first_scanned >= 10 * all_scanned.max(1),
        "all-dims should cut scanning: {all_scanned} vs {first_scanned}"
    );
}

#[test]
fn explain_analyze_row_counts_match_actual_cardinality() {
    let (cluster, catalog) = setup(3);
    let session = session_for(&cluster);
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        catalog,
        SHCConf::default(),
        "events",
    );
    // Three shapes: pushdown filter, grouped aggregate, self-join.
    let queries = [
        "SELECT event_id, kind FROM events WHERE kind = 'click'",
        "SELECT kind, COUNT(*) AS n FROM events GROUP BY kind",
        "SELECT a.event_id FROM events a \
         JOIN events b ON a.event_id = b.event_id WHERE a.kind = 'buy'",
    ];
    for sql in queries {
        let analysis = session.sql(sql).unwrap().collect_analyzed().unwrap();
        // The root operator's observed row count is the actual result
        // cardinality, and matches an ordinary collect of the same query.
        let observed = analysis
            .profile
            .rows
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(observed as usize, analysis.rows.len(), "{sql}");
        assert_eq!(analysis.rows.len(), run(&session, sql).len(), "{sql}");
        assert!(analysis.trace.is_well_formed(), "{sql}");
        // Every rendered operator line carries observed values.
        let rendered = analysis.profile.render();
        assert!(rendered.contains("(actual: rows="), "{rendered}");
    }

    // Scan operators attribute their rows to the regions actually read:
    // region-level attribution sums to the scan's observed output.
    let analysis = session
        .sql("SELECT event_id FROM events")
        .unwrap()
        .collect_analyzed()
        .unwrap();
    let mut scan_rows = 0u64;
    let mut region_rows = 0u64;
    let mut servers: Vec<String> = Vec::new();
    analysis.profile.walk(&mut |p| {
        if p.describe.starts_with("Scan:") {
            scan_rows += p.rows.load(std::sync::atomic::Ordering::Relaxed);
            for r in p.regions.lock().iter() {
                region_rows += r.rows;
                servers.push(r.server.clone());
            }
        }
    });
    assert_eq!(scan_rows, 400);
    assert_eq!(region_rows, 400, "per-region attribution covers every row");
    servers.sort();
    servers.dedup();
    assert!(
        servers.len() >= 2,
        "rows came from several servers: {servers:?}"
    );
}

/// q39's SQL with the second month-block reading `inventory2`, `item2` and
/// `warehouse2`: registered as separate providers over the same data, they
/// make the knob-free reference in which nothing can be shared.
fn second_block_reads_copies(sql: &str) -> String {
    let (first, second) = sql
        .split_once(" inv1 ")
        .expect("q39 names its first block inv1");
    let second = second
        .replace("FROM inventory ", "FROM inventory2 ")
        .replace("JOIN item ", "JOIN item2 ")
        .replace("JOIN warehouse ", "JOIN warehouse2 ");
    assert!(second.contains("inventory2") && second.contains("item2"));
    assert!(second.contains("warehouse2"));
    format!("{first} inv1 {second}")
}

#[test]
fn q39_month_blocks_share_one_fact_table_scan_and_join() {
    let generator = Generator::new(Scale::from_gb(5.0), 11);
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 3,
        ..Default::default()
    });
    let session = session_for(&cluster);
    shc::tpcds::load_into_hbase(
        &session,
        &cluster,
        &generator,
        &Table::Q39_TABLES,
        "PrimitiveType",
        &SHCConf::default(),
        Provider::Shc,
    )
    .unwrap();
    for table in [Table::Inventory, Table::Item, Table::Warehouse] {
        let catalog = Arc::new(
            HBaseTableCatalog::parse_simple(&table.catalog_json("PrimitiveType")).unwrap(),
        );
        register_hbase_table(
            &session,
            Arc::clone(&cluster),
            catalog,
            SHCConf::default(),
            &format!("{}2", table.name()),
        );
    }
    let inventory_cells = || -> u64 {
        cluster
            .region_loads()
            .iter()
            .filter(|(_, load)| load.table.ends_with(":inventory"))
            .map(|(_, load)| load.cells_scanned)
            .sum()
    };
    let inventory_regions = cluster
        .region_loads()
        .iter()
        .filter(|(_, load)| load.table.ends_with(":inventory"))
        .count() as u64;
    assert!(inventory_regions >= 2);

    for sql in [
        shc::tpcds::queries::q39a(2001, 1),
        shc::tpcds::queries::q39b(2001, 1),
    ] {
        let measure = |sql: &str| {
            let (store, engine, cells) = (
                cluster.metrics.snapshot(),
                session.metrics.snapshot(),
                inventory_cells(),
            );
            let rows = run(&session, sql);
            (
                rows,
                cluster.metrics.snapshot().delta_since(&store),
                session.metrics.snapshot().delta_since(&engine),
                inventory_cells() - cells,
            )
        };
        let (rows, store, engine, cells) = measure(&sql);
        let (ref_rows, ref_store, ref_engine, ref_cells) =
            measure(&second_block_reads_copies(&sql));

        assert_eq!(rows, ref_rows);
        assert_eq!(engine.subplans_reused, 1);
        assert_eq!(ref_engine.subplans_reused, 0);
        // One scanner per region: inventory's regions once, item and
        // warehouse once, date_dim once per month — against everything
        // twice when the blocks cannot share.
        assert_eq!(store.scanner_opens, inventory_regions + 4);
        assert_eq!(ref_store.scanner_opens, 2 * (inventory_regions + 3));
        assert_eq!(
            ref_cells,
            2 * cells,
            "inventory cells visited once, not twice"
        );
        assert!(store.rpc_count < ref_store.rpc_count);
        assert!(store.bytes_returned < ref_store.bytes_returned);
        // Only the month-independent part is shared: the date filter, the
        // aggregate and its exchange still run per block.
        assert_eq!(engine.shuffle_bytes, ref_engine.shuffle_bytes);
        assert!(engine.scan_rows < ref_engine.scan_rows);
        assert!(engine.tasks < ref_engine.tasks);
    }
    assert!(session
        .metrics_exposition()
        .contains("shc_query_subplans_reused 2\n"));

    // EXPLAIN ANALYZE shows the second block's join as a reused operator
    // with its real shape, nothing below it, and the count on the footer.
    let text = session
        .sql(&shc::tpcds::queries::q39a(2001, 1))
        .unwrap()
        .explain_analyze()
        .unwrap();
    assert!(text.contains("(reused: result of op #"), "{text}");
    assert!(
        text.contains("result shared with 1 later operator(s)"),
        "{text}"
    );
    assert!(text.contains("subplans_reused=1\n"), "{text}");
    assert_eq!(text.matches("Scan: inventory").count(), 1, "{text}");
    assert_eq!(text.matches("Scan: date_dim").count(), 2, "{text}");
    // The shared stages appear once on the task timeline: three scans and
    // two probes shared, one date_dim scan and one probe per block.
    let timeline = session.last_timeline().unwrap();
    let scans = timeline
        .stage_stats()
        .iter()
        .filter(|s| s.label == "scan")
        .count();
    assert_eq!(scans, 5);
    // `system.queries.rpc_count` is what the cluster counted for the query.
    register_system_tables(&session, &cluster);
    let before = cluster.metrics.snapshot();
    session
        .sql(&shc::tpcds::queries::q39a(2001, 1))
        .unwrap()
        .collect_analyzed()
        .unwrap();
    let rpcs = cluster.metrics.snapshot().delta_since(&before).rpc_count;
    let logged = session.query_log().entries();
    assert_eq!(logged.last().unwrap().rpc_count, rpcs);
}

#[test]
fn q39_over_memtables_shares_the_same_subplan() {
    let generator = Generator::new(Scale::from_gb(5.0), 11);
    let session = Session::new_default();
    shc::tpcds::load_into_memory(&session, &generator, &Table::Q39_TABLES, 4);
    for table in [Table::Inventory, Table::Item, Table::Warehouse] {
        let copy = MemTable::with_rows(table.schema(), generator.rows(table), 4);
        session.register_table(format!("{}2", table.name()), Arc::new(copy));
    }
    let inventory_rows = generator.rows(Table::Inventory).len() as u64;
    for sql in [
        shc::tpcds::queries::q39a(2001, 1),
        shc::tpcds::queries::q39b(2001, 1),
    ] {
        let measure = |sql: &str| {
            let before = session.metrics.snapshot();
            let rows = run(&session, sql);
            (rows, session.metrics.snapshot().delta_since(&before))
        };
        let (rows, engine) = measure(&sql);
        let (ref_rows, ref_engine) = measure(&second_block_reads_copies(&sql));
        assert_eq!(rows, ref_rows);
        assert_eq!((engine.subplans_reused, ref_engine.subplans_reused), (1, 0));
        assert!(ref_engine.scan_rows - engine.scan_rows >= inventory_rows);

        // The row-at-a-time engine and fixed (non-adaptive) plans share the
        // same subplan and return the same rows.
        for tweak in [
            (|c: &mut SessionConfig| c.vectorized = false) as fn(&mut SessionConfig),
            |c: &mut SessionConfig| c.adaptive = false,
        ] {
            session.update_config(tweak);
            let (again, engine) = measure(&sql);
            session.update_config(|c| *c = SessionConfig::default());
            assert_eq!(engine.subplans_reused, 1);
            assert_eq!(again, rows);
        }
    }
}
