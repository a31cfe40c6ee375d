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

/// A provider, forwarded, except that it prunes partitions on no column, so
/// no scan of it is ever handed join keys.
struct NoKeyPruning(Arc<dyn TableProvider>);

impl TableProvider for NoKeyPruning {
    fn schema(&self) -> SchemaRef {
        self.0.schema()
    }
    fn supports_projection(&self) -> bool {
        self.0.supports_projection()
    }
    fn unhandled_filters(&self, filters: &[SourceFilter]) -> Vec<SourceFilter> {
        self.0.unhandled_filters(filters)
    }
    fn unique_key(&self) -> Option<String> {
        self.0.unique_key()
    }
    fn scan(
        &self,
        projection: Option<&[usize]>,
        filters: &[SourceFilter],
    ) -> Result<Vec<Arc<dyn shc::engine::datasource::ScanPartition>>> {
        self.0.scan(projection, filters)
    }
    fn name(&self) -> String {
        self.0.name()
    }
}

/// A session configured like `session`, over its tables each wrapped in
/// [`NoKeyPruning`]: the reference for what handing join keys to scans
/// saves, with nothing else changed.
fn without_key_pruning(session: &Session) -> Arc<Session> {
    let reference = Session::new(session.config());
    for name in session.table_names() {
        let provider = session.table_provider(&name).unwrap();
        reference.register_table(name, Arc::new(NoKeyPruning(provider)));
    }
    reference
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

/// The process-wide cache keeps an idle connection for reuse, but not its
/// cluster: once the session, the relation and the last cluster handle are
/// dropped, the cluster and its temp root go too.
#[test]
fn an_idle_cached_connection_does_not_keep_its_cluster_alive() {
    let (cluster, catalog) = setup(2);
    let session = session_for(&cluster);
    let relation = HBaseRelation::new(Arc::clone(&cluster), catalog, SHCConf::default());
    session.register_table("events", Arc::clone(&relation) as Arc<dyn TableProvider>);
    let count = run(&session, "SELECT COUNT(*) FROM events");
    assert_eq!(count[0].get(0), &Value::Int64(400));
    let root = cluster.storage().unwrap().root().to_path_buf();
    assert!(root.exists());
    let weak = Arc::downgrade(&cluster);
    drop((session, relation, cluster));
    assert!(
        weak.upgrade().is_none(),
        "something still holds the cluster"
    );
    assert!(!root.exists(), "{} outlived its cluster", root.display());
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
        // A scan's time counts its own tasks, though the stage that runs
        // them also runs the steps above it: at least half of their time.
        let tasks = analysis.timeline.tasks();
        for stage in analysis.timeline.stages() {
            let run_us: u64 = tasks
                .iter()
                .filter(|t| t.stage_id == stage.stage_id)
                .map(|t| t.run_us)
                .sum();
            let mut scan_us = None;
            analysis.profile.walk(&mut |p| {
                if stage.label == "scan" && stage.op == Some(p.id) {
                    scan_us = Some(p.elapsed_us.load(std::sync::atomic::Ordering::Relaxed));
                }
            });
            if let Some(scan_us) = scan_us {
                assert!(2 * scan_us >= run_us, "{sql}: {scan_us} µs of {run_us}");
            }
        }
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

/// The note lines under each operator of an `EXPLAIN ANALYZE` text whose
/// line starts with `operator`, one string per such operator.
fn notes_of(text: &str, operator: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    (0..lines.len())
        .filter(|&at| lines[at].starts_with(operator))
        .map(|at| {
            let notes = lines[at + 1..].iter().take_while(|l| l.starts_with('('));
            notes.copied().collect::<Vec<_>>().join("\n")
        })
        .collect()
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
fn q39_month_blocks_share_one_scan_of_each_table() {
    let generator = Generator::new(Scale::from_gb(5.0), 11);
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 3,
        ..Default::default()
    });
    let loaded = session_for(&cluster);
    shc::tpcds::load_into_hbase(
        &loaded,
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
            &loaded,
            Arc::clone(&cluster),
            catalog,
            SHCConf::default(),
            &format!("{}2", table.name()),
        );
    }
    // Tables that prune on no key are handed no join keys, so what sharing
    // alone saves is counted here; the two together are
    // `q39_and_q38_join_keys_prune_the_fact_scan`.
    let session = without_key_pruning(&loaded);
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
        // Each block aggregates `inventory ⋈ date_dim` before it joins
        // `item` and `warehouse`, so what the blocks share is the three
        // month-independent scans.
        assert_eq!(engine.subplans_reused, 3);
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
        .contains("shc_query_subplans_reused 6\n"));

    // EXPLAIN ANALYZE shows the second block's scans of the three shared
    // tables as reused operators with their real shape, the rewrite on
    // each block's aggregate, and the count on the footer.
    let text = session
        .sql(&shc::tpcds::queries::q39a(2001, 1))
        .unwrap()
        .explain_analyze()
        .unwrap();
    for table in ["inventory", "item", "warehouse"] {
        let scans = notes_of(&text, &format!("Scan: {table} "));
        assert_eq!(scans.len(), 2, "{table}: {text}");
        assert!(scans[0].contains("result shared with 1 later operator(s)"));
        assert!(scans[1].contains("(reused: result of op #"), "{text}");
    }
    let aggregates = notes_of(&text, "Aggregate: ");
    assert_eq!(aggregates.len(), 2, "{text}");
    for notes in aggregates {
        assert!(notes.contains("(aggregated below lookups: item, warehouse)"));
    }
    assert!(text.contains("subplans_reused=3\n"), "{text}");
    assert_eq!(text.matches("Scan: date_dim").count(), 2, "{text}");
    // The shared stages appear once on the task timeline: three scans
    // shared, one date_dim scan per block.
    let timeline = session.last_timeline().unwrap();
    let scans = timeline
        .stage_stats()
        .iter()
        .filter(|s| s.label == "scan")
        .count();
    assert_eq!(scans, 5);
    // Stage rounds: a filter, a projection or a broadcast probe runs inside
    // the task that produced its input; only pipeline breakers run stages.
    assert_eq!(timeline.stages().len(), 9);
    // `system.queries.rpc_count` is what the cluster counted for the query.
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
        // The copies declare no key, so the second block of the reference
        // joins all of `inventory` with `item` and `warehouse` before it
        // aggregates, and no scan is shared.
        assert_eq!((engine.subplans_reused, ref_engine.subplans_reused), (3, 0));
        assert!(ref_engine.scan_rows - engine.scan_rows >= inventory_rows);
    }
}

// ---------------------------------------------------------------------------
// Dynamic partition pruning: a small, filtered join input hands its keys to
// the row-key scan on the other side of the join.
// ---------------------------------------------------------------------------

/// Equal up to the last bits of float aggregates: a scan that has other
/// partitions merges its partial sums in another order.
fn assert_rows_close(got: &[Row], expected: &[Row], what: &str) {
    assert_eq!(got.len(), expected.len(), "{what}: row counts differ");
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        assert_eq!(g.len(), e.len(), "{what}: row {i} arity");
        for (gv, ev) in g.values.iter().zip(&e.values) {
            match (gv, ev) {
                (Value::Float64(a), Value::Float64(b)) => {
                    assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{what}: row {i}")
                }
                _ => assert_eq!(gv, ev, "{what}: row {i}"),
            }
        }
    }
}

/// The TPC-DS tables in a three-server cluster, read by a session through
/// `HBaseRelation`.
fn tpcds_over_hbase() -> (Arc<HBaseCluster>, Generator, Arc<Session>) {
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
        &Table::ALL,
        "PrimitiveType",
        &SHCConf::default(),
        Provider::Shc,
    )
    .unwrap();
    (cluster, generator, session)
}

/// Reads each region of `table` has served so far, by region id.
fn region_reads(cluster: &HBaseCluster, table: Table) -> Vec<(u64, u64)> {
    cluster
        .region_loads()
        .iter()
        .filter(|(_, load)| load.table.ends_with(&format!(":{}", table.name())))
        .map(|(_, load)| (load.region_id, load.read_requests))
        .collect()
}

/// Ids of the regions whose reads moved between two `region_reads`.
fn regions_read(before: &[(u64, u64)], after: &[(u64, u64)]) -> Vec<u64> {
    after
        .iter()
        .filter(|(id, reads)| !before.contains(&(*id, *reads)))
        .map(|(id, _)| *id)
        .collect()
}

/// Ids of the regions of `table` that hold a row whose first column (the
/// leading row-key dimension) is one of `keys`.
fn regions_holding(
    cluster: &HBaseCluster,
    generator: &Generator,
    table: Table,
    keys: std::ops::RangeInclusive<i64>,
) -> Vec<u64> {
    let catalog = HBaseTableCatalog::parse_simple(&table.catalog_json("PrimitiveType")).unwrap();
    let dims = catalog.row_key.len();
    let loads = cluster.region_loads();
    let mut regions: Vec<u64> = Vec::new();
    for row in generator.rows(table) {
        if !keys.contains(&row.get(0).as_i64().unwrap()) {
            continue;
        }
        let key = shc::core::rowkey::encode_rowkey(&catalog, &row.values[..dims]).unwrap();
        let (_, holder) = loads
            .iter()
            .find(|(_, load)| {
                load.table.ends_with(&format!(":{}", table.name()))
                    && load.start_key.as_ref() <= key.as_slice()
                    && (load.end_key.is_empty() || key.as_slice() < load.end_key.as_ref())
            })
            .expect("every key has a region");
        if !regions.contains(&holder.region_id) {
            regions.push(holder.region_id);
        }
    }
    regions.sort();
    regions
}

#[test]
fn q39_and_q38_join_keys_prune_the_fact_scan() {
    let (cluster, generator, session) = tpcds_over_hbase();
    // The references need no switch of their own: the same tables read
    // without partition pruning, the same tables pruning on no key, and
    // MemTables.
    let unpruned = session_for(&cluster);
    for table in Table::ALL {
        let catalog = Arc::new(
            HBaseTableCatalog::parse_simple(&table.catalog_json("PrimitiveType")).unwrap(),
        );
        register_hbase_table(
            &unpruned,
            Arc::clone(&cluster),
            catalog,
            SHCConf::default().without_pruning(),
            table.name(),
        );
    }
    let unkeyed = without_key_pruning(&session);
    let memory = Session::new_default();
    shc::tpcds::load_into_memory(&memory, &generator, &Table::ALL, 4);

    let first_two_months = regions_holding(&cluster, &generator, Table::Inventory, 1..=60);
    let inventory_regions = region_reads(&cluster, Table::Inventory).len();
    assert!(
        first_two_months.len() < inventory_regions,
        "{first_two_months:?} of {inventory_regions}"
    );

    for (sql, fact) in [
        (shc::tpcds::queries::q39a(2001, 1), Table::Inventory),
        (shc::tpcds::queries::q39b(2001, 1), Table::Inventory),
        (shc::tpcds::queries::q38(2001), Table::StoreSales),
    ] {
        let measure = |session: &Arc<Session>| {
            let (store, engine, reads) = (
                cluster.metrics.snapshot(),
                session.metrics.snapshot(),
                region_reads(&cluster, fact),
            );
            let rows = run(session, &sql);
            (
                rows,
                cluster.metrics.snapshot().delta_since(&store),
                session.metrics.snapshot().delta_since(&engine),
                regions_read(&reads, &region_reads(&cluster, fact)),
            )
        };
        let (rows, store, engine, read) = measure(&session);
        assert!(!rows.is_empty() || sql.contains("> 1.5"), "{sql}");
        assert!(engine.dynamic_filters >= 1, "{sql}");

        let (ref_rows, _, ref_engine, ref_read) = measure(&unpruned);
        assert_rows_close(&rows, &ref_rows, "without pruning");
        assert_eq!(ref_engine.dynamic_filters, 0);
        assert_eq!(ref_read.len(), region_reads(&cluster, fact).len());

        let (unkeyed_rows, unkeyed_store, unkeyed_engine, unkeyed_read) = measure(&unkeyed);
        assert_rows_close(&rows, &unkeyed_rows, "no key pruning");
        assert_eq!(unkeyed_engine.dynamic_filters, 0);
        // q38's quarter is three months of the four loaded: fewer rows, but
        // a row in every region.
        assert!(
            read.len() <= unkeyed_read.len(),
            "{read:?} / {unkeyed_read:?}"
        );
        assert!(store.rpc_count <= unkeyed_store.rpc_count);
        assert!(store.bytes_returned < unkeyed_store.bytes_returned);
        assert!(engine.scan_rows < unkeyed_engine.scan_rows);
        // What reaches the exchanges is what the joins let through, and the
        // joins let through what they always did.
        assert_eq!(engine.shuffle_rows, unkeyed_engine.shuffle_rows);

        assert_rows_close(&rows, &run(&memory, &sql), "MemTables");

        if fact == Table::Inventory {
            // One scan of `inventory` for both month-blocks, handed both
            // months' keys, opening scanners on their regions only. The
            // shared `item` and `warehouse` scans are handed the keys of
            // both blocks' aggregates, which run first: a point lookup per
            // key, one BulkGet each instead of a scanner.
            assert_eq!((engine.dynamic_filters, engine.subplans_reused), (3, 3));
            assert_eq!(read, first_two_months);
            assert!(store.rpc_count < unkeyed_store.rpc_count);
            let date_dim = 2; // a scanner per month
            assert_eq!(
                store.scanner_opens,
                first_two_months.len() as u64 + date_dim
            );
            let others = 4; // item, warehouse, date_dim per month
            assert_eq!(
                unkeyed_store.scanner_opens,
                inventory_regions as u64 + others
            );
        }
    }
    assert!(session
        .metrics_exposition()
        .contains("shc_query_dynamic_filters "));

    let text = session
        .sql(&shc::tpcds::queries::q39a(2001, 1))
        .unwrap()
        .explain_analyze()
        .unwrap();
    assert!(
        text.contains("(dynamic filter: 60 keys from op #"),
        "{text}"
    );
    assert!(text.contains("→ 1 range(s))"), "{text}");
    // Per block: date_dim before inventory, the aggregate before item and
    // before warehouse.
    assert_eq!(text.matches("ran first)").count(), 6, "{text}");
    assert!(
        text.contains("subplans_reused=3\ndynamic_filters=3\n"),
        "{text}"
    );
    let partitions = format!("(partitions after pruning: {})", first_two_months.len());
    assert!(text.contains(&partitions), "{text}");
}

#[test]
fn join_keys_are_not_passed_where_the_rule_does_not_hold() {
    let (cluster, generator, session) = tpcds_over_hbase();
    // Every query leaves the cluster the RPCs it costs over tables that
    // prune on no key, which are passed no keys.
    let unchanged = |session: &Arc<Session>, sql: &str, why: &str| {
        let measure = |session: &Arc<Session>| {
            let (store, engine) = (cluster.metrics.snapshot(), session.metrics.snapshot());
            let rows = run(session, sql);
            (
                rows,
                cluster.metrics.snapshot().delta_since(&store),
                session.metrics.snapshot().delta_since(&engine),
            )
        };
        let (rows, store, engine) = measure(session);
        let (unkeyed_rows, unkeyed_store, _) = measure(&without_key_pruning(session));
        assert_eq!(engine.dynamic_filters, 0, "{why}");
        assert_eq!(rows, unkeyed_rows, "{why}");
        assert_eq!(store.rpc_count, unkeyed_store.rpc_count, "{why}");
        assert_eq!(store.scanner_opens, unkeyed_store.scanner_opens, "{why}");
        assert_eq!(store.cells_scanned, unkeyed_store.cells_scanned, "{why}");
    };
    unchanged(
        &session,
        "SELECT inv_item_sk, i_category FROM inventory \
         JOIN item ON inv_item_sk = i_item_sk WHERE i_item_sk < 5",
        "the key is the row key's second dimension",
    );
    unchanged(
        &session,
        "SELECT inv_item_sk, d.d_date_sk FROM inventory \
         LEFT JOIN (SELECT d_date_sk FROM date_dim WHERE d_moy = 1) d \
         ON inv_date_sk = d.d_date_sk",
        "left join",
    );
    unchanged(
        &session,
        "SELECT inv_item_sk, w_warehouse_name FROM inventory \
         JOIN warehouse ON inv_warehouse_sk = w_warehouse_sk \
         JOIN date_dim ON inv_date_sk = d_date_sk",
        "no input carries a predicate",
    );
    unchanged(
        &session,
        "SELECT inv_item_sk, d_moy FROM inventory \
         JOIN date_dim ON inv_date_sk + 0 = d_date_sk WHERE d_moy = 1",
        "the key is wrapped in an expression",
    );
    session.update_config(|c| c.broadcast_threshold = 64);
    unchanged(
        &session,
        &shc::tpcds::queries::q39a(2001, 1),
        "the filtering input is larger than a broadcast",
    );

    // Sources that cannot prune on a key are never offered one.
    let generic = session_for(&cluster);
    for table in Table::Q39_TABLES {
        let catalog = Arc::new(
            HBaseTableCatalog::parse_simple(&table.catalog_json("PrimitiveType")).unwrap(),
        );
        register_generic_hbase_table(&generic, Arc::clone(&cluster), catalog, table.name());
    }
    unchanged(
        &generic,
        &shc::tpcds::queries::q39a(2001, 1),
        "generic source",
    );
    let memory = Session::new_default();
    shc::tpcds::load_into_memory(&memory, &generator, &Table::Q39_TABLES, 4);
    unchanged(&memory, &shc::tpcds::queries::q39a(2001, 1), "MemTables");
}

#[test]
fn dynamic_filters_at_the_edges_of_the_key_space() {
    let (cluster, generator, session) = tpcds_over_hbase();
    let inventory_by_day = |days: &str| {
        format!(
            "SELECT inv_date_sk, inv_item_sk, inv_warehouse_sk, inv_quantity_on_hand \
             FROM inventory JOIN date_dim ON inv_date_sk = d_date_sk WHERE {days} \
             ORDER BY inv_date_sk, inv_item_sk, inv_warehouse_sk"
        )
    };
    let expected = |keep: &dyn Fn(i64) -> bool| -> Vec<Row> {
        let mut rows: Vec<Row> = generator
            .rows(Table::Inventory)
            .into_iter()
            .filter(|r| keep(r.get(0).as_i64().unwrap()))
            .collect();
        rows.sort_by_key(|r| [0, 1, 2].map(|c| r.get(c).as_i64()));
        rows
    };
    let inventory_regions = region_reads(&cluster, Table::Inventory).len() as u64;

    // No month 13: an empty key set is no scan at all, not a full one.
    let reads = region_reads(&cluster, Table::Inventory);
    let analysis = session
        .sql(&inventory_by_day("d_year = 2001 AND d_moy = 13"))
        .unwrap()
        .collect_analyzed()
        .unwrap();
    assert!(analysis.rows.is_empty());
    assert_eq!(analysis.dynamic_filters, 1);
    assert_eq!(reads, region_reads(&cluster, Table::Inventory), "no RPC");
    let text = analysis.profile.render();
    assert!(text.contains("dynamic filter: 0 keys from op #"), "{text}");
    assert!(text.contains("(partitions after pruning: 0)"), "{text}");
    let inventory_tasks = analysis
        .timeline
        .stage_stats()
        .iter()
        .filter(|s| s.label == "scan")
        .map(|s| s.tasks)
        .collect::<Vec<_>>();
    assert_eq!(inventory_tasks, vec![1], "date_dim's one task only");

    // The first of each month: four days a month apart, a scanner each.
    let before = cluster.metrics.snapshot();
    let rows = run(&session, &inventory_by_day("d_dom = 1"));
    let delta = cluster.metrics.snapshot().delta_since(&before);
    assert_eq!(rows, expected(&|day| day % 30 == 1));
    assert_eq!(delta.scanner_opens, 1 + 4);

    // Every third day: forty ranges, read with at most four scanners per
    // region, the rows between them dropped before they are decoded.
    let before = (cluster.metrics.snapshot(), session.metrics.snapshot());
    let rows = run(
        &session,
        &inventory_by_day("d_dom IN (1, 4, 7, 10, 13, 16, 19, 22, 25, 28)"),
    );
    let store = cluster.metrics.snapshot().delta_since(&before.0);
    let engine = session.metrics.snapshot().delta_since(&before.1);
    let kept = expected(&|day| (day - 1) % 30 % 3 == 0);
    assert_eq!(rows, kept);
    assert_eq!(engine.dynamic_filters, 1);
    assert_eq!(store.scanner_opens, 1 + 4 * inventory_regions);
    assert_eq!(engine.scan_rows, kept.len() as u64 + 40, "and 40 dates");

    // A single-dimension row key: the keys are points, fetched with one
    // BulkGet per region and no scanner.
    let few_items = "SELECT i_item_sk, i_category FROM item \
         JOIN (SELECT DISTINCT inv_item_sk FROM inventory WHERE inv_date_sk = 5) picked \
         ON i_item_sk = picked.inv_item_sk ORDER BY i_item_sk";
    let before = cluster.metrics.snapshot();
    run(
        &session,
        "SELECT DISTINCT inv_item_sk FROM inventory WHERE inv_date_sk = 5",
    );
    let picking = cluster.metrics.snapshot().delta_since(&before);
    let before = (
        cluster.metrics.snapshot(),
        session.metrics.snapshot(),
        region_reads(&cluster, Table::Item),
    );
    let rows = run(&session, few_items);
    let store = cluster.metrics.snapshot().delta_since(&before.0);
    let engine = session.metrics.snapshot().delta_since(&before.1);
    let mut items: Vec<i64> = generator
        .rows(Table::Inventory)
        .iter()
        .filter(|r| r.get(0).as_i64() == Some(5))
        .map(|r| r.get(1).as_i64().unwrap())
        .collect();
    items.sort();
    items.dedup();
    assert!(items.len() > 1);
    assert_eq!(
        rows.iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect::<Vec<_>>(),
        items
    );
    assert_eq!(engine.dynamic_filters, 1);
    assert_eq!(store.scanner_opens, 1, "inventory's one day, one region");
    let item_reads = region_reads(&cluster, Table::Item);
    assert_eq!(item_reads.len(), 1);
    assert_eq!(
        item_reads[0].1 - before.2[0].1,
        items.len() as u64,
        "one read per key"
    );
    assert_eq!(store.rpc_count, picking.rpc_count + 1, "one BulkGet");
}

#[test]
fn a_region_split_after_the_filtering_side_ran_loses_and_repeats_nothing() {
    let (cluster, _, session) = tpcds_over_hbase();
    let sql = shc::tpcds::queries::q39a(2001, 1);
    let measure = || {
        let (store, engine) = (cluster.metrics.snapshot(), session.metrics.snapshot());
        let rows = run(&session, &sql);
        (
            rows,
            cluster.metrics.snapshot().delta_since(&store),
            session.metrics.snapshot().delta_since(&engine),
        )
    };
    // Once, so the client has the fact table's regions cached.
    let (expected, _, engine) = measure();
    // Keys for `inventory`, `item` and `warehouse`.
    assert_eq!(engine.dynamic_filters, 3);

    // The filtering side runs first, so the query's first scan RPC is
    // `date_dim`'s: split the first `inventory` region under it. The fact
    // scan is then planned and started against a layout that is gone.
    let inventory = shc::kvstore::types::TableName::default_ns("inventory");
    let regions = cluster.master.regions_of(&inventory).unwrap();
    let first = regions[0].info.region_id;
    let hook = (Arc::clone(&cluster), inventory.clone());
    cluster
        .faults()
        .on_nth_op(Some(shc::kvstore::fault::RpcOp::Scan), 1, move || {
            hook.0.master.split_region(&hook.1, first).unwrap();
        });
    let (rows, store, after) = measure();
    assert_eq!(
        cluster.master.regions_of(&inventory).unwrap().len(),
        regions.len() + 1
    );
    assert!(
        store.location_invalidations >= 1,
        "the stale layout was met"
    );
    assert_rows_close(&rows, &expected, "after the split");
    assert_eq!(after.dynamic_filters, 3);
    // Two months of `inventory`, each row once, through the daughters.
    assert_eq!(after.scan_rows, engine.scan_rows);
    let (again, _, settled) = measure();
    assert_rows_close(&again, &expected, "on the new layout");
    assert_eq!(settled.scan_rows, engine.scan_rows);
}
