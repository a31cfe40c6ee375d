//! Observability end to end: the flight recorder is byte-identical across
//! two seeded chaos runs, a slow query's TraceId resolves to parseable
//! Chrome trace-event JSON containing its scan RPC spans, and the default
//! block-cache threshold alert deterministically fires and clears on the
//! virtual clock with an exemplar pointing at the offending trace.
//!
//! Determinism discipline: one executor (so event interleaving is fixed),
//! fixed fault seeds, and the virtual clock everywhere — no wall time ever
//! reaches a journal entry, a span, or an alert evaluation.

use shc::obs::Severity;
use shc::prelude::*;
use std::sync::Arc;

const CATALOG: &str = r#"{
    "table":{"namespace":"default", "name":"ledger"},
    "rowkey":"key",
    "columns":{
        "txn_id":{"cf":"rowkey", "col":"key", "type":"string"},
        "account":{"cf":"l", "col":"acct", "type":"int"},
        "amount":{"cf":"l", "col":"amt", "type":"double"}
    }
}"#;

/// A 3-server cluster with 200 flushed rows (so scans hit store files and
/// the block cache) and a session with a slow threshold low enough that
/// every full scan trips it.
fn build(fault_seed: u64) -> (Arc<HBaseCluster>, Arc<Session>) {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 3,
        fault_seed,
        // A real (simulated) network: RPC transfer cost is what pushes the
        // full scans here over the 500µs slow threshold.
        network: shc::kvstore::network::NetworkSim::gigabit(),
        ..Default::default()
    });
    let catalog = Arc::new(HBaseTableCatalog::parse_simple(CATALOG).unwrap());
    let data: Vec<Row> = (0..200)
        .map(|i| {
            Row::new(vec![
                Value::Utf8(format!("txn{i:06}")),
                Value::Int32(i % 50),
                Value::Float64(i as f64 * 0.01),
            ])
        })
        .collect();
    write_rows(
        &cluster,
        &catalog,
        &SHCConf::default().with_new_table_regions(3),
        &data,
    )
    .unwrap();
    cluster.flush_all().unwrap();
    let session = Session::new(SessionConfig {
        executors: ExecutorConfig {
            num_executors: 1,
            hosts: cluster.hostnames(),
            task_retries: 1,
        },
        slow_query_threshold_us: 500,
        ..Default::default()
    });
    register_system_tables(&session, &cluster);
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        catalog,
        SHCConf::default(),
        "ledger",
    );
    (cluster, session)
}

/// One seeded chaos run: two dropped scan RPCs, two queries. Returns the
/// rendered store and query journals.
fn chaos_run(fault_seed: u64) -> (String, String) {
    let (cluster, session) = build(fault_seed);
    {
        use shc::kvstore::prelude::*;
        cluster.faults().add_rule(
            FaultRule::new(FaultKind::Drop)
                .on_op(RpcOp::Scan)
                .first_n(2),
        );
    }
    for _ in 0..2 {
        session
            .sql("SELECT COUNT(*) FROM ledger")
            .unwrap()
            .collect()
            .unwrap();
    }
    let journals = (cluster.events().render(), session.events().render());

    // One scan of system.events reads both journals: the cluster's (the
    // injected drops) and the session's (the slow queries).
    let sources = session
        .sql("SELECT DISTINCT source FROM system.events ORDER BY source")
        .unwrap()
        .collect()
        .unwrap();
    let sources: Vec<_> = sources.iter().map(|r| r.get(0).as_str()).collect();
    assert_eq!(sources, [Some("query"), Some("store")]);
    journals
}

#[test]
fn seeded_chaos_yields_byte_identical_event_journals() {
    let (store_a, query_a) = chaos_run(0xd1ce);
    let (store_b, query_b) = chaos_run(0xd1ce);
    assert!(
        store_a.contains("[fault]"),
        "injected drops must be journaled: {store_a}"
    );
    assert!(
        query_a.contains("slow query"),
        "slow queries must be journaled: {query_a}"
    );
    assert_eq!(store_a, store_b, "store journal must replay byte-for-byte");
    assert_eq!(query_a, query_b, "query journal must replay byte-for-byte");
}

#[test]
fn slow_query_trace_resolves_to_parseable_chrome_json() {
    let (_cluster, session) = build(0xbeef);
    session
        .sql("SELECT COUNT(*) FROM ledger")
        .unwrap()
        .collect()
        .unwrap();
    let entry = session.query_log().entries().pop().expect("query logged");
    assert!(entry.slow, "full scan trips the 500µs threshold");
    assert_ne!(entry.trace_id, 0, "collect() mints a TraceId");

    // The TraceId recorded in the log (and surfaced by system.queries)
    // resolves to the retained trace...
    let trace = session.trace_for(entry.trace_id).expect("trace retained");
    assert_eq!(trace.trace_id, entry.trace_id);
    assert!(
        !trace.spans_named("rpc").is_empty(),
        "the scan's RPC spans ride in the query's trace"
    );

    // ...which exports as Chrome trace-event JSON: complete events, valid
    // JSON all the way down.
    let json = trace.to_chrome_json();
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains(&format!("{:#x}", entry.trace_id)));
    let export = shc::obs::json::parse_json(&json).expect("the export is JSON");
    // Task spans sit on a named lane per executor, beside the driver's.
    let events = export.get("traceEvents").unwrap().as_array().unwrap();
    let lanes: Vec<&str> = events
        .iter()
        .filter(|e| e.get_str("ph") == Some("M"))
        .filter_map(|e| e.get("args")?.get_str("name"))
        .collect();
    assert!(
        lanes.contains(&"driver") && lanes.iter().any(|l| l.starts_with("executor-0 (host-")),
        "{lanes:?}"
    );

    // The slow query also captured an automatic flight-recorder dump.
    let dump = session.last_event_dump().expect("slow query dumps events");
    assert!(dump.contains("slow query"));
}

#[test]
fn block_cache_alert_fires_and_clears_with_exemplar() {
    let (cluster, session) = build(0xa1e7);
    let count = |s: &Arc<Session>| {
        s.sql("SELECT COUNT(*) FROM ledger")
            .unwrap()
            .collect()
            .unwrap();
    };

    // Cold scan: every block read misses, hit ratio 0 < 0.5 — the default
    // rule breaches and (debounce 0) fires on the first evaluation.
    count(&session);
    let transitions = session.alerts().evaluate(cluster.clock.peek_ms());
    assert!(
        transitions
            .iter()
            .any(|t| t.name == "block_cache_hit_ratio_low" && t.fired),
        "cold cache must fire the hit-ratio alert: {transitions:?}"
    );
    let status = session
        .alerts()
        .statuses()
        .into_iter()
        .find(|s| s.name == "block_cache_hit_ratio_low")
        .unwrap();
    assert_eq!(status.state.as_str(), "firing");

    // The exemplar sampled at fire time is the TraceId of the latest scan
    // RPC — and it resolves to that query's exportable trace.
    assert_ne!(status.exemplar_trace_id, 0);
    let offender = session
        .trace_for(status.exemplar_trace_id)
        .expect("exemplar points at a retained trace");
    assert!(!offender.spans_named("rpc").is_empty());

    // Warm scans: repeats served from the cache push the ratio above the
    // threshold, and the alert clears.
    for _ in 0..4 {
        count(&session);
    }
    let transitions = session.alerts().evaluate(cluster.clock.peek_ms());
    assert!(
        transitions
            .iter()
            .any(|t| t.name == "block_cache_hit_ratio_low" && !t.fired),
        "warm cache must clear the alert: {transitions:?}"
    );
    let status = session
        .alerts()
        .statuses()
        .into_iter()
        .find(|s| s.name == "block_cache_hit_ratio_low")
        .unwrap();
    assert_eq!(status.state.as_str(), "ok");
    assert_eq!(status.fired_count, 1, "one complete fire/clear episode");
}

/// One seeded stall run: every watermark crossing flushes inline and blocks
/// the writer, store-file writes are slowed, and a scrape follows every
/// batch. Returns the tsdb dump, the write-stall alert's fired count, the
/// stall count and the rendered store journal.
fn stall_run(seed: u64) -> (String, u64, u64, String) {
    use shc::kvstore::prelude::*;
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        fault_seed: seed,
        region_config: RegionConfig {
            memstore_flush_size: 2 * 1024,
            // Keep compaction lazy so flushed files pile up into a backlog.
            compact_at_file_count: 64,
            tier_min_files: 32,
            tier_size_ratio: 8.0,
            ..RegionConfig::default()
        },
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns("stall"))
                .with_family(FamilyDescriptor::new("cf")),
        )
        .unwrap();
    let session = Session::new_default();
    register_system_tables(&session, &cluster);
    let tsdb = cluster.tsdb();
    let status_of = |name: &str| {
        let statuses = session.alerts().statuses();
        statuses.into_iter().find(|s| s.name == name).unwrap()
    };

    // Every store-file write in the first episode takes an extra 500 virtual
    // ms — the injected disk slowness that makes the stalls expensive.
    cluster.faults().add_file_rule(
        FileFaultRule::new(FileFaultKind::SlowWrite(500_000))
            .on_op(FileOp::StoreFileWrite)
            .times(8),
    );

    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("stall"));
    let payload = "y".repeat(256);
    // The ingest runs under a tracer, so the stall histogram's exemplars
    // carry this TraceId — the alert points back at the blocked workload.
    let tracer = shc::obs::Tracer::with_id(0xabcd);
    {
        let mut root = tracer.root("ingest");
        root.annotate("workload", "stall");
        for i in 0..48 {
            table
                .put(Put::new(format!("s{i:05}")).add("cf", "v", payload.clone()))
                .unwrap();
            if i % 8 == 7 {
                tsdb.scrape(cluster.clock.peek_ms());
                session.alerts().evaluate(cluster.clock.peek_ms());
            }
        }
    }
    // Compaction stayed lazy all through the ingest: every flushed file
    // joined the backlog, and the growth rule says so.
    assert_eq!(
        status_of("compaction_backlog_growth").state.as_str(),
        "firing",
        "flushes outpacing compaction must fire the backlog rule"
    );

    // Stalls over: age the growth samples out of the rate window (rate
    // rules look back 10s of virtual time), then scrape a flat tail so the
    // alert clears — one complete fire/clear episode.
    for _ in 0..12_000 {
        cluster.clock.now_ms();
    }
    tsdb.scrape(cluster.clock.peek_ms());
    for _ in 0..200 {
        cluster.clock.now_ms();
    }
    tsdb.scrape(cluster.clock.peek_ms());
    session.alerts().evaluate(cluster.clock.peek_ms());

    let status = status_of("write_stall_rate");
    assert_eq!(status.state.as_str(), "ok", "flat tail clears the alert");
    assert_eq!(
        status.exemplar_trace_id, 0xabcd,
        "the alert's exemplar is the blocked ingest's TraceId"
    );
    let snap = cluster.metrics.snapshot();
    (
        tsdb.render(),
        status.fired_count,
        snap.write_stalls,
        cluster.events().render(),
    )
}

#[test]
fn seeded_stalls_fire_rate_alert_once_per_episode_and_scrape_identically() {
    let (series_a, fired_a, stalls_a, journal_a) = stall_run(0x57a1);
    let (series_b, fired_b, stalls_b, journal_b) = stall_run(0x57a1);
    assert!(stalls_a > 0, "watermark flushes must stall the writer");
    assert_eq!(
        fired_a, 1,
        "the rate alert fires once per stall episode, not per evaluation"
    );
    assert_eq!(fired_a, fired_b);
    assert_eq!(stalls_a, stalls_b);
    assert!(
        series_a.contains("shc_store_write_stall_ms"),
        "scrapes must cover the stall counter: {series_a}"
    );
    assert_eq!(
        series_a, series_b,
        "same-seed scrape series must be byte-identical"
    );
    // Every stall is journaled with its cause, at the writer's virtual time:
    // the flush journal is a function of the seed alone.
    assert!(
        journal_a
            .lines()
            .any(|l| l.contains("write stall: region") && l.contains("memstore_pressure")),
        "stalls must journal with cause attribution: {journal_a}"
    );
    assert_eq!(
        journal_a, journal_b,
        "same-seed store journal must replay byte-for-byte"
    );
}

#[test]
fn metrics_history_answers_rate_over_window_for_stalls() {
    use shc::kvstore::prelude::*;
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        region_config: RegionConfig {
            memstore_flush_size: 2 * 1024,
            compact_at_file_count: 64,
            tier_min_files: 32,
            tier_size_ratio: 8.0,
            ..RegionConfig::default()
        },
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns("stall"))
                .with_family(FamilyDescriptor::new("cf")),
        )
        .unwrap();
    let session = Session::new_default();
    register_system_tables(&session, &cluster);
    cluster.faults().add_file_rule(
        FileFaultRule::new(FileFaultKind::SlowWrite(500_000))
            .on_op(FileOp::StoreFileWrite)
            .times(8),
    );
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("stall"));
    let payload = "z".repeat(256);
    for i in 0..48 {
        table
            .put(Put::new(format!("m{i:05}")).add("cf", "v", payload.clone()))
            .unwrap();
        if i % 8 == 7 {
            // Scanning the history table *is* the scrape loop.
            session
                .sql("SELECT COUNT(*) FROM system.metrics_history")
                .unwrap()
                .collect()
                .unwrap();
        }
    }

    // Rate over the scraped window, computed in SQL off the history table:
    // stalled ms per virtual second across the run.
    let window = session
        .sql(
            "SELECT MIN(ts), MAX(ts), MIN(value), MAX(value) \
             FROM system.metrics_history WHERE metric = 'shc_store_write_stall_ms'",
        )
        .unwrap()
        .collect()
        .unwrap();
    let (min_ts, max_ts) = (
        window[0].get(0).as_i64().unwrap(),
        window[0].get(1).as_i64().unwrap(),
    );
    let (min_v, max_v) = (
        window[0].get(2).as_f64().unwrap(),
        window[0].get(3).as_f64().unwrap(),
    );
    assert!(max_ts > min_ts, "scrapes span virtual time");
    let rate_per_s = (max_v - min_v) * 1000.0 / (max_ts - min_ts) as f64;
    assert!(
        rate_per_s > 5.0,
        "stall rate {rate_per_s} must clear the alert threshold"
    );
    // The SQL answer agrees with the tsdb's own window query.
    let native = cluster
        .tsdb()
        .rate("shc_store_write_stall_ms", u64::MAX)
        .unwrap();
    assert!((native - rate_per_s).abs() < 1e-9);

    // The backlog ramp is visible in history: flushed files pile up while
    // compaction stays lazy.
    let backlog = session
        .sql(
            "SELECT MIN(value), MAX(value) FROM system.metrics_history \
             WHERE metric = 'shc_store_compaction_backlog_bytes' AND labels = ''",
        )
        .unwrap()
        .collect()
        .unwrap();
    let (backlog_min, backlog_max) = (
        backlog[0].get(0).as_f64().unwrap(),
        backlog[0].get(1).as_f64().unwrap(),
    );
    assert!(
        backlog_max > backlog_min && backlog_max > 0.0,
        "backlog must ramp: min={backlog_min} max={backlog_max}"
    );

    // The stalls themselves were journaled with cause attribution.
    let journal = cluster.events().render();
    assert!(journal.contains("write stall: region"), "{journal}");
}

#[test]
fn system_queries_trace_id_joins_to_system_events() {
    let (_cluster, session) = build(0x0b5e);
    session
        .sql("SELECT COUNT(*) FROM ledger")
        .unwrap()
        .collect()
        .unwrap();
    let logged = session
        .sql("SELECT trace_id FROM system.queries WHERE slow")
        .unwrap()
        .collect()
        .unwrap();
    let trace_id = logged[0].get(0).as_str().unwrap().to_string();
    assert!(trace_id.starts_with("0x") && trace_id != "0x0");
    let events = session
        .sql(&format!(
            "SELECT severity, message FROM system.events \
             WHERE trace_id = '{trace_id}' AND category = 'query'"
        ))
        .unwrap()
        .collect()
        .unwrap();
    assert!(!events.is_empty(), "slow-query event joins on trace_id");
    assert_eq!(events[0].get(0).as_str(), Some(Severity::Warn.as_str()));
}
