//! Task-execution observability end to end: the straggler detector fires
//! exactly once on an injected delay (journaled under the query's
//! TraceId), same-seed task timelines replay byte-for-byte, retried tasks
//! keep their full attempt chains, and a skewed cluster scan surfaces in
//! `system.stage_stats` and fires the `stage_skew_high` and
//! `straggler_spike` alerts.
//!
//! Determinism discipline: scheduler placement is decided at submit time,
//! timeline timestamps are lane-relative, and injected faults are keyed by
//! executor host — no wall time and no racing thread reaches a profile.

use shc::kvstore::network::NetworkSim;
use shc::kvstore::types::{FamilyDescriptor, Put, TableDescriptor, TableName};
use shc::prelude::*;
use std::sync::Arc;

const QUERY: &str = "SELECT dept, COUNT(*) AS n FROM jobs GROUP BY dept ORDER BY dept";

/// An engine-only session: 3600 rows over 6 even MemTable partitions on a
/// 3-executor pool, so every scan task costs the same — any straggler is
/// the fault injector's doing. A partition holds more than half a batch,
/// so no two pack into one scan task.
fn obs_session(faults: Option<Arc<SchedulerFaults>>) -> Arc<Session> {
    let session = Session::new(SessionConfig {
        executors: ExecutorConfig {
            num_executors: 3,
            hosts: vec!["h0".into(), "h1".into(), "h2".into()],
            task_retries: 1,
        },
        scheduler_faults: faults,
        ..Default::default()
    });
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("dept", DataType::Utf8),
    ]);
    let rows: Vec<Row> = (0..3600)
        .map(|i| Row::new(vec![Value::Int64(i), Value::Utf8(format!("d{}", i % 3))]))
        .collect();
    session.register_table("jobs", Arc::new(MemTable::with_rows(schema, rows, 6)));
    session
}

fn delayed_faults() -> Arc<SchedulerFaults> {
    let faults = SchedulerFaults::new();
    // The first attempt on h1 (one scan task) is slowed far past the
    // straggler cutoff; every other task stays under the 1ms floor.
    faults.delay_once_on_host("h1", 50_000);
    faults
}

#[test]
fn straggler_detector_fires_exactly_once_with_query_trace_id() {
    let session = obs_session(Some(delayed_faults()));
    session.sql(QUERY).unwrap().collect().unwrap();

    let trace_id = session.query_log().entries()[0].trace_id;
    assert_ne!(trace_id, 0);
    let stragglers: Vec<_> = session
        .events()
        .events()
        .into_iter()
        .filter(|e| e.category == "straggler")
        .collect();
    assert_eq!(
        stragglers.len(),
        1,
        "one injected delay, one straggler event: {stragglers:?}"
    );
    assert_eq!(
        stragglers[0].trace_id, trace_id,
        "straggler event must carry the query's TraceId"
    );
    let tasks = session.task_metrics().snapshot();
    assert_eq!(tasks.stragglers, 1);
    // The run-time histogram's tail exemplar is the offending query.
    assert_eq!(
        session.task_metrics().run_us.latest_tail_exemplar(),
        trace_id
    );
    // The timeline marks exactly the delayed task.
    let timeline = session.last_timeline().unwrap();
    let flagged: Vec<_> = timeline.tasks().iter().filter(|t| t.straggler).collect();
    assert_eq!(flagged.len(), 1);
    assert_eq!(flagged[0].host, "h1");
}

#[test]
fn same_seed_timelines_are_byte_identical() {
    let run = || {
        let session = obs_session(Some(delayed_faults()));
        session.sql(QUERY).unwrap().collect().unwrap();
        session.last_timeline().unwrap().render()
    };
    let a = run();
    assert!(
        a.contains("straggler"),
        "render shows the flagged task: {a}"
    );
    assert_eq!(a, run(), "timeline must replay");
}

#[test]
fn retries_keep_full_attempt_chains_and_shuffle_edges_are_attributed() {
    let faults = SchedulerFaults::new();
    faults.fail_once_on_host("h0", "executor lost");
    let session = obs_session(Some(faults));
    session.sql(QUERY).unwrap().collect().unwrap();

    let timeline = session.last_timeline().unwrap();
    let retried: Vec<_> = timeline
        .tasks()
        .iter()
        .filter(|t| t.attempts.len() == 2)
        .collect();
    assert_eq!(retried.len(), 1, "one injected failure, one retried task");
    let chain = &retried[0].attempts;
    assert!(
        chain[0].error.as_deref().unwrap().contains("executor lost"),
        "failed attempt keeps its cause: {:?}",
        chain[0].error
    );
    assert!(chain[1].error.is_none());
    assert_ne!(chain[0].exec, chain[1].exec, "retry re-placed elsewhere");
    assert!(chain[1].winner);

    // The aggregation's exchange shows up as a labeled edge, and both it
    // and the task histograms reach the exposition text.
    let edges = session.shuffle_edges().snapshot();
    assert!(
        edges.iter().any(|e| e.label.starts_with("agg#")),
        "group-by exchange must be attributed: {edges:?}"
    );
    let exposition = session.metrics_exposition();
    assert!(exposition.contains("shc_task_run_us"));
    assert!(exposition.contains("shuffle_edge_bytes{edge=\""));
}

// ----------------------------------------------------------------------
// Cluster-backed: skew and the alert rules, observed through SQL
// ----------------------------------------------------------------------

const LEDGER_CATALOG: &str = r#"{
    "table":{"namespace":"default", "name":"ledger"},
    "rowkey":"key",
    "columns":{
        "txn_id":{"cf":"rowkey", "col":"key", "type":"string"},
        "amount":{"cf":"l", "col":"amt", "type":"string"}
    }
}"#;

/// A 3-server cluster whose `ledger` table is pre-split into four regions
/// holding 150/30/10/10 of the 200 rows — a hot partition 15× the median.
fn skewed_cluster_session() -> (Arc<HBaseCluster>, Arc<Session>) {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 3,
        network: NetworkSim::gigabit(),
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns("ledger"))
                .with_family(FamilyDescriptor::new("l"))
                .with_split_keys(vec!["0150".into(), "0180".into(), "0190".into()]),
        )
        .unwrap();
    let conn = shc::kvstore::client::Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("ledger"));
    for i in 0..200 {
        table
            .put(Put::new(format!("{i:04}")).add("l", "amt", format!("{i}")))
            .unwrap();
    }
    let session = Session::new(SessionConfig {
        executors: ExecutorConfig {
            num_executors: 3,
            hosts: cluster.hostnames(),
            task_retries: 1,
        },
        ..Default::default()
    });
    register_system_tables(&session, &cluster);
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        Arc::new(HBaseTableCatalog::parse_simple(LEDGER_CATALOG).unwrap()),
        SHCConf::default(),
        "ledger",
    );
    (cluster, session)
}

#[test]
fn skewed_scan_surfaces_in_stage_stats_and_fires_skew_alert() {
    let (_cluster, session) = skewed_cluster_session();
    session
        .sql("SELECT COUNT(*) FROM ledger")
        .unwrap()
        .collect()
        .unwrap();
    let trace_id = session.query_log().entries()[0].trace_id;

    // Scan `system.alerts` first: at evaluation time the most recent
    // stored timeline is still the skewed query's.
    let alerts = session
        .sql("SELECT name, state, exemplar_trace_id FROM system.alerts WHERE name = 'stage_skew_high'")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(alerts.len(), 1);
    assert_eq!(alerts[0].get(1).as_str(), Some("firing"));
    assert_eq!(
        alerts[0].get(2).as_str(),
        Some(format!("{trace_id:#x}").as_str()),
        "skew alert exemplar must point at the skewed query"
    );

    // The hot stage's skew ratio is queryable and well above 2.
    let stats = session
        .sql("SELECT skew_ratio, locality_hit_ratio, tasks FROM system.stage_stats WHERE label = 'scan'")
        .unwrap()
        .collect()
        .unwrap();
    let max_skew = stats
        .iter()
        .filter_map(|r| r.get(0).as_f64())
        .fold(0.0f64, f64::max);
    assert!(max_skew > 2.0, "hot region must read as skew: {max_skew}");
    // The hot stage is the ledger scan: one task per region server, with
    // region-local placement, so every preferring task ran preferred.
    let scan_row = stats
        .iter()
        .find(|r| r.get(0).as_f64() == Some(max_skew))
        .expect("the skewed scan stage is surfaced");
    assert!(scan_row.get(2).as_i64().unwrap() >= 3);
    assert_eq!(scan_row.get(1).as_f64(), Some(1.0));

    // And the per-attempt table is joinable on the query's TraceId.
    let attempts = session
        .sql("SELECT COUNT(*) FROM system.task_timeline WHERE stage_label = 'scan'")
        .unwrap()
        .collect()
        .unwrap();
    assert!(attempts[0].get(0).as_i64().unwrap() >= 4);
}

/// A scan task's cost includes the modeled cost of the RPCs its region
/// scanners made, not only the ticks of its own spans.
#[test]
fn scan_task_costs_include_their_scanner_rpcs() {
    let (cluster, session) = skewed_cluster_session();
    let before = cluster.metrics.snapshot();
    session
        .sql("SELECT COUNT(*) FROM ledger")
        .unwrap()
        .collect()
        .unwrap();
    let rpc_us = cluster
        .metrics
        .snapshot()
        .delta_since(&before)
        .rpc_latency_us
        .sum;
    assert!(rpc_us > 0);
    let cost = session
        .sql("SELECT SUM(cost_us) FROM system.task_timeline WHERE stage_label = 'scan'")
        .unwrap()
        .collect()
        .unwrap();
    let cost_us = cost[0].get(0).as_i64().unwrap() as u64;
    assert!(
        cost_us >= rpc_us,
        "scan stage cost {cost_us} µs < RPC charges {rpc_us} µs"
    );
}

#[test]
fn straggler_spike_alert_fires_once_then_clears() {
    let (cluster, session) = skewed_cluster_session();
    let faults = SchedulerFaults::new();
    // Delay an entire host's first attempt well past anything the modeled
    // network charges for these 200 rows.
    faults.delay_once_on_host(&cluster.hostnames()[1], 5_000_000);
    session.update_config(|c| {
        c.scheduler_faults = Some(faults);
    });
    session
        .sql("SELECT COUNT(*) FROM ledger")
        .unwrap()
        .collect()
        .unwrap();
    assert!(session.task_metrics().snapshot().stragglers >= 1);

    let alert = |name: &str| {
        let rows = session
            .sql(&format!(
                "SELECT state, fired_count FROM system.alerts WHERE name = '{name}'"
            ))
            .unwrap()
            .collect()
            .unwrap();
        (
            rows[0].get(0).as_str().unwrap().to_string(),
            rows[0].get(1).as_i64().unwrap(),
        )
    };
    let (state, fired) = alert("straggler_spike");
    assert_eq!(state, "firing");
    assert_eq!(fired, 1, "the detector's burst fires the alert once");

    // No new stragglers since: the delta rule clears on the next scan.
    let (state, fired) = alert("straggler_spike");
    assert_eq!(state, "ok");
    assert_eq!(fired, 1, "clearing must not re-fire");
}

// ----------------------------------------------------------------------
// Golden timelines: what the scheduler recorded for a straggler, a retry
// and q39a, rendered byte for byte.
// ----------------------------------------------------------------------

fn fault_timeline(faults: Arc<SchedulerFaults>) -> String {
    let session = obs_session(Some(faults));
    session.sql(QUERY).unwrap().collect().unwrap();
    session.last_timeline().unwrap().render()
}

#[test]
fn a_delayed_host_renders_the_golden_timeline() {
    assert_eq!(fault_timeline(delayed_faults()), STRAGGLER_TIMELINE);
}

#[test]
fn a_failed_attempt_renders_the_golden_timeline() {
    let faults = SchedulerFaults::new();
    faults.fail_once_on_host("h0", "executor lost");
    assert_eq!(fault_timeline(faults), RETRY_TIMELINE);
}

/// q39a over in-memory TPC-DS tables on a two-executor pool.
#[test]
fn q39a_over_memtables_renders_the_golden_timeline() {
    let generator = Generator::new(Scale::from_gb(10.0), 2018);
    let session = Session::new(SessionConfig {
        executors: ExecutorConfig {
            num_executors: 2,
            ..Default::default()
        },
        ..Default::default()
    });
    shc::tpcds::load_into_memory(&session, &generator, &Table::Q39_TABLES, 5);
    let sql = shc::tpcds::queries::q39a(2001, 1);
    session.sql(&sql).unwrap().collect().unwrap();
    assert_eq!(session.last_timeline().unwrap().render(), Q39A_TIMELINE);
}

const STRAGGLER_TIMELINE: &str = r"stage 0 [scan]: tasks=6 rows=600/600/600 bytes=8400/8400/8400 skew=1.00 locality=- wait_max=50002us run=2/2/50002us stragglers=1
  task 0 pref=- host=h0 exec=0 local=false wait=0us run=2us rows=600 bytes=8400 straggler=false
    attempt 1 exec=0 host=h0 [0..2] 2us winner
  task 1 pref=- host=h1 exec=1 local=false wait=0us run=50002us rows=600 bytes=8400 straggler=true
    attempt 1 exec=1 host=h1 [0..50002] 50002us winner
  task 2 pref=- host=h2 exec=2 local=false wait=0us run=2us rows=600 bytes=8400 straggler=false
    attempt 1 exec=2 host=h2 [0..2] 2us winner
  task 3 pref=- host=h0 exec=0 local=false wait=2us run=2us rows=600 bytes=8400 straggler=false
    attempt 1 exec=0 host=h0 [2..4] 2us winner
  task 4 pref=- host=h1 exec=1 local=false wait=50002us run=2us rows=600 bytes=8400 straggler=false
    attempt 1 exec=1 host=h1 [50002..50004] 2us winner
  task 5 pref=- host=h2 exec=2 local=false wait=2us run=2us rows=600 bytes=8400 straggler=false
    attempt 1 exec=2 host=h2 [2..4] 2us winner
stage 1 [map]: tasks=1 rows=3/3/3 bytes=66/66/66 skew=1.00 locality=- wait_max=0us run=0/0/0us stragglers=0
  task 0 pref=- host=h0 exec=0 local=false wait=0us run=0us rows=3 bytes=66 straggler=false
    attempt 1 exec=0 host=h0 [0..0] 0us winner
";

const RETRY_TIMELINE: &str = r"stage 0 [scan]: tasks=6 rows=600/600/600 bytes=8400/8400/8400 skew=1.00 locality=- wait_max=2us run=2/2/2us stragglers=0
  task 0 pref=- host=h1 exec=1 local=false wait=0us run=2us rows=600 bytes=8400 straggler=false
    attempt 1 exec=0 host=h0 [0..0] 0us error=execution error: executor lost
    attempt 2 exec=1 host=h1 [4..6] 2us winner
  task 1 pref=- host=h1 exec=1 local=false wait=0us run=2us rows=600 bytes=8400 straggler=false
    attempt 1 exec=1 host=h1 [0..2] 2us winner
  task 2 pref=- host=h2 exec=2 local=false wait=0us run=2us rows=600 bytes=8400 straggler=false
    attempt 1 exec=2 host=h2 [0..2] 2us winner
  task 3 pref=- host=h0 exec=0 local=false wait=0us run=2us rows=600 bytes=8400 straggler=false
    attempt 1 exec=0 host=h0 [0..2] 2us winner
  task 4 pref=- host=h1 exec=1 local=false wait=2us run=2us rows=600 bytes=8400 straggler=false
    attempt 1 exec=1 host=h1 [2..4] 2us winner
  task 5 pref=- host=h2 exec=2 local=false wait=2us run=2us rows=600 bytes=8400 straggler=false
    attempt 1 exec=2 host=h2 [2..4] 2us winner
stage 1 [map]: tasks=1 rows=3/3/3 bytes=66/66/66 skew=1.00 locality=- wait_max=0us run=0/0/0us stragglers=0
  task 0 pref=- host=h0 exec=0 local=false wait=0us run=0us rows=3 bytes=66 straggler=false
    attempt 1 exec=0 host=h0 [0..0] 0us winner
";

const Q39A_TIMELINE: &str = r"stage 0 [scan]: tasks=1 rows=30/30/30 bytes=720/720/720 skew=1.00 locality=- wait_max=0us run=2/2/2us stragglers=0
  task 0 pref=- host=localhost exec=0 local=false wait=0us run=2us rows=30 bytes=720 straggler=false
    attempt 1 exec=0 host=localhost [0..2] 2us winner
stage 1 [scan]: tasks=5 rows=590/591/641 bytes=30680/30732/33332 skew=1.08 locality=- wait_max=4us run=2/2/2us stragglers=0
  task 0 pref=- host=localhost exec=0 local=false wait=0us run=2us rows=590 bytes=30680 straggler=false
    attempt 1 exec=0 host=localhost [0..2] 2us winner
  task 1 pref=- host=localhost exec=1 local=false wait=0us run=2us rows=591 bytes=30732 straggler=false
    attempt 1 exec=1 host=localhost [0..2] 2us winner
  task 2 pref=- host=localhost exec=0 local=false wait=2us run=2us rows=641 bytes=33332 straggler=false
    attempt 1 exec=0 host=localhost [2..4] 2us winner
  task 3 pref=- host=localhost exec=1 local=false wait=2us run=2us rows=619 bytes=32188 straggler=false
    attempt 1 exec=1 host=localhost [2..4] 2us winner
  task 4 pref=- host=localhost exec=0 local=false wait=4us run=2us rows=591 bytes=30732 straggler=false
    attempt 1 exec=0 host=localhost [4..6] 2us winner
stage 2 [scan]: tasks=1 rows=120/120/120 bytes=1920/1920/1920 skew=1.00 locality=- wait_max=0us run=2/2/2us stragglers=0
  task 0 pref=- host=localhost exec=0 local=false wait=0us run=2us rows=120 bytes=1920 straggler=false
    attempt 1 exec=0 host=localhost [0..2] 2us winner
stage 3 [scan]: tasks=1 rows=6/6/6 bytes=228/228/228 skew=1.00 locality=- wait_max=0us run=2/2/2us stragglers=0
  task 0 pref=- host=localhost exec=0 local=false wait=0us run=2us rows=6 bytes=228 straggler=false
    attempt 1 exec=0 host=localhost [0..2] 2us winner
stage 4 [scan]: tasks=1 rows=30/30/30 bytes=720/720/720 skew=1.00 locality=- wait_max=0us run=2/2/2us stragglers=0
  task 0 pref=- host=localhost exec=0 local=false wait=0us run=2us rows=30 bytes=720 straggler=false
    attempt 1 exec=0 host=localhost [0..2] 2us winner
stage 5 [probe]: tasks=5 rows=572/596/625 bytes=29744/30992/32500 skew=1.05 locality=- wait_max=0us run=0/0/0us stragglers=0
  task 0 pref=- host=localhost exec=0 local=false wait=0us run=0us rows=605 bytes=31460 straggler=false
    attempt 1 exec=0 host=localhost [0..0] 0us winner
  task 1 pref=- host=localhost exec=1 local=false wait=0us run=0us rows=594 bytes=30888 straggler=false
    attempt 1 exec=1 host=localhost [0..0] 0us winner
  task 2 pref=- host=localhost exec=0 local=false wait=0us run=0us rows=572 bytes=29744 straggler=false
    attempt 1 exec=0 host=localhost [0..0] 0us winner
  task 3 pref=- host=localhost exec=1 local=false wait=0us run=0us rows=596 bytes=30992 straggler=false
    attempt 1 exec=1 host=localhost [0..0] 0us winner
  task 4 pref=- host=localhost exec=0 local=false wait=0us run=0us rows=625 bytes=32500 straggler=false
    attempt 1 exec=0 host=localhost [0..0] 0us winner
stage 6 [map]: tasks=1 rows=142/142/142 bytes=9372/9372/9372 skew=1.00 locality=- wait_max=0us run=0/0/0us stragglers=0
  task 0 pref=- host=localhost exec=0 local=false wait=0us run=0us rows=142 bytes=9372 straggler=false
    attempt 1 exec=0 host=localhost [0..0] 0us winner
stage 7 [map]: tasks=1 rows=34/34/34 bytes=4216/4216/4216 skew=1.00 locality=- wait_max=0us run=0/0/0us stragglers=0
  task 0 pref=- host=localhost exec=0 local=false wait=0us run=0us rows=34 bytes=4216 straggler=false
    attempt 1 exec=0 host=localhost [0..0] 0us winner
stage 8 [map]: tasks=1 rows=34/34/34 bytes=2176/2176/2176 skew=1.00 locality=- wait_max=0us run=0/0/0us stragglers=0
  task 0 pref=- host=localhost exec=0 local=false wait=0us run=0us rows=34 bytes=2176 straggler=false
    attempt 1 exec=0 host=localhost [0..0] 0us winner
";
