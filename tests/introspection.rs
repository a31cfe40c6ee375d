//! Cluster introspection end to end: the load accounting, `ClusterStatus`
//! liveness, the `system.*` tables, the slow-query log, and metric-name
//! hygiene across both registries.

use shc::core::introspect::register_system_tables;
use shc::kvstore::client::Connection;
use shc::kvstore::network::NetworkSim;
use shc::kvstore::types::{FamilyDescriptor, Get, Put, Scan, TableDescriptor, TableName};
use shc::prelude::*;
use std::sync::Arc;

fn cluster_with_events(num_servers: usize, network: NetworkSim) -> Arc<HBaseCluster> {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers,
        network,
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns("events"))
                .with_family(FamilyDescriptor::new("cf")),
        )
        .unwrap();
    cluster
}

/// The acceptance scenario: a scripted workload of K puts, N gets and M
/// scans against a single-region table must be reflected *exactly* in
/// `system.regions` and `system.servers`.
#[test]
fn system_tables_match_scripted_workload() {
    const K_PUTS: i64 = 7;
    const N_GETS: i64 = 25;
    const M_SCANS: i64 = 4;

    let cluster = cluster_with_events(1, NetworkSim::off());
    let conn = Connection::open(Arc::clone(&cluster), None);
    let events = conn.table(TableName::default_ns("events"));
    for i in 0..K_PUTS {
        events
            .put(Put::new(format!("row-{i}")).add("cf", "q", "v"))
            .unwrap();
    }
    for i in 0..N_GETS {
        events.get(Get::new(format!("row-{}", i % K_PUTS))).unwrap();
    }
    // With K_PUTS rows < the default caching (1024), every scan is exactly
    // one round trip, the scanner open that serves the whole region, i.e.
    // one read request on the region.
    for _ in 0..M_SCANS {
        assert_eq!(events.scan(&Scan::new()).unwrap().len(), K_PUTS as usize);
    }

    let session = Session::new_default();
    register_system_tables(&session, &cluster);

    let rows = session
        .sql(
            "SELECT SUM(read_requests), SUM(write_requests) \
             FROM system.regions WHERE table_name = 'default:events'",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows[0].get(0), &Value::Int64(N_GETS + M_SCANS));
    assert_eq!(rows[0].get(1), &Value::Int64(K_PUTS));

    // The same numbers roll up through the per-server view.
    let servers = session
        .sql("SELECT hostname, read_requests, write_requests FROM system.servers")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(servers.len(), 1);
    assert_eq!(servers[0].get(0).as_str(), Some("host-0"));
    assert_eq!(servers[0].get(1), &Value::Int64(N_GETS + M_SCANS));
    assert_eq!(servers[0].get(2), &Value::Int64(K_PUTS));

    // And through the per-table rollup.
    let tables = session
        .sql("SELECT regions, read_requests FROM system.tables WHERE table_name = 'default:events'")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(tables[0].get(0), &Value::Int64(1));
    assert_eq!(tables[0].get(1), &Value::Int64(N_GETS + M_SCANS));
}

/// A query pushed over the slow threshold shows up in `system.queries`
/// with its SQL text, a plan digest, and the store RPCs it issued.
#[test]
fn slow_query_is_captured_with_rpc_count() {
    let cluster = cluster_with_events(2, NetworkSim::gigabit());
    let conn = Connection::open(Arc::clone(&cluster), None);
    let events = conn.table(TableName::default_ns("events"));
    for i in 0..20 {
        events
            .put(Put::new(format!("row-{i:02}")).add("cf", "q", format!("{i}")))
            .unwrap();
    }

    let session = Session::new(SessionConfig {
        // Any store-backed scan costs far more virtual time than this.
        slow_query_threshold_us: 10,
        ..Default::default()
    });
    register_system_tables(&session, &cluster);
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        Arc::new(
            HBaseTableCatalog::parse_simple(
                r#"{"table":{"namespace":"default","name":"events"},
                    "rowkey":"key",
                    "columns":{
                      "key":{"cf":"rowkey","col":"key","type":"string"},
                      "q":{"cf":"cf","col":"q","type":"string"}}}"#,
            )
            .unwrap(),
        ),
        SHCConf::default(),
        "events",
    );

    let rows = session
        .sql("SELECT COUNT(*) FROM events")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows[0].get(0), &Value::Int64(20));

    let slow = session
        .sql("SELECT sql, rpc_count, plan_digest, duration_us FROM system.queries WHERE slow")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(slow.len(), 1, "exactly the store query is slow");
    assert_eq!(slow[0].get(0).as_str(), Some("SELECT COUNT(*) FROM events"));
    assert!(
        slow[0].get(1).as_i64().unwrap() >= 1,
        "store scan issued RPCs: {:?}",
        slow[0]
    );
    assert_eq!(slow[0].get(2).as_str().unwrap().len(), 16);
    assert!(slow[0].get(3).as_i64().unwrap() > 10);
}

/// Missed heartbeats mark a server dead in `ClusterStatus` (and drop it
/// from `system.regions`); a restart brings it back.
#[test]
fn cluster_status_tracks_liveness_across_restart() {
    let cluster = cluster_with_events(3, NetworkSim::off());
    let status = cluster.cluster_status();
    assert_eq!(status.live_servers().count(), 3);
    assert_eq!(status.dead_servers().count(), 0);

    cluster.server(1).unwrap().crash();
    cluster.master.set_heartbeat_timeout_ms(5);
    for _ in 0..10 {
        cluster.clock.now_ms();
    }
    let status = cluster.cluster_status();
    assert_eq!(status.live_servers().count(), 2);
    let dead: Vec<_> = status
        .dead_servers()
        .map(|s| s.load.hostname.clone())
        .collect();
    assert_eq!(dead, vec!["host-1".to_string()]);

    // The SQL view agrees: only live servers contribute regions.
    let session = Session::new_default();
    register_system_tables(&session, &cluster);
    let rows = session
        .sql("SELECT hostname FROM system.servers WHERE live ORDER BY hostname")
        .unwrap()
        .collect()
        .unwrap();
    let live: Vec<_> = rows.iter().filter_map(|r| r.get(0).as_str()).collect();
    assert_eq!(live, vec!["host-0", "host-2"]);

    cluster.server(1).unwrap().restart();
    let status = cluster.cluster_status();
    assert_eq!(status.live_servers().count(), 3);
    assert_eq!(status.dead_servers().count(), 0);
}

/// Satellite: both registries' expositions must use unique, correctly
/// prefixed, snake_case metric names.
#[test]
fn metric_names_are_unique_prefixed_and_snake_case() {
    let cluster = HBaseCluster::start_default();
    let session = Session::new_default();

    let mut seen = std::collections::HashSet::new();
    for (exposition, prefixes) in [
        (cluster.metrics.exposition(), &["shc_store_"][..]),
        // The session registry hosts both query- and task-level metrics.
        (
            session.metrics_exposition(),
            &["shc_query_", "shc_task_"][..],
        ),
    ] {
        let mut in_registry = 0;
        for line in exposition.lines() {
            let Some(rest) = line.strip_prefix("# TYPE ") else {
                continue;
            };
            let name = rest.split_whitespace().next().unwrap();
            assert!(
                prefixes.iter().any(|p| name.starts_with(p)),
                "{name} missing one of the prefixes {prefixes:?}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name} is not snake_case"
            );
            assert!(seen.insert(name.to_string()), "duplicate metric {name}");
            in_registry += 1;
        }
        assert!(
            in_registry > 3,
            "registry with prefixes {prefixes:?} looks empty"
        );
    }
}
