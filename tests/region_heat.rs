//! Integration tests for the region heat observatory: the sustained-hotspot
//! alert's once-per-episode debounce, and dead servers leaving the heat view.

use shc::kvstore::prelude::*;
use shc::prelude::*;
use std::sync::Arc;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded skewed ingest: four rounds of 100 writes, all landing in a
/// seed-chosen 40-row band of the first region, with a heartbeat round
/// after each batch. Returns the cluster and every hot key written.
fn run_skewed(seed: u64) -> (Arc<HBaseCluster>, Vec<String>) {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 2,
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns("t"))
                .with_family(FamilyDescriptor::new("f"))
                .with_split_keys(vec!["0500".into()]),
        )
        .unwrap();
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("t"));
    let base = splitmix64(seed) % 400;
    let tracer = shc::obs::Tracer::with_id(seed | 1);
    let mut hot_keys = Vec::new();
    {
        let _root = tracer.root("ingest");
        for round in 0..4u64 {
            for i in 0..100u64 {
                let off = splitmix64(seed ^ (round << 32) ^ i) % 40;
                let key = format!("{:04}", base + off);
                table.put(Put::new(key.clone()).add("f", "v", "x")).unwrap();
                hot_keys.push(key);
            }
            table
                .put(Put::new(format!("{:04}", 600 + round)).add("f", "v", "cold"))
                .unwrap();
            cluster.cluster_status();
        }
    }
    (cluster, hot_keys)
}

#[test]
fn hot_alert_fires_once_per_episode_and_carries_the_ingest_exemplar() {
    let (cluster, _) = run_skewed(5);
    let session = Session::new_default();
    register_system_tables(&session, &cluster);
    let alert_state = || {
        let rows = session
            .sql(
                "SELECT state, fired_count, exemplar_trace_id FROM system.alerts \
                 WHERE name = 'region_hot_sustained'",
            )
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(rows.len(), 1);
        (
            rows[0].get(0).as_str().unwrap().to_string(),
            rows[0].get(1).as_i64().unwrap(),
            rows[0].get(2).as_str().unwrap().to_string(),
        )
    };

    // First evaluation sees the breach and arms the debounce.
    let (state, fired, _) = alert_state();
    assert_eq!(state, "pending");
    assert_eq!(fired, 0);

    // Past the debounce window with the score still high: fires, once,
    // with the skewed ingest's TraceId as exemplar.
    for _ in 0..2_100 {
        cluster.clock.now_ms();
    }
    let (state, fired, exemplar) = alert_state();
    assert_eq!(state, "firing");
    assert_eq!(fired, 1);
    assert_eq!(exemplar, format!("{:#x}", 5u64 | 1));

    // Still breaching: the same episode never re-fires.
    let (state, fired, _) = alert_state();
    assert_eq!(state, "firing");
    assert_eq!(fired, 1, "one episode, one firing");

    // Let the window slide past the activity: the episode ends.
    for _ in 0..11_000 {
        cluster.clock.now_ms();
    }
    cluster.cluster_status();
    let (state, fired, _) = alert_state();
    assert_eq!(state, "ok", "rates drain once the window moves on");
    assert_eq!(fired, 1);

    // A second burst is a second episode: pending, then a second firing.
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("t"));
    for i in 0..200u64 {
        table
            .put(Put::new(format!("{:04}", (i * 7) % 40)).add("f", "v", "again"))
            .unwrap();
    }
    cluster.cluster_status();
    let (state, fired, _) = alert_state();
    assert_eq!(state, "pending");
    assert_eq!(fired, 1);
    for _ in 0..2_100 {
        cluster.clock.now_ms();
    }
    let (state, fired, _) = alert_state();
    assert_eq!(state, "firing");
    assert_eq!(fired, 2, "a new episode fires exactly once more");
}

#[test]
fn dead_server_regions_leave_the_heat_view_until_restart() {
    let (cluster, _) = run_skewed(11);
    let live = cluster.heat().region_heat().len();
    assert_eq!(live, 2, "both regions report while both servers are live");

    // Crash the server hosting the cold region and let its heartbeats
    // lapse: its series go stale and drop out of the heat view.
    cluster.master.set_heartbeat_timeout_ms(500);
    cluster.server(1).unwrap().crash();
    for _ in 0..600 {
        cluster.clock.now_ms();
    }
    cluster.cluster_status();
    assert_eq!(
        cluster.heat().region_heat().len(),
        1,
        "the dead server's region stops reading as live load"
    );

    // A restart heartbeat revives the series in place.
    cluster.server(1).unwrap().restart();
    cluster.cluster_status();
    assert_eq!(cluster.heat().region_heat().len(), 2);
}
