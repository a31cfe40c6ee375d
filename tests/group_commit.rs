//! Group commit: the batch is the unit of durability, and nothing else
//! about the store may depend on how mutations were batched.
//!
//! * **Equivalence** — twin clusters on the same logical clock take the same
//!   puts and deletes, one as whole batches and one a mutation at a time:
//!   multi-version scans, flush counts, store-file bytes and compactions
//!   must match across many flush-threshold crossings, memstore and WAL.
//! * **Fsync budget** — a 2 048-row batch costs one WAL fsync per region it
//!   touches plus one per flush (or segment roll) it triggers.
//! * **Atomic acknowledgement** — a WAL fault in the middle of a group fails
//!   the RPC, shows nothing of the group, loses nothing acknowledged
//!   earlier, and a client retry converges to the twin that never faulted.

use shc::kvstore::prelude::*;
use shc::kvstore::region::Region;
use shc::kvstore::region_server::RegionServer;
use std::sync::Arc;

const TABLE: &str = "ledger";

fn table_name() -> TableName {
    TableName::default_ns(TABLE)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum Op {
    Put(Put),
    Delete(Delete),
}

/// A seeded mix over a small key space (so overwrites stack versions):
/// puts of uneven size into two families, with row and column deletes.
fn ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = seed;
    (0..n)
        .map(|_| {
            let row = format!("row{:04}", splitmix64(&mut rng) % 150);
            match splitmix64(&mut rng) % 11 {
                0 => Op::Delete(Delete::row(row)),
                1 => Op::Delete(Delete::column(row, "a", "balance")),
                _ => {
                    let fill = "y".repeat((splitmix64(&mut rng) % 200) as usize);
                    let value = format!("v{:016x} {fill}", splitmix64(&mut rng));
                    let mut put = Put::new(row).add("a", "balance", value);
                    if splitmix64(&mut rng).is_multiple_of(3) {
                        put = put.add("b", "note", "n".repeat(40));
                    }
                    Op::Put(put)
                }
            }
        })
        .collect()
}

/// Consecutive same-kind mutations: what one region RPC can carry.
enum Run {
    Puts(Vec<Put>),
    Deletes(Vec<Delete>),
}

/// Maximal same-kind runs.
fn runs(ops: &[Op]) -> Vec<Run> {
    let mut out = Vec::new();
    for op in ops {
        match (op, out.last_mut()) {
            (Op::Put(p), Some(Run::Puts(run))) => run.push(p.clone()),
            (Op::Delete(d), Some(Run::Deletes(run))) => run.push(d.clone()),
            (Op::Put(p), _) => out.push(Run::Puts(vec![p.clone()])),
            (Op::Delete(d), _) => out.push(Run::Deletes(vec![d.clone()])),
        }
    }
    out
}

fn single_region_cluster(wal_flush_trigger_bytes: u64) -> Arc<HBaseCluster> {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        region_config: RegionConfig {
            memstore_flush_size: 8 * 1024,
            wal_flush_trigger_bytes,
            ..RegionConfig::default()
        },
        wal_segment_bytes: 16 * 1024,
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(table_name())
                .with_family(FamilyDescriptor::new("a").with_max_versions(4))
                .with_family(FamilyDescriptor::new("b")),
        )
        .unwrap();
    cluster
}

/// The table's only region and the server hosting it.
fn only_region(cluster: &Arc<HBaseCluster>) -> (Arc<RegionServer>, Arc<Region>) {
    let conn = Connection::open(Arc::clone(cluster), None);
    let locations = conn.locate_regions(&table_name()).unwrap();
    assert_eq!(locations.len(), 1);
    let server = cluster.server(locations[0].server_id).unwrap();
    let region = server.region(locations[0].info.region_id).unwrap();
    (server, region)
}

/// One RPC per run: the whole run is one region batch.
fn apply_batched(cluster: &Arc<HBaseCluster>, runs: &[Run]) {
    let (server, region) = only_region(cluster);
    let region_id = region.info.region_id;
    for run in runs {
        match run {
            Run::Puts(puts) => server.put(region_id, puts, None).unwrap(),
            Run::Deletes(deletes) => server.delete(region_id, deletes, None).unwrap(),
        }
    }
}

/// One client call per mutation.
fn apply_one_at_a_time(cluster: &Arc<HBaseCluster>, ops: &[Op]) {
    let conn = Connection::open(Arc::clone(cluster), None);
    let table = conn.table(table_name());
    for op in ops {
        match op {
            Op::Put(p) => table.put(p.clone()).unwrap(),
            Op::Delete(d) => table.delete(d.clone()).unwrap(),
        }
    }
}

fn all_versions(cluster: &Arc<HBaseCluster>) -> Vec<RowResult> {
    let conn = Connection::open(Arc::clone(cluster), None);
    conn.table(table_name())
        .scan(&Scan::new().with_max_versions(4))
        .unwrap()
}

/// What batching must not change about a region's physical state.
fn physical_state(cluster: &Arc<HBaseCluster>) -> (u64, u64, usize, u64, usize) {
    let (_, region) = only_region(cluster);
    (
        region.flush_count(),
        region.compaction_count(),
        region.store_file_count(),
        region.store_file_bytes(),
        region.memstore_size(),
    )
}

/// Flushes run inline at a group boundary wherever the batch is cut, so
/// whole runs go in as they come — under either watermark: the memstore's
/// (default WAL trigger) and the WAL's (a 4 KiB trigger fires before any
/// 8 KiB memstore fills).
#[test]
fn batched_and_one_at_a_time_build_the_same_store() {
    let ops = ops(2018, 600);
    for wal_trigger in [RegionConfig::default().wal_flush_trigger_bytes, 4 * 1024] {
        let label = format!("wal_flush_trigger_bytes={wal_trigger}");
        let single = single_region_cluster(wal_trigger);
        apply_one_at_a_time(&single, &ops);
        assert!(
            physical_state(&single).0 >= 5,
            "{label}: the workload must cross the flush threshold repeatedly"
        );

        let batched = single_region_cluster(wal_trigger);
        let batches = runs(&ops);
        assert!(
            batches
                .iter()
                .any(|run| matches!(run, Run::Puts(puts) if puts.len() > 20)),
            "{label}"
        );
        apply_batched(&batched, &batches);

        assert_eq!(all_versions(&batched), all_versions(&single), "{label}");
        assert_eq!(physical_state(&batched), physical_state(&single), "{label}");
        let (b, s) = (batched.metrics.snapshot(), single.metrics.snapshot());
        assert_eq!(b.flush_bytes_written, s.flush_bytes_written, "{label}");
        assert_eq!(
            b.compaction_bytes_rewritten, s.compaction_bytes_rewritten,
            "{label}"
        );
        assert_eq!(b.flushes_wal_pressure, s.flushes_wal_pressure, "{label}");
        assert_eq!(
            b.flushes_wal_pressure > 0,
            wal_trigger < 8 * 1024,
            "{label}: {} WAL-pressure flushes",
            b.flushes_wal_pressure
        );
        // One fsync per batch, one more per flush point inside it, one per
        // segment header (the first and every roll).
        let budget = batches.len() as u64 + b.wal_segments_rotated + 1;
        let flushes = physical_state(&batched).0;
        assert!(
            b.wal_fsyncs <= budget + flushes && b.wal_fsyncs < s.wal_fsyncs,
            "{label}: {} fsyncs batched, {} one at a time",
            b.wal_fsyncs,
            s.wal_fsyncs
        );
    }
}

#[test]
fn batch_fsyncs_once_per_region_plus_once_per_flush() {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 2,
        region_config: RegionConfig {
            memstore_flush_size: 64 * 1024,
            ..RegionConfig::default()
        },
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(table_name())
                .with_family(FamilyDescriptor::new("a"))
                .with_split_keys(vec![bytes::Bytes::from_static(b"row1024")]),
        )
        .unwrap();
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(table_name());
    let regions = conn.locate_regions(&table_name()).unwrap().len() as u64;
    assert_eq!(regions, 2);
    // Interleave the two regions' rows so the client has to regroup them.
    let puts: Vec<Put> = (0..2048)
        .map(|i| {
            let key = (i % 2) * 1024 + i / 2;
            Put::new(format!("row{key:04}")).add("a", "balance", "z".repeat(120))
        })
        .collect();

    let before = cluster.metrics.snapshot();
    table.put_batch(puts).unwrap();
    let after = cluster.metrics.snapshot();

    let flushes = after.flushes_memstore_pressure - before.flushes_memstore_pressure;
    let rolls = after.wal_segments_rotated - before.wal_segments_rotated;
    let fsyncs = after.wal_fsyncs - before.wal_fsyncs;
    assert!(
        flushes >= 4,
        "2048 rows overflow a 64 KiB memstore: {flushes}"
    );
    assert!(
        fsyncs <= regions + flushes + rolls,
        "{fsyncs} WAL fsyncs for {regions} regions, {flushes} flushes, {rolls} segment rolls"
    );
    assert_eq!(
        after.rpc_count - before.rpc_count,
        regions,
        "one RPC per region"
    );
    assert_eq!(table.scan(&Scan::new()).unwrap().len(), 2048);
}

/// WAL pressure flushes the region that pins the log, not the writer. A
/// region written once and then left alone holds the log's oldest records,
/// so only its flush brings the log back under the trigger; flushing the
/// writer over and over would not.
#[test]
fn wal_pressure_flushes_the_region_pinning_the_log() {
    const TRIGGER: u64 = 16 * 1024;
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        region_config: RegionConfig {
            memstore_flush_size: 64 * 1024,
            wal_flush_trigger_bytes: TRIGGER,
            ..RegionConfig::default()
        },
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(table_name())
                .with_family(FamilyDescriptor::new("a"))
                .with_split_keys(vec![bytes::Bytes::from_static(b"m")]),
        )
        .unwrap();
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(table_name());
    let put = |row: String| {
        table
            .put(Put::new(row).add("a", "balance", "z".repeat(256)))
            .unwrap()
    };
    // 46 puts to the upper region stay under the trigger; the lower region's
    // puts then take the log past it again and again.
    (0..46).for_each(|i| put(format!("n{i:03}")));
    (0..200).for_each(|i| put(format!("a{i:03}")));

    let server = cluster.server(0).unwrap();
    let locations = conn.locate_regions(&table_name()).unwrap();
    let region = |row: &[u8]| {
        let loc = locations.iter().find(|l| l.info.contains_row(row)).unwrap();
        server.region(loc.info.region_id).unwrap()
    };
    let (writer, pinning) = (region(b"a"), region(b"n"));
    assert_eq!(pinning.flush_count(), 1, "the pinning region flushed once");
    assert!(
        writer.flush_count() < 10,
        "the writer flushed {} times",
        writer.flush_count()
    );
    assert!(server.wal().retained_bytes() < TRIGGER);
    assert_eq!(
        cluster.metrics.snapshot().flushes_wal_pressure,
        writer.flush_count() + pinning.flush_count()
    );
    assert_eq!(table.scan(&Scan::new()).unwrap().len(), 246);
}

/// A flush releases the log up to the oldest record any family still needs.
/// A family that was never written needs none: after ten puts to `a` of an
/// `a` + `b` table and a flush, the log retains nothing.
#[test]
fn a_family_never_written_does_not_pin_the_log() {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(table_name())
                .with_family(FamilyDescriptor::new("a"))
                .with_family(FamilyDescriptor::new("b")),
        )
        .unwrap();
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(table_name());
    for i in 0..10 {
        table
            .put(Put::new(format!("row{i}")).add("a", "q", "v"))
            .unwrap();
    }
    let server = cluster.server(0).unwrap();
    assert!(server.wal().retained_bytes() > 0);
    cluster.flush_all().unwrap();
    assert_eq!(server.wal().retained_bytes(), 0);
    assert_eq!(table.scan(&Scan::new()).unwrap().len(), 10);
}

fn default_single_region() -> Arc<HBaseCluster> {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        ..Default::default()
    });
    cluster
        .create_table(TableDescriptor::new(table_name()).with_family(FamilyDescriptor::new("a")))
        .unwrap();
    cluster
}

fn batch(round: u64, rows: std::ops::Range<usize>) -> Vec<Put> {
    rows.map(|i| Put::new(format!("row{i:04}")).add("a", "balance", format!("r{round} of row {i}")))
        .collect()
}

/// Newest value per row: what a client that only knows at-least-once
/// delivery can rely on (a retried put lands as a newer version).
fn latest(cluster: &Arc<HBaseCluster>) -> Vec<(bytes::Bytes, bytes::Bytes)> {
    let conn = Connection::open(Arc::clone(cluster), None);
    conn.table(table_name())
        .scan(&Scan::new())
        .unwrap()
        .into_iter()
        .map(|row| {
            let value = row.value(b"a", b"balance").expect("balance column").clone();
            (row.row, value)
        })
        .collect()
}

#[test]
fn wal_fault_inside_a_group_acknowledges_nothing_and_a_retry_converges() {
    for kind in [FileFaultKind::Torn, FileFaultKind::CrashAt] {
        let faulty = default_single_region();
        let twin = default_single_region();
        let conn = Connection::open(Arc::clone(&faulty), None);
        let table = conn.table(table_name());
        let twin_conn = Connection::open(Arc::clone(&twin), None);
        let twin_table = twin_conn.table(table_name());

        // Acknowledged before the fault.
        table.put_batch(batch(1, 0..40)).unwrap();
        twin_table.put_batch(batch(1, 0..40)).unwrap();
        let acknowledged = latest(&faulty);
        assert_eq!(acknowledged.len(), 40);

        // Records take one fault verdict each, so the 13th WAL write from
        // here is the 13th record of the next group.
        let rule = faulty
            .faults()
            .add_file_rule(FileFaultRule::new(kind).on_op(FileOp::WalAppend).at_nth(13));
        let second = batch(2, 20..70);
        let err = table
            .put_batch(second.clone())
            .expect_err("armed group must fail");
        assert!(
            matches!(err, KvError::SimulatedCrash(_)),
            "{kind:?}: {err:?}"
        );
        assert_eq!(rule.fire_count(), 1);
        assert_eq!(
            latest(&faulty),
            acknowledged,
            "{kind:?}: nothing of the failed group may be visible"
        );

        // The process dies at the injected point and comes back.
        let server = faulty.server(0).unwrap();
        server.crash();
        faulty.faults().clear();
        server.try_restart().unwrap();
        let recovered = latest(&faulty);
        for (row, value) in &acknowledged[..20] {
            assert!(
                recovered.contains(&(row.clone(), value.clone())),
                "{kind:?}: acknowledged row {row:?} lost"
            );
        }
        // Recovery keeps a whole-record prefix of the group: the 12 records
        // written before the faulted one, which the retry overwrites.
        let replayed_from_group = recovered
            .iter()
            .filter(|(_, value)| value.starts_with(b"r2"))
            .count();
        assert_eq!(replayed_from_group, 12, "{kind:?}");

        table.put_batch(second.clone()).unwrap();
        twin_table.put_batch(second).unwrap();
        assert_eq!(latest(&faulty), latest(&twin), "{kind:?}");
        faulty.flush_all().unwrap();
        twin.flush_all().unwrap();
        assert_eq!(latest(&faulty), latest(&twin), "{kind:?}: after flush");
    }
}
