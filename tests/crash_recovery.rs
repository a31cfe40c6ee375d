//! Crash-recovery harness for the LSM engine.
//!
//! The core technique is the *twin cluster*: two clusters run the
//! same deterministic workload on the same logical clock, one of them with
//! a seeded file-layer fault that kills its servers at a precise point of
//! a flush, a manifest commit, or a compaction. After the crashed cluster
//! restarts (manifest reload + WAL replay), full scans of both clusters
//! must be byte-identical — recovery may not lose an acknowledged write,
//! resurrect a deleted one, or duplicate anything.
//!
//! Seeds: set `SHC_CRASH_SEED=<n>` to pin one seed (the CI matrix does);
//! unset, the matrix runs seeds 1..=5.

use shc::kvstore::prelude::*;
use std::sync::Arc;

const TABLE: &str = "ledger";
const ROWS_PER_ROUND: usize = 120;

fn seeds() -> Vec<u64> {
    match std::env::var("SHC_CRASH_SEED") {
        Ok(s) => vec![s.parse().expect("SHC_CRASH_SEED must be a u64")],
        Err(_) => (1..=5).collect(),
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A cluster whose memstores never fill. With `wal_flush_trigger_bytes` at
/// `u64::MAX` its flushes happen only when the test says so, so the fault
/// schedule is exact; a small trigger makes writes flush under WAL pressure.
fn build_cluster(wal_flush_trigger_bytes: u64) -> Arc<HBaseCluster> {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 2,
        region_config: RegionConfig {
            memstore_flush_size: usize::MAX,
            wal_flush_trigger_bytes,
            compact_at_file_count: 64,
            tier_min_files: 2,
            tier_size_ratio: 8.0,
        },
        wal_segment_bytes: 16 * 1024,
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns(TABLE))
                .with_family(FamilyDescriptor::new("cf"))
                .with_split_keys(vec![bytes::Bytes::from_static(b"row0500")]),
        )
        .unwrap();
    cluster
}

/// One deterministic round of overwrites and deletes. Both twins run the
/// identical call sequence, so WAL sequence numbers and logical timestamps
/// line up exactly.
fn run_round(cluster: &Arc<HBaseCluster>, seed: u64, round: u64) {
    let conn = Connection::open(Arc::clone(cluster), None);
    let table = conn.table(TableName::default_ns(TABLE));
    let mut rng = seed ^ (round << 32);
    for _ in 0..ROWS_PER_ROUND {
        let row = format!("row{:04}", splitmix64(&mut rng) % 1000);
        if splitmix64(&mut rng).is_multiple_of(8) {
            table.delete(Delete::row(row)).unwrap();
        } else {
            let value = format!("r{round} v{:016x} {}", splitmix64(&mut rng), "y".repeat(48));
            table
                .put(Put::new(row).add("cf", "balance", value))
                .unwrap();
        }
    }
}

/// Full-table scan through the client, multi-version so recovery bugs in
/// older versions can't hide behind the newest cell.
fn full_scan(cluster: &Arc<HBaseCluster>) -> Vec<RowResult> {
    let conn = Connection::open(Arc::clone(cluster), None);
    let table = conn.table(TableName::default_ns(TABLE));
    table.scan(&Scan::new().with_max_versions(4)).unwrap()
}

fn crash_all(cluster: &Arc<HBaseCluster>) {
    for id in 0..cluster.num_servers() as u64 {
        cluster.server(id).unwrap().crash();
    }
}

fn restart_all(cluster: &Arc<HBaseCluster>) {
    for id in 0..cluster.num_servers() as u64 {
        cluster.server(id).unwrap().try_restart().unwrap();
    }
}

/// The seeded kill points of the crash matrix.
#[derive(Clone, Copy, Debug)]
enum Kill {
    /// Dies before the first byte of the first flushed store file.
    PreFlush,
    /// A later flush block is torn mid-write (multi-block flush).
    MidFlush,
    /// Store files fully written and fsynced, manifest commit torn.
    PostFlushPreManifest,
    /// First block of a compaction rewrite never persists.
    MidCompaction,
}

impl Kill {
    fn rule(self) -> FileFaultRule {
        match self {
            Kill::PreFlush => {
                FileFaultRule::new(FileFaultKind::CrashAt).on_op(FileOp::StoreFileWrite)
            }
            Kill::MidFlush => FileFaultRule::new(FileFaultKind::Torn)
                .on_op(FileOp::StoreFileWrite)
                .at_nth(2),
            Kill::PostFlushPreManifest => {
                FileFaultRule::new(FileFaultKind::Torn).on_op(FileOp::ManifestWrite)
            }
            Kill::MidCompaction => {
                FileFaultRule::new(FileFaultKind::CrashAt).on_op(FileOp::CompactionWrite)
            }
        }
    }

    /// Compaction needs existing files to rewrite, so its kill point is
    /// armed only after one clean flush cycle.
    fn needs_clean_flush_first(self) -> bool {
        matches!(self, Kill::MidCompaction)
    }
}

/// Run the full matrix entry for one seed and kill point.
fn crash_and_compare(seed: u64, kill: Kill) {
    let faulty = build_cluster(u64::MAX);
    let twin = build_cluster(u64::MAX);

    run_round(&faulty, seed, 1);
    run_round(&twin, seed, 1);
    if kill.needs_clean_flush_first() {
        faulty.flush_all().unwrap();
        twin.flush_all().unwrap();
        run_round(&faulty, seed, 2);
        run_round(&twin, seed, 2);
    }

    let rule = faulty.faults().add_file_rule(kill.rule());
    let err = faulty.flush_all().expect_err("armed flush must crash");
    assert!(
        matches!(err, KvError::SimulatedCrash(_)),
        "kill {kill:?} seed {seed}: expected SimulatedCrash, got {err:?}"
    );
    assert_eq!(rule.fire_count(), 1, "the fault fires exactly once");
    twin.flush_all().unwrap();

    // The process dies at the injected point; the injector is then cleared
    // so recovery itself runs clean.
    crash_all(&faulty);
    faulty.faults().clear();
    restart_all(&faulty);

    let recovered = full_scan(&faulty);
    let reference = full_scan(&twin);
    assert_eq!(
        recovered, reference,
        "kill {kill:?} seed {seed}: restarted scan differs from never-crashed twin"
    );

    // The recovered cluster keeps working: another identical round on both
    // stays in lockstep, through a clean flush this time.
    run_round(&faulty, seed, 7);
    run_round(&twin, seed, 7);
    faulty.flush_all().unwrap();
    twin.flush_all().unwrap();
    assert_eq!(
        full_scan(&faulty),
        full_scan(&twin),
        "kill {kill:?} seed {seed}: divergence after post-recovery round"
    );
}

#[test]
fn crash_matrix_restarts_match_uncrashed_twin() {
    for seed in seeds() {
        for kill in [
            Kill::PreFlush,
            Kill::MidFlush,
            Kill::PostFlushPreManifest,
            Kill::MidCompaction,
        ] {
            crash_and_compare(seed, kill);
        }
    }
}

/// Crashing while nothing was ever flushed must replay every record from
/// the WAL alone — and report how many through the metrics. Crashing after
/// writes that flushed (and compacted) under WAL pressure must recover the
/// same scan from store files plus the log's tail.
#[test]
fn wal_only_recovery_replays_every_record() {
    for seed in seeds() {
        for wal_trigger in [u64::MAX, 2 * 1024] {
            let faulty = build_cluster(wal_trigger);
            let twin = build_cluster(wal_trigger);
            run_round(&faulty, seed, 3);
            run_round(&twin, seed, 3);
            let before = full_scan(&faulty);
            let wal_flushes = faulty.metrics.snapshot().flushes_wal_pressure;
            assert_eq!(wal_flushes > 0, wal_trigger != u64::MAX, "seed {seed}");
            crash_all(&faulty);
            restart_all(&faulty);
            assert_eq!(
                full_scan(&faulty),
                before,
                "seed {seed} trigger {wal_trigger}"
            );
            assert_eq!(full_scan(&faulty), full_scan(&twin));
            // Without a flush the log alone holds the round; with them, the
            // tail after the last one.
            let replayed = faulty.metrics.snapshot().wal_replayed_records;
            let expected = if wal_flushes == 0 {
                ROWS_PER_ROUND as u64
            } else {
                1
            };
            assert!(
                replayed >= expected,
                "seed {seed} trigger {wal_trigger}: replayed {replayed} records, \
                 expected at least {expected}"
            );
        }
    }
}

/// Restart and failover recover a dead server from the same log. A crash
/// on the second record of a three-record group leaves the first record
/// whole on disk but unacknowledged. Both paths read the segment files, so
/// both replay it, and the restarted twin and the failed-over twin scan
/// alike.
#[test]
fn restart_and_failover_replay_the_same_log() {
    for seed in seeds() {
        let restarted = build_cluster(u64::MAX);
        let failed_over = build_cluster(u64::MAX);
        let mut dead = 0;
        for cluster in [&restarted, &failed_over] {
            run_round(cluster, seed, 4);
            let table = TableName::default_ns(TABLE);
            let locations = cluster.master.regions_of(&table).unwrap();
            let loc = locations
                .iter()
                .find(|loc| loc.info.contains_row(b"row0000"))
                .unwrap();
            let region = cluster
                .server(loc.server_id)
                .unwrap()
                .region(loc.info.region_id)
                .unwrap();
            let rule = cluster.faults().add_file_rule(
                FileFaultRule::new(FileFaultKind::CrashAt)
                    .on_op(FileOp::WalAppend)
                    .at_nth(2),
            );
            let puts: Vec<Put> = (0..3)
                .map(|i| Put::new(format!("row{i:04}")).add("cf", "balance", format!("torn {i}")))
                .collect();
            let err = region.put_batch(&puts).unwrap_err();
            assert!(
                matches!(err, KvError::SimulatedCrash(_)),
                "seed {seed}: {err:?}"
            );
            assert_eq!(rule.fire_count(), 1);
            crash_all(cluster);
            cluster.faults().clear();
            dead = loc.server_id;
        }

        restart_all(&restarted);
        failed_over.server(1 - dead).unwrap().try_restart().unwrap();
        failed_over.master.fail_over_server(dead).unwrap();

        let reference = full_scan(&restarted);
        let torn_head = reference
            .iter()
            .find(|row| row.row.as_ref() == b"row0000")
            .and_then(|row| row.cells.first())
            .map(|cell| cell.value.clone());
        assert_eq!(
            torn_head.as_deref(),
            Some(&b"torn 0"[..]),
            "seed {seed}: restart replays the group's whole first record"
        );
        assert_eq!(
            full_scan(&failed_over),
            reference,
            "seed {seed}: failover recovered a different log than restart"
        );
    }
}

/// The delayed-deletion invariant: a WAL segment may be archived (and later
/// deleted) only once every memstore holding edits it covers has flushed.
#[test]
fn wal_segments_outlive_unflushed_memstores() {
    let cluster = build_cluster(u64::MAX);
    for round in 1..=6 {
        run_round(&cluster, 11, round);
    }

    // Nothing has flushed: every sealed segment still covers unflushed
    // edits, so none may be archived, let alone deleted.
    for id in 0..cluster.num_servers() as u64 {
        let wal = cluster.server(id).unwrap().wal();
        wal.gc();
        let states = wal.segment_states();
        let sealed: Vec<_> = states.iter().filter(|s| s.sealed).collect();
        assert!(!sealed.is_empty(), "16K segments must have rotated");
        for seg in &sealed {
            assert!(
                seg.min_unflushed_seq.is_some(),
                "segment {} covers unflushed edits",
                seg.id
            );
            assert!(!seg.archived, "segment {} archived too early", seg.id);
            assert!(seg.path.exists(), "segment {} deleted too early", seg.id);
        }
    }
    let snap = cluster.metrics.snapshot();
    assert_eq!(snap.wal_segments_archived, 0);
    assert_eq!(snap.wal_segments_deleted, 0);

    // Flush everything; the flush watermarks release every sealed segment.
    // Archival happens on the first gc pass, deletion on the next.
    cluster.flush_all().unwrap();
    run_round(&cluster, 11, 3);
    cluster.flush_all().unwrap();
    for id in 0..cluster.num_servers() as u64 {
        let wal = cluster.server(id).unwrap().wal();
        wal.gc();
        wal.gc();
    }
    let snap = cluster.metrics.snapshot();
    assert!(snap.wal_segments_archived > 0, "flush releases segments");
    assert!(snap.wal_segments_deleted > 0, "second gc pass deletes");
}

/// A compaction-heavy overwrite workload must report finite write
/// amplification strictly above 1.0 (WAL + flush already rewrite every
/// logical byte at least twice).
#[test]
fn compaction_workload_reports_write_amplification() {
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 2,
        region_config: RegionConfig {
            memstore_flush_size: 8 * 1024,
            compact_at_file_count: 4,
            tier_min_files: 2,
            tier_size_ratio: 8.0,
            ..RegionConfig::default()
        },
        wal_segment_bytes: 16 * 1024,
        ..Default::default()
    });
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns(TABLE))
                .with_family(FamilyDescriptor::new("cf")),
        )
        .unwrap();
    for round in 1..=5 {
        run_round(&cluster, 17, round);
    }
    cluster.flush_all().unwrap();
    let snap = cluster.metrics.snapshot();
    let amp = snap
        .write_amplification()
        .expect("workload wrote physical bytes");
    assert!(amp.is_finite());
    assert!(amp > 1.0, "write amplification {amp} should exceed 1.0");
    assert!(
        snap.compaction_bytes_rewritten > 0,
        "overwrite workload must have compacted"
    );
}
