//! What the hash operators move is a property of the plan and the data, not
//! of how their kernels read a key: q39 over in-memory tables exchanges,
//! broadcasts and schedules exactly the figures pinned here, whatever hash
//! the key tables look a key up by. The plan they pin is the eager one: each
//! month-block aggregates `inventory ⋈ date_dim` by the foreign keys and
//! joins `item` and `warehouse` to the groups, and the three dimension
//! tables scan as one packed task each. Batch counts pin placement too: a
//! row's exchange partition is `shuffle::hash_key(key) % n`, and with every
//! join a shuffle join a change of that hash moves rows between tasks and
//! changes the batches they are cut into, for q39a and q39b alike. (The
//! aggregate's exchange is pinned by `hash_aggregate`'s own test: moving it
//! leaves these figures as they are.) Stage rounds, counted off the
//! query's task timeline, pin where the pipelines break: a narrow operator
//! or a broadcast probe runs inside the task that produced its input.

use shc::prelude::*;

/// `(broadcast_threshold, shuffle_bytes, shuffle_rows, broadcast_bytes,
/// tasks, batches_built, stage_rounds)`: with the default broadcast bound
/// (dimension tables broadcast, only the aggregates exchange), then with
/// every join a shuffle join.
type Moved = (usize, u64, u64, u64, u64, u64, usize);

/// Runs `sql` in both configurations: each returns `result_rows` rows and
/// moves what `expected` says.
fn assert_moves(sql: &str, result_rows: usize, expected: [Moved; 2]) {
    let generator = Generator::new(Scale::from_gb(10.0), 2018);
    let session = Session::new_default();
    shc::tpcds::load_into_memory(&session, &generator, &Table::Q39_TABLES, 5);
    for (
        broadcast_threshold,
        shuffle_bytes,
        shuffle_rows,
        broadcast_bytes,
        tasks,
        batches,
        rounds,
    ) in expected
    {
        session.update_config(|c| c.broadcast_threshold = broadcast_threshold);
        let before = session.metrics.snapshot();
        let analysis = session.sql(sql).unwrap().collect_analyzed().unwrap();
        let moved = session.metrics.snapshot().delta_since(&before);
        let rows = analysis.rows;
        let stage_rounds = analysis.timeline.stages().len();
        assert_eq!(
            rows.len(),
            result_rows,
            "broadcast_threshold = {broadcast_threshold}"
        );
        assert_eq!(
            (
                moved.shuffle_bytes,
                moved.shuffle_rows,
                moved.broadcast_bytes,
                moved.tasks,
                moved.batches_built,
                stage_rounds
            ),
            (
                shuffle_bytes,
                shuffle_rows,
                broadcast_bytes,
                tasks,
                batches,
                rounds
            ),
            "broadcast_threshold = {broadcast_threshold}"
        );
    }
}

#[test]
fn q39a_over_memtables_moves_the_pinned_figures() {
    let broadcast = SessionConfig::default().broadcast_threshold;
    assert_moves(
        &shc::tpcds::queries::q39a(2001, 1),
        34,
        [
            (broadcast, 312_284, 4_109, 20_868, 17, 39, 9),
            (0, 1_111_190, 27_740, 0, 21, 111, 15),
        ],
    );
}

#[test]
fn q39b_over_memtables_moves_the_pinned_figures() {
    let broadcast = SessionConfig::default().broadcast_threshold;
    assert_moves(
        &shc::tpcds::queries::q39b(2001, 1),
        // Its `stdev / mean > 1.5` filter keeps none of q39a's 34 rows here;
        // what it moves still depends on where its groups land.
        0,
        [
            (broadcast, 312_284, 4_109, 20_868, 17, 37, 9),
            (0, 1_087_700, 27_305, 0, 21, 109, 15),
        ],
    );
}
