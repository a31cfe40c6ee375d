//! What the hash operators move is a property of the plan and the data, not
//! of how their kernels read a key: q39a over in-memory tables exchanges,
//! broadcasts and schedules exactly what it did when joins and aggregates
//! built a `Vec<Value>` per row (the figures of commit d268a73).

use shc::prelude::*;

#[test]
fn q39a_over_memtables_moves_what_it_moved_before_the_typed_kernels() {
    let generator = Generator::new(Scale::from_gb(10.0), 2018);
    let session = Session::new_default();
    shc::tpcds::load_into_memory(&session, &generator, &Table::Q39_TABLES, 5);
    let sql = shc::tpcds::queries::q39a(2001, 1);

    // As planned and re-planned (dimension tables broadcast, only the
    // aggregates exchange), then with every join a shuffle join.
    for (broadcast_threshold, shuffle_bytes, shuffle_rows, broadcast_bytes, tasks) in [
        (
            SessionConfig::default().broadcast_threshold,
            402_682,
            4_109,
            36_684,
            56,
        ),
        (0, 3_133_022, 52_295, 0, 48),
    ] {
        session.update_config(|c| c.broadcast_threshold = broadcast_threshold);
        let before = session.metrics.snapshot();
        let rows = session.sql(&sql).unwrap().collect().unwrap();
        let moved = session.metrics.snapshot().delta_since(&before);
        assert!(!rows.is_empty());
        assert_eq!(
            (
                moved.shuffle_bytes,
                moved.shuffle_rows,
                moved.broadcast_bytes,
                moved.tasks
            ),
            (shuffle_bytes, shuffle_rows, broadcast_bytes, tasks),
            "broadcast_threshold = {broadcast_threshold}"
        );
    }
}
