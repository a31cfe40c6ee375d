//! TPC-DS q39a and q39b. Plain text builders with no dependency, so the
//! engine's tests can include this file and plan the same queries.

/// The per-month aggregation block shared by q39a/q39b.
pub(super) fn inv_block(year: i32, moy: i32) -> String {
    format!(
        "(SELECT w_warehouse_name wname, w_warehouse_sk wsk, i_item_sk isk, \
                 d_moy moy, \
                 STDDEV_SAMP(inv_quantity_on_hand) stdev, \
                 AVG(inv_quantity_on_hand) mean \
          FROM inventory \
          JOIN item ON inv_item_sk = i_item_sk \
          JOIN warehouse ON inv_warehouse_sk = w_warehouse_sk \
          JOIN date_dim ON inv_date_sk = d_date_sk \
          WHERE d_year = {year} AND d_moy = {moy} \
          GROUP BY w_warehouse_name, w_warehouse_sk, i_item_sk, d_moy)"
    )
}

/// TPC-DS q39a (adapted): unstable inventory in consecutive months.
pub fn q39a(year: i32, moy: i32) -> String {
    format!(
        "SELECT inv1.wsk, inv1.isk, inv1.moy, inv1.mean, inv1.stdev, \
                inv2.moy m2, inv2.mean mean2, inv2.stdev stdev2 \
         FROM {inv1} inv1 \
         JOIN {inv2} inv2 ON inv1.isk = inv2.isk AND inv1.wsk = inv2.wsk \
         WHERE inv1.stdev / inv1.mean > 1.0 AND inv2.stdev / inv2.mean > 1.0 \
         ORDER BY inv1.wsk, inv1.isk",
        inv1 = inv_block(year, moy),
        inv2 = inv_block(year, moy + 1),
    )
}

/// TPC-DS q39b (adapted): as q39a, but the first month must be strongly
/// unstable (cov > 1.5).
pub fn q39b(year: i32, moy: i32) -> String {
    format!(
        "SELECT inv1.wsk, inv1.isk, inv1.moy, inv1.mean, inv1.stdev, \
                inv2.moy m2, inv2.mean mean2, inv2.stdev stdev2 \
         FROM {inv1} inv1 \
         JOIN {inv2} inv2 ON inv1.isk = inv2.isk AND inv1.wsk = inv2.wsk \
         WHERE inv1.stdev / inv1.mean > 1.0 AND inv2.stdev / inv2.mean > 1.0 \
           AND inv1.stdev / inv1.mean > 1.5 \
         ORDER BY inv1.wsk, inv1.isk",
        inv1 = inv_block(year, moy),
        inv2 = inv_block(year, moy + 1),
    )
}
