//! The evaluation queries, expressed in the engine's SQL dialect.
//!
//! q39 computes, per (warehouse, item, month), the mean and coefficient of
//! variation (stdev/mean) of `inv_quantity_on_hand`, self-joins
//! consecutive months, and keeps item/warehouse pairs whose stock level is
//! unstable (cov ≥ 1). q39a reports them; q39b additionally demands
//! cov ≥ 1.5 in the first month. The official formulation uses a WITH
//! clause; here the inner aggregation is a derived table, which is the
//! same plan shape.

mod q39;
pub use q39::{q39a, q39b};

/// TPC-DS q38 (adapted): distinct customers with purchases in a quarter.
/// The official query intersects three channels; the store channel's
/// distinct-count core is kept, which exercises the same
/// scan→join→distinct→count pipeline.
pub fn q38(year: i32) -> String {
    format!(
        "SELECT COUNT(*) \
         FROM (SELECT DISTINCT c_last_name, c_first_name, d_date \
               FROM store_sales \
               JOIN date_dim ON ss_sold_date_sk = d_date_sk \
               JOIN customer ON ss_customer_sk = c_customer_sk \
               WHERE d_year = {year} AND d_moy BETWEEN 1 AND 3) hot_customers"
    )
}

/// A simple selective scan used by microbenchmarks: a row-key range plus a
/// value predicate on `inventory`.
pub fn inventory_range_scan(max_date_sk: i64, min_qty: i32) -> String {
    format!(
        "SELECT inv_item_sk, inv_quantity_on_hand \
         FROM inventory \
         WHERE inv_date_sk <= {max_date_sk} AND inv_quantity_on_hand >= {min_qty}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_engine::parser::parse;

    #[test]
    fn q39a_parses() {
        let q = parse(&q39a(2001, 1)).unwrap();
        assert_eq!(q.joins.len(), 1); // outer self-join
        assert!(q.where_clause.is_some());
        assert_eq!(q.order_by.len(), 2);
    }

    #[test]
    fn q39b_parses_with_extra_predicate() {
        let q = parse(&q39b(2001, 1)).unwrap();
        let text = format!("{}", q.where_clause.unwrap());
        assert!(text.contains("1.5"));
    }

    #[test]
    fn q38_parses_with_distinct_subquery() {
        let q = parse(&q38(2001)).unwrap();
        match &q.from {
            shc_engine::parser::TableFactor::Derived { subquery, alias } => {
                assert!(subquery.distinct);
                assert_eq!(alias, "hot_customers");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inner_block_groups_by_four_columns() {
        let block = q39::inv_block(2001, 1);
        let q = parse(&block[1..block.len() - 1]).unwrap();
        assert_eq!(q.group_by.len(), 4);
        assert_eq!(q.joins.len(), 3);
    }

    #[test]
    fn range_scan_parses() {
        assert!(parse(&inventory_range_scan(30, 100)).is_ok());
    }
}
