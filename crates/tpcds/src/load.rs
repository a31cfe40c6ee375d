//! Loaders: move generated data into the engine (as in-memory tables) or
//! into the HBase substrate through the SHC write path, and register the
//! query-facing tables (SHC relations or the generic baseline) with a
//! session.

use crate::gen::Generator;
use crate::tables::Table;
use shc_core::catalog::HBaseTableCatalog;
use shc_core::conf::SHCConf;
use shc_core::error::Result;
use shc_core::generic::GenericHBaseRelation;
use shc_core::relation::HBaseRelation;
use shc_core::writer::write_rows;
use shc_engine::memtable::MemTable;
use shc_engine::session::Session;
use shc_kvstore::cluster::HBaseCluster;
use std::sync::Arc;

/// Which provider to register for reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provider {
    /// SHC with all optimizations (per the supplied conf).
    Shc,
    /// The paper's generic-data-source baseline.
    Generic,
}

/// Load every listed table into the cluster (creating pre-split tables)
/// and register providers with the session. Returns bytes written.
pub fn load_into_hbase(
    session: &Arc<Session>,
    cluster: &Arc<HBaseCluster>,
    generator: &Generator,
    tables: &[Table],
    coder: &str,
    conf: &SHCConf,
    provider: Provider,
) -> Result<u64> {
    let mut total = 0u64;
    for &table in tables {
        let catalog = Arc::new(HBaseTableCatalog::parse_simple(&table.catalog_json(coder))?);
        let rows = generator.rows(table);
        // Big fact tables get more regions.
        let regions = if rows.len() > 500 {
            cluster.num_servers().max(2)
        } else {
            1
        };
        let write_conf = conf.clone().with_new_table_regions(regions);
        total += write_rows(cluster, &catalog, &write_conf, &rows)?;
        match provider {
            Provider::Shc => {
                let relation = HBaseRelation::new(Arc::clone(cluster), catalog, conf.clone());
                session.register_table(table.name(), relation);
            }
            Provider::Generic => {
                let relation = GenericHBaseRelation::new(Arc::clone(cluster), catalog);
                session.register_table(table.name(), relation);
            }
        }
    }
    Ok(total)
}

/// Register the tables as plain in-memory engine tables (no HBase) — used
/// to validate query results against a reference execution. A table whose
/// catalog row key is one column declares that column its unique key, as
/// `HBaseRelation` does.
pub fn load_into_memory(
    session: &Arc<Session>,
    generator: &Generator,
    tables: &[Table],
    partitions: usize,
) {
    for &table in tables {
        let rows = generator.rows(table);
        let mut provider = MemTable::with_rows(table.schema(), rows, partitions.max(1));
        let catalog = HBaseTableCatalog::parse_simple(&table.catalog_json("PrimitiveType"))
            .expect("every table's catalog parses");
        if let [key] = catalog.row_key[..] {
            provider = provider
                .with_unique_key(&catalog.columns[key].name)
                .expect("generated row keys are unique");
        }
        session.register_table(table.name(), Arc::new(provider));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Scale;
    use crate::queries;
    use shc_kvstore::cluster::ClusterConfig;

    #[test]
    fn q39a_matches_between_memory_and_hbase() {
        // Scale matters here: at Scale::tiny() most (item, warehouse, month)
        // groups hold a single inventory sample, STDDEV_SAMP of one sample
        // is NULL, and q39's cov predicate selects nothing. The paper's
        // smallest sweep point gives every group a handful of samples.
        let generator = Generator::new(Scale::from_gb(5.0), 11);

        // Reference: in-memory tables.
        let mem_session = Session::new_default();
        load_into_memory(&mem_session, &generator, &Table::Q39_TABLES, 4);
        let expected = mem_session
            .sql(&queries::q39a(2001, 1))
            .unwrap()
            .collect()
            .unwrap();

        // Under test: the full SHC path over the kv store.
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 3,
            ..Default::default()
        });
        let shc_session = Session::new_default();
        load_into_hbase(
            &shc_session,
            &cluster,
            &generator,
            &Table::Q39_TABLES,
            "PrimitiveType",
            &SHCConf::default(),
            Provider::Shc,
        )
        .unwrap();
        let got = shc_session
            .sql(&queries::q39a(2001, 1))
            .unwrap()
            .collect()
            .unwrap();

        assert!(!expected.is_empty(), "query should select some rows");
        assert_rows_approx_eq(&got, &expected);
    }

    /// Exact equality on everything except Float64, which is compared with
    /// a relative tolerance: the two plans partition the data differently,
    /// so floating-point aggregates accumulate in different orders and may
    /// differ in the last ulp.
    fn assert_rows_approx_eq(got: &[shc_engine::row::Row], expected: &[shc_engine::row::Row]) {
        use shc_engine::value::Value;
        assert_eq!(got.len(), expected.len(), "row counts differ");
        for (i, (g, e)) in got.iter().zip(expected).enumerate() {
            assert_eq!(g.len(), e.len(), "row {i} arity differs");
            for (j, (gv, ev)) in g.values.iter().zip(&e.values).enumerate() {
                match (gv, ev) {
                    (Value::Float64(a), Value::Float64(b)) => {
                        let tol = 1e-9 * b.abs().max(1.0);
                        assert!((a - b).abs() <= tol, "row {i} col {j}: {a} vs {b}");
                    }
                    _ => assert_eq!(gv, ev, "row {i} col {j}"),
                }
            }
        }
    }

    #[test]
    fn generic_baseline_agrees_too() {
        let generator = Generator::new(Scale::tiny(), 12);
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 2,
            ..Default::default()
        });
        let shc_session = Session::new_default();
        load_into_hbase(
            &shc_session,
            &cluster,
            &generator,
            &Table::Q39_TABLES,
            "PrimitiveType",
            &SHCConf::default(),
            Provider::Shc,
        )
        .unwrap();

        // Register the generic providers over the SAME cluster data under
        // a second session.
        let generic_session = Session::new_default();
        for table in Table::Q39_TABLES {
            let catalog = Arc::new(
                HBaseTableCatalog::parse_simple(&table.catalog_json("PrimitiveType")).unwrap(),
            );
            let relation = GenericHBaseRelation::new(Arc::clone(&cluster), catalog);
            generic_session.register_table(table.name(), relation);
        }

        let q = queries::q39b(2001, 1);
        let a = shc_session.sql(&q).unwrap().collect().unwrap();
        let b = generic_session.sql(&q).unwrap().collect().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn q38_runs_end_to_end() {
        let generator = Generator::new(Scale::tiny(), 13);
        let session = Session::new_default();
        load_into_memory(
            &session,
            &generator,
            &[Table::StoreSales, Table::DateDim, Table::Customer],
            2,
        );
        let rows = session.sql(&queries::q38(2001)).unwrap().collect().unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].get(0).as_i64().unwrap() > 0);
    }
}
