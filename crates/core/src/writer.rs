//! The DataFrame → HBase write path (paper §IV.B, Code 2).
//!
//! `save` creates the target table on demand — pre-split into
//! `HBaseTableCatalog.newTable` regions using split keys sampled from the
//! incoming data — then encodes every row through the catalog's codecs and
//! writes region-batched Puts.

use crate::catalog::HBaseTableCatalog;
use crate::conf::SHCConf;
use crate::conn_cache::ConnectionCache;
use crate::error::{Result, ShcError};
use crate::relation::ConnectionLease;
use crate::rowkey::encode_rowkey;
use shc_engine::row::Row;
use shc_engine::value::Value;
use shc_kvstore::cluster::HBaseCluster;
use shc_kvstore::types::{FamilyDescriptor, Put, TableDescriptor};
use std::sync::Arc;

/// Puts per client flush. Models HBase's BufferedMutator, whose default
/// 2 MB buffer holds thousands of small puts.
const WRITE_BATCH: usize = 2048;

/// Write engine rows (positionally matching the catalog schema) into the
/// catalog's HBase table, creating it first if needed. Returns payload
/// bytes written.
pub fn write_rows(
    cluster: &Arc<HBaseCluster>,
    catalog: &HBaseTableCatalog,
    conf: &SHCConf,
    rows: &[Row],
) -> Result<u64> {
    ensure_table(cluster, catalog, conf, rows)?;
    let token = match (&conf.security, &cluster.security) {
        (Some(sec), Some(service)) => Some(
            service
                .obtain_token(&sec.principal, &sec.keytab)
                .map_err(|e| ShcError::Security(e.to_string()))?,
        ),
        (None, Some(_)) => {
            return Err(ShcError::Security(
                "cluster is secure but connector security is disabled".into(),
            ))
        }
        _ => None,
    };
    // Leased for this call only: the guard drops on return, so the cache's
    // idle eviction can still reclaim the connection between writes.
    let lease = ConnectionLease::acquire(&ConnectionCache::global(), cluster, token, conf);
    let table = lease.connection().table(catalog.table.clone());

    let width = catalog.columns.len();
    let mut bytes = 0u64;
    let mut batch: Vec<Put> = Vec::with_capacity(WRITE_BATCH);
    for row in rows {
        if row.len() != width {
            return Err(ShcError::Codec(format!(
                "row has {} values, catalog expects {width}",
                row.len()
            )));
        }
        let put = encode_put(catalog, row)?;
        bytes += put.payload_bytes() as u64;
        batch.push(put);
        if batch.len() >= WRITE_BATCH {
            table.put_batch(std::mem::take(&mut batch))?;
        }
    }
    if !batch.is_empty() {
        table.put_batch(batch)?;
    }
    Ok(bytes)
}

/// Build the Put for one row: the composite row key plus one cell per
/// non-null value column.
pub fn encode_put(catalog: &HBaseTableCatalog, row: &Row) -> Result<Put> {
    let key_values: Vec<Value> = catalog
        .row_key
        .iter()
        .map(|&i| row.get(i).clone())
        .collect();
    let key = encode_rowkey(catalog, &key_values)?;
    let mut put = Put::new(key);
    for (idx, col) in catalog.columns.iter().enumerate() {
        if col.is_rowkey() {
            continue;
        }
        let value = row.get(idx);
        if value.is_null() {
            continue; // HBase stores no cell for NULL
        }
        let encoded = col.codec.encode(value, col.data_type)?;
        put = put.add(
            col.family.as_bytes().to_vec(),
            col.qualifier.as_bytes().to_vec(),
            encoded,
        );
    }
    Ok(put)
}

/// Create the table when missing. With `new_table_regions >= 2` the key
/// space is pre-split using split keys sampled from the rows being
/// written; otherwise a single region is created.
fn ensure_table(
    cluster: &Arc<HBaseCluster>,
    catalog: &HBaseTableCatalog,
    conf: &SHCConf,
    rows: &[Row],
) -> Result<()> {
    if cluster.master.table_exists(&catalog.table) {
        return Ok(());
    }
    let mut descriptor = TableDescriptor::new(catalog.table.clone());
    for family in catalog.families() {
        descriptor = descriptor.with_family(
            FamilyDescriptor::new(family.as_bytes().to_vec())
                .with_max_versions(conf.max_versions.max(3)),
        );
    }
    if conf.new_table_regions >= 2 && !rows.is_empty() {
        descriptor =
            descriptor.with_split_keys(sample_split_keys(catalog, rows, conf.new_table_regions)?);
    }
    cluster.master.create_table(descriptor)?;
    Ok(())
}

/// Evenly-spaced quantile split keys from the data's encoded row keys.
fn sample_split_keys(
    catalog: &HBaseTableCatalog,
    rows: &[Row],
    regions: usize,
) -> Result<Vec<bytes::Bytes>> {
    let mut keys: Vec<Vec<u8>> = rows
        .iter()
        .map(|row| {
            let key_values: Vec<Value> = catalog
                .row_key
                .iter()
                .map(|&i| row.get(i).clone())
                .collect();
            encode_rowkey(catalog, &key_values)
        })
        .collect::<Result<_>>()?;
    keys.sort();
    keys.dedup();
    let mut splits = Vec::new();
    for i in 1..regions {
        let idx = i * keys.len() / regions;
        if idx > 0 && idx < keys.len() {
            let key = bytes::Bytes::from(keys[idx].clone());
            if splits.last() != Some(&key) {
                splits.push(key);
            }
        }
    }
    Ok(splits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::actives_catalog_json;
    use shc_kvstore::client::Connection;
    use shc_kvstore::cluster::ClusterConfig;
    use shc_kvstore::types::{Get, Scan};

    fn catalog() -> HBaseTableCatalog {
        HBaseTableCatalog::parse_simple(actives_catalog_json()).unwrap()
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Utf8(format!("row{i:03}")),
                    Value::Int8((i % 100) as i8),
                    Value::Utf8(format!("/p/{i}")),
                    Value::Float64(i as f64),
                    Value::Timestamp(i as i64),
                ])
            })
            .collect()
    }

    #[test]
    fn write_creates_table_with_presplit_regions() {
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 3,
            ..Default::default()
        });
        let catalog = catalog();
        let conf = SHCConf::default().with_new_table_regions(5);
        let bytes = write_rows(&cluster, &catalog, &conf, &sample_rows(100)).unwrap();
        assert!(bytes > 0);
        let regions = cluster.master.regions_of(&catalog.table).unwrap();
        assert_eq!(regions.len(), 5);
        // Every row readable.
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(catalog.table.clone());
        assert_eq!(table.scan(&Scan::new()).unwrap().len(), 100);
    }

    #[test]
    fn null_values_store_no_cell() {
        let cluster = HBaseCluster::start_default();
        let catalog = catalog();
        let mut rows = sample_rows(1);
        rows[0].values[2] = Value::Null; // visit-pages
        write_rows(&cluster, &catalog, &SHCConf::default(), &rows).unwrap();
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(catalog.table.clone());
        let row = table.get(Get::new("row000")).unwrap();
        assert!(row.value(b"cf2", b"col2").is_none());
        assert!(row.value(b"cf3", b"col3").is_some());
    }

    #[test]
    fn wrong_arity_rejected() {
        let cluster = HBaseCluster::start_default();
        let catalog = catalog();
        let err = write_rows(
            &cluster,
            &catalog,
            &SHCConf::default(),
            &[Row::new(vec![Value::Int32(1)])],
        )
        .unwrap_err();
        assert!(err.to_string().contains("values"));
    }

    #[test]
    fn existing_table_is_appended() {
        let cluster = HBaseCluster::start_default();
        let catalog = catalog();
        let conf = SHCConf::default();
        write_rows(&cluster, &catalog, &conf, &sample_rows(10)).unwrap();
        write_rows(&cluster, &catalog, &conf, &sample_rows(10)).unwrap(); // overwrite same keys
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(catalog.table.clone());
        // Same keys: still 10 logical rows.
        assert_eq!(table.scan(&Scan::new()).unwrap().len(), 10);
    }

    #[test]
    fn repeated_writes_share_one_cached_connection() {
        let cluster = HBaseCluster::start_default();
        let catalog = catalog();
        let conf = SHCConf::default();
        let before = cluster.metrics.snapshot().connections_created;
        for _ in 0..4 {
            write_rows(&cluster, &catalog, &conf, &sample_rows(10)).unwrap();
        }
        assert_eq!(cluster.metrics.snapshot().connections_created, before + 1);
        // No lease outlives a call: the idle pass can reclaim the entry
        // (other tests' clusters may be reclaimed with it).
        assert!(ConnectionCache::global().evict_idle(std::time::Duration::ZERO) >= 1);
        // The ablation switch still bypasses the cache.
        let uncached = conf.without_connection_cache();
        write_rows(&cluster, &catalog, &uncached, &sample_rows(10)).unwrap();
        write_rows(&cluster, &catalog, &uncached, &sample_rows(10)).unwrap();
        assert_eq!(cluster.metrics.snapshot().connections_created, before + 3);
    }

    #[test]
    fn split_keys_are_quantiles() {
        let catalog = catalog();
        let splits = sample_split_keys(&catalog, &sample_rows(100), 4).unwrap();
        assert_eq!(splits.len(), 3);
        assert!(splits.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn encode_put_roundtrip_values() {
        let catalog = catalog();
        let rows = sample_rows(1);
        let put = encode_put(&catalog, &rows[0]).unwrap();
        assert_eq!(put.row.as_ref(), b"row000");
        assert_eq!(put.columns.len(), 4);
    }
}
