//! Property-based tests on the connector's core invariants:
//!
//! * codecs round-trip arbitrary values, and order-preserving codecs keep
//!   byte order aligned with value order;
//! * composite row keys round-trip and sort by their dimension tuples;
//! * `RangeSet` behaves like a set of keys under insert/union/intersect
//!   (checked against a brute-force model);
//! * the pushdown planner is *sound*: for random predicates, the SHC scan
//!   (pruning + server filters + engine residue) returns exactly the rows
//!   a naive full-scan-and-filter returns;
//! * cell blocks, the replies of read RPCs, round-trip any rows, and no
//!   truncated, damaged or arbitrary block panics the decoder.

use proptest::prelude::*;
use shc::prelude::*;
use std::sync::Arc;

// ----------------------------------------------------------------------
// Codec properties
// ----------------------------------------------------------------------

fn codec_for(coder: TableCoder) -> Arc<dyn FieldCodec> {
    coder.codec()
}

proptest! {
    #[test]
    fn primitive_codec_roundtrips_i64(v in any::<i64>()) {
        let c = codec_for(TableCoder::PrimitiveType);
        let bytes = c.encode(&Value::Int64(v), DataType::Int64).unwrap();
        prop_assert_eq!(c.decode(&bytes, DataType::Int64).unwrap(), Value::Int64(v));
    }

    #[test]
    fn primitive_codec_preserves_i64_order(a in any::<i64>(), b in any::<i64>()) {
        let c = codec_for(TableCoder::PrimitiveType);
        let ea = c.encode(&Value::Int64(a), DataType::Int64).unwrap();
        let eb = c.encode(&Value::Int64(b), DataType::Int64).unwrap();
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
    }

    #[test]
    fn primitive_codec_preserves_f64_order(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        let c = codec_for(TableCoder::PrimitiveType);
        let ea = c.encode(&Value::Float64(a), DataType::Float64).unwrap();
        let eb = c.encode(&Value::Float64(b), DataType::Float64).unwrap();
        if a < b {
            prop_assert!(ea <= eb); // -0.0/0.0 may tie
        } else if a > b {
            prop_assert!(ea >= eb);
        }
    }

    #[test]
    fn phoenix_matches_primitive_on_numerics(v in any::<i32>()) {
        let p = codec_for(TableCoder::Phoenix);
        let n = codec_for(TableCoder::PrimitiveType);
        prop_assert_eq!(
            p.encode(&Value::Int32(v), DataType::Int32).unwrap(),
            n.encode(&Value::Int32(v), DataType::Int32).unwrap()
        );
    }

    #[test]
    fn avro_codec_roundtrips_strings(s in ".{0,64}") {
        let c = codec_for(TableCoder::Avro);
        let bytes = c.encode(&Value::Utf8(s.clone()), DataType::Utf8).unwrap();
        prop_assert_eq!(c.decode(&bytes, DataType::Utf8).unwrap(), Value::Utf8(s));
    }

    #[test]
    fn all_codecs_roundtrip_doubles(v in any::<f64>()) {
        prop_assume!(!v.is_nan());
        for coder in [TableCoder::PrimitiveType, TableCoder::Phoenix, TableCoder::Avro] {
            let c = codec_for(coder);
            let bytes = c.encode(&Value::Float64(v), DataType::Float64).unwrap();
            prop_assert_eq!(
                c.decode(&bytes, DataType::Float64).unwrap(),
                Value::Float64(v)
            );
        }
    }
}

// ----------------------------------------------------------------------
// Composite row keys
// ----------------------------------------------------------------------

fn composite_catalog() -> HBaseTableCatalog {
    HBaseTableCatalog::parse_simple(
        r#"{
        "table":{"namespace":"default","name":"t"},
        "rowkey":"k1:k2",
        "columns":{
            "k1":{"cf":"rowkey","col":"k1","type":"string"},
            "k2":{"cf":"rowkey","col":"k2","type":"bigint"},
            "v":{"cf":"cf","col":"v","type":"int"}
        }}"#,
    )
    .unwrap()
}

proptest! {
    #[test]
    fn composite_rowkey_roundtrips(
        s in "[a-zA-Z0-9_-]{0,24}",
        n in any::<i64>(),
    ) {
        let catalog = composite_catalog();
        let values = vec![Value::Utf8(s), Value::Int64(n)];
        let key = shc::core::rowkey::encode_rowkey(&catalog, &values).unwrap();
        prop_assert_eq!(
            shc::core::rowkey::decode_rowkey(&catalog, &key).unwrap(),
            values
        );
    }

    #[test]
    fn composite_rowkey_orders_by_tuple(
        s1 in "[a-z]{1,8}", n1 in any::<i64>(),
        s2 in "[a-z]{1,8}", n2 in any::<i64>(),
    ) {
        let catalog = composite_catalog();
        let k1 = shc::core::rowkey::encode_rowkey(
            &catalog, &[Value::Utf8(s1.clone()), Value::Int64(n1)]).unwrap();
        let k2 = shc::core::rowkey::encode_rowkey(
            &catalog, &[Value::Utf8(s2.clone()), Value::Int64(n2)]).unwrap();
        // Byte order must agree with tuple order whenever neither string
        // prefixes the other (prefixing strings interleave with the
        // separator, which only total-orders per dimension).
        if s1 != s2 && !s1.starts_with(&s2) && !s2.starts_with(&s1) {
            prop_assert_eq!(s1.cmp(&s2), k1.cmp(&k2));
        } else if s1 == s2 {
            prop_assert_eq!(n1.cmp(&n2), k1.cmp(&k2));
        }
    }
}

// ----------------------------------------------------------------------
// RangeSet vs brute-force model
// ----------------------------------------------------------------------

/// Model a range by the set of single-byte keys it admits (domain 0..=63).
fn model(ranges: &RangeSet) -> Vec<u8> {
    (0u8..64).filter(|k| ranges.contains(&[*k])).collect()
}

fn arb_range() -> impl Strategy<Value = shc::kvstore::filter::RowRange> {
    (0u8..64, 0u8..=64).prop_map(|(a, b)| {
        let stop: &[u8] = if b >= 64 {
            &[]
        } else {
            std::slice::from_ref(&b)
        };
        shc::kvstore::filter::RowRange::new(vec![a], stop.to_vec())
    })
}

proptest! {
    #[test]
    fn rangeset_insert_matches_model(ranges in prop::collection::vec(arb_range(), 0..8)) {
        let mut set = RangeSet::none();
        let mut expected: std::collections::BTreeSet<u8> = Default::default();
        for r in ranges {
            for k in 0u8..64 {
                if r.contains(&[k]) {
                    expected.insert(k);
                }
            }
            set.insert(r);
        }
        prop_assert_eq!(model(&set), expected.into_iter().collect::<Vec<_>>());
        // Invariant: ranges sorted, non-overlapping, non-empty.
        let rs = set.ranges();
        for w in rs.windows(2) {
            prop_assert!(w[0].start < w[1].start);
            prop_assert!(!w[0].is_unbounded_stop());
            prop_assert!(w[0].stop < w[1].start || w[0].stop == w[1].start.slice(0..0) || w[0].stop <= w[1].start);
        }
    }

    #[test]
    fn rangeset_intersect_matches_model(
        a in prop::collection::vec(arb_range(), 0..6),
        b in prop::collection::vec(arb_range(), 0..6),
    ) {
        let mut sa = RangeSet::none();
        for r in a { sa.insert(r); }
        let mut sb = RangeSet::none();
        for r in b { sb.insert(r); }
        let inter = sa.intersect(&sb);
        let ma: std::collections::BTreeSet<u8> = model(&sa).into_iter().collect();
        let mb: std::collections::BTreeSet<u8> = model(&sb).into_iter().collect();
        let expected: Vec<u8> = ma.intersection(&mb).copied().collect();
        prop_assert_eq!(model(&inter), expected);
    }

    #[test]
    fn rangeset_union_matches_model(
        a in prop::collection::vec(arb_range(), 0..6),
        b in prop::collection::vec(arb_range(), 0..6),
    ) {
        let mut sa = RangeSet::none();
        for r in a { sa.insert(r); }
        let mut sb = RangeSet::none();
        for r in b { sb.insert(r); }
        let ma: std::collections::BTreeSet<u8> = model(&sa).into_iter().collect();
        let mb: std::collections::BTreeSet<u8> = model(&sb).into_iter().collect();
        let expected: Vec<u8> = ma.union(&mb).copied().collect();
        prop_assert_eq!(model(&sa.union(&sb)), expected);
    }
}

// ----------------------------------------------------------------------
// Pushdown soundness: SHC == naive filtering, for random predicates
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Pred {
    KeyCmp(u8, i64), // op index, literal
    ValCmp(u8, i64),
    KeyIn(Vec<i64>),
    NotIn(Vec<i64>),
    Or(Box<Pred>, Box<Pred>),
    And(Box<Pred>, Box<Pred>),
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        (0u8..5, -5i64..45).prop_map(|(op, lit)| Pred::KeyCmp(op, lit)),
        (0u8..5, -5i64..45).prop_map(|(op, lit)| Pred::ValCmp(op, lit)),
        prop::collection::vec(-5i64..45, 1..4).prop_map(Pred::KeyIn),
        prop::collection::vec(-5i64..45, 1..4).prop_map(Pred::NotIn),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Pred::And(Box::new(a), Box::new(b))),
        ]
    })
}

fn pred_to_sql(p: &Pred) -> String {
    let op = |i: u8| ["=", "<", "<=", ">", ">="][i as usize];
    match p {
        Pred::KeyCmp(o, lit) => format!("id {} {lit}", op(*o)),
        Pred::ValCmp(o, lit) => format!("v {} {lit}", op(*o)),
        Pred::KeyIn(list) => format!(
            "id IN ({})",
            list.iter()
                .map(i64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ),
        Pred::NotIn(list) => format!(
            "v NOT IN ({})",
            list.iter()
                .map(i64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ),
        Pred::Or(a, b) => format!("({} OR {})", pred_to_sql(a), pred_to_sql(b)),
        Pred::And(a, b) => format!("({} AND {})", pred_to_sql(a), pred_to_sql(b)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn pushdown_is_sound_for_random_predicates(pred in arb_pred()) {
        let catalog = Arc::new(HBaseTableCatalog::parse_simple(
            r#"{
            "table":{"namespace":"default","name":"nums"},
            "rowkey":"id",
            "columns":{
                "id":{"cf":"rowkey","col":"id","type":"bigint"},
                "v":{"cf":"cf","col":"v","type":"bigint"}
            }}"#,
        ).unwrap());
        let rows: Vec<Row> = (0..40i64)
            .map(|i| Row::new(vec![Value::Int64(i), Value::Int64((i * 13) % 40)]))
            .collect();

        // Reference: in-memory engine.
        let reference = Session::new_default();
        reference.register_table(
            "nums",
            Arc::new(MemTable::with_rows(catalog.schema(), rows.clone(), 2)),
        );
        // Under test: SHC over the store, 3 regions.
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 3,
            ..Default::default()
        });
        write_rows(
            &cluster,
            &catalog,
            &SHCConf::default().with_new_table_regions(3),
            &rows,
        ).unwrap();
        let shc = Session::new_default();
        register_hbase_table(&shc, cluster, catalog, SHCConf::default(), "nums");

        let sql = format!("SELECT id, v FROM nums WHERE {} ORDER BY id", pred_to_sql(&pred));
        let expected = reference.sql(&sql).unwrap().collect().unwrap();
        let got = shc.sql(&sql).unwrap().collect().unwrap();
        prop_assert_eq!(got, expected, "query: {}", sql);
    }
}

// ----------------------------------------------------------------------
// Parser robustness: arbitrary input must never panic
// ----------------------------------------------------------------------

proptest! {
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,200}") {
        // Errors are fine; panics are not.
        let _ = shc::engine::parser::parse(&input);
    }

    #[test]
    fn parser_never_panics_on_sql_like_soup(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("SELECT"), Just("FROM"), Just("WHERE"), Just("GROUP"),
                Just("BY"), Just("JOIN"), Just("ON"), Just("AND"), Just("OR"),
                Just("NOT"), Just("IN"), Just("("), Just(")"), Just(","),
                Just("*"), Just("="), Just("<"), Just("a"), Just("t"),
                Just("1"), Just("'x'"), Just("CASE"), Just("WHEN"),
                Just("ORDER"), Just("LIMIT"), Just("AS"), Just("COUNT"),
            ],
            0..24,
        )
    ) {
        let sql = tokens.join(" ");
        let _ = shc::engine::parser::parse(&sql);
    }

    #[test]
    fn like_match_agrees_with_naive_model(
        pattern in "[ab%_]{0,8}",
        input in "[ab]{0,8}",
    ) {
        // Naive reference: expand LIKE into a regex-ish recursive check on
        // the reversed strings (different recursion order than the
        // implementation).
        fn model(p: &[u8], s: &[u8]) -> bool {
            match (p.last(), s.last()) {
                (None, None) => true,
                (None, Some(_)) => false,
                (Some(b'%'), _) => {
                    (0..=s.len()).any(|k| model(&p[..p.len() - 1], &s[..k]))
                }
                (Some(b'_'), Some(_)) => {
                    model(&p[..p.len() - 1], &s[..s.len() - 1])
                }
                (Some(c), Some(d)) if c == d => {
                    model(&p[..p.len() - 1], &s[..s.len() - 1])
                }
                _ => false,
            }
        }
        prop_assert_eq!(
            shc::engine::expr::like_match(&pattern, &input),
            model(pattern.as_bytes(), input.as_bytes()),
            "pattern={} input={}", pattern, input
        );
    }
}

// ----------------------------------------------------------------------
// Cell blocks, the reply of every read RPC: any rows round-trip exactly,
// and no damaged or arbitrary input panics or decodes past its end.
// ----------------------------------------------------------------------

mod cell_blocks {
    use super::*;
    use bytes::Bytes;
    use shc::kvstore::cellblock::{decode, visit_rows, CellBlockEncoder};
    use shc::kvstore::error::KvError;
    use shc::kvstore::types::{Cell, CellKey, CellType, RowResult};

    /// The block of `rows`, as a server would send them.
    fn encode(rows: &[RowResult]) -> Bytes {
        let mut block = CellBlockEncoder::default();
        for row in rows {
            block.push_row(&row.row, row.cells.iter().map(Cell::as_ref));
        }
        block.finish()
    }

    /// (family, qualifier, timestamp, seq, type, value): up to 6 × 80
    /// distinct names, `any::<u64>()` favours 0 and `u64::MAX`.
    type CellSpec = (u8, u8, u64, u64, u8, Vec<u8>);

    fn arb_rows() -> impl Strategy<Value = Vec<RowResult>> {
        let cell = (
            0u8..6,
            0u8..80,
            any::<u64>(),
            any::<u64>(),
            0u8..4,
            prop::collection::vec(any::<u8>(), 0..6),
        );
        // Keys over a three-letter alphabet share prefixes often; an empty
        // key with no cells is how a bulk get answers an absent row.
        let row = (
            prop::collection::vec(0u8..3, 0..4),
            prop::collection::vec(cell, 0..6),
        );
        prop::collection::vec(row, 0..12).prop_map(|rows| {
            rows.into_iter()
                .map(|(key, cells): (Vec<u8>, Vec<CellSpec>)| {
                    let row = Bytes::from(key);
                    let cells = cells
                        .into_iter()
                        .map(|(f, q, timestamp, seq, t, value)| Cell {
                            key: CellKey {
                                row: row.clone(),
                                family: Bytes::from(format!("f{f}")),
                                qualifier: Bytes::from(format!("q{q}")),
                                timestamp,
                                seq,
                                cell_type: [
                                    CellType::Put,
                                    CellType::Delete,
                                    CellType::DeleteColumn,
                                    CellType::DeleteFamily,
                                ][t as usize],
                            },
                            value: Bytes::from(value),
                        })
                        .collect();
                    RowResult { row, cells }
                })
                .collect()
        })
    }

    fn ok_or_corruption(decoded: &shc::kvstore::error::Result<Vec<RowResult>>) -> bool {
        matches!(decoded, Ok(_) | Err(KvError::Corruption(_)))
    }

    /// A cell as a comparison sees it: names, timestamp, seq, type, value.
    type Seen = (Vec<u8>, Vec<u8>, u64, u64, CellType, Vec<u8>);

    /// What the row visitor lends for `block`, copied out: each row's key
    /// and cells. Also checks that every dictionary index first appears one
    /// past the highest before it and always names the same pair.
    fn visited(block: &[u8]) -> shc::kvstore::error::Result<Vec<(Vec<u8>, Vec<Seen>)>> {
        let mut rows = Vec::new();
        let mut dictionary: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        visit_rows(block, |key, cells| {
            let mut seen = Vec::new();
            for cell in cells {
                let names = (
                    block[cell.family.clone()].to_vec(),
                    block[cell.qualifier.clone()].to_vec(),
                );
                if cell.column == dictionary.len() {
                    dictionary.push(names.clone());
                }
                assert_eq!(dictionary.get(cell.column), Some(&names));
                seen.push((
                    names.0,
                    names.1,
                    cell.timestamp,
                    cell.seq,
                    cell.cell_type,
                    block[cell.value.clone()].to_vec(),
                ));
            }
            rows.push((key.to_vec(), seen));
            Ok::<_, KvError>(())
        })?;
        Ok(rows)
    }

    fn as_seen(rows: Vec<RowResult>) -> Vec<(Vec<u8>, Vec<Seen>)> {
        rows.into_iter()
            .map(|row| {
                let cells = row.cells.iter().map(|c| {
                    assert_eq!(c.key.row, row.row);
                    let k = &c.key;
                    let names = (k.family.to_vec(), k.qualifier.to_vec());
                    (
                        names.0,
                        names.1,
                        k.timestamp,
                        k.seq,
                        k.cell_type,
                        c.value.to_vec(),
                    )
                });
                (row.row.to_vec(), cells.collect())
            })
            .collect()
    }

    proptest! {
        #[test]
        fn cell_blocks_round_trip_exactly(rows in arb_rows()) {
            prop_assert_eq!(decode(&encode(&rows)).unwrap(), rows);
        }

        #[test]
        fn truncated_cell_blocks_are_corruption(rows in arb_rows(), cut in any::<usize>()) {
            let block = encode(&rows);
            let decoded = decode(&block.slice(..cut % block.len()));
            prop_assert!(matches!(decoded, Err(KvError::Corruption(_))), "{:?}", decoded);
        }

        #[test]
        fn damaged_cell_blocks_never_panic(
            rows in arb_rows(),
            at in any::<usize>(),
            xor in 1u8..=255,
        ) {
            let mut bytes = encode(&rows).to_vec();
            let at = at % bytes.len();
            bytes[at] ^= xor;
            prop_assert!(ok_or_corruption(&decode(&Bytes::from(bytes))));
        }

        /// Whole, cut or damaged, a block reads the same through the row
        /// visitor as through `decode`: the same rows and cells, or
        /// `Corruption` from both.
        #[test]
        fn the_row_visitor_reads_what_decode_reads(
            rows in arb_rows(),
            truncate in any::<bool>(),
            cut in any::<usize>(),
            at in any::<usize>(),
            xor in 0u8..=255,
        ) {
            let mut bytes = encode(&rows).to_vec();
            let at = at % bytes.len();
            bytes[at] ^= xor;
            if truncate {
                bytes.truncate(cut % bytes.len());
            }
            let block = Bytes::from(bytes);
            match (visited(&block), decode(&block)) {
                (Ok(seen), Ok(decoded)) => prop_assert_eq!(seen, as_seen(decoded)),
                (Err(KvError::Corruption(_)), Err(KvError::Corruption(_))) => {}
                (seen, decoded) => prop_assert!(false, "visitor {:?}, decode {:?}", seen, decoded),
            }
            if xor == 0 && !truncate {
                prop_assert_eq!(visited(&block).unwrap(), as_seen(rows));
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic(
            rows in 0u32..4,
            tail in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let bytes = [&rows.to_le_bytes()[..], &tail[..]].concat();
            prop_assert!(ok_or_corruption(&decode(&Bytes::from(bytes))));
        }
    }
}

// ----------------------------------------------------------------------
// Durable-storage recovery properties: arbitrary truncation or corruption
// of WAL tails and store-file blocks never panics, never loses data before
// the damage point, and never silently returns wrong data.
// ----------------------------------------------------------------------

mod durability {
    use super::*;
    use shc::kvstore::metrics::ClusterMetrics;
    use shc::kvstore::storage::StorageEnv;
    use shc::kvstore::types::{Cell, CellKey, CellType};
    use shc::kvstore::wal::Wal;

    fn cell(row: &str, seq: u64, value: &str) -> Cell {
        Cell {
            key: CellKey {
                row: bytes::Bytes::copy_from_slice(row.as_bytes()),
                family: bytes::Bytes::from_static(b"cf"),
                qualifier: bytes::Bytes::from_static(b"q"),
                timestamp: 1000 + seq,
                seq,
                cell_type: CellType::Put,
            },
            value: bytes::Bytes::copy_from_slice(value.as_bytes()),
        }
    }

    /// Append `n` records to `wal`, returning `(seq, end offset)` of each:
    /// the segment file's length after its append, an oracle independent
    /// of the parser under test.
    fn append_records(wal: &Wal, n: usize, value: &str) -> Vec<(u64, u64)> {
        let path = wal.active_segment_path().unwrap();
        (0..n)
            .map(|i| {
                let seq = wal
                    .append_group(7, &[vec![cell(&format!("r{i:03}"), 0, value)]])
                    .unwrap();
                (seq, std::fs::metadata(&path).unwrap().len())
            })
            .collect()
    }

    fn recovered_seqs(env: &Arc<StorageEnv>, dir: std::path::PathBuf) -> Vec<u64> {
        let recovered = Wal::open(Arc::clone(env), dir).unwrap();
        let records = recovered.read_records().unwrap();
        records.into_iter().map(|r| r.seq).collect()
    }

    /// Append `n` records, remember each record's end offset, truncate the
    /// segment at an arbitrary byte, and recover with a fresh Wal: the
    /// survivors must be exactly the records that ended at or before the
    /// cut — a clean prefix, no panic, no partial record.
    fn check_wal_truncation(n: usize, value_len: usize, cut: usize) {
        let env = StorageEnv::temp(1 << 20, ClusterMetrics::new()).unwrap();
        let dir = env.root().join("wal");
        let wal = Wal::open(Arc::clone(&env), dir.clone()).unwrap();
        let extents = append_records(&wal, n, &"v".repeat(value_len));
        let path = wal.active_segment_path().unwrap();
        wal.close();

        let data = std::fs::read(&path).unwrap();
        let cut = cut % (data.len() + 1);
        std::fs::write(&path, &data[..cut]).unwrap();

        let replayed = recovered_seqs(&env, dir);
        let expected: Vec<u64> = extents
            .iter()
            .filter(|(_, end)| *end <= cut as u64)
            .map(|(seq, _)| *seq)
            .collect();
        assert_eq!(
            replayed,
            expected,
            "truncation at {cut}/{} must keep exactly the full records",
            data.len()
        );
    }

    /// Flip one byte anywhere in the segment: replay stops at the last
    /// record with a valid CRC chain and the survivors are a prefix of the
    /// original sequence. Records in blocks before the damaged one always
    /// survive.
    fn check_wal_corruption(n: usize, value_len: usize, at: usize, xor: u8) {
        let env = StorageEnv::temp(1 << 20, ClusterMetrics::new()).unwrap();
        let dir = env.root().join("wal");
        let wal = Wal::open(Arc::clone(&env), dir.clone()).unwrap();
        let extents = append_records(&wal, n, &"w".repeat(value_len));
        let path = wal.active_segment_path().unwrap();
        wal.close();

        let mut data = std::fs::read(&path).unwrap();
        let at = at % data.len();
        data[at] ^= xor;
        std::fs::write(&path, &data).unwrap();

        let replayed = recovered_seqs(&env, dir);
        let original: Vec<u64> = extents.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(
            &original[..replayed.len()],
            &replayed[..],
            "corrupting byte {at} must leave a prefix"
        );
        // No silent loss: everything that ended before the damaged 32K
        // block replays (parsing is sequential; damage in block k cannot
        // reach blocks before it).
        let block_start = (at / (32 * 1024) * (32 * 1024)) as u64;
        let must_survive = extents.iter().filter(|(_, e)| *e <= block_start).count();
        assert!(
            replayed.len() >= must_survive,
            "byte {at}: {} replayed, {must_survive} live in earlier blocks",
            replayed.len()
        );
    }

    /// A store file whose bytes were damaged anywhere must fail to open —
    /// every byte is covered by a block CRC, the meta CRC, or the footer
    /// geometry/magic checks. An undamaged file round-trips exactly.
    fn check_storefile_corruption(n_cells: usize, at: usize, xor: u8, truncate: bool) {
        use shc::kvstore::storefile::StoreFile;
        let env = StorageEnv::temp(1 << 20, ClusterMetrics::new()).unwrap();
        let cells: Vec<Cell> = (0..n_cells)
            .map(|i| cell(&format!("r{i:04}"), i as u64 + 1, &format!("value-{i}")))
            .collect();
        let sf = StoreFile::from_sorted(cells.clone()).unwrap();
        let path = env.root().join("sf.sst");
        sf.write_to(&env, &path, shc::kvstore::fault::FileOp::StoreFileWrite)
            .unwrap();

        let clean = StoreFile::open(&env, &path).unwrap();
        let reread: Vec<Cell> = (0..clean.num_blocks())
            .flat_map(|i| clean.block(i).cells().map(|c| c.to_cell()))
            .collect();
        assert_eq!(reread, cells, "clean open round-trips");

        let mut data = std::fs::read(&path).unwrap();
        let at = at % data.len();
        if truncate {
            data.truncate(at);
        } else {
            data[at] ^= xor;
        }
        std::fs::write(&path, &data).unwrap();
        assert!(
            StoreFile::open(&env, &path).is_err(),
            "damaged store file (at={at} truncate={truncate}) must not open"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn wal_truncation_recovers_exact_prefix(
            n in 1usize..40,
            value_len in 1usize..2000,
            cut in any::<usize>(),
        ) {
            check_wal_truncation(n, value_len, cut);
        }

        #[test]
        fn wal_corruption_never_panics_and_keeps_prefix(
            n in 1usize..40,
            value_len in 1usize..2000,
            at in any::<usize>(),
            xor in 1u8..=255,
        ) {
            check_wal_corruption(n, value_len, at, xor);
        }

        #[test]
        fn corrupt_storefile_never_opens(
            n_cells in 1usize..300,
            at in any::<usize>(),
            xor in 1u8..=255,
            truncate in any::<bool>(),
        ) {
            check_storefile_corruption(n_cells, at, xor, truncate);
        }
    }
}
