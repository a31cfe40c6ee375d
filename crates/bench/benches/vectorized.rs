//! Aggregation-over-scan microbenchmark: one seeded grouped aggregation
//! over an in-memory scan at two table sizes — batch construction,
//! dictionary group keys and typed accumulator updates, with no store
//! behind them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shc_bench::{vectorized_bench_session, VECTORIZED_AGG_SQL};

fn bench_vectorized_agg(c: &mut Criterion) {
    let mut group = c.benchmark_group("agg_over_scan");
    for &n_rows in &[20_000usize, 80_000] {
        let session = vectorized_bench_session(n_rows, 2018);
        group.bench_with_input(
            BenchmarkId::new("vectorized", n_rows),
            &session,
            |b, session| {
                b.iter(|| {
                    session
                        .sql(VECTORIZED_AGG_SQL)
                        .expect("query analyzes")
                        .collect()
                        .expect("query executes")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_vectorized_agg);
criterion_main!(benches);
