//! What a `MemTable` keeps resident per row. The table holds its rows once,
//! as typed columns: an integer cell is its 8 bytes plus a null bit, with
//! no per-row `Value`s and no second, cached copy. The allocator below
//! counts the bytes live on the heap; this binary holds one test, so
//! nothing else allocates while it measures.

use shc_engine::datasource::{partition_rows, TableProvider};
use shc_engine::prelude::{MemTable, Row};
use shc_engine::schema::{Field, Schema};
use shc_engine::value::{DataType, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn four_integer_columns_cost_at_most_40_bytes_a_row() {
    const ROWS: i64 = 12_000;
    let schema = Schema::new(
        ["a", "b", "c", "d"]
            .map(|name| Field::new(name, DataType::Int64))
            .to_vec(),
    );
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| Row::new((0..4).map(|c| Value::Int64(i * 4 + c)).collect()))
        .collect();

    let before = LIVE.load(Ordering::Relaxed);
    let table = MemTable::new(schema, 4);
    table.insert(&rows).unwrap();
    let resident = LIVE.load(Ordering::Relaxed) - before;
    let per_row = resident as f64 / ROWS as f64;
    assert!(per_row <= 40.0, "{resident} B resident: {per_row:.1} B/row");

    // And it holds every row.
    let mut seen: Vec<i64> = Vec::new();
    for part in table.scan(None, &[]).unwrap() {
        for row in partition_rows(&*part, "host").unwrap() {
            assert_eq!(row.len(), 4);
            seen.push(row.get(0).as_i64().unwrap());
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, (0..ROWS).map(|i| i * 4).collect::<Vec<_>>());
}
