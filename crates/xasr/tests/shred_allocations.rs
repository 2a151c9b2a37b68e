//! Shredding allocates next to nothing beyond what parsing allocates: the
//! records of every index are encoded into reused buffers and sorted in
//! one arena per index. Counts are per thread and exact for a given input,
//! so the gate repeats run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xmldb_datagen::{generate_dblp, DblpConfig};
use xmldb_storage::Env;
use xmldb_xml::{EventReader, ParseOptions};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations and
/// reallocations.
struct Counting;

fn count() {
    // A thread being torn down may allocate after its counter is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments, so
// `System`'s guarantees hold; counting touches only a thread-local `Cell`
// with a constant initializer, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn shredding_allocates_at_most_half_an_allocation_per_node_beyond_parsing() {
    // The `ingest-durable`-sized fragment: 13 341 bytes, 818 nodes.
    let xml = generate_dblp(&DblpConfig {
        articles: 35,
        inproceedings: 27,
        seed: 30,
        ..DblpConfig::default()
    });
    let parse = allocations(|| {
        let mut reader = EventReader::new(&xml, ParseOptions::default());
        while reader.next_event().unwrap().is_some() {}
    });
    let env = Env::memory();
    let mut nodes = 0;
    let shred = allocations(|| {
        nodes = xmldb_xasr::shred_document(&env, "f", &xml)
            .unwrap()
            .stats()
            .node_count;
    });
    assert_eq!(nodes, 818);
    let per_node = (shred - parse) as f64 / nodes as f64;
    println!("parse {parse}, shred {shred}: {per_node:.2} allocations per node beyond parsing");
    assert!(
        per_node <= 0.5,
        "{per_node:.2} allocations per node beyond parsing (parse {parse}, shred {shred})"
    );
}
