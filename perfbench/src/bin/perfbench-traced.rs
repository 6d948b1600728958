//! The traced binary: per-layer metrics with the engine's phase
//! profiler attached, and a counting global allocator that only this
//! binary installs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One counter per cache line, so engine worker threads do not contend
/// on a shared line when they allocate at the same time.
#[repr(align(128))]
struct Shard(AtomicU64);

const SHARDS: usize = 16;
static COUNTS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised without a destructor, so reading it never
    // allocates (it is read from inside the allocator).
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count_one() {
    let shard = MY_SHARD.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
        }
        s.get()
    });
    COUNTS[shard].0.fetch_add(1, Ordering::Relaxed);
}

/// Counts allocation events (alloc, alloc_zeroed, realloc) and forwards
/// every call to the system allocator.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`;
// the counter is a relaxed atomic with no effect on allocation.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards the caller's layout to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations for `layout` are exactly
        // `System::alloc`'s, and `layout` is forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's layout to `System` unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // `layout`, which means from `System`, where it is forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; all three arguments pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller guarantees `ptr`/`layout` describe a live
    // allocation from this allocator, i.e. from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` is a live `System` allocation with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    COUNTS.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
}

fn main() {
    std::process::exit(perfbench::cli::main(Some(allocations)));
}
