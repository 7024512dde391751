//! The engine's per-cycle loop must not touch the heap allocator: every
//! buffer it needs (schedule views, tick outcomes, trace-row core states,
//! DRAM queue, SB split table) is preallocated before cycle 0. This test
//! pins that property with a counting `#[global_allocator]`: two chain
//! workloads whose collections differ by thousands of simulated cycles
//! must allocate the *same* number of times, because all allocation
//! happens in setup, which is identical.
//!
//! Only the measuring thread is counted, and only while it measures:
//! libtest's main thread allocates on its own schedule (result channel,
//! timers, output capture) while the test thread runs, which used to
//! leak a handful of allocations into one side of a comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hwgc_core::{GcConfig, SignalTrace, SimCollector};
use hwgc_heap::{GraphBuilder, Heap};
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig};

struct CountingAlloc;

thread_local! {
    /// This thread's allocation count while it is inside [`counting`],
    /// `None` otherwise. `const`-initialised and without a destructor:
    /// touching it from inside the allocator neither allocates nor
    /// registers anything.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Count one allocation if this thread is inside [`counting`].
fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get().map(|n| n + 1)));
}

/// Run `f`, returning how many times this thread allocated meanwhile.
fn counting<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|allocs| allocs.set(Some(0)));
    let out = f();
    let allocs = ALLOCS.with(|allocs| allocs.take()).expect("armed above");
    (allocs, out)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A serial chain of `len` objects of one pointer and `delta` data words
/// — no parallelism, so cycles scale linearly with `len` while the
/// engine's buffers do not.
fn chain(len: usize, delta: u32) -> Heap {
    let mut heap = Heap::new(16 * len as u32 + 64);
    let mut b = GraphBuilder::new(&mut heap);
    let ids: Vec<_> = (0..len).map(|_| b.add(1, delta).unwrap()).collect();
    for w in ids.windows(2) {
        b.link(w[0], 0, w[1]);
    }
    b.root(ids[0]);
    heap
}

fn collect_counting(heap: &mut Heap, cfg: GcConfig) -> (u64, u64) {
    let (allocs, out) = counting(|| SimCollector::new(cfg).collect(heap));
    (allocs, out.stats.total_cycles)
}

#[test]
fn steady_state_cycles_do_not_allocate() {
    // Both loops are covered: the reference loop (fast-forward off, so
    // every simulated cycle runs the loop body) and the event-driven
    // one, whose park/wake machinery — wake lists, wake feed,
    // retirement calendar, replay scratch — must likewise be
    // preallocated before cycle 0.
    let reference = GcConfig {
        fast_forward: false,
        ..GcConfig::with_cores(4)
    };
    let sparse = GcConfig::with_cores(4);
    // The event-driven loop over bodies long enough to stream: the
    // stream jump's scratch (the stream set) is preallocated too.
    let fast_forward = sparse;
    // The sparse loop on the DRAM backend: bank queues, the scheduler's
    // bit sets and the all-parked jumps across bank-busy windows.
    let sparse_dram = GcConfig {
        mem: MemConfig::default().with_backend(MemBackendKind::Dram(DramConfig::default())),
        ..sparse
    };
    for (mode, cfg, delta) in [
        ("reference", reference, 1),
        ("sparse", sparse, 1),
        ("sparse+stream", fast_forward, 12),
        ("sparse+dram", sparse_dram, 1),
    ] {
        let chain = |len| chain(len, delta);
        let mut small = chain(64);
        let mut large = chain(512);

        // Warm-up: allocator internals (size-class metadata etc.) may
        // lazily allocate on first use; measure on the second run of
        // each shape.
        collect_counting(&mut chain(64), cfg);
        collect_counting(&mut chain(512), cfg);

        let (small_allocs, small_cycles) = collect_counting(&mut small, cfg);
        let (large_allocs, large_cycles) = collect_counting(&mut large, cfg);
        assert!(
            large_cycles > small_cycles + 1_000,
            "{mode}: chain lengths must separate the cycle counts ({small_cycles} vs {large_cycles})"
        );
        assert_eq!(
            small_allocs,
            large_allocs,
            "{mode}: per-cycle allocations detected: {} extra allocations over {} extra cycles",
            large_allocs as i64 - small_allocs as i64,
            large_cycles - small_cycles
        );

        // A traced run may allocate for the sampled rows themselves (the
        // rows vector doubling as it grows), but still nothing per
        // *cycle*: the per-row core states live inline, so a sparse
        // trace adds only O(log rows) allocations.
        let mut trace = SignalTrace::new(4096);
        let mut heap = chain(512);
        let (traced_delta, _) =
            counting(|| SimCollector::new(cfg).collect_traced(&mut heap, &mut trace));
        let untraced = large_allocs;
        assert!(
            !trace.rows().is_empty(),
            "{mode}: the chain must run long enough to sample at least one row"
        );
        assert!(
            traced_delta <= untraced + 64,
            "{mode}: tracing added {} allocations over the untraced run ({} rows)",
            traced_delta as i64 - untraced as i64,
            trace.rows().len()
        );

        // The hostprof door with the null profiler must be
        // allocation-identical to the plain door: every `H::ACTIVE`
        // guard compiles the profiling hooks out of the hot loop, so a
        // hostprof-off run is the same machine code path as `collect`.
        let mut heap = chain(512);
        let (hostprof_delta, _) = counting(|| {
            SimCollector::new(cfg).collect_hostprof(&mut heap, &mut hwgc_obs::NullHostProf)
        });
        assert_eq!(
            hostprof_delta, untraced,
            "{mode}: collect_hostprof(NullHostProf) allocated {} times, collect {} — \
             the null profiler must be free",
            hostprof_delta, untraced
        );
    }
}
