//! Steady-state allocation audit of the sharded batch fan-out.
//!
//! The steering pre-partition pass (`PartitionScratch` / `Prepartition` in
//! `tse-switch`) promises **zero per-event heap allocations** once its scratch
//! buffers are warm: partitioning writes event indices into reusable buffers and each
//! shard processes one contiguous index run against the shared event slice — no
//! per-shard `Vec<(Key, bytes, t)>`, no per-event `Key` clones. This test pins that
//! with a counting global allocator: after a warm-up batch, fanning out a batch of N
//! events costs exactly as many allocations as a batch of 2N (the per-*batch*
//! constant — report vectors and executor slots — not per-event), on the sequential
//! walk and on the persistent worker pool alike.
//!
//! The per-event *classification* path is excluded by construction: the TSS backend
//! allocates per lookup (`apply_mask` builds a masked key), which is classifier work,
//! not fan-out work. A stub backend with an allocation-free lookup isolates the
//! machinery under audit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tse::classifier::backend::FastPathBackend;
use tse::classifier::tss::{InsertError, LookupOutcome};
use tse::prelude::*;

/// Forwards to the system allocator, counting every allocation (and reallocation —
/// a `Vec` growing in place is still heap traffic we claim not to produce).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// The test's own bookkeeping (building batches, report vectors) also counts; the
// assertions only ever compare *deltas* around the calls under audit.
//
// SAFETY: every method forwards `ptr`/`layout` unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a relaxed atomic counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same forwarding argument as above for the remaining two methods.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations one call of `f` performs. The counter is process-global and threads the
/// test does not control allocate when they please (libtest's main thread while the
/// test starts, a pool's workers as they come up); such noise only ever adds to `f`'s
/// deterministic count, so the minimum over a few calls is the count.
fn allocations_during(mut f: impl FnMut()) -> u64 {
    let mut measure = || {
        let before = ALLOCS.load(Ordering::Relaxed);
        f();
        ALLOCS.load(Ordering::Relaxed) - before
    };
    (0..5).map(|_| measure()).min().unwrap()
}

/// A fast-path backend whose lookup is allocation-free (constant Allow verdict, one
/// mask scanned): every event terminates at level 2 without touching the slow path,
/// so any allocation observed during a batch belongs to the fan-out machinery.
#[derive(Debug, Clone)]
struct NoAllocBackend {
    schema: FieldSchema,
}

impl FastPathBackend for NoAllocBackend {
    fn fresh(schema: &FieldSchema) -> Self {
        NoAllocBackend {
            schema: schema.clone(),
        }
    }

    fn name(&self) -> &'static str {
        "no-alloc-stub"
    }

    fn schema(&self) -> &FieldSchema {
        &self.schema
    }

    fn lookup(&mut self, _header: &Key, _now: f64) -> LookupOutcome {
        LookupOutcome {
            action: Some(Action::Allow),
            masks_scanned: 1,
        }
    }

    fn insert_megaflow(
        &mut self,
        _key: Key,
        _mask: Mask,
        _action: Action,
        _now: f64,
    ) -> Result<(), InsertError> {
        Ok(())
    }

    fn clear(&mut self) {}

    fn mask_count(&self) -> usize {
        0
    }

    fn entry_count(&self) -> usize {
        0
    }
}

fn stub_datapath(
    schema: &FieldSchema,
    executor: impl ShardExecutor + 'static,
) -> ShardedDatapath<NoAllocBackend> {
    let tp_dst = schema.field_index("tp_dst").unwrap();
    let table = FlowTable::whitelist_default_deny(schema, &[(tp_dst, 80)]);
    ShardedDatapath::from_builder(
        Datapath::builder(table).backend_fresh::<NoAllocBackend>(),
        4,
        Steering::Rss,
    )
    .with_executor(executor)
}

fn spread_batch(schema: &FieldSchema, n: usize) -> Vec<(Key, usize, f64)> {
    let tp_dst = schema.field_index("tp_dst").unwrap();
    let ip_src = schema.field_index("ip_src").unwrap();
    (0..n)
        .map(|i| {
            let mut k = schema.zero_value();
            k.set(tp_dst, (i % 400) as u128);
            k.set(ip_src, 0x0a00_0000 + (i / 3) as u128);
            (k, 64usize, i as f64 * 1e-4)
        })
        .collect()
}

// One test function on purpose: the counter is process-global, and the deltas stay
// meaningful only while no sibling test allocates concurrently.
#[test]
fn steady_state_fan_out_allocates_independently_of_batch_size() {
    let schema = FieldSchema::ovs_ipv4();
    let small = spread_batch(&schema, 600);
    let big = spread_batch(&schema, 1200);

    // --- Sequential executor: the pure scratch-reuse claim. ---
    let mut dp = stub_datapath(&schema, SequentialExecutor);
    // Warm up with the *largest* batch so every scratch buffer reaches its final
    // capacity, then with the small one so nothing below depends on first-touch costs.
    dp.process_timed_batch(&big);
    dp.process_timed_batch(&small);

    let d_small = allocations_during(|| {
        dp.process_timed_batch(&small);
    });
    let d_big = allocations_during(|| {
        dp.process_timed_batch(&big);
    });
    assert_eq!(
        d_small, d_big,
        "fan-out allocations must not scale with batch size \
         (600 events: {d_small} allocs, 1200 events: {d_big})"
    );
    // The per-batch constant is the dispatch overhead (executor slots, report
    // vectors) — a handful, never hundreds.
    assert!(
        d_big <= 32,
        "per-batch dispatch overhead exploded: {d_big} allocations"
    );

    // --- The pre-partition pass itself reuses its buffers completely. ---
    let view = dp.steering_view();
    let mut prep = Prepartition::default();
    prep.compute(&view, &big); // warm
    prep.compute(&view, &small);
    let d_prep = allocations_during(|| {
        prep.compute(&view, &big);
        prep.compute(&view, &small);
    });
    assert_eq!(
        d_prep, 0,
        "warm Prepartition::compute must be allocation-free, saw {d_prep}"
    );

    // --- Consuming a precomputed partition allocates no more than computing one. ---
    let d_preparted = allocations_during(|| {
        prep.compute(&view, &big);
        dp.process_timed_batch_prepartitioned(&big, &mut prep);
    });
    assert!(
        d_preparted <= d_big,
        "prepartitioned dispatch ({d_preparted}) must not out-allocate \
         the inline pass ({d_big})"
    );

    // --- Persistent pool: same independence with the fan-out on live workers. ---
    let mut pooled = stub_datapath(&schema, PersistentPoolExecutor::new(2));
    pooled.process_timed_batch(&big);
    pooled.process_timed_batch(&small);
    let p_small = allocations_during(|| {
        pooled.process_timed_batch(&small);
    });
    let p_big = allocations_during(|| {
        pooled.process_timed_batch(&big);
    });
    assert_eq!(
        p_small, p_big,
        "pooled fan-out allocations must not scale with batch size \
         (600 events: {p_small} allocs, 1200 events: {p_big})"
    );

    // --- Wire ingestion: batched header extraction is allocation-free when warm. ---
    // Frames live in two contiguous WireTraces; the scratch's result buffer is the
    // only state the extractor touches, and after one warm pass over the *largest*
    // batch it never grows again — decode itself builds `Packet`s entirely on the
    // stack, so a warm `extract_keys_into` performs literally zero heap allocations,
    // batch size notwithstanding.
    let wire_small: Vec<Vec<u8>> = (0..600)
        .map(|i: u32| {
            tse::packet::wire::encode(
                &PacketBuilder::tcp_v4(
                    [10, (i >> 8) as u8, i as u8, 7],
                    [10, 0, 0, 99],
                    1024 + (i % 400) as u16,
                    80,
                )
                .build(),
            )
        })
        .collect();
    let frames_small: Vec<&[u8]> = wire_small.iter().map(Vec::as_slice).collect();
    let frames_big: Vec<&[u8]> = wire_small
        .iter()
        .chain(wire_small.iter())
        .map(Vec::as_slice)
        .collect();
    let mut scratch = ExtractScratch::new();
    extract_keys_into(&frames_big, &mut scratch); // warm to final capacity
    extract_keys_into(&frames_small, &mut scratch);
    let w_small = allocations_during(|| extract_keys_into(&frames_small, &mut scratch));
    let w_big = allocations_during(|| extract_keys_into(&frames_big, &mut scratch));
    assert_eq!(
        (w_small, w_big),
        (0, 0),
        "warm batched extraction must be allocation-free \
         (600 frames: {w_small} allocs, 1200 frames: {w_big})"
    );
}
