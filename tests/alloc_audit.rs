//! Steady-state allocation audit of the sharded batch path, classification included.
//!
//! The steering pre-partition pass (`Prepartition` in `tse-switch`) promises **zero
//! per-event heap allocations** once its scratch buffers are warm: partitioning writes
//! event indices into reusable per-shard lists and each shard processes its list
//! against the shared event slice — no per-shard `Vec<(Key, bytes, t)>`, no per-event
//! `Key` clones. The tuple-space probe
//! promises the same: it hashes `header AND mask` off each tuple's probe plan and
//! materialises nothing. This test pins both with a counting global allocator and the
//! real TSS backend: once the cache holds a megaflow for every key, a batch of N
//! events costs exactly as many allocations as a batch of 2N (the per-*batch*
//! constant — report vectors and executor slots — not per-event), on the sequential
//! walk and on the persistent worker pool alike. `run_mix` inherits the promise: a
//! steady-state sample interval costs the same allocations whether it holds N one-event
//! per-source runs or 2N, because the interval crosses the executor once. The wire
//! ingress is held to zero outright: a warm `extract_keys_into` and a warm
//! `Encap::encode_into` (every envelope) allocate nothing. So is the slow path's
//! generation: a warm `examined_megaflow` against the gateway's 1001-rule table
//! allocates nothing. So are the cache's writes: a warm upcall whose
//! megaflow joins a tuple with room to spare, a warm expiry sweep of a large tuple, warm
//! churn — a block of installs, then a sweep that expires a block — of a tuple four
//! blocks long, a warm `remove_where` out of the middle of a long tuple, and a warm idle
//! sweep of a tuple installed out of time order. So is a warm idle sweep that drops
//! tuples: the lane, the tuples and the lane's slices close ranks in place; and so is a
//! warm insert that narrows a record of a sliced block, whose bits are rewritten in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use tse::classifier::tss::MegaflowEntry;
use tse::prelude::*;
use tse::switch::SlowPath;

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

/// Held by each test for its whole run: the counter is process-global, and the deltas stay
/// meaningful only while no sibling test allocates concurrently.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// Four TSS shards behind `executor`, warmed with `warm` until every key of it is a
/// megaflow hit: from then on a batch drawn from those keys never reaches the slow path,
/// so any allocation observed belongs to fan-out or to the probe itself.
fn warmed_datapath(
    schema: &FieldSchema,
    executor: impl ShardExecutor + 'static,
    warm: &[(Key, usize, f64)],
) -> ShardedDatapath {
    let tp_dst = schema.field_index("tp_dst").unwrap();
    let table = FlowTable::whitelist_default_deny(schema, &[(tp_dst, 80)]);
    let mut dp = ShardedDatapath::from_builder(Datapath::builder(table), 4, Steering::Rss)
        .with_executor(executor);
    dp.process_timed_batch(warm);
    let upcalls = dp.stats().upcalls;
    // Once more, so every scratch buffer has reached its final capacity too.
    dp.process_timed_batch(warm);
    assert_eq!(dp.stats().upcalls, upcalls, "warm keys still miss");
    assert!(
        dp.shard_mask_counts().iter().all(|&m| m > 1),
        "every shard should scan more than one mask: {:?}",
        dp.shard_mask_counts()
    );
    dp
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

/// A lazy constant-rate packet source cycling through exactly its `keys` (an
/// `AttackGenerator` randomises the noise fields, which keeps a trickle of upcalls — and
/// their allocations — alive): the audited `run_mix` call materialises no trace and,
/// once every key is cached, takes no slow path.
struct Cycler {
    keys: Vec<Key>,
    next: usize,
    gap: f64,
    start: f64,
}

impl TrafficSource for Cycler {
    fn label(&self) -> &str {
        "cycler"
    }

    fn next_event(&mut self) -> Option<TrafficEvent> {
        let i = self.next;
        self.next += 1;
        Some(TrafficEvent {
            time: self.start + i as f64 * self.gap,
            key: self.keys[i % self.keys.len()].clone(),
            bytes: 64,
            payload: EventPayload::Packet,
        })
    }
}

/// Allocations of one `run_mix` call over `intervals` sample intervals of
/// `per_interval` events on 2 shards: two sources half a gap apart, so the interval is
/// all one-event runs of alternating source.
fn run_mix_allocations(schema: &FieldSchema, per_interval: usize, intervals: usize) -> u64 {
    let keys: Vec<Key> = spread_batch(schema, 100).into_iter().map(|e| e.0).collect();
    let tp_dst = schema.field_index("tp_dst").unwrap();
    let table = FlowTable::whitelist_default_deny(schema, &[(tp_dst, 80)]);
    let measure = || {
        let datapath = ShardedDatapath::new(table.clone(), 2, Steering::Rss);
        let mut runner = ExperimentRunner::sharded(datapath, Vec::new(), OffloadConfig::gro_off());
        let gap = 2.0 / per_interval as f64;
        let source = |start: f64| Cycler {
            keys: keys.clone(),
            next: 0,
            gap,
            start,
        };
        let mix = TrafficMix::new()
            .with(source(gap / 4.0))
            .with(source(gap * 3.0 / 4.0));
        let before = ALLOCS.load(Ordering::Relaxed);
        let timeline = runner.run_mix(mix, intervals as f64);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let last = timeline.samples.last().unwrap();
        assert_eq!(last.attacker_pps, per_interval as f64);
        allocs
    };
    (0..5).map(|_| measure()).min().unwrap()
}

#[test]
fn steady_state_fan_out_allocates_independently_of_batch_size() {
    let _serial = serial();
    let schema = FieldSchema::ovs_ipv4();
    let small = spread_batch(&schema, 600);
    let big = spread_batch(&schema, 1200);

    // --- Sequential executor: scratch reuse and an allocation-free probe. ---
    // Warmed with the *largest* batch (the small one is a prefix of it), then run over
    // the small one so nothing below depends on first-touch costs.
    let mut dp = warmed_datapath(&schema, SequentialExecutor, &big);
    dp.process_timed_batch(&small);

    let d_small = allocations_during(|| {
        dp.process_timed_batch(&small);
    });
    let d_big = allocations_during(|| {
        dp.process_timed_batch(&big);
    });
    assert_eq!(
        d_small, d_big,
        "batch allocations must not scale with batch size \
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
    let mut pooled = warmed_datapath(&schema, PersistentPoolExecutor::new(2), &big);
    pooled.process_timed_batch(&small);
    let p_small = allocations_during(|| {
        pooled.process_timed_batch(&small);
    });
    let p_big = allocations_during(|| {
        pooled.process_timed_batch(&big);
    });
    assert_eq!(
        p_small, p_big,
        "pooled batch allocations must not scale with batch size \
         (600 events: {p_small} allocs, 1200 events: {p_big})"
    );

    // --- `run_mix`: a steady-state interval allocates independently of its size. ---
    // Three more intervals of the same run cost the same whether each holds 600
    // one-event runs or 1200: the interval buffers and the whole-interval partition are
    // warm after the first interval, and what is left is per interval (the tally, the
    // sample, two dispatches), not per event or per run.
    let per_interval = |events: usize| {
        run_mix_allocations(&schema, events, 6) - run_mix_allocations(&schema, events, 3)
    };
    let (m_small, m_big) = (per_interval(600), per_interval(1200));
    assert_eq!(
        m_small, m_big,
        "three steady-state run_mix intervals must not allocate by event count \
         (600 events each: {m_small} allocs, 1200 events each: {m_big})"
    );

    // --- Megaflow generation: a warm table walk allocates nothing. ---
    // The gateway's 1001-rule merged table: the priority walk records the bits it
    // examines in a stack array, and widening fills an inline mask.
    let fleet = TenantFleet::new(&schema, FleetConfig::default());
    let table = fleet.table();
    let strategy = MegaflowStrategy::wildcarding(&schema);
    let field = |name| schema.field_index(name).unwrap();
    let (ip_src, ip_dst) = (field("ip_src"), field("ip_dst"));
    let (tp_src, tp_dst) = (field("tp_src"), field("tp_dst"));
    let header = |tenant: usize, port: u128| {
        let mut h = schema.zero_value();
        h.set(ip_src, fleet.client_ip(tenant) as u128);
        h.set(ip_dst, fleet.service_ip(tenant) as u128);
        h.set(tp_src, 40_000 + tenant as u128);
        h.set(tp_dst, port);
        h
    };
    let fresh = header(fleet.config().tenants / 2 + 1, 9999);
    assert!(examined_megaflow(&table, &fresh, &strategy).is_some());
    let g_allocs = allocations_during(|| {
        std::hint::black_box(examined_megaflow(&table, &fresh, &strategy));
    });
    assert_eq!(
        g_allocs, 0,
        "warm examined_megaflow must be allocation-free"
    );

    // --- The cache's writes: a warm install and a warm sweep allocate nothing. ---
    // The ACL examines `tp_dst` alone, so its exact-match megaflows all share one mask
    // and every upcall below, each to a port of its own, joins one tuple. Nine entries
    // leave it room for seven more (entries 16, index 32 slots), so each of the five
    // audited upcalls installs a fresh header with no growth: the table walk, the one
    // walk of the probe lane that checks Inv(2) and finds the tuple, and the filing,
    // debug builds' consistency check after it included.
    let table = FlowTable::whitelist_default_deny(&schema, &[(tp_dst, 80)]);
    let mut slow = SlowPath::new(MegaflowStrategy::exact_match(&schema));
    let mut cache = TupleSpace::new(schema.clone());
    let fresh_headers: Vec<Key> = (0..14).map(|i| header(3, 9000 + i as u128)).collect();
    for h in &fresh_headers[..9] {
        assert!(
            slow.handle_upcall(&table, &mut cache, h, 0.0)
                .unwrap()
                .installed
        );
    }
    let mut next = fresh_headers[9..].iter();
    let mut installed = 0;
    let u_allocs = allocations_during(|| {
        let h = next.next().unwrap();
        installed += usize::from(
            slow.handle_upcall(&table, &mut cache, h, 0.0)
                .unwrap()
                .installed,
        );
    });
    assert_eq!(
        (installed, cache.mask_count()),
        (5, 1),
        "every audited upcall joined the tuple"
    );
    assert_eq!(
        u_allocs, 0,
        "a warm upcall into a roomy tuple must be allocation-free"
    );

    // An idle sweep reads a tuple's old region alone: it frees the slots of the expired
    // entries in place and drops the blocks of the log they leave dead, keeping one
    // as the spare. After one sweep of a large tuple, each further one that removes
    // entries from it allocates nothing.
    let mut cache = TupleSpace::new(schema.clone());
    let big: Vec<Key> = (0..4096).map(|i| header(i, 9000)).collect();
    for (i, h) in big.iter().enumerate() {
        cache
            .insert(h.clone(), schema.full_mask(), Action::Deny, i as f64)
            .unwrap();
    }
    assert_eq!(
        cache.expire_idle(10.0 + 512.0, 10.0),
        512,
        "warm: the oldest go"
    );
    let mut now = 10.0 + 512.0;
    let mut expired = 0;
    let e_allocs = allocations_during(|| {
        now += 256.0;
        expired += cache.expire_idle(now, 10.0);
    });
    assert_eq!(expired, 5 * 256, "every audited sweep removed entries");
    assert_eq!(e_allocs, 0, "a warm expiry sweep must be allocation-free");

    // Steady churn of a four-block tuple: each round installs a block's worth of
    // entries, which opens a block, and a sweep expires the oldest block's worth, which
    // frees one. The freed block is the next round's new one, and the index is already
    // sized for the most entries the tuple holds, so five warm rounds allocate nothing.
    let block = TupleSpace::BLOCK;
    let mut cache = TupleSpace::new(schema.clone());
    let mut next = 0;
    let mut churn = |cache: &mut TupleSpace, round: usize| {
        for _ in 0..block {
            let h = header(next, 9001);
            let t = round as f64;
            cache
                .insert(h, schema.full_mask(), Action::Deny, t)
                .unwrap();
            next += 1;
        }
        // Rounds more than three behind idle out: four blocks stay.
        cache.expire_idle(round as f64, 3.5)
    };
    for round in 0..6 {
        churn(&mut cache, round);
    }
    assert_eq!((cache.mask_count(), cache.entry_count()), (1, 4 * block));
    let before = ALLOCS.load(Ordering::Relaxed);
    let expired: usize = (6..11).map(|round| churn(&mut cache, round)).sum();
    let c_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(expired, 5 * block, "each round expired a block's worth");
    assert_eq!(
        c_allocs, 0,
        "warm churn of a four-block tuple must be allocation-free"
    );

    // MFCGuard's removal walks a tuple's whole log: out of the middle of a tuple five
    // blocks long, each warm `remove_where` frees the slots of what it removes and slides
    // the older survivors up, in place.
    let mut cache = TupleSpace::new(schema.clone());
    for i in 0..5 * block {
        cache
            .insert(header(i, 9002), schema.full_mask(), Action::Deny, i as f64)
            .unwrap();
    }
    let window = |lo: f64| move |e: &MegaflowEntry| (lo..lo + 8.0).contains(&e.installed_at);
    let mut lo = 2.0 * block as f64;
    assert_eq!(cache.remove_where(window(lo)), 8, "warm");
    let mut removed = 0;
    let r_allocs = allocations_during(|| {
        lo += 64.0;
        removed += cache.remove_where(window(lo));
    });
    assert_eq!(removed, 5 * 8, "every audited removal took entries");
    assert_eq!(
        r_allocs, 0,
        "a warm remove_where out of a tuple's middle must be allocation-free"
    );

    // A tuple installed out of time order is swept whole: the last two entries went in
    // a second apart, newest first. Each warm sweep expires the oldest block's worth and
    // reads every live entry, the pair at the end included, in place.
    let mut cache = TupleSpace::new(schema.clone());
    let n = 6 * block;
    for i in 0..n {
        cache
            .insert(header(i, 9003), schema.full_mask(), Action::Deny, i as f64)
            .unwrap();
    }
    for (i, t) in [(n, 1e6), (n + 1, 1e6 - 1.0)] {
        cache
            .insert(header(i, 9003), schema.full_mask(), Action::Deny, t)
            .unwrap();
    }
    let mut now = 10.0 + block as f64;
    assert_eq!(cache.expire_idle(now, 10.0), block, "warm");
    let (mut expired, mut unordered) = (0, true);
    let o_allocs = allocations_during(|| {
        now += block as f64;
        let (live, before) = (cache.entry_count(), cache.work().sweep_examined);
        expired += cache.expire_idle(now, 10.0);
        unordered &= cache.work().sweep_examined - before == live as u64;
    });
    assert_eq!(expired, 5 * block, "every audited sweep removed entries");
    assert!(unordered, "every audited sweep read the whole log");
    assert_eq!(
        o_allocs, 0,
        "a warm idle sweep of an unordered tuple must be allocation-free"
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

    // --- Wire crafting: a warm frame buffer is all an encoder touches. ---
    // Every header is built in a stack array and appended once, so re-encoding into a
    // cleared buffer that has held the largest frame costs zero heap allocations under
    // every envelope (what `WireGenerator::next_event` does per packet).
    let pkt = PacketBuilder::tcp_v4([10, 0, 0, 1], [10, 0, 0, 99], 1024, 80).build();
    let encaps = [
        Encap::None,
        Encap::Vlan { tci: 100 },
        Encap::Vxlan {
            outer_src: 0x0a00_0001,
            outer_dst: 0x0a00_0002,
            vni: 42,
        },
    ];
    let mut frame = Vec::new();
    encaps[2].encode_into(&pkt, &mut frame); // warm to the largest frame
    for encap in encaps {
        let allocs = allocations_during(|| {
            frame.clear();
            encap.encode_into(&pkt, &mut frame);
        });
        assert_eq!(
            allocs, 0,
            "warm {encap:?} encode_into must be allocation-free"
        );
    }
}

/// SipDp's explosion, one upcall every 10 ms, swept by idle expiry a second at a time:
/// each sweep empties about a hundred one-entry tuples and drops them, each with its lane
/// record, and the survivors close ranks in both vectors in place, the full blocks of the
/// lane sliced anew in the slices' storage.
#[test]
fn a_warm_idle_sweep_that_drops_tuples_allocates_nothing() {
    let _serial = serial();
    let schema = FieldSchema::ovs_ipv4();
    let field = |name| schema.field_index(name).unwrap();
    let (ip_src, ip_proto, tp_dst) = (field("ip_src"), field("ip_proto"), field("tp_dst"));
    let (allow_dp, allow_sip) = (80, 0x0a00_0001);
    let table =
        FlowTable::whitelist_default_deny(&schema, &[(tp_dst, allow_dp), (ip_src, allow_sip)]);
    let mut slow = SlowPath::new(MegaflowStrategy::wildcarding(&schema));
    // Each field's allowed value, then that value with each bit inverted.
    let inversions = |width: u32, allow: u128| {
        [allow]
            .into_iter()
            .chain((0..width).map(move |b| allow ^ 1 << b))
    };
    let mut cache = TupleSpace::new(schema.clone());
    let mut header = schema.zero_value();
    header.set(ip_proto, 6);
    let mut t = 0.0;
    for d in inversions(16, allow_dp) {
        for s in inversions(32, allow_sip) {
            header.set(tp_dst, d);
            header.set(ip_src, s);
            if cache.peek(&header).is_none() {
                slow.handle_upcall(&table, &mut cache, &header, t);
                t += 0.01;
            }
        }
    }
    assert_eq!((cache.mask_count(), cache.entry_count()), (513, 529));

    let mut now = 10.25;
    assert!(cache.expire_idle(now, 10.0) > 0, "warm");
    let mut dropped = true;
    let allocs = allocations_during(|| {
        now += 1.0;
        let masks = cache.mask_count();
        cache.expire_idle(now, 10.0);
        dropped &= cache.mask_count() < masks;
    });
    assert!(dropped, "every audited sweep dropped tuples");
    assert!(cache.mask_count() > 0, "the newest tuples are left");
    assert_eq!(
        allocs, 0,
        "a warm idle sweep that drops tuples must be allocation-free"
    );
}

/// An insert that narrows a lane record of a full, sliced block rewrites that record's
/// slice bits in place. Sixty-five tuples under three-word masks (`ip_src`, `ip_proto`,
/// and a `tp_dst` pattern of each tuple's own), one key each, fill one sliced block and
/// start the next. The oldest tuple, in the sliced block, is given room first: four keys
/// that differ from its first on `tp_dst` alone, past the inline words. Each audited
/// insert then files a key over another `ip_proto`, which narrows the record's second
/// inline word, with the walk, the filing, the slices' rewrite and debug builds'
/// consistency check allocating nothing.
#[test]
fn a_warm_insert_that_narrows_a_sliced_record_allocates_nothing() {
    let _serial = serial();
    let schema = FieldSchema::ovs_ipv4();
    let field = |name| schema.field_index(name).unwrap();
    let (ip_src, ip_proto, tp_dst) = (field("ip_src"), field("ip_proto"), field("tp_dst"));
    let key = |src: u128, proto: u128, dst: u128| {
        let mut key = schema.zero_value();
        key.set(ip_src, src);
        key.set(ip_proto, proto);
        key.set(tp_dst, dst);
        key
    };
    let mask_of = |t: u128| key(0xffff_ffff, 0xff, 0xffff ^ t);
    // A cache, warmed: tuple 0 holds five keys, its log and its index sized for eight.
    let warmed = || {
        let mut cache = TupleSpace::new(schema.clone());
        for t in 0..65 {
            cache
                .insert(key(t, 6, 0), mask_of(t), Action::Deny, 0.0)
                .unwrap();
        }
        for dst in 1..5 {
            cache
                .insert(key(0, 6, dst), mask_of(0), Action::Deny, 0.0)
                .unwrap();
        }
        cache
    };
    let mut caches: Vec<(TupleSpace, Key, Mask)> = (0..5)
        .map(|_| (warmed(), key(0, 17, 4), mask_of(0)))
        .collect();
    let mut fresh = caches.iter_mut();
    let allocs = allocations_during(|| {
        let (cache, key, mask) = fresh.next().unwrap();
        let (key, mask) = (key.clone(), mask.clone());
        cache.insert(key, mask, Action::Deny, 1.0).unwrap();
        assert_eq!((cache.mask_count(), cache.entry_count()), (65, 70));
    });
    assert_eq!(
        allocs, 0,
        "a warm insert that narrows a sliced record must be allocation-free"
    );
}
