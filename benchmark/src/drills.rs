//! Per-layer drills: each times one layer's public functions on inputs taken from the
//! workload under test — its own mix, a sample of its frames, its miss keys, its
//! schema — with nothing else on the clock.
//!
//! Timings are the median of [`PASSES`] passes over the same input. Counts are exact.

use std::hint::black_box;
use std::time::Instant;

use tse::classifier::MicroflowCache;
use tse::packet::{wire, IpProto, MicroflowKey};
use tse::prelude::*;
use tse::switch::SlowPath;

use crate::alloc;
use crate::stats;
use crate::workloads::{Exec, Instance};

/// Passes a timing drill makes over its input.
const PASSES: usize = 3;

/// Events (and so frames) in a workload's drill sample.
const SAMPLE_EVENTS: usize = 65_536;

/// Frames per call of the batched extractor.
const EXTRACT_BATCH: usize = 256;

/// Upcalls the churn drill replays at most (the gateway's 3000-rule table makes each
/// one tens of microseconds).
const MAX_DRILL_UPCALLS: usize = 4096;

/// Median wall nanoseconds of `PASSES` runs of `f`.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&passes)
}

/// `attack.*`: drain the workload's own mix, standalone. Returns nanoseconds per event
/// and the number of events below the horizon.
pub fn drain(inst: &Instance) -> (f64, u64) {
    let mut events = 0u64;
    let ns = median_ns(|| {
        let mut mix = inst.mix();
        events = 0;
        while let Some(ev) = mix.next_before(inst.duration) {
            black_box(&ev);
            events += 1;
        }
    });
    (ns / events.max(1) as f64, events)
}

/// The first [`SAMPLE_EVENTS`] events of the workload's mix, tagged with their source.
pub fn sample(inst: &Instance) -> Vec<(usize, TrafficEvent)> {
    let mut mix = inst.mix();
    std::iter::from_fn(|| mix.next_before(inst.duration))
        .take(SAMPLE_EVENTS)
        .collect()
}

/// What the packet-layer drill measured.
#[derive(Debug)]
pub struct PacketDrill {
    /// `wire::decode` + `FlowKey::from_packet`, per frame.
    pub decode_ns_per_frame: f64,
    /// `extract_keys_into` over 256-frame batches, per frame.
    pub extract_batch_ns_per_frame: f64,
    /// `FlowKey::to_key`, per key.
    pub to_key_ns: f64,
    /// Heap allocations of the decode loop, per frame.
    pub allocs_per_frame: f64,
    /// Frames the parser rejected.
    pub decode_errors: u64,
    /// The frames that decoded, as packets (input of the microflow drill).
    pub packets: Vec<Packet>,
}

/// Rebuild the frame an event arrived in: the packet its key describes, under the
/// envelope of its source; a malformed event is the 9-byte stub it was.
fn frames_of(inst: &Instance, sample: &[(usize, TrafficEvent)]) -> WireTrace {
    let schema = &inst.schema;
    let v6 = schema.field_index("ip6_src").is_some();
    let field = |name: &str| schema.field_index(name).expect("OVS schema field");
    let (src, dst) = if v6 {
        (field("ip6_src"), field("ip6_dst"))
    } else {
        (field("ip_src"), field("ip_dst"))
    };
    let (proto, ttl, tp_src, tp_dst) = (
        field("ip_proto"),
        field("ttl"),
        field("tp_src"),
        field("tp_dst"),
    );
    let encaps = inst.encaps();
    let mut trace = WireTrace::new();
    for (source, ev) in sample {
        if matches!(ev.payload, EventPayload::Malformed { .. }) {
            trace.push(ev.time, &[0xDE; 9]);
            continue;
        }
        let key = &ev.key;
        let (proto, sport, dport) = (
            IpProto::from_u8(key.get(proto) as u8),
            key.get(tp_src) as u16,
            key.get(tp_dst) as u16,
        );
        let builder = if v6 {
            PacketBuilder::from_numeric_v6(key.get(src), key.get(dst), proto, sport, dport)
        } else {
            PacketBuilder::from_numeric_v4(
                key.get(src) as u32,
                key.get(dst) as u32,
                proto,
                sport,
                dport,
            )
        };
        let packet = builder.ttl(key.get(ttl) as u8).build();
        trace.push_packet(ev.time, &packet, encaps[source % encaps.len()]);
    }
    trace
}

/// `packet.*`: the naive per-frame decode loop against the batched extractor against
/// key materialisation, over the sample's frames.
pub fn packet(inst: &Instance, sample: &[(usize, TrafficEvent)]) -> PacketDrill {
    let trace = frames_of(inst, sample);
    let frames: Vec<&[u8]> = trace.frames().collect();
    let n = frames.len().max(1) as f64;

    let decode_pass = || {
        let mut errors = 0u64;
        for frame in &frames {
            match wire::decode(frame) {
                Ok(packet) => {
                    black_box(FlowKey::from_packet(&packet));
                }
                Err(_) => errors += 1,
            }
        }
        errors
    };
    let decode_ns = median_ns(|| {
        black_box(decode_pass());
    });
    let (decode_errors, allocs, _) = alloc::counted(decode_pass);

    let mut scratch = ExtractScratch::new();
    let extract_ns = median_ns(|| {
        for batch in frames.chunks(EXTRACT_BATCH) {
            extract_keys_into(batch, &mut scratch);
            black_box(scratch.keys());
        }
    });

    let packets: Vec<Packet> = frames.iter().filter_map(|f| wire::decode(f).ok()).collect();
    let flow_keys: Vec<FlowKey> = packets.iter().map(FlowKey::from_packet).collect();
    let to_key_ns = median_ns(|| {
        for flow in &flow_keys {
            black_box(flow.to_key(&inst.schema));
        }
    });

    PacketDrill {
        decode_ns_per_frame: decode_ns / n,
        extract_batch_ns_per_frame: extract_ns / n,
        to_key_ns: to_key_ns / flow_keys.len().max(1) as f64,
        allocs_per_frame: allocs as f64 / n,
        decode_errors,
        packets,
    }
}

/// `classifier.microflow_lookup_ns`: `MicroflowCache::lookup` hits over the sample's
/// packets, all resident.
pub fn microflow(packets: &[Packet]) -> f64 {
    let keys: Vec<MicroflowKey> = packets.iter().map(MicroflowKey::from_packet).collect();
    let mut cache = MicroflowCache::with_capacity(keys.len());
    for key in &keys {
        cache.insert(*key, Action::Allow);
    }
    let ns = median_ns(|| {
        for key in &keys {
            black_box(cache.lookup(key));
        }
    });
    ns / keys.len().max(1) as f64
}

/// What the scan-depth sweep measured.
#[derive(Debug)]
pub struct LookupDrill {
    /// Slope of lookup time over masks scanned.
    pub ns_per_mask: f64,
    /// Intercept: the cost of a lookup that scans no mask.
    pub fixed_ns: f64,
    /// Heap allocations per mask scanned on the deepest scan.
    pub allocs_per_mask: f64,
    /// The datapath holding the full 513-mask explosion (input of the guard drill).
    pub exploded: Datapath,
}

/// Mask counts the scan-depth sweep snapshots the growing explosion at.
const SWEEP_MASKS: [usize; 3] = [16, 257, 513];

/// Masks scanned per timing pass of a deep scan (so every depth is timed equally long).
const DEEP_SCAN_MASKS: usize = 200_000;

/// `classifier.lookup_*`: grow the co-located (source address × destination port)
/// explosion under the workload's schema and snapshot the cache at 16, 257 and 513
/// masks. Probe order is newest-first, so the very first key's tuple is always probed
/// last: looking it up scans every mask (the depth of a miss, ending in a hit), and
/// looking up the key that made the newest tuple scans one. Nanoseconds per mask is
/// the least-squares slope over the three deep scans; the fixed cost is what the
/// first-mask hit takes beyond one mask at that slope.
pub fn lookup(inst: &Instance) -> LookupDrill {
    let schema = &inst.schema;
    let src = schema
        .field_index("ip_src")
        .or_else(|| schema.field_index("ip6_src"))
        .expect("OVS schema has a source address");
    let tp_dst = schema.field_index("tp_dst").expect("OVS schema has tp_dst");
    let allows = [(tp_dst, 80), (src, 0x0a00_0001)];
    let mut dp = Datapath::builder(FlowTable::whitelist_default_deny(schema, &allows)).build();
    let mut keys =
        tse::attack::colocated::bit_inversion_keys(schema, &allows, &schema.zero_value());
    let first = keys.next().expect("the explosion has keys");
    dp.process_key(&first, 64, 0.0);

    let mut deep: Vec<(f64, f64)> = Vec::new();
    let mut shallow = (0.0, 0.0);
    let mut allocs_per_mask = 0.0;
    let mut targets = SWEEP_MASKS.iter().copied().peekable();
    for key in keys {
        let Some(&target) = targets.peek() else { break };
        dp.process_key(&key, 64, 0.0);
        if dp.mask_count() < target {
            continue;
        }
        targets.next();
        let mut cache = dp.megaflow().clone();
        let mut timed_lookup = |header: &Key, reps: usize| {
            let depth = cache.lookup(header, 0.0).masks_scanned;
            let ns = median_ns(|| {
                for _ in 0..reps {
                    black_box(cache.lookup(black_box(header), 0.0));
                }
            });
            (depth as f64, ns / reps as f64)
        };
        deep.push(timed_lookup(&first, DEEP_SCAN_MASKS / target));
        if targets.peek().is_none() {
            // `key` made the newest tuple: the first mask probed.
            shallow = timed_lookup(&key, DEEP_SCAN_MASKS / 4);
            let reps = DEEP_SCAN_MASKS / target;
            let (_, allocs, _) = alloc::counted(|| {
                for _ in 0..reps {
                    black_box(cache.lookup(black_box(&first), 0.0));
                }
            });
            allocs_per_mask = allocs as f64 / (reps * target) as f64;
        }
    }
    // The slope comes from the deep scans alone; the intercept is anchored at the
    // first-mask hit, which a fit through points 500 masks away cannot resolve.
    let (ns_per_mask, _) = fit_line(&deep);
    LookupDrill {
        ns_per_mask,
        fixed_ns: shallow.1 - ns_per_mask * shallow.0,
        allocs_per_mask,
        exploded: dp,
    }
}

/// Least-squares `(slope, intercept)` of `y` over `x`.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x, sy + y));
    let (mx, my) = (sx / n, sy / n);
    let (sxy, sxx) = points.iter().fold((0.0, 0.0), |(sxy, sxx), (x, y)| {
        (sxy + (x - mx) * (y - my), sxx + (x - mx) * (x - mx))
    });
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    (slope, my - slope * mx)
}

/// `classifier.insert_ns`, `classifier.expire_ns_per_entry`, `switch.upcall_ns`:
/// replay the sample's keys into a fresh cache — every miss goes through
/// `SlowPath::handle_upcall` under the clock — then re-insert the entries that made
/// into another fresh cache, and expire them all. Returns `(insert, expire, upcall)`.
pub fn churn(inst: &Instance, sample: &[(usize, TrafficEvent)]) -> (f64, f64, f64) {
    let table = inst.table();
    let mut cache = TupleSpace::with_ordering(inst.schema.clone(), MaskOrdering::NewestFirst);
    let mut slow = SlowPath::new(inst.strategy());
    let (mut upcalls, mut upcall_ns) = (0usize, 0u128);
    for (i, (_, ev)) in sample.iter().enumerate() {
        if matches!(ev.payload, EventPayload::Malformed { .. }) {
            continue;
        }
        // Distinct install times keep the entries' order recoverable below.
        let now = i as f64 * 1e-6;
        if cache.lookup(&ev.key, now).action.is_none() {
            let start = Instant::now();
            black_box(slow.handle_upcall(&table, &mut cache, &ev.key, now));
            upcall_ns += start.elapsed().as_nanos();
            upcalls += 1;
            if upcalls == MAX_DRILL_UPCALLS {
                break;
            }
        }
    }
    let mut entries: Vec<_> = cache.entries().cloned().collect();
    entries.sort_by(|a, b| a.installed_at.total_cmp(&b.installed_at));
    let n = entries.len().max(1) as f64;

    let mut fresh = TupleSpace::with_ordering(inst.schema.clone(), MaskOrdering::NewestFirst);
    let start = Instant::now();
    for e in &entries {
        black_box(fresh.insert(e.key.clone(), e.mask.clone(), e.action, 0.0)).ok();
    }
    let insert_ns = start.elapsed().as_nanos() as f64 / n;

    let start = Instant::now();
    black_box(fresh.expire_idle(1e9, 10.0));
    let expire_ns = start.elapsed().as_nanos() as f64 / n;

    (
        insert_ns,
        expire_ns,
        upcall_ns as f64 / upcalls.max(1) as f64,
    )
}

/// `switch.exec_dispatch_us`: one `for_each_shard` fan-out of an empty job on the
/// workload's own sharded datapath and executor.
pub fn dispatch(inst: &Instance) -> f64 {
    const DISPATCHES: usize = 2000;
    let mut runner = inst.runner(Exec::Workload);
    let ns = median_ns(|| {
        for _ in 0..DISPATCHES {
            black_box(runner.datapath.for_each_shard(|_, _| ()));
        }
    });
    ns / DISPATCHES as f64 / 1e3
}

/// `mitigation.guard_sweep_us`: one `MfcGuard::run_once` over a clone of the exploded
/// datapath.
pub fn guard_sweep(exploded: &Datapath) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let mut dp = exploded.clone();
            let mut guard = MfcGuard::new(GuardConfig {
                mask_threshold: 100,
                ..GuardConfig::default()
            });
            let start = Instant::now();
            black_box(guard.run_once(&mut dp, 1.0, 1000.0));
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_line_recovers_slope_and_intercept() {
        let points: Vec<(f64, f64)> = [1.0, 16.0, 257.0, 513.0]
            .iter()
            .map(|&x| (x, 290.0 + 105.0 * x))
            .collect();
        let (slope, intercept) = fit_line(&points);
        assert!((slope - 105.0).abs() < 1e-9, "{slope}");
        assert!((intercept - 290.0).abs() < 1e-6, "{intercept}");
        assert_eq!(fit_line(&[(3.0, 7.0)]), (0.0, 7.0));
    }
}
