//! The traced pass of one workload: a reference `run_mix` run, the same run with the
//! allocation counter armed, the staged pipeline with spans, then the layer drills —
//! every per-layer metric by name.

use std::path::Path;
use std::time::Instant;

use crate::alloc;
use crate::check;
use crate::drills;
use crate::metrics::{PerLayer, PER_LAYER};
use crate::pipeline::run_staged;
use crate::trace::Recorder;
use crate::workloads::{Exec, Workload};

/// What the traced pass of one workload produced.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric with its definition, in [`PER_LAYER`] order.
    pub metrics: Vec<(&'static PerLayer, f64)>,
    /// Events of the reference run.
    pub events: u64,
    /// Events failed: all of them if the staged pipeline diverged from `run_mix`.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

/// Run the traced pass. Spans go to `<out_dir>/trace-<workload>.jsonl`.
pub fn trace_workload(
    workload: &'static Workload,
    seed: u64,
    sim_seconds: f64,
    out_dir: &Path,
) -> std::io::Result<Traced> {
    let inst = workload.instance(seed, sim_seconds);
    let run_mix = || {
        let mut runner = inst.runner(Exec::Workload);
        let mix = inst.mix();
        let start = Instant::now();
        let timeline = runner.run_mix(mix, inst.duration);
        (timeline, start.elapsed().as_secs_f64(), runner)
    };

    // Reference: the one entry point, untraced, counter disarmed.
    let (timeline, run_mix_s, runner) = run_mix();
    let stats = runner.datapath.stats();
    let events = stats.packets();
    let footprint = runner
        .last_telemetry()
        .map_or(0, |store| store.footprint_units());
    drop(runner);

    // The same call again with the allocation counter armed. Counting costs two
    // atomic adds per allocation, so this run is not timed — and the staged run
    // below, which is, runs disarmed.
    let ((counted_timeline, _, counted_runner), allocs, alloc_bytes) = alloc::counted(run_mix);
    let mut notes = Vec::new();
    if check::digest(&counted_timeline, &counted_runner.datapath.stats())
        != check::digest(&timeline, &stats)
    {
        notes.push("two run_mix runs of one seed in one process disagree".to_owned());
    }
    drop(counted_runner);

    // Traced: the same inputs stage by stage, a span around every stage.
    let mut rec = Recorder::new();
    let staged = run_staged(&inst, Exec::Workload, &timeline, &mut rec);
    std::fs::create_dir_all(out_dir)?;
    rec.write_jsonl(&out_dir.join(format!("trace-{}.jsonl", workload.name)))?;

    if staged.stats != stats {
        notes.push(format!(
            "staged pipeline stats {:?} differ from run_mix stats {stats:?}",
            staged.stats
        ));
    }
    notes.extend(staged.diverged.clone());

    let total_ns = |name: &str| rec.total(name).0 as f64;
    let (process_ns, _) = rec.total("process");
    // Base: sequential. On a workload defined on the sequential executor the two
    // sides are the same run.
    let sequential_process_ns = if inst.uses_pool() {
        let mut seq = Recorder::new();
        let base = run_staged(&inst, Exec::Sequential, &timeline, &mut seq);
        if base.stats != stats {
            notes.push("sequential staged pipeline diverged from run_mix".to_owned());
        }
        seq.total("process").0
    } else {
        process_ns
    };
    let exec_speedup = sequential_process_ns as f64 / process_ns.max(1) as f64;

    let (drain_ns_per_event, drained) = drills::drain(&inst);
    let sample = drills::sample(&inst);
    let packet = drills::packet(&inst, &sample);
    let lookup = drills::lookup(&inst);
    let (insert_ns, expire_ns, upcall_ns) = drills::churn(&inst, &sample);

    let packet_events = staged.packet_events.max(1) as f64;
    // What is left of the process stage once the classifier and slow-path work inside
    // it is priced at the drills' rates — a model, not a measurement. The work is
    // summed over shards, so it is set against the sequential span.
    let process_self_ns = sequential_process_ns as f64
        - staged.process_lookups as f64 * lookup.fixed_ns
        - staged.process_masks_scanned as f64 * lookup.ns_per_mask
        - staged.process_upcalls as f64 * upcall_ns;
    let (probe_ns, probes) = rec.total("probes");
    let (on_sample_ns, on_samples) = rec.total("on_sample");
    let (record_ns, records) = rec.total("record");
    let per_call = |ns: u64, calls: u64| ns as f64 / calls.max(1) as f64;
    let peak = |f: fn(&tse::prelude::TimelineSample) -> usize| {
        timeline.samples.iter().map(f).max().unwrap_or(0) as f64
    };
    let actions: usize = timeline
        .samples
        .iter()
        .map(|s| s.mitigation_actions.len())
        .sum();

    let values = [
        ("attack.drain_ns_per_event", drain_ns_per_event),
        ("attack.events", drained as f64),
        ("packet.decode_ns_per_frame", packet.decode_ns_per_frame),
        (
            "packet.extract_batch_ns_per_frame",
            packet.extract_batch_ns_per_frame,
        ),
        ("packet.to_key_ns", packet.to_key_ns),
        ("packet.allocs_per_frame", packet.allocs_per_frame),
        ("packet.decode_errors", packet.decode_errors as f64),
        ("classifier.lookup_ns_per_mask", lookup.ns_per_mask),
        ("classifier.lookup_fixed_ns", lookup.fixed_ns),
        ("classifier.lookup_allocs_per_mask", lookup.allocs_per_mask),
        ("classifier.insert_ns", insert_ns),
        ("classifier.expire_ns_per_entry", expire_ns),
        ("switch.upcall_ns", upcall_ns),
        (
            "classifier.masks_scanned_per_lookup",
            stats.avg_masks_scanned(),
        ),
        ("classifier.peak_masks", peak(|s| s.mask_count)),
        ("classifier.peak_entries", peak(|s| s.entry_count)),
        ("switch.upcall_share", stats.upcall_ratio()),
        ("switch.upcalls", stats.upcalls as f64),
        ("switch.megaflow_hits", stats.megaflow_hits as f64),
        (
            "classifier.microflow_lookup_ns",
            drills::microflow(&packet.packets),
        ),
        (
            "switch.partition_ns_per_event",
            total_ns("partition") / packet_events,
        ),
        (
            "switch.process_ns_per_event",
            process_ns as f64 / packet_events,
        ),
        (
            "switch.process_self_ns_per_event",
            process_self_ns / packet_events,
        ),
        ("switch.exec_dispatch_us", drills::dispatch(&inst)),
        ("switch.exec_speedup", exec_speedup),
        (
            "mitigation.on_sample_us",
            per_call(on_sample_ns, on_samples) / 1e3,
        ),
        (
            "mitigation.guard_sweep_us",
            drills::guard_sweep(&lookup.exploded),
        ),
        ("mitigation.actions", actions as f64),
        (
            "simnet.run_mix_self_share",
            1.0 - (total_ns("drain") + total_ns("partition") + process_ns as f64)
                / (run_mix_s * 1e9),
        ),
        ("simnet.probe_ns", per_call(probe_ns, probes)),
        (
            "simnet.telemetry_record_us",
            per_call(record_ns, records) / 1e3,
        ),
        ("simnet.telemetry_footprint_units", footprint as f64),
        (
            "simnet.chunk_events_mean",
            staged.packet_events as f64 / staged.chunks.max(1) as f64,
        ),
        (
            "simnet.allocs_per_event",
            allocs as f64 / events.max(1) as f64,
        ),
        (
            "simnet.alloc_bytes_per_event",
            alloc_bytes as f64 / events.max(1) as f64,
        ),
        (
            "bench.trace_overhead_pct",
            100.0 * (staged.wall_s / run_mix_s - 1.0),
        ),
    ];
    assert!(
        values
            .iter()
            .map(|v| v.0)
            .eq(PER_LAYER.iter().map(|m| m.name)),
        "the traced pass must emit exactly the PER_LAYER metrics, in order"
    );
    let metrics = PER_LAYER.iter().zip(values.map(|v| v.1)).collect();
    let failed = if notes.is_empty() { 0 } else { events };
    Ok(Traced {
        metrics,
        events,
        failed,
        notes,
    })
}
