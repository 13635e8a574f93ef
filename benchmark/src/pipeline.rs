//! The hand-rolled pipeline of the traced pass: the same seed's inputs re-driven stage
//! by stage through the public functions `run_mix` itself calls, with a span around
//! every stage of every sample interval.
//!
//! Per interval: scheduled table installs → drain (`TrafficMix::next_before`) →
//! `Prepartition::compute` → `process_timed_batch_prepartitioned` → wire faults and
//! idle expiry → probes (`Datapath::process_key`) → `MitigationStack::on_sample` (with
//! a hand-built `MitigationCtx`) → `TelemetryStore::record`. It differs from `run_mix`
//! in two ways, neither of which can change what the datapath sees: nothing overlaps
//! (interval k + 1 is drained after interval k is processed, on the calling thread),
//! and the victim-throughput arithmetic is skipped — the store is fed the reference
//! run's own samples instead, so `record` does the work it did there.

use tse::mitigation::stack::MitigationCtx;
use tse::packet::wire::WireFault;
use tse::prelude::*;
use tse::switch::stats::DatapathStats;

use crate::trace::Recorder;
use crate::workloads::{Exec, Instance};

/// One source's contiguous packet run within an interval, plus its shard partition.
#[derive(Debug, Default)]
struct Chunk {
    src: usize,
    events: Vec<(Key, usize, f64)>,
    prep: Prepartition,
}

/// What the staged pipeline did.
#[derive(Debug)]
pub struct StagedRun {
    /// Final datapath statistics — must equal the reference `run_mix` run's.
    pub stats: DatapathStats,
    /// Wall seconds of the whole staged loop.
    pub wall_s: f64,
    /// Packet events that went through a chunk.
    pub packet_events: u64,
    /// Chunks (contiguous same-source runs within an interval) they arrived in.
    pub chunks: u64,
    /// Fast-path lookups made inside the process stage (hits + misses).
    pub process_lookups: u64,
    /// Masks those lookups scanned.
    pub process_masks_scanned: u64,
    /// Upcalls taken inside the process stage.
    pub process_upcalls: u64,
    /// The first interval whose end-of-interval masks, entries or mitigation actions
    /// differ from the reference run's, if any.
    pub diverged: Option<String>,
}

/// Re-drive `inst` stage by stage on executor `exec`, recording spans into `rec`.
/// `reference` is the timeline `run_mix` returned for the same instance.
pub fn run_staged(
    inst: &Instance,
    exec: Exec,
    reference: &Timeline,
    rec: &mut Recorder,
) -> StagedRun {
    let mut runner = inst.runner(exec);
    let mut mix = inst.mix();
    let updates = inst.table_updates();
    let dt = runner.sample_interval;
    let steps = (inst.duration / dt).ceil() as usize;
    let n_shards = runner.datapath.shard_count();
    let roles = mix.roles();
    let mut store = TelemetryStore::new(
        runner.telemetry_config.clone(),
        dt,
        reference.victim_names.clone(),
        reference.attacker_names.clone(),
        n_shards,
    );
    let zeros = vec![0.0f64; n_shards];
    // The reference timeline is the hot ring's window; it starts `skipped` intervals
    // in when the run was longer than the ring.
    let skipped = steps - reference.samples.len().min(steps);

    let wall = std::time::Instant::now();
    let run = rec.open("run", None, None);
    if !runner.mitigations.is_empty() {
        let mut ctx = MitigationCtx {
            datapath: &mut runner.datapath,
            now: 0.0,
            dt,
            shard_attack_pps: &zeros,
            shard_delivered_pps: &zeros,
            shard_busy_seconds: &zeros,
            pressure: store.pressure(),
        };
        runner.mitigations.on_start(&mut ctx);
    }

    let mut chunks: Vec<Chunk> = Vec::new();
    let mut probes: Vec<(usize, TrafficEvent)> = Vec::new();
    let mut faults: Vec<(WireFault, usize, f64)> = Vec::new();
    let mut update_cursor = 0;
    let (mut packet_events, mut chunk_count) = (0u64, 0u64);
    let (mut lookups, mut masks_scanned, mut upcalls) = (0u64, 0u64, 0u64);
    let mut diverged = None;
    for step in 0..steps {
        let (t, t_end) = (step as f64 * dt, step as f64 * dt + dt);
        let interval = rec.open("interval", Some(run), Some(step));

        rec.stage("install_table", interval, step, || {
            let mut installs = 0;
            while update_cursor < updates.len() && updates[update_cursor].0 <= t {
                runner
                    .datapath
                    .install_table(updates[update_cursor].1.clone());
                update_cursor += 1;
                installs += 1;
            }
            ((), installs)
        });

        let n_chunks = rec.stage("drain", interval, step, || {
            probes.clear();
            faults.clear();
            let (mut n_chunks, mut chunk_src, mut drained) = (0, usize::MAX, 0);
            while let Some((src, ev)) = mix.next_before(t_end) {
                drained += 1;
                match ev.payload {
                    EventPayload::Packet if ev.time >= t => {
                        if src != chunk_src {
                            if n_chunks == chunks.len() {
                                chunks.push(Chunk::default());
                            }
                            let chunk = &mut chunks[n_chunks];
                            chunk.src = src;
                            chunk.events.clear();
                            chunk.prep.clear();
                            n_chunks += 1;
                            chunk_src = src;
                        }
                        chunks[n_chunks - 1]
                            .events
                            .push((ev.key, ev.bytes, ev.time));
                    }
                    EventPayload::Malformed { fault } if ev.time >= t => {
                        faults.push((fault, ev.bytes, ev.time));
                    }
                    EventPayload::Probe { .. } => probes.push((src, ev)),
                    // Packets that predate the window are consumed unrecorded.
                    EventPayload::Packet | EventPayload::Malformed { .. } => {}
                }
            }
            (n_chunks, drained)
        });
        let live = &mut chunks[..n_chunks];
        chunk_count += n_chunks as u64;
        packet_events += live.iter().map(|c| c.events.len() as u64).sum::<u64>();

        if n_shards > 1 {
            let view = runner.datapath.steering_view();
            rec.stage("partition", interval, step, || {
                for chunk in live.iter_mut() {
                    chunk.prep.compute(&view, &chunk.events);
                }
                ((), n_chunks as u64)
            });
        }

        let mut shard_busy = vec![0.0f64; n_shards];
        let mut shard_packets = vec![0u64; n_shards];
        let before = runner.datapath.stats();
        rec.stage("process", interval, step, || {
            for chunk in live.iter_mut() {
                let report = runner
                    .datapath
                    .process_timed_batch_prepartitioned(&chunk.events, &mut chunk.prep);
                let background = roles[chunk.src] == SourceRole::Background;
                for (s, r) in report.per_shard.iter().enumerate() {
                    shard_busy[s] += r.total_cost;
                    if !background {
                        shard_packets[s] += r.processed as u64;
                    }
                }
            }
            ((), n_chunks as u64)
        });
        let after = runner.datapath.stats();
        lookups += (after.megaflow_hits + after.upcalls) - (before.megaflow_hits + before.upcalls);
        masks_scanned += after.masks_scanned - before.masks_scanned;
        upcalls += after.upcalls - before.upcalls;

        rec.stage("faults_expire", interval, step, || {
            for &(fault, bytes, time) in &faults {
                shard_busy[0] += runner.datapath.note_wire_fault(fault, bytes, time).cost;
            }
            runner.datapath.maybe_expire(t_end);
            ((), faults.len() as u64 + 1)
        });

        let mut shard_probes = vec![0u64; n_shards];
        rec.stage("probes", interval, step, || {
            let mut calls = 0;
            for (src, ev) in &probes {
                if roles[*src] != SourceRole::Victim {
                    continue;
                }
                let shard = runner.datapath.shard_of_key(&ev.key);
                shard_probes[shard] += 1;
                runner
                    .datapath
                    .shard_mut(shard)
                    .process_key(&ev.key, ev.bytes, ev.time);
                calls += 1;
            }
            ((), calls)
        });

        let shard_attack_pps: Vec<f64> = shard_packets.iter().map(|&c| c as f64 / dt).collect();
        store.note_pressure(&shard_attack_pps);
        let actions = if runner.mitigations.is_empty() {
            Vec::new()
        } else {
            let delivered_pps: Vec<f64> = shard_packets
                .iter()
                .zip(&shard_probes)
                .map(|(&pkts, &probes)| (pkts + probes) as f64 / dt)
                .collect();
            rec.stage("on_sample", interval, step, || {
                let mut ctx = MitigationCtx {
                    datapath: &mut runner.datapath,
                    now: t_end,
                    dt,
                    shard_attack_pps: &shard_attack_pps,
                    shard_delivered_pps: &delivered_pps,
                    shard_busy_seconds: &shard_busy,
                    pressure: store.pressure(),
                };
                (runner.mitigations.on_sample(&mut ctx), 1)
            })
        };

        if let Some(sample) = step
            .checked_sub(skipped)
            .and_then(|i| reference.samples.get(i))
        {
            let (masks, entries) = (runner.datapath.mask_count(), runner.datapath.entry_count());
            if diverged.is_none()
                && (masks, entries, &actions)
                    != (
                        sample.mask_count,
                        sample.entry_count,
                        &sample.mitigation_actions,
                    )
            {
                diverged = Some(format!(
                    "interval {step}: staged {masks} masks / {entries} entries / {} actions, \
                     run_mix {} / {} / {}",
                    actions.len(),
                    sample.mask_count,
                    sample.entry_count,
                    sample.mitigation_actions.len()
                ));
            }
            let sample = sample.clone();
            rec.stage("record", interval, step, || (store.record(sample, &[]), 1));
        }
        rec.close(interval, 0);
    }
    if !runner.mitigations.is_empty() {
        let mut ctx = MitigationCtx {
            datapath: &mut runner.datapath,
            now: steps as f64 * dt,
            dt,
            shard_attack_pps: &zeros,
            shard_delivered_pps: &zeros,
            shard_busy_seconds: &zeros,
            pressure: store.pressure(),
        };
        runner.mitigations.on_finish(&mut ctx);
    }
    store.finish();
    rec.close(run, steps as u64);

    StagedRun {
        stats: runner.datapath.stats(),
        wall_s: wall.elapsed().as_secs_f64(),
        packet_events,
        chunks: chunk_count,
        process_lookups: lookups,
        process_masks_scanned: masks_scanned,
        process_upcalls: upcalls,
        diverged,
    }
}
