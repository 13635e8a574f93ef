//! Output checks: the linear-scan oracle, event accounting, the simulated-result
//! digest and the per-workload invariants — everything that feeds `failed_ops_share`.

use tse::mitigation::guard::GuardReport;
use tse::packet::wire::WireFault;
use tse::prelude::*;
use tse::switch::stats::DatapathStats;

use crate::workloads::{Instance, Kind};

/// What an obviously-correct switch — a linear [`FlowTable::lookup`] per event, no
/// caches, no shards — makes of a workload's event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleTotals {
    /// Events drained below the horizon: packets + probes + malformed.
    pub events: u64,
    /// Events the table (or the wire-fault rule) permits.
    pub allowed: u64,
    /// Events it drops.
    pub denied: u64,
}

/// Drain the instance's own mix exactly as `run_mix` does — one sample interval at a
/// time, scheduled table updates applied at the start of the first interval at or
/// after their time — and classify every event against the table alone.
pub fn oracle(inst: &Instance) -> OracleTotals {
    let dt = 1.0;
    let steps = (inst.duration / dt).ceil() as usize;
    let mut mix = inst.mix();
    let initial = inst.table();
    let updates = inst.table_updates();
    let mut table = &initial;
    let mut cursor = 0;
    let mut totals = OracleTotals::default();
    for step in 0..steps {
        let t = step as f64 * dt;
        while cursor < updates.len() && updates[cursor].0 <= t {
            table = &updates[cursor].1;
            cursor += 1;
        }
        while let Some((_, ev)) = mix.next_before(t + dt) {
            let permitted = match ev.payload {
                EventPayload::Packet | EventPayload::Probe { .. } => {
                    table.lookup(&ev.key).is_some_and(|m| m.action.permits())
                }
                // A frame the parser cannot delimit is dropped; a family mismatch is
                // forwarded unclassified (`Datapath::note_wire_fault`).
                EventPayload::Malformed { fault } => matches!(fault, WireFault::FamilyMismatch),
            };
            totals.events += 1;
            if permitted {
                totals.allowed += 1;
            } else {
                totals.denied += 1;
            }
        }
    }
    totals
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn floats(&mut self, vs: &[f64]) {
        self.word(vs.len() as u64);
        vs.iter().for_each(|&v| self.float(v));
    }

    fn counts(&mut self, vs: &[usize]) {
        self.word(vs.len() as u64);
        vs.iter().for_each(|&v| self.word(v as u64));
    }
}

/// Digest of a run's simulated result: every field of every [`TimelineSample`], bit
/// for bit, then the final [`DatapathStats`]. The destructurings are exhaustive, so a
/// field added to any of these types fails to compile here instead of silently
/// escaping the digest.
pub fn digest(timeline: &Timeline, stats: &DatapathStats) -> u64 {
    let mut h = Fnv::new();
    h.word(timeline.samples.len() as u64);
    for sample in &timeline.samples {
        let TimelineSample {
            time,
            victim_gbps,
            attacker_pps,
            attacker_pps_by_source,
            background_pps,
            malformed_pps,
            mask_count,
            entry_count,
            victim_masks_scanned,
            shard_masks,
            shard_entries,
            shard_attacker_pps,
            mitigation_actions,
        } = sample;
        h.float(*time);
        h.floats(victim_gbps);
        h.float(*attacker_pps);
        h.floats(attacker_pps_by_source);
        h.float(*background_pps);
        h.float(*malformed_pps);
        h.word(*mask_count as u64);
        h.word(*entry_count as u64);
        h.word(*victim_masks_scanned as u64);
        h.counts(shard_masks);
        h.counts(shard_entries);
        h.floats(shard_attacker_pps);
        h.word(mitigation_actions.len() as u64);
        for action in mitigation_actions {
            digest_action(&mut h, action);
        }
    }
    let DatapathStats {
        microflow_hits,
        megaflow_hits,
        upcalls,
        unclassified,
        allowed,
        denied,
        masks_scanned,
        busy_seconds,
        allowed_bytes,
        decoded,
        truncated,
        bad_header,
        unsupported_ethertype,
    } = *stats;
    for v in [
        microflow_hits,
        megaflow_hits,
        upcalls,
        unclassified,
        allowed,
        denied,
        masks_scanned,
        busy_seconds.to_bits(),
        allowed_bytes,
        decoded,
        truncated,
        bad_header,
        unsupported_ethertype,
    ] {
        h.word(v);
    }
    h.0
}

fn digest_action(h: &mut Fnv, action: &MitigationAction) {
    match action {
        MitigationAction::GuardSweep(GuardReport {
            time,
            shard,
            masks_before,
            masks_after,
            entries_removed,
            projected_cpu_percent,
            stopped_by_cpu,
        }) => {
            h.word(1);
            h.float(*time);
            h.counts(&[*shard, *masks_before, *masks_after, *entries_removed]);
            h.float(*projected_cpu_percent);
            h.word(u64::from(*stopped_by_cpu));
        }
        MitigationAction::Rekeyed {
            time,
            old_key,
            new_key,
        } => {
            h.word(2);
            h.float(*time);
            h.word(*old_key);
            h.word(*new_key);
        }
        MitigationAction::UpcallsClamped {
            shard,
            denied,
            quota,
        } => {
            h.word(3);
            h.word(*shard as u64);
            h.word(*denied);
            h.word(*quota);
        }
        MitigationAction::MaskCapped {
            shard,
            masks_evicted,
            entries_removed,
            ceiling,
        } => {
            h.word(4);
            h.counts(&[*shard, *masks_evicted, *entries_removed, *ceiling]);
        }
    }
}

/// Masks the SipDp explosion installs: 32 × 16 deny tuples plus the allow tuple.
const EXPLOSION_MASKS: usize = 513;

/// The invariants a workload's name promises, checked on the timed run. Returns one
/// line per violation; any violation fails every event of the run.
pub fn invariant_violations(
    inst: &Instance,
    timeline: &Timeline,
    stats: &DatapathStats,
) -> Vec<String> {
    let mut out = Vec::new();
    let peak_masks = timeline.samples.iter().map(|s| s.mask_count).max();
    match inst.workload.kind {
        Kind::ScanDeep => {
            if let Some(bad) = timeline
                .samples
                .iter()
                .find(|s| s.mask_count != EXPLOSION_MASKS)
            {
                out.push(format!(
                    "scan_deep must hold {EXPLOSION_MASKS} masks throughout, saw {} at t={}",
                    bad.mask_count, bad.time
                ));
            }
            if stats.upcalls != 0 {
                out.push(format!(
                    "scan_deep must be read-only in the timed phase, saw {} upcalls",
                    stats.upcalls
                ));
            }
        }
        Kind::EntryChurnV6 => {
            if peak_masks > Some(32) {
                out.push(format!(
                    "entry_churn_v6 must stay within 32 masks, peaked at {peak_masks:?}"
                ));
            }
        }
        Kind::BenignWire => {
            let malformed: f64 = timeline.samples.iter().map(|s| s.malformed_pps).sum();
            let injected = inst.garbage_frames();
            if malformed.round() as u64 != injected || stats.truncated != injected {
                out.push(format!(
                    "benign_wire injected {injected} garbage frames, timeline counted {malformed}, \
                     stats counted {} truncated",
                    stats.truncated
                ));
            }
        }
        Kind::TenantGateway | Kind::SprayPool => {}
    }
    out
}

/// Events of a run that the oracle disagrees with, or that were drained but never
/// accounted as processed or malformed.
pub fn oracle_mismatches(stats: &DatapathStats, oracle: &OracleTotals) -> u64 {
    stats.allowed.abs_diff(oracle.allowed)
        + stats.denied.abs_diff(oracle.denied)
        + stats.packets().abs_diff(oracle.events)
}
