//! Per-packet processing cost model.
//!
//! The paper's testbed measures real wall-clock throughput of an OVS kernel datapath on
//! a Xeon server (Table 1). The reproduction runs no real datapath; instead it charges
//! every packet a processing time derived from the *algorithmic* work the classifier
//! reports:
//!
//! ```text
//! t(packet) = t_fixed  +  masks_scanned * t_mask  (+ t_upcall on a slow-path miss)
//! ```
//!
//! which is exactly Observation 1 turned into seconds. The constants are calibrated so
//! that the Baseline case (one mask, MTU frames) forwards ≈10 Gbps, matching the paper's
//! testbed; with that calibration the relative degradation at 17 / 260 / 516 / 8200
//! masks lands close to the §5.4 percentages. Absolute numbers are synthetic by
//! construction; the *shape* (who wins, by what factor, where the knees are) is what the
//! model preserves. How far the constants sit from what this implementation measures
//! per mask is recorded in `benchmark/README.md`.

use crate::stats::PathTaken;

/// Cost-model parameters. All times are in seconds per packet (or per classifier
/// invocation when offloads aggregate several packets into one invocation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-invocation cost of the fast path (parsing, action execution).
    pub fixed: f64,
    /// Cost of probing one megaflow mask (one hash lookup in Alg. 1).
    pub per_mask: f64,
    /// Extra cost of a slow-path upcall (full flow-table lookup, megaflow generation,
    /// flow install via netlink).
    pub upcall: f64,
    /// Cost of a packet that never reaches the classifier (parse and forward, no mask
    /// probed — cheaper than a full fast-path pass).
    pub unclassified: f64,
}

impl CostModel {
    /// Calibration used throughout the reproduction: ≈10 Gbps of MTU-sized traffic
    /// through a single-mask MFC (the Baseline of §5.2).
    ///
    /// 10 Gbps at 1538 bytes on the wire (1500 MTU + Ethernet + preamble/IFG ignored)
    /// is ≈813 kpps → ≈1.23 µs per packet. We split that into 1.17 µs fixed + 60 ns per
    /// mask so that the degradation knee matches §5.4 (≈53 % of baseline at 17 masks for
    /// GRO OFF).
    ///
    /// The 60 ns per mask is the paper's kernel datapath, not this implementation: a
    /// warm, missed `TupleSpace::lookup` at the five use cases' mask counts (1 to 8209)
    /// fits **2.7–3.0 ns per mask**, R² ≥ 0.9999 (`fig9a_throughput_vs_masks`'s
    /// `lookup/ns_per_mask` row; five runs on a 2-vCPU Intel Xeon VM, 2.0 in a quiet
    /// moment of that host), where the same rows at the scan before the lane record
    /// carried its agreement words read 6.5–7.4 ns. Observation 1's linearity holds in
    /// host time too; its slope is ~20× below the modelled one.
    pub fn ovs_kernel_default() -> Self {
        CostModel {
            fixed: 1.17e-6,
            per_mask: 60e-9,
            upcall: 80e-6,
            unclassified: 0.45e-6,
        }
    }

    /// A hardware-offloaded datapath (Mellanox CX-4 "FHO" in Table 1): ≈3× the baseline
    /// capacity and a much cheaper per-mask probe, but the same linear dependence on the
    /// number of masks — which is why §5.4 finds it still vulnerable.
    pub fn full_hw_offload() -> Self {
        CostModel {
            fixed: 0.40e-6,
            per_mask: 3.0e-9,
            upcall: 80e-6,
            unclassified: 0.10e-6,
        }
    }

    /// Processing time of one fast-path invocation that scanned `masks_scanned` masks.
    #[inline]
    pub fn fast_path(&self, masks_scanned: usize) -> f64 {
        self.fixed + self.per_mask * masks_scanned as f64
    }

    /// Processing time of a slow-path miss that scanned `masks_scanned` masks before
    /// falling through.
    #[inline]
    pub fn slow_path(&self, masks_scanned: usize) -> f64 {
        self.fast_path(masks_scanned) + self.upcall
    }

    /// The one function from what a packet did — the cache level that answered it and
    /// the fast-path work `units` it scanned on the way — to seconds. Every charge goes
    /// through here: the datapath's own accounting and the experiment runner's
    /// re-pricing of victim probes under its offload model. A frame that never reached
    /// the classifier ([`PathTaken::Unclassified`]) costs [`CostModel::unclassified`].
    #[inline]
    pub fn path_cost(&self, path: PathTaken, units: usize) -> f64 {
        match path {
            PathTaken::Unclassified => self.unclassified,
            PathTaken::Megaflow => self.fast_path(units),
            PathTaken::SlowPath => self.slow_path(units),
        }
    }

    /// Sustainable packet rate (packets/s) if every packet scans `masks` masks.
    pub fn capacity_pps(&self, masks: usize) -> f64 {
        1.0 / self.fast_path(masks)
    }

    /// Sustainable throughput in Gbps for `wire_bytes`-sized frames when every packet
    /// scans `masks` masks, capped at `line_rate_gbps`.
    pub fn capacity_gbps(&self, masks: usize, wire_bytes: usize, line_rate_gbps: f64) -> f64 {
        let gbps = self.capacity_pps(masks) * wire_bytes as f64 * 8.0 / 1e9;
        gbps.min(line_rate_gbps)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::ovs_kernel_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_about_10_gbps() {
        let m = CostModel::ovs_kernel_default();
        let gbps = m.capacity_gbps(1, 1538, 10.0);
        assert!(
            gbps > 9.0,
            "baseline capacity {gbps} Gbps should be ~10 Gbps"
        );
    }

    #[test]
    fn degradation_shape_matches_section_5_4() {
        // §5.4, GRO OFF: 17 masks → ~53 %, 260 → ~10 %, 516 → ~4.7 %, 8200 → ~0.2 %.
        let m = CostModel::ovs_kernel_default();
        let base = m.capacity_gbps(1, 1538, 10.0);
        let pct = |masks: usize| m.capacity_gbps(masks, 1538, 10.0) / base * 100.0;
        assert!((35.0..=70.0).contains(&pct(17)), "17 masks: {}", pct(17));
        assert!((5.0..=20.0).contains(&pct(260)), "260 masks: {}", pct(260));
        assert!((2.0..=10.0).contains(&pct(516)), "516 masks: {}", pct(516));
        assert!(pct(8200) < 1.0, "8200 masks: {}", pct(8200));
    }

    #[test]
    fn hw_offload_faster_but_still_degrades() {
        let hw = CostModel::full_hw_offload();
        let sw = CostModel::ovs_kernel_default();
        assert!(hw.capacity_pps(1) > 2.0 * sw.capacity_pps(1));
        // Still drops by >10x between 1 and 8200 masks.
        assert!(hw.capacity_pps(1) / hw.capacity_pps(8200) > 10.0);
    }

    #[test]
    fn slow_path_dominated_by_upcall() {
        let m = CostModel::ovs_kernel_default();
        assert!(m.slow_path(1) > 10.0 * m.fast_path(1));
        assert!(m.unclassified < m.fast_path(1));
        // The path → seconds function is those three, by path.
        assert_eq!(m.path_cost(PathTaken::SlowPath, 1), m.slow_path(1));
        assert_eq!(m.path_cost(PathTaken::Megaflow, 1), m.fast_path(1));
        assert_eq!(m.path_cost(PathTaken::Unclassified, 1), m.unclassified);
    }

    #[test]
    fn line_rate_cap_applies() {
        let m = CostModel::full_hw_offload();
        assert_eq!(m.capacity_gbps(1, 1538, 30.0), 30.0);
    }
}
