//! Slow-path CPU model for MFCGuard's balancing decision (Alg. 2, Fig. 9c).
//!
//! Removing drop entries from the MFC sends the matching (adversarial) packets back to
//! the slow path, so `ovs-vswitchd` burns CPU proportionally to the attack packet rate.
//! The model is calibrated against Fig. 9c: ≈15 % CPU at 1 000 pps, ≈80 % at 10 000 pps,
//! saturating around 250 % (the daemon spreads over a handful of handler threads) at
//! 50 000 pps.

/// CPU model of the slow-path daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowPathCpuModel {
    /// Idle/base utilisation of the daemon in percent (bookkeeping, revalidation).
    pub base_percent: f64,
    /// Seconds of CPU consumed per upcall.
    pub per_upcall_seconds: f64,
    /// Saturation ceiling in percent (total across handler threads).
    pub max_percent: f64,
}

impl SlowPathCpuModel {
    /// Calibration matching Fig. 9c.
    pub fn ovs_vswitchd_default() -> Self {
        SlowPathCpuModel {
            base_percent: 7.0,
            per_upcall_seconds: 75e-6,
            max_percent: 250.0,
        }
    }

    /// CPU utilisation (percent) at a sustained upcall rate (packets/s hitting the slow
    /// path).
    pub fn utilization_percent(&self, upcall_rate_pps: f64) -> f64 {
        let raw = self.base_percent + upcall_rate_pps * self.per_upcall_seconds * 100.0;
        raw.min(self.max_percent)
    }
}

impl Default for SlowPathCpuModel {
    fn default() -> Self {
        Self::ovs_vswitchd_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9c_anchor_points() {
        let m = SlowPathCpuModel::ovs_vswitchd_default();
        let at_1k = m.utilization_percent(1_000.0);
        let at_10k = m.utilization_percent(10_000.0);
        let at_50k = m.utilization_percent(50_000.0);
        assert!(
            (10.0..=20.0).contains(&at_1k),
            "≈15 % at 1 kpps, got {at_1k}"
        );
        assert!(
            (60.0..=100.0).contains(&at_10k),
            "≈80 % at 10 kpps, got {at_10k}"
        );
        assert!(
            (200.0..=250.0).contains(&at_50k),
            "saturates near 250 %, got {at_50k}"
        );
    }

    #[test]
    fn monotone_and_capped() {
        let m = SlowPathCpuModel::ovs_vswitchd_default();
        let mut prev = 0.0;
        for rate in [0.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6] {
            let u = m.utilization_percent(rate);
            assert!(u >= prev);
            assert!(u <= m.max_percent);
            prev = u;
        }
    }
}
