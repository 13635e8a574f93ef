//! Slow-path CPU model for MFCGuard's balancing decision (Alg. 2, Fig. 9c).
//!
//! Removing drop entries from the MFC sends the matching (adversarial) packets back to
//! the slow path, so `ovs-vswitchd` burns CPU proportionally to the attack packet rate.
//! The model is calibrated against Fig. 9c: ≈15 % CPU at 1 000 pps, ≈80 % at 10 000 pps,
//! saturating around 250 % (the daemon spreads over a handful of handler threads) at
//! 50 000 pps.

/// Idle/base utilisation of the daemon in percent (bookkeeping, revalidation).
const BASE_PERCENT: f64 = 7.0;
/// Seconds of CPU consumed per upcall.
const PER_UPCALL_SECONDS: f64 = 75e-6;
/// Saturation ceiling in percent (total across handler threads).
const MAX_PERCENT: f64 = 250.0;

/// `ovs-vswitchd`'s CPU utilisation (percent) at a sustained upcall rate (packets/s
/// hitting the slow path).
pub fn utilization_percent(upcall_rate_pps: f64) -> f64 {
    let raw = BASE_PERCENT + upcall_rate_pps * PER_UPCALL_SECONDS * 100.0;
    raw.min(MAX_PERCENT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9c_anchor_points() {
        let at_1k = utilization_percent(1_000.0);
        let at_10k = utilization_percent(10_000.0);
        let at_50k = utilization_percent(50_000.0);
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
        let mut prev = 0.0;
        for rate in [0.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6] {
            let u = utilization_percent(rate);
            assert!(u >= prev);
            assert!(u <= MAX_PERCENT);
            prev = u;
        }
    }
}
