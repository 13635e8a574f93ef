//! Datapath statistics: per-path packet counters and processing-time accounting.

use tse_packet::wire::DecodeError;

/// Which level of the cache hierarchy handled a packet (Fig. 10's pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathTaken {
    /// Megaflow (TSS) cache hit.
    Megaflow,
    /// Full slow-path processing (flow-table lookup + megaflow install).
    SlowPath,
    /// Dropped before classification (e.g. unsupported ethertype).
    Unclassified,
}

/// Aggregated counters for a datapath.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DatapathStats {
    /// Always 0: the datapath has no exact-match microflow level (the kernel datapath
    /// the paper measures has none). The field stays because `benchmark/` destructures
    /// the struct.
    pub microflow_hits: u64,
    /// Packets handled by the megaflow cache.
    pub megaflow_hits: u64,
    /// Packets that needed the slow path (upcalls).
    pub upcalls: u64,
    /// Packets permitted without classification (non-IP traffic, or a family mismatch
    /// with the installed table's schema).
    pub unclassified: u64,
    /// Packets ultimately permitted.
    pub allowed: u64,
    /// Packets ultimately dropped by policy.
    pub denied: u64,
    /// Total masks scanned over all megaflow lookups (hit or miss).
    pub masks_scanned: u64,
    /// Total simulated processing time, seconds.
    pub busy_seconds: f64,
    /// Total bytes of permitted traffic.
    pub allowed_bytes: u64,
    /// Always 0: a datapath takes keys and faults, never frames — sources decode each
    /// frame once, and the runner hands the datapath its key or its fault. The field
    /// stays because `benchmark/` destructures the struct; it goes with `microflow_hits`.
    pub decoded: u64,
    /// Raw frames rejected because the buffer was shorter than the headers claim.
    pub truncated: u64,
    /// Raw frames rejected for a malformed header (bad version nibble, bad checksum,
    /// or encapsulation nesting beyond the supported depth).
    pub bad_header: u64,
    /// Raw frames rejected for a non-IP ethertype.
    pub unsupported_ethertype: u64,
}

impl DatapathStats {
    /// Total packets processed.
    pub fn packets(&self) -> u64 {
        self.microflow_hits + self.megaflow_hits + self.upcalls + self.unclassified
    }

    /// Average masks scanned per megaflow lookup (hits + upcalls).
    pub fn avg_masks_scanned(&self) -> f64 {
        let lookups = self.megaflow_hits + self.upcalls;
        if lookups == 0 {
            0.0
        } else {
            self.masks_scanned as f64 / lookups as f64
        }
    }

    /// Fraction of packets that needed an upcall.
    pub fn upcall_ratio(&self) -> f64 {
        let p = self.packets();
        if p == 0 {
            0.0
        } else {
            self.upcalls as f64 / p as f64
        }
    }

    /// Record one processed packet.
    pub fn record(
        &mut self,
        path: PathTaken,
        permitted: bool,
        masks: usize,
        cost: f64,
        bytes: usize,
    ) {
        match path {
            PathTaken::Megaflow => self.megaflow_hits += 1,
            PathTaken::SlowPath => self.upcalls += 1,
            PathTaken::Unclassified => self.unclassified += 1,
        }
        if permitted {
            self.allowed += 1;
            self.allowed_bytes += bytes as u64;
        } else {
            self.denied += 1;
        }
        self.masks_scanned += masks as u64;
        self.busy_seconds += cost;
    }

    /// Count one wire-parser rejection under its per-kind counter. The frame itself is
    /// still recorded (as [`PathTaken::Unclassified`]) by the caller.
    pub fn record_decode_error(&mut self, err: DecodeError) {
        match err {
            DecodeError::Truncated => self.truncated += 1,
            DecodeError::UnsupportedEtherType(_) => self.unsupported_ethertype += 1,
            DecodeError::BadHeader => self.bad_header += 1,
        }
    }

    /// Fold another accumulator into this one (used by the batch entry points, which
    /// accumulate into a batch-local instance and merge once, and by
    /// [`ShardedDatapath::stats`](crate::pmd::ShardedDatapath::stats) to aggregate
    /// per-shard counters). Every field must be folded here — `merge_covers_every_field`
    /// below fails if a newly added counter is forgotten.
    pub fn merge(&mut self, other: &DatapathStats) {
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
        } = other;
        self.microflow_hits += microflow_hits;
        self.megaflow_hits += megaflow_hits;
        self.upcalls += upcalls;
        self.unclassified += unclassified;
        self.allowed += allowed;
        self.denied += denied;
        self.masks_scanned += masks_scanned;
        self.busy_seconds += busy_seconds;
        self.allowed_bytes += allowed_bytes;
        self.decoded += decoded;
        self.truncated += truncated;
        self.bad_header += bad_header;
        self.unsupported_ethertype += unsupported_ethertype;
    }

    /// Reset every counter (used between measurement intervals).
    pub fn reset(&mut self) {
        *self = DatapathStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = DatapathStats::default();
        s.record(PathTaken::Megaflow, true, 5, 1e-6, 1500);
        s.record(PathTaken::SlowPath, false, 10, 8e-5, 60);
        s.record(PathTaken::Unclassified, true, 0, 4e-7, 1500);
        assert_eq!(s.packets(), 3);
        assert_eq!(s.allowed, 2);
        assert_eq!(s.denied, 1);
        assert_eq!(s.allowed_bytes, 3000);
        assert_eq!(s.masks_scanned, 15);
        assert!((s.avg_masks_scanned() - 7.5).abs() < 1e-9);
        assert!((s.upcall_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DatapathStats::default();
        assert_eq!(s.packets(), 0);
        assert_eq!(s.avg_masks_scanned(), 0.0);
        assert_eq!(s.upcall_ratio(), 0.0);
    }

    /// A stats value with every field nonzero, built through the public API only —
    /// bar `microflow_hits` and `decoded`, which no path records, so they are set by hand.
    fn all_fields_nonzero() -> DatapathStats {
        let mut s = DatapathStats {
            microflow_hits: 1,
            decoded: 1,
            ..DatapathStats::default()
        };
        s.record(PathTaken::Megaflow, true, 3, 1e-6, 200);
        s.record(PathTaken::SlowPath, false, 7, 1e-4, 60);
        s.record(PathTaken::Unclassified, true, 0, 1e-7, 42);
        s.record_decode_error(DecodeError::Truncated);
        s.record_decode_error(DecodeError::BadHeader);
        s.record_decode_error(DecodeError::UnsupportedEtherType(0x0806));
        assert!(
            s.microflow_hits > 0
                && s.megaflow_hits > 0
                && s.upcalls > 0
                && s.unclassified > 0
                && s.allowed > 0
                && s.denied > 0
                && s.masks_scanned > 0
                && s.busy_seconds > 0.0
                && s.allowed_bytes > 0
                && s.decoded > 0
                && s.truncated > 0
                && s.bad_header > 0
                && s.unsupported_ethertype > 0,
            "fixture must exercise every counter"
        );
        s
    }

    #[test]
    fn merge_covers_every_field() {
        // Merging into a default accumulator must reproduce the source exactly; a field
        // forgotten in `merge` makes the struct equality fail.
        let s = all_fields_nonzero();
        let mut m = DatapathStats::default();
        m.merge(&s);
        assert_eq!(m, s);
        // Merging twice doubles every counter (associativity smoke check).
        m.merge(&s);
        assert_eq!(m.packets(), 2 * s.packets());
        assert_eq!(m.allowed_bytes, 2 * s.allowed_bytes);
        assert_eq!(m.busy_seconds, 2.0 * s.busy_seconds);
    }

    #[test]
    fn unclassified_packets_are_counted() {
        let mut s = DatapathStats::default();
        s.record(PathTaken::Unclassified, true, 0, 1e-7, 42);
        assert_eq!(s.unclassified, 1);
        assert_eq!(s.packets(), 1);
    }

    #[test]
    fn decode_errors_count_by_kind() {
        let mut s = DatapathStats::default();
        s.record_decode_error(DecodeError::Truncated);
        s.record_decode_error(DecodeError::Truncated);
        s.record_decode_error(DecodeError::BadHeader);
        s.record_decode_error(DecodeError::UnsupportedEtherType(0x88CC));
        assert_eq!(
            (s.truncated, s.bad_header, s.unsupported_ethertype),
            (2, 1, 1)
        );
        // Path recording (Unclassified) is the caller's job; the per-kind counters are
        // orthogonal to the packet totals.
        assert_eq!(s.packets(), 0);
    }

    #[test]
    fn reset_clears() {
        let mut s = DatapathStats::default();
        s.record(PathTaken::Megaflow, true, 1, 1e-6, 100);
        s.reset();
        assert_eq!(s, DatapathStats::default());
    }
}
