//! Batched header extraction: raw frames → [`FlowKey`]s through the real wire parser.
//!
//! This is the ingestion hot path: a slice of frames goes in, per-frame extraction
//! results come out, and in steady state **nothing touches the heap** — the scratch
//! buffers are reused across batches ([`FlowKey`] and [`DecodeError`] are both `Copy`,
//! and [`crate::wire::decode`] itself never allocates), which `tests/alloc_audit.rs`
//! pins with a counting global allocator. Decode failures are not dropped: each batch
//! carries exact per-kind error counts ([`ExtractCounts`]) so the datapath can charge
//! malformed traffic like the real switch does.

use crate::flowkey::FlowKey;
use crate::wire::{self, DecodeError};

/// Per-batch extraction accounting: how many frames decoded and how many failed, by
/// failure kind. The error kinds mirror the `truncated`/`bad_header`/
/// `unsupported_ethertype` counters in `tse-switch`'s `DatapathStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractCounts {
    /// Frames that decoded into a classifiable packet.
    pub decoded: u64,
    /// Frames shorter than their headers claim.
    pub truncated: u64,
    /// Frames with a header that failed validation.
    pub bad_header: u64,
    /// Frames with a non-IP ethertype.
    pub unsupported_ethertype: u64,
}

impl ExtractCounts {
    /// Total frames accounted (decoded + all error kinds).
    pub fn total(&self) -> u64 {
        let ExtractCounts {
            decoded,
            truncated,
            bad_header,
            unsupported_ethertype,
        } = *self;
        decoded + truncated + bad_header + unsupported_ethertype
    }

    /// Total frames that failed to decode.
    pub fn errors(&self) -> u64 {
        self.total() - self.decoded
    }

    fn note(&mut self, result: &Result<FlowKey, DecodeError>) {
        match result {
            Ok(_) => self.decoded += 1,
            Err(DecodeError::Truncated) => self.truncated += 1,
            Err(DecodeError::BadHeader) => self.bad_header += 1,
            Err(DecodeError::UnsupportedEtherType(_)) => self.unsupported_ethertype += 1,
        }
    }
}

/// Reusable scratch state for [`extract_keys_into`]: the per-frame results and the
/// batch's error accounting. Allocate once, reuse for every batch — after the first
/// batch at a given size the buffers are warm and extraction is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ExtractScratch {
    keys: Vec<Result<FlowKey, DecodeError>>,
    counts: ExtractCounts,
}

impl ExtractScratch {
    /// Fresh scratch state (no buffers warmed yet).
    pub fn new() -> Self {
        ExtractScratch::default()
    }

    /// Per-frame extraction results of the last batch, in frame order.
    pub fn keys(&self) -> &[Result<FlowKey, DecodeError>] {
        &self.keys
    }

    /// Error accounting of the last batch.
    pub fn counts(&self) -> ExtractCounts {
        self.counts
    }
}

/// Extract the flow key of every frame in `frames` into `scratch`, replacing the
/// previous batch's results. One parser pass per frame, no heap allocation once the
/// scratch buffers are warm.
pub fn extract_keys_into(frames: &[&[u8]], scratch: &mut ExtractScratch) {
    scratch.keys.clear();
    scratch.counts = ExtractCounts::default();
    for frame in frames {
        let result = wire::decode(frame).map(|pkt| FlowKey::from_packet(&pkt));
        scratch.counts.note(&result);
        scratch.keys.push(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::wire::{Encap, WireTrace};
    use crate::IpProto;

    #[test]
    fn batch_extraction_matches_per_frame_decode() {
        let packets: Vec<_> = (0..20)
            .map(|i| {
                PacketBuilder::tcp_v4([10, 0, 0, i], [10, 0, 0, 99], 1000 + i as u16, 80).build()
            })
            .collect();
        let frames: Vec<Vec<u8>> = packets.iter().map(wire::encode).collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let mut scratch = ExtractScratch::new();
        extract_keys_into(&refs, &mut scratch);
        assert_eq!(scratch.keys().len(), 20);
        assert_eq!(scratch.counts().decoded, 20);
        assert_eq!(scratch.counts().errors(), 0);
        for (i, r) in scratch.keys().iter().enumerate() {
            assert_eq!(*r, Ok(FlowKey::from_packet(&packets[i])));
        }
    }

    #[test]
    fn error_kinds_are_counted_per_batch() {
        let good = wire::encode(
            &PacketBuilder::from_numeric_v4(0x0102_0304, 0x0506_0708, IpProto::Udp, 1, 2).build(),
        );
        let truncated = good[..10].to_vec();
        let mut arp = vec![0u8; 60];
        arp[12] = 0x08;
        arp[13] = 0x06;
        let mut bad = good.clone();
        bad[14] = 0x66; // mangle the IPv4 version nibble
        let refs: Vec<&[u8]> = vec![&good, &truncated, &arp, &bad, &good];
        let mut scratch = ExtractScratch::new();
        extract_keys_into(&refs, &mut scratch);
        let counts = scratch.counts();
        assert_eq!(counts.decoded, 2);
        assert_eq!(counts.truncated, 1);
        assert_eq!(counts.unsupported_ethertype, 1);
        assert_eq!(counts.bad_header, 1);
        assert_eq!(counts.errors(), 3);
        assert_eq!(counts.total(), 5);
        // A following batch starts from zero (per-batch accounting).
        extract_keys_into(&[good.as_slice()], &mut scratch);
        assert_eq!(scratch.counts().decoded, 1);
        assert_eq!(scratch.counts().errors(), 0);
        assert_eq!(scratch.keys().len(), 1);
    }

    #[test]
    fn trace_extraction_sees_through_overlays() {
        let mut trace = WireTrace::new();
        let p4 = PacketBuilder::tcp_v4([10, 0, 0, 1], [10, 0, 0, 2], 5, 80).build();
        let p6 = PacketBuilder::from_numeric_v6(
            (0xfd00 << 112) | 1,
            (0xfd00 << 112) | 2,
            IpProto::Udp,
            7,
            53,
        )
        .build();
        trace.push_packet(0.0, &p4, Encap::None);
        trace.push_packet(0.1, &p4, Encap::Vlan { tci: 42 });
        trace.push_packet(
            0.2,
            &p6,
            Encap::Vxlan {
                outer_src: 1,
                outer_dst: 2,
                vni: 99,
            },
        );
        let frames: Vec<&[u8]> = trace.frames().collect();
        let mut scratch = ExtractScratch::new();
        extract_keys_into(&frames, &mut scratch);
        assert_eq!(scratch.counts().decoded, 3);
        let keys = scratch.keys();
        assert_eq!(keys[0], Ok(FlowKey::from_packet(&p4)));
        assert_eq!(
            keys[1], keys[0],
            "VLAN tag must not change the extracted key"
        );
        assert_eq!(keys[2], Ok(FlowKey::from_packet(&p6)));
        assert!(matches!(keys[2], Ok(k) if k.is_v6));
    }
}
