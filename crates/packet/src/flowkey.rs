//! Flow-key extraction: turning a concrete [`Packet`] into the generic field vectors the
//! classifier operates on.

use crate::fields::{FieldSchema, Key};
use crate::wire::WireFault;
use crate::{NetHeader, Packet};

/// The flow key the megaflow cache / slow path classify on. It mirrors the subset of the
/// OVS flow key the paper's ACLs (Fig. 6) can reference: addresses, protocol, TTL and
/// transport ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IP address (IPv4 zero-extended to 128 bits, or native IPv6).
    pub ip_src: u128,
    /// Destination IP address.
    pub ip_dst: u128,
    /// IP protocol number.
    pub ip_proto: u8,
    /// TTL / hop limit.
    pub ttl: u8,
    /// Transport source port (0 for port-less protocols).
    pub tp_src: u16,
    /// Transport destination port (0 for port-less protocols).
    pub tp_dst: u16,
    /// True for IPv6 packets.
    pub is_v6: bool,
}

impl FlowKey {
    /// Extract the flow key from a packet.
    #[inline]
    pub fn from_packet(pkt: &Packet) -> Self {
        let (ip_src, ip_dst, ip_proto, ttl, is_v6) = match &pkt.net {
            NetHeader::V4(h) => (
                u128::from(h.src_u32()),
                u128::from(h.dst_u32()),
                h.proto.to_u8(),
                h.ttl,
                false,
            ),
            NetHeader::V6(h) => (
                h.src_u128(),
                h.dst_u128(),
                h.proto.to_u8(),
                h.hop_limit,
                true,
            ),
        };
        FlowKey {
            ip_src,
            ip_dst,
            ip_proto,
            ttl,
            tp_src: pkt.l4.src_port(),
            tp_dst: pkt.l4.dst_port(),
            is_v6,
        }
    }

    /// The schema this key should be classified under.
    pub fn schema(&self) -> FieldSchema {
        if self.is_v6 {
            FieldSchema::ovs_ipv6()
        } else {
            FieldSchema::ovs_ipv4()
        }
    }

    /// The one packet → key decision: this flow's [`Key`] under `schema`, or
    /// [`WireFault::FamilyMismatch`] when the schema cannot express the flow's IP family
    /// ([`FieldSchema::expresses`]) — an IPv6 packet against an IPv4 ACL, or any packet
    /// against a non-OVS schema. Every ingress, key-level or wire-level, converts through
    /// here (the frame form is [`crate::wire::decode_key`]), so a mismatched packet is
    /// the same fault on all of them and is never truncated into a wrong key.
    #[inline]
    pub fn checked_key(&self, schema: &FieldSchema) -> Result<Key, WireFault> {
        if schema.expresses(self.is_v6) {
            Ok(self.to_key(schema))
        } else {
            Err(WireFault::FamilyMismatch)
        }
    }

    /// Convert to a generic [`Key`] under the given schema, unchecked: the schema must
    /// be the OVS flow key of this flow's family (six fields in the canonical order) —
    /// under the other family's schema the addresses are silently cut to its widths.
    /// Everything outside this crate goes through [`FlowKey::checked_key`].
    #[inline]
    pub fn to_key(&self, schema: &FieldSchema) -> Key {
        assert_eq!(
            schema.field_count(),
            6,
            "FlowKey::to_key expects the OVS schema"
        );
        Key::from_values(
            schema,
            &[
                self.ip_src,
                self.ip_dst,
                u128::from(self.ip_proto),
                u128::from(self.ttl),
                u128::from(self.tp_src),
                u128::from(self.tp_dst),
            ],
        )
    }
}

/// The microflow-cache key: an exact match over *all* header fields of the connection,
/// including the noise fields (TTL). This is why random per-packet noise "uses up the
/// microflow cache" (§5.2): every distinct noise value is a distinct microflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroflowKey {
    /// The classification flow key.
    pub flow: FlowKey,
    /// Extra per-packet entropy the microflow cache also keys on (e.g. IP id / TCP seq);
    /// collapsed to a single value here.
    pub entropy: u64,
}

impl MicroflowKey {
    /// Extract the microflow key from a packet.
    pub fn from_packet(pkt: &Packet) -> Self {
        let entropy = match (&pkt.net, &pkt.l4) {
            (NetHeader::V4(h), crate::L4Header::Tcp { seq, .. }) => {
                (u64::from(h.identification) << 32) | u64::from(*seq)
            }
            (NetHeader::V4(h), _) => u64::from(h.identification),
            (NetHeader::V6(h), _) => u64::from(h.flow_label),
        };
        MicroflowKey {
            flow: FlowKey::from_packet(pkt),
            entropy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::IpProto;

    #[test]
    fn flow_key_from_tcp_v4() {
        let p = PacketBuilder::tcp_v4([10, 0, 0, 1], [10, 0, 0, 2], 34521, 443).build();
        let k = FlowKey::from_packet(&p);
        assert_eq!(k.ip_src, 0x0a000001);
        assert_eq!(k.ip_dst, 0x0a000002);
        assert_eq!(k.ip_proto, 6);
        assert_eq!(k.tp_src, 34521);
        assert_eq!(k.tp_dst, 443);
        assert!(!k.is_v6);
    }

    #[test]
    fn to_key_matches_schema_layout() {
        let p = PacketBuilder::from_numeric_v4(0x0102_0304, 0x0506_0708, IpProto::Udp, 1000, 53)
            .ttl(17)
            .build();
        let k = FlowKey::from_packet(&p);
        let schema = FieldSchema::ovs_ipv4();
        let key = k.to_key(&schema);
        assert_eq!(key.get(0), 0x01020304);
        assert_eq!(key.get(1), 0x05060708);
        assert_eq!(key.get(2), 17); // udp
        assert_eq!(key.get(3), 17); // ttl
        assert_eq!(key.get(4), 1000);
        assert_eq!(key.get(5), 53);
    }

    #[test]
    fn microflow_key_differs_with_noise() {
        let a = PacketBuilder::tcp_v4([10, 0, 0, 1], [10, 0, 0, 2], 1, 2).build();
        let mut b = a.clone();
        if let NetHeader::V4(h) = &mut b.net {
            h.identification += 1;
        }
        assert_eq!(FlowKey::from_packet(&a), FlowKey::from_packet(&b));
        assert_ne!(MicroflowKey::from_packet(&a), MicroflowKey::from_packet(&b));
    }

    #[test]
    fn ipv6_flow_key() {
        let p = PacketBuilder::from_numeric_v6(
            (0xfd00 << 112) | 1,
            (0xfd00 << 112) | 2,
            IpProto::Tcp,
            500,
            80,
        )
        .build();
        let k = FlowKey::from_packet(&p);
        assert!(k.is_v6);
        assert_eq!(
            k.schema().total_width(),
            FieldSchema::ovs_ipv6().total_width()
        );
        assert_eq!(k.ip_src & 0xffff, 1);
    }
}
