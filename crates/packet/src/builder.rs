//! Packet crafting: the builder used by traffic generators and the attack trace
//! generators.

use std::net::{Ipv4Addr, Ipv6Addr};

use rand::Rng;

use crate::ethernet::{EtherType, EthernetHeader};
use crate::ipv4::Ipv4Header;
use crate::ipv6::Ipv6Header;
use crate::l4::{IpProto, L4Header};
use crate::{NetHeader, Packet};

/// Default payload length of attack packets: small, because the attack is low-rate and
/// the payload content is irrelevant (§1).
pub const DEFAULT_ATTACK_PAYLOAD: usize = 26;

/// Builder for crafting packets. All attack and victim traffic in the reproduction is
/// produced through this type.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    eth: EthernetHeader,
    net: NetHeader,
    l4: L4Header,
    payload_len: usize,
}

impl PacketBuilder {
    /// A TCP/IPv4 packet between the given addresses and ports.
    pub fn tcp_v4(src: [u8; 4], dst: [u8; 4], src_port: u16, dst_port: u16) -> Self {
        PacketBuilder {
            eth: EthernetHeader::default(),
            net: NetHeader::V4(Ipv4Header::new(src.into(), dst.into(), IpProto::Tcp)),
            l4: L4Header::tcp(src_port, dst_port),
            payload_len: DEFAULT_ATTACK_PAYLOAD,
        }
    }

    /// A packet built directly from raw IPv4 address/port integers — convenient for the
    /// attack generators which work on numeric header values.
    pub fn from_numeric_v4(
        ip_src: u32,
        ip_dst: u32,
        proto: IpProto,
        src_port: u16,
        dst_port: u16,
    ) -> Self {
        let src = Ipv4Addr::from(ip_src);
        let dst = Ipv4Addr::from(ip_dst);
        let l4 = match proto {
            IpProto::Udp => L4Header::udp(src_port, dst_port),
            _ => L4Header::tcp(src_port, dst_port),
        };
        PacketBuilder {
            eth: EthernetHeader::default(),
            net: NetHeader::V4(Ipv4Header::new(src, dst, proto)),
            l4,
            payload_len: DEFAULT_ATTACK_PAYLOAD,
        }
    }

    /// A packet built directly from raw IPv6 address/port integers — the v6 counterpart
    /// of [`PacketBuilder::from_numeric_v4`] for attack generators working on numeric
    /// header values.
    pub fn from_numeric_v6(
        ip_src: u128,
        ip_dst: u128,
        proto: IpProto,
        src_port: u16,
        dst_port: u16,
    ) -> Self {
        let l4 = match proto {
            IpProto::Udp => L4Header::udp(src_port, dst_port),
            _ => L4Header::tcp(src_port, dst_port),
        };
        PacketBuilder {
            eth: EthernetHeader {
                ethertype: EtherType::Ipv6,
                ..EthernetHeader::default()
            },
            net: NetHeader::V6(Ipv6Header::new(
                Ipv6Addr::from(ip_src),
                Ipv6Addr::from(ip_dst),
                proto,
            )),
            l4,
            payload_len: DEFAULT_ATTACK_PAYLOAD,
        }
    }

    /// Set the TTL / hop limit.
    pub fn ttl(mut self, ttl: u8) -> Self {
        match &mut self.net {
            NetHeader::V4(h) => h.ttl = ttl,
            NetHeader::V6(h) => h.hop_limit = ttl,
        }
        self
    }

    /// Set the payload length in bytes.
    pub fn payload_len(mut self, len: usize) -> Self {
        self.payload_len = len;
        self
    }

    /// Randomise the "unimportant" noise fields (TTL, IP id / flow label, TCP sequence
    /// number) so that every packet is a distinct microflow. This reproduces the
    /// "additional random noise added to unimportant header fields ... to increase the
    /// entropy hence using up the microflow cache" of §5.2.
    pub fn randomize_noise<R: Rng + ?Sized>(mut self, rng: &mut R) -> Self {
        match &mut self.net {
            NetHeader::V4(h) => {
                h.ttl = rng.gen_range(32..=255);
                h.identification = rng.gen();
            }
            NetHeader::V6(h) => {
                h.hop_limit = rng.gen_range(32..=255);
                h.flow_label = rng.gen_range(0..=0x000f_ffff);
            }
        }
        if let L4Header::Tcp { seq, .. } = &mut self.l4 {
            *seq = rng.gen();
        }
        self
    }

    /// Finalise the packet.
    pub fn build(self) -> Packet {
        Packet {
            eth: self.eth,
            net: self.net,
            l4: self.l4,
            payload_len: self.payload_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowkey::{FlowKey, MicroflowKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builder_sets_fields() {
        let p = PacketBuilder::tcp_v4([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80)
            .ttl(7)
            .payload_len(500)
            .build();
        let k = FlowKey::from_packet(&p);
        assert_eq!(k.ttl, 7);
        assert_eq!(p.payload_len, 500);
        assert_eq!(p.ip_proto(), IpProto::Tcp);
    }

    #[test]
    fn noise_changes_microflow_not_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = PacketBuilder::from_numeric_v4(0x0a00_0001, 0x0a00_0002, IpProto::Udp, 100, 200);
        let a = base.clone().randomize_noise(&mut rng).build();
        let b = base.clone().randomize_noise(&mut rng).build();
        let fa = FlowKey::from_packet(&a);
        let fb = FlowKey::from_packet(&b);
        // Addresses/ports/proto identical ...
        assert_eq!(
            (fa.ip_src, fa.ip_dst, fa.tp_src, fa.tp_dst),
            (fb.ip_src, fb.ip_dst, fb.tp_src, fb.tp_dst)
        );
        // ... but microflow keys differ (TTL/id noise).
        assert_ne!(MicroflowKey::from_packet(&a), MicroflowKey::from_packet(&b));
    }

    #[test]
    fn from_numeric_roundtrip() {
        let p =
            PacketBuilder::from_numeric_v4(0x0a000001, 0x0a000002, IpProto::Udp, 53, 4000).build();
        let k = FlowKey::from_packet(&p);
        assert_eq!(k.ip_src, 0x0a000001);
        assert_eq!(k.ip_proto, 17);
        assert_eq!(k.tp_dst, 4000);
    }

    #[test]
    fn v6_builder() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = PacketBuilder::from_numeric_v6((1 << 112) | 2, (3 << 112) | 4, IpProto::Udp, 5, 6)
            .randomize_noise(&mut rng)
            .build();
        let k = FlowKey::from_packet(&p);
        assert!(k.is_v6);
        assert_eq!(k.tp_src, 5);
    }
}
