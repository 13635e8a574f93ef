//! # tse-packet
//!
//! Packet representation, header-field abstraction and packet crafting for the
//! Tuple Space Explosion (TSE) reproduction.
//!
//! The crate provides two layers:
//!
//! 1. A **generic header-field layer** ([`fields`]): a classifier-agnostic view of a
//!    packet header as an ordered list of fixed-width bit fields (a
//!    [`fields::FieldSchema`]), together with per-field value vectors ([`fields::Key`])
//!    and bit masks ([`fields::Mask`]). This is the formalism the paper uses (fields of
//!    width `w_1..w_n`) and it lets the same classifier code run both the paper's 3-bit
//!    "HYP" teaching examples and real IPv4/IPv6 5-tuples.
//! 2. A **concrete packet layer** ([`ipv4`], [`ipv6`], [`l4`], [`ethernet`], [`wire`]):
//!    realistic packets with wire-format encoding/decoding (Ethernet II + IPv4/IPv6 +
//!    TCP/UDP including checksums), plus a [`builder::PacketBuilder`] used by the attack
//!    trace generators to craft packets with arbitrary legitimate headers and random
//!    "noise" in unimportant fields (TTL, payload, IP id) exactly as §5.2 describes.
//!
//! This crate is the in-tree substitute for `pnet`/`smoltcp` packet crafting: the
//! reproduction never touches a real NIC, so all it needs is faithful header layout and
//! flow-key extraction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod ethernet;
pub mod extract;
pub mod fields;
pub mod flowkey;
pub mod ipv4;
pub mod ipv6;
pub mod l4;
pub mod rss;
pub mod wire;

pub use builder::PacketBuilder;
pub use ethernet::{EtherType, EthernetHeader, MacAddr};
pub use extract::{extract_keys_into, ExtractCounts, ExtractScratch};
pub use fields::{FieldDef, FieldSchema, FieldVec, Key, Mask};
pub use flowkey::{FlowKey, MicroflowKey};
pub use ipv4::Ipv4Header;
pub use ipv6::Ipv6Header;
pub use l4::{IpProto, L4Header};
pub use wire::{DecodeError, Encap, WireFault, WireTrace};

/// A fully formed packet as seen by the software switch: L2 + L3 + L4 headers plus an
/// opaque payload length (payload *contents* are irrelevant to classification, cf. §1:
/// "arbitrary message contents").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// Network-layer header (IPv4 or IPv6).
    pub net: NetHeader,
    /// Transport-layer header.
    pub l4: L4Header,
    /// Payload length in bytes (contents are never inspected by the classifier).
    pub payload_len: usize,
}

/// Network-layer header: IPv4 or IPv6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetHeader {
    /// An IPv4 header.
    V4(Ipv4Header),
    /// An IPv6 header.
    V6(Ipv6Header),
}

impl Packet {
    /// Total size of the packet on the wire in bytes (headers + payload), used by the
    /// throughput model.
    pub fn wire_len(&self) -> usize {
        let net_len = match &self.net {
            NetHeader::V4(_) => ipv4::IPV4_HEADER_LEN,
            NetHeader::V6(_) => ipv6::IPV6_HEADER_LEN,
        };
        ethernet::ETHERNET_HEADER_LEN + net_len + self.l4.header_len() + self.payload_len
    }

    /// IP protocol number of the transport header.
    pub fn ip_proto(&self) -> IpProto {
        self.l4.proto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;

    #[test]
    fn wire_len_accounts_for_all_layers() {
        let p = PacketBuilder::udp_v4([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80)
            .payload_len(100)
            .build();
        // 14 (eth) + 20 (ipv4) + 8 (udp) + 100
        assert_eq!(p.wire_len(), 142);
        assert_eq!(p.ip_proto(), IpProto::Udp);
    }

    #[test]
    fn tcp_v6_wire_len() {
        let p = PacketBuilder::tcp_v6([0u16; 8], [0u16; 8], 1, 2)
            .payload_len(0)
            .build();
        // 14 + 40 + 20
        assert_eq!(p.wire_len(), 74);
    }
}
