//! Ethernet II framing.

use std::fmt;

/// Length of an Ethernet II header in bytes (dst MAC + src MAC + ethertype).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Locally administered address used by the examples for the attacker VM.
    pub const fn local(last: u8) -> MacAddr {
        MacAddr([0x02, 0, 0, 0, 0, last])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// Ethertype values relevant to the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// IPv6 (0x86DD).
    Ipv6,
    /// ARP (0x0806) — parsed but never classified (non-IP traffic never reaches the
    /// tenant ACL, cf. §5.2 footnote 2).
    Arp,
    /// An 802.1Q VLAN tag (0x8100): four more bytes (TCI + inner ethertype) follow the
    /// Ethernet header before the network layer.
    Vlan,
    /// Anything else.
    Other(u16),
}

impl EtherType {
    /// Wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Ipv6 => 0x86DD,
            EtherType::Arp => 0x0806,
            EtherType::Vlan => 0x8100,
            EtherType::Other(v) => v,
        }
    }

    /// Parse a wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x86DD => EtherType::Ipv6,
            0x0806 => EtherType::Arp,
            0x8100 => EtherType::Vlan,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Ethertype of the encapsulated payload.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Convenience constructor with the example topology's MACs.
    pub fn new(src: MacAddr, dst: MacAddr, ethertype: EtherType) -> Self {
        EthernetHeader {
            dst,
            src,
            ethertype,
        }
    }

    /// The 14 wire bytes.
    pub(crate) fn to_bytes(self) -> [u8; ETHERNET_HEADER_LEN] {
        let mut b = [0u8; ETHERNET_HEADER_LEN];
        b[0..6].copy_from_slice(&self.dst.0);
        b[6..12].copy_from_slice(&self.src.0);
        b[12..14].copy_from_slice(&self.ethertype.to_u16().to_be_bytes());
        b
    }

    /// Encode into 14 wire bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// Decode from wire bytes; returns the header and the number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return None;
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        let ethertype = EtherType::from_u16(u16::from_be_bytes([buf[12], buf[13]]));
        Some((
            EthernetHeader {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype,
            },
            ETHERNET_HEADER_LEN,
        ))
    }
}

impl Default for EthernetHeader {
    fn default() -> Self {
        EthernetHeader {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethertype_roundtrip() {
        for et in [
            EtherType::Ipv4,
            EtherType::Ipv6,
            EtherType::Arp,
            EtherType::Vlan,
            EtherType::Other(0x1234),
        ] {
            assert_eq!(EtherType::from_u16(et.to_u16()), et);
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = EthernetHeader::new(MacAddr::local(2), MacAddr([0xff; 6]), EtherType::Ipv6);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), ETHERNET_HEADER_LEN);
        let (parsed, used) = EthernetHeader::decode(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(used, ETHERNET_HEADER_LEN);
    }

    #[test]
    fn decode_short_buffer() {
        assert!(EthernetHeader::decode(&[0u8; 13]).is_none());
    }

    #[test]
    fn mac_display() {
        assert_eq!(MacAddr::local(7).to_string(), "02:00:00:00:00:07");
    }
}
