//! IPv4 header representation and wire encoding.

use std::fmt;
use std::net::Ipv4Addr;

use crate::l4::IpProto;

/// Length of an IPv4 header without options, in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// An IPv4 header (options are not modelled; OVS classification does not use them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub proto: IpProto,
    /// Time-to-live. The attack traces randomise this field as "noise" to exhaust the
    /// microflow cache (§5.2).
    pub ttl: u8,
    /// Identification field (also randomised as noise).
    pub identification: u16,
    /// Differentiated services / TOS byte.
    pub dscp_ecn: u8,
}

impl Ipv4Header {
    /// Construct a header with default TTL 64 and zeroed auxiliary fields.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto) -> Self {
        Ipv4Header {
            src,
            dst,
            proto,
            ttl: 64,
            identification: 0,
            dscp_ecn: 0,
        }
    }

    /// The 20 wire bytes, header checksum included. `payload_len` is the length of
    /// everything after the IPv4 header.
    pub(crate) fn to_bytes(self, payload_len: usize) -> [u8; IPV4_HEADER_LEN] {
        let total_len = (IPV4_HEADER_LEN + payload_len) as u16;
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = 0x45; // version 4, IHL 5
        b[1] = self.dscp_ecn;
        b[2..4].copy_from_slice(&total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.identification.to_be_bytes());
        // 6..8: flags + fragment offset, zero.
        b[8] = self.ttl;
        b[9] = self.proto.to_u8();
        // 10..12: the checksum field, zero while the sum is taken.
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&b);
        b[10..12].copy_from_slice(&csum.to_be_bytes());
        b
    }

    /// Encode into 20 wire bytes, computing the header checksum. `payload_len` is the
    /// length of everything after the IPv4 header.
    pub fn encode(&self, payload_len: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes(payload_len));
    }

    /// Decode a header from wire bytes; returns the header and bytes consumed.
    /// Returns `None` on a truncated buffer, a non-IPv4 version nibble, or a checksum
    /// mismatch.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < IPV4_HEADER_LEN {
            return None;
        }
        if buf[0] >> 4 != 4 {
            return None;
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl < IPV4_HEADER_LEN || buf.len() < ihl {
            return None;
        }
        if internet_checksum(&buf[..ihl]) != 0 {
            return None;
        }
        let header = Ipv4Header {
            dscp_ecn: buf[1],
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            ttl: buf[8],
            proto: IpProto::from_u8(buf[9]),
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
        };
        Some((header, ihl))
    }

    /// Source address as a `u32` (host order) — the value stored in flow keys.
    pub fn src_u32(&self) -> u32 {
        u32::from(self.src)
    }

    /// Destination address as a `u32` (host order).
    pub fn dst_u32(&self) -> u32 {
        u32::from(self.dst)
    }
}

impl fmt::Display for Ipv4Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} proto={} ttl={}",
            self.src, self.dst, self.proto, self.ttl
        )
    }
}

/// RFC 1071 Internet checksum over a byte slice (the checksum field must be zero, or the
/// result validates to zero over a correct header).
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let h = Ipv4Header {
            ttl: 37,
            identification: 0xbeef,
            dscp_ecn: 0x10,
            ..Ipv4Header::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(192, 168, 1, 5),
                IpProto::Tcp,
            )
        };
        let mut buf = Vec::new();
        h.encode(100, &mut buf);
        assert_eq!(buf.len(), IPV4_HEADER_LEN);
        let (parsed, used) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(used, IPV4_HEADER_LEN);
        assert_eq!(parsed.src, h.src);
        assert_eq!(parsed.dst, h.dst);
        assert_eq!(parsed.proto, IpProto::Tcp);
        assert_eq!(parsed.ttl, 37);
        assert_eq!(parsed.identification, 0xbeef);
        // total length on the wire covers header + payload
        assert_eq!(
            u16::from_be_bytes([buf[2], buf[3]]) as usize,
            IPV4_HEADER_LEN + 100
        );
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let h = Ipv4Header::new(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            IpProto::Udp,
        );
        let mut buf = Vec::new();
        h.encode(0, &mut buf);
        buf[8] ^= 0xff; // corrupt TTL without fixing checksum
        assert!(Ipv4Header::decode(&buf).is_none());
    }

    #[test]
    fn non_v4_rejected() {
        let buf = [0x60u8; 20];
        assert!(Ipv4Header::decode(&buf).is_none());
    }

    #[test]
    fn checksum_of_valid_header_is_zero() {
        let h = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Udp,
        );
        let mut buf = Vec::new();
        h.encode(8, &mut buf);
        assert_eq!(internet_checksum(&buf), 0);
    }

    #[test]
    fn addr_u32_conversion() {
        let h = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(0, 0, 0, 80),
            IpProto::Tcp,
        );
        assert_eq!(h.src_u32(), 0x0a000001);
        assert_eq!(h.dst_u32(), 80);
    }
}
