//! IPv6 header representation and wire encoding.

use std::fmt;
use std::net::Ipv6Addr;

use crate::l4::IpProto;

/// Length of the fixed IPv6 header in bytes.
pub const IPV6_HEADER_LEN: usize = 40;

/// An IPv6 header (extension headers are not modelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv6Header {
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Next header (transport protocol).
    pub proto: IpProto,
    /// Hop limit (IPv6's TTL).
    pub hop_limit: u8,
    /// Flow label (20 bits).
    pub flow_label: u32,
    /// Traffic class.
    pub traffic_class: u8,
}

impl Ipv6Header {
    /// Construct a header with default hop limit 64.
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr, proto: IpProto) -> Self {
        Ipv6Header {
            src,
            dst,
            proto,
            hop_limit: 64,
            flow_label: 0,
            traffic_class: 0,
        }
    }

    /// The 40 wire bytes. `payload_len` is the length of everything after the IPv6
    /// header.
    pub(crate) fn to_bytes(self, payload_len: usize) -> [u8; IPV6_HEADER_LEN] {
        let vtf: u32 =
            (6u32 << 28) | ((self.traffic_class as u32) << 20) | (self.flow_label & 0x000f_ffff);
        let mut b = [0u8; IPV6_HEADER_LEN];
        b[0..4].copy_from_slice(&vtf.to_be_bytes());
        b[4..6].copy_from_slice(&(payload_len as u16).to_be_bytes());
        b[6] = self.proto.to_u8();
        b[7] = self.hop_limit;
        b[8..24].copy_from_slice(&self.src.octets());
        b[24..40].copy_from_slice(&self.dst.octets());
        b
    }

    /// Encode into 40 wire bytes. `payload_len` is the length of everything after the
    /// IPv6 header.
    pub fn encode(&self, payload_len: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes(payload_len));
    }

    /// Decode a header from wire bytes; returns the header and bytes consumed.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < IPV6_HEADER_LEN {
            return None;
        }
        let vtf = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        if vtf >> 28 != 6 {
            return None;
        }
        let mut src = [0u8; 16];
        let mut dst = [0u8; 16];
        src.copy_from_slice(&buf[8..24]);
        dst.copy_from_slice(&buf[24..40]);
        Some((
            Ipv6Header {
                traffic_class: ((vtf >> 20) & 0xff) as u8,
                flow_label: vtf & 0x000f_ffff,
                proto: IpProto::from_u8(buf[6]),
                hop_limit: buf[7],
                src: Ipv6Addr::from(src),
                dst: Ipv6Addr::from(dst),
            },
            IPV6_HEADER_LEN,
        ))
    }

    /// Source address as a `u128` (the value stored in flow keys).
    pub fn src_u128(&self) -> u128 {
        u128::from(self.src)
    }

    /// Destination address as a `u128`.
    pub fn dst_u128(&self) -> u128 {
        u128::from(self.dst)
    }
}

impl fmt::Display for Ipv6Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} proto={} hlim={}",
            self.src, self.dst, self.proto, self.hop_limit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let h = Ipv6Header {
            hop_limit: 12,
            flow_label: 0xabcde,
            traffic_class: 3,
            ..Ipv6Header::new(
                Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 1),
                Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 2),
                IpProto::Udp,
            )
        };
        let mut buf = Vec::new();
        h.encode(64, &mut buf);
        assert_eq!(buf.len(), IPV6_HEADER_LEN);
        let (parsed, used) = Ipv6Header::decode(&buf).unwrap();
        assert_eq!(used, IPV6_HEADER_LEN);
        assert_eq!(parsed, h);
    }

    #[test]
    fn non_v6_rejected() {
        let buf = [0x45u8; 40];
        assert!(Ipv6Header::decode(&buf).is_none());
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(Ipv6Header::decode(&[0x60; 39]).is_none());
    }

    #[test]
    fn u128_conversion() {
        let h = Ipv6Header::new(
            Ipv6Addr::new(0, 0, 0, 0, 0, 0, 0, 1),
            Ipv6Addr::new(0, 0, 0, 0, 0, 0, 0, 2),
            IpProto::Tcp,
        );
        assert_eq!(h.src_u128(), 1);
        assert_eq!(h.dst_u128(), 2);
    }
}
