//! Transport-layer (L4) headers: TCP, UDP, ICMP, and "other".

use std::fmt;

/// IP protocol numbers relevant to the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// ICMP (1).
    Icmp,
    /// ICMPv6 (58).
    Icmpv6,
    /// Any other protocol number.
    Other(u8),
}

impl IpProto {
    /// Wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Icmpv6 => 58,
            IpProto::Other(v) => v,
        }
    }

    /// Parse a wire value.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            58 => IpProto::Icmpv6,
            other => IpProto::Other(other),
        }
    }
}

impl fmt::Display for IpProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProto::Tcp => write!(f, "tcp"),
            IpProto::Udp => write!(f, "udp"),
            IpProto::Icmp => write!(f, "icmp"),
            IpProto::Icmpv6 => write!(f, "icmpv6"),
            IpProto::Other(v) => write!(f, "proto({v})"),
        }
    }
}

/// TCP header length without options, in bytes.
pub const TCP_HEADER_LEN: usize = 20;
/// UDP header length in bytes.
pub const UDP_HEADER_LEN: usize = 8;
/// ICMP header length in bytes.
pub const ICMP_HEADER_LEN: usize = 8;

/// A transport-layer header. Only the fields that matter to classification and the
/// throughput model are retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L4Header {
    /// TCP segment header.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Sequence number (noise field for trace entropy).
        seq: u32,
        /// Flags byte (SYN/ACK/FIN/...).
        flags: u8,
    },
    /// UDP datagram header.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
    /// ICMP / ICMPv6 message.
    Icmp {
        /// ICMP type.
        icmp_type: u8,
        /// ICMP code.
        icmp_code: u8,
        /// True if this is ICMPv6.
        v6: bool,
    },
    /// Any other transport protocol (ports read as zero).
    Other {
        /// The raw protocol number.
        proto: u8,
    },
}

impl L4Header {
    /// Construct a TCP header with zero sequence number and no flags.
    pub fn tcp(src_port: u16, dst_port: u16) -> Self {
        L4Header::Tcp {
            src_port,
            dst_port,
            seq: 0,
            flags: 0,
        }
    }

    /// Construct a UDP header.
    pub fn udp(src_port: u16, dst_port: u16) -> Self {
        L4Header::Udp { src_port, dst_port }
    }

    /// The IP protocol of this header.
    pub fn proto(&self) -> IpProto {
        match self {
            L4Header::Tcp { .. } => IpProto::Tcp,
            L4Header::Udp { .. } => IpProto::Udp,
            L4Header::Icmp { v6: false, .. } => IpProto::Icmp,
            L4Header::Icmp { v6: true, .. } => IpProto::Icmpv6,
            L4Header::Other { proto } => IpProto::Other(*proto),
        }
    }

    /// Source port, or 0 for port-less protocols. This is the value the flow key holds —
    /// OVS does exactly the same zero-fill for non-TCP/UDP traffic.
    pub fn src_port(&self) -> u16 {
        match self {
            L4Header::Tcp { src_port, .. } | L4Header::Udp { src_port, .. } => *src_port,
            _ => 0,
        }
    }

    /// Destination port, or 0 for port-less protocols.
    pub fn dst_port(&self) -> u16 {
        match self {
            L4Header::Tcp { dst_port, .. } | L4Header::Udp { dst_port, .. } => *dst_port,
            _ => 0,
        }
    }

    /// Header length on the wire in bytes.
    pub fn header_len(&self) -> usize {
        match self {
            L4Header::Tcp { .. } => TCP_HEADER_LEN,
            L4Header::Udp { .. } => UDP_HEADER_LEN,
            L4Header::Icmp { .. } => ICMP_HEADER_LEN,
            L4Header::Other { .. } => 0,
        }
    }

    /// The 8 wire bytes of a UDP header over `payload_len` bytes of payload (checksum
    /// zero, see [`L4Header::encode`]).
    pub(crate) fn udp_bytes(
        src_port: u16,
        dst_port: u16,
        payload_len: usize,
    ) -> [u8; UDP_HEADER_LEN] {
        let mut b = [0u8; UDP_HEADER_LEN];
        b[0..2].copy_from_slice(&src_port.to_be_bytes());
        b[2..4].copy_from_slice(&dst_port.to_be_bytes());
        b[4..6].copy_from_slice(&((UDP_HEADER_LEN + payload_len) as u16).to_be_bytes());
        b
    }

    /// Encode into wire bytes (checksums are left zero; the switch model never verifies
    /// L4 checksums, matching OVS's behaviour of not recomputing them on forwarding).
    pub fn encode(&self, payload_len: usize, out: &mut Vec<u8>) {
        match *self {
            L4Header::Tcp {
                src_port,
                dst_port,
                seq,
                flags,
            } => {
                let mut b = [0u8; TCP_HEADER_LEN];
                b[0..2].copy_from_slice(&src_port.to_be_bytes());
                b[2..4].copy_from_slice(&dst_port.to_be_bytes());
                b[4..8].copy_from_slice(&seq.to_be_bytes());
                // 8..12: ack, zero.
                b[12] = 0x50; // data offset 5
                b[13] = flags;
                // 14..16: window; 16..20: checksum + urgent, zero.
                b[14..16].copy_from_slice(&0xffffu16.to_be_bytes());
                out.extend_from_slice(&b);
            }
            L4Header::Udp { src_port, dst_port } => {
                out.extend_from_slice(&Self::udp_bytes(src_port, dst_port, payload_len));
            }
            L4Header::Icmp {
                icmp_type,
                icmp_code,
                ..
            } => {
                let mut b = [0u8; ICMP_HEADER_LEN];
                b[0] = icmp_type;
                b[1] = icmp_code;
                out.extend_from_slice(&b);
            }
            L4Header::Other { .. } => {}
        }
    }

    /// Decode an L4 header of the given protocol from wire bytes.
    pub fn decode(proto: IpProto, buf: &[u8]) -> Option<(Self, usize)> {
        match proto {
            IpProto::Tcp => {
                if buf.len() < TCP_HEADER_LEN {
                    return None;
                }
                Some((
                    L4Header::Tcp {
                        src_port: u16::from_be_bytes([buf[0], buf[1]]),
                        dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                        seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                        flags: buf[13],
                    },
                    TCP_HEADER_LEN,
                ))
            }
            IpProto::Udp => {
                if buf.len() < UDP_HEADER_LEN {
                    return None;
                }
                Some((
                    L4Header::Udp {
                        src_port: u16::from_be_bytes([buf[0], buf[1]]),
                        dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                    },
                    UDP_HEADER_LEN,
                ))
            }
            IpProto::Icmp | IpProto::Icmpv6 => {
                if buf.len() < ICMP_HEADER_LEN {
                    return None;
                }
                Some((
                    L4Header::Icmp {
                        icmp_type: buf[0],
                        icmp_code: buf[1],
                        v6: proto == IpProto::Icmpv6,
                    },
                    ICMP_HEADER_LEN,
                ))
            }
            IpProto::Other(p) => Some((L4Header::Other { proto: p }, 0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proto_roundtrip() {
        for p in [
            IpProto::Tcp,
            IpProto::Udp,
            IpProto::Icmp,
            IpProto::Icmpv6,
            IpProto::Other(99),
        ] {
            assert_eq!(IpProto::from_u8(p.to_u8()), p);
        }
    }

    #[test]
    fn tcp_roundtrip() {
        let h = L4Header::Tcp {
            src_port: 34521,
            dst_port: 443,
            seq: 42,
            flags: 0x02,
        };
        let mut buf = Vec::new();
        h.encode(0, &mut buf);
        assert_eq!(buf.len(), TCP_HEADER_LEN);
        let (parsed, used) = L4Header::decode(IpProto::Tcp, &buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(used, TCP_HEADER_LEN);
    }

    #[test]
    fn udp_roundtrip() {
        let h = L4Header::udp(12345, 80);
        let mut buf = Vec::new();
        h.encode(100, &mut buf);
        assert_eq!(buf.len(), UDP_HEADER_LEN);
        // length field = 8 + 100
        assert_eq!(u16::from_be_bytes([buf[4], buf[5]]), 108);
        let (parsed, _) = L4Header::decode(IpProto::Udp, &buf).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn ports_default_to_zero_for_icmp() {
        let h = L4Header::Icmp {
            icmp_type: 8,
            icmp_code: 0,
            v6: false,
        };
        assert_eq!(h.src_port(), 0);
        assert_eq!(h.dst_port(), 0);
        assert_eq!(h.proto(), IpProto::Icmp);
    }

    #[test]
    fn truncated_headers_rejected() {
        assert!(L4Header::decode(IpProto::Tcp, &[0; 19]).is_none());
        assert!(L4Header::decode(IpProto::Udp, &[0; 7]).is_none());
        assert!(L4Header::decode(IpProto::Icmp, &[0; 7]).is_none());
    }
}
