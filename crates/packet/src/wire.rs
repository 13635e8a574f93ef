//! Wire-format serialisation of whole packets and a minimal in-memory trace format.
//!
//! The paper replays attack traces from pcap files (§5.4). The reproduction keeps traces
//! in memory, but this module provides a byte-accurate encode/decode path so that the
//! switch can also be driven from serialised frames (and so the header layout code is
//! actually exercised end-to-end). Three layers:
//!
//! * [`encode`]/[`decode`] — one frame ↔ one [`Packet`]. The decoder strips 802.1Q VLAN
//!   tags and decapsulates VXLAN tunnels, so the classified packet is always the
//!   *innermost* IP packet, exactly like OVS's flow extraction on overlay traffic;
//! * [`Encap`] — the overlay encapsulation builders (plain, VLAN tag, VXLAN tunnel).
//!   Under a tunnel the outer header is fixed by the virtual network while the attacker
//!   controls the *inner* header — the field split the overlay scenarios explore;
//! * [`WireTrace`] — a pcap-style frame buffer: timestamped frames packed back-to-back
//!   in one contiguous allocation, the replay format the wire-level traffic sources use.

use crate::ethernet::{EtherType, EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
use crate::fields::{FieldSchema, Key};
use crate::flowkey::FlowKey;
use crate::ipv4::{Ipv4Header, IPV4_HEADER_LEN};
use crate::ipv6::Ipv6Header;
use crate::l4::{IpProto, L4Header, UDP_HEADER_LEN};
use crate::{NetHeader, Packet};

/// Bytes of an 802.1Q tag (TCI + inner ethertype) following the Ethernet header.
pub const VLAN_TAG_LEN: usize = 4;

/// The IANA VXLAN UDP destination port.
pub const VXLAN_PORT: u16 = 4789;

/// Bytes of a VXLAN header (flags, reserved, 24-bit VNI, reserved).
pub const VXLAN_HEADER_LEN: usize = 8;

/// Bytes a VXLAN tunnel prepends: outer Ethernet + IPv4 + UDP + VXLAN header.
const VXLAN_OUTER_LEN: usize =
    ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + VXLAN_HEADER_LEN;

/// Maximum number of nested tunnels the decoder will unwrap. A deeper frame is rejected
/// as [`DecodeError::BadHeader`], keeping `decode` total on adversarial input.
pub const MAX_ENCAP_DEPTH: usize = 4;

/// Errors returned when decoding a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than the headers claim.
    Truncated,
    /// The L2 ethertype is not IPv4 or IPv6.
    UnsupportedEtherType(u16),
    /// A header failed validation (bad version nibble or checksum), or the encapsulation
    /// nesting exceeds [`MAX_ENCAP_DEPTH`].
    BadHeader,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::UnsupportedEtherType(t) => write!(f, "unsupported ethertype 0x{t:04x}"),
            DecodeError::BadHeader => write!(f, "malformed header"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a frame could not be classified by the experiment's datapath: either the wire
/// parser rejected it, or it decoded cleanly into an address family the installed
/// table's schema cannot express. The event-driven runner charges both kinds to shard 0,
/// like the existing schema-mismatch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The wire parser rejected the frame.
    Decode(DecodeError),
    /// The frame decoded, but its family (IPv4/IPv6) does not match the schema the
    /// experiment classifies under.
    FamilyMismatch,
}

impl From<DecodeError> for WireFault {
    fn from(e: DecodeError) -> Self {
        WireFault::Decode(e)
    }
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFault::Decode(e) => write!(f, "{e}"),
            WireFault::FamilyMismatch => write!(f, "address family does not match the schema"),
        }
    }
}

/// Encode a packet into a wire-format Ethernet frame. The payload is filled with zeros
/// (its content never matters to classification).
pub fn encode(pkt: &Packet) -> Vec<u8> {
    let mut buf = Vec::with_capacity(pkt.wire_len());
    encode_into(pkt, &mut buf);
    buf
}

/// Append the wire encoding of `pkt` to `out` — the reusable-buffer form of [`encode`]
/// the lazy wire generators use to serialise without a per-packet allocation.
pub fn encode_into(pkt: &Packet, out: &mut Vec<u8>) {
    pkt.eth.encode(out);
    encode_l3_into(pkt, out);
}

/// Network layer, transport layer and zero payload (everything after L2).
fn encode_l3_into(pkt: &Packet, out: &mut Vec<u8>) {
    let l4_plus_payload = pkt.l4.header_len() + pkt.payload_len;
    match &pkt.net {
        NetHeader::V4(h) => h.encode(l4_plus_payload, out),
        NetHeader::V6(h) => h.encode(l4_plus_payload, out),
    }
    pkt.l4.encode(pkt.payload_len, out);
    out.resize(out.len() + pkt.payload_len, 0);
}

/// Overlay encapsulation applied when a packet is serialised to the wire.
///
/// The split matters to the attack surface: a VLAN tag leaves every classified field
/// under attacker control, while a VXLAN tunnel fixes the *outer* header (the virtual
/// network's VTEP addresses and VNI) and the attacker controls only the *inner* frame —
/// which is exactly what the decoder extracts and the datapath classifies, so the
/// explosion passes through the overlay untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encap {
    /// No encapsulation: [`encode`] as-is.
    None,
    /// An 802.1Q VLAN tag with the given TCI (PCP/DEI/VLAN-ID).
    Vlan {
        /// The 16-bit tag control information.
        tci: u16,
    },
    /// A VXLAN tunnel: outer Ethernet + IPv4 + UDP (destination port 4789) + VXLAN
    /// header around the full inner frame.
    Vxlan {
        /// Outer (VTEP) source IPv4 address.
        outer_src: u32,
        /// Outer (VTEP) destination IPv4 address.
        outer_dst: u32,
        /// The 24-bit VXLAN network identifier.
        vni: u32,
    },
}

impl Encap {
    /// Wire bytes this encapsulation adds on top of the inner frame.
    pub fn overhead(&self) -> usize {
        match self {
            Encap::None => 0,
            Encap::Vlan { .. } => VLAN_TAG_LEN,
            Encap::Vxlan { .. } => VXLAN_OUTER_LEN,
        }
    }

    /// Append the encapsulated wire encoding of `pkt` to `out`.
    pub fn encode_into(&self, pkt: &Packet, out: &mut Vec<u8>) {
        match *self {
            Encap::None => encode_into(pkt, out),
            Encap::Vlan { tci } => {
                // The Ethernet header with the tag spliced in before its ethertype.
                let mut l2 = [0u8; ETHERNET_HEADER_LEN + VLAN_TAG_LEN];
                l2[0..6].copy_from_slice(&pkt.eth.dst.0);
                l2[6..12].copy_from_slice(&pkt.eth.src.0);
                l2[12..14].copy_from_slice(&EtherType::Vlan.to_u16().to_be_bytes());
                l2[14..16].copy_from_slice(&tci.to_be_bytes());
                l2[16..18].copy_from_slice(&pkt.eth.ethertype.to_u16().to_be_bytes());
                out.extend_from_slice(&l2);
                encode_l3_into(pkt, out);
            }
            Encap::Vxlan {
                outer_src,
                outer_dst,
                vni,
            } => {
                // Offsets of the outer headers in the 50 bytes a tunnel prepends.
                const IP: usize = ETHERNET_HEADER_LEN;
                const UDP: usize = IP + IPV4_HEADER_LEN;
                const VXLAN: usize = UDP + UDP_HEADER_LEN;
                let udp_payload = VXLAN_HEADER_LEN + pkt.wire_len();
                // Outer frame: VTEP-to-VTEP Ethernet + IPv4 + UDP. The UDP source port
                // is derived from the VNI the way real VTEPs derive it from a flow hash
                // — deterministic here so traces replay bit-identically.
                let eth = EthernetHeader::new(
                    MacAddr::local(0xA0),
                    MacAddr::local(0xA1),
                    EtherType::Ipv4,
                );
                let ip = Ipv4Header::new(outer_src.into(), outer_dst.into(), IpProto::Udp);
                let src_port = 0xC000 | (vni & 0x3FFF) as u16;
                let mut outer = [0u8; VXLAN_OUTER_LEN];
                outer[..IP].copy_from_slice(&eth.to_bytes());
                outer[IP..UDP].copy_from_slice(&ip.to_bytes(UDP_HEADER_LEN + udp_payload));
                outer[UDP..VXLAN].copy_from_slice(&L4Header::udp_bytes(
                    src_port,
                    VXLAN_PORT,
                    udp_payload,
                ));
                // VXLAN header: I-flag set, reserved zero, 24-bit VNI, reserved zero.
                outer[VXLAN] = 0x08;
                outer[VXLAN + 4..VXLAN + 7].copy_from_slice(&vni.to_be_bytes()[1..4]);
                out.extend_from_slice(&outer);
                encode_into(pkt, out);
            }
        }
    }

    /// The encapsulated wire encoding of `pkt` as a fresh buffer.
    pub fn encode(&self, pkt: &Packet) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.overhead() + pkt.wire_len());
        self.encode_into(pkt, &mut buf);
        buf
    }
}

/// True if `rest` starts with a well-formed VXLAN header (I-flag set, reserved fields
/// zero) carrying at least an Ethernet header of inner frame.
fn is_vxlan(rest: &[u8]) -> bool {
    rest.len() >= VXLAN_HEADER_LEN + ETHERNET_HEADER_LEN
        && rest[0] == 0x08
        && rest[1..4] == [0, 0, 0]
        && rest[7] == 0
}

/// Decode a wire-format Ethernet frame back into a [`Packet`].
///
/// 802.1Q VLAN tags are stripped and well-formed VXLAN tunnels (UDP destination port
/// 4789, valid VXLAN header, complete inner frame) are unwrapped, so the returned
/// packet is the innermost IP packet — the header OVS's flow extraction hands to the
/// classifier on overlay traffic. A UDP datagram to port 4789 whose payload is *not* a
/// valid VXLAN header is returned as that plain UDP packet.
pub fn decode(buf: &[u8]) -> Result<Packet, DecodeError> {
    let mut frame = buf;
    for _ in 0..MAX_ENCAP_DEPTH {
        let (mut eth, mut off) = EthernetHeader::decode(frame).ok_or(DecodeError::Truncated)?;
        // Strip 802.1Q tags (bounded by the frame length: each tag consumes 4 bytes).
        while eth.ethertype == EtherType::Vlan {
            let tag = frame
                .get(off..off + VLAN_TAG_LEN)
                .ok_or(DecodeError::Truncated)?;
            eth.ethertype = EtherType::from_u16(u16::from_be_bytes([tag[2], tag[3]]));
            off += VLAN_TAG_LEN;
        }
        let (net, used, proto) = match eth.ethertype {
            EtherType::Ipv4 => {
                let (h, used) = Ipv4Header::decode(&frame[off..]).ok_or(DecodeError::BadHeader)?;
                (NetHeader::V4(h), used, h.proto)
            }
            EtherType::Ipv6 => {
                let (h, used) = Ipv6Header::decode(&frame[off..]).ok_or(DecodeError::BadHeader)?;
                (NetHeader::V6(h), used, h.proto)
            }
            other => return Err(DecodeError::UnsupportedEtherType(other.to_u16())),
        };
        off += used;
        let (l4, used) = L4Header::decode(proto, &frame[off..]).ok_or(DecodeError::Truncated)?;
        off += used;
        if let L4Header::Udp {
            dst_port: VXLAN_PORT,
            ..
        } = l4
        {
            let rest = &frame[off..];
            if is_vxlan(rest) {
                frame = &rest[VXLAN_HEADER_LEN..];
                continue;
            }
        }
        let payload_len = frame.len().saturating_sub(off);
        return Ok(Packet {
            eth,
            net,
            l4,
            payload_len,
        });
    }
    Err(DecodeError::BadHeader)
}

/// The frame form of the one packet → key decision ([`FlowKey::checked_key`]): decode
/// `frame` and convert the innermost packet's flow to its [`Key`] under `schema`. A frame
/// the parser rejects is a [`WireFault::Decode`], a frame of a family the schema cannot
/// express a [`WireFault::FamilyMismatch`].
#[inline]
pub fn decode_key(frame: &[u8], schema: &FieldSchema) -> Result<Key, WireFault> {
    FlowKey::from_packet(&decode(frame)?).checked_key(schema)
}

/// A pcap-style in-memory frame trace: timestamped raw frames packed back-to-back in
/// one contiguous buffer.
///
/// This is the replay format of the wire-level traffic sources: frame `i` is a byte
/// slice into the shared buffer, so a million-frame trace is three allocations, not a
/// million, and batched extraction can walk it without touching the heap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireTrace {
    buf: Vec<u8>,
    /// End offset of frame `i` in `buf` (its start is `ends[i - 1]`, or 0).
    ends: Vec<usize>,
    times: Vec<f64>,
}

impl WireTrace {
    /// An empty trace.
    pub fn new() -> Self {
        WireTrace::default()
    }

    /// Append a raw frame at `time`.
    ///
    /// # Panics
    /// Panics if `time` is below the previous frame's timestamp (traces replay in
    /// nondecreasing time order, like pcap files).
    pub fn push(&mut self, time: f64, frame: &[u8]) {
        self.check_time(time);
        self.buf.extend_from_slice(frame);
        self.ends.push(self.buf.len());
        self.times.push(time);
    }

    /// Serialise `pkt` under `encap` directly into the trace buffer at `time` — no
    /// per-frame temporary.
    ///
    /// # Panics
    /// Panics if `time` is below the previous frame's timestamp.
    pub fn push_packet(&mut self, time: f64, pkt: &Packet, encap: Encap) {
        self.check_time(time);
        encap.encode_into(pkt, &mut self.buf);
        self.ends.push(self.buf.len());
        self.times.push(time);
    }

    fn check_time(&self, time: f64) {
        assert!(
            self.times.last().is_none_or(|&t| t <= time),
            "frames must be pushed in nondecreasing time order"
        );
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if the trace holds no frames.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Frame `i` as a raw byte slice.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.buf[start..self.ends[i]]
    }

    /// Timestamp of frame `i`, seconds.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn time(&self, i: usize) -> f64 {
        self.times[i]
    }

    /// Iterate `(time, frame)` pairs in replay order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &[u8])> {
        (0..self.len()).map(move |i| (self.times[i], self.frame(i)))
    }

    /// Iterate the raw frames in replay order.
    pub fn frames(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |i| self.frame(i))
    }

    /// Total wire bytes across all frames.
    pub fn wire_bytes(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use proptest::prelude::*;

    /// The oracle: the encoders as they were when every field was its own `push` /
    /// `extend_from_slice` — kept to pin the one-array forms byte for byte.
    mod pushed {
        use super::super::*;
        use crate::ipv4::internet_checksum;

        fn eth(h: &EthernetHeader, out: &mut Vec<u8>) {
            out.extend_from_slice(&h.dst.0);
            out.extend_from_slice(&h.src.0);
            out.extend_from_slice(&h.ethertype.to_u16().to_be_bytes());
        }

        fn ipv4(h: &Ipv4Header, payload_len: usize, out: &mut Vec<u8>) {
            let total_len = (IPV4_HEADER_LEN + payload_len) as u16;
            let start = out.len();
            out.push(0x45); // version 4, IHL 5
            out.push(h.dscp_ecn);
            out.extend_from_slice(&total_len.to_be_bytes());
            out.extend_from_slice(&h.identification.to_be_bytes());
            out.extend_from_slice(&[0, 0]); // flags + fragment offset
            out.push(h.ttl);
            out.push(h.proto.to_u8());
            out.extend_from_slice(&[0, 0]); // checksum placeholder
            out.extend_from_slice(&h.src.octets());
            out.extend_from_slice(&h.dst.octets());
            let csum = internet_checksum(&out[start..start + IPV4_HEADER_LEN]);
            out[start + 10..start + 12].copy_from_slice(&csum.to_be_bytes());
        }

        fn ipv6(h: &Ipv6Header, payload_len: usize, out: &mut Vec<u8>) {
            let vtf: u32 =
                (6u32 << 28) | ((h.traffic_class as u32) << 20) | (h.flow_label & 0x000f_ffff);
            out.extend_from_slice(&vtf.to_be_bytes());
            out.extend_from_slice(&(payload_len as u16).to_be_bytes());
            out.push(h.proto.to_u8());
            out.push(h.hop_limit);
            out.extend_from_slice(&h.src.octets());
            out.extend_from_slice(&h.dst.octets());
        }

        fn l4(h: &L4Header, payload_len: usize, out: &mut Vec<u8>) {
            match h {
                L4Header::Tcp {
                    src_port,
                    dst_port,
                    seq,
                    flags,
                } => {
                    out.extend_from_slice(&src_port.to_be_bytes());
                    out.extend_from_slice(&dst_port.to_be_bytes());
                    out.extend_from_slice(&seq.to_be_bytes());
                    out.extend_from_slice(&0u32.to_be_bytes()); // ack
                    out.push(0x50); // data offset 5
                    out.push(*flags);
                    out.extend_from_slice(&0xffffu16.to_be_bytes()); // window
                    out.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent
                }
                L4Header::Udp { src_port, dst_port } => {
                    out.extend_from_slice(&src_port.to_be_bytes());
                    out.extend_from_slice(&dst_port.to_be_bytes());
                    out.extend_from_slice(&((UDP_HEADER_LEN + payload_len) as u16).to_be_bytes());
                    out.extend_from_slice(&[0, 0]); // checksum
                }
                L4Header::Icmp {
                    icmp_type,
                    icmp_code,
                    ..
                } => {
                    out.push(*icmp_type);
                    out.push(*icmp_code);
                    out.extend_from_slice(&[0; 6]);
                }
                L4Header::Other { .. } => {}
            }
        }

        fn l3(pkt: &Packet, out: &mut Vec<u8>) {
            let l4_plus_payload = pkt.l4.header_len() + pkt.payload_len;
            match &pkt.net {
                NetHeader::V4(h) => ipv4(h, l4_plus_payload, out),
                NetHeader::V6(h) => ipv6(h, l4_plus_payload, out),
            }
            l4(&pkt.l4, pkt.payload_len, out);
            out.resize(out.len() + pkt.payload_len, 0);
        }

        fn frame(pkt: &Packet, out: &mut Vec<u8>) {
            eth(&pkt.eth, out);
            l3(pkt, out);
        }

        pub fn encode_into(encap: Encap, pkt: &Packet, out: &mut Vec<u8>) {
            match encap {
                Encap::None => frame(pkt, out),
                Encap::Vlan { tci } => {
                    out.extend_from_slice(&pkt.eth.dst.0);
                    out.extend_from_slice(&pkt.eth.src.0);
                    out.extend_from_slice(&EtherType::Vlan.to_u16().to_be_bytes());
                    out.extend_from_slice(&tci.to_be_bytes());
                    out.extend_from_slice(&pkt.eth.ethertype.to_u16().to_be_bytes());
                    l3(pkt, out);
                }
                Encap::Vxlan {
                    outer_src,
                    outer_dst,
                    vni,
                } => {
                    let udp_payload = VXLAN_HEADER_LEN + pkt.wire_len();
                    let outer_eth = EthernetHeader::new(
                        MacAddr::local(0xA0),
                        MacAddr::local(0xA1),
                        EtherType::Ipv4,
                    );
                    eth(&outer_eth, out);
                    ipv4(
                        &Ipv4Header::new(outer_src.into(), outer_dst.into(), IpProto::Udp),
                        UDP_HEADER_LEN + udp_payload,
                        out,
                    );
                    let outer_udp = L4Header::udp(0xC000 | (vni & 0x3FFF) as u16, VXLAN_PORT);
                    l4(&outer_udp, udp_payload, out);
                    out.push(0x08);
                    out.extend_from_slice(&[0, 0, 0]);
                    out.extend_from_slice(&vni.to_be_bytes()[1..4]);
                    out.push(0);
                    frame(pkt, out);
                }
            }
        }
    }

    /// A packet of every header combination the encoders have an arm for: `shape` picks
    /// v4/v6 and TCP/UDP/ICMP/Other, the raw draws fill every encoded field.
    fn any_packet(shape: (u8, u8), raw: (u128, u128, u64), payload_len: usize) -> Packet {
        let (src, dst, bits) = raw;
        let v6 = shape.0 % 2 == 1;
        let byte = |i: u32| (bits >> (8 * i)) as u8;
        let port = |i: u32| (bits >> (16 * i)) as u16;
        let l4 = match shape.1 % 4 {
            0 => L4Header::Tcp {
                src_port: port(0),
                dst_port: port(1),
                seq: (bits >> 32) as u32,
                flags: byte(3),
            },
            1 => L4Header::udp(port(0), port(1)),
            2 => L4Header::Icmp {
                icmp_type: byte(0),
                icmp_code: byte(1),
                v6,
            },
            _ => L4Header::Other { proto: 200 },
        };
        let net = if v6 {
            NetHeader::V6(Ipv6Header {
                hop_limit: byte(4),
                flow_label: (bits >> 40) as u32,
                traffic_class: byte(5),
                ..Ipv6Header::new(src.into(), dst.into(), l4.proto())
            })
        } else {
            NetHeader::V4(Ipv4Header {
                ttl: byte(4),
                identification: port(3),
                dscp_ecn: byte(5),
                ..Ipv4Header::new((src as u32).into(), (dst as u32).into(), l4.proto())
            })
        };
        let ethertype = if v6 { EtherType::Ipv6 } else { EtherType::Ipv4 };
        Packet {
            eth: EthernetHeader::new(MacAddr::local(byte(6)), MacAddr::local(byte(7)), ethertype),
            net,
            l4,
            payload_len,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every envelope's one-array encoder writes exactly the bytes the push-based
        /// one did, into an empty buffer and appended to a non-empty one.
        #[test]
        fn one_array_encoders_match_the_pushed_oracle(
            shape in (0u8..2, 0u8..4),
            addrs in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
            bits in 0u64..=u64::MAX,
            payload_len in 0usize..=1500,
            env in (0u32..=u32::MAX, 0u32..=u32::MAX, 0u16..=u16::MAX),
        ) {
            let wide = |hi: u64, lo: u64| u128::from(hi) << 64 | u128::from(lo);
            let raw = (wide(addrs.0, addrs.1), wide(addrs.2, addrs.3), bits);
            let pkt = any_packet(shape, raw, payload_len);
            let (a, vni, tci) = env;
            let encaps = [
                Encap::None,
                Encap::Vlan { tci },
                Encap::Vxlan { outer_src: a, outer_dst: !a, vni },
            ];
            for encap in encaps {
                for prefix in [&[][..], &[0xAA, 0xBB, 0xCC][..]] {
                    let mut want = prefix.to_vec();
                    pushed::encode_into(encap, &pkt, &mut want);
                    let mut got = prefix.to_vec();
                    encap.encode_into(&pkt, &mut got);
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(got.len(), prefix.len() + encap.overhead() + pkt.wire_len());
                }
            }
        }
    }

    /// One frame per envelope, recorded from the push-based encoders: encoder and oracle
    /// cannot drift together past these.
    #[test]
    fn pinned_frames() {
        const INNER: &str = "02000000000102000000000208004500002b000000000906e71b0a000001\
                             c0a8000986d901bb00000000000000005000ffff00000000000000";
        let p = PacketBuilder::tcp_v4([10, 0, 0, 1], [192, 168, 0, 9], 34521, 443)
            .ttl(9)
            .payload_len(3)
            .build();
        let hex = |frame: &[u8]| frame.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(hex(&Encap::None.encode(&p)), INNER);
        assert_eq!(
            hex(&Encap::Vlan { tci: 0x2042 }.encode(&p)),
            format!("{}8100204208{}", &INNER[..24], &INNER[26..])
        );
        let vxlan = Encap::Vxlan {
            outer_src: 0xc0a8_0001,
            outer_dst: 0xc0a8_0002,
            vni: 0x00BEEF,
        };
        assert_eq!(
            hex(&vxlan.encode(&p)),
            format!(
                "0200000000a10200000000a008004500005d000000004011f93cc0a80001c0a80002\
                 feef12b5004900000800000000beef00{INNER}"
            )
        );
    }

    #[test]
    fn frame_roundtrip_tcp_v4() {
        let p = PacketBuilder::tcp_v4([10, 0, 0, 1], [192, 168, 0, 9], 34521, 443)
            .ttl(9)
            .payload_len(33)
            .build();
        let wire = encode(&p);
        assert_eq!(wire.len(), p.wire_len());
        let back = decode(&wire).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn frame_roundtrip_udp_v6() {
        let p = PacketBuilder::udp_v6(
            [0xfd00, 0, 0, 0, 0, 0, 0, 1],
            [0xfd00, 0, 0, 0, 0, 0, 0, 2],
            53,
            4444,
        )
        .payload_len(0)
        .build();
        let back = decode(&encode(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn trace_roundtrip() {
        // Raw frames appended with `push` come back out of their slots exactly.
        let packets: Vec<Packet> = (0..10)
            .map(|i| {
                PacketBuilder::udp_v4([10, 0, 0, i as u8], [10, 0, 0, 200], 1000 + i, 80)
                    .payload_len(i as usize * 7)
                    .build()
            })
            .collect();
        let mut trace = WireTrace::new();
        for (i, p) in packets.iter().enumerate() {
            trace.push(i as f64, &encode(p));
        }
        let back: Vec<Packet> = trace.frames().map(|f| decode(f).unwrap()).collect();
        assert_eq!(back, packets);
    }

    #[test]
    fn truncated_trace_rejected() {
        // Frames are delimited by the trace, not by their content: a frame cut short is
        // rejected on its own and its neighbours still decode.
        let p = PacketBuilder::udp_v4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2).build();
        let frame = encode(&p);
        let mut trace = WireTrace::new();
        trace.push(0.0, &frame);
        trace.push(0.1, &frame[..frame.len() - 3 - p.payload_len]);
        trace.push(0.2, &frame);
        assert_eq!(decode(trace.frame(1)), Err(DecodeError::Truncated));
        assert_eq!(decode(trace.frame(0)), Ok(p.clone()));
        assert_eq!(decode(trace.frame(2)), Ok(p));
    }

    #[test]
    fn unsupported_ethertype_rejected() {
        let mut frame = vec![0u8; 60];
        frame[12] = 0x08;
        frame[13] = 0x06; // ARP
        assert!(matches!(
            decode(&frame),
            Err(DecodeError::UnsupportedEtherType(0x0806))
        ));
    }

    #[test]
    fn vlan_tag_roundtrips_to_the_inner_packet() {
        let p = PacketBuilder::tcp_v4([10, 0, 0, 1], [10, 0, 0, 2], 7777, 80)
            .payload_len(11)
            .build();
        let encap = Encap::Vlan { tci: 0x2042 };
        let wire = encap.encode(&p);
        assert_eq!(wire.len(), p.wire_len() + encap.overhead());
        assert_eq!(decode(&wire).unwrap(), p);
    }

    #[test]
    fn vxlan_tunnel_roundtrips_to_the_inner_packet() {
        for inner in [
            PacketBuilder::tcp_v4([10, 0, 0, 1], [10, 0, 0, 2], 7777, 80).build(),
            PacketBuilder::udp_v6(
                [0xfd00, 0, 0, 0, 0, 0, 0, 9],
                [0xfd00, 0, 0, 0, 0, 0, 0, 1],
                5,
                6,
            )
            .build(),
        ] {
            let encap = Encap::Vxlan {
                outer_src: 0xc0a8_0001,
                outer_dst: 0xc0a8_0002,
                vni: 0x00BEEF,
            };
            let wire = encap.encode(&inner);
            assert_eq!(wire.len(), inner.wire_len() + encap.overhead());
            assert_eq!(decode(&wire).unwrap(), inner);
        }
    }

    #[test]
    fn vlan_inside_vxlan_unwraps_both() {
        let p = PacketBuilder::udp_v4([1, 2, 3, 4], [5, 6, 7, 8], 1000, 53).build();
        let mut inner = Vec::new();
        Encap::Vlan { tci: 7 }.encode_into(&p, &mut inner);
        // Wrap the tagged frame by hand (Encap::Vxlan wraps Packets, not raw frames).
        let mut wire = Vec::new();
        let udp_payload = VXLAN_HEADER_LEN + inner.len();
        EthernetHeader::new(MacAddr::local(0xA0), MacAddr::local(0xA1), EtherType::Ipv4)
            .encode(&mut wire);
        Ipv4Header::new(1u32.into(), 2u32.into(), IpProto::Udp)
            .encode(UDP_HEADER_LEN + udp_payload, &mut wire);
        L4Header::udp(0xC003, VXLAN_PORT).encode(udp_payload, &mut wire);
        wire.extend_from_slice(&[0x08, 0, 0, 0, 0, 0, 3, 0]);
        wire.extend_from_slice(&inner);
        assert_eq!(decode(&wire).unwrap(), p);
    }

    #[test]
    fn udp_4789_without_vxlan_header_is_a_plain_packet() {
        // Zero payload to the VXLAN port: the I-flag byte is 0, so no decapsulation.
        let p = PacketBuilder::udp_v4([10, 0, 0, 1], [10, 0, 0, 2], 5555, VXLAN_PORT)
            .payload_len(64)
            .build();
        assert_eq!(decode(&encode(&p)).unwrap(), p);
    }

    #[test]
    fn truncated_vlan_tag_rejected() {
        let p = PacketBuilder::tcp_v4([1, 1, 1, 1], [2, 2, 2, 2], 1, 2).build();
        let wire = Encap::Vlan { tci: 1 }.encode(&p);
        assert_eq!(decode(&wire[..16]), Err(DecodeError::Truncated));
    }

    #[test]
    fn nesting_beyond_max_depth_rejected() {
        let p = PacketBuilder::udp_v4([1, 2, 3, 4], [5, 6, 7, 8], 9, 10).build();
        let mut frame = encode(&p);
        for _ in 0..MAX_ENCAP_DEPTH + 1 {
            let udp_payload = VXLAN_HEADER_LEN + frame.len();
            let mut outer = Vec::new();
            EthernetHeader::default().encode(&mut outer);
            Ipv4Header::new(1u32.into(), 2u32.into(), IpProto::Udp)
                .encode(UDP_HEADER_LEN + udp_payload, &mut outer);
            L4Header::udp(0xC000, VXLAN_PORT).encode(udp_payload, &mut outer);
            outer.extend_from_slice(&[0x08, 0, 0, 0, 0, 0, 0, 0]);
            outer.extend_from_slice(&frame);
            frame = outer;
        }
        assert_eq!(decode(&frame), Err(DecodeError::BadHeader));
    }

    #[test]
    fn wire_trace_replays_frames_and_times() {
        let mut trace = WireTrace::new();
        let packets: Vec<Packet> = (0..5)
            .map(|i| {
                PacketBuilder::tcp_v4([10, 0, 0, i], [10, 0, 0, 99], 1000 + i as u16, 80).build()
            })
            .collect();
        for (i, p) in packets.iter().enumerate() {
            trace.push_packet(i as f64 * 0.5, p, Encap::None);
        }
        assert_eq!(trace.len(), 5);
        assert!(!trace.is_empty());
        assert_eq!(
            trace.wire_bytes(),
            packets.iter().map(|p| p.wire_len()).sum()
        );
        for (i, (t, frame)) in trace.iter().enumerate() {
            assert_eq!(t, i as f64 * 0.5);
            assert_eq!(decode(frame).unwrap(), packets[i]);
            assert_eq!(frame, trace.frame(i));
            assert_eq!(t, trace.time(i));
        }
    }

    #[test]
    #[should_panic]
    fn wire_trace_rejects_time_regressions() {
        let mut trace = WireTrace::new();
        trace.push(1.0, &[0u8; 14]);
        trace.push(0.5, &[0u8; 14]);
    }

    #[test]
    fn wire_fault_display_and_conversion() {
        let f: WireFault = DecodeError::Truncated.into();
        assert_eq!(f, WireFault::Decode(DecodeError::Truncated));
        assert_eq!(f.to_string(), "truncated frame");
        assert!(WireFault::FamilyMismatch.to_string().contains("family"));
    }
}
