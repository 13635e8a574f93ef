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
            Encap::Vxlan { .. } => {
                ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + VXLAN_HEADER_LEN
            }
        }
    }

    /// Append the encapsulated wire encoding of `pkt` to `out`.
    pub fn encode_into(&self, pkt: &Packet, out: &mut Vec<u8>) {
        match *self {
            Encap::None => encode_into(pkt, out),
            Encap::Vlan { tci } => {
                out.extend_from_slice(&pkt.eth.dst.0);
                out.extend_from_slice(&pkt.eth.src.0);
                out.extend_from_slice(&EtherType::Vlan.to_u16().to_be_bytes());
                out.extend_from_slice(&tci.to_be_bytes());
                out.extend_from_slice(&pkt.eth.ethertype.to_u16().to_be_bytes());
                encode_l3_into(pkt, out);
            }
            Encap::Vxlan {
                outer_src,
                outer_dst,
                vni,
            } => {
                let udp_payload = VXLAN_HEADER_LEN + pkt.wire_len();
                // Outer frame: VTEP-to-VTEP Ethernet + IPv4 + UDP. The UDP source port
                // is derived from the VNI the way real VTEPs derive it from a flow hash
                // — deterministic here so traces replay bit-identically.
                EthernetHeader::new(MacAddr::local(0xA0), MacAddr::local(0xA1), EtherType::Ipv4)
                    .encode(out);
                Ipv4Header::new(outer_src.into(), outer_dst.into(), IpProto::Udp)
                    .encode(UDP_HEADER_LEN + udp_payload, out);
                L4Header::udp(0xC000 | (vni & 0x3FFF) as u16, VXLAN_PORT).encode(udp_payload, out);
                // VXLAN header: I-flag set, reserved zero, 24-bit VNI, reserved zero.
                out.push(0x08);
                out.extend_from_slice(&[0, 0, 0]);
                out.extend_from_slice(&vni.to_be_bytes()[1..4]);
                out.push(0);
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
