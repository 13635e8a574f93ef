//! Property tests pinning the parser↔classifier boundary:
//!
//! * `encode` → `decode` round-trips every generated packet *exactly* — v4 and v6,
//!   plain, VLAN-tagged and VXLAN-encapsulated (the decoder must recover the
//!   innermost packet bit-for-bit, or wire-level replays would diverge from their
//!   key-level twins);
//! * arbitrary byte soup never panics `decode`/`decode_key`/`extract_keys_into`
//!   — the parser is total on adversarial input, it only ever *returns* errors;
//! * for a well-formed frame, the key extracted through the wire path equals the
//!   key crafted directly from the same numeric header fields, under the schema of
//!   the packet's own address family;
//! * the one packet → key decision (`FlowKey::checked_key`, and `wire::decode_key` over
//!   any envelope) yields that key iff the schema expresses the packet's family and
//!   `FamilyMismatch` otherwise — never a truncated key.

use proptest::prelude::*;
use tse_packet::fields::{FieldSchema, Key};
use tse_packet::l4::IpProto;
use tse_packet::wire::{self, Encap, WireFault, WireTrace};
use tse_packet::{extract_keys_into, ExtractScratch, FlowKey, Packet, PacketBuilder};

/// Widen a drawn 64-bit address into the generated family: a ULA-prefixed `u128` for
/// v6, a masked 32-bit address for v4.
fn addr(raw: u64, v6: bool) -> u128 {
    if v6 {
        (0xfd00_u128 << 112) | u128::from(raw)
    } else {
        u128::from(raw as u32)
    }
}

/// A packet from one generated header tuple. `flags` is `(udp, v6)` as integer draws
/// (the stub has no bool strategy).
fn build(
    (src, dst): (u64, u64),
    (sp, dp): (u16, u16),
    (udp, v6): (u8, u8),
    (ttl, payload): (u8, usize),
) -> Packet {
    let proto = if udp == 1 { IpProto::Udp } else { IpProto::Tcp };
    let b = if v6 == 1 {
        PacketBuilder::from_numeric_v6(addr(src, true), addr(dst, true), proto, sp, dp)
    } else {
        PacketBuilder::from_numeric_v4(src as u32, dst as u32, proto, sp, dp)
    };
    b.ttl(ttl.max(1)).payload_len(payload).build()
}

/// The encapsulation under test, picked by an integer draw.
fn encap_of((which, a, b): (u8, u32, u16)) -> Encap {
    match which % 3 {
        0 => Encap::None,
        1 => Encap::Vlan { tci: b },
        _ => Encap::Vxlan {
            outer_src: a,
            outer_dst: !a,
            vni: u32::from(b) & 0x00FF_FFFF,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The innermost packet survives serialisation exactly, whatever the envelope.
    #[test]
    fn encode_decode_round_trips_exactly(
        addrs in (0u64..=u64::MAX, 0u64..=u64::MAX),
        ports in (0u16..=u16::MAX, 0u16..=u16::MAX),
        flags in (0u8..2, 0u8..2),
        shape in (0u8..=u8::MAX, 0usize..256),
        env in (0u8..=u8::MAX, 0u32..=u32::MAX, 0u16..=u16::MAX),
    ) {
        let pkt = build(addrs, ports, flags, shape);
        prop_assert_eq!(&wire::decode(&wire::encode(&pkt)).unwrap(), &pkt);
        let encap = encap_of(env);
        prop_assert_eq!(&wire::decode(&encap.encode(&pkt)).unwrap(), &pkt);
    }

    /// A frame trace round-trips as a whole: every packet comes back out of its slot of
    /// the shared buffer, at its timestamp, whatever the envelope.
    #[test]
    fn trace_round_trips_exactly(
        draws in proptest::collection::vec(
            ((0u64..=u64::MAX, 0u64..=u64::MAX), (0u16..=u16::MAX, 0u16..=u16::MAX), (0u8..2, 0u8..2)),
            0..20,
        ),
        env in (0u8..=u8::MAX, 0u32..=u32::MAX, 0u16..=u16::MAX),
    ) {
        let pkts: Vec<Packet> = draws
            .into_iter()
            .map(|(addrs, ports, flags)| build(addrs, ports, flags, (64, 16)))
            .collect();
        let mut trace = WireTrace::new();
        for (i, pkt) in pkts.iter().enumerate() {
            trace.push_packet(i as f64, pkt, encap_of(env));
        }
        prop_assert_eq!(trace.len(), pkts.len());
        for (i, (time, frame)) in trace.iter().enumerate() {
            prop_assert_eq!(time, i as f64);
            prop_assert_eq!(&wire::decode(frame).unwrap(), &pkts[i]);
        }
    }

    /// The parser is total: arbitrary bytes — including truncations of valid frames —
    /// may fail to decode, but they never panic, and the batch extractor accounts for
    /// every input frame exactly once.
    #[test]
    fn byte_soup_never_panics(
        soup in proptest::collection::vec(0u8..=u8::MAX, 0..200),
        addrs in (0u64..=u64::MAX, 0u64..=u64::MAX),
        cut in 0usize..200,
    ) {
        let _ = wire::decode(&soup);
        let _ = wire::decode_key(&soup, &FieldSchema::ovs_ipv4());
        // A truncated prefix of a well-formed frame must also be handled totally.
        let frame = wire::encode(&build(addrs, (1, 2), (0, 0), (64, 32)));
        let prefix = &frame[..cut.min(frame.len())];
        let _ = wire::decode(prefix);

        let mut scratch = ExtractScratch::new();
        extract_keys_into(&[&soup, prefix, &frame], &mut scratch);
        prop_assert_eq!(scratch.keys().len(), 3);
        prop_assert_eq!(scratch.counts().total(), 3);
        // The full frame always decodes; the batch counters must agree with the
        // per-slot results.
        prop_assert!(scratch.keys()[2].is_ok());
        let ok = scratch.keys().iter().filter(|k| k.is_ok()).count() as u64;
        prop_assert_eq!(scratch.counts().decoded, ok);
    }

    /// Wire extraction and direct key crafting agree: serialising a packet and
    /// re-parsing it yields the very key its numeric header fields spell, under the
    /// schema of its own address family — and under every schema the checked conversion,
    /// packet form and frame form alike, is that key or `FamilyMismatch`.
    #[test]
    fn extracted_key_equals_crafted_key(
        addrs in (0u64..=u64::MAX, 0u64..=u64::MAX),
        ports in (0u16..=u16::MAX, 0u16..=u16::MAX),
        flags in (0u8..2, 0u8..2),
        env in (0u8..=u8::MAX, 0u32..=u32::MAX, 0u16..=u16::MAX),
    ) {
        let (udp, v6) = (flags.0 == 1, flags.1 == 1);
        let ttl = 61u8;
        let pkt = build(addrs, ports, flags, (ttl, 64));
        let frame = encap_of(env).encode(&pkt);

        let mut scratch = ExtractScratch::new();
        extract_keys_into(&[&frame], &mut scratch);
        let flow = scratch.keys()[0].expect("well-formed frame decodes");
        prop_assert_eq!(flow, FlowKey::from_packet(&pkt));
        prop_assert_eq!(flow.is_v6, v6);

        let schema = if v6 { FieldSchema::ovs_ipv6() } else { FieldSchema::ovs_ipv4() };
        let proto: u128 = if udp { 17 } else { 6 };
        let crafted = Key::from_values(
            &schema,
            &[
                addr(addrs.0, v6),
                addr(addrs.1, v6),
                proto,
                u128::from(ttl),
                u128::from(ports.0),
                u128::from(ports.1),
            ],
        );
        prop_assert_eq!(flow.to_key(&schema), crafted.clone());

        for (schema, schema_v6) in [
            (FieldSchema::ovs_ipv4(), Some(false)),
            (FieldSchema::ovs_ipv6(), Some(true)),
            (FieldSchema::hyp(), None),
        ] {
            let expect = if schema_v6 == Some(v6) {
                Ok(crafted.clone())
            } else {
                Err(WireFault::FamilyMismatch)
            };
            prop_assert_eq!(schema.expresses(v6), expect.is_ok());
            prop_assert_eq!(flow.checked_key(&schema), expect.clone());
            prop_assert_eq!(wire::decode_key(&frame, &schema), expect);
        }
    }
}
