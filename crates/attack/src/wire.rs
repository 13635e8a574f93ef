//! Wire-level traffic sources: pcap-style replay of serialised frames through the real
//! parser.
//!
//! The key-level sources in [`crate::source`] hand the datapath pre-extracted header
//! keys. The sources here instead serialise every packet to raw Ethernet bytes
//! (optionally under a VLAN/VXLAN overlay, [`Encap`]) and recover the key through
//! [`tse_packet::wire::decode_key`] — so the full header-layout code runs on the hot
//! path, exactly as a switch fed from a NIC. Key-level and wire-level sources share one
//! packet → key conversion (`decode_key` is the parser followed by the
//! `FlowKey::checked_key` the key-level sources call) and one crafter, so for the same
//! keys, seed, rate and start time a wire source emits an event stream **identical** to
//! its key-level counterpart (encode→decode is exact), which the tests here pin; the
//! only difference appears under an overlay, where the event's `bytes` honestly include
//! the encapsulation overhead.
//!
//! Frames that fail to decode (or decode into an address family the schema cannot
//! express) are not dropped: they come out as
//! [`EventPayload::Malformed`](crate::source::EventPayload::Malformed) events the
//! experiment runner charges to shard 0, like the datapath's schema-mismatch path.

use rand::Rng;

use tse_packet::fields::{FieldSchema, Key};
use tse_packet::wire::{self, Encap, WireTrace};

use crate::source::{TrafficEvent, TrafficSource};
use crate::trace::{AttackTrace, Crafter};

/// Serialise an [`AttackTrace`] into a [`WireTrace`] under the given encapsulation —
/// the "write the pcap" half of wire-level replay.
pub fn wire_trace(trace: &AttackTrace, encap: Encap) -> WireTrace {
    let mut out = WireTrace::new();
    for tp in trace.packets() {
        out.push_packet(tp.time, &tp.packet, encap);
    }
    out
}

/// Decode one frame into a traffic event — the wire-level ingress.
#[inline]
fn frame_event(schema: &FieldSchema, time: f64, frame: &[u8]) -> TrafficEvent {
    TrafficEvent::classified(time, frame.len(), wire::decode_key(frame, schema), schema)
}

/// A [`TrafficSource`] replaying a [`WireTrace`] frame by frame through the wire
/// parser — the pcap-replay attacker of §5.4, down to the bytes.
#[derive(Debug, Clone)]
pub struct WireSource {
    label: String,
    schema: FieldSchema,
    trace: WireTrace,
    cursor: usize,
}

impl WireSource {
    /// Replay `trace` as events under `schema`.
    pub fn replay(label: impl Into<String>, trace: WireTrace, schema: &FieldSchema) -> Self {
        WireSource {
            label: label.into(),
            schema: schema.clone(),
            trace,
            cursor: 0,
        }
    }

    /// The frame trace being replayed.
    pub fn trace(&self) -> &WireTrace {
        &self.trace
    }
}

impl TrafficSource for WireSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn next_event(&mut self) -> Option<TrafficEvent> {
        if self.cursor >= self.trace.len() {
            return None;
        }
        let i = self.cursor;
        self.cursor += 1;
        Some(frame_event(
            &self.schema,
            self.trace.time(i),
            self.trace.frame(i),
        ))
    }
}

/// The lazy wire-level generator: draws each attack packet from the crafter
/// [`crate::source::AttackGenerator`] draws from (same builder, same noise draws, same
/// constant-rate timestamps), serialises it into a reusable frame buffer under the
/// configured [`Encap`], and recovers the classification key through the real parser.
/// O(1) memory for any packet count, zero per-packet buffer allocations in steady state.
#[derive(Debug, Clone)]
pub struct WireGenerator<I, R> {
    label: String,
    schema: FieldSchema,
    crafter: Crafter<I, R>,
    encap: Encap,
    frame: Vec<u8>,
}

impl<I, R> WireGenerator<I, R>
where
    I: Iterator<Item = Key>,
    R: Rng,
{
    /// Create a generator over an OVS schema (IPv4 or IPv6), one frame per key drawn
    /// from `keys` at `rate_pps` starting at `start_time`, with no encapsulation.
    pub fn new(
        label: impl Into<String>,
        schema: &FieldSchema,
        keys: I,
        rng: R,
        rate_pps: f64,
        start_time: f64,
    ) -> Self {
        WireGenerator {
            label: label.into(),
            schema: schema.clone(),
            crafter: Crafter::new(schema, keys, rng, rate_pps, start_time),
            encap: Encap::None,
            frame: Vec::new(),
        }
    }

    /// Serialise every frame under `encap`. Under a VXLAN tunnel the outer header is
    /// the tunnel's fixed VTEP addresses and VNI — the attacker controls only the
    /// inner frame, which is exactly what the parser extracts and the ACL classifies.
    pub fn with_encap(mut self, encap: Encap) -> Self {
        self.encap = encap;
        self
    }

    /// Cap the stream at `count` frames (the cyclic-replay form).
    pub fn with_limit(mut self, count: usize) -> Self {
        self.crafter = self.crafter.with_limit(count);
        self
    }
}

impl<I, R> TrafficSource for WireGenerator<I, R>
where
    I: Iterator<Item = Key> + Send,
    R: Rng + Send,
{
    fn label(&self) -> &str {
        &self.label
    }

    fn next_event(&mut self) -> Option<TrafficEvent> {
        let tp = self.crafter.next()?;
        self.frame.clear();
        self.encap.encode_into(&tp.packet, &mut self.frame);
        Some(frame_event(&self.schema, tp.time, &self.frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colocated::{scenario_key_iter, scenario_trace};
    use crate::general::random_trace_on_fields;
    use crate::scenarios::Scenario;
    use crate::source::{AttackGenerator, EventPayload, SourceRole, TraceSource};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tse_packet::wire::{DecodeError, WireFault};

    fn stream(mut src: impl TrafficSource) -> Vec<TrafficEvent> {
        std::iter::from_fn(move || src.next_event()).collect()
    }

    #[test]
    fn wire_replay_matches_key_level_replay_exactly() {
        let schema = FieldSchema::ovs_ipv4();
        let keys = scenario_trace(&schema, Scenario::SpDp, &schema.zero_value());
        let trace =
            AttackTrace::from_keys(&mut StdRng::seed_from_u64(7), &schema, &keys, 200.0, 3.0);
        let wire = WireSource::replay("atk", wire_trace(&trace, Encap::None), &schema);
        assert_eq!(wire.trace().len(), trace.len());
        let keyed = TraceSource::new("atk", &trace, &schema);
        assert_eq!(stream(wire), stream(keyed));
    }

    /// One crafter, three forms: the materialised trace replayed key-level, the lazy
    /// key-level generator and the lazy wire-level generator (no encap) over the same
    /// keys, seed, rate and start emit identical `(time, key, bytes, payload)` streams,
    /// and a limit cuts both generators at the same event.
    fn assert_crafter_parity(schema: &FieldSchema, keys: &[Key], seed: u64, rate: f64, start: f64) {
        let rng = || StdRng::seed_from_u64(seed);
        let trace = AttackTrace::from_keys(&mut rng(), schema, keys, rate, start);
        let full = stream(trace.source("atk", schema));
        assert_eq!(full.len(), keys.len());
        assert!(full.iter().all(|ev| ev.payload == EventPayload::Packet));
        let keyed =
            || AttackGenerator::new("atk", schema, keys.iter().cloned(), rng(), rate, start);
        let wire = || WireGenerator::new("atk", schema, keys.iter().cloned(), rng(), rate, start);
        assert_eq!(stream(keyed()), full, "seed {seed}: key-level generator");
        assert_eq!(stream(wire()), full, "seed {seed}: wire-level generator");
        let limit = keys.len() / 3;
        assert_eq!(stream(keyed().with_limit(limit)), full[..limit]);
        assert_eq!(stream(wire().with_limit(limit)), full[..limit]);
    }

    #[test]
    fn wire_generator_matches_key_level_generator_exactly() {
        let schema = FieldSchema::ovs_ipv4();
        let keys: Vec<Key> = scenario_key_iter(&schema, Scenario::SipDp, &schema.zero_value())
            .cycle()
            .take(400)
            .collect();
        for seed in [42, 0x7c5e] {
            assert_crafter_parity(&schema, &keys, seed, 250.0, 10.0);
        }
    }

    #[test]
    fn ipv6_wire_generator_matches_key_level_generator() {
        let schema = FieldSchema::ovs_ipv6();
        let ip6_src = schema.field_index("ip6_src").unwrap();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let keys = random_trace_on_fields(
            &mut StdRng::seed_from_u64(99),
            &schema,
            &[ip6_src, tp_dst],
            &schema.zero_value(),
            300,
        );
        for seed in [5, 0x7c5e] {
            assert_crafter_parity(&schema, &keys, seed, 100.0, 0.0);
        }
    }

    #[test]
    fn overlay_encap_extracts_the_inner_key() {
        let schema = FieldSchema::ovs_ipv4();
        let keys = scenario_trace(&schema, Scenario::Dp, &schema.zero_value());
        let trace =
            AttackTrace::from_keys(&mut StdRng::seed_from_u64(1), &schema, &keys, 100.0, 0.0);
        let replay = |encap| stream(WireSource::replay("w", wire_trace(&trace, encap), &schema));
        let plain = replay(Encap::None);
        for encap in [
            Encap::Vlan { tci: 100 },
            Encap::Vxlan {
                outer_src: 0x0a00_0001,
                outer_dst: 0x0a00_0002,
                vni: 42,
            },
        ] {
            let tunneled = replay(encap);
            assert_eq!(tunneled.len(), plain.len());
            for (t, p) in tunneled.iter().zip(plain.iter()) {
                // The overlay changes the wire bytes but not the classified key: the
                // attacker-controlled inner header passes through the tunnel intact.
                assert_eq!(t.key, p.key);
                assert_eq!(t.time, p.time);
                assert_eq!(t.payload, p.payload);
                assert_eq!(t.bytes, p.bytes + encap.overhead());
            }
        }
    }

    #[test]
    fn unclassifiable_frames_become_malformed_events() {
        let schema = FieldSchema::ovs_ipv4();
        let v6 = tse_packet::PacketBuilder::tcp_v6(
            [1, 0, 0, 0, 0, 0, 0, 2],
            [3, 0, 0, 0, 0, 0, 0, 4],
            1,
            2,
        )
        .build();
        let good = tse_packet::PacketBuilder::tcp_v4([10, 0, 0, 1], [10, 0, 0, 2], 1, 80).build();
        let mut trace = WireTrace::new();
        trace.push_packet(0.0, &good, Encap::None);
        trace.push(0.1, &wire::encode(&good)[..9]); // truncated
        trace.push_packet(0.2, &v6, Encap::None); // family mismatch under v4 schema
        let events = stream(WireSource::replay("mix", trace, &schema));
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].payload, EventPayload::Packet);
        assert_eq!(
            events[1].payload,
            EventPayload::Malformed {
                fault: WireFault::Decode(DecodeError::Truncated)
            }
        );
        assert_eq!(events[1].key, schema.zero_value());
        assert_eq!(
            events[2].payload,
            EventPayload::Malformed {
                fault: WireFault::FamilyMismatch
            }
        );
        let src = WireSource::replay("mix", WireTrace::new(), &schema);
        assert_eq!(src.role(), SourceRole::Attacker);
    }
}
