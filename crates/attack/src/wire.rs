//! Wire-level traffic sources: pcap-style replay of serialised frames through the real
//! parser.
//!
//! The key-level [`AttackGenerator`](crate::source::AttackGenerator) hands the datapath
//! pre-extracted header keys. [`WireGenerator`] instead serialises every crafted packet
//! to raw Ethernet bytes (optionally under a VLAN/VXLAN overlay, [`Encap`]) and recovers
//! the key through [`tse_packet::wire::decode_key`] — so the full header-layout code runs
//! on the hot path, exactly as a switch fed from a NIC. The two generators share one
//! packet → key conversion (`decode_key` is the parser followed by the
//! `FlowKey::checked_key` the key-level generator calls) and one crafter, so for the same
//! keys, seed, rate and start time they emit **identical** event streams (encode→decode
//! is exact), which the tests here pin; the only difference appears under an overlay,
//! where the event's `bytes` honestly include the encapsulation overhead.
//!
//! [`WireSource`] replays a [`WireTrace`] — raw frames no crafter produces, such as the
//! truncated garbage a malformed-traffic experiment rides along the attack — through the
//! same parser.
//!
//! Frames that fail to decode (or decode into an address family the schema cannot
//! express) are not dropped: they come out as
//! [`EventPayload::Malformed`](crate::source::EventPayload::Malformed) events the
//! experiment runner charges to shard 0, like the datapath's schema-mismatch path.

use rand::Rng;

use tse_packet::fields::{FieldSchema, Key};
use tse_packet::wire::{self, Encap, WireTrace};

use crate::source::{TrafficEvent, TrafficSource};
use crate::trace::Crafter;

/// Decode one frame into a traffic event — the wire-level ingress.
#[inline]
fn frame_event(schema: &FieldSchema, time: f64, frame: &[u8]) -> TrafficEvent {
    TrafficEvent::classified(time, frame.len(), wire::decode_key(frame, schema), schema)
}

/// A [`TrafficSource`] replaying a recorded [`WireTrace`] frame by frame through the
/// wire parser — for frames no crafter produces (garbage, foreign captures); crafted
/// attack traffic comes from a [`WireGenerator`].
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
    use crate::general::RandomKeys;
    use crate::scenarios::Scenario;
    use crate::source::{AttackGenerator, EventPayload, SourceRole};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tse_packet::wire::{DecodeError, WireFault};

    fn stream(mut src: impl TrafficSource) -> Vec<TrafficEvent> {
        std::iter::from_fn(move || src.next_event()).collect()
    }

    #[test]
    fn wire_replay_matches_key_level_replay_exactly() {
        // The crafted packets recorded as frames and replayed by a WireSource classify
        // exactly like the key-level generator that crafts them.
        let schema = FieldSchema::ovs_ipv4();
        let keys = || Scenario::SpDp.key_iter(&schema, &schema.zero_value());
        let rng = || StdRng::seed_from_u64(7);
        let mut frames = WireTrace::new();
        for tp in Crafter::new(&schema, keys(), rng(), 200.0, 3.0) {
            frames.push_packet(tp.time, &tp.packet, Encap::None);
        }
        assert_eq!(frames.len(), 17 * 17);
        let keyed = AttackGenerator::new("atk", &schema, keys(), rng(), 200.0, 3.0);
        let replayed = WireSource::replay("atk", frames, &schema);
        assert_eq!(stream(replayed), stream(keyed));
    }

    /// One crafter, two ingresses: the key-level and the wire-level generator (no encap)
    /// over the same keys, seed, rate and start emit identical `(time, key, bytes,
    /// payload)` streams — one classified packet per key, carrying the key's crafted
    /// fields, at the constant-rate time — and a limit cuts both at the same event.
    fn assert_crafter_parity(schema: &FieldSchema, keys: &[Key], seed: u64, rate: f64, start: f64) {
        let rng = || StdRng::seed_from_u64(seed);
        let keyed =
            || AttackGenerator::new("atk", schema, keys.iter().cloned(), rng(), rate, start);
        let wire = || WireGenerator::new("atk", schema, keys.iter().cloned(), rng(), rate, start);
        let full = stream(keyed());
        assert_eq!(full.len(), keys.len());
        // The crafter fills in the protocol and draws the TTL; every other field is the key's.
        let crafted: Vec<usize> = (0..schema.field_count())
            .filter(|&f| !matches!(schema.fields()[f].name, "ip_proto" | "ttl"))
            .collect();
        for (i, (ev, key)) in full.iter().zip(keys).enumerate() {
            assert_eq!(ev.payload, EventPayload::Packet);
            assert_eq!(ev.time, start + i as f64 * (1.0 / rate));
            assert!(crafted.iter().all(|&f| ev.key.get(f) == key.get(f)));
        }
        assert_eq!(stream(wire()), full, "seed {seed}: wire-level generator");
        let limit = keys.len() / 3;
        assert_eq!(stream(keyed().with_limit(limit)), full[..limit]);
        assert_eq!(stream(wire().with_limit(limit)), full[..limit]);
    }

    #[test]
    fn wire_generator_matches_key_level_generator_exactly() {
        let schema = FieldSchema::ovs_ipv4();
        let keys: Vec<Key> = Scenario::SipDp
            .key_iter(&schema, &schema.zero_value())
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
        let rng = StdRng::seed_from_u64(99);
        let fields = [ip6_src, tp_dst];
        let keys: Vec<Key> = RandomKeys::on_fields(rng, &schema, &fields, &schema.zero_value())
            .take(300)
            .collect();
        for seed in [5, 0x7c5e] {
            assert_crafter_parity(&schema, &keys, seed, 100.0, 0.0);
        }
    }

    #[test]
    fn overlay_encap_extracts_the_inner_key() {
        let schema = FieldSchema::ovs_ipv4();
        let generator = || {
            let keys = Scenario::Dp.key_iter(&schema, &schema.zero_value());
            WireGenerator::new("w", &schema, keys, StdRng::seed_from_u64(1), 100.0, 0.0)
        };
        let plain = stream(generator());
        assert_eq!(plain.len(), 17);
        for encap in [
            Encap::Vlan { tci: 100 },
            Encap::Vxlan {
                outer_src: 0x0a00_0001,
                outer_dst: 0x0a00_0002,
                vni: 42,
            },
        ] {
            let tunneled = stream(generator().with_encap(encap));
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
        let v6 = tse_packet::PacketBuilder::from_numeric_v6(
            (1 << 112) | 2,
            (3 << 112) | 4,
            tse_packet::IpProto::Tcp,
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
