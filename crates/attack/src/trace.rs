//! Attack traces as concrete, timed packets.
//!
//! The generators in [`crate::colocated`] and [`crate::general`] work on header *keys*;
//! this module turns them into real [`Packet`]s (with randomised noise fields, §5.2) and
//! attaches send times for a given packet rate, yielding the trace a real attacker would
//! replay from a pcap (§5.4).

use rand::Rng;

use tse_packet::builder::PacketBuilder;
use tse_packet::fields::{FieldSchema, Key};
use tse_packet::l4::IpProto;
use tse_packet::Packet;

/// One timed packet of an attack trace.
#[derive(Debug, Clone)]
pub struct TimedPacket {
    /// Send time in seconds from the start of the trace.
    pub time: f64,
    /// The packet itself.
    pub packet: Packet,
}

/// A replayable attack trace: packets with send times, produced at a constant rate.
#[derive(Debug, Clone, Default)]
pub struct AttackTrace {
    packets: Vec<TimedPacket>,
}

/// Field indices an attack crafter needs, resolved once per schema. Works on both OVS
/// schema families: `ip_src`/`ip_dst` (IPv4) or `ip6_src`/`ip6_dst` (IPv6).
///
/// # Panics
/// Panics if `schema` is neither OVS family.
fn crafting_fields(schema: &FieldSchema) -> (usize, usize, usize, usize, bool) {
    let (ip_src, ip_dst, is_v6) = match schema.field_index("ip_src") {
        Some(src) => (
            src,
            schema.field_index("ip_dst").expect("OVS IPv4 schema"),
            false,
        ),
        None => (
            schema
                .field_index("ip6_src")
                .expect("OVS IPv4 or IPv6 schema"),
            schema.field_index("ip6_dst").expect("OVS IPv6 schema"),
            true,
        ),
    };
    let tp_src = schema.field_index("tp_src").expect("OVS schema");
    let tp_dst = schema.field_index("tp_dst").expect("OVS schema");
    (ip_src, ip_dst, tp_src, tp_dst, is_v6)
}

/// Craft one attack packet (before noise randomisation) from a header key.
fn craft_packet(key: &Key, fields: (usize, usize, usize, usize, bool)) -> PacketBuilder {
    let (ip_src, ip_dst, tp_src, tp_dst, is_v6) = fields;
    if is_v6 {
        PacketBuilder::from_numeric_v6(
            key.get(ip_src),
            key.get(ip_dst),
            IpProto::Tcp,
            key.get(tp_src) as u16,
            key.get(tp_dst) as u16,
        )
    } else {
        PacketBuilder::from_numeric_v4(
            key.get(ip_src) as u32,
            key.get(ip_dst) as u32,
            IpProto::Tcp,
            key.get(tp_src) as u16,
            key.get(tp_dst) as u16,
        )
    }
}

/// The one attack crafter: an iterator turning header keys into the attack's timed
/// packets. Packet `i` is built from the `i`-th key, its noise fields (TTL, IP id / flow
/// label, TCP seq) drawn from the crafter's RNG so every packet is a distinct microflow
/// (§5.2), and stamped `start_time + i / rate_pps`; the stream ends with the keys or at
/// the limit. A materialised [`AttackTrace`] is this collected; the lazy key-level and
/// wire-level generators are this plus an ingress — so all three emit the same packets
/// at the same times by construction.
#[derive(Debug, Clone)]
pub(crate) struct Crafter<I, R> {
    fields: (usize, usize, usize, usize, bool),
    keys: I,
    rng: R,
    rate_pps: f64,
    start_time: f64,
    emitted: usize,
    limit: Option<usize>,
}

impl<I, R> Crafter<I, R> {
    /// A crafter over an OVS schema (IPv4 or IPv6), one packet per key of `keys`.
    ///
    /// # Panics
    /// Panics if `rate_pps` is not positive or `schema` is neither OVS family.
    pub(crate) fn new(
        schema: &FieldSchema,
        keys: I,
        rng: R,
        rate_pps: f64,
        start_time: f64,
    ) -> Self {
        assert!(rate_pps > 0.0, "rate must be positive");
        Crafter {
            fields: crafting_fields(schema),
            keys,
            rng,
            rate_pps,
            start_time,
            emitted: 0,
            limit: None,
        }
    }

    /// Stop after `count` packets even if keys remain.
    pub(crate) fn with_limit(mut self, count: usize) -> Self {
        self.limit = Some(count);
        self
    }
}

impl<I: Iterator<Item = Key>, R: Rng> Iterator for Crafter<I, R> {
    type Item = TimedPacket;

    #[inline]
    fn next(&mut self) -> Option<TimedPacket> {
        if self.limit.is_some_and(|limit| self.emitted >= limit) {
            return None;
        }
        let key = self.keys.next()?;
        let packet = craft_packet(&key, self.fields)
            .randomize_noise(&mut self.rng)
            .build();
        let time = self.start_time + self.emitted as f64 * (1.0 / self.rate_pps);
        self.emitted += 1;
        Some(TimedPacket { time, packet })
    }
}

impl AttackTrace {
    /// Build a trace from header keys over an OVS schema (IPv4 or IPv6), sent at
    /// `rate_pps` starting at `start_time`. Each packet's noise fields (TTL, IP id /
    /// flow label, TCP seq) are randomised so every packet is a distinct microflow.
    pub fn from_keys<R: Rng + ?Sized>(
        rng: &mut R,
        schema: &FieldSchema,
        keys: &[Key],
        rate_pps: f64,
        start_time: f64,
    ) -> Self {
        let crafter = Crafter::new(schema, keys.iter().cloned(), rng, rate_pps, start_time);
        AttackTrace {
            packets: crafter.collect(),
        }
    }

    /// Repeat the key sequence until `count` packets have been emitted (the attacker
    /// replays the pcap in a loop to keep entries alive).
    pub fn from_keys_cyclic<R: Rng + ?Sized>(
        rng: &mut R,
        schema: &FieldSchema,
        keys: &[Key],
        rate_pps: f64,
        start_time: f64,
        count: usize,
    ) -> Self {
        assert!(!keys.is_empty());
        let repeated: Vec<Key> = (0..count).map(|i| keys[i % keys.len()].clone()).collect();
        Self::from_keys(rng, schema, &repeated, rate_pps, start_time)
    }

    /// The timed packets, in send order.
    pub fn packets(&self) -> &[TimedPacket] {
        &self.packets
    }

    /// View the trace as a pull-based [`TrafficSource`](crate::source::TrafficSource)
    /// replaying its packets as keyed events under `schema` — the adapter that plugs a
    /// materialised trace into a [`TrafficMix`](crate::source::TrafficMix).
    pub fn source<'a>(
        &'a self,
        label: impl Into<String>,
        schema: &FieldSchema,
    ) -> crate::source::TraceSource<'a> {
        crate::source::TraceSource::new(label, self, schema)
    }

    /// Number of packets in the trace.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total trace duration in seconds (0 for traces with fewer than two packets).
    pub fn duration(&self) -> f64 {
        match (self.packets.first(), self.packets.last()) {
            (Some(first), Some(last)) => last.time - first.time,
            _ => 0.0,
        }
    }

    /// Aggregate attack bandwidth in bits per second (wire bytes / duration), the number
    /// the paper quotes as "0.67 Mbps is enough to tear down OVS".
    pub fn bandwidth_bps(&self) -> f64 {
        if self.packets.len() < 2 {
            return 0.0;
        }
        let bytes: usize = self.packets.iter().map(|p| p.packet.wire_len()).sum();
        bytes as f64 * 8.0 / self.duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colocated::scenario_trace;
    use crate::scenarios::Scenario;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tse_packet::flowkey::MicroflowKey;

    #[test]
    fn trace_timing_matches_rate() {
        let schema = FieldSchema::ovs_ipv4();
        let mut rng = StdRng::seed_from_u64(1);
        let keys = scenario_trace(&schema, Scenario::Dp, &schema.zero_value());
        let trace = AttackTrace::from_keys(&mut rng, &schema, &keys, 100.0, 5.0);
        assert_eq!(trace.len(), 17);
        assert!((trace.packets()[0].time - 5.0).abs() < 1e-9);
        assert!((trace.packets()[1].time - 5.01).abs() < 1e-9);
        assert!((trace.duration() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn low_rate_attack_is_sub_mbps() {
        // §5/§10: ~1 000 packets at 1 000 pps is ≈0.7 Mbps — a low-rate attack.
        let schema = FieldSchema::ovs_ipv4();
        let mut rng = StdRng::seed_from_u64(2);
        let keys = scenario_trace(&schema, Scenario::SipSpDp, &schema.zero_value());
        let trace = AttackTrace::from_keys_cyclic(
            &mut rng,
            &schema,
            &keys[..1000.min(keys.len())],
            1000.0,
            0.0,
            1000,
        );
        let mbps = trace.bandwidth_bps() / 1e6;
        assert!(
            mbps < 1.0,
            "attack rate {mbps} Mbps should stay below 1 Mbps"
        );
        assert!(mbps > 0.1);
    }

    #[test]
    fn noise_makes_every_packet_a_distinct_microflow() {
        let schema = FieldSchema::ovs_ipv4();
        let mut rng = StdRng::seed_from_u64(3);
        let keys = vec![schema.zero_value(); 50];
        let trace = AttackTrace::from_keys(&mut rng, &schema, &keys, 10.0, 0.0);
        let micro: std::collections::HashSet<MicroflowKey> = trace
            .packets()
            .iter()
            .map(|p| MicroflowKey::from_packet(&p.packet))
            .collect();
        assert!(
            micro.len() > 45,
            "noise should make microflow keys distinct: {}",
            micro.len()
        );
    }

    #[test]
    fn cyclic_replay_repeats_keys() {
        let schema = FieldSchema::ovs_ipv4();
        let mut rng = StdRng::seed_from_u64(4);
        let keys = scenario_trace(&schema, Scenario::Dp, &schema.zero_value());
        let trace = AttackTrace::from_keys_cyclic(&mut rng, &schema, &keys, 50.0, 0.0, 100);
        assert_eq!(trace.len(), 100);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = AttackTrace::default();
        assert!(t.is_empty());
        assert_eq!(t.duration(), 0.0);
        assert_eq!(t.bandwidth_bps(), 0.0);
    }
}
