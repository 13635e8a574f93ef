//! The attack crafter: header keys turned into concrete, timed packets.
//!
//! The generators in [`crate::colocated`] and [`crate::general`] work on header *keys*;
//! this module turns them into real [`Packet`]s (with randomised noise fields, §5.2) sent
//! at a constant rate — the packets a real attacker replays from a pcap in a loop (§5.4).
//! Its one consumer form is a source: [`AttackGenerator`](crate::source::AttackGenerator)
//! at the key level, [`WireGenerator`](crate::wire::WireGenerator) at the wire level.

use rand::Rng;

use tse_packet::builder::PacketBuilder;
use tse_packet::fields::{FieldSchema, Key};
use tse_packet::l4::IpProto;
use tse_packet::Packet;

/// One timed packet of an attack.
#[derive(Debug, Clone)]
pub(crate) struct TimedPacket {
    /// Send time in seconds from the start of the experiment.
    pub(crate) time: f64,
    /// The packet itself.
    pub(crate) packet: Packet,
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
/// the limit. The key-level and wire-level generators are this plus an ingress — so
/// both emit the same packets at the same times by construction.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scenario;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tse_packet::flowkey::{FlowKey, MicroflowKey};

    fn crafter(
        scenario: Scenario,
        seed: u64,
        rate_pps: f64,
        start_time: f64,
    ) -> Crafter<impl Iterator<Item = Key>, StdRng> {
        let schema = FieldSchema::ovs_ipv4();
        let keys = scenario.key_iter(&schema, &schema.zero_value()).cycle();
        Crafter::new(
            &schema,
            keys,
            StdRng::seed_from_u64(seed),
            rate_pps,
            start_time,
        )
    }

    #[test]
    fn trace_timing_matches_rate() {
        let schema = FieldSchema::ovs_ipv4();
        let keys = Scenario::Dp.key_iter(&schema, &schema.zero_value());
        let packets: Vec<TimedPacket> =
            Crafter::new(&schema, keys, StdRng::seed_from_u64(1), 100.0, 5.0).collect();
        assert_eq!(packets.len(), 17);
        assert!((packets[0].time - 5.0).abs() < 1e-9);
        assert!((packets[1].time - 5.01).abs() < 1e-9);
        assert!((packets[16].time - 5.16).abs() < 1e-9);
    }

    #[test]
    fn low_rate_attack_is_sub_mbps() {
        // §5/§10: ~1 000 packets at 1 000 pps is ≈0.7 Mbps — a low-rate attack.
        let packets: Vec<TimedPacket> = crafter(Scenario::SipSpDp, 2, 1000.0, 0.0)
            .with_limit(1000)
            .collect();
        let bytes: usize = packets.iter().map(|p| p.packet.wire_len()).sum();
        let seconds = packets[999].time - packets[0].time;
        let mbps = bytes as f64 * 8.0 / seconds / 1e6;
        assert!(
            mbps < 1.0,
            "attack rate {mbps} Mbps should stay below 1 Mbps"
        );
        assert!(mbps > 0.1);
    }

    #[test]
    fn noise_makes_every_packet_a_distinct_microflow() {
        let schema = FieldSchema::ovs_ipv4();
        let keys = std::iter::repeat_n(schema.zero_value(), 50);
        let micro: std::collections::HashSet<MicroflowKey> =
            Crafter::new(&schema, keys, StdRng::seed_from_u64(3), 10.0, 0.0)
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
        // The pcap replayed in a loop: packet 17 of the cycled 17-key Dp sequence
        // carries packet 0's header again, with fresh noise, until the limit.
        let packets: Vec<TimedPacket> = crafter(Scenario::Dp, 4, 50.0, 0.0)
            .with_limit(100)
            .collect();
        assert_eq!(packets.len(), 100);
        let tuple = |p: &TimedPacket| {
            let k = FlowKey::from_packet(&p.packet);
            (k.ip_src, k.ip_dst, k.tp_src, k.tp_dst)
        };
        assert_eq!(tuple(&packets[17]), tuple(&packets[0]));
        assert_ne!(tuple(&packets[1]), tuple(&packets[0]));
    }
}
