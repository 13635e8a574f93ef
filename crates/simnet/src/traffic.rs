//! Victim traffic sources: iperf-like bulk flows between tenant workloads, and their
//! streaming form ([`VictimSource`]) for the event-driven experiment runner.

use tse_attack::source::{EventPayload, SourceRole, TrafficEvent, TrafficSource};
use tse_packet::builder::PacketBuilder;
use tse_packet::fields::{FieldSchema, Key};
use tse_packet::flowkey::FlowKey;
use tse_packet::l4::IpProto;
use tse_packet::Packet;
use tse_switch::pmd::{Steering, SteeringView};

/// An iperf-like victim flow: a single long-lived TCP or UDP stream offered at a fixed
/// rate between two tenant endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimFlow {
    /// Display name (e.g. "Victim 1").
    pub name: String,
    /// Source IP address (an IPv4 address in the low 32 bits unless
    /// [`VictimFlow::v6`]).
    pub src_ip: u128,
    /// Destination IP address — the victim's service address (an IPv4 address in the
    /// low 32 bits unless [`VictimFlow::v6`]).
    pub dst_ip: u128,
    /// Address family: when set the endpoints are IPv6 and the representative packet
    /// carries an IPv6 header (classify under [`FieldSchema::ovs_ipv6`]).
    pub v6: bool,
    /// Source port.
    pub src_port: u16,
    /// Destination port (80 for the canonical web-service victim).
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: IpProto,
    /// Offered load in Gbps (iperf tries to fill the pipe).
    pub offered_gbps: f64,
    /// Time the flow starts, seconds.
    pub start: f64,
    /// Time the flow stops, seconds (`f64::INFINITY` for "runs forever").
    pub stop: f64,
}

impl VictimFlow {
    /// A full-rate TCP iperf session to the victim web service on port 80.
    pub fn iperf_tcp(name: impl Into<String>, src_ip: u32, dst_ip: u32, offered_gbps: f64) -> Self {
        VictimFlow {
            name: name.into(),
            src_ip: src_ip.into(),
            dst_ip: dst_ip.into(),
            v6: false,
            src_port: 40_000,
            dst_port: 80,
            proto: IpProto::Tcp,
            offered_gbps,
            start: 0.0,
            stop: f64::INFINITY,
        }
    }

    /// A full-rate UDP iperf session (the OpenStack experiment of Fig. 8b).
    pub fn iperf_udp(name: impl Into<String>, src_ip: u32, dst_ip: u32, offered_gbps: f64) -> Self {
        VictimFlow {
            proto: IpProto::Udp,
            ..Self::iperf_tcp(name, src_ip, dst_ip, offered_gbps)
        }
    }

    /// A full-rate TCP iperf session between IPv6 tenant endpoints — the victim of
    /// the IPv6 explosion experiments. Classify under [`FieldSchema::ovs_ipv6`].
    pub fn iperf_tcp_v6(
        name: impl Into<String>,
        src_ip: u128,
        dst_ip: u128,
        offered_gbps: f64,
    ) -> Self {
        VictimFlow {
            name: name.into(),
            src_ip,
            dst_ip,
            v6: true,
            src_port: 40_000,
            dst_port: 80,
            proto: IpProto::Tcp,
            offered_gbps,
            start: 0.0,
            stop: f64::INFINITY,
        }
    }

    /// Restrict the flow to a time window.
    pub fn active_between(mut self, start: f64, stop: f64) -> Self {
        self.start = start;
        self.stop = stop;
        self
    }

    /// Use a distinct source port, so concurrent victim flows between the same two hosts
    /// are distinct 5-tuples (their own flow keys and, under RSS, their own steering).
    pub fn with_src_port(mut self, port: u16) -> Self {
        self.src_port = port;
        self
    }

    /// Scan source ports upward from the current one until the flow's key steers to
    /// `shard` of `n_shards` under `steering` — how an experiment places a victim on a
    /// chosen PMD of a [`ShardedDatapath`](tse_switch::pmd::ShardedDatapath).
    ///
    /// # Panics
    /// Panics if the steering policy does not depend on the source port (a
    /// [`Steering::Pinned`] flow or a [`Steering::PerTenant`] hash of the source
    /// address — no port can move those) and the flow does not already land on
    /// `shard`, or if the scan exhausts all ports without reaching it.
    pub fn steered_to_shard(
        mut self,
        schema: &FieldSchema,
        steering: Steering,
        n_shards: usize,
        shard: usize,
    ) -> Self {
        assert!(shard < n_shards, "target shard out of range");
        let view = SteeringView::new(steering, schema, n_shards);
        let shard_of = |flow: &VictimFlow| view.shard_of_key(&flow.key(schema));
        if shard_of(&self) == shard {
            return self;
        }
        let port_moves_hash = schema
            .field_index("tp_src")
            .is_some_and(|tp_src| steering.steer_fields(schema).contains(&tp_src));
        assert!(
            port_moves_hash,
            "{steering:?} ignores the source port: {} cannot be moved to shard {shard}",
            self.name
        );
        let start = self.src_port;
        for port in start..=u16::MAX {
            self.src_port = port;
            if shard_of(&self) == shard {
                return self;
            }
        }
        panic!(
            "no source port in {start}..=65535 steers {} to shard {shard}/{n_shards}",
            self.name
        );
    }

    /// Is the flow offering traffic at time `t`?
    pub fn is_active(&self, t: f64) -> bool {
        t >= self.start && t < self.stop
    }

    /// A representative packet of the flow: what [`VictimFlow::probe`] reduces to the
    /// probe's key and wire size.
    fn representative_packet(&self) -> Packet {
        let builder = if self.v6 {
            PacketBuilder::from_numeric_v6(
                self.src_ip,
                self.dst_ip,
                self.proto,
                self.src_port,
                self.dst_port,
            )
        } else {
            PacketBuilder::from_numeric_v4(
                self.src_ip as u32,
                self.dst_ip as u32,
                self.proto,
                self.src_port,
                self.dst_port,
            )
        };
        builder.payload_len(1460).build()
    }

    /// The flow's classification key under the given schema.
    ///
    /// Note this builds a representative packet and re-derives the key on every call;
    /// hot paths should derive it once — [`VictimSource`] caches it at construction,
    /// which is how the experiment runner uses victim flows.
    ///
    /// # Panics
    /// Panics if `schema` cannot express the flow's IP family
    /// ([`FlowKey::checked_key`]): a victim whose packets never reach the ACL measures
    /// nothing, so the mistake is reported where the flow meets the schema.
    pub fn key(&self, schema: &FieldSchema) -> Key {
        self.probe(schema).0
    }

    /// The flow's key under `schema` and the wire size of its representative packet.
    fn probe(&self, schema: &FieldSchema) -> (Key, usize) {
        let packet = self.representative_packet();
        match FlowKey::from_packet(&packet).checked_key(schema) {
            Ok(key) => (key, packet.wire_len()),
            Err(fault) => panic!(
                "victim flow {:?} (IPv{}) cannot be classified under this schema: {fault}",
                self.name,
                if self.v6 { 6 } else { 4 }
            ),
        }
    }
}

/// The streaming form of a [`VictimFlow`]: a [`TrafficSource`] emitting one measurement
/// probe per sampling interval while the flow is active (mid-interval, at
/// `k·dt + dt/2` for every grid point `k·dt` inside the flow's activity window).
///
/// `sample_interval` must match the consuming runner's `sample_interval` (pass
/// `runner.sample_interval`, as the runner's own `run` shim does): the runner treats
/// an interval without a probe as "flow inactive", so a coarser probe cadence shows
/// up as spurious zero-throughput samples, and a finer one wastes probes (the last
/// probe per interval wins).
///
/// The schema-derived key and probe size are computed **once** at construction — the
/// per-call packet build of [`VictimFlow::key`] never runs on the event path. A flow
/// with `stop = f64::INFINITY` is an unbounded source; the runner pulls only up to the
/// experiment horizon.
#[derive(Debug, Clone)]
pub struct VictimSource {
    flow: VictimFlow,
    offered_gbps: f64,
    key: Key,
    bytes: usize,
    dt: f64,
    /// Next grid step `k` to probe (probe fires at `k*dt + dt/2`).
    next_step: u64,
}

impl VictimSource {
    /// Wrap a flow for a given sampling interval, pre-deriving its key under `schema`.
    ///
    /// # Panics
    /// Panics if `sample_interval` is not positive, or if `schema` cannot express the
    /// flow's IP family (see [`VictimFlow::key`]).
    pub fn new(flow: VictimFlow, schema: &FieldSchema, sample_interval: f64) -> Self {
        assert!(sample_interval > 0.0, "sample interval must be positive");
        let (key, bytes) = flow.probe(schema);
        // Smallest k >= 0 with k*dt >= start (the first interval whose *start* falls
        // inside the activity window, matching `is_active` sampled at interval starts).
        let mut k = if flow.start <= 0.0 {
            0
        } else {
            (flow.start / sample_interval).ceil() as u64
        };
        while (k as f64) * sample_interval < flow.start {
            k += 1;
        }
        while k > 0 && ((k - 1) as f64) * sample_interval >= flow.start {
            k -= 1;
        }
        VictimSource {
            offered_gbps: flow.offered_gbps,
            flow,
            key,
            bytes,
            dt: sample_interval,
            next_step: k,
        }
    }

    /// The wrapped flow.
    pub fn flow(&self) -> &VictimFlow {
        &self.flow
    }
}

impl TrafficSource for VictimSource {
    fn label(&self) -> &str {
        &self.flow.name
    }

    fn role(&self) -> SourceRole {
        SourceRole::Victim
    }

    fn next_event(&mut self) -> Option<TrafficEvent> {
        let t = self.next_step as f64 * self.dt;
        if !self.flow.is_active(t) {
            return None;
        }
        self.next_step += 1;
        Some(TrafficEvent {
            time: t + self.dt * 0.5,
            key: self.key.clone(),
            bytes: self.bytes,
            payload: EventPayload::Probe {
                offered_gbps: self.offered_gbps,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_window() {
        let f = VictimFlow::iperf_tcp("v", 1, 2, 10.0).active_between(30.0, 60.0);
        assert!(!f.is_active(29.9));
        assert!(f.is_active(30.0));
        assert!(f.is_active(59.9));
        assert!(!f.is_active(60.0));
    }

    #[test]
    fn default_flow_runs_forever() {
        let f = VictimFlow::iperf_tcp("v", 1, 2, 10.0);
        assert!(f.is_active(0.0));
        assert!(f.is_active(1e9));
    }

    #[test]
    fn representative_packet_matches_fields() {
        let f = VictimFlow::iperf_udp("v", 0x0a000005, 0x0a000063, 1.0).with_src_port(555);
        let p = f.representative_packet();
        let k = FlowKey::from_packet(&p);
        assert_eq!(k.ip_src, 0x0a000005);
        assert_eq!(k.ip_dst, 0x0a000063);
        assert_eq!(k.tp_src, 555);
        assert_eq!(k.tp_dst, 80);
        assert_eq!(k.ip_proto, 17);
    }

    #[test]
    fn v6_flow_builds_v6_packets_and_keys() {
        const SRC: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0005;
        const DST: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0063;
        let schema = FieldSchema::ovs_ipv6();
        let f = VictimFlow::iperf_tcp_v6("v6", SRC, DST, 2.0).with_src_port(777);
        let k = FlowKey::from_packet(&f.representative_packet());
        assert!(k.is_v6);
        assert_eq!(k.ip_src, SRC);
        assert_eq!(k.ip_dst, DST);
        assert_eq!(k.ip_proto, 6);
        assert_eq!(k.tp_src, 777);
        let key = f.key(&schema);
        assert_eq!(key.get(schema.field_index("ip6_src").unwrap()), SRC);
        assert_eq!(key.get(schema.field_index("tp_dst").unwrap()), 80);
    }

    #[test]
    fn key_extraction_uses_schema() {
        let schema = FieldSchema::ovs_ipv4();
        let f = VictimFlow::iperf_tcp("v", 7, 9, 1.0);
        let k = f.key(&schema);
        assert_eq!(k.get(schema.field_index("ip_src").unwrap()), 7);
        assert_eq!(k.get(schema.field_index("tp_dst").unwrap()), 80);
    }

    #[test]
    fn steered_to_shard_lands_on_the_requested_shard() {
        let schema = FieldSchema::ovs_ipv4();
        for shard in 0..4 {
            let flow = VictimFlow::iperf_tcp("v", 0x0a000005, 0x0a000063, 4.0)
                .with_src_port(40_000)
                .steered_to_shard(&schema, Steering::Rss, 4, shard);
            let view = SteeringView::new(Steering::Rss, &schema, 4);
            assert_eq!(view.shard_of_key(&flow.key(&schema)), shard);
            assert!(flow.src_port >= 40_000);
        }
        // Pinned steering: reachable iff the pin matches.
        let flow = VictimFlow::iperf_tcp("v", 1, 2, 1.0).steered_to_shard(
            &schema,
            Steering::Pinned(2),
            4,
            2,
        );
        assert_eq!(flow.src_port, 40_000, "first candidate port already works");
    }

    #[test]
    #[should_panic(expected = "ignores the source port")]
    fn steered_to_shard_rejects_port_independent_steering() {
        let schema = FieldSchema::ovs_ipv4();
        // An ip_src whose PerTenant hash misses shard 0: no port can move it.
        let view = SteeringView::new(Steering::PerTenant, &schema, 4);
        let src_ip = (1u32..)
            .find(|&ip| {
                view.shard_of_key(&VictimFlow::iperf_tcp("v", ip, 2, 1.0).key(&schema)) != 0
            })
            .unwrap();
        let _ = VictimFlow::iperf_tcp("v", src_ip, 2, 1.0).steered_to_shard(
            &schema,
            Steering::PerTenant,
            4,
            0,
        );
    }

    #[test]
    fn victim_source_probes_mid_interval_while_active() {
        let schema = FieldSchema::ovs_ipv4();
        let f = VictimFlow::iperf_tcp("v", 1, 2, 4.0).active_between(3.0, 6.0);
        let mut src = VictimSource::new(f.clone(), &schema, 1.0);
        assert_eq!(src.label(), "v");
        assert_eq!(src.role(), SourceRole::Victim);
        let mut events = Vec::new();
        while let Some(ev) = src.next_event() {
            events.push(ev);
        }
        // Probes at 3.5, 4.5, 5.5 — one per interval whose start is inside [3, 6).
        assert_eq!(
            events.iter().map(|e| e.time).collect::<Vec<_>>(),
            vec![3.5, 4.5, 5.5]
        );
        for ev in &events {
            assert_eq!(
                ev.key,
                f.key(&schema),
                "cached key must match VictimFlow::key"
            );
            assert_eq!(ev.payload, EventPayload::Probe { offered_gbps: 4.0 });
        }
    }

    #[test]
    fn always_on_victim_source_is_unbounded() {
        let schema = FieldSchema::ovs_ipv4();
        let mut src = VictimSource::new(VictimFlow::iperf_udp("v", 1, 2, 1.0), &schema, 0.5);
        for step in 0..1000 {
            let ev = src.next_event().expect("infinite source");
            assert_eq!(ev.time, step as f64 * 0.5 + 0.25);
        }
    }

    #[test]
    fn victim_source_respects_unaligned_start() {
        let schema = FieldSchema::ovs_ipv4();
        // Start at 2.3 with dt=1: the first interval whose *start* is active is t=3.
        let f = VictimFlow::iperf_tcp("v", 1, 2, 1.0).active_between(2.3, 5.0);
        let mut src = VictimSource::new(f, &schema, 1.0);
        assert_eq!(src.next_event().unwrap().time, 3.5);
    }
}
