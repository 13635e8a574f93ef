//! Tenant-scale workload builders: gateway fleets of hundreds to thousands of tenants
//! behind one hypervisor switch, plus the benign flow churn that keeps a real
//! multi-tenant cache busy.
//!
//! Two pieces:
//!
//! * [`ChurnSource`] — a [`TrafficSource`] of Poisson-like benign flow arrivals
//!   ([`SourceRole::Background`]): short-lived client flows against a set of tenant
//!   services, a mix of ACL-allowed and ACL-denied traffic, so the megaflow cache sees
//!   realistic install/expire churn even with no attack running. Reusable standalone
//!   in any [`TrafficMix`].
//! * [`TenantFleet`] — the §3.3 cloud gateway at scale: `n` tenants, each with a
//!   WhiteList+DefaultDeny web ACL and an iperf-like victim flow, a few of them
//!   hostile. Attackers start benign and *turn* hostile mid-run: at staggered onsets
//!   their ACL is replaced with the shard-pinned SpDp attack pattern (a scheduled
//!   [`install_table`](tse_switch::pmd::ShardedDatapath::install_table) update, i.e. a
//!   CMS policy change with megaflow revalidation), after which they replay the
//!   bit-inversion outer product from a single client address — pinning the mask
//!   explosion to one RX queue under [`Steering::PerTenant`](tse_switch::pmd::Steering).
//!
//! All randomness is drawn from the vendored deterministic [`rand`] stub on fixed
//! grids (discretized geometric inter-arrivals — no `ln`), so fleets are bit-for-bit
//! reproducible across runs, executors and platforms.

use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tse_attack::colocated::bit_inversion_keys;
use tse_attack::source::{AttackGenerator, SourceRole, TrafficEvent, TrafficMix, TrafficSource};
use tse_classifier::flowtable::FlowTable;
use tse_packet::builder::PacketBuilder;
use tse_packet::fields::{FieldSchema, Key};
use tse_packet::flowkey::FlowKey;
use tse_packet::l4::IpProto;
use tse_packet::wire::WireFault;
use tse_switch::tenant::{merge_tenant_acls, AclField, TenantAcl};

use crate::traffic::{VictimFlow, VictimSource};

/// Configuration of a [`ChurnSource`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Mean new-flow arrivals per second (Poisson, discretized on a 1 ms grid).
    pub arrival_rate: f64,
    /// Mean flow lifetime, seconds (geometric continuation per packet — the
    /// discretized exponential).
    pub mean_lifetime: f64,
    /// Packets per second each live flow sends.
    pub flow_pps: f64,
    /// Fraction (numerator over 4) of flows aimed at the allowed port 80; the rest hit
    /// a random high port and are dropped by the tenant ACL — both kinds still install
    /// megaflows and burn CPU, which is the point.
    pub allowed_in_4: u32,
    /// First arrival not before this time, seconds.
    pub start: f64,
    /// No arrivals at or after this time (live flows also stop emitting past it).
    /// `f64::INFINITY` keeps churning for as long as the experiment pulls.
    pub stop: f64,
    /// Seed for the source's private deterministic RNG.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            arrival_rate: 20.0,
            mean_lifetime: 10.0,
            flow_pps: 5.0,
            allowed_in_4: 3,
            start: 0.0,
            stop: f64::INFINITY,
            seed: 0x5eed_c0de,
        }
    }
}

/// A pending packet emission of one live churn flow. Ordered by time, then by spawn
/// sequence number — a total order (`total_cmp`), so the heap pop order is
/// deterministic even under exact timestamp ties.
#[derive(Debug, Clone, PartialEq)]
struct ChurnFlow {
    time: f64,
    seq: u64,
    /// The flow's packet → key decision, made once at spawn.
    key: Result<Key, WireFault>,
    bytes: usize,
    interval: f64,
}

impl Eq for ChurnFlow {}

impl Ord for ChurnFlow {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ChurnFlow {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Benign tenant flow churn as a background [`TrafficSource`] — see the
/// [module docs](self).
#[derive(Debug)]
pub struct ChurnSource {
    label: String,
    schema: FieldSchema,
    services: Vec<u32>,
    config: ChurnConfig,
    rng: StdRng,
    next_arrival: f64,
    spawned: u64,
    heap: BinaryHeap<ChurnFlow>,
    continue_p: f64,
}

impl ChurnSource {
    /// A churn source over the given tenant service addresses (each new flow picks one
    /// uniformly).
    ///
    /// # Panics
    /// Panics if `services` is empty or the config's rates/lifetime are not positive.
    pub fn new(
        label: impl Into<String>,
        schema: &FieldSchema,
        services: Vec<u32>,
        config: ChurnConfig,
    ) -> Self {
        assert!(!services.is_empty(), "churn needs at least one service");
        assert!(config.arrival_rate > 0.0, "arrival rate must be positive");
        assert!(config.mean_lifetime > 0.0, "mean lifetime must be positive");
        assert!(config.flow_pps > 0.0, "flow pps must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Each packet continues the flow with probability 1 - 1/(lifetime · pps):
        // geometric packet counts with the configured mean — the discretized
        // exponential lifetime, with no platform-dependent `ln` involved.
        let mean_packets = (config.mean_lifetime * config.flow_pps).max(1.0);
        let continue_p = 1.0 - 1.0 / mean_packets;
        let start = config.start;
        let mut source = ChurnSource {
            label: label.into(),
            schema: schema.clone(),
            services,
            rng: StdRng::seed_from_u64(0),
            next_arrival: start,
            spawned: 0,
            heap: BinaryHeap::new(),
            continue_p,
            config,
        };
        source.next_arrival = start + Self::arrival_gap(&mut rng, source.config.arrival_rate);
        source.rng = rng;
        source
    }

    /// One Poisson inter-arrival gap, discretized on a 1 ms grid: count Bernoulli
    /// ticks until the first success. Integer/compare-only, hence bit-deterministic.
    fn arrival_gap(rng: &mut StdRng, rate: f64) -> f64 {
        let p = (rate * 0.001).clamp(1e-9, 1.0);
        let mut ticks = 1u64;
        while rng.gen_range(0.0..1.0) >= p {
            ticks += 1;
        }
        ticks as f64 * 0.001
    }

    fn spawn_flow(&mut self) {
        let t = self.next_arrival;
        self.next_arrival = t + Self::arrival_gap(&mut self.rng, self.config.arrival_rate);
        let service = self.services[self.rng.gen_range(0..self.services.len())];
        let src_ip = 0x0c00_0000u32 | self.rng.gen_range(0u32..=0xffff);
        let src_port: u16 = self.rng.gen_range(1024u16..=65000);
        let dst_port: u16 = if self.rng.gen_range(0u32..4) < self.config.allowed_in_4 {
            80
        } else {
            self.rng.gen_range(1024u16..=65000)
        };
        let packet =
            PacketBuilder::from_numeric_v4(src_ip, service, IpProto::Tcp, src_port, dst_port)
                .randomize_noise(&mut self.rng)
                .build();
        let key = FlowKey::from_packet(&packet).checked_key(&self.schema);
        self.heap.push(ChurnFlow {
            time: t,
            seq: self.spawned,
            key,
            bytes: packet.wire_len(),
            interval: 1.0 / self.config.flow_pps,
        });
        self.spawned += 1;
    }
}

impl TrafficSource for ChurnSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn role(&self) -> SourceRole {
        SourceRole::Background
    }

    fn next_event(&mut self) -> Option<TrafficEvent> {
        // Admit every arrival due before the earliest pending packet, so events come
        // out in nondecreasing time order.
        while self.next_arrival < self.config.stop
            && self
                .heap
                .peek()
                .map(|f| self.next_arrival <= f.time)
                .unwrap_or(true)
        {
            self.spawn_flow();
        }
        let flow = self.heap.pop()?;
        let event = TrafficEvent::classified(flow.time, flow.bytes, flow.key.clone(), &self.schema);
        let next_time = flow.time + flow.interval;
        if next_time < self.config.stop && self.rng.gen_range(0.0..1.0) < self.continue_p {
            self.heap.push(ChurnFlow {
                time: next_time,
                ..flow
            });
        }
        Some(event)
    }
}

/// Configuration of a [`TenantFleet`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Total tenants behind the gateway (each gets a service IP and a web ACL).
    pub tenants: usize,
    /// How many of them (the last ones) turn hostile mid-run. Must be < `tenants`.
    pub attackers: usize,
    /// Offered load per benign tenant flow, Gbps.
    pub offered_gbps: f64,
    /// Attack packet rate per hostile tenant, pps.
    pub attack_rate_pps: f64,
    /// Experiment horizon, seconds (attack onsets are staggered across it).
    pub duration: f64,
    /// Benign background flow churn (`None` for a sterile fleet).
    pub churn: Option<ChurnConfig>,
    /// Base seed for all fleet randomness.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            tenants: 1000,
            attackers: 3,
            offered_gbps: 0.01,
            attack_rate_pps: 200.0,
            duration: 3600.0,
            churn: Some(ChurnConfig::default()),
            seed: 2026,
        }
    }
}

/// A multi-tenant gateway workload: per-tenant ACLs, per-tenant victim flows,
/// staggered mid-run attackers and optional background churn — everything an
/// [`ExperimentRunner`](crate::runner::ExperimentRunner) needs for the tenant-scale
/// scenario. See the [module docs](self).
#[derive(Debug)]
pub struct TenantFleet {
    schema: FieldSchema,
    config: FleetConfig,
}

impl TenantFleet {
    /// Build a fleet over `schema` (the OVS IPv4 schema in every figure experiment).
    ///
    /// # Panics
    /// Panics unless `0 < attackers < tenants` and the rates/duration are positive.
    pub fn new(schema: &FieldSchema, config: FleetConfig) -> Self {
        assert!(config.tenants >= 2, "a fleet needs at least 2 tenants");
        assert!(
            config.attackers < config.tenants,
            "attackers must leave at least one benign tenant"
        );
        assert!(config.duration > 0.0, "duration must be positive");
        assert!(config.offered_gbps > 0.0, "offered load must be positive");
        assert!(config.attack_rate_pps > 0.0, "attack rate must be positive");
        TenantFleet {
            schema: schema.clone(),
            config,
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Tenant `i`'s service address (10.16.0.0/16 space).
    pub fn service_ip(&self, i: usize) -> u32 {
        0x0a10_0000u32 + i as u32
    }

    /// Tenant `i`'s client source address (10.0.0.0/16 space) — what per-tenant
    /// steering hashes, so it decides the tenant's RX queue.
    pub fn client_ip(&self, i: usize) -> u32 {
        0x0a00_0000u32 + i as u32
    }

    /// True if tenant `i` is one of the hostile tenants (the last
    /// [`FleetConfig::attackers`] indices).
    pub fn is_attacker(&self, i: usize) -> bool {
        i >= self.config.tenants - self.config.attackers
    }

    /// Benign tenant indices, in victim-series order.
    pub fn benign_tenants(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.config.tenants).filter(|&i| !self.is_attacker(i))
    }

    /// Display name of tenant `i`.
    pub fn tenant_name(&self, i: usize) -> String {
        if self.is_attacker(i) {
            format!("attacker-{i:04}")
        } else {
            format!("tenant-{i:04}")
        }
    }

    /// When the `j`-th attacker (0-based) starts sending attack traffic: staggered
    /// from 20 % to 80 % of the horizon, so short smoke runs and hour-long runs both
    /// exercise every onset.
    pub fn attack_onset(&self, j: usize) -> f64 {
        let n = self.config.attackers.max(1);
        let frac = if n == 1 {
            0.2
        } else {
            0.2 + 0.6 * j as f64 / (n - 1) as f64
        };
        self.config.duration * frac
    }

    fn acls(&self, hostile_through: Option<usize>) -> Vec<TenantAcl> {
        (0..self.config.tenants)
            .map(|i| {
                let hostile = match hostile_through {
                    Some(j) => {
                        self.is_attacker(i) && {
                            let rank = i - (self.config.tenants - self.config.attackers);
                            rank <= j
                        }
                    }
                    None => false,
                };
                if hostile {
                    TenantAcl::sp_dp_attack(self.tenant_name(i), self.service_ip(i) as u128)
                } else {
                    TenantAcl::web_service(self.tenant_name(i), self.service_ip(i) as u128)
                }
            })
            .collect()
    }

    /// The initial merged flow table: every tenant (hostile ones included) runs the
    /// benign web ACL — nobody has attacked yet.
    pub fn table(&self) -> FlowTable {
        merge_tenant_acls(&self.schema, &self.acls(None))
    }

    /// The scheduled ACL changes: 2 s before each attacker's onset, the merged table
    /// is replaced with one where that attacker (and every earlier one) runs the SpDp
    /// attack ACL — the CMS-side policy update that arms the attack, revalidating
    /// megaflows on install. Feed to
    /// [`ExperimentRunner::with_table_updates`](crate::runner::ExperimentRunner::with_table_updates).
    pub fn table_updates(&self) -> Vec<(f64, FlowTable)> {
        (0..self.config.attackers)
            .map(|j| {
                let t = (self.attack_onset(j) - 2.0).max(0.0);
                (t, merge_tenant_acls(&self.schema, &self.acls(Some(j))))
            })
            .collect()
    }

    /// The traffic mix: one victim flow per benign tenant (probed every
    /// `sample_interval`), one bit-inversion attack generator per hostile tenant
    /// (starting at its onset, running to the horizon), plus background churn over
    /// every benign service when configured.
    pub fn mix(&self, sample_interval: f64) -> TrafficMix<'static> {
        let mut mix = TrafficMix::new();
        for i in self.benign_tenants() {
            let flow = VictimFlow::iperf_tcp(
                self.tenant_name(i),
                self.client_ip(i),
                self.service_ip(i),
                self.config.offered_gbps,
            );
            mix.push(Box::new(VictimSource::new(
                flow,
                &self.schema,
                sample_interval,
            )));
        }
        let first_attacker = self.config.tenants - self.config.attackers;
        for j in 0..self.config.attackers {
            let i = first_attacker + j;
            let onset = self.attack_onset(j);
            let tp_src = AclField::SrcPort.schema_index(&self.schema);
            let tp_dst = AclField::DstPort.schema_index(&self.schema);
            let ip_src = AclField::SrcIp.schema_index(&self.schema);
            let ip_dst = self
                .schema
                .field_index("ip_dst")
                .expect("IPv4 schema has ip_dst");
            let mut base = self.schema.zero_value();
            // One fixed client address: under per-tenant steering the whole outer
            // product lands on the attacker's own RX queue.
            base.set(ip_src, self.client_ip(i) as u128);
            base.set(ip_dst, self.service_ip(i) as u128);
            let keys =
                bit_inversion_keys(&self.schema, &[(tp_dst, 80), (tp_src, 12345)], &base).cycle();
            let packets = (self.config.attack_rate_pps * (self.config.duration - onset))
                .ceil()
                .max(0.0) as usize;
            mix.push(Box::new(
                AttackGenerator::new(
                    self.tenant_name(i),
                    &self.schema,
                    keys,
                    StdRng::seed_from_u64(self.config.seed ^ (0xa77a << 16) ^ j as u64),
                    self.config.attack_rate_pps,
                    onset,
                )
                .with_limit(packets),
            ));
        }
        if let Some(churn) = &self.config.churn {
            let mut churn = churn.clone();
            if !churn.stop.is_finite() {
                churn.stop = self.config.duration;
            }
            churn.seed ^= self.config.seed;
            let services: Vec<u32> = self.benign_tenants().map(|i| self.service_ip(i)).collect();
            mix.push(Box::new(ChurnSource::new(
                "churn",
                &self.schema,
                services,
                churn,
            )));
        }
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_emits_ordered_background_events() {
        let schema = FieldSchema::ovs_ipv4();
        let mut churn = ChurnSource::new(
            "churn",
            &schema,
            vec![0x0a10_0001],
            ChurnConfig {
                arrival_rate: 50.0,
                mean_lifetime: 0.5,
                flow_pps: 10.0,
                stop: 5.0,
                ..ChurnConfig::default()
            },
        );
        assert_eq!(churn.role(), SourceRole::Background);
        let mut last = f64::NEG_INFINITY;
        let mut count = 0usize;
        let mut allowed = 0usize;
        let dst_port = schema.field_index("tp_dst").unwrap();
        while let Some(ev) = churn.next_event() {
            assert!(ev.time >= last, "events must be time-ordered");
            assert!(ev.time < 5.0 + 0.2, "no packets past stop");
            last = ev.time;
            count += 1;
            if ev.key.get(dst_port) == 80 {
                allowed += 1;
            }
        }
        assert!(count > 100, "5 s of churn should emit plenty: {count}");
        assert!(
            allowed > count / 3 && allowed < count,
            "mixed allowed/denied traffic: {allowed}/{count}"
        );
        assert!(churn.spawned > 50);
    }

    #[test]
    fn churn_is_deterministic() {
        let schema = FieldSchema::ovs_ipv4();
        let cfg = ChurnConfig {
            stop: 3.0,
            ..ChurnConfig::default()
        };
        let collect = |cfg: &ChurnConfig| {
            let mut s = ChurnSource::new("c", &schema, vec![1, 2, 3], cfg.clone());
            let mut events = Vec::new();
            while let Some(ev) = s.next_event() {
                events.push(ev);
            }
            events
        };
        assert_eq!(collect(&cfg), collect(&cfg), "bit-identical replay");
    }

    #[test]
    fn fleet_builds_tables_updates_and_mix() {
        let schema = FieldSchema::ovs_ipv4();
        let fleet = TenantFleet::new(
            &schema,
            FleetConfig {
                tenants: 16,
                attackers: 2,
                duration: 100.0,
                ..FleetConfig::default()
            },
        );
        // 16 single-clause web ACLs + DefaultDeny.
        assert_eq!(fleet.table().len(), 17);
        let updates = fleet.table_updates();
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].0, 18.0); // onset 20.0 - 2 s lead
        assert_eq!(updates[1].0, 78.0);
        // Second update: both attackers hostile, 2 clauses each -> 14 + 4 + 1 rules.
        assert_eq!(updates[1].1.len(), 19);
        let roles = fleet.mix(1.0).roles();
        let victims = roles.iter().filter(|r| **r == SourceRole::Victim).count();
        let attackers = roles.iter().filter(|r| **r == SourceRole::Attacker).count();
        let background = roles
            .iter()
            .filter(|r| **r == SourceRole::Background)
            .count();
        assert_eq!((victims, attackers, background), (14, 2, 1));
        assert!(fleet.is_attacker(15) && fleet.is_attacker(14) && !fleet.is_attacker(13));
    }

    #[test]
    fn attack_onsets_are_staggered_inside_the_horizon() {
        let schema = FieldSchema::ovs_ipv4();
        let fleet = TenantFleet::new(
            &schema,
            FleetConfig {
                tenants: 8,
                attackers: 3,
                duration: 3600.0,
                ..FleetConfig::default()
            },
        );
        assert_eq!(fleet.attack_onset(0), 720.0);
        assert_eq!(fleet.attack_onset(1), 1800.0);
        assert_eq!(fleet.attack_onset(2), 2880.0);
    }
}
