//! The five workloads: what each feeds [`ExperimentRunner::run_mix`] and why.
//!
//! A [`Workload`] is a name, a reason and a size; an [`Instance`] is one workload at
//! one seed and one simulated duration. Everything an instance hands out — the warmed
//! runner, the traffic mix, the scheduled table updates — is a pure function of
//! `(workload, seed, duration)`, so the timed run, the oracle, the traced pass and the
//! drills all see the same inputs. Every source is a lazy generator; the only
//! materialised input is `benign_wire`'s garbage trace (9 bytes a frame).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::classifier::strategy::MegaflowStrategy;
use tse::mitigation::guard::GuardConfig;
use tse::packet::rss;
use tse::prelude::*;

/// Which of the five workloads an [`Instance`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reads only: 513 masks installed in set-up, every timed lookup a deep scan.
    ScanDeep,
    /// Writes beside reads: the §5.4 IPv6 anomaly, ~100 % upcalls, ~100 k entries.
    EntryChurnV6,
    /// Smallest per-packet cost: wire craft/encode/decode and 1-event chunks.
    BenignWire,
    /// The product run: 1000 tenants, mitigation stack, telemetry, pool executor.
    TenantGateway,
    /// The pool used the other way: one big chunk per interval, 513 masks a shard.
    SprayPool,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Name on the command line, in `BENCHMARK.json` and in every output.
    pub name: &'static str,
    /// One line on why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Simulated seconds one repeat runs — a fixed unit of work, so a workload's
    /// inputs never depend on how long it is measured for or on how fast the commit
    /// under test happens to be. Long enough for the workload to be what its name
    /// says (the gateway's guard sweeps, the churn's idle expiry), short enough that
    /// `--seconds` buys many repeats of it.
    pub sim_seconds: f64,
    /// Wall seconds one repeat took on the 2-core box the first baseline was recorded
    /// on; `--seconds` is spent as `seconds / repeat_wall_seconds` repeats.
    pub repeat_wall_seconds: f64,
}

/// The workloads, in the order they run and print.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        kind: Kind::ScanDeep,
        name: "scan_deep",
        why: "Reads only: 513 masks, 0 upcalls, ~278 masks scanned per lookup, so TupleSpace::lookup owns the wall time and every other layer is off the critical path.",
        sim_seconds: 12.0,
        repeat_wall_seconds: 1.0,
    },
    Workload {
        kind: Kind::EntryChurnV6,
        name: "entry_churn_v6",
        why: "Writes beside reads (paper 5.4): ~100 % upcalls, <=17 masks, ~100 k live 128-bit entries churned by idle expiry; a lookup win paid for in insert/expiry shows here.",
        sim_seconds: 18.0,
        repeat_wall_seconds: 1.0,
    },
    Workload {
        kind: Kind::BenignWire,
        name: "benign_wire",
        why: "Smallest per-packet cost: <=2 masks, so frame craft/encode/decode, steering and the runner's per-chunk fixed cost dominate; interleaved sources make 1-event chunks.",
        sim_seconds: 24.0,
        repeat_wall_seconds: 1.0,
    },
    Workload {
        kind: Kind::TenantGateway,
        name: "tenant_gateway",
        why: "The product run: 997 probes and SLO trackers per interval, ACL installs, mitigation stack, mixed hits and upcalls in small chunks on the pool executor.",
        sim_seconds: 12.0,
        repeat_wall_seconds: 1.5,
    },
    Workload {
        kind: Kind::SprayPool,
        name: "spray_pool",
        why: "Same pool, used the other way: one big chunk per interval and 513 masks on every shard, so shard work parallelises; shares classifier with scan_deep, executor with tenant_gateway.",
        sim_seconds: 16.0,
        repeat_wall_seconds: 1.1,
    },
];

/// Simulated seconds of a `--quick` repeat: a smoke test, too short for the 10 s idle
/// timeout or the guard's cadence to act.
pub const QUICK_SIM_SECONDS: f64 = 5.0;

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Repeats that fill about `wall_seconds` of measurement (at least two, so the
    /// cross-repeat digest check always has something to compare).
    pub fn repeats_for(&self, wall_seconds: f64) -> usize {
        ((wall_seconds / self.repeat_wall_seconds).round() as usize).max(2)
    }

    /// This workload at one seed and one simulated duration.
    pub fn instance(&'static self, seed: u64, sim_seconds: f64) -> Instance {
        let schema = match self.kind {
            Kind::EntryChurnV6 => FieldSchema::ovs_ipv6(),
            _ => FieldSchema::ovs_ipv4(),
        };
        let fleet = (self.kind == Kind::TenantGateway).then(|| {
            TenantFleet::new(
                &schema,
                FleetConfig {
                    tenants: 1000,
                    attackers: 3,
                    offered_gbps: 0.01,
                    attack_rate_pps: GATEWAY_ATTACK_PPS,
                    duration: sim_seconds,
                    churn: Some(ChurnConfig::default()),
                    seed,
                },
            )
        });
        Instance {
            workload: self,
            seed,
            duration: sim_seconds,
            schema,
            fleet,
        }
    }
}

/// Which executor an [`Instance::runner`] gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The executor the workload is defined with.
    Workload,
    /// [`SequentialExecutor`] regardless — the base of `switch.exec_speedup` and of
    /// the executor-parity self-test.
    Sequential,
    /// The persistent pool regardless (`--exec pool`: the other side of the README's
    /// sequential-versus-pool table).
    Pool,
}

impl Exec {
    /// The spelling `--exec` takes.
    pub fn name(self) -> &'static str {
        match self {
            Exec::Workload => "workload",
            Exec::Sequential => "sequential",
            Exec::Pool => "pool",
        }
    }
}

impl std::str::FromStr for Exec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        [Exec::Workload, Exec::Sequential, Exec::Pool]
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| format!("unknown executor {s:?}"))
    }
}

const SCAN_PPS: f64 = 3000.0;
const CHURN_V6_PPS: f64 = 10_000.0;
const WIRE_PPS_PER_SOURCE: f64 = 20_000.0;
const WIRE_GARBAGE_PPS: f64 = 600.0;
const WIRE_FLOWS: u64 = 65_536;
const GATEWAY_ATTACK_PPS: f64 = 1200.0;
const SPRAY_PPS: f64 = 4000.0;
const SPRAY_SHARDS: usize = 4;
/// Worker threads of the pool workloads (the baseline box has 2 cores).
const POOL_THREADS: usize = 2;

const V6_ALLOWED_SRC: u128 = 0xfd00_0000_0000_0000_0000_0000_0000_0001;
const V6_SERVICE_DST: u128 = 0xfd00_0000_0000_0000_0000_0000_0000_0063;
/// Shorter than any Ethernet header: `DecodeError::Truncated`.
const GARBAGE_FRAME: [u8; 9] = [0xDE; 9];

/// The three wire envelopes `benign_wire` interleaves.
const WIRE_ENCAPS: [Encap; 3] = [
    Encap::None,
    Encap::Vlan { tci: 100 },
    Encap::Vxlan {
        outer_src: 0x0a00_0001,
        outer_dst: 0x0a00_0002,
        vni: 42,
    },
];

/// One workload at one seed and one simulated duration.
#[derive(Debug)]
pub struct Instance {
    /// The workload this is an instance of.
    pub workload: &'static Workload,
    /// The seed every generator of the instance derives from.
    pub seed: u64,
    /// Simulated duration handed to `run_mix`, seconds.
    pub duration: f64,
    /// The flow-key schema of the workload's table.
    pub schema: FieldSchema,
    fleet: Option<TenantFleet>,
}

impl Instance {
    /// The table installed at t = 0.
    pub fn table(&self) -> FlowTable {
        match self.workload.kind {
            Kind::EntryChurnV6 => FlowTable::whitelist_default_deny(
                &self.schema,
                &[
                    (self.field("tp_dst"), 80),
                    (self.field("ip6_src"), V6_ALLOWED_SRC),
                ],
            ),
            Kind::TenantGateway => self.fleet().table(),
            _ => Scenario::SipDp.flow_table(&self.schema),
        }
    }

    /// Scheduled flow-table replacements `(time, table)`, sorted by time.
    pub fn table_updates(&self) -> Vec<(f64, FlowTable)> {
        let mut updates = self
            .fleet
            .as_ref()
            .map(TenantFleet::table_updates)
            .unwrap_or_default();
        updates.sort_by(|a, b| a.0.total_cmp(&b.0));
        updates
    }

    /// The megaflow-generation strategy of the workload's slow path.
    pub fn strategy(&self) -> MegaflowStrategy {
        match self.workload.kind {
            Kind::EntryChurnV6 => MegaflowStrategy::ovs_ipv6_anomaly(&self.schema),
            _ => MegaflowStrategy::wildcarding(&self.schema),
        }
    }

    /// Whether the workload is defined on the persistent pool.
    pub fn uses_pool(&self) -> bool {
        matches!(self.workload.kind, Kind::TenantGateway | Kind::SprayPool)
    }

    /// Garbage frames `benign_wire` injects over the whole run (0 elsewhere).
    pub fn garbage_frames(&self) -> u64 {
        match self.workload.kind {
            Kind::BenignWire => (WIRE_GARBAGE_PPS * self.duration) as u64,
            _ => 0,
        }
    }

    /// The envelopes the workload's frames travel in, by source index — what the
    /// packet-layer drill encodes its frame sample under.
    pub fn encaps(&self) -> &'static [Encap] {
        match self.workload.kind {
            Kind::BenignWire => &WIRE_ENCAPS,
            _ => &WIRE_ENCAPS[..1],
        }
    }

    /// Build the runner — table, datapath, executor, mitigations, telemetry — and warm
    /// its caches. Timed as set-up, together with [`Instance::mix`].
    pub fn runner(&self, exec: Exec) -> ExperimentRunner {
        let builder = Datapath::builder(self.table()).strategy(self.strategy());
        let offload = OffloadConfig::gro_off();
        let mut runner = match self.workload.kind {
            Kind::ScanDeep | Kind::EntryChurnV6 => {
                ExperimentRunner::new(builder.build(), Vec::new(), offload)
            }
            Kind::BenignWire => ExperimentRunner::sharded(
                ShardedDatapath::from_builder(builder, 2, Steering::Rss),
                Vec::new(),
                offload,
            ),
            Kind::TenantGateway => ExperimentRunner::sharded(
                ShardedDatapath::from_builder(builder, 4, Steering::PerTenant),
                Vec::new(),
                offload,
            )
            .with_mitigation(AdaptiveRekey::new(30.0, GATEWAY_ATTACK_PPS * 0.25, 7))
            .with_mitigation(GuardMitigation::new(GuardConfig {
                interval: 10.0,
                mask_threshold: 100,
                ..GuardConfig::default()
            }))
            .with_telemetry(TelemetryConfig::with_hot_capacity(120).with_slo_floor(0.005))
            .with_table_updates(self.table_updates()),
            Kind::SprayPool => ExperimentRunner::sharded(
                ShardedDatapath::from_builder(builder, SPRAY_SHARDS, Steering::Rss),
                Vec::new(),
                offload,
            )
            .with_mitigation(RssKeyRandomizer::new(30.0, self.seed ^ 0xC0FFEE)),
        };
        let pooled = match exec {
            Exec::Workload => self.uses_pool(),
            Exec::Sequential => false,
            Exec::Pool => true,
        };
        if pooled {
            runner = runner.with_executor(PersistentPoolExecutor::new(POOL_THREADS));
        }
        if self.workload.kind == Kind::ScanDeep {
            // Warm-up: install the whole explosion and the victim's entry, so the
            // timed phase only ever reads the cache.
            for key in self.explosion_keys() {
                runner.datapath.process_key(&key, 64, 0.0);
            }
            let victim = self.victims()[0].key(&self.schema);
            runner.datapath.process_key(&victim, 1514, 0.0);
            runner.datapath.reset_stats();
        }
        runner
    }

    /// The workload's traffic, from t = 0 to the end of the run.
    pub fn mix(&self) -> TrafficMix<'static> {
        let schema = &self.schema;
        let dt = 1.0;
        let mut mix = TrafficMix::new();
        match self.workload.kind {
            Kind::TenantGateway => return self.fleet().mix(dt),
            Kind::ScanDeep => {
                mix.push(Box::new(VictimSource::new(
                    self.victims().remove(0),
                    schema,
                    dt,
                )));
                mix.push(Box::new(
                    AttackGenerator::new(
                        "Attacker",
                        schema,
                        self.explosion_keys().cycle(),
                        StdRng::seed_from_u64(self.seed),
                        SCAN_PPS,
                        0.0,
                    )
                    .with_limit(self.packets(SCAN_PPS)),
                ));
            }
            Kind::EntryChurnV6 => {
                mix.push(Box::new(VictimSource::new(
                    self.victims().remove(0),
                    schema,
                    dt,
                )));
                let keys = RandomKeys::on_fields(
                    StdRng::seed_from_u64(self.seed ^ 0x6b65_7973),
                    schema,
                    &[self.field("ip6_src"), self.field("tp_dst")],
                    &schema.zero_value(),
                );
                mix.push(Box::new(
                    AttackGenerator::new(
                        "Attacker",
                        schema,
                        keys,
                        StdRng::seed_from_u64(self.seed),
                        CHURN_V6_PPS,
                        0.0,
                    )
                    .with_limit(self.packets(CHURN_V6_PPS)),
                ));
            }
            Kind::BenignWire => {
                for (i, (label, encap)) in ["plain", "vlan", "vxlan"]
                    .into_iter()
                    .zip(WIRE_ENCAPS)
                    .enumerate()
                {
                    // Equal rates, staggered by a third of a period: the merged
                    // stream alternates sources, so every chunk is one event long.
                    let start = i as f64 / (3.0 * WIRE_PPS_PER_SOURCE);
                    mix.push(Box::new(
                        WireGenerator::new(
                            label,
                            schema,
                            self.allowed_flow_keys(i as u64),
                            StdRng::seed_from_u64(self.seed ^ i as u64),
                            WIRE_PPS_PER_SOURCE,
                            start,
                        )
                        .with_encap(encap)
                        .with_limit(self.packets(WIRE_PPS_PER_SOURCE)),
                    ));
                }
                let mut garbage = WireTrace::new();
                for i in 0..self.garbage_frames() {
                    garbage.push((i as f64 + 0.5) / WIRE_GARBAGE_PPS, &GARBAGE_FRAME);
                }
                mix.push(Box::new(WireSource::replay("garbage", garbage, schema)));
            }
            Kind::SprayPool => {
                for victim in self.victims() {
                    mix.push(Box::new(VictimSource::new(victim, schema, dt)));
                }
                let keys = spray_shards(
                    schema,
                    self.explosion_keys().cycle(),
                    self.field("ip_dst"),
                    SPRAY_SHARDS,
                );
                mix.push(Box::new(
                    AttackGenerator::new(
                        "Attacker",
                        schema,
                        keys,
                        StdRng::seed_from_u64(self.seed),
                        SPRAY_PPS,
                        0.0,
                    )
                    .with_limit(self.packets(SPRAY_PPS)),
                ));
            }
        }
        mix
    }

    fn fleet(&self) -> &TenantFleet {
        self.fleet
            .as_ref()
            .expect("tenant_gateway instances carry a fleet")
    }

    fn field(&self, name: &str) -> usize {
        self.schema
            .field_index(name)
            .unwrap_or_else(|| panic!("schema lacks field {name}"))
    }

    fn packets(&self, rate_pps: f64) -> usize {
        (rate_pps * self.duration) as usize
    }

    /// The SipDp co-located key stream (TCP, the attacker's own service as the
    /// RSS-free destination) — one pass installs the whole 513-mask explosion.
    fn explosion_keys(&self) -> BitInversionKeys {
        let mut base = self.schema.zero_value();
        base.set(self.field("ip_proto"), 6);
        base.set(self.field("ip_dst"), 0x0a00_00c8);
        Scenario::SipDp.key_iter(&self.schema, &base)
    }

    /// The victim flows probed once per interval.
    fn victims(&self) -> Vec<VictimFlow> {
        match self.workload.kind {
            Kind::ScanDeep => vec![VictimFlow::iperf_tcp(
                "Victim",
                0x0a00_0005,
                0x0a00_0063,
                10.0,
            )],
            Kind::EntryChurnV6 => vec![VictimFlow::iperf_tcp_v6(
                "Victim",
                V6_ALLOWED_SRC,
                V6_SERVICE_DST,
                10.0,
            )],
            Kind::SprayPool => (0..SPRAY_SHARDS)
                .map(|shard| {
                    VictimFlow::iperf_tcp(
                        format!("Victim {shard}"),
                        0x0a00_0005 + shard as u32,
                        0x0a00_0063,
                        4.0,
                    )
                    .steered_to_shard(
                        &self.schema,
                        Steering::Rss,
                        SPRAY_SHARDS,
                        shard,
                    )
                })
                .collect(),
            Kind::BenignWire | Kind::TenantGateway => Vec::new(),
        }
    }

    /// An endless walk over 65 536 allowed (port-80) flows: flow `n` of source
    /// `source` is a seed-derived full-period affine step through the flow ids, so
    /// the three sources visit the same flows in unrelated orders.
    fn allowed_flow_keys(&self, source: u64) -> impl Iterator<Item = Key> + Send + 'static {
        let schema = self.schema.clone();
        let (ip_src, ip_dst, ip_proto, tp_src, tp_dst) = (
            self.field("ip_src"),
            self.field("ip_dst"),
            self.field("ip_proto"),
            self.field("tp_src"),
            self.field("tp_dst"),
        );
        let mixed = rss::splitmix64_mix(self.seed ^ (source << 32));
        let (step, offset) = (mixed | 1, mixed >> 17);
        (0u64..).map(move |n| {
            let flow = (n.wrapping_mul(step).wrapping_add(offset)) % WIRE_FLOWS;
            let mut key = schema.zero_value();
            key.set(ip_src, u128::from(0x0b00_0000 + flow));
            key.set(ip_dst, 0x0a00_0063);
            key.set(ip_proto, 6);
            key.set(tp_src, u128::from(1024 + flow % 60_000));
            key.set(tp_dst, 80);
            key
        })
    }
}
