//! The sharded SipDp fixture of the shard-targeted figure binaries
//! (`fig_shard_blast_radius`, `fig_mitigation_matrix`, `fig_overlay_explosion`): a
//! multi-PMD datapath behind RSS steering under the Fig. 6 ACL, victims probing it, and
//! one co-located SipDp attacker at [`ATTACK_PPS`] from t = [`ATTACK_START`] whose free
//! destination address aims every packet at shard 0 or round-robin at all shards.
//!
//! A binary passes only what differs between the experiments: the mitigations it
//! attaches to the [`runner`], where the stream is aimed ([`pinned_keys`] /
//! [`sprayed_keys`]) and how it enters the switch ([`Ingress`]).

use std::iter::Cycle;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse_attack::scenarios::Scenario;
use tse_attack::sharding::{pin_to_shard, spray_shards, ShardSteeredKeys};
use tse_attack::source::{AttackGenerator, TrafficMix};
use tse_attack::wire::WireGenerator;
use tse_attack::BitInversionKeys;
use tse_packet::fields::FieldSchema;
use tse_packet::wire::Encap;
use tse_simnet::offload::OffloadConfig;
use tse_simnet::runner::{ExperimentRunner, Timeline};
use tse_simnet::traffic::{VictimFlow, VictimSource};
use tse_switch::datapath::Datapath;
use tse_switch::pmd::{ShardedDatapath, Steering};
use tse_switch::DatapathStats;

use crate::FigArgs;

/// When the attacker starts sending, seconds.
pub const ATTACK_START: f64 = 20.0;
/// The attacker's rate, packets per second.
pub const ATTACK_PPS: f64 = 100.0;

/// The looping SipDp key stream, retagged onto its target shard(s).
pub type SteeredKeys = ShardSteeredKeys<Cycle<BitInversionKeys>>;

/// The SipDp co-located key stream with the base fields the crafted packets will carry
/// (TCP protocol, the attacker's own service as destination — the RSS-free field).
fn attack_keys(schema: &FieldSchema) -> Cycle<BitInversionKeys> {
    let mut base = schema.zero_value();
    base.set(field(schema, "ip_proto"), 6);
    base.set(field(schema, "ip_dst"), 0x0a00_00c8);
    Scenario::SipDp.key_iter(schema, &base).cycle()
}

fn field(schema: &FieldSchema, name: &str) -> usize {
    schema
        .field_index(name)
        .expect("the SipDp fixture runs over the OVS IPv4 schema")
}

/// The shard-pinned explosion: every attack key retagged onto shard 0 of `n_shards`.
pub fn pinned_keys(schema: &FieldSchema, n_shards: usize) -> SteeredKeys {
    let ip_dst = field(schema, "ip_dst");
    pin_to_shard(schema, attack_keys(schema), ip_dst, n_shards, 0)
}

/// The whole-switch attack: the same stream spread round-robin over all `n_shards`.
pub fn sprayed_keys(schema: &FieldSchema, n_shards: usize) -> SteeredKeys {
    let ip_dst = field(schema, "ip_dst");
    spray_shards(schema, attack_keys(schema), ip_dst, n_shards)
}

/// A TCP iperf victim of the shared web service (10.0.0.99:80) whose source port
/// steers its 5-tuple to `shard` of `n_shards` — what moves its throughput is then
/// purely that shard's CPU.
pub fn victim_on_shard(
    name: &str,
    src_ip: u32,
    offered_gbps: f64,
    schema: &FieldSchema,
    n_shards: usize,
    shard: usize,
) -> VictimFlow {
    VictimFlow::iperf_tcp(name, src_ip, 0x0a00_0063, offered_gbps).steered_to_shard(
        schema,
        Steering::Rss,
        n_shards,
        shard,
    )
}

fn datapath(schema: &FieldSchema, args: &FigArgs) -> ShardedDatapath {
    ShardedDatapath::from_builder(
        Datapath::builder(Scenario::SipDp.flow_table(schema)),
        args.shard_count(),
        Steering::Rss,
    )
    .with_executor(args.executor())
}

/// An experiment runner over the undefended datapath under test — `--shards` TSS shards
/// behind RSS steering over the SipDp ACL, fanned out on the executor `--parallel`
/// selects — with no stored victims and no mitigation: the caller attaches its defense
/// stack with `with_mitigation`.
pub fn runner(schema: &FieldSchema, args: &FigArgs) -> ExperimentRunner {
    ExperimentRunner::sharded(datapath(schema, args), Vec::new(), OffloadConfig::gro_off())
}

/// The packet budget of an attacker sending `rate` pps from `start` to the horizon of a
/// `duration`-second run (at least one second's worth, so an ultra-short smoke horizon
/// still sends something).
pub fn attack_packets(start: f64, rate: f64, duration: f64) -> usize {
    ((duration - start).max(1.0) * rate) as usize
}

/// The `(before, during)` measurement windows, each a `(from, to)` pair of seconds, of an
/// attack starting at `start` in a `duration`-second run: `before` skips the warm-up and
/// stops a second short of the onset; `during` opens once the cache has filled (10 s in,
/// pulled forward on a smoke horizon) and closes a second short of the horizon.
pub fn windows(start: f64, duration: f64) -> ((f64, f64), (f64, f64)) {
    let during_start = (start + 10.0).min(duration - 2.0);
    ((5.0, start - 1.0), (during_start, duration - 1.0))
}

/// How the attack stream enters the switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ingress {
    /// As pre-extracted keys ([`AttackGenerator`]).
    Keys,
    /// As raw frames in the given envelope, through the wire parser
    /// ([`WireGenerator`]).
    Wire(Encap),
}

/// Run `victims` plus the attacker sending `keys` through `runner` for `duration`
/// seconds; returns the timeline and the datapath's aggregate statistics.
pub fn run(
    mut runner: ExperimentRunner,
    schema: &FieldSchema,
    victims: &[VictimFlow],
    keys: SteeredKeys,
    ingress: Ingress,
    duration: f64,
) -> (Timeline, DatapathStats) {
    let mut mix = TrafficMix::new();
    for flow in victims {
        mix.push(Box::new(VictimSource::new(
            flow.clone(),
            schema,
            runner.sample_interval,
        )));
    }
    let rng = StdRng::seed_from_u64(99);
    let packets = attack_packets(ATTACK_START, ATTACK_PPS, duration);
    mix.push(match ingress {
        Ingress::Keys => Box::new(
            AttackGenerator::new("Attacker", schema, keys, rng, ATTACK_PPS, ATTACK_START)
                .with_limit(packets),
        ),
        Ingress::Wire(encap) => Box::new(
            WireGenerator::new("Attacker", schema, keys, rng, ATTACK_PPS, ATTACK_START)
                .with_encap(encap)
                .with_limit(packets),
        ),
    });
    let timeline = runner.run_mix(mix, duration);
    (timeline, runner.datapath.stats())
}
