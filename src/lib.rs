//! # tse — Tuple Space Explosion, reproduced in Rust
//!
//! A from-scratch reproduction of *"Tuple Space Explosion: A Denial-of-Service Attack
//! Against a Software Packet Classifier"* (Csikor et al., ACM CoNEXT 2019): the Tuple
//! Space Search (TSS) classifier of Open vSwitch, the OVS-like datapath around it, the
//! Co-located and General TSE attacks, the analytic mask-expectation model, the
//! Theorem 4.1/4.2 bounds, and the MFCGuard mitigation — plus a simulation substrate
//! that regenerates every figure of the paper's evaluation.
//!
//! This facade crate re-exports the public API of the workspace crates so downstream
//! users can depend on a single crate.
//!
//! ## The fast path
//!
//! A datapath always owns the TSS megaflow cache ([`prelude::TupleSpace`] — the
//! structure the attack explodes). A [`prelude::FastPathKind`] other than the default
//! `Tss` puts one of the §7 attack-immune classifiers (linear search, hierarchical tries,
//! HyperCuts), built from the flow table, in front of it: it answers every lookup, so the
//! cache stays empty. Construction goes through the fluent [`prelude::DatapathBuilder`]:
//!
//! ```
//! use tse::prelude::*;
//!
//! // Build the Fig. 6 ACL, attack it with the co-located trace, count the masks.
//! let schema = FieldSchema::ovs_ipv4();
//! let table = Scenario::SipDp.flow_table(&schema);
//! let mut dp = Datapath::builder(table).build();
//! for key in Scenario::SipDp.key_iter(&schema, &schema.zero_value()) {
//!     dp.process_key(&key, 64, 0.0);
//! }
//! assert!(dp.mask_count() > 400);
//!
//! // The same attack against a hierarchical-trie fast path grows nothing.
//! let table = Scenario::SipDp.flow_table(&schema);
//! let mut trie_dp = Datapath::builder(table).fast_path(FastPathKind::Trie).build();
//! for key in Scenario::SipDp.key_iter(&schema, &schema.zero_value()) {
//!     trie_dp.process_key(&key, 64, 0.0);
//! }
//! assert_eq!(trie_dp.mask_count(), 0);
//! ```
//!
//! ## Batched processing
//!
//! [`prelude::Datapath::process_timed_batch`] pushes an ordered slice of
//! `(header, wire_bytes, time)` events through the datapath, each at its own
//! timestamp, amortising the stats bookkeeping over the whole batch (see
//! [`prelude::BatchReport`]) — the form the event-driven runner uses. Verdicts, costs
//! and cache evolution are identical to a [`prelude::Datapath::process_key`] loop over
//! the same events.
//!
//! ## Streaming experiment construction
//!
//! Experiments are composed from pull-based [`prelude::TrafficSource`]s — lazily
//! yielded, timestamped `(key, bytes)` events — merged by a [`prelude::TrafficMix`]
//! and drained through the event-driven [`prelude::ExperimentRunner`]. The lazy
//! [`prelude::AttackGenerator`] is the attacker: it crafts explosion traffic on the fly
//! from a key iterator (no materialised packet vector, so a 100M-packet run is O(1)
//! memory; the looping pcap replay is a `.cycle()`d key iterator plus a limit), and
//! [`prelude::VictimSource`] wraps a [`prelude::VictimFlow`] as per-interval
//! measurement probes. Multi-attacker, staggered-onset or background-churn scenarios
//! are just more sources:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use tse::prelude::*;
//!
//! let schema = FieldSchema::ovs_ipv4();
//! let table = Scenario::SipSpDp.flow_table(&schema);
//! let mix = TrafficMix::new()
//!     .with(VictimSource::new(
//!         VictimFlow::iperf_tcp("Victim", 0x0a000005, 0x0a000063, 10.0),
//!         &schema,
//!         1.0,
//!     ))
//!     // A lazy SipDp attacker from t=5 s — keys synthesized on the fly.
//!     .with(AttackGenerator::new(
//!         "Attacker 1",
//!         &schema,
//!         Scenario::SipDp.key_iter(&schema, &schema.zero_value()).cycle(),
//!         StdRng::seed_from_u64(1),
//!         100.0,
//!         5.0,
//!     ).with_limit(1500));
//! let mut runner = ExperimentRunner::new(Datapath::new(table), vec![], OffloadConfig::gro_off());
//! let timeline = runner.run_mix(mix, 30.0);
//! assert_eq!(timeline.samples.len(), 30);
//! assert!(timeline.mean_total_between(20.0, 29.0) < timeline.mean_total_between(0.0, 5.0));
//! ```
//!
//! ## Wire-level ingestion & overlay scenarios
//!
//! The same pipeline can be driven from raw Ethernet bytes instead of pre-parsed
//! keys. [`prelude::WireTrace`] is a pcap-style frame buffer (timestamped frames
//! packed into one contiguous allocation); [`prelude::extract_keys_into`] runs the
//! real header parser over a whole batch into a reusable [`prelude::ExtractScratch`] —
//! zero per-frame heap allocations in steady state (pinned by `tests/alloc_audit.rs`)
//! with per-batch [`prelude::DecodeError`] accounting. On the traffic side, the lazy
//! [`prelude::WireGenerator`] crafts, serializes and re-parses explosion traffic on the
//! fly — the identical event stream as its key-level twin, the
//! [`prelude::AttackGenerator`] — optionally inside an [`prelude::Encap`] envelope
//! (802.1Q VLAN tag or VXLAN tunnel), and [`prelude::WireSource`] replays a recorded
//! trace (truncated garbage, say) frame by frame through the same parser. The overlay is
//! no defense: the decoder strips the envelope and classifies the attacker's inner
//! header, so the explosion passes through untouched (`fig_overlay_explosion`),
//! while undecodable frames are charged to shard 0 — the ingestion point — and
//! surface as per-kind counters and the telemetry store's malformed-frame series.
//!
//! ```
//! use tse::prelude::*;
//!
//! let schema = FieldSchema::ovs_ipv4();
//! // Serialise a packet inside a VXLAN tunnel; the parser recovers the inner key.
//! let pkt = PacketBuilder::tcp_v4([10, 0, 0, 5], [10, 0, 0, 99], 40_000, 80).build();
//! let mut trace = WireTrace::new();
//! trace.push_packet(0.0, &pkt, Encap::Vxlan { outer_src: 1, outer_dst: 2, vni: 42 });
//! trace.push(0.1, &[0xDE; 9]); // garbage: accounted for, never panics
//!
//! let frames: Vec<&[u8]> = trace.frames().collect();
//! let mut scratch = ExtractScratch::new();
//! extract_keys_into(&frames, &mut scratch);
//! assert_eq!(scratch.counts().decoded, 1);
//! assert_eq!(scratch.counts().truncated, 1);
//! assert_eq!(scratch.keys()[0], Ok(FlowKey::from_packet(&pkt)));
//!
//! // A frame reaches the sharded datapath as its key, steered by RSS, or as its
//! // fault, charged to shard 0.
//! let mut sharded = ShardedDatapath::from_builder(
//!     Datapath::builder(Scenario::SipDp.flow_table(&schema)),
//!     4,
//!     Steering::Rss,
//! );
//! for frame in frames {
//!     match tse::packet::wire::decode_key(frame, &schema) {
//!         Ok(key) => sharded.process_key(&key, frame.len(), 0.2),
//!         Err(fault) => sharded.note_wire_fault(fault, frame.len(), 0.2),
//!     };
//! }
//! assert_eq!(sharded.shard(0).stats().truncated, 1);
//! ```
//!
//! ## Sharded multi-PMD datapath
//!
//! [`prelude::ShardedDatapath`] models OVS-DPDK's one-megaflow-cache-per-PMD-thread
//! architecture: N per-shard datapaths behind a [`prelude::Steering`] policy (RSS
//! 5-tuple hash, per-tenant, or pinned), each with private cache state, statistics and
//! — in the experiment runner ([`prelude::ExperimentRunner::sharded`]) — a private CPU
//! budget. The attack side can aim at it: [`prelude::pin_to_shard`] retags a key
//! stream's free field so the whole explosion lands on one chosen shard, while
//! [`prelude::spray_shards`] poisons every shard round-robin.
//!
//! ```
//! use tse::prelude::*;
//!
//! let schema = FieldSchema::ovs_ipv4();
//! let table = Scenario::SipDp.flow_table(&schema);
//! let mut sharded = ShardedDatapath::from_builder(Datapath::builder(table), 4, Steering::Rss);
//! // Pin the co-located explosion to shard 0 by retagging the attacker's free ip_dst.
//! let mut base = schema.zero_value();
//! base.set(schema.field_index("ip_proto").unwrap(), 6);
//! let ip_dst = schema.field_index("ip_dst").unwrap();
//! for key in pin_to_shard(&schema, Scenario::SipDp.key_iter(&schema, &base), ip_dst, 4, 0) {
//!     sharded.process_key(&key, 64, 0.0);
//! }
//! let masks = sharded.shard_mask_counts();
//! assert!(masks[0] > 400, "targeted shard explodes: {masks:?}");
//! assert!(masks[1..].iter().all(|&m| m == 0), "other shards stay clean");
//! ```
//!
//! ## Execution models
//!
//! The sharded datapath's per-shard fan-out runs through a pluggable
//! [`prelude::ShardExecutor`]: the default [`prelude::SequentialExecutor`] walks the
//! shards in order (the reference), [`prelude::PersistentPoolExecutor`] feeds
//! long-lived parked workers — the paper's actual hardware model of core-pinned PMD
//! threads whose spawn cost is paid once per process, not per batch — and
//! [`prelude::ChaosExecutor`] runs the shards in a seeded adversarial order for the
//! parity tests. Steering is an allocation-free pre-partition pass
//! (a reusable index buffer, no per-event key clones); the executor runs shard jobs
//! and nothing else — the experiment runner drains each interval, then processes it,
//! on the calling thread. Because shards share nothing and results are always
//! collected in shard order, executor choice changes wall-clock time only: timelines,
//! stats and mitigation action logs are bit-for-bit identical (asserted by
//! `tests/executor_parity.rs`). Select the executor on the builder, the sharded
//! datapath or the runner:
//!
//! ```
//! use tse::prelude::*;
//!
//! let schema = FieldSchema::ovs_ipv4();
//! let table = Scenario::SipDp.flow_table(&schema);
//! let mut sequential = ShardedDatapath::from_builder(
//!     Datapath::builder(table.clone()),
//!     8,
//!     Steering::Rss,
//! );
//! let mut pooled = ShardedDatapath::from_builder(Datapath::builder(table), 8, Steering::Rss)
//!     .with_executor(PersistentPoolExecutor::new(8));
//! let batch: Vec<(Key, usize, f64)> = Scenario::SipDp
//!     .key_iter(&schema, &schema.zero_value())
//!     .take(500)
//!     .enumerate()
//!     .map(|(i, k)| (k, 64, i as f64 * 1e-3))
//!     .collect();
//! // Same reports, same stats — the worker pool only buys wall-clock time.
//! assert_eq!(
//!     sequential.process_timed_batch(&batch),
//!     pooled.process_timed_batch(&batch)
//! );
//! assert_eq!(sequential.stats(), pooled.stats());
//! ```
//!
//! ## Composable mitigations
//!
//! Defenses plug into the runner as an ordered [`prelude::MitigationStack`] of
//! [`prelude::Mitigation`] stages, each invoked once per sample interval with
//! per-shard telemetry and reporting what it did as [`prelude::MitigationAction`]s in
//! every [`prelude::TimelineSample`]. Four stages ship: [`prelude::GuardMitigation`]
//! (MFCGuard per shard, with per-shard config overrides),
//! [`prelude::RssKeyRandomizer`] (hash-key rotation that defeats shard-pinned
//! explosions), [`prelude::UpcallLimiter`] (per-shard megaflow-install quotas) and
//! [`prelude::MaskCap`] (per-shard mask ceilings):
//!
//! ```
//! use tse::prelude::*;
//!
//! let schema = FieldSchema::ovs_ipv4();
//! let table = Scenario::SipDp.flow_table(&schema);
//! let sharded = ShardedDatapath::from_builder(Datapath::builder(table), 4, Steering::Rss);
//! let mut runner = ExperimentRunner::sharded(sharded, vec![], OffloadConfig::gro_off())
//!     .with_mitigation(GuardMitigation::new(GuardConfig::default()))
//!     .with_mitigation(RssKeyRandomizer::new(10.0, 0xC0FFEE));
//! assert_eq!(runner.mitigations.names(), vec!["mfcguard", "rss-rekey"]);
//! let timeline = runner.run_mix(TrafficMix::new(), 12.0);
//! // The rekey at t=10 is attributed in the timeline.
//! assert!(timeline.samples[9]
//!     .mitigation_actions
//!     .iter()
//!     .any(|a| matches!(a, MitigationAction::Rekeyed { .. })));
//! ```
//!
//! ## Tenant-scale telemetry & SLOs
//!
//! For fleet-sized, hour-long runs the unbounded timeline is replaced by the two-tier
//! [`prelude::TelemetryStore`]: a bounded hot ring of recent full-detail
//! [`prelude::TimelineSample`]s plus streaming cold aggregates of the switch-wide
//! attack and background rates ([`prelude::SeriesAgg`]: count/sum/min/max and a
//! deterministic log-bucket histogram for p50/p99) covering the *whole* run in memory
//! that never grows with the horizon. Per-tenant [`prelude::SloTracker`]s hold each
//! tenant's delivered-throughput distribution against a floor — violation episodes,
//! time-to-detect, time-to-recover.
//! [`prelude::TenantFleet`] builds the whole multi-tenant gateway scenario (per-tenant
//! ACLs, iperf-like victims, Poisson background churn via [`prelude::ChurnSource`],
//! staggered mid-run attackers armed by scheduled ACL updates), and the runner
//! replays it with bounded memory:
//!
//! ```
//! use tse::prelude::*;
//!
//! let schema = FieldSchema::ovs_ipv4();
//! let fleet = TenantFleet::new(&schema, FleetConfig {
//!     tenants: 12,
//!     attackers: 1,
//!     offered_gbps: 0.01,
//!     attack_rate_pps: 400.0,
//!     duration: 20.0,
//!     churn: Some(ChurnConfig::default()),
//!     seed: 7,
//! });
//! let sharded = ShardedDatapath::from_builder(
//!     Datapath::builder(fleet.table()),
//!     2,
//!     Steering::PerTenant,
//! );
//! let mut runner = ExperimentRunner::sharded(sharded, vec![], OffloadConfig::gro_off())
//!     .with_telemetry(TelemetryConfig::with_hot_capacity(8).with_slo_floor(0.005))
//!     .with_table_updates(fleet.table_updates());
//! let recent = runner.run_mix(fleet.mix(1.0), 20.0);
//! assert_eq!(recent.samples.len(), 8); // hot ring: only the last 8 s in full detail...
//! let store = runner.take_telemetry().unwrap();
//! assert_eq!(store.samples_recorded(), 20); // ...but the cold tier folded every interval
//! assert_eq!(store.slo_trackers().len(), 11); // one SLO tracker per benign tenant
//! assert!(store.footprint_units() <= store.footprint_ceiling(4)); // bounded, provably
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tse_attack as attack;
pub use tse_classifier as classifier;
pub use tse_mitigation as mitigation;
pub use tse_packet as packet;
pub use tse_simnet as simnet;
pub use tse_switch as switch;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use tse_attack::bounds::{multi_field_bound, single_field_curve};
    pub use tse_attack::colocated::{bit_inversion_keys, BitInversionKeys};
    pub use tse_attack::expectation::ExpectationModel;
    pub use tse_attack::general::RandomKeys;
    pub use tse_attack::scenarios::Scenario;
    pub use tse_attack::sharding::{pin_to_shard, spray_shards, ShardSteeredKeys};
    pub use tse_attack::source::{
        AttackGenerator, EventPayload, SourceRole, TrafficEvent, TrafficMix, TrafficSource,
    };
    pub use tse_attack::wire::{WireGenerator, WireSource};
    pub use tse_classifier::baseline::{Classifier, HierarchicalTrie, HyperCuts, LinearSearch};
    pub use tse_classifier::flowtable::FlowTable;
    pub use tse_classifier::rule::{Action, Rule};
    pub use tse_classifier::strategy::{examined_megaflow, FieldStrategy, MegaflowStrategy};
    pub use tse_classifier::tss::{MaskOrdering, TupleSpace};
    pub use tse_mitigation::defenses::{AdaptiveRekey, MaskCap, RssKeyRandomizer, UpcallLimiter};
    pub use tse_mitigation::guard::{GuardConfig, GuardMitigation, GuardReport, MfcGuard};
    pub use tse_mitigation::stack::{
        Mitigation, MitigationAction, MitigationCtx, MitigationStack, PressureWindow,
    };
    pub use tse_packet::builder::PacketBuilder;
    pub use tse_packet::extract::{extract_keys_into, ExtractCounts, ExtractScratch};
    pub use tse_packet::fields::{FieldDef, FieldSchema, Key, Mask};
    pub use tse_packet::flowkey::FlowKey;
    pub use tse_packet::wire::{DecodeError, Encap, WireFault, WireTrace};
    pub use tse_packet::Packet;
    pub use tse_simnet::cloud::CloudPlatform;
    pub use tse_simnet::fleet::{ChurnConfig, ChurnSource, FleetConfig, TenantFleet};
    pub use tse_simnet::offload::OffloadConfig;
    pub use tse_simnet::runner::{ExperimentRunner, Timeline, TimelineSample};
    pub use tse_simnet::telemetry::{
        LogHistogram, SeriesAgg, SloTracker, TelemetryConfig, TelemetryStore,
    };
    pub use tse_simnet::traffic::{VictimFlow, VictimSource};
    pub use tse_switch::cost::CostModel;
    pub use tse_switch::datapath::{BatchReport, Datapath, DatapathBuilder, FastPathKind};
    pub use tse_switch::exec::{
        ChaosExecutor, PersistentPoolExecutor, SequentialExecutor, ShardExecutor, ShardExecutorExt,
    };
    pub use tse_switch::pmd::{
        Prepartition, ShardedBatchReport, ShardedDatapath, Steering, SteeringView,
    };
    pub use tse_switch::tenant::{merge_tenant_acls, AclField, AllowClause, TenantAcl};
}
