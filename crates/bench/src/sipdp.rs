//! The shard-targeted SipDp experiments as data.
//!
//! The paper's evaluation runs one experiment under many variants: the co-located SipDp
//! explosion pinned to one PMD shard or sprayed over all of them, behind a mitigation
//! stack or not, through an overlay or as pre-extracted keys, under bit-level
//! wildcarding or IPv6's exact-match megaflows (§5.4). Here the experiment is a
//! [`Fixture`] — the datapath, victims, attack rate and measurement windows a binary
//! shares across its table — and each variant is a `const` [`Variant`]: where the
//! attack aims ([`Aim`]), how it enters the switch, which defense [`Stack`] guards the
//! runner and which megaflow strategy the slow path follows.
//!
//! [`sweep`] runs a variant table, records each [`Column`] that names a row as
//! `<variant>/<row>`, and returns a [`Sweep`]: the per-variant [`Outcome`]s and the
//! table it prints. `fig_mitigation_matrix`, `fig_overlay_explosion`,
//! `fig_shard_blast_radius` and `ipv6_entry_explosion` are each a fixture and a variant
//! table; `tests/paper_claims.rs` judges the paper's claims on the same sweeps at the
//! binaries' default parameters.
//!
//! Every fixture runs a multi-PMD datapath behind RSS steering under the SipDp ACL of
//! Fig. 6 (allow TCP destination port 80 and one source address, deny the rest), victims
//! probing it, and one attacker from t = [`ATTACK_START`].

use std::fmt;
use std::iter::Cycle;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse_attack::general::RandomKeys;
use tse_attack::scenarios::{fig6, Scenario};
use tse_attack::sharding::{pin_to_shard, spray_shards, ShardSteeredKeys};
use tse_attack::source::{AttackGenerator, TrafficMix};
use tse_attack::wire::WireGenerator;
use tse_attack::BitInversionKeys;
use tse_classifier::flowtable::FlowTable;
use tse_classifier::strategy::MegaflowStrategy;
use tse_classifier::TssWork;
use tse_mitigation::guard::{GuardConfig, GuardMitigation};
use tse_mitigation::stack::MitigationAction;
use tse_mitigation::{MaskCap, RssKeyRandomizer, UpcallLimiter};
use tse_packet::fields::{FieldSchema, Key};
use tse_packet::wire::Encap;
use tse_simnet::offload::OffloadConfig;
use tse_simnet::runner::{ExperimentRunner, Timeline};
use tse_simnet::traffic::{VictimFlow, VictimSource};
use tse_switch::datapath::Datapath;
use tse_switch::pmd::{ShardedDatapath, Steering};
use tse_switch::DatapathStats;

use crate::{render_table, FigArgs, Figure};

/// When the attacker starts sending, seconds.
pub const ATTACK_START: f64 = 20.0;
/// The co-located attacker's rate, packets per second.
pub const ATTACK_PPS: f64 = 100.0;
/// The source address the IPv6 SipDp ACL allows (fd00::1); the IPv4 one is Fig. 6's
/// 10.0.0.1.
pub const IPV6_SOURCE: u128 = 0xfd00_0000_0000_0000_0000_0000_0000_0001;

/// The looping SipDp key stream, retagged onto its target shard(s).
pub type SteeredKeys = ShardSteeredKeys<Cycle<BitInversionKeys>>;

/// The `(before, during)` measurement windows, each a `(from, to)` pair of seconds.
pub type Windows = ((f64, f64), (f64, f64));

/// A defense stack: its name in tables, and how it attaches its stages to a runner in
/// the order they run.
pub type Stack = (&'static str, fn(ExperimentRunner) -> ExperimentRunner);

/// A victim: name, source address, offered Gbps, and the shard its source port is
/// chosen to steer it to for a given shard count (`None`: wherever RSS puts it).
pub type Victim = (&'static str, u128, f64, fn(usize) -> Option<usize>);

/// A table column: its header, the [`Cell`] it shows, and the row it records as
/// `<variant>/<row>` (`""` records none).
pub type Column = (&'static str, Cell, &'static str);

/// The undefended datapath.
pub const UNDEFENDED: Stack = ("none", |runner| runner);
/// Per-shard MFCGuard ([`GuardMitigation`]) at its default thresholds.
pub const GUARD: Stack = ("guard", |runner| runner.with_mitigation(guard()));
/// RSS hash-key rotation every 10 s ([`RssKeyRandomizer`]).
pub const REKEY: Stack = ("rekey", |runner| runner.with_mitigation(rekey()));
/// Both, guard first.
pub const GUARD_REKEY: Stack = ("guard+rekey", |runner| {
    runner.with_mitigation(guard()).with_mitigation(rekey())
});
/// Guard and rekey plus per-shard upcall quotas ([`UpcallLimiter`]) and mask ceilings
/// ([`MaskCap`]).
pub const FULL: Stack = ("full", |runner| {
    (GUARD_REKEY.1)(runner)
        .with_mitigation(UpcallLimiter::new(10))
        .with_mitigation(MaskCap::new(64))
});
/// MFCGuard configured per shard: the attacked shard 0 sweeps under a tightened
/// 30-mask threshold, every other shard keeps the default.
pub const SHARD_GUARD: Stack = ("per-shard guard", |runner| {
    let tight = GuardConfig {
        mask_threshold: 30,
        ..GuardConfig::default()
    };
    runner.with_mitigation(guard().with_shard_config(0, tight))
});

fn guard() -> GuardMitigation {
    GuardMitigation::new(GuardConfig::default())
}

fn rekey() -> RssKeyRandomizer {
    RssKeyRandomizer::new(10.0, 0xC0FFEE)
}

/// The attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aim {
    /// The co-located SipDp stream (IPv4), every key's free destination address
    /// retagged so it RSS-targets shard 0.
    Pinned,
    /// The same stream retagged round-robin over all shards.
    Sprayed,
    /// Uniformly random values of the ACL's two fields — the General TSE of §6 — left
    /// where RSS steers them.
    Random,
}

/// One experiment of a table. [`Variant::new`] fills in the common case; struct update
/// syntax sets a label or a strategy.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Every row the variant records is `<name>/<row>`.
    pub name: &'static str,
    /// What [`Cell::Label`] and the per-run timeline header show (defaults to `name`).
    pub label: &'static str,
    /// Where the attack stream goes.
    pub aim: Aim,
    /// The attack as raw frames in this envelope through the wire parser, or `None`
    /// for pre-extracted keys.
    pub wire: Option<Encap>,
    /// The defense stack on the runner.
    pub stack: Stack,
    /// The slow path's megaflow generation (default: bit-level wildcarding).
    pub strategy: fn(&FieldSchema) -> MegaflowStrategy,
}

impl Variant {
    /// A variant under bit-level wildcarding, labelled with its name.
    pub const fn new(name: &'static str, aim: Aim, wire: Option<Encap>, stack: Stack) -> Self {
        Variant {
            name,
            label: name,
            aim,
            wire,
            stack,
            strategy: MegaflowStrategy::wildcarding,
        }
    }
}

/// What a binary's variants share.
#[derive(Debug, Clone, Copy)]
pub struct Fixture {
    /// The flow key, which also fixes the address family of the ACL and the victims.
    pub schema: fn() -> FieldSchema,
    /// The attacker's rate, packets per second.
    pub pps: f64,
    /// The victims, in timeline order.
    pub victims: &'static [Victim],
    /// `None`: "during" opens 10 s after the onset (pulled forward on a smoke horizon)
    /// and closes a second short of the horizon. `Some(s)`: it opens 10 s after the
    /// onset and lasts at most `s` seconds. "Before" is always 5 s to a second short of
    /// the onset.
    pub during_cap: Option<f64>,
    /// The table's columns and the rows they record, in order.
    pub columns: &'static [Column],
    /// Print each run's timeline and per-victim means instead of the table.
    pub timelines: bool,
}

/// What a [`Column`] shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// The variant's label.
    Label,
    /// The defense stack's name.
    Stack,
    /// The attack's wire envelope: `keys`, `plain`, `vlan` or `vxlan`.
    Wire,
    /// Mean Gbps of victim `i` before the attack.
    VictimBefore(usize),
    /// Mean Gbps of victim `i` during the attack.
    VictimDuring(usize),
    /// Mean Gbps of all victims before the attack.
    TotalBefore,
    /// Mean Gbps of all victims during the attack.
    TotalDuring,
    /// Victim `i`'s during-attack Gbps as a percentage of its before-attack Gbps.
    VsBaseline(usize),
    /// The most masks the whole switch held.
    PeakMasks,
    /// The most masks any one shard held.
    PeakShardMasks,
    /// The most megaflow entries the whole switch held.
    PeakEntries,
    /// The stack's actions over the run, counted by kind.
    Actions,
}

/// One variant's run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The variant that ran.
    pub variant: Variant,
    /// Its timeline.
    pub timeline: Timeline,
    /// The datapath's aggregate statistics at the end of the run.
    pub stats: DatapathStats,
    /// The megaflow caches' host-side work over the run, summed over shards.
    pub work: TssWork,
}

/// A run variant table: its outcomes and the table `Display` prints.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The victims every run carried, in timeline order.
    pub victims: Vec<VictimFlow>,
    /// The fixture's measurement windows at this horizon.
    pub windows: Windows,
    /// One outcome per variant, in table order.
    pub runs: Vec<Outcome>,
    /// The table's data rows, one per run; a control run outside the table may append
    /// its own.
    pub table: Vec<Vec<String>>,
    headers: Vec<&'static str>,
    timelines: bool,
}

impl Sweep {
    /// `cell`'s value for the variant named `name`. Panics if no variant has that name
    /// or `cell` is not a measurement.
    pub fn value(&self, name: &str, cell: Cell) -> f64 {
        let run = self.runs.iter().find(|r| r.variant.name == name);
        let run = run.unwrap_or_else(|| panic!("no variant {name:?} in this sweep"));
        let (_, value) = evaluate(run, self.windows, cell);
        value
            .unwrap_or_else(|| panic!("{cell:?} is not a measurement"))
            .0
    }
}

/// The table, or with [`Fixture::timelines`] one block per run: its timeline, each
/// victim's means and the per-shard peak masks and guard-swept entries.
impl fmt::Display for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.timelines {
            return f.write_str(&render_table(&self.headers, &self.table));
        }
        let ((b0, b1), (d0, d1)) = self.windows;
        for run in &self.runs {
            let (label, tl) = (run.variant.label, &run.timeline);
            writeln!(f, "\n-- {label} --\n{}", tl.render_table())?;
            for (i, name) in tl.victim_names.iter().enumerate() {
                let before = tl.mean_victim_between(i, b0, b1);
                let during = tl.mean_victim_between(i, d0, d1);
                writeln!(
                    f,
                    "{label}: {name} mean Gbps before {before:.2}, during attack {during:.2}"
                )?;
            }
            let (mut peak, mut swept) = (vec![0; tl.shard_count], vec![0; tl.shard_count]);
            for sample in &tl.samples {
                for (peak, &masks) in peak.iter_mut().zip(&sample.shard_masks) {
                    *peak = masks.max(*peak);
                }
                for action in &sample.mitigation_actions {
                    if let MitigationAction::GuardSweep(r) = action {
                        swept[r.shard] += r.entries_removed;
                    }
                }
            }
            writeln!(f, "{label}: peak masks per shard {peak:?}")?;
            if swept.iter().any(|&n| n > 0) {
                writeln!(f, "{label}: guard-swept entries per shard {swept:?}")?;
            }
        }
        Ok(())
    }
}

/// A cell's text and, for a measurement, its value and unit.
fn evaluate(run: &Outcome, windows: Windows, cell: Cell) -> (String, Option<(f64, &str)>) {
    let ((b0, b1), (d0, d1)) = windows;
    let tl = &run.timeline;
    let gbps = |v: f64| (format!("{v:6.2}"), Some((v, "gbps")));
    let count = |n: usize, unit| (n.to_string(), Some((n as f64, unit)));
    match cell {
        Cell::Label => (run.variant.label.to_string(), None),
        Cell::Stack => (run.variant.stack.0.to_string(), None),
        Cell::Wire => (wire_name(run.variant.wire).to_string(), None),
        Cell::Actions => (actions(tl), None),
        Cell::VictimBefore(i) => gbps(tl.mean_victim_between(i, b0, b1)),
        Cell::VictimDuring(i) => gbps(tl.mean_victim_between(i, d0, d1)),
        Cell::TotalBefore => gbps(tl.mean_total_between(b0, b1)),
        Cell::TotalDuring => gbps(tl.mean_total_between(d0, d1)),
        Cell::VsBaseline(i) => {
            let before = tl.mean_victim_between(i, b0, b1);
            let pct = 100.0 * tl.mean_victim_between(i, d0, d1) / before.max(1e-9);
            (format!("{pct:5.1} %"), Some((pct, "percent")))
        }
        Cell::PeakMasks => count(tl.peak_masks(), "masks"),
        Cell::PeakShardMasks => {
            let masks = tl.samples.iter().flat_map(|s| &s.shard_masks);
            count(masks.max().copied().unwrap_or(0), "masks")
        }
        Cell::PeakEntries => count(tl.peak_entries(), "entries"),
    }
}

fn wire_name(wire: Option<Encap>) -> &'static str {
    match wire {
        None => "keys",
        Some(Encap::None) => "plain",
        Some(Encap::Vlan { .. }) => "vlan",
        Some(Encap::Vxlan { .. }) => "vxlan",
    }
}

/// The stack's actions over the whole timeline, counted by kind (`-` for none).
fn actions(tl: &Timeline) -> String {
    let mut counts = [0usize; 4];
    for action in tl.samples.iter().flat_map(|s| &s.mitigation_actions) {
        match action {
            MitigationAction::GuardSweep(r) if r.entries_removed > 0 => counts[0] += 1,
            MitigationAction::GuardSweep(_) => {}
            MitigationAction::Rekeyed { .. } => counts[1] += 1,
            MitigationAction::UpcallsClamped { .. } => counts[2] += 1,
            MitigationAction::MaskCapped { .. } => counts[3] += 1,
        }
    }
    let parts: Vec<String> = counts
        .iter()
        .zip(["sweeps", "rekeys", "clamps", "caps"])
        .filter(|(&n, _)| n > 0)
        .map(|(n, kind)| format!("{n} {kind}"))
        .collect();
    if parts.is_empty() {
        "-".into()
    } else {
        parts.join(", ")
    }
}

/// Run every variant of `variants` on `fixture` at `fig`'s parameters: record each
/// column's row as `<variant>/<row>`, account each datapath, and return the outcomes
/// and the table, in variant order.
pub fn sweep(fig: &mut Figure, fixture: &Fixture, variants: &[Variant]) -> Sweep {
    let args = fig.args.clone();
    let schema = (fixture.schema)();
    let n_shards = args.shard_count();
    let packets = attack_packets(ATTACK_START, fixture.pps, args.duration);
    let mut sweep = Sweep {
        victims: victims(fixture.victims, &schema, n_shards),
        windows: windows(args.duration, fixture.during_cap),
        runs: Vec::new(),
        table: Vec::new(),
        headers: fixture.columns.iter().map(|c| c.0).collect(),
        timelines: fixture.timelines,
    };
    for &variant in variants {
        let dp = datapath(&schema, &args, variant.strategy);
        let runner = ExperimentRunner::sharded(dp, Vec::new(), OffloadConfig::gro_off());
        let mut runner = (variant.stack.1)(runner);
        let mut mix = TrafficMix::new();
        for flow in &sweep.victims {
            let interval = runner.sample_interval;
            mix.push(Box::new(VictimSource::new(flow.clone(), &schema, interval)));
        }
        let (keys, noise_seed) = attack(variant.aim, &schema, n_shards);
        let (rng, pps) = (StdRng::seed_from_u64(noise_seed), fixture.pps);
        mix.push(match variant.wire {
            None => Box::new(
                AttackGenerator::new("Attacker", &schema, keys, rng, pps, ATTACK_START)
                    .with_limit(packets),
            ),
            Some(encap) => Box::new(
                WireGenerator::new("Attacker", &schema, keys, rng, pps, ATTACK_START)
                    .with_encap(encap)
                    .with_limit(packets),
            ),
        });
        let timeline = runner.run_mix(mix, args.duration);
        let stats = runner.datapath.stats();
        fig.account(&stats);
        let dp = &runner.datapath;
        let run = Outcome {
            variant,
            timeline,
            stats,
            work: (0..dp.shard_count()).fold(TssWork::default(), |mut sum, i| {
                sum += dp.shard(i).megaflow().work();
                sum
            }),
        };
        let mut cells = Vec::new();
        for &(_, cell, row) in fixture.columns {
            let (text, value) = evaluate(&run, sweep.windows, cell);
            if let (false, Some((value, unit))) = (row.is_empty(), value) {
                let name = format!("{}/{row}", variant.name);
                match unit {
                    "gbps" => fig.gbps(&name, value),
                    unit => fig.row(&name, unit, value),
                }
            }
            cells.push(text);
        }
        sweep.table.push(cells);
        sweep.runs.push(run);
    }
    sweep
}

fn windows(duration: f64, during_cap: Option<f64>) -> Windows {
    let before = (5.0, ATTACK_START - 1.0);
    let settled = ATTACK_START + 10.0;
    match during_cap {
        None => (before, (settled.min(duration - 2.0), duration - 1.0)),
        Some(cap) => (before, (settled, duration.min(settled + cap))),
    }
}

fn field(schema: &FieldSchema, name: &str) -> usize {
    schema
        .field_index(name)
        .unwrap_or_else(|| panic!("the SipDp fixture's schema has no field {name}"))
}

/// The ACL's source field and allowed address, and the service (destination) every
/// victim reaches: Fig. 6's 10.0.0.1 and 10.0.0.99 under IPv4, fd00::1 and fd00::63
/// under IPv6.
fn family(schema: &FieldSchema) -> (usize, u128, u128) {
    if schema.expresses(true) {
        let service = 0xfd00_0000_0000_0000_0000_0000_0000_0063;
        (field(schema, "ip6_src"), IPV6_SOURCE, service)
    } else {
        (field(schema, "ip_src"), fig6::ALLOW_SRC_IP, 0x0a00_0063)
    }
}

/// The SipDp ACL — `Scenario::SipDp.flow_table` under IPv4.
fn acl(schema: &FieldSchema) -> FlowTable {
    let (src, allowed, _) = family(schema);
    let dst_port = (field(schema, "tp_dst"), fig6::ALLOW_DST_PORT);
    FlowTable::whitelist_default_deny(schema, &[dst_port, (src, allowed)])
}

/// TCP iperf victims of the shared web service.
fn victims(victims: &[Victim], schema: &FieldSchema, n_shards: usize) -> Vec<VictimFlow> {
    let (_, _, service) = family(schema);
    let flow = |&(name, src, gbps, shard): &Victim| {
        let flow = if schema.expresses(true) {
            VictimFlow::iperf_tcp_v6(name, src, service, gbps)
        } else {
            VictimFlow::iperf_tcp(name, src as u32, service as u32, gbps)
        };
        match shard(n_shards) {
            Some(s) => flow.steered_to_shard(schema, Steering::Rss, n_shards, s),
            None => flow,
        }
    };
    victims.iter().map(flow).collect()
}

fn datapath(
    schema: &FieldSchema,
    args: &FigArgs,
    strategy: fn(&FieldSchema) -> MegaflowStrategy,
) -> ShardedDatapath {
    let builder = Datapath::builder(acl(schema)).strategy(strategy(schema));
    ShardedDatapath::from_builder(builder, args.shard_count(), Steering::Rss)
        .with_executor(args.executor())
}

/// An experiment runner over the undefended IPv4 datapath under test — `--shards` TSS
/// shards behind RSS steering over the SipDp ACL, fanned out on the executor
/// `--parallel` selects — with no stored victims and no mitigation.
pub fn runner(schema: &FieldSchema, args: &FigArgs) -> ExperimentRunner {
    let dp = datapath(schema, args, MegaflowStrategy::wildcarding);
    ExperimentRunner::sharded(dp, Vec::new(), OffloadConfig::gro_off())
}

/// The SipDp co-located key stream with the base fields the crafted packets will carry
/// (TCP protocol, the attacker's own service as destination — the RSS-free field).
fn colocated_keys(schema: &FieldSchema) -> Cycle<BitInversionKeys> {
    let mut base = schema.zero_value();
    base.set(field(schema, "ip_proto"), 6);
    base.set(field(schema, "ip_dst"), 0x0a00_00c8);
    Scenario::SipDp.key_iter(schema, &base).cycle()
}

/// The whole-switch attack: the co-located stream spread round-robin over all
/// `n_shards`.
pub fn sprayed_keys(schema: &FieldSchema, n_shards: usize) -> SteeredKeys {
    let ip_dst = field(schema, "ip_dst");
    spray_shards(schema, colocated_keys(schema), ip_dst, n_shards)
}

/// `aim`'s key stream and the seed of the crafter's noise draws (the seeds the
/// committed baselines were recorded with).
fn attack(aim: Aim, schema: &FieldSchema, n_shards: usize) -> (AttackKeys, u64) {
    match aim {
        Aim::Pinned => {
            let ip_dst = field(schema, "ip_dst");
            let keys = pin_to_shard(schema, colocated_keys(schema), ip_dst, n_shards, 0);
            (Box::new(keys), 99)
        }
        Aim::Sprayed => (Box::new(sprayed_keys(schema, n_shards)), 99),
        Aim::Random => {
            let (src, _, _) = family(schema);
            let fields = [src, field(schema, "tp_dst")];
            let rng = StdRng::seed_from_u64(99);
            let keys = RandomKeys::on_fields(rng, schema, &fields, &schema.zero_value());
            (Box::new(keys), 7)
        }
    }
}

type AttackKeys = Box<dyn Iterator<Item = Key> + Send>;

/// The packet budget of an attacker sending `rate` pps from `start` to the horizon of a
/// `duration`-second run (at least one second's worth, so an ultra-short smoke horizon
/// still sends something).
pub fn attack_packets(start: f64, rate: f64, duration: f64) -> usize {
    ((duration - start).max(1.0) * rate) as usize
}
