//! `OracleSwitch`: the datapath as an obviously-correct model, held equal to
//! `ShardedDatapath` step by step.
//!
//! The model is built from what the test suite already owns. A packet's verdict is a
//! linear scan of the flow table (`per_bit_reference::linear_scan`). The megaflow cache
//! is a flat list of `(mask, entries)` pairs, newest mask first and each pair's entries
//! in insertion order, probed pair by pair (Alg. 1). A miss installs the megaflow
//! `per_bit_reference::reference_generate` builds, unless it overlaps an entry of the
//! list — which, on a run of one table, it never does. Idle expiry is checked per event
//! (a 1 s sweep, a 10 s timeout), suppressed rules are carried across table installs by
//! rule equality, and each packet is priced by `CostModel::ovs_kernel_default`, summed
//! in event order per shard. The model has no index, no shards and no executor: a
//! sharded datapath is compared against one oracle per shard, each event routed by
//! `shard_of_key`.
//!
//! Compared: each `process_key`'s action, path, masks scanned and cost bits; each batch's
//! per-shard `BatchReport`; every shard's entry list after every step; Inv(2) on every
//! shard after every mutation. The model checks that no install of a one-table run met
//! an overlapping entry after every step; Inv(1) holds by its construction, and Alg. 1's
//! first-hit correctness is asserted inside it. `tests/golden_runner_parity.rs` pins what
//! the runner makes of it all.

use proptest::prelude::*;
use tse::classifier::tss::MegaflowEntry;
use tse::mitigation::allow_exact_fields;
use tse::packet::fields;
use tse::prelude::*;
use tse::switch::slowpath::SlowPath;
use tse::switch::stats::PathTaken;

#[path = "../crates/classifier/tests/per_bit_reference/mod.rs"]
mod per_bit_reference;
use per_bit_reference::{linear_scan, reference_generate};

/// The datapath's revalidation cadence and idle timeout, seconds.
const SWEEP_INTERVAL: f64 = 1.0;
const IDLE_TIMEOUT: f64 = 10.0;

/// Wire bytes of every packet: only the allowed-bytes counter reads it.
const BYTES: usize = 64;

/// One shard's datapath as a model.
#[derive(Clone)]
struct OracleSwitch {
    table: FlowTable,
    strategy: MegaflowStrategy,
    /// A §7 classifier answers in front of the cache, which then stays empty.
    classifier: bool,
    cache: Cache,
    /// Rules whose megaflows are never installed.
    suppressed: Vec<Rule>,
    /// Installs refused for overlapping a resident entry: only a stale table makes one.
    overlaps: usize,
    last_sweep: f64,
}

/// `(mask, entries)` pairs in probe order, newest mask first.
type Cache = Vec<(Mask, Vec<MegaflowEntry>)>;

impl OracleSwitch {
    fn new(table: FlowTable, strategy: MegaflowStrategy, kind: FastPathKind) -> Self {
        OracleSwitch {
            table,
            strategy,
            classifier: kind != FastPathKind::Tss,
            cache: Vec::new(),
            suppressed: Vec::new(),
            overlaps: 0,
            last_sweep: 0.0,
        }
    }

    /// One packet at `now`, as `Datapath::process_key` handles it: `(action, path, masks
    /// scanned, cost)`. Behind a §7 classifier the work, and so the cost, is the
    /// classifier's and is left at 0.
    fn process(&mut self, header: &Key, now: f64) -> (Action, PathTaken, usize, f64) {
        self.maybe_expire(now);
        let verdict = linear_scan(&self.table, header).map(|m| m.action);
        if self.classifier {
            let path = verdict.map_or(PathTaken::SlowPath, |_| PathTaken::Megaflow);
            return (verdict.unwrap_or(Action::Deny), path, 0, 0.0);
        }
        let (hit, scanned) = self.lookup(header, now);
        let (action, path) = match hit {
            Some(action) => {
                assert_eq!(
                    Some(action),
                    verdict,
                    "Alg. 1: the first hit is the verdict"
                );
                (action, PathTaken::Megaflow)
            }
            None => {
                let upcall = self.upcall(header, now);
                (upcall.map_or(Action::Deny, |u| u.0), PathTaken::SlowPath)
            }
        };
        let cost = CostModel::ovs_kernel_default().path_cost(path, scanned);
        (action, path, scanned, cost)
    }

    /// Alg. 1: the first pair holding the header's key under its mask answers, and the
    /// entry's counters move. Returns the action, if any, and the masks probed.
    fn lookup(&mut self, header: &Key, now: f64) -> (Option<Action>, usize) {
        for (i, (mask, entries)) in self.cache.iter_mut().enumerate() {
            let key = header.apply_mask(mask);
            if let Some(e) = entries.iter_mut().find(|e| e.key == key) {
                e.hits += 1;
                e.last_used = now;
                return (Some(e.action), i + 1);
            }
        }
        (None, self.cache.len())
    }

    /// The slow path: the table's verdict and whether a megaflow was installed; `None`
    /// where no rule matches. A megaflow that overlaps a resident entry is not.
    fn upcall(&mut self, header: &Key, now: f64) -> Option<(Action, bool)> {
        let (verdict, mask) = reference_generate(&self.table, header, &self.strategy)?;
        if self
            .suppressed
            .contains(&self.table.rules()[verdict.rule_index])
        {
            return Some((verdict.action, false));
        }
        let key = header.apply_mask(&mask);
        if self
            .entries()
            .any(|e| !fields::disjoint(&key, &mask, &e.key, &e.mask))
        {
            self.overlaps += 1;
            return Some((verdict.action, false));
        }
        let entry = MegaflowEntry {
            key,
            mask: mask.clone(),
            action: verdict.action,
            hits: 0,
            last_used: now,
            installed_at: now,
        };
        match self.cache.iter_mut().find(|(m, _)| *m == mask) {
            Some((_, entries)) => entries.push(entry),
            None => self.cache.insert(0, (mask, vec![entry])),
        }
        Some((verdict.action, true))
    }

    fn maybe_expire(&mut self, now: f64) {
        if now - self.last_sweep >= SWEEP_INTERVAL {
            self.remove_where(|e| now - e.last_used > IDLE_TIMEOUT);
            self.last_sweep = now;
        }
    }

    /// Drop every entry `gone` picks, and every mask left without one.
    fn remove_where(&mut self, gone: impl Fn(&MegaflowEntry) -> bool) {
        for (_, entries) in &mut self.cache {
            entries.retain(|e| !gone(e));
        }
        self.cache.retain(|(_, entries)| !entries.is_empty());
    }

    /// A new table flushes the cache; a suppressed rule stays suppressed if the table
    /// still has it.
    fn install_table(&mut self, table: FlowTable) {
        self.suppressed.retain(|r| table.rules().contains(r));
        self.table = table;
        self.cache.clear();
    }

    fn entries(&self) -> impl Iterator<Item = &MegaflowEntry> {
        self.cache.iter().flat_map(|(_, entries)| entries)
    }
}

/// One step of a differential run.
#[derive(Clone, Debug)]
enum Op {
    Key(Key, f64),
    Batch(Vec<(Key, usize, f64)>),
    Install(FlowTable),
    Rekey(u64),
    /// An MFCGuard-shaped sweep on every shard: remove the deny entries that examine a
    /// field some allow rule matches exactly, then suppress every deny rule.
    Guard,
    Expire(f64),
}

/// Drive `ops` through a datapath of `shards` `kind` shards on `executor` and through
/// one oracle per shard, comparing after every step. Behind a §7 classifier the work,
/// and so the cost, is the classifier's: only verdicts, paths and counters compare, and
/// the oracle's empty entry list holds the cache at 0 masks and 0 entries.
fn differential(
    table: &FlowTable,
    strategy: &MegaflowStrategy,
    (kind, shards, executor): (FastPathKind, usize, Box<dyn ShardExecutor>),
    ops: &[Op],
) {
    let builder = Datapath::builder(table.clone())
        .strategy(strategy.clone())
        .fast_path(kind);
    let mut dp =
        ShardedDatapath::from_builder(builder, shards, Steering::Rss).with_executor(executor);
    let mut oracles = vec![OracleSwitch::new(table.clone(), strategy.clone(), kind); shards];
    let tss = kind == FastPathKind::Tss;
    let run = format!("{kind:?}, {shards} shards on {:?}", dp.executor());
    let at = |step: usize| format!("{run}, step {step}");
    let work = |scanned: usize, cost: f64| tss.then_some((scanned, cost.to_bits()));
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Key(header, now) => {
                let s = dp.shard_of_key(header);
                let got = dp.process_key(header, BYTES, *now);
                let got = (got.action, got.path, work(got.masks_scanned, got.cost));
                let want = oracles[s].process(header, *now);
                let want = (want.0, want.1, work(want.2, want.3));
                assert_eq!(got, want, "{}: {header}", at(step));
            }
            Op::Batch(batch) => {
                let mut want = vec![BatchReport::default(); shards];
                for (header, _, now) in batch {
                    let s = dp.shard_of_key(header);
                    let (action, path, scanned, cost) = oracles[s].process(header, *now);
                    let r = &mut want[s];
                    r.processed += 1;
                    r.allowed += u64::from(action.permits());
                    r.denied += u64::from(!action.permits());
                    r.fastpath_hits += u64::from(path == PathTaken::Megaflow);
                    r.upcalls += u64::from(path == PathTaken::SlowPath);
                    r.total_cost += cost;
                    r.max_masks_scanned = r.max_masks_scanned.max(scanned);
                }
                let fields = |rs: &[BatchReport]| -> Vec<_> {
                    let counters = |r: &BatchReport| {
                        (r.processed, r.allowed, r.denied, r.fastpath_hits, r.upcalls)
                    };
                    rs.iter()
                        .map(|r| (counters(r), work(r.max_masks_scanned, r.total_cost)))
                        .collect()
                };
                let got = dp.process_timed_batch(batch).per_shard;
                assert_eq!(fields(&got), fields(&want), "{}", at(step));
            }
            Op::Install(next) => {
                dp.install_table(next.clone());
                oracles
                    .iter_mut()
                    .for_each(|o| o.install_table(next.clone()));
            }
            Op::Rekey(hash_key) => dp.rekey(*hash_key),
            Op::Guard => {
                let targets = allow_exact_fields(dp.table());
                let wiped = |e: &MegaflowEntry| {
                    e.action == Action::Deny && targets.iter().any(|&f| e.mask.get(f) != 0)
                };
                let rules = dp.table().rules();
                let deny: Vec<usize> = (0..rules.len())
                    .filter(|&i| rules[i].action == Action::Deny)
                    .collect();
                for (s, oracle) in oracles.iter_mut().enumerate() {
                    let shard = dp.shard_mut(s);
                    shard.megaflow_mut().remove_where(wiped);
                    oracle.remove_where(wiped);
                    for &rule in &deny {
                        shard.slow_path_mut().suppress_rule(rule);
                        oracle.suppressed.push(oracle.table.rules()[rule].clone());
                    }
                }
            }
            Op::Expire(now) => {
                dp.maybe_expire(*now);
                oracles.iter_mut().for_each(|o| o.maybe_expire(*now));
            }
        }
        let mutation = !matches!(op, Op::Key(..) | Op::Batch(_));
        for (s, oracle) in oracles.iter().enumerate() {
            let cache = dp.shard(s).megaflow();
            let (got, want): (Vec<_>, Vec<_>) =
                (cache.entries().collect(), oracle.entries().collect());
            assert_eq!(got, want, "{}: shard {s}'s entries", at(step));
            assert_eq!(oracle.overlaps, 0, "{}: shard {s} met an overlap", at(step));
            if mutation {
                assert!(cache.check_independence(), "{}: Inv(2)", at(step));
            }
        }
    }
}

/// Every fast path × {sequential, a 2-thread pool, a 2-thread chaos executor seeded
/// `seed`} × {1, 2, 4} shards. The pool's clones share its workers, which are joined
/// when the last datapath holding one drops.
fn matrix(seed: u64) -> Vec<(FastPathKind, usize, Box<dyn ShardExecutor>)> {
    let pool = PersistentPoolExecutor::new(2);
    let mut all = Vec::new();
    for kind in [
        FastPathKind::Tss,
        FastPathKind::LinearSearch,
        FastPathKind::Trie,
        FastPathKind::HyperCuts,
    ] {
        for shards in [1, 2, 4] {
            let executors: [Box<dyn ShardExecutor>; 3] = [
                Box::new(SequentialExecutor),
                Box::new(pool.clone()),
                Box::new(ChaosExecutor::new(2, seed)),
            ];
            all.extend(executors.map(|executor| (kind, shards, executor)));
        }
    }
    all
}

/// Exact, wildcarding and chunked(2): both ends of Theorem 4.1's range and a point
/// between.
fn strategies(schema: &FieldSchema) -> [MegaflowStrategy; 3] {
    [
        MegaflowStrategy::exact_match(schema),
        MegaflowStrategy::wildcarding(schema),
        MegaflowStrategy::chunked(schema, 2),
    ]
}

fn action(priority: u32) -> Action {
    [Action::Allow, Action::Deny][priority as usize % 2]
}

/// Random tables and traffic are over three 4-bit fields, all of which RSS hashes.
fn nibble_schema() -> FieldSchema {
    FieldSchema::new(["a", "b", "c"].map(|name| FieldDef::new(name, 4)).to_vec())
}

type Nibbles = (u128, u128, u128);

/// Prioritised allow/deny rules, and a DefaultDeny unless `open`. A rule's mask on each
/// field is a prefix of 0 to 4 bits: the hierarchical trie takes prefixes only.
fn random_table(schema: &FieldSchema, rules: &[(Nibbles, Nibbles, u32)], open: bool) -> FlowTable {
    let mut table = FlowTable::new(schema.clone());
    for &((a, b, c), (pa, pb, pc), priority) in rules {
        let prefix = |bits: u128| 0xf << (4 - bits) & 0xf;
        let mask = Key::from_values(schema, &[prefix(pa), prefix(pb), prefix(pc)]);
        let key = Key::from_values(schema, &[a, b, c]);
        table.push(Rule::new(key, mask, priority, action(priority)));
    }
    if !open {
        table.push(Rule::match_all(schema, 0, Action::Deny));
    }
    table
}

fn arb_rules() -> impl Strategy<Value = Vec<(Nibbles, Nibbles, u32)>> {
    let prefixes = (0u128..5, 0u128..5, 0u128..5);
    proptest::collection::vec(((0u128..16, 0u128..16, 0u128..16), prefixes, 0u32..4), 0..8)
}

/// Gaps between events, seconds: same-instant runs, sub-sweep steps, and strides that
/// cross sweeps.
const GAPS: [f64; 6] = [0.0, 0.25, 0.5, 1.0, 2.5, 5.0];

proptest! {
    /// Random traffic on random tables, with the four mutations each at a random point:
    /// a table install, a rekey, a guard sweep, and an expiry check after a pause longer
    /// than the idle timeout. An event is a `process_key`, joins the batch before it, or
    /// starts one.
    #[test]
    fn random_tables_match_the_oracle_on_every_executor_and_shard_count(
        (rules, next_rules) in (arb_rules(), arb_rules()),
        (open, strategy, seed) in (0u32..4, 0usize..3, 0u64..=u64::MAX),
        events in proptest::collection::vec(((0u128..16, 0u128..16, 0u128..16), 0usize..6, 0u32..3), 1..40),
        at in (0usize..41, 0usize..41, 0usize..41, 0usize..41),
    ) {
        let schema = nibble_schema();
        let table = random_table(&schema, &rules, open == 0);
        let next = random_table(&schema, &next_rules, false);
        let (mut ops, mut now) = (Vec::new(), 0.0);
        for i in 0..=events.len() {
            for (m, p) in [at.0, at.1, at.2, at.3].into_iter().enumerate() {
                if p.min(events.len()) == i {
                    now += if m == 3 { IDLE_TIMEOUT + 0.5 } else { 0.0 };
                    let all = [Op::Install(next.clone()), Op::Rekey(seed), Op::Guard, Op::Expire(now)];
                    ops.extend(all.into_iter().nth(m));
                }
            }
            let Some(&((a, b, c), gap, mode)) = events.get(i) else { break };
            now += GAPS[gap];
            let header = Key::from_values(&schema, &[a, b, c]);
            match (mode, ops.last_mut()) {
                (0, _) => ops.push(Op::Key(header, now)),
                (1, Some(Op::Batch(batch))) => batch.push((header, BYTES, now)),
                _ => ops.push(Op::Batch(vec![(header, BYTES, now)])),
            }
        }
        for config in matrix(seed) {
            differential(&table, &strategies(&schema)[strategy], config, &ops);
        }
    }
}

/// The slow path on the table it was never sized for: `TenantFleet`'s 1000-tenant merged
/// ACL (1001 rules). Allowed and denied traffic to tenants across the priority order,
/// then the first attacker's bit-inversion keys, one header a second; that attacker's ACL
/// is installed halfway — the CMS arming it, OVS revalidating by flushing the cache.
/// Every install must be the megaflow the per-bit reference generates.
#[test]
fn the_tenant_gateway_table_matches_the_oracle() {
    let schema = FieldSchema::ovs_ipv4();
    let fleet = TenantFleet::new(&schema, FleetConfig::default());
    // The OVS IPv4 key: ip_src, ip_dst, ip_proto, ttl, tp_src, tp_dst.
    let header = |i: usize, tp_src: u128, tp_dst: u128| {
        let (src, dst) = (fleet.client_ip(i).into(), fleet.service_ip(i).into());
        Key::from_values(&schema, &[src, dst, 0, 0, tp_src, tp_dst])
    };
    let tenants = (0..fleet.config().tenants).step_by(37);
    let mut headers: Vec<Key> = tenants
        .flat_map(|i| {
            [80, 443, 8080 + i as u128].map(|port| header(i, 40_000 + 7 * i as u128, port))
        })
        .collect();
    let attacker = header(fleet.config().tenants - fleet.config().attackers, 0, 0);
    headers.extend(bit_inversion_keys(&schema, &[(5, 80), (4, 12345)], &attacker).take(120));

    // The first half one by one, the second in batches of eight.
    let mut ops: Vec<Op> = headers
        .into_iter()
        .zip(0..)
        .map(|(h, n)| Op::Key(h, n.into()))
        .collect();
    let second = ops.split_off(ops.len() / 2);
    ops.push(Op::Install(fleet.table_updates().remove(0).1));
    for batch in second.chunks(8) {
        let events = batch.iter().map(|op| match op {
            Op::Key(h, t) => (h.clone(), BYTES, *t),
            _ => unreachable!("the second half is keys"),
        });
        ops.push(Op::Batch(events.collect()));
    }
    let wildcarding = MegaflowStrategy::wildcarding(&schema);
    for config in matrix(7) {
        differential(&fleet.table(), &wildcarding, config, &ops);
    }
}

/// The bounded-exhaustive pass on the 3-bit HYP schema: Fig. 1's table and every
/// single-allow-rule + DefaultDeny table, every arrival sequence of 1 to 3 headers, under
/// each strategy. Arrivals are 5 s apart, so the third comes exactly one idle timeout
/// after the first.
#[test]
fn every_short_hyp_sequence_matches_the_oracle() {
    let schema = FieldSchema::hyp();
    let value = |v| Key::from_values(&schema, &[v]);
    let mut tables = vec![FlowTable::fig1_hyp()];
    for (key, mask) in (0..8u128)
        .flat_map(|m| (0..8).map(move |k| (k, m)))
        .filter(|(k, m)| k & !m == 0)
    {
        let mut table = FlowTable::new(schema.clone());
        table.push(Rule::new(value(key), value(mask), 10, Action::Allow));
        table.push(Rule::match_all(&schema, 0, Action::Deny));
        tables.push(table);
    }
    for table in &tables {
        for strategy in &strategies(&schema) {
            for len in 1..=3 {
                for code in 0..8u128.pow(len) {
                    let ops: Vec<Op> = (0..len)
                        .map(|i| Op::Key(value(code >> (3 * i) & 7), 5.0 * f64::from(i)))
                        .collect();
                    let config = (FastPathKind::Tss, 1, Box::new(SequentialExecutor) as Box<_>);
                    differential(table, strategy, config, &ops);
                }
            }
        }
    }
}

proptest! {
    /// A cache filled under one table meets upcalls classified by another, with no flush
    /// between: the window between a table change and revalidation, on the two-field
    /// HYP+HYP2 schema. Megaflows of two tables overlap, so installs are refused and the
    /// upcall answered with the table's verdict. Every header is looked up, then upcalled
    /// whether it hit or not.
    #[test]
    fn stale_table_upcalls_match_the_oracle(
        rules in proptest::collection::vec((0u128..128, 0u128..128, 0u32..8, 0usize..2), 1..12),
        headers in proptest::collection::vec((0u128..128, 0usize..2), 1..40),
        strategy in 0usize..3,
    ) {
        let schema = FieldSchema::hyp2();
        let key = |v: u128| Key::from_values(&schema, &[v >> 4, v & 15]);
        let mut tables = [FlowTable::new(schema.clone()), FlowTable::new(schema.clone())];
        for &(k, m, rank, t) in &rules {
            tables[t].push(Rule::new(key(k), key(m), rank / 2, action(rank)));
        }
        for table in &mut tables {
            table.push(Rule::match_all(&schema, 0, Action::Deny));
        }
        let strategy = strategies(&schema)[strategy].clone();
        let mut oracle = OracleSwitch::new(tables[0].clone(), strategy.clone(), FastPathKind::Tss);
        let mut cache = TupleSpace::with_ordering(schema.clone(), MaskOrdering::NewestFirst);
        let mut slow_path = SlowPath::new(strategy);
        for (i, &(h, t)) in headers.iter().enumerate() {
            let (h, now) = (key(h), i as f64);
            oracle.table = tables[t].clone();
            let got = cache.lookup(&h, now);
            prop_assert_eq!((got.action, got.masks_scanned), oracle.lookup(&h, now));
            let got = slow_path.handle_upcall(&tables[t], &mut cache, &h, now);
            prop_assert_eq!(got.map(|u| (u.action, u.installed)), oracle.upcall(&h, now));
            prop_assert!(cache.entries().eq(oracle.entries()), "header {} on table {}", h, t);
        }
        prop_assert!(cache.check_independence());
    }
}
