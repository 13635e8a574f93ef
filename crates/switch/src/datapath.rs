//! The OVS-like datapath: megaflow fast path → slow path, with idle-timeout eviction and
//! per-packet cost accounting (Fig. 10).
//!
//! It models the kernel datapath the paper measures (§5.2, Table 1), which has no
//! userspace exact-match (microflow) cache: every packet that reaches the classifier is
//! looked up in the megaflow cache, and a miss goes to the slow path. Every entry point
//! hands the classifier a header key — a concrete packet or a frame is reduced to its key
//! first ([`FlowKey::checked_key`]) — so a packet *is* its key.
//!
//! A [`Datapath`] always owns its TSS megaflow cache ([`TupleSpace`], probed
//! newest-first: the structure the TSE attack explodes). For the §7 / Fig. 9 comparison a
//! [`FastPathKind`] other than [`FastPathKind::Tss`] puts one of the attack-immune
//! classifiers (linear search, hierarchical tries, HyperCuts), built from the flow table,
//! in front of the cache: it answers every lookup, so the cache stays empty. Construction
//! goes through [`DatapathBuilder`]:
//!
//! ```
//! use tse_classifier::flowtable::FlowTable;
//! use tse_switch::datapath::{Datapath, FastPathKind};
//!
//! let table = FlowTable::fig1_hyp();
//! // Default TSS fast path:
//! let tss_dp = Datapath::builder(table.clone()).build();
//! // Same pipeline with a hierarchical trie answering in front of the cache:
//! let trie_dp = Datapath::builder(table).fast_path(FastPathKind::Trie).build();
//! # assert_eq!(tss_dp.mask_count(), 0);
//! # assert_eq!(trie_dp.mask_count(), 0);
//! ```

use tse_classifier::baseline::{Classifier, HierarchicalTrie, HyperCuts, LinearSearch};
use tse_classifier::flowtable::FlowTable;
use tse_classifier::rule::Action;
use tse_classifier::strategy::MegaflowStrategy;
use tse_classifier::tss::{LookupOutcome, MaskOrdering, TupleSpace};
use tse_packet::fields::Key;
use tse_packet::flowkey::FlowKey;
use tse_packet::wire::WireFault;
use tse_packet::Packet;

use crate::cost::CostModel;
use crate::slowpath::SlowPath;
use crate::stats::{DatapathStats, PathTaken};

/// OVS's default megaflow idle timeout, seconds (§5.4: recovery lags the end of the
/// attack by 10 s because attacker entries stay alive this long).
pub const DEFAULT_IDLE_TIMEOUT: f64 = 10.0;

/// Interval between idle-expiry sweeps, seconds (OVS revalidator cadence).
const REVALIDATION_INTERVAL: f64 = 1.0;

/// The longest run of events the batch core hands [`TupleSpace::lookup_run`] at once: as
/// many as it walks its probe lane for together.
const RUN: usize = 4;

/// Result of processing one packet through the datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessOutcome {
    /// The verdict applied to the packet.
    pub action: Action,
    /// Which cache level produced the verdict.
    pub path: PathTaken,
    /// Simulated processing time in seconds.
    pub cost: f64,
    /// Fast-path work units for this packet (megaflow masks scanned for TSS, nodes
    /// visited + rules compared for a §7 classifier; 0 for unclassified packets).
    pub masks_scanned: usize,
}

/// Aggregate result of one batch through the datapath
/// ([`Datapath::process_timed_batch`] and its indexed form).
///
/// Events are processed **in order**, each at its own timestamp, exactly as a
/// [`Datapath::process_key`] loop would: every event performs a real fast-path lookup
/// (so per-entry hit counters evolve identically), and the idle-expiry sweep is checked
/// per event. Consecutive fast-path hits are looked up a run at a time
/// ([`TupleSpace::lookup_run`]); a run ends at a miss, whose upcall comes before the
/// next lookup, and where a sweep is due. Only host time and the statistics bookkeeping
/// are amortised — the latter accumulated batch-locally, in event order, and merged once.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchReport {
    /// Packets processed (= the batch length).
    pub processed: usize,
    /// Packets permitted.
    pub allowed: u64,
    /// Packets dropped by policy.
    pub denied: u64,
    /// Packets answered by the fast path.
    pub fastpath_hits: u64,
    /// Packets that took a slow-path upcall.
    pub upcalls: u64,
    /// Total simulated processing time of the batch, seconds.
    pub total_cost: f64,
    /// Largest per-lookup work observed in the batch.
    pub max_masks_scanned: usize,
}

/// Which structure answers a datapath's fast-path lookups: the TSS megaflow cache alone
/// (the default), or one of the §7 attack-immune classifiers in front of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPathKind {
    /// The TSS megaflow cache, filled by the slow path (OVS's datapath).
    Tss,
    /// Priority-ordered linear search over the rules.
    LinearSearch,
    /// Hierarchical tries (per-field prefix masks only).
    Trie,
    /// The HyperCuts decision tree.
    HyperCuts,
}

impl FastPathKind {
    /// Short name for reports and figure legends.
    pub fn name(self) -> &'static str {
        match self {
            FastPathKind::Tss => "tss",
            FastPathKind::LinearSearch => "linear-search",
            FastPathKind::Trie => "hierarchical-trie",
            FastPathKind::HyperCuts => "hypercuts",
        }
    }
}

/// A §7 classifier built from the flow table. It supports wildcard rules natively and
/// classifies exactly as the table does, so a header it misses is one no rule matches:
/// its upcall installs nothing, and the megaflow cache behind it stays empty.
#[derive(Debug, Clone)]
enum Baseline {
    LinearSearch(LinearSearch),
    Trie(HierarchicalTrie),
    HyperCuts(HyperCuts),
}

impl Baseline {
    /// The classifier `kind` names, built from `table`; `None` for TSS.
    fn build(kind: FastPathKind, table: &FlowTable) -> Option<Self> {
        Some(match kind {
            FastPathKind::Tss => return None,
            FastPathKind::LinearSearch => Baseline::LinearSearch(LinearSearch::build(table)),
            FastPathKind::Trie => Baseline::Trie(HierarchicalTrie::build(table)),
            FastPathKind::HyperCuts => Baseline::HyperCuts(HyperCuts::build(table)),
        })
    }

    fn kind(&self) -> FastPathKind {
        match self {
            Baseline::LinearSearch(_) => FastPathKind::LinearSearch,
            Baseline::Trie(_) => FastPathKind::Trie,
            Baseline::HyperCuts(_) => FastPathKind::HyperCuts,
        }
    }

    /// The lookup's verdict and work (nodes visited + rules compared) as a fast-path
    /// outcome. Nothing is cached, so the work does not depend on the traffic.
    fn lookup(&self, header: &Key) -> LookupOutcome {
        let c = match self {
            Baseline::LinearSearch(c) => c.classify(header),
            Baseline::Trie(c) => c.classify(header),
            Baseline::HyperCuts(c) => c.classify(header),
        };
        LookupOutcome {
            action: c.action,
            masks_scanned: c.work,
        }
    }
}

/// A single software-switch datapath instance (one hypervisor switch shared by all
/// co-located tenants).
///
/// Megaflows idle out after [`DEFAULT_IDLE_TIMEOUT`], swept once per revalidation
/// interval (1 s), and every packet is priced by [`CostModel::ovs_kernel_default`].
#[derive(Debug, Clone)]
pub struct Datapath {
    table: FlowTable,
    slow_path: SlowPath,
    megaflow: TupleSpace,
    /// The §7 classifier answering in front of `megaflow`, if one was chosen.
    baseline: Option<Baseline>,
    stats: DatapathStats,
    last_sweep: f64,
}

/// Fluent constructor for [`Datapath`]: choose the wildcarding strategy and the fast
/// path, both from defaults.
#[derive(Debug, Clone)]
pub struct DatapathBuilder {
    table: FlowTable,
    strategy: Option<MegaflowStrategy>,
    fast_path: FastPathKind,
}

impl DatapathBuilder {
    fn new(table: FlowTable) -> Self {
        DatapathBuilder {
            table,
            strategy: None,
            fast_path: FastPathKind::Tss,
        }
    }

    /// Megaflow-generation strategy (default: bit-level wildcarding, OVS's behaviour).
    pub fn strategy(mut self, strategy: MegaflowStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// The structure that answers fast-path lookups (default: [`FastPathKind::Tss`]).
    pub fn fast_path(mut self, kind: FastPathKind) -> Self {
        self.fast_path = kind;
        self
    }

    /// Finalise: an empty megaflow cache probed newest-first
    /// ([`MaskOrdering::NewestFirst`], the regime of Fig. 8a/9a), the chosen classifier
    /// built from the flow table, and the datapath around them.
    pub fn build(self) -> Datapath {
        let schema = self.table.schema();
        let strategy = self
            .strategy
            .unwrap_or_else(|| MegaflowStrategy::wildcarding(schema));
        Datapath {
            slow_path: SlowPath::new(strategy),
            megaflow: TupleSpace::with_ordering(schema.clone(), MaskOrdering::NewestFirst),
            baseline: Baseline::build(self.fast_path, &self.table),
            stats: DatapathStats::default(),
            last_sweep: 0.0,
            table: self.table,
        }
    }
}

impl Datapath {
    /// Create a TSS datapath with the OVS-default wildcarding strategy — shorthand for
    /// `Datapath::builder(table).build()`.
    pub fn new(table: FlowTable) -> Self {
        Datapath::builder(table).build()
    }

    /// Start a [`DatapathBuilder`] over `table` (default fast path: [`FastPathKind::Tss`]).
    pub fn builder(table: FlowTable) -> DatapathBuilder {
        DatapathBuilder::new(table)
    }

    /// The installed flow table (the merged ACLs of all tenants).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Replace the flow table (e.g. when a tenant injects a new ACL mid-experiment, as in
    /// the Kubernetes timeline of Fig. 8c). The megaflow cache is revalidated: all
    /// entries are flushed, exactly as OVS does on a flow-table change; a §7 classifier
    /// is rebuilt from the new table. A suppressed rule stays suppressed wherever the new
    /// table puts it, and is forgotten if the new table drops it.
    pub fn install_table(&mut self, table: FlowTable) {
        assert_eq!(
            table.schema(),
            self.table.schema(),
            "replacement flow table must use the same schema"
        );
        let old = std::mem::replace(&mut self.table, table);
        self.slow_path.carry_suppression(&old, &self.table);
        self.megaflow.clear();
        if let Some(kind) = self.baseline.as_ref().map(Baseline::kind) {
            self.baseline = Baseline::build(kind, &self.table);
        }
    }

    /// The megaflow cache (read-only).
    pub fn megaflow(&self) -> &TupleSpace {
        &self.megaflow
    }

    /// Mutable access to the megaflow cache — this is the interface MFCGuard uses to
    /// wipe entries (the real tool drives `ovs-dpctl del-flow`).
    pub fn megaflow_mut(&mut self) -> &mut TupleSpace {
        &mut self.megaflow
    }

    /// The slow path (for suppression control and upcall accounting).
    pub fn slow_path(&self) -> &SlowPath {
        &self.slow_path
    }

    /// Mutable access to the slow path.
    pub fn slow_path_mut(&mut self) -> &mut SlowPath {
        &mut self.slow_path
    }

    /// Current number of megaflow masks (0 behind a §7 classifier).
    pub fn mask_count(&self) -> usize {
        self.megaflow.mask_count()
    }

    /// Current number of megaflow entries (0 behind a §7 classifier).
    pub fn entry_count(&self) -> usize {
        self.megaflow.entry_count()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DatapathStats {
        &self.stats
    }

    /// Reset the statistics (between measurement intervals).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Run the idle-expiry sweep if the revalidation interval has elapsed.
    pub fn maybe_expire(&mut self, now: f64) {
        if now - self.last_sweep >= REVALIDATION_INTERVAL {
            self.megaflow.expire_idle(now, DEFAULT_IDLE_TIMEOUT);
            self.last_sweep = now;
        }
    }

    /// Process a concrete packet at simulation time `now`: its flow key
    /// ([`FlowKey::checked_key`]) through [`Datapath::process_key`].
    ///
    /// A packet whose family the installed table's schema cannot express never reaches
    /// the tenant ACL (like non-IP traffic, §5.2 footnote): it is charged as a
    /// [`WireFault::FamilyMismatch`] — [`PathTaken::Unclassified`], permitted, fixed cost
    /// only.
    pub fn process_packet(&mut self, pkt: &Packet, now: f64) -> ProcessOutcome {
        match FlowKey::from_packet(pkt).checked_key(self.table.schema()) {
            Ok(header) => self.process_key(&header, pkt.wire_len(), now),
            Err(fault) => self.note_wire_fault(fault, pkt.wire_len(), now),
        }
    }

    /// Charge one unclassifiable frame of `bytes` wire bytes: a decode failure is
    /// counted under its per-kind wire-error counter and **dropped** (a frame the
    /// parser cannot even delimit is never forwarded); a family mismatch is treated
    /// like non-IP traffic — [`PathTaken::Unclassified`], permitted, fixed cost.
    /// Neither kind runs the idle-expiry sweep.
    pub fn note_wire_fault(&mut self, fault: WireFault, bytes: usize, now: f64) -> ProcessOutcome {
        let _ = now;
        let action = match fault {
            WireFault::Decode(e) => {
                self.stats.record_decode_error(e);
                Action::Deny
            }
            WireFault::FamilyMismatch => Action::Allow,
        };
        let outcome = outcome(action, PathTaken::Unclassified, 0);
        record(&mut self.stats, outcome, bytes)
    }

    /// Process one header key at `now` — what every concrete packet becomes, and what
    /// the HYP-protocol experiments and victim probes hand in directly. `bytes` is the
    /// wire size used for throughput accounting.
    pub fn process_key(&mut self, header: &Key, bytes: usize, now: f64) -> ProcessOutcome {
        self.maybe_expire(now);
        let outcome = self.classify(header, now);
        record(&mut self.stats, outcome, bytes)
    }

    /// Process an ordered run of timestamped events `(header, wire_bytes, time)`,
    /// amortising the stats bookkeeping over the whole chunk — the entry point the
    /// event-driven experiment runner drains `TrafficSource` streams into.
    ///
    /// Every event is processed at its **own** timestamp: the idle-expiry sweep is
    /// checked per event and each lookup refreshes entry liveness at the event's time,
    /// so per-packet verdicts, costs and cache evolution are identical to calling
    /// [`Datapath::process_key`] in a loop over the same `(header, bytes, time)`
    /// sequence. Times must be nondecreasing.
    pub fn process_timed_batch(&mut self, batch: &[(Key, usize, f64)]) -> BatchReport {
        self.process_events(batch.iter().map(|(header, bytes, t)| (header, *bytes, *t)))
    }

    /// Indexed form of [`Datapath::process_timed_batch`]: process `batch[idx[0]]`,
    /// `batch[idx[1]]`, … in that order, without materialising the sub-batch — the
    /// zero-copy hand-off behind the sharded datapath's steering pre-partition (each
    /// shard gets the full slice plus, per run, a piece of its own index list; no
    /// [`Key`] clones). Event times must be nondecreasing *along the index order*.
    ///
    /// # Panics
    /// Panics if an index is out of bounds for `batch`.
    pub(crate) fn process_timed_batch_indexed(
        &mut self,
        batch: &[(Key, usize, f64)],
        idx: &[u32],
    ) -> BatchReport {
        self.process_events(idx.iter().map(|&i| {
            let (header, bytes, t) = &batch[i as usize];
            (header, *bytes, *t)
        }))
    }

    /// The batch core: classify each `(header, wire_bytes, time)` in order, recording
    /// into a batch-local accumulator that is merged into the datapath's stats once.
    ///
    /// After a hit the events go to the fast path in runs ([`TupleSpace::lookup_run`]; a §7
    /// classifier answers a run's first event alone), and the run doubles, up to [`RUN`]
    /// events, while every event of it hits; a miss drops it back to one event, so a
    /// stream of upcalls never looks a header up ahead of its turn. A run ends early where the next event would run the idle-expiry sweep,
    /// and at its first miss: that event's upcall is made, and the events behind it are
    /// classified one by one. Each event is then resolved and recorded in order.
    fn process_events<'a>(
        &mut self,
        events: impl ExactSizeIterator<Item = (&'a Key, usize, f64)>,
    ) -> BatchReport {
        let processed = events.len();
        if processed == 0 {
            // An empty batch: nothing to classify, nothing to merge.
            return BatchReport::default();
        }
        let mut pending = DatapathStats::default();
        let mut max_masks_scanned = 0;
        // A run's hits commit in event order, and hit bumps and `last_used` stamps land
        // as a per-key loop's would only because that order is time order.
        let mut last = f64::NEG_INFINITY;
        let mut events = events
            .inspect(move |&(_, _, now)| {
                debug_assert!(now >= last, "event times must be nondecreasing");
                last = now;
            })
            .peekable();
        let mut width = 1;
        while let Some(first) = events.next() {
            let (header, bytes, now) = first;
            self.maybe_expire(now);
            if width == 1 {
                let outcome = record(&mut pending, self.classify(header, now), bytes);
                max_masks_scanned = max_masks_scanned.max(outcome.masks_scanned);
                width = 1 + usize::from(outcome.path == PathTaken::Megaflow);
                continue;
            }
            let (mut run, mut len) = ([first; RUN], 1);
            let last_sweep = self.last_sweep;
            while len < width {
                match events.next_if(|e| e.2 - last_sweep < REVALIDATION_INTERVAL) {
                    Some(event) => run[len] = event,
                    None => break,
                }
                len += 1;
            }
            let mut looked = [LookupOutcome::default(); RUN];
            let keys = run.map(|(header, _, now)| (header, now));
            let answered = match &self.baseline {
                None => self.megaflow.lookup_run(&keys[..len], &mut looked[..len]),
                Some(baseline) => {
                    looked[0] = baseline.lookup(header);
                    1
                }
            };
            let mut hits = true;
            for (i, &(header, bytes, now)) in run[..len].iter().enumerate() {
                // The events behind a miss: no sweep is due before the run's end, so
                // `maybe_expire` would do nothing for them.
                let outcome = if i < answered {
                    self.resolve(looked[i], header, now)
                } else {
                    self.classify(header, now)
                };
                let outcome = record(&mut pending, outcome, bytes);
                hits &= outcome.path == PathTaken::Megaflow;
                max_masks_scanned = max_masks_scanned.max(outcome.masks_scanned);
            }
            width = if hits { (width * 2).min(RUN) } else { 1 };
        }
        self.stats.merge(&pending);
        BatchReport {
            processed,
            allowed: pending.allowed,
            denied: pending.denied,
            fastpath_hits: pending.megaflow_hits,
            upcalls: pending.upcalls,
            total_cost: pending.busy_seconds,
            max_masks_scanned,
        }
    }

    /// The one classification core — the fast path and, on a miss, the slow path
    /// (Fig. 10) — for a header at `now`. Every entry point, per key or batched,
    /// classifies through here (a run of hits through its second half, [`Self::resolve`])
    /// and hands the outcome to [`record`], so a per-key call is a batch of one by
    /// construction.
    fn classify(&mut self, header: &Key, now: f64) -> ProcessOutcome {
        // TSS Alg. 1, or the §7 classifier in front of the cache.
        let lookup = match &self.baseline {
            None => self.megaflow.lookup(header, now),
            Some(baseline) => baseline.lookup(header),
        };
        self.resolve(lookup, header, now)
    }

    /// The outcome of `header`'s fast-path `lookup` at `now`: a hit's verdict, or the
    /// slow path's on a miss.
    fn resolve(&mut self, lookup: LookupOutcome, header: &Key, now: f64) -> ProcessOutcome {
        if let Some(action) = lookup.action {
            return outcome(action, PathTaken::Megaflow, lookup.masks_scanned);
        }
        // Slow path (upcall). A header no rule matches is dropped.
        let upcall = self
            .slow_path
            .handle_upcall(&self.table, &mut self.megaflow, header, now);
        debug_assert!(
            self.baseline.is_none() || !upcall.is_some_and(|up| up.installed),
            "an upcall behind a §7 classifier installed a megaflow"
        );
        let action = upcall.map_or(Action::Deny, |up| up.action);
        outcome(action, PathTaken::SlowPath, lookup.masks_scanned)
    }
}

/// The outcome of a packet answered with `action` on `path` after the fast path scanned
/// `masks_scanned` work units, priced by [`CostModel::ovs_kernel_default`].
fn outcome(action: Action, path: PathTaken, masks_scanned: usize) -> ProcessOutcome {
    ProcessOutcome {
        action,
        path,
        cost: CostModel::ovs_kernel_default().path_cost(path, masks_scanned),
        masks_scanned,
    }
}

/// Record `outcome` for a packet of `bytes` wire bytes into `stats` — the datapath's
/// own for per-packet processing, a batch-local accumulator for the batch core — and
/// pass it through.
fn record(stats: &mut DatapathStats, outcome: ProcessOutcome, bytes: usize) -> ProcessOutcome {
    stats.record(
        outcome.path,
        outcome.action.permits(),
        outcome.masks_scanned,
        outcome.cost,
        bytes,
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tse_attack::scenarios::Scenario;
    use tse_classifier::flowtable::FlowTable;
    use tse_classifier::rule::Rule;
    use tse_packet::builder::PacketBuilder;
    use tse_packet::fields::FieldSchema;
    use tse_packet::wire;
    use tse_packet::IpProto;

    /// The Fig. 6 ACL over the OVS IPv4 schema: dst port 80, src 10.0.0.1, src port
    /// 12345 allowed; everything else denied.
    fn fig6_table() -> FlowTable {
        let schema = FieldSchema::ovs_ipv4();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let ip_src = schema.field_index("ip_src").unwrap();
        let tp_src = schema.field_index("tp_src").unwrap();
        FlowTable::whitelist_default_deny(
            &schema,
            &[(tp_dst, 80), (ip_src, 0x0a000001), (tp_src, 12345)],
        )
    }

    #[test]
    fn first_packet_takes_slow_path_then_fast_path() {
        let mut dp = Datapath::new(fig6_table());
        let pkt = PacketBuilder::tcp_v4([10, 0, 0, 9], [10, 0, 0, 99], 5555, 80).build();
        let first = dp.process_packet(&pkt, 0.0);
        assert_eq!(first.path, PathTaken::SlowPath);
        assert_eq!(first.action, Action::Allow);
        let second = dp.process_packet(&pkt, 0.001);
        assert_eq!(second.path, PathTaken::Megaflow);
        assert_eq!(second.action, Action::Allow);
        assert!(second.cost < first.cost);
        assert_eq!(dp.stats().upcalls, 1);
        assert_eq!(dp.stats().megaflow_hits, 1);
    }

    #[test]
    fn denied_traffic_is_dropped_and_cached() {
        let mut dp = Datapath::new(fig6_table());
        let pkt =
            PacketBuilder::from_numeric_v4(0x0a03_0303, 0x0a00_0063, IpProto::Udp, 4444, 9999)
                .build();
        assert_eq!(dp.process_packet(&pkt, 0.0).action, Action::Deny);
        assert_eq!(dp.process_packet(&pkt, 0.1).action, Action::Deny);
        assert_eq!(dp.stats().denied, 2);
        assert!(dp.mask_count() >= 1);
    }

    #[test]
    fn megaflow_cost_grows_with_masks() {
        let mut dp = Datapath::new(fig6_table());
        let victim = PacketBuilder::tcp_v4([10, 0, 0, 9], [10, 0, 0, 99], 5555, 80).build();
        dp.process_packet(&victim, 0.0);
        let cheap = dp.process_packet(&victim, 0.001).cost;
        // Attacker sprays denied packets with pseudo-random headers, spawning masks
        // (a miniature General TSE).
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        for i in 0..500u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = (x >> 32) as u32;
            let sport = (x >> 16) as u16;
            let dport = x as u16;
            let atk =
                PacketBuilder::tcp_v4(src.to_be_bytes(), [10, 0, 0, 99], sport, dport).build();
            dp.process_packet(&atk, 0.01 + i as f64 * 1e-4);
        }
        assert!(
            dp.mask_count() > 40,
            "attack should have spawned masks: {}",
            dp.mask_count()
        );
        // With NewestFirst ordering the victim now scans (almost) all masks.
        let expensive = dp.process_packet(&victim, 0.5).cost;
        assert!(
            expensive > 3.0 * cheap,
            "victim cost should grow with masks: {cheap} -> {expensive}"
        );
    }

    #[test]
    fn idle_timeout_restores_the_cache() {
        let mut dp = Datapath::new(fig6_table());
        for i in 0..50u32 {
            let atk = PacketBuilder::tcp_v4(
                [10, 0, i as u8, 7],
                [10, 0, 0, 99],
                1000 + i as u16,
                2000 + i as u16,
            )
            .build();
            dp.process_packet(&atk, 0.01);
        }
        let with_attack = dp.mask_count();
        assert!(with_attack > 5);
        // 15 s later (attack stopped), the sweep at the next packet expires everything.
        let victim = PacketBuilder::tcp_v4([10, 0, 0, 9], [10, 0, 0, 99], 5555, 80).build();
        dp.process_packet(&victim, 15.0);
        assert!(
            dp.mask_count() < with_attack / 2,
            "idle entries must expire after the timeout"
        );
    }

    #[test]
    fn install_table_flushes_caches() {
        let mut dp = Datapath::new(fig6_table());
        let pkt = PacketBuilder::tcp_v4([10, 0, 0, 9], [10, 0, 0, 99], 5555, 80).build();
        dp.process_packet(&pkt, 0.0);
        assert!(dp.entry_count() > 0);
        dp.install_table(fig6_table());
        assert_eq!(dp.entry_count(), 0);
        assert_eq!(dp.mask_count(), 0);
    }

    #[test]
    fn ipv6_packet_against_ipv4_table_is_unclassified() {
        let mut dp = Datapath::new(fig6_table());
        let pkt =
            PacketBuilder::from_numeric_v6((1 << 112) | 2, (3 << 112) | 4, IpProto::Tcp, 1, 80)
                .build();
        let out = dp.process_packet(&pkt, 0.0);
        assert_eq!(out.path, PathTaken::Unclassified);
        assert_eq!(dp.mask_count(), 0);
    }

    #[test]
    fn process_key_supports_hyp_experiments() {
        let table = FlowTable::fig1_hyp();
        let schema = table.schema().clone();
        let mut dp = Datapath::new(table);
        let allow = tse_packet::fields::Key::from_values(&schema, &[0b001]);
        let deny = tse_packet::fields::Key::from_values(&schema, &[0b111]);
        assert_eq!(dp.process_key(&allow, 100, 0.0).action, Action::Allow);
        assert_eq!(dp.process_key(&deny, 100, 0.0).action, Action::Deny);
        assert_eq!(dp.stats().upcalls, 2);
    }

    /// The three §7 classifiers.
    const BASELINES: [FastPathKind; 3] = [
        FastPathKind::LinearSearch,
        FastPathKind::Trie,
        FastPathKind::HyperCuts,
    ];

    #[test]
    fn baseline_backends_classify_like_the_table() {
        let table = FlowTable::fig1_hyp();
        for kind in BASELINES {
            let mut dp = Datapath::builder(table.clone()).fast_path(kind).build();
            for h in 0..8u128 {
                let header = Key::from_values(table.schema(), &[h]);
                let expect = table.lookup(&header).map(|m| m.action);
                let got = dp.process_key(&header, 100, 0.0);
                assert_eq!(Some(got.action), expect, "{} on {h:03b}", kind.name());
                // Every lookup answers on the fast path; nothing reaches the slow path.
                assert_eq!(got.path, PathTaken::Megaflow, "{} on {h:03b}", kind.name());
            }
            assert_eq!(dp.stats().upcalls, 0);
            assert_eq!((dp.mask_count(), dp.entry_count()), (0, 0));
        }
    }

    #[test]
    fn install_table_rebuilds_the_classifier() {
        let table = FlowTable::fig1_hyp();
        let schema = table.schema().clone();
        let deny = Key::from_values(&schema, &[0b111]);
        let mut dp = Datapath::builder(table)
            .fast_path(FastPathKind::HyperCuts)
            .build();
        assert_eq!(dp.process_key(&deny, 100, 0.0).action, Action::Deny);
        let mut allow_all = FlowTable::new(schema.clone());
        allow_all.push(Rule::match_all(&schema, 0, Action::Allow));
        dp.install_table(allow_all);
        assert_eq!(dp.process_key(&deny, 100, 1.0).action, Action::Allow);
        assert_eq!(dp.stats().upcalls, 0);
    }

    #[test]
    fn baseline_work_is_traffic_independent() {
        let table = FlowTable::fig1_hyp();
        let key = |h: u128| Key::from_values(table.schema(), &[h]);
        for kind in BASELINES {
            let mut dp = Datapath::builder(table.clone()).fast_path(kind).build();
            let w0 = dp.process_key(&key(0b000), 64, 0.0).masks_scanned;
            for h in 0..8u128 {
                for _ in 0..10 {
                    dp.process_key(&key(h), 64, 0.0);
                }
            }
            let w1 = dp.process_key(&key(0b000), 64, 1.0).masks_scanned;
            assert_eq!(w1, w0, "{}", kind.name());
        }
    }

    #[test]
    fn builder_swaps_backends() {
        let table = FlowTable::fig1_hyp();
        let schema = table.schema().clone();
        let mut dp = Datapath::builder(table)
            .fast_path(FastPathKind::LinearSearch)
            .build();
        let allow = Key::from_values(&schema, &[0b001]);
        let deny = Key::from_values(&schema, &[0b111]);
        // A §7 classifier answers every lookup; nothing reaches the slow path.
        assert_eq!(dp.process_key(&allow, 100, 0.0).action, Action::Allow);
        assert_eq!(dp.process_key(&deny, 100, 0.0).action, Action::Deny);
        assert_eq!(dp.stats().upcalls, 0);
        assert_eq!(dp.stats().megaflow_hits, 2);
        assert_eq!(dp.mask_count(), 0);
    }

    #[test]
    fn trie_backend_work_stays_flat_under_attack() {
        let table = fig6_table();
        let mut dp = Datapath::builder(table)
            .fast_path(FastPathKind::Trie)
            .build();
        let victim = PacketBuilder::tcp_v4([10, 0, 0, 9], [10, 0, 0, 99], 5555, 80).build();
        let baseline_work = dp.process_packet(&victim, 0.0).masks_scanned;
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for i in 0..500u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let atk = PacketBuilder::tcp_v4(
                ((x >> 32) as u32).to_be_bytes(),
                [10, 0, 0, 99],
                (x >> 16) as u16,
                x as u16,
            )
            .build();
            dp.process_packet(&atk, 0.01 + i as f64 * 1e-4);
        }
        let attacked_work = dp.process_packet(&victim, 0.5).masks_scanned;
        assert_eq!(
            baseline_work, attacked_work,
            "trie lookup work must not grow with traffic"
        );
        assert_eq!(dp.mask_count(), 0);
    }

    #[test]
    fn process_batch_matches_per_key_verdicts() {
        let schema = FieldSchema::ovs_ipv4();
        let table = fig6_table();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let mut batch = Vec::new();
        for port in [80u128, 81, 80, 80, 9999, 80] {
            let mut k = schema.zero_value();
            k.set(tp_dst, port);
            batch.push((k, 64usize, 0.5));
        }
        let mut looped = Datapath::new(table.clone());
        let loop_actions: Vec<Action> = batch
            .iter()
            .map(|(k, b, t)| looped.process_key(k, *b, *t).action)
            .collect();
        let mut batched = Datapath::new(table);
        let report = batched.process_timed_batch(&batch);
        assert_eq!(report.processed, 6);
        assert_eq!(
            report.allowed as usize,
            loop_actions.iter().filter(|a| a.permits()).count()
        );
        assert_eq!(
            report.denied as usize,
            loop_actions.iter().filter(|a| !a.permits()).count()
        );
        // Same totals in the datapath stats.
        assert_eq!(batched.stats().packets(), looped.stats().packets());
        assert_eq!(batched.stats().allowed, looped.stats().allowed);
        assert_eq!(batched.stats().denied, looped.stats().denied);
        assert_eq!(batched.stats().upcalls, looped.stats().upcalls);
        assert_eq!(batched.mask_count(), looped.mask_count());
    }

    #[test]
    fn process_timed_batch_matches_per_key_loop_exactly() {
        let schema = FieldSchema::ovs_ipv4();
        let table = fig6_table();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let ip_src = schema.field_index("ip_src").unwrap();
        // Spread events over 20 s so idle expiry fires mid-batch.
        let mut batch = Vec::new();
        for i in 0..40u32 {
            let mut k = schema.zero_value();
            k.set(tp_dst, (i % 7) as u128 * 100);
            k.set(ip_src, 0x0a00_0000 + (i % 5) as u128);
            batch.push((k, 64usize, i as f64 * 0.5));
        }
        let mut looped = Datapath::new(table.clone());
        let loop_outcomes: Vec<ProcessOutcome> = batch
            .iter()
            .map(|(k, b, t)| looped.process_key(k, *b, *t))
            .collect();
        let mut batched = Datapath::new(table);
        let report = batched.process_timed_batch(&batch);
        assert_eq!(report.processed, 40);
        assert_eq!(
            report.total_cost.to_bits(),
            loop_outcomes.iter().map(|o| o.cost).sum::<f64>().to_bits(),
            "timed batch must charge exactly the per-key costs"
        );
        assert_eq!(
            report.max_masks_scanned,
            loop_outcomes.iter().map(|o| o.masks_scanned).max().unwrap()
        );
        assert_eq!(batched.stats(), looped.stats());
        assert_eq!(batched.mask_count(), looped.mask_count());
        assert_eq!(batched.entry_count(), looped.entry_count());
    }

    /// A datapath over the SipDp ACL whose cache the co-located attack has exploded:
    /// keys `0..320` of the attack's sequence resident — the first 192 installed at
    /// `t = 0`, the rest at `t = 1` — and the keys behind them still fresh. Stats reset.
    fn sipdp_exploded() -> &'static (Datapath, Vec<Key>) {
        static FIXTURE: std::sync::OnceLock<(Datapath, Vec<Key>)> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let schema = FieldSchema::ovs_ipv4();
            let scenario = Scenario::SipDp;
            let keys: Vec<Key> = scenario
                .key_iter(&schema, &schema.zero_value())
                .take(400)
                .collect();
            let mut dp = Datapath::new(scenario.flow_table(&schema));
            for (i, key) in keys[..320].iter().enumerate() {
                dp.process_key(key, 64, if i < 192 { 0.0 } else { 1.0 });
            }
            assert!(dp.mask_count() >= 64, "{} masks", dp.mask_count());
            dp.reset_stats();
            (dp, keys)
        })
    }

    /// Every entry's key, hit count and `last_used` stamp, in probe order.
    fn stamps(dp: &Datapath) -> Vec<(Key, u64, f64)> {
        let entries = dp.megaflow().entries();
        entries
            .map(|e| (e.key.clone(), e.hits, e.last_used))
            .collect()
    }

    proptest! {
        /// The batch core's runs of hits ([`TupleSpace::lookup_run`]) against a
        /// `process_key` loop on an exploded cache: resident keys hit, fresh keys take an
        /// upcall, timestamps tie, and the batch spans four revalidation intervals around
        /// the idle timeout, so sweeps expire the `t = 0` entries in the middle of it.
        /// Stats, the reported cost to the bit, and every hit count and `last_used` stamp
        /// agree.
        #[test]
        fn lane_major_runs_match_the_per_key_loop(
            picks in proptest::collection::vec(0usize..400, 40..240),
        ) {
            let (fixture, keys) = sipdp_exploded();
            let n = picks.len();
            let batch: Vec<(Key, usize, f64)> = picks
                .iter()
                .enumerate()
                .map(|(i, &k)| (keys[k].clone(), 64, 8.5 + (i * 40 / n) as f64 / 10.0))
                .collect();
            let mut looped = fixture.clone();
            let costs: Vec<f64> = batch
                .iter()
                .map(|(k, b, t)| looped.process_key(k, *b, *t).cost)
                .collect();
            let mut batched = fixture.clone();
            let report = batched.process_timed_batch(&batch);
            prop_assert_eq!(batched.stats(), looped.stats());
            prop_assert_eq!(
                batched.stats().busy_seconds.to_bits(),
                looped.stats().busy_seconds.to_bits()
            );
            prop_assert_eq!(
                report.total_cost.to_bits(),
                costs.iter().sum::<f64>().to_bits()
            );
            prop_assert_eq!(
                batched.megaflow().mask_usage(),
                looped.megaflow().mask_usage()
            );
            prop_assert_eq!(stamps(&batched), stamps(&looped));
        }
    }

    /// The batch core commits a run's hits in event order, which is a per-key loop's
    /// only while time does not go backwards; debug builds refuse a batch where it does.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nondecreasing")]
    fn a_batch_out_of_time_order_is_refused() {
        let table = FlowTable::fig1_hyp();
        let key = Key::from_values(table.schema(), &[0b001]);
        let batch = [(key.clone(), 64, 1.0), (key, 64, 0.5)];
        Datapath::new(table).process_timed_batch(&batch);
    }

    #[test]
    fn undecodable_frames_are_dropped_and_counted_by_kind() {
        // Frames reach a datapath as the wire parser's verdict: a key, or a fault.
        let mut dp = Datapath::new(fig6_table());
        let schema = dp.table().schema().clone();
        let mut ingest = |frame: &[u8], now: f64| match wire::decode_key(frame, &schema) {
            Ok(key) => dp.process_key(&key, frame.len(), now),
            Err(fault) => dp.note_wire_fault(fault, frame.len(), now),
        };
        let pkt = PacketBuilder::tcp_v4([10, 0, 0, 9], [10, 0, 0, 99], 5555, 80).build();
        let frame = wire::encode(&pkt);
        let mut arp = frame.clone();
        arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
        for (bad, now) in [(&frame[..9], 0.0), (&arp[..], 0.1)] {
            let out = ingest(bad, now);
            assert_eq!(out.action, Action::Deny);
            assert_eq!(out.path, PathTaken::Unclassified);
            assert_eq!(out.masks_scanned, 0);
        }
        // A decodable frame of the wrong family is *permitted* unclassified.
        let v6 =
            PacketBuilder::from_numeric_v6((1 << 112) | 2, (3 << 112) | 4, IpProto::Tcp, 1, 80)
                .build();
        let out = ingest(&wire::encode(&v6), 0.2);
        assert_eq!(out.action, Action::Allow);
        assert_eq!(out.path, PathTaken::Unclassified);
        let stats = dp.stats();
        assert_eq!((stats.truncated, stats.unsupported_ethertype), (1, 1));
        assert_eq!(stats.unclassified, 3);
        // No cache state was installed by any of it.
        assert_eq!(dp.mask_count(), 0);
        assert_eq!(dp.entry_count(), 0);
    }

    #[test]
    fn process_batch_evolves_the_cache_like_a_per_key_loop() {
        // Runs of repeated headers: every packet must perform a real lookup, so per-entry
        // and per-mask hit counters evolve exactly as in per-key processing.
        let table = FlowTable::fig1_hyp();
        let schema = table.schema().clone();
        let headers = [0b001u128, 0b001, 0b001, 0b111, 0b111, 0b001, 0b101, 0b001];
        let batch: Vec<(Key, usize, f64)> = headers
            .iter()
            .cycle()
            .take(96)
            .map(|&h| (Key::from_values(&schema, &[h]), 64, 0.5))
            .collect();
        let mut looped = Datapath::new(table.clone());
        let loop_cost: f64 = batch
            .iter()
            .map(|(k, b, t)| looped.process_key(k, *b, *t).cost)
            .sum();
        let mut batched = Datapath::new(table);
        let report = batched.process_timed_batch(&batch);

        assert_eq!(report.processed, 96);
        assert_eq!(report.total_cost.to_bits(), loop_cost.to_bits());
        assert_eq!(batched.stats(), looped.stats());
        assert_eq!(
            batched.megaflow().mask_usage(),
            looped.megaflow().mask_usage()
        );
        for (key, ..) in &batch[..headers.len()] {
            let (b, l) = (batched.megaflow().peek(key), looped.megaflow().peek(key));
            assert_eq!(b.map(|e| e.hits), l.map(|e| e.hits), "hits of {key:?}");
            assert!(b.is_some_and(|e| e.hits > 1), "repeats must hit for real");
        }
    }
}
