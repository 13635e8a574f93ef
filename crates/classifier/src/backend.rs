//! The pluggable fast-path backend abstraction.
//!
//! The paper's §7 names attack-immune classifiers (linear search, hierarchical tries,
//! HyperCuts) as the long-term mitigation for Tuple Space Explosion, and Fig. 9 compares
//! them head-to-head with TSS. To measure that comparison *through the full datapath* —
//! slow path, idle expiry, MFCGuard sweeps — the switch must be generic over the
//! structure that answers fast-path lookups. [`FastPathBackend`] is that seam:
//!
//! * [`TupleSpace`] is the canonical implementation — the traffic-driven megaflow cache
//!   whose mask list an attacker can explode (Observation 1);
//! * [`BaselineBackend`] adapts the §7 baselines. They support wildcard rules natively,
//!   so instead of accumulating per-traffic megaflow entries they are (re)built from the
//!   installed flow table and answer every lookup directly — which is exactly the
//!   property that makes them immune: no packet can grow the structure
//!   ([`Classifier::classify`] takes `&self`).
//!
//! The trait also carries the megaflow-lifecycle hooks (insert, idle expiry, guard
//! eviction) so `Datapath`, `ExperimentRunner` and `MfcGuard` stay backend-agnostic;
//! backends without per-traffic state implement them as no-ops.

use tse_packet::fields::{FieldSchema, Key, Mask};

use crate::baseline::{Classifier, HierarchicalTrie, HyperCuts, LinearSearch};
use crate::flowtable::{FlowTable, TableMatch};
use crate::strategy::{settle, GeneratedMegaflow, GenerationError, MegaflowStrategy};
use crate::tss::{InsertError, LookupOutcome, MaskOrdering, MegaflowEntry, TupleSpace};

/// A structure that answers the datapath's fast-path lookups.
///
/// Implementations fall into two families:
///
/// * **traffic-driven caches** ([`TupleSpace`]): start empty, miss until the slow path
///   installs megaflow entries, and participate fully in idle expiry and guard eviction;
/// * **table-built classifiers** ([`BaselineBackend`]): rebuilt from the flow table on
///   [`FastPathBackend::install_table`], hit on every lookup, and keep no per-traffic
///   state — the lifecycle hooks are no-ops for them.
///
/// The `masks_scanned` field of the returned [`LookupOutcome`] is the backend's abstract
/// per-lookup work (hash probes for TSS, nodes visited + rules compared for the
/// baselines), and the switch's cost model charges it per probe as it is.
///
/// `Send` is a supertrait: the sharded datapath's `ShardExecutor` hands each shard —
/// and therefore its backend — to a worker thread, so a backend built on `Rc`/`RefCell`
/// (or any other thread-bound state) is rejected at compile time rather than at
/// executor-integration time (see `tests/send_audit.rs`).
pub trait FastPathBackend: Send {
    /// Construct an empty backend for a schema (how the datapath builder makes one).
    fn fresh(schema: &FieldSchema) -> Self
    where
        Self: Sized;

    /// Short human-readable name for reports and figure legends.
    fn name(&self) -> &'static str;

    /// Fast-path lookup at simulation time `now`. `masks_scanned` reports the lookup's
    /// work in backend-native units even on a miss.
    fn lookup(&mut self, header: &Key, now: f64) -> LookupOutcome;

    /// Look up a run of headers at nondecreasing times: the outcomes [`Self::lookup`] on
    /// each in turn gives, up to and including the first miss, written to `out`'s first
    /// slots, so that a miss's upcall comes before the headers behind it are looked up.
    /// Returns how many headers were answered — at least one of a non-empty run; the rest
    /// are left untouched. The default answers the first header alone; [`TupleSpace`]
    /// walks its probe lane once for up to four.
    fn lookup_run(&mut self, run: &[(&Key, f64)], out: &mut [LookupOutcome]) -> usize {
        let Some((&(header, now), slot)) = run.first().zip(out.first_mut()) else {
            return 0;
        };
        *slot = self.lookup(header, now);
        1
    }

    /// Install the megaflow the slow path generates for `header`. `examined` is the
    /// verdict of `table`'s walk and the bits it examined, widened to `strategy` (what
    /// [`examined_megaflow`](crate::strategy::examined_megaflow) returns); the entry is
    /// narrowed (Inv(2)) by each entry this cache reports it overlapping until the cache
    /// takes it — the megaflow
    /// [`generate_megaflow`](crate::strategy::generate_megaflow) would return, installed.
    /// Returns it, or [`GenerationError::AlreadyCovered`] where an existing entry covers
    /// `header`, with nothing installed. Backends that classify directly from the flow
    /// table accept and discard the entry (their verdicts already cover it).
    fn install_megaflow(
        &mut self,
        table: &FlowTable,
        header: &Key,
        examined: (TableMatch, Mask),
        strategy: &MegaflowStrategy,
        now: f64,
    ) -> Result<GeneratedMegaflow, GenerationError>;

    /// An existing entry overlapping the prospective `(key, mask)` entry, if any — the
    /// primitive megaflow generation narrows entries against (Inv(2) Independence).
    /// Backends with no per-traffic entries never conflict.
    fn find_conflict(&self, _key: &Key, _mask: &Mask) -> Option<(Key, Mask)> {
        None
    }

    /// The flow table was (re)installed: flush traffic-driven state or rebuild
    /// table-driven structures.
    fn install_table(&mut self, _table: &FlowTable) {}

    /// Expire entries idle longer than `idle_timeout`; returns the number removed.
    fn expire_idle(&mut self, _now: f64, _idle_timeout: f64) -> usize {
        0
    }

    /// Remove every entry matching `predicate` (MFCGuard's eviction hook); returns the
    /// number removed. Backends with no per-traffic entries remove nothing.
    fn evict_where(&mut self, _predicate: &mut dyn FnMut(&MegaflowEntry) -> bool) -> usize {
        0
    }

    /// The traffic-driven masks in probe order, each with its cumulative hit count —
    /// the ranking signal for mask-pressure eviction (the `MaskCap` mitigation).
    /// Backends without a mask list report nothing.
    fn mask_usage(&self) -> Vec<(Mask, u64)> {
        Vec::new()
    }

    /// Remove one mask and all entries of its tuple; returns the number of entries
    /// removed. Backends without per-traffic masks remove nothing.
    fn evict_mask(&mut self, _mask: &Mask) -> usize {
        0
    }

    /// Number of distinct megaflow masks (the TSE attacker's target metric; 0 for
    /// backends without traffic-driven masks).
    fn mask_count(&self) -> usize;

    /// Number of cached megaflow entries (0 for table-built backends).
    fn entry_count(&self) -> usize;
}

impl FastPathBackend for TupleSpace {
    /// A datapath's megaflow cache probes its masks newest-first
    /// ([`MaskOrdering::NewestFirst`]): the regime of Fig. 8a/9a.
    fn fresh(schema: &FieldSchema) -> Self {
        TupleSpace::with_ordering(schema.clone(), MaskOrdering::NewestFirst)
    }

    fn name(&self) -> &'static str {
        "tss"
    }

    fn lookup(&mut self, header: &Key, now: f64) -> LookupOutcome {
        TupleSpace::lookup(self, header, now)
    }

    fn lookup_run(&mut self, run: &[(&Key, f64)], out: &mut [LookupOutcome]) -> usize {
        TupleSpace::lookup_run(self, run, out)
    }

    /// Each attempt is one [`TupleSpace::insert`]: its one walk of the probe lane both
    /// checks Inv(2) and files the entry, and a refusal names the entry to narrow by.
    fn install_megaflow(
        &mut self,
        table: &FlowTable,
        header: &Key,
        examined: (TableMatch, Mask),
        strategy: &MegaflowStrategy,
        now: f64,
    ) -> Result<GeneratedMegaflow, GenerationError> {
        let action = examined.0.action;
        settle(table.schema(), strategy, header, examined, |key, mask| {
            let inserted = self.insert(key.clone(), mask.clone(), action, now);
            inserted
                .err()
                .map(|InsertError::Overlap { existing }| *existing)
        })
    }

    fn find_conflict(&self, key: &Key, mask: &Mask) -> Option<(Key, Mask)> {
        TupleSpace::find_conflict(self, key, mask)
    }

    fn install_table(&mut self, _table: &FlowTable) {
        // OVS flushes (revalidates) the whole megaflow cache on a flow-table change.
        self.clear();
    }

    fn expire_idle(&mut self, now: f64, idle_timeout: f64) -> usize {
        TupleSpace::expire_idle(self, now, idle_timeout)
    }

    fn evict_where(&mut self, predicate: &mut dyn FnMut(&MegaflowEntry) -> bool) -> usize {
        self.remove_where(|e| predicate(e))
    }

    fn mask_usage(&self) -> Vec<(Mask, u64)> {
        TupleSpace::mask_usage(self)
    }

    fn evict_mask(&mut self, mask: &Mask) -> usize {
        TupleSpace::remove_mask(self, mask)
    }

    fn mask_count(&self) -> usize {
        TupleSpace::mask_count(self)
    }

    fn entry_count(&self) -> usize {
        TupleSpace::entry_count(self)
    }
}

/// Adapter running a §7 baseline classifier as the datapath's fast path.
///
/// The wrapped classifier supports wildcard rules natively, so the megaflow lifecycle
/// collapses: the structure is rebuilt from the flow table whenever one is installed,
/// every lookup is answered directly (no misses once a table is in), and slow-path
/// megaflow installs are accepted but discarded. Because no packet can mutate the
/// structure, the per-lookup work reported in `masks_scanned` stays bounded by the rule
/// set — the attack-immunity property Fig. 9 measures.
///
/// `C: Send` because the adapter is a [`FastPathBackend`], which shard worker threads
/// take ownership of during parallel execution.
#[derive(Debug, Clone)]
pub struct BaselineBackend<C> {
    /// Built on the first table install (`DatapathBuilder::build` does this).
    classifier: Option<C>,
}

/// [`BaselineBackend`] over priority-ordered linear search.
pub type LinearSearchBackend = BaselineBackend<LinearSearch>;
/// [`BaselineBackend`] over hierarchical tries.
pub type TrieBackend = BaselineBackend<HierarchicalTrie>;
/// [`BaselineBackend`] over the HyperCuts decision tree.
pub type HyperCutsBackend = BaselineBackend<HyperCuts>;

impl<C: Classifier + Send> FastPathBackend for BaselineBackend<C> {
    fn fresh(_schema: &FieldSchema) -> Self {
        BaselineBackend { classifier: None }
    }

    fn name(&self) -> &'static str {
        match &self.classifier {
            Some(c) => c.name(),
            None => "baseline-unbuilt",
        }
    }

    fn lookup(&mut self, header: &Key, _now: f64) -> LookupOutcome {
        match &self.classifier {
            Some(c) => {
                let r = c.classify(header);
                LookupOutcome {
                    action: r.action,
                    masks_scanned: r.work,
                }
            }
            None => LookupOutcome {
                action: None,
                masks_scanned: 0,
            },
        }
    }

    fn install_megaflow(
        &mut self,
        table: &FlowTable,
        header: &Key,
        examined: (TableMatch, Mask),
        strategy: &MegaflowStrategy,
        _now: f64,
    ) -> Result<GeneratedMegaflow, GenerationError> {
        // Native wildcard support: the table-built structure already covers the entry.
        settle(table.schema(), strategy, header, examined, |_, _| None)
    }

    fn install_table(&mut self, table: &FlowTable) {
        self.classifier = Some(C::build(table));
    }

    fn mask_count(&self) -> usize {
        0
    }

    fn entry_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtable::FlowTable;
    use crate::rule::Action;
    use crate::strategy::examined_megaflow;
    use tse_packet::fields::{FieldSchema, Key};

    fn hyp(v: u128) -> Key {
        Key::from_values(&FieldSchema::hyp(), &[v])
    }

    /// A backend with the classifier already built from `table`.
    fn for_table<B: FastPathBackend>(table: &FlowTable) -> B {
        let mut backend = B::fresh(table.schema());
        backend.install_table(table);
        backend
    }

    fn backends() -> Vec<Box<dyn FastPathBackend>> {
        let table = FlowTable::fig1_hyp();
        vec![
            Box::new(for_table::<LinearSearchBackend>(&table)),
            Box::new(for_table::<TrieBackend>(&table)),
            Box::new(for_table::<HyperCutsBackend>(&table)),
        ]
    }

    /// Install, as the slow path does, the Fig. 1 ACL's megaflow for header `h`.
    fn install(b: &mut dyn FastPathBackend, h: u128) -> Result<GeneratedMegaflow, GenerationError> {
        let table = FlowTable::fig1_hyp();
        let strategy = MegaflowStrategy::wildcarding(table.schema());
        let examined = examined_megaflow(&table, &hyp(h), &strategy).unwrap();
        b.install_megaflow(&table, &hyp(h), examined, &strategy, 0.0)
    }

    #[test]
    fn tuple_space_implements_the_trait() {
        let schema = FieldSchema::hyp();
        let mut b = <TupleSpace as FastPathBackend>::fresh(&schema);
        assert_eq!(FastPathBackend::name(&b), "tss");
        assert!(b.lookup(&hyp(0b001), 0.0).action.is_none());
        let g = install(&mut b, 0b001).unwrap();
        assert_eq!((g.key, g.mask), (hyp(0b001), hyp(0b111)));
        assert_eq!(b.lookup(&hyp(0b001), 0.0).action, Some(Action::Allow));
        assert_eq!(FastPathBackend::mask_count(&b), 1);
        assert_eq!(b.evict_where(&mut |e| e.action == Action::Allow), 1);
        assert_eq!(FastPathBackend::entry_count(&b), 0);
    }

    #[test]
    fn baseline_backends_classify_like_the_table() {
        let table = FlowTable::fig1_hyp();
        for mut b in backends() {
            for h in 0..8u128 {
                let expect = table.lookup(&hyp(h)).map(|m| m.action);
                assert_eq!(
                    b.lookup(&hyp(h), 0.0).action,
                    expect,
                    "{} on {h:03b}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn baseline_lifecycle_hooks_are_inert() {
        for mut b in backends() {
            install(b.as_mut(), 0b100).unwrap();
            assert_eq!(b.mask_count(), 0);
            assert_eq!(b.entry_count(), 0);
            assert_eq!(b.expire_idle(100.0, 10.0), 0);
            assert_eq!(b.evict_where(&mut |_| true), 0);
            assert!(b.mask_usage().is_empty());
            assert_eq!(b.evict_mask(&hyp(0b100)), 0);
            assert!(b.find_conflict(&hyp(0), &hyp(0b111)).is_none());
        }
    }

    #[test]
    fn unbuilt_baseline_misses_until_table_install() {
        let schema = FieldSchema::hyp();
        let mut b = LinearSearchBackend::fresh(&schema);
        assert!(b.lookup(&hyp(0b001), 0.0).action.is_none());
        b.install_table(&FlowTable::fig1_hyp());
        assert_eq!(b.lookup(&hyp(0b001), 0.0).action, Some(Action::Allow));
    }

    #[test]
    fn baseline_work_is_traffic_independent() {
        let table = FlowTable::fig1_hyp();
        let mut b: TrieBackend = for_table(&table);
        let w0 = b.lookup(&hyp(0b000), 0.0).masks_scanned;
        for h in 0..8u128 {
            for _ in 0..10 {
                b.lookup(&hyp(h), 0.0);
            }
        }
        assert_eq!(b.lookup(&hyp(0b000), 1.0).masks_scanned, w0);
    }
}
