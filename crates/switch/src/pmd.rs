//! The sharded multi-PMD datapath: N per-shard [`Datapath`] instances behind an
//! RSS-style steering policy.
//!
//! In the paper's OVS-DPDK testbed the victim switch is not one cache but one cache
//! **per PMD thread**: the NIC's RSS hash spreads flows across RX queues, each polled
//! by a PMD that owns a *private* megaflow cache and a private CPU budget. The tuple
//! space explosion therefore has a *shard-local blast radius* — an attack whose
//! 5-tuples all hash to one queue saturates that PMD's cache and core while a victim
//! steered to another PMD keeps its fast path and its cycles; an attack sprayed across
//! the hash space poisons every PMD at once.
//!
//! [`ShardedDatapath`] reproduces exactly that: a [`Steering`] policy maps every
//! header key to one shard (a total, stable partition of the flow space), batched
//! entry points fan events out per shard in one pass, and statistics/mask counts are
//! reported both per shard and aggregated via [`DatapathStats::merge`]. A 1-shard
//! `ShardedDatapath` is bit-for-bit identical to the plain [`Datapath`] (asserted by
//! the golden-parity suite), so everything built on the monolithic switch carries
//! over unchanged.
//!
//! *How* the per-shard fan-out executes is pluggable: every batched entry point runs
//! through a [`ShardExecutor`] ([`SequentialExecutor`] by default; swap in a
//! [`PersistentPoolExecutor`](crate::exec::PersistentPoolExecutor) via
//! [`ShardedDatapath::with_executor`] for true thread-parallel shard execution).
//! Results are always collected in shard order, so executor choice never changes a
//! single bit of the outputs (`tests/executor_parity.rs`).
//!
//! There is one batch dispatch, and it is run-aware: a timed batch, the list of
//! consecutive *runs* it is cut into (a sample interval's per-source runs, say) and a
//! [`Prepartition`] of the whole batch cross the executor **once**; shard `i` walks its
//! own index list run by run, classifying each run's share as one batch and folding the
//! run's [`BatchReport`] into a caller-owned per-shard accumulator
//! ([`ShardedDatapath::process_timed_runs`]). [`ShardedDatapath::process_timed_batch`]
//! is its one-run case over the datapath's own partition buffers;
//! [`ShardedDatapath::process_timed_batch_prepartitioned`] the one-run case over a
//! partition the caller computed ahead of dispatch.

use tse_classifier::flowtable::FlowTable;
use tse_packet::fields::{FieldSchema, Key};
use tse_packet::rss::{self, RssHasher};
use tse_packet::wire::WireFault;

use crate::datapath::{BatchReport, Datapath, DatapathBuilder, ProcessOutcome};
use crate::exec::{SequentialExecutor, ShardExecutor, ShardExecutorExt};
use crate::stats::DatapathStats;

/// How packets are distributed over the shards — the model of the NIC's RX-queue
/// assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steering {
    /// Hash the 5-tuple ([`rss::rss_fields`]) — hardware RSS, the paper's testbed
    /// configuration. Noise fields (TTL) do not influence placement.
    Rss,
    /// Steer by source address only: all traffic of one tenant lands on one shard
    /// (a queue-per-tenant isolation policy some deployments use).
    PerTenant,
    /// Send everything to one fixed shard (degenerate policy; also how a 1-shard
    /// datapath behaves under any policy).
    Pinned(usize),
}

impl Steering {
    /// The field indices this policy hashes for `schema` (empty for [`Steering::Pinned`]).
    pub fn steer_fields(&self, schema: &FieldSchema) -> Vec<usize> {
        match self {
            Steering::Rss => rss::rss_fields(schema),
            Steering::PerTenant => {
                let src = schema
                    .field_index("ip_src")
                    .or_else(|| schema.field_index("ip6_src"))
                    .unwrap_or(0);
                vec![src]
            }
            Steering::Pinned(_) => Vec::new(),
        }
    }
}

/// A [`ShardedDatapath`]'s steering function — policy, hashed fields, shard count and
/// RSS hash key — as a value detached from the shards, so a caller can partition a
/// batch ahead of dispatch ([`Prepartition::compute`]) without borrowing the datapath.
///
/// A view obtained from [`ShardedDatapath::steering_view`] answers
/// [`SteeringView::shard_of_key`] exactly as the datapath does at that moment. It does
/// *not* track later [`ShardedDatapath::rekey`] calls — consumers detect that through
/// the hash key recorded in a [`Prepartition`] (see
/// [`ShardedDatapath::process_timed_batch_prepartitioned`]).
#[derive(Debug, Clone)]
pub struct SteeringView {
    steering: Steering,
    /// Field indices the steering policy hashes (cached from the schema at build; what
    /// a rekey recompiles the hasher from).
    steer_fields: Vec<usize>,
    n_shards: usize,
    /// The RSS hash key in effect; [`rss::DEFAULT_HASH_KEY`] until rotated.
    hash_key: u64,
    /// The steering hash compiled over `steer_fields`, `n_shards` and `hash_key`.
    hasher: RssHasher,
}

impl SteeringView {
    /// The steering function of `n_shards` shards over `schema` under `steering`, seeded
    /// with [`rss::DEFAULT_HASH_KEY`] — what a freshly built [`ShardedDatapath`] steers
    /// by, and how anything outside a datapath (victim placement, tests) asks the same
    /// question.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero or a [`Steering::Pinned`] target is out of range.
    pub fn new(steering: Steering, schema: &FieldSchema, n_shards: usize) -> Self {
        if let Steering::Pinned(i) = steering {
            assert!(i < n_shards, "pinned shard {i} out of range 0..{n_shards}");
        }
        let steer_fields = steering.steer_fields(schema);
        SteeringView {
            hasher: RssHasher::new(&steer_fields, n_shards, rss::DEFAULT_HASH_KEY),
            steer_fields,
            n_shards,
            hash_key: rss::DEFAULT_HASH_KEY,
            steering,
        }
    }

    /// Steer under `hash_key` from now on: the hasher is recompiled once, here, so the
    /// per-key path never sees the key's bytes again.
    fn rekey(&mut self, hash_key: u64) {
        self.hash_key = hash_key;
        self.hasher = RssHasher::new(&self.steer_fields, self.n_shards, hash_key);
    }

    /// The shard `key` steers to under this view — a pure function of the key: every
    /// key maps to exactly one shard and repeated calls always agree.
    pub fn shard_of_key(&self, key: &Key) -> usize {
        if self.n_shards == 1 {
            return 0;
        }
        match self.steering {
            Steering::Pinned(i) => i,
            _ => self.hasher.shard_of(key),
        }
    }

    /// Number of shards in the view.
    pub fn shard_count(&self) -> usize {
        self.n_shards
    }

    /// The RSS hash key the view steers under.
    pub fn hash_key(&self) -> u64 {
        self.hash_key
    }
}

/// A shard partition of one timed batch computed *ahead* of dispatch against a
/// [`SteeringView`]; at dispatch the partition is either consumed as-is or
/// transparently recomputed if the steering changed in between (e.g. a
/// mitigation-driven rekey).
///
/// A partition is tied to the batch it was computed for: call [`Prepartition::clear`]
/// (or [`Prepartition::compute`] again) before reusing one for another batch.
///
/// The index lists keep their capacity across batches (`Default` starts empty), so the
/// steady-state pass performs zero heap allocations and zero `Key` clones (asserted by
/// `tests/alloc_audit.rs`).
#[derive(Debug, Clone, Default)]
pub struct Prepartition {
    /// `lists[s]`: the indices of the events steered to shard `s`, ascending — the
    /// order the PMD's RX queue would deliver them.
    lists: Vec<Vec<u32>>,
    hash_key: u64,
    n_events: usize,
    valid: bool,
}

impl Prepartition {
    /// Partition `batch` against the steering `view`: one pass, every event's index
    /// appended to the list of the shard its key steers to.
    pub fn compute(&mut self, view: &SteeringView, batch: &[(Key, usize, f64)]) {
        self.lists.resize_with(view.n_shards, Vec::new);
        self.lists.iter_mut().for_each(Vec::clear);
        for (e, (key, ..)) in batch.iter().enumerate() {
            self.lists[view.shard_of_key(key)].push(e as u32);
        }
        self.hash_key = view.hash_key;
        self.n_events = batch.len();
        self.valid = true;
    }

    /// Invalidate the partition (the next consumer recomputes). Buffers are kept.
    pub fn clear(&mut self) {
        self.valid = false;
    }

    /// Recompute against `view` unless the partition already describes a batch of this
    /// length under the same shard count and hash key.
    ///
    /// Length, shard count and hash key cannot tell two same-length batches apart:
    /// debug builds therefore re-steer every event of a partition that looks current
    /// and panic if it was computed for a different batch.
    fn ensure_current(&mut self, view: &SteeringView, batch: &[(Key, usize, f64)]) {
        let looks_current = self.valid
            && self.lists.len() == view.n_shards
            && self.hash_key == view.hash_key
            && self.n_events == batch.len();
        if !looks_current {
            return self.compute(view, batch);
        }
        debug_assert!(
            self.lists.iter().enumerate().all(|(shard, list)| {
                let steers_here = |&e: &u32| view.shard_of_key(&batch[e as usize].0) == shard;
                list.iter().all(steers_here)
            }),
            "Prepartition reused for a different batch without clear()"
        );
    }
}

/// Per-shard result of one sharded batch dispatch.
///
/// `per_shard[s]` is the [`BatchReport`] of shard `s`'s sub-batch (zero counters for
/// shards that received no events); [`ShardedBatchReport::aggregate`] folds them into
/// one report equivalent to a monolithic run's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardedBatchReport {
    /// One report per shard, in shard order.
    pub per_shard: Vec<BatchReport>,
}

impl ShardedBatchReport {
    /// Fold the per-shard reports into one (sums, except `max_masks_scanned` which is
    /// the maximum over shards).
    pub fn aggregate(&self) -> BatchReport {
        let mut total = BatchReport::default();
        // Exhaustive destructuring: a field added to BatchReport fails to compile here
        // instead of being silently dropped from the aggregate.
        for r in &self.per_shard {
            let BatchReport {
                processed,
                allowed,
                denied,
                fastpath_hits,
                upcalls,
                total_cost,
                max_masks_scanned,
            } = r;
            total.processed += processed;
            total.allowed += allowed;
            total.denied += denied;
            total.fastpath_hits += fastpath_hits;
            total.upcalls += upcalls;
            total.total_cost += total_cost;
            total.max_masks_scanned = total.max_masks_scanned.max(*max_masks_scanned);
        }
        total
    }
}

/// N per-shard datapaths behind a [`Steering`] policy — the multi-PMD form of
/// [`Datapath`]. Every shard runs an identical configuration over an identical flow
/// table, but owns private megaflow
/// state, private statistics and (in the experiment runner) a private CPU budget.
#[derive(Debug, Clone)]
pub struct ShardedDatapath {
    shards: Vec<Datapath>,
    /// The steering function in effect ([`ShardedDatapath::rekey`] rotates its hash
    /// key).
    steer: SteeringView,
    /// The execution model driving the per-shard fan-out (sequential by default).
    executor: Box<dyn ShardExecutor>,
    /// The partition buffers of [`ShardedDatapath::process_timed_batch`] (not logical
    /// state: recomputed per batch, kept only for their capacity).
    prep: Prepartition,
}

impl ShardedDatapath {
    /// `n_shards` TSS datapaths over `table` with default configuration behind `steering`
    /// — shorthand for `ShardedDatapath::from_builder(Datapath::builder(table), ..)`.
    pub fn new(table: FlowTable, n_shards: usize, steering: Steering) -> Self {
        ShardedDatapath::from_builder(Datapath::builder(table), n_shards, steering)
    }

    /// Wrap an existing datapath as a single shard. This is the compatibility form:
    /// every entry point behaves bit-for-bit like the wrapped [`Datapath`].
    pub fn single(datapath: Datapath) -> Self {
        Self::from_shards(vec![datapath], Steering::Rss)
    }

    fn from_shards(shards: Vec<Datapath>, steering: Steering) -> Self {
        ShardedDatapath {
            steer: SteeringView::new(steering, shards[0].table().schema(), shards.len()),
            executor: Box::new(SequentialExecutor),
            prep: Prepartition::default(),
            shards,
        }
    }

    /// Build `n_shards` identical datapaths from one builder (each shard gets its own
    /// megaflow cache) behind `steering`. The last shard takes the builder itself, so
    /// `n_shards - 1` copies of the flow table are made, not `n_shards`.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero or a [`Steering::Pinned`] target is out of range.
    pub fn from_builder(builder: DatapathBuilder, n_shards: usize, steering: Steering) -> Self {
        assert!(n_shards > 0, "shard count must be positive");
        let mut shards: Vec<_> = (1..n_shards).map(|_| builder.clone().build()).collect();
        shards.push(builder.build());
        Self::from_shards(shards, steering)
    }

    /// Replace the shard-execution model (builder form). The default is
    /// [`SequentialExecutor`]; a
    /// [`PersistentPoolExecutor`](crate::exec::PersistentPoolExecutor) runs the
    /// per-shard fan-out on long-lived worker threads with bit-for-bit identical
    /// results.
    pub fn with_executor(mut self, executor: impl ShardExecutor + 'static) -> Self {
        self.set_executor(executor);
        self
    }

    /// Replace the shard-execution model in place.
    pub fn set_executor(&mut self, executor: impl ShardExecutor + 'static) {
        self.executor = Box::new(executor);
    }

    /// The execution model currently driving the per-shard fan-out.
    pub fn executor(&self) -> &dyn ShardExecutor {
        &*self.executor
    }

    /// Run `f(i, &mut shard_i)` once per shard through the configured executor and
    /// return the results in shard order — the fan-out primitive behind every batched
    /// entry point, also available to external per-shard machinery (MFCGuard sweeps
    /// run through it).
    pub fn for_each_shard<R: Send>(
        &mut self,
        f: impl Fn(usize, &mut Datapath) -> R + Sync,
    ) -> Vec<R> {
        self.executor.for_each_shard(&mut self.shards, f)
    }

    /// Like [`ShardedDatapath::for_each_shard`], but additionally hands each job
    /// exclusive mutable access to its slot of `per_shard` — for callers that keep
    /// per-shard state outside the datapath (e.g. one independently configured
    /// MFCGuard per shard). `per_shard` must have exactly one element per shard.
    pub fn for_each_shard_with<S: Send, R: Send>(
        &mut self,
        per_shard: &mut [S],
        f: impl Fn(usize, &mut Datapath, &mut S) -> R + Sync,
    ) -> Vec<R> {
        assert_eq!(
            per_shard.len(),
            self.shards.len(),
            "one external state slot per shard"
        );
        let mut pairs: Vec<(&mut Datapath, &mut S)> =
            self.shards.iter_mut().zip(per_shard.iter_mut()).collect();
        self.executor
            .for_each_shard(&mut pairs, |i, (shard, state)| f(i, shard, state))
    }

    /// Number of shards (PMD threads).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The RSS hash key currently seeding the steering hash
    /// ([`rss::DEFAULT_HASH_KEY`] until [`ShardedDatapath::rekey`] is called).
    pub fn hash_key(&self) -> u64 {
        self.steer.hash_key
    }

    /// Re-seed the steering hash — the RSS hash-key *rotation* countermeasure: an
    /// attacker who crafted her 5-tuples to land on a chosen shard under the old key
    /// finds them scattered pseudo-randomly under the new one, while benign flows keep
    /// a stable, total partition (each flow simply moves to its new home queue).
    ///
    /// Only the placement function changes: megaflow entries already cached on a shard
    /// are left alone, exactly as a real NIC rekey would leave each PMD's cache intact.
    /// Entries stranded on a shard their flow no longer steers to simply stop being
    /// refreshed and age out through the normal idle timeout. [`Steering::Pinned`]
    /// placement ignores the key entirely.
    pub fn rekey(&mut self, hash_key: u64) {
        self.steer.rekey(hash_key);
    }

    /// Shard `i` (read-only).
    pub fn shard(&self, i: usize) -> &Datapath {
        &self.shards[i]
    }

    /// Mutable access to shard `i` (the per-shard interface MFCGuard sweeps use).
    pub fn shard_mut(&mut self, i: usize) -> &mut Datapath {
        &mut self.shards[i]
    }

    /// The shard `key` is steered to.
    pub fn shard_of_key(&self, key: &Key) -> usize {
        self.steer.shard_of_key(key)
    }

    /// A copy of the steering function (policy, hashed fields, shard count, current
    /// hash key) for computing [`Prepartition`]s ahead of dispatch. Answers
    /// [`SteeringView::shard_of_key`] exactly like
    /// [`ShardedDatapath::shard_of_key`] does at the time of the call.
    pub fn steering_view(&self) -> SteeringView {
        self.steer.clone()
    }

    /// The installed flow table (identical on every shard).
    pub fn table(&self) -> &FlowTable {
        self.shards[0].table()
    }

    /// Replace the flow table on every shard (OVS revalidation semantics per shard).
    /// Runs through the executor: a §7 classifier is rebuilt once per shard, which
    /// parallelises like any other per-shard work.
    pub fn install_table(&mut self, table: FlowTable) {
        self.for_each_shard(|_, shard| shard.install_table(table.clone()));
    }

    /// Total megaflow masks across all shards.
    pub fn mask_count(&self) -> usize {
        self.shards.iter().map(Datapath::mask_count).sum()
    }

    /// Total megaflow entries across all shards.
    pub fn entry_count(&self) -> usize {
        self.shards.iter().map(Datapath::entry_count).sum()
    }

    /// Megaflow masks per shard, in shard order — the shard-local blast radius metric.
    pub fn shard_mask_counts(&self) -> Vec<usize> {
        self.shards.iter().map(Datapath::mask_count).collect()
    }

    /// Megaflow entries per shard, in shard order.
    pub fn shard_entry_counts(&self) -> Vec<usize> {
        self.shards.iter().map(Datapath::entry_count).collect()
    }

    /// Aggregate statistics: every shard's counters folded with [`DatapathStats::merge`].
    pub fn stats(&self) -> DatapathStats {
        let mut total = DatapathStats::default();
        for shard in &self.shards {
            total.merge(shard.stats());
        }
        total
    }

    /// Reset the statistics of every shard.
    pub fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_stats();
        }
    }

    /// Run the idle-expiry sweep on every shard if its revalidation interval elapsed.
    /// Idle shards expire on the same clock as busy ones — each PMD's revalidator runs
    /// regardless of traffic. Sweeps fan out through the executor (each shard's
    /// revalidator is its own PMD's work).
    pub fn maybe_expire(&mut self, now: f64) {
        self.for_each_shard(|_, shard| shard.maybe_expire(now));
    }

    /// Process one pre-extracted header key on the shard it is steered to.
    pub fn process_key(&mut self, header: &Key, bytes: usize, now: f64) -> ProcessOutcome {
        let shard = self.shard_of_key(header);
        self.shards[shard].process_key(header, bytes, now)
    }

    /// Fan a timestamped event batch out to the shards in one pass: every shard
    /// classifies its share as one batch.
    ///
    /// Events keep their relative order within each shard (the order the PMD's RX
    /// queue would deliver them), and each shard's expiry/entry liveness evolves at the
    /// events' own timestamps. With one shard this is exactly the monolithic
    /// [`Datapath::process_timed_batch`].
    ///
    /// This is the one-run case of [`ShardedDatapath::process_timed_runs`]: each
    /// shard's [`BatchReport`] (zero counters if it drew no events) lands in its slot
    /// of the returned report, so the report — like every other output — is
    /// executor-independent.
    pub fn process_timed_batch(&mut self, batch: &[(Key, usize, f64)]) -> ShardedBatchReport {
        let mut per_shard = vec![BatchReport::default(); self.shards.len()];
        self.process_timed_runs(batch, &[(0, batch.len())], &mut per_shard, keep_report);
        ShardedBatchReport { per_shard }
    }

    /// Like [`ShardedDatapath::process_timed_batch`], but consuming a partition
    /// computed ahead of dispatch against a [`SteeringView`].
    ///
    /// If `prep` no longer matches this datapath (never computed, cleared, computed
    /// under a different hash key — a rekey landed in between — or for a different
    /// batch length or shard count), it is transparently recomputed here against the
    /// current steering before dispatch, so results are **always** identical to
    /// `process_timed_batch` on the same batch; staleness can only cost the
    /// pre-computation, never correctness.
    pub fn process_timed_batch_prepartitioned(
        &mut self,
        batch: &[(Key, usize, f64)],
        prep: &mut Prepartition,
    ) -> ShardedBatchReport {
        let mut per_shard = vec![BatchReport::default(); self.shards.len()];
        let whole = [(0, batch.len())];
        self.dispatch(batch, &whole, prep, &mut per_shard, keep_report);
        ShardedBatchReport { per_shard }
    }

    /// Fan a timestamped event batch that is cut into consecutive *runs* out to the
    /// shards in **one** executor round trip, keeping the runs apart: `runs` lists them
    /// as `(tag, end index)` — a run starts where the previous one ends (the first at
    /// 0) and the last ends at `batch.len()`; the tag is the caller's (the traffic
    /// source a run came from, say) and is only handed back.
    ///
    /// The whole batch is partitioned once (an allocation-free pass into the
    /// datapath's own [`Prepartition`] buffers — no per-shard event `Vec`s, no
    /// [`Key`] clones). Shard `i` then walks its index list run by run and, for every
    /// run it holds events of, classifies that share as one batch and calls
    /// `fold(&mut per_shard[i], tag, &report)` with the share's [`BatchReport`]. A shard
    /// therefore makes exactly the calls — same events, same batch boundaries, so the
    /// same `f64` sums to the bit — that a loop of
    /// [`ShardedDatapath::process_timed_batch`] over the runs would make on it
    /// (`tests/executor_parity.rs`), and `fold` sees a shard's reports in run order.
    /// Nothing is returned: what the caller wants to know it accumulates in
    /// `per_shard`, whose size is the shard count's, not the run count's.
    ///
    /// # Panics
    /// Panics if `per_shard` does not have exactly one element per shard, if the run
    /// ends decrease, or if the last run does not end at `batch.len()` (an empty run
    /// list describes an empty batch only).
    pub fn process_timed_runs<S: Send>(
        &mut self,
        batch: &[(Key, usize, f64)],
        runs: &[(usize, usize)],
        per_shard: &mut [S],
        fold: impl Fn(&mut S, usize, &BatchReport) + Sync,
    ) {
        // Lend the datapath's own partition buffers to the dispatch.
        let mut prep = std::mem::take(&mut self.prep);
        prep.clear();
        self.dispatch(batch, runs, &mut prep, per_shard, fold);
        self.prep = prep;
    }

    /// The one batch dispatch: bring `prep` up to date with the steering, then cross
    /// the executor once, shard `i` classifying run by run the events its index list
    /// names.
    fn dispatch<S: Send>(
        &mut self,
        batch: &[(Key, usize, f64)],
        runs: &[(usize, usize)],
        prep: &mut Prepartition,
        per_shard: &mut [S],
        fold: impl Fn(&mut S, usize, &BatchReport) + Sync,
    ) {
        let covered = runs.iter().fold(0, |start, &(_, end)| {
            assert!(start <= end, "run ends decrease: {start} then {end}");
            end
        });
        assert_eq!(covered, batch.len(), "the runs must cover the batch");
        prep.ensure_current(&self.steer, batch);
        self.for_each_shard_with(per_shard, |i, shard, acc| {
            let mut rest = &prep.lists[i][..];
            for &(tag, end) in runs {
                let held = rest.iter().take_while(|&&e| (e as usize) < end).count();
                if held > 0 {
                    let (share, later) = rest.split_at(held);
                    fold(acc, tag, &shard.process_timed_batch_indexed(batch, share));
                    rest = later;
                }
            }
        });
    }

    /// Charge one unclassifiable frame to shard 0 — the entry point the event-driven
    /// runner uses for `Malformed` traffic events (frames a wire-level source could
    /// not turn into a key). Same semantics as [`Datapath::note_wire_fault`] on the
    /// ingestion shard. Such a frame has no key to steer by, so it lands where a NIC
    /// delivers it, on the default RX queue: it never spreads cache state or cost across
    /// shards, and the choice is stable across runs and executors.
    pub fn note_wire_fault(&mut self, fault: WireFault, bytes: usize, now: f64) -> ProcessOutcome {
        self.shards[0].note_wire_fault(fault, bytes, now)
    }
}

/// The fold of the one-run dispatches: the run's report *is* the shard's.
fn keep_report(slot: &mut BatchReport, _tag: usize, report: &BatchReport) {
    *slot = *report;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PathTaken;
    use tse_classifier::rule::Action;

    fn fig6_table(schema: &FieldSchema) -> FlowTable {
        let tp_dst = schema.field_index("tp_dst").unwrap();
        FlowTable::whitelist_default_deny(schema, &[(tp_dst, 80)])
    }

    /// A spread of distinct keys (varying ports/addresses).
    fn key_spread(schema: &FieldSchema, n: usize) -> Vec<Key> {
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let ip_src = schema.field_index("ip_src").unwrap();
        (0..n)
            .map(|i| {
                let mut k = schema.zero_value();
                k.set(tp_dst, (i % 400) as u128);
                k.set(ip_src, 0x0a00_0000 + (i / 7) as u128);
                k
            })
            .collect()
    }

    #[test]
    fn steering_is_a_total_partition() {
        let schema = FieldSchema::ovs_ipv4();
        for steering in [Steering::Rss, Steering::PerTenant, Steering::Pinned(2)] {
            let view = SteeringView::new(steering, &schema, 4);
            for key in key_spread(&schema, 200) {
                let s = view.shard_of_key(&key);
                assert!(s < 4);
                assert_eq!(s, view.shard_of_key(&key));
            }
        }
    }

    #[test]
    fn per_tenant_groups_by_source_address() {
        let schema = FieldSchema::ovs_ipv4();
        let ip_src = schema.field_index("ip_src").unwrap();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let mut a = schema.zero_value();
        a.set(ip_src, 0x0a000001);
        a.set(tp_dst, 80);
        let mut b = a.clone();
        b.set(tp_dst, 443);
        let view = SteeringView::new(Steering::PerTenant, &schema, 8);
        assert_eq!(
            view.shard_of_key(&a),
            view.shard_of_key(&b),
            "same tenant, different ports, same shard"
        );
    }

    #[test]
    fn one_shard_matches_the_plain_datapath_bitwise() {
        let schema = FieldSchema::ovs_ipv4();
        let table = fig6_table(&schema);
        let batch: Vec<(Key, usize, f64)> = key_spread(&schema, 120)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, 64usize, i as f64 * 0.2))
            .collect();

        let mut mono = Datapath::new(table.clone());
        let mono_report = mono.process_timed_batch(&batch);
        let mut sharded = ShardedDatapath::new(table, 1, Steering::Rss);
        let report = sharded.process_timed_batch(&batch);

        assert_eq!(report.per_shard.len(), 1);
        assert_eq!(report.aggregate(), mono_report);
        assert_eq!(sharded.stats(), *mono.stats());
        assert_eq!(sharded.mask_count(), mono.mask_count());
        assert_eq!(sharded.entry_count(), mono.entry_count());
        assert_eq!(
            sharded.stats().busy_seconds.to_bits(),
            mono.stats().busy_seconds.to_bits(),
            "costs must match to the f64 bit"
        );
    }

    #[test]
    fn sharded_verdicts_match_the_flow_table() {
        // Sharding must never change a verdict: each key still classifies against the
        // same table, just on its own shard.
        let schema = FieldSchema::ovs_ipv4();
        let table = fig6_table(&schema);
        let mut sharded = ShardedDatapath::new(table.clone(), 4, Steering::Rss);
        for (i, key) in key_spread(&schema, 200).iter().enumerate() {
            let out = sharded.process_key(key, 64, i as f64 * 1e-3);
            let expect = table.lookup(key).unwrap().action;
            assert_eq!(out.action, expect);
        }
        // Aggregate stats account for every packet.
        assert_eq!(sharded.stats().packets(), 200);
        let per_shard: u64 = (0..4).map(|i| sharded.shard(i).stats().packets()).sum();
        assert_eq!(per_shard, 200);
    }

    #[test]
    fn merged_shard_stats_equal_the_aggregate() {
        let schema = FieldSchema::ovs_ipv4();
        let mut sharded = ShardedDatapath::new(fig6_table(&schema), 3, Steering::Rss);
        let batch: Vec<(Key, usize, f64)> = key_spread(&schema, 150)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, 64usize, i as f64 * 0.01))
            .collect();
        sharded.process_timed_batch(&batch);
        let mut merged = DatapathStats::default();
        for i in 0..sharded.shard_count() {
            merged.merge(sharded.shard(i).stats());
        }
        assert_eq!(merged, sharded.stats());
        assert_eq!(merged.packets(), 150);
    }

    #[test]
    fn pinned_steering_loads_one_shard_only() {
        let schema = FieldSchema::ovs_ipv4();
        let mut sharded = ShardedDatapath::new(fig6_table(&schema), 4, Steering::Pinned(3));
        for (i, key) in key_spread(&schema, 60).iter().enumerate() {
            sharded.process_key(key, 64, i as f64 * 1e-3);
        }
        assert_eq!(sharded.shard(3).stats().packets(), 60);
        for i in 0..3 {
            assert_eq!(sharded.shard(i).stats().packets(), 0);
            assert_eq!(sharded.shard(i).mask_count(), 0);
        }
        assert!(sharded.shard(3).mask_count() > 0);
    }

    #[test]
    fn rss_spreads_attack_state_across_shards() {
        let schema = FieldSchema::ovs_ipv4();
        let mut sharded = ShardedDatapath::new(fig6_table(&schema), 4, Steering::Rss);
        for (i, key) in key_spread(&schema, 400).iter().enumerate() {
            sharded.process_key(key, 64, i as f64 * 1e-4);
        }
        let masks = sharded.shard_mask_counts();
        assert!(
            masks.iter().all(|&m| m > 0),
            "all shards touched: {masks:?}"
        );
        assert_eq!(masks.iter().sum::<usize>(), sharded.mask_count());
        assert_eq!(
            sharded.shard_entry_counts().iter().sum::<usize>(),
            sharded.entry_count()
        );
    }

    #[test]
    fn install_table_flushes_every_shard() {
        let schema = FieldSchema::ovs_ipv4();
        let table = fig6_table(&schema);
        let mut sharded = ShardedDatapath::new(table.clone(), 2, Steering::Rss);
        for (i, key) in key_spread(&schema, 50).iter().enumerate() {
            sharded.process_key(key, 64, i as f64 * 1e-3);
        }
        assert!(sharded.entry_count() > 0);
        sharded.install_table(table);
        assert_eq!(sharded.entry_count(), 0);
        assert_eq!(sharded.mask_count(), 0);
    }

    #[test]
    fn rekey_moves_flows_but_keeps_a_total_partition() {
        let schema = FieldSchema::ovs_ipv4();
        let mut sharded = ShardedDatapath::new(fig6_table(&schema), 4, Steering::Rss);
        assert_eq!(sharded.hash_key(), rss::DEFAULT_HASH_KEY);
        let keys = key_spread(&schema, 300);
        let before: Vec<usize> = keys.iter().map(|k| sharded.shard_of_key(k)).collect();
        sharded.rekey(0xdead_beef_0bad_cafe);
        assert_eq!(sharded.hash_key(), 0xdead_beef_0bad_cafe);
        let after: Vec<usize> = keys.iter().map(|k| sharded.shard_of_key(k)).collect();
        // Still a stable, total partition...
        for (k, &s) in keys.iter().zip(&after) {
            assert!(s < 4);
            assert_eq!(s, sharded.shard_of_key(k));
        }
        // ...but a large fraction of the flow space moved (~3/4 in expectation).
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert!(moved > 150, "rekey moved only {moved}/300 keys");
        // Cached state is untouched by the rotation itself.
        assert_eq!(sharded.entry_count(), 0);
        sharded.process_key(&keys[0], 64, 0.0);
        let entries = sharded.entry_count();
        sharded.rekey(7);
        assert_eq!(sharded.entry_count(), entries);
    }

    #[test]
    fn rekey_does_not_move_pinned_steering() {
        let schema = FieldSchema::ovs_ipv4();
        let mut sharded = ShardedDatapath::new(fig6_table(&schema), 4, Steering::Pinned(3));
        sharded.rekey(12345);
        for key in key_spread(&schema, 50) {
            assert_eq!(sharded.shard_of_key(&key), 3);
        }
    }

    /// Build the standard 4-shard parity fixture: a fresh datapath plus a timed batch.
    fn parity_fixture() -> (ShardedDatapath, Vec<(Key, usize, f64)>) {
        let schema = FieldSchema::ovs_ipv4();
        let sharded = ShardedDatapath::new(fig6_table(&schema), 4, Steering::Rss);
        let batch: Vec<(Key, usize, f64)> = key_spread(&schema, 240)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, 64usize, i as f64 * 1e-3))
            .collect();
        (sharded, batch)
    }

    #[test]
    fn prepartitioned_batch_matches_the_inline_partition_bitwise() {
        let (mut inline, batch) = parity_fixture();
        let (mut piped, _) = parity_fixture();

        let expect = inline.process_timed_batch(&batch);

        let mut prep = Prepartition::default();
        prep.compute(&piped.steering_view(), &batch);
        let got = piped.process_timed_batch_prepartitioned(&batch, &mut prep);

        assert_eq!(got, expect);
        assert_eq!(piped.stats(), inline.stats());
        assert_eq!(
            piped.stats().busy_seconds.to_bits(),
            inline.stats().busy_seconds.to_bits()
        );
    }

    #[test]
    fn stale_prepartition_is_transparently_recomputed() {
        // Pre-partition under the default hash key, then rekey before dispatch — what
        // a mitigation-driven rekey does to any partition computed ahead of it. The
        // stale partition must be recomputed, never consumed.
        let (mut inline, batch) = parity_fixture();
        let (mut piped, _) = parity_fixture();

        let mut prep = Prepartition::default();
        prep.compute(&piped.steering_view(), &batch);
        inline.rekey(0xfeed_f00d_dead_beef);
        piped.rekey(0xfeed_f00d_dead_beef);

        let expect = inline.process_timed_batch(&batch);
        let got = piped.process_timed_batch_prepartitioned(&batch, &mut prep);
        assert_eq!(got, expect);
        assert_eq!(piped.stats(), inline.stats());

        // A cleared partition is likewise recomputed rather than trusted — `clear()` is
        // the contract for reusing one across same-length batches.
        let other = shifted(&batch);
        let expect = |events: &[(Key, usize, f64)], shards: usize| {
            let schema = FieldSchema::ovs_ipv4();
            ShardedDatapath::new(fig6_table(&schema), shards, Steering::Rss)
                .process_timed_batch(events)
        };
        let (mut piped2, _) = parity_fixture();
        let mut prep = Prepartition::default();
        prep.compute(&piped2.steering_view(), &batch);
        prep.clear();
        let got = piped2.process_timed_batch_prepartitioned(&other, &mut prep);
        assert_eq!(got, expect(&other, 4));
        // Now current for `other`: a different batch length is recomputed...
        let (mut piped3, _) = parity_fixture();
        let got = piped3.process_timed_batch_prepartitioned(&batch[..100], &mut prep);
        assert_eq!(got, expect(&batch[..100], 4));
        // ...and so is a partition computed for another shard count.
        let schema = FieldSchema::ovs_ipv4();
        let mut wide = ShardedDatapath::new(fig6_table(&schema), 8, Steering::Rss);
        let got = wide.process_timed_batch_prepartitioned(&batch[..100], &mut prep);
        assert_eq!(got, expect(&batch[..100], 8));
    }

    /// The parity fixture's batch with every key's destination port shifted: same
    /// length, different keys, so (almost) every event steers elsewhere.
    fn shifted(batch: &[(Key, usize, f64)]) -> Vec<(Key, usize, f64)> {
        let tp_dst = FieldSchema::ovs_ipv4().field_index("tp_dst").unwrap();
        let mut other = batch.to_vec();
        for (key, ..) in &mut other {
            key.set(tp_dst, key.get(tp_dst) + 1000);
        }
        other
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Prepartition reused for a different batch")]
    fn reusing_a_prepartition_for_another_same_length_batch_is_caught() {
        let (mut dp, batch) = parity_fixture();
        let mut prep = Prepartition::default();
        prep.compute(&dp.steering_view(), &batch);
        // Same length, shard count and hash key — the partition looks current, yet it
        // would mis-steer every event of the other batch.
        dp.process_timed_batch_prepartitioned(&shifted(&batch), &mut prep);
    }

    #[test]
    #[should_panic(expected = "run ends decrease: 200 then 100")]
    fn decreasing_run_ends_are_rejected() {
        let (mut dp, batch) = parity_fixture();
        let runs = [(0, 200), (1, 100), (2, batch.len())];
        dp.process_timed_runs(&batch, &runs, &mut [(); 4], |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "the runs must cover the batch")]
    fn a_run_list_that_stops_short_of_the_batch_is_rejected() {
        let (mut dp, batch) = parity_fixture();
        dp.process_timed_runs(&batch, &[(0, 100)], &mut [(); 4], |_, _, _| {});
    }

    #[test]
    fn partition_scratch_is_a_stable_total_partition() {
        let (dp, batch) = parity_fixture();
        let view = dp.steering_view();
        let mut prep = Prepartition::default();
        prep.compute(&view, &batch);
        // Every index appears exactly once, in the list of the shard its key steers
        // to, ascending within the list.
        let mut seen = vec![false; batch.len()];
        for (shard, list) in prep.lists.iter().enumerate() {
            assert!(!list.is_empty() && list.windows(2).all(|w| w[0] < w[1]));
            for &e in list {
                assert_eq!(view.shard_of_key(&batch[e as usize].0), shard);
                assert!(!std::mem::replace(&mut seen[e as usize], true));
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Reuse with different geometry: the lists adapt, results stay exact.
        let narrow = SteeringView::new(Steering::Pinned(1), &FieldSchema::ovs_ipv4(), 2);
        prep.compute(&narrow, &batch[..4]);
        assert_eq!(prep.lists, [vec![], vec![0, 1, 2, 3]]);
        // Empty batch: all lists empty, no panic.
        prep.compute(&view, &[]);
        assert_eq!(prep.lists, vec![Vec::<u32>::new(); 4]);
    }

    #[test]
    fn wire_faults_charge_shard_zero_only() {
        let schema = FieldSchema::ovs_ipv4();
        let mut sharded = ShardedDatapath::new(fig6_table(&schema), 4, Steering::Rss);
        let out = sharded.note_wire_fault(
            WireFault::Decode(tse_packet::wire::DecodeError::BadHeader),
            60,
            0.0,
        );
        assert_eq!(out.action, Action::Deny);
        assert_eq!(out.path, PathTaken::Unclassified);
        assert_eq!(sharded.shard(0).stats().bad_header, 1);
        assert_eq!(sharded.shard(0).stats().denied, 1);
        for i in 1..4 {
            assert_eq!(sharded.shard(i).stats().packets(), 0);
        }
        // A family mismatch is permitted, mirroring the schema-mismatch path.
        let out = sharded.note_wire_fault(WireFault::FamilyMismatch, 60, 0.1);
        assert_eq!(out.action, Action::Allow);
        assert_eq!(sharded.stats().unclassified, 2);
        assert_eq!(sharded.entry_count(), 0);
    }

    #[test]
    fn expiry_runs_on_idle_shards_too() {
        let schema = FieldSchema::ovs_ipv4();
        let mut sharded = ShardedDatapath::new(fig6_table(&schema), 2, Steering::Rss);
        for (i, key) in key_spread(&schema, 50).iter().enumerate() {
            sharded.process_key(key, 64, 0.01 + i as f64 * 1e-4);
        }
        assert!(sharded.mask_count() > 0);
        sharded.maybe_expire(30.0);
        assert_eq!(
            sharded.mask_count(),
            0,
            "all shards swept on the same clock"
        );
    }
}
