//! Compile-time `Send`/`Sync` audit for everything the `ShardExecutor` hands to
//! worker threads.
//!
//! `PersistentPoolExecutor` moves each shard's `&mut Datapath` — megaflow cache, §7
//! classifier, slow path, stats — across a thread boundary, and the experiment runner
//! (datapath + mitigation stack) must be free to live on a worker thread too. These
//! assertions pin that down at `cargo test` time: a future `Rc`/`RefCell`/raw-pointer
//! regression in any fast path or mitigation fails here, at the type level, instead of
//! surfacing as an inscrutable executor-integration error (or not at all).

use tse::prelude::*;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn fast_path_backends_are_send() {
    // The megaflow cache and the three §7 classifiers a datapath may hold.
    assert_send::<TupleSpace>();
    assert_send::<LinearSearch>();
    assert_send::<HierarchicalTrie>();
    assert_send::<HyperCuts>();
}

#[test]
fn datapaths_are_send_for_every_backend() {
    // One type whatever its `FastPathKind`.
    assert_send::<Datapath>();
    assert_send::<ShardedDatapath>();
}

#[test]
fn mitigation_machinery_is_send() {
    assert_send::<MitigationStack>();
    assert_send::<MfcGuard>();
    assert_send::<GuardMitigation>();
    assert_send::<RssKeyRandomizer>();
    assert_send::<UpcallLimiter>();
    assert_send::<MaskCap>();
}

#[test]
fn runner_and_reports_are_send() {
    assert_send::<ExperimentRunner>();
    assert_send::<Timeline>();
    assert_send::<TimelineSample>();
    assert_send::<ShardedBatchReport>();
    assert_send::<BatchReport>();
}

#[test]
fn executors_are_send_and_sync() {
    // Executors are shared by reference with every worker they spawn.
    assert_send::<SequentialExecutor>();
    assert_sync::<SequentialExecutor>();
    assert_send::<PersistentPoolExecutor>();
    assert_sync::<PersistentPoolExecutor>();
    assert_send::<ChaosExecutor>();
    assert_sync::<ChaosExecutor>();
    assert_send::<Box<dyn ShardExecutor>>();
    assert_sync::<Box<dyn ShardExecutor>>();
}

#[test]
fn traffic_and_partition_payloads_are_send() {
    // A traffic mix and a partition computed ahead of dispatch may be built on one
    // thread and consumed on another; both must stay `Send` (that is what the
    // `TrafficSource: Send` supertrait buys).
    assert_send::<TrafficMix<'_>>();
    assert_send::<Box<dyn TrafficSource>>();
    assert_send::<Prepartition>();
    assert_send::<SteeringView>();
}
