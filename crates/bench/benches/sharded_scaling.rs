//! Multi-shard scaling of the sharded datapath: the batched SipDp explosion pushed
//! through `ShardedDatapath::process_timed_batch` at 1–8 shards, once per execution
//! model.
//!
//! Shards are independent by construction, so the per-shard fan-out is embarrassingly
//! parallel: with a pooled executor every shard's sub-batch (upcalls, megaflow
//! installs, increasingly expensive mask scans) runs on its own worker thread, while
//! `SequentialExecutor` walks the same sub-batches on one core. The
//! `sharded_scaling/{sequential,persistent}/N` pairs therefore measure exactly the
//! speedup the pooled execution model buys on this machine: `persistent` feeds
//! long-lived parked workers (spawn cost amortised to zero — the PMD-thread model)
//! through the same allocation-free steering pre-partition pass. On a single-core
//! container the pooled rows land on the sequential ones (hand-off overhead only —
//! nothing can parallelise there); on an N-core PMD box they approach
//! min(shards, cores)×.
//!
//! The outputs are executor-independent (asserted by `tests/executor_parity.rs`), so
//! both rows of a pair do identical algorithmic work.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use tse_attack::scenarios::Scenario;
use tse_classifier::flowtable::FlowTable;
use tse_packet::fields::{FieldSchema, Key};
use tse_switch::datapath::Datapath;
use tse_switch::exec::{PersistentPoolExecutor, SequentialExecutor, ShardExecutor};
use tse_switch::pmd::{ShardedDatapath, Steering};

/// The batched SipDp workload: the co-located explosion keys (source-IP × dest-port
/// bit inversions, naturally spread over the RSS hash space) replayed as one long
/// timed batch.
fn sipdp_batch(schema: &FieldSchema, events: usize) -> Vec<(Key, usize, f64)> {
    Scenario::SipDp
        .key_iter(schema, &schema.zero_value())
        .cycle()
        .take(events)
        .enumerate()
        .map(|(i, k)| (k, 64usize, i as f64 * 1e-4))
        .collect()
}

fn bench_sharded_scaling(c: &mut Criterion) {
    let schema = FieldSchema::ovs_ipv4();
    let table = Scenario::SipDp.flow_table(&schema);
    let batch = sipdp_batch(&schema, 16_384);

    let mut group = c.benchmark_group("sharded_scaling");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let run = |executor: Box<dyn ShardExecutor>, b: &mut criterion::Bencher| {
            b.iter_batched(
                || {
                    ShardedDatapath::from_builder(
                        Datapath::builder(FlowTable::clone(&table)),
                        shards,
                        Steering::Rss,
                    )
                    .with_executor(executor.clone())
                },
                |mut dp| dp.process_timed_batch(&batch),
                BatchSize::LargeInput,
            );
        };
        group.bench_with_input(BenchmarkId::new("sequential", shards), &shards, |b, _| {
            run(Box::new(SequentialExecutor), b)
        });
        // One pool reused across every iteration — exactly how a long-lived PMD
        // deployment would run it, so the measured hand-off cost excludes spawning.
        let pool = PersistentPoolExecutor::new(shards);
        group.bench_with_input(BenchmarkId::new("persistent", shards), &shards, |b, _| {
            run(Box::new(pool.clone()), b)
        });
    }
    group.finish();
}

criterion_group!(sharded_scaling, bench_sharded_scaling);
criterion_main!(sharded_scaling);
