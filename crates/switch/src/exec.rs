//! Pluggable shard-execution models for the multi-PMD datapath.
//!
//! In the paper's OVS-DPDK testbed every PMD runs on its own core: the per-shard work
//! of a [`ShardedDatapath`](crate::pmd::ShardedDatapath) — batch classification, idle
//! expiry, guard sweeps — is hardware-parallel by construction, because shards share
//! nothing but the (read-only) flow table. [`ShardExecutor`] is the seam that decides
//! how that per-shard fan-out actually executes:
//!
//! * [`SequentialExecutor`] walks the shards in order on the calling thread — the
//!   default, and the reference behaviour every parallel run must reproduce
//!   bit-for-bit;
//! * [`PersistentPoolExecutor`] runs the same jobs on long-lived parked worker
//!   threads fed through a shared queue — the production model, and the moral
//!   equivalent of the paper's core-pinned PMD loops: spawn cost is paid once at
//!   construction and amortised to zero over the run;
//! * [`ChaosExecutor`] runs them from scoped threads in a seeded adversarial order
//!   with injected yields — the test-only model that stresses the parity claim.
//!
//! The trait's object-safe core is [`ShardExecutor::run`]: execute a type-erased job
//! once per shard index, in any order, possibly concurrently. The typed entry point
//! everything calls is [`ShardExecutorExt::for_each_shard`], which hands each job
//! exclusive `&mut` access to its shard and collects the per-shard results **in shard
//! order** — so executor choice can never reorder stats merges, timeline columns or
//! mitigation actions. Determinism is asserted end to end by
//! `tests/executor_parity.rs`.
//!
//! ```
//! use tse_switch::exec::{PersistentPoolExecutor, SequentialExecutor, ShardExecutorExt};
//!
//! let mut counters = vec![0u64; 8];
//! let seq = SequentialExecutor.for_each_shard(&mut counters, |i, c| {
//!     *c += i as u64;
//!     *c
//! });
//! let mut counters = vec![0u64; 8];
//! let par = PersistentPoolExecutor::new(4).for_each_shard(&mut counters, |i, c| {
//!     *c += i as u64;
//!     *c
//! });
//! assert_eq!(seq, par, "results are collected in shard order on both executors");
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// How the per-shard work of a sharded datapath is executed.
///
/// Implementations receive a job and a shard count and must invoke the job **exactly
/// once** for every shard index in `0..n_shards`, in any order and from any thread;
/// [`ShardExecutorExt::for_each_shard`] (the typed wrapper every call site uses)
/// verifies the exactly-once contract at runtime and re-assembles the results in shard
/// order regardless of execution order.
///
/// The trait is object-safe so the datapath can hold a `Box<dyn ShardExecutor>` and
/// swap execution models at runtime (`with_executor(..)` on the sharded datapath and the
/// experiment runner).
pub trait ShardExecutor: std::fmt::Debug + Send + Sync {
    /// Short human-readable name for reports and bench labels.
    fn name(&self) -> &'static str;

    /// Invoke `job(i)` exactly once for every `i` in `0..n_shards`, possibly
    /// concurrently. Must not return until every job has finished; a panicking job
    /// propagates the panic to the caller.
    fn run(&self, n_shards: usize, job: &(dyn Fn(usize) + Sync));

    /// Clone into a boxed trait object (what makes `Box<dyn ShardExecutor>` — and
    /// therefore the datapaths holding one — `Clone`).
    fn clone_box(&self) -> Box<dyn ShardExecutor>;
}

impl Clone for Box<dyn ShardExecutor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl ShardExecutor for Box<dyn ShardExecutor> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn run(&self, n_shards: usize, job: &(dyn Fn(usize) + Sync)) {
        (**self).run(n_shards, job);
    }

    fn clone_box(&self) -> Box<dyn ShardExecutor> {
        (**self).clone_box()
    }
}

/// A one-shot hand-off cell: the input a shard job consumes (the exclusive `&mut` to
/// its shard) and the output it leaves behind.
///
/// The mutex is uncontended by contract (every job runs exactly once); it exists to
/// carry the input across the thread boundary without unsafe code, and it turns an
/// executor that breaks the exactly-once contract into a panic instead of aliasing.
struct HandOff<I, O>(Mutex<(Option<I>, Option<O>)>);

impl<I, O> HandOff<I, O> {
    fn new(input: I) -> Self {
        HandOff(Mutex::new((Some(input), None)))
    }

    /// Consume the input through `f` and store its output. `shard` names the job in
    /// the contract-violation panics.
    fn run(&self, shard: usize, f: impl FnOnce(I) -> O) {
        let mut cell = self.0.lock().expect("a sibling job panicked");
        let input = cell
            .0
            .take()
            .unwrap_or_else(|| panic!("executor ran shard {shard} twice"));
        cell.1 = Some(f(input));
    }

    fn finish(self, shard: usize) -> O {
        let (_, output) = self.0.into_inner().expect("a job panicked");
        output.unwrap_or_else(|| panic!("executor never ran shard {shard}"))
    }
}

/// The typed fan-out interface, blanket-implemented for every [`ShardExecutor`].
///
/// Separate from the base trait so [`ShardExecutor`] stays object-safe: `for_each_shard`
/// is generic over the shard and result types, which a `dyn` method cannot be.
pub trait ShardExecutorExt: ShardExecutor {
    /// Run `f(i, &mut shards[i])` once per shard — possibly in parallel — and return
    /// the results **in shard order**.
    ///
    /// Each job gets exclusive mutable access to its own shard (shards are
    /// independent), so parallel execution cannot observe or produce anything a
    /// sequential walk would not: for a deterministic `f` the result vector — and every
    /// per-shard mutation — is identical on every executor.
    ///
    /// # Panics
    /// Panics if the executor violates the exactly-once contract (a shard visited twice
    /// or never), or propagates the panic of a failing job.
    fn for_each_shard<S, R, F>(&self, shards: &mut [S], f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        F: Fn(usize, &mut S) -> R + Sync,
    {
        let slots: Vec<HandOff<&mut S, R>> = shards.iter_mut().map(HandOff::new).collect();
        self.run(slots.len(), &|i| slots[i].run(i, |shard| f(i, shard)));
        let slots = slots.into_iter().enumerate();
        slots.map(|(i, slot)| slot.finish(i)).collect()
    }
}

impl<E: ShardExecutor + ?Sized> ShardExecutorExt for E {}

/// Walk the shards in index order on the calling thread — the default execution model
/// and the reference every parallel executor must match bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequentialExecutor;

impl ShardExecutor for SequentialExecutor {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn run(&self, n_shards: usize, job: &(dyn Fn(usize) + Sync)) {
        for i in 0..n_shards {
            job(i);
        }
    }

    fn clone_box(&self) -> Box<dyn ShardExecutor> {
        Box::new(*self)
    }
}

/// Execute shard jobs in a seeded adversarial order with injected yields — a
/// determinism-stressing executor for parity tests.
///
/// A parity test passing under [`PersistentPoolExecutor`] might still be riding a
/// lucky, mostly in-order schedule: the claim counter hands out indices nearly
/// sequentially when per-shard work is uniform. `ChaosExecutor` removes the luck. It
/// deals the shard indices to its workers from a seeded Fisher–Yates permutation
/// (round-robin, so every worker gets shards from all over the index space) and each
/// worker yields the CPU at seeded points between jobs, coaxing the OS into a
/// different interleaving on every run — while the shard-to-worker *assignment* stays
/// reproducible from the seed. If shard state were not truly shard-exclusive, or any
/// result assembly depended on completion order, parity against
/// [`SequentialExecutor`] would break under some seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosExecutor {
    threads: usize,
    seed: u64,
}

impl ChaosExecutor {
    /// An executor driving at most `threads` workers over a permutation seeded by
    /// `seed`.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn new(threads: usize, seed: u64) -> Self {
        assert!(threads > 0, "thread count must be positive");
        ChaosExecutor { threads, seed }
    }
}

impl ShardExecutor for ChaosExecutor {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn run(&self, n_shards: usize, job: &(dyn Fn(usize) + Sync)) {
        if n_shards == 0 {
            return;
        }
        // SplitMix64: step the state by the golden-ratio increment, mix the output.
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut state = self.seed ^ (n_shards as u64).wrapping_mul(GAMMA);
        let mut draw = move || {
            state = state.wrapping_add(GAMMA);
            tse_packet::rss::splitmix64_mix(state)
        };
        let mut order: Vec<usize> = (0..n_shards).collect();
        for i in (1..n_shards).rev() {
            let j = (draw() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let workers = self.threads.min(n_shards);
        // Deal the permuted indices round-robin; each worker also draws a 64-bit
        // yield pattern deciding before which of its jobs it yields the CPU.
        let mut plans: Vec<(Vec<usize>, u64)> = (0..workers)
            .map(|_| (Vec::with_capacity(n_shards / workers + 1), draw()))
            .collect();
        for (k, &shard) in order.iter().enumerate() {
            plans[k % workers].0.push(shard);
        }
        if workers <= 1 {
            // Single worker: still runs the full permutation, minus the yields.
            for i in &plans[0].0 {
                job(*i);
            }
            return;
        }
        std::thread::scope(|scope| {
            for (indices, yields) in plans {
                scope.spawn(move || {
                    for (k, i) in indices.into_iter().enumerate() {
                        if (yields >> (k % 64)) & 1 == 1 {
                            std::thread::yield_now();
                        }
                        job(i);
                    }
                });
            }
            // The scope joins every worker; a panicked job re-panics here.
        });
    }

    fn clone_box(&self) -> Box<dyn ShardExecutor> {
        Box::new(*self)
    }
}

/// The borrowed job of the run in flight, type-erased to a raw pointer so the
/// long-lived workers (which are `'static` threads) can hold it.
///
/// # Safety
/// The pointer is only ever dereferenced between a successful index claim and the
/// recording of that index's completion, and [`PersistentPoolExecutor::run`] does not
/// return (keeping the `&dyn Fn` it erased alive) until every claimed index has
/// recorded completion. Claims are validated against the run's generation under the
/// pool mutex, so a worker can never claim — and therefore never dereference — a job
/// from a run that already finished.
#[derive(Clone, Copy)]
struct RawJob(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (it is a `&(dyn Fn + Sync)` in the caller), so sharing
// the pointer across the pool's worker threads is sound; the lifetime argument is
// covered by the `RawJob` invariant above.
#[allow(unsafe_code)]
unsafe impl Send for RawJob {}

/// Shared pool state, guarded by [`PoolCore::state`].
struct PoolState {
    /// Bumped once per [`PersistentPoolExecutor::run`]; workers use it to tell a fresh
    /// run from the one they last drained.
    generation: u64,
    /// The erased job of the run in flight (`None` between runs).
    job: Option<RawJob>,
    /// Shard count of the run in flight.
    n_shards: usize,
    /// Next shard index to hand out.
    next: usize,
    /// Shard indices whose job has finished (the run is complete at `n_shards`).
    done: usize,
    /// First panic payload caught from a job, re-thrown by the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set once by [`PoolHandle::drop`]; workers exit their loop on observing it.
    shutdown: bool,
}

struct PoolCore {
    state: Mutex<PoolState>,
    /// Workers park here between runs.
    work_ready: Condvar,
    /// The caller parks here until `done == n_shards`.
    run_done: Condvar,
}

impl PoolCore {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        // Jobs run under `catch_unwind`, so a poisoned pool mutex can only come from a
        // panic in the tiny bookkeeping sections — recover rather than cascade.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Claim-and-run loop shared by the workers and the calling thread: repeatedly
    /// claim the next shard index of generation `generation` under the lock, run the
    /// job outside it, and record completion. Returns when the run has no indices left
    /// (or a newer generation started, which implies this run fully completed).
    fn drain_claims(&self, generation: u64, job: RawJob) {
        loop {
            let i = {
                let mut st = self.lock();
                if st.generation != generation || st.next >= st.n_shards {
                    return;
                }
                let i = st.next;
                st.next += 1;
                i
            };
            // SAFETY: we hold a claimed-but-not-completed index of the current
            // generation, so `run` is still blocked and the erased `&dyn Fn` is alive
            // (see `RawJob`).
            #[allow(unsafe_code)]
            let job_ref: &(dyn Fn(usize) + Sync) = unsafe { &*job.0 };
            let result = catch_unwind(AssertUnwindSafe(|| job_ref(i)));
            let mut st = self.lock();
            if let Err(payload) = result {
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
            st.done += 1;
            if st.done == st.n_shards {
                self.run_done.notify_all();
            }
        }
    }

    fn worker_loop(&self) {
        let mut seen_generation = 0u64;
        loop {
            let (generation, job) = {
                let mut st = self.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.generation != seen_generation {
                        seen_generation = st.generation;
                        // `job` is cleared once a run completes; a worker waking late
                        // just re-parks on the (already finished) generation.
                        if let Some(job) = st.job {
                            break (seen_generation, job);
                        }
                    }
                    st = self.work_ready.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            self.drain_claims(generation, job);
        }
    }
}

/// Owns the worker threads; dropped when the last executor clone goes away, which
/// signals shutdown and joins every worker (clean `Drop` teardown, no detached
/// threads).
struct PoolHandle {
    core: Arc<PoolCore>,
    threads: usize,
    /// Serialises `run` calls from clones sharing this pool (one run in flight at a
    /// time; the pool state holds exactly one job).
    run_lock: Mutex<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        {
            let mut st = self.core.lock();
            st.shutdown = true;
        }
        self.core.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Execute shard jobs on long-lived parked worker threads — the closest software
/// analogue of the paper's testbed, where every PMD is a core-pinned loop that lives as
/// long as the switch.
///
/// Construction spawns the workers once; every [`ShardExecutor::run`] call afterwards
/// only takes a lock, bumps a generation counter and wakes them, so the per-batch
/// dispatch cost is independent of thread-spawn cost. Between runs the workers park on
/// a condvar and consume no CPU. The calling thread participates in draining shard
/// indices (it would otherwise idle for the duration of the run), and a panicking job
/// is caught, completes the run's accounting, and is re-thrown to the caller —
/// leaving the pool reusable.
///
/// Clones (including [`ShardExecutor::clone_box`]) share the same workers; concurrent
/// `run` calls from clones serialise. The last clone to drop signals shutdown and
/// joins every worker.
///
/// Outputs are bit-for-bit identical to [`SequentialExecutor`]'s for any conforming
/// job (`tests/executor_parity.rs`).
pub struct PersistentPoolExecutor {
    handle: Arc<PoolHandle>,
}

impl std::fmt::Debug for PersistentPoolExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentPoolExecutor")
            .field("threads", &self.handle.threads)
            .finish()
    }
}

impl Clone for PersistentPoolExecutor {
    /// Clones share the underlying pool (no new threads are spawned).
    fn clone(&self) -> Self {
        PersistentPoolExecutor {
            handle: Arc::clone(&self.handle),
        }
    }
}

impl PersistentPoolExecutor {
    /// Spawn a pool of `threads` parked workers.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        let core = Arc::new(PoolCore {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                n_shards: 0,
                next: 0,
                done: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            run_done: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("tse-pmd-{i}"))
                    .spawn(move || core.worker_loop())
                    .expect("spawning a pool worker failed")
            })
            .collect();
        PersistentPoolExecutor {
            handle: Arc::new(PoolHandle {
                core,
                threads,
                run_lock: Mutex::new(()),
                workers,
            }),
        }
    }
}

impl ShardExecutor for PersistentPoolExecutor {
    fn name(&self) -> &'static str {
        "persistent-pool"
    }

    #[allow(unsafe_code)]
    fn run(&self, n_shards: usize, job: &(dyn Fn(usize) + Sync)) {
        if n_shards == 0 {
            return;
        }
        let serial = self
            .handle
            .run_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let core = &self.handle.core;
        // SAFETY: a lifetime-only transmute (`&'a` → `*const` with the `'static`
        // default bound); the `RawJob` invariant guarantees no dereference outlives
        // this call, and `run` below does not return until `done == n_shards`.
        let raw = RawJob(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
                job,
            )
        });
        let generation = {
            let mut st = core.lock();
            st.job = Some(raw);
            st.n_shards = n_shards;
            st.next = 0;
            st.done = 0;
            st.panic = None;
            st.generation = st.generation.wrapping_add(1);
            core.work_ready.notify_all();
            st.generation
        };
        // The calling thread drains indices alongside the workers.
        core.drain_claims(generation, raw);
        let payload = {
            let mut st = core.lock();
            while st.done < n_shards {
                st = core.run_done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            st.panic.take()
        };
        drop(serial);
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    fn clone_box(&self) -> Box<dyn ShardExecutor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_visits_every_shard_in_order() {
        let log = Mutex::new(Vec::new());
        SequentialExecutor.run(5, &|i| log.lock().unwrap().push(i));
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_shard_list_is_a_no_op() {
        let mut empty: Vec<u64> = Vec::new();
        let r: Vec<u64> = PersistentPoolExecutor::new(2).for_each_shard(&mut empty, |_, v| *v);
        assert!(r.is_empty());
    }

    #[test]
    fn boxed_executor_clones_and_delegates() {
        let boxed: Box<dyn ShardExecutor> = Box::new(ChaosExecutor::new(2, 1));
        let cloned = boxed.clone();
        assert_eq!(cloned.name(), "chaos");
        let mut data = vec![1u64, 2];
        assert_eq!(cloned.for_each_shard(&mut data, |_, v| *v * 2), vec![2, 4]);
        assert_eq!(SequentialExecutor.clone_box().name(), "sequential");
    }

    #[test]
    fn chaos_visits_every_shard_exactly_once() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let visits: Vec<AtomicUsize> = (0..33).map(|_| AtomicUsize::new(0)).collect();
            ChaosExecutor::new(4, seed).run(33, &|i| {
                visits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, v) in visits.iter().enumerate() {
                assert_eq!(v.load(Ordering::Relaxed), 1, "seed {seed} shard {i}");
            }
        }
    }

    #[test]
    fn chaos_permutes_but_results_stay_in_shard_order() {
        let log = Mutex::new(Vec::new());
        ChaosExecutor::new(1, 7).run(8, &|i| log.lock().unwrap().push(i));
        let order = log.lock().unwrap().clone();
        assert_ne!(order, (0..8).collect::<Vec<_>>(), "seed 7 must shuffle");

        // The same seed replays the same single-worker execution order...
        let log2 = Mutex::new(Vec::new());
        ChaosExecutor::new(1, 7).run(8, &|i| log2.lock().unwrap().push(i));
        assert_eq!(order, *log2.lock().unwrap());

        // ...and result assembly is in shard order regardless.
        let mut data = vec![10u64, 20, 30, 40];
        let results = ChaosExecutor::new(3, 99).for_each_shard(&mut data, |i, v| *v + i as u64);
        assert_eq!(results, vec![10, 21, 32, 43]);
    }

    #[test]
    fn chaos_matches_sequential_on_uneven_work() {
        let work = |i: usize, v: &mut u64| {
            for _ in 0..(i + 1) * 1000 {
                *v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            *v
        };
        let mut a = vec![7u64; 9];
        let ra = SequentialExecutor.for_each_shard(&mut a, work);
        for seed in 0..8u64 {
            let mut b = vec![7u64; 9];
            let rb = ChaosExecutor::new(4, seed).for_each_shard(&mut b, work);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(ra, rb, "seed {seed}");
        }
    }

    #[test]
    fn persistent_pool_visits_every_shard_exactly_once() {
        let pool = PersistentPoolExecutor::new(4);
        let visits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        pool.run(32, &|i| {
            visits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, v) in visits.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), 1, "shard {i}");
        }
    }

    #[test]
    fn persistent_pool_is_reusable_across_many_runs() {
        // The whole point of the pool: one spawn, many dispatches. 200 back-to-back
        // runs on one pool must each satisfy the exactly-once contract.
        let pool = PersistentPoolExecutor::new(3);
        let mut data = vec![0u64; 8];
        for round in 0..200u64 {
            let results = pool.for_each_shard(&mut data, |i, v| {
                *v += i as u64 + round;
                *v
            });
            assert_eq!(results.len(), 8);
        }
        let expected: Vec<u64> = (0..8u64).map(|i| 200 * i + (0..200).sum::<u64>()).collect();
        assert_eq!(data, expected);
    }

    #[test]
    fn persistent_pool_matches_sequential_bitwise() {
        let work = |i: usize, v: &mut u64| {
            for _ in 0..(i + 1) * 1000 {
                *v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            *v
        };
        let mut a = vec![7u64; 9];
        let ra = SequentialExecutor.for_each_shard(&mut a, work);
        let mut b = vec![7u64; 9];
        let rb = PersistentPoolExecutor::new(4).for_each_shard(&mut b, work);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn persistent_pool_clones_share_the_workers() {
        let pool = PersistentPoolExecutor::new(2);
        let boxed: Box<dyn ShardExecutor> = pool.clone_box();
        assert_eq!(boxed.name(), "persistent-pool");
        let mut data = vec![1u64, 2, 3];
        assert_eq!(
            boxed.for_each_shard(&mut data, |_, v| *v * 2),
            vec![2, 4, 6]
        );
        // The original still works after the clone ran (shared state was reset).
        assert_eq!(pool.for_each_shard(&mut data, |_, v| *v), vec![1, 2, 3]);
        drop(boxed);
        // ...and after one of the sharing clones is dropped (workers outlive it).
        assert_eq!(pool.for_each_shard(&mut data, |_, v| *v), vec![1, 2, 3]);
    }

    #[test]
    fn persistent_pool_propagates_job_panics_and_survives_them() {
        let pool = PersistentPoolExecutor::new(2);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|i| {
                if i == 2 {
                    panic!("job blew up");
                }
            });
        }));
        let payload = outcome.expect_err("the job panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job blew up");
        // The pool's accounting completed despite the panic: it is still usable.
        let mut data = vec![1u64; 4];
        assert_eq!(
            pool.for_each_shard(&mut data, |i, v| *v + i as u64),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn persistent_pool_handles_more_shards_than_threads_and_vice_versa() {
        let pool = PersistentPoolExecutor::new(8);
        let mut two = vec![0u64; 2];
        assert_eq!(pool.for_each_shard(&mut two, |i, _| i), vec![0, 1]);
        let pool = PersistentPoolExecutor::new(1);
        let mut many = vec![0u64; 16];
        let r = pool.for_each_shard(&mut many, |i, _| i);
        assert_eq!(r, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_persistent_threads_is_rejected() {
        PersistentPoolExecutor::new(0);
    }
}
