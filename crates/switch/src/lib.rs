//! # tse-switch
//!
//! An OVS-like software-switch datapath built on the `tse-classifier` substrate:
//!
//! * [`datapath`] — the fast-path/slow-path pipeline (TSS megaflow cache → slow path)
//!   with idle-timeout eviction: the architecture of §2.2 and Fig. 10 as the kernel
//!   datapath the paper measures has it, with no exact-match microflow level in front;
//! * [`slowpath`] — upcall handling: full flow-table classification plus megaflow
//!   generation/installation, including the entry-suppression behaviour MFCGuard relies
//!   on;
//! * [`cost`] — the calibrated per-packet cost model that converts the classifier's
//!   algorithmic work (masks scanned, upcalls) into simulated seconds and therefore
//!   throughput (its module docs explain the substitution for the paper's hardware
//!   testbed);
//! * [`pmd`] — the sharded multi-PMD form of the datapath: N per-shard caches behind an
//!   RSS-style steering policy, modelling OVS-DPDK's one-megaflow-cache-per-PMD-thread
//!   architecture and the shard-local blast radius of the attack;
//! * [`exec`] — pluggable shard-execution models for that fan-out: the reference
//!   [`SequentialExecutor`], the long-lived [`PersistentPoolExecutor`] and the
//!   adversarial-schedule [`ChaosExecutor`], bit-for-bit interchangeable;
//! * [`stats`] — per-path counters and busy-time accounting;
//! * [`tenant`] — multi-tenant ACL composition: per-tenant ACLs merged into the single
//!   flow table of the shared hypervisor switch, the abstraction Co-located TSE exploits.

// `deny` rather than `forbid`: the persistent worker pool in [`exec`] needs one
// narrowly scoped, documented `unsafe` block (running a borrowed job on long-lived
// threads has no safe-Rust expression); everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod datapath;
pub mod exec;
pub mod pmd;
pub mod slowpath;
pub mod stats;
pub mod tenant;

pub use cost::CostModel;
pub use datapath::{
    BatchReport, Datapath, DatapathBuilder, FastPathKind, ProcessOutcome, DEFAULT_IDLE_TIMEOUT,
};
pub use exec::{
    ChaosExecutor, PersistentPoolExecutor, SequentialExecutor, ShardExecutor, ShardExecutorExt,
};
pub use pmd::{ShardedBatchReport, ShardedDatapath, Steering};
pub use slowpath::{SlowPath, UpcallOutcome};
pub use stats::{DatapathStats, PathTaken};
pub use tenant::{merge_tenant_acls, victim_and_attacker_table, AclField, AllowClause, TenantAcl};
