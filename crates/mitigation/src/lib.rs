//! # tse-mitigation
//!
//! The defense layer: the short-term mitigation of §8 (**MFCGuard**) plus the
//! composable [`Mitigation`] pipeline the multi-PMD datapath enables — an ordered,
//! per-shard-configurable stack of countermeasures the experiment runner invokes once
//! per sample interval.
//!
//! * [`stack`] — the [`Mitigation`] trait, the per-interval [`MitigationCtx`]
//!   telemetry view, the [`MitigationAction`] attribution records, and the ordered
//!   [`MitigationStack`];
//! * [`guard`] — Algorithm 2: periodic mask-count check, TSE-pattern scan, drop-only
//!   entry eviction bounded by a slow-path CPU budget; [`GuardMitigation`] runs one
//!   independently configured guard per shard;
//! * [`defenses`] — [`RssKeyRandomizer`] (hash-key rotation against shard-pinned
//!   explosions), [`AdaptiveRekey`] (the pressure-gated form: rotates only while the
//!   telemetry window shows a shard under sustained attack), [`UpcallLimiter`]
//!   (per-shard megaflow-install quotas) and [`MaskCap`] (per-shard mask ceilings,
//!   coldest-first eviction);
//! * [`pattern`] — the TSE-entry detector (deny megaflows that test bits of a
//!   whitelisted field);
//! * [`cpu_model`] — the `ovs-vswitchd` CPU model calibrated against Fig. 9c, used both
//!   for Alg. 2's balancing exit and for regenerating that figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu_model;
pub mod defenses;
pub mod guard;
pub mod pattern;
pub mod stack;

pub use defenses::{AdaptiveRekey, MaskCap, RssKeyRandomizer, UpcallLimiter};
pub use guard::{GuardConfig, GuardMitigation, GuardReport, MfcGuard};
pub use pattern::allow_exact_fields;
pub use stack::{Mitigation, MitigationAction, MitigationCtx, MitigationStack, PressureWindow};
