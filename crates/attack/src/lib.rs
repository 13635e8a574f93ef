//! # tse-attack
//!
//! The paper's primary contribution in library form: the **Tuple Space Explosion**
//! attack against TSS-based packet classifiers.
//!
//! * [`scenarios`] — the §5.2 use cases (Baseline, Dp, SpDp, SipDp, SipSpDp) and the
//!   Fig. 6 ACL they target;
//! * [`colocated`] — the Co-located TSE trace generator (§5.1): bit-inversion lists and
//!   their outer product, which spawn the maximum number of MFC masks with the minimum
//!   number of packets when the ACL is known;
//! * [`general`] — the General TSE trace generator (§6): uniformly random headers against
//!   an unknown ACL;
//! * [`expectation`] — the analytic model (Eq. 1/2, Appendix 11.3) for the expected
//!   number of masks sparked by `n` random packets — the "E" curves of Fig. 9b;
//! * [`bounds`] — the Theorem 4.1/4.2 space–time trade-off bounds;
//! * [`sharding`] — shard-aware crafting for multi-PMD switches: retag the free field
//!   of a key stream so the explosion RSS-targets one chosen shard (the shard-pinned
//!   worst case) or sprays every shard evenly;
//! * [`source`] — the streaming form: pull-based [`source::TrafficSource`] event
//!   streams, the lazy [`source::AttackGenerator`] that crafts the attack's
//!   noise-randomised packets from a key iterator at a constant rate (the pcap replayed
//!   in a loop is a cycled key iterator plus a limit), and the [`source::TrafficMix`]
//!   timestamp merge that composes sources into experiment workloads;
//! * [`wire`] — the wire-level form: [`wire::WireGenerator`] serialises every crafted
//!   packet to raw Ethernet bytes (optionally under a VLAN/VXLAN overlay) and recovers
//!   the key through the real parser, [`wire::WireSource`] replays recorded frames the
//!   same way, and frames the datapath cannot classify come out as
//!   [`source::EventPayload::Malformed`].
//!
//! Everything here is *generation and analysis*: the effect on a switch is measured by
//! feeding these sources into `tse-switch` / `tse-simnet`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod colocated;
pub mod expectation;
pub mod general;
pub mod scenarios;
pub mod sharding;
pub mod source;
mod trace;
pub mod wire;

pub use bounds::{multi_field_bound, single_field_curve, TradeoffPoint};
pub use colocated::{bit_inversion_keys, BitInversionKeys};
pub use expectation::ExpectationModel;
pub use general::RandomKeys;
pub use scenarios::{Scenario, TargetField};
pub use sharding::{pin_to_shard, spray_shards, ShardSteeredKeys};
pub use source::{
    AttackGenerator, EventPayload, SourceRole, TrafficEvent, TrafficMix, TrafficSource,
};
pub use wire::{WireGenerator, WireSource};
