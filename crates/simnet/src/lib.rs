//! # tse-simnet
//!
//! The evaluation substrate of the reproduction: everything the paper's testbed provides
//! around the switch.
//!
//! * [`offload`] — NIC offload configurations (GRO on/off, full hardware offload, UDP)
//!   and their effect on bytes-per-classifier-invocation (§5.4);
//! * [`traffic`] — iperf-like victim flows and their streaming form
//!   ([`traffic::VictimSource`]);
//! * [`runner`] — the event-driven timeline experiment runner producing the Fig. 8
//!   time series: a [`TrafficMix`] of attacker and victim sources drained through the
//!   datapath, victim throughput derived from the measured per-invocation cost and the
//!   CPU left over, attributed per source;
//! * [`cloud`] — the platform models (synthetic, OpenStack/OVN, Kubernetes/OVN) with
//!   their ACL expressiveness limits and link rates (§5.5, §5.6, §7);
//! * [`telemetry`] — the two-tier hot/cold telemetry store: a bounded ring of recent
//!   samples plus streaming whole-run attack and background aggregates and per-tenant
//!   SLO trackers, so hour-long tenant-scale runs hold constant memory;
//! * [`fleet`] — tenant-scale workload builders: [`fleet::TenantFleet`] (hundreds to
//!   thousands of tenants behind one gateway, a few of them hostile) and
//!   [`fleet::ChurnSource`] (Poisson benign flow churn as background traffic).
//!
//! The traffic-source abstraction itself ([`TrafficSource`], [`TrafficMix`], the
//! attack-side sources) lives in `tse-attack`'s `source` module and is re-exported
//! here for convenience.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cloud;
pub mod fleet;
pub mod offload;
pub mod runner;
pub mod telemetry;
pub mod traffic;

pub use cloud::{section7_mask_ceiling, CloudPlatform};
pub use fleet::{ChurnConfig, ChurnSource, FleetConfig, TenantFleet};
pub use offload::OffloadConfig;
pub use runner::{ExperimentRunner, Timeline, TimelineSample};
pub use telemetry::{LogHistogram, SeriesAgg, SloTracker, TelemetryConfig, TelemetryStore};
pub use traffic::{VictimFlow, VictimSource};
pub use tse_attack::source::{
    AttackGenerator, EventPayload, SourceRole, TrafficEvent, TrafficMix, TrafficSource,
};
