//! Two-tier hot/cold telemetry: constant-memory experiment recording for
//! tenant-scale, hour-long horizons.
//!
//! The paper's cloud model (§3.3) is many tenants sharing one hypervisor switch, but a
//! [`Timeline`] keeps every per-interval [`TimelineSample`] — with per-shard and
//! per-source vectors — for the whole horizon, so memory grows as `horizon × tenants`.
//! This module decouples *recent detail* from *run-length history*:
//!
//! * a **hot tier**: a bounded ring of the most recent samples, bit-identical to what
//!   the unbounded timeline would hold for that window (when a run fits entirely in
//!   the ring, [`TelemetryStore::recent_timeline`] *is* the classic timeline,
//!   bit-for-bit — pinned by `tests/golden_runner_parity.rs`);
//! * a **cold tier**: the switch-wide attack and background totals as streaming
//!   aggregates ([`SeriesAgg`]: count / sum / min / max plus a fixed-log-bucket
//!   [`LogHistogram`] for p50/p99) updated on every record. The cold tier is two
//!   aggregates whatever the fleet or shard count, and nothing in it allocates per
//!   sample, so an hour-long 10k-tenant run retains exactly as much telemetry as a
//!   60-second one plus the fixed ring;
//! * per-tenant [`SloTracker`]s, which hold each tenant's delivered-throughput
//!   distribution: quantiles against a configured SLO floor, violation episodes,
//!   time-to-detect and time-to-recover. A run without an SLO floor keeps nothing
//!   per tenant;
//! * a [`PressureWindow`] over the last few intervals' per-shard attack rates, which
//!   the runner hands to adaptive [`Mitigation`](tse_mitigation::stack::Mitigation)
//!   stages.
//!
//! Everything is deterministic: bucket boundaries are fixed functions of the f64 bit
//! pattern (no data-dependent allocation), sums are accumulated in sample order, and
//! the store's contents are bit-for-bit identical across shard executors and re-runs
//! (`tests/telemetry_store.rs`).

use std::collections::VecDeque;

use tse_mitigation::stack::PressureWindow;

use crate::runner::{Timeline, TimelineSample};

/// Number of sub-buckets per octave (power of two) in [`LogHistogram`]: the exponent
/// plus the top 3 mantissa bits of the f64 bit pattern.
const SUB_BUCKETS_PER_OCTAVE_BITS: u32 = 3;
/// Lowest tracked value, 2⁻³² (biased exponent 991). Everything at or below collapses
/// into the underflow bucket.
const MIN_TRACKED: f64 = f64::from_bits(991u64 << 52);
/// Highest tracked value, 2³². Everything at or above collapses into the overflow
/// bucket.
const MAX_TRACKED: f64 = 4294967296.0;
/// `(bits >> 49)` of `MIN_TRACKED`: the biased exponent 991 shifted past the 3
/// mantissa bits that survive the shift.
const BIAS_OFFSET: usize = 991 << SUB_BUCKETS_PER_OCTAVE_BITS;
/// 64 octaves (2⁻³²..2³²) × 8 sub-buckets, plus underflow and overflow buckets.
const BUCKETS: usize = 64 * 8 + 2;

/// A deterministic fixed-log-bucket histogram for streaming quantiles.
///
/// Bucket boundaries are a pure function of the f64 bit pattern: `value.to_bits() >>
/// 49` keeps the biased exponent and the top 3 mantissa bits, giving 8 equal-width
/// sub-buckets per octave over the clamped domain `[2⁻³², 2³²)` (plus an underflow
/// bucket for `≤ 2⁻³²`, zero and negatives, and an overflow bucket for `≥ 2³²`). The
/// bucket array is a fixed 514-slot allocation — recording never allocates, so the
/// histogram is bit-identical across executors, re-runs and record order.
///
/// # Error bound
///
/// [`LogHistogram::quantile`] returns the lower bound of the bucket containing the
/// requested rank. Within an octave the 8 sub-buckets are linear, so the worst
/// bucket's upper/lower ratio is 9/8 (the first sub-bucket of each octave): for any
/// in-domain value `v` falling in a bucket with lower bound `L`,
/// `L ≤ v < L * 9/8` — the quantile estimate underestimates by **less than 12.5 %**
/// (proptested in `tests/telemetry_store.rs`).
#[derive(Clone, PartialEq)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("total", &self.total)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    fn bucket_index(v: f64) -> usize {
        // NaN fails this comparison too, so it lands in the underflow bucket along
        // with negatives, zero and subnormals below the tracked range.
        if v < MIN_TRACKED || v.is_nan() {
            return 0;
        }
        if v >= MAX_TRACKED {
            return BUCKETS - 1;
        }
        ((v.to_bits() >> 49) as usize) - BIAS_OFFSET + 1
    }

    fn bucket_lower_bound(idx: usize) -> f64 {
        if idx == 0 {
            0.0
        } else if idx == BUCKETS - 1 {
            MAX_TRACKED
        } else {
            f64::from_bits(((idx - 1 + BIAS_OFFSET) as u64) << 49)
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: f64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.total += 1;
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The q-quantile estimate (`q` clamped to `[0, 1]`): the lower bound of the
    /// bucket containing rank `max(1, ceil(q · n))`. Returns 0.0 for an empty
    /// histogram. See the type docs for the ≤ 12.5 % error bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_lower_bound(i);
            }
        }
        MAX_TRACKED
    }
}

/// Streaming aggregate of one telemetry series: count, sum, min, max and a
/// [`LogHistogram`] for quantiles. Sums are accumulated in record order, so the fold
/// of a sample stream is bit-for-bit the in-order exact computation.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesAgg {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    hist: LogHistogram,
}

impl Default for SeriesAgg {
    fn default() -> Self {
        Self::new()
    }
}

impl SeriesAgg {
    /// An empty aggregate.
    pub fn new() -> Self {
        SeriesAgg {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            hist: LogHistogram::new(),
        }
    }

    /// Fold one observation in.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.hist.record(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running sum (in-order f64 accumulation).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The q-quantile estimate of the observed values ([`LogHistogram::quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        self.hist.quantile(q)
    }
}

/// Maximum violation episodes stored as explicit `(start, end)` intervals per tracker
/// — counters keep counting past this, so the tracker's memory stays bounded no
/// matter how long the run or how flappy the tenant.
pub const MAX_STORED_EPISODES: usize = 16;

/// Streaming per-tenant SLO tracking: delivered-throughput distribution against a
/// configured floor, violation episodes, time-to-detect and time-to-recover. All
/// state is O(1) per tenant (episode intervals capped at [`MAX_STORED_EPISODES`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SloTracker {
    name: String,
    floor_gbps: f64,
    delivered: SeriesAgg,
    in_violation: bool,
    episode_start: f64,
    episode_seconds: f64,
    violating_intervals: u64,
    episode_count: u64,
    first_violation: Option<f64>,
    longest_episode_seconds: f64,
    total_violation_seconds: f64,
    episodes: Vec<(f64, f64)>,
}

impl SloTracker {
    /// A tracker for the named tenant flow against `floor_gbps`.
    pub fn new(name: impl Into<String>, floor_gbps: f64) -> Self {
        SloTracker {
            name: name.into(),
            floor_gbps,
            delivered: SeriesAgg::new(),
            in_violation: false,
            episode_start: 0.0,
            episode_seconds: 0.0,
            violating_intervals: 0,
            episode_count: 0,
            first_violation: None,
            longest_episode_seconds: 0.0,
            total_violation_seconds: 0.0,
            episodes: Vec::new(),
        }
    }

    /// The tracked flow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The SLO floor, Gbps.
    pub fn floor_gbps(&self) -> f64 {
        self.floor_gbps
    }

    /// Observe one sample interval `[t, t + dt)` in which the flow delivered `gbps`.
    /// Call only for intervals where the flow was active (an idle flow is not
    /// violating anything).
    pub fn observe(&mut self, t: f64, dt: f64, gbps: f64) {
        self.delivered.observe(gbps);
        let violated = gbps < self.floor_gbps;
        if violated {
            self.violating_intervals += 1;
            self.total_violation_seconds += dt;
            if !self.in_violation {
                self.in_violation = true;
                self.episode_start = t;
                self.episode_seconds = 0.0;
                self.episode_count += 1;
                if self.first_violation.is_none() {
                    self.first_violation = Some(t);
                }
            }
            self.episode_seconds += dt;
            self.longest_episode_seconds = self.longest_episode_seconds.max(self.episode_seconds);
        } else if self.in_violation {
            self.close_episode();
        }
    }

    fn close_episode(&mut self) {
        self.in_violation = false;
        if self.episodes.len() < MAX_STORED_EPISODES {
            self.episodes.push((
                self.episode_start,
                self.episode_start + self.episode_seconds,
            ));
        }
    }

    /// Close any open violation episode at the end of the run.
    pub fn finish(&mut self) {
        if self.in_violation {
            self.close_episode();
        }
    }

    /// The delivered-throughput aggregate (count/sum/min/max + quantile histogram).
    pub fn delivered(&self) -> &SeriesAgg {
        &self.delivered
    }

    /// Median delivered throughput, Gbps.
    pub fn p50_gbps(&self) -> f64 {
        self.delivered.quantile(0.5)
    }

    /// 99th-percentile delivered throughput, Gbps — the *high* tail: the delivered
    /// histogram is a distribution of per-interval rates, so p99 is "the rate only the
    /// top 1 % of intervals exceed", not a measure of the worst intervals.
    pub fn p99_gbps(&self) -> f64 {
        self.delivered.quantile(0.99)
    }

    /// Number of sample intervals that violated the floor.
    pub fn violating_intervals(&self) -> u64 {
        self.violating_intervals
    }

    /// Number of distinct violation episodes (runs of consecutive violating samples).
    pub fn episode_count(&self) -> u64 {
        self.episode_count
    }

    /// Time of the first violating sample, if any.
    pub fn first_violation(&self) -> Option<f64> {
        self.first_violation
    }

    /// Length of the longest violation episode, seconds — the worst time-to-recover.
    pub fn longest_episode_seconds(&self) -> f64 {
        self.longest_episode_seconds
    }

    /// Total seconds spent below the floor.
    pub fn total_violation_seconds(&self) -> f64 {
        self.total_violation_seconds
    }

    /// The first [`MAX_STORED_EPISODES`] violation episodes as `(start, end)` times.
    pub fn episodes(&self) -> &[(f64, f64)] {
        &self.episodes
    }

    /// True if the tracker is currently inside an open violation episode.
    pub fn in_violation(&self) -> bool {
        self.in_violation
    }
}

/// Configuration of a [`TelemetryStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Hot-ring capacity: how many recent [`TimelineSample`]s are kept in full
    /// detail. Runs no longer than this (in sample intervals) reproduce the classic
    /// unbounded [`Timeline`] bit-for-bit. Must be at least 1.
    pub hot_capacity: usize,
    /// Per-tenant SLO tracking: when set, every victim source gets an [`SloTracker`]
    /// against this delivered-throughput floor, Gbps (a sample below it while the
    /// flow is active is a violation).
    pub slo_floor_gbps: Option<f64>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            // Large enough that every classic (≤ 90 s, 1 s interval) scenario fits the
            // hot tier entirely: short-horizon runs keep today's Timeline bit-for-bit.
            hot_capacity: 4096,
            slo_floor_gbps: None,
        }
    }
}

impl TelemetryConfig {
    /// Default config with a custom hot-ring capacity.
    pub fn with_hot_capacity(capacity: usize) -> Self {
        TelemetryConfig {
            hot_capacity: capacity,
            ..TelemetryConfig::default()
        }
    }

    /// Builder: track per-tenant SLOs against `floor_gbps`.
    pub fn with_slo_floor(mut self, floor_gbps: f64) -> Self {
        self.slo_floor_gbps = Some(floor_gbps);
        self
    }
}

/// Depth, in sample intervals, of the [`PressureWindow`] handed to adaptive
/// mitigation stages.
const PRESSURE_DEPTH: usize = 5;

/// Scalar slots retained by one hot sample (footprint accounting): the fixed fields
/// plus each per-source/per-shard vector entry, with mitigation actions charged a
/// conservative 4 slots each.
fn sample_units(s: &TimelineSample) -> u64 {
    (7 + s.victim_gbps.len()
        + s.attacker_pps_by_source.len()
        + s.shard_masks.len()
        + s.shard_entries.len()
        + s.shard_attacker_pps.len()
        + 4 * s.mitigation_actions.len()) as u64
}

/// Scalar slots per [`SeriesAgg`].
const AGG_UNITS: u64 = 4 + BUCKETS as u64;

/// Scalar slots of the cold tier: the total-attack and background aggregates.
const COLD_UNITS: u64 = 2 * AGG_UNITS;

/// The two-tier telemetry store: a bounded hot ring of recent samples plus streaming
/// cold aggregates, per-tenant SLO trackers and the mitigation pressure window. See
/// the [module docs](self) for the architecture.
///
/// The store is created per run by
/// [`ExperimentRunner::run_mix`](crate::runner::ExperimentRunner::run_mix) (and
/// retrievable afterwards via
/// [`ExperimentRunner::last_telemetry`](crate::runner::ExperimentRunner::last_telemetry)),
/// but is equally usable standalone: feed it [`TimelineSample`]s via
/// [`TelemetryStore::record`].
#[derive(Debug)]
pub struct TelemetryStore {
    config: TelemetryConfig,
    sample_interval: f64,
    victim_names: Vec<String>,
    attacker_names: Vec<String>,
    shard_count: usize,
    hot: VecDeque<TimelineSample>,
    aged: u64,
    recorded: u64,
    total_attacker_pps: SeriesAgg,
    background_pps: SeriesAgg,
    slo: Vec<SloTracker>,
    pressure: PressureWindow,
}

impl TelemetryStore {
    /// Create a store for a run over the given sources and shard count.
    ///
    /// # Panics
    /// Panics if `config.hot_capacity` is 0 or `sample_interval` is not positive.
    pub fn new(
        config: TelemetryConfig,
        sample_interval: f64,
        victim_names: Vec<String>,
        attacker_names: Vec<String>,
        shard_count: usize,
    ) -> Self {
        assert!(config.hot_capacity >= 1, "hot ring needs capacity >= 1");
        assert!(sample_interval > 0.0, "sample interval must be positive");
        let slo = match config.slo_floor_gbps {
            Some(floor_gbps) => victim_names
                .iter()
                .map(|n| SloTracker::new(n.clone(), floor_gbps))
                .collect(),
            None => Vec::new(),
        };
        TelemetryStore {
            hot: VecDeque::with_capacity(config.hot_capacity),
            aged: 0,
            recorded: 0,
            total_attacker_pps: SeriesAgg::new(),
            background_pps: SeriesAgg::new(),
            slo,
            pressure: PressureWindow::new(shard_count, PRESSURE_DEPTH),
            config,
            sample_interval,
            victim_names,
            attacker_names,
            shard_count,
        }
    }

    /// Record one sample. `victim_active[i]` says whether victim `i` was active this
    /// interval (an inactive victim's 0 Gbps is idleness, not an SLO violation);
    /// victims beyond the slice are treated as active.
    pub fn record(&mut self, sample: TimelineSample, victim_active: &[bool]) {
        // Cold tier: stream the switch-wide totals in sample order.
        self.total_attacker_pps.observe(sample.attacker_pps);
        self.background_pps.observe(sample.background_pps);
        for (i, tracker) in self.slo.iter_mut().enumerate() {
            if victim_active.get(i).copied().unwrap_or(true) {
                let gbps = sample.victim_gbps.get(i).copied().unwrap_or(0.0);
                tracker.observe(sample.time, self.sample_interval, gbps);
            }
        }
        // Hot tier: bounded ring; overflow ages the oldest sample out.
        if self.hot.len() == self.config.hot_capacity {
            self.hot.pop_front();
            self.aged += 1;
        }
        self.hot.push_back(sample);
        self.recorded += 1;
    }

    /// Push one interval's per-shard attack rates into the pressure window. The
    /// runner calls this *before* running the mitigation stack, so adaptive stages
    /// see the interval just measured.
    pub fn note_pressure(&mut self, shard_attack_pps: &[f64]) {
        self.pressure.push(shard_attack_pps);
    }

    /// The pressure window handed to adaptive mitigation stages.
    pub fn pressure(&self) -> &PressureWindow {
        &self.pressure
    }

    /// Close open SLO episodes (end of run).
    pub fn finish(&mut self) {
        for tracker in &mut self.slo {
            tracker.finish();
        }
    }

    /// The recent window as a classic [`Timeline`] — the compatibility view. When the
    /// run fit the hot ring entirely ([`TelemetryStore::aged_out`] == 0), this is
    /// bit-for-bit the timeline the unbounded runner produced.
    pub fn recent_timeline(&self) -> Timeline {
        Timeline {
            victim_names: self.victim_names.clone(),
            attacker_names: self.attacker_names.clone(),
            shard_count: self.shard_count,
            samples: self.hot.iter().cloned().collect(),
        }
    }

    /// Victim source names, in series order.
    pub fn victim_names(&self) -> &[String] {
        &self.victim_names
    }

    /// Attacker source names, in series order.
    pub fn attacker_names(&self) -> &[String] {
        &self.attacker_names
    }

    /// Number of datapath shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Samples currently in the hot ring.
    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }

    /// Samples aged out of the hot ring (the cold tier and SLO trackers still saw them).
    pub fn aged_out(&self) -> u64 {
        self.aged
    }

    /// Total samples recorded (`hot_len() as u64 + aged_out()`).
    pub fn samples_recorded(&self) -> u64 {
        self.recorded
    }

    /// Cold aggregate of total attack pps over the whole run.
    pub fn total_attacker_series(&self) -> &SeriesAgg {
        &self.total_attacker_pps
    }

    /// Cold aggregate of background (benign churn) pps over the whole run.
    pub fn background_series(&self) -> &SeriesAgg {
        &self.background_pps
    }

    /// The per-tenant SLO trackers (empty unless [`TelemetryConfig::slo_floor_gbps`]
    /// is set), in victim series order.
    pub fn slo_trackers(&self) -> &[SloTracker] {
        &self.slo
    }

    /// Deterministic memory footprint, in retained scalar slots: hot samples at their
    /// actual widths plus the (constant) cold tier, SLO trackers and pressure window.
    /// This is the metric the bench reports gate on — it is a pure function of the
    /// recorded samples, so it is bit-identical across executors and re-runs, and for
    /// any horizon `h ≥ hot_capacity` it is independent of `h`.
    pub fn footprint_units(&self) -> u64 {
        let hot: u64 = self.hot.iter().map(sample_units).sum();
        hot + COLD_UNITS + self.slo_units() + self.pressure_units()
    }

    /// Upper bound on [`TelemetryStore::footprint_units`] for *any* horizon, given
    /// that no interval ever logs more than `max_actions_per_interval` mitigation
    /// actions: the hot ring at capacity × the maximal per-sample width, plus the
    /// constant cold/SLO/pressure tiers. This is what "provably bounded memory"
    /// means operationally: `footprint_units() ≤ footprint_ceiling(m)` holds at every
    /// instant of an arbitrarily long run.
    pub fn footprint_ceiling(&self, max_actions_per_interval: usize) -> u64 {
        let width = 7
            + self.victim_names.len()
            + self.attacker_names.len()
            + 3 * self.shard_count
            + 4 * max_actions_per_interval;
        let slo_ceiling = self.slo.len() as u64 * (AGG_UNITS + 8 + 2 * MAX_STORED_EPISODES as u64);
        self.config.hot_capacity as u64 * width as u64
            + COLD_UNITS
            + slo_ceiling
            + self.pressure_units_ceiling()
    }

    fn slo_units(&self) -> u64 {
        self.slo
            .iter()
            .map(|t| AGG_UNITS + 8 + 2 * t.episodes.len() as u64)
            .sum()
    }

    fn pressure_units(&self) -> u64 {
        (self.pressure.len() * self.shard_count) as u64
    }

    fn pressure_units_ceiling(&self) -> u64 {
        (self.pressure.depth() * self.shard_count) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, gbps: f64) -> TimelineSample {
        TimelineSample {
            time: t,
            victim_gbps: vec![gbps],
            attacker_pps: 100.0,
            attacker_pps_by_source: vec![100.0],
            background_pps: 0.0,
            malformed_pps: 0.0,
            mask_count: 10,
            entry_count: 20,
            victim_masks_scanned: 3,
            shard_masks: vec![10],
            shard_entries: vec![20],
            shard_attacker_pps: vec![100.0],
            mitigation_actions: Vec::new(),
        }
    }

    #[test]
    fn histogram_buckets_are_deterministic_and_bounded() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        for v in [0.0, -3.0, f64::NAN, 1e-300] {
            h.record(v); // all collapse into the underflow bucket
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(1.0), 0.0);
        h.record(1e300); // overflow bucket
        assert_eq!(h.quantile(1.0), MAX_TRACKED);
        // An in-domain value: the estimate underestimates by < 12.5 %.
        let mut h = LogHistogram::new();
        h.record(9.3);
        let est = h.quantile(0.5);
        assert!(est <= 9.3 && 9.3 < est * 9.0 / 8.0, "estimate {est}");
    }

    #[test]
    fn histogram_quantiles_walk_ranks() {
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.record(v);
        }
        // Exact powers of two are bucket lower bounds: the estimates are exact.
        assert_eq!(h.quantile(0.25), 1.0);
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.75), 4.0);
        assert_eq!(h.quantile(1.0), 8.0);
        assert_eq!(h.quantile(0.0), 1.0, "q=0 clamps to rank 1");
    }

    #[test]
    fn slo_tracker_counts_episodes_and_recovery() {
        let mut t = SloTracker::new("tenant-0", 5.0);
        // 3 good, 2 bad, 2 good, 3 bad (open at finish).
        let series = [9.0, 9.0, 8.0, 1.0, 2.0, 9.0, 9.0, 0.5, 0.5, 0.5];
        for (i, v) in series.iter().enumerate() {
            t.observe(i as f64, 1.0, *v);
        }
        t.finish();
        assert_eq!(t.episode_count(), 2);
        assert_eq!(t.violating_intervals(), 5);
        assert_eq!(t.first_violation(), Some(3.0));
        assert_eq!(t.longest_episode_seconds(), 3.0);
        assert_eq!(t.total_violation_seconds(), 5.0);
        assert_eq!(t.episodes(), &[(3.0, 5.0), (7.0, 10.0)]);
        assert_eq!(t.delivered().count(), 10);
    }

    #[test]
    fn store_ages_out_but_cold_tier_sees_everything() {
        let config = TelemetryConfig::with_hot_capacity(4).with_slo_floor(5.0);
        let mut store = TelemetryStore::new(config, 1.0, vec!["v".into()], vec!["a".into()], 1);
        for i in 0..10 {
            let gbps = if i >= 6 { 1.0 } else { 9.0 };
            store.record(sample(i as f64, gbps), &[true]);
        }
        store.finish();
        assert_eq!(store.hot_len(), 4);
        assert_eq!(store.aged_out(), 6);
        assert_eq!(store.samples_recorded(), 10);
        // The compatibility view holds the most recent window only …
        let tl = store.recent_timeline();
        assert_eq!(tl.samples.len(), 4);
        assert_eq!(tl.samples[0].time, 6.0);
        // … while the cold tier and the SLO tracker streamed all 10 samples.
        assert_eq!(store.total_attacker_series().count(), 10);
        assert_eq!(store.total_attacker_series().mean(), 100.0);
        let slo = &store.slo_trackers()[0];
        assert_eq!(slo.delivered().count(), 10);
        assert_eq!(slo.delivered().max(), 9.0);
        assert_eq!(slo.delivered().min(), 1.0);
        assert_eq!(slo.violating_intervals(), 4);
        assert_eq!(slo.episode_count(), 1);
        // The footprint never exceeds the ceiling, whatever the horizon.
        assert!(store.footprint_units() <= store.footprint_ceiling(0));
    }

    #[test]
    fn footprint_is_horizon_independent_past_capacity() {
        let mk = |steps: usize| {
            let mut store = TelemetryStore::new(
                TelemetryConfig::with_hot_capacity(8),
                1.0,
                vec!["v".into()],
                vec!["a".into()],
                1,
            );
            for i in 0..steps {
                store.record(sample(i as f64, 9.0), &[]);
            }
            store.footprint_units()
        };
        let at_capacity = mk(8);
        assert_eq!(mk(100), at_capacity, "constant memory past the ring");
        assert_eq!(mk(10_000), at_capacity);
        assert!(mk(4) < at_capacity);
    }

    #[test]
    fn footprint_does_not_grow_with_the_fleet_without_slo() {
        let empty = |victims: usize, shards: usize, slo_floor_gbps: Option<f64>| {
            let config = TelemetryConfig {
                slo_floor_gbps,
                ..TelemetryConfig::default()
            };
            let victims = (0..victims).map(|i| format!("v{i}")).collect();
            TelemetryStore::new(config, 1.0, victims, vec!["a".into()], shards).footprint_units()
        };
        let base = empty(1, 1, None);
        assert_eq!(base, COLD_UNITS);
        assert_eq!(
            empty(1000, 1, None),
            base,
            "no per-victim state without SLO"
        );
        assert_eq!(
            empty(1, 16, None),
            base,
            "no per-shard state before a sample"
        );
        assert_eq!(
            empty(1000, 1, Some(1.0)) - empty(1, 1, Some(1.0)),
            999 * (AGG_UNITS + 8),
            "each SLO tracker is one delivered aggregate plus its scalars"
        );
    }
}
