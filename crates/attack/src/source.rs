//! Pull-based traffic sources: the streaming experiment-construction API.
//!
//! The paper's experiments all reduce to "some mix of victim traffic and crafted
//! tuple-space-explosion traffic hitting one datapath over time". This module expresses
//! that directly: a [`TrafficSource`] lazily yields timestamped classification events,
//! and a [`TrafficMix`] k-way-merges any number of sources by timestamp. An attacker is
//! one source: [`AttackGenerator`] crafts its packets on the fly from a key iterator —
//! the pcap replayed in a loop is a cycled key iterator plus a limit — so attack traffic
//! is never materialised; victim flows (in `tse-simnet`) are another. The experiment
//! runner drains the merged stream — a 100-million-packet scenario never has to exist in
//! memory at once, and multi-attacker or staggered-onset mixes are just more sources.
//!
//! [`AttackGenerator`] is *key-level*: it hands the consumer a pre-extracted header key.
//! Its wire-level twin in [`crate::wire`] serialises every packet and recovers the key
//! through the parser. Both turn a packet into a key through the one conversion
//! [`FlowKey::checked_key`] and into an event through [`TrafficEvent::classified`], so a
//! packet the schema cannot express is the same `Malformed { FamilyMismatch }` event on
//! either ingress.

use rand::Rng;

use tse_packet::fields::{FieldSchema, Key};
use tse_packet::flowkey::FlowKey;
use tse_packet::wire::WireFault;

use crate::trace::{Crafter, TimedPacket};

/// What an event means to the consumer (the experiment runner).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventPayload {
    /// A concrete packet to replay through the datapath at its timestamp. The event's
    /// cost is charged against the shared CPU budget.
    Packet,
    /// A victim-side measurement probe: the consumer refreshes the flow's fast-path
    /// entry, reads off the current per-invocation cost, and converts leftover CPU into
    /// delivered throughput for a flow offering `offered_gbps`.
    Probe {
        /// The probed flow's offered load in Gbps at this instant.
        offered_gbps: f64,
    },
    /// A raw frame that could not be classified: wire decode failed, or the decoded
    /// family does not match the experiment's schema. The event's `key` is a schema
    /// zero value (never steered); the consumer charges the frame to shard 0, exactly
    /// like the datapath's schema-mismatch path.
    Malformed {
        /// Why the frame was unclassifiable.
        fault: WireFault,
    },
}

/// One timestamped classification event emitted by a [`TrafficSource`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficEvent {
    /// Event time in seconds from the start of the experiment.
    pub time: f64,
    /// The pre-extracted header key (what the fast path classifies on).
    pub key: Key,
    /// Wire bytes carried by this event (throughput accounting).
    pub bytes: usize,
    /// How the consumer should treat the event.
    pub payload: EventPayload,
}

impl TrafficEvent {
    /// The event of one `bytes`-long packet at `time` whose packet → key decision
    /// ([`FlowKey::checked_key`], or `tse_packet::wire::decode_key` for a raw frame) came
    /// out as `key` under `schema`: a classifiable packet is a keyed
    /// [`EventPayload::Packet`]; a fault is an [`EventPayload::Malformed`] carrying the
    /// schema's zero key (never steered — the runner charges it to shard 0).
    #[inline]
    pub fn classified(
        time: f64,
        bytes: usize,
        key: Result<Key, WireFault>,
        schema: &FieldSchema,
    ) -> Self {
        let (key, payload) = match key {
            Ok(key) => (key, EventPayload::Packet),
            Err(fault) => (schema.zero_value(), EventPayload::Malformed { fault }),
        };
        TrafficEvent {
            time,
            key,
            bytes,
            payload,
        }
    }

    /// [`TrafficEvent::classified`] for a concrete packet: the key-level ingress.
    #[inline]
    pub(crate) fn of_packet(tp: &TimedPacket, schema: &FieldSchema) -> Self {
        let key = FlowKey::from_packet(&tp.packet).checked_key(schema);
        Self::classified(tp.time, tp.packet.wire_len(), key, schema)
    }
}

/// How a source participates in an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceRole {
    /// Adversarial (or generally per-packet) traffic: every event is replayed through
    /// the datapath and consumes CPU.
    Attacker,
    /// A victim flow: events are periodic probes, and the source is attributed a
    /// delivered-throughput series in the timeline.
    Victim,
    /// Benign background load (e.g. tenant flow churn): every event is replayed
    /// through the datapath and consumes CPU exactly like attacker traffic, but the
    /// packets are not attributed to any attacker series — consumers account them
    /// separately (the runner's aggregate `background_pps`).
    Background,
}

/// A pull-based stream of timestamped classification events.
///
/// Implementations must yield events in nondecreasing `time` order; [`TrafficMix`]
/// clamps regressions defensively, but a well-behaved source never relies on that.
/// Sources may be unbounded (e.g. a victim flow that runs forever, or a General-TSE
/// generator) — consumers pull only as far as the experiment horizon.
///
/// `Send` is a supertrait so a [`TrafficMix`] — and an experiment holding one — can
/// move to another thread (`tests/send_audit.rs`); every source is plain owned data
/// (key iterators, RNG state, frame buffers), so this costs implementors nothing.
pub trait TrafficSource: Send {
    /// Display label (per-source attribution in timelines, e.g. `"Attacker 2"`).
    fn label(&self) -> &str;

    /// How the source participates in an experiment (default: [`SourceRole::Attacker`]).
    fn role(&self) -> SourceRole {
        SourceRole::Attacker
    }

    /// The next event, or `None` when the source is exhausted.
    fn next_event(&mut self) -> Option<TrafficEvent>;
}

/// The key-level attacker: synthesizes explosion traffic on the fly from a key
/// iterator, at O(1) memory for any packet count.
///
/// Packets come out of the crate's one crafter — same builder, same noise
/// randomisation, same constant-rate timestamps as a
/// [`WireGenerator`](crate::wire::WireGenerator) over the same keys, rate, start time
/// and RNG seed. Combine with [`Scenario::key_iter`](crate::scenarios::Scenario::key_iter)
/// (cycled) or [`crate::general::RandomKeys`] for unbounded traffic.
#[derive(Debug, Clone)]
pub struct AttackGenerator<I, R> {
    label: String,
    schema: FieldSchema,
    crafter: Crafter<I, R>,
}

impl<I, R> AttackGenerator<I, R>
where
    I: Iterator<Item = Key>,
    R: Rng,
{
    /// Create a generator over an OVS schema (IPv4 or IPv6), sending one packet per key
    /// drawn from `keys` at `rate_pps` starting at `start_time`. The stream ends when
    /// `keys` does (pass a cycled iterator plus [`AttackGenerator::with_limit`] for the
    /// "replay the pcap in a loop" attacker).
    pub fn new(
        label: impl Into<String>,
        schema: &FieldSchema,
        keys: I,
        rng: R,
        rate_pps: f64,
        start_time: f64,
    ) -> Self {
        AttackGenerator {
            label: label.into(),
            schema: schema.clone(),
            crafter: Crafter::new(schema, keys, rng, rate_pps, start_time),
        }
    }

    /// Cap the stream at `count` packets (the cyclic-replay form).
    pub fn with_limit(mut self, count: usize) -> Self {
        self.crafter = self.crafter.with_limit(count);
        self
    }
}

impl<I, R> TrafficSource for AttackGenerator<I, R>
where
    I: Iterator<Item = Key> + Send,
    R: Rng + Send,
{
    fn label(&self) -> &str {
        &self.label
    }

    fn next_event(&mut self) -> Option<TrafficEvent> {
        let tp = self.crafter.next()?;
        Some(TrafficEvent::of_packet(&tp, &self.schema))
    }
}

/// Min-heap ordering key for the merge: earliest timestamp first, ties broken by
/// source insertion order. Timestamps are normalised (`-0.0` → `+0.0`) before they
/// enter the heap so `total_cmp` agrees with numeric comparison on every value a
/// well-behaved source can emit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MergeKey {
    time: f64,
    index: usize,
}

impl Eq for MergeKey {}

impl Ord for MergeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for MergeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A timestamp-ordered k-way merge over any number of [`TrafficSource`]s.
///
/// Events are pulled lazily; ties are broken by source insertion order, so e.g. victim
/// probes sharing a timestamp are delivered in the order the victims were added. A
/// source whose stream regresses in time — or yields NaN — is clamped to its own previous
/// timestamp (`0.0` for a NaN first event), so the merged stream is always
/// nondecreasing and never NaN.
///
/// The merge is heap-based: `next()` and `peek_time()` are O(log S) in the source
/// count S, so a tenant fleet with thousands of victim sources does not pay a linear
/// scan per event.
#[derive(Default)]
pub struct TrafficMix<'a> {
    sources: Vec<Box<dyn TrafficSource + 'a>>,
    /// Per-source lookahead buffer (`None` before priming or after exhaustion).
    heads: Vec<Option<TrafficEvent>>,
    /// Last timestamp emitted by each source (for the monotonicity clamp).
    last_times: Vec<f64>,
    /// One entry per source with a buffered head, keyed by (time, insertion index).
    heap: std::collections::BinaryHeap<std::cmp::Reverse<MergeKey>>,
    primed: bool,
}

impl std::fmt::Debug for TrafficMix<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrafficMix")
            .field("labels", &self.labels())
            .field("primed", &self.primed)
            .finish()
    }
}

impl<'a> TrafficMix<'a> {
    /// An empty mix.
    pub fn new() -> Self {
        TrafficMix {
            sources: Vec::new(),
            heads: Vec::new(),
            last_times: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
            primed: false,
        }
    }

    /// Add a source (fluent form).
    pub fn with(mut self, source: impl TrafficSource + 'a) -> Self {
        self.push(Box::new(source));
        self
    }

    /// Add a boxed source.
    pub fn push(&mut self, source: Box<dyn TrafficSource + 'a>) {
        assert!(
            !self.primed,
            "cannot add sources to a TrafficMix after events have been pulled"
        );
        self.sources.push(source);
        self.heads.push(None);
        self.last_times.push(f64::NEG_INFINITY);
    }

    /// Number of sources in the mix.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True if the mix has no sources.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The sources' labels, in insertion order.
    pub fn labels(&self) -> Vec<String> {
        self.sources.iter().map(|s| s.label().to_string()).collect()
    }

    /// The sources' roles, in insertion order.
    pub fn roles(&self) -> Vec<SourceRole> {
        self.sources.iter().map(|s| s.role()).collect()
    }

    fn refill(&mut self, i: usize) {
        let mut ev = self.sources[i].next_event();
        if let Some(e) = &mut ev {
            // Defensive monotonicity clamp: a regressive source cannot drag the merged
            // stream backwards in time. NaN is clamped too (it compares false both
            // ways): a sign-bit-set NaN would sort first under `total_cmp`, fail every
            // `< t_end` test and so blackhole the whole mix behind it.
            let last = self.last_times[i];
            if e.time.is_nan() || e.time < last {
                e.time = if last == f64::NEG_INFINITY { 0.0 } else { last };
            }
            // `+ 0.0` collapses -0.0 to +0.0 so the heap's total order matches the
            // numeric order the linear scan used.
            self.heap.push(std::cmp::Reverse(MergeKey {
                time: e.time + 0.0,
                index: i,
            }));
        }
        self.heads[i] = ev;
    }

    fn prime(&mut self) {
        if !self.primed {
            for i in 0..self.sources.len() {
                self.refill(i);
            }
            self.primed = true;
        }
    }

    /// Timestamp of the next event without consuming it.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.prime();
        self.heap.peek().map(|r| r.0.time)
    }

    /// The next event in merged timestamp order, tagged with its source index.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(usize, TrafficEvent)> {
        self.prime();
        let i = self.heap.pop()?.0.index;
        let ev = self.heads[i]
            .take()
            .expect("heap entry has a buffered head");
        self.last_times[i] = ev.time;
        self.refill(i);
        Some((i, ev))
    }

    /// The next event only if its timestamp is strictly below `t_end` — the primitive
    /// the event-driven runner uses to drain one sample interval at a time.
    pub fn next_before(&mut self, t_end: f64) -> Option<(usize, TrafficEvent)> {
        if self.peek_time()? < t_end {
            self.next()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scenario;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A scripted source for merge tests.
    struct Scripted {
        label: String,
        times: Vec<f64>,
        at: usize,
    }

    impl Scripted {
        fn new(label: &str, times: Vec<f64>) -> Self {
            Scripted {
                label: label.into(),
                times,
                at: 0,
            }
        }
    }

    impl TrafficSource for Scripted {
        fn label(&self) -> &str {
            &self.label
        }

        fn next_event(&mut self) -> Option<TrafficEvent> {
            let t = *self.times.get(self.at)?;
            self.at += 1;
            Some(TrafficEvent {
                time: t,
                key: FieldSchema::hyp().zero_value(),
                bytes: 64,
                payload: EventPayload::Packet,
            })
        }
    }

    #[test]
    fn merge_orders_by_time_with_stable_ties() {
        let mut mix = TrafficMix::new()
            .with(Scripted::new("a", vec![0.0, 2.0, 2.0, 5.0]))
            .with(Scripted::new("b", vec![1.0, 2.0, 3.0]));
        let mut got = Vec::new();
        while let Some((i, ev)) = mix.next() {
            got.push((i, ev.time));
        }
        assert_eq!(
            got,
            vec![
                (0, 0.0),
                (1, 1.0),
                (0, 2.0),
                (0, 2.0),
                (1, 2.0),
                (1, 3.0),
                (0, 5.0)
            ]
        );
    }

    #[test]
    fn next_before_respects_the_boundary() {
        let mut mix = TrafficMix::new().with(Scripted::new("a", vec![0.5, 1.5]));
        assert_eq!(mix.next_before(1.0).unwrap().1.time, 0.5);
        assert!(mix.next_before(1.0).is_none());
        assert_eq!(mix.next_before(2.0).unwrap().1.time, 1.5);
        assert!(mix.next_before(f64::INFINITY).is_none());
    }

    #[test]
    fn negative_zero_ties_keep_insertion_order() {
        // -0.0 and +0.0 are the same instant: the heap must not let total ordering of
        // the bit patterns override insertion-order tie-breaking.
        let mut mix = TrafficMix::new()
            .with(Scripted::new("a", vec![0.0]))
            .with(Scripted::new("b", vec![-0.0]));
        let got: Vec<usize> = std::iter::from_fn(|| mix.next()).map(|(i, _)| i).collect();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn many_source_merge_is_stable_and_ordered() {
        // Deterministic pseudo-random times across 17 sources: the merged stream is
        // nondecreasing and equal timestamps come out in insertion order.
        let mut state = 0x9E37u64;
        let mut step = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 8) as f64 * 0.25
        };
        let mut mix = TrafficMix::new();
        for s in 0..17 {
            let mut t = 0.0;
            let times: Vec<f64> = (0..20)
                .map(|_| {
                    t += step();
                    t
                })
                .collect();
            mix.push(Box::new(Scripted::new(&format!("s{s}"), times)));
        }
        let mut prev = (f64::NEG_INFINITY, 0usize);
        let mut n = 0;
        while let Some((i, ev)) = mix.next() {
            assert!(
                ev.time > prev.0 || (ev.time == prev.0 && i >= prev.1),
                "order violated at event {n}: {:?} then ({i}, {})",
                prev,
                ev.time
            );
            prev = (ev.time, i);
            n += 1;
        }
        assert_eq!(n, 17 * 20);
    }

    #[test]
    fn regressive_source_is_clamped() {
        let mut mix = TrafficMix::new().with(Scripted::new("bad", vec![3.0, 1.0, 4.0]));
        let times: Vec<f64> = std::iter::from_fn(|| mix.next())
            .map(|(_, e)| e.time)
            .collect();
        assert_eq!(times, vec![3.0, 3.0, 4.0]);
    }

    /// Drain `mix` the way the runner does — interval by interval through
    /// `next_before` — and return `(source, time)` per event.
    fn drain_by_intervals(mut mix: TrafficMix<'_>, dt: f64, intervals: usize) -> Vec<(usize, f64)> {
        let mut got = Vec::new();
        for k in 1..=intervals {
            while let Some((i, ev)) = mix.next_before(k as f64 * dt) {
                got.push((i, ev.time));
            }
        }
        got
    }

    #[test]
    fn nan_timestamps_are_clamped_to_the_previous_one() {
        // -NaN sorts before every number under `total_cmp`, +NaN after: unclamped, the
        // first would stall `next_before` forever and the second until the very end.
        for nan in [f64::NAN, -f64::NAN] {
            let mix = TrafficMix::new()
                .with(Scripted::new("bad", vec![0.5, nan, 2.5]))
                .with(Scripted::new("good", vec![0.25, 1.25, 2.25, 3.25]));
            let got = drain_by_intervals(mix, 1.0, 4);
            assert_eq!(
                got,
                vec![
                    (1, 0.25),
                    (0, 0.5),
                    (0, 0.5),
                    (1, 1.25),
                    (1, 2.25),
                    (0, 2.5),
                    (1, 3.25)
                ],
                "nan = {nan:?}"
            );
        }
    }

    #[test]
    fn first_event_nan_becomes_time_zero() {
        for nan in [f64::NAN, -f64::NAN] {
            let mix = TrafficMix::new()
                .with(Scripted::new("bad", vec![nan, nan, 1.5]))
                .with(Scripted::new("good", vec![0.0, 1.0, 2.0]));
            let got = drain_by_intervals(mix, 1.0, 3);
            // The healthy source still drains in full, in order, tie broken by index.
            assert_eq!(
                got,
                vec![(0, 0.0), (0, 0.0), (1, 0.0), (1, 1.0), (0, 1.5), (1, 2.0)],
                "nan = {nan:?}"
            );
        }
    }

    #[test]
    fn generator_matches_materialised_trace() {
        // The crafter's packets collected, then classified one by one under the schema:
        // the lazy generator over the same keys, seed, rate and start time emits exactly
        // those events — without the Vec.
        let schema = FieldSchema::ovs_ipv4();
        let keys = || {
            Scenario::SpDp
                .key_iter(&schema, &schema.zero_value())
                .cycle()
        };
        let rng = || StdRng::seed_from_u64(42);
        let trace: Vec<TimedPacket> = Crafter::new(&schema, keys(), rng(), 250.0, 10.0)
            .with_limit(700)
            .collect();
        let mut lazy =
            AttackGenerator::new("atk", &schema, keys(), rng(), 250.0, 10.0).with_limit(700);
        let events: Vec<TrafficEvent> = std::iter::from_fn(|| lazy.next_event()).collect();
        assert_eq!(events.len(), trace.len());
        for (i, (ev, tp)) in events.iter().zip(&trace).enumerate() {
            let key = FlowKey::from_packet(&tp.packet).checked_key(&schema);
            assert_eq!(Ok(&ev.key), key.as_ref(), "event {i}");
            assert_eq!((ev.time, ev.bytes), (tp.time, tp.packet.wire_len()));
            assert_eq!(ev.payload, EventPayload::Packet);
        }
    }

    #[test]
    fn generator_limit_caps_an_infinite_stream() {
        let schema = FieldSchema::ovs_ipv4();
        let mut gen = AttackGenerator::new(
            "atk",
            &schema,
            Scenario::Dp.key_iter(&schema, &schema.zero_value()).cycle(),
            StdRng::seed_from_u64(1),
            100.0,
            0.0,
        )
        .with_limit(23);
        let mut n = 0;
        while gen.next_event().is_some() {
            n += 1;
        }
        assert_eq!(n, 23);
    }
}
