//! Properties of the streaming traffic API: `TrafficMix` merge ordering (proptest) and
//! the lazy attack generators drained the way the runner drains them.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::attack::source::{EventPayload, TrafficEvent, TrafficMix, TrafficSource};
use tse::prelude::*;

/// A scripted source replaying an arbitrary list of timestamps.
struct Scripted {
    label: String,
    times: Vec<f64>,
    at: usize,
}

impl Scripted {
    fn new(label: String, times: Vec<f64>) -> Self {
        Scripted {
            label,
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

proptest! {
    /// For arbitrary source sets (arbitrary per-source event counts and inter-event
    /// gaps, including zero gaps and empty sources), the merged stream is nondecreasing
    /// in timestamp, loses no events, and preserves each source's own event order.
    #[test]
    fn mix_emits_nondecreasing_timestamps(
        deltas in proptest::collection::vec(
            proptest::collection::vec(0u32..2_000, 0..40),
            1..7,
        )
    ) {
        // Cumulative sums make each source's stream nondecreasing.
        let sources: Vec<Vec<f64>> = deltas
            .iter()
            .map(|ds| {
                let mut t = 0.0f64;
                ds.iter()
                    .map(|&d| {
                        t += d as f64 * 1e-3;
                        t
                    })
                    .collect()
            })
            .collect();
        let mut mix = TrafficMix::new();
        for (i, times) in sources.iter().enumerate() {
            mix.push(Box::new(Scripted::new(format!("s{i}"), times.clone())));
        }
        let mut merged: Vec<(usize, f64)> = Vec::new();
        while let Some((src, ev)) = mix.next() {
            merged.push((src, ev.time));
        }
        let expected_total: usize = sources.iter().map(Vec::len).sum();
        prop_assert_eq!(merged.len(), expected_total);
        // Global nondecreasing order.
        for w in merged.windows(2) {
            prop_assert!(
                w[0].1 <= w[1].1,
                "merged stream regressed: {} then {}",
                w[0].1,
                w[1].1
            );
        }
        // Per-source subsequences are exactly the source's own streams.
        for (i, times) in sources.iter().enumerate() {
            let got: Vec<f64> = merged
                .iter()
                .filter(|(s, _)| *s == i)
                .map(|(_, t)| *t)
                .collect();
            prop_assert_eq!(&got, times, "source {} shuffled", i);
        }
    }
}

#[test]
fn mix_drained_interval_by_interval_loses_nothing() {
    // next_before over successive windows visits every event exactly once, in order —
    // the contract the event-driven runner is built on.
    let schema = FieldSchema::ovs_ipv4();
    let keys = Scenario::Dp.key_iter(&schema, &schema.zero_value()).cycle();
    let rng = StdRng::seed_from_u64(11);
    let attack = AttackGenerator::new("atk", &schema, keys, rng, 7.0, 0.3).with_limit(40);
    let mut mix = TrafficMix::new().with(attack);
    let mut times = Vec::new();
    for step in 0..10 {
        let t_end = (step + 1) as f64;
        while let Some((_, ev)) = mix.next_before(t_end) {
            assert!(ev.time < t_end);
            times.push(ev.time);
        }
    }
    assert_eq!(times.len(), 40);
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn general_tse_generator_streams_unbounded_attacks() {
    // The General TSE as a lazy source: random keys, no materialised trace, throttled
    // only by the pull rate of the consumer.
    let schema = FieldSchema::ovs_ipv4();
    let base = schema.zero_value();
    let mut gen = AttackGenerator::new(
        "general",
        &schema,
        tse::attack::RandomKeys::new(StdRng::seed_from_u64(1), &schema, Scenario::SipSpDp, &base),
        StdRng::seed_from_u64(2),
        10_000.0,
        0.0,
    );
    let mut last = f64::NEG_INFINITY;
    for i in 0..5_000 {
        let ev = gen.next_event().expect("unbounded");
        assert!(ev.time >= last, "event {i} regressed");
        last = ev.time;
    }
}
