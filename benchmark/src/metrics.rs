//! Every metric the benchmark emits: name, unit, direction — and for an end-to-end
//! metric its regression bound, for a per-layer metric the end-to-end metric and
//! workload it is predicted to move. `BENCHMARK.json` mirrors these tables (a
//! self-test holds the two together); on every pairing not named under `moves` the
//! prediction is *no change*.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old` (negative: better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (old - new) / old.abs(),
            Better::Lower => (new - old) / old.abs(),
        }
    }
}

/// A metric a user of the system would see, measured over the timed repeats.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before the change
    /// counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, per workload.
pub const END_TO_END: [EndToEnd; 4] = [
    // Events drained (packets + probes + malformed) per wall second of the timed
    // `run_mix` call, each simulated second taken from the repeat that ran it fastest.
    // The issue asks for a 10 % bound. On the 2-core VM the first baseline was
    // recorded on, the host runs in phases 1.29x apart that last from a second to
    // minutes: two ten-seed sets of one commit spread by up to 14 % (tenant_gateway,
    // whose pool needs both cores quiet at once) and their medians moved by up to
    // 8 %, so 10 % would reject unchanged code. 25 % is the widest bound allowed.
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Process start to the `run_mix` call: runner, mix and warm-up. Milliseconds
    // today; it exists so that work moved out of the timed phase shows.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // `VmHWM` of the child process that ran the repeat.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    // 1 − failed_ops_share. The failure share itself is 0 on a correct run, and a
    // metric whose median is 0 has no relative bound; any failed event also makes the
    // run report `correct: false` and exit non-zero.
    EndToEnd {
        name: "ok_ops_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.0001,
    },
];

/// A metric of one layer (layer = crate), from the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit. `count` marks a deterministic counter: it must repeat exactly, and a
    /// performance-only change must leave it identical.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workload a change to this number should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const WIRE: &str = "events_per_s on benign_wire";
const SCAN: &str = "events_per_s on scan_deep, spray_pool";
const CHURN: &str = "events_per_s, peak_rss_mb on entry_churn_v6; events_per_s on tenant_gateway";
const EXPLAINS: &str = "explains the timings; a performance-only change leaves it identical";
const RUNNER: &str = "events_per_s on benign_wire, tenant_gateway";
const GATEWAY: &str = "events_per_s on tenant_gateway";
const EVERYWHERE: &str = "peak_rss_mb, events_per_s on every workload";

/// The per-layer metrics, in the order they print.
pub const PER_LAYER: [PerLayer; 36] = [
    layer("attack.drain_ns_per_event", "ns", Better::Lower, WIRE),
    layer("attack.events", "count", Better::Higher, EXPLAINS),
    layer("packet.decode_ns_per_frame", "ns", Better::Lower, WIRE),
    layer(
        "packet.extract_batch_ns_per_frame",
        "ns",
        Better::Lower,
        "none today: run_mix never calls the batched extractor (ROADMAP item 2 inversion)",
    ),
    layer("packet.to_key_ns", "ns", Better::Lower, WIRE),
    layer("packet.allocs_per_frame", "1/frame", Better::Lower, WIRE),
    layer("packet.decode_errors", "count", Better::Lower, EXPLAINS),
    layer("classifier.lookup_ns_per_mask", "ns", Better::Lower, SCAN),
    layer("classifier.lookup_fixed_ns", "ns", Better::Lower, SCAN),
    layer(
        "classifier.lookup_allocs_per_mask",
        "1/mask",
        Better::Lower,
        SCAN,
    ),
    layer("classifier.insert_ns", "ns", Better::Lower, CHURN),
    layer("classifier.expire_ns_per_entry", "ns", Better::Lower, CHURN),
    layer("switch.upcall_ns", "ns", Better::Lower, CHURN),
    layer(
        "classifier.masks_scanned_per_lookup",
        "masks",
        Better::Lower,
        EXPLAINS,
    ),
    layer("classifier.peak_masks", "count", Better::Lower, EXPLAINS),
    layer("classifier.peak_entries", "count", Better::Lower, EXPLAINS),
    layer("switch.upcall_share", "share", Better::Lower, EXPLAINS),
    layer("switch.upcalls", "count", Better::Lower, EXPLAINS),
    layer("switch.megaflow_hits", "count", Better::Higher, EXPLAINS),
    layer(
        "classifier.microflow_lookup_ns",
        "ns",
        Better::Lower,
        "none today: keyed entry points bypass the microflow cache",
    ),
    layer("switch.partition_ns_per_event", "ns", Better::Lower, RUNNER),
    layer("switch.process_ns_per_event", "ns", Better::Lower, RUNNER),
    layer(
        "switch.process_self_ns_per_event",
        "ns",
        Better::Lower,
        RUNNER,
    ),
    layer(
        "switch.exec_dispatch_us",
        "us",
        Better::Lower,
        "events_per_s on tenant_gateway (many small dispatches)",
    ),
    layer(
        "switch.exec_speedup",
        "x",
        Better::Higher,
        "events_per_s on spray_pool (up) and tenant_gateway (must not go down)",
    ),
    layer("mitigation.on_sample_us", "us", Better::Lower, GATEWAY),
    layer("mitigation.guard_sweep_us", "us", Better::Lower, GATEWAY),
    layer("mitigation.actions", "count", Better::Lower, EXPLAINS),
    layer("simnet.run_mix_self_share", "share", Better::Lower, RUNNER),
    layer("simnet.probe_ns", "ns", Better::Lower, GATEWAY),
    layer("simnet.telemetry_record_us", "us", Better::Lower, GATEWAY),
    layer(
        "simnet.telemetry_footprint_units",
        "count",
        Better::Lower,
        "peak_rss_mb on tenant_gateway",
    ),
    layer("simnet.chunk_events_mean", "events", Better::Higher, RUNNER),
    layer(
        "simnet.allocs_per_event",
        "1/event",
        Better::Lower,
        EVERYWHERE,
    ),
    layer(
        "simnet.alloc_bytes_per_event",
        "B/event",
        Better::Lower,
        EVERYWHERE,
    ),
    layer(
        "bench.trace_overhead_pct",
        "%",
        Better::Lower,
        "none: the cost of measuring stage by stage from outside",
    ),
];
