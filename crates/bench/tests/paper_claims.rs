//! The paper's claims, judged on the figure binaries' own sweeps.
//!
//! The SipDp-family binaries only report; this table judges. Each row is one claim: an
//! id, the paper locus it stands for, and a check over the sweep a binary prints, run
//! here at that binary's default parameters. The binary's source is compiled in as a
//! module, so its fixture, variant table and defaults are the ones under test.
//!
//! The thresholds are the acceptance inequalities the binaries used to assert behind a
//! horizon branch; they are not paper numbers. `PAPER.md` holds no figures, so a locus
//! names the section or figure a claim reproduces, or says the claim is the
//! reproduction's own.

#[allow(dead_code)]
#[path = "../src/bin/fig_mitigation_matrix.rs"]
mod fig_mitigation_matrix;

#[allow(dead_code)]
#[path = "../src/bin/fig_overlay_explosion.rs"]
mod fig_overlay_explosion;

#[allow(dead_code)]
#[path = "../src/bin/fig_shard_blast_radius.rs"]
mod fig_shard_blast_radius;

#[allow(dead_code)]
#[path = "../src/bin/ipv6_entry_explosion.rs"]
mod ipv6_entry_explosion;

use std::sync::OnceLock;

use tse_bench::sipdp::{self, Cell::*, Fixture, Outcome, Sweep, Variant};
use tse_bench::sipdp::{ATTACK_PPS, ATTACK_START};
use tse_bench::{FigArgs, Figure};
use tse_simnet::runner::Timeline;

/// One judged claim: `check` explains a failure.
struct Claim {
    id: &'static str,
    locus: &'static str,
    check: fn() -> Result<(), String>,
}

const CLAIMS: &[Claim] = &[
    Claim {
        id: "pinned-collapse",
        locus: "Fig. 8a, on one PMD shard of 16 (fig_mitigation_matrix)",
        check: || {
            let v = |cell| mitigation().value("pinned/none", cell);
            less(v(VictimDuring(0)), 0.25 * v(VictimBefore(0)))
        },
    },
    Claim {
        id: "rekey-restores",
        locus: "reproduction's own: RSS rekeying (fig_mitigation_matrix)",
        check: || {
            let v = |name, cell| mitigation().value(name, cell);
            less(
                0.5 * v("pinned/none", VictimBefore(0)),
                v("pinned/rekey", VictimDuring(0)),
            )
        },
    },
    Claim {
        id: "blast-radius-isolated",
        locus: "reproduction's own: per-shard caches (fig_shard_blast_radius)",
        check: || {
            let v = |cell| blast_radius().value("pinned", cell);
            less(0.99 * v(VictimBefore(1)), v(VictimDuring(1)))
        },
    },
    Claim {
        id: "overlay-bit-identical",
        locus: "reproduction's own: §5 through VLAN / VXLAN (fig_overlay_explosion)",
        check: || {
            for stack in ["none", "guard+rekey"] {
                let plain = &outcome(&overlay().0, &format!("plain/{stack}")).timeline;
                for wire in ["vlan", "vxlan"] {
                    let name = format!("{wire}/{stack}");
                    if outcome(&overlay().0, &name).timeline.samples != plain.samples {
                        return Err(format!("{name}'s timeline differs from plain/{stack}'s"));
                    }
                }
            }
            Ok(())
        },
    },
    Claim {
        id: "overlay-frames-encapsulated",
        locus: "reproduction's own: §5 through VLAN / VXLAN (fig_overlay_explosion)",
        check: || {
            // What keeps the bit-identity above from being vacuous: the same permitted
            // frames weigh more on the wire inside each envelope.
            for stack in ["none", "guard+rekey"] {
                let stats = |wire| outcome(&overlay().0, &format!("{wire}/{stack}")).stats;
                let [plain, vlan, vxlan] = ["plain", "vlan", "vxlan"].map(stats);
                less(plain.allowed_bytes as f64, vlan.allowed_bytes as f64)?;
                less(vlan.allowed_bytes as f64, vxlan.allowed_bytes as f64)?;
            }
            Ok(())
        },
    },
    Claim {
        id: "overlay-collapse",
        locus: "Fig. 8a through the wire parser (fig_overlay_explosion)",
        check: || {
            let v = |cell| overlay().0.value("plain/none", cell);
            less(v(TotalDuring), 0.25 * v(TotalBefore))
        },
    },
    Claim {
        id: "overlay-guard-rekey-restores",
        locus: "MFCGuard plus RSS rekeying (fig_overlay_explosion)",
        check: || {
            let v = |name, cell| overlay().0.value(name, cell);
            less(
                0.5 * v("plain/none", TotalBefore),
                v("plain/guard+rekey", TotalDuring),
            )
        },
    },
    Claim {
        id: "garbage-malformed-series",
        locus: "reproduction's own: undecodable frames (fig_overlay_explosion)",
        check: || {
            let malformed = overlay().1 .0.samples.iter().map(|s| s.malformed_pps);
            same(malformed.sum::<f64>().round() as u64, garbage_packets())
        },
    },
    Claim {
        id: "garbage-counted-on-shard-0",
        locus: "reproduction's own: undecodable frames (fig_overlay_explosion)",
        check: || same(overlay().1 .1, garbage_packets()),
    },
    Claim {
        id: "garbage-sparks-no-masks",
        locus: "reproduction's own: undecodable frames (fig_overlay_explosion)",
        check: || {
            let explosion = outcome(&overlay().0, "plain/none").timeline.peak_masks();
            less(
                8.0 * overlay().1 .0.peak_masks() as f64,
                explosion.max(8) as f64,
            )
        },
    },
    Claim {
        id: "ipv6-frames-classify",
        locus: "§5.4 through the wire parser (ipv6_entry_explosion)",
        check: || {
            let samples = ipv6().runs.iter().flat_map(|r| &r.timeline.samples);
            same(samples.filter(|s| s.malformed_pps != 0.0).count() as u64, 0)
        },
    },
    Claim {
        id: "ipv6-anomaly-inflates-entries",
        locus: "§5.4: a handful of masks, many entries (ipv6_entry_explosion)",
        check: || {
            let v = |cell| ipv6().value("ipv6_anomaly", cell);
            less(50.0 * v(PeakMasks), v(PeakEntries))
        },
    },
    Claim {
        id: "ipv6-wildcarding-sparks-masks",
        locus: "§5.4 against §3.2's bit-level wildcarding (ipv6_entry_explosion)",
        check: || {
            let v = |name| ipv6().value(name, PeakMasks);
            less(4.0 * v("ipv6_anomaly"), v("wildcarding"))
        },
    },
    Claim {
        id: "ipv6-wildcarding-degrades",
        locus: "§5.4 against §3.2's bit-level wildcarding (ipv6_entry_explosion)",
        check: || {
            let v = |cell| ipv6().value("wildcarding", cell);
            less(v(TotalDuring), 0.5 * v(TotalBefore))
        },
    },
];

fn less(low: f64, high: f64) -> Result<(), String> {
    if low < high {
        Ok(())
    } else {
        Err(format!("{low} is not below {high}"))
    }
}

fn same(value: u64, expected: u64) -> Result<(), String> {
    if value == expected {
        Ok(())
    } else {
        Err(format!("{value}, expected {expected}"))
    }
}

fn outcome<'a>(sweep: &'a Sweep, name: &str) -> &'a Outcome {
    let run = sweep.runs.iter().find(|r| r.variant.name == name);
    run.unwrap_or_else(|| panic!("no variant {name}"))
}

fn run(defaults: FigArgs, fixture: &Fixture, variants: &[Variant]) -> Sweep {
    sipdp::sweep(
        &mut Figure::new("paper_claims", defaults),
        fixture,
        variants,
    )
}

/// The pinned half of `fig_mitigation_matrix`.
fn mitigation() -> &'static Sweep {
    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    use fig_mitigation_matrix::{defaults, FIXTURE, PINNED};
    SWEEP.get_or_init(|| run(defaults(), &FIXTURE, &PINNED))
}

fn blast_radius() -> &'static Sweep {
    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    use fig_shard_blast_radius::{defaults, FIXTURE, VARIANTS};
    SWEEP.get_or_init(|| run(defaults(), &FIXTURE, &VARIANTS))
}

/// `fig_overlay_explosion`'s sweep and its garbage run's timeline and shard-0 count of
/// truncated frames.
fn overlay() -> &'static (Sweep, (Timeline, u64)) {
    static RUNS: OnceLock<(Sweep, (Timeline, u64))> = OnceLock::new();
    RUNS.get_or_init(|| {
        use fig_overlay_explosion::{defaults, garbage, FIXTURE, VARIANTS};
        let mut fig = Figure::new("paper_claims", defaults());
        let sweep = sipdp::sweep(&mut fig, &FIXTURE, &VARIANTS);
        let garbage = garbage(&mut fig, &sweep);
        (sweep, garbage)
    })
}

fn garbage_packets() -> u64 {
    let duration = fig_overlay_explosion::defaults().duration;
    sipdp::attack_packets(ATTACK_START, ATTACK_PPS, duration) as u64
}

fn ipv6() -> &'static Sweep {
    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    use ipv6_entry_explosion::{defaults, FIXTURE, VARIANTS};
    SWEEP.get_or_init(|| run(defaults(), &FIXTURE, &VARIANTS))
}

#[test]
fn every_claim_holds() {
    let failed: Vec<String> = CLAIMS
        .iter()
        .filter_map(|c| Some(format!("{} ({}): {}", c.id, c.locus, (c.check)().err()?)))
        .collect();
    assert!(failed.is_empty(), "claims failed:\n{}", failed.join("\n"));
}
