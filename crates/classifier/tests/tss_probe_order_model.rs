//! `TupleSpace` against an obviously-correct model of Alg. 1: a mask list to which each
//! new mask is prepended (newest first, the one probe order) and a flat entry list
//! scanned linearly.
//!
//! The schema is 5 bits wide, so "overlaps" and "matches" are brute-forced over all 32
//! headers instead of trusting the bit tricks under test. After every operation the
//! cache must report the model's probe order and hit counts, the model's action *and*
//! `masks_scanned`, and a first hit (`peek`) equal to the model's any-hit — Alg. 1's
//! early exit checked against Inv(2) — and `insert` must refuse every prospective
//! `(key, mask)` exactly where a full scan of the model's entries finds an overlap, so
//! the verdicts of the per-tuple agreement words, which a partial `remove_where` /
//! `expire_idle` leaves as narrow as the inserts made them, are pinned too.
//! A run of headers through `TupleSpace::lookup_run` must answer as the model's
//! lookups on each header in turn, up to and including the first miss, and leave the same
//! counters behind.
//! The test pins behaviour, not layout — the layout checks itself: every mutator ends on
//! `debug_assert!(self.lane_consistent())`, so each operation below (partial
//! `remove_where`, `remove_mask`) also holds the probe lane and the tuples to each other.

use proptest::prelude::*;
use tse_classifier::rule::Action;
use tse_classifier::tss::{InsertError, LookupOutcome, MegaflowEntry, TupleSpace};
use tse_packet::fields::{FieldDef, FieldSchema, Key, Mask};

const HEADERS: u128 = 32;

fn schema() -> FieldSchema {
    FieldSchema::new(vec![FieldDef::new("a", 3), FieldDef::new("b", 2)])
}

/// A 5-bit number as a key or mask: low 3 bits in field `a`, high 2 in field `b`.
fn fv(bits: u128) -> Key {
    Key::from_values(&schema(), &[bits & 0b111, bits >> 3])
}

fn bits_of(v: &Key) -> u128 {
    v.get(0) | (v.get(1) << 3)
}

fn covers(e: &MegaflowEntry, header: u128) -> bool {
    header & bits_of(&e.mask) == bits_of(&e.key)
}

/// The headers `key`/`mask` covers, as a bitmap over all 32 of them.
fn footprint(key: u128, mask: u128) -> u32 {
    (0..HEADERS)
        .filter(|h| h & mask == key & mask)
        .fold(0, |set, h| set | 1 << h)
}

struct Model {
    /// Probe order, with cumulative hits.
    masks: Vec<(Mask, u64)>,
    entries: Vec<MegaflowEntry>,
}

impl Model {
    /// Inv(2) by brute force: refuse iff some header would match both entries.
    fn insert(&mut self, key: u128, mask: u128, action: Action, now: f64) -> bool {
        let new = MegaflowEntry {
            key: fv(key & mask),
            mask: fv(mask),
            action,
            hits: 0,
            last_used: now,
            installed_at: now,
        };
        let overlaps = |e: &MegaflowEntry| (0..HEADERS).any(|h| covers(e, h) && covers(&new, h));
        if self.entries.iter().any(overlaps) {
            return false;
        }
        if !self.masks.iter().any(|(m, _)| *m == new.mask) {
            self.masks.insert(0, (new.mask.clone(), 0));
        }
        self.entries.push(new);
        true
    }

    /// Alg. 1, literally: one probe per mask in order, stop at the first hit.
    fn lookup(&mut self, header: u128, now: f64) -> (Option<Action>, usize) {
        for scanned in 1..=self.masks.len() {
            let mask = self.masks[scanned - 1].0.clone();
            let hit = self
                .entries
                .iter_mut()
                .find(|e| e.mask == mask && covers(e, header));
            if let Some(e) = hit {
                e.hits += 1;
                e.last_used = now;
                self.masks[scanned - 1].1 += 1;
                return (Some(e.action), scanned);
            }
        }
        (None, self.masks.len())
    }

    fn remove_where(&mut self, mut predicate: impl FnMut(&MegaflowEntry) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !predicate(e));
        let entries = &self.entries;
        self.masks
            .retain(|(m, _)| entries.iter().any(|e| e.mask == *m));
        before - self.entries.len()
    }

    /// Every entry matching `header`, probe order ignored.
    fn any_hit(&self, header: u128) -> Vec<&MegaflowEntry> {
        self.entries.iter().filter(|e| covers(e, header)).collect()
    }
}

fn check(cache: &TupleSpace, model: &Model, step: usize) -> Result<(), TestCaseError> {
    let at = format!("step {step}");
    prop_assert_eq!(
        cache.mask_usage(),
        model.masks.clone(),
        "{at}: probe order / hits"
    );
    prop_assert_eq!(cache.mask_count(), model.masks.len(), "{at}: mask_count");
    prop_assert_eq!(
        cache.entry_count(),
        model.entries.len(),
        "{at}: entry_count"
    );
    prop_assert_eq!(
        cache.entries().count(),
        model.entries.len(),
        "{at}: entries()"
    );
    prop_assert!(cache.check_independence(), "{at}: Inv(2)");
    // The Inv(2) check against the model's full entry scan, for every prospective
    // entry offered to a copy of the cache (a fresh one after each it takes): refused
    // iff some header would match both.
    let taken: Vec<u32> = model
        .entries
        .iter()
        .map(|e| footprint(bits_of(&e.key), bits_of(&e.mask)))
        .collect();
    let mut copy = cache.clone();
    for mask in 0..HEADERS {
        for key in (0..HEADERS).filter(|key| key & !mask == 0) {
            let new = footprint(key, mask);
            let refused = copy.insert(fv(key), fv(mask), Action::Deny, 0.0).is_err();
            if !refused {
                copy = cache.clone();
            }
            prop_assert_eq!(
                refused,
                taken.iter().any(|t| t & new != 0),
                "{}: insert({:05b}/{:05b})",
                at,
                key,
                mask
            );
        }
    }
    for h in 0..HEADERS {
        let any = model.any_hit(h);
        prop_assert!(any.len() <= 1, "{at}: model entries overlap on {h:05b}");
        prop_assert_eq!(
            cache.peek(&fv(h)),
            any.first().copied(),
            "{at}: first hit ≠ any hit"
        );
    }
    Ok(())
}

fn run(ops: &[(u8, u128, u128, u8)]) -> Result<(), TestCaseError> {
    let mut cache = TupleSpace::new(schema());
    let mut model = Model {
        masks: Vec::new(),
        entries: Vec::new(),
    };
    for (step, &(kind, a, b, c)) in ops.iter().enumerate() {
        let now = step as f64;
        match kind {
            0..=3 => {
                // Bias towards narrow masks so that inserts succeed and tuples pile up.
                let mask = if c < 3 { b | 0b10101 } else { b };
                let action = if c % 2 == 0 {
                    Action::Allow
                } else {
                    Action::Deny
                };
                let inserted = cache.insert(fv(a), fv(mask), action, now);
                if model.insert(a, mask, action, now) {
                    prop_assert_eq!(inserted, Ok(()));
                } else {
                    prop_assert!(matches!(inserted, Err(InsertError::Overlap { .. })));
                }
            }
            4..=6 => {
                let out = cache.lookup(&fv(a), now);
                prop_assert_eq!((out.action, out.masks_scanned), model.lookup(a, now));
            }
            7 => match c {
                0 => {
                    let deny = |e: &MegaflowEntry| e.action == Action::Deny;
                    prop_assert_eq!(cache.remove_where(deny), model.remove_where(deny));
                }
                1 => {
                    let cold = |e: &MegaflowEntry| e.hits == 0;
                    prop_assert_eq!(cache.remove_where(cold), model.remove_where(cold));
                }
                2 => {
                    let timeout = b as f64;
                    let idle = |e: &MegaflowEntry| now - e.last_used > timeout;
                    prop_assert_eq!(cache.expire_idle(now, timeout), model.remove_where(idle));
                }
                _ => {
                    // A mask picked from the probe order if there is one, else (and
                    // sometimes anyway) an arbitrary, probably absent, one.
                    let mask = match model.masks.get(a as usize % (model.masks.len() + 1)) {
                        Some((m, _)) => m.clone(),
                        None => fv(b),
                    };
                    let gone = model.remove_where(|e| e.mask == mask);
                    prop_assert_eq!(cache.remove_mask(&mask), gone);
                }
            },
            8 => {
                // A run of one to four headers, times nondecreasing with a tie, through
                // `lookup_run` against the model's Alg. 1 on each in turn, up to and
                // including the first miss; `check` then compares every hit count and
                // `last_used` stamp the run left.
                let headers = [a, b, a ^ b, a];
                let run: Vec<(Key, f64)> = headers[..1 + usize::from(c) % 4]
                    .iter()
                    .enumerate()
                    .map(|(i, &h)| (fv(h), now + (i / 2) as f64 / 4.0))
                    .collect();
                let run: Vec<(&Key, f64)> = run.iter().map(|(h, t)| (h, *t)).collect();
                let mut out = [LookupOutcome::default(); 4];
                let answered = cache.lookup_run(&run, &mut out);
                let mut expected = Vec::new();
                for (i, &h) in headers[..run.len()].iter().enumerate() {
                    let (action, scanned) = model.lookup(h, run[i].1);
                    expected.push((action, scanned));
                    if action.is_none() {
                        break;
                    }
                }
                let got: Vec<_> = out[..answered]
                    .iter()
                    .map(|o| (o.action, o.masks_scanned))
                    .collect();
                prop_assert_eq!(got, expected, "lookup_run at step {}", step);
            }
            _ => unreachable!("kind is drawn from 0..9"),
        }
        check(&cache, &model, step)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn tuple_space_follows_the_probe_order_model(
        ops in proptest::collection::vec((0u8..9, 0u128..32, 0u128..32, 0u8..5), 1..120),
    ) {
        run(&ops)?;
    }
}
