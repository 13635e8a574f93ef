//! The Tuple Space Search megaflow cache (MFC).
//!
//! The MFC is an unordered set of key/mask pairs `C = {(K, M)}` (§3.2). TSS maintains
//! the list of distinct masks `M` (the "tuple space") and, for each mask, a hash table
//! of the entries under it. Lookup (Alg. 1) iterates over the masks in order and
//! performs one hash probe per mask, early-exiting on the first hit — which is only
//! correct because entries are kept pairwise disjoint (Inv(2)).
//!
//! Alg. 1's scan is the hottest loop of the simulator — a deny miss probes every mask —
//! and nearly every probe of it misses. So what the scan reads is kept apart from what a
//! hit needs, in three parts:
//!
//! * the **probe lane**, one small record per tuple held in probe order — position in
//!   the lane *is* Alg. 1's scan order. A record carries the tuple's hit counter, where
//!   its plan words sit in the slab, which tuple it stands for, and a 64-bit **miss
//!   filter**: one bit per resident key, chosen by the top six bits of the key's hash;
//! * the **plan slab**, every tuple's *probe plan* — its mask's non-zero 64-bit words —
//!   in one tuple-space-wide vector of 32-byte records. The plan is the only form the
//!   scan reads a mask in, and it is stored once: a plan determines its mask, so finding
//!   a mask's tuple compares plans too. Each record also carries the word's
//!   **agreement**: the bits on which every resident key of the tuple agrees, and their
//!   common value — for a one-key tuple, the whole word of that key;
//! * the **tuples** — a mask, its entries and the index over them — in slots the lane
//!   points at. A tuple exists exactly as long as it has an entry, and nothing is keyed
//!   by mask.
//!
//! A probe first compares the header with the agreement, word by word straight off the
//! slab: a header that differs from the common value on an agreed bit matches no entry,
//! and the probe has missed without a hash. For an explosion — one entry per mask — that
//! test is exact, so it ends every miss, having read a lane record and a few plan words
//! that sit beside their neighbours', and the whole scan stays cache-resident. A probe
//! that survives hashes `header AND mask` off the same words and tests the **miss
//! filter** bit the hash names: a clear bit proves the miss. Only on a set bit does the
//! probe go on, hash in hand, to the tuple: it walks the tuple's flat open-addressed
//! index of `u64` slots from the slot the hash names, and compares against a stored key
//! only where a slot's tag (the hash's high 32 bits) matches. A missed probe materialises
//! no masked key and allocates nothing. Inv(2)'s conflict check rules tuples out with the
//! same agreement test, restricted to the bits the prospective entry keeps.
//!
//! A datapath's run of consecutive hits is looked up together, up to four headers to a
//! walk of the lane ([`TupleSpace::lookup_run`]): the run's header words are laid out
//! word-major, so each lane record and its plan words are read once for the run, and the
//! agreement test runs for every header still looking at once, without a branch. A header
//! that survives it goes on alone, exactly as a probe does, and leaves the walk at its
//! first hit; the walk ends when every header has hit, or at the end of the lane. The
//! results are committed afterwards, header by header in run order — the hit counters
//! bumped and `last_used` stamped as [`TupleSpace::lookup`] would have — up to and
//! including the first miss. The headers behind that miss are left as they were, for the
//! datapath to look up again once the miss's upcall has installed its entry.
//!
//! A tuple is written on the rare path, and each write is one pass. An insert walks the
//! lane once: the same walk proves Inv(2) against every tuple and finds the tuple of the
//! entry's mask, and where it hashed the key to probe that tuple, the hash is the one the
//! entry is filed under. Creating a tuple compiles its mask's plan into the slab, and
//! every insert appends to one dense `Vec<MegaflowEntry>` (so entries of a tuple are
//! held, and [`TupleSpace::entries`] yields them, in insertion order;
//! [`TupleSpace::render`] sorts them by key, so its output does not depend on arrival
//! order), files the entry's position in the index, sets its filter bit and folds the
//! key into the agreement. Every mutation leaves lane, slab and tuples describing the
//! same tuple space; debug builds check that after each one.
//!
//! The index hash is fixed-seed. Keys an attacker chooses can therefore lengthen a
//! linear-probe run, spread a tuple's keys until they agree on no bit, or all land on
//! filter bits that are set and so send every probe on to the tuple — in *host* time
//! only: `masks_scanned`, and with it every simulated cost, counts tuples probed and
//! cannot be moved that way.
//!
//! > *Observation 1: the time-complexity of TSS lookup grows linearly with the number of
//! > distinct masks O(|M|) and the space-complexity linearly with the number of entries
//! > O(|C|).*
//!
//! This module exposes exactly those two quantities ([`TupleSpace::mask_count`] /
//! [`TupleSpace::entry_count`]) plus the per-lookup work ([`LookupOutcome::masks_scanned`])
//! that the switch's cost model converts into throughput.

use std::collections::VecDeque;
use std::ops::Range;

use tse_packet::fields::{self, FieldSchema, Key, Mask};
use tse_packet::rss::splitmix64_mix;

use crate::key_words;
use crate::rule::Action;

/// One megaflow entry: a key under a mask, its action, and bookkeeping used by the
/// eviction policy and MFCGuard.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaflowEntry {
    /// Masked key (always stored canonicalised: `key & mask`).
    pub key: Key,
    /// The entry's mask (shared with every other entry in the same tuple).
    pub mask: Mask,
    /// Cached action.
    pub action: Action,
    /// Number of fast-path hits.
    pub hits: u64,
    /// Simulation time (seconds) of the last hit or of insertion.
    pub last_used: f64,
    /// Simulation time the entry was installed.
    pub installed_at: f64,
}

/// Result of a TSS lookup.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LookupOutcome {
    /// The matched action, or `None` on a cache miss.
    pub action: Option<Action>,
    /// Number of masks scanned (= number of hash probes). On a miss this equals the
    /// total number of masks — the attacker's whole point.
    pub masks_scanned: usize,
}

/// Where a newly created mask joins the probe order. The order is fixed from then on: a
/// miss scans every mask whatever the order, and that is the path the attack exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskOrdering {
    /// Probe masks in insertion order (simplest; the paper's model).
    #[default]
    Insertion,
    /// Probe masks newest-first: a newly created mask is prepended to the probe order.
    /// This models the observed OVS datapath behaviour that a long-established flow's
    /// mask does not stay at the front of the scan once an attack starts spawning masks,
    /// so victim traffic pays the (near-)full scan — the regime measured in Fig. 8a/9a,
    /// and the order every datapath's megaflow cache is built with.
    NewestFirst,
}

/// One step of a probe plan — a non-zero 64-bit word of a mask — and its tuple's
/// **agreement word**: the bits of it on which every resident key agrees, and their
/// common value. A header whose word differs from `value` anywhere on `agree` matches no
/// entry of the tuple, and neither does a prospective entry that differs there on a bit
/// it keeps ([`PlanWord::excludes`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct PlanWord {
    /// Which of [`Probe::words`].
    word: u8,
    /// The mask's bits in that word.
    bits: u64,
    /// The bits of `bits` every resident key has alike: all of them for a one-key tuple.
    agree: u64,
    /// The resident keys' bits on `agree`, zero elsewhere.
    value: u64,
}

// The scan reads one lane record and its plan words per tuple, two records to a cache
// line. A field added to either widens every step of every scan: it has to fail here
// first.
const _: () = assert!(std::mem::size_of::<PlanWord>() == 32);
const _: () = assert!(std::mem::size_of::<LaneRecord>() == 32);

impl PlanWord {
    /// The bits of key word `k` that rule every entry of the tuple out: non-zero iff `k`
    /// differs on some bit all resident keys agree on.
    #[inline]
    fn excludes(&self, k: u64) -> u64 {
        (k ^ self.value) & self.agree
    }
}

/// A mask compiled into its probe plan, on the stack: what the slab holds for a tuple,
/// before (or without) a tuple to hold it for. Its agreement words are empty.
struct Plan {
    words: [PlanWord; 16],
    len: usize,
}

impl Plan {
    fn of(mask: &Mask) -> Self {
        let mut plan = Plan {
            words: [PlanWord::default(); 16],
            len: 0,
        };
        for (word, &bits) in key_words(mask).iter().enumerate() {
            if bits != 0 {
                plan.words[plan.len] = PlanWord {
                    word: word as u8,
                    bits,
                    ..PlanWord::default()
                };
                plan.len += 1;
            }
        }
        plan
    }

    fn words(&self) -> &[PlanWord] {
        &self.words[..self.len]
    }

    /// Whether `words` is this plan, agreement aside: whether they compile one mask.
    fn is(&self, words: &[PlanWord]) -> bool {
        words.len() == self.len
            && words
                .iter()
                .zip(self.words())
                .all(|(a, b)| (a.word, a.bits) == (b.word, b.bits))
    }
}

/// A header laid out for probing, once per lookup: every tuple's plan reads it.
struct Probe<'a> {
    header: &'a Key,
    /// The header as [`key_words`] lays it out.
    words: [u64; 16],
}

impl<'a> Probe<'a> {
    fn new(header: &'a Key) -> Self {
        Probe {
            header,
            words: key_words(header),
        }
    }

    /// The header's word that plan word `w` reads.
    #[inline]
    fn word(&self, w: &PlanWord) -> u64 {
        self.words[usize::from(w.word & 15)]
    }
}

/// Fold a resident (masked) key, laid out for probing, into its tuple's agreement words;
/// `first` starts the fold over at that key.
fn agree(plan: &mut [PlanWord], key: &Probe, first: bool) {
    for w in plan {
        let k = key.word(w);
        if first {
            (w.agree, w.value) = (w.bits, k);
        }
        w.agree &= !(w.value ^ k);
        w.value &= w.agree;
    }
}

/// Hash of `header AND mask`, off the mask's plan and `word`, the header's word each plan
/// word reads: multiply-rotate per non-zero mask word. The index takes the hash's high
/// half (slot and tag) and the miss filter its top six bits; a bit of a raw multiply
/// depends on the input bits at or below it alone, so the SplitMix64 finaliser folds the
/// whole state into every one of them.
#[inline]
fn masked_hash(plan: &[PlanWord], word: impl Fn(&PlanWord) -> u64) -> u64 {
    let mut h = 0u64;
    for w in plan {
        h = (h ^ (word(w) & w.bits))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(31);
    }
    splitmix64_mix(h)
}

/// The miss-filter bit of a key with this hash.
#[inline]
fn filter_bit(hash: u64) -> u64 {
    1 << (hash >> 58)
}

/// The most headers [`TupleSpace::lookup_run`] walks the lane for at once.
const RUN: usize = 4;

/// The hash's high half, kept in a slot as its tag.
const TAG: u64 = !0 << 32;

/// Index slots for this many entries: a power of two, at most half full.
fn slots_for(entries: usize) -> usize {
    (entries * 2).next_power_of_two().max(2)
}

/// Put a slot value in the first free slot of its linear-probe run. The run starts
/// where the tag's low bits say, so a slot can be re-placed without its key.
fn place(index: &mut [u64], slot: u64) {
    let wrap = index.len() - 1;
    let mut i = (slot >> 32) as usize & wrap;
    while index[i] != 0 {
        i = (i + 1) & wrap;
    }
    index[i] = slot;
}

/// File entry `pos`, whose key hashes to `hash`.
fn file(index: &mut [u64], hash: u64, pos: usize) {
    debug_assert!(pos < u32::MAX as usize, "a slot holds 32 bits of position");
    place(index, (hash & TAG) | (pos as u64 + 1));
}

/// One tuple as Alg. 1's scan reads it: a record of the probe lane.
#[derive(Debug, Clone)]
struct LaneRecord {
    /// The miss filter: the OR of [`filter_bit`] over the tuple's resident keys (a sweep
    /// recomputes it exactly; 0 marks a tuple left empty, about to be dropped). A probe
    /// whose bit is clear has missed.
    filter: u64,
    /// Cumulative fast-path hits on this tuple, reported by [`TupleSpace::mask_usage`].
    hits: u64,
    /// Where in [`TupleSpace::slab`] the tuple's plan starts, and how many words it has.
    plan_start: u32,
    plan_len: u32,
    /// The tuple's slot in [`TupleSpace::tuples`].
    tuple: u32,
}

impl LaneRecord {
    fn plan(&self) -> Range<usize> {
        let start = self.plan_start as usize;
        start..start + self.plan_len as usize
    }
}

/// One tuple off the scan's path: every entry sharing a mask and the index that finds
/// one of them from its hash. Its plan and agreement words live in the slab, its hit
/// counter and miss filter in its lane record; whatever hashes or folds a key in here
/// is handed its plan words.
///
/// **Store.** `entries` is dense and in insertion order; a sweep compacts it in place.
/// `index` is an open-addressed table of `u64` slots, a power of two long and at most
/// half full: a slot is 0 when free, else `tag << 32 | position + 1` — the high 32 bits
/// of the key's hash and where in `entries` the key lives. A key's run starts at the
/// slot its tag's low bits name, so growing the index re-places the slots without
/// reading a key; a sweep empties and refiles it, so it never holds a tombstone.
#[derive(Debug, Clone)]
struct Tuple {
    /// The mask every entry of this tuple shares.
    mask: Mask,
    /// The entries, in insertion order. Never empty while the tuple is in the cache.
    entries: Vec<MegaflowEntry>,
    /// Hash slot -> position in `entries`; see the type's doc for the slot layout.
    index: Vec<u64>,
}

impl Tuple {
    /// A tuple made for, and holding, its first entry, and that entry's filter bit.
    /// Most tuples of an explosion never get a second entry, so the store starts at
    /// exactly one.
    fn new(first: MegaflowEntry, plan: &mut [PlanWord]) -> (Self, u64) {
        let mut tuple = Tuple {
            mask: first.mask.clone(),
            entries: Vec::with_capacity(1),
            index: Vec::new(),
        };
        let filter = tuple.push(plan, first, None);
        (tuple, filter)
    }

    /// Position in `entries` of the entry `header` matches under this tuple's mask,
    /// given the hash of `header AND mask`. Kept out of line: only a probe that passed
    /// the filter gets here, and inlined it would cost every other probe its registers.
    #[inline(never)]
    fn find(&self, hash: u64, header: &Key) -> Option<usize> {
        let wrap = self.index.len() - 1;
        let mut i = (hash >> 32) as usize & wrap;
        // At most half the slots are taken, so the run ends at a free one.
        loop {
            let slot = self.index[i];
            if slot == 0 {
                return None;
            }
            let pos = (slot as u32 - 1) as usize;
            if slot & TAG == hash & TAG && self.holds(pos, header) {
                return Some(pos);
            }
            i = (i + 1) & wrap;
        }
    }

    /// Whether entry `pos` is the one `header` matches.
    fn holds(&self, pos: usize, header: &Key) -> bool {
        fields::matches(header, &self.entries[pos].key, &self.mask)
    }

    /// Append an entry (the caller has checked Inv(2), so its key is not resident) and
    /// fold it into the agreement words; returns its filter bit. `hash` is the key's, if
    /// the caller has it already.
    fn push(&mut self, plan: &mut [PlanWord], entry: MegaflowEntry, hash: Option<u64>) -> u64 {
        let key = Probe::new(&entry.key);
        agree(plan, &key, self.entries.is_empty());
        let hash = hash.unwrap_or_else(|| masked_hash(plan, |w| key.word(w)));
        self.entries.push(entry);
        if self.entries.len() * 2 > self.index.len() {
            // Grow: the filed slots move into an index sized for the entries there are.
            let grown = vec![0; slots_for(self.entries.len())];
            for slot in std::mem::replace(&mut self.index, grown) {
                if slot != 0 {
                    place(&mut self.index, slot);
                }
            }
        }
        file(&mut self.index, hash, self.entries.len() - 1);
        filter_bit(hash)
    }

    /// Drop every entry `expired` names, in one walk: the survivors close ranks in order
    /// and are folded into the agreement words afresh and refiled as they pass, each laid
    /// out and hashed once. Returns the miss filter of what is left — 0 for a tuple left
    /// empty, whose agreement words are then stale — or `None`, with nothing written, if
    /// no entry went. `expired` sees each entry once, in order.
    fn sweep(
        &mut self,
        plan: &mut [PlanWord],
        mut expired: impl FnMut(&MegaflowEntry) -> bool,
    ) -> Option<u64> {
        let first = self.entries.iter().position(&mut expired)?;
        let before = self.entries.len();
        let (mut kept, mut filter) = (0, 0);
        for pos in 0..before {
            // `expired` has answered for the entries up to `first` already.
            if pos == first || (pos > first && expired(&self.entries[pos])) {
                continue;
            }
            if kept == 0 {
                // The index is emptied for the first survivor — a tuple left empty skips
                // it — and sized for every entry from that one on, the most there can be
                // left: exact when the oldest entries are the ones to go.
                self.index.clear();
                self.index.resize(slots_for(before - pos), 0);
            }
            if kept < pos {
                self.entries[kept] = self.entries[pos].clone();
            }
            let key = Probe::new(&self.entries[kept].key);
            agree(plan, &key, kept == 0);
            let hash = masked_hash(plan, |w| key.word(w));
            file(&mut self.index, hash, kept);
            filter |= filter_bit(hash);
            kept += 1;
        }
        self.entries.truncate(kept);
        Some(filter)
    }
}

/// The TSS megaflow cache: its probe lane, plan slab and tuples.
#[derive(Debug, Clone)]
pub struct TupleSpace {
    schema: FieldSchema,
    ordering: MaskOrdering,
    /// One record per distinct mask; position is Alg. 1's scan order. A deque because a
    /// new record goes to either end ([`MaskOrdering::NewestFirst`] prepends).
    lane: VecDeque<LaneRecord>,
    /// Every tuple's plan words with their agreement, each tuple's together; a lane
    /// record's [`LaneRecord::plan`] names its own. A new tuple appends; dropping tuples
    /// repacks the survivors' in probe order. The agreement is kept in step by every
    /// mutator: insert folds the new key in, a sweep folds the survivors afresh.
    slab: Vec<PlanWord>,
    /// The tuples, each in the slot its lane record names. Slot order means nothing.
    tuples: Vec<Tuple>,
}

impl TupleSpace {
    /// Create an empty cache.
    pub fn new(schema: FieldSchema) -> Self {
        TupleSpace {
            schema,
            ordering: MaskOrdering::Insertion,
            lane: VecDeque::new(),
            slab: Vec::new(),
            tuples: Vec::new(),
        }
    }

    /// Create an empty cache with an explicit mask-ordering policy.
    pub fn with_ordering(schema: FieldSchema, ordering: MaskOrdering) -> Self {
        TupleSpace {
            ordering,
            ..TupleSpace::new(schema)
        }
    }

    /// The schema of keys stored in the cache.
    pub fn schema(&self) -> &FieldSchema {
        &self.schema
    }

    /// The probe-order policy in effect.
    pub fn ordering(&self) -> MaskOrdering {
        self.ordering
    }

    /// Number of distinct masks |M| — the attacker's target metric.
    pub fn mask_count(&self) -> usize {
        self.lane.len()
    }

    /// Number of entries |C|.
    pub fn entry_count(&self) -> usize {
        self.tuples.iter().map(|t| t.entries.len()).sum()
    }

    /// The tuple a lane record stands for.
    fn tuple(&self, rec: &LaneRecord) -> &Tuple {
        &self.tuples[rec.tuple as usize]
    }

    /// The distinct masks in probe order, each with its cumulative fast-path hit count
    /// — the signal a mask-pressure eviction policy ranks on (attack masks accumulate
    /// hits slowly because every adversarial key is fresh; a victim's long-lived mask
    /// is hit once per packet).
    pub fn mask_usage(&self) -> Vec<(Mask, u64)> {
        self.lane
            .iter()
            .map(|rec| (self.tuple(rec).mask.clone(), rec.hits))
            .collect()
    }

    /// Remove one mask and every entry of its tuple (shrinking |M| by one); returns
    /// the number of entries removed (0 if the mask is not present).
    pub fn remove_mask(&mut self, mask: &Mask) -> usize {
        let plan = Plan::of(mask);
        let Some(pos) = self
            .lane
            .iter()
            .position(|rec| plan.is(&self.slab[rec.plan()]))
        else {
            return 0;
        };
        let rec = &mut self.lane[pos];
        rec.filter = 0;
        let entries = std::mem::take(&mut self.tuples[rec.tuple as usize].entries);
        self.drop_emptied();
        debug_assert!(self.lane_consistent());
        entries.len()
    }

    /// Iterate over all entries, tuple by tuple in probe order, and within a tuple in
    /// the order they were inserted.
    pub fn entries(&self) -> impl Iterator<Item = &MegaflowEntry> {
        self.lane.iter().flat_map(|rec| &self.tuple(rec).entries)
    }

    /// One probe of Alg. 1: the position, among its tuple's entries, of the entry the
    /// probed header matches under the record's mask. [`Self::lookup`] and [`Self::peek`]
    /// probe with this one; [`Self::lookup_run`] and the Inv(2) walk ([`Self::walk_for`])
    /// run the agreement test their own way and share its tail. A header that disagrees
    /// with the agreement words misses without a hash; one that survives them is hashed,
    /// and on a clear filter bit misses having read the lane record and its plan words,
    /// nothing of the tuple. It borrows the slab and the tuples, not `self`: `lookup`
    /// scans the lane mutably.
    #[inline(always)]
    fn probe(
        slab: &[PlanWord],
        tuples: &[Tuple],
        rec: &LaneRecord,
        probe: &Probe,
    ) -> Option<usize> {
        let plan = &slab[rec.plan()];
        if plan.iter().fold(0, |x, w| x | w.excludes(probe.word(w))) != 0 {
            return None;
        }
        let hash = masked_hash(plan, |w| probe.word(w));
        Self::find_hashed(tuples, rec, hash, probe.header)
    }

    /// The rest of a probe that passed the agreement test, hash in hand: the miss filter,
    /// then the tuple.
    #[inline(always)]
    fn find_hashed(tuples: &[Tuple], rec: &LaneRecord, hash: u64, header: &Key) -> Option<usize> {
        if rec.filter & filter_bit(hash) == 0 {
            return None;
        }
        tuples[rec.tuple as usize].find(hash, header)
    }

    /// Megaflow lookup — Algorithm 1 of the paper.
    ///
    /// For each mask `M` in the mask list, hash `h AND M` and probe the mask's tuple.
    /// Return a hit on the first match (correct thanks to entry disjointness); a miss
    /// after all masks have been probed. The hit's statistics are bumped in the same
    /// probe.
    pub fn lookup(&mut self, header: &Key, now: f64) -> LookupOutcome {
        let probe = Probe::new(header);
        let mut masks_scanned = 0;
        let mut action = None;
        for rec in &mut self.lane {
            masks_scanned += 1;
            if let Some(pos) = Self::probe(&self.slab, &self.tuples, rec, &probe) {
                rec.hits += 1;
                let entry = &mut self.tuples[rec.tuple as usize].entries[pos];
                entry.hits += 1;
                entry.last_used = now;
                action = Some(entry.action);
                break;
            }
        }
        LookupOutcome {
            action,
            masks_scanned,
        }
    }

    /// Alg. 1 for a run of headers at nondecreasing times, up to four of them, with the
    /// lane walked once for all: the outcomes [`Self::lookup`] on each in turn gives, up to
    /// and including the first miss, written to `out`'s first slots. Returns how many
    /// headers were answered — at least one of a non-empty run. Those after a miss are left
    /// untouched — no counter bumped — for the caller to look up again once the miss's
    /// upcall has installed its entry.
    ///
    /// Each lane record's plan words are tested against every header still looking, word
    /// by word and without a branch; only a header that survives hashes, and a header
    /// leaves the walk at its first hit, at the position `lookup` would stop at. The hits
    /// are committed afterwards, header by header in run order. A hit bumps counters and
    /// stamps `last_used`, none of which a probe reads, so the walk cannot tell the run
    /// from `lookup` called on each header in turn.
    pub fn lookup_run(&mut self, run: &[(&Key, f64)], out: &mut [LookupOutcome]) -> usize {
        let n = run.len().min(out.len()).min(RUN);
        if n <= 1 {
            let Some((&(header, now), slot)) = run.first().zip(out.first_mut()) else {
                return 0;
            };
            *slot = self.lookup(header, now);
            return 1;
        }
        // The run's header words, word-major: plan word `w` reads row `w.word`, a column
        // per header.
        let mut words = [[0u64; RUN]; 16];
        for (j, (header, _)) in run[..n].iter().enumerate() {
            for (row, &k) in words.iter_mut().zip(key_words(header).iter()) {
                row[j] = k;
            }
        }
        // One bit per header still looking; where in the lane, and in its tuple, each
        // header that left hit.
        let mut active = (1u32 << n) - 1;
        let mut found = [(0, 0); RUN];
        for (i, rec) in self.lane.iter().enumerate() {
            let plan = &self.slab[rec.plan()];
            let mut excluded = [0u64; RUN];
            for w in plan {
                let row = &words[usize::from(w.word & 15)];
                for (x, &k) in excluded.iter_mut().zip(row) {
                    *x |= w.excludes(k);
                }
            }
            let mut live = active;
            for (j, &x) in excluded.iter().enumerate() {
                live &= !(u32::from(x != 0) << j);
            }
            while live != 0 {
                let j = live.trailing_zeros() as usize;
                live &= live - 1;
                let hash = masked_hash(plan, |w| words[usize::from(w.word & 15)][j]);
                if let Some(pos) = Self::find_hashed(&self.tuples, rec, hash, run[j].0) {
                    found[j] = (i, pos);
                    active &= !(1 << j);
                }
            }
            if active == 0 {
                break;
            }
        }
        for (j, &(_, now)) in run[..n].iter().enumerate() {
            if active & 1 << j != 0 {
                out[j] = LookupOutcome {
                    action: None,
                    masks_scanned: self.lane.len(),
                };
                return j + 1;
            }
            let (i, pos) = found[j];
            let rec = &mut self.lane[i];
            rec.hits += 1;
            let entry = &mut self.tuples[rec.tuple as usize].entries[pos];
            entry.hits += 1;
            entry.last_used = now;
            out[j] = LookupOutcome {
                action: Some(entry.action),
                masks_scanned: i + 1,
            };
        }
        n
    }

    /// Read-only lookup that does not update statistics (used by tests and MFCGuard).
    pub fn peek(&self, header: &Key) -> Option<&MegaflowEntry> {
        let probe = Probe::new(header);
        self.lane.iter().find_map(|rec| {
            Self::probe(&self.slab, &self.tuples, rec, &probe)
                .map(|pos| &self.tuple(rec).entries[pos])
        })
    }

    /// Insert a new megaflow entry. Enforces the two slow-path invariants of §3.2:
    ///
    /// * **Inv(1) Cover** is the caller's responsibility (the generation strategy always
    ///   derives `key` from the header that sparked the entry);
    /// * **Inv(2) Independence** is checked here: inserting an entry that overlaps an
    ///   existing one returns [`InsertError::Overlap`] with the entry
    ///   [`Self::find_conflict`] reports (a real OVS bug class this reproduction treats
    ///   as a hard error; the slow path narrows the entry by it and tries again).
    ///
    /// It is one walk of the lane: the Inv(2) check finds the tuple of the entry's mask
    /// on its way, and the key is hashed once — by that walk, where it probed the tuple.
    /// A mask no tuple has yet gets a new tuple, which joins the probe order where
    /// [`Self::ordering`] says.
    pub fn insert(
        &mut self,
        key: Key,
        mask: Mask,
        action: Action,
        now: f64,
    ) -> Result<(), InsertError> {
        let key = key.apply_mask(&mask);
        let plan = Plan::of(&mask);
        let (home, hash) = self
            .walk_for(&key, &mask, &plan)
            .map_err(|e| InsertError::Overlap {
                existing: Box::new((e.key.clone(), e.mask.clone())),
            })?;
        let entry = MegaflowEntry {
            key,
            mask,
            action,
            hits: 0,
            last_used: now,
            installed_at: now,
        };
        match home {
            Some(pos) => {
                let rec = &mut self.lane[pos];
                let words = &mut self.slab[rec.plan()];
                rec.filter |= self.tuples[rec.tuple as usize].push(words, entry, hash);
            }
            None => {
                debug_assert!(
                    self.slab.len() + plan.len <= u32::MAX as usize,
                    "a lane record holds 32 bits of slab position and of tuple slot"
                );
                let plan_start = self.slab.len();
                self.slab.extend_from_slice(plan.words());
                let (tuple, filter) = Tuple::new(entry, &mut self.slab[plan_start..]);
                let rec = LaneRecord {
                    filter,
                    hits: 0,
                    plan_start: plan_start as u32,
                    plan_len: plan.len as u32,
                    tuple: self.tuples.len() as u32,
                };
                self.tuples.push(tuple);
                match self.ordering {
                    MaskOrdering::NewestFirst => self.lane.push_front(rec),
                    _ => self.lane.push_back(rec),
                }
            }
        }
        debug_assert!(self.lane_consistent());
        Ok(())
    }

    /// Find an existing entry that overlaps a prospective `(key, mask)` entry, i.e. one
    /// that would violate the Independence invariant. `key` is the entry's key as it
    /// would be stored, `key AND mask` — every caller holds it in that form. Returns the
    /// conflicting entry's key and mask: of the first tuple in probe order that holds
    /// one, its smallest overlapping key.
    ///
    /// This is the primitive the slow-path megaflow generation uses to decide which extra
    /// bits to un-wildcard (§3.2): while a conflict exists, the generator narrows the new
    /// entry. [`TupleSpace::insert`] answers the same question on the same walk of the
    /// lane, and reports the same entry when it refuses one.
    ///
    /// The `conflict_index_agrees_with_full_scan` unit test (every query of the 3-bit
    /// space) and the `find_conflict_matches_the_entry_scan_across_mutations` proptest
    /// (a 128-bit field, through every mutator, `insert` included) pin this path to the
    /// index-less entry scan.
    pub fn find_conflict(&self, key: &Key, mask: &Mask) -> Option<(Key, Mask)> {
        let conflict = self.walk_for(key, mask, &Plan::of(mask)).err();
        conflict.map(|e| (e.key.clone(), e.mask.clone()))
    }

    /// The one walk of the lane for a prospective entry `(key, mask)`, `key` stored
    /// masked and `plan` compiled from `mask`: `Err` with the entry it overlaps, as
    /// [`Self::find_conflict`] reports it, or else where in the lane the tuple of `mask`
    /// is, if one is resident, and the key's hash under `mask` if the walk took it.
    ///
    /// Complexity note — the comparable-mask conflict index: tuples are visited in
    /// probe order, and each is first checked against its agreement words, the ones a
    /// probe tests first: a conflicting entry must agree with the new key on every bit
    /// of `M AND mask`, so a common bit on which every stored key has the other value
    /// rules the whole tuple out. That prefilter reads the lane record and the plan
    /// words — word-wise, without allocating — and nothing of the tuple. Only surviving
    /// tuples are touched:
    ///
    /// * a tuple whose mask is entirely covered by the new mask is answered by a
    ///   **single probe** (comparable entries conflict only if they agree
    ///   on every common bit), which stays fast even when the tuple holds hundreds of
    ///   thousands of entries (the IPv6 exact-match anomaly of §5.4). The tuple of
    ///   `mask` itself is one of these, and its probe's hash is the key's;
    /// * an incomparable tuple falls back to an entry scan — but since most tuples
    ///   were already excluded by their agreement, the common no-conflict case of
    ///   megaflow generation never reaches it.
    ///
    /// The tuple of `mask` is found whether or not its agreement excludes the key: the
    /// plan words that test reads are the ones that say whose mask it is.
    fn walk_for(
        &self,
        key: &Key,
        mask: &Mask,
        plan: &Plan,
    ) -> Result<(Option<usize>, Option<u64>), &MegaflowEntry> {
        debug_assert_eq!(*key, key.apply_mask(mask), "the key is stored masked");
        let probe = Probe::new(key);
        let mask_words = key_words(mask);
        let (mut home, mut home_hash) = (None, None);
        for (i, rec) in self.lane.iter().enumerate() {
            let words = &self.slab[rec.plan()];
            // Whether the tuple's mask is within `mask`, and the bits both keep on which
            // the key differs from every resident key: every word, without a branch.
            let (mut comparable, mut excluded) = (true, 0);
            for w in words {
                let common = mask_words[usize::from(w.word & 15)] & w.bits;
                comparable &= common == w.bits;
                excluded |= w.excludes(probe.word(w)) & common;
            }
            // The tuple of `mask` is comparable; whether the key is excluded from it or
            // not, it is the one the entry joins.
            let own = comparable && home.is_none() && plan.is(words);
            if own {
                home = Some(i);
            }
            if excluded != 0 {
                continue;
            }
            let tuple = self.tuple(rec);
            if comparable {
                // Conflict iff the tuple holds exactly the new key projected onto the
                // existing mask.
                let hash = masked_hash(words, |w| probe.word(w));
                if own {
                    home_hash = Some(hash);
                }
                if let Some(pos) = Self::find_hashed(&self.tuples, rec, hash, key) {
                    return Err(&tuple.entries[pos]);
                }
            } else {
                // Report the smallest conflicting key, not the first stored: the
                // generation strategy narrows wildcards against the returned conflict,
                // so the choice must not depend on the order entries arrived in.
                let conflict = tuple
                    .entries
                    .iter()
                    .filter(|e| !fields::disjoint(key, mask, &e.key, &e.mask))
                    .min_by(|a, b| a.key.cmp(&b.key));
                if let Some(e) = conflict {
                    return Err(e);
                }
            }
        }
        Ok((home, home_hash))
    }

    /// Remove every entry for which `predicate` returns true; returns the number of
    /// removed entries. The predicate sees entries tuple by tuple in probe order
    /// (insertion order within a tuple). A tuple left without entries is dropped and
    /// the survivors keep their relative probe order — this is what shrinks |M| back
    /// down (the entire point of MFCGuard).
    pub fn remove_where<F: FnMut(&MegaflowEntry) -> bool>(&mut self, mut predicate: F) -> usize {
        let mut removed = 0;
        let mut emptied = false;
        for rec in &mut self.lane {
            let tuple = &mut self.tuples[rec.tuple as usize];
            let before = tuple.entries.len();
            if let Some(filter) = tuple.sweep(&mut self.slab[rec.plan()], &mut predicate) {
                removed += before - tuple.entries.len();
                rec.filter = filter;
                emptied |= filter == 0;
            }
        }
        if emptied {
            self.drop_emptied();
        }
        debug_assert!(self.lane_consistent());
        removed
    }

    /// Drop every tuple left without entries: its lane record (marked by a zero
    /// filter), its slot and its plan words. The surviving records keep their order, and
    /// find their tuples and plans where those moved to.
    fn drop_emptied(&mut self) {
        // Tuples close ranks in slot order; `moved[old]` is a survivor's new slot.
        let mut kept = 0;
        let moved: Vec<u32> = self
            .tuples
            .iter()
            .map(|t| {
                let slot = kept;
                kept += u32::from(!t.entries.is_empty());
                slot
            })
            .collect();
        self.tuples.retain(|t| !t.entries.is_empty());
        let old_slab = std::mem::take(&mut self.slab);
        let slab = &mut self.slab;
        self.lane.retain_mut(|rec| {
            if rec.filter == 0 {
                return false;
            }
            let plan = rec.plan();
            rec.plan_start = slab.len() as u32;
            slab.extend_from_slice(&old_slab[plan]);
            rec.tuple = moved[rec.tuple as usize];
            true
        });
    }

    /// Whether lane, slab and tuples describe one tuple space: the records name each
    /// tuple slot once, a record's plan is its tuple's mask compiled and the slab holds
    /// nothing else, each plan word's agreement is the fold over the resident keys, every
    /// resident key has its bit in its record's filter, and each tuple's index holds one
    /// slot per entry, through which [`Tuple::find`] finds the entry where it is. What
    /// debug builds assert after every mutation. It allocates nothing, so that the
    /// allocation audit can hold a warm mutation, this check included, to zero.
    fn lane_consistent(&self) -> bool {
        // As many records as slots, each naming a slot in range, none named twice: the
        // last checked 4096 slots at a time, against a bitmap on the stack.
        let slots = self.tuples.len();
        let named_once = self.lane.len() == slots
            && self.lane.iter().all(|rec| (rec.tuple as usize) < slots)
            && (0..slots).step_by(4096).all(|base| {
                let mut seen = [0u64; 64];
                self.lane.iter().all(|rec| {
                    let Some(i) = (rec.tuple as usize).checked_sub(base).filter(|&i| i < 4096)
                    else {
                        return true;
                    };
                    let bit = 1 << (i % 64);
                    let fresh = seen[i / 64] & bit == 0;
                    seen[i / 64] |= bit;
                    fresh
                })
            });
        named_once
            && self.slab.len() == self.lane.iter().map(|rec| rec.plan().len()).sum::<usize>()
            && self.lane.iter().all(|rec| {
                let tuple = self.tuple(rec);
                let mut expected = Plan::of(&tuple.mask);
                let plan = &mut expected.words[..expected.len];
                let filed = tuple.index.iter().filter(|&&slot| slot != 0).count();
                let found = filed == tuple.entries.len()
                    && tuple.entries.iter().enumerate().all(|(i, e)| {
                        let key = Probe::new(&e.key);
                        agree(plan, &key, i == 0);
                        let hash = masked_hash(plan, |w| key.word(w));
                        rec.filter & filter_bit(hash) != 0 && tuple.find(hash, &e.key) == Some(i)
                    });
                !tuple.entries.is_empty()
                    && found
                    && self.slab.get(rec.plan()) == Some(expected.words())
            })
    }

    /// Expire entries idle for longer than `idle_timeout` seconds (OVS's 10 s policy,
    /// §5.4: "the 10 sec idle MFC timeout in OVS, keeping the attacker's entries alive
    /// for an extended time"). Returns the number of expired entries.
    pub fn expire_idle(&mut self, now: f64, idle_timeout: f64) -> usize {
        self.remove_where(|e| now - e.last_used > idle_timeout)
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.lane.clear();
        self.slab.clear();
        self.tuples.clear();
    }

    /// Verify the Independence invariant over the whole cache (O(n²); used by tests and
    /// property checks, not by the data path).
    pub fn check_independence(&self) -> bool {
        let entries: Vec<&MegaflowEntry> = self.entries().collect();
        for i in 0..entries.len() {
            for j in (i + 1)..entries.len() {
                if !fields::disjoint(
                    &entries[i].key,
                    &entries[i].mask,
                    &entries[j].key,
                    &entries[j].mask,
                ) {
                    return false;
                }
            }
        }
        true
    }

    /// Render the cache in the style of Fig. 2 / Fig. 3 / Fig. 5 (one line per entry,
    /// binary key and mask; a tuple's entries by ascending key).
    pub fn render(&self) -> String {
        let mut lines = Vec::new();
        for (i, rec) in self.lane.iter().enumerate() {
            let mut keys: Vec<&MegaflowEntry> = self.tuple(rec).entries.iter().collect();
            keys.sort_by(|a, b| a.key.cmp(&b.key));
            for e in keys {
                lines.push(format!(
                    "mask[{i}] key={} mask={} -> {}",
                    e.key.to_binary_string(&self.schema),
                    e.mask.to_binary_string(&self.schema),
                    e.action
                ));
            }
        }
        lines.join("\n")
    }
}

/// Errors from [`TupleSpace::insert`].
#[derive(Debug, Clone, PartialEq)]
pub enum InsertError {
    /// The new entry overlaps an existing entry, violating Inv(2).
    Overlap {
        /// Key and mask of the conflicting entry. Boxed: two inline vectors would make
        /// every `Result<(), InsertError>` 224 bytes wide for the error path's sake.
        existing: Box<(Key, Mask)>,
    },
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::Overlap { existing } => write!(
                f,
                "entry overlaps existing megaflow (key {}, mask {})",
                existing.0, existing.1
            ),
        }
    }
}

impl std::error::Error for InsertError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tse_packet::fields::FieldDef;

    fn hyp_schema() -> FieldSchema {
        FieldSchema::hyp()
    }

    fn k(v: u128) -> Key {
        Key::from_values(&hyp_schema(), &[v])
    }

    /// Build the Fig. 3 wildcarded MFC by hand.
    fn fig3_cache() -> TupleSpace {
        let mut c = TupleSpace::new(hyp_schema());
        c.insert(k(0b001), k(0b111), Action::Allow, 0.0).unwrap();
        c.insert(k(0b100), k(0b100), Action::Deny, 0.0).unwrap();
        c.insert(k(0b010), k(0b110), Action::Deny, 0.0).unwrap();
        c.insert(k(0b000), k(0b111), Action::Deny, 0.0).unwrap();
        c
    }

    #[test]
    fn fig3_has_4_entries_and_3_masks() {
        let c = fig3_cache();
        assert_eq!(c.entry_count(), 4);
        assert_eq!(c.mask_count(), 3); // 111 is shared by two entries
        assert!(c.check_independence());
    }

    #[test]
    fn fig3_classifies_whole_header_space_like_fig1_acl() {
        let mut c = fig3_cache();
        for h in 0..8u128 {
            let out = c.lookup(&k(h), 0.0);
            let expected = if h == 0b001 {
                Action::Allow
            } else {
                Action::Deny
            };
            assert_eq!(out.action, Some(expected), "header {h:03b}");
        }
    }

    #[test]
    fn fig2_exact_match_uses_single_mask() {
        // The exact-match strategy of Fig. 2: all 8 keys under the single mask 111.
        let mut c = TupleSpace::new(hyp_schema());
        for h in 0..8u128 {
            let action = if h == 0b001 {
                Action::Allow
            } else {
                Action::Deny
            };
            c.insert(k(h), k(0b111), action, 0.0).unwrap();
        }
        assert_eq!(c.mask_count(), 1);
        assert_eq!(c.entry_count(), 8);
        // Every lookup scans exactly one mask: optimal time, exponential space.
        for h in 0..8u128 {
            assert_eq!(c.lookup(&k(h), 0.0).masks_scanned, 1);
        }
    }

    #[test]
    fn miss_scans_all_masks() {
        let mut c = TupleSpace::new(hyp_schema());
        c.insert(k(0b001), k(0b111), Action::Allow, 0.0).unwrap();
        c.insert(k(0b110), k(0b110), Action::Deny, 0.0).unwrap();
        let out = c.lookup(&k(0b010), 0.0);
        assert_eq!(out.action, None);
        assert_eq!(out.masks_scanned, 2);
    }

    #[test]
    fn overlap_rejected() {
        let mut c = TupleSpace::new(hyp_schema());
        c.insert(k(0b001), k(0b111), Action::Allow, 0.0).unwrap();
        // (000, 000) covers everything, including 001 -> overlap.
        let err = c.insert(k(0b000), k(0b000), Action::Deny, 0.0);
        assert!(matches!(err, Err(InsertError::Overlap { .. })));
        assert_eq!(c.entry_count(), 1);
    }

    #[test]
    fn idle_timeout_expires_only_stale_entries() {
        let mut c = fig3_cache();
        // Touch the allow entry at t=9.
        assert_eq!(c.lookup(&k(0b001), 9.0).action, Some(Action::Allow));
        // At t=15 with a 10 s timeout: entries last used at t=0 are stale (15 > 10),
        // the refreshed allow entry survives.
        let removed = c.expire_idle(15.0, 10.0);
        assert_eq!(removed, 3);
        assert_eq!(c.entry_count(), 1);
        assert_eq!(c.mask_count(), 1);
        assert_eq!(c.peek(&k(0b001)).unwrap().action, Action::Allow);
    }

    #[test]
    fn mask_usage_tracks_probe_order_and_hits() {
        let mut c = fig3_cache();
        // Hit the allow entry (mask 111) twice and the 1** deny entry once.
        c.lookup(&k(0b001), 1.0);
        c.lookup(&k(0b001), 2.0);
        c.lookup(&k(0b100), 3.0);
        let usage = c.mask_usage();
        assert_eq!(usage.len(), 3);
        assert_eq!(
            usage.iter().map(|(m, _)| m.clone()).collect::<Vec<_>>(),
            vec![k(0b111), k(0b100), k(0b110)],
            "usage reports masks in probe (here: insertion) order"
        );
        let hits_of = |mask: u128| {
            usage
                .iter()
                .find(|(m, _)| *m == k(mask))
                .map(|(_, h)| *h)
                .unwrap()
        };
        assert_eq!(hits_of(0b111), 2);
        assert_eq!(hits_of(0b100), 1);
        assert_eq!(hits_of(0b110), 0);
    }

    #[test]
    fn remove_mask_drops_the_whole_tuple() {
        let mut c = fig3_cache();
        assert_eq!(c.remove_mask(&k(0b111)), 2, "111 is shared by two entries");
        assert_eq!(c.mask_count(), 2);
        assert_eq!(c.entry_count(), 2);
        assert!(c.lookup(&k(0b001), 0.0).action.is_none());
        // Removing an absent mask is a no-op.
        assert_eq!(c.remove_mask(&k(0b111)), 0);
        assert_eq!(c.mask_count(), 2);
    }

    #[test]
    fn remove_where_drops_empty_masks() {
        let mut c = fig3_cache();
        let removed = c.remove_where(|e| e.action == Action::Deny);
        assert_eq!(removed, 3);
        assert_eq!(c.mask_count(), 1);
        assert_eq!(c.entry_count(), 1);
        // Deny traffic now misses (goes back to the slow path) but the allow entry is
        // untouched — MFCGuard's requirement (i).
        assert_eq!(c.lookup(&k(0b000), 0.0).action, None);
        assert_eq!(c.lookup(&k(0b001), 0.0).action, Some(Action::Allow));
    }

    #[test]
    fn newest_first_ordering_pushes_old_masks_back() {
        let mut c = TupleSpace::with_ordering(hyp_schema(), MaskOrdering::NewestFirst);
        // "Victim" entry installed first.
        c.insert(k(0b001), k(0b111), Action::Allow, 0.0).unwrap();
        assert_eq!(c.lookup(&k(0b001), 0.0).masks_scanned, 1);
        // Attack masks arrive later but are probed first.
        c.insert(k(0b100), k(0b100), Action::Deny, 1.0).unwrap();
        c.insert(k(0b010), k(0b110), Action::Deny, 1.0).unwrap();
        assert_eq!(c.lookup(&k(0b001), 2.0).masks_scanned, 3);
    }

    #[test]
    fn lookup_statistics_updated() {
        let mut c = fig3_cache();
        c.lookup(&k(0b001), 5.0);
        c.lookup(&k(0b001), 7.0);
        let e = c.peek(&k(0b001)).unwrap();
        assert_eq!(e.hits, 2);
        assert!((e.last_used - 7.0).abs() < 1e-9);
        assert_eq!(e.installed_at, 0.0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = fig3_cache();
        c.clear();
        assert_eq!(c.mask_count(), 0);
        assert_eq!(c.entry_count(), 0);
        assert_eq!(c.lookup(&k(0b001), 0.0).masks_scanned, 0);
    }

    /// Reference implementation, index-less: scan every entry for the first tuple, in
    /// probe order, holding an entry that overlaps `(key, mask)`, and report that tuple's
    /// smallest overlapping key — what `find_conflict` promises, without agreement
    /// words, plans or probes.
    fn find_conflict_scan(c: &TupleSpace, key: &Key, mask: &Mask) -> Option<(Key, Mask)> {
        let key = key.apply_mask(mask);
        let overlaps = |e: &&MegaflowEntry| !fields::disjoint(&key, mask, &e.key, &e.mask);
        let first = c.entries().find(overlaps)?;
        c.entries()
            .filter(|e| e.mask == first.mask)
            .filter(overlaps)
            .map(|e| (e.key.clone(), e.mask.clone()))
            .min()
    }

    #[test]
    fn conflict_index_agrees_with_full_scan() {
        // Exhaustively compare the indexed find_conflict with the entry scan over every
        // (key, mask) pair of the 3-bit space, on a populated cache, after a lookup
        // refresh, and after removals (which fold the agreement words afresh).
        let mut c = fig3_cache();
        for phase in 0..3 {
            if phase == 1 {
                c.lookup(&k(0b001), 1.0);
            }
            if phase == 2 {
                c.remove_where(|e| e.mask == k(0b110));
            }
            for key in 0..8u128 {
                for mask in 0..8u128 {
                    let fast = c.find_conflict(&k(key & mask), &k(mask));
                    let slow = find_conflict_scan(&c, &k(key), &k(mask));
                    assert_eq!(fast, slow, "phase {phase} key {key:03b} mask {mask:03b}");
                }
            }
        }
    }

    /// A key of a three-field schema with a 128-bit field in the middle: `w`'s high
    /// nibble lands on bits 127..124, its low nibble on bits 63..60 and 3..0, so both
    /// halves' plan and agreement words carry bits, independently of each other.
    fn wide_key(schema: &FieldSchema, (a, w, b): (u128, u128, u128)) -> Key {
        let (hi, lo) = (w >> 4 & 15, w & 15);
        Key::from_values(schema, &[a, hi << 124 | lo << 60 | lo, b])
    }

    /// One of 256 masks, so tuples share masks and grow past one entry.
    fn palette_mask(schema: &FieldSchema, (a, w, b): (u128, u128, u128)) -> Mask {
        let pick = |palette: [u128; 4], i: u128| palette[i as usize % 4];
        let wide = [0, 0xf, 0b1000, 0b0011];
        wide_key(
            schema,
            (
                pick([0, 0b11111, 0b10100, 0b00011], a),
                pick(wide, w >> 2) << 4 | pick(wide, w),
                pick([0, 0xf, 0b1001, 0b0110], b),
            ),
        )
    }

    type Triple = (u128, u128, u128);

    fn arb_triple() -> impl Strategy<Value = Triple> {
        (0u128..32, 0u128..256, 0u128..16)
    }

    /// Reference Alg. 1, index-less: the entry `header` matches in the first tuple, in
    /// probe order, that holds one, and how many tuples the scan probed to find it (all
    /// of them on a miss) — what `lookup` and `peek` promise, without agreement words,
    /// hashes or filters.
    fn lookup_scan<'a>(c: &'a TupleSpace, header: &Key) -> (Option<&'a MegaflowEntry>, usize) {
        let masks: Vec<Mask> = c.mask_usage().into_iter().map(|(m, _)| m).collect();
        let hit = c
            .entries()
            .find(|e| fields::matches(header, &e.key, &e.mask));
        let scanned = hit.map_or(masks.len(), |e| {
            1 + masks
                .iter()
                .position(|m| *m == e.mask)
                .expect("a resident mask")
        });
        (hit, scanned)
    }

    /// `lookup_run` on one clone of `c` against `lookup` on each header of `run` in turn
    /// on another, stopping after the first miss: the same outcomes, as many answered,
    /// and the same hit counts and `last_used` stamps left on every mask and entry.
    fn run_matches_lookups(c: &TupleSpace, run: &[(&Key, f64)]) -> Result<(), TestCaseError> {
        let (mut batched, mut looped) = (c.clone(), c.clone());
        let mut out = [LookupOutcome::default(); RUN];
        let answered = batched.lookup_run(run, &mut out);
        let mut expected = Vec::new();
        for &(header, now) in run {
            let outcome = looped.lookup(header, now);
            expected.push(outcome);
            if outcome.action.is_none() {
                break;
            }
        }
        prop_assert_eq!(&out[..answered], &expected[..], "run {:?}", run);
        prop_assert_eq!(batched.mask_usage(), looped.mask_usage());
        let stamps = |c: &TupleSpace| -> Vec<(u64, f64)> {
            c.entries().map(|e| (e.hits, e.last_used)).collect()
        };
        prop_assert_eq!(stamps(&batched), stamps(&looped), "run {:?}", run);
        Ok(())
    }

    proptest! {
        /// `find_conflict` — agreement words beside the plan words, a probe for
        /// comparable tuples, an entry scan for the rest — answers exactly as the
        /// index-less scan after every `insert` / `lookup` / `remove_where` /
        /// `expire_idle` / `remove_mask`, on a schema with a 128-bit field, and `lookup`
        /// and `peek` hit the entry the index-less Alg. 1 does after `masks_scanned` as
        /// many tuples; debug builds check the agreement words against the resident keys
        /// after each mutation besides. After each mutation, runs of one to four headers
        /// through `lookup_run` answer as `lookup` on each in turn: runs of the queries,
        /// and runs of resident keys with a header that misses at every position in turn.
        #[test]
        fn find_conflict_matches_the_entry_scan_across_mutations(
            ops in proptest::collection::vec((0u8..10, arb_triple(), arb_triple(), 0u64..30), 1..60),
            queries in proptest::collection::vec((arb_triple(), arb_triple()), 1..24),
        ) {
            let schema = FieldSchema::new(vec![
                FieldDef::new("a", 5),
                FieldDef::new("wide", 128),
                FieldDef::new("b", 4),
            ]);
            // Each query is a header to look up, and the entry it would spark under a
            // palette mask to check for conflicts.
            let queries: Vec<(Key, Key, Mask)> = queries
                .iter()
                .map(|&(key, mask)| {
                    let (header, mask) = (wide_key(&schema, key), palette_mask(&schema, mask));
                    (header.clone(), header.apply_mask(&mask), mask)
                })
                .collect();
            let mut c = TupleSpace::with_ordering(schema.clone(), MaskOrdering::NewestFirst);
            for &(op, key, mask, t) in &ops {
                let (key, mask, now) = (wide_key(&schema, key), palette_mask(&schema, mask), t as f64);
                match op {
                    0..=4 => {
                        let action = if op % 2 == 0 { Action::Allow } else { Action::Deny };
                        let conflict = find_conflict_scan(&c, &key, &mask);
                        let (masks, had_mask) = (c.mask_count(), c.mask_usage().iter().any(|(m, _)| *m == mask));
                        match c.insert(key, mask.clone(), action, now) {
                            // Refused with exactly the entry the scan names: the first
                            // tuple in probe order, its smallest overlapping key.
                            Err(InsertError::Overlap { existing }) => {
                                prop_assert_eq!(Some(*existing), conflict);
                                prop_assert_eq!(c.mask_count(), masks);
                            }
                            // Accepted into the tuple of its mask, or else a new tuple,
                            // probed first.
                            Ok(()) => {
                                prop_assert_eq!(conflict, None);
                                prop_assert_eq!(c.mask_count(), masks + usize::from(!had_mask));
                                if !had_mask {
                                    prop_assert_eq!(&c.mask_usage()[0].0, &mask);
                                }
                            }
                        }
                    }
                    5 => {
                        c.lookup(&key, now);
                    }
                    6 => {
                        c.remove_where(|e| e.key.get(0) & 3 == key.get(0) & 3);
                    }
                    7 => {
                        c.expire_idle(now, 5.0);
                    }
                    8 => {
                        let resident = c.entries().nth(key.get(0) as usize % c.entry_count().max(1));
                        if let Some(mask) = resident.map(|e| e.mask.clone()) {
                            prop_assert!(c.remove_mask(&mask) > 0);
                        }
                    }
                    _ => {
                        c.remove_mask(&mask);
                    }
                }
                for (header, key, mask) in &queries {
                    let conflict = find_conflict_scan(&c, key, mask);
                    prop_assert_eq!(
                        c.find_conflict(key, mask),
                        conflict.clone(),
                        "query key {} mask {} after op {}", key, mask, op
                    );
                    // `insert` refuses with the same entry, on its own walk.
                    let refused = c.clone().insert(key.clone(), mask.clone(), Action::Deny, 99.0);
                    let refused = refused.err().map(|InsertError::Overlap { existing }| *existing);
                    prop_assert_eq!(refused, conflict, "insert {} / {} after op {}", key, mask, op);
                    let (hit, scanned) = lookup_scan(&c, header);
                    prop_assert_eq!(c.peek(header), hit, "peek {} after op {}", header, op);
                    // Lookups bump hit counters; keep them off the cache under test.
                    let mut scratch = c.clone();
                    let out = scratch.lookup(header, 99.0);
                    prop_assert_eq!(
                        (out.action, out.masks_scanned),
                        (hit.map(|e| e.action), scanned),
                        "lookup {} after op {}", header, op
                    );
                    if let Some(e) = hit {
                        let bumped = scratch.peek(header).map(|b| (&b.key, b.hits, b.last_used));
                        prop_assert_eq!(bumped, Some((&e.key, e.hits + 1, 99.0)));
                    }
                }
                // Nondecreasing times, with ties.
                let at = |i: usize| 99.0 + (i / 2) as f64;
                for run in queries.windows(RUN).chain(queries.chunks(3)).step_by(3) {
                    let run: Vec<(&Key, f64)> =
                        run.iter().enumerate().map(|(i, q)| (&q.0, at(i))).collect();
                    run_matches_lookups(&c, &run)?;
                }
                let resident: Vec<Key> = c.entries().map(|e| e.key.clone()).collect();
                let missing = queries.iter().map(|q| &q.0).find(|h| c.peek(h).is_none());
                for len in 1..=RUN {
                    // `miss == len` puts no miss in the run.
                    for miss in 0..=len {
                        let run: Option<Vec<(&Key, f64)>> = (0..len)
                            .map(|i| {
                                let header = if i == miss {
                                    missing
                                } else {
                                    resident.get((i + miss) % resident.len().max(1))
                                };
                                header.map(|h| (h, at(i)))
                            })
                            .collect();
                        if let Some(run) = run {
                            run_matches_lookups(&c, &run)?;
                        }
                    }
                }
            }
            prop_assert!(c.check_independence());
        }
    }

    #[test]
    fn conflict_index_summary_excludes_incomparable_tuples() {
        // Two entries under mask 011 agree on bit 0 = 1; a query under the incomparable
        // mask 101 with bit 0 = 0 is excluded by the agreement word (bit 0 agreed, 1).
        let mut c = TupleSpace::new(hyp_schema());
        c.insert(k(0b001), k(0b011), Action::Deny, 0.0).unwrap();
        c.insert(k(0b011), k(0b011), Action::Deny, 0.0).unwrap();
        assert_eq!(c.find_conflict(&k(0b100), &k(0b101)), None);
        // Flipping the query's bit 0 to 1 re-enables the conflict.
        assert!(c.find_conflict(&k(0b101), &k(0b101)).is_some());
    }

    /// The 5-bit probe-order model never grows a tuple past a few entries. This drives one
    /// `ovs_ipv6` tuple — both halves of a 128-bit field in its plan — through index
    /// growth, a compacting expiry, refill and removal, against a map of what it holds.
    #[test]
    fn one_large_tuple_follows_a_map_model() {
        use std::collections::BTreeMap;
        const N: u64 = 10_000;

        let schema = FieldSchema::ovs_ipv6();
        let (src, proto, tp_dst) = (0, 2, 5);
        let mut big = schema.empty_mask();
        big.set(src, u128::MAX);
        big.set(tp_dst, 0xffff);
        let key_of = |i: u64| {
            let mut key = schema.zero_value();
            key.set(src, u128::from(splitmix64_mix(i)) << 64 | u128::from(i));
            key.set(tp_dst, u128::from(i % 7));
            key
        };
        let action_of = |i: u64| [Action::Allow, Action::Deny, Action::Deny][(i % 3) as usize];

        // Probed second: a tuple that stays behind when the large one is removed. No
        // `key_of` source address is all-ones, so it is disjoint from every entry above.
        let mut small = schema.empty_mask();
        small.set(src, u128::MAX);
        small.set(proto, 0xff);
        let mut bystander = schema.zero_value();
        bystander.set(src, u128::MAX);
        bystander.set(proto, 6);

        // What the large tuple holds, and in which order it was put there.
        let mut model: BTreeMap<Key, Action> = BTreeMap::new();
        let mut order: Vec<Key> = Vec::new();
        let mut gone: Vec<Key> = Vec::new();
        let check =
            |cache: &TupleSpace, model: &BTreeMap<Key, Action>, order: &[Key], gone: &[Key]| {
                // Lookups refresh `last_used`; keep them off the cache under test.
                let mut scratch = cache.clone();
                assert_eq!(cache.entry_count(), model.len() + 1);
                for (key, &action) in model {
                    let out = scratch.lookup(key, 0.0);
                    assert_eq!((out.action, out.masks_scanned), (Some(action), 1));
                    let hit = cache.peek(key).expect("peek agrees with lookup");
                    assert_eq!((&hit.key, hit.action), (key, action));
                    assert_eq!(
                        cache.find_conflict(key, &big),
                        Some((key.clone(), big.clone()))
                    );
                }
                for key in gone {
                    let out = scratch.lookup(key, 0.0);
                    assert_eq!((out.action, out.masks_scanned), (None, cache.mask_count()));
                    assert!(cache.peek(key).is_none());
                }
                let stored: Vec<&Key> = cache.entries().map(|e| &e.key).collect();
                let expected: Vec<&Key> = order.iter().chain([&bystander]).collect();
                assert_eq!(stored, expected, "entries() is insertion order per tuple");
            };

        let mut cache = TupleSpace::new(schema.clone());
        // Even entries go in at t = 0, odd ones at t = 100.
        for i in 0..N {
            let now = (i % 2) as f64 * 100.0;
            cache
                .insert(key_of(i), big.clone(), action_of(i), now)
                .unwrap();
            model.insert(key_of(i), action_of(i));
            order.push(key_of(i));
        }
        cache
            .insert(bystander.clone(), small.clone(), Action::Deny, 100.0)
            .unwrap();
        assert_eq!(cache.mask_count(), 2);
        // Ten thousand keys over 64 bits: the large tuple's miss filter passes every
        // probe, and the index alone has to tell a resident key from a stranger.
        assert_eq!(cache.lane[0].filter, u64::MAX);
        check(&cache, &model, &order, &gone);

        // Every other entry idles out; the survivors close ranks in order.
        assert_eq!(cache.expire_idle(105.0, 10.0), (N / 2) as usize);
        assert_eq!(
            cache.lane[0].filter,
            u64::MAX,
            "recomputed, still saturated"
        );
        for i in (0..N).step_by(2) {
            model.remove(&key_of(i));
            gone.push(key_of(i));
        }
        order.retain(|k| model.contains_key(k));
        check(&cache, &model, &order, &gone);

        // The expired half comes back, behind the survivors, with fresh keys after it.
        for i in (0..N).step_by(2).chain(N..N + N / 2) {
            cache
                .insert(key_of(i), big.clone(), action_of(i), 200.0)
                .unwrap();
            model.insert(key_of(i), action_of(i));
            order.push(key_of(i));
        }
        gone.clear();
        check(&cache, &model, &order, &gone);
        assert!(matches!(
            cache.insert(key_of(1), big.clone(), Action::Allow, 200.0),
            Err(InsertError::Overlap { .. })
        ));

        // The whole tuple goes at once; its neighbour is untouched.
        assert_eq!(cache.remove_mask(&big), model.len());
        gone.extend(std::mem::take(&mut model).into_keys());
        order.clear();
        check(&cache, &model, &order, &gone);
        assert_eq!(cache.mask_count(), 1);
        assert_eq!(cache.lane[0].filter.count_ones(), 1, "one key, one bit");
        assert_eq!(cache.peek(&bystander).map(|e| e.action), Some(Action::Deny));
    }

    /// `lane_consistent` is what debug builds assert after every mutation; it has to be
    /// able to say no.
    #[test]
    fn lane_consistent_rejects_a_lane_that_drifted() {
        let cache = fig3_cache();
        assert!(cache.lane_consistent());

        let mut stale_filter = cache.clone();
        stale_filter.lane[0].filter = 0;
        assert!(!stale_filter.lane_consistent());

        let mut crossed = cache.clone();
        let (a, b) = (crossed.lane[0].tuple, crossed.lane[1].tuple);
        (crossed.lane[0].tuple, crossed.lane[1].tuple) = (b, a);
        assert!(
            !crossed.lane_consistent(),
            "a record's plan is its tuple's mask"
        );

        let mut shared = cache.clone();
        shared.lane[1].tuple = shared.lane[0].tuple;
        assert!(!shared.lane_consistent(), "each slot is named once");

        // Lane record 1 is the one-entry tuple (100, 100). A stale value would turn a hit
        // on it into a miss, and with that the entry's next install into an overlap.
        let mut stale_value = cache.clone();
        let word = stale_value.lane[1].plan().start;
        stale_value.slab[word].value ^= 0b100;
        assert!(
            !stale_value.lane_consistent(),
            "an agreement word is the fold over the resident keys"
        );

        let mut stale_agree = cache.clone();
        let word = stale_agree.lane[0].plan().start;
        stale_agree.slab[word].agree |= 0b001;
        assert!(
            !stale_agree.lane_consistent(),
            "(001, 111) and (000, 111) disagree on bit 0"
        );

        // Lane record 0 is the tuple under 111, two entries: (001) at position 0 and
        // (000) at position 1.
        let index = &cache.tuples[cache.lane[0].tuple as usize].index;
        let filed: Vec<usize> = (0..index.len()).filter(|&i| index[i] != 0).collect();
        let mut mispointed = cache.clone();
        let index = &mut mispointed.tuples[mispointed.lane[0].tuple as usize].index;
        let (a, b) = (index[filed[0]], index[filed[1]]);
        (index[filed[0]], index[filed[1]]) = (a & TAG | b & !TAG, b & TAG | a & !TAG);
        assert!(
            !mispointed.lane_consistent(),
            "a slot names its own entry's position"
        );

        let mut stale_slot = cache.clone();
        let index = &mut stale_slot.tuples[stale_slot.lane[0].tuple as usize].index;
        let copy = index[filed[0]];
        place(index, copy);
        assert!(
            !stale_slot.lane_consistent(),
            "an index holds one slot per entry"
        );

        let mut leaked = cache.clone();
        let plan = Plan::of(&k(0b001));
        leaked.slab.extend_from_slice(plan.words());
        assert!(
            !leaked.lane_consistent(),
            "the slab holds plans and nothing else"
        );

        let mut reordered = cache;
        reordered.lane.swap(0, 2);
        assert!(reordered.lane_consistent(), "order is the lane's to choose");
    }

    #[test]
    fn render_lists_entries() {
        let c = fig3_cache();
        let r = c.render();
        assert!(r.contains("key=001 mask=111 -> allow"));
        assert!(r.contains("deny"));
        assert_eq!(r.lines().count(), 4);
    }
}
