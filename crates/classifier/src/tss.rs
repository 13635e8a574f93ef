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
//! * the **probe lane**, one 64-byte record per tuple, a cache line each, held in probe
//!   order — position in the lane *is* Alg. 1's scan order. A record carries the tuple's
//!   hit counter, where its plan words sit in the slab, which tuple it stands for, a
//!   64-bit **miss filter** (one bit per resident key, chosen by the top six bits of the
//!   key's hash), and a copy of the agreement (below) of its plan's first two words;
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
//! A probe first compares the header with the agreement, word by word: the first two
//! words off the lane record's copy, any further ones off the slab. A header that
//! differs from the common value on an agreed bit matches no entry, and the probe has
//! missed without a hash. For an explosion — one entry per mask, and most masks' plans
//! two words long — that test is exact, so it ends every miss having read one lane
//! record, one cache line, and nothing of the slab, and the whole scan stays
//! cache-resident. The slab stays the agreement's only source: every mutator that
//! rewrites a record's filter after the agreement changed copies the agreement into the
//! record too. A probe that survives hashes `header AND mask` off the slab's plan words
//! and tests the **miss filter** bit the hash names: a clear bit proves the miss. Only
//! on a set bit does the probe go on, hash in hand, to the tuple: it walks the tuple's
//! flat open-addressed index of `u64` slots from the slot the hash names, and compares
//! against a stored key only where a slot's tag (the hash's high 32 bits) matches. A
//! missed probe materialises no masked key and allocates nothing. Inv(2)'s conflict
//! check rules tuples out with the same agreement test, restricted to the bits the
//! prospective entry keeps.
//!
//! A datapath's run of consecutive hits is looked up together, up to four headers to a
//! walk of the lane ([`TupleSpace::lookup_run`]): the run's header words are laid out
//! word-major, so each lane record (and any plan words past its copy) is read once for
//! the run, and the agreement test runs for every header still looking at once, without
//! a branch. A header that survives it goes on alone, exactly as a probe does, and
//! leaves the walk at its first hit; the walk ends when every header has hit, or at the
//! end of the lane. The results are committed afterwards, header by header in run order
//! — the hit counters bumped and `last_used` stamped as [`TupleSpace::lookup`] would
//! have — up to and including the first miss. The headers behind that miss are left as
//! they were, for the datapath to look up again once the miss's upcall has installed
//! its entry.
//!
//! A tuple is written on the rare path, and each write is one pass. An insert walks the
//! lane once: the same walk proves Inv(2) against every tuple and finds the tuple of the
//! entry's mask, and where it hashed the key to probe that tuple, the hash is the one the
//! entry is filed under. Creating a tuple compiles its mask's plan into the slab, and
//! every insert appends to the tuple's *log*, an insertion-ordered run of fixed-size
//! blocks (so entries of a tuple are held, and [`TupleSpace::entries`] yields them, in
//! insertion order; [`TupleSpace::render`] sorts them by key, so its output does not
//! depend on arrival order), files the entry's sequence number in the index, sets its
//! filter bit and folds the key into the agreement. A tuple that never outgrows one
//! block is one `Vec` that starts at capacity 1. Every mutation leaves lane, slab and
//! tuples describing the same tuple space; debug builds check that after each one.
//!
//! Every removal from a tuple is one walk back from a *cut*: it reads the live entries
//! in front of the cut, newest first, frees the index slots of the ones that go, slides
//! the survivors up against the cut, and frees the blocks left dead; the entries behind
//! the cut keep their places, slots and hashes. Each chunk of a log keeps a summary of
//! its keys' agreement and filter bits, so the tuple's agreement and filter are remade
//! exactly from the summaries and the chunks the walk changed. Idle expiry (§5.4's
//! revalidation) is O(expired): installs arrive in time order, so a tuple's entries that
//! can have idled out are the ones in front of the first entry whose own installation
//! has not, and that entry is the cut. MFCGuard's removal, and idle expiry of a tuple
//! whose log is out of time order, walk from the end of the log.
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

// The scan reads one lane record per tuple, one record to a cache line, and the slab's
// plan words only past the record's copy or to hash a header that survives it. A field
// added to either widens every step of every scan: it has to fail here first.
const _: () = assert!(std::mem::size_of::<PlanWord>() == 32);
const _: () = assert!(std::mem::size_of::<LaneRecord>() == 64);

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

/// The agreement of two sets of keys, each an `(agree, value)` pair: the bits both
/// agree on, where their values agree too, and that common value. A key is the set of
/// one, agreeing on all of its mask's bits.
fn meet((agree, value): (u64, u64), (a, v): (u64, u64)) -> (u64, u64) {
    let agree = agree & a & !(value ^ v);
    (agree, value & agree)
}

/// Fold a resident (masked) key, laid out for probing, into its tuple's agreement words;
/// `first` starts the fold over at that key.
fn agree(plan: &mut [PlanWord], key: &Probe, first: bool) {
    for w in plan {
        let k = (w.bits, key.word(w));
        (w.agree, w.value) = if first {
            k
        } else {
            meet((w.agree, w.value), k)
        };
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

/// Set in every filed slot's tag, so that no filed slot reads 0, a free one, whatever
/// sequence number it holds. A slot's home is its tag's low bits, and no index is long
/// enough to reach this one.
const FILED: u64 = 1 << 63;

/// Entries to a block of a tuple's log, the unit it is allocated and freed in: a power of
/// two. The crate's unit tests run with small blocks and chunks, so that their fixtures
/// span many of them.
const BLOCK: usize = if cfg!(test) { 16 } else { 256 };

/// Entries to a chunk of a tuple's log, the unit its keys are summarised in
/// ([`Summary`]): a power of two that divides [`BLOCK`]. A sweep refolds the chunks it
/// changed, so this bounds its refolds per tuple; each chunk's summary costs 264 bytes.
const CHUNK: usize = if cfg!(test) { 4 } else { 64 };

const _: () = assert!(BLOCK.is_multiple_of(CHUNK) && CHUNK.is_power_of_two());

/// Index slots for this many entries: a power of two, at most half full.
fn slots_for(entries: usize) -> usize {
    (entries * 2).next_power_of_two().max(2)
}

/// The slot of the entry with log sequence number `seq` (modulo 2^32), whose key hashes
/// to `hash`.
fn slot(hash: u64, seq: u32) -> u64 {
    (hash | FILED) & TAG | u64::from(seq)
}

/// Where `slot`'s linear-probe run starts in `index`: where its tag's low bits say, so a
/// slot can be re-placed without its key.
fn home(index: &[u64], slot: u64) -> usize {
    (slot >> 32) as usize & (index.len() - 1)
}

/// Put a slot value in the first free slot of its run.
fn place(index: &mut [u64], slot: u64) {
    let wrap = index.len() - 1;
    let mut i = home(index, slot);
    while index[i] != 0 {
        i = (i + 1) & wrap;
    }
    index[i] = slot;
}

/// Where in `index` the slot value `slot` is filed, if it is.
fn seek(index: &[u64], slot: u64) -> Option<usize> {
    let wrap = index.len() - 1;
    let mut i = home(index, slot);
    loop {
        match index[i] {
            0 => return None,
            s if s == slot => return Some(i),
            _ => i = (i + 1) & wrap,
        }
    }
}

/// Free index slot `i` by backward-shift deletion: each later slot of its run whose home
/// is not cyclically within (hole, slot] moves back into the hole, and the hole moves on
/// to where it was. No run is left with a free slot inside it, so the index never holds
/// a tombstone.
fn unplace(index: &mut [u64], mut i: usize) {
    let wrap = index.len() - 1;
    let mut j = i;
    loop {
        j = (j + 1) & wrap;
        let slot = index[j];
        if slot == 0 {
            break;
        }
        if j.wrapping_sub(home(index, slot)) & wrap >= j.wrapping_sub(i) & wrap {
            index[i] = slot;
            i = j;
        }
    }
    index[i] = 0;
}

/// How many of a plan's agreement words its lane record carries a copy of.
const INLINE: usize = 2;

/// One tuple as Alg. 1's scan reads it: a record of the probe lane, one cache line, and
/// aligned to one (a record straddling two lines measured markedly slower). Beside the
/// filter, the hit counter and where the tuple and its plan are, it carries a copy of
/// the agreement of its plan's first [`INLINE`] words, so that a probe tests a header
/// against them without reading the slab. The slab stays the agreement's one source:
/// [`LaneRecord::sync`] copies it, wherever a mutator has rewritten the record's filter
/// after the agreement changed.
#[derive(Debug, Clone, Default, PartialEq)]
#[repr(align(64))]
struct LaneRecord {
    /// The miss filter: the OR of [`filter_bit`] over the tuple's resident keys (a sweep
    /// recomputes it exactly; 0 marks a tuple left empty, about to be dropped). A probe
    /// whose bit is clear has missed.
    filter: u64,
    /// Cumulative fast-path hits on this tuple, reported by [`TupleSpace::mask_usage`].
    hits: u64,
    /// The first plan words' `agree` and `value`, and which header word each reads; a
    /// plan with fewer words pads with `agree = 0`, which excludes nothing.
    agree: [u64; INLINE],
    value: [u64; INLINE],
    word: [u8; INLINE],
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

    /// The plan words the record does not carry: those past the first [`INLINE`].
    fn tail(&self) -> Range<usize> {
        let plan = self.plan();
        (plan.start + INLINE).min(plan.end)..plan.end
    }

    /// Copy the agreement of the first [`INLINE`] of `plan`, the record's plan words.
    fn sync(&mut self, plan: &[PlanWord]) {
        for i in 0..INLINE {
            let w = plan.get(i).copied().unwrap_or_default();
            (self.word[i], self.agree[i], self.value[i]) = (w.word, w.agree, w.value);
        }
    }

    /// What [`PlanWord::excludes`] gives over the inline words, ORed, for a header whose
    /// key word `w` is `word(w)`: non-zero iff those words rule every entry out.
    #[inline(always)]
    fn excludes(&self, word: impl Fn(usize) -> u64) -> u64 {
        let mut excluded = 0;
        for i in 0..INLINE {
            excluded |= (word(usize::from(self.word[i] & 15)) ^ self.value[i]) & self.agree[i];
        }
        excluded
    }
}

/// What some of a tuple's keys contribute to its agreement words and miss filter: per
/// plan word, the bits they agree on and their common value, and the OR of their filter
/// bits — 0 for no key at all. A tuple's agreement and filter are the meet of its
/// chunks' summaries.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    /// `(agree, value)` of each plan word, as [`PlanWord`] holds them.
    words: [(u64, u64); 16],
    filter: u64,
}

impl Summary {
    const EMPTY: Summary = Summary {
        words: [(0, 0); 16],
        filter: 0,
    };

    /// What the slab's plan words and a lane filter hold.
    fn of(plan: &[PlanWord], filter: u64) -> Self {
        let mut summary = Summary {
            filter,
            ..Summary::EMPTY
        };
        for (s, w) in summary.words.iter_mut().zip(plan) {
            *s = (w.agree, w.value);
        }
        summary
    }

    /// Fold in a (masked) key, laid out for probing, whose hash is `hash`.
    fn add(&mut self, plan: &[PlanWord], key: &Probe, hash: u64) {
        let first = self.filter == 0;
        for (s, w) in self.words.iter_mut().zip(plan) {
            let k = (w.bits, key.word(w));
            *s = if first { k } else { meet(*s, k) };
        }
        self.filter |= filter_bit(hash);
    }

    /// Meet `other` into this summary: what their keys contribute together.
    fn meet(&mut self, other: &Summary) {
        if self.filter == 0 {
            *self = *other;
            return;
        }
        if other.filter == 0 {
            return;
        }
        for (s, &o) in self.words.iter_mut().zip(&other.words) {
            *s = meet(*s, o);
        }
        self.filter |= other.filter;
    }

    /// Write the agreement into the plan words; returns the miss filter.
    fn store(&self, plan: &mut [PlanWord]) -> u64 {
        for (w, &(agree, value)) in plan.iter_mut().zip(&self.words) {
            (w.agree, w.value) = (agree, value);
        }
        self.filter
    }
}

/// The chunk summaries of a tuple that outgrew its first chunk, and the newer blocks of
/// one that outgrew its first block.
#[derive(Debug, Clone)]
struct Log {
    /// The blocks after [`Tuple::entries`], oldest first. Every one but the newest holds
    /// [`BLOCK`] entries.
    blocks: VecDeque<Vec<MegaflowEntry>>,
    /// The summary of each full chunk, from offset 0 on: folded as the chunk filled,
    /// refolded where a sweep changes it.
    sealed: VecDeque<Summary>,
    /// The summary of the newest chunk while it has room, kept as it fills;
    /// [`Summary::EMPTY`] once it is full.
    open: Summary,
    /// A freed block's storage, kept for the next block, so that steady churn allocates
    /// nothing.
    spare: Vec<MegaflowEntry>,
}

impl Log {
    /// Free a dead block: kept as the spare if there is none.
    fn free(&mut self, mut block: Vec<MegaflowEntry>) {
        if self.spare.capacity() == 0 {
            block.clear();
            self.spare = block;
        }
    }
}

/// One tuple off the scan's path: every entry sharing a mask and the index that finds
/// one of them from its hash. Its plan and agreement words live in the slab, its hit
/// counter and miss filter in its lane record; whatever hashes or folds a key in here
/// is handed its plan words.
///
/// **Store.** The entries are a log in insertion order, each at an *offset* from the
/// start of its oldest block: `entries` is that block, and [`Log`] the newer ones, each
/// [`BLOCK`] entries long but the newest. A tuple that never outgrew one block is
/// `entries` alone, which starts at capacity 1. An entry's log sequence number is
/// `base + offset` (modulo 2^32); the live entries are the contiguous run from offset
/// `head` on, and the ones in front of it are dead copies a sweep left behind. A tuple
/// that outgrew its first [`CHUNK`] also keeps a summary of each chunk in its [`Log`].
///
/// `index` is an open-addressed table of `u64` slots, a power of two long and at most
/// half full: a slot is 0 when free, else `tag << 32 | seq` — the high 32 bits of the
/// key's hash ([`FILED`] set) and the key's sequence number, which
/// `seq.wrapping_sub(base)` turns back into an offset. A key's run starts at the slot its
/// tag's low bits name, so growing the index re-places the slots without reading a key;
/// a slot is freed by backward-shift deletion ([`unplace`]), so the index never holds a
/// tombstone.
///
/// **Sweeps.** Every removal is [`Tuple::remove`]: it reads the live entries in front
/// of a cut and nothing else, drops the ones it is told to, frees the blocks left dead
/// and refolds the chunks it changed; the entries behind the cut keep their offsets,
/// slots and hashes, and their chunks' summaries. Idle expiry of an
/// [`ordered`](Tuple::ordered) tuple cuts at the first entry whose own installation is
/// not yet past the timeout, so it reads the *old region* alone; every other removal
/// cuts at the end of the log.
#[derive(Debug, Clone)]
struct Tuple {
    /// The mask every entry of this tuple shares.
    mask: Mask,
    /// The log's oldest block. Never without a live entry while the tuple is in the
    /// cache.
    entries: Vec<MegaflowEntry>,
    /// Hash slot -> sequence number of an entry; see the type's doc for the slot layout.
    index: Vec<u64>,
    /// The sequence number, modulo 2^32, of `entries[0]`.
    base: u32,
    /// The offset of the oldest live entry, within `entries`.
    head: u32,
    /// Whether `installed_at` never decreases along the log and no hit stamped a
    /// `last_used` below its entry's `installed_at`: what lets idle expiry leave
    /// everything behind the old region unread. A [`Tuple::remove`] from the end of the
    /// log that drops an entry recomputes it.
    ordered: bool,
    /// The chunk summaries and newer blocks, once the tuple has outgrown its first chunk.
    log: Option<Box<Log>>,
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
            base: 0,
            head: 0,
            ordered: true,
            log: None,
        };
        let filter = tuple.push(plan, 0, first, None);
        (tuple, filter)
    }

    /// One past the offset of the newest entry.
    fn end(&self) -> usize {
        let newest = self.log.as_deref().and_then(|log| log.blocks.back());
        match (&self.log, newest) {
            (Some(log), Some(newest)) => BLOCK * log.blocks.len() + newest.len(),
            _ => self.entries.len(),
        }
    }

    /// The number of live entries.
    fn len(&self) -> usize {
        self.end() - self.head as usize
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence number of the entry at `offset`.
    fn seq(&self, offset: usize) -> u32 {
        self.base.wrapping_add(offset as u32)
    }

    /// The entry at `offset`.
    #[inline]
    fn entry(&self, offset: usize) -> &MegaflowEntry {
        if offset < self.entries.len() {
            return &self.entries[offset];
        }
        match self.log.as_deref() {
            Some(log) => &log.blocks[offset / BLOCK - 1][offset % BLOCK],
            None => &self.entries[offset],
        }
    }

    fn entry_mut(&mut self, offset: usize) -> &mut MegaflowEntry {
        if offset < self.entries.len() {
            return &mut self.entries[offset];
        }
        match self.log.as_deref_mut() {
            Some(log) => &mut log.blocks[offset / BLOCK - 1][offset % BLOCK],
            None => &mut self.entries[offset],
        }
    }

    /// The live entries, in insertion order.
    fn iter(&self) -> impl Iterator<Item = &MegaflowEntry> {
        let newer = self.log.iter().flat_map(|log| log.blocks.iter().flatten());
        self.entries[self.head as usize..].iter().chain(newer)
    }

    /// Offset of the entry `header` matches under this tuple's mask, given the hash of
    /// `header AND mask`. Kept out of line: only a probe that passed the filter gets
    /// here, and inlined it would cost every other probe its registers.
    #[inline(never)]
    fn find(&self, hash: u64, header: &Key) -> Option<usize> {
        let (wrap, tag) = (self.index.len() - 1, (hash | FILED) & TAG);
        let mut i = (hash >> 32) as usize & wrap;
        // At most half the slots are taken, so the run ends at a free one.
        loop {
            let slot = self.index[i];
            if slot == 0 {
                return None;
            }
            let offset = (slot as u32).wrapping_sub(self.base) as usize;
            if slot & TAG == tag && self.holds(offset, header) {
                return Some(offset);
            }
            i = (i + 1) & wrap;
        }
    }

    /// Whether the entry at `offset` is the one `header` matches.
    fn holds(&self, offset: usize, header: &Key) -> bool {
        fields::matches(header, &self.entry(offset).key, &self.mask)
    }

    /// Count a fast-path hit at `now` on the entry at `offset`; returns its action. A hit
    /// stamped before the entry's installation clears [`Tuple::ordered`].
    #[inline]
    fn hit(&mut self, offset: usize, now: f64) -> Action {
        let entry = self.entry_mut(offset);
        entry.hits += 1;
        entry.last_used = now;
        let (action, in_order) = (entry.action, now >= entry.installed_at);
        self.ordered &= in_order;
        action
    }

    /// Append an entry (the caller has checked Inv(2), so its key is not resident) and
    /// fold it into the agreement words; returns its filter bit. `filter` is the tuple's
    /// miss filter before it, and `hash` the key's, if the caller has it already.
    fn push(
        &mut self,
        plan: &mut [PlanWord],
        filter: u64,
        entry: MegaflowEntry,
        hash: Option<u64>,
    ) -> u64 {
        let key = Probe::new(&entry.key);
        let hash = hash.unwrap_or_else(|| masked_hash(plan, |w| key.word(w)));
        let end = self.end();
        if end > self.head as usize {
            let newest = self.entry(end - 1).installed_at;
            self.ordered &= entry.installed_at >= newest;
        }
        if self.log.is_none() && end == CHUNK {
            // Outgrown: the full chunk's summary is what the slab and the lane hold.
            let mut log = Box::new(Log {
                blocks: VecDeque::new(),
                sealed: VecDeque::new(),
                open: Summary::EMPTY,
                spare: Vec::new(),
            });
            log.sealed.push_back(Summary::of(plan, filter));
            self.log = Some(log);
        }
        agree(plan, &key, self.is_empty());
        match self.log.as_deref_mut() {
            None => self.entries.push(entry),
            Some(log) => {
                log.open.add(plan, &key, hash);
                if log.blocks.back().map_or(self.entries.len(), Vec::len) == BLOCK {
                    let spare = std::mem::take(&mut log.spare);
                    log.blocks.push_back(match spare.capacity() {
                        0 => Vec::with_capacity(BLOCK),
                        _ => spare,
                    });
                }
                let newest = match log.blocks.back_mut() {
                    Some(block) => block,
                    None => &mut self.entries,
                };
                newest.push(entry);
                if (end + 1).is_multiple_of(CHUNK) {
                    log.sealed
                        .push_back(std::mem::replace(&mut log.open, Summary::EMPTY));
                }
            }
        }
        if self.len() * 2 > self.index.len() {
            // Grow: the filed slots move into an index sized for the entries there are.
            let grown = vec![0; slots_for(self.len())];
            for slot in std::mem::replace(&mut self.index, grown) {
                if slot != 0 {
                    place(&mut self.index, slot);
                }
            }
        }
        debug_assert!(
            self.len() < u32::MAX as usize,
            "a slot holds 32 bits of sequence"
        );
        let filed = slot(hash, self.seq(end));
        place(&mut self.index, filed);
        filter_bit(hash)
    }

    /// The summary of the live keys at `offsets`, each laid out and hashed afresh.
    fn summary(&self, plan: &[PlanWord], offsets: Range<usize>, work: &mut SweepWork) -> Summary {
        work.refolded += offsets.len() as u64;
        let mut summary = Summary::EMPTY;
        for offset in offsets {
            let key = Probe::new(&self.entry(offset).key);
            summary.add(plan, &key, masked_hash(plan, |w| key.word(w)));
        }
        summary
    }

    /// Drop every live entry in front of `cut` that `gone` names, reading those entries
    /// and nothing else; `gone` sees each once, newest first. The entries behind the cut
    /// keep their offsets, slots and hashes, and their chunks' summaries.
    ///
    /// Each entry that goes has its slot freed, its key hashed once to find it; each
    /// survivor slides up against the cut, in order, and its slot, found the same way,
    /// is re-pointed in place. The blocks left dead are freed, one kept as the spare; the
    /// chunks that held any of `head..cut` are refolded from their live keys, and the
    /// slab agreement and the filter become the meet of the chunks' summaries. A walk
    /// from the end of the log that drops an entry recomputes [`Tuple::ordered`] from the
    /// survivors it read.
    /// Returns the miss filter of what is left — 0 for a tuple left empty, whose
    /// agreement words are then stale — or `None`, with nothing written, if no entry
    /// went.
    fn remove(
        &mut self,
        plan: &mut [PlanWord],
        mut cut: usize,
        mut gone: impl FnMut(&MegaflowEntry) -> bool,
        work: &mut SweepWork,
    ) -> Option<u64> {
        let (head, end) = (self.head as usize, self.end());
        work.examined += (cut - head) as u64;
        // Survivors are read newest first: `newer` is the last one's installation.
        let (mut to, mut ordered, mut newer) = (cut, true, f64::INFINITY);
        for from in (head..cut).rev() {
            let entry = self.entry(from);
            let went = gone(entry);
            if !went {
                ordered &= entry.last_used >= entry.installed_at && entry.installed_at <= newer;
                newer = entry.installed_at;
                to -= 1;
                if to == from {
                    continue;
                }
            }
            let key = Probe::new(&entry.key);
            let filed = seek(
                &self.index,
                slot(masked_hash(plan, |w| key.word(w)), self.seq(from)),
            );
            debug_assert!(filed.is_some(), "every live entry has its slot");
            work.slots += 1;
            if went {
                work.removed += 1;
                if let Some(i) = filed {
                    unplace(&mut self.index, i);
                }
                continue;
            }
            let moved = entry.clone();
            *self.entry_mut(to) = moved;
            if let Some(i) = filed {
                self.index[i] = self.index[i] & TAG | u64::from(self.seq(to));
            }
            work.moved += 1;
        }
        if to == head {
            return None;
        }
        if cut == end {
            self.ordered = ordered;
        }
        self.head = to as u32;
        // Free the blocks left dead, keeping one for the next block.
        while self.head as usize >= BLOCK {
            let Some(log) = self.log.as_deref_mut() else {
                break;
            };
            let Some(next) = log.blocks.pop_front() else {
                break;
            };
            log.free(std::mem::replace(&mut self.entries, next));
            log.sealed.drain(..BLOCK / CHUNK);
            self.base = self.base.wrapping_add(BLOCK as u32);
            self.head -= BLOCK as u32;
            cut -= BLOCK;
        }
        let (head, end) = (self.head as usize, self.end());
        if head == end {
            return Some(0);
        }
        if self.log.is_none() {
            return Some(self.summary(plan, head..end, work).store(plan));
        }
        // The chunks in front of the head's are dead: they contribute nothing. Refold the
        // chunks that hold any of `head..cut`: each lost entries, or took a survivor, or
        // both.
        if let Some(log) = self.log.as_deref_mut() {
            for dead in log.sealed.iter_mut().take(head / CHUNK) {
                *dead = Summary::EMPTY;
            }
        }
        for chunk in head / CHUNK..=(cut.max(head + 1) - 1) / CHUNK {
            let live = (chunk * CHUNK).max(head)..((chunk + 1) * CHUNK).min(end);
            let full = live.end == (chunk + 1) * CHUNK;
            let summary = self.summary(plan, live, work);
            if let Some(log) = self.log.as_deref_mut() {
                match full {
                    true => log.sealed[chunk] = summary,
                    false => log.open = summary,
                }
            }
        }
        let mut meet = Summary::EMPTY;
        if let Some(log) = self.log.as_deref() {
            for summary in log.sealed.iter().chain([&log.open]) {
                meet.meet(summary);
            }
        }
        Some(meet.store(plan))
    }

    /// Whether this tuple is what `words`, its plan words, and `filter`, its miss filter,
    /// say it is: it holds an entry; its index holds one slot per live entry, through
    /// which [`Tuple::find`] finds the entry where it is; each chunk's summary is the
    /// fold over its live keys; the agreement words and the filter are exactly the meet
    /// of those; and an [`ordered`](Tuple::ordered) log is ordered.
    fn consistent(&self, words: &[PlanWord], filter: u64) -> bool {
        let (head, end) = (self.head as usize, self.end());
        let filed = self.index.iter().filter(|&&slot| slot != 0).count();
        let mut ok = head < end && filed == end - head;
        let mut meet = Summary::EMPTY;
        for chunk in 0..end.div_ceil(CHUNK) {
            let live = (chunk * CHUNK).max(head)..((chunk + 1) * CHUNK).min(end);
            let full = live.end == (chunk + 1) * CHUNK;
            let mut summary = Summary::EMPTY;
            for offset in live {
                let entry = self.entry(offset);
                let key = Probe::new(&entry.key);
                let hash = masked_hash(words, |w| key.word(w));
                summary.add(words, &key, hash);
                ok &= self.find(hash, &entry.key) == Some(offset);
                ok &= !self.ordered
                    || (entry.last_used >= entry.installed_at
                        && (offset == head
                            || entry.installed_at >= self.entry(offset - 1).installed_at));
            }
            if let Some(log) = self.log.as_deref() {
                let stored = if full {
                    log.sealed.get(chunk)
                } else {
                    Some(&log.open)
                };
                ok &= stored == Some(&summary);
            }
            meet.meet(&summary);
        }
        if let Some(log) = self.log.as_deref() {
            ok &=
                log.sealed.len() == end / CHUNK && (end % CHUNK != 0 || log.open == Summary::EMPTY);
        }
        ok && Summary::of(words, filter) == meet
    }
}

/// Host-side work of the sweeps that drop entries — [`TupleSpace::expire_idle`] and
/// [`TupleSpace::remove_where`] — summed over the cache's life: deterministic counts,
/// read through [`TupleSpace::sweep_work`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepWork {
    /// Entries read to decide whether they go.
    pub examined: u64,
    /// Entries removed.
    pub removed: u64,
    /// Surviving entries copied to another place in their tuple's log.
    pub moved: u64,
    /// Keys laid out, hashed and folded into an agreement again.
    pub refolded: u64,
    /// Index slots freed, re-pointed or refiled.
    pub slots: u64,
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
    /// mutator: insert folds the new key in, a sweep refolds the chunks it changed.
    slab: Vec<PlanWord>,
    /// The tuples, each in the slot its lane record names. Slot order means nothing.
    tuples: Vec<Tuple>,
    /// What the sweeps have done; see [`Self::sweep_work`].
    work: SweepWork,
}

impl TupleSpace {
    /// Entries to a block of a tuple's log: a tuple that outgrows one grows, and an idle
    /// sweep frees it, a block at a time.
    pub const BLOCK: usize = BLOCK;

    /// Create an empty cache.
    pub fn new(schema: FieldSchema) -> Self {
        TupleSpace {
            schema,
            ordering: MaskOrdering::Insertion,
            lane: VecDeque::new(),
            slab: Vec::new(),
            tuples: Vec::new(),
            work: SweepWork::default(),
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
        self.tuples.iter().map(Tuple::len).sum()
    }

    /// The host-side work every sweep of this cache has done so far, summed: entries
    /// examined and removed, survivors moved, keys refolded and index slots written.
    /// Deterministic, and never part of a simulated cost.
    pub fn sweep_work(&self) -> SweepWork {
        self.work
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
        let tuple = &mut self.tuples[rec.tuple as usize];
        let removed = tuple.len();
        (tuple.entries, tuple.head, tuple.log) = (Vec::new(), 0, None);
        self.drop_emptied();
        debug_assert!(self.lane_consistent());
        removed
    }

    /// Iterate over all entries, tuple by tuple in probe order, and within a tuple in
    /// the order they were inserted.
    pub fn entries(&self) -> impl Iterator<Item = &MegaflowEntry> {
        self.lane.iter().flat_map(|rec| self.tuple(rec).iter())
    }

    /// One probe of Alg. 1: the offset, in its tuple's log, of the entry the probed
    /// header matches under the record's mask. [`Self::lookup`] and [`Self::peek`]
    /// probe with this one; [`Self::lookup_run`] and the Inv(2) walk ([`Self::walk_for`])
    /// run the agreement test their own way and share its tail. The test reads the lane
    /// record's copy of the first agreement words, then the slab's plan words past them,
    /// if the plan has more: a header that disagrees misses without a hash, having read
    /// for most plans the record alone. One that survives is hashed off the slab's plan
    /// words, and on a clear filter bit misses having read nothing of the tuple. It
    /// borrows the slab and the tuples, not `self`: `lookup` scans the lane mutably.
    #[inline(always)]
    fn probe(
        slab: &[PlanWord],
        tuples: &[Tuple],
        rec: &LaneRecord,
        probe: &Probe,
    ) -> Option<usize> {
        if rec.excludes(|w| probe.words[w]) != 0 {
            return None;
        }
        let tail = &slab[rec.tail()];
        if tail.iter().fold(0, |x, w| x | w.excludes(probe.word(w))) != 0 {
            return None;
        }
        let hash = masked_hash(&slab[rec.plan()], |w| probe.word(w));
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
            if let Some(offset) = Self::probe(&self.slab, &self.tuples, rec, &probe) {
                rec.hits += 1;
                action = Some(self.tuples[rec.tuple as usize].hit(offset, now));
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
    /// Each lane record's agreement words are tested against every header still looking,
    /// word by word and without a branch: the record's inline copy first, and a record
    /// that rules out all four headers there is passed at once; otherwise the slab's plan
    /// words past the copy, if any. Only a header that survives hashes, off the slab's
    /// plan words, and a header leaves the walk at its first hit, at the position `lookup`
    /// would stop at. The hits are committed afterwards, header by header in run order.
    /// A hit bumps counters and stamps `last_used`, none of which a probe reads, so the
    /// walk cannot tell the run from `lookup` called on each header in turn.
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
            let mut excluded = [0u64; RUN];
            for (j, x) in excluded.iter_mut().enumerate() {
                *x = rec.excludes(|w| words[w][j]);
            }
            // In an explosion nearly every record rules every header out on its inline
            // words alone, and the walk moves on without another test: on a warm lane
            // this pass more than halved a run's cost per record.
            if excluded.iter().all(|&x| x != 0) {
                continue;
            }
            for w in &self.slab[rec.tail()] {
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
                let plan = &self.slab[rec.plan()];
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
            let (i, offset) = found[j];
            let rec = &mut self.lane[i];
            rec.hits += 1;
            out[j] = LookupOutcome {
                action: Some(self.tuples[rec.tuple as usize].hit(offset, now)),
                masks_scanned: i + 1,
            };
        }
        n
    }

    /// Read-only lookup that does not update statistics (used by tests and MFCGuard).
    pub fn peek(&self, header: &Key) -> Option<&MegaflowEntry> {
        let probe = Probe::new(header);
        self.lane.iter().find_map(|rec| {
            Self::probe(&self.slab, &self.tuples, rec, &probe).map(|o| self.tuple(rec).entry(o))
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
                rec.filter |= self.tuples[rec.tuple as usize].push(words, rec.filter, entry, hash);
                rec.sync(words);
            }
            None => {
                debug_assert!(
                    self.slab.len() + plan.len <= u32::MAX as usize,
                    "a lane record holds 32 bits of slab position and of tuple slot"
                );
                let plan_start = self.slab.len();
                self.slab.extend_from_slice(plan.words());
                let words = &mut self.slab[plan_start..];
                let (tuple, filter) = Tuple::new(entry, words);
                let mut rec = LaneRecord {
                    filter,
                    plan_start: plan_start as u32,
                    plan_len: plan.len as u32,
                    tuple: self.tuples.len() as u32,
                    ..LaneRecord::default()
                };
                rec.sync(words);
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
                if let Some(offset) = Self::find_hashed(&self.tuples, rec, hash, key) {
                    return Err(tuple.entry(offset));
                }
            } else {
                // Report the smallest conflicting key, not the first stored: the
                // generation strategy narrows wildcards against the returned conflict,
                // so the choice must not depend on the order entries arrived in.
                let conflict = tuple
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
    /// removed entries. The predicate sees entries tuple by tuple in probe order, and
    /// within a tuple newest first. A tuple left without entries is dropped and the
    /// survivors keep their relative probe order — this is what shrinks |M| back down
    /// (the entire point of MFCGuard). Within a tuple the survivors keep their order;
    /// those older than the newest entry removed slide up, their index slots re-pointed
    /// in place.
    pub fn remove_where<F: FnMut(&MegaflowEntry) -> bool>(&mut self, mut predicate: F) -> usize {
        self.sweep_tuples(|tuple, plan, work| tuple.remove(plan, tuple.end(), &mut predicate, work))
    }

    /// Run `sweep` over every tuple in probe order, with its plan words and the work
    /// counters; a tuple it returns `Some(filter)` for has lost entries and gets that
    /// filter. Drops the tuples left empty; returns how many entries went.
    fn sweep_tuples(
        &mut self,
        mut sweep: impl FnMut(&mut Tuple, &mut [PlanWord], &mut SweepWork) -> Option<u64>,
    ) -> usize {
        let mut removed = 0;
        let mut emptied = false;
        for rec in &mut self.lane {
            let tuple = &mut self.tuples[rec.tuple as usize];
            let before = tuple.len();
            let words = &mut self.slab[rec.plan()];
            if let Some(filter) = sweep(tuple, words, &mut self.work) {
                removed += before - tuple.len();
                rec.filter = filter;
                rec.sync(words);
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
                kept += u32::from(!t.is_empty());
                slot
            })
            .collect();
        self.tuples.retain(|t| !t.is_empty());
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
    /// nothing else, a record's inline agreement words are its plan's first ones, and
    /// each tuple is [`Tuple::consistent`] with its plan words and its record's filter.
    /// What debug builds assert after every mutation. It allocates nothing, so that the
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
                let words = self.slab.get(rec.plan());
                let words = words.filter(|words| Plan::of(&tuple.mask).is(words));
                words.is_some_and(|words| {
                    let mut synced = rec.clone();
                    synced.sync(words);
                    synced == *rec && tuple.consistent(words, rec.filter)
                })
            })
    }

    /// Expire entries idle for longer than `idle_timeout` seconds (OVS's 10 s policy,
    /// §5.4: "the 10 sec idle MFC timeout in OVS, keeping the attacker's entries alive
    /// for an extended time"). Returns the number of expired entries.
    ///
    /// It removes exactly what `remove_where(|e| now - e.last_used > idle_timeout)` does,
    /// leaving the same entries in the same order, but reads only each tuple's *old
    /// region* — the entries in front of the first one whose own installation is not past
    /// the timeout: the entries behind it stay where they are, with their slots and
    /// hashes. A tuple installed out of time order, or hit before an entry's
    /// installation, is read whole instead.
    pub fn expire_idle(&mut self, now: f64, idle_timeout: f64) -> usize {
        self.sweep_tuples(|tuple, plan, work| {
            let (head, end) = (tuple.head as usize, tuple.end());
            let mut cut = end;
            if tuple.ordered {
                // Cut at the first entry whose installation is not past the timeout: the
                // entries behind it were installed no earlier and used no earlier than
                // installed, so none is idle. The entry at the cut is read to find it.
                let old = |&offset: &usize| now - tuple.entry(offset).installed_at > idle_timeout;
                cut = head + (head..end).take_while(old).count();
                work.examined += u64::from(cut < end);
            }
            tuple.remove(plan, cut, |e| now - e.last_used > idle_timeout, work)
        })
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
            let mut keys: Vec<&MegaflowEntry> = self.tuple(rec).iter().collect();
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

    /// Reference Alg. 1, index-less, over a flat list of entries in [`TupleSpace::entries`]
    /// order (a tuple's entries together, tuples in probe order): the entry `header`
    /// matches in the first tuple that holds one, and how many tuples the scan probed to
    /// find it (all of them on a miss) — what `lookup` and `peek` promise, without
    /// agreement words, hashes or filters.
    fn lookup_scan<'a>(
        entries: &'a [MegaflowEntry],
        header: &Key,
    ) -> (Option<&'a MegaflowEntry>, usize) {
        let mut masks: Vec<&Mask> = entries.iter().map(|e| &e.mask).collect();
        masks.dedup();
        let hit = entries
            .iter()
            .find(|e| fields::matches(header, &e.key, &e.mask));
        let scanned = hit.map_or(masks.len(), |e| {
            1 + masks
                .iter()
                .position(|&m| *m == e.mask)
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
                let held: Vec<MegaflowEntry> = c.entries().cloned().collect();
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
                    let (hit, scanned) = lookup_scan(&held, header);
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
    /// growth, an expiry, refill and removal, against a map of what it holds.
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

        // Lane record 0's inline copy of word 0 says bits 2..1 agree, at 00; its second
        // inline word pads a one-word plan, and excludes nothing.
        let mut stale_inline_agree = cache.clone();
        stale_inline_agree.lane[0].agree[0] ^= 0b001;
        assert!(
            !stale_inline_agree.lane_consistent(),
            "the inline agreement is the slab's"
        );
        let mut stale_inline_value = cache.clone();
        stale_inline_value.lane[1].value[0] ^= 0b100;
        assert!(
            !stale_inline_value.lane_consistent(),
            "the inline value is the slab's"
        );
        let mut stale_padding = cache.clone();
        stale_padding.lane[0].agree[1] ^= 0b001;
        assert!(
            !stale_padding.lane_consistent(),
            "a padding word agrees on nothing"
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

    /// `lookup`, `lookup_run`, `peek` and `find_conflict` on `c` answer as the index-less
    /// scans do: every header of `headers` looked up alone and in runs, and every header
    /// under every mask in `masks` checked for conflicts.
    fn agrees_with_the_scan(
        c: &TupleSpace,
        headers: &[Key],
        masks: &[Mask],
    ) -> Result<(), TestCaseError> {
        let held: Vec<MegaflowEntry> = c.entries().cloned().collect();
        for header in headers {
            let (hit, scanned) = lookup_scan(&held, header);
            prop_assert_eq!(c.peek(header), hit, "peek {}", header);
            let out = c.clone().lookup(header, 9.0);
            prop_assert_eq!(
                (out.action, out.masks_scanned),
                (hit.map(|e| e.action), scanned),
                "lookup {}",
                header
            );
            for mask in masks {
                let key = header.apply_mask(mask);
                prop_assert_eq!(
                    c.find_conflict(&key, mask),
                    find_conflict_scan(c, &key, mask),
                    "conflict {} / {}",
                    key,
                    mask
                );
            }
        }
        for len in 2..=RUN {
            for run in headers.windows(len) {
                let run: Vec<(&Key, f64)> = run.iter().map(|h| (h, 9.0)).collect();
                run_matches_lookups(c, &run)?;
            }
        }
        Ok(())
    }

    /// A lane record carries its plan's first two agreement words; the slab holds the
    /// rest. On a schema of three byte fields, a full mask's plan reads key words 0, 2
    /// and 4, so its record carries the first two and the slab word 4 alone; beside it
    /// are a two-word plan (no tail) and a one-word plan (a padding word). A header that
    /// agrees with the full mask's entry on `a` and `b` and differs on `c` alone is ruled
    /// out by the tail only, and misses after scanning every tuple. Through inserts that
    /// widen the tail's disagreement, an idle sweep and `remove_where` that narrow it
    /// again, and `remove_mask`, every probe path answers as the index-less scans do. A
    /// match-all entry overlaps every other one, so its zero-word plan, all padding, is
    /// checked in a cache of its own.
    #[test]
    fn a_probe_reads_the_inline_words_then_the_slab_tail() {
        let schema = FieldSchema::new(vec![
            FieldDef::new("a", 8),
            FieldDef::new("b", 8),
            FieldDef::new("c", 8),
        ]);
        let key = |a: u128, b: u128, c: u128| Key::from_values(&schema, &[a, b, c]);
        let (full, pair, top) = (schema.full_mask(), key(0xff, 0, 0xf0), key(0, 0, 0xf0));
        let masks = [full.clone(), pair.clone(), top.clone()];
        let headers: Vec<Key> = [
            (1, 2, 3),
            (1, 2, 4),
            (1, 2, 5),
            (1, 2, 7),
            (1, 3, 3),
            (7, 9, 0x61),
            (7, 9, 0x51),
            (8, 8, 0x5f),
            (0, 0, 0),
        ]
        .iter()
        .map(|&(a, b, c)| key(a, b, c))
        .collect();
        let stranger = key(1, 2, 4);

        let mut c = TupleSpace::new(schema.clone());
        c.insert(key(1, 2, 3), full.clone(), Action::Allow, 0.0)
            .unwrap();
        c.insert(key(7, 0, 0x60), pair.clone(), Action::Deny, 0.0)
            .unwrap();
        c.insert(key(0, 0, 0x50), top.clone(), Action::Deny, 0.0)
            .unwrap();
        let shapes: Vec<(u32, [u8; INLINE], usize)> = c
            .lane
            .iter()
            .map(|rec| (rec.plan_len, rec.word, rec.tail().len()))
            .collect();
        assert_eq!(shapes, [(3, [0, 2], 1), (2, [0, 4], 0), (1, [4, 0], 0)]);
        assert_eq!(c.lane[2].agree[1], 0, "a padding word agrees on nothing");
        assert_eq!(
            c.clone().lookup(&stranger, 1.0),
            LookupOutcome {
                action: None,
                masks_scanned: 3
            }
        );
        assert_eq!(
            c.clone().lookup(&key(1, 2, 3), 1.0).action,
            Some(Action::Allow)
        );
        agrees_with_the_scan(&c, &headers, &masks).unwrap();

        // (1, 2, 3) and (1, 2, 5) agree on bit 0 of `c`, and on its bits 7..3: the tail
        // still rules out (1, 2, 4) without a hash, but not (1, 2, 7).
        c.insert(key(1, 2, 5), full.clone(), Action::Deny, 5.0)
            .unwrap();
        assert_eq!(c.slab[c.lane[0].plan()][2].agree, 0xf9);
        agrees_with_the_scan(&c, &headers, &masks).unwrap();
        let refused = c.insert(key(8, 8, 0x5f), full.clone(), Action::Deny, 5.0);
        assert!(refused.is_err(), "(8, 8, 0x5f) is within (*, *, 0x5*)");
        agrees_with_the_scan(&c, &headers, &masks).unwrap();

        // The entries installed at 0 go; the full mask's tuple is (1, 2, 5) alone again.
        assert_eq!(c.expire_idle(12.0, 10.0), 3);
        assert_eq!(c.lane.len(), 1);
        assert_eq!(c.slab[c.lane[0].plan()][2].agree, 0xff);
        agrees_with_the_scan(&c, &headers, &masks).unwrap();

        c.insert(key(7, 0, 0x61), pair.clone(), Action::Allow, 13.0)
            .unwrap();
        c.insert(key(1, 3, 3), full.clone(), Action::Allow, 13.0)
            .unwrap();
        agrees_with_the_scan(&c, &headers, &masks).unwrap();
        assert_eq!(c.remove_where(|e| e.key == key(1, 2, 5)), 1);
        agrees_with_the_scan(&c, &headers, &masks).unwrap();
        assert_eq!(c.remove_mask(&pair), 1);
        agrees_with_the_scan(&c, &headers, &masks).unwrap();
        assert_eq!(c.remove_mask(&full), 1);
        assert_eq!(c.mask_count(), 0);

        let mut all = TupleSpace::new(schema.clone());
        let none = schema.empty_mask();
        all.insert(none.clone(), none.clone(), Action::Deny, 0.0)
            .unwrap();
        assert_eq!((all.lane[0].plan_len, all.lane[0].agree), (0, [0; INLINE]));
        agrees_with_the_scan(&all, &headers, &[none, full]).unwrap();
        assert!(headers
            .iter()
            .all(|h| all.clone().lookup(h, 1.0).masks_scanned == 1));
    }

    /// The schema of the sweep oracle, and the full mask its exact-match tuples share.
    fn oracle_schema() -> (FieldSchema, Mask) {
        let schema = FieldSchema::new(vec![
            FieldDef::new("a", 5),
            FieldDef::new("wide", 128),
            FieldDef::new("b", 4),
        ]);
        let full = schema.full_mask();
        (schema, full)
    }

    /// `a` and `b` hold the same tuple space: the same entries in the same order, field by
    /// field, the same mask usage, the same verdicts and `masks_scanned` for every
    /// resident key and every header of `headers`, and the same conflicts for `queries`.
    fn same_cache(
        a: &TupleSpace,
        b: &TupleSpace,
        headers: &[Key],
        queries: &[(Key, Mask)],
    ) -> Result<(), TestCaseError> {
        let entries = |c: &TupleSpace| -> Vec<MegaflowEntry> { c.entries().cloned().collect() };
        prop_assert_eq!(entries(a), entries(b));
        prop_assert_eq!(a.mask_usage(), b.mask_usage());
        let resident: Vec<Key> = a.entries().map(|e| e.key.clone()).collect();
        let (mut a, mut b) = (a.clone(), b.clone());
        for header in resident.iter().chain(headers) {
            prop_assert_eq!(
                a.lookup(header, 1e6),
                b.lookup(header, 1e6),
                "lookup {}",
                header
            );
        }
        for (key, mask) in queries {
            prop_assert_eq!(a.find_conflict(key, mask), b.find_conflict(key, mask));
        }
        Ok(())
    }

    /// `c` holds exactly `model`, a flat list of entries in `entries()` order: the same
    /// entries, field by field, and for every resident key and every header of `headers`
    /// the verdict and `masks_scanned` that the index-less scan of `model` gives.
    fn holds_model(
        c: &TupleSpace,
        model: &[MegaflowEntry],
        headers: &[Key],
    ) -> Result<(), TestCaseError> {
        let held: Vec<&MegaflowEntry> = c.entries().collect();
        prop_assert_eq!(held, model.iter().collect::<Vec<_>>());
        // Lookups bump hit counters; keep them off the cache under test.
        let mut c = c.clone();
        for header in model.iter().map(|e| &e.key).chain(headers) {
            let (hit, scanned) = lookup_scan(model, header);
            let out = c.lookup(header, 1e6);
            prop_assert_eq!(
                (out.action, out.masks_scanned),
                (hit.map(|e| e.action), scanned),
                "lookup {}",
                header
            );
        }
        Ok(())
    }

    /// Run `sweep` on `c` against a flat model of it: a snapshot of `entries()` from which
    /// `retain` drops what `gone` names. The sweep returns how many entries the model lost
    /// and leaves `c` holding the model.
    fn sweep_matches_model(
        c: &mut TupleSpace,
        headers: &[Key],
        gone: impl Fn(&MegaflowEntry) -> bool,
        sweep: impl FnOnce(&mut TupleSpace) -> usize,
    ) -> Result<(), TestCaseError> {
        let mut model: Vec<MegaflowEntry> = c.entries().cloned().collect();
        let before = model.len();
        model.retain(|e| !gone(e));
        prop_assert_eq!(sweep(c), before - model.len());
        holds_model(c, &model, headers)
    }

    proptest! {
        /// Every removal against a flat model of the cache, with `retain` for the sweep.
        /// `expire_idle` walks each ordered tuple's old region alone and every other tuple
        /// whole; `remove_where` with the idle predicate walks every tuple whole, and with
        /// a predicate on what an entry examines, blind to time as MFCGuard's is, takes
        /// entries out of the middle of tuples. On exact-match tuples that grow past
        /// three blocks and wildcard tuples beside them, insert times that mostly advance
        /// but sometimes go back — by seconds, or by less than one as the gateway's
        /// replay of one source after another does — and hits at the clock or before it,
        /// every sweep agrees with the model on what it returns, the entries left (field
        /// by field, in order) and every lookup and `masks_scanned`; the two idle sweeps
        /// also agree with each other on the mask usage and `find_conflict`. The run goes
        /// on from either idle sweep, so each also starts from a log the other one left.
        #[test]
        fn expire_idle_matches_remove_where(
            ops in proptest::collection::vec((0u8..20, arb_triple(), 0u8..8, 0u64..40), 1..200),
            probes in proptest::collection::vec((arb_triple(), arb_triple()), 1..12),
        ) {
            let (schema, full) = oracle_schema();
            let headers: Vec<Key> = probes.iter().map(|&(k, _)| wide_key(&schema, k)).collect();
            let queries: Vec<(Key, Mask)> = probes
                .iter()
                .map(|&(k, m)| {
                    let mask = palette_mask(&schema, m);
                    (wide_key(&schema, k).apply_mask(&mask), mask)
                })
                .collect();
            let mut c = TupleSpace::with_ordering(schema.clone(), MaskOrdering::NewestFirst);
            let mut clock = 0.0;
            for &(op, key, pick, t) in &ops {
                let key = wide_key(&schema, key);
                // Mostly forward; one step in eight goes back by seconds, one by less
                // than one.
                let now = match pick {
                    0 => clock - t as f64,
                    1 => clock - t as f64 / 40.0,
                    _ => clock,
                };
                match op {
                    0..=11 => {
                        c.insert(key, full.clone(), Action::Deny, now).ok();
                        clock += 0.5;
                    }
                    12 => {
                        let mask = palette_mask(&schema, (t as u128, u128::from(pick) * 37, t as u128));
                        c.insert(key, mask, Action::Allow, now).ok();
                    }
                    13..=15 => {
                        let resident = c.entries().nth(t as usize % c.entry_count().max(1));
                        if let Some(header) = resident.map(|e| e.key.clone()) {
                            c.lookup(&header, now);
                        }
                    }
                    16 => {
                        c.lookup(&key, now);
                    }
                    17 => {
                        let guard = |e: &MegaflowEntry| {
                            e.mask.get(0) != 0 && e.key.get(0) % 4 == u128::from(pick % 4)
                        };
                        sweep_matches_model(&mut c, &headers, guard, |c| c.remove_where(guard))?;
                    }
                    _ => {
                        let timeout = [0.0, 5.0, 20.0, 40.0][usize::from(pick % 4)];
                        let idle = |e: &MegaflowEntry| clock - e.last_used > timeout;
                        let (mut a, mut b) = (c.clone(), c.clone());
                        sweep_matches_model(&mut a, &headers, idle, |a| a.expire_idle(clock, timeout))?;
                        sweep_matches_model(&mut b, &headers, idle, |b| b.remove_where(idle))?;
                        same_cache(&a, &b, &headers, &queries)?;
                        c = if pick < 4 { a } else { b };
                    }
                }
            }
        }
    }

    /// Rebase `c`'s tuple in slot `tuple` so that its oldest entry's sequence number is
    /// `base`, re-pointing every slot.
    fn rebase(c: &mut TupleSpace, tuple: usize, base: u32) {
        let tuple = &mut c.tuples[tuple];
        let shift = base.wrapping_sub(tuple.base);
        for slot in tuple.index.iter_mut().filter(|slot| **slot != 0) {
            *slot = *slot & TAG | u64::from((*slot as u32).wrapping_add(shift));
        }
        tuple.base = base;
        assert!(c.lane_consistent());
    }

    /// A tuple whose sequence numbers start just below 2^32 churns across the wrap:
    /// rounds of inserts of more than two blocks each and sweeps that drop the oldest,
    /// against the set of keys it should hold.
    #[test]
    fn a_log_churns_across_the_sequence_wrap() {
        let (schema, full) = oracle_schema();
        let key = |i: u128| wide_key(&schema, (i % 32, i / 32 % 256, i / 8192));
        let mut c = TupleSpace::new(schema.clone());
        c.insert(key(0), full.clone(), Action::Deny, 0.0).unwrap();
        rebase(&mut c, 0, u32::MAX - 5);
        // Each key and when it went in.
        let mut model = vec![(key(0), 0.0)];
        let mut next = 1;
        for r in 1..12 {
            let now = f64::from(r) * 10.0;
            for _ in 0..2 * BLOCK + 3 {
                let k = key(next);
                next += 1;
                c.insert(k.clone(), full.clone(), Action::Deny, now)
                    .unwrap();
                model.push((k, now));
            }
            // Everything but the last two rounds idles out.
            c.expire_idle(now, 15.0);
            model.retain(|&(_, at)| now - at <= 15.0);
            let held: Vec<Key> = c.entries().map(|e| e.key.clone()).collect();
            let expected: Vec<Key> = model.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(held, expected, "round {r}");
            for k in &held {
                assert_eq!(c.peek(k).map(|e| &e.key), Some(k));
            }
        }
        let tuple = &c.tuples[0];
        assert!(tuple.log.as_ref().is_some_and(|log| log.blocks.len() >= 2));
        assert!(
            tuple.base < u32::MAX - 5,
            "the sequence numbers wrapped (base {})",
            tuple.base
        );
    }

    /// What an idle sweep of an ordered log costs, tuple by tuple: it examines the
    /// entries it removes or moves and the one at the cut, and refolds at most two
    /// chunks. A long-lived entry at the front of the log, hit every step, is the one
    /// survivor each sweep moves; batches behind it idle out a step at a time. A sweep
    /// that removes nothing reads that entry and the one at the cut, and writes nothing.
    #[test]
    fn an_idle_sweep_examines_what_it_removes_or_moves() {
        let (schema, full) = oracle_schema();
        let key = |i: u128| wide_key(&schema, (i % 32, i / 32 % 256, i / 8192));
        let mut c = TupleSpace::new(schema.clone());
        c.insert(key(0), full.clone(), Action::Allow, 0.0).unwrap();
        let (mut next, mut swept) = (1, 0);
        for step in 1..60 {
            let now = f64::from(step);
            for _ in 0..5 {
                c.insert(key(next), full.clone(), Action::Deny, now)
                    .unwrap();
                next += 1;
            }
            assert_eq!(c.lookup(&key(0), now).action, Some(Action::Allow));
            let before = c.sweep_work();
            let removed = c.expire_idle(now, 10.0);
            let w = c.sweep_work();
            let d = |f: fn(&SweepWork) -> u64| f(&w) - f(&before);
            assert_eq!(d(|w| w.removed), removed as u64);
            let (examined, removed_and_moved) = (d(|w| w.examined), d(|w| w.removed + w.moved));
            assert!(
                examined <= removed_and_moved + 1 || (removed == 0 && examined <= 2),
                "step {step}: {w:?} after {before:?}"
            );
            assert!(d(|w| w.refolded) <= 2 * CHUNK as u64, "step {step}");
            assert_eq!(d(|w| w.slots), d(|w| w.removed) + d(|w| w.moved));
            if removed > 0 {
                assert_eq!(d(|w| w.moved), 1, "the long-lived entry slides up");
                swept += 1;
            }
        }
        assert!(swept > 40, "most steps removed a batch");
        let log = c.tuples[0].log.as_ref();
        assert!(
            log.is_some_and(|log| log.blocks.len() >= 2),
            "the tuple spans blocks"
        );
        assert_eq!(
            c.entry_count(),
            1 + 5 * 11,
            "the last eleven batches are live"
        );
    }

    /// The work a sweep did, as the difference of two [`TupleSpace::sweep_work`] reads.
    fn work_since(c: &TupleSpace, before: SweepWork) -> SweepWork {
        let w = c.sweep_work();
        SweepWork {
            examined: w.examined - before.examined,
            removed: w.removed - before.removed,
            moved: w.moved - before.moved,
            refolded: w.refolded - before.refolded,
            slots: w.slots - before.slots,
        }
    }

    /// The gateway's pattern: installs replayed a fraction of a second behind the tuple's
    /// newest entry leave its log out of time order, so an idle sweep walks the whole
    /// log, reading every live entry and writing the slots of only what it removes or
    /// moves. Once such a walk has dropped the entries installed back in time, the tuple
    /// is ordered again, and the next idle sweep reads its old region alone.
    #[test]
    fn a_tuple_out_of_order_is_ordered_again_once_its_offenders_go() {
        let (schema, full) = oracle_schema();
        let key = |i: u128| wide_key(&schema, (i % 32, i / 32 % 256, i / 8192));
        let mut c = TupleSpace::new(schema.clone());
        let mut next = 0;
        let mut install = |c: &mut TupleSpace, n: usize, now: f64| {
            for _ in 0..n {
                c.insert(key(next), full.clone(), Action::Deny, now)
                    .unwrap();
                next += 1;
            }
        };
        // Three blocks a quarter second apart (0 .. 11.75 s), three entries 0.4 s behind
        // the newest, and a block at 20 s.
        for i in 0..3 * BLOCK {
            install(&mut c, 1, i as f64 / 4.0);
        }
        install(&mut c, 3, 11.35);
        assert!(!c.tuples[0].ordered);
        install(&mut c, BLOCK, 20.0);
        let live = c.entry_count() as u64;

        // Nothing idles out: the walk reads every entry and writes nothing.
        let (held, before) = (c.entries().cloned().collect::<Vec<_>>(), c.sweep_work());
        assert_eq!(c.expire_idle(20.0, 30.0), 0);
        let w = work_since(&c, before);
        assert_eq!(
            w,
            SweepWork {
                examined: live,
                ..SweepWork::default()
            }
        );
        assert!(c.entries().eq(held.iter()));

        // At 21.5 s everything used before 11.5 s goes, the offenders too: the two
        // survivors in front of them slide up, the block behind them stays put.
        let before = c.sweep_work();
        assert_eq!(c.expire_idle(21.5, 10.0), 3 * BLOCK - 2 + 3);
        let w = work_since(&c, before);
        assert_eq!(
            (w.examined, w.removed, w.moved),
            (live, live - 2 - BLOCK as u64, 2)
        );
        assert_eq!(w.slots, w.removed + w.moved);
        assert!(c.tuples[0].ordered, "the survivors are in time order");
        let held: Vec<f64> = c.entries().map(|e| e.installed_at).collect();
        let mut expected = vec![11.5, 11.75];
        expected.extend([20.0; BLOCK]);
        assert_eq!(held, expected);

        // A block at 30 s; at 31 s the 18 entries installed before 21 s go, and the sweep
        // reads them and the entry at the cut, nothing more.
        install(&mut c, BLOCK, 30.0);
        let before = c.sweep_work();
        assert_eq!(c.expire_idle(31.0, 10.0), BLOCK + 2);
        let w = work_since(&c, before);
        assert!(w.examined <= w.removed + w.moved + 1, "{w:?}");
        assert_eq!(c.entry_count(), BLOCK);
    }

    /// `remove_where` walks every tuple's whole log: it examines every live entry, and
    /// writes the slot of each entry it removes or moves and nothing else. A predicate
    /// that names no entry leaves every entry and every write counter as they were; one
    /// that names entries in the middle of a tuple four blocks long moves only the
    /// survivors older than the newest entry it removes.
    #[test]
    fn remove_where_writes_only_what_it_removes_or_moves() {
        let (schema, full) = oracle_schema();
        let key = |i: u128| wide_key(&schema, (i % 32, i / 32 % 256, i / 8192));
        let mut c = TupleSpace::new(schema.clone());
        let n = 4 * BLOCK;
        for i in 0..n {
            c.insert(key(i as u128), full.clone(), Action::Deny, i as f64)
                .unwrap();
        }
        let mut held: Vec<MegaflowEntry> = c.entries().cloned().collect();
        let before = c.sweep_work();
        assert_eq!(c.remove_where(|e| e.action == Action::Allow), 0);
        let w = work_since(&c, before);
        assert_eq!(
            w,
            SweepWork {
                examined: n as u64,
                ..SweepWork::default()
            }
        );
        assert!(c.entries().eq(held.iter()));

        // Every fourth entry of the second and third blocks; the newest of them is the
        // entry at offset 3 * BLOCK - 3.
        let middle = |e: &MegaflowEntry| {
            let i = e.installed_at as usize;
            (BLOCK..3 * BLOCK).contains(&i) && i % 4 == 1
        };
        let before = c.sweep_work();
        assert_eq!(c.remove_where(middle), BLOCK / 2);
        let w = work_since(&c, before);
        let older = (3 * BLOCK - 3) - (BLOCK / 2 - 1);
        assert_eq!(
            (w.examined, w.removed, w.moved),
            (n as u64, BLOCK as u64 / 2, older as u64)
        );
        assert_eq!(w.slots, w.removed + w.moved);
        held.retain(|e| !middle(e));
        assert!(c.entries().eq(held.iter()));
        for e in &held {
            assert_eq!(c.peek(&e.key), Some(e));
        }
        assert!(c.tuples[0].ordered);
    }

    /// Backward-shift deletion, on an index of eight slots whose six keys share two
    /// homes, one run wrapping past the end: deleted in every order, each deletion leaves
    /// every remaining key found and no free slot inside a run.
    #[test]
    fn index_deletion_keeps_every_run_whole() {
        let homes = [6u64, 6, 7, 6, 0, 7];
        let slots: Vec<u64> = homes
            .iter()
            .enumerate()
            .map(|(seq, &home)| slot(home << 32 | (seq as u64) << 40, seq as u32))
            .collect();
        let mut full = vec![0u64; 8];
        for &s in &slots {
            place(&mut full, s);
        }
        // Every permutation of the six, by Heap's algorithm.
        fn orders(k: usize, a: &mut [usize], out: &mut Vec<Vec<usize>>) {
            if k <= 1 {
                out.push(a.to_vec());
                return;
            }
            for i in 0..k {
                orders(k - 1, a, out);
                a.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
            }
        }
        let mut all = Vec::new();
        orders(slots.len(), &mut [0, 1, 2, 3, 4, 5], &mut all);
        assert_eq!(all.len(), 720);
        for order in &all {
            let mut index = full.clone();
            for (n, &gone) in order.iter().enumerate() {
                let i = seek(&index, slots[gone]).expect("filed");
                unplace(&mut index, i);
                assert_eq!(seek(&index, slots[gone]), None);
                for &left in &order[n + 1..] {
                    let at = seek(&index, slots[left]).expect("still found");
                    // Every slot from the key's home up to it is taken.
                    let mut i = home(&index, slots[left]);
                    while i != at {
                        assert_ne!(index[i], 0, "a free slot inside a run: order {order:?}");
                        i = (i + 1) % index.len();
                    }
                }
            }
            assert!(index.iter().all(|&s| s == 0));
        }
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
