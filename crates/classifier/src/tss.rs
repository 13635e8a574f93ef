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
//! hit needs, in two vectors of one length, a tuple and its record at the same index,
//! both in the order the tuples were made, oldest first:
//!
//! * the **probe lane**, one 64-byte record per tuple, a cache line each. Alg. 1 scans
//!   it from its end, newest mask first, so a tuple's distance from the end *is* its
//!   place in the scan order. A record carries a 64-bit **fingerprint** of its tuple's
//!   mask and a copy of the agreement (below) of its plan's first two words. A hit writes
//!   nothing of it: the hit counter is the tuple's;
//! * the **tuples** — a mask, its *probe plan*, its entries and the index over them. The
//!   plan is the mask's non-zero 64-bit words, 32 bytes each, and the only form the scan
//!   reads a mask in; a plan determines its mask, so finding a mask's tuple compares
//!   plans too. Each plan word also carries the word's **agreement**: bits on which every
//!   resident key of the tuple agrees, and their common value — for a tuple made for one
//!   key and given no other, the whole word of that key. It is the scan's one proof of a
//!   miss, and it only narrows: an insert folds its key in, a sweep leaves it as it was
//!   (what every key of a superset agrees on, its subset agrees on too), and it starts
//!   over only with a new tuple. A tuple exists exactly as long as it has an entry, and
//!   nothing is keyed by mask.
//!
//! Every lookup is one walk of the lane, generic over how many headers it looks up at
//! once: one for [`TupleSpace::lookup`] and [`TupleSpace::peek`], up to
//! [`TupleSpace::RUN`] for a datapath's run of consecutive hits
//! ([`TupleSpace::lookup_run`]; a run of two or three fills the other columns with zero
//! words). The headers' words are laid out word-major, a column per header, so each lane
//! record (and any plan words past its copy) is read once for all of them. A record's
//! agreement is tested against every column at once, a word at a time, each word in one
//! fold without a branch: its first inline word, then its second only where some column
//! survived the first, then the tuple's plan words past the copy only where some column
//! survived both. A header that differs from the common value on an agreed bit matches
//! no entry of the tuple, and is past it without a hash. For an explosion — one entry per
//! mask, and most masks' plans two words long — that test is exact, so it ends every
//! miss having read nothing of the tuple. The plan stays the agreement's only source: an
//! insert, the one mutator that changes an agreement, copies it into the record too.
//!
//! The walk does not test every record. The lane is cut into blocks of 64 records, and
//! beside it the inline words of every full block are kept **bit-sliced** by nibble —
//! the bit-vector scheme of packet classification (Lakshman & Stiliadis, SIGCOMM 1998),
//! used only to skip records: per `(header word, nibble)` on which some record agrees, 16
//! rows of 64 bits per block, bit `b` of row `x` set iff record `b` does not rule out
//! nibble value `x`. The newest, partial block is tested record by record; each full
//! block, from the top, ANDs one row per sliced nibble per header and ORs the headers,
//! and only the records that survive — in an explosion a handful of the 513 — take the
//! per-record test above, newest first. A record the rows rule out is one its inline
//! words rule out for every header, so the walk stops where a record-by-record walk
//! would: the same hits, the same `masks_scanned`. The records stay the slices' source:
//! a tuple whose record completes a block slices it, an insert that narrows a record of
//! a full block rewrites its bits, and a dropped tuple re-slices the full blocks.
//!
//! A header that survives hashes `header AND mask` off the plan words and goes on, hash
//! in hand, to the tuple's index: it walks the tuple's flat open-addressed index of
//! `u64` slots from the slot the hash names, and compares against a stored key only
//! where a slot's tag (the hash's high 32 bits) matches. A header leaves the walk at its
//! first hit, and the walk ends when every header has hit, or at the start of the lane.
//! A walk materialises no masked key and allocates nothing. The results are committed
//! afterwards, header by header in run order — the hit counters bumped and `last_used`
//! stamped — up to and including the first miss; a run's headers behind that miss are
//! left as they were, for the datapath to look up again once the miss's upcall has
//! installed its entry.
//!
//! Inv(2)'s conflict check walks the lane too, with the same per-record test
//! (`LaneRecord::excludes`) restricted to the bits the prospective entry keeps, and
//! rules tuples out off the lane record alone: it reads a tuple's plan words only where
//! the record's inline words do not rule the tuple out, or where the record's
//! fingerprint is the prospective entry's mask's — the walk has to find that mask's tuple
//! whether its agreement excludes the key or not.
//!
//! A tuple is written on the rare path, and each write is one pass. An insert walks the
//! lane once: the same walk proves Inv(2) against every tuple and finds the tuple of the
//! entry's mask, and where it hashed the key to probe that tuple, the hash is the one the
//! entry is filed under. A new tuple compiles its mask's plan and goes, with its record,
//! at the end of both vectors, so it is scanned first. Every insert appends to the
//! tuple's *log*, an insertion-ordered run of fixed-size blocks (so entries of a tuple
//! are held, and [`TupleSpace::entries`] yields them, in insertion order;
//! [`TupleSpace::render`] sorts them by key, so its output does not depend on arrival
//! order), files the entry's sequence number in the index and folds the key into the
//! agreement. A tuple that never outgrows one block is one `Vec` that starts at
//! capacity 1. Every mutation leaves lane and tuples describing the same tuple space;
//! debug builds check that after each one.
//!
//! Every removal from a tuple is one walk back from a *cut*: it reads the live entries
//! in front of the cut, newest first, frees the index slots of the ones that go, slides
//! the survivors up against the cut, and frees the blocks left dead; the entries behind
//! the cut keep their places, slots and hashes. A removal writes no agreement and no
//! lane record: the keys left are a subset of those the agreement was folded over, so it
//! still rules out nothing they match. A tuple a removal empties is dropped with its
//! record, the others keeping their order (and the full blocks re-sliced in place), and
//! a later insert under its mask starts a new one, whose agreement is its first key's. Idle
//! expiry (§5.4's revalidation) is O(expired): installs arrive in time order, so a
//! tuple's entries that can have idled out are the ones in front of the first entry
//! whose own installation has not, and that entry is the cut. MFCGuard's removal, and
//! idle expiry of a tuple whose log is out of time order, walk from the end of the log.
//!
//! The index hash is fixed-seed. Keys an attacker chooses can therefore lengthen a
//! linear-probe run, or spread a tuple's keys until they agree on no bit and so send
//! every probe on to the tuple's index; and a narrowing outlives the keys that caused it
//! until their tuple empties, so keys installed once and expired keep doing so. All of
//! that costs *host* time only: `masks_scanned`, and with it every simulated cost,
//! counts tuples probed and cannot be moved that way.
//!
//! > *Observation 1: the time-complexity of TSS lookup grows linearly with the number of
//! > distinct masks O(|M|) and the space-complexity linearly with the number of entries
//! > O(|C|).*
//!
//! This module exposes exactly those two quantities ([`TupleSpace::mask_count`] /
//! [`TupleSpace::entry_count`]) plus the per-lookup work ([`LookupOutcome::masks_scanned`])
//! that the switch's cost model converts into throughput.

use std::collections::VecDeque;

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

/// The probe order of every [`TupleSpace`], named for [`TupleSpace::with_ordering`]. It
/// has one value: a miss scans every mask whatever the order, and that is the path the
/// attack exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskOrdering {
    /// Probe masks newest-first: a newly created mask joins the front of the probe
    /// order. This models the observed OVS datapath behaviour that a long-established
    /// flow's mask does not stay at the front of the scan once an attack starts spawning
    /// masks, so victim traffic pays the (near-)full scan — the regime measured in
    /// Fig. 8a/9a.
    #[default]
    NewestFirst,
}

/// One step of a probe plan — a non-zero 64-bit word of a mask — and its tuple's
/// **agreement word**: the bits of it on which every key installed in the tuple since it
/// was made agrees, and their common value, so every resident key agrees there too. A
/// header whose word differs from `value` anywhere on `agree` matches no entry of the
/// tuple, and neither does a prospective entry that differs there on a bit it keeps
/// ([`PlanWord::excludes`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct PlanWord {
    /// Which of [`Probe::words`].
    word: u8,
    /// The mask's bits in that word.
    bits: u64,
    /// Bits of `bits` every resident key has alike: all of them for a tuple made for one
    /// key and given no other since.
    agree: u64,
    /// The resident keys' bits on `agree`, zero elsewhere.
    value: u64,
}

// The scan reads one lane record per tuple, one record to a cache line, and the tuple's
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

/// A mask compiled into its probe plan, on the stack: what a tuple holds, before (or
/// without) a tuple to hold it. Its agreement words are empty.
struct Plan {
    words: [PlanWord; 16],
    len: usize,
    /// The [`fingerprint`] of its words, which its tuple's lane record carries.
    fingerprint: u64,
}

impl Plan {
    fn of(mask: &Mask) -> Self {
        let mut plan = Plan {
            words: [PlanWord::default(); 16],
            len: 0,
            fingerprint: 0,
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
        plan.fingerprint = fingerprint(plan.words());
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

/// A 64-bit fingerprint of a plan's `(word, bits)` pairs, and so of its mask: equal plans
/// print alike. The Inv(2) walk tells the tuple of a mask by it without reading the
/// plan; two masks that collide cost the walk a plan read, never a wrong answer. Every
/// upcall prints its mask, so it is one multiply-rotate per word, as [`masked_hash`]
/// takes.
fn fingerprint(words: &[PlanWord]) -> u64 {
    words.iter().fold(0, |h, w| {
        (h ^ w.bits)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(31)
            ^ u64::from(w.word)
    })
}

/// A key laid out for plans to read, once per use: a resident key folded into its tuple's
/// agreement or hashed, or a prospective entry's key on the Inv(2) walk. (A lookup lays
/// its headers out a column each: [`TupleSpace::walk`].)
struct Probe {
    /// The key as [`key_words`] lays it out.
    words: [u64; 16],
}

impl Probe {
    fn new(key: &Key) -> Self {
        Probe {
            words: key_words(key),
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
/// half, its slot and tag; a bit of a raw multiply depends on the input bits at or below
/// it alone, so the SplitMix64 finaliser folds the whole state into every one of them.
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

/// The most headers a walk of the lane looks up at once ([`TupleSpace::lookup_run`]).
const RUN: usize = 4;

/// The hash's high half, kept in a slot as its tag.
const TAG: u64 = !0 << 32;

/// Set in every filed slot's tag, so that no filed slot reads 0, a free one, whatever
/// sequence number it holds. A slot's home is its tag's low bits, and no index is long
/// enough to reach this one.
const FILED: u64 = 1 << 63;

/// Entries to a block of a tuple's log, the unit it is allocated and freed in: a power of
/// two. The crate's unit tests run with small blocks, so that their fixtures span many
/// of them.
const BLOCK: usize = if cfg!(test) { 16 } else { 256 };

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

/// One tuple as Alg. 1's scan reads it: a record of the probe lane, at its tuple's index
/// in [`TupleSpace::tuples`], one cache line, and aligned to one (a record straddling two
/// lines measured markedly slower). Beside the plan's fingerprint, it carries a copy of
/// the agreement of its plan's first [`INLINE`] words, so that a probe — and the Inv(2)
/// walk — tests a key against them without reading the tuple. The tuple's plan stays the
/// agreement's one source: [`LaneRecord::sync`] copies it wherever an insert has folded a
/// key in, and nothing else changes it. A hit reads the record and writes nothing of it:
/// the hit counter is the tuple's.
#[derive(Debug, Clone, Default, PartialEq)]
#[repr(align(64))]
struct LaneRecord {
    /// The [`fingerprint`] of the tuple's plan, written once when the tuple is made.
    fingerprint: u64,
    /// The first plan words' `agree` and `value`, and which header word each reads; a
    /// plan with fewer words pads with `agree = 0`, which excludes nothing.
    agree: [u64; INLINE],
    value: [u64; INLINE],
    word: [u8; INLINE],
}

impl LaneRecord {
    /// Copy the agreement of the first [`INLINE`] of `plan`, its tuple's plan words.
    fn sync(&mut self, plan: &[PlanWord]) {
        for i in 0..INLINE {
            let w = plan.get(i).copied().unwrap_or_default();
            (self.word[i], self.agree[i], self.value[i]) = (w.word, w.agree, w.value);
        }
    }

    /// What [`PlanWord::excludes`] gives for inline word `i` on the bits `keep(w)` of key
    /// word `w`, for a key whose word `w` is `word(w)`: non-zero iff that word alone rules
    /// out every entry the key could match there. A probe keeps every bit (a header matches
    /// no entry); the Inv(2) walk keeps the prospective entry's mask's, and is then told
    /// whether it overlaps no entry — each `agree` is within its plan word's bits, so this
    /// is the restriction to the bits both masks keep. A padding word gives 0.
    #[inline(always)]
    fn excludes(&self, i: usize, word: impl Fn(usize) -> u64, keep: impl Fn(usize) -> u64) -> u64 {
        let w = usize::from(self.word[i] & 15);
        (word(w) ^ self.value[i]) & self.agree[i] & keep(w)
    }

    /// The values of nibble `n` of header word `w` that its inline words do not rule out,
    /// bit `x` for value `x`: all sixteen where no inline word reads `w`.
    fn passes(&self, (w, n): (u8, u8)) -> u16 {
        (0..INLINE)
            .filter(|&i| self.word[i] & 15 == w)
            .fold(!0, |pass, i| {
                let nibble = |x: u64| (x >> (4 * n) & 15) as usize;
                pass & PASS[nibble(self.agree[i]) << 4 | nibble(self.value[i])]
            })
    }
}

/// Lane records to a sliced block, a bit of a `u64` row each.
const SLICE: usize = 64;

/// The most nibbles the slices cover; an agreed nibble past them is left to each
/// candidate's own test.
const SLOTS: usize = 64;

/// The nibble values an `(agree, value)` nibble pair passes, at `agree << 4 | value`: bit
/// `x` is set iff `(x ^ value) & agree == 0`.
const PASS: [u16; 256] = {
    let mut pass = [0; 256];
    let mut i = 0;
    while i < 256 {
        let (agree, value) = (i >> 4, i & 15);
        let mut x = 0;
        while x < 16 {
            if (x ^ value) & agree == 0 {
                pass[i] |= 1 << x;
            }
            x += 1;
        }
        i += 1;
    }
    pass
};

/// Each `(header word, nibble)` of a record's inline words, `word` and `agree`, on which
/// it agrees on a bit.
fn agreed(word: [u8; INLINE], agree: [u64; INLINE]) -> impl Iterator<Item = (usize, usize)> {
    (0..INLINE).flat_map(move |i| {
        let w = usize::from(word[i] & 15);
        (0..16)
            .filter(move |n| agree[i] >> (4 * n) & 15 != 0)
            .map(move |n| (w, n))
    })
}

/// The inline agreement words of the lane's full blocks of [`SLICE`] records, bit-sliced
/// by nibble: the bit-vector scheme of packet classification (Lakshman & Stiliadis,
/// SIGCOMM 1998), used only to skip records. For each *slot*, a `(header word, nibble)`
/// on which some record of a full block agrees, a block has 16 rows, one per value of
/// the nibble: bit `b` of row `x` is set iff record `SLICE * block + b` does not rule
/// value `x` out there. A header's candidates in a block are the AND of one row per
/// slot; a record outside them is ruled out by its inline words. The newest, partial
/// block is not sliced. With no agreed nibble there is no slot and no sliced block.
///
/// The records stay the source: a new tuple whose record completes a block slices it
/// (every block, if the slot set changed); an insert that narrows a record of a full
/// block rewrites its bits (every block, if a slot lost its last agreed bit); a
/// dropped tuple re-slices every block in place.
#[derive(Debug, Clone)]
struct Slices {
    /// Per header word and nibble, the inline words of the full blocks' records that
    /// agree on a bit of it.
    tally: [[u32; 16]; 16],
    /// The sliced `(header word, nibble)` pairs: the tally's first [`SLOTS`] non-zero
    /// ones, in order.
    slots: [(u8, u8); SLOTS],
    /// How many of `slots` there are.
    len: usize,
    /// The blocks sliced: the lane's full blocks, or none when there is no slot.
    blocks: usize,
    /// Block-major rows: row `x` of slot `s` of block `b` is `bits[(b * len + s) * 16 + x]`.
    bits: Vec<u64>,
}

impl Slices {
    const EMPTY: Slices = Slices {
        tally: [[0; 16]; 16],
        slots: [(0, 0); SLOTS],
        len: 0,
        blocks: 0,
        bits: Vec::new(),
    };

    /// Count a record's agreed nibbles, its inline words `word` and `agree`, into the
    /// tally, or out of it.
    fn count(&mut self, word: [u8; INLINE], agree: [u64; INLINE], into: bool) {
        for (w, n) in agreed(word, agree) {
            let t = &mut self.tally[w][n];
            *t = if into { *t + 1 } else { *t - 1 };
        }
    }

    /// The slots the tally calls for, and how many.
    fn chosen(&self) -> ([(u8, u8); SLOTS], usize) {
        let mut slots = [(0, 0); SLOTS];
        let pairs = (0..16u8).flat_map(|w| (0..16u8).map(move |n| (w, n)));
        let mut len = 0;
        for (slot, pair) in slots
            .iter_mut()
            .zip(pairs.filter(|&(w, n)| self.tally[usize::from(w)][usize::from(n)] != 0))
        {
            *slot = pair;
            len += 1;
        }
        (slots, len)
    }

    /// Whether the slots are the ones the tally calls for.
    fn current(&self) -> bool {
        let (slots, len) = self.chosen();
        (slots, len) == (self.slots, self.len)
    }

    /// The 16 rows of `slot` for `block`, its records.
    fn rows(block: &[LaneRecord], slot: (u8, u8)) -> [u64; 16] {
        let mut rows = [0; 16];
        for (b, rec) in block.iter().enumerate() {
            let pass = rec.passes(slot);
            for (x, row) in rows.iter_mut().enumerate() {
                *row |= u64::from(pass >> x & 1) << b;
            }
        }
        rows
    }

    /// Slice block `block` of `lane` into its rows.
    fn slice(&mut self, lane: &[LaneRecord], block: usize) {
        let records = &lane[block * SLICE..][..SLICE];
        let rows = &mut self.bits[block * self.len * 16..][..self.len * 16];
        for (rows, &slot) in rows.chunks_exact_mut(16).zip(&self.slots[..self.len]) {
            rows.copy_from_slice(&Self::rows(records, slot));
        }
    }

    /// Take the slots the tally calls for and slice every full block of `lane` anew, in
    /// the rows' storage.
    fn reslice(&mut self, lane: &[LaneRecord]) {
        (self.slots, self.len) = self.chosen();
        self.blocks = if self.len == 0 { 0 } else { lane.len() / SLICE };
        self.bits.clear();
        self.bits.resize(self.blocks * self.len * 16, 0);
        for block in 0..self.blocks {
            self.slice(lane, block);
        }
    }

    /// Tally and slice `lane`'s full blocks from scratch: after tuples were dropped.
    fn rebuild(&mut self, lane: &[LaneRecord]) {
        self.tally = [[0; 16]; 16];
        for rec in &lane[..lane.len() / SLICE * SLICE] {
            self.count(rec.word, rec.agree, true);
        }
        self.reslice(lane);
    }

    /// `lane`'s newest record has completed a block: tally it, and slice it, or every
    /// block if the slot set changed.
    fn complete(&mut self, lane: &[LaneRecord]) {
        for rec in &lane[lane.len() - SLICE..] {
            self.count(rec.word, rec.agree, true);
        }
        if !self.current() {
            return self.reslice(lane);
        }
        if self.len > 0 {
            self.blocks += 1;
            self.bits.resize(self.blocks * self.len * 16, 0);
            self.slice(lane, self.blocks - 1);
        }
    }

    /// An insert has narrowed record `i` of `lane`, whose inline agreement was `was`:
    /// retally it if it is in a full block, and rewrite its bits, or every block if a
    /// slot lost its last agreed bit.
    fn narrow(&mut self, lane: &[LaneRecord], i: usize, was: [u64; INLINE]) {
        if i >= lane.len() / SLICE * SLICE {
            return;
        }
        let rec = &lane[i];
        self.count(rec.word, was, false);
        self.count(rec.word, rec.agree, true);
        if !self.current() {
            return self.reslice(lane);
        }
        let (block, bit) = (i / SLICE, i % SLICE);
        let rows = &mut self.bits[block * self.len * 16..][..self.len * 16];
        for (rows, &slot) in rows.chunks_exact_mut(16).zip(&self.slots[..self.len]) {
            let pass = rec.passes(slot);
            for (x, row) in rows.iter_mut().enumerate() {
                *row = *row & !(1 << bit) | u64::from(pass >> x & 1) << bit;
            }
        }
    }

    /// Whether these are `lane`'s slices: the tally counts the full blocks' agreed
    /// nibbles, the slots are the ones it calls for, every full block is sliced when
    /// there is a slot, and every row is what its records say. Allocates nothing.
    fn consistent(&self, lane: &[LaneRecord]) -> bool {
        let full = lane.len() / SLICE;
        let mut tally = [[0u32; 16]; 16];
        for rec in &lane[..full * SLICE] {
            for (w, n) in agreed(rec.word, rec.agree) {
                tally[w][n] += 1;
            }
        }
        tally == self.tally
            && self.current()
            && self.blocks == if self.len == 0 { 0 } else { full }
            && self.bits.len() == self.blocks * self.len * 16
            && (0..self.blocks).all(|block| {
                let records = &lane[block * SLICE..][..SLICE];
                let rows = &self.bits[block * self.len * 16..][..self.len * 16];
                rows.chunks_exact(16)
                    .zip(&self.slots[..self.len])
                    .all(|(rows, &slot)| *rows == Self::rows(records, slot))
            })
    }
}

/// The newer blocks of a tuple that outgrew its first block.
#[derive(Debug, Clone)]
struct Log {
    /// The blocks after [`Tuple::entries`], oldest first. Every one but the newest holds
    /// [`BLOCK`] entries.
    blocks: VecDeque<Vec<MegaflowEntry>>,
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

/// One tuple off the scan's path: every entry sharing a mask, the mask's plan with the
/// entries' agreement, the index that finds an entry from its hash, and the hit counter a
/// hit bumps beside the entry's own. Its plan fingerprint and a copy of its first
/// agreement words are in its lane record.
///
/// **Store.** The entries are a log in insertion order, each at an *offset* from the
/// start of its oldest block: `entries` is that block, and [`Log`] the newer ones, each
/// [`BLOCK`] entries long but the newest. A tuple that never outgrew one block is
/// `entries` alone, which starts at capacity 1. An entry's log sequence number is
/// `base + offset` (modulo 2^32); the live entries are the contiguous run from offset
/// `head` on, and the ones in front of it are dead copies a sweep left behind.
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
/// of a cut and nothing else, drops the ones it is told to and frees the blocks left
/// dead; the entries behind the cut keep their offsets, slots and hashes, and the
/// agreement words stay as they were. Idle expiry of an
/// [`ordered`](Tuple::ordered) tuple cuts at the first entry whose own installation is
/// not yet past the timeout, so it reads the *old region* alone; every other removal
/// cuts at the end of the log.
#[derive(Debug, Clone)]
struct Tuple {
    /// The mask every entry of this tuple shares.
    mask: Mask,
    /// The mask's plan words, each with the entries' agreement on it.
    plan: Box<[PlanWord]>,
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
    /// Cumulative fast-path hits on this tuple, reported by [`TupleSpace::mask_usage`].
    hits: u64,
    /// The newer blocks, once the tuple has outgrown its first block.
    log: Option<Box<Log>>,
}

impl Tuple {
    /// A tuple made for, and holding, its first entry, whose key starts the agreement over.
    /// Most tuples of an explosion never get a second entry, so the store starts at
    /// exactly one.
    fn new(first: MegaflowEntry, plan: &Plan) -> Self {
        let mut tuple = Tuple {
            mask: first.mask.clone(),
            plan: plan.words().into(),
            entries: Vec::with_capacity(1),
            index: Vec::new(),
            base: 0,
            head: 0,
            ordered: true,
            hits: 0,
            log: None,
        };
        tuple.push(first, None);
        tuple
    }

    /// The plan words its lane record does not carry: those past the first [`INLINE`].
    fn tail(&self) -> &[PlanWord] {
        &self.plan[INLINE.min(self.plan.len())..]
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
    /// `header AND mask`. Kept out of line: only a probe its tuple's agreement did not
    /// rule out gets here, and inlined it would cost every other probe its registers.
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

    /// Count a fast-path hit at `now` on the entry at `offset`, and on the tuple; returns
    /// the entry's action. A hit stamped before the entry's installation clears
    /// [`Tuple::ordered`].
    #[inline]
    fn hit(&mut self, offset: usize, now: f64) -> Action {
        self.hits += 1;
        let entry = self.entry_mut(offset);
        entry.hits += 1;
        entry.last_used = now;
        let (action, in_order) = (entry.action, now >= entry.installed_at);
        self.ordered &= in_order;
        action
    }

    /// Append an entry (the caller has checked Inv(2), so its key is not resident) and
    /// fold it into the agreement words; `hash` is the key's, if the caller has it already.
    fn push(&mut self, entry: MegaflowEntry, hash: Option<u64>) {
        let key = Probe::new(&entry.key);
        let hash = hash.unwrap_or_else(|| masked_hash(&self.plan, |w| key.word(w)));
        let end = self.end();
        if end > self.head as usize {
            let newest = self.entry(end - 1).installed_at;
            self.ordered &= entry.installed_at >= newest;
        }
        let first = self.is_empty();
        agree(&mut self.plan, &key, first);
        if end > 0 && end.is_multiple_of(BLOCK) {
            // The newest block is full: the entry starts the next.
            let log = self.log.get_or_insert_with(|| {
                Box::new(Log {
                    blocks: VecDeque::new(),
                    spare: Vec::new(),
                })
            });
            let spare = std::mem::take(&mut log.spare);
            log.blocks.push_back(match spare.capacity() {
                0 => Vec::with_capacity(BLOCK),
                _ => spare,
            });
        }
        let newest = self.log.as_deref_mut().and_then(|l| l.blocks.back_mut());
        newest.unwrap_or(&mut self.entries).push(entry);
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
    }

    /// Drop every live entry in front of `cut` that `gone` names, reading those entries
    /// and nothing else; `gone` sees each once, newest first. The entries behind the cut
    /// keep their offsets, slots and hashes.
    ///
    /// Each entry that goes has its slot freed, its key hashed once to find it; each
    /// survivor slides up against the cut, in order, and its slot, found the same way,
    /// is re-pointed in place. The blocks left dead are freed, one kept as the spare. The
    /// agreement words are not written: they were folded over a superset of the keys
    /// left, so they still rule out nothing those match. A walk from the end of the log
    /// that drops an entry recomputes [`Tuple::ordered`] from the survivors it read.
    /// Returns whether any entry went.
    fn remove(
        &mut self,
        cut: usize,
        mut gone: impl FnMut(&MegaflowEntry) -> bool,
        work: &mut TssWork,
    ) -> bool {
        let (head, end) = (self.head as usize, self.end());
        work.sweep_examined += (cut - head) as u64;
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
                slot(masked_hash(&self.plan, |w| key.word(w)), self.seq(from)),
            );
            debug_assert!(filed.is_some(), "every live entry has its slot");
            work.sweep_slots += 1;
            if went {
                work.sweep_removed += 1;
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
            work.sweep_moved += 1;
        }
        if to == head {
            return false;
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
            self.base = self.base.wrapping_add(BLOCK as u32);
            self.head -= BLOCK as u32;
        }
        true
    }

    /// Whether this tuple is what its plan words say it is: it holds an entry; each
    /// agreement word is within its plan word's bits, its value within the agreement, and
    /// every live key passes every one of them; its index holds one slot per live entry,
    /// through which [`Tuple::find`] finds the entry where it is; and an
    /// [`ordered`](Tuple::ordered) log is ordered. The agreement need not be exact: what
    /// the check holds is that it never rules a resident key out.
    fn consistent(&self) -> bool {
        let (head, end) = (self.head as usize, self.end());
        let filed = self.index.iter().filter(|&&slot| slot != 0).count();
        let within = |w: &PlanWord| w.agree & !w.bits == 0 && w.value & !w.agree == 0;
        head < end
            && filed == end - head
            && self.plan.iter().all(within)
            && (head..end).all(|offset| {
                let entry = self.entry(offset);
                let key = Probe::new(&entry.key);
                let hash = masked_hash(&self.plan, |w| key.word(w));
                self.plan.iter().all(|w| w.excludes(key.word(w)) == 0)
                    && self.find(hash, &entry.key) == Some(offset)
                    && (!self.ordered
                        || (entry.last_used >= entry.installed_at
                            && (offset == head
                                || entry.installed_at >= self.entry(offset - 1).installed_at)))
            })
    }
}

/// Host-side work of the cache's walks of its lane and sweeps of its tuples, summed over
/// its life: deterministic counts, read through [`TupleSpace::work`] and never part of a
/// simulated cost. Each field is named as the `work/*` row a figure records it in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TssWork {
    /// [`TupleSpace::lookup`]'s walks, one header each (a run of one is one).
    pub probe_lookups: u64,
    /// Lane records they read: the whole lane on a miss, up to the hit's record on a hit
    /// — `masks_scanned`, summed.
    pub probe_records: u64,
    /// Slice rows they ANDed: a row per slot of each full block they reached.
    pub probe_slice_words: u64,
    /// Records whose second inline agreement word they read: of the newest, partial
    /// block, those whose first did not rule the header out; of a full block, those its
    /// slices did not.
    pub probe_second_word: u64,
    /// Hashes they took: records whose agreement words did not rule the header out.
    pub probe_hashed: u64,
    /// [`TupleSpace::lookup_run`]'s walks of two to four headers.
    pub run_runs: u64,
    /// Headers they looked up.
    pub run_headers: u64,
    /// Lane records they read: the whole lane, or up to the record where the run's last
    /// header hit.
    pub run_records: u64,
    /// Slice rows they ANDed: a row per slot per column of each full block they reached
    /// (four columns, whatever the run's length).
    pub run_slice_words: u64,
    /// Records whose second inline word they read: of the partial block, those whose
    /// first word did not rule out all of the run's columns; of a full block, those its
    /// slices did not rule out for all of them (a header that has hit keeps its column,
    /// and a run of two or three has zero columns beside its headers).
    pub run_second_word: u64,
    /// Hashes they took: one per header still looking, per record whose agreement words
    /// did not rule that header out.
    pub run_hashed: u64,
    /// [`TupleSpace::insert`]'s Inv(2) walks, refused inserts' too: one per insert.
    pub install_walks: u64,
    /// Lane records they tested: the whole lane, or up to the tuple of a conflict.
    pub install_records: u64,
    /// Records whose tuple's plan words they read: those the inline words did not rule
    /// out, and the tuple of the entry's mask (or a fingerprint collision).
    pub install_plan_reads: u64,
    /// Tuples under a mask not within the entry's, not ruled out by their agreement,
    /// whose entries they scanned.
    pub install_entry_scans: u64,
    /// Entries the sweeps that drop entries — [`TupleSpace::expire_idle`] and
    /// [`TupleSpace::remove_where`] — read to decide whether they go.
    pub sweep_examined: u64,
    /// Entries they removed.
    pub sweep_removed: u64,
    /// Surviving entries they copied to another place in their tuple's log.
    pub sweep_moved: u64,
    /// Index slots they freed, re-pointed or refiled.
    pub sweep_slots: u64,
}

impl std::ops::AddAssign for TssWork {
    fn add_assign(&mut self, other: TssWork) {
        // Destructured whole, so that a field added to the block is summed too.
        macro_rules! add {
            ($($field:ident)*) => {{
                let TssWork { $($field),* } = other;
                $(self.$field += $field;)*
            }};
        }
        add!(
            probe_lookups probe_records probe_slice_words probe_second_word probe_hashed
            run_runs run_headers run_records run_slice_words run_second_word run_hashed
            install_walks install_records install_plan_reads install_entry_scans
            sweep_examined sweep_removed sweep_moved sweep_slots
        );
    }
}

/// What one walk of the lane for up to `N` headers found, and what it read.
struct Walk<const N: usize> {
    /// One bit per header that missed: the walk reached the start of the lane without
    /// matching it. While the walk runs, one bit per header still looking.
    missed: u32,
    /// Where each header that hit did: its tuple's index, and the entry's offset in the
    /// tuple's log.
    found: [(usize, usize); N],
    /// Lane records read: the whole lane, or up to the record where the last header hit.
    records: usize,
    /// Slice rows ANDed.
    slice_words: u64,
    /// Records whose second inline word was read.
    second_word: u64,
    /// Hashes taken.
    hashed: u64,
}

impl<const N: usize> Walk<N> {
    /// Test lane record `i` of `space` against every column of `words`, the headers'
    /// words laid out word-major: the record's first inline word, and a record that rules
    /// out every column on it is passed at once; then its second inline word, with the
    /// same pass; then the tuple's plan words past the copy, if any. Only a header still
    /// looking that survives them all hashes, off the tuple's plan words, and probes the
    /// tuple's index. Returns whether every header has hit.
    #[inline(always)]
    fn visit(
        &mut self,
        space: &TupleSpace,
        i: usize,
        words: &[[u64; N]; 16],
        headers: &[&Key],
    ) -> bool {
        // Whether every column is ruled out: a fold with no branch in it.
        let all_out = |x: &[u64; N]| x.iter().fold(true, |all, &x| all & (x != 0));
        let rec = &space.lane[i];
        let mut excluded: [u64; N] =
            std::array::from_fn(|j| rec.excludes(0, |w| words[w][j], |_| !0));
        if all_out(&excluded) {
            return false;
        }
        self.second_word += 1;
        for (j, x) in excluded.iter_mut().enumerate() {
            *x |= rec.excludes(1, |w| words[w][j], |_| !0);
        }
        if all_out(&excluded) {
            return false;
        }
        let tuple = &space.tuples[i];
        for w in tuple.tail() {
            let row = &words[usize::from(w.word & 15)];
            for (x, &k) in excluded.iter_mut().zip(row) {
                *x |= w.excludes(k);
            }
        }
        let mut live = self.missed;
        for (j, &x) in excluded.iter().enumerate() {
            live &= !(u32::from(x != 0) << j);
        }
        while live != 0 {
            let j = live.trailing_zeros() as usize;
            live &= live - 1;
            self.hashed += 1;
            let hash = masked_hash(&tuple.plan, |w| words[usize::from(w.word & 15)][j]);
            if let Some(offset) = tuple.find(hash, headers[j]) {
                self.found[j] = (i, offset);
                self.missed &= !(1 << j);
            }
        }
        if self.missed == 0 {
            self.records = space.lane.len() - i;
            return true;
        }
        false
    }
}

/// The TSS megaflow cache: its probe lane and its tuples.
#[derive(Debug, Clone)]
pub struct TupleSpace {
    schema: FieldSchema,
    /// One record per distinct mask, oldest first; Alg. 1 scans it from its end, so a
    /// record's distance from the end is its place in the scan order.
    lane: Vec<LaneRecord>,
    /// The tuples, each at its lane record's index.
    tuples: Vec<Tuple>,
    /// The inline agreement words of the lane's full blocks, bit-sliced.
    slices: Slices,
    /// What the walks and sweeps have done; see [`Self::work`].
    work: TssWork,
}

impl TupleSpace {
    /// Entries to a block of a tuple's log: a tuple that outgrows one grows, and an idle
    /// sweep frees it, a block at a time.
    pub const BLOCK: usize = BLOCK;

    /// The most headers [`Self::lookup_run`] looks up in one walk of the lane.
    pub const RUN: usize = RUN;

    /// Create an empty cache, probed newest mask first.
    pub fn new(schema: FieldSchema) -> Self {
        TupleSpace {
            schema,
            lane: Vec::new(),
            tuples: Vec::new(),
            slices: Slices::EMPTY,
            work: TssWork::default(),
        }
    }

    /// [`Self::new`], with its one probe order named.
    pub fn with_ordering(schema: FieldSchema, _ordering: MaskOrdering) -> Self {
        TupleSpace::new(schema)
    }

    /// The schema of keys stored in the cache.
    pub fn schema(&self) -> &FieldSchema {
        &self.schema
    }

    /// Number of distinct masks |M| — the attacker's target metric.
    pub fn mask_count(&self) -> usize {
        self.lane.len()
    }

    /// Number of entries |C|.
    pub fn entry_count(&self) -> usize {
        self.tuples.iter().map(Tuple::len).sum()
    }

    /// The host-side work every walk of the lane and every sweep of this cache has done
    /// so far, summed.
    pub fn work(&self) -> TssWork {
        self.work
    }

    /// The distinct masks in probe order, each with its cumulative fast-path hit count
    /// — the signal a mask-pressure eviction policy ranks on (attack masks accumulate
    /// hits slowly because every adversarial key is fresh; a victim's long-lived mask
    /// is hit once per packet).
    pub fn mask_usage(&self) -> Vec<(Mask, u64)> {
        let usage = self.tuples.iter().rev();
        usage
            .map(|tuple| (tuple.mask.clone(), tuple.hits))
            .collect()
    }

    /// Remove one mask and every entry of its tuple (shrinking |M| by one); returns
    /// the number of entries removed (0 if the mask is not present).
    pub fn remove_mask(&mut self, mask: &Mask) -> usize {
        let plan = Plan::of(mask);
        let Some(tuple) = self.tuples.iter_mut().find(|t| plan.is(&t.plan)) else {
            return 0;
        };
        let removed = tuple.len();
        (tuple.entries, tuple.head, tuple.log) = (Vec::new(), 0, None);
        self.drop_emptied();
        debug_assert!(self.lane_consistent());
        removed
    }

    /// Iterate over all entries, tuple by tuple in probe order, and within a tuple in
    /// the order they were inserted.
    pub fn entries(&self) -> impl Iterator<Item = &MegaflowEntry> {
        self.tuples.iter().rev().flat_map(Tuple::iter)
    }

    /// Alg. 1's scan for `headers`, at most `N` of them, in one walk of the lane from its
    /// end: where each header hits first, and what the walk read. [`Self::lookup`] and
    /// [`Self::peek`] walk for one header, [`Self::lookup_run`] for up to [`RUN`], with
    /// zero columns beside a shorter run's headers.
    ///
    /// The header words are laid out word-major, a column per header, so that each lane
    /// record (and any plan words past its copy) is read once for all of them. The
    /// newest, partial block of the lane is tested record by record (`Walk::visit`: the
    /// first inline word against every column in one fold without a branch, the second
    /// only where a column survives, then the plan's tail, then the hash and the index).
    /// Then each full block, from the top: per column, the AND of one slice row per slot
    /// ([`Slices`]), the columns run side by side; the OR over all columns — a run's zero
    /// columns, and those of headers that have hit, included — names the block's
    /// candidates, and only they go through the same per-record test, newest first. A
    /// record outside them is ruled out by its inline words for every column, so the walk
    /// stops where the record-by-record walk would, with the same hits. A header leaves
    /// the walk at its first hit; the walk ends when every header has hit, or at the
    /// start of the lane. It writes nothing: the caller commits the hits and counts the
    /// work.
    #[inline(always)]
    fn walk<const N: usize>(&self, headers: &[&Key]) -> Walk<N> {
        let n = headers.len().min(N);
        // Plan word `w` reads row `w.word`, a column per header.
        let mut words = [[0u64; N]; 16];
        for (j, header) in headers[..n].iter().enumerate() {
            for (row, &k) in words.iter_mut().zip(key_words(header).iter()) {
                row[j] = k;
            }
        }
        let mut walk = Walk {
            missed: (1u32 << n) - 1,
            found: [(0, 0); N],
            records: self.lane.len(),
            slice_words: 0,
            second_word: 0,
            hashed: 0,
        };
        let slices = &self.slices;
        let sliced = slices.blocks * SLICE;
        for i in (sliced..self.lane.len()).rev() {
            if walk.visit(self, i, &words, headers) {
                return walk;
            }
        }
        if slices.blocks == 0 {
            return walk;
        }
        // Each column's value of each slot's nibble: the row it reads.
        let slots = &slices.slots[..slices.len];
        let mut nibbles = [[0u8; N]; SLOTS];
        for (nibble, &(w, n)) in nibbles.iter_mut().zip(slots) {
            for (x, &k) in nibble.iter_mut().zip(&words[usize::from(w & 15)]) {
                *x = (k >> (4 * n) & 15) as u8;
            }
        }
        // The lowest block the walk reached.
        let (mut low, per_block) = (slices.blocks, slots.len() * 16);
        'blocks: for block in (0..slices.blocks).rev() {
            low = block;
            let rows = &slices.bits[block * per_block..][..per_block];
            let mut pass = [!0u64; N];
            for (rows, nibble) in rows.chunks_exact(16).zip(&nibbles) {
                for (p, &x) in pass.iter_mut().zip(nibble) {
                    *p &= rows[usize::from(x & 15)];
                }
            }
            let mut candidates = pass.iter().fold(0, |c, &p| c | p);
            while candidates != 0 {
                let b = 63 - candidates.leading_zeros() as usize;
                candidates &= !(1 << b);
                if walk.visit(self, block * SLICE + b, &words, headers) {
                    break 'blocks;
                }
            }
        }
        walk.slice_words = ((slices.blocks - low) * slots.len() * N) as u64;
        walk
    }

    /// [`Self::walk`] at [`RUN`] wide, in a function of its own, so that its loop is placed
    /// alike whatever `lookup_run` grows into: inlined there, the same instructions at
    /// another offset ran `scan_deep` 6 % slower end to end. A single header's walk stays
    /// inlined: called, it cost each `lookup` 8 ns.
    #[inline(never)]
    fn walk_run(&self, headers: &[&Key]) -> Walk<RUN> {
        self.walk(headers)
    }

    /// Header `j`'s outcome of `walk`, committed at `now`: a hit bumps its tuple's and its
    /// entry's hit counters and stamps the entry's `last_used`.
    fn commit<const N: usize>(&mut self, walk: &Walk<N>, j: usize, now: f64) -> LookupOutcome {
        if walk.missed & 1 << j != 0 {
            return LookupOutcome {
                action: None,
                masks_scanned: self.lane.len(),
            };
        }
        let (i, offset) = walk.found[j];
        LookupOutcome {
            action: Some(self.tuples[i].hit(offset, now)),
            masks_scanned: self.lane.len() - i,
        }
    }

    /// Megaflow lookup — Algorithm 1 of the paper.
    ///
    /// For each mask `M` in the mask list, hash `h AND M` and probe the mask's tuple.
    /// Return a hit on the first match (correct thanks to entry disjointness); a miss
    /// after all masks have been probed. It is the lane walk (`walk`) for one header: a
    /// header that disagrees with a tuple's agreement misses it without a hash, having
    /// read for most plans its block's slice rows or its lane record alone, and nothing
    /// of the tuple. The hit's statistics are bumped after
    /// the walk, and what the walk read is added to [`Self::work`]'s `probe_*` counts,
    /// once.
    pub fn lookup(&mut self, header: &Key, now: f64) -> LookupOutcome {
        let walk = self.walk::<1>(&[header]);
        let work = &mut self.work;
        work.probe_lookups += 1;
        work.probe_records += walk.records as u64;
        work.probe_slice_words += walk.slice_words;
        work.probe_second_word += walk.second_word;
        work.probe_hashed += walk.hashed;
        self.commit(&walk, 0, now)
    }

    /// Alg. 1 for a run of headers at nondecreasing times, up to [`Self::RUN`] of them,
    /// with the lane walked once for all: the outcomes [`Self::lookup`] on each in turn
    /// gives, up to and including the first miss, written to `out`'s first slots. Returns
    /// how many headers were answered — at least one of a non-empty run. Those after a miss
    /// are left untouched — no counter bumped — for the caller to look up again once the
    /// miss's upcall has installed its entry.
    ///
    /// A run of two to four is one [`Self::RUN`]-wide walk of the lane (`walk`), each
    /// header leaving it at the position `lookup` would stop at; a run of one is a
    /// `lookup`. The hits are committed afterwards, header by header in run order. A hit
    /// bumps counters and stamps `last_used`, none of which the walk reads, so it cannot
    /// tell the run from `lookup` called on each header in turn. What the walk read is
    /// added to [`Self::work`]'s `run_*` counts, once.
    pub fn lookup_run(&mut self, run: &[(&Key, f64)], out: &mut [LookupOutcome]) -> usize {
        let n = run.len().min(out.len()).min(RUN);
        if n <= 1 {
            let Some((&(header, now), slot)) = run.first().zip(out.first_mut()) else {
                return 0;
            };
            *slot = self.lookup(header, now);
            return 1;
        }
        let mut headers = [run[0].0; RUN];
        for (slot, &(header, _)) in headers.iter_mut().zip(run) {
            *slot = header;
        }
        let walk = self.walk_run(&headers[..n]);
        let work = &mut self.work;
        work.run_runs += 1;
        work.run_headers += n as u64;
        work.run_records += walk.records as u64;
        work.run_slice_words += walk.slice_words;
        work.run_second_word += walk.second_word;
        work.run_hashed += walk.hashed;
        for (j, (&(_, now), slot)) in run[..n].iter().zip(out.iter_mut()).enumerate() {
            *slot = self.commit(&walk, j, now);
            if slot.action.is_none() {
                return j + 1;
            }
        }
        n
    }

    /// Read-only lookup that does not update statistics (used by tests and MFCGuard): the
    /// lane walk of [`Self::lookup`], nothing committed and nothing counted.
    pub fn peek(&self, header: &Key) -> Option<&MegaflowEntry> {
        let walk = self.walk::<1>(&[header]);
        let (i, offset) = walk.found[0];
        (walk.missed == 0).then(|| self.tuples[i].entry(offset))
    }

    /// Insert a new megaflow entry. Enforces the two slow-path invariants of §3.2:
    ///
    /// * **Inv(1) Cover** is the caller's responsibility (the generation strategy always
    ///   derives `key` from the header that sparked the entry);
    /// * **Inv(2) Independence** is checked here: inserting an entry that overlaps an
    ///   existing one returns [`InsertError::Overlap`] naming that entry — of the first
    ///   tuple in probe order that holds one, its smallest overlapping key. Megaflows of
    ///   one table are equal or disjoint, so the slow path answers a refused upcall with
    ///   the table's verdict and installs nothing.
    ///
    /// It is one walk of the lane: the Inv(2) check finds the tuple of the entry's mask
    /// on its way, and the key is hashed once — by that walk, where it probed the tuple.
    /// A mask no tuple has yet gets a new tuple, at the end of the lane: probed first.
    pub fn insert(
        &mut self,
        key: Key,
        mask: Mask,
        action: Action,
        now: f64,
    ) -> Result<(), InsertError> {
        let key = key.apply_mask(&mask);
        let plan = Plan::of(&mask);
        let mut work = TssWork::default();
        let walked =
            self.walk_for(&key, &mask, &plan, &mut work)
                .map_err(|e| InsertError::Overlap {
                    existing: Box::new((e.key.clone(), e.mask.clone())),
                });
        self.work += work;
        let (home, hash) = walked?;
        let entry = MegaflowEntry {
            key,
            mask,
            action,
            hits: 0,
            last_used: now,
            installed_at: now,
        };
        match home {
            Some(i) => {
                let tuple = &mut self.tuples[i];
                tuple.push(entry, hash);
                let was = self.lane[i].agree;
                self.lane[i].sync(&tuple.plan);
                if self.lane[i].agree != was {
                    self.slices.narrow(&self.lane, i, was);
                }
            }
            None => {
                debug_assert!(
                    !self
                        .lane
                        .iter()
                        .zip(&self.tuples)
                        .any(|(rec, t)| rec.fingerprint == plan.fingerprint && plan.is(&t.plan)),
                    "the walk missed the tuple of {}: a mask has one tuple",
                    entry.mask
                );
                let tuple = Tuple::new(entry, &plan);
                let mut rec = LaneRecord {
                    fingerprint: plan.fingerprint,
                    ..LaneRecord::default()
                };
                rec.sync(&tuple.plan);
                self.lane.push(rec);
                self.tuples.push(tuple);
                if self.lane.len().is_multiple_of(SLICE) {
                    self.slices.complete(&self.lane);
                }
            }
        }
        debug_assert!(self.lane_consistent());
        Ok(())
    }

    /// The entry a prospective `(key AND mask, mask)` entry overlaps, as
    /// [`Self::insert`] would name it, without inserting: the unit tests' view of the
    /// Inv(2) walk, which `conflict_index_agrees_with_full_scan` (every query of the
    /// 3-bit space) and `find_conflict_matches_the_entry_scan_across_mutations` (a
    /// 128-bit field, through every mutator) pin to the index-less entry scan.
    #[cfg(test)]
    fn find_conflict(&self, key: &Key, mask: &Mask) -> Option<(Key, Mask)> {
        let mut uncounted = TssWork::default();
        let conflict = self
            .walk_for(key, mask, &Plan::of(mask), &mut uncounted)
            .err();
        conflict.map(|e| (e.key.clone(), e.mask.clone()))
    }

    /// The one walk of the lane for a prospective entry `(key, mask)`, `key` stored
    /// masked and `plan` compiled from `mask`: `Err` with the entry it overlaps, as
    /// [`Self::insert`] reports it, or else the index of the tuple of `mask`, if one is
    /// resident, and the key's hash under `mask` if the walk took it. What it did is
    /// added to `work`'s `install_*` counts, once.
    ///
    /// Complexity note — the comparable-mask conflict index: tuples are visited in
    /// probe order, and each is first checked against its agreement words, the ones a
    /// lookup's walk ([`Self::walk`]) tests first: a conflicting entry must agree with the
    /// new key on every bit of `M AND mask`, so a common bit on which every stored key has
    /// the other value rules the whole tuple out. The lane record's inline words are
    /// tested first, by the lookup's own per-record test ([`LaneRecord::excludes`]) on the
    /// bits `mask` keeps: a record they rule out is passed having read that one cache
    /// line, unless its fingerprint is `plan`'s. In an explosion that is nearly every
    /// record, so an install costs about what a missed lookup does. A record that
    /// survives, or prints as `plan`, has its tuple's plan words read — all of them to
    /// tell whether its mask is within `mask`, those past the inline copy to finish the
    /// agreement test — word-wise, without allocating, and nothing else of the tuple. Only
    /// tuples that survive that are probed:
    ///
    /// * a tuple whose mask is entirely covered by the new mask is answered by a
    ///   **single probe** (comparable entries conflict only if they agree
    ///   on every common bit), which stays fast even when the tuple holds hundreds of
    ///   thousands of entries (the IPv6 exact-match anomaly of §5.4). The tuple of
    ///   `mask` itself is one of these, and its probe's hash is the key's;
    /// * an incomparable tuple falls back to an entry scan — but since most tuples
    ///   were already excluded by their agreement, the common no-conflict case of
    ///   an install never reaches it.
    ///
    /// The tuple of `mask` is found whether or not its agreement excludes the key: its
    /// fingerprint sends it on to the plan words, and those say whose mask it is.
    fn walk_for(
        &self,
        key: &Key,
        mask: &Mask,
        plan: &Plan,
        work: &mut TssWork,
    ) -> Result<(Option<usize>, Option<u64>), &MegaflowEntry> {
        debug_assert_eq!(*key, key.apply_mask(mask), "the key is stored masked");
        let probe = Probe::new(key);
        let mask_words = key_words(mask);
        let (mut home, mut home_hash, mut conflict) = (None, None, None);
        let (mut records, mut plan_reads, mut entry_scans) = (self.lane.len(), 0, 0);
        for (i, rec) in self.lane.iter().enumerate().rev() {
            let (word, keep) = (|w: usize| probe.words[w], |w: usize| mask_words[w]);
            let inline = rec.excludes(0, word, keep) | rec.excludes(1, word, keep);
            if inline != 0 && rec.fingerprint != plan.fingerprint {
                continue;
            }
            plan_reads += 1;
            let tuple = &self.tuples[i];
            // Whether the tuple's mask is within `mask`, every word; and the bits both
            // keep on which the key differs from every resident key, the inline words'
            // and then the tail's: without a branch.
            let keep = |w: &PlanWord| mask_words[usize::from(w.word & 15)];
            let comparable = tuple
                .plan
                .iter()
                .fold(true, |c, w| c & (keep(w) & w.bits == w.bits));
            let excluded = tuple
                .tail()
                .iter()
                .fold(inline, |x, w| x | w.excludes(probe.word(w)) & keep(w));
            // The tuple of `mask` is comparable; whether the key is excluded from it or
            // not, it is the one the entry joins.
            let own = comparable && home.is_none() && plan.is(&tuple.plan);
            if own {
                home = Some(i);
            }
            if excluded != 0 {
                continue;
            }
            if comparable {
                // Conflict iff the tuple holds exactly the new key projected onto the
                // existing mask.
                let hash = masked_hash(&tuple.plan, |w| probe.word(w));
                if own {
                    home_hash = Some(hash);
                }
                conflict = tuple.find(hash, key).map(|o| tuple.entry(o));
            } else {
                // Report the smallest conflicting key, not the first stored: the
                // refused insert names it, and the name must not depend on the order
                // entries arrived in.
                entry_scans += 1;
                conflict = tuple
                    .iter()
                    .filter(|e| !fields::disjoint(key, mask, &e.key, &e.mask))
                    .min_by(|a, b| a.key.cmp(&b.key));
            }
            if conflict.is_some() {
                records = self.lane.len() - i;
                break;
            }
        }
        work.install_walks += 1;
        work.install_records += records as u64;
        work.install_plan_reads += plan_reads;
        work.install_entry_scans += entry_scans;
        match conflict {
            Some(entry) => Err(entry),
            None => Ok((home, home_hash)),
        }
    }

    /// Remove every entry for which `predicate` returns true; returns the number of
    /// removed entries. The predicate sees entries tuple by tuple in probe order, and
    /// within a tuple newest first. A tuple left without entries is dropped and the
    /// survivors keep their relative probe order — this is what shrinks |M| back down
    /// (the entire point of MFCGuard). Within a tuple the survivors keep their order;
    /// those older than the newest entry removed slide up, their index slots re-pointed
    /// in place.
    pub fn remove_where<F: FnMut(&MegaflowEntry) -> bool>(&mut self, mut predicate: F) -> usize {
        self.sweep_tuples(|tuple, work| tuple.remove(tuple.end(), &mut predicate, work))
    }

    /// Run `sweep` over every tuple in probe order, with the work counters; it returns
    /// whether the tuple lost entries. Writes no lane record and no agreement; drops the
    /// tuples left empty. Returns how many entries went.
    fn sweep_tuples(&mut self, mut sweep: impl FnMut(&mut Tuple, &mut TssWork) -> bool) -> usize {
        let mut removed = 0;
        let mut emptied = false;
        for tuple in self.tuples.iter_mut().rev() {
            let before = tuple.len();
            if sweep(tuple, &mut self.work) {
                removed += before - tuple.len();
                emptied |= tuple.is_empty();
            }
        }
        if emptied {
            self.drop_emptied();
        }
        debug_assert!(self.lane_consistent());
        removed
    }

    /// Drop every tuple left without entries, and its lane record. The survivors keep
    /// their order, each record at its tuple's index, and the full blocks are sliced
    /// anew.
    fn drop_emptied(&mut self) {
        let mut tuples = self.tuples.iter();
        self.lane
            .retain(|_| tuples.next().is_some_and(|t| !t.is_empty()));
        self.tuples.retain(|t| !t.is_empty());
        self.slices.rebuild(&self.lane);
    }

    /// Whether lane and tuples describe one tuple space: as many records as tuples, and
    /// at each index a record whose fingerprint is its tuple's plan's and whose inline
    /// agreement words are that plan's first ones, a plan that is the tuple's mask
    /// compiled, and a tuple [`Tuple::consistent`] with it; and slices that are the
    /// lane's ([`Slices::consistent`]). What debug builds assert after every mutation. It
    /// allocates nothing, so that the allocation audit can hold a warm mutation, this
    /// check included, to zero.
    fn lane_consistent(&self) -> bool {
        self.slices.consistent(&self.lane)
            && self.lane.len() == self.tuples.len()
            && self.lane.iter().zip(&self.tuples).all(|(rec, tuple)| {
                let plan = Plan::of(&tuple.mask);
                let mut synced = rec.clone();
                synced.sync(&tuple.plan);
                rec.fingerprint == plan.fingerprint
                    && plan.is(&tuple.plan)
                    && synced == *rec
                    && tuple.consistent()
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
        self.sweep_tuples(|tuple, work| {
            let (head, end) = (tuple.head as usize, tuple.end());
            let mut cut = end;
            if tuple.ordered {
                // Cut at the first entry whose installation is not past the timeout: the
                // entries behind it were installed no earlier and used no earlier than
                // installed, so none is idle. The entry at the cut is read to find it.
                let old = |&offset: &usize| now - tuple.entry(offset).installed_at > idle_timeout;
                cut = head + (head..end).take_while(old).count();
                work.sweep_examined += u64::from(cut < end);
            }
            tuple.remove(cut, |e| now - e.last_used > idle_timeout, work)
        })
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.lane.clear();
        self.tuples.clear();
        self.slices.rebuild(&self.lane);
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
    /// binary key and mask; masks oldest first, a tuple's entries by ascending key).
    pub fn render(&self) -> String {
        let mut lines = Vec::new();
        for (i, tuple) in self.tuples.iter().enumerate() {
            let mut keys: Vec<&MegaflowEntry> = tuple.iter().collect();
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
            vec![k(0b110), k(0b100), k(0b111)],
            "usage reports masks in probe order, newest first"
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
        let mut c = TupleSpace::new(hyp_schema());
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
            let mut c = TupleSpace::new(schema.clone());
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

        // The bystander's tuple is made first, so the large one, newer, is probed first.
        let mut cache = TupleSpace::new(schema.clone());
        cache
            .insert(bystander.clone(), small.clone(), Action::Deny, 100.0)
            .unwrap();
        // Even entries go in at t = 0, odd ones at t = 100.
        for i in 0..N {
            let now = (i % 2) as f64 * 100.0;
            cache
                .insert(key_of(i), big.clone(), action_of(i), now)
                .unwrap();
            model.insert(key_of(i), action_of(i));
            order.push(key_of(i));
        }
        assert_eq!(cache.mask_count(), 2);
        check(&cache, &model, &order, &gone);

        // Every other entry idles out; the survivors close ranks in order, and the index
        // alone tells them from the keys that went.
        assert_eq!(cache.expire_idle(105.0, 10.0), (N / 2) as usize);
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
        assert_eq!(cache.peek(&bystander).map(|e| e.action), Some(Action::Deny));
    }

    /// `lane_consistent` is what debug builds assert after every mutation; it has to be
    /// able to say no.
    #[test]
    fn lane_consistent_rejects_a_lane_that_drifted() {
        let cache = fig3_cache();
        assert!(cache.lane_consistent());

        let mut crossed = cache.clone();
        crossed.tuples.swap(0, 1);
        assert!(!crossed.lane_consistent(), "a record is its own tuple's");

        let mut orphan = cache.clone();
        orphan.lane.push(LaneRecord::default());
        assert!(!orphan.lane_consistent(), "each record has a tuple");

        // Lane record 1 is the one-entry tuple (100, 100). A stale value would turn a hit
        // on it into a miss, and with that the entry's next install into an overlap.
        let mut stale_value = cache.clone();
        stale_value.tuples[1].plan[0].value ^= 0b100;
        assert!(
            !stale_value.lane_consistent(),
            "an agreement word rules out no resident key"
        );

        let mut stale_agree = cache.clone();
        stale_agree.tuples[0].plan[0].agree |= 0b001;
        assert!(
            !stale_agree.lane_consistent(),
            "(001, 111) and (000, 111) disagree on bit 0"
        );

        // A narrower agreement is sound, but a value bit outside it is not a value.
        let mut stray_value = cache.clone();
        stray_value.tuples[0].plan[0].agree &= !0b100;
        stray_value.lane[0].agree[0] &= !0b100;
        assert!(stray_value.lane_consistent(), "agreement may be narrower");
        stray_value.tuples[0].plan[0].value |= 0b100;
        stray_value.lane[0].value[0] |= 0b100;
        assert!(
            !stray_value.lane_consistent(),
            "a value bit lies within the agreement"
        );

        // Tuple 0 is the one under 111, two entries: (001) at position 0 and (000) at
        // position 1.
        let index = &cache.tuples[0].index;
        let filed: Vec<usize> = (0..index.len()).filter(|&i| index[i] != 0).collect();
        let mut mispointed = cache.clone();
        let index = &mut mispointed.tuples[0].index;
        let (a, b) = (index[filed[0]], index[filed[1]]);
        (index[filed[0]], index[filed[1]]) = (a & TAG | b & !TAG, b & TAG | a & !TAG);
        assert!(
            !mispointed.lane_consistent(),
            "a slot names its own entry's position"
        );

        let mut stale_slot = cache.clone();
        let index = &mut stale_slot.tuples[0].index;
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
            "the inline agreement is the plan's"
        );
        let mut stale_inline_value = cache.clone();
        stale_inline_value.lane[1].value[0] ^= 0b100;
        assert!(
            !stale_inline_value.lane_consistent(),
            "the inline value is the plan's"
        );
        let mut stale_padding = cache.clone();
        stale_padding.lane[0].agree[1] ^= 0b001;
        assert!(
            !stale_padding.lane_consistent(),
            "a padding word agrees on nothing"
        );

        let mut stale_fingerprint = cache.clone();
        stale_fingerprint.lane[1].fingerprint ^= 1;
        assert!(
            !stale_fingerprint.lane_consistent(),
            "a record's fingerprint is its plan's"
        );

        // Tuple 1's plan compiled from 110, not its own mask 100: its agreement is
        // sound, and its inline copy synced.
        let mut leaked = cache.clone();
        let mut plan = Plan::of(&k(0b110));
        agree(&mut plan.words[..plan.len], &Probe::new(&k(0b100)), true);
        leaked.tuples[1].plan = plan.words().into();
        leaked.lane[1].sync(plan.words());
        assert!(
            !leaked.lane_consistent(),
            "a tuple's plan is its mask compiled"
        );

        let mut reordered = cache;
        reordered.lane.swap(0, 2);
        reordered.tuples.swap(0, 2);
        assert!(
            reordered.lane_consistent(),
            "order is the vectors' to choose"
        );

        // SipDp's explosion: eight sliced blocks, twelve slots. Row `mixed` has bits set
        // and bits clear.
        let (sliced, _) = sipdp_explosion(false);
        assert!(sliced.lane_consistent());
        let bits = &sliced.slices.bits;
        let mixed = bits.iter().position(|&row| row != 0 && row != !0).unwrap();
        let mut cleared = sliced.clone();
        let row = &mut cleared.slices.bits[mixed];
        *row &= *row - 1;
        assert!(
            !cleared.lane_consistent(),
            "a record's bit is set where it passes"
        );
        let mut stray = sliced.clone();
        let row = &mut stray.slices.bits[mixed];
        *row |= !*row & row.wrapping_add(1);
        assert!(
            !stray.lane_consistent(),
            "a record's bit is clear where it rules out"
        );
        // The last slot dropped, and every block sliced over the others: each row is its
        // records', but an agreed nibble has no slot.
        let mut unsliced = sliced;
        let TupleSpace { lane, slices, .. } = &mut unsliced;
        slices.len -= 1;
        slices.bits.resize(slices.blocks * slices.len * 16, 0);
        for block in 0..slices.blocks {
            slices.slice(lane, block);
        }
        assert!(
            !unsliced.lane_consistent(),
            "every agreed nibble has a slot"
        );
    }

    /// The Inv(2) walk reads a tuple's plan words only where the lane record's inline words
    /// do not rule it out, or where the record prints as the new entry's mask: the tuple
    /// under 111 holds 001 alone, so its agreement is the whole word and excludes 011, and
    /// the walk finds it by its fingerprint. The key joins it, and no tuple is made. A
    /// record that prints as another mask's, as a collision would, costs one plan read and
    /// changes no answer.
    #[test]
    fn an_install_finds_its_tuple_past_an_agreement_that_excludes_the_key() {
        // The tuple under 111 is made last, so it is probed first: record 1.
        let mut c = TupleSpace::new(hyp_schema());
        c.insert(k(0b100), k(0b110), Action::Deny, 0.0).unwrap();
        c.insert(k(0b001), k(0b111), Action::Allow, 0.0).unwrap();
        let plan = Plan::of(&k(0b111));
        let (key, mask) = (key_words(&k(0b011)), key_words(&k(0b111)));
        let inline = |i| c.lane[1].excludes(i, |w| key[w], |w| mask[w]);
        assert_ne!(inline(0) | inline(1), 0);
        assert_eq!(c.lane[1].fingerprint, plan.fingerprint);

        let before = c.work();
        c.insert(k(0b011), k(0b111), Action::Deny, 1.0).unwrap();
        assert_eq!((c.mask_count(), c.entry_count()), (2, 3));
        assert_eq!(
            c.work(),
            TssWork {
                install_walks: before.install_walks + 1,
                install_records: before.install_records + 2,
                install_plan_reads: before.install_plan_reads + 1,
                install_entry_scans: 0,
                ..TssWork::default()
            },
            "one plan read: the tuple under 111; (100, 110) is ruled out by its record"
        );
        let out = c.lookup(&k(0b011), 2.0);
        assert_eq!((out.action, out.masks_scanned), (Some(Action::Deny), 1));

        // Record 0 (under 110) forged to print as 111.
        let mut collided = c.clone();
        collided.lane[0].fingerprint = plan.fingerprint;
        for (key, mask) in [
            (0b000, 0b111),
            (0b101, 0b111),
            (0b010, 0b110),
            (0b000, 0b000),
        ] {
            let (key, mask) = (k(key), k(mask));
            let (mut honest, mut forged) = (TssWork::default(), TssWork::default());
            let plan = Plan::of(&mask);
            let expected = c.walk_for(&key, &mask, &plan, &mut honest);
            let walked = collided.walk_for(&key, &mask, &plan, &mut forged);
            assert_eq!(walked.map_err(|e| &e.key), expected.map_err(|e| &e.key));
            let extra = forged.install_plan_reads - honest.install_plan_reads;
            assert!(extra <= 1, "{key} / {mask}: {extra} more plan reads");
        }
    }

    /// SipDp's explosion: the Co-located trace's TCP headers, and the cache of the slow
    /// path's widened megaflow for every header no entry covers yet, installed newest
    /// mask first, with `ip_proto` pinned in each mask where `pin_proto` says.
    fn sipdp_explosion(pin_proto: bool) -> (TupleSpace, Vec<Key>) {
        use crate::flowtable::FlowTable;
        use crate::strategy::{examined_megaflow, MegaflowStrategy};

        let schema = FieldSchema::ovs_ipv4();
        let field = |name| schema.field_index(name).unwrap();
        let (sip, proto, dp) = (field("ip_src"), field("ip_proto"), field("tp_dst"));
        let (allow_dp, allow_sip) = (80, 0x0a00_0001);
        let table = FlowTable::whitelist_default_deny(&schema, &[(dp, allow_dp), (sip, allow_sip)]);
        let strategy = MegaflowStrategy::wildcarding(&schema);
        // Each field's bit-inversion list: the allowed value, then each bit inverted,
        // most significant first; the trace is their outer product, `ip_src` fastest.
        let inversions = |width: u32, allow: u128| {
            [allow]
                .into_iter()
                .chain((0..width).rev().map(move |b| allow ^ 1 << b))
        };
        let mut c = TupleSpace::new(schema.clone());
        let mut header = schema.zero_value();
        header.set(proto, 6);
        let mut trace = Vec::new();
        let mut t = 0.0;
        for d in inversions(16, allow_dp) {
            for s in inversions(32, allow_sip) {
                header.set(dp, d);
                header.set(sip, s);
                trace.push(header.clone());
                if c.peek(&header).is_some() {
                    continue;
                }
                let (verdict, mut mask) = examined_megaflow(&table, &header, &strategy).unwrap();
                if pin_proto {
                    mask.set(proto, 0xff);
                }
                c.insert(header.clone(), mask, verdict.action, t).unwrap();
                t += 1e-5;
            }
        }
        assert_eq!((c.mask_count(), c.entry_count()), (513, 529));
        (c, trace)
    }

    /// SipDp's explosion, its megaflows pinned to TCP. Then every megaflow is installed
    /// again for UDP: each joins the tuple of its mask, past an agreement (on `ip_proto`,
    /// an inline word) that excludes it. No mask is made twice, and what the walks did
    /// is pinned.
    #[test]
    fn a_reinstall_into_every_tuple_of_an_explosion_makes_no_mask_twice() {
        let (mut c, _) = sipdp_explosion(true);
        let proto = c.schema().field_index("ip_proto").unwrap();
        let t = 1.0;
        let exploded = c.work();
        assert_eq!(
            (
                exploded.install_walks,
                exploded.install_records,
                exploded.install_plan_reads,
                exploded.install_entry_scans
            ),
            (529, 135_696, 3_976, 0),
            "`tp_dst` is past the inline words: a record whose `ip_src` agrees is read"
        );

        let tcp: Vec<MegaflowEntry> = c.entries().cloned().collect();
        for e in &tcp {
            let mut key = e.key.clone();
            key.set(proto, 17);
            c.insert(key, e.mask.clone(), e.action, t).unwrap();
        }
        assert_eq!((c.mask_count(), c.entry_count()), (513, 2 * 529));
        let masks: std::collections::BTreeSet<Mask> =
            c.mask_usage().into_iter().map(|(m, _)| m).collect();
        assert_eq!(masks.len(), c.mask_count(), "no mask has two tuples");
        let w = c.work();
        assert_eq!(
            (
                w.install_walks - exploded.install_walks,
                w.install_records - exploded.install_records
            ),
            (529, 529 * 513)
        );
        // Each walk reads the tuple it joins, and the tuples already joined whose
        // `ip_src` agrees: those no longer agree on `ip_proto`.
        assert_eq!(
            (
                w.install_plan_reads - exploded.install_plan_reads,
                w.install_entry_scans
            ),
            (5_001, 0)
        );
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

    /// A lane record carries its plan's first two agreement words; the tuple's plan holds
    /// the rest. On a schema of three byte fields, a full mask's plan reads key words 0, 2
    /// and 4, so its record carries the first two and its tail word 4 alone; beside it
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
        let shapes: Vec<(usize, [u8; INLINE], usize)> = c
            .lane
            .iter()
            .zip(&c.tuples)
            .map(|(rec, t)| (t.plan.len(), rec.word, t.tail().len()))
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
        assert_eq!(c.tuples[0].plan[2].agree, 0xf9);
        agrees_with_the_scan(&c, &headers, &masks).unwrap();
        let refused = c.insert(key(8, 8, 0x5f), full.clone(), Action::Deny, 5.0);
        assert!(refused.is_err(), "(8, 8, 0x5f) is within (*, *, 0x5*)");
        agrees_with_the_scan(&c, &headers, &masks).unwrap();

        // The entries installed at 0 go; the full mask's tuple is (1, 2, 5) alone. A sweep
        // writes no agreement, so its `c` word still agrees on 0xf9 alone, not on all of
        // (1, 2, 5)'s bits: sound, as an agreement folded over more keys than are left.
        assert_eq!(c.expire_idle(12.0, 10.0), 3);
        assert_eq!(c.lane.len(), 1);
        assert_eq!(c.tuples[0].plan[2].agree, 0xf9);
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
        assert_eq!(
            (all.tuples[0].plan.len(), all.lane[0].agree),
            (0, [0; INLINE])
        );
        agrees_with_the_scan(&all, &headers, &[none, full]).unwrap();
        assert!(headers
            .iter()
            .all(|h| all.clone().lookup(h, 1.0).masks_scanned == 1));
    }

    /// What one `lookup_run` of `run` on a clone of `c`, a cache no lookup has walked yet,
    /// did, after `run_matches_lookups` has held its answers to `lookup`'s: the work of
    /// `c`'s inserts left out.
    fn work_of_run(c: &TupleSpace, run: &[Triple]) -> TssWork {
        let keys: Vec<Key> = run
            .iter()
            .map(|&(a, b, cc)| Key::from_values(c.schema(), &[a, b, cc]))
            .collect();
        let run: Vec<(&Key, f64)> = keys.iter().map(|k| (k, 1.0)).collect();
        run_matches_lookups(c, &run).unwrap();
        let mut c = c.clone();
        c.lookup_run(&run, &mut [LookupOutcome::default(); RUN]);
        TssWork {
            install_walks: 0,
            install_records: 0,
            install_plan_reads: 0,
            install_entry_scans: 0,
            ..c.work()
        }
    }

    /// A cache over three byte fields, `a`, `b` and `c` (key words 0, 2 and 4), of one
    /// entry per `(key, mask)`, probed in the order given: installed last to first.
    fn byte_cache(entries: &[(Triple, Triple)]) -> TupleSpace {
        let schema = FieldSchema::new(vec![
            FieldDef::new("a", 8),
            FieldDef::new("b", 8),
            FieldDef::new("c", 8),
        ]);
        let mut c = TupleSpace::new(schema.clone());
        for &((a, b, cc), (ma, mb, mc)) in entries.iter().rev() {
            let (key, mask) = (
                Key::from_values(&schema, &[a, b, cc]),
                Key::from_values(&schema, &[ma, mb, mc]),
            );
            c.insert(key, mask, Action::Allow, 0.0).unwrap();
        }
        c
    }

    /// A run's walk tests a record's first inline word against every column of the run
    /// and passes the record on it when it rules all of them out; the second inline
    /// word, the plan's tail and the hash follow only for a column that survives. The lane
    /// is `full` (plan `a`, `b` | tail `c`), `pair` (`a`, `c`) and `top` (`c` and a
    /// padding word), whose entry's first word is 0 and so passes a zero column. Each
    /// run answers as `lookup` on each header in turn, and what its walk read is pinned.
    #[test]
    fn a_run_walk_tests_the_first_word_then_the_second_then_the_tail() {
        let (full, pair, top) = ((0xff, 0xff, 0xff), (0xff, 0, 0xf0), (0, 0, 0xf0));
        let c = byte_cache(&[
            ((1, 2, 0x33), full),
            ((7, 0, 0x60), pair),
            ((0, 0, 0x05), top),
        ]);
        let work = |run_runs, run_headers, run_records, run_second_word, run_hashed| TssWork {
            run_runs,
            run_headers,
            run_records,
            run_second_word,
            run_hashed,
            ..TssWork::default()
        };
        // `full`'s first word rules out the first three headers and not the fourth,
        // which hits there; `pair` and `top` each read their second word for the
        // headers that hit them.
        let three_out = [(7, 0, 0x61), (0, 9, 0x05), (7, 5, 0x6f), (1, 2, 0x33)];
        assert_eq!(work_of_run(&c, &three_out), work(1, 4, 3, 3, 4));
        // Every header passes `full`'s first word and is ruled out by its second, with
        // no tail read and no hash; `pair` and `top` rule them all out on their first.
        let second_out = [(1, 5, 0x33), (1, 6, 0x33), (1, 7, 0x33), (1, 8, 0x33)];
        assert_eq!(work_of_run(&c, &second_out), work(1, 4, 3, 1, 0));
        // Runs of two and three: their zero columns pass `top`'s first word, whose
        // value is 0. The first run's second header passes both of `full`'s inline words,
        // is ruled out by its tail, and misses; `top` reads its second word for the zero
        // columns alone.
        assert_eq!(
            work_of_run(&c, &[(1, 2, 0x33), (1, 2, 0x34)]),
            work(1, 2, 3, 2, 1)
        );
        assert_eq!(
            work_of_run(&c, &[(1, 2, 0x33), (7, 0, 0x61)]),
            work(1, 2, 2, 2, 2)
        );
        assert_eq!(
            work_of_run(&c, &[(1, 2, 0x33), (7, 0, 0x61), (0, 1, 0x01)]),
            work(1, 3, 3, 3, 3)
        );
        // A single header is a `lookup`, counted as a probe: it hits `full`'s tuple, having
        // read its second word and hashed there.
        assert_eq!(
            work_of_run(&c, &[(1, 2, 0x33)]),
            TssWork {
                probe_lookups: 1,
                probe_records: 1,
                probe_second_word: 1,
                probe_hashed: 1,
                ..TssWork::default()
            }
        );
    }

    /// A header that has hit keeps its column in the walk's tests: here the first header
    /// hits `ab`'s tuple, and passes both inline words of `full`'s (whose two keys agree
    /// on `a` and on `b`'s high bits) — so the walk reads that record's tail — but is not
    /// hashed there; the three others hit `pair`.
    #[test]
    fn a_run_hashes_no_header_after_its_hit() {
        let (full, pair, ab) = ((0xff, 0xff, 0xff), (0xff, 0, 0xf0), (0xff, 0xff, 0));
        let c = byte_cache(&[
            ((1, 2, 3), ab),
            ((1, 0, 5), full),
            ((1, 3, 5), full),
            ((7, 0, 0x60), pair),
        ]);
        let run = [(1, 2, 3), (7, 9, 0x61), (7, 8, 0x62), (7, 7, 0x63)];
        assert_eq!(
            work_of_run(&c, &run),
            TssWork {
                run_runs: 1,
                run_headers: 4,
                run_records: 3,
                run_second_word: 3,
                run_hashed: 4,
                ..TssWork::default()
            }
        );
    }

    /// SipDp's explosion, its trace replayed in runs of four as the datapath hands a run
    /// of hits over: each run answers as `lookup` on each header in turn, and what the
    /// walks read is pinned — `fig9a_throughput_vs_masks`'s gated `SipDp/work/run_*`
    /// rows. Its 513 records are eight sliced blocks and one record; its inline words
    /// agree on the nibbles of `ip_src` and `tp_dst`, twelve slots. Only the records the
    /// slices pass for some column, and the newest record where its first word (`ip_src`)
    /// does, have their second word read: 552 of 38,673, where a record-by-record walk
    /// read 4,926. Every hash a walk takes is a hit.
    #[test]
    fn sipdp_runs_read_the_second_word_of_the_records_the_slices_pass() {
        let (mut c, trace) = sipdp_explosion(false);
        assert_eq!((c.slices.blocks, c.slices.len), (8, 12));
        let mut out = [LookupOutcome::default(); RUN];
        let mut rest = &trace[..];
        while !rest.is_empty() {
            let run: Vec<(&Key, f64)> = rest.iter().take(RUN).map(|h| (h, 1.0)).collect();
            run_matches_lookups(&c, &run).unwrap();
            let answered = c.lookup_run(&run, &mut out);
            assert!(out[..answered].iter().all(|o| o.action.is_some()));
            rest = &rest[answered..];
        }
        let w = c.work();
        assert_eq!(
            (
                w.run_runs,
                w.run_headers,
                w.run_records,
                w.run_slice_words,
                w.run_second_word,
                w.run_hashed
            ),
            (140, 560, 38_673, 31_824, 552, 560),
            "561 headers: 140 runs of four, and one `lookup`"
        );
        assert_eq!(w.probe_lookups, 1, "the 561st header");
    }

    /// A miss walks the whole lane for its one header, and what the walk read is pinned:
    /// SipDp's explosion pinned to TCP, probed with its trace's first header (the allowed
    /// `ip_src` and `tp_dst`) over UDP. Every record is scanned — `probe_records` is
    /// `masks_scanned` — but the eight full blocks rule the header out on their slices,
    /// a row per slot per block (fourteen slots: the nibbles of `ip_src`, `ip_proto` and
    /// `tp_dst`), and only the newest record, in the partial block, is tested on its own,
    /// and ruled out by its first inline word. No second word is read and nothing is
    /// hashed; a record-by-record walk read sixteen second words.
    #[test]
    fn a_miss_rules_out_the_full_blocks_of_an_explosion_on_their_slices() {
        let (mut c, trace) = sipdp_explosion(true);
        assert_eq!((c.slices.blocks, c.slices.len), (8, 14));
        let proto = c.schema().field_index("ip_proto").unwrap();
        let mut header = trace[0].clone();
        header.set(proto, 17);
        let peeked = c.work();
        assert_eq!(
            peeked.probe_lookups, 0,
            "the fixture peeked at its trace, uncounted"
        );
        let out = c.lookup(&header, 1.0);
        assert_eq!((out.action, out.masks_scanned), (None, 513));
        assert_eq!(
            c.work(),
            TssWork {
                probe_lookups: 1,
                probe_records: 513,
                probe_slice_words: 8 * 14,
                probe_second_word: 0,
                probe_hashed: 0,
                ..peeked
            }
        );
    }

    /// Item 19(b)'s tuples, the slices' worst case: seventy tuples, each holding two keys
    /// that differ on every bit of its two inline words (`a` and `b`), so that no inline
    /// word agrees on a nibble. There is no slot and no sliced block, and the walk reads
    /// what a record-by-record walk reads: every record's second word, and a hash for
    /// every header the tail (`c`) does not rule out.
    #[test]
    fn tuples_whose_inline_words_agree_on_nothing_get_no_slices() {
        let c = byte_cache(
            &(0..70)
                .flat_map(|t| {
                    let mask = (0xff, 0xff, t + 1);
                    [((t, 0x0f, 0), mask), ((255 - t, 0xf0, 0), mask)]
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!((c.mask_count(), c.entry_count()), (70, 140));
        assert!(c.lane.iter().all(|rec| rec.agree == [0; INLINE]));
        assert_eq!((c.slices.len, c.slices.blocks), (0, 0));
        // A miss the tails pass: every record read, its second word too, and hashed.
        let miss = (9, 9, 0);
        assert_eq!(
            work_of_run(&c, &[miss]),
            TssWork {
                probe_lookups: 1,
                probe_records: 70,
                probe_second_word: 70,
                probe_hashed: 70,
                ..TssWork::default()
            }
        );
        // A run whose first header hits the first tuple probed, and a miss every tail rules
        // out: both columns read every record's second word, and only the hit hashes.
        assert_eq!(
            work_of_run(&c, &[(0, 0x0f, 0), (9, 9, 0xff)]),
            TssWork {
                run_runs: 1,
                run_headers: 2,
                run_records: 70,
                run_second_word: 70,
                run_hashed: 1,
                ..TssWork::default()
            }
        );
    }

    /// More agreed nibbles than [`SLOTS`]: on two 128-bit fields `x` and `y` and a byte
    /// `z` (key words 0 to 3, and 4), the first block holds four tuples under a bit of
    /// `x` and `z` (inline words 0 and 4), then thirty under all of `x` but one bit, and
    /// thirty under all of `y` but one bit (inline words 0 and 1, 2 and 3; `z` in the
    /// tail), each keyed apart on `z`; six more start the next block. Words 0 to 3 fill
    /// the 64 slots and `z`'s nibbles go unsliced, so the first four tuples are
    /// candidates for every header, and their own test rules on `z`: every probe path
    /// answers as the index-less scans do.
    #[test]
    fn an_agreed_nibble_past_the_slots_is_left_to_its_records_test() {
        let schema = FieldSchema::new(vec![
            FieldDef::new("x", 128),
            FieldDef::new("y", 128),
            FieldDef::new("z", 8),
        ]);
        let shape = |t: u128| match t {
            0..4 | 64.. => ((1 << (t % 60), 0), (0, 0)),
            4..34 => (
                (u128::MAX ^ 1 << (2 * t), 0),
                (t * 0x0123_4567_89ab_cdef, 0),
            ),
            _ => (
                (0, u128::MAX ^ 1 << (2 * t)),
                (0, t * 0x0fed_cba9_8765_4321),
            ),
        };
        let mut c = TupleSpace::new(schema.clone());
        let mut headers = Vec::new();
        for t in 0..70 {
            let ((mx, my), (x, y)) = shape(t);
            let key = Key::from_values(&schema, &[x, y, t]);
            let mask = Key::from_values(&schema, &[mx, my, 0xff]);
            c.insert(key.clone(), mask, Action::Deny, 0.0).unwrap();
            headers.push(Key::from_values(&schema, &[x, y, t ^ 0x80]));
            headers.push(key);
        }
        assert_eq!((c.slices.blocks, c.slices.len), (1, SLOTS));
        assert!(c.slices.slots.iter().all(|&(w, _)| w < 4));
        assert_eq!(c.slices.tally[4][0] + c.slices.tally[4][1], 2 * 4);
        agrees_with_the_scan(&c, &headers, &[]).unwrap();
        // A header keyed like the first tuple but for `z` passes the slices of all four
        // of the first tuples, and their records' own test rules it out.
        let out = c.clone().lookup(&headers[0], 1.0);
        assert_eq!((out.action, out.masks_scanned), (None, 70));
    }

    /// SipDp's explosion pinned to TCP, made once: eight full blocks and one record.
    fn pinned_sipdp() -> &'static (TupleSpace, Vec<Key>) {
        static PINNED: std::sync::OnceLock<(TupleSpace, Vec<Key>)> = std::sync::OnceLock::new();
        PINNED.get_or_init(|| sipdp_explosion(true))
    }

    /// What a walk of `c` for `headers`, a column each and zero columns up to `width`,
    /// reads, told record by record off the lane and the tuples, slices unread: the
    /// records down to where the last header hits (all of them on a miss); a row per
    /// slot per column of each full block reached; the second word of each record of
    /// the partial block whose first inline word some column passes, and of each record
    /// of a full block whose two inline words some column passes; and a hash per header
    /// still looking per record whose agreement words it passes. As
    /// `(records, slice words, second words, hashes)`.
    fn reads_of(c: &TupleSpace, headers: &[&Key], width: usize) -> [u64; 4] {
        assert!(c.slices.len < SLOTS, "every agreed nibble is sliced");
        let mut columns: Vec<[u64; 16]> = headers.iter().map(|h| key_words(h)).collect();
        columns.resize(width, [0; 16]);
        let mut looking = vec![true; headers.len()];
        let (len, sliced) = (c.lane.len(), c.slices.blocks * SLICE);
        let (mut records, mut low, mut second_word, mut hashed) = (len, c.slices.blocks, 0, 0);
        for i in (0..len).rev() {
            let rec = &c.lane[i];
            let passes = |column: &[u64; 16], k| rec.excludes(k, |w| column[w], |_| !0) == 0;
            let read = if i >= sliced {
                columns.iter().any(|col| passes(col, 0))
            } else {
                low = i / SLICE;
                columns.iter().any(|col| passes(col, 0) && passes(col, 1))
            };
            if !read {
                continue;
            }
            second_word += 1;
            let tuple = &c.tuples[i];
            for (j, header) in headers.iter().enumerate() {
                let words = &columns[j];
                if looking[j]
                    && tuple
                        .plan
                        .iter()
                        .all(|w| w.excludes(words[usize::from(w.word)]) == 0)
                {
                    hashed += 1;
                    looking[j] = !tuple
                        .iter()
                        .any(|e| fields::matches(header, &e.key, &e.mask));
                }
            }
            if !looking.contains(&true) {
                records = len - i;
                break;
            }
        }
        let slice_words = (c.slices.blocks - low) * c.slices.len * width;
        [records as u64, slice_words as u64, second_word, hashed]
    }

    /// `lookup` on each of `headers`, and `lookup_run` on each window of two to four of
    /// them, on clones of `c`, read what [`reads_of`] says.
    fn walks_read_what_the_records_say(
        c: &TupleSpace,
        headers: &[Key],
    ) -> Result<(), TestCaseError> {
        for header in headers {
            let mut probed = c.clone();
            probed.lookup(header, 9.0);
            let (w, was) = (probed.work(), c.work());
            let read = [
                w.probe_records - was.probe_records,
                w.probe_slice_words - was.probe_slice_words,
                w.probe_second_word - was.probe_second_word,
                w.probe_hashed - was.probe_hashed,
            ];
            prop_assert_eq!(read, reads_of(c, &[header], 1), "lookup {}", header);
        }
        for len in 2..=RUN {
            for run in headers.windows(len) {
                let mut ran = c.clone();
                let keyed: Vec<(&Key, f64)> = run.iter().map(|h| (h, 9.0)).collect();
                ran.lookup_run(&keyed, &mut [LookupOutcome::default(); RUN]);
                let (w, was) = (ran.work(), c.work());
                let read = [
                    w.run_records - was.run_records,
                    w.run_slice_words - was.run_slice_words,
                    w.run_second_word - was.run_second_word,
                    w.run_hashed - was.run_hashed,
                ];
                let run: Vec<&Key> = run.iter().collect();
                prop_assert_eq!(read, reads_of(c, &run, RUN), "run {:?}", run);
            }
        }
        Ok(())
    }

    proptest! {
        /// The slices through every mutator that moves them, from SipDp's explosion pinned
        /// to TCP (eight full blocks and one record): `remove_where` dropping tuples picked
        /// off the lane and `expire_idle` dropping the oldest, so that records shift
        /// across block boundaries; `remove_mask`; a second key into tuples of full blocks
        /// — the TCP key again over UDP, narrowing `ip_proto`, or a new `tp_src` under a
        /// tuple made here, narrowing `tp_src` where it is inline — and new tuples, some
        /// completing a block, under masks of `ip_src`'s top bits (none, for some, which
        /// makes `tp_src` an inline word and its nibbles slots), `ip_proto`, `tp_src` and
        /// some of `tp_dst`, keyed 0 but for their own `tp_src`, so that a run's zero
        /// columns pass their inline words. After every step the lane is consistent,
        /// every lookup, peek, conflict and run answers as the index-less scans do, and
        /// every walk reads what the records say it reads.
        #[test]
        fn slices_follow_their_records_through_every_mutator(
            steps in proptest::collection::vec((0u8..5, 0u64..1 << 20, 1u64..66), 1..7),
        ) {
            let (base, trace) = pinned_sipdp();
            let mut c = base.clone();
            let schema = c.schema().clone();
            let field = |name| schema.field_index(name).unwrap();
            let (sip, proto, sp, dp) = (field("ip_src"), field("ip_proto"), field("tp_src"), field("tp_dst"));
            let pick = |seed: u64, len: usize| splitmix64_mix(seed) as usize % len.max(1);
            // The `tp_src` of the last key made here: each key gets its own.
            let mut fresh = 0;
            for (step, &(op, seed, count)) in steps.iter().enumerate() {
                let now = 1.0 + step as f64;
                match op {
                    0 => {
                        let doomed: Vec<Mask> = (0..count % 6 + 1)
                            .filter_map(|k| c.tuples.get(pick(seed + k, c.tuples.len())))
                            .map(|t| t.mask.clone())
                            .collect();
                        c.remove_where(|e| doomed.contains(&e.mask));
                    }
                    1 => {
                        // The explosion was installed 10 µs apart from 0.
                        c.expire_idle((seed % 100) as f64 * 1e-5, 0.0);
                    }
                    2 => {
                        if let Some(t) = c.tuples.get(pick(seed, c.tuples.len())) {
                            let mask = t.mask.clone();
                            prop_assert!(c.remove_mask(&mask) > 0);
                        }
                    }
                    3 => {
                        for k in 0..count % 8 + 1 {
                            let full = c.lane.len() / SLICE * SLICE;
                            let Some(t) = c.tuples.get(pick(seed + k, full)).filter(|_| full > 0) else {
                                break;
                            };
                            let (mut key, mask) = (t.iter().next().unwrap().key.clone(), t.mask.clone());
                            match key.get(proto) {
                                0 => {
                                    fresh += 1;
                                    key.set(sp, fresh);
                                }
                                6 => key.set(proto, 17),
                                _ => key.set(proto, 6),
                            }
                            c.insert(key, mask, Action::Deny, now).ok();
                        }
                    }
                    _ => {
                        for _ in 0..count {
                            fresh += 1;
                            let bits = splitmix64_mix(seed ^ fresh as u64);
                            let top = (bits % 33) as u32;
                            let mut mask = schema.empty_mask();
                            mask.set(sip, (0xffff_ffffu128 << (32 - top)) & 0xffff_ffff);
                            mask.set(proto, 0xff);
                            mask.set(sp, 0xffff);
                            mask.set(dp, u128::from(bits >> 8 & 0xffff));
                            let mut key = schema.zero_value();
                            key.set(sp, fresh);
                            prop_assert!(c.insert(key, mask, Action::Allow, now).is_ok());
                        }
                    }
                }
                prop_assert!(c.lane_consistent(), "after op {}", op);
                let mut udp = trace[pick(seed >> 1, trace.len())].clone();
                udp.set(proto, 17);
                let mut ours = schema.zero_value();
                ours.set(sp, (seed % (fresh + 1) as u64) as u128);
                let headers = [
                    trace[pick(seed, trace.len())].clone(),
                    udp,
                    ours,
                    trace[pick(seed >> 2, trace.len())].clone(),
                    schema.zero_value(),
                ];
                let masks = c.tuples.get(pick(seed >> 3, c.tuples.len())).map(|t| t.mask.clone());
                agrees_with_the_scan(&c, &headers, masks.as_slice())?;
                walks_read_what_the_records_say(&c, &headers)?;
            }
        }
    }

    /// A sweep writes no agreement: the keys it leaves are a subset of those their tuple's
    /// agreement was folded over, so it still rules none of them out, and a header only
    /// the survivors would rule out costs a hash — host time, never a verdict or a
    /// `masks_scanned`. Once the tuple empties it is dropped, and a reinstall under its
    /// mask starts an exact agreement again.
    #[test]
    fn a_sweep_leaves_the_agreement_narrow_until_its_tuple_empties() {
        let full = k(0b111);
        let agreement = |c: &TupleSpace| {
            let tuple = c.tuples.iter().find(|t| t.mask == full);
            let w = tuple.expect("resident").plan[0];
            (w.agree, w.value)
        };
        // A lookup's outcome, and the hashes its walk took.
        let probe = |c: &mut TupleSpace, header: u128| {
            let before = c.work().probe_hashed;
            let out = c.lookup(&k(header), 13.0);
            (out, c.work().probe_hashed - before)
        };
        let mut c = TupleSpace::new(hyp_schema());
        c.insert(k(0b001), full.clone(), Action::Deny, 0.0).unwrap();
        c.insert(k(0b000), full.clone(), Action::Allow, 5.0)
            .unwrap();
        c.insert(k(0b100), k(0b100), Action::Deny, 5.0).unwrap();
        assert_eq!(agreement(&c), (0b110, 0), "001 and 000 agree on bits 2..1");

        // 001 idles out; the agreement stays as both keys left it.
        assert_eq!(c.expire_idle(12.0, 10.0), 1);
        assert_eq!(agreement(&c), (0b110, 0));
        // The same entries installed afresh agree on all of 000.
        let mut exact = TupleSpace::new(hyp_schema());
        exact
            .insert(k(0b000), full.clone(), Action::Allow, 5.0)
            .unwrap();
        exact.insert(k(0b100), k(0b100), Action::Deny, 5.0).unwrap();
        assert_eq!(agreement(&exact), (0b111, 0));
        // 001 differs from 000 on bit 0 alone: the narrow agreement sends it on to the
        // index, where it misses; the exact one rules it out. Same verdict, same scan.
        let miss = LookupOutcome {
            action: None,
            masks_scanned: 2,
        };
        assert_eq!(probe(&mut c, 0b001), (miss, 1));
        assert_eq!(probe(&mut exact, 0b001), (miss, 0));

        // 000 goes too: its tuple is dropped, and a reinstall starts over from the key.
        assert_eq!(c.remove_where(|e| e.key == k(0b000)), 1);
        assert_eq!(c.mask_count(), 1);
        c.insert(k(0b000), full.clone(), Action::Allow, 20.0)
            .unwrap();
        assert_eq!(agreement(&c), (0b111, 0));
        assert_eq!(probe(&mut c, 0b001), (miss, 0));
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
            let mut c = TupleSpace::new(schema.clone());
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
    /// entries it removes or moves and the one at the cut. A long-lived entry at the front of the log, hit every step, is the one
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
            let before = c.work();
            let removed = c.expire_idle(now, 10.0);
            let w = work_since(&c, before);
            assert_eq!(w.sweep_removed, removed as u64);
            assert!(
                w.sweep_examined <= w.sweep_removed + w.sweep_moved + 1
                    || (removed == 0 && w.sweep_examined <= 2),
                "step {step}: {w:?}"
            );
            assert_eq!(w.sweep_slots, w.sweep_removed + w.sweep_moved);
            if removed > 0 {
                assert_eq!(w.sweep_moved, 1, "the long-lived entry slides up");
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

    /// The work a sweep did, as the difference of two [`TupleSpace::work`] reads' sweep
    /// counts.
    fn work_since(c: &TupleSpace, before: TssWork) -> TssWork {
        let w = c.work();
        TssWork {
            sweep_examined: w.sweep_examined - before.sweep_examined,
            sweep_removed: w.sweep_removed - before.sweep_removed,
            sweep_moved: w.sweep_moved - before.sweep_moved,
            sweep_slots: w.sweep_slots - before.sweep_slots,
            ..TssWork::default()
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
        let (held, before) = (c.entries().cloned().collect::<Vec<_>>(), c.work());
        assert_eq!(c.expire_idle(20.0, 30.0), 0);
        let w = work_since(&c, before);
        assert_eq!(
            w,
            TssWork {
                sweep_examined: live,
                ..TssWork::default()
            }
        );
        assert!(c.entries().eq(held.iter()));

        // At 21.5 s everything used before 11.5 s goes, the offenders too: the two
        // survivors in front of them slide up, the block behind them stays put.
        let before = c.work();
        assert_eq!(c.expire_idle(21.5, 10.0), 3 * BLOCK - 2 + 3);
        let w = work_since(&c, before);
        assert_eq!(
            (w.sweep_examined, w.sweep_removed, w.sweep_moved),
            (live, live - 2 - BLOCK as u64, 2)
        );
        assert_eq!(w.sweep_slots, w.sweep_removed + w.sweep_moved);
        assert!(c.tuples[0].ordered, "the survivors are in time order");
        let held: Vec<f64> = c.entries().map(|e| e.installed_at).collect();
        let mut expected = vec![11.5, 11.75];
        expected.extend([20.0; BLOCK]);
        assert_eq!(held, expected);

        // A block at 30 s; at 31 s the 18 entries installed before 21 s go, and the sweep
        // reads them and the entry at the cut, nothing more.
        install(&mut c, BLOCK, 30.0);
        let before = c.work();
        assert_eq!(c.expire_idle(31.0, 10.0), BLOCK + 2);
        let w = work_since(&c, before);
        assert!(
            w.sweep_examined <= w.sweep_removed + w.sweep_moved + 1,
            "{w:?}"
        );
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
        let before = c.work();
        assert_eq!(c.remove_where(|e| e.action == Action::Allow), 0);
        let w = work_since(&c, before);
        assert_eq!(
            w,
            TssWork {
                sweep_examined: n as u64,
                ..TssWork::default()
            }
        );
        assert!(c.entries().eq(held.iter()));

        // Every fourth entry of the second and third blocks; the newest of them is the
        // entry at offset 3 * BLOCK - 3.
        let middle = |e: &MegaflowEntry| {
            let i = e.installed_at as usize;
            (BLOCK..3 * BLOCK).contains(&i) && i % 4 == 1
        };
        let before = c.work();
        assert_eq!(c.remove_where(middle), BLOCK / 2);
        let w = work_since(&c, before);
        let older = (3 * BLOCK - 3) - (BLOCK / 2 - 1);
        assert_eq!(
            (w.sweep_examined, w.sweep_removed, w.sweep_moved),
            (n as u64, BLOCK as u64 / 2, older as u64)
        );
        assert_eq!(w.sweep_slots, w.sweep_removed + w.sweep_moved);
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
