//! O(1) min/max-count maintenance for Misra-Gries tables: the stream-summary
//! eviction engine.
//!
//! Graphene and Mithril need three ordered queries over their counter tables that
//! the seed answered with linear scans on every *miss*:
//!
//! * Graphene's eviction: "is there an entry whose count does not exceed the
//!   spillover count?" — equivalent to `min ≤ spillover`;
//! * Mithril's eviction: "which entry has the minimum count, and is it at or below
//!   the spillover count?";
//! * Mithril's RFM mitigation: "which entry has the maximum count?".
//!
//! The row→slot index (PR 3) made the *match* path O(1) but left every miss paying
//! an O(entries) scan, a ~100× throughput cliff on eviction-heavy churn streams.
//! [`CountSummary`] removes the scan: it is the classic *stream-summary* structure
//! of Metwally et al.'s Space-Saving algorithm — table slots threaded onto
//! doubly-linked lists, one list per distinct count value ("bucket"), with the
//! buckets themselves on a doubly-linked list ordered by count. The minimum lives
//! at the head of the first bucket and the maximum at the head of the last, so
//! insert / evict-min / mitigate-max / roll-back-to-spillover are all pointer
//! splices:
//!
//! * no allocation in steady state — bucket nodes come from a preallocated pool
//!   sized at one node per table slot (a bucket is never empty, so the number of
//!   live buckets cannot exceed the number of attached slots);
//! * unit-weight increments (plain Rowhammer accounting, `frac_bits = 0`) move a
//!   slot to an adjacent bucket, the textbook O(1) case;
//! * fractional EACT increments walk the bucket list from the slot's current
//!   bucket toward the insertion point, so the cost is the number of *distinct
//!   counts* crossed — in the simulated workloads and churn streams counts
//!   cluster tightly and the walk is O(1) amortized, and a single-occupant bucket
//!   whose neighbours are not crossed is re-counted in place without any splice.
//!
//! Selecting among *tied* minima (or maxima) is where the engine deliberately
//! diverges from the seed's scan: the scan broke ties by table order, the summary
//! by bucket-list order. The Misra-Gries/Space-Saving guarantees do not depend on
//! the tie-break, so the trackers enforce an **observational-equivalence
//! contract** instead of bit-identical selection — see the module docs of
//! [`crate::graphene`]/[`crate::mithril`] and the `summary_equivalence`
//! integration suite.

use std::fmt;

/// Sentinel for "no slot / no bucket".
const NIL: u32 = u32::MAX;

/// Which eviction implementation a Graphene/Mithril instance uses.
///
/// * [`EvictionEngine::Scan`] — the seed's linear scan over the table on every
///   miss (and, for Mithril, on every RFM). Bit-identical to the original
///   algorithms; kept for A/B comparison in tests and `perf_report`.
/// * [`EvictionEngine::Summary`] — the bucketed [`CountSummary`] structure;
///   observationally equivalent (same mitigation multiset whenever the victim
///   choice is unambiguous, same Misra-Gries error bound always) and O(1) on the
///   miss path.
///
/// `Summary` is the default; `Scan` is reachable only by pinning it
/// explicitly ([`crate::Graphene::with_engine`], [`crate::Mithril::with_engine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionEngine {
    /// Linear-scan eviction (the seed algorithm, bit-identical).
    Scan,
    /// Bucketed stream-summary eviction (O(1), observationally equivalent).
    #[default]
    Summary,
}

impl EvictionEngine {
    /// Short name used in reports (`"scan"` / `"summary"`).
    pub fn label(self) -> &'static str {
        match self {
            EvictionEngine::Scan => "scan",
            EvictionEngine::Summary => "summary",
        }
    }
}

impl fmt::Display for EvictionEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds the per-tracker summary-engine scaffolding: the [`CountSummary`] and
/// the invalid-slot free list (claimed before any eviction is considered — the
/// explicit invalid-before-eviction invariant). Under the scan engine both are
/// empty and never maintained.
///
/// Shared by Graphene and Mithril so the free-slot pop order — load-bearing
/// for the lockstep equivalence of invalid claims, see
/// [`restock_free_slots`] — is defined in exactly one place.
pub fn engine_scaffolding(entries: usize, engine: EvictionEngine) -> (CountSummary, Vec<u32>) {
    match engine {
        EvictionEngine::Scan => (CountSummary::new(0), Vec::new()),
        EvictionEngine::Summary => {
            let mut free_slots = Vec::with_capacity(entries);
            restock_free_slots(&mut free_slots, entries);
            (CountSummary::new(entries), free_slots)
        }
    }
}

/// Refills the invalid-slot free list with every slot (a refresh-window reset).
///
/// Slots are stacked in reverse so pops claim slot 0 first — the same order the
/// scan engine's first-invalid search produces. Slot identity is unobservable,
/// but keeping the orders aligned means an invalid claim can never be the point
/// where the engines' table layouts diverge, which makes divergences in the
/// equivalence suites attributable to tied-victim choices alone.
pub fn restock_free_slots(free_slots: &mut Vec<u32>, entries: usize) {
    free_slots.clear();
    free_slots.extend((0..entries as u32).rev());
}

/// One bucket: a non-empty set of slots sharing the same count, on the ordered
/// bucket list.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// The count shared by every slot in this bucket.
    count: u64,
    /// First slot of this bucket's doubly-linked member list.
    head: u32,
    /// Previous bucket on the ordered list (strictly smaller count) or `NIL`.
    prev: u32,
    /// Next bucket on the ordered list (strictly larger count) or `NIL`.
    next: u32,
}

/// Per-slot membership links, kept in one node so a slot touch costs one cache
/// line instead of three parallel-array loads (the record hot path visits these
/// on every activation).
#[derive(Debug, Clone, Copy)]
struct SlotLink {
    /// Bucket id (`NIL` when the slot is not attached).
    bucket: u32,
    /// Previous member in the bucket list (`NIL` at the head).
    prev: u32,
    /// Next member in the bucket list (`NIL` at the tail).
    next: u32,
}

const DETACHED: SlotLink = SlotLink {
    bucket: NIL,
    prev: NIL,
    next: NIL,
};

/// A stream-summary over a fixed set of table slots: every *attached* slot has a
/// count, and the structure answers min/max queries and applies count changes in
/// O(1) pointer splices (plus a bucket-list walk bounded by the number of distinct
/// counts crossed).
///
/// The summary stores only slot ids and counts; the owning tracker keeps the
/// authoritative `(row, counter)` table and mirrors every change into the summary.
#[derive(Debug, Clone)]
pub struct CountSummary {
    /// Per-slot membership links (`bucket == NIL` when the slot is detached).
    slots: Vec<SlotLink>,
    /// Bucket node pool (capacity = number of slots; a bucket is never empty).
    buckets: Vec<Bucket>,
    /// Head of the intrusive free-bucket chain (threaded through `Bucket::next`).
    free_head: u32,
    /// Bucket holding the minimum count, or `NIL` when empty.
    first: u32,
    /// Bucket holding the maximum count, or `NIL` when empty.
    last: u32,
    /// Number of attached slots.
    len: usize,
}

impl CountSummary {
    /// Builds an empty summary able to track `slots` table slots.
    pub fn new(slots: usize) -> Self {
        assert!(
            slots < NIL as usize,
            "slot count must fit the u32 id space with a sentinel"
        );
        let mut summary = Self {
            slots: vec![DETACHED; slots],
            buckets: vec![
                Bucket {
                    count: 0,
                    head: NIL,
                    prev: NIL,
                    next: NIL,
                };
                slots
            ],
            free_head: NIL,
            first: NIL,
            last: NIL,
            len: 0,
        };
        summary.rebuild_free_chain();
        summary
    }

    /// Threads every bucket node onto the free chain (ascending ids).
    fn rebuild_free_chain(&mut self) {
        self.free_head = NIL;
        for b in (0..self.buckets.len() as u32).rev() {
            self.buckets[b as usize].next = self.free_head;
            self.free_head = b;
        }
    }

    /// Pops a bucket node off the free chain.
    #[inline]
    fn alloc_bucket(&mut self) -> u32 {
        let b = self.free_head;
        debug_assert_ne!(b, NIL, "bucket pool sized at one node per slot");
        self.free_head = self.buckets[b as usize].next;
        b
    }

    /// Pushes a bucket node back onto the free chain.
    #[inline]
    fn free_bucket(&mut self, b: u32) {
        self.buckets[b as usize].next = self.free_head;
        self.free_head = b;
    }

    /// Number of attached slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is attached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `slot` is currently attached.
    pub fn contains(&self, slot: usize) -> bool {
        self.slots[slot].bucket != NIL
    }

    /// The count currently recorded for an attached `slot`.
    pub fn count_of(&self, slot: usize) -> Option<u64> {
        let b = self.slots[slot].bucket;
        (b != NIL).then(|| self.buckets[b as usize].count)
    }

    /// A slot holding the minimum count, with that count. O(1).
    ///
    /// Among tied minima the most recently attached slot is returned (bucket
    /// member lists are LIFO) — a deterministic tie-break, but a different one
    /// from the scan engine's table order.
    #[inline]
    pub fn min(&self) -> Option<(usize, u64)> {
        (self.first != NIL).then(|| {
            let b = &self.buckets[self.first as usize];
            (b.head as usize, b.count)
        })
    }

    /// A slot holding the maximum count, with that count. O(1).
    #[inline]
    pub fn max(&self) -> Option<(usize, u64)> {
        (self.last != NIL).then(|| {
            let b = &self.buckets[self.last as usize];
            (b.head as usize, b.count)
        })
    }

    /// Attaches `slot` with `count`. The slot must not already be attached.
    #[inline]
    pub fn attach(&mut self, slot: usize, count: u64) {
        debug_assert_eq!(self.slots[slot].bucket, NIL, "slot {slot} attached twice");
        // New entries usually land near one end of the count range (evict-and-
        // reinsert at the spillover count near the bottom, RFM roll-backs near
        // wherever spillover sits): start from whichever end is on the right side.
        let hint = if self.last != NIL && self.buckets[self.last as usize].count <= count {
            self.last
        } else {
            NIL
        };
        let anchor = self.anchor(hint, count);
        self.link_slot(anchor, slot, count);
        self.len += 1;
    }

    /// Detaches `slot` (which must be attached). Returns a live-bucket hint for a
    /// subsequent re-attach near the old position: the bucket with the largest
    /// count ≤ the slot's old count, or `NIL` if none remains.
    #[inline]
    pub fn detach(&mut self, slot: usize) -> u32 {
        let b = self.slots[slot].bucket;
        debug_assert_ne!(b, NIL, "slot {slot} detached while not attached");
        let hint = self.unlink_slot(b, slot);
        self.len -= 1;
        hint
    }

    /// Changes an attached slot's count, preserving the ordering invariant.
    ///
    /// Handles increases (activation recorded) and decreases (mitigation rolled
    /// the counter back to the spillover value) alike; the bucket-list walk starts
    /// at the slot's current bucket, so the cost is the number of distinct counts
    /// crossed. A slot alone in its bucket whose neighbours are not crossed is
    /// re-counted in place with no splice at all.
    #[inline]
    pub fn set_count(&mut self, slot: usize, count: u64) {
        let b = self.slots[slot].bucket;
        debug_assert_ne!(b, NIL, "set_count on unattached slot {slot}");
        let bucket = self.buckets[b as usize];
        if bucket.count == count {
            return;
        }
        // Fast path: the slot is its bucket's only member and the new count still
        // fits strictly between the neighbouring buckets.
        if bucket.head == slot as u32
            && self.slots[slot].next == NIL
            && (bucket.prev == NIL || self.buckets[bucket.prev as usize].count < count)
            && (bucket.next == NIL || self.buckets[bucket.next as usize].count > count)
        {
            self.buckets[b as usize].count = count;
            return;
        }
        let mut hint = self.unlink_slot(b, slot);
        // End jumps: a new count at or above the current maximum (the common
        // evict-and-reinsert shape once counts band together) or below the
        // current minimum (deep roll-backs) resolves in O(1) from the ends
        // instead of walking the band.
        if self.last != NIL && self.buckets[self.last as usize].count <= count {
            hint = self.last;
        } else if self.first == NIL || self.buckets[self.first as usize].count > count {
            hint = NIL;
        }
        let anchor = self.anchor(hint, count);
        self.link_slot(anchor, slot, count);
    }

    /// Fused evict-and-reinsert for the churn hot path: if the current minimum
    /// count is at most `limit` (the spillover count — the Misra-Gries eviction
    /// condition), moves the minimum slot (the head of the first bucket) to
    /// `count` and returns it; otherwise leaves the structure untouched and
    /// returns `None`. Equivalent to checking `min()` and then
    /// `detach(min); attach(min, count)`, but the head unlink needs no
    /// predecessor handling and the slot's links are written exactly once, so a
    /// churn eviction costs a handful of stores instead of two generic splices.
    ///
    /// `count` must be ≥ the current minimum (it is: evictions reinsert at the
    /// spillover count plus the new row's weight, and `limit` is the spillover).
    #[inline]
    pub fn evict_min_if_at_most(&mut self, limit: u64, count: u64) -> Option<usize> {
        let b = self.first;
        if b == NIL {
            return None;
        }
        let bucket = self.buckets[b as usize];
        if bucket.count > limit {
            return None;
        }
        debug_assert!(bucket.count <= count, "reinsert below the minimum");
        let slot = bucket.head as usize;
        // Unlink the head of the first bucket (no predecessor by definition).
        let next_member = self.slots[slot].next;
        let hint;
        if next_member != NIL {
            self.slots[next_member as usize].prev = NIL;
            self.buckets[b as usize].head = next_member;
            hint = b;
        } else {
            // The minimum bucket dies: its successor becomes the new first.
            let bnext = bucket.next;
            self.first = bnext;
            if bnext != NIL {
                self.buckets[bnext as usize].prev = NIL;
            } else {
                self.last = NIL;
            }
            self.free_bucket(b);
            hint = NIL;
        }
        // Re-link at `count`; the common churn shape lands at or above the
        // current maximum, which the end-jump resolves in O(1).
        let anchor = if self.last != NIL && self.buckets[self.last as usize].count <= count {
            self.anchor(self.last, count)
        } else {
            self.anchor(hint, count)
        };
        self.link_slot(anchor, slot, count);
        Some(slot)
    }

    /// Detaches every slot. Capacity is retained; never allocates.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        self.slots.fill(DETACHED);
        self.first = NIL;
        self.last = NIL;
        self.len = 0;
        self.rebuild_free_chain();
    }

    /// The bucket with the largest count ≤ `count`, or `NIL` if every live bucket
    /// has a larger count (insertion goes before `first`).
    ///
    /// `hint` is a live bucket id to start from (or `NIL` to start at `first`);
    /// the walk proceeds toward the answer, so the cost is the bucket-list
    /// distance between hint and answer.
    #[inline]
    fn anchor(&self, hint: u32, count: u64) -> u32 {
        let mut cur = if hint == NIL { self.first } else { hint };
        if cur == NIL {
            return NIL;
        }
        if self.buckets[cur as usize].count <= count {
            // Walk forward while the next bucket still fits under `count`.
            loop {
                let next = self.buckets[cur as usize].next;
                if next == NIL || self.buckets[next as usize].count > count {
                    return cur;
                }
                cur = next;
            }
        } else {
            // Walk backward to the first bucket that fits under `count`.
            loop {
                let prev = self.buckets[cur as usize].prev;
                if prev == NIL {
                    return NIL;
                }
                if self.buckets[prev as usize].count <= count {
                    return prev;
                }
                cur = prev;
            }
        }
    }

    /// Links `slot` with `count` after bucket `anchor` (`NIL` = before `first`),
    /// joining the anchor bucket if its count matches, else splicing in a fresh
    /// bucket node.
    #[inline]
    fn link_slot(&mut self, anchor: u32, slot: usize, count: u64) {
        let target = if anchor != NIL && self.buckets[anchor as usize].count == count {
            anchor
        } else {
            let b = self.alloc_bucket();
            let next = if anchor == NIL {
                self.first
            } else {
                self.buckets[anchor as usize].next
            };
            self.buckets[b as usize] = Bucket {
                count,
                head: NIL,
                prev: anchor,
                next,
            };
            if anchor == NIL {
                self.first = b;
            } else {
                self.buckets[anchor as usize].next = b;
            }
            if next == NIL {
                self.last = b;
            } else {
                self.buckets[next as usize].prev = b;
            }
            b
        };
        // Push the slot at the head of the bucket's member list (LIFO tie-break).
        let head = self.buckets[target as usize].head;
        self.slots[slot] = SlotLink {
            bucket: target,
            prev: NIL,
            next: head,
        };
        if head != NIL {
            self.slots[head as usize].prev = slot as u32;
        }
        self.buckets[target as usize].head = slot as u32;
    }

    /// Unlinks `slot` from bucket `b`, freeing the bucket if it empties. Returns
    /// the hint described in [`CountSummary::detach`].
    #[inline]
    fn unlink_slot(&mut self, b: u32, slot: usize) -> u32 {
        let SlotLink { prev, next, .. } = self.slots[slot];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.buckets[b as usize].head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
        self.slots[slot] = DETACHED;
        if self.buckets[b as usize].head != NIL {
            return b;
        }
        // Bucket emptied: splice it out of the ordered list and recycle the node.
        let bprev = self.buckets[b as usize].prev;
        let bnext = self.buckets[b as usize].next;
        if bprev != NIL {
            self.buckets[bprev as usize].next = bnext;
        } else {
            self.first = bnext;
        }
        if bnext != NIL {
            self.buckets[bnext as usize].prev = bprev;
        } else {
            self.last = bprev;
        }
        self.free_bucket(b);
        bprev
    }

    /// Full structural validation: bucket counts strictly increasing along the
    /// list, all links mutually consistent, no empty live bucket, every attached
    /// slot reachable exactly once, and the node pool conserved.
    ///
    /// O(slots); intended for tests and debug assertions, not hot paths.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn validate(&self) {
        let mut seen_slots = vec![false; self.slots.len()];
        let mut seen_buckets = vec![false; self.buckets.len()];
        let mut total = 0usize;
        let mut prev_bucket = NIL;
        let mut prev_count: Option<u64> = None;
        let mut b = self.first;
        while b != NIL {
            let bucket = &self.buckets[b as usize];
            assert!(
                !std::mem::replace(&mut seen_buckets[b as usize], true),
                "bucket {b} appears twice on the ordered list"
            );
            assert_eq!(
                bucket.prev, prev_bucket,
                "bucket {b} has a stale prev pointer"
            );
            if let Some(pc) = prev_count {
                assert!(
                    bucket.count > pc,
                    "bucket counts not strictly increasing ({pc} -> {})",
                    bucket.count
                );
            }
            assert_ne!(bucket.head, NIL, "live bucket {b} is empty");
            let mut member = bucket.head;
            let mut prev_member = NIL;
            while member != NIL {
                let s = member as usize;
                assert!(
                    !std::mem::replace(&mut seen_slots[s], true),
                    "slot {s} appears twice"
                );
                assert_eq!(
                    self.slots[s].bucket, b,
                    "slot {s} points at the wrong bucket"
                );
                assert_eq!(self.slots[s].prev, prev_member, "slot {s} has a stale prev");
                total += 1;
                prev_member = member;
                member = self.slots[s].next;
            }
            prev_count = Some(bucket.count);
            prev_bucket = b;
            b = bucket.next;
        }
        assert_eq!(self.last, prev_bucket, "stale last-bucket pointer");
        assert_eq!(total, self.len, "len does not match attached slots");
        for (s, link) in self.slots.iter().enumerate() {
            assert_eq!(
                link.bucket != NIL,
                seen_slots[s],
                "slot {s} attachment flag inconsistent with list membership"
            );
        }
        let live = seen_buckets.iter().filter(|&&x| x).count();
        let mut free = 0usize;
        let mut f = self.free_head;
        while f != NIL {
            assert!(
                !seen_buckets[f as usize],
                "bucket {f} is both free and on the ordered list"
            );
            assert!(
                free <= self.buckets.len(),
                "free chain longer than the pool (cycle?)"
            );
            free += 1;
            f = self.buckets[f as usize].next;
        }
        assert_eq!(
            live + free,
            self.buckets.len(),
            "bucket node pool not conserved"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_summary() {
        assert_eq!(EvictionEngine::default(), EvictionEngine::Summary);
        assert_eq!(EvictionEngine::Summary.label(), "summary");
        assert_eq!(EvictionEngine::Scan.to_string(), "scan");
    }

    #[test]
    fn attach_min_max_detach_roundtrip() {
        let mut s = CountSummary::new(8);
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        s.attach(3, 50);
        s.attach(1, 10);
        s.attach(5, 90);
        s.validate();
        assert_eq!(s.len(), 3);
        assert_eq!(s.min(), Some((1, 10)));
        assert_eq!(s.max(), Some((5, 90)));
        assert_eq!(s.count_of(3), Some(50));
        s.detach(1);
        s.validate();
        assert_eq!(s.min(), Some((3, 50)));
        s.detach(5);
        s.validate();
        assert_eq!(s.max(), Some((3, 50)));
        s.detach(3);
        assert!(s.is_empty());
        s.validate();
    }

    #[test]
    fn tied_counts_share_a_bucket() {
        let mut s = CountSummary::new(4);
        s.attach(0, 7);
        s.attach(1, 7);
        s.attach(2, 7);
        s.validate();
        // LIFO within the bucket: the most recent attach is at the head.
        assert_eq!(s.min(), Some((2, 7)));
        assert_eq!(s.max(), Some((2, 7)));
        s.detach(2);
        s.validate();
        assert_eq!(s.min(), Some((1, 7)));
    }

    #[test]
    fn set_count_moves_across_buckets_both_directions() {
        let mut s = CountSummary::new(4);
        s.attach(0, 10);
        s.attach(1, 20);
        s.attach(2, 30);
        s.set_count(0, 25); // up, between existing buckets
        s.validate();
        assert_eq!(s.min(), Some((1, 20)));
        s.set_count(2, 5); // down, below everything
        s.validate();
        assert_eq!(s.min(), Some((2, 5)));
        assert_eq!(s.max(), Some((0, 25)));
        s.set_count(2, 25); // join an existing bucket
        s.validate();
        assert_eq!(s.count_of(2), Some(25));
        assert_eq!(s.min(), Some((1, 20)));
    }

    #[test]
    fn in_place_recount_fast_path_keeps_ordering() {
        let mut s = CountSummary::new(4);
        s.attach(0, 10);
        s.attach(1, 20);
        s.attach(2, 40);
        // Slot 1 is alone in its bucket; 25 still fits between 10 and 40.
        s.set_count(1, 25);
        s.validate();
        assert_eq!(s.count_of(1), Some(25));
        assert_eq!(s.min(), Some((0, 10)));
        assert_eq!(s.max(), Some((2, 40)));
    }

    #[test]
    fn unit_increment_walks_to_adjacent_bucket() {
        let mut s = CountSummary::new(8);
        for slot in 0..8usize {
            s.attach(slot, slot as u64);
        }
        // Increment the min by one: it joins the next bucket (at its LIFO head).
        s.set_count(0, 1);
        s.validate();
        assert_eq!(s.min(), Some((0, 1)));
        assert_eq!(s.count_of(0), Some(1));
        s.detach(0);
        assert_eq!(s.min(), Some((1, 1)));
    }

    #[test]
    fn clear_recycles_everything() {
        let mut s = CountSummary::new(6);
        for slot in 0..6usize {
            s.attach(slot, (slot as u64) * 3);
        }
        s.clear();
        s.validate();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        for slot in 0..6usize {
            assert!(!s.contains(slot));
            s.attach(slot, 100 - slot as u64);
        }
        s.validate();
        assert_eq!(s.min(), Some((5, 95)));
        assert_eq!(s.max(), Some((0, 100)));
    }

    #[test]
    fn evict_and_reinsert_churn_never_allocates_buckets_beyond_pool() {
        // The Space-Saving churn shape: evict the min, re-attach at a low count.
        let mut s = CountSummary::new(16);
        for slot in 0..16usize {
            s.attach(slot, slot as u64 * 2);
        }
        for round in 0..10_000u64 {
            let (slot, count) = s.min().unwrap();
            s.detach(slot);
            s.attach(slot, count + 3);
            if round % 512 == 0 {
                s.validate();
            }
        }
        s.validate();
        assert_eq!(s.len(), 16);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "attached twice")]
    fn double_attach_is_rejected_in_debug() {
        let mut s = CountSummary::new(2);
        s.attach(0, 1);
        s.attach(0, 2);
    }
}
