//! The Misra-Gries counter table behind Graphene and Mithril: row lookup
//! through hash chains, and O(1) min/max-count maintenance for their eviction
//! and RFM choices.
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
//! [`CountSummary`] answers them without a scan: it is the classic
//! *stream-summary* structure of Metwally et al.'s Space-Saving algorithm —
//! table slots threaded onto doubly-linked lists, one list per distinct count
//! value ("bucket"), with the buckets themselves on a doubly-linked list ordered
//! by count. The minimum lives at the head of the first bucket and the maximum at
//! the head of the last, so insert / evict-min / mitigate-max /
//! roll-back-to-spillover are all pointer splices:
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
//! The per-slot record is the whole Misra-Gries entry, so the summary is the
//! table itself:
//!
//! * a slot holds its row, a hash-chain link and its bucket links; its count
//!   lives once, in its bucket;
//! * [`CountSummary::find`] walks the chain of slots hanging off the row's head.
//!   The head array has a power-of-two size of at least twice the slot count,
//!   indexed by a Fibonacci hash that keeps the product's high bits, so a chain
//!   holds at most half a slot on average;
//! * free slots are claimed in id order (slot 0 first, the seed's first-invalid
//!   scan order) and come back only all at once, at [`CountSummary::clear`], so
//!   the free set is the id range above a claimed watermark;
//! * an eviction unchains the victim's old row before chaining the new one.
//!
//! The bucket splices write only a slot's bucket links and the chain operations
//! only its row and chain link, so moving a slot in the count order never loses
//! its row.
//!
//! Selecting among *tied* minima (or maxima) is where the summary deliberately
//! diverges from the seed's scan: the scan broke ties by table order, the summary
//! by bucket-list order. The Misra-Gries/Space-Saving guarantees do not depend on
//! the tie-break, so the trackers enforce an **observational-equivalence
//! contract** instead of bit-identical selection — see the module docs of
//! [`crate::graphene`]/[`crate::mithril`] and the `summary_equivalence`
//! integration suite.

use impress_dram::address::RowId;

/// Sentinel for "no slot / no bucket".
const NIL: u32 = u32::MAX;

/// Fibonacci hashing multiplier, 2^32 / φ.
const FIB_MULTIPLIER: u32 = 0x9E37_79B9;

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

/// One table slot: the row it tracks, its hash-chain link and its bucket
/// links, in one 20-byte record, so a lookup and the splice that follows read
/// one record instead of a row table, an index and a link array. The count is
/// the bucket's.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Bucket id (`NIL` when the slot is not attached).
    bucket: u32,
    /// Previous member in the bucket list (`NIL` at the head).
    prev: u32,
    /// Next member in the bucket list (`NIL` at the tail).
    next: u32,
    /// The row a claimed slot tracks (stale on a free slot).
    row: RowId,
    /// Next slot on this slot's hash chain (`NIL` at the end).
    chain: u32,
}

const EMPTY_SLOT: Slot = Slot {
    bucket: NIL,
    prev: NIL,
    next: NIL,
    row: 0,
    chain: NIL,
};

/// A Misra-Gries table over a fixed set of slots: claimed slots hold a row
/// found through hash chains, *attached* slots have a count, and the structure
/// answers min/max queries and applies count changes in O(1) pointer splices
/// (plus a bucket-list walk bounded by the number of distinct counts crossed).
///
/// The trackers attach a slot in the same call that claims it, so between
/// calls the claimed and the attached slots are the same set. The count
/// operations also work on their own, keyed by slot, without any row.
#[derive(Debug, Clone)]
pub struct CountSummary {
    /// Per-slot records (`bucket == NIL` when the slot is detached).
    slots: Vec<Slot>,
    /// Bucket node pool (capacity = number of slots; a bucket is never empty).
    buckets: Vec<Bucket>,
    /// First slot of each hash chain, or `NIL` (indexed by `chain_of`).
    heads: Vec<u32>,
    /// Right shift keeping the hash's top `log2(heads.len())` bits.
    shift: u32,
    /// Slots `0..claimed` are claimed; the rest are free and claimed in id order.
    claimed: u32,
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
    /// Builds an empty table of `slots` slots, with the smallest power-of-two
    /// number of chain heads that is at least twice the slot count.
    pub fn new(slots: usize) -> Self {
        Self::with_chain_heads(slots, (2 * slots).next_power_of_two())
    }

    /// Builds an empty table of `slots` slots over `heads` hash chains. Fewer
    /// heads than [`CountSummary::new`] picks only lengthen the chains; tests
    /// use one or two to make every row collide.
    ///
    /// # Panics
    ///
    /// Panics unless `heads` is a power of two of at most 2^32 and `slots`
    /// fits the u32 id space with a sentinel.
    pub fn with_chain_heads(slots: usize, heads: usize) -> Self {
        assert!(
            slots < NIL as usize,
            "slot count must fit the u32 id space with a sentinel"
        );
        assert!(
            heads.is_power_of_two() && heads.trailing_zeros() <= 32,
            "chain heads must be a power of two of at most 2^32"
        );
        let mut summary = Self {
            slots: vec![EMPTY_SLOT; slots],
            buckets: vec![
                Bucket {
                    count: 0,
                    head: NIL,
                    prev: NIL,
                    next: NIL,
                };
                slots
            ],
            heads: vec![NIL; heads],
            shift: 32 - heads.trailing_zeros(),
            claimed: 0,
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

    /// The chain `row` hangs off: the top bits of its Fibonacci hash (computed
    /// in 64 bits so a single head, a shift of 32, is well defined).
    #[inline]
    fn chain_of(&self, row: RowId) -> usize {
        (u64::from(row.wrapping_mul(FIB_MULTIPLIER)) >> self.shift) as usize
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
    #[inline]
    pub fn count_of(&self, slot: usize) -> Option<u64> {
        let b = self.slots[slot].bucket;
        (b != NIL).then(|| self.buckets[b as usize].count)
    }

    /// The row a claimed `slot` tracks.
    #[inline]
    pub fn row_of(&self, slot: usize) -> RowId {
        debug_assert!(slot < self.claimed as usize, "row of free slot {slot}");
        self.slots[slot].row
    }

    /// The claimed slot tracking `row`, if any: a walk along `row`'s chain.
    #[inline]
    pub fn find(&self, row: RowId) -> Option<usize> {
        let mut s = self.heads[self.chain_of(row)];
        while s != NIL {
            let slot = &self.slots[s as usize];
            if slot.row == row {
                return Some(s as usize);
            }
            s = slot.chain;
        }
        None
    }

    /// Claims the lowest free slot for `row`, which must not be tracked, and
    /// chains it; `None` when every slot is claimed. The slot is left
    /// detached: the caller attaches it at its first count.
    #[inline]
    pub fn claim_free(&mut self, row: RowId) -> Option<usize> {
        let slot = self.claimed;
        if slot as usize == self.slots.len() {
            return None;
        }
        debug_assert_eq!(self.find(row), None, "row {row} claimed twice");
        self.claimed += 1;
        self.chain(slot, row);
        Some(slot as usize)
    }

    /// Moves a claimed `slot` to `row`, which must not be tracked: unchains
    /// the slot's old row, then chains the new one (both may share a chain).
    /// The slot's count and bucket position are untouched.
    #[inline]
    pub fn rechain(&mut self, slot: usize, row: RowId) {
        debug_assert!(slot < self.claimed as usize, "rechain of free slot {slot}");
        debug_assert_eq!(self.find(row), None, "row {row} claimed twice");
        let slot = slot as u32;
        self.unchain(slot);
        self.chain(slot, row);
    }

    /// Pushes `slot` onto the head of `row`'s chain.
    #[inline]
    fn chain(&mut self, slot: u32, row: RowId) {
        let h = self.chain_of(row);
        let record = &mut self.slots[slot as usize];
        record.row = row;
        record.chain = self.heads[h];
        self.heads[h] = slot;
    }

    /// Unlinks `slot` from its row's chain, relinking its predecessor (or
    /// the head) past it.
    #[inline]
    fn unchain(&mut self, slot: u32) {
        let Slot { row, chain, .. } = self.slots[slot as usize];
        let h = self.chain_of(row);
        let mut cur = self.heads[h];
        if cur == slot {
            self.heads[h] = chain;
            return;
        }
        loop {
            debug_assert_ne!(cur, NIL, "slot {slot} missing from its chain");
            let next = self.slots[cur as usize].chain;
            if next == slot {
                self.slots[cur as usize].chain = chain;
                return;
            }
            cur = next;
        }
    }

    /// A slot holding the minimum count, with that count. O(1).
    ///
    /// Among tied minima the most recently attached slot is returned (bucket
    /// member lists are LIFO) — a deterministic tie-break, but a different one
    /// from the seed scan's table order.
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

    /// Detaches and frees every slot, emptying every chain. Capacity is
    /// retained; never allocates.
    pub fn clear(&mut self) {
        if self.len == 0 && self.claimed == 0 {
            return;
        }
        self.slots.fill(EMPTY_SLOT);
        self.heads.fill(NIL);
        self.claimed = 0;
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
        let record = &mut self.slots[slot];
        record.bucket = target;
        record.prev = NIL;
        record.next = head;
        if head != NIL {
            self.slots[head as usize].prev = slot as u32;
        }
        self.buckets[target as usize].head = slot as u32;
    }

    /// Unlinks `slot` from bucket `b`, freeing the bucket if it empties. Returns
    /// the hint described in [`CountSummary::detach`].
    #[inline]
    fn unlink_slot(&mut self, b: u32, slot: usize) -> u32 {
        let Slot { prev, next, .. } = self.slots[slot];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.buckets[b as usize].head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
        // The bucket links only: the row and chain link stay.
        let record = &mut self.slots[slot];
        record.bucket = NIL;
        record.prev = NIL;
        record.next = NIL;
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
    /// slot reachable exactly once, and the node pool conserved. On the chains:
    /// every claimed slot is attached and reachable exactly once, from the head
    /// its row hashes to, no row is claimed twice, and no free slot is
    /// reachable.
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
        self.validate_chains();
    }

    /// The chain half of [`CountSummary::validate`].
    fn validate_chains(&self) {
        let claimed = self.claimed as usize;
        assert!(claimed <= self.slots.len(), "claimed past the last slot");
        let mut chained = vec![false; claimed];
        for (h, &head) in self.heads.iter().enumerate() {
            let mut s = head;
            while s != NIL {
                let i = s as usize;
                assert!(i < claimed, "free slot {i} is reachable from chain {h}");
                // A revisit also catches a cycle.
                assert!(
                    !std::mem::replace(&mut chained[i], true),
                    "slot {i} is reachable twice"
                );
                let row = self.slots[i].row;
                assert_eq!(
                    self.chain_of(row),
                    h,
                    "slot {i} (row {row}) hangs off the wrong chain"
                );
                s = self.slots[i].chain;
            }
        }
        for (i, &reached) in chained.iter().enumerate() {
            assert!(reached, "claimed slot {i} is unreachable from its chain");
            assert_ne!(self.slots[i].bucket, NIL, "claimed slot {i} has no count");
        }
        let mut rows: Vec<RowId> = self.slots[..claimed].iter().map(|s| s.row).collect();
        rows.sort_unstable();
        if let Some(pair) = rows.windows(2).find(|pair| pair[0] == pair[1]) {
            panic!("row {} is claimed twice", pair[0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Claims `row` off the free slots and attaches it at `count`, as the
    /// trackers do.
    fn claim(s: &mut CountSummary, row: RowId, count: u64) -> usize {
        let slot = s.claim_free(row).expect("a free slot");
        s.attach(slot, count);
        slot
    }

    #[test]
    fn claim_find_rechain_roundtrip() {
        let mut s = CountSummary::new(8);
        assert_eq!(claim(&mut s, 100, 1), 0);
        assert_eq!(claim(&mut s, 200, 2), 1);
        s.validate();
        assert_eq!(s.find(100), Some(0));
        assert_eq!(s.find(200), Some(1));
        assert_eq!(s.find(300), None);
        s.rechain(0, 300);
        s.validate();
        assert_eq!(s.find(100), None);
        assert_eq!(s.find(300), Some(0));
        assert_eq!(s.row_of(0), 300);
        assert_eq!(s.count_of(0), Some(1), "a rechain keeps the count");
        assert_eq!(s.find(200), Some(1));
    }

    #[test]
    fn colliding_rows_survive_middle_unchain() {
        // One chain head: every row collides, and each victim position is in
        // turn the chain's head, a middle link and its tail.
        let mut s = CountSummary::with_chain_heads(8, 1);
        let rows: Vec<RowId> = (0..6).map(|i| 5 + i * 16 * 7).collect();
        for (slot, &row) in rows.iter().enumerate() {
            assert_eq!(claim(&mut s, row, slot as u64), slot);
        }
        for victim in 0..rows.len() {
            let mut s = s.clone();
            s.rechain(victim, 9_999);
            s.validate();
            assert_eq!(s.find(9_999), Some(victim));
            for (slot, &row) in rows.iter().enumerate() {
                let expected = (slot != victim).then_some(slot);
                assert_eq!(s.find(row), expected, "victim {victim} row {row}");
            }
        }
    }

    #[test]
    fn free_slots_are_never_found() {
        // There is no sentinel row: free slots hold a stale row 0 but hang off
        // no chain, and `RowId::MAX` is an ordinary row.
        let mut s = CountSummary::new(8);
        assert_eq!(s.find(0), None);
        assert_eq!(claim(&mut s, RowId::MAX, 1), 0);
        assert_eq!(s.find(RowId::MAX), Some(0));
        assert_eq!(s.find(0), None);
        s.validate();
    }

    #[test]
    fn clear_unchains_every_row() {
        let mut s = CountSummary::new(32);
        for row in 0..32u32 {
            claim(&mut s, row * 3 + 1, u64::from(row));
        }
        s.clear();
        s.validate();
        assert!(s.is_empty());
        for row in 0..32u32 {
            assert_eq!(s.find(row * 3 + 1), None);
        }
        // The free slots come back in id order.
        assert_eq!(claim(&mut s, 7, 0), 0);
        assert_eq!(claim(&mut s, 8, 0), 1);
    }

    #[test]
    fn churn_rechain_cycles() {
        // Eviction-heavy usage: a full table evicts its minimum for a new row
        // on every step, like a Misra-Gries table on a miss-heavy stream.
        let mut s = CountSummary::with_chain_heads(4, 2);
        for (slot, row) in (10..14u32).enumerate() {
            claim(&mut s, row, slot as u64);
        }
        for round in 0..10_000u32 {
            let (slot, count) = s.min().unwrap();
            let old = s.row_of(slot);
            let new = 14 + round;
            assert_eq!(s.evict_min_if_at_most(count, count + 4), Some(slot));
            s.rechain(slot, new);
            assert_eq!(s.find(old), None, "round {round}: {old} still found");
            assert_eq!(s.find(new), Some(slot));
            assert_eq!(s.len(), 4);
            if round % 512 == 0 {
                s.validate();
            }
        }
        s.validate();
    }

    #[test]
    fn claiming_past_the_last_free_slot_fails() {
        let mut s = CountSummary::new(4);
        for row in 0..4u32 {
            claim(&mut s, row, 0);
        }
        assert_eq!(s.claim_free(4), None);
        s.validate();
    }
}
