//! τ-frequent strings (§3.4.1).
//!
//! In the randomized Byzantine protocols, peers broadcast
//! `(segment, string)` claims. Byzantine peers can flood arbitrary strings,
//! so a receiver only considers strings it received from at least `τ`
//! *distinct* senders — the τ-frequent strings. Since each peer sends at
//! most one claim per segment per cycle, at most `k/τ` distinct strings can
//! become frequent in total, which bounds the decision-tree work no matter
//! what the adversary injects.
//!
//! # Claim cost
//!
//! The table is sized at construction for `k` senders and a fixed number
//! of segments, and it validates before it counts: a claim from a sender
//! index `≥ k` or for a segment index out of range returns `false`,
//! allocates nothing and changes no state. A valid claim costs O(1)
//! bookkeeping (one bit of a flat `segments × k` bitset for the
//! first-claim-wins rule, one bit of a `k`-bit sender set) plus a scan of
//! the segment's distinct strings so far, most frequent first. Each step
//! of the scan is one `==`, which stops at the first differing word, and
//! at once when both claims share one buffer. Once the true string leads
//! its segment's count it is compared first, so an honest claim costs one
//! equality check of the `ℓ`-bit string. An adversary that sends strings
//! agreeing with the truth up to their last word makes a claim cost up to
//! one full compare per distinct string of the segment; there are at most
//! as many of those as senders that claimed it. [`FrequencyTable::frequent`]
//! sorts only the strings that pass the threshold.

use dr_core::{BitArray, PeerId, SegmentId};

/// Accumulates `(segment, string)` claims by sender and extracts the
/// τ-frequent strings per segment.
///
/// Duplicate claims by the same sender for the same segment are ignored
/// (first claim wins), so a single Byzantine peer cannot inflate a
/// string's frequency.
///
/// # Examples
///
/// ```
/// use dr_core::{BitArray, PeerId, SegmentId};
/// use dr_protocols::byz::FrequencyTable;
///
/// // Senders 0..2, segments 0..4.
/// let mut table = FrequencyTable::new(2, 4);
/// let s = BitArray::from_bools(&[true, false]);
/// table.record(PeerId(0), SegmentId(3), s.clone());
/// table.record(PeerId(1), SegmentId(3), s.clone());
/// table.record(PeerId(1), SegmentId(3), BitArray::from_bools(&[false, false])); // dup sender
/// assert!(!table.record(PeerId(2), SegmentId(3), s.clone())); // sender out of range
/// assert_eq!(table.frequent(SegmentId(3), 2), vec![s]);
/// assert!(table.frequent(SegmentId(3), 3).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyTable {
    /// Number of senders (peer indices `0..k`).
    k: usize,
    /// Bit `segment·k + sender` is set once that sender's claim for that
    /// segment was counted.
    claimed: Vec<u64>,
    /// Per segment: every distinct string with its distinct-sender count,
    /// in non-increasing count order.
    strings: Vec<Vec<(BitArray, usize)>>,
    /// Bit `sender` is set once the sender has a counted claim.
    senders: Vec<u64>,
    distinct_senders: usize,
}

/// Sets bit `i` of `words`; returns whether it was clear.
#[inline]
fn set_bit(words: &mut [u64], i: usize) -> bool {
    let (w, bit) = (i / 64, 1u64 << (i % 64));
    let fresh = words[w] & bit == 0;
    words[w] |= bit;
    fresh
}

impl FrequencyTable {
    /// Creates an empty table for claims by senders `0..k` about segments
    /// `0..segments`. Its fixed part is `segments·k + k` bits.
    ///
    /// # Panics
    ///
    /// Panics if `segments·k` overflows `usize`.
    pub fn new(k: usize, segments: usize) -> Self {
        let pairs = segments
            .checked_mul(k)
            .expect("segments × senders fits in usize");
        FrequencyTable {
            k,
            claimed: vec![0; pairs.div_ceil(64)],
            strings: vec![Vec::new(); segments],
            senders: vec![0; k.div_ceil(64)],
            distinct_senders: 0,
        }
    }

    /// Records a claim. Returns `true` if this was the sender's first
    /// claim for the segment (and was therefore counted); a sender or
    /// segment out of the table's range returns `false` and is ignored.
    pub fn record(&mut self, sender: PeerId, segment: SegmentId, string: BitArray) -> bool {
        let (p, s) = (sender.index(), segment.index());
        if p >= self.k || s >= self.strings.len() || !set_bit(&mut self.claimed, s * self.k + p) {
            return false;
        }
        if set_bit(&mut self.senders, p) {
            self.distinct_senders += 1;
        }
        let entries = &mut self.strings[s];
        match entries.iter().position(|(t, _)| *t == string) {
            Some(mut i) => {
                entries[i].1 += 1;
                // Restore the count order, so that the most frequent
                // string is the first one the next claim compares with.
                while i > 0 && entries[i - 1].1 < entries[i].1 {
                    entries.swap(i - 1, i);
                    i -= 1;
                }
            }
            None => entries.push((string, 1)),
        }
        true
    }

    /// The `Freq(S, τ)` operator of the paper: every string for `segment`
    /// recorded by at least `threshold` distinct senders, in ascending
    /// bit-lexicographic order (`BitArray`'s `Ord`).
    pub fn frequent(&self, segment: SegmentId, threshold: usize) -> Vec<BitArray> {
        let mut out: Vec<BitArray> = self
            .entries(segment)
            .iter()
            .take_while(|(_, c)| *c >= threshold)
            .map(|(s, _)| s.clone())
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of distinct strings recorded for `segment` (frequent or not).
    pub fn distinct(&self, segment: SegmentId) -> usize {
        self.entries(segment).len()
    }

    /// Total number of claims recorded for `segment` (the paper's `R_i`).
    pub fn received(&self, segment: SegmentId) -> usize {
        self.entries(segment).iter().map(|(_, c)| c).sum()
    }

    /// Number of distinct peers that have made at least one claim.
    pub fn distinct_senders(&self) -> usize {
        self.distinct_senders
    }

    fn entries(&self, segment: SegmentId) -> &[(BitArray, usize)] {
        self.strings.get(segment.index()).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::collections::{DetMap, DetSet};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn s(bits: &[bool]) -> BitArray {
        BitArray::from_bools(bits)
    }

    #[test]
    fn counts_distinct_senders_only() {
        let mut t = FrequencyTable::new(16, 16);
        let a = s(&[true]);
        assert!(t.record(PeerId(0), SegmentId(0), a.clone()));
        assert!(!t.record(PeerId(0), SegmentId(0), a.clone()));
        assert!(t.record(PeerId(1), SegmentId(0), a.clone()));
        assert_eq!(t.received(SegmentId(0)), 2);
        assert_eq!(t.frequent(SegmentId(0), 2), vec![a]);
    }

    #[test]
    fn equivocation_across_segments_is_allowed() {
        // The same sender may claim different segments (multi-cycle use).
        let mut t = FrequencyTable::new(16, 16);
        assert!(t.record(PeerId(0), SegmentId(0), s(&[true])));
        assert!(t.record(PeerId(0), SegmentId(1), s(&[false])));
        assert_eq!(t.distinct_senders(), 1);
    }

    #[test]
    fn threshold_filters_rare_strings() {
        let mut t = FrequencyTable::new(16, 16);
        for p in 0..5 {
            t.record(PeerId(p), SegmentId(2), s(&[true, true]));
        }
        for p in 5..7 {
            t.record(PeerId(p), SegmentId(2), s(&[false, false]));
        }
        assert_eq!(t.frequent(SegmentId(2), 3), vec![s(&[true, true])]);
        let both = t.frequent(SegmentId(2), 2);
        assert_eq!(both.len(), 2);
        assert_eq!(t.distinct(SegmentId(2)), 2);
    }

    #[test]
    fn spam_bound_holds() {
        // b Byzantine senders can create at most b/τ frequent fake strings.
        let mut t = FrequencyTable::new(16, 16);
        let tau = 3;
        let b = 10;
        // Adversary coordinates groups of τ senders per fake string.
        for (i, p) in (0..b).enumerate() {
            let fake = s(&[i / tau == 0, i / tau == 1, i / tau == 2, true]);
            t.record(PeerId(p), SegmentId(9), fake);
        }
        let frequent = t.frequent(SegmentId(9), tau);
        assert!(frequent.len() <= b / tau);
    }

    #[test]
    fn empty_segment_has_no_frequent_strings() {
        let t = FrequencyTable::new(16, 16);
        assert!(t.frequent(SegmentId(4), 1).is_empty());
        assert_eq!(t.received(SegmentId(4)), 0);
    }

    #[test]
    fn out_of_range_claims_change_nothing() {
        let mut t = FrequencyTable::new(3, 2);
        assert!(t.record(PeerId(2), SegmentId(1), s(&[true])));
        let before = t.clone();
        assert!(!t.record(PeerId(3), SegmentId(0), s(&[true])));
        assert!(!t.record(PeerId(0), SegmentId(2), s(&[true])));
        assert!(!t.record(PeerId(usize::MAX), SegmentId(usize::MAX), s(&[])));
        assert_eq!(t, before);
        assert!(t.frequent(SegmentId(2), 0).is_empty());
    }

    #[test]
    fn frequent_sorts_survivors_whatever_their_counts() {
        // Arrival and count order both disagree with `BitArray::Ord`.
        let mut t = FrequencyTable::new(8, 1);
        let (hi, lo) = (s(&[true, true]), s(&[false, true]));
        for p in 0..3 {
            t.record(PeerId(p), SegmentId(0), hi.clone());
        }
        for p in 3..5 {
            t.record(PeerId(p), SegmentId(0), lo.clone());
        }
        assert_eq!(t.frequent(SegmentId(0), 2), vec![lo, hi]);
    }

    /// The table as it was before the flat layout: `BTreeMap`s keyed by
    /// `BitArray` and a `BTreeSet` of (sender, segment) pairs, with no
    /// bounds. Kept as the oracle for the flat table.
    #[derive(Default)]
    struct ModelTable {
        counts: DetMap<SegmentId, DetMap<BitArray, usize>>,
        seen: DetSet<(PeerId, SegmentId)>,
        senders: DetMap<PeerId, usize>,
    }

    impl ModelTable {
        fn record(&mut self, sender: PeerId, segment: SegmentId, string: BitArray) -> bool {
            if !self.seen.insert((sender, segment)) {
                return false;
            }
            *self
                .counts
                .entry(segment)
                .or_default()
                .entry(string)
                .or_insert(0) += 1;
            *self.senders.entry(sender).or_insert(0) += 1;
            true
        }

        fn frequent(&self, segment: SegmentId, threshold: usize) -> Vec<BitArray> {
            self.counts
                .get(&segment)
                .map(|m| {
                    m.iter()
                        .filter(|(_, &c)| c >= threshold)
                        .map(|(s, _)| s.clone())
                        .collect()
                })
                .unwrap_or_default()
        }

        fn distinct(&self, segment: SegmentId) -> usize {
            self.counts.get(&segment).map_or(0, |m| m.len())
        }

        fn received(&self, segment: SegmentId) -> usize {
            self.counts.get(&segment).map_or(0, |m| m.values().sum())
        }
    }

    /// Strings that stress `==` and `Ord`: a random base, copies of it
    /// that differ only in the first or the last bit, a proper prefix, an
    /// extension, and an unrelated string.
    fn pool(len: usize, seed: u64) -> Vec<BitArray> {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = BitArray::random(len, &mut rng);
        let mut first = base.clone();
        let mut last = base.clone();
        if len > 0 {
            first.flip(0);
            last.flip(len - 1);
        }
        let mut longer = BitArray::zeros(len + 1);
        longer.write_at(0, &base);
        vec![
            base.clone(),
            first,
            last,
            base.slice(0..len / 2),
            longer,
            BitArray::random(len, &mut rng),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The flat table agrees with the BTree model on every query
        /// after every claim: repeated (sender, segment) pairs, equal
        /// strings in distinct buffers, one sender across segments, and
        /// out-of-range senders or segments, which change no state.
        #[test]
        fn flat_table_matches_btree_model(
            k in 1usize..10,
            segments in 1usize..5,
            len in 0usize..200,
            seed in any::<u64>(),
            claims in prop::collection::vec(
                (0usize..12, 0usize..6, 0usize..6, any::<bool>()),
                0..60,
            ),
        ) {
            let strings = pool(len, seed);
            let mut table = FrequencyTable::new(k, segments);
            let mut model = ModelTable::default();
            for (p, seg, which, deep) in claims {
                let string = if deep {
                    strings[which].deep_clone()
                } else {
                    strings[which].clone()
                };
                let (sender, segment) = (PeerId(p), SegmentId(seg));
                if p >= k || seg >= segments {
                    let before = table.clone();
                    prop_assert!(!table.record(sender, segment, string));
                    prop_assert_eq!(&table, &before);
                    continue;
                }
                prop_assert_eq!(
                    table.record(sender, segment, string.clone()),
                    model.record(sender, segment, string)
                );
                for seg in (0..segments + 2).map(SegmentId) {
                    for tau in 0..4 {
                        prop_assert_eq!(table.frequent(seg, tau), model.frequent(seg, tau));
                    }
                    prop_assert_eq!(table.distinct(seg), model.distinct(seg));
                    prop_assert_eq!(table.received(seg), model.received(seg));
                }
                prop_assert_eq!(table.distinct_senders(), model.senders.len());
            }
        }
    }
}
