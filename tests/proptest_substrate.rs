//! Property-based tests on the substrate data structures: bit arrays,
//! segmentations, the ownership function, frequency tables, and decision
//! trees.

use dr_download::core::{BitArray, PartialArray, PeerId, SegmentId, Segmentation};
use dr_download::protocols::{owner, DecisionTree, FrequencyTable};
use proptest::prelude::*;

fn arb_bits(max_len: usize) -> impl Strategy<Value = BitArray> {
    prop::collection::vec(any::<bool>(), 1..max_len).prop_map(|v| BitArray::from_bools(&v))
}

proptest! {
    #[test]
    fn bitarray_roundtrip_through_slices(bits in arb_bits(512), split in 0usize..512) {
        let split = split % (bits.len() + 1);
        let left = bits.slice(0..split);
        let right = bits.slice(split..bits.len());
        let mut rebuilt = BitArray::zeros(bits.len());
        rebuilt.write_at(0, &left);
        rebuilt.write_at(split, &right);
        prop_assert_eq!(rebuilt, bits);
    }

    #[test]
    fn copy_range_matches_bit_by_bit_model(
        dst in arb_bits(300),
        src in arb_bits(300),
        dst_off in 0usize..300,
        start in 0usize..300,
        len in 0usize..300,
    ) {
        // Clamp to valid (possibly empty, possibly word-straddling) bounds.
        let start = start % src.len();
        let len = len.min(src.len() - start).min(dst.len().saturating_sub(dst_off % dst.len()));
        let dst_off = dst_off % dst.len();
        let mut fast = dst.clone();
        fast.copy_range(dst_off, &src, start..start + len);
        let model = BitArray::from_fn(dst.len(), |i| {
            if i >= dst_off && i < dst_off + len {
                src.get(start + (i - dst_off))
            } else {
                dst.get(i)
            }
        });
        prop_assert_eq!(&fast, &model);
        // Last-word zero-padding invariant: equal arrays must also agree
        // on the packed words, including the padded tail.
        for w in 0..fast.word_count() {
            prop_assert_eq!(fast.word(w), model.word(w));
        }
        let tail = fast.len() % 64;
        if tail != 0 {
            prop_assert_eq!(fast.word(fast.word_count() - 1) >> tail, 0);
        }
    }

    #[test]
    fn or_assign_matches_bit_by_bit_model(a in arb_bits(300), b in arb_bits(300)) {
        let n = a.len().min(b.len());
        let (a, b) = (a.slice(0..n), b.slice(0..n));
        let mut fast = a.clone();
        fast.or_assign(&b);
        prop_assert_eq!(&fast, &BitArray::from_fn(n, |i| a.get(i) | b.get(i)));
        let tail = n % 64;
        if tail != 0 {
            prop_assert_eq!(fast.word(fast.word_count() - 1) >> tail, 0);
        }
    }

    #[test]
    fn learn_slice_matches_bit_by_bit_model(
        n in 1usize..300,
        prelearn in prop::collection::vec((0usize..300, any::<bool>()), 0..40),
        payload in arb_bits(300),
        offset in 0usize..300,
    ) {
        let mut fast = PartialArray::new(n);
        let mut slow = PartialArray::new(n);
        for &(j, v) in &prelearn {
            fast.learn(j % n, v);
            slow.learn(j % n, v);
        }
        let offset = offset % n;
        let len = payload.len().min(n - offset);
        let payload = payload.slice(0..len);
        fast.learn_slice(offset, &payload);
        for i in 0..len {
            slow.learn(offset + i, payload.get(i));
        }
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(fast.unknown_count(), slow.unknown_count());
        let fast_unknown: Vec<usize> = fast.unknown_iter().collect();
        let slow_unknown: Vec<usize> = (0..n).filter(|&i| !slow.is_known(i)).collect();
        prop_assert_eq!(fast_unknown, slow_unknown);
    }

    #[test]
    fn merge_matches_bit_by_bit_model(
        n in 1usize..300,
        a_bits in prop::collection::vec((0usize..300, any::<bool>()), 0..60),
        b_bits in prop::collection::vec((0usize..300, any::<bool>()), 0..60),
    ) {
        let mut a = PartialArray::new(n);
        let mut b = PartialArray::new(n);
        for &(j, v) in &a_bits {
            a.learn(j % n, v);
        }
        for &(j, v) in &b_bits {
            b.learn(j % n, v);
        }
        let mut fast = a.clone();
        fast.merge(&b);
        let mut slow = a.clone();
        for i in 0..n {
            if let Some(v) = b.get(i) {
                slow.learn(i, v);
            }
        }
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(fast.unknown_count(), slow.unknown_count());
    }

    #[test]
    fn first_difference_is_symmetric_and_correct(a in arb_bits(256), flips in prop::collection::vec(0usize..256, 0..4)) {
        let mut b = a.clone();
        for &j in &flips {
            if j < b.len() {
                b.flip(j);
            }
        }
        match a.first_difference(&b) {
            None => {
                prop_assert_eq!(&a, &b);
            }
            Some(i) => {
                prop_assert_ne!(a.get(i), b.get(i));
                for j in 0..i {
                    prop_assert_eq!(a.get(j), b.get(j));
                }
                prop_assert_eq!(b.first_difference(&a), Some(i));
            }
        }
    }

    #[test]
    fn partial_array_learning_is_monotone(
        values in arb_bits(256),
        order in prop::collection::vec(0usize..256, 1..256),
    ) {
        let mut p = PartialArray::new(values.len());
        let mut known = 0usize;
        for &raw in &order {
            let j = raw % values.len();
            let newly = !p.is_known(j);
            p.learn(j, values.get(j));
            if newly {
                known += 1;
            }
            prop_assert_eq!(p.unknown_count(), values.len() - known);
            prop_assert_eq!(p.get(j), Some(values.get(j)));
        }
    }

    #[test]
    fn segmentation_tiles_and_nests(n in 2usize..5000, count_exp in 1u32..6) {
        let count = (1usize << count_exp).min(n);
        let seg = Segmentation::new(n, count);
        // Tiles exactly.
        let mut covered = 0;
        for id in seg.ids() {
            let r = seg.range(id);
            prop_assert_eq!(r.start, covered);
            prop_assert!(!r.is_empty());
            covered = r.end;
        }
        prop_assert_eq!(covered, n);
        // Nests under halving.
        if count >= 2 && count % 2 == 0 {
            let coarse = Segmentation::new(n, count / 2);
            for i in 0..count / 2 {
                let parent = coarse.range(SegmentId(i));
                let l = seg.range(SegmentId(2 * i));
                let r = seg.range(SegmentId(2 * i + 1));
                prop_assert_eq!(parent.start, l.start);
                prop_assert_eq!(l.end, r.start);
                prop_assert_eq!(r.end, parent.end);
            }
        }
    }

    #[test]
    fn owner_is_a_valid_peer_and_deterministic(j in 0usize..1_000_000, phase in 1usize..40, k in 1usize..300) {
        let o = owner(j, phase, k);
        prop_assert!(o < k);
        prop_assert_eq!(o, owner(j, phase, k));
    }

    #[test]
    fn decision_tree_always_recovers_a_present_truth(
        strings in prop::collection::vec(prop::collection::vec(any::<bool>(), 8), 1..12),
        truth_idx in 0usize..12,
    ) {
        let set: Vec<BitArray> = strings.iter().map(|s| BitArray::from_bools(s)).collect();
        let truth = &set[truth_idx % set.len()];
        let tree = DecisionTree::build(&set);
        let mut queries = 0usize;
        let out = tree.determine(0..8, &mut |j| {
            queries += 1;
            truth.get(j)
        }).expect("non-empty set");
        prop_assert_eq!(&out, truth);
        // Cost bound of Protocol 3: at most |distinct strings| − 1 queries.
        prop_assert!(queries <= tree.leaves().saturating_sub(1));
        prop_assert_eq!(tree.internal_nodes(), tree.leaves() - 1);
    }

    #[test]
    fn frequency_threshold_bounds_spam(
        claims in prop::collection::vec((0usize..40, any::<bool>()), 1..120),
        tau in 1usize..6,
    ) {
        // Each distinct sender contributes at most one claim; at most
        // senders/τ strings can become τ-frequent.
        let mut table = FrequencyTable::new(40, 1);
        let mut senders = std::collections::HashSet::new();
        for (i, (sender, bit)) in claims.iter().enumerate() {
            let counted = table.record(
                PeerId(*sender),
                SegmentId(0),
                BitArray::from_bools(&[*bit, i % 2 == 0].map(|b| b)),
            );
            if counted {
                senders.insert(*sender);
            }
        }
        let frequent = table.frequent(SegmentId(0), tau);
        prop_assert!(frequent.len() <= senders.len() / tau);
    }
}
