//! Iteration-order property tests: protocol state built from the same
//! facts in *any* insertion order must behave identically, and full runs
//! must fingerprint identically on re-execution.
//!
//! These are the regression guards behind the ordered-collection sweep
//! (`dr-lint` rule `unordered-collections`): before it, `HashMap` state
//! in the committee tally and the τ-frequent table meant a per-instance
//! random hash seed sat one iteration away from replay divergence.

use dr_core::{BitArray, Context, PeerId, Protocol, SegmentId};
use dr_protocols::byz::{memberships, FrequencyTable, VoteBatch};
use dr_protocols::{CommitteeDownload, TwoCycleDownload};
use dr_sim::SimBuilder;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngCore, SeedableRng};

/// Deterministic Fisher–Yates permutation of `items` from a `u64` seed
/// (the vendored proptest has no `prop_shuffle`, so we roll our own).
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<T> = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// Minimal honest context: answers queries from a fixed input, drops
/// outgoing messages, seeds the RNG from the peer ID.
struct FixedCtx {
    me: PeerId,
    k: usize,
    input: BitArray,
    rng: StdRng,
}

impl<M: dr_core::ProtocolMessage> Context<M> for FixedCtx {
    fn me(&self) -> PeerId {
        self.me
    }
    fn num_peers(&self) -> usize {
        self.k
    }
    fn input_len(&self) -> usize {
        self.input.len()
    }
    fn send(&mut self, _to: PeerId, _msg: M) {}
    fn query(&mut self, index: usize) -> bool {
        self.input.get(index)
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

/// A truthful vote batch for `sender`: its committee bits in ascending
/// index order, read straight from the input.
fn truthful_batch(sender: PeerId, input: &BitArray, k: usize, c: usize) -> VoteBatch {
    let values: Vec<bool> = memberships(sender, input.len(), k, c)
        .map(|j| input.get(j))
        .collect();
    VoteBatch {
        values: BitArray::from_bools(&values),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frequency_table_is_insertion_order_invariant(
        claims in prop::collection::vec(
            (0usize..12, 0usize..6, 0u8..5, any::<bool>()),
            1..60,
        ),
        perm_seed in any::<u64>(),
        threshold in 1usize..5,
    ) {
        // Dedupe on (sender, segment): the table's first-claim-wins rule
        // means duplicate pairs are genuinely order-dependent — the
        // *protocol* only ever feeds one claim per (sender, segment).
        let mut unique: Vec<(PeerId, SegmentId, BitArray)> = Vec::new();
        for (sender, segment, shape, bit) in claims {
            let sender = PeerId(sender);
            let segment = SegmentId(segment);
            if unique.iter().any(|(p, s, _)| *p == sender && *s == segment) {
                continue;
            }
            let string = BitArray::from_fn(4, |i| (i as u8) < shape || bit);
            unique.push((sender, segment, string));
        }

        let mut forward = FrequencyTable::new(12, 6);
        for (p, s, b) in &unique {
            forward.record(*p, *s, b.clone());
        }
        let mut permuted = FrequencyTable::new(12, 6);
        for (p, s, b) in shuffled(&unique, perm_seed) {
            permuted.record(p, s, b);
        }

        for seg in 0..6 {
            let seg = SegmentId(seg);
            prop_assert_eq!(forward.frequent(seg, threshold), permuted.frequent(seg, threshold));
            prop_assert_eq!(forward.distinct(seg), permuted.distinct(seg));
            prop_assert_eq!(forward.received(seg), permuted.received(seg));
        }
        prop_assert_eq!(forward.distinct_senders(), permuted.distinct_senders());
    }

    #[test]
    fn committee_tally_is_delivery_order_invariant(
        input_seed in any::<u64>(),
        perm_seed in any::<u64>(),
        t in 0usize..3,
    ) {
        let (n, k) = (40usize, 7usize);
        let c = 2 * t + 1;
        let input = BitArray::from_fn(n, |i| (input_seed >> (i % 64)) & 1 == 1);
        let batches: Vec<(PeerId, VoteBatch)> = (0..k)
            .map(PeerId)
            .map(|p| (p, truthful_batch(p, &input, k, c)))
            .collect();

        let run = |order: &[(PeerId, VoteBatch)]| {
            let mut proto = CommitteeDownload::new(n, k, t);
            let mut ctx = FixedCtx {
                me: PeerId(k - 1),
                k,
                input: input.clone(),
                rng: StdRng::seed_from_u64(1),
            };
            proto.on_start(&mut ctx);
            for (from, batch) in order {
                proto.on_message(*from, batch.clone(), &mut ctx);
            }
            proto.output().cloned()
        };

        let forward = run(&batches);
        let permuted = run(&shuffled(&batches, perm_seed));
        prop_assert_eq!(forward.clone(), permuted);
        prop_assert_eq!(forward, Some(input));
    }

    #[test]
    fn committee_run_fingerprint_is_reproducible(seed in any::<u64>(), t in 0usize..3) {
        // Two fresh executions of the same seeded simulation must agree
        // bit-for-bit. Before the ordered-collection sweep, every map in
        // protocol state carried a fresh random hash seed per run — any
        // iteration-order leak shows up here as a fingerprint mismatch.
        let (n, k) = (48usize, 5usize);
        let fp = |seed| {
            let sim = SimBuilder::new(dr_core::ModelParams::builder(n, k)
                    .faults(dr_core::FaultModel::Byzantine, t)
                    .build()
                    .unwrap())
                .seed(seed)
                .protocol(move |_| CommitteeDownload::new(n, k, t))
                .build();
            let input = sim.input().clone();
            let report = sim.run().unwrap();
            report.verify_downloads(&input).unwrap();
            report.fingerprint()
        };
        prop_assert_eq!(fp(seed), fp(seed));
    }

    #[test]
    fn two_cycle_run_fingerprint_is_reproducible(seed in any::<u64>(), b in 0usize..3) {
        // The 2-cycle protocol exercises the τ-frequent table (the
        // "frequent-element" state) on every honest peer.
        let (n, k) = (192usize, 7usize);
        let fp = |seed| {
            let sim = SimBuilder::new(dr_core::ModelParams::builder(n, k)
                    .faults(dr_core::FaultModel::Byzantine, b)
                    .build()
                    .unwrap())
                .seed(seed)
                .protocol(move |_| TwoCycleDownload::new(n, k, b))
                .build();
            let input = sim.input().clone();
            let report = sim.run().unwrap();
            report.verify_downloads(&input).unwrap();
            report.fingerprint()
        };
        prop_assert_eq!(fp(seed), fp(seed));
    }
}
