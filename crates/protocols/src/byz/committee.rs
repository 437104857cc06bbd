//! Deterministic Byzantine Download via committees (§3.3, Theorem 3.4).
//!
//! For `β < 1/2` (i.e. `t = b < k/2` Byzantine peers), a committee of
//! `2t + 1` peers is assigned to every input bit in round-robin order.
//! Each committee member queries its bit and broadcasts `(index, value)`;
//! a peer accepts value `x` for bit `j` once `t + 1` *distinct committee
//! members of* `C_j` reported `x` — at least one of them is honest, so
//! `x = X[j]`, and since at least `t + 1` committee members are honest,
//! every peer eventually accepts every bit. Byzantine members can lie or
//! stay silent but can never assemble `t + 1` votes for a wrong value.
//!
//! `Q = ⌈n(2t+1)/k⌉` per peer and `M = O(k · n(2t+1)/k) = O(nt)` vote
//! messages (batched into one physical message per recipient here, sized
//! accordingly).
//!
//! # Tally cost
//!
//! Committee membership repeats with period `k / gcd(c, k)` in the bit
//! index, so [`memberships`] walks a sender's bit set straight from one
//! in-period offset pattern: decoding and tallying a batch costs
//! `O(n·c/k)`, never a scan of all `n` bits. Votes land in a flat
//! per-bit count of distinct voters for each value. Distinctness is kept
//! by one dedupe bitset per (sender, value), indexed by the vote's
//! position in the sender's batch, so a repeated or contradictory batch
//! counts each sender at most once per (bit, value). That dedupe costs
//! `2·n·c` bits per peer once every sender has been heard from, beside
//! `8·n` bytes of counts.

use dr_core::{BitArray, Context, PeerId, Protocol, ProtocolMessage};

/// A batch of committee votes: a packed bitmap of the sender's claimed
/// values over its committee-membership bit set, in increasing index
/// order. The membership set is structural (round-robin), so the receiver
/// reconstructs the indices locally — messages carry `n·c/k` payload bits
/// instead of 65 bits per vote.
#[derive(Debug, Clone)]
pub struct VoteBatch {
    /// Claimed values for the sender's committee bits, ascending by index.
    pub values: BitArray,
}

impl ProtocolMessage for VoteBatch {
    fn bit_len(&self) -> usize {
        self.values.len()
    }
}

/// The committee of bit `j` for `k` peers and committee size `c`:
/// peers `(j·c + l) mod k` for `l = 0..c` (round-robin, so each peer sits
/// on at most `⌈n·c/k⌉` committees).
pub fn committee(j: usize, k: usize, c: usize) -> impl Iterator<Item = PeerId> {
    (0..c).map(move |l| PeerId((j * c + l) % k))
}

/// O(1) membership test for [`committee`]: `peer ∈ C_j` iff
/// `(peer − j·c) mod k < c`.
pub fn in_committee(j: usize, k: usize, c: usize, peer: PeerId) -> bool {
    let start = (j * c) % k;
    let off = (peer.index() + k - start) % k;
    off < c.min(k)
}

/// The bits `j < n` whose committee contains `peer` (for `peer < k`),
/// ascending — the same set as `(0..n).filter(|&j| in_committee(j, k, c,
/// peer))`, which is also the order of a [`VoteBatch`].
///
/// `j·c mod k` repeats with period `k / gcd(c, k)`, so one in-period
/// offset pattern is found by testing at most that many indices, and the
/// iterator then steps period by period: `O(min(n, k) + n·c/k)` in all.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn memberships(
    peer: PeerId,
    n: usize,
    k: usize,
    c: usize,
) -> impl ExactSizeIterator<Item = usize> {
    let period = k / gcd(c, k);
    let pattern: Vec<usize> = (0..period.min(n))
        .filter(|&o| in_committee(o, k, c, peer))
        .collect();
    let len = if pattern.is_empty() {
        0
    } else {
        (n / period) * pattern.len() + pattern.partition_point(|&o| o < n % period)
    };
    Memberships {
        pattern,
        period,
        base: 0,
        next: 0,
        left: len,
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Iterator behind [`memberships`]: yields `base + pattern[next]`,
/// moving `base` on by one period each time the pattern wraps.
struct Memberships {
    pattern: Vec<usize>,
    period: usize,
    base: usize,
    next: usize,
    left: usize,
}

impl Iterator for Memberships {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let j = self.base + self.pattern[self.next];
        self.next += 1;
        if self.next == self.pattern.len() {
            self.next = 0;
            self.base += self.period;
        }
        Some(j)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    /// Internal iteration as two plain nested loops (period, offset),
    /// which is what `for_each` and the tally loop compile down to.
    fn fold<B, F: FnMut(B, usize) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        while self.left > 0 {
            let run = (self.pattern.len() - self.next).min(self.left);
            for &o in &self.pattern[self.next..self.next + run] {
                acc = f(acc, self.base + o);
            }
            self.left -= run;
            self.next = 0;
            self.base += self.period;
        }
        acc
    }
}

impl ExactSizeIterator for Memberships {}

/// Deterministic Byzantine-tolerant Download via per-bit committees.
///
/// # Examples
///
/// ```
/// use dr_core::{FaultModel, ModelParams, PeerId};
/// use dr_protocols::CommitteeDownload;
/// use dr_sim::{SilentAgent, SimBuilder};
///
/// let params = ModelParams::builder(64, 7)
///     .faults(FaultModel::Byzantine, 2)
///     .build()?;
/// let sim = SimBuilder::new(params)
///     .protocol(|_| CommitteeDownload::new(64, 7, 2))
///     .byzantine(PeerId(0), SilentAgent::new())
///     .byzantine(PeerId(1), SilentAgent::new())
///     .build();
/// let input = sim.input().clone();
/// let report = sim.run().unwrap();
/// report.verify_downloads(&input).unwrap();
/// # Ok::<(), dr_core::InvalidParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitteeDownload {
    n: usize,
    k: usize,
    t: usize,
    settled: Settled,
    out: Option<BitArray>,
    /// Per-bit tally: `counts[j][v]` distinct committee members of `C_j`
    /// that voted `v` for bit `j`.
    counts: Vec<[u32; 2]>,
    /// Per-sender dedupe, allocated on the sender's first valid batch:
    /// two bitsets of the batch's length (value 0, then value 1), bit `r`
    /// set once that sender's `r`-th vote with that value was counted.
    seen: Vec<Vec<u64>>,
}

impl CommitteeDownload {
    /// Creates an instance for `n` bits, `k` peers, and up to `t < k/2`
    /// Byzantine peers.
    ///
    /// # Panics
    ///
    /// Panics unless `2t + 1 ≤ k` (honest majority is required for
    /// deterministic sub-naive Download — Theorem 3.1 shows `β ≥ 1/2`
    /// forces `Q = n`).
    pub fn new(n: usize, k: usize, t: usize) -> Self {
        assert!(2 * t < k, "committee protocol requires t < k/2");
        CommitteeDownload {
            n,
            k,
            t,
            settled: Settled::new(n),
            out: None,
            counts: vec![[0; 2]; n],
            seen: vec![Vec::new(); k],
        }
    }

    /// Committee size used by this instance.
    pub fn committee_size(&self) -> usize {
        2 * self.t + 1
    }

    /// Chaos-campaign invariant envelope: each bit is queried by its
    /// committee of `2t + 1` peers and the load is balanced, so
    /// `Q ≤ ⌈n(2t+1)/k⌉ + 1` exactly; twice that plus slack leaves room
    /// for nothing but bugs. One round of votes: small constant time.
    pub fn cost_envelope(n: usize, k: usize, t: usize) -> crate::CostEnvelope {
        let theory = (n * (2 * t + 1)).div_ceil(k) as f64 + 1.0;
        crate::CostEnvelope {
            q_max: (2.0 * theory).ceil() as u64 + 16,
            t_base: 16.0,
            t_per_release: 4.0,
            t_per_retry: 0.0,
            t_link_slack: 0.0,
        }
    }

    fn check_done(&mut self) {
        if self.out.is_none() && self.settled.unknown == 0 {
            self.out = Some(BitArray::from_words(self.n, self.settled.values.clone()));
        }
    }
}

/// Settled bits (queried or accepted), packed into plain words so that
/// settling one is a couple of word writes, not a copy-on-write check.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Settled {
    known: Vec<u64>,
    /// Zero wherever `known` is zero.
    values: Vec<u64>,
    /// Bits not yet in `known`.
    unknown: usize,
}

impl Settled {
    fn new(n: usize) -> Self {
        Settled {
            known: vec![0; n.div_ceil(64)],
            values: vec![0; n.div_ceil(64)],
            unknown: n,
        }
    }

    #[inline]
    fn is_known(&self, j: usize) -> bool {
        self.known[j / 64] >> (j % 64) & 1 == 1
    }

    /// Settles bit `j`; the first value learned for a bit is kept.
    #[inline]
    fn learn(&mut self, j: usize, value: bool) {
        let (w, bit) = (j / 64, 1u64 << (j % 64));
        if self.known[w] & bit == 0 {
            self.known[w] |= bit;
            self.values[w] |= u64::from(value) << (j % 64);
            self.unknown -= 1;
        }
    }
}

impl Protocol for CommitteeDownload {
    type Msg = VoteBatch;

    fn on_start(&mut self, ctx: &mut dyn Context<VoteBatch>) {
        let me = ctx.me();
        // Vote r is the r-th bit of my membership set, packed straight
        // into words.
        let mine = memberships(me, self.n, self.k, self.committee_size());
        let len = mine.len();
        let mut words = vec![0u64; len.div_ceil(64)];
        for (r, j) in mine.enumerate() {
            let v = ctx.query(j);
            self.settled.learn(j, v);
            words[r / 64] |= u64::from(v) << (r % 64);
        }
        ctx.broadcast(VoteBatch {
            values: BitArray::from_words(len, words),
        });
        self.check_done();
    }

    fn on_message(&mut self, from: PeerId, msg: VoteBatch, _ctx: &mut dyn Context<VoteBatch>) {
        if self.out.is_some() || from.index() >= self.k {
            return;
        }
        // Validate, then count: the packed bitmap is decoded against the
        // sender's structural membership set, and a batch of the wrong
        // arity is discarded wholesale before any vote is tallied.
        let members = memberships(from, self.n, self.k, self.committee_size());
        let len = members.len();
        if msg.values.len() != len {
            return;
        }
        let words = len.div_ceil(64);
        let seen = &mut self.seen[from.index()];
        if seen.is_empty() {
            *seen = vec![0; 2 * words];
        }
        let accept = self.t as u32 + 1;
        members.enumerate().for_each(|(r, j)| {
            if self.settled.is_known(j) {
                return; // settled for good: no later vote can change it
            }
            let (w, bit) = (r / 64, 1u64 << (r % 64));
            let value = msg.values.word(w) & bit != 0;
            let slot = &mut seen[usize::from(value) * words + w];
            if *slot & bit != 0 {
                return; // this sender already counted for (j, value)
            }
            *slot |= bit;
            let count = &mut self.counts[j][usize::from(value)];
            *count += 1;
            if *count == accept {
                self.settled.learn(j, value);
            }
        });
        self.check_done();
    }

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::collections::DetMap;
    use dr_core::{FaultModel, ModelParams, PartialArray};
    use dr_sim::{SilentAgent, SimBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn params(n: usize, k: usize, t: usize) -> ModelParams {
        ModelParams::builder(n, k)
            .faults(FaultModel::Byzantine, t)
            .build()
            .unwrap()
    }

    /// Answers queries from a fixed input and drops outgoing messages.
    struct TestCtx {
        me: PeerId,
        k: usize,
        input: BitArray,
        rng: StdRng,
    }

    impl TestCtx {
        fn new(me: PeerId, k: usize, input: BitArray) -> Self {
            TestCtx {
                me,
                k,
                input,
                rng: StdRng::seed_from_u64(0),
            }
        }
    }

    impl Context<VoteBatch> for TestCtx {
        fn me(&self) -> PeerId {
            self.me
        }
        fn num_peers(&self) -> usize {
            self.k
        }
        fn input_len(&self) -> usize {
            self.input.len()
        }
        fn send(&mut self, _to: PeerId, _msg: VoteBatch) {}
        fn query(&mut self, index: usize) -> bool {
            self.input.get(index)
        }
        fn rng(&mut self) -> &mut dyn RngCore {
            &mut self.rng
        }
    }

    /// `sender`'s truthful batch over `input`.
    fn truthful(sender: PeerId, input: &BitArray, k: usize, c: usize) -> VoteBatch {
        let votes: Vec<bool> = memberships(sender, input.len(), k, c)
            .map(|j| input.get(j))
            .collect();
        VoteBatch {
            values: BitArray::from_bools(&votes),
        }
    }

    /// Bit `j`'s settled value, if any.
    fn settled(p: &CommitteeDownload, j: usize) -> Option<bool> {
        let s = &p.settled;
        s.is_known(j).then(|| s.values[j / 64] >> (j % 64) & 1 == 1)
    }

    /// Reference model: the tally as it stood before the flat-counter
    /// rewrite — a full `0..n` scan per batch and an ordered map of
    /// distinct voters per (bit, value), deduped with `Vec::contains`.
    struct ModelTally {
        n: usize,
        k: usize,
        t: usize,
        acc: PartialArray,
        out: Option<BitArray>,
        tally: DetMap<usize, [Vec<PeerId>; 2]>,
    }

    impl ModelTally {
        fn new(n: usize, k: usize, t: usize) -> Self {
            ModelTally {
                n,
                k,
                t,
                acc: PartialArray::new(n),
                out: None,
                tally: DetMap::new(),
            }
        }

        fn check_done(&mut self) {
            if self.out.is_none() && self.acc.is_complete() {
                self.out = Some(self.acc.clone().into_complete());
            }
        }

        fn start(&mut self, me: PeerId, input: &BitArray) {
            for j in 0..self.n {
                if in_committee(j, self.k, 2 * self.t + 1, me) {
                    self.acc.learn(j, input.get(j));
                }
            }
            self.check_done();
        }

        fn deliver(&mut self, from: PeerId, values: &BitArray) {
            if self.out.is_some() {
                return;
            }
            let c = 2 * self.t + 1;
            let mut r = 0;
            for j in 0..self.n {
                if in_committee(j, self.k, c, from) {
                    let value = values.get(r);
                    r += 1;
                    let entry = self.tally.entry(j).or_default();
                    let bucket = &mut entry[usize::from(value)];
                    if !bucket.contains(&from) {
                        bucket.push(from);
                    }
                    if bucket.len() > self.t {
                        self.acc.learn(j, value);
                    }
                }
            }
            self.check_done();
        }
    }

    /// Asserts the flat tally and the model agree on every settled bit
    /// and on the output.
    fn assert_agrees(p: &CommitteeDownload, m: &ModelTally) {
        for j in 0..m.n {
            prop_assert_eq!(settled(p, j), m.acc.get(j), "bit {}", j);
        }
        prop_assert_eq!(p.output(), m.out.as_ref());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Well-formed batch sequences with repeats, equivocation across
        /// one sender's batches and self-sends: the flat tally settles
        /// exactly the model's bits, with the model's values, after every
        /// message.
        #[test]
        fn flat_tally_matches_reference_model(
            n in 0usize..150,
            k in 1usize..10,
            t_raw in 0usize..5,
            me_raw in 0usize..10,
            input_seed in any::<u64>(),
            msgs in prop::collection::vec((0usize..10, 0u8..4, 0u64..3), 0..40),
        ) {
            let t = t_raw % ((k - 1) / 2 + 1);
            let c = 2 * t + 1;
            let me = PeerId(me_raw % k);
            let input = BitArray::random(n, &mut StdRng::seed_from_u64(input_seed));
            let mut p = CommitteeDownload::new(n, k, t);
            let mut ctx = TestCtx::new(me, k, input.clone());
            let mut model = ModelTally::new(n, k, t);
            p.on_start(&mut ctx);
            model.start(me, &input);
            assert_agrees(&p, &model);
            for (from_raw, kind, seed) in msgs {
                let from = PeerId(from_raw % k);
                let truth = truthful(from, &input, k, c).values;
                let values = match kind {
                    0 => truth,
                    1 => BitArray::from_fn(truth.len(), |r| !truth.get(r)),
                    // Few seeds per sender, so random batches repeat too.
                    _ => BitArray::random(
                        truth.len(),
                        &mut StdRng::seed_from_u64(seed ^ ((from.index() as u64) << 8)),
                    ),
                };
                model.deliver(from, &values);
                p.on_message(from, VoteBatch { values }, &mut ctx);
                assert_agrees(&p, &model);
            }
        }

        /// Any batch from any sender index is total: no panic, and a
        /// batch that fails validation leaves every piece of state as it
        /// was.
        #[test]
        fn arbitrary_batches_never_panic(
            n in 0usize..100,
            k in 1usize..9,
            from in 0usize..20,
            len in 0usize..120,
            seed in any::<u64>(),
        ) {
            let t = (k - 1) / 2;
            let mut p = CommitteeDownload::new(n, k, t);
            let mut ctx = TestCtx::new(PeerId(0), k, BitArray::zeros(n));
            p.on_start(&mut ctx);
            let before = p.clone();
            let values = BitArray::random(len, &mut StdRng::seed_from_u64(seed));
            p.on_message(PeerId(from), VoteBatch { values }, &mut ctx);
            let valid = from < k && memberships(PeerId(from), n, k, 2 * t + 1).len() == len;
            if !valid {
                prop_assert_eq!(p, before);
            }
        }
    }

    #[test]
    fn committee_rotation_is_balanced() {
        let n = 100;
        let k = 9;
        let c = 5;
        let mut load = vec![0usize; k];
        for j in 0..n {
            for p in committee(j, k, c) {
                load[p.index()] += 1;
            }
        }
        let max = *load.iter().max().unwrap();
        let min = *load.iter().min().unwrap();
        assert!(max - min <= 1, "committee load {load:?}");
        assert_eq!(load.iter().sum::<usize>(), n * c);
    }

    #[test]
    fn membership_test_matches_enumeration() {
        for k in [3usize, 5, 8, 13] {
            for c in [1usize, 3, 5, 7] {
                for j in 0..40 {
                    for p in 0..k {
                        let by_iter = committee(j, k, c).any(|q| q == PeerId(p));
                        assert_eq!(
                            by_iter,
                            in_committee(j, k, c, PeerId(p)),
                            "k={k} c={c} j={j} p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_byzantine_still_works() {
        let sim = SimBuilder::new(params(80, 5, 2))
            .seed(1)
            .protocol(|_| CommitteeDownload::new(80, 5, 2))
            .build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
        // Q = n(2t+1)/k = 80·5/5 = 80.
        assert_eq!(report.max_nonfaulty_queries, 80);
    }

    #[test]
    fn silent_byzantine_members_are_tolerated() {
        let sim = SimBuilder::new(params(60, 7, 2))
            .seed(2)
            .protocol(|_| CommitteeDownload::new(60, 7, 2))
            .byzantine(PeerId(3), SilentAgent::new())
            .byzantine(PeerId(6), SilentAgent::new())
            .build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
    }

    #[test]
    fn lying_byzantine_members_cannot_corrupt() {
        /// Votes the complement of the truth on every committee it sits on.
        struct Liar {
            n: usize,
            k: usize,
            c: usize,
        }
        impl Protocol for Liar {
            type Msg = VoteBatch;
            fn on_start(&mut self, ctx: &mut dyn Context<VoteBatch>) {
                let me = ctx.me();
                let votes: Vec<bool> = memberships(me, self.n, self.k, self.c)
                    .map(|j| !ctx.query(j))
                    .collect();
                ctx.broadcast(VoteBatch {
                    values: BitArray::from_bools(&votes),
                });
            }
            fn on_message(&mut self, _f: PeerId, _m: VoteBatch, _c: &mut dyn Context<VoteBatch>) {}
            fn output(&self) -> Option<&BitArray> {
                None
            }
        }

        let (n, k, t) = (48, 7, 3);
        let sim = SimBuilder::new(params(n, k, t))
            .seed(3)
            .protocol(move |_| CommitteeDownload::new(n, k, t))
            .byzantine(PeerId(0), Liar { n, k, c: 2 * t + 1 })
            .byzantine(PeerId(2), Liar { n, k, c: 2 * t + 1 })
            .byzantine(PeerId(4), Liar { n, k, c: 2 * t + 1 })
            .build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
    }

    #[test]
    fn non_member_votes_are_ignored() {
        // Bit 0's committee for k = 5, c = 3 is {0, 1, 2}; peer 3 sits on
        // other committees only, so its votes never touch bit 0 — not
        // even t + 1 = 2 copies of the same batch.
        let (n, k, t) = (10, 5, 1);
        let outsider = PeerId(3);
        assert!(!committee(0, k, 2 * t + 1).any(|m| m == outsider));
        let mut p = CommitteeDownload::new(n, k, t);
        let mut ctx = TestCtx::new(PeerId(0), k, BitArray::zeros(n));
        let len = memberships(outsider, n, k, 2 * t + 1).len();
        let batch = VoteBatch {
            values: BitArray::from_fn(len, |_| true),
        };
        p.on_message(outsider, batch.clone(), &mut ctx);
        p.on_message(outsider, batch, &mut ctx);
        assert_eq!(settled(&p, 0), None);
        assert_eq!(p.counts[0], [0, 0]);
    }

    #[test]
    fn memberships_match_filtered_scan() {
        // Covers c = k, c > k, gcd(c, k) > 1 (e.g. k = 12, c = 3 or 9),
        // n shorter than a period, and n not a multiple of it.
        for k in 1usize..=13 {
            for c in 0..=k + 2 {
                for n in [0usize, 1, 5, 12, 40, 97, 130] {
                    for p in 0..k {
                        let want: Vec<usize> = (0..n)
                            .filter(|&j| in_committee(j, k, c, PeerId(p)))
                            .collect();
                        let got = memberships(PeerId(p), n, k, c);
                        assert_eq!(got.len(), want.len(), "n={n} k={k} c={c} p={p}");
                        assert_eq!(got.collect::<Vec<_>>(), want, "n={n} k={k} c={c} p={p}");
                        // Internal iteration, entered part-way through.
                        let skip = want.len() / 3;
                        let mut it = memberships(PeerId(p), n, k, c);
                        it.by_ref().take(skip).for_each(drop);
                        let rest = it.fold(Vec::new(), |mut v, j| {
                            v.push(j);
                            v
                        });
                        assert_eq!(rest, want[skip..], "n={n} k={k} c={c} p={p}");
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_batches_change_no_state() {
        let (n, k, t) = (40, 7, 2);
        let c = 2 * t + 1;
        let input = BitArray::from_fn(n, |i| i % 3 == 0);
        let mut p = CommitteeDownload::new(n, k, t);
        let mut ctx = TestCtx::new(PeerId(6), k, input.clone());
        p.on_start(&mut ctx);
        let len = memberships(PeerId(1), n, k, c).len();
        p.on_message(PeerId(1), truthful(PeerId(1), &input, k, c), &mut ctx);
        let before = p.clone();
        for bad_len in [0, 1, len - 1, len + 1, 2 * len] {
            let values = BitArray::from_fn(bad_len, |i| i % 2 == 0);
            p.on_message(PeerId(2), VoteBatch { values }, &mut ctx);
            assert_eq!(
                p, before,
                "batch of {bad_len} bits (want {len}) was tallied"
            );
        }
        for outsider in [k, k + 1, 3 * k] {
            p.on_message(
                PeerId(outsider),
                truthful(PeerId(1), &input, k, c),
                &mut ctx,
            );
            assert_eq!(p, before, "sender {outsider} >= k was tallied");
        }
    }

    #[test]
    fn short_batch_cannot_strand_a_completed_tally() {
        // k = 4, c = 3: peer 3 queries bits 1..=3 itself and needs t + 1 =
        // 2 votes on bit 0 from C_0 = {0, 1, 2}. Peer 1's batch covers
        // bits (0, 1, 3). A short batch of its first two votes used to
        // settle bit 0 — completing the tally — and return before the
        // completion check, so the output was never set. Now the short
        // batch is discarded, and the valid one settles bit 0 and sets
        // the output together.
        let (n, k, t) = (4, 4, 1);
        let c = 2 * t + 1;
        let input = BitArray::from_fn(n, |i| i != 2);
        let mut p = CommitteeDownload::new(n, k, t);
        let mut ctx = TestCtx::new(PeerId(3), k, input.clone());
        p.on_start(&mut ctx);
        assert_eq!(
            memberships(PeerId(1), n, k, c).collect::<Vec<_>>(),
            [0, 1, 3]
        );
        p.on_message(PeerId(2), truthful(PeerId(2), &input, k, c), &mut ctx);
        let full = truthful(PeerId(1), &input, k, c);
        let short = VoteBatch {
            values: full.values.slice(0..2),
        };
        p.on_message(PeerId(1), short, &mut ctx);
        assert_eq!(settled(&p, 0), None);
        assert_eq!(p.output(), None);
        p.on_message(PeerId(1), full, &mut ctx);
        assert_eq!(p.output(), Some(&input));
    }

    #[test]
    fn query_complexity_scales_with_t() {
        let n = 120;
        let k = 12;
        for t in [0usize, 1, 2, 3, 5] {
            let sim = SimBuilder::new(params(n, k, t))
                .seed(4 + t as u64)
                .protocol(move |_| CommitteeDownload::new(n, k, t))
                .build();
            let input = sim.input().clone();
            let report = sim.run().unwrap();
            report.verify_downloads(&input).unwrap();
            let expected = (n * (2 * t + 1)).div_ceil(k) as u64;
            assert!(
                report.max_nonfaulty_queries <= expected + 1,
                "t={t}: Q={} > {expected}",
                report.max_nonfaulty_queries
            );
        }
    }

    #[test]
    #[should_panic(expected = "t < k/2")]
    fn rejects_byzantine_majority() {
        let _ = CommitteeDownload::new(10, 4, 2);
    }
}
