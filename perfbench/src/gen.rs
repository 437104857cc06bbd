//! Seeded input generators: a splitmix64 stream, a Zipf sampler, and the
//! skewed range mix the serving workload sends.

use std::ops::Range;

/// splitmix64: a small, fully specified generator, so a seed means the
/// same inputs on every build.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Derives an independent sub-seed for stream `tag` of `seed`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Zipf(`s`) over ranks `0..n`: rank `i` has weight `1 / (i + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The serving workload's request mix over a source of `n` bits cut into
/// `range_bits`-long slots: the first `hot` slots form the hot set, drawn
/// Zipf-skewed through a seeded permutation; a `cold_share` of requests
/// go to cold slots, each cold slot used once.
#[derive(Debug, Clone)]
pub struct RangeMix {
    range_bits: usize,
    hot: Vec<usize>,
    zipf: Zipf,
    cold_share: f64,
    /// Accumulated cold share; a request is cold each time it reaches 1.
    cold_credit: f64,
    next_cold: usize,
    cold_slots: usize,
    rng: SplitMix,
}

impl RangeMix {
    pub fn new(
        seed: u64,
        n: usize,
        range_bits: usize,
        hot: usize,
        skew: f64,
        cold_share: f64,
    ) -> Self {
        let slots = n / range_bits;
        assert!(hot < slots, "hot set must leave cold slots");
        let mut rng = SplitMix::new(seed);
        // Which slot each Zipf rank maps to: a seeded shuffle of the hot
        // slots, so the most popular range moves with the seed.
        let mut hot_slots: Vec<usize> = (0..hot).collect();
        for i in (1..hot_slots.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            hot_slots.swap(i, j);
        }
        RangeMix {
            range_bits,
            hot: hot_slots,
            zipf: Zipf::new(hot, skew),
            cold_share,
            cold_credit: 0.0,
            next_cold: hot,
            cold_slots: slots,
            rng,
        }
    }

    /// The next request range. Exactly every `1 / cold_share`-th request
    /// (on average) is cold, so the count of cold requests, and with it
    /// the upstream bits per request, does not vary with the seed; the
    /// hot ranges are seeded Zipf draws. Cold slots run out after
    /// `n / range_bits − hot` cold requests; sizing keeps them ample.
    pub fn next_range(&mut self) -> Range<usize> {
        self.cold_credit += self.cold_share;
        let slot = if self.cold_credit >= 1.0 {
            self.cold_credit -= 1.0;
            let s = self.next_cold;
            assert!(s < self.cold_slots, "cold slots exhausted");
            self.next_cold += 1;
            s
        } else {
            self.hot[self.zipf.sample(&mut self.rng)]
        };
        slot * self.range_bits..(slot + 1) * self.range_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(derive(1, 1), derive(1, 2));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix::new(3);
        assert!((0..10_000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let z = Zipf::new(64, 1.1);
        let draw = |seed| {
            let mut r = SplitMix::new(seed);
            let mut counts = vec![0u32; 64];
            for _ in 0..20_000 {
                counts[z.sample(&mut r)] += 1;
            }
            counts
        };
        let a = draw(9);
        assert_eq!(a, draw(9));
        assert_ne!(a, draw(10));
        assert!(a[0] > a[1] && a[1] > a[8] && a[8] > a[63]);
        assert!(a[0] as f64 / 20_000.0 > 0.15);
    }

    #[test]
    fn range_mix_is_deterministic_aligned_and_uses_cold_slots_once() {
        let take = |seed| {
            let mut m = RangeMix::new(seed, 1 << 22, 4096, 32, 1.1, 0.2);
            (0..2_000).map(|_| m.next_range()).collect::<Vec<_>>()
        };
        let a = take(5);
        assert_eq!(a, take(5));
        assert_ne!(a, take(6));
        assert!(a.iter().all(|r| r.start % 4096 == 0 && r.len() == 4096));
        let cold: Vec<_> = a.iter().filter(|r| r.start >= 32 * 4096).collect();
        let mut starts: Vec<_> = cold.iter().map(|r| r.start).collect();
        starts.dedup();
        assert_eq!(starts.len(), cold.len(), "a cold slot repeated");
        let share = cold.len() as f64 / a.len() as f64;
        assert!((0.15..0.25).contains(&share), "cold share {share}");
    }
}
