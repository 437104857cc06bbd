//! Host-speed probe: fixed CPU kernels of the benchmark's own, timed
//! between the measured ops, that scale the CPU-bound end-to-end times
//! to one reference host speed.
//!
//! On a shared VM the same op on the same input runs 15–50% slower in
//! some minutes than in others (noisy neighbours on the physical cores;
//! the guest sees no steal time), which swamps any change to the program.
//! The probe is a small discrete-event loop — a binary heap of timed
//! events, a hash map of per-key buffers, small allocations, a table of
//! counters — run twice: once with a cache-resident working set and once
//! with one that spills to memory. The geometric mean of the two times
//! slows down with the host the way the simulator and the front door do
//! (side by side on committee and two-cycle runs, either kernel alone
//! left 1.4–3.5 times the run-to-run spread), and it runs
//! none of the program's code, so a faster or slower program does not
//! move it. A scaled time is `raw × PROBE_REF_MS / probe time`: the time
//! the op would take on a host where the probe takes [`PROBE_REF_MS`].
//! The probe time is the median of the probes next to the op (the host
//! also drifts within a run) or of the whole run. The raw times stay in
//! the record line.

use crate::stats::median;
use crate::trace;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Probe time of the reference host, milliseconds: a round value near
/// the probe's median on a quiet 2-core VM (x86-64 Xeon, release build),
/// where busy spells read 2.3–4.2 ms.
pub const PROBE_REF_MS: f64 = 2.0;
/// Events one kernel pops.
const PROBE_EVENTS: u32 = 16_000;
/// (map keys, counter-table words) of the cache-resident kernel and of
/// the one that spills to memory (~2 MB table, ~1.5 MB of buffers).
const KERNELS: [(u64, usize); 2] = [(4_096, 1 << 10), (16_384, 1 << 18)];
/// Probes on each side of a sample that [`HostSpeed::local_factors`]
/// takes the median over.
pub const HALF_WINDOW: usize = 4;

/// One probe kernel; returns a checksum that depends on every step.
pub fn kernel(keys: u64, table_words: usize) -> u64 {
    let mut heap = BinaryHeap::with_capacity(keys as usize);
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut table = vec![0u64; table_words];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..keys / 2 {
        heap.push(Reverse((i, i)));
    }
    let mut acc = 0u64;
    for _ in 0..PROBE_EVENTS {
        let Some(Reverse((t, id))) = heap.pop() else {
            break;
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[x as usize % table_words];
        *slot = slot.wrapping_add(t);
        let buf = map.entry(id % keys).or_default();
        buf.push(x);
        if buf.len() > 8 {
            acc = acc.wrapping_add(buf.iter().fold(0, |a, &v| a ^ v));
            buf.clear();
        }
        heap.push(Reverse((t + 1 + x % 64, x % (2 * keys))));
    }
    acc ^ map.len() as u64 ^ table[x as usize % table_words]
}

/// One probe: the geometric mean of the kernels' times, milliseconds.
fn probe_ms() -> f64 {
    let times: Vec<f64> = KERNELS
        .iter()
        .map(|&(keys, words)| {
            let t = Instant::now();
            std::hint::black_box(kernel(keys, words));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    geometric_mean(&times)
}

fn geometric_mean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Probe samples of one run.
#[derive(Debug, Default, Clone)]
pub struct HostSpeed {
    samples_ms: Vec<f64>,
    /// Trace-clock start of each sample.
    at_ns: Vec<u64>,
}

impl HostSpeed {
    /// Times one probe on this thread.
    pub fn sample(&mut self) {
        self.at_ns.push(trace::clock_ns());
        self.samples_ms.push(probe_ms());
    }

    /// Times one probe on each of `threads` execution-plane jobs run at
    /// once, for ops that run on the plane and so on every core: the
    /// sample is the geometric mean of their times.
    pub fn sample_on_plane(&mut self, threads: usize) {
        self.at_ns.push(trace::clock_ns());
        let times = dr_bench::plane::run_indexed(threads, |_| probe_ms());
        self.samples_ms.push(geometric_mean(&times));
    }

    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// Median probe time, milliseconds; [`PROBE_REF_MS`] when no probe
    /// ran.
    pub fn probe_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            PROBE_REF_MS
        } else {
            median(&self.samples_ms)
        }
    }

    /// The factor that scales a duration measured next to sample `i`:
    /// `PROBE_REF_MS` over the median of samples `i - HALF_WINDOW ..= i +
    /// HALF_WINDOW` (clipped to the run); 1 when no probe ran.
    pub fn local_factor(&self, i: usize) -> f64 {
        let n = self.samples_ms.len();
        if n == 0 {
            return 1.0;
        }
        let i = i.min(n - 1);
        let window = &self.samples_ms[i.saturating_sub(HALF_WINDOW)..(i + HALF_WINDOW + 1).min(n)];
        PROBE_REF_MS / median(window)
    }

    /// [`HostSpeed::local_factor`] of every sample.
    pub fn local_factors(&self) -> Vec<f64> {
        (0..self.samples_ms.len())
            .map(|i| self.local_factor(i))
            .collect()
    }

    /// [`HostSpeed::local_factor`] of the last sample taken at or before
    /// trace-clock time `at_ns` (the first sample, if none was).
    pub fn factor_at(&self, at_ns: u64) -> f64 {
        let after = self.at_ns.partition_point(|&t| t <= at_ns);
        self.local_factor(after.saturating_sub(1))
    }

    /// A raw duration (any unit) scaled to the reference host.
    pub fn scale_time(&self, raw: f64) -> f64 {
        raw * PROBE_REF_MS / self.probe_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_are_deterministic() {
        for (keys, words) in KERNELS {
            assert_eq!(kernel(keys, words), kernel(keys, words));
        }
    }

    #[test]
    fn scaling_uses_the_median_probe() {
        assert_eq!(HostSpeed::default().scale_time(2.0), 2.0);
        // A host twice as slow as the reference: times halve.
        let h = with_samples(&[2.0 * PROBE_REF_MS, 2.0 * PROBE_REF_MS, 50.0]);
        assert_eq!(h.probe_ms(), 2.0 * PROBE_REF_MS);
        assert!((h.scale_time(10.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn local_factors_follow_a_drifting_host() {
        let r = PROBE_REF_MS;
        // Fast for twelve probes, then twice as slow, with one outlier.
        let mut xs = vec![r; 12];
        xs[3] = 40.0 * r;
        xs.extend(vec![2.0 * r; 12]);
        let h = with_samples(&xs);
        let f = h.local_factors();
        assert_eq!(f.len(), 24);
        assert_eq!(f[0], 1.0);
        // The lone outlier is voted down by its neighbours.
        assert_eq!(f[3], 1.0);
        assert_eq!(f[23], 0.5);
        // One switch from the fast factor to the slow one, at the drift.
        let switch = f.iter().position(|&v| v == 0.5).unwrap();
        assert!((10..=13).contains(&switch), "switch at {switch}");
        assert!(f[..switch].iter().all(|&v| v == 1.0));
        assert!(f[switch..].iter().all(|&v| v == 0.5));
        // By time: sample i is taken at 10 * i ns.
        assert_eq!(h.factor_at(0), f[0]);
        assert_eq!(h.factor_at(235), f[23]);
        assert_eq!(h.factor_at(u64::MAX), f[23]);
        assert_eq!(h.factor_at(119), f[11]);
    }

    fn with_samples(xs: &[f64]) -> HostSpeed {
        HostSpeed {
            samples_ms: xs.to_vec(),
            at_ns: (0..xs.len() as u64).map(|i| 10 * i).collect(),
        }
    }
}
