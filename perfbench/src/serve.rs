//! The serving workload: Zipf-skewed and cold range requests, due on a
//! fixed ladder of offered rates, to a `FrontDoor` over a throttled
//! upstream source; at most `ncpu` workers call `serve`.
//!
//! The schedule is the open-loop generator: every request has a due
//! time fixed in advance. A worker claims the next request in due order
//! and calls `serve` at its due time, or at once if it is already due,
//! so the workers form one FIFO queue with `ncpu` servers. A request's
//! latency counts from its due time, queueing behind earlier requests
//! included; no hand-off thread sits between the schedule and `serve`.
//!
//! Workers and the throttled source spin rather than sleep, so no timer
//! wake-up enters a latency. The source's waits are counted per request,
//! so the program's own time in a request is its latency minus them.
//! The reference rung is served by worker 0 alone while the others
//! sleep: on a shared VM the two cores run at different speeds, and a
//! core spinning beside a request (on a hyperthread sibling) slows it by
//! a varying amount. Worker 0 runs host-speed probes in quiet gaps of
//! the schedule — before the reference rung, every [`QUIET_EVERY`]
//! requests within it, and after it — so its probes follow it when the
//! scheduler moves it to the other core, and the program's share of
//! each request is scaled by the probes next to it.

use crate::gen::{derive, RangeMix};
use crate::host::HostSpeed;
use crate::stats::open_loop_latency_ns;
use crate::trace::{self, Layer, LayerTotals, Span, TimedSource};
use dr_core::{ArraySource, BitArray, CacheStats, Source};
use dr_runtime::{FrontDoor, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bits per request: the `fig_serve` full grid's range size.
pub const RANGE_BITS: usize = 16_384;
/// Fleet size of the front door (each request fans out over it): the
/// `fig_serve` grid's.
pub const PEERS: usize = 4;
/// Wait per upstream `bits` call, the remote source's round trip: the
/// `fig_serve` grid's throttle. It is spun, not slept, so the host's
/// timer wake-up jitter (0.05–2 ms on a shared VM) stays out of the
/// cold-fill latencies.
pub const THROTTLE: Duration = Duration::from_micros(200);
/// Ranges in the hot set (an assumption: no measured traffic fixes it).
pub const HOT: usize = 1536;
/// Zipf exponent over the hot set (an assumption).
pub const SKEW: f64 = 1.1;
/// Share of requests that go to a never-seen cold range. A 20 s run
/// (`BENCHMARK.json`'s length, 81 000 requests) then touches about
/// 3 × [`HOT`] cold ranges, a working set 4 × the hot set (the multiple
/// is an assumption); the traced pass's half-length run keeps the mix.
pub const COLD_SHARE: f64 = 0.057;
/// Offered rates of the paced rungs, requests per second. After them a
/// burst rung offers [`BURST_RATE`] × one rung's length of requests, all
/// due at its start: far past what `ncpu` workers serve, so it measures
/// capacity.
pub const LADDER: [f64; 3] = [200.0, 1000.0, 5000.0];
/// Requests per rung-second of the burst rung.
pub const BURST_RATE: f64 = 10_000.0;
/// Index of the burst rung.
pub const BURST_RUNG: usize = LADDER.len();
/// The rung whose latencies are the end-to-end latency metrics: the
/// lowest, where a request rarely queues, so the median is a cache hit's
/// own time and the tail a cold fill's.
pub const REFERENCE_RUNG: usize = 0;
/// p99 latency a paced rung must meet to count as sustained: a few cold
/// fills' worth.
pub const P99_LIMIT_MS: f64 = 20.0;
/// Length of the quiet windows before and after the reference rung, in
/// which no request is due and worker 0 probes.
const PROBE_WINDOW_S: f64 = 0.15;
/// Reference-rung requests between two quiet gaps ...
const QUIET_EVERY: u64 = 50;
/// ... and the length of each gap: room for one probe.
const QUIET_S: f64 = 0.03;
/// Worker 0 probes while the next request is due at least this far
/// ahead: a few probes' length, so a probe never makes a request late.
const PROBE_GAP: Duration = Duration::from_millis(20);

/// One scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Due time, nanoseconds after the ladder starts.
    pub due_ns: u64,
    pub range: Range<usize>,
    pub rung: usize,
}

/// Seconds each rung (paced and burst) lasts in a run of `seconds`.
pub fn rung_seconds(seconds: f64) -> f64 {
    seconds / (LADDER.len() + 1) as f64
}

/// Requests of `rung` in a run of `seconds`.
fn rung_count(rung: usize, seconds: f64) -> u64 {
    let rate = LADDER.get(rung).copied().unwrap_or(BURST_RATE);
    (rate * rung_seconds(seconds)).round() as u64
}

/// Quiet gaps before request `i` of the reference rung, seconds.
fn quiet_before_s(i: u64) -> f64 {
    (i / QUIET_EVERY) as f64 * QUIET_S
}

/// When `rung` starts, seconds after the ladder does: rungs follow each
/// other; the reference rung is longer by its quiet gaps, and a quiet
/// window follows it.
pub fn rung_start_s(rung: usize, seconds: f64) -> f64 {
    let quiet = if rung > REFERENCE_RUNG {
        let last = rung_count(REFERENCE_RUNG, seconds).saturating_sub(1);
        quiet_before_s(last) + PROBE_WINDOW_S
    } else {
        0.0
    };
    rung as f64 * rung_seconds(seconds) + quiet
}

/// The request schedule for `seed` over `seconds`, and the source length
/// it needs.
pub fn schedule(seed: u64, seconds: f64) -> (Vec<Request>, usize) {
    let rates: Vec<f64> = LADDER.iter().copied().chain([BURST_RATE]).collect();
    let total: f64 = (0..rates.len())
        .map(|r| rung_count(r, seconds) as f64)
        .sum();
    // Cold slots with a wide margin over the expected cold count.
    let slots = HOT + (total * COLD_SHARE * 1.5) as usize + 64;
    let n = slots * RANGE_BITS;
    let mut mix = RangeMix::new(derive(seed, 7), n, RANGE_BITS, HOT, SKEW, COLD_SHARE);
    let mut reqs = Vec::with_capacity(total as usize);
    for (rung, &rate) in rates.iter().enumerate() {
        let start = rung_start_s(rung, seconds);
        for i in 0..rung_count(rung, seconds) {
            let offset = match rung {
                BURST_RUNG => 0.0,
                REFERENCE_RUNG => i as f64 / rate + quiet_before_s(i),
                _ => i as f64 / rate,
            };
            reqs.push(Request {
                due_ns: ((start + offset) * 1e9) as u64,
                range: mix.next_range(),
                rung,
            });
        }
    }
    (reqs, n)
}

thread_local! {
    /// Nanoseconds this thread spent in the source's waits since the last
    /// [`take_waited_ns`].
    static WAITED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Returns and resets the calling thread's time in the source's waits.
fn take_waited_ns() -> u64 {
    WAITED_NS.with(|w| w.replace(0))
}

/// The upstream source: a fixed wait per read models the remote round
/// trip; counters cross-check the cache's own accounting.
pub struct Throttled {
    inner: ArraySource,
    bits: AtomicU64,
}

impl Throttled {
    pub fn new(input: BitArray) -> Self {
        Throttled {
            inner: ArraySource::new(input),
            bits: AtomicU64::new(0),
        }
    }
}

impl Source for Throttled {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn bit(&self, index: usize) -> bool {
        self.bits(index..index + 1).get(0)
    }
    fn bits(&self, range: Range<usize>) -> BitArray {
        let start = Instant::now();
        while start.elapsed() < THROTTLE {
            std::hint::spin_loop();
        }
        let waited = start.elapsed().as_nanos() as u64;
        WAITED_NS.with(|w| w.set(w.get() + waited));
        // Relaxed: statistics read after the workers are joined.
        self.bits.fetch_add(range.len() as u64, Ordering::Relaxed);
        Source::bits(&self.inner, range)
    }
}

/// Everything set-up builds: the source contents, the schedule and a
/// front door whose cache already holds the hot set.
pub struct Setup {
    pub input: BitArray,
    pub reqs: Vec<Request>,
    pub upstream: Arc<Throttled>,
    pub door: FrontDoor,
    /// Upstream bits the warm-up fetched.
    pub warm_bits: u64,
}

pub fn setup(seed: u64, seconds: f64) -> Setup {
    let (reqs, n) = schedule(seed, seconds);
    let input = BitArray::random(n, &mut StdRng::seed_from_u64(derive(seed, 8)));
    warmed(input, reqs, false)
}

/// A fresh, warmed door over the same input and schedule.
pub fn rebuild(s: &Setup, traced: bool) -> Setup {
    warmed(s.input.clone(), s.reqs.clone(), traced)
}

/// The ranges of the hot set (the first [`HOT`] slots).
pub fn hot_ranges() -> impl Iterator<Item = Range<usize>> {
    (0..HOT).map(|slot| slot * RANGE_BITS..(slot + 1) * RANGE_BITS)
}

fn warmed(input: BitArray, reqs: Vec<Request>, traced: bool) -> Setup {
    let upstream = Arc::new(Throttled::new(input.clone()));
    let config = ServeConfig::new(PEERS);
    let door = if traced {
        FrontDoor::new(TimedSource(Arc::clone(&upstream)), config)
    } else {
        FrontDoor::new(Arc::clone(&upstream), config)
    };
    // Warm-up: the hot set becomes resident, so the timed ladder sees
    // cold fills beside hot hits rather than a one-off cold start.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let door = &door;
            scope.spawn(move || {
                for r in hot_ranges().skip(w).step_by(workers) {
                    door.serve(r);
                }
            });
        }
    });
    let warm_bits = door.plane().cache().stats().upstream_bits;
    Setup {
        input,
        reqs,
        upstream,
        door,
        warm_bits,
    }
}

/// One served request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Served {
    pub rung: usize,
    /// Trace-clock due time.
    pub due_ns: u64,
    /// Trace-clock time `serve` was called.
    pub start_ns: u64,
    /// Trace-clock time `serve` returned.
    pub done_ns: u64,
    /// Claimed by a worker before it was due: `start - due` is then the
    /// benchmark's own lateness, not queueing.
    pub early: bool,
    pub queued_ns: u64,
    pub service_ns: u64,
    /// Time in the source's waits (the modelled round trips).
    pub throttle_ns: u64,
    pub ok: bool,
}

impl Served {
    pub fn latency_ns(&self) -> u64 {
        open_loop_latency_ns(self.due_ns, self.done_ns)
    }

    /// The latency with the program's share (all but the source's waits)
    /// multiplied by `factor`, in nanoseconds.
    pub fn scaled_latency_ns(&self, factor: f64) -> f64 {
        let t = self.throttle_ns as f64;
        t + (self.latency_ns() as f64 - t).max(0.0) * factor
    }
}

/// What one pass over the schedule produced.
pub struct Pass {
    /// Per request, in schedule order.
    pub served: Vec<Served>,
    /// Trace-clock start of the ladder.
    pub t0: u64,
    pub cache: CacheStats,
    pub upstream_bits: u64,
    /// Layer totals over the reference rung's requests.
    pub layers: LayerTotals,
    /// Spans of some traced reference-rung requests, for the written trace.
    pub sample_spans: Vec<Span>,
    /// Worker 0's host-speed probes, with their times (none in a traced
    /// pass).
    pub probes: HostSpeed,
}

impl Pass {
    /// Requests due but not yet started at ladder time `at_ns`.
    pub fn backlog(&self, at_ns: u64) -> u64 {
        let t = self.t0 + at_ns;
        let due = self.served.iter().filter(|s| s.due_ns <= t).count();
        let started = self.served.iter().filter(|s| s.start_ns <= t).count();
        due.saturating_sub(started) as u64
    }

    /// Burst requests served per second, from the burst's due time to its
    /// last completion: the door's capacity under the workload's mix.
    pub fn capacity_rps(&self) -> f64 {
        let burst: Vec<&Served> = self
            .served
            .iter()
            .filter(|s| s.rung == BURST_RUNG)
            .collect();
        let Some(start) = burst.iter().map(|s| s.due_ns).min() else {
            return 0.0;
        };
        let end = burst.iter().map(|s| s.done_ns).max().unwrap_or(start);
        burst.len() as f64 / ((end - start) as f64 * 1e-9)
    }
}

/// Whether `bits` equals the word-aligned `range` of `input`.
fn matches_source(bits: &BitArray, input: &BitArray, range: &Range<usize>) -> bool {
    let first = range.start / 64;
    bits.len() == range.len()
        && (0..bits.word_count()).all(|w| bits.word(w) == input.word(first + w))
}

/// Serves the whole schedule open-loop with `workers` threads.
pub fn run_pass(s: &Setup, workers: usize, traced: bool) -> Pass {
    let next = AtomicUsize::new(0);
    // The ladder starts a quiet window after the workers are spawned.
    let t0 = trace::clock_ns() + (PROBE_WINDOW_S * 1e9) as u64;
    // Due time of the first request after the reference rung.
    let after_reference = s
        .reqs
        .iter()
        .find(|r| r.rung > REFERENCE_RUNG)
        .map_or(0, |r| t0 + r.due_ns);
    let (served, layers, sample_spans, probes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut layers = LayerTotals::default();
                    let mut sample = Vec::new();
                    let mut host = HostSpeed::default();
                    loop {
                        // Relaxed: peeks; the claim below decides.
                        let peek = || s.reqs.get(next.load(Ordering::Relaxed));
                        if worker > 0 && peek().is_some_and(|r| r.rung == REFERENCE_RUNG) {
                            let now = trace::clock_ns();
                            let wake = after_reference.saturating_sub(1_000_000);
                            if wake > now {
                                std::thread::sleep(Duration::from_nanos(wake - now));
                            }
                        }
                        // Probe while the next unclaimed request is far
                        // off, which happens only in the quiet gaps.
                        while !traced
                            && worker == 0
                            && peek().is_some_and(|r| {
                                t0 + r.due_ns > trace::clock_ns() + PROBE_GAP.as_nanos() as u64
                            })
                        {
                            host.sample();
                        }
                        // Relaxed: a ticket counter; each index is
                        // claimed once and the results are joined.
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = s.reqs.get(idx) else { break };
                        let due = t0 + req.due_ns;
                        let claimed = trace::clock_ns();
                        while trace::clock_ns() < due {
                            std::hint::spin_loop();
                        }
                        let start = trace::clock_ns();
                        if traced {
                            trace::begin_op(idx as u32, due);
                        }
                        take_waited_ns();
                        let outcome =
                            trace::span(Layer::FrontDoor, || s.door.serve(req.range.clone()));
                        let done = trace::clock_ns();
                        let throttle_ns = take_waited_ns();
                        if traced {
                            // The layer split covers the reference rung,
                            // like the end-to-end latencies.
                            let spans = trace::end_op();
                            if req.rung == REFERENCE_RUNG {
                                layers.add_op(&spans);
                                if sample.len() < 1_000 {
                                    sample.extend_from_slice(&spans);
                                }
                            }
                        }
                        out.push((
                            idx,
                            Served {
                                rung: req.rung,
                                due_ns: due,
                                start_ns: start,
                                done_ns: done,
                                early: claimed < due,
                                queued_ns: outcome.queued.as_nanos() as u64,
                                service_ns: outcome.service.as_nanos() as u64,
                                throttle_ns,
                                ok: matches_source(&outcome.bits, &s.input, &req.range),
                            },
                        ));
                    }
                    (out, layers, sample, host)
                })
            })
            .collect();
        let mut served = vec![Served::default(); s.reqs.len()];
        let mut layers = LayerTotals::default();
        let mut sample = Vec::new();
        let mut probes = HostSpeed::default();
        for h in handles {
            let (out, l, smp, host) = h.join().expect("serve worker panicked");
            for (idx, sv) in out {
                served[idx] = sv;
            }
            layers.merge(&l);
            sample.extend(smp);
            if !host.samples_ms().is_empty() {
                probes = host;
            }
        }
        (served, layers, sample, probes)
    });
    Pass {
        served,
        t0,
        cache: s.door.plane().cache().stats(),
        upstream_bits: s.upstream.bits.load(Ordering::Relaxed),
        layers,
        sample_spans,
        probes,
    }
}

/// Distinct 64-bit words the warm-up and the schedule touch.
pub fn unique_words(reqs: &[Request], n: usize) -> u64 {
    let mut seen = vec![false; n.div_ceil(64)];
    let mut count = 0;
    for r in hot_ranges().chain(reqs.iter().map(|q| q.range.clone())) {
        for w in &mut seen[r.start / 64..r.end.div_ceil(64)] {
            if !*w {
                *w = true;
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_follows_the_ladder() {
        let (a, n) = schedule(3, 2.0);
        let (b, _) = schedule(3, 2.0);
        let (c, _) = schedule(4, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let rung_s = rung_seconds(2.0);
        let per_rung: Vec<usize> = (0..=BURST_RUNG)
            .map(|r| a.iter().filter(|q| q.rung == r).count())
            .collect();
        let want: Vec<usize> = LADDER
            .iter()
            .chain([&BURST_RATE])
            .map(|r| (r * rung_s).round() as usize)
            .collect();
        assert_eq!(per_rung, want);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|q| q.range.end <= n));
        // The burst is due all at once, at its rung's start.
        let burst: Vec<u64> = a
            .iter()
            .filter(|q| q.rung == BURST_RUNG)
            .map(|q| q.due_ns)
            .collect();
        assert!(burst
            .iter()
            .all(|&d| d == (rung_start_s(BURST_RUNG, 2.0) * 1e9) as u64));
        // The reference rung pauses every QUIET_EVERY requests, and
        // nothing is due in the quiet window after it.
        let reference: Vec<u64> = a
            .iter()
            .filter(|q| q.rung == REFERENCE_RUNG)
            .map(|q| q.due_ns)
            .collect();
        let step = (1e9 / LADDER[REFERENCE_RUNG]) as u64;
        for (i, w) in reference.windows(2).enumerate() {
            let gap = w[1] - w[0];
            if (i as u64 + 1) % QUIET_EVERY == 0 {
                assert!(gap >= step + (QUIET_S * 1e9) as u64 - 1, "gap {gap} at {i}");
            } else {
                assert!(gap <= step + 1, "gap {gap} at {i}");
            }
        }
        let next = (rung_start_s(REFERENCE_RUNG + 1, 2.0) * 1e9) as u64;
        assert!(next >= reference.last().unwrap() + (PROBE_WINDOW_S * 1e9) as u64);
    }

    #[test]
    fn cold_ranges_keep_the_working_set_a_few_times_the_hot_set() {
        let (a, _) = schedule(5, 20.0);
        let cold = a
            .iter()
            .filter(|q| q.range.start >= HOT * RANGE_BITS)
            .count();
        let want = (3 * HOT) as f64;
        assert!(
            (cold as f64 - want).abs() < 0.1 * want,
            "{cold} cold ranges, want about {want}"
        );
    }

    #[test]
    fn open_loop_pass_times_requests_from_their_due_time() {
        let mut s = setup(1, 0.1);
        // One worker and every request due at once: requests queue, and
        // each one's latency counts from when it was due.
        s.reqs.truncate(40);
        for r in &mut s.reqs {
            r.due_ns = 0;
        }
        let pass = run_pass(&s, 1, false);
        assert!(pass.served.iter().all(|sv| sv.ok));
        let lat: Vec<u64> = pass.served.iter().map(Served::latency_ns).collect();
        // Served one at a time: the last waited for every earlier one's
        // service time.
        let service_sum: u64 = pass.served[..39].iter().map(|sv| sv.service_ns).sum();
        assert!(lat[39] >= service_sum, "{} < {}", lat[39], service_sum);
        // All due at the start; at most one started by then, none left
        // after the last completion.
        assert!(pass.backlog(0) >= 39);
        let last = pass.served.iter().map(|sv| sv.done_ns).max().unwrap();
        assert_eq!(pass.backlog(last - pass.t0), 0);
        assert_eq!(
            pass.cache.upstream_bits,
            64 * unique_words(&s.reqs, s.input.len())
        );
        assert_eq!(pass.upstream_bits, pass.cache.upstream_bits);
    }
}
