//! Seeded benchmark of the download simulator, the chaos sweep and the
//! front door.
//!
//! ```text
//! perfbench --workload <committee|two-cycle-wide|chaos-sweep|serve-skewed>
//!           --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` repeats the
//! measured ops with every public seam wrapped in timing spans and prints
//! the per-layer split. `--print-expected` (with `--workload`, `--seed`
//! and `--seconds`) prints the workload's lines for `expected.tsv`
//! instead of measuring. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it is the full record (context, every metric with its unit).
//! The CPU-bound end-to-end times are scaled to a reference host speed
//! by a probe timed beside them (see [`host`]); the record keeps the raw
//! values. See `perfbench/README.md`.

mod gen;
mod host;
mod record;
mod serve;
mod sims;
mod stats;
mod trace;

use host::HostSpeed;
use record::{Check, Expected};
use sims::{OpResult, SimOp};
use stats::{median, tail, Tail};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{Layer, LayerTotals, Span};

const WORKLOADS: [&str; 4] = ["committee", "two-cycle-wide", "chaos-sweep", "serve-skewed"];
/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 7;
/// Spans written to the trace file at most.
const TRACE_DUMP_SPANS: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut print_expected = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-expected" {
            print_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        print_expected,
    })
}

/// A named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a workload run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// First failure messages (a few), for the record.
    failures: Vec<String>,
    /// The end-to-end metrics of `BENCHMARK.json` (untraced runs).
    end_to_end: Vec<Metric>,
    /// The per-layer metrics of `BENCHMARK.json` (traced runs).
    per_layer: Vec<Metric>,
    /// Everything else the record carries.
    extra: Vec<Metric>,
    tail: Tail,
    spans: Vec<Span>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            extra: Vec::new(),
            tail: tail(&[], stats::TAIL_CAP),
            spans: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
    dr_bench::plane::set_threads(ncpu);
    if args.print_expected {
        print_expected(&args);
        return ExitCode::SUCCESS;
    }
    let dir = state_dir();
    let mut expected = Expected::load(dir.clone());
    let out = if args.workload == "serve-skewed" {
        run_serve(&args, ncpu, &mut expected)
    } else {
        run_sims(&args, &mut expected)
    };
    if let Err(e) = expected.save() {
        eprintln!("perfbench: could not save expected values: {e}");
    }
    let trace_file = if args.trace && !out.spans.is_empty() {
        let path = dir.join(format!(
            "perfbench-trace-{}-{}.json",
            args.workload, args.seed
        ));
        let n = out.spans.len().min(TRACE_DUMP_SPANS);
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&out.spans[..n])))
        {
            Ok(()) => path.display().to_string(),
            Err(e) => format!("not written: {e}"),
        }
    } else {
        String::new()
    };
    let context = [
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        ("ncpu", ncpu.to_string()),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", json_str(&git_commit())),
        ("latency_tail_percentile", json_num(out.tail.percentile)),
        ("latency_tail_samples", out.tail.samples.to_string()),
        ("latency_tail_beyond", out.tail.beyond.to_string()),
        ("expected_verified", expected.verified.to_string()),
        ("expected_unverified", expected.unverified.to_string()),
        ("trace_file", json_str(&trace_file)),
        (
            "failures",
            format!(
                "[{}]",
                out.failures
                    .iter()
                    .map(|f| json_str(f))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    let mut record: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let all: Vec<&Metric> = out
        .end_to_end
        .iter()
        .chain(&out.extra)
        .chain(&out.per_layer)
        .collect();
    record.push(format!("\"metrics\":{}", metrics_json(&all)));
    println!("{{\"record\":{{{}}}}}", record.join(","));
    let shown: Vec<&Metric> = if args.trace {
        out.per_layer.iter().collect()
    } else {
        out.end_to_end.iter().collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics_json(&shown)
    );
    ExitCode::SUCCESS
}

/// Where the local expected-values store and written traces live: the
/// build directory the benchmark was compiled into.
fn state_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

/// The checked-out commit, if the working directory is a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(ms: &[&Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The probe's figures and the unscaled end-to-end times, for the record:
/// `raw` is `[setup_s, throughput_ops_per_s, latency_ms.p50,
/// latency_ms.tail]` as measured.
fn host_metrics(host: &HostSpeed, raw: &[f64; 4]) -> Vec<Metric> {
    vec![
        m("host.probe_ms", host.probe_ms(), "ms"),
        m("host.probe_ref_ms", host::PROBE_REF_MS, "ms"),
        m(
            "host.probe_samples",
            host.samples_ms().len() as f64,
            "count",
        ),
        m("raw.setup_s", raw[0], "s"),
        m("raw.throughput_ops_per_s", raw[1], "ops/s"),
        m("raw.latency_ms.p50", raw[2], "ms"),
        m("raw.latency_ms.tail", raw[3], "ms"),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs op `i` of the pool (cycling through it) for each `i` in `ids`.
fn run_serial(pool: &[SimOp], ids: std::ops::Range<usize>, traced: bool) -> Vec<OpResult> {
    ids.map(|i| pool[i % pool.len()].run(i as u32, traced))
        .collect()
}

/// Runs the whole pool as one batch on the execution plane.
fn run_round(pool: &Arc<Vec<SimOp>>, round: usize, traced: bool) -> Vec<OpResult> {
    let p = Arc::clone(pool);
    let first = round * pool.len();
    dr_bench::plane::run_indexed(pool.len(), move |i| p[i].run((first + i) as u32, traced))
}

/// Measured results of one phase of a sim workload.
struct Phase {
    /// Every op's result, unless the phase handed them to a fold.
    results: Vec<OpResult>,
    /// Per op: host seconds.
    wall_s: Vec<f64>,
    /// Host seconds the phase took.
    elapsed_s: f64,
    /// Per op: plane queue wait (submit → start), seconds.
    queue_wait_s: Vec<f64>,
    rounds: usize,
    /// Per round (one op, or one plane batch): host seconds, probes
    /// excluded.
    round_s: Vec<f64>,
}

/// Runs ops until `seconds` pass (`limit == None`), or exactly `limit`
/// ops/rounds. With `host`, a probe runs before every op (serial) or
/// round (on every plane thread), outside the op's own timing. With `fold`, each result
/// is handed to it (with its op index) as it lands instead of kept, so
/// memory does not grow with the number of ops.
fn sim_phase(
    pool: &Arc<Vec<SimOp>>,
    parallel: bool,
    seconds: f64,
    limit: Option<usize>,
    traced: bool,
    mut host: Option<&mut HostSpeed>,
    mut fold: Option<&mut dyn FnMut(usize, OpResult)>,
) -> Phase {
    let start = Instant::now();
    let mut results = Vec::new();
    let mut wall_s = Vec::new();
    let mut queue_wait_s = Vec::new();
    let mut round_s = Vec::new();
    let mut rounds = 0;
    loop {
        let done = match limit {
            Some(l) => rounds >= l,
            None => start.elapsed().as_secs_f64() >= seconds && rounds > 0,
        };
        if done {
            break;
        }
        match host.as_deref_mut() {
            Some(h) if parallel => h.sample_on_plane(dr_bench::plane::thread_count()),
            Some(h) => h.sample(),
            None => {}
        }
        let round_start = Instant::now();
        let first = wall_s.len();
        let batch = if parallel {
            let submit = trace::clock_ns();
            let batch = run_round(pool, rounds, traced);
            queue_wait_s.extend(
                batch
                    .iter()
                    .map(|r| r.start_ns.saturating_sub(submit) as f64 * 1e-9),
            );
            batch
        } else {
            run_serial(pool, rounds..rounds + 1, traced)
        };
        round_s.push(round_start.elapsed().as_secs_f64());
        for (j, r) in batch.into_iter().enumerate() {
            wall_s.push(r.wall_s);
            match fold.as_deref_mut() {
                Some(f) => f(first + j, r),
                None => results.push(r),
            }
        }
        rounds += 1;
    }
    Phase {
        results,
        wall_s,
        elapsed_s: start.elapsed().as_secs_f64(),
        queue_wait_s,
        rounds,
        round_s,
    }
}

/// The pool maker of a simulator workload, and whether its ops run as
/// plane batches.
fn sim_workload(workload: &str) -> (fn(u64) -> Vec<SimOp>, bool) {
    match workload {
        "committee" => (sims::committee_pool, false),
        "two-cycle-wide" => (sims::two_cycle_pool, false),
        _ => (sims::chaos_pool, true),
    }
}

/// The key a workload's exact values are kept under for `seed`.
fn sim_key(workload: &str, seed: u64) -> String {
    format!("{workload} seed={seed}")
}

fn serve_key(seed: u64, seconds: f64) -> String {
    format!("serve-skewed seed={seed} seconds={seconds}")
}

/// The exact totals a serving pass over `reqs` must reproduce.
fn serve_value(requests: usize, upstream_bits: u64) -> String {
    format!("requests={requests} upstream_bits={upstream_bits}")
}

/// `--print-expected`: the committed-table lines for `args.seed`, made by
/// running every op of the pool (chaos: through the replica, whose
/// report carries Q, M and T).
fn print_expected(args: &Args) {
    if args.workload == "serve-skewed" {
        for seconds in [args.seconds, args.seconds / 2.0] {
            let (reqs, n) = serve::schedule(args.seed, seconds);
            let bits = 64 * serve::unique_words(&reqs, n);
            let value = serve_value(reqs.len(), bits);
            println!(
                "{}",
                record::table_line(&serve_key(args.seed, seconds), &[value])
            );
        }
        return;
    }
    let (pool_of, parallel) = sim_workload(&args.workload);
    let pool = Arc::new(pool_of(args.seed));
    let p = Arc::clone(&pool);
    let results = dr_bench::plane::run_indexed(pool.len(), move |i| {
        if parallel {
            p[i].replica()
        } else {
            p[i].run(i as u32, false)
        }
    });
    let values: Vec<String> = results
        .iter()
        .map(|r| match &r.failure {
            Some(f) => panic!("op {}: {f}", r.expected()),
            None => r.expected(),
        })
        .collect();
    println!(
        "{}",
        record::table_line(&sim_key(&args.workload, args.seed), &values)
    );
}

fn run_sims(args: &Args, expected: &mut Expected) -> Outcome {
    let (pool_of, parallel) = sim_workload(&args.workload);
    let threads = if parallel {
        dr_bench::plane::thread_count()
    } else {
        1
    };
    let key = sim_key(&args.workload, args.seed);
    let mut out = Outcome::new();

    // Set-up: make the op inputs and warm up. Committee and two-cycle
    // build (unrun) each op's simulation and run one op; the sweep runs
    // the replica of every grid op on the plane, whose reports complete
    // the timed `run_case` results.
    let mut setup_probes = HostSpeed::default();
    let mut setups = Vec::with_capacity(SETUP_PASSES);
    let mut pool = Arc::new(Vec::new());
    let mut warm = Vec::new();
    for _ in 0..SETUP_PASSES {
        if parallel {
            setup_probes.sample_on_plane(threads);
        } else {
            setup_probes.sample();
        }
        let t = Instant::now();
        pool = Arc::new(pool_of(args.seed));
        warm = if parallel {
            let p = Arc::clone(&pool);
            dr_bench::plane::run_indexed(pool.len(), move |i| p[i].replica())
        } else {
            for op in pool.iter() {
                op.build_only();
            }
            run_serial(&pool, 0..1, false)
        };
        setups.push(t.elapsed().as_secs_f64());
    }
    check_ops(&key, &pool, &warm, expected, &mut out);
    // The replica's reports, per pool op (chaos only).
    let replicas = if parallel { warm } else { Vec::new() };

    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // The timed ops are checked and folded as they land.
    let mut probes = HostSpeed::default();
    let mut tally = Tally::new(pool.len());
    let mut fold = |i: usize, mut r: OpResult| {
        let at = i % pool.len();
        if let Some(rep) = replicas.get(at) {
            complete_chaos(&pool[at], rep, &mut r, &mut out);
        }
        check_op(&key, &pool[at], at, &r, expected, &mut out);
        tally.add(at, r);
    };
    let plain = sim_phase(
        &pool,
        parallel,
        phase_s,
        None,
        false,
        Some(&mut probes),
        Some(&mut fold),
    );

    // Every time here is CPU work of the program and is scaled to the
    // reference host speed (see `host`): an op or round by the probes
    // next to it, set-up by the set-up passes' own probes.
    let factors = probes.local_factors();
    let per_round = if parallel { pool.len() } else { 1 };
    let lat_ms: Vec<f64> = plain.wall_s.iter().map(|w| w * 1e3).collect();
    let scaled_ms: Vec<f64> = lat_ms
        .iter()
        .enumerate()
        .map(|(i, l)| l * factors[i / per_round])
        .collect();
    let busy_s: f64 = plain.round_s.iter().sum();
    let scaled_busy_s: f64 = plain.round_s.iter().zip(&factors).map(|(d, f)| d * f).sum();
    let raw_tail = tail(&lat_ms, stats::TAIL_CAP);
    out.tail = tail(&scaled_ms, stats::TAIL_CAP);
    let n_ops = lat_ms.len() as f64;
    let raw = [
        median(&setups),
        n_ops / busy_s,
        median(&lat_ms),
        raw_tail.value,
    ];
    // Q, M and T are means over the pool (each op once), so they repeat
    // exactly for a seed however many ops a run completes.
    let [q, mm, t] = tally.pool_sums();
    let covered = tally.covered() as f64;
    out.end_to_end = vec![
        m("setup_s", setup_probes.scale_time(raw[0]), "s"),
        m("throughput_ops_per_s", n_ops / scaled_busy_s, "ops/s"),
        m("latency_ms.p50", median(&scaled_ms), "ms"),
        m("latency_ms.tail", out.tail.value, "ms"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
        m("q_bits_per_op", q / covered, "bits"),
    ];
    out.extra = host_metrics(&probes, &raw);
    out.extra
        .push(m("host.setup_probe_ms", setup_probes.probe_ms(), "ms"));
    out.extra.extend([
        m("ops", n_ops, "count"),
        m(
            "error_rate",
            ratio(out.failed as f64, out.attempted as f64),
            "ratio",
        ),
        m("sim_events_per_s", ratio(tally.events, tally.run_s), "ev/s"),
        m("q_max", q / covered, "bits"),
        m("messages_m", mm / covered, "packets"),
        m("virtual_time_t", t / covered, "units"),
        m("pool_ops", pool.len() as f64, "count"),
        m("pool_ops_covered", covered, "count"),
        m("threads", threads as f64, "count"),
    ]);
    if parallel {
        // Summed over one sweep of the grid (each pool op once).
        out.extra.push(m("grid.q_max_sum", q, "bits"));
        out.extra.push(m("grid.messages_m_sum", mm, "packets"));
        out.extra.push(m("grid.virtual_time_t_sum", t, "units"));
    }

    if args.trace {
        let limit = if parallel {
            plain.rounds
        } else {
            plain.wall_s.len()
        };
        let traced = if parallel {
            sim_phase(&pool, true, 0.0, Some(limit), true, None, None)
        } else {
            let start = Instant::now();
            let results = run_serial(&pool, 0..limit, true);
            Phase {
                round_s: results.iter().map(|r| r.wall_s).collect(),
                wall_s: results.iter().map(|r| r.wall_s).collect(),
                results,
                elapsed_s: start.elapsed().as_secs_f64(),
                queue_wait_s: Vec::new(),
                rounds: limit,
            }
        };
        // Traced and untraced runs of the same op must agree exactly.
        for (i, b) in traced.results.iter().enumerate() {
            let Some(a) = &tally.per_pool[i % pool.len()] else {
                continue;
            };
            if a.expected() != b.expected() {
                out.attempted += 1;
                out.fail(format!(
                    "{}: traced {} != untraced {}",
                    pool[i % pool.len()].label(),
                    b.expected(),
                    a.expected()
                ));
            }
        }
        check_ops(&key, &pool, &traced.results, expected, &mut out);
        out.per_layer = sim_layers(&plain, &traced, threads);
        out.spans = traced
            .results
            .first()
            .map(|r| r.spans.clone())
            .unwrap_or_default();
    }
    out
}

/// The timed ops of an untraced phase, folded as they land.
struct Tally {
    /// Per pool op, its first result (spans dropped).
    per_pool: Vec<Option<OpResult>>,
    events: f64,
    /// Host seconds inside `Simulation::run` (chaos: `run_case`).
    run_s: f64,
}

impl Tally {
    fn new(pool: usize) -> Self {
        Tally {
            per_pool: vec![None; pool],
            events: 0.0,
            run_s: 0.0,
        }
    }

    fn add(&mut self, at: usize, r: OpResult) {
        self.events += r.events as f64;
        self.run_s += r.run_s;
        self.per_pool[at].get_or_insert(r);
    }

    /// Pool ops that ran at least once.
    fn covered(&self) -> usize {
        self.per_pool.iter().flatten().count()
    }

    /// Q, M and T summed over the pool ops that ran.
    fn pool_sums(&self) -> [f64; 3] {
        self.per_pool
            .iter()
            .flatten()
            .fold([0.0; 3], |[q, m, t], r| {
                [q + r.q as f64, m + r.m as f64, t + r.t]
            })
    }
}

/// Completes an untraced `run_case` result with the replica's report of
/// the same op, after checking that both agree on the fingerprint.
fn complete_chaos(op: &SimOp, replica: &OpResult, r: &mut OpResult, out: &mut Outcome) {
    if r.failure.is_none() && r.fingerprint != replica.fingerprint {
        out.attempted += 1;
        out.fail(format!(
            "{}: run_case fingerprint {:016x} != replica {:016x}",
            op.label(),
            r.fingerprint,
            replica.fingerprint
        ));
    }
    r.complete_from(replica);
}

/// Counts every op and checks its verdict and its exact values against
/// the committed table (or the local store).
fn check_ops(
    key: &str,
    pool: &[SimOp],
    results: &[OpResult],
    expected: &mut Expected,
    out: &mut Outcome,
) {
    for (i, r) in results.iter().enumerate() {
        let at = i % pool.len();
        check_op(key, &pool[at], at, r, expected, out);
    }
}

/// Counts op `at` of the pool and checks its result.
fn check_op(
    key: &str,
    op: &SimOp,
    at: usize,
    r: &OpResult,
    expected: &mut Expected,
    out: &mut Outcome,
) {
    out.attempted += 1;
    if let Some(v) = &r.failure {
        out.fail(format!("{}: {v}", op.label()));
        return;
    }
    if let Check::Mismatch(want) = expected.check(key, at, &r.expected()) {
        out.fail(format!("{}: {} != {want}", op.label(), r.expected()));
    }
}

/// Per-layer values that do not come from spans; zero where a workload
/// has no such layer.
#[derive(Default)]
struct Counters {
    /// Per op.
    events: f64,
    peak_queue_len: f64,
    peak_slab_len: f64,
    /// Per op.
    parked: f64,
    drops: f64,
    retransmissions: f64,
    lost: f64,
    deferred: f64,
    delivery_ratio: f64,
    plane_jobs: f64,
    /// Mean submit-to-start wait per job.
    plane_queue_wait_s: f64,
    /// Busy seconds per worker.
    plane_busy_s: f64,
    plane_utilization: f64,
    /// Whole traced pass, warm-up included.
    cache: dr_core::CacheStats,
    /// Means per request.
    front_door_queued_s: f64,
    front_door_service_s: f64,
    /// Traced median op latency over untraced, minus one.
    overhead_ratio: f64,
}

/// The per-layer metrics of `BENCHMARK.json`: span totals averaged per
/// op, plus the workload's counters.
fn per_layer(t: &LayerTotals, ops: f64, c: &Counters) -> Vec<Metric> {
    let per = |v: f64| v / ops;
    let calls = |l: Layer| per(t.calls(l) as f64);
    let k = &c.cache;
    vec![
        m("op.wall_s", per(t.busy(Layer::Op)), "s"),
        m("unattributed_s", per(t.self_time(Layer::Op)), "s"),
        m("protocols.handler.calls", calls(Layer::Handler), "count"),
        m(
            "protocols.handler.self_s",
            per(t.self_time(Layer::Handler)),
            "s",
        ),
        m(
            "protocols.handler.ns_per_call",
            ratio(
                t.self_time(Layer::Handler) * 1e9,
                t.calls(Layer::Handler) as f64,
            ),
            "ns",
        ),
        m("sim.pump.self_s", per(t.self_time(Layer::Run)), "s"),
        m("sim.pump.events", c.events, "count"),
        m(
            "sim.pump.ns_per_event",
            ratio(per(t.self_time(Layer::Run)) * 1e9, c.events),
            "ns",
        ),
        m("sim.pump.peak_queue_len", c.peak_queue_len, "count"),
        m("sim.pump.peak_slab_len", c.peak_slab_len, "count"),
        m("sim.send.calls", calls(Layer::Send), "count"),
        m("sim.send.bits", per(t.units(Layer::Send) as f64), "bits"),
        m("sim.send.busy_s", per(t.busy(Layer::Send)), "s"),
        m("core.query.calls", calls(Layer::Query), "count"),
        m("core.query.bits", per(t.units(Layer::Query) as f64), "bits"),
        m("core.query.busy_s", per(t.self_time(Layer::Query)), "s"),
        m("core.source.busy_s", per(t.busy(Layer::Source)), "s"),
        m("sim.adversary.calls", calls(Layer::Adversary), "count"),
        m("sim.adversary.busy_s", per(t.busy(Layer::Adversary)), "s"),
        m("sim.linkfault.parked", c.parked, "count"),
        m("sim.linkfault.drops", c.drops, "count"),
        m("sim.linkfault.retransmissions", c.retransmissions, "count"),
        m("sim.linkfault.lost", c.lost, "count"),
        m("sim.linkfault.deferred", c.deferred, "count"),
        m("sim.linkfault.delivery_ratio", c.delivery_ratio, "ratio"),
        m("sim.setup.busy_s", per(t.busy(Layer::Setup)), "s"),
        m("sim.verify.busy_s", per(t.busy(Layer::Verify)), "s"),
        m("bench.plane.jobs", c.plane_jobs, "count"),
        m("bench.plane.queue_wait_s", c.plane_queue_wait_s, "s"),
        m("bench.plane.busy_s", c.plane_busy_s, "s"),
        m("bench.plane.utilization", c.plane_utilization, "ratio"),
        m("core.cache.hits", k.hits as f64, "count"),
        m("core.cache.misses", k.misses as f64, "count"),
        m("core.cache.coalesced", k.coalesced as f64, "count"),
        m(
            "core.cache.hit_ratio",
            ratio(k.hits as f64, (k.hits + k.misses) as f64),
            "ratio",
        ),
        m(
            "core.cache.upstream_calls",
            k.upstream_calls as f64,
            "count",
        ),
        m("core.cache.upstream_bits", k.upstream_bits as f64, "bits"),
        m(
            "core.cache.resident_words",
            k.resident_words as f64,
            "words",
        ),
        m("runtime.front_door.queued_s", c.front_door_queued_s, "s"),
        m("runtime.front_door.service_s", c.front_door_service_s, "s"),
        m(
            "runtime.front_door.self_s",
            per(t.self_time(Layer::FrontDoor)),
            "s",
        ),
        m("trace.overhead_ratio", c.overhead_ratio, "ratio"),
    ]
}

fn sim_layers(plain: &Phase, traced: &Phase, threads: usize) -> Vec<Metric> {
    let mut t = LayerTotals::default();
    for r in &traced.results {
        t.add_op(&r.spans);
    }
    let ops = traced.results.len().max(1) as f64;
    let sum = |f: &dyn Fn(&OpResult) -> u64| traced.results.iter().map(f).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&OpResult) -> u64| traced.results.iter().map(f).max().unwrap_or(0) as f64;
    let lat = |p: &Phase| median(&p.wall_s);
    // Deliveries over transmission attempts (originals plus resends).
    let attempts = sum(&|r| r.m) + sum(&|r| r.retransmissions);
    let mut c = Counters {
        events: sum(&|r| r.events) / ops,
        peak_queue_len: max(&|r| r.peak_queue_len),
        peak_slab_len: max(&|r| r.peak_slab_len),
        parked: sum(&|r| r.parked) / ops,
        drops: sum(&|r| r.drops) / ops,
        retransmissions: sum(&|r| r.retransmissions) / ops,
        lost: sum(&|r| r.lost) / ops,
        deferred: sum(&|r| r.deferred) / ops,
        delivery_ratio: ratio(attempts - sum(&|r| r.drops), attempts),
        overhead_ratio: ratio(lat(traced), lat(plain)) - 1.0,
        ..Counters::default()
    };
    if !traced.queue_wait_s.is_empty() {
        let busy: f64 = traced.results.iter().map(|r| r.wall_s).sum();
        c.plane_jobs = traced.results.len() as f64;
        c.plane_queue_wait_s = traced.queue_wait_s.iter().sum::<f64>() / c.plane_jobs;
        c.plane_busy_s = busy / threads as f64;
        c.plane_utilization = ratio(busy, threads as f64 * traced.elapsed_s);
    }
    per_layer(&t, ops, &c)
}

/// The tail rule's cap on the serving workload. Its reference rung is
/// ~94% cache hits, so p98 sits among the cold fills; 0.3–1% of its
/// requests meet a 1–5 ms host stall, which would decide p99.
const SERVE_TAIL_CAP: f64 = 98.0;

fn run_serve(args: &Args, ncpu: usize, expected: &mut Expected) -> Outcome {
    let workers = ncpu;
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut setups = Vec::with_capacity(SETUP_PASSES);
    let mut setup = None;
    for _ in 0..SETUP_PASSES {
        let t = Instant::now();
        setup = Some(serve::setup(args.seed, phase_s));
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up pass");
    let plain = serve::run_pass(&setup, workers, false);
    let mut out = Outcome::new();
    let unique = serve::unique_words(&setup.reqs, setup.input.len());
    let key = serve_key(args.seed, phase_s);
    check_pass(&plain, unique, &key, expected, &mut out);

    let reqs = setup.reqs.len() as f64;
    // Amortised upstream bits per timed request (warm-up fills excluded).
    let q_per_request = (plain.cache.upstream_bits - setup.warm_bits) as f64 / reqs;
    // The program's share of every time (all but the source's modelled
    // round trips) is scaled to the reference host speed (see `host`)
    // by worker 0's probes next to it (worker 0 serves the reference
    // rung).
    let factor = |s: &serve::Served| plain.probes.factor_at(s.start_ns);
    let on_reference = |f: &dyn Fn(&serve::Served) -> f64| -> Vec<f64> {
        let ref_rung = plain
            .served
            .iter()
            .filter(|s| s.rung == serve::REFERENCE_RUNG);
        ref_rung.map(f).collect()
    };
    let reference = on_reference(&|s| s.latency_ns() as f64 * 1e-6);
    let scaled = on_reference(&|s| s.scaled_latency_ns(factor(s)) * 1e-6);
    let raw_tail = tail(&reference, SERVE_TAIL_CAP);
    out.tail = tail(&scaled, SERVE_TAIL_CAP);
    // Lateness of requests a worker was free for before they were due.
    let mut lag_ms: Vec<f64> = plain
        .served
        .iter()
        .filter(|s| s.early)
        .map(|s| s.start_ns.saturating_sub(s.due_ns) as f64 * 1e-6)
        .collect();
    lag_ms.sort_by(f64::total_cmp);
    let raw = [
        median(&setups),
        plain.capacity_rps(),
        median(&reference),
        raw_tail.value,
    ];
    // Set-up (mostly the warm-up's round trips and input generation) and
    // the capacity (two thirds round trips, on every core) are reported
    // as measured.
    out.end_to_end = vec![
        m("setup_s", raw[0], "s"),
        m("throughput_ops_per_s", raw[1], "ops/s"),
        m("latency_ms.p50", median(&scaled), "ms"),
        m("latency_ms.tail", out.tail.value, "ms"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
        m("q_bits_per_op", q_per_request, "bits"),
    ];
    out.extra = host_metrics(&plain.probes, &raw);
    // The highest rung of the passing prefix of the paced ladder.
    let rung_s = serve::rung_seconds(phase_s);
    let mut max_rate = 0.0;
    let mut sustained = true;
    for (rung, &rate) in serve::LADDER.iter().enumerate() {
        let mut lat: Vec<f64> = plain
            .served
            .iter()
            .filter(|s| s.rung == rung)
            .map(|s| s.latency_ns() as f64 * 1e-6)
            .collect();
        lat.sort_by(f64::total_cmp);
        let p99 = stats::percentile_sorted(&lat, 99.0);
        let start = serve::rung_start_s(rung, phase_s);
        let mid = plain.backlog(((start + 0.5 * rung_s) * 1e9) as u64);
        let end = plain.backlog(((start + rung_s) * 1e9) as u64 - 1);
        // A growing backlog: more waiting at the rung's end than at its
        // middle, beyond a 10 ms slack of arrivals.
        let growing = end > mid + (rate * 0.01) as u64;
        sustained &= p99 <= serve::P99_LIMIT_MS && !growing;
        if sustained {
            max_rate = rate;
        }
        out.extra.push(m(
            rung_name(rung, "p50_ms"),
            stats::percentile_sorted(&lat, 50.0),
            "ms",
        ));
        out.extra.push(m(rung_name(rung, "p99_ms"), p99, "ms"));
        out.extra
            .push(m(rung_name(rung, "backlog_end"), end as f64, "count"));
    }
    out.extra.extend([
        m(
            "error_rate",
            ratio(out.failed as f64, out.attempted as f64),
            "ratio",
        ),
        m("q_per_request", q_per_request, "bits"),
        m("serve_max_rate_rps", max_rate, "req/s"),
        m(
            "generator_lag_ms.p99",
            stats::percentile_sorted(&lag_ms, 99.0),
            "ms",
        ),
        m(
            "reference_rate_rps",
            serve::LADDER[serve::REFERENCE_RUNG],
            "req/s",
        ),
        m("p99_limit_ms", serve::P99_LIMIT_MS, "ms"),
        m("requests", reqs, "count"),
        m(
            "burst_requests",
            plain
                .served
                .iter()
                .filter(|s| s.rung == serve::BURST_RUNG)
                .count() as f64,
            "count",
        ),
        m("workers", workers as f64, "count"),
        m("unique_words", unique as f64, "words"),
        m(
            "cache.hit_ratio",
            ratio(
                plain.cache.hits as f64,
                (plain.cache.hits + plain.cache.misses) as f64,
            ),
            "ratio",
        ),
    ]);

    if args.trace {
        let traced_setup = serve::rebuild(&setup, true);
        let traced = serve::run_pass(&traced_setup, workers, true);
        check_pass(&traced, unique, &key, expected, &mut out);
        let ops = reference.len() as f64;
        let on_ref = |p: &'_ serve::Pass| -> Vec<serve::Served> {
            let ref_rung = p.served.iter().filter(|s| s.rung == serve::REFERENCE_RUNG);
            ref_rung.copied().collect()
        };
        let (ref_traced, ref_plain) = (on_ref(&traced), on_ref(&plain));
        let mean_s = |f: &dyn Fn(&serve::Served) -> u64| {
            ref_traced.iter().map(|s| f(s) as f64).sum::<f64>() / ops * 1e-9
        };
        let lat_med = |v: &[serve::Served]| {
            median(&v.iter().map(|s| s.latency_ns() as f64).collect::<Vec<_>>())
        };
        let c = Counters {
            cache: traced.cache,
            front_door_queued_s: mean_s(&|s| s.queued_ns),
            front_door_service_s: mean_s(&|s| s.service_ns),
            overhead_ratio: ratio(lat_med(&ref_traced), lat_med(&ref_plain)) - 1.0,
            ..Counters::default()
        };
        out.per_layer = per_layer(&traced.layers, ops, &c);
        out.spans = traced.sample_spans;
    }
    out
}

fn rung_name(rung: usize, what: &str) -> String {
    format!("serve.rung{rung}_{}.{what}", serve::LADDER[rung] as u64)
}

/// Checks one serving pass: every response, the exactly-once upstream
/// identity, and the exact totals against the committed table.
fn check_pass(p: &serve::Pass, unique: u64, key: &str, expected: &mut Expected, out: &mut Outcome) {
    for (i, s) in p.served.iter().enumerate() {
        out.attempted += 1;
        if !s.ok {
            out.fail(format!("request {i}: returned bits differ from the source"));
        }
    }
    out.attempted += 1;
    if p.cache.upstream_bits != 64 * unique || p.upstream_bits != p.cache.upstream_bits {
        out.fail(format!(
            "upstream bits: cache {} / source {} != 64 x {unique} unique words",
            p.cache.upstream_bits, p.upstream_bits
        ));
    }
    let value = serve_value(p.served.len(), p.cache.upstream_bits);
    if let Check::Mismatch(want) = expected.check(key, 0, &value) {
        out.attempted += 1;
        out.fail(format!("{key}: {value} != {want}"));
    }
}
