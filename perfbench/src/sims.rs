//! The simulator workloads: one op is one seeded, verified simulation
//! run. Ops are built from the repository's public API; with `traced`
//! set, every agent, the adversary and the source are wrapped in the
//! timing shims of [`crate::trace`], which change no decision of the run.

use crate::gen::derive;
use crate::trace::{self, Layer, Span, TimedAdversary, TimedAgent, TimedSource};
use dr_bench::chaos::{AdversaryKind, CaseConfig, ProtocolKind};
use dr_bench::runners::{byz_params, two_cycle_segmentation};
use dr_core::{ArraySource, BitArray, FaultModel, ModelParams, PeerId, ProtocolMessage, SegmentId};
use dr_protocols::byz::strategies::{CollusionGroup, Equivocator, RandomNoise};
use dr_protocols::{
    CommitteeDownload, CostEnvelope, CrashMultiDownload, MultiCycleDownload, SingleCrashDownload,
    TwoCycleDownload,
};
use dr_sim::{
    AdaptiveCrasher, Adversary, Agent, ChaosAdversary, ChaosConfig, ChurnMixer,
    HoldUntilQuiescence, LossyLinks, PartitionHealer, RecordingAdversary, RunReport, SilentAgent,
    SimBuilder, StandardAdversary,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// `CommitteeDownload` size: (n, k, b), all `b` Byzantine peers silent.
pub const COMMITTEE: (usize, usize, usize) = (1 << 11, 32, 4);
/// `TwoCycleDownload` size: (n, k, b) under the mixed Byzantine strategy.
pub const TWO_CYCLE: (usize, usize, usize) = (1 << 18, 384, 48);
/// Distinct seeded inputs a committee run cycles through. Run time
/// varies with the seed, so a wide pool keeps the median of a run from
/// hanging on a handful of inputs.
pub const SIM_POOL: usize = 64;
/// Distinct seeded inputs a two-cycle run cycles through: few enough
/// that a 20 s run (50–80 ops) covers every one of them several times,
/// so a run measures the same inputs however fast the host is.
pub const TWO_CYCLE_POOL: usize = 16;
/// Seeds per chaos case in one sweep of the grid.
pub const CHAOS_SEEDS_PER_CASE: usize = 8;

/// What one op produced.
#[derive(Debug, Clone, Default)]
pub struct OpResult {
    /// The first failed check, if any.
    pub failure: Option<String>,
    pub fingerprint: u64,
    /// Paper Q: the largest query count of a nonfaulty peer.
    pub q: u64,
    /// Paper M: messages sent.
    pub m: u64,
    /// Paper T: virtual time in units.
    pub t: f64,
    pub events: u64,
    /// Host seconds of the whole op.
    pub wall_s: f64,
    /// Host seconds inside `Simulation::run`.
    pub run_s: f64,
    pub peak_queue_len: u64,
    pub peak_slab_len: u64,
    pub parked: u64,
    pub drops: u64,
    pub retransmissions: u64,
    pub lost: u64,
    pub deferred: u64,
    /// Trace-clock start of the op (plane queue wait).
    pub start_ns: u64,
    /// The op's spans when traced.
    pub spans: Vec<Span>,
}

impl OpResult {
    /// The exact values the same op must reproduce on every run.
    pub fn expected(&self) -> String {
        format!(
            "fp={:016x} q={} m={} t={:.6}",
            self.fingerprint, self.q, self.m, self.t
        )
    }
}

/// One op of a simulator workload.
#[derive(Debug, Clone)]
pub enum SimOp {
    Committee { seed: u64, input: BitArray },
    TwoCycle { seed: u64, input: BitArray },
    Chaos { case: CaseConfig, seed: u64 },
}

impl SimOp {
    /// Stable label keying the op's expected values.
    pub fn label(&self) -> String {
        match self {
            SimOp::Committee { seed, .. } => {
                let (n, k, b) = COMMITTEE;
                format!("committee n={n} k={k} b={b} seed={seed}")
            }
            SimOp::TwoCycle { seed, .. } => {
                let (n, k, b) = TWO_CYCLE;
                format!("two-cycle n={n} k={k} b={b} mixed seed={seed}")
            }
            SimOp::Chaos { case, seed } => format!("chaos {case} seed={seed}"),
        }
    }

    /// Runs the op, recording spans under op id `op` when `traced`. An
    /// untraced chaos op is `dr_bench::chaos::run_case` itself, which
    /// returns the fingerprint and the verdict only; a traced one is the
    /// replica ([`SimOp::replica`]) with its seams wrapped.
    pub fn run(&self, op: u32, traced: bool) -> OpResult {
        let start = Instant::now();
        if traced {
            trace::begin_op(op, trace::ns_of(start));
        }
        let mut out = match self {
            SimOp::Committee { seed, input } => committee(*seed, input, traced, false),
            SimOp::TwoCycle { seed, input } => two_cycle(*seed, input, traced, false),
            SimOp::Chaos { case, seed } if traced => chaos(case, *seed, true),
            SimOp::Chaos { case, seed } => via_run_case(case, *seed),
        };
        if traced {
            out.spans = trace::end_op();
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out.start_ns = trace::ns_of(start);
        out
    }

    /// A chaos op run through the replica of `run_case`, untraced: its
    /// full report (Q, M, T, events, link-fault counters), which
    /// `run_case` does not return.
    pub fn replica(&self) -> OpResult {
        let SimOp::Chaos { case, seed } = self else {
            unreachable!("only chaos ops have a replica")
        };
        chaos(case, *seed, false)
    }

    /// Constructs the op's simulation (`SimBuilder::build`) and drops it
    /// unrun: the per-op share of set-up.
    pub fn build_only(&self) {
        match self {
            SimOp::Committee { seed, input } => committee(*seed, input, false, true),
            SimOp::TwoCycle { seed, input } => two_cycle(*seed, input, false, true),
            SimOp::Chaos { .. } => unreachable!("the sweep's set-up runs the replica instead"),
        };
    }
}

fn random_input(n: usize, seed: u64) -> BitArray {
    BitArray::random(n, &mut StdRng::seed_from_u64(seed))
}

/// The committee workload's ops for `seed`.
pub fn committee_pool(seed: u64) -> Vec<SimOp> {
    (0..SIM_POOL as u64)
        .map(|i| {
            let s = derive(seed, i);
            SimOp::Committee {
                seed: s,
                input: random_input(COMMITTEE.0, derive(s, 1)),
            }
        })
        .collect()
}

/// The two-cycle workload's ops for `seed`.
pub fn two_cycle_pool(seed: u64) -> Vec<SimOp> {
    (0..TWO_CYCLE_POOL as u64)
        .map(|i| {
            let s = derive(seed, 100 + i);
            SimOp::TwoCycle {
                seed: s,
                input: random_input(TWO_CYCLE.0, derive(s, 1)),
            }
        })
        .collect()
}

/// The chaos sweep's ops for `seed`: every default case, each under
/// [`CHAOS_SEEDS_PER_CASE`] derived seeds.
pub fn chaos_pool(seed: u64) -> Vec<SimOp> {
    let cases = dr_bench::chaos::default_cases();
    let mut ops = Vec::with_capacity(cases.len() * CHAOS_SEEDS_PER_CASE);
    for j in 0..CHAOS_SEEDS_PER_CASE as u64 {
        for (c, case) in cases.iter().enumerate() {
            ops.push(SimOp::Chaos {
                case: *case,
                seed: derive(seed, 1_000 + j * 1_000 + c as u64),
            });
        }
    }
    ops
}

fn with_source<M: ProtocolMessage>(
    b: SimBuilder<M>,
    input: &BitArray,
    traced: bool,
) -> SimBuilder<M> {
    let source = ArraySource::new(input.clone());
    if traced {
        b.source(TimedSource(source), input.clone())
    } else {
        b.source(source, input.clone())
    }
}

fn honest<M, P, F>(b: SimBuilder<M>, traced: bool, f: F) -> SimBuilder<M>
where
    M: ProtocolMessage,
    P: Agent<M> + 'static,
    F: Fn() -> P + Send + 'static,
{
    if traced {
        b.protocol(move |_| TimedAgent(f()))
    } else {
        b.protocol(move |_| f())
    }
}

fn byzantine<M: ProtocolMessage>(
    b: SimBuilder<M>,
    traced: bool,
    id: usize,
    agent: impl Agent<M> + 'static,
) -> SimBuilder<M> {
    if traced {
        b.byzantine(PeerId(id), TimedAgent(agent))
    } else {
        b.byzantine(PeerId(id), agent)
    }
}

fn adversary<M: ProtocolMessage>(
    b: SimBuilder<M>,
    traced: bool,
    adv: impl Adversary<M> + 'static,
) -> SimBuilder<M> {
    if traced {
        b.adversary(TimedAdversary(adv))
    } else {
        b.adversary(adv)
    }
}

/// Builds, runs and verifies one simulation; `check` adds the workload's
/// own invariants to `verify_downloads`.
fn run_sim<M: ProtocolMessage>(
    builder: SimBuilder<M>,
    input: &BitArray,
    build_only: bool,
    check: impl FnOnce(&RunReport) -> Result<(), String>,
) -> OpResult {
    let sim = trace::span(Layer::Setup, || builder.build());
    if build_only {
        return OpResult::default();
    }
    let t0 = Instant::now();
    let run = trace::span(Layer::Run, || sim.run());
    let run_s = t0.elapsed().as_secs_f64();
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            return OpResult {
                failure: Some(format!("termination: {e}")),
                run_s,
                ..OpResult::default()
            }
        }
    };
    let failure = trace::span(Layer::Verify, || {
        report
            .verify_downloads(input)
            .map_err(|v| format!("download: {v}"))
            .and_then(|()| check(&report))
            .err()
    });
    OpResult {
        failure,
        fingerprint: report.fingerprint(),
        q: report.max_nonfaulty_queries,
        m: report.messages_sent,
        t: report.virtual_time_units,
        events: report.events,
        run_s,
        peak_queue_len: report.peak_queue_len,
        peak_slab_len: report.peak_slab_len,
        parked: report.parked_messages,
        drops: report.link_drops,
        retransmissions: report.retransmissions,
        lost: report.messages_lost,
        deferred: report.deferred_deliveries,
        ..OpResult::default()
    }
}

fn committee(seed: u64, input: &BitArray, traced: bool, build_only: bool) -> OpResult {
    let (n, k, b) = COMMITTEE;
    let mut builder = SimBuilder::new(byz_params(n, k, b)).seed(seed);
    builder = with_source(builder, input, traced);
    builder = honest(builder, traced, move || CommitteeDownload::new(n, k, b));
    builder = adversary(builder, traced, StandardAdversary::benign());
    for i in 0..b {
        builder = byzantine(builder, traced, i, SilentAgent::new());
    }
    run_sim(builder, input, build_only, |_| Ok(()))
}

fn two_cycle(seed: u64, input: &BitArray, traced: bool, build_only: bool) -> OpResult {
    let (n, k, b) = TWO_CYCLE;
    let (seg, tau) = two_cycle_segmentation(n, k, b).expect("two-cycle size uses the sampled plan");
    let mut builder = SimBuilder::new(byz_params(n, k, b)).seed(seed);
    builder = with_source(builder, input, traced);
    builder = honest(builder, traced, move || TwoCycleDownload::new(n, k, b));
    builder = adversary(builder, traced, StandardAdversary::benign());
    // Equal parts equivocators, colluders (groups of τ consecutive IDs
    // sharing a target segment and fake string) and random noise.
    for i in 0..b {
        builder = match i % 3 {
            0 => byzantine(
                builder,
                traced,
                i,
                Equivocator::new(seg, SegmentId(i % seg.count())),
            ),
            1 => {
                let group = i / tau.max(1);
                let target = SegmentId(group % seg.count());
                byzantine(
                    builder,
                    traced,
                    i,
                    CollusionGroup::new(seg, target, group as u64),
                )
            }
            _ => byzantine(builder, traced, i, RandomNoise::new(seg)),
        };
    }
    run_sim(builder, input, build_only, |_| Ok(()))
}

fn fault_model(p: ProtocolKind) -> FaultModel {
    match p {
        ProtocolKind::CrashSingle | ProtocolKind::CrashMulti | ProtocolKind::Fragile => {
            FaultModel::Crash
        }
        _ => FaultModel::Byzantine,
    }
}

/// Heal horizon of the chaos grid's partition cases, in time units.
const HEAL_UNITS: u64 = 3;

/// The chaos campaign's per-case cost envelope, widened for link faults
/// exactly as the campaign widens it (T only; Q is never widened).
fn envelope(case: &CaseConfig) -> CostEnvelope {
    let (n, k, b) = (case.n, case.k, case.b);
    let mut env = match case.protocol {
        ProtocolKind::CrashSingle => SingleCrashDownload::cost_envelope(n, k),
        ProtocolKind::CrashMulti => CrashMultiDownload::cost_envelope(n, k, b),
        ProtocolKind::Committee => CommitteeDownload::cost_envelope(n, k, b),
        ProtocolKind::TwoCycle => TwoCycleDownload::cost_envelope(n, k, b),
        ProtocolKind::MultiCycle => MultiCycleDownload::cost_envelope(n, k, b),
        ProtocolKind::Fragile => unreachable!("the fragile fixture is not in the default grid"),
    };
    match case.adversary {
        AdversaryKind::PartitionHealer => env.t_link_slack += HEAL_UNITS as f64 + 1.0,
        AdversaryKind::LossyLinks => env.t_per_retry += 3.0,
        AdversaryKind::ChurnMixer => env.t_link_slack += 0.5 * case.churner_count() as f64 + 3.0,
        _ => {}
    }
    env
}

fn chaos_adversary<M: ProtocolMessage>(case: &CaseConfig, seed: u64) -> Box<dyn Adversary<M>> {
    let budget = case.crash_budget();
    match case.adversary {
        AdversaryKind::AdaptiveCrash => Box::new(AdaptiveCrasher::new(budget, 1)),
        AdversaryKind::HoldHeavy => Box::new(HoldUntilQuiescence::new(0.3, 2)),
        AdversaryKind::ChaosMild => Box::new(ChaosAdversary::new(seed, ChaosConfig::mild(budget))),
        AdversaryKind::ChaosAggressive => {
            Box::new(ChaosAdversary::new(seed, ChaosConfig::aggressive(budget)))
        }
        AdversaryKind::PartitionHealer => Box::new(PartitionHealer::new(case.k, seed, HEAL_UNITS)),
        AdversaryKind::LossyLinks => {
            Box::new(LossyLinks::new(seed, case.effective_drop_permille()))
        }
        AdversaryKind::ChurnMixer => Box::new(ChurnMixer::new(case.k, seed, case.churner_count())),
    }
}

/// One chaos case-run, built the way `dr_bench::chaos::run_case` builds
/// it (recorded adversary, silent Byzantine half-budget, all four
/// invariants) from the public seams, so the traced pass can wrap them.
/// The untraced pass times `run_case` itself; every op's replica
/// fingerprint must equal `run_case`'s.
fn chaos(case: &CaseConfig, seed: u64, traced: bool) -> OpResult {
    let (n, k, b) = (case.n, case.k, case.b);
    match case.protocol {
        ProtocolKind::CrashSingle => {
            chaos_exec(case, seed, traced, move || SingleCrashDownload::new(n, k))
        }
        ProtocolKind::CrashMulti => {
            chaos_exec(case, seed, traced, move || CrashMultiDownload::new(n, k, b))
        }
        ProtocolKind::Committee => {
            chaos_exec(case, seed, traced, move || CommitteeDownload::new(n, k, b))
        }
        ProtocolKind::TwoCycle => {
            chaos_exec(case, seed, traced, move || TwoCycleDownload::new(n, k, b))
        }
        ProtocolKind::MultiCycle => {
            chaos_exec(case, seed, traced, move || MultiCycleDownload::new(n, k, b))
        }
        ProtocolKind::Fragile => unreachable!("the fragile fixture is not in the default grid"),
    }
}

fn chaos_exec<M, P, F>(case: &CaseConfig, seed: u64, traced: bool, f: F) -> OpResult
where
    M: ProtocolMessage,
    P: Agent<M> + 'static,
    F: Fn() -> P + Send + 'static,
{
    let params = ModelParams::builder(case.n, case.k)
        .faults(fault_model(case.protocol), case.b)
        .build()
        .expect("valid chaos case params");
    // The builder's own seeded input, made explicit so the source can
    // be wrapped.
    let input = random_input(case.n, seed ^ 0x1234_5678);
    let (recorder, handle) = RecordingAdversary::new(chaos_adversary::<M>(case, seed));
    let mut builder = SimBuilder::new(params).seed(seed);
    builder = with_source(builder, &input, traced);
    builder = honest(builder, traced, f);
    builder = adversary(builder, traced, recorder);
    for i in 0..case.byz_count() {
        builder = byzantine(builder, traced, i, SilentAgent::new());
    }
    let case = *case;
    run_sim(builder, &input, false, move |report| {
        let _schedule = handle.take();
        let faults = report.crashed.len() + report.byzantine.len();
        if faults > case.b {
            return Err(format!("fault budget: {faults} faults exceed b={}", case.b));
        }
        envelope(&case)
            .check(report)
            .map_err(|v| format!("envelope: {v}"))
    })
}

/// One chaos case-run through `dr_bench::chaos::run_case`.
fn via_run_case(case: &CaseConfig, seed: u64) -> OpResult {
    let out = dr_bench::chaos::run_case(case, seed, dr_bench::chaos::AdvSource::Fresh);
    let failure = match (out.violation, out.fingerprint) {
        (Some(v), _) => Some(v),
        (None, None) => Some("run_case returned no fingerprint".into()),
        (None, Some(_)) => None,
    };
    OpResult {
        failure,
        fingerprint: out.fingerprint.unwrap_or(0),
        ..OpResult::default()
    }
}

impl OpResult {
    /// Completes an untraced chaos result with the replica's report of
    /// the same op: Q, M, T and the counters `run_case` does not return.
    /// The fingerprints must agree (checked by the caller).
    pub fn complete_from(&mut self, replica: &OpResult) {
        *self = OpResult {
            failure: self.failure.take(),
            fingerprint: self.fingerprint,
            wall_s: self.wall_s,
            run_s: self.wall_s,
            start_ns: self.start_ns,
            spans: std::mem::take(&mut self.spans),
            ..replica.clone()
        };
    }
}
