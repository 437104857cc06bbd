//! In-memory span recorder and the wrappers that time calls into the
//! program's public seams.
//!
//! Spans live in a per-thread buffer: a name (the [`Layer`]), start and
//! end on one process-wide clock, the index of the enclosing span, the op
//! they belong to, and a work count (bits for queries and sends). The
//! buffer is switched on per op with [`begin_op`] and drained with
//! [`end_op`], so an untraced run never pays more than the wrappers it
//! does not install.

use dr_core::{BitArray, Context, PeerId, ProtocolMessage, Source};
use dr_sim::Ticks;
use dr_sim::{Adversary, Agent, Delivery, HeldInfo, LinkDecision, LinkFaultPlan, Release, View};
use rand::rngs::StdRng;
use rand::RngCore;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

/// The layer a span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole op; its self time is the op's unattributed residual.
    Op,
    /// `SimBuilder::build`.
    Setup,
    /// `Simulation::run`; its self time is the event pump.
    Run,
    /// `Agent::on_start` / `Agent::on_message`.
    Handler,
    /// `Context::query` / `Context::query_range`.
    Query,
    /// `Source::bit` / `Source::bits`.
    Source,
    /// `Context::send`.
    Send,
    /// Every per-event `Adversary` hook.
    Adversary,
    /// `RunReport::verify_downloads` plus the invariant checks.
    Verify,
    /// `FrontDoor::serve`.
    FrontDoor,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 10;

impl Layer {
    /// Dense index for per-layer tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Span name used in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Setup => "sim.setup",
            Layer::Run => "sim.pump",
            Layer::Handler => "protocols.handler",
            Layer::Query => "core.query",
            Layer::Source => "core.source",
            Layer::Send => "sim.send",
            Layer::Adversary => "sim.adversary",
            Layer::Verify => "sim.verify",
            Layer::FrontDoor => "runtime.front_door",
        }
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since [`clock_ns`]'s epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same op's buffer.
    pub parent: u32,
    pub op: u32,
    /// Work done inside the span: bits for queries, sends and source
    /// reads, 0 elsewhere.
    pub units: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch.
pub fn clock_ns() -> u64 {
    ns_of(Instant::now())
}

/// `at` on the trace clock (saturating at the epoch).
pub fn ns_of(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

#[derive(Default)]
struct Recorder {
    on: bool,
    op: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts recording op `op` on this thread, opening its root span at
/// `start` (an op may begin before the thread picks it up, e.g. an
/// open-loop request timed from its due time).
pub fn begin_op(op: u32, start: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.op = op;
        r.spans.clear();
        r.stack.clear();
        r.spans.push(Span {
            layer: Layer::Op,
            start,
            end: 0,
            parent: NO_PARENT,
            op,
            units: 0,
        });
        r.stack.push(0);
    });
}

/// Closes the op's root span, stops recording and returns its spans.
pub fn end_op() -> Vec<Span> {
    let end = clock_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        r.stack.clear();
        if let Some(root) = r.spans.first_mut() {
            root.end = end;
        }
        std::mem::take(&mut r.spans)
    })
}

fn open(layer: Layer) -> Option<u32> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let idx = r.spans.len() as u32;
        let parent = r.stack.last().copied().unwrap_or(NO_PARENT);
        let op = r.op;
        r.spans.push(Span {
            layer,
            start: clock_ns(),
            end: 0,
            parent,
            op,
            units: 0,
        });
        r.stack.push(idx);
        Some(idx)
    })
}

fn close(idx: Option<u32>, units: u64) {
    let Some(idx) = idx else { return };
    let end = clock_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.stack.pop();
        let span = &mut r.spans[idx as usize];
        span.end = end;
        span.units = units;
    });
}

/// Runs `f` inside a span of `layer` (a plain call when recording is off).
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    span_units(layer, 0, f)
}

/// [`span`] carrying a work count.
pub fn span_units<R>(layer: Layer, units: u64, f: impl FnOnce() -> R) -> R {
    let idx = open(layer);
    let out = f();
    close(idx, units);
    out
}

/// An agent whose handler calls are timed, with a context whose query
/// and send calls are timed too.
pub struct TimedAgent<A>(pub A);

impl<M: ProtocolMessage, A: Agent<M>> Agent<M> for TimedAgent<A> {
    fn on_start(&mut self, ctx: &mut dyn Context<M>) {
        span(Layer::Handler, || self.0.on_start(&mut TimedCtx(ctx)));
    }

    fn on_message(&mut self, from: PeerId, msg: M, ctx: &mut dyn Context<M>) {
        span(Layer::Handler, || {
            self.0.on_message(from, msg, &mut TimedCtx(ctx))
        });
    }

    fn output(&self) -> Option<&BitArray> {
        self.0.output()
    }

    fn is_terminated(&self) -> bool {
        self.0.is_terminated()
    }
}

/// The context handed to a [`TimedAgent`]'s inner agent. `broadcast`
/// keeps the trait's default, so each of its sends is timed.
struct TimedCtx<'a, M>(&'a mut dyn Context<M>);

impl<M: ProtocolMessage> Context<M> for TimedCtx<'_, M> {
    fn me(&self) -> PeerId {
        self.0.me()
    }
    fn num_peers(&self) -> usize {
        self.0.num_peers()
    }
    fn input_len(&self) -> usize {
        self.0.input_len()
    }
    fn send(&mut self, to: PeerId, msg: M) {
        let bits = msg.bit_len() as u64;
        span_units(Layer::Send, bits, || self.0.send(to, msg));
    }
    fn query(&mut self, index: usize) -> bool {
        span_units(Layer::Query, 1, || self.0.query(index))
    }
    fn query_range(&mut self, range: Range<usize>) -> BitArray {
        let bits = range.len() as u64;
        span_units(Layer::Query, bits, || self.0.query_range(range))
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.0.rng()
    }
}

/// An adversary whose per-event hooks are timed. The build-time
/// declarations (`planned_crashes`, `parallel_safe`, `link_fault_plan`,
/// `lossy`) forward untimed.
pub struct TimedAdversary<A>(pub A);

impl<M: ProtocolMessage, A: Adversary<M>> Adversary<M> for TimedAdversary<A> {
    fn start_offset(&mut self, peer: PeerId, rng: &mut StdRng) -> Ticks {
        span(Layer::Adversary, || self.0.start_offset(peer, rng))
    }
    fn on_send(
        &mut self,
        view: &View<'_>,
        from: PeerId,
        to: PeerId,
        msg: &M,
        rng: &mut StdRng,
    ) -> Delivery {
        span(Layer::Adversary, || {
            self.0.on_send(view, from, to, msg, rng)
        })
    }
    fn on_quiescence(&mut self, view: &View<'_>, held: &[HeldInfo]) -> Release {
        span(Layer::Adversary, || self.0.on_quiescence(view, held))
    }
    fn planned_crashes(&self) -> Option<usize> {
        self.0.planned_crashes()
    }
    fn crash_before_event(&mut self, view: &View<'_>, peer: PeerId) -> bool {
        span(Layer::Adversary, || self.0.crash_before_event(view, peer))
    }
    fn crash_during_send(
        &mut self,
        view: &View<'_>,
        peer: PeerId,
        planned: usize,
    ) -> Option<usize> {
        span(Layer::Adversary, || {
            self.0.crash_during_send(view, peer, planned)
        })
    }
    fn parallel_safe(&self) -> bool {
        self.0.parallel_safe()
    }
    fn link_fault_plan(&self) -> LinkFaultPlan {
        self.0.link_fault_plan()
    }
    fn lossy(&self) -> bool {
        self.0.lossy()
    }
    fn on_transmit(
        &mut self,
        view: &View<'_>,
        from: PeerId,
        to: PeerId,
        attempt: u32,
        rng: &mut StdRng,
    ) -> LinkDecision {
        span(Layer::Adversary, || {
            self.0.on_transmit(view, from, to, attempt, rng)
        })
    }
}

/// A source whose reads are timed.
pub struct TimedSource<S>(pub S);

impl<S: Source> Source for TimedSource<S> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn bit(&self, index: usize) -> bool {
        span_units(Layer::Source, 1, || self.0.bit(index))
    }
    fn bits(&self, range: Range<usize>) -> BitArray {
        let bits = range.len() as u64;
        span_units(Layer::Source, bits, || self.0.bits(range))
    }
}

/// Per-layer totals of one or more ops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Span count per layer.
    pub calls: [u64; LAYERS],
    /// Summed span durations per layer, seconds.
    pub busy_s: [f64; LAYERS],
    /// Summed self times per layer, seconds.
    pub self_s: [f64; LAYERS],
    /// Summed work counts per layer.
    pub units: [u64; LAYERS],
}

impl LayerTotals {
    /// Folds one op's spans in: each span's self time is its duration
    /// minus the union of its children's intervals.
    pub fn add_op(&mut self, spans: &[Span]) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let i = s.layer.index();
            self.calls[i] += 1;
            self.units[i] += s.units;
            self.busy_s[i] += s.end.saturating_sub(s.start) as f64 * 1e-9;
            self.self_s[i] += crate::stats::self_time((s.start, s.end), kids) as f64 * 1e-9;
        }
    }

    /// Adds another set of totals.
    pub fn merge(&mut self, other: &LayerTotals) {
        for i in 0..LAYERS {
            self.calls[i] += other.calls[i];
            self.busy_s[i] += other.busy_s[i];
            self.self_s[i] += other.self_s[i];
            self.units[i] += other.units[i];
        }
    }

    pub fn calls(&self, l: Layer) -> u64 {
        self.calls[l.index()]
    }
    pub fn busy(&self, l: Layer) -> f64 {
        self.busy_s[l.index()]
    }
    pub fn self_time(&self, l: Layer) -> f64 {
        self.self_s[l.index()]
    }
    pub fn units(&self, l: Layer) -> u64 {
        self.units[l.index()]
    }
}

/// Writes `spans` in the Trace Event JSON format (one complete event per
/// span, microsecond timestamps), readable by Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":{},\"units\":{}}}}}",
            s.layer.name(),
            s.op,
            s.start as f64 / 1e3,
            s.end.saturating_sub(s.start) as f64 / 1e3,
            if s.parent == NO_PARENT { -1 } else { s.parent as i64 },
            s.units
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        begin_op(7, clock_ns());
        span(Layer::Handler, || {
            span_units(Layer::Query, 5, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = end_op();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].layer, Layer::Handler);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[2].units, 5);
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let mut t = LayerTotals::default();
        t.add_op(&spans);
        assert!(t.self_time(Layer::Query) >= 0.002);
        assert!(t.self_time(Layer::Handler) < t.busy(Layer::Handler));
        let total_self: f64 = t.self_s.iter().sum();
        assert!((total_self - t.busy(Layer::Op)).abs() < 1e-9);
    }

    #[test]
    fn spans_outside_an_op_are_not_recorded() {
        let v = span(Layer::Handler, || 3);
        assert_eq!(v, 3);
        begin_op(1, clock_ns());
        assert_eq!(end_op().len(), 1);
    }
}
