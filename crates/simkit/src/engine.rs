//! The discrete-event engine: scheduler, op-chain interpreter, run loop.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::fairshare::FairShare;
use crate::faults::{FaultAction, FaultEvent, FaultPlan};
use crate::monitor::Monitor;
use crate::slab::Slab;
use crate::span::{SpanId, SpanLog};
use crate::step::{ResourceId, Step};
use crate::telemetry::{MetricId, Telemetry};
use crate::time::SimTime;
use crate::trace::Trace;
use crate::units::{Bytes, Rate};

/// Opaque identifier attached to a submitted op chain and reported back
/// on completion.  Callers typically encode a process index and an op
/// kind in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(pub u64);

/// Receiver of op completions; drives the simulation forward by
/// submitting follow-up work.
pub trait World {
    /// Called once for every completed op chain.  `sched.now()` is the
    /// completion time; the implementation may submit new ops.
    fn on_op_complete(&mut self, op: OpId, sched: &mut Scheduler);

    /// Called once for every fired fault event (see [`crate::faults`]).
    /// `sched.now()` is the firing time; capacity-scaling actions have
    /// already been applied by the engine.  Worlds model domain faults
    /// (crashes, restarts, delayed completions) here; the default ignores
    /// them.
    // simlint::panic_root — fault delivery: handlers must never panic
    fn on_fault(&mut self, _event: &FaultEvent, _sched: &mut Scheduler) {}
}

/// Why [`run_for`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No pending flows, timers or completions remain.
    Completed,
    /// The time limit was reached with work still pending.
    TimeLimit,
    /// Flows remain but none can make progress (all routed through
    /// zero-capacity resources and no timers pending).  Happens under
    /// failure injection when a path's only resource is down.
    Stalled,
}

/// What a completed step notifies: either the parent continuation or the
/// whole op.
#[derive(Debug, Clone, Copy)]
enum Parent {
    Op(OpId),
    Cont(u32),
}

#[derive(Debug)]
enum Cont {
    /// Remaining steps, stored reversed so the next step pops off the
    /// end.  `span` is the enclosing span context, restored when a later
    /// step of the sequence is executed after a flow/timer completes.
    Seq {
        stack: Vec<Step>,
        parent: Parent,
        span: SpanId,
    },
    /// Fan-in counter for `Par`.
    Join { remaining: usize, parent: Parent },
    /// An open span closed when its wrapped step completes.  Only
    /// allocated while span recording is enabled; with recording off
    /// `Step::Span` executes its inner step directly, so the cont slab
    /// (and everything downstream of it) is identical to a span-free run.
    Span { id: SpanId, parent: Parent },
}

/// Fluid state of one flow, kept in a dense array indexed by flow-slab
/// key so settle, the deadline pass and the done-scan walk contiguous
/// memory.  The flow's rate and path live in the [`FairShare`] table
/// under the same key.
#[derive(Debug, Clone, Copy)]
struct FlowState {
    remaining: Bytes,
    deadline: SimTime,
    /// Residual below which the flow counts as finished: a safety net
    /// against f64 settlement drift, scaled to the flow's size so tiny
    /// transfers are not cut short measurably.
    eps: Bytes,
}

impl FlowState {
    /// A vacant key: never due and never finished (its rate is zero, so
    /// settle skips it and the deadline pass gives it `NEVER`).
    const VACANT: FlowState = FlowState {
        remaining: Bytes(f64::INFINITY),
        deadline: SimTime::NEVER,
        eps: Bytes(0.0),
    };
}

#[derive(Debug)]
struct Timer {
    at: SimTime,
    seq: u64,
    parent: Parent,
}

/// Pre-interned ids of the engine's own metrics, resolved once when
/// telemetry is enabled so the hot-path hooks never look up a name.
#[derive(Debug, Clone, Copy)]
struct EngineMetricIds {
    /// Gauge: in-flight flow count.
    flows: MetricId,
    /// Gauge: pending timer count (the engine's event-queue depth).
    timers: MetricId,
    /// Gauge: undelivered op completions queued for the world.
    queue: MetricId,
    /// Counter: op completions.
    ops: MetricId,
    /// Counter: fair-share re-solves.
    resolves: MetricId,
    /// Counter: progressive-filling iterations across re-solves.
    fill_iters: MetricId,
    /// Counter: fault events fired.
    faults: MetricId,
    /// Counter: flows started.
    flow_starts: MetricId,
    /// Counter: flows completed.
    flow_completes: MetricId,
}

impl EngineMetricIds {
    fn register(tel: &mut Telemetry) -> EngineMetricIds {
        EngineMetricIds {
            flows: tel.gauge("engine.flows.inflight"),
            timers: tel.gauge("engine.timers.pending"),
            queue: tel.gauge("engine.queue.completions"),
            ops: tel.counter("engine.ops.completed"),
            resolves: tel.counter("engine.fairshare.resolves"),
            fill_iters: tel.counter("engine.fairshare.fill_iters"),
            faults: tel.counter("engine.faults.fired"),
            flow_starts: tel.counter("engine.flows.started"),
            flow_completes: tel.counter("engine.flows.completed"),
        }
    }
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The simulation scheduler: resources, in-flight flows, timers and the
/// op-chain interpreter.
// simlint::sim_state — replay-visible simulation state
pub struct Scheduler {
    now: SimTime,
    last_settle: SimTime,
    caps: Vec<Rate>,
    /// Registered (un-degraded) capacities; fault scaling is relative to
    /// these, so `scale: 1.0` restores exactly the original rate.
    base_caps: Vec<Rate>,
    names: Vec<String>,
    /// In-flight flows: the slab hands out the keys and holds each
    /// flow's parent; `flow_state` and `fair` hold the rest by key.
    flows: Slab<Parent>,
    flow_state: Vec<FlowState>,
    conts: Slab<Cont>,
    timers: BinaryHeap<Reverse<Timer>>,
    timer_seq: u64,
    completions: VecDeque<OpId>,
    rates_dirty: bool,
    /// Earliest flow deadline, maintained by `recompute_rates`; exact
    /// whenever `rates_dirty` is false (deadlines only change inside a
    /// recompute, and every flow insert/remove sets the dirty bit), so
    /// `next_event_time` reads it instead of scanning every flow.
    flow_deadline_min: SimTime,
    /// Reused buffer for the keys of flows completing in one event batch
    /// (`fire_events_at`); keeps the hot loop allocation-free.
    done_scratch: Vec<u32>,
    fair: FairShare,
    monitor: Monitor,
    /// Installed fault events, sorted by `(at, id)`, popped as fired.
    faults: VecDeque<FaultEvent>,
    /// Optional causal span log (off by default).
    spans: SpanLog,
    /// Optional telemetry registry (off by default; read-only over the
    /// schedule, never perturbs the replay digest).
    telemetry: Telemetry,
    /// Pre-interned engine metric ids; `Some` iff telemetry is enabled.
    tel_ids: Option<EngineMetricIds>,
    /// Event-coalescing quantum in ns (see [`Scheduler::set_coalescing`]).
    quantum_ns: u64,
    /// Optional completion trace.
    trace: Trace,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    /// Empty scheduler with utilisation monitoring disabled.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            last_settle: SimTime::ZERO,
            caps: Vec::new(),
            base_caps: Vec::new(),
            names: Vec::new(),
            flows: Slab::new(),
            flow_state: Vec::new(),
            conts: Slab::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            completions: VecDeque::new(),
            rates_dirty: false,
            flow_deadline_min: SimTime::NEVER,
            done_scratch: Vec::new(),
            fair: FairShare::new(),
            monitor: Monitor::disabled(),
            faults: VecDeque::new(),
            spans: SpanLog::disabled(),
            telemetry: Telemetry::disabled(),
            tel_ids: None,
            quantum_ns: 0,
            trace: Trace::disabled(),
        }
    }

    /// Empty scheduler that records per-resource utilisation.
    pub fn with_monitor() -> Self {
        let mut s = Self::new();
        s.monitor = Monitor::enabled();
        s
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Register a capacity resource (units/second) and return its id.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        assert!(
            capacity >= 0.0 && capacity.is_finite(),
            "capacity must be finite and >= 0"
        );
        let id = ResourceId(self.caps.len() as u32);
        self.caps.push(Rate(capacity));
        self.base_caps.push(Rate(capacity));
        self.names.push(name.into());
        id
    }

    /// Capacity of `r` in units/second.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.caps[r.0 as usize].get()
    }

    /// Name given to `r` at registration.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.names[r.0 as usize]
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.caps.len()
    }

    /// Change the capacity of `r` (e.g. failure injection: set to zero).
    /// Takes effect immediately; in-flight flows are re-shared.
    // simlint::allow(digest-taint) — pre-run configuration: every subsequent flow completion folds its effect into the digest
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) {
        assert!(capacity >= 0.0 && capacity.is_finite());
        self.settle_to(self.now);
        self.caps[r.0 as usize] = Rate(capacity);
        self.base_caps[r.0 as usize] = Rate(capacity);
        self.rates_dirty = true;
    }

    /// Scale the capacity of `r` to `baseline × scale`, where the
    /// baseline is the capacity given at registration (or the last
    /// [`Scheduler::set_capacity`]).  Used by [`FaultAction::SlowDisk`] /
    /// [`FaultAction::NicBrownout`]; `scale: 1.0` restores the baseline
    /// exactly.  `scale` must be positive: a dead component is modelled
    /// at the storage-state level, never as a zero-rate flow (which would
    /// stall the run).
    pub fn scale_capacity(&mut self, r: ResourceId, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "fault capacity scale must be positive and finite"
        );
        self.settle_to(self.now);
        self.caps[r.0 as usize] = self.base_caps[r.0 as usize] * scale;
        self.rates_dirty = true;
    }

    /// Install a failure schedule.  Events fire during [`run_for`] when
    /// simulated time reaches them while flows or timers are pending;
    /// runs that drain earlier leave the remaining events armed.  May be
    /// called repeatedly — later plans merge with undelivered events.
    ///
    /// Installation itself folds the plan's canonical encoding into the
    /// replay digest (a *schedule header*), so a saved schedule pins the
    /// run it produced even for events that never fire: replaying with
    /// any altered plan diverges at install time, not just at fire time.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        let installed = plan.into_events();
        self.trace.record_schedule(&installed);
        let mut evs: Vec<FaultEvent> = self.faults.drain(..).collect();
        evs.extend(installed);
        evs.sort_by_key(|e| (e.at, e.id));
        self.faults = evs.into();
    }

    /// Fault events installed but not yet fired.
    pub fn pending_fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Pop and apply the next fault event: settle flows to its firing
    /// time, apply engine-level actions (capacity scaling), and fold the
    /// tagged `(time, id)` pair into the replay digest.  The caller hands
    /// the returned event to [`World::on_fault`].  Returns `None` when no
    /// fault is pending (the run loop checks `next_fault_time` first, but
    /// delivery must not panic if that invariant ever slips).
    // simlint::panic_root — fault delivery: must never panic
    // simlint::hot_root — fault firing sits inside the event loop
    fn fire_fault(&mut self) -> Option<FaultEvent> {
        let ev = self.faults.pop_front()?;
        // An event armed before a gap in pending work fires as soon as
        // work exists again; time never goes backwards.
        let t = ev.at.max(self.now);
        self.settle_to(t);
        match ev.action {
            FaultAction::SlowDisk { resource, scale }
            | FaultAction::NicBrownout { resource, scale } => {
                self.scale_capacity(resource, scale);
            }
            FaultAction::TargetCrash(_)
            | FaultAction::TargetRestart(_)
            | FaultAction::DelayedCompletion { .. }
            | FaultAction::AddServer { .. }
            | FaultAction::DrainServer { .. }
            | FaultAction::BitRot { .. } => {}
        }
        self.trace.record_fault(t, ev.id);
        self.spans.mark_fault(t, ev.id, SpanId::NONE);
        if let Some(ids) = self.tel_ids {
            self.telemetry.counter_add(ids.faults, t, 1);
        }
        Some(ev)
    }

    /// Firing time of the next pending fault, if any.
    fn next_fault_time(&self) -> Option<SimTime> {
        self.faults.front().map(|e| e.at)
    }

    /// Set the event-coalescing quantum: events within `ns` of the
    /// earliest pending event fire together in one batch, sharing a
    /// single fair-share recomputation.  Zero (the default) keeps exact
    /// event times.  Large simulations set a microsecond-scale quantum:
    /// thousands of near-simultaneous op completions then cost one
    /// recomputation instead of thousands, at a timing error far below
    /// any modelled latency.
    pub fn set_coalescing(&mut self, ns: u64) {
        self.quantum_ns = ns;
    }

    /// Set the fair-share bottleneck tolerance (see
    /// [`crate::fairshare::FairShare::set_tolerance`]).  Rates may then
    /// deviate from the exact max-min allocation by up to this relative
    /// factor, in exchange for far fewer filling iterations.
    pub fn set_fairshare_tolerance(&mut self, tol: f64) {
        self.fair.set_tolerance(tol);
    }

    /// Utilisation monitor (busy integrals per resource).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Replace the utilisation monitor (e.g. a windowed one — see
    /// [`Monitor::windowed`]).
    // simlint::allow(digest-taint) — pre-run configuration: every subsequent flow completion folds its effect into the digest
    pub fn set_monitor(&mut self, monitor: Monitor) {
        self.monitor = monitor;
    }

    /// Turn on causal span recording (see [`crate::span`]).  Spans are
    /// off by default; enabling them never changes the schedule or the
    /// replay digest — only the span log and its separate span digest.
    // simlint::allow(digest-taint) — pre-run configuration: span events fold into the span digest, op completions into the replay digest
    pub fn enable_spans(&mut self) {
        self.spans = SpanLog::recording();
    }

    /// The span log (empty unless [`Scheduler::enable_spans`] was called).
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Turn on telemetry sampling into `window_ns`-wide sim-time windows
    /// (see [`crate::telemetry`]).  Off by default; telemetry observes
    /// the schedule read-only, so enabling it never changes event times
    /// or the replay digest — the same contract as spans.
    // simlint::dim(window_ns: ns)
    // simlint::allow(digest-taint) — pre-run configuration: telemetry is a read-only observer; op completions fold into the replay digest unchanged
    pub fn enable_telemetry(&mut self, window_ns: u64) {
        let mut tel = Telemetry::enabled(window_ns);
        self.tel_ids = Some(EngineMetricIds::register(&mut tel));
        self.telemetry = tel;
    }

    /// The telemetry registry (empty unless
    /// [`Scheduler::enable_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable telemetry access, for layers that publish their own
    /// counters into the run's registry after (or during) a run.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Order-sensitive digest of the span open/close/mark stream — the
    /// determinism contract for tracing, separate from [`Scheduler::digest`].
    pub fn span_digest(&self) -> u64 {
        self.spans.digest()
    }

    /// Record op completions into a bounded trace (debugging aid).
    // simlint::allow(digest-taint) — pre-run configuration: every subsequent flow completion folds its effect into the digest
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The completion trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Order-sensitive FNV-1a digest of the `(time, op)` completion stream
    /// so far.  Always maintained (even with tracing disabled); two runs
    /// of identical workloads must report identical digests — see
    /// [`run_digest`].
    pub fn digest(&self) -> u64 {
        self.trace.digest()
    }

    /// Capacities indexed by resource id, for [`Monitor::report`].
    pub fn capacities(&self) -> &[Rate] {
        &self.caps
    }

    /// Number of in-flight flows.
    pub fn active_flow_count(&self) -> usize {
        self.flows.len()
    }

    /// True if any work (flows, timers, undelivered completions) remains.
    pub fn has_pending_work(&self) -> bool {
        !self.flows.is_empty() || !self.timers.is_empty() || !self.completions.is_empty()
    }

    /// Submit an op chain; `op` is reported to the [`World`] when the
    /// whole chain completes.
    pub fn submit(&mut self, step: Step, op: OpId) {
        self.exec(step, Parent::Op(op), SpanId::NONE);
    }

    /// Submit an op chain that starts after `delay_ns`.
    pub fn submit_after(&mut self, delay_ns: u64, step: Step, op: OpId) {
        self.exec(
            Step::delay(delay_ns).then(step),
            op_parent(op),
            SpanId::NONE,
        );
    }

    // ---- interpreter ----------------------------------------------------

    /// `span` is the nearest enclosing open span — the parent of any
    /// `Step::Span` encountered while descending `step`.
    fn exec(&mut self, step: Step, parent: Parent, span: SpanId) {
        match step {
            Step::Noop => self.complete_parent(parent),
            Step::Delay(ns) => {
                let seq = self.timer_seq;
                self.timer_seq += 1;
                self.timers.push(Reverse(Timer {
                    at: self.now + ns,
                    seq,
                    parent,
                }));
                if let Some(ids) = self.tel_ids {
                    self.telemetry.gauge_incr(ids.timers, self.now);
                }
            }
            Step::Transfer { units, path } => {
                debug_assert!(units > 0.0 && !path.is_empty());
                debug_assert!(path.iter().all(|r| (r.0 as usize) < self.caps.len()));
                if let Some(ids) = self.tel_ids {
                    self.telemetry.counter_add(ids.flow_starts, self.now, 1);
                    self.telemetry.gauge_incr(ids.flows, self.now);
                    for &r in &path {
                        let g = self
                            .telemetry
                            .resource_gauge(r.0 as usize, &self.names[r.0 as usize]);
                        self.telemetry.gauge_incr(g, self.now);
                    }
                }
                let key = self.flows.insert(parent);
                self.fair.insert(key, &path);
                let state = FlowState {
                    remaining: Bytes(units),
                    deadline: SimTime::NEVER,
                    eps: Bytes(units * 1e-9),
                };
                match self.flow_state.get_mut(key as usize) {
                    Some(slot) => *slot = state,
                    None => self.grow_flow_state(key, state),
                }
                self.rates_dirty = true;
            }
            Step::Seq(mut steps) => {
                steps.reverse();
                match steps.pop() {
                    None => self.complete_parent(parent),
                    Some(first) => {
                        let cid = self.conts.insert(Cont::Seq {
                            stack: steps,
                            parent,
                            span,
                        });
                        self.exec(first, Parent::Cont(cid), span);
                    }
                }
            }
            Step::Par(steps) => {
                if steps.is_empty() {
                    self.complete_parent(parent);
                    return;
                }
                let cid = self.conts.insert(Cont::Join {
                    remaining: steps.len(),
                    parent,
                });
                for s in steps {
                    self.exec(s, Parent::Cont(cid), span);
                }
            }
            Step::Span {
                layer,
                op,
                bytes,
                attempt,
                inner,
            } => {
                // Telemetry counts every span step it sees — including
                // retry/backoff, rebuild and migration waves — whether
                // or not span *recording* is on; the count is read-only
                // observation, never a schedule change.
                if self.telemetry.is_enabled() {
                    self.telemetry.span_open(self.now, layer, op);
                }
                if !self.spans.is_enabled() {
                    // One branch of overhead, no allocation: the cont
                    // slab evolves exactly as for a span-free run, so
                    // the schedule and replay digest are untouched.
                    self.exec(*inner, parent, span);
                    return;
                }
                let id = self.spans.open(self.now, span, layer, op, bytes, attempt);
                let cid = self.conts.insert(Cont::Span { id, parent });
                self.exec(*inner, Parent::Cont(cid), id);
            }
        }
    }

    // simlint::amortized — grows the dense flow-state array to the highest slab key; keys are reused, so this stops once the flow count peaks
    fn grow_flow_state(&mut self, key: u32, state: FlowState) {
        self.flow_state.resize(key as usize, FlowState::VACANT);
        self.flow_state.push(state);
    }

    fn complete_parent(&mut self, mut parent: Parent) {
        loop {
            match parent {
                Parent::Op(op) => {
                    self.trace.record(self.now, op);
                    self.completions.push_back(op);
                    if let Some(ids) = self.tel_ids {
                        self.telemetry.counter_add(ids.ops, self.now, 1);
                        self.telemetry.gauge_set(
                            ids.queue,
                            self.now,
                            self.completions.len() as u64,
                        );
                    }
                    return;
                }
                Parent::Cont(cid) => {
                    enum Next {
                        Exec(Step, SpanId),
                        Finish,
                        Wait,
                    }
                    let next = match &mut self.conts[cid] {
                        Cont::Seq { stack, span, .. } => match stack.pop() {
                            Some(step) => Next::Exec(step, *span),
                            None => Next::Finish,
                        },
                        Cont::Join { remaining, .. } => {
                            *remaining -= 1;
                            if *remaining == 0 {
                                Next::Finish
                            } else {
                                Next::Wait
                            }
                        }
                        Cont::Span { .. } => Next::Finish,
                    };
                    match next {
                        Next::Wait => return,
                        Next::Exec(step, span) => {
                            self.exec(step, Parent::Cont(cid), span);
                            return;
                        }
                        Next::Finish => {
                            let cont = self.conts.remove(cid);
                            parent = match cont {
                                Cont::Seq { parent, .. } | Cont::Join { parent, .. } => parent,
                                Cont::Span { id, parent } => {
                                    self.spans.close(self.now, id);
                                    parent
                                }
                            };
                        }
                    }
                }
            }
        }
    }

    // ---- fluid dynamics --------------------------------------------------

    /// Advance all flows to time `t`, crediting the monitor with each
    /// flow's movement over the settlement interval `[last_settle, t]`.
    fn settle_to(&mut self, t: SimTime) {
        let t0 = self.last_settle;
        let dt = t.secs_since(t0);
        if dt > 0.0 {
            let monitor_on = self.monitor.is_enabled();
            let rates = self.fair.rates();
            // simlint::allow(hot-state-scan) — the fluid model moves every flow with a non-zero rate across the elapsed interval; the walk is over the dense per-key state (vacant keys have rate zero), and coalescing (set_coalescing) bounds how often it runs
            for (key, (f, &rate)) in self.flow_state.iter_mut().zip(rates).enumerate() {
                if rate > Rate::ZERO {
                    let moved = rate.bytes_in(dt).min(f.remaining);
                    f.remaining -= moved;
                    if monitor_on {
                        for &r in self.fair.path(key as u32) {
                            self.monitor.credit(r, moved.get(), t0, t);
                        }
                    }
                }
            }
        }
        self.last_settle = t;
        self.now = t;
    }

    /// Recompute max-min fair rates and flow deadlines.  The fair-share
    /// table already holds the live flows (inserted and removed as they
    /// start and finish), so this is settle, solve and the deadline pass.
    fn recompute_rates(&mut self) {
        self.settle_to(self.now);
        let fill_iters = self.fair.solve(&self.caps) as u64;
        if let Some(ids) = self.tel_ids {
            self.telemetry.counter_add(ids.resolves, self.now, 1);
            self.telemetry
                .counter_add(ids.fill_iters, self.now, fill_iters);
        }
        let now = self.now;
        let mut deadline_min = SimTime::NEVER;
        // simlint::allow(hot-state-scan) — a re-solve may change every live flow's rate, so every deadline is recomputed; the walk is over the dense per-key state, and vacant keys (rate zero, infinite residual) come out `NEVER`
        for (f, &rate) in self.flow_state.iter_mut().zip(self.fair.rates()) {
            f.deadline = if f.remaining <= f.eps {
                now
            } else if rate <= Rate::ZERO {
                SimTime::NEVER
            } else {
                now + (f.remaining / rate).as_nanos()
            };
            deadline_min = deadline_min.min(f.deadline);
        }
        self.flow_deadline_min = deadline_min;
        self.rates_dirty = false;
    }

    fn next_event_time(&self) -> Option<SimTime> {
        let t_timer = self.timers.peek().map(|Reverse(t)| t.at);
        // Deadlines only move inside `recompute_rates`, which also
        // refreshes the cached minimum; with a clean rate state the cache
        // is exact and the per-event O(flows) scan is gone.  The dirty
        // fallback never runs from `run_for` (it recomputes first) but
        // keeps direct callers correct.
        let t_flow = if self.rates_dirty {
            // simlint::allow(hot-state-scan) — dirty-rate fallback for direct callers only; `run_for` recomputes, which refreshes the cached minimum, before it asks for the next event
            self.flow_state.iter().map(|f| f.deadline).min()
        } else {
            Some(self.flow_deadline_min)
        }
        .filter(|&d| d != SimTime::NEVER);
        match (t_timer, t_flow) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Fire everything scheduled at exactly `t` (flows and timers).
    // simlint::hot_root — timer drain + flow completion: runs once per event batch
    fn fire_events_at(&mut self, t: SimTime) {
        self.settle_to(t);
        // Timers first: their parents may be sequences that feed flows.
        while let Some(Reverse(timer)) = self.timers.peek() {
            if timer.at > t {
                break;
            }
            let parent = timer.parent;
            self.timers.pop();
            if let Some(ids) = self.tel_ids {
                self.telemetry.gauge_decr(ids.timers, self.now);
            }
            self.complete_parent(parent);
        }
        // Flows whose deadline has arrived (or whose residual rounded to
        // nothing) complete as a batch.  The key buffer is owned by the
        // scheduler and reused across batches (`complete_parent` needs
        // `&mut self`, so the keys cannot be drained while iterating).
        let mut done = std::mem::take(&mut self.done_scratch);
        done.clear();
        let fair = &self.fair;
        done.extend(
            self.flow_state
                // simlint::allow(hot-state-scan) — batch completion checks every flow's deadline once, over the dense per-key state the settle pass just walked; there is no deadline index to consult instead
                .iter()
                .enumerate()
                // Vacant keys read deadline `NEVER`, which a timer
                // saturated to `NEVER` makes due; only live keys complete.
                .filter(|(k, f)| {
                    (f.deadline <= t || f.remaining <= f.eps) && fair.contains(*k as u32)
                })
                .map(|(k, _)| k as u32),
        );
        for &key in &done {
            if let Some(ids) = self.tel_ids {
                self.telemetry.counter_add(ids.flow_completes, self.now, 1);
                self.telemetry.gauge_decr(ids.flows, self.now);
                for &r in self.fair.path(key) {
                    let g = self
                        .telemetry
                        .resource_gauge(r.0 as usize, &self.names[r.0 as usize]);
                    self.telemetry.gauge_decr(g, self.now);
                }
            }
            // Vacate the key everywhere before the parent runs: its
            // continuation may start a flow that reuses it.
            self.fair.remove(key);
            self.flow_state[key as usize] = FlowState::VACANT;
            let parent = self.flows.remove(key);
            self.rates_dirty = true;
            self.complete_parent(parent);
        }
        self.done_scratch = done;
    }
}

fn op_parent(op: OpId) -> Parent {
    Parent::Op(op)
}

/// Run until no work remains.  Panics on stall (see [`run_for`] for a
/// non-panicking variant used with failure injection).
pub fn run<W: World>(sched: &mut Scheduler, world: &mut W) {
    match run_for(sched, world, SimTime::NEVER) {
        RunOutcome::Completed => {}
        RunOutcome::Stalled => panic!(
            "simulation stalled at {} with {} flows routed through zero-capacity resources",
            sched.now(),
            sched.active_flow_count()
        ),
        RunOutcome::TimeLimit => unreachable!("NEVER limit reached"),
    }
}

/// Run until no work remains (like [`run`]) and return the replay digest
/// of the full completion stream.  The determinism contract in one call:
/// two invocations on freshly-built, identically-configured scheduler and
/// world values must return the same digest.
// simlint::digest_root — replay-digest fold entry
pub fn run_digest<W: World>(sched: &mut Scheduler, world: &mut W) -> u64 {
    run(sched, world);
    sched.digest()
}

/// Run until no work remains or simulated time would pass `limit`.
// simlint::hot_root — the engine event loop: every line here runs per event
pub fn run_for<W: World>(sched: &mut Scheduler, world: &mut W, limit: SimTime) -> RunOutcome {
    loop {
        // Deliver completions; the world may submit follow-up work which
        // may itself complete synchronously.
        while let Some(op) = sched.completions.pop_front() {
            if let Some(ids) = sched.tel_ids {
                sched
                    .telemetry
                    .gauge_set(ids.queue, sched.now, sched.completions.len() as u64);
            }
            world.on_op_complete(op, sched);
        }
        if sched.rates_dirty {
            sched.recompute_rates();
        }
        if !sched.completions.is_empty() {
            // recompute made zero-residual flows due; drain them first.
            continue;
        }
        // Faults fire only while work is pending: a drained run completes
        // normally and leaves future events armed (setup barriers must
        // not fast-forward through the failure schedule).  A pending
        // fault due before the next work event — or before the limit when
        // flows are stalled — fires first; it may rescale capacities or
        // (via the world) submit new work, so re-enter the loop.
        if !sched.flows.is_empty() || !sched.timers.is_empty() {
            if let Some(f_at) = sched.next_fault_time() {
                let bound = sched.next_event_time().unwrap_or(SimTime::NEVER).min(limit);
                if f_at <= bound {
                    if let Some(ev) = sched.fire_fault() {
                        world.on_fault(&ev, sched);
                    }
                    continue;
                }
            }
        }
        let Some(t) = sched.next_event_time() else {
            return if sched.flows.is_empty() {
                RunOutcome::Completed
            } else {
                RunOutcome::Stalled
            };
        };
        if t > limit {
            sched.settle_to(limit);
            return RunOutcome::TimeLimit;
        }
        // coalesce everything due within the quantum into one batch
        sched.fire_events_at(t + sched.quantum_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// World that records completion times and optionally chains more ops.
    #[derive(Default)]
    struct Recorder {
        completed: Vec<(OpId, SimTime)>,
    }
    impl World for Recorder {
        fn on_op_complete(&mut self, op: OpId, sched: &mut Scheduler) {
            self.completed.push((op, sched.now()));
        }
    }

    fn secs(t: SimTime) -> f64 {
        t.as_secs_f64()
    }

    #[test]
    fn single_transfer_takes_units_over_capacity() {
        let mut s = Scheduler::new();
        let r = s.add_resource("disk", 200.0);
        s.submit(Step::transfer(100.0, [r]), OpId(1));
        let mut w = Recorder::default();
        run(&mut s, &mut w);
        assert_eq!(w.completed.len(), 1);
        assert!((secs(w.completed[0].1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut s = Scheduler::new();
        let r = s.add_resource("disk", 100.0);
        s.submit(Step::transfer(100.0, [r]), OpId(1));
        s.submit(Step::transfer(100.0, [r]), OpId(2));
        let mut w = Recorder::default();
        run(&mut s, &mut w);
        // 200 units through 100 units/s: both finish at t=2.
        assert_eq!(w.completed.len(), 2);
        for (_, t) in &w.completed {
            assert!((secs(*t) - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn staggered_flow_work_conservation() {
        // Flow A starts at 0; flow B starts at 0.5s via a delay.  The
        // resource never idles, so everything finishes at exactly
        // (100+100)/100 = 2.0s, with A done at 1.5s.
        let mut s = Scheduler::new();
        let r = s.add_resource("disk", 100.0);
        s.submit(Step::transfer(100.0, [r]), OpId(1));
        s.submit(
            Step::seq([Step::delay(500_000_000), Step::transfer(100.0, [r])]),
            OpId(2),
        );
        let mut w = Recorder::default();
        run(&mut s, &mut w);
        let t1 = w.completed.iter().find(|(o, _)| *o == OpId(1)).unwrap().1;
        let t2 = w.completed.iter().find(|(o, _)| *o == OpId(2)).unwrap().1;
        assert!((secs(t1) - 1.5).abs() < 1e-6, "A: got {}", secs(t1));
        assert!((secs(t2) - 2.0).abs() < 1e-6, "B: got {}", secs(t2));
    }

    #[test]
    fn par_completes_at_slowest_branch() {
        let mut s = Scheduler::new();
        let fast = s.add_resource("fast", 100.0);
        let slow = s.add_resource("slow", 10.0);
        s.submit(
            Step::par([Step::transfer(10.0, [fast]), Step::transfer(10.0, [slow])]),
            OpId(1),
        );
        let mut w = Recorder::default();
        run(&mut s, &mut w);
        assert!((secs(w.completed[0].1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn seq_of_delays_sums() {
        let mut s = Scheduler::new();
        s.submit(
            Step::seq([Step::delay(1_000), Step::delay(2_000), Step::delay(3_000)]),
            OpId(7),
        );
        let mut w = Recorder::default();
        run(&mut s, &mut w);
        assert_eq!(w.completed[0].1.as_nanos(), 6_000);
    }

    #[test]
    fn nested_seq_par_chain() {
        let mut s = Scheduler::new();
        let r = s.add_resource("r", 100.0);
        // Par(a: 1s transfer, b: Seq(0.5s delay, 0.25s-alone transfer))
        // a alone would take 1s; while b's transfer is active they share.
        // timeline: 0-0.5: a at 100 (50 left); 0.5-?: share 50/50.
        // b needs 25 units -> 0.5s shared -> done at 1.0; a then 25 left
        // at 100 -> done 1.25.
        s.submit(
            Step::par([
                Step::transfer(100.0, [r]),
                Step::seq([Step::delay(500_000_000), Step::transfer(25.0, [r])]),
            ]),
            OpId(1),
        );
        let mut w = Recorder::default();
        run(&mut s, &mut w);
        assert!((secs(w.completed[0].1) - 1.25).abs() < 1e-6);
    }

    #[test]
    fn symmetric_flows_batch_into_one_completion_time() {
        let mut s = Scheduler::new();
        let r = s.add_resource("r", 1000.0);
        for i in 0..64 {
            s.submit(Step::transfer(10.0, [r]), OpId(i));
        }
        let mut w = Recorder::default();
        run(&mut s, &mut w);
        let t0 = w.completed[0].1;
        assert!(w.completed.iter().all(|(_, t)| *t == t0), "lock-step batch");
        assert!((secs(t0) - 0.64).abs() < 1e-6);
    }

    #[test]
    fn world_chains_sequential_ops() {
        // A "process" that issues 5 back-to-back transfers through its
        // private resource; each completion triggers the next.
        struct Proc {
            left: u32,
            r: ResourceId,
            done_at: SimTime,
        }
        impl World for Proc {
            fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
                if self.left > 0 {
                    self.left -= 1;
                    sched.submit(Step::transfer(10.0, [self.r]), OpId(0));
                } else {
                    self.done_at = sched.now();
                }
            }
        }
        let mut s = Scheduler::new();
        let r = s.add_resource("r", 10.0);
        let mut p = Proc {
            left: 4,
            r,
            done_at: SimTime::ZERO,
        };
        s.submit(Step::transfer(10.0, [r]), OpId(0));
        run(&mut s, &mut p);
        assert!((secs(p.done_at) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn run_for_respects_limit() {
        let mut s = Scheduler::new();
        let r = s.add_resource("r", 1.0);
        s.submit(Step::transfer(100.0, [r]), OpId(1));
        let mut w = Recorder::default();
        let out = run_for(&mut s, &mut w, SimTime::from_secs_f64(2.0));
        assert_eq!(out, RunOutcome::TimeLimit);
        assert!(w.completed.is_empty());
        assert!((secs(s.now()) - 2.0).abs() < 1e-9);
        // Resuming finishes the job at t=100.
        let out = run_for(&mut s, &mut w, SimTime::NEVER);
        assert_eq!(out, RunOutcome::Completed);
        assert!((secs(w.completed[0].1) - 100.0).abs() < 1e-5);
    }

    #[test]
    fn zero_capacity_stalls_and_recovers() {
        let mut s = Scheduler::new();
        let r = s.add_resource("r", 0.0);
        s.submit(Step::transfer(10.0, [r]), OpId(1));
        let mut w = Recorder::default();
        assert_eq!(run_for(&mut s, &mut w, SimTime::NEVER), RunOutcome::Stalled);
        s.set_capacity(r, 10.0);
        assert_eq!(
            run_for(&mut s, &mut w, SimTime::NEVER),
            RunOutcome::Completed
        );
        assert_eq!(w.completed.len(), 1);
    }

    #[test]
    fn capacity_change_rescales_in_flight() {
        let mut s = Scheduler::new();
        let r = s.add_resource("r", 10.0);
        s.submit(Step::transfer(100.0, [r]), OpId(1));
        let mut w = Recorder::default();
        run_for(&mut s, &mut w, SimTime::from_secs_f64(5.0)); // 50 units left
        s.set_capacity(r, 100.0);
        run(&mut s, &mut w);
        assert!((secs(w.completed[0].1) - 5.5).abs() < 1e-6);
    }

    #[test]
    fn monitor_accounts_busy_units() {
        let mut s = Scheduler::with_monitor();
        let r = s.add_resource("r", 100.0);
        s.submit(Step::transfer(100.0, [r]), OpId(1));
        let mut w = Recorder::default();
        run(&mut s, &mut w);
        assert!((s.monitor().units(r) - 100.0).abs() < 1e-6);
        let rep = s.monitor().report(s.capacities(), SimTime::ZERO, s.now());
        assert!((rep[0].fraction - 1.0).abs() < 1e-6);
    }

    #[test]
    fn multi_resource_path_limited_by_tightest() {
        let mut s = Scheduler::new();
        let nic = s.add_resource("nic", 50.0);
        let ssd = s.add_resource("ssd", 20.0);
        s.submit(Step::transfer(40.0, [nic, ssd]), OpId(1));
        let mut w = Recorder::default();
        run(&mut s, &mut w);
        assert!((secs(w.completed[0].1) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn submit_after_delays_start() {
        let mut s = Scheduler::new();
        let r = s.add_resource("r", 10.0);
        s.submit_after(1_000_000_000, Step::transfer(10.0, [r]), OpId(1));
        let mut w = Recorder::default();
        run(&mut s, &mut w);
        assert!((secs(w.completed[0].1) - 2.0).abs() < 1e-6);
    }

    /// Recorder that also logs fired fault events.
    #[derive(Default)]
    struct FaultRecorder {
        completed: Vec<(OpId, SimTime)>,
        faults: Vec<(FaultEvent, SimTime)>,
    }
    impl World for FaultRecorder {
        fn on_op_complete(&mut self, op: OpId, sched: &mut Scheduler) {
            self.completed.push((op, sched.now()));
        }
        fn on_fault(&mut self, event: &FaultEvent, sched: &mut Scheduler) {
            self.faults.push((*event, sched.now()));
        }
    }

    #[test]
    fn slow_disk_fault_scales_and_restores_capacity() {
        let mut s = Scheduler::new();
        let r = s.add_resource("disk", 100.0);
        let mut plan = FaultPlan::new();
        plan.at(
            SimTime::from_secs_f64(0.5),
            FaultAction::SlowDisk {
                resource: r,
                scale: 0.5,
            },
        );
        plan.at(
            SimTime::from_secs_f64(1.0),
            FaultAction::SlowDisk {
                resource: r,
                scale: 1.0,
            },
        );
        s.install_faults(plan);
        s.submit(Step::transfer(100.0, [r]), OpId(1));
        let mut w = FaultRecorder::default();
        run(&mut s, &mut w);
        // 0.5s at 100 (50 units) + 0.5s at 50 (25) + 0.25s at 100 (25)
        assert!((secs(w.completed[0].1) - 1.25).abs() < 1e-6);
        assert_eq!(w.faults.len(), 2);
        assert!((secs(w.faults[0].1) - 0.5).abs() < 1e-9);
        assert!((secs(w.faults[1].1) - 1.0).abs() < 1e-9);
        assert_eq!(s.pending_fault_count(), 0);
    }

    #[test]
    fn domain_faults_are_delivered_to_the_world() {
        let mut s = Scheduler::new();
        let r = s.add_resource("disk", 10.0);
        let mut plan = FaultPlan::new();
        plan.at(SimTime::from_millis(100), FaultAction::TargetCrash(42));
        plan.at(
            SimTime::from_millis(200),
            FaultAction::DelayedCompletion {
                payload: 7,
                extra_ns: 5_000,
            },
        );
        s.install_faults(plan);
        s.submit(Step::transfer(10.0, [r]), OpId(1));
        let mut w = FaultRecorder::default();
        run(&mut s, &mut w);
        assert_eq!(w.faults.len(), 2);
        assert_eq!(w.faults[0].0.action, FaultAction::TargetCrash(42));
        assert_eq!(w.faults[0].1, SimTime::from_millis(100));
        assert_eq!(
            w.faults[1].0.action,
            FaultAction::DelayedCompletion {
                payload: 7,
                extra_ns: 5_000
            }
        );
    }

    #[test]
    fn faults_wait_for_pending_work() {
        // A fault scheduled past the end of the current run stays armed
        // instead of fast-forwarding time, and fires (at its scheduled
        // digest time, clamped to now) once later work crosses it.
        let mut s = Scheduler::new();
        let r = s.add_resource("disk", 100.0);
        let mut plan = FaultPlan::new();
        plan.at(SimTime::from_secs_f64(2.0), FaultAction::TargetCrash(1));
        s.install_faults(plan);
        s.submit(Step::transfer(50.0, [r]), OpId(1));
        let mut w = FaultRecorder::default();
        run(&mut s, &mut w);
        assert!((secs(s.now()) - 0.5).abs() < 1e-9);
        assert_eq!(s.pending_fault_count(), 1, "fault stays armed");
        assert!(w.faults.is_empty());
        // next phase crosses t=2.0 → the fault fires mid-run
        s.submit(Step::transfer(300.0, [r]), OpId(2));
        run(&mut s, &mut w);
        assert_eq!(w.faults.len(), 1);
        assert!((secs(w.faults[0].1) - 2.0).abs() < 1e-9);
        assert_eq!(s.pending_fault_count(), 0);
    }

    #[test]
    fn faults_fold_into_replay_digest() {
        let run_with = |faulted: bool| {
            let mut s = Scheduler::new();
            let r = s.add_resource("disk", 100.0);
            if faulted {
                let mut plan = FaultPlan::new();
                plan.at(SimTime::from_millis(1), FaultAction::TargetCrash(3));
                s.install_faults(plan);
            }
            s.submit(Step::transfer(100.0, [r]), OpId(1));
            let mut w = FaultRecorder::default();
            run_digest(&mut s, &mut w)
        };
        assert_eq!(run_with(true), run_with(true), "faulted runs replay");
        assert_ne!(
            run_with(true),
            run_with(false),
            "the failure schedule is part of the digest"
        );
    }

    #[test]
    fn spans_follow_dynamic_nesting() {
        let mut s = Scheduler::new();
        s.enable_spans();
        let r = s.add_resource("disk", 100.0);
        // outer(ior) -> Seq[delay, inner(libdaos) -> transfer]
        s.submit(
            Step::span(
                "ior",
                "write",
                100,
                Step::seq([
                    Step::delay(1_000),
                    Step::span("libdaos", "update", 100, Step::transfer(100.0, [r])),
                ]),
            ),
            OpId(1),
        );
        let mut w = Recorder::default();
        run(&mut s, &mut w);
        let recs = s.spans().records();
        assert_eq!(recs.len(), 2);
        let outer = &recs[0];
        let inner = &recs[1];
        assert_eq!(outer.layer, "ior");
        assert!(outer.parent.is_none());
        assert_eq!(inner.layer, "libdaos");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.root, outer.id);
        // inner opens after the delay, both close at op completion.
        assert_eq!(inner.start.as_nanos(), 1_000);
        assert_eq!(inner.end, outer.end);
        assert_eq!(outer.end, w.completed[0].1);
        assert!(outer.is_closed() && inner.is_closed());
    }

    #[test]
    fn spans_do_not_perturb_replay_digest() {
        let build = |traced: bool| {
            let mut s = Scheduler::new();
            if traced {
                s.enable_spans();
            }
            let r = s.add_resource("disk", 50.0);
            for i in 0..8u64 {
                s.submit(
                    Step::span(
                        "ior",
                        "write",
                        10,
                        Step::seq([
                            Step::delay(i * 100),
                            Step::span("libdaos", "update", 10, Step::transfer(10.0, [r])),
                        ]),
                    ),
                    OpId(i),
                );
            }
            let mut w = Recorder::default();
            let d = run_digest(&mut s, &mut w);
            (d, s.span_digest(), s.spans().len())
        };
        let (d_off, sd_off, n_off) = build(false);
        let (d_on, sd_on, n_on) = build(true);
        assert_eq!(d_off, d_on, "tracing must not perturb the replay digest");
        assert_eq!(n_off, 0);
        assert_eq!(n_on, 16);
        assert_ne!(sd_off, sd_on, "the span digest sees the span stream");
        let (d_on2, sd_on2, _) = build(true);
        assert_eq!((d_on, sd_on), (d_on2, sd_on2), "traced runs replay");
    }

    #[test]
    fn telemetry_does_not_perturb_replay_digest() {
        let build = |telemetered: bool| {
            let mut s = Scheduler::new();
            if telemetered {
                s.enable_telemetry(1_000);
            }
            let r = s.add_resource("disk", 50.0);
            for i in 0..8u64 {
                s.submit(
                    Step::span(
                        "ior",
                        "write",
                        10,
                        Step::seq([
                            Step::delay(i * 100),
                            Step::span("libdaos", "update", 10, Step::transfer(10.0, [r])),
                        ]),
                    ),
                    OpId(i),
                );
            }
            let mut w = Recorder::default();
            let d = run_digest(&mut s, &mut w);
            (d, s)
        };
        let (d_off, s_off) = build(false);
        let (d_on, s_on) = build(true);
        assert_eq!(d_off, d_on, "telemetry must not perturb the replay digest");
        assert!(s_off.telemetry().is_empty());
        assert_eq!(s_on.telemetry().total("engine.ops.completed"), 8);
        assert_eq!(s_on.telemetry().total("span.ior.write"), 8);
        assert_eq!(s_on.telemetry().total("span.libdaos.update"), 8);
        assert!(s_on.telemetry().total("engine.fairshare.resolves") > 0);
        assert_eq!(s_on.telemetry().total("engine.flows.inflight"), 0);
        assert_eq!(s_on.telemetry().total("engine.flows.started"), 8);
        assert_eq!(s_on.telemetry().total("engine.flows.completed"), 8);
        assert_eq!(s_on.telemetry().total("res.disk.flows"), 0);
        // Two telemetered runs export byte-identically.
        let (_, s_on2) = build(true);
        assert_eq!(
            s_on.telemetry().counter_events_json(),
            s_on2.telemetry().counter_events_json()
        );
    }

    #[test]
    fn fault_marks_enter_span_log() {
        let mut s = Scheduler::new();
        s.enable_spans();
        let r = s.add_resource("disk", 100.0);
        let mut plan = FaultPlan::new();
        let ev_id = plan.at(SimTime::from_millis(1), FaultAction::TargetCrash(9));
        s.install_faults(plan);
        s.submit(Step::transfer(100.0, [r]), OpId(1));
        let mut w = FaultRecorder::default();
        run(&mut s, &mut w);
        assert_eq!(s.spans().marks().len(), 1);
        assert_eq!(s.spans().marks()[0].fault_id, ev_id);
        assert_eq!(s.spans().marks()[0].at, SimTime::from_millis(1));
    }

    #[test]
    fn determinism_across_runs() {
        let build = || {
            let mut s = Scheduler::new();
            let a = s.add_resource("a", 33.0);
            let b = s.add_resource("b", 77.0);
            for i in 0..50u64 {
                let step = if i % 2 == 0 {
                    Step::transfer(10.0 + i as f64, [a, b])
                } else {
                    Step::seq([Step::delay(i * 1000), Step::transfer(5.0, [b])])
                };
                s.submit(step, OpId(i));
            }
            let mut w = Recorder::default();
            run(&mut s, &mut w);
            w.completed
        };
        let r1 = build();
        let r2 = build();
        assert_eq!(r1.len(), r2.len());
        for (x, y) in r1.iter().zip(r2.iter()) {
            assert_eq!(x, y);
        }
    }
}
