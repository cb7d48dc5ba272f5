//! Host-time probes placed on the benchmark's side of each layer
//! boundary.  Nothing here reaches into a crate: every interval is the
//! wall-clock duration of one call into a crate's public API, measured
//! with [`Instant`] around the call.

use cluster::bench::ProcWorkload;
use simkit::Step;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Which end-to-end bucket a measured phase belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Mutating phases: IOR write, mdtest create and remove.
    Write,
    /// Non-mutating phases: IOR read, mdtest stat.
    Read,
}

/// Accumulated host times of one workload run.
#[derive(Debug, Default)]
pub struct Probe {
    /// Wrap every `ProcWorkload` callback in a timer (the traced run).
    pub traced: bool,
    /// End-to-end buckets: set-up (constructors and setup barriers),
    /// mutating phases, non-mutating phases and background work.
    pub setup: Duration,
    pub write: Duration,
    pub read: Duration,
    pub background: Duration,
    /// Self time per layer, keyed by metric name (`cluster.build_s`, …).
    pub layers: BTreeMap<&'static str, Duration>,
    /// Host time of `op` and `finalize` callbacks per phase kind
    /// (traced only): the interface stack's share of each bucket.
    pub write_cb: Duration,
    pub read_cb: Duration,
    /// Per-call host time of every measured `op` callback (traced only).
    pub op_ns: Vec<u64>,
}

impl Probe {
    /// A probe for an untraced (`traced = false`) or traced run.
    pub fn new(traced: bool) -> Probe {
        Probe {
            traced,
            ..Probe::default()
        }
    }

    /// Add `d` to layer `name`'s self time.
    pub fn charge(&mut self, name: &'static str, d: Duration) {
        *self.layers.entry(name).or_default() += d;
    }

    /// Run `f`, charging its duration to layer `name`; returns the
    /// result and the duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t = Instant::now();
        let v = f();
        let d = t.elapsed();
        self.charge(name, d);
        (v, d)
    }

    /// Like [`Probe::time`], also counted as set-up time.
    pub fn setup<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (v, d) = self.time(name, f);
        self.setup += d;
        v
    }

    /// Like [`Probe::time`], also counted as background time.
    pub fn background<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (v, d) = self.time(name, f);
        self.background += d;
        v
    }

    /// Seconds charged to layer `name` (0 when never charged).
    pub fn layer_s(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, Duration::as_secs_f64)
    }
}

/// A [`ProcWorkload`] forwarded unchanged to `inner`, with host-time
/// stamps.  Untraced, it only notes when the first measured `op` is
/// built, which splits `run_phase` into its untimed setup barrier and
/// the measured phase.  Traced, it also times every callback.
pub struct Timed<'a, W: ProcWorkload> {
    inner: &'a mut W,
    traced: bool,
    /// When the first measured op was requested.
    pub first_op: Option<Instant>,
    /// Host time inside `setup` callbacks.
    pub setup_cb: Duration,
    /// Host time inside `op` and `finalize` callbacks.
    pub op_cb: Duration,
    /// Per-call `op` durations.
    pub op_ns: Vec<u64>,
}

impl<'a, W: ProcWorkload> Timed<'a, W> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut W, traced: bool) -> Self {
        Timed {
            inner,
            traced,
            first_op: None,
            setup_cb: Duration::ZERO,
            op_cb: Duration::ZERO,
            op_ns: Vec::new(),
        }
    }
}

impl<W: ProcWorkload> ProcWorkload for Timed<'_, W> {
    fn procs(&self) -> usize {
        self.inner.procs()
    }
    fn node_of(&self, proc: usize) -> usize {
        self.inner.node_of(proc)
    }
    fn setup(&mut self, proc: usize) -> Step {
        if !self.traced {
            return self.inner.setup(proc);
        }
        let t = Instant::now();
        let s = self.inner.setup(proc);
        self.setup_cb += t.elapsed();
        s
    }
    fn ops_per_proc(&self) -> usize {
        self.inner.ops_per_proc()
    }
    fn bytes_per_op(&self) -> f64 {
        self.inner.bytes_per_op()
    }
    fn op(&mut self, proc: usize, idx: usize) -> Step {
        if self.first_op.is_none() {
            self.first_op = Some(Instant::now());
        }
        if !self.traced {
            return self.inner.op(proc, idx);
        }
        let t = Instant::now();
        let s = self.inner.op(proc, idx);
        let d = t.elapsed();
        self.op_cb += d;
        self.op_ns.push(d.as_nanos() as u64);
        s
    }
    fn finalize(&mut self, proc: usize) -> Step {
        if !self.traced {
            return self.inner.finalize(proc);
        }
        let t = Instant::now();
        let s = self.inner.finalize(proc);
        self.op_cb += t.elapsed();
        s
    }
    fn finalize_bytes(&self) -> f64 {
        self.inner.finalize_bytes()
    }
    fn finalize_in_window(&self) -> bool {
        self.inner.finalize_in_window()
    }
    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }
}
