//! The phase driver: runs a [`ProcWorkload`] on a scheduler and applies
//! the paper's bandwidth definition (§II): bytes moved divided by the
//! wall-clock time between the start of the first I/O operation and the
//! end of the last one.

use cluster::bench::ProcWorkload;
use simkit::{run, OpId, Scheduler, SimTime, World};

/// Result of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseResult {
    /// Logical bytes moved in the measured window.
    // simlint::dim(bytes)
    pub bytes: f64,
    /// Measured window in (simulated) seconds.
    pub seconds: f64,
    /// Total operations completed.
    pub ops: usize,
}

impl PhaseResult {
    /// Bandwidth in bytes/second.
    pub fn bandwidth(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bytes / self.seconds
        } else {
            0.0
        }
    }

    /// Operation rate in ops/second.
    pub fn iops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.ops as f64 / self.seconds
        } else {
            0.0
        }
    }
}

struct SetupWorld {
    remaining: usize,
}
impl World for SetupWorld {
    fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {
        self.remaining -= 1;
    }
}

/// The untimed setup barrier: every process runs its `setup`, and the
/// measured phase starts only once all of them completed.
pub(crate) fn run_setup<W: ProcWorkload>(sched: &mut Scheduler, wl: &mut W) {
    let procs = wl.procs();
    let mut setup = SetupWorld { remaining: procs };
    for p in 0..procs {
        let step = wl.setup(p);
        sched.submit(step, OpId(p as u64));
    }
    run(sched, &mut setup);
    assert_eq!(setup.remaining, 0, "setup completions");
}

/// The op chaining of a measured phase: each completion issues the
/// process's next op until it has issued `ops_per_proc`.  Fault-aware
/// phase worlds embed it and forward every process completion here.
pub(crate) struct OpsWorld<'a, W: ProcWorkload> {
    pub(crate) wl: &'a mut W,
    /// Next op index to issue, per process.
    next_idx: Vec<usize>,
    /// Ops still in flight, per process.
    inflight: Vec<usize>,
    ops_per_proc: usize,
    /// Processes that have not drained yet.
    remaining: usize,
    t0: SimTime,
    last_end: SimTime,
}

impl<'a, W: ProcWorkload> OpsWorld<'a, W> {
    /// Start the measured phase at the current sim time: every process
    /// issues its first queue-depth ops after its start stagger.
    pub(crate) fn start(sched: &mut Scheduler, wl: &'a mut W) -> Self {
        let procs = wl.procs();
        let ops_per_proc = wl.ops_per_proc();
        let initial = wl.queue_depth().max(1).min(ops_per_proc);
        for p in 0..procs {
            // Real parallel jobs leave the barrier with jittered start
            // times (MPI barrier exit, first-RPC setup).  A small
            // deterministic stagger reproduces that decorrelation;
            // without it, identical queue-depth-1 processes march in
            // lock-step waves that leave devices idle between waves.
            let stagger = start_stagger_ns(p);
            for i in 0..initial {
                let step = wl.op(p, i);
                sched.submit_after(stagger, step, OpId(p as u64));
            }
        }
        OpsWorld {
            wl,
            next_idx: vec![initial; procs],
            inflight: vec![initial; procs],
            ops_per_proc,
            remaining: if ops_per_proc > 0 { procs } else { 0 },
            t0: sched.now(),
            last_end: sched.now(),
        }
    }

    /// The measured window once every process has drained: from the
    /// phase start to the last op completion.
    pub(crate) fn finish(&self) -> PhaseResult {
        assert_eq!(self.remaining, 0, "all processes finished");
        let ops = self.wl.procs() * self.ops_per_proc;
        PhaseResult {
            bytes: ops as f64 * self.wl.bytes_per_op(),
            seconds: self.last_end.secs_since(self.t0),
            ops,
        }
    }
}

impl<W: ProcWorkload> World for OpsWorld<'_, W> {
    fn on_op_complete(&mut self, op: OpId, sched: &mut Scheduler) {
        let proc = op.0 as usize;
        self.last_end = sched.now();
        self.inflight[proc] -= 1;
        let idx = self.next_idx[proc];
        if idx < self.ops_per_proc {
            self.next_idx[proc] += 1;
            self.inflight[proc] += 1;
            let step = self.wl.op(proc, idx);
            sched.submit(step, OpId(proc as u64));
        } else if self.inflight[proc] == 0 {
            self.remaining -= 1;
        }
    }
}

/// Run one measured phase of `wl` on `sched`.
///
/// 1. Every process runs its `setup` (untimed);
/// 2. barrier;
/// 3. every process issues its ops back-to-back (queue depth 1, as IOR
///    and the ECMWF tools do);
/// 4. `finalize` runs (untimed unless the workload buffers, in which
///    case its flushed bytes still count toward volume).
pub fn run_phase<W: ProcWorkload>(sched: &mut Scheduler, wl: &mut W) -> PhaseResult {
    let procs = wl.procs();
    let ops_per_proc = wl.ops_per_proc();
    run_setup(sched, wl);
    let t0 = sched.now();
    let mut world = OpsWorld::start(sched, wl);
    if ops_per_proc > 0 {
        run(sched, &mut world);
    }
    let mut result = world.finish();

    // -- finalize --
    let finalize_bytes = wl.finalize_bytes() * procs as f64;
    let in_window = wl.finalize_in_window();
    let mut fin = SetupWorld { remaining: procs };
    for p in 0..procs {
        let step = wl.finalize(p);
        sched.submit(step, OpId(p as u64));
    }
    run(sched, &mut fin);
    if in_window || finalize_bytes > 0.0 {
        // buffered writers flush real data during finalize; count it
        result.seconds = sched.now().secs_since(t0);
    }
    result.bytes += finalize_bytes;

    // simlint::allow(env-dependent-sim) — opt-in diagnostics printout; no effect on results
    if std::env::var_os("SIMKIT_DIAG").is_some() {
        eprintln!(
            "[diag] recomputes={} flow_visits={} fill_iters={} ({} procs x {} ops)",
            sched.stat_recomputes,
            sched.stat_flow_visits,
            sched.stat_fill_iters,
            procs,
            ops_per_proc
        );
    }
    result
}

/// Deterministic per-process start jitter, uniform in [0, 2 ms).
pub(crate) fn start_stagger_ns(proc: usize) -> u64 {
    let mut z = proc as u64 ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 2_000_000
}

/// A trivial workload for driver tests: each process performs `ops`
/// transfers through one shared resource.
#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{ResourceId, Step};

    struct Uniform {
        procs: usize,
        ops: usize,
        bytes: f64,
        res: ResourceId,
    }
    impl ProcWorkload for Uniform {
        fn procs(&self) -> usize {
            self.procs
        }
        fn node_of(&self, _p: usize) -> usize {
            0
        }
        fn setup(&mut self, _p: usize) -> Step {
            Step::delay(1000)
        }
        fn ops_per_proc(&self) -> usize {
            self.ops
        }
        fn bytes_per_op(&self) -> f64 {
            self.bytes
        }
        fn op(&mut self, _p: usize, _i: usize) -> Step {
            Step::transfer(self.bytes, [self.res])
        }
    }

    #[test]
    fn bandwidth_equals_capacity_when_saturated() {
        let mut sched = Scheduler::new();
        let res = sched.add_resource("r", 1000.0);
        let mut wl = Uniform {
            procs: 4,
            ops: 25,
            bytes: 10.0,
            res,
        };
        let r = run_phase(&mut sched, &mut wl);
        assert_eq!(r.ops, 100);
        assert!((r.bytes - 1000.0).abs() < 1e-9);
        // 1000 bytes through 1000 B/s = 1 s, plus up to 2 ms of start
        // stagger
        assert!(
            r.seconds >= 1.0 - 1e-6 && r.seconds < 1.003,
            "{}",
            r.seconds
        );
        assert!((r.bandwidth() - 1000.0).abs() < 5.0);
        assert!((r.iops() - 100.0).abs() < 0.5);
    }

    #[test]
    fn setup_time_is_not_measured() {
        struct SlowSetup {
            res: ResourceId,
        }
        impl ProcWorkload for SlowSetup {
            fn procs(&self) -> usize {
                1
            }
            fn node_of(&self, _p: usize) -> usize {
                0
            }
            fn setup(&mut self, _p: usize) -> Step {
                Step::delay(5_000_000_000) // five slow seconds
            }
            fn ops_per_proc(&self) -> usize {
                1
            }
            fn bytes_per_op(&self) -> f64 {
                100.0
            }
            fn op(&mut self, _p: usize, _i: usize) -> Step {
                Step::transfer(100.0, [self.res])
            }
        }
        let mut sched = Scheduler::new();
        let res = sched.add_resource("r", 100.0);
        let r = run_phase(&mut sched, &mut SlowSetup { res });
        assert!(
            r.seconds >= 1.0 - 1e-6 && r.seconds < 1.003,
            "setup excluded: {}",
            r.seconds
        );
    }

    #[test]
    fn zero_ops_is_safe() {
        let mut sched = Scheduler::new();
        let res = sched.add_resource("r", 10.0);
        let mut wl = Uniform {
            procs: 2,
            ops: 0,
            bytes: 1.0,
            res,
        };
        let r = run_phase(&mut sched, &mut wl);
        assert_eq!(r.ops, 0);
        assert_eq!(r.bandwidth(), 0.0);
    }
}
