//! Faulted scenarios: bandwidth under failure.
//!
//! Each scenario runs a healthy write phase, installs a deterministic
//! [`FaultPlan`] relative to the phase boundary, then drives the read
//! phase through a fault-aware driver that maps engine fault events onto
//! DAOS state:
//!
//! * [`FaultAction::TargetCrash`] → [`DaosSystem::crash_target`], plus an
//!   *online rebuild*: after a short detection delay the pool rebuilds
//!   while client reads continue (degraded replica fail-over for `RP_2`,
//!   reconstruction for `EC_2P1`), and the time from crash to the end of
//!   the rebuild data movement is reported as time-to-redundancy-restored;
//! * [`FaultAction::TargetRestart`] → [`DaosSystem::restart_target`];
//! * [`FaultAction::DelayedCompletion`] → [`DaosSystem::set_extra_delay`]
//!   keyed by server rank;
//! * [`FaultAction::SlowDisk`] / [`FaultAction::NicBrownout`] are applied
//!   by the engine itself as capacity scaling;
//! * [`FaultAction::BitRot`] → [`DaosSystem::apply_bit_rot`], silently;
//! * [`FaultAction::AddServer`] / [`FaultAction::DrainServer`] →
//!   membership changes and throttled migration waves.  Only the
//!   rebalance family ([`crate::rebalance`]) samples them; it drives its
//!   churn phase through the same world.
//!
//! The client side absorbs the injected `TargetDown` detections through
//! the shared [`RetryPolicy`] machinery configured on the *topmost*
//! interface layer, so the reported [`RetryStats`] count real retries,
//! timeout charges and (never, in a healthy policy) given-up operations.
//!
//! Everything — bandwidths, retry counters, the [`RebuildReport`], the
//! restore latency and the replay digest (which folds in every fired
//! fault) — must be bit-identical across replays; [`replay_faulted`]
//! checks exactly that.

use crate::driver::{run_phase, run_setup, OpsWorld, PhaseResult};
use crate::scenarios::{exec, make_sched, RunSpec};
use cluster::bench::{Phase, ProcWorkload};
use cluster::{Calibration, ClusterSpec, Topology};
use daos_core::{
    ContainerId, ContainerProps, DaosSystem, DataMode, ObjectClass, OracleReport, RebuildReport,
    RetryPolicy, RetryStats, TargetId,
};
use field_io::FieldIo;
use ior_bench::{AccessOrder, Ior, IorBackend, IorConfig};
use simkit::{run, FaultAction, FaultEvent, FaultPlan, OpId, Scheduler, SimTime, Step, World};
use std::cell::RefCell;
use std::rc::Rc;

/// One millisecond in nanoseconds (plan-building readability).
const MS: u64 = 1_000_000;

/// Delay between a crash firing and the rebuild kicking off (RAS event
/// propagation + pool-map revision distribution).  Until it elapses,
/// reads touching the dead targets run degraded: the first op from each
/// client node fails with `TargetDown` and its retry takes the
/// fail-over/reconstruction path.
const REBUILD_DETECT_NS: u64 = 2_000_000;

/// Scan units (array chunks / KV values) verified per scrubber wave:
/// the throttle that keeps background scanning from starving foreground
/// reads — each wave is one parallel step against the shared fairshare
/// disks, and the next is emitted only when it completes.
const SCRUB_WAVE_UNITS: usize = 8;

/// The failure-injection benchmark family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultedScenario {
    /// IOR easy (file-per-process, sequential) on `RP_2` Arrays: a
    /// target crash plus a transient slow disk during the read phase;
    /// reads fail over to the surviving replica.
    IorEasyRp2,
    /// IOR hard (shared file, random offsets) on `EC_2P1` Arrays: a
    /// target crash plus a delayed-completion brownout; reads
    /// reconstruct from data + parity.
    IorHardEc2p1,
    /// Field I/O on `EC_2P1` Arrays with a crash and a NIC brownout.
    FieldIoFaulted,
}

impl FaultedScenario {
    /// Every faulted scenario, in presentation order.
    pub const ALL: [FaultedScenario; 3] = [
        FaultedScenario::IorEasyRp2,
        FaultedScenario::IorHardEc2p1,
        FaultedScenario::FieldIoFaulted,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultedScenario::IorEasyRp2 => "IOR-easy/RP_2+crash",
            FaultedScenario::IorHardEc2p1 => "IOR-hard/EC_2P1+crash",
            FaultedScenario::FieldIoFaulted => "FieldIO/EC_2P1+crash",
        }
    }
}

/// The sweep point the faulted family runs at: enough servers for
/// redundancy groups to spread over distinct engines, few enough ops to
/// keep the fault window inside the read phase.
pub fn default_faulted_spec() -> RunSpec {
    let mut spec = RunSpec::new(4, 2, 4);
    spec.ops_per_proc = 48;
    spec
}

/// Where a faulted run's failure schedule comes from.
#[derive(Debug, Clone)]
pub enum PlanSource {
    /// The scenario's built-in hand-written schedule.
    Builtin,
    /// An explicit schedule whose event times are **offsets from the
    /// write→read phase boundary** (offset 0 fires the moment the read
    /// phase starts).  Chaos-generated and shrunken schedules use this
    /// form so the same JSON replays regardless of how long the healthy
    /// phase took.
    Fixed(FaultPlan),
}

/// Options for [`run_faulted_with`] — the knobs the chaos swarm turns
/// that the fixed benchmark family keeps at their defaults.
#[derive(Debug, Clone)]
pub struct FaultedOpts {
    /// The failure schedule.
    pub plan: PlanSource,
    /// Data mode: `Sized` (default) for bandwidth runs, `Full` when the
    /// durability oracles need real bytes to compare.
    pub mode: DataMode,
    /// Record acked writes during the run and audit every invariant
    /// oracle after quiescence.
    pub oracles: bool,
    /// Record causal spans.
    pub traced: bool,
    /// Enable the telemetry registry and a windowed monitor (at
    /// [`crate::runreport::RUN_REPORT_WINDOW_NS`]) and collect a
    /// unified [`crate::runreport::RunReport`] into the result.
    /// Telemetry is an observer: the digest must match an
    /// untelemetered run's exactly.
    pub telemetry: bool,
    /// Run the background scrubber during the faulted phase: one full
    /// resumable pass in [`SCRUB_WAVE_UNITS`]-unit waves racing the
    /// foreground reads for the same disks.  Part of the schedule (not
    /// an observer): scrub waves shift the digest like any other work.
    pub scrub: bool,
    /// Let terminally-failed reads complete as unavailable instead of
    /// panicking the driver — the rot-beyond-redundancy scenarios where
    /// the durability oracle, not the benchmark, delivers the verdict.
    pub tolerate_unavailable: bool,
}

impl Default for FaultedOpts {
    fn default() -> Self {
        FaultedOpts {
            plan: PlanSource::Builtin,
            mode: DataMode::Sized,
            oracles: false,
            traced: false,
            telemetry: false,
            scrub: false,
            tolerate_unavailable: false,
        }
    }
}

impl FaultedOpts {
    /// A chaos case's run: the phase-relative `plan`, `Full` data and
    /// every oracle auditing.
    pub(crate) fn audited(plan: &FaultPlan) -> Self {
        FaultedOpts {
            plan: PlanSource::Fixed(plan.clone()),
            mode: DataMode::Full,
            oracles: true,
            ..FaultedOpts::default()
        }
    }
}

/// Result of one faulted run.
#[derive(Debug, Clone)]
pub struct FaultedReport {
    /// Which scenario ran.
    pub scenario: FaultedScenario,
    /// Healthy write phase.
    pub write: PhaseResult,
    /// Read phase under failure.
    pub read: PhaseResult,
    /// Client-side retry counters (topmost interface layer).
    pub retry: RetryStats,
    /// Rebuild outcome, if a crash fired.
    pub rebuild: Option<RebuildReport>,
    /// Seconds from the crash firing to the rebuild movement draining.
    pub redundancy_restored_secs: Option<f64>,
    /// Post-quiescence invariant audit (only with
    /// [`FaultedOpts::oracles`]): acked-durability and reconstruction
    /// read-back, redundancy restoration, and the owning interface's
    /// consistency checks.
    pub oracles: Option<OracleReport>,
    /// End-to-end checksum activity at quiescence (after any oracle
    /// read-back): verifications, rot detections, transparent repairs,
    /// unrepairable extents, corrupt bytes served (always zero unless
    /// the verified-read path is broken).
    pub csum: daos_core::CsumStats,
    /// Scrubber progress (only with [`FaultedOpts::scrub`]).
    pub scrub: Option<daos_core::ScrubReport>,
    /// Unified telemetry report (only with [`FaultedOpts::telemetry`]),
    /// evaluated against [`crate::runreport::faulted_slo_rules`].
    pub run_report: Option<crate::runreport::RunReport>,
    /// Replay digest over completions *and* fired faults (including the
    /// installed schedule itself).
    pub digest: u64,
}

/// The two-run comparison for one faulted scenario.
#[derive(Debug, Clone)]
pub struct FaultedReplay {
    /// Both runs, from fresh state each.
    pub runs: [FaultedReport; 2],
}

impl FaultedReplay {
    /// Bit-identical digests, bandwidths, retry counters, rebuild
    /// reports and restore latencies across both runs.
    pub fn deterministic(&self) -> bool {
        let [a, b] = &self.runs;
        a.digest == b.digest
            && a.write.bandwidth() == b.write.bandwidth()
            && a.read.bandwidth() == b.read.bandwidth()
            && a.retry == b.retry
            && a.rebuild == b.rebuild
            && a.redundancy_restored_secs == b.redundancy_restored_secs
            && a.csum == b.csum
            && a.scrub == b.scrub
    }
}

/// Run `scen` twice from fresh state and report both runs.
pub fn replay_faulted(spec: &RunSpec, scen: FaultedScenario, cal: &Calibration) -> FaultedReplay {
    FaultedReplay {
        runs: [run_faulted(spec, scen, cal), run_faulted(spec, scen, cal)],
    }
}

/// Marker op ids of the phase world's background chains, far above any
/// process index.  Each family keeps its own block: op ids fold into
/// the replay digest, so a shared block would change every digest.
pub(crate) struct Markers {
    rebuild_trigger: OpId,
    rebuild_done: OpId,
    scrub_wave: OpId,
    migration_wave: OpId,
    retire_repair: OpId,
}

/// The faulted family's `1 << 40` block.  Its fault surface has no
/// membership events, so the migration markers are never submitted.
pub(crate) const FAULTED_MARKERS: Markers = Markers {
    rebuild_trigger: OpId(1 << 40),
    rebuild_done: OpId((1 << 40) + 1),
    scrub_wave: OpId((1 << 40) + 2),
    migration_wave: OpId((1 << 40) + 3),
    retire_repair: OpId((1 << 40) + 4),
};

/// The rebalance family's `1 << 41` block.  Rebalance runs never scrub,
/// so the scrub marker is never submitted.
pub(crate) const REBALANCE_MARKERS: Markers = Markers {
    migration_wave: OpId(1 << 41),
    rebuild_trigger: OpId((1 << 41) + 1),
    rebuild_done: OpId((1 << 41) + 2),
    retire_repair: OpId((1 << 41) + 3),
    scrub_wave: OpId((1 << 41) + 4),
};

/// Moves shipped per migration wave: the throttle that keeps background
/// migration from starving foreground traffic (each wave is one
/// parallel step; the next is emitted only when it completes).
const WAVE_MOVES: usize = 8;

/// What the fault-aware phase world observed.
#[derive(Default)]
pub(crate) struct FaultOutcome {
    pub(crate) rebuild: Option<RebuildReport>,
    pub(crate) crash_at: Option<SimTime>,
    pub(crate) restored_at: Option<SimTime>,
    /// Shard moves planned across every replanning pass.
    pub(crate) moves_planned: usize,
    /// Migration waves shipped.
    pub(crate) waves: usize,
}

/// The fault-aware phase world: the standard driver's op chaining plus
/// the mapping from fired fault events onto DAOS state, the crash →
/// detect → rebuild → restored chain, the throttled scrubber, and the
/// membership state machine (add/drain → plan → waves → finish →
/// repair).
struct PhaseWorld<'a, W: ProcWorkload> {
    ops: OpsWorld<'a, W>,
    daos: &'a Rc<RefCell<DaosSystem>>,
    markers: &'static Markers,
    /// A migration wave is in flight; completions (not events) advance
    /// migration.
    migrating: bool,
    out: FaultOutcome,
}

impl<W: ProcWorkload> PhaseWorld<'_, W> {
    /// Replan after a membership change and start pumping waves unless
    /// one is already in flight (it will pick up the new pending moves).
    fn replan_and_pump(&mut self, sched: &mut Scheduler) {
        let report = self.daos.borrow_mut().rebalance_plan();
        self.out.moves_planned += report.moves_planned;
        if !self.migrating {
            self.pump(sched);
        }
    }

    /// Ship the next migration wave, or — when the pending queue has
    /// drained — complete the rebalance: retire/promote membership and
    /// run one repair rescan so nothing a dropped move left behind
    /// stays unprotected.
    fn pump(&mut self, sched: &mut Scheduler) {
        let step = self.daos.borrow_mut().migration_wave(WAVE_MOVES);
        match step {
            Some(wave) => {
                self.migrating = true;
                self.out.waves += 1;
                sched.submit(wave, self.markers.migration_wave);
            }
            None => {
                self.migrating = false;
                let movement = {
                    let mut d = self.daos.borrow_mut();
                    d.finish_rebalance();
                    let (_, movement) = d.rebuild();
                    movement
                };
                sched.submit(movement, self.markers.retire_repair);
            }
        }
    }

    /// Membership/crash events may name a spare server before it has
    /// been added; state changes for ranks outside the current pool are
    /// no-ops.
    fn rank_exists(&self, server: u16) -> bool {
        (server as usize) < self.daos.borrow().server_count()
    }
}

impl<W: ProcWorkload> World for PhaseWorld<'_, W> {
    fn on_op_complete(&mut self, op: OpId, sched: &mut Scheduler) {
        let m = self.markers;
        if op == m.rebuild_trigger {
            // detection delay elapsed: rescan + start the data movement
            let (report, movement) = self.daos.borrow_mut().rebuild();
            self.out.rebuild = Some(report);
            sched.submit(movement, m.rebuild_done);
        } else if op == m.rebuild_done {
            self.out.restored_at = Some(sched.now());
        } else if op == m.scrub_wave {
            // wave drained: resume the scan from its cursor, stopping
            // after one full pass over the stored units
            if let Some(wave) = self.daos.borrow_mut().scrub_wave(SCRUB_WAVE_UNITS) {
                sched.submit(wave, m.scrub_wave);
            }
        } else if op == m.migration_wave {
            self.pump(sched);
        } else if op != m.retire_repair {
            self.ops.on_op_complete(op, sched);
        }
    }

    // simlint::panic_root — fault handler: must never panic
    fn on_fault(&mut self, event: &FaultEvent, sched: &mut Scheduler) {
        match event.action {
            FaultAction::AddServer { .. } => {
                self.daos.borrow_mut().add_server(sched);
                self.replan_and_pump(sched);
            }
            FaultAction::DrainServer { server } => {
                if self.rank_exists(server as u16) {
                    self.daos.borrow_mut().drain_server(server as u16);
                    self.replan_and_pump(sched);
                }
            }
            FaultAction::TargetCrash(payload) => {
                let t = TargetId::unpack(payload);
                if self.rank_exists(t.server) {
                    self.daos.borrow_mut().crash_target(t);
                    if self.out.crash_at.is_none() {
                        self.out.crash_at = Some(sched.now());
                        sched.submit(Step::delay(REBUILD_DETECT_NS), self.markers.rebuild_trigger);
                    }
                }
            }
            FaultAction::TargetRestart(payload) => {
                let t = TargetId::unpack(payload);
                if self.rank_exists(t.server) {
                    self.daos.borrow_mut().restart_target(t);
                }
            }
            FaultAction::DelayedCompletion { payload, extra_ns } => {
                self.daos
                    .borrow_mut()
                    .set_extra_delay(payload as u16, extra_ns);
            }
            FaultAction::BitRot { locus, shard } => {
                // silent: no detection chain here — a verified read or
                // a scrub wave has to find the damage on its own
                self.daos.borrow_mut().apply_bit_rot(locus, shard);
            }
            // capacity scaling is applied by the engine before dispatch
            FaultAction::SlowDisk { .. } | FaultAction::NicBrownout { .. } => {}
        }
    }
}

/// The measured op phase with the installed fault plan live, driven by
/// the fault-aware world (no setup barrier and no finalize: callers
/// that need a barrier run [`run_setup`] first).  With `scrub`, one full
/// resumable scrub pass races the foreground ops.
pub(crate) fn run_fault_phase<W: ProcWorkload>(
    sched: &mut Scheduler,
    wl: &mut W,
    daos: &Rc<RefCell<DaosSystem>>,
    markers: &'static Markers,
    scrub: bool,
) -> (PhaseResult, FaultOutcome) {
    let ops = OpsWorld::start(sched, wl);
    if scrub {
        let mut d = daos.borrow_mut();
        d.scrub_start();
        if let Some(wave) = d.scrub_wave(SCRUB_WAVE_UNITS) {
            sched.submit(wave, markers.scrub_wave);
        }
    }
    let mut world = PhaseWorld {
        ops,
        daos,
        markers,
        migrating: false,
        out: FaultOutcome::default(),
    };
    run(sched, &mut world);
    (world.ops.finish(), world.out)
}

/// IOR on DAOS Arrays of `oclass` under the default client retry
/// policy: easy (file per process, sequential) or `hard` (one shared
/// file, random offsets).
pub(crate) fn daos_ior(
    spec: &RunSpec,
    daos: &Rc<RefCell<DaosSystem>>,
    cid: ContainerId,
    oclass: ObjectClass,
    hard: bool,
    tolerate_unavailable: bool,
) -> Ior {
    let mut cfg = IorConfig::new(spec.procs(), spec.client_nodes, spec.ops_per_proc);
    cfg.transfer_size = spec.transfer;
    cfg.queue_depth = spec.queue_depth;
    cfg.tolerate_unavailable = tolerate_unavailable;
    if hard {
        cfg.file_per_proc = false;
        cfg.access = AccessOrder::Random;
    }
    let backend = IorBackend::Daos {
        daos: daos.clone(),
        cid,
        oclass,
    };
    let mut ior = Ior::new(cfg, backend);
    ior.set_retry_policy(RetryPolicy::default(), spec.seed);
    ior
}

/// The failure schedule for a scenario, anchored at `t0` (the boundary
/// between the healthy write phase and the faulted read phase).
fn fault_plan(scen: FaultedScenario, t0: SimTime, topo: &Topology) -> FaultPlan {
    let mut plan = FaultPlan::new();
    // an engine (whole server) crash: every target of server 1 goes down
    // at once, so a large fraction of shard groups run degraded until
    // the rebuild re-protects them
    let crash_server = |plan: &mut FaultPlan, at: SimTime| {
        for t in 0..topo.cal.targets_per_server as u16 {
            plan.at(
                at,
                FaultAction::TargetCrash(
                    TargetId {
                        server: 1,
                        target: t,
                    }
                    .pack(),
                ),
            );
        }
    };
    match scen {
        FaultedScenario::IorEasyRp2 => {
            // transient slow disk on a *different* server, then a crash,
            // then the disk recovers
            let disk = topo.servers[0].nvme_r[0];
            plan.at(
                t0 + MS,
                FaultAction::SlowDisk {
                    resource: disk,
                    scale: 0.4,
                },
            );
            crash_server(&mut plan, t0 + 2 * MS);
            plan.at(
                t0 + 8 * MS,
                FaultAction::SlowDisk {
                    resource: disk,
                    scale: 1.0,
                },
            );
        }
        FaultedScenario::IorHardEc2p1 => {
            // server 0 completions slow down, target on server 1 dies,
            // the slowdown clears
            plan.at(
                t0 + MS,
                FaultAction::DelayedCompletion {
                    payload: 0,
                    extra_ns: 200_000,
                },
            );
            crash_server(&mut plan, t0 + 2 * MS);
            plan.at(
                t0 + 10 * MS,
                FaultAction::DelayedCompletion {
                    payload: 0,
                    extra_ns: 0,
                },
            );
        }
        FaultedScenario::FieldIoFaulted => {
            let nic = topo.servers[0].nic_tx;
            plan.at(
                t0 + MS,
                FaultAction::NicBrownout {
                    resource: nic,
                    scale: 0.3,
                },
            );
            crash_server(&mut plan, t0 + 2 * MS);
            plan.at(
                t0 + 6 * MS,
                FaultAction::NicBrownout {
                    resource: nic,
                    scale: 1.0,
                },
            );
        }
    }
    plan
}

/// Execute one faulted scenario: healthy write phase, install the fault
/// plan at the phase boundary, faulted read phase, collect the report.
// simlint::digest_root — faulted-run double-replay digest entry
pub fn run_faulted(spec: &RunSpec, scen: FaultedScenario, cal: &Calibration) -> FaultedReport {
    run_faulted_with(spec, scen, cal, &FaultedOpts::default()).0
}

/// Like [`run_faulted`], but with span recording on: the returned
/// exports carry the causal trace of the whole run, including the retry
/// attempts and rebuild data movement nested under the ops (and marker
/// chain) that caused them.  The report itself — digest included — is
/// identical to the untraced run's.
pub fn run_faulted_traced(
    spec: &RunSpec,
    scen: FaultedScenario,
    cal: &Calibration,
) -> (FaultedReport, crate::tracing::SpanExports) {
    let opts = FaultedOpts {
        traced: true,
        ..FaultedOpts::default()
    };
    let (report, exports) = run_faulted_with(spec, scen, cal, &opts);
    (report, exports.expect("traced run exports spans"))
}

/// Execute one faulted scenario under explicit [`FaultedOpts`]: the
/// general entry point behind [`run_faulted`], the chaos swarm and the
/// shrinker's replay oracle.
// simlint::digest_root — chaos/faulted replay digest entry
pub fn run_faulted_with(
    spec: &RunSpec,
    scen: FaultedScenario,
    cal: &Calibration,
    opts: &FaultedOpts,
) -> (FaultedReport, Option<crate::tracing::SpanExports>) {
    let mut sched = make_sched(spec, false);
    if opts.traced {
        sched.enable_spans();
    }
    if opts.telemetry {
        sched.set_monitor(simkit::Monitor::windowed(
            crate::runreport::RUN_REPORT_WINDOW_NS,
        ));
        sched.enable_telemetry(crate::runreport::RUN_REPORT_WINDOW_NS);
    }
    let cspec = ClusterSpec::new(spec.servers, spec.client_nodes).with_cal(cal.clone());
    let topo = cspec.build(&mut sched);
    let mut daos_sys = DaosSystem::deploy(&topo, &mut sched, spec.servers, opts.mode);
    if opts.oracles {
        daos_sys.enable_ledger();
    }
    let (cid, s) = daos_sys.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let daos = Rc::new(RefCell::new(daos_sys));
    let plan_for = |t0: SimTime| match &opts.plan {
        PlanSource::Builtin => fault_plan(scen, t0, &topo),
        PlanSource::Fixed(plan) => plan.shifted(t0),
    };

    let (write, read, retry, out, iface_oracle) = match scen {
        FaultedScenario::IorEasyRp2 | FaultedScenario::IorHardEc2p1 => {
            let hard = scen == FaultedScenario::IorHardEc2p1;
            let oclass = if hard {
                ObjectClass::EC_2P1
            } else {
                ObjectClass::RP_2
            };
            let mut ior = daos_ior(spec, &daos, cid, oclass, hard, opts.tolerate_unavailable);
            let write = run_phase(&mut sched, &mut ior);
            sched.install_faults(plan_for(sched.now()));
            ior.set_phase(Phase::Read);
            run_setup(&mut sched, &mut ior);
            let (read, out) =
                run_fault_phase(&mut sched, &mut ior, &daos, &FAULTED_MARKERS, opts.scrub);
            (write, read, ior.retry_stats(), out, None)
        }
        FaultedScenario::FieldIoFaulted => {
            // EC_2P1 data, RP_2 index: an unprotected (SX) TOC shard on
            // the crashed server would be unrecoverable data loss
            let (mut fio, s) =
                FieldIo::with_classes(daos.clone(), 0, cid, ObjectClass::EC_2P1, ObjectClass::RP_2)
                    .expect("fieldio");
            exec(&mut sched, s);
            fio.set_retry_policy(RetryPolicy::default(), spec.seed);
            let mut wl = crate::workloads::FieldIoWorkload::new(
                fio,
                spec.procs(),
                spec.client_nodes,
                spec.ops_per_proc,
                spec.transfer,
            );
            let write = run_phase(&mut sched, &mut wl);
            sched.install_faults(plan_for(sched.now()));
            wl.phase = Phase::Read;
            run_setup(&mut sched, &mut wl);
            let (read, out) =
                run_fault_phase(&mut sched, &mut wl, &daos, &FAULTED_MARKERS, opts.scrub);
            let iface = opts.oracles.then(|| wl.fio.verify_consistency(0));
            (write, read, wl.fio.retry_stats(), out, iface)
        }
    };

    let oracles = opts.oracles.then(|| {
        let mut report = iface_oracle.unwrap_or_default();
        let mut d = daos.borrow_mut();
        report.merge(d.verify_durability(0));
        report.merge(d.verify_redundancy());
        report
    });
    let redundancy_restored_secs = match (out.crash_at, out.restored_at) {
        (Some(c), Some(r)) => Some(r.secs_since(c)),
        _ => None,
    };
    // snapshot after the oracle read-back so audit-triggered repairs
    // are included
    let csum = daos.borrow().csum_stats();
    let scrub = opts.scrub.then(|| daos.borrow().scrub_progress());
    let run_report = opts.telemetry.then(|| {
        // fold the layer-owned totals into the registry before export:
        // retry attempts/timeouts/circuit opens, the rebuild outcome and
        // the checksum/scrub activity only the storage layers know
        let at = sched.now();
        retry.publish(sched.telemetry_mut(), at);
        if let Some(rb) = &out.rebuild {
            rb.publish(sched.telemetry_mut(), at);
        }
        csum.publish(sched.telemetry_mut(), at);
        if let Some(sr) = &scrub {
            sr.publish(sched.telemetry_mut(), at);
        }
        crate::runreport::RunReport::collect(
            &sched,
            scen.name(),
            &write,
            &read,
            &crate::runreport::faulted_slo_rules(),
        )
    });
    let exports = opts
        .traced
        .then(|| crate::tracing::SpanExports::collect(&sched));
    (
        FaultedReport {
            scenario: scen,
            write,
            read,
            retry,
            rebuild: out.rebuild,
            redundancy_restored_secs,
            oracles,
            csum,
            scrub,
            run_report,
            digest: sched.digest(),
        },
        exports,
    )
}

/// Render faulted reports as a JSON array (hand-rolled: stable field
/// order, no external dependencies) — the bandwidth-under-failure
/// artifact CI uploads.
pub fn render_json(reports: &[FaultedReport]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        let rb = r.rebuild.clone().unwrap_or_default();
        s.push_str(&format!(
            concat!(
                "  {{\"scenario\": \"{}\", \"write_bw_gib\": {:.3}, ",
                "\"read_bw_gib\": {:.3}, \"attempts\": {}, \"retries\": {}, ",
                "\"timeouts\": {}, \"gave_up\": {}, \"shards_rebuilt\": {}, ",
                "\"shards_lost\": {}, \"redundancy_restored_ms\": {}, ",
                "\"digest\": \"{:#018x}\"}}{}\n"
            ),
            r.scenario.name(),
            r.write.bandwidth() / cluster::GIB,
            r.read.bandwidth() / cluster::GIB,
            r.retry.attempts,
            r.retry.retries,
            r.retry.timeouts,
            r.retry.gave_up,
            rb.shards_rebuilt,
            rb.shards_lost,
            r.redundancy_restored_secs
                .map_or("null".to_string(), |v| format!("{:.3}", v * 1e3)),
            r.digest,
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> RunSpec {
        let mut spec = default_faulted_spec();
        spec.ops_per_proc = 32;
        spec
    }

    #[test]
    fn rp2_failover_under_crash() {
        let r = run_faulted(
            &small_spec(),
            FaultedScenario::IorEasyRp2,
            &Calibration::default(),
        );
        // the crash was detected and absorbed by retries, not failures
        assert!(r.retry.retries >= 1, "{:?}", r.retry);
        assert_eq!(r.retry.gave_up, 0, "{:?}", r.retry);
        // bounded by the configured policy: every op (both phases) got
        // at most max_attempts tries
        let policy = RetryPolicy::default();
        let total_ops = (r.write.ops + r.read.ops) as u64;
        assert!(r.retry.attempts <= total_ops * policy.max_attempts as u64);
        assert!(r.retry.attempts >= total_ops);
        // the rebuild re-protected the crashed target's replicas
        let rb = r.rebuild.expect("rebuild ran");
        assert!(rb.shards_rebuilt > 0, "{rb:?}");
        assert_eq!(rb.shards_lost, 0, "RP_2 survives one crash: {rb:?}");
        let restored = r.redundancy_restored_secs.expect("restore time");
        assert!(restored > 0.0 && restored < r.read.seconds + 1.0);
        // bandwidth under failure is still real bandwidth
        assert!(r.read.bandwidth() > 0.0);
    }

    #[test]
    fn ec2p1_reconstruction_under_crash() {
        let r = run_faulted(
            &small_spec(),
            FaultedScenario::IorHardEc2p1,
            &Calibration::default(),
        );
        assert!(r.retry.retries >= 1, "{:?}", r.retry);
        assert_eq!(r.retry.gave_up, 0, "{:?}", r.retry);
        let rb = r.rebuild.expect("rebuild ran");
        assert!(rb.shards_rebuilt > 0, "{rb:?}");
        assert_eq!(rb.shards_lost, 0, "EC_2P1 survives one crash: {rb:?}");
        assert!(r.redundancy_restored_secs.is_some());
    }

    #[test]
    fn fieldio_faulted_replays_identically() {
        let rep = replay_faulted(
            &small_spec(),
            FaultedScenario::FieldIoFaulted,
            &Calibration::default(),
        );
        assert!(rep.deterministic(), "{rep:?}");
        assert!(rep.runs[0].retry.retries >= 1);
    }

    #[test]
    fn faulted_digest_differs_from_plan_change() {
        // same scenario, but the digest folds in the fired faults: a
        // faulted run can never collide with its healthy twin
        let spec = small_spec();
        let cal = Calibration::default();
        let a = run_faulted(&spec, FaultedScenario::IorEasyRp2, &cal);
        let b = run_faulted(&spec, FaultedScenario::IorEasyRp2, &cal);
        assert_eq!(a.digest, b.digest, "replays agree");
        let c = run_faulted(&spec, FaultedScenario::IorHardEc2p1, &cal);
        assert_ne!(a.digest, c.digest, "different plans diverge");
    }

    #[test]
    fn rp2_trace_shows_retries_and_rebuild_under_ops() {
        let cal = Calibration::default();
        let (r, exports) = run_faulted_traced(&small_spec(), FaultedScenario::IorEasyRp2, &cal);
        // tracing never perturbs the replay digest
        let plain = run_faulted(&small_spec(), FaultedScenario::IorEasyRp2, &cal);
        assert_eq!(r.digest, plain.digest, "spans changed the schedule");
        // the rebuild data movement and the client retries both appear
        // as spans on the causal timeline
        let layers = exports.layers();
        assert!(layers.contains(&"rebuild"), "no rebuild span: {layers:?}");
        assert!(
            exports.chrome_json.contains("\"cat\":\"retry\""),
            "no retry span in the trace"
        );
        // retried work is parented under the op that caused it: every
        // retry event names a non-root parent span
        let orphan = exports
            .chrome_json
            .split("},{")
            .filter(|ev| ev.contains("\"cat\":\"retry\""))
            .any(|ev| ev.contains("\"parent\":0,"));
        assert!(!orphan, "retry span without an enclosing op");
        // attempt ordinals above zero mark the re-driven work
        assert!(
            exports.chrome_json.contains("\"attempt\":1"),
            "no attempt>0 span recorded"
        );
        // fired faults land as instant marks
        assert!(exports.chrome_json.contains("\"cat\":\"fault\""));
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let r = run_faulted(
            &small_spec(),
            FaultedScenario::IorEasyRp2,
            &Calibration::default(),
        );
        let json = render_json(&[r]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"scenario\""));
        assert!(json.contains("\"redundancy_restored_ms\""));
    }
}
