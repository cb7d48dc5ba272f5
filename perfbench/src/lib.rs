//! # perfbench — host-time benchmark of the simulator
//!
//! Runs four of the paper's workloads end to end through the crates'
//! public constructors and the `benchkit` phase driver, and measures
//! the simulator's own wall-clock cost from outside: every interval is
//! taken around a call into a crate's public API (see [`probe`]).
//! Simulated bandwidth and IOPS are outputs to check, not metrics.
//!
//! A traced run additionally wraps every `ProcWorkload` callback in a
//! timer and turns on the engine's telemetry registry, which yields the
//! per-layer split: engine self time, interface-stack callback time,
//! set-up constructors and daos-core's background work.

pub mod probe;

use benchkit::scenarios::{run_mdtest, MdStore};
use benchkit::{run_phase, run_scenario_digest, PhaseResult, RunSpec, Scenario};
use cluster::bench::{Phase, ProcWorkload};
use cluster::{Calibration, ClusterSpec};
use daos_core::{ContainerId, ContainerProps, DaosSystem, DataMode, ObjectClass};
use daos_dfs::{Dfs, DfsOpts};
use daos_dfuse::{DfuseMount, DfuseOpts};
use ior_bench::{AccessOrder, Ior, IorBackend, IorConfig, MdPhase, Mdtest, MdtestConfig};
use probe::{PhaseKind, Probe, Timed};
use simkit::{run, OpId, Scheduler, SplitMix64, Step, World};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The seed whose outputs are recorded in `expected.json`.
pub const DEFAULT_SEED: u64 = 42;

/// Telemetry window of the traced run: one simulated second, so the
/// per-window rows stay a handful of entries long.
const TELEMETRY_WINDOW_NS: u64 = 1_000_000_000;

/// Scan units per scrubber wave on redundancy-full.
const SCRUB_WAVE_UNITS: usize = 16;

/// The server whose targets redundancy-full excludes before its
/// rebuild.  One target holds only a handful of shards at this size;
/// a whole server holds about a third of them.
const EXCLUDED_SERVER: u16 = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// IOR on libdaos, 1 MiB transfers, 32 × 32 processes (Fig. 1).
    IorBulk,
    /// mdtest create/stat/remove on DFUSE with metadata caching.
    MdtestMeta,
    /// IOR POSIX on DFUSE+IL, 1 KiB transfers (Fig. 2).
    IorSmallIl,
    /// IOR-hard on `EC_2P1` with real bytes: write, target exclusion
    /// and rebuild, read, one scrub pass and a durability audit.
    RedundancyFull,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::IorBulk,
        Workload::MdtestMeta,
        Workload::IorSmallIl,
        Workload::RedundancyFull,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IorBulk => "ior-bulk",
            Workload::MdtestMeta => "mdtest-meta",
            Workload::IorSmallIl => "ior-small-il",
            Workload::RedundancyFull => "redundancy-full",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sweep point the benchmark measures.
    pub fn spec(self) -> RunSpec {
        match self {
            Workload::IorBulk => RunSpec::new(16, 32, 32),
            Workload::MdtestMeta => {
                let mut spec = RunSpec::new(16, 32, 32);
                spec.ops_per_proc = 8;
                spec
            }
            Workload::IorSmallIl => {
                let mut spec = RunSpec::new(16, 16, 32);
                spec.transfer = 1 << 10;
                spec
            }
            Workload::RedundancyFull => {
                let mut spec = RunSpec::new(4, 2, 4);
                spec.ops_per_proc = 24;
                spec.data_class = ObjectClass::EC_2P1;
                spec
            }
        }
    }
}

/// The calibration a seed selects: `benchkit::run_reps`'s perturbation
/// of the default calibration for its first repetition.
pub fn calibration(seed: u64) -> Calibration {
    let mut rng = SplitMix64::new(seed ^ 0x9e37);
    Calibration::default().perturb(&mut rng)
}

/// What the program's own entry point produces for a workload.
#[derive(Debug)]
pub struct Reference {
    /// Replay digest, where the entry point returns one.
    pub digest: Option<u64>,
    /// Phase names and results, in order.
    pub phases: Vec<(&'static str, PhaseResult)>,
}

/// Run the program's own entry point for workload `w` — the one the
/// composition tests pin it to — so a run at any seed can be checked
/// exactly.  redundancy-full has no such entry point.
pub fn reference(w: Workload, spec: &RunSpec, cal: &Calibration) -> Option<Reference> {
    let scen = match w {
        Workload::IorBulk => Scenario::IorDaos,
        Workload::IorSmallIl => Scenario::IorDfuseIl,
        Workload::MdtestMeta => {
            let [create, stat, remove] = run_mdtest(spec, MdStore::Dfuse, cal);
            return Some(Reference {
                digest: None,
                phases: vec![("create", create), ("stat", stat), ("remove", remove)],
            });
        }
        Workload::RedundancyFull => return None,
    };
    let (result, digest) = run_scenario_digest(spec, scen, cal);
    Some(Reference {
        digest: Some(digest),
        phases: vec![("write", result.write), ("read", result.read)],
    })
}

/// What redundancy-full's background work and audit found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Shards the rebuild moved.
    pub shards_rebuilt: u64,
    /// Shards the rebuild could not recover.
    pub shards_lost: u64,
    /// Stored bytes the scrub pass read.
    pub scrub_bytes: u64,
    /// Acked extents the durability audit read back.
    pub verified_extents: u64,
    /// Shard groups the redundancy audit inspected.
    pub checked_groups: u64,
    /// Oracle violations (durability plus redundancy).
    pub violations: u64,
    /// Checksum verifications performed.
    pub csum_verified: u64,
    /// Corrupt payloads served to clients (must be zero).
    pub served_corrupt: u64,
}

/// One measured phase's simulated result.
#[derive(Debug, Clone, Copy)]
pub struct PhaseOut {
    /// Phase name (`write`, `read`, `create`, `stat`, `remove`).
    pub name: &'static str,
    /// Which host-time bucket it counts toward.
    pub kind: PhaseKind,
    /// `run_phase`'s result.
    pub result: PhaseResult,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Replay digest of the whole run.
    pub digest: u64,
    /// Measured phases, in order.
    pub phases: Vec<PhaseOut>,
    /// Simulated ops that failed (tolerated unavailable reads).
    pub failed_ops: u64,
    /// Background-work and audit results (redundancy-full only).
    pub checks: Option<Checks>,
    /// Host times.
    pub probe: Probe,
    /// Host time of the whole run, set-up and teardown included.
    pub wall: Duration,
    /// Telemetry totals by metric name (traced runs only).
    pub telemetry: BTreeMap<String, u64>,
    /// Peak in-flight flow count (traced runs only).
    pub inflight_peak: u64,
}

impl RunOutput {
    /// Simulated ops attempted across the measured phases.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.result.ops as u64).sum()
    }

    /// The phase named `name`.
    pub fn phase(&self, name: &str) -> Option<&PhaseResult> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| &p.result)
    }
}

/// The scheduler `benchkit`'s scenario entry points build: event
/// coalescing by transfer size and 2 % fair-share tolerance.  These
/// knobs are crate-private there, so they are repeated here; the
/// composition tests catch any drift.
pub fn make_sched(spec: &RunSpec) -> Scheduler {
    let mut sched = Scheduler::new();
    sched.set_coalescing(if spec.transfer >= (256 << 10) {
        100_000
    } else {
        2_000
    });
    sched.set_fairshare_tolerance(0.02);
    sched
}

struct Sink;
impl World for Sink {
    fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
}

/// A run in progress: the scheduler, the probe and the phases so far.
struct Ctx {
    sched: Scheduler,
    probe: Probe,
    phases: Vec<PhaseOut>,
}

impl Ctx {
    /// Run `step` to completion as `benchkit` does for set-up and
    /// background steps; the engine's time is simkit self time.
    fn exec(&mut self, step: Step) -> Duration {
        let sched = &mut self.sched;
        let (_, d) = self.probe.time("simkit.self_s", || {
            sched.submit(step, OpId(u64::MAX));
            run(sched, &mut Sink);
        });
        d
    }

    fn exec_setup(&mut self, step: Step) {
        let d = self.exec(step);
        self.probe.setup += d;
    }

    fn exec_background(&mut self, step: Step) {
        let d = self.exec(step);
        self.probe.background += d;
    }

    /// Drive one measured phase through `benchkit::run_phase`.
    fn phase<W: ProcWorkload>(&mut self, name: &'static str, kind: PhaseKind, wl: &mut W) {
        let mut timed = Timed::new(wl, self.probe.traced);
        let t0 = Instant::now();
        let result = run_phase(&mut self.sched, &mut timed);
        let t1 = Instant::now();
        let first = timed.first_op.unwrap_or(t1);
        self.probe.setup += first - t0;
        match kind {
            PhaseKind::Write => {
                self.probe.write += t1 - first;
                self.probe.write_cb += timed.op_cb;
            }
            PhaseKind::Read => {
                self.probe.read += t1 - first;
                self.probe.read_cb += timed.op_cb;
            }
        }
        let callbacks = timed.setup_cb + timed.op_cb;
        self.probe.charge("ior-bench.setup_s", timed.setup_cb);
        self.probe.charge("ior-bench.op_s", timed.op_cb);
        self.probe
            .charge("simkit.self_s", (t1 - t0).saturating_sub(callbacks));
        self.probe.op_ns.append(&mut timed.op_ns);
        self.phases.push(PhaseOut { name, kind, result });
    }

    /// Topology, pool and one container: the set-up every workload shares.
    fn deploy(
        &mut self,
        spec: &RunSpec,
        cal: &Calibration,
        mode: DataMode,
    ) -> (Rc<RefCell<DaosSystem>>, ContainerId) {
        let cspec = ClusterSpec::new(spec.servers, spec.client_nodes).with_cal(cal.clone());
        let sched = &mut self.sched;
        let topo = self.probe.setup("cluster.build_s", || cspec.build(sched));
        let (daos, cid, step) = self.probe.setup("daos-core.deploy_s", || {
            let mut daos = DaosSystem::deploy(&topo, sched, spec.servers, mode);
            if mode == DataMode::Full {
                daos.enable_ledger();
            }
            let (cid, step) = daos.cont_create(0, ContainerProps::default());
            (daos, cid, step)
        });
        self.exec_setup(step);
        (Rc::new(RefCell::new(daos)), cid)
    }

    /// Format DFS in `cid` and mount DFUSE over it.
    fn mount(
        &mut self,
        daos: &Rc<RefCell<DaosSystem>>,
        cid: ContainerId,
        dfs_opts: DfsOpts,
        opts: DfuseOpts,
    ) -> DfuseMount {
        let (dfs, step) = self.probe.setup("daos-dfs.format_s", || {
            Dfs::format(daos.clone(), 0, cid, dfs_opts).expect("dfs format")
        });
        self.exec_setup(step);
        let sched = &mut self.sched;
        self.probe
            .setup("daos-dfuse.mount_s", || DfuseMount::mount(dfs, sched, opts))
    }
}

fn ior_config(spec: &RunSpec) -> IorConfig {
    let mut cfg = IorConfig::new(spec.procs(), spec.client_nodes, spec.ops_per_proc);
    cfg.transfer_size = spec.transfer;
    cfg.queue_depth = spec.queue_depth;
    cfg
}

/// Run workload `w` at sweep point `spec` under calibration `cal`.
/// `traced` adds the callback timers and the telemetry registry; it
/// must not change any simulated output.
pub fn run_workload(w: Workload, spec: &RunSpec, cal: &Calibration, traced: bool) -> RunOutput {
    let start = Instant::now();
    let mut sched = make_sched(spec);
    if w == Workload::MdtestMeta {
        // `benchkit::run_mdtest`: metadata ops use the tight quantum
        sched.set_coalescing(2_000);
    }
    if traced {
        sched.enable_telemetry(TELEMETRY_WINDOW_NS);
    }
    let mut ctx = Ctx {
        sched,
        probe: Probe::new(traced),
        phases: Vec::new(),
    };
    let mut checks = None;
    let mut failed_ops = 0;
    // Each arm hands back what the teardown drops, so dropping the
    // simulated deployment is timed too.
    let state: Box<dyn std::any::Any> = match w {
        Workload::IorBulk | Workload::IorSmallIl => {
            let (daos, cid) = ctx.deploy(spec, cal, DataMode::Sized);
            let backend = if w == Workload::IorBulk {
                IorBackend::Daos {
                    daos: daos.clone(),
                    cid,
                    oclass: spec.data_class,
                }
            } else {
                let dfs_opts = DfsOpts {
                    file_class: spec.data_class,
                    dir_class: spec.meta_class,
                    chunk_size: 1 << 20,
                };
                let mut opts = DfuseOpts::with_interception();
                opts.data_caching = spec.dfuse_caching;
                opts.metadata_caching = spec.dfuse_caching;
                IorBackend::Posix(Box::new(ctx.mount(&daos, cid, dfs_opts, opts)))
            };
            let mut ior = ctx
                .probe
                .setup("ior-bench.setup_s", || Ior::new(ior_config(spec), backend));
            ctx.phase("write", PhaseKind::Write, &mut ior);
            ior.set_phase(Phase::Read);
            ctx.phase("read", PhaseKind::Read, &mut ior);
            Box::new((ior, daos))
        }
        Workload::MdtestMeta => {
            let (daos, cid) = ctx.deploy(spec, cal, DataMode::Sized);
            let opts = DfuseOpts {
                metadata_caching: true,
                ..Default::default()
            };
            let fs = ctx.mount(&daos, cid, DfsOpts::default(), opts);
            drop(daos);
            let cfg = MdtestConfig::new(spec.procs(), spec.client_nodes, spec.ops_per_proc);
            let mut md = ctx
                .probe
                .setup("ior-bench.setup_s", || Mdtest::new(cfg, Box::new(fs)));
            ctx.phase("create", PhaseKind::Write, &mut md);
            md.set_phase(MdPhase::Stat);
            ctx.phase("stat", PhaseKind::Read, &mut md);
            md.set_phase(MdPhase::Remove);
            ctx.phase("remove", PhaseKind::Write, &mut md);
            Box::new(md)
        }
        Workload::RedundancyFull => {
            let (daos, cid) = ctx.deploy(spec, cal, DataMode::Full);
            let mut cfg = ior_config(spec);
            // IOR-hard: one shared file at random offsets, so the
            // object spans many shard groups and a rebuild has work
            cfg.file_per_proc = false;
            cfg.access = AccessOrder::Random;
            cfg.tolerate_unavailable = true;
            let backend = IorBackend::Daos {
                daos: daos.clone(),
                cid,
                oclass: spec.data_class,
            };
            let mut ior = ctx
                .probe
                .setup("ior-bench.setup_s", || Ior::new(cfg, backend));
            ctx.phase("write", PhaseKind::Write, &mut ior);
            let (rebuild, movement) = ctx.probe.background("daos-core.rebuild_s", || {
                let mut d = daos.borrow_mut();
                d.exclude_server(EXCLUDED_SERVER);
                d.rebuild()
            });
            ctx.exec_background(movement);
            ior.set_phase(Phase::Read);
            ctx.phase("read", PhaseKind::Read, &mut ior);
            ctx.probe
                .background("daos-core.scrub_s", || daos.borrow_mut().scrub_start());
            while let Some(wave) = ctx.probe.background("daos-core.scrub_s", || {
                daos.borrow_mut().scrub_wave(SCRUB_WAVE_UNITS)
            }) {
                ctx.exec_background(wave);
            }
            let oracle = ctx.probe.background("daos-core.verify_s", || {
                let mut d = daos.borrow_mut();
                let mut report = d.verify_durability(0);
                report.merge(d.verify_redundancy());
                report
            });
            let d = daos.borrow();
            let csum = d.csum_stats();
            checks = Some(Checks {
                shards_rebuilt: rebuild.shards_rebuilt as u64,
                shards_lost: rebuild.shards_lost as u64,
                scrub_bytes: d.scrub_progress().bytes_scanned,
                verified_extents: oracle.checked_extents as u64,
                checked_groups: oracle.checked_groups as u64,
                violations: oracle.violations.len() as u64,
                csum_verified: csum.verified,
                served_corrupt: csum.served_corrupt,
            });
            drop(d);
            failed_ops = ior.unavailable_reads() as u64;
            Box::new((ior, daos))
        }
    };
    let Ctx {
        sched,
        mut probe,
        phases,
    } = ctx;
    let digest = sched.digest();
    let mut telemetry = BTreeMap::new();
    let mut inflight_peak = 0;
    if traced {
        for v in sched.telemetry().views() {
            if v.name == "engine.flows.inflight" {
                inflight_peak = v.windows.iter().copied().max().unwrap_or(0);
            }
            telemetry.insert(v.name.to_string(), v.total);
        }
    }
    probe.time("harness.teardown_s", move || drop((state, sched)));
    RunOutput {
        digest,
        phases,
        failed_ops,
        checks,
        probe,
        wall: start.elapsed(),
        telemetry,
        inflight_peak,
    }
}
