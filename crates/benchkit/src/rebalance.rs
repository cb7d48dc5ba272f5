//! The rebalance scenario family: live membership changes under load.
//!
//! Each scenario runs a healthy write phase, installs a fault plan at
//! the phase boundary, then drives the read phase through a world that
//! maps membership events onto the elastic-pool API of
//! [`DaosSystem`]:
//!
//! * [`FaultAction::AddServer`] → [`DaosSystem::add_server`] (the
//!   deployment keeps [`SPARE_SERVERS`] unused hardware nodes to grow
//!   into) followed by a [`DaosSystem::rebalance_plan`];
//! * [`FaultAction::DrainServer`] → [`DaosSystem::drain_server`] plus a
//!   plan;
//! * planned moves ship as throttled [`DaosSystem::migration_wave`]s
//!   that compete with the foreground reads through the same fairshare
//!   NIC/engine/NVMe resources;
//! * [`FaultAction::TargetCrash`] → [`DaosSystem::crash_target`] and
//!   the crash → detect → rebuild chain of the faulted family.  A crash
//!   mid-migration invalidates the stale moves (the wave emitter drops
//!   them) and the rebuild re-protects what the crash degraded;
//! * when the pending queue drains, [`DaosSystem::finish_rebalance`]
//!   retires drained targets and promotes reintegrating ones, then one
//!   repair rescan re-protects anything a dropped move left behind.
//!
//! The chaos surface ([`rebalance_space`]) extends the faulted family's
//! with the three rebalance dimensions (server adds, server drains,
//! crashes aimed at migration sources/destinations).  [`Rebalance`]
//! plugs the family into the shared chaos harness
//! ([`crate::chaos::Family`]): durability/redundancy oracles, double-run
//! determinism, schedule archiving and ddmin shrinking.

use crate::chaos::{engine_space, scratch_topology, CaseRun, Family};
use crate::driver::{run_phase, PhaseResult};
use crate::faulted::{daos_ior, run_fault_phase, PlanSource, REBALANCE_MARKERS};
use crate::scenarios::{exec, make_sched, RunSpec};
use crate::tracing::SpanExports;
use cluster::bench::Phase;
use cluster::{Calibration, ClusterSpec};
use daos_core::{
    ContainerProps, DaosSystem, DataMode, MigrationProgress, ObjectClass, OracleReport,
    RebuildReport, RetryStats, TargetId,
};
use simkit::{generate, ChaosConfig, ChaosSpace, FaultAction, FaultPlan, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Spare hardware nodes every rebalance deployment keeps beyond the
/// deployed servers — [`FaultAction::AddServer`] grows into them.
pub const SPARE_SERVERS: usize = 2;

/// The live-rebalance benchmark family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RebalanceScenario {
    /// IOR easy (file-per-process, sequential) on `RP_2` Arrays.
    IorEasyRp2,
    /// IOR hard (shared file, random offsets) on `EC_2P1` Arrays.
    IorHardEc2p1,
    /// IOR easy on unreplicated `S1` Arrays: no redundancy, so a crash
    /// aimed at a migration destination genuinely loses extents — the
    /// planted-violation scenario the swarm's oracles must catch.
    IorEasyS1,
}

impl RebalanceScenario {
    /// Every rebalance scenario (archive name resolution).
    pub const ALL: [RebalanceScenario; 3] = [
        RebalanceScenario::IorEasyRp2,
        RebalanceScenario::IorHardEc2p1,
        RebalanceScenario::IorEasyS1,
    ];

    /// The swarm subset: redundant classes that must stay green under
    /// the full rebalance fault surface.
    pub const SWARM: [RebalanceScenario; 2] = [
        RebalanceScenario::IorEasyRp2,
        RebalanceScenario::IorHardEc2p1,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            RebalanceScenario::IorEasyRp2 => "rebalance/IOR-easy/RP_2",
            RebalanceScenario::IorHardEc2p1 => "rebalance/IOR-hard/EC_2P1",
            RebalanceScenario::IorEasyS1 => "rebalance/IOR-easy/S1",
        }
    }
}

/// The sweep point the rebalance swarm runs at: the chaos shape (small
/// ops, `Full` data mode materialises every byte) over four deployed
/// servers with spare hardware to grow into.
pub fn default_rebalance_spec() -> RunSpec {
    crate::chaos::default_chaos_spec()
}

/// The rebalance fault surface for `spec`: the faulted family's full
/// surface (whole-server crash groups, disks, NICs, delayed
/// completions) plus the three rebalance dimensions — spare-server
/// adds, deployed-server drains, and crash groups aimed at migration
/// traffic (one deployed server that holds sources/destinations, one
/// spare whose freshly added targets may be mid-reintegration).
///
/// Resource ids are enumerated from a scratch build of the **grown**
/// topology (`servers + SPARE_SERVERS`), matching the real run's
/// registration order exactly.
pub fn rebalance_space(spec: &RunSpec, cal: &Calibration) -> ChaosSpace {
    let mut space = engine_space(&scratch_topology(spec.servers + SPARE_SERVERS, spec, cal));
    let group = |server: u16| -> Vec<u64> {
        (0..cal.targets_per_server as u16)
            .map(|target| TargetId { server, target }.pack())
            .collect()
    };
    space.crash_groups = (0..spec.servers as u16).map(group).collect();
    space.delay_payloads = (0..spec.servers as u64).collect();
    space.add_servers = (spec.servers..spec.servers + SPARE_SERVERS)
        .map(|s| s as u64)
        .collect();
    // at most half the deployed servers are drainable, so redundant
    // classes always have evacuation destinations
    space.drain_servers = (0..(spec.servers / 2).max(1)).map(|s| s as u64).collect();
    space.migration_crash_groups = vec![
        group(spec.servers as u16 - 1), // a deployed migration source/dest
        group(spec.servers as u16),     // the first spare, mid-reintegration
    ];
    space
}

/// Result of one rebalance run.
#[derive(Debug, Clone)]
pub struct RebalanceRunReport {
    /// Which scenario ran.
    pub scenario: RebalanceScenario,
    /// Healthy write phase.
    pub write: PhaseResult,
    /// Read phase under membership churn.
    pub read: PhaseResult,
    /// Client-side retry counters.
    pub retry: RetryStats,
    /// Reads that failed terminally and were tolerated (only possible
    /// for the unreplicated [`RebalanceScenario::IorEasyS1`]).
    pub unavailable_reads: usize,
    /// Crash-triggered rebuild outcome, if a crash fired.
    pub rebuild: Option<RebuildReport>,
    /// Shard moves planned across every replanning pass.
    pub moves_planned: usize,
    /// Migration waves shipped.
    pub waves: usize,
    /// Migration engine progress at quiescence.
    pub migration: MigrationProgress,
    /// Pool-map version when the run ended (counts every membership
    /// transition; the healthy deployment ends the write phase at 0).
    pub map_version: u64,
    /// Post-quiescence invariant audit (durability + redundancy), when
    /// requested.
    pub oracles: Option<OracleReport>,
    /// End-to-end checksum activity at quiescence (nonzero only when
    /// the schedule planted bit rot).
    pub csum: daos_core::CsumStats,
    /// Unified telemetry report (only with [`RebalanceOpts::telemetry`]),
    /// evaluated against [`crate::runreport::faulted_slo_rules`].
    pub run_report: Option<crate::runreport::RunReport>,
    /// Replay digest over completions and fired faults.
    pub digest: u64,
}

/// Options for [`run_rebalance_with`].
#[derive(Debug, Clone)]
pub struct RebalanceOpts {
    /// The failure schedule (phase-relative when `Fixed`).
    pub plan: PlanSource,
    /// Data mode (`Full` for oracle runs).
    pub mode: DataMode,
    /// Record acked writes and audit every oracle after quiescence.
    pub oracles: bool,
    /// Enable spans, the telemetry registry and a windowed monitor, and
    /// collect a unified [`crate::runreport::RunReport`] into the
    /// result.  Observers only: the digest must match an untelemetered
    /// run's exactly.
    pub telemetry: bool,
}

impl Default for RebalanceOpts {
    fn default() -> Self {
        RebalanceOpts {
            plan: PlanSource::Builtin,
            mode: DataMode::Sized,
            oracles: false,
            telemetry: false,
        }
    }
}

impl RebalanceOpts {
    /// A chaos case's run: the phase-relative `plan`, `Full` data and
    /// every oracle auditing.
    pub(crate) fn audited(plan: &FaultPlan) -> Self {
        RebalanceOpts {
            plan: PlanSource::Fixed(plan.clone()),
            mode: DataMode::Full,
            oracles: true,
            ..RebalanceOpts::default()
        }
    }
}

/// The builtin schedule: one server add and one server drain early in
/// the read phase — a plain grow-and-shrink rebalance with no weather.
fn builtin_plan(spec: &RunSpec, t0: SimTime) -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.at(
        SimTime(t0.0 + 1_000_000),
        FaultAction::AddServer {
            server: spec.servers as u64,
        },
    );
    plan.at(
        SimTime(t0.0 + 2_000_000),
        FaultAction::DrainServer { server: 0 },
    );
    plan
}

/// Execute one rebalance scenario under explicit [`RebalanceOpts`]:
/// healthy write phase, fault plan installed at the phase boundary,
/// read phase under membership churn, post-quiescence audit.
// simlint::digest_root — rebalance replay digest entry
pub fn run_rebalance_with(
    spec: &RunSpec,
    scen: RebalanceScenario,
    cal: &Calibration,
    opts: &RebalanceOpts,
) -> RebalanceRunReport {
    let mut sched = make_sched(spec, false);
    if opts.telemetry {
        sched.enable_spans();
        sched.set_monitor(simkit::Monitor::windowed(
            crate::runreport::RUN_REPORT_WINDOW_NS,
        ));
        sched.enable_telemetry(crate::runreport::RUN_REPORT_WINDOW_NS);
    }
    let cspec =
        ClusterSpec::new(spec.servers + SPARE_SERVERS, spec.client_nodes).with_cal(cal.clone());
    let topo = cspec.build(&mut sched);
    let mut daos_sys = DaosSystem::deploy(&topo, &mut sched, spec.servers, opts.mode);
    if opts.oracles {
        daos_sys.enable_ledger();
    }
    let (cid, s) = daos_sys.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let daos = Rc::new(RefCell::new(daos_sys));

    let oclass = match scen {
        RebalanceScenario::IorEasyRp2 => ObjectClass::RP_2,
        RebalanceScenario::IorEasyS1 => ObjectClass::S1,
        RebalanceScenario::IorHardEc2p1 => ObjectClass::EC_2P1,
    };
    // S1 has no redundancy: a crash genuinely loses extents, and the
    // oracle — not the benchmark driver — delivers that verdict
    let unavailable_ok = scen == RebalanceScenario::IorEasyS1;
    let hard = scen == RebalanceScenario::IorHardEc2p1;
    let mut ior = daos_ior(spec, &daos, cid, oclass, hard, unavailable_ok);
    let write = run_phase(&mut sched, &mut ior);
    let plan = match &opts.plan {
        PlanSource::Builtin => builtin_plan(spec, sched.now()),
        PlanSource::Fixed(plan) => plan.shifted(sched.now()),
    };
    sched.install_faults(plan);
    ior.set_phase(Phase::Read);
    let (read, out) = run_fault_phase(&mut sched, &mut ior, &daos, &REBALANCE_MARKERS, false);

    let oracles = opts.oracles.then(|| {
        let mut d = daos.borrow_mut();
        let mut report = d.verify_durability(0);
        report.merge(d.verify_redundancy());
        report
    });
    let d = daos.borrow();
    let run_report = opts.telemetry.then(|| {
        // fold the layer-owned totals into the registry before export:
        // client retries, the crash-triggered rebuild, and the
        // migration engine's progress at quiescence
        let at = sched.now();
        ior.retry_stats().publish(sched.telemetry_mut(), at);
        if let Some(rb) = &out.rebuild {
            rb.publish(sched.telemetry_mut(), at);
        }
        d.migration_progress().publish(sched.telemetry_mut(), at);
        d.csum_stats().publish(sched.telemetry_mut(), at);
        crate::runreport::RunReport::collect(
            &sched,
            scen.name(),
            &write,
            &read,
            &crate::runreport::faulted_slo_rules(),
        )
    });
    RebalanceRunReport {
        scenario: scen,
        write,
        read,
        retry: ior.retry_stats(),
        unavailable_reads: ior.unavailable_reads(),
        rebuild: out.rebuild,
        moves_planned: out.moves_planned,
        waves: out.waves,
        migration: d.migration_progress(),
        map_version: d.pool().version(),
        oracles,
        csum: d.csum_stats(),
        run_report,
        digest: sched.digest(),
    }
}

impl From<RebalanceRunReport> for CaseRun {
    fn from(r: RebalanceRunReport) -> Self {
        CaseRun {
            oracle: r.oracles.unwrap_or_default(),
            csum: r.csum,
            scrub: None,
            digest: r.digest,
        }
    }
}

/// The rebalance chaos family: schedules sampled from
/// [`rebalance_space`], ledger on, durability and redundancy audited.
/// Swarms run the redundant [`RebalanceScenario::SWARM`] classes;
/// archives may also name the planted-violation `S1` scenario.  Runs
/// are untraced: the rebalance driver has no traced runner.
pub struct Rebalance;

impl Family for Rebalance {
    type Scenario = RebalanceScenario;
    const NAME: &'static str = "rebalance";
    const PREFIX: &'static str = "rebalance";
    const JUDGED_BY: &'static str = "full oracles";
    const SCENARIOS: &'static [RebalanceScenario] = &RebalanceScenario::ALL;
    const SWARM: &'static [RebalanceScenario] = &RebalanceScenario::SWARM;

    fn scenario_name(&self, scen: RebalanceScenario) -> &'static str {
        scen.name()
    }

    fn default_spec(&self) -> RunSpec {
        default_rebalance_spec()
    }

    fn seed_plan(
        &self,
        spec: &RunSpec,
        _: RebalanceScenario,
        cal: &Calibration,
        seed: u64,
    ) -> FaultPlan {
        generate(&rebalance_space(spec, cal), &ChaosConfig::default(), seed)
    }

    fn run_plan(
        &self,
        spec: &RunSpec,
        scen: RebalanceScenario,
        cal: &Calibration,
        plan: &FaultPlan,
        _: bool,
    ) -> (CaseRun, Option<SpanExports>) {
        let report = run_rebalance_with(spec, scen, cal, &RebalanceOpts::audited(plan));
        (report.into(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::run_case;

    fn tiny_spec() -> RunSpec {
        let mut spec = default_rebalance_spec();
        spec.ops_per_proc = 8;
        spec
    }

    #[test]
    fn builtin_grow_and_drain_rebalances_cleanly() {
        let spec = tiny_spec();
        let cal = Calibration::default();
        let opts = RebalanceOpts {
            oracles: true,
            mode: DataMode::Full,
            ..RebalanceOpts::default()
        };
        let r = run_rebalance_with(&spec, RebalanceScenario::IorEasyRp2, &cal, &opts);
        assert!(r.map_version > 0, "membership changes bump the map version");
        assert!(r.moves_planned > 0, "grow + drain must move shards");
        assert!(r.waves > 0, "moves ship in waves");
        assert_eq!(
            r.migration.moves_done, r.moves_planned,
            "a crash-free rebalance ships every planned move"
        );
        let oracle = r.oracles.expect("oracles audited");
        assert!(oracle.ok(), "{}", oracle.render());
    }

    #[test]
    fn rebalance_case_is_deterministic() {
        let spec = tiny_spec();
        let cal = Calibration::default();
        let scen = RebalanceScenario::IorEasyRp2;
        let case = || {
            run_case(
                &Rebalance,
                &spec,
                scen,
                &cal,
                3,
                Rebalance.seed_plan(&spec, scen, &cal, 3),
            )
        };
        let a = case();
        assert!(a.passed(), "seed 3 must be green:\n{}", a.oracle.render());
        let b = case();
        assert_eq!(a.digest, b.digest, "same seed, same case digest");
        assert_eq!(a.plan.to_json(), b.plan.to_json());
    }

    #[test]
    fn rebalance_space_spans_all_dimensions() {
        let spec = tiny_spec();
        let space = rebalance_space(&spec, &Calibration::default());
        assert_eq!(space.add_servers, vec![4, 5]);
        assert_eq!(space.drain_servers, vec![0, 1]);
        assert_eq!(space.migration_crash_groups.len(), 2);
        assert_eq!(space.crash_groups.len(), spec.servers);
    }
}
