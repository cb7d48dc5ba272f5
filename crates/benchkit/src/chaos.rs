//! The chaos harness: seeded schedule generation × invariant oracles ×
//! automatic shrinking, written once over the [`Family`] trait.
//!
//! One **case** is `(family, scenario, seed)`: the family turns the seed
//! into a [`FaultPlan`], the scenario runs under it twice from fresh
//! state ([`run_case`]), and the verdict folds a determinism check over
//! the two replay digests into the first run's oracle report, judged by
//! the family's ok-predicate.  A **swarm** ([`swarm`]) runs every swarm
//! scenario of a family under every seed of a block, seed-major.  Any
//! case serializes to a self-contained schedule artifact
//! ([`schedule_json`]); [`replay`] reruns it by scenario name across
//! every family, [`shrink`] delta-debugs a schedule down to a minimal
//! reproducer with single-run probes, and [`archive_case`] writes the
//! schedule, a traced replay and the shrunken `.min.json` reproducer.
//!
//! Four families implement the trait:
//!
//! * [`Faulted`] ([`FaultedScenario::ALL`]): full fault surface (server
//!   crashes, restarts, slow disks, NIC brownouts, delayed completions,
//!   bit rot) with the durability ledger recording every acked write in
//!   `Full` data mode and every oracle auditing after quiescence;
//! * [`Engine`] ([`Scenario::ALL`]): capacity-weather schedules (slow
//!   disks / NIC brownouts only — safe against drivers with no
//!   fault-aware world) where the invariant is that the run completes
//!   and replays bit-identically;
//! * [`crate::rebalance::Rebalance`]: live membership churn;
//! * [`crate::integrity::Integrity`]: bit-rot races against the
//!   checksum machinery, where the planted rot-beyond-redundancy case
//!   must fail loudly.

use crate::faulted::{run_faulted_with, FaultedOpts, FaultedReport, FaultedScenario};
use crate::integrity::Integrity;
use crate::rebalance::Rebalance;
use crate::scenarios::{run_scenario_chaos, RunSpec, Scenario};
use crate::tracing::SpanExports;
use cluster::{Calibration, ClusterSpec, Topology};
use daos_core::{CsumStats, OracleKind, OracleReport, ScrubReport, TargetId, Violation};
use simkit::{generate, ChaosConfig, ChaosSpace, FaultPlan, Scheduler, ShrinkOutcome};
use std::io;
use std::path::{Path, PathBuf};

/// The sweep point the chaos swarm runs at: the faulted family's
/// deployment shape with a reduced op count and transfer size, because
/// `Full` data mode materialises (and the ledger re-reads) every byte.
pub fn default_chaos_spec() -> RunSpec {
    let mut spec = crate::faulted::default_faulted_spec();
    spec.ops_per_proc = 16;
    spec.transfer = 256 << 10;
    spec
}

/// Enumerate the fault surface of the deployment `spec` describes:
/// whole-server crash groups, every NVMe read/write device, both NIC
/// directions, and per-server delayed-completion payloads.
pub fn chaos_space(spec: &RunSpec, cal: &Calibration) -> ChaosSpace {
    let mut space = engine_space(&scratch_topology(spec.servers, spec, cal));
    space.crash_groups = (0..spec.servers as u16)
        .map(|server| {
            (0..cal.targets_per_server as u16)
                .map(|target| TargetId { server, target }.pack())
                .collect()
        })
        .collect();
    space.delay_payloads = (0..spec.servers as u64).collect();
    // bit-rot dimension: the widest redundancy group the families
    // deploy is EC_2P1 (k + p = 3); a single sampled rot is always
    // within redundancy, so swarm cases stay green by transparent
    // repair (the sampler shares the crash budget to guarantee it)
    space.rot_shards = 3;
    space
}

/// The topology of `servers` servers and the spec's client nodes, built
/// on a scratch scheduler: resource ids depend only on registration
/// order, so the ids a fault surface enumerates from it match the real
/// run's build exactly.
pub(crate) fn scratch_topology(servers: usize, spec: &RunSpec, cal: &Calibration) -> Topology {
    ClusterSpec::new(servers, spec.client_nodes)
        .with_cal(cal.clone())
        .build(&mut Scheduler::new())
}

/// The engine-level slice of the fault surface: disk and NIC resources
/// only.  Schedules drawn from this space are safe against *any*
/// scenario because the engine applies capacity scaling itself — no
/// world cooperation needed.
pub fn engine_space(topo: &Topology) -> ChaosSpace {
    let mut space = ChaosSpace::default();
    for srv in &topo.servers {
        space.disks.extend(srv.nvme_r.iter().copied());
        space.disks.extend(srv.nvme_w.iter().copied());
        space.nics.push(srv.nic_tx);
        space.nics.push(srv.nic_rx);
    }
    space
}

/// What one planned run of a case observed.
#[derive(Debug, Clone, Default)]
pub struct CaseRun {
    /// Post-quiescence oracle audit (durability, reconstruction,
    /// redundancy, interface consistency).
    pub oracle: OracleReport,
    /// Checksum activity at quiescence, after any oracle read-back.
    pub csum: CsumStats,
    /// Scrubber progress, when the scenario scrubs.
    pub scrub: Option<ScrubReport>,
    /// Replay digest over completions and fired faults.
    pub digest: u64,
}

impl From<FaultedReport> for CaseRun {
    fn from(r: FaultedReport) -> Self {
        CaseRun {
            oracle: r.oracles.unwrap_or_default(),
            csum: r.csum,
            scrub: r.scrub,
            digest: r.digest,
        }
    }
}

/// A scenario family the chaos harness swarms, shrinks, archives and
/// replays.  Scenario display names are unique across families, so an
/// archived schedule names its family implicitly.
pub trait Family {
    /// The family's scenario type.
    type Scenario: Copy + 'static;
    /// Family name, as in the swarm header `--- <NAME> family (...)` and
    /// traced-replay artifacts `<NAME>-<scenario>.trace.json`.
    const NAME: &'static str;
    /// Schedule artifact prefix: `<PREFIX>-<scenario>-seed<N>.json`.
    const PREFIX: &'static str;
    /// What the swarm header says the cases are judged by.
    const JUDGED_BY: &'static str;
    /// Every scenario an archived schedule may name.
    const SCENARIOS: &'static [Self::Scenario];
    /// The scenarios a swarm runs.
    const SWARM: &'static [Self::Scenario] = Self::SCENARIOS;

    /// Display name.
    fn scenario_name(&self, scen: Self::Scenario) -> &'static str;

    /// The sweep point a swarm runs at.
    fn default_spec(&self) -> RunSpec;

    /// The schedule `seed` samples, event times relative to the
    /// write→read phase boundary.
    fn seed_plan(
        &self,
        spec: &RunSpec,
        scen: Self::Scenario,
        cal: &Calibration,
        seed: u64,
    ) -> FaultPlan;

    /// One run of `scen` under `plan`, from fresh state.  With `traced`,
    /// also its span exports, where the family has a traced runner.
    fn run_plan(
        &self,
        spec: &RunSpec,
        scen: Self::Scenario,
        cal: &Calibration,
        plan: &FaultPlan,
        traced: bool,
    ) -> (CaseRun, Option<SpanExports>);

    /// Whether a case passes: by default, every oracle green.
    fn case_ok(&self, _scen: Self::Scenario, run: &CaseRun) -> bool {
        run.oracle.ok()
    }

    /// What shrinking preserves: by default, a failed case.
    fn shrink_signature(&self, scen: Self::Scenario, run: &CaseRun) -> bool {
        !self.case_ok(scen, run)
    }

    /// Resolve a display name.
    fn find_scenario(&self, name: &str) -> Option<Self::Scenario> {
        Self::SCENARIOS
            .iter()
            .copied()
            .find(|&s| self.scenario_name(s) == name)
    }
}

/// The faulted family: [`chaos_space`] schedules over
/// [`FaultedScenario::ALL`], full oracle suite.
pub struct Faulted;

impl Family for Faulted {
    type Scenario = FaultedScenario;
    const NAME: &'static str = "faulted";
    const PREFIX: &'static str = "chaos";
    const JUDGED_BY: &'static str = "full oracles";
    const SCENARIOS: &'static [FaultedScenario] = &FaultedScenario::ALL;

    fn scenario_name(&self, scen: FaultedScenario) -> &'static str {
        scen.name()
    }

    fn default_spec(&self) -> RunSpec {
        default_chaos_spec()
    }

    fn seed_plan(
        &self,
        spec: &RunSpec,
        _: FaultedScenario,
        cal: &Calibration,
        seed: u64,
    ) -> FaultPlan {
        generate(&chaos_space(spec, cal), &ChaosConfig::default(), seed)
    }

    fn run_plan(
        &self,
        spec: &RunSpec,
        scen: FaultedScenario,
        cal: &Calibration,
        plan: &FaultPlan,
        traced: bool,
    ) -> (CaseRun, Option<SpanExports>) {
        let opts = FaultedOpts {
            traced,
            ..FaultedOpts::audited(plan)
        };
        let (report, exports) = run_faulted_with(spec, scen, cal, &opts);
        (report.into(), exports)
    }
}

/// The engine family: capacity weather from [`engine_space`] over every
/// generic scenario in [`Scenario::ALL`], determinism the invariant.
pub struct Engine;

impl Family for Engine {
    type Scenario = Scenario;
    const NAME: &'static str = "engine";
    const PREFIX: &'static str = "chaos";
    const JUDGED_BY: &'static str = "determinism oracle";
    const SCENARIOS: &'static [Scenario] = &Scenario::ALL;

    fn scenario_name(&self, scen: Scenario) -> &'static str {
        scen.name()
    }

    fn default_spec(&self) -> RunSpec {
        let mut spec = RunSpec::new(4, 2, 4);
        spec.ops_per_proc = 16;
        spec
    }

    fn seed_plan(&self, spec: &RunSpec, _: Scenario, cal: &Calibration, seed: u64) -> FaultPlan {
        let topo = scratch_topology(spec.servers, spec, cal);
        generate(&engine_space(&topo), &ChaosConfig::default(), seed)
    }

    /// Untraced: the generic scenario drivers have no traced runner
    /// under a fault plan.
    fn run_plan(
        &self,
        spec: &RunSpec,
        scen: Scenario,
        cal: &Calibration,
        plan: &FaultPlan,
        _: bool,
    ) -> (CaseRun, Option<SpanExports>) {
        let mut run = CaseRun {
            digest: run_scenario_chaos(spec, scen, cal, plan).1,
            ..CaseRun::default()
        };
        run.oracle.checked_groups = 1;
        (run, None)
    }
}

/// One chaos case verdict.
#[derive(Debug, Clone)]
pub struct ChaosVerdict {
    /// Scenario display name.
    pub scenario: String,
    /// The generating seed.
    pub seed: u64,
    /// The schedule (phase-relative event times).
    pub plan: FaultPlan,
    /// The first run's oracle report with the determinism check folded
    /// in.
    pub oracle: OracleReport,
    /// Checksum activity of the first run.
    pub csum: CsumStats,
    /// Scrubber progress of the first run, when the scenario scrubs.
    pub scrub: Option<ScrubReport>,
    /// Replay digest of the first run.
    pub digest: u64,
    /// The family's ok-predicate over the above.
    ok: bool,
}

impl ChaosVerdict {
    /// The case passed its family's ok-predicate.
    pub fn passed(&self) -> bool {
        self.ok
    }

    /// One status line: `seed 0x0017 IOR-easy/RP_2+crash 3 faults ok`.
    pub fn render_line(&self) -> String {
        self.status_line(self.ok)
    }

    /// The status line with `ok` as its verdict.  A failed case whose
    /// oracle stayed green (an unmet family expectation) counts as one
    /// violation.
    pub(crate) fn status_line(&self, ok: bool) -> String {
        let violations = self.oracle.violations.len().max(1);
        format!(
            "seed {:#06x}  {:<24} {} faults  digest {:#018x}  {}",
            self.seed,
            self.scenario,
            self.plan.len(),
            self.digest,
            if ok {
                "ok".to_string()
            } else {
                format!("FAILED ({violations} violations)")
            }
        )
    }
}

/// Run one case under `plan` twice from fresh state, fold a determinism
/// check over the two digests, and judge it by the family's
/// ok-predicate.
pub fn run_case<F: Family>(
    fam: &F,
    spec: &RunSpec,
    scen: F::Scenario,
    cal: &Calibration,
    seed: u64,
    plan: FaultPlan,
) -> ChaosVerdict {
    let (mut run, _) = fam.run_plan(spec, scen, cal, &plan, false);
    let again = fam.run_plan(spec, scen, cal, &plan, false).0.digest;
    if run.digest != again {
        run.oracle.violations.push(Violation {
            oracle: OracleKind::Determinism,
            subject: fam.scenario_name(scen).to_string(),
            detail: format!(
                "replay digests diverge: {:#018x} vs {again:#018x}",
                run.digest
            ),
        });
    }
    ChaosVerdict {
        scenario: fam.scenario_name(scen).to_string(),
        seed,
        plan,
        ok: fam.case_ok(scen, &run),
        oracle: run.oracle,
        csum: run.csum,
        scrub: run.scrub,
        digest: run.digest,
    }
}

/// A swarm's collected verdicts.
#[derive(Debug, Clone, Default)]
pub struct SwarmReport {
    /// One verdict per case, in run order.
    pub verdicts: Vec<ChaosVerdict>,
}

impl SwarmReport {
    /// Every case green.
    pub fn passed(&self) -> bool {
        self.verdicts.iter().all(|v| v.passed())
    }

    /// The failing cases.
    pub fn failures(&self) -> Vec<&ChaosVerdict> {
        self.verdicts.iter().filter(|v| !v.passed()).collect()
    }

    /// Per-case lines plus a summary footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.verdicts {
            out.push_str(&v.render_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "swarm: {} cases, {} failed\n",
            self.verdicts.len(),
            self.failures().len()
        ));
        out
    }
}

/// Swarm a family: every swarm scenario under every seed in `seeds`,
/// seed-major.
pub fn swarm<F: Family>(fam: &F, spec: &RunSpec, cal: &Calibration, seeds: &[u64]) -> SwarmReport {
    let mut report = SwarmReport::default();
    for &seed in seeds {
        for &scen in F::SWARM {
            let plan = fam.seed_plan(spec, scen, cal, seed);
            report
                .verdicts
                .push(run_case(fam, spec, scen, cal, seed, plan));
        }
    }
    report
}

/// Shrink a schedule to a minimal reproducer of the family's failure
/// signature.  Probes run once (no determinism rerun); re-establish the
/// shrunken plan's verdict with [`run_case`].
pub fn shrink<F: Family>(
    fam: &F,
    spec: &RunSpec,
    scen: F::Scenario,
    cal: &Calibration,
    plan: &FaultPlan,
) -> ShrinkOutcome {
    simkit::shrink(plan, |candidate| {
        fam.shrink_signature(scen, &fam.run_plan(spec, scen, cal, candidate, false).0)
    })
}

/// Artifact-safe file stem for a scenario display name.
pub fn slug(name: &str) -> String {
    name.to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Archive a case under `out`: its schedule as
/// `<PREFIX>-<scenario>-seed<N>.json`, a traced replay where the family
/// has one, and — when shrinking reproduces the failure signature — the
/// minimal reproducer next to the schedule as `.min.json`.  Returns the
/// schedule path and the shrink outcome.
pub fn archive_case<F: Family>(
    fam: &F,
    v: &ChaosVerdict,
    spec: &RunSpec,
    cal: &Calibration,
    out: &Path,
) -> io::Result<(PathBuf, ShrinkOutcome)> {
    let scen = fam.find_scenario(&v.scenario).ok_or_else(|| {
        io::Error::other(format!("{:?} is not a {} scenario", v.scenario, F::NAME))
    })?;
    let stem = slug(&v.scenario);
    let path = out.join(format!("{}-{stem}-seed{:#06x}.json", F::PREFIX, v.seed));
    std::fs::create_dir_all(out)?;
    std::fs::write(&path, schedule_json(&v.scenario, v.seed, spec, &v.plan))?;
    if let (_, Some(exports)) = fam.run_plan(spec, scen, cal, &v.plan, true) {
        crate::report::save_trace(&exports, out, &format!("{}-{stem}", F::NAME))?;
    }
    let outcome = shrink(fam, spec, scen, cal, &v.plan);
    if outcome.reproduced {
        let min = schedule_json(&v.scenario, v.seed, spec, &outcome.plan);
        std::fs::write(path.with_extension("min.json"), min)?;
    }
    Ok((path, outcome))
}

/// Serialize a case to a self-contained schedule artifact: scenario,
/// seed, deployment shape, the plan itself, and the exact replay
/// command.  [`parse_schedule`] inverts it.
pub fn schedule_json(scenario: &str, seed: u64, spec: &RunSpec, plan: &FaultPlan) -> String {
    format!(
        concat!(
            "{{\"scenario\": \"{}\", \"seed\": {}, ",
            "\"spec\": {{\"servers\": {}, \"client_nodes\": {}, \"ppn\": {}, ",
            "\"ops_per_proc\": {}, \"transfer\": {}, \"queue_depth\": {}, \"seed\": {}}}, ",
            "\"replay\": \"repro replay --schedule <this file>\", ",
            "\"plan\": {}}}"
        ),
        scenario,
        seed,
        spec.servers,
        spec.client_nodes,
        spec.ppn,
        spec.ops_per_proc,
        spec.transfer,
        spec.queue_depth,
        spec.seed,
        plan.to_json(),
    )
}

/// A parsed schedule artifact.
#[derive(Debug, Clone)]
pub struct ArchivedSchedule {
    /// Scenario display name (resolved across every family by
    /// [`replay`]).
    pub scenario: String,
    /// The generating seed (provenance; the plan is authoritative).
    pub seed: u64,
    /// Deployment shape to rerun at.
    pub spec: RunSpec,
    /// The schedule.
    pub plan: FaultPlan,
}

/// Parse a schedule artifact produced by [`schedule_json`].
pub fn parse_schedule(input: &str) -> Result<ArchivedSchedule, String> {
    let doc = simkit::json::parse(input).map_err(|e| e.to_string())?;
    let scenario = doc
        .get("scenario")
        .and_then(|v| v.as_str())
        .ok_or("missing scenario")?
        .to_string();
    let seed = doc
        .get("seed")
        .and_then(|v| v.as_u64())
        .ok_or("missing seed")?;
    let s = doc.get("spec").ok_or("missing spec")?;
    let field = |name: &str| -> Result<u64, String> {
        s.get(name)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing spec.{name}"))
    };
    let mut spec = RunSpec::new(
        field("servers")? as usize,
        field("client_nodes")? as usize,
        field("ppn")? as usize,
    );
    spec.ops_per_proc = field("ops_per_proc")? as usize;
    spec.transfer = field("transfer")?;
    spec.queue_depth = field("queue_depth")? as usize;
    spec.seed = field("seed")?;
    let plan = FaultPlan::from_json(&doc.get("plan").ok_or("missing plan")?.render())?;
    Ok(ArchivedSchedule {
        scenario,
        seed,
        spec,
        plan,
    })
}

/// Rerun an archived schedule byte-for-byte: resolve the scenario by
/// name across every family and run the stored plan as a case at the
/// stored deployment shape.
pub fn replay(arch: &ArchivedSchedule, cal: &Calibration) -> Result<ChaosVerdict, String> {
    fn case<F: Family>(
        fam: &F,
        arch: &ArchivedSchedule,
        cal: &Calibration,
    ) -> Option<ChaosVerdict> {
        let scen = fam.find_scenario(&arch.scenario)?;
        Some(run_case(
            fam,
            &arch.spec,
            scen,
            cal,
            arch.seed,
            arch.plan.clone(),
        ))
    }
    case(&Faulted, arch, cal)
        .or_else(|| case(&Engine, arch, cal))
        .or_else(|| case(&Rebalance, arch, cal))
        .or_else(|| case(&Integrity, arch, cal))
        .ok_or_else(|| format!("unknown scenario {:?}", arch.scenario))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> RunSpec {
        let mut spec = default_chaos_spec();
        spec.ops_per_proc = 8;
        spec
    }

    fn seeded<F: Family>(fam: &F, spec: &RunSpec, scen: F::Scenario, seed: u64) -> ChaosVerdict {
        let cal = Calibration::default();
        run_case(
            fam,
            spec,
            scen,
            &cal,
            seed,
            fam.seed_plan(spec, scen, &cal, seed),
        )
    }

    #[test]
    fn chaos_case_is_deterministic_and_green() {
        let spec = tiny_spec();
        let a = seeded(&Faulted, &spec, FaultedScenario::IorEasyRp2, 7);
        assert!(a.passed(), "seed 7 must be green:\n{}", a.oracle.render());
        let b = seeded(&Faulted, &spec, FaultedScenario::IorEasyRp2, 7);
        assert_eq!(a.digest, b.digest, "same seed, same case digest");
        assert_eq!(a.plan.to_json(), b.plan.to_json());
        // different seed, different schedule
        let c = seeded(&Faulted, &spec, FaultedScenario::IorEasyRp2, 8);
        assert_ne!(a.plan.to_json(), c.plan.to_json());
    }

    #[test]
    fn schedule_artifact_round_trips_and_replays_identically() {
        let spec = tiny_spec();
        let cal = Calibration::default();
        let v = seeded(&Faulted, &spec, FaultedScenario::IorHardEc2p1, 3);
        let json = schedule_json(&v.scenario, v.seed, &spec, &v.plan);
        let arch = parse_schedule(&json).expect("parses");
        assert_eq!(arch.scenario, v.scenario);
        assert_eq!(arch.plan.to_json(), v.plan.to_json());
        let replayed = replay(&arch, &cal).expect("replays");
        assert_eq!(replayed.digest, v.digest, "archived schedule pins the run");
    }

    #[test]
    fn engine_case_covers_generic_scenarios() {
        let mut spec = RunSpec::new(2, 1, 2);
        spec.ops_per_proc = 8;
        let v = seeded(&Engine, &spec, Scenario::IorDaos, 11);
        assert!(v.passed(), "{}", v.oracle.render());
        assert!(!v.plan.is_empty(), "engine space must sample something");
    }
}
