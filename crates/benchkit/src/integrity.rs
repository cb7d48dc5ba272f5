//! The integrity scenario family: bit-rot chaos against the end-to-end
//! checksum machinery.
//!
//! Three named races, each driven by a seeded, hand-shaped
//! [`FaultPlan`] (deterministic per `(scenario, seed)`, archivable and
//! ddmin-shrinkable like any other schedule):
//!
//! * [`IntegrityScenario::ScrubReadRace`] — several rotten copies
//!   planted across the read window of an `RP_2` run while the
//!   background scrubber makes one throttled pass over the same disks:
//!   whoever reaches a rotten chunk first (foreground verified read or
//!   scrub wave) must detect and repair it, and nobody may serve the
//!   bad bytes;
//! * [`IntegrityScenario::RotUnderRebalance`] — rot lands while a
//!   grow-and-drain rebalance is migrating shards, so verified reads
//!   repair extents whose redundancy groups are mid-move;
//! * [`IntegrityScenario::RotBeyondRedundancy`] — both copies of the
//!   same `RP_2` unit rot.  The *planted-violation* scenario: the read
//!   path must refuse ([`daos_core::DaosError::BadChecksum`], absorbed
//!   by the driver as an unavailable read) and the durability oracle
//!   must deliver a loud [`OracleKind::Corruption`] verdict.  A green
//!   oracle here means the integrity machinery served or masked
//!   corrupt data — exactly what [`integrity_case_ok`] fails.
//!
//! [`Integrity`] plugs the family into the shared chaos harness
//! ([`crate::chaos::Family`]): double-run determinism folds, schedule
//! archiving and shrinking.

use crate::chaos::{CaseRun, ChaosVerdict, Family};
use crate::faulted::{run_faulted_with, FaultedOpts, FaultedScenario};
use crate::rebalance::{run_rebalance_with, RebalanceOpts, RebalanceScenario};
use crate::scenarios::RunSpec;
use crate::tracing::SpanExports;
use cluster::Calibration;
use daos_core::OracleKind;
use simkit::{FaultAction, FaultPlan, Json, SimTime, SplitMix64};

/// One millisecond in nanoseconds (plan-building readability).
const MS: u64 = 1_000_000;

/// Rotten copies planted by the scrub-read-race schedule.
const RACE_ROTS: u64 = 4;

/// The bit-rot benchmark family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntegrityScenario {
    /// `RP_2` reads race one background scrub pass over freshly rotten
    /// chunks; every detection ends in a transparent repair.
    ScrubReadRace,
    /// Rot lands mid-migration during a grow-and-drain rebalance.
    RotUnderRebalance,
    /// Both `RP_2` copies of one unit rot: repair is impossible, the
    /// read refuses, and the durability oracle reports `Corruption`.
    RotBeyondRedundancy,
}

impl IntegrityScenario {
    /// Every integrity scenario, in presentation order.
    pub const ALL: [IntegrityScenario; 3] = [
        IntegrityScenario::ScrubReadRace,
        IntegrityScenario::RotUnderRebalance,
        IntegrityScenario::RotBeyondRedundancy,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            IntegrityScenario::ScrubReadRace => "integrity/scrub-read-race",
            IntegrityScenario::RotUnderRebalance => "integrity/rot-under-rebalance",
            IntegrityScenario::RotBeyondRedundancy => "integrity/rot-beyond-redundancy",
        }
    }
}

/// The sweep point the integrity family runs at: the chaos shape (small
/// ops, `Full` data mode so rot flips real bytes).
pub fn default_integrity_spec() -> RunSpec {
    crate::chaos::default_chaos_spec()
}

/// The seeded failure schedule for one integrity case, event times
/// relative to the write→read phase boundary.
pub fn integrity_plan(scen: IntegrityScenario, seed: u64) -> FaultPlan {
    let mut rng = SplitMix64::new(seed ^ 0x1badb002);
    let mut plan = FaultPlan::new();
    match scen {
        IntegrityScenario::ScrubReadRace => {
            // several single-copy rots spread over the early read
            // window, all on copy 0: two random loci may resolve to the
            // same unit, and pinning the shard keeps such a collision
            // within redundancy (shard diversity is the
            // beyond-redundancy scenario's job)
            for i in 0..RACE_ROTS {
                plan.at(
                    SimTime(i * MS / 2 + rng.next_below(MS / 2)),
                    FaultAction::BitRot {
                        locus: rng.next_u64(),
                        shard: 0,
                    },
                );
            }
        }
        IntegrityScenario::RotUnderRebalance => {
            // the builtin grow-and-drain shape with rot landing after
            // the first waves have started moving shards
            plan.at(
                SimTime(MS),
                FaultAction::AddServer {
                    server: default_integrity_spec().servers as u64,
                },
            );
            plan.at(SimTime(2 * MS), FaultAction::DrainServer { server: 0 });
            // copy 0 only, for the same collision-safety reason as the
            // scrub/read race
            for i in 0..2u64 {
                plan.at(
                    SimTime(3 * MS + i * MS + rng.next_below(MS)),
                    FaultAction::BitRot {
                        locus: rng.next_u64(),
                        shard: 0,
                    },
                );
            }
        }
        IntegrityScenario::RotBeyondRedundancy => {
            // same locus, both shards, 1 ns apart: a verified read
            // slipping between the two rots would repair the first and
            // turn the pair back into two single-copy rots, so the
            // second must land before any read can reach the unit
            let locus = rng.next_u64();
            let at = SimTime(MS + rng.next_below(MS));
            plan.at(at, FaultAction::BitRot { locus, shard: 0 });
            plan.at(SimTime(at.0 + 1), FaultAction::BitRot { locus, shard: 1 });
        }
    }
    plan
}

/// One status line with the integrity counters.  Its status is the raw
/// oracle verdict, so a planted rot-beyond-redundancy case that passed
/// by failing loudly shows its violations here.
pub fn render_integrity_line(v: &ChaosVerdict) -> String {
    format!(
        "{}  detected {} repaired {} unrepairable {} served_corrupt {}",
        v.status_line(v.oracle.ok()),
        v.csum.detected,
        v.csum.repaired,
        v.csum.unrepairable,
        v.csum.served_corrupt,
    )
}

/// The per-case row of the `integrity.json` artifact.
fn integrity_row(v: &ChaosVerdict) -> Json {
    let scrub = v.scrub.unwrap_or_default();
    Json::Obj(vec![
        ("scenario".into(), Json::Str(v.scenario.clone())),
        ("seed".into(), Json::num_u64(v.seed)),
        ("ok".into(), Json::Bool(v.passed())),
        ("verified".into(), Json::num_u64(v.csum.verified)),
        ("detected".into(), Json::num_u64(v.csum.detected)),
        ("repaired".into(), Json::num_u64(v.csum.repaired)),
        (
            "repaired_bytes".into(),
            Json::num_u64(v.csum.repaired_bytes),
        ),
        ("unrepairable".into(), Json::num_u64(v.csum.unrepairable)),
        (
            "served_corrupt".into(),
            Json::num_u64(v.csum.served_corrupt),
        ),
        ("scrub_units".into(), Json::num_u64(scrub.units_scanned)),
        ("scrub_passes".into(), Json::num_u64(scrub.passes)),
        (
            "violations".into(),
            Json::num_u64(v.oracle.violations.len() as u64),
        ),
        ("digest".into(), Json::Str(format!("{:#018x}", v.digest))),
    ])
}

/// The planted rot-beyond-redundancy signature: at least one violation,
/// and every violation a [`OracleKind::Corruption`].
fn loud_corruption(run: &CaseRun) -> bool {
    !run.oracle.violations.is_empty()
        && run
            .oracle
            .violations
            .iter()
            .all(|viol| viol.oracle == OracleKind::Corruption)
}

/// Scenario-aware verdict: the repairable scenarios must come back
/// green with nonzero repair activity; the planted rot-beyond-redundancy
/// case must fail **loudly** — at least one violation, every violation a
/// [`OracleKind::Corruption`], and no determinism divergence hiding in
/// the report.  Corrupt bytes are never served, in either regime.
pub fn integrity_case_ok(scen: IntegrityScenario, run: &CaseRun) -> bool {
    if run.csum.served_corrupt != 0 {
        return false;
    }
    match scen {
        IntegrityScenario::ScrubReadRace | IntegrityScenario::RotUnderRebalance => {
            run.oracle.ok() && run.csum.detected >= 1 && run.csum.repaired >= 1
        }
        IntegrityScenario::RotBeyondRedundancy => {
            loud_corruption(run) && run.csum.unrepairable >= 1
        }
    }
}

/// The integrity chaos family: seeded [`integrity_plan`] schedules over
/// `RP_2` IOR, judged by [`integrity_case_ok`] (the planted
/// rot-beyond-redundancy cases pass by failing loudly).
pub struct Integrity;

impl Family for Integrity {
    type Scenario = IntegrityScenario;
    const NAME: &'static str = "integrity";
    const PREFIX: &'static str = "integrity";
    const JUDGED_BY: &'static str = "bit-rot chaos";
    const SCENARIOS: &'static [IntegrityScenario] = &IntegrityScenario::ALL;

    fn scenario_name(&self, scen: IntegrityScenario) -> &'static str {
        scen.name()
    }

    fn default_spec(&self) -> RunSpec {
        default_integrity_spec()
    }

    fn seed_plan(
        &self,
        _: &RunSpec,
        scen: IntegrityScenario,
        _: &Calibration,
        seed: u64,
    ) -> FaultPlan {
        integrity_plan(scen, seed)
    }

    fn run_plan(
        &self,
        spec: &RunSpec,
        scen: IntegrityScenario,
        cal: &Calibration,
        plan: &FaultPlan,
        traced: bool,
    ) -> (CaseRun, Option<SpanExports>) {
        if scen == IntegrityScenario::RotUnderRebalance {
            // the rebalance-backed scenario has no traced runner
            let opts = RebalanceOpts::audited(plan);
            let report = run_rebalance_with(spec, RebalanceScenario::IorEasyRp2, cal, &opts);
            return (report.into(), None);
        }
        // the scrub/read race scrubs; beyond-redundancy reads may fail
        // as unavailable
        let opts = FaultedOpts {
            traced,
            scrub: scen == IntegrityScenario::ScrubReadRace,
            tolerate_unavailable: scen == IntegrityScenario::RotBeyondRedundancy,
            ..FaultedOpts::audited(plan)
        };
        let (report, exports) = run_faulted_with(spec, FaultedScenario::IorEasyRp2, cal, &opts);
        (report.into(), exports)
    }

    fn case_ok(&self, scen: IntegrityScenario, run: &CaseRun) -> bool {
        integrity_case_ok(scen, run)
    }

    /// For the repairable scenarios, an unexpected failure; for the
    /// planted rot-beyond-redundancy scenario, the loud corruption
    /// verdict itself — the minimal schedule that still makes the
    /// oracle scream.
    fn shrink_signature(&self, scen: IntegrityScenario, run: &CaseRun) -> bool {
        match scen {
            IntegrityScenario::RotBeyondRedundancy => loud_corruption(run),
            _ => !integrity_case_ok(scen, run),
        }
    }
}

/// Render integrity verdicts as the `integrity.json` artifact (stable
/// field order, trailing newline).
pub fn render_integrity_json(verdicts: &[ChaosVerdict]) -> String {
    let mut s = Json::Arr(verdicts.iter().map(integrity_row).collect()).render();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{parse_schedule, replay, run_case, schedule_json, shrink};

    fn tiny_spec() -> RunSpec {
        let mut spec = default_integrity_spec();
        spec.ops_per_proc = 8;
        spec
    }

    fn seeded(spec: &RunSpec, scen: IntegrityScenario, seed: u64) -> ChaosVerdict {
        let cal = Calibration::default();
        run_case(
            &Integrity,
            spec,
            scen,
            &cal,
            seed,
            integrity_plan(scen, seed),
        )
    }

    #[test]
    fn scrub_read_race_repairs_everything() {
        let v = seeded(&tiny_spec(), IntegrityScenario::ScrubReadRace, 3);
        assert!(v.passed(), "{}", render_integrity_line(&v));
        assert!(v.csum.detected >= 1, "planted rot went undetected");
        assert!(v.csum.repaired >= 1);
        assert_eq!(v.csum.served_corrupt, 0);
        assert_eq!(v.csum.unrepairable, 0, "single-copy rot always repairs");
        let scrub = v.scrub.expect("scenario scrubs");
        assert_eq!(scrub.passes, 1, "exactly one full scrub pass");
        assert!(scrub.units_scanned > 0);
    }

    #[test]
    fn rot_beyond_redundancy_fails_loudly_and_shrinks() {
        let spec = tiny_spec();
        let cal = Calibration::default();
        let scen = IntegrityScenario::RotBeyondRedundancy;
        let v = seeded(&spec, scen, 5);
        assert!(
            v.passed(),
            "loud corruption expected:\n{}",
            render_integrity_line(&v)
        );
        assert!(!v.oracle.ok(), "the oracle must scream");
        assert_eq!(v.csum.served_corrupt, 0, "refused, not served");
        // the two-event plan is already minimal: ddmin keeps both rots
        let outcome = shrink(&Integrity, &spec, scen, &cal, &v.plan);
        assert!(outcome.reproduced);
        assert_eq!(
            outcome.plan.len(),
            2,
            "both rots are load-bearing: {:?}",
            outcome.plan
        );
    }

    #[test]
    fn integrity_schedule_archives_and_replays_identically() {
        let spec = tiny_spec();
        let cal = Calibration::default();
        let v = seeded(&spec, IntegrityScenario::ScrubReadRace, 9);
        let json = schedule_json(&v.scenario, v.seed, &spec, &v.plan);
        let arch = parse_schedule(&json).expect("parses");
        let replayed = replay(&arch, &cal).expect("replays");
        assert_eq!(replayed.digest, v.digest);
        assert_eq!(replayed.csum, v.csum);
        assert_eq!(replayed.scrub, v.scrub);
    }
}
