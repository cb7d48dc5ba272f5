//! End-to-end chaos swarm acceptance: a seeded swarm runs green over
//! both scenario families, and a deliberately planted invariant
//! violation is detected by the oracles, shrunk to a minimal schedule
//! by delta debugging, archived to JSON, and replayed byte-identically
//! from the archive.  Every family's archives replay through the one
//! generic `replay`.

use benchkit::chaos::{
    archive_case, default_chaos_spec, parse_schedule, replay, run_case, schedule_json, shrink,
    swarm, Engine, Family, Faulted,
};
use benchkit::faulted::FaultedScenario;
use benchkit::integrity::{Integrity, IntegrityScenario};
use benchkit::rebalance::{Rebalance, RebalanceScenario};
use benchkit::{RunSpec, Scenario};
use cluster::Calibration;
use daos_core::{OracleKind, TargetId};
use simkit::{FaultAction, FaultPlan, SimTime};
use std::path::Path;

#[test]
fn seeded_swarm_is_green_over_both_families() {
    let mut spec = default_chaos_spec();
    spec.ops_per_proc = 8;
    let cal = Calibration::default();

    let faulted = swarm(&Faulted, &spec, &cal, &[1, 2]);
    assert_eq!(faulted.verdicts.len(), 2 * FaultedScenario::ALL.len());
    assert!(faulted.passed(), "faulted swarm:\n{}", faulted.render());
    // every case actually audited something
    for v in &faulted.verdicts {
        assert!(
            v.oracle.checked_kv + v.oracle.checked_extents > 0,
            "case {} seed {} audited nothing",
            v.scenario,
            v.seed
        );
    }

    let mut espec = benchkit::RunSpec::new(2, 1, 2);
    espec.ops_per_proc = 8;
    let engine = swarm(&Engine, &espec, &cal, &[5]);
    assert!(engine.passed(), "engine swarm:\n{}", engine.render());
}

/// A schedule that genuinely breaks the redundancy invariant: the
/// rebuild chain is armed once, by the first crash (rescan fires 2 ms
/// later), so a crash landing *after* the rescan leaves its target down
/// with nothing re-protecting the groups it belonged to.  Target 2.1
/// sits in a shard group of this workload's layout; the delayed
/// completions, the sibling crash the rebuild absorbs, and the restart
/// of an unrelated target are all shrinkable noise.
fn planted_plan() -> FaultPlan {
    let crash = |s: u16, t: u16| {
        FaultAction::TargetCrash(
            TargetId {
                server: s,
                target: t,
            }
            .pack(),
        )
    };
    let mut plan = FaultPlan::new();
    // trigger crash: arms the one-shot rebuild (rescan at +2 ms)
    plan.at(SimTime(0), crash(1, 0));
    // noise: recoverable weather and a sibling crash the rebuild absorbs
    plan.at(
        SimTime(100_000),
        FaultAction::DelayedCompletion {
            payload: 0,
            extra_ns: 50_000,
        },
    );
    plan.at(SimTime(500_000), crash(1, 1));
    // the stranded crash: lands after the rescan, never restarted,
    // never re-protected
    plan.at(SimTime(3_000_000), crash(2, 1));
    // more noise: a restart that heals one of the absorbed crashes
    plan.at(
        SimTime(4_000_000),
        FaultAction::TargetRestart(
            TargetId {
                server: 1,
                target: 1,
            }
            .pack(),
        ),
    );
    plan
}

#[test]
fn planted_violation_is_caught_shrunk_and_replayed_from_archive() {
    let mut spec = default_chaos_spec();
    // a long read phase (~50 ms simulated) keeps work in flight well
    // past the rebuild rescan, so the stranded crash actually fires
    spec.ops_per_proc = 64;
    let cal = Calibration::default();
    let scen = FaultedScenario::IorEasyRp2;
    let plan = planted_plan();

    // 1. detection: the redundancy oracle flags the stranded target
    let verdict = run_case(&Faulted, &spec, scen, &cal, 0xBAD, plan.clone());
    assert!(!verdict.passed(), "planted violation must be caught");
    assert!(
        verdict
            .oracle
            .violations
            .iter()
            .any(|v| v.oracle == OracleKind::RedundancyRestored && v.detail.contains("2.1")),
        "expected a RedundancyRestored violation naming target 2.1:\n{}",
        verdict.oracle.render()
    );

    // 2. shrinking: delta debugging reduces the schedule to the minimal
    // failing pair (trigger crash + stranded crash)
    let outcome = shrink(&Faulted, &spec, scen, &cal, &plan);
    assert!(outcome.reproduced, "shrinker must reproduce the failure");
    assert_eq!(
        outcome.plan.len(),
        2,
        "minimal repro is the crash pair, got:\n{}",
        outcome.plan.to_json()
    );
    assert!(outcome.removed >= 2, "noise events were removed");
    for ev in outcome.plan.events() {
        assert!(
            matches!(ev.action, FaultAction::TargetCrash(_)),
            "only crashes survive shrinking: {:?}",
            ev.action
        );
    }

    // 3. archive: JSON round-trips and the replay command reruns the
    // shrunken schedule byte-identically
    let direct = run_case(&Faulted, &spec, scen, &cal, 0xBAD, outcome.plan.clone());
    assert!(!direct.passed(), "shrunken schedule still fails");
    let json = schedule_json(scen.name(), 0xBAD, &spec, &outcome.plan);
    let arch = parse_schedule(&json).expect("archive parses");
    assert_eq!(arch.plan.to_json(), outcome.plan.to_json());
    let replayed = replay(&arch, &cal).expect("archive replays");
    assert_eq!(
        replayed.digest, direct.digest,
        "replay from archive is byte-identical"
    );
    assert!(!replayed.passed());
}

/// Run `scen`'s seed-3 case, archive it, and replay the archived
/// schedule through the generic `replay`.
fn archive_and_replay<F: Family>(fam: &F, scen: F::Scenario, spec: &RunSpec, out: &Path) {
    let cal = Calibration::default();
    let v = run_case(fam, spec, scen, &cal, 3, fam.seed_plan(spec, scen, &cal, 3));
    let (path, _) = archive_case(fam, &v, spec, &cal, out).expect("case archives");
    let json = std::fs::read_to_string(&path).expect("schedule written");
    assert!(
        json.contains("\"replay\": \"repro replay --schedule <this file>\""),
        "archive names the generic replay command: {json}"
    );
    let arch = parse_schedule(&json).expect("archive parses");
    let replayed = replay(&arch, &cal).expect("scenario resolves");
    assert_eq!(replayed.scenario, v.scenario);
    assert_eq!(
        replayed.digest, v.digest,
        "{} replays from its archive to the original digest",
        v.scenario
    );
}

#[test]
fn every_family_archives_and_replays_to_its_digest() {
    let out = std::env::temp_dir().join(format!("benchkit-archives-{}", std::process::id()));
    let mut spec = default_chaos_spec();
    spec.ops_per_proc = 8;
    archive_and_replay(&Faulted, FaultedScenario::IorHardEc2p1, &spec, &out);
    assert!(
        out.join("faulted-ior-hard-ec-2p1-crash.trace.json")
            .exists(),
        "faulted archives ship a traced replay"
    );
    let mut espec = RunSpec::new(2, 1, 2);
    espec.ops_per_proc = 8;
    archive_and_replay(&Engine, Scenario::FdbDaos, &espec, &out);
    archive_and_replay(&Rebalance, RebalanceScenario::IorHardEc2p1, &spec, &out);
    archive_and_replay(&Integrity, IntegrityScenario::ScrubReadRace, &spec, &out);
    std::fs::remove_dir_all(&out).expect("remove archive directory");
}
